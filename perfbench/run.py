"""Repeatable end-to-end and per-layer benchmark of the switching stack.

Run from the repository root::

    python3 perfbench/run.py --workload f2dp-replay --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures untraced for half the time, then traced for the
other half, and reports the per-layer metrics (plus the tracing
overhead).  End-to-end times are scaled to a reference host speed by a
calibration kernel run between the timed operations (``calibrate.py``);
the info line also gives the unscaled items per second.  ``--smoke``
runs every workload on tiny inputs with all correctness checks and
prints no metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A correctness
mismatch (repetitions of one seed publishing different outputs, or the
spec-shipped process run disagreeing with the serial replay) exits
non-zero without printing that line.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before NumPy loads; forked
# engine workers inherit the environment and the loaded libraries.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-up probes per run (short ingests timed up to the first chunk),
#: on top of the set-up of every measured repetition.
SETUP_PROBES = 15
#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10
P50, P95 = 50, 95

END_TO_END = (
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("space_kib", "KiB"),
    ("ok_share", "ratio"),
)


class CheckFailed(RuntimeError):
    """A correctness check failed; the run must not report numbers."""


def min_samples(q: int) -> int:
    """Fewest samples that leave TAIL_SAMPLES beyond percentile ``q``."""
    return -(-TAIL_SAMPLES * 100 // (100 - q))


def percentile(samples, q: int) -> float:
    """Nearest-rank percentile; refuses when the tail is too thin."""
    values = sorted(samples)
    need = min_samples(q)
    if len(values) < need:
        raise ValueError(
            f"p{q} of {len(values)} samples leaves fewer than "
            f"{TAIL_SAMPLES} beyond it; need at least {need}"
        )
    rank = -(-len(values) * q // 100)
    return values[rank - 1]


def import_repro():
    """Import the library from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no library sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {src}"
        )


def physical_cores() -> int | None:
    """Distinct (physical id, core id) pairs in /proc/cpuinfo."""
    try:
        with open("/proc/cpuinfo") as fh:
            text = fh.read()
    except OSError:
        return None
    cores = set()
    phys = core = None
    for line in text.splitlines() + [""]:
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "physical id":
            phys = value.strip()
        elif key == "core id":
            core = value.strip()
        elif not key and core is not None:
            cores.add((phys, core))
            phys = core = None
    return len(cores) or None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "physical_cores": physical_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def skip_reason(wl) -> str | None:
    """Why a multi-worker workload cannot give a meaningful number here."""
    if not wl.workers:
        return None
    from repro.engine.executor import fork_available

    if not fork_available():
        return "fork start method unavailable"
    cores = len(os.sched_getaffinity(0))
    if cores < wl.workers:
        return f"{cores} usable cores < {wl.workers} workers"
    return None


def peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus its workers' (shared pages count
    in each).  Every run is its own process, so no earlier run's peak
    is included."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def fresh_run(wl, clock, **kwargs):
    """One repetition, after collecting garbage outside the timed region
    so that every repetition starts from the same collector state."""
    gc.collect()
    return wl.run(clock, **kwargs)


def attempt(wl, clock, **kwargs):
    """One measured repetition, or None if it raised (all its operations
    then count as failed)."""
    try:
        return fresh_run(wl, clock, **kwargs)
    except CheckFailed:
        raise
    except Exception:
        traceback.print_exc()
        return None


def repeat(wls, clock, seconds: float, least_reps: int, least_samples: int,
           **kwargs) -> list:
    """Repetitions, cycling through the variants ``wls``, while the next
    one should end within ``seconds``, and until both minimums are met."""
    reps = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (reps and elapsed * (len(reps) + 1) / len(reps) > seconds
                and len(reps) >= least_reps
                and sum(len(r.latencies) for r in reps if r) >= least_samples):
            return reps
        wl = wls[len(reps) % len(wls)]
        reps.append(attempt(wl, clock, **kwargs))
        if not any(reps):
            raise CheckFailed(f"{wl.name}: the first repetition raised")


def tally(wl, reps) -> tuple[int, int]:
    """(attempted, failed) operations; a raising repetition fails whole."""
    attempted = sum(r.ops if r else wl.ops_per_rep for r in reps)
    failed = sum(r.failed if r else wl.ops_per_rep for r in reps)
    return attempted, failed


def check_digests(wl, reps) -> dict[int, str]:
    """The one output digest of each variant over all its repetitions."""
    digests = {}
    for r in reps:
        if r and digests.setdefault(r.variant, r.digest) != r.digest:
            raise CheckFailed(
                f"{wl.name}: repetitions of seed {wl.seed} variant "
                f"{r.variant} gave different output digests"
            )
    return digests


def check_spec_matches_replay(wl, clock, reps, digests: dict) -> None:
    """The spec-shipped process run must be one, and equal the serial
    replay of the same stream, for every variant it ran."""
    from workloads import F2Replay

    modes = {r.source_mode for r in reps if r}
    if modes != {"spec"}:
        raise CheckFailed(f"{wl.name}: expected spec-shipped sessions, "
                          f"got source modes {sorted(map(str, modes))}")

    for variant, spec_digest in sorted(digests.items()):
        ref = F2Replay(wl.seed, smoke=wl.smoke, variant=variant).run(clock)
        if ref.digest != spec_digest:
            raise CheckFailed(
                f"f2dp-spec-p2 and f2dp-replay disagree for seed {wl.seed} "
                f"variant {variant}: digest {spec_digest[:12]} != "
                f"{ref.digest[:12]}"
            )


def end_to_end(wl, reps, setups) -> dict:
    done = [r for r in reps if r]
    lat = [s for r in done for s in r.latencies]
    attempted, failed = tally(wl, reps)
    return {
        "items_per_s": statistics.median(r.items_per_s for r in done),
        "latency_p50_ms": percentile(lat, P50) * 1e3,
        "latency_p95_ms": percentile(lat, P95) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(wl.workers),
        "space_kib": done[0].space_kib,
        "ok_share": 1.0 - failed / attempted,
    }


def counter(snapshot: dict | None, name: str) -> float:
    metric = ((snapshot or {}).get("metrics") or {}).get(name) or {}
    return metric.get("value", 0.0)


def traced_rep(wl, clock, untraced_rate: float):
    """One traced repetition: (per-layer metrics, rep, span dump)."""
    import layers
    from spans import Patcher, SpanRecorder, timed

    rec = SpanRecorder()
    # The discipline and band classes of the estimator this workload builds.
    switcher = wl.switcher(wl.build())

    def instrument(est, adversary, truth_fn, judge):
        patcher.attribute(est, "process_update", timed(
            rec, "protocol.process_update", est.process_update))
        for attr in ("next_update", "observe"):
            patcher.attribute(adversary, attr, timed(
                rec, "game.adversary", getattr(adversary, attr)))
        return (timed(rec, "game.referee", truth_fn),
                timed(rec, "game.referee", judge))

    with Patcher() as patcher:
        layers.install(patcher, rec, sketch_classes=wl.sketch_classes,
                       stack_classes=wl.stack_classes,
                       discipline=switcher.discipline, band=switcher.band)
        # The benchmark's own kernel, a child span of whichever layer
        # call it runs in, so that it is not that layer's self time.
        patcher.attribute(clock, "calibrate",
                          timed(rec, "bench.calibrate", clock.calibrate))
        start = time.perf_counter()
        if wl.kind == "game":
            rep = fresh_run(wl, clock, instrument=instrument)
        else:
            rep = fresh_run(wl, clock, telemetry="metrics")
        wall = time.perf_counter() - start
    tele = rep.telemetry
    chunks = int(counter(tele, "ingest_chunks_total"))
    metrics = layers.metrics(
        rec, wall_s=wall, chunks=chunks, switches=rep.switches,
        crossings=int(counter(tele, "protocol_crossing_chunks_total")),
        phases=rep.phases,
        overhead=rep.items_per_s / untraced_rate - 1.0,
    )
    if wl.kind != "game" and int(counter(tele, "protocol_switches_total")) \
            != rep.switches:
        raise CheckFailed(f"{wl.name}: telemetry switch count disagrees")
    return metrics, rep, rec.dump()


def measure(wls, seconds: float, trace: bool):
    """(metrics, every repetition, info, span dump or None) of one run
    over the variants ``wls`` of one workload and seed."""
    import workloads
    from spans import Patcher

    wl = wls[0]
    clock = workloads.ChunkClock()
    with Patcher() as patcher:
        clock.install(patcher)
        fresh_run(wl, clock, limit=wl.warmup_limit)
        setups = [fresh_run(wl, clock, limit=wl.probe_limit).setup_s
                  for _ in range(SETUP_PROBES)]
        if not trace:
            reps = repeat(wls, clock, seconds, len(wls) + 1,
                          min_samples(P95))
            metrics = end_to_end(
                wl, reps, setups + [r.setup_s for r in reps if r])
            all_reps, dump = reps, None
        else:
            reps = repeat(wls, clock, seconds / 2, 1, 0)
            rate = statistics.median(r.items_per_s for r in reps if r)
            traced, dumps = [], None
            start = time.perf_counter()
            while not traced or (time.perf_counter() - start) * (
                    len(traced) + 1) / len(traced) <= seconds / 2:
                metrics, rep, dumps = traced_rep(
                    wls[len(traced) % len(wls)], clock, rate)
                traced.append((metrics, rep))
            metrics = {
                name: statistics.median(m[name] for m, _ in traced)
                for name in traced[0][0]
            }
            all_reps, dump = reps + [rep for _, rep in traced], dumps
        digests = check_digests(wl, all_reps)
        if wl.workers:
            check_spec_matches_replay(wl, clock, all_reps, digests)
    done = [r for r in all_reps if r]
    info = {
        "workload": wl.name,
        "seed": wl.seed,
        "reps": len(all_reps),
        "latency_samples": sum(len(r.latencies) for r in reps if r),
        "raw_items_per_s": statistics.median(
            r.raw_items_per_s for r in done),
        "host_scale": statistics.median(
            r.busy_s / r.raw_busy_s for r in done),
        "digests": [digests[v] for v in sorted(digests)],
        "switches": {r.variant: r.switches for r in done},
    }
    return metrics, all_reps, info, dump


def smoke(seed: int) -> int:
    """Every workload on tiny inputs, all checks on; no metrics."""
    import workloads
    from spans import Patcher

    clock = workloads.ChunkClock()
    ok = True
    with Patcher() as patcher:
        clock.install(patcher)
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(seed, smoke=True)
            reason = skip_reason(wl)
            if reason is not None:
                print(f"{name}: skipped ({reason})")
                continue
            reps = [wl.run(clock) for _ in range(2)]
            digests = check_digests(wl, reps)
            if wl.workers:
                check_spec_matches_replay(wl, clock, reps, digests)
            digest = digests[0]
            failed = sum(r.failed for r in reps)
            ok = ok and failed == 0
            print(f"{name}: digest {digest[:16]} failed {failed}/"
                  f"{sum(r.ops for r in reps)}")
    return 0 if ok else 1


def parse(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    import_repro()
    args = parse(argv)
    try:
        if args.smoke:
            return smoke(args.seed)
        import workloads

        cls = workloads.WORKLOADS[args.workload]
        wls = [cls(args.seed, variant=v) for v in range(cls.variants)]
        wl = wls[0]
        reason = skip_reason(wl)
        if reason is not None:
            print(json.dumps({"skipped": wl.name, "reason": reason}))
            return 3
        metrics, reps, info, dump = measure(wls, args.seconds,
                                            bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    info["machine"] = machine()
    if dump is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.json")
        with open(path, "w") as fh:
            json.dump(dump, fh)
        info["spans"] = os.path.relpath(path, ROOT)
    print(json.dumps({"info": info}))
    if args.trace:
        import layers

        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6g} {units[name]}")
    attempted, failed = tally(wl, reps)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
