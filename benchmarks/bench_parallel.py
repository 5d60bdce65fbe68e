"""PARALLEL — the execution-engine throughput gate (ISSUE 2 tentpole,
extended with the ISSUE 3 additive/entropy band case).

Replays the same 1M-update oblivious uniform stream through the robust
sketch-switching distinct-elements estimator three ways:

* **PR 1 serial batched** — the ``update_batch`` path this engine is
  measured against (the `BENCH_ingest.json` robust-switching baseline);
* **SerialEngine** — same process, with the shard plan's shared-work
  hoists (chunk deduped once, first-occurrence filtering over the
  duplicate-insensitive KMV copies);
* **ProcessEngine(>=4 workers)** — copies sharded across forked workers
  over shared-memory chunk buffers.

Asserts bit-for-bit equivalence (identical published outputs and switch
counts) across all three, and the acceptance gate: the process engine on
>= 4 workers is at least 2x the PR 1 serial batched path.

The **entropy** case replays a uniform stream through the robust
additive-band entropy tracker (Theorem 7.3) the same three ways — the
additive band runs the identical switching protocol since the
band-policy refactor, so the engine covers it too.  Here the shared-work
hoist is chunk aggregation (the Clifford–Cosma copies consume a linear
map of per-distinct-item delta sums, so the chunk is aggregated once for
all copies instead of once per copy); equivalence is again exact, and
the same >= 2x gate applies.  Also measures per-partial merge sharding
(CountMin) and the columnar-store + prefetch replay path, asserting
exactness for both.

The **stacked** case (ISSUE 6 tentpole) runs one F2 switching estimator
over k CountSketch copies twice — per-object twin vs stacked copy
groups, where the group's counter tables live in one ``(k, rows, width)``
block and every chunk is hashed once for all k planes.  Outputs and
switch counts must be bit-for-bit identical; the stacked run must be at
least 2x the twin.

The **traced** case (ISSUE 7) repeats the stacked run with full
telemetry — every switch, SVT charge, and band test streamed to a JSONL
sink (``out/trace_sample.jsonl``, uploaded as a CI artifact) plus the
metrics registry — asserting bit-for-bit identical outputs and at most
``MAX_TELEMETRY_OVERHEAD`` throughput cost; the *disabled*-telemetry
cost is covered by every other row, which runs with the no-op hub that
is the default.

Emits ``out/parallel_engine.{txt,json}``; ``run_all.py`` folds the JSON
into ``BENCH_parallel.json`` at the repo root, and
``benchmarks/check_regression.py`` gates CI on the speedup columns
against the committed baseline.
"""

import tempfile
import time

import numpy as np

from repro.core.bands import MultiplicativeBand
from repro.core.disciplines import PrivateAggregateDiscipline
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine import ProcessEngine, SerialEngine, fork_available
from repro.robust.distinct import RobustDistinctElements
from repro.robust.entropy import RobustEntropy
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.streams.frequency import FrequencyVector
from repro.streams.model import StreamChunk, StreamParameters
from repro.streams.sources import GeneratorChunkSource
from repro.streams.store import write_stream
from tables import OUT_DIR, emit, emit_json, format_row

N = 1 << 14
M = 1_000_000
CHUNK = 65536
EPS = 0.25
WORKERS = 4
WIDTHS = (30, 14, 10, 10, 10)
MIN_PARALLEL_SPEEDUP = 2.0

# Entropy (additive band) case: a small universe gives chunk aggregation
# — the hoist the engine adds for linear-map sketches — its headroom
# (65536-update chunks collapse to <= 256 distinct items), the long
# stream amortizes the one crossing-heavy ramp chunk that every path
# pays identically, and explicit copies/row constants keep the replay
# laptop-sized.
ENT_N = 1 << 8
ENT_M = 2_000_000
ENT_EPS = 0.6
ENT_COPIES = 24

# Stacked copy groups case: many copies of a small CountSketch make the
# per-copy Python dispatch the dominant cost on the object path, which
# is exactly the overhead the stacked kernels amortize; the small
# universe keeps chunks aggregation-friendly like the entropy case.
STK_N = 1 << 8
STK_M = 2_000_000
STK_COPIES = 24
STK_WIDTH = 256
STK_ROWS = 5
MIN_STACKED_SPEEDUP = 2.0

# Full tracing (every protocol event to a JSONL sink + live metrics) may
# cost at most this fraction of stacked-run throughput.  Events ride
# switch/boundary branches, never the per-item hot loop, so the bound is
# loose headroom, not a target.
MAX_TELEMETRY_OVERHEAD = 0.25


def _robust(seed=11):
    return RobustDistinctElements(
        n=N, m=M, eps=EPS, rng=np.random.default_rng(seed)
    )


def _robust_entropy(seed=13):
    return RobustEntropy(
        n=ENT_N, m=ENT_M, eps=ENT_EPS, rng=np.random.default_rng(seed),
        copies=ENT_COPIES, cc_constant=0.5,
    )


def _stacked_switching(stacked):
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(
            STK_WIDTH, STK_ROWS, rng, track_candidates=0
        ),
        copies=STK_COPIES, rng=np.random.default_rng(42),
        band=MultiplicativeBand(0.9),
        discipline=PrivateAggregateDiscipline(noise_scale=0.01),
        stacked=stacked,
    )


def _run_engine(est, items, engine):
    m = len(items)
    start = time.perf_counter()
    if engine is None:
        for lo in range(0, m, CHUNK):
            est.update_batch(StreamChunk.insertions(items[lo:lo + CHUNK]))
    else:
        with engine.session(est) as session:
            for lo in range(0, m, CHUNK):
                session.feed(items[lo:lo + CHUNK])
    return m / (time.perf_counter() - start)


def test_parallel_engine_throughput(benchmark):
    rng = np.random.default_rng(2024)
    items = rng.integers(0, N, size=M)
    truth = FrequencyVector()
    truth.update_batch(items)

    rows = [format_row(
        ("path", "items/s", "speedup", "switches", "rel err"), WIDTHS
    )]
    payload = {
        "n": N, "m": M, "chunk": CHUNK, "eps": EPS, "workers": WORKERS,
        "entropy": {"n": ENT_N, "m": ENT_M, "eps": ENT_EPS,
                    "copies": ENT_COPIES},
        "results": {},
    }

    def run_all():
        contenders = [("pr1_serial_batched", None),
                      ("engine_serial", SerialEngine())]
        if fork_available():
            contenders.append(
                (f"engine_process_{WORKERS}w", ProcessEngine(workers=WORKERS))
            )
        results = {}
        for name, engine in contenders:
            est = _robust()
            rate = _run_engine(est, items, engine)
            results[name] = (rate, est)
            err = abs(est.query() - truth.f0()) / truth.f0()
            speedup = rate / results["pr1_serial_batched"][0]
            payload["results"][name] = {
                "items_per_sec": round(rate),
                "speedup_vs_pr1": round(speedup, 2),
                "switches": est.switches,
                "final_estimate": round(est.query(), 1),
                "final_relative_error": round(err, 4),
            }
            rows.append(format_row(
                (name, f"{rate:,.0f}", f"{speedup:.2f}x", est.switches,
                 f"{err:.3f}"), WIDTHS,
            ))

        # The engines must be *equivalent*, not just fast: identical
        # published outputs and switch counts.
        base = results["pr1_serial_batched"][1]
        for name, (_, est) in results.items():
            assert est.query() == base.query(), f"{name} diverged in output"
            assert est.switches == base.switches, f"{name} switch count"
        if fork_available():
            speedup = (
                results[f"engine_process_{WORKERS}w"][0]
                / results["pr1_serial_batched"][0]
            )
            assert speedup >= MIN_PARALLEL_SPEEDUP, (
                f"process engine only {speedup:.2f}x over the PR 1 serial "
                f"batched path (required >= {MIN_PARALLEL_SPEEDUP}x)"
            )

        # Additive band (entropy): same protocol, same engines, same gate.
        ent_items = np.random.default_rng(77).integers(0, ENT_N, size=ENT_M)
        ent_truth = FrequencyVector()
        ent_truth.update_batch(ent_items)
        h_true = ent_truth.shannon_entropy()
        ent_contenders = [("entropy_pr1_serial_batched", None),
                          ("entropy_engine_serial", SerialEngine())]
        if fork_available():
            ent_contenders.append((
                f"entropy_engine_process_{WORKERS}w",
                ProcessEngine(workers=WORKERS),
            ))
        ent_results = {}
        for name, engine in ent_contenders:
            est = _robust_entropy()
            rate = _run_engine(est, ent_items, engine)
            ent_results[name] = (rate, est)
            speedup = rate / ent_results["entropy_pr1_serial_batched"][0]
            payload["results"][name] = {
                "items_per_sec": round(rate),
                "speedup_vs_pr1": round(speedup, 2),
                "switches": est.switches,
                "final_estimate": round(est.query(), 4),
                "final_additive_error": round(abs(est.query() - h_true), 4),
            }
            rows.append(format_row(
                (name, f"{rate:,.0f}", f"{speedup:.2f}x", est.switches,
                 f"{abs(est.query() - h_true):.3f}"), WIDTHS,
            ))
        ent_base = ent_results["entropy_pr1_serial_batched"][1]
        for name, (_, est) in ent_results.items():
            assert est.query() == ent_base.query(), f"{name} diverged"
            assert est.switches == ent_base.switches, f"{name} switch count"
        for name, (rate, _) in ent_results.items():
            if name == "entropy_pr1_serial_batched":
                continue
            speedup = rate / ent_results["entropy_pr1_serial_batched"][0]
            assert speedup >= MIN_PARALLEL_SPEEDUP, (
                f"{name} only {speedup:.2f}x over the entropy PR 1 serial "
                f"batched path (required >= {MIN_PARALLEL_SPEEDUP}x)"
            )

        # Stacked copy groups (ISSUE 6): the same F2 switching estimator
        # twice — per-object twin, then stacked — over one stream.  One
        # shared hash pass feeds and probes all copies on the stacked
        # path; outputs must be bit-for-bit identical and the stacked
        # run at least MIN_STACKED_SPEEDUP x the twin.
        stk_items = np.random.default_rng(11).integers(0, STK_N, size=STK_M)
        stk_results = {}
        for name, stacked in (("stacked_object_engine_serial", False),
                              ("stacked_engine_serial", True)):
            est = _stacked_switching(stacked)
            start = time.perf_counter()
            with SerialEngine().session(est) as session:
                for lo in range(0, STK_M, CHUNK):
                    session.feed(stk_items[lo:lo + CHUNK])
                phases = session.phase_seconds
            rate = STK_M / (time.perf_counter() - start)
            stk_results[name] = (rate, est)
            speedup = rate / stk_results["stacked_object_engine_serial"][0]
            payload["results"][name] = {
                "items_per_sec": round(rate),
                "speedup_vs_pr1": round(speedup, 2),
                "switches": est.switches,
                "final_estimate": round(est.query(), 1),
                "phase_seconds": {k: round(v, 3)
                                  for k, v in phases.items()},
            }
            rows.append(format_row(
                (name, f"{rate:,.0f}", f"{speedup:.2f}x", est.switches,
                 "-"), WIDTHS,
            ))
        stk_base = stk_results["stacked_object_engine_serial"][1]
        stk_est = stk_results["stacked_engine_serial"][1]
        assert stk_est.query() == stk_base.query(), (
            "stacked copy groups diverged from the per-object twin"
        )
        assert stk_est.switches == stk_base.switches, (
            "stacked copy groups changed the switch count"
        )
        stk_speedup = (
            stk_results["stacked_engine_serial"][0]
            / stk_results["stacked_object_engine_serial"][0]
        )
        assert stk_speedup >= MIN_STACKED_SPEEDUP, (
            f"stacked copy groups only {stk_speedup:.2f}x over the "
            f"per-object twin (required >= {MIN_STACKED_SPEEDUP}x)"
        )

        # Telemetry overhead (ISSUE 7): the same stacked DP workload once
        # more with *full tracing* — every protocol event streamed to a
        # JSONL sink plus the metrics registry — must stay within
        # MAX_TELEMETRY_OVERHEAD of the untraced stacked run and produce
        # bit-for-bit identical outputs.  (The disabled-telemetry cost is
        # gated implicitly: every other row in this file runs with the
        # NULL_TELEMETRY default, and check_regression.py holds those
        # rows to the committed baseline.)
        from repro.api import install_telemetry
        from repro.obs import JsonlSink, Telemetry

        trace_path = str(OUT_DIR / "trace_sample.jsonl")
        traced_est = _stacked_switching(True)
        tele = Telemetry(sinks=[JsonlSink(trace_path)])
        install_telemetry(traced_est, tele)
        start = time.perf_counter()
        with SerialEngine().session(traced_est) as session:
            for lo in range(0, STK_M, CHUNK):
                session.feed(stk_items[lo:lo + CHUNK])
        traced_rate = STK_M / (time.perf_counter() - start)
        tele.close()
        assert traced_est.query() == stk_est.query(), (
            "tracing changed the stacked estimator's output"
        )
        assert traced_est.switches == stk_est.switches, (
            "tracing changed the stacked estimator's switch count"
        )
        overhead = stk_results["stacked_engine_serial"][0] / traced_rate - 1.0
        assert overhead <= MAX_TELEMETRY_OVERHEAD, (
            f"full tracing cost {overhead:.1%} over the untraced stacked "
            f"run (bound {MAX_TELEMETRY_OVERHEAD:.0%})"
        )
        traced_speedup = (
            traced_rate / stk_results["stacked_object_engine_serial"][0]
        )
        payload["results"]["stacked_traced_engine_serial"] = {
            "items_per_sec": round(traced_rate),
            "speedup_vs_pr1": round(traced_speedup, 2),
            "switches": traced_est.switches,
            "final_estimate": round(traced_est.query(), 1),
            "tracing_overhead": round(overhead, 4),
            "trace_events": sum(tele.event_counts.values()),
            "trace_path": trace_path,
        }
        rows.append(format_row(
            ("stacked_traced_engine_serial", f"{traced_rate:,.0f}",
             f"{traced_speedup:.2f}x", traced_est.switches, "-"), WIDTHS,
        ))

        # Spec-shipped chunk sources (ISSUE 8): the same stacked DP
        # workload, driven from a ChunkSource *description* of the
        # stream instead of staged bytes.  Serial: the source is
        # materialized on the coordinator and takes the bytes path, so
        # this row also pays generation; its speed is gated against the
        # committed baseline by check_regression.py.  Process: the
        # picklable spec is broadcast once and every worker regenerates
        # its own chunks — the per-chunk shared-memory copy, staging
        # barrier, and coordinator generation loop all disappear.
        # Outputs, switch counts, and DP budget state must be
        # bit-for-bit identical to the bytes-shipped rows.
        spec_src = GeneratorChunkSource(
            "uniform", n=STK_N, m=STK_M, seed=11, chunk_size=CHUNK
        )
        stk_object_rate = stk_results["stacked_object_engine_serial"][0]
        spec_est = _stacked_switching(True)
        start = time.perf_counter()
        with SerialEngine().session(spec_est, source=spec_src) as session:
            assert session.source_mode.startswith("bytes:"), \
                session.source_mode
            session.feed_source(spec_src)
        spec_rate = STK_M / (time.perf_counter() - start)
        assert spec_est.query() == stk_est.query(), (
            "spec-shipped serial diverged from the bytes-shipped output"
        )
        assert spec_est.switches == stk_est.switches, (
            "spec-shipped serial changed the switch count"
        )
        assert (spec_est.discipline.budget_state()
                == stk_est.discipline.budget_state()), (
            "spec-shipped serial changed the DP budget state"
        )
        spec_vs_bytes = spec_rate / stk_results["stacked_engine_serial"][0]
        payload["results"]["stacked_spec_engine_serial"] = {
            "items_per_sec": round(spec_rate),
            "speedup_vs_pr1": round(spec_rate / stk_object_rate, 2),
            "speedup_vs_bytes": round(spec_vs_bytes, 2),
            "switches": spec_est.switches,
            "final_estimate": round(spec_est.query(), 1),
        }
        rows.append(format_row(
            ("stacked_spec_engine_serial", f"{spec_rate:,.0f}",
             f"{spec_rate / stk_object_rate:.2f}x", spec_est.switches,
             "-"), WIDTHS,
        ))
        if fork_available():
            spec_proc = _stacked_switching(True)
            start = time.perf_counter()
            with ProcessEngine(workers=WORKERS).session(
                spec_proc, source=spec_src
            ) as session:
                assert session.spec_shipped, "spec mode did not engage"
                assert session.source_mode == "spec"
                session.feed_source(spec_src)
            proc_spec_rate = STK_M / (time.perf_counter() - start)
            assert spec_proc.query() == stk_est.query(), (
                "spec-shipped process diverged from the bytes-shipped output"
            )
            assert spec_proc.switches == stk_est.switches, (
                "spec-shipped process changed the switch count"
            )
            assert (spec_proc.discipline.budget_state()
                    == stk_est.discipline.budget_state()), (
                "spec-shipped process changed the DP budget state"
            )
            payload["results"][f"stacked_spec_engine_process_{WORKERS}w"] = {
                "items_per_sec": round(proc_spec_rate),
                "speedup_vs_pr1": round(proc_spec_rate / stk_object_rate, 2),
                "speedup_vs_bytes": round(
                    proc_spec_rate / stk_results["stacked_engine_serial"][0],
                    2,
                ),
                "switches": spec_proc.switches,
                "final_estimate": round(spec_proc.query(), 1),
            }
            rows.append(format_row(
                (f"stacked_spec_engine_process_{WORKERS}w",
                 f"{proc_spec_rate:,.0f}",
                 f"{proc_spec_rate / stk_object_rate:.2f}x",
                 spec_proc.switches, "-"), WIDTHS,
            ))

        # Per-partial merge sharding: CountMin across workers, exact table.
        serial_cm = CountMinSketch(2048, 5, np.random.default_rng(7))
        start = time.perf_counter()
        for lo in range(0, M, CHUNK):
            serial_cm.update_batch(items[lo:lo + CHUNK])
        serial_rate = M / (time.perf_counter() - start)
        if fork_available():
            merged_cm = CountMinSketch(2048, 5, np.random.default_rng(7))
            rate = _run_engine(merged_cm, items, ProcessEngine(workers=WORKERS))
            assert np.array_equal(serial_cm._table, merged_cm._table), (
                "merged CountMin table diverged from serial"
            )
            payload["results"]["countmin_merge_shards"] = {
                "items_per_sec": round(rate),
                "speedup_vs_serial": round(rate / serial_rate, 2),
            }
            rows.append(format_row(
                ("countmin merge shards", f"{rate:,.0f}",
                 f"{rate / serial_rate:.2f}x", "-", "exact"), WIDTHS,
            ))

        # Columnar store + double-buffered prefetch replay.
        with tempfile.TemporaryDirectory() as tmp:
            store = write_stream(
                tmp + "/stream", StreamChunk.insertions(items),
                chunk_size=CHUNK, params=StreamParameters(n=N, m=M),
            )
            reader_cm = CountMinSketch(2048, 5, np.random.default_rng(7))
            start = time.perf_counter()
            from repro.api import ingest
            report = ingest(reader_cm, store, chunk_size=CHUNK, prefetch=2)
            rate = M / (time.perf_counter() - start)
            assert report.updates == M
            assert np.array_equal(serial_cm._table, reader_cm._table), (
                "columnar replay diverged from in-memory ingestion"
            )
            payload["results"]["columnar_store_replay"] = {
                "items_per_sec": round(rate),
            }
            rows.append(format_row(
                ("columnar store + prefetch", f"{rate:,.0f}", "-", "-",
                 "exact"), WIDTHS,
            ))
        return payload

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows.append("")
    rows.append(
        f"n={N}, m={M:,} uniform oblivious stream, chunk={CHUNK}, "
        f"eps={EPS}; robust switching = Theorem 5.1 KMV ring; "
        f"process engine = {WORKERS} forked workers over shared memory; "
        f"entropy = Theorem 7.3 additive band, n={ENT_N}, m={ENT_M:,}, "
        f"eps={ENT_EPS}, {ENT_COPIES} CC copies (err column is additive); "
        f"stacked = F2 switching over {STK_COPIES} CountSketch"
        f"({STK_WIDTH}x{STK_ROWS}) copies, n={STK_N}, m={STK_M:,}, DP "
        f"aggregate discipline, speedup vs the per-object twin"
    )
    emit("parallel_engine", rows)
    emit_json("parallel_engine", payload)
