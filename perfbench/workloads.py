"""The four benchmark workloads and one repetition of each.

Each workload derives its estimator seed, stream seed and adversary
seed from the benchmark's ``--seed``; the library only ever sees the
generated inputs.  A repetition builds a fresh estimator, hands the
whole stream over through the public API, and records what a user
would see: set-up time, busy time, per-publication latency, the
published values, and whether each publication was inside the
workload's tolerance of exact ground truth.  Times are scaled to the
reference host speed (``calibrate.py``) by the workload's kernel, run
right after each chunk, every ``CAL_EVERY`` game rounds, and before
set-up.

Why these four (see ``workloads.json`` for the per-layer predictions):

* ``f2dp-replay`` — 24 stacked CountSketch copies under the DP
  aggregate: every chunk is one shared hash pass, a scatter into all
  planes and a ``query_all``; crossings come early and at seed-fixed
  chunks, so the p95 latency is crossing resolution.
* ``f2dp-spec-p2`` — the same estimator and stream as a spec shipped to
  two forked workers: IPC and the worker-side copies do the work.
* ``distinct-replay`` — the Theorem 5.1 KMV restart ring fed a plain
  item array: one probed copy, the seen-filter fan-out, per-object
  ``update_batch``, ring restarts, and the per-item chunk adapter.
* ``f2dp-game`` — Algorithm 3's adaptive AMS attack against the
  ``f2dp-replay`` estimator, one update per round (closed loop, one
  adversary that waits for every reply).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from calibrate import host_scale
from repro.adversary.ams_attack import AMSAttackAdversary
from repro.adversary.game import AdversarialGame
from repro.core.bands import MultiplicativeBand
from repro.core.disciplines import PrivateAggregateDiscipline
from repro.core.sketch_switching import SwitchingEstimator, SwitchingProtocol
from repro.engine.shards import plan_shards
from repro.sketches.countsketch import CountSketch, CountSketchStack
from repro.sketches.kmv import KMVSketch
from repro.streams.model import StreamChunk
from repro.streams.sources import GeneratorChunkSource

CHUNK = 8192

# The stacked DP estimator shared by f2dp-replay, f2dp-spec-p2, f2dp-game.
F2_N = 256
F2_COPIES = 24
CS_WIDTH = 256
CS_ROWS = 5
F2_BAND = 0.9
F2_NOISE = 0.01
#: A replayed publication fails when it is off exact F2 by more than
#: eps * F2 (eps = F2_BAND), the tracking guarantee of the band.
F2_REPLAY_TOL = F2_BAND
#: A game publication fails when it is off exact F2 by more than this
#: factor either way; the lower edge is Theorem 9.1's fooling event
#: (estimate < F2/2).
F2_GAME_FACTOR = 2.0

DISTINCT_N = 1 << 14
DISTINCT_EPS = 0.25
#: A publication fails when it is off exact F0 by more than eps * F0,
#: the Theorem 5.1 guarantee.
DISTINCT_TOL = DISTINCT_EPS

#: Stream lengths.  The F2 replays run 128 chunks: about one chunk in
#: nine crosses the band, so the pooled p95 falls in the middle of the
#: crossing chunks rather than on their few slowest.  distinct-replay
#: runs 200 chunks so its p95 falls among the growth-phase chunks
#: rather than on the few crossing-heavy first chunks.
SIZES = {
    "full": {"f2_chunks": 128, "distinct_chunks": 200, "game_rounds": 4000},
    "smoke": {"f2_chunks": 3, "distinct_chunks": 3, "game_rounds": 300},
}

#: Game rounds between two host-speed calibrations (about 7 ms of work).
CAL_EVERY = 20

#: Updates a set-up probe hands over: one short chunk, enough to reach
#: the protocol's chunk path (> REPLAY_LEAF updates).
PROBE_UPDATES = 128


def seeds_from(seed: int, variant: int = 0) -> tuple[int, int, int]:
    """(estimator, stream, adversary) seeds of one variant of ``seed``,
    independent of each other and of the other variants'."""
    seq = np.random.SeedSequence(seed, spawn_key=(variant,))
    est, stream, adv = seq.generate_state(3)
    return int(est), int(stream), int(adv)


def f2dp_estimator(seed: int) -> SwitchingEstimator:
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(
            CS_WIDTH, CS_ROWS, rng, track_candidates=0
        ),
        copies=F2_COPIES,
        rng=np.random.default_rng(seed),
        band=MultiplicativeBand(F2_BAND),
        discipline=PrivateAggregateDiscipline(noise_scale=F2_NOISE),
    )


def fooled(published, truth):
    """Outside the game's F2 tolerance; works on scalars (the referee's
    judge) and elementwise on arrays."""
    return ((published < truth / F2_GAME_FACTOR)
            | (published > truth * F2_GAME_FACTOR))


def digest(est, switcher, published: np.ndarray) -> str:
    """Hash of everything a repetition publishes; equal runs, equal hash."""
    state = {
        "final": float(est.query()).hex(),
        "switches": switcher.switches,
        "budget": switcher.discipline.budget_state(),
        "space_bits": est.space_bits(),
    }
    h = hashlib.sha256(json.dumps(state, sort_keys=True).encode())
    h.update(np.ascontiguousarray(published, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class Rep:
    """What one repetition observed; times at the reference host speed
    except ``raw_busy_s``, the wall time the busy part took."""

    setup_s: float
    busy_s: float
    raw_busy_s: float
    items: int
    latencies: list = field(repr=False)
    failed: int
    ops: int
    digest: str
    space_kib: float
    switches: int
    phases: dict | None = None
    telemetry: dict | None = None
    source_mode: str | None = None
    variant: int = 0

    @property
    def items_per_s(self) -> float:
        return self.items / self.busy_s

    @property
    def raw_items_per_s(self) -> float:
        return self.items / self.raw_busy_s


class ChunkClock:
    """Stamps the per-chunk entry point of the switching protocol.

    Records when the first chunk enters ``SwitchingProtocol.feed`` /
    ``feed_spec`` (the end of set-up), each chunk's latency up to its
    return (the moment the chunk's publication is readable), the value
    published then, and the host scale measured right after.  A latency
    runs from the previous chunk's return to this one's, less the
    benchmark's own work in between (reading the published value and
    calibrating).  Installed once per run, in traced and untraced runs
    alike; ``calibrate`` is the hook the traced run wraps in a span.
    """

    def __init__(self):
        self.reset()

    def calibrate(self) -> float:
        return host_scale(self.kernel)

    def reset(self, kernel: str = "array") -> None:
        self.kernel = kernel
        self.est = None
        self.first = None
        self.resume = None
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.values: list[float] = []

    def install(self, patcher) -> None:
        for attr in ("feed", "feed_spec"):
            patcher.attribute(SwitchingProtocol, attr,
                              self._wrap(getattr(SwitchingProtocol, attr)))

    def _wrap(self, fn):
        clock = self

        def stamped(proto, *args, **kwargs):
            if clock.first is None:
                clock.first = clock.resume = time.perf_counter()
            fn(proto, *args, **kwargs)
            clock.latencies.append(time.perf_counter() - clock.resume)
            clock.values.append(clock.est.query())
            clock.scales.append(clock.calibrate())
            clock.resume = time.perf_counter()

        return stamped


class Workload:
    """Common shape: seeds, sizes, the estimator's layer classes."""

    name = ""
    #: Independent streams (and estimator seeds) a run cycles through,
    #: all derived from its one ``--seed``.  The F2 replays' p95 lies on
    #: the crossing chunks, whose cost depends on where in a chunk each
    #: crossing falls, so one stream's p95 stands for its seed rather
    #: than for the code; several streams per run average that out.
    variants = 1
    kind = "replay"
    workers = 0
    #: The calibration kernel whose work resembles this workload's.
    kernel = "array"
    sketch_classes: tuple = (CountSketch,)
    stack_classes: tuple = (CountSketchStack,)

    def __init__(self, seed: int, smoke: bool = False, variant: int = 0):
        self.seed = seed
        self.variant = variant
        self.est_seed, self.stream_seed, self.adv_seed = seeds_from(
            seed, variant)
        self.smoke = smoke
        self.sizes = SIZES["smoke" if smoke else "full"]

    def build(self):
        return f2dp_estimator(self.est_seed)

    @staticmethod
    def switcher(est) -> SwitchingEstimator:
        return plan_shards(est).switcher


class ReplayWorkload(Workload):
    """Oblivious replay through ``repro.ingest``; one op per chunk."""

    engine = "serial"
    probe_limit = PROBE_UPDATES
    warmup_limit = CHUNK

    def __init__(self, seed: int, smoke: bool = False, variant: int = 0):
        super().__init__(seed, smoke, variant)
        self.chunks = self.make_chunks()
        self.truth = self.exact_per_chunk()
        self.ops_per_rep = len(self.chunks)

    def make_chunks(self) -> list[StreamChunk]:
        m = self.sizes["f2_chunks"] * CHUNK
        src = GeneratorChunkSource("uniform", n=F2_N, m=m,
                                   seed=self.stream_seed, chunk_size=CHUNK)
        return list(src.chunks())

    def exact_per_chunk(self) -> np.ndarray:
        """Exact F2 after every chunk."""
        counts = np.zeros(F2_N, dtype=np.int64)
        out = []
        for chunk in self.chunks:
            counts += np.bincount(chunk.items, minlength=F2_N)
            out.append(float(np.dot(counts, counts)))
        return np.array(out)

    def bad(self, published: np.ndarray, truth: np.ndarray) -> np.ndarray:
        return np.abs(published - truth) > F2_REPLAY_TOL * truth

    def stream(self, limit: int | None):
        """What the workload hands to ``ingest`` (``stream=``)."""
        if limit is None:
            return self.chunks
        return [StreamChunk(c.items[:limit - lo], c.deltas[:limit - lo])
                for lo, c in zip(range(0, limit, CHUNK), self.chunks)]

    def ingest(self, est, limit: int | None, telemetry):
        return repro.ingest(est, self.stream(limit), chunk_size=CHUNK,
                            engine=self.engine, telemetry=telemetry)

    def run(self, clock: ChunkClock, limit: int | None = None,
            telemetry=None, instrument=None) -> Rep:
        """One repetition; ``limit`` hands over only that many updates
        (set-up probes and warm-up), whose publications are not judged."""
        clock.reset(self.kernel)
        setup_scale = clock.calibrate()
        t0 = time.perf_counter()
        est = self.build()
        clock.est = est
        report = self.ingest(est, limit, telemetry)
        # Closing the session, after the last chunk, counts as busy.
        tail = time.perf_counter() - clock.resume
        scales = np.array(clock.scales)
        latencies = np.array(clock.latencies) * scales
        published = np.array(clock.values)
        switcher = self.switcher(est)
        return Rep(
            setup_s=(clock.first - t0) * setup_scale,
            busy_s=float(latencies.sum() + tail * scales[-1]),
            raw_busy_s=sum(clock.latencies) + tail,
            items=report.updates,
            latencies=latencies.tolist(),
            failed=0 if limit is not None
            else int(self.bad(published, self.truth).sum()),
            ops=report.chunks,
            digest=digest(est, switcher, published),
            space_kib=est.space_bits() / 8192,
            switches=switcher.switches,
            phases=report.phase_seconds,
            telemetry=report.telemetry,
            source_mode=report.source_mode,
            variant=self.variant,
        )


class F2Replay(ReplayWorkload):
    name = "f2dp-replay"
    variants = 4


class F2SpecP2(ReplayWorkload):
    name = "f2dp-spec-p2"
    engine = "process:2"
    workers = 2
    variants = 4

    def source(self, limit: int | None) -> GeneratorChunkSource:
        m = self.sizes["f2_chunks"] * CHUNK if limit is None else limit
        return GeneratorChunkSource("uniform", n=F2_N, m=m,
                                    seed=self.stream_seed, chunk_size=CHUNK)

    def ingest(self, est, limit: int | None, telemetry):
        return repro.ingest(est, source=self.source(limit), chunk_size=CHUNK,
                            engine=self.engine, telemetry=telemetry)


class DistinctReplay(ReplayWorkload):
    name = "distinct-replay"
    sketch_classes = (KMVSketch,)
    stack_classes = ()
    kernel = "interpreter"

    def make_chunks(self) -> list[StreamChunk]:
        m = self.sizes["distinct_chunks"] * CHUNK
        rng = np.random.default_rng(self.stream_seed)
        self.items = rng.integers(0, DISTINCT_N, size=m)
        return [StreamChunk.insertions(self.items[lo:lo + CHUNK])
                for lo in range(0, m, CHUNK)]

    def exact_per_chunk(self) -> np.ndarray:
        """Exact F0 after every chunk."""
        seen = np.zeros(DISTINCT_N, dtype=bool)
        out = []
        for chunk in self.chunks:
            seen[chunk.items] = True
            out.append(float(seen.sum()))
        return np.array(out)

    def bad(self, published: np.ndarray, truth: np.ndarray) -> np.ndarray:
        return np.abs(published - truth) > DISTINCT_TOL * truth

    def build(self):
        return repro.robust_estimator(
            "distinct", n=DISTINCT_N, m=len(self.items), eps=DISTINCT_EPS,
            seed=self.est_seed,
        )

    def stream(self, limit: int | None):
        return self.items if limit is None else self.items[:limit]


def f2_truth(freq) -> float:
    return freq.fp(2)


class F2Game(Workload):
    """Closed-loop adaptive game; one op per round."""

    name = "f2dp-game"
    kind = "game"
    #: Rounds of a set-up probe and of the warm-up repetition.
    probe_limit = 1
    warmup_limit = 300

    @property
    def ops_per_rep(self) -> int:
        return self.sizes["game_rounds"]

    def run(self, clock: ChunkClock, limit: int | None = None,
            telemetry=None, instrument=None) -> Rep:
        rounds = self.sizes["game_rounds"] if limit is None else limit
        clock.reset(self.kernel)
        calibrate = clock.calibrate
        setup_scale = calibrate()
        t0 = time.perf_counter()
        est = self.build()
        adversary = AMSAttackAdversary(
            t=CS_ROWS, rng=np.random.default_rng(self.adv_seed)
        )
        durations: list[float] = []
        scales: list[float] = []
        first: list[float] = []
        inner = est.process_update

        def process_update(item, delta=1):
            tick = time.perf_counter()
            if not first:
                first.append(tick)
            response = inner(item, delta)
            durations.append(time.perf_counter() - tick)
            if len(durations) % CAL_EVERY == 0:
                scales.extend([calibrate()] * CAL_EVERY)
            return response

        est.process_update = process_update
        truth_fn, judge = f2_truth, fooled
        if instrument is not None:
            truth_fn, judge = instrument(est, adversary, truth_fn, judge)
        result = AdversarialGame(truth_fn, judge).run(est, adversary, rounds)
        if len(scales) < len(durations):
            scales.extend([calibrate()] * (len(durations) - len(scales)))
        latencies = np.array(durations) * np.array(scales)
        responses = np.array(result.responses)
        switcher = self.switcher(est)
        return Rep(
            setup_s=(first[0] - t0) * setup_scale,
            busy_s=float(latencies.sum()),
            raw_busy_s=sum(durations),
            items=len(durations),
            latencies=latencies.tolist(),
            failed=int(fooled(responses, np.array(result.truths)).sum()),
            ops=result.steps,
            digest=digest(est, switcher, responses),
            space_kib=est.space_bits() / 8192,
            switches=switcher.switches,
            variant=self.variant,
        )


WORKLOADS = {
    cls.name: cls for cls in (F2Replay, F2SpecP2, DistinctReplay, F2Game)
}
