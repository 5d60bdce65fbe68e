"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_repro()

import layers  # noqa: E402
import spans  # noqa: E402
from spans import Patcher, SpanRecorder  # noqa: E402


def _recorder(rows):
    """A recorder holding (name, start, end, parent) rows verbatim."""
    rec = SpanRecorder()
    for name, start, end, parent in rows:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    return rec


class TestSelfTime:
    def test_nested_spans(self):
        # outer [0, 10] > mid [2, 8] > inner [3, 5]
        rec = _recorder([("outer", 0, 10, -1), ("mid", 2, 8, 0),
                         ("inner", 3, 5, 1)])
        assert spans.self_times(rec.starts, rec.ends, rec.parents) == \
            [4, 4, 2]

    def test_sibling_spans(self):
        # parent [0, 10] with children [1, 3] and [6, 9]
        rec = _recorder([("p", 0, 10, -1), ("a", 1, 3, 0), ("b", 6, 9, 0)])
        assert spans.self_times(rec.starts, rec.ends, rec.parents) == \
            [5, 2, 3]

    def test_overlapping_children_are_not_subtracted_twice(self):
        rec = _recorder([("p", 0, 10, -1), ("a", 1, 4, 0), ("b", 3, 6, 0)])
        assert spans.self_times(rec.starts, rec.ends, rec.parents)[0] == 5

    def test_group_counts_outermost_span_once(self):
        # feed_others_raw calls catch_up: one fan-out call, not two.
        rec = _recorder([("backend.feed_others_raw", 0, 4, -1),
                         ("backend.catch_up", 1, 4, 0),
                         ("backend.catch_up", 5, 6, -1)])
        calls, total = spans.group_stats(
            rec, ("backend.feed_others_raw", "backend.catch_up"))
        assert (calls, total) == (2, 5)

    def test_top_level_seconds(self):
        rec = _recorder([("a", 0, 2, -1), ("b", 1, 2, 0), ("c", 3, 7, -1)])
        assert spans.top_level_seconds(rec) == 6

    def test_recorder_nesting_follows_calls(self):
        rec = SpanRecorder()
        inner = spans.timed(rec, "inner", lambda: 1)
        outer = spans.timed(rec, "outer", lambda: inner() + 1)
        assert outer() == 2
        assert rec.names == ["outer", "inner"]
        assert rec.parents == [-1, 0]
        assert rec.ends[1] <= rec.ends[0]


class TestPercentileRule:
    def test_min_samples(self):
        assert run.min_samples(95) == 200
        assert run.min_samples(50) == 20
        assert run.min_samples(99) == 1000

    def test_p95_needs_ten_samples_beyond(self):
        with pytest.raises(ValueError, match="fewer than 10"):
            run.percentile(range(199), 95)
        values = list(range(200))
        p95 = run.percentile(values, 95)
        assert sum(v > p95 for v in values) == 10

    def test_p50_is_the_median_rank(self):
        assert run.percentile(range(1, 21), 50) == 10


@pytest.mark.parametrize("name", ["f2dp-replay", "f2dp-game"])
def test_times_are_scaled_by_the_host_scale(name):
    import workloads

    clock = workloads.ChunkClock()
    clock.calibrate = lambda: 2.0
    wl = workloads.WORKLOADS[name](1, smoke=True)
    with Patcher() as patcher:
        clock.install(patcher)
        rep = wl.run(clock)
    assert rep.busy_s == pytest.approx(2 * rep.raw_busy_s)
    # A replay's busy time also holds closing the session.
    assert 0 < sum(rep.latencies) <= rep.busy_s * (1 + 1e-9)
    assert rep.items_per_s == pytest.approx(rep.raw_items_per_s / 2)


@pytest.mark.parametrize("kernel", ["array", "interpreter"])
def test_every_kernel_gives_a_host_scale(kernel):
    import calibrate

    assert 0.01 < calibrate.host_scale(kernel) < 100


def test_patcher_removes_every_wrapper():
    import workloads
    from repro.core.sketch_switching import SwitchingProtocol
    from repro.engine.executor import IngestSession
    from multiprocessing.connection import Connection

    targets = [(SwitchingProtocol, "feed"), (IngestSession, "__exit__"),
               (Connection, "send")]
    before = [cls.__dict__.get(attr) for cls, attr in targets]
    est = workloads.f2dp_estimator(0)
    with Patcher() as patcher:
        layers.install(patcher, SpanRecorder(),
                       sketch_classes=workloads.F2Replay.sketch_classes,
                       stack_classes=workloads.F2Replay.stack_classes,
                       discipline=est.discipline, band=est.band)
        assert SwitchingProtocol.__dict__["feed"] is not before[0]
    assert [cls.__dict__.get(attr) for cls, attr in targets] == before


def _smoke_lines(output: str) -> list[str]:
    return [line for line in output.splitlines() if ": digest " in line]


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke",
         "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = _smoke_lines(proc.stdout)
    assert [line.split(":")[0] for line in lines] == [
        "f2dp-replay", "f2dp-spec-p2", "distinct-replay", "f2dp-game"]
    assert all(line.endswith(("failed 0/6", "failed 0/600"))
               for line in lines)
    # A second run of the same seed publishes the same outputs.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.smoke(5) == 0
    assert _smoke_lines(out.getvalue()) == lines


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "f2dp-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    json.loads((tmp_path / "BENCHMARK.json").read_text())
