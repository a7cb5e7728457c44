"""The columnar utilization trace: exact rounding, rows, memory, and the demos."""

import dataclasses
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ranshare.engine import (
    EventRecord,
    JobStats,
    MetricsReport,
    SimEngine,
    Summary,
    Trace,
    TraceRecord,
    round6,
    summarize,
)
from ranshare.errors import ParseError
from ranshare.orchestrator import DeadlineMiss
from ranshare.scenario import parse_records, parse_scenario, write_report

REPO_ROOT = Path(__file__).resolve().parents[1]


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def assert_rounds_like_python(values: np.ndarray):
    got = round6(values).tolist()
    want = [round(x, 6) for x in values.tolist()]
    assert _bits(got) == _bits(want)
    assert [f"{v:.6f}" for v in got] == [f"{v:.6f}" for v in want]


class TestRound6:
    def test_uniform_values(self):
        rng = np.random.default_rng(20260)
        assert_rounds_like_python(rng.random(100_000))

    def test_ties_and_near_ties(self):
        """Every k/1e6 +- 5e-7 and (2k+1)/2e6 on a stride, where np.round errs."""
        k = np.arange(0, 1_000_001, 7, dtype=np.int64)
        assert_rounds_like_python(k / 1e6 + 5e-7)
        assert_rounds_like_python(k / 1e6 - 5e-7)
        assert_rounds_like_python((2 * k + 1) / 2e6)

    def test_just_outside_the_fallback(self):
        """Scaled values 2e-6 from a tie take the fast path and must still agree."""
        k = np.arange(0, 1_000_001, 13, dtype=np.int64)
        assert_rounds_like_python((k + 0.5 + 2e-6) / 1e6)
        assert_rounds_like_python((k + 0.5 - 2e-6) / 1e6)

    def test_edges(self):
        assert_rounds_like_python(np.array([0.0, 1.0, -0.0, -1e-17, 1e-17, 5e-7, 1.0 - 5e-7]))
        assert_rounds_like_python(np.array([1234.5678905, -2.5e-7, np.inf, 1e20]))

    def test_shape_is_kept(self):
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert round6(x).shape == (3, 4)


def _records():
    return [
        TraceRecord(0.0, "g1", 0.25, 0.5, "miss:2"),
        TraceRecord(0.0, "g2", 0.0, 1.0),
        TraceRecord(0.5, "g1", 0.125, 0.0),
        TraceRecord(0.5, "g2", 0.0, 0.75, "preempt:1;trim:1"),
    ]


def _trace(notes=None):
    """The trace whose rows ``_records`` lists."""
    notes = {(0, 0): "miss:2", (1, 1): "preempt:1;trim:1"} if notes is None else notes
    return Trace(("g1", "g2"), [0.0, 0.5], [[0.25, 0.0], [0.125, 0.0]], [[0.5, 1.0], [0.0, 0.75]],
                 notes)


def _report(trace: Trace) -> MetricsReport:
    return MetricsReport(
        scenario_name="rows", horizon_s=0.5, sample_interval_s=0.5, seed=0,
        gpu_ids=trace.gpu_ids, trace=trace, events=[], deadline_misses=[], fabric_violations=[],
        job_stats=JobStats(0, 0, 0, 0, 0, 0.0, 0.0, 0.0),
        summary=summarize(trace) if len(trace) else Summary({}, 0.0, 0),
    )


class TestTrace:
    def test_rows_round_trip(self):
        trace = _trace()
        assert len(trace) == 4
        assert trace.gpu_ids == ("g1", "g2")
        assert trace.times.tolist() == [0.0, 0.5]
        assert list(trace) == _records()
        assert parse_records(write_report(_report(trace), "records")).trace == trace

    def test_unequal_traces(self):
        trace = _trace()
        assert _trace({(0, 0): "miss:2", (1, 0): "miss:1"}) != trace
        assert trace != _records()

    def test_ragged_rows_rejected(self):
        lines = write_report(_report(_trace()), "records").splitlines()
        with pytest.raises(ParseError, match="lists 1 of 2 gpus"):
            parse_records("\n".join(lines[:-1]))
        lines[-2], lines[-1] = lines[-1], lines[-2]
        with pytest.raises(ParseError, match="not the next gpu"):
            parse_records("\n".join(lines))

    def test_rows_out_of_time_order_rejected(self):
        lines = write_report(_report(_trace()), "records").splitlines()
        moved = lines[:-1] + [lines[-1].replace("0.500000", "0.600000", 1)]
        with pytest.raises(ParseError, match="out of time order"):
            parse_records("\n".join(moved))
        backwards = lines[:-2] + [row.replace("0.500000", "0.000000", 1) for row in lines[-2:]]
        with pytest.raises(ParseError, match="out of time order"):
            parse_records("\n".join(backwards))

    def test_samples_need_the_gpus_header(self):
        lines = write_report(_report(_trace()), "records").splitlines()
        with pytest.raises(ParseError, match="not the next gpu"):
            parse_records("\n".join(l for l in lines if not l.startswith("# gpus=")))
        lines = write_report(_report(Trace(("g1", "g2"), [], [], [])), "records").splitlines()
        with pytest.raises(ParseError, match="metadata header"):
            parse_records("\n".join(l for l in lines if not l.startswith("# gpus=")))

    def test_header_fields_round_trip(self):
        report = dataclasses.replace(
            _report(_trace()), scenario_name="odd-name", horizon_s=12.5, seed=2**63 - 1,
            job_stats=JobStats(1, 2, 3, 4, 5, 0.25, 0.5, 0.125),
        )
        text = write_report(report, "records")
        assert text.splitlines()[1:4] == [
            "# scenario=odd-name horizon_s=12.500000 sample_interval_s=0.500000 "
            "seed=9223372036854775807",
            "# gpus=g1,g2",
            "# jobs completed=1 preempted_events=2 rejected=3 queued_at_end=4 "
            "running_at_end=5 mean_wait_s=0.250000 p95_wait_s=0.500000 "
            "mean_turnaround_s=0.125000",
        ]
        assert parse_records(text) == report
        with pytest.raises(ParseError, match="rejected"):
            parse_records(text.replace(" rejected=3", ""))

    def test_summary_of_rows(self):
        s = summarize(_trace())
        assert s.per_gpu["g1"].avg_total == 0.75
        assert s.per_gpu["g2"].peak_total == 1.0
        assert list(s.per_gpu) == ["g1", "g2"]


def test_records_keep_signed_zero_and_merge_order():
    """-0.0 prints with its sign; other rows precede samples at equal times."""
    trace = Trace(
        ("g1", "g2"), [0.0, 0.01], [[0.0, -0.0], [0.0, 0.0]], [[-0.0, 0.0], [-0.0, 0.0]],
        {(0, 1): "miss:1"},
    )
    report = MetricsReport(
        scenario_name="zeros", horizon_s=0.01, sample_interval_s=0.01, seed=0,
        gpu_ids=("g1", "g2"), trace=trace,
        events=[EventRecord(0.01, "arrival", "j1", "x"), EventRecord(0.0, "arrival", "j0", "y")],
        deadline_misses=[DeadlineMiss(0.0, "s1", 0.5)],
        fabric_violations=[EventRecord(0.02, "capacity", "l1", "z")],
        job_stats=JobStats(0, 0, 0, 0, 0, 0.0, 0.0, 0.0),
        summary=summarize(trace, 1),
    )
    text = write_report(report, "records")
    rows = text.splitlines()[5:]
    assert rows == [
        "event,0.000000,j0,,,arrival y",
        "miss,0.000000,s1,,,shortfall=0.500000000",
        "sample,0.000000,g1,0.000000,-0.000000,",
        "sample,0.000000,g2,-0.000000,0.000000,miss:1",
        "event,0.010000,j1,,,arrival x",
        "sample,0.010000,g1,0.000000,-0.000000,",
        "sample,0.010000,g2,0.000000,0.000000,",
        "fabric,0.020000,l1,,,z",
    ]
    again = parse_records(text).trace
    assert again == trace and np.signbit(again.ai[:, 0]).all()


def _poc(horizon_s: float):
    text = (REPO_ROOT / "scenarios" / "poc.scenario").read_text()
    return parse_scenario(text.replace("horizon_s: 600.0", f"horizon_s: {horizon_s}"), "poc")


def test_engine_trace_is_columnar():
    report = SimEngine(_poc(1.0)).run()
    assert isinstance(report.trace, Trace)
    assert len(report.trace) == 101 * 2
    assert report.trace.ran.shape == (101, 2)
    again = parse_records(write_report(report, "records"))
    assert again.trace == report.trace and again.summary == report.summary


def test_annotations_go_to_the_next_sample():
    """A noted event at t goes to the first sample at or after t, kinds counted and sorted."""
    eng = SimEngine(_poc(0.05))
    eng.state.events.extend(EventRecord(t, kind, gpu, "") for t, gpu, kind in [
        (0.0, "gpu1", "trim"),
        (0.0, "gpu1", "preempt"),
        (0.0, "gpu1", "trim"),
        (0.0, "gpu1", "place"),  # not a noted kind
        (0.005, "gpu2", "repartition"),
        (0.01, "gpu2", "preempt"),
        (0.050001, "gpu1", "trim"),  # after the last sample: dropped
    ])
    eng.state.misses.extend([(0.0, "srv1", 0.5), (0.0095, "srv1", 0.25)])
    trace = eng.run().trace
    assert trace.notes == {
        (0, 0): "miss:1;preempt:1;trim:2",
        (1, 0): "miss:1",
        (1, 1): "preempt:1;repartition:1",
    }


def test_trace_memory_per_row():
    """A 60 s poc run keeps its trace in under 32 B per row (~300 B as objects)."""
    SimEngine(_poc(0.1)).run()  # first-call costs: numpy.ma is imported lazily
    eng = SimEngine(_poc(60.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = eng.run()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(report.trace)
    assert rows == 6001 * 2
    trace = report.trace
    array_bytes = trace.times.nbytes + trace.ran.nbytes + trace.ai.nbytes
    assert array_bytes / rows < 32
    assert grown / rows < 32, grown / rows


DEMOS = {
    "01_partitioned_gpu_sharing.py": "=== hard-partitioned sharing, 60 s ===",
    "02_dynamic_backfill_uplift.py": "=== RAN-only baseline vs dynamic backfill, 60 s ===",
    "03_fabric_and_timing.py": "=== reference fabric ===",
    "04_policy_sweep.py": "=== safety-margin sweep (MAX_OVER_WINDOW forecast) ===",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert DEMOS[demo] in done.stdout.splitlines()
