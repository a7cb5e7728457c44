"""The report writer as a stream of text chunks.

RECORDS is formatted in blocks of sample rows. Every block edge must give
the same bytes as ``reference_write_records``, which sorts every row of the
report at once, and consuming the stream must not hold the whole text.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranshare import scenario
from ranshare.engine import EventRecord, JobStats, MetricsReport, SimEngine, Trace
from ranshare.orchestrator import DeadlineMiss
from ranshare.scenario import iter_report, parse_records, parse_scenario, write_report

from conftest import SCENARIO_DIR
from test_golden import MIXED, mixed_fleet_text
from test_segments import reference_write_records

TIMES = [0.0, 0.5, 1.0, 1.5, 2.0]


def make_report(gpu_ids, times, ran, ai, notes=(), events=(), misses=(), fabric=()):
    return MetricsReport(
        scenario_name="stream",
        horizon_s=3.0,
        sample_interval_s=0.5,
        seed=5,
        gpu_ids=tuple(gpu_ids),
        trace=Trace(gpu_ids, times, ran, ai),
        events=[EventRecord(t, "place", subject, {"gpu": "g0"}) for t, subject in events],
        deadline_misses=[DeadlineMiss(t, "srv0", 0.25) for t in misses],
        fabric_violations=[EventRecord(t, "capacity", "leaf0", {"load": 2.0}) for t in fabric],
        job_stats=JobStats(1, 0, 0, 0, 1, 0.5, 0.5, 1.0),
        notes=Counter(dict(notes)),
    )


def edge_report(width: int) -> MetricsReport:
    """Five samples of ``width`` GPUs, with other rows at and between sample times.

    Rows fall before the first sample, at a sample's time (every sample is
    a block edge for some block size), between samples and after the last
    one. Notes sit on the first, a middle and the last sample; the last
    counts two kinds, given unsorted. Levels repeat across samples, and
    -0.0 and 0.0 both occur.
    """
    gpu_ids = [f"g{g}" for g in range(width)]
    rng = np.random.default_rng(width)
    shape = (len(TIMES), width)
    ran = rng.choice([0.0, -0.0, 0.25, 0.333333, 0.4], size=shape)
    ai = rng.choice([0.0, 0.6, 0.666667, 0.75], size=shape)
    ran[0, 0] = -0.0
    last = len(TIMES) - 1
    notes = {(0, 0, "miss"): 3, (last, width - 1, "trim"): 2, (last, width - 1, "preempt"): 1,
             (2, width // 2, "repartition"): 12}
    return make_report(
        gpu_ids, TIMES, ran, ai, notes,
        events=[(-0.5, "j0"), (0.0, "j1"), (1.0, "j2"), (1.0, "j3"), (1.5, "j4"), (2.0, "j5"),
                (2.5, "j6")],
        misses=[0.0, 0.75, 1.5, 3.0],
        fabric=[1.0, 2.0, 2.5],
    )


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_block_edges_match_the_whole_trace_writer(monkeypatch, width, block_rows):
    monkeypatch.setattr(scenario, "_BLOCK_ROWS", block_rows)
    report = edge_report(width)
    text = write_report(report, "records")
    assert text == reference_write_records(report)
    assert "-0.000000" in text
    assert parse_records(text) == report


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
@pytest.mark.parametrize("gpu_ids", [(), ("g0", "g1")])
def test_empty_trace_writes_its_other_rows(monkeypatch, block_rows, gpu_ids):
    monkeypatch.setattr(scenario, "_BLOCK_ROWS", block_rows)
    report = make_report(gpu_ids, [], [], [], events=[(0.0, "j0"), (1.0, "j1")], misses=[0.5],
                         fabric=[0.0])
    assert write_report(report, "records") == reference_write_records(report)


@pytest.mark.parametrize("format", ["records", "summary"])
def test_chunks_join_to_the_report(monkeypatch, format):
    monkeypatch.setattr(scenario, "_BLOCK_ROWS", 3)
    report = edge_report(2)
    chunks = list(iter_report(report, format))
    assert "".join(chunks) == write_report(report, format)
    if format == "records":
        assert len(chunks) > 2  # the header, several blocks of samples and the rows after them


@pytest.mark.parametrize(
    "times",
    [
        np.arange(5000, dtype=np.int64) * 10_000 / 1e6,  # a sample grid, as the engine makes it
        np.arange(5000) * 0.01,  # some times a few ulps off their microsecond
        np.array([0.0, 3e-7, 3.5e-6, 4.5e-6, 2.0, 1e-6]),  # off the microsecond grid, and on it
        np.array([-0.0, 0.5]),
        np.array([-1.5, 0.5]),
        np.array([4294967295.5, 2.0**32, 2.0**32 + 0.25]),
        np.array([0.5, np.nan]),
        np.array([]),
    ],
    ids=["grid", "float-steps", "off-grid", "minus-zero", "negative", "past-2**32", "nan", "empty"],
)
@pytest.mark.parametrize("route", ["digits", "texts"])
def test_sample_heads_match_float_formatting(monkeypatch, times, route):
    """Heads written from integer microseconds are the text of formatting each time."""
    if route == "texts":
        monkeypatch.setattr(scenario, "_millionths", lambda x, below: None)
    parts, lengths = scenario._decimal_fields(times, 2.0**32, "sample,")
    grid = np.concatenate([np.broadcast_to(p, (times.size, p.shape[-1])) for p in parts], -1)
    heads = [bytes(row).replace(b"\0", b"").decode() for row in grid]
    want = [f"sample,{t:.6f}," for t in times.tolist()]
    assert heads == want
    assert lengths.ravel().tolist() == [len(head) for head in want]


def odd_times(rng, times: np.ndarray, share: float) -> np.ndarray:
    """``times`` with about ``share`` of them moved off the digit route, sorted again.

    A moved time is a few ulps off its microsecond, half-way to the next
    one, negative (-0.0 among them), past 2**32 s or nan.
    """
    times = times.copy()
    moved = np.flatnonzero(rng.random(times.size) < share)
    for i, how in zip(moved, rng.integers(0, 5, moved.size)):
        t = times[i]
        if how == 0:
            times[i] = t + rng.choice([-3, -1, 1, 2]) * np.spacing(max(t, 1e-300))
        elif how == 1:
            times[i] = t + 5e-7
        elif how == 2:
            times[i] = -t
        elif how == 3:
            times[i] = 2.0**32 + t
        else:
            times[i] = np.nan
    return np.sort(times)  # nan last


def odd_levels(rng, shape, share: float) -> np.ndarray:
    """Six-decimal levels in [0, 1], some -0.0, and about ``share`` of them
    raw floats, half-way between millionths, magnitudes of 10 or more,
    levels just below 10, nan or inf."""
    levels = np.round(rng.random(shape), 6)
    levels[rng.random(shape) < 0.1] = -0.0
    moved = rng.random(shape) < share
    odd = np.concatenate((
        rng.random(64), -rng.random(16), (2 * rng.integers(0, 10**6, 16) + 1) / 2e6,
        10.0 + rng.random(16) * 1e6, [-10.0, 10.0, 1e300], np.round(10.0 - rng.random(8) * 1e-5, 6),
        [np.nan, np.inf, -np.inf, -1e-9, 1e-7],
    ))
    levels[moved] = rng.choice(odd, size=int(moved.sum()))
    return levels


@st.composite
def random_reports(draw):
    """Reports of 0-3 GPUs and 0-300 samples with other rows at and between sample times.

    Sample times are sorted, and are taken from the microsecond grid but
    for a drawn share. Other rows go with finite sample times only: the
    whole-trace writer sorts every row by time, and no order holds nan.
    """
    width = draw(st.integers(0, 3))
    samples = draw(st.integers(0, 300))
    prefixes = draw(st.lists(st.sampled_from(["g", "gpu", "srv00-gpu", "gpü"]), min_size=width,
                             max_size=width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.0, 0.01, 0.2, 1.0]))
    us = np.sort(rng.integers(0, 10 ** draw(st.integers(1, 15)), samples))
    times = odd_times(rng, us / 1e6, draw(st.sampled_from([0.0, 0.0, 0.01, 0.5])))
    ran = odd_levels(rng, (samples, width), share)
    ai = odd_levels(rng, (samples, width), draw(st.sampled_from([0.0, share])))
    others = ([], [], [])
    if not np.isnan(times).any():
        finite = times.tolist() + [-1.0, 0.0, 5e9]
        if samples > 1:
            finite += ((times[1:] + times[:-1]) / 2).tolist()
        for rows in others:
            rows += rng.choice(finite, size=draw(st.integers(0, 6))).tolist()
    kinds = ["miss", "preempt", "repartition", "trim"]
    notes = {
        (int(rng.integers(samples)), int(rng.integers(width)), kinds[int(rng.integers(4))]):
            int(rng.integers(1, 30))
        for _ in range(draw(st.integers(0, 8)) if samples and width else 0)
    }
    events, misses, fabric = others
    return make_report([f"{p}{g}" for g, p in enumerate(prefixes)], times, ran, ai, notes,
                       events=[(t, "j") for t in events], misses=misses, fabric=fabric)


@pytest.mark.parametrize("block_rows", [1, 3, 8192])
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(report=random_reports())
def test_records_match_the_whole_trace_writer(block_rows, report):
    """Both routes of every field, and every splice, give the whole-trace writer's bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_BLOCK_ROWS", block_rows)
        assert write_report(report, "records") == reference_write_records(report)


def engine_scenario(source: str) -> str:
    if source == "mixed":
        return mixed_fleet_text(min(MIXED))
    text = (SCENARIO_DIR / f"{source}.scenario").read_text(encoding="utf-8")
    assert text.count("horizon_s: 600.0") == 1
    return text.replace("horizon_s: 600.0", "horizon_s: 20.0")


@pytest.mark.parametrize("source", ["poc", "uplift", "mixed"])
def test_engine_traces_take_the_digit_route(monkeypatch, source):
    """Every time and level the engine records is written from its digits:
    the writer formats text for the GPU ids alone, none for a sample's fields."""
    report = SimEngine(parse_scenario(engine_scenario(source))).run()
    shapes = []
    texts = scenario._texts
    monkeypatch.setattr(scenario, "_texts", lambda *args: shapes.append(args[1]) or texts(*args))
    assert write_report(report, "records") == reference_write_records(report)
    assert shapes == [(1, len(report.gpu_ids))]


def test_unknown_format_is_refused_before_any_chunk():
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        iter_report(edge_report(1), "xml")


def stream_peak(report) -> tuple[int, int]:
    """The RECORDS text's length, and the most memory held while streaming it."""
    size = 0
    tracemalloc.start()
    try:
        for chunk in iter_report(report, "records"):
            size += len(chunk)
        return size, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_records_holds_a_block_not_the_trace():
    """300,000 samples of 2 GPUs are ~25 MB of RECORDS; the stream holds a few MB.

    The level arrays of the whole trace alone would take ~10 MB, and the
    joined text peaks near 50 MB.
    """
    rng = np.random.default_rng(11)
    n = 300_000
    levels = np.round(rng.random(64), 6)[rng.integers(0, 64, size=(2, n, 2))]
    report = make_report(["g0", "g1"], np.arange(n) * 0.01, levels[0], levels[1],
                         notes={(0, 0, "miss"): 1, (n - 1, 1, "trim"): 4},
                         events=[(t, "j") for t in np.linspace(0.0, n * 0.01, 50).tolist()])
    size, peak = stream_peak(report)
    assert size > 20e6
    assert peak < 4e6, f"streaming peaked at {peak / 1e6:.1f} MB"


def test_level_text_cache_is_bounded():
    """120,000 distinct levels would take ~17 MB of cached text; the cache starts over instead."""
    rng = np.random.default_rng(12)
    n = 30_000
    levels = np.round(rng.random((2, n, 2)), 6)
    report = make_report(["g0", "g1"], np.arange(n) * 0.01, levels[0], levels[1])
    _size, peak = stream_peak(report)
    assert peak < 7e6, f"streaming peaked at {peak / 1e6:.1f} MB"
