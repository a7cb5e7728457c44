"""The report writer as a stream of text chunks.

RECORDS is formatted in blocks of sample rows. Every block edge must give
the same bytes as ``reference_write_records``, which sorts every row of the
report at once, and consuming the stream must not hold the whole text.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ranshare import scenario
from ranshare.engine import EventRecord, JobStats, MetricsReport, Trace
from ranshare.orchestrator import DeadlineMiss
from ranshare.scenario import iter_report, parse_records, write_report

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


@pytest.mark.parametrize("level_texts", [1, scenario._LEVEL_TEXTS])
@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_block_edges_match_the_whole_trace_writer(monkeypatch, width, block_rows, level_texts):
    monkeypatch.setattr(scenario, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(scenario, "_LEVEL_TEXTS", level_texts)
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
@pytest.mark.parametrize("table_heads", [0, scenario._TABLE_HEADS])
def test_sample_heads_match_float_formatting(monkeypatch, times, table_heads):
    """Heads joined from integer microseconds are the text of formatting each time."""
    monkeypatch.setattr(scenario, "_TABLE_HEADS", table_heads)
    want = [f"sample,{t:.6f}," for t in times.tolist()]
    assert scenario._sample_heads(times).tolist() == want


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
