"""Metamorphic relations M2 and M3, which must hold exactly.

M2, sampling is passive: another ``sample_interval_s`` changes no event,
miss, fabric row or ``JobStats``. M3, horizon prefix: a 1.5 x longer
horizon changes no event, miss or sample (its notes included) before the
shorter horizon. (Chen, Cheung and Yiu, HKUST-CS98-01, 1998; Segura,
Fraser, Sanchez and Ruiz-Cortes, IEEE TSE 42(9), 2016.)

The scenarios are the shipped ``poc`` and ``uplift`` at 30 s, the
``cluster_diurnal`` benchmark fleet cut to 4 s, ``cluster_overload``, and
``all_miss_text``, whose 4,000 misses run through the RAN tape's miss
slices.
"""

import dataclasses

import pytest

from ranshare.engine import Scenario, SimEngine
from ranshare.scenario import parse_scenario

from test_golden import ROOT, _load_workloads, all_miss_text


def _shipped(name: str, horizon_s: float) -> Scenario:
    text = (ROOT / "scenarios" / f"{name}.scenario").read_text(encoding="utf-8")
    return dataclasses.replace(parse_scenario(text, name=name), horizon_s=horizon_s)


def _benchmark(name: str, horizon_s: float | None = None) -> Scenario:
    build, _fmt = _load_workloads().WORKLOADS[name]
    sc = parse_scenario(build(ROOT, 1), name=name)
    return dataclasses.replace(sc, horizon_s=horizon_s) if horizon_s else sc


SCENARIOS = {
    "poc at 30 s": lambda: _shipped("poc", 30.0),
    "uplift at 30 s": lambda: _shipped("uplift", 30.0),
    "cluster_diurnal at 4 s": lambda: _benchmark("cluster_diurnal", 4.0),
    "cluster_overload": lambda: _benchmark("cluster_overload"),
    "all miss": lambda: parse_scenario(all_miss_text(), name="poc"),
}


def _run(sc: Scenario, **changes):
    return SimEngine(dataclasses.replace(sc, **changes)).run()


@pytest.mark.parametrize("name", SCENARIOS)
def test_sampling_is_passive(name):
    """M2: sample intervals of 0.5 ms, 37 ms and 0.25 s change nothing but the trace."""
    sc = SCENARIOS[name]()
    base = _run(sc)
    for interval in (0.0005, 0.037, 0.25):
        rep = _run(sc, sample_interval_s=interval)
        assert len(rep.trace) != len(base.trace), interval
        assert rep.events == base.events, interval
        assert rep.deadline_misses == base.deadline_misses, interval
        assert rep.fabric_violations == base.fabric_violations, interval
        assert rep.job_stats == base.job_stats, interval


@pytest.mark.parametrize("name", SCENARIOS)
def test_longer_horizon_keeps_the_prefix(name):
    """M3: what a run records before its horizon, a 1.5 x longer run records too."""
    sc = SCENARIOS[name]()
    end = sc.horizon_s
    short, long = _run(sc), _run(sc, horizon_s=1.5 * end)

    def before(rows):
        return [row for row in rows if row.time_s < end]

    def notes(rep):
        return {key: n for key, n in rep.notes.items() if rep.trace.times[key[0]] < end}

    assert len(before(long.trace)) == len(before(short.trace)) < len(long.trace)
    assert before(long.trace) == before(short.trace)
    assert notes(long) == notes(short)
    assert before(long.events) == before(short.events)
    assert before(long.deadline_misses) == before(short.deadline_misses)
