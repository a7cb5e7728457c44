"""Events keep the typed values they were logged with; RECORDS formats them.

``every_kind_report`` holds an event of each kind the program logs and a
fabric row. Its RECORDS bytes must be those of ``reference_write_records``,
whose ``reference_event_detail`` is the detail formatter as it was when
events were logged as text, and ``parse_records`` must read the same
report back. A SUMMARY run formats no detail at all. The benchmark's
output checks read RECORDS with ``parse_records`` too, so they must
accept every kind.
"""

import importlib.util
import math
import re
from pathlib import Path

import pytest

from ranshare import scenario as scenario_module
from ranshare.compute import TenantClass
from ranshare.engine import SimEngine
from ranshare.errors import ParseError
from ranshare.orchestrator import ActionKind, ScaleAction, apply_actions
from ranshare.scenario import parse_records, parse_scenario, write_report

from test_golden import time_split_text
from test_segments import reference_write_records

ROOT = Path(__file__).resolve().parents[1]


def logged_kinds() -> set[str]:
    """Every event kind a ``log`` call in the program names."""
    text = "".join(p.read_text() for p in (ROOT / "src" / "ranshare").glob("*.py"))
    return set(re.findall(r"\.log\(\s*\"(\w+)\"", text))


def poc_text(horizon_s: float) -> str:
    """``poc`` on 15 Gbps links, which its fronthaul overloads at t=0, with gpu2 cut in thirds."""
    text = (ROOT / "scenarios" / "poc.scenario").read_text()
    for old, new in [
        ("link_capacity_gbps: 100.0", "link_capacity_gbps: 15.0"),
        ("horizon_s: 600.0", f"horizon_s: {horizon_s}"),
        ("gpu2\n        partition_granularity: 0.05",
         "gpu2\n        partition_granularity: 0.3333333333333333"),
    ]:
        assert old in text
        text = text.replace(old, new)
    return text


def every_kind_report():
    """A short ``poc`` run, then an event of each other kind the program logs.

    The run logs a saturating job's arrival (``size=inf``) and placement,
    and a fabric row. After it, gpu2, whose granularity is 1/3, is cut at
    a third, and each other kind is logged as the program logs it, with
    values off the 6-decimal grid. The engine's report holds them all at
    their written precision.
    """
    eng = SimEngine(parse_scenario(poc_text(0.05), name="every-kind"))
    eng.run()
    state = eng.state
    state.clock_us = 20_000
    apply_actions(state, [ScaleAction(ActionKind.REPARTITION, "gpu2", fraction=1 / 3)])
    for i, (kind, subject, fields) in enumerate([
        ("settled", "gpu2", {}),
        ("arrival", "j1", {"size": 0.1 + 0.2, "demand": 2 / 3}),
        ("reject", "j2", {}),
        ("place", "gpu2", {"job": "j1", "instance": "gpu2.g1/s1", "fraction": 2 / 3}),
        ("grant", "gpu1", {"job": "llm-0", "fraction": 1 / 7}),
        ("trim", "gpu1", {"job": "llm-0", "fraction": 0.3 - 0.25}),
        ("preempt", "gpu2", {"job": "j1", "fraction": 2 / 3}),
        ("completion", "llm-0", {"gpu": "gpu1"}),
        ("ceiling", "gpu1", {"value": 1.0 - 0.35 - 0.05, "ai": 1 / 3}),
        ("reroute", "-", {}),
    ]):
        state.clock_us = 30_000 + 500 * i
        state.log(kind, subject, **fields)
    return eng._report()


def test_every_kind_round_trips():
    report = every_kind_report()
    assert {ev.kind for ev in report.events} == logged_kinds()
    assert len(report.fabric_violations) == 1
    text = write_report(report, "records")
    assert text == reference_write_records(report)
    assert parse_records(text) == report
    for line in (
        "event,0.000000,llm-0,,,arrival size=inf demand=1.000000",
        "event,0.020000,gpu2,,,repartition layout=0.333333:RAN,0.666667:AI",
        "event,0.030500,j1,,,arrival size=0.300000 demand=0.666667",
        "event,0.031000,j2,,,reject queue bound exceeded",
        "fabric,0.000000,ru-cell1~agg,,,load=19.800000 capacity=15.000000",
    ):
        assert line in text.splitlines()


def test_fields_hold_typed_values_at_their_written_precision():
    report = every_kind_report()
    for ev in report.events + report.fabric_violations:
        for key, v in ev.fields.items():
            if key in ("job", "instance", "gpu"):
                assert isinstance(v, str), (ev, key)
            elif key == "layout":
                assert all(type(f) is float and isinstance(c, TenantClass) for f, c in v)
            else:
                assert type(v) is float and (math.isinf(v) or v == round(v, 6)), (ev, key)
    cut = next(ev for ev in report.events if ev.kind == "repartition")
    assert cut.fields == {"layout": [(0.333333, TenantClass.RAN), (0.666667, TenantClass.AI)]}
    ceiling = next(ev for ev in report.events if ev.kind == "ceiling")
    assert ceiling.fields == {"value": 0.6, "ai": 0.333333}


@pytest.mark.parametrize("text", [poc_text(1.0), time_split_text()], ids=["poc", "time_split"])
def test_run_reports_round_trip(text):
    report = SimEngine(parse_scenario(text, name="run")).run()
    assert report.events
    assert parse_records(write_report(report, "records")) == report


def test_only_a_records_write_formats_details(monkeypatch):
    """A run and its SUMMARY format no detail; RECORDS formats each row's once."""
    calls = []

    def counting(ev):
        calls.append(ev)
        return formatter(ev)

    formatter = scenario_module.event_detail
    monkeypatch.setattr(scenario_module, "event_detail", counting)
    report = SimEngine(parse_scenario(time_split_text(), name="time_split")).run()
    write_report(report, "summary")
    assert calls == []
    write_report(report, "records")
    assert len(calls) == len(report.events) + len(report.fabric_violations) > 0
    calls.clear()
    report = every_kind_report()
    write_report(report, "records")
    assert calls == report.events + report.fabric_violations


@pytest.mark.parametrize("line", [
    "event,0.0,gpu1,,,place job=j1 fraction=lots",
    "event,0.0,gpu1,,,place job=j1 fraction",
    "event,0.0,j1,,,reject too many",
    "event,0.0,gpu1,,,repartition layout=0.5:GPU",
    "event,0.0,gpu1,,,repartition layout=0.5",
    "fabric,0.0,l1,,,load=high capacity=1.0",
])
def test_reader_refuses_a_detail_the_writer_cannot_write(line):
    with pytest.raises(ParseError, match="line 1: malformed row"):
        parse_records(line + "\n")


def test_benchmark_checks_read_every_kind():
    """``perfbench/checks.py`` reads RECORDS with ``parse_records``; every kind must pass it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py"
    )
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    report = every_kind_report()
    read = checks.Report(write_report(report, "records"), "records")
    assert set(read.events) == logged_kinds()
    assert read.fabric == 1 and read.misses == len(report.deadline_misses)
    assert read.events["arrival"] == {"llm-0", "j1"} and read.events["reject"] == {"j2"}
