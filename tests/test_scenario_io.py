import dataclasses
import importlib.util
import math
import pathlib

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ranshare.engine import JobStats, MetricsReport, SimEngine, Summary, Trace
from ranshare.errors import ParseError, SchemaError, SemanticError
from ranshare.orchestrator import PolicyKind
from ranshare import scenario as scenario_mod
from ranshare.scenario import (
    load_scenario,
    parse_records,
    parse_scenario,
    write_report,
    write_scenario,
)

MINIMAL = """
servers:
  - id: srv1
    gpus:
      - id: gpu1
policy:
  kind: dynamic_backfill
sim:
  horizon_s: 1.0
  seed: 3
"""


class TestParseScenario:
    def test_poc_file_matches_reference_parameters(self, scenario_dir):
        sc = load_scenario(scenario_dir / "poc.scenario")
        assert sc.name == "poc"
        assert len(sc.servers) == 1
        assert [g.id for g in sc.servers[0].gpus] == ["gpu1", "gpu2"]
        assert sc.policy.kind is PolicyKind.STATIC_SPLIT
        assert (sc.policy.ran_fraction, sc.policy.ai_fraction) == (0.40, 0.60)
        cell = sc.cells[0].config
        assert (cell.bandwidth_mhz, cell.scs_khz) == (100.0, 30)
        assert (cell.tx_antennas, cell.rx_antennas) == (4, 4)
        assert sc.horizon_s == 600.0

    def test_uplift_file_valid(self, scenario_dir):
        sc = load_scenario(scenario_dir / "uplift.scenario")
        assert sc.policy.kind is PolicyKind.DYNAMIC_BACKFILL
        assert sc.policy.safety_margin == 0.05

    def test_empty_document_lists_missing_sections(self):
        with pytest.raises(SchemaError) as err:
            parse_scenario("")
        msg = str(err.value)
        for section in ("policy", "servers", "sim"):
            assert section in msg

    def test_unknown_key_named(self):
        doc = MINIMAL + "\n" + "unknown_section: 1\n"
        with pytest.raises(SchemaError, match="unknown_section"):
            parse_scenario(doc)
        bad_gpu = MINIMAL.replace("- id: gpu1", "- id: gpu1\n        gpu_color: red")
        with pytest.raises(SchemaError, match="gpu_color"):
            parse_scenario(bad_gpu)

    def test_not_yaml(self):
        with pytest.raises(ParseError):
            parse_scenario("{{{:::")

    def test_dangling_reference(self):
        doc = MINIMAL + """
cells:
  - id: c1
    server: nowhere
    profile: p1
profiles:
  - id: p1
    kind: constant
    level: 0.5
"""
        with pytest.raises(SchemaError, match="nowhere"):
            parse_scenario(doc)

    def test_semantic_violation_static_fractions(self):
        doc = MINIMAL.replace(
            "kind: dynamic_backfill", "kind: static_split\n  ran_fraction: 0.7\n  ai_fraction: 0.5"
        )
        with pytest.raises(SemanticError):
            parse_scenario(doc)

    def test_minimal_parses_with_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.sample_interval_s == 0.01
        assert sc.topology.compute_spines == 2
        assert sc.calibration.reference_peak_fraction == 0.40

    def test_write_back_identity(self, scenario_dir):
        for name in ("poc.scenario", "uplift.scenario"):
            sc = load_scenario(scenario_dir / name)
            again = parse_scenario(write_scenario(sc), name=sc.name)
            assert again == sc

    def test_write_back_identity_exotic(self):
        doc = """
servers:
  - id: srv1
    nf_bundle: DU_ONLY
    gpus:
      - id: gpu1
        partition_granularity: 0.1
cells:
  - id: c1
    server: srv1
    bandwidth_mhz: 50.0
    tx_antennas: 2
    rx_antennas: 2
    profile: steps
profiles:
  - id: steps
    kind: trace
    points: [[0.0, 0.2], [1.0, 0.8]]
ai_workloads:
  - id: chat
    arrival: poisson
    rate_per_s: 3.0
    job_size: {kind: exponential, mean: 0.2}
    demand_fraction: {kind: uniform, low: 0.1, high: 0.4}
    slo_class: interactive
    latency_bound_s: 2.0
policy:
  kind: time_split
  gpus: [gpu1]
  settle_slots: 2
  schedule:
    - {start_s: 0.0, end_s: 1.0, ran_fraction: 0.5}
    - {start_s: 1.0, end_s: 2.0, ran_fraction: 0.3}
flows:
  - id: mid1
    server: srv1
    kind: egress
    rate_gbps: 4.0
  - id: wired1
    server: srv1
    kind: ai_wired
    rate_gbps: 2.5
sim:
  horizon_s: 2.0
  seed: 5
"""
        sc = parse_scenario(doc, name="exotic")
        again = parse_scenario(write_scenario(sc), name="exotic")
        assert again == sc
        # and it actually runs
        from ranshare.engine import run

        report = run(sc)
        assert report.scenario_name == "exotic"


def tiny_report(scenario_dir):
    sc = dataclasses.replace(load_scenario(scenario_dir / "poc.scenario"), horizon_s=0.2)
    return SimEngine(sc).run()


class TestReports:
    def test_records_round_trip(self, scenario_dir):
        report = tiny_report(scenario_dir)
        text = write_report(report, "records")
        again = parse_records(text)
        assert again == report

    def test_records_round_trip_with_misses(self, scenario_dir):
        sc = load_scenario(scenario_dir / "poc.scenario")
        # shrink the RAN slice so the near-full load misses every slot
        policy = dataclasses.replace(sc.policy, ran_fraction=0.2, ai_fraction=0.6)
        sc = dataclasses.replace(sc, policy=policy, horizon_s=0.05)
        report = SimEngine(sc).run()
        assert report.deadline_misses
        again = parse_records(write_report(report, "records"))
        assert again == report

    def test_empty_trace_header_only(self):
        report = MetricsReport(
            scenario_name="empty",
            horizon_s=1.0,
            sample_interval_s=0.01,
            seed=0,
            gpu_ids=(),
            trace=Trace((), [], [], []),
            events=[],
            deadline_misses=[],
            fabric_violations=[],
            job_stats=JobStats(0, 0, 0, 0, 0, 0.0, 0.0, 0.0),
            summary=Summary({}, 0.0, 0),
        )
        text = write_report(report, "records")
        lines = text.strip().splitlines()
        assert all(l.startswith("#") or "record," in l for l in lines)
        assert parse_records(text) == report

    def test_summary_contains_per_gpu_lines(self, scenario_dir):
        report = tiny_report(scenario_dir)
        text = write_report(report, "summary")
        assert "gpu gpu1:" in text and "gpu gpu2:" in text
        assert "deadline_misses 0" in text

    def test_fractions_have_six_decimals(self, scenario_dir):
        report = tiny_report(scenario_dir)
        line = next(
            l for l in write_report(report, "records").splitlines()
            if l.startswith("sample,")
        )
        _, _t, _gpu, ran, ai, _ann = line.split(",", 5)
        assert len(ran.split(".")[1]) == 6
        assert len(ai.split(".")[1]) == 6

    def test_unknown_format(self, scenario_dir):
        with pytest.raises(ValueError):
            write_report(tiny_report(scenario_dir), "xml")


# -- parser characterization -----------------------------------------------------

BASE_SECTIONS = {
    "servers": "[{id: s1, gpus: [{id: g1}]}]",
    "policy": "{kind: dynamic_backfill}",
    "sim": "{horizon_s: 1.0, seed: 3}",
}


def scenario_text(**sections):
    """A scenario document: the base sections with some replaced, added or
    (given None) dropped; each value is the section's flow-style YAML."""
    merged = {**BASE_SECTIONS, **sections}
    return "".join(f"{key}: {value}\n" for key, value in merged.items() if value is not None)


PROFILE_P1 = "[{id: p1, kind: constant, level: 0.5}]"
CELL = "[{id: c1, server: s1, profile: p1}]"

# One row per place where the parser raises: (document, class, exact message).
PARSER_ERRORS = [
    (scenario_text(topology="5"), SchemaError, "topology: expected a mapping"),
    (scenario_text(servers="[{id: s1, gpus: [{id: g1, gpu_color: red}]}]"), SchemaError,
     "servers[0].gpus[0]: unknown key 'gpu_color'"),
    (scenario_text(servers="[{id: s1, gpus: [{memory_units: 96}]}]"), SchemaError,
     "servers[0].gpus[0]: missing required key 'id'"),
    (scenario_text(servers="[{id: 'bad id', gpus: [{id: g1}]}]"), SchemaError,
     "servers[0].id: must be an identifier (letters/digits/_-./)"),
    (scenario_text(policy="{kind: static_split, ran_fraction: 0.5}"), SchemaError,
     "policy: missing required key 'ai_fraction'"),
    (scenario_text(topology="{link_capacity_gbps: fast}"), SchemaError,
     "topology.link_capacity_gbps: expected a number"),
    (scenario_text(ai_workloads="[{id: w, arrival: saturating, job_size: {kind: normal}}]"), SchemaError,
     "ai_workloads[0].job_size.kind: unknown distribution 'normal'"),
    (scenario_text(profiles="[{id: p1, kind: trace, points: [[0.0]]}]"), SchemaError,
     "profiles[0].points: expected a list of [time, value] pairs"),
    (scenario_text(profiles="[{id: p1, kind: constant, level: 1.5}]"), SemanticError,
     "profiles[0]: constant level must be in [0, 1]"),
    (scenario_text(profiles="[{id: p1, kind: sawtooth}]"), SchemaError,
     "profiles[0].kind: unknown profile kind 'sawtooth'"),
    (scenario_text(policy="{kind: greedy}"), SchemaError, "policy.kind: unknown policy 'greedy'"),
    (scenario_text(policy="{kind: dynamic_backfill, gpus: g1}"), SchemaError,
     "policy.gpus: expected a list of gpu ids"),
    (scenario_text(policy="{kind: dynamic_backfill, queue_bound: -1}"), SchemaError,
     "policy.queue_bound: expected a non-negative integer"),
    (scenario_text(policy="{kind: time_split, schedule: []}"), SchemaError,
     "policy.schedule: expected a non-empty list"),
    (scenario_text(policy="{kind: dynamic_backfill, forecast: {kind: oracle}}"), SchemaError,
     "policy.forecast.kind: unknown forecast 'oracle'"),
    (scenario_text(policy="{kind: dynamic_backfill, epoch_s: 0}"), SemanticError,
     "policy: epoch_s must be positive"),
    ("servers: [", ParseError,
     "not valid YAML: while parsing a flow node\n"
     "expected the node content, but found '<stream end>'\n"
     '  in "<unicode string>", line 1, column 11:\n'
     "    servers: [\n"
     "              ^"),
    ("", SchemaError, "document: missing required sections: policy, servers, sim"),
    (scenario_text(servers="[]"), SchemaError, "servers: expected a non-empty list"),
    (scenario_text(servers="[{id: s1, nf_bundle: RU, gpus: [{id: g1}]}]"), SchemaError,
     "servers[0].nf_bundle: unknown bundle 'RU'"),
    (scenario_text(servers="[{id: s1, gpus: []}]"), SchemaError, "servers[0].gpus: expected a non-empty list"),
    (scenario_text(servers="[{id: s1, gpus: [{id: g1, memory_units: 0}]}]"), SemanticError,
     "servers[0].gpus[0]: g1: memory_units must be positive"),
    (scenario_text(servers="[{id: s1, cpu_cores: 0, gpus: [{id: g1}]}]"), SemanticError,
     "servers[0]: server s1: cpu_cores must be positive"),
    (scenario_text(calibration="{reference_peak_fraction: 1.5}"), SemanticError,
     "calibration: reference_peak_fraction must be in (0, 1]"),
    (scenario_text(profiles="[{id: p1, kind: constant, level: 0.5}, {id: p1, kind: constant, level: 0.2}]"),
     SchemaError, "profiles[1]: duplicate profile id 'p1'"),
    (scenario_text(profiles=PROFILE_P1, cells="[{id: c1, server: nowhere, profile: p1}]"), SchemaError,
     "cells[0].server: unknown server 'nowhere'"),
    (scenario_text(profiles=PROFILE_P1, cells="[{id: c1, server: s1, profile: nope}]"), SchemaError,
     "cells[0].profile: unknown profile 'nope'"),
    (scenario_text(profiles=PROFILE_P1, cells="[{id: c1, server: s1, profile: p1, bandwidth_mhz: -5}]"),
     SemanticError, "cells[0]: bandwidth_mhz must be positive"),
    (scenario_text(ai_workloads="[{id: w, arrival: bursty}]"), SchemaError,
     "ai_workloads[0].arrival: unknown arrival kind 'bursty'"),
    (scenario_text(ai_workloads="[{id: w, arrival: saturating, slo_class: gold}]"), SchemaError,
     "ai_workloads[0].slo_class: unknown class 'gold'"),
    (scenario_text(ai_workloads="[{id: w, arrival: trace, arrivals: 5}]"), SchemaError,
     "ai_workloads[0].arrivals: expected a list of times"),
    (scenario_text(ai_workloads="[{id: w, arrival: saturating, slo_class: interactive}]"), SemanticError,
     "ai_workloads[0]: interactive workloads need a positive latency bound"),
    (scenario_text(flows="[{id: f1, server: nowhere, kind: egress}]"), SchemaError,
     "flows[0].server: unknown server 'nowhere'"),
    (scenario_text(flows="[{id: f1, server: s1, kind: sideways}]"), SchemaError,
     "flows[0].kind: expected 'egress' or 'ai_wired'"),
    (scenario_text(sim="{horizon_s: 1.0, seed: x}"), SchemaError, "sim.seed: expected an integer"),
    (scenario_text(sim="{horizon_s: -1.0, seed: 3}"), SemanticError, "sim.horizon_s must be positive"),
]


@pytest.mark.parametrize("text,error,message", PARSER_ERRORS)
def test_parser_error_characterization(text, error, message):
    with pytest.raises(error) as err:
        parse_scenario(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_characterization_base_document_parses():
    sc = parse_scenario(scenario_text(profiles=PROFILE_P1, cells=CELL))
    assert [c.id for c in sc.cells] == ["c1"]


# -- schema rules ------------------------------------------------------------------


@pytest.mark.parametrize("section", ["cells", "flows", "ai_workloads", "profiles"])
@pytest.mark.parametrize("value", ["5", "abc", "{id: x}"])
def test_list_sections_reject_other_values(section, value):
    with pytest.raises(SchemaError) as err:
        parse_scenario(scenario_text(**{section: value}))
    assert str(err.value) == f"{section}: expected a list"


@pytest.mark.parametrize(
    "text,message",
    [
        (scenario_text(profiles=PROFILE_P1, cells="[{id: c1, server: s1, profile: p1, scs_khz: 30.9}]"),
         "cells[0].scs_khz: expected an integer"),
        (scenario_text(topology="{compute_spines: 2.9}"), "topology.compute_spines: expected an integer"),
        (scenario_text(policy="{kind: dynamic_backfill, settle_slots: 2.5}"),
         "policy.settle_slots: expected an integer"),
        (scenario_text(servers="[{id: s1, gpus: [{id: g1, memory_units: 95.5}]}]"),
         "servers[0].gpus[0].memory_units: expected an integer"),
        (scenario_text(calibration="{reference_cell: {tx_antennas: 2.5}}"),
         "calibration.reference_cell.tx_antennas: expected an integer"),
        (scenario_text(sim="{horizon_s: 1.0, seed: 3.5}"), "sim.seed: expected an integer"),
        (scenario_text(ai_workloads="[{id: w, arrival: trace, arrivals: [0.5, '0.01']}]"),
         "ai_workloads[0].arrivals: expected a list of times"),
        (scenario_text(ai_workloads="[{id: w, arrival: trace, arrivals: [true]}]"),
         "ai_workloads[0].arrivals: expected a list of times"),
        (scenario_text(profiles="[{id: p1, kind: trace, points: [[0.0, '0.5']]}]"),
         "profiles[0].points: expected a list of [time, value] pairs"),
        (scenario_text(profiles="[{id: p1, kind: trace, points: [[true, 0.5]]}]"),
         "profiles[0].points: expected a list of [time, value] pairs"),
    ],
)
def test_fields_reject_values_of_the_wrong_type(text, message):
    with pytest.raises(SchemaError) as err:
        parse_scenario(text)
    assert str(err.value) == message


def test_integral_numbers_are_accepted_as_integers():
    sc = parse_scenario(
        scenario_text(
            topology="{compute_spines: 2.0}",
            profiles=PROFILE_P1,
            cells="[{id: c1, server: s1, profile: p1, scs_khz: 30.0}]",
            policy="{kind: dynamic_backfill, settle_slots: 2.0}",
        )
    )
    values = (sc.topology.compute_spines, sc.cells[0].config.scs_khz, sc.policy.settle_slots)
    assert values == (2, 30, 2)
    assert all(type(v) is int for v in values)


def test_exponent_without_a_dot_is_a_number():
    sc = parse_scenario(
        scenario_text(ai_workloads="[{id: w, arrival: poisson, rate_per_s: 1e-3}, "
                         "{id: v, arrival: trace, arrivals: [2e-05, 1]}]")
    )
    assert sc.ai_workloads[0].rate_per_s == 0.001
    assert sc.ai_workloads[1].trace_arrivals == (2e-05, 1.0)


@pytest.mark.parametrize(
    "sections,message",
    [
        ({"profiles": PROFILE_P1,
          "cells": "[{id: c1, server: s1, profile: p1}, {id: c1, server: s1, profile: p1}]"},
         "cells[1]: duplicate cell id 'c1'"),
        ({"ai_workloads": "[{id: w, arrival: saturating}, {id: w, arrival: saturating}]"},
         "ai_workloads[1]: duplicate workload id 'w'"),
        ({"flows": "[{id: f1, server: s1, kind: egress}, {id: f1, server: s1, kind: ai_wired}]"},
         "flows[1]: duplicate flow id 'f1'"),
        ({"servers": "[{id: s1, gpus: [{id: g1}]}, {id: s1, gpus: [{id: g2}]}]"},
         "servers[1]: duplicate server id 's1'"),
    ],
)
def test_duplicate_ids_are_rejected(sections, message):
    with pytest.raises(SchemaError) as err:
        parse_scenario(scenario_text(**sections))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "sections,message",
    [
        ({"ai_workloads": "[{id: w, arrival: saturating, "
                          "demand_fraction: {kind: constant, value: 3.0}}]"},
         "ai_workloads[0]: demand_fraction has no value in (0, 1]"),
        ({"ai_workloads": "[{id: w, arrival: poisson, rate_per_s: 1.0, "
                          "job_size: {kind: constant, value: 0.0}}]"},
         "ai_workloads[0]: job_size has no positive value"),
        ({"ai_workloads": "[{id: w, arrival: poisson, rate_per_s: 1.0, "
                          "job_size: {kind: exponential, mean: 0}}]"},
         "ai_workloads[0].job_size: exponential mean must be positive"),
        ({"ai_workloads": "[{id: w, arrival: poisson, rate_per_s: 1.0, "
                          "demand_fraction: {kind: uniform, low: 0.5, high: 0.2}}]"},
         "ai_workloads[0].demand_fraction: uniform low must not exceed high"),
        ({"policy": "{kind: dynamic_backfill, settle_slots: -1}"},
         "policy: settle_slots must be >= 0"),
        ({"policy": "{kind: static_split, ran_fraction: 0.5, ai_fraction: 0.5, "
                    "resume_delay_s: -0.5}"},
         "policy: resume_delay_s must be >= 0"),
    ],
)
def test_parameters_that_can_only_fail_later_are_rejected(sections, message):
    with pytest.raises(SemanticError) as err:
        parse_scenario(scenario_text(**sections))
    assert str(err.value) == message


# -- write-back round trip --------------------------------------------------------


@pytest.mark.parametrize(
    "workload",
    [
        "{id: w, arrival: saturating, slo_class: batch, latency_bound_s: 2.0}",
        "{id: w, arrival: trace, arrivals: [0.5], rate_per_s: 3.0}",
        "{id: w, arrival: saturating, arrivals: [0.5]}",
    ],
)
def test_write_back_keeps_fields_other_kinds_ignore(workload):
    sc = parse_scenario(scenario_text(ai_workloads=f"[{workload}]"))
    assert parse_scenario(write_scenario(sc)) == sc


GRANULARITIES = (0.05, 0.1, 0.25, 0.5)
SCS = (15, 30, 60, 120)


def _num(lo, hi):
    """A number in [lo, hi]; integers too, which the document keeps as written."""
    return st.one_of(
        st.floats(lo, hi, allow_nan=False),
        st.integers(math.ceil(lo), math.floor(hi)),
    )


def _integer(lo, hi):
    """An integer, sometimes written as an integral float."""
    return st.integers(lo, hi).flatmap(lambda n: st.sampled_from((n, float(n))))


def _distribution(lo, hi):
    """A distribution whose every sample lies in (lo, hi]."""
    positive = st.floats(lo, hi, exclude_min=True, allow_nan=False)
    return st.one_of(
        st.builds(lambda v: {"kind": "constant", "value": v}, positive),
        st.lists(positive, min_size=2, max_size=2).map(
            lambda b: {"kind": "uniform", "low": min(b), "high": max(b)}
        ),
    )


@st.composite
def scenario_documents(draw):
    """The YAML text of a valid scenario: optional keys are absent, at their
    default or set, and fields that other kinds ignore are set too."""
    scs = draw(st.sampled_from(SCS))
    servers = []
    for s in range(draw(st.integers(1, 2))):
        server = {"id": f"s{s}", "gpus": []}
        for g in range(draw(st.integers(1, 2))):
            gpu = {"id": f"s{s}g{g}"}
            if draw(st.booleans()):
                gpu["memory_units"] = draw(_integer(1, 200))
            if draw(st.booleans()):
                gpu["partition_granularity"] = draw(st.sampled_from(GRANULARITIES))
            server["gpus"].append(gpu)
        if draw(st.booleans()):
            server["cpu_cores"] = draw(_integer(1, 256))
            server["nf_bundle"] = draw(st.sampled_from(["DU_ONLY", "DU_CU", "DU_CU_CN"]))
            server["frontend_port_gbps"] = draw(_num(1, 400))
            server["backend_port_gbps"] = draw(_num(1, 400))
        servers.append(server)
    gpu_ids = [g["id"] for s in servers for g in s["gpus"]]
    document = {"servers": servers}
    if draw(st.booleans()):
        document["topology"] = {
            "compute_spines": draw(_integer(2, 2)),
            "link_capacity_gbps": draw(_num(100, 1000)),
            "fronthaul_gbps_per_mhz_per_port": draw(_num(0, 0.05)),
        }
    if draw(st.booleans()):
        document["calibration"] = {
            "reference_cell": {
                "bandwidth_mhz": draw(_num(100, 400)),
                "scs_khz": draw(st.sampled_from(SCS)),
                # at least every cell's 4 or fewer: no cell's peak tops one GPU
                "tx_antennas": draw(_integer(4, 8)),
            },
            "reference_peak_fraction": draw(_num(0.01, 1)),
            "bandwidth_exponent": draw(_num(0.5, 2)),
            "idle_floor_fraction": draw(_num(0, 1)),
        }
    profiles = []
    for p in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["constant", "diurnal", "trace"]))
        profile = {"id": f"p{p}", "kind": kind}
        if kind == "constant":
            profile["level"] = draw(_num(0, 1))
        elif kind == "diurnal":
            lo, hi = sorted(draw(st.lists(_num(0, 1), min_size=2, max_size=2)))
            profile.update(min=lo, max=hi, period_s=draw(_num(1, 1000)))
            if draw(st.booleans()):
                profile["phase"] = draw(_num(-10, 10))
        else:
            times = draw(st.lists(_num(0, 100), min_size=1, max_size=4, unique=True))
            values = draw(st.lists(_num(0, 1), min_size=len(times), max_size=len(times)))
            profile["points"] = [[t, v] for t, v in zip(sorted(times), values)]
        profiles.append(profile)
    if profiles:
        document["profiles"] = profiles
        cells = []
        for c in range(draw(st.integers(0, 3))):
            cell = {
                "id": f"c{c}",
                "server": draw(st.sampled_from(servers))["id"],
                "profile": draw(st.sampled_from(profiles))["id"],
                "scs_khz": scs,
            }
            if draw(st.booleans()):
                cell["bandwidth_mhz"] = draw(_num(1, 100))
                cell["rx_antennas"] = draw(_integer(1, 4))
            cells.append(cell)
        if cells:
            document["cells"] = cells
    workloads = []
    for w in range(draw(st.integers(0, 3))):
        workload = {"id": f"w{w}", "arrival": draw(st.sampled_from(["poisson", "trace", "saturating"]))}
        if draw(st.booleans()):
            workload["rate_per_s"] = draw(_num(0, 100))
        if draw(st.booleans()):
            workload["arrivals"] = draw(st.lists(_num(0, 100), max_size=3))
        if draw(st.booleans()):
            workload["job_size"] = draw(
                st.one_of(_distribution(0, 10), st.builds(lambda m: {"kind": "exponential", "mean": m},
                                                        st.floats(0.01, 10)))
            )
        if draw(st.booleans()):
            workload["demand_fraction"] = draw(_distribution(0, 1))
        slo = draw(st.sampled_from(["batch", "interactive", None]))
        if slo is not None:
            workload["slo_class"] = slo
        if slo == "interactive" or draw(st.booleans()):
            workload["latency_bound_s"] = draw(_num(0.01, 10))
        workloads.append(workload)
    if workloads:
        document["ai_workloads"] = workloads
    kind = draw(st.sampled_from(["static_split", "time_split", "dynamic_backfill"]))
    policy = {"kind": kind}
    horizon_max = 100.0
    if draw(st.booleans()):
        policy["gpus"] = draw(st.lists(st.sampled_from(gpu_ids), unique=True, min_size=1))
    if kind == "static_split":
        policy["ran_fraction"], policy["ai_fraction"] = draw(
            st.sampled_from([(0.5, 0.5), (0.0, 0.5), (0.5, 0), (1.0, 0.0), (0, 0)])
        )
    elif kind == "time_split":
        n = draw(st.integers(1, 3))
        policy["schedule"] = [
            {"start_s": float(i), "end_s": i + 1, "ran_fraction": draw(st.sampled_from([0.0, 0.5, 1]))}
            for i in range(n)
        ]
        horizon_max = float(n)
    else:
        if draw(st.booleans()):
            # a whole number of microseconds, as the event clock needs
            policy["epoch_s"] = draw(
                st.integers(10_000, 10_000_000).map(lambda us: us / 1_000_000)
                | st.integers(1, 10)
            )
            policy["safety_margin"] = draw(st.floats(0, 0.99))
        if draw(st.booleans()):
            policy["forecast"] = {"kind": draw(st.sampled_from(["last_value", "max_over_window"]))}
            if draw(st.booleans()):
                policy["forecast"]["window_s"] = draw(_num(0.01, 10))
    if draw(st.booleans()):
        policy["queue_bound"] = draw(st.none() | _integer(0, 100))
    if draw(st.booleans()):
        policy["resume_delay_s"] = draw(_num(0, 10))
    if draw(st.booleans()):
        policy["settle_slots"] = draw(_integer(0, 5))
    document["policy"] = policy
    flows = [
        {
            "id": f"f{f}",
            "server": draw(st.sampled_from(servers))["id"],
            "kind": draw(st.sampled_from(["egress", "ai_wired"])),
            "rate_gbps": draw(_num(0, 50)),
        }
        for f in range(draw(st.integers(0, 2)))
    ]
    if flows:
        document["flows"] = flows
    document["sim"] = {
        "horizon_s": draw(_num(0.01, horizon_max)),
        "seed": draw(st.integers(0, 2**63 - 1)),
    }
    if draw(st.booleans()):
        document["sim"]["sample_interval_s"] = draw(_num(0.001, 1))
    return yaml.safe_dump(document, sort_keys=False)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(scenario_documents())
def test_write_back_round_trip(text):
    sc = parse_scenario(text, name="generated")
    written = write_scenario(sc)
    again = parse_scenario(written, name="generated")
    assert again == sc
    assert write_scenario(again) == written


# -- the YAML loader --------------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_texts() -> list[str]:
    """The benchmark's four workload documents at seed 1."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [build(ROOT, 1) for build, _fmt in module.WORKLOADS.values()]


def test_loader_runs_on_libyaml_where_pyyaml_has_it():
    base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(scenario_mod._Loader, base)
    assert issubclass(scenario_mod._PyLoader, yaml.SafeLoader)


def test_both_loaders_read_the_same_documents():
    texts = _bench_texts() + [MINIMAL, scenario_text()]
    for name in ("poc.scenario", "uplift.scenario"):
        text = (ROOT / "scenarios" / name).read_text()
        texts += [text, write_scenario(parse_scenario(text))]
    for text in texts:
        fast = yaml.load(text, Loader=scenario_mod._Loader)
        assert fast == yaml.load(text, Loader=scenario_mod._PyLoader)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(scenario_documents())
def test_both_loaders_read_generated_documents_alike(text):
    written = write_scenario(parse_scenario(text, name="generated"))
    for doc in (text, written):
        fast = yaml.load(doc, Loader=scenario_mod._Loader)
        assert fast == yaml.load(doc, Loader=scenario_mod._PyLoader)
