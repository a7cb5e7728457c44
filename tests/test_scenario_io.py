import dataclasses

import pytest

from ranshare.engine import JobStats, MetricsReport, SimEngine, Summary, Trace
from ranshare.errors import ParseError, SchemaError, SemanticError
from ranshare.orchestrator import PolicyKind
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
