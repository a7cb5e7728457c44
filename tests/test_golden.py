"""The shipped scenarios' reports, byte for byte.

A change that keeps the simulation's behaviour keeps these bytes: the
RECORDS and SUMMARY output of each ``scenarios/*.scenario`` at its full
600 s horizon, as ``ranshare run`` writes it, and the standard output of
each ``demos/*.py``. A change meant to alter the output updates the hashes
and says why. ``fleet_text`` builds a 16 x 4-GPU fleet under dynamic
backfill, the shape of the cluster benchmarks, and its report bytes are
pinned the same way.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ranshare.engine import SimEngine
from ranshare.scenario import load_scenario, parse_scenario, write_report

GOLDEN = {
    "poc": {
        "records": "f0eac04aa6dcadb51f788c27d7f1b999b1b6c01ff9f1e2b9cf2e1674ba1b7900",
        "summary": "085ea8b08779b08a3260abb15080c7a83fff079e5602aceaf524bc18a9a24f13",
    },
    "uplift": {
        "records": "4f13f015dd0825f82c2d461b9b44afde58f2444c6758df54dd8f69363d559f3b",
        "summary": "d4b62e700b787bb578e944a3eb8d9996dfcdcd5e37e9a44a26e85f4b623c5f60",
    },
}

DEMOS = {
    "01_partitioned_gpu_sharing": "791d8021228d9a720c179ea278ece1700dba4fbc3b2795a76dbd2471f22582dc",
    "02_dynamic_backfill_uplift": "8f3df290e7cc41553e355ac127b536ba4cb29a6a44bf75acf3375e642acc3769",
    "03_fabric_and_timing": "7f7a1831edb03889e0c0f978eb00e4ae959a038b16ef9902205361e3bfef59cd",
    "04_policy_sweep": "275fd85ca78642ac7033d44eaa47f9be828552a6a5f63de3eae26e9e5d4a6814",
}
FLEET = {
    "records": "c3a3da6f3368d6e8c19be1f35057f5d2a74d490dd9cd07e0178680a91fffb630",
    "summary": "4659dc8c5b9ae679fab41e7c9dda01573e52484d948ba5a97233424539d56dc3",
}
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_report_bytes(scenario_dir, name):
    scenario = load_scenario(scenario_dir / f"{name}.scenario")
    assert scenario.horizon_s == 600.0
    report = SimEngine(scenario).run()
    for fmt, want in GOLDEN[name].items():
        got = hashlib.sha256(write_report(report, fmt).encode("utf-8")).hexdigest()
        assert got == want, (name, fmt)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout_bytes(name):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMOS[name]


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


def fleet_text(servers: int = 16, gpus: int = 4, horizon_s: float = 2.0) -> str:
    """A fleet of ``servers`` x ``gpus`` GPUs under dynamic backfill.

    Server ``s`` hosts ``1 + s % 4`` cells of 0.4 peak each on two diurnal
    profiles, so from the second server on RAN demand spills past the first
    GPU. Four saturating backlog jobs and Poisson batch jobs keep AI on the
    fleet, and the fast profile throttles it between epochs.
    """
    lines = ["servers:"]
    for s in range(servers):
        lines += [f"  - id: srv{s:02d}", "    gpus:"]
        lines += [f"      - id: srv{s:02d}-gpu{g}" for g in range(gpus)]
    lines.append("cells:")
    for s in range(servers):
        for c in range(1 + s % 4):
            lines += [
                f"  - id: cell{s:02d}{c}",
                f"    server: srv{s:02d}",
                "    bandwidth_mhz: 100.0",
                "    scs_khz: 30",
                "    tx_antennas: 4",
                "    rx_antennas: 4",
                f"    profile: {'fast' if c % 2 else 'slow'}",
            ]
    lines += [
        "profiles:",
        "  - {id: slow, kind: diurnal, min: 0.2, max: 0.9, period_s: 2.0, phase: 0.0}",
        "  - {id: fast, kind: diurnal, min: 0.1, max: 1.0, period_s: 0.3, phase: 1.0}",
        "ai_workloads:",
    ]
    for i in range(4):
        lines += [
            f"  - id: backlog{i}",
            "    arrival: saturating",
            "    demand_fraction: {kind: constant, value: 1.0}",
        ]
    lines += [
        "  - id: jobs",
        "    arrival: poisson",
        "    rate_per_s: 60.0",
        "    job_size: {kind: exponential, mean: 0.3}",
        "    demand_fraction: {kind: uniform, low: 0.1, high: 0.5}",
        "    slo_class: batch",
        "policy:",
        "  kind: dynamic_backfill",
        "  epoch_s: 0.1",
        "  safety_margin: 0.05",
        "  forecast: {kind: max_over_window, window_s: 0.2}",
        "sim:",
        f"  horizon_s: {horizon_s}",
        "  seed: 5",
        "  sample_interval_s: 0.01",
    ]
    return "\n".join(lines) + "\n"


def test_fleet_report_bytes():
    scenario = parse_scenario(fleet_text(), name="fleet")
    assert len(scenario.servers) == 16 and {len(s.gpus) for s in scenario.servers} == {4}
    report = SimEngine(scenario).run()
    for fmt, want in FLEET.items():
        got = hashlib.sha256(write_report(report, fmt).encode("utf-8")).hexdigest()
        assert got == want, fmt
