"""The shipped scenarios' reports, byte for byte.

A change that keeps the simulation's behaviour keeps these bytes: the
RECORDS and SUMMARY output of each ``scenarios/*.scenario`` at its full
600 s horizon, as ``ranshare run`` writes it, and the standard output of
each ``demos/*.py``. A change meant to alter the output updates the hashes
and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ranshare.engine import SimEngine
from ranshare.scenario import load_scenario, write_report

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
