"""The shipped scenarios' reports, byte for byte.

A change that keeps the simulation's behaviour keeps these bytes: the
RECORDS and SUMMARY output of each ``scenarios/*.scenario`` at its full
600 s horizon, as ``ranshare run`` writes it. A change meant to alter the
output updates the hashes and says why.
"""

import hashlib

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_report_bytes(scenario_dir, name):
    scenario = load_scenario(scenario_dir / f"{name}.scenario")
    assert scenario.horizon_s == 600.0
    report = SimEngine(scenario).run()
    for fmt, want in GOLDEN[name].items():
        got = hashlib.sha256(write_report(report, fmt).encode("utf-8")).hexdigest()
        assert got == want, (name, fmt)
