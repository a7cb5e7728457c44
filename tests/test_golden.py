"""The shipped scenarios' reports, byte for byte.

A change that keeps the simulation's behaviour keeps these bytes: the
RECORDS and SUMMARY output of each ``scenarios/*.scenario`` at its full
horizon (600 s; 60 s for ``time_split``), as ``ranshare run`` writes it,
and the standard output of each ``demos/*.py``. A change meant to alter
the output updates the hashes and says why. ``fleet_text`` builds a
16 x 4-GPU fleet under dynamic
backfill, the shape of the cluster benchmarks, and its report bytes are
pinned the same way, as are those of ``time_split_text``, a small fleet
whose split GPUs are repartitioned under running jobs, and of
``all_miss_text``, ``poc`` with a RAN slice too small for its cell, so
every slot misses, and of ``mixed_fleet_text``, the 4 x 2-GPU ladder
fleet with INTERACTIVE jobs queued beside its BATCH ones. A small fleet's
RECORDS must not change with the hash seed or under ``python -O``. The four
benchmark workloads are pinned at three seeds each, built by
``perfbench/workloads.py``, which this module only reads. The RECORDS of
each pinned run must read back as the same report (``parse_records``),
and that report must write the same text again.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ranshare.engine import SimEngine
from ranshare.scenario import load_scenario, parse_records, parse_scenario, write_report

GOLDEN = {
    "poc": {
        "records": "f0eac04aa6dcadb51f788c27d7f1b999b1b6c01ff9f1e2b9cf2e1674ba1b7900",
        "summary": "085ea8b08779b08a3260abb15080c7a83fff079e5602aceaf524bc18a9a24f13",
    },
    "uplift": {
        "records": "4f13f015dd0825f82c2d461b9b44afde58f2444c6758df54dd8f69363d559f3b",
        "summary": "d4b62e700b787bb578e944a3eb8d9996dfcdcd5e37e9a44a26e85f4b623c5f60",
    },
    "time_split": {
        "records": "877ea19c3f14116f6c449eb62925f169011353752e14216ae2c9ee6e2f831a39",
        "summary": "5d3e32f18dba51caf2805882eafca7fb0405bb7dfc1ffed0ae815ed1f429a393",
    },
}

DEMOS = {
    "01_partitioned_gpu_sharing": "791d8021228d9a720c179ea278ece1700dba4fbc3b2795a76dbd2471f22582dc",
    "02_dynamic_backfill_uplift": "8f3df290e7cc41553e355ac127b536ba4cb29a6a44bf75acf3375e642acc3769",
    "03_fabric_and_timing": "7f7a1831edb03889e0c0f978eb00e4ae959a038b16ef9902205361e3bfef59cd",
    "04_policy_sweep": "275fd85ca78642ac7033d44eaa47f9be828552a6a5f63de3eae26e9e5d4a6814",
}
TIME_SPLIT = {
    "records": "fc0b52a8ee4a178814d63f334e1ac4d466f6e61b55e6a06aeb378eb569d530ff",
    "summary": "d1ea27bbfbc2ceb8acf12b1ee0cec43a0486d625516b6b769702512f36f11b60",
}
ALL_MISS = {
    "records": "fdb04ec82b38e0bf005693031d39ba14c286e75061c8f1b009e89b72cdb0c912",
    "summary": "84cb330d50fb1f04fb06efda7401647cfabc20ac18c2a8da8194a2c3b13841f3",
}
FLEET = {
    "records": "c3a3da6f3368d6e8c19be1f35057f5d2a74d490dd9cd07e0178680a91fffb630",
    "summary": "4659dc8c5b9ae679fab41e7c9dda01573e52484d948ba5a97233424539d56dc3",
}
MIXED = {
    1: {
        "records": "31bbde486124357dc573d6ca302b193dc3c752875538a4b7e30c512d0f74defa",
        "summary": "8bcb431292e262b7fb8104b57468b93c3108cf8032ca4e4b2392d29950c5c9ff",
    },
    7: {
        "records": "a96be8124ca6c22f849e160e91a95f6e514c90cb98ea459e4306ac1a8d6e75ee",
        "summary": "955c1b7a078958e79f26ee8fee9a8817632efa20035d3e044812484c32791dfc",
    },
    23: {
        "records": "dbcff56a58adfc12922958188705a4f381a06eff8705bd2043732548b9eacfa6",
        "summary": "798a01b24833e188560395e780a69b1cd97344c2e4753f4514c8a0262bd6cef0",
    },
}
WORKLOADS = {
    "cluster_diurnal": {
        1: {
            "records": "b9cbc389f9401f035e9d1c2d9cab61a474479400b66acb7832264104c5479911",
            "summary": "175b055f4a4a14451228044677b55d7ed59c5fa5c5208da35e9df37b16bd0ea7",
        },
        7: {
            "records": "a6feee34d5611c602bdc159125a1f01c9df94f87791832219dd00cac604aabe9",
            "summary": "8ad73ecd1c7e70dd248f11c091ad5fddcf83773ec371bc77c105f623e8bda33c",
        },
        23: {
            "records": "a436ac35e9f9d2346c6e03e62137a705eeb1f7576c1eb4cc32e672458459539c",
            "summary": "6a6bd06d0ce4b2584b5cc1fc5e5ad5786bcc7ba7d4c732344b3654153e4f91d4",
        },
    },
    "cluster_overload": {
        1: {
            "records": "f0d5634558afa565c9141e0f81fe974d8f9551777b50a3a256dd81df5fe5ed64",
            "summary": "d2c033cb39b52ed9f66115458dac0a12d56b104915a7423602ec5c4d43f2c02f",
        },
        7: {
            "records": "8526ae51386f6701cfbf4778836cc984d9e37b74a5186919976b445de5063706",
            "summary": "6c3938637ee6563f1b7bc947ccd2a267fcf6551e6da4cebb82a2047fda2d6d67",
        },
        23: {
            "records": "9022323b42ca536c1e278d296a500dadbeae078f9523168a86d6219d6930ab14",
            "summary": "45166748be443b3e2f9a82fa5521a8b9f143f400988292b03900cc6089985f5b",
        },
    },    "poc": {
        1: {
            "records": "2e34a1e5afc574569515f739f95a0ebaef349e474df5f365d37270d2d4f2a3ae",
            "summary": "083d06ec6755c44d97b688440bade693862fabaa606033f71bb9397392cdecb6",
        },
        7: {
            "records": "1789dd4210cb1d4ba1e324b4ba9c2d5631e8b6174010ebe862560963c0c06975",
            "summary": "f5faa00dc03f07fd2a7182ef260146c4f3de567934bf2b80e8231bb1696f2656",
        },
        23: {
            "records": "eeca747ab01a6e7722e53cc4810a6cd8a3e289796c30ee7206bf7d3b1abc8a41",
            "summary": "88dae28c4c1ef3eeb7e2a6292efd04a311f0f10b01f453db8def2b33293c6dbe",
        },
    },
    "uplift": {
        1: {
            "records": "ea1a93bdb381fc0cd79443f30f1febf26ea34c7a2064923134394c0224ae6215",
            "summary": "a65005476b5464e99e0645c9566973931194b8b97aa5fc946b877f312739d1f4",
        },
        7: {
            "records": "9891a223c8eae340ea2625e780a75d4fa41554644eacc1d097b750d0c39654c2",
            "summary": "e4386a907f07331f56ba77e317ae86874255f171266da31d5e7e11ab7fe9a626",
        },
        23: {
            "records": "b18e5738b7a370094225a5f472af54ade6a84b292145d781172f460b7da94026",
            "summary": "258e3464aa074ea39bf1b3be9ebc83a6979da2c3593cb8f605b42a4e18cee8e0",
        },
    },
}
ROOT = Path(__file__).resolve().parents[1]


def assert_report(report, want: dict, label=None):
    """``report`` hashes to ``want`` in each format, and its RECORDS read back as it.

    The report read back also writes the same RECORDS text, byte for byte.
    """
    for fmt, digest in want.items():
        got = hashlib.sha256(write_report(report, fmt).encode("utf-8")).hexdigest()
        assert got == digest, (label, fmt)
    text = write_report(report, "records")
    again = parse_records(text)
    assert again == report, label
    assert write_report(again, "records") == text, label


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_report_bytes(scenario_dir, name):
    scenario = load_scenario(scenario_dir / f"{name}.scenario")
    assert scenario.horizon_s == (60.0 if name == "time_split" else 600.0)
    report = SimEngine(scenario).run()
    assert_report(report, GOLDEN[name], name)


def test_time_split_scenario_misses_only_while_settling(scenario_dir):
    """Each boundary of ``time_split.scenario`` preempts, and only its two settling slots miss."""
    report = SimEngine(load_scenario(scenario_dir / "time_split.scenario")).run()
    bounds = (10.0, 20.0, 30.0, 40.0, 50.0)
    assert [e.time_s for e in report.events if e.kind == "repartition"] == list(bounds)
    assert {e.time_s for e in report.events if e.kind == "preempt"} == set(bounds)
    assert [m.time_s for m in report.deadline_misses] == [
        t + k * 0.0005 for t in bounds for k in (1, 2)
    ]


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
    assert_report(report, FLEET)


def test_records_do_not_depend_on_hash_seed_or_asserts(tmp_path):
    """``ranshare run`` writes the same RECORDS under any hash seed, and with asserts off.

    ``python -O`` strips ``assert`` statements, so the run must not rely on
    one for a check.
    """
    path = tmp_path / "fleet.scenario"
    path.write_text(fleet_text(4, 2, 2.0), encoding="utf-8")
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = []
    for flags, hash_seed in (((), "0"), ((), "12345"), (("-O",), "0")):
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed}
        outs.append(subprocess.run(
            [sys.executable, *flags, "-m", "ranshare.cli", "run", str(path)],
            capture_output=True, check=True, env=env,
        ).stdout)
    assert outs[0].startswith(b"# ranshare-records v1\n")
    assert outs[1] == outs[0] and outs[2] == outs[0]


def time_split_text() -> str:
    """Three servers x 2 GPUs under a time split with four boundaries in 2 s.

    Each server hosts one cell, so its first GPU is split; the RAN share
    steps 0.4, 0.7, 0.2, 1.0 (no AI slice) and 0.3. Two backlog jobs and
    Poisson batch jobs of demand 0.05-0.45 run in the AI slices, so each
    boundary drains jobs, and backfill grants partial fractions.
    """
    lines = ["servers:"]
    for s in range(3):
        lines += [f"  - id: srv{s}", "    gpus:"]
        lines += [f"      - id: srv{s}-gpu{g}" for g in range(2)]
    lines.append("cells:")
    for s in range(3):
        lines += [
            f"  - id: cell{s}",
            f"    server: srv{s}",
            "    bandwidth_mhz: 100.0",
            "    scs_khz: 30",
            "    tx_antennas: 4",
            "    rx_antennas: 4",
            "    profile: load",
        ]
    lines += [
        "profiles:",
        "  - {id: load, kind: diurnal, min: 0.1, max: 0.6, period_s: 1.0, phase: 0.0}",
        "ai_workloads:",
    ]
    for i in range(2):
        lines += [
            f"  - id: backlog{i}",
            "    arrival: saturating",
            "    demand_fraction: {kind: constant, value: 0.3}",
        ]
    lines += [
        "  - id: jobs",
        "    arrival: poisson",
        "    rate_per_s: 30.0",
        "    job_size: {kind: exponential, mean: 0.1}",
        "    demand_fraction: {kind: uniform, low: 0.05, high: 0.45}",
        "    slo_class: batch",
        "policy:",
        "  kind: time_split",
        "  schedule:",
    ]
    bounds = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)
    for start, end, ran in zip(bounds, bounds[1:], (0.4, 0.7, 0.2, 1.0, 0.3)):
        lines.append(f"    - {{start_s: {start}, end_s: {end}, ran_fraction: {ran}}}")
    lines += [
        "sim:",
        "  horizon_s: 2.0",
        "  seed: 3",
        "  sample_interval_s: 0.01",
    ]
    return "\n".join(lines) + "\n"


# the TIME_SPLIT RECORDS lines, sorted: what the report holds whatever the
# order of the rows that share a microsecond
TIME_SPLIT_LINES = "135f797c125e64bbec4ee91eccbd60208062dc08c498c55e7eed44b21bea9cd5"


def test_time_split_report_bytes():
    report = SimEngine(parse_scenario(time_split_text(), name="time_split")).run()
    assert [e.time_s for e in report.events if e.kind == "repartition"] == [
        t for t in (0.4, 0.8, 1.2, 1.6) for _ in range(3)
    ]
    assert_report(report, TIME_SPLIT)
    lines = "\n".join(sorted(write_report(report, "records").splitlines()))
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == TIME_SPLIT_LINES
    # after a repartition, a GPU takes a job only once its own settled row is logged
    settling = set()
    for e in report.events:
        if e.kind == "repartition":
            settling.add(e.subject)
        elif e.kind == "settled":
            settling.discard(e.subject)
        elif e.kind == "place":
            assert e.subject not in settling, e


def all_miss_text() -> str:
    """``poc`` for 2 s with a 0.20 RAN slice, below the cell's demand: every slot misses."""
    text = (ROOT / "scenarios" / "poc.scenario").read_text(encoding="utf-8")
    for old, new in (
        ("ran_fraction: 0.40", "ran_fraction: 0.20"),
        ("ai_fraction: 0.60", "ai_fraction: 0.80"),
        ("horizon_s: 600.0", "horizon_s: 2.0"),
    ):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def test_all_miss_report_bytes():
    """4,000 slot misses, noted on 201 samples of the split GPU."""
    report = SimEngine(parse_scenario(all_miss_text(), name="poc")).run()
    assert len(report.deadline_misses) == 4000
    noted = [line.split(",") for line in write_report(report, "records").splitlines()
             if line.startswith("sample,") and not line.endswith(",")]
    assert len(noted) == 201 and {row[2] for row in noted} == {"gpu1"}
    assert sorted({row[5] for row in noted}) == ["miss:1", "miss:19", "miss:20"]
    assert_report(report, ALL_MISS)


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mixed_fleet_text(seed: int) -> str:
    """``cluster(4, 2, 20.0, 20.0, seed)`` of ``perfbench/workloads.py`` with INTERACTIVE jobs.

    The diurnal profile runs from 0.1 to 1.0 with a 2 s period, and Poisson
    INTERACTIVE jobs arrive at 10 jobs/s beside the BATCH ones, with
    exponential size (mean 0.5 s), demand uniform in (0.7, 1.0) and a 1 s
    latency bound.
    """
    text = _load_workloads().cluster(4, 2, 20.0, 20.0, seed)
    interactive = "\n".join((
        "  - id: live",
        "    arrival: poisson",
        "    rate_per_s: 10.0",
        "    job_size: {kind: exponential, mean: 0.5}",
        "    demand_fraction: {kind: uniform, low: 0.7, high: 1.0}",
        "    slo_class: interactive",
        "    latency_bound_s: 1.0",
        "policy:",
    ))
    for old, new in (
        ("min: 0.2, max: 0.9, period_s: 20.0", "min: 0.1, max: 1.0, period_s: 2.0"),
        ("policy:", interactive),
    ):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("seed", sorted(MIXED))
def test_mixed_fleet_report_bytes(seed):
    report = SimEngine(parse_scenario(mixed_fleet_text(seed), name="mixed")).run()
    # BATCH ("jobs-") and INTERACTIVE ("live-") jobs both start
    placed = {e.fields["job"].split("-")[0] for e in report.events if e.kind == "place"}
    assert placed == {"jobs", "live"}
    assert_report(report, MIXED[seed], seed)


@pytest.mark.parametrize(
    "name, seed", [(name, seed) for name in sorted(WORKLOADS) for seed in sorted(WORKLOADS[name])]
)
def test_benchmark_workload_report_bytes(name, seed):
    build, _fmt = _load_workloads().WORKLOADS[name]
    report = SimEngine(parse_scenario(build(ROOT, seed), name=name)).run()
    assert_report(report, WORKLOADS[name][seed], name)
