import pathlib
import subprocess
import sys

import pytest

from ranshare.cli import main
from ranshare.scenario import parse_records


@pytest.fixture()
def short_poc(tmp_path, scenario_dir):
    text = (scenario_dir / "poc.scenario").read_text()
    text = text.replace("horizon_s: 600.0", "horizon_s: 1.0")
    path = tmp_path / "poc-short.scenario"
    path.write_text(text)
    return path


@pytest.fixture()
def short_uplift(tmp_path, scenario_dir):
    text = (scenario_dir / "uplift.scenario").read_text()
    text = text.replace("horizon_s: 600.0", "horizon_s: 2.0")
    path = tmp_path / "uplift-short.scenario"
    path.write_text(text)
    return path


class TestValidate:
    def test_shipped_scenarios_validate(self, scenario_dir, capsys):
        assert main(["validate", str(scenario_dir / "poc.scenario")]) == 0
        assert main(["validate", str(scenario_dir / "uplift.scenario")]) == 0

    def test_schema_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("gpu_color: red\n")
        assert main(["validate", str(bad)]) == 2

    def test_semantic_error_exit_3(self, tmp_path, scenario_dir):
        text = (scenario_dir / "poc.scenario").read_text()
        text = text.replace("ran_fraction: 0.40", "ran_fraction: 0.70")
        bad = tmp_path / "overfull.scenario"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 3

    @pytest.mark.parametrize("section", ["cells", "flows", "ai_workloads", "profiles"])
    def test_non_list_section_exit_2(self, tmp_path, capsys, section):
        bad = tmp_path / "bad.scenario"
        bad.write_text(
            "servers: [{id: s1, gpus: [{id: g1}]}]\n"
            "policy: {kind: dynamic_backfill}\n"
            "sim: {horizon_s: 1.0, seed: 3}\n"
            f"{section}: 5\n"
        )
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {section}: expected a list\n"

    def test_demand_that_can_only_fail_exit_3(self, tmp_path, scenario_dir, capsys):
        text = (scenario_dir / "uplift.scenario").read_text()
        text = text.replace("{kind: constant, value: 1.0}", "{kind: constant, value: 3.0}")
        bad = tmp_path / "overdemand.scenario"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 3
        assert "demand_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, old, new, message",
        [
            ("poc", "gpu1\n        partition_granularity: 0.05",
             "gpu1\n        partition_granularity: 0.3",
             "servers[0].gpus[0]: gpu1: 1.0/0.3 is not an integer"),
            ("poc", "scs_khz: 30", "scs_khz: 45", "cells[0]: scs_khz 45 not in"),
            ("uplift", "bandwidth_mhz: 100.0", "bandwidth_mhz: 400.0",
             "cell cell1: cell peak 1.6000 exceeds one GPU"),
            ("poc", "kind: diurnal", "kind: trace\n    points: []",
             "profiles[0]: trace profile has no points"),
            ("poc", "srv1", "wan", "topology: fabric node ids used twice: wan"),
            ("poc", "srv1", "ru-cell1", "topology: fabric node ids used twice: ru-cell1"),
            ("uplift", "epoch_s: 0.1", "epoch_s: 0.0000004",
             "policy.epoch_s 4e-07 is not a positive whole number of us"),
            ("uplift", "epoch_s: 0.1", "epoch_s: 0.0012345",
             "policy.epoch_s 0.0012345 is not a positive whole number of us"),
        ],
        ids=[
            "granularity", "numerology", "calibration-overflow", "empty-trace",
            "server-named-wan", "server-named-like-an-ru", "epoch-below-1us", "epoch-off-us-grid",
        ],
    )
    def test_what_cannot_run_fails_validate_exit_3(
        self, tmp_path, scenario_dir, capsys, scenario, old, new, message
    ):
        """Inputs that ``run`` would reject are semantic errors for ``validate`` too."""
        text = (scenario_dir / f"{scenario}.scenario").read_text()
        assert old in text
        bad = tmp_path / "bad.scenario"
        bad.write_text(text.replace(old, new))
        assert main(["validate", str(bad)]) == 3
        assert message in capsys.readouterr().err
        assert main(["run", str(bad)]) == 3

    def test_usage_error_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    def test_missing_file_exit_2(self):
        assert main(["validate", "/nonexistent/file.scenario"]) == 2

    def test_unwritable_output_exit_4(self, short_poc, capsys):
        rc = main(["run", str(short_poc), "--out", "/nonexistent-dir/out.records"])
        assert rc == 4


class TestRun:
    def test_run_writes_report(self, short_poc, tmp_path, capsys):
        out = tmp_path / "out.records"
        assert main(["run", str(short_poc), "--out", str(out)]) == 0
        report = parse_records(out.read_text())
        assert report.scenario_name == "poc-short"
        assert report.deadline_misses == []

    def test_seed_override_determinism(self, tmp_path, scenario_dir, capsys):
        src = scenario_dir / "uplift.scenario"
        text = src.read_text().replace("horizon_s: 600.0", "horizon_s: 1.0")
        text = text.replace("arrival: saturating", "arrival: poisson\n    rate_per_s: 30.0")
        text = text.replace(
            "demand_fraction: {kind: constant, value: 1.0}",
            "demand_fraction: {kind: constant, value: 0.2}\n    job_size: {kind: exponential, mean: 0.05}",
        )
        sc = tmp_path / "poisson.scenario"
        sc.write_text(text)
        outs = []
        for i, seed in enumerate(("7", "7", "8")):
            out = tmp_path / f"o{i}.records"
            assert main(["run", str(sc), "--seed", seed, "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]  # identical seeds, identical bytes
        assert outs[0] != outs[2]  # seed flag actually overrides the config

    def test_exponential_demand_above_one_runs(self, tmp_path, capsys):
        """An exponential demand may sample above 1; a job then asks for the whole GPU."""
        sc = tmp_path / "heavy.scenario"
        sc.write_text(
            "servers: [{id: srv1, gpus: [{id: gpu1}]}]\n"
            "ai_workloads:\n"
            "  - {id: jobs, arrival: poisson, rate_per_s: 50.0,\n"
            "     demand_fraction: {kind: exponential, mean: 0.5}}\n"
            "policy: {kind: dynamic_backfill}\n"
            "sim: {horizon_s: 1.0, seed: 1}\n"
        )
        assert main(["validate", str(sc)]) == 0
        out = tmp_path / "heavy.records"
        assert main(["run", str(sc), "--out", str(out)]) == 0
        demands = [
            float(line.split("demand=")[1])
            for line in out.read_text().splitlines()
            if ",arrival " in line
        ]
        assert len(demands) > 20 and max(demands) == 1.0 and min(demands) < 1.0

    def test_summary_format_to_stdout(self, short_poc, capsys):
        assert main(["run", str(short_poc), "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario poc-short")

    def test_run_does_not_import_networkx(self, short_uplift, tmp_path):
        """networkx is the tests' routing oracle; the program itself never loads it."""
        root = pathlib.Path(__file__).resolve().parents[1]
        argv = ["run", str(short_uplift), "--format", "summary", "--out", str(tmp_path / "s")]
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "import ranshare\n"
            "from ranshare.cli import main\n"
            f"print(main({argv!r}), 'networkx' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60,
        )
        assert out.stdout.strip() == "0 False", out.stderr


class TestSweep:
    def test_margin_sweep_monotone_ai(self, short_uplift, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                str(short_uplift),
                "--param",
                "policy.safety_margin=0.0,0.05,0.1",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        reports = [
            parse_records((out_dir / f"uplift-short.p{i}.records").read_text())
            for i in range(3)
        ]
        ai_avgs = [r.summary.per_gpu["gpu1"].avg_ai for r in reports]
        assert ai_avgs[0] >= ai_avgs[1] >= ai_avgs[2]
        for r in reports:
            assert r.deadline_misses == []

    def test_sweep_seeds_differ_per_point(self, short_uplift, tmp_path, capsys):
        out_dir = tmp_path / "sweep2"
        rc = main(
            [
                "sweep",
                str(short_uplift),
                "--param",
                "sim.sample_interval_s=0.01,0.01",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        seeds = {
            parse_records((out_dir / f"uplift-short.p{i}.records").read_text()).seed
            for i in range(2)
        }
        assert len(seeds) == 2

    def test_bad_param_value_exit_2(self, short_uplift, tmp_path, capsys):
        rc = main(
            ["sweep", str(short_uplift), "--param", "policy.safety_margin=[",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: not valid YAML: ")

    def test_bad_param_path(self, short_uplift, tmp_path):
        rc = main(
            ["sweep", str(short_uplift), "--param", "nosuch.key=1,2", "--out-dir", str(tmp_path)]
        )
        assert rc == 2
