"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -v -s`` or in
the captured output of a failing run) and asserts the criterion.
"""

import dataclasses
import itertools
import math
import random
import time

import networkx as nx
import pytest

from ranshare.compute import GpuDevice, Server, TenantClass
from ranshare.engine import CellSpec, Scenario, run
from ranshare.fabric import (
    Flow,
    FlowKind,
    build_ptp_tree,
    build_reference_fabric,
    route_flows,
    validate_topology,
)
from ranshare.orchestrator import (
    ForecastKind,
    Policy,
    PolicyKind,
    build_cluster_state,
    plan_placement,
)
from ranshare.scenario import load_scenario, write_report
from ranshare.workload import (
    AiJob,
    AiWorkload,
    ArrivalKind,
    Calibration,
    CellConfig,
    LoadProfile,
    ProfileKind,
    constant,
)

from test_fabric import nx_graph

POC_CELL = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=4, rx_antennas=4)
SATURATING = AiWorkload(id="sat", arrival=ArrivalKind.SATURATING)


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


class TestCriterion1PocReplication:
    def test_poc_scenario(self, scenario_dir):
        sc = load_scenario(scenario_dir / "poc.scenario")
        started = time.perf_counter()
        report = run(sc)
        elapsed = time.perf_counter() - started

        gpu1 = [t for t in report.trace if t.gpu_id == "gpu1"]
        gpu2 = [t for t in report.trace if t.gpu_id == "gpu2"]
        peak_ran = max(t.ran_fraction for t in gpu1)
        # SATURATING backlog is nonzero for the whole horizon
        totals = [t.ran_fraction + t.ai_fraction for t in gpu1]
        ok_peak = abs(peak_ran - 0.400) <= 0.001
        ok_total = all(abs(x - 1.000) <= 0.01 for x in totals)
        ok_gpu2 = all(t.ran_fraction == 0.0 and t.ai_fraction == 0.0 for t in gpu2)
        ok_miss = len(report.deadline_misses) == 0
        ok_time = elapsed < 10.0
        _verdict(
            1,
            ok_peak and ok_total and ok_gpu2 and ok_miss and ok_time,
            f"peak_ran={peak_ran:.4f} total_range=[{min(totals):.4f},{max(totals):.4f}] "
            f"gpu2_zero={ok_gpu2} misses={len(report.deadline_misses)} "
            f"runtime={elapsed:.2f}s",
        )


class TestCriterion2UtilizationUplift:
    def test_uplift_scenario(self, scenario_dir):
        sc = load_scenario(scenario_dir / "uplift.scenario")
        baseline = dataclasses.replace(sc, ai_workloads=())
        started = time.perf_counter()
        report_base = run(baseline)
        report_dyn = run(sc)
        elapsed = time.perf_counter() - started

        base_avg = report_base.summary.per_gpu["gpu1"].avg_total
        dyn_avg = report_dyn.summary.per_gpu["gpu1"].avg_total
        ok_base = 0.30 <= base_avg <= 0.40
        ok_dyn = dyn_avg >= 0.95
        ok_miss = len(report_base.deadline_misses) == len(report_dyn.deadline_misses) == 0
        ok_time = elapsed < 30.0
        _verdict(
            2,
            ok_base and ok_dyn and ok_miss and ok_time,
            f"baseline_avg={base_avg:.4f} dynamic_avg={dyn_avg:.4f} "
            f"misses=({len(report_base.deadline_misses)},{len(report_dyn.deadline_misses)}) "
            f"runtime={elapsed:.2f}s",
        )


def _random_static_scenario(rng, with_ai):
    n_cells = rng.randint(1, 2)
    cells = []
    for ci in range(n_cells):
        bw = rng.choice([50.0, 100.0])
        ant = rng.choice([2, 4])
        kind = rng.choice(list(ProfileKind))
        if kind is ProfileKind.CONSTANT:
            profile = LoadProfile(kind=kind, level=rng.uniform(0, 1))
        elif kind is ProfileKind.DIURNAL_SINUSOID:
            lo = rng.uniform(0, 0.8)
            profile = LoadProfile(
                kind=kind, minimum=lo, maximum=rng.uniform(lo, 1.0),
                period_s=rng.uniform(0.2, 1.5), phase=rng.uniform(0, 6.28),
            )
        else:
            times = sorted(rng.uniform(0, 1.0) for _ in range(3))
            profile = LoadProfile(
                kind=kind, points=tuple((t, rng.uniform(0, 1)) for t in times)
            )
        cells.append(
            CellSpec(
                f"c{ci}",
                CellConfig(bandwidth_mhz=bw, scs_khz=30, tx_antennas=ant, rx_antennas=ant),
                profile,
                "srv1",
            )
        )
    ran_units = rng.randint(1, 12)
    ai_units = rng.randint(1, 20 - ran_units)
    policy = Policy(
        kind=PolicyKind.STATIC_SPLIT,
        ran_fraction=ran_units * 0.05,
        ai_fraction=ai_units * 0.05,
        split_gpus=("gpu1",),
    )
    workloads = (SATURATING,) if with_ai else ()
    return Scenario(
        name="iso",
        servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"), GpuDevice("gpu2"))),),
        cells=tuple(cells),
        calibration=Calibration(),
        ai_workloads=workloads,
        policy=policy,
        horizon_s=1.0,
        seed=rng.randint(0, 2**31),
        sample_interval_s=0.05,
    )


class TestCriterion3Isolation:
    def test_miss_sequence_identical_with_and_without_ai(self):
        rng = random.Random(12345)
        checked = 0
        with_misses = 0
        for _ in range(100):
            seed_state = rng.getstate()
            sc_ai = _random_static_scenario(rng, with_ai=True)
            rng.setstate(seed_state)
            sc_quiet = _random_static_scenario(rng, with_ai=False)
            r_ai = run(sc_ai)
            r_quiet = run(sc_quiet)
            assert r_ai.deadline_misses == r_quiet.deadline_misses
            checked += 1
            if r_ai.deadline_misses:
                with_misses += 1
        _verdict(
            3,
            checked == 100 and with_misses > 0,
            f"{checked} scenarios, miss sequences identical "
            f"({with_misses} scenarios actually missed deadlines)",
        )


def _brute_force_fits(demands, capacities):
    for combo in itertools.product(range(len(capacities)), repeat=len(demands)):
        used = [0.0] * len(capacities)
        if all(
            (used.__setitem__(b, used[b] + d) or used[b] <= capacities[b] + 1e-9)
            for d, b in zip(demands, combo)
        ):
            return True
    return False


class TestCriterion4PlacementOracle:
    def test_heuristic_against_enumeration(self):
        rng = random.Random(777)
        infeasible_emitted = 0
        oracle_feasible = 0
        heuristic_ok = 0
        for _ in range(200):
            n_servers = rng.randint(1, 2)
            servers = []
            for si in range(n_servers):
                gpus = tuple(
                    GpuDevice(f"g{si}-{gi}") for gi in range(rng.randint(1, 2))
                )
                servers.append(Server(id=f"srv{si}", gpus=gpus))
            policy = Policy(kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.0, ai_fraction=0.0)
            partitions = {}
            capacities = []
            for s in servers:
                for g in s.gpus:
                    ai = rng.randrange(4, 21) * 0.05
                    partitions[g.id] = ([ai], [TenantClass.AI])
                    capacities.append(ai)
            state = build_cluster_state(servers, policy, partitions)
            jobs = []
            for i in range(rng.randint(1, 6)):
                job = AiJob(
                    id=f"j{i}",
                    arrival_time=float(i),
                    size_compute_seconds=1.0,
                    demand_fraction=rng.randrange(1, 13) * 0.05,
                )
                jobs.append(job)
                state.jobs[job.id] = job
                state.enqueue(job)
            decision = plan_placement(jobs, state)

            used: dict[str, float] = {}
            for _, (_, _, inst_id, frac) in decision.assignments.items():
                used[inst_id] = used.get(inst_id, 0.0) + frac
            caps = {
                inst.id: inst.compute_fraction
                for srv in state.servers
                for gpu in srv.gpus
                for inst in gpu.instances
            }
            if any(v > caps[k] + 1e-9 for k, v in used.items()):
                infeasible_emitted += 1
            if _brute_force_fits([j.demand_fraction for j in jobs], capacities):
                oracle_feasible += 1
                if len(decision.assignments) == len(jobs):
                    heuristic_ok += 1
        rate = heuristic_ok / oracle_feasible
        _verdict(
            4,
            infeasible_emitted == 0 and rate >= 0.95,
            f"infeasible_emitted={infeasible_emitted} "
            f"heuristic_success={heuristic_ok}/{oracle_feasible} ({rate:.1%})",
        )


class TestCriterion5FabricInvariants:
    def test_reference_fabric(self):
        servers = [Server(id=f"srv{i}", gpus=(GpuDevice(f"g{i}"),)) for i in range(2)]
        rus = ["ru1", "ru2", "ru3"]
        topo = build_reference_fabric(2, 4, 2, 4, rus, servers)

        violations = validate_topology(topo)
        ok_valid = violations == []

        g = nx_graph(topo)
        ok_redundant = True
        for spine in ("cs1", "cs2"):
            h = g.copy()
            h.remove_node(spine)
            for a, b in itertools.combinations(["cl1", "cl2", "cl3", "cl4"], 2):
                if not nx.has_path(h, a, b):
                    ok_redundant = False

        tree = build_ptp_tree(topo)
        ok_coverage = set(tree.paths) == set(rus) | {s.id for s in servers}

        loads, _ = route_flows(topo, [Flow("f", "ru1", "srv0", FlowKind.FRONTHAUL, 10.0)])
        per_spine = {
            spine: math.fsum(
                load for link, load in loads.items() if spine in link.split("~")
            ) / 2.0
            for spine in ("cs1", "cs2")
        }
        ok_split = per_spine["cs1"] == per_spine["cs2"] == 5.0

        _verdict(
            5,
            ok_valid and ok_redundant and ok_coverage and ok_split,
            f"violations={len(violations)} spine_redundancy={ok_redundant} "
            f"ptp_coverage={ok_coverage} ecmp_split={per_spine}",
        )


class TestCriterion6DeterminismAndConservation:
    def test_repeat_runs_and_conservation(self, scenario_dir):
        scenarios = []
        poc = load_scenario(scenario_dir / "poc.scenario")
        scenarios.append(dataclasses.replace(poc, horizon_s=10.0))
        uplift = load_scenario(scenario_dir / "uplift.scenario")
        scenarios.append(dataclasses.replace(uplift, horizon_s=10.0))
        scenarios.append(
            Scenario(
                name="mixed",
                servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"), GpuDevice("gpu2"))),),
                cells=(
                    CellSpec(
                        "c0",
                        POC_CELL,
                        LoadProfile(
                            kind=ProfileKind.DIURNAL_SINUSOID,
                            minimum=0.1,
                            maximum=0.9,
                            period_s=2.0,
                        ),
                        "srv1",
                    ),
                ),
                calibration=Calibration(),
                ai_workloads=(
                    AiWorkload(
                        id="pois",
                        arrival=ArrivalKind.POISSON,
                        rate_per_s=4.0,
                        job_size=constant(0.4),
                        demand_fraction=constant(0.35),
                    ),
                    SATURATING,
                ),
                policy=Policy(
                    kind=PolicyKind.DYNAMIC_BACKFILL,
                    epoch_s=0.1,
                    safety_margin=0.05,
                    forecast=ForecastKind.MAX_OVER_WINDOW,
                    window_s=0.2,
                ),
                horizon_s=8.0,
                seed=99,
                sample_interval_s=0.01,
            )
        )
        all_identical = True
        worst_excess = 0.0
        for sc in scenarios:
            r1, r2 = run(sc), run(sc)
            if write_report(r1, "records") != write_report(r2, "records"):
                all_identical = False
            for t in r1.trace:
                worst_excess = max(worst_excess, t.ran_fraction + t.ai_fraction - 1.0)
        _verdict(
            6,
            all_identical and worst_excess <= 1e-9,
            f"{len(scenarios)} scenarios byte-identical={all_identical} "
            f"max(ran+ai-1)={worst_excess:.2e}",
        )


class TestCriterion7ReclaimLatency:
    def test_reclaim_within_one_epoch_of_forecast(self):
        epoch = 0.1
        step_t = 5.03
        profile = LoadProfile(
            kind=ProfileKind.TRACE, points=((0.0, 0.25), (step_t, 0.875))
        )
        sc = Scenario(
            name="step",
            servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"),)),),
            cells=(CellSpec("c0", POC_CELL, profile, "srv1"),),
            calibration=Calibration(),
            ai_workloads=(SATURATING,),
            policy=Policy(
                kind=PolicyKind.DYNAMIC_BACKFILL,
                epoch_s=epoch,
                safety_margin=0.05,
                forecast=ForecastKind.MAX_OVER_WINDOW,
                window_s=2 * epoch,
            ),
            horizon_s=6.0,
            seed=5,
            sample_interval_s=0.01,
        )
        report = run(sc)
        # the first epoch whose window saw the stepped demand
        forecast_reflects = math.ceil(step_t / epoch) * epoch
        new_ceiling = 1.0 - 0.35 - 0.05
        reclaims = [
            e for e in report.events
            if e.kind in ("trim", "preempt") and e.time_s >= step_t
        ]
        ceilings = [
            e for e in report.events
            if e.kind == "ceiling" and e.time_s >= step_t
        ]
        ok_event = bool(reclaims) and reclaims[0].time_s <= forecast_reflects + epoch + 1e-9
        ok_level = bool(ceilings)
        for e in ceilings:
            ai_after = float(e.detail.split("ai=")[1])
            ceiling = float(e.detail.split("value=")[1].split()[0])
            if ai_after > ceiling + 1e-9:
                ok_level = False
        # after the reclaim, sampled AI stays at or below the new ceiling
        post = [
            t.ai_fraction for t in report.trace if t.time_s >= forecast_reflects
        ]
        ok_post = all(a <= new_ceiling + 1e-9 for a in post)
        _verdict(
            7,
            ok_event and ok_level and ok_post,
            f"step_t={step_t} forecast_reflects={forecast_reflects:.2f} "
            f"first_reclaim={reclaims[0].time_s if reclaims else None} "
            f"grants_at_ceiling={ok_level} post_step_ai_capped={ok_post}",
        )
