import dataclasses
import math
import pathlib
import random
import subprocess
import sys
from heapq import heappop

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranshare import orchestrator as orch
from ranshare.compute import GpuDevice, Server
from ranshare.engine import (
    CellSpec,
    EventKind,
    Scenario,
    SimEngine,
    TopologySpec,
    Trace,
    mix_seed,
    p95,
    run,
    summarize,
)
from ranshare.errors import EmptyTrace, EventInPast, ScenarioInvalid, SimulatorError
from ranshare.orchestrator import ForecastKind, Policy, PolicyKind
from ranshare.scenario import write_report
from ranshare.workload import (
    AiWorkload,
    ArrivalKind,
    Calibration,
    CellConfig,
    JobState,
    LoadProfile,
    ProfileKind,
    SloClass,
    constant,
    uniform,
)

POC_CELL = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=4, rx_antennas=4)
STATIC = Policy(
    kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6, split_gpus=("gpu1",)
)
DYNAMIC = Policy(
    kind=PolicyKind.DYNAMIC_BACKFILL,
    epoch_s=0.1,
    safety_margin=0.05,
    forecast=ForecastKind.MAX_OVER_WINDOW,
    window_s=0.2,
)


def scenario(
    profile=None,
    policy=STATIC,
    workloads=None,
    horizon=2.0,
    gpus=("gpu1", "gpu2"),
    seed=42,
    sample=0.01,
    name="test",
):
    profile = profile or LoadProfile(kind=ProfileKind.CONSTANT, level=1.0)
    server = Server(id="srv1", gpus=tuple(GpuDevice(g) for g in gpus))
    return Scenario(
        name=name,
        servers=(server,),
        cells=(CellSpec("cell1", POC_CELL, profile, "srv1"),),
        calibration=Calibration(),
        ai_workloads=tuple(workloads or ()),
        policy=policy,
        horizon_s=horizon,
        seed=seed,
        sample_interval_s=sample,
    )


SATURATING = AiWorkload(id="sat", arrival=ArrivalKind.SATURATING)


class TestRun:
    def test_empty_scenario_all_zero(self):
        sc = scenario(
            profile=LoadProfile(kind=ProfileKind.CONSTANT, level=0.0), workloads=()
        )
        report = run(sc)
        assert report.deadline_misses == []
        assert all(t.ran_fraction == 0.0 and t.ai_fraction == 0.0 for t in report.trace)

    def test_poc_shape(self):
        sc = scenario(
            profile=LoadProfile(
                kind=ProfileKind.DIURNAL_SINUSOID, minimum=0.98, maximum=1.0, period_s=1.0
            ),
            workloads=(SATURATING,),
        )
        report = run(sc)
        gpu1 = [t for t in report.trace if t.gpu_id == "gpu1"]
        assert max(t.ran_fraction for t in gpu1) == pytest.approx(0.4, abs=1e-3)
        assert all(t.ai_fraction == pytest.approx(0.6) for t in gpu1)
        gpu2 = [t for t in report.trace if t.gpu_id == "gpu2"]
        assert all(t.ran_fraction + t.ai_fraction == 0.0 for t in gpu2)
        assert report.deadline_misses == []

    def test_determinism_byte_identical(self):
        sc = scenario(
            workloads=(
                AiWorkload(
                    id="pois",
                    arrival=ArrivalKind.POISSON,
                    rate_per_s=5.0,
                    job_size=constant(0.5),
                    demand_fraction=constant(0.3),
                ),
            ),
            policy=DYNAMIC,
            gpus=("gpu1",),
        )
        a = write_report(run(sc), "records")
        b = write_report(run(sc), "records")
        assert a == b

    def test_seed_changes_poisson_outcome(self):
        wl = AiWorkload(
            id="pois",
            arrival=ArrivalKind.POISSON,
            rate_per_s=5.0,
            job_size=constant(0.5),
            demand_fraction=constant(0.3),
        )
        r1 = run(scenario(workloads=(wl,), policy=DYNAMIC, gpus=("gpu1",), seed=1))
        r2 = run(scenario(workloads=(wl,), policy=DYNAMIC, gpus=("gpu1",), seed=2))
        assert write_report(r1, "records") != write_report(r2, "records")

    def test_invalid_scenario_raises(self):
        sc = scenario(horizon=-1.0)
        with pytest.raises(ScenarioInvalid):
            run(sc)


class TestValidateOnce:
    """A scenario is validated, and its fabric built, once per scenario object."""

    def _counting(self, monkeypatch) -> dict[str, int]:
        from ranshare import fabric

        counts = {}
        for name in ("build_reference_fabric", "validate_topology"):
            original = getattr(fabric, name)

            def wrapper(*args, _name=name, _original=original):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(fabric, name, wrapper)
        return counts

    def test_parse_and_engines_share_one_fabric(self, monkeypatch):
        from ranshare.scenario import load_scenario

        counts = self._counting(monkeypatch)
        sc = load_scenario(pathlib.Path(__file__).parents[1] / "scenarios" / "poc.scenario")
        first, second = SimEngine(sc), SimEngine(sc)
        assert counts == {"build_reference_fabric": 1, "validate_topology": 1}
        assert first.topology is second.topology is sc.fabric

    @pytest.mark.parametrize(
        "change",
        [{"horizon_s": -1.0}, {"topology": TopologySpec(compute_spines=0)}],
        ids=["horizon", "fabric"],
    )
    def test_engine_rejects_a_hand_built_invalid_scenario(self, monkeypatch, change):
        counts = self._counting(monkeypatch)
        sc = dataclasses.replace(scenario(), **change)
        for _ in range(2):
            with pytest.raises(ScenarioInvalid):
                SimEngine(sc)
        assert counts["build_reference_fabric"] == 1

    def test_split_off_granularity_rejected_at_validation(self):
        coarse = Policy(
            kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.35,
            split_gpus=("gpu1",),
        )
        server = Server(id="srv1", gpus=(GpuDevice("gpu1", partition_granularity=0.25),))
        sc = Scenario(
            name="coarse",
            servers=(server,),
            cells=(
                CellSpec(
                    "c", POC_CELL, LoadProfile(kind=ProfileKind.CONSTANT, level=0.5), "srv1"
                ),
            ),
            calibration=Calibration(),
            ai_workloads=(),
            policy=coarse,
            horizon_s=1.0,
            seed=0,
        )
        problems = sc.validate()
        assert any("granularity" in p for p in problems)
        with pytest.raises(ScenarioInvalid):
            run(sc)

    def test_clock_monotonic_events(self):
        sc = scenario(workloads=(SATURATING,), policy=DYNAMIC, gpus=("gpu1",))
        report = run(sc)
        times = [e.time_s for e in report.events]
        assert times == sorted(times)

    def test_conservation_every_sample(self):
        sc = scenario(
            profile=LoadProfile(
                kind=ProfileKind.DIURNAL_SINUSOID, minimum=0.0, maximum=1.0, period_s=0.7
            ),
            workloads=(SATURATING,),
            policy=DYNAMIC,
            gpus=("gpu1",),
        )
        report = run(sc)
        for t in report.trace:
            assert t.ran_fraction + t.ai_fraction <= 1.0 + 1e-9

    def test_trace_matches_grant_integrals_for_constant_load(self):
        sc = scenario(
            profile=LoadProfile(kind=ProfileKind.CONSTANT, level=0.5),
            workloads=(SATURATING,),
        )
        engine = SimEngine(sc)
        report = engine.run()
        gpu1 = engine.state.gpu_by_id("gpu1")
        horizon_us = round(sc.horizon_s * 1e6)
        assert report.summary.per_gpu["gpu1"].avg_ran == pytest.approx(
            gpu1.ran_integral / horizon_us, abs=1e-9
        )
        assert report.summary.per_gpu["gpu1"].avg_ai == pytest.approx(
            gpu1.ai_integral / horizon_us, abs=1e-9
        )


class TestCompletionFlow:
    def test_completion_frees_capacity_for_queued_job(self):
        wl = AiWorkload(
            id="two",
            arrival=ArrivalKind.TRACE,
            trace_arrivals=(0.0, 0.0),
            job_size=constant(0.3),
            demand_fraction=constant(0.6),
        )
        sc = scenario(workloads=(wl,), horizon=3.0)
        report = run(sc)
        done = [e for e in report.events if e.kind == "completion"]
        assert len(done) == 2
        # second job starts only after the first completes (0.6 slice serves 0.6 demand)
        places = [e for e in report.events if e.kind == "place"]
        assert len(places) == 2
        assert places[1].time_s >= done[0].time_s

    def test_job_progress_accounting(self):
        wl = AiWorkload(
            id="one",
            arrival=ArrivalKind.TRACE,
            trace_arrivals=(0.0,),
            job_size=constant(0.3),
            demand_fraction=constant(0.6),
        )
        sc = scenario(workloads=(wl,), horizon=2.0)
        engine = SimEngine(sc)
        engine.run()
        job = engine.state.jobs["one-0"]
        assert job.state is JobState.DONE
        assert job.remaining_compute_seconds == 0.0
        # 0.3 compute-seconds at rate 0.6 -> 0.5 s (quantized up to the next us)
        assert job.completion_time == pytest.approx(0.5, abs=1e-5)


class TestWorkConservation:
    def test_job_work_equals_integrated_service(self):
        # every compute-second a job finishes must appear in the GPU's
        # integrated AI service, across placements, throttles, preemptions
        profile = LoadProfile(
            kind=ProfileKind.TRACE,
            points=((0.0, 0.2), (0.7, 0.95), (1.4, 0.3)),
        )
        wl = AiWorkload(
            id="batch",
            arrival=ArrivalKind.POISSON,
            rate_per_s=6.0,
            job_size=constant(0.15),
            demand_fraction=constant(0.3),
        )
        sc = scenario(profile=profile, workloads=(wl,), policy=DYNAMIC, gpus=("gpu1",))
        engine = SimEngine(sc)
        engine.run()
        done = sum(
            j.size_compute_seconds - j.remaining_compute_seconds
            for j in engine.state.jobs.values()
            if math.isfinite(j.size_compute_seconds)
        )
        integrated = sum(
            g.ai_integral / 1e6 for s in engine.state.servers for g in s.gpus
        )
        n_jobs = len(engine.state.jobs)
        assert done == pytest.approx(integrated, abs=1e-5 * max(n_jobs, 1))


class TestPreemptionConservation:
    def test_no_work_lost_across_preemptions(self):
        profile = LoadProfile(
            kind=ProfileKind.TRACE,
            points=((0.0, 0.1), (0.5, 0.9), (1.0, 0.1), (1.5, 0.9)),
        )
        wl = AiWorkload(
            id="batch",
            arrival=ArrivalKind.POISSON,
            rate_per_s=10.0,
            job_size=constant(0.2),
            demand_fraction=constant(0.25),
        )
        sc = scenario(profile=profile, workloads=(wl,), policy=DYNAMIC, gpus=("gpu1",))
        engine = SimEngine(sc)
        report = engine.run()
        assert report.job_stats.preempted_events > 0
        for job in engine.state.jobs.values():
            done = job.size_compute_seconds - job.remaining_compute_seconds
            assert -1e-9 <= done <= job.size_compute_seconds + 1e-9
            if job.state is JobState.DONE:
                assert job.remaining_compute_seconds == 0.0


class TestQueueBound:
    def test_arrivals_beyond_bound_rejected(self):
        wl = AiWorkload(
            id="burst",
            arrival=ArrivalKind.TRACE,
            trace_arrivals=(0.0, 0.0, 0.0),
            job_size=constant(5.0),
            demand_fraction=constant(0.9),  # does not fit the 0.6 AI slice whole
        )
        policy = Policy(
            kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6,
            split_gpus=("gpu1",), queue_bound=1,
        )
        sc = scenario(workloads=(wl,), policy=policy, horizon=0.5)
        engine = SimEngine(sc)
        report = engine.run()
        states = sorted(j.state.value for j in engine.state.jobs.values())
        # first job backfills partially, second occupies the queue slot,
        # third finds the queue full
        assert report.job_stats.rejected == 1
        assert "REJECTED" in states
        rejects = [e for e in report.events if e.kind == "reject"]
        assert len(rejects) == 1


class TestTimeSplit:
    def test_boundary_repartitions_and_settles(self):
        policy = Policy(
            kind=PolicyKind.TIME_SPLIT,
            schedule=((0.0, 1.0, 0.4), (1.0, 2.0, 0.7)),
            split_gpus=("gpu1",),
        )
        sc = scenario(
            profile=LoadProfile(kind=ProfileKind.CONSTANT, level=0.5),
            policy=policy,
            workloads=(SATURATING,),
            horizon=2.0,
        )
        report = run(sc)
        reparts = [e for e in report.events if e.kind == "repartition"]
        assert len(reparts) == 1 and reparts[0].time_s == 1.0
        settled = [e for e in report.events if e.kind == "settled"]
        assert settled and settled[0].time_s == pytest.approx(1.0005)
        # the slot after the boundary finds the GPU settling: one miss
        assert [m.time_s for m in report.deadline_misses] == [pytest.approx(1.0005)]
        # after the boundary the RAN slice is 0.7 wide: load 0.5 -> demand 0.2 fits
        late = [t for t in report.trace if t.gpu_id == "gpu1" and t.time_s > 1.1]
        assert all(t.ai_fraction <= 0.3 + 1e-9 for t in late)

    def test_same_layout_boundary_is_noop(self):
        policy = Policy(
            kind=PolicyKind.TIME_SPLIT,
            schedule=((0.0, 1.0, 0.4), (1.0, 2.0, 0.4)),
            split_gpus=("gpu1",),
        )
        sc = scenario(policy=policy, horizon=2.0)
        report = run(sc)
        assert [e for e in report.events if e.kind == "repartition"] == []

    def test_default_targets_skip_servers_without_cells(self):
        """Without ``policy.gpus`` only cell-hosting servers' first GPUs are split.

        The initial layout and every boundary agree: g2, on a server with no
        cell, stays whole for the whole run.
        """
        policy = Policy(
            kind=PolicyKind.TIME_SPLIT, schedule=((0.0, 1.0, 0.4), (1.0, 2.0, 0.6))
        )
        sc = Scenario(
            name="split-targets",
            servers=(
                Server(id="srv1", gpus=(GpuDevice("g1"),)),
                Server(id="srv2", gpus=(GpuDevice("g2"),)),
            ),
            cells=(
                CellSpec("cell1", POC_CELL, LoadProfile(ProfileKind.CONSTANT, level=0.5), "srv1"),
            ),
            calibration=Calibration(),
            ai_workloads=(),
            policy=policy,
            horizon_s=2.0,
        )
        engine = SimEngine(sc)
        g2 = engine.state.gpu_by_id("g2")
        assert [i.tenant_class.value for i in g2.instances] == ["FREE"]
        report = engine.run()
        reparts = [(e.time_s, e.subject) for e in report.events if e.kind == "repartition"]
        assert reparts == [(1.0, "g1")]
        assert [i.tenant_class.value for i in g2.instances] == ["FREE"]


class TestStepApi:
    def test_tie_break_slot_before_epoch(self):
        # slots never enter the heap; test_epoch_at_t0_sees_slot_settled_demand
        # checks that a slot settles before an event at its time
        assert EventKind.POLICY_EPOCH.value < EventKind.JOB_ARRIVAL.value
        assert EventKind.JOB_ARRIVAL.value < EventKind.JOB_COMPLETION.value

    def test_step_emits_followup_events(self):
        sc = scenario(workloads=(SATURATING,), policy=DYNAMIC, gpus=("gpu1",))
        engine = SimEngine(sc)
        # settle slot 0 so the epoch sees its demand, then dispatch the epoch
        engine._settle(0, 1)
        epoch = heappop(engine.state.heap)
        assert epoch[:2] == (0, EventKind.POLICY_EPOCH.value)
        seqs = {entry[2] for entry in engine.state.heap}
        engine._dispatch(EventKind.POLICY_EPOCH, (), 0)
        emitted = [e for e in engine.state.heap if e[2] not in seqs]
        assert any(e[3] is EventKind.POLICY_EPOCH for e in emitted)
        assert all(e[0] >= 0 for e in emitted)

    def test_epoch_at_t0_sees_slot_settled_demand(self):
        # slot and epoch coincide at t=0; the slot must settle first so the
        # very first forecast reflects real demand, not zero
        sc = scenario(
            profile=LoadProfile(kind=ProfileKind.CONSTANT, level=0.875),
            workloads=(SATURATING,),
            policy=DYNAMIC,
            gpus=("gpu1",),
        )
        report = run(sc)
        first_ceiling = next(e for e in report.events if e.kind == "ceiling")
        assert first_ceiling.time_s == 0.0
        value = float(first_ceiling.detail.split("value=")[1].split()[0])
        assert value == pytest.approx(0.6, abs=1e-9)  # 1 - 0.35 - 0.05


class TestSummarize:
    def _trace(self, rows, gpu="g1"):
        """One GPU's trace from (time, ran, ai) rows."""
        times, ran, ai = zip(*rows) if rows else ((), (), ())
        return Trace((gpu,), times, ran, ai)

    def test_constant_trace(self):
        s = summarize(self._trace([(0.0, 0.4, 0.0), (1.0, 0.4, 0.0), (2.0, 0.4, 0.0)]))
        assert s.per_gpu["g1"].avg_total == pytest.approx(0.40)

    def test_combined_classes(self):
        s = summarize(self._trace([(0.0, 0.4, 0.55), (1.0, 0.4, 0.55)]))
        assert s.per_gpu["g1"].avg_total == pytest.approx(0.95)
        assert s.per_gpu["g1"].avg_ran == pytest.approx(0.40)
        assert s.per_gpu["g1"].avg_ai == pytest.approx(0.55)

    def test_time_weighted_halves(self):
        s = summarize(
            self._trace([(0.0, 0.3, 0.0), (5.0, 0.5, 0.0), (10.0, 0.5, 0.0)])
        )
        assert s.per_gpu["g1"].avg_total == pytest.approx(0.40)

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTrace):
            summarize(self._trace([]))

    def test_peak_and_p95(self):
        recs = self._trace([(float(i), 0.01 * i, 0.0) for i in range(101)])
        s = summarize(recs)
        assert s.per_gpu["g1"].peak_total == pytest.approx(1.0)
        assert s.per_gpu["g1"].p95_total == pytest.approx(0.95)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64)
            | st.sampled_from([0.0, -0.0, 0.35, 0.95, 1.0]),
            min_size=1,
            max_size=300,
        )
    )
    def test_p95_is_numpy_percentile_bit_for_bit(self, values):
        expected = float(np.percentile(values, 95))
        assert p95(values).hex() == expected.hex()
        assert p95(np.array(values)).hex() == expected.hex()

    def test_p95_leaves_its_input_alone(self):
        values = np.array([3.0, 1.0, 2.0])
        assert p95(values) == pytest.approx(2.9)
        assert values.tolist() == [3.0, 1.0, 2.0]

    def test_report_summary_matches_independent_mean(self):
        # uniform sampling makes the time-weighted mean equal the plain mean
        # over all but the final (zero-width) sample
        import numpy as np

        sc = scenario(
            profile=LoadProfile(
                kind=ProfileKind.DIURNAL_SINUSOID, minimum=0.2, maximum=0.9, period_s=0.5
            ),
            workloads=(SATURATING,),
        )
        report = run(sc)
        for gpu_id, s in report.summary.per_gpu.items():
            vals = [
                t.ran_fraction + t.ai_fraction
                for t in report.trace
                if t.gpu_id == gpu_id
            ]
            assert s.avg_total == pytest.approx(float(np.mean(vals[:-1])), abs=1e-6)


class TestDynamicRanPriority:
    def test_miss_sequence_unchanged_by_saturating_ai(self):
        # with the forecast window covering the rise time and margin >= 0,
        # dynamic backfill never changes which slots miss
        rng = random.Random(99)
        for trial in range(10):
            lo = rng.uniform(0.0, 0.8)
            profile = LoadProfile(
                kind=ProfileKind.DIURNAL_SINUSOID,
                minimum=lo,
                maximum=rng.uniform(lo, 1.0),
                period_s=rng.uniform(0.3, 1.5),
                phase=rng.uniform(0, 6.28),
            )

            def build(workloads):
                # three half-loaded reference cells can exceed one GPU: misses exist
                return Scenario(
                    name=f"dynprio{trial}",
                    servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"),)),),
                    cells=tuple(
                        CellSpec(f"c{i}", POC_CELL, profile, "srv1") for i in range(3)
                    ),
                    calibration=Calibration(),
                    ai_workloads=workloads,
                    policy=Policy(
                        kind=PolicyKind.DYNAMIC_BACKFILL,
                        epoch_s=0.1,
                        safety_margin=rng.choice([0.0, 0.05]),
                        forecast=ForecastKind.MAX_OVER_WINDOW,
                        window_s=0.2,
                    ),
                    horizon_s=1.0,
                    seed=7,
                    sample_interval_s=0.01,
                )

            with_ai = run(build((SATURATING,)))
            without = run(build(()))
            assert with_ai.deadline_misses == without.deadline_misses


class TestStaticVsDynamic:
    def test_dynamic_at_least_as_utilized_with_zero_margin(self):
        rng = random.Random(5)
        granularity = 0.05
        for _ in range(5):
            lo = rng.uniform(0.1, 0.5)
            hi = rng.uniform(lo, 0.9)
            profile = LoadProfile(
                kind=ProfileKind.DIURNAL_SINUSOID, minimum=lo, maximum=hi,
                period_s=rng.uniform(0.5, 2.0),
            )
            peak_demand = 0.4 * hi
            slice_units = math.ceil(peak_demand / granularity - 1e-9)
            ran_slice = slice_units * granularity
            static = Policy(
                kind=PolicyKind.STATIC_SPLIT,
                ran_fraction=round(ran_slice, 2),
                ai_fraction=round(1.0 - ran_slice, 2),
                split_gpus=("gpu1",),
            )
            dynamic = Policy(
                kind=PolicyKind.DYNAMIC_BACKFILL,
                epoch_s=0.1,
                safety_margin=0.0,
                forecast=ForecastKind.MAX_OVER_WINDOW,
                window_s=0.2,
            )
            r_static = run(
                scenario(profile=profile, policy=static, workloads=(SATURATING,), gpus=("gpu1",))
            )
            r_dynamic = run(
                scenario(profile=profile, policy=dynamic, workloads=(SATURATING,), gpus=("gpu1",))
            )
            assert (
                r_dynamic.summary.per_gpu["gpu1"].avg_total
                >= r_static.summary.per_gpu["gpu1"].avg_total - 1e-6
            )


class TestMultiServer:
    def test_demand_routed_per_server(self):
        servers = (
            Server(id="srvA", gpus=(GpuDevice("a1"),)),
            Server(id="srvB", gpus=(GpuDevice("b1"),)),
        )
        sc = Scenario(
            name="two-servers",
            servers=servers,
            cells=(
                CellSpec(
                    "cA", POC_CELL, LoadProfile(kind=ProfileKind.CONSTANT, level=1.0), "srvA"
                ),
                CellSpec(
                    "cB", POC_CELL, LoadProfile(kind=ProfileKind.CONSTANT, level=0.5), "srvB"
                ),
            ),
            calibration=Calibration(),
            ai_workloads=(),
            policy=Policy(
                kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6,
                split_gpus=("a1", "b1"),
            ),
            horizon_s=0.5,
            seed=0,
            sample_interval_s=0.01,
        )
        report = run(sc)
        assert report.summary.per_gpu["a1"].avg_ran == pytest.approx(0.40)
        assert report.summary.per_gpu["b1"].avg_ran == pytest.approx(0.20)
        assert report.deadline_misses == []

    def test_overloaded_server_misses_while_other_is_clean(self):
        servers = (
            Server(id="srvA", gpus=(GpuDevice("a1"),)),
            Server(id="srvB", gpus=(GpuDevice("b1"),)),
        )
        sc = Scenario(
            name="one-overloaded",
            servers=servers,
            cells=(
                CellSpec(
                    "cA", POC_CELL, LoadProfile(kind=ProfileKind.CONSTANT, level=1.0), "srvA"
                ),
            ),
            calibration=Calibration(),
            ai_workloads=(),
            policy=Policy(
                kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.2, ai_fraction=0.6,
                split_gpus=("a1",),
            ),
            horizon_s=0.01,
            seed=0,
            sample_interval_s=0.01,
        )
        report = run(sc)
        assert report.deadline_misses
        assert all(m.server_id == "srvA" for m in report.deadline_misses)
        assert all(m.shortfall == pytest.approx(0.2, abs=1e-9) for m in report.deadline_misses)


class TestInteractiveSlo:
    def test_interactive_jobs_meet_their_bound(self):
        wl = AiWorkload(
            id="chat",
            arrival=ArrivalKind.TRACE,
            trace_arrivals=(0.1, 0.2, 0.3),
            job_size=constant(0.2),
            demand_fraction=constant(0.2),  # rate 0.2 >= size/bound = 0.2/1.0
            slo_class=SloClass.INTERACTIVE,
            latency_bound_s=1.0,
        )
        sc = scenario(workloads=(wl,), horizon=3.0)
        engine = SimEngine(sc)
        engine.run()
        jobs = [j for j in engine.state.jobs.values()]
        assert all(j.state is JobState.DONE for j in jobs)
        for j in jobs:
            assert j.completion_time - j.arrival_time <= j.latency_bound_s + 1e-5

    def test_underpowered_interactive_never_starts(self):
        wl = AiWorkload(
            id="slow",
            arrival=ArrivalKind.TRACE,
            trace_arrivals=(0.0,),
            job_size=constant(1.0),
            demand_fraction=constant(0.1),  # 0.1 < required rate 1.0/2.0
            slo_class=SloClass.INTERACTIVE,
            latency_bound_s=2.0,
        )
        sc = scenario(workloads=(wl,), horizon=1.0)
        engine = SimEngine(sc)
        report = engine.run()
        assert engine.state.jobs["slow-0"].state is JobState.QUEUED
        assert report.job_stats.queued_at_end == 1


class TestMixSeed:
    def test_stable_values(self):
        assert mix_seed(42, 0) == mix_seed(42, 0)
        assert mix_seed(42, 0) != mix_seed(42, 1)
        assert mix_seed(41, 0) != mix_seed(42, 0)

    def test_range(self):
        for s in range(20):
            assert 0 <= mix_seed(s, s) < 2**64


class TestEventClock:
    def test_event_before_clock_raises(self):
        engine = SimEngine(scenario(horizon=0.01))
        engine.state.clock_us = 1_000
        engine.state.push(1_000, EventKind.JOB_ARRIVAL, ("now",))
        with pytest.raises(EventInPast):
            engine.state.push(999, EventKind.JOB_ARRIVAL, ("past",))
        assert issubclass(EventInPast, SimulatorError)

    def test_check_survives_optimized_mode(self):
        # python -O strips assert statements; this check must not be one
        code = (
            "import sys; sys.path.insert(0, 'src'); sys.path.insert(0, 'tests')\n"
            "from test_engine import scenario\n"
            "from ranshare.engine import EventKind, SimEngine\n"
            "from ranshare.errors import EventInPast\n"
            "engine = SimEngine(scenario(horizon=0.01))\n"
            "engine.state.clock_us = 1_000\n"
            "try:\n"
            "    engine.state.push(999, EventKind.JOB_ARRIVAL, ('past',))\n"
            "except EventInPast:\n"
            "    print('raised')\n"
        )
        root = pathlib.Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], cwd=root, capture_output=True, text=True,
            timeout=60,
        )
        assert out.stdout.strip() == "raised", out.stderr


class TestOverloadedQueue:
    def test_queue_indexes_agree_after_overload(self):
        workloads = (
            SATURATING,
            AiWorkload(
                id="burst",
                arrival=ArrivalKind.POISSON,
                rate_per_s=400.0,
                job_size=constant(0.5),
                demand_fraction=uniform(0.1, 0.5),
            ),
        )
        engine = SimEngine(scenario(policy=DYNAMIC, workloads=workloads, horizon=0.5))
        report = engine.run()
        state = engine.state
        js = report.job_stats
        assert js.queued_at_end > 50
        queued = [state.jobs[jid] for _, jid in state.queue]
        assert js.queued_at_end == len(queued) == len(state.pending)
        assert state.queued == {j.id for j in queued}
        assert [e[3] for e in state.pending.entries] == [
            e[3] for e in orch.PlacementOrder(queued).entries
        ]


def test_run_and_report_do_not_import_numpy_ma():
    """P95 goes without ``np.percentile``, whose first call imports ``numpy.ma``."""
    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from ranshare.engine import run\n"
        "from ranshare.scenario import load_scenario, write_report\n"
        "report = run(load_scenario('scenarios/uplift.scenario'))\n"
        "assert report.job_stats.p95_wait_s == 0.0 and report.summary.per_gpu\n"
        "write_report(report, 'records')\n"
        "write_report(report, 'summary')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert out.stdout.strip() == "False", out.stderr


def test_run_leaves_numpy_temporaries_on_the_heap():
    """After ``SimEngine.run`` glibc serves MiB-sized blocks from the heap.

    glibc maps fresh pages for a block at or above its mmap threshold and
    trims the heap top beyond twice it. The threshold starts at 128 KiB and
    rises only to the largest mapped block freed so far, so without the
    raise in ``run`` whether each chunk of a numpy pass re-faulted its
    temporaries hung on what the process had allocated before (a 600 s
    ``poc`` run took ~23,000 or ~51,000 minor faults).
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import ctypes, sys; sys.path.insert(0, 'src'); sys.path.insert(0, 'tests')\n"
        "from test_engine import scenario\n"
        "from ranshare.engine import SimEngine\n"
        "libc = ctypes.CDLL(None)\n"
        "if not hasattr(libc, 'mallinfo2'):\n"
        "    sys.exit(print('no glibc'))\n"
        "class Info(ctypes.Structure):\n"
        "    _fields_ = [(f, ctypes.c_size_t) for f in ('arena', 'ordblks', 'smblks',\n"
        "        'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
        "libc.mallinfo2.restype = Info\n"
        "libc.malloc.restype = ctypes.c_void_p\n"
        "SimEngine(scenario(horizon=0.01)).run()\n"
        "mapped = libc.mallinfo2().hblks\n"
        "block = libc.malloc(2 << 20)\n"
        "print(libc.mallinfo2().hblks - mapped)\n"
        "libc.free(ctypes.c_void_p(block))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60,
    )
    if out.stdout.strip() == "no glibc":
        pytest.skip("needs glibc's mallinfo2")
    assert out.stdout.strip() == "0", out.stderr
