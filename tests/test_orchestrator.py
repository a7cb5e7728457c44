import itertools
import math
import random

import pytest

from ranshare import orchestrator
from ranshare.compute import GpuDevice, Server, TenantClass
from ranshare.errors import EventInPast, InvalidEpoch
from ranshare.orchestrator import (
    ActionKind,
    EventKind,
    EventRecord,
    ForecastKind,
    Policy,
    PolicyKind,
    ScaleAction,
    _apply_throttle,
    apply_actions,
    backfill_queue,
    build_cluster_state,
    finish_job,
    initial_partitions,
    plan_placement,
    policy_epoch,
    preempt_job,
    settle_slot,
    start_job,
)
from ranshare.scenario import event_detail
from ranshare.workload import AiJob, JobState, SloClass

RAN, AI, FREE = TenantClass.RAN, TenantClass.AI, TenantClass.FREE

STATIC = Policy(kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6)
DYNAMIC = Policy(
    kind=PolicyKind.DYNAMIC_BACKFILL,
    epoch_s=0.1,
    safety_margin=0.05,
    forecast=ForecastKind.MAX_OVER_WINDOW,
    window_s=0.2,
)


def poc_state(policy=STATIC):
    """One server, GPU1 split 0.4/0.6 (static) or whole (dynamic), GPU2 whole."""
    server = Server(id="srv1", gpus=(GpuDevice("gpu1"), GpuDevice("gpu2")))
    partitions = initial_partitions(policy, [server], {"srv1"})
    return build_cluster_state([server], policy, partitions)


def job(jid, demand, arrival=0.0, size=100.0, slo=SloClass.BATCH, bound=0.0):
    return AiJob(
        id=jid,
        arrival_time=arrival,
        size_compute_seconds=size,
        demand_fraction=demand,
        slo_class=slo,
        latency_bound_s=bound,
    )


def enqueue(state, *jobs):
    for j in jobs:
        state.jobs[j.id] = j
        state.enqueue(j)


class TestInitialPartitions:
    def test_static_splits_cell_hosting_servers(self):
        server = Server(id="srv1", gpus=(GpuDevice("gpu1"), GpuDevice("gpu2")))
        parts = initial_partitions(STATIC, [server], {"srv1"})
        assert set(parts) == {"gpu1"}
        assert parts["gpu1"] == (0.4, 0.6)

    def test_dynamic_leaves_gpus_whole(self):
        server = Server(id="srv1", gpus=(GpuDevice("gpu1"),))
        assert initial_partitions(DYNAMIC, [server], {"srv1"}) == {}

    def test_explicit_gpu_list_wins(self):
        policy = Policy(
            kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6,
            split_gpus=("gpu2",),
        )
        server = Server(id="srv1", gpus=(GpuDevice("gpu1"), GpuDevice("gpu2")))
        assert set(initial_partitions(policy, [server], {"srv1"})) == {"gpu2"}


class TestPlanPlacement:
    def test_no_capacity_everything_stays_queued(self):
        state = poc_state()
        gpu1 = state.gpu_by_id("gpu1")
        filler = job("fill", 0.6)
        enqueue(state, filler)
        start_job(state, filler, gpu1, 0.6)
        j = job("j1", 0.3)
        enqueue(state, j)
        decision = plan_placement([j], state)
        assert decision.assignments == {}
        assert j.state is JobState.QUEUED

    def test_job_fits_poc_ai_slice(self):
        state = poc_state()
        j = job("j1", 0.55)
        enqueue(state, j)
        decision = plan_placement([j], state)
        assert decision.assignments["j1"] == ("gpu1", 0.55)
        assert state.gpu_by_id("gpu1").ai_slice.id == "gpu1/s1"  # the job's slice

    def test_static_policy_never_uses_free_gpus(self):
        state = poc_state()
        j = job("j1", 0.9)  # does not fit the 0.6 AI slice, would fit gpu2
        enqueue(state, j)
        decision = plan_placement([j], state)
        assert decision.assignments == {}

    def test_dynamic_policy_uses_free_capacity_within_ceiling(self):
        state = poc_state(DYNAMIC)
        state.fleet.ai_ceiling[:] = 0.95
        j = job("j1", 0.9)
        enqueue(state, j)
        decision = plan_placement([j], state)
        assert decision.assignments["j1"][1] == 0.9

    def test_interactive_needs_rate(self):
        state = poc_state()
        fast = job("fast", 0.5, size=1.0, slo=SloClass.INTERACTIVE, bound=2.5)
        slow = job("slow", 0.2, size=1.0, slo=SloClass.INTERACTIVE, bound=2.5)
        enqueue(state, fast, slow)
        decision = plan_placement([fast, slow], state)
        assert "fast" in decision.assignments  # 0.5 >= 1/2.5
        assert "slow" not in decision.assignments  # 0.2 < 0.4 required rate

    def test_interactive_before_batch(self):
        state = poc_state()
        inter = job("i1", 0.6, arrival=5.0, size=1.0, slo=SloClass.INTERACTIVE, bound=2.0)
        batch = job("b1", 0.6, arrival=0.0)
        enqueue(state, inter, batch)
        decision = plan_placement([batch, inter], state)
        assert "i1" in decision.assignments
        assert "b1" not in decision.assignments


def brute_force_feasible(jobs, capacities):
    """Exhaustive assignment oracle: can every job fit some bin whole?"""
    for combo in itertools.product(range(len(capacities)), repeat=len(jobs)):
        used = [0.0] * len(capacities)
        ok = True
        for j, b in zip(jobs, combo):
            used[b] += j
            if used[b] > capacities[b] + 1e-9:
                ok = False
                break
        if ok:
            return True
    return False


class TestPlacementOracle:
    def test_heuristic_vs_exhaustive(self):
        rng = random.Random(2024)
        feasible_found = 0
        heuristic_found = 0
        for trial in range(60):
            n_servers = rng.randint(1, 2)
            servers = []
            for si in range(n_servers):
                n_gpus = rng.randint(1, 2)
                servers.append(
                    Server(
                        id=f"srv{si}",
                        gpus=tuple(GpuDevice(f"g{si}-{gi}") for gi in range(n_gpus)),
                    )
                )
            policy = Policy(
                kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.0, ai_fraction=0.0
            )
            partitions = {}
            capacities = []
            for s in servers:
                for g in s.gpus:
                    ai = rng.randrange(4, 21) * 0.05
                    partitions[g.id] = (0.0, ai)
                    capacities.append(ai)
            state = build_cluster_state(servers, policy, partitions)
            jobs = [
                job(f"j{i}", rng.randrange(1, 13) * 0.05, arrival=float(i))
                for i in range(rng.randint(1, 6))
            ]
            enqueue(state, *jobs)
            decision = plan_placement(jobs, state)

            # never infeasible: applied grants stay within each GPU's AI slice
            used = {}
            for jid, (gpu_id, frac) in decision.assignments.items():
                used[gpu_id] = used.get(gpu_id, 0.0) + frac
            for gpu in state.gpus:
                assert gpu.ai_slice.tenant_class is AI
                assert used.get(gpu.device.id, 0.0) <= gpu.ai_slice.compute_fraction + 1e-9

            if brute_force_feasible([j.demand_fraction for j in jobs], capacities):
                feasible_found += 1
                if len(decision.assignments) == len(jobs):
                    heuristic_found += 1
        assert feasible_found > 0
        assert heuristic_found / feasible_found >= 0.95


class TestPolicyEpoch:
    def test_static_is_noop(self):
        state = poc_state()
        assert policy_epoch(state, 0.3) == []

    def test_dynamic_grant_ceiling(self):
        state = poc_state(DYNAMIC)
        enqueue(state, job("j1", 1.0))
        fleet = state.fleet
        fleet.epoch_max[:] = [0.40 if gpu.device.id == "gpu1" else 0.0 for gpu in state.gpus]
        fleet.demand_last[:] = fleet.epoch_max
        actions = policy_epoch(state, 0.1)
        grant = next(a for a in actions if a.gpu_id == "gpu1")
        assert grant.kind is ActionKind.GRANT_AI
        assert grant.fraction == pytest.approx(0.55, abs=1e-12)

    def test_dynamic_reclaim_on_forecast_rise(self):
        state = poc_state(DYNAMIC)
        gpu1 = state.gpu_by_id("gpu1")
        j = job("j1", 1.0)
        state.jobs["j1"] = j
        state.enqueue(j)
        start_job(state, j, gpu1, 0.55)
        state.fleet.epoch_max[gpu1.index] = state.fleet.demand_last[gpu1.index] = 0.90
        actions = policy_epoch(state, 0.2)
        reclaim = next(a for a in actions if a.gpu_id == "gpu1")
        assert reclaim.kind is ActionKind.RECLAIM_AI
        assert reclaim.fraction == pytest.approx(0.50, abs=1e-9)

    def test_dynamic_stable_noop(self):
        state = poc_state(DYNAMIC)
        assert policy_epoch(state, 0.1) == []

    def test_misaligned_epoch(self):
        state = poc_state(DYNAMIC)
        with pytest.raises(InvalidEpoch):
            policy_epoch(state, 0.15)

    def test_time_split_boundary_emits_repartition(self):
        policy = Policy(
            kind=PolicyKind.TIME_SPLIT,
            schedule=((0.0, 10.0, 0.4), (10.0, 20.0, 0.7)),
            split_gpus=("gpu1",),
        )
        server = Server(id="srv1", gpus=(GpuDevice("gpu1"),))
        state = build_cluster_state(
            [server], policy, initial_partitions(policy, [server], {"srv1"})
        )
        actions = policy_epoch(state, 10.0)
        assert actions[0].kind is ActionKind.REPARTITION
        assert actions[0].fraction == 0.7
        with pytest.raises(InvalidEpoch):
            policy_epoch(state, 5.0)

    def test_work_conservation_grant_emitted(self):
        state = poc_state(DYNAMIC)
        enqueue(state, job("j1", 0.3))
        state.fleet.epoch_max[:] = state.fleet.demand_last[:] = 0.2
        actions = policy_epoch(state, 0.1)
        assert any(a.kind is ActionKind.GRANT_AI for a in actions)

    def test_epoch_reads_constant_share_of_long_queue(self):
        """Whether queued work wants a grant needs one queued job, not the whole queue."""

        class CountingJobs(dict):
            reads = 0

            def __getitem__(self, key):
                CountingJobs.reads += 1
                return super().__getitem__(key)

        state = poc_state(DYNAMIC)
        enqueue(state, *(job(f"j{i:03d}", 0.3, arrival=i * 1e-3) for i in range(500)))
        state.jobs = CountingJobs(state.jobs)
        state.fleet.epoch_max[:] = state.fleet.demand_last[:] = 0.2
        actions = policy_epoch(state, 0.1)
        assert [a.kind for a in actions] == [ActionKind.GRANT_AI] * 2
        assert CountingJobs.reads <= 2

    def test_epoch_sums_no_undergrant_when_queued_work_wants_a_grant(self, monkeypatch):
        """Queued work decides the test ``queued + undergrant > TOL`` alone."""
        calls = []
        undergrant = orchestrator._undergrant

        def counting(gpu):
            calls.append(gpu.device.id)
            return undergrant(gpu)

        monkeypatch.setattr(orchestrator, "_undergrant", counting)
        servers = [
            Server(id=f"srv{s}", gpus=tuple(GpuDevice(f"srv{s}-gpu{g}") for g in range(4)))
            for s in range(16)
        ]
        state = build_cluster_state(servers, DYNAMIC, {})
        enqueue(state, job("j1", 0.3))
        state.fleet.epoch_max[:] = state.fleet.demand_last[:] = 0.2
        actions = policy_epoch(state, 0.1)
        assert [a.kind for a in actions] == [ActionKind.GRANT_AI] * 64
        assert calls == []


class TestApplyActions:
    def _running_pair(self):
        state = poc_state(DYNAMIC)
        gpu1 = state.gpu_by_id("gpu1")
        older = job("a-old", 1.0, arrival=0.0)
        newer = job("b-new", 1.0, arrival=1.0)
        for j, grant in ((older, 0.30), (newer, 0.25)):
            state.jobs[j.id] = j
            state.enqueue(j)
            start_job(state, j, gpu1, grant)
        return state, gpu1, older, newer

    def test_reclaim_newest_first(self):
        state, gpu1, older, newer = self._running_pair()
        apply_actions(
            state,
            [ScaleAction(ActionKind.RECLAIM_AI, "gpu1", fraction=0.50)],
        )
        assert newer.state is JobState.PREEMPTED
        assert newer.granted_fraction == 0.0
        assert older.state is JobState.RUNNING
        assert older.granted_fraction == pytest.approx(0.05, abs=1e-9)

    def test_preemption_preserves_remaining_work(self):
        state, gpu1, older, newer = self._running_pair()
        before = newer.remaining_compute_seconds
        preempt_job(state, gpu1, newer)
        assert newer.remaining_compute_seconds == before
        assert newer.preempt_count == 1
        assert (newer.arrival_time, newer.id) in state.batch_queue

    def test_grant_capped_at_queued_demand(self):
        state = poc_state(DYNAMIC)
        gpu1, fleet = state.gpu_by_id("gpu1"), state.fleet
        state.fleet.ai_ceiling[gpu1.index] = 0.9
        enqueue(state, job("j1", 0.25))
        apply_actions(
            state, [ScaleAction(ActionKind.GRANT_AI, "gpu1", fraction=0.9)]
        )
        j = state.jobs["j1"]
        assert j.state is JobState.RUNNING
        assert j.granted_fraction == 0.25
        assert fleet.ai_granted.item(0) == pytest.approx(0.25)


def settle_misses(state, demands):
    """Settle one slot at the state's clock; returns its (t, server, shortfall) misses."""
    before = len(state.misses)
    settle_slot(state, state.clock, demands)
    return state.misses[before:]


class TestRanPriority:
    def test_demand_within_slice_no_miss(self):
        state = poc_state()
        assert settle_misses(state, [0.40]) == []

    def test_demand_beyond_hard_slice_misses(self):
        state = poc_state()
        misses = settle_misses(state, [0.45])
        assert len(misses) == 1
        assert misses[0][2] == pytest.approx(0.05, abs=1e-9)

    def test_dynamic_whole_gpu_available(self):
        state = poc_state(DYNAMIC)
        assert settle_misses(state, [0.45]) == []
        assert state.fleet.ran_level.item(0) == pytest.approx(0.45)

    def test_ai_throttled_when_ran_spikes(self):
        state = poc_state(DYNAMIC)
        gpu1, fleet = state.gpu_by_id("gpu1"), state.fleet
        j = job("j1", 1.0)
        state.jobs["j1"] = j
        state.enqueue(j)
        start_job(state, j, gpu1, 0.85)
        settle_slot(state, 0.0, [0.4])
        assert fleet.ran_level.item(0) == pytest.approx(0.4)
        assert j.service_rate == pytest.approx(0.60, abs=1e-9)
        assert fleet.ran_level.item(0) + fleet.ai_level.item(0) <= 1.0 + 1e-9
        # relief: demand drops, AI rate restored
        settle_slot(state, 0.0005, [0.1])
        assert j.service_rate == pytest.approx(0.85)

    def test_unthrottle_restores_the_exact_grant(self):
        """A cap that stops biting gives each job its grant, and AI exactly the GPU's grant.

        The grants sum to 0.8 in the order the jobs started, but oldest first
        (0.3, 0.4) they leave 0.09999999999999998 of 0.8 for the newest job's
        0.1. Neither that rounding nor a trim by a few ulps may reach the AI
        level, a job's rate or a job's version.
        """
        state = poc_state(DYNAMIC)
        gpu1, fleet = state.gpu_by_id("gpu1"), state.fleet
        enqueue(state, job("new", 0.1, arrival=2.0), job("mid", 0.4, arrival=1.0), job("old", 0.3))
        for jid in ("new", "mid", "old"):
            start_job(state, state.jobs[jid], gpu1, state.jobs[jid].demand_fraction)
        granted = fleet.ai_granted.item(0)
        assert granted == 0.8 and granted - 0.3 - 0.4 < 0.1
        settle_slot(state, 0.0, [0.5])  # RAN leaves AI 0.5: "mid" and "new" are cut
        assert fleet.throttled.item(0)
        versions = {jid: j.version for jid, j in state.jobs.items()}
        state.clock_us = 500
        settle_slot(state, 0.0005, [1.0 - granted])  # RAN leaves AI exactly its grant
        assert fleet.ai_level.item(0) == granted and not fleet.throttled.item(0)
        assert all(j.service_rate == j.granted_fraction for j in state.jobs.values())
        moved = {jid: j.version - versions[jid] for jid, j in state.jobs.items()}
        assert moved == {"old": 0, "mid": 1, "new": 1}
        # the cap at the grant, once more: no job changes rate
        versions = {jid: j.version for jid, j in state.jobs.items()}
        _apply_throttle(state, gpu1, granted)
        assert fleet.ai_level.item(0) == granted and not fleet.throttled.item(0)
        assert {jid: j.version for jid, j in state.jobs.items()} == versions

    def test_ran_fills_gpus_in_order(self):
        policy = Policy(
            kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.2,
            split_gpus=("gpu1", "gpu2"),
        )
        server = Server(id="srv1", gpus=(GpuDevice("gpu1"), GpuDevice("gpu2")))
        state = build_cluster_state(
            [server], policy, initial_partitions(policy, [server], {"srv1"})
        )
        misses = settle_misses(state, [0.6])
        assert misses == []
        assert state.fleet.ran_level.item(0) == pytest.approx(0.4)
        assert state.fleet.ran_level.item(1) == pytest.approx(0.2)


class TestBackfill:
    def test_partial_grant_into_hard_ai_slice(self):
        state = poc_state()
        gpu1 = state.gpu_by_id("gpu1")
        enqueue(state, job("sat", 1.0, size=math.inf))
        left = backfill_queue(state, gpu1, math.inf)
        j = state.jobs["sat"]
        assert j.state is JobState.RUNNING
        assert j.granted_fraction == pytest.approx(0.6)
        assert math.isinf(left)

    def test_interactive_never_partially_granted(self):
        state = poc_state()
        gpu1 = state.gpu_by_id("gpu1")
        enqueue(state, job("i1", 1.0, size=1.0, slo=SloClass.INTERACTIVE, bound=1.0))
        backfill_queue(state, gpu1, math.inf)
        assert state.jobs["i1"].state is JobState.QUEUED


class TestEventLog:
    def test_bare_state_logs_events_with_engine_detail(self):
        """A state built without an engine records its events, as the engine writes them."""
        state = poc_state()
        gpu1 = state.gpu_by_id("gpu1")
        ai_slice = gpu1.instances[1].id
        enqueue(state, job("j1", 0.3), job("j2", 0.25, arrival=1.0))
        start_job(state, state.jobs["j1"], gpu1, 0.3)
        start_job(state, state.jobs["j2"], gpu1, 0.25)
        state.clock_us = 500
        # newest first: j2 is preempted whole, then j1 trimmed by the rest
        apply_actions(state, [ScaleAction(ActionKind.RECLAIM_AI, "gpu1", fraction=0.3)])
        assert [(e.time_s, e.kind, e.subject, event_detail(e)) for e in state.events] == [
            (0.0, "place", "gpu1", f"job=j1 instance={ai_slice} fraction=0.300000"),
            (0.0, "place", "gpu1", f"job=j2 instance={ai_slice} fraction=0.250000"),
            (0.0005, "preempt", "gpu1", "job=j2 fraction=0.250000"),
            (0.0005, "trim", "gpu1", "job=j1 fraction=0.050000"),
        ]
        assert state.events[0] == EventRecord(
            0.0, "place", "gpu1", {"job": "j1", "instance": ai_slice, "fraction": 0.3}
        )
        assert state.jobs["j2"].state is JobState.PREEMPTED
        assert state.jobs["j1"].granted_fraction == pytest.approx(0.25)

    def test_detail_formats(self):
        assert event_detail(EventRecord(0.0, "reject", "j1", {})) == "queue bound exceeded"
        arrival = EventRecord(0.0, "arrival", "j1", {"job": "j1", "size": 2, "demand": math.inf})
        assert event_detail(arrival) == "job=j1 size=2.000000 demand=inf"
        cut = EventRecord(0.0, "repartition", "gpu1", {"layout": [(0.4, RAN), (0.6, AI)]})
        assert event_detail(cut) == "layout=0.400000:RAN,0.600000:AI"


@pytest.mark.parametrize("policy", [STATIC, DYNAMIC], ids=["static", "dynamic"])
def test_fleet_numbers_have_no_second_access_path(policy):
    """No ``GpuState`` attribute shares a name with a fleet array, and no GPU refers to the fleet.

    A GPU's numbers are then read and written in ``state.fleet`` alone.
    """
    state = poc_state(policy)
    for gpu in state.gpus:
        assert [name for name in orchestrator.Fleet.__slots__ if hasattr(gpu, name)] == []
        assert not hasattr(gpu, "fleet")


def test_grant_changes_accrue_at_the_old_level():
    """Placing, trimming and preempting integrate the GPU's AI level up to now first."""
    state = poc_state()
    gpu1, fleet = state.gpu_by_id("gpu1"), state.fleet
    enqueue(state, job("j1", 0.5), job("j2", 0.1, arrival=1.0))
    state.clock_us = 1_000
    start_job(state, state.jobs["j1"], gpu1, 0.5)
    assert fleet.ai_integral.item(0) == 0.0
    state.clock_us = 3_000
    start_job(state, state.jobs["j2"], gpu1, 0.1)
    assert fleet.ai_integral.item(0) == 0.5 * 2_000
    state.clock_us = 4_000
    apply_actions(state, [ScaleAction(ActionKind.RECLAIM_AI, "gpu1", fraction=0.2)])
    assert fleet.ai_integral.item(0) == 0.5 * 2_000 + 0.6 * 1_000
    assert fleet.ai_granted.item(0) == fleet.ai_level.item(0) == pytest.approx(0.4)
    assert fleet.ai_cap.item(0) - fleet.ai_granted.item(0) == pytest.approx(0.2)
    state.clock_us = 6_000
    preempt_job(state, gpu1, state.jobs["j1"])
    assert fleet.ai_integral.item(0) == pytest.approx(0.5 * 2_000 + 0.6 * 1_000 + 0.4 * 2_000)
    # a bare preemption on a split GPU moves its AI level with the grant
    assert fleet.ai_granted.item(0) == fleet.ai_level.item(0) == pytest.approx(0.0)
    assert fleet.ai_cap.item(0) - fleet.ai_granted.item(0) == pytest.approx(0.6)


class TestJobClock:
    """A bare state queues its own events and accrues job work on every rate change."""

    def test_start_and_trim_queue_completions(self):
        state = poc_state(DYNAMIC)
        gpu1, fleet = state.gpu_by_id("gpu1"), state.fleet
        j = job("j1", 0.5, size=3.0)
        state.jobs["j1"] = j
        state.enqueue(j)
        state.clock_us = 1_000_000
        start_job(state, j, gpu1, 0.5)
        done_us = 1_000_000 + math.ceil(3.0 / 0.5 * 1e6)
        completion = EventKind.JOB_COMPLETION
        assert state.heap == [(done_us, completion.value, 1, completion, ("j1", 1))]

        # a trim accrues the work done at the old rate, then queues a new completion
        state.clock_us = 3_000_000
        apply_actions(state, [ScaleAction(ActionKind.RECLAIM_AI, "gpu1", fraction=0.2)])
        assert j.remaining_compute_seconds == 3.0 - 0.5 * (2_000_000 / 1e6)
        assert j.accrued_until_us == 3_000_000
        assert j.version == 2 and j.service_rate == j.granted_fraction == pytest.approx(0.3)
        redone_us = 3_000_000 + math.ceil(j.remaining_compute_seconds / j.service_rate * 1e6)
        assert sorted(state.heap) == [
            (done_us, completion.value, 1, completion, ("j1", 1)),  # stale: version 1
            (redone_us, completion.value, 2, completion, ("j1", 2)),
        ]

        state.clock_us = redone_us
        finish_job(state, j)
        assert j.state is JobState.DONE and j.remaining_compute_seconds == 0.0
        assert j.completion_time == redone_us / 1e6 and j.version == 3
        assert gpu1.jobs == [] and fleet.ai_granted.item(0) == pytest.approx(0.0)
        done = EventRecord(redone_us / 1e6, "completion", "j1", {"gpu": "gpu1"})
        assert state.events[-1] == done
        assert len(state.heap) == 2  # finishing queues nothing

    def test_repartition_queues_its_settling_event(self):
        policy = Policy(
            kind=PolicyKind.TIME_SPLIT,
            schedule=((0.0, 10.0, 0.4), (10.0, 20.0, 0.7)),
            split_gpus=("gpu1",),
            settle_slots=3,
        )
        server = Server(id="srv1", gpus=(GpuDevice("gpu1"),))
        state = build_cluster_state(
            [server], policy, initial_partitions(policy, [server], {"srv1"})
        )
        state.clock_us = 10_000_000
        apply_actions(state, policy_epoch(state, 10.0))
        until = 10_000_000 + 3 * state.slot_us
        settled = EventKind.REPARTITION_SETTLED
        assert state.heap == [(until, settled.value, 1, settled, ("gpu1", 1))]  # generation 1

    def test_push_before_the_clock_raises(self):
        state = poc_state()
        state.clock_us = 1_000
        state.push(1_000, EventKind.JOB_ARRIVAL, ("now",))
        with pytest.raises(EventInPast):
            state.push(999, EventKind.JOB_ARRIVAL, ("past",))
        assert [entry[4] for entry in state.heap] == [("now",)]
