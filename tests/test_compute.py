"""Slices from ``compute`` and the AI grants that fill them.

``compute`` cuts GPUs into slices; grants inside slices are made by the
orchestrator, on the engine path: ``settle_slot`` grants RAN demand each
slot, and ``start_job``/``backfill_queue`` grant AI inside each GPU's one
AI slice (``GpuState.ai_slice``), recorded as the GPU's element of the
fleet array ``ai_granted``. AI runs at that grant (``ai_level``) unless the
dynamic policy caps it.
"""

import math
import random

import pytest

from ranshare import orchestrator as orch
from ranshare.compute import GpuDevice, Server, TenantClass, partition_gpu, repartition
from ranshare.engine import SimEngine
from ranshare.errors import GranularityViolation, PartitionOverflow
from ranshare.orchestrator import (
    TOL,
    ActionKind,
    Policy,
    PolicyKind,
    ScaleAction,
    backfill_queue,
    build_cluster_state,
    initial_partitions,
    plan_placement,
    settle_slot,
    start_job,
)
from ranshare.workload import AiJob, JobState

from test_segments import random_scenario, settled_due

RAN, AI, FREE = TenantClass.RAN, TenantClass.AI, TenantClass.FREE
DYNAMIC = Policy(kind=PolicyKind.DYNAMIC_BACKFILL)


def gpu(gran=0.05, gid="gpu1"):
    return GpuDevice(id=gid, partition_granularity=gran)


def split_state(ran=0.4, ai=0.6, gpus=("gpu1",)):
    """One server ``srv1``; its first GPU split ``ran``/``ai``, the others whole."""
    policy = Policy(kind=PolicyKind.STATIC_SPLIT, ran_fraction=ran, ai_fraction=ai)
    server = Server(id="srv1", gpus=tuple(GpuDevice(g) for g in gpus))
    return build_cluster_state(
        [server], policy, initial_partitions(policy, [server], {"srv1"}), cell_hosts={"srv1"}
    )


def whole_state():
    """One server ``srv1`` with one unpartitioned GPU under the dynamic policy."""
    server = Server(id="srv1", gpus=(GpuDevice("gpu1"),))
    return build_cluster_state([server], DYNAMIC, {})


def settle(state, *demands):
    """Settle one slot at the state's clock; returns its misses."""
    before = len(state.misses)
    settle_slot(state, state.clock, list(demands))
    return state.misses[before:]


def slice_of(gpu_state, cls):
    return next(i for i in gpu_state.instances if i.tenant_class is cls)


def queue_job(state, jid, demand):
    job = AiJob(id=jid, arrival_time=0.0, size_compute_seconds=math.inf, demand_fraction=demand)
    state.jobs[jid] = job
    state.enqueue(job)
    return job


def run_job(state, gpu_state, grant, jid="j1"):
    """Queue a backlog job and start it with ``grant`` inside the GPU's AI slice."""
    job = queue_job(state, jid, 1.0)
    start_job(state, job, gpu_state, grant)
    return job


def assert_ledger(state) -> float:
    """Every GPU's AI grant is its jobs' grants and fits its AI slice; returns the total.

    AI runs at no more than its grant. Under a split it runs at exactly its
    grant and is never throttled. Under the dynamic policy a GPU that is not
    throttled runs at its grant within TOL: a cap that does not bite gives
    AI exactly its grant, but one that bites by TOL or less leaves the GPU
    unthrottled just below it.
    """
    total, fleet = 0.0, state.fleet
    for gpu_state in state.gpus:
        g = gpu_state.index
        ai_slice = gpu_state.ai_slice
        assert fleet.ai_cap.item(g) == (ai_slice.compute_fraction if ai_slice else 0.0)
        held = math.fsum(j.granted_fraction for j in gpu_state.jobs)
        granted = fleet.ai_granted.item(g)
        assert granted == pytest.approx(held, abs=1e-9)
        assert granted <= fleet.ai_cap.item(g) + 1e-9
        assert fleet.ai_level.item(g) <= granted + TOL
        if not state.policy.is_dynamic:
            assert not fleet.throttled.item(g) and fleet.ai_level.item(g) == granted
        elif not fleet.throttled.item(g):
            assert fleet.ai_level.item(g) == pytest.approx(granted, abs=TOL)
        total += granted
    return total


class TestPartition:
    def test_poc_split_no_free_remainder(self):
        instances = partition_gpu(gpu(0.1), 0.4, 0.6)
        assert [(i.compute_fraction, i.tenant_class) for i in instances] == [
            (0.4, RAN),
            (0.6, AI),
        ]

    def test_identity_partition(self):
        instances = partition_gpu(gpu(), 1.0, 0.0)
        assert [(i.id, i.compute_fraction, i.tenant_class) for i in instances] == [
            ("gpu1/s0", 1.0, RAN)
        ]

    def test_overflow(self):
        with pytest.raises(PartitionOverflow):
            partition_gpu(gpu(), 0.5, 0.6)

    def test_granularity_violation(self):
        with pytest.raises(GranularityViolation):
            partition_gpu(gpu(0.1), 0.45, 0.0)

    def test_leftover_becomes_free(self):
        instances = partition_gpu(gpu(), 0.4, 0.3)
        assert instances[-1].tenant_class is FREE
        assert instances[-1].compute_fraction == pytest.approx(0.3, abs=1e-12)

    def test_granularity_must_divide_one(self):
        with pytest.raises(GranularityViolation):
            GpuDevice(id="g", partition_granularity=0.3)

    def test_partition_arithmetic_exact(self):
        # exactness is guaranteed on the internal unit grid; the decimal
        # view sums to 1.0 under correctly-rounded (fsum) accumulation
        rng = random.Random(11)
        shapes = set()
        for _ in range(200):
            units = rng.choice([4, 5, 10, 20, 7])
            g = gpu(1.0 / units, "g")
            ran = rng.randint(0, units)
            ai = rng.randint(0, units - ran)
            instances = partition_gpu(g, ran / units, ai / units)
            assert sum(i.units for i in instances) == g.total_units
            assert math.fsum(i.compute_fraction for i in instances) == 1.0
            cuts = [cls for cls, u in ((RAN, ran), (AI, ai)) if u]
            want = [(f"g/s{k}", cls) for k, cls in enumerate(cuts)] or [("g/s0", FREE)]
            if cuts and ran + ai < units:
                want.append(("g/free", FREE))
            assert [(i.id, i.tenant_class) for i in instances] == want
            shapes.add((ran > 0, ai > 0, ran + ai < units))
        assert len(shapes) == 7  # each share zero or not, with a leftover or without




class TestAllocate:
    """RAN grants made by ``settle_slot``, AI grants recorded in the ledger."""

    def test_fits_within_slice(self):
        state = split_state()
        gpu1, fleet = state.gpus[0], state.fleet
        assert settle(state, 0.35) == []
        assert fleet.ran_level.item(0) == 0.35
        job = run_job(state, gpu1, 0.5)
        assert gpu1.ai_slice is slice_of(gpu1, AI)
        assert fleet.ai_granted.item(0) == fleet.ai_level.item(0) == 0.5
        assert job.service_rate == 0.5

    def test_clipped_at_slice(self):
        state = split_state()
        gpu1, fleet = state.gpus[0], state.fleet
        misses = settle(state, 0.5)
        assert fleet.ran_level.item(0) == pytest.approx(0.4, abs=1e-12)
        assert [m[2] for m in misses] == [pytest.approx(0.1, abs=1e-12)]
        # a job asking for the whole GPU is granted the AI slice and no more
        job = queue_job(state, "big", 1.0)
        backfill_queue(state, gpu1, math.inf)
        assert job.granted_fraction == pytest.approx(0.6, abs=1e-12)
        assert gpu1.ai_slice is slice_of(gpu1, AI)
        assert fleet.ai_granted.item(0) == fleet.ai_level.item(0) == pytest.approx(0.6, abs=1e-12)

    def test_zero_demand(self):
        state = split_state()
        gpu1, fleet = state.gpus[0], state.fleet
        assert settle(state, 0.0) == []
        assert fleet.ran_level.item(0) == 0.0
        assert fleet.ai_level.item(0) == fleet.ai_granted.item(0) == 0.0

    def test_class_mismatch(self):
        """A slice serves its own class only."""
        state = split_state()
        gpu1, fleet = state.gpus[0], state.fleet
        # RAN demand does not spill into the idle AI slice
        assert settle(state, 0.9) and fleet.ran_level.item(0) == pytest.approx(0.4)
        # AI work does not land in the RAN slice, although RAN leaves 0.2 of it idle
        settle(state, 0.2)
        assert gpu1.ai_slice is slice_of(gpu1, AI)
        run_job(state, gpu1, 0.6)
        late = queue_job(state, "late", 0.1)
        assert plan_placement([late], state).assignments == {}
        backfill_queue(state, gpu1, math.inf)
        assert late.state is JobState.QUEUED
        assert fleet.ai_granted.item(0) == pytest.approx(0.6)

    def test_free_accepts_any_class(self):
        state = whole_state()
        gpu1, fleet = state.gpus[0], state.fleet
        assert gpu1.ai_slice is slice_of(gpu1, FREE)
        job = run_job(state, gpu1, 0.9)
        assert settle(state, 0.2) == []
        assert fleet.ran_level.item(0) == pytest.approx(0.2)
        # the grant stays held; RAN comes first, so AI runs at what is left
        assert fleet.ai_granted.item(0) == pytest.approx(0.9)
        assert fleet.ai_level.item(0) == pytest.approx(0.8)
        assert job.service_rate == pytest.approx(0.8) and fleet.throttled.item(0)

    def test_slot_accumulation(self):
        """Each slot grants its demand afresh; nothing accumulates across slots."""
        state = split_state()
        gpu1, fleet = state.gpus[0], state.fleet
        for k in range(3):
            state.clock_us = k * state.slot_us
            assert settle(state, 0.3) == []
            assert fleet.ran_level.item(0) == 0.3
        state.clock_us += state.slot_us
        assert [m[2] for m in settle(state, 0.5)] == [pytest.approx(0.1, abs=1e-12)]

    def test_grant_plus_shortfall_equals_demand(self):
        """On random fleets, each server's RAN levels plus its shortfall equal its demand."""
        rng = random.Random(5)
        slots = 0
        for _ in range(300):
            servers = [
                Server(
                    id=f"srv{i}",
                    gpus=tuple(GpuDevice(f"srv{i}-g{j}") for j in range(rng.randint(1, 3))),
                )
                for i in range(rng.randint(1, 3))
            ]
            gpu_ids = [g.id for s in servers for g in s.gpus]
            if rng.random() < 0.5:
                policy = DYNAMIC
            else:
                ran = rng.choice((0.1, 0.4, 0.6, 1.0))
                policy = Policy(
                    kind=PolicyKind.STATIC_SPLIT,
                    ran_fraction=ran,
                    ai_fraction=rng.choice((0.0, round(1.0 - ran, 2))),
                    split_gpus=tuple(rng.sample(gpu_ids, rng.randint(0, len(gpu_ids)))),
                    settle_slots=4,  # a repartition at 0 settles past the four slots
                )
            hosts = {s.id for s in servers if rng.random() < 0.7}
            state = build_cluster_state(
                servers, policy, initial_partitions(policy, servers, hosts), cell_hosts=hosts
            )
            fleet = state.fleet
            for gpu_state in state.gpus:
                # only a split's GPU is ever repartitioned, and so settles,
                # with no capacity on either side until its settled event
                settles = rng.random() < 0.15 and not state.policy.is_dynamic
                if gpu_state.ai_slice and rng.random() < 0.5:
                    grant = rng.uniform(0.05, fleet.ai_cap.item(gpu_state.index))
                    run_job(state, gpu_state, grant, jid=f"{gpu_state.device.id}-j")
                if settles:  # recut to its RAN share, which drains its job
                    ran = orch._ran_units(gpu_state) / gpu_state.device.total_units
                    cut = ScaleAction(ActionKind.REPARTITION, gpu_state.device.id, ran)
                    orch.apply_actions(state, [cut])
            for k in range(4):
                state.clock_us = k * state.slot_us
                demands = [rng.choice((0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0)))
                           for _ in servers]
                misses = settle(state, *demands)
                shortfall = {sid: sf for _t, sid, sf in misses}
                for srv, demand in zip(state.servers, demands):
                    granted = math.fsum(fleet.ran_level.item(g.index) for g in srv.gpus)
                    assert granted + shortfall.get(srv.server.id, 0.0) == pytest.approx(
                        demand, abs=1e-9
                    )
                    for g in srv.gpus:
                        # RAN meets its own slices, and under the dynamic policy the FREE one
                        cap = math.fsum(
                            i.compute_fraction for i in g.instances
                            if i.tenant_class is RAN
                            or (state.policy.is_dynamic and i.tenant_class is FREE)
                        )
                        ran, ai = fleet.ran_level.item(g.index), fleet.ai_level.item(g.index)
                        if settled_due(state).get(g.index, -1) >= state.clock_us:
                            cap = 0.0
                        assert ran <= cap + 1e-9
                        assert ran + ai <= 1.0 + 1e-9
                assert all(sf > TOL for _t, _sid, sf in misses)
                slots += 1
            assert_ledger(state)
        assert slots == 1200


class TestRepartition:
    def test_grow_ran_with_empty_ai(self):
        new = repartition(gpu(), 0.7, 0.3)
        assert [i.compute_fraction for i in new] == [0.7, 0.3]

    def test_idempotent(self):
        g = gpu()
        old = partition_gpu(g, 0.4, 0.6)
        assert repartition(g, 0.4, 0.6) == old

    def test_shrink_below_granted_drains_the_gpu(self):
        """A layout whose AI slice is below the running grants drains every job first.

        Grants of 0.05, 0.05 and 0.5 released in order sum to -5.55e-17;
        the GPU's grant after the repartition is +0.0 all the same.
        """
        state = split_state()
        gpu1, fleet = state.gpus[0], state.fleet
        jobs = [run_job(state, gpu1, g, jid=f"j{i}") for i, g in enumerate((0.05, 0.05, 0.5))]
        orch._repartition_gpu(state, ScaleAction(ActionKind.REPARTITION, "gpu1", 0.7))
        layout = [(i.compute_fraction, i.tenant_class) for i in gpu1.instances]
        assert layout == [(0.7, RAN), (0.3, AI)]
        # the GPU settles, with no capacity for AI, until its settled event reopens it
        assert gpu1.jobs == [] and fleet.ai_cap.item(0) == 0.0 and gpu1.ai_slice is None
        gpu1.refresh_caches(fleet, dynamic=False)
        assert fleet.ai_cap.item(0) == 0.3 and gpu1.ai_slice is slice_of(gpu1, AI)
        assert fleet.ai_granted.item(0) == fleet.ai_level.item(0) == 0.0
        assert math.copysign(1.0, fleet.ai_granted.item(0)) == 1.0
        assert all(j.state is JobState.PREEMPTED and j.granted_fraction == 0.0 for j in jobs)
        assert [jid for _t, jid in state.batch_queue] == ["j0", "j1", "j2"]
        assert_ledger(state)

    def test_conservation_under_random_allocations(self):
        """The ledger matches the jobs' grants after every event of random engine runs."""
        granted = 0.0
        for seed in range(120):
            eng = SimEngine(random_scenario(seed))
            dispatch = eng._dispatch

            def checked(kind, payload, t_us, eng=eng, dispatch=dispatch):
                nonlocal granted
                dispatch(kind, payload, t_us)
                granted += assert_ledger(eng.state)

            eng._dispatch = checked
            eng.run()
            assert_ledger(eng.state)
        assert granted > 0.0


class TestIsolation:
    def test_ran_allocations_unaffected_by_ai_saturation(self):
        rng = random.Random(99)
        for _ in range(50):
            demands = [rng.uniform(0, 0.6) for _ in range(40)]
            for make, cls in ((split_state, AI), (whole_state, FREE)):

                def run(ai_grant):
                    state = make()
                    gpu1, fleet = state.gpus[0], state.fleet
                    if ai_grant:
                        assert gpu1.ai_slice is slice_of(gpu1, cls)
                        run_job(state, gpu1, ai_grant)
                    log = []
                    for k, d in enumerate(demands):
                        state.clock_us = k * state.slot_us
                        log.append((settle(state, d), fleet.ran_level.item(0)))
                    return log

                assert run(0.0) == run(slice_of(make().gpus[0], cls).compute_fraction)


class TestFreeCapacity:
    """What placement may still grant on a GPU: its AI slice's size less its grants."""

    def test_partial_grants(self):
        state = split_state()
        gpu1, fleet = state.gpus[0], state.fleet
        settle(state, 0.4)
        run_job(state, gpu1, 0.55)
        assert fleet.ai_cap.item(0) - fleet.ai_granted.item(0) == pytest.approx(0.05, abs=1e-9)
        jobs = [queue_job(state, "j2", 0.1), queue_job(state, "j3", 0.05)]
        assert list(plan_placement(jobs, state).assignments) == ["j3"]

    def test_idle_gpu(self):
        state = whole_state()
        gpu1, fleet = state.gpus[0], state.fleet
        assert gpu1.ai_slice is slice_of(gpu1, FREE)
        assert fleet.ai_cap.item(0) - fleet.ai_granted.item(0) == 1.0
        job = queue_job(state, "j1", 1.0)
        assert list(plan_placement([job], state).assignments) == ["j1"]

    def test_poc_server_frees_whole_second_gpu(self):
        state = split_state(gpus=("gpu1", "gpu2"))
        (gpu1, gpu2), fleet = state.gpus, state.fleet
        settle(state, 0.4)
        run_job(state, gpu1, 0.6)
        assert fleet.ai_cap.item(0) - fleet.ai_granted.item(0) == pytest.approx(0.0, abs=1e-9)
        # the whole second GPU is FREE, which AI does not use under a static split
        assert [(i.compute_fraction, i.tenant_class) for i in gpu2.instances] == [(1.0, FREE)]
        assert gpu2.ai_slice is None and fleet.ai_cap.item(1) - fleet.ai_granted.item(1) == 0.0

    def test_ran_headroom_hidden_unless_visible(self):
        # static split: the RAN slice's idle 0.3 is not offered to AI
        state = split_state()
        gpu1 = state.gpus[0]
        settle(state, 0.1)
        assert gpu1.ai_slice is slice_of(gpu1, AI)
        job = queue_job(state, "j1", 0.9)
        assert plan_placement([job], state).assignments == {}
        # dynamic: RAN shares the whole GPU, so AI may use what RAN leaves
        state = whole_state()
        gpu1, fleet = state.gpus[0], state.fleet
        settle(state, 0.1)
        assert gpu1.ai_slice is slice_of(gpu1, FREE)
        job = run_job(state, gpu1, 0.9)
        assert job.service_rate == pytest.approx(0.9) and not fleet.throttled.item(0)
        run_job(state, gpu1, 0.05, jid="j2")
        assert fleet.throttled.item(0) and fleet.ai_level.item(0) == pytest.approx(0.9)


class TestOneAiSlice:
    """A GPU gives AI at most one slice; a job runs in it."""

    @pytest.mark.parametrize(
        "shares", [(0.4, 0.3), (0.4, 0.0), (0.0, 0.0)], ids=["ai_and_free", "ran_and_free", "whole"]
    )
    def test_dynamic_policy_takes_no_partitions(self, shares):
        """The dynamic policy shares whole GPUs, RAN first: any caller's layout is refused."""
        server = Server(id="srv1", gpus=(GpuDevice("gpu0"), GpuDevice("gpu1")))
        with pytest.raises(ValueError, match="dynamic_backfill shares whole GPUs.*gpu1"):
            build_cluster_state([server], DYNAMIC, {"gpu1": shares})

    def test_dynamic_policy_takes_no_repartition(self):
        """A REPARTITION of a dynamic GPU is refused before it drains the GPU."""
        state = whole_state()
        gpu1 = state.gpus[0]
        job = run_job(state, gpu1, 0.5)
        layout = list(gpu1.instances)
        with pytest.raises(ValueError, match="dynamic_backfill shares whole GPUs.*gpu1"):
            orch.apply_actions(state, [ScaleAction(ActionKind.REPARTITION, "gpu1", 0.7)])
        assert gpu1.instances == layout and job.state is JobState.RUNNING

    def test_job_cannot_start_without_an_ai_slice(self):
        state = split_state(ran=1.0, ai=0.0)
        gpu1 = state.gpus[0]
        assert [i.tenant_class for i in gpu1.instances] == [RAN] and gpu1.ai_slice is None
        job = queue_job(state, "j1", 0.5)
        with pytest.raises(ValueError, match="gpu1: no slice AI may use"):
            start_job(state, job, gpu1, 0.5)
        assert job.state is JobState.QUEUED and gpu1.jobs == []
