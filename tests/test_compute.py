"""Slices from ``compute`` and the one grant ledger that fills them.

``compute`` cuts GPUs into slices and checks repartitions; grants inside
slices are made by the orchestrator, on the engine path: ``settle_slot``
grants RAN demand each slot, and ``start_job``/``backfill_queue`` record AI
grants in ``GpuState.inst_granted``, the ledger ``repartition`` checks.
"""

import math
import random

import pytest

from ranshare import orchestrator as orch
from ranshare.compute import GpuDevice, Server, TenantClass, partition_gpu, repartition
from ranshare.engine import SimEngine
from ranshare.errors import (
    ActiveAllocationConflict,
    GranularityViolation,
    PartitionOverflow,
)
from ranshare.orchestrator import (
    TOL,
    Policy,
    PolicyKind,
    backfill_queue,
    build_cluster_state,
    initial_partitions,
    plan_placement,
    settle_slot,
    start_job,
)
from ranshare.workload import AiJob, JobState

from test_segments import random_scenario

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


def run_job(state, gpu_state, inst, grant, jid="j1"):
    """Queue a backlog job and start it with ``grant`` inside ``inst``."""
    job = queue_job(state, jid, 1.0)
    start_job(state, job, gpu_state.server_id, gpu_state, inst.id, grant)
    return job


def assert_ledger(state) -> float:
    """Every GPU's ledger matches its jobs' grants; returns the total granted."""
    total = 0.0
    for gpu_state in state.gpus:
        assert set(gpu_state.inst_granted) == {i.id for i in gpu_state.instances}
        for inst in gpu_state.instances:
            held = math.fsum(
                j.granted_fraction for j in gpu_state.jobs if j.instance_id == inst.id
            )
            assert gpu_state.inst_granted[inst.id] == pytest.approx(held, abs=1e-9)
            assert held <= inst.compute_fraction + 1e-9
        ledger = math.fsum(gpu_state.inst_granted.values())
        assert gpu_state.ai_hard + gpu_state.ai_free == pytest.approx(ledger, abs=1e-9)
        total += ledger
    return total


class TestPartition:
    def test_poc_split_no_free_remainder(self):
        instances = partition_gpu(gpu(0.1), [0.4, 0.6], [RAN, AI])
        assert [(i.compute_fraction, i.tenant_class) for i in instances] == [
            (0.4, RAN),
            (0.6, AI),
        ]

    def test_identity_partition(self):
        instances = partition_gpu(gpu(), [1.0], [RAN])
        assert len(instances) == 1
        assert instances[0].compute_fraction == 1.0

    def test_overflow(self):
        with pytest.raises(PartitionOverflow):
            partition_gpu(gpu(), [0.5, 0.6], [RAN, AI])

    def test_granularity_violation(self):
        with pytest.raises(GranularityViolation):
            partition_gpu(gpu(0.1), [0.45], [RAN])

    def test_leftover_becomes_free(self):
        instances = partition_gpu(gpu(), [0.4, 0.3], [RAN, AI])
        assert instances[-1].tenant_class is FREE
        assert instances[-1].compute_fraction == pytest.approx(0.3, abs=1e-12)

    def test_granularity_must_divide_one(self):
        with pytest.raises(GranularityViolation):
            GpuDevice(id="g", partition_granularity=0.3)

    def test_partition_arithmetic_exact(self):
        # exactness is guaranteed on the internal unit grid; the decimal
        # view sums to 1.0 under correctly-rounded (fsum) accumulation
        import math

        rng = random.Random(11)
        for _ in range(200):
            units = rng.choice([4, 5, 10, 20, 7])
            g = gpu(1.0 / units, "g")
            n = rng.randint(1, 3)
            cuts = sorted(rng.sample(range(1, units), min(n, units - 1)))
            sizes = [a - b for a, b in zip(cuts + [units], [0] + cuts)]
            fracs = [s / units for s in sizes if s]
            classes = [rng.choice([RAN, AI, FREE]) for _ in fracs]
            instances = partition_gpu(g, fracs, classes)
            assert sum(i.units for i in instances) == g.total_units
            assert math.fsum(i.compute_fraction for i in instances) == 1.0




class TestAllocate:
    """RAN grants made by ``settle_slot``, AI grants recorded in the ledger."""

    def test_fits_within_slice(self):
        state = split_state()
        gpu1 = state.gpus[0]
        assert settle(state, 0.35) == []
        assert gpu1.ran_level == 0.35
        job = run_job(state, gpu1, slice_of(gpu1, AI), 0.5)
        assert gpu1.inst_granted[slice_of(gpu1, AI).id] == 0.5
        assert job.service_rate == 0.5

    def test_clipped_at_slice(self):
        state = split_state()
        gpu1 = state.gpus[0]
        misses = settle(state, 0.5)
        assert gpu1.ran_level == pytest.approx(0.4, abs=1e-12)
        assert [m[2] for m in misses] == [pytest.approx(0.1, abs=1e-12)]
        # a job asking for the whole GPU is granted the AI slice and no more
        job = queue_job(state, "big", 1.0)
        backfill_queue(state, gpu1, math.inf)
        assert job.granted_fraction == pytest.approx(0.6, abs=1e-12)
        assert gpu1.inst_granted == {
            slice_of(gpu1, RAN).id: 0.0,
            slice_of(gpu1, AI).id: pytest.approx(0.6, abs=1e-12),
        }

    def test_zero_demand(self):
        state = split_state()
        gpu1 = state.gpus[0]
        assert settle(state, 0.0) == []
        assert gpu1.ran_level == 0.0 and gpu1.ai_level == 0.0
        assert set(gpu1.inst_granted.values()) == {0.0}

    def test_class_mismatch(self):
        """A slice serves its own class only."""
        state = split_state()
        gpu1 = state.gpus[0]
        # RAN demand does not spill into the idle AI slice
        assert settle(state, 0.9) and gpu1.ran_level == pytest.approx(0.4)
        # AI work does not land in the RAN slice, although RAN leaves 0.2 of it idle
        settle(state, 0.2)
        run_job(state, gpu1, slice_of(gpu1, AI), 0.6)
        late = queue_job(state, "late", 0.1)
        assert plan_placement([late], state).assignments == {}
        backfill_queue(state, gpu1, math.inf)
        assert late.state is JobState.QUEUED
        assert gpu1.inst_granted[slice_of(gpu1, RAN).id] == 0.0

    def test_free_accepts_any_class(self):
        state = whole_state()
        gpu1 = state.gpus[0]
        free = slice_of(gpu1, FREE)
        job = run_job(state, gpu1, free, 0.9)
        assert settle(state, 0.2) == []
        assert gpu1.ran_level == pytest.approx(0.2) and gpu1.ran_in_free == pytest.approx(0.2)
        # the grant stays in the ledger; RAN comes first, so AI runs at what is left
        assert gpu1.inst_granted[free.id] == pytest.approx(0.9)
        assert job.service_rate == pytest.approx(0.8)

    def test_slot_accumulation(self):
        """Each slot grants its demand afresh; nothing accumulates across slots."""
        state = split_state()
        gpu1 = state.gpus[0]
        for k in range(3):
            state.clock_us = k * state.slot_us
            assert settle(state, 0.3) == []
            assert gpu1.ran_level == 0.3
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
                )
            hosts = {s.id for s in servers if rng.random() < 0.7}
            state = build_cluster_state(
                servers, policy, initial_partitions(policy, servers, hosts), cell_hosts=hosts
            )
            for gpu_state in state.gpus:
                if rng.random() < 0.15:
                    gpu_state.settling_until_us = 10**9
                free = [i for i in gpu_state.instances if i.tenant_class is not RAN]
                if free and rng.random() < 0.5:
                    inst = rng.choice(free)
                    grant = rng.uniform(0.05, inst.compute_fraction)
                    run_job(state, gpu_state, inst, grant, jid=f"{gpu_state.device.id}-j")
            for k in range(4):
                state.clock_us = k * state.slot_us
                demands = [rng.choice((0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0)))
                           for _ in servers]
                misses = settle(state, *demands)
                shortfall = {sid: sf for _t, sid, sf in misses}
                for srv, demand in zip(state.servers, demands):
                    granted = math.fsum(g.ran_level for g in srv.gpus)
                    assert granted + shortfall.get(srv.server.id, 0.0) == pytest.approx(
                        demand, abs=1e-9
                    )
                    for g in srv.gpus:
                        cap = g.ran_cap + (g.free_cap if state.soft_ran else 0.0)
                        if g.settling_until_us >= state.clock_us:
                            cap = 0.0
                        assert g.ran_level <= cap + 1e-9
                        assert g.ran_level + g.ai_level <= 1.0 + 1e-9
                assert all(sf > TOL for _t, _sid, sf in misses)
                slots += 1
            assert_ledger(state)
        assert slots == 1200


class TestRepartition:
    def test_grow_ran_with_empty_ai(self):
        g = gpu()
        old = partition_gpu(g, [0.4, 0.6], [RAN, AI])
        new = repartition(g, old, {i.id: 0.0 for i in old}, [0.7, 0.3], [RAN, AI])
        assert [i.compute_fraction for i in new] == [0.7, 0.3]

    def test_idempotent(self):
        g = gpu()
        old = partition_gpu(g, [0.4, 0.6], [RAN, AI])
        new = repartition(g, old, {}, [0.4, 0.6], [RAN, AI])
        assert [i.compute_fraction for i in new] == [0.4, 0.6]

    def test_shrink_below_granted_conflicts(self):
        g = gpu()
        old = partition_gpu(g, [0.4, 0.6], [RAN, AI])
        with pytest.raises(ActiveAllocationConflict):
            repartition(g, old, {old[0].id: 0.4}, [0.2, 0.8], [RAN, AI])
        # the engine's ledger: a running AI job holds 0.5 of the AI slice
        state = split_state()
        gpu1 = state.gpus[0]
        job = run_job(state, gpu1, slice_of(gpu1, AI), 0.5)
        layout = (gpu1.device, gpu1.instances, gpu1.inst_granted)
        with pytest.raises(ActiveAllocationConflict):
            repartition(*layout, [0.7, 0.3], [RAN, AI])
        assert [i.compute_fraction for i in repartition(*layout, [0.5, 0.5], [RAN, AI])] == [
            0.5, 0.5
        ]
        orch.preempt_job(state, gpu1, job)  # drained: any layout fits
        assert [i.tenant_class for i in repartition(*layout, [1.0], [RAN])] == [RAN]

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
                    gpu1 = state.gpus[0]
                    if ai_grant:
                        run_job(state, gpu1, slice_of(gpu1, cls), ai_grant)
                    log = []
                    for k, d in enumerate(demands):
                        state.clock_us = k * state.slot_us
                        log.append((settle(state, d), gpu1.ran_level))
                    return log

                assert run(0.0) == run(slice_of(make().gpus[0], cls).compute_fraction)


class TestFreeCapacity:
    """What placement may still grant inside a slice: its size less the ledger."""

    def test_partial_grants(self):
        state = split_state()
        gpu1 = state.gpus[0]
        ai = slice_of(gpu1, AI)
        settle(state, 0.4)
        run_job(state, gpu1, ai, 0.55)
        assert orch._instance_free(gpu1, ai) == pytest.approx(0.05, abs=1e-9)
        jobs = [queue_job(state, "j2", 0.1), queue_job(state, "j3", 0.05)]
        assert list(plan_placement(jobs, state).assignments) == ["j3"]

    def test_idle_gpu(self):
        state = whole_state()
        gpu1 = state.gpus[0]
        assert orch._instance_free(gpu1, slice_of(gpu1, FREE)) == 1.0
        job = queue_job(state, "j1", 1.0)
        assert list(plan_placement([job], state).assignments) == ["j1"]

    def test_poc_server_frees_whole_second_gpu(self):
        state = split_state(gpus=("gpu1", "gpu2"))
        gpu1, gpu2 = state.gpus
        settle(state, 0.4)
        run_job(state, gpu1, slice_of(gpu1, AI), 0.6)
        free = [orch._instance_free(g, i) for g in state.gpus for i in g.instances
                if i.tenant_class is not RAN]
        assert free == [pytest.approx(0.0, abs=1e-9), 1.0]
        assert [i.tenant_class for i in gpu2.instances] == [FREE]

    def test_ran_headroom_hidden_unless_visible(self):
        # static split: the RAN slice's idle 0.3 is not offered to AI
        state = split_state()
        gpu1 = state.gpus[0]
        settle(state, 0.1)
        assert orch._eligible_instances(state, gpu1) == [slice_of(gpu1, AI)]
        job = queue_job(state, "j1", 0.9)
        assert plan_placement([job], state).assignments == {}
        # dynamic: RAN shares the whole GPU, so AI may use what RAN leaves
        state = whole_state()
        gpu1 = state.gpus[0]
        settle(state, 0.1)
        assert orch._eligible_instances(state, gpu1) == [slice_of(gpu1, FREE)]
        job = run_job(state, gpu1, slice_of(gpu1, FREE), 0.9)
        assert job.service_rate == pytest.approx(0.9) and not gpu1.throttled
        run_job(state, gpu1, slice_of(gpu1, FREE), 0.05, jid="j2")
        assert gpu1.throttled and gpu1.ai_level == pytest.approx(0.9)
