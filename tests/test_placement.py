"""plan_placement against its former full-rescan body, and its cost under overload."""

import dataclasses
import math
import random

import pytest

from ranshare import orchestrator
from ranshare.compute import GpuDevice, Server, TenantClass
from ranshare.orchestrator import (
    TOL,
    ActionKind,
    ForecastKind,
    Policy,
    PlacementDecision,
    PlacementOrder,
    PolicyKind,
    ScaleAction,
    apply_actions,
    backfill_queue,
    build_cluster_state,
    initial_partitions,
    plan_placement,
    start_job,
)
from ranshare.workload import AiJob, JobState, SloClass

from test_segments import settled_due

DYNAMIC = Policy(
    kind=PolicyKind.DYNAMIC_BACKFILL,
    epoch_s=0.1,
    safety_margin=0.05,
    forecast=ForecastKind.MAX_OVER_WINDOW,
    window_s=0.2,
)


def eligible_slices(state, gpu):
    """The slices AI may use: AI slices, and FREE ones under the dynamic policy."""
    classes = (TenantClass.AI, TenantClass.FREE) if state.policy.is_dynamic else (TenantClass.AI,)
    return [i for i in gpu.instances if i.tenant_class in classes]


def slice_free(state, gpu, inst):
    """What ``inst`` has left; a GPU's running jobs all hold their grants in its one AI slice."""
    return inst.compute_fraction - state.fleet.ai_granted.item(gpu.index)


def reference_plan_placement(jobs, state):
    """The full-rescan first-fit body that plan_placement replaced.

    Every job, fitting or not, walks the lazy candidate generator, which
    re-sorts every server's GPUs and every GPU's eligible slices.
    """

    def _gpu_budget(state, gpu):
        """Policy-level AI budget left on a GPU, one GPU at a time."""
        if not state.policy.is_dynamic:
            return math.inf
        fleet = state.fleet
        return fleet.ai_ceiling[gpu.index] - fleet.ai_granted.item(gpu.index)

    decision = PlacementDecision()
    interactive = [j for j in jobs if j.slo_class is SloClass.INTERACTIVE]
    interactive.sort(key=lambda j: (j.arrival_time, j.id))
    batch = [j for j in jobs if j.slo_class is SloClass.BATCH]
    batch.sort(key=lambda j: (-j.demand_fraction, j.id))

    budgets: dict[str, float] = {}
    frees: dict[str, float] = {}
    settling = settled_due(state)  # a GPU settles until its settled event is dispatched

    def candidates():
        for srv in sorted(state.servers, key=lambda s: s.server.id):
            gpus = []
            for gpu in srv.gpus:
                if gpu.index in settling:
                    continue
                total_free = sum(
                    frees.setdefault(i.id, slice_free(state, gpu, i))
                    for i in eligible_slices(state, gpu)
                )
                gpus.append((-total_free, gpu.device.id, gpu))
            for _, _, gpu in sorted(gpus, key=lambda x: (x[0], x[1])):
                insts = sorted(
                    eligible_slices(state, gpu),
                    key=lambda i: (-frees.setdefault(i.id, slice_free(state, gpu, i)), i.id),
                )
                for inst in insts:
                    yield gpu, inst

    def try_place(job):
        if (
            job.slo_class is SloClass.INTERACTIVE
            and job.demand_fraction + TOL < job.required_rate
        ):
            return False
        for gpu, inst in candidates():
            free = frees.setdefault(inst.id, slice_free(state, gpu, inst))
            budget = budgets.setdefault(gpu.device.id, _gpu_budget(state, gpu))
            grantable = free if free < budget else budget
            if grantable + TOL < job.demand_fraction:
                continue
            decision.assignments[job.id] = (gpu.device.id, job.demand_fraction)
            frees[inst.id] = free - job.demand_fraction
            budgets[gpu.device.id] = budget - job.demand_fraction
            return True
        return False

    for job in interactive + batch:
        if job.state not in (JobState.QUEUED, JobState.PREEMPTED):
            continue
        try_place(job)
    return decision


def random_policy(rng: random.Random) -> Policy:
    # split fractions sit on the coarsest granularity used below (0.25)
    kind = rng.choice(list(PolicyKind))
    if kind is PolicyKind.STATIC_SPLIT:
        ran = rng.randrange(0, 4) * 0.25
        ai = rng.randrange(0, 5 - round(ran * 4)) * 0.25
        return Policy(kind=kind, ran_fraction=ran, ai_fraction=ai)
    if kind is PolicyKind.TIME_SPLIT:
        return Policy(kind=kind, schedule=((0.0, 10.0, rng.randrange(0, 5) * 0.25),))
    return DYNAMIC


def random_job(rng: random.Random, jid: str, clock_s: float) -> AiJob:
    if rng.random() < 0.5:
        demand = rng.randrange(1, 21) * 0.05  # ties and exact fits
    else:
        demand = rng.uniform(0.01, 1.0)
    slo = SloClass.INTERACTIVE if rng.random() < 0.2 else SloClass.BATCH
    size = rng.uniform(0.1, 2.0)
    job = AiJob(
        id=jid,
        arrival_time=round(rng.uniform(0.0, clock_s), 3),
        size_compute_seconds=size,
        demand_fraction=demand,
        slo_class=slo,
        latency_bound_s=rng.uniform(0.2, 20.0) if slo is SloClass.INTERACTIVE else 0.0,
    )
    if rng.random() < 0.2:
        job.state = JobState.PREEMPTED  # queued again after its resume delay
        rng.choice([0.0, 0.0, 0.5, 2.0])  # unused: keeps every later draw of the fleets in place
    return job


def start_settling(state, gpu, slots: int):
    """Repartition ``gpu`` to the RAN share it has, to settle for ``slots`` slots from now."""
    policy = state.policy
    state.policy = dataclasses.replace(policy, settle_slots=slots)
    share = orchestrator._ran_units(gpu) / gpu.device.total_units
    apply_actions(state, [ScaleAction(ActionKind.REPARTITION, gpu.device.id, share)])
    state.policy = policy


def random_fleet(rng: random.Random):
    """A random cluster with running jobs, settling GPUs and a 0-300 job queue.

    GPUs settle only under a time split, the one policy that repartitions,
    and only the GPUs it splits. A split has no AI ceiling (+inf).
    """
    policy = random_policy(rng)
    servers = []
    for si in range(rng.randint(1, 5)):
        gpus = tuple(
            GpuDevice(f"s{si}g{gi}", partition_granularity=rng.choice([0.05, 0.125, 0.25]))
            for gi in range(rng.randint(1, 4))
        )
        servers.append(Server(id=f"srv{rng.randrange(100):02d}-{si}", gpus=gpus))
    rng.shuffle(servers)  # placement sorts servers by id
    hosts = {s.id for s in servers if rng.random() < 0.7}
    partitions = initial_partitions(policy, servers, hosts)
    state = build_cluster_state(servers, policy, partitions)
    state.clock_us = 5_000_000
    clock_s = state.clock
    gpus = [g for srv in state.servers for g in srv.gpus]
    for gpu in gpus:
        ceiling = rng.choice([0.0, 0.3, 0.55, 0.95, 1.0])  # drawn always: later draws stay put
        if policy.is_dynamic:
            state.fleet.ai_ceiling[gpu.index] = ceiling
        r = rng.random()
        if policy.kind is not PolicyKind.TIME_SPLIT or gpu.device.id not in partitions:
            continue
        if r < 0.15:
            start_settling(state, gpu, 1)
        elif r < 0.25:
            start_settling(state, gpu, 0)  # its settled event is due at this instant

    n = 0
    for gpu in gpus:  # running jobs hold part of the capacity
        for inst in eligible_slices(state, gpu):
            if rng.random() < 0.6:
                grant = rng.randrange(1, 5) * 0.05
                # a settling GPU has no slice for AI, and so no running job
                if gpu.ai_slice and grant <= slice_free(state, gpu, inst) + TOL:
                    running = AiJob(f"run{n}", 0.0, 100.0, grant)
                    n += 1
                    state.jobs[running.id] = running
                    state.enqueue(running)
                    start_job(state, running, gpu, grant)

    queue = []
    for i in range(rng.choice([0, 1, 5, 40, 300, rng.randint(0, 300)])):
        job = random_job(rng, f"q{i:03d}", clock_s)
        state.jobs[job.id] = job
        state.enqueue(job)
        queue.append(job)
    return state, policy, queue


class TestDifferential:
    def test_assignments_match_reference(self):
        rng = random.Random(20250113)
        kinds = set()
        placed = skipped = 0
        for _ in range(150):
            state, policy, queue = random_fleet(rng)
            kinds.add(policy.kind)
            offered = list(queue)
            rng.shuffle(offered)  # callers may pass any order
            offered += [state.jobs[j] for j in list(state.jobs)[:3]]  # running: ignored
            ref = reference_plan_placement(offered, state)
            got = plan_placement(offered, state)
            assert list(got.assignments.items()) == list(ref.assignments.items())
            # the engine's path: the state's own index of the queue
            from_index = plan_placement(state.pending, state)
            ref_queue = reference_plan_placement(queue, state)
            assert list(from_index.assignments.items()) == list(ref_queue.assignments.items())
            placed += len(ref.assignments)
            skipped += len(queue) - len(ref_queue.assignments)
        assert kinds == set(PolicyKind)
        assert placed > 0 and skipped > 0

    def test_placement_reads_no_policy(self):
        """Every policy rule placement needs lives in the fleet arrays ``ai_cap`` and ``ai_ceiling``.

        A settling GPU has an ``ai_cap`` of 0.0 and a split an ``ai_ceiling``
        of +inf, so ``plan_placement`` decides the same without
        ``state.policy``; the fleet keeps no settling window beside them.
        """
        assert "settling_until_us" not in orchestrator.Fleet.__slots__

        class NoPolicy:
            def __getattribute__(self, name):
                raise AssertionError(f"placement read policy.{name}")

        rng = random.Random(11)
        kinds = set()
        placed = 0
        for _ in range(60):
            state, policy, _queue = random_fleet(rng)
            kinds.add(policy.kind)
            want = plan_placement(state.pending, state)
            state.policy = NoPolicy()
            got = plan_placement(state.pending, state)
            assert list(got.assignments.items()) == list(want.assignments.items())
            placed += len(got.assignments)
        assert kinds == set(PolicyKind) and placed > 0

    def test_pending_index_tracks_queue(self):
        rng = random.Random(7)
        state, _policy, queue = random_fleet(rng)
        while len(queue) < 50 or not any(gpu.ai_slice for gpu in state.gpus):
            state, _policy, queue = random_fleet(rng)
        gpu = next(gpu for gpu in state.gpus if gpu.ai_slice)
        for job in queue[::3]:
            start_job(state, job, gpu, 0.0)
        queued = [job for i, job in enumerate(queue) if i % 3]
        assert state.pending.entries == PlacementOrder(queued).entries
        # the BATCH queue holds those jobs alone, in arrival order
        batch = [job for job in queued if job.slo_class is SloClass.BATCH]
        assert 0 < len(batch) < len(queued)
        assert state.batch_queue == sorted((job.arrival_time, job.id) for job in batch)


class CountingGpus(list):
    """A server's GPU list that counts the GPUs read from it."""

    reads = 0

    def __iter__(self):
        for gpu in super().__iter__():
            self.reads += 1
            yield gpu


def count_gpu_reads(state) -> list[CountingGpus]:
    """Make every server of ``state`` count the GPUs read from it; its lists, in server order."""
    for srv in state.servers:
        srv.gpus = CountingGpus(srv.gpus)
    return [srv.gpus for srv in state.servers]


def overloaded_fleet(n_jobs: int):
    """16 dynamic GPUs with ceilings below every queued demand."""
    servers = [
        Server(id=f"srv{s}", gpus=tuple(GpuDevice(f"srv{s}-g{g}") for g in range(4)))
        for s in range(4)
    ]
    state = build_cluster_state(servers, DYNAMIC, {})
    state.fleet.ai_ceiling[:] = 0.05
    rng = random.Random(3)
    jobs = []
    for i in range(n_jobs):
        job = AiJob(f"j{i:03d}", i * 1e-3, 1.0, rng.uniform(0.1, 0.5))
        state.jobs[job.id] = job
        state.enqueue(job)
        jobs.append(job)
    return state, jobs


class TestOverloadCost:
    def test_unplaceable_queue_scans_fleet_a_bounded_number_of_times(self):
        state, jobs = overloaded_fleet(500)
        counts = count_gpu_reads(state)
        decision = plan_placement(jobs, state)
        assert decision.assignments == {}
        # the fleet arrays show that nothing fits: no server's GPU list is read
        assert [c.reads for c in counts] == [0] * 4
        assert [len(c) for c in counts] == [4] * 4

    def test_fit_on_first_server_reads_only_that_server(self):
        state, _ = overloaded_fleet(0)
        srv0 = state.servers[0]
        state.fleet.ai_ceiling[:] = 1.0  # every server has room
        # srv0-g3's AI capacity is fully granted, so it can take no job
        for gpu, grant in zip(srv0.gpus, (0.4, 0.1, 0.1, 1.0)):
            running = AiJob(f"run-{gpu.device.id}", 0.0, 100.0, grant)
            state.jobs[running.id] = running
            state.enqueue(running)
            start_job(state, running, gpu, grant)
        jobs = []
        for i, demand in enumerate((0.3, 0.5, 0.4)):
            job = AiJob(f"j{i}", i * 1e-3, 1.0, demand)
            state.jobs[job.id] = job
            state.enqueue(job)
            jobs.append(job)
        ref = reference_plan_placement(jobs, state)
        counts = count_gpu_reads(state)
        decision = plan_placement(state.pending, state)
        assert list(decision.assignments.items()) == list(ref.assignments.items())
        # first-fit decreasing: GPUs by free capacity descending, ties by id
        placed = [(job_id, where[0]) for job_id, where in decision.assignments.items()]
        assert placed == [("j1", "srv0-g1"), ("j2", "srv0-g2"), ("j0", "srv0-g0")]
        # each job reads srv0's four GPUs once, and no other server
        assert [c.reads for c in counts] == [3 * 4, 0, 0, 0]

    def test_backfill_skips_budgets_below_the_granularity(self, monkeypatch):
        state, jobs = overloaded_fleet(50)
        state.fleet.ai_ceiling[:] = 0.03  # above 1e-9, below the 0.05 granularity
        state.fleet.ai_ceiling[5] = 0.05
        calls = []

        def counting(state, gpu, budget):
            calls.append(gpu.device.id)
            return backfill_queue(state, gpu, budget)

        monkeypatch.setattr(orchestrator, "backfill_queue", counting)
        orchestrator.placement_round(state)
        # only the one GPU whose budget meets its granularity is offered the queue
        assert calls == [state.gpus[5].device.id]
        assert state.fleet.ai_granted.item(5) == pytest.approx(0.05)
        assert len(state.batch_queue) == len(jobs) - 1

    def test_a_round_with_only_interactive_jobs_queued_backfills_nothing(self, monkeypatch):
        """Backfill grants BATCH jobs alone, so no GPU is offered a queue without one."""
        state, _ = overloaded_fleet(0)  # every GPU's budget, 0.05, meets its granularity
        for i in range(20):
            job = AiJob(f"i{i:02d}", i * 1e-3, 1.0, 0.8,
                        slo_class=SloClass.INTERACTIVE, latency_bound_s=10.0)
            state.jobs[job.id] = job
            state.enqueue(job)
        calls = []
        monkeypatch.setattr(orchestrator, "backfill_queue", lambda *args: calls.append(args))
        orchestrator.placement_round(state)
        assert calls == []
        assert len(state.pending) == 20  # 0.8 fits no budget of 0.05

    def test_backfill_reads_no_interactive_job(self):
        """BATCH jobs queued behind INTERACTIVE ones are granted without reading one of those."""
        state, _ = overloaded_fleet(0)
        live = []
        for i in range(30):
            job = AiJob(f"i{i:02d}", i * 1e-3, 1.0, 0.8,
                        slo_class=SloClass.INTERACTIVE, latency_bound_s=10.0)
            state.jobs[job.id] = job
            state.enqueue(job)
            live.append(job)
        batch = []
        for i, demand in enumerate((0.3, 0.5, 0.1)):
            job = AiJob(f"b{i}", 1.0 + i * 1e-3, 1.0, demand)
            state.jobs[job.id] = job
            state.enqueue(job)
            batch.append(job)
        read = []

        class RecordingJobs(dict):
            def __getitem__(self, key):
                read.append(key)
                return super().__getitem__(key)

        state.jobs = RecordingJobs(state.jobs)
        assert backfill_queue(state, state.gpus[0], 0.85) == pytest.approx(0.0)
        assert read == ["b0", "b1", "b2"]
        assert [j.granted_fraction for j in batch] == pytest.approx([0.3, 0.5, 0.05])
        assert all(j.state is JobState.QUEUED for j in live)
        assert len(state.pending) == len(live)

    def test_backfill_onto_full_slice_does_not_walk_the_queue(self):
        # static split: the GPU's only AI slice is full, the budget unlimited
        server = Server(id="srv1", gpus=(GpuDevice("gpu1"),))
        policy = Policy(kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6)
        state = build_cluster_state([server], policy, initial_partitions(policy, [server], {"srv1"}))
        gpu = state.gpu_by_id("gpu1")
        filler = AiJob("fill", 0.0, 1.0, 0.6)
        state.jobs[filler.id] = filler
        state.enqueue(filler)
        start_job(state, filler, gpu, 0.6)
        for i in range(500):
            job = AiJob(f"j{i:03d}", 1.0 + i * 1e-3, 1.0, 0.3)
            state.jobs[job.id] = job
            state.enqueue(job)

        class CountingJobs(dict):
            reads = 0

            def __getitem__(self, key):
                CountingJobs.reads += 1
                return super().__getitem__(key)

        state.jobs = CountingJobs(state.jobs)
        assert orchestrator.backfill_queue(state, gpu, math.inf) == math.inf
        assert len(state.batch_queue) == 500
        assert CountingJobs.reads == 1  # the first queued job finds the slice full
