"""plan_placement against its former full-rescan body, and its cost under overload."""

import math
import random

from ranshare import orchestrator
from ranshare.compute import GpuDevice, Server
from ranshare.orchestrator import (
    TOL,
    ForecastKind,
    GpuState,
    Policy,
    PlacementDecision,
    PlacementOrder,
    PolicyKind,
    build_cluster_state,
    initial_partitions,
    plan_placement,
    start_job,
)
from ranshare.workload import AiJob, JobState, SloClass

DYNAMIC = Policy(
    kind=PolicyKind.DYNAMIC_BACKFILL,
    epoch_s=0.1,
    safety_margin=0.05,
    forecast=ForecastKind.MAX_OVER_WINDOW,
    window_s=0.2,
)


def reference_plan_placement(jobs, state):
    """The full-rescan first-fit body that plan_placement replaced.

    Every job, fitting or not, walks the lazy candidate generator, which
    re-sorts every server's GPUs and instances.
    """
    _eligible_instances = orchestrator._eligible_instances
    _instance_free = orchestrator._instance_free

    def _gpu_budget(state, gpu):
        """Policy-level AI budget left on a GPU, one GPU at a time."""
        if not state.policy.is_dynamic:
            return math.inf
        return gpu.ai_ceiling - (gpu.ai_hard + gpu.ai_free)

    decision = PlacementDecision()
    interactive = [j for j in jobs if j.slo_class is SloClass.INTERACTIVE]
    interactive.sort(key=lambda j: (j.arrival_time, j.id))
    batch = [j for j in jobs if j.slo_class is SloClass.BATCH]
    batch.sort(key=lambda j: (-j.demand_fraction, j.id))

    budgets: dict[str, float] = {}
    frees: dict[str, float] = {}
    now_us = state.clock_us

    def candidates():
        for srv in sorted(state.servers, key=lambda s: s.server.id):
            gpus = []
            for gpu in srv.gpus:
                if gpu.settling_until_us > now_us:
                    continue
                total_free = sum(
                    frees.setdefault(i.id, _instance_free(gpu, i))
                    for i in _eligible_instances(state, gpu)
                )
                gpus.append((-total_free, gpu.device.id, srv, gpu))
            for _, _, srv_, gpu in sorted(gpus, key=lambda x: (x[0], x[1])):
                insts = sorted(
                    _eligible_instances(state, gpu),
                    key=lambda i: (-frees.setdefault(i.id, _instance_free(gpu, i)), i.id),
                )
                for inst in insts:
                    yield srv_, gpu, inst

    def try_place(job):
        if (
            job.slo_class is SloClass.INTERACTIVE
            and job.demand_fraction + TOL < job.required_rate
        ):
            return False
        for srv, gpu, inst in candidates():
            free = frees.setdefault(inst.id, _instance_free(gpu, inst))
            budget = budgets.setdefault(gpu.device.id, _gpu_budget(state, gpu))
            grantable = free if free < budget else budget
            if grantable + TOL < job.demand_fraction:
                continue
            decision.assignments[job.id] = (
                srv.server.id,
                gpu.device.id,
                inst.id,
                job.demand_fraction,
            )
            frees[inst.id] = free - job.demand_fraction
            budgets[gpu.device.id] = budget - job.demand_fraction
            return True
        return False

    for job in interactive + batch:
        if job.state not in (JobState.QUEUED, JobState.PREEMPTED):
            continue
        if job.eligible_at_s > state.clock + TOL:
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
        job.state = JobState.PREEMPTED
        # some resume now, some are not yet eligible
        job.eligible_at_s = clock_s + rng.choice([0.0, 0.0, 0.5, 2.0])
    return job


def random_fleet(rng: random.Random):
    """A random cluster with running jobs, settling GPUs and a 0-300 job queue."""
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
        gpu.ai_ceiling = rng.choice([0.0, 0.3, 0.55, 0.95, 1.0])
        r = rng.random()
        if r < 0.15:
            gpu.settling_until_us = state.clock_us + 500
        elif r < 0.25:
            gpu.settling_until_us = state.clock_us  # settles at this instant

    n = 0
    for gpu in gpus:  # running jobs hold part of the capacity
        for inst in orchestrator._eligible_instances(state, gpu):
            if rng.random() < 0.6:
                grant = rng.randrange(1, 5) * 0.05
                if grant <= orchestrator._instance_free(gpu, inst) + TOL:
                    running = AiJob(f"run{n}", 0.0, 100.0, grant)
                    n += 1
                    state.jobs[running.id] = running
                    state.enqueue(running)
                    start_job(state, running, gpu.server_id, gpu, inst.id, grant)

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

    def test_pending_index_tracks_queue(self):
        rng = random.Random(7)
        state, _policy, queue = random_fleet(rng)
        while len(queue) < 50:
            state, _policy, queue = random_fleet(rng)
        for job in queue[::3]:
            start_job(state, job, state.servers[0].server.id, state.servers[0].gpus[0],
                      state.servers[0].gpus[0].instances[0].id, 0.0)
        queued = [state.jobs[jid] for _, jid in state.queue]
        assert state.queued == {j.id for j in queued}
        assert state.pending.entries == PlacementOrder(queued).entries


def overloaded_fleet(n_jobs: int):
    """16 dynamic GPUs with ceilings below every queued demand."""
    servers = [
        Server(id=f"srv{s}", gpus=tuple(GpuDevice(f"srv{s}-g{g}") for g in range(4)))
        for s in range(4)
    ]
    state = build_cluster_state(servers, DYNAMIC, {})
    for srv in state.servers:
        for gpu in srv.gpus:
            gpu.ai_ceiling = 0.05
    rng = random.Random(3)
    jobs = []
    for i in range(n_jobs):
        job = AiJob(f"j{i:03d}", i * 1e-3, 1.0, rng.uniform(0.1, 0.5))
        state.jobs[job.id] = job
        state.enqueue(job)
        jobs.append(job)
    return state, jobs


class TestOverloadCost:
    def test_unplaceable_queue_scans_fleet_a_bounded_number_of_times(self, monkeypatch):
        state, jobs = overloaded_fleet(500)
        instances = sum(len(g.instances) for srv in state.servers for g in srv.gpus)
        calls = 0
        original = orchestrator._instance_free

        def counting(gpu: GpuState, inst):
            nonlocal calls
            calls += 1
            return original(gpu, inst)

        monkeypatch.setattr(orchestrator, "_instance_free", counting)
        decision = plan_placement(jobs, state)
        assert decision.assignments == {}
        assert calls == instances  # one failed scan reads each slice once

    def test_fit_on_first_server_reads_only_that_server(self, monkeypatch):
        state, _ = overloaded_fleet(0)
        srv0 = state.servers[0]
        for srv in state.servers:
            for gpu in srv.gpus:
                gpu.ai_ceiling = 1.0  # every server has room
        srv0.gpus[3].settling_until_us = state.clock_us + 500
        for gpu, grant in zip(srv0.gpus, (0.4, 0.1, 0.1)):
            running = AiJob(f"run-{gpu.device.id}", 0.0, 100.0, grant)
            state.jobs[running.id] = running
            state.enqueue(running)
            start_job(state, running, "srv0", gpu, gpu.instances[0].id, grant)
        jobs = []
        for i, demand in enumerate((0.3, 0.5, 0.4)):
            job = AiJob(f"j{i}", i * 1e-3, 1.0, demand)
            state.jobs[job.id] = job
            state.enqueue(job)
            jobs.append(job)
        ref = reference_plan_placement(jobs, state)
        calls = 0
        original = orchestrator._instance_free

        def counting(gpu: GpuState, inst):
            nonlocal calls
            calls += 1
            return original(gpu, inst)

        monkeypatch.setattr(orchestrator, "_instance_free", counting)
        decision = plan_placement(state.pending, state)
        assert list(decision.assignments.items()) == list(ref.assignments.items())
        # first-fit decreasing: GPUs by free capacity descending, ties by id
        placed = [(job_id, where[1]) for job_id, where in decision.assignments.items()]
        assert placed == [("j1", "srv0-g1"), ("j2", "srv0-g2"), ("j0", "srv0-g0")]
        assert calls == 3  # srv0's slices that are not settling, each once

    def test_backfill_onto_full_slice_does_not_walk_the_queue(self, monkeypatch):
        # static split: the GPU's only AI slice is full, the budget unlimited
        server = Server(id="srv1", gpus=(GpuDevice("gpu1"),))
        policy = Policy(kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6)
        state = build_cluster_state([server], policy, initial_partitions(policy, [server], {"srv1"}))
        gpu = state.gpu_by_id("gpu1")
        filler = AiJob("fill", 0.0, 1.0, 0.6)
        state.jobs[filler.id] = filler
        state.enqueue(filler)
        start_job(state, filler, "srv1", gpu, gpu.instances[1].id, 0.6)
        for i in range(500):
            job = AiJob(f"j{i:03d}", 1.0 + i * 1e-3, 1.0, 0.3)
            state.jobs[job.id] = job
            state.enqueue(job)
        calls = 0
        original = orchestrator._instance_free

        def counting(gpu: GpuState, inst):
            nonlocal calls
            calls += 1
            return original(gpu, inst)

        monkeypatch.setattr(orchestrator, "_instance_free", counting)
        assert orchestrator.backfill_queue(state, gpu, math.inf) == math.inf
        assert len(state.queue) == 500
        assert calls <= 3 * len(gpu.instances)
