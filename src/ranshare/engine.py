"""Deterministic discrete-event core.

The clock is an integer microsecond counter; every event time is quantized
to it, which makes tie-breaking exact and runs reproducible byte for byte.
Heap events carry (time_us, kind_priority, seq) keys so that simultaneous
events follow the fixed kind order: slot < policy epoch < arrival <
completion < others.

Slot boundaries dominate the event count, so they never enter the heap.
Between two heap events slots differ only through RAN demand, so the main
loop settles them a segment at a time: every slot from the next unsettled
one up to and including the next event's time (capped at the horizon),
the slot at an event's time settling before the event, as slot order
requires. ``orchestrator.settle_segment`` settles a segment with the result
of one ``settle_slot`` per slot, bit for bit:

* constant demand (constant and trace profiles between profile changes) in
  closed form: one ``settle_slot``, which every later slot repeats;
* otherwise in numpy passes over chunks of at most ``CHUNK_CELLS``
  (slot, GPU) elements, so memory does not grow with segment length.

It falls back to ``settle_slot`` at each slot whose throttle test fires
(that slot may change job rates and schedule events, so the segment ends
after it), while a GPU is settling after a repartition, and for segments
shorter than ``VECTOR_MIN_SLOTS``, where a numpy pass costs more.

Utilization samples are flushed lazily: a sample at time t is recorded
once the clock moves strictly past t, so it reflects the state after every
event that fired at t. A sample due before a segment's last slot sees only
slot settlements, so the segment records it from its own levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

import numpy as np

from . import fabric as fabric_mod
from . import orchestrator as orch
from .compute import Server
from .errors import EmptyTrace, EventInPast, ScenarioInvalid
from .fabric import FabricTopology, Flow, FlowKind, FronthaulCalibration, flow
from .orchestrator import (
    DeadlineMiss,
    DemandModel,
    EngineHooks,
    Policy,
    PolicyKind,
    apply_actions,
    backfill_queue,
    plan_placement,
    policy_epoch,
    settle_segment,
    settle_slot,
    start_job,
)
from .workload import (
    AiJob,
    AiWorkload,
    Calibration,
    CellConfig,
    JobState,
    LoadProfile,
    ProfileKind,
    gen_ai_arrivals,
    ran_peak_fraction,
    slot_duration,
)

US = 1_000_000


class EventKind(Enum):
    SLOT_BOUNDARY = 0
    POLICY_EPOCH = 1
    JOB_ARRIVAL = 2
    JOB_COMPLETION = 3
    PROFILE_CHANGE = 4
    REPARTITION_SETTLED = 5
    SAMPLE = 6  # internal: lowest priority so samples see settled state


@dataclass(frozen=True)
class SimEvent:
    time_s: float
    seq: int
    kind: EventKind
    payload: tuple = ()


@dataclass(frozen=True)
class TraceRecord:
    time_s: float
    gpu_id: str
    ran_fraction: float
    ai_fraction: float
    annotation: str = ""


@dataclass(frozen=True)
class EventRecord:
    time_s: float
    kind: str
    subject: str
    detail: str


@dataclass(frozen=True)
class GpuSummary:
    avg_ran: float
    avg_ai: float
    avg_total: float
    peak_total: float
    p95_total: float


@dataclass(frozen=True)
class Summary:
    per_gpu: dict[str, GpuSummary]
    avg_total: float  # mean of per-GPU time-weighted averages
    miss_count: int


@dataclass(frozen=True)
class JobStats:
    completed: int
    preempted_events: int
    rejected: int
    queued_at_end: int
    running_at_end: int
    mean_wait_s: float
    p95_wait_s: float
    mean_turnaround_s: float


@dataclass(frozen=True)
class CellSpec:
    id: str
    config: CellConfig
    profile: LoadProfile
    server_id: str


@dataclass(frozen=True)
class TopologySpec:
    compute_spines: int = 2
    compute_leaves: int = 4
    converged_spines: int = 2
    converged_leaves: int = 4
    link_capacity_gbps: float = 100.0
    fronthaul: FronthaulCalibration = FronthaulCalibration()


@dataclass(frozen=True)
class Scenario:
    name: str
    servers: tuple[Server, ...]
    cells: tuple[CellSpec, ...]
    calibration: Calibration
    ai_workloads: tuple[AiWorkload, ...]
    policy: Policy
    horizon_s: float = 600.0
    seed: int = 0
    sample_interval_s: float = 0.01
    topology: TopologySpec = TopologySpec()
    static_flows: tuple[Flow, ...] = ()

    @property
    def slot_s(self) -> float:
        scs = self.cells[0].config.scs_khz if self.cells else 30
        return slot_duration(scs)

    def validate(self) -> list[str]:
        """Structural checks; empty list means the scenario can run."""
        problems = []
        if self.horizon_s <= 0:
            problems.append("sim.horizon_s must be positive")
        if self.sample_interval_s < self.slot_s - 1e-12:
            problems.append("sim.sample_interval_s must be >= the slot duration")
        server_ids = {s.id for s in self.servers}
        if len(server_ids) != len(self.servers):
            problems.append("duplicate server ids")
        gpu_ids = [g.id for s in self.servers for g in s.gpus]
        if len(set(gpu_ids)) != len(gpu_ids):
            problems.append("gpu ids must be globally unique")
        for cell in self.cells:
            if cell.server_id not in server_ids:
                problems.append(f"cell {cell.id}: unknown server {cell.server_id}")
        scs = {c.config.scs_khz for c in self.cells}
        if len(scs) > 1:
            problems.append("all cells must share one subcarrier spacing")
        if self.policy.kind is PolicyKind.TIME_SPLIT:
            sched = self.policy.schedule
            if sched[0][0] > 1e-9:
                problems.append("time_split schedule must start at 0")
            for (s0, e0, _), (s1, _, _) in zip(sched, sched[1:]):
                if abs(e0 - s1) > 1e-9:
                    problems.append("time_split schedule has gaps")
            if sched[-1][1] < self.horizon_s - 1e-9:
                problems.append("time_split schedule does not cover the horizon")
            slot_us = round(self.slot_s * 1e6)
            for start, _end, _ran in sched:
                if round(start * 1e6) % slot_us:
                    problems.append(
                        f"time_split boundary {start} is not on a slot boundary"
                    )
        known_gpus = set(gpu_ids)
        for gid in self.policy.split_gpus:
            if gid not in known_gpus:
                problems.append(f"policy.gpus: unknown gpu {gid}")
        problems.extend(self._check_split_granularity())
        try:
            topo = self.build_topology()
        except Exception as exc:  # count/shape errors become violations
            problems.append(f"topology: {exc}")
            return problems
        problems.extend(str(v) for v in fabric_mod.validate_topology(topo))
        return problems

    def _check_split_granularity(self) -> list[str]:
        """Split fractions must sit on every target GPU's granularity grid."""
        policy = self.policy
        if policy.kind is PolicyKind.STATIC_SPLIT:
            wanted = [policy.ran_fraction, policy.ai_fraction]
        elif policy.kind is PolicyKind.TIME_SPLIT:
            wanted = [ran for _s, _e, ran in policy.schedule]
        else:
            return []
        devices = {g.id: g for s in self.servers for g in s.gpus}
        cell_hosts = {c.server_id for c in self.cells}
        targets = list(policy.split_gpus) or [
            s.gpus[0].id for s in self.servers if s.id in cell_hosts
        ]
        problems = []
        for gid in targets:
            gpu = devices.get(gid)
            if gpu is None:
                continue  # reported as an unknown-gpu problem already
            for f in wanted:
                units = round(f * gpu.total_units)
                if abs(f - units / gpu.total_units) > 1e-9:
                    problems.append(
                        f"policy fraction {f} is not a multiple of {gid}'s "
                        f"granularity {gpu.partition_granularity}"
                    )
        return problems

    def build_topology(self) -> FabricTopology:
        rus = [f"ru-{c.id}" for c in self.cells] or ["ru-0"]
        return fabric_mod.build_reference_fabric(
            self.topology.compute_spines,
            self.topology.compute_leaves,
            self.topology.converged_spines,
            self.topology.converged_leaves,
            rus,
            list(self.servers),
            self.topology.link_capacity_gbps,
        )


@dataclass
class MetricsReport:
    scenario_name: str
    horizon_s: float
    sample_interval_s: float
    seed: int
    gpu_ids: tuple[str, ...]
    trace: list[TraceRecord]
    events: list[EventRecord]
    deadline_misses: list[DeadlineMiss]
    fabric_violations: list[EventRecord]
    job_stats: JobStats
    summary: Summary


def mix_seed(base_seed: int, index: int) -> int:
    """Stable 64-bit seed mixer (splitmix64 finalizer) for sub-streams."""
    z = (base_seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _server_demand(terms: list[tuple[float, LoadProfile]], floor: float):
    """One server's ``t -> demand`` from its (peak, profile) terms."""
    scalars = [(peak, profile.sampler()) for peak, profile in terms]
    if not terms:
        return lambda t: floor
    if len(terms) == 1 and floor == 0.0:
        peak, sampler = scalars[0]
        return lambda t: peak * sampler(t)

    def scalar(t):
        total = 0.0
        for p, s in scalars:
            total += p * s(t)
        return total if total > floor else floor

    return scalar


def _fleet_demand(terms: list[list[tuple[float, LoadProfile]]], floor: float):
    """Every server's demand as one ``times -> (servers, times)`` array.

    Row ``i`` adds server ``i``'s terms in order, as ``_server_demand``
    does; a server with fewer terms than another adds ``0.0 * load``,
    which leaves its sum unchanged. Each distinct profile is evaluated once.
    """
    index: dict[LoadProfile, int] = {}
    for server_terms in terms:
        for _peak, profile in server_terms:
            index.setdefault(profile, len(index))
    samplers = [profile.vector_sampler() for profile in index]
    depth = max((len(t) for t in terms), default=0)
    peaks = np.zeros((len(terms), depth))
    which = np.zeros((len(terms), depth), dtype=np.intp)
    for i, server_terms in enumerate(terms):
        for k, (peak, profile) in enumerate(server_terms):
            peaks[i, k] = peak
            which[i, k] = index[profile]

    def vector(t):
        loads = np.array([v(t) for v in samplers])
        total = np.zeros((len(terms), t.size))
        for k in range(depth):
            total = total + peaks[:, k, None] * loads[which[:, k]]
        return np.where(total > floor, total, floor)

    return vector


def build_demand(scenario: Scenario) -> DemandModel:
    """RAN demand of each server: the sum over its cells of peak x load, floored."""
    calib = scenario.calibration
    floor = calib.idle_floor_fraction
    terms = [
        [
            (ran_peak_fraction(cell.config, calib), cell.profile)
            for cell in scenario.cells
            if cell.server_id == server.id
        ]
        for server in scenario.servers
    ]
    return DemandModel(
        scalar=tuple(_server_demand(t, floor) for t in terms),
        vector=_fleet_demand(terms, floor),
        stepwise=all(
            c.profile.kind is not ProfileKind.DIURNAL_SINUSOID for c in scenario.cells
        ),
    )


def summarize(trace: list[TraceRecord], miss_count: int = 0) -> Summary:
    """Time-weighted summary of a utilization trace and a miss count.

    The trace is treated as a step function: each sample holds until the
    next one, and the final sample carries zero weight. Peaks and P95 are
    over the raw samples.
    """
    if not trace:
        raise EmptyTrace("cannot summarize an empty trace")
    by_gpu: dict[str, list[TraceRecord]] = {}
    for rec in trace:
        by_gpu.setdefault(rec.gpu_id, []).append(rec)
    per_gpu = {}
    for gpu_id, recs in by_gpu.items():
        times = [r.time_s for r in recs]
        weights = [t1 - t0 for t0, t1 in zip(times, times[1:])] + [0.0]
        span = math.fsum(weights)
        totals = [r.ran_fraction + r.ai_fraction for r in recs]
        if span <= 0.0:
            avg_ran, avg_ai, avg_total = (
                recs[0].ran_fraction,
                recs[0].ai_fraction,
                totals[0],
            )
        else:
            avg_ran = math.fsum(w * r.ran_fraction for w, r in zip(weights, recs)) / span
            avg_ai = math.fsum(w * r.ai_fraction for w, r in zip(weights, recs)) / span
            avg_total = math.fsum(w * t for w, t in zip(weights, totals)) / span
        per_gpu[gpu_id] = GpuSummary(
            avg_ran=avg_ran,
            avg_ai=avg_ai,
            avg_total=avg_total,
            peak_total=max(totals),
            p95_total=float(np.percentile(totals, 95)),
        )
    avg_total = math.fsum(g.avg_total for g in per_gpu.values()) / len(per_gpu)
    return Summary(per_gpu=per_gpu, avg_total=avg_total, miss_count=miss_count)


class _Hooks(EngineHooks):
    def __init__(self, engine: "SimEngine"):
        self.engine = engine

    def set_rate(self, job: AiJob, rate: float):
        eng = self.engine
        eng._accrue_job(job, eng.state.clock_us)
        job.service_rate = rate
        job.version += 1
        eng._schedule_completion(job)

    def log_event(self, kind: str, subject: str, detail: str):
        eng = self.engine
        eng.events.append(EventRecord(eng.state.clock_us / US, kind, subject, detail))

    def on_repartition(self, gpu: orch.GpuState):
        eng = self.engine
        eng._push(gpu.settling_until_us, EventKind.REPARTITION_SETTLED, (gpu.device.id,))


class SimEngine:
    """One scenario run. Single-threaded; never reads the wall clock."""

    def __init__(self, scenario: Scenario):
        problems = scenario.validate()
        if problems:
            raise ScenarioInvalid(problems)
        self.scenario = scenario
        self.slot_us = round(scenario.slot_s * US)
        self.sample_us = round(scenario.sample_interval_s * US)
        self.horizon_us = round(scenario.horizon_s * US)
        self.epoch_us = round(scenario.policy.epoch_s * US)

        cell_hosts = {c.server_id for c in scenario.cells}
        partitions = orch.initial_partitions(
            scenario.policy, list(scenario.servers), cell_hosts
        )
        self.state = orch.build_cluster_state(
            list(scenario.servers), scenario.policy, partitions
        )
        self.state.slot_us = self.slot_us
        self.state.hooks = _Hooks(self)

        self.heap: list = []
        self.seq = 0
        self.events: list[EventRecord] = []
        self.miss_sink: list = []
        self.fabric_events: list[EventRecord] = []
        self.trace: list[TraceRecord] = []
        self.next_sample_us = 0
        self.track_forecast = scenario.policy.is_dynamic

        self.demand = build_demand(scenario)
        self._seed_jobs()
        self._schedule_initial_events()

        self.topology = scenario.build_topology()
        self._cell_samplers = [
            (c, c.profile.sampler()) for c in scenario.cells
        ]
        self._route_fabric(0.0)

    # -- construction helpers ------------------------------------------------

    def _seed_jobs(self):
        for wi, workload in enumerate(self.scenario.ai_workloads):
            seed = mix_seed(self.scenario.seed, wi)
            for job in gen_ai_arrivals(workload, seed, self.scenario.horizon_s):
                t_us = round(job.arrival_time * US)
                job.arrival_time = t_us / US  # quantize to the event clock
                job.accrued_until_us = t_us
                self.state.jobs[job.id] = job
                self._push(t_us, EventKind.JOB_ARRIVAL, (job.id,))

    def _schedule_initial_events(self):
        policy = self.scenario.policy
        if policy.is_dynamic:
            self._push(0, EventKind.POLICY_EPOCH, ())
        elif policy.kind is PolicyKind.TIME_SPLIT:
            # the first interval's layout is already the initial partition
            for start, _end, _ran in policy.schedule[1:]:
                t_us = round(start * US)
                if t_us < self.horizon_us:
                    self._push(t_us, EventKind.POLICY_EPOCH, ())
        for cell in self.scenario.cells:
            if cell.profile.kind is ProfileKind.TRACE:
                for t, _v in cell.profile.points:
                    t_us = round(t * US)
                    if 0 < t_us < self.horizon_us:
                        self._push(t_us, EventKind.PROFILE_CHANGE, ())

    # -- event plumbing --------------------------------------------------------

    def _push(self, t_us: int, kind: EventKind, payload: tuple = ()):
        if t_us < self.state.clock_us:
            raise EventInPast(
                f"{kind.name} at {t_us} us is before the clock ({self.state.clock_us} us)"
            )
        self.seq += 1
        heappush(self.heap, (t_us, kind.value, self.seq, kind, payload))

    def _accrue_job(self, job: AiJob, now_us: int):
        dt = now_us - job.accrued_until_us
        if dt > 0:
            if job.service_rate > 0.0 and math.isfinite(job.remaining_compute_seconds):
                done = job.service_rate * (dt / US)
                rem = job.remaining_compute_seconds - done
                job.remaining_compute_seconds = rem if rem > 0.0 else 0.0
            job.accrued_until_us = now_us

    def _schedule_completion(self, job: AiJob):
        if (
            job.state is JobState.RUNNING
            and job.service_rate > 1e-12
            and math.isfinite(job.remaining_compute_seconds)
        ):
            dt_us = math.ceil(job.remaining_compute_seconds / job.service_rate * US)
            self._push(
                self.state.clock_us + max(dt_us, 0),
                EventKind.JOB_COMPLETION,
                (job.id, job.version),
            )

    # -- fabric ------------------------------------------------------------------

    def _route_fabric(self, t_s: float):
        flows = list(self.scenario.static_flows)
        fh = self.scenario.topology.fronthaul
        for cell, sampler in self._cell_samplers:
            rate = fabric_mod.fronthaul_rate(cell.config, fh) * sampler(t_s)
            flows.append(
                flow(f"fh-{cell.id}", f"ru-{cell.id}", cell.server_id, rate, FlowKind.FRONTHAUL)
            )
        _loads, violations = fabric_mod.route_flows(self.topology, flows)
        for v in violations:
            self.fabric_events.append(
                EventRecord(
                    t_s,
                    "capacity",
                    v.link_id,
                    f"load={v.load_gbps:.6f} capacity={v.capacity_gbps:.6f}",
                )
            )

    # -- sampling -----------------------------------------------------------------

    def _emit_samples(self, ran: list[float], ai: list[float], count: int = 1):
        """Record the next ``count`` samples at per-GPU levels (``state.gpus`` order)."""
        rows = [
            (gpu, gpu.device.id, round(r, 6), round(a, 6))
            for gpu, r, a in zip(self.state.gpus, ran, ai)
        ]
        append = self.trace.append
        for _ in range(count):
            t_s = self.next_sample_us / US
            for gpu, gpu_id, r, a in rows:
                ann = ""
                if gpu.annotations:
                    ann = ";".join(f"{k}:{v}" for k, v in sorted(gpu.annotations.items()))
                    gpu.annotations.clear()
                append(TraceRecord(t_s, gpu_id, r, a, ann))
            self.next_sample_us += self.sample_us

    def _flush_samples(self, before_us: int):
        gpus = self.state.gpus
        while self.next_sample_us < before_us and self.next_sample_us <= self.horizon_us:
            self._emit_samples([g.ran_level for g in gpus], [g.ai_level for g in gpus])

    # -- dispatch -------------------------------------------------------------------

    def _process_slot(self, t_us: int):
        self.state.clock_us = t_us
        t_s = t_us / US
        demands = [f(t_s) for f in self.demand.scalar]
        settle_slot(self.state, t_s, demands, self.miss_sink, self.track_forecast)

    def _settle(self, first_us: int, count: int) -> int:
        """Settle up to ``count`` slots from ``first_us``; returns how many settled.

        Samples due before the segment's last slot see only slot
        settlements, so they are recorded from the segment's levels; the
        rest wait for the events at or after that slot.
        """
        last_us = first_us + (count - 1) * self.slot_us
        return settle_segment(
            self.state, first_us, count, self.demand, self.miss_sink,
            self.track_forecast, range(self.next_sample_us, last_us, self.sample_us),
            self._emit_samples,
        )

    def _placement_round(self):
        state = self.state
        if state.queue:
            decision = plan_placement(state.pending, state, state.policy)
            for job_id, (srv_id, gpu_id, inst_id, fraction) in decision.assignments.items():
                gpu = state.gpu_by_id(gpu_id)
                start_job(state, state.jobs[job_id], srv_id, gpu, inst_id, fraction)
        if state.queue:
            for srv in state.servers:
                for gpu in srv.gpus:
                    if gpu.settling_until_us > state.clock_us:
                        continue
                    budget = orch._gpu_budget(state, gpu)
                    if budget > 1e-9:
                        backfill_queue(state, gpu, budget)

    def _dispatch(self, kind: EventKind, payload: tuple, t_us: int):
        state = self.state
        t_s = t_us / US
        if kind is EventKind.POLICY_EPOCH:
            prev_ceilings = {
                gpu.device.id: gpu.ai_ceiling
                for srv in state.servers
                for gpu in srv.gpus
            }
            actions = policy_epoch(state, state.policy, t_s)
            apply_actions(state, actions)
            for srv in state.servers:
                for gpu in srv.gpus:
                    if gpu.ai_ceiling != prev_ceilings[gpu.device.id]:
                        self.events.append(
                            EventRecord(
                                t_s,
                                "ceiling",
                                gpu.device.id,
                                f"value={gpu.ai_ceiling:.6f} "
                                f"ai={gpu.ai_hard + gpu.ai_free:.6f}",
                            )
                        )
            self._placement_round()
            if state.policy.is_dynamic:
                nxt = t_us + self.epoch_us
                if nxt < self.horizon_us:
                    self._push(nxt, EventKind.POLICY_EPOCH, ())
        elif kind is EventKind.JOB_ARRIVAL:
            job = state.jobs[payload[0]]
            if job.state is JobState.QUEUED and job.id not in state.queued:
                bound = state.policy.queue_bound
                if bound is not None and len(state.queue) >= bound:
                    job.state = JobState.REJECTED
                    self.events.append(
                        EventRecord(t_s, "reject", job.id, "queue bound exceeded")
                    )
                else:
                    state.enqueue(job)
                    self.events.append(
                        EventRecord(
                            t_s,
                            "arrival",
                            job.id,
                            f"size={job.size_compute_seconds:.6f} "
                            f"demand={job.demand_fraction:.6f}",
                        )
                    )
            self._placement_round()
        elif kind is EventKind.JOB_COMPLETION:
            job_id, version = payload
            job = state.jobs[job_id]
            if job.version != version or job.state is not JobState.RUNNING:
                return  # stale completion from a superseded rate
            self._accrue_job(job, t_us)
            gpu = state.gpu_by_id(job.gpu_id)
            job.remaining_compute_seconds = 0.0
            job.state = JobState.DONE
            job.completion_time = t_s
            job.service_rate = 0.0
            job.version += 1
            orch._release_grant(state, gpu, job, job.granted_fraction)
            gpu.jobs.remove(job)
            orch._refresh_effective(state, gpu)
            self.events.append(
                EventRecord(t_s, "completion", job.id, f"gpu={gpu.device.id}")
            )
            self._placement_round()
        elif kind is EventKind.PROFILE_CHANGE:
            self._route_fabric(t_s)
            self.events.append(EventRecord(t_s, "reroute", "-", "profile step"))
        elif kind is EventKind.REPARTITION_SETTLED:
            gpu = state.gpu_by_id(payload[0])
            if gpu.settling_until_us <= t_us:
                self.events.append(
                    EventRecord(t_s, "settled", gpu.device.id, "slices accepting work")
                )
                self._placement_round()

    def step(self, event: SimEvent) -> list[SimEvent]:
        """Process one event; returns events it scheduled (testing hook)."""
        before = {entry[2] for entry in self.heap}
        t_us = round(event.time_s * US)
        self._flush_samples(t_us)
        self.state.clock_us = t_us
        if event.kind is EventKind.SLOT_BOUNDARY:
            self._process_slot(t_us)
        else:
            self._dispatch(event.kind, event.payload, t_us)
        emitted = sorted(e for e in self.heap if e[2] not in before)
        return [
            SimEvent(t / US, seq, kind, payload) for t, _p, seq, kind, payload in emitted
        ]

    # -- main loop ---------------------------------------------------------------

    def run(self) -> MetricsReport:
        state = self.state
        horizon_us = self.horizon_us
        slot_us = self.slot_us
        heap = self.heap
        next_slot = 0
        while True:
            head = heap[0] if heap else None
            if next_slot < horizon_us and (head is None or next_slot <= head[0]):
                # a segment: every slot up to and including the next event's time
                end_us = horizon_us if head is None else min(head[0] + 1, horizon_us)
                count = -((next_slot - end_us) // slot_us)
                self._flush_samples(next_slot)
                next_slot += slot_us * self._settle(next_slot, count)
                continue
            if head is None:
                break
            t_us, _prio, _seq, kind, payload = heappop(heap)
            if t_us > horizon_us:
                break
            self._flush_samples(t_us)
            state.clock_us = t_us
            self._dispatch(kind, payload, t_us)
        state.clock_us = horizon_us
        self._flush_samples(horizon_us + 1)
        for srv in state.servers:
            for gpu in srv.gpus:
                gpu.accrue(horizon_us)
        for job in state.jobs.values():
            if job.state is JobState.RUNNING:
                self._accrue_job(job, horizon_us)
        return self._report()

    def _report(self) -> MetricsReport:
        state = self.state
        # shortfalls and stats are rounded to their serialized precision so
        # RECORDS output round-trips losslessly
        misses = [DeadlineMiss(t, sid, round(sf, 9)) for t, sid, sf in self.miss_sink]
        jobs = list(state.jobs.values())
        waits = [
            j.first_start_time - j.arrival_time
            for j in jobs
            if j.first_start_time is not None
        ]
        turnarounds = [
            j.completion_time - j.arrival_time
            for j in jobs
            if j.completion_time is not None
        ]
        job_stats = JobStats(
            completed=sum(1 for j in jobs if j.state is JobState.DONE),
            preempted_events=sum(j.preempt_count for j in jobs),
            rejected=sum(1 for j in jobs if j.state is JobState.REJECTED),
            queued_at_end=sum(
                1 for j in jobs if j.state in (JobState.QUEUED, JobState.PREEMPTED)
            ),
            running_at_end=sum(1 for j in jobs if j.state is JobState.RUNNING),
            mean_wait_s=round(float(np.mean(waits)), 6) if waits else 0.0,
            p95_wait_s=round(float(np.percentile(waits, 95)), 6) if waits else 0.0,
            mean_turnaround_s=(
                round(float(np.mean(turnarounds)), 6) if turnarounds else 0.0
            ),
        )
        gpu_ids = tuple(g.id for s in self.scenario.servers for g in s.gpus)
        if self.trace:
            summary = summarize(self.trace, len(misses))
        else:
            summary = Summary({}, 0.0, len(misses))
        return MetricsReport(
            scenario_name=self.scenario.name,
            horizon_s=self.scenario.horizon_s,
            sample_interval_s=self.scenario.sample_interval_s,
            seed=self.scenario.seed,
            gpu_ids=gpu_ids,
            trace=self.trace,
            events=self.events,
            deadline_misses=misses,
            fabric_violations=self.fabric_events,
            job_stats=job_stats,
            summary=summary,
        )


def run(scenario: Scenario) -> MetricsReport:
    """Execute a scenario to its horizon; deterministic in (scenario, seed)."""
    return SimEngine(scenario).run()
