"""Deterministic discrete-event core.

The cluster state holds the event queue and the job clock
(``ClusterState.push``, ``orchestrator.set_rate``); the engine seeds the
queue, pops it in order, dispatches each event and settles the slots in
between. The clock is an integer microsecond counter; every event time is
quantized to it, which makes tie-breaking exact and runs reproducible byte
for byte. Heap events carry (time_us, kind_priority, seq) keys so that
simultaneous events follow the ``EventKind`` order: policy epoch < arrival
< completion < profile change < repartition settled.

Slot boundaries dominate the event count, so they never enter the heap.
Between two heap events slots differ only through RAN demand, so the main
loop settles them a segment at a time: every slot from the next unsettled
one up to and including the next event's time (capped at the horizon).
A slot at an event's time settles before the event, so the event sees that
slot's demand. ``orchestrator.settle_segment`` settles a segment with the result
of one ``settle_slot`` per slot, bit for bit:

* constant demand (constant and trace profiles between profile changes) in
  closed form: one ``settle_slot``, which every later slot repeats;
* otherwise with one array kernel over the fleet arrays, whatever the
  segment's length, in blocks of at most ``CHUNK_CELLS`` (slot, GPU)
  elements, so memory does not grow with segment length.

A slot whose throttle test fires ends the segment (it may change job rates
and schedule events). RAN demand comes from the one evaluator
``DemandModel.vector``, which gives a time the same bits however times are
batched, so how a slot is settled never shows in the output.

Under the dynamic policy with stepwise demand, the policy soon reaches a
fixed point, and the epochs after it change nothing. An epoch is
quiescent when it finds every GPU's forecast inputs fixed, applies only
``NO_OP``, logs no event and leaves no GPU throttled or settling
(``_dispatch`` returns True). The next epoch would then find the same
state, unless something comes first: another heap event, a change of
demand at the next slot (a trace point in (0, 0.5) us has no event), or a
queued job becoming eligible. So ``run`` moves the next epoch to the first
grid time at or after the earliest of these (``_skip_quiet_epochs``), or
drops it past the horizon, and the steady segments in between settle as
one. "At or after", not "after": a step at a grid time T changes the slot
at T, which settles before the epoch at T, so that epoch must run. The
epochs that run keep their grid times and the event order stays the same;
only the ``seq`` numbers of later pushes shift, which leaves every tie in
its order.

Utilization samples are flushed lazily: a sample at time t is recorded
once the clock moves strictly past t, so it reflects the state after every
event that fired at t. A sample due before a segment's last slot sees only
slot settlements, so the segment hands its levels over in blocks of
samples. The samples go into one columnar ``Trace``, preallocated by
``run``: every GPU's raw levels per sample, rounded to 6 decimals in one
pass at the end.

``ClusterState`` is the run's only log: ``state.log`` records every event
and settlement appends every slot miss to ``state.misses``. The report
takes both lists as they are; the trace's notes are derived from them at
the end (``_close_trace``).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop

import numpy as np

from . import fabric as fabric_mod
from . import orchestrator as orch
from .compute import Server
from .errors import CalibrationOverflow, EmptyTrace, ScenarioInvalid
from .fabric import FabricTopology, Flow, FlowKind, FronthaulCalibration
from .orchestrator import (
    ActionKind,
    DeadlineMiss,
    DemandModel,
    EventKind,
    EventRecord,
    Policy,
    PolicyKind,
    accrue_all,
    apply_actions,
    finish_job,
    placement_round,
    policy_epoch,
    settle_segment,
)
from .workload import (
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
# the events that note the trace: each on its GPU's next sample
NOTED_EVENTS = frozenset(("preempt", "trim", "repartition"))


@dataclass(frozen=True)
class TraceRecord:
    time_s: float
    gpu_id: str
    ran_fraction: float
    ai_fraction: float
    annotation: str = ""


def round6(x) -> np.ndarray:
    """``round(v, 6)`` of every element of ``x``: the same doubles as Python's.

    ``rint(v * 1e6) / 1e6`` rounds the scaled value to the integer Python
    rounds the exact decimal to, unless that value lies within 1e-6 of a
    tie (the product's rounding error is below 1e-7 for |v| < 1e3), and
    the division rounds that integer's quotient correctly, as Python's
    string round trip does. Near-ties, |v| >= 1e3 and non-finite values go
    through Python's ``round``.
    """
    x = np.asarray(x, dtype=float)
    scaled = x * 1e6
    out = np.rint(scaled) / 1e6
    with np.errstate(invalid="ignore"):  # inf - floor(inf) is nan: the slow path
        exact = (np.abs(x) < 1e3) & (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6)
    if not exact.all():
        slow = ~exact
        out[slow] = [round(v, 6) for v in x[slow].tolist()]
    return out


class Trace:
    """The utilization trace, as columns: one row per GPU per sample.

    ``times[s]`` is sample ``s``'s time in seconds; ``ran[s, g]`` and
    ``ai[s, g]`` are GPU ``gpu_ids[g]``'s levels then, and ``notes`` maps
    ``(s, g)`` to the row's annotation where it has one. ``len()`` counts
    rows; iteration yields them as ``TraceRecord`` in time order, GPUs in
    ``gpu_ids`` order within a sample.
    """

    def __init__(self, gpu_ids, times, ran, ai, notes=None):
        self.gpu_ids = tuple(gpu_ids)
        self.times = np.asarray(times, dtype=float)
        shape = (self.times.size, len(self.gpu_ids))
        self.ran = np.asarray(ran, dtype=float).reshape(shape)
        self.ai = np.asarray(ai, dtype=float).reshape(shape)
        self.notes: dict[tuple[int, int], str] = dict(notes or {})

    def __len__(self) -> int:
        return self.ran.size

    def __iter__(self) -> Iterator[TraceRecord]:
        notes = self.notes
        levels = zip(self.times.tolist(), self.ran.tolist(), self.ai.tolist())
        for s, (t, ran, ai) in enumerate(levels):
            for g, (gpu_id, r, a) in enumerate(zip(self.gpu_ids, ran, ai)):
                yield TraceRecord(t, gpu_id, r, a, notes.get((s, g), ""))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.gpu_ids == other.gpu_ids
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.ran, other.ran)
            and np.array_equal(self.ai, other.ai)
            and self.notes == other.notes
        )


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
        """Structural checks; empty list means the scenario can run.

        A scenario and all its parts are frozen, so the checks run once per
        scenario object: ``parse_scenario`` and ``SimEngine`` share them.
        """
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
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
            try:
                ran_peak_fraction(cell.config, self.calibration)
            except CalibrationOverflow as exc:
                problems.append(f"cell {cell.id}: {exc}")
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
        epoch_us = self.policy.epoch_s * US  # the event clock counts whole microseconds
        if self.policy.is_dynamic and (epoch_us < 1 or abs(epoch_us - round(epoch_us)) > 1e-6):
            problems.append(
                f"policy.epoch_s {self.policy.epoch_s} is not a positive whole number of us"
            )
        known_gpus = set(gpu_ids)
        for gid in self.policy.split_gpus:
            if gid not in known_gpus:
                problems.append(f"policy.gpus: unknown gpu {gid}")
        problems.extend(self._check_split_granularity())
        try:
            topo = self.fabric
        except Exception as exc:  # count/shape errors become violations
            problems.append(f"topology: {exc}")
            return tuple(problems)
        problems.extend(str(v) for v in fabric_mod.validate_topology(topo))
        return tuple(problems)

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
        problems = []
        for gid in orch.split_targets(policy, self.servers, cell_hosts):
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

    @cached_property
    def fabric(self) -> FabricTopology:
        """The reference fabric, built once per scenario object; nothing changes it."""
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
    trace: Trace
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


def _fleet_demand(terms: list[list[tuple[float, LoadProfile]]], floor: float):
    """Every server's demand as one ``times -> (servers, times)`` array.

    Row ``i`` adds server ``i``'s terms in order to 0.0 and floors the sum;
    a server with fewer terms than another adds ``0.0 * load``, which
    leaves its sum unchanged. Each distinct profile is evaluated once.
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
        vector=_fleet_demand(terms, floor),
        stepwise=all(
            c.profile.kind is not ProfileKind.DIURNAL_SINUSOID for c in scenario.cells
        ),
    )


def p95(values) -> float:
    """``float(np.percentile(values, 95))``, bit for bit, without calling it.

    numpy's default ``linear`` method: the order statistics at either side
    of the virtual index ``(n - 1) * 0.95``, found by the same
    ``partition`` call, blended as numpy's ``_lerp`` blends them (from the
    upper one when the weight is 0.5 or more). A single value is its own
    P95. ``np.percentile`` imports ``numpy.ma`` on first use, about 9 ms
    and 1 MB per process.
    """
    a = np.array(values, dtype=float)
    index = (a.size - 1) * 0.95
    if index >= a.size - 1:
        lo = hi = -1
    else:
        lo = math.floor(index)
        hi = lo + 1
    weight = index - lo
    a.partition(sorted({-1, 0, lo, hi}))
    below, above = float(a[lo]), float(a[hi])
    diff = above - below
    if weight >= 0.5:
        return above - diff * (1 - weight)
    return below + diff * weight


def summarize(trace: Trace, miss_count: int = 0) -> Summary:
    """Time-weighted summary of a utilization trace and a miss count.

    The trace is treated as a step function: each sample holds until the
    next one, and the final sample carries zero weight. Peaks and P95 are
    over the raw samples. Every average is an exact ``math.fsum`` of the
    elementwise products.
    """
    if not len(trace):
        raise EmptyTrace("cannot summarize an empty trace")
    weights = np.append(np.diff(trace.times), 0.0)
    span = math.fsum(weights.tolist())
    per_gpu = {}
    for g, gpu_id in enumerate(trace.gpu_ids):
        ran, ai = trace.ran[:, g], trace.ai[:, g]
        totals = ran + ai
        if span <= 0.0:
            avg_ran, avg_ai, avg_total = float(ran[0]), float(ai[0]), float(totals[0])
        else:
            avg_ran = math.fsum((weights * ran).tolist()) / span
            avg_ai = math.fsum((weights * ai).tolist()) / span
            avg_total = math.fsum((weights * totals).tolist()) / span
        per_gpu[gpu_id] = GpuSummary(
            avg_ran=avg_ran,
            avg_ai=avg_ai,
            avg_total=avg_total,
            peak_total=max(totals.tolist()),
            p95_total=p95(totals),
        )
    avg_total = math.fsum(g.avg_total for g in per_gpu.values()) / len(per_gpu)
    return Summary(per_gpu=per_gpu, avg_total=avg_total, miss_count=miss_count)


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
            list(scenario.servers), scenario.policy, partitions, cell_hosts=cell_hosts
        )
        self.state.slot_us = self.slot_us
        self.fabric_events: list[EventRecord] = []
        # no samples until run() allocates the whole trace
        self.trace = Trace([g.device.id for g in self.state.gpus], [], [], [])
        self.next_sample_us = 0

        self.demand = build_demand(scenario)
        self._seed_jobs()
        self._schedule_initial_events()

        self.topology = scenario.fabric
        self._cell_loads = [(c, c.profile.vector_sampler()) for c in scenario.cells]
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
                self.state.push(t_us, EventKind.JOB_ARRIVAL, (job.id,))

    def _schedule_initial_events(self):
        policy, push = self.scenario.policy, self.state.push
        if policy.is_dynamic:
            push(0, EventKind.POLICY_EPOCH, ())
        elif policy.kind is PolicyKind.TIME_SPLIT:
            # the first interval's layout is already the initial partition
            for start, _end, _ran in policy.schedule[1:]:
                t_us = round(start * US)
                if t_us < self.horizon_us:
                    push(t_us, EventKind.POLICY_EPOCH, ())
        for cell in self.scenario.cells:
            if cell.profile.kind is ProfileKind.TRACE:
                for t, _v in cell.profile.points:
                    t_us = round(t * US)
                    if 0 < t_us < self.horizon_us:
                        push(t_us, EventKind.PROFILE_CHANGE, ())

    # -- fabric ------------------------------------------------------------------

    def _route_fabric(self, t_s: float):
        flows = list(self.scenario.static_flows)
        fh = self.scenario.topology.fronthaul
        at = np.array([t_s])
        for cell, load in self._cell_loads:
            rate = fabric_mod.fronthaul_rate(cell.config, fh) * load(at).item()
            flows.append(
                Flow(f"fh-{cell.id}", f"ru-{cell.id}", cell.server_id, FlowKind.FRONTHAUL, rate)
            )
        _loads, violations = fabric_mod.route_flows(self.topology, flows)
        for v in violations:
            detail = orch.event_detail(load=v.load_gbps, capacity=v.capacity_gbps)
            self.fabric_events.append(EventRecord(t_s, "capacity", v.link_id, detail))

    # -- sampling -----------------------------------------------------------------

    def _emit_samples(self, ran, ai, n: int):
        """Record the next ``n`` samples of every GPU's raw levels.

        ``ran`` and ``ai`` list the levels in ``state.gpus`` order: one row
        for all ``n`` samples, or an (n, GPU) array.
        """
        s = self.next_sample_us // self.sample_us
        self.trace.ran[s:s + n] = ran
        self.trace.ai[s:s + n] = ai
        self.next_sample_us += n * self.sample_us

    def _flush_samples(self, before_us: int):
        """Record every sample due before ``before_us``, up to the horizon, at the current levels."""
        last_us = min(before_us - 1, self.horizon_us)
        if self.next_sample_us <= last_us:
            fleet = self.state.fleet
            self._emit_samples(
                fleet.ran_level,
                fleet.ai_hard + fleet.ai_free_eff,
                (last_us - self.next_sample_us) // self.sample_us + 1,
            )

    def _close_trace(self):
        """Round the recorded levels and note the samples.

        Each ``NOTED_EVENTS`` event at time t notes its GPU on the first
        sample at or after t; each slot miss notes its server's first GPU
        the same way. A row's note counts each kind: ``kind:<n>`` joined by
        ``;``, kinds sorted.
        """
        trace = self.trace
        trace.ran = round6(trace.ran)
        trace.ai = round6(trace.ai)
        state = self.state
        index = {gpu.device.id: g for g, gpu in enumerate(state.gpus)}
        heads = {srv.server.id: index[srv.gpus[0].device.id] for srv in state.servers}
        noted = [(t, heads[sid], "miss") for t, sid, _shortfall in state.misses]
        noted += [(ev.time_s, index[ev.subject], ev.kind) for ev in state.events
                  if ev.kind in NOTED_EVENTS]
        times, gpus, kinds = zip(*noted) if noted else ((), (), ())
        at = np.searchsorted(trace.times, times).tolist()
        rows: dict[tuple[int, int], dict[str, int]] = {}
        for (s, g, kind), count in Counter(zip(at, gpus, kinds)).items():
            if s < trace.times.size:
                rows.setdefault((s, g), {})[kind] = count
        trace.notes = {
            key: ";".join(f"{k}:{v}" for k, v in sorted(row.items()))
            for key, row in rows.items()
        }

    # -- dispatch -------------------------------------------------------------------

    def _settle(self, first_us: int, count: int) -> int:
        """Settle up to ``count`` slots from ``first_us``; returns how many settled.

        Samples due before the segment's last slot see only slot
        settlements, so they are recorded from the segment's levels; the
        rest wait for the events at or after that slot.
        """
        last_us = first_us + (count - 1) * self.slot_us
        return settle_segment(
            self.state, first_us, count, self.demand,
            range(self.next_sample_us, last_us, self.sample_us), self._emit_samples,
        )

    def _dispatch(self, kind: EventKind, payload: tuple, t_us: int) -> bool:
        """Handle one heap event; ``state.clock_us`` is ``t_us``.

        Returns True after a quiescent policy epoch (see the module
        docstring): no event logged means no ceiling changed and no job
        started.
        """
        state = self.state
        t_s = t_us / US
        if kind is EventKind.POLICY_EPOCH:
            policy, fleet = state.policy, state.fleet
            steady = policy.is_dynamic and self.demand.stepwise and orch.forecast_holds(state)
            logged = len(state.events)
            prev_ceilings = fleet.ai_ceiling.copy()
            actions = policy_epoch(state, t_s)
            apply_actions(state, actions)
            moved = np.flatnonzero(fleet.ai_ceiling != prev_ceilings).tolist()
            if moved:
                ceilings = fleet.ai_ceiling.tolist()
                granted = (fleet.ai_hard + fleet.ai_free).tolist()
                for g in moved:
                    state.log(
                        "ceiling", state.gpus[g].device.id, value=ceilings[g], ai=granted[g]
                    )
            placement_round(state)
            if policy.is_dynamic:
                nxt = t_us + self.epoch_us
                if nxt < self.horizon_us:
                    state.push(nxt, EventKind.POLICY_EPOCH, ())
            return (
                steady
                and len(state.events) == logged
                and all(a.kind is ActionKind.NO_OP for a in actions)
                and not fleet.throttled.any()
                and not (fleet.settling_until_us >= t_us).any()
            )
        elif kind is EventKind.JOB_ARRIVAL:
            job = state.jobs[payload[0]]
            if job.state is JobState.QUEUED and job.id not in state.queued:
                bound = state.policy.queue_bound
                if bound is not None and len(state.queue) >= bound:
                    job.state = JobState.REJECTED
                    state.log("reject", job.id, "queue bound exceeded")
                else:
                    state.enqueue(job)
                    state.log(
                        "arrival", job.id,
                        size=job.size_compute_seconds, demand=job.demand_fraction,
                    )
            placement_round(state)
        elif kind is EventKind.JOB_COMPLETION:
            job_id, version = payload
            job = state.jobs[job_id]
            if job.version != version or job.state is not JobState.RUNNING:
                return False  # stale completion from a superseded rate
            finish_job(state, job)
            placement_round(state)
        elif kind is EventKind.PROFILE_CHANGE:
            self._route_fabric(t_s)
            state.log("reroute", "-", "profile step")
        elif kind is EventKind.REPARTITION_SETTLED:
            gpu = state.gpu_by_id(payload[0])
            if gpu.settling_until_us <= t_us:
                state.log("settled", gpu.device.id, "slices accepting work")
                placement_round(state)
        return False

    # -- main loop ---------------------------------------------------------------

    def _skip_quiet_epochs(self, next_slot: int):
        """Move the epoch after a quiescent one to where something can change.

        That is the first grid time at or after the earliest of: the next
        other heap event, ``next_slot`` if its demand differs from the
        last settled slot's, and a time just before a queued job becomes
        eligible. Past the horizon, no epoch is left.
        """
        state = self.state
        heap = state.heap
        if not heap or heap[0][3] is not EventKind.POLICY_EPOCH:
            return  # an event comes before the epoch just pushed, or none was pushed
        bound = min([self.horizon_us] + [entry[0] for entry in heap[1:3]])
        last, nxt = self.demand.vector(np.array([next_slot - self.slot_us, next_slot]) / US).T
        if (last != nxt).any():
            bound = min(bound, next_slot)
        eligible_by = state.clock + orch.TOL
        for _arrival, job_id in state.queue:
            at = state.jobs[job_id].eligible_at_s
            if at > eligible_by:
                # no epoch before this time finds the job eligible
                bound = min(bound, math.floor((at - orch.TOL) * US) - 1)
        due = -(-bound // self.epoch_us) * self.epoch_us
        if due > heap[0][0]:
            heappop(heap)
            if due < self.horizon_us:
                state.push(due, EventKind.POLICY_EPOCH, ())

    def run(self) -> MetricsReport:
        state = self.state
        horizon_us = self.horizon_us
        slot_us = self.slot_us
        heap = state.heap
        n_samples = horizon_us // self.sample_us + 1
        shape = (n_samples, len(state.gpus))
        # glibc maps fresh pages for a block at or above its mmap threshold
        # and trims the heap top beyond twice it; the threshold only rises,
        # to the largest mapped block freed. Freeing 4 MiB here keeps the
        # settlement blocks' temporaries on reused heap pages, whatever ran before.
        np.empty(1 << 19)
        self.trace = Trace(
            self.trace.gpu_ids,
            np.arange(n_samples, dtype=np.int64) * self.sample_us / US,
            np.empty(shape),
            np.empty(shape),
        )
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
            if self._dispatch(kind, payload, t_us):
                self._skip_quiet_epochs(next_slot)
        state.clock_us = horizon_us
        self._flush_samples(horizon_us + 1)
        self._close_trace()
        accrue_all(state)
        return self._report()

    def _report(self) -> MetricsReport:
        state = self.state
        # shortfalls and stats are rounded to their serialized precision so
        # RECORDS output round-trips losslessly
        misses = [DeadlineMiss(t, sid, round(sf, 9)) for t, sid, sf in state.misses]
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
            p95_wait_s=round(p95(waits), 6) if waits else 0.0,
            mean_turnaround_s=(
                round(float(np.mean(turnarounds)), 6) if turnarounds else 0.0
            ),
        )
        gpu_ids = tuple(g.id for s in self.scenario.servers for g in s.gpus)
        if len(self.trace):
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
            events=state.events,
            deadline_misses=misses,
            fabric_violations=self.fabric_events,
            job_stats=job_stats,
            summary=summary,
        )


def run(scenario: Scenario) -> MetricsReport:
    """Execute a scenario to its horizon; deterministic in (scenario, seed)."""
    return SimEngine(scenario).run()
