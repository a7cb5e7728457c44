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
* otherwise by slicing a RAN tape, the AI-independent RAN side of every
  slot, which is computed once per run of slots for the GPUs RAN reaches,
  at most ``CHUNK_CELLS`` (slot, GPU) cells, so memory does not grow with
  segment length; a slice adds only the throttle test, which it repeats
  only for the GPUs whose AI grant changed;
* under a split whose demand bound (``DemandModel.bound``) no RAN slice can
  miss, a segment longer than one tape, or one that runs to the horizon,
  puts on its tapes only the slots a report sees: its samples' slots and
  its last one.

A slot whose throttle test fires ends the segment (it may change job rates
and schedule events). RAN demand comes from the one evaluator
``DemandModel.vector``, which gives a time the same bits however times are
batched, so how a slot is settled never shows in the output.

Under the dynamic policy with stepwise demand, the policy soon reaches a
fixed point, and the epochs after it change nothing. An epoch is
quiescent when it finds every GPU's forecast inputs fixed, takes no
action, logs no event and leaves no GPU throttled (``_dispatch`` returns
True; no dynamic GPU ever settles). The next epoch would then find the same
state, unless something comes first: another heap event (a preempted
job's resume is one) or a change of demand at the next slot (a trace
point in (0, 0.5) us has no event). So ``run`` moves the next epoch to the
first grid time at or after the earliest of these (``_skip_quiet_epochs``), or
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
with its typed fields, unformatted, and settlement appends every slot miss
to ``state.misses``. The report takes both lists, holding their numbers at
the precision RECORDS writes; its notes are counted from them at the end
(``_close_trace``). Only the RECORDS writer formats an event or a note.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop

import numpy as np

from . import fabric as fabric_mod
from . import orchestrator as orch
from .compute import Server, partition_gpu
from .errors import CalibrationOverflow, EmptyTrace, GranularityViolation, ScenarioInvalid
from .fabric import FabricTopology, Flow, FlowKind, FronthaulCalibration
from .orchestrator import (
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
    US,
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

# the events that note the trace: each on its GPU's next sample
NOTED_EVENTS = frozenset(("preempt", "trim", "repartition"))


@dataclass(frozen=True)
class TraceRecord:
    time_s: float
    gpu_id: str
    ran_fraction: float
    ai_fraction: float


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
    out = np.rint(scaled)
    with np.errstate(invalid="ignore"):  # inf - rint(inf) is nan: the slow path
        scaled -= out  # exact: within a factor 2 of each other, or one is 0
        exact = (np.abs(scaled, out=scaled) < 0.5 - 1e-6) & (np.abs(x) < 1e3)
    out /= 1e6
    if not exact.all():
        slow = ~exact
        out[slow] = [round(v, 6) for v in x[slow].tolist()]
    return out


class Trace:
    """The utilization trace, as columns: one row per GPU per sample.

    ``times[s]`` is sample ``s``'s time in seconds; ``ran[s, g]`` and
    ``ai[s, g]`` are GPU ``gpu_ids[g]``'s levels then. ``len()`` counts
    rows; iteration yields them as ``TraceRecord`` in time order, GPUs in
    ``gpu_ids`` order within a sample.
    """

    def __init__(self, gpu_ids, times, ran, ai):
        self.gpu_ids = tuple(gpu_ids)
        self.times = np.asarray(times, dtype=float)
        shape = (self.times.size, len(self.gpu_ids))
        self.ran = np.asarray(ran, dtype=float).reshape(shape)
        self.ai = np.asarray(ai, dtype=float).reshape(shape)

    def __len__(self) -> int:
        return self.ran.size

    def __iter__(self) -> Iterator[TraceRecord]:
        for t, ran, ai in zip(self.times.tolist(), self.ran.tolist(), self.ai.tolist()):
            for gpu_id, r, a in zip(self.gpu_ids, ran, ai):
                yield TraceRecord(t, gpu_id, r, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        # by bit pattern: a level's zero sign is data (the RECORDS writer keeps it)
        return self.gpu_ids == other.gpu_ids and all(
            np.array_equal(a.view(np.int64), b.view(np.int64))
            for a, b in ((self.times, other.times), (self.ran, other.ran), (self.ai, other.ai))
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
        if not self.horizon_s > 0:
            problems.append("sim.horizon_s must be positive")
        elif self.horizon_s == math.inf:
            problems.append("sim.horizon_s must be finite")
        if not self.sample_interval_s >= self.slot_s - 1e-12:
            problems.append("sim.sample_interval_s must be >= the slot duration")
        elif self.sample_interval_s == math.inf:
            problems.append("sim.sample_interval_s must be finite")
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
            if abs(sched[0][0]) > 1e-9:
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
        """Every target GPU must cut each (RAN share, AI share) layout the split gives it."""
        policy = self.policy
        if policy.kind is PolicyKind.STATIC_SPLIT:
            layouts = [(policy.ran_fraction, policy.ai_fraction)]
        elif policy.kind is PolicyKind.TIME_SPLIT:
            layouts = dict.fromkeys((ran, 1.0 - ran) for _s, _e, ran in policy.schedule)
        else:
            return []
        devices = {g.id: g for s in self.servers for g in s.gpus}
        cell_hosts = {c.server_id for c in self.cells}
        problems = []
        targets = orch.split_targets(policy, self.servers, cell_hosts)
        # an unknown gpu is reported as a problem of its own
        for gpu in (devices[gid] for gid in targets if gid in devices):
            for ran, ai in layouts:
                try:
                    partition_gpu(gpu, ran, ai)
                except GranularityViolation as exc:
                    problems.append(f"policy: {exc}")
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
    """One run's outputs. The summary is derived from the trace when it is read.

    ``notes`` counts what happened to a GPU since the previous sample, keyed
    by (sample, GPU index, kind): slot misses (on the server's first GPU)
    and the ``NOTED_EVENTS``. Every count is positive.
    """

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
    notes: Counter[tuple[int, int, str]] = field(default_factory=Counter)

    @cached_property
    def summary(self) -> Summary:
        return summarize(self.trace) if len(self.trace) else Summary({}, 0.0)


def mix_seed(base_seed: int, index: int) -> int:
    """Stable 64-bit seed mixer (splitmix64 finalizer) for sub-streams."""
    z = (base_seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _fleet_demand(terms: list[list[tuple[float, LoadProfile]]], floor: float):
    """Every server's demand as one ``times -> (servers, times)`` array, and a bound on it.

    Row ``i`` adds server ``i``'s terms in order to 0.0 and floors the sum;
    a server with fewer terms than another adds ``0.0 * load``, which
    leaves its sum unchanged. Each distinct profile is evaluated once. The
    bound, one per server, is the same sum and floor of each profile's
    ``bound``: a peak is positive, so every operation there is monotone in
    a load, and the bound is at least each time's demand, bit for bit (a
    server's missing terms add 0.0, which changes no sum).
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

    bound = []
    for server_terms in terms:
        total = 0.0  # the same double operations as vector's, on each profile's bound
        for peak, profile in server_terms:
            total = total + peak * profile.bound
        bound.append(total if total > floor else floor)
    return vector, np.array(bound)


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
    vector, bound = _fleet_demand(terms, floor)
    return DemandModel(
        vector=vector,
        stepwise=all(
            c.profile.kind is not ProfileKind.DIURNAL_SINUSOID for c in scenario.cells
        ),
        bound=bound,
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


def _fsum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` of a float64 vector, bit for bit (see ``summarize``)."""
    m = x.size.bit_length()  # n < 2**m
    partials: list[float] = []
    while 2.0**-900 <= (top := max(float(x.max()), -float(x.min()))) < 2.0 ** (1000 - m):
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        q = (x + sigma) - sigma  # exact: multiples of sigma * 2**-53, none above 2**e
        partials.append(float(q.sum()))  # exact in any order
        x = x - q  # exact, and at most sigma * 2**-53
    # a left-over x (inf and nan compare False) joins the partials, as does an
    # all-zero x with a -0.0: its sign is fsum's to decide
    if top != 0.0 or (not partials and np.signbit(x).any()):
        partials += x.tolist()
    return math.fsum(partials)


def summarize(trace: Trace) -> Summary:
    """Time-weighted summary of a utilization trace.

    The trace is a step function: each sample holds until the next one,
    and the final sample carries zero weight. Peaks and P95 are over the
    raw samples; a peak is its first sample, so of equal zeros the one
    Python's ``max`` keeps. Each average is ``math.fsum`` of the elementwise
    products, bit for bit, by error-free extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", 2008). With n < 2**m
    samples, max |x| below 2**e and s = 2**(e+m), q = (s + x) - s and
    x - q are exact; the q are multiples of 2**(e+m-53) no larger than
    2**e, so numpy sums them exactly in any order, and the remainder
    repeats this until it is zero. ``math.fsum`` of the partial sums rounds
    the exact sum, as ``math.fsum`` of the samples does. A non-finite
    sample, a max of 2**(1000-m) or more, a remainder below 2**-900 and
    all zeros with a -0.0 end in ``math.fsum`` of the partials and what
    remains: on the first pass, the samples, which raise as they would.
    """
    if not len(trace):
        raise EmptyTrace("cannot summarize an empty trace")
    weights = np.append(np.diff(trace.times), 0.0)
    span = _fsum(weights)
    per_gpu = {}
    for g, gpu_id in enumerate(trace.gpu_ids):
        ran, ai = trace.ran[:, g], trace.ai[:, g]
        totals = ran + ai
        if span <= 0.0:
            avg_ran, avg_ai, avg_total = float(ran[0]), float(ai[0]), float(totals[0])
        else:
            avg_ran = _fsum(weights * ran) / span
            avg_ai = _fsum(weights * ai) / span
            avg_total = _fsum(weights * totals) / span
        per_gpu[gpu_id] = GpuSummary(
            avg_ran=avg_ran,
            avg_ai=avg_ai,
            avg_total=avg_total,
            peak_total=float(totals[np.argmax(totals == totals.max())]),
            p95_total=p95(totals),
        )
    avg_total = math.fsum(g.avg_total for g in per_gpu.values()) / len(per_gpu)
    return Summary(per_gpu=per_gpu, avg_total=avg_total)


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
        self.state.slot_us, self.state.horizon_us = self.slot_us, self.horizon_us
        self.fabric_events: list[EventRecord] = []
        # no samples until run() allocates the whole trace
        self.trace = Trace([g.device.id for g in self.state.gpus], [], [], [])
        self.notes: Counter[tuple[int, int, str]] = Counter()
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
        # one reroute per step time: cells share profiles, and steps share microseconds
        traces = [c.profile for c in self.scenario.cells if c.profile.kind is ProfileKind.TRACE]
        for t_us in sorted({round(t * US) for p in traces for t, _v in p.points}):
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
            fields = {"load": v.load_gbps, "capacity": v.capacity_gbps}
            self.fabric_events.append(EventRecord(t_s, "capacity", v.link_id, fields))

    # -- sampling -----------------------------------------------------------------

    def _emit_samples(self, ran, ai, n: int, cols=None):
        """Record the next ``n`` samples of every GPU's raw levels.

        ``ran`` and ``ai`` list the levels in ``state.gpus`` order: one row
        for all ``n`` samples, or an (n, GPU) array. With ``cols``, ``ran``
        is (n, column) for those GPUs alone, and every other GPU's RAN
        level is 0.0.
        """
        s = self.next_sample_us // self.sample_us
        rows = slice(s, s + n)
        if cols is None:
            self.trace.ran[rows] = ran
        else:
            self.trace.ran[rows] = 0.0
            self.trace.ran[rows, cols] = ran
        self.trace.ai[rows] = ai
        self.next_sample_us += n * self.sample_us

    def _flush_samples(self, before_us: int):
        """Record every sample due before ``before_us``, up to the horizon, at the current levels."""
        last_us = min(before_us - 1, self.horizon_us)
        if self.next_sample_us <= last_us:
            fleet = self.state.fleet
            self._emit_samples(
                fleet.ran_level,
                fleet.ai_level,
                (last_us - self.next_sample_us) // self.sample_us + 1,
            )

    def _close_trace(self):
        """Round the recorded levels in place and count the notes.

        Each ``NOTED_EVENTS`` event at time t notes its GPU on the first
        sample at or after t; each slot miss notes its server's first GPU
        the same way. A note past the last sample is dropped.
        """
        trace = self.trace
        step = max(1, 16384 // max(1, len(trace.gpu_ids)))  # rows per block of temporaries
        for block in (a[s:s + step] for a in (trace.ran, trace.ai) for s in range(0, len(a), step)):
            block[...] = round6(block)
        state = self.state
        heads = {srv.server.id: srv.gpus[0].index for srv in state.servers}
        noted = [(t, heads[sid], "miss") for t, sid, _shortfall in state.misses]
        noted += [(ev.time_s, state.gpu_by_id(ev.subject).index, ev.kind) for ev in state.events
                  if ev.kind in NOTED_EVENTS]
        times, gpus, kinds = zip(*noted) if noted else ((), (), ())
        at = np.searchsorted(trace.times, times).tolist()
        counts = Counter(zip(at, gpus, kinds))
        self.notes = Counter({key: n for key, n in counts.items() if key[0] < trace.times.size})

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
            ceilings, granted = fleet.ai_ceiling.tolist(), fleet.ai_granted.tolist()
            for g in moved:
                state.log("ceiling", state.gpus[g].device.id, value=ceilings[g], ai=granted[g])
            placement_round(state)
            if policy.is_dynamic:
                nxt = t_us + self.epoch_us
                if nxt < self.horizon_us:
                    state.push(nxt, EventKind.POLICY_EPOCH, ())
            return (
                steady
                and len(state.events) == logged
                and not actions
                and not fleet.throttled.any()
            )
        elif kind is EventKind.JOB_ARRIVAL:
            job = state.jobs[payload[0]]
            if job.state is JobState.QUEUED:
                bound = state.policy.queue_bound
                if bound is not None and len(state.pending) >= bound:
                    job.state = JobState.REJECTED
                    state.log("reject", job.id)
                else:
                    state.enqueue(job)
                    state.log(
                        "arrival", job.id,
                        size=job.size_compute_seconds, demand=job.demand_fraction,
                    )
            elif job.state is JobState.PREEMPTED:  # its resume delay is over
                state.enqueue(job)
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
            state.log("reroute", "-")
        elif kind is EventKind.REPARTITION_SETTLED:
            gpu = state.gpu_by_id(payload[0])
            if state.fleet.settling_until_us.item(gpu.index) <= t_us:
                state.log("settled", gpu.device.id)
                placement_round(state)
        return False

    # -- main loop ---------------------------------------------------------------

    def _skip_quiet_epochs(self, next_slot: int):
        """Move the epoch after a quiescent one to where something can change.

        That is the first grid time at or after the earliest of: the next
        other heap event and ``next_slot`` if its demand differs from the
        last settled slot's. Past the horizon, no epoch is left.
        """
        state = self.state
        heap = state.heap
        if not heap or heap[0][3] is not EventKind.POLICY_EPOCH:
            return  # an event comes before the epoch just pushed, or none was pushed
        bound = min([self.horizon_us] + [entry[0] for entry in heap[1:3]])
        last, nxt = self.demand.vector(np.array([next_slot - self.slot_us, next_slot]) / US).T
        if (last != nxt).any():
            bound = min(bound, next_slot)
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
        state.fleet.tape = None  # every slot is settled: free the RAN tape
        self._flush_samples(horizon_us + 1)
        self._close_trace()
        accrue_all(state)
        return self._report()

    def _report(self) -> MetricsReport:
        state = self.state
        # shortfalls, event fields and stats are rounded to their serialized
        # precision so RECORDS output round-trips losslessly
        misses = [DeadlineMiss(t, sid, round(sf, 9)) for t, sid, sf in state.misses]
        for ev in state.events + self.fabric_events:
            fields = ev.fields
            for key, v in fields.items():
                if isinstance(v, list):  # a layout: (fraction, tenant class) pairs
                    fields[key] = [(round(f, 6), c) for f, c in v]
                elif not isinstance(v, str):
                    fields[key] = round(float(v), 6)
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
            notes=self.notes,
        )


def run(scenario: Scenario) -> MetricsReport:
    """Execute a scenario to its horizon; deterministic in (scenario, seed)."""
    return SimEngine(scenario).run()
