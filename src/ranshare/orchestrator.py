"""Joint compute/communication orchestration over shared GPUs.

Three multi-tenancy policies:

* STATIC_SPLIT   - hard slices fixed at init (space sharing).
* TIME_SPLIT     - hard slices repartitioned on a wall-clock schedule
                   (time sharing), with a settling delay per repartition.
* DYNAMIC_BACKFILL - GPUs stay unpartitioned (one FREE slice); every epoch
                   the policy forecasts RAN demand per GPU and grants AI
                   the headroom below ``1 - forecast - safety_margin``,
                   reclaiming newest-first when the forecast rises.

Slot-level rule, shared by every policy: RAN demand is granted before AI
grants renew, so AI can never displace RAN inside a slot. A slot whose RAN
demand cannot be fully granted records a deadline miss.

``ClusterState`` also holds the run's event queue and its job clock. Every
rate change goes through ``set_rate``, which accrues the job's work to
``clock_us`` and queues its completion; a repartition queues the event
that ends its settling; ``finish_job`` retires a job at its completion.
The engine pops the queue and settles the slots between events.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Container, Iterable
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappush
from typing import NamedTuple

import numpy as np

from . import compute
from .compute import GpuDevice, GpuInstance, Server, TenantClass
from .errors import EventInPast, InvalidEpoch
from .workload import US, AiJob, JobState, SloClass

TOL = 1e-9


class PolicyKind(Enum):
    STATIC_SPLIT = "static_split"
    TIME_SPLIT = "time_split"
    DYNAMIC_BACKFILL = "dynamic_backfill"


class EventKind(Enum):
    """Queued event kinds; the value orders simultaneous events."""

    POLICY_EPOCH = 0
    JOB_ARRIVAL = 1
    JOB_COMPLETION = 2
    PROFILE_CHANGE = 3
    REPARTITION_SETTLED = 4


class ForecastKind(Enum):
    LAST_VALUE = "last_value"
    MAX_OVER_WINDOW = "max_over_window"


class Interval(NamedTuple):
    """One entry of a time-split schedule."""

    start_s: float
    end_s: float
    ran_fraction: float


@dataclass(frozen=True)
class Policy:
    kind: PolicyKind
    ran_fraction: float = 0.0
    ai_fraction: float = 0.0
    split_gpus: tuple[str, ...] = ()  # empty: see split_targets
    schedule: tuple[Interval, ...] = ()
    epoch_s: float = 0.1
    safety_margin: float = 0.05
    forecast: ForecastKind = ForecastKind.MAX_OVER_WINDOW
    window_s: float = 0.2
    queue_bound: int | None = None
    resume_delay_s: float = 0.0
    settle_slots: int = 1

    def __post_init__(self):
        object.__setattr__(self, "schedule", tuple(Interval(*iv) for iv in self.schedule))
        if not self.resume_delay_s >= 0:
            raise ValueError("resume_delay_s must be >= 0")
        if self.settle_slots < 0:
            raise ValueError("settle_slots must be >= 0")
        if self.queue_bound is not None and self.queue_bound < 0:
            raise ValueError("queue_bound must be >= 0")
        if self.kind is PolicyKind.STATIC_SPLIT:
            if not (self.ran_fraction >= 0 and self.ai_fraction >= 0):
                raise ValueError("split fractions must be >= 0")
            if self.ran_fraction + self.ai_fraction > 1.0 + TOL:
                raise ValueError("static split fractions exceed 1.0")
        elif self.kind is PolicyKind.TIME_SPLIT:
            if not self.schedule:
                raise ValueError("time split needs a schedule")
            prev_end = None
            for start, end, ran in self.schedule:
                if not end > start:
                    raise ValueError("schedule interval must have end > start")
                if not 0.0 <= ran <= 1.0:
                    raise ValueError("schedule ran_fraction must be in [0, 1]")
                if prev_end is not None and start < prev_end - TOL:
                    raise ValueError("schedule intervals overlap")
                prev_end = end
        else:
            if not self.epoch_s > 0:
                raise ValueError("epoch_s must be positive")
            if not 0.0 <= self.safety_margin < 1.0:
                raise ValueError("safety_margin must be in [0, 1)")
            if self.forecast is ForecastKind.MAX_OVER_WINDOW and not self.window_s > 0:
                raise ValueError("window_s must be positive")

    @property
    def is_dynamic(self) -> bool:
        return self.kind is PolicyKind.DYNAMIC_BACKFILL


class ActionKind(Enum):
    GRANT_AI = "GRANT_AI"
    RECLAIM_AI = "RECLAIM_AI"
    REPARTITION = "REPARTITION"


@dataclass(frozen=True)
class ScaleAction:
    kind: ActionKind
    gpu_id: str = ""
    fraction: float = 0.0  # a grant's change; for REPARTITION the new RAN share, AI the rest


@dataclass(frozen=True)
class EventRecord:
    """An event or fabric row with its ``fields`` as logged: ids, numbers, layout pairs."""

    time_s: float
    kind: str
    subject: str
    fields: dict


@dataclass(frozen=True)
class DeadlineMiss:
    time_s: float
    server_id: str
    shortfall: float


@dataclass
class PlacementDecision:
    assignments: dict[str, tuple[str, float]] = field(default_factory=dict)  # job -> (GPU, grant)


_INTERACTIVE_RANK, _BATCH_RANK = 0, 1


def _order_entry(job: AiJob) -> tuple:
    """Sort entry giving a job's place in the placement order."""
    if job.slo_class is SloClass.INTERACTIVE:
        return (_INTERACTIVE_RANK, job.arrival_time, job.id, job)
    return (_BATCH_RANK, -job.demand_fraction, job.id, job)


class PlacementOrder:
    """Jobs in the order ``plan_placement`` offers them.

    INTERACTIVE jobs come first by (arrival, id), then BATCH jobs
    first-fit-decreasing by (-demand, id). Entries are
    ``(rank, key, id, job)`` tuples. ``ClusterState.pending`` keeps one for
    the queue, whose ids are unique, so ``add`` never compares two jobs; it
    is updated as jobs enter and leave the queue, so a placement round
    never sorts the queue.
    """

    __slots__ = ("entries",)

    def __init__(self, jobs=()):
        # a caller's list may name a job twice: sort on the key alone
        self.entries = sorted((_order_entry(j) for j in jobs), key=lambda e: e[:3])

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, job: AiJob):
        bisect.insort(self.entries, _order_entry(job))

    def remove(self, job: AiJob):
        entry = _order_entry(job)
        i = bisect.bisect_left(self.entries, entry[:3])
        if i == len(self.entries) or self.entries[i][3] is not job:
            raise KeyError(job.id)
        del self.entries[i]


class Fleet:
    """Every GPU's per-slot settlement state, one array per field, in ``ClusterState.gpus`` order.

    These arrays are the one store of every number per GPU: GPU ``g``'s
    element of ``name`` is ``fleet.name[g]``, ``g`` being its
    ``GpuState.index``. Slice-size caches (``ai_cap``, ``grid_cap``) change
    only at events, in ``refresh_caches`` and ``_repartition_gpu``, and are
    0.0 while a GPU settles. The slot levels, the AI grant, the throttle
    flag, the AI ceiling, the forecast inputs and the AI level integral
    change wherever the orchestrator changes them, one element at a time or
    as whole arrays. ``ai_ceiling`` caps each GPU's AI grant for placement:
    each dynamic epoch's ``1 - forecast - safety_margin`` (1.0 before the
    first), and +inf under a split, where ``ai_ceiling - ai_granted`` is +inf.

    The AI level integral has its own clock (``ai_accrue_us``: the time up
    to which it is accrued). It accrues where the AI level may change: a
    grant change, a throttle, a refresh, and the horizon.

    The forecast inputs are ``demand_last`` (the last settled slot's RAN
    demand), ``epoch_max`` (its maximum this policy epoch) and ``history``
    (under the dynamic policy, the past ``window - 1`` epochs' maxima,
    oldest row first; ``-inf`` in a row not yet filled never equals a
    demand nor wins a max). ``min_grant`` is each GPU's partition granularity.

    ``tape`` is the ``RanTape`` that ``settle_segment`` slices, or None
    until the next segment builds one: ``refresh_caches`` drops it, since
    the tape holds the RAN side under the capacities it was built with,
    which hold while it lives. The tape covers only the GPUs its ``cols``
    name; settling it reads and writes these arrays at ``cols``, and every
    other GPU's RAN level stays as it is. ``cannot_miss`` is the verdict of
    ``_cannot_miss`` at these capacities, or None until a segment asks;
    ``refresh_caches`` drops it with the tape.

    ``ai_granted`` is what a GPU's AI slice has granted, so its AI capacity
    left is ``ai_cap - ai_granted``, and ``ai_level`` is the rate AI runs
    at. The two are equal unless the policy is dynamic: there RAN and AI
    share the whole GPU, and each slot caps AI at ``ai_cap - ran_level``,
    what RAN left (``throttled`` while the cap is below the grant).

    ``grid_cap`` is the capacity RAN demand meets on each (server, GPU
    position): the GPU's RAN slices, or under the dynamic policy the whole
    GPU, and 0 where a server has no GPU at that position or its GPU
    settles. ``grid_rows`` is each GPU's flat index in that grid and
    ``last_rows`` each server's last GPU.
    """

    __slots__ = (
        "ai_cap", "grid_cap", "grid_rows", "last_rows", "server_ids", "ran_level",
        "ai_granted", "ai_level", "throttled", "demand_last",
        "epoch_max", "history", "min_grant", "ai_ceiling", "ai_integral", "ai_accrue_us",
        "tape", "cannot_miss",
    )

    def __init__(self, servers: list[ServerState], policy: Policy):
        sizes = [len(srv.gpus) for srv in servers]
        n, width = sum(sizes), max(sizes, default=0)
        self.server_ids = [srv.server.id for srv in servers]
        self.grid_cap = np.zeros((len(servers), width))
        self.grid_rows = np.array(
            [s * width + p for s, size in enumerate(sizes) for p in range(size)], dtype=np.intp
        )
        self.last_rows = np.cumsum(sizes) - 1
        for name in (
            "ai_cap", "ran_level", "ai_granted", "ai_level", "demand_last", "epoch_max",
            "ai_integral",
        ):
            setattr(self, name, np.zeros(n))
        self.history = np.full((_window(policy) - 1 if policy.is_dynamic else 0, n), -np.inf)
        self.min_grant = np.array([g.device.partition_granularity for s in servers for g in s.gpus])
        self.ai_ceiling = np.full(n, 1.0 if policy.is_dynamic else math.inf)
        self.throttled = np.zeros(n, dtype=bool)
        self.ai_accrue_us = np.zeros(n, dtype=np.int64)
        self.tape = self.cannot_miss = None  # see settle_segment


@dataclass
class GpuState:
    """One GPU's jobs and slices; its levels, grant and forecast inputs live in the fleet arrays.

    ``index`` is the GPU's element in each ``Fleet`` array, set by
    ``ClusterState``. ``ai_slice`` is the one slice AI jobs may use under
    the policy, or None: the whole-GPU FREE slice under the dynamic policy,
    the AI slice under a split, None while it settles. Every job runs in it.
    """

    device: GpuDevice
    instances: list[GpuInstance]
    jobs: list[AiJob] = field(default_factory=list)
    ai_slice: GpuInstance | None = field(default=None, init=False)  # set by refresh_caches
    generation: int = 0  # repartitions so far, which a settled event names
    index: int = -1

    def refresh_caches(self, fleet: Fleet, dynamic: bool):
        """Recompute the GPU's slice caches in ``fleet`` and drop the RAN tape; its grant stays.

        ``dynamic``: the dynamic policy, under which the GPU is one whole
        FREE slice that RAN and AI share, RAN first. Otherwise RAN meets the
        RAN slice and AI uses the AI slice; ``partition_gpu`` cuts at most
        one slice of each class; a GPU's current settled event calls it.
        """
        ai_class = TenantClass.FREE if dynamic else TenantClass.AI
        self.ai_slice = next((i for i in self.instances if i.tenant_class is ai_class), None)
        ai_cap = self.ai_slice.compute_fraction if self.ai_slice else 0.0
        g = self.index
        fleet.ai_cap[g] = ai_cap
        fleet.grid_cap.flat[fleet.grid_rows[g]] = (
            ai_cap if dynamic else _ran_units(self) / self.device.total_units
        )
        fleet.tape = fleet.cannot_miss = None


def _ran_units(gpu: GpuState) -> int:
    """The size of the GPU's RAN slice in units, 0 without one."""
    return next((i.units for i in gpu.instances if i.tenant_class is TenantClass.RAN), 0)


@dataclass
class ServerState:
    server: Server
    gpus: list[GpuState]


@dataclass
class ClusterState:
    """The cluster's scheduling state, its event queue and its run log.

    ``fleet`` holds every GPU's settlement state as arrays in ``gpus``
    order, so that settlement reads and writes the whole fleet at once.
    """

    servers: list[ServerState]
    policy: Policy
    jobs: dict[str, AiJob] = field(default_factory=dict)
    clock_us: int = 0
    slot_us: int = 500
    horizon_us: float = math.inf  # no slot at or past it settles
    cell_hosts: frozenset[str] = frozenset()  # ids of the servers that host a cell
    # the queue, changed only by enqueue/dequeue: its jobs in placement order,
    # and its BATCH jobs alone as (arrival, id) in arrival order, for backfill
    pending: PlacementOrder = field(init=False, default_factory=PlacementOrder)
    batch_queue: list[tuple[float, str]] = field(init=False, default_factory=list)
    # the run log: every event, and every slot miss as (t_s, server id, shortfall)
    events: list[EventRecord] = field(init=False, default_factory=list)
    misses: list[tuple[float, str, float]] = field(init=False, default_factory=list)
    # the event queue: (t_us, kind value, seq, kind, payload) entries
    heap: list[tuple] = field(init=False, default_factory=list)
    seq: int = field(init=False, default=0)
    # every GPU, servers in order and each server's GPUs in order
    gpus: list[GpuState] = field(init=False, repr=False, default_factory=list)
    _gpus: dict[str, GpuState] = field(init=False, repr=False, default_factory=dict)
    fleet: Fleet = field(init=False, repr=False)
    # placement's order: servers by id, their GPUs' rows in that order, and
    # where each server's rows start
    by_id: list[ServerState] = field(init=False, repr=False)
    id_rows: np.ndarray = field(init=False, repr=False)
    id_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.gpus = [gpu for srv in self.servers for gpu in srv.gpus]
        self._gpus = {gpu.device.id: gpu for gpu in self.gpus}
        self.fleet = Fleet(self.servers, self.policy)
        for i, gpu in enumerate(self.gpus):
            gpu.index = i
            gpu.refresh_caches(self.fleet, self.policy.is_dynamic)
        self.by_id = sorted(self.servers, key=lambda s: s.server.id)
        self.id_rows = np.array([gpu.index for srv in self.by_id for gpu in srv.gpus], dtype=np.intp)
        sizes = [len(srv.gpus) for srv in self.by_id]
        self.id_starts = np.cumsum(sizes, dtype=np.intp) - sizes

    @property
    def clock(self) -> float:
        return self.clock_us / US

    def gpu_by_id(self, gpu_id: str) -> GpuState:
        return self._gpus[gpu_id]

    def log(self, kind: str, subject: str, **fields):
        """Record event ``kind`` about ``subject`` now, with its ``fields`` as given."""
        self.events.append(EventRecord(self.clock_us / US, kind, subject, fields))

    def push(self, t_us: int, kind: EventKind, payload: tuple = ()):
        """Queue event ``kind`` at ``t_us``; a time before the clock raises ``EventInPast``."""
        if t_us < self.clock_us:
            raise EventInPast(
                f"{kind.name} at {t_us} us is before the clock ({self.clock_us} us)"
            )
        self.seq += 1
        heappush(self.heap, (t_us, kind.value, self.seq, kind, payload))

    def enqueue(self, job: AiJob):
        self.pending.add(job)
        if job.slo_class is SloClass.BATCH:
            bisect.insort(self.batch_queue, (job.arrival_time, job.id))

    def dequeue(self, job: AiJob):
        try:
            self.pending.remove(job)
        except KeyError:
            raise ValueError(f"job {job.id} is not queued") from None
        if job.slo_class is SloClass.BATCH:
            del self.batch_queue[bisect.bisect_left(self.batch_queue, (job.arrival_time, job.id))]


def build_cluster_state(
    servers: list[Server],
    policy: Policy,
    partitions: dict[str, tuple[float, float]],
    cell_hosts: Iterable[str] = (),
) -> ClusterState:
    """Partition GPUs per the initial layout and assemble the cluster state.

    ``partitions`` maps a GPU id to its (RAN share, AI share), which
    ``partition_gpu`` cuts: a GPU absent from it, or given (0.0, 0.0), stays
    whole as a single FREE slice, and shares that overflow the GPU or miss
    its granularity grid are refused. The dynamic policy
    shares whole GPUs only, so it takes no ``partitions``.
    """
    if policy.is_dynamic and partitions:
        raise ValueError(
            f"dynamic_backfill shares whole GPUs; cannot partition {', '.join(partitions)}"
        )
    server_states = []
    for server in servers:
        gpu_states = []
        for gpu in server.gpus:
            ran, ai = partitions.get(gpu.id, (0.0, 0.0))
            gpu_states.append(GpuState(device=gpu, instances=compute.partition_gpu(gpu, ran, ai)))
        server_states.append(ServerState(server=server, gpus=gpu_states))
    return ClusterState(
        servers=server_states,
        policy=policy,
        cell_hosts=frozenset(cell_hosts),
    )


def split_targets(
    policy: Policy, servers: Iterable[Server], cell_hosts: Container[str]
) -> list[str]:
    """The GPUs a static or time split partitions.

    ``policy.split_gpus`` when given, else the first GPU of each server in
    ``cell_hosts``, the servers that host a cell.
    """
    return list(policy.split_gpus) or [s.gpus[0].id for s in servers if s.id in cell_hosts]


def initial_partitions(
    policy: Policy, servers: list[Server], cell_hosts: set[str]
) -> dict[str, tuple[float, float]]:
    """Initial (RAN share, AI share) per GPU implied by the policy.

    Static and time splits partition their ``split_targets``; the dynamic
    policy leaves all GPUs whole.
    """
    if policy.is_dynamic:
        return {}
    if policy.kind is PolicyKind.STATIC_SPLIT:
        ran, ai = policy.ran_fraction, policy.ai_fraction
    else:
        ran = policy.schedule[0].ran_fraction
        ai = 1.0 - ran
    return {gpu_id: (ran, ai) for gpu_id in split_targets(policy, servers, cell_hosts)}


# -- slot-level settlement ---------------------------------------------------


def settle_slot(state: ClusterState, t_s: float, demands: list[float]) -> bool:
    """Grant RAN demand before AI renewal for the slot at the clock; record misses.

    Per server, demand fills GPUs in declaration order: their RAN slices
    under a split, the whole GPUs under the dynamic policy, which also feeds
    the forecaster and caps each GPU's AI at what RAN left of it; a split's
    hard AI slice is untouched by construction. Misses are appended to
    ``state.misses`` as ``(t_s, server_id, shortfall)`` when shortfall
    exceeds 1e-9. A GPU's AI integral accrues only when a throttle is
    applied. Returns True when a GPU's throttle was applied, which may
    have changed job rates and so queued completion events. This is a
    one-slot ``RanTape``, settled by ``_settle_slice``.
    """
    rem = np.array(demands, dtype=float).reshape(-1, 1)
    tape = _ran_tape(state, np.array([state.clock_us]), np.array([t_s]), rem)
    return _settle_slice(state, tape, 0, 1) == 0


def _apply_throttle(state: ClusterState, gpu: GpuState, allowed: float):
    """Cap the GPU's AI rates at ``allowed``, trimming newest jobs first.

    This is the dynamic policy's per-slot cap; a split never throttles.
    ``allowed`` is the whole GPU less the RAN level, never negative. When
    the cap does not bite, every job runs at its grant, and AI at
    exactly ``ai_granted``: only a job not at its grant changes rate.
    """
    fleet, g = state.fleet, gpu.index
    granted = fleet.ai_granted.item(g)
    bites = granted > allowed
    remaining = allowed if bites else math.inf
    eff_total = 0.0
    # oldest first: the oldest job keeps its rate
    for job in sorted(gpu.jobs, key=lambda j: (j.arrival_time, j.id)):
        rate = job.granted_fraction if job.granted_fraction < remaining else remaining
        remaining -= rate
        eff_total += rate
        if rate != job.service_rate:
            set_rate(state, job, rate)
    _accrue_ai(fleet, g, state.clock_us)
    fleet.ai_level[g] = eff_total if bites else granted
    fleet.throttled[g] = bites and eff_total < granted - TOL


# A RAN tape holds at most CHUNK_CELLS (slot, column) cells and reads demand
# for at most CHUNK_CELLS (server, slot) cells, so its arrays stay small
# however long a segment is (and on the heap: see SimEngine.run).
CHUNK_CELLS = 16384


@dataclass(frozen=True)
class DemandModel:
    """RAN demand per server, from one evaluator.

    ``vector`` maps a float64 array of times (s) to a (server, time) array.
    Each element depends on its own time alone, so a slot reads the same
    bits however its time is batched. ``stepwise`` says that no term varies
    continuously (constant and trace profiles only). ``bound`` holds one
    value per server that no element of ``vector`` exceeds, at any time.
    """

    vector: Callable[[np.ndarray], np.ndarray]
    stepwise: bool
    bound: np.ndarray


class RanTape:
    """The RAN side of settling a run of slots, which no AI state changes.

    RAN is granted before AI, so each slot's RAN levels, misses and forecast
    inputs follow from demand and ``grid_cap`` alone. ``t_us`` are the times
    (int64 us, ascending) of the tape's ``size`` slots: every slot of a run,
    or only those a report can see (see ``settle_segment``). ``cols`` are
    the GPUs (indices in ``state.gpus``, ascending) the tape covers: every
    GPU whose RAN level the tape can change or whose throttle test can fire
    (see ``_ran_tape``). Per (slot, column), ``take`` is the RAN level.
    Under the dynamic policy, ``asked`` is what the GPU was asked to serve
    and ``room`` what RAN left for AI, ``ai_cap - take``; per column, ``fire``
    is the first slot whose throttle test fires at the grant ``tested``,
    searched from the tape's first slot or from where a slice started
    (``size`` where none does; see ``_first_fire``), and ``stop`` is the
    least ``fire``. ``misses`` are the tape's misses in order and
    ``miss_slots`` their slots. ``next`` is the first slot not yet settled
    from the tape.

    A GPU outside ``cols`` has a RAN level of +0.0 and takes 0.0 at every
    slot, so its level stays as it is; what it is asked is 0.0, so its
    ``demand_last`` is 0.0 and its ``epoch_max``, never negative, is
    unchanged. Its ``room`` is ``ai_cap``, and its AI
    grant is at most ``ai_cap``, so its throttle test cannot fire; nor is
    it throttled, since a GPU is throttled only while its grant exceeds
    ``ai_cap`` less its RAN level.
    """

    __slots__ = (
        "t_us", "size", "next", "cols", "take", "asked", "room", "tested", "fire", "stop",
        "misses", "miss_slots",
    )


def settle_segment(
    state: ClusterState,
    first_us: int,
    count: int,
    demand: DemandModel,
    samples: range,
    emit,
) -> int:
    """Settle ``count`` slots from ``first_us`` that no event separates.

    The result is that of ``settle_slot`` called once per slot, in order,
    bit for bit. When demand is stepwise and equal at the first, second and
    last slot, one ``settle_slot`` gives every slot
    (a trace point between events moves demand only at the event's slot,
    the last, or, when it lies in (0, 0.5) us and so has no event, at the
    second). Otherwise the segment slices the fleet's ``RanTape``. The
    segment builds one, with one ``demand.vector`` call, when the tape it
    finds does not go on at its next slot: when it is used up, and after
    ``refresh_caches`` or a closed-form segment. A tape reads demand for
    ``CHUNK_CELLS // w`` slots from the one it is built at, w being the
    number of servers or the last tape's column count, whichever is more,
    and keeps as many of them as its own columns fit in ``CHUNK_CELLS``
    cells (see ``_ran_tape``): while demand reaches the same GPUs, it keeps
    them all. A slice reads the RAN side off the tape and runs the throttle
    test; while a GPU is throttled, whose test then fires at every slot, a
    slice holds one slot.

    Under a split there is no throttle test, and no slot can miss if
    ``demand.bound``, sent through ``grid_cap``'s positions as ``_ran_tape``
    sends demand, leaves no server more than TOL (``_cannot_miss``). A slot
    then changes nothing but RAN levels, which a report sees only at a
    sample's slot and, through the levels the segment leaves, at its last
    slot. So a segment that reads more demand than one tape
    (``CHUNK_CELLS // servers`` slots), or that runs to the horizon, builds
    its tapes of those slots alone. A shorter segment builds a tape of every slot as
    before, which the segments after it read on: a tape of its few
    observable slots would serve it alone.

    A slot that applies a throttle may change job rates and schedule
    events, so the call returns after it: the return value is the number of
    slots settled. ``samples`` are the times (us) of the utilization
    samples due before the segment's last slot; a sample at ``t`` shows
    the state after the last slot at or before ``t``. Those whose slot is
    settled before the last slot settled are handed over in order, off the
    tape: ``emit(ran, ai, n, cols)`` records the next ``n`` samples, ``ran``
    (n, column) for the tape's ``cols`` (every other GPU's RAN level is 0.0)
    and ``ai`` the AI levels (``state.gpus`` order). A closed-form segment
    hands over none: its slots leave the levels equal, which the engine's
    next flush records.
    """
    fleet, slot_us = state.fleet, state.slot_us
    last_us = first_us + (count - 1) * slot_us
    if demand.stepwise:
        ends = np.array([0, min(1, count - 1), count - 1], dtype=np.int64)
        rows = demand.vector((first_us + slot_us * ends) / US)
        if not (rows != rows[:, :1]).any():
            # with demand unchanged and no throttle applied, a later slot
            # changes no level and no forecast input: it repeats the misses
            before = len(state.misses)
            state.clock_us = first_us
            if settle_slot(state, first_us / US, rows[:, 0].tolist()):
                return 1
            missed = state.misses[before:]
            if missed:
                for t_us in range(first_us + slot_us, first_us + count * slot_us, slot_us):
                    state.misses.extend((t_us / US, sid, sf) for _t, sid, sf in missed)
            state.clock_us = first_us + (count - 1) * slot_us
            return count
    needed = None  # the times of the slots a report sees; None for every slot
    if (
        not state.policy.is_dynamic
        and (
            count > CHUNK_CELLS // max(1, len(fleet.server_ids))
            or last_us + slot_us >= state.horizon_us
        )
        and _cannot_miss(state, demand)
    ):
        due = np.arange(samples.start, samples.stop, samples.step, dtype=np.int64)
        needed = np.append(due - (due - first_us) % slot_us, last_us)
    j = i = 0  # slots[:j] are settled and samples[:i] emitted
    while j < count:
        t0 = first_us + j * slot_us
        tape = fleet.tape
        if tape is None or tape.next == tape.size or tape.t_us.item(tape.next) != t0:
            per_slot = max(len(fleet.server_ids), 0 if tape is None else tape.cols.size, 1)
            tape = fleet.tape = None  # one tape at a time
            n = max(1, CHUNK_CELLS // per_slot)
            if needed is None:
                t_us = t0 + slot_us * np.arange(n, dtype=np.int64)
            else:
                t_us = needed[needed.searchsorted(t0):][:n]
            t_s = t_us / US
            tape = fleet.tape = _ran_tape(state, t_us, t_s, demand.vector(t_s))
        a = tape.next
        b = min(tape.size, a + (1 if np.count_nonzero(fleet.throttled) else count - j))
        hi = (tape.t_us.item(b - 1) - first_us) // slot_us + 1
        i_hi = bisect.bisect_left(samples, first_us + hi * slot_us, i)
        fired = _settle_slice(state, tape, a, b, samples[i:i_hi], emit)
        if fired < b - a:
            return (tape.t_us.item(a + fired) - first_us) // slot_us + 1
        j, i = hi, i_hi
    return count


def _cannot_miss(state: ClusterState, demand: DemandModel) -> bool:
    """Whether no slot can miss while ``grid_cap`` holds.

    ``demand.bound`` fills the positions as demand does in ``_ran_tape``,
    ``rem - cap`` floored at 0.0; each step is monotone in ``rem``, so what
    the bound leaves of a server is at least what any slot's demand leaves.
    The verdict is kept in ``fleet.cannot_miss`` until ``refresh_caches``.
    """
    fleet = state.fleet
    if fleet.cannot_miss is None:
        rem = demand.bound
        for p in range(fleet.grid_cap.shape[1]):
            rem = np.maximum(rem - fleet.grid_cap[:, p], 0.0)
        fleet.cannot_miss = not (rem > TOL).any()
    return fleet.cannot_miss


def _ran_tape(state: ClusterState, t_us, t_s, rem) -> RanTape:
    """The RAN tape of the first slots at ``t_us`` (int64 us; ``t_s`` in s), from the fleet as it is.

    The times ascend, and ``rem`` is each server's demand at them, (server,
    slot). The tape keeps the first ``CHUNK_CELLS // len(cols)`` of these
    slots, at least one, and its arrays are (slot, column). Demand fills
    one GPU position of every server at a time, a (slot, server) array per
    position. Every element goes through the float operations of
    ``settle_slot``'s rule applied one GPU at a time, in the same order, so
    the tape is that rule's slot by slot, bit for bit
    (``tests/test_segments.py`` keeps the scalar form). A position a server
    lacks, and a GPU that is settling, meets a capacity of 0, which takes
    nothing and leaves the remainder as it is.

    Demand fills positions in order and stops at the first one where no
    server has any left at any slot given, so every GPU from there on
    takes 0.0 at every slot. The tape's ``cols`` are the GPUs at the
    positions demand reached, those whose RAN level is not +0.0 (RAN that
    leaves a GPU must settle it to 0.0), and those granted more than
    ``ai_cap`` (placement grants up to TOL past what is free). Every other
    GPU is as ``RanTape`` says, and none is throttled: while a GPU is
    throttled, ``_apply_throttle`` runs again whenever its RAN level or AI
    grant changes (its test fires at every slot, and under the dynamic
    policy every grant change ends in ``_refresh_effective``), and it
    leaves the GPU throttled only if the grant exceeds ``ai_cap -
    ran_level``, which at a level of 0.0 is ``ai_cap``.
    """
    fleet = state.fleet
    servers, width = fleet.grid_cap.shape
    fills = []  # what each position demand reached takes, (server, slot)
    for p in range(width):
        if not rem.any():
            break  # no demand is left, so every later take is 0.0
        cap = fleet.grid_cap[:, p, None]
        # take = rem if rem < cap else cap; rem = 0.0 if rem < cap else rem - cap
        fills.append(np.minimum(rem, cap))
        rem = np.maximum(rem - cap, 0.0)
    at = fleet.grid_rows % width  # each GPU's position
    keep = at < len(fills)
    keep |= fleet.ran_level.view(np.int64) != 0
    keep |= fleet.ai_granted > fleet.ai_cap
    cols = np.flatnonzero(keep)
    n = min(t_us.size, max(1, CHUNK_CELLS // max(1, cols.size)))
    t_s, rem = t_s[:n], rem[:, :n].T  # rem is (slot, server) from here on
    # what each column takes, gathered a row per column, then (slot, column)
    took = np.zeros((cols.size, n))
    at, owner = at[cols], fleet.grid_rows[cols] // width
    for p, fill in enumerate(fills):
        mine = np.flatnonzero(at == p)
        took[mine] = fill[owner[mine], :n]
    take = np.ascontiguousarray(took.T)
    del fills, took

    tape = RanTape()
    tape.t_us, tape.size, tape.next = t_us[:n], n, 0
    tape.cols, tape.take = cols, take
    tape.asked = tape.room = tape.tested = tape.fire = tape.stop = None
    if state.policy.is_dynamic:
        # what each GPU was asked to serve: its take, plus the server's
        # shortfall on the server's last GPU (take + 0.0 is take); demand
        # left over reached every position, so the columns are all GPUs
        asked = take
        if rem.any():
            asked = take.copy()
            asked[:, fleet.last_rows] += rem
        tape.asked, tape.room = asked, fleet.ai_cap[cols] - take
        # each column's first firing slot at its grant now (see _first_fire)
        tape.tested = fleet.ai_granted[cols]
        hits = tape.tested > tape.room + TOL
        tape.fire = np.where(hits.any(axis=0), hits.argmax(axis=0), n)
        tape.stop = int(tape.fire.min(initial=n))
    slots, owners = np.divmod(np.flatnonzero(rem > TOL), servers)  # by slot, then by server
    ids = fleet.server_ids
    missed = zip(t_s[slots].tolist(), owners.tolist(), rem[slots, owners].tolist())
    tape.misses = [(t, ids[si], shortfall) for t, si, shortfall in missed]
    tape.miss_slots = slots.tolist()
    return tape


def _first_fire(state: ClusterState, tape: RanTape, a: int, b: int):
    """The first of the tape's slots ``a:b`` whose throttle test fires, and the columns it fires for.

    Only the dynamic policy has a throttle test. It fires where a GPU's AI
    grant exceeds the slot's ``room`` by more than TOL, and at every slot
    for a throttled GPU. RAN takes at most ``ai_cap`` of a whole GPU, so
    ``room`` is never negative and a GPU without a grant never fires.
    Only the tape's columns are tested: no other GPU's test fires (see
    ``RanTape``). Returns ``(b, None)`` when no test fires.

    The test is incremental. The tape searches every column when it is
    built: a column's ``fire`` is the first slot, from where it was last
    searched, whose test fires at the grant ``tested``. While the grant is
    unchanged, that is also the first from ``a``, unless it lies before
    ``a``. So a slice searches again, from ``a`` to the tape's end, only the
    columns whose grant changed or whose ``fire`` it passed (a fire ends a
    slice, so such a column has just fired), and otherwise compares the
    least ``fire``, ``stop``, with ``b``.
    """
    if not state.policy.is_dynamic:
        return b, None
    fleet, fire = state.fleet, tape.fire
    granted = fleet.ai_granted[tape.cols]
    # a grant whose bits are unchanged is unchanged
    if tape.stop < a or granted.tobytes() != tape.tested.tobytes():
        for c in np.flatnonzero((granted != tape.tested) | (fire < a)).tolist():
            hits = granted[c] > tape.room[a:, c] + TOL
            k = int(hits.argmax())
            fire[c] = a + k if hits[k] else tape.size
        tape.tested, tape.stop = granted, int(fire.min(initial=tape.size))
    if np.count_nonzero(fleet.throttled):
        return a, np.flatnonzero(fleet.throttled[tape.cols] | (fire == a))
    return (tape.stop, np.flatnonzero(fire == tape.stop)) if tape.stop < b else (b, None)


def _settle_slice(state: ClusterState, tape: RanTape, a: int, b: int, samples=range(0), emit=None):
    """Settle the tape's slots ``a:b``: read the RAN side off it and run the throttle test.

    The first slot whose throttle test fires ends the slice: its levels are
    settled, then ``_apply_throttle`` runs for its firing GPUs in GPU order
    (a throttle touches only its own GPU). Returns that slot's index from
    ``a``, or ``b - a`` when none fires. Of ``samples`` (us), which fall in
    the slice, those before the firing slot go to ``emit``.
    """
    fleet, cols = state.fleet, tape.cols
    stop, firing = _first_fire(state, tape, a, b)
    last = min(stop, b - 1)
    fleet.ran_level[cols] = tape.take[last]
    if state.policy.is_dynamic:
        asked = tape.asked[a:last + 1]
        fleet.demand_last[:] = 0.0
        fleet.demand_last[cols] = asked[-1]
        fleet.epoch_max[cols] = np.maximum(fleet.epoch_max[cols], asked.max(axis=0))
    lo = bisect.bisect_left(tape.miss_slots, a)
    state.misses.extend(tape.misses[lo:bisect.bisect_left(tape.miss_slots, last + 1, lo)])
    if samples:
        # the slot whose state each sample shows, up to the firing one
        due = np.arange(samples.start, samples.stop, samples.step, dtype=np.int64)
        marks = tape.t_us.searchsorted(due, "right") - 1
        if stop < b:
            marks = marks[:marks.searchsorted(stop)]
        emit(tape.take[marks], fleet.ai_level, marks.size, cols)
    state.clock_us = tape.t_us.item(last)
    tape.next = last + 1
    if firing is not None:
        for g, room in zip(cols[firing].tolist(), tape.room[stop, firing].tolist()):
            _apply_throttle(state, state.gpus[g], room)
    return stop - a


# -- placement ---------------------------------------------------------------


def plan_placement(jobs: list[AiJob] | PlacementOrder, state: ClusterState) -> PlacementDecision:
    """First-fit placement of whole job demands.

    INTERACTIVE jobs go first, in arrival order, and only onto GPUs whose
    grantable fraction meets their latency bound. BATCH jobs follow,
    first-fit-decreasing by demand fraction. Candidate order: servers by
    id, then GPUs by free capacity descending (ties by id); a job runs in
    its GPU's AI slice, and a GPU with an ``ai_cap`` of 0.0 (no AI slice,
    or settling) is no candidate. Jobs that fit nowhere stay queued;
    rejection happens only at enqueue time via the queue bound. ``jobs`` is
    any list of jobs, or a ``PlacementOrder`` already in that order, such
    as ``state.pending``. The policy shows only through the fleet arrays.

    Each GPU's grantable fraction (``min(free, budget)``, the budget
    ``ai_ceiling - ai_granted``, ``-inf`` for no candidate) is read once
    per call, and so each server's largest, its top.
    A job above every top + TOL is skipped (the BATCH run by one bisection);
    any other walks only the first server whose top fits, and renews that top.
    """
    order = jobs if isinstance(jobs, PlacementOrder) else PlacementOrder(jobs)
    decision = PlacementDecision()
    fleet = state.fleet
    frees, budgets = fleet.ai_cap - fleet.ai_granted, fleet.ai_ceiling - fleet.ai_granted
    grantable = np.where(fleet.ai_cap > 0.0, np.minimum(frees, budgets), -math.inf)
    # each server's top, servers by id
    tops = np.maximum.reduceat(grantable[state.id_rows], state.id_starts).tolist()
    grantable, frees, budgets = grantable.tolist(), frees.tolist(), budgets.tolist()
    top = max(tops, default=-math.inf)
    entries = order.entries
    i, n = 0, len(entries)
    while i < n:
        rank, _key, _id, job = entries[i]
        i += 1
        demand = job.demand_fraction
        if top + TOL < demand:  # it fits nowhere
            if rank == _BATCH_RANK:
                i = bisect.bisect_left(entries, (_BATCH_RANK, -(top + TOL)), i)
            continue
        if job.state not in (JobState.QUEUED, JobState.PREEMPTED):
            continue
        if rank == _INTERACTIVE_RANK and demand + TOL < job.required_rate:
            continue  # its demand can never meet the latency bound
        s = next(s for s, t in enumerate(tops) if t + TOL >= demand)
        walk = sorted((-frees[gpu.index], gpu.device.id, gpu.index) for gpu in state.by_id[s].gpus)
        gpu_id, g = next((gpu_id, g) for _, gpu_id, g in walk if grantable[g] + TOL >= demand)
        decision.assignments[job.id] = (gpu_id, demand)
        frees[g] -= demand
        budgets[g] -= demand
        grantable[g] = min(frees[g], budgets[g])
        tops[s] = max(grantable[h] for *_, h in walk)
        top = max(tops)
    return decision


# -- policy epochs -----------------------------------------------------------


def _window(policy: Policy) -> int:
    """Epochs a max-over-window forecast spans, the current one included."""
    return max(1, round(policy.window_s / policy.epoch_s))


def forecast_holds(state: ClusterState) -> bool:
    """Whether the next epoch's roll leaves every GPU's forecast inputs as they are.

    It does when each GPU's ``epoch_max`` and every row of its history
    (``-inf`` until filled) equal its ``demand_last``.
    """
    fleet, last = state.fleet, state.fleet.demand_last
    return bool((fleet.epoch_max == last).all() and (fleet.history == last).all())


def _queued_demand(state: ClusterState) -> float:
    """Queued demand, summed in placement order only until it exceeds TOL.

    Its one use is the test ``queued + undergrant > TOL``. A sum of
    non-negative terms never shrinks, so once past TOL it decides that test
    as the full sum would, whatever the order of the terms: placement order
    decides as arrival order did. (Demands are in (0, 1]; only a queue whose
    total is at most TOL could round differently in another order.)
    """
    total = 0.0
    for *_, job in state.pending.entries:
        total += job.demand_fraction
        if total > TOL:
            break
    return total


def _undergrant(gpu: GpuState) -> float:
    return sum(
        j.demand_fraction - j.granted_fraction
        for j in gpu.jobs
        if j.granted_fraction + TOL < j.demand_fraction
    )


def policy_epoch(state: ClusterState, t: float) -> list[ScaleAction]:
    """Compute the scale actions ``state.policy`` takes at time ``t``.

    STATIC_SPLIT never changes anything. TIME_SPLIT emits repartitions at
    schedule boundaries. DYNAMIC_BACKFILL recomputes each GPU's AI ceiling
    from the RAN forecast and emits grants/reclaims toward it. An epoch
    with nothing to do returns no action.
    """
    policy = state.policy
    actions: list[ScaleAction] = []
    if policy.kind is PolicyKind.STATIC_SPLIT:
        return actions

    if policy.kind is PolicyKind.TIME_SPLIT:
        interval = next(
            (iv for iv in policy.schedule if abs(iv[0] - t) <= 1e-9), None
        )
        if interval is None:
            raise InvalidEpoch(f"t={t} is not a schedule boundary")
        ran = interval[2]
        targets = set(
            split_targets(policy, [srv.server for srv in state.servers], state.cell_hosts)
        )
        for gpu in state.gpus:
            if gpu.device.id not in targets:
                continue
            # a target fills its GPU (RAN share and the rest to AI), so its
            # layout is its RAN units
            total = gpu.device.total_units
            units = round(ran * total)
            if units != _ran_units(gpu):
                actions.append(ScaleAction(ActionKind.REPARTITION, gpu.device.id, units / total))
        return actions

    # DYNAMIC_BACKFILL
    ratio = t / policy.epoch_s
    if abs(ratio - round(ratio)) > 1e-6:
        raise InvalidEpoch(f"t={t} is not on the {policy.epoch_s}s epoch grid")
    queued = _queued_demand(state)
    fleet = state.fleet
    if policy.forecast is ForecastKind.LAST_VALUE:
        forecast = fleet.demand_last
    else:
        forecast = np.maximum(fleet.epoch_max, fleet.history.max(axis=0, initial=-np.inf))
    # roll the window: this epoch's maximum joins the history
    fleet.history[:] = np.vstack((fleet.history, fleet.epoch_max))[1:]
    ceilings = 1.0 - forecast - policy.safety_margin
    ceilings[ceilings < 0.0] = 0.0
    granted = fleet.ai_granted
    headroom = ceilings - granted
    reclaim = granted > ceilings + TOL
    offer = ~reclaim & (headroom + TOL >= fleet.min_grant)
    for g in np.flatnonzero(reclaim | offer).tolist():
        gpu = state.gpus[g]
        if reclaim[g]:
            fraction = granted.item(g) - ceilings.item(g)
            actions.append(ScaleAction(ActionKind.RECLAIM_AI, gpu.device.id, fraction))
        # undergrant >= 0, so queued > TOL already makes queued + undergrant > TOL
        elif queued > TOL or queued + _undergrant(gpu) > TOL:
            actions.append(ScaleAction(ActionKind.GRANT_AI, gpu.device.id, headroom.item(g)))
    fleet.ai_ceiling[:] = ceilings
    fleet.epoch_max[:] = fleet.demand_last
    return actions


# -- applying actions ----------------------------------------------------------


def _change_grant(state: ClusterState, gpu: GpuState, job: AiJob, amount: float):
    """Add ``amount`` (negative to release) to ``job``'s grant in the GPU's AI slice.

    The GPU's AI level integral is accrued at the old level first. The
    GPU's grant and the job's both move by ``amount``, and AI runs at the
    new grant until ``_refresh_effective`` caps it.
    """
    fleet, g = state.fleet, gpu.index
    _accrue_ai(fleet, g, state.clock_us)
    fleet.ai_granted[g] = fleet.ai_level[g] = fleet.ai_granted.item(g) + amount
    job.granted_fraction += amount


def _accrue_job(job: AiJob, now_us: int):
    """Count the work ``job`` did at its current rate up to ``now_us``."""
    dt = now_us - job.accrued_until_us
    if dt > 0:
        if job.service_rate > 0.0 and math.isfinite(job.remaining_compute_seconds):
            done = job.service_rate * (dt / US)
            rem = job.remaining_compute_seconds - done
            job.remaining_compute_seconds = rem if rem > 0.0 else 0.0
        job.accrued_until_us = now_us


def _accrue_ai(fleet: Fleet, g: int, now_us: int):
    """Accrue GPU ``g``'s AI level integral up to ``now_us``, before its AI level changes."""
    dt = now_us - fleet.ai_accrue_us.item(g)
    if dt > 0:
        fleet.ai_integral[g] = fleet.ai_integral.item(g) + fleet.ai_level.item(g) * dt
        fleet.ai_accrue_us[g] = now_us


def accrue_all(state: ClusterState):
    """Bring every GPU's AI level integral and every running job's work up to the clock."""
    fleet = state.fleet
    dt = state.clock_us - fleet.ai_accrue_us
    due = dt > 0
    fleet.ai_integral[due] += fleet.ai_level[due] * dt[due]
    fleet.ai_accrue_us[due] = state.clock_us
    for job in state.jobs.values():
        if job.state is JobState.RUNNING:
            _accrue_job(job, state.clock_us)


def set_rate(state: ClusterState, job: AiJob, rate: float):
    """Serve ``job`` at ``rate`` from now on.

    Its work is accrued to the clock at the old rate first. The change bumps
    ``job.version``, which makes any queued completion stale, and a running
    job with a positive rate and finite work gets a new completion at the
    first microsecond by which that work is done.
    """
    now_us = state.clock_us
    _accrue_job(job, now_us)
    job.service_rate = rate
    job.version += 1
    if (
        job.state is JobState.RUNNING
        and rate > 1e-12
        and math.isfinite(job.remaining_compute_seconds)
    ):
        dt_us = math.ceil(job.remaining_compute_seconds / rate * US)
        state.push(now_us + max(dt_us, 0), EventKind.JOB_COMPLETION, (job.id, job.version))


def preempt_job(state: ClusterState, gpu: GpuState, job: AiJob):
    """Suspend a running job, preserving its remaining work.

    It rejoins the queue after the policy's resume delay, at the clock's
    resolution: now, or at a ``JOB_ARRIVAL`` for it.
    """
    state.log("preempt", gpu.device.id, job=job.id, fraction=job.granted_fraction)
    set_rate(state, job, 0.0)
    _change_grant(state, gpu, job, -job.granted_fraction)
    gpu.jobs.remove(job)
    job.state = JobState.PREEMPTED
    job.preempt_count += 1
    job.gpu_id = None
    delay_us = round(state.policy.resume_delay_s * US)
    if delay_us > 0:
        state.push(state.clock_us + delay_us, EventKind.JOB_ARRIVAL, (job.id,))
    else:
        state.enqueue(job)


def _reclaim(state: ClusterState, action: ScaleAction):
    gpu = state.gpu_by_id(action.gpu_id)
    delta = action.fraction
    for job in sorted(gpu.jobs, key=lambda j: (j.arrival_time, j.id), reverse=True):
        if delta <= TOL:
            break
        if job.granted_fraction <= delta + TOL:
            delta -= job.granted_fraction
            preempt_job(state, gpu, job)
        else:
            _change_grant(state, gpu, job, -delta)
            set_rate(state, job, job.granted_fraction)
            state.log("trim", gpu.device.id, job=job.id, fraction=delta)
            delta = 0.0
    _refresh_effective(state, gpu)


def start_job(state: ClusterState, job: AiJob, gpu: GpuState, grant: float):
    """Move a queued/preempted job into RUNNING in ``gpu``'s AI slice with the given grant."""
    if gpu.ai_slice is None:
        raise ValueError(f"{gpu.device.id}: no slice AI may use; job {job.id} cannot start")
    if job.state in (JobState.QUEUED, JobState.PREEMPTED):
        state.dequeue(job)
    job.state = JobState.RUNNING
    job.gpu_id = gpu.device.id
    if job.first_start_time is None:
        job.first_start_time = state.clock
    gpu.jobs.append(job)
    _change_grant(state, gpu, job, grant)  # a job out of service holds no grant
    set_rate(state, job, grant)
    _refresh_effective(state, gpu)
    state.log("place", gpu.device.id, job=job.id, instance=gpu.ai_slice.id, fraction=grant)


def finish_job(state: ClusterState, job: AiJob):
    """Complete a running job now: its work is done and its grant released."""
    set_rate(state, job, 0.0)
    gpu = state.gpu_by_id(job.gpu_id)
    job.remaining_compute_seconds = 0.0
    job.state = JobState.DONE
    job.completion_time = state.clock
    _change_grant(state, gpu, job, -job.granted_fraction)
    gpu.jobs.remove(job)
    _refresh_effective(state, gpu)
    state.log("completion", job.id, gpu=gpu.device.id)


def _refresh_effective(state: ClusterState, gpu: GpuState):
    """Re-apply the dynamic policy's per-slot cap after grant changes."""
    if not state.policy.is_dynamic:
        return  # a split's AI slice is hard: AI runs at its grant
    fleet, g = state.fleet, gpu.index
    allowed = fleet.ai_cap.item(g) - fleet.ran_level.item(g)
    granted = fleet.ai_granted.item(g)
    if granted > allowed + TOL or fleet.throttled.item(g):
        _apply_throttle(state, gpu, allowed)
    else:
        _accrue_ai(fleet, g, state.clock_us)
        fleet.ai_level[g] = granted


def _top_up(state: ClusterState, gpu: GpuState, budget: float) -> float:
    """Raise under-granted running jobs toward their demand, oldest first."""
    fleet, g = state.fleet, gpu.index
    for job in sorted(gpu.jobs, key=lambda j: (j.arrival_time, j.id)):
        if budget <= TOL:
            break
        gap = job.demand_fraction - job.granted_fraction
        if gap <= TOL:
            continue
        extra = min(gap, budget, fleet.ai_cap.item(g) - fleet.ai_granted.item(g))
        if extra <= TOL:
            continue
        _change_grant(state, gpu, job, extra)
        set_rate(state, job, job.granted_fraction)
        state.log("grant", gpu.device.id, job=job.id, fraction=extra)
        budget -= extra
    _refresh_effective(state, gpu)
    return budget


def backfill_queue(state: ClusterState, gpu: GpuState, budget: float) -> float:
    """Grant the queued BATCH jobs, in arrival order, partial fractions from a GPU's budget.

    Partial grants are the backfill mechanism: batch work runs at whatever
    rate it is given. INTERACTIVE jobs are never partially granted; they
    only enter via plan_placement with their full demand. A GPU with no
    AI capacity left, a settling one among them, grants nothing.
    """
    fleet, g = state.fleet, gpu.index
    min_grant = gpu.device.partition_granularity
    queue = state.batch_queue
    i = 0  # start_job dequeues queue[i - 1], so the next job then sits there
    while i < len(queue) and budget >= min_grant - TOL:
        job = state.jobs[queue[i][1]]
        i += 1
        free = fleet.ai_cap.item(g) - fleet.ai_granted.item(g)  # 0.0 without an AI slice
        if free + TOL < min_grant:
            break  # free only shrinks here: no later job can be granted either
        grant = min(job.demand_fraction, budget, free)
        if grant + TOL < min_grant:
            continue
        start_job(state, job, gpu, grant)
        budget -= grant
        i -= 1
    return budget


def placement_round(state: ClusterState):
    """Place what fits of the queue, then backfill the queued BATCH jobs.

    Backfill offers the BATCH jobs to every GPU with AI capacity whose budget
    can grant: a budget below the GPU's granularity (less TOL) grants nothing.
    """
    if state.pending:
        decision = plan_placement(state.pending, state)
        for job_id, (gpu_id, fraction) in decision.assignments.items():
            start_job(state, state.jobs[job_id], state.gpu_by_id(gpu_id), fraction)
    if state.batch_queue:
        budgets = state.fleet.ai_ceiling - state.fleet.ai_granted
        ready = (budgets >= state.fleet.min_grant - TOL) & (state.fleet.ai_cap > 0.0)
        for g, budget in zip(np.flatnonzero(ready).tolist(), budgets[ready].tolist()):
            backfill_queue(state, state.gpus[g], budget)


def apply_actions(state: ClusterState, actions: list[ScaleAction]) -> ClusterState:
    """Apply policy actions in order; mutates and returns ``state``."""
    for action in actions:
        if action.kind is ActionKind.RECLAIM_AI:
            _reclaim(state, action)
        elif action.kind is ActionKind.GRANT_AI:
            gpu = state.gpu_by_id(action.gpu_id)
            left = _top_up(state, gpu, action.fraction)
            backfill_queue(state, gpu, left)
        elif action.kind is ActionKind.REPARTITION:
            _repartition_gpu(state, action)
    return state


def _repartition_gpu(state: ClusterState, action: ScaleAction):
    """Drain the GPU and cut it into ``action.fraction`` for RAN and the rest for AI.

    Until its ``REPARTITION_SETTLED`` event of this generation, ``settle_slots``
    slots on, RAN and AI meet a capacity of 0.0 on it and ``start_job`` refuses it.
    """
    if state.policy.is_dynamic:
        raise ValueError(f"dynamic_backfill shares whole GPUs; cannot partition {action.gpu_id}")
    gpu, fleet = state.gpu_by_id(action.gpu_id), state.fleet
    g = gpu.index
    for job in list(gpu.jobs):  # drain AI before resizing
        preempt_job(state, gpu, job)
    _accrue_ai(fleet, g, state.clock_us)
    fleet.ai_granted[g] = fleet.ai_level[g] = 0.0  # drained, so it holds no grant
    gpu.generation += 1
    prefix = f"{gpu.device.id}.g{gpu.generation}"
    gpu.instances = compute.repartition(gpu.device, action.fraction, 1.0 - action.fraction, prefix)
    gpu.refresh_caches(fleet, dynamic=False)
    # the boundary slot finishes on the old layout (ran_level persists); up
    # to the settled event neither RAN nor AI has any of the GPU
    gpu.ai_slice = None
    fleet.ai_cap[g] = fleet.grid_cap.flat[fleet.grid_rows[g]] = 0.0
    state.log(
        "repartition", gpu.device.id,
        layout=[(i.compute_fraction, i.tenant_class) for i in gpu.instances],
    )
    until = state.clock_us + state.policy.settle_slots * state.slot_us
    state.push(until, EventKind.REPARTITION_SETTLED, (gpu.device.id, gpu.generation))
