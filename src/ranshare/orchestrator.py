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
from collections import deque
from collections.abc import Callable, Container, Iterable
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappush
from typing import NamedTuple

import numpy as np

from . import compute
from .compute import GpuDevice, GpuInstance, Server, TenantClass
from .errors import EventInPast, InvalidEpoch
from .workload import AiJob, JobState, SloClass

TOL = 1e-9
US = 1_000_000  # microseconds per second


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
        if self.resume_delay_s < 0:
            raise ValueError("resume_delay_s must be >= 0")
        if self.settle_slots < 0:
            raise ValueError("settle_slots must be >= 0")
        if self.kind is PolicyKind.STATIC_SPLIT:
            if self.ran_fraction < 0 or self.ai_fraction < 0:
                raise ValueError("split fractions must be >= 0")
            if self.ran_fraction + self.ai_fraction > 1.0 + TOL:
                raise ValueError("static split fractions exceed 1.0")
        elif self.kind is PolicyKind.TIME_SPLIT:
            if not self.schedule:
                raise ValueError("time split needs a schedule")
            prev_end = None
            for start, end, ran in self.schedule:
                if end <= start:
                    raise ValueError("schedule interval must have end > start")
                if not 0.0 <= ran <= 1.0:
                    raise ValueError("schedule ran_fraction must be in [0, 1]")
                if prev_end is not None and start < prev_end - TOL:
                    raise ValueError("schedule intervals overlap")
                prev_end = end
        else:
            if self.epoch_s <= 0:
                raise ValueError("epoch_s must be positive")
            if not 0.0 <= self.safety_margin < 1.0:
                raise ValueError("safety_margin must be in [0, 1)")
            if self.forecast is ForecastKind.MAX_OVER_WINDOW and self.window_s <= 0:
                raise ValueError("window_s must be positive")

    @property
    def is_dynamic(self) -> bool:
        return self.kind is PolicyKind.DYNAMIC_BACKFILL


class ActionKind(Enum):
    GRANT_AI = "GRANT_AI"
    RECLAIM_AI = "RECLAIM_AI"
    REPARTITION = "REPARTITION"
    NO_OP = "NO_OP"


@dataclass(frozen=True)
class ScaleAction:
    kind: ActionKind
    server_id: str = ""
    gpu_id: str = ""
    fraction: float = 0.0  # delta for grants/reclaims
    fractions: tuple[float, ...] = ()  # repartition layout
    classes: tuple[TenantClass, ...] = ()


@dataclass(frozen=True)
class EventRecord:
    time_s: float
    kind: str
    subject: str
    detail: str


def _detail_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(_detail_text, value))
    if isinstance(value, tuple):
        return ":".join(map(_detail_text, value))
    if isinstance(value, Enum):
        return value.value
    return f"{value:.6f}" if isinstance(value, (int, float)) else value


def event_detail(text: str = "", **fields) -> str:
    """The detail of an event or fabric row: ``text``, or ``key=value`` fields.

    Numbers are written with 6 decimals, enums by value, a tuple's items
    joined by ``:`` and a list's by ``,``; strings as they are.
    """
    return text or " ".join(f"{key}={_detail_text(v)}" for key, v in fields.items())


@dataclass(frozen=True)
class DeadlineMiss:
    time_s: float
    server_id: str
    shortfall: float


@dataclass
class PlacementDecision:
    assignments: dict[str, tuple[str, str, str, float]] = field(default_factory=dict)


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


def _column(name: str) -> property:
    """A ``GpuState`` field whose one store is the fleet array ``name``, at the GPU's index."""

    def get(gpu):
        return getattr(gpu.fleet, name).item(gpu.index)

    def put(gpu, value):
        getattr(gpu.fleet, name)[gpu.index] = value

    return property(get, put)


class Fleet:
    """Every GPU's per-slot settlement state, one array per field, in ``ClusterState.gpus`` order.

    Slice-size caches (``ran_cap``, ``free_cap``, ``grid_cap``) change only
    in ``GpuState.refresh_caches``; the slot levels, the FREE-slice AI grant
    and the throttle flag, the end of a repartition's settling, the forecast
    inputs and the level integrals change wherever the orchestrator changes
    them, through ``GpuState``'s properties or as whole arrays.

    ``grid_cap`` is the capacity RAN demand meets on each (server, GPU
    position): ``ran_cap``, plus ``free_cap`` under the dynamic policy,
    and 0 where a server has no GPU at that position. ``grid_rows`` is each
    GPU's flat index in that grid and ``last_rows`` each server's last GPU.
    """

    __slots__ = (
        "ran_cap", "free_cap", "grid_cap", "grid_rows", "last_rows",
        "server_ids", "ran_level", "ran_in_free", "ai_hard", "ai_free", "ai_free_eff",
        "throttled", "settling_until_us", "demand_last", "epoch_max", "ai_ceiling",
        "integrals", "ran_integral", "ai_integral", "last_accrue_us",
    )

    def __init__(self, servers: list[ServerState]):
        sizes = [len(srv.gpus) for srv in servers]
        n, width = sum(sizes), max(sizes, default=0)
        self.server_ids = [srv.server.id for srv in servers]
        self.grid_cap = np.zeros((len(servers), width))
        self.grid_rows = np.array(
            [s * width + p for s, size in enumerate(sizes) for p in range(size)], dtype=np.intp
        )
        self.last_rows = np.cumsum(sizes) - 1
        for name in (
            "ran_cap", "free_cap", "ran_level", "ran_in_free", "ai_hard", "ai_free",
            "ai_free_eff", "demand_last", "epoch_max",
        ):
            setattr(self, name, np.zeros(n))
        # the level integrals, RAN then AI: two views of one array
        self.integrals = np.zeros((2, n))
        self.ran_integral, self.ai_integral = self.integrals
        self.ai_ceiling = np.ones(n)
        self.throttled = np.zeros(n, dtype=bool)
        self.settling_until_us = np.full(n, -1, dtype=np.int64)
        self.last_accrue_us = np.zeros(n, dtype=np.int64)


@dataclass
class GpuState:
    """One GPU's jobs, slices and grant ledger; its levels live in the fleet arrays.

    ``ClusterState`` sets ``fleet`` and ``index``. Each property below reads
    and writes the GPU's element of the fleet array of the same name.
    """

    device: GpuDevice
    server_id: str
    instances: list[GpuInstance]
    jobs: list[AiJob] = field(default_factory=list)
    # the grant ledger: AI grant held inside each slice, by instance id
    inst_granted: dict[str, float] = field(default_factory=dict)
    free_ids: set = field(default_factory=set)
    generation: int = 0  # repartitions so far
    epoch_history: deque = field(default_factory=deque)  # past epochs' demand maxima
    fleet: Fleet | None = field(default=None, repr=False)
    index: int = -1

    # slice-size caches, refreshed on (re)partition
    ran_cap = _column("ran_cap")
    free_cap = _column("free_cap")
    # current slot levels
    ran_level = _column("ran_level")
    ran_in_free = _column("ran_in_free")
    ai_hard = _column("ai_hard")  # granted inside AI slices
    ai_free = _column("ai_free")  # granted inside FREE slices
    ai_free_eff = _column("ai_free_eff")  # after the slot-level cap
    throttled = _column("throttled")
    # repartition settling: slots up to this time accept no allocations
    settling_until_us = _column("settling_until_us")
    # forecast inputs (maintained by settlement under dynamic policies)
    demand_last = _column("demand_last")
    epoch_max = _column("epoch_max")
    ai_ceiling = _column("ai_ceiling")
    # metrics accrual (microsecond clock)
    ran_integral = _column("ran_integral")
    ai_integral = _column("ai_integral")
    last_accrue_us = _column("last_accrue_us")

    def refresh_caches(self, soft_ran: bool):
        """Recompute the slice-size caches and the ledger after a (re)partition.

        ``soft_ran``: RAN may spill into FREE capacity (the dynamic policy).
        """
        ran_cap = free_cap = 0.0
        self.inst_granted = {i.id: 0.0 for i in self.instances}
        self.free_ids = set()
        for inst in self.instances:
            f = inst.compute_fraction
            if inst.tenant_class is TenantClass.RAN:
                ran_cap += f
            elif inst.tenant_class is TenantClass.FREE:
                free_cap += f
                self.free_ids.add(inst.id)
        self.ran_cap, self.free_cap = ran_cap, free_cap
        fleet = self.fleet
        fleet.grid_cap.flat[fleet.grid_rows[self.index]] = (
            ran_cap + free_cap if soft_ran else ran_cap
        )

    @property
    def ai_level(self) -> float:
        return self.ai_hard + self.ai_free_eff

    def accrue(self, now_us: int):
        dt = now_us - self.last_accrue_us
        if dt > 0:
            self.ran_integral += self.ran_level * dt
            self.ai_integral += (self.ai_hard + self.ai_free_eff) * dt
            self.last_accrue_us = now_us


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
    cell_hosts: frozenset[str] = frozenset()  # ids of the servers that host a cell
    # the queue, changed only by enqueue/dequeue: (arrival, id) in arrival
    # order, the set of its ids, and its jobs in placement order
    queue: list[tuple[float, str]] = field(init=False, default_factory=list)
    queued: set[str] = field(init=False, default_factory=set)
    pending: PlacementOrder = field(init=False, default_factory=PlacementOrder)
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

    def __post_init__(self):
        self.gpus = [gpu for srv in self.servers for gpu in srv.gpus]
        self._gpus = {gpu.device.id: gpu for gpu in self.gpus}
        self.fleet = Fleet(self.servers)
        for i, gpu in enumerate(self.gpus):
            gpu.fleet, gpu.index = self.fleet, i
            gpu.refresh_caches(self.soft_ran)

    @property
    def soft_ran(self) -> bool:
        """Whether RAN may spill into FREE capacity: under the dynamic policy."""
        return self.policy.is_dynamic

    @property
    def clock(self) -> float:
        return self.clock_us / US

    def gpu_by_id(self, gpu_id: str) -> GpuState:
        return self._gpus[gpu_id]

    def log(self, kind: str, subject: str, text: str = "", **fields):
        """Record event ``kind`` about ``subject`` now; ``event_detail`` writes its detail."""
        self.events.append(
            EventRecord(self.clock_us / US, kind, subject, event_detail(text, **fields))
        )

    def push(self, t_us: int, kind: EventKind, payload: tuple = ()):
        """Queue event ``kind`` at ``t_us``; a time before the clock raises ``EventInPast``."""
        if t_us < self.clock_us:
            raise EventInPast(
                f"{kind.name} at {t_us} us is before the clock ({self.clock_us} us)"
            )
        self.seq += 1
        heappush(self.heap, (t_us, kind.value, self.seq, kind, payload))

    def enqueue(self, job: AiJob):
        bisect.insort(self.queue, (job.arrival_time, job.id))
        self.queued.add(job.id)
        self.pending.add(job)

    def dequeue(self, job: AiJob):
        key = (job.arrival_time, job.id)
        i = bisect.bisect_left(self.queue, key)
        if i == len(self.queue) or self.queue[i] != key:
            raise ValueError(f"job {job.id} is not queued")
        del self.queue[i]
        self.queued.remove(job.id)
        self.pending.remove(job)


def build_cluster_state(
    servers: list[Server],
    policy: Policy,
    partitions: dict[str, tuple[list[float], list[TenantClass]]],
    cell_hosts: Iterable[str] = (),
) -> ClusterState:
    """Partition GPUs per the initial layout and assemble the cluster state.

    GPUs absent from ``partitions`` stay whole as a single FREE slice.
    """
    server_states = []
    for server in servers:
        gpu_states = []
        for gpu in server.gpus:
            if gpu.id in partitions:
                fracs, classes = partitions[gpu.id]
                instances = compute.partition_gpu(gpu, fracs, classes)
            else:
                instances = compute.partition_gpu(gpu, [1.0], [TenantClass.FREE])
            gpu_states.append(GpuState(device=gpu, server_id=server.id, instances=instances))
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
) -> dict[str, tuple[list[float], list[TenantClass]]]:
    """Initial GPU layouts implied by the policy.

    Static and time splits partition their ``split_targets``; the dynamic
    policy leaves all GPUs whole.
    """
    if policy.is_dynamic:
        return {}
    targets = split_targets(policy, servers, cell_hosts)
    if policy.kind is PolicyKind.STATIC_SPLIT:
        ran, ai = policy.ran_fraction, policy.ai_fraction
    else:
        start, _end, ran = policy.schedule[0]
        ai = 1.0 - ran
    layout = _split_layout(ran, ai)
    return {gpu_id: layout for gpu_id in targets}


def _split_layout(ran: float, ai: float) -> tuple[list[float], list[TenantClass]]:
    fractions, classes = [], []
    if ran > TOL:
        fractions.append(ran)
        classes.append(TenantClass.RAN)
    if ai > TOL:
        fractions.append(ai)
        classes.append(TenantClass.AI)
    if not fractions:
        fractions, classes = [1.0], [TenantClass.FREE]
    return fractions, classes


# -- slot-level settlement ---------------------------------------------------


def settle_slot(state: ClusterState, t_s: float, demands: list[float]) -> bool:
    """Grant RAN demand before AI renewal for the slot at the clock; record misses.

    Per server, demand fills GPUs in declaration order: hard RAN slices
    first, then (dynamic policy only, which also feeds the forecaster) FREE
    capacity. AI grants inside FREE slices are capped at what RAN left over;
    hard AI slices are untouched by construction. Misses are appended to
    ``state.misses`` as ``(t_s, server_id, shortfall)`` when shortfall
    exceeds 1e-9. Returns True when a GPU's throttle was applied, which may
    have changed job rates and so queued completion events. This is
    ``_settle_block`` over one slot.
    """
    rem = np.array(demands, dtype=float).reshape(-1, 1)
    return _settle_block(state, np.array([state.clock_us]), np.array([t_s]), rem) == 0


def _apply_throttle(state: ClusterState, gpu: GpuState, allowed: float):
    """Cap FREE-slice AI rates at ``allowed``, trimming newest jobs first."""
    if allowed < 0.0:
        allowed = 0.0
    free_jobs = [j for j in gpu.jobs if j.instance_id in gpu.free_ids]
    free_jobs.sort(key=lambda j: (j.arrival_time, j.id))  # oldest keeps its rate
    remaining = allowed
    eff_total = 0.0
    for job in free_jobs:
        rate = job.granted_fraction if job.granted_fraction < remaining else remaining
        remaining -= rate
        eff_total += rate
        if rate != job.service_rate:
            set_rate(state, job, rate)
    gpu.accrue(state.clock_us)
    gpu.ai_free_eff = eff_total
    gpu.throttled = eff_total < gpu.ai_free - TOL


# Segments settle in blocks of at most CHUNK_CELLS (slot, GPU) elements, so the
# arrays stay small however long a segment is (and on the heap: see SimEngine.run).
CHUNK_CELLS = 16384


@dataclass(frozen=True)
class DemandModel:
    """RAN demand per server, from one evaluator.

    ``vector`` maps a float64 array of times (s) to a (server, time) array.
    Each element depends on its own time alone, so a slot reads the same
    bits however its time is batched. ``stepwise`` says that no term varies
    continuously (constant and trace profiles only).
    """

    vector: Callable[[np.ndarray], np.ndarray]
    stepwise: bool


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
    bit for bit. When demand is stepwise, equal at the first, second and
    last slot, and no GPU is settling, one ``settle_slot`` gives every slot
    (a trace point between events moves demand only at the event's slot,
    the last, or, when it lies in (0, 0.5) us and so has no event, at the
    second). Otherwise ``_settle_block`` settles blocks of up to
    ``CHUNK_CELLS`` (slot, GPU) elements; while a GPU is throttled, whose
    test then fires at every slot, a block holds one slot.

    A slot that applies a throttle may change job rates and schedule
    events, so the call returns after it: the return value is the number of
    slots settled. ``samples`` are the times (us) of the utilization
    samples due before the segment's last slot; a sample at ``t`` shows
    the state after the last slot at or before ``t``. Those whose slot is
    settled before the last slot settled are handed over in order:
    ``emit(ran, ai, n)`` records the next ``n`` samples, where ``ran`` and
    ``ai`` give the per-GPU levels (``state.gpus`` order) either as one row
    that holds for all ``n`` or as an (n, GPU) array.
    """
    fleet, slot_us = state.fleet, state.slot_us
    if demand.stepwise and fleet.settling_until_us.max() < first_us:
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
            emit(fleet.ran_level, fleet.ai_hard + fleet.ai_free_eff, len(samples))
            if missed:
                for t_us in range(first_us + slot_us, first_us + count * slot_us, slot_us):
                    state.misses.extend((t_us / US, sid, sf) for _t, sid, sf in missed)
            state.clock_us = first_us + (count - 1) * slot_us
            return count
    chunk = max(1, CHUNK_CELLS // len(state.gpus))
    j = i = 0  # slots[:j] are settled and samples[:i] emitted
    while j < count:
        hi = min(j + (1 if fleet.throttled.any() else chunk), count)
        i_hi = bisect.bisect_left(samples, first_us + hi * slot_us, i)
        t_us = first_us + slot_us * np.arange(j, hi, dtype=np.int64)
        t_s = t_us / US
        fired = _settle_block(state, t_us, t_s, demand.vector(t_s), samples[i:i_hi], emit)
        if fired < hi - j:
            return j + fired + 1
        j, i = hi, i_hi
    return count


def _settle_block(state, t_us, t_s, rem, samples=range(0), emit=None) -> int:
    """Settle the slots at ``t_us`` (int64 us; ``t_s`` in s) in one array pass.

    ``rem`` is each server's demand, (server, slot); the other arrays are
    (GPU, slot), or (server, GPU position, slot) while demand fills one GPU
    position of every server at a time. Every element goes through the
    float operations of ``settle_slot``'s rule applied one GPU at a time,
    in the same order, so the result is that rule's slot by slot, bit for
    bit (``tests/test_segments.py`` keeps the scalar form). A position a
    server lacks, and a GPU at a slot it is settling, meets a capacity of
    0, which takes nothing and leaves the remainder as it is; a settling
    GPU feeds no forecast input and has no throttle test. Level integrals
    accrue only at the slots where the level changes, summed in slot order.

    The first slot whose throttle test fires ends the block: its levels are
    settled, then ``_apply_throttle`` runs for its firing GPUs in GPU order
    (a throttle touches only its own GPU). Returns that slot's index, or
    the number of slots when none fires. Of ``samples`` (us), which fall in
    the block, those before the firing slot go to ``emit``.
    """
    fleet = state.fleet
    n = t_us.size
    servers, width = fleet.grid_cap.shape
    caps = fleet.grid_cap[:, :, None]  # (server, position, slot)
    live = None  # (GPU, slot): not settling
    if fleet.settling_until_us.max() >= t_us[0]:
        live = fleet.settling_until_us[:, None] < t_us
        grid_live = np.ones((servers * width, n), dtype=bool)
        grid_live[fleet.grid_rows] = live
        caps = np.where(grid_live.reshape(servers, width, n), caps, 0.0)
    take = np.zeros((servers, width, n))
    for p in range(width):
        if not rem.any():
            break  # no demand is left, so every later take is 0.0
        # take = rem if rem < cap else cap; rem = 0.0 if rem < cap else rem - cap
        np.minimum(rem, caps[:, p], out=take[:, p])
        rem = np.maximum(rem - caps[:, p], 0.0)
    take = take.reshape(servers * width, n)[fleet.grid_rows]
    in_free = np.maximum(take - fleet.ran_cap[:, None], 0.0)
    ai_level = fleet.ai_hard + fleet.ai_free_eff

    stop = n
    sharing = (fleet.ai_free > 0.0) | fleet.throttled  # the GPUs with a throttle test
    if sharing.any():
        room = fleet.free_cap[:, None] - in_free
        fire = ((fleet.ai_free[:, None] > room + TOL) & sharing[:, None]) | fleet.throttled[:, None]
        if live is not None:
            fire &= live
        hits = np.flatnonzero(fire.any(axis=0))
        stop = int(hits[0]) if hits.size else n
    if stop < n:
        firing = np.flatnonzero(fire[:, stop])
        allowed = room[firing, stop].tolist()
        settled = (a[..., :stop + 1] for a in (take, in_free, rem, t_us, t_s))
        take, in_free, rem, t_us, t_s = settled
        live = None if live is None else live[:, :stop + 1]

    before = np.concatenate((fleet.ran_level[:, None], take[:, :-1]), axis=1)
    changed = take != before
    # the last accrual time before each slot, and after the last one
    accrued = np.empty((len(take), t_us.size + 1), dtype=np.int64)
    accrued[:, 0] = fleet.last_accrue_us
    np.multiply(changed, t_us, out=accrued[:, 1:])
    np.maximum.accumulate(accrued, axis=1, out=accrued)
    # time since the last accrual where the level changes, else 0: there the
    # scalar rule does not accrue, and adding 0.0 changes no integral
    dt = (t_us - accrued[:, :-1]) * changed
    # each integral, RAN then AI, and what each slot adds to it
    sums = np.empty((2, len(take), t_us.size + 1))
    sums[:, :, 0] = fleet.integrals
    np.multiply(before, dt, out=sums[0, :, 1:])
    np.multiply(ai_level[:, None], dt, out=sums[1, :, 1:])
    fleet.integrals[:] = np.add.accumulate(sums, axis=2, out=sums)[:, :, -1]
    np.copyto(fleet.ran_in_free, in_free[:, -1], where=changed.any(axis=1))
    fleet.ran_level[:] = take[:, -1]
    fleet.last_accrue_us[:] = accrued[:, -1]
    if state.soft_ran:
        # what each GPU was asked to serve: its take, plus the server's
        # shortfall on the server's last GPU (take + 0.0 is take)
        asked = take
        if rem.any():
            asked = take.copy()
            asked[fleet.last_rows] += rem
        if live is None:
            fleet.demand_last[:] = asked[:, -1]
        else:
            np.copyto(fleet.demand_last, asked[:, -1], where=live[:, -1])
            asked = np.where(live, asked, -np.inf)
        np.maximum(fleet.epoch_max, asked.max(axis=1), out=fleet.epoch_max)

    slots, owners = np.nonzero(rem.T > TOL)  # by slot, then by server
    if slots.size:
        ids = fleet.server_ids
        missed = zip(t_s[slots].tolist(), owners.tolist(), rem[owners, slots].tolist())
        state.misses.extend((t, ids[si], shortfall) for t, si, shortfall in missed)
    if samples:
        # the slot whose state each sample shows, up to the firing one
        marks = [(t - int(t_us[0])) // state.slot_us for t in samples]
        marks = marks[:bisect.bisect_left(marks, stop)]
        emit(take[:, marks].T, ai_level, len(marks))
    state.clock_us = int(t_us[-1])
    if stop < n:
        for g, room_g in zip(firing.tolist(), allowed):
            _apply_throttle(state, state.gpus[g], room_g)
    return stop


# -- placement ---------------------------------------------------------------


def _ai_classes(policy: Policy) -> tuple[TenantClass, ...]:
    """The slice classes that AI jobs may be placed in under ``policy``."""
    return (TenantClass.AI, TenantClass.FREE) if policy.is_dynamic else (TenantClass.AI,)


def _eligible_instances(state: ClusterState, gpu: GpuState) -> list[GpuInstance]:
    classes = _ai_classes(state.policy)
    return [i for i in gpu.instances if i.tenant_class in classes]


def _instance_free(gpu: GpuState, inst: GpuInstance) -> float:
    return inst.compute_fraction - gpu.inst_granted.get(inst.id, 0.0)


def _budgets(state: ClusterState) -> np.ndarray:
    """Every GPU's policy-level AI budget left (physical capacity aside), in ``gpus`` order."""
    fleet = state.fleet
    if not state.policy.is_dynamic:
        return np.full(len(state.gpus), math.inf)
    return fleet.ai_ceiling - (fleet.ai_hard + fleet.ai_free)


def plan_placement(jobs: list[AiJob] | PlacementOrder, state: ClusterState) -> PlacementDecision:
    """First-fit placement of whole job demands.

    INTERACTIVE jobs go first, in arrival order, and only onto instances
    whose grantable fraction meets their latency bound. BATCH jobs follow,
    first-fit-decreasing by demand fraction. Candidate order: servers by
    id, then GPUs by free capacity descending (ties by id), then instances
    by free capacity descending (ties by id). Jobs that fit nowhere stay
    queued; rejection happens only at enqueue time via the queue bound.
    ``jobs`` is any list of jobs, or a ``PlacementOrder`` already in that
    order, such as ``state.pending``.

    Bound invariant: within one call, instance frees and GPU budgets only
    decrease, so the largest grantable fraction seen by a scan that failed
    bounds every grantable fraction for the rest of the call. A job whose
    demand is above that bound + TOL cannot fit, so it is skipped without a
    scan; in the demand-sorted BATCH run one bisection skips them all.
    Right after a failed scan the next job not skipped fits, so at most one
    scan fails per placement made, and the cost of a call does not grow
    with the number of queued jobs that cannot fit. A scan reads each
    server unsorted first and passes over one whose largest grantable
    fraction + TOL is below the demand, before sorting it: none of its
    candidates fits, and walking them would only raise the bound to that
    same fraction. So a failed scan sorts nothing and returns the bound a
    full walk returns, and a server that can fit is walked in candidate
    order to the same first fit.
    """
    order = jobs if isinstance(jobs, PlacementOrder) else PlacementOrder(jobs)
    decision = PlacementDecision()
    budgets = _budgets(state).tolist()  # by GPU index
    settling = (state.fleet.settling_until_us > state.clock_us).tolist()
    frees: dict[str, float] = {}
    classes = _ai_classes(state.policy)
    eligible_by = state.clock + TOL
    servers = sorted(state.servers, key=lambda s: s.server.id)

    def try_place(job: AiJob) -> float | None:
        """Place ``job``; on failure return the largest grantable fraction seen."""
        demand = job.demand_fraction
        best = -math.inf
        for srv in servers:
            top = -math.inf  # the server's largest grantable fraction
            for gpu in srv.gpus:
                if settling[gpu.index]:
                    continue
                budget = budgets[gpu.index]
                for inst in gpu.instances:
                    if inst.tenant_class not in classes:
                        continue
                    free = frees.get(inst.id)
                    if free is None:
                        free = frees[inst.id] = _instance_free(gpu, inst)
                    grantable = free if free < budget else budget
                    if grantable > top:
                        top = grantable
            if top + TOL < demand:
                if top > best:
                    best = top
                continue
            # some slice here fits: walk the server in candidate order
            gpus = []
            for gpu in srv.gpus:
                if not settling[gpu.index]:
                    insts = [i for i in gpu.instances if i.tenant_class in classes]
                    total_free = sum(frees[i.id] for i in insts)
                    gpus.append((-total_free, gpu.device.id, gpu.index, insts))
            for _, gpu_id, g, insts in sorted(gpus, key=lambda c: c[:2]):
                budget = budgets[g]
                for inst in sorted(insts, key=lambda i: (-frees[i.id], i.id)):
                    free = frees[inst.id]
                    grantable = free if free < budget else budget
                    if grantable + TOL < demand:
                        continue
                    decision.assignments[job.id] = (srv.server.id, gpu_id, inst.id, demand)
                    frees[inst.id] = free - demand
                    budgets[g] = budget - demand
                    return None
        return best

    entries = order.entries
    bound = math.inf  # largest grantable fraction left; inf until a scan fails
    i, n = 0, len(entries)
    while i < n:
        rank, _key, _id, job = entries[i]
        i += 1
        if bound + TOL < job.demand_fraction:
            if rank == _BATCH_RANK:
                i = bisect.bisect_left(entries, (_BATCH_RANK, -(bound + TOL)), i)
            continue
        if job.state not in (JobState.QUEUED, JobState.PREEMPTED):
            continue
        if job.eligible_at_s > eligible_by:
            continue
        if rank == _INTERACTIVE_RANK and job.demand_fraction + TOL < job.required_rate:
            continue  # its demand can never meet the latency bound
        best = try_place(job)
        if best is not None:
            bound = best
    return decision


# -- policy epochs -----------------------------------------------------------


def _window(policy: Policy) -> int:
    """Epochs a max-over-window forecast spans, the current one included."""
    return max(1, round(policy.window_s / policy.epoch_s))


def forecast_holds(state: ClusterState) -> bool:
    """Whether the next epoch's roll leaves every GPU's forecast inputs as they are.

    It does when each GPU's history is full and its ``epoch_max`` and every
    past epoch's maximum equal its ``demand_last``.
    """
    fleet = state.fleet
    if not (fleet.epoch_max == fleet.demand_last).all():
        return False
    full = _window(state.policy) - 1
    return all(
        len(gpu.epoch_history) == full and all(past == last for past in gpu.epoch_history)
        for gpu, last in zip(state.gpus, fleet.demand_last.tolist())
    )


def _queued_demand(state: ClusterState) -> float:
    """Eligible queued demand, summed in queue order only until it exceeds TOL.

    Its one use is the test ``queued + undergrant > TOL``. A sum of
    non-negative terms never shrinks, so once past TOL it decides that test
    as the full sum would.
    """
    total = 0.0
    eligible_by = state.clock + TOL
    for _, jid in state.queue:
        job = state.jobs[jid]
        if job.eligible_at_s <= eligible_by:
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
    from the RAN forecast and emits grants/reclaims toward it.
    """
    policy = state.policy
    actions: list[ScaleAction] = []
    if policy.kind is PolicyKind.STATIC_SPLIT:
        return [ScaleAction(ActionKind.NO_OP)]

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
        for srv in state.servers:
            for gpu in srv.gpus:
                if gpu.device.id not in targets:
                    continue
                # snap the layout to the device grid so identical schedules
                # compare equal against the live instances
                total = gpu.device.total_units
                snapped = round(ran * total) / total
                fractions, classes = _split_layout(snapped, 1.0 - snapped)
                fractions = [round(f * total) / total for f in fractions]
                current = tuple(
                    (i.compute_fraction, i.tenant_class) for i in gpu.instances
                )
                if current != tuple(zip(fractions, classes)):
                    actions.append(
                        ScaleAction(
                            ActionKind.REPARTITION,
                            server_id=srv.server.id,
                            gpu_id=gpu.device.id,
                            fractions=tuple(fractions),
                            classes=tuple(classes),
                        )
                    )
        return actions or [ScaleAction(ActionKind.NO_OP)]

    # DYNAMIC_BACKFILL
    ratio = t / policy.epoch_s
    if abs(ratio - round(ratio)) > 1e-6:
        raise InvalidEpoch(f"t={t} is not on the {policy.epoch_s}s epoch grid")
    queued = _queued_demand(state)
    fleet = state.fleet
    last_value = policy.forecast is ForecastKind.LAST_VALUE
    full = _window(policy) - 1
    ceilings = []
    rows = zip(
        state.gpus,
        fleet.demand_last.tolist(),
        fleet.epoch_max.tolist(),
        (fleet.ai_hard + fleet.ai_free).tolist(),
    )
    for gpu, demand_last, epoch_max, current in rows:
        history = gpu.epoch_history
        forecast = demand_last if last_value else max((epoch_max, *history))
        # roll the window: this epoch's maximum joins the history
        history.append(epoch_max)
        while len(history) > full:
            history.popleft()
        ceiling = 1.0 - forecast - policy.safety_margin
        if ceiling < 0.0:
            ceiling = 0.0
        ceilings.append(ceiling)
        if current > ceiling + TOL:
            actions.append(
                ScaleAction(
                    ActionKind.RECLAIM_AI,
                    server_id=gpu.server_id,
                    gpu_id=gpu.device.id,
                    fraction=current - ceiling,
                )
            )
        else:
            headroom = ceiling - current
            wanted = queued + _undergrant(gpu)
            min_grant = gpu.device.partition_granularity
            if headroom + TOL >= min_grant and wanted > TOL:
                actions.append(
                    ScaleAction(
                        ActionKind.GRANT_AI,
                        server_id=gpu.server_id,
                        gpu_id=gpu.device.id,
                        fraction=headroom,
                    )
                )
    fleet.ai_ceiling[:] = ceilings
    fleet.epoch_max[:] = fleet.demand_last
    return actions or [ScaleAction(ActionKind.NO_OP)]


# -- applying actions ----------------------------------------------------------


def _job_sort_newest(jobs: list[AiJob]) -> list[AiJob]:
    return sorted(jobs, key=lambda j: (j.arrival_time, j.id), reverse=True)


def _change_grant(state: ClusterState, gpu: GpuState, job: AiJob, amount: float):
    """Add ``amount`` (negative to release) to ``job``'s grant in its slice.

    The GPU's level integrals are accrued at the old level first. The
    slice's ledger entry, the GPU's FREE or hard AI total and the job's
    grant all move by ``amount``.
    """
    gpu.accrue(state.clock_us)
    gpu.inst_granted[job.instance_id] += amount
    if job.instance_id in gpu.free_ids:
        gpu.ai_free += amount
    else:
        gpu.ai_hard += amount
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


def accrue_all(state: ClusterState):
    """Bring every GPU's level integrals and every running job's work up to the clock."""
    fleet = state.fleet
    dt = state.clock_us - fleet.last_accrue_us
    due = dt > 0
    fleet.ran_integral[due] += fleet.ran_level[due] * dt[due]
    fleet.ai_integral[due] += (fleet.ai_hard + fleet.ai_free_eff)[due] * dt[due]
    fleet.last_accrue_us[due] = state.clock_us
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
    """Suspend a running job, preserving its remaining work."""
    state.log("preempt", gpu.device.id, job=job.id, fraction=job.granted_fraction)
    set_rate(state, job, 0.0)
    _change_grant(state, gpu, job, -job.granted_fraction)
    gpu.jobs.remove(job)
    job.state = JobState.PREEMPTED
    job.preempt_count += 1
    job.eligible_at_s = state.clock + state.policy.resume_delay_s
    job.server_id = job.gpu_id = job.instance_id = None
    state.enqueue(job)


def _reclaim(state: ClusterState, action: ScaleAction):
    gpu = state.gpu_by_id(action.gpu_id)
    delta = action.fraction
    for job in _job_sort_newest(list(gpu.jobs)):
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


def start_job(
    state: ClusterState,
    job: AiJob,
    server_id: str,
    gpu: GpuState,
    inst_id: str,
    grant: float,
):
    """Move a queued/preempted job into RUNNING with the given grant."""
    if job.state in (JobState.QUEUED, JobState.PREEMPTED):
        state.dequeue(job)
    job.state = JobState.RUNNING
    job.server_id = server_id
    job.gpu_id = gpu.device.id
    job.instance_id = inst_id
    if job.first_start_time is None:
        job.first_start_time = state.clock
    gpu.jobs.append(job)
    _change_grant(state, gpu, job, grant)  # a job out of service holds no grant
    set_rate(state, job, grant)
    _refresh_effective(state, gpu)
    state.log("place", gpu.device.id, job=job.id, instance=inst_id, fraction=grant)


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
    """Re-apply the slot-level FREE-slice cap after grant changes."""
    allowed = gpu.free_cap - gpu.ran_in_free
    if gpu.ai_free > allowed + TOL or gpu.throttled:
        _apply_throttle(state, gpu, allowed)
    else:
        gpu.accrue(state.clock_us)
        gpu.ai_free_eff = gpu.ai_free


def _top_up(state: ClusterState, gpu: GpuState, budget: float) -> float:
    """Raise under-granted running jobs toward their demand, oldest first."""
    for job in sorted(gpu.jobs, key=lambda j: (j.arrival_time, j.id)):
        if budget <= TOL:
            break
        gap = job.demand_fraction - job.granted_fraction
        if gap <= TOL:
            continue
        inst_free = 0.0
        for inst in gpu.instances:
            if inst.id == job.instance_id:
                inst_free = _instance_free(gpu, inst)
        extra = min(gap, budget, inst_free)
        if extra <= TOL:
            continue
        _change_grant(state, gpu, job, extra)
        set_rate(state, job, job.granted_fraction)
        state.log("grant", gpu.device.id, job=job.id, fraction=extra)
        budget -= extra
    _refresh_effective(state, gpu)
    return budget


def backfill_queue(state: ClusterState, gpu: GpuState, budget: float) -> float:
    """Grant queued BATCH jobs partial fractions from a GPU's budget.

    Partial grants are the backfill mechanism: batch work runs at whatever
    rate it is given. INTERACTIVE jobs are never partially granted; they
    only enter via plan_placement with their full demand.
    """
    if gpu.settling_until_us > state.clock_us:
        return budget
    min_grant = gpu.device.partition_granularity
    if budget < min_grant - TOL:
        return budget
    server_id = gpu.server_id
    queue = state.queue
    i = 0  # start_job dequeues queue[i - 1], so the next job then sits there
    while i < len(queue) and budget >= min_grant - TOL:
        job = state.jobs[queue[i][1]]
        i += 1
        if job.slo_class is not SloClass.BATCH:
            continue
        if job.eligible_at_s > state.clock + TOL:
            continue
        insts = sorted(
            _eligible_instances(state, gpu),
            key=lambda inst: (-_instance_free(gpu, inst), inst.id),
        )
        if not insts or _instance_free(gpu, insts[0]) + TOL < min_grant:
            break  # frees only shrink here: no later job can be granted either
        for inst in insts:
            free = _instance_free(gpu, inst)
            grant = min(job.demand_fraction, budget, free)
            if grant + TOL < min_grant:
                continue
            start_job(state, job, server_id, gpu, inst.id, grant)
            budget -= grant
            i -= 1
            break
    return budget


def placement_round(state: ClusterState):
    """Place what fits of the queue, then backfill every GPU that has a budget.

    GPUs that are settling after a repartition are left out of the backfill.
    """
    if state.queue:
        decision = plan_placement(state.pending, state)
        for job_id, (srv_id, gpu_id, inst_id, fraction) in decision.assignments.items():
            gpu = state.gpu_by_id(gpu_id)
            start_job(state, state.jobs[job_id], srv_id, gpu, inst_id, fraction)
    if state.queue:
        budgets = _budgets(state)
        ready = (budgets > 1e-9) & (state.fleet.settling_until_us <= state.clock_us)
        for g, budget in zip(np.flatnonzero(ready).tolist(), budgets[ready].tolist()):
            backfill_queue(state, state.gpus[g], budget)


def apply_actions(state: ClusterState, actions: list[ScaleAction]) -> ClusterState:
    """Apply policy actions in order; mutates and returns ``state``."""
    for action in actions:
        if action.kind is ActionKind.NO_OP:
            continue
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
    gpu = state.gpu_by_id(action.gpu_id)
    for job in list(gpu.jobs):  # drain AI before resizing
        preempt_job(state, gpu, job)
    gpu.accrue(state.clock_us)
    gpu.generation += 1
    prefix = f"{gpu.device.id}.g{gpu.generation}"
    gpu.instances = compute.repartition(
        gpu.device,
        gpu.instances,
        gpu.inst_granted,
        list(action.fractions),
        list(action.classes),
        id_prefix=prefix,
    )
    gpu.refresh_caches(state.soft_ran)
    # the boundary slot finishes on the old layout (ran_level persists);
    # the next settle_slots slot settlements find the GPU settling
    gpu.ai_free_eff = 0.0
    gpu.throttled = False
    gpu.settling_until_us = state.clock_us + state.policy.settle_slots * state.slot_us
    state.log("repartition", gpu.device.id, layout=list(zip(action.fractions, action.classes)))
    state.push(gpu.settling_until_us, EventKind.REPARTITION_SETTLED, (gpu.device.id,))
