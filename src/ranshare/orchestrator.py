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
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import compute
from .compute import GpuDevice, GpuInstance, Server, TenantClass
from .errors import InvalidEpoch
from .workload import AiJob, JobState, SloClass

TOL = 1e-9
US = 1_000_000  # microseconds per second


class PolicyKind(Enum):
    STATIC_SPLIT = "static_split"
    TIME_SPLIT = "time_split"
    DYNAMIC_BACKFILL = "dynamic_backfill"


class ForecastKind(Enum):
    LAST_VALUE = "last_value"
    MAX_OVER_WINDOW = "max_over_window"


@dataclass(frozen=True)
class Policy:
    kind: PolicyKind
    ran_fraction: float = 0.0
    ai_fraction: float = 0.0
    split_gpus: tuple[str, ...] = ()  # empty: first GPU of each cell-hosting server
    schedule: tuple[tuple[float, float, float], ...] = ()  # (start_s, end_s, ran_fraction)
    epoch_s: float = 0.1
    safety_margin: float = 0.05
    forecast: ForecastKind = ForecastKind.MAX_OVER_WINDOW
    window_s: float = 0.2
    queue_bound: int | None = None
    resume_delay_s: float = 0.0
    settle_slots: int = 1

    def __post_init__(self):
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


class EngineHooks:
    """Callbacks the simulation engine installs; defaults are inert.

    ``set_rate`` must accrue the job's progress up to the current clock
    before changing its effective rate, and refresh any pending completion
    event. ``log_event`` records structured events for the output trace.
    ``on_repartition`` lets the engine schedule the settling-complete event.
    """

    def set_rate(self, job: AiJob, rate: float):
        job.service_rate = rate
        job.version += 1

    def log_event(self, kind: str, subject: str, detail: str):
        pass

    def on_repartition(self, gpu: "GpuState"):
        pass


@dataclass
class GpuState:
    """Mutable per-GPU scheduling state plus metrics accumulators."""

    device: GpuDevice
    server_id: str
    instances: list[GpuInstance]
    # slice-size caches, refreshed on (re)partition
    ran_cap: float = 0.0
    ai_cap: float = 0.0
    free_cap: float = 0.0
    # current slot levels
    ran_level: float = 0.0
    ran_in_free: float = 0.0
    ai_hard: float = 0.0  # granted inside AI slices
    ai_free: float = 0.0  # granted inside FREE slices
    ai_free_eff: float = 0.0  # after the slot-level cap
    throttled: bool = False
    jobs: list[AiJob] = field(default_factory=list)
    inst_granted: dict[str, float] = field(default_factory=dict)
    free_ids: set = field(default_factory=set)
    # repartition settling
    settling_until_us: int = -1
    generation: int = 0
    # forecast inputs (maintained by settle_slot under dynamic policies)
    demand_last: float = 0.0
    epoch_max: float = 0.0
    epoch_history: deque = field(default_factory=deque)
    ai_ceiling: float = 1.0
    # metrics accrual (microsecond clock)
    ran_integral: float = 0.0
    ai_integral: float = 0.0
    last_accrue_us: int = 0
    annotations: dict[str, int] = field(default_factory=dict)

    def refresh_caches(self):
        self.ran_cap = self.ai_cap = self.free_cap = 0.0
        self.inst_granted = {i.id: 0.0 for i in self.instances}
        self.free_ids = set()
        for inst in self.instances:
            f = inst.compute_fraction
            if inst.tenant_class is TenantClass.RAN:
                self.ran_cap += f
            elif inst.tenant_class is TenantClass.AI:
                self.ai_cap += f
            else:
                self.free_cap += f
                self.free_ids.add(inst.id)

    @property
    def ai_level(self) -> float:
        return self.ai_hard + self.ai_free_eff

    def accrue(self, now_us: int):
        dt = now_us - self.last_accrue_us
        if dt > 0:
            self.ran_integral += self.ran_level * dt
            self.ai_integral += (self.ai_hard + self.ai_free_eff) * dt
            self.last_accrue_us = now_us

    def annotate(self, kind: str, n: int = 1):
        self.annotations[kind] = self.annotations.get(kind, 0) + n


@dataclass
class ServerState:
    server: Server
    gpus: list[GpuState]
    current_demand: float = 0.0


@dataclass
class ClusterState:
    servers: list[ServerState]
    policy: Policy
    jobs: dict[str, AiJob] = field(default_factory=dict)
    clock_us: int = 0
    slot_us: int = 500
    hooks: EngineHooks = field(default_factory=EngineHooks)
    # the queue, changed only by enqueue/dequeue: (arrival, id) in arrival
    # order, the set of its ids, and its jobs in placement order
    queue: list[tuple[float, str]] = field(init=False, default_factory=list)
    queued: set[str] = field(init=False, default_factory=set)
    pending: PlacementOrder = field(init=False, default_factory=PlacementOrder)
    # dynamic policy lets RAN spill into FREE capacity (hot-loop cache)
    soft_ran: bool = field(init=False, default=False)
    # every GPU, servers in order and each server's GPUs in order
    gpus: list[GpuState] = field(init=False, repr=False, default_factory=list)
    _gpus: dict[str, GpuState] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.soft_ran = self.policy.is_dynamic
        self.gpus = [gpu for srv in self.servers for gpu in srv.gpus]
        self._gpus = {gpu.device.id: gpu for gpu in self.gpus}

    @property
    def clock(self) -> float:
        return self.clock_us / US

    def gpu_by_id(self, gpu_id: str) -> GpuState:
        return self._gpus[gpu_id]

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
    hooks: EngineHooks | None = None,
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
            gs = GpuState(device=gpu, server_id=server.id, instances=instances)
            gs.refresh_caches()
            gpu_states.append(gs)
        server_states.append(ServerState(server=server, gpus=gpu_states))
    return ClusterState(
        servers=server_states, policy=policy, hooks=hooks or EngineHooks()
    )


def initial_partitions(
    policy: Policy, servers: list[Server], cell_hosts: set[str]
) -> dict[str, tuple[list[float], list[TenantClass]]]:
    """Initial GPU layouts implied by the policy.

    Static and time splits partition the designated GPUs (defaulting to the
    first GPU of every cell-hosting server); the dynamic policy leaves all
    GPUs whole.
    """
    if policy.is_dynamic:
        return {}
    targets = list(policy.split_gpus)
    if not targets:
        targets = [s.gpus[0].id for s in servers if s.id in cell_hosts]
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


def settle_slot(
    state: ClusterState,
    t_s: float,
    demands: list[float],
    miss_sink: list,
    track_forecast: bool = False,
) -> bool:
    """Grant RAN demand before AI renewal for one slot; record misses.

    Per server, demand fills GPUs in declaration order: hard RAN slices
    first, then (dynamic policy only) FREE capacity. AI grants inside FREE
    slices are capped at what RAN left over; hard AI slices are untouched
    by construction. Misses are appended to ``miss_sink`` as
    ``(t_s, server_id, shortfall)`` tuples when shortfall exceeds 1e-9.
    Returns True when a GPU's throttle was applied, which may have changed
    job rates and, through the hooks, scheduled events.
    """
    soft = state.soft_ran
    now_us = state.clock_us
    applied = False
    for si, srv in enumerate(state.servers):
        demand = demands[si]
        srv.current_demand = demand
        rem = demand
        for gpu in srv.gpus:
            if gpu.settling_until_us >= now_us:
                # repartition settling: slices accept no allocations
                if gpu.ran_level != 0.0:
                    gpu.accrue(now_us)
                    gpu.ran_level = 0.0
                    gpu.ran_in_free = 0.0
                continue
            cap = gpu.ran_cap + gpu.free_cap if soft else gpu.ran_cap
            if rem < cap:
                take = rem
                rem = 0.0
            else:
                take = cap
                rem -= cap
            if track_forecast:
                # what this GPU was asked to serve, for the forecaster
                asked = take + (rem if gpu is srv.gpus[-1] else 0.0)
                gpu.demand_last = asked
                if asked > gpu.epoch_max:
                    gpu.epoch_max = asked
            in_free = take - gpu.ran_cap
            if in_free < 0.0:
                in_free = 0.0
            changed = take != gpu.ran_level
            if changed:
                gpu.accrue(now_us)
                gpu.ran_level = take
                gpu.ran_in_free = in_free
            if gpu.ai_free > 0.0 or gpu.throttled:
                allowed = gpu.free_cap - in_free
                if gpu.ai_free > allowed + TOL or gpu.throttled:
                    _apply_throttle(state, gpu, allowed)
                    applied = True
        if rem > TOL:
            miss_sink.append((t_s, srv.server.id, rem))
            srv.gpus[0].annotate("miss")
    return applied


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
            state.hooks.set_rate(job, rate)
    gpu.accrue(state.clock_us)
    gpu.ai_free_eff = eff_total
    gpu.throttled = eff_total < gpu.ai_free - TOL


# A numpy pass has a fixed cost: it breaks even with slot-by-slot settlement
# at about 75 slots on 2 GPUs and 16 slots on 64 (measured on poc and
# cluster_diurnal), so segments shorter than VECTOR_MIN_SLOTS settle slot by
# slot. Longer ones are passed in chunks of at most CHUNK_CELLS (slot, GPU)
# elements, so that the arrays stay small however long the segment is.
VECTOR_MIN_SLOTS = 32
CHUNK_CELLS = 16384


@dataclass(frozen=True)
class DemandModel:
    """RAN demand per server, compiled twice from the same terms.

    ``scalar[i]`` maps a time in seconds to server ``i``'s demand;
    ``vector`` maps a float64 array of times to a (server, time) array
    whose every element equals the scalar value. ``stepwise`` says that no
    term varies continuously (constant and trace profiles only).
    """

    scalar: tuple[Callable[[float], float], ...]
    vector: Callable[[np.ndarray], np.ndarray]
    stepwise: bool


def settle_segment(
    state: ClusterState,
    first_us: int,
    count: int,
    demand: DemandModel,
    miss_sink: list,
    track_forecast: bool,
    samples: range,
    emit,
) -> int:
    """Settle ``count`` slots from ``first_us`` that no event separates.

    The result is that of ``settle_slot`` called once per slot, in order:
    levels, misses, annotations, forecast inputs and level integrals are
    the same, bit for bit. Three ways, chosen per segment:

    * closed form, when demand is stepwise and equal at the first, second
      and last slot (a trace point between events moves demand only at the
      event's slot, the last, or, when it lies in (0, 0.5) us and so has no
      event, at the second): after one ``settle_slot`` every slot repeats it;
    * slot by slot with ``settle_slot``, while a GPU is settling and for
      segments shorter than ``VECTOR_MIN_SLOTS``;
    * otherwise numpy passes of up to ``CHUNK_CELLS`` (slot, GPU) elements, with
      ``settle_slot`` at each slot whose throttle test fires.

    A slot that applies a throttle may change job rates and schedule
    events, so the call returns after it: the return value is the number of
    slots settled. ``samples`` are the times (us) of the utilization
    samples due before the segment's last slot; a sample at ``t`` shows the
    state after the last slot at or before ``t``. For each sample whose
    slot is settled before the last slot settled, ``emit(ran, ai)``
    receives the per-GPU levels (``state.gpus`` order) of that state, with
    the slot's misses already annotated; ``emit(ran, ai, n)`` stands for
    ``n`` such calls in a row.
    """
    if any(gpu.settling_until_us >= first_us for gpu in state.gpus):
        return _settle_slots(
            state, first_us, count, demand, miss_sink, track_forecast, samples, emit
        )
    if demand.stepwise:
        steady = _steady_demand(demand, first_us, count, state.slot_us)
        if steady is not None:
            return _settle_steady(
                state, first_us, count, steady, miss_sink, track_forecast, samples, emit
            )
    if count < VECTOR_MIN_SLOTS:
        return _settle_slots(
            state, first_us, count, demand, miss_sink, track_forecast, samples, emit
        )
    return _settle_chunks(
        state, first_us, count, demand, miss_sink, track_forecast, samples, emit
    )


def _state_levels(state: ClusterState) -> tuple[list[float], list[float]]:
    return [g.ran_level for g in state.gpus], [g.ai_level for g in state.gpus]


def _settle_one(state, t_us, demand, miss_sink, track_forecast) -> bool:
    state.clock_us = t_us
    t_s = t_us / US
    demands = [f(t_s) for f in demand.scalar]
    return settle_slot(state, t_s, demands, miss_sink, track_forecast)


def _settle_slots(state, first_us, count, demand, miss_sink, track_forecast, samples, emit):
    """The scalar path: one ``settle_slot`` per slot."""
    slot_us = state.slot_us
    i = 0  # samples[:i] are emitted
    for j in range(count):
        t_us = first_us + j * slot_us
        if _settle_one(state, t_us, demand, miss_sink, track_forecast):
            return j + 1
        while i < len(samples) and samples[i] < t_us + slot_us:
            emit(*_state_levels(state))
            i += 1
    return count


def _steady_demand(demand, first_us, count, slot_us) -> list[float] | None:
    """Per-server demand if it is the same at every slot of the segment."""
    first = [f(first_us / US) for f in demand.scalar]
    for j in (1, count - 1):
        if 0 < j < count:
            t_s = (first_us + j * slot_us) / US
            if [f(t_s) for f in demand.scalar] != first:
                return None
    return first


def _settle_steady(state, first_us, count, demands, miss_sink, track_forecast, samples, emit):
    """Closed form for constant demand: the first slot, then ``count - 1`` repeats.

    With demand unchanged and no throttle applied, a second ``settle_slot``
    changes no level and no forecast input, so every later slot only
    repeats the first one's misses.
    """
    slot_us = state.slot_us
    before = len(miss_sink)
    state.clock_us = first_us
    if settle_slot(state, first_us / US, demands, miss_sink, track_forecast):
        return 1
    missed = miss_sink[before:]
    ran, ai = _state_levels(state)
    if not missed:
        emit(ran, ai, len(samples))
    else:
        missed_ids = {sid for _t, sid, _sf in missed}
        heads = [srv.gpus[0] for srv in state.servers if srv.server.id in missed_ids]
        done = 0  # slots whose misses are annotated
        for k in [(t - first_us) // slot_us for t in samples] + [count - 1]:
            if k > done:
                for gpu in heads:
                    gpu.annotate("miss", k - done)
                done = k
            if k < count - 1:
                emit(ran, ai)
        for j in range(1, count):
            t_s = (first_us + j * slot_us) / US
            miss_sink.extend((t_s, sid, shortfall) for _t, sid, shortfall in missed)
    state.clock_us = first_us + (count - 1) * slot_us
    return count


def _settle_chunks(state, first_us, count, demand, miss_sink, track_forecast, samples, emit):
    """The numpy path, with ``settle_slot`` wherever the throttle test fires."""
    slot_us = state.slot_us
    chunk = max(1, CHUNK_CELLS // len(state.gpus))
    j = 0
    i = 0  # samples[:i] are emitted
    while j < count:
        if not any(gpu.throttled for gpu in state.gpus):
            hi = min(j + chunk, count)
            i_hi = bisect.bisect_left(samples, first_us + hi * slot_us, i)
            n = _settle_run(
                state, first_us + j * slot_us, hi - j, demand, miss_sink,
                track_forecast, samples[i:i_hi], emit,
            )
            if j + n == hi:
                j, i = hi, i_hi
                continue
            j += n
        # the throttle test fires at slot j: settle it alone, and end here
        _settle_one(state, first_us + j * slot_us, demand, miss_sink, track_forecast)
        return j + 1
    return count


def _settle_run(state, first_us, n, demand, miss_sink, track_forecast, samples, emit) -> int:
    """Settle up to ``n`` slots in one numpy pass; no GPU is settling or throttled.

    Arrays are (GPU, slot) or (server, slot). Demand fills one GPU
    position of every server at a time; a server without a GPU there meets
    a capacity of 0, which takes nothing and leaves its remainder as it
    is. Every element goes through the float operations ``settle_slot``
    does, in the same order, so the levels match it bit for bit.
    Integrals are summed left to right over the slots in order, adding
    0.0 where a GPU's level does not change, the slots where
    ``settle_slot`` does not accrue. Stops before the first slot whose
    throttle test would fire; returns the number of slots settled.
    """
    gpus, servers = state.gpus, state.servers
    t_us = first_us + state.slot_us * np.arange(n, dtype=np.int64)
    t_s = t_us / US
    load = rem = demand.vector(t_s)
    take = np.empty((len(gpus), n))
    sizes = np.array([len(srv.gpus) for srv in servers])
    first_row = np.cumsum(sizes) - sizes  # each server's first GPU in ``gpus``
    for j in range(sizes.max()):
        have = np.flatnonzero(sizes > j)
        caps = np.zeros((len(servers), 1))
        for si in have:
            gpu = servers[si].gpus[j]
            caps[si] = gpu.ran_cap + gpu.free_cap if state.soft_ran else gpu.ran_cap
        fits = rem < caps
        at = np.where(fits, rem, caps)
        rem = np.where(fits, 0.0, rem - caps)
        take[first_row[have] + j] = at[have]
    ran_cap = np.array([[g.ran_cap] for g in gpus])
    in_free = take - ran_cap
    in_free[in_free < 0.0] = 0.0

    stop = n
    sharing = [g for g, gpu in enumerate(gpus) if gpu.ai_free > 0.0]
    if sharing:
        ai_free = np.array([[gpus[g].ai_free] for g in sharing])
        free_cap = np.array([[gpus[g].free_cap] for g in sharing])
        fire = np.flatnonzero((ai_free > (free_cap - in_free[sharing]) + TOL).any(axis=0))
        if fire.size:
            stop = int(fire[0])
            if stop == 0:
                return 0

    take, in_free, at_us = take[:, :stop], in_free[:, :stop], t_us[:stop]
    level = np.array([[g.ran_level] for g in gpus])
    before = np.concatenate((level, take[:, :-1]), axis=1)
    changed = take != before
    accrued = np.array([[g.last_accrue_us] for g in gpus])
    upto = np.maximum.accumulate(np.where(changed, at_us, accrued), axis=1)
    dt = at_us - np.concatenate((accrued, upto[:, :-1]), axis=1)
    ai_level = np.array([[g.ai_level] for g in gpus])
    ran_int = np.array([[g.ran_integral] for g in gpus])
    ai_int = np.array([[g.ai_integral] for g in gpus])
    ran_int = np.cumsum(np.concatenate((ran_int, np.where(changed, before * dt, 0.0)), axis=1), axis=1)
    ai_int = np.cumsum(np.concatenate((ai_int, np.where(changed, ai_level * dt, 0.0)), axis=1), axis=1)
    rows = zip(
        gpus, changed.any(axis=1).tolist(), take[:, -1].tolist(), in_free[:, -1].tolist(),
        upto[:, -1].tolist(), ran_int[:, -1].tolist(), ai_int[:, -1].tolist(),
    )
    for gpu, moved, ran_level, ran_in_free, accrued_us, ran_integral, ai_integral in rows:
        if moved:
            gpu.ran_level, gpu.ran_in_free = ran_level, ran_in_free
            gpu.last_accrue_us = accrued_us
            gpu.ran_integral, gpu.ai_integral = ran_integral, ai_integral
    if track_forecast:
        # what each GPU was asked to serve: its take, plus the server's
        # shortfall on the server's last GPU
        asked = take.copy()
        asked[first_row + sizes - 1] += rem[:, :stop]
        for gpu, last, peak in zip(gpus, asked[:, -1].tolist(), asked.max(axis=1).tolist()):
            gpu.demand_last = last
            if peak > gpu.epoch_max:
                gpu.epoch_max = peak
    for srv, current in zip(state.servers, load[:, stop - 1].tolist()):
        srv.current_demand = current

    missed = rem[:, :stop] > TOL
    slots, owners = np.nonzero(missed.T)  # by slot, then by server
    ids = [srv.server.id for srv in state.servers]
    miss_sink.extend(
        (t, ids[si], shortfall)
        for t, si, shortfall in zip(
            t_s[slots].tolist(), owners.tolist(), rem[owners, slots].tolist()
        )
    )

    # the slot whose state each sample shows
    marks = (np.arange(samples.start, samples.stop, samples.step) - first_us) // state.slot_us
    marks = marks[marks < stop]
    ai = ai_level[:, 0].tolist()
    heads = [(srv.gpus[0], si) for si, srv in enumerate(state.servers) if missed[si].any()]
    counts = np.cumsum(missed[[si for _g, si in heads]], axis=1)
    at_marks = counts[:, marks].tolist()
    done = [0] * len(heads)
    for i, ran in enumerate(take[:, marks].T.tolist()):
        for h, (head, _si) in enumerate(heads):
            if at_marks[h][i] > done[h]:
                head.annotate("miss", at_marks[h][i] - done[h])
                done[h] = at_marks[h][i]
        emit(ran, ai)
    for h, (head, _si) in enumerate(heads):
        if counts[h, -1] > done[h]:
            head.annotate("miss", int(counts[h, -1]) - done[h])
    state.clock_us = int(at_us[-1])
    return stop


# -- placement ---------------------------------------------------------------


def _eligible_instances(state: ClusterState, gpu: GpuState) -> list[GpuInstance]:
    classes = (TenantClass.AI, TenantClass.FREE) if state.policy.is_dynamic else (
        TenantClass.AI,
    )
    return [i for i in gpu.instances if i.tenant_class in classes]


def _instance_free(gpu: GpuState, inst: GpuInstance) -> float:
    return inst.compute_fraction - gpu.inst_granted.get(inst.id, 0.0)


def _gpu_budget(state: ClusterState, gpu: GpuState) -> float:
    """Policy-level AI budget left on a GPU (physical capacity aside)."""
    if not state.policy.is_dynamic:
        return math.inf
    return gpu.ai_ceiling - (gpu.ai_hard + gpu.ai_free)


def plan_placement(
    jobs: list[AiJob] | PlacementOrder, state: ClusterState, policy: Policy
) -> PlacementDecision:
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
    with the number of queued jobs that cannot fit.
    """
    order = jobs if isinstance(jobs, PlacementOrder) else PlacementOrder(jobs)
    decision = PlacementDecision()
    budgets: dict[str, float] = {}
    frees: dict[str, float] = {}
    now_us = state.clock_us
    eligible_by = state.clock + TOL
    servers = sorted(state.servers, key=lambda s: s.server.id)

    def free_of(gpu: GpuState, inst: GpuInstance) -> float:
        free = frees.get(inst.id)
        if free is None:
            free = frees[inst.id] = _instance_free(gpu, inst)
        return free

    def candidates():
        for srv in servers:
            gpus = []
            for gpu in srv.gpus:
                if gpu.settling_until_us > now_us:
                    continue
                total_free = sum(free_of(gpu, i) for i in _eligible_instances(state, gpu))
                gpus.append((-total_free, gpu.device.id, srv, gpu))
            for _, _, srv_, gpu in sorted(gpus, key=lambda x: (x[0], x[1])):
                insts = sorted(
                    _eligible_instances(state, gpu),
                    key=lambda i: (-free_of(gpu, i), i.id),
                )
                for inst in insts:
                    yield srv_, gpu, inst

    def try_place(job: AiJob) -> float | None:
        """Place ``job``; on failure return the largest grantable fraction seen."""
        best = -math.inf
        for srv, gpu, inst in candidates():
            free = free_of(gpu, inst)
            budget = budgets.get(gpu.device.id)
            if budget is None:
                budget = budgets[gpu.device.id] = _gpu_budget(state, gpu)
            grantable = free if free < budget else budget
            if grantable + TOL < job.demand_fraction:
                if grantable > best:
                    best = grantable
                continue
            decision.assignments[job.id] = (
                srv.server.id,
                gpu.device.id,
                inst.id,
                job.demand_fraction,
            )
            frees[inst.id] = free - job.demand_fraction
            budgets[gpu.device.id] = budget - job.demand_fraction
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


def _forecast(policy: Policy, gpu: GpuState) -> float:
    if policy.forecast is ForecastKind.LAST_VALUE:
        return gpu.demand_last
    f = gpu.epoch_max
    for past in gpu.epoch_history:  # length kept at window-1 by _roll_forecast
        if past > f:
            f = past
    return f


def _roll_forecast(policy: Policy, gpu: GpuState):
    window = max(1, round(policy.window_s / policy.epoch_s))
    gpu.epoch_history.append(gpu.epoch_max)
    while len(gpu.epoch_history) > window - 1:
        gpu.epoch_history.popleft()
    gpu.epoch_max = gpu.demand_last


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


def policy_epoch(state: ClusterState, policy: Policy, t: float) -> list[ScaleAction]:
    """Compute scale actions due at time ``t``.

    STATIC_SPLIT never changes anything. TIME_SPLIT emits repartitions at
    schedule boundaries. DYNAMIC_BACKFILL recomputes each GPU's AI ceiling
    from the RAN forecast and emits grants/reclaims toward it.
    """
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
        targets = set(policy.split_gpus) or {
            srv.gpus[0].device.id for srv in state.servers if srv.gpus
        }
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
    for srv in state.servers:
        for gpu in srv.gpus:
            forecast = _forecast(policy, gpu)
            _roll_forecast(policy, gpu)
            ceiling = 1.0 - forecast - policy.safety_margin
            if ceiling < 0.0:
                ceiling = 0.0
            gpu.ai_ceiling = ceiling
            current = gpu.ai_hard + gpu.ai_free
            if current > ceiling + TOL:
                actions.append(
                    ScaleAction(
                        ActionKind.RECLAIM_AI,
                        server_id=srv.server.id,
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
                            server_id=srv.server.id,
                            gpu_id=gpu.device.id,
                            fraction=headroom,
                        )
                    )
    return actions or [ScaleAction(ActionKind.NO_OP)]


# -- applying actions ----------------------------------------------------------


def _job_sort_newest(jobs: list[AiJob]) -> list[AiJob]:
    return sorted(jobs, key=lambda j: (j.arrival_time, j.id), reverse=True)


def _release_grant(state: ClusterState, gpu: GpuState, job: AiJob, amount: float):
    gpu.accrue(state.clock_us)  # integrate at the old level first
    gpu.inst_granted[job.instance_id] -= amount
    if job.instance_id in gpu.free_ids:
        gpu.ai_free -= amount
    else:
        gpu.ai_hard -= amount
    job.granted_fraction -= amount


def preempt_job(state: ClusterState, gpu: GpuState, job: AiJob):
    """Suspend a running job, preserving its remaining work."""
    state.hooks.set_rate(job, 0.0)
    _release_grant(state, gpu, job, job.granted_fraction)
    gpu.jobs.remove(job)
    job.state = JobState.PREEMPTED
    job.preempt_count += 1
    job.eligible_at_s = state.clock + state.policy.resume_delay_s
    job.server_id = job.gpu_id = job.instance_id = None
    state.enqueue(job)
    gpu.annotate("preempt")


def _reclaim(state: ClusterState, action: ScaleAction):
    gpu = state.gpu_by_id(action.gpu_id)
    delta = action.fraction
    for job in _job_sort_newest(list(gpu.jobs)):
        if delta <= TOL:
            break
        if job.granted_fraction <= delta + TOL:
            delta -= job.granted_fraction
            state.hooks.log_event(
                "preempt", gpu.device.id, f"job={job.id} fraction={job.granted_fraction:.6f}"
            )
            preempt_job(state, gpu, job)
        else:
            _release_grant(state, gpu, job, delta)
            state.hooks.set_rate(job, job.granted_fraction)
            state.hooks.log_event(
                "trim", gpu.device.id, f"job={job.id} fraction={delta:.6f}"
            )
            gpu.annotate("trim")
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
    job.granted_fraction = grant
    if job.first_start_time is None:
        job.first_start_time = state.clock
    gpu.accrue(state.clock_us)
    gpu.jobs.append(job)
    gpu.inst_granted[inst_id] = gpu.inst_granted.get(inst_id, 0.0) + grant
    if inst_id in gpu.free_ids:
        gpu.ai_free += grant
    else:
        gpu.ai_hard += grant
    state.hooks.set_rate(job, grant)
    _refresh_effective(state, gpu)
    state.hooks.log_event(
        "place", gpu.device.id, f"job={job.id} instance={inst_id} fraction={grant:.6f}"
    )


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
    gpu.accrue(state.clock_us)
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
        gpu.inst_granted[job.instance_id] += extra
        if job.instance_id in gpu.free_ids:
            gpu.ai_free += extra
        else:
            gpu.ai_hard += extra
        job.granted_fraction += extra
        state.hooks.set_rate(job, job.granted_fraction)
        state.hooks.log_event(
            "grant", gpu.device.id, f"job={job.id} fraction={extra:.6f}"
        )
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
        state.hooks.log_event(
            "preempt", gpu.device.id, f"job={job.id} fraction={job.granted_fraction:.6f}"
        )
        preempt_job(state, gpu, job)
    gpu.accrue(state.clock_us)
    gpu.generation += 1
    prefix = f"{gpu.device.id}.g{gpu.generation}"
    gpu.instances = compute.repartition(
        gpu.device,
        gpu.instances,
        list(action.fractions),
        list(action.classes),
        id_prefix=prefix,
    )
    gpu.refresh_caches()
    # the boundary slot finishes on the old layout (ran_level persists);
    # the next settle_slots slot settlements find the GPU settling
    gpu.ai_free_eff = 0.0
    gpu.throttled = False
    gpu.settling_until_us = state.clock_us + state.policy.settle_slots * state.slot_us
    gpu.annotate("repartition")
    state.hooks.log_event(
        "repartition",
        gpu.device.id,
        "layout=" + ",".join(
            f"{f:.6f}:{c.value}" for f, c in zip(action.fractions, action.classes)
        ),
    )
    state.hooks.on_repartition(gpu)
