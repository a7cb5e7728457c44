"""Segment settlement and the columnar trace against the paths they replaced.

``reference_settle_slot`` is the scalar settlement rule, one GPU at a time.
``ForecastOracle`` holds the dynamic epoch's forecast window as one deque
per GPU and checks every epoch's ceilings, history and ``forecast_holds``.
``reference_run`` is ``SimEngine.run`` as it was before segments: one
``reference_settle_slot`` per slot, and samples flushed before every slot
and event, one ``TraceRecord`` per GPU per sample, each row taking the
notes counted since the last. ``reference_summarize`` and
``reference_write_records`` are ``summarize`` and the RECORDS writer as
they were for that list of rows, with their own note formatter
(``reference_annotations``); ``reference_event_detail`` is the detail
formatter as it was when the log formatted each event as it came. Random
scenarios go through them and through the engine, and everything the run
leaves behind must be equal: report bytes, the rows and their notes, the
raw miss list, every GPU's levels, forecast inputs and AI level integral,
and every job.
Targeted scenarios check the same for runs that skip quiescent policy
epochs.

The AI level integral runs on its own clock. It accrues where the
orchestrator may change the AI level (grant changes, throttles,
refreshes), in the orchestrator's own code, which both runs call, and at
the horizon, where the reference accrues it one GPU at a time.
"""

import copy
import dataclasses
import math
import random
from collections import Counter, deque
from enum import Enum
from heapq import heappop
from pathlib import Path

import numpy as np
import pytest

from ranshare import engine as engine_module
from ranshare import orchestrator
from ranshare.compute import GpuDevice, Server, TenantClass
from ranshare.engine import (
    CellSpec,
    EventKind,
    GpuSummary,
    Scenario,
    SimEngine,
    Summary,
    TraceRecord,
    build_demand,
)
from ranshare.errors import EmptyTrace
from ranshare.orchestrator import ForecastKind, Policy, PolicyKind
from ranshare.scenario import RECORDS_HEADER, parse_records, parse_scenario, write_report
from ranshare.workload import (
    AiWorkload,
    ArrivalKind,
    Calibration,
    CellConfig,
    JobState,
    LoadProfile,
    ProfileKind,
    SloClass,
    constant,
    exponential,
    slot_duration,
    uniform,
)

from test_golden import _load_workloads, fleet_text

ROOT = Path(__file__).resolve().parents[1]
US = 1_000_000


def settled_due(state) -> dict[int, int]:
    """Each settling GPU's index, and the time (us) its settled event is due.

    A GPU settles from a repartition until its settled event: the
    current-generation ``REPARTITION_SETTLED`` entry pending in
    ``state.heap``. An entry of an earlier generation settles nothing.
    """
    due = {}
    for t_us, _prio, _seq, kind, payload in state.heap:
        if kind is EventKind.REPARTITION_SETTLED:
            gpu = state.gpu_by_id(payload[0])
            if gpu.generation == payload[1]:
                due[gpu.index] = t_us
    return due


def reference_settle_slot(state, t_s: float, demands: list[float]) -> bool:
    """``settle_slot`` as a scalar loop over the GPUs, one fleet element at a time.

    Per server, demand fills GPUs in declaration order; a GPU that is
    settling (``settled_due``) takes nothing. RAN meets a GPU's RAN
    slices, and under the dynamic policy its FREE capacity too. Only under
    the dynamic policy does each GPU record what it was asked to serve, and a
    GPU whose AI grant exceeds the FREE capacity RAN left over, or that is
    throttled, has its throttle applied at once (which accrues the AI
    integral). Returns True when a throttle was applied.
    """
    TOL = orchestrator.TOL
    soft, fleet = state.policy.is_dynamic, state.fleet
    now_us = state.clock_us
    due = settled_due(state)
    applied = False
    for srv, rem in zip(state.servers, demands):
        for gpu in srv.gpus:
            g = gpu.index
            if due.get(g, -1) >= now_us:
                if fleet.ran_level.item(g) != 0.0:
                    fleet.ran_level[g] = 0.0
                continue
            ran_cap = free_cap = 0.0
            for inst in gpu.instances:
                if inst.tenant_class is TenantClass.RAN:
                    ran_cap += inst.compute_fraction
                elif inst.tenant_class is TenantClass.FREE:
                    free_cap += inst.compute_fraction
            cap = ran_cap + free_cap if soft else ran_cap
            if rem < cap:
                take = rem
                rem = 0.0
            else:
                take = cap
                rem -= cap
            if soft:
                asked = take + (rem if gpu is srv.gpus[-1] else 0.0)
                fleet.demand_last[g] = asked
                if asked > fleet.epoch_max[g]:
                    fleet.epoch_max[g] = asked
            if take != fleet.ran_level.item(g):
                fleet.ran_level[g] = take
            if soft and (fleet.ai_granted.item(g) > 0.0 or fleet.throttled.item(g)):
                in_free = take - ran_cap
                if in_free < 0.0:
                    in_free = 0.0
                allowed = free_cap - in_free
                if fleet.ai_granted.item(g) > allowed + TOL or fleet.throttled.item(g):
                    orchestrator._apply_throttle(state, gpu, allowed)
                    applied = True
        if rem > TOL:
            state.misses.append((t_s, srv.server.id, rem))
    return applied


def accrue_ai(fleet, g: int, now_us: int):
    """Accrue GPU ``g``'s AI level integral up to ``now_us``, on its own clock."""
    dt = now_us - fleet.ai_accrue_us.item(g)
    if dt > 0:
        fleet.ai_integral[g] += fleet.ai_level.item(g) * dt
        fleet.ai_accrue_us[g] = now_us


def reference_forecast_holds(state, past: list[deque]) -> bool:
    """``forecast_holds`` one GPU at a time: a full window of maxima equal to its last demand."""
    full = orchestrator._window(state.policy) - 1
    last, epoch_max = state.fleet.demand_last.tolist(), state.fleet.epoch_max.tolist()
    return all(
        epoch_max[g] == last[g] and len(maxima) == full and all(m == last[g] for m in maxima)
        for g, maxima in enumerate(past)
    )


def reference_epoch_ceilings(state, past: list[deque]) -> list[float]:
    """The dynamic epoch's forecast and ceiling one GPU at a time; rolls each GPU's deque."""
    policy = state.policy
    full = orchestrator._window(policy) - 1
    last, epoch_max = state.fleet.demand_last.tolist(), state.fleet.epoch_max.tolist()
    ceilings = []
    for g, maxima in enumerate(past):
        if policy.forecast is ForecastKind.LAST_VALUE:
            forecast = last[g]
        else:
            forecast = max((epoch_max[g], *maxima))
        maxima.append(epoch_max[g])
        while len(maxima) > full:
            maxima.popleft()
        ceiling = 1.0 - forecast - policy.safety_margin
        if ceiling < 0.0:
            ceiling = 0.0
        ceilings.append(ceiling)
    return ceilings


class ForecastOracle:
    """Checks every dynamic epoch the engine runs against the per-GPU deque rule.

    It wraps the engine's ``policy_epoch`` and ``apply_actions``. Before an
    epoch, ``forecast_holds`` must match ``reference_forecast_holds``; after
    it, the fleet's ceilings must match ``reference_epoch_ceilings`` and its
    history the deques, oldest first, with ``-inf`` for rows not yet
    filled. After the epoch's actions apply, no GPU's AI grant may exceed
    its ceiling. ``start`` forgets the deques before the next scenario.
    """

    def __init__(self, monkeypatch):
        self.past: dict[int, list[deque]] = {}  # by id of the cluster state
        self.epochs = 0
        self.windows: set[int] = set()
        self.kinds: set[ForecastKind] = set()
        self.held = 0
        epoch, apply = engine_module.policy_epoch, engine_module.apply_actions

        def checked_epoch(state, t):
            if not state.policy.is_dynamic:
                return epoch(state, t)
            past = self.past.setdefault(id(state), [deque() for _ in state.gpus])
            holds = reference_forecast_holds(state, past)
            assert orchestrator.forecast_holds(state) == holds, t
            ceilings = reference_epoch_ceilings(state, past)
            actions = epoch(state, t)
            fleet, full = state.fleet, orchestrator._window(state.policy) - 1
            assert fleet.ai_ceiling.tolist() == ceilings, t
            assert fleet.history.shape == (full, len(past)), t
            rows = [[-math.inf] * (full - len(maxima)) + list(maxima) for maxima in past]
            assert fleet.history.T.tolist() == rows, t
            self.epochs += 1
            self.held += holds
            self.windows.add(full + 1)
            self.kinds.add(state.policy.forecast)
            return actions

        def checked_apply(state, actions):
            apply(state, actions)
            if state.policy.is_dynamic:
                fleet = state.fleet
                assert (fleet.ai_granted <= fleet.ai_ceiling + orchestrator.TOL).all()

        monkeypatch.setattr(engine_module, "policy_epoch", checked_epoch)
        monkeypatch.setattr(engine_module, "apply_actions", checked_apply)

    def start(self):
        self.past.clear()


def reference_accrue_all(state):
    """``accrue_all`` one GPU and one job at a time: AI integrals and all work up to the clock."""
    for gpu in state.gpus:
        accrue_ai(state.fleet, gpu.index, state.clock_us)
    for job in state.jobs.values():
        if job.state is JobState.RUNNING:
            orchestrator._accrue_job(job, state.clock_us)


class ReferenceSampler:
    """The per-row sampling of the engine before the columnar trace.

    ``pending`` stands for each GPU's annotation counts, which every
    sample took and cleared: a miss counted on the server's first GPU,
    and each ``preempt``, ``trim`` and ``repartition`` event on its GPU.
    ``notes`` keeps what each row took, keyed by (sample, GPU index, kind).
    """

    def __init__(self, eng: SimEngine):
        self.eng = eng
        self.rows: list[TraceRecord] = []
        self.notes: Counter[tuple[int, int, str]] = Counter()
        self.pending = {gpu.device.id: {} for gpu in eng.state.gpus}
        self.heads = {srv.server.id: srv.gpus[0].device.id for srv in eng.state.servers}
        self.seen_misses = self.seen_events = 0

    def _collect(self):
        state = self.eng.state
        for _t, sid, _sf in state.misses[self.seen_misses:]:
            kinds = self.pending[self.heads[sid]]
            kinds["miss"] = kinds.get("miss", 0) + 1
        for ev in state.events[self.seen_events:]:
            if ev.kind in ("preempt", "trim", "repartition"):
                kinds = self.pending[ev.subject]
                kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        self.seen_misses = len(state.misses)
        self.seen_events = len(state.events)

    def _emit_samples(self, ran, ai, count=1):
        eng = self.eng
        self._collect()
        rows = [
            (gpu.device.id, round(r, 6), round(a, 6))
            for gpu, r, a in zip(eng.state.gpus, ran, ai)
        ]
        for _ in range(count):
            t_s = eng.next_sample_us / US
            sample = eng.next_sample_us // eng.sample_us
            for g, (gpu_id, r, a) in enumerate(rows):
                for kind, n in self.pending[gpu_id].items():
                    self.notes[sample, g, kind] = n
                self.pending[gpu_id].clear()
                self.rows.append(TraceRecord(t_s, gpu_id, r, a))
            eng.next_sample_us += eng.sample_us

    def flush(self, before_us: int):
        eng = self.eng
        gpus, fleet = eng.state.gpus, eng.state.fleet
        while eng.next_sample_us < before_us and eng.next_sample_us <= eng.horizon_us:
            self._emit_samples(
                [fleet.ran_level.item(g.index) for g in gpus],
                [fleet.ai_level.item(g.index) for g in gpus],
            )


def reference_summarize(trace: list[TraceRecord]) -> Summary:
    """``summarize`` over a list of rows, as it was before the columnar trace."""
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
    return Summary(per_gpu=per_gpu, avg_total=avg_total)


_CATEGORY_ORDER = {"sample": 3, "event": 0, "miss": 1, "fabric": 2}

# the texts that the events logged without fields were logged with
_REFERENCE_TEXTS = {
    "reject": "queue bound exceeded",
    "reroute": "profile step",
    "settled": "slices accepting work",
}


def _reference_detail_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(_reference_detail_text, value))
    if isinstance(value, tuple):
        return ":".join(map(_reference_detail_text, value))
    if isinstance(value, Enum):
        return value.value
    return f"{value:.6f}" if isinstance(value, (int, float)) else value


def reference_event_detail(ev) -> str:
    """The detail of an event or fabric row: its kind's text, or ``key=value`` fields.

    Numbers are written with 6 decimals, enums by value, a tuple's items
    joined by ``:`` and a list's by ``,``; strings as they are.
    """
    text = _REFERENCE_TEXTS.get(ev.kind, "")
    return text or " ".join(f"{key}={_reference_detail_text(v)}" for key, v in ev.fields.items())


def reference_annotations(report) -> list[str]:
    """Each trace row's annotation: the report's note counts as ``kind:n`` joined by ``;``."""
    width = len(report.gpu_ids)
    kinds: dict[int, dict[str, int]] = {}
    for (s, g, kind), n in report.notes.items():
        kinds.setdefault(s * width + g, {})[kind] = n
    return [
        ";".join(f"{k}:{v}" for k, v in sorted(kinds.get(i, {}).items()))
        for i in range(len(report.trace))
    ]


def reference_write_records(report) -> str:
    """The RECORDS writer as it was before the columnar trace: one full sort."""
    annotations = reference_annotations(report)
    lines = [
        "# ranshare-records v1",
        f"# scenario={report.scenario_name} horizon_s={report.horizon_s:.6f} "
        f"sample_interval_s={report.sample_interval_s:.6f} seed={report.seed}",
        "# gpus=" + ",".join(report.gpu_ids),
        f"# jobs completed={report.job_stats.completed} "
        f"preempted_events={report.job_stats.preempted_events} "
        f"rejected={report.job_stats.rejected} "
        f"queued_at_end={report.job_stats.queued_at_end} "
        f"running_at_end={report.job_stats.running_at_end} "
        f"mean_wait_s={report.job_stats.mean_wait_s:.6f} "
        f"p95_wait_s={report.job_stats.p95_wait_s:.6f} "
        f"mean_turnaround_s={report.job_stats.mean_turnaround_s:.6f}",
        RECORDS_HEADER,
    ]
    rows: list[tuple[float, int, str]] = []
    for i, (rec, annotation) in enumerate(zip(report.trace, annotations, strict=True)):
        rows.append(
            (
                rec.time_s,
                i,
                f"sample,{rec.time_s:.6f},{rec.gpu_id},"
                f"{rec.ran_fraction:.6f},{rec.ai_fraction:.6f},{annotation}",
            )
        )
    for i, ev in enumerate(report.events):
        detail = f"{ev.kind} {reference_event_detail(ev)}"
        rows.append((ev.time_s, i, f"event,{ev.time_s:.6f},{ev.subject},,,{detail}"))
    for i, miss in enumerate(report.deadline_misses):
        rows.append(
            (
                miss.time_s,
                i,
                f"miss,{miss.time_s:.6f},{miss.server_id},,,shortfall={miss.shortfall:.9f}",
            )
        )
    for i, ev in enumerate(report.fabric_violations):
        detail = reference_event_detail(ev)
        rows.append((ev.time_s, i, f"fabric,{ev.time_s:.6f},{ev.subject},,,{detail}"))
    category = lambda row: _CATEGORY_ORDER[row.split(",", 1)[0]]  # noqa: E731
    lines.extend(row for _, _, row in sorted(rows, key=lambda r: (r[0], category(r[2]), r[1])))
    return "\n".join(lines) + "\n"


def reference_run(eng: SimEngine):
    """The engine's main loop before segment settlement, slot by slot.

    It ignores what ``_dispatch`` returns, so it runs every policy epoch
    on the grid: the engine's skipping of quiescent epochs must not show.

    The report carries the per-row trace (a list of ``TraceRecord``), the
    sampler's note counts and its ``reference_summarize`` summary. Demand is evaluated once for every
    slot of the horizon; each slot reads the same bits as it would alone
    (``test_vector_sampler_does_not_depend_on_batching``).
    """
    state = eng.state
    sampler = ReferenceSampler(eng)
    horizon_us = eng.horizon_us
    slot_us = eng.slot_us
    heap = state.heap
    slot_times = np.arange(0, horizon_us, slot_us, dtype=np.int64) / US
    demands = eng.demand.vector(slot_times).T.tolist()
    next_slot = 0
    while True:
        head = heap[0] if heap else None
        if next_slot < horizon_us and (head is None or next_slot <= head[0]):
            sampler.flush(next_slot)
            state.clock_us = next_slot
            reference_settle_slot(state, next_slot / US, demands[next_slot // slot_us])
            next_slot += slot_us
            continue
        if head is None:
            break
        t_us, _prio, _seq, kind, payload = heappop(heap)
        if t_us > horizon_us:
            break
        sampler.flush(t_us)
        state.clock_us = t_us
        eng._dispatch(kind, payload, t_us)
    state.clock_us = horizon_us
    sampler.flush(horizon_us + 1)
    reference_accrue_all(state)
    report = eng._report()  # its trace is empty: the sampler holds the samples
    if sampler.rows:
        report = dataclasses.replace(report, trace=sampler.rows, notes=sampler.notes)
        report.summary = reference_summarize(sampler.rows)  # shadows the derived summary
    return report


# -- random scenarios -----------------------------------------------------------


def _profile(rng: random.Random, horizon: float, slot: float) -> LoadProfile:
    kind = rng.choice(list(ProfileKind))
    if kind is ProfileKind.CONSTANT:
        return LoadProfile(kind=kind, level=rng.choice((0.0, 1.0, rng.random())))
    if kind is ProfileKind.DIURNAL_SINUSOID:
        lo = rng.uniform(0.0, 0.9)
        return LoadProfile(
            kind=kind,
            minimum=lo,
            maximum=rng.uniform(lo, 1.0),
            period_s=rng.choice((0.02, 0.15, 0.6, 5.0, 300.0)),
            phase=rng.uniform(-math.pi, math.pi),
        )
    times = set()
    for _ in range(rng.randint(1, 6)):
        t = rng.uniform(-0.05, horizon + 0.05)
        style = rng.randrange(4)
        if style == 0:  # on the slot grid
            t = round(t / slot) * slot
        elif style == 1:  # just off the grid, on either side
            t = round(t / slot) * slot + rng.choice((-1, 1)) * rng.choice((1e-7, 4e-7, 6e-7))
        elif style == 2:  # inside the first half microsecond: no event of its own
            t = rng.uniform(0.0, 5e-7)
        times.add(t)
    return LoadProfile(
        kind=kind, points=tuple((t, rng.random()) for t in sorted(times))
    )


def _policy(rng: random.Random, servers, horizon: float, slot: float) -> Policy:
    kind = rng.choice(list(PolicyKind))
    split_gpus = tuple(s.gpus[0].id for s in servers)
    if kind is PolicyKind.STATIC_SPLIT:
        ran = rng.choice((0.1, 0.25, 0.4, 0.6, 1.0))
        ai = rng.choice((0.0, round(1.0 - ran, 2)))
        return Policy(kind=kind, ran_fraction=ran, ai_fraction=ai, split_gpus=split_gpus)
    if kind is PolicyKind.TIME_SPLIT:
        cuts = sorted({round(rng.uniform(0.05, horizon) / slot) * slot for _ in range(2)})
        bounds = [0.0] + cuts + [horizon + 1.0]
        schedule = tuple(
            (a, b, rng.choice((0.2, 0.4, 0.7, 1.0))) for a, b in zip(bounds, bounds[1:])
        )
        return Policy(
            kind=kind,
            schedule=schedule,
            split_gpus=split_gpus,
            settle_slots=rng.randint(1, 4),
            resume_delay_s=rng.choice((0.0, 0.0, 0.02)),
        )
    return Policy(
        kind=kind,
        epoch_s=rng.choice((0.01, 0.05, 0.1)),
        safety_margin=rng.choice((0.0, 0.02, 0.05, 0.2)),
        forecast=rng.choice(list(ForecastKind)),
        window_s=rng.choice((0.05, 0.2)),
        queue_bound=rng.choice((None, None, 3)),
        resume_delay_s=rng.choice((0.0, 0.0, 0.02)),
    )


def _workloads(rng: random.Random, horizon: float) -> tuple:
    out = []
    for i in range(rng.randint(0, 3)):
        arrival = rng.choice(list(ArrivalKind))
        slo = rng.choice((SloClass.BATCH, SloClass.BATCH, SloClass.INTERACTIVE))
        out.append(
            AiWorkload(
                id=f"w{i}",
                arrival=arrival,
                rate_per_s=rng.choice((5.0, 40.0)),
                trace_arrivals=tuple(rng.uniform(0.0, horizon) for _ in range(5)),
                job_size=exponential(rng.choice((0.01, 0.05))),
                demand_fraction=rng.choice((constant(1.0), uniform(0.05, 0.6))),
                slo_class=slo,
                latency_bound_s=0.5 if slo is SloClass.INTERACTIVE else 0.0,
            )
        )
    return tuple(out)


def random_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    scs = rng.choice((15, 30, 30, 60))
    slot = slot_duration(scs)
    horizon = rng.choice((0.2, 0.35, 0.6))
    servers = tuple(
        Server(
            id=f"srv{i}",
            gpus=tuple(GpuDevice(f"srv{i}-gpu{j}") for j in range(rng.randint(1, 3))),
        )
        for i in range(rng.randint(1, 3))
    )
    cells = []
    for i in range(rng.randint(1, 6)):
        antennas = rng.choice((2, 4))
        cells.append(
            CellSpec(
                f"cell{i}",
                CellConfig(
                    bandwidth_mhz=rng.choice((20.0, 50.0, 100.0)),
                    scs_khz=scs,
                    tx_antennas=antennas,
                    rx_antennas=antennas,
                ),
                _profile(rng, horizon, slot),
                rng.choice(servers).id,
            )
        )
    calibration = Calibration(
        reference_peak_fraction=rng.choice((0.4, 0.8, 1.0, 1.0)),
        idle_floor_fraction=rng.choice((0.0, 0.0, 0.05, 0.3)),
    )
    sample = rng.choice((slot, 2 * slot, 0.0012, 0.005, 0.01))
    sc = Scenario(
        name=f"random-{seed}",
        servers=servers,
        cells=tuple(cells),
        calibration=calibration,
        ai_workloads=_workloads(rng, horizon),
        policy=_policy(rng, servers, horizon, slot),
        horizon_s=horizon,
        seed=seed,
        sample_interval_s=max(sample, slot),
    )
    assert sc.validate() == [], sc.validate()
    return sc


def _gpu_state(state) -> list[tuple]:
    f = state.fleet
    return [
        (
            g.device.id, f.ran_level.item(i), f.ai_granted.item(i), f.ai_level.item(i),
            f.throttled.item(i), f.demand_last.item(i), f.epoch_max.item(i),
            tuple(f.history[:, i].tolist()), f.ai_ceiling.item(i), f.ai_integral.item(i),
            f.ai_accrue_us.item(i),
        )
        for i, g in enumerate(state.gpus)
    ]


def _job_state(state) -> list[tuple]:
    return [
        (j.id, j.state, j.remaining_compute_seconds, j.service_rate, j.granted_fraction,
         j.completion_time, j.preempt_count, j.version)
        for j in state.jobs.values()
    ]


def _counting(monkeypatch, counts: dict, name: str):
    original = getattr(orchestrator, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(orchestrator, name, wrapper)


def _recording_slices(monkeypatch) -> list[tuple[int, int, bool, int]]:
    """Record each ``_settle_slice`` call.

    A record is (slots, fired slot or slots, any GPU settling, the slice's
    first slot on its tape): a slice that starts past its tape's first
    slot reads a tape an earlier slice read too.
    """
    slices = []
    original = orchestrator._settle_slice

    def recording(state, tape, a, b, *rest):
        t_us = tape.t_us.item(a)
        settling = any(due >= t_us for due in settled_due(state).values())
        fired = original(state, tape, a, b, *rest)
        slices.append((b - a, fired, settling, a))
        return fired

    monkeypatch.setattr(orchestrator, "_settle_slice", recording)
    return slices


def _checking_tape_capacities(monkeypatch):
    """Check that ``fleet.grid_cap`` holds while a tape lives.

    Only events change ``grid_cap``, and each change drops the tape, so
    every slice reads the tape built last, at the capacities it was built
    with.
    """
    built = []  # the last tape built, and grid_cap then
    ran_tape, settle_slice = orchestrator._ran_tape, orchestrator._settle_slice

    def building(state, *rest):
        built[:] = [ran_tape(state, *rest), state.fleet.grid_cap.copy()]
        return built[0]

    def slicing(state, tape, *rest):
        assert tape is built[0]
        assert np.array_equal(state.fleet.grid_cap, built[1])
        return settle_slice(state, tape, *rest)

    monkeypatch.setattr(orchestrator, "_ran_tape", building)
    monkeypatch.setattr(orchestrator, "_settle_slice", slicing)


def _recording_tapes(monkeypatch) -> list:
    """Record each RAN tape built."""
    tapes = []
    original = orchestrator._ran_tape

    def recording(*args):
        tapes.append(original(*args))
        return tapes[-1]

    monkeypatch.setattr(orchestrator, "_ran_tape", recording)
    return tapes


def _recording_segments(monkeypatch) -> list[list]:
    """Record each segment the engine settles as [verdict, tapes built].

    The verdict is what ``_cannot_miss`` returned, True when the segment
    settles on tapes of its observable slots alone, or None where the
    segment did not ask: the dynamic policy, a segment in closed form, or
    one no longer than a tape that ends before the horizon.
    """
    segments = []
    settle, cannot_miss, ran_tape = (
        orchestrator.settle_segment, orchestrator._cannot_miss, orchestrator._ran_tape
    )

    def settling(*args):
        segments.append([None, 0])
        return settle(*args)

    def asking(*args):
        segments[-1][0] = cannot_miss(*args)
        return segments[-1][0]

    def building(*args):
        segments[-1][1] += 1
        return ran_tape(*args)

    monkeypatch.setattr(engine_module, "settle_segment", settling)
    monkeypatch.setattr(orchestrator, "_cannot_miss", asking)
    monkeypatch.setattr(orchestrator, "_ran_tape", building)
    return segments


# the engine calls settle_slot only for a segment it settles in closed form
PATHS = ("settle_slot", "_apply_throttle")


def assert_same_run(sc: Scenario, label) -> SimEngine:
    """Run ``sc`` slot by slot and by segments; everything must be equal.

    Every GPU's RAN level must be equal bit for bit.
    """
    ref_eng = SimEngine(sc)
    ref = reference_run(ref_eng)
    eng = SimEngine(sc)
    rep = eng.run()
    records = write_report(rep, "records")
    assert records == reference_write_records(ref), label
    assert rep.notes == ref.notes, label
    assert write_report(rep, "summary") == write_report(ref, "summary"), label
    assert list(rep.trace) == ref.trace, label
    again = parse_records(records)
    assert again == rep and again.summary == rep.summary, label
    assert eng.state.misses == ref_eng.state.misses, label
    assert _gpu_state(eng.state) == _gpu_state(ref_eng.state), label
    got, want = (e.state.fleet.ran_level for e in (eng, ref_eng))
    assert got.tobytes() == want.tobytes(), label
    assert _job_state(eng.state) == _job_state(ref_eng.state), label
    assert eng.state.events == ref_eng.state.events, label
    for rec in rep.trace:
        assert rec.ran_fraction + rec.ai_fraction <= 1.0 + 1e-9, (label, rec)
    return eng


def test_segments_match_slot_by_slot_loop(monkeypatch):
    """120 random scenarios; odd seeds settle on tapes of a few slots.

    ``ForecastOracle`` checks every dynamic epoch of both runs, and no
    capacity changes under a live tape.
    """
    counts: dict[str, int] = {}
    for name in PATHS:
        _counting(monkeypatch, counts, name)
    slices = _recording_slices(monkeypatch)
    segments = _recording_segments(monkeypatch)
    oracle = ForecastOracle(monkeypatch)
    _checking_tape_capacities(monkeypatch)
    default = orchestrator.CHUNK_CELLS
    misses = throttled = observable = dense = chunked = 0
    for seed in range(120):
        sc = random_scenario(seed)
        chunk = default
        if seed % 2:
            chunk = random.Random(-seed).choice((3, 17, 64))
        monkeypatch.setattr(orchestrator, "CHUNK_CELLS", chunk)
        before = counts.get("_apply_throttle", 0)
        oracle.start()
        segments.clear()
        eng = assert_same_run(sc, seed)
        throttled += counts.get("_apply_throttle", 0) > before
        misses += bool(eng.state.misses)
        verdicts = {verdict for verdict, _tapes in segments}
        observable += True in verdicts
        dense += False in verdicts
        chunked += any(verdict and tapes > 1 for verdict, tapes in segments)
    # every settlement path, and each case a tape slice handles, was exercised
    for name in PATHS:
        assert counts.get(name, 0) > 0, (name, counts)
    cases = {
        "one slot": any(n == 1 for n, _fired, _settling, _a in slices),
        "many slots": any(n > 1 and fired == n for n, fired, _settling, _a in slices),
        "fired inside": any(0 < fired < n - 1 for n, fired, _settling, _a in slices),
        "settling": any(settling for _n, _fired, settling, _a in slices),
        "tape read again": any(a > 0 for _n, _fired, _settling, a in slices),
        "read again after a throttle": any(
            fired < n and nxt[3] == a + fired + 1
            for (n, fired, _settling, a), nxt in zip(slices, slices[1:])
        ),
    }
    assert all(cases.values()), cases
    assert misses > 0 and throttled > 0, (misses, throttled)
    # splits on tapes of observable slots alone (some over several chunks), and on every slot
    assert observable >= 20 and dense >= 20 and chunked > 0, (observable, dense, chunked)
    # windows of one epoch (no history) and longer, both forecasts, and steady epochs
    assert min(oracle.windows) == 1 and max(oracle.windows) > 2, oracle.windows
    assert oracle.kinds == set(ForecastKind) and 0 < oracle.held < oracle.epochs


def test_random_scenarios_skip_quiescent_epochs():
    """Some random dynamic scenarios skip epochs, so the comparison above covers it."""
    skipped = 0
    for seed in range(120):
        sc = random_scenario(seed)
        if sc.policy.is_dynamic:
            grid = -(-round(sc.horizon_s * US) // round(sc.policy.epoch_s * US))
            skipped += len(epoch_times(sc)) < grid
    assert skipped > 0


def test_overloaded_dynamic_fleet(monkeypatch):
    """Shortfalls inside array passes reach the forecast inputs and the misses.

    Server srv0 has one GPU and three full-peak diurnal cells, so demand
    exceeds the GPU; srv1 spills over two GPUs. No AI runs, so no throttle
    cuts the passes short.
    """
    slices = _recording_slices(monkeypatch)
    diurnal = [
        LoadProfile(ProfileKind.DIURNAL_SINUSOID, minimum=0.5, maximum=1.0, period_s=p)
        for p in (0.07, 0.3, 1.1)
    ]
    cells = [CellSpec(f"a{i}", CellConfig(), p, "srv0") for i, p in enumerate(diurnal)]
    cells += [CellSpec(f"b{i}", CellConfig(), p, "srv1") for i, p in enumerate(diurnal[:2])]
    sc = Scenario(
        name="overload",
        servers=(
            Server(id="srv0", gpus=(GpuDevice("srv0-gpu0"),)),
            Server(id="srv1", gpus=(GpuDevice("srv1-gpu0"), GpuDevice("srv1-gpu1"))),
        ),
        cells=tuple(cells),
        calibration=Calibration(reference_peak_fraction=1.0),
        ai_workloads=(),
        policy=Policy(kind=PolicyKind.DYNAMIC_BACKFILL, epoch_s=0.05, safety_margin=0.0),
        horizon_s=0.4,
        sample_interval_s=0.002,
    )
    eng = assert_same_run(sc, "overload")
    assert any(n > 1 for n, _fired, _settling, _a in slices) and eng.state.misses
    assert eng.state.fleet.epoch_max.max() > 1.0


def test_segment_cover_scenario_kinds():
    """The random scenarios cover every policy, profile kind and spill."""
    seen = set()
    for seed in range(120):
        sc = random_scenario(seed)
        seen.add(sc.policy.kind)
        seen.update(c.profile.kind for c in sc.cells)
        if any(len(s.gpus) > 1 for s in sc.servers):
            seen.add("multi-gpu")
        if sc.calibration.idle_floor_fraction > 0:
            seen.add("idle-floor")
        for c in sc.cells:
            if c.profile.kind is ProfileKind.TRACE and any(
                round(t * US) % round(sc.slot_s * US) for t, _v in c.profile.points
            ):
                seen.add("off-grid trace point")
    assert seen >= set(PolicyKind) | set(ProfileKind) | {
        "multi-gpu", "idle-floor", "off-grid trace point"
    }


def test_throttle_inside_numpy_pass(monkeypatch):
    """RAN demand rising within an epoch throttles AI part way through a pass.

    With a last-value forecast, the throttle test fires at the first slot
    whose demand tops the previous epoch's last value by the margin, some
    slots into the epoch; a sample at every slot makes one fall on it.
    """
    slices = _recording_slices(monkeypatch)
    profile = LoadProfile(ProfileKind.DIURNAL_SINUSOID, minimum=0.1, maximum=1.0, period_s=0.5)
    sc = Scenario(
        name="rising",
        servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"),)),),
        cells=(CellSpec("cell1", CellConfig(), profile, "srv1"),),
        calibration=Calibration(reference_peak_fraction=0.9),
        ai_workloads=(AiWorkload(id="sat", arrival=ArrivalKind.SATURATING),),
        policy=Policy(
            kind=PolicyKind.DYNAMIC_BACKFILL, epoch_s=0.1, safety_margin=0.02,
            forecast=ForecastKind.LAST_VALUE,
        ),
        horizon_s=1.0,
        sample_interval_s=0.0005,
    )
    assert_same_run(sc, "rising")
    assert any(0 < fired < n for n, fired, _settling, _a in slices)


def test_trace_point_without_event():
    """A trace point in (0, 0.5) us rounds to 0 us and gets no event of its own.

    Demand then changes between the first and the second slot of the first
    segment while the last slot's demand equals the first slot's.
    """
    profile = LoadProfile(
        kind=ProfileKind.TRACE, points=((-1.0, 0.5), (3e-7, 0.9), (0.05, 0.5))
    )
    sc = Scenario(
        name="early-point",
        servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"),)),),
        cells=(CellSpec("cell1", CellConfig(), profile, "srv1"),),
        calibration=Calibration(),
        ai_workloads=(),
        policy=Policy(
            kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6,
            split_gpus=("gpu1",),
        ),
        horizon_s=0.1,
        sample_interval_s=0.001,
    )
    eng = assert_same_run(sc, "early-point")
    rows = list(eng.trace)[:2]
    assert [(r.time_s, r.ran_fraction) for r in rows] == [(0.0, 0.2), (0.001, 0.36)]


def test_steady_segment_count_on_uplift(monkeypatch):
    """A constant-demand scenario settles one slot per segment, not per slot."""
    sc = uplift_variant(2.0)
    counts: dict[str, int] = {}
    _counting(monkeypatch, counts, "settle_slot")
    report = SimEngine(sc).run()
    # slot 0, the segment up to the epoch at 0.1 s, which is quiescent,
    # and one segment from there to the horizon: 4,000 slots in all
    assert counts["settle_slot"] == 3
    assert report.deadline_misses == []
    assert_same_run(sc, "uplift")


# -- edge cases of tapes and slices ------------------------------------------


def test_one_slot_segments(monkeypatch):
    """An epoch at every slot makes every segment, and so every slice, one slot long."""
    slices = _recording_slices(monkeypatch)
    tapes = _recording_tapes(monkeypatch)
    fast = LoadProfile(ProfileKind.DIURNAL_SINUSOID, minimum=0.1, maximum=1.0, period_s=0.02)
    sc = Scenario(
        name="one-slot",
        servers=tuple(
            Server(id=f"srv{i}", gpus=(GpuDevice(f"srv{i}-gpu0"), GpuDevice(f"srv{i}-gpu1")))
            for i in range(2)
        ),
        cells=tuple(
            CellSpec(f"cell{i}{c}", CellConfig(), fast, f"srv{i}") for i in range(2) for c in "abc"
        ),
        calibration=Calibration(reference_peak_fraction=1.0),
        ai_workloads=(AiWorkload(id="sat", arrival=ArrivalKind.SATURATING),),
        policy=Policy(
            kind=PolicyKind.DYNAMIC_BACKFILL, epoch_s=0.0005, safety_margin=0.0,
            forecast=ForecastKind.LAST_VALUE,
        ),
        horizon_s=0.05,
        sample_interval_s=0.0005,
    )
    eng = assert_same_run(sc, "one-slot")
    assert slices and all(n == 1 for n, _fired, _settling, _a in slices)
    assert any(fired == 0 for _n, fired, _settling, _a in slices) and eng.state.misses
    # one tape covers the run, whatever throttles fire: 100 slices read it
    assert len(tapes) == 1 and [a for *_rest, a in slices] == list(range(100))


def test_throttle_fires_at_the_first_and_the_last_slot_of_a_segment(monkeypatch):
    """A step on the slot grid fires at its segment's last slot; one just after, at the next's first.

    The step up at 0.5 s has an event at 0.5 s, and the slot at 0.5 s,
    the last one before that event, already sees it. The step at
    1.5000002 s rounds to an event at 1.5 s too, but the slot at 1.5 s
    does not see it yet: the first slot of the segment after the event
    does. A small diurnal cell keeps demand from being stepwise, so the
    segments slice the tape rather than settle in closed form.
    """
    slices = _recording_slices(monkeypatch)
    step = LoadProfile(
        ProfileKind.TRACE, points=((0.0, 0.3), (0.5, 0.9), (1.0, 0.3), (1.5000002, 0.9))
    )
    wave = LoadProfile(ProfileKind.DIURNAL_SINUSOID, minimum=0.0, maximum=0.1, period_s=0.3)
    sc = Scenario(
        name="steps",
        servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"),)),),
        cells=(
            CellSpec("step", CellConfig(), step, "srv1"),
            CellSpec("wave", CellConfig(), wave, "srv1"),
        ),
        calibration=Calibration(reference_peak_fraction=0.4),
        ai_workloads=(AiWorkload(id="sat", arrival=ArrivalKind.SATURATING),),
        policy=Policy(kind=PolicyKind.DYNAMIC_BACKFILL, epoch_s=0.1, safety_margin=0.05),
        horizon_s=2.0,
        sample_interval_s=0.01,
    )
    assert_same_run(sc, "first and last")
    firsts_and_lasts = {(n, fired, settling) for n, fired, settling, _a in slices}
    assert {(200, 199, False), (200, 0, False)} <= firsts_and_lasts, slices


def test_settling_gpu_between_live_gpus_under_time_split(monkeypatch):
    """The middle GPU of three repartitions and settles while its neighbours stay live.

    Each repartition sets the GPU's RAN capacity to 0.0, and its settled
    event restores it, so the tape is built again from the slot after each.
    """
    slices = _recording_slices(monkeypatch)
    tapes = _recording_tapes(monkeypatch)
    gpus = tuple(GpuDevice(f"srv1-gpu{j}") for j in range(3))
    diurnal = LoadProfile(ProfileKind.DIURNAL_SINUSOID, minimum=0.3, maximum=1.0, period_s=0.05)
    sc = Scenario(
        name="settling-middle",
        servers=(Server(id="srv1", gpus=gpus), Server(id="srv2", gpus=(GpuDevice("srv2-gpu0"),))),
        cells=(
            CellSpec("cell1", CellConfig(), diurnal, "srv1"),
            CellSpec("cell2", CellConfig(), diurnal, "srv2"),
        ),
        calibration=Calibration(reference_peak_fraction=0.9),
        ai_workloads=(),
        policy=Policy(
            kind=PolicyKind.TIME_SPLIT,
            schedule=((0.0, 0.05, 0.4), (0.05, 0.1, 0.7), (0.1, 1.0, 0.5)),
            split_gpus=("srv1-gpu1",),
            settle_slots=6,
        ),
        horizon_s=0.2,
        sample_interval_s=0.001,
    )
    eng = assert_same_run(sc, "settling middle")
    assert any(settling and n > 1 for n, _fired, settling, _a in slices), slices
    assert [tape.t_us.item(0) for tape in tapes] == [0, 50_500, 53_500, 100_500, 103_500]
    assert [ev.subject for ev in eng.state.events if ev.kind == "repartition"] == ["srv1-gpu1"] * 2
    assert eng.state.misses


def _servers(sizes) -> list[Server]:
    """Servers ``srv0``, ``srv1``, ... of ``sizes`` GPUs."""
    return [
        Server(id=f"srv{s}", gpus=tuple(GpuDevice(f"srv{s}-gpu{g}") for g in range(size)))
        for s, size in enumerate(sizes)
    ]


def _dynamic_state(*sizes: int):
    """Servers of ``sizes`` whole GPUs under dynamic backfill."""
    return orchestrator.build_cluster_state(
        _servers(sizes), Policy(kind=PolicyKind.DYNAMIC_BACKFILL), {}
    )


def _split_state(*sizes: int):
    """Servers of ``sizes`` GPUs, each split 0.5 RAN / 0.5 AI; only a split's GPU settles."""
    servers = _servers(sizes)
    policy = Policy(kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.5, ai_fraction=0.5)
    shares = {gpu.id: (0.5, 0.5) for srv in servers for gpu in srv.gpus}
    return orchestrator.build_cluster_state(servers, policy, shares)


def _run_free_job(state, gpu, grant: float, jid: str):
    job = orchestrator.AiJob(jid, 0.0, 1.0, grant, remaining_compute_seconds=1.0)
    state.jobs[jid] = job
    state.enqueue(job)
    orchestrator.start_job(state, job, gpu, grant)


def assert_slice_matches_slots(state, tape, a: int, demands: np.ndarray) -> int:
    """``_settle_slice`` over the tape's slots from ``a`` on, against the reference.

    ``demands`` (server, slot) are the demands the tape was built from. A
    copy of ``state`` settles the same slots one ``reference_settle_slot``
    at a time, up to the first that applies a throttle. Both must stop at
    the same slot and leave every GPU, job, miss and queued event equal.
    Returns the index from ``a`` of the slot that fired, or the number of
    slots from ``a``.
    """
    ref = copy.deepcopy(state)
    fired = orchestrator._settle_slice(state, tape, a, tape.size)
    for k in range(a, tape.size):
        ref.clock_us = t = tape.t_us.item(k)
        if reference_settle_slot(ref, t / US, demands[:, k].tolist()):
            assert fired == k - a
            break
    else:
        assert fired == tape.size - a
    assert state.clock_us == ref.clock_us
    assert state.misses == ref.misses
    assert _gpu_state(state) == _gpu_state(ref)
    assert _job_state(state) == _job_state(ref)
    assert state.heap == ref.heap
    return fired


def _settle_all(state, demands: np.ndarray) -> list[tuple[int, int]]:
    """Settle every slot of ``demands`` (server, slot) from the next slot, on one tape.

    Each slice is checked; a slice ends at a throttle, and the next one
    reads on from the same tape, which no throttle changes. Returns
    (slots, fired) per slice.
    """
    n = demands.shape[1]
    t_us = state.clock_us + state.slot_us * np.arange(1, n + 1, dtype=np.int64)
    tape = orchestrator._ran_tape(state, t_us, t_us / US, demands)
    slices, a = [], 0
    while a < n:
        fired = assert_slice_matches_slots(state, tape, a, demands)
        slices.append((n - a, fired))
        a += fired + 1
    return slices


def _open_window(state, g: int, slots: int):
    """Start GPU ``g`` settling for ``slots`` slots: repartition it to the 0.5 / 0.5 layout it has."""
    state.policy = dataclasses.replace(state.policy, settle_slots=slots)
    cut = orchestrator.ScaleAction(orchestrator.ActionKind.REPARTITION, state.gpus[g].device.id, 0.5)
    orchestrator.apply_actions(state, [cut])
    assert state.fleet.grid_cap.flat[state.fleet.grid_rows[g]] == 0.0


def _close_window(state, g: int):
    """End GPU ``g``'s settling window: its settled event is due, and reopens its slices."""
    t_us, _prio, _seq, kind, (gpu_id, generation) = heappop(state.heap)
    gpu = state.gpus[g]
    assert kind is EventKind.REPARTITION_SETTLED and t_us <= state.clock_us
    assert (gpu_id, generation) == (gpu.device.id, gpu.generation)
    gpu.refresh_caches(state.fleet, dynamic=False)


def test_block_with_a_settling_gpu_between_live_gpus():
    """Demand passes a settling middle GPU by, to its live neighbour, and what is left misses."""
    state = _split_state(3, 1)
    first, middle, third = (g.index for g in state.servers[0].gpus)
    ran = state.fleet.ran_level
    _settle_all(state, np.array([[1.2] * 4, [0.2] * 4]))
    assert (ran.item(first), ran.item(middle), ran.item(third)) == (0.5, 0.5, 1.2 - 0.5 - 0.5)
    _open_window(state, middle, 4)
    before = len(state.misses)
    assert _settle_all(state, np.array([[0.7, 0.9, 1.4, 1.2], [0.2, 0.4, 0.2, 0.4]])) == [(4, 4)]
    assert (ran.item(first), ran.item(middle), ran.item(third)) == (0.5, 0.0, 0.5)
    assert [(sid, sf) for _t, sid, sf in state.misses[before:]] == [
        ("srv0", 1.4 - 0.5 - 0.5), ("srv0", 1.2 - 0.5 - 0.5),
    ]
    _close_window(state, middle)
    _settle_all(state, np.array([[1.4], [0.2]]))
    assert (ran.item(middle), ran.item(third)) == (0.5, 1.4 - 0.5 - 0.5)


def test_block_with_the_last_gpu_settling_while_demand_overflows():
    """A settling last GPU takes nothing, so all demand past the first GPU's slice misses."""
    state = _split_state(2)
    first, last = (g.index for g in state.gpus)
    ran = state.fleet.ran_level
    _settle_all(state, np.array([[0.6, 0.8, 0.9]]))
    assert ran.item(last) == 0.9 - 0.5
    _open_window(state, last, 5)
    before = len(state.misses)
    assert _settle_all(state, np.array([[0.4, 1.3, 0.7]])) == [(3, 3)]
    assert (ran.item(first), ran.item(last)) == (0.5, 0.0)
    assert [sf for _t, _sid, sf in state.misses[before:]] == [1.3 - 0.5, 0.7 - 0.5]
    before = len(state.misses)
    assert _settle_all(state, np.array([[1.1, 0.6]])) == [(2, 2)]
    assert [sf for _t, _sid, sf in state.misses[before:]] == [1.1 - 0.5, 0.6 - 0.5]
    # the window's last slot is settled: the last GPU is live again from the next
    _close_window(state, last)
    before = len(state.misses)
    _settle_all(state, np.array([[1.2, 0.4, 0.8]]))
    assert [sf for _t, _sid, sf in state.misses[before:]] == [1.2 - 0.5 - 0.5]
    assert ran.item(last) == 0.8 - 0.5


def test_block_applies_simultaneous_throttles_in_gpu_order():
    """Two GPUs whose tests fire at one slot throttle in GPU order, so their events queue so."""
    state = _dynamic_state(1, 1, 1)
    for k, gpu in enumerate(state.gpus):
        _run_free_job(state, gpu, 0.5, f"j{k}")
    slices = _settle_all(state, np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.3], [0.2, 0.4, 0.6]]))
    assert slices[0] == (3, 2), slices
    queued = sorted(state.heap, key=lambda entry: entry[2])  # by sequence number
    assert [entry[4][0] for entry in queued[-2:]] == ["j0", "j2"]


def _run_keeping_raw_ran(sc: Scenario) -> tuple[SimEngine, np.ndarray]:
    """Run ``sc``; returns the engine and the trace's RAN levels before they are rounded."""
    eng = SimEngine(sc)
    raw = []
    close = eng._close_trace

    def keeping():
        raw.append(eng.trace.ran.copy())
        close()

    eng._close_trace = keeping
    eng.run()
    return eng, raw[0]


def test_ai_changes_no_ran_bit():
    """A dynamic 16 x 4 fleet settles RAN to the same bits with and without its AI workloads.

    Misses, every sample's RAN level, and each GPU's RAN level, bit for
    bit: AI events do not split the settlement. The fleet's AI is throttled
    as it runs.
    """
    sc = parse_scenario(fleet_text(), name="fleet")
    with_ai, ran = _run_keeping_raw_ran(sc)
    without_ai, ran_alone = _run_keeping_raw_ran(dataclasses.replace(sc, ai_workloads=()))
    assert with_ai.state.fleet.ai_integral.any() and not without_ai.state.fleet.ai_integral.any()
    assert any(ev.kind == "trim" for ev in with_ai.state.events)
    assert with_ai.state.misses == without_ai.state.misses
    assert ran.tobytes() == ran_alone.tobytes()
    got, alone = (eng.state.fleet.ran_level for eng in (with_ai, without_ai))
    assert got.tobytes() == alone.tobytes()


def test_demand_is_read_once_per_chunk(monkeypatch):
    """A 2 s, 16 x 4 cluster fleet reads its demand once per chunk of the slot grid.

    Its demand is diurnal, so no segment settles in closed form and no
    quiescent epoch probes demand: every read builds a RAN tape, and the
    segments in between only slice it. A chunk is what a tape holds: RAN
    fits on each server's first GPU, so a tape's 16 columns span
    ``CHUNK_CELLS // 16`` slots.
    """
    build, _fmt = _load_workloads().WORKLOADS["cluster_diurnal"]
    text = build(ROOT, 1).replace("horizon_s: 10.0", "horizon_s: 2.0")
    eng = SimEngine(parse_scenario(text, name="cluster"))
    assert len(eng.state.gpus) == 64 and not eng.demand.stepwise
    reads = []

    def counting(t_s):
        reads.append(t_s.size)
        return vector(t_s)

    vector = eng.demand.vector
    eng.demand = dataclasses.replace(eng.demand, vector=counting)
    segments = _counting_segments(monkeypatch)
    eng.run()
    chunk = orchestrator.CHUNK_CELLS // 16
    chunks = -(-eng.horizon_us // eng.slot_us // chunk)
    # one read per segment would be over sixteen times as many
    assert chunks == 4 and len(reads) <= chunks and 16 * chunks < segments[0], (reads, segments)
    assert sum(reads) == chunks * chunk


def test_poc_reads_demand_only_at_the_slots_a_report_sees(monkeypatch):
    """The 600 s ``poc`` split reads demand at its samples' slots and a few per segment, not at 1.2 M.

    Its cell asks at most 0.40 of the GPU, which the 0.40 RAN slice holds,
    so no slot can miss and a slot between samples changes nothing a
    report shows. The job arriving at 0 s makes a one-slot segment first,
    too short to pass a tape of every slot, so it builds one, of
    ``CHUNK_CELLS`` slots, and the segment to the horizon reads on from it.
    """
    eng = SimEngine(parse_scenario((ROOT / "scenarios" / "poc.scenario").read_text(), name="poc"))
    times = []

    def counting(t_s):
        times.append(t_s.size)
        return vector(t_s)

    vector = eng.demand.vector
    eng.demand = dataclasses.replace(eng.demand, vector=counting)
    segments = _counting_segments(monkeypatch)
    report = eng.run()
    samples = report.trace.times.size
    assert samples == 60_001 and not report.deadline_misses
    assert times[0] == orchestrator.CHUNK_CELLS and segments[0] == 2, (times, segments)
    assert sum(times) <= orchestrator.CHUNK_CELLS + samples + 3 * segments[0], sum(times)


def _split_wave(minimum: float, maximum: float) -> Scenario:
    """A cell peaking at 0.8 of the GPU, on a diurnal load, on a 0.45 RAN slice."""
    wave = LoadProfile(
        ProfileKind.DIURNAL_SINUSOID, minimum=minimum, maximum=maximum, period_s=0.1
    )
    return Scenario(
        name="wave",
        servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"), GpuDevice("gpu2"))),),
        cells=(CellSpec("cell1", CellConfig(), wave, "srv1"),),
        calibration=Calibration(reference_peak_fraction=0.8),
        ai_workloads=(AiWorkload(id="sat", arrival=ArrivalKind.SATURATING),),
        policy=Policy(
            kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.45, ai_fraction=0.55,
            split_gpus=("gpu1",),
        ),
        horizon_s=0.3,
        sample_interval_s=0.0015,
    )


@pytest.mark.parametrize(
    "minimum, maximum, verdict, misses",
    [(0.5, 0.5, True, False), (0.2, 0.5, False, False), (0.2, 1.0, False, True)],
    ids=["bound fits", "bound passes the slice, no miss", "misses"],
)
def test_split_keeps_every_slot_unless_its_bound_fits(monkeypatch, minimum, maximum, verdict, misses):
    """A split reads only observable slots when demand's bound fits its RAN slice, else every slot.

    Demand is 0.8 x load on a 0.45 slice. A load of 0.5 (min = max) is
    bounded by 0.5, which fits. A load from 0.2 to 0.5 asks at most 0.4 and
    never misses, but only the clip bounds it, at 1.0, which does not fit.
    A load up to 1.0 misses at its peaks. Each run equals the slot-by-slot
    one. The segment to the horizon asks; the one-slot segment at the
    saturating job's arrival is too short to, and its tape, of 64 slots
    here, serves the next segment's first slots.
    """
    monkeypatch.setattr(orchestrator, "CHUNK_CELLS", 64)
    segments = _recording_segments(monkeypatch)
    tapes = _recording_tapes(monkeypatch)
    eng = assert_same_run(_split_wave(minimum, maximum), (minimum, maximum))
    assert {v for v, _tapes in segments} == {None, verdict} and bool(eng.state.misses) == misses
    every_slot = [bool((np.diff(tape.t_us) == eng.slot_us).all()) for tape in tapes]
    assert all(every_slot) != verdict, every_slot


# -- the tape's columns ----------------------------------------------------------


def test_fleet_tapes_cover_only_the_first_gpus(monkeypatch):
    """On a 16 x 4 cluster fleet RAN fits on each server's first GPU, and each tape covers those alone.

    Each first GPU's RAN trace column is nonzero; the other 48 GPUs keep a
    RAN level and trace column of 0.0.
    """
    tapes = _recording_tapes(monkeypatch)
    build, _fmt = _load_workloads().WORKLOADS["cluster_diurnal"]
    text = build(ROOT, 1).replace("horizon_s: 10.0", "horizon_s: 2.0")
    eng = SimEngine(parse_scenario(text, name="cluster"))
    eng.run()
    firsts = list(range(0, 64, 4))
    assert tapes and all(tape.cols.tolist() == firsts for tape in tapes)
    others = [g for g in range(64) if g % 4]
    fleet = eng.state.fleet
    assert eng.trace.ran[:, firsts].any(axis=0).all()
    assert not fleet.ran_level[others].any() and not eng.trace.ran[:, others].any()


@pytest.mark.parametrize(
    "servers, horizon_s, counts", [(16, 2.0, (4, 129)), (128, 1.0, (16, 394))],
    ids=["cluster_diurnal for 2 s", "128 x 4 for 1 s"],
)
def test_settlement_work_counts(monkeypatch, servers, horizon_s, counts):
    """The RAN tapes built and the slices settled on two fleets of 4-GPU servers, pinned.

    ``cluster_diurnal`` cut to 2 s, and the same fleet of 128 servers at
    320 jobs/s for 1 s. RAN fits on each server's first GPU, so a tape's
    columns are one per server, and it spans ``CHUNK_CELLS // servers``
    slots: 1,024 and 128. No tape holds more than ``CHUNK_CELLS`` cells,
    and both counts repeat exactly from run to run.
    """
    workloads = _load_workloads()
    if servers == 16:
        build, _fmt = workloads.WORKLOADS["cluster_diurnal"]
        text = build(ROOT, 1).replace("horizon_s: 10.0", f"horizon_s: {horizon_s}")
    else:
        text = workloads.cluster(servers, 4, 320.0, horizon_s, 1, fixed_count=True)
    sc = parse_scenario(text, name="fleet")
    runs = []
    for _run in range(2):
        tapes = _recording_tapes(monkeypatch)
        slices = _recording_slices(monkeypatch)
        SimEngine(sc).run()
        monkeypatch.undo()
        assert all(tape.cols.size == servers for tape in tapes)
        assert all(tape.size * tape.cols.size <= orchestrator.CHUNK_CELLS for tape in tapes)
        runs.append((len(tapes), len(slices)))
    assert runs == [counts, counts]


class _PoisonedTrace(engine_module.Trace):
    """A trace whose levels start as NaN, so a level the run never writes shows in the report."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ran.fill(np.nan)
        self.ai.fill(np.nan)


def _spill_scenario(policy: Policy) -> Scenario:
    """Servers of 2, 2 and 3 GPUs; each one's RAN peak spills past its first GPU, then leaves it.

    Two cells per server ask 0.32 to 1.44 of a GPU, on a 0.1 s diurnal
    profile. Under a 0.5 RAN slice or a whole GPU both, the peaks spill
    onto the second GPU and the troughs leave it, on every server at once.
    A saturating backlog keeps AI running.
    """
    sizes = (2, 2, 3)
    wave = LoadProfile(ProfileKind.DIURNAL_SINUSOID, minimum=0.2, maximum=0.9, period_s=0.1)
    cells = tuple(
        CellSpec(f"cell{s}{c}", CellConfig(), wave, f"srv{s}")
        for s in range(len(sizes))
        for c in "ab"
    )
    return Scenario(
        name="spill",
        servers=tuple(_servers(sizes)),
        cells=cells,
        calibration=Calibration(reference_peak_fraction=0.8),
        ai_workloads=(AiWorkload(id="sat", arrival=ArrivalKind.SATURATING),),
        policy=policy,
        horizon_s=0.3,
        sample_interval_s=0.001,
    )


@pytest.mark.parametrize("kind", [PolicyKind.DYNAMIC_BACKFILL, PolicyKind.STATIC_SPLIT])
@pytest.mark.parametrize("one_slot_tapes", [False, True])
def test_ran_that_leaves_a_gpu_settles_it(monkeypatch, kind, one_slot_tapes):
    """RAN that leaves a server's second GPU settles it to 0.0, also on a tape demand does not reach it on.

    By default one tape covers the run. With one-slot tapes, the slot
    after a spill ends starts a tape on which demand stops at the first
    GPUs, and the tape covers the second one only because its RAN level is
    not 0.0. The trace's levels start as NaN, so a sample must write 0.0
    for every GPU outside its tape.
    """
    if kind is PolicyKind.DYNAMIC_BACKFILL:
        policy = Policy(kind=kind, epoch_s=0.01, safety_margin=0.05)
    else:
        gpus = tuple(f"srv{s}-gpu{g}" for s, n in enumerate((2, 2, 3)) for g in range(n))
        policy = Policy(kind=kind, ran_fraction=0.5, ai_fraction=0.5, split_gpus=gpus)
    if one_slot_tapes:
        monkeypatch.setattr(orchestrator, "CHUNK_CELLS", 3)  # one slot of the three servers' demand
    monkeypatch.setattr(engine_module, "Trace", _PoisonedTrace)
    tapes = _recording_tapes(monkeypatch)
    eng = assert_same_run(_spill_scenario(policy), (kind, one_slot_tapes))
    seconds = [1, 3, 5]  # each server's second GPU
    for g in seconds:
        ran = eng.trace.ran[:, g]
        on = np.flatnonzero(ran)
        assert on.size and not ran[on[0]:].all(), g  # RAN reached the GPU and left it
    if one_slot_tapes:
        assert all(tape.size == 1 for tape in tapes)
        # tapes whose demand stopped at the first GPUs, yet that cover a second one
        left = set()
        for tape in tapes:
            took = dict(zip(tape.cols.tolist(), tape.take[0].tolist()))
            if not any(took.get(g) for g in (1, 3, 5, 6)):
                left |= set(seconds) & set(took)
        assert left == set(seconds), left


def test_tape_keeps_a_gpu_granted_past_its_capacity():
    """A GPU granted more than its capacity is throttled at a RAN level of 0.0, and a tape covers it.

    Placement grants at most TOL past what is free; grants set 3 TOL past,
    as here, throttle a GPU RAN leaves idle. Demand never reaches the
    second GPU, yet every slot applies its throttle.
    """
    state = _dynamic_state(2)
    first, second = state.gpus
    _run_free_job(state, second, 0.5, "j0")
    _run_free_job(state, second, 0.5 + 3 * orchestrator.TOL, "j1")
    fleet = state.fleet
    assert fleet.throttled.item(second.index) and fleet.ran_level.item(second.index) == 0.0
    assert _settle_all(state, np.array([[0.3, 0.5, 0.4]])) == [(3, 0), (2, 0), (1, 0)]
    assert fleet.throttled.item(second.index) and fleet.ran_level.item(first.index) == 0.4


# -- the incremental throttle test ---------------------------------------------------


def reference_first_fire(state, tape, a: int, b: int):
    """The throttle test as a full scan: every tape column at every slot of ``a:b``.

    Returns the first slot that fires and its firing columns as a list,
    or ``(b, None)``.
    """
    fleet = state.fleet
    granted, throttled = fleet.ai_granted[tape.cols], fleet.throttled[tape.cols]
    fire = (granted > tape.room[a:b] + orchestrator.TOL) | throttled
    hits = fire.any(axis=1)
    k = int(hits.argmax())
    return (a + k, np.flatnonzero(fire[k]).tolist()) if hits[k] else (b, None)


def _fires_from(state, tape, a: int) -> np.ndarray:
    """Each tape column's first slot from ``a`` whose room test fires at its grant, or the tape's size."""
    hits = state.fleet.ai_granted[tape.cols] > tape.room[a:] + orchestrator.TOL
    return np.where(hits.any(axis=0), a + hits.argmax(axis=0), tape.size)


def test_incremental_throttle_test_matches_a_full_scan():
    """``_first_fire`` on random tapes whose grants change between slices, against a full scan.

    Before each slice, random tape columns have their grant raised,
    lowered or set again to its value, or are throttled or released. A
    slice starts where the last one ended: after the slot it fired at, or
    at its end. Some changes make a column that would fire fire later in
    the same tape, and some slices fire at a slot an earlier slice found.
    """
    rng = random.Random(33)
    later = found_before = 0
    for _trial in range(300):
        state = _dynamic_state(2, 1, 3)
        fleet = state.fleet
        fleet.ai_granted[:] = [rng.uniform(0.0, 1.0) for _ in state.gpus]
        n = rng.randint(1, 40)
        # a random walk per server, so that room drifts and fires come in runs
        steps = np.array([[rng.uniform(-0.3, 0.3) for _ in range(n)] for _ in state.servers])
        demands = np.clip(rng.uniform(0.0, 2.0) + np.cumsum(steps, axis=1), 0.0, 2.5)
        t_us = state.slot_us * np.arange(1, n + 1, dtype=np.int64)
        tape = orchestrator._ran_tape(state, t_us, t_us / US, demands)
        cols = tape.cols.tolist()
        a, ended_at_b = 0, False
        while a < tape.size:
            before = _fires_from(state, tape, a)
            changed = rng.sample(range(len(cols)), rng.choice((0, 0, 1, 2)))
            for c in changed:
                g = cols[c]
                action = rng.choice(("raise", "lower", "same", "throttle", "release"))
                if action == "raise":
                    fleet.ai_granted[g] += rng.uniform(0.0, 0.5)
                elif action == "lower":
                    fleet.ai_granted[g] = max(0.0, fleet.ai_granted[g] - rng.uniform(0.0, 0.5))
                elif action == "same":
                    fleet.ai_granted[g] = float(fleet.ai_granted[g])
                else:
                    fleet.throttled[g] = action == "throttle"
            after = _fires_from(state, tape, a)
            later += bool(((before < after) & (after < tape.size)).any())
            b = min(tape.size, a + rng.randint(1, 8))
            stop, firing = orchestrator._first_fire(state, tape, a, b)
            got = (stop, None if firing is None else firing.tolist())
            assert got == reference_first_fire(state, tape, a, b), (a, b)
            found_before += ended_at_b and not changed and stop < b
            ended_at_b = stop == b
            a = stop + 1 if stop < b else b
    assert later > 0 and found_before > 0, (later, found_before)


def _counting_segments(monkeypatch) -> list[int]:
    """Count ``settle_segment`` calls in the one element of the list returned."""
    count = [0]
    original = orchestrator.settle_segment

    def counting(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(engine_module, "settle_segment", counting)
    return count


# -- quiescent epochs ----------------------------------------------------------

UPLIFT = (ROOT / "scenarios" / "uplift.scenario").read_text()
_LEVEL = "kind: constant\n    level: 0.875"
_BACKLOG = (
    "  - id: backlog\n    arrival: saturating\n"
    "    demand_fraction: {kind: constant, value: 1.0}\n    slo_class: batch"
)
_POLICY = "  safety_margin: 0.05\n  forecast: {kind: max_over_window, window_s: 0.2}"


def uplift_variant(horizon_s: float, profile=None, workloads=None, policy=None) -> Scenario:
    """``uplift`` over ``horizon_s``, its profile, AI workloads or policy lines replaced.

    Its cell peaks at 0.4 of the GPU, so a load of 0.9 asks for 0.36.
    """
    text = UPLIFT.replace("horizon_s: 600.0", f"horizon_s: {horizon_s}")
    for old, new in ((_LEVEL, profile), (_BACKLOG, workloads), (_POLICY, policy)):
        if new is not None:
            assert old in text
            text = text.replace(old, new)
    return parse_scenario(text, name="uplift")


def epoch_times(sc: Scenario) -> list[float]:
    """The times of the policy epochs a run of ``sc`` dispatches."""
    eng = SimEngine(sc)
    times = []
    dispatch = eng._dispatch

    def recording(kind, payload, t_us):
        if kind is EventKind.POLICY_EPOCH:
            times.append(t_us / US)
        return dispatch(kind, payload, t_us)

    eng._dispatch = recording
    eng.run()
    return times


def assert_skips(sc: Scenario, label, needed=()) -> SimEngine:
    """``assert_same_run``, and the run skips epochs but runs those at ``needed``."""
    eng = assert_same_run(sc, label)
    times = epoch_times(sc)
    grid = round(sc.horizon_s / sc.policy.epoch_s)
    assert len(times) < grid, (label, times)
    assert set(needed) <= set(times), (label, times)
    return eng


def _events(eng: SimEngine, kind: str) -> list[float]:
    return [ev.time_s for ev in eng.state.events if ev.kind == kind]


def test_trace_steps_on_and_off_the_epoch_grid():
    """A step at an epoch's time reaches that epoch; an off-grid step the next one.

    The step at 1.0 s changes the slot at 1.0 s, which settles before the
    epoch at 1.0 s: that epoch must run and trims the backlog. The step
    down at 1.55 s raises the ceiling once the 0.2 s window has passed it.
    """
    sc = uplift_variant(3.0, profile="kind: trace\n    points: [[0.0, 0.5], [1.0, 0.9], [1.55, 0.3]]")
    eng = assert_skips(sc, "trace steps", needed=(1.0, 1.6, 1.7, 1.8))
    assert _events(eng, "trim") == [1.0]
    assert _events(eng, "grant") == [1.8]


def test_arrivals_between_epochs():
    """Poisson arrivals and completions off the epoch grid resume the epochs."""
    jobs = (
        "  - id: jobs\n    arrival: poisson\n    rate_per_s: 4.0\n"
        "    job_size: {kind: exponential, mean: 0.2}\n"
        "    demand_fraction: {kind: constant, value: 0.3}"
    )
    eng = assert_skips(uplift_variant(2.0, workloads=jobs), "poisson")
    arrivals = _events(eng, "arrival")
    assert len(arrivals) > 2 and all(round(t * 10) != t * 10 for t in arrivals)
    assert _events(eng, "completion")


def test_forecast_window_still_filling():
    """Epochs run while a 5-epoch window fills, and while it forgets a step down."""
    sc = uplift_variant(
        2.0,
        profile="kind: trace\n    points: [[0.0, 0.9], [0.5, 0.3]]",
        policy="  safety_margin: 0.05\n  forecast: {kind: max_over_window, window_s: 0.5}",
    )
    eng = assert_skips(sc, "window", needed=(0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0))
    assert _events(eng, "grant") == [1.0]


def test_throttle_between_epochs(monkeypatch):
    """A step up between epochs throttles the backlog before the next epoch trims it."""
    counts: dict[str, int] = {}
    _counting(monkeypatch, counts, "_apply_throttle")
    sc = uplift_variant(1.0, profile="kind: trace\n    points: [[0.0, 0.3], [0.55, 0.9]]")
    eng = assert_skips(sc, "throttle", needed=(0.6,))
    assert counts["_apply_throttle"] > 0
    assert _events(eng, "trim") == [0.6]


def test_preempted_job_resumes_between_heap_events():
    """A job preempted with a resume delay is placed again when the delay ends.

    Job b is preempted at 0.5 s with a 0.63 s delay. Its resume is a heap
    event at 1.13 s, between two epoch grid times, and it places the job then.
    """
    jobs = (
        "  - id: a\n    arrival: saturating\n    demand_fraction: {kind: constant, value: 0.55}\n"
        "  - id: b\n    arrival: trace\n    arrivals: [0.2]\n"
        "    job_size: {kind: constant, value: 100.0}\n"
        "    demand_fraction: {kind: constant, value: 0.4}"
    )
    sc = uplift_variant(
        2.0,
        profile="kind: trace\n    points: [[0.0, 0.0], [0.5, 1.0], [0.55, 0.0]]",
        workloads=jobs,
        policy=_POLICY + "\n  resume_delay_s: 0.63",
    )
    eng = assert_skips(sc, "resume")
    assert _events(eng, "preempt") == [0.5]
    assert _events(eng, "place") == [0.0, 0.2, 1.13]


def test_one_epoch_window_forgets_a_step_down():
    """An epoch whose maximum still holds a step down is not quiescent.

    With a one-epoch window the history is empty. The epoch at 0.6 s
    forecasts the 0.9 load that lasted until 0.55 s, as the epoch before
    it did, and changes nothing; the one at 0.7 s sees only 0.3 and grants.
    """
    sc = uplift_variant(
        1.0,
        profile="kind: trace\n    points: [[0.0, 0.9], [0.55, 0.3]]",
        policy="  safety_margin: 0.05\n  forecast: {kind: max_over_window, window_s: 0.1}",
    )
    eng = assert_skips(sc, "one-epoch window", needed=(0.6, 0.7))
    assert _events(eng, "grant") == [0.7]


def test_epochs_with_a_grant_that_changes_nothing_all_run():
    """A grant action that finds nothing to grant still accrues the levels.

    The interactive job can never meet its latency bound, so it stays
    queued, and every epoch asks to grant it the headroom: ``_top_up``
    finds no job, and its refresh re-accrues the GPU's AI integral, so no
    epoch may be skipped.
    """
    job = (
        "  - id: late\n    arrival: trace\n    arrivals: [0.05]\n"
        "    job_size: {kind: constant, value: 10.0}\n"
        "    demand_fraction: {kind: constant, value: 0.3}\n"
        "    slo_class: interactive\n    latency_bound_s: 1.0"
    )
    sc = uplift_variant(1.0, workloads=job)
    eng = assert_same_run(sc, "silent grant")
    assert eng.state.pending and not _events(eng, "place")
    assert len(epoch_times(sc)) == 10


def test_trace_point_without_event_under_dynamic_backfill():
    """A demand step at the second slot, with no event, ends a quiescent start.

    Demand is 0 at slot 0, so with no margin and a one-epoch window the
    epoch at 0 s leaves the ceiling at 1.0 and its forecast inputs as
    they were. The step at 0.3 us reaches slot 1 without an event; the
    epochs after it must run.
    """
    profile = LoadProfile(
        kind=ProfileKind.TRACE, points=((-1.0, 0.0), (3e-7, 0.9), (0.05, 0.5))
    )
    sc = Scenario(
        name="early-point",
        servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"),)),),
        cells=(CellSpec("cell1", CellConfig(), profile, "srv1"),),
        calibration=Calibration(),
        ai_workloads=(),
        policy=Policy(
            kind=PolicyKind.DYNAMIC_BACKFILL, epoch_s=0.01, safety_margin=0.0,
            window_s=0.01,
        ),
        horizon_s=0.1,
        sample_interval_s=0.001,
    )
    eng = assert_skips(sc, "early-point dynamic", needed=(0.01, 0.05, 0.06))
    assert _events(eng, "ceiling")[:2] == [0.01, 0.06]


@pytest.mark.parametrize("horizon_s", [60.0, 6000.0])
def test_uplift_epochs_do_not_grow_with_horizon(horizon_s):
    """Once the policy holds still, no epoch runs until the horizon.

    The epoch at 0 s sets the ceiling and fills the window; the one at
    0.1 s finds nothing to change.
    """
    assert epoch_times(uplift_variant(horizon_s)) == [0.0, 0.1]


def _grid(horizon_s: float, slot_s: float) -> np.ndarray:
    return np.arange(0, round(horizon_s * US), round(slot_s * US), dtype=np.int64) / US


def _one_at_a_time(evaluate, t: np.ndarray, every: int) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate`` over the whole ``t``, and over every ``every``-th time alone."""
    times = t[::every]
    alone = np.concatenate([evaluate(times[k:k + 1]) for k in range(times.size)], axis=-1)
    return evaluate(t)[..., ::every], alone


@pytest.mark.parametrize(
    "profile",
    [
        parse_scenario((ROOT / "scenarios" / "poc.scenario").read_text()).cells[0].profile,
        LoadProfile(ProfileKind.DIURNAL_SINUSOID, minimum=0.2, maximum=0.9, period_s=20.0),
        LoadProfile(
            ProfileKind.TRACE, points=((0.0, 0.3), (0.00025, 0.7), (17.5, 0.1), (599.9, 1.0))
        ),
    ],
    ids=["poc", "cluster", "trace"],
)
def test_vector_sampler_does_not_depend_on_batching(profile):
    """A time's load alone is the same bits as inside a 600 s full-horizon call.

    Every settlement path reads demand in batches of its own length, so
    this is what makes them agree bit for bit.
    """
    whole, alone = _one_at_a_time(profile.vector_sampler(), _grid(600.0, 0.0005), 397)
    assert whole.tolist() == alone.tolist()


def test_engine_demand_does_not_depend_on_batching():
    """Each server's demand at a time alone equals it inside a full-horizon call."""
    for seed in range(20):
        sc = random_scenario(1000 + seed)
        whole, alone = _one_at_a_time(build_demand(sc).vector, _grid(sc.horizon_s, sc.slot_s), 7)
        assert whole.tolist() == alone.tolist(), seed
