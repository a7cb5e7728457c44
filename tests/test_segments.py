"""Segment settlement and the columnar trace against the paths they replaced.

``reference_settle_slot`` is the scalar settlement rule, one GPU at a time.
``reference_run`` is ``SimEngine.run`` as it was before segments: one
``reference_settle_slot`` per slot, and samples flushed before every slot
and event, one ``TraceRecord`` per GPU per sample. ``reference_summarize`` and
``reference_write_records`` are ``summarize`` and the RECORDS writer as
they were for that list of rows. Random scenarios go through them and
through the engine, and everything the run leaves behind must be equal:
report bytes, the rows, the raw miss list, every GPU's levels, forecast
inputs and level integrals, and every job. Targeted scenarios check the
same for runs that skip quiescent policy epochs.
"""

import copy
import dataclasses
import math
import random
from heapq import heappop
from pathlib import Path

import numpy as np
import pytest

from ranshare import orchestrator
from ranshare.compute import GpuDevice, Server
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
    LoadProfile,
    ProfileKind,
    SloClass,
    constant,
    exponential,
    slot_duration,
    uniform,
)

ROOT = Path(__file__).resolve().parents[1]
US = 1_000_000


def reference_settle_slot(state, t_s: float, demands: list[float]) -> bool:
    """``settle_slot`` as a scalar loop over the GPUs, one attribute at a time.

    Per server, demand fills GPUs in declaration order; a GPU that is
    settling takes nothing. Under the dynamic policy RAN spills into FREE
    capacity and each GPU records what it was asked to serve. A GPU whose
    FREE-slice AI exceeds what RAN left over, or that is throttled, has its
    throttle applied at once. Returns True when a throttle was applied.
    """
    TOL = orchestrator.TOL
    soft = state.soft_ran
    now_us = state.clock_us
    applied = False
    for srv, rem in zip(state.servers, demands):
        for gpu in srv.gpus:
            if gpu.settling_until_us >= now_us:
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
            if soft:
                asked = take + (rem if gpu is srv.gpus[-1] else 0.0)
                gpu.demand_last = asked
                if asked > gpu.epoch_max:
                    gpu.epoch_max = asked
            in_free = take - gpu.ran_cap
            if in_free < 0.0:
                in_free = 0.0
            if take != gpu.ran_level:
                gpu.accrue(now_us)
                gpu.ran_level = take
                gpu.ran_in_free = in_free
            if gpu.ai_free > 0.0 or gpu.throttled:
                allowed = gpu.free_cap - in_free
                if gpu.ai_free > allowed + TOL or gpu.throttled:
                    orchestrator._apply_throttle(state, gpu, allowed)
                    applied = True
        if rem > TOL:
            state.misses.append((t_s, srv.server.id, rem))
    return applied


class ReferenceSampler:
    """The per-row sampling of the engine before the columnar trace.

    ``pending`` stands for each GPU's annotation counts, which every
    sample took and cleared: a miss counted on the server's first GPU,
    and each ``preempt``, ``trim`` and ``repartition`` event on its GPU.
    """

    def __init__(self, eng: SimEngine):
        self.eng = eng
        self.rows: list[TraceRecord] = []
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
            for gpu_id, r, a in rows:
                ann = ""
                if self.pending[gpu_id]:
                    ann = ";".join(f"{k}:{v}" for k, v in sorted(self.pending[gpu_id].items()))
                    self.pending[gpu_id].clear()
                self.rows.append(TraceRecord(t_s, gpu_id, r, a, ann))
            eng.next_sample_us += eng.sample_us

    def flush(self, before_us: int):
        eng = self.eng
        gpus = eng.state.gpus
        while eng.next_sample_us < before_us and eng.next_sample_us <= eng.horizon_us:
            self._emit_samples([g.ran_level for g in gpus], [g.ai_level for g in gpus])


def reference_summarize(trace: list[TraceRecord], miss_count: int = 0) -> Summary:
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
    return Summary(per_gpu=per_gpu, avg_total=avg_total, miss_count=miss_count)


_CATEGORY_ORDER = {"sample": 3, "event": 0, "miss": 1, "fabric": 2}


def reference_write_records(report) -> str:
    """The RECORDS writer as it was before the columnar trace: one full sort."""
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
    for i, rec in enumerate(report.trace):
        rows.append(
            (
                rec.time_s,
                i,
                f"sample,{rec.time_s:.6f},{rec.gpu_id},"
                f"{rec.ran_fraction:.6f},{rec.ai_fraction:.6f},{rec.annotation}",
            )
        )
    for i, ev in enumerate(report.events):
        rows.append(
            (ev.time_s, i, f"event,{ev.time_s:.6f},{ev.subject},,,{ev.kind} {ev.detail}")
        )
    for i, miss in enumerate(report.deadline_misses):
        rows.append(
            (
                miss.time_s,
                i,
                f"miss,{miss.time_s:.6f},{miss.server_id},,,shortfall={miss.shortfall:.9f}",
            )
        )
    for i, ev in enumerate(report.fabric_violations):
        rows.append((ev.time_s, i, f"fabric,{ev.time_s:.6f},{ev.subject},,,{ev.detail}"))
    category = lambda row: _CATEGORY_ORDER[row.split(",", 1)[0]]  # noqa: E731
    lines.extend(row for _, _, row in sorted(rows, key=lambda r: (r[0], category(r[2]), r[1])))
    return "\n".join(lines) + "\n"


def reference_run(eng: SimEngine):
    """The engine's main loop before segment settlement, slot by slot.

    It ignores what ``_dispatch`` returns, so it runs every policy epoch
    on the grid: the engine's skipping of quiescent epochs must not show.

    The report carries the per-row trace (a list of ``TraceRecord``) and
    its ``reference_summarize`` summary. Demand is evaluated once for every
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
    orchestrator.accrue_all(state)
    report = eng._report()  # its summary is empty: eng.trace holds no samples
    if sampler.rows:
        summary = reference_summarize(sampler.rows, len(report.deadline_misses))
        report = dataclasses.replace(report, trace=sampler.rows, summary=summary)
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
    return [
        (
            g.device.id, g.ran_level, g.ran_in_free, g.ai_hard, g.ai_free, g.ai_free_eff,
            g.throttled, g.demand_last, g.epoch_max, tuple(g.epoch_history),
            g.ai_ceiling, g.ran_integral, g.ai_integral, g.last_accrue_us,
        )
        for g in state.gpus
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


def _recording_blocks(monkeypatch) -> list[tuple[int, int, bool]]:
    """Record each ``_settle_block`` call as (slots, fired slot or slots, any GPU settling)."""
    blocks = []
    original = orchestrator._settle_block

    def recording(state, t_us, *rest):
        settling = bool((state.fleet.settling_until_us >= t_us[0]).any())
        fired = original(state, t_us, *rest)
        blocks.append((t_us.size, fired, settling))
        return fired

    monkeypatch.setattr(orchestrator, "_settle_block", recording)
    return blocks


# the engine calls settle_slot only for a segment it settles in closed form
PATHS = ("settle_slot", "_apply_throttle")


def assert_same_run(sc: Scenario, label) -> SimEngine:
    """Run ``sc`` slot by slot and by segments; everything must be equal."""
    ref_eng = SimEngine(sc)
    ref = reference_run(ref_eng)
    eng = SimEngine(sc)
    rep = eng.run()
    records = write_report(rep, "records")
    assert records == reference_write_records(ref), label
    assert write_report(rep, "summary") == write_report(ref, "summary"), label
    assert list(rep.trace) == ref.trace, label
    again = parse_records(records)
    assert again.trace == rep.trace and again.summary == rep.summary, label
    assert eng.state.misses == ref_eng.state.misses, label
    assert _gpu_state(eng.state) == _gpu_state(ref_eng.state), label
    assert _job_state(eng.state) == _job_state(ref_eng.state), label
    assert eng.state.events == ref_eng.state.events, label
    for rec in rep.trace:
        assert rec.ran_fraction + rec.ai_fraction <= 1.0 + 1e-9, (label, rec)
    return eng


def test_segments_match_slot_by_slot_loop(monkeypatch):
    """120 random scenarios; odd seeds settle in blocks of a few slots."""
    counts: dict[str, int] = {}
    for name in PATHS:
        _counting(monkeypatch, counts, name)
    blocks = _recording_blocks(monkeypatch)
    default = orchestrator.CHUNK_CELLS
    misses = throttled = 0
    for seed in range(120):
        sc = random_scenario(seed)
        chunk = default
        if seed % 2:
            chunk = random.Random(-seed).choice((3, 17, 64))
        monkeypatch.setattr(orchestrator, "CHUNK_CELLS", chunk)
        before = counts.get("_apply_throttle", 0)
        eng = assert_same_run(sc, seed)
        throttled += counts.get("_apply_throttle", 0) > before
        misses += bool(eng.state.misses)
    # every settlement path, and each case the block kernel handles, was exercised
    for name in PATHS:
        assert counts.get(name, 0) > 0, (name, counts)
    cases = {
        "one slot": any(n == 1 for n, _fired, _settling in blocks),
        "many slots": any(n > 1 and fired == n for n, fired, _settling in blocks),
        "fired inside": any(0 < fired < n - 1 for n, fired, _settling in blocks),
        "settling": any(settling for _n, _fired, settling in blocks),
    }
    assert all(cases.values()), cases
    assert misses > 0 and throttled > 0, (misses, throttled)


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
    blocks = _recording_blocks(monkeypatch)
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
    assert any(n > 1 for n, _fired, _settling in blocks) and eng.state.misses
    assert max(g.epoch_max for g in eng.state.gpus) > 1.0


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
    blocks = _recording_blocks(monkeypatch)
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
    assert any(0 < fired < n for n, fired, _settling in blocks)


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


# -- edge cases of the block kernel -----------------------------------------


def test_one_slot_segments(monkeypatch):
    """An epoch at every slot makes every segment, and so every block, one slot long."""
    blocks = _recording_blocks(monkeypatch)
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
    assert blocks and all(n == 1 for n, _fired, _settling in blocks)
    assert any(fired == 0 for _n, fired, _settling in blocks) and eng.state.misses


def test_throttle_fires_at_the_first_and_the_last_slot_of_a_segment(monkeypatch):
    """A step on the slot grid fires at its segment's last slot; one just after, at the next's first.

    The step up at 0.5 s has an event at 0.5 s, and the slot at 0.5 s,
    the last one before that event, already sees it. The step at
    1.5000002 s rounds to an event at 1.5 s too, but the slot at 1.5 s
    does not see it yet: the first slot of the segment after the event
    does. A small diurnal cell keeps demand from being stepwise, so the
    segments settle in blocks, not in closed form.
    """
    blocks = _recording_blocks(monkeypatch)
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
    assert (200, 199, False) in blocks and (200, 0, False) in blocks, blocks


def test_settling_gpu_between_live_gpus_under_time_split(monkeypatch):
    """The middle GPU of three repartitions and settles while its neighbours stay live."""
    blocks = _recording_blocks(monkeypatch)
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
    assert any(settling and n > 1 for n, _fired, settling in blocks), blocks
    assert [ev.subject for ev in eng.state.events if ev.kind == "repartition"] == ["srv1-gpu1"] * 2
    assert eng.state.misses


def _dynamic_state(*sizes: int):
    """Servers ``srv0``, ``srv1``, ... of ``sizes`` whole GPUs under dynamic backfill."""
    servers = [
        Server(id=f"srv{s}", gpus=tuple(GpuDevice(f"srv{s}-gpu{g}") for g in range(size)))
        for s, size in enumerate(sizes)
    ]
    return orchestrator.build_cluster_state(
        servers, Policy(kind=PolicyKind.DYNAMIC_BACKFILL), {}
    )


def _run_free_job(state, gpu, grant: float, jid: str):
    job = orchestrator.AiJob(jid, 0.0, 1.0, grant, remaining_compute_seconds=1.0)
    state.jobs[jid] = job
    state.enqueue(job)
    orchestrator.start_job(state, job, gpu.server_id, gpu, gpu.instances[0].id, grant)


def assert_block_matches_slots(state, demands: np.ndarray) -> int:
    """``_settle_block`` over ``demands`` (server, slot) from the next slot, against the reference.

    A copy of ``state`` settles the same slots one ``reference_settle_slot``
    at a time, up to the first that applies a throttle. Both must stop at
    the same slot and leave every GPU, job, miss and queued event equal.
    Returns the index of the slot that fired, or the number of slots.
    """
    ref = copy.deepcopy(state)
    n = demands.shape[1]
    t_us = state.clock_us + state.slot_us * np.arange(1, n + 1, dtype=np.int64)
    fired = orchestrator._settle_block(state, t_us, t_us / US, demands)
    for k, t in enumerate(t_us.tolist()):
        ref.clock_us = t
        if reference_settle_slot(ref, t / US, demands[:, k].tolist()):
            assert fired == k
            break
    else:
        assert fired == n
    assert state.clock_us == ref.clock_us
    assert state.misses == ref.misses
    assert _gpu_state(state) == _gpu_state(ref)
    assert _job_state(state) == _job_state(ref)
    assert state.heap == ref.heap
    return fired


def _settle_all(state, demands: np.ndarray) -> list[tuple[int, int]]:
    """Settle every slot of ``demands`` in checked blocks; returns (slots, fired) per block."""
    blocks = []
    while demands.shape[1]:
        fired = assert_block_matches_slots(state, demands)
        blocks.append((demands.shape[1], fired))
        demands = demands[:, fired + 1:]
    return blocks


def test_block_with_a_settling_gpu_between_live_gpus():
    """Demand passes a settling middle GPU by, to its live neighbour, which throttles."""
    state = _dynamic_state(3, 1)
    first, middle, third = state.servers[0].gpus
    _run_free_job(state, third, 0.3, "j0")
    _settle_all(state, np.array([[1.5] * 4, [0.2] * 4]))
    assert middle.ran_level == 0.5
    middle.settling_until_us = state.clock_us + 4 * state.slot_us
    srv0 = [1.2, 1.5, 1.8, 1.9, 1.9, 1.9, 2.2, 2.5, 2.9, 3.1, 3.4]
    blocks = _settle_all(state, np.array([srv0, [0.2, 1.3] * 5 + [0.2]]))
    # the throttle fires inside the first block, while the middle GPU settles
    assert blocks[0] == (11, 2), blocks
    assert not first.throttled and state.misses


def test_block_with_the_last_gpu_settling_while_demand_overflows():
    """A settling last GPU leaves the server's shortfall to the misses alone.

    The first GPU records only its own take as the demand it was asked to
    serve; the settling GPU's forecast inputs stay as they were.
    """
    state = _dynamic_state(2)
    first, last = state.gpus
    _run_free_job(state, last, 0.3, "j0")
    _settle_all(state, np.array([[1.6, 1.7, 1.9]]))
    assert last.demand_last == last.epoch_max == 1.9 - 1.0
    # a throttled GPU has no throttle test while it settles
    last.settling_until_us = state.clock_us + 5 * state.slot_us
    assert last.throttled
    before = len(state.misses)
    assert _settle_all(state, np.array([[1.4, 2.3, 1.2]])) == [(3, 3)]
    assert last.ran_level == 0.0 and last.demand_last == last.epoch_max == 1.9 - 1.0
    assert first.demand_last == 1.0 and len(state.misses) == before + 3
    blocks = _settle_all(state, np.array([[1.1, 2.5, 1.9, 0.4, 1.3]]))
    assert last.demand_last == 1.3 - 1.0 and last.epoch_max == 1.9 - 1.0
    assert blocks[0] == (5, 2), blocks  # the first slot the last GPU is live


def test_block_applies_simultaneous_throttles_in_gpu_order():
    """Two GPUs whose tests fire at one slot throttle in GPU order, so their events queue so."""
    state = _dynamic_state(1, 1, 1)
    for k, gpu in enumerate(state.gpus):
        _run_free_job(state, gpu, 0.5, f"j{k}")
    blocks = _settle_all(state, np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.3], [0.2, 0.4, 0.6]]))
    assert blocks[0] == (3, 2), blocks
    queued = sorted(state.heap, key=lambda entry: entry[2])  # by sequence number
    assert [entry[4][0] for entry in queued[-2:]] == ["j0", "j2"]


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
    """A job preempted with a resume delay becomes eligible when no event is due.

    Job b is preempted at 0.5 s and may resume from 1.13 s; nothing is on
    the heap then, so only the epoch at 1.2 s can place it again.
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
    eng = assert_skips(sc, "resume", needed=(1.2,))
    assert _events(eng, "preempt") == [0.5]
    assert _events(eng, "place") == [0.0, 0.2, 1.2]


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
    finds no job and re-accrues the GPU's level integrals, so no epoch
    may be skipped.
    """
    job = (
        "  - id: late\n    arrival: trace\n    arrivals: [0.05]\n"
        "    job_size: {kind: constant, value: 10.0}\n"
        "    demand_fraction: {kind: constant, value: 0.3}\n"
        "    slo_class: interactive\n    latency_bound_s: 1.0"
    )
    sc = uplift_variant(1.0, workloads=job)
    eng = assert_same_run(sc, "silent grant")
    assert eng.state.queue and not _events(eng, "place")
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
