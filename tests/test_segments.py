"""Segment settlement and the columnar trace against the paths they replaced.

``reference_run`` is ``SimEngine.run`` as it was before segments: one
``settle_slot`` per slot, and samples flushed before every slot and event,
one ``TraceRecord`` per GPU per sample. ``reference_summarize`` and
``reference_write_records`` are ``summarize`` and the RECORDS writer as
they were for that list of rows. Random scenarios go through them and
through the engine, and everything the run leaves behind must be equal:
report bytes, the rows, the raw miss list, every GPU's levels, forecast
inputs and level integrals, and every job. Targeted scenarios check the
same for runs that skip quiescent policy epochs.
"""

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
            orchestrator.settle_slot(state, next_slot / US, demands[next_slot // slot_us])
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


def _gpu_state(eng: SimEngine) -> list[tuple]:
    return [
        (
            g.device.id, g.ran_level, g.ran_in_free, g.ai_hard, g.ai_free, g.ai_free_eff,
            g.throttled, g.demand_last, g.epoch_max, tuple(g.epoch_history),
            g.ai_ceiling, g.ran_integral, g.ai_integral, g.last_accrue_us,
        )
        for g in eng.state.gpus
    ]


def _job_state(eng: SimEngine) -> list[tuple]:
    return [
        (j.id, j.state, j.remaining_compute_seconds, j.service_rate, j.granted_fraction,
         j.completion_time, j.preempt_count, j.version)
        for j in eng.state.jobs.values()
    ]


def _counting(monkeypatch, counts: dict, name: str):
    original = getattr(orchestrator, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(orchestrator, name, wrapper)


PATHS = ("_settle_steady", "_settle_slots", "_settle_run", "_apply_throttle")


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
    assert _gpu_state(eng) == _gpu_state(ref_eng), label
    assert _job_state(eng) == _job_state(ref_eng), label
    assert eng.state.events == ref_eng.state.events, label
    for rec in rep.trace:
        assert rec.ran_fraction + rec.ai_fraction <= 1.0 + 1e-9, (label, rec)
    return eng


def test_segments_match_slot_by_slot_loop(monkeypatch):
    """120 random scenarios; odd seeds use tiny chunks and crossover lengths."""
    counts: dict[str, int] = {}
    for name in PATHS:
        _counting(monkeypatch, counts, name)
    defaults = orchestrator.CHUNK_CELLS, orchestrator.VECTOR_MIN_SLOTS
    misses = throttled = 0
    for seed in range(120):
        sc = random_scenario(seed)
        chunk, crossover = defaults
        if seed % 2:
            rng = random.Random(-seed)
            chunk, crossover = rng.choice((3, 17, 64)), (rng.choice((1, 2, 9)), 0.0)
        monkeypatch.setattr(orchestrator, "CHUNK_CELLS", chunk)
        monkeypatch.setattr(orchestrator, "VECTOR_MIN_SLOTS", crossover)
        before = counts.get("_apply_throttle", 0)
        eng = assert_same_run(sc, seed)
        throttled += counts.get("_apply_throttle", 0) > before
        misses += bool(eng.state.misses)
    # every settlement path, and the cases that force a fallback, were exercised
    for name in PATHS:
        assert counts.get(name, 0) > 0, (name, counts)
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
    """Shortfalls inside numpy passes reach the forecast inputs and the misses.

    Server srv0 has one GPU and three full-peak diurnal cells, so demand
    exceeds the GPU; srv1 spills over two GPUs. No AI runs, so no throttle
    cuts the passes short.
    """
    calls = []
    original = orchestrator._settle_run
    monkeypatch.setattr(
        orchestrator, "_settle_run", lambda *a: calls.append(a[2]) or original(*a)
    )
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
    assert calls and eng.state.misses
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
    runs = []
    original = orchestrator._settle_run

    def counting(state, first_us, n, *rest):
        settled = original(state, first_us, n, *rest)
        runs.append((settled, n))
        return settled

    monkeypatch.setattr(orchestrator, "_settle_run", counting)
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
    assert any(0 < settled < n for settled, n in runs)


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
