"""Segment settlement against the per-slot loop it replaced.

``reference_run`` is ``SimEngine.run`` as it was before segments: one
``settle_slot`` per slot, and samples flushed before every slot and event.
Random scenarios go through it and through the engine, and everything the
run leaves behind must be equal: report bytes, the raw miss list, every
GPU's levels, forecast inputs and level integrals, and every job.
"""

import math
import random
from heapq import heappop
from pathlib import Path

import numpy as np
import pytest

from ranshare import orchestrator
from ranshare.compute import GpuDevice, Server
from ranshare.engine import CellSpec, Scenario, SimEngine, build_demand
from ranshare.orchestrator import ForecastKind, Policy, PolicyKind
from ranshare.scenario import parse_scenario, write_report
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

ROOT = Path(__file__).resolve().parents[1]
US = 1_000_000


def reference_run(eng: SimEngine):
    """The engine's main loop before segment settlement, slot by slot."""
    state = eng.state
    horizon_us = eng.horizon_us
    slot_us = eng.slot_us
    heap = eng.heap
    next_slot = 0
    while True:
        head = heap[0] if heap else None
        if next_slot < horizon_us and (head is None or next_slot <= head[0]):
            eng._flush_samples(next_slot)
            eng._process_slot(next_slot)
            next_slot += slot_us
            continue
        if head is None:
            break
        t_us, _prio, _seq, kind, payload = heappop(heap)
        if t_us > horizon_us:
            break
        eng._flush_samples(t_us)
        state.clock_us = t_us
        eng._dispatch(kind, payload, t_us)
    state.clock_us = horizon_us
    eng._flush_samples(horizon_us + 1)
    for srv in state.servers:
        for gpu in srv.gpus:
            gpu.accrue(horizon_us)
    for job in state.jobs.values():
        if job.state is JobState.RUNNING:
            eng._accrue_job(job, horizon_us)
    return eng._report()


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
    assert write_report(rep, "records") == write_report(ref, "records"), label
    assert write_report(rep, "summary") == write_report(ref, "summary"), label
    assert eng.miss_sink == ref_eng.miss_sink, label
    assert _gpu_state(eng) == _gpu_state(ref_eng), label
    assert _job_state(eng) == _job_state(ref_eng), label
    assert eng.events == ref_eng.events, label
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
            chunk, crossover = rng.choice((3, 17, 64)), rng.choice((1, 2, 9))
        monkeypatch.setattr(orchestrator, "CHUNK_CELLS", chunk)
        monkeypatch.setattr(orchestrator, "VECTOR_MIN_SLOTS", crossover)
        before = counts.get("_apply_throttle", 0)
        eng = assert_same_run(sc, seed)
        throttled += counts.get("_apply_throttle", 0) > before
        misses += bool(eng.miss_sink)
    # every settlement path, and the cases that force a fallback, were exercised
    for name in PATHS:
        assert counts.get(name, 0) > 0, (name, counts)
    assert misses > 0 and throttled > 0, (misses, throttled)


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
    assert calls and eng.miss_sink
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
    assert [(r.time_s, r.ran_fraction) for r in eng.trace[:2]] == [(0.0, 0.2), (0.001, 0.36)]


def test_steady_segment_count_on_uplift(monkeypatch):
    """A constant-demand scenario settles one slot per segment, not per slot."""
    text = (ROOT / "scenarios" / "uplift.scenario").read_text()
    sc = parse_scenario(text.replace("horizon_s: 600.0", "horizon_s: 2.0"), name="uplift")
    counts: dict[str, int] = {}
    _counting(monkeypatch, counts, "settle_slot")
    report = SimEngine(sc).run()
    # slot 0, then one slot per 0.1 s epoch segment: 4,000 slots in all
    assert counts["settle_slot"] == 21
    assert report.deadline_misses == []


def _grid(horizon_s: float, slot_s: float) -> np.ndarray:
    return np.arange(0, round(horizon_s * US), round(slot_s * US), dtype=np.int64) / US


@pytest.mark.parametrize(
    "profile",
    [
        parse_scenario((ROOT / "scenarios" / "poc.scenario").read_text()).cells[0].profile,
        LoadProfile(ProfileKind.DIURNAL_SINUSOID, minimum=0.2, maximum=0.9, period_s=20.0),
    ],
    ids=["poc", "cluster"],
)
def test_vector_diurnal_equals_scalar_bit_for_bit(profile):
    """np.sin rounds like math.sin on every slot time of a 600 s horizon."""
    t = _grid(600.0, 0.0005)
    scalar = profile.sampler()
    assert profile.vector_sampler()(t).tolist() == [scalar(x) for x in t.tolist()]


def test_engine_demand_vector_equals_scalar():
    """Both demand evaluators of every server agree on a mixed-profile fleet."""
    for seed in range(20):
        sc = random_scenario(1000 + seed)
        demand = build_demand(sc)
        t = _grid(sc.horizon_s, sc.slot_s)
        for scalar, row in zip(demand.scalar, demand.vector(t).tolist()):
            assert row == [scalar(x) for x in t.tolist()], seed
