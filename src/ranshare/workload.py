"""RAN compute demand from cell configurations, and stochastic AI demand.

RAN demand is a separable power law anchored at a reference cell: the
reference cell at full load consumes the reference peak fraction of one
GPU, and demand scales with bandwidth and with min(tx, rx) antenna count,
each under a configurable exponent (both default to linear).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CalibrationOverflow, EmptyTrace, UnsupportedNumerology

SUPPORTED_SCS_KHZ = (15, 30, 60, 120)
US = 1_000_000  # microseconds per second: the event clock's tick


@dataclass(frozen=True)
class CellConfig:
    bandwidth_mhz: float = 100.0
    scs_khz: int = 30
    tx_antennas: int = 4
    rx_antennas: int = 4

    def __post_init__(self):
        if not self.bandwidth_mhz > 0:
            raise ValueError("bandwidth_mhz must be positive")
        if self.tx_antennas < 1 or self.rx_antennas < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.scs_khz not in SUPPORTED_SCS_KHZ:
            raise UnsupportedNumerology(f"scs_khz {self.scs_khz} not in {SUPPORTED_SCS_KHZ}")


@dataclass(frozen=True)
class Calibration:
    """Anchors the cell-to-GPU demand mapping at a reference cell."""

    reference_cell: CellConfig = CellConfig()
    reference_peak_fraction: float = 0.40
    bandwidth_exponent: float = 1.0
    antenna_exponent: float = 1.0
    idle_floor_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.reference_peak_fraction <= 1.0:
            raise ValueError("reference_peak_fraction must be in (0, 1]")
        if not 0.0 <= self.idle_floor_fraction <= 1.0:
            raise ValueError("idle_floor_fraction must be in [0, 1]")


class ProfileKind(Enum):
    CONSTANT = "constant"
    DIURNAL_SINUSOID = "diurnal"
    TRACE = "trace"


@dataclass(frozen=True)
class LoadProfile:
    """Time-varying cell load in [0, 1].

    CONSTANT uses ``level``; DIURNAL_SINUSOID oscillates between ``minimum``
    and ``maximum`` with the given period and phase; TRACE holds each
    (time, value) point until the next one (step interpolation).
    """

    kind: ProfileKind
    level: float = 0.0
    minimum: float = 0.0
    maximum: float = 1.0
    period_s: float = 86400.0
    phase: float = 0.0
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind is ProfileKind.CONSTANT:
            if not 0.0 <= self.level <= 1.0:
                raise ValueError("constant level must be in [0, 1]")
        elif self.kind is ProfileKind.DIURNAL_SINUSOID:
            if not (0.0 <= self.minimum <= self.maximum <= 1.0):
                raise ValueError("diurnal needs 0 <= min <= max <= 1")
            if not self.period_s > 0:
                raise ValueError("diurnal period must be positive")
        elif self.kind is ProfileKind.TRACE:
            if not self.points:
                raise EmptyTrace("trace profile has no points")
            last = None
            for t, v in self.points:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"trace value {v} outside [0, 1]")
                if last is not None and t <= last:
                    raise ValueError("trace timestamps must be strictly increasing")
                last = t

    @property
    def bound(self) -> float:
        """An upper bound on every load ``vector_sampler`` returns.

        A constant returns its level and a trace one of its values. A
        diurnal load is clipped to 1.0, and of ``np.sin`` the bound assumes
        no more than that it is finite at a finite time: so with ``minimum
        == maximum`` the load is ``minimum + 0.0``, and otherwise only the
        clip bounds it.
        """
        if self.kind is ProfileKind.CONSTANT:
            return self.level
        if self.kind is ProfileKind.DIURNAL_SINUSOID:
            return self.minimum if self.maximum == self.minimum else 1.0
        return max(v for _t, v in self.points)

    def vector_sampler(self):
        """Compile this profile into a ``times -> loads`` callable on float64 arrays.

        Each element depends on its own time alone, so a time gives the same
        load, bit for bit, however the times around it are batched. Every
        load is at most ``bound``.
        """
        if self.kind is ProfileKind.CONSTANT:
            level = self.level
            return lambda t: np.full(t.shape, level)
        if self.kind is ProfileKind.DIURNAL_SINUSOID:
            lo, amp = self.minimum, self.maximum - self.minimum
            w, ph = 2.0 * math.pi / self.period_s, self.phase

            def diurnal(t):
                v = lo + amp * (1.0 + np.sin(w * t + ph)) * 0.5
                return np.where(v < 0.0, 0.0, np.where(v > 1.0, 1.0, v))

            return diurnal
        times, values = (np.array(a) for a in zip(*self.points))

        def step(t):
            i = np.searchsorted(times, t, side="right") - 1
            return values[np.where(i < 0, 0, i)]

        return step


def slot_duration(scs_khz: int) -> float:
    """5G slot length in seconds: 1 ms divided by (SCS / 15 kHz)."""
    if scs_khz not in SUPPORTED_SCS_KHZ:
        raise UnsupportedNumerology(f"scs_khz {scs_khz} not in {SUPPORTED_SCS_KHZ}")
    return 1e-3 / (scs_khz // 15)


def ran_peak_fraction(cell: CellConfig, calib: Calibration) -> float:
    """GPU fraction this cell needs at full load.

    Raises CalibrationOverflow when the scaled peak exceeds one GPU: a
    single cell cannot straddle devices in this model.
    """
    ref = calib.reference_cell
    bw_ratio = cell.bandwidth_mhz / ref.bandwidth_mhz
    ant_ratio = min(cell.tx_antennas, cell.rx_antennas) / min(
        ref.tx_antennas, ref.rx_antennas
    )
    peak = (
        calib.reference_peak_fraction
        * bw_ratio**calib.bandwidth_exponent
        * ant_ratio**calib.antenna_exponent
    )
    if peak > 1.0 + 1e-9:
        raise CalibrationOverflow(f"cell peak {peak:.4f} exceeds one GPU")
    return min(peak, 1.0)


# -- AI side ---------------------------------------------------------------


class ArrivalKind(Enum):
    POISSON = "poisson"
    TRACE = "trace"
    SATURATING = "saturating"


class SloClass(Enum):
    INTERACTIVE = "interactive"
    BATCH = "batch"


class JobState(Enum):
    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    PREEMPTED = "PREEMPTED"
    DONE = "DONE"
    REJECTED = "REJECTED"


@dataclass(frozen=True)
class Distribution:
    """Constant or exponential scalar distribution."""

    kind: str  # "constant" | "exponential" | "uniform"
    value: float = 0.0
    mean: float = 0.0
    low: float = 0.0
    high: float = 0.0

    def __post_init__(self):
        if self.kind == "exponential" and not self.mean > 0:
            raise ValueError("exponential mean must be positive")
        if self.kind == "uniform" and not self.low <= self.high:
            raise ValueError("uniform low must not exceed high")

    @property
    def support(self) -> tuple[float, float]:
        """Bounds that hold every value ``sample`` can return."""
        if self.kind == "constant":
            return self.value, self.value
        if self.kind == "uniform":
            return self.low, self.high
        return 0.0, math.inf

    def sample(self, rng: random.Random) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "exponential":
            return rng.expovariate(1.0 / self.mean)
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high)
        raise ValueError(f"unknown distribution kind {self.kind!r}")


def constant(value: float) -> Distribution:
    return Distribution(kind="constant", value=value)


def exponential(mean: float) -> Distribution:
    return Distribution(kind="exponential", mean=mean)


def uniform(low: float, high: float) -> Distribution:
    return Distribution(kind="uniform", low=low, high=high)


@dataclass(frozen=True)
class AiWorkload:
    """Inference demand: an arrival process plus per-job size and SLO."""

    id: str = "ai"
    arrival: ArrivalKind = ArrivalKind.SATURATING
    rate_per_s: float = 0.0
    trace_arrivals: tuple[float, ...] = ()
    job_size: Distribution = constant(1.0)  # compute-seconds
    demand_fraction: Distribution = constant(1.0)  # max GPU fraction a job can use
    slo_class: SloClass = SloClass.BATCH
    latency_bound_s: float = 0.0

    def __post_init__(self):
        # NaN fails both tests; at a NaN or inf rate gen_ai_arrivals would never return
        if not 0 <= self.rate_per_s < math.inf:
            raise ValueError(f"rate must be >= 0 and finite, not {self.rate_per_s}")
        if not all(0 <= t < math.inf for t in self.trace_arrivals):
            raise ValueError("trace arrivals must be >= 0 and finite")
        if self.slo_class is SloClass.INTERACTIVE and not self.latency_bound_s > 0:
            raise ValueError("interactive workloads need a positive latency bound")
        # a workload with no demand in (0, 1] or no positive size is a
        # mistake: AiJob rejects a demand or size of 0 or less, and
        # gen_ai_arrivals would cap every demand, all above 1, at 1
        lo, hi = self.demand_fraction.support
        if hi <= 0.0 or lo > 1.0:
            raise ValueError("demand_fraction has no value in (0, 1]")
        if self.job_size.support[1] <= 0.0:
            raise ValueError("job_size has no positive value")


@dataclass
class AiJob:
    """One inference job tracked through the simulation.

    Fields below the marker comment are scheduling state owned by the
    engine/orchestrator while the job is in flight.
    """

    id: str
    arrival_time: float
    size_compute_seconds: float  # math.inf for saturating backlog
    demand_fraction: float
    slo_class: SloClass = SloClass.BATCH
    latency_bound_s: float = 0.0
    state: JobState = JobState.QUEUED
    remaining_compute_seconds: float = field(default=0.0)
    first_start_time: float | None = None
    completion_time: float | None = None
    preempt_count: int = 0
    # -- scheduling state --
    granted_fraction: float = 0.0  # policy-level grant
    service_rate: float = 0.0  # effective rate (may be throttled below grant)
    gpu_id: str | None = None  # it runs in that GPU's AI slice
    accrued_until_us: int = 0
    version: int = 0  # bumped on every rate change; stale completions check it

    def __post_init__(self):
        if not self.size_compute_seconds > 0:  # inf is a saturating backlog
            raise ValueError("job size must be positive")
        if not 0.0 < self.demand_fraction <= 1.0:
            raise ValueError("demand_fraction must be in (0, 1]")
        if self.remaining_compute_seconds == 0.0:
            self.remaining_compute_seconds = self.size_compute_seconds

    @property
    def required_rate(self) -> float:
        """Minimum service rate an INTERACTIVE job needs to meet its bound."""
        if self.slo_class is SloClass.INTERACTIVE:
            return self.size_compute_seconds / self.latency_bound_s
        return 0.0


def gen_ai_arrivals(workload: AiWorkload, seed: int, horizon_s: float) -> list[AiJob]:
    """Materialize the workload's job list for one run; deterministic in seed.

    A sampled demand fraction above 1 is capped at 1, the whole GPU. Only
    jobs the run dispatches are made: a trace arrival whose microsecond
    time is past the horizon's is dropped.
    """
    if not 0 < horizon_s < math.inf:  # NaN fails both tests
        raise ValueError(f"horizon must be positive and finite, not {horizon_s}")
    rng = random.Random(seed)
    jobs: list[AiJob] = []

    def demand() -> float:
        # a job can use no more than the one GPU it runs on
        return min(workload.demand_fraction.sample(rng), 1.0)

    def make(i: int, t: float) -> AiJob:
        return AiJob(
            id=f"{workload.id}-{i}",
            arrival_time=t,
            size_compute_seconds=workload.job_size.sample(rng),
            demand_fraction=demand(),
            slo_class=workload.slo_class,
            latency_bound_s=workload.latency_bound_s,
        )

    if workload.arrival is ArrivalKind.SATURATING:
        return [
            AiJob(
                id=f"{workload.id}-0",
                arrival_time=0.0,
                size_compute_seconds=math.inf,
                demand_fraction=demand(),
                slo_class=workload.slo_class,
                latency_bound_s=workload.latency_bound_s,
            )
        ]
    if workload.arrival is ArrivalKind.TRACE:
        horizon_us = round(horizon_s * US)
        times = [t for t in sorted(workload.trace_arrivals) if round(t * US) <= horizon_us]
        return [make(i, t) for i, t in enumerate(times)]
    if workload.rate_per_s == 0.0:
        return []
    t = 0.0
    i = 0
    while True:
        t += rng.expovariate(workload.rate_per_s)
        if t >= horizon_s:
            break
        jobs.append(make(i, t))
        i += 1
    return jobs
