import math
import random

import numpy as np
import pytest

from ranshare.compute import GpuDevice, Server
from ranshare.engine import CellSpec, Scenario, build_demand
from ranshare.errors import CalibrationOverflow, EmptyTrace, UnsupportedNumerology
from ranshare.orchestrator import Policy, PolicyKind
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
    gen_ai_arrivals,
    ran_peak_fraction,
    slot_duration,
    uniform,
)

POC_CELL = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=4, rx_antennas=4)


def load_at(profile: LoadProfile, t: float) -> float:
    """The profile's load at ``t``, from ``vector_sampler()``."""
    return profile.vector_sampler()(np.array([t])).item()


class TestSlotDuration:
    @pytest.mark.parametrize(
        "scs,expected", [(15, 1.0e-3), (30, 0.5e-3), (60, 0.25e-3), (120, 0.125e-3)]
    )
    def test_supported(self, scs, expected):
        assert slot_duration(scs) == expected

    def test_unsupported(self):
        with pytest.raises(UnsupportedNumerology):
            slot_duration(45)

    def test_scaling_identity(self):
        for scs in (15, 30, 60, 120):
            assert slot_duration(scs) * (scs // 15) == 1e-3


class TestPeakFraction:
    def test_reference_cell_hits_anchor(self):
        assert ran_peak_fraction(POC_CELL, Calibration()) == 0.40

    def test_linear_bandwidth_scaling(self):
        cell = CellConfig(bandwidth_mhz=50.0, scs_khz=30, tx_antennas=4, rx_antennas=4)
        assert ran_peak_fraction(cell, Calibration()) == pytest.approx(0.20, abs=1e-12)

    def test_linear_antenna_scaling(self):
        cell = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=2, rx_antennas=2)
        assert ran_peak_fraction(cell, Calibration()) == pytest.approx(0.20, abs=1e-12)

    def test_min_antenna_side_counts(self):
        cell = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=8, rx_antennas=2)
        assert ran_peak_fraction(cell, Calibration()) == pytest.approx(0.20, abs=1e-12)

    def test_overflow(self):
        cell = CellConfig(bandwidth_mhz=400.0, scs_khz=30, tx_antennas=4, rx_antennas=4)
        with pytest.raises(CalibrationOverflow):
            ran_peak_fraction(cell, Calibration())


class TestDemand:
    """The engine's per-server demand: calibrated peaks times loads, floored."""

    def _demand(self, profiles, calib=Calibration()):
        """Demand at ``t`` of one server carrying one POC cell per profile."""
        sc = Scenario(
            name="demand",
            servers=(Server(id="srv1", gpus=(GpuDevice("gpu1"),)),),
            cells=tuple(
                CellSpec(f"cell{i}", POC_CELL, p, "srv1") for i, p in enumerate(profiles)
            ),
            calibration=calib,
            ai_workloads=(),
            policy=Policy(kind=PolicyKind.STATIC_SPLIT, ran_fraction=0.4, ai_fraction=0.6),
        )
        demand = build_demand(sc)

        return lambda t: demand.vector(np.array([t])).item()

    def test_single_cell_full_load(self):
        at = self._demand([LoadProfile(kind=ProfileKind.CONSTANT, level=1.0)])
        assert at(0.0) == 0.40

    def test_zero_load_zero_floor(self):
        at = self._demand([LoadProfile(kind=ProfileKind.CONSTANT, level=0.0)])
        assert at(12.0) == 0.0

    def test_two_half_loaded_cells(self):
        prof = LoadProfile(kind=ProfileKind.CONSTANT, level=0.5)
        at = self._demand([prof, prof])
        assert at(0.0) == pytest.approx(0.40, abs=1e-12)

    def test_idle_floor(self):
        at = self._demand(
            [LoadProfile(kind=ProfileKind.CONSTANT, level=0.0)],
            Calibration(idle_floor_fraction=0.05),
        )
        assert at(0.0) == 0.05

    def test_monotone_in_load(self):
        calib = Calibration()
        rng = random.Random(3)
        for _ in range(100):
            lo = rng.uniform(0, 1)
            hi = rng.uniform(lo, 1)
            at_lo = self._demand([LoadProfile(kind=ProfileKind.CONSTANT, level=lo)], calib)
            at_hi = self._demand([LoadProfile(kind=ProfileKind.CONSTANT, level=hi)], calib)
            assert at_hi(0.0) >= at_lo(0.0)


class TestSampleLoad:
    def test_constant(self):
        prof = LoadProfile(kind=ProfileKind.CONSTANT, level=0.35)
        for t in (0.0, 1.0, 1e6):
            assert load_at(prof, t) == 0.35

    def test_diurnal_peak_closed_form(self):
        prof = LoadProfile(
            kind=ProfileKind.DIURNAL_SINUSOID, minimum=0.2, maximum=1.0, period_s=100.0
        )
        assert load_at(prof, 25.0) == pytest.approx(1.0, abs=1e-12)
        assert load_at(prof, 75.0) == pytest.approx(0.2, abs=1e-12)

    def test_trace_step_interpolation(self):
        prof = LoadProfile(kind=ProfileKind.TRACE, points=((0.0, 0.1), (10.0, 0.9)))
        assert load_at(prof, 5.0) == 0.1
        assert load_at(prof, 10.0) == 0.9
        assert load_at(prof, 11.0) == 0.9

    def test_empty_trace(self):
        """A trace profile without points is rejected when it is made."""
        with pytest.raises(EmptyTrace):
            LoadProfile(kind=ProfileKind.TRACE, points=())
        LoadProfile(kind=ProfileKind.CONSTANT, level=0.5, points=())  # other kinds ignore it

    def test_output_in_unit_interval(self):
        rng = random.Random(17)
        for _ in range(200):
            kind = rng.choice(list(ProfileKind))
            if kind is ProfileKind.CONSTANT:
                prof = LoadProfile(kind=kind, level=rng.uniform(0, 1))
            elif kind is ProfileKind.DIURNAL_SINUSOID:
                lo = rng.uniform(0, 1)
                prof = LoadProfile(
                    kind=kind,
                    minimum=lo,
                    maximum=rng.uniform(lo, 1),
                    period_s=rng.uniform(0.1, 1000),
                    phase=rng.uniform(-10, 10),
                )
            else:
                times = sorted(rng.uniform(0, 100) for _ in range(rng.randint(1, 5)))
                prof = LoadProfile(
                    kind=kind,
                    points=tuple((t, rng.uniform(0, 1)) for t in times),
                )
            for _ in range(20):
                v = load_at(prof, rng.uniform(0, 200))
                assert 0.0 <= v <= 1.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LoadProfile(kind=ProfileKind.DIURNAL_SINUSOID, minimum=0.8, maximum=0.2)
        with pytest.raises(ValueError):
            LoadProfile(kind=ProfileKind.TRACE, points=((0.0, 0.5), (0.0, 0.6)))
        with pytest.raises(ValueError):
            LoadProfile(kind=ProfileKind.CONSTANT, level=1.5)


class TestArrivals:
    def test_zero_rate_empty(self):
        wl = AiWorkload(id="a", arrival=ArrivalKind.POISSON, rate_per_s=0.0)
        assert gen_ai_arrivals(wl, seed=1, horizon_s=100.0) == []

    def test_trace_echo(self):
        wl = AiWorkload(
            id="a",
            arrival=ArrivalKind.TRACE,
            trace_arrivals=(5.0, 1.0, 3.0),
            job_size=constant(2.0),
        )
        jobs = gen_ai_arrivals(wl, seed=1, horizon_s=100.0)
        assert [j.arrival_time for j in jobs] == [1.0, 3.0, 5.0]
        assert all(j.size_compute_seconds == 2.0 for j in jobs)

    def test_demand_above_one_is_capped(self):
        """Samples above 1 become 1; every other sample, and the stream, stay as drawn."""
        wl = AiWorkload(
            id="a",
            arrival=ArrivalKind.TRACE,
            trace_arrivals=tuple(range(50)),
            demand_fraction=uniform(0.5, 1.5),
        )
        rng = random.Random(9)
        drawn = [rng.uniform(0.5, 1.5) for _ in range(50)]
        demands = [j.demand_fraction for j in gen_ai_arrivals(wl, seed=9, horizon_s=100.0)]
        assert demands == [min(d, 1.0) for d in drawn]
        assert 1.0 in demands and any(d > 1.0 for d in drawn)

    def test_saturating_single_infinite_job(self):
        wl = AiWorkload(id="a", arrival=ArrivalKind.SATURATING)
        jobs = gen_ai_arrivals(wl, seed=1, horizon_s=100.0)
        assert len(jobs) == 1
        assert jobs[0].arrival_time == 0.0
        assert math.isinf(jobs[0].size_compute_seconds)

    def test_deterministic_in_seed(self):
        wl = AiWorkload(
            id="a",
            arrival=ArrivalKind.POISSON,
            rate_per_s=3.0,
            job_size=exponential(2.0),
        )
        a = gen_ai_arrivals(wl, seed=42, horizon_s=50.0)
        b = gen_ai_arrivals(wl, seed=42, horizon_s=50.0)
        c = gen_ai_arrivals(wl, seed=43, horizon_s=50.0)
        assert [repr(j) for j in a] == [repr(j) for j in b]
        assert [j.arrival_time for j in a] != [j.arrival_time for j in c]

    def test_poisson_mean_count(self):
        wl = AiWorkload(id="a", arrival=ArrivalKind.POISSON, rate_per_s=2.0)
        counts = [
            len(gen_ai_arrivals(wl, seed=s, horizon_s=1000.0)) for s in range(100)
        ]
        mean = sum(counts) / len(counts)
        assert 1900 <= mean <= 2100  # lambda*T = 2000, +/- 3.5 sigma band

    def test_poisson_interarrival_mean(self):
        wl = AiWorkload(id="a", arrival=ArrivalKind.POISSON, rate_per_s=4.0)
        jobs = gen_ai_arrivals(wl, seed=7, horizon_s=4000.0)
        assert len(jobs) >= 10_000
        gaps = [
            b.arrival_time - a.arrival_time for a, b in zip(jobs, jobs[1:])
        ]
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 0.25) / 0.25 < 0.05

    def test_interactive_requires_bound(self):
        with pytest.raises(ValueError):
            AiWorkload(id="a", arrival=ArrivalKind.POISSON, slo_class=SloClass.INTERACTIVE)
