"""Seeded scenario builders for the benchmark workloads and the scale ladder.

A builder returns the text of a ``.scenario`` document, which is all the
program receives. The seed enters the text as ``sim.seed`` and, for the
gated cluster workloads, as the job arrival times.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

_SEED_RE = re.compile(r"^(\s+seed:\s*)\d+\s*$", re.MULTILINE)


def shipped(root: Path, name: str, seed: int) -> str:
    """A shipped scenario with its ``sim.seed`` replaced by ``seed``."""
    text = (root / "scenarios" / f"{name}.scenario").read_text(encoding="utf-8")
    text, n = _SEED_RE.subn(lambda m: f"{m.group(1)}{seed}", text)
    if n != 1:
        raise ValueError(f"scenarios/{name}.scenario: expected one sim.seed line, found {n}")
    return text


def cluster(
    servers: int,
    gpus: int,
    rate_per_s: float,
    horizon_s: float,
    seed: int,
    fixed_count: bool = False,
    backlog: bool = False,
) -> str:
    """The scale-ladder fleet: ``servers`` x ``gpus`` under dynamic backfill.

    Two 40 MHz 4T4R cells per server on one diurnal profile (0.2 to 0.9,
    20 s period), batch jobs with exponential size (mean 0.5 s) and demand
    uniform in (0.1, 0.5), 0.1 s epochs with a 0.05 margin.

    By default jobs arrive as the program's own Poisson process, so the job
    count varies with the seed. ``fixed_count`` instead writes
    ``rate_per_s * horizon_s`` arrival times drawn uniformly from the seed:
    a Poisson process conditioned on its count, which removes the count's
    variance from the run's cost. ``backlog`` adds one saturating job per
    GPU, which holds the fleet so that every later job queues.
    """
    lines = [
        "topology:",
        "  compute_spines: 2",
        "  compute_leaves: 4",
        "  converged_spines: 2",
        "  converged_leaves: 4",
        "  link_capacity_gbps: 100.0",
        "servers:",
    ]
    for s in range(servers):
        lines += [f"  - id: srv{s:02d}", "    nf_bundle: DU_CU_CN", "    gpus:"]
        lines += [f"      - id: srv{s:02d}-gpu{g}" for g in range(gpus)]
    lines.append("cells:")
    for s in range(servers):
        for c in "ab":
            lines += [
                f"  - id: cell{s:02d}{c}",
                f"    server: srv{s:02d}",
                "    bandwidth_mhz: 40.0",
                "    scs_khz: 30",
                "    tx_antennas: 4",
                "    rx_antennas: 4",
                "    profile: diurnal",
            ]
    lines += [
        "profiles:",
        "  - {id: diurnal, kind: diurnal, min: 0.2, max: 0.9, period_s: 20.0, phase: 0.0}",
        "ai_workloads:",
    ]
    if backlog:
        lines += [
            f"  - {{id: backlog{i:03d}, arrival: saturating,"
            " demand_fraction: {kind: constant, value: 1.0}}"
            for i in range(servers * gpus)
        ]
    lines.append("  - id: jobs")
    if fixed_count:
        rng = random.Random(seed)
        count = round(rate_per_s * horizon_s)
        times = sorted(round(rng.random() * horizon_s, 6) for _ in range(count))
        lines += ["    arrival: trace", f"    arrivals: [{', '.join(map(repr, times))}]"]
    else:
        lines += ["    arrival: poisson", f"    rate_per_s: {float(rate_per_s)!r}"]
    lines += [
        "    job_size: {kind: exponential, mean: 0.5}",
        "    demand_fraction: {kind: uniform, low: 0.1, high: 0.5}",
        "    slo_class: batch",
        "policy:",
        "  kind: dynamic_backfill",
        "  epoch_s: 0.1",
        "  safety_margin: 0.05",
        "  forecast: {kind: max_over_window, window_s: 0.2}",
        "sim:",
        f"  horizon_s: {float(horizon_s)!r}",
        f"  seed: {int(seed)}",
        "  sample_interval_s: 0.01",
    ]
    return "\n".join(lines) + "\n"


# name -> (builder(root, seed) -> scenario text, report format)
WORKLOADS = {
    "uplift": (lambda root, seed: shipped(root, "uplift", seed), "summary"),
    "poc": (lambda root, seed: shipped(root, "poc", seed), "records"),
    "cluster_diurnal": (
        lambda root, seed: cluster(16, 4, 40.0, 10.0, seed, fixed_count=True),
        "records",
    ),
    "cluster_overload": (
        lambda root, seed: cluster(16, 4, 400.0, 0.25, seed, fixed_count=True, backlog=True),
        "records",
    ),
}

# (servers, gpus, jobs/s) x horizons of the ROADMAP baseline ladder
LADDER_CASES = ((1, 1, 2.0), (4, 2, 10.0), (16, 4, 40.0), (16, 4, 400.0))
LADDER_HORIZONS = (1.0, 2.0, 5.0, 10.0)
