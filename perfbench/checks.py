"""Output checks and fingerprints, computed from the written report text.

Nothing here reads engine state: a report passes or fails on what
``write_report`` produced, so the checks hold across refactors of the
engine that keep its output.
"""

from __future__ import annotations

import hashlib
import math

TOL = 2e-6  # two fields at 6 decimals


class Report:
    """The parts of a RECORDS or SUMMARY report the checks need.

    RECORDS text is read back with the program's own ``parse_records``;
    SUMMARY text, which has no reader in the program, is parsed here.
    """

    def __init__(self, text: str, fmt: str):
        self.text = text
        self.fmt = fmt
        self.jobs: dict[str, float] = {}
        self.misses = 0
        self.fabric = 0
        self.samples: dict[str, list[tuple[float, float]]] = {}  # gpu -> [(ran, ai)]
        self.events: dict[str, set[str]] = {}  # event kind -> subjects
        self.gpu_avgs: dict[str, tuple[float, float, float, float]] = {}
        if fmt == "records":
            self._read_records()
        else:
            self._parse_summary()

    def _read_records(self):
        from ranshare import scenario

        rep = scenario.parse_records(self.text)
        js = rep.job_stats
        self.jobs = {
            "completed": js.completed,
            "rejected": js.rejected,
            "queued_at_end": js.queued_at_end,
            "running_at_end": js.running_at_end,
        }
        self.misses = len(rep.deadline_misses)
        self.fabric = len(rep.fabric_violations)
        for rec in rep.trace:
            self.samples.setdefault(rec.gpu_id, []).append((rec.ran_fraction, rec.ai_fraction))
        for ev in rep.events:
            self.events.setdefault(ev.kind, set()).add(ev.subject)
        self.gpu_avgs = {
            gpu: (g.avg_ran, g.avg_ai, g.avg_total, g.peak_total)
            for gpu, g in rep.summary.per_gpu.items()
        }

    def _parse_summary(self):
        for line in self.text.splitlines():
            if line.startswith("gpu "):
                gpu, _, rest = line[len("gpu "):].partition(": ")
                kv = _kv(rest)
                self.gpu_avgs[gpu] = (
                    kv["avg_ran"], kv["avg_ai"], kv["avg_total"], kv["peak_total"]
                )
            elif line.startswith("deadline_misses "):
                self.misses = int(line.split()[1])
            elif line.startswith("ai_jobs "):
                self.jobs = _kv(line[len("ai_jobs "):])
            elif line.startswith("fabric_violations "):
                self.fabric = int(line.split()[1])

    def fingerprint(self) -> dict:
        avgs = list(self.gpu_avgs.values())
        return {
            "sha256": sha256(self.text),
            "misses": self.misses,
            "avg_ran": round(math.fsum(a[0] for a in avgs) / len(avgs), 6) if avgs else 0.0,
            "avg_ai": round(math.fsum(a[1] for a in avgs) / len(avgs), 6) if avgs else 0.0,
            "jobs_completed": int(self.jobs.get("completed", 0)),
            "fabric_violations": self.fabric,
        }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _kv(text: str) -> dict[str, float]:
    out = {}
    for token in text.split():
        key, _, value = token.partition("=")
        out[key] = float(value)
    return out


# -- per-workload expectations -------------------------------------------------------


def _check_capacity(rep: Report) -> list[str]:
    problems = []
    for gpu, rows in rep.samples.items():
        bad = sum(1 for r, a in rows if r < 0.0 or a < 0.0 or r + a > 1.0 + TOL)
        if bad:
            problems.append(f"{gpu}: {bad} samples with ran+ai outside [0, 1]")
    for gpu, (_, _, _, peak) in rep.gpu_avgs.items():
        if peak > 1.0 + TOL:
            problems.append(f"{gpu}: peak_total {peak} > 1")
    return problems


def _check_uplift(rep: Report) -> list[str]:
    problems = []
    if rep.misses:
        problems.append(f"uplift: {rep.misses} deadline misses, expected 0")
    total = rep.gpu_avgs.get("gpu1", (0, 0, 0, 0))[2]
    if abs(total - 0.95) > 0.005:
        problems.append(f"uplift: gpu1 avg_total {total}, expected 0.95 +- 0.005")
    return problems


def _check_poc(rep: Report) -> list[str]:
    problems = []
    gpu1, gpu2 = rep.samples.get("gpu1", []), rep.samples.get("gpu2", [])
    if not gpu1 or not gpu2:
        return ["poc: samples missing for gpu1 or gpu2"]
    peak_ran = max(r for r, _ in gpu1)
    if abs(peak_ran - 0.40) > 1e-9:
        problems.append(f"poc: gpu1 RAN peak {peak_ran}, expected 0.40")
    busy = sum(1 for r, a in gpu2 if r != 0.0 or a != 0.0)
    if busy:
        problems.append(f"poc: gpu2 busy in {busy} samples, expected idle")
    return problems


def _check_jobs(rep: Report, jobs_generated: int) -> list[str]:
    """Every generated job ends completed, queued, running or rejected."""
    j = rep.jobs
    accounted = int(
        j.get("completed", 0) + j.get("queued_at_end", 0)
        + j.get("running_at_end", 0) + j.get("rejected", 0)
    )
    problems = []
    if accounted != jobs_generated:
        problems.append(
            f"jobs: completed+queued+running+rejected={accounted}, generated={jobs_generated}"
        )
    if rep.fmt == "records":
        arrived = len(rep.events.get("arrival", set()) | rep.events.get("reject", set()))
        if arrived != jobs_generated:
            problems.append(f"jobs: {arrived} arrival events, generated={jobs_generated}")
    return problems


EXPECT = {"uplift": _check_uplift, "poc": _check_poc}


def check(workload: str, rep: Report, jobs_generated: int) -> list[str]:
    """Problems with a report; an empty list means it passed."""
    problems = _check_capacity(rep) + _check_jobs(rep, jobs_generated)
    if workload in EXPECT:
        problems += EXPECT[workload](rep)
    return problems
