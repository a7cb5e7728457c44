"""ranshare benchmark: seeded workloads timed end to end, one child process per run.

    python3 perfbench/run.py --workload poc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --ladder --seed 1

A benchmark run starts fresh child processes (``child.py``) one at a time,
each doing one ``parse_scenario -> SimEngine -> run -> write_report`` pass,
until ``--seconds`` have passed. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
children and reports the per-layer metrics of the traced ones. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--ladder`` instead prints the non-gated scale
ladder as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# every benchmark run must exit within 180 s; children share this budget
BUDGET_S = 170.0
SETUP_REPS = 4  # extra parse+construct passes per untraced child
# a ladder case that runs longer is recorded as "timeout", never shrunk
CASE_TIMEOUT_S = 120.0

# On a shared machine host speed drifts by up to 2x, in bursts of seconds
# and in spells of minutes; no statistic inside a 30 s run removes a spell.
# Each child therefore times a fixed reference loop (child.reference_s)
# before and after its pass, and its times are scaled by
# (REFERENCE_S / the mean of the two) ** REFERENCE_EXPONENT: they read as
# host seconds at the speed where that loop takes REFERENCE_S, its time on
# the 2-vCPU Xeon VM the benchmark was tuned on. The exponent is below 1
# because the simulator slows a little less than the loop: over sets of ten
# 25 s or 30 s runs per workload, 0.9 gave a smaller spread of run medians than 1.0
# in 13 of 18 (workload, set) pairs (perfbench/README.md). Raw host times
# are printed beside them and kept in --out.
REFERENCE_S = 0.004
REFERENCE_EXPONENT = 0.9

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "realtime_x": "x",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{
        f"{name}.{key}": unit
        for _, _, name in TARGETS
        for key, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
    },
    "scenario.write_report.bytes": "B",
    "engine.slots": "count",
    "engine.ns_per_slot": "ns",
    "engine.trace_rows": "count",
    "engine.events": "count",
    "engine.bytes_per_trace_row": "B",
    "orchestrator.settle_slot.ns_per_call": "ns",
    "orchestrator.plan_placement.ms_per_call": "ms",
    "orchestrator.plan_placement.jobs_offered": "count",
    "orchestrator.plan_placement.jobs_placed": "count",
    "orchestrator.plan_placement.place_ratio": "ratio",
    "workload.jobs_generated": "count",
    "trace.overhead_s": "s",
}


def run_child(workload: str, seed: int, trace: bool, setup_reps: int, timeout: float,
              check: bool, case: str | None = None) -> dict:
    """One child run; ``status`` is ok, raised, timeout or check."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--setup-reps", str(setup_reps),
           "--check", str(int(check))]
    if case:
        cmd += ["--case", case]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "trace": trace, "timeout_s": timeout}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"status": "raised", "trace": trace, "error": tail}
    rec = json.loads(lines[-1])
    rec["trace"] = trace
    rec["checked"] = check
    rec["status"] = "check" if rec["problems"] else "ok"
    return rec


def mark_outputs(records: list[dict]) -> dict | None:
    """Hold every run to the one checked run: same report bytes, same verdict.

    Returns the checked run's fingerprint.
    """
    ref = next((r for r in records if r.get("checked")), None)
    if ref is None:
        return None
    for r in records:
        if r is ref or r["status"] != "ok":
            continue
        if r["fingerprint"]["sha256"] != ref["fingerprint"]["sha256"]:
            r["status"] = "fingerprint"
        elif ref["status"] == "check":
            r["status"] = "check"
    return ref["fingerprint"]


def speed_scale(rec: dict) -> float:
    """Factor that takes a child's host times to the reference speed."""
    return (REFERENCE_S / statistics.mean(rec["reference_s"])) ** REFERENCE_EXPONENT


def end_to_end(runs: list[dict], scaled: bool) -> dict:
    """Each end-to-end metric over ``runs``, at reference speed or raw."""
    k = [speed_scale(r) if scaled else 1.0 for r in runs]
    return {
        "wall_s": describe([r["wall_s"] * ki for r, ki in zip(runs, k)]),
        "setup_s": describe([s * ki for r, ki in zip(runs, k) for s in r["setup_s"]]),
        "realtime_x": describe([r["sim_s"] / (r["run_s"] * ki) for r, ki in zip(runs, k)]),
        "peak_rss_mb": describe([r["peak_rss_mb"] for r in runs]),
    }


def describe(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {"nproc": os.cpu_count(), "commit": commit, "src_lines": src_lines}


def bench(args) -> int:
    start = time.perf_counter()
    records: list[dict] = []
    while True:
        trace_this = bool(args.trace) and len(records) % 2 == 1
        reps = 0 if args.trace else SETUP_REPS
        timeout = BUDGET_S - (time.perf_counter() - start)
        check = not any(r.get("checked") for r in records)
        records.append(run_child(args.workload, args.seed, trace_this, reps, timeout, check))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(records) >= 1 + args.trace:
            break
    fingerprint = mark_outputs(records)
    ok = [r for r in records if r["status"] == "ok"]
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    failed = len(records) - len(ok)

    summary = end_to_end(plain, scaled=True) if plain else {}
    raw = end_to_end(plain, scaled=False) if plain else {}
    layers = {}
    if traced:
        for key in PER_LAYER:
            vals = [r["layers"][key] for r in traced if key in r["layers"]]
            if vals:
                layers[key] = statistics.median(vals)
        if plain:
            layers["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced) - raw["wall_s"]["median"]
            )

    env = environment()
    if ok:
        env.update(python=ok[0]["python"], numpy=ok[0]["numpy"])
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if fingerprint:
        print("fingerprint " + " ".join(f"{k}={v}" for k, v in fingerprint.items()))
    statuses = Counter(r["status"] for r in records)
    print(f"runs attempted={len(records)} failed={failed} "
          f"fail_ratio={failed / len(records):.4f} " + " ".join(
              f"{k}={v}" for k, v in sorted(statuses.items())))
    for r in records:
        if r["status"] != "ok":
            print(f"failed run: {r['status']} {r.get('error') or r.get('problems') or ''}")
    for name, d in summary.items():
        print(f"{name:<12} median {d['median']:.6g} q1 {d['q1']:.6g} q3 {d['q3']:.6g} "
              f"n={d['n']} {END_TO_END[name]} (raw host median {raw[name]['median']:.6g})")
    for key, value in layers.items():
        print(f"{key:<45} {value:.6g} {PER_LAYER[key]}")

    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "env": env, "fingerprint": fingerprint, "end_to_end": summary, "raw_host": raw,
            "per_layer": layers, "runs": records,
        }, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        if not traced or set(layers) != set(PER_LAYER):
            print("error: no complete traced run", file=sys.stderr)
            return 1
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        if not plain:
            print("error: no successful run", file=sys.stderr)
            return 1
        metrics = {k: {"value": summary[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def ladder(args) -> int:
    cases = []
    for servers, gpus, rate in workloads.LADDER_CASES:
        for horizon in workloads.LADDER_HORIZONS:
            label = f"{servers}x{gpus}@{rate:g}/{horizon:g}s"
            rec = run_child("ladder", args.seed, True, 0, CASE_TIMEOUT_S, True,
                            case=f"{servers},{gpus},{rate},{horizon}")
            row = {"case": label, "status": rec["status"]}
            if rec["status"] == "timeout":
                row["wall_s"] = "timeout"
            elif "layers" in rec:
                lay = rec["layers"]
                row.update(
                    wall_s=rec["wall_s"], run_s=rec["run_s"], realtime_x=horizon / rec["run_s"],
                    peak_rss_mb=rec["peak_rss_mb"],
                    plan_placement_calls=lay["orchestrator.plan_placement.calls"],
                    plan_placement_s=lay["orchestrator.plan_placement.s"],
                    plan_placement_ms_per_call=lay["orchestrator.plan_placement.ms_per_call"],
                    problems=rec["problems"],
                )
            else:
                row["error"] = rec.get("error")
            print(json.dumps(row), flush=True)
            cases.append(row)
    report = {"ladder": cases, "seed": args.seed, "case_timeout_s": CASE_TIMEOUT_S,
              "env": environment()}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full results as JSON to this file")
    p.add_argument("--ladder", action="store_true", help="run the non-gated scale ladder")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ranshare" / "__init__.py").is_file():
        print(f"error: no ranshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.ladder:
        return ladder(args)
    if args.workload is None:
        p.error("--workload is required unless --ladder is given")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
