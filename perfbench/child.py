"""One run of one workload in a fresh interpreter; prints one JSON line.

The timed region follows ``ranshare run``: ``parse_scenario`` ->
``SimEngine(...)`` -> ``SimEngine.run`` -> ``write_report``. Interpreter
start-up and imports are outside it, and so are the output checks. A fixed
reference loop is timed just before and just after the pass, so that the
parent can take its times to a reference speed. With ``--trace 1`` the
public functions listed in ``tracer.TARGETS`` are wrapped for the pass and
their per-layer numbers are added to the result.

    python3 perfbench/child.py --workload poc --seed 1 --trace 0 --setup-reps 4 --check 1
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _rss_bytes() -> int:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _Level:
    __slots__ = ("ran", "ai", "integral", "last")

    def __init__(self):
        self.ran = self.ai = self.integral = 0.0
        self.last = 0


def reference_s(reps: int = 15) -> float:
    """Median time of a fixed pure-Python loop shaped like a slot loop.

    It calls a demand closure, updates attributes of a few state objects,
    keeps a small heap and appends tuples to a growing list. It never
    changes, so its time measures how fast this machine runs Python now.
    """
    sin = math.sin

    def demand(t, lo=0.2, amp=0.7, w=2 * math.pi / 20.0):
        return lo + amp * (1.0 + sin(w * t)) * 0.5

    times = []
    for _ in range(reps):
        gpus = [_Level() for _ in range(4)]
        rows: list[tuple] = []
        heap: list[tuple] = []
        t0 = time.perf_counter()
        for slot in range(4000):
            rem = demand(slot * 0.0005)
            for g in gpus:
                take = rem if rem < 0.25 else 0.25
                rem -= take
                if take != g.ran:
                    g.integral += g.ran * (slot - g.last)
                    g.last = slot
                    g.ran = take
                g.ai = 1.0 - take if take < 0.95 else 0.0
            if slot % 20 == 0:
                rows.extend((slot, i, g.ran, g.ai, "") for i, g in enumerate(gpus))
                heapq.heappush(heap, (slot + 97, len(rows)))
            if heap and heap[0][0] <= slot:
                heapq.heappop(heap)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _scenario_text(args) -> tuple[str, str]:
    import workloads

    if args.case:
        servers, gpus, rate, horizon = args.case.split(",")
        text = workloads.cluster(int(servers), int(gpus), float(rate), float(horizon), args.seed)
        return text, "records"
    build, fmt = workloads.WORKLOADS[args.workload]
    return build(ROOT, args.seed), fmt


def _layer_metrics(tracer, scen, report, out: str, rss_growth: int) -> dict:
    m = tracer.metrics()
    slots = math.ceil(round(scen.horizon_s * 1e6) / round(scen.slot_s * 1e6))
    rows = len(getattr(report, "trace", ()))
    settle_calls = m["orchestrator.settle_slot.calls"]
    plan_calls = m["orchestrator.plan_placement.calls"]
    offered = m["orchestrator.plan_placement.jobs_offered"]
    m.update({
        "scenario.write_report.bytes": len(out.encode("utf-8")),
        "engine.slots": slots,
        "engine.ns_per_slot": m["engine.run.self_s"] * 1e9 / slots,
        "engine.trace_rows": rows,
        "engine.events": len(getattr(report, "events", ())),
        "engine.bytes_per_trace_row": rss_growth / rows if rows else 0.0,
        "orchestrator.settle_slot.ns_per_call": (
            m["orchestrator.settle_slot.s"] * 1e9 / settle_calls if settle_calls else 0.0
        ),
        "orchestrator.plan_placement.ms_per_call": (
            m["orchestrator.plan_placement.s"] * 1e3 / plan_calls if plan_calls else 0.0
        ),
        "orchestrator.plan_placement.place_ratio": (
            m["orchestrator.plan_placement.jobs_placed"] / offered if offered else 0.0
        ),
    })
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-reps", type=int, default=0,
                   help="extra parse+construct repetitions timed after the run")
    p.add_argument("--check", type=int, choices=(0, 1), default=1,
                   help="1: check the report and fingerprint it; 0: only hash it")
    p.add_argument("--case", help="ladder case servers,gpus,jobs_per_s,horizon_s")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import ranshare
    from ranshare import engine, scenario

    if Path(ranshare.__file__).resolve().parent != SRC / "ranshare":
        raise SystemExit(f"ranshare imported from {ranshare.__file__}, not {SRC}")
    import checks
    from tracer import Tracer

    text, fmt = _scenario_text(args)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    gc.collect()
    ref0 = reference_s()

    t0 = time.perf_counter()
    scen = scenario.parse_scenario(text, name=args.workload)
    eng = engine.SimEngine(scen)
    t1 = time.perf_counter()
    rss0 = _rss_bytes()
    report = eng.run()
    t2 = time.perf_counter()
    rss1 = _rss_bytes()
    out = scenario.write_report(report, fmt)
    t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer.uninstall()
    ref1 = reference_s()
    result = {
        "reference_s": [ref0, ref1],
        "wall_s": t3 - t0,
        "setup_s": [t1 - t0],
        "run_s": t2 - t1,
        "write_s": t3 - t2,
        "sim_s": scen.horizon_s,
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        result["layers"] = _layer_metrics(tracer, scen, report, out, rss1 - rss0)

    del eng, report
    gc.collect()
    for _ in range(args.setup_reps):
        s0 = time.perf_counter()
        engine.SimEngine(scenario.parse_scenario(text, name=args.workload))
        result["setup_s"].append(time.perf_counter() - s0)

    # the parent checks one child's report and requires the others to be
    # byte-identical to it, so they only hash theirs
    if args.check:
        generated = sum(
            len(ranshare.gen_ai_arrivals(w, ranshare.mix_seed(scen.seed, i), scen.horizon_s))
            for i, w in enumerate(scen.ai_workloads)
        )
        rep = checks.Report(out, fmt)
        result["problems"] = checks.check(args.workload, rep, generated)
        result["fingerprint"] = rep.fingerprint()
    else:
        result["problems"] = []
        result["fingerprint"] = {"sha256": checks.sha256(out)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
