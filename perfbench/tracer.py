"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each public function in ``TARGETS`` with a
timing wrapper, in every ``ranshare`` module that binds it (the engine
imports orchestrator functions by name, and the orchestrator calls its own
functions through its globals). Spans are aggregated per function as they
close: call count, total time and self time, where self time is the span
minus the spans of wrapped functions it called (a span stack).
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, metric prefix); "Class.method" patches the class
TARGETS = (
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("scenario", "write_report", "scenario.write_report"),
    ("engine", "SimEngine.__init__", "engine.SimEngine"),
    ("engine", "SimEngine.run", "engine.run"),
    ("orchestrator", "settle_slot", "orchestrator.settle_slot"),
    ("orchestrator", "plan_placement", "orchestrator.plan_placement"),
    ("orchestrator", "backfill_queue", "orchestrator.backfill_queue"),
    ("orchestrator", "policy_epoch", "orchestrator.policy_epoch"),
    ("orchestrator", "apply_actions", "orchestrator.apply_actions"),
    ("orchestrator", "start_job", "orchestrator.start_job"),
    ("orchestrator", "preempt_job", "orchestrator.preempt_job"),
    ("fabric", "build_reference_fabric", "fabric.build_reference_fabric"),
    ("fabric", "validate_topology", "fabric.validate_topology"),
    ("fabric", "route_flows", "fabric.route_flows"),
    ("workload", "gen_ai_arrivals", "workload.gen_ai_arrivals"),
    ("compute", "partition_gpu", "compute.partition_gpu"),
    ("compute", "repartition", "compute.repartition"),
)

PACKAGE = "ranshare"


class Stat:
    __slots__ = ("calls", "ns", "self_ns")

    def __init__(self):
        self.calls = self.ns = self.self_ns = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [ns spent in wrapped children]
        self._undo: list[tuple[object, str, object]] = []

    # -- counters read from arguments and results -------------------------------

    def _count(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n

    def _after_plan_placement(self, args, result):
        self._count("orchestrator.plan_placement.jobs_offered", len(args[0]))
        self._count("orchestrator.plan_placement.jobs_placed", len(result.assignments))

    def _after_gen_ai_arrivals(self, args, result):
        self._count("workload.jobs_generated", len(result))

    # -- patching -----------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stat = self.stats[name] = Stat()
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.ns += dt
                stat.self_ns += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, name in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            after = getattr(self, "_after_" + attr, None)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, after))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """``<prefix>.calls``, ``.s`` and ``.self_s`` per target, plus counters."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.ns / 1e9
            out[f"{name}.self_s"] = stat.self_ns / 1e9
        for key in (
            "orchestrator.plan_placement.jobs_offered",
            "orchestrator.plan_placement.jobs_placed",
            "workload.jobs_generated",
        ):
            out[key] = self.counts.get(key, 0)
        return out
