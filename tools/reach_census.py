"""Reach census: which lines and functions of ``src/ranshare`` the program's own entry points run.

Runs, under a ``sys.settrace`` line tracer limited to ``src/ranshare``:

* ``ranshare run`` on each shipped scenario, in both report formats,
  with its RECORDS report read back;
* ``ranshare validate``, and a two-point ``ranshare sweep``, on each;
* the four benchmark workloads of ``perfbench/workloads.py`` at seed 1,
  written in their benchmark format, with a RECORDS report read back;
* the demos.

Then prints, per module, the named functions that were never called and
the count of executable lines never reached, and last, under their own
heading, the never-called functions of ``NAMED_API``: public API that the
README names and keeps although no program path calls it. Tests are not
run: code that only tests reach is what the census looks for. The
standard library is all it needs. It takes a few seconds.

Run:  python tools/reach_census.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ranshare"
SWEEPS = {
    "poc": "policy.ai_fraction=0.5,0.6",
    "uplift": "policy.safety_margin=0.05,0.1",
    "time_split": "policy.settle_slots=1,2",
}

# module -> qualnames kept as public API though no entry point calls them
NAMED_API = {
    "engine.py": {"Trace.__eq__"},
    "errors.py": {"ScenarioInvalid.__init__"},
    "fabric.py": {"Violation.__str__"},
    "workload.py": {"exponential", "uniform", "AiJob.required_rate"},
}

reached: dict[str, set[int]] = {}  # file -> lines run
called: dict[str, set[int]] = {}  # file -> first lines of the code objects called


def _trace(frame, event, arg):
    file = frame.f_code.co_filename
    if not file.startswith(str(PACKAGE)):
        return None
    called.setdefault(file, set()).add(frame.f_code.co_firstlineno)
    lines = reached.setdefault(file, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local(frame, event, arg)


def _entry_points(out: Path) -> None:
    from ranshare import cli, parse_records, parse_scenario, SimEngine, write_report

    for name in SWEEPS:
        path = str(ROOT / "scenarios" / f"{name}.scenario")
        commands = [["run", path, "--format", fmt, "--out", str(out / f"{name}.{fmt}")]
                    for fmt in ("records", "summary")]
        commands += [["validate", path], ["sweep", path, "--param", SWEEPS[name], "--out-dir", str(out)]]
        for argv in commands:
            if cli.main(argv) != 0:
                raise SystemExit(f"ranshare {' '.join(argv)} failed")
        parse_records((out / f"{name}.records").read_text(encoding="utf-8"))

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, (build, fmt) in workloads.WORKLOADS.items():
        text = write_report(SimEngine(parse_scenario(build(ROOT, 1), name=name)).run(), fmt)
        if fmt == "records":
            parse_records(text)

    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _report() -> None:
    total = unreached_total = 0
    named = []  # (module, qualname) of the NAMED_API never called
    for path in sorted(PACKAGE.glob("*.py")):
        file = str(path)
        module = compile(path.read_text(encoding="utf-8"), file, "exec")
        codes = list(_code_objects(module))
        lines = {line for code in codes for _s, _e, line in code.co_lines() if line is not None}
        # a call event stands for the def line, which the body's line events skip
        done = reached.get(file, set()) | called.get(file, set())
        unreached = lines - done
        never = sorted(
            (code.co_firstlineno, code.co_qualname) for code in codes[1:]
            if not code.co_name.startswith("<") and code.co_firstlineno not in called.get(file, ())
        )
        total += len(lines)
        unreached_total += len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(lines)} executable lines unreached")
        for line, qualname in never:
            if qualname in NAMED_API.get(path.name, ()):
                named.append((path.stem, qualname))
            else:
                print(f"    never called: {qualname} (line {line})")
    print(f"total: {unreached_total} of {total} executable lines unreached")
    print("named public API, never called:")
    for module, qualname in named:
        print(f"    {module}.{qualname}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # ranshare is first imported under the tracer
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(_trace)
        try:
            _entry_points(Path(tmp))
        finally:
            sys.settrace(None)
    _report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
