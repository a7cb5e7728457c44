"""Command-line entry points: run, validate, sweep.

Exit codes: 0 success, 1 usage, 2 parse/schema error, 3 semantic or
topology error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import itertools
import os
import sys
from pathlib import Path

from .engine import SimEngine, mix_seed
from .errors import (
    ParseError,
    SchemaError,
    ScenarioInvalid,
    SemanticError,
    SimulatorError,
)
from .scenario import _build_scenario, _load_yaml, _read_text, iter_report, load_scenario

EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_SEMANTIC = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranshare",
        description="Simulate RAN/AI co-scheduling on shared edge GPUs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write its report")
    p_run.add_argument("scenario", help="path to a .scenario file")
    p_run.add_argument("--out", help="report path (default: stdout)")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument(
        "--format", choices=("records", "summary"), default="records",
        help="report format (default: records)",
    )

    p_val = sub.add_parser("validate", help="parse and validate only")
    p_val.add_argument("scenario", help="path to a .scenario file")

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    p_sweep.add_argument("scenario", help="path to a .scenario file")
    p_sweep.add_argument(
        "--param",
        action="append",
        required=True,
        metavar="PATH=V1,V2,...",
        help="dotted config path and comma-separated values; repeatable",
    )
    p_sweep.add_argument("--out-dir", default=".", help="directory for point reports")
    p_sweep.add_argument("--seed", type=int, help="override the base seed")
    return parser


def _set_path(doc: dict, dotted: str, value):
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise SchemaError(f"sweep param path {dotted!r}: {key!r} not found")
        node = node[key]
    if not isinstance(node, dict):
        raise SchemaError(f"sweep param path {dotted!r} does not address a mapping key")
    node[keys[-1]] = value


def _write_file(path: Path, chunks) -> None:
    """Write the text ``chunks`` to ``path`` as they come.

    They go to a temporary file in the same directory, which replaces
    ``path`` only once every chunk is written, so a failed run leaves no
    partial report.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    report = SimEngine(scenario).run()
    chunks = iter_report(report, args.format)
    if args.out:
        _write_file(Path(args.out), chunks)
    else:
        sys.stdout.writelines(chunks)
    return 0


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)
    print(f"{args.scenario}: ok")
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_yaml(_read_text(args.scenario))
    name = Path(args.scenario).stem
    base = _build_scenario(doc, name)  # fail early
    axes = []
    for spec in args.param:
        dotted, _, raw = spec.partition("=")
        if not raw:
            raise SchemaError(f"--param {spec!r}: expected PATH=V1,V2,...")
        if dotted == "sim.seed":
            raise SchemaError(f"--param {spec!r}: point seeds come from the base seed (--seed)")
        values = [_load_yaml(v) for v in raw.split(",")]
        axes.append((dotted, values))
    base_seed = args.seed if args.seed is not None else base.seed
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, combo in enumerate(itertools.product(*(vals for _, vals in axes))):
        point_doc = copy.deepcopy(doc)
        for (dotted, _), value in zip(axes, combo):
            _set_path(point_doc, dotted, value)
        scenario = dataclasses.replace(
            _build_scenario(point_doc, f"{name}.p{index}"),
            seed=mix_seed(base_seed, index) & 0x7FFFFFFFFFFFFFFF,
        )
        report = SimEngine(scenario).run()
        out_path = out_dir / f"{name}.p{index}.records"
        _write_file(out_path, iter_report(report, "records"))
        settings = " ".join(
            f"{dotted}={value}" for (dotted, _), value in zip(axes, combo)
        )
        print(
            f"point {index}: {settings} -> {out_path} "
            f"(avg_total={report.summary.avg_total:.6f} "
            f"misses={len(report.deadline_misses)})"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else EXIT_USAGE
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_sweep(args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (SemanticError, ScenarioInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (SimulatorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
