"""Scenario configuration (strict-schema YAML) and report serialization.

The scenario document is YAML with a closed schema: unknown keys are
errors, every cross-reference must resolve, and invariant violations are
reported with their section path. Reports serialize to two formats:

* RECORDS - line-delimited CSV-ish records, one per trace sample plus one
  per event/miss/fabric entry; fractions carry 6 decimals. This format
  round-trips: ``parse_records(write_report(r, "records")) == r``.
* SUMMARY - human-readable per-GPU and per-class averages and counters.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from enum import Enum
from typing import Any, NamedTuple

import numpy as np
import yaml

from .compute import GpuDevice, NfBundle, Server
from .engine import (
    CellSpec,
    EventRecord,
    JobStats,
    MetricsReport,
    Scenario,
    Summary,
    TopologySpec,
    Trace,
    summarize,
)
from .errors import ParseError, SchemaError, SemanticError, SimulatorError
from .fabric import Flow, FlowKind, FronthaulCalibration, egress_target
from .orchestrator import DeadlineMiss, ForecastKind, Interval, Policy, PolicyKind
from .workload import (
    AiWorkload,
    ArrivalKind,
    Calibration,
    CellConfig,
    Distribution,
    LoadProfile,
    ProfileKind,
    SloClass,
)

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_./-]*$")


def _exponent_floats(loader: type) -> type:
    """Make ``loader`` also read ``2e-05`` as a float, as YAML 1.2 does.

    YAML 1.1 floats need a dot, so without this a plain ``2e-05`` (the
    ``repr`` of a float) would be read as a string.
    """
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
        list("-+0123456789"),
    )
    return loader


@_exponent_floats
class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """PyYAML's safe loader on libyaml's scanner where PyYAML has it."""


@_exponent_floats
class _PyLoader(yaml.SafeLoader):
    """The pure-Python safe loader, whose errors show the offending line."""


def _load_yaml(text: str):
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError:
        pass
    try:  # a document libyaml rejects is read again for the message
        return yaml.load(text, Loader=_PyLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"not valid YAML: {exc}")


# -- value types: each checks one document value and converts it to a field value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _is_ident(value) -> bool:
    return isinstance(value, str) and _ID_RE.match(value) is not None


def _type(test, message: str, convert=None):
    """Values that pass ``test``, read through ``convert``; ``message`` (which
    may show the value as ``{!r}``) reports the others."""

    def read(value, path: str):
        if not test(value):
            raise SchemaError(f"{path}: " + message.format(value))
        return value if convert is None else convert(value)

    return read


def _choice(options, message: str):
    """One of ``options``: strings, or an Enum's members given by their values."""
    by_value = {getattr(o, "value", o): o for o in options}
    return _type(lambda v: isinstance(v, str) and v in by_value, message, by_value.get)


def _is_list(value, item) -> bool:
    return isinstance(value, list) and all(map(item, value))


_number = _type(_is_number, "expected a number")
_integer = _type(_is_integer, "expected an integer", int)
_count = _type(lambda v: _is_integer(v) and v >= 0, "expected a non-negative integer", int)
_ident = _type(_is_ident, "must be an identifier (letters/digits/_-./)")
_gpu_ids = _type(lambda v: _is_list(v, _is_ident), "expected a list of gpu ids", tuple)
_times = _type(
    lambda v: _is_list(v, _is_number), "expected a list of times", lambda v: tuple(map(float, v))
)
_points = _type(
    lambda v: _is_list(v, lambda p: _is_list(p, _is_number) and len(p) == 2),
    "expected a list of [time, value] pairs",
    lambda v: tuple((float(t), float(x)) for t, x in v),
)


def _plain(value):
    """A field value as the document writes it."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a mapping")
    return obj


# -- sections ---------------------------------------------------------------------

_ROOT = "document"  # the path of the whole document in messages

_REQUIRED = "required"  # must be given
_OPTIONAL = "optional"  # absent or null: the field default; always written
_SPARSE = "sparse"  # as _OPTIONAL, but left out of the document at its default


class _Key(NamedTuple):
    """One document key: its value type, whether it must be given, and the
    field it sets (the key itself unless named; ``part.field`` for a field of
    one of the section's ``parts``)."""

    key: str
    type: Any
    need: str = _OPTIONAL
    field: str = ""


class _Section:
    """A mapping of the document, read into and written from one object.

    ``make`` builds the object from the keys that are given, so an absent
    optional key takes the dataclass's own field default. With ``make`` None
    the mapping's keys set fields of the enclosing object instead. ``parts``
    builds the fields whose own fields are keys of this mapping. With
    ``kinds``, the value of the ``kind`` key selects which of the keys listed
    there apply; the keys of other kinds are allowed, but not read or written.
    """

    def __init__(self, make, *keys: _Key, parts=None, kinds=None):
        self.make = make
        self.keys = tuple(k._replace(field=k.field or k.key) for k in keys)
        self.parts = parts or {}
        self.kinds = kinds or {}
        self.kind_keys = set().union(*self.kinds.values())
        self.allowed = {k.key for k in keys}
        declared = dataclasses.fields(make) if dataclasses.is_dataclass(make) else ()
        self.defaults = {f.name: f.default for f in declared}

    def fields(self, obj, path: str) -> dict:
        """The field values that ``obj``, found at ``path``, gives."""
        obj = _mapping(obj, path)
        for key in obj:
            if key not in self.allowed:
                raise SchemaError(f"{path}: unknown key {key!r}")
        prefix = "" if path == _ROOT else f"{path}."  # top-level sections go by their key
        values: dict = {}
        for k in self.keys:
            if k.key in self.kind_keys and k.key not in self.kinds[values["kind"]]:
                continue
            if obj.get(k.key) is None and k.need != _REQUIRED:
                continue
            if k.key not in obj:
                raise SchemaError(f"{path}: missing required key {k.key!r}")
            kpath = prefix + k.key
            if isinstance(k.type, _Section) and k.type.make is None:
                values.update(k.type.fields(obj[k.key], kpath))
                continue
            value = getattr(k.type, "read", k.type)(obj[k.key], kpath)
            part, _, name = k.field.rpartition(".")
            (values.setdefault(part, {}) if part else values)[name] = value
        return values

    def read(self, obj, path: str):
        values = self.fields(obj, path)
        try:
            for part, make in self.parts.items():
                values[part] = make(**values.get(part, {}))
            return self.make(**values)
        except (ValueError, TypeError, SimulatorError) as exc:
            raise SemanticError(f"{path}: {exc}")

    def write(self, obj, **given) -> dict:
        """The mapping that reads back as ``obj``; ``given`` supplies fields
        that ``obj`` does not hold."""
        doc = {}
        for k in self.keys:
            if k.key in self.kind_keys and k.key not in self.kinds[obj.kind]:
                continue
            if isinstance(k.type, _Section) and k.type.make is None:
                doc[k.key] = k.type.write(obj)
                continue
            if k.field in given:
                value = given[k.field]
            else:
                value = functools.reduce(getattr, k.field.split("."), obj)
            if k.need == _SPARSE and value == self.defaults[k.field]:
                continue
            doc[k.key] = getattr(k.type, "write", _plain)(value)
        return doc


class _Many(NamedTuple):
    """A list of ``section`` mappings, read into a tuple; no two share an id."""

    section: _Section
    noun: str = ""  # what the duplicate-id message calls an item
    nonempty: bool = False

    def read(self, value, path: str) -> tuple:
        if not isinstance(value, list) or self.nonempty and not value:
            raise SchemaError(f"{path}: expected a {'non-empty ' * self.nonempty}list")
        items, seen = [], set()
        for i, obj in enumerate(value):
            items.append(self.section.read(obj, f"{path}[{i}]"))
            ident = obj.get("id")
            if ident is not None:
                if ident in seen:
                    raise SchemaError(f"{path}[{i}]: duplicate {self.noun} id {ident!r}")
                seen.add(ident)
        return tuple(items)

    def write(self, items) -> list:
        return [self.section.write(item) for item in items]


_CELL_CONFIG = (
    _Key("bandwidth_mhz", _number),
    _Key("scs_khz", _integer),
    _Key("tx_antennas", _integer),
    _Key("rx_antennas", _integer),
)

_TOPOLOGY = _Section(
    TopologySpec,
    _Key("compute_spines", _integer),
    _Key("compute_leaves", _integer),
    _Key("converged_spines", _integer),
    _Key("converged_leaves", _integer),
    _Key("link_capacity_gbps", _number),
    _Key("fronthaul_gbps_per_mhz_per_port", _number, field="fronthaul.gbps_per_mhz_per_port"),
    parts={"fronthaul": FronthaulCalibration},
)

_GPU = _Section(
    GpuDevice,
    _Key("id", _ident, _REQUIRED),
    _Key("memory_units", _integer),
    _Key("partition_granularity", _number),
)

_SERVER = _Section(
    Server,
    _Key("id", _ident, _REQUIRED),
    _Key("cpu_cores", _integer),
    _Key("nf_bundle", _choice(NfBundle, "unknown bundle {!r}"), field="hosted_nf_bundle"),
    _Key("frontend_port_gbps", _number),
    _Key("backend_port_gbps", _number),
    _Key("gpus", _Many(_GPU, "gpu", nonempty=True), _REQUIRED),
)

_CALIBRATION = _Section(
    Calibration,
    _Key("reference_cell", _Section(CellConfig, *_CELL_CONFIG)),
    _Key("reference_peak_fraction", _number),
    _Key("bandwidth_exponent", _number),
    _Key("antenna_exponent", _number),
    _Key("idle_floor_fraction", _number),
)

_PROFILE = _Section(
    lambda id, **fields: (id, LoadProfile(**fields)),
    _Key("id", _ident, _REQUIRED),
    _Key("kind", _choice(ProfileKind, "unknown profile kind {!r}"), _REQUIRED),
    _Key("level", _number, _REQUIRED),
    _Key("min", _number, _REQUIRED, "minimum"),
    _Key("max", _number, _REQUIRED, "maximum"),
    _Key("period_s", _number, _REQUIRED),
    _Key("phase", _number),
    _Key("points", _points, _REQUIRED),
    kinds={
        ProfileKind.CONSTANT: {"level"},
        ProfileKind.DIURNAL_SINUSOID: {"min", "max", "period_s", "phase"},
        ProfileKind.TRACE: {"points"},
    },
)

# a cell names its server and its profile by id; _build_scenario resolves them
_CELL = _Section(
    dict,
    _Key("id", _ident, _REQUIRED),
    _Key("server", _ident, _REQUIRED, "server_id"),
    *(k._replace(field=f"config.{k.key}") for k in _CELL_CONFIG),
    _Key("profile", _ident, _REQUIRED),
    parts={"config": CellConfig},
)

_DISTRIBUTION = _Section(
    Distribution,
    _Key("kind", _choice(("constant", "exponential", "uniform"), "unknown distribution {!r}"),
         _REQUIRED),
    _Key("value", _number, _REQUIRED),
    _Key("mean", _number, _REQUIRED),
    _Key("low", _number, _REQUIRED),
    _Key("high", _number, _REQUIRED),
    kinds={"constant": {"value"}, "exponential": {"mean"}, "uniform": {"low", "high"}},
)

_WORKLOAD = _Section(
    AiWorkload,
    _Key("id", _ident, _REQUIRED),
    _Key("arrival", _choice(ArrivalKind, "unknown arrival kind {!r}"), _REQUIRED),
    _Key("rate_per_s", _number, _SPARSE),
    _Key("arrivals", _times, _SPARSE, "trace_arrivals"),
    _Key("job_size", _DISTRIBUTION),
    _Key("demand_fraction", _DISTRIBUTION),
    _Key("slo_class", _choice(SloClass, "unknown class {!r}")),
    _Key("latency_bound_s", _number, _SPARSE),
)

_POLICY = _Section(
    Policy,
    _Key("kind", _choice(PolicyKind, "unknown policy {!r}"), _REQUIRED),
    _Key("gpus", _gpu_ids, _SPARSE, "split_gpus"),
    _Key("ran_fraction", _number, _REQUIRED),
    _Key("ai_fraction", _number, _REQUIRED),
    _Key("schedule", _Many(_Section(
        Interval,
        _Key("start_s", _number, _REQUIRED),
        _Key("end_s", _number, _REQUIRED),
        _Key("ran_fraction", _number, _REQUIRED),
    ), nonempty=True), _REQUIRED),
    _Key("epoch_s", _number),
    _Key("safety_margin", _number),
    _Key("forecast", _Section(
        None,
        _Key("kind", _choice(ForecastKind, "unknown forecast {!r}"), _REQUIRED, "forecast"),
        _Key("window_s", _number),
    )),
    _Key("queue_bound", _count, _SPARSE),
    _Key("resume_delay_s", _number, _SPARSE),
    _Key("settle_slots", _integer, _SPARSE),
    kinds={
        PolicyKind.STATIC_SPLIT: {"ran_fraction", "ai_fraction"},
        PolicyKind.TIME_SPLIT: {"schedule"},
        PolicyKind.DYNAMIC_BACKFILL: {"epoch_s", "safety_margin", "forecast"},
    },
)

# a flow names its server by id; _build_scenario resolves it and maps the kind
_FLOW = _Section(
    dict,
    _Key("id", _ident, _REQUIRED),
    _Key("server", _ident, _REQUIRED),
    _Key("kind", _choice(("egress", "ai_wired"), "expected 'egress' or 'ai_wired'"), _REQUIRED),
    _Key("rate_gbps", _number),
)

_SIM = _Section(
    None,
    _Key("horizon_s", _number, _REQUIRED),
    _Key("seed", _integer, _REQUIRED),
    _Key("sample_interval_s", _number),
)

_DOCUMENT = _Section(
    dict,
    _Key("topology", _TOPOLOGY),
    _Key("servers", _Many(_SERVER, "server", nonempty=True), _REQUIRED),
    _Key("calibration", _CALIBRATION),
    _Key("profiles", _Many(_PROFILE, "profile")),
    _Key("cells", _Many(_CELL, "cell")),
    _Key("ai_workloads", _Many(_WORKLOAD, "workload")),
    _Key("policy", _POLICY, _REQUIRED),
    _Key("flows", _Many(_FLOW, "flow"), field="static_flows"),
    _Key("sim", _SIM, _REQUIRED),
)


def _build_scenario(doc, name: str) -> Scenario:
    """Check a loaded document and build its Scenario."""
    doc = _mapping({} if doc is None else doc, _ROOT)
    missing = sorted(k.key for k in _DOCUMENT.keys if k.need == _REQUIRED and k.key not in doc)
    if missing:
        raise SchemaError(f"{_ROOT}: missing required sections: " + ", ".join(missing))
    fields = _DOCUMENT.fields(doc, _ROOT)
    servers = {s.id: s for s in fields["servers"]}
    profiles = dict(fields.pop("profiles", ()))
    cells = []
    for i, cell in enumerate(fields.pop("cells", ())):
        if cell["server_id"] not in servers:
            raise SchemaError(f"cells[{i}].server: unknown server {cell['server_id']!r}")
        if cell["profile"] not in profiles:
            raise SchemaError(f"cells[{i}].profile: unknown profile {cell['profile']!r}")
        cells.append(CellSpec(**{**cell, "profile": profiles[cell["profile"]]}))
    flows = []
    for i, f in enumerate(fields.pop("static_flows", ())):
        sid = f.pop("server")
        if sid not in servers:
            raise SchemaError(f"flows[{i}].server: unknown server {sid!r}")
        if f.pop("kind") == "egress":
            f.update(src=sid, dst="wan", kind=egress_target(servers[sid]))
        else:
            f.update(src="wan", dst=sid, kind=FlowKind.AI_WIRED)
        try:
            flows.append(Flow(**f))
        except ValueError as exc:
            raise SemanticError(f"flows[{i}]: {exc}")
    scenario = Scenario(
        name=name,
        cells=tuple(cells),
        calibration=fields.pop("calibration", Calibration()),
        ai_workloads=fields.pop("ai_workloads", ()),
        static_flows=tuple(flows),
        **fields,
    )
    problems = scenario.validate()
    if problems:
        raise SemanticError("; ".join(problems))
    return scenario


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse and fully validate a scenario document."""
    return _build_scenario(_load_yaml(text), name)


def load_scenario(path) -> Scenario:
    import pathlib

    p = pathlib.Path(path)
    return parse_scenario(p.read_text(encoding="utf-8"), name=p.stem)


def write_scenario(scenario: Scenario) -> str:
    """Serialize a Scenario back to the document format (identity under parse)."""
    pids: dict[int, str] = {}  # cells that share a profile object share its entry
    profiles, cells = [], []
    for cell in scenario.cells:
        if id(cell.profile) not in pids:
            pids[id(cell.profile)] = f"profile-{len(pids)}"
            profiles.append(_PROFILE.write(cell.profile, id=pids[id(cell.profile)]))
        cells.append(_CELL.write(cell, profile=pids[id(cell.profile)]))
    flows = [
        _FLOW.write(f, server=f.dst, kind="ai_wired")
        if f.kind is FlowKind.AI_WIRED
        else _FLOW.write(f, server=f.src, kind="egress")
        for f in scenario.static_flows
    ]
    doc = {
        "topology": _TOPOLOGY.write(scenario.topology),
        "servers": [_SERVER.write(s) for s in scenario.servers],
        "calibration": _CALIBRATION.write(scenario.calibration),
        "profiles": profiles,
        "cells": cells,
        "ai_workloads": [_WORKLOAD.write(w) for w in scenario.ai_workloads],
        "policy": _POLICY.write(scenario.policy),
        "flows": flows,
        "sim": _SIM.write(scenario),
    }
    # the list sections are left out when empty
    doc = {key: value for key, value in doc.items() if value}
    return yaml.safe_dump(doc, sort_keys=False)


# -- report serialization -------------------------------------------------------


RECORDS_HEADER = "record,time_s,gpu_id,ran_fraction,ai_fraction,annotation"

_TYPES = {"str": str, "int": int, "float": float}
# the ``key=value`` header lines as (key, field, type): the report's own
# scalar fields (``scenario_name`` keyed ``scenario``), and its job stats
_META = tuple(
    (f.name.removesuffix("_name"), f.name, _TYPES[f.type])
    for f in dataclasses.fields(MetricsReport) if f.type in _TYPES
)
_JOBS = tuple((f.name, f.name, _TYPES[f.type]) for f in dataclasses.fields(JobStats))


def _write_fields(obj, fields) -> str:
    """``key=value`` for each field; floats with 6 decimals."""
    return " ".join(
        f"{key}={getattr(obj, name):.6f}" if kind is float else f"{key}={getattr(obj, name)}"
        for key, name, kind in fields
    )


def _read_fields(body: str, fields, line: int) -> dict:
    given = dict(token.partition("=")[::2] for token in body.split())
    try:
        return {name: kind(given[key]) for key, name, kind in fields}
    except (KeyError, ValueError) as exc:
        raise ParseError(f"line {line}: bad or missing header field {exc}") from None


def write_report(report: MetricsReport, format: str = "records") -> str:
    """Serialize a report; ``format`` is 'records' or 'summary'."""
    if format == "records":
        return _write_records(report)
    if format == "summary":
        return _write_summary(report)
    raise ValueError(f"unknown report format {format!r}")


def _write_records(report: MetricsReport) -> str:
    lines = [
        "# ranshare-records v1",
        "# " + _write_fields(report, _META),
        "# gpus=" + ",".join(report.gpu_ids),
        "# jobs " + _write_fields(report.job_stats, _JOBS),
        RECORDS_HEADER,
    ]
    # every other row, in (time, category, index) order; at equal times
    # they precede the samples, which are chronological already
    others = [
        (ev.time_s, 0, i, f"event,{ev.time_s:.6f},{ev.subject},,,{ev.kind} {ev.detail}")
        for i, ev in enumerate(report.events)
    ]
    others += [
        (m.time_s, 1, i, f"miss,{m.time_s:.6f},{m.server_id},,,shortfall={m.shortfall:.9f}")
        for i, m in enumerate(report.deadline_misses)
    ]
    others += [
        (ev.time_s, 2, i, f"fabric,{ev.time_s:.6f},{ev.subject},,,{ev.detail}")
        for i, ev in enumerate(report.fabric_violations)
    ]
    others.sort()
    trace = report.trace
    samples = _sample_rows(trace)
    width = len(trace.gpu_ids)
    done = 0  # samples[:done] are written
    before = np.searchsorted(trace.times, [t for t, _c, _i, _row in others]).tolist()
    for s, (_t, _c, _i, row) in zip(before, others):
        lines.extend(samples[done:s * width])
        done = s * width
        lines.append(row)
    lines.extend(samples[done:])
    return "\n".join(lines) + "\n"


def _sample_rows(trace: Trace) -> list[str]:
    """The trace's rows as RECORDS lines, in trace order.

    Each sample time and each distinct (ran, ai) pair is formatted once;
    levels are told apart by their bits, so that -0.0 keeps its sign.
    """
    if not len(trace):
        return []
    levels, level_code = np.unique(
        np.concatenate((trace.ran.ravel(), trace.ai.ravel())).view(np.int64),
        return_inverse=True,
    )
    text = [f"{v:.6f}" for v in levels.view(np.float64).tolist()]
    rows, n = trace.ran.size, len(levels)
    pairs, pair_code = np.unique(
        level_code[:rows] * n + level_code[rows:], return_inverse=True
    )
    pair_text = [f"{text[p // n]},{text[p % n]}," for p in pairs.tolist()]
    gpus = [f"{gpu_id}," for gpu_id in trace.gpu_ids]
    codes = iter(pair_code.tolist())
    lines = []
    for t in trace.times.tolist():
        head = f"sample,{t:.6f},"
        for gpu in gpus:
            lines.append(head + gpu + pair_text[next(codes)])
    width = len(gpus)
    for (s, g), note in trace.notes.items():
        lines[s * width + g] += note
    return lines


def _write_summary(report: MetricsReport) -> str:
    lines = [
        f"scenario {report.scenario_name} seed {report.seed} "
        f"horizon {report.horizon_s:.6f}s sample {report.sample_interval_s:.6f}s"
    ]
    for gpu_id in report.gpu_ids:
        g = report.summary.per_gpu.get(gpu_id)
        if g is None:
            continue
        lines.append(
            f"gpu {gpu_id}: avg_ran={g.avg_ran:.6f} avg_ai={g.avg_ai:.6f} "
            f"avg_total={g.avg_total:.6f} peak_total={g.peak_total:.6f} "
            f"p95_total={g.p95_total:.6f}"
        )
    lines.append(f"cluster avg_total={report.summary.avg_total:.6f}")
    lines.append(f"deadline_misses {len(report.deadline_misses)}")
    js = report.job_stats
    lines.append(
        f"ai_jobs completed={js.completed} preempted_events={js.preempted_events} "
        f"rejected={js.rejected} queued_at_end={js.queued_at_end} "
        f"running_at_end={js.running_at_end}"
    )
    lines.append(
        f"wait mean={js.mean_wait_s:.6f}s p95={js.p95_wait_s:.6f}s "
        f"turnaround mean={js.mean_turnaround_s:.6f}s"
    )
    lines.append(f"fabric_violations {len(report.fabric_violations)}")
    return "\n".join(lines) + "\n"


def parse_records(text: str) -> MetricsReport:
    """Rebuild a MetricsReport from RECORDS output (inverse of write_report).

    Sample rows go straight into the trace's columns: each sample lists the
    ``# gpus=`` GPUs in order, at one time, later than the previous sample's.
    """
    meta: dict = {}
    job_stats = gpu_ids = None
    times: list[float] = []
    ran: list[float] = []
    ai: list[float] = []
    notes: dict[tuple[int, int], str] = {}
    events: list[EventRecord] = []
    misses: list[DeadlineMiss] = []
    fabric: list[EventRecord] = []
    g = 0  # the GPU the next sample row is for
    for number, line in enumerate(text.splitlines(), 1):
        if not line or line == RECORDS_HEADER:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("scenario="):
                meta = _read_fields(body, _META, number)
            elif body.startswith("gpus="):
                raw = body[len("gpus="):]
                gpu_ids = tuple(raw.split(",")) if raw else ()
            elif body.startswith("jobs "):
                job_stats = JobStats(**_read_fields(body[len("jobs "):], _JOBS, number))
            continue
        kind, t_raw, subject, ran_raw, ai_raw, annotation = line.split(",", 5)
        t = float(t_raw)
        if kind == "sample":
            if not gpu_ids or subject != gpu_ids[g]:
                raise ParseError(f"line {number}: sample row for {subject!r} is not "
                                 "the next gpu of the '# gpus=' header")
            if g == 0 and times and t <= times[-1] or g and t != times[-1]:
                raise ParseError(f"line {number}: sample row at {t_raw} is out of time order")
            if g == 0:
                times.append(t)
            if annotation:
                notes[len(times) - 1, g] = annotation
            ran.append(float(ran_raw))
            ai.append(float(ai_raw))
            g = (g + 1) % len(gpu_ids)
        elif kind == "event":
            ev_kind, _, detail = annotation.partition(" ")
            events.append(EventRecord(t, ev_kind, subject, detail))
        elif kind == "miss":
            misses.append(DeadlineMiss(t, subject, float(annotation.split("=", 1)[1])))
        elif kind == "fabric":
            fabric.append(EventRecord(t, "capacity", subject, annotation))
        else:
            raise ParseError(f"unknown record type {kind!r}")
    if not meta or gpu_ids is None or job_stats is None:
        raise ParseError("missing records metadata header")
    if g:
        raise ParseError(f"the last sample lists {g} of {len(gpu_ids)} gpus")
    trace = Trace(gpu_ids, times, ran, ai, notes)
    if len(trace):
        summary = summarize(trace, len(misses))
    else:
        summary = Summary({}, 0.0, len(misses))
    return MetricsReport(
        **meta,
        gpu_ids=gpu_ids,
        trace=trace,
        events=events,
        deadline_misses=misses,
        fabric_violations=fabric,
        job_stats=job_stats,
        summary=summary,
    )
