"""Scenario configuration (strict-schema YAML) and report serialization.

A scenario document is read, never written: it is YAML with a closed
schema, unknown keys are errors, every cross-reference must resolve, and
invariant violations are reported with their section path. Reports
serialize to two formats:

* RECORDS - line-delimited CSV-ish records, one per trace sample plus one
  per event/miss/fabric entry; fractions carry 6 decimals. This format
  round-trips: ``parse_records(write_report(r, "records")) == r``. Each
  block of sample rows is written as one byte grid and yielded by
  ``iter_report``, so the whole text need never be held.
* SUMMARY - human-readable per-GPU and per-class averages and counters.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Iterator, NamedTuple

import numpy as np
import yaml

from .compute import GpuDevice, NfBundle, Server, TenantClass
from .engine import (
    CellSpec,
    EventRecord,
    JobStats,
    MetricsReport,
    Scenario,
    TopologySpec,
    Trace,
)
from .errors import ParseError, SchemaError, SemanticError, SimulatorError
from .fabric import Flow, FlowKind, FronthaulCalibration, egress_target
from .orchestrator import US, DeadlineMiss, ForecastKind, Interval, Policy, PolicyKind
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
    """An int or a float that is finite as a float: not ``.nan``, ``.inf`` or ``1e400``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # False for nan


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


_number = _type(_is_number, "expected a finite number")
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


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a mapping")
    return obj


# -- sections ---------------------------------------------------------------------

_ROOT = "document"  # the path of the whole document in messages

_REQUIRED = "required"  # must be given
_OPTIONAL = "optional"  # absent or null: the field default


class _Key(NamedTuple):
    """One document key: its value type, whether it must be given, and the
    field it sets (the key itself unless named; ``part.field`` for a field of
    one of the section's ``parts``)."""

    key: str
    type: Any
    need: str = _OPTIONAL
    field: str = ""


class _Section:
    """A mapping of the document, read into one object.

    ``make`` builds the object from the keys that are given, so an absent
    optional key takes the dataclass's own field default. With ``make`` None
    the mapping's keys set fields of the enclosing object instead. ``parts``
    builds the fields whose own fields are keys of this mapping. With
    ``kinds``, the value of the ``kind`` key selects which of the keys listed
    there apply; the keys of other kinds are allowed, but not read.
    """

    def __init__(self, make, *keys: _Key, parts=None, kinds=None):
        self.make = make
        self.keys = tuple(k._replace(field=k.field or k.key) for k in keys)
        self.parts = parts or {}
        self.kinds = kinds or {}
        self.kind_keys = set().union(*self.kinds.values())
        self.allowed = {k.key for k in keys}

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
    _Key("rate_per_s", _number),
    _Key("arrivals", _times, field="trace_arrivals"),
    _Key("job_size", _DISTRIBUTION),
    _Key("demand_fraction", _DISTRIBUTION),
    _Key("slo_class", _choice(SloClass, "unknown class {!r}")),
    _Key("latency_bound_s", _number),
)

_POLICY = _Section(
    Policy,
    _Key("kind", _choice(PolicyKind, "unknown policy {!r}"), _REQUIRED),
    _Key("gpus", _gpu_ids, field="split_gpus"),
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
    _Key("queue_bound", _count),
    _Key("resume_delay_s", _number),
    _Key("settle_slots", _integer),
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


def _read_text(path) -> str:
    """The text of the file at ``path``; one that cannot be read is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def load_scenario(path) -> Scenario:
    """Parse and fully validate the scenario file at ``path``, named by its stem."""
    return parse_scenario(_read_text(path), name=Path(path).stem)


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


# the detail of each event kind that is logged without fields
_EVENT_TEXT = {"reject": "queue bound exceeded", "reroute": "profile step",
               "settled": "slices accepting work"}


def _detail_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, list):  # a layout
        return ",".join(f"{f:.6f}:{c.value}" for f, c in value)
    return f"{value:.6f}"


def event_detail(ev: EventRecord) -> str:
    """The detail of an event or fabric row: its kind's fixed text, or ``key=value`` fields.

    Numbers are written with 6 decimals, a layout as ``fraction:class``
    pairs joined by ``,``, and ids as they are.
    """
    return _EVENT_TEXT.get(ev.kind) or " ".join(
        f"{key}={_detail_text(v)}" for key, v in ev.fields.items()
    )


def _note_texts(notes: Counter) -> list[tuple[int, int, str]]:
    """Each noted (sample, GPU) in order, with its annotation text.

    The text counts each kind as ``kind:n``, kinds sorted, joined by ``;``.
    """
    parts: dict[tuple[int, int], list[str]] = {}
    for (s, g, kind), n in sorted(notes.items()):
        parts.setdefault((s, g), []).append(f"{kind}:{n}")
    return [(s, g, ";".join(texts)) for (s, g), texts in parts.items()]


_NOTE_RE = re.compile(r"([a-z_]+):([1-9][0-9]*)")


def _read_note(annotation: str, s: int, g: int, notes: Counter, line: int):
    """Add the counts of sample ``s``'s GPU ``g`` that ``annotation`` writes to ``notes``."""
    for part in annotation.split(";"):
        match = _NOTE_RE.fullmatch(part)
        if match is None:
            raise ParseError(f"line {line}: note {part!r} is not kind:n with n a positive integer")
        key = (s, g, match[1])
        if key in notes:
            raise ParseError(f"line {line}: note kind {match[1]!r} is repeated")
        notes[key] = int(match[2])


def _read_layout(raw: str) -> list[tuple[float, TenantClass]]:
    return [(float(f), TenantClass(c)) for f, c in (pair.split(":") for pair in raw.split(","))]


# how a field is read back; every other field is a number
_FIELD_READERS = {"job": str, "instance": str, "gpu": str, "layout": _read_layout}


def _read_detail(kind: str, detail: str) -> dict:
    """The fields of an event or fabric row of ``kind`` from its written ``detail``."""
    if kind in _EVENT_TEXT:  # a fixed text reads back as no fields
        if detail != _EVENT_TEXT[kind]:
            raise ValueError(f"{kind} detail is not {_EVENT_TEXT[kind]!r}")
        return {}
    pairs = (item.partition("=")[::2] for item in detail.split())
    return {key: _FIELD_READERS.get(key, float)(raw) for key, raw in pairs}


def iter_report(report: MetricsReport, format: str = "records") -> Iterator[str]:
    """Serialize a report as chunks of text; ``format`` is 'records' or 'summary'.

    RECORDS comes one block of sample rows at a time, so its text is never
    held whole; SUMMARY is one chunk.
    """
    if format == "records":
        return _iter_records(report)
    if format == "summary":
        return iter((_write_summary(report),))
    raise ValueError(f"unknown report format {format!r}")


def write_report(report: MetricsReport, format: str = "records") -> str:
    """Serialize a report; ``format`` is 'records' or 'summary'."""
    return "".join(iter_report(report, format))


_BLOCK_ROWS = 8192  # sample rows per RECORDS chunk (whole samples, at least one)
# the ASCII of each two-digit number 00-99, as the uint16 that holds its two bytes
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_NEWLINE, _DOT, _COMMA = (np.frombuffer(b, np.uint8) for b in (b"\n", b".", b","))


def _iter_records(report: MetricsReport) -> Iterator[str]:
    """The header, then blocks of sample rows with the other rows and notes spliced in."""
    yield "\n".join((
        "# ranshare-records v1",
        "# " + _write_fields(report, _META),
        "# gpus=" + ",".join(report.gpu_ids),
        "# jobs " + _write_fields(report.job_stats, _JOBS),
        RECORDS_HEADER,
        "",
    ))
    # every other row, in (time, category, index) order; at equal times
    # they precede the samples, which are chronological already
    others = [
        (ev.time_s, 0, i, f"event,{ev.time_s:.6f},{ev.subject},,,{ev.kind} {event_detail(ev)}\n")
        for i, ev in enumerate(report.events)
    ]
    others += [
        (m.time_s, 1, i, f"miss,{m.time_s:.6f},{m.server_id},,,shortfall={m.shortfall:.9f}\n")
        for i, m in enumerate(report.deadline_misses)
    ]
    others += [
        (ev.time_s, 2, i, f"fabric,{ev.time_s:.6f},{ev.subject},,,{event_detail(ev)}\n")
        for i, ev in enumerate(report.fabric_violations)
    ]
    others.sort()
    trace = report.trace
    width = len(trace.gpu_ids)
    samples = len(trace.times) if width else 0  # a sample of no GPUs has no rows
    before = np.searchsorted(trace.times, [t for t, _c, _i, _row in others]).tolist()
    notes = _note_texts(report.notes)
    gpus = _texts([f"{gpu_id}," for gpu_id in trace.gpu_ids], (1, width))
    k = j = 0  # others[:k] and notes[:j] are written
    step = max(1, _BLOCK_ROWS // max(width, 1))
    for s0 in range(0, samples, step):
        s1 = min(s0 + step, samples)
        rows, lengths = _sample_rows(trace, s0, s1, gpus)
        starts = np.concatenate(([0], np.cumsum(lengths)))  # row r is rows[starts[r]:starts[r + 1]]
        cuts = []  # (offset, text): other rows before their sample, notes before a newline
        while k < len(others) and before[k] < s1:
            cuts.append((starts[(before[k] - s0) * width], others[k][3]))
            k += 1
        while j < len(notes) and notes[j][0] < s1:
            s, g, note = notes[j]
            cuts.append((starts[(s - s0) * width + g + 1] - 1, note))
            j += 1
        text, pieces, at = str(rows, "utf-8"), [], 0
        for offset, cut in sorted(cuts, key=lambda cut: cut[0]):  # stable: others keep order
            pieces += (text[at:offset], cut)
            at = offset
        yield "".join(pieces + [text[at:]])
    yield "".join(row for _t, _c, _i, row in others[k:])


def _sample_rows(trace: Trace, s0: int, s1: int, gpus) -> tuple[np.ndarray, np.ndarray]:
    """Samples ``s0:s1`` as their RECORDS rows' bytes, without notes, and each row's length.

    The fields (the head once per sample, the GPU ids ``gpus``, the levels and
    the newline) lie NUL-padded side by side in one (sample, GPU, byte) grid,
    and a compress drops the NULs when the fields' lengths show any."""
    n = s1 - s0
    head, head_length = _decimal_fields(trace.times[s0:s1], 2.0**32, "sample,")
    head = np.concatenate([np.broadcast_to(p, (n, p.shape[-1])) for p in head], axis=-1)
    fields = (([head[:, None]], head_length[:, None]), gpus,
              _decimal_fields(trace.ran[s0:s1], 10.0), _decimal_fields(trace.ai[s0:s1], 10.0),
              ([_NEWLINE], 1))
    grid = np.concatenate([np.broadcast_to(p, (n, len(trace.gpu_ids), p.shape[-1]))
                           for parts, _n in fields for p in parts], axis=-1)
    lengths = sum(length for _parts, length in fields).ravel()
    return (grid.ravel() if lengths.sum() == grid.size else grid[grid != 0]), lengths


def _texts(texts: list[str], shape: tuple) -> tuple[list[np.ndarray], np.ndarray]:
    """A field of ``shape`` from its texts: their NUL-padded UTF-8 and their lengths."""
    packed = np.array([text.encode() for text in texts], dtype=bytes)
    grid = packed.view(np.uint8).reshape(*shape, packed.itemsize)
    return [grid], np.array(list(map(len, texts)), dtype=np.int64).reshape(shape)


def _millionths(a: np.ndarray, below: float) -> np.ndarray | None:
    """Each magnitude of ``a`` as whole millionths ``k``, or None unless each is the
    double ``k / 1e6`` below ``below``. Below 2**32 that double is within 2.4e-7
    of ``k`` millionths, under half of one, so its text to 6 decimals is ``k``'s."""
    if not a.max(initial=0.0) < below:  # a nan compares False
        return None
    k = np.rint(a * US).astype(np.int64)
    return k if (k / US == a).all() else None


def _decimal_fields(x: np.ndarray, below: float, prefix: str = "") -> tuple[list, np.ndarray]:
    """``<prefix><v>,`` for each ``v`` of ``x`` to 6 decimals, as byte fields, and their lengths.

    With every magnitude whole millionths below ``below`` (``_millionths``),
    a value is written from its digits, two at a time: a ``-`` where its
    sign bit is set (so -0.0 keeps it), as many units digits as the largest
    has, leading zeros made NUL, and six decimals. Otherwise it is formatted.
    """
    k = _millionths(np.abs(x), below)
    if k is None:
        return _texts([f"{prefix}{v:.6f}," for v in x.ravel().tolist()], x.shape)
    width = len(str(k.max(initial=0) // US))  # units digits
    lead = sum(k < 10**i * US for i in range(1, width))  # each value's leading zeros
    pairs = np.empty((*k.shape, (width + 7) // 2), np.uint16)
    for i in reversed(range(pairs.shape[-1])):
        high = k // 100
        pairs[..., i] = _PAIRS.take(k - high * 100)
        k = high
    digits = pairs.view(np.uint8)[..., -width - 6:]
    if np.any(lead):
        digits[np.arange(width + 6) < lead[..., None]] = 0
    sign = np.signbit(x)
    parts = [np.frombuffer(prefix.encode(), np.uint8), digits[..., :width], _DOT,
             digits[..., width:], _COMMA]
    if sign.any():
        parts.insert(1, np.where(sign, ord("-"), 0).astype(np.uint8)[..., None])
    return parts, len(prefix) + width + 8 + sign - lead


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

    The ``# scenario=``, ``# gpus=`` and ``# jobs`` headers come once each.
    The ``# gpus=`` header names each GPU once, by a non-empty id, or none.
    Sample rows go straight into the trace's columns: each sample lists the
    ``# gpus=`` GPUs in order, at one time, later than the previous sample's.
    Its time and both levels must be finite. A sample row's annotation reads
    back as the report's note counts: each ``;``-separated part is ``kind:n``
    with ``n`` a positive integer, and no kind comes twice.
    """
    meta: dict = {}
    job_stats = gpu_ids = None
    seen: set[str] = set()  # the headers read
    times: list[float] = []
    ran: list[float] = []
    ai: list[float] = []
    notes: Counter[tuple[int, int, str]] = Counter()
    events: list[EventRecord] = []
    misses: list[DeadlineMiss] = []
    fabric: list[EventRecord] = []
    g = 0  # the GPU the next sample row is for
    for number, line in enumerate(text.splitlines(), 1):
        if not line or line == RECORDS_HEADER:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            head = next((h for h in ("scenario=", "gpus=", "jobs ") if body.startswith(h)), None)
            if head in seen:
                raise ParseError(f"line {number}: a second '# {head.strip()}' header")
            if head:
                seen.add(head)
            if head == "scenario=":
                meta = _read_fields(body, _META, number)
            elif head == "gpus=":
                raw = body[len("gpus="):]
                gpu_ids = tuple(raw.split(",")) if raw else ()
                if "" in gpu_ids:
                    raise ParseError(f"line {number}: '# gpus=' header names an empty gpu id")
                if len(set(gpu_ids)) < len(gpu_ids):
                    repeated = next(i for i in gpu_ids if gpu_ids.count(i) > 1)
                    raise ParseError(f"line {number}: '# gpus=' header names gpu {repeated!r} twice")
            elif head == "jobs ":
                job_stats = JobStats(**_read_fields(body[len("jobs "):], _JOBS, number))
            continue
        try:
            kind, t_raw, subject, ran_raw, ai_raw, annotation = line.split(",", 5)
            t = float(t_raw)
            if kind == "sample":
                r, a = float(ran_raw), float(ai_raw)
                if not (math.isfinite(t) and math.isfinite(r) and math.isfinite(a)):
                    raise ParseError(f"line {number}: sample row {line!r} is not finite")
                if not gpu_ids or subject != gpu_ids[g]:
                    raise ParseError(f"line {number}: sample row for {subject!r} is not "
                                     "the next gpu of the '# gpus=' header")
                if g == 0 and times and t <= times[-1] or g and t != times[-1]:
                    raise ParseError(f"line {number}: sample row at {t_raw} is out of time order")
                if g == 0:
                    times.append(t)
                if annotation:
                    _read_note(annotation, len(times) - 1, g, notes, number)
                ran.append(r)
                ai.append(a)
                g = (g + 1) % len(gpu_ids)
            elif kind == "event":
                ev_kind, _, detail = annotation.partition(" ")
                events.append(EventRecord(t, ev_kind, subject, _read_detail(ev_kind, detail)))
            elif kind == "miss":
                misses.append(DeadlineMiss(t, subject, float(annotation.split("=", 1)[1])))
            elif kind == "fabric":
                fabric.append(EventRecord(t, "capacity", subject, _read_detail(kind, annotation)))
            else:
                raise ParseError(f"line {number}: unknown record type {kind!r}")
        except (ValueError, IndexError) as exc:
            raise ParseError(f"line {number}: malformed row {line!r} ({exc})") from None
    if not meta or gpu_ids is None or job_stats is None:
        raise ParseError("missing records metadata header")
    if g:
        raise ParseError(f"the last sample lists {g} of {len(gpu_ids)} gpus")
    return MetricsReport(
        **meta,
        gpu_ids=gpu_ids,
        trace=Trace(gpu_ids, times, ran, ai),
        events=events,
        deadline_misses=misses,
        fabric_violations=fabric,
        job_stats=job_stats,
        notes=notes,
    )
