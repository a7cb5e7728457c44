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

import re

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
    TraceRecord,
    summarize,
)
from .errors import ParseError, SchemaError, SemanticError
from .fabric import FlowKind, FronthaulCalibration, egress_target, flow
from .orchestrator import DeadlineMiss, ForecastKind, Policy, PolicyKind
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

_TOP_KEYS = {
    "topology",
    "servers",
    "cells",
    "calibration",
    "profiles",
    "ai_workloads",
    "policy",
    "flows",
    "sim",
}


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a mapping")
    return obj


def _check_keys(obj: dict, path: str, allowed: set[str], required: set[str] = frozenset()):
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}: missing required key {key!r}")


def _ident(obj: dict, path: str) -> str:
    value = obj.get("id")
    if not isinstance(value, str) or not _ID_RE.match(value):
        raise SchemaError(f"{path}.id: must be an identifier (letters/digits/_-./)")
    return value


def _number(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        if default is None:
            raise SchemaError(f"{path}: missing required key {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}: expected a number")
    return value


def _semantic(path: str, exc: Exception) -> SemanticError:
    return SemanticError(f"{path}: {exc}")


def _parse_distribution(obj, path: str, default: Distribution) -> Distribution:
    if obj is None:
        return default
    obj = _require_mapping(obj, path)
    _check_keys(obj, path, {"kind", "value", "mean", "low", "high"}, {"kind"})
    kind = obj["kind"]
    if kind == "constant":
        return Distribution(kind="constant", value=_number(obj, "value", path))
    if kind == "exponential":
        return Distribution(kind="exponential", mean=_number(obj, "mean", path))
    if kind == "uniform":
        return Distribution(
            kind="uniform", low=_number(obj, "low", path), high=_number(obj, "high", path)
        )
    raise SchemaError(f"{path}.kind: unknown distribution {kind!r}")


def _parse_profile(obj: dict, path: str) -> tuple[str, LoadProfile]:
    _check_keys(
        obj,
        path,
        {"id", "kind", "level", "min", "max", "period_s", "phase", "points"},
        {"id", "kind"},
    )
    pid = _ident(obj, path)
    kind = obj["kind"]
    try:
        if kind == "constant":
            return pid, LoadProfile(
                kind=ProfileKind.CONSTANT, level=_number(obj, "level", path)
            )
        if kind == "diurnal":
            return pid, LoadProfile(
                kind=ProfileKind.DIURNAL_SINUSOID,
                minimum=_number(obj, "min", path),
                maximum=_number(obj, "max", path),
                period_s=_number(obj, "period_s", path),
                phase=_number(obj, "phase", path, 0.0),
            )
        if kind == "trace":
            points = obj.get("points")
            if not isinstance(points, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in points
            ):
                raise SchemaError(f"{path}.points: expected a list of [time, value] pairs")
            return pid, LoadProfile(
                kind=ProfileKind.TRACE,
                points=tuple((float(t), float(v)) for t, v in points),
            )
    except (ValueError, TypeError) as exc:
        raise _semantic(path, exc)
    raise SchemaError(f"{path}.kind: unknown profile kind {kind!r}")


def _parse_policy(obj: dict, path: str) -> Policy:
    _check_keys(
        obj,
        path,
        {
            "kind",
            "ran_fraction",
            "ai_fraction",
            "gpus",
            "schedule",
            "epoch_s",
            "safety_margin",
            "forecast",
            "queue_bound",
            "resume_delay_s",
            "settle_slots",
        },
        {"kind"},
    )
    kind_raw = obj["kind"]
    try:
        kind = PolicyKind(kind_raw)
    except ValueError:
        raise SchemaError(f"{path}.kind: unknown policy {kind_raw!r}")
    gpus = obj.get("gpus", [])
    if not isinstance(gpus, list) or not all(isinstance(g, str) for g in gpus):
        raise SchemaError(f"{path}.gpus: expected a list of gpu ids")
    queue_bound = obj.get("queue_bound")
    if queue_bound is not None and (
        isinstance(queue_bound, bool) or not isinstance(queue_bound, int) or queue_bound < 0
    ):
        raise SchemaError(f"{path}.queue_bound: expected a non-negative integer")
    kwargs = dict(
        kind=kind,
        split_gpus=tuple(gpus),
        queue_bound=queue_bound,
        resume_delay_s=_number(obj, "resume_delay_s", path, 0.0),
        settle_slots=int(_number(obj, "settle_slots", path, 1)),
    )
    try:
        if kind is PolicyKind.STATIC_SPLIT:
            kwargs["ran_fraction"] = _number(obj, "ran_fraction", path)
            kwargs["ai_fraction"] = _number(obj, "ai_fraction", path)
        elif kind is PolicyKind.TIME_SPLIT:
            sched = obj.get("schedule")
            if not isinstance(sched, list) or not sched:
                raise SchemaError(f"{path}.schedule: expected a non-empty list")
            intervals = []
            for i, entry in enumerate(sched):
                epath = f"{path}.schedule[{i}]"
                entry = _require_mapping(entry, epath)
                _check_keys(
                    entry, epath, {"start_s", "end_s", "ran_fraction"},
                    {"start_s", "end_s", "ran_fraction"},
                )
                intervals.append(
                    (
                        _number(entry, "start_s", epath),
                        _number(entry, "end_s", epath),
                        _number(entry, "ran_fraction", epath),
                    )
                )
            kwargs["schedule"] = tuple(intervals)
        else:
            kwargs["epoch_s"] = _number(obj, "epoch_s", path, 0.1)
            kwargs["safety_margin"] = _number(obj, "safety_margin", path, 0.05)
            fc = obj.get("forecast")
            if fc is not None:
                fc = _require_mapping(fc, f"{path}.forecast")
                _check_keys(fc, f"{path}.forecast", {"kind", "window_s"}, {"kind"})
                try:
                    kwargs["forecast"] = ForecastKind(fc["kind"])
                except ValueError:
                    raise SchemaError(
                        f"{path}.forecast.kind: unknown forecast {fc['kind']!r}"
                    )
                kwargs["window_s"] = _number(fc, "window_s", f"{path}.forecast", 0.2)
        return Policy(**kwargs)
    except (ValueError, TypeError) as exc:
        raise _semantic(path, exc)


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"not valid YAML: {exc}")
    if doc is None:
        doc = {}
    doc = _require_mapping(doc, "document")
    missing = sorted(k for k in ("servers", "policy", "sim") if k not in doc)
    if missing:
        raise SchemaError("document: missing required sections: " + ", ".join(missing))
    _check_keys(doc, "document", _TOP_KEYS)

    # topology
    topo_obj = _require_mapping(doc.get("topology", {}), "topology")
    _check_keys(
        topo_obj,
        "topology",
        {
            "compute_spines",
            "compute_leaves",
            "converged_spines",
            "converged_leaves",
            "link_capacity_gbps",
            "fronthaul_gbps_per_mhz_per_port",
        },
    )
    topology = TopologySpec(
        compute_spines=int(_number(topo_obj, "compute_spines", "topology", 2)),
        compute_leaves=int(_number(topo_obj, "compute_leaves", "topology", 4)),
        converged_spines=int(_number(topo_obj, "converged_spines", "topology", 2)),
        converged_leaves=int(_number(topo_obj, "converged_leaves", "topology", 4)),
        link_capacity_gbps=_number(topo_obj, "link_capacity_gbps", "topology", 100.0),
        fronthaul=FronthaulCalibration(
            gbps_per_mhz_per_port=_number(
                topo_obj, "fronthaul_gbps_per_mhz_per_port", "topology", 0.05
            )
        ),
    )

    # servers and GPUs
    servers_obj = doc["servers"]
    if not isinstance(servers_obj, list) or not servers_obj:
        raise SchemaError("servers: expected a non-empty list")
    servers = []
    for i, sobj in enumerate(servers_obj):
        spath = f"servers[{i}]"
        sobj = _require_mapping(sobj, spath)
        _check_keys(
            sobj,
            spath,
            {
                "id",
                "cpu_cores",
                "nf_bundle",
                "frontend_port_gbps",
                "backend_port_gbps",
                "gpus",
            },
            {"id", "gpus"},
        )
        sid = _ident(sobj, spath)
        bundle_raw = sobj.get("nf_bundle", "DU_CU_CN")
        try:
            bundle = NfBundle(bundle_raw)
        except ValueError:
            raise SchemaError(f"{spath}.nf_bundle: unknown bundle {bundle_raw!r}")
        gpus_obj = sobj["gpus"]
        if not isinstance(gpus_obj, list) or not gpus_obj:
            raise SchemaError(f"{spath}.gpus: expected a non-empty list")
        gpus = []
        for j, gobj in enumerate(gpus_obj):
            gpath = f"{spath}.gpus[{j}]"
            gobj = _require_mapping(gobj, gpath)
            _check_keys(
                gobj, gpath, {"id", "memory_units", "partition_granularity"}, {"id"}
            )
            try:
                gpus.append(
                    GpuDevice(
                        id=_ident(gobj, gpath),
                        memory_units=int(_number(gobj, "memory_units", gpath, 96)),
                        partition_granularity=_number(
                            gobj, "partition_granularity", gpath, 0.05
                        ),
                    )
                )
            except (ValueError, TypeError) as exc:
                raise _semantic(gpath, exc)
        try:
            servers.append(
                Server(
                    id=sid,
                    gpus=tuple(gpus),
                    cpu_cores=int(_number(sobj, "cpu_cores", spath, 64)),
                    hosted_nf_bundle=bundle,
                    frontend_port_gbps=_number(sobj, "frontend_port_gbps", spath, 100.0),
                    backend_port_gbps=_number(sobj, "backend_port_gbps", spath, 100.0),
                )
            )
        except (ValueError, TypeError) as exc:
            raise _semantic(spath, exc)
    server_ids = {s.id for s in servers}

    # calibration
    calib_obj = _require_mapping(doc.get("calibration", {}), "calibration")
    _check_keys(
        calib_obj,
        "calibration",
        {
            "reference_cell",
            "reference_peak_fraction",
            "bandwidth_exponent",
            "antenna_exponent",
            "idle_floor_fraction",
        },
    )
    ref_obj = _require_mapping(calib_obj.get("reference_cell", {}), "calibration.reference_cell")
    _check_keys(
        ref_obj,
        "calibration.reference_cell",
        {"bandwidth_mhz", "scs_khz", "tx_antennas", "rx_antennas"},
    )
    try:
        ref_cell = CellConfig(
            bandwidth_mhz=_number(ref_obj, "bandwidth_mhz", "calibration.reference_cell", 100.0),
            scs_khz=int(_number(ref_obj, "scs_khz", "calibration.reference_cell", 30)),
            tx_antennas=int(_number(ref_obj, "tx_antennas", "calibration.reference_cell", 4)),
            rx_antennas=int(_number(ref_obj, "rx_antennas", "calibration.reference_cell", 4)),
        )
        calibration = Calibration(
            reference_cell=ref_cell,
            reference_peak_fraction=_number(
                calib_obj, "reference_peak_fraction", "calibration", 0.40
            ),
            bandwidth_exponent=_number(calib_obj, "bandwidth_exponent", "calibration", 1.0),
            antenna_exponent=_number(calib_obj, "antenna_exponent", "calibration", 1.0),
            idle_floor_fraction=_number(calib_obj, "idle_floor_fraction", "calibration", 0.0),
        )
    except (ValueError, TypeError) as exc:
        raise _semantic("calibration", exc)

    # profiles
    profiles: dict[str, LoadProfile] = {}
    for i, pobj in enumerate(doc.get("profiles", []) or []):
        ppath = f"profiles[{i}]"
        pid, profile = _parse_profile(_require_mapping(pobj, ppath), ppath)
        if pid in profiles:
            raise SchemaError(f"{ppath}: duplicate profile id {pid!r}")
        profiles[pid] = profile

    # cells
    cells = []
    for i, cobj in enumerate(doc.get("cells", []) or []):
        cpath = f"cells[{i}]"
        cobj = _require_mapping(cobj, cpath)
        _check_keys(
            cobj,
            cpath,
            {
                "id",
                "server",
                "bandwidth_mhz",
                "scs_khz",
                "tx_antennas",
                "rx_antennas",
                "profile",
            },
            {"id", "server", "profile"},
        )
        cid = _ident(cobj, cpath)
        server_ref = cobj["server"]
        if server_ref not in server_ids:
            raise SchemaError(f"{cpath}.server: unknown server {server_ref!r}")
        profile_ref = cobj["profile"]
        if profile_ref not in profiles:
            raise SchemaError(f"{cpath}.profile: unknown profile {profile_ref!r}")
        try:
            config = CellConfig(
                bandwidth_mhz=_number(cobj, "bandwidth_mhz", cpath, 100.0),
                scs_khz=int(_number(cobj, "scs_khz", cpath, 30)),
                tx_antennas=int(_number(cobj, "tx_antennas", cpath, 4)),
                rx_antennas=int(_number(cobj, "rx_antennas", cpath, 4)),
            )
        except (ValueError, TypeError) as exc:
            raise _semantic(cpath, exc)
        cells.append(
            CellSpec(id=cid, config=config, profile=profiles[profile_ref], server_id=server_ref)
        )

    # AI workloads
    workloads = []
    for i, wobj in enumerate(doc.get("ai_workloads", []) or []):
        wpath = f"ai_workloads[{i}]"
        wobj = _require_mapping(wobj, wpath)
        _check_keys(
            wobj,
            wpath,
            {
                "id",
                "arrival",
                "rate_per_s",
                "arrivals",
                "job_size",
                "demand_fraction",
                "slo_class",
                "latency_bound_s",
            },
            {"id", "arrival"},
        )
        wid = _ident(wobj, wpath)
        try:
            arrival = ArrivalKind(wobj["arrival"])
        except ValueError:
            raise SchemaError(f"{wpath}.arrival: unknown arrival kind {wobj['arrival']!r}")
        slo_raw = wobj.get("slo_class", "batch")
        try:
            slo = SloClass(slo_raw)
        except ValueError:
            raise SchemaError(f"{wpath}.slo_class: unknown class {slo_raw!r}")
        arrivals = wobj.get("arrivals", [])
        if not isinstance(arrivals, list):
            raise SchemaError(f"{wpath}.arrivals: expected a list of times")
        try:
            workloads.append(
                AiWorkload(
                    id=wid,
                    arrival=arrival,
                    rate_per_s=_number(wobj, "rate_per_s", wpath, 0.0),
                    trace_arrivals=tuple(float(t) for t in arrivals),
                    job_size=_parse_distribution(
                        wobj.get("job_size"), f"{wpath}.job_size", Distribution("constant", value=1.0)
                    ),
                    demand_fraction=_parse_distribution(
                        wobj.get("demand_fraction"),
                        f"{wpath}.demand_fraction",
                        Distribution("constant", value=1.0),
                    ),
                    slo_class=slo,
                    latency_bound_s=_number(wobj, "latency_bound_s", wpath, 0.0),
                )
            )
        except (ValueError, TypeError) as exc:
            raise _semantic(wpath, exc)

    policy = _parse_policy(_require_mapping(doc["policy"], "policy"), "policy")

    # explicit flows
    static_flows = []
    servers_by_id = {s.id: s for s in servers}
    for i, fobj in enumerate(doc.get("flows", []) or []):
        fpath = f"flows[{i}]"
        fobj = _require_mapping(fobj, fpath)
        _check_keys(fobj, fpath, {"id", "server", "kind", "rate_gbps"}, {"id", "server", "kind"})
        fid = _ident(fobj, fpath)
        server_ref = fobj["server"]
        if server_ref not in server_ids:
            raise SchemaError(f"{fpath}.server: unknown server {server_ref!r}")
        rate = _number(fobj, "rate_gbps", fpath, 0.0)
        kind_raw = fobj["kind"]
        if kind_raw == "egress":
            kind = egress_target(servers_by_id[server_ref])
            static_flows.append(flow(fid, server_ref, "wan", rate, kind))
        elif kind_raw == "ai_wired":
            static_flows.append(flow(fid, "wan", server_ref, rate, FlowKind.AI_WIRED))
        else:
            raise SchemaError(f"{fpath}.kind: expected 'egress' or 'ai_wired'")

    # sim section
    sim_obj = _require_mapping(doc["sim"], "sim")
    _check_keys(sim_obj, "sim", {"horizon_s", "seed", "sample_interval_s"}, {"horizon_s", "seed"})
    seed = sim_obj["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError("sim.seed: expected an integer")

    scenario = Scenario(
        name=name,
        servers=tuple(servers),
        cells=tuple(cells),
        calibration=calibration,
        ai_workloads=tuple(workloads),
        policy=policy,
        horizon_s=_number(sim_obj, "horizon_s", "sim"),
        seed=seed,
        sample_interval_s=_number(sim_obj, "sample_interval_s", "sim", 0.01),
        topology=topology,
        static_flows=tuple(static_flows),
    )
    problems = scenario.validate()
    if problems:
        raise SemanticError("; ".join(problems))
    return scenario


def load_scenario(path) -> Scenario:
    import pathlib

    p = pathlib.Path(path)
    return parse_scenario(p.read_text(encoding="utf-8"), name=p.stem)


# -- scenario write-back ------------------------------------------------------


def write_scenario(scenario: Scenario) -> str:
    """Serialize a Scenario back to the document format (identity under parse)."""
    doc: dict = {}
    doc["topology"] = {
        "compute_spines": scenario.topology.compute_spines,
        "compute_leaves": scenario.topology.compute_leaves,
        "converged_spines": scenario.topology.converged_spines,
        "converged_leaves": scenario.topology.converged_leaves,
        "link_capacity_gbps": scenario.topology.link_capacity_gbps,
        "fronthaul_gbps_per_mhz_per_port": scenario.topology.fronthaul.gbps_per_mhz_per_port,
    }
    doc["servers"] = [
        {
            "id": s.id,
            "cpu_cores": s.cpu_cores,
            "nf_bundle": s.hosted_nf_bundle.value,
            "frontend_port_gbps": s.frontend_port_gbps,
            "backend_port_gbps": s.backend_port_gbps,
            "gpus": [
                {
                    "id": g.id,
                    "memory_units": g.memory_units,
                    "partition_granularity": g.partition_granularity,
                }
                for g in s.gpus
            ],
        }
        for s in scenario.servers
    ]
    ref = scenario.calibration.reference_cell
    doc["calibration"] = {
        "reference_cell": {
            "bandwidth_mhz": ref.bandwidth_mhz,
            "scs_khz": ref.scs_khz,
            "tx_antennas": ref.tx_antennas,
            "rx_antennas": ref.rx_antennas,
        },
        "reference_peak_fraction": scenario.calibration.reference_peak_fraction,
        "bandwidth_exponent": scenario.calibration.bandwidth_exponent,
        "antenna_exponent": scenario.calibration.antenna_exponent,
        "idle_floor_fraction": scenario.calibration.idle_floor_fraction,
    }
    profiles = []
    cells = []
    seen: dict[int, str] = {}
    for cell in scenario.cells:
        key = id(cell.profile)
        if key not in seen:
            pid = f"profile-{len(seen)}"
            seen[key] = pid
            p = cell.profile
            if p.kind is ProfileKind.CONSTANT:
                profiles.append({"id": pid, "kind": "constant", "level": p.level})
            elif p.kind is ProfileKind.DIURNAL_SINUSOID:
                profiles.append(
                    {
                        "id": pid,
                        "kind": "diurnal",
                        "min": p.minimum,
                        "max": p.maximum,
                        "period_s": p.period_s,
                        "phase": p.phase,
                    }
                )
            else:
                profiles.append(
                    {"id": pid, "kind": "trace", "points": [[t, v] for t, v in p.points]}
                )
        cells.append(
            {
                "id": cell.id,
                "server": cell.server_id,
                "bandwidth_mhz": cell.config.bandwidth_mhz,
                "scs_khz": cell.config.scs_khz,
                "tx_antennas": cell.config.tx_antennas,
                "rx_antennas": cell.config.rx_antennas,
                "profile": seen[key],
            }
        )
    if profiles:
        doc["profiles"] = profiles
    if cells:
        doc["cells"] = cells
    workloads = []
    for w in scenario.ai_workloads:
        wobj: dict = {"id": w.id, "arrival": w.arrival.value}
        if w.arrival is ArrivalKind.POISSON:
            wobj["rate_per_s"] = w.rate_per_s
        if w.arrival is ArrivalKind.TRACE:
            wobj["arrivals"] = list(w.trace_arrivals)
        wobj["job_size"] = _dist_doc(w.job_size)
        wobj["demand_fraction"] = _dist_doc(w.demand_fraction)
        wobj["slo_class"] = w.slo_class.value
        if w.slo_class is SloClass.INTERACTIVE:
            wobj["latency_bound_s"] = w.latency_bound_s
        workloads.append(wobj)
    if workloads:
        doc["ai_workloads"] = workloads
    p = scenario.policy
    pobj: dict = {"kind": p.kind.value}
    if p.split_gpus:
        pobj["gpus"] = list(p.split_gpus)
    if p.kind is PolicyKind.STATIC_SPLIT:
        pobj["ran_fraction"] = p.ran_fraction
        pobj["ai_fraction"] = p.ai_fraction
    elif p.kind is PolicyKind.TIME_SPLIT:
        pobj["schedule"] = [
            {"start_s": s, "end_s": e, "ran_fraction": r} for s, e, r in p.schedule
        ]
    else:
        pobj["epoch_s"] = p.epoch_s
        pobj["safety_margin"] = p.safety_margin
        pobj["forecast"] = {"kind": p.forecast.value, "window_s": p.window_s}
    if p.queue_bound is not None:
        pobj["queue_bound"] = p.queue_bound
    if p.resume_delay_s:
        pobj["resume_delay_s"] = p.resume_delay_s
    if p.settle_slots != 1:
        pobj["settle_slots"] = p.settle_slots
    doc["policy"] = pobj
    if scenario.static_flows:
        flows = []
        for f in scenario.static_flows:
            if f.kind is FlowKind.AI_WIRED:
                flows.append(
                    {"id": f.id, "server": f.dst, "kind": "ai_wired", "rate_gbps": f.rate_gbps}
                )
            else:
                flows.append(
                    {"id": f.id, "server": f.src, "kind": "egress", "rate_gbps": f.rate_gbps}
                )
        doc["flows"] = flows
    doc["sim"] = {
        "horizon_s": scenario.horizon_s,
        "seed": scenario.seed,
        "sample_interval_s": scenario.sample_interval_s,
    }
    return yaml.safe_dump(doc, sort_keys=False)


def _dist_doc(d: Distribution) -> dict:
    if d.kind == "constant":
        return {"kind": "constant", "value": d.value}
    if d.kind == "exponential":
        return {"kind": "exponential", "mean": d.mean}
    return {"kind": "uniform", "low": d.low, "high": d.high}


# -- report serialization -------------------------------------------------------


RECORDS_HEADER = "record,time_s,gpu_id,ran_fraction,ai_fraction,annotation"


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
        f"# scenario={report.scenario_name} horizon_s={report.horizon_s:.6f} "
        f"sample_interval_s={report.sample_interval_s:.6f} seed={report.seed}",
        "# gpus=" + ",".join(report.gpu_ids),
        f"# jobs completed={report.job_stats.completed} "
        f"preempted_events={report.job_stats.preempted_events} "
        f"rejected={report.job_stats.rejected} "
        f"queued_at_end={report.job_stats.queued_at_end} "
        f"running_at_end={report.job_stats.running_at_end} "
        f"mean_wait_s={report.job_stats.mean_wait_s:.6f} "
        f"p95_wait_s={report.job_stats.p95_wait_s:.6f} "
        f"mean_turnaround_s={report.job_stats.mean_turnaround_s:.6f}",
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
    """Rebuild a MetricsReport from RECORDS output (inverse of write_report)."""
    meta: dict[str, str] = {}
    gpu_ids: tuple[str, ...] = ()
    job_kv: dict[str, str] = {}
    rows: list[TraceRecord] = []
    events: list[EventRecord] = []
    misses: list[DeadlineMiss] = []
    fabric: list[EventRecord] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("scenario="):
                for token in body.split():
                    k, _, v = token.partition("=")
                    meta[k] = v
            elif body.startswith("gpus="):
                raw = body[len("gpus="):]
                gpu_ids = tuple(raw.split(",")) if raw else ()
            elif body.startswith("jobs "):
                for token in body[len("jobs "):].split():
                    k, _, v = token.partition("=")
                    job_kv[k] = v
            continue
        if line == RECORDS_HEADER:
            continue
        kind, t_raw, subject, ran_raw, ai_raw, annotation = line.split(",", 5)
        t = float(t_raw)
        if kind == "sample":
            rows.append(TraceRecord(t, subject, float(ran_raw), float(ai_raw), annotation))
        elif kind == "event":
            ev_kind, _, detail = annotation.partition(" ")
            events.append(EventRecord(t, ev_kind, subject, detail))
        elif kind == "miss":
            misses.append(DeadlineMiss(t, subject, float(annotation.split("=", 1)[1])))
        elif kind == "fabric":
            fabric.append(EventRecord(t, "capacity", subject, annotation))
        else:
            raise ParseError(f"unknown record type {kind!r}")
    if "scenario" not in meta:
        raise ParseError("missing records metadata header")
    job_stats = JobStats(
        completed=int(job_kv.get("completed", 0)),
        preempted_events=int(job_kv.get("preempted_events", 0)),
        rejected=int(job_kv.get("rejected", 0)),
        queued_at_end=int(job_kv.get("queued_at_end", 0)),
        running_at_end=int(job_kv.get("running_at_end", 0)),
        mean_wait_s=float(job_kv.get("mean_wait_s", 0.0)),
        p95_wait_s=float(job_kv.get("p95_wait_s", 0.0)),
        mean_turnaround_s=float(job_kv.get("mean_turnaround_s", 0.0)),
    )
    try:
        trace = Trace.from_records(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if len(trace):
        summary = summarize(trace, len(misses))
    else:
        summary = Summary({}, 0.0, len(misses))
    return MetricsReport(
        scenario_name=meta["scenario"],
        horizon_s=float(meta["horizon_s"]),
        sample_interval_s=float(meta["sample_interval_s"]),
        seed=int(meta["seed"]),
        gpu_ids=gpu_ids,
        trace=trace,
        events=events,
        deadline_misses=misses,
        fabric_violations=fabric,
        job_stats=job_stats,
        summary=summary,
    )
