"""Each check that rejects an input, reached once: (input, exception, message).

An input is a change to ``BASE``, a valid scenario document, wherever a
document can reach the check; ``parse_scenario`` must then refuse it. Where
no document can (the schema stops it first, or the value is built in code),
the input is a call to the constructor or function that makes the value.
No check may be an ``assert`` statement, which ``python -O`` strips.
"""

import ast
import dataclasses
import math
import random
from pathlib import Path

import pytest
import yaml

from ranshare.compute import GpuDevice, GpuInstance, Server, TenantClass, partition_gpu
from ranshare.engine import SimEngine
from ranshare.errors import (
    GranularityViolation,
    InvalidCounts,
    ParseError,
    PartitionOverflow,
    ScenarioInvalid,
    SchemaError,
    SemanticError,
    UnreachableEndpoint,
)
from ranshare.fabric import Flow, FlowKind, build_ptp_tree, build_reference_fabric
from ranshare.orchestrator import PlacementOrder, Policy, PolicyKind, build_cluster_state
from ranshare.scenario import parse_records, parse_scenario
from ranshare.workload import (
    AiJob,
    AiWorkload,
    ArrivalKind,
    CellConfig,
    Distribution,
    LoadProfile,
    ProfileKind,
    SloClass,
    gen_ai_arrivals,
)

GPU = GpuDevice("gpu1")
NAN = math.nan
STATIC = PolicyKind.STATIC_SPLIT
DYNAMIC = PolicyKind.DYNAMIC_BACKFILL
POISSON = AiWorkload(arrival=ArrivalKind.POISSON, rate_per_s=1.0)
CELL = {"id": "c1", "server": "srv1", "profile": "p1"}
BASE = {
    "servers": [{"id": "srv1", "gpus": [{"id": "gpu1"}]}],
    "profiles": [{"id": "p1", "kind": "constant", "level": 0.5}],
    "cells": [CELL],
    "policy": {"kind": "dynamic_backfill"},
    "sim": {"horizon_s": 1.0, "seed": 3},
}


def document(**sections) -> str:
    return yaml.safe_dump({**BASE, **sections}, sort_keys=False)


def _time_split(*intervals):
    return {
        "kind": "time_split",
        "schedule": [
            {"start_s": start, "end_s": end, "ran_fraction": ran} for start, end, ran in intervals
        ],
    }


def _engine(**changes):
    """A SimEngine on ``BASE`` with ``changes`` made to the parsed scenario."""
    sc = parse_scenario(document())
    SimEngine(dataclasses.replace(sc, **{k: change(sc) for k, change in changes.items()}))


def _ru_cut_off():
    topo = build_reference_fabric(1, 2, 1, 2, ["ru1"], [Server("srv1", (GPU,))])
    for link in list(topo.links.values()):
        if "ru1" in (link.endpoint_a, link.endpoint_b):
            del topo.links[link.id]
    build_ptp_tree(topo)


def _dequeue_unqueued():
    server = Server("srv1", (GPU,))
    state = build_cluster_state([server], Policy(kind=PolicyKind.DYNAMIC_BACKFILL), {})
    state.dequeue(AiJob("j1", 0.0, 1.0, 0.5))


_JOBS_HEADER = (
    "# jobs completed=0 preempted_events=0 rejected=0 queued_at_end=0 running_at_end=0"
    " mean_wait_s=0.0 p95_wait_s=0.0 mean_turnaround_s=0.0"
)

CASES = [
    # -- through parse_scenario ------------------------------------------------
    ({"servers": [{"id": "srv1", "gpus": [{"id": "gpu1", "partition_granularity": 0}]}]},
     SemanticError, r"gpu1: granularity 0 outside \(0, 1\]"),
    ({"servers": [{"id": "srv1", "frontend_port_gbps": 0, "gpus": [{"id": "gpu1"}]}]},
     SemanticError, "server srv1: port rates must be positive"),
    ({"sim": {"horizon_s": float("nan"), "seed": 3}},
     SchemaError, "sim.horizon_s: expected a finite number"),
    ({"ai_workloads": [{"id": "w1", "arrival": "trace", "arrivals": [0.5, float("inf")]}]},
     SchemaError, r"ai_workloads\[0\].arrivals: expected a list of times"),
    ({"profiles": [{"id": "p1", "kind": "trace", "points": [[0.0, float("nan")]]}]},
     SchemaError, r"profiles\[0\].points: expected a list of \[time, value\] pairs"),
    ({"sim": {"horizon_s": 1.0, "seed": 3, "sample_interval_s": 0.0001}},
     SemanticError, "sim.sample_interval_s must be >= the slot duration"),
    ({"servers": [{"id": sid, "gpus": [{"id": "gpu1"}]} for sid in ("srv1", "srv2")]},
     SemanticError, "gpu ids must be globally unique"),
    ({"cells": [CELL, {**CELL, "id": "c2", "scs_khz": 15}]},
     SemanticError, "all cells must share one subcarrier spacing"),
    ({"cells": [{**CELL, "tx_antennas": 0}]}, SemanticError, "antenna counts must be >= 1"),
    ({"calibration": {"idle_floor_fraction": 1.5}},
     SemanticError, r"idle_floor_fraction must be in \[0, 1\]"),
    ({"profiles": [{"id": "p1", "kind": "diurnal", "min": 0.2, "max": 0.8, "period_s": 0}]},
     SemanticError, "diurnal period must be positive"),
    ({"profiles": [{"id": "p1", "kind": "trace", "points": [[0.0, 1.5]]}]},
     SemanticError, r"trace value 1.5 outside \[0, 1\]"),
    ({"ai_workloads": [{"id": "w1", "arrival": "poisson", "rate_per_s": -1}]},
     SemanticError, "rate must be >= 0"),
    ({"ai_workloads": [{"id": "w1", "arrival": "trace", "arrivals": [-1.0, 0.5]}]},
     SemanticError, r"ai_workloads\[0\]: trace arrivals must be >= 0"),
    ({"flows": [{"id": "f1", "server": "srv1", "kind": "egress", "rate_gbps": -1}]},
     SemanticError, r"flows\[0\]: flow rate must be >= 0"),
    ({"topology": {"compute_leaves": 0}},
     SemanticError, "topology: need at least one leaf pair per fabric"),
    ({"topology": {"link_capacity_gbps": 0.0}},
     SemanticError, "topology: link_capacity_gbps must be positive"),
    ({"topology": {"link_capacity_gbps": -5.0}},
     SemanticError, "^topology: link_capacity_gbps must be positive$"),
    ({"topology": {"fronthaul_gbps_per_mhz_per_port": -0.05}},
     SemanticError, "topology: fronthaul_gbps_per_mhz_per_port must be >= 0"),
    ({"policy": {"kind": "static_split", "ran_fraction": -0.1, "ai_fraction": 0.5}},
     SemanticError, "split fractions must be >= 0"),
    ({"policy": {"kind": "static_split", "ran_fraction": 0.4, "ai_fraction": 0.6,
                 "gpus": ["nope"]}},
     SemanticError, "policy.gpus: unknown gpu nope"),
    ({"policy": _time_split((0.0, 0.0, 0.4), (0.0, 1.0, 0.4))},
     SemanticError, "schedule interval must have end > start"),
    ({"policy": _time_split((0.0, 1.0, 1.5))},
     SemanticError, r"schedule ran_fraction must be in \[0, 1\]"),
    ({"policy": _time_split((0.0, 0.6, 0.4), (0.5, 1.0, 0.4))},
     SemanticError, "schedule intervals overlap"),
    ({"policy": _time_split((0.5, 1.0, 0.4))},
     SemanticError, "time_split schedule must start at 0"),
    ({"policy": _time_split((-1.0, 1.0, 0.4))},
     SemanticError, "^time_split schedule must start at 0$"),
    ({"policy": _time_split((0.0, 0.4, 0.4), (0.5, 1.0, 0.4))},
     SemanticError, "time_split schedule has gaps"),
    ({"policy": _time_split((0.0, 0.5, 0.4))},
     SemanticError, "time_split schedule does not cover the horizon"),
    ({"policy": _time_split((0.0, 0.0003, 0.4), (0.0003, 1.0, 0.4))},
     SemanticError, "time_split boundary 0.0003 is not on a slot boundary"),
    ({"policy": {"kind": "static_split", "ran_fraction": 0.33, "ai_fraction": 0.31}},
     SemanticError, r"policy: gpu1: 0\.33 is not a multiple of granularity 0\.05"),
    ({"policy": _time_split((0.0, 0.3, 0.42), (0.3, 0.6, 0.4), (0.6, 1.0, 0.42))},
     SemanticError, r"^policy: gpu1: 0\.42 is not a multiple of granularity 0\.05$"),
    ({"policy": {"kind": "dynamic_backfill", "safety_margin": 1.0}},
     SemanticError, r"safety_margin must be in \[0, 1\)"),
    ({"policy": {"kind": "dynamic_backfill",
                 "forecast": {"kind": "max_over_window", "window_s": 0}}},
     SemanticError, "window_s must be positive"),
    # -- through a constructor or function ----------------------------------------
    (lambda: Server("srv1", ()), ValueError, "server srv1: needs at least one GPU"),
    (lambda: GpuInstance("gpu1/s0", 0, 20, TenantClass.RAN),
     GranularityViolation, r"gpu1/s0: units 0 outside 1\.\.20"),
    (lambda: partition_gpu(GPU, -0.1, 0.5), ValueError, r"gpu1: share -0\.1 outside \[0, 1\]"),
    (lambda: partition_gpu(GPU, 0.5, 1.5), ValueError, r"gpu1: share 1\.5 outside \[0, 1\]"),
    (lambda: partition_gpu(GPU, 0.5, 0.6), PartitionOverflow, "gpu1: requested 22/20 units"),
    (lambda: Policy(kind=PolicyKind.TIME_SPLIT), ValueError, "time split needs a schedule"),
    (lambda: Policy(kind=PolicyKind.DYNAMIC_BACKFILL, queue_bound=-1),
     ValueError, "queue_bound must be >= 0"),
    (lambda: _engine(servers=lambda sc: (*sc.servers, Server("srv1", (GpuDevice("gpu2"),)))),
     ScenarioInvalid, "duplicate server ids"),
    (lambda: _engine(cells=lambda sc: (dataclasses.replace(sc.cells[0], server_id="nowhere"),)),
     ScenarioInvalid, "cell c1: unknown server nowhere"),
    (lambda: build_reference_fabric(1, 2, 1, 2, [], [Server("srv1", (GPU,))]),
     InvalidCounts, "need at least one RU and one server"),
    (_ru_cut_off, UnreachableEndpoint, "RU ru1 cannot reach grandmaster"),
    (lambda: Flow("f1", "ru1", "srv1", FlowKind.FRONTHAUL, float("nan")),
     ValueError, "flow rate must be >= 0 and finite, not nan"),
    (lambda: Flow("f1", "ru1", "srv1", FlowKind.FRONTHAUL, float("inf")),
     ValueError, "flow rate must be >= 0 and finite, not inf"),
    (lambda: Distribution(kind="weibull").sample(random.Random(0)),
     ValueError, "unknown distribution kind 'weibull'"),
    (lambda: AiJob("j1", 0.0, 0.0, 0.5), ValueError, "job size must be positive"),
    (lambda: AiJob("j1", 0.0, 1.0, 0.0), ValueError, r"demand_fraction must be in \(0, 1\]"),
    (lambda: gen_ai_arrivals(AiWorkload(), 1, 0.0), ValueError, "horizon must be positive"),
    # -- NaN, which every comparison fails, built in code (the parser refuses it) ----
    (lambda: Server("front", (GPU,), frontend_port_gbps=NAN),
     ValueError, "server front: port rates must be positive"),
    (lambda: Server("back", (GPU,), backend_port_gbps=NAN),
     ValueError, "server back: port rates must be positive"),
    (lambda: Server("cores", (GPU,), cpu_cores=NAN),
     ValueError, "server cores: cpu_cores must be positive"),
    (lambda: Policy(kind=DYNAMIC, epoch_s=NAN), ValueError, "epoch_s must be positive"),
    (lambda: Policy(kind=DYNAMIC, window_s=NAN), ValueError, "^window_s must be positive$"),
    (lambda: Policy(kind=STATIC, resume_delay_s=NAN), ValueError, "resume_delay_s must be >= 0"),
    (lambda: Policy(kind=STATIC, ran_fraction=NAN, ai_fraction=0.5),
     ValueError, "^split fractions must be >= 0$"),
    (lambda: Policy(kind=STATIC, ran_fraction=0.5, ai_fraction=NAN),
     ValueError, "^split fractions must be >= 0"),
    (lambda: Policy(kind=PolicyKind.TIME_SPLIT, schedule=((0.0, NAN, 0.4),)),
     ValueError, "^schedule interval must have end > start$"),
    (lambda: CellConfig(bandwidth_mhz=NAN), ValueError, "bandwidth_mhz must be positive"),
    (lambda: LoadProfile(kind=ProfileKind.DIURNAL_SINUSOID, period_s=NAN),
     ValueError, "^diurnal period must be positive$"),
    (lambda: AiJob("j1", 0.0, NAN, 0.5), ValueError, "^job size must be positive$"),
    (lambda: AiWorkload(slo_class=SloClass.INTERACTIVE, latency_bound_s=NAN),
     ValueError, "interactive workloads need a positive latency bound"),
    (lambda: _engine(horizon_s=lambda sc: NAN), ScenarioInvalid, "sim.horizon_s must be positive"),
    (lambda: _engine(sample_interval_s=lambda sc: NAN),
     ScenarioInvalid, r"^sim\.sample_interval_s must be >= the slot duration$"),
    # -- infinity, which the parser refuses too; a run must not overflow on it ----
    (lambda: _engine(horizon_s=lambda sc: math.inf),
     ScenarioInvalid, r"^sim\.horizon_s must be finite$"),
    (lambda: _engine(sample_interval_s=lambda sc: math.inf),
     ScenarioInvalid, r"^sim\.sample_interval_s must be finite$"),
    # -- arrival inputs under which gen_ai_arrivals would never return ----------
    (lambda: dataclasses.replace(POISSON, rate_per_s=NAN),
     ValueError, "rate must be >= 0 and finite, not nan"),
    (lambda: dataclasses.replace(POISSON, rate_per_s=math.inf),
     ValueError, "rate must be >= 0 and finite, not inf"),
    (lambda: AiWorkload(arrival=ArrivalKind.TRACE, trace_arrivals=(0.5, NAN)),
     ValueError, "trace arrivals must be >= 0 and finite"),
    (lambda: gen_ai_arrivals(POISSON, 1, NAN),
     ValueError, "horizon must be positive and finite, not nan"),
    (lambda: gen_ai_arrivals(POISSON, 1, math.inf),
     ValueError, "horizon must be positive and finite, not inf"),
    (lambda: parse_records("bogus,0.0,x,0,0,\n"), ParseError, "unknown record type 'bogus'"),
    (lambda: parse_records("sample,0.0,gpu1,0.1\n"),
     ParseError, r"line 1: malformed row 'sample,0\.0,gpu1,0\.1'"),
    (lambda: parse_records("sample,soon,gpu1,0.1,0.2,\n"),
     ParseError, "line 1: malformed row 'sample,soon,"),
    (lambda: parse_records("# gpus=gpu1\nsample,0.0,gpu1,high,0.2,\n"),
     ParseError, "line 2: malformed row 'sample,0.0,gpu1,high,"),
    (lambda: parse_records("# gpus=g1,g2,g1\n"),
     ParseError, "line 1: '# gpus=' header names gpu 'g1' twice"),
    (lambda: parse_records("# ranshare-records v1\n# gpus=g1,,g2\n"),
     ParseError, "line 2: '# gpus=' header names an empty gpu id"),
    (lambda: parse_records("# gpus=g1,\n"),
     ParseError, "line 1: '# gpus=' header names an empty gpu id"),
    (lambda: parse_records("# gpus=a\nsample,0.0,a,0.1,0.2,\n# gpus=b\n"
                           "# scenario=other horizon_s=1.0 sample_interval_s=0.1 seed=7\n"
                           "sample,0.1,b,0.1,0.2,\n"),
     ParseError, "line 3: a second '# gpus=' header"),
    (lambda: parse_records("# scenario=one horizon_s=1.0 sample_interval_s=0.1 seed=1\n"
                           "# gpus=a\n# scenario=other horizon_s=1.0 sample_interval_s=0.1 seed=7\n"),
     ParseError, "line 3: a second '# scenario=' header"),
    (lambda: parse_records(f"{_JOBS_HEADER}\n# gpus=\n{_JOBS_HEADER}\n"),
     ParseError, "line 3: a second '# jobs' header"),
    (lambda: parse_records("miss,0.0,srv1,0,0,shortfall\n"),
     ParseError, "line 1: malformed row 'miss,0.0,srv1,0,0,shortfall'"),
    (lambda: parse_records("miss,0.0,srv1,0,0,shortfall=lots\n"),
     ParseError, "line 1: malformed row 'miss,0.0,srv1,0,0,shortfall=lots'"),
    (lambda: PlacementOrder().remove(AiJob("j1", 0.0, 1.0, 0.5)), KeyError, "j1"),
    (_dequeue_unqueued, ValueError, "job j1 is not queued"),
]


def test_base_document_is_valid():
    assert parse_scenario(document()).cells[0].server_id == "srv1"


@pytest.mark.parametrize(
    "given, error, message", CASES, ids=[m.replace("\\", "") for *_, m in CASES]
)
def test_input_is_refused(given, error, message):
    with pytest.raises(error, match=message):
        if isinstance(given, dict):
            parse_scenario(document(**given))
        else:
            given()


def test_checks_do_not_rely_on_assert():
    """``python -O`` strips ``assert`` statements, so no module of the package has one."""
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "ranshare").glob("*.py"))
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert paths and asserts == []
