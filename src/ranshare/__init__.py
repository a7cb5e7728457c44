"""ranshare: deterministic simulation of RAN/AI co-scheduling on shared GPUs."""

from .compute import (
    GpuDevice,
    GpuInstance,
    NfBundle,
    Server,
    TenantClass,
    partition_gpu,
    repartition,
)
from .engine import (
    CellSpec,
    EventKind,
    MetricsReport,
    Scenario,
    SimEngine,
    Summary,
    TopologySpec,
    Trace,
    TraceRecord,
    mix_seed,
    run,
    summarize,
)
from .fabric import (
    FabricTopology,
    Flow,
    FlowKind,
    FronthaulCalibration,
    SyncTree,
    build_ptp_tree,
    build_reference_fabric,
    egress_target,
    fronthaul_rate,
    route_flows,
    validate_topology,
)
from .orchestrator import (
    ClusterState,
    DeadlineMiss,
    ForecastKind,
    Policy,
    PolicyKind,
    apply_actions,
    plan_placement,
    policy_epoch,
)
from .scenario import load_scenario, parse_records, parse_scenario, write_report, write_scenario
from .workload import (
    AiJob,
    AiWorkload,
    ArrivalKind,
    Calibration,
    CellConfig,
    LoadProfile,
    ProfileKind,
    SloClass,
    constant,
    exponential,
    gen_ai_arrivals,
    ran_peak_fraction,
    slot_duration,
    uniform,
)

__version__ = "0.1.0"
