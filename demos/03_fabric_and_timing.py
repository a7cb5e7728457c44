"""The two-spine/four-leaf reference fabric, flow routing, and PTP timing.

Builds the reference topology (compute fabric for fronthaul, converged
fabric for midhaul/backhaul/internet), validates its structural
invariants, routes a fronthaul flow to show the equal-cost split across
spines, and prints the timing-distribution tree rooted at the
fronthaul-leaf grandmasters.

Run:  python demos/03_fabric_and_timing.py
"""

from ranshare import (
    FlowKind,
    GpuDevice,
    NfBundle,
    Server,
    build_ptp_tree,
    build_reference_fabric,
    egress_target,
    fronthaul_rate,
    route_flows,
    validate_topology,
)
from ranshare.fabric import Flow, FronthaulCalibration, sync_hops
from ranshare.workload import CellConfig

servers = [
    Server(id="edge1", gpus=(GpuDevice("g1"),), hosted_nf_bundle=NfBundle.DU_CU_CN),
    Server(id="edge2", gpus=(GpuDevice("g2"),), hosted_nf_bundle=NfBundle.DU_ONLY),
]
rus = ["ru1", "ru2", "ru3", "ru4"]

topo = build_reference_fabric(
    n_compute_spines=2,
    n_compute_leaves=4,
    n_converged_spines=2,
    n_converged_leaves=4,
    rus=rus,
    servers=servers,
    link_capacity_gbps=100.0,
)

print("=== reference fabric ===")
print(f"switches: {len(topo.switches)}  links: {len(topo.links)}")
violations = validate_topology(topo)
print(f"structural violations: {len(violations)}")

cell = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=4, rx_antennas=4)
rate = fronthaul_rate(cell, FronthaulCalibration(gbps_per_mhz_per_port=0.05))
print(f"\nfronthaul line rate for the cell: {rate:.1f} gbps")

loads, overloads = route_flows(topo, [Flow("fh", "ru1", "edge1", FlowKind.FRONTHAUL, rate)])
print("per-spine load after routing a single flow (equal-cost split):")
for spine in ("cs1", "cs2"):
    through = sum(l for link, l in loads.items() if spine in link.split("~")) / 2
    print(f"  {spine}: {through:.1f} gbps")
print(f"capacity violations: {len(overloads)}")

print("\negress per server (decided by the hosted NF bundle):")
for s in servers:
    print(f"  {s.id} ({s.hosted_nf_bundle.value}) -> {egress_target(s).value}")

tree = build_ptp_tree(topo)
print(f"\nPTP grandmaster: {tree.grandmaster}  max sync hops: {tree.max_hops}")
for endpoint, path in sorted(tree.paths.items()):
    print(f"  {endpoint:5s}: {' -> '.join(path)}  ({sync_hops(topo, path)} hops)")
