"""Spine-leaf compute and converged fabrics, flow routing, and PTP timing.

The reference build follows a two-tier layout: a compute fabric whose leaf
pairs split into fronthaul pairs (radio-unit side, behind a cell-site
aggregation router) and server pairs (GPU-server frontends), plus a
disjoint converged fabric for server backends reaching midhaul, backhaul,
or the internet through a WAN router. Each fronthaul leaf carries a PTP
grandmaster; the aggregation router is timing-transparent, so it does not
count as a synchronization hop.

Routing is fluid ECMP (RFC 2992) by shortest-path counts: a flow splits
evenly over its shortest paths, and a link (a, b) lies on sigma_s(a) *
sigma_t(b) of them (Brandes, J. Math. Sociol. 25(2), 2001), so two
breadth-first passes per flow route it without enumerating a path.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum

from .compute import NfBundle, Server
from .errors import InvalidCounts, NodeIdClash, NoPath, OddLeafCount, UnreachableEndpoint
from .workload import CellConfig

Adjacency = dict[str, dict[str, str]]  # node -> {neighbour: link id}


class SwitchRole(Enum):
    FRONTHAUL_LEAF = "FRONTHAUL_LEAF"
    SERVER_LEAF = "SERVER_LEAF"
    COMPUTE_SPINE = "COMPUTE_SPINE"
    CONVERGED_LEAF = "CONVERGED_LEAF"
    CONVERGED_SPINE = "CONVERGED_SPINE"
    AGGREGATION_ROUTER = "AGGREGATION_ROUTER"


class FlowKind(Enum):
    FRONTHAUL = "FRONTHAUL"
    MIDHAUL = "MIDHAUL"
    BACKHAUL = "BACKHAUL"
    N6 = "N6"
    AI_WIRED = "AI_WIRED"


@dataclass(frozen=True)
class Switch:
    id: str
    role: SwitchRole


@dataclass
class Link:
    endpoint_a: str
    endpoint_b: str
    capacity_gbps: float

    @property
    def id(self) -> str:
        return f"{self.endpoint_a}~{self.endpoint_b}"


@dataclass(frozen=True)
class Flow:
    id: str
    src: str
    dst: str
    kind: FlowKind
    rate_gbps: float = 0.0

    def __post_init__(self):
        if self.rate_gbps < 0:
            raise ValueError("flow rate must be >= 0")


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.rule}({self.subject}): {self.detail}"


@dataclass(frozen=True)
class CapacityViolation:
    link_id: str
    load_gbps: float
    capacity_gbps: float


@dataclass
class FabricTopology:
    switches: dict[str, Switch]
    links: dict[str, Link]
    rus: dict[str, tuple[str, str]]  # RU id -> fronthaul leaf pair
    server_frontends: dict[str, tuple[str, str]]  # server id -> server leaf pair
    server_backends: dict[str, tuple[str, str]]  # server id -> converged leaf pair
    gm_switches: list[str]
    aggregation_router: str = "agg"

    def _adjacency(self) -> Adjacency:
        """Every switch and link endpoint, read from the link table as it is now."""
        adj: Adjacency = {sid: {} for sid in self.switches}
        for link in self.links.values():
            adj.setdefault(link.endpoint_a, {})[link.endpoint_b] = link.id
            adj.setdefault(link.endpoint_b, {})[link.endpoint_a] = link.id
        return adj

    def ids_with_role(self, role: SwitchRole) -> list[str]:
        return sorted(s.id for s in self.switches.values() if s.role is role)


@dataclass(frozen=True)
class SyncTree:
    grandmaster: str
    paths: dict[str, tuple[str, ...]]
    max_hops: int


@dataclass(frozen=True)
class FronthaulCalibration:
    gbps_per_mhz_per_port: float = 0.05


def _pairs(ids: list[str]) -> list[tuple[str, str]]:
    return [(ids[i], ids[i + 1]) for i in range(0, len(ids), 2)]


def build_reference_fabric(
    n_compute_spines: int,
    n_compute_leaves: int,
    n_converged_spines: int,
    n_converged_leaves: int,
    rus: list[str],
    servers: list[Server],
    link_capacity_gbps: float = 100.0,
) -> FabricTopology:
    """Construct the two-fabric reference topology.

    Compute leaves are grouped into pairs; with a single pair the pair is
    dual-role (fronthaul and server attach), otherwise the first half of
    the pairs (rounded up) serve fronthaul and the rest serve servers.
    """
    if n_compute_spines < 1 or n_converged_spines < 1:
        raise InvalidCounts("need at least one spine per fabric")
    if n_compute_leaves < 2 or n_converged_leaves < 2:
        raise InvalidCounts("need at least one leaf pair per fabric")
    if n_compute_leaves % 2 or n_converged_leaves % 2:
        raise OddLeafCount("leaf switches come in pairs")
    if not rus or not servers:
        raise InvalidCounts("need at least one RU and one server")

    switches: dict[str, Switch] = {}
    links: dict[str, Link] = {}

    def add_switch(sid: str, role: SwitchRole):
        switches[sid] = Switch(sid, role)

    def add_link(a: str, b: str, capacity: float):
        link = Link(a, b, capacity)
        links[link.id] = link

    compute_spines = [f"cs{i + 1}" for i in range(n_compute_spines)]
    compute_leaves = [f"cl{i + 1}" for i in range(n_compute_leaves)]
    leaf_pairs = _pairs(compute_leaves)
    if len(leaf_pairs) == 1:
        fronthaul_pairs = server_pairs = leaf_pairs
    else:
        split = (len(leaf_pairs) + 1) // 2
        fronthaul_pairs, server_pairs = leaf_pairs[:split], leaf_pairs[split:]
    fronthaul_leaves = [l for p in fronthaul_pairs for l in p]
    server_leaves = [l for p in server_pairs for l in p]

    for sid in compute_spines:
        add_switch(sid, SwitchRole.COMPUTE_SPINE)
    for sid in compute_leaves:
        role = (
            SwitchRole.FRONTHAUL_LEAF if sid in fronthaul_leaves else SwitchRole.SERVER_LEAF
        )
        add_switch(sid, role)
    for leaf in compute_leaves:
        for spine in compute_spines:
            add_link(leaf, spine, link_capacity_gbps)

    converged_spines = [f"vs{i + 1}" for i in range(n_converged_spines)]
    converged_leaves = [f"vl{i + 1}" for i in range(n_converged_leaves)]
    converged_pairs = _pairs(converged_leaves)
    for sid in converged_spines:
        add_switch(sid, SwitchRole.CONVERGED_SPINE)
    for sid in converged_leaves:
        add_switch(sid, SwitchRole.CONVERGED_LEAF)
    for leaf in converged_leaves:
        for spine in converged_spines:
            add_link(leaf, spine, link_capacity_gbps)

    # Cell-site aggregation: every RU reaches its fronthaul pair through it.
    add_switch("agg", SwitchRole.AGGREGATION_ROUTER)
    for leaf in fronthaul_leaves:
        add_link("agg", leaf, link_capacity_gbps)
    ru_homes: dict[str, tuple[str, str]] = {}
    for i, ru in enumerate(rus):
        pair = fronthaul_pairs[i % len(fronthaul_pairs)]
        ru_homes[ru] = pair
        add_link(ru, "agg", link_capacity_gbps)

    # WAN exit for midhaul/backhaul/N6 behind the converged spines.
    add_switch("wan", SwitchRole.AGGREGATION_ROUTER)
    for spine in converged_spines:
        add_link("wan", spine, link_capacity_gbps)

    frontends: dict[str, tuple[str, str]] = {}
    backends: dict[str, tuple[str, str]] = {}
    for i, server in enumerate(servers):
        fe_pair = server_pairs[i % len(server_pairs)]
        be_pair = converged_pairs[i % len(converged_pairs)]
        frontends[server.id] = fe_pair
        backends[server.id] = be_pair
        for leaf in fe_pair:
            add_link(server.id, leaf, server.frontend_port_gbps)
        for leaf in be_pair:
            add_link(server.id, leaf, server.backend_port_gbps)

    clashes = [n for n, k in Counter([*switches, *rus, *frontends]).items() if k > 1]
    if clashes:
        raise NodeIdClash(f"fabric node ids used twice: {', '.join(sorted(clashes))}")
    return FabricTopology(
        switches=switches,
        links=links,
        rus=ru_homes,
        server_frontends=frontends,
        server_backends=backends,
        gm_switches=sorted(fronthaul_leaves),
    )


def validate_topology(topology: FabricTopology) -> list[Violation]:
    """Structural checks; returns violations as data rather than raising."""
    violations: list[Violation] = []
    adj = topology._adjacency()

    def linked(a: str, b: str) -> bool:
        return b in adj.get(a, ())

    spine_sets = (
        (SwitchRole.COMPUTE_SPINE, (SwitchRole.FRONTHAUL_LEAF, SwitchRole.SERVER_LEAF)),
        (SwitchRole.CONVERGED_SPINE, (SwitchRole.CONVERGED_LEAF,)),
    )
    for spine_role, leaf_roles in spine_sets:
        spines = topology.ids_with_role(spine_role)
        leaves = [l for r in leaf_roles for l in topology.ids_with_role(r)]
        for leaf in leaves:
            for spine in spines:
                if not linked(leaf, spine):
                    detail = f"missing {spine_role.value} mesh link"
                    violations.append(Violation("BipartiteIncomplete", f"{leaf}~{spine}", detail))

    agg = topology.aggregation_router
    for ru, pair in sorted(topology.rus.items()):
        if len(set(pair)) != 2:
            violations.append(
                Violation("RedundancyViolation", ru, "RU homed to fewer than two leaves")
            )
            continue
        if not linked(ru, agg):
            violations.append(Violation("RedundancyViolation", ru, "RU not on aggregation"))
        for leaf in pair:
            if not linked(agg, leaf):
                violations.append(
                    Violation("RedundancyViolation", ru, f"aggregation not linked to {leaf}")
                )

    attachments = (("frontend", topology.server_frontends), ("backend", topology.server_backends))
    for side, homes in attachments:
        for server, pair in sorted(homes.items()):
            for leaf in pair:
                if not linked(server, leaf):
                    detail = f"{side} missing link to {leaf}"
                    violations.append(Violation("AttachmentViolation", server, detail))

    fronthaul_leaves = topology.ids_with_role(SwitchRole.FRONTHAUL_LEAF)
    gms = set(topology.gm_switches)
    if not gms:
        violations.append(Violation("GmMissing", "-", "no grandmaster in fabric"))
    for leaf in fronthaul_leaves:
        if leaf not in gms:
            violations.append(Violation("GmMissing", leaf, "fronthaul leaf without GM"))

    return violations


def _bfs_path(adj: Adjacency, src: str, dst: str) -> list[str] | None:
    """Deterministic shortest path; ties broken by lowest node id."""
    if src == dst:
        return [src]
    parent: dict[str, str] = {src: src}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for nxt in sorted(adj[node]):
            if nxt not in parent:
                parent[nxt] = node
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return path[::-1]
                frontier.append(nxt)
    return None


def sync_hops(topology: FabricTopology, path: tuple[str, ...]) -> int:
    """PTP hops along a path; timing-transparent aggregation nodes are skipped."""
    transparent = set(topology.ids_with_role(SwitchRole.AGGREGATION_ROUTER))
    return sum(n not in transparent for n in path) - 1


def build_ptp_tree(topology: FabricTopology) -> SyncTree:
    """Timing distribution from fronthaul-leaf grandmasters to RUs and DU servers.

    Every RU takes timing from its homing pair's lower-id GM; every server
    hosting a DU takes timing from the nearest GM (lowest id on ties), per
    the fabric-sourced synchronization layout.
    """
    adj = topology._adjacency()
    paths: dict[str, tuple[str, ...]] = {}

    for ru, pair in sorted(topology.rus.items()):
        gm = min(pair)
        path = _bfs_path(adj, gm, ru)
        if path is None:
            raise UnreachableEndpoint(f"RU {ru} cannot reach grandmaster {gm}")
        paths[ru] = tuple(path)

    # Every bundle in this model includes a DU.
    for server in sorted(topology.server_frontends):
        best: list[str] | None = None
        for gm in sorted(topology.gm_switches):
            path = _bfs_path(adj, gm, server)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        if best is None:
            raise UnreachableEndpoint(f"server {server} cannot reach any grandmaster")
        paths[server] = tuple(best)

    max_hops = max(sync_hops(topology, p) for p in paths.values()) if paths else 0
    grandmaster = min(topology.gm_switches) if topology.gm_switches else ""
    return SyncTree(grandmaster=grandmaster, paths=paths, max_hops=max_hops)


def _path_counts(adj: Adjacency, src: str) -> tuple[dict[str, int], dict[str, int]]:
    """Hop distance and shortest-path count from ``src`` to every reachable node."""
    dist, sigma = {src: 0}, {src: 1}
    frontier = [src]
    while frontier:
        ring = []
        for a in frontier:
            d = dist[a] + 1
            for b in adj[a]:
                if b not in dist:
                    dist[b], sigma[b] = d, 0
                    ring.append(b)
                if dist[b] == d:
                    sigma[b] += sigma[a]
        frontier = ring
    return dist, sigma


def route_flows(
    topology: FabricTopology, flows: list[Flow]
) -> tuple[dict[str, float], list[CapacityViolation]]:
    """Fluid equal-cost routing: each flow splits evenly over all shortest paths."""
    adj = topology._adjacency()
    loads: dict[str, float] = {link_id: 0.0 for link_id in topology.links}
    for f in flows:
        if f.src not in adj or f.dst not in adj:
            raise NoPath(f"flow {f.id}: unknown endpoint")
        d_s, sigma_s = _path_counts(adj, f.src)
        if f.dst not in d_s:
            raise NoPath(f"flow {f.id}: {f.src} and {f.dst} are disconnected")
        d_t, sigma_t = _path_counts(adj, f.dst)
        hops = d_s[f.dst]
        share = f.rate_gbps / sigma_s[f.dst]
        for a, d in d_s.items():
            if d + d_t[a] != hops:
                continue  # on no shortest path
            for b, link_id in adj[a].items():
                if d + 1 + d_t[b] == hops:
                    # once per path through (a, b), the same sum as walking each path
                    for _ in range(sigma_s[a] * sigma_t[b]):
                        loads[link_id] += share
    violations = [
        CapacityViolation(link_id, load, topology.links[link_id].capacity_gbps)
        for link_id, load in sorted(loads.items())
        if load > topology.links[link_id].capacity_gbps + 1e-9
    ]
    return loads, violations


def fronthaul_rate(cell: CellConfig, fh_calib: FronthaulCalibration) -> float:
    """Fronthaul line rate for one cell: per-MHz-per-port constant scaling."""
    return fh_calib.gbps_per_mhz_per_port * cell.bandwidth_mhz * max(
        cell.tx_antennas, cell.rx_antennas
    )


def egress_target(server: Server) -> FlowKind:
    """Where a server's north-south traffic exits, by hosted NF bundle."""
    return {
        NfBundle.DU_ONLY: FlowKind.MIDHAUL,
        NfBundle.DU_CU: FlowKind.BACKHAUL,
        NfBundle.DU_CU_CN: FlowKind.N6,
    }[server.hosted_nf_bundle]
