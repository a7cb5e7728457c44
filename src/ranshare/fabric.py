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
sigma_t(b) of them (Brandes, J. Math. Sociol. 25(2), 2001), so one
breadth-first search per set of neighbours among the flow endpoints routes all
flows without enumerating a path: endpoints with the same neighbours, such as
the RUs behind the aggregation router, share one. No order of searches or
neighbours changes a load: each link's sum is built in one place per flow,
flows in list order. The same search gives the PTP tree.
"""

from __future__ import annotations

import math
from collections import Counter
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
        if not 0 <= self.rate_gbps < math.inf:  # NaN fails both tests
            raise ValueError(f"flow rate must be >= 0 and finite, not {self.rate_gbps}")


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
        """Every switch and link endpoint, neighbours in id order, from the current link table."""
        adj: Adjacency = {sid: {} for sid in self.switches}
        for link in self.links.values():
            adj.setdefault(link.endpoint_a, {})[link.endpoint_b] = link.id
            adj.setdefault(link.endpoint_b, {})[link.endpoint_a] = link.id
        return {node: dict(sorted(nbrs.items())) for node, nbrs in adj.items()}

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

    def __post_init__(self):
        if not self.gbps_per_mhz_per_port >= 0:
            raise ValueError("fronthaul_gbps_per_mhz_per_port must be >= 0")


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
    if not link_capacity_gbps > 0:
        raise ValueError("link_capacity_gbps must be positive")

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


def sync_hops(topology: FabricTopology, path: tuple[str, ...]) -> int:
    """PTP hops along a path; timing-transparent aggregation nodes are skipped."""
    transparent = set(topology.ids_with_role(SwitchRole.AGGREGATION_ROUTER))
    return sum(n not in transparent for n in path) - 1


def build_ptp_tree(topology: FabricTopology) -> SyncTree:
    """Timing distribution from fronthaul-leaf grandmasters to RUs and DU servers.

    Every RU takes timing from its homing pair's lower-id GM; every server
    hosting a DU takes timing from the nearest GM (lowest id on ties), per
    the fabric-sourced synchronization layout. On a path, a node's parent is
    its neighbour one hop closer to the GM that the GM's breadth-first search
    reached first, neighbours taken in id order.
    """
    adj = topology._adjacency()
    gms = sorted(topology.gm_switches)
    homes = {ru: min(pair) for ru, pair in sorted(topology.rus.items())}
    dists = {src: _path_counts(adj, src)[0] for src in {*gms, *homes.values()}}
    paths: dict[str, tuple[str, ...]] = {}

    def tree_path(gm: str, node: str) -> tuple[str, ...]:
        dist, path = dists[gm], [node]
        while dist[path[-1]]:  # parent: the first neighbour reached one hop closer
            here = path[-1]
            path.append(next(n for n in dist if dist[n] == dist[here] - 1 and n in adj[here]))
        return tuple(reversed(path))

    for ru, gm in homes.items():
        if ru not in dists[gm]:
            raise UnreachableEndpoint(f"RU {ru} cannot reach grandmaster {gm}")
        paths[ru] = tree_path(gm, ru)

    # Every bundle in this model includes a DU.
    for server in sorted(topology.server_frontends):
        reach = [(dists[gm][server], gm) for gm in gms if server in dists[gm]]
        if not reach:
            raise UnreachableEndpoint(f"server {server} cannot reach any grandmaster")
        paths[server] = tree_path(min(reach)[1], server)

    max_hops = max(sync_hops(topology, p) for p in paths.values()) if paths else 0
    grandmaster = min(topology.gm_switches) if topology.gm_switches else ""
    return SyncTree(grandmaster=grandmaster, paths=paths, max_hops=max_hops)


def _path_counts(adj: Adjacency, src: str) -> tuple[dict[str, int], dict[str, int]]:
    """Hop distance and shortest-path count from ``src`` to each node reached, in that order."""
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
    """Fluid equal-cost routing: each flow splits evenly over all shortest paths.

    Endpoints with the same neighbours are twins, and only the first of them
    is searched: the others' distances and path counts are its own with the
    two twins' entries swapped, exactly, on any graph. A flow walks only the
    nodes on its shortest paths, layer by layer from its source. Within one
    flow a link (a, b) takes all its ``sigma_s(a) * sigma_t(b)`` additions of
    the share in one place, and flows are added in list order, so neither
    search order nor neighbour order enters any link's sum.
    """
    adj = topology._adjacency()
    loads: dict[str, float] = {link_id: 0.0 for link_id in topology.links}
    searches: dict[str, tuple[dict[str, int], dict[str, int]]] = {}
    twins: dict[frozenset[str], str] = {}  # neighbour set -> the endpoint searched
    for f in flows:
        if f.src not in adj or f.dst not in adj:
            raise NoPath(f"flow {f.id}: unknown endpoint")
        for end in (f.src, f.dst):
            if end in searches:
                continue
            first = twins.setdefault(frozenset(adj[end]), end) if adj[end] else end
            if first == end:
                searches[end] = _path_counts(adj, end)
            else:  # the first twin's tables, the two twins' entries swapped
                dist, sigma = (dict(table) for table in searches[first])
                dist[first], sigma[first], dist[end], sigma[end] = dist[end], sigma[end], 0, 1
                searches[end] = dist, sigma
        (d_s, sigma_s), (d_t, sigma_t) = searches[f.src], searches[f.dst]
        if f.dst not in d_s:
            raise NoPath(f"flow {f.id}: {f.src} and {f.dst} are disconnected")
        hops = d_s[f.dst]
        share = f.rate_gbps / sigma_s[f.dst]
        layer: dict[str, None] = {f.src: None}
        for rest in range(hops - 1, -1, -1):  # hops left after the next layer
            ring: dict[str, None] = {}
            for a in layer:
                for b, link_id in adj[a].items():
                    if d_t[b] == rest:  # so b lies one hop further on a shortest path
                        # once per path through (a, b), the same sum as walking each path
                        for _ in range(sigma_s[a] * sigma_t[b]):
                            loads[link_id] += share
                        ring[b] = None
            layer = ring
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
