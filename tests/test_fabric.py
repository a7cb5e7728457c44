import dataclasses
import math
import random
from collections import Counter, deque

import networkx as nx
import pytest

from ranshare import fabric
from ranshare.compute import GpuDevice, NfBundle, Server
from ranshare.engine import run
from ranshare.errors import NodeIdClash, NoPath, OddLeafCount, UnreachableEndpoint
from ranshare.fabric import (
    CapacityViolation,
    FabricTopology,
    Flow,
    FlowKind,
    FronthaulCalibration,
    Link,
    Switch,
    SwitchRole,
    build_ptp_tree,
    build_reference_fabric,
    egress_target,
    fronthaul_rate,
    route_flows,
    sync_hops,
    validate_topology,
)
from ranshare.scenario import parse_scenario
from ranshare.workload import CellConfig
from test_golden import _load_workloads


def server(sid="srv1", bundle=NfBundle.DU_CU_CN):
    return Server(id=sid, gpus=(GpuDevice(id=f"{sid}-gpu"),), hosted_nf_bundle=bundle)


def reference(rus=("ru1", "ru2"), servers_=None):
    return build_reference_fabric(
        2, 4, 2, 4, list(rus), servers_ or [server()], link_capacity_gbps=100.0
    )


def nx_graph(topo) -> nx.Graph:
    """The topology as a networkx graph: every switch, and every link under its id."""
    g = nx.Graph()
    g.add_nodes_from(topo.switches)
    for link in topo.links.values():
        g.add_edge(link.endpoint_a, link.endpoint_b, link_id=link.id)
    return g


def reference_route_flows(topo, flows):
    """Fluid ECMP by enumeration: ``rate / len(paths)`` added along each sorted shortest path."""
    g = nx_graph(topo)
    loads = {link_id: 0.0 for link_id in topo.links}
    for f in flows:
        if f.src not in g or f.dst not in g:
            raise NoPath(f"flow {f.id}: unknown endpoint")
        try:
            paths = sorted(nx.all_shortest_paths(g, f.src, f.dst))
        except nx.NetworkXNoPath:
            raise NoPath(f"flow {f.id}: {f.src} and {f.dst} are disconnected")
        share = f.rate_gbps / len(paths)
        for path in paths:
            for a, b in zip(path, path[1:]):
                loads[g.edges[a, b]["link_id"]] += share
    violations = [
        CapacityViolation(link_id, load, topo.links[link_id].capacity_gbps)
        for link_id, load in sorted(loads.items())
        if load > topo.links[link_id].capacity_gbps + 1e-9
    ]
    return loads, violations


def reference_bfs_path(adj, src: str, dst: str) -> list[str] | None:
    """A shortest path by a breadth-first search that stops at ``dst``, neighbours in id order."""
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


def reference_ptp_tree(topo):
    """The PTP tree by one ``reference_bfs_path`` per RU and per (server, GM) pair."""
    g = nx_graph(topo)
    paths = {}
    for ru, pair in sorted(topo.rus.items()):
        gm = min(pair)
        path = reference_bfs_path(g, gm, ru)
        if path is None:
            raise UnreachableEndpoint(f"RU {ru} cannot reach grandmaster {gm}")
        paths[ru] = tuple(path)
    for srv in sorted(topo.server_frontends):
        best = None
        for gm in sorted(topo.gm_switches):
            path = reference_bfs_path(g, gm, srv)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        if best is None:
            raise UnreachableEndpoint(f"server {srv} cannot reach any grandmaster")
        paths[srv] = tuple(best)
    max_hops = max(sync_hops(topo, p) for p in paths.values()) if paths else 0
    grandmaster = min(topo.gm_switches) if topo.gm_switches else ""
    return fabric.SyncTree(grandmaster=grandmaster, paths=paths, max_hops=max_hops)


def ptp_outcome(build, topo):
    """The tree ``build`` gives, or the message of the ``UnreachableEndpoint`` it raises."""
    try:
        return build(topo)
    except UnreachableEndpoint as exc:
        return str(exc)


def cluster_fleet(servers=16):
    """The fabric of the ``cluster_diurnal`` fleet with ``servers`` servers (the benchmark
    has 16) and its fronthaul flows, two per server, at 1 Gbps."""
    text = _load_workloads().cluster(servers, 4, 40.0, 10.0, 1, fixed_count=True)
    sc = parse_scenario(text, name="cluster_diurnal")
    flows = [
        Flow(f"fh-{c.id}", f"ru-{c.id}", c.server_id, FlowKind.FRONTHAUL, 1.0) for c in sc.cells
    ]
    return sc.fabric, flows


def count_searches(monkeypatch) -> list[str]:
    """Record the source of every search the fabric module runs from now on."""
    sources: list[str] = []
    search = fabric._path_counts

    def counted(adj, src):
        sources.append(src)
        return search(adj, src)

    monkeypatch.setattr(fabric, "_path_counts", counted)
    return sources


def random_fabric(rng):
    """A random reference fabric and flows over it.

    Each fabric has 1-4 spines and 2-8 leaves, and there are 1-8 RUs and
    1-8 servers. Link and server port capacities are drawn from 10-100 Gbps
    and flow rates up to 60 Gbps, so some links overload. Flows run between
    any two of the RUs, servers, the aggregation router and the WAN router.
    """
    ports = (10.0, 25.0, 40.0, 100.0)
    servers_ = [
        Server(
            id=f"srv{i}", gpus=(GpuDevice(id=f"srv{i}-gpu"),),
            frontend_port_gbps=rng.choice(ports), backend_port_gbps=rng.choice(ports),
        )
        for i in range(rng.randint(1, 8))
    ]
    rus = [f"ru{i}" for i in range(rng.randint(1, 8))]
    topo = build_reference_fabric(
        rng.randint(1, 4), 2 * rng.randint(1, 4), rng.randint(1, 4), 2 * rng.randint(1, 4),
        rus, servers_, link_capacity_gbps=rng.choice(ports),
    )
    nodes = rus + [s.id for s in servers_] + ["agg", "wan"]
    flows = [
        Flow(f"f{i}", *rng.sample(nodes, 2), rng.choice(list(FlowKind)), rng.uniform(0.5, 60.0))
        for i in range(rng.randint(1, 12))
    ]
    return topo, flows


def random_graph(rng):
    """A random fabric that no reference build makes, and flows over it.

    A core of 3-8 switches is linked at random. Each of 1-3 groups of 2-4
    twins links to the same 1-3 core switches, so twins carry transit
    between those switches. Up to two more switches have no link. Flows run
    between any two nodes of one component, a node and itself included, and
    about one case in ten adds a flow between two components.
    """
    core = [f"s{i}" for i in range(rng.randint(3, 8))]
    edges = {(a, b) for i, a in enumerate(core) for b in core[i + 1:] if rng.random() < 0.4}
    for g in range(rng.randint(1, 3)):
        hubs = rng.sample(core, rng.randint(1, 3))
        edges |= {(f"t{g}{k}", hub) for k in range(rng.randint(2, 4)) for hub in hubs}
    lone = [f"z{i}" for i in range(rng.randint(0, 2))]
    links = [Link(a, b, rng.choice((10.0, 40.0, 100.0))) for a, b in sorted(edges)]
    topo = FabricTopology(
        switches={sid: Switch(sid, SwitchRole.COMPUTE_SPINE) for sid in core + lone},
        links={link.id: link for link in links},
        rus={}, server_frontends={}, server_backends={}, gm_switches=[],
    )
    g = nx_graph(topo)
    pairs = []
    for _ in range(rng.randint(1, 10)):
        src = rng.choice(sorted(g))
        pairs.append((src, rng.choice(sorted(nx.node_connected_component(g, src)))))
    src = rng.choice(sorted(g))
    apart = sorted(set(g) - nx.node_connected_component(g, src))
    if apart and rng.random() < 0.1:
        pairs.append((src, rng.choice(apart)))
    flows = [
        Flow(f"f{i}", src, dst, FlowKind.AI_WIRED, rng.uniform(0.5, 60.0))
        for i, (src, dst) in enumerate(pairs)
    ]
    return topo, flows


def route_outcome(route, topo, flows):
    """The loads and violations ``route`` gives, or the message of the ``NoPath`` it raises."""
    try:
        return route(topo, flows)
    except NoPath as exc:
        return str(exc)


class TestBuild:
    def test_reference_compute_mesh_size(self):
        topo = reference()
        mesh = [
            l for l in topo.links.values()
            if l.endpoint_a.startswith("cl") and l.endpoint_b.startswith("cs")
            or l.endpoint_a.startswith("cs") and l.endpoint_b.startswith("cl")
        ]
        assert len(mesh) == 8  # 2 spines x 4 leaves

    def test_degenerate_single_pair(self):
        topo = build_reference_fabric(1, 2, 1, 2, ["ru1"], [server()])
        mesh = [
            l for l in topo.links.values()
            if {l.endpoint_a[:2], l.endpoint_b[:2]} == {"cl", "cs"}
        ]
        assert len(mesh) == 2
        assert validate_topology(topo) == []

    def test_odd_leaf_count(self):
        with pytest.raises(OddLeafCount):
            build_reference_fabric(2, 3, 2, 4, ["ru1"], [server()])

    def test_roles_split_half_and_half(self):
        topo = reference()
        assert topo.ids_with_role(SwitchRole.FRONTHAUL_LEAF) == ["cl1", "cl2"]
        assert topo.ids_with_role(SwitchRole.SERVER_LEAF) == ["cl3", "cl4"]


    @pytest.mark.parametrize(
        "rus, server_ids, clash",
        [
            (["ru1"], ["wan"], "wan"),
            (["ru1"], ["srv1", "cs2"], "cs2"),
            (["ru1"], ["vl4"], "vl4"),
            (["agg"], ["srv1"], "agg"),
            (["ru1", "cl1"], ["srv1"], "cl1"),
            (["ru1"], ["ru1"], "ru1"),
        ],
    )
    def test_node_ids_must_not_clash(self, rus, server_ids, clash):
        """A second node with one id would merge into the first."""
        with pytest.raises(NodeIdClash, match=f"used twice: {clash}$"):
            build_reference_fabric(2, 4, 2, 4, rus, [server(sid) for sid in server_ids])


class TestValidate:
    def test_reference_is_clean(self):
        assert validate_topology(reference()) == []

    def test_missing_mesh_link(self):
        topo = reference()
        del topo.links["cl1~cs1"]
        violations = validate_topology(topo)
        assert any(v.rule == "BipartiteIncomplete" for v in violations)

    def test_single_homed_ru(self):
        topo = reference()
        topo.rus["ru1"] = ("cl1", "cl1")
        violations = validate_topology(topo)
        assert any(v.rule == "RedundancyViolation" and v.subject == "ru1" for v in violations)

    def test_detached_server_backend(self):
        topo = reference()
        pair = topo.server_backends["srv1"]
        del topo.links[f"srv1~{pair[0]}"]
        violations = validate_topology(topo)
        assert any(v.rule == "AttachmentViolation" for v in violations)

    def test_missing_gm(self):
        topo = reference()
        topo.gm_switches.remove("cl1")
        violations = validate_topology(topo)
        assert any(v.rule == "GmMissing" for v in violations)


class TestPtp:
    def test_reference_hops(self):
        topo = reference()
        tree = build_ptp_tree(topo)
        for ru in topo.rus:
            assert sync_hops(topo, tree.paths[ru]) == 1  # leaf -> RU via aggregation
        for srv in topo.server_frontends:
            assert sync_hops(topo, tree.paths[srv]) <= 3  # leaf -> spine -> leaf -> server

    def test_coverage(self):
        topo = reference(rus=("ru1", "ru2", "ru3"), servers_=[server("srv1"), server("srv2")])
        tree = build_ptp_tree(topo)
        assert len(tree.paths) == 3 + 2
        gms = set(topo.gm_switches)
        for path in tree.paths.values():
            assert path[0] in gms

    def test_single_pair_fabric_short_paths(self):
        topo = build_reference_fabric(1, 2, 1, 2, ["ru1"], [server()])
        tree = build_ptp_tree(topo)
        assert all(sync_hops(topo, p) <= 2 for p in tree.paths.values())

    def test_isolated_server_unreachable(self):
        topo = reference()
        for leaf in topo.server_frontends["srv1"]:
            del topo.links[f"srv1~{leaf}"]
        for leaf in topo.server_backends["srv1"]:
            del topo.links[f"srv1~{leaf}"]
        with pytest.raises(UnreachableEndpoint):
            build_ptp_tree(topo)

    def test_deterministic_tie_break(self):
        topo = reference()
        t1 = build_ptp_tree(topo)
        t2 = build_ptp_tree(topo)
        assert t1 == t2
        assert t1.grandmaster == "cl1"

    def test_matches_one_path_search_per_endpoint(self):
        """Paths, ``max_hops`` and unreachable messages equal those of one search per path.

        Half the fabrics are copies with their link tables shuffled and 1-8
        links deleted, and a third of those also lose a grandmaster, so an
        RU's home GM can be a leaf that is no grandmaster.
        """
        rng = random.Random(588)
        failed = cut = 0
        for i in range(120):
            servers_ = [server(f"srv{k}") for k in range(rng.randint(1, 6))]
            rus = [f"ru{k}" for k in range(rng.randint(1, 8))]
            topo = build_reference_fabric(
                rng.randint(1, 3), 2 * rng.randint(1, 3), rng.randint(1, 3),
                2 * rng.randint(1, 3), rus, servers_,
            )
            if i % 2:
                links = dict(rng.sample(sorted(topo.links.items()), len(topo.links)))
                for link_id in rng.sample(sorted(links), rng.randint(1, 8)):
                    del links[link_id]
                gms = list(topo.gm_switches)
                if i % 3 == 0:
                    gms.remove(rng.choice(gms))
                topo = dataclasses.replace(topo, links=links, gm_switches=gms)
                cut += 1
            expected = ptp_outcome(reference_ptp_tree, topo)
            assert ptp_outcome(build_ptp_tree, topo) == expected
            failed += isinstance(expected, str)
        assert cut == 60 and 0 < failed < cut

    def test_one_search_per_grandmaster(self, monkeypatch):
        topo = reference(rus=("ru1", "ru2", "ru3"), servers_=[server("srv1"), server("srv2")])
        sources = count_searches(monkeypatch)
        build_ptp_tree(topo)
        assert sorted(sources) == topo.gm_switches == ["cl1", "cl2"]
        sources.clear()
        topo.gm_switches.remove("cl1")  # cl1 is still every RU's home GM
        build_ptp_tree(topo)
        assert sorted(sources) == ["cl1", "cl2"]


class TestRouting:
    def test_single_flow_splits_equally_across_spines(self):
        topo = reference()
        loads, violations = route_flows(
            topo, [Flow("f1", "ru1", "srv1", FlowKind.FRONTHAUL, 10.0)]
        )
        assert violations == []
        per_spine = {
            spine: math.fsum(
                load for link_id, load in loads.items() if spine in link_id.split("~")
            ) / 2.0
            for spine in ("cs1", "cs2")
        }
        assert per_spine["cs1"] == per_spine["cs2"] == 5.0

    def test_empty_flow_list(self):
        topo = reference()
        loads, violations = route_flows(topo, [])
        assert violations == []
        assert all(v == 0.0 for v in loads.values())

    def test_overload_reports_links(self):
        topo = build_reference_fabric(2, 4, 2, 4, ["ru1"], [server()], link_capacity_gbps=10.0)
        _loads, violations = route_flows(
            topo, [Flow("f1", "ru1", "srv1", FlowKind.FRONTHAUL, 400.0)]
        )
        assert violations
        assert all(v.load_gbps > v.capacity_gbps for v in violations)

    def test_no_path(self):
        topo = reference()
        with pytest.raises(NoPath):
            route_flows(topo, [Flow("f1", "ru1", "nowhere", FlowKind.FRONTHAUL, 1.0)])

    def test_flow_conservation(self):
        rng = random.Random(23)
        for _ in range(20):
            topo, flows = random_fabric(rng)
            g = nx_graph(topo)
            expected = 0.0
            for f in flows:
                expected += f.rate_gbps * nx.shortest_path_length(g, f.src, f.dst)
            loads, _ = route_flows(topo, flows)
            assert math.fsum(loads.values()) == pytest.approx(expected, rel=1e-9)

    def test_path_counts_match_path_enumeration(self):
        """Loads and violations equal, float for float, those of enumerating every path."""
        rng = random.Random(2992)
        spines, leaves, violated = set(), set(), 0
        for _ in range(120):
            topo, flows = random_fabric(rng)
            loads, violations = route_flows(topo, flows)
            assert (loads, violations) == reference_route_flows(topo, flows)
            spines.add(len(topo.ids_with_role(SwitchRole.COMPUTE_SPINE)))
            leaves.add(len(topo.ids_with_role(SwitchRole.CONVERGED_LEAF)))
            violated += bool(violations)
        assert spines == {1, 2, 3, 4} and leaves == {2, 4, 6, 8}
        assert 0 < violated < 120

    def test_twins_match_path_enumeration_off_reference_fabrics(self):
        """On random graphs, loads and violations equal, float for float, those of enumerating
        every path: with twin endpoints, endpoints inside other flows' paths, flows between
        twins, switches with no link and flows between components."""
        rng = random.Random(1736)
        seen = Counter()
        for _ in range(300):
            topo, flows = random_graph(rng)
            outcome = route_outcome(route_flows, topo, flows)
            assert outcome == route_outcome(reference_route_flows, topo, flows)
            if isinstance(outcome, str):
                seen["no path"] += 1
                continue
            g = nx_graph(topo)
            ends = {end for f in flows for end in (f.src, f.dst)}
            homes = Counter(frozenset(g[end]) for end in ends if g[end])
            inner = {
                node for f in flows for path in nx.all_shortest_paths(g, f.src, f.dst)
                for node in path[1:-1]
            }
            seen["twin endpoints"] += any(k > 1 for k in homes.values())
            seen["flow between twins"] += any(
                f.src != f.dst and g[f.src] and set(g[f.src]) == set(g[f.dst]) for f in flows
            )
            seen["transit endpoint"] += bool(ends & inner)
            seen["lone switch"] += any(not g[end] for end in ends)
            seen["violated"] += bool(outcome[1])
        assert min(seen.values()) >= 10 and len(seen) == 6, seen

    def test_one_search_per_neighbour_set(self, monkeypatch):
        """The fleet's endpoints have three neighbour sets, however many servers it has.

        Every RU hangs off ``agg``, and the servers share one server-leaf
        pair and alternate between two converged-leaf pairs. So the 32
        fronthaul flows of 16 servers and the 256 of 128 servers each take
        three searches: one RU and the first two servers.
        """
        sources = count_searches(monkeypatch)
        for servers in (16, 128):
            topo, flows = cluster_fleet(servers)
            sources.clear()
            route_flows(topo, flows)
            assert len(flows) == 2 * servers
            assert sources == [flows[0].src, flows[0].dst, "srv01"]

    def test_loads_do_not_depend_on_neighbour_order(self, monkeypatch):
        """Loads are bit-identical when every node lists its neighbours in reverse."""
        rng = random.Random(2001)
        topo, flows = cluster_fleet()
        flows = [dataclasses.replace(f, rate_gbps=rng.uniform(0.5, 9.0)) for f in flows]
        cases = [(topo, flows)] + [random_fabric(rng) for _ in range(40)]
        expected = [route_flows(t, fs) for t, fs in cases]
        in_order = FabricTopology._adjacency

        def reversed_adjacency(self):
            return {n: dict(reversed(nbrs.items())) for n, nbrs in in_order(self).items()}

        monkeypatch.setattr(FabricTopology, "_adjacency", reversed_adjacency)
        assert [route_flows(t, fs) for t, fs in cases] == expected

    @pytest.mark.parametrize("route", [route_flows, reference_route_flows])
    def test_detached_endpoint_has_no_path(self, route):
        topo = reference()
        flows = [Flow("f1", "ru1", "srv1", FlowKind.FRONTHAUL, 1.0)]
        del topo.links["ru1~agg"]
        with pytest.raises(NoPath, match="^flow f1: unknown endpoint$"):
            route(topo, flows)

    @pytest.mark.parametrize("route", [route_flows, reference_route_flows])
    def test_split_fabrics_have_no_path(self, route):
        topo = reference()
        flows = [Flow("f1", "ru1", "srv1", FlowKind.FRONTHAUL, 1.0)]
        for leaf in topo.server_frontends["srv1"]:
            del topo.links[f"srv1~{leaf}"]
        with pytest.raises(NoPath, match="^flow f1: ru1 and srv1 are disconnected$"):
            route(topo, flows)

    def test_spine_failure_keeps_leaf_pairs_connected(self):
        topo = reference()
        g = nx_graph(topo)
        for spine in ("cs1", "cs2"):
            h = g.copy()
            h.remove_node(spine)
            leaves = ["cl1", "cl2", "cl3", "cl4"]
            for a in leaves:
                for b in leaves:
                    assert nx.has_path(h, a, b)

    def test_ecmp_imbalance_bounded_by_one_flow(self):
        # for arbitrary flow sets on the symmetric fabric, per-spine load
        # imbalance stays within the largest single flow's rate
        rng = random.Random(41)
        for _ in range(20):
            servers_ = [server(f"srv{i}") for i in range(2)]
            rus = ["ru1", "ru2"]
            topo = build_reference_fabric(2, 4, 2, 4, rus, servers_)
            flows = []
            max_rate = 0.0
            for i in range(rng.randint(1, 8)):
                src = rng.choice(rus)
                dst = rng.choice(servers_).id
                rate = rng.uniform(0.1, 30.0)
                max_rate = max(max_rate, rate)
                flows.append(Flow(f"f{i}", src, dst, FlowKind.FRONTHAUL, rate))
            loads, _ = route_flows(topo, flows)
            per_spine = [
                math.fsum(
                    load for link, load in loads.items() if spine in link.split("~")
                ) / 2.0
                for spine in ("cs1", "cs2")
            ]
            assert abs(per_spine[0] - per_spine[1]) <= max_rate + 1e-9
            # fluid splitting balances a symmetric fabric exactly
            assert per_spine[0] == pytest.approx(per_spine[1], abs=1e-9)

    def test_sync_coverage_on_random_topologies(self):
        rng = random.Random(97)
        for _ in range(15):
            n_spine = rng.choice([1, 2, 3])
            n_leaf = rng.choice([2, 4, 6])
            servers_ = [server(f"srv{i}") for i in range(rng.randint(1, 4))]
            rus = [f"ru{i}" for i in range(rng.randint(1, 5))]
            topo = build_reference_fabric(n_spine, n_leaf, n_spine, 4, rus, servers_)
            assert validate_topology(topo) == []
            tree = build_ptp_tree(topo)
            # every bundle hosts a DU, so coverage is all RUs plus all servers
            assert len(tree.paths) == len(rus) + len(servers_)
            gms = set(topo.gm_switches)
            assert all(p[0] in gms for p in tree.paths.values())


class TestRatesAndEgress:
    def test_fronthaul_rate_formula(self):
        cell = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=4, rx_antennas=4)
        assert fronthaul_rate(cell, FronthaulCalibration(0.05)) == pytest.approx(20.0)

    def test_antenna_scaling(self):
        small = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=2, rx_antennas=2)
        big = CellConfig(bandwidth_mhz=100.0, scs_khz=30, tx_antennas=8, rx_antennas=8)
        calib = FronthaulCalibration(0.05)
        assert fronthaul_rate(big, calib) == pytest.approx(4 * fronthaul_rate(small, calib))

    @pytest.mark.parametrize(
        "bundle,kind",
        [
            (NfBundle.DU_ONLY, FlowKind.MIDHAUL),
            (NfBundle.DU_CU, FlowKind.BACKHAUL),
            (NfBundle.DU_CU_CN, FlowKind.N6),
        ],
    )
    def test_egress_target(self, bundle, kind):
        assert egress_target(server(bundle=bundle)) is kind


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "fronthaul is routed only at t=0 and at TRACE steps, so a diurnal peak "
    "after t=0 is never checked"
))
def test_every_phase_of_a_diurnal_peak_reports_a_violation(scenario_dir):
    """A 20 Gbps fronthaul peak on 15 Gbps links is a violation whatever the phase.

    The cell's diurnal load runs 0.2-1.0 with a 2 s period, so every phase
    reaches the peak within the 4 s horizon. Today phases 0 and 3 report
    nothing: their load at t=0 is below 0.75.
    """
    text = (scenario_dir / "poc.scenario").read_text()
    for old, new in [
        ("link_capacity_gbps: 100.0", "link_capacity_gbps: 15.0"),
        ("min: 0.98", "min: 0.2"),
        ("period_s: 300.0", "period_s: 2.0"),
        ("horizon_s: 600.0", "horizon_s: 4.0"),
    ]:
        text = text.replace(old, new)
    violations = {
        phase: len(run(parse_scenario(text.replace("phase: 0.0", f"phase: {phase}")))
                   .fabric_violations)
        for phase in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
    }
    assert all(violations.values()), violations
