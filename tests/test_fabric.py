import math
import random

import networkx as nx
import pytest

from ranshare.compute import GpuDevice, NfBundle, Server
from ranshare.errors import NodeIdClash, NoPath, OddLeafCount, UnreachableEndpoint
from ranshare.fabric import (
    Flow,
    FlowDirection,
    FlowKind,
    FronthaulCalibration,
    SwitchRole,
    build_ptp_tree,
    build_reference_fabric,
    egress_target,
    fronthaul_rate,
    route_flows,
    sync_hops,
    validate_topology,
)
from ranshare.workload import CellConfig


def server(sid="srv1", bundle=NfBundle.DU_CU_CN):
    return Server(id=sid, gpus=(GpuDevice(id=f"{sid}-gpu"),), hosted_nf_bundle=bundle)


def reference(rus=("ru1", "ru2"), servers_=None):
    return build_reference_fabric(
        2, 4, 2, 4, list(rus), servers_ or [server()], link_capacity_gbps=100.0
    )


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
        topo._graph = None
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
        topo._graph = None
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
        topo._graph = None
        with pytest.raises(UnreachableEndpoint):
            build_ptp_tree(topo)

    def test_deterministic_tie_break(self):
        topo = reference()
        t1 = build_ptp_tree(topo)
        t2 = build_ptp_tree(topo)
        assert t1 == t2
        assert t1.grandmaster == "cl1"


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
            n_spine = rng.choice([1, 2, 3])
            n_leaf = rng.choice([2, 4])
            servers_ = [server(f"srv{i}") for i in range(1, rng.randint(2, 4))]
            rus = [f"ru{i}" for i in range(1, rng.randint(2, 4))]
            topo = build_reference_fabric(n_spine, n_leaf, n_spine, n_leaf, rus, servers_)
            g = topo.graph()
            flows = []
            expected = 0.0
            nodes = rus + [s.id for s in servers_]
            for i in range(rng.randint(1, 5)):
                src, dst = rng.sample(nodes, 2)
                rate = rng.uniform(0.5, 20.0)
                kind = FlowKind.FRONTHAUL
                flows.append(Flow(f"f{i}", src, dst, kind, rate))
                hops = nx.shortest_path_length(g, src, dst)
                expected += rate * hops
            loads, _ = route_flows(topo, flows)
            assert math.fsum(loads.values()) == pytest.approx(expected, rel=1e-9)

    def test_spine_failure_keeps_leaf_pairs_connected(self):
        topo = reference()
        g = topo.graph()
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

    def test_flow_direction_follows_kind(self):
        assert Flow("f", "a", "b", FlowKind.FRONTHAUL).direction is FlowDirection.EAST_WEST
        for kind in FlowKind:
            if kind is not FlowKind.FRONTHAUL:
                assert Flow("f", "a", "b", kind).direction is FlowDirection.NORTH_SOUTH
