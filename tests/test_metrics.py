"""Graph metrics: named small graphs, brute-force agreement, invariances."""

import numpy as np
import pytest

from ksvar.errors import ShapeMismatch
from ksvar.metrics import (
    CONVENTIONS,
    MetricsReport,
    _shortest_paths,
    betweenness,
    closeness,
    clustering,
    compute_report,
    degrees,
    global_metrics,
)
from ksvar.solver import EffectiveNetwork

from oracles import (
    bf_closeness,
    bf_components,
    bf_diameter,
    bf_report,
    bf_shortest_paths,
    brandes_betweenness,
)


def net_from(adj, labels=None):
    adj = np.asarray(adj, dtype=bool)
    supports = adj[None]
    weights = adj.astype(float)[None]
    return EffectiveNetwork(
        supports=supports, weights=weights, tau_alpha=0.5, node_labels=labels
    )


def edges(n, pairs):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        adj[i, j] = True
    return adj


class TestNamedGraphs:
    def test_directed_path_midpoint(self):
        # 0 -> 1 -> 2: node 1 sits on the single shortest 0->2 path
        net = net_from(edges(3, [(0, 1), (1, 2)]))
        np.testing.assert_allclose(betweenness(net), [0.0, 0.5, 0.0])
        np.testing.assert_allclose(closeness(net), [2.0 / 3.0, 0.0, 0.0])

    def test_star_center(self):
        # center 0 points both ways to 1..3: all shortest leaf pairs cross it
        pairs = []
        for leaf in (1, 2, 3):
            pairs += [(0, leaf), (leaf, 0)]
        net = net_from(edges(4, pairs))
        b = betweenness(net)
        assert b[0] == pytest.approx(1.0)
        np.testing.assert_allclose(b[1:], 0.0)
        np.testing.assert_allclose(closeness(net), [1.0, 0.6, 0.6, 0.6])

    def test_two_shortest_paths_split_credit(self):
        # 0->1->3 and 0->2->3: nodes 1 and 2 each carry half of one pair
        net = net_from(edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
        b = betweenness(net)
        assert b[1] == pytest.approx(1.0 / 12.0)
        assert b[2] == pytest.approx(1.0 / 12.0)

    def test_triangle_with_pendant(self):
        # bidirectional triangle 0,1,2 plus pendant 3 attached to 0
        pairs = []
        for i, j in [(0, 1), (1, 2), (2, 0), (0, 3)]:
            pairs += [(i, j), (j, i)]
        net = net_from(edges(4, pairs))
        per_node, global_cc = clustering(net)
        # node 0 has degree 3 and one triangle: 1 / C(3,2)
        assert per_node[0] == pytest.approx(1.0 / 3.0)
        assert per_node[1] == pytest.approx(1.0)
        assert per_node[3] == 0.0
        # one triangle, five connected triples
        assert global_cc == pytest.approx(0.6)

    def test_two_disjoint_triangles(self):
        pairs = []
        for a, b, c in [(0, 1, 2), (3, 4, 5)]:
            for i, j in [(a, b), (b, c), (c, a)]:
                pairs += [(i, j), (j, i)]
        net = net_from(edges(6, pairs))
        g = global_metrics(net)
        assert g["connected_component_count"] == 2
        assert g["largest_component_size"] == 3
        assert g["density"] == pytest.approx(12 / 30)
        assert g["diameter"] == 1
        assert g["global_clustering"] == pytest.approx(1.0)

    def test_complete_directed_graph(self):
        n = 5
        adj = ~np.eye(n, dtype=bool)
        net = net_from(adj)
        np.testing.assert_allclose(betweenness(net), 0.0)
        np.testing.assert_allclose(closeness(net), 1.0)
        g = global_metrics(net)
        assert g["density"] == 1.0
        assert g["diameter"] == 1
        assert g["global_clustering"] == 1.0

    def test_empty_graph(self):
        net = net_from(np.zeros((4, 4)))
        np.testing.assert_array_equal(betweenness(net), np.zeros(4))
        np.testing.assert_array_equal(closeness(net), np.zeros(4))
        g = global_metrics(net)
        assert g["density"] == 0.0
        assert g["diameter"] == 0
        assert g["connected_component_count"] == 4
        assert g["largest_component_size"] == 1
        assert g["avg_neighbors"] == 0.0

    def test_single_directed_edge(self):
        net = net_from(edges(2, [(0, 1)]))
        in_deg, out_deg, total = degrees(net)
        np.testing.assert_array_equal(in_deg, [0, 1])
        np.testing.assert_array_equal(out_deg, [1, 0])
        np.testing.assert_array_equal(total, [1, 1])
        # N < 3: betweenness is all zeros by convention
        np.testing.assert_array_equal(betweenness(net), np.zeros(2))
        np.testing.assert_allclose(closeness(net), [1.0, 0.0])

    def test_self_loops_counted_but_excluded_from_paths(self):
        adj = edges(3, [(0, 1), (1, 2)])
        adj[1, 1] = True
        net = net_from(adj)
        g = global_metrics(net)
        assert g["self_loop_count"] == 1
        in_deg, out_deg, _ = degrees(net)
        assert in_deg[1] == 1 and out_deg[1] == 1
        np.testing.assert_allclose(betweenness(net), [0.0, 0.5, 0.0])

    def test_closeness_zero_when_any_target_unreachable(self):
        # 0 reaches 1 but not 2
        net = net_from(edges(3, [(0, 1)]))
        np.testing.assert_array_equal(closeness(net), np.zeros(3))


class TestBruteForceAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_digraphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        adj = rng.random((n, n)) < rng.uniform(0.15, 0.6)
        net = net_from(adj)
        report = compute_report(net)
        want = bf_report(np.asarray(adj, bool))
        np.testing.assert_array_equal(report.in_degree, want["in_degree"])
        np.testing.assert_array_equal(report.out_degree, want["out_degree"])
        np.testing.assert_allclose(report.betweenness, want["betweenness"], atol=1e-12)
        np.testing.assert_allclose(report.closeness, want["closeness"], atol=1e-12)
        np.testing.assert_allclose(
            report.clustering_coefficient, want["clustering_coefficient"], atol=1e-12
        )
        assert report.density == pytest.approx(want["density"], abs=1e-12)
        assert report.global_clustering == pytest.approx(
            want["global_clustering"], abs=1e-12
        )
        assert report.diameter == want["diameter"]
        assert report.avg_neighbors == pytest.approx(want["avg_neighbors"])
        assert report.self_loop_count == want["self_loop_count"]
        assert report.connected_component_count == want["connected_component_count"]
        assert report.largest_component_size == want["largest_component_size"]


def layered_chain(width: int, layers: int, ends: int = 1) -> np.ndarray:
    """``ends`` sources, then ``layers`` layers of ``width`` nodes, each
    joined completely to the next, then ``ends`` sinks that link back to
    every source: width**layers shortest paths run from each source to
    each sink, and every node reaches every other."""
    n = width * layers + 2 * ends
    adj = np.zeros((n, n), dtype=bool)
    first = ends
    adj[:ends, first : first + width] = True
    for _ in range(layers - 1):
        adj[first : first + width, first + width : first + 2 * width] = True
        first += width
    adj[first : first + width, n - ends :] = True
    adj[n - ends :, :ends] = True
    return adj


class TestExactAgainstReferences:
    """Bit-for-bit equality with Brandes in ``Fraction`` arithmetic and with
    per-source BFS, on graphs too large for path enumeration."""

    def assert_exact(self, adj):
        adj = np.asarray(adj, dtype=bool)
        np.fill_diagonal(adj, False)
        sym = adj | adj.T
        net = net_from(adj)
        report = compute_report(net)
        want_b = brandes_betweenness(adj)
        want_c = bf_closeness(adj)
        comps = bf_components(sym)
        assert np.array_equal(report.betweenness, want_b)
        assert np.array_equal(betweenness(net), want_b)
        assert np.array_equal(report.closeness, want_c)
        assert np.array_equal(closeness(net), want_c)
        assert report.diameter == bf_diameter(sym)
        assert report.connected_component_count == len(comps)
        assert report.largest_component_size == max(len(c) for c in comps)

    @pytest.mark.parametrize("density", [0.03, 0.08, 0.2, 0.45])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_digraphs(self, seed, density):
        rng = np.random.default_rng([seed, int(density * 100)])
        n = int(rng.integers(20, 81))
        self.assert_exact(rng.random((n, n)) < density)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_disconnected_with_isolated_nodes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 81))
        adj = rng.random((n, n)) < 0.15
        cut = n // 3
        adj[:cut, cut:] = False
        adj[cut:, :cut] = False
        isolated = rng.choice(n, size=5, replace=False)
        adj[isolated, :] = False
        adj[:, isolated] = False
        self.assert_exact(adj)

    def test_dense_report_shape(self):
        # the density of a dense saved network, at N=100: about 3,000 edges
        rng = np.random.default_rng(150)
        self.assert_exact(rng.random((100, 100)) < 0.3)

    def test_path_counts_past_int64(self):
        # 2**64 shortest source-to-sink paths: int64 arithmetic would wrap
        self.assert_exact(layered_chain(2, 64))

    def test_path_counts_past_float64(self):
        # 3**34 shortest source-to-sink paths: an odd count above 2**53,
        # which a float64 product would round
        adj = layered_chain(3, 34)
        dist, count = _shortest_paths(adj)
        want_dist, want_count = bf_shortest_paths(adj)
        assert count[0, -1] == 3**34
        assert np.array_equal(dist, want_dist)
        assert np.array_equal(count, want_count)

    def test_path_count_sums_past_int64(self):
        # every count fits int64 (2**59 at most), but a node's sums of
        # path counts over pairs with equal denominators pass 2**63
        self.assert_exact(layered_chain(2, 56, ends=4))


class TestInvariances:
    def relabel(self, adj, perm):
        return adj[np.ix_(perm, perm)]

    def test_relabeling_permutes_node_metrics(self):
        rng = np.random.default_rng(100)
        adj = rng.random((6, 6)) < 0.35
        perm = rng.permutation(6)
        base = compute_report(net_from(adj))
        permuted = compute_report(net_from(self.relabel(adj, perm)))
        np.testing.assert_allclose(permuted.betweenness, base.betweenness[perm], atol=1e-12)
        np.testing.assert_allclose(permuted.closeness, base.closeness[perm], atol=1e-12)
        np.testing.assert_array_equal(permuted.in_degree, base.in_degree[perm])
        assert permuted.density == pytest.approx(base.density)
        assert permuted.diameter == base.diameter
        assert permuted.connected_component_count == base.connected_component_count

    def test_removing_edges_never_raises_density(self):
        rng = np.random.default_rng(101)
        adj = rng.random((6, 6)) < 0.5
        np.fill_diagonal(adj, False)
        dense = global_metrics(net_from(adj))
        present = np.argwhere(adj)
        drop = present[rng.integers(len(present))]
        adj2 = adj.copy()
        adj2[drop[0], drop[1]] = False
        sparse = global_metrics(net_from(adj2))
        assert sparse["density"] < dense["density"]
        assert sparse["avg_neighbors"] <= dense["avg_neighbors"]


class TestReport:
    def triangle_report(self):
        pairs = []
        for i, j in [(0, 1), (1, 2), (2, 0)]:
            pairs += [(i, j), (j, i)]
        return compute_report(net_from(edges(3, pairs), labels=("x", "y", "z")))

    def test_json_shape(self):
        report = self.triangle_report()
        d = report.to_json_dict()
        assert d["conventions"] == CONVENTIONS
        assert set(d["nodes"]) == {"x", "y", "z"}
        assert set(d["nodes"]["x"]) == {
            "in_degree",
            "out_degree",
            "total_degree",
            "betweenness",
            "closeness",
            "clustering_coefficient",
        }
        assert d["global"]["density"] == 1.0
        assert d["global"]["largest_component_size"] == 3

    def test_csv_rows(self):
        rows = self.triangle_report().to_csv_rows()
        assert rows[0][0] == "node"
        assert [r[0] for r in rows[1:4]] == ["x", "y", "z"]
        assert rows[-1][0] == "GLOBAL"
        assert len(rows) == 5

    def test_default_labels(self):
        report = compute_report(net_from(np.zeros((2, 2))))
        assert report.node_labels == ("n0", "n1")

    def test_label_count_checked(self):
        net = net_from(np.zeros((3, 3)), labels=("a", "b"))
        with pytest.raises(ShapeMismatch):
            compute_report(net)

    def test_multi_lag_network_uses_aggregate(self):
        supports = np.zeros((2, 3, 3), dtype=bool)
        supports[0, 0, 1] = True
        supports[1, 1, 2] = True
        weights = supports.astype(float)
        net = EffectiveNetwork(supports=supports, weights=weights, tau_alpha=0.5)
        report = compute_report(net)
        np.testing.assert_array_equal(report.out_degree, [1, 1, 0])
        assert report.betweenness[1] == pytest.approx(0.5)
