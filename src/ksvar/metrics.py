"""Topology metrics for inferred networks.

Path metrics (betweenness, closeness) follow directed edges.  Clustering,
components, and diameter are computed on the symmetrized simple graph.
Self-loops never enter paths or degrees; they are reported as a separate
count.  Path metrics come from one breadth-first pass over all sources
that yields each pair's distance and exact number of shortest paths, and
betweenness is one exact rational per node rounded once to float, so
results are reproducible bit for bit against brute-force enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .errors import ShapeMismatch
from .solver import EffectiveNetwork

CONVENTIONS = (
    "betweenness and closeness use directed edges; clustering, components, "
    "and diameter use the symmetrized simple graph; self-loops are excluded "
    "from paths and degrees and reported as self_loop_count"
)

_INT64_SAFE = 2**62  # path counts and their sums stay int64 below this
_FLOAT_EXACT = 2**53  # float64 holds every integer below this


def _digraph(net: EffectiveNetwork) -> np.ndarray:
    adj = net.aggregate_support.copy()
    np.fill_diagonal(adj, False)
    return adj


def _symmetric(net: EffectiveNetwork) -> np.ndarray:
    adj = _digraph(net)
    return adj | adj.T


def degrees(net: EffectiveNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(in, out, total) degree per node on the aggregate directed support."""
    adj = _digraph(net)
    in_deg = adj.sum(axis=0).astype(int)
    out_deg = adj.sum(axis=1).astype(int)
    return in_deg, out_deg, in_deg + out_deg


def _shortest_paths(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance and number of shortest paths for every ordered pair.

    Breadth-first from all sources at once: the counts of the pairs first
    reached at one level, times the adjacency, give those first reached at
    the next; ``dist`` is -1 and ``count`` 0 where no path exists.  Products
    are float64, exact below ``_FLOAT_EXACT`` = 2**53: before the largest
    count times the largest in-degree could pass it, counts become Python ints.
    """
    n = adj.shape[0]
    step = adj.astype(float)
    max_in = int(adj.sum(axis=0).max(initial=0))
    count = np.eye(n, dtype=np.int64)
    dist = np.where(count == 1, 0, -1)
    frontier, level = count, 0
    while True:
        if count.dtype != object and int(frontier.max(initial=0)) * max_in >= _FLOAT_EXACT:
            step = adj.astype(object)
            frontier, count = frontier.astype(object), count.astype(object)
        frontier = (frontier @ step).astype(count.dtype)
        frontier[dist >= 0] = 0
        reached = frontier > 0
        if not reached.any():
            return dist, count
        level += 1
        dist[reached] = level
        count = count + frontier


def _betweenness(dist: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Sum over ordered pairs s != t of sigma_sv * sigma_vt / sigma_st on the
    triples with d(s,v) + d(v,t) = d(s,t), normalized by (N-1)(N-2)."""
    n = dist.shape[0]
    if n < 3:
        return np.zeros(n)
    sigma = count.copy()
    np.fill_diagonal(sigma, 0)  # drops the terms with s = v, v = t or s = t
    if sigma.dtype != object and int(sigma.max()) >= _INT64_SAFE // (n * n):
        sigma = sigma.astype(object)
    # connected pairs (s, t), sorted so that each value of sigma_st is one run
    flat = sigma.ravel()
    pairs = np.flatnonzero(flat)
    pairs = pairs[np.argsort(flat[pairs], kind="stable")]
    denoms, starts = np.unique(flat[pairs], return_index=True)
    src, dst = np.divmod(pairs, n)
    d_st = dist.ravel()[pairs]
    dist_t, sigma_t = dist.T.copy(), sigma.T.copy()
    # integer numerators of node v over each denominator, summed exactly
    sums = np.empty((n, len(denoms)), dtype=sigma.dtype)
    for v in range(n):
        on_path = dist_t[v][src] + dist[v][dst] == d_st
        through = np.where(on_path, sigma_t[v][src] * sigma[v][dst], 0)
        sums[v] = np.add.reduceat(through, starts)
    common = lcm(*(int(d) for d in denoms))
    scale = np.array([common // int(d) for d in denoms], dtype=object)
    norm = common * (n - 1) * (n - 2)
    return np.array([int(total) / norm for total in sums.astype(object) @ scale])


def _closeness(dist: np.ndarray) -> np.ndarray:
    """(N-1) / row sum of distances where every node is reached, else 0."""
    n = dist.shape[0]
    out = np.zeros(n)
    full = (dist >= 0).all(axis=1)
    if n > 1:
        out[full] = (n - 1) / dist[full].sum(axis=1)
    return out


def betweenness(net: EffectiveNetwork) -> np.ndarray:
    """Fraction of directed shortest paths through each node, normalized
    by (N-1)(N-2); unreachable pairs contribute nothing."""
    return _betweenness(*_shortest_paths(_digraph(net)))


def closeness(net: EffectiveNetwork) -> np.ndarray:
    """(N-1) / sum of directed out-distances; 0 when any node is unreachable."""
    return _closeness(_shortest_paths(_digraph(net))[0])


def clustering(net: EffectiveNetwork) -> tuple[np.ndarray, float]:
    """Per-node and global clustering on the symmetrized graph.

    Per node: triangles / C(degree, 2), zero below degree 2.  Global:
    3 * triangles / connected triples.
    """
    sym = _symmetric(net).astype(np.int64)
    deg = sym.sum(axis=1)
    tri_node = ((sym @ sym) * sym).sum(axis=1) // 2
    pairs = deg * (deg - 1) // 2
    per_node = np.zeros(sym.shape[0])
    np.divide(tri_node, pairs, out=per_node, where=pairs > 0)
    triples = int(pairs.sum())
    global_cc = int(tri_node.sum()) / triples if triples else 0.0
    return per_node, global_cc


def global_metrics(net: EffectiveNetwork) -> dict:
    """Graph-level summary: density, clustering, diameter, component data,
    mean neighbor count, and the self-loop tally."""
    return _global_metrics(net, clustering(net)[1])


def _global_metrics(net: EffectiveNetwork, global_cc: float) -> dict:
    adj = _digraph(net)
    n = adj.shape[0]
    sym = adj | adj.T
    density = int(adj.sum()) / (n * (n - 1)) if n > 1 else 0.0
    dist, _ = _shortest_paths(sym)
    reached = dist >= 0
    return {
        "density": density,
        "global_clustering": global_cc,
        "diameter": int(dist.max(initial=0)),
        "avg_neighbors": float(sym.sum()) / n if n else 0.0,
        "self_loop_count": int(np.diag(net.aggregate_support).sum()),
        # a component is counted once, at its lowest-numbered member
        "connected_component_count": n - int(np.tril(reached, -1).any(axis=1).sum()),
        "largest_component_size": int(reached.sum(axis=1).max(initial=0)),
    }


@dataclass
class MetricsReport:
    """Per-node and global metrics for one network."""

    node_labels: tuple[str, ...]
    in_degree: np.ndarray
    out_degree: np.ndarray
    total_degree: np.ndarray
    betweenness: np.ndarray
    closeness: np.ndarray
    clustering_coefficient: np.ndarray
    density: float
    global_clustering: float
    diameter: int
    avg_neighbors: float
    self_loop_count: int
    connected_component_count: int
    largest_component_size: int
    conventions: str = field(default=CONVENTIONS)

    def to_json_dict(self) -> dict:
        nodes = {}
        for idx, label in enumerate(self.node_labels):
            nodes[label] = {
                "in_degree": int(self.in_degree[idx]),
                "out_degree": int(self.out_degree[idx]),
                "total_degree": int(self.total_degree[idx]),
                "betweenness": float(self.betweenness[idx]),
                "closeness": float(self.closeness[idx]),
                "clustering_coefficient": float(self.clustering_coefficient[idx]),
            }
        return {
            "conventions": self.conventions,
            "nodes": nodes,
            "global": {
                "density": self.density,
                "global_clustering": self.global_clustering,
                "diameter": self.diameter,
                "avg_neighbors": self.avg_neighbors,
                "self_loop_count": self.self_loop_count,
                "connected_component_count": self.connected_component_count,
                "largest_component_size": self.largest_component_size,
            },
        }

    def to_csv_rows(self) -> list[list]:
        rows = [
            [
                "node",
                "in_degree",
                "out_degree",
                "total_degree",
                "betweenness",
                "closeness",
                "clustering_coefficient",
            ]
        ]
        for idx, label in enumerate(self.node_labels):
            rows.append(
                [
                    label,
                    int(self.in_degree[idx]),
                    int(self.out_degree[idx]),
                    int(self.total_degree[idx]),
                    repr(float(self.betweenness[idx])),
                    repr(float(self.closeness[idx])),
                    repr(float(self.clustering_coefficient[idx])),
                ]
            )
        rows.append(
            [
                "GLOBAL",
                f"density={self.density!r}",
                f"global_clustering={self.global_clustering!r}",
                f"diameter={self.diameter}",
                f"avg_neighbors={self.avg_neighbors!r}",
                f"self_loops={self.self_loop_count}",
                f"components={self.connected_component_count};largest={self.largest_component_size}",
            ]
        )
        return rows


def compute_report(net: EffectiveNetwork) -> MetricsReport:
    """All metrics for one network in one report."""
    n = net.n_nodes
    labels = net.node_labels if net.node_labels else tuple(f"n{i}" for i in range(n))
    if len(labels) != n:
        raise ShapeMismatch(f"{len(labels)} labels for {n} nodes")
    in_deg, out_deg, total = degrees(net)
    per_node_cc, global_cc = clustering(net)
    dist, count = _shortest_paths(_digraph(net))
    return MetricsReport(
        node_labels=tuple(labels),
        in_degree=in_deg,
        out_degree=out_deg,
        total_degree=total,
        betweenness=_betweenness(dist, count),
        closeness=_closeness(dist),
        clustering_coefficient=per_node_cc,
        **_global_metrics(net, global_cc),
    )
