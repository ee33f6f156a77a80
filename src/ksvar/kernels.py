"""Kernels, Gram matrices, and the block structures the solvers consume.

For each source node i, lag l, and kernel p, the similarity of the aligned
regressor samples z = {y_i(t-l)} with themselves gives a T'xT' Gram block.
Blocks are kept in (lag, node, kernel) order; column j of the model drops
its own instantaneous block(s).

Every block also carries a factor B with B @ B.T equal to the (repaired)
Gram.  Linear and polynomial kernels get exact finite feature maps; the
Gaussian kernel gets a pivoted-Cholesky factor, trimmed to the rank and
spectrum of the truncated eigenfactor, without its T'xT' Gram ever being
formed.  The solvers work in factor coordinates throughout, which is both
faster and immune to the junk directions a near-singular Gram would
otherwise inject.  A block builds its dense Gram only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSeries,
    NotSymmetric,
    ShapeMismatch,
)
from .panel import LagAlignedView

# Relative eigenvalue cutoff below which a Gram direction is treated as null.
RANK_RTOL = 1e-12
# Pre-repair floor: a Gram eigenvalue below this signals a non-kernel input.
PSD_ATOL = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """One reproducing kernel: linear, polynomial(degree, offset), or gaussian.

    ``bandwidth`` may be the string ``"median"`` to request the data-driven
    value at Gram-construction time.
    """

    kind: str
    degree: int | None = None
    offset: float | None = None
    bandwidth: float | str | None = None

    def __post_init__(self) -> None:
        if self.kind == "linear":
            if self.degree is not None or self.offset is not None or self.bandwidth is not None:
                raise ConfigError("linear kernel takes no parameters")
        elif self.kind == "polynomial":
            if self.degree is None or self.degree < 1:
                raise ConfigError("polynomial kernel needs degree >= 1")
            if self.offset is None or self.offset < 0:
                raise ConfigError("polynomial kernel needs offset >= 0")
            if self.bandwidth is not None:
                raise ConfigError("polynomial kernel takes no bandwidth")
        elif self.kind == "gaussian":
            if self.degree is not None or self.offset is not None:
                raise ConfigError("gaussian kernel takes no degree/offset")
            if self.bandwidth == "median":
                pass
            elif not (isinstance(self.bandwidth, (int, float)) and self.bandwidth > 0):
                raise ConfigError("gaussian kernel needs bandwidth > 0 or 'median'")
        else:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")

    def config_string(self) -> str:
        if self.kind == "linear":
            return "linear"
        if self.kind == "polynomial":
            return f"poly:d={self.degree},c={_fmt_num(self.offset)}"
        if self.bandwidth == "median":
            return "gaussian:sigma=median"
        return f"gaussian:sigma={_fmt_num(self.bandwidth)}"


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


def parse_kernel_spec(text: str) -> KernelSpec:
    """Parse config strings: ``linear``, ``poly:d=2,c=1``,
    ``gaussian:sigma=0.7``, ``gaussian:sigma=median``."""
    text = text.strip()
    if text == "linear":
        return KernelSpec(kind="linear")
    head, _, tail = text.partition(":")
    params: dict[str, str] = {}
    if tail:
        for part in tail.split(","):
            key, eq, val = part.partition("=")
            if not eq:
                raise ConfigError(f"bad kernel parameter {part!r} in {text!r}")
            params[key.strip()] = val.strip()
    try:
        if head == "poly":
            return KernelSpec(
                kind="polynomial",
                degree=int(params.pop("d")),
                offset=float(params.pop("c", "1")),
                **_no_extras(params, text),
            )
        if head == "gaussian":
            sigma = params.pop("sigma")
            _no_extras(params, text)
            return KernelSpec(
                kind="gaussian",
                bandwidth="median" if sigma == "median" else float(sigma),
            )
    except KeyError as exc:
        raise ConfigError(f"kernel spec {text!r} lacks parameter {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"kernel spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown kernel spec {text!r}")


def _no_extras(params: dict[str, str], text: str) -> dict:
    if params:
        raise ConfigError(f"unexpected parameters {sorted(params)} in {text!r}")
    return {}


@dataclass(frozen=True)
class KernelDictionary:
    """P distinct kernels.

    The group-sparse estimator selects among them through the coefficient
    blocks themselves.
    """

    kernels: tuple[KernelSpec, ...]

    def __post_init__(self) -> None:
        kernels = tuple(self.kernels)
        object.__setattr__(self, "kernels", kernels)
        if len(kernels) < 1:
            raise ConfigError("kernel dictionary must contain at least one kernel")
        if len(set(kernels)) != len(kernels):
            raise ConfigError("kernel dictionary entries must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.kernels)


def eval_kernel(spec: KernelSpec, y: float, psi: float) -> float:
    """Evaluate one kernel at a pair of scalars."""
    return float(_kernel_array(spec, np.asarray([y], float), np.asarray([psi], float))[0, 0])


def _kernel_array(spec: KernelSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    prod = np.multiply.outer(z, w)
    if spec.kind == "linear":
        return prod
    if spec.kind == "polynomial":
        return (prod + spec.offset) ** spec.degree
    diff = np.subtract.outer(z, w)
    sigma = spec.bandwidth
    if not isinstance(sigma, (int, float)):
        raise ConfigError("gaussian bandwidth is unresolved; call with a numeric sigma")
    return np.exp(-(diff**2) / (2.0 * sigma**2))


def gram_matrix(spec: KernelSpec, samples: np.ndarray) -> np.ndarray:
    """Gram matrix of one aligned sample vector with itself."""
    z = np.asarray(samples, dtype=float)
    if z.ndim != 1:
        raise ShapeMismatch("samples must be a vector")
    return _kernel_array(spec, z, z)


def cross_gram(spec: KernelSpec, new_samples: np.ndarray, ref_samples: np.ndarray) -> np.ndarray:
    """Kernel evaluations of new samples against the reference (training) ones."""
    return _kernel_array(
        spec, np.asarray(new_samples, float), np.asarray(ref_samples, float)
    )


def build_gram(
    spec: KernelSpec, series: np.ndarray, lag: int, view: LagAlignedView
) -> np.ndarray:
    """Gram matrix over target rows for one raw series at one lag.

    Entry (t, tau) compares the lag-shifted samples of both rows, so the
    matrix is symmetric by construction.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.shape[0] != view.n_targets + view.lag:
        raise ShapeMismatch(
            f"series of length {series.shape} does not match view with "
            f"T' = {view.n_targets}, L = {view.lag}"
        )
    if not 0 <= lag <= view.lag:
        raise ConfigError(f"lag {lag} outside 0..{view.lag}")
    n = series.shape[0]
    return gram_matrix(spec, series[view.lag - lag : n - lag])


def median_bandwidth(series: np.ndarray, max_pairs: int = 1000, seed: int = 0) -> float:
    """Median absolute pairwise difference over at most ``max_pairs`` pairs.

    Exact when the series is short enough to enumerate every pair; larger
    series are subsampled with the given seed.  When duplicates drive the
    median to zero, the smallest positive difference is used instead.
    """
    z = np.asarray(series, dtype=float)
    if z.ndim != 1 or np.unique(z).size < 2:
        raise DegenerateSeries("median bandwidth needs >= 2 distinct values")
    n = z.shape[0]
    if n * (n - 1) // 2 <= max_pairs:
        ii, jj = np.triu_indices(n, k=1)
        diffs = np.abs(z[ii] - z[jj])
    else:
        rng = np.random.default_rng(seed)
        diffs = np.empty(0)
        while diffs.size < max_pairs:
            ii = rng.integers(0, n, size=2 * max_pairs)
            jj = rng.integers(0, n, size=2 * max_pairs)
            keep = ii != jj
            diffs = np.concatenate([diffs, np.abs(z[ii[keep]] - z[jj[keep]])])
        diffs = diffs[:max_pairs]
    sigma = float(np.median(diffs))
    if sigma == 0.0:
        positive = diffs[diffs > 0]
        if positive.size == 0:
            raise DegenerateSeries("all sampled pairwise differences are zero")
        sigma = float(positive.min())
    return sigma


def feature_factor(spec: KernelSpec, samples: np.ndarray) -> np.ndarray | None:
    """Exact finite feature map B with B @ B.T = Gram, when one exists.

    Linear: the sample vector itself.  Polynomial (z w + c)^d: binomial
    expansion columns sqrt(C(d,k) c^(d-k)) z^k.  Gaussian: None (no finite
    map); callers fall back to a pivoted-Cholesky factor.  Zero columns are
    dropped.
    """
    z = np.asarray(samples, dtype=float)
    if spec.kind == "linear":
        cols = z[:, None]
    elif spec.kind == "polynomial":
        d, c = spec.degree, spec.offset
        cols = np.stack(
            [np.sqrt(comb(d, k) * c ** (d - k)) * z**k for k in range(d + 1)],
            axis=1,
        )
    else:
        return None
    keep = np.linalg.norm(cols, axis=0) > 0
    return cols[:, keep]


def eigen_factor(gram: np.ndarray, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """Rank-truncated factor B = U sqrt(W) of a symmetric PSD matrix."""
    k = np.asarray(gram, dtype=float)
    scale = max(1.0, float(np.abs(k).max()) if k.size else 0.0)
    if float(np.abs(k - k.T).max() if k.size else 0.0) > 1e-10 * scale:
        raise NotSymmetric("Gram matrix is asymmetric beyond tolerance")
    w, v = np.linalg.eigh((k + k.T) / 2.0)
    if w.size and w.min() < -PSD_ATOL * scale:
        raise NotSymmetric(
            f"Gram matrix has eigenvalue {w.min():.3e}; not PSD within tolerance"
        )
    cutoff = rank_rtol * max(float(w.max()) if w.size else 0.0, 0.0)
    keep = w > max(cutoff, 0.0)
    return v[:, keep] * np.sqrt(w[keep])


@dataclass
class KernelBlock:
    """One (node, lag, kernel) block: samples, factor, and lazy Gram."""

    node: int
    lag: int
    kernel_index: int
    spec: KernelSpec | None
    samples: np.ndarray | None
    factor: np.ndarray
    _gram: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self.factor @ self.factor.T
        return self._gram


def _pivoted_factor(spec: KernelSpec, samples: np.ndarray) -> np.ndarray:
    """Factor of a unit-diagonal kernel's Gram, built without forming it.

    Greedy pivoted Cholesky (Fine & Scheinberg, JMLR 2001; Harbrecht,
    Peters & Schneider, Appl. Numer. Math. 2012) evaluates one kernel column
    per pivot, in O(T' r^2), and stops once the largest residual diagonal is
    at rounding level, eps * T' times the largest diagonal.  A thin QR of
    the pivoted factor and an eigensolve of the r x r matrix R R^T then keep
    the directions above ``RANK_RTOL`` times the largest eigenvalue, the cut
    ``eigen_factor`` applies to the full Gram, so rank and spectrum match.
    """
    z = np.asarray(samples, dtype=float)
    n = z.shape[0]
    residual = np.ones(n)  # k(z, z) = 1 for the Gaussian
    stop = np.finfo(float).eps * n * residual.max()
    rows = np.empty((min(n, 32), n))  # pivoted factor, one row per pivot
    rank = 0
    while rank < n:
        i = int(np.argmax(residual))
        pivot = residual[i]
        if pivot <= stop:
            break
        if rank == rows.shape[0]:
            rows = np.vstack([rows, np.empty((min(rank, n - rank), n))])
        col = _kernel_array(spec, z, z[i : i + 1])[:, 0] - rows[:rank].T @ rows[:rank, i]
        col /= np.sqrt(pivot)
        rows[rank] = col
        residual -= col * col
        residual[i] = 0.0
        rank += 1
    q, r = np.linalg.qr(rows[:rank].T)
    w, v = np.linalg.eigh(r @ r.T)
    keep = w > RANK_RTOL * max(float(w.max()), 0.0)
    return q @ (v[:, keep] * np.sqrt(w[keep]))


def _block_from_samples(
    spec: KernelSpec, samples: np.ndarray, node: int, lag: int, kernel_index: int
) -> KernelBlock:
    # no Gram is held: gram() forms B @ B.T only for callers that ask
    factor = feature_factor(spec, samples)
    if factor is None:
        factor = _pivoted_factor(spec, samples)
    return KernelBlock(
        node=node,
        lag=lag,
        kernel_index=kernel_index,
        spec=spec,
        samples=np.asarray(samples, float),
        factor=factor,
    )


@dataclass
class KernelMatrixSet:
    """All Gram blocks for one fit, in (lag, node, kernel) order.

    ``blocks[(l * N + i) * P + p]`` is the block for source node i at lag l
    under kernel p.  Column j of the model excludes its own instantaneous
    blocks (i = j, l = 0, all p), at ``deleted_positions(j)``.
    """

    blocks: list[KernelBlock]
    n_nodes: int
    lag: int
    n_kernels: int
    n_targets: int

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def position(self, node: int, lag: int, kernel_index: int = 0) -> int:
        if not (0 <= node < self.n_nodes and 0 <= lag <= self.lag):
            raise ShapeMismatch(f"no block for node {node}, lag {lag}")
        if not 0 <= kernel_index < self.n_kernels:
            raise ShapeMismatch(f"no kernel index {kernel_index}")
        return (lag * self.n_nodes + node) * self.n_kernels + kernel_index

    def block(self, node: int, lag: int, kernel_index: int = 0) -> KernelBlock:
        return self.blocks[self.position(node, lag, kernel_index)]

    def gram(self, node: int, lag: int, kernel_index: int = 0) -> np.ndarray:
        return self.block(node, lag, kernel_index).gram()

    def deleted_positions(self, j: int) -> list[int]:
        return [self.position(j, 0, p) for p in range(self.n_kernels)]


def assemble(grams: dict) -> KernelMatrixSet:
    """Build a KernelMatrixSet from explicit Gram matrices.

    Keys are (node, lag) pairs or (node, lag, kernel) triples; the set must
    be complete over nodes 0..N-1, lags 0..L, kernels 0..P-1, and all
    matrices must share one square shape.
    """
    if not grams:
        raise ShapeMismatch("no Gram matrices given")
    keys = list(grams)
    triples = [(k if len(k) == 3 else (k[0], k[1], 0)) for k in keys]
    n_nodes = max(t[0] for t in triples) + 1
    lag = max(t[1] for t in triples)
    n_kernels = max(t[2] for t in triples) + 1
    expected = {(i, l, p) for i in range(n_nodes) for l in range(lag + 1) for p in range(n_kernels)}
    if set(triples) != expected:
        raise ShapeMismatch("Gram matrices must cover every (node, lag, kernel)")
    by_triple = {t: np.asarray(grams[k], float) for t, k in zip(triples, keys)}
    t_prime = by_triple[(0, 0, 0)].shape[0]
    blocks = []
    for l in range(lag + 1):
        for i in range(n_nodes):
            for p in range(n_kernels):
                k = by_triple[(i, l, p)]
                if k.shape != (t_prime, t_prime):
                    raise ShapeMismatch(
                        f"Gram for node {i}, lag {l} has shape {k.shape}; "
                        f"expected {(t_prime, t_prime)}"
                    )
                factor = eigen_factor(k)
                blocks.append(
                    KernelBlock(
                        node=i,
                        lag=l,
                        kernel_index=p,
                        spec=None,
                        samples=None,
                        factor=factor,
                        _gram=k,
                    )
                )
    return KernelMatrixSet(
        blocks=blocks,
        n_nodes=n_nodes,
        lag=lag,
        n_kernels=n_kernels,
        n_targets=t_prime,
    )


def resolve_bandwidth(spec: KernelSpec, samples: np.ndarray, seed: int = 0) -> KernelSpec:
    """Replace a 'median' bandwidth with its data-driven value."""
    if spec.kind == "gaussian" and spec.bandwidth == "median":
        return KernelSpec(kind="gaussian", bandwidth=median_bandwidth(samples, seed=seed))
    return spec


def build_kernel_set(
    view: LagAlignedView,
    kernels: KernelSpec | KernelDictionary | list[KernelSpec] | dict,
    seed: int = 0,
) -> KernelMatrixSet:
    """Construct all blocks for a lag-aligned view and a kernel (or dictionary).

    Median bandwidths are resolved per (node, lag) series with a seed derived
    from ``seed`` and the block coordinates, so results are reproducible and
    independent of block construction order.  ``kernels`` may instead map
    every (node, lag, kernel index) to its own spec, such as the resolved
    specs of a kernel set built on other rows of the same panel.
    """
    if not isinstance(kernels, dict):
        if isinstance(kernels, KernelSpec):
            specs = [kernels]
        elif isinstance(kernels, KernelDictionary):
            specs = list(kernels.kernels)
        else:
            # plain lists skip the dictionary's distinctness rule on purpose:
            # duplicate entries are legal and simply produce identical stacks
            specs = list(kernels)
        kernels = {
            (i, l, p): spec
            for l in range(view.lag + 1)
            for i in range(view.n_nodes)
            for p, spec in enumerate(specs)
        }
    if not kernels:
        raise ConfigError("at least one kernel required")
    n_kernels = 1 + max(p for _, _, p in kernels)
    blocks = []
    for l in range(view.lag + 1):
        for i in range(view.n_nodes):
            z = view.regressor_series(i, l)
            for p in range(n_kernels):
                seed_ilp = abs(hash((seed, i, l, p))) % 2**32
                resolved = resolve_bandwidth(kernels[(i, l, p)], z, seed=seed_ilp)
                blocks.append(_block_from_samples(resolved, z, i, l, p))
    return KernelMatrixSet(
        blocks=blocks,
        n_nodes=view.n_nodes,
        lag=view.lag,
        n_kernels=n_kernels,
        n_targets=view.n_targets,
    )
