"""Kernels, Gram matrices, and the block structures the solvers consume.

For each source node i, lag l, and kernel p, the similarity of the aligned
regressor samples z = {y_i(t-l)} with themselves gives a T'xT' Gram block.
Blocks are kept in (lag, node, kernel) order; column j of the model drops
its own instantaneous block(s).

Every block carries a factor B with B @ B.T equal to its Gram up to the
directions below ``RANK_RTOL``; no block keeps its Gram.  Linear and
polynomial kernels get exact finite feature maps; the Gaussian kernel gets
a pivoted-Cholesky factor, trimmed to the rank and spectrum of the
truncated eigenfactor, without its T'xT' Gram ever being formed.  All
Gaussian blocks of a set share T', so they pivot in lockstep, one batched
step per pivot, each block under its own bandwidth and stopping on its own
rule (``_gaussian_factors``).  A ``KernelMatrixSet`` stacks the block
factors once, sorted by rank, into the one factor whose column order the
solver and the fitted coordinates share.  The solvers work in factor
coordinates throughout, which is both faster and immune to the junk
directions a near-singular Gram would otherwise inject.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from itertools import groupby
from math import comb

import numpy as np

from .errors import ConfigError, DegenerateSeries, ShapeMismatch
from .panel import LagAlignedView

# Relative eigenvalue cutoff below which a Gram direction is treated as null.
RANK_RTOL = 1e-12


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


def cross_gram(spec: KernelSpec, new_samples: np.ndarray, ref_samples: np.ndarray) -> np.ndarray:
    """Kernel evaluations of new samples against the reference (training) ones."""
    return _kernel_array(
        spec, np.asarray(new_samples, float), np.asarray(ref_samples, float)
    )


def median_bandwidth(
    series: np.ndarray, max_pairs: int = 1000, seed: int | list[int] = 0
) -> float:
    """Median absolute pairwise difference over at most ``max_pairs`` pairs.

    Exact when the series is short enough to enumerate every pair; larger
    series are subsampled with ``np.random.default_rng(seed)``, so a list
    of ints seeds through ``np.random.SeedSequence(seed)``.  When duplicates
    drive the median to zero, the smallest positive difference is used
    instead.
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


@dataclass
class KernelBlock:
    """One (node, lag, kernel) block: its samples and a factor B of its Gram."""

    node: int
    lag: int
    kernel_index: int
    spec: KernelSpec | None
    samples: np.ndarray | None
    factor: np.ndarray

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


def _gaussian_factors(samples: np.ndarray, bandwidths: np.ndarray) -> list[np.ndarray]:
    """Factors of the Gaussian Grams of the rows of ``samples`` (m, T'), row
    b under bandwidth ``bandwidths[b]``, built without forming any Gram.

    Greedy pivoted Cholesky (Fine & Scheinberg, JMLR 2001; Harbrecht,
    Peters & Schneider, Appl. Numer. Math. 2012) evaluates one kernel column
    per pivot, in O(T' r^2) per block, and stops a block once its largest
    residual diagonal is at rounding level, eps * T' times the largest
    diagonal.  The m blocks pivot in lockstep: each step is one batched
    argmax over the live blocks' residual diagonals, one batched kernel
    column and one einsum against the earlier pivots, and a block that
    meets its stop rule leaves the batch.  The pivot buffer grows with the
    ranks reached.  A thin QR of each block's pivoted factor and an
    eigensolve of the r x r matrix R R^T then keep the directions above
    ``RANK_RTOL`` times the largest eigenvalue, the cut a truncated
    eigenfactor of the full Gram applies, so rank and spectrum match.
    """
    z = np.asarray(samples, dtype=float)
    m, n = z.shape
    two_s2 = 2.0 * np.asarray(bandwidths, dtype=float) ** 2
    residual = np.ones((m, n))  # k(z, z) = 1 for the Gaussian
    stop = np.finfo(float).eps * n  # eps * T' times the largest diagonal, 1
    live = np.arange(m)  # the block behind each row of the batch
    rows = np.empty((m, min(n, 16), n))  # the live blocks' pivot rows
    factors = [None] * m
    for k in range(n + 1):  # after n pivots every residual is 0
        piv = np.argmax(residual, axis=1)
        pivot = residual[np.arange(live.size), piv]
        done = pivot <= stop
        if done.any():
            for b in np.flatnonzero(done):
                factors[live[b]] = _trimmed_factor(rows[b, :k])
            if done.all():
                break
            batch = (live, z, two_s2, residual, rows, piv, pivot)
            live, z, two_s2, residual, rows, piv, pivot = (a[~done] for a in batch)
        if k == rows.shape[1]:
            rows = np.concatenate([rows, np.empty((live.size, min(k, n - k), n))], axis=1)
        at = np.arange(live.size)
        col = rows[:, k]
        np.subtract(z, z[at, piv, None], out=col)
        col *= col
        col /= -two_s2[:, None]
        np.exp(col, out=col)
        col -= np.einsum("bkt,bk->bt", rows[:, :k], rows[at, :k, piv])
        col /= np.sqrt(pivot)[:, None]
        residual -= col * col
        residual[at, piv] = 0.0
    return factors


def _trimmed_factor(pivoted: np.ndarray) -> np.ndarray:
    """Eigenfactor of L^T L for the r x T' pivot rows L, cut at ``RANK_RTOL``."""
    q, r = np.linalg.qr(pivoted.T)
    w, v = np.linalg.eigh(r @ r.T)
    keep = w > RANK_RTOL * max(float(w.max()), 0.0)
    return q @ (v[:, keep] * np.sqrt(w[keep]))


@dataclass
class KernelMatrixSet:
    """All Gram blocks for one fit, in (lag, node, kernel) order, and their
    factors stacked side by side.

    ``blocks[(l * N + i) * P + p]`` is the block for source node i at lag l
    under kernel p.  Column j of the model excludes its own instantaneous
    blocks (i = j, l = 0, all p), at ``deleted_positions(j)``.

    ``factor`` is the T' x R stack F of the block factors, stably sorted by
    rank; block ``pos`` owns the columns ``columns[pos]`` and its
    ``factor`` is a view of them.  Each nonzero rank is one ``groups``
    entry (start, stop, rank, positions): columns start:stop hold the
    blocks at ``positions``, in that order.
    """

    blocks: list[KernelBlock]
    n_nodes: int
    lag: int
    n_kernels: int
    n_targets: int
    factor: np.ndarray = field(init=False, compare=False, repr=False)
    columns: list[slice] = field(init=False, compare=False, repr=False)
    groups: list[tuple[int, int, int, list[int]]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        order = sorted(range(len(self.blocks)), key=lambda pos: self.blocks[pos].rank)
        self.factor = np.hstack([self.blocks[pos].factor for pos in order])
        self.columns = [slice(0, 0)] * len(self.blocks)
        self.groups = []
        start = 0
        for rank, run in groupby(order, key=lambda pos: self.blocks[pos].rank):
            positions = list(run)
            if rank:
                self.groups.append((start, start + rank * len(positions), rank, positions))
            for pos in positions:
                self.columns[pos] = slice(start, start + rank)
                self.blocks[pos].factor = self.factor[:, self.columns[pos]]
                start += rank

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def position(self, node: int, lag: int, kernel_index: int = 0) -> int:
        if not (0 <= node < self.n_nodes and 0 <= lag <= self.lag):
            raise ShapeMismatch(f"no block for node {node}, lag {lag}")
        if not 0 <= kernel_index < self.n_kernels:
            raise ShapeMismatch(f"no kernel index {kernel_index}")
        return (lag * self.n_nodes + node) * self.n_kernels + kernel_index

    def deleted_positions(self, j: int) -> list[int]:
        return [self.position(j, 0, p) for p in range(self.n_kernels)]

    def take_rows(self, rows: np.ndarray) -> KernelMatrixSet:
        """The kernel set restricted to target rows ``rows``: every block keeps
        those rows of its samples and factor, so B[rows] B[rows]^T is the
        Gram of the kept samples under the same resolved kernel.  The stacked
        factor ``factor[rows]`` is taken once; block factors are views of it."""
        out = copy(self)  # skips __post_init__: columns and groups carry over
        out.n_targets, out.factor = len(rows), self.factor[rows]
        out.blocks = [
            KernelBlock(b.node, b.lag, b.kernel_index, b.spec, b.samples[rows], out.factor[:, cols])
            for b, cols in zip(self.blocks, self.columns)
        ]
        return out


def resolve_bandwidth(
    spec: KernelSpec, samples: np.ndarray, seed: int | list[int] = 0
) -> KernelSpec:
    """Replace a 'median' bandwidth with its data-driven value."""
    if spec.kind == "gaussian" and spec.bandwidth == "median":
        return KernelSpec(kind="gaussian", bandwidth=median_bandwidth(samples, seed=seed))
    return spec


def build_kernel_set(
    view: LagAlignedView,
    kernels: KernelSpec | KernelDictionary | list[KernelSpec],
    seed: int = 0,
) -> KernelMatrixSet:
    """Construct all blocks for a lag-aligned view and a kernel (or dictionary).

    Median bandwidths are resolved per (node, lag) series, subsampled with
    ``np.random.SeedSequence([seed, node, lag, kernel index])``, so results
    are reproducible across processes and Python builds and independent of
    block construction order; ``seed`` must be nonnegative.  The Gaussian
    blocks are factored together (``_gaussian_factors``).  Model selection
    fits row subsets of the set this returns (``KernelMatrixSet.take_rows``),
    so every candidate sees the kernels, bandwidths included, of the full
    view.
    """
    if isinstance(kernels, KernelSpec):
        specs = [kernels]
    elif isinstance(kernels, KernelDictionary):
        specs = list(kernels.kernels)
    else:
        # plain lists skip the dictionary's distinctness rule on purpose:
        # duplicate entries are legal and simply produce identical stacks
        specs = list(kernels)
    if not specs:
        raise ConfigError("at least one kernel required")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    entries = []  # (node, lag, kernel index, resolved spec, samples)
    for l in range(view.lag + 1):
        for i in range(view.n_nodes):
            z = np.asarray(view.regressor_series(i, l), dtype=float)
            for p, spec in enumerate(specs):
                resolved = resolve_bandwidth(spec, z, seed=[seed, i, l, p])
                entries.append((i, l, p, resolved, z))
    factors = [feature_factor(spec, z) for *_, spec, z in entries]
    gaussian = [b for b, factor in enumerate(factors) if factor is None]
    if gaussian:
        samples = np.stack([entries[b][4] for b in gaussian])
        bandwidths = np.array([entries[b][3].bandwidth for b in gaussian])
        for b, factor in zip(gaussian, _gaussian_factors(samples, bandwidths)):
            factors[b] = factor
    blocks = [
        KernelBlock(node=i, lag=l, kernel_index=p, spec=spec, samples=z, factor=factor)
        for (i, l, p, spec, z), factor in zip(entries, factors)
    ]
    return KernelMatrixSet(
        blocks=blocks,
        n_nodes=view.n_nodes,
        lag=view.lag,
        n_kernels=len(specs),
        n_targets=view.n_targets,
    )
