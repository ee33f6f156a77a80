"""Group-sparse and ridge estimators over kernel blocks, plus model selection.

The estimation problem, per target column j, is

    min_a  0.5 * ||y_j - sum_b K_b a_bj||^2  +  lambda * sum_b ||K_b^{1/2} a_bj||_2

jointly over all columns, with the instantaneous self-block of each column
structurally removed.  The group penalty zeroes whole (source, lag, kernel)
blocks, and surviving blocks mark directed edges.

ADMM splits the penalty from the quadratic through the constraint
gamma_b = K_b^{1/2} a_b: a closed-form linear solve per column, a block
shrinkage on gamma, and a dual ascent step.  The implementation works in
factor coordinates: each Gram block carries B with K = B B^T, the unknowns
become c_b = B_b^T a_b (so ||K^{1/2} a|| = ||c|| and K a = B c exactly), and
the iteration is algebraically identical to the Gram-space one on the
retained subspace.  A fit is returned as those coordinates, c of shape
(R, N) for the stacked rank R; block b's length-T' coefficients onto
column j are the minimum-norm representative a_bj = B_b (B_b^T B_b)^+ c_bj,
which keeps edge weights free of null-direction junk from rank-deficient
Grams.  Block norms need no a_bj: they come from a QR of each rank group
(``_min_norm_maps``), and only the dense ``CoefficientTensor.coeffs``
builds the vectors.

All linear solves (ADMM, ridge, cross-validation, BIC) share one
eigensolve of the stacked factor's smaller Gram per fit; see
``_FactorSystem``.  The factor is the kernel set's own
(``KernelMatrixSet.factor``), whose columns are grouped by block rank, and
its column order is the row order of ``CoefficientTensor.coords`` and
``DualState``.  Inside, the solver works on (M, R) arrays with one row per
(lambda, node) column, lambda-major, M = K N for K lambdas until columns
stop: block norms and shrinkage are one reduction per rank group, the
solves are plain row-major products, dropping columns is row indexing,
and a result is handed out as its transpose.  Model selection works
on row subsets of one kernel set (``KernelMatrixSet.take_rows``): each
cross-validation fold runs the whole lambda grid through one batched ADMM
loop on its training rows and predicts its held-out rows with the same
factors' rows.
Every fit is certified by a duality gap (``FitDiagnostics.relative_gap``):
its objective exceeds the optimum by at most that share of itself.  ADMM
is over-relaxed and takes rho = 10 lambda unless told otherwise.  Each
(lambda, node) column is its own group lasso with its own gap, and leaves
the batch once that gap is within ``SolverConfig.tol_gap``, so later
iterations run on the columns still live.  Where an iteration's
two products with V dominate its cost (N R S of at least
``_ANDERSON_WORK`` per lambda, S the rows of V^T), ADMM is
Anderson-accelerated: each (lambda, node) column mixes its last few
iterates (type-II Anderson mixing of the Douglas-Rachford map, Walker & Ni
2011; Fu, Zhang & Boyd 2020), with a restart guard, and
``FitDiagnostics.accelerated`` records it.  Such a fit with ``tol_gap``
of at least ``_SINGLE_MIN_GAP`` also runs those products in float32 while
its certificates, iterates and multipliers stay in float64, and finishes
in float64 if its gap stalls (``FitDiagnostics.single_iterations``).
Smaller fits run the plain float64 loop.
``fit``, which the pipeline calls, hands wide rank-1 fits (``_takes_path``) to an
exact lasso path, ``_lasso_path``: no first-order method certifies them in any measured cap.

Contents
--------
- SolverConfig, CoefficientTensor, DualState, FitDiagnostics, EffectiveNetwork
- fit (ridge, exact lasso path or ADMM), admm_fit, block_shrinkage
- ridge_fit (squared RKHS-norm regularizer, closed form)
- threshold_edges, predict, lambda_zero_bound
- cross_validate_lambda (h-block time folds), select_lag_bic
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    ConfigError,
    InsufficientSamples,
    NonFinite,
    ShapeMismatch,
    SingularSystem,
)
from .kernels import KernelDictionary, KernelMatrixSet, KernelSpec, build_kernel_set, cross_gram
from .panel import LagAlignedView, TimeSeriesPanel, lag_view

_GAP_EVERY = 10  # ADMM iterations between duality-gap certificates
_RHO_PER_LAM = 10.0  # the default ADMM penalty parameter is rho = 10 lambda
_RELAX = 1.6  # ADMM over-relaxation (Boyd et al. 2011, sec. 3.4.3)
# N R S per lambda from which ADMM is Anderson-accelerated: every shape of the
# sweep recorded in CHANGES.md above it fit faster accelerated, some below it slower
_ANDERSON_WORK = 7_000_000
# tol_gap from which a fit above that gate runs its x-update in float32: such
# products stall the gap at about 5e-5 on the benchmark's long dictionary window
# at lambda 10, and higher at smaller lambda (see _admm)
_SINGLE_MIN_GAP = 1e-4
_ANDERSON_DEPTH = 5  # map differences each column's Anderson history keeps
_ANDERSON_REG = 1e-10  # Tikhonov weight of the mixing least squares, relative to its trace
_ANDERSON_GROWTH = 2.0  # a residual above this factor times the last one restarts a column
# rank-1 fits that ``fit`` hands to the exact lasso path: T' up to the first and
# 2 T' < R up to the second; every shape so admitted in the sweep recorded in
# CHANGES.md fit faster than ADMM at its cap, some shapes outside it slower
_PATH_MAX_TARGETS = 24
_PATH_MAX_RANK = 600
_PATH_PIVOT = 1e-9  # Schur pivot, relative to the squared norm, below which nothing enters


@dataclass(frozen=True)
class SolverConfig:
    """Estimator settings.

    ``lam`` weighs the sparsity (or squared) penalty and ``regularizer``
    selects the estimator: ``group_l1`` for the sparse ADMM path,
    ``squared`` for the closed-form ridge path.  ``rho`` is the ADMM
    penalty parameter; None gives each fit rho = 10 lambda (``rho_for``).
    Each target column of an ADMM fit stops at the first duality-gap
    certificate, taken every 10 iterations and at ``max_iter``, whose
    relative gap is at most ``tol_gap``.  ``tol_primal`` and ``tol_dual``
    act only with ``tol_gap`` = 0, where the scaled residuals stop the fit.
    No setting turns Anderson acceleration or float32 products on or off:
    both follow the size of the fit, and float32 also ``tol_gap`` (see
    ``FitDiagnostics.accelerated`` and ``single_iterations``).  The edge
    threshold is an argument of ``threshold_edges``.
    """

    lam: float
    rho: float | None = None
    max_iter: int = 500
    tol_primal: float = 1e-5
    tol_dual: float = 1e-5
    tol_gap: float = 1e-3
    regularizer: str = "group_l1"

    def __post_init__(self) -> None:
        if not (self.lam >= 0) or not np.isfinite(self.lam):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if self.rho is not None and not (0 < self.rho < np.inf):
            raise ConfigError(f"rho must be positive and finite, got {self.rho}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if not (self.tol_primal > 0 and self.tol_dual > 0):
            raise ConfigError("tolerances must be positive")
        if not (0 <= self.tol_gap < np.inf):
            raise ConfigError(f"tol_gap must be finite and >= 0, got {self.tol_gap}")
        if self.regularizer not in ("group_l1", "squared"):
            raise ConfigError(f"unknown regularizer {self.regularizer!r}")

    def rho_for(self, lam: float) -> float:
        """The ADMM penalty parameter of a fit at ``lam``."""
        return self.rho if self.rho is not None else _RHO_PER_LAM * lam


@dataclass
class CoefficientTensor:
    """Fitted coefficient blocks, held in factor coordinates.

    ``coords`` has shape (R, N) and its rows follow the columns of
    ``kernels.factor``: rows ``kernels.columns[b]`` of column j hold
    c_bj = B_b^T a_bj, R being the total rank, so the fitted values are
    ``kernels.factor @ coords``.  The rows of every column's instantaneous
    self-blocks are exactly zero.
    ``coeffs[p, l, i, j]`` is the length-T' minimum-norm coefficient
    vector of source node i onto target node j at lag l under kernel p;
    reading ``coeffs`` builds all P (L+1) N^2 T' of them anew each time.
    ``block_norms`` is computed on first use and kept, so the tensor is
    not to be modified.
    """

    coords: np.ndarray
    kernels: KernelMatrixSet
    node_labels: tuple[str, ...] | None = None
    _norms: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kms = self.kernels
        coords = np.asarray(self.coords, dtype=float)
        want = (kms.factor.shape[1], kms.n_nodes)
        if coords.shape != want:
            raise ShapeMismatch(f"coords must have shape (R, N) = {want}, got {coords.shape}")
        if not np.isfinite(coords).all():
            raise NonFinite("coefficients contain NaN or infinity")
        for j in range(kms.n_nodes):
            for pos in kms.deleted_positions(j):
                if np.any(coords[kms.columns[pos], j] != 0.0):
                    raise ConfigError("instantaneous self-coupling blocks must be exactly zero")
        self.coords = coords

    @property
    def n_kernels(self) -> int:
        return self.kernels.n_kernels

    @property
    def lag(self) -> int:
        return self.kernels.lag

    @property
    def n_nodes(self) -> int:
        return self.kernels.n_nodes

    @property
    def kernel_specs(self) -> tuple[KernelSpec, ...] | None:
        """The kernel behind each slice p, as resolved for node 0 at lag 0;
        None when a block carries no spec."""
        specs = tuple(b.spec for b in self.kernels.blocks[: self.n_kernels])
        return None if any(s is None for s in specs) else specs

    @property
    def coeffs(self) -> np.ndarray:
        """Dense (P, L+1, N, N, T') coefficients, built on every read."""
        kms = self.kernels
        out = np.zeros((kms.n_kernels, kms.lag + 1, kms.n_nodes, kms.n_nodes, kms.n_targets))
        for block, alpha in _block_coefficients(kms, self.coords):
            out[block.kernel_index, block.lag, block.node] = alpha.T
        return out

    def block_norms(self) -> np.ndarray:
        """Euclidean norm of every block, shape (P, L+1, N, N).

        ||a_bj|| = ||P_b c_bj|| (``_min_norm_maps``), one batch per rank
        group; it equals ``np.linalg.norm(coeffs, axis=4)`` up to rounding,
        and is exactly 0 for a block whose coordinates are all 0.
        """
        if self._norms is None:
            kms = self.kernels
            norms = np.zeros((kms.n_kernels, kms.lag + 1, kms.n_nodes, kms.n_nodes))
            for (lo, hi, rank, _), (positions, _, p) in zip(kms.groups, _min_norm_maps(kms)):
                z = p @ self.coords[lo:hi].reshape(len(positions), rank, -1)
                blocks = [kms.blocks[pos] for pos in positions]
                at = np.array([(b.kernel_index, b.lag, b.node) for b in blocks]).T
                norms[tuple(at)] = np.sqrt(np.vecdot(z.mT, z.mT))
            self._norms = norms
        return self._norms

    def attribution_table(self) -> list[dict]:
        """Nonzero blocks as rows {src, dst, lag, kernel, block_norm},
        sorted by (lag, src, dst, kernel)."""
        norms = self.block_norms().transpose(1, 2, 3, 0)
        idx = np.nonzero(norms)
        return [
            {"src": i, "dst": j, "lag": l, "kernel": p, "block_norm": v}
            for l, i, j, p, v in zip(*(a.tolist() for a in idx), norms[idx].tolist())
        ]

    def kernel_share(self) -> np.ndarray:
        """Fraction of total block-norm mass carried by each kernel.

        Sums to 1 when any block is nonzero; an all-zero tensor yields the
        all-zero share vector.
        """
        mass = self.block_norms().sum(axis=(1, 2, 3))
        total = mass.sum()
        if total == 0.0:
            return np.zeros(self.n_kernels)
        return mass / total


@dataclass
class DualState:
    """ADMM auxiliary and multiplier in factor coordinates, shape (R, N),
    with the rows of ``CoefficientTensor.coords``."""

    gamma: np.ndarray
    xi: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.gamma) != np.shape(self.xi):
            raise ShapeMismatch("gamma and xi must share a shape")


@dataclass
class FitDiagnostics:
    """Per-fit convergence record.

    Each target column stops at its own certificate (see ``_admm``):
    ``iterations`` is the iteration at which the last one stopped and
    ``column_iterations`` the sum over columns of the iterations each ran.
    ``fidelity`` is the 0.5 * ||Y - Yhat||_F^2 term of the objective at the
    returned coefficients and ``penalty`` the weighted group-norm term,
    each summed over the columns' certificates at the iterations where
    they stopped, so ``final_objective = fidelity + penalty``.  The fit
    converged when every column's relative gap is at most ``tol_gap``
    (with ``tol_gap`` = 0: when the residuals met their tolerances within
    ``max_iter``).  ``relative_gaps`` maps every certified iteration to the
    worst relative duality gap over all columns, a stopped column counting
    the gap it stopped at.  Only a ``tol_gap`` = 0 fit has residual
    traces; they cover the live columns and are not monotone in general.
    ``rho`` is the ADMM penalty parameter the fit used.
    ``accelerated`` is True when the fit was large enough for Anderson
    acceleration: N R S of at least ``_ANDERSON_WORK`` per lambda, for N
    nodes, stacked rank R and S <= min(T', R) the rows of V^T, so that the
    two products with V dominate an iteration.  Each iterate is then the
    Anderson extrapolation of the plain step, and the residuals and gaps
    above are those of the extrapolated iterates.  Such a fit with
    ``tol_gap`` of at least ``_SINGLE_MIN_GAP`` also runs its x-update's
    products in float32: ``single_iterations`` counts the iterations that
    did, all of them unless the gap stalled and the fit finished in
    float64 (see ``_admm``); it is 0 for every other fit.
    ``solver`` is ``admm``,
    or ``path`` (``_lasso_path``: ``iterations`` is the most steps a column
    took, ``column_iterations`` their sum) or ``ridge`` (one iteration per
    column, gap 0), which have one certificate, no trace and ``rho`` None.
    """

    iterations: int
    column_iterations: int
    converged: bool
    relative_gaps: dict[int, float]
    fidelity: float
    penalty: float
    solver: str = "admm"
    primal_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rho: float | None = None
    accelerated: bool = False
    single_iterations: int = 0

    @property
    def final_objective(self) -> float:
        return self.fidelity + self.penalty

    @property
    def relative_gap(self) -> float:
        """max_j (P_j - D_j) / P_j at the returned iterate: by weak duality the
        objective is within ``relative_gap * final_objective`` of the optimum."""
        return self.relative_gaps[self.iterations]

    def records(self) -> list[dict]:
        """The ADMM trace, ready for newline-delimited JSON (none for a path or
        ridge fit): one dict per iteration where residuals were taken, else
        one per certificate; certified iterations carry their relative gap."""
        if self.solver != "admm":
            return []
        traced = enumerate(zip(self.primal_residuals.tolist(), self.dual_residuals.tolist()), 1)
        out = [{"iteration": k, "primal_residual": p, "dual_residual": d} for k, (p, d) in traced]
        out = out or [{"iteration": k} for k in sorted(self.relative_gaps)]
        for record in out:
            if record["iteration"] in self.relative_gaps:
                record["relative_gap"] = self.relative_gaps[record["iteration"]]
        return out


@dataclass
class EffectiveNetwork:
    """Thresholded network: per-lag support and weight matrices.

    ``weights[l, i, j]`` is the block norm of the i -> j coefficients at
    lag l (the strongest kernel's norm when a dictionary was fit), and
    ``supports`` marks entries at or above ``tau_alpha``.  The aggregate
    edge set is the union over lags.
    """

    supports: np.ndarray
    weights: np.ndarray
    tau_alpha: float
    node_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        supports = np.asarray(self.supports, dtype=bool)
        weights = np.asarray(self.weights, dtype=float)
        if supports.shape != weights.shape or supports.ndim != 3:
            raise ShapeMismatch("supports and weights must share shape (L+1, N, N)")
        if supports.shape[1] != supports.shape[2]:
            raise ShapeMismatch("support matrices must be square")
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "weights", weights)

    @property
    def lag(self) -> int:
        return self.supports.shape[0] - 1

    @property
    def n_nodes(self) -> int:
        return self.supports.shape[1]

    @property
    def aggregate_support(self) -> np.ndarray:
        return self.supports.any(axis=0)

    @property
    def aggregate_weights(self) -> np.ndarray:
        return self.weights.max(axis=0)

    @property
    def n_edges(self) -> int:
        """Directed edges in the aggregate network, self-loops excluded."""
        agg = self.aggregate_support.copy()
        np.fill_diagonal(agg, False)
        return int(agg.sum())


def block_shrinkage(z: np.ndarray, threshold: float) -> np.ndarray:
    """Scale a vector toward zero: (z/||z||) * max(||z|| - threshold, 0)."""
    z = np.asarray(z, dtype=float)
    norm = float(np.linalg.norm(z))
    if norm <= threshold or norm == 0.0:
        return np.zeros_like(z)
    return z * ((norm - threshold) / norm)


class _StackedFactor:
    """The solver's view of a kernel set's stacked T' x R factor F
    (``KernelMatrixSet.factor``) and of its rank groups.

    Working arrays have one row per target column, shape (M, R) over F's
    columns: row m fits node ``column_nodes[m]``, here every node once in
    order, so ``to_public`` is a transpose into the (R, N) layout of
    ``CoefficientTensor.coords`` and ``DualState``.  ``deleted[j]`` lists
    the columns D_j that target node j deletes (its own instantaneous
    blocks), and ``mask`` indexes every deleted entry of the rows.
    """

    def __init__(self, kms: KernelMatrixSet):
        self.F = kms.factor
        self.total_rank = self.F.shape[1]
        self.groups = kms.groups
        self.scalar_blocks = [rank for _, _, rank, _ in self.groups] == [1]  # no rank above 1
        cols = np.arange(self.total_rank)
        self.deleted = [
            np.concatenate([cols[kms.columns[p]] for p in kms.deleted_positions(j)])
            for j in range(kms.n_nodes)
        ]
        self.deleted_sizes = np.array([d.size for d in self.deleted], dtype=int)
        self.deleted_cols = np.concatenate(self.deleted)
        self._set_nodes(np.arange(kms.n_nodes))

    def _set_nodes(self, nodes: np.ndarray) -> None:
        """Let row m target node ``nodes[m]``: sets ``column_nodes`` and ``mask``."""
        sizes = self.deleted_sizes[nodes]
        ends = np.cumsum(sizes)
        starts = np.cumsum(self.deleted_sizes) - self.deleted_sizes
        at = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts[nodes] - ends + sizes, sizes)
        self.column_nodes = nodes
        self.mask = np.repeat(np.arange(nodes.size), sizes), self.deleted_cols[at]

    def to_public(self, a: np.ndarray) -> np.ndarray:
        """Working (N, R) coordinates in the (R, N) layout, as a new array."""
        return np.ascontiguousarray(a.T)

    def grouped(self, a: np.ndarray) -> list[np.ndarray]:
        """Views of (..., R) ``a``, one per rank group, shaped (..., blocks, rank)."""
        return [a[..., lo:hi].reshape(*a.shape[:-1], -1, rank) for lo, hi, rank, _ in self.groups]

    def mask_deleted(self, arr: np.ndarray) -> np.ndarray:
        arr[self.mask] = 0.0
        return arr

    def project(self, y: np.ndarray) -> np.ndarray:
        """F^T y_j for each row's target j with deleted columns zeroed, shape (M, R)."""
        return self.mask_deleted((y.T @ self.F)[self.column_nodes])

    def residual(self, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """y_j - F g_j for (M, R) g, shape (M, T')."""
        return y.T[self.column_nodes] - g @ self.F.T

    def shrink(self, v: np.ndarray, kappa) -> np.ndarray:
        """Block soft-thresholding of (M, R) ``v`` at ``kappa``, a scalar or
        an (M, 1) column: each block scaled by max(1 - kappa / ||v_b||, 0),
        so a block whose norm is within kappa becomes exactly 0."""
        if self.scalar_blocks:  # v - clip(v, -kappa, kappa); clip costs more per column
            out = np.maximum(v, -kappa)
            np.minimum(out, kappa, out=out)
            return np.subtract(v, out, out=out)
        out = np.empty_like(v)
        for v_b, g_b in zip(self.grouped(v), self.grouped(out)):
            if v_b.shape[-1] == 1:
                v_b, g_b = v_b[..., 0], g_b[..., 0]
                np.subtract(v_b, np.clip(v_b, -kappa, kappa, out=g_b), out=g_b)
            else:
                norms = np.sqrt(np.vecdot(v_b, v_b))
                # 0 wherever norms <= kappa, so kappa > 0 guards the division
                factor = np.maximum(norms - kappa, 0.0) / np.maximum(norms, kappa)
                np.multiply(v_b, factor[..., None], out=g_b)
        return out

    def block_norms(self, a: np.ndarray) -> list[np.ndarray]:
        """Norms of the blocks of (..., R) ``a``, one (..., blocks) array per
        rank group; sqrt(x * x) is |x| exactly, so rank-1 blocks skip the sum."""
        return [
            np.abs(b[..., 0]) if b.shape[-1] == 1 else np.sqrt(np.vecdot(b, b))
            for b in self.grouped(a)
        ]

    def dual_norms(self, r: np.ndarray) -> np.ndarray:
        """max_b ||B_b^T r_j|| over each row's kept blocks, for (M, T') r;
        shape (M,)."""
        best = np.zeros(r.shape[0])
        for norms in self.block_norms(self.mask_deleted(r @ self.F)):
            np.maximum(best, norms.max(axis=-1), out=best)
        return best


def _by_column(values: np.ndarray):
    """Per-row ``values`` as the scalar they all share, else as an (M, 1)
    column; a scalar broadcasts at about a third of the column's cost."""
    first = values[0]
    return first if (values == first).all() else values[:, None]


class _FactorSystem(_StackedFactor):
    """Per-fit cache for the x-update: one Gram eigensolve shared by every
    column.

    Solves (Bbar_j^T Bbar_j + penalty_k I) x_kj = q_kj for all columns j
    and all K penalties k at once, where Bbar_j stacks every block factor
    except column j's instantaneous ones.  Vectors span all R stacked
    factor columns; a column's deleted columns D_j are pinned to zero, and
    q must already be zero there.  With F = U S V^T the thin SVD of the
    stacked T' x R factor,

        H = (F^T F + penalty I)^{-1} = V diag(w) V^T + (I - V V^T) / penalty

    with span weights w = 1/(s^2 + penalty) (the last term vanishes when
    R <= T').  s and V come from ``eigh`` of the smaller Gram, not from an
    SVD: for R <= T', F^T F = V S^2 V^T directly; for R > T', F F^T =
    U S^2 U^T and V = F^T U / s on the directions with s above
    R * eps * s_max.  A direction with small s enters H only through
    1/(s^2 + penalty) - 1/penalty, about -s^2 / penalty^2, so the rounding
    the Gram adds to it is damped.  Deleting D_j is a rank-r_j
    Schur-complement correction,
    x_j = u_j - H[:, D_j] H[D_j, D_j]^{-1} u_j[D_j] with u = H q.  The
    r_j x r_j inverses are built once per fit and padded to the largest r_j
    with zero rows of V, so a solve is two products with V, the correction
    and one scaling by w, whatever the kernels' ranks.  When every deleted
    block has rank at most 1 the correction is elementwise; otherwise it
    is one small product per column each way.  ``solve`` returns
    scale_k * x_k, so a caller can fold constant factors into the weights
    (ADMM folds its rho and its over-relaxation).  A zero penalty is
    singular, and raises SingularSystem, unless F has full column rank
    (so R <= T').

    s and V are shared by the K penalties (one per lambda of a batched ADMM
    run).  The rows of the working layout are the (penalty, node) columns,
    penalty-major: row m has penalty ``column_pens[m]`` and target node
    ``column_nodes[m]``, M = K N of them until ``keep`` drops the columns
    whose fits have stopped.  Each row carries its own span weights and
    Schur factors, and the null-space weight 1/penalty (R > T' only) is a
    scalar while the live rows share it; ``keep`` refreshes it.  q and x
    have shape (M, R), and V's rows follow F's columns.

    The system is built in float64.  ``to_single`` then casts V^T, the
    Schur factors and the span weights to float32 and drops the float64
    copies.  From then on ``solve`` runs its products in float32 and
    returns float64 x; the null-space term stays in float64.
    """

    def __init__(self, kms: KernelMatrixSet, penalties, scale=1.0):
        super().__init__(kms)
        t, n = kms.n_targets, kms.n_nodes
        s2, u = np.linalg.eigh(_smaller_gram(self.F))
        s2 = np.maximum(s2, 0.0)
        full_span = self.total_rank <= t
        if full_span:
            self.vt = np.ascontiguousarray(u.T)  # row-major for the products in solve
        else:  # V = F^T U / s on the directions above rounding level
            s = np.sqrt(s2)
            kept = s > self.total_rank * np.finfo(float).eps * s.max(initial=0.0)
            s2 = s2[kept]
            self.vt = (u[:, kept] / s[kept]).T @ self.F
        penalties = np.array(penalties, dtype=float).reshape(-1)
        full_rank = full_span and s2.min() > self.total_rank * np.finfo(float).eps * s2.max()
        if (penalties <= 0).any() and not full_rank:
            raise SingularSystem(
                f"zero penalty is singular: the stacked factor (T'={t}, R={self.total_rank}) "
                "has rank below R"
            )
        # H = null I + V diag(span) V^T, per penalty
        null = np.zeros_like(penalties) if full_span else 1.0 / penalties
        span = 1.0 / (s2 + penalties[:, None]) - null[:, None]

        r_max = int(self.deleted_sizes.max(initial=0))
        vd = np.zeros((n, s2.size, r_max))  # V[D_j]^T, padded with zero columns
        for j, cols in enumerate(self.deleted):
            vd[j, :, : cols.size] = self.vt[:, cols]
        left = vd * span[:, None, :, None]  # u[D_j] = (V^T q_j) @ left_j
        hdd = vd.mT @ left
        idx = np.arange(r_max)
        hdd[..., idx, idx] += np.where(
            idx >= self.deleted_sizes[:, None], 1.0, null[:, None, None]
        )
        try:
            right = np.linalg.inv(hdd).mT @ vd.mT
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("deleted-block system is singular") from exc
        self.rank_one = r_max <= 1
        if self.rank_one:  # (K, N, S): the correction is a vecdot and a scaled row
            left, right = left.sum(axis=-1), right.sum(axis=-2)
        k = penalties.size
        self.left = left.reshape(k * n, *left.shape[2:])
        self.right = right.reshape(k * n, *right.shape[2:])
        scale = np.broadcast_to(scale, penalties.shape)
        self.span = np.repeat(scale[:, None] * span, n, axis=0)
        self.null_by_penalty = None if full_span else scale * null
        self.column_pens = np.repeat(np.arange(k), n)
        self._set_nodes(np.tile(np.arange(n), k))
        self.null = None if full_span else _by_column(self.null_by_penalty[self.column_pens])

    def keep(self, cols: np.ndarray) -> None:
        """Keep only the rows at ``cols``, in that order."""
        self.left, self.right, self.span = self.left[cols], self.right[cols], self.span[cols]
        self.column_pens = self.column_pens[cols]
        self._set_nodes(self.column_nodes[cols])
        if self.null is not None:
            self.null = _by_column(self.null_by_penalty[self.column_pens])

    def to_single(self) -> None:
        """Hold V^T, the Schur factors and the span weights in float32 only,
        one array at a time, so no float64 copy outlives its cast."""
        for name in ("vt", "left", "right", "span"):
            setattr(self, name, getattr(self, name).astype(np.float32))

    def solve(self, q: np.ndarray) -> np.ndarray:
        """Row-wise solve of (M, R) q, already zero at deleted columns, in
        the precision of ``vt``; x is float64 either way."""
        t = q.astype(self.vt.dtype, copy=False) @ self.vt.T
        if self.rank_one:
            t -= np.vecdot(t, self.left)[:, None] * self.right
        else:
            t -= ((t[:, None] @ self.left) @ self.right)[:, 0]
        t *= self.span
        x = (t @ self.vt).astype(float, copy=False)
        if self.null is not None:
            x += self.null * q
        return self.mask_deleted(x)


def _smaller_gram(f: np.ndarray) -> np.ndarray:
    """F F^T or F^T F, whichever is smaller; its eigenvalues are the squares
    of F's min(T', R) singular values."""
    return f @ f.T if f.shape[1] > f.shape[0] else f.T @ f


def _check_fit_inputs(targets: np.ndarray, kms: KernelMatrixSet) -> np.ndarray:
    y = np.asarray(targets, dtype=float)
    if y.ndim != 2 or y.shape != (kms.n_targets, kms.n_nodes):
        raise ShapeMismatch(
            f"targets of shape {y.shape} do not match kernel set "
            f"(T'={kms.n_targets}, N={kms.n_nodes})"
        )
    if not np.isfinite(y).all():
        raise NonFinite("targets contain NaN or infinity")
    return y


def _min_norm_maps(kms: KernelMatrixSet):
    """(positions, B, P) per rank group of ``kms``, stacked over its blocks:
    with B[k] = Q R and P[k] = (R^+)^T, B[k] P[k]^T P[k] c = B (B^T B)^+ c are
    the minimum-norm coefficients with factor coordinates c, of norm ||P[k] c||.
    A QR of B (||b|| for rank 1) keeps B's condition number unsquared; R is
    inverted directly unless a block of the group is rank-deficient."""
    for _, _, rank, positions in kms.groups:
        factors = np.stack([kms.blocks[pos].factor for pos in positions])
        if rank == 1:
            r = np.linalg.norm(factors, axis=1, keepdims=True)
        else:
            r = np.linalg.qr(factors, mode="r")
        d = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        full = (d.min(axis=-1) > rank * np.finfo(float).eps * d.max(axis=-1)).all()
        yield positions, factors, (np.linalg.inv(r) if full else np.linalg.pinv(r)).mT


def _block_coefficients(kms: KernelMatrixSet, coords: np.ndarray):
    """(block, a_b) for every block with a nonzero coordinate in ``coords``,
    a_b = B_b (B_b^T B_b)^+ c_b of shape (T', N); the other blocks are zero."""
    for pos, factor, p in chain.from_iterable(zip(*group) for group in _min_norm_maps(kms)):
        c = coords[kms.columns[pos]]
        if c.any():
            yield kms.blocks[pos], factor @ (p.T @ (p @ c))


def _prediction_map(kms: KernelMatrixSet, view: LagAlignedView) -> np.ndarray:
    """Phi with one-step predictions on ``view``'s rows equal to Phi @ c.

    Block b's columns are kc_b B_b (B_b^T B_b)^+, kc_b being the kernel
    between the view's samples and the training ones, so Phi @ c is the
    prediction of the minimum-norm coefficients with coordinates c.
    """
    phi = np.zeros((view.n_targets, kms.factor.shape[1]))
    for pos, factor, p in chain.from_iterable(zip(*group) for group in _min_norm_maps(kms)):
        b = kms.blocks[pos]
        if b.spec is None or b.samples is None:
            raise ConfigError("prediction on new data needs kernel blocks built from samples")
        kc = cross_gram(b.spec, view.regressor_series(b.node, b.lag), b.samples)
        phi[:, kms.columns[pos]] = kc @ (factor @ (p.T @ p))
    return phi


def predict(tensor: CoefficientTensor, view: LagAlignedView | None = None) -> np.ndarray:
    """Fitted values sum_b K_b a_bj = F c per column, on the kernel set the
    tensor was fit on; with ``view``, kernel evaluations are taken between
    the new aligned samples and the training ones (one-step-ahead
    prediction)."""
    kms = tensor.kernels
    if view is None:
        basis = kms.factor
    elif view.lag != kms.lag or view.n_nodes != kms.n_nodes:
        raise ShapeMismatch("view does not match the kernel set")
    else:
        basis = _prediction_map(kms, view)
    return basis @ tensor.coords


def lambda_zero_bound(targets: np.ndarray, kms: KernelMatrixSet) -> float:
    """Smallest lambda at which the all-zero tensor is optimal: the largest
    ||B_b^T y_j|| over every column's kept blocks."""
    y = _check_fit_inputs(targets, kms)
    return float(_StackedFactor(kms).dual_norms(y.T).max())


def _certificate(
    y: np.ndarray, system: _StackedFactor, g: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Duality-gap certificate of the rows of iterates g (M, R) in the
    system's working layout, at penalties ``lam``, one per row (M,) or one
    scalar.

    Per column j, the residual r_j = y_j - F g_j scaled into the dual
    feasible set, theta_j = r_j / max(1, max_b ||B_b^T r_j|| / lambda) over
    kept blocks, gives the lower bound D_j = ||y_j||^2/2 - ||y_j - theta_j||^2/2
    on the column's optimum (Ndiaye et al., JMLR 2017).  Returns each
    column's fidelity, penalty and relative gap (P_j - D_j) / P_j (0 where
    P_j = 0), each of shape (M,).
    """
    yt = y.T[system.column_nodes]
    r = yt - g @ system.F.T
    fidelity = 0.5 * np.vecdot(r, r)
    penalty = lam * sum(norms.sum(axis=-1) for norms in system.block_norms(g))
    theta = r / np.maximum(1.0, system.dual_norms(r) / lam)[:, None]
    primal = fidelity + penalty
    y_sq = np.vecdot(y.T, y.T)[system.column_nodes]  # summed alike whichever rows are live
    gap = primal - 0.5 * (y_sq - np.vecdot(yt - theta, yt - theta))
    return fidelity, penalty, np.divide(gap, primal, out=np.zeros_like(gap), where=primal > 0)


class _Anderson:
    """Type-II Anderson mixing of a fixed-point map v -> T(v), one history
    per row of (M, R) points, a row being one (lambda, node) column (Walker
    & Ni, SIAM J. Numer. Anal. 2011).

    ``push(tv)`` records the map value tv = T(v) at the last point v that
    ``extrapolate`` handed out (0 before the first), and with it the
    residual f = tv - v.  ``extrapolate`` returns the next point
    tv - dG gamma: dF and dG hold the row's last ``_ANDERSON_DEPTH``
    differences of residuals and of map values, shape (M, depth, R), and
    gamma minimizes ||f - dF gamma||^2 + reg ||gamma||^2, reg being
    ``_ANDERSON_REG`` times the trace of dF^T dF.  Every push writes one
    ring slot of every row and one row and column of each row's Gram
    dF^T dF.  dG enters only the product dG gamma, so it is held in single
    precision, which halves its memory.  A row whose residual norm grew
    past ``_ANDERSON_GROWTH`` times its last one, or whose mixed point is
    not finite, takes the plain step tv and clears its history; an empty
    history mixes nothing, so the first step is plain.  The point handed
    out is a buffer that the next ``extrapolate`` overwrites.  ``keep``
    drops rows as ``_FactorSystem.keep`` does.
    """

    def __init__(self, shape: tuple[int, int]):
        m, r = shape
        depth = _ANDERSON_DEPTH
        self.df = np.zeros((m, depth, r))
        self.dg = np.zeros((m, depth, r), dtype=np.float32)
        self.gram = np.zeros((m, depth, depth))
        self.filled = np.zeros((m, depth), dtype=bool)
        self.point, self.tv = np.zeros(shape), np.zeros(shape)
        self.f, self.f_last = np.zeros(shape), np.zeros(shape)
        self.step = np.zeros((m, 1, r), dtype=np.float32)
        self.sq_norm = None
        self.pushes = 0

    def keep(self, cols: np.ndarray) -> None:
        """Keep only the rows at ``cols``, in that order."""
        for name in ("df", "dg", "gram", "filled", "point", "tv", "f", "f_last", "step"):
            setattr(self, name, getattr(self, name)[cols])
        if self.sq_norm is not None:
            self.sq_norm = self.sq_norm[cols]

    def _clear(self, rows) -> None:
        self.df[rows] = 0.0
        self.dg[rows] = 0.0
        self.gram[rows] = 0.0
        self.filled[rows] = False

    def push(self, tv: np.ndarray) -> None:
        self.f, self.f_last = self.f_last, self.f
        f = np.subtract(tv, self.point, out=self.f)
        sq_norm = np.vecdot(f, f)
        if self.sq_norm is not None:
            slot = self.pushes % self.df.shape[1]
            self.pushes += 1
            np.subtract(f, self.f_last, out=self.df[:, slot])
            np.subtract(tv, self.tv, out=self.dg[:, slot])
            row = np.vecdot(self.df[:, slot, None], self.df)
            self.gram[:, slot] = row
            self.gram[:, :, slot] = row
            self.filled[:, slot] = True
            grew = ~(sq_norm <= _ANDERSON_GROWTH**2 * self.sq_norm)
            if grew.any():
                self._clear(grew)
        np.copyto(self.tv, tv)
        self.sq_norm = sq_norm

    def extrapolate(self) -> np.ndarray:
        idx = np.arange(self.gram.shape[-1])
        reg = _ANDERSON_REG * self.gram[..., idx, idx].sum(axis=-1, keepdims=True)
        lhs = self.gram.copy()
        # tiny keeps an all-zero history regular; an empty slot gets gamma 0
        lhs[..., idx, idx] += np.where(self.filled, reg + np.finfo(float).tiny, 1.0)
        rhs = np.vecdot(self.df, self.f[:, None])
        # non-finite input gives a non-finite gamma, not an error; caught below
        gamma = np.linalg.solve(lhs, rhs[..., None])
        np.matmul(gamma.mT.astype(np.float32), self.dg, out=self.step)
        np.subtract(self.tv, self.step[:, 0], out=self.point)
        bad = ~np.isfinite(np.vecdot(self.point, self.point))  # an overflowing norm too
        if bad.any():
            self.point[bad] = self.tv[bad]
            self._clear(bad)
        return self.point


@np.errstate(over="ignore", invalid="ignore")  # a diverging fit raises NonFinite instead
def _admm(
    y: np.ndarray, kms: KernelMatrixSet, lams, cfg: SolverConfig
) -> list[tuple[np.ndarray, np.ndarray, FitDiagnostics]]:
    """Over-relaxed ADMM for every lambda in ``lams`` at once, one
    (gamma, xi, diagnostics) per lambda in the public (R, N) layout.

    The columns are (lambda, node) pairs sharing one ``_FactorSystem``;
    each lambda has its own penalty parameter rho = ``cfg.rho_for(lam)``
    and shrinks at kappa = lambda/rho, one scalar while the live columns
    share it.  The relaxed point alpha x + (1 - alpha) g
    (alpha = ``_RELAX``) enters the shrinkage and the dual step; the
    primal residual stays x - g.  Each column is its own group lasso with
    its own duality-gap certificate, and stops on it: a column leaves the
    batch at the first certificate whose relative gap is at most
    ``cfg.tol_gap``, and every later product, shrinkage, Anderson step
    and certificate runs on the live columns only (the working-set idea of
    Blitz and Celer: Johnson & Guestrin 2015; Massias, Gramfort & Salmon
    2018).  Columns are checked every ``_GAP_EVERY`` iterations and at
    ``max_iter``; a check whose objective or gap is not finite raises
    NonFinite, the only sign of a diverging fit (the iteration ignores
    floating-point overflow and invalid operations), and a fit with
    ``cfg.tol_gap`` > 0 takes no residuals.  With ``cfg.tol_gap`` = 0 no
    column stops on its gap: every iteration takes each lambda's primal
    and dual residuals (a non-finite one raises), and once they are within
    ``cfg.tol_primal`` and ``cfg.tol_dual`` (scaled by the square root of
    the lambda's kept dimension, the sum over nodes of R minus the deleted
    columns) that lambda is checked and all its columns stop, so the live
    rows are whole lambdas.  A check certifies every live
    column and acts on the checked lambdas' columns only.  A stopped column
    leaves one record, at its original lambda-major row: its iterate,
    multiplier, fidelity, penalty, gap, iteration and whether it stopped
    on its test rather than at the cap.  A lambda's entry in
    ``relative_gaps`` is the worst latest gap of its columns, and its
    ``FitDiagnostics`` are built from its columns' records after the loop.
    Every decision depends on the iterates alone.

    g is the post-shrinkage iterate, (M, R) with one row per live column
    in the system's working layout.  The loop carries w = u + (1 - alpha) g
    in place of the scaled multiplier u = xi / rho, and the system's
    weights carry alpha rho, so that

        alpha x = alpha rho H (c0 / rho + (2 - alpha) g - w),
        v = alpha x + w,  g' = shrink(v),  w' = v - alpha g',

    which is the textbook iteration with two array operations fewer.  The
    state is the point v = w + alpha g, and one iteration is the
    Douglas-Rachford map v -> T(v).  When one lambda's products with V
    cost N R S multiply-adds of at least ``_ANDERSON_WORK`` (S the rows of
    ``system.vt``, at most min(T', R)), every v is replaced by its
    ``_Anderson`` extrapolation before the shrinkage, and any residuals and
    the certificates are taken at those points; below it the loop adds no
    array operation.

    Above that gate, and when ``cfg.tol_gap`` is at least
    ``_SINGLE_MIN_GAP``, the system also holds its factors in float32
    (``_FactorSystem.to_single``), so the products with V, the bulk of an
    iteration, move half the bytes (low-precision work checked in high
    precision, as surveyed by Higham & Mary, Acta Numerica 2022).
    Everything else stays float64: the iterates, the multipliers,
    Anderson's residual differences and the certificates, so every
    reported gap is still a bound.  float32 products perturb the fixed
    point, so the gap stalls at a floor that grows as lambda shrinks: on
    the benchmark's long dictionary window about 5e-5 at lambda 10 and
    1.4e-3 at 0.01 ``lambda_zero_bound``, above the pipeline's ``tol_gap``.
    A tighter ``tol_gap`` therefore runs in float64 from the start, and
    when a scheduled check that leaves columns live finds the worst live
    gap above ``cfg.tol_gap`` and not below half the last check's, the
    system is rebuilt in float64 for the live rows and the fit finishes
    there; Anderson keeps its history.  A float32 row rounds by the size
    of its batch (the BLAS kernel follows the row count), so a float32 run
    of several lambdas fits each one alone, as its separate fit would, and
    the rebuild is that lambda's own decision.
    """
    lams = np.asarray(lams, dtype=float)
    k, n = lams.size, kms.n_nodes
    # min(T', R) bounds S, so a lambda that would run float32 alone never batches
    if k > 1 and _runs_single(n * kms.factor.shape[1] * min(kms.factor.shape), cfg):
        return [out for lam in lams.tolist() for out in _admm(y, kms, [lam], cfg)]
    rhos = [cfg.rho_for(lam) for lam in lams.tolist()]
    scale = [_RELAX * r for r in rhos]
    system = _FactorSystem(kms, rhos, scale=scale)
    work = n * system.total_rank * system.vt.shape[0]
    accelerated = work >= _ANDERSON_WORK
    single = _runs_single(work, cfg)
    if single:  # before the loop's arrays exist, so the casts add nothing to the peak
        system.to_single()
    # iterations run on float32 products, and the worst live gap at the last check
    single_until, last_worst = cfg.max_iter if single else 0, np.inf
    kappas = lams / rhos
    kappa = _by_column(kappas[system.column_pens])
    c0 = system.project(y)
    c0 /= _by_column(np.array(rhos)[system.column_pens])
    g = np.zeros_like(c0)
    w = np.zeros_like(g)
    anderson = _Anderson(g.shape) if accelerated else None
    by_gap = cfg.tol_gap > 0  # takes no residuals; else residuals stop, certificates report
    root = math.sqrt(max(n * system.total_rank - system.deleted_cols.size, 1))
    tol_primal, tol_dual = cfg.tol_primal * root, cfg.tol_dual * root
    history: list[list] = [[] for _ in lams]
    gaps: list[dict] = [{} for _ in lams]
    # one record per column, at its original row; the coordinates and multipliers
    # come at the first stop, since held from the start they raise a fit's peak memory
    fidelity, penalty, last_gap = np.zeros((3, k * n))  # last_gap: at the latest check
    stop_it, converged = np.zeros(k * n, dtype=int), np.zeros(k * n, dtype=bool)
    coords = xi = None
    rows = np.arange(k * n)  # the live rows' original rows
    for it in range(1, cfg.max_iter + 1):
        xa = system.solve(c0 + (2.0 - _RELAX) * g - w)  # alpha x
        v = xa + w
        if anderson is not None:  # v = T(w + alpha g)
            anderson.push(v)
            v = anderson.extrapolate()
        g_new = system.shrink(v, kappa)
        ag = _RELAX * g_new
        passed = []  # lambdas whose residuals are within tolerance
        if not by_gap:  # the live rows are whole lambdas, n rows each
            lams_live = system.column_pens[::n].tolist()
            shape = (len(lams_live), -1)
            primal = [math.sqrt(np.dot(r, r)) / _RELAX for r in (xa - ag).reshape(shape)]
            dual = [math.sqrt(np.dot(r, r)) for r in (g_new - g).reshape(shape)]
            for pos, p, d in zip(lams_live, primal, dual):
                d *= rhos[pos]
                if not (math.isfinite(p) and math.isfinite(d)):
                    raise NonFinite(f"ADMM diverged at iteration {it}")
                history[pos].append((p, d))
                if p <= tol_primal and d <= tol_dual:
                    passed.append(pos)
        w = v - ag
        g = g_new
        del xa, v, ag  # before the certificate and the copies of stopped columns
        at_cap = it == cfg.max_iter
        scheduled = at_cap or it % _GAP_EVERY == 0
        if not (scheduled or passed):
            continue
        pens = system.column_pens
        fid, pen, rel = _certificate(y, system, g, lams[pens])
        if not np.isfinite(fid + pen + rel).all():
            raise NonFinite(f"ADMM diverged at iteration {it}")
        last_gap[rows] = rel
        worst = last_gap.reshape(k, n).max(axis=1)
        for pos in set(pens.tolist()) if scheduled else passed:
            gaps[pos][it] = float(worst[pos])
        ok = rel <= cfg.tol_gap if by_gap else np.isin(pens, passed)
        done = ok | at_cap
        # float32 runs only with tol_gap > 0, so every such check is scheduled,
        # and a stalled one leaves some column live
        if system.vt.dtype == np.float32 and not at_cap:
            if rel.max() > max(cfg.tol_gap, 0.5 * last_worst):  # stalled: finish in float64
                single_until, system = it, None  # dropped first, so the two never coexist
                system = _FactorSystem(kms, rhos, scale=scale)
                system.keep(rows)
            last_worst = rel.max()
        if not done.any():
            continue
        stop, at = np.flatnonzero(done), rows[done]
        g_stop, xi_stop = g[stop], w[stop]
        xi_stop -= (1.0 - _RELAX) * g_stop
        xi_stop *= np.array(rhos)[pens[stop], None]
        if coords is None:  # two buffers, so that a caller may drop xi
            coords, xi = np.zeros((system.total_rank, k * n)), np.zeros((system.total_rank, k * n))
        coords[:, at], xi[:, at] = g_stop.T, xi_stop.T
        fidelity[at], penalty[at], stop_it[at], converged[at] = fid[stop], pen[stop], it, ok[stop]
        del g_stop, xi_stop
        keep = np.flatnonzero(~done)
        if not keep.size:
            break
        system.keep(keep)
        if anderson is not None:
            anderson.keep(keep)
        g, w, c0, rows = g[keep], w[keep], c0[keep], rows[keep]
        kappa = _by_column(kappas[system.column_pens])
    out = []
    for pos in range(k):
        cols = slice(pos * n, (pos + 1) * n)
        primals, duals = np.array(history[pos]).reshape(-1, 2).T
        iterations = int(stop_it[cols].max())
        diagnostics = FitDiagnostics(
            iterations=iterations,
            column_iterations=int(stop_it[cols].sum()),
            converged=bool(converged[cols].all()),
            primal_residuals=primals,
            dual_residuals=duals,
            relative_gaps=gaps[pos],
            fidelity=float(fidelity[cols].sum()),
            penalty=float(penalty[cols].sum()),
            rho=rhos[pos],
            accelerated=accelerated,
            single_iterations=min(iterations, single_until),
        )
        out.append((coords[:, cols], xi[:, cols], diagnostics))
    return out


def admm_fit(
    targets: np.ndarray, kms: KernelMatrixSet, cfg: SolverConfig
) -> tuple[CoefficientTensor, DualState, FitDiagnostics]:
    """Group-sparse fit by over-relaxed ADMM at rho = ``cfg.rho_for(cfg.lam)``.

    Iterates the shared factor solve, the block shrinkage, and the dual
    ascent; each target column stops at its first duality-gap certificate
    within ``cfg.tol_gap`` (with ``tol_gap`` = 0, every column stops once
    both scaled residuals drop below tolerance).  Returns the
    post-shrinkage iterate, whose inactive blocks are exactly zero, together
    with the dual state in factor coordinates and the convergence record.
    """
    if cfg.regularizer != "group_l1":
        raise ConfigError("admm_fit handles regularizer='group_l1' only; see ridge_fit")
    if cfg.lam <= 0:
        raise ConfigError("group-sparse fitting needs lam > 0")
    y = _check_fit_inputs(targets, kms)
    [(gamma, xi, diagnostics)] = _admm(y, kms, [cfg.lam], cfg)
    return CoefficientTensor(coords=gamma, kernels=kms), DualState(gamma=gamma, xi=xi), diagnostics


def _runs_single(work: int, cfg: SolverConfig) -> bool:
    """Whether an ADMM fit whose products with V cost ``work`` = N R S
    multiply-adds per lambda runs them in float32 (see ``_admm``)."""
    return work >= _ANDERSON_WORK and cfg.tol_gap >= _SINGLE_MIN_GAP


def _hit(gap: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Step at which a gap closing at ``rate`` closes: max(gap, 0) / rate, inf if rate <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rate > 0, np.maximum(gap, 0.0) / rate, np.inf)


def _lasso_path(y: np.ndarray, kms: KernelMatrixSet, cfg: SolverConfig):
    """Exact lasso path of every column from its lambda_max down to
    ``cfg.lam``, for rank-1 blocks; returns (R, N) coordinates and diagnostics.

    Column j is then a lasso over F's kept columns, piecewise linear in
    lambda (Osborne, Presnell & Turlach 2000; Efron et al. 2004): with
    active set A and signs s, c_A = G_AA^{-1} (F_A^T y_j - lambda s) for
    G = F^T F, so as lambda falls by delta, c_A moves by delta d for
    d = G_AA^{-1} s and the correlations F^T r_j fall by delta F^T F d.  A
    step goes to the nearest event: an inactive correlation reaching
    +-lambda enters with that sign (a tie enters on a step of length 0), an
    active coefficient reaching 0 drops (and may re-enter on the next step
    only with the other sign), or lambda is reached.  Each column keeps
    G_AA^{-1} in min(T', R) padded slots, bordered on an entry and
    downdated on a drop; a coefficient with a Schur pivot within
    ``_PATH_PIVOT`` of its squared norm may not enter before the next drop.
    All columns step together, and one leaves at lambda, after
    ``cfg.max_iter`` steps or at a non-positive downdate pivot.  A batched
    solve on each support and signs then polishes the coefficients where
    it keeps those signs; the duality-gap certificate alone sets
    ``converged``.
    """
    system = _StackedFactor(kms)
    f, lam, r = system.F, cfg.lam, system.total_rank
    n, p = kms.n_nodes, min(kms.n_targets, r)
    gram = np.pad(f.T @ f, (0, 1))  # index r is an empty slot's column
    xty = system.project(y)
    level = np.abs(xty).max(axis=1)  # the lambda each column's path stands at
    deleted = np.zeros((n, r + 1), dtype=bool)
    deleted[system.mask] = deleted[:, r] = True
    slot, sign, coef = np.full((n, p), r), np.zeros((n, p)), np.zeros((n, p))
    steps, final = np.zeros(n, dtype=int), [slot.copy(), sign.copy(), coef.copy()]
    rows = np.flatnonzero(level > lam)
    # blocked: deleted, active or refused since the last drop; held: the
    # column dropped on the last step, and held_sign its sign
    state = [a[rows] for a in (xty, level, deleted, slot, sign, coef)]
    state += [np.zeros((rows.size, p, p)), np.full(rows.size, r), np.zeros(rows.size)]
    buf = np.empty((rows.size, p, p))
    for it in range(1, cfg.max_iter + 1):
        if not rows.size:
            break
        corr, level, blocked, slot, sign, coef, hinv, held, held_sign = state
        at = np.arange(rows.size)
        d = np.vecdot(hinv, sign[:, None])
        dense = np.zeros((rows.size, r + 1))
        dense[at[:, None], slot] = d
        a = (dense[:, :r] @ f.T) @ f
        lv = level[:, None]
        enter = np.minimum(_hit(lv - corr, 1.0 - a), _hit(lv + corr, 1.0 + a))
        enter[blocked[:, :r]] = np.inf
        h, hs = np.flatnonzero(held < r), held_sign[held < r]  # may return on the other side
        enter[h, held[h]] = _hit(level[h] + hs * corr[h, held[h]], 1.0 + hs * a[h, held[h]])
        k = enter.argmin(axis=1)
        drop = _hit(coef * sign, -d * sign)
        i = drop.argmin(axis=1)
        to_enter, to_drop, to_stop = enter[at, k], drop[at, i], level - lam
        delta = np.minimum(np.minimum(to_enter, to_drop), to_stop)
        coef += delta[:, None] * d
        corr -= delta[:, None] * a
        level -= delta
        done = to_stop <= np.minimum(to_enter, to_drop)
        drops = ~done & (to_drop <= to_enter)
        w, scale = np.zeros_like(d), np.zeros(rows.size)
        e = np.flatnonzero(~done & ~drops)
        ke = k[e]
        g = gram[slot[e], ke[:, None]]
        b = np.vecdot(hinv[e], g[:, None])
        pivot = gram[ke, ke] - np.vecdot(g, b)
        q = (slot[e] == r).argmax(axis=1)  # the first empty slot
        blocked[e, ke] = True
        ok = (pivot > _PATH_PIVOT * gram[ke, ke]) & (slot[e, q] == r)
        e, ke, b, q = e[ok], ke[ok], b[ok], q[ok]
        b[np.arange(e.size), q] = -1.0  # G_AA^{-1} grows by (b - e_q)(b - e_q)^T / pivot
        w[e], scale[e] = b, 1.0 / pivot[ok]
        slot[e, q], sign[e, q] = ke, np.sign(corr[e, ke])
        dr = np.flatnonzero(drops)
        hii = hinv[dr, i[dr], i[dr]]
        done[dr[hii <= 0]] = True
        dr = dr[hii > 0]
        di = i[dr]  # with h = G_AA^{-1} e_i, it shrinks by h h^T / h_i
        w[dr], scale[dr] = hinv[dr, :, di], -1.0 / hinv[dr, di, di]
        np.multiply(w[:, :, None], (scale[:, None] * w)[:, None, :], out=buf[: rows.size])
        hinv += buf[: rows.size]
        hinv[dr, di, :] = hinv[dr, :, di] = 0.0
        held[:] = r
        held[dr], held_sign[dr] = slot[dr, di], sign[dr, di]
        slot[dr, di], sign[dr, di], coef[dr, di] = r, 0.0, 0.0
        blocked[dr] = deleted[rows[dr]]
        blocked[dr[:, None], slot[dr]] = True
        done |= it == cfg.max_iter
        if done.any():
            for out, now in zip(final, (slot, sign, coef)):
                out[rows[done]] = now[done]
            steps[rows[done]] = it
            rows, state = rows[~done], [a[~done] for a in state]
    slot, sign, coef = final
    g_aa = gram[slot[:, :, None], slot[:, None, :]]
    g_aa[:, np.arange(p), np.arange(p)] += slot == r  # 1 on the empty slots
    rhs = np.take_along_axis(np.pad(xty, ((0, 0), (0, 1))), slot, axis=1) - lam * sign
    try:
        polished = np.linalg.solve(g_aa, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # a singular support keeps the path's coefficients
        polished = coef
    kept = np.isfinite(polished).all(axis=1) & (polished * sign >= 0).all(axis=1)
    coef = np.where(kept[:, None], polished, coef)
    coords = np.zeros((n, r + 1))
    coords[np.arange(n)[:, None], slot] = coef  # 0 on the empty slots
    coords = coords[:, :r]
    fid, pen, rel = _certificate(y, system, coords, lam)
    iterations = int(steps.max())
    return system.to_public(coords), FitDiagnostics(
        iterations=iterations, column_iterations=int(steps.sum()),
        converged=bool((rel <= cfg.tol_gap).all()), relative_gaps={iterations: float(rel.max())},
        fidelity=float(fid.sum()), penalty=float(pen.sum()), solver="path",
    )


def _takes_path(kms: KernelMatrixSet, cfg: SolverConfig) -> bool:
    """Whether ``fit`` takes the exact lasso path: rank-1 blocks, T' <= ``_PATH_MAX_TARGETS``,
    2 T' < R <= ``_PATH_MAX_RANK``, and a gap-stopped fit (``tol_gap`` > 0) at lambda > 0."""
    t, r = kms.n_targets, kms.factor.shape[1]
    ranks = [rank for _, _, rank, _ in kms.groups]
    wide = t <= _PATH_MAX_TARGETS and 2 * t < r <= _PATH_MAX_RANK
    return ranks == [1] and wide and cfg.lam > 0 < cfg.tol_gap


def fit(
    targets: np.ndarray, kms: KernelMatrixSet, cfg: SolverConfig
) -> tuple[CoefficientTensor, FitDiagnostics]:
    """The pipeline's fit under ``cfg``, naming its ``FitDiagnostics.solver``:
    ``ridge_fit`` for the squared penalty (one iteration per column, gap
    0), the exact lasso path where ``_takes_path`` admits the fit
    (``cfg.max_iter`` capping its steps), else ``admm_fit``."""
    if cfg.regularizer == "squared":
        tensor = ridge_fit(targets, kms, cfg)
        resid = targets - predict(tensor)
        fidelity = 0.5 * float(np.sum(resid * resid))
        penalty = cfg.lam * float(np.sum(tensor.coords * tensor.coords))
        return tensor, FitDiagnostics(
            iterations=1, column_iterations=kms.n_nodes, converged=True, relative_gaps={1: 0.0},
            fidelity=fidelity, penalty=penalty, solver="ridge",
        )
    if not _takes_path(kms, cfg):
        tensor, _, diagnostics = admm_fit(targets, kms, cfg)
        return tensor, diagnostics
    coords, diagnostics = _lasso_path(_check_fit_inputs(targets, kms), kms, cfg)
    return CoefficientTensor(coords=coords, kernels=kms), diagnostics


def _ridge_coordinates(y: np.ndarray, kms: KernelMatrixSet, lam: float) -> np.ndarray:
    """Ridge solution in factor coordinates, shape (R, N)."""
    system = _FactorSystem(kms, 2.0 * lam)
    return system.to_public(system.solve(system.project(y)))


def ridge_fit(
    targets: np.ndarray, kms: KernelMatrixSet, cfg: SolverConfig
) -> CoefficientTensor:
    """Closed-form fit under the squared RKHS-norm penalty.

    Per column, solves (Bbar_j^T Bbar_j + 2 lam I) c_j = Bbar_j^T y_j in
    factor coordinates; this is the trace-form regularized least squares,
    column-independent.
    """
    if cfg.regularizer != "squared":
        raise ConfigError("ridge_fit handles regularizer='squared' only")
    y = _check_fit_inputs(targets, kms)
    return CoefficientTensor(coords=_ridge_coordinates(y, kms, cfg.lam), kernels=kms)


def threshold_edges(
    tensor: CoefficientTensor,
    tau_alpha: float,
    node_labels: tuple[str, ...] | None = None,
) -> EffectiveNetwork:
    """Edge rule: a block is active when its norm reaches ``tau_alpha``.

    Per lag, the weight entry is the largest block norm across kernels, so
    the support equivalence weight >= tau holds for dictionaries too.  With
    tau_alpha = 0 the support is simply the nonzero pattern.
    """
    if tau_alpha < 0:
        raise ConfigError("tau_alpha must be nonnegative")
    norms = tensor.block_norms()
    weights = norms.max(axis=0)
    supports = (weights >= tau_alpha) & (weights > 0.0)
    labels = node_labels if node_labels is not None else tensor.node_labels
    return EffectiveNetwork(
        supports=supports, weights=weights, tau_alpha=tau_alpha, node_labels=labels
    )


def _fold_rows(n_samples: int, lag: int, folds: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, test) rows of a lag-``lag`` kernel set, whose row k is panel
    row k + lag, per contiguous time block of the panel.

    The test rows are the block's rows with a full history; a training row
    t has its whole history t - lag..t outside the block (h-block folds,
    Burman, Chow & Nolan, Biometrika 1994).
    """
    targets = np.arange(lag, n_samples)
    out = []
    for f, chunk in enumerate(np.array_split(np.arange(n_samples), folds)):
        test = chunk[chunk >= lag]
        if test.size == 0:
            raise InsufficientSamples(f"fold {f} has no usable target rows")
        train = targets[(targets < chunk[0]) | (targets - lag > chunk[-1])]
        if train.size == 0:
            raise InsufficientSamples(f"fold {f} leaves no training rows")
        out.append((train - lag, test - lag))
    return out


def cross_validate_lambda(
    panel: TimeSeriesPanel,
    kms: KernelMatrixSet,
    grid: list[float],
    folds: int,
    cfg: SolverConfig,
) -> tuple[float, list[dict]]:
    """Pick lambda by one-step prediction error on held-out time blocks.

    ``kms`` must be the kernel set of ``lag_view(panel, kms.lag)``; a set of
    another shape raises ShapeMismatch.  Every fold fits the rows of ``kms``
    whose history lies outside its block (``kms.take_rows``), so all
    candidates see the same kernels, data-driven bandwidths included.  Each
    fold factorizes once: the group-sparse path fits the whole grid in one
    batched ADMM run whose (lambda, node) columns each stop on their own
    certificate, as in a separate fit, and leave the batch; the ridge path
    solves once per lambda, and the held-out rows are predicted as
    F[test] c.  Ties go to the larger lambda.
    """
    if not grid:
        raise ConfigError("lambda grid must be nonempty")
    if folds < 2:
        raise ConfigError("need at least 2 folds")
    grid = [float(l) for l in grid]
    if any(l < 0 for l in grid):
        raise ConfigError("lambda values must be nonnegative")
    group = cfg.regularizer == "group_l1"
    if group and min(grid) == 0:
        raise ConfigError("group-sparse fitting needs lam > 0")
    if (kms.n_targets, kms.n_nodes) != (panel.n_samples - kms.lag, panel.n_nodes):
        raise ShapeMismatch(
            f"kernel set (T'={kms.n_targets}, N={kms.n_nodes}) is not the lag-{kms.lag} "
            f"set of a panel of shape {panel.values.shape}"
        )
    y = panel.values[kms.lag :]
    fold_errors = np.zeros((len(grid), folds))
    for f, (train, test) in enumerate(_fold_rows(panel.n_samples, kms.lag, folds)):
        kms_train = kms.take_rows(train)
        if group:
            coords = [gamma for gamma, _, _ in _admm(y[train], kms_train, grid, cfg)]
        else:
            coords = [_ridge_coordinates(y[train], kms_train, l) for l in grid]
        for gi, c in enumerate(coords):
            err = y[test] - kms.factor[test] @ c
            fold_errors[gi, f] = float(np.mean(err * err))
    means = fold_errors.mean(axis=1)
    # ascending scan; ties replace, so equal scores land on the larger lambda
    best = None
    for gi in np.argsort(grid, kind="stable"):
        if best is None or means[gi] <= means[best]:
            best = gi
    table = [
        {
            "lambda": grid[gi],
            "fold_errors": fold_errors[gi].tolist(),
            "mean_error": float(means[gi]),
        }
        for gi in range(len(grid))
    ]
    return grid[best], table


def _ridge_df(f: np.ndarray, penalty: float) -> float:
    """Effective degrees of freedom sum_i s_i^2 / (s_i^2 + penalty) of a ridge
    fit on factor f, over its squared singular values s_i^2 from the
    eigenvalues of its smaller Gram, clamped at 0; eigenvalues within
    rounding of 0, at most size * eps times the largest, count as 0."""
    s2 = np.maximum(np.linalg.eigvalsh(_smaller_gram(f)), 0.0)
    s2 = s2[s2 > s2.size * np.finfo(float).eps * s2.max(initial=0.0)]
    return float((s2 / (s2 + penalty)).sum())


def select_lag_bic(
    panel: TimeSeriesPanel,
    kernels: KernelSpec | KernelDictionary | list[KernelSpec],
    candidates: list[int],
    cfg: SolverConfig,
    seed: int = 0,
) -> int:
    """Order selection: ridge fit per candidate lag, scored by BIC.

    Each candidate L is scored with ``build_kernel_set(lag_view(panel, L),
    kernels, seed=seed)``, the kernel set its final fit would use, median
    bandwidths included, so a dictionary run scores every kernel it will
    fit.  Every candidate is fit on that set's rows for the same n panel
    rows, Lmax..T-1 for the largest candidate Lmax, so the residual sums
    compare.  A column's model size is its ridge fit's effective degrees
    of freedom (ESL eq. 3.50), df_j = sum_i s_i^2 / (s_i^2 + 2 lam) over
    the singular values s_i of its kept factor Bbar_j (``_ridge_df``), and
    with m = n N observations

        BIC = m log(RSS / m) + sum_j df_j log m.

    The edge threshold plays no part.  Ties go to the smaller lag.
    """
    if not candidates:
        raise ConfigError("lag candidates must be nonempty")
    for cand in candidates:
        if not isinstance(cand, (int, np.integer)) or cand < 1:
            raise ConfigError(f"lag candidate {cand!r} must be a positive integer")
        if cand >= panel.n_samples:
            raise ConfigError(
                f"lag candidate {cand} must be smaller than T = {panel.n_samples}"
            )
    lags = sorted(set(int(c) for c in candidates))
    rows = np.arange(lags[-1], panel.n_samples)
    n_obs = rows.size * panel.n_nodes
    penalty = 2.0 * cfg.lam
    best_lag = None
    best_bic = np.inf
    for cand in lags:
        view = lag_view(panel, cand)
        kept = rows - cand  # the shared panel rows, as rows of this view
        system = _FactorSystem(build_kernel_set(view, kernels, seed=seed).take_rows(kept), penalty)
        y = view.targets[kept]
        resid = system.residual(y, system.solve(system.project(y)))
        rss = float(np.sum(resid * resid))
        df = sum(
            _ridge_df(np.delete(system.F, deleted, axis=1), penalty) for deleted in system.deleted
        )
        bic = n_obs * np.log(max(rss, 1e-300) / n_obs) + df * np.log(n_obs)
        if bic < best_bic:
            best_bic = bic
            best_lag = cand
    return best_lag
