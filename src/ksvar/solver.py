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
Grams.  Block norms expand one block at a time, and only the dense
``CoefficientTensor.coeffs`` builds all of them.

All linear solves (ADMM, ridge, cross-validation, BIC) share one thin SVD
of the stacked factor per fit; see ``_FactorSystem``.  Inside, the solver
works node-major, on (K, N, R) arrays whose factor columns are grouped by
block rank, so block norms and shrinkage are one reduction per distinct
rank and the solves are plain row-major products; ``_StackedFactor`` owns
that order and alone converts results to the public (R, N) block order of
``CoefficientTensor.coords`` and ``DualState``.  Cross-validation
builds one per fold and runs the whole lambda grid through one batched
ADMM loop, predicting held-out rows straight from factor coordinates.
Every fit is certified by a duality gap (``FitDiagnostics.relative_gap``):
its objective exceeds the optimum by at most that share of itself.

Contents
--------
- SolverConfig, CoefficientTensor, DualState, FitDiagnostics, EffectiveNetwork
- admm_fit, block_shrinkage
- ridge_fit (squared RKHS-norm regularizer, closed form)
- threshold_edges, predict, lambda_zero_bound
- cross_validate_lambda (contiguous time-block folds), select_lag_bic
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InsufficientSamples,
    NonFinite,
    ShapeMismatch,
    SingularSystem,
)
from .kernels import KernelDictionary, KernelMatrixSet, KernelSpec, build_kernel_set, cross_gram
from .panel import (
    LagAlignedView,
    TimeSeriesPanel,
    lag_view,
    lag_view_for_rows,
    stack_views,
)

_GAP_EVERY = 10  # ADMM iterations between duality-gap certificates
_JITTER = 1e-10  # stands in for a zero penalty on a rank-deficient factor


@dataclass(frozen=True)
class SolverConfig:
    """Estimator settings.

    ``lam`` weighs the sparsity (or squared) penalty, ``rho`` is the ADMM
    penalty parameter, and ``regularizer`` selects the estimator:
    ``group_l1`` for the sparse ADMM path, ``squared`` for the closed-form
    ridge path.  The edge threshold is an argument of ``threshold_edges``.
    """

    lam: float
    rho: float = 1.0
    max_iter: int = 500
    tol_primal: float = 1e-5
    tol_dual: float = 1e-5
    regularizer: str = "group_l1"

    def __post_init__(self) -> None:
        if not (self.lam >= 0) or not np.isfinite(self.lam):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if not (self.rho > 0):
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if not (self.tol_primal > 0 and self.tol_dual > 0):
            raise ConfigError("tolerances must be positive")
        if self.regularizer not in ("group_l1", "squared"):
            raise ConfigError(f"unknown regularizer {self.regularizer!r}")


@dataclass
class CoefficientTensor:
    """Fitted coefficient blocks, held in factor coordinates.

    ``coords`` has shape (R, N): column j stacks c_bj = B_b^T a_bj over the
    blocks b of ``kernels`` in block order, R being their total rank.  The
    rows of every column's instantaneous self-blocks are exactly zero.
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
        starts = _block_starts(kms)
        if coords.shape != (starts[-1], kms.n_nodes):
            raise ShapeMismatch(
                f"coords must have shape (R, N) = {(int(starts[-1]), kms.n_nodes)}, "
                f"got {coords.shape}"
            )
        if not np.isfinite(coords).all():
            raise NonFinite("coefficients contain NaN or infinity")
        for j in range(kms.n_nodes):
            for pos in kms.deleted_positions(j):
                if np.any(coords[starts[pos] : starts[pos + 1], j] != 0.0):
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
    def n_basis(self) -> int:
        return self.kernels.n_targets

    @property
    def kernel_specs(self) -> tuple[KernelSpec, ...] | None:
        """The kernel behind each slice p, as resolved for node 0 at lag 0;
        None for Gram matrices given without specs."""
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

        Only blocks with a nonzero coordinate are expanded, one at a time;
        each norm runs over a contiguous T' axis, as it would on ``coeffs``,
        so the values equal ``np.linalg.norm(coeffs, axis=4)`` exactly.
        """
        if self._norms is None:
            kms = self.kernels
            norms = np.zeros((kms.n_kernels, kms.lag + 1, kms.n_nodes, kms.n_nodes))
            for block, alpha in _block_coefficients(kms, self.coords):
                norms[block.kernel_index, block.lag, block.node] = np.linalg.norm(
                    np.ascontiguousarray(alpha.T), axis=1
                )
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
    """ADMM auxiliary and multiplier in factor coordinates, shape (R, N):
    rows stack each block's coordinates in kernel-set block order."""

    gamma: np.ndarray
    xi: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.gamma) != np.shape(self.xi):
            raise ShapeMismatch("gamma and xi must share a shape")


@dataclass
class FitDiagnostics:
    """Per-fit convergence record.

    ``fidelity`` is the 0.5 * ||Y - Yhat||_F^2 term of the objective at the
    returned coefficients and ``penalty`` the weighted group-norm term, so
    ``final_objective = fidelity + penalty``.  ``residual_ratio`` is the
    larger of the final primal and dual residuals over their scaled
    tolerances; the fit converged exactly when it is at most 1.  Residual
    traces are not monotone in general.  ``relative_gaps`` maps every
    ``_GAP_EVERY``-th and the last iteration to its worst relative duality gap.
    """

    iterations: int
    converged: bool
    primal_residuals: np.ndarray
    dual_residuals: np.ndarray
    relative_gaps: dict[int, float]
    final_objective: float
    fidelity: float
    penalty: float
    residual_ratio: float

    @property
    def relative_gap(self) -> float:
        """max_j (P_j - D_j) / P_j at the returned iterate: by weak duality the
        objective is within ``relative_gap * final_objective`` of the optimum."""
        return self.relative_gaps[self.iterations]

    def records(self) -> list[dict]:
        """One dict per iteration, ready for newline-delimited JSON; certified
        iterations also carry their relative gap."""
        out = []
        for k in range(self.iterations):
            record = {
                "iteration": k + 1,
                "primal_residual": float(self.primal_residuals[k]),
                "dual_residual": float(self.dual_residuals[k]),
            }
            if k + 1 in self.relative_gaps:
                record["relative_gap"] = self.relative_gaps[k + 1]
            out.append(record)
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
    """The stacked T' x R factor F of a kernel set in the solver's working
    layout.

    F's columns are the blocks' factor columns with the blocks stably
    sorted by rank, so blocks of equal rank sit next to each other: each
    distinct nonzero rank is one ``groups`` entry (start, stop, rank) of
    contiguous columns.  Working coordinates are node-major, shape
    (K, N, R), and ``to_public`` returns one (N, R) array in the public
    block-order (R, N) layout of ``CoefficientTensor.coords`` and
    ``DualState``; no other code converts between the two.  ``deleted[j]``
    lists the working columns D_j that target node j deletes (its own
    instantaneous blocks).
    """

    def __init__(self, kms: KernelMatrixSet):
        n = kms.n_nodes
        starts = _block_starts(kms)
        ranks = np.diff(starts)
        order = np.argsort(ranks, kind="stable")
        sorted_ranks = ranks[order]
        first = np.concatenate([[0], np.cumsum(sorted_ranks)])
        self.total_rank = int(first[-1])
        self.F = np.hstack([kms.blocks[pos].factor for pos in order])
        # rows[c] is the public row of working column c
        self.rows = np.concatenate([np.arange(starts[pos], starts[pos + 1]) for pos in order])
        self.groups = []
        for rank in np.unique(sorted_ranks[sorted_ranks > 0]).tolist():
            lo, hi = np.searchsorted(sorted_ranks, [rank, rank + 1])
            self.groups.append((int(first[lo]), int(first[hi]), rank))
        col_of = np.empty_like(ranks)
        col_of[order] = first[:-1]
        self.deleted = [
            np.concatenate(
                [np.arange(col_of[p], col_of[p] + ranks[p]) for p in kms.deleted_positions(j)]
            )
            for j in range(n)
        ]
        self.deleted_sizes = np.array([cols.size for cols in self.deleted], dtype=int)
        self.kept_dim = int(n * self.total_rank - self.deleted_sizes.sum())
        self.deleted_nodes = np.concatenate(
            [np.full(cols.size, j) for j, cols in enumerate(self.deleted)]
        )
        self.deleted_cols = np.concatenate(self.deleted)

    def to_public(self, a: np.ndarray) -> np.ndarray:
        """Working (N, R) coordinates in the public block-order (R, N) layout."""
        out = np.empty(a.shape[::-1])
        out[self.rows] = a.T
        return out

    def grouped(self, a: np.ndarray) -> list[np.ndarray]:
        """Views of (..., R) ``a``, one per rank group, shaped (..., blocks, rank)."""
        return [a[..., lo:hi].reshape(a.shape[:-1] + (-1, rank)) for lo, hi, rank in self.groups]

    def mask_deleted(self, arr: np.ndarray) -> np.ndarray:
        arr[:, self.deleted_nodes, self.deleted_cols] = 0.0
        return arr

    def project(self, y: np.ndarray) -> np.ndarray:
        """F^T y_j with deleted columns zeroed, shape (1, N, R)."""
        return self.mask_deleted((y.T @ self.F)[None])

    def residual(self, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """y_j - F g_j for (K, N, R) g, shape (K, N, T')."""
        return y.T - g @ self.F.T

    def block_norms(self, a: np.ndarray) -> list[np.ndarray]:
        """Norms of the blocks of (..., R) ``a``, one (..., blocks) array per
        rank group; sqrt(x * x) is |x| exactly, so rank-1 blocks skip the sum."""
        return [
            np.abs(b[..., 0]) if b.shape[-1] == 1 else np.sqrt(np.vecdot(b, b))
            for b in self.grouped(a)
        ]

    def dual_norms(self, r: np.ndarray) -> np.ndarray:
        """max_b ||B_b^T r_j|| over each column's kept blocks, for (K, N, T')
        r; shape (K, N)."""
        best = np.zeros(r.shape[:-1])
        for norms in self.block_norms(self.mask_deleted(r @ self.F)):
            np.maximum(best, norms.max(axis=-1), out=best)
        return best


class _FactorSystem(_StackedFactor):
    """Per-fit cache for the x-update: one thin SVD shared by every column.

    Solves (Bbar_j^T Bbar_j + penalty I) x_j = q_j for all columns j at once,
    where Bbar_j stacks every block factor except column j's instantaneous
    ones.  Vectors span all R stacked factor columns; a column's deleted
    columns D_j are pinned to zero, and q must already be zero there.  With
    F = U S V^T the thin SVD of the stacked T' x R factor,

        H = (F^T F + penalty I)^{-1} = V diag(w) V^T + (I - V V^T) / penalty

    with span weights w = 1/(s^2 + penalty) (the last term vanishes when
    R <= T'), and deleting D_j is a rank-r_j Schur-complement correction,
    x_j = u_j - H[:, D_j] H[D_j, D_j]^{-1} u_j[D_j] with u = H q.  The
    r_j x r_j inverses are built once per fit and padded to the largest r_j
    with zero rows of V, so a solve is two products with V, two batched
    per-node products and one scaling by w, whatever the kernels' ranks.
    A zero penalty is singular unless R <= T'; a rank-deficient F then
    takes ``_JITTER`` instead.

    Everything is in the working layout of ``_StackedFactor``: q and x have
    shape (K, N, R), K right-hand sides per node (one per lambda of a
    batched ADMM run), and V's rows follow F's grouped columns.
    """

    def __init__(self, kms: KernelMatrixSet, penalty: float):
        super().__init__(kms)
        t, n = kms.n_targets, kms.n_nodes
        _, s, self.vt = np.linalg.svd(self.F, full_matrices=False)
        s2 = s * s
        full_span = self.vt.shape[0] == self.total_rank
        if penalty <= 0:
            if not full_span:
                raise SingularSystem(
                    f"zero penalty with stacked rank {self.total_rank} > T'={t} is singular"
                )
            if s2.size and s2.min() <= self.total_rank * np.finfo(float).eps * s2.max():
                penalty = _JITTER
        # H = null_weight I + V diag(span_weight) V^T
        self.null_weight = 0.0 if full_span else 1.0 / penalty
        self.span_weight = 1.0 / (s2 + penalty) - self.null_weight

        r_max = int(self.deleted_sizes.max(initial=0))
        vd = np.zeros((n, s.size, r_max))  # V[D_j]^T, padded with zero columns
        for j, cols in enumerate(self.deleted):
            vd[j, :, : cols.size] = self.vt[:, cols]
        self.left = vd * self.span_weight[:, None]  # u[D_j] = (V^T q_j) @ left_j
        hdd = vd.mT @ self.left
        idx = np.arange(r_max)
        hdd[:, idx, idx] += np.where(idx >= self.deleted_sizes[:, None], 1.0, self.null_weight)
        try:
            self.right = np.linalg.inv(hdd).mT @ vd.mT
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("deleted-block system is singular") from exc

    def solve(self, q: np.ndarray) -> np.ndarray:
        """Columnwise solve of (K, N, R) q, already zero at deleted columns."""
        k, n, r = q.shape
        t = (q.reshape(k * n, r) @ self.vt.T).reshape(k, n, -1)
        by_node = t.transpose(1, 0, 2)  # a view: the correction lands in t
        by_node -= (by_node @ self.left) @ self.right
        t *= self.span_weight
        x = (t.reshape(k * n, -1) @ self.vt).reshape(k, n, r)
        if self.null_weight:
            x += self.null_weight * q
        return self.mask_deleted(x)


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


def _block_starts(kms: KernelMatrixSet) -> np.ndarray:
    """First coordinate row of every block in the stacked (R, N) layout,
    followed by R."""
    return np.concatenate([[0], np.cumsum([b.rank for b in kms.blocks])]).astype(int)


def _gram_pinvs(kms: KernelMatrixSet):
    """(position, block, (B^T B)^+) for every block of nonzero rank, the
    pseudo-inverses computed in one batch per rank; B (B^T B)^+ c is the
    minimum-norm coefficient vector whose factor coordinates are c."""
    groups: dict[int, list[int]] = {}
    for pos, block in enumerate(kms.blocks):
        if block.rank:
            groups.setdefault(block.rank, []).append(pos)
    for positions in groups.values():
        factors = np.stack([kms.blocks[pos].factor for pos in positions])
        pinvs = np.linalg.pinv(factors.transpose(0, 2, 1) @ factors, hermitian=True)
        for pos, pinv in zip(positions, pinvs):
            yield pos, kms.blocks[pos], pinv


def _block_coefficients(kms: KernelMatrixSet, coords: np.ndarray):
    """(block, a_b) for every block with a nonzero coordinate in ``coords``,
    a_b = B_b (B_b^T B_b)^+ c_b of shape (T', N); the other blocks are zero."""
    starts = _block_starts(kms)
    for pos, block, pinv in _gram_pinvs(kms):
        c = coords[starts[pos] : starts[pos + 1]]
        if c.any():
            yield block, block.factor @ (pinv @ c)


def _prediction_map(kms: KernelMatrixSet, view: LagAlignedView) -> np.ndarray:
    """Phi with one-step predictions on ``view``'s rows equal to Phi @ c.

    Block b's columns are kc_b B_b (B_b^T B_b)^+, kc_b being the kernel
    between the view's samples and the training ones, so Phi @ c is the
    prediction of the minimum-norm coefficients with coordinates c.
    """
    starts = _block_starts(kms)
    phi = np.zeros((view.n_targets, starts[-1]))
    for pos, b, pinv in _gram_pinvs(kms):
        if b.spec is None or b.samples is None:
            raise ConfigError("prediction on new data needs kernel blocks built from samples")
        kc = cross_gram(b.spec, view.regressor_series(b.node, b.lag), b.samples)
        phi[:, starts[pos] : starts[pos + 1]] = kc @ (b.factor @ pinv)
    return phi


def rkhs_block_norms(kms: KernelMatrixSet, tensor: CoefficientTensor) -> np.ndarray:
    """||K_b^{1/2} a_bj||_2 = ||c_bj||_2 for every block, shape (P, L+1, N, N)."""
    n = kms.n_nodes
    out = np.zeros((kms.n_kernels, kms.lag + 1, n, n))
    starts = _block_starts(kms)
    for pos, b in enumerate(kms.blocks):
        out[b.kernel_index, b.lag, b.node] = np.linalg.norm(
            tensor.coords[starts[pos] : starts[pos + 1]], axis=0
        )
    return out


def predict(
    tensor: CoefficientTensor,
    kms: KernelMatrixSet,
    view: LagAlignedView | None = None,
) -> np.ndarray:
    """Fitted values sum_b K_b a_bj = F c per column; with ``view``, kernel
    evaluations are taken between the new aligned samples and the training
    ones (one-step-ahead prediction)."""
    if (tensor.n_kernels, tensor.lag, tensor.n_nodes, tensor.n_basis, tensor.coords.shape[0]) != (
        kms.n_kernels,
        kms.lag,
        kms.n_nodes,
        kms.n_targets,
        sum(b.rank for b in kms.blocks),
    ):
        raise ShapeMismatch("coefficient tensor does not match the kernel set")
    if view is None:
        basis = np.hstack([b.factor for b in kms.blocks])
    elif view.lag != kms.lag or view.n_nodes != kms.n_nodes:
        raise ShapeMismatch("view does not match the kernel set")
    else:
        basis = _prediction_map(kms, view)
    return basis @ tensor.coords


def lambda_zero_bound(targets: np.ndarray, kms: KernelMatrixSet) -> float:
    """Smallest lambda at which the all-zero tensor is optimal: the largest
    ||B_b^T y_j|| over every column's kept blocks."""
    y = _check_fit_inputs(targets, kms)
    return float(_StackedFactor(kms).dual_norms(y.T[None]).max())


def _sumsq_each(a: np.ndarray) -> list[float]:
    """Sum of squared entries of each a[k]."""
    flat = a.reshape(a.shape[0], -1)
    return np.vecdot(flat, flat).tolist()


def _certificate(
    y: np.ndarray, system: _StackedFactor, g: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Duality-gap certificate of K iterates g (K, N, R), one per lambda.

    Per column j, the residual r_j = y_j - F g_j scaled into the dual
    feasible set, theta_j = r_j / max(1, max_b ||B_b^T r_j|| / lambda) over
    kept blocks, gives the lower bound D_j = ||y_j||^2/2 - ||y_j - theta_j||^2/2
    on the column's optimum (Ndiaye et al., JMLR 2017).  Returns each
    column's fidelity, penalty and relative gap (P_j - D_j) / P_j (0 where
    P_j = 0), each of shape (K, N).
    """
    lam = lam[:, None]
    r = system.residual(y, g)
    fidelity = 0.5 * np.vecdot(r, r)
    penalty = lam * sum(norms.sum(axis=-1) for norms in system.block_norms(g))
    theta = r / np.maximum(1.0, system.dual_norms(r) / lam)[..., None]
    primal = fidelity + penalty
    yt = y.T
    gap = primal - 0.5 * (np.vecdot(yt, yt) - np.vecdot(yt - theta, yt - theta))
    return fidelity, penalty, np.divide(gap, primal, out=np.zeros_like(gap), where=primal > 0)


def _admm(
    y: np.ndarray, system: _FactorSystem, lams, cfg: SolverConfig
) -> list[tuple[np.ndarray, np.ndarray, FitDiagnostics]]:
    """ADMM for every lambda in ``lams`` at once, one (g, u, diagnostics)
    per lambda.

    The columns are (lambda, node) pairs sharing ``system``; each lambda
    shrinks at its own threshold lambda/rho and stops on its own residual
    test, and its iterate is kept at the iteration where it converged or
    at ``max_iter``.  g is the post-shrinkage iterate and u = xi / rho the
    scaled multiplier, both (N, R) in the working layout of ``system``.
    The objective and its duality gap are evaluated only every
    ``_GAP_EVERY`` iterations and where a lambda stops.
    """
    rho = cfg.rho
    scale_dim = math.sqrt(max(system.kept_dim, 1))
    tol_primal, tol_dual = cfg.tol_primal * scale_dim, cfg.tol_dual * scale_dim
    c0 = system.project(y)
    live = list(range(len(lams)))  # grid positions still iterating
    lam_live = np.asarray(lams, dtype=float)
    kappa = (lam_live / rho)[:, None, None]
    g = np.zeros((len(lams),) + c0.shape[1:])
    u = np.zeros_like(g)
    history: list[list] = [[] for _ in lams]
    gaps: list[dict] = [{} for _ in lams]
    out: list = [None] * len(lams)

    for it in range(1, cfg.max_iter + 1):
        x = system.solve(c0 + rho * (g - u))
        v = x + u
        g_new = np.empty_like(v)
        for v_b, g_b in zip(system.grouped(v), system.grouped(g_new)):
            if v_b.shape[-1] == 1:
                # scalar blocks: v - clip(v, -kappa, kappa), exactly 0 inside
                v_b, g_b = v_b[..., 0], g_b[..., 0]
                np.subtract(v_b, np.minimum(np.maximum(v_b, -kappa), kappa), out=g_b)
            else:
                norms = np.sqrt(np.vecdot(v_b, v_b))
                # 0 wherever norms <= kappa, so kappa > 0 guards the division
                factor = np.maximum(norms - kappa, 0.0) / np.maximum(norms, kappa)
                np.multiply(v_b, factor[..., None], out=g_b)
        step = x - g_new
        primal = _sumsq_each(step)
        dual = _sumsq_each(g_new - g)
        g = g_new
        u += step
        stop = []
        for i, pos in enumerate(live):
            p, d = math.sqrt(primal[i]), rho * math.sqrt(dual[i])
            if not (math.isfinite(p) and math.isfinite(d)):
                raise NonFinite(f"ADMM diverged at iteration {it}")
            history[pos].append((p, d))
            if (p <= tol_primal and d <= tol_dual) or it == cfg.max_iter:
                stop.append(i)
        checked = range(len(live)) if it % _GAP_EVERY == 0 else stop
        if not checked:
            continue
        fid, pen, rel = _certificate(y, system, g[checked], lam_live[checked])
        certified = {}
        for i, fid_i, pen_i, rel_i in zip(
            checked, fid.sum(axis=1).tolist(), pen.sum(axis=1).tolist(), rel.max(axis=1).tolist()
        ):
            gaps[live[i]][it] = rel_i
            certified[i] = fid_i, pen_i
        for i in stop:
            pos = live[i]
            p, d = history[pos][-1]
            primals, duals = np.array(history[pos]).T
            fid, pen = certified[i]
            out[pos] = (
                g[i],
                u[i],
                FitDiagnostics(
                    iterations=it,
                    converged=p <= tol_primal and d <= tol_dual,
                    primal_residuals=primals,
                    dual_residuals=duals,
                    relative_gaps=gaps[pos],
                    final_objective=fid + pen,
                    fidelity=fid,
                    penalty=pen,
                    residual_ratio=max(p / tol_primal, d / tol_dual),
                ),
            )
        if len(stop) == len(live):
            break
        if stop:
            keep = [i for i in range(len(live)) if i not in stop]
            live = [live[i] for i in keep]
            lam_live, kappa, g, u = lam_live[keep], kappa[keep], g[keep], u[keep]
    return out


def admm_fit(
    targets: np.ndarray, kms: KernelMatrixSet, cfg: SolverConfig
) -> tuple[CoefficientTensor, DualState, FitDiagnostics]:
    """Group-sparse fit by ADMM.

    Iterates the shared factor solve, the block shrinkage, and the dual
    ascent until both scaled residuals drop below tolerance.  Returns the
    post-shrinkage iterate, whose inactive blocks are exactly zero, together
    with the dual state in factor coordinates and the convergence record.
    """
    if cfg.regularizer != "group_l1":
        raise ConfigError("admm_fit handles regularizer='group_l1' only; see ridge_fit")
    if cfg.lam <= 0:
        raise ConfigError("group-sparse fitting needs lam > 0")
    y = _check_fit_inputs(targets, kms)
    system = _FactorSystem(kms, cfg.rho)
    [(g, u, diagnostics)] = _admm(y, system, [cfg.lam], cfg)
    gamma = system.to_public(g)
    dual = DualState(gamma=gamma, xi=system.to_public(cfg.rho * u))
    return CoefficientTensor(coords=gamma, kernels=kms), dual, diagnostics


def _ridge_coordinates(y: np.ndarray, kms: KernelMatrixSet, lam: float) -> np.ndarray:
    """Ridge solution in factor coordinates, shape (R, N)."""
    system = _FactorSystem(kms, 2.0 * lam)
    return system.to_public(system.solve(system.project(y))[0])


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


def _resolved_specs(kms: KernelMatrixSet) -> dict[tuple[int, int, int], KernelSpec]:
    specs = {}
    for block in kms.blocks:
        if block.spec is None:
            raise ConfigError(
                "cross-validation needs kernel blocks that carry their specs"
            )
        specs[(block.node, block.lag, block.kernel_index)] = block.spec
    return specs


def _fold_views(
    panel: TimeSeriesPanel, lag: int, folds: int
) -> list[tuple[LagAlignedView, LagAlignedView]]:
    """(train, test) views per contiguous time-block fold."""
    t = panel.n_samples
    chunks = np.array_split(np.arange(t), folds)
    out = []
    for f, chunk in enumerate(chunks):
        test_rows = chunk[chunk >= lag]
        if test_rows.size == 0:
            raise InsufficientSamples(f"fold {f} has no usable target rows")
        train_views = []
        for run in (np.arange(0, chunk[0]), np.arange(chunk[-1] + 1, t)):
            if run.size > lag:
                sub = TimeSeriesPanel(
                    values=panel.values[run],
                    node_labels=panel.node_labels,
                    sample_rate_hz=panel.sample_rate_hz,
                )
                train_views.append(lag_view(sub, lag))
        if not train_views:
            raise InsufficientSamples(f"fold {f} leaves no training rows")
        train = train_views[0] if len(train_views) == 1 else stack_views(train_views)
        test = lag_view_for_rows(panel, lag, test_rows)
        out.append((train, test))
    return out


def cross_validate_lambda(
    panel: TimeSeriesPanel,
    kms: KernelMatrixSet,
    grid: list[float],
    folds: int,
    cfg: SolverConfig,
) -> tuple[float, list[dict]]:
    """Pick lambda by one-step prediction error on held-out time blocks.

    ``kms`` must be the kernel set built on the full panel; its resolved
    specs (including data-driven bandwidths) are reused on every fold so
    all candidates see identical kernels.  Each fold factorizes once: the
    group-sparse path fits the whole grid in one batched ADMM run (each
    lambda stopping on its own test, as a separate fit would), the ridge
    path solves once per lambda, and held-out rows are predicted from
    factor coordinates.  Ties go to the larger lambda.
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
    specs = _resolved_specs(kms)
    fold_errors = np.zeros((len(grid), folds))
    for f, (train, test) in enumerate(_fold_views(panel, kms.lag, folds)):
        kms_train = build_kernel_set(train, specs)
        if group:
            system = _FactorSystem(kms_train, cfg.rho)
            coords = [system.to_public(g) for g, _, _ in _admm(train.targets, system, grid, cfg)]
        else:
            coords = [_ridge_coordinates(train.targets, kms_train, l) for l in grid]
        phi = _prediction_map(kms_train, test)
        for gi, c in enumerate(coords):
            err = test.targets - phi @ c
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


def select_lag_bic(
    panel: TimeSeriesPanel,
    kernels: KernelSpec | KernelDictionary | list[KernelSpec],
    candidates: list[int],
    cfg: SolverConfig,
    seed: int = 0,
) -> int:
    """Order selection: ridge fit per candidate lag, scored by BIC.

    ``kernels`` and ``seed`` build each candidate's kernel set as
    ``build_kernel_set`` does, so a dictionary run scores every kernel it
    will fit.  Every candidate is fit on the same n target rows, Lmax..T-1
    for the largest candidate Lmax, so the residual sums compare.  A column's model
    size is its ridge fit's effective degrees of freedom (ESL eq. 3.50),
    df_j = sum_i s_i^2 / (s_i^2 + 2 lam) over the singular values s_i of
    its kept factor Bbar_j, and with m = n N observations

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
        view = lag_view_for_rows(panel, cand, rows)
        system = _FactorSystem(build_kernel_set(view, kernels, seed=seed), penalty)
        resid = system.residual(view.targets, system.solve(system.project(view.targets)))
        rss = float(np.sum(resid * resid))
        df = 0.0
        for deleted in system.deleted:
            s2 = np.linalg.svd(np.delete(system.F, deleted, axis=1), compute_uv=False) ** 2
            df += float(np.divide(s2, s2 + penalty, out=np.zeros_like(s2), where=s2 > 0).sum())
        bic = n_obs * np.log(max(rss, 1e-300) / n_obs) + df * np.log(n_obs)
        if bic < best_bic:
            best_bic = bic
            best_lag = cand
    return best_lag
