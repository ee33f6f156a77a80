"""Independent reference implementations backing the test suite.

Everything here is deliberately written from scratch against the problem
statements, not against the package internals: raw kernel arithmetic, an
accelerated proximal-gradient group-lasso solver certified by duality gap,
a normal-equations ridge solve, and exhaustive path-enumeration graph
metrics in exact rational arithmetic.  The exceptions are former package
code kept as references: ``brandes_betweenness``, the per-source
``Fraction`` betweenness, exact for graphs too large to enumerate; the
solver's thin-SVD factorization (``svd_factor_solve``, ``svd_ridge_df``)
and the one-block-at-a-time pivoted Cholesky (``pivoted_factor``) that the
Gram eigensolve and the lockstep Gaussian factor replaced; the
Gram helpers (``block_gram``, a block's dense Gram B @ B.T from the factor
the solver uses; ``eigen_factor`` and ``psd_sqrt``, a factor and a root of
an explicit Gram, behind one symmetric-PSD check that raises ``NotPsd``;
``assemble``, a kernel set over explicit Grams, such as the identity
blocks of ``unit_tensor``); the dense Gram layout (``kbar``, ``dmat``,
``dsqrt`` and their deleted forms, and the stacked coefficients
``w_stacked``); the Gram-space
ADMM pieces (``admm_column_update``, ``dual_update``), the objective
evaluated from coefficient blocks (``objective_value``) and each
column's duality gap from them (``column_relative_gaps``), the per-block
cross-Gram ``heldout_prediction``, the edge rows of a saved network
(``network_edges``), and the per-fold kernel sets
(``contiguous_fold_errors``) that cross-validation used, and the
dictionary-fit wrappers ``expand_dictionary``, ``mkl_fit`` and
``mkl_fit_with_diagnostics``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np

from ksvar.errors import ShapeMismatch, SingularSystem
from ksvar.kernels import (
    RANK_RTOL,
    KernelBlock,
    KernelDictionary,
    KernelMatrixSet,
    KernelSpec,
    build_kernel_set,
    cross_gram,
)
from ksvar.panel import LagAlignedView, TimeSeriesPanel, lag_view
from ksvar.solver import (
    CoefficientTensor,
    DualState,
    EffectiveNetwork,
    FitDiagnostics,
    SolverConfig,
    admm_fit,
    predict,
    ridge_fit,
    rkhs_block_norms,
    threshold_edges,
)


# ---------------------------------------------------------------------------
# kernel arithmetic


def kernel_value(spec, a: float, b: float) -> float:
    if spec.kind == "linear":
        return a * b
    if spec.kind == "polynomial":
        return (a * b + spec.offset) ** spec.degree
    return float(np.exp(-((a - b) ** 2) / (2.0 * spec.bandwidth**2)))


def gram(spec, z: np.ndarray) -> np.ndarray:
    t = len(z)
    out = np.empty((t, t))
    for a in range(t):
        for b in range(t):
            out[a, b] = kernel_value(spec, z[a], z[b])
    return out


def column_designs(panel_values: np.ndarray, lag: int, specs) -> list[list[np.ndarray]]:
    """Per target column j, the PSD roots of its retained Gram blocks in
    (lag, node, kernel) order with the instantaneous self-blocks removed."""
    t, n = panel_values.shape
    roots = {}
    for l in range(lag + 1):
        for i in range(n):
            z = panel_values[lag - l : t - l, i]
            for p, spec in enumerate(specs):
                roots[(l, i, p)] = psd_sqrt(gram(spec, z), jitter=0.0)
    designs = []
    for j in range(n):
        mats = []
        for l in range(lag + 1):
            for i in range(n):
                for p in range(len(specs)):
                    if l == 0 and i == j:
                        continue
                    mats.append(roots[(l, i, p)])
        designs.append(mats)
    return designs


# ---------------------------------------------------------------------------
# group lasso by accelerated proximal gradient, duality-gap certified


def fista_group_lasso(
    y: np.ndarray,
    mats: list[np.ndarray],
    lam: float,
    max_iter: int = 200_000,
    gap_rtol: float = 1e-12,
):
    """Solve min_g 0.5||y - sum_b A_b g_b||^2 + lam * sum_b ||g_b||_2.

    Returns (g, objective, gap).  The gap bounds the suboptimality: any
    feasible dual point u (||A_b^T u|| <= lam for all b) gives the lower
    bound u.y - 0.5||u||^2, and scaling the residual into the feasible set
    provides one.  A returned gap below gap_rtol*(1+|obj|) certifies the
    objective to that precision.
    """
    sizes = [m.shape[1] for m in mats]
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    a_full = np.hstack(mats)
    lip = np.linalg.norm(a_full, 2) ** 2

    def penalty(v):
        return sum(float(np.linalg.norm(v[starts[b] : starts[b + 1]])) for b in range(len(mats)))

    def primal(v):
        r = y - a_full @ v
        return 0.5 * float(r @ r) + lam * penalty(v)

    def prox(v, thr):
        out = np.empty_like(v)
        for b in range(len(mats)):
            seg = v[starts[b] : starts[b + 1]]
            nrm = float(np.linalg.norm(seg))
            f = max(nrm - thr, 0.0) / nrm if nrm > 0 else 0.0
            out[starts[b] : starts[b + 1]] = f * seg
        return out

    def gap_at(v, p_v):
        r = y - a_full @ v
        corr = max((float(np.linalg.norm(m.T @ r)) for m in mats), default=0.0)
        s = 1.0 if corr <= lam or corr == 0.0 else lam / corr
        u = s * r
        return p_v - (float(u @ y) - 0.5 * float(u @ u))

    x = np.zeros(a_full.shape[1])
    if lip == 0.0:
        return x, primal(x), 0.0
    step = 1.0 / lip
    z = x.copy()
    tk = 1.0
    p_x = primal(x)
    best_x, best_p = x.copy(), p_x
    gap = gap_at(x, p_x)
    for it in range(max_iter):
        grad = a_full.T @ (a_full @ z) - a_full.T @ y
        x_new = prox(z - step * grad, step * lam)
        p_new = primal(x_new)
        if p_new < best_p:
            best_p, best_x = p_new, x_new.copy()
        # the dual point keeps improving even when the primal value has
        # saturated in floats, so certification uses the current residual
        if it % 20 == 0 or p_new <= best_p:
            gap = min(gap, gap_at(x_new, best_p))
            if gap <= gap_rtol * (1.0 + abs(best_p)):
                return best_x, best_p, gap
        if p_new > p_x:  # momentum overshoot: restart
            z = x_new.copy()
            tk = 1.0
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            z = x_new + ((tk - 1.0) / t_new) * (x_new - x)
            tk = t_new
        x, p_x = x_new, p_new
    return best_x, best_p, min(gap, gap_at(best_x, best_p))


def group_lasso_objective(
    panel_values: np.ndarray, lag: int, specs, targets: np.ndarray, lam: float
) -> tuple[float, float]:
    """Optimal objective of the full problem, summed per column.

    Returns (objective, certified gap): the true optimum lies within gap
    below the returned objective.
    """
    total = 0.0
    total_gap = 0.0
    for j, mats in enumerate(column_designs(panel_values, lag, specs)):
        _, obj, gap = fista_group_lasso(targets[:, j], mats, lam)
        total += obj
        total_gap += max(gap, 0.0)
    return total, total_gap


def kernel_set_objective(targets: np.ndarray, kms, lam: float) -> tuple[float, float]:
    """``group_lasso_objective`` for a kernel set given by its factors,
    such as one from ``assemble``."""
    total = 0.0
    total_gap = 0.0
    for j in range(kms.n_nodes):
        deleted = kms.deleted_positions(j)
        kept = (b for pos, b in enumerate(kms.blocks) if pos not in deleted)
        mats = [psd_sqrt(block_gram(b), jitter=0.0) for b in kept]
        _, obj, gap = fista_group_lasso(targets[:, j], mats, lam)
        total += obj
        total_gap += max(gap, 0.0)
    return total, total_gap


# ---------------------------------------------------------------------------
# ridge reference: plain normal equations in root coordinates


def ridge_reference(
    panel_values: np.ndarray, lag: int, specs, targets: np.ndarray, lam: float
):
    """(fitted values, objective) of the squared-penalty problem."""
    t_prime, n = targets.shape
    fitted = np.zeros((t_prime, n))
    objective = 0.0
    for j, mats in enumerate(column_designs(panel_values, lag, specs)):
        a_full = np.hstack(mats)
        gram_a = a_full.T @ a_full
        coef = np.linalg.solve(gram_a + 2.0 * lam * np.eye(gram_a.shape[0]), a_full.T @ targets[:, j])
        fitted[:, j] = a_full @ coef
        resid = targets[:, j] - fitted[:, j]
        objective += 0.5 * float(resid @ resid) + lam * float(coef @ coef)
    return fitted, objective


# ---------------------------------------------------------------------------
# the solver's factorizations as they were done with a thin SVD of the
# stacked factor F (T' x R): the shared x-update solve and ridge degrees of
# freedom


def svd_factor_solve(f: np.ndarray, deleted: list, penalty: float, q: np.ndarray) -> np.ndarray:
    """(N, R) x with x_j = (Fbar_j^T Fbar_j + penalty I)^{-1} q_j on column
    j's kept columns and 0 on its deleted columns ``deleted[j]``.

    With F = U S V^T the thin SVD, H = (F^T F + penalty I)^{-1} is
    V diag(1 / (s^2 + penalty)) V^T + (I - V V^T) / penalty (the last term
    only when R > T'), and deleting D_j is the Schur complement
    x_j = u_j - H[:, D_j] H[D_j, D_j]^{-1} u_j[D_j] with u_j = H q_j.  A
    zero penalty on an F of rank below R <= T' takes 1e-10 instead.
    """
    _, s, vt = np.linalg.svd(f, full_matrices=False)
    r = f.shape[1]
    s2 = s * s
    if penalty <= 0 and vt.shape[0] == r and s2.min() <= r * np.finfo(float).eps * s2.max():
        penalty = 1e-10
    h = (vt.T / (s2 + penalty)) @ vt
    if vt.shape[0] < r:
        h += (np.eye(r) - vt.T @ vt) / penalty
    x = np.zeros_like(q)
    for j, cols in enumerate(deleted):
        u = h @ q[j]
        x[j] = u - h[:, cols] @ np.linalg.solve(h[np.ix_(cols, cols)], u[cols])
        x[j, cols] = 0.0
    return x


def svd_ridge_df(f: np.ndarray, penalty: float) -> float:
    """sum_i s_i^2 / (s_i^2 + penalty) over f's nonzero singular values."""
    s2 = np.linalg.svd(f, compute_uv=False) ** 2
    return float(np.divide(s2, s2 + penalty, out=np.zeros_like(s2), where=s2 > 0).sum())


# ---------------------------------------------------------------------------
# Gram helpers: a block's dense Gram from its factor, and the factor and
# root of an explicit Gram behind one symmetric-PSD check

# Pre-repair floor: a Gram eigenvalue below this signals a non-kernel input.
PSD_ATOL = 1e-8


class NotPsd(Exception):
    """A matrix is asymmetric or indefinite beyond tolerance."""


def block_gram(block) -> np.ndarray:
    return block.factor @ block.factor.T


def _psd_eigh(matrix: np.ndarray):
    """Eigenpairs of a matrix that is symmetric within 1e-10 and has no
    eigenvalue below -PSD_ATOL, both relative to its largest entry (at
    least 1); raises NotPsd otherwise."""
    k = np.asarray(matrix, dtype=float)
    scale = max(1.0, float(np.abs(k).max(initial=0.0)))
    if float(np.abs(k - k.T).max(initial=0.0)) > 1e-10 * scale:
        raise NotPsd("matrix is asymmetric beyond tolerance")
    w, v = np.linalg.eigh((k + k.T) / 2.0)
    if w.size and w.min() < -PSD_ATOL * scale:
        raise NotPsd(f"matrix has eigenvalue {w.min():.3e}; not PSD within tolerance")
    return w, v


def eigen_factor(gram: np.ndarray) -> np.ndarray:
    """Rank-truncated factor B = U sqrt(W) of a symmetric PSD matrix,
    keeping the eigenvalues above RANK_RTOL times the largest."""
    w, v = _psd_eigh(gram)
    keep = w > RANK_RTOL * w.max(initial=0.0)
    return v[:, keep] * np.sqrt(w[keep])


def pivoted_factor(spec, samples: np.ndarray) -> tuple[np.ndarray, int]:
    """One Gaussian block's factor, one pivot at a time, and its pivot count.

    Greedy pivoted Cholesky on the samples: one kernel column per pivot,
    stopping once the largest residual diagonal is at most eps * T' times
    the largest diagonal; then a thin QR of the pivoted factor and an
    eigensolve of R R^T that keep the directions above RANK_RTOL times the
    largest eigenvalue.
    """
    z = np.asarray(samples, dtype=float)
    n = z.shape[0]
    residual = np.ones(n)
    stop = np.finfo(float).eps * n
    rows = np.empty((n, n))
    rank = 0
    while rank < n:
        i = int(np.argmax(residual))
        pivot = residual[i]
        if pivot <= stop:
            break
        col = cross_gram(spec, z, z[i : i + 1])[:, 0] - rows[:rank].T @ rows[:rank, i]
        col /= np.sqrt(pivot)
        rows[rank] = col
        residual -= col * col
        residual[i] = 0.0
        rank += 1
    q, r = np.linalg.qr(rows[:rank].T)
    w, v = np.linalg.eigh(r @ r.T)
    keep = w > RANK_RTOL * max(float(w.max()), 0.0)
    return q @ (v[:, keep] * np.sqrt(w[keep])), rank


def psd_sqrt(matrix: np.ndarray, jitter: float | None = None) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix, with eigenvalue repair.

    Eigenvalues below ``jitter`` (default 1e-10 * trace / T') are clamped up
    to it before taking the root.
    """
    k = np.asarray(matrix, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ShapeMismatch("psd_sqrt needs a square matrix")
    if jitter is None:
        jitter = max(1e-10 * float(np.trace(k)) / max(1, k.shape[0]), 0.0)
    w, v = _psd_eigh(k)
    w = np.clip(w, jitter, None)
    return (v * np.sqrt(w)) @ v.T


def assemble(grams: dict) -> KernelMatrixSet:
    """Kernel set over explicit Gram matrices, each factored by
    ``eigen_factor``, with neither spec nor samples.  Keys are (node, lag)
    pairs or (node, lag, kernel) triples covering every combination, and
    the matrices share one shape."""
    grams = {(key if len(key) == 3 else (*key, 0)): g for key, g in grams.items()}
    n_nodes, n_lags, n_kernels = (1 + max(key[a] for key in grams) for a in range(3))
    blocks = [
        KernelBlock(
            node=i, lag=l, kernel_index=p, spec=None, samples=None,
            factor=eigen_factor(grams[(i, l, p)]),
        )
        for l in range(n_lags)
        for i in range(n_nodes)
        for p in range(n_kernels)
    ]
    t_prime = len(grams[(0, 0, 0)])
    return KernelMatrixSet(blocks, n_nodes, lag=n_lags - 1, n_kernels=n_kernels, n_targets=t_prime)


# ---------------------------------------------------------------------------
# dense Gram layout, formerly in ksvar.kernels and ksvar.solver: blocks in
# (lag, node, kernel) order side by side in the wide matrix
# Kbar = [K^0_1 ... K^L_N] and on the diagonal of D; column j drops its own
# instantaneous blocks, the flat columns index_set(j)


def total_columns(kms) -> int:
    return kms.n_blocks * kms.n_targets


def columns_of(kms, position: int) -> slice:
    return slice(position * kms.n_targets, (position + 1) * kms.n_targets)


def index_set(kms, j: int) -> np.ndarray:
    """Flat Kbar column indices I_j removed for target column j."""
    idx = [np.arange(kms.n_targets) + pos * kms.n_targets for pos in kms.deleted_positions(j)]
    return np.concatenate(idx)


def kbar(kms) -> np.ndarray:
    return np.hstack([block_gram(b) for b in kms.blocks])


def dmat(kms) -> np.ndarray:
    out = np.zeros((total_columns(kms), total_columns(kms)))
    for pos, b in enumerate(kms.blocks):
        cols = columns_of(kms, pos)
        out[cols, cols] = block_gram(b)
    return out


def dsqrt(kms, jitter: float | None = None) -> np.ndarray:
    out = np.zeros((total_columns(kms), total_columns(kms)))
    for pos, b in enumerate(kms.blocks):
        cols = columns_of(kms, pos)
        out[cols, cols] = psd_sqrt(block_gram(b), jitter)
    return out


def kbar_deleted(kms, j: int) -> np.ndarray:
    keep = np.setdiff1d(np.arange(total_columns(kms)), index_set(kms, j))
    return kbar(kms)[:, keep]


def dmat_deleted(kms, j: int) -> np.ndarray:
    keep = np.setdiff1d(np.arange(total_columns(kms)), index_set(kms, j))
    return dmat(kms)[np.ix_(keep, keep)]


def unit_tensor(
    entries: dict, n: int, lag: int = 0, kernels: int = 1, t: int = 1
) -> CoefficientTensor:
    """Coefficients over identity Gram blocks of size t, where the factor
    coordinates are the coefficients themselves: ``entries[(p, l, i, j)]``
    is block (p, l, i, j)'s length-t vector (a scalar fills its first
    entry), and every other block is zero."""
    kms = assemble(
        {(i, l, p): np.eye(t) for i in range(n) for l in range(lag + 1) for p in range(kernels)}
    )
    coords = np.zeros((kms.factor.shape[1], n))
    for (p, l, i, j), value in entries.items():
        rows = kms.columns[kms.position(i, l, p)]
        coords[rows, j][: np.size(value)] = value
    return CoefficientTensor(coords=coords, kernels=kms)


def w_stacked(tensor) -> np.ndarray:
    """All lags (and kernels) of the dense coefficients stacked in (lag,
    source, kernel) block order, matching kbar."""
    arr = tensor.coeffs.transpose(1, 2, 0, 4, 3)
    return arr.reshape(-1, tensor.n_nodes)


# ---------------------------------------------------------------------------
# Gram-space ADMM pieces, objective and held-out prediction, formerly in
# ksvar.solver: the dense column solve and the multiplier step in the full
# coefficient layout, the objective at a coefficient tensor, and one
# cross-kernel product per block for prediction on new rows


def dual_update(state, dsqrt_w: np.ndarray, gamma: np.ndarray, rho: float):
    """Multiplier ascent: xi <- xi + rho * (D^{1/2} W - gamma)."""
    dsqrt_w = np.asarray(dsqrt_w, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if dsqrt_w.shape != np.shape(state.xi) or gamma.shape != dsqrt_w.shape:
        raise ShapeMismatch("dual update shapes disagree")
    return DualState(gamma=gamma, xi=state.xi + rho * (dsqrt_w - gamma))


def admm_column_update(
    j: int,
    y_j: np.ndarray,
    gamma_j: np.ndarray | None,
    xi_j: np.ndarray | None,
    kms,
    rho: float,
    jitter: float = 1e-10,
) -> np.ndarray:
    """Closed-form column solve on the dense deleted system.

    Computes q_j = rho D_j^{1/2} gamma_j + Kbar_j^T y_j - D_j^{1/2} xi_j and
    returns (Kbar_j^T Kbar_j + rho D_j + jitter I)^{-1} q_j.  ``gamma_j`` and
    ``xi_j`` are stacked per-block vectors in assembly order with column j's
    instantaneous blocks removed; None means zero.
    """
    if not (0 <= j < kms.n_nodes):
        raise ShapeMismatch(f"no column {j}")
    y_j = np.asarray(y_j, dtype=float)
    if y_j.shape != (kms.n_targets,):
        raise ShapeMismatch("y_j must be a length-T' vector")
    kbar_j = kbar_deleted(kms, j)
    d_j = dmat_deleted(kms, j)
    dim = kbar_j.shape[1]
    q = kbar_j.T @ y_j
    if gamma_j is not None or xi_j is not None:
        gamma_j = np.zeros(dim) if gamma_j is None else np.asarray(gamma_j, float)
        xi_j = np.zeros(dim) if xi_j is None else np.asarray(xi_j, float)
        if gamma_j.shape != (dim,) or xi_j.shape != (dim,):
            raise ShapeMismatch("gamma_j/xi_j must match the deleted column layout")
        keep = np.setdiff1d(np.arange(total_columns(kms)), index_set(kms, j))
        d_sqrt = dsqrt(kms)[np.ix_(keep, keep)]
        q = q + d_sqrt @ (rho * gamma_j - xi_j)
    m = kbar_j.T @ kbar_j + rho * d_j + jitter * np.eye(dim)
    try:
        return np.linalg.solve(m, q)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("dense column system is singular") from exc


def objective_value(targets: np.ndarray, tensor, lam: float) -> tuple[float, float, float]:
    """(objective, fidelity, penalty) of the group-sparse problem at ``tensor``,
    evaluated from the coefficient blocks."""
    resid = targets - predict(tensor)
    fidelity = 0.5 * float(np.sum(resid * resid))
    penalty = lam * float(rkhs_block_norms(tensor).sum())
    return fidelity + penalty, fidelity, penalty


def column_relative_gaps(targets: np.ndarray, tensor, lam: float) -> np.ndarray:
    """Relative duality gap (P_j - D_j) / P_j of every column j of
    ``tensor`` (0 where P_j = 0), from its coefficient blocks and their dense
    Grams: r_j = y_j - sum_b K_b a_bj, P_j = ||r_j||^2 / 2 +
    lam sum_b ||K_b^{1/2} a_bj||, and D_j = ||y_j||^2 / 2 - ||y_j - theta_j||^2 / 2
    at theta_j = r_j / max(1, max_b ||K_b^{1/2} r_j|| / lam) over the blocks
    column j keeps (Ndiaye et al., JMLR 2017)."""
    kms = tensor.kernels
    coeffs = tensor.coeffs
    out = np.zeros(kms.n_nodes)
    for j in range(kms.n_nodes):
        y = targets[:, j]
        deleted = kms.deleted_positions(j)
        grams = [block_gram(b) for pos, b in enumerate(kms.blocks) if pos not in deleted]
        alphas = [
            coeffs[b.kernel_index, b.lag, b.node, j]
            for pos, b in enumerate(kms.blocks)
            if pos not in deleted
        ]
        r = y - sum(k @ a for k, a in zip(grams, alphas))
        penalty = lam * sum(np.sqrt(max(a @ k @ a, 0.0)) for k, a in zip(grams, alphas))
        primal = 0.5 * r @ r + penalty
        theta = r / max([1.0] + [np.sqrt(max(r @ k @ r, 0.0)) / lam for k in grams])
        dual = 0.5 * y @ y - 0.5 * (y - theta) @ (y - theta)
        out[j] = (primal - dual) / primal if primal > 0 else 0.0
    return out


def network_edges(net) -> list[dict]:
    """Every nonzero weight of ``net`` as {src, dst, lag, weight}, by a loop
    over lag, then source, then target: the edge rows a saved network holds."""
    edges = []
    for l in range(net.lag + 1):
        for i in range(net.n_nodes):
            for j in range(net.n_nodes):
                w = float(net.weights[l, i, j])
                if w != 0.0:
                    edges.append({"src": i, "dst": j, "lag": l, "weight": w})
    return edges


def heldout_prediction(tensor, kms, view) -> np.ndarray:
    """One-step predictions on ``view``'s rows: sum over blocks of the cross
    Gram to the training samples times the block's coefficients."""
    out = np.zeros((view.n_targets, kms.n_nodes))
    for block in kms.blocks:
        alpha = tensor.coeffs[block.kernel_index, block.lag, block.node]
        kc = cross_gram(block.spec, view.regressor_series(block.node, block.lag), block.samples)
        out += kc @ alpha.T
    return out


def contiguous_fold_errors(panel, kernels, lag: int, grid, folds: int, cfg) -> np.ndarray:
    """Mean squared one-step errors per (lambda, fold), shape (len(grid),
    folds), as contiguous time-block cross-validation once computed them.

    Each fold builds its own kernel set on its training targets: the rows
    of the runs before and after the held-out block whose history lies in
    the same run, stacked.  It fits every lambda separately and predicts
    the block's rows from ``lag`` on through the cross Gram.  ``kernels``
    must not ask for a median bandwidth, which each fold's set would
    resolve on its own rows.
    """

    def rows_view(rows):
        return LagAlignedView(
            targets=panel.values[rows],
            regressors=np.stack([panel.values[rows - l] for l in range(lag + 1)]),
            node_labels=panel.node_labels,
            lag=lag,
        )

    t = panel.n_samples
    errors = np.zeros((len(grid), folds))
    for f, chunk in enumerate(np.array_split(np.arange(t), folds)):
        runs = (np.arange(0, chunk[0]), np.arange(chunk[-1] + 1, t))
        train = rows_view(np.concatenate([run[lag:] for run in runs]))
        test = rows_view(chunk[chunk >= lag])
        kms = build_kernel_set(train, kernels)
        for gi, lam in enumerate(grid):
            fit_cfg = replace(cfg, lam=lam)
            if cfg.regularizer == "squared":
                tensor = ridge_fit(train.targets, kms, fit_cfg)
            else:
                tensor, _, _ = admm_fit(train.targets, kms, fit_cfg)
            err = test.targets - heldout_prediction(tensor, kms, test)
            errors[gi, f] = np.mean(err * err)
    return errors


# ---------------------------------------------------------------------------
# dictionary fits


def expand_dictionary(
    dictionary: KernelDictionary | list[KernelSpec],
    panel: TimeSeriesPanel,
    lag: int,
    seed: int = 0,
) -> KernelMatrixSet:
    """Gram stacks for every dictionary entry over one lag-aligned view.

    With a single entry the layout is identical to the plain set; repeated
    entries (legal in a plain list) simply produce identical stacks.
    """
    return build_kernel_set(lag_view(panel, lag), dictionary, seed=seed)


def mkl_fit(
    targets: np.ndarray,
    kms: KernelMatrixSet,
    cfg: SolverConfig,
    node_labels: tuple[str, ...] | None = None,
    tau_alpha: float = 0.01,
) -> tuple[CoefficientTensor, EffectiveNetwork]:
    """Group-sparse fit on an expanded set, with per-kernel attribution.

    Same ADMM as the base solver; the enlarged block set is the only
    difference.  An edge is active when any (lag, kernel) block of the pair
    reaches ``tau_alpha``.
    """
    tensor, net, _ = mkl_fit_with_diagnostics(targets, kms, cfg, node_labels, tau_alpha)
    return tensor, net


def mkl_fit_with_diagnostics(
    targets: np.ndarray,
    kms: KernelMatrixSet,
    cfg: SolverConfig,
    node_labels: tuple[str, ...] | None = None,
    tau_alpha: float = 0.01,
) -> tuple[CoefficientTensor, EffectiveNetwork, FitDiagnostics]:
    """As ``mkl_fit`` but keeps the convergence record for reporting."""
    base, _, diagnostics = admm_fit(targets, kms, cfg)
    tensor = CoefficientTensor(coords=base.coords, kernels=kms, node_labels=node_labels)
    net = threshold_edges(tensor, tau_alpha)
    return tensor, net, diagnostics


# ---------------------------------------------------------------------------
# exhaustive graph metrics (exact arithmetic, small N only)


def _bfs_dist(adj: np.ndarray, s: int) -> np.ndarray:
    n = adj.shape[0]
    dist = np.full(n, -1)
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in range(n):
                if adj[v, w] and dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _all_shortest_paths(adj: np.ndarray, s: int, t: int) -> list[tuple[int, ...]]:
    """Every shortest s->t path, found by exhaustive simple-path search."""
    n = adj.shape[0]
    dist = _bfs_dist(adj, s)
    if s == t or dist[t] < 0:
        return []
    target_len = int(dist[t])
    found = []

    def walk(path):
        v = path[-1]
        if len(path) - 1 > target_len:
            return
        if v == t:
            if len(path) - 1 == target_len:
                found.append(tuple(path))
            return
        for w in range(n):
            if adj[v, w] and w not in path:
                walk(path + [w])

    walk([s])
    return found


def bf_betweenness(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    if n < 3:
        return np.zeros(n)
    totals = [Fraction(0) for _ in range(n)]
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = _all_shortest_paths(adj, s, t)
            if not paths:
                continue
            for v in range(n):
                if v == s or v == t:
                    continue
                through = sum(1 for p in paths if v in p[1:-1])
                totals[v] += Fraction(through, len(paths))
    return np.array([float(t / ((n - 1) * (n - 2))) for t in totals])


def _bfs(adj_lists: list[np.ndarray], source: int, n: int):
    """Distances and shortest-path counts from one source."""
    dist = np.full(n, -1, dtype=int)
    sigma = np.zeros(n, dtype=object)
    dist[source] = 0
    sigma[source] = 1
    order = []
    queue = deque([source])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in adj_lists[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] = sigma[w] + sigma[v]
    return dist, sigma, order


def bf_shortest_paths(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance and shortest-path count of every ordered pair, by one BFS
    per source in Python ints."""
    n = adj.shape[0]
    adj_lists = [np.flatnonzero(adj[v]) for v in range(n)]
    rows = [_bfs(adj_lists, s, n) for s in range(n)]
    return np.array([dist for dist, _, _ in rows]), np.array([sigma for _, sigma, _ in rows])


def brandes_betweenness(adj: np.ndarray) -> np.ndarray:
    """Brandes's per-source dependency accumulation in exact ``Fraction``
    arithmetic, on a boolean adjacency without self-loops; fast enough
    for N in the hundreds, unlike the enumeration above."""
    n = adj.shape[0]
    if n < 3:
        return np.zeros(n)
    adj_lists = [np.flatnonzero(adj[v]) for v in range(n)]
    totals = [Fraction(0)] * n
    for s in range(n):
        dist, sigma, order = _bfs(adj_lists, s, n)
        delta = [Fraction(0)] * n
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            for v in np.flatnonzero(adj[:, w]):
                if dist[v] == dist[w] - 1:
                    delta[v] += sigma[v] * coeff
            if w != s:
                totals[w] += delta[w]
    norm = (n - 1) * (n - 2)
    return np.array([float(t / norm) for t in totals])


def bf_closeness(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    out = np.zeros(n)
    for v in range(n):
        dist = _bfs_dist(adj, v)
        if n > 1 and (dist >= 0).all():
            out[v] = (n - 1) / int(dist.sum())
    return out


def bf_clustering(sym: np.ndarray):
    n = sym.shape[0]
    per_node = np.zeros(n)
    triangles = 0
    triples = 0
    for v in range(n):
        nbrs = [w for w in range(n) if sym[v, w]]
        deg = len(nbrs)
        tri = 0
        for ai in range(deg):
            for bi in range(ai + 1, deg):
                if sym[nbrs[ai], nbrs[bi]]:
                    tri += 1
        if deg >= 2:
            per_node[v] = tri / comb(deg, 2)
        triangles += tri
        triples += comb(deg, 2)
    triangles //= 3
    global_cc = 3 * triangles / triples if triples else 0.0
    return per_node, global_cc, triangles


def bf_components(sym: np.ndarray) -> list[set[int]]:
    n = sym.shape[0]
    seen = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        dist = _bfs_dist(sym, s)
        comp = {v for v in range(n) if dist[v] >= 0}
        seen |= comp
        comps.append(comp)
    return comps


def bf_diameter(sym: np.ndarray) -> int:
    n = sym.shape[0]
    best = 0
    for v in range(n):
        dist = _bfs_dist(sym, v)
        finite = dist[dist > 0]
        if finite.size:
            best = max(best, int(finite.max()))
    return best


def bf_report(aggregate: np.ndarray) -> dict:
    """All metrics from an aggregate boolean adjacency (self-loops allowed)."""
    n = aggregate.shape[0]
    adj = aggregate.copy()
    self_loops = int(np.diag(adj).sum())
    np.fill_diagonal(adj, False)
    sym = adj | adj.T
    in_deg = adj.sum(axis=0).astype(int)
    out_deg = adj.sum(axis=1).astype(int)
    per_cc, global_cc, _ = bf_clustering(sym)
    comps = bf_components(sym)
    return {
        "in_degree": in_deg,
        "out_degree": out_deg,
        "total_degree": in_deg + out_deg,
        "betweenness": bf_betweenness(adj),
        "closeness": bf_closeness(adj),
        "clustering_coefficient": per_cc,
        "density": int(adj.sum()) / (n * (n - 1)) if n > 1 else 0.0,
        "global_clustering": global_cc,
        "diameter": bf_diameter(sym),
        "avg_neighbors": float(sym.sum()) / n,
        "self_loop_count": self_loops,
        "connected_component_count": len(comps),
        "largest_component_size": max((len(c) for c in comps), default=0),
    }
