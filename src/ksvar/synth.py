"""Ground-truth network generation, simulation, and recovery scoring.

The generator draws a hidden node order, places instantaneous couplings
only from earlier to later nodes in that order (so each time step resolves
by forward substitution, no fixed-point iteration), and sparse lagged
couplings anywhere off the diagonal.  The lagged part is rescaled until the
companion linearization has spectral radius at most 0.9.  Couplings are
applied through a chosen scalar map: identity, square, or tanh.

Coupling magnitudes are amplitude-matched: each edge coefficient is
proportional to the measured dynamic range of its source node (relative to
the innovation scale, capped), so every true edge carries a comparable
share of signal regardless of where its source sits in the hidden order.
Source amplitudes are measured on short pilot runs and refined over a few
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFinite, ShapeMismatch
from .panel import NoiseModel, TimeSeriesPanel
from .solver import EffectiveNetwork

COUPLINGS = ("linear", "quadratic", "sigmoid")


@dataclass(frozen=True)
class SynthConfig:
    """Settings for one synthetic system draw."""

    n_nodes: int
    n_samples: int
    lag: int
    edge_density: float
    coupling: str = "linear"
    coefficient_scale: float = 1.0
    noise: NoiseModel = NoiseModel(variance=1.0)
    seed: int = 0
    sample_rate_hz: float = 1.0
    burn_in: int = 200

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError("need at least 2 nodes")
        if self.lag < 1:
            raise ConfigError("lag must be at least 1")
        if not (0 < self.edge_density < 1):
            raise ConfigError("edge_density must lie in (0, 1)")
        if self.edge_density * self.n_nodes * (self.n_nodes - 1) < 1:
            raise ConfigError("edge_density too small to place a single edge")
        if self.n_samples <= 10 * self.lag:
            raise ConfigError("n_samples must exceed 10 * lag")
        if self.coupling not in COUPLINGS:
            raise ConfigError(f"coupling must be one of {COUPLINGS}")
        if not (self.coefficient_scale > 0):
            raise ConfigError("coefficient_scale must be positive")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GroundTruth:
    """True coefficients a[l, i, j] (source i onto target j at lag l) plus
    the hidden resolution order."""

    coefficients: np.ndarray
    permutation: np.ndarray
    coupling: str

    @property
    def lag(self) -> int:
        return self.coefficients.shape[0] - 1

    @property
    def n_nodes(self) -> int:
        return self.coefficients.shape[1]

    @property
    def supports(self) -> np.ndarray:
        return self.coefficients != 0.0

    def network(self) -> EffectiveNetwork:
        """The truth as a zero-threshold effective network."""
        return EffectiveNetwork(
            supports=self.supports,
            weights=np.abs(self.coefficients),
            tau_alpha=0.0,
            node_labels=tuple(f"n{i}" for i in range(self.n_nodes)),
        )


@dataclass(frozen=True)
class RecoveryScore:
    """Support-recovery quality of an estimate against the truth.

    Precision defaults to 1 when nothing was predicted, recall to 1 when
    the truth is empty, and AUC to 0.5 when either class is missing.
    """

    precision: float
    recall: float
    f1: float
    auc: float
    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int


def _coupling_fn(name: str):
    if name == "linear":
        return lambda y: y
    if name == "quadratic":
        return lambda y: y * y
    return np.tanh


def _companion_radius(coeffs: np.ndarray) -> float:
    """Spectral radius of the companion form of the linearized system."""
    lag, n = coeffs.shape[0] - 1, coeffs.shape[1]
    inv = np.linalg.inv(np.eye(n) - coeffs[0].T)
    top = np.hstack([inv @ coeffs[l].T for l in range(1, lag + 1)])
    comp = np.zeros((n * lag, n * lag))
    comp[:n] = top
    if lag > 1:
        comp[n:, : n * (lag - 1)] = np.eye(n * (lag - 1))
    return float(np.abs(np.linalg.eigvals(comp)).max())


# Companion radius target; well under the 0.9 stability margin so lagged
# dynamics do not pump node variances and drown lagged couplings.
STABILITY_RADIUS = 0.6


def _stabilize(coeffs: np.ndarray) -> None:
    for _ in range(50):
        radius = _companion_radius(coeffs)
        if radius <= STABILITY_RADIUS:
            break
        coeffs[1:] *= STABILITY_RADIUS / radius


def _run(coeffs: np.ndarray, perm: np.ndarray, coupling: str, noise: np.ndarray) -> np.ndarray:
    """Drive the system with the given innovation draws start to finish."""
    lag, n = coeffs.shape[0] - 1, coeffs.shape[1]
    f = _coupling_fn(coupling)
    total = noise.shape[0]
    y = np.zeros((total, n))
    y[:lag] = noise[:lag]
    a0 = coeffs[0]
    for t in range(lag, total):
        base = noise[t].copy()
        for l in range(1, lag + 1):
            base += coeffs[l].T @ f(y[t - l])
        fy = np.zeros(n)
        for j in perm:
            y[t, j] = base[j] + a0[:, j] @ fy
            fy[j] = f(y[t, j])
        if np.abs(y[t]).max() > 1e8:
            raise NonFinite(f"simulation diverged at step {t}")
    return y


# Source-amplitude factors are capped so dense deep graphs cannot snowball.
AMPLITUDE_CAP = 3.0
_PILOT_SAMPLES = 400
_PILOT_BURN = 150


def generate_truth(cfg: SynthConfig) -> GroundTruth:
    """Draw a sparse truth with a well-defined instantaneous system.

    Edge counts per lag are max(1, round(density * eligible pairs)), drawn
    without replacement; base magnitudes are uniform on [0.5, 1] times the
    coefficient scale with random signs, then multiplied by the source
    node's amplitude factor (pilot-run RMS over innovation scale, capped at
    AMPLITUDE_CAP).  Diagonals stay zero at every lag, so self-history
    never enters the truth.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    n, lag = cfg.n_nodes, cfg.lag
    perm = rng.permutation(n)
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)
    base = np.zeros((lag + 1, n, n))

    def place(pairs: list[tuple[int, int]], target: np.ndarray) -> None:
        count = len(pairs)
        mags = rng.uniform(0.7, 1.0, size=count) * cfg.coefficient_scale
        signs = rng.choice([-1.0, 1.0], size=count)
        for (i, j), mag, sign in zip(pairs, mags, signs):
            target[i, j] = sign * mag

    # Support placement prefers layered structures that keep every coupling
    # identifiable: driver nodes sit in the first half of the hidden order
    # and receiver nodes in the second half, so drivers stay serially white
    # and no regressor carries a correlated copy of another edge's source.
    # Instantaneous edges additionally prefer a partial matching (at most
    # one zero-lag parent and child per node) and lagged edges prefer
    # distinct sources.  Preferences degrade tier by tier once a
    # constrained pool empties, ending at arbitrary placements, so any
    # density up to the eligible-pair count is always met.
    half = (n + 1) // 2

    def prefer(pairs: list[tuple[int, int]], count: int, tiers) -> list[tuple[int, int]]:
        order = [pairs[idx] for idx in rng.permutation(len(pairs))]
        chosen: list[tuple[int, int]] = []
        for rule in tiers:
            for pair in order:
                if len(chosen) == count:
                    return chosen
                if pair not in chosen and rule(pair, chosen):
                    chosen.append(pair)
        return chosen

    def cross_layer(pair, _chosen) -> bool:
        i, j = pair
        return pos[i] < half <= pos[j]

    def unmatched(pair, chosen) -> bool:
        used = {node for edge in chosen for node in edge}
        return pair[0] not in used and pair[1] not in used

    def anything(_pair, _chosen) -> bool:
        return True

    inst_pairs = [(i, j) for i in range(n) for j in range(n) if i != j and pos[i] < pos[j]]
    inst_count = max(1, round(cfg.edge_density * len(inst_pairs)))
    place(
        prefer(
            inst_pairs,
            inst_count,
            [
                lambda p, c: cross_layer(p, c) and unmatched(p, c),
                unmatched,
                anything,
            ],
        ),
        base[0],
    )

    off_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    forward = lambda p, _c: pos[p[0]] < pos[p[1]]
    for l in range(1, lag + 1):
        count = max(1, round(cfg.edge_density * len(off_pairs)))
        fresh_source = lambda p, c: all(p[0] != a for a, _ in c)
        place(
            prefer(
                off_pairs,
                count,
                [
                    lambda p, c: cross_layer(p, c) and fresh_source(p, c),
                    cross_layer,
                    forward,
                    anything,
                ],
            ),
            base[l],
        )

    sigma = float(np.sqrt(cfg.noise.variance))
    factors = np.ones(n)
    coeffs = base.copy()
    _stabilize(coeffs)
    if sigma > 0:
        for pilot_round in range(3):
            pilot_rng = np.random.default_rng([cfg.seed, 2, pilot_round])
            noise = pilot_rng.normal(0.0, sigma, size=(_PILOT_BURN + _PILOT_SAMPLES, n))
            try:
                path = _run(coeffs, perm, cfg.coupling, noise)[_PILOT_BURN:]
            except NonFinite:
                break
            rms = np.sqrt(np.mean(path * path, axis=0))
            factors = np.minimum(rms / sigma, AMPLITUDE_CAP)
            coeffs = base * factors[None, :, None]
            _stabilize(coeffs)
    return GroundTruth(coefficients=coeffs, permutation=perm, coupling=cfg.coupling)


def simulate(truth: GroundTruth, cfg: SynthConfig) -> TimeSeriesPanel:
    """Run the system forward and return the post-burn-in panel.

    Each step applies the coupling map to lagged samples, adds noise, and
    resolves the instantaneous part by substitution in the hidden order.
    The first ``lag`` samples come straight from the noise model.
    """
    if truth.n_nodes != cfg.n_nodes or truth.lag != cfg.lag:
        raise ShapeMismatch("truth and config disagree on system size")
    rng = np.random.default_rng([cfg.seed, 1])
    n = cfg.n_nodes
    total = cfg.burn_in + cfg.n_samples
    noise = rng.normal(0.0, np.sqrt(cfg.noise.variance), size=(total, n))
    y = _run(truth.coefficients, truth.permutation, truth.coupling, noise)
    values = y[cfg.burn_in :]
    if not np.isfinite(values).all():
        raise NonFinite("simulation produced NaN or infinity")
    return TimeSeriesPanel(
        values=values,
        node_labels=tuple(f"n{i}" for i in range(n)),
        sample_rate_hz=cfg.sample_rate_hz,
    )


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; a tie group over ranks a..b shares (a + b) / 2, which is
    exact in float64."""
    _, inv, cnt = np.unique(scores, return_inverse=True, return_counts=True)
    return (np.cumsum(cnt) - (cnt - 1) / 2)[inv]


def score_recovery(est: EffectiveNetwork, truth: GroundTruth) -> RecoveryScore:
    """Confusion counts and ranking quality over ordered off-diagonal pairs.

    Supports are aggregated over lags on both sides.  The AUC ranks pairs
    by their strongest block norm across lags, with ties sharing rank.
    """
    if est.n_nodes != truth.n_nodes:
        raise ShapeMismatch(
            f"estimate has {est.n_nodes} nodes, truth has {truth.n_nodes}"
        )
    n = truth.n_nodes
    off = ~np.eye(n, dtype=bool)
    true_edges = truth.supports.any(axis=0)[off]
    est_edges = est.aggregate_support[off]
    scores = est.aggregate_weights[off]
    tp = int(np.sum(true_edges & est_edges))
    fp = int(np.sum(~true_edges & est_edges))
    fn = int(np.sum(true_edges & ~est_edges))
    tn = int(np.sum(~true_edges & ~est_edges))
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    n_pos = int(true_edges.sum())
    n_neg = true_edges.size - n_pos
    auc = 0.5
    if n_pos and n_neg:
        rank_sum = float(_average_ranks(scores)[true_edges].sum())
        auc = (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return RecoveryScore(
        precision=precision,
        recall=recall,
        f1=f1,
        auc=auc,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        true_negatives=tn,
    )
