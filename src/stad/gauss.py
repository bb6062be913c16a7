"""Gaussian state-space mixture: K Kalman chains over class prototypes.

Per class, the prototype follows a linear-Gaussian drift with a
(learnable) transition matrix and shared transition covariance; each
step's embeddings follow a Gaussian mixture around the current
prototypes with a shared emission covariance. Filtering, smoothing and
parameter M-steps are closed form; the mixture enters through
responsibility-weighted pseudo-observations.

All D x D solves go through Cholesky factorizations; nothing inverts a
matrix explicitly. Cost scales with D^3, so the model is gated to
D <= 256 unless explicitly overridden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InsufficientHistoryError,
    NotPositiveDefiniteError,
)
# normalize_rows is unused here; it stays importable because bench/tracing.py rebinds it
from .mathcore import log_sum_exp, normalize_rows
from .window import SlidingWindow, mixing_update

__all__ = [
    "GaussConfig",
    "GaussBelief",
    "GaussModel",
    "kf_predict",
    "kf_update_weighted",
    "kf_smooth",
    "gauss_assignments",
    "gauss_m_step",
]

_EMPTY_CLUSTER_EPS = 1e-8
_EIG_FLOOR = 1e-8
_DIM_GATE = 256


@dataclass
class GaussConfig:
    """Knobs for the Gaussian tracker."""

    d: int
    k: int
    sigma_trans_scale: float = 0.01
    sigma_ems_scale: float = 0.5
    window: int = 3
    e_sweeps: int = 2
    learn_transition: bool = False
    learn_sigmas: bool = False
    pi_floor: float = 1e-4
    init_cov_scale: float | None = None  # None: one transition step's worth
    assign_with_predictive: bool = False  # add belief cov to the emission cov
    allow_high_dim: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.window < 1 or self.e_sweeps < 1:
            raise DomainError("window and e_sweeps must be >= 1")
        if self.sigma_trans_scale < 0.0 or self.sigma_ems_scale <= 0.0:
            raise DomainError("covariance scales must be positive (trans >= 0)")
        if not 0.0 <= self.pi_floor < 1.0 / self.k:
            raise DomainError(f"pi_floor must lie in [0, 1/K), got {self.pi_floor}")


@dataclass
class GaussBelief:
    """Posterior mean and covariance per class prototype."""

    mean: np.ndarray  # (K, D)
    cov: np.ndarray   # (K, D, D)

    def copy(self) -> "GaussBelief":
        return GaussBelief(self.mean.copy(), self.cov.copy())


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _eig_floor(m: np.ndarray, floor: float = _EIG_FLOOR) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_sym(m))
    vals = np.maximum(vals, floor)
    return _sym((vecs * vals) @ vecs.T)


def _cholesky(m: np.ndarray):
    """Lower Cholesky factor of a symmetric positive-definite matrix, for cho_solve."""
    try:
        return cho_factor(m, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc


def kf_predict(mean: np.ndarray, cov: np.ndarray, transition: np.ndarray,
               sigma_trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead prior: A m and A P A^T + Q (symmetrized)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = mean.shape[-1]
    if transition.shape != (d, d) or sigma_trans.shape != (d, d) or cov.shape[-2:] != (d, d):
        raise DimensionMismatchError("inconsistent shapes in kf_predict")
    return transition @ mean, _sym(transition @ cov @ transition.T + sigma_trans)


def kf_update_weighted(
    mean: np.ndarray,
    cov: np.ndarray,
    feats: np.ndarray,
    resp_col: np.ndarray,
    sigma_ems: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update from a responsibility-weighted batch.

    The weighted batch collapses to one pseudo-observation: the weighted
    mean with emission noise scaled down by the total weight. A total
    weight at or below 1e-8 (an empty cluster) returns the prior
    unchanged. The gain is computed through a symmetric positive-definite
    solve; a non-PSD innovation covariance raises NotPositiveDefiniteError
    (a StadError and a LinAlgError), which signals an invariant violation
    upstream.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    feats = np.asarray(feats, dtype=float)
    resp_col = np.asarray(resp_col, dtype=float)
    if np.any(resp_col < 0.0):
        raise DomainError("responsibilities must be nonnegative")
    weight = float(resp_col.sum())
    if weight <= _EMPTY_CLUSTER_EPS:
        return mean.copy(), cov.copy()
    obs = (resp_col @ feats) / weight
    innov_cov = cov + sigma_ems / weight
    factor = _cholesky(_sym(innov_cov))
    gain = cho_solve(factor, cov).T
    new_mean = mean + gain @ (obs - mean)
    eye = np.eye(mean.shape[-1])
    new_cov = _sym((eye - gain) @ cov)
    return new_mean, new_cov


def kf_smooth(
    means: np.ndarray,
    covs: np.ndarray,
    transition: np.ndarray,
    sigma_trans: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Backward (Rauch-Tung-Striebel) pass over filtered moments.

    means is (T, D), covs (T, D, D). Returns smoothed means/covs and the
    T-1 smoother gain matrices (needed for lag-one cross moments). A
    single step returns the filtered moments unchanged.
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    t_len = means.shape[0]
    sm = means.copy()
    sc = covs.copy()
    gains: list[np.ndarray] = []
    for i in range(t_len - 2, -1, -1):
        pred_cov = _sym(transition @ covs[i] @ transition.T + sigma_trans)
        factor = _cholesky(pred_cov)
        gain = cho_solve(factor, transition @ covs[i]).T
        sm[i] = means[i] + gain @ (sm[i + 1] - transition @ means[i])
        sc[i] = _sym(covs[i] + gain @ (sc[i + 1] - pred_cov) @ gain.T)
        gains.insert(0, gain)
    return sm, sc, gains


def gauss_assignments(
    feats: np.ndarray,
    belief: GaussBelief,
    mixing: np.ndarray,
    sigma_ems: np.ndarray,
    predictive: bool = False,
) -> np.ndarray:
    """Responsibilities under the Gaussian mixture emission.

    Default plugs in the posterior means with the emission covariance
    alone; predictive=True adds each class's posterior covariance
    (marginal predictive form).
    """
    feats = np.asarray(feats, dtype=float)
    k, d = belief.mean.shape
    if feats.ndim != 2 or feats.shape[1] != d:
        raise DimensionMismatchError(f"batch {feats.shape} vs prototypes (*, {d})")
    if k == 1:
        return np.ones((feats.shape[0], 1))
    logits = np.empty((feats.shape[0], k))
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.asarray(mixing, dtype=float))
    shared_factor = None
    if not predictive:
        shared_factor = _cholesky(_sym(sigma_ems))
        shared_logdet = 2.0 * np.sum(np.log(np.diag(shared_factor[0])))
    for j in range(k):
        diff = feats - belief.mean[j]
        if predictive:
            factor = _cholesky(_sym(sigma_ems + belief.cov[j]))
            logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
        else:
            factor, logdet = shared_factor, shared_logdet
        quad = np.sum(diff * cho_solve(factor, diff.T).T, axis=1)
        logits[:, j] = log_pi[j] - 0.5 * (quad + logdet + d * np.log(2.0 * np.pi))
    return np.exp(logits - log_sum_exp(logits, axis=1)[:, None])


def gauss_m_step(
    smoothed: list[GaussBelief],
    gains: list[np.ndarray],
    resps: list[np.ndarray],
    feats: list[np.ndarray],
    transition: np.ndarray,
    learn_transition: bool,
    learn_sigmas: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Closed-form transition / covariance re-estimates over the window.

    Lag-one cross moments use E[w_t w_{t-1}^T] = m_t m_{t-1}^T +
    P_t^s J_{t-1}^T. The transition matrix solves the per-class lag-one
    least squares; both covariances average residual second moments over
    classes and steps, symmetrized with eigenvalues floored at 1e-8.
    Returns (transition per class or None, sigma_trans or None,
    sigma_ems or None).
    """
    t_len = len(smoothed)
    k, d = smoothed[0].mean.shape
    if (learn_transition or learn_sigmas) and t_len < 2:
        raise InsufficientHistoryError("parameter learning needs >= 2 window steps")

    new_a = None
    if learn_transition:
        new_a = np.empty((k, d, d))
        for j in range(k):
            s_prev = np.zeros((d, d))
            s_lag = np.zeros((d, d))
            for i in range(1, t_len):
                m_prev, m_cur = smoothed[i - 1].mean[j], smoothed[i].mean[j]
                p_prev = smoothed[i - 1].cov[j]
                lag = smoothed[i].cov[j] @ gains[i - 1][j].T + np.outer(m_cur, m_prev)
                s_prev += p_prev + np.outer(m_prev, m_prev)
                s_lag += lag
            factor = _cholesky(_sym(s_prev) + _EIG_FLOOR * np.eye(d))
            new_a[j] = cho_solve(factor, s_lag.T).T

    new_q = new_r = None
    if learn_sigmas:
        a_used = new_a if new_a is not None else transition
        q_acc = np.zeros((d, d))
        for j in range(k):
            for i in range(1, t_len):
                m_prev, m_cur = smoothed[i - 1].mean[j], smoothed[i].mean[j]
                e_prev = smoothed[i - 1].cov[j] + np.outer(m_prev, m_prev)
                e_cur = smoothed[i].cov[j] + np.outer(m_cur, m_cur)
                e_lag = smoothed[i].cov[j] @ gains[i - 1][j].T + np.outer(m_cur, m_prev)
                a_j = a_used[j]
                q_acc += e_cur - a_j @ e_lag.T - e_lag @ a_j.T + a_j @ e_prev @ a_j.T
        new_q = _eig_floor(q_acc / ((t_len - 1) * k))

        r_acc = np.zeros((d, d))
        n_total = 0
        for i in range(t_len):
            h = feats[i]
            n_total += h.shape[0]
            for j in range(k):
                diff = h - smoothed[i].mean[j]
                w = resps[i][:, j]
                r_acc += (diff * w[:, None]).T @ diff + w.sum() * smoothed[i].cov[j]
        new_r = _eig_floor(r_acc / n_total)
    return new_a, new_q, new_r


class GaussModel(SlidingWindow):
    """Sliding-window Gaussian tracker with a softmax head on posterior means.

    Single-writer, like the spherical tracker. The per-class transition
    defaults to the identity (random-walk drift); transition matrices and
    the shared covariances can be learned from the window.
    """

    def __init__(self, source_weights: np.ndarray, config: GaussConfig):
        source_weights = np.asarray(source_weights, dtype=float)
        if source_weights.shape != (config.k, config.d):
            raise DimensionMismatchError(
                f"source weights {source_weights.shape} do not match "
                f"config (K={config.k}, D={config.d})"
            )
        if config.d > _DIM_GATE and not config.allow_high_dim:
            raise ConfigError(
                f"D={config.d} exceeds the D<={_DIM_GATE} gate for the Gaussian "
                "model (D^3 solves); set allow_high_dim=True to override"
            )
        d, k = config.d, config.k
        self.transition = np.tile(np.eye(d), (k, 1, 1))
        self.sigma_trans = config.sigma_trans_scale * np.eye(d)
        self.sigma_ems = config.sigma_ems_scale * np.eye(d)
        init_cov = (
            config.init_cov_scale
            if config.init_cov_scale is not None
            else config.sigma_trans_scale
        )
        super().__init__(
            config,
            GaussBelief(source_weights.copy(), np.tile(init_cov * np.eye(d), (k, 1, 1))),
            window=config.window,
        )
        self._last_gains: list[np.ndarray] = []

    @property
    def prototypes(self) -> np.ndarray:
        """Posterior prototype means of the newest step."""
        return self._newest().belief.mean

    def adapt(self, t: int, feats: np.ndarray) -> "GaussModel":
        cfg = self.config
        self._push(t, feats)
        for _ in range(cfg.e_sweeps):
            self.coordinate_sweep()
        for s in self._steps:
            s.mixing = mixing_update(s.resp, cfg.pi_floor)
        if (cfg.learn_transition or cfg.learn_sigmas) and len(self._steps) >= 2:
            new_a, new_q, new_r = gauss_m_step(
                [s.belief for s in self._steps],
                self._last_gains,
                [s.resp for s in self._steps],
                [s.feats for s in self._steps],
                self.transition,
                cfg.learn_transition,
                cfg.learn_sigmas,
            )
            if new_a is not None:
                self.transition = new_a
            if new_q is not None:
                self.sigma_trans = new_q
            if new_r is not None:
                self.sigma_ems = new_r
        return self

    def coordinate_sweep(self) -> None:
        """Assignments, forward filter, backward smooth over the window."""
        cfg = self.config
        steps = self._steps
        k, d = cfg.k, cfg.d
        for step in steps:
            step.resp = gauss_assignments(
                step.feats,
                step.belief,
                step.mixing,
                self.sigma_ems,
                predictive=cfg.assign_with_predictive,
            )
        t_len = len(steps)
        f_means = np.empty((t_len, k, d))
        f_covs = np.empty((t_len, k, d, d))
        prev = self._anchor
        for i, step in enumerate(steps):
            for j in range(k):
                pm, pc = kf_predict(
                    prev.mean[j], prev.cov[j], self.transition[j], self.sigma_trans
                )
                f_means[i, j], f_covs[i, j] = kf_update_weighted(
                    pm, pc, step.feats, step.resp[:, j], self.sigma_ems
                )
            prev = GaussBelief(f_means[i], f_covs[i])
        s_means = np.empty_like(f_means)
        s_covs = np.empty_like(f_covs)
        gains_per_class = []
        for j in range(k):
            sm, sc, gains = kf_smooth(
                f_means[:, j], f_covs[:, j], self.transition[j], self.sigma_trans
            )
            s_means[:, j] = sm
            s_covs[:, j] = sc
            gains_per_class.append(gains)
        # regroup gains as [transition index][class]
        self._last_gains = [
            np.stack([gains_per_class[j][i] for j in range(k)])
            for i in range(t_len - 1)
        ]
        for i, step in enumerate(steps):
            step.belief = GaussBelief(s_means[i], s_covs[i])

    def predict(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """softmax(W h) with W the newest posterior prototype means."""
        newest = self._newest()
        logits = self._unit_batch(feats) @ newest.belief.mean.T
        if logits.shape[1] == 1:
            probs = np.ones_like(logits)
        else:
            probs = np.exp(logits - log_sum_exp(logits, axis=1)[:, None])
        return probs, probs.argmax(axis=1)
