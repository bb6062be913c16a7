"""Gaussian state-space mixture: K Kalman chains over class prototypes.

Per class, the prototype follows a linear-Gaussian drift with a
(learnable) transition matrix and shared transition covariance; each
step's embeddings follow a Gaussian mixture around the current
prototypes with a shared emission covariance. Filtering, smoothing and
parameter M-steps are closed form; the mixture enters through
responsibility-weighted pseudo-observations.

The stored form of the covariances picks the Kalman path. With the
identity transition and nothing learned (the defaults), Q, R and the
initial covariance are multiples of I, and every filtered and smoothed
covariance stays c * I. The model then stores Q and R as the floats q
and r and each belief's covariance as one variance per class, shape
(K,), and runs a scalar path at O(K D) per step plus the assignments.
With either learn flag set it stores (D, D) and (K, D, D) matrices and
runs the dense path, where every D x D solve goes through a Cholesky
factorization and nothing inverts a matrix explicitly. The dense path
scales with D^3, so a model that learns its parameters is gated to
D <= 256 unless explicitly overridden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InsufficientHistoryError,
    NotPositiveDefiniteError,
)
# normalize_rows is unused here; it stays importable because bench/tracing.py rebinds it
from .mathcore import log_sum_exp, normalize_rows
from .window import SlidingWindow, check_sizes, mixing_update

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
        check_sizes(self, d_min=1)
        # chained comparisons also reject NaN
        if not (0.0 <= self.sigma_trans_scale < np.inf and 0.0 < self.sigma_ems_scale < np.inf):
            raise DomainError("covariance scales must be finite and positive (trans >= 0)")
        if not 0.0 <= self.initial_cov_scale < np.inf:
            raise DomainError(
                f"init_cov_scale must be finite and >= 0, got {self.initial_cov_scale}")
        if self.initial_cov_scale == 0.0 and self.sigma_trans_scale == 0.0:
            # P0 = Q = 0 leaves the smoother gain 0 / 0 on the first steps
            raise DomainError("init_cov_scale and sigma_trans_scale cannot both be 0")
        if not 0.0 <= self.pi_floor < 1.0 / self.k:
            raise DomainError(f"pi_floor must lie in [0, 1/K), got {self.pi_floor}")

    @property
    def initial_cov_scale(self) -> float:
        """The prior covariance scale: init_cov_scale, or sigma_trans_scale if None."""
        if self.init_cov_scale is None:
            return self.sigma_trans_scale
        return self.init_cov_scale


@dataclass
class GaussBelief:
    """Posterior mean and covariance per class prototype."""

    mean: np.ndarray  # (K, D)
    cov: np.ndarray   # (K,) variances c of c * I, or (K, D, D)

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


def _sq_dist(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(N, K) squared distances between the columns of x (D, N) and m (D, K)."""
    return (np.einsum("dn,dn->n", x, x)[:, None] - 2.0 * (x.T @ m)
            + np.einsum("dk,dk->k", m, m))


def gauss_assignments(
    feats: np.ndarray,
    belief: GaussBelief,
    mixing: np.ndarray,
    sigma_ems: np.ndarray | float,
    predictive: bool = False,
) -> np.ndarray:
    """Responsibilities under the Gaussian mixture emission.

    Default plugs in the posterior means with the emission covariance
    alone; predictive=True adds each class's posterior covariance
    (marginal predictive form). A (K,) belief covariance means the scalar
    form: R = r I with sigma_ems the float r, and class j's covariance
    c_j I, so the quadratic forms are squared distances over r (+ c_j)
    and nothing is factored. In the dense form R = L L^T is factored
    once and the batch and the means are whitened by L^{-1}; the
    predictive form factors R + P_j once per class.
    """
    feats = np.asarray(feats, dtype=float)
    k, d = belief.mean.shape
    if feats.ndim != 2 or feats.shape[1] != d:
        raise DimensionMismatchError(f"batch {feats.shape} vs prototypes (*, {d})")
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.asarray(mixing, dtype=float))
    if belief.cov.ndim == 1:
        var = sigma_ems + belief.cov if predictive else sigma_ems
        logdet = d * np.log(var)
        quad = _sq_dist(feats.T, belief.mean.T) / var
    elif predictive:
        quad = np.empty((feats.shape[0], k))
        logdet = np.empty(k)
        for j in range(k):
            factor = _cholesky(_sym(sigma_ems + belief.cov[j]))
            logdet[j] = 2.0 * np.sum(np.log(np.diag(factor[0])))
            diff = feats - belief.mean[j]
            quad[:, j] = np.sum(diff * cho_solve(factor, diff.T).T, axis=1)
    else:
        chol = _cholesky(_sym(sigma_ems))[0]
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        x = solve_triangular(chol, feats.T, lower=True)         # (D, N)
        m = solve_triangular(chol, belief.mean.T, lower=True)   # (D, K)
        quad = _sq_dist(x, m)
    logits = log_pi - 0.5 * (quad + logdet + d * np.log(2.0 * np.pi))
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
    if not (learn_transition or learn_sigmas):
        return None, None, None
    if t_len < 2:
        raise InsufficientHistoryError("parameter learning needs >= 2 window steps")

    means = np.stack([b.mean for b in smoothed])   # (T, K, D)
    covs = np.stack([b.cov for b in smoothed])     # (T, K, D, D)
    # second moments summed over the T-1 transitions, per class: (K, D, D)
    s_prev = covs[:-1].sum(axis=0) + np.einsum("tkd,tke->kde", means[:-1], means[:-1])
    s_lag = ((covs[1:] @ np.swapaxes(np.stack(gains), -1, -2)).sum(axis=0)
             + np.einsum("tkd,tke->kde", means[1:], means[:-1]))

    new_a = None
    if learn_transition:
        new_a = np.empty((k, d, d))
        for j in range(k):
            factor = _cholesky(_sym(s_prev[j]) + _EIG_FLOOR * np.eye(d))
            new_a[j] = cho_solve(factor, s_lag[j].T).T

    new_q = new_r = None
    if learn_sigmas:
        a = new_a if new_a is not None else transition
        s_cur = covs[1:].sum(axis=0) + np.einsum("tkd,tke->kde", means[1:], means[1:])
        a_lag = a @ np.swapaxes(s_lag, -1, -2)
        q_acc = (s_cur - a_lag - np.swapaxes(a_lag, -1, -2)
                 + a @ s_prev @ np.swapaxes(a, -1, -2)).sum(axis=0)
        new_q = _eig_floor(q_acc / ((t_len - 1) * k))

        # sum_nk w_nk (h_n - m_k)(h_n - m_k)^T + w_k P_k, expanded so that
        # no (N, K, D) difference array is built
        r_acc = np.zeros((d, d))
        n_total = 0
        for b, h, w in zip(smoothed, feats, resps):
            n_total += h.shape[0]
            w_k = w.sum(axis=0)
            cross = b.mean.T @ (w.T @ h)
            r_acc += ((h * w.sum(axis=1)[:, None]).T @ h - cross - cross.T
                      + (b.mean * w_k[:, None]).T @ b.mean
                      + np.einsum("k,kde->de", w_k, b.cov))
        new_r = _eig_floor(r_acc / n_total)
    return new_a, new_q, new_r


class GaussModel(SlidingWindow):
    """Sliding-window Gaussian tracker with a softmax head on posterior means.

    Single-writer, like the spherical tracker. The per-class transition
    defaults to the identity (random-walk drift); transition matrices and
    the shared covariances can be learned from the window.

    The learn flags pick the stored form, and the form picks the Kalman
    path. With both off, the transition stays I (`transition` is None),
    `sigma_trans` and `sigma_ems` are the floats q and r, and every belief
    covariance is (K,): the scalar path carries one variance per class
    and its assignments factor nothing. With either flag on, the
    transition is (K, D, D), Q and R are (D, D) and the covariances
    (K, D, D); the dense path runs per class with D x D Cholesky solves
    and keeps the smoother gains for the M-step. Only that form is gated
    to D <= 256.
    """

    def __init__(self, source_weights: np.ndarray, config: GaussConfig):
        source_weights = np.asarray(source_weights, dtype=float)
        if source_weights.shape != (config.k, config.d):
            raise DimensionMismatchError(
                f"source weights {source_weights.shape} do not match "
                f"config (K={config.k}, D={config.d})"
            )
        d, k = config.d, config.k
        dense = config.learn_transition or config.learn_sigmas
        if dense and d > _DIM_GATE and not config.allow_high_dim:
            raise ConfigError(
                f"D={d} exceeds the D<={_DIM_GATE} gate for a Gaussian model that "
                "learns its parameters (D^3 solves); set allow_high_dim=True to override"
            )
        eye = np.eye(d) if dense else 1.0
        self.transition = np.tile(eye, (k, 1, 1)) if dense else None
        self.sigma_trans = config.sigma_trans_scale * eye
        self.sigma_ems = config.sigma_ems_scale * eye
        init_cov = config.initial_cov_scale * (self.transition if dense else np.ones(k))
        super().__init__(
            config,
            GaussBelief(source_weights.copy(), init_cov),
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
        for step in self._steps:
            step.resp = gauss_assignments(
                step.feats,
                step.belief,
                step.mixing,
                self.sigma_ems,
                predictive=self.config.assign_with_predictive,
            )
        if self._anchor.cov.ndim == 1:
            self._scalar_filter_smooth()
        else:
            self._dense_filter_smooth()

    def _scalar_filter_smooth(self) -> None:
        """Filter and smooth every class at once, each covariance being c * I.

        Predict adds q to c, the update gain is c / (c + r / w) for a total
        weight w (a weight at or below 1e-8 keeps the prior, as in
        kf_update_weighted), and the smoother gain is c_f / (c_f + q).
        """
        q, r = self.sigma_trans, self.sigma_ems
        steps = self._steps
        mean, var = self._anchor.mean, self._anchor.cov
        f_means, f_vars = [], []
        for step in steps:
            var = var + q
            weight = step.resp.sum(axis=0)
            live = weight > _EMPTY_CLUSTER_EPS
            weight = np.where(live, weight, 1.0)
            obs = (step.resp.T @ step.feats) / weight[:, None]
            gain = np.where(live, var / (var + r / weight), 0.0)
            mean = mean + gain[:, None] * (obs - mean)
            var = (1.0 - gain) * var
            f_means.append(mean)
            f_vars.append(var)
        steps[-1].belief = GaussBelief(mean, var)
        for i in range(len(steps) - 2, -1, -1):
            pred = f_vars[i] + q
            gain = f_vars[i] / pred
            mean = f_means[i] + gain[:, None] * (mean - f_means[i])
            var = f_vars[i] + gain * (var - pred) * gain
            steps[i].belief = GaussBelief(mean, var)

    def _dense_filter_smooth(self) -> None:
        """Per-class dense Kalman filter and RTS smoother; keeps the smoother gains."""
        cfg = self.config
        steps = self._steps
        k, d = cfg.k, cfg.d
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
        probs = np.exp(logits - log_sum_exp(logits, axis=1)[:, None])
        return probs, probs.argmax(axis=1)
