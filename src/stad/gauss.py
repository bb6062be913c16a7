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
runs the dense path. There the kf_* functions take one stacked form, a
leading class axis of size K, so one filter step and one smoother step
each handle all K classes. Every factorization goes through `_cholesky`.
The smoother gain and the M-step's transition solve factor and solve a
(K, D, D) stack in one call; the measurement update and the predictive
assignments factor and solve one class at a time, because a stacked
triangular solve was slower than that loop. Nothing inverts a matrix
explicitly, a measurement update makes one triangular solve per class,
and the smoother takes the filter's predictions. Non-finite input raises
DomainError, checked once per stacked array. The dense path scales with
D^3, so a model that learns its parameters is gated to D <= 256 unless
explicitly overridden.

A dense `adapt` computes only what is read. The anchor, A and Q stay
fixed until the M-step, so the anchor's prediction is made once and
shared by every sweep. With plug-in assignments, a sweep before the
last reads nothing of the previous sweep but its smoothed means, so it
smooths only those; between sweeps each step keeps the covariance of
the previous `adapt` (a new step, that of the step it was copied from).
The last sweep, and every sweep with predictive assignments, smooths the
covariances too and keeps the gains the M-step reads. The M-step floors
its covariance estimates with eigh only when a Cholesky test finds an
eigenvalue below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtrs

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EmptyBatchError,
    InsufficientHistoryError,
    NotPositiveDefiniteError,
)
# normalize_rows is unused here; it stays importable because bench/tracing.py rebinds it
from .mathcore import log_sum_exp, normalize_rows
from .window import SlidingWindow, check_config, check_source, mixing_update

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
        check_config(self, d_min=1)
        # chained comparisons also reject NaN
        if not (0.0 <= self.sigma_trans_scale < np.inf and 0.0 < self.sigma_ems_scale < np.inf):
            raise DomainError("covariance scales must be finite and positive (trans >= 0)")
        if not 0.0 <= self.initial_cov_scale < np.inf:
            raise DomainError(
                f"init_cov_scale must be finite and >= 0, got {self.initial_cov_scale}")
        if self.initial_cov_scale == 0.0 and self.sigma_trans_scale == 0.0:
            # P0 = Q = 0 leaves the smoother gain 0 / 0 on the first steps
            raise DomainError("init_cov_scale and sigma_trans_scale cannot both be 0")

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

    def copy(self, into: "GaussBelief | None" = None) -> "GaussBelief":
        """A copy in fresh arrays, whatever `into` is.

        Every sweep replaces each step's belief with new arrays (on the
        dense path, views into the smoother's stacked arrays), so storage
        taken from a retired belief would serve only the first
        assignments, and on the dense path it would keep a whole old stack
        alive.
        """
        return GaussBelief(self.mean.copy(), self.cov.copy())


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _eig_floor(m: np.ndarray, floor: float = _EIG_FLOOR) -> np.ndarray:
    """The symmetric part of m with every eigenvalue below floor raised to it.

    When sym(m) - floor * I has a Cholesky factor, no eigenvalue is below
    the floor, and sym(m) comes back as it is; only a matrix that fails
    that test is decomposed by eigh and rebuilt from the floored spectrum.
    """
    sym = _sym(m)
    try:
        _cholesky(sym - floor * np.eye(sym.shape[-1]))
    except NotPositiveDefiniteError:
        vals, vecs = np.linalg.eigh(sym)
        return _sym((vecs * np.maximum(vals, floor)) @ vecs.T)
    return sym


def _finite(where: str, *arrays) -> None:
    """Raise DomainError unless every entry of every array is finite.

    One check per stacked array: the factorizations and solves that follow
    skip scipy's per-call finiteness checks.
    """
    for a in arrays:
        if not np.isfinite(a).all():
            raise DomainError(f"{where}: inputs must be finite")


def _cholesky(m: np.ndarray):
    """Lower Cholesky factor of one finite symmetric positive-definite
    (D, D) matrix, or of each matrix of a (K, D, D) stack.

    Reads the lower triangles only; returns the (factor, lower) pair that
    cho_solve takes, with lower True.
    """
    try:
        return cho_factor(m, lower=True, check_finite=False)[0], True
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc


def kf_predict(mean: np.ndarray, cov: np.ndarray, transition: np.ndarray,
               sigma_trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead prior of K classes: A_j m_j and A_j P_j A_j^T + Q
    (symmetrized).

    mean is (K, D), cov and transition (K, D, D), one matrix per class,
    and Q (D, D).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    transition = np.asarray(transition, dtype=float)
    sigma_trans = np.asarray(sigma_trans, dtype=float)
    if (mean.ndim != 2 or cov.shape != mean.shape + mean.shape[1:]
            or transition.shape != cov.shape or sigma_trans.shape != cov.shape[1:]):
        raise DimensionMismatchError("inconsistent shapes in kf_predict")
    _finite("kf_predict", mean, cov, transition, sigma_trans)
    pred_mean = (transition @ mean[..., None])[..., 0]
    return pred_mean, _sym(transition @ cov @ np.swapaxes(transition, -1, -2) + sigma_trans)


def kf_update_weighted(
    mean: np.ndarray,
    cov: np.ndarray,
    feats: np.ndarray,
    resp_col: np.ndarray,
    sigma_ems: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of K classes from a responsibility-weighted batch.

    mean is (K, D), cov (K, D, D), feats (N, D), resp_col (N, K) and R
    (D, D). Each class's weighted batch collapses to one pseudo-observation:
    the weighted mean with emission noise scaled down by the total weight
    w. A total weight at or below 1e-8 (an empty cluster) keeps that
    class's prior. Otherwise S = P + R / w is factored as L L^T, and one
    triangular solve gives W = L^{-1} P and y = L^{-1} (obs - m); the
    posterior is m + W^T y and P - W^T W. A non-positive-definite S raises
    NotPositiveDefiniteError (a StadError and a LinAlgError), which signals
    an invariant violation upstream; non-finite input raises DomainError.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    feats = np.asarray(feats, dtype=float)
    resp = np.asarray(resp_col, dtype=float)
    sigma_ems = np.asarray(sigma_ems, dtype=float)
    if (mean.ndim != 2 or cov.shape != mean.shape + mean.shape[1:]
            or feats.ndim != 2 or feats.shape[1:] != mean.shape[1:]
            or resp.shape != (feats.shape[0], mean.shape[0])
            or sigma_ems.shape != cov.shape[1:]):
        raise DimensionMismatchError("inconsistent shapes in kf_update_weighted")
    if np.any(resp < 0.0):
        raise DomainError("responsibilities must be nonnegative")
    _finite("kf_update_weighted", mean, cov, feats, resp, sigma_ems)
    d = mean.shape[1]
    weight = resp.sum(axis=0)
    live = np.flatnonzero(weight > _EMPTY_CLUSTER_EPS)
    new_mean, new_cov = mean.copy(), cov.copy()
    if live.size:
        w, prior = weight[live], cov[live]
        obs = (resp[:, live].T @ feats) / w[:, None]
        innov_cov = prior + sigma_ems / w[:, None, None]
        # [W | y] = L^{-1} [P | obs - m], one class at a time: at K=10, D=64
        # on one BLAS thread a stacked solve_triangular took about 0.56 ms
        # against 0.42 ms for this dtrtrs loop
        white = np.concatenate([prior, (obs - mean[live])[..., None]], axis=-1)
        for i in range(live.size):
            # potrf succeeded, so L has a positive diagonal and trtrs cannot fail
            white[i] = dtrtrs(_cholesky(innov_cov[i])[0], white[i], lower=1)[0]
        white_p, y = white[..., :d], white[..., d]
        new_mean[live] += (y[:, None, :] @ white_p)[:, 0]
        new_cov[live] = _sym(prior - np.swapaxes(white_p, -1, -2) @ white_p)
    return new_mean, new_cov


def kf_smooth(
    means: np.ndarray,
    covs: np.ndarray,
    pred_means: np.ndarray,
    pred_covs: np.ndarray,
    transition: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward (Rauch-Tung-Striebel) pass over the filtered moments of K
    chains.

    means is (T, K, D) and covs (T, K, D, D); pred_means (T-1, K, D) and
    pred_covs (T-1, K, D, D) are the filter's predictions for steps
    1..T-1, A m_i and A P_i A^T + Q from step i; transition is (K, D, D).
    Returns the smoothed means and covs and the smoother gains
    J_i = P_i A^T (A P_i A^T + Q)^{-1}, one (T-1, K, D, D) array, needed
    for lag-one cross moments. A single step returns the filtered moments
    unchanged.
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    pred_means = np.asarray(pred_means, dtype=float)
    pred_covs = np.asarray(pred_covs, dtype=float)
    transition = np.asarray(transition, dtype=float)
    if (means.ndim != 3 or covs.shape != means.shape + means.shape[2:]
            or pred_means.shape != (means.shape[0] - 1,) + means.shape[1:]
            or pred_covs.shape != (means.shape[0] - 1,) + covs.shape[1:]
            or transition.shape != covs.shape[1:]):
        raise DimensionMismatchError("inconsistent shapes in kf_smooth")
    _finite("kf_smooth", means, covs, pred_means, pred_covs, transition)
    sm, sc = means.copy(), covs.copy()
    gains = np.empty(pred_covs.shape)
    for i in range(means.shape[0] - 2, -1, -1):
        # J^T = (A P A^T + Q)^{-1} A P, all K classes in one stacked solve
        gain_t = cho_solve(_cholesky(pred_covs[i]), transition @ covs[i], check_finite=False)
        gains[i] = gain = np.swapaxes(gain_t, -1, -2)
        sm[i] = means[i] + (gain @ (sm[i + 1] - pred_means[i])[..., None])[..., 0]
        sc[i] = _sym(covs[i] + gain @ (sc[i + 1] - pred_covs[i]) @ gain_t)
    return sm, sc, gains


def _smooth_means(means: np.ndarray, covs: np.ndarray, pred_means: np.ndarray,
                  pred_covs: np.ndarray, transition: np.ndarray) -> np.ndarray:
    """The smoothed means of kf_smooth alone, from the same arguments.

    m^s_i = m_i + P_i A^T x with x = (A P_i A^T + Q)^{-1} (m^s_{i+1} - A m_i):
    one stacked solve against a (K, D, 1) right-hand side per backward
    step, where kf_smooth solves for the (K, D, D) gain and then carries
    the covariances. It checks nothing: its caller passes the filter's
    output, built from checked arrays, and the next sweep's assignments
    check the means it returns.
    """
    sm = means.copy()
    a_t = np.swapaxes(transition, -1, -2)
    for i in range(means.shape[0] - 2, -1, -1):
        x = cho_solve(_cholesky(pred_covs[i]), (sm[i + 1] - pred_means[i])[..., None],
                      check_finite=False)
        sm[i] = means[i] + (covs[i] @ (a_t @ x))[..., 0]
    return sm


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
        _finite("gauss_assignments", feats, belief.mean, belief.cov, sigma_ems)
        innov_cov = _sym(sigma_ems + belief.cov)
        quad = np.empty((feats.shape[0], k))
        logdet = np.empty(k)
        # one class at a time: a stacked triangular solve is slower (kf_update_weighted)
        for j in range(k):
            chol = _cholesky(innov_cov[j])[0]
            logdet[j] = 2.0 * np.sum(np.log(np.diag(chol)))
            white = dtrtrs(chol, (feats - belief.mean[j]).T, lower=1)[0]
            quad[:, j] = np.einsum("dn,dn->n", white, white)
    else:
        _finite("gauss_assignments", feats, belief.mean, sigma_ems)
        chol = _cholesky(_sym(sigma_ems))[0]
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        x = dtrtrs(chol, feats.T, lower=1)[0]          # (D, N)
        m = dtrtrs(chol, belief.mean.T, lower=1)[0]    # (D, K)
        quad = _sq_dist(x, m)
    logits = log_pi - 0.5 * (quad + logdet + d * np.log(2.0 * np.pi))
    return np.exp(logits - log_sum_exp(logits, axis=1)[:, None])


def gauss_m_step(
    smoothed: list[GaussBelief],
    gains: np.ndarray,
    resps: list[np.ndarray],
    feats: list[np.ndarray],
    transition: np.ndarray,
    learn_transition: bool,
    learn_sigmas: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Closed-form transition / covariance re-estimates over the window.

    gains holds the T-1 smoother gains of kf_smooth, (T-1, K, D, D).
    Lag-one cross moments use E[w_t w_{t-1}^T] = m_t m_{t-1}^T +
    P_t^s J_{t-1}^T. The transition matrix solves the per-class lag-one
    least squares, all K classes in one stacked solve; both covariances
    average residual second moments over classes and steps, symmetrized
    with eigenvalues floored at 1e-8.
    Returns (transition per class or None, sigma_trans or None,
    sigma_ems or None); with both flags off, (None, None, None) before any
    check.

    With a flag on, fewer than 2 steps raise InsufficientHistoryError.
    Every belief needs a (K, D) mean and a (K, D, D) covariance of one K
    and D, gains must be (T-1, K, D, D) and transition (K, D, D), and with
    learn_sigmas feats and resps need T entries, (N_t, D) and (N_t, K);
    anything else raises DimensionMismatchError. Learning R from batches
    that are all empty raises EmptyBatchError.
    """
    if not (learn_transition or learn_sigmas):
        return None, None, None
    t_len = len(smoothed)
    if t_len < 2:
        raise InsufficientHistoryError("parameter learning needs >= 2 window steps")
    shape = np.shape(smoothed[0].mean)
    if len(shape) != 2 or any(np.shape(b.mean) != shape or np.shape(b.cov) != shape + shape[1:]
                              for b in smoothed):
        raise DimensionMismatchError(
            "gauss_m_step needs (K, D) means and (K, D, D) covariances of one K and D")
    k, d = shape
    if (len(gains) != t_len - 1 or any(np.shape(g) != (k, d, d) for g in gains)
            or np.shape(transition) != (k, d, d)):
        raise DimensionMismatchError(
            f"gauss_m_step needs {t_len - 1} gains and a transition, each ({k}, {d}, {d})")
    if learn_sigmas and (
            len(feats) != t_len or len(resps) != t_len
            or any(np.ndim(h) != 2 or np.shape(h)[1] != d or np.shape(w) != (len(h), k)
                   for h, w in zip(feats, resps))):
        raise DimensionMismatchError(
            f"gauss_m_step needs {t_len} batches (N_t, {d}) and responsibilities (N_t, {k})")
    if learn_sigmas and not sum(len(h) for h in feats):
        raise EmptyBatchError("gauss_m_step needs at least one sample to learn R")

    means = np.stack([b.mean for b in smoothed])   # (T, K, D)
    covs = np.stack([b.cov for b in smoothed])     # (T, K, D, D)
    gain_stack = np.asarray(gains, dtype=float)    # (T-1, K, D, D)
    _finite("gauss_m_step", means, covs, gain_stack, *resps, *feats)
    # second moments summed over the T-1 transitions, per class: (K, D, D)
    s_prev = covs[:-1].sum(axis=0) + np.einsum("tkd,tke->kde", means[:-1], means[:-1])
    s_lag = ((covs[1:] @ np.swapaxes(gain_stack, -1, -2)).sum(axis=0)
             + np.einsum("tkd,tke->kde", means[1:], means[:-1]))

    new_a = None
    if learn_transition:
        # A_j = S_lag S_prev^{-1}: solve S_prev A_j^T = S_lag^T
        s_prev_reg = _sym(s_prev) + _EIG_FLOOR * np.eye(d)
        new_a = np.swapaxes(cho_solve(_cholesky(s_prev_reg), np.swapaxes(s_lag, -1, -2),
                                      check_finite=False), -1, -2)

    new_q = new_r = None
    if learn_sigmas:
        a = new_a
        if a is None:
            a = np.asarray(transition, dtype=float)
            _finite("gauss_m_step", a)
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
    (K, D, D); each sweep of the dense path makes one kf_update_weighted
    call per window step for all K classes and one kf_predict call per
    step after the first, the anchor's prediction being made once per
    `adapt`. Sweeps before the last smooth only the means when the
    assignments are plug-in, so between sweeps the step covariances are
    those of the previous `adapt`. The last sweep makes one kf_smooth
    call over the window with the filter's predictions and keeps its
    (T-1, K, D, D) smoother gains for the M-step. Only the dense form is
    gated to D <= 256.
    """

    def __init__(self, source_weights: np.ndarray, config: GaussConfig):
        source_weights = check_source(source_weights, config)
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
        self._last_gains: np.ndarray | None = None

    @property
    def prototypes(self) -> np.ndarray:
        """Posterior prototype means of the newest step."""
        return self._newest().belief.mean

    def adapt(self, t: int, feats: np.ndarray) -> "GaussModel":
        cfg = self.config
        self._push(t, feats)
        # A, Q and the anchor hold still until the M-step, so later sweeps
        # reuse the first sweep's anchor prediction; predictive assignments
        # read the covariances, so then every sweep smooths them
        anchor_pred = None
        for sweep in range(cfg.e_sweeps):
            full = cfg.assign_with_predictive or sweep == cfg.e_sweeps - 1
            anchor_pred = self.coordinate_sweep(full, anchor_pred)
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

    def coordinate_sweep(self, full: bool = True, anchor_pred=None):
        """Assignments, forward filter, backward smooth over the window.

        A bare call does the whole sweep. The dense path takes two hints
        from `adapt`, which owns their validity: with full False it smooths
        the means alone and each step keeps its covariance, and an
        anchor_pred from an earlier sweep of the same `adapt` stands in for
        the anchor's kf_predict. Returns the dense path's anchor prediction
        (None on the scalar path, which ignores both hints).
        """
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
            return None
        return self._dense_filter_smooth(full, anchor_pred)

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

    def _dense_filter_smooth(self, full: bool = True, anchor_pred=None):
        """Dense Kalman filter and RTS smoother, all K classes at once.

        Each window step makes one kf_update_weighted call and, past the
        first, one kf_predict call; the first step's prediction is
        anchor_pred, made here when None and returned. With full, one
        kf_smooth call reuses the filter's predictions and keeps the
        (T-1, K, D, D) smoother gains for the M-step. Without it only the
        smoothed means are computed: each step's covariance stays as it
        was and the kept gains stay those of the last full smooth.
        """
        steps = self._steps
        t_len = len(steps)
        k, d = self._anchor.mean.shape
        p_means, f_means = np.empty((2, t_len, k, d))
        p_covs, f_covs = np.empty((2, t_len, k, d, d))
        if anchor_pred is None:
            anchor_pred = kf_predict(self._anchor.mean, self._anchor.cov, self.transition,
                                     self.sigma_trans)
        p_means[0], p_covs[0] = anchor_pred
        for i, step in enumerate(steps):
            if i:
                p_means[i], p_covs[i] = kf_predict(f_means[i - 1], f_covs[i - 1],
                                                   self.transition, self.sigma_trans)
            f_means[i], f_covs[i] = kf_update_weighted(
                p_means[i], p_covs[i], step.feats, step.resp, self.sigma_ems
            )
        if full:
            s_means, s_covs, self._last_gains = kf_smooth(
                f_means, f_covs, p_means[1:], p_covs[1:], self.transition
            )
        else:
            s_means = _smooth_means(f_means, f_covs, p_means[1:], p_covs[1:], self.transition)
            s_covs = [step.belief.cov for step in steps]
        for step, s_mean, s_cov in zip(steps, s_means, s_covs):
            step.belief = GaussBelief(s_mean, s_cov)
        return anchor_pred

    def predict(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """softmax(W h) with W the newest posterior prototype means."""
        newest = self._newest()
        logits = self._unit_batch(feats) @ newest.belief.mean.T
        probs = np.exp(logits - log_sum_exp(logits, axis=1)[:, None])
        return probs, probs.argmax(axis=1)
