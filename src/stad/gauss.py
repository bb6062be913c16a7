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
each handle all K classes. Every factorization goes through `_cholesky`
and every solve through `_solve`, which overwrites its right-hand side
with right-side BLAS trsm calls, one factor at a time. The smoother gain
and the M-step's transition solve factor a (K, D, D) stack in one call;
the measurement update factors one class at a time. Nothing inverts a
matrix explicitly, a measurement update makes one triangular solve per
class for its covariances and one solve against R's factor for its
means, and the smoother takes the filter's predictions. Non-finite input
raises DomainError, checked once per stacked array. The dense path
scales with D^3, so a model that learns its parameters is limited to
D <= 256.

A dense `adapt` computes only what is read. The filter covariances
depend on a batch only through each class's total weight w = resp.sum(0),
so a later sweep of one `adapt` keeps the covariances of the longest
prefix of steps whose weights repeat bit for bit, moves only their means,
and recomputes from the first step that differs; the anchor's prediction
is made once (see `_FilterRecord`). The assignments plug in the
posterior means alone, so a sweep before the last reads nothing of the
previous sweep but its smoothed means, and it smooths only those;
between sweeps each step keeps the covariance of the previous `adapt` (a
new step, that of the step it was copied from). The last sweep smooths
the covariances too and keeps the gains the M-step reads. The M-step
floors its covariance estimates with eigh only when a Cholesky test finds
an eigenvalue below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.blas import dtrsm

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
    """Knobs for the Gaussian tracker.

    With learn_transition or learn_sigmas set, the model keeps dense
    (D, D) matrices and refuses D > 256. The assignments always plug in
    the posterior means with the emission covariance alone.
    """

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


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of one finite symmetric positive-definite
    (D, D) matrix, or of each matrix of a (K, D, D) stack.

    Reads the lower triangles only. The factor is L in its lower triangle;
    what lies above the diagonal is not part of it, and `_solve` reads
    only the lower triangle.
    """
    try:
        return cho_factor(m, lower=True, check_finite=False)[0]
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc


def _solve(factor: np.ndarray, x: np.ndarray, half: bool = False) -> np.ndarray:
    """x <- S^{-1} x for S = L L^T, or x <- L^{-1} x with half, in place.

    factor is `_cholesky`'s L of one (D, D) matrix and x is (D, n), or
    factor is a (K, D, D) stack and x (K, D, n), one block per matrix.
    Returns x. A writable C-ordered float x is overwritten, also when it
    is a view of a caller's array (a transposed (K, 1, 1) or (1, n) view
    is C-ordered), so pass a fresh array unless the caller means its own
    to be overwritten. Any other x is copied first, so use the return
    value. Each block runs as right-side
    trsm calls on the Fortran view x[i].T: x^T <- x^T L^{-T}, then
    x^T L^{-1}. On OpenBLAS with one thread these ran about twice as fast
    as the left-side kernel, potrs or trtrs on 64 x 64 blocks, for the
    same flops. It checks nothing.
    """
    x = np.require(x, dtype=float, requirements="CAW")
    for low, block in zip(factor.reshape(-1, *factor.shape[-2:]), x.reshape(-1, *x.shape[-2:])):
        dtrsm(1.0, low, block.T, side=1, lower=1, trans_a=1, overwrite_b=1)
        if not half:
            dtrsm(1.0, low, block.T, side=1, lower=1, trans_a=0, overwrite_b=1)
    return x


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
    class's prior. Otherwise S = P + R / w is factored as L L^T and W =
    L^{-1} P solved in place, one class at a time (a `_cholesky` and a
    half `_solve` per class), and the posterior covariance is
    P_f = P - W^T W. The posterior mean is m + w P_f R^{-1} (obs - m), the
    same gain in information form, from one factorization of R (see
    `_update_means`). A non-positive-definite S or R raises
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
    _check_weighted("kf_update_weighted", resp, mean, cov, feats, sigma_ems)
    weight = resp.sum(axis=0)
    live = np.flatnonzero(weight > _EMPTY_CLUSTER_EPS)
    new_cov = cov.copy()
    if not live.size:
        return mean.copy(), new_cov
    prior = cov[live]
    innov_cov = prior + sigma_ems / weight[live, None, None]
    # W = L^{-1} P, factored and solved in place one class at a time
    white = prior.copy()
    for i in range(live.size):
        _solve(_cholesky(innov_cov[i]), white[i], half=True)
    new_cov[live] = _sym(prior - np.swapaxes(white, -1, -2) @ white)
    return _update_means(mean, new_cov, feats, resp, weight, _cholesky(sigma_ems)), new_cov


def _check_weighted(where: str, resp: np.ndarray, *arrays) -> None:
    """Raise DomainError unless resp is nonnegative and it and every array finite."""
    if np.any(resp < 0.0):
        raise DomainError("responsibilities must be nonnegative")
    _finite(where, resp, *arrays)


def _update_means(mean: np.ndarray, post_cov: np.ndarray, feats: np.ndarray,
                  resp: np.ndarray, weight: np.ndarray, ems_factor) -> np.ndarray:
    """Posterior means of a measurement update whose covariances are known.

    m + P_f R^{-1} (resp^T h - w m), which is m + w P_f R^{-1} (obs - m)
    for the weighted mean obs: the Kalman gain P S^{-1} in information
    form. mean is the prior (K, D), post_cov the posterior (K, D, D),
    weight the column sums of resp and ems_factor R's `_cholesky` factor.
    A class with weight at or below 1e-8 keeps its prior mean. It checks
    nothing; kf_update_weighted and the dense filter check its inputs.
    """
    resid = feats.T @ resp - mean.T * weight   # (D, K)
    resid[:, weight <= _EMPTY_CLUSTER_EPS] = 0.0
    x = _solve(ems_factor, resid).T
    return mean + (post_cov @ x[..., None])[..., 0]


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
    for lag-one cross moments. Each backward step factors the K predicted
    covariances in one `_cholesky` call and solves J^T = (A P A^T + Q)^{-1}
    A P with one `_solve` on the stack. A single step returns the filtered
    moments unchanged.
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
        # J^T = (A P A^T + Q)^{-1} A P, all K classes in one stacked call
        gain_t = _solve(_cholesky(pred_covs[i]), transition @ covs[i])
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
        x = _solve(_cholesky(pred_covs[i]), (sm[i + 1] - pred_means[i])[..., None])
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
) -> np.ndarray:
    """Responsibilities under the Gaussian mixture emission.

    Plugs in the posterior means with the emission covariance alone; the
    belief covariances set only the form. A (K,) belief covariance means
    the scalar form: R = r I with sigma_ems the float r, so the quadratic
    forms are squared distances over r and nothing is factored. In the
    dense form R = L L^T is factored once, and one half `_solve` whitens
    the batch and the means together, as the (D, N + K) columns of one
    array.

    The mean must be (K, D), the batch (N, D) and mixing (K,); the scalar
    form takes a float sigma_ems and the dense form (K, D, D) covariances
    with a (D, D) sigma_ems. Anything else raises DimensionMismatchError.
    """
    feats = np.asarray(feats, dtype=float)
    mixing = np.asarray(mixing, dtype=float)
    sigma_ems = np.asarray(sigma_ems, dtype=float)
    mean, cov = np.asarray(belief.mean, dtype=float), np.asarray(belief.cov, dtype=float)
    if mean.ndim != 2 or feats.ndim != 2 or feats.shape[1] != mean.shape[1]:
        raise DimensionMismatchError(f"batch {feats.shape} vs prototypes {mean.shape}")
    (k, d), scalar = mean.shape, cov.ndim == 1
    if (mixing.shape != (k,) or cov.shape != ((k,) if scalar else (k, d, d))
            or sigma_ems.shape != (() if scalar else (d, d))):
        raise DimensionMismatchError(f"gauss_assignments needs ({k},) mixing, and ({k},) "
                                     f"covariances with a float R or ({k}, {d}, {d}) with a "
                                     f"({d}, {d}) R")
    if scalar and not 0.0 < float(sigma_ems) < np.inf:
        raise DomainError(f"the emission variance r must be finite and > 0, got {sigma_ems}")
    with np.errstate(divide="ignore"):
        log_pi = np.log(mixing)
    if scalar:
        logdet = d * np.log(sigma_ems)
        quad = _sq_dist(feats.T, mean.T) / sigma_ems
    else:
        _finite("gauss_assignments", feats, mean, sigma_ems)
        chol = _cholesky(_sym(sigma_ems))
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        # the batch and the means whitened in one solve: (D, N + K)
        white = _solve(chol, np.concatenate((feats.T, mean.T), axis=1), half=True)
        quad = _sq_dist(white[:, :feats.shape[0]], white[:, feats.shape[0]:])
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
        # a fresh right-hand side: at D = 1 the transposed view of s_lag is
        # C-ordered, and _solve would overwrite s_lag itself
        s_lag_t = np.swapaxes(s_lag, -1, -2).copy()
        new_a = np.swapaxes(_solve(_cholesky(s_prev_reg), s_lag_t), -1, -2)

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


@dataclass
class _FilterRecord:
    """What the dense filter keeps from one sweep to the next of an `adapt`.

    The predicted and filtered moments, two stacks of (2, T, K, D) and
    (2, T, K, D, D) allocated once; the weights w = resp.sum(0) each
    window step last ran with; and R's Cholesky factor, made on the first
    reuse. It is valid while A, Q, R and the anchor hold still, so
    `_push` and `_reestimate` (before the M-step) each put a fresh one in
    place. The dense filter clears `weights` before it writes the stacks,
    so a sweep that raises leaves nothing to reuse. A bare
    `coordinate_sweep` after `adapt` starts from the fresh record, and a
    second bare sweep reuses the first one's, which holds while nobody
    sets `transition`, `sigma_trans` or `sigma_ems` in between.
    """

    stacks: tuple[np.ndarray, np.ndarray] | None = None
    weights: list[np.ndarray] = field(default_factory=list)
    ems_factor: np.ndarray | None = None


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
    (K, D, D). The first sweep of a dense `adapt` makes one
    kf_update_weighted call per window step for all K classes and one
    kf_predict call per step after the first. A later sweep of the same
    `adapt` keeps the filter covariances of the steps whose weights
    repeat, a prefix of the window, and makes those calls only from the
    first step whose weights moved; the anchor's prediction is made once
    per `adapt` (see `_FilterRecord`). Sweeps before the last smooth
    only the means, which is all the plug-in assignments read, so between
    sweeps the step covariances are those of the previous `adapt`. The
    last sweep makes one kf_smooth call over the window with the filter's
    predictions and keeps its (T-1, K, D, D) smoother gains for the
    M-step. The dense form is limited to D <= 256.
    """

    def __init__(self, source_weights: np.ndarray, config: GaussConfig):
        source_weights = check_source(source_weights, config)
        d, k = config.d, config.k
        dense = config.learn_transition or config.learn_sigmas
        if dense and d > _DIM_GATE:
            raise ConfigError(
                f"D={d} exceeds the D<={_DIM_GATE} limit for a Gaussian model that "
                "learns its parameters (D^3 solves)"
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
        self._record = _FilterRecord()

    @property
    def prototypes(self) -> np.ndarray:
        """Posterior prototype means of the newest step."""
        return self._newest().belief.mean

    def _push(self, t: int, feats: np.ndarray) -> None:
        super()._push(t, feats)
        self._record = _FilterRecord()

    def _sweep(self, last: bool) -> None:
        self.coordinate_sweep(last)

    def _reestimate(self) -> None:
        """Mixing weights of every window step, then the M-step if one is learned."""
        cfg = self.config
        self._record = _FilterRecord()  # the M-step moves A, Q and R
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

    def coordinate_sweep(self, full: bool = True) -> None:
        """Assignments, forward filter, backward smooth over the window.

        A bare call does the whole sweep. With full False the dense path
        smooths the means alone and each step keeps its covariance; `adapt`
        passes that for the sweeps before the last, whose assignments read
        no covariance. The dense filter also reuses its record of the
        previous sweep (see `_FilterRecord`), also between two bare calls,
        so set `transition`, `sigma_trans` or `sigma_ems` by hand only
        before an `adapt`. The scalar path ignores `full`. Raises NotAdaptedError before the
        first `adapt`.
        """
        self._newest()
        for step in self._steps:
            step.resp = gauss_assignments(
                step.feats,
                step.belief,
                step.mixing,
                self.sigma_ems,
            )
        if self._anchor.cov.ndim == 1:
            self._scalar_filter_smooth()
        else:
            self._dense_filter_smooth(full)

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

    def _dense_filter_smooth(self, full: bool = True) -> None:
        """Dense Kalman filter and RTS smoother, all K classes at once.

        The filter writes its predicted and filtered moments into the
        stacks of the model's `_FilterRecord`. The longest prefix of steps
        whose weights equal the record's bit for bit keeps its covariances,
        and only its means move: A m, then m + w P_f R^{-1} (obs - m) with
        R factored once per record. Step 0's prediction is kept whenever
        the record holds weights, because A, Q and the anchor hold still.
        From the first step that differs, each step makes one kf_predict
        (past step 0) and one kf_update_weighted call. With full, one
        kf_smooth call reuses the filter's predictions and keeps the
        (T-1, K, D, D) smoother gains for the M-step. Without it only the smoothed means
        are computed: each step's covariance stays as it was and the kept
        gains stay those of the last full smooth.
        """
        steps = self._steps
        t_len = len(steps)
        record = self._record
        if record.stacks is None:
            k, d = self._anchor.mean.shape
            record.stacks = (np.empty((2, t_len, k, d)), np.empty((2, t_len, k, d, d)))
        (p_means, f_means), (p_covs, f_covs) = record.stacks
        weights = [step.resp.sum(axis=0) for step in steps]
        kept = 0
        if record.weights:
            while kept < t_len and np.array_equal(weights[kept], record.weights[kept]):
                kept += 1
            # empty until the stacks are rewritten: a sweep that raises leaves nothing to reuse
            record.weights = []
        else:
            p_means[0], p_covs[0] = kf_predict(self._anchor.mean, self._anchor.cov,
                                               self.transition, self.sigma_trans)
        if kept and record.ems_factor is None:
            record.ems_factor = _cholesky(self.sigma_ems)
        for i, step in enumerate(steps):
            if i < kept:
                if i:
                    p_means[i] = (self.transition @ f_means[i - 1][..., None])[..., 0]
                _check_weighted("_dense_filter_smooth", step.resp, p_means[i])
                f_means[i] = _update_means(p_means[i], f_covs[i], step.feats, step.resp,
                                           weights[i], record.ems_factor)
                continue
            if i:
                p_means[i], p_covs[i] = kf_predict(f_means[i - 1], f_covs[i - 1],
                                                   self.transition, self.sigma_trans)
            f_means[i], f_covs[i] = kf_update_weighted(
                p_means[i], p_covs[i], step.feats, step.resp, self.sigma_ems
            )
        record.weights = weights
        if full:
            s_means, s_covs, self._last_gains = kf_smooth(
                f_means, f_covs, p_means[1:], p_covs[1:], self.transition
            )
        else:
            s_means = _smooth_means(f_means, f_covs, p_means[1:], p_covs[1:], self.transition)
            s_covs = [step.belief.cov for step in steps]
        for step, s_mean, s_cov in zip(steps, s_means, s_covs):
            step.belief = GaussBelief(s_mean, s_cov)

    def predict(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """softmax(W h) with W the newest posterior prototype means."""
        newest = self._newest()
        logits = self._unit_batch(feats) @ newest.belief.mean.T
        probs = np.exp(logits - log_sum_exp(logits, axis=1)[:, None])
        return probs, probs.argmax(axis=1)
