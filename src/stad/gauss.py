"""Gaussian state-space mixture: K Kalman chains over class prototypes.

Per class k, the prototype follows a random walk, x_t = x_{t-1} + N(0, q I),
and each step's embeddings follow a Gaussian mixture around the current
prototypes, h ~ N(x_k, r I). Both noises are isotropic, so from an
isotropic prior every filtered and smoothed covariance is c I. The model
stores one variance c per class, shape (K,), and filtering, smoothing and
the M-step cost O(K D) per step plus the assignments, at any D. Each kf_*
function handles all K classes in one call; the mixture enters through
responsibility-weighted pseudo-observations.

Each learn flag learns one noise, as in the spherical tracker:
`learn_transition` the transition noise q and `learn_sigmas` the emission
noise r, in closed form from the window's smoothed moments. This is the
isotropic random-walk case of the Shumway-Stoffer EM M-step (Shumway &
Stoffer 1982; the RTS smoother as in Sarkka 2013). Unlearned, q and r stay
the configured scales.

The kf_* functions check shapes and their noise (q a finite real number
>= 0, r one > 0, through `errors.check_real`), and kf_update_weighted the
signs of its weights.
kf_smooth checks the stacked moments of the whole window once per sweep,
so a non-finite value raises DomainError there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# cho_factor is unused here; it stays importable because bench/tracing.py
# counts its calls, which a test pins at zero
from scipy.linalg import cho_factor  # noqa: F401

from .errors import DimensionMismatchError, DomainError, InsufficientHistoryError, check_real
# log_sum_exp and normalize_rows are unused here; they stay importable
# because bench/tracing.py rebinds them
from .mathcore import _float_array, log_sum_exp, normalize_rows  # noqa: F401
from .window import (SlidingWindow, check_batches, check_config, check_source, mixing_update,
                     softmax_rows)

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
_NOISE_FLOOR = 1e-8


@dataclass
class GaussConfig:
    """Knobs for the Gaussian tracker.

    sigma_trans_scale and sigma_ems_scale are the initial q and r of
    Q = q I and R = r I, and init_cov_scale the prior variance of every
    prototype (sigma_trans_scale if None): finite real numbers, r > 0 and
    the others >= 0, not both of q and the prior variance 0. The prototypes
    follow a random walk; learn_transition learns its noise q and
    learn_sigmas the emission noise r, and each `adapt` re-estimates them
    once the window holds two steps.
    The assignments plug in the posterior means with R alone.
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
        check_real("sigma_trans_scale", self.sigma_trans_scale, 0.0)
        check_real("sigma_ems_scale", self.sigma_ems_scale, 0.0, above=True)
        check_real("init_cov_scale", self.initial_cov_scale, 0.0)
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
    """Posterior mean and isotropic covariance per class prototype."""

    mean: np.ndarray  # (K, D)
    cov: np.ndarray   # (K,) variances c of c * I

    def copy(self) -> "GaussBelief":
        """A copy in fresh arrays."""
        return GaussBelief(self.mean.copy(), self.cov.copy())


# bench/tracing.py wraps kf_predict; the sweep looks it up through the module
def kf_predict(mean: np.ndarray, var: np.ndarray,
               sigma_trans: float) -> tuple[np.ndarray, np.ndarray]:
    """One random-walk step ahead for K classes: the mean m_k unchanged and
    the variance c_k + q.

    mean is (K, D), var (K,) and sigma_trans the float q. Raises
    DimensionMismatchError for other shapes, an array q included, and
    DomainError for a q that is not a finite real number >= 0 (a bool or a
    0-d array too); kf_smooth checks the moments.
    """
    mean = _float_array(mean, "mean")
    var = _float_array(var, "variances")
    if mean.ndim != 2 or var.shape != mean.shape[:1] or np.asarray(sigma_trans).ndim:
        raise DimensionMismatchError(
            "kf_predict needs a (K, D) mean, (K,) variances and a float q")
    check_real("the transition variance q", sigma_trans, 0.0)
    return mean, var + sigma_trans


# bench/tracing.py wraps kf_update_weighted and reads resp_col as its 4th
# positional argument; the sweep looks it up through the module
def kf_update_weighted(
    mean: np.ndarray,
    var: np.ndarray,
    feats: np.ndarray,
    resp_col: np.ndarray,
    sigma_ems: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of K classes from a responsibility-weighted batch.

    mean is (K, D), var (K,), feats (N, D), resp_col (N, K) and sigma_ems
    the float r. Each class's weighted batch collapses to one
    pseudo-observation: the weighted mean obs with noise r / w for the
    total weight w. With the gain g = c / (c + r / w) the mean moves to
    m + g (obs - m) and the variance to (1 - g) c. A total weight at or
    below 1e-8 (an empty cluster) keeps that class's prior.

    Raises DimensionMismatchError for inconsistent shapes, an array r
    included, and DomainError for a negative responsibility or an r that
    is not a finite real number > 0 (a bool or a 0-d array too).
    Non-finite values pass through to kf_smooth, which raises.
    """
    mean = _float_array(mean, "mean")
    var = _float_array(var, "variances")
    feats = _float_array(feats, "batch")
    resp = _float_array(resp_col, "responsibilities")
    if (mean.ndim != 2 or var.shape != mean.shape[:1] or feats.ndim != 2
            or feats.shape[1:] != mean.shape[1:]
            or resp.shape != (feats.shape[0], mean.shape[0]) or np.asarray(sigma_ems).ndim):
        raise DimensionMismatchError("inconsistent shapes in kf_update_weighted")
    check_real("the emission variance r", sigma_ems, 0.0, above=True)
    if resp.min(initial=0.0) < 0.0:
        raise DomainError("kf_update_weighted needs nonnegative responsibilities")
    weight = resp.sum(axis=0)
    live = weight > _EMPTY_CLUSTER_EPS
    weight = np.where(live, weight, 1.0)
    obs = (resp.T @ feats) / weight[:, None]
    gain = np.where(live, var / (var + sigma_ems / weight), 0.0)
    return mean + gain[:, None] * (obs - mean), (1.0 - gain) * var


# bench/tracing.py wraps kf_smooth; the sweep looks it up through the module
def kf_smooth(means: np.ndarray, covs: np.ndarray,
              sigma_trans: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward (Rauch-Tung-Striebel) pass over the filtered moments of K
    random-walk chains.

    means is (T, K, D), covs (T, K) and sigma_trans the float q. Under the
    random walk the prediction from step i is the filtered mean m_i with
    variance c_i + q. Returns the smoothed means and variances and the
    smoother gains J_i = c_i / (c_i + q), one (T-1, K) array, which the
    M-step reads. A single step returns the filtered moments unchanged.

    This is the one value check of a sweep: every mean must be finite and
    every variance finite and > 0, else DomainError; q must be a finite
    real number >= 0 (not a bool or a 0-d array), else DomainError, and
    not an array of more dimensions, else DimensionMismatchError.
    """
    means = _float_array(means, "means")
    covs = _float_array(covs, "variances")
    if means.ndim != 3 or covs.shape != means.shape[:2] or np.asarray(sigma_trans).ndim:
        raise DimensionMismatchError("inconsistent shapes in kf_smooth")
    check_real("the transition variance q", sigma_trans, 0.0)
    # a NaN variance fails both comparisons
    if not (np.isfinite(means).all() and 0.0 < covs.min(initial=np.inf)
            and covs.max(initial=0.0) < np.inf):
        raise DomainError("kf_smooth: means must be finite and variances finite and > 0")
    sm, sc = means.copy(), covs.copy()
    pred_covs = covs[:-1] + sigma_trans
    gains = covs[:-1] / pred_covs
    for i in range(means.shape[0] - 2, -1, -1):
        gain = gains[i]
        sm[i] += gain[:, None] * (sm[i + 1] - means[i])
        sc[i] += gain * (sc[i + 1] - pred_covs[i]) * gain
    return sm, sc, gains


def _sq_dist(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(N, K) squared distances between the columns of x (D, N) and m (D, K)."""
    return np.einsum("dn,dn->n", x, x)[:, None] - 2.0 * (x.T @ m) + np.einsum("dk,dk->k", m, m)


# bench/tracing.py wraps gauss_assignments; the sweep looks it up through the module
def gauss_assignments(
    feats: np.ndarray,
    belief: GaussBelief,
    mixing: np.ndarray,
    sigma_ems: float,
) -> np.ndarray:
    """Responsibilities under the Gaussian mixture emission.

    Plugs in the posterior means m_k with the emission covariance r I
    alone, so nothing is factored. Of the log density only the terms that
    differ between classes are formed, log pi_k + (h . m_k - ||m_k||^2 / 2) / r:
    ||h||^2 / (2 r) and the log normalizer are the same for every class,
    and the row normalization, `window.softmax_rows`, cancels them. The
    mean must be (K, D), the belief covariance (K,), the batch (N, D),
    mixing (K,) and sigma_ems the float r; anything else raises
    DimensionMismatchError, and an r that is not a finite real number > 0
    (a bool or a 0-d array too) raises DomainError. So does a row whose
    logits have no finite max: mixing weights that are negative, NaN or
    all 0, a non-finite batch or mean, or logits beyond the float range. A
    batch of no row raises EmptyInputError.
    """
    feats = _float_array(feats, "batch")
    mixing = _float_array(mixing, "mixing weights")
    mean = _float_array(belief.mean, "mean")
    if mean.ndim != 2 or feats.ndim != 2 or feats.shape[1] != mean.shape[1]:
        raise DimensionMismatchError(f"batch {feats.shape} vs prototypes {mean.shape}")
    k = mean.shape[0]
    if mixing.shape != (k,) or np.asarray(belief.cov).shape != (k,) or np.asarray(sigma_ems).ndim:
        raise DimensionMismatchError(
            f"gauss_assignments needs ({k},) mixing, ({k},) covariances and a float r")
    check_real("the emission variance r", sigma_ems, 0.0, above=True)
    # a bad mixing weight or an overflow leaves its row without a finite
    # max, which softmax_rows checks
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logits = (np.log(mixing)
                  + (feats @ mean.T - 0.5 * np.einsum("kd,kd->k", mean, mean)) / sigma_ems)
    return softmax_rows(logits)


# bench/tracing.py wraps gauss_m_step; `_reestimate` looks it up through the module
def gauss_m_step(
    smoothed: list[GaussBelief],
    gains: np.ndarray,
    resps: list[np.ndarray],
    feats: list[np.ndarray],
    learn_transition: bool,
    learn_sigmas: bool,
) -> tuple[float | None, float | None]:
    """Closed-form re-estimates of q and r over the window.

    The isotropic random-walk case of the Shumway-Stoffer M-step. From each
    class's smoothed moments m_t, c_t and the smoother gains J_t of
    kf_smooth, (T-1, K), q is the mean over classes, transitions and
    dimensions of E||x_t - x_{t-1}||^2 = ||m_t - m_{t-1}||^2
    + D (c_t (1 - 2 J_{t-1}) + c_{t-1}). r is the mean over samples and
    dimensions of sum_k w_nk (||h_n - m_k||^2 + D c_k). Both are floored
    at 1e-8.

    Returns (q or None, r or None), learning q with learn_transition and r
    with learn_sigmas; with both flags off, (None, None) before any check.
    With a flag on, fewer than 2 steps raise InsufficientHistoryError.
    Every belief needs a (K, D) mean and a (K,) covariance of one K and D
    and gains must be (T-1, K); with learn_sigmas feats and resps need T
    entries, (N_t, D) and (N_t, K). Anything else raises
    DimensionMismatchError. Means, covariances or (with learn_transition)
    gains that do not convert to float arrays raise DomainError, as does a
    non-finite estimate; learning r from batches that are all empty raises
    EmptyBatchError.
    """
    if not (learn_transition or learn_sigmas):
        return None, None
    t_len = len(smoothed)
    if t_len < 2:
        raise InsufficientHistoryError("parameter learning needs >= 2 window steps")
    shape = np.shape(smoothed[0].mean)
    if len(shape) != 2 or any(np.shape(b.mean) != shape or np.shape(b.cov) != shape[:1]
                              for b in smoothed):
        raise DimensionMismatchError(
            "gauss_m_step needs (K, D) means and (K,) covariances of one K and D")
    k, d = shape
    if len(gains) != t_len - 1 or any(np.shape(g) != (k,) for g in gains):
        raise DimensionMismatchError(f"gauss_m_step needs {t_len - 1} gains, each ({k},)")
    if learn_sigmas:
        feats, resps, n_total = check_batches(feats, resps, t_len, k, d, "gauss_m_step")

    means = _float_array([b.mean for b in smoothed], "means")        # (T, K, D)
    covs = _float_array([b.cov for b in smoothed], "covariances")    # (T, K)
    new_q = new_r = None
    if learn_transition:
        gain = _float_array(gains, "gains")                          # (T-1, K)
        step = means[1:] - means[:-1]
        q_sum = (np.einsum("tkd,tkd->", step, step)
                 + d * (covs[1:] * (1.0 - 2.0 * gain) + covs[:-1]).sum())
        new_q = _noise_estimate(q_sum / ((t_len - 1) * k * d))
    if learn_sigmas:
        r_sum = sum(np.sum(w * (_sq_dist(h.T, m.T) + d * c))
                    for m, c, h, w in zip(means, covs, feats, resps))
        new_r = _noise_estimate(r_sum / (n_total * d))
    return new_q, new_r


def _noise_estimate(value: float) -> float:
    """A learned noise variance floored at 1e-8; DomainError if not finite."""
    if not np.isfinite(value):
        raise DomainError("gauss_m_step: the window's moments and batches must be finite")
    return max(float(value), _NOISE_FLOOR)


class GaussModel(SlidingWindow):
    """Sliding-window Gaussian tracker with a softmax head on posterior means.

    `predict` is the window engine's; this tracker's `_head` is
    softmax(W h) over the batch's unit rows h, with W the newest step's
    posterior means. Single-writer, like the spherical tracker.
    `sigma_trans` and `sigma_ems` are the floats q and r of the random walk
    and the emission, and every belief covariance is c I, stored as (K,)
    variances. A sweep computes the assignments of every window step, then
    makes one kf_predict and one kf_update_weighted call per window step
    for all K classes and one kf_smooth call over the window, whose
    (T-1, K) gains the M-step reads. Each sweep reads `sigma_trans` and `sigma_ems` afresh,
    so values set by hand take effect at the next sweep.
    """

    def __init__(self, source_weights: np.ndarray, config: GaussConfig):
        source_weights = check_source(source_weights, config)
        self.sigma_trans = float(config.sigma_trans_scale)
        self.sigma_ems = float(config.sigma_ems_scale)
        super().__init__(
            config,
            GaussBelief(source_weights.copy(), np.full(config.k, config.initial_cov_scale)),
        )
        self._last_gains: np.ndarray | None = None

    @property
    def prototypes(self) -> np.ndarray:
        """Posterior prototype means of the newest step; a snapshot, so that
        writing into it changes no belief."""
        return self._newest().belief.mean.copy()

    def _sweep(self) -> None:
        self.coordinate_sweep()

    def _reestimate(self) -> None:
        """Mixing weights of every window step, then the M-step, which
        learns what the config's flags name once the window holds two steps."""
        cfg = self.config
        for s in self._steps:
            s.mixing = mixing_update(s.resp, cfg.pi_floor)
        if len(self._steps) >= 2:
            new_q, new_r = gauss_m_step(
                [s.belief for s in self._steps],
                self._last_gains,
                [s.resp for s in self._steps],
                [s.feats for s in self._steps],
                cfg.learn_transition,
                cfg.learn_sigmas,
            )
            if new_q is not None:
                self.sigma_trans = new_q
            if new_r is not None:
                self.sigma_ems = new_r

    def coordinate_sweep(self) -> None:
        """Assignments, forward filter and backward smoother over the window.

        Each step's assignments are formed afresh from its batch and
        belief, and the step's `products` field stays unused: every sweep
        moves every belief. Raises NotAdaptedError before the first `adapt`.
        """
        self._newest()
        for step in self._steps:
            step.resp = gauss_assignments(step.feats, step.belief, step.mixing, self.sigma_ems)
        self._filter_smooth()

    def _filter_smooth(self) -> None:
        """Filter the window forward from the anchor and smooth it back,
        with the responsibilities held fixed."""
        q, r = self.sigma_trans, self.sigma_ems
        mean, var = self._anchor.mean, self._anchor.cov
        f_means, f_vars = [], []
        for step in self._steps:
            mean, var = kf_predict(mean, var, q)
            mean, var = kf_update_weighted(mean, var, step.feats, step.resp, r)
            f_means.append(mean)
            f_vars.append(var)
        s_means, s_vars, self._last_gains = kf_smooth(f_means, f_vars, q)
        for step, s_mean, s_var in zip(self._steps, s_means, s_vars):
            step.belief = GaussBelief(s_mean, s_var)

    def _head(self, step, unit: np.ndarray) -> np.ndarray:
        """softmax(W h) of the unit rows h, with W the step's posterior
        prototype means, through `window.softmax_rows`."""
        return softmax_rows(unit @ step.belief.mean.T)
