"""Gaussian state-space mixture: K Kalman chains over class prototypes.

Per class k, the prototype drifts as x_t = a_k x_{t-1} + N(0, q I), and
each step's embeddings follow a Gaussian mixture around the current
prototypes, h ~ N(x_k, r I). The transition is one scalar a_k per class
and both noises are isotropic, so from an isotropic prior every filtered
and smoothed covariance is c I. The model stores one variance c per class,
shape (K,), and filtering, smoothing and the M-step cost O(K D) per step
plus the assignments, at any D. Each kf_* function handles all K classes
in one call; the mixture enters through responsibility-weighted
pseudo-observations.

`learn_transition` learns the a_k and `learn_sigmas` learns q and r, in
closed form from the window's smoothed moments: the isotropic case of the
Shumway-Stoffer EM M-step (Shumway & Stoffer 1982; the RTS smoother as in
Sarkka 2013). Unlearned, a_k = 1 (a random walk), and q and r stay the
configured scales.

kf_predict and kf_update_weighted check shapes (and the update the signs
of its weights and r). kf_smooth checks the stacked moments of the whole
window once per sweep, so a non-finite value raises DomainError there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# cho_factor is unused here; it stays importable because bench/tracing.py
# counts its calls, which a test pins at zero
from scipy.linalg import cho_factor  # noqa: F401

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyBatchError,
    InsufficientHistoryError,
)
# normalize_rows is unused here; it stays importable because bench/tracing.py rebinds it
from .mathcore import log_sum_exp, normalize_rows  # noqa: F401
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
_NOISE_FLOOR = 1e-8


@dataclass
class GaussConfig:
    """Knobs for the Gaussian tracker.

    sigma_trans_scale and sigma_ems_scale are the initial q and r of
    Q = q I and R = r I, and init_cov_scale the prior variance of every
    prototype (sigma_trans_scale if None). learn_transition learns the
    per-class transitions a_k, which start at 1, and learn_sigmas learns q
    and r; each `adapt` re-estimates them once the window holds two steps.
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
    """Posterior mean and isotropic covariance per class prototype."""

    mean: np.ndarray  # (K, D)
    cov: np.ndarray   # (K,) variances c of c * I

    def copy(self, into: "GaussBelief | None" = None) -> "GaussBelief":
        """A copy in fresh arrays, whatever `into` is.

        Every sweep replaces each step's belief with views into the
        smoother's stacked arrays, so storage taken from a retired belief
        would serve only the first assignments and would keep a whole old
        stack alive.
        """
        return GaussBelief(self.mean.copy(), self.cov.copy())


# bench/tracing.py wraps kf_predict; the sweep looks it up through the module
def kf_predict(mean: np.ndarray, var: np.ndarray, transition: np.ndarray,
               sigma_trans: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead prior of K classes: a_k m_k and a_k^2 c_k + q.

    mean is (K, D), var and transition (K,), and sigma_trans the float q.
    Checks shapes only; kf_smooth checks the values.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    transition = np.asarray(transition, dtype=float)
    if (mean.ndim != 2 or var.shape != mean.shape[:1] or transition.shape != var.shape
            or np.asarray(sigma_trans).ndim):
        raise DimensionMismatchError(
            "kf_predict needs a (K, D) mean, (K,) variances and transitions and a float q")
    return transition[:, None] * mean, transition * transition * var + sigma_trans


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

    Raises DimensionMismatchError for inconsistent shapes and DomainError
    for a negative responsibility or an r that is not finite and > 0.
    Non-finite values pass through to kf_smooth, which raises.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    feats = np.asarray(feats, dtype=float)
    resp = np.asarray(resp_col, dtype=float)
    if (mean.ndim != 2 or var.shape != mean.shape[:1] or feats.ndim != 2
            or feats.shape[1:] != mean.shape[1:]
            or resp.shape != (feats.shape[0], mean.shape[0]) or np.asarray(sigma_ems).ndim):
        raise DimensionMismatchError("inconsistent shapes in kf_update_weighted")
    if not 0.0 < sigma_ems < np.inf or resp.min(initial=0.0) < 0.0:
        raise DomainError("kf_update_weighted needs nonnegative responsibilities and "
                          f"a finite r > 0, got r = {sigma_ems}")
    weight = resp.sum(axis=0)
    live = weight > _EMPTY_CLUSTER_EPS
    weight = np.where(live, weight, 1.0)
    obs = (resp.T @ feats) / weight[:, None]
    gain = np.where(live, var / (var + sigma_ems / weight), 0.0)
    return mean + gain[:, None] * (obs - mean), (1.0 - gain) * var


# bench/tracing.py wraps kf_smooth; the sweep looks it up through the module
def kf_smooth(
    means: np.ndarray,
    covs: np.ndarray,
    pred_means: np.ndarray,
    pred_covs: np.ndarray,
    transition: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward (Rauch-Tung-Striebel) pass over the filtered moments of K
    chains.

    means is (T, K, D) and covs (T, K); pred_means (T-1, K, D) and
    pred_covs (T-1, K) are the filter's predictions for steps 1..T-1,
    a m_i and a^2 c_i + q from step i; transition is (K,). Returns the
    smoothed means and variances and the smoother gains
    J_i = c_i a / (a^2 c_i + q), one (T-1, K) array, which the M-step
    reads. A single step returns the filtered moments unchanged.

    This is the one value check of a sweep: every mean must be finite and
    every variance finite and > 0, else DomainError.
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    pred_means = np.asarray(pred_means, dtype=float)
    pred_covs = np.asarray(pred_covs, dtype=float)
    transition = np.asarray(transition, dtype=float)
    if (means.ndim != 3 or covs.shape != means.shape[:2]
            or pred_means.shape != (means.shape[0] - 1,) + means.shape[1:]
            or pred_covs.shape != (means.shape[0] - 1,) + covs.shape[1:]
            or transition.shape != covs.shape[1:]):
        raise DimensionMismatchError("inconsistent shapes in kf_smooth")
    if not (np.isfinite(means).all() and np.isfinite(pred_means).all()
            and np.isfinite(transition).all() and _positive(covs, pred_covs)):
        raise DomainError("kf_smooth: means must be finite and variances finite and > 0")
    sm, sc = means.copy(), covs.copy()
    gains = covs[:-1] * transition / pred_covs
    for i in range(means.shape[0] - 2, -1, -1):
        gain = gains[i]
        sm[i] += gain[:, None] * (sm[i + 1] - pred_means[i])
        sc[i] += gain * (sc[i + 1] - pred_covs[i]) * gain
    return sm, sc, gains


def _positive(*variances: np.ndarray) -> bool:
    """Whether every entry of every array is finite and > 0 (NaN fails)."""
    return all(0.0 < v.min(initial=np.inf) and v.max(initial=0.0) < np.inf for v in variances)


def _sq_dist(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(N, K) squared distances between the columns of x (D, N) and m (D, K)."""
    return (np.einsum("dn,dn->n", x, x)[:, None] - 2.0 * (x.T @ m)
            + np.einsum("dk,dk->k", m, m))


# bench/tracing.py wraps gauss_assignments; the sweep looks it up through the module
def gauss_assignments(
    feats: np.ndarray,
    belief: GaussBelief,
    mixing: np.ndarray,
    sigma_ems: float,
) -> np.ndarray:
    """Responsibilities under the Gaussian mixture emission.

    Plugs in the posterior means with the emission covariance r I alone,
    so the quadratic forms are squared distances over r and nothing is
    factored. The mean must be (K, D), the belief covariance (K,), the
    batch (N, D), mixing (K,) and sigma_ems the float r; anything else
    raises DimensionMismatchError, and an r that is not finite and > 0
    raises DomainError.
    """
    feats = np.asarray(feats, dtype=float)
    mixing = np.asarray(mixing, dtype=float)
    mean = np.asarray(belief.mean, dtype=float)
    if mean.ndim != 2 or feats.ndim != 2 or feats.shape[1] != mean.shape[1]:
        raise DimensionMismatchError(f"batch {feats.shape} vs prototypes {mean.shape}")
    k, d = mean.shape
    if mixing.shape != (k,) or np.asarray(belief.cov).shape != (k,) or np.asarray(sigma_ems).ndim:
        raise DimensionMismatchError(
            f"gauss_assignments needs ({k},) mixing, ({k},) covariances and a float r")
    if not 0.0 < sigma_ems < np.inf:
        raise DomainError(f"the emission variance r must be finite and > 0, got {sigma_ems}")
    with np.errstate(divide="ignore"):
        log_pi = np.log(mixing)
    quad = _sq_dist(feats.T, mean.T) / sigma_ems
    logits = log_pi - 0.5 * (quad + d * np.log(sigma_ems) + d * np.log(2.0 * np.pi))
    return np.exp(logits - log_sum_exp(logits, axis=1)[:, None])


# bench/tracing.py wraps gauss_m_step; `_reestimate` looks it up through the module
def gauss_m_step(
    smoothed: list[GaussBelief],
    gains: np.ndarray,
    resps: list[np.ndarray],
    feats: list[np.ndarray],
    transition: np.ndarray,
    learn_transition: bool,
    learn_sigmas: bool,
) -> tuple[np.ndarray | None, float | None, float | None]:
    """Closed-form re-estimates of the a_k, q and r over the window.

    The isotropic case of the Shumway-Stoffer M-step. From each class's
    smoothed moments m_t, c_t and the smoother gains J_t of kf_smooth,
    (T-1, K), the traces of the second moments summed over the T-1
    transitions are S_prev = sum_t ||m_{t-1}||^2 + D c_{t-1} and
    S_lag = sum_t m_t . m_{t-1} + D c_t J_{t-1}, and a_k = S_lag / S_prev.
    q is the mean over classes, transitions and dimensions of
    E||x_t - a_k x_{t-1}||^2 = ||m_t - a_k m_{t-1}||^2
    + D (c_t - 2 a_k c_t J_{t-1} + a_k^2 c_{t-1}), with the new a_k when
    it is learned; that equals sum_k (S_cur - 2 a_k S_lag + a_k^2 S_prev)
    / ((T-1) K D). r is the mean over samples and dimensions of
    sum_k w_nk (||h_n - m_k||^2 + D c_k). q and r are floored at 1e-8.

    Returns (a as a (K,) array or None, q or None, r or None); with both
    flags off, (None, None, None) before any check. With a flag on, fewer
    than 2 steps raise InsufficientHistoryError. Every belief needs a
    (K, D) mean and a (K,) covariance of one K and D, gains must be
    (T-1, K) and transition (K,), and with learn_sigmas feats and resps
    need T entries, (N_t, D) and (N_t, K); anything else raises
    DimensionMismatchError. Learning r from batches that are all empty
    raises EmptyBatchError, and a non-finite estimate DomainError.
    """
    if not (learn_transition or learn_sigmas):
        return None, None, None
    t_len = len(smoothed)
    if t_len < 2:
        raise InsufficientHistoryError("parameter learning needs >= 2 window steps")
    shape = np.shape(smoothed[0].mean)
    if len(shape) != 2 or any(np.shape(b.mean) != shape or np.shape(b.cov) != shape[:1]
                              for b in smoothed):
        raise DimensionMismatchError(
            "gauss_m_step needs (K, D) means and (K,) covariances of one K and D")
    k, d = shape
    if (len(gains) != t_len - 1 or any(np.shape(g) != (k,) for g in gains)
            or np.shape(transition) != (k,)):
        raise DimensionMismatchError(
            f"gauss_m_step needs {t_len - 1} gains and a transition, each ({k},)")
    if learn_sigmas and (
            len(feats) != t_len or len(resps) != t_len
            or any(np.ndim(h) != 2 or np.shape(h)[1] != d or np.shape(w) != (len(h), k)
                   for h, w in zip(feats, resps))):
        raise DimensionMismatchError(
            f"gauss_m_step needs {t_len} batches (N_t, {d}) and responsibilities (N_t, {k})")
    n_total = sum(len(h) for h in feats)
    if learn_sigmas and not n_total:
        raise EmptyBatchError("gauss_m_step needs at least one sample to learn r")

    means = np.stack([b.mean for b in smoothed])   # (T, K, D)
    covs = np.stack([b.cov for b in smoothed])     # (T, K)
    gain = np.asarray(gains, dtype=float)          # (T-1, K)
    prev, cur = means[:-1], means[1:]
    new_a = None
    a = np.asarray(transition, dtype=float)
    if learn_transition:
        s_prev = np.einsum("tkd,tkd->k", prev, prev) + d * covs[:-1].sum(axis=0)
        s_lag = np.einsum("tkd,tkd->k", cur, prev) + d * (covs[1:] * gain).sum(axis=0)
        new_a = a = s_lag / s_prev
    estimates = [a]
    new_q = new_r = None
    if learn_sigmas:
        resid = cur - a[:, None] * prev
        q_sum = (np.einsum("tkd,tkd->", resid, resid)
                 + d * (covs[1:] * (1.0 - 2.0 * a * gain) + a * a * covs[:-1]).sum())
        r_sum = sum(np.sum(w * (_sq_dist(h.T, b.mean.T) + d * b.cov))
                    for b, h, w in zip(smoothed, feats, resps))
        new_q, new_r = q_sum / ((t_len - 1) * k * d), r_sum / (n_total * d)
        estimates += [new_q, new_r]
    if not all(np.isfinite(x).all() for x in estimates):
        raise DomainError("gauss_m_step: the window's moments and batches must be finite")
    if learn_sigmas:
        new_q, new_r = max(float(new_q), _NOISE_FLOOR), max(float(new_r), _NOISE_FLOOR)
    return new_a, new_q, new_r


class GaussModel(SlidingWindow):
    """Sliding-window Gaussian tracker with a softmax head on posterior means.

    Single-writer, like the spherical tracker. `transition` holds the K
    scalar transitions a_k (ones until learned), `sigma_trans` and
    `sigma_ems` are the floats q and r, and every belief covariance is
    c I, stored as (K,) variances. A sweep computes the assignments of
    every window step, then makes one kf_predict and one
    kf_update_weighted call per window step for all K classes and one
    kf_smooth call over the window, whose (T-1, K) gains the M-step reads.
    Each sweep reads `transition`, `sigma_trans` and `sigma_ems` afresh, so
    values set by hand take effect at the next sweep.
    """

    def __init__(self, source_weights: np.ndarray, config: GaussConfig):
        source_weights = check_source(source_weights, config)
        self.transition = np.ones(config.k)
        self.sigma_trans = float(config.sigma_trans_scale)
        self.sigma_ems = float(config.sigma_ems_scale)
        super().__init__(
            config,
            GaussBelief(source_weights.copy(), np.full(config.k, config.initial_cov_scale)),
            window=config.window,
        )
        self._last_gains: np.ndarray | None = None

    @property
    def prototypes(self) -> np.ndarray:
        """Posterior prototype means of the newest step."""
        return self._newest().belief.mean

    def _sweep(self) -> None:
        self.coordinate_sweep()

    def _reestimate(self) -> None:
        """Mixing weights of every window step, then the M-step, which
        learns what the config's flags name once the window holds two steps."""
        cfg = self.config
        for s in self._steps:
            s.mixing = mixing_update(s.resp, cfg.pi_floor)
        if len(self._steps) >= 2:
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
                self.sigma_trans, self.sigma_ems = new_q, new_r

    def coordinate_sweep(self) -> None:
        """Assignments, forward filter and backward smoother over the window.

        Raises NotAdaptedError before the first `adapt`.
        """
        self._newest()
        for step in self._steps:
            step.resp = gauss_assignments(step.feats, step.belief, step.mixing, self.sigma_ems)
        self._filter_smooth()

    def _filter_smooth(self) -> None:
        """Filter the window forward from the anchor and smooth it back,
        with the responsibilities held fixed."""
        a, q, r = self.transition, self.sigma_trans, self.sigma_ems
        mean, var = self._anchor.mean, self._anchor.cov
        p_means, p_vars, f_means, f_vars = [], [], [], []
        for step in self._steps:
            mean, var = kf_predict(mean, var, a, q)
            p_means.append(mean)
            p_vars.append(var)
            mean, var = kf_update_weighted(mean, var, step.feats, step.resp, r)
            f_means.append(mean)
            f_vars.append(var)
        # stacked before slicing, so that a one-step window passes (0, K, D) and (0, K)
        s_means, s_vars, self._last_gains = kf_smooth(
            f_means, f_vars, np.asarray(p_means)[1:], np.asarray(p_vars)[1:], a)
        for step, s_mean, s_var in zip(self._steps, s_means, s_vars):
            step.belief = GaussBelief(s_mean, s_var)

    def predict(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """softmax(W h) with W the newest posterior prototype means."""
        newest = self._newest()
        logits = self._unit_batch(feats) @ newest.belief.mean.T
        probs = np.exp(logits - log_sum_exp(logits, axis=1)[:, None])
        return probs, probs.argmax(axis=1)
