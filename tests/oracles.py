"""Independent reference implementations used as test oracles.

Nothing in here imports from the package's numerics: Bessel values come
from an arbitrary-precision power series (mpmath), mixture EM and Kalman
recursions are written directly from the textbook definitions with plain
dense linear algebra. These stay deliberately naive so they remain an
independent route to the same answers.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import ive

mp.mp.dps = 50


def series_log_bessel_i(order: float, arg: float, terms: int = 200) -> float:
    """Arbitrary-precision ascending power series for log I_v(x)."""
    v = mp.mpf(order)
    x = mp.mpf(arg)
    if x == 0:
        return 0.0 if v == 0 else float("-inf")
    y = x * x / 4
    t = mp.mpf(1)
    s = mp.mpf(1)
    for m in range(1, terms + 1):
        t *= y / (m * (v + m))
        s += t
    return float(mp.log(s) + v * mp.log(x / 2) - mp.loggamma(v + 1))


def mp_log_bessel_i(order: float, arg: float) -> float:
    """mpmath's own modified Bessel, for arguments beyond series reach.

    Below 1 the precision grows with the argument's decades, so that an
    I_0(x) = 1 + x^2/4 + ... keeps its x^2/4 under the log."""
    if arg == 0:
        return 0.0 if order == 0 else float("-inf")
    with mp.workdps(mp.mp.dps + 2 * max(0, -math.floor(math.log10(arg)))):
        return float(mp.log(mp.besseli(mp.mpf(order), mp.mpf(arg))))


def mp_log_bessel_i_uniform(order: float, arg: float) -> float:
    """log I_v(x) from the uniform large-order expansion (A&S 9.7.7) with
    u_1 and u_2 of A&S 9.3.9, at 50 digits.

    For large orders at arguments far above them (orders of 14 and up past
    1e9, say) the left-out terms are far below double precision, and both
    the series and mpmath's own `besseli` fail to converge there."""
    v, x = mp.mpf(order), mp.mpf(arg)
    root = mp.sqrt(1 + (x / v) ** 2)
    t = 1 / root
    eta = root + mp.log((x / v) / (1 + root))
    u1 = (3 * t - 5 * t**3) / 24
    u2 = (81 * t**2 - 462 * t**4 + 385 * t**6) / 1152
    return float(v * eta - mp.log(2 * mp.pi * v) / 2 - mp.log(root) / 2
                 + mp.log(1 + u1 / v + u2 / v**2))


def mp_log_vmf_norm_const_uniform(d: int, kappa: float) -> float:
    """log C_D(kappa) at 50 digits, with log I from the uniform expansion
    as in `mp_log_bessel_i_uniform`, and through lgamma(D/2) at kappa = 0.
    At orders of 1e6 and up the terms left out are below double precision,
    and mpmath's own `besseli` is slow to converge there."""
    v, k = mp.mpf(d) / 2 - 1, mp.mpf(kappa)
    if k == 0:
        value = mp.loggamma(v + 1) - mp.log(2) - (v + 1) * mp.log(mp.pi)
    else:
        root = mp.sqrt(1 + (k / v) ** 2)
        t = 1 / root
        log_i = (v * (root + mp.log((k / v) / (1 + root))) - mp.log(2 * mp.pi * v) / 2
                 - mp.log(root) / 2 + mp.log(1 + (3 * t - 5 * t**3) / 24 / v))
        value = v * mp.log(k) - (v + 1) * mp.log(2 * mp.pi) - log_i
    return float(value)


def mp_log_vmf_norm_const(d: int, kappa: float) -> float:
    """log C_D(kappa) = (D/2 - 1) log kappa - (D/2) log(2 pi) - log I_{D/2-1}(kappa)."""
    v, k = mp.mpf(d) / 2 - 1, mp.mpf(kappa)
    return float(v * mp.log(k) - (v + 1) * mp.log(2 * mp.pi) - mp.log(mp.besseli(v, k)))


def mp_bessel_ratio(d: int, kappa: float) -> float:
    if kappa == 0:
        return 0.0
    k = mp.mpf(kappa)
    return float(mp.besseli(mp.mpf(d) / 2, k) / mp.besseli(mp.mpf(d) / 2 - 1, k))


def scipy_bessel_ratio(d: int, kappa) -> np.ndarray:
    """Scaled-Bessel route to A_D; valid where ive does not underflow."""
    kappa = np.asarray(kappa, dtype=float)
    return ive(d / 2.0, kappa) / ive(d / 2.0 - 1.0, kappa)


def variational_vmf_mixture_em(
    feats: np.ndarray,
    init_dirs: np.ndarray,
    kappa_ems: float,
    kappa0: float,
    sweeps: int,
):
    """Mean-field vMF mixture EM on a single batch, written from scratch.

    Beliefs over each component mean are vMF with direction rho and
    concentration gamma; responsibilities use the expected direction
    A_D(gamma) * rho. The initial-prior pseudo-message kappa0 * mu0 is the
    only non-data term. Mixing weights stay uniform.
    """
    n, d = feats.shape
    k = init_dirs.shape[0]
    rho = init_dirs.copy()
    gamma = np.full(k, kappa0, dtype=float)
    resp = np.full((n, k), 1.0 / k)
    for _ in range(sweeps):
        a = scipy_bessel_ratio(d, gamma)
        expected = a[:, None] * rho
        logits = kappa_ems * (feats @ expected.T)
        logits -= logits.max(axis=1, keepdims=True)
        resp = np.exp(logits)
        resp /= resp.sum(axis=1, keepdims=True)
        numer = kappa0 * init_dirs + kappa_ems * (resp.T @ feats)
        gamma = np.linalg.norm(numer, axis=1)
        rho = numer / gamma[:, None]
    return rho, gamma, resp


def dense_kalman_filter(
    means0: np.ndarray,
    cov0: np.ndarray,
    transition: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    observations: list,
):
    """Textbook Kalman filter with explicit inverses, one latent chain.

    Each element of `observations` is either None (no update) or a tuple
    (obs_mean, obs_count) giving an averaged observation with noise r /
    obs_count. Returns filtered means/covs per step.
    """
    d = means0.shape[0]
    m, p = means0.copy(), cov0.copy()
    means, covs = [], []
    for entry in observations:
        m = transition @ m
        p = transition @ p @ transition.T + q
        if entry is not None:
            obs, count = entry
            r_eff = r / count
            gain = p @ np.linalg.inv(p + r_eff)
            m = m + gain @ (obs - m)
            p = (np.eye(d) - gain) @ p
        means.append(m.copy())
        covs.append(p.copy())
    return means, covs


def dense_rts_smoother(means, covs, transition, q):
    """Rauch-Tung-Striebel backward pass with explicit inverses."""
    t = len(means)
    sm = [None] * t
    sc = [None] * t
    gains = [None] * max(t - 1, 0)
    sm[-1], sc[-1] = means[-1].copy(), covs[-1].copy()
    for i in range(t - 2, -1, -1):
        p_pred = transition @ covs[i] @ transition.T + q
        j = covs[i] @ transition.T @ np.linalg.inv(p_pred)
        sm[i] = means[i] + j @ (sm[i + 1] - transition @ means[i])
        sc[i] = covs[i] + j @ (sc[i + 1] - p_pred) @ j.T
        gains[i] = j
    return sm, sc, gains


def map_pooled_gaussian_mixture_em(
    step_feats: list,
    schedule: list,
    init_means: np.ndarray,
    prior_means: np.ndarray,
    prior_cov: np.ndarray,
    sigma_ems: np.ndarray,
):
    """MAP EM for a Gaussian mixture with tied (time-constant) means.

    Component means carry a Gaussian prior N(prior_means, prior_cov) and
    are shared across the step-partitioned data; mixing weights are per
    step. The M step for the means is the posterior mean given all
    responsibility-weighted data. `schedule` lists, per EM iteration,
    which step indices are visible (so an incremental-arrival history can
    be replayed exactly). Its means do not move in time, as in a chain
    of zero transition noise over a pooled window.
    """
    k, d = init_means.shape
    means = init_means.copy()
    mixings = [np.full(k, 1.0 / k) for _ in step_feats]
    prior_prec = np.linalg.inv(prior_cov)
    ems_prec = np.linalg.inv(sigma_ems)
    resps = [None] * len(step_feats)
    for avail in schedule:
        for s in avail:
            feats = step_feats[s]
            logits = np.empty((feats.shape[0], k))
            for j in range(k):
                diff = feats - means[j]
                logits[:, j] = np.log(mixings[s][j]) - 0.5 * np.einsum(
                    "ni,ij,nj->n", diff, ems_prec, diff
                )
            logits -= logits.max(axis=1, keepdims=True)
            resps[s] = np.exp(logits)
            resps[s] /= resps[s].sum(axis=1, keepdims=True)
        for j in range(k):
            wsum = sum(resps[s][:, j].sum() for s in avail)
            wdata = sum(resps[s][:, j] @ step_feats[s] for s in avail)
            post_prec = prior_prec + wsum * ems_prec
            rhs = prior_prec @ prior_means[j] + ems_prec @ wdata
            means[j] = np.linalg.solve(post_prec, rhs)
        for s in avail:
            mixings[s] = resps[s].mean(axis=0)
    return means, resps


def exact_chain_posterior(
    anchor_mean: np.ndarray,
    anchor_cov: np.ndarray,
    transition: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    observations: list,
):
    """Exact Gaussian posterior of one linear chain, from its joint precision.

    The states are x_0 (the anchor) and x_1..x_T, one per window step:
    x_0 ~ N(anchor_mean, anchor_cov), x_t = A x_{t-1} + N(0, q), and each
    entry of `observations` is None (no data) or (obs, w), a pseudo-
    observation obs = x_t + N(0, r / w). The (T+1) D x (T+1) D precision
    and its information vector are summed term by term and solved
    directly. Returns the posterior means (T, D) and marginal covariances
    (T, D, D) of x_1..x_T.
    """
    d = anchor_mean.shape[0]
    t_len = len(observations)
    blocks = [slice(i * d, (i + 1) * d) for i in range(t_len + 1)]
    prec = np.zeros(((t_len + 1) * d,) * 2)
    info = np.zeros((t_len + 1) * d)
    p0_inv = np.linalg.inv(anchor_cov)
    prec[blocks[0], blocks[0]] += p0_inv
    info[blocks[0]] += p0_inv @ anchor_mean
    q_inv, r_inv = np.linalg.inv(q), np.linalg.inv(r)
    # x_t - A x_{t-1}: its quadratic form in (x_{t-1}, x_t) is [-A I]^T q^-1 [-A I]
    link = np.concatenate([-transition, np.eye(d)], axis=1)
    for t in range(1, t_len + 1):
        pair = slice((t - 1) * d, (t + 1) * d)
        prec[pair, pair] += link.T @ q_inv @ link
        if observations[t - 1] is not None:
            obs, w = observations[t - 1]
            prec[blocks[t], blocks[t]] += w * r_inv
            info[blocks[t]] += w * r_inv @ obs
    cov = np.linalg.inv(prec)
    mean = cov @ info
    return (np.stack([mean[b] for b in blocks[1:]]),
            np.stack([cov[b, b] for b in blocks[1:]]))


def vmf_window_elbo(
    etas: np.ndarray,
    anchor_scale: np.ndarray,
    anchor_vec: np.ndarray,
    kappa_trans: float,
    kappa_ems: float,
    feats: list,
    resps: list,
    mixings: list,
):
    """Mean-field ELBO of a vMF window and its gradient, in natural parameters.

    etas is (T, K, D): step t's belief over class k's prototype is vMF
    with direction eta/|eta| and concentration |eta|, so its expected
    prototype is e = A_D(|eta|) eta/|eta|. The anchor's message to step 0
    is anchor_scale[:, None] * anchor_vec; consecutive steps are tied by
    kappa_trans, and sample n of step t belongs to class k with
    responsibility resps[t][n, k], emission concentration kappa_ems. The
    ELBO is the expected log joint (anchor, transitions, assignments and
    emissions, normalizers included) plus the entropies of the vMF beliefs
    and of the assignments. Bessel values come from scipy's scaled ive.

    With c the sum of messages to eta (the anchor or neighbours' kappa e,
    plus kappa_ems sum_n r_nk h_n), the gradient is J (c - eta) with J the
    Jacobian of e in eta, so eta = c is the stationary point.
    """
    t_len, k, d = etas.shape
    nu = d / 2.0 - 1.0

    def log_c(kappa):
        kappa = np.asarray(kappa, dtype=float)
        return (nu * np.log(kappa) - (nu + 1.0) * np.log(2.0 * np.pi)
                - np.log(ive(nu, kappa)) - kappa)

    gamma = np.linalg.norm(etas, axis=2)                  # (T, K)
    mu = etas / gamma[..., None]
    a = ive(d / 2.0, gamma) / ive(nu, gamma)
    e = a[..., None] * mu
    msgs = np.zeros_like(etas)
    msgs[0] += anchor_scale[:, None] * anchor_vec
    msgs[1:] += kappa_trans * e[:-1]
    msgs[:-1] += kappa_trans * e[1:]
    elbo = float(np.sum(log_c(anchor_scale)) + np.sum(anchor_scale[:, None] * anchor_vec * e[0]))
    elbo += (t_len - 1) * k * float(log_c(kappa_trans))
    elbo += kappa_trans * float(np.sum(e[:-1] * e[1:]))
    for t, (h, r, pi) in enumerate(zip(feats, resps, mixings)):
        msgs[t] += kappa_ems * (r.T @ h)
        with np.errstate(divide="ignore"):
            log_pi = np.log(pi)
        elbo += float(np.sum(r * (np.where(r > 0.0, log_pi, 0.0) + log_c(kappa_ems)
                                  + kappa_ems * (h @ e[t].T))))
        elbo -= float(np.sum(np.where(r > 0.0, r * np.log(np.where(r > 0.0, r, 1.0)), 0.0)))
    elbo += float(np.sum(-log_c(gamma) - gamma * a))
    # J = (A / g) I + (A' - A / g) mu mu^T, with A' = 1 - A^2 - (D - 1) A / g
    a_prime = 1.0 - a * a - (d - 1) * a / gamma
    diff = msgs - etas
    grad = ((a / gamma)[..., None] * diff
            + ((a_prime - a / gamma) * np.sum(mu * diff, axis=2))[..., None] * mu)
    return elbo, grad


def labelled_vmf_filter(source, batches, labels, kappa_trans, kappa_ems):
    """An assumed-density vMF filter told the true labels: a bound on what
    a label-free tracker can reach on a stream.

    Each class's prototype belief is vMF with natural parameter eta,
    starting at kappa_trans times its source row. Before each batch but
    the first, every belief goes through the transition by matching A_D:
    c' = A_D^-1(A_D(c) A_D(kappa_trans)), with A_D^-1 the closed form
    r (D - r^2) / (1 - r^2) of `mathcore.estimate_kappa`. The batch is
    then predicted by the nearest mean direction, and only after that is
    each class's belief updated: eta += kappa_ems times the sum of its
    samples. Returns the predicted labels of every batch.
    """
    k, d = source.shape

    def a_d(kappa):
        # below 1e-6 the ive quotient would underflow to 0 / 0; a class
        # unseen that long keeps its direction at a concentration near 0
        kappa = np.maximum(kappa, 1e-6)
        return ive(d / 2.0, kappa) / ive(d / 2.0 - 1.0, kappa)

    eta = kappa_trans * np.asarray(source, dtype=float)
    a_trans = a_d(kappa_trans)
    preds = []
    for i, (h, y) in enumerate(zip(batches, labels)):
        conc = np.linalg.norm(eta, axis=1)
        if i:
            r = a_d(conc) * a_trans
            eta = eta * (r * (d - r * r) / (1.0 - r * r) / conc)[:, None]
        preds.append(np.argmax(h @ eta.T / np.linalg.norm(eta, axis=1), axis=1))
        for j in range(k):
            eta[j] += kappa_ems * h[y == j].sum(axis=0)
    return preds
