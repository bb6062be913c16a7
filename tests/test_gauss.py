"""Tests for the Gaussian prototype tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor

from stad import gauss
from stad.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyBatchError,
    InsufficientHistoryError,
    NonContiguousTimeError,
    NotAdaptedError,
    StadError,
)
from stad.gauss import (
    GaussBelief,
    GaussConfig,
    GaussModel,
    gauss_assignments,
    gauss_m_step,
    kf_predict,
    kf_smooth,
    kf_update_weighted,
)
from stad.mathcore import normalize_rows
from stad.vmf import mixing_update

import oracles

# Frozen by direct evaluation: 1 / (1 + exp(-2)).
LAMBDA_TWO_POINT = 0.88079707797788244406


def dense_m_step(means, covs, gains, resps, feats, learn_transition, learn_sigmas):
    """The random-walk M-step from dense (D, D) moments, with explicit sums.

    means[t] is (K, D), covs[t] and gains[t] (K, D, D). Q-hat is the dense
    average over transitions and classes of E[(x_i - x_{i-1})(x_i - x_{i-1})^T],
    R-hat that of the emission residuals, and q and r their tr / D, floored
    at 1e-8. Returns (q or None, r or None).
    """
    t_len, (k, d) = len(means), means[0].shape
    q = r = None
    if learn_transition:
        q_acc = np.zeros((d, d))
        for j in range(k):
            for i in range(1, t_len):
                prev, cur = means[i - 1][j], means[i][j]
                e_lag = covs[i][j] @ gains[i - 1][j].T + np.outer(cur, prev)
                q_acc += (covs[i][j] + np.outer(cur, cur) - e_lag.T - e_lag
                          + covs[i - 1][j] + np.outer(prev, prev))
        q = max(np.trace(q_acc / ((t_len - 1) * k)) / d, 1e-8)
    if learn_sigmas:
        r_acc = np.zeros((d, d))
        for i in range(t_len):
            for j in range(k):
                diff = feats[i] - means[i][j]
                w = resps[i][:, j]
                r_acc += (diff * w[:, None]).T @ diff + w.sum() * covs[i][j]
        r = max(np.trace(r_acc / sum(len(h) for h in feats)) / d, 1e-8)
    return q, r


class DenseReference:
    """STAD-Gauss written from the textbook with (D, D) matrices.

    Explicit-inverse assignments; per class, the dense Kalman filter and
    RTS smoother of `oracles` with transition I, Q = q I and R = r I;
    `dense_m_step`; and softmax(W h) as the head. Only `mixing_update`
    comes from the package.
    """

    def __init__(self, w0, cfg):
        k, d = w0.shape
        self.cfg, self.eye = cfg, np.eye(d)
        self.sigma_trans, self.sigma_ems = cfg.sigma_trans_scale, cfg.sigma_ems_scale
        self.anchor = (w0.copy(), np.tile(cfg.initial_cov_scale * self.eye, (k, 1, 1)))
        self.steps = []
        self.gains = None

    def adapt(self, t, feats):
        cfg, k = self.cfg, self.cfg.k
        mean, cov = ((self.steps[-1]["mean"], self.steps[-1]["cov"]) if self.steps
                     else self.anchor)
        feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        self.steps.append(dict(feats=feats, mean=mean.copy(), cov=cov.copy(),
                               resp=np.full((len(feats), k), 1.0 / k),
                               mixing=np.full(k, 1.0 / k)))
        if len(self.steps) > cfg.window:
            evicted = self.steps.pop(0)
            self.anchor = (evicted["mean"], evicted["cov"])
        for _ in range(cfg.e_sweeps):
            self.sweep()
        for s in self.steps:
            s["mixing"] = mixing_update(s["resp"], cfg.pi_floor)
        if len(self.steps) >= 2:
            q, r = dense_m_step(
                [s["mean"] for s in self.steps], [s["cov"] for s in self.steps], self.gains,
                [s["resp"] for s in self.steps], [s["feats"] for s in self.steps],
                cfg.learn_transition, cfg.learn_sigmas)
            if q is not None:
                self.sigma_trans = q
            if r is not None:
                self.sigma_ems = r

    def sweep(self):
        r_inv = np.linalg.inv(self.sigma_ems * self.eye)
        for s in self.steps:
            diff = s["feats"][:, None, :] - s["mean"][None]
            logits = np.log(s["mixing"]) - 0.5 * np.einsum("nkd,de,nke->nk", diff, r_inv, diff)
            resp = np.exp(logits - logits.max(axis=1, keepdims=True))
            s["resp"] = resp / resp.sum(axis=1, keepdims=True)
        q, r = self.sigma_trans * self.eye, self.sigma_ems * self.eye
        self.gains = np.empty((len(self.steps) - 1, self.cfg.k) + self.eye.shape)
        for j in range(self.cfg.k):
            obs = []
            for s in self.steps:
                w = s["resp"][:, j].sum()
                obs.append((s["resp"][:, j] @ s["feats"] / w, w) if w > 1e-8 else None)
            fm, fc = oracles.dense_kalman_filter(self.anchor[0][j], self.anchor[1][j], self.eye,
                                                 q, r, obs)
            sm, sc, gains = oracles.dense_rts_smoother(fm, fc, self.eye, q)
            for s, m, c in zip(self.steps, sm, sc):
                s["mean"][j], s["cov"][j] = m, c
            for i, g in enumerate(gains):
                self.gains[i, j] = g

    def predict(self, feats):
        logits = (feats / np.linalg.norm(feats, axis=1, keepdims=True)) @ self.steps[-1]["mean"].T
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        return probs / probs.sum(axis=1, keepdims=True)


def assert_matches_reference(model, ref):
    """Every window step, the anchor, the gains and the parameters agree
    at 1e-10, each (K,) variance c standing for the (D, D) matrix c I."""
    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def iso(var):
        return np.asarray(var)[..., None, None] * ref.eye

    assert len(model._steps) == len(ref.steps)
    for s, r in zip(model._steps, ref.steps):
        assert s.belief.cov.shape == (model.config.k,)
        close(s.belief.mean, r["mean"])
        close(iso(s.belief.cov), r["cov"])
        close(s.resp, r["resp"])
        close(s.mixing, r["mixing"])
    close(model._anchor.mean, ref.anchor[0])
    close(iso(model._anchor.cov), ref.anchor[1])
    close(iso(model._last_gains), ref.gains)
    for name in ("sigma_trans", "sigma_ems"):
        close(getattr(model, name), getattr(ref, name))


class TestKfPredict:
    def test_identity_transition_adds_noise(self):
        mean, var = kf_predict(np.array([[1.0, -2.0]]), np.array([0.5]), 0.3)
        np.testing.assert_allclose(mean, [[1.0, -2.0]])
        np.testing.assert_allclose(var, [0.8])

    def test_random_instance_matches_dense_reference(self):
        rng = np.random.default_rng(0)
        k, d = 3, 4
        var, q = rng.uniform(0.1, 1.0, k), 0.05
        m0 = rng.standard_normal((k, d))
        mean, got = kf_predict(m0, var, q)
        eye = np.eye(d)
        for j in range(k):
            np.testing.assert_allclose(mean[j], eye @ m0[j], atol=1e-10)
            np.testing.assert_allclose(got[j] * eye, eye @ (var[j] * eye) @ eye.T + q * eye,
                                       atol=1e-10)

    @pytest.mark.parametrize("q", [-0.5, -1e-4, np.inf, np.nan])
    def test_q_not_finite_and_nonnegative_raises(self, q):
        # a negative q would lower the variances (to 0.5 here) and run on
        with pytest.raises(DomainError):
            kf_predict(np.zeros((2, 3)), np.ones(2), q)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kf_predict(np.zeros((1, 2)), np.ones(2), 0.1)
        with pytest.raises(DimensionMismatchError):
            kf_predict(np.zeros((1, 2)), np.ones(1), np.full(1, 0.1))


class TestKfUpdateWeighted:
    def test_textbook_scalar_step(self):
        mean, var = kf_update_weighted(np.zeros((1, 1)), np.ones(1), np.array([[1.0]]),
                                       np.ones((1, 1)), 1.0)
        assert mean[0, 0] == pytest.approx(0.5)
        assert var[0] == pytest.approx(0.5)

    def test_non_psd_innovation_raises_stad_error(self):
        # c + r / w = 1 - 10 / 3 < 0
        with pytest.raises(StadError):
            kf_update_weighted(np.zeros((1, 2)), np.ones(1), np.ones((3, 2)), np.ones((3, 1)),
                               -10.0)

    def test_negative_responsibilities_rejected(self):
        resp = np.array([[0.5], [-0.1], [0.6]])
        with pytest.raises(DomainError):
            kf_update_weighted(np.zeros((1, 2)), np.ones(1), np.ones((3, 2)), resp, 1.0)

    def test_empty_cluster_returns_prior(self):
        m0, p0 = np.array([[1.0, 2.0]]), np.array([0.4])
        feats = np.random.default_rng(1).standard_normal((5, 2))
        mean, var = kf_update_weighted(m0, p0, feats, np.zeros((5, 1)), 1.0)
        np.testing.assert_array_equal(mean, m0)
        np.testing.assert_array_equal(var, p0)

    def test_heavy_weight_moves_to_the_weighted_mean(self):
        rng = np.random.default_rng(12)
        feats, w = rng.standard_normal((6, 3)), rng.uniform(0.5, 1.0, (6, 1))
        mean, var = kf_update_weighted(np.zeros((1, 3)), np.array([1.0]), feats, 1e9 * w, 1.0)
        np.testing.assert_allclose(mean[0], w[:, 0] @ feats / w.sum(), atol=1e-8)
        assert 0.0 < var[0] < 1e-8

    def test_random_instance_matches_dense_reference(self):
        rng = np.random.default_rng(2)
        d, n = 3, 5
        m0 = rng.standard_normal(d)
        c, r = 0.7, 0.4
        feats = rng.standard_normal((n, d))
        w = rng.uniform(0.1, 1.0, size=n)
        mean, var = kf_update_weighted(m0[None], np.array([c]), feats, w[:, None], r)
        obs = (w @ feats) / w.sum()
        p0 = c * np.eye(d)
        gain = p0 @ np.linalg.inv(p0 + r * np.eye(d) / w.sum())
        np.testing.assert_allclose(mean[0], m0 + gain @ (obs - m0), atol=1e-9)
        np.testing.assert_allclose(var[0] * np.eye(d), (np.eye(d) - gain) @ p0, atol=1e-9)

    def test_covariance_symmetric_psd(self):
        # c I is symmetric, and positive semi-definite when 0 <= c; an
        # update never raises it above the prior
        rng = np.random.default_rng(3)
        prior = rng.uniform(0.1, 2.0, 4)
        _, var = kf_update_weighted(rng.standard_normal((4, 3)), prior,
                                    rng.standard_normal((7, 3)),
                                    rng.uniform(0.0, 1.0, size=(7, 4)), 0.3)
        assert np.all(var > 0.0) and np.all(var <= prior)


class TestKfSmooth:
    def test_single_step_is_identity(self):
        means = np.array([[[1.0, 2.0]]])
        covs = np.array([[0.5]])
        sm, sc, gains = kf_smooth(means, covs, 0.1)
        np.testing.assert_array_equal(sm, means)
        np.testing.assert_array_equal(sc, covs)
        assert gains.shape == (0, 1)

    def test_rigid_chain_equalizes_means(self):
        rng = np.random.default_rng(4)
        means = rng.standard_normal((3, 1, 2))
        covs = rng.uniform(0.5, 1.5, (3, 1))
        sm, _, _ = kf_smooth(means, covs, 1e-14)
        np.testing.assert_allclose(sm[0], sm[2], atol=1e-6)
        np.testing.assert_allclose(sm[1], sm[2], atol=1e-6)

    def test_smoothed_variance_never_exceeds_filtered(self):
        # the future only adds information: c_s <= c_f at every step of a
        # filtered chain
        rng = np.random.default_rng(13)
        k = 4
        mean, var = rng.standard_normal((k, 2)), rng.uniform(0.1, 1.0, k)
        means, covs = [], []
        for _ in range(5):
            mean, var = kf_predict(mean, var, 0.1)
            mean, var = kf_update_weighted(mean, var, rng.standard_normal((6, 2)),
                                           rng.dirichlet(np.ones(k), size=6), 0.5)
            means.append(mean)
            covs.append(var)
        _, sc, _ = kf_smooth(np.stack(means), np.stack(covs), 0.1)
        assert np.all(sc <= np.stack(covs)) and np.all(sc > 0.0)

    def test_random_instance_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        d, t = 2, 3
        q = 0.05
        means = rng.standard_normal((t, d))
        covs = rng.uniform(0.5, 1.5, t)
        sm, sc, gains = kf_smooth(means[:, None], covs[:, None], q)
        eye = np.eye(d)
        om, oc, og = oracles.dense_rts_smoother(list(means), [c * eye for c in covs], eye,
                                                q * eye)
        np.testing.assert_allclose(sm[:, 0], np.stack(om), atol=1e-8)
        np.testing.assert_allclose(sc[:, 0, None, None] * eye, np.stack(oc), atol=1e-8)
        np.testing.assert_allclose(gains[:, 0, None, None] * eye, np.stack(og), atol=1e-8)

    @pytest.mark.parametrize("q", [-1e-4, np.inf, np.nan])
    def test_q_not_finite_and_nonnegative_raises(self, q):
        with pytest.raises(DomainError):
            kf_smooth(np.zeros((2, 1, 3)), np.ones((2, 1)), q)


class TestStackedKf:
    """K classes in one call give the same numbers as one call per class."""

    K, D, N = 4, 5, 9

    def setup_method(self):
        rng = np.random.default_rng(25)
        k, d, n = self.K, self.D, self.N
        self.mean = rng.standard_normal((k, d))
        self.cov = rng.uniform(0.1, 0.5, k)
        self.q, self.r = 0.05, 0.3
        self.feats = rng.standard_normal((n, d))
        self.resp = rng.dirichlet(np.ones(k), size=n)
        self.resp[:, 2] = 0.0  # an empty cluster keeps its prior
        self.rng = rng

    def test_predict(self):
        mean, cov = kf_predict(self.mean, self.cov, self.q)
        for j in range(self.K):
            m1, c1 = kf_predict(self.mean[j:j + 1], self.cov[j:j + 1], self.q)
            np.testing.assert_allclose(mean[j:j + 1], m1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cov[j:j + 1], c1, rtol=0, atol=1e-12)

    def test_update(self):
        mean, cov = kf_update_weighted(self.mean, self.cov, self.feats, self.resp, self.r)
        for j in range(self.K):
            m1, c1 = kf_update_weighted(self.mean[j:j + 1], self.cov[j:j + 1], self.feats,
                                        self.resp[:, j:j + 1], self.r)
            np.testing.assert_allclose(mean[j:j + 1], m1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cov[j:j + 1], c1, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(mean[2], self.mean[2])
        np.testing.assert_array_equal(cov[2], self.cov[2])

    def test_smooth(self):
        t_len = 4
        means = self.rng.standard_normal((t_len, self.K, self.D))
        covs = self.rng.uniform(0.1, 0.5, (t_len, self.K))
        sm, sc, gains = kf_smooth(means, covs, self.q)
        assert gains.shape == (t_len - 1, self.K)
        for j in range(self.K):
            sm1, sc1, g1 = kf_smooth(means[:, j:j + 1], covs[:, j:j + 1], self.q)
            np.testing.assert_allclose(sm[:, j:j + 1], sm1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sc[:, j:j + 1], sc1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gains[:, j:j + 1], g1, rtol=0, atol=1e-12)

    def test_one_non_pd_class_raises(self):
        # kf_predict and kf_update_weighted check no variance; the smoother,
        # the sweep's one value check, rejects a filtered variance at or
        # below 0 in any one class, at the last step or an earlier one
        for t, j, value in ((1, 1, 0.0), (0, 3, -1.0)):
            covs = np.stack([self.cov] * 2)
            covs[t, j] = value
            with pytest.raises(DomainError):
                kf_smooth(np.stack([self.mean] * 2), covs, self.q)

    def test_mismatched_class_axes_raise(self):
        with pytest.raises(DimensionMismatchError):
            kf_predict(self.mean, self.cov[:2], self.q)
        with pytest.raises(DimensionMismatchError):
            kf_update_weighted(self.mean, self.cov, self.feats, self.resp[:, :2], self.r)
        with pytest.raises(DimensionMismatchError):
            kf_smooth(np.stack([self.mean] * 2), np.stack([self.cov[:2]] * 2), self.q)


class TestNonFiniteInputs:
    """A NaN that enters the filter raises DomainError at kf_smooth, the
    value check made once per sweep on the window's stacked moments."""

    @staticmethod
    def nan_var(k):
        var = np.ones(k)
        var[0] = np.nan
        return var

    @staticmethod
    def smooth_two(mean, var):
        """kf_smooth of a two-step chain whose second step holds the given moments."""
        return kf_smooth(np.stack([mean, mean]), np.stack([np.ones(len(var)), var]), 1.0)

    @pytest.mark.parametrize("lead", [(1,), (3,)])
    def test_kf_predict(self, lead):
        k = lead[0]
        mean, var = kf_predict(np.zeros((k, 2)), self.nan_var(k), 1.0)
        assert np.isnan(var[0])
        with pytest.raises(DomainError):
            self.smooth_two(mean, var)

    @pytest.mark.parametrize("lead", [(1,), (3,)])
    def test_kf_update_weighted(self, lead):
        k = lead[0]
        mean, resp, feats = np.zeros((k, 2)), np.ones((4, k)), np.ones((4, 2))
        upd_mean, upd_var = kf_update_weighted(mean, self.nan_var(k), feats, resp, 1.0)
        with pytest.raises(DomainError):
            self.smooth_two(upd_mean, upd_var)
        # a NaN r fails the update's own check on r
        with pytest.raises(DomainError):
            kf_update_weighted(mean, np.ones(k), feats, resp, np.nan)

    @pytest.mark.parametrize("lead", [(1,), (3,)])
    def test_kf_smooth(self, lead):
        k = lead[0]
        means, ones = np.zeros((2, k, 2)), np.ones((2, k))
        with pytest.raises(DomainError):
            kf_smooth(means, np.stack([ones[0], self.nan_var(k)]), 1.0)
        nan_means = means.copy()
        nan_means[0, 0, 1] = np.nan
        with pytest.raises(DomainError):
            kf_smooth(nan_means, ones, 1.0)

    def test_unstacked_shapes_raise(self):
        """The kf_* take one stacked form: a 1-D mean, a (T, D) chain or a
        per-class q is a shape error, not a bare ValueError."""
        mean, feats, one = np.zeros((1, 2)), np.ones((4, 2)), np.ones(1)
        chain, chain_vars = np.zeros((2, 1, 2)), np.ones((2, 1))
        calls = [
            # a 1-D mean with its scalar variance
            lambda: kf_predict(mean[0], 1.0, 0.1),
            lambda: kf_update_weighted(mean[0], 1.0, feats, np.ones(4), 0.5),
            # a (T, D) chain with (T,) variances
            lambda: kf_smooth(chain[:, 0], chain_vars[:, 0], 0.1),
            # a (K,) q, one per class
            lambda: kf_predict(mean, one, 0.1 * one),
            lambda: kf_smooth(chain, chain_vars, 0.1 * one),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatchError):
                call()

    @pytest.mark.parametrize("name", ["sigma_trans"])
    def test_model_with_nan_transition_parameter(self, name):
        rng = np.random.default_rng(30)
        model = GaussModel(rng.standard_normal((3, 2)), GaussConfig(d=2, k=3))
        setattr(model, name, np.nan)
        with pytest.raises(DomainError):
            model.adapt(1, rng.standard_normal((6, 2)))

    def test_model_with_negative_transition_variance(self):
        # set by hand, a q below 0 would shrink every predicted variance
        rng = np.random.default_rng(35)
        model = GaussModel(rng.standard_normal((3, 2)), GaussConfig(d=2, k=3))
        model.adapt(1, rng.standard_normal((6, 2)))
        model.sigma_trans = -1e-4
        with pytest.raises(DomainError):
            model.adapt(2, rng.standard_normal((6, 2)))

    @pytest.mark.parametrize("learn_transition", [False, True])
    def test_model_with_nan_emission_covariance(self, learn_transition):
        rng = np.random.default_rng(26)
        cfg = GaussConfig(d=2, k=3, learn_sigmas=True, learn_transition=learn_transition)
        model = GaussModel(rng.standard_normal((3, 2)), cfg)
        model.sigma_ems = np.nan
        with pytest.raises(StadError):
            model.adapt(1, rng.standard_normal((6, 2)))


class TestGaussAssignments:
    def test_single_class(self):
        belief = GaussBelief(np.zeros((1, 2)), np.ones(1))
        resp = gauss_assignments(np.ones((4, 2)), belief, np.ones(1), 1.0)
        np.testing.assert_array_equal(resp, np.ones((4, 1)))

    def test_symmetric_point_is_uniform(self):
        belief = GaussBelief(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.ones(2))
        resp = gauss_assignments(np.array([[0.0, 3.0]]), belief, np.full(2, 0.5), 1.0)
        np.testing.assert_allclose(resp, [[0.5, 0.5]], atol=1e-12)

    def test_scalar_frozen_value(self):
        belief = GaussBelief(np.array([[0.0], [2.0]]), np.ones(2))
        resp = gauss_assignments(np.array([[0.0]]), belief, np.full(2, 0.5), 1.0)
        assert resp[0, 0] == pytest.approx(LAMBDA_TWO_POINT, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        belief = GaussBelief(rng.standard_normal((3, 4)), rng.uniform(0.1, 1.0, 3))
        resp = gauss_assignments(rng.standard_normal((11, 4)), belief, np.full(3, 1 / 3), 0.7)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    # the oracle keeps the full log density, ||h||^2 and the normalizer
    # included, which gauss_assignments leaves out as the same for every class
    @pytest.mark.parametrize("r", [1e-3, 0.3, 10.0])
    @pytest.mark.parametrize("norm", [1.0, 3.0], ids=["unit", "norm3"])
    def test_shared_covariance_matches_explicit_inverse(self, norm, r):
        rng = np.random.default_rng(19)
        k, d = 4, 5
        belief = GaussBelief(rng.standard_normal((k, d)), np.ones(k))
        mixing = rng.dirichlet(np.ones(k))
        feats = norm * normalize_rows(rng.standard_normal((9, d)))
        resp = gauss_assignments(feats, belief, mixing, r)
        cov = r * np.eye(d)
        diff = feats[:, None, :] - belief.mean[None]
        quad = np.einsum("nkd,de,nke->nk", diff, np.linalg.inv(cov), diff)
        logits = np.log(mixing) - 0.5 * (quad + np.linalg.slogdet(2.0 * np.pi * cov)[1])
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(resp, want / want.sum(axis=1, keepdims=True), atol=1e-12)

    # dense: (K, D, D) belief covariances, which gauss_assignments rejects
    @pytest.mark.parametrize("dense, mixing, sigma_ems", [
        (True, np.full(2, 1 / 3), np.eye(3)),        # mixing not (K,)
        (False, np.full((1, 3), 1 / 3), 0.5),         # mixing (1, K)
        (False, np.full(3, 1 / 3), np.eye(3)),       # (D, D) R with (K,) covariances
        (True, np.full(3, 1 / 3), 0.5),              # float R with (K, D, D) covariances
        (True, np.full(3, 1 / 3), np.eye(2)),        # R of another D
    ])
    @pytest.mark.parametrize("one_row", [False, True])
    def test_mismatched_shapes_raise(self, dense, mixing, sigma_ems, one_row):
        rng = np.random.default_rng(27)
        cov = np.tile(np.eye(3), (3, 1, 1)) if dense else np.ones(3)
        belief = GaussBelief(rng.standard_normal((3, 3)), cov)
        with pytest.raises(DimensionMismatchError):
            gauss_assignments(rng.standard_normal((1 if one_row else 5, 3)), belief, mixing,
                              sigma_ems)

    def test_prototypes_not_a_matrix_raise(self):
        belief = GaussBelief(np.zeros(3), np.ones(3))
        with pytest.raises(DimensionMismatchError):
            gauss_assignments(np.zeros((2, 3)), belief, np.ones(1), 0.5)

    @pytest.mark.parametrize("r", [-1.0, 0.0, np.inf, np.nan])
    @pytest.mark.parametrize("one_row", [False, True])
    def test_scalar_r_not_finite_and_positive_raises(self, r, one_row):
        # checked before its log, which would otherwise warn or give NaN
        belief = GaussBelief(np.zeros((2, 3)), np.ones(2))
        with pytest.raises(DomainError):
            gauss_assignments(np.ones((1 if one_row else 4, 3)), belief, np.full(2, 0.5), r)


def learned_window(seed, d=4, k=3, steps=4):
    """A model that learns q and r after `steps` adapts on a drifting
    stream: the window's smoothed beliefs, the last smoother gains, the
    responsibilities and batches, as gauss_m_step reads them."""
    rng = np.random.default_rng(seed)
    w0 = normalize_rows(rng.standard_normal((k, d)))
    model = GaussModel(w0, GaussConfig(d=d, k=k, learn_transition=True, learn_sigmas=True))
    drift = 0.05 * rng.standard_normal((k, d))
    for t in range(1, steps + 1):
        labels = rng.integers(0, k, size=12)
        model.adapt(t, w0[labels] + t * drift[labels] + 0.1 * rng.standard_normal((12, d)))
    steps = model._steps
    return ([s.belief for s in steps], model._last_gains, [s.resp for s in steps],
            [s.feats for s in steps])


def expected_log_lik(beliefs, gains, resps, feats, q, r):
    """The window's expected complete-data log-likelihood in q and r.

    Over the T - 1 transitions, E log N(x_t; x_{t-1}, q I), and over
    every sample and class, w_nk E log N(h_n; x_k, r I), the expectations
    taken from dense c I covariances and J I cross-covariances.
    """
    k, d = beliefs[0].mean.shape
    eye = np.eye(d)
    total = 0.0
    for i in range(1, len(beliefs)):
        prev, cur = beliefs[i - 1], beliefs[i]
        for j in range(k):
            e_prev = prev.cov[j] * eye + np.outer(prev.mean[j], prev.mean[j])
            e_cur = cur.cov[j] * eye + np.outer(cur.mean[j], cur.mean[j])
            e_lag = cur.cov[j] * gains[i - 1][j] * eye + np.outer(cur.mean[j], prev.mean[j])
            sq = np.trace(e_cur) - 2.0 * np.trace(e_lag) + np.trace(e_prev)
            total += -0.5 * d * np.log(2.0 * np.pi * q) - 0.5 * sq / q
    for b, h, w in zip(beliefs, feats, resps):
        for n in range(len(h)):
            for j in range(k):
                sq = np.sum((h[n] - b.mean[j]) ** 2) + d * b.cov[j]
                total += w[n, j] * (-0.5 * d * np.log(2.0 * np.pi * r) - 0.5 * sq / r)
    return total


class TestGaussMStep:
    def test_learn_flags_off(self):
        belief = GaussBelief(np.zeros((2, 2)), np.ones(2))
        out = gauss_m_step([belief, belief], [np.ones(2)], [], [], False, False)
        assert out == (None, None)

    def test_one_dimension_matches_closed_form(self):
        # At D = 1 every moment is a scalar per class: q = mean_k (s_cur -
        # 2 s_lag + s_prev) / (T - 1), and r the weighted mean of
        # (h - m)^2 + P over every sample and class.
        rng = np.random.default_rng(11)
        t_len, k = 4, 3
        means = rng.standard_normal((t_len, k))
        covs = rng.uniform(0.5, 1.5, (t_len, k))
        gains = rng.uniform(0.2, 0.9, (t_len - 1, k))
        feats = [rng.standard_normal((n, 1)) for n in (5, 0, 4, 6)]
        resps = [normalize_rows(rng.uniform(0.1, 1.0, (len(h), k))) for h in feats]
        beliefs = [GaussBelief(m[:, None], c) for m, c in zip(means, covs)]
        new_q, new_r = gauss_m_step(beliefs, list(gains), resps, feats, True, True)

        s_prev = (covs[:-1] + means[:-1] ** 2).sum(axis=0)
        s_lag = (covs[1:] * gains + means[1:] * means[:-1]).sum(axis=0)
        s_cur = (covs[1:] + means[1:] ** 2).sum(axis=0)
        q = (s_cur - 2.0 * s_lag + s_prev).sum() / ((t_len - 1) * k)
        r = sum((w * ((h - m) ** 2 + c)).sum() for h, w, m, c in zip(feats, resps, means, covs))
        r /= sum(len(h) for h in feats)
        assert q > 1e-8
        np.testing.assert_allclose(new_q, q, rtol=1e-10)
        np.testing.assert_allclose(new_r, r, rtol=1e-12)

    def test_insufficient_history(self):
        belief = GaussBelief(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(InsufficientHistoryError):
            gauss_m_step([belief], [], [], [], True, False)

    def test_empty_window_raises_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            gauss_m_step([], [], [], [], True, False)

    @staticmethod
    def valid_inputs(t=3, k=2, d=2):
        rng = np.random.default_rng(9)
        return dict(
            smoothed=[GaussBelief(rng.standard_normal((k, d)), rng.uniform(0.1, 0.5, k))
                      for _ in range(t)],
            gains=np.full((t - 1, k), 0.5),
            resps=[rng.dirichlet(np.ones(k), size=6) for _ in range(t)],
            feats=[rng.standard_normal((6, d)) for _ in range(t)],
            learn_transition=True,
            learn_sigmas=True,
        )

    MISMATCHES = {
        "short_feats": lambda a: dict(feats=a["feats"][:-1]),
        "short_resps": lambda a: dict(resps=a["resps"][:-1]),
        "short_gains": lambda a: dict(gains=a["gains"][:-1]),
        "ragged_gains": lambda a: dict(gains=[a["gains"][0], np.eye(2)]),
        "class_count": lambda a: dict(smoothed=a["smoothed"][:-1] + [
            GaussBelief(np.zeros((3, 2)), np.ones(3))]),
        "feature_dim": lambda a: dict(feats=[np.ones((6, 3))] * 3),
        "resp_classes": lambda a: dict(resps=[np.full((6, 3), 1.0 / 3.0)] * 3),
        "dense_covs": lambda a: dict(smoothed=[
            GaussBelief(b.mean, np.tile(np.eye(2), (2, 1, 1))) for b in a["smoothed"]]),
    }

    def test_all_empty_batches_raise(self):
        args = self.valid_inputs()
        args.update(feats=[np.empty((0, 2))] * 3, resps=[np.empty((0, 2))] * 3)
        with pytest.raises(EmptyBatchError):
            gauss_m_step(**args)

    @pytest.mark.parametrize("case", list(MISMATCHES))
    def test_mismatched_inputs_raise(self, case):
        args = self.valid_inputs()
        gauss_m_step(**args)
        args.update(self.MISMATCHES[case](args))
        with pytest.raises(DimensionMismatchError):
            gauss_m_step(**args)

    def test_non_finite_moments_raise(self):
        args = self.valid_inputs()
        args["gains"] = args["gains"].copy()
        args["gains"][0, 1] = np.nan
        with pytest.raises(DomainError):
            gauss_m_step(**args)

    def test_matches_independent_script(self):
        rng = np.random.default_rng(8)
        k, d, t = 2, 3, 3
        beliefs = [GaussBelief(rng.standard_normal((k, d)), rng.uniform(0.1, 0.5, k))
                   for _ in range(t)]
        gains = [rng.uniform(0.3, 0.7, k) for _ in range(t - 1)]
        resps = [rng.dirichlet(np.ones(k), size=6) for _ in range(t)]
        feats = [rng.standard_normal((6, d)) for _ in range(t)]
        eye = np.eye(d)

        def dense(var):
            return var[:, None, None] * eye

        # each flag learns its own noise, and only that one
        for flags in ((True, False), (False, True), (True, True)):
            got = gauss_m_step(beliefs, gains, resps, feats, *flags)
            want = dense_m_step([b.mean for b in beliefs], [dense(b.cov) for b in beliefs],
                                [dense(g) for g in gains], resps, feats, *flags)
            for flag, new, ref in zip(flags, got, want):
                if flag:
                    assert ref > 1e-8
                    np.testing.assert_allclose(new, ref, atol=1e-8)
                else:
                    assert new is None and ref is None

    def test_transition_alone_reads_no_batches(self):
        args = self.valid_inputs()
        want, _ = gauss_m_step(**args)
        args.update(feats=[], resps=[], learn_sigmas=False)
        new_q, new_r = gauss_m_step(**args)
        assert new_q == want and new_r is None

    def test_floors_q_and_r(self):
        # a static, exactly fitted window: both residuals vanish
        mean = np.array([[1.0, 0.0], [0.0, 1.0]])
        beliefs = [GaussBelief(mean, np.zeros(2)) for _ in range(3)]
        feats = [mean.copy() for _ in range(3)]
        resps = [np.eye(2) for _ in range(3)]
        q, r = gauss_m_step(beliefs, [np.ones(2)] * 2, resps, feats, True, True)
        assert q == r == 1e-8

    @pytest.mark.parametrize("name", ["q", "r"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 999), factor=st.sampled_from([0.9, 0.99, 1.01, 1.1]))
    def test_moving_off_the_estimates_lowers_the_expected_log_likelihood(self, name, seed,
                                                                          factor):
        beliefs, gains, resps, feats = learned_window(seed)
        q, r = gauss_m_step(beliefs, gains, resps, feats, True, True)
        assert q > 1e-8 and r > 1e-8  # no floor is active
        best = expected_log_lik(beliefs, gains, resps, feats, q, r)
        moved = dict(q=q, r=r)
        moved[name] = moved[name] * factor
        assert expected_log_lik(beliefs, gains, resps, feats, **moved) < best


class TestGaussConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(sigma_trans_scale=0.0),                       # P0 = Q = 0
        dict(sigma_trans_scale=0.0, init_cov_scale=0.0),
        dict(init_cov_scale=-1.0),
    ])
    def test_rejects_singular_or_negative_initial_covariance(self, kwargs):
        with pytest.raises(DomainError):
            GaussConfig(d=3, k=2, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(window=2.5),
        dict(e_sweeps=1.0),
        dict(d=3.0),
        dict(k=2.5),
        dict(k=0),
        dict(e_sweeps=False),
    ])
    def test_rejects_malformed_sizes(self, kwargs):
        with pytest.raises(DomainError):
            GaussConfig(**{"d": 3, "k": 2, **kwargs})

    @pytest.mark.parametrize("name", ["sigma_trans_scale", "sigma_ems_scale", "init_cov_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, "x", True])
    def test_rejects_non_finite_scales(self, name, value):
        with pytest.raises(DomainError):
            GaussConfig(d=4, k=2, **{name: value})

    def test_accepts_fixed_chain_with_positive_prior(self):
        cfg = GaussConfig(d=3, k=2, sigma_trans_scale=0.0, init_cov_scale=10.0)
        assert cfg.initial_cov_scale == 10.0
        assert GaussConfig(d=3, k=2, init_cov_scale=0.0).initial_cov_scale == 0.0


class TestGaussModel:
    def test_learned_model_at_paper_dimension(self):
        rng = np.random.default_rng(28)
        d, k, n = 2048, 10, 40
        w0 = normalize_rows(rng.standard_normal((k, d)))
        cfg = GaussConfig(d=d, k=k, learn_transition=True, learn_sigmas=True)
        model = GaussModel(w0, cfg)
        for t in range(1, 6):
            labels = rng.integers(0, k, size=n)
            model.adapt(t, w0[labels] + 0.02 * rng.standard_normal((n, d)))
        assert np.all(np.isfinite(model.prototypes))
        assert model.sigma_trans > 0.0 and model.sigma_ems > 0.0

    def test_default_model_at_paper_dimension(self):
        rng = np.random.default_rng(23)
        d, k, n = 2048, 3, 8
        w0 = normalize_rows(rng.standard_normal((k, d)))
        model = GaussModel(w0, GaussConfig(d=d, k=k))
        for t in range(1, 5):
            labels = rng.integers(0, k, size=n)
            model.adapt(t, w0[labels] + 0.02 * rng.standard_normal((n, d)))
            assert all(s.belief.cov.shape == (k,) for s in model._steps)
        assert model._anchor.cov.shape == (k,)
        probs, _ = model.predict(w0 + 0.02 * rng.standard_normal((k, d)))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_rigid_limit_stays_at_source(self):
        rng = np.random.default_rng(9)
        d = 3
        w0 = normalize_rows(rng.standard_normal((2, d)))
        cfg = GaussConfig(d=d, k=2, sigma_trans_scale=1e-12)
        model = GaussModel(w0, cfg)
        for t in (1, 2):
            model.adapt(t, rng.standard_normal((20, d)))
        assert np.max(np.abs(model.prototypes - w0)) < 1e-4

    def test_single_step_single_class_equals_weighted_update(self):
        rng = np.random.default_rng(10)
        d = 2
        w0 = np.array([[1.0, 0.5]])
        cfg = GaussConfig(d=d, k=1, init_cov_scale=0.3)
        model = GaussModel(w0, cfg)
        feats = normalize_rows(rng.standard_normal((9, d)))
        model.adapt(1, feats)
        eye = np.eye(d)
        want_means, want_covs = oracles.dense_kalman_filter(
            w0[0], 0.3 * eye, eye, cfg.sigma_trans_scale * eye, cfg.sigma_ems_scale * eye,
            [(feats.mean(axis=0), 9)])
        np.testing.assert_allclose(model.prototypes[0], want_means[0], atol=1e-12)
        var = model._steps[-1].belief.cov[0]
        np.testing.assert_allclose(var * eye, want_covs[0], atol=1e-12)

    def test_single_class_predicts_certainty(self):
        model = GaussModel(np.array([[1.0, 0.5]]), GaussConfig(d=2, k=1))
        feats = normalize_rows(np.random.default_rng(12).standard_normal((5, 2)))
        model.adapt(1, feats)
        probs, labels = model.predict(feats)
        np.testing.assert_array_equal(probs, np.ones((5, 1)))
        np.testing.assert_array_equal(labels, np.zeros(5))

    def test_single_class_matches_dense_smoother(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            t_len = int(rng.integers(1, 5))
            w0 = rng.standard_normal((1, d))
            cfg = GaussConfig(
                d=d, k=1, window=4, sigma_trans_scale=0.05,
                sigma_ems_scale=0.4, init_cov_scale=0.2,
            )
            model = GaussModel(w0, cfg)
            batches = [normalize_rows(rng.standard_normal((6, d))) for _ in range(t_len)]
            for t, b in enumerate(batches, start=1):
                model.adapt(t, b)
            obs = [(b.mean(axis=0), b.shape[0]) for b in batches]
            fm, fc = oracles.dense_kalman_filter(
                w0[0], 0.2 * np.eye(d), np.eye(d), 0.05 * np.eye(d),
                0.4 * np.eye(d), obs,
            )
            sm, sc, _ = oracles.dense_rts_smoother(fm, fc, np.eye(d), 0.05 * np.eye(d))
            for i, step in enumerate(model._steps):
                np.testing.assert_allclose(step.belief.mean[0], sm[i], atol=1e-8)
                np.testing.assert_allclose(step.belief.cov[0] * np.eye(d), sc[i], atol=1e-8)

    def test_stationary_clusters_reach_weighted_means(self):
        rng = np.random.default_rng(12)
        d = 2
        dirs = normalize_rows(np.array([[1.0, 1.0], [1.0, -1.0]]))
        w0 = normalize_rows(dirs + 0.1 * rng.standard_normal((2, d)))
        cfg = GaussConfig(
            d=d, k=2, sigma_trans_scale=0.0, init_cov_scale=10.0,
            window=5, e_sweeps=4, pi_floor=0.0,
        )
        model = GaussModel(w0, cfg)
        for t in range(1, 6):
            labels = np.repeat([0, 1], 30)
            batch = normalize_rows(dirs[labels] + 0.1 * rng.standard_normal((60, d)))
            model.adapt(t, batch)
        pooled = np.concatenate([s.feats for s in model._steps])
        resp = np.concatenate([s.resp for s in model._steps])
        for j in range(2):
            weighted = (resp[:, j] @ pooled) / resp[:, j].sum()
            np.testing.assert_allclose(model.prototypes[j], weighted, atol=1e-3)

    def test_zero_transition_equals_pooled_map_em(self):
        rng = np.random.default_rng(13)
        d, k = 2, 2
        dirs = normalize_rows(np.array([[1.0, 0.8], [0.9, -1.0]]))
        w0 = normalize_rows(dirs + 0.05 * rng.standard_normal((k, d)))
        cfg = GaussConfig(
            d=d, k=k, sigma_trans_scale=0.0, init_cov_scale=1.0,
            window=3, e_sweeps=1, pi_floor=0.0,
        )
        model = GaussModel(w0, cfg)
        step_feats = []
        for t in range(1, 4):
            labels = np.repeat([0, 1], 15)
            batch = normalize_rows(dirs[labels] + 0.15 * rng.standard_normal((30, d)))
            step_feats.append(batch)
            model.adapt(t, batch)
        extra = 40
        for _ in range(extra):
            model.coordinate_sweep()
            for s in model._steps:
                s.mixing = mixing_update(s.resp, 0.0)
        # replay the same arrival schedule, then the same extra iterations
        schedule = [[0], [0, 1], [0, 1, 2]] + [[0, 1, 2]] * extra
        want_means, _ = oracles.map_pooled_gaussian_mixture_em(
            step_feats, schedule, w0, w0, np.eye(d), cfg.sigma_ems_scale * np.eye(d)
        )
        np.testing.assert_allclose(model.prototypes, want_means, atol=1e-6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        d, k = 3, 3
        w0 = rng.standard_normal((k, d))
        perm = np.array([2, 0, 1])
        plain = GaussModel(w0, GaussConfig(d=d, k=k))
        permuted = GaussModel(w0[perm], GaussConfig(d=d, k=k))
        batches = [rng.standard_normal((10, d)) for _ in range(3)]
        for t, b in enumerate(batches, start=1):
            plain.adapt(t, b)
            permuted.adapt(t, b)
        np.testing.assert_allclose(permuted.prototypes, plain.prototypes[perm], atol=1e-10)
        h = normalize_rows(rng.standard_normal((5, d)))
        p_plain, _ = plain.predict(h)
        p_perm, _ = permuted.predict(h)
        np.testing.assert_allclose(p_perm, p_plain[:, perm], atol=1e-10)

    def test_orthogonal_invariance_of_predictions(self):
        from scipy.stats import ortho_group

        rng = np.random.default_rng(15)
        d, k = 3, 2
        rot = ortho_group.rvs(d, random_state=7)
        w0 = rng.standard_normal((k, d))
        batches = [rng.standard_normal((12, d)) for _ in range(3)]
        h = normalize_rows(rng.standard_normal((6, d)))
        plain = GaussModel(w0, GaussConfig(d=d, k=k))
        rotated = GaussModel(w0 @ rot.T, GaussConfig(d=d, k=k))
        for t, b in enumerate(batches, start=1):
            plain.adapt(t, b)
            rotated.adapt(t, b @ rot.T)
        p_plain, _ = plain.predict(h)
        p_rot, _ = rotated.predict(h @ rot.T)
        np.testing.assert_allclose(p_rot, p_plain, atol=1e-8)

    def test_covariances_stay_symmetric_psd(self):
        # every covariance is c I, symmetric by construction; PSD is c >= 0
        rng = np.random.default_rng(16)
        w0 = rng.standard_normal((3, 4))
        learned = GaussModel(w0, GaussConfig(d=4, k=3, learn_transition=True,
                                             learn_sigmas=True))
        default = GaussModel(w0, GaussConfig(d=4, k=3))
        for t in range(1, 5):
            batch = rng.standard_normal((15, 4))
            learned.adapt(t, batch)
            default.adapt(t, batch)
            for s in learned._steps + default._steps:
                assert s.belief.cov.shape == (3,) and np.all(s.belief.cov > 0.0)

    def test_time_contiguity_and_not_adapted(self):
        rng = np.random.default_rng(17)
        model = GaussModel(np.eye(2), GaussConfig(d=2, k=2))
        with pytest.raises(NotAdaptedError):
            model.predict(np.eye(2))
        model.adapt(1, normalize_rows(rng.standard_normal((4, 2))))
        with pytest.raises(NonContiguousTimeError):
            model.adapt(5, normalize_rows(rng.standard_normal((4, 2))))

    def test_learned_parameters_update(self):
        rng = np.random.default_rng(18)
        cfg = GaussConfig(d=2, k=2, learn_transition=True, learn_sigmas=True)
        model = GaussModel(rng.standard_normal((2, 2)), cfg)
        model.adapt(1, rng.standard_normal((10, 2)))
        q_before, r_before = model.sigma_trans, model.sigma_ems
        model.adapt(2, rng.standard_normal((10, 2)))
        assert model.sigma_trans != q_before and model.sigma_ems != r_before
        assert model.sigma_trans >= 1e-8 and model.sigma_ems >= 1e-8

    @pytest.mark.parametrize("window,e_sweeps,wide_prior", [
        (1, 3, False), (3, 1, True), (5, 3, True), (5, 1, False),
    ])
    def test_scalar_path_equals_dense_path(self, window, e_sweeps, wide_prior):
        rng = np.random.default_rng(20)
        d, k = 6, 4
        w0 = normalize_rows(rng.standard_normal((k, d)))
        w0[3] *= 20.0  # far from every unit-norm sample: zero responsibility
        cfg = GaussConfig(d=d, k=k, window=window, e_sweeps=e_sweeps,
                          init_cov_scale=0.2 if wide_prior else None)
        model, dense = GaussModel(w0, cfg), DenseReference(w0, cfg)
        for t in range(1, window + 4):
            labels = rng.integers(0, 3, size=12)
            batch = w0[labels] + 0.3 * rng.standard_normal((12, d))
            model.adapt(t, batch)
            dense.adapt(t, batch)
            assert model._steps[-1].resp[:, 3].sum() <= 1e-8
            assert_matches_reference(model, dense)
            h = rng.standard_normal((5, d))
            np.testing.assert_allclose(model.predict(h)[0], dense.predict(h), atol=1e-10)
        assert model.window_times[0] == 4  # three steps were evicted into the anchor

    def test_scalar_assignments_factor_nothing(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(gauss, "cho_factor", counting)
        rng = np.random.default_rng(22)
        d, k = 5, 3
        w0 = normalize_rows(rng.standard_normal((k, d)))
        # neither form factors anything, whatever it learns
        for cfg in (GaussConfig(d=d, k=k),
                    GaussConfig(d=d, k=k, learn_transition=True, learn_sigmas=True)):
            model = GaussModel(w0, cfg)
            for t in range(1, 4):
                model.adapt(t, rng.standard_normal((8, d)))
        assert not calls

    @pytest.mark.parametrize("sigma", [0.02, 0.05, 0.1])
    def test_learned_r_recovers_the_emission_variance(self, sigma):
        # unit-norm centres and noise of scale sigma: after row normalization
        # the samples scatter about the centres with variance about
        # sigma^2 (D - 1) / D per dimension
        rng = np.random.default_rng(31)
        d, k = 8, 3
        centres = normalize_rows(rng.standard_normal((k, d)))
        model = GaussModel(centres, GaussConfig(d=d, k=k, learn_sigmas=True))
        for t in range(1, 9):
            labels = np.repeat(np.arange(k), 30)
            model.adapt(t, centres[labels] + sigma * rng.standard_normal((90, d)))
        assert model.sigma_ems == pytest.approx(sigma ** 2 * (d - 1) / d, rel=0.15)

    def test_window_of_one_learns_nothing(self):
        # the M-step needs two window steps
        rng = np.random.default_rng(32)
        cfg = GaussConfig(d=3, k=2, window=1, learn_transition=True, learn_sigmas=True)
        model = GaussModel(rng.standard_normal((2, 3)), cfg)
        for t in range(1, 4):
            model.adapt(t, rng.standard_normal((10, 3)))
        assert (model.sigma_trans, model.sigma_ems) == (0.01, 0.5)

    def test_learned_model_is_orthogonally_invariant(self):
        from scipy.stats import ortho_group

        rng = np.random.default_rng(33)
        d, k = 4, 3
        rot = ortho_group.rvs(d, random_state=8)
        w0 = rng.standard_normal((k, d))
        cfg = GaussConfig(d=d, k=k, learn_transition=True, learn_sigmas=True)
        plain, rotated = GaussModel(w0, cfg), GaussModel(w0 @ rot.T, cfg)
        for t in range(1, 5):
            batch = rng.standard_normal((12, d))
            plain.adapt(t, batch)
            rotated.adapt(t, batch @ rot.T)
        np.testing.assert_allclose(rotated.prototypes, plain.prototypes @ rot.T, atol=1e-8)
        np.testing.assert_allclose([rotated.sigma_trans, rotated.sigma_ems],
                                   [plain.sigma_trans, plain.sigma_ems], rtol=1e-8)

    def test_learned_sigmas_keep_the_scalar_form(self):
        rng = np.random.default_rng(21)
        d, k = 3, 2
        model = GaussModel(rng.standard_normal((k, d)),
                           GaussConfig(d=d, k=k, learn_sigmas=True))
        for t in range(1, 4):
            model.adapt(t, rng.standard_normal((10, d)))
        assert model._steps[-1].belief.cov.shape == (k,)
        assert isinstance(model.sigma_trans, float) and isinstance(model.sigma_ems, float)
        # q is not learned, so it stays exactly the configured scale
        assert model.sigma_trans == 0.01

    @pytest.mark.parametrize("learn_transition, learn_sigmas",
                             [(True, False), (False, True), (True, True)])
    def test_each_flag_learns_its_own_noise(self, learn_transition, learn_sigmas):
        rng = np.random.default_rng(36)
        d, k = 3, 2
        cfg = GaussConfig(d=d, k=k, learn_transition=learn_transition,
                          learn_sigmas=learn_sigmas)
        model = GaussModel(rng.standard_normal((k, d)), cfg)
        for t in range(1, 4):
            model.adapt(t, rng.standard_normal((10, d)))
        assert (model.sigma_trans != 0.01) == learn_transition
        assert (model.sigma_ems != 0.5) == learn_sigmas

    def test_writing_into_views_changes_nothing(self):
        # two twin models; the held views of one are written into, and a
        # written mixing would reach the next adapt's first sweep
        rng = np.random.default_rng(41)
        d, k = 4, 3
        w0, batches = rng.standard_normal((k, d)), rng.standard_normal((3, 12, d))
        written, twin = (GaussModel(w0, GaussConfig(d=d, k=k, window=2)) for _ in range(2))
        for t in (1, 2):
            written.adapt(t, batches[t - 1])
            twin.adapt(t, batches[t - 1])
            written.prototypes[:] = 0.5
            written.mixing[:] = [0.98, 0.01, 0.01]
            np.testing.assert_array_equal(written.mixing, twin.mixing)
            np.testing.assert_array_equal(written.predict(batches[2])[0],
                                          twin.predict(batches[2])[0])


class TestExactPosterior:
    """With the responsibilities held fixed, one filter and smoother pass
    gives each class's exact chain posterior, solved from the joint
    precision of the anchor and the window."""

    @pytest.mark.parametrize("t_len", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("learned", [False, True])
    def test_smoothed_window_equals_joint_solve(self, learned, k, t_len):
        rng = np.random.default_rng(27)
        d, n = 3, 8
        cfg = GaussConfig(d=d, k=k, window=t_len, learn_transition=learned,
                          sigma_trans_scale=0.05, sigma_ems_scale=0.4, init_cov_scale=0.2)
        model = GaussModel(rng.standard_normal((k, d)), cfg)
        eye = np.eye(d)
        if learned:
            # what an M-step could leave: other q, r and prior variances
            model.sigma_trans = 0.02
            model.sigma_ems = 0.1
            model._anchor = GaussBelief(model._anchor.mean, rng.uniform(0.02, 0.1, k))
        for t in range(1, t_len + 1):
            model._push(t, rng.standard_normal((n, d)))
            model._steps[-1].resp = rng.dirichlet(np.ones(k), size=n)
        if k > 1:  # class 0 sees no data at step 2
            resp = model._steps[1].resp
            resp[:, 0] = 0.0
            resp /= resp.sum(axis=1, keepdims=True)
        model._filter_smooth()
        q, r = model.sigma_trans * eye, model.sigma_ems * eye
        for j in range(k):
            observations = []
            for s in model._steps:
                w = s.resp[:, j].sum()
                observations.append((s.resp[:, j] @ s.feats / w, w) if w > 0.0 else None)
            want_means, want_covs = oracles.exact_chain_posterior(
                model._anchor.mean[j], model._anchor.cov[j] * eye, eye, q, r, observations)
            for i, s in enumerate(model._steps):
                np.testing.assert_allclose(s.belief.mean[j], want_means[i], rtol=0, atol=1e-10)
                np.testing.assert_allclose(s.belief.cov[j] * eye, want_covs[i], rtol=0,
                                           atol=1e-10)


class TestDensePathOracle:
    """The model against `DenseReference`, the same window written with
    (D, D) matrices and explicit inverses."""

    @pytest.mark.parametrize("learn_sigmas", [False, True])
    @pytest.mark.parametrize("e_sweeps", [1, 2, 3])
    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_matches_per_class_loop(self, window, e_sweeps, learn_sigmas):
        rng = np.random.default_rng(24)
        d, k = 6, 4
        w0 = normalize_rows(rng.standard_normal((k, d)))
        w0[3] *= 20.0  # far from every sample: an empty cluster
        cfg = GaussConfig(d=d, k=k, window=window, e_sweeps=e_sweeps,
                          learn_transition=True, learn_sigmas=learn_sigmas)
        model, ref = GaussModel(w0, cfg), DenseReference(w0, cfg)
        for t in range(1, window + 4):
            labels = rng.integers(0, 3, size=12)
            batch = w0[labels] + 0.3 * rng.standard_normal((12, d))
            model.adapt(t, batch)
            ref.adapt(t, batch)
            assert model._steps[-1].resp[:, 3].sum() <= 1e-8
            assert_matches_reference(model, ref)
            h = rng.standard_normal((5, d))
            np.testing.assert_allclose(model.predict(h)[0], ref.predict(h), rtol=0, atol=1e-10)
        if window > 1:  # the M-step has run, and q was learned
            assert model.sigma_trans != cfg.sigma_trans_scale
        assert model.window_times[0] == 4  # three steps were evicted into the anchor

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_learned_sigmas_alone_match_per_class_loop(self, window):
        rng = np.random.default_rng(34)
        d, k = 6, 4
        w0 = normalize_rows(rng.standard_normal((k, d)))
        cfg = GaussConfig(d=d, k=k, window=window, learn_sigmas=True)
        model, ref = GaussModel(w0, cfg), DenseReference(w0, cfg)
        for t in range(1, window + 4):
            labels = rng.integers(0, k, size=12)
            batch = w0[labels] + 0.3 * rng.standard_normal((12, d))
            model.adapt(t, batch)
            ref.adapt(t, batch)
            assert_matches_reference(model, ref)
        assert model.sigma_trans == cfg.sigma_trans_scale

    def test_bare_sweep_after_adapt_matches_per_class_loop(self):
        # the M-step has just moved q and r: a bare sweep filters and
        # smooths the window afresh with them
        rng = np.random.default_rng(25)
        d, k = 6, 4
        w0 = normalize_rows(rng.standard_normal((k, d)))
        cfg = GaussConfig(d=d, k=k, window=3, e_sweeps=2,
                          learn_transition=True, learn_sigmas=True)
        model, ref = GaussModel(w0, cfg), DenseReference(w0, cfg)
        for t in range(1, 6):
            labels = rng.integers(0, k, size=12)
            batch = w0[labels] + 0.3 * rng.standard_normal((12, d))
            model.adapt(t, batch)
            ref.adapt(t, batch)
            model.coordinate_sweep()
            ref.sweep()
            assert_matches_reference(model, ref)

    @pytest.mark.parametrize("names", [("sigma_trans",), ("sigma_ems",),
                                       ("sigma_trans", "sigma_ems")],
                             ids=["q", "r", "all"])
    def test_parameters_set_between_bare_sweeps_take_effect(self, names):
        # two bare sweeps with q or r set by hand between them equal a
        # fresh recompute with the new values
        rng = np.random.default_rng(29)
        d, k = 6, 3
        w0 = normalize_rows(rng.standard_normal((k, d)))
        cfg = GaussConfig(d=d, k=k, window=3, learn_transition=True)
        model, ref = GaussModel(w0, cfg), DenseReference(w0, cfg)
        for t in range(1, 5):
            # confident batches: the weights repeat from sweep to sweep
            labels = np.repeat(np.arange(k), 4)
            batch = w0[labels] + 0.01 * rng.standard_normal((12, d))
            model.adapt(t, batch)
            ref.adapt(t, batch)
        model.coordinate_sweep()
        ref.sweep()
        new = dict(sigma_trans=0.03, sigma_ems=0.2)
        for tracker in (model, ref):
            for name in names:
                setattr(tracker, name, new[name])
        model.coordinate_sweep()
        ref.sweep()
        assert_matches_reference(model, ref)
