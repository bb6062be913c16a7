"""Tests for the Gaussian prototype tracker."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from stad import gauss
from stad.errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EmptyBatchError,
    InsufficientHistoryError,
    NonContiguousTimeError,
    NotAdaptedError,
    NotPositiveDefiniteError,
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


def random_spd(rng, d, scale=1.0):
    m = rng.standard_normal((d, d))
    return scale * (m @ m.T + d * np.eye(d))


def dense_twin(w0, cfg):
    """A default-config model moved to the dense form: a (K, D, D) anchor,
    (D, D) Q and R and identity transitions, so it runs the dense path."""
    model = GaussModel(w0, cfg)
    k, d = w0.shape
    eye = np.eye(d)
    model._anchor = GaussBelief(w0.copy(), np.tile(cfg.initial_cov_scale * eye, (k, 1, 1)))
    model.transition = np.tile(eye, (k, 1, 1))
    model.sigma_trans = cfg.sigma_trans_scale * eye
    model.sigma_ems = cfg.sigma_ems_scale * eye
    return model


def smooth(means, covs, transition, sigma_trans):
    """kf_smooth of (T, K, ...) filtered moments, its predictions made by kf_predict."""
    pred_means, pred_covs = np.empty(means[1:].shape), np.empty(covs[1:].shape)
    for i in range(len(means) - 1):
        pred_means[i], pred_covs[i] = kf_predict(means[i], covs[i], transition, sigma_trans)
    return kf_smooth(means, covs, pred_means, pred_covs, transition)


class TestKfPredict:
    def test_identity_transition_adds_noise(self):
        q = 0.3 * np.eye(2)
        mean, cov = kf_predict(np.array([[1.0, -2.0]]), 0.5 * np.eye(2)[None],
                               np.eye(2)[None], q)
        np.testing.assert_allclose(mean, [[1.0, -2.0]])
        np.testing.assert_allclose(cov, 0.8 * np.eye(2)[None])

    def test_scaling_transition(self):
        mean, cov = kf_predict(
            np.array([[3.0]]), np.zeros((1, 1, 1)), 2.0 * np.eye(1)[None], 0.7 * np.eye(1)
        )
        assert mean[0, 0] == pytest.approx(6.0)
        assert cov[0, 0, 0] == pytest.approx(0.7)

    def test_random_instance_matches_dense_reference(self):
        rng = np.random.default_rng(0)
        d = 3
        a = rng.standard_normal((d, d))
        q = random_spd(rng, d, 0.1)
        m0 = rng.standard_normal(d)
        p0 = random_spd(rng, d)
        mean, cov = kf_predict(m0[None], p0[None], a[None], q)
        np.testing.assert_allclose(mean[0], a @ m0, atol=1e-10)
        np.testing.assert_allclose(cov[0], a @ p0 @ a.T + q, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kf_predict(np.zeros((1, 2)), np.eye(2)[None], np.eye(3)[None], np.eye(2))


class TestKfUpdateWeighted:
    def test_textbook_scalar_step(self):
        mean, cov = kf_update_weighted(
            np.zeros((1, 1)), np.eye(1)[None], np.array([[1.0]]), np.ones((1, 1)), np.eye(1)
        )
        assert mean[0, 0] == pytest.approx(0.5)
        assert cov[0, 0, 0] == pytest.approx(0.5)

    def test_non_psd_innovation_raises_stad_error(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            kf_update_weighted(
                np.zeros((1, 2)), np.eye(2)[None], np.ones((3, 2)), np.ones((3, 1)),
                -10.0 * np.eye(2),
            )
        assert isinstance(info.value, np.linalg.LinAlgError)

    def test_negative_responsibilities_rejected(self):
        resp = np.array([[0.5], [-0.1], [0.6]])
        with pytest.raises(DomainError):
            kf_update_weighted(np.zeros((1, 2)), np.eye(2)[None], np.ones((3, 2)), resp,
                               np.eye(2))

    def test_empty_cluster_returns_prior(self):
        m0, p0 = np.array([[1.0, 2.0]]), 0.4 * np.eye(2)[None]
        feats = np.random.default_rng(1).standard_normal((5, 2))
        mean, cov = kf_update_weighted(m0, p0, feats, np.zeros((5, 1)), np.eye(2))
        np.testing.assert_array_equal(mean, m0)
        np.testing.assert_array_equal(cov, p0)

    def test_random_instance_matches_dense_reference(self):
        rng = np.random.default_rng(2)
        d, n = 3, 5
        m0 = rng.standard_normal(d)
        p0 = random_spd(rng, d)
        r = random_spd(rng, d, 0.5)
        feats = rng.standard_normal((n, d))
        w = rng.uniform(0.1, 1.0, size=n)
        mean, cov = kf_update_weighted(m0[None], p0[None], feats, w[:, None], r)
        obs = (w @ feats) / w.sum()
        gain = p0 @ np.linalg.inv(p0 + r / w.sum())
        np.testing.assert_allclose(mean[0], m0 + gain @ (obs - m0), atol=1e-9)
        np.testing.assert_allclose(cov[0], (np.eye(d) - gain) @ p0, atol=1e-9)

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(3)
        d = 4
        _, cov = kf_update_weighted(
            rng.standard_normal((1, d)),
            random_spd(rng, d)[None],
            rng.standard_normal((7, d)),
            rng.uniform(0.0, 1.0, size=(7, 1)),
            random_spd(rng, d, 0.3),
        )
        np.testing.assert_allclose(cov[0], cov[0].T, atol=1e-10)
        assert np.linalg.eigvalsh(cov[0]).min() >= -1e-8


class TestKfSmooth:
    def test_single_step_is_identity(self):
        means = np.array([[[1.0, 2.0]]])
        covs = np.array([[0.5 * np.eye(2)]])
        sm, sc, gains = smooth(means, covs, np.eye(2)[None], 0.1 * np.eye(2))
        np.testing.assert_array_equal(sm, means)
        np.testing.assert_array_equal(sc, covs)
        assert gains.shape == (0, 1, 2, 2)

    def test_rigid_chain_equalizes_means(self):
        rng = np.random.default_rng(4)
        d = 2
        means = rng.standard_normal((3, 1, d))
        covs = np.stack([random_spd(rng, d) for _ in range(3)])[:, None]
        sm, _, _ = smooth(means, covs, np.eye(d)[None], 1e-14 * np.eye(d))
        np.testing.assert_allclose(sm[0], sm[2], atol=1e-6)
        np.testing.assert_allclose(sm[1], sm[2], atol=1e-6)

    def test_random_instance_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        d, t = 2, 3
        a = np.eye(d) + 0.1 * rng.standard_normal((d, d))
        q = random_spd(rng, d, 0.05)
        means = rng.standard_normal((t, d))
        covs = np.stack([random_spd(rng, d) for _ in range(t)])
        sm, sc, gains = smooth(means[:, None], covs[:, None], a[None], q)
        om, oc, og = oracles.dense_rts_smoother(list(means), list(covs), a, q)
        np.testing.assert_allclose(sm[:, 0], np.stack(om), atol=1e-8)
        np.testing.assert_allclose(sc[:, 0], np.stack(oc), atol=1e-8)
        np.testing.assert_allclose(gains[:, 0], np.stack(og), atol=1e-8)


class TestStackedKf:
    """K classes in one call give the same numbers as one call per class."""

    K, D, N = 4, 5, 9

    def setup_method(self):
        rng = np.random.default_rng(25)
        k, d, n = self.K, self.D, self.N
        self.mean = rng.standard_normal((k, d))
        self.cov = np.stack([random_spd(rng, d, 0.2) for _ in range(k)])
        self.a = np.eye(d) + 0.2 * rng.standard_normal((k, d, d))
        self.q = random_spd(rng, d, 0.05)
        self.r = random_spd(rng, d, 0.3)
        self.feats = rng.standard_normal((n, d))
        self.resp = rng.dirichlet(np.ones(k), size=n)
        self.resp[:, 2] = 0.0  # an empty cluster keeps its prior
        self.rng = rng

    def test_predict(self):
        mean, cov = kf_predict(self.mean, self.cov, self.a, self.q)
        for j in range(self.K):
            m1, c1 = kf_predict(self.mean[j:j + 1], self.cov[j:j + 1], self.a[j:j + 1],
                                self.q)
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
        covs = np.stack([np.stack([random_spd(self.rng, self.D, 0.2) for _ in range(self.K)])
                         for _ in range(t_len)])
        sm, sc, gains = smooth(means, covs, self.a, self.q)
        assert gains.shape == (t_len - 1, self.K, self.D, self.D)
        for j in range(self.K):
            sm1, sc1, g1 = smooth(means[:, j:j + 1], covs[:, j:j + 1], self.a[j:j + 1], self.q)
            np.testing.assert_allclose(sm[:, j:j + 1], sm1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sc[:, j:j + 1], sc1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gains[:, j:j + 1], g1, rtol=0, atol=1e-12)

    def test_one_non_pd_class_raises(self):
        cov = self.cov.copy()
        cov[1] = -10.0 * np.eye(self.D)
        with pytest.raises(NotPositiveDefiniteError):
            kf_update_weighted(self.mean, cov, self.feats, self.resp, self.r)
        means = np.stack([self.mean, self.mean])
        covs = np.stack([self.cov, self.cov])
        pred_covs = self.cov[None].copy()
        pred_covs[0, 3] = -np.eye(self.D)
        with pytest.raises(NotPositiveDefiniteError):
            kf_smooth(means, covs, self.mean[None], pred_covs, self.a)

    def test_mismatched_class_axes_raise(self):
        with pytest.raises(DimensionMismatchError):
            kf_predict(self.mean, self.cov, self.a[:2], self.q)
        with pytest.raises(DimensionMismatchError):
            kf_update_weighted(self.mean, self.cov, self.feats, self.resp[:, :2], self.r)
        with pytest.raises(DimensionMismatchError):
            kf_smooth(np.stack([self.mean] * 2), np.stack([self.cov] * 2),
                      self.mean[None], self.cov[None], self.a[:2])


class TestNonFiniteInputs:
    """A NaN covariance raises a StadError, not scipy's bare ValueError."""

    @staticmethod
    def nan_cov(d=2, lead=()):
        cov = np.tile(np.eye(d), lead + (1, 1))
        cov[..., 0, 1] = np.nan
        return cov

    @pytest.mark.parametrize("lead", [(1,), (3,)])
    def test_kf_predict(self, lead):
        with pytest.raises(DomainError):
            kf_predict(np.zeros(lead + (2,)), self.nan_cov(lead=lead),
                       np.tile(np.eye(2), lead + (1, 1)), np.eye(2))

    @pytest.mark.parametrize("lead", [(1,), (3,)])
    def test_kf_update_weighted(self, lead):
        mean, resp, feats = np.zeros(lead + (2,)), np.ones((4,) + lead), np.ones((4, 2))
        with pytest.raises(DomainError):
            kf_update_weighted(mean, self.nan_cov(lead=lead), feats, resp, np.eye(2))
        with pytest.raises(DomainError):
            kf_update_weighted(mean, np.tile(np.eye(2), lead + (1, 1)), feats, resp,
                               self.nan_cov())

    @pytest.mark.parametrize("lead", [(1,), (3,)])
    def test_kf_smooth(self, lead):
        means, eyes = np.zeros((2,) + lead + (2,)), np.tile(np.eye(2), lead + (1, 1))
        with pytest.raises(DomainError):
            kf_smooth(means, self.nan_cov(lead=(2,) + lead), means[1:], eyes[None], eyes)

    def test_unstacked_shapes_raise(self):
        """The kf_* take one stacked form: a 1-D mean, a (T, D) chain or a
        shared (D, D) transition is a shape error, not a bare ValueError."""
        eye, mean, feats = np.eye(2), np.zeros((1, 2)), np.ones((4, 2))
        chain, chain_covs = np.zeros((2, 1, 2)), np.tile(eye, (2, 1, 1, 1))
        calls = [
            # a 1-D mean with its (D, D) covariance
            lambda: kf_predict(mean[0], eye, eye[None], eye),
            lambda: kf_update_weighted(mean[0], eye, feats, np.ones(4), eye),
            # a (T, D) chain with (T, D, D) covariances
            lambda: kf_smooth(chain[:, 0], chain_covs[:, 0], chain[1:, 0], chain_covs[1:, 0],
                              eye[None]),
            # a shared (D, D) transition
            lambda: kf_predict(mean, eye[None], eye, eye),
            lambda: kf_smooth(chain, chain_covs, chain[1:], chain_covs[1:], eye),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatchError):
                call()

    @pytest.mark.parametrize("learn_transition", [False, True])
    def test_model_with_nan_emission_covariance(self, learn_transition):
        rng = np.random.default_rng(26)
        cfg = GaussConfig(d=2, k=3, learn_sigmas=True, learn_transition=learn_transition)
        model = GaussModel(rng.standard_normal((3, 2)), cfg)
        model.sigma_ems = self.nan_cov()
        with pytest.raises(StadError):
            model.adapt(1, rng.standard_normal((6, 2)))


class TestGaussAssignments:
    def test_single_class(self):
        belief = GaussBelief(np.zeros((1, 2)), np.stack([np.eye(2)]))
        resp = gauss_assignments(np.ones((4, 2)), belief, np.ones(1), np.eye(2))
        np.testing.assert_array_equal(resp, np.ones((4, 1)))

    def test_symmetric_point_is_uniform(self):
        belief = GaussBelief(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.stack([np.eye(2)] * 2)
        )
        resp = gauss_assignments(
            np.array([[0.0, 3.0]]), belief, np.full(2, 0.5), np.eye(2)
        )
        np.testing.assert_allclose(resp, [[0.5, 0.5]], atol=1e-12)

    def test_scalar_frozen_value(self):
        belief = GaussBelief(np.array([[0.0], [2.0]]), np.stack([np.eye(1)] * 2))
        resp = gauss_assignments(
            np.array([[0.0]]), belief, np.full(2, 0.5), np.eye(1)
        )
        assert resp[0, 0] == pytest.approx(LAMBDA_TWO_POINT, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        belief = GaussBelief(
            rng.standard_normal((3, 4)), np.stack([random_spd(rng, 4)] * 3)
        )
        resp = gauss_assignments(
            rng.standard_normal((11, 4)), belief, np.full(3, 1 / 3), random_spd(rng, 4)
        )
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_shared_covariance_matches_explicit_inverse(self):
        rng = np.random.default_rng(19)
        k, d = 4, 5
        belief = GaussBelief(rng.standard_normal((k, d)), np.stack([np.eye(d)] * k))
        mixing = rng.dirichlet(np.ones(k))
        r = random_spd(rng, d, 0.2)
        feats = rng.standard_normal((9, d))
        resp = gauss_assignments(feats, belief, mixing, r)
        diff = feats[:, None, :] - belief.mean[None]
        quad = np.einsum("nkd,de,nke->nk", diff, np.linalg.inv(r), diff)
        logits = np.log(mixing) - 0.5 * quad
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(resp, want / want.sum(axis=1, keepdims=True), atol=1e-12)

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


class TestSolve:
    """`_solve` against scipy's cho_solve and solve_triangular."""

    def spd_stack(self, rng, k, d):
        return np.stack([random_spd(rng, d) for _ in range(k)])

    def assert_close(self, got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def want(self, spd, x, half):
        if half:
            return solve_triangular(np.linalg.cholesky(spd), x, lower=True)
        return cho_solve(cho_factor(spd, lower=True), x)

    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("half", [False, True])
    def test_single_matrix(self, d, half):
        rng = np.random.default_rng(d)
        spd = random_spd(rng, d)
        x = rng.standard_normal((d, 5))
        got = gauss._solve(gauss._cholesky(spd), x.copy(), half=half)
        self.assert_close(got, self.want(spd, x, half))

    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("half", [False, True])
    def test_stack(self, d, half):
        rng = np.random.default_rng(100 + d)
        spd = self.spd_stack(rng, 4, d)
        x = rng.standard_normal((4, d, 7))
        got = gauss._solve(gauss._cholesky(spd), x.copy(), half=half)
        for i in range(4):
            self.assert_close(got[i], self.want(spd[i], x[i], half))

    @pytest.mark.parametrize("half", [False, True])
    def test_solves_in_place(self, half):
        rng = np.random.default_rng(5)
        spd = self.spd_stack(rng, 3, 6)
        x = rng.standard_normal((3, 6, 6))
        want = np.stack([self.want(s, b, half) for s, b in zip(spd, x)])
        out = gauss._solve(gauss._cholesky(spd), x, half=half)
        assert out is x
        self.assert_close(x, want)

    @pytest.mark.parametrize("half", [False, True])
    def test_transposed_view_comes_back_solved(self, half):
        rng = np.random.default_rng(8)
        spd = self.spd_stack(rng, 3, 5)
        x = np.swapaxes(rng.standard_normal((3, 5, 5)), -1, -2)
        want = np.stack([self.want(s, b, half) for s, b in zip(spd, x)])
        self.assert_close(gauss._solve(gauss._cholesky(spd), x, half=half), want)
        single = rng.standard_normal((4, 5)).T
        self.assert_close(gauss._solve(gauss._cholesky(spd[0]), single, half=half),
                          self.want(spd[0], single, half))

    def test_reads_the_lower_triangle_only(self):
        rng = np.random.default_rng(9)
        spd = random_spd(rng, 4)
        factor = gauss._cholesky(spd)
        factor[np.triu_indices(4, 1)] = np.nan
        x = rng.standard_normal((4, 3))
        self.assert_close(gauss._solve(factor, x.copy()), self.want(spd, x, False))


class TestGaussMStep:
    def test_learn_flags_off(self):
        belief = GaussBelief(np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        out = gauss_m_step([belief, belief], [np.stack([np.eye(2)] * 2)], [], [],
                           np.stack([np.eye(2)] * 2), False, False)
        assert out == (None, None, None)

    def test_static_chain_recovers_identity(self):
        rng = np.random.default_rng(7)
        k, d = 2, 3
        mean = rng.standard_normal((k, d))
        cov = np.stack([random_spd(rng, d) for _ in range(k)])
        beliefs = [GaussBelief(mean.copy(), cov.copy()) for _ in range(3)]
        gains = [np.stack([np.eye(d)] * k) for _ in range(2)]
        new_a, _, _ = gauss_m_step(
            beliefs, gains, [], [], np.stack([np.eye(d)] * k), True, False
        )
        for j in range(k):
            np.testing.assert_allclose(new_a[j], np.eye(d), atol=1e-6)

    def test_one_dimension_matches_closed_form(self):
        # At D = 1 every moment is a scalar per class: a = s_lag / s_prev,
        # q = mean_k (s_cur - 2 a s_lag + a^2 s_prev) / (T - 1), and r the
        # weighted mean of (h - m)^2 + P over every sample and class.
        rng = np.random.default_rng(11)
        t_len, k = 4, 3
        means = rng.standard_normal((t_len, k))
        covs = rng.uniform(0.5, 1.5, (t_len, k))
        gains = rng.uniform(0.2, 0.9, (t_len - 1, k))
        feats = [rng.standard_normal((n, 1)) for n in (5, 0, 4, 6)]
        resps = [normalize_rows(rng.uniform(0.1, 1.0, (len(h), k))) for h in feats]
        beliefs = [GaussBelief(m[:, None], c[:, None, None]) for m, c in zip(means, covs)]
        new_a, new_q, new_r = gauss_m_step(
            beliefs, [g[:, None, None] for g in gains], resps, feats,
            np.ones((k, 1, 1)), True, True)

        s_prev = (covs[:-1] + means[:-1] ** 2).sum(axis=0)
        s_lag = (covs[1:] * gains + means[1:] * means[:-1]).sum(axis=0)
        s_cur = (covs[1:] + means[1:] ** 2).sum(axis=0)
        a = s_lag / (s_prev + 1e-8)
        q = (s_cur - 2.0 * a * s_lag + a ** 2 * s_prev).sum() / ((t_len - 1) * k)
        r = sum((w * ((h - m) ** 2 + c)).sum() for h, w, m, c in zip(feats, resps, means, covs))
        r /= sum(len(h) for h in feats)
        assert q > 1e-8
        np.testing.assert_allclose(new_a[:, 0, 0], a, rtol=1e-12)
        np.testing.assert_allclose(new_q, [[q]], rtol=1e-10)
        np.testing.assert_allclose(new_r, [[r]], rtol=1e-12)

    def test_insufficient_history(self):
        belief = GaussBelief(np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        with pytest.raises(InsufficientHistoryError):
            gauss_m_step([belief], [], [], [], np.stack([np.eye(2)] * 2), True, False)

    def test_empty_window_raises_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            gauss_m_step([], [], [], [], np.stack([np.eye(2)] * 2), True, False)

    @staticmethod
    def valid_inputs(t=3, k=2, d=2):
        rng = np.random.default_rng(9)
        return dict(
            smoothed=[GaussBelief(rng.standard_normal((k, d)),
                                  np.stack([random_spd(rng, d, 0.2) for _ in range(k)]))
                      for _ in range(t)],
            gains=np.tile(0.5 * np.eye(d), (t - 1, k, 1, 1)),
            resps=[rng.dirichlet(np.ones(k), size=6) for _ in range(t)],
            feats=[rng.standard_normal((6, d)) for _ in range(t)],
            transition=np.tile(np.eye(d), (k, 1, 1)),
            learn_transition=True,
            learn_sigmas=True,
        )

    MISMATCHES = {
        "short_feats": lambda a: dict(feats=a["feats"][:-1]),
        "short_resps": lambda a: dict(resps=a["resps"][:-1]),
        "shared_transition": lambda a: dict(transition=np.eye(2), learn_transition=False),
        "short_gains": lambda a: dict(gains=a["gains"][:-1]),
        "ragged_gains": lambda a: dict(gains=[a["gains"][0], np.eye(2)]),
        "class_count": lambda a: dict(smoothed=a["smoothed"][:-1] + [
            GaussBelief(np.zeros((3, 2)), np.stack([np.eye(2)] * 3))]),
        "feature_dim": lambda a: dict(feats=[np.ones((6, 3))] * 3),
        "resp_classes": lambda a: dict(resps=[np.full((6, 3), 1.0 / 3.0)] * 3),
        "scalar_covs": lambda a: dict(smoothed=[
            GaussBelief(b.mean, np.ones(2)) for b in a["smoothed"]]),
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

    def test_matches_independent_script(self):
        rng = np.random.default_rng(8)
        k, d, t = 2, 2, 3
        beliefs = [
            GaussBelief(
                rng.standard_normal((k, d)),
                np.stack([random_spd(rng, d, 0.2) for _ in range(k)]),
            )
            for _ in range(t)
        ]
        gains = [
            np.stack([0.5 * np.eye(d) + 0.05 * rng.standard_normal((d, d))
                      for _ in range(k)])
            for _ in range(t - 1)
        ]
        resps = [rng.dirichlet(np.ones(k), size=6) for _ in range(t)]
        feats = [rng.standard_normal((6, d)) for _ in range(t)]
        a0 = np.stack([np.eye(d)] * k)
        new_a, new_q, new_r = gauss_m_step(
            beliefs, gains, resps, feats, a0, True, True
        )

        # independent evaluation of the same closed forms (explicit inverses)
        for j in range(k):
            s_prev = sum(
                beliefs[i - 1].cov[j]
                + np.outer(beliefs[i - 1].mean[j], beliefs[i - 1].mean[j])
                for i in range(1, t)
            )
            s_lag = sum(
                beliefs[i].cov[j] @ gains[i - 1][j].T
                + np.outer(beliefs[i].mean[j], beliefs[i - 1].mean[j])
                for i in range(1, t)
            )
            want = s_lag @ np.linalg.inv(s_prev + 1e-8 * np.eye(d))
            np.testing.assert_allclose(new_a[j], want, atol=1e-8)

        q_acc = np.zeros((d, d))
        for j in range(k):
            for i in range(1, t):
                e_prev = beliefs[i - 1].cov[j] + np.outer(
                    beliefs[i - 1].mean[j], beliefs[i - 1].mean[j]
                )
                e_cur = beliefs[i].cov[j] + np.outer(
                    beliefs[i].mean[j], beliefs[i].mean[j]
                )
                e_lag = beliefs[i].cov[j] @ gains[i - 1][j].T + np.outer(
                    beliefs[i].mean[j], beliefs[i - 1].mean[j]
                )
                aj = new_a[j]
                q_acc += e_cur - aj @ e_lag.T - e_lag @ aj.T + aj @ e_prev @ aj.T
        q_want = q_acc / ((t - 1) * k)
        q_want = 0.5 * (q_want + q_want.T)
        np.testing.assert_allclose(new_q, q_want, atol=1e-8)

        r_acc = np.zeros((d, d))
        n_tot = 0
        for i in range(t):
            n_tot += feats[i].shape[0]
            for j in range(k):
                diff = feats[i] - beliefs[i].mean[j]
                w = resps[i][:, j]
                r_acc += (diff * w[:, None]).T @ diff + w.sum() * beliefs[i].cov[j]
        np.testing.assert_allclose(new_r, r_acc / n_tot, atol=1e-8)


class TestEigFloor:
    floor = gauss._EIG_FLOOR

    def with_spectrum(self, vals, seed=0):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(vals),) * 2))
        return (q * np.asarray(vals)) @ q.T

    def eigh_floor(self, m):
        vals, vecs = np.linalg.eigh(gauss._sym(m))
        return gauss._sym((vecs * np.maximum(vals, self.floor)) @ vecs.T)

    def test_above_floor_returns_symmetric_part(self):
        rng = np.random.default_rng(3)
        m = self.with_spectrum(np.linspace(0.01, 1.0, 8)) + 1e-3 * rng.standard_normal((8, 8))
        out = gauss._eig_floor(m)
        np.testing.assert_array_equal(out, gauss._sym(m))
        np.testing.assert_allclose(out, self.eigh_floor(m), rtol=0, atol=1e-14)

    def test_below_floor_raises_smallest_eigenvalue_to_floor(self):
        vals = np.array([-0.5, 1e-12, 0.3, 1.0])
        out = gauss._eig_floor(self.with_spectrum(vals, seed=1))
        got = np.linalg.eigvalsh(out)
        np.testing.assert_allclose(got, [self.floor, self.floor, 0.3, 1.0], rtol=0, atol=1e-14)
        np.testing.assert_array_equal(out, out.T)

    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    def test_eigenvalue_near_floor(self, offset):
        m = self.with_spectrum([self.floor + offset, 0.2, 0.7, 1.0], seed=2)
        out = gauss._eig_floor(m)
        assert np.linalg.eigvalsh(out).min() >= self.floor - 1e-15
        np.testing.assert_allclose(out, self.eigh_floor(m), rtol=0, atol=1e-14)


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
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_scales(self, name, value):
        with pytest.raises(DomainError):
            GaussConfig(d=4, k=2, **{name: value})

    def test_accepts_fixed_chain_with_positive_prior(self):
        cfg = GaussConfig(d=3, k=2, sigma_trans_scale=0.0, init_cov_scale=10.0)
        assert cfg.initial_cov_scale == 10.0
        assert GaussConfig(d=3, k=2, init_cov_scale=0.0).initial_cov_scale == 0.0


class TestGaussModel:
    def test_high_dim_gate(self):
        # only the dense form, which learned parameters need, is gated
        for flag in ("learn_transition", "learn_sigmas"):
            with pytest.raises(ConfigError):
                GaussModel(np.zeros((2, 300)), GaussConfig(d=300, k=2, **{flag: True}))
        model = GaussModel(np.zeros((2, 300)), GaussConfig(d=300, k=2))
        assert model._anchor.cov.shape == (2,)

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
        pm, pc = kf_predict(
            w0, 0.3 * np.eye(d)[None], np.eye(d)[None], cfg.sigma_trans_scale * np.eye(d)
        )
        want_mean, want_cov = kf_update_weighted(
            pm, pc, feats, np.ones((9, 1)), cfg.sigma_ems_scale * np.eye(d)
        )
        np.testing.assert_allclose(model.prototypes, want_mean, atol=1e-12)
        var = model._steps[-1].belief.cov[0]
        np.testing.assert_allclose(var * np.eye(d), want_cov[0], atol=1e-12)

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
        all_feats, all_resp = [], None
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
        rng = np.random.default_rng(16)
        w0 = rng.standard_normal((3, 4))
        learned = GaussModel(w0, GaussConfig(d=4, k=3, learn_transition=True,
                                             learn_sigmas=True))
        default = GaussModel(w0, GaussConfig(d=4, k=3))
        for t in range(1, 5):
            batch = rng.standard_normal((15, 4))
            learned.adapt(t, batch)
            default.adapt(t, batch)
            for s in learned._steps:
                for j in range(3):
                    cov = s.belief.cov[j]
                    np.testing.assert_allclose(cov, cov.T, atol=1e-10)
                    assert np.linalg.eigvalsh(cov).min() >= -1e-8
            for s in default._steps:
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
        q_before = model.sigma_trans.copy()
        model.adapt(2, rng.standard_normal((10, 2)))
        assert not np.allclose(model.sigma_trans, q_before)
        assert np.linalg.eigvalsh(model.sigma_trans).min() >= 1e-8 - 1e-12
        assert np.linalg.eigvalsh(model.sigma_ems).min() >= 1e-8 - 1e-12

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
        scalar, dense = GaussModel(w0, cfg), dense_twin(w0, cfg)
        for t in range(1, window + 4):
            labels = rng.integers(0, 3, size=12)
            batch = w0[labels] + 0.3 * rng.standard_normal((12, d))
            scalar.adapt(t, batch)
            dense.adapt(t, batch)
            assert scalar._steps[-1].resp[:, 3].sum() <= 1e-8
            for a, b in zip(scalar._steps, dense._steps):
                assert a.belief.cov.shape == (k,) and b.belief.cov.shape == (k, d, d)
                np.testing.assert_allclose(a.belief.mean, b.belief.mean, atol=1e-10)
                np.testing.assert_allclose(a.belief.cov[:, None, None] * np.eye(d),
                                           b.belief.cov, atol=1e-10)
                np.testing.assert_allclose(a.resp, b.resp, atol=1e-10)
                np.testing.assert_allclose(a.mixing, b.mixing, atol=1e-10)
            np.testing.assert_allclose(scalar._anchor.mean, dense._anchor.mean, atol=1e-10)
            np.testing.assert_allclose(scalar._anchor.cov[:, None, None] * np.eye(d),
                                       dense._anchor.cov, atol=1e-10)
            h = rng.standard_normal((5, d))
            np.testing.assert_allclose(scalar.predict(h)[0], dense.predict(h)[0], atol=1e-10)
        assert scalar.window_times[0] == 4  # three steps were evicted into the anchor

    def test_scalar_assignments_factor_nothing(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(gauss, "cho_factor", counting)
        rng = np.random.default_rng(22)
        d, k = 5, 3
        w0 = normalize_rows(rng.standard_normal((k, d)))
        # the scalar form never factors r * I
        cfg = GaussConfig(d=d, k=k)
        scalar, dense = GaussModel(w0, cfg), dense_twin(w0, cfg)
        for t in range(1, 4):
            batch = rng.standard_normal((8, d))
            scalar.adapt(t, batch)
            assert not calls
            dense.adapt(t, batch)
            # soft assignments move every step's weights between sweeps, so the
            # dense filter alone factors once per class and step in each sweep
            assert len(calls) >= k * t * cfg.e_sweeps
            calls.clear()

    def test_learned_sigmas_take_the_dense_path(self):
        rng = np.random.default_rng(21)
        d, k = 3, 2
        model = GaussModel(rng.standard_normal((k, d)),
                           GaussConfig(d=d, k=k, learn_sigmas=True))
        for t in range(1, 4):
            model.adapt(t, rng.standard_normal((10, d)))
        cov = model._steps[-1].belief.cov
        iso = cov[:, :1, :1] * np.eye(d)
        assert np.abs(cov - iso).max() > 1e-6


class TestExactPosterior:
    """With the responsibilities held fixed, one filter and smoother pass
    gives each class's exact chain posterior, solved from the joint
    precision of the anchor and the window."""

    @pytest.mark.parametrize("t_len", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dense", [False, True])
    def test_smoothed_window_equals_joint_solve(self, dense, k, t_len):
        rng = np.random.default_rng(27)
        d, n = 3, 8
        cfg = GaussConfig(d=d, k=k, window=t_len, learn_transition=dense,
                          sigma_trans_scale=0.05, sigma_ems_scale=0.4, init_cov_scale=0.2)
        model = GaussModel(rng.standard_normal((k, d)), cfg)
        eye = np.eye(d)
        if dense:
            model.transition = eye + 0.2 * rng.standard_normal((k, d, d))
            model.sigma_trans = random_spd(rng, d, 0.02)
            model.sigma_ems = random_spd(rng, d, 0.1)
            model._anchor = GaussBelief(model._anchor.mean,
                                        np.stack([random_spd(rng, d, 0.05) for _ in range(k)]))
        for t in range(1, t_len + 1):
            model._push(t, rng.standard_normal((n, d)))
            model._steps[-1].resp = rng.dirichlet(np.ones(k), size=n)
        if k > 1:  # class 0 sees no data at step 2
            resp = model._steps[1].resp
            resp[:, 0] = 0.0
            resp /= resp.sum(axis=1, keepdims=True)
        if dense:
            model._dense_filter_smooth()
            a, q, r = model.transition, model.sigma_trans, model.sigma_ems
            anchor_cov, covs = model._anchor.cov, [s.belief.cov for s in model._steps]
        else:
            model._scalar_filter_smooth()
            a, q, r = np.tile(eye, (k, 1, 1)), model.sigma_trans * eye, model.sigma_ems * eye
            anchor_cov = model._anchor.cov[:, None, None] * eye
            covs = [s.belief.cov[:, None, None] * eye for s in model._steps]
        for j in range(k):
            observations = []
            for s in model._steps:
                w = s.resp[:, j].sum()
                observations.append((s.resp[:, j] @ s.feats / w, w) if w > 0.0 else None)
            want_means, want_covs = oracles.exact_chain_posterior(
                model._anchor.mean[j], anchor_cov[j], a[j], q, r, observations)
            for i, s in enumerate(model._steps):
                np.testing.assert_allclose(s.belief.mean[j], want_means[i], rtol=0, atol=1e-10)
                np.testing.assert_allclose(covs[i][j], want_covs[i], rtol=0, atol=1e-10)


class PerClassLoopModel(GaussModel):
    """Reference for the dense path: one kf_* call per class on its [j:j+1]
    slices and step, smoother predictions recomputed by kf_predict, and a
    per-class transition solve, as the dense path was first written."""

    def adapt(self, t, feats):
        cfg = self.config
        self._push(t, feats)
        for _ in range(cfg.e_sweeps):
            self.coordinate_sweep()
        for s in self._steps:
            s.mixing = mixing_update(s.resp, cfg.pi_floor)
        if len(self._steps) >= 2:
            beliefs = [s.belief for s in self._steps]
            new_a = self.transition
            if cfg.learn_transition:
                new_a = per_class_transition(beliefs, self._last_gains)
                self.transition = new_a
            if cfg.learn_sigmas:
                _, self.sigma_trans, self.sigma_ems = gauss_m_step(
                    beliefs, self._last_gains, [s.resp for s in self._steps],
                    [s.feats for s in self._steps], new_a, False, True)
        return self

    def _dense_filter_smooth(self, full=True):
        # the reference ignores the sweep hint and keeps no record: it
        # predicts the anchor, filters and smooths in full every time
        k, d = self.config.k, self.config.d
        steps = self._steps
        t_len = len(steps)
        f_means = np.empty((t_len, k, d))
        f_covs = np.empty((t_len, k, d, d))
        prev = self._anchor
        for i, step in enumerate(steps):
            for j in range(k):
                cls = slice(j, j + 1)
                pm, pc = kf_predict(prev.mean[cls], prev.cov[cls], self.transition[cls],
                                    self.sigma_trans)
                f_means[i, cls], f_covs[i, cls] = kf_update_weighted(
                    pm, pc, step.feats, step.resp[:, cls], self.sigma_ems)
            prev = GaussBelief(f_means[i], f_covs[i])
        s_means = np.empty_like(f_means)
        s_covs = np.empty_like(f_covs)
        self._last_gains = np.empty((t_len - 1, k, d, d))
        for j in range(k):
            cls = slice(j, j + 1)
            s_means[:, cls], s_covs[:, cls], self._last_gains[:, cls] = smooth(
                f_means[:, cls], f_covs[:, cls], self.transition[cls], self.sigma_trans)
        for i, step in enumerate(steps):
            step.belief = GaussBelief(s_means[i], s_covs[i])


def per_class_transition(beliefs, gains):
    """Lag-one least squares per class, one Cholesky solve each."""
    k, d = beliefs[0].mean.shape
    new_a = np.empty((k, d, d))
    for j in range(k):
        s_prev = sum(b.cov[j] + np.outer(b.mean[j], b.mean[j]) for b in beliefs[:-1])
        s_lag = sum(cur.cov[j] @ g[j].T + np.outer(cur.mean[j], prev.mean[j])
                    for prev, cur, g in zip(beliefs[:-1], beliefs[1:], gains))
        factor = cho_factor(0.5 * (s_prev + s_prev.T) + 1e-8 * np.eye(d), lower=True)
        new_a[j] = cho_solve(factor, s_lag.T).T
    return new_a


class TestDensePathOracle:
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
        model, ref = GaussModel(w0, cfg), PerClassLoopModel(w0, cfg)
        for t in range(1, window + 4):
            labels = rng.integers(0, 3, size=12)
            batch = w0[labels] + 0.3 * rng.standard_normal((12, d))
            model.adapt(t, batch)
            ref.adapt(t, batch)
            assert model._steps[-1].resp[:, 3].sum() <= 1e-8
            for a, b in zip(model._steps, ref._steps):
                np.testing.assert_allclose(a.belief.mean, b.belief.mean, rtol=0, atol=1e-10)
                np.testing.assert_allclose(a.belief.cov, b.belief.cov, rtol=0, atol=1e-10)
                np.testing.assert_allclose(a.resp, b.resp, rtol=0, atol=1e-10)
                np.testing.assert_allclose(a.mixing, b.mixing, rtol=0, atol=1e-10)
            assert len(model._last_gains) == len(ref._last_gains) == len(model._steps) - 1
            for g, h in zip(model._last_gains, ref._last_gains):
                np.testing.assert_allclose(g, h, rtol=0, atol=1e-10)
            for name in ("transition", "sigma_trans", "sigma_ems"):
                np.testing.assert_allclose(getattr(model, name), getattr(ref, name),
                                           rtol=0, atol=1e-10)
            np.testing.assert_allclose(model._anchor.mean, ref._anchor.mean, rtol=0, atol=1e-10)
            np.testing.assert_allclose(model._anchor.cov, ref._anchor.cov, rtol=0, atol=1e-10)
            h = rng.standard_normal((5, d))
            np.testing.assert_allclose(model.predict(h)[0], ref.predict(h)[0],
                                       rtol=0, atol=1e-10)
        assert model.window_times[0] == 4  # three steps were evicted into the anchor

    def test_bare_sweep_after_adapt_matches_per_class_loop(self):
        # the M-step has just moved A, Q and R: a bare sweep must predict
        # the anchor afresh and smooth the covariances and gains in full
        rng = np.random.default_rng(25)
        d, k = 6, 4
        w0 = normalize_rows(rng.standard_normal((k, d)))
        cfg = GaussConfig(d=d, k=k, window=3, e_sweeps=2,
                          learn_transition=True, learn_sigmas=True)
        model, ref = GaussModel(w0, cfg), PerClassLoopModel(w0, cfg)
        for t in range(1, 6):
            labels = rng.integers(0, k, size=12)
            batch = w0[labels] + 0.3 * rng.standard_normal((12, d))
            model.adapt(t, batch)
            ref.adapt(t, batch)
            model.coordinate_sweep()
            ref.coordinate_sweep()
            for a, b in zip(model._steps, ref._steps):
                np.testing.assert_allclose(a.belief.mean, b.belief.mean, rtol=0, atol=1e-10)
                np.testing.assert_allclose(a.belief.cov, b.belief.cov, rtol=0, atol=1e-10)
                np.testing.assert_allclose(a.resp, b.resp, rtol=0, atol=1e-10)
            np.testing.assert_allclose(model._last_gains, ref._last_gains, rtol=0, atol=1e-10)


class TestDenseFilterRecord:
    """Within one `adapt`, a sweep keeps the filter covariances of the
    longest prefix of steps whose weights equal the previous sweep's."""

    D, K, N = 6, 4, 12

    def model_pair(self, e_sweeps, learn_sigmas=True):
        w0 = np.eye(self.K, self.D)
        w0[3] *= 20.0  # far from every sample: an empty cluster on every path
        cfg = GaussConfig(d=self.D, k=self.K, window=3, e_sweeps=e_sweeps,
                          sigma_ems_scale=1e-3, learn_transition=True,
                          learn_sigmas=learn_sigmas)
        return w0, GaussModel(w0, cfg), PerClassLoopModel(w0, cfg)

    def confident_batch(self, rng, w0):
        # the same label counts at every step, and responsibilities of exactly
        # 0 and 1, so the weights repeat bit for bit across sweeps and steps
        labels = np.repeat([0, 1, 2], self.N // 3)
        return w0[labels] + 0.01 * rng.standard_normal((self.N, self.D))

    def assert_matches(self, model, ref):
        for a, b in zip(model._steps, ref._steps):
            np.testing.assert_allclose(a.belief.mean, b.belief.mean, rtol=0, atol=1e-10)
            np.testing.assert_allclose(a.belief.cov, b.belief.cov, rtol=0, atol=1e-10)
            np.testing.assert_allclose(a.resp, b.resp, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model._last_gains, ref._last_gains, rtol=0, atol=1e-10)
        for name in ("transition", "sigma_trans", "sigma_ems"):
            np.testing.assert_allclose(getattr(model, name), getattr(ref, name),
                                       rtol=0, atol=1e-10)

    def counted_updates(self, monkeypatch):
        """The weights of every kf_update_weighted call, in call order."""
        weights = []

        def counting(*args, **kwargs):
            weights.append(args[3].sum(axis=0))
            return kf_update_weighted(*args, **kwargs)

        monkeypatch.setattr(gauss, "kf_update_weighted", counting)
        return weights

    def test_confident_stream_updates_each_step_once_per_adapt(self, monkeypatch):
        rng = np.random.default_rng(30)
        w0, model, ref = self.model_pair(e_sweeps=3)
        calls = self.counted_updates(monkeypatch)
        for t in range(1, 7):
            batch = self.confident_batch(rng, w0)
            ref.adapt(t, batch)
            calls.clear()
            model.adapt(t, batch)
            # the M-step moved A, Q and R, so the first sweep recomputes
            # every step although its weights equal the last adapt's
            assert len(calls) == len(model._steps)
            assert set(np.unique(model._steps[-1].resp)) == {0.0, 1.0}
            assert not model._record.weights
            self.assert_matches(model, ref)

    def test_weights_changed_at_the_last_step_recompute_it(self, monkeypatch):
        rng = np.random.default_rng(31)
        # R stays 1e-3: the confident samples keep responsibilities of 0
        # and 1, and the one sample between two classes moves between sweeps
        w0, model, ref = self.model_pair(e_sweeps=2, learn_sigmas=False)
        calls = self.counted_updates(monkeypatch)
        for t in range(1, 6):
            batch = self.confident_batch(rng, w0)
            if t == 5:
                batch[0] = normalize_rows(model.prototypes[:2].sum(axis=0, keepdims=True))[0]
            ref.adapt(t, batch)
            calls.clear()
            model.adapt(t, batch)
            self.assert_matches(model, ref)
        # the second sweep kept the two older steps and recomputed the
        # newest, whose weights had moved by about half a sample
        assert len(calls) == len(model._steps) + 1
        assert np.abs(calls[-1] - calls[len(model._steps) - 1]).max() > 1e-3

    def test_a_sweep_that_raises_leaves_no_record_to_reuse(self, monkeypatch):
        rng = np.random.default_rng(31)
        w0, model, _ = self.model_pair(e_sweeps=2, learn_sigmas=False)
        for t in range(1, 5):
            model.adapt(t, self.confident_batch(rng, w0))
        batch = self.confident_batch(rng, w0)
        batch[0] = normalize_rows(model.prototypes[:2].sum(axis=0, keepdims=True))[0]
        calls = []

        def failing_in_the_second_sweep(*args, **kwargs):
            # the first sweep updates every step; the second only the newest,
            # whose weights moved, and that call fails
            calls.append(args[3].sum(axis=0))
            if len(calls) > len(model._steps):
                raise NotPositiveDefiniteError("forced")
            return kf_update_weighted(*args, **kwargs)

        monkeypatch.setattr(gauss, "kf_update_weighted", failing_in_the_second_sweep)
        with pytest.raises(NotPositiveDefiniteError):
            model.adapt(5, batch)
        assert len(calls) == len(model._steps) + 1
        assert not model._record.weights
        # the first sweep's record would let a bare sweep keep the two older
        # steps; without it every step is filtered again
        calls = self.counted_updates(monkeypatch)
        model.coordinate_sweep()
        assert len(calls) == len(model._steps)
