"""Tests for the Gaussian prototype tracker."""

import numpy as np
import pytest
from scipy.linalg import cho_factor

from stad import gauss
from stad.errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InsufficientHistoryError,
    NonContiguousTimeError,
    NotAdaptedError,
    NotPositiveDefiniteError,
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


class TestKfPredict:
    def test_identity_transition_adds_noise(self):
        q = 0.3 * np.eye(2)
        mean, cov = kf_predict(np.array([1.0, -2.0]), 0.5 * np.eye(2), np.eye(2), q)
        np.testing.assert_allclose(mean, [1.0, -2.0])
        np.testing.assert_allclose(cov, 0.8 * np.eye(2))

    def test_scaling_transition(self):
        mean, cov = kf_predict(
            np.array([3.0]), np.zeros((1, 1)), 2.0 * np.eye(1), 0.7 * np.eye(1)
        )
        assert mean[0] == pytest.approx(6.0)
        assert cov[0, 0] == pytest.approx(0.7)

    def test_random_instance_matches_dense_reference(self):
        rng = np.random.default_rng(0)
        d = 3
        a = rng.standard_normal((d, d))
        q = random_spd(rng, d, 0.1)
        m0 = rng.standard_normal(d)
        p0 = random_spd(rng, d)
        mean, cov = kf_predict(m0, p0, a, q)
        np.testing.assert_allclose(mean, a @ m0, atol=1e-10)
        np.testing.assert_allclose(cov, a @ p0 @ a.T + q, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kf_predict(np.zeros(2), np.eye(2), np.eye(3), np.eye(2))


class TestKfUpdateWeighted:
    def test_textbook_scalar_step(self):
        mean, cov = kf_update_weighted(
            np.zeros(1), np.eye(1), np.array([[1.0]]), np.ones(1), np.eye(1)
        )
        assert mean[0] == pytest.approx(0.5)
        assert cov[0, 0] == pytest.approx(0.5)

    def test_non_psd_innovation_raises_stad_error(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            kf_update_weighted(
                np.zeros(2), np.eye(2), np.ones((3, 2)), np.ones(3), -10.0 * np.eye(2)
            )
        assert isinstance(info.value, np.linalg.LinAlgError)

    def test_empty_cluster_returns_prior(self):
        m0, p0 = np.array([1.0, 2.0]), 0.4 * np.eye(2)
        feats = np.random.default_rng(1).standard_normal((5, 2))
        mean, cov = kf_update_weighted(m0, p0, feats, np.zeros(5), np.eye(2))
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
        mean, cov = kf_update_weighted(m0, p0, feats, w, r)
        obs = (w @ feats) / w.sum()
        gain = p0 @ np.linalg.inv(p0 + r / w.sum())
        np.testing.assert_allclose(mean, m0 + gain @ (obs - m0), atol=1e-9)
        np.testing.assert_allclose(cov, (np.eye(d) - gain) @ p0, atol=1e-9)

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(3)
        d = 4
        _, cov = kf_update_weighted(
            rng.standard_normal(d),
            random_spd(rng, d),
            rng.standard_normal((7, d)),
            rng.uniform(0.0, 1.0, size=7),
            random_spd(rng, d, 0.3),
        )
        np.testing.assert_allclose(cov, cov.T, atol=1e-10)
        assert np.linalg.eigvalsh(cov).min() >= -1e-8


class TestKfSmooth:
    def test_single_step_is_identity(self):
        means = np.array([[1.0, 2.0]])
        covs = np.array([0.5 * np.eye(2)])
        sm, sc, gains = kf_smooth(means, covs, np.eye(2), 0.1 * np.eye(2))
        np.testing.assert_array_equal(sm, means)
        np.testing.assert_array_equal(sc, covs)
        assert gains == []

    def test_rigid_chain_equalizes_means(self):
        rng = np.random.default_rng(4)
        d = 2
        means = rng.standard_normal((3, d))
        covs = np.stack([random_spd(rng, d) for _ in range(3)])
        sm, _, _ = kf_smooth(means, covs, np.eye(d), 1e-14 * np.eye(d))
        np.testing.assert_allclose(sm[0], sm[2], atol=1e-6)
        np.testing.assert_allclose(sm[1], sm[2], atol=1e-6)

    def test_random_instance_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        d, t = 2, 3
        a = np.eye(d) + 0.1 * rng.standard_normal((d, d))
        q = random_spd(rng, d, 0.05)
        means = rng.standard_normal((t, d))
        covs = np.stack([random_spd(rng, d) for _ in range(t)])
        sm, sc, gains = kf_smooth(means, covs, a, q)
        om, oc, og = oracles.dense_rts_smoother(list(means), list(covs), a, q)
        np.testing.assert_allclose(sm, np.stack(om), atol=1e-8)
        np.testing.assert_allclose(sc, np.stack(oc), atol=1e-8)
        np.testing.assert_allclose(np.stack(gains), np.stack(og), atol=1e-8)


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

    def test_predictive_variant_widens(self):
        # adding posterior covariance flattens the responsibilities
        wide = np.stack([10.0 * np.eye(1), np.eye(1) * 1e-9])
        belief = GaussBelief(np.array([[0.0], [2.0]]), wide)
        plug = gauss_assignments(np.array([[0.0]]), belief, np.full(2, 0.5), np.eye(1))
        pred = gauss_assignments(
            np.array([[0.0]]), belief, np.full(2, 0.5), np.eye(1), predictive=True
        )
        assert abs(pred[0, 0] - 0.5) < abs(plug[0, 0] - 0.5)


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

    def test_insufficient_history(self):
        belief = GaussBelief(np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        with pytest.raises(InsufficientHistoryError):
            gauss_m_step([belief], [], [], [], np.stack([np.eye(2)] * 2), True, False)

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
            GaussModel(np.zeros((2, 300)),
                       GaussConfig(d=300, k=2, allow_high_dim=True, **{flag: True}))
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
            w0[0], 0.3 * np.eye(d), np.eye(d), cfg.sigma_trans_scale * np.eye(d)
        )
        want_mean, want_cov = kf_update_weighted(
            pm, pc, feats, np.ones(9), cfg.sigma_ems_scale * np.eye(d)
        )
        np.testing.assert_allclose(model.prototypes[0], want_mean, atol=1e-12)
        var = model._steps[-1].belief.cov[0]
        np.testing.assert_allclose(var * np.eye(d), want_cov, atol=1e-12)

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

    @pytest.mark.parametrize("window,e_sweeps,predictive", [
        (1, 3, False), (3, 1, True), (5, 3, True), (5, 1, False),
    ])
    def test_scalar_path_equals_dense_path(self, window, e_sweeps, predictive):
        rng = np.random.default_rng(20)
        d, k = 6, 4
        w0 = normalize_rows(rng.standard_normal((k, d)))
        w0[3] *= 20.0  # far from every unit-norm sample: zero responsibility
        cfg = GaussConfig(d=d, k=k, window=window, e_sweeps=e_sweeps,
                          assign_with_predictive=predictive)
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

    def test_scalar_predictive_assignments_factor_nothing(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(gauss, "cho_factor", counting)
        rng = np.random.default_rng(22)
        d, k = 5, 3
        w0 = normalize_rows(rng.standard_normal((k, d)))
        # plug-in assignments too: the scalar form never factors r * I
        for predictive in (True, False):
            cfg = GaussConfig(d=d, k=k, assign_with_predictive=predictive)
            scalar, dense = GaussModel(w0, cfg), dense_twin(w0, cfg)
            for t in range(1, 4):
                batch = rng.standard_normal((8, d))
                scalar.adapt(t, batch)
                assert not calls
                dense.adapt(t, batch)
                # the dense filter alone factors once per class and step in each sweep
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
