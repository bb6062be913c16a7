"""Tests for the spherical prototype tracker."""

import math

import numpy as np
import pytest
from scipy.special import softmax
from scipy.stats import ortho_group

from stad.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyBatchError,
    InsufficientHistoryError,
    NonContiguousTimeError,
    NotAdaptedError,
    ZeroVectorError,
)
from stad.mathcore import estimate_kappa_clamped, normalize_rows
from stad.vmf import (
    PrototypeBelief,
    VmfConfig,
    VmfModel,
    assignment_step,
    expected_prototype,
    kappa_update,
    mixing_update,
    predict_probs,
    prototype_update,
)

import oracles

# Frozen by direct evaluation: 1 / (1 + exp(-2)).
LAMBDA_TWO_POINT = 0.88079707797788244406
# Frozen by direct evaluation: softmax(1, 0).
SOFTMAX_ONE_ZERO = (0.73105857863000487925, 0.26894142136999512075)
# Frozen with oracles.mp_bessel_ratio(4, 2.0).
A_4_2 = 0.43312742672231175832


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def cluster_batch(rng, dirs, labels, noise=0.15):
    """Unit-norm points scattered around per-class directions."""
    pts = dirs[labels] + noise * rng.standard_normal((len(labels), dirs.shape[1]))
    return normalize_rows(pts)


def angular_deg(a, b):
    cos = np.clip(np.sum(unit(a) * unit(b)), -1.0, 1.0)
    return math.degrees(math.acos(cos))


class TestConfig:
    def test_defaults_follow_reference_settings(self):
        cfg = VmfConfig(d=8, k=3)
        assert cfg.window == 3
        assert cfg.kappa0 == 100.0
        assert cfg.kappa_trans == 100.0
        assert cfg.kappa_ems == 100.0

    def test_validation(self):
        with pytest.raises(DomainError):
            VmfConfig(d=1, k=2)
        with pytest.raises(DomainError):
            VmfConfig(d=4, k=2, window=0)
        with pytest.raises(DomainError):
            VmfConfig(d=4, k=2, pi_floor=0.5)
        with pytest.raises(DomainError):
            VmfConfig(d=4, k=2, kappa_ems=-1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(kappa_trans=(1.0, 2.0)),          # neither 1 nor K = 3 values
        dict(kappa_ems=(1.0, 2.0, 3.0, 4.0)),
        dict(kappa0=(1.0, 2.0)),
        dict(kappa0=np.ones((3, 1))),
        dict(window=2.5),
        dict(e_sweeps=2.0),
        dict(d=4.0),
        dict(k=3.5),
        dict(window=True),
    ])
    def test_rejects_malformed_sizes(self, kwargs):
        with pytest.raises(DomainError):
            VmfConfig(**{"d": 4, "k": 3, **kwargs})

    def test_accepts_per_class_kappa0_and_numpy_sizes(self):
        cfg = VmfConfig(d=np.int64(4), k=np.int32(3), kappa0=(10.0, 20.0, 30.0))
        model = VmfModel(np.eye(3, 4), cfg)
        np.testing.assert_array_equal(model._prior.conc, [10.0, 20.0, 30.0])


class TestInit:
    def test_rows_normalized_and_uniform_mixing(self):
        model = VmfModel(np.array([[2.0, 0.0], [0.0, 3.0]]), VmfConfig(d=2, k=2))
        np.testing.assert_allclose(
            model.source_prototypes, [[1.0, 0.0], [0.0, 1.0]]
        )
        model.adapt(1, np.array([[1.0, 0.0], [0.0, 1.0]]))
        # mixing starts uniform and stays a simplex point after the update
        assert model.mixing.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_source_row_rejected(self):
        with pytest.raises(ZeroVectorError):
            VmfModel(np.array([[1.0, 0.0], [0.0, 0.0]]), VmfConfig(d=2, k=2))

    def test_huge_rows_adapt_as_unit_rows(self):
        # a squared norm above the float range must not turn a row into zeros
        model = VmfModel(np.eye(2), VmfConfig(d=2, k=2, window=1))
        model.adapt(1, np.array([[1e200, 1e200], [3.0, -4.0]]))
        np.testing.assert_allclose(model._steps[0].feats,
                                   [[0.5**0.5, 0.5**0.5], [0.6, -0.8]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            VmfModel(np.eye(3), VmfConfig(d=2, k=2))


class TestAssignmentStep:
    def test_single_class_is_certain(self):
        feats = normalize_rows(np.random.default_rng(0).standard_normal((5, 4)))
        resp = assignment_step(feats, np.ones((1, 4)) * 0.5, np.ones(1), 10.0, 4)
        np.testing.assert_array_equal(resp, np.ones((5, 1)))

    def test_identical_prototypes_give_uniform_rows(self):
        e = np.tile(unit([1.0, 1.0, 0.0]) * 0.7, (4, 1))
        feats = normalize_rows(np.random.default_rng(1).standard_normal((6, 3)))
        resp = assignment_step(feats, e, np.full(4, 0.25), 50.0, 3)
        np.testing.assert_allclose(resp, np.full((6, 4), 0.25), atol=1e-12)

    def test_two_prototype_frozen_value(self):
        expected = np.array([[1.0, 0.0], [-1.0, 0.0]])
        resp = assignment_step(
            np.array([[1.0, 0.0]]), expected, np.array([0.5, 0.5]), 1.0, 2
        )
        assert resp[0, 0] == pytest.approx(LAMBDA_TWO_POINT, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        feats = normalize_rows(rng.standard_normal((40, 16)))
        expected = 0.9 * normalize_rows(rng.standard_normal((7, 16)))
        resp = assignment_step(feats, expected, np.full(7, 1 / 7), 300.0, 16)
        np.testing.assert_allclose(resp.sum(axis=1), np.ones(40), atol=1e-9)
        assert np.all(resp >= 0.0) and np.all(resp <= 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            assignment_step(np.ones((2, 3)), np.ones((2, 4)), np.ones(2) / 2, 1.0, 4)

    def test_non_finite_rejected(self):
        feats = np.array([[np.nan, 0.0]])
        with pytest.raises(DomainError):
            assignment_step(feats, np.eye(2), np.ones(2) / 2, 1.0, 2)


class TestPrototypeUpdate:
    @staticmethod
    def previous():
        return PrototypeBelief.from_params(np.array([[0.6, 0.8]]), np.array([3.0]))

    def test_data_only(self):
        belief = self.previous()
        _, degenerate = prototype_update(belief, np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(belief.mean_dir, [[0.0, 1.0]])
        np.testing.assert_allclose(belief.conc, [1.0])
        assert degenerate == 0

    def test_prior_passthrough(self):
        belief = self.previous()
        prototype_update(belief, np.zeros((1, 2)) + 100.0 * np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(belief.mean_dir, [[1.0, 0.0]])
        np.testing.assert_allclose(belief.conc, [100.0])
        np.testing.assert_allclose(belief.expected, expected_prototype(belief.mean_dir, np.array([100.0]), 2))

    def test_vector_sum(self):
        belief = self.previous()
        prototype_update(belief, np.array([[0.0, 1.0]]) + np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(belief.mean_dir, [[1 / math.sqrt(2)] * 2], atol=1e-15)
        np.testing.assert_allclose(belief.conc, [math.sqrt(2.0)])

    def test_exact_cancellation(self):
        # row 0 cancels and keeps its previous belief; row 1 updates
        belief = PrototypeBelief.from_params(np.eye(2), np.array([3.0, 4.0]))
        previous = belief.copy()
        total = np.array([[1.0, 0.0], [0.0, 2.0]]) + np.array([[-1.0, 0.0], [0.0, 0.0]])
        _, degenerate = prototype_update(belief, total)
        assert degenerate == 1
        np.testing.assert_array_equal(belief.mean_dir[0], previous.mean_dir[0])
        assert belief.conc[0] == previous.conc[0]
        np.testing.assert_array_equal(belief.expected[0], previous.expected[0])
        assert belief.conc[1] == 2.0

    def test_total_becomes_the_mean_direction(self):
        # the update writes in place and hands back the replaced buffer
        belief = self.previous()
        old_dir, old_expected = belief.mean_dir, belief.expected
        total = np.array([[3.0, 4.0]])
        spare, _ = prototype_update(belief, total)
        assert spare is old_dir
        assert belief.mean_dir is total
        assert belief.expected is old_expected
        np.testing.assert_allclose(belief.mean_dir, [[0.6, 0.8]])

    def test_model_counts_cancelled_rows(self):
        # kappa0 = 0 sends no prior message, and the two opposite samples
        # cancel in both classes' data messages under uniform assignments
        model = VmfModel(np.eye(2), VmfConfig(d=2, k=2, kappa0=0.0, window=1))
        model.adapt(1, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert model.degenerate_updates == 2 * model.config.e_sweeps
        np.testing.assert_array_equal(model.prototypes, np.eye(2))


class ReferenceSweepModel(VmfModel):
    """VmfModel whose sweep is written out of place from the natural parameters.

    Row k of a step's summed message is kappa_ems * sum_n resp_nk h_n plus
    kappa_trans * E[mu_k] of each neighbour step, where the left boundary
    takes kappa0 * mu0 from the source prior or kappa_trans * E[mu_k] of the
    evicted anchor. Its direction and norm are the new belief, unless the
    norm is <= 1e-12, which keeps the previous belief.
    """

    def coordinate_ascent_sweep(self):
        cfg = self.config
        steps = self._steps
        kt = self._kappa_trans[:, None]
        for i, step in enumerate(steps):
            step.resp = assignment_step(
                step.feats, step.belief.expected, step.mixing, self._kappa_ems,
                cfg.d, per_class=cfg.per_class_kappa,
            )
            total = self._kappa_ems[:, None] * (step.resp.T @ step.feats)
            if i > 0:
                total = total + kt * steps[i - 1].belief.expected
            elif self._anchor is self._prior:
                total = total + self._prior.conc[:, None] * self._prior.mean_dir
            else:
                total = total + kt * self._anchor.expected
            if i + 1 < len(steps):
                total = total + kt * steps[i + 1].belief.expected
            norms = np.linalg.norm(total, axis=1)
            ok = norms > 1e-12
            mean_dir = np.where(ok[:, None], total / np.where(ok, norms, 1.0)[:, None],
                                step.belief.mean_dir)
            conc = np.where(ok, norms, step.belief.conc)
            step.belief = PrototypeBelief.from_params(mean_dir, conc)
            self.degenerate_updates += int(np.sum(~ok))


def assert_matches_reference(model, reference, batches, probe):
    for t, batch in enumerate(batches, start=1):
        model.adapt(t, batch)
        reference.adapt(t, batch)
        assert model.window_times == reference.window_times
        for a, b in zip(model._steps, reference._steps):
            np.testing.assert_allclose(a.belief.mean_dir, b.belief.mean_dir, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.belief.expected, b.belief.expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.belief.conc, b.belief.conc, rtol=1e-12)
            np.testing.assert_allclose(a.resp, b.resp, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.mixing, b.mixing, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.kappa_trans, reference.kappa_trans, rtol=1e-12)
        np.testing.assert_allclose(model.kappa_ems, reference.kappa_ems, rtol=1e-12)
        assert model.degenerate_updates == reference.degenerate_updates
        probs, labels = model.predict(probe)
        ref_probs, ref_labels = reference.predict(probe)
        np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(labels, ref_labels)


class TestSweepMatchesReference:
    @pytest.mark.parametrize("kwargs,static", [
        (dict(), False),
        (dict(learn_kappa_ems=True), False),
        (dict(learn_kappa_trans=True, learn_kappa_ems=True), False),
        (dict(per_class_kappa=True, kappa_trans=(50.0, 80.0, 120.0, 200.0),
              kappa_ems=(30.0, 60.0, 90.0, 150.0), learn_kappa_ems=True), False),
        (dict(), True),
        (dict(window=1, e_sweeps=3), False),
        (dict(window=5, e_sweeps=3), False),
    ])
    def test_model_matches_reference(self, kwargs, static):
        rng = np.random.default_rng(21)
        d, k = 16, 4
        dirs = normalize_rows(rng.standard_normal((k, d)))
        w0 = dirs + 0.2 * rng.standard_normal((k, d))
        cfg = VmfConfig(d=d, k=k, **kwargs)
        steps = (1 if static else cfg.window) + 4   # four steps are evicted into the anchor
        batches = [cluster_batch(rng, dirs, rng.integers(0, k, size=30), noise=0.4)
                   for _ in range(steps)]
        probe = normalize_rows(rng.standard_normal((9, d)))
        model = VmfModel(w0, cfg, static=static)
        reference = ReferenceSweepModel(w0, cfg, static=static)
        assert_matches_reference(model, reference, batches, probe)
        assert model._anchor is not model._prior or static

    def test_cancelled_rows_match_reference(self):
        # the first batch cancels in both classes (see TestPrototypeUpdate);
        # the later ones do not
        rng = np.random.default_rng(22)
        cfg = VmfConfig(d=2, k=2, kappa0=0.0, window=2)
        batches = [np.array([[1.0, 0.0], [-1.0, 0.0]])]
        batches += [normalize_rows(rng.standard_normal((6, 2))) for _ in range(4)]
        model = VmfModel(np.eye(2), cfg)
        reference = ReferenceSweepModel(np.eye(2), cfg)
        assert_matches_reference(model, reference, batches, normalize_rows(np.eye(2) + 0.5))
        assert model.degenerate_updates >= 2 * cfg.e_sweeps


class TestHeldArrays:
    @pytest.mark.parametrize("static", [False, True])
    def test_views_and_frozen_beliefs_never_change(self, static):
        rng = np.random.default_rng(23)
        d, k = 12, 3
        model = VmfModel(rng.standard_normal((k, d)), VmfConfig(d=d, k=k, window=2),
                         static=static)
        source = model.source_prototypes.copy()
        prior = model._prior
        prior_saved = prior.copy()
        held = []
        anchor = anchor_saved = None
        for t in range(1, 12):
            model.adapt(t, rng.standard_normal((20, d)))
            held.append((model.prototypes, model.prototypes.copy()))
            held.append((model.mixing, model.mixing.copy()))
            if anchor is None and model._anchor is not prior:
                anchor, anchor_saved = model._anchor, model._anchor.copy()
        for array, saved in held:
            np.testing.assert_array_equal(array, saved)
        np.testing.assert_array_equal(model.source_prototypes, source)
        assert model._prior is prior
        for frozen, saved in [(prior, prior_saved), (anchor, anchor_saved)]:
            if frozen is None:
                assert static   # a static window never evicts into the anchor
                continue
            np.testing.assert_array_equal(frozen.mean_dir, saved.mean_dir)
            np.testing.assert_array_equal(frozen.conc, saved.conc)
            np.testing.assert_array_equal(frozen.expected, saved.expected)


class TestExpectedPrototype:
    def test_high_concentration_limit(self):
        rho = unit([1.0, 2.0, -1.0, 0.5])
        out = expected_prototype(rho, 1e6, 4)
        assert np.linalg.norm(out - rho) < 1e-4

    def test_low_concentration_limit(self):
        out = expected_prototype(np.array([1.0, 0.0, 0.0, 0.0]), 1e-6, 4)
        assert np.linalg.norm(out) < 1e-3

    def test_frozen_ratio_value(self):
        out = expected_prototype(np.array([1.0, 0.0, 0.0, 0.0]), 2.0, 4)
        np.testing.assert_allclose(out, [A_4_2, 0.0, 0.0, 0.0], rtol=1e-9)

    def test_norm_below_one(self):
        rng = np.random.default_rng(3)
        dirs = normalize_rows(rng.standard_normal((5, 8)))
        conc = np.array([1e-5, 0.1, 1.0, 50.0, 1e5])
        out = expected_prototype(dirs, conc, 8)
        assert np.all(np.linalg.norm(out, axis=1) < 1.0)


class TestMixingUpdate:
    def test_balanced(self):
        np.testing.assert_allclose(
            mixing_update(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5]
        )

    def test_degenerate_no_floor(self):
        np.testing.assert_allclose(
            mixing_update(np.array([[1.0, 0.0], [1.0, 0.0]]), 0.0), [1.0, 0.0]
        )

    def test_floor_then_scale_rule(self):
        out = mixing_update(np.array([[1.0, 0.0], [1.0, 0.0]]), 0.01)
        np.testing.assert_allclose(out, [0.99, 0.01], atol=1e-15)

    def test_simplex_output(self):
        rng = np.random.default_rng(4)
        resp = rng.dirichlet(np.ones(5), size=20)
        out = mixing_update(resp, 1e-4)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 1e-4 - 1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyBatchError):
            mixing_update(np.zeros((0, 3)))


class TestKappaUpdate:
    def test_identical_expected_gives_r_squared(self):
        d, k, r = 6, 2, 0.8
        rho = normalize_rows(np.random.default_rng(5).standard_normal((k, d)))
        belief = PrototypeBelief(rho, np.full(k, 10.0), r * rho)
        kt, _ = kappa_update(
            [belief, belief], [], [], d, learn_trans=True, learn_ems=False
        )
        want = estimate_kappa_clamped(r * r, d)
        np.testing.assert_allclose(kt, np.full(k, want), rtol=1e-12)

    def test_zero_resultant_clamps_to_floor(self):
        d, k = 4, 2
        rho = np.eye(2, 4)
        belief_a = PrototypeBelief(rho, np.ones(k), 0.5 * rho)
        # second step orthogonal in expectation => zero dot products
        rho_b = np.roll(np.eye(2, 4), 2, axis=1)
        belief_b = PrototypeBelief(rho_b, np.ones(k), 0.5 * rho_b)
        kt, _ = kappa_update(
            [belief_a, belief_b], [], [], d, learn_trans=True, learn_ems=False
        )
        np.testing.assert_allclose(kt, np.full(k, 1e-6))

    def test_insufficient_history(self):
        belief = PrototypeBelief(np.eye(2), np.ones(2), 0.5 * np.eye(2))
        with pytest.raises(InsufficientHistoryError):
            kappa_update([belief], [], [], 2, learn_trans=True, learn_ems=False)

    def test_matches_independent_script(self):
        rng = np.random.default_rng(6)
        d, k = 5, 3
        beliefs, resps, feats = [], [], []
        for n in (7, 9):
            rho = normalize_rows(rng.standard_normal((k, d)))
            conc = rng.uniform(5.0, 50.0, size=k)
            beliefs.append(PrototypeBelief.from_params(rho, conc))
            resps.append(rng.dirichlet(np.ones(k), size=n))
            feats.append(normalize_rows(rng.standard_normal((n, d))))
        kt, ke = kappa_update(
            beliefs, resps, feats, d, learn_trans=True, learn_ems=True
        )
        # independent evaluation of the two resultant-length formulas
        r_trans = abs(
            np.mean(np.sum(beliefs[0].expected * beliefs[1].expected, axis=1))
        )
        num = 0.0
        for b, r, h in zip(beliefs, resps, feats):
            num += sum(
                r[n_, k_] * float(b.expected[k_] @ h[n_])
                for n_ in range(h.shape[0])
                for k_ in range(k)
            )
        r_ems = abs(num) / sum(h.shape[0] for h in feats)
        np.testing.assert_allclose(kt, np.full(k, estimate_kappa_clamped(r_trans, d)), rtol=1e-10)
        np.testing.assert_allclose(ke, np.full(k, estimate_kappa_clamped(r_ems, d)), rtol=1e-10)


class TestAdapt:
    def test_stationary_convergence(self):
        rng = np.random.default_rng(7)
        d = 8
        true_dirs = np.zeros((2, d))
        true_dirs[0, 0] = 1.0
        true_dirs[1, 1] = 1.0
        model = VmfModel(true_dirs + 0.2 * rng.standard_normal((2, d)), VmfConfig(d=d, k=2))
        pooled = {0: [], 1: []}
        for t in range(1, 11):
            labels = np.repeat([0, 1], 50)
            batch = cluster_batch(rng, true_dirs, labels)
            model.adapt(t, batch)
            for c in (0, 1):
                pooled[c].append(batch[labels == c])
        for c in (0, 1):
            empirical = unit(np.concatenate(pooled[c]).mean(axis=0))
            assert angular_deg(model.prototypes[c], empirical) < 5.0

    def test_first_call_matches_window_one(self):
        rng = np.random.default_rng(8)
        w0 = rng.standard_normal((3, 6))
        batch = rng.standard_normal((20, 6))
        a = VmfModel(w0, VmfConfig(d=6, k=3, window=3)).adapt(1, batch)
        b = VmfModel(w0, VmfConfig(d=6, k=3, window=1)).adapt(1, batch)
        np.testing.assert_array_equal(a.prototypes, b.prototypes)
        np.testing.assert_array_equal(a._steps[-1].resp, b._steps[-1].resp)

    def test_rigid_limit_stays_at_source(self):
        rng = np.random.default_rng(9)
        d = 6
        w0 = normalize_rows(rng.standard_normal((2, d)))
        cfg = VmfConfig(d=d, k=2, kappa_trans=1e6, kappa0=1e6)
        model = VmfModel(w0, cfg)
        away = normalize_rows(w0 + 0.5 * rng.standard_normal((2, d)))
        for t in (1, 2):
            labels = np.repeat([0, 1], 4)
            model.adapt(t, cluster_batch(rng, away, labels))
        for c in (0, 1):
            assert angular_deg(model.prototypes[c], w0[c]) < 0.1

    def test_time_contiguity_enforced(self):
        rng = np.random.default_rng(10)
        model = VmfModel(np.eye(2), VmfConfig(d=2, k=2))
        model.adapt(1, normalize_rows(rng.standard_normal((4, 2))))
        with pytest.raises(NonContiguousTimeError):
            model.adapt(3, normalize_rows(rng.standard_normal((4, 2))))

    def test_empty_batch_rejected(self):
        model = VmfModel(np.eye(2), VmfConfig(d=2, k=2))
        with pytest.raises(EmptyBatchError):
            model.adapt(1, np.zeros((0, 2)))

    def test_window_eviction(self):
        rng = np.random.default_rng(11)
        model = VmfModel(np.eye(2, 4), VmfConfig(d=4, k=2, window=2))
        for t in range(1, 5):
            model.adapt(t, normalize_rows(rng.standard_normal((6, 4))))
        assert model.window_times == [3, 4]


class TestStaticVariant:
    def test_first_step_matches_zero_transition(self):
        rng = np.random.default_rng(12)
        w0 = rng.standard_normal((3, 5))
        batch = rng.standard_normal((15, 5))
        static = VmfModel(w0, VmfConfig(d=5, k=3), static=True).adapt(1, batch)
        dynamic = VmfModel(w0, VmfConfig(d=5, k=3, kappa_trans=0.0)).adapt(1, batch)
        np.testing.assert_allclose(
            static.prototypes, dynamic.prototypes, atol=1e-12
        )

    def test_same_fixed_point_as_zero_transition_window_one(self):
        # On a stationary stream the static fit and the window-1,
        # zero-transition dynamic fit share their per-batch fixed point
        # once the initial-prior pseudo-message is negligible.
        rng = np.random.default_rng(13)
        d = 8
        dirs = np.zeros((2, d))
        dirs[0, 0] = 1.0
        dirs[1, 1] = 1.0
        w0 = normalize_rows(dirs + 0.05 * rng.standard_normal((2, d)))
        kwargs = dict(d=d, k=2, kappa0=1e-6, e_sweeps=8)
        static = VmfModel(w0, VmfConfig(**kwargs), static=True)
        dynamic = VmfModel(w0, VmfConfig(kappa_trans=0.0, window=1, **kwargs))
        for t in range(1, 9):
            labels = np.repeat([0, 1], 40)
            batch = cluster_batch(rng, dirs, labels, noise=0.1)
            static.adapt(t, batch)
            dynamic.adapt(t, batch)
        for c in (0, 1):
            assert angular_deg(static.prototypes[c], dynamic.prototypes[c]) < 1e-4


class TestPredict:
    def test_single_class_probability_one(self):
        probs = predict_probs(np.ones((3, 2)) / math.sqrt(2), np.array([[1.0, 0.0]]), 5.0, np.ones(1), 2)
        np.testing.assert_array_equal(probs, np.ones((3, 1)))

    def test_equidistant_gives_uniform(self):
        protos = np.array([[1.0, 0.0], [-1.0, 0.0]])
        h = np.array([[0.0, 1.0]])
        probs = predict_probs(h, protos, 25.0, np.full(2, 0.5), 2)
        np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)

    def test_frozen_softmax_value(self):
        protos = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = predict_probs(np.array([[1.0, 0.0]]), protos, 1.0, np.full(2, 0.5), 2)
        np.testing.assert_allclose(probs[0], SOFTMAX_ONE_ZERO, atol=1e-12)

    def test_not_adapted(self):
        model = VmfModel(np.eye(2), VmfConfig(d=2, k=2))
        with pytest.raises(NotAdaptedError):
            model.predict(np.array([[1.0, 0.0]]))

    def test_model_predict_labels(self):
        rng = np.random.default_rng(14)
        dirs = np.eye(2, 8)
        model = VmfModel(dirs, VmfConfig(d=8, k=2))
        labels = np.repeat([0, 1], 30)
        batch = cluster_batch(rng, dirs, labels, noise=0.05)
        model.adapt(1, batch)
        probs, pred = model.predict(batch)
        assert (pred == labels).mean() > 0.95
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestInvariants:
    def test_softmax_equivalence(self):
        rng = np.random.default_rng(15)
        for d in (2, 32, 512):
            for k in (2, 10):
                protos = normalize_rows(rng.standard_normal((k, d)))
                kappa = float(rng.uniform(10.0, 500.0))
                h = normalize_rows(rng.standard_normal((8, d)))
                probs = predict_probs(h, protos, kappa, np.full(k, 1.0 / k), d)
                ref = softmax(kappa * (h @ protos.T), axis=1)
                assert np.max(np.abs(probs - ref)) < 1e-9

    def test_simplex_invariants_after_adapt(self):
        rng = np.random.default_rng(16)
        model = VmfModel(rng.standard_normal((4, 10)), VmfConfig(d=10, k=4))
        for t in range(1, 6):
            model.adapt(t, rng.standard_normal((25, 10)))
            for s in model._steps:
                np.testing.assert_allclose(s.resp.sum(axis=1), 1.0, atol=1e-9)
                assert np.all(s.resp >= 0.0)
                np.testing.assert_allclose(s.mixing.sum(), 1.0, atol=1e-9)
                np.testing.assert_allclose(
                    np.linalg.norm(s.belief.mean_dir, axis=1), 1.0, atol=1e-9
                )
                assert np.all(s.belief.conc > 0.0)

    def test_elbo_monotone_over_sweeps(self):
        rng = np.random.default_rng(17)
        model = VmfModel(rng.standard_normal((3, 8)), VmfConfig(d=8, k=3))
        for t in range(1, 4):
            model.adapt(t, rng.standard_normal((20, 8)))
        elbo = model.window_elbo()
        for _ in range(6):
            model.coordinate_ascent_sweep()
            new = model.window_elbo()
            assert new >= elbo - 1e-6
            elbo = new

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(18)
        d, k = 6, 3
        w0 = rng.standard_normal((k, d))
        batches = [rng.standard_normal((15, d)) for _ in range(3)]
        rot = ortho_group.rvs(d, random_state=42)
        plain = VmfModel(w0, VmfConfig(d=d, k=k))
        rotated = VmfModel(w0 @ rot.T, VmfConfig(d=d, k=k))
        for t, b in enumerate(batches, start=1):
            plain.adapt(t, b)
            rotated.adapt(t, b @ rot.T)
        np.testing.assert_allclose(
            rotated.prototypes, plain.prototypes @ rot.T, atol=1e-8
        )
        np.testing.assert_allclose(
            rotated._steps[-1].resp, plain._steps[-1].resp, atol=1e-10
        )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        d, k = 7, 4
        w0 = rng.standard_normal((k, d))
        batches = [rng.standard_normal((12, d)) for _ in range(3)]
        perm = np.array([2, 0, 3, 1])
        plain = VmfModel(w0, VmfConfig(d=d, k=k))
        permuted = VmfModel(w0[perm], VmfConfig(d=d, k=k))
        for t, b in enumerate(batches, start=1):
            plain.adapt(t, b)
            permuted.adapt(t, b)
        np.testing.assert_allclose(
            permuted.prototypes, plain.prototypes[perm], atol=1e-12
        )
        np.testing.assert_allclose(permuted.mixing, plain.mixing[perm], atol=1e-12)
        h = normalize_rows(rng.standard_normal((9, d)))
        p_plain, _ = plain.predict(h)
        p_perm, _ = permuted.predict(h)
        np.testing.assert_allclose(p_perm, p_plain[:, perm], atol=1e-12)

    def test_static_mixture_matches_brute_force(self):
        rng = np.random.default_rng(20)
        d, k, n = 8, 3, 60
        dirs = normalize_rows(rng.standard_normal((k, d)))
        labels = rng.integers(0, k, size=n)
        feats = cluster_batch(rng, dirs, labels, noise=0.3)
        init = normalize_rows(dirs + 0.1 * rng.standard_normal((k, d)))
        sweeps = 5
        cfg = VmfConfig(
            d=d, k=k, kappa_trans=0.0, kappa0=1e-6, window=1, e_sweeps=sweeps,
            kappa_ems=100.0, pi_floor=0.0,
        )
        model = VmfModel(init, cfg).adapt(1, feats)
        rho, _, resp = oracles.variational_vmf_mixture_em(
            feats, model.source_prototypes, kappa_ems=100.0, kappa0=1e-6, sweeps=sweeps
        )
        for c in range(k):
            assert angular_deg(model.prototypes[c], rho[c]) < math.degrees(1e-6)
        np.testing.assert_allclose(model._steps[-1].resp, resp, atol=1e-8)
