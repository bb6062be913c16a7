"""Tests for the spherical prototype tracker."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import softmax
from scipy.stats import ortho_group

from stad.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    NonContiguousTimeError,
    NotAdaptedError,
    ZeroVectorError,
)
from stad import vmf
from stad.mathcore import (
    KAPPA_MAX,
    KAPPA_MIN,
    bessel_ratio,
    estimate_kappa_clamped,
    log_sum_exp,
    log_vmf_norm_const,
    normalize_rows,
)
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
from stad.window import mixing_floor

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
        assert cfg.kappa_trans == 100.0
        assert cfg.kappa_ems == 100.0

    def test_validation(self):
        with pytest.raises(DomainError):
            VmfConfig(d=1, k=2)
        with pytest.raises(DomainError):
            VmfConfig(d=4, k=2, window=0)
        with pytest.raises(DomainError):
            VmfConfig(d=4, k=2, kappa_ems=-1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(kappa_trans=(1.0, 2.0)),          # a concentration is one real number
        dict(kappa_ems=(1.0, 2.0, 3.0, 4.0)),
        dict(kappa_ems=(1.0, 2.0)),
        dict(kappa_trans=np.ones((3, 1))),
        dict(window=2.5),
        dict(e_sweeps=2.0),
        dict(d=4.0),
        dict(k=3.5),
        dict(window=True),
        dict(kappa_trans=(10.0, 20.0, 30.0)),  # one value per class
        dict(kappa_trans=[1.0]),
        dict(kappa_ems=np.array(5.0)),
        dict(kappa_trans=True),
        dict(kappa_ems="5"),
        dict(kappa_trans=float("nan")),
        dict(kappa_ems=np.float64(np.inf)),
    ])
    def test_rejects_malformed_sizes(self, kwargs):
        with pytest.raises(DomainError):
            VmfConfig(**{"d": 4, "k": 3, **kwargs})

    def test_accepts_shared_kappa0_and_numpy_sizes(self):
        # the shared kappa_trans weights the link from the source head: it
        # becomes the prior's concentration in every class
        cfg = VmfConfig(d=np.int64(4), k=np.int32(3), kappa_trans=np.float32(20.0))
        model = VmfModel(np.eye(3, 4), cfg)
        np.testing.assert_array_equal(model._prior.conc, [20.0, 20.0, 20.0])


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

    def test_huge_rows_are_refused(self):
        # a squared norm above the float range is refused, never a row of zeros
        model = VmfModel(np.eye(2), VmfConfig(d=2, k=2, window=1))
        with pytest.raises(DomainError):
            model.adapt(1, np.array([[1e200, 1e200], [3.0, -4.0]]))
        assert model.window_times == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            VmfModel(np.eye(3), VmfConfig(d=2, k=2))

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            VmfModel(np.eye(1, 2), VmfConfig(d=2, k=1))


class TestAssignmentStep:
    def test_single_class_is_certain(self):
        feats = normalize_rows(np.random.default_rng(0).standard_normal((5, 4)))
        resp = assignment_step(feats @ (np.ones((1, 4)) * 0.5).T, np.ones(1), 10.0)
        np.testing.assert_array_equal(resp, np.ones((5, 1)))

    def test_identical_prototypes_give_uniform_rows(self):
        e = np.tile(unit([1.0, 1.0, 0.0]) * 0.7, (4, 1))
        feats = normalize_rows(np.random.default_rng(1).standard_normal((6, 3)))
        resp = assignment_step(feats @ e.T, np.full(4, 0.25), 50.0)
        np.testing.assert_allclose(resp, np.full((6, 4), 0.25), atol=1e-12)

    def test_two_prototype_frozen_value(self):
        expected = np.array([[1.0, 0.0], [-1.0, 0.0]])
        resp = assignment_step(np.array([[1.0, 0.0]]) @ expected.T, np.array([0.5, 0.5]), 1.0)
        assert resp[0, 0] == pytest.approx(LAMBDA_TWO_POINT, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        feats = normalize_rows(rng.standard_normal((40, 16)))
        expected = 0.9 * normalize_rows(rng.standard_normal((7, 16)))
        resp = assignment_step(feats @ expected.T, np.full(7, 1 / 7), 300.0)
        np.testing.assert_allclose(resp.sum(axis=1), np.ones(40), atol=1e-9)
        assert np.all(resp >= 0.0) and np.all(resp <= 1.0)

    def test_non_finite_rejected(self):
        feats = np.array([[np.nan, 0.0]])
        with pytest.raises(DomainError):
            assignment_step(feats @ np.eye(2).T, np.ones(2) / 2, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("expected", [np.eye(3), np.array([[0.0, 1.0, 1.0], [-1.0, 1.0, 0.0]])],
                             ids=["identity", "zero and negative weights"])
    def test_infinite_entries_rejected(self, bad, expected):
        # inf * 0 and inf - inf give NaN dots, inf * w an infinite one
        feats = np.array([[0.1, 0.2, 0.3], [bad, 0.0, 1.0]])
        mixing = np.full(len(expected), 1.0 / len(expected))
        with np.errstate(invalid="ignore"):
            dots = feats @ expected.T
            row_dots = feats[:1] @ np.where(expected == 1.0, bad, expected).T
        with pytest.raises(DomainError):
            assignment_step(dots, mixing, 2.0)
        with pytest.raises(DomainError):
            assignment_step(row_dots, mixing, 2.0)

    def test_logits_spanning_beyond_the_float_range_give_a_certain_row(self):
        # 1e308 and -1e308 are finite logits; their difference overflows
        resp = assignment_step(np.array([[1.0, -1.0]]), np.full(2, 0.5), 1e308)
        np.testing.assert_array_equal(resp, [[1.0, 0.0]])

    @pytest.mark.parametrize("kappa", [np.ones(2), np.ones(4), np.ones((3, 1)), np.ones((1, 3)),
                                       np.ones((4, 3)), [1.0, 2.0]],
                             ids=["too few", "too many", "column", "row", "(N, K)", "short list"])
    def test_concentration_neither_float_nor_per_class_rejected(self, kappa):
        rng = np.random.default_rng(26)
        feats = normalize_rows(rng.standard_normal((4, 5)))
        prototypes = normalize_rows(rng.standard_normal((3, 5)))
        with pytest.raises(DimensionMismatchError):
            assignment_step(feats @ prototypes.T, np.full(3, 1 / 3), kappa)

    @pytest.mark.parametrize("mixing", [np.full(4, 0.25), np.full(2, 0.5), np.full((3, 3), 1 / 3),
                                        np.full((1, 3), 1 / 3), np.float64(1.0)],
                             ids=["K+1", "K-1", "(K, K)", "row", "scalar"])
    def test_mixing_of_wrong_shape_rejected(self, mixing):
        rng = np.random.default_rng(25)
        feats = normalize_rows(rng.standard_normal((4, 5)))
        prototypes = normalize_rows(rng.standard_normal((3, 5)))
        with pytest.raises(DimensionMismatchError):
            assignment_step(feats @ prototypes.T, mixing, 2.0)
        with pytest.raises(DimensionMismatchError):
            predict_probs(feats @ prototypes.T, 2.0, mixing)

    def test_per_class_concentration_scales_each_column(self):
        rng = np.random.default_rng(27)
        feats = normalize_rows(rng.standard_normal((6, 5)))
        prototypes = normalize_rows(rng.standard_normal((3, 5)))
        mixing = np.array([0.2, 0.3, 0.5])
        kappa = np.array([3.0, 40.0, 0.0])
        dots = feats @ prototypes.T
        resp = assignment_step(dots, mixing, kappa)
        np.testing.assert_allclose(resp, softmax(np.log(mixing) + kappa * dots, axis=1),
                                   rtol=0, atol=1e-12)
        # a per-class scale moves between the concentration and the rows
        np.testing.assert_allclose(
            resp, assignment_step(feats @ (kappa[:, None] * prototypes).T, mixing, 1.0),
            rtol=0, atol=1e-12)
        np.testing.assert_array_equal(assignment_step(dots, mixing, list(kappa)), resp)

    @pytest.mark.parametrize("kappa", [25.0, np.float64(0.5), np.array(7.0)],
                             ids=["float", "numpy float", "0-d array"])
    def test_scalar_concentration_keeps_the_head_bits(self, kappa):
        # predict_probs with one concentration computes exactly what the head
        # computed with its scalar kappa_ems: log pi + kappa <w_k, h>, then a
        # log-sum-exp normalization
        rng = np.random.default_rng(28)
        feats = normalize_rows(rng.standard_normal((9, 16)))
        prototypes = normalize_rows(rng.standard_normal((5, 16)))
        mixing = rng.dirichlet(np.ones(5))
        logits = np.log(mixing) + kappa * (feats @ prototypes.T)
        head = np.exp(logits - log_sum_exp(logits, axis=1)[:, None])
        probs = predict_probs(feats @ prototypes.T, kappa, mixing)
        assert probs.tobytes() == head.tobytes()


def updated(belief, total, frame, message=None):
    """prototype_update's new belief and degenerate count; asserts that the
    `belief` argument is left as it was."""
    saved = copy.deepcopy(belief)
    new, degenerate = prototype_update(belief, total, frame, message)
    assert_same_belief(belief, saved)
    return new, degenerate


class TestPrototypeUpdate:
    @staticmethod
    def previous():
        return PrototypeBelief.from_params(np.array([[0.6, 0.8]]), np.array([3.0]))

    def test_data_only(self):
        belief, degenerate = updated(self.previous(), np.array([[0.0, 1.0]]), np.ones(1))
        np.testing.assert_allclose(belief.mean_dir, [[0.0, 1.0]])
        np.testing.assert_allclose(belief.conc, [1.0])
        assert degenerate == 0

    def test_prior_passthrough(self):
        belief, _ = updated(self.previous(), np.zeros((1, 2)) + 100.0 * np.array([[1.0, 0.0]]),
                            np.ones(1))
        np.testing.assert_allclose(belief.mean_dir, [[1.0, 0.0]])
        np.testing.assert_allclose(belief.conc, [100.0])
        np.testing.assert_array_equal(belief.ratio, bessel_ratio(2, belief.conc))
        np.testing.assert_allclose(belief.ratio[:, None] * belief.mean_dir,
                                   expected_prototype(belief.mean_dir, np.array([100.0]), 2))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (2,), (1, 2, 1)])
    def test_total_of_another_shape_rejected(self, shape):
        belief = self.previous()
        before = copy.deepcopy(belief)
        with pytest.raises(DimensionMismatchError):
            prototype_update(belief, np.ones(shape), np.ones(1))
        assert_same_belief(belief, before)

    def test_vector_sum(self):
        belief, _ = updated(self.previous(), np.array([[0.0, 1.0]]) + np.array([[1.0, 0.0]]),
                            np.ones(1))
        np.testing.assert_allclose(belief.mean_dir, [[1 / math.sqrt(2)] * 2], atol=1e-15)
        np.testing.assert_allclose(belief.conc, [math.sqrt(2.0)])

    def test_exact_cancellation(self):
        # row 0 cancels and keeps its previous belief; row 1 updates
        previous = PrototypeBelief.from_params(np.eye(2), np.array([3.0, 4.0]))
        total = np.array([[1.0, 0.0], [0.0, 2.0]]) + np.array([[-1.0, 0.0], [0.0, 0.0]])
        belief, degenerate = updated(previous, total, np.ones(2))
        assert degenerate == 1
        np.testing.assert_array_equal(belief.mean_dir[0], previous.mean_dir[0])
        assert belief.conc[0] == previous.conc[0]
        assert belief.ratio[0] == previous.ratio[0]
        assert belief.conc[1] == 2.0
        np.testing.assert_array_equal(belief.ratio, bessel_ratio(2, belief.conc))

    def test_total_becomes_the_mean_direction(self):
        # the update writes into `total`, which becomes the new belief's mean
        # direction, and leaves the old belief and its arrays as they were;
        # the belief's one (K, D) array is its mean direction, the rest is (K,)
        previous = self.previous()
        old_dir = previous.mean_dir
        total = np.array([[3.0, 4.0]])
        belief, _ = updated(previous, total, np.ones(1))
        assert previous.mean_dir is old_dir
        assert belief.mean_dir is total
        assert [f.name for f in dataclasses.fields(belief)] == ["mean_dir", "conc", "ratio"]
        assert belief.conc.shape == belief.ratio.shape == (1,)
        np.testing.assert_allclose(belief.mean_dir, [[0.6, 0.8]])
        np.testing.assert_array_equal(belief.ratio, bessel_ratio(2, np.array([5.0])))

    def test_frame_scales_the_concentration(self):
        # a positive row scale keeps the direction and scales the norm
        belief, _ = updated(self.previous(), np.array([[3.0, 4.0]]), frame=np.array([2.0]))
        np.testing.assert_allclose(belief.mean_dir, [[0.6, 0.8]])
        assert belief.conc[0] == 10.0
        np.testing.assert_array_equal(belief.ratio, bessel_ratio(2, np.array([10.0])))

    def test_frame_decides_which_rows_are_degenerate(self):
        # row 0 cancels exactly in its frame; rows 1 and 2 have one small
        # norm, and only frame * norm <= 1e-12 keeps the previous belief
        previous = PrototypeBelief.from_params(np.eye(3), np.array([3.0, 4.0, 5.0]))
        total = np.array([[1.0, 0.0, 0.0], [0.0, 1e-13, 0.0], [0.0, 0.0, 1e-13]])
        message = (np.array([1.0, 0.0, 0.0]), np.array([[-1.0, 0.0, 0.0]] * 3))
        belief, degenerate = updated(previous, total, np.array([4.0, 1.0, 100.0]), message)
        assert degenerate == 2
        for row in (0, 1):
            np.testing.assert_array_equal(belief.mean_dir[row], previous.mean_dir[row])
            assert belief.conc[row] == previous.conc[row]
        np.testing.assert_array_equal(belief.mean_dir[2], [0.0, 0.0, 1.0])
        assert belief.conc[2] == pytest.approx(1e-11, rel=1e-15)
        np.testing.assert_array_equal(belief.ratio, bessel_ratio(3, belief.conc))

    def test_model_counts_cancelled_rows(self):
        # both classes start at e1, so the assignments are uniform, and the
        # two samples at -e1 cancel the prior's kappa_trans e1 in both rows,
        # since the config sets kappa_ems = kappa_trans
        w0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        model = VmfModel(w0, VmfConfig(d=2, k=2, kappa_trans=100.0, kappa_ems=100.0, window=1))
        model.adapt(1, -w0)
        assert model.degenerate_updates == 2 * model.config.e_sweeps
        np.testing.assert_array_equal(model.prototypes, w0)


def expected_of(belief, d):
    """A belief's expected prototypes, from its directions and concentrations alone."""
    return expected_prototype(belief.mean_dir, belief.conc, d)


class ReferenceSweepModel(VmfModel):
    """VmfModel whose sweep is written out of place from the natural parameters.

    Row k of a step's summed message is kappa_ems * sum_n resp_nk h_n plus
    kappa_trans * E[mu_k] of each neighbour step, where the left boundary
    takes kappa_trans * mu0 from the source prior or kappa_trans * E[mu_k] of
    the evicted anchor. Its direction and norm are the new belief, unless the
    norm is <= 1e-12, which keeps the previous belief.
    """

    def coordinate_ascent_sweep(self):
        steps = self._steps
        kt, d = self._kappa_trans, self.config.d
        for i, step in enumerate(steps):
            step.resp = assignment_step(
                step.feats @ expected_of(step.belief, d).T, step.mixing, self._kappa_ems,
            )
            total = self._kappa_ems * (step.resp.T @ step.feats)
            if i > 0:
                total = total + kt * expected_of(steps[i - 1].belief, d)
            elif self._anchor is self._prior:
                total = total + self._prior.conc[:, None] * self._prior.mean_dir
            else:
                total = total + kt * expected_of(self._anchor, d)
            if i + 1 < len(steps):
                total = total + kt * expected_of(steps[i + 1].belief, d)
            norms = np.linalg.norm(total, axis=1)
            ok = norms > 1e-12
            mean_dir = np.where(ok[:, None], total / np.where(ok, norms, 1.0)[:, None],
                                step.belief.mean_dir)
            conc = np.where(ok, norms, step.belief.conc)
            step.belief = PrototypeBelief.from_params(mean_dir, conc)
            step.products = None
            self.degenerate_updates += int(np.sum(~ok))


def assert_matches_reference(model, reference, batches, probe):
    for t, batch in enumerate(batches, start=1):
        model.adapt(t, batch)
        reference.adapt(t, batch)
        assert model.window_times == reference.window_times
        for a, b in zip(model._steps, reference._steps):
            np.testing.assert_allclose(a.belief.mean_dir, b.belief.mean_dir, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.belief.ratio, b.belief.ratio, rtol=0, atol=1e-12)
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


# The ids are written out so that removing a case renames no other one.
SWEEP_CONFIGS = [
    pytest.param(dict(), id="kwargs0-False"),
    pytest.param(dict(learn_kappa_ems=True), id="kwargs1-False"),
    pytest.param(dict(kappa_trans=50.0, kappa_ems=30.0, learn_kappa_ems=True),
                 id="distinct-kappas-False"),
    pytest.param(dict(window=1, e_sweeps=3), id="kwargs5-False"),
    pytest.param(dict(window=5, e_sweeps=3), id="kwargs6-False"),
]


def sweep_case(kwargs):
    """Source weights, config, batches and probe of one SWEEP_CONFIGS case (D=16, K=4)."""
    rng = np.random.default_rng(21)
    d, k = 16, 4
    dirs = normalize_rows(rng.standard_normal((k, d)))
    w0 = dirs + 0.2 * rng.standard_normal((k, d))
    cfg = VmfConfig(d=d, k=k, **kwargs)
    steps = cfg.window + 4   # four steps are evicted into the anchor
    batches = [cluster_batch(rng, dirs, rng.integers(0, k, size=30), noise=0.4)
               for _ in range(steps)]
    probe = normalize_rows(rng.standard_normal((9, d)))
    return w0, cfg, batches, probe


def cancelling_case():
    """D=2, K=4, window 2, whose first batch cancels in every row.

    Every class starts at e1, so the assignments are uniform, and the four
    samples at -e1 add -kappa_ems e1 to every row, which cancels the
    prior's kappa_trans e1 at the config's kappa_ems = kappa_trans, leaving
    every row with nothing.
    """
    rng = np.random.default_rng(24)
    w0 = np.array([[1.0, 0.0]] * 4)
    cfg = VmfConfig(d=2, k=4, kappa_trans=100.0, kappa_ems=100.0, window=2)
    batches = [-w0]
    batches += [normalize_rows(rng.standard_normal((6, 2))) for _ in range(4)]
    return w0, cfg, batches, normalize_rows(rng.standard_normal((5, 2)))


class TestSweepMatchesReference:
    @pytest.mark.parametrize("kwargs", SWEEP_CONFIGS)
    def test_model_matches_reference(self, kwargs):
        w0, cfg, batches, probe = sweep_case(kwargs)
        model = VmfModel(w0, cfg)
        reference = ReferenceSweepModel(w0, cfg)
        assert_matches_reference(model, reference, batches, probe)
        assert model._anchor is not model._prior

    def test_cancelled_rows_match_reference(self):
        # at kappa_ems = kappa_trans the first batch cancels in both classes
        # (see TestPrototypeUpdate); the later ones do not
        rng = np.random.default_rng(22)
        cfg = VmfConfig(d=2, k=2, kappa_trans=100.0, kappa_ems=100.0, window=2)
        w0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        batches = [-w0]
        batches += [normalize_rows(rng.standard_normal((6, 2))) for _ in range(4)]
        model = VmfModel(w0, cfg)
        reference = ReferenceSweepModel(w0, cfg)
        assert_matches_reference(model, reference, batches, normalize_rows(np.eye(2) + 0.5))
        assert model.degenerate_updates >= 2 * cfg.e_sweeps


def counted_products(monkeypatch):
    """A list that gets the time of a window step each time its products are formed."""
    formed, real = [], VmfModel._products

    def products(step):
        if step.products is None:
            formed.append(step.t)
        return real(step)

    monkeypatch.setattr(VmfModel, "_products", staticmethod(products))
    return formed


class TestProductCache:
    """Each step keeps feats @ mean_dir.T as `products` until its belief moves."""

    @staticmethod
    def assert_cache_fresh(model):
        for s in model._steps:
            if s.products is not None:
                np.testing.assert_array_equal(s.products, s.feats @ s.belief.mean_dir.T)

    @pytest.mark.parametrize("reference", [False, True], ids=["model", "reference"])
    @pytest.mark.parametrize("kwargs", SWEEP_CONFIGS)
    def test_cached_products_are_fresh_or_absent(self, kwargs, reference):
        # the reference sweep assigns step.belief and drops the products
        w0, cfg, batches, probe = sweep_case(kwargs)
        model = (ReferenceSweepModel if reference else VmfModel)(w0, cfg)
        for t, batch in enumerate(batches, start=1):
            model.adapt(t, batch)
            self.assert_cache_fresh(model)
            model.predict(batch)
            assert model._steps[-1].products is not None
            self.assert_cache_fresh(model)
            model.predict(probe)
            self.assert_cache_fresh(model)

    @pytest.mark.parametrize("learn,formed", [(True, 7), (False, 6)])
    def test_full_window_step_forms_each_product_once(self, monkeypatch, learn, formed):
        # window 3, 2 sweeps: a product per step and sweep, less those the
        # first sweep finds cached (by the kappa re-estimate or predict);
        # the kappa re-estimate and predict form none of their own
        rng = np.random.default_rng(27)
        d, k = 8, 3
        model = VmfModel(rng.standard_normal((k, d)),
                         VmfConfig(d=d, k=k, window=3, e_sweeps=2, learn_kappa_ems=learn))
        counts = counted_products(monkeypatch)
        for t in range(1, 8):
            batch = rng.standard_normal((10, d))
            before = len(counts)
            model.adapt(t, batch)
            model.predict(batch)
            if t > model.config.window:
                assert len(counts) - before == formed

    def test_in_place_update_drops_the_products(self):
        # a bare sweep moves every belief in place, so no product survives it
        rng = np.random.default_rng(28)
        model = VmfModel(rng.standard_normal((3, 5)), VmfConfig(d=5, k=3, learn_kappa_ems=True))
        for t in (1, 2, 3):
            model.adapt(t, rng.standard_normal((6, 5)))
        assert all(s.products is not None for s in model._steps)
        model.coordinate_ascent_sweep()
        assert all(s.products is None for s in model._steps)
        self.assert_cache_fresh(model)


class TestFramedUpdate:
    """Each update runs in the frame of its left message's row scales,
    which the concentration domain keeps positive (see `VmfConfig`)."""

    @pytest.mark.parametrize("kappa_trans,kappa_ems", [(KAPPA_MIN, KAPPA_MAX),
                                                       (KAPPA_MAX, KAPPA_MIN)])
    def test_domain_corners_match_reference(self, kappa_trans, kappa_ems):
        # classes 0 and 1 start at e1 and class 2 at e2. The two samples
        # (-1.5e-12, 0, +-1) are all but orthogonal to every class, so each
        # class takes a third of each, and their emission into rows 0 and 1
        # is -kappa_ems 1e-12 e1. At (KAPPA_MIN, KAPPA_MAX) that cancels the
        # prior's kappa_trans e1, in the frame kappa_trans where the
        # emission's scale is 1e12; at (KAPPA_MAX, KAPPA_MIN) no batch
        # outweighs the prior. The later batches move every class.
        rng = np.random.default_rng(27)
        cfg = VmfConfig(d=3, k=3, kappa_trans=kappa_trans, kappa_ems=kappa_ems, window=2)
        w0 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        batches = [np.array([[-1.5e-12, 0.0, 1.0], [-1.5e-12, 0.0, -1.0]])]
        batches += [normalize_rows(rng.standard_normal((6, 3))) for _ in range(4)]
        probe = normalize_rows(rng.standard_normal((5, 3)))
        model = VmfModel(w0, cfg)
        reference = ReferenceSweepModel(w0, cfg)
        assert_matches_reference(model, reference, batches, probe)
        if kappa_ems > kappa_trans:
            assert model.degenerate_updates >= 2 * cfg.e_sweeps
        else:
            assert model.degenerate_updates == 0

    def test_cancelling_rows_on_the_frame_path(self):
        # both classes start at e1, and the config sets kappa_trans =
        # kappa_ems, so each takes half of the two samples at -e1: in the
        # frame kappa_trans every row is e1 + (kappa_ems / kappa_trans) * (-e1)
        # = 0 and keeps the prior's belief
        cfg = VmfConfig(d=2, k=2, kappa_trans=100.0, kappa_ems=100.0, window=1)
        w0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        batch = np.array([[-1.0, 0.0], [-1.0, 0.0]])
        model = VmfModel(w0, cfg).adapt(1, batch)
        reference = ReferenceSweepModel(w0, cfg).adapt(1, batch)
        assert model.degenerate_updates == reference.degenerate_updates == 2 * cfg.e_sweeps
        belief = model._steps[0].belief
        np.testing.assert_array_equal(belief.mean_dir, w0)
        np.testing.assert_array_equal(belief.conc, [cfg.kappa_trans] * 2)

    def test_gemm_writes_into_the_buffer(self, monkeypatch):
        # the emission is added by BLAS into the F-ordered transpose of a
        # (K, D) buffer, which then becomes the mean direction of the step's
        # new belief
        rng = np.random.default_rng(26)
        d, k = 6, 3
        model = VmfModel(rng.standard_normal((k, d)), VmfConfig(d=d, k=k, window=2))
        real, calls = vmf.dgemm, []

        def spy(*args, c, **kwargs):
            buffer = c.base
            out = real(*args, c=c, **kwargs)
            calls.append((buffer, buffer.shape == (k, d) and buffer.flags.c_contiguous,
                          out.T.ctypes.data == buffer.ctypes.data, kwargs["beta"]))
            return out

        monkeypatch.setattr(vmf, "dgemm", spy)
        for t in range(1, 4):
            before = len(calls)
            model.adapt(t, rng.standard_normal((5, d)))
            # one GEMM per update: e_sweeps sweeps over the window's steps
            steps = model._steps
            assert len(calls) - before == model.config.e_sweeps * len(steps)
            # the last sweep's buffers are the steps' mean directions, in order
            assert all(buffer is s.belief.mean_dir
                       for (buffer, *_), s in zip(calls[-len(steps):], steps))
        for buffer, is_view, in_place, beta in calls:
            assert is_view and in_place and beta == 1.0


def run_record(w0, cfg, batches, probe):
    """Every window step's state and the probe prediction after each adapt."""
    model = VmfModel(w0, cfg)
    record = []
    for t, batch in enumerate(batches, start=1):
        model.adapt(t, batch)
        for s in model._steps:
            record += [s.belief.mean_dir.copy(), s.belief.ratio.copy(),
                       s.belief.conc.copy(), s.resp, s.mixing]
        record += [*model.predict(probe), model.degenerate_updates]
    return record


class TestBlockBoundaries:
    """The sweep's row blocks change no bit of the result.

    The default block holds 256 KiB // (8 D) rows, far more than K in
    these tests, so the blocks are forced down to 1, 2, K-1, K and K+3
    rows through the byte budget.
    """

    @staticmethod
    def assert_block_sizes_agree(monkeypatch, w0, cfg, batches, probe):
        expected = run_record(w0, cfg, batches, probe)
        for rows in (1, 2, cfg.k - 1, cfg.k, cfg.k + 3):
            monkeypatch.setattr(vmf, "_BLOCK_BYTES", rows * 8 * cfg.d)
            assert len(vmf._row_blocks(cfg.k, cfg.d)) == -(-cfg.k // rows)
            got = run_record(w0, cfg, batches, probe)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kwargs", SWEEP_CONFIGS)
    def test_blocks_match_one_block(self, monkeypatch, kwargs):
        w0, cfg, batches, probe = sweep_case(kwargs)
        self.assert_block_sizes_agree(monkeypatch, w0, cfg, batches, probe)

    def test_cancelled_row_on_a_block_boundary(self, monkeypatch):
        w0, cfg, batches, probe = cancelling_case()
        model = VmfModel(w0, cfg).adapt(1, batches[0])
        assert model.degenerate_updates == cfg.k * cfg.e_sweeps
        self.assert_block_sizes_agree(monkeypatch, w0, cfg, batches, probe)

    def test_update_cancelled_row_opens_a_block(self, monkeypatch):
        # with 2-row blocks the cancelled row 2 opens the second block; the
        # other rows update as in one block, and row 2 keeps its belief
        rng = np.random.default_rng(25)
        d = 3
        previous = PrototypeBelief.from_params(normalize_rows(rng.standard_normal((5, d))),
                                               rng.uniform(1.0, 9.0, size=5))
        total = rng.standard_normal((5, d))
        total[2] = 0.0
        whole, degenerate = updated(previous, total.copy(), np.ones(5))
        assert degenerate == 1
        monkeypatch.setattr(vmf, "_BLOCK_BYTES", 2 * 8 * d)
        assert [b.start for b in vmf._row_blocks(5, d)] == [0, 2, 4]
        blocked, degenerate = updated(previous, total.copy(), np.ones(5))
        assert degenerate == 1
        assert_same_belief(blocked, whole)
        np.testing.assert_array_equal(blocked.mean_dir[2], previous.mean_dir[2])
        assert blocked.conc[2] == previous.conc[2]
        assert blocked.ratio[2] == previous.ratio[2]


def assert_same_belief(belief, saved):
    np.testing.assert_array_equal(belief.mean_dir, saved.mean_dir)
    np.testing.assert_array_equal(belief.conc, saved.conc)
    np.testing.assert_array_equal(belief.ratio, saved.ratio)


# the window-2 case keeps its earlier id, so that no test is renamed
HELD_WINDOWS = [pytest.param(2, id="False"), pytest.param(1, id="window-1")]


class TestHeldArrays:
    @pytest.mark.parametrize("window", HELD_WINDOWS)
    def test_views_and_frozen_beliefs_never_change(self, window):
        # every anchor, the prior and each evicted step's belief, keeps the
        # values it had when it became the anchor to the end of the run
        rng = np.random.default_rng(23)
        d, k = 12, 3
        model = VmfModel(rng.standard_normal((k, d)), VmfConfig(d=d, k=k, window=window))
        source = model.source_prototypes.copy()
        prior = model._prior
        anchors = [(prior, copy.deepcopy(prior))]
        held = []
        for t in range(1, 12):
            oldest = model._steps[0].belief if model._steps else None
            oldest_saved = copy.deepcopy(oldest)
            model.adapt(t, rng.standard_normal((20, d)))
            held.append((model.prototypes, model.prototypes.copy()))
            held.append((model.mixing, model.mixing.copy()))
            if model._anchor is not anchors[-1][0]:
                assert model._anchor is oldest   # the evicted step's belief
                anchors.append((oldest, oldest_saved))
        for array, saved in held:
            np.testing.assert_array_equal(array, saved)
        for anchor, saved in anchors:
            assert_same_belief(anchor, saved)
        np.testing.assert_array_equal(model.source_prototypes, source)
        assert model._prior is prior
        assert len(anchors) == 12 - window   # the prior, then one per eviction

    @pytest.mark.parametrize("window", HELD_WINDOWS)
    def test_writing_into_views_changes_nothing(self, window):
        # two twin models; the held views of one are written into
        rng = np.random.default_rng(41)
        d, k = 5, 3
        w0, batches = rng.standard_normal((k, d)), rng.standard_normal((3, 12, d))
        written, twin = (VmfModel(w0, VmfConfig(d=d, k=k, window=window))
                         for _ in range(2))
        for t in (1, 2):
            written.adapt(t, batches[t - 1])
            twin.adapt(t, batches[t - 1])
            written.prototypes[:] = 0.5
            written.mixing[:] = [0.98, 0.01, 0.01]
            np.testing.assert_array_equal(written.mixing, twin.mixing)
            np.testing.assert_array_equal(written.predict(batches[2])[0],
                                          twin.predict(batches[2])[0])


def held_arrays(model):
    """Every distinct (K, D) array the model reaches through its attributes,
    its window steps and their beliefs, each object once."""
    shape = (model.config.k, model.config.d)
    found = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            if obj.shape == shape:
                found.setdefault(id(obj), obj)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif dataclasses.is_dataclass(obj):
            for field in dataclasses.fields(obj):
                visit(getattr(obj, field.name))

    for value in vars(model).values():
        visit(value)
    return list(found.values())


class TestStorageReuse:
    @staticmethod
    def run(window, steps):
        """The model after each of `steps` adapts (D=6, K=3, batches of 10) and
        the (K, D) arrays it held then; asserts they never share memory."""
        rng = np.random.default_rng(25)
        d, k = 6, 3
        model = VmfModel(rng.standard_normal((k, d)), VmfConfig(d=d, k=k, window=window))
        prior = model._prior
        prior_saved = copy.deepcopy(prior)
        held = []
        for t in range(1, steps + 1):
            model.adapt(t, rng.standard_normal((10, d)))
            live = held_arrays(model)
            for i, a in enumerate(live):
                for b in live[i + 1:]:
                    assert not np.shares_memory(a, b)
            held.append(live)
            assert_same_belief(prior, prior_saved)
        return model, held

    # the ids are written out so that no test is renamed
    @pytest.mark.parametrize("window", [pytest.param(w, id=f"False-{w}") for w in (1, 2, 3, 4)])
    def test_full_window_holds_window_plus_two_arrays(self, window):
        # one mean direction per step, the anchor's and source_prototypes,
        # which the prior shares read-only
        model, held = self.run(window, window + 4)
        assert model._prior.mean_dir is model.source_prototypes
        assert not model.source_prototypes.flags.writeable
        assert [len(live) for live in held[window:]] == [window + 2] * (len(held) - window)


def reference_kappa_ems(beliefs, resps, feats, d):
    """kappa_update's resultant written on the expected prototypes."""
    num = sum(float(np.sum(r * (h @ expected_of(b, d).T)))
              for b, r, h in zip(beliefs, resps, feats))
    return float(estimate_kappa_clamped(abs(num) / sum(len(h) for h in feats), d))


def reference_elbo(model):
    """The window ELBO written on the expected prototypes: the link factors
    at kappa_trans, the first from the source head mu0 or the evicted
    anchor, emissions, and the vMF and categorical entropies."""
    cfg, steps = model.config, model._steps
    d, k, kt, ke = cfg.d, cfg.k, model.kappa_trans, model.kappa_ems
    if model._anchor is model._prior:
        left = model._prior.mean_dir
    else:
        left = expected_of(model._anchor, d)
    total = k * log_vmf_norm_const(d, kt)
    total += kt * np.sum(left * expected_of(steps[0].belief, d))
    for prev, cur in zip(steps, steps[1:]):
        total += k * log_vmf_norm_const(d, kt)
        total += kt * np.sum(expected_of(prev.belief, d) * expected_of(cur.belief, d))
    for s in steps:
        live = s.resp > 0.0
        with np.errstate(divide="ignore"):
            ll = (np.log(s.mixing) + log_vmf_norm_const(d, ke)
                  + ke * (s.feats @ expected_of(s.belief, d).T))
        total += np.sum(s.resp[live] * ll[live]) - np.sum(s.resp[live] * np.log(s.resp[live]))
        gamma = s.belief.conc
        total += np.sum(-log_vmf_norm_const(d, gamma) - gamma * bessel_ratio(d, gamma))
    return float(total)


class TestCachedRatio:
    """Each belief's cached A_D(conc) stays in step with its concentrations,
    and the users that scale by it agree with the expected prototypes."""

    @settings(max_examples=40, deadline=None)
    @given(window=st.integers(1, 4), e_sweeps=st.integers(1, 3),
           kappa_trans=st.sampled_from([30.0, 50.0, 100.0]), cancel=st.booleans(),
           learn=st.booleans(), seed=st.integers(0, 2**16))
    def test_ratio_matches_conc_after_every_adapt(self, window, e_sweeps, kappa_trans,
                                                   cancel, learn, seed):
        rng = np.random.default_rng(seed)
        d, k = 3, 3
        cfg = VmfConfig(d=d, k=k, window=window, e_sweeps=e_sweeps, kappa_trans=kappa_trans,
                        learn_kappa_ems=learn)
        # with cancel every class starts at e1 and the first batch holds k
        # samples at -e1: every row cancels when kappa_trans = kappa_ems
        w0 = np.tile(np.eye(d)[0], (k, 1)) if cancel else rng.standard_normal((k, d))
        model = VmfModel(w0, cfg)
        for t in range(1, window + 4):
            if cancel and t == 1:
                batch = -w0
            else:
                batch = rng.standard_normal((int(rng.integers(1, 8)), d))
            model.adapt(t, batch)
            steps = model._steps
            for belief in [s.belief for s in steps] + [model._anchor]:
                np.testing.assert_array_equal(belief.ratio, bessel_ratio(d, belief.conc))
            beliefs, resps, feats = ([s.belief for s in steps], [s.resp for s in steps],
                                     [s.feats for s in steps])
            assert kappa_update(beliefs, resps, products(beliefs, feats), d) == pytest.approx(
                reference_kappa_ems(beliefs, resps, feats, d), rel=1e-12)
            assert model.window_elbo() == pytest.approx(reference_elbo(model), rel=1e-12)
        if cancel and kappa_trans == cfg.kappa_ems:
            assert model.degenerate_updates >= k


class TestExpectedPrototype:
    def test_high_concentration_limit(self):
        rho = unit([1.0, 2.0, -1.0, 0.5])
        out = expected_prototype(rho[None], np.array([1e6]), 4)
        assert np.linalg.norm(out[0] - rho) < 1e-4

    def test_low_concentration_limit(self):
        out = expected_prototype(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([1e-6]), 4)
        assert np.linalg.norm(out) < 1e-3

    def test_frozen_ratio_value(self):
        out = expected_prototype(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([2.0]), 4)
        np.testing.assert_allclose(out, [[A_4_2, 0.0, 0.0, 0.0]], rtol=1e-9)

    def test_norm_below_one(self):
        rng = np.random.default_rng(3)
        dirs = normalize_rows(rng.standard_normal((5, 8)))
        conc = np.array([1e-5, 0.1, 1.0, 50.0, 1e5])
        out = expected_prototype(dirs, conc, 8)
        assert np.all(np.linalg.norm(out, axis=1) < 1.0)


class TestMixingUpdate:
    """The weights are floored at mixing_floor(K): 1e-4, or 1/(10K) where
    that is lower."""

    def test_balanced(self):
        np.testing.assert_allclose(
            mixing_update(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5]
        )

    def test_floor_then_scale_rule(self):
        # at K = 2 the floor is 1e-4
        out = mixing_update(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert mixing_floor(2) == 1e-4
        assert out.tolist() == [1.0 - 1e-4, 1e-4]

    def test_floor_falls_as_one_over_ten_k(self):
        # past K = 1000 the floor is 1/(10K): K - 1 pinned entries hold under
        # a tenth of the mass
        k = 2000
        resp = np.zeros((3, k))
        resp[:, 0] = 1.0
        out = mixing_update(resp)
        assert mixing_floor(k) == 1.0 / (10 * k) < 1e-4
        assert np.all(out[1:] == mixing_floor(k))
        assert out[0] == pytest.approx(1.0 - (k - 1) / (10 * k), abs=1e-15)

    def test_second_pass_pins_an_entry_the_first_left(self):
        # the first pass pins only the last entry; scaling the rest by
        # (1 - 1e-4) / (1 - 5e-5) takes the middle one below the floor, and
        # the second pass pins it
        out = mixing_update(np.array([[1.0 - 1.50002e-4, 1.00002e-4, 5e-5]]))
        assert out[1] == out[2] == 1e-4
        assert out[0] == pytest.approx(0.9998, abs=1e-15)

    def test_simplex_output(self):
        rng = np.random.default_rng(4)
        resp = rng.dirichlet(np.ones(5), size=20)
        out = mixing_update(resp)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 1e-4 - 1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mixing_update(np.zeros((0, 3)))

    @pytest.mark.parametrize("resp", [np.ones(3), np.ones((2, 2, 2))], ids=["1-D", "3-D"])
    def test_not_a_matrix_rejected(self, resp):
        with pytest.raises(DimensionMismatchError):
            mixing_update(resp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        resp = np.full((4, 3), 1.0 / 3.0)
        resp[2, 1] = bad
        with pytest.raises(DomainError):
            mixing_update(resp)

    @pytest.mark.parametrize("resp", [
        np.array([[-1.0, 0.5], [0.2, 0.3]]),   # column means (-0.4, 0.4): a zero total
        np.zeros((3, 3)),
        np.array([[-0.5, 1.5], [0.5, 0.5]]),   # column means (0, 1): a valid-looking total
    ], ids=["negative", "zero-total", "negative-in-positive-total"])
    def test_off_simplex_rejected(self, resp):
        with pytest.raises(DomainError):
            mixing_update(resp)


def kappa_case(sizes=(7, 9), d=5, k=3):
    """Beliefs, responsibilities and unit batches of one window, one step per size."""
    rng = np.random.default_rng(6)
    beliefs, resps, feats = [], [], []
    for n in sizes:
        rho = normalize_rows(rng.standard_normal((k, d)))
        conc = rng.uniform(5.0, 50.0, size=k)
        beliefs.append(PrototypeBelief.from_params(rho, conc))
        resps.append(rng.dirichlet(np.ones(k), size=n))
        feats.append(normalize_rows(rng.standard_normal((n, d))) if n else np.zeros((0, d)))
    return beliefs, resps, feats


def products(beliefs, feats):
    """Each step's (N_t, K) products of its batch with its mean directions."""
    return [h @ b.mean_dir.T for b, h in zip(beliefs, feats)]


def kappa_products_case(sizes=(7, 9)):
    """kappa_case's beliefs and responsibilities, with the products of its batches."""
    beliefs, resps, feats = kappa_case(sizes)
    return beliefs, resps, products(beliefs, feats)


class TestKappaUpdate:
    def test_matches_independent_script(self):
        d, k = 5, 3
        beliefs, resps, feats = kappa_case(d=d, k=k)
        ke = kappa_update(beliefs, resps, products(beliefs, feats), d)
        # independent evaluation of the emission resultant length
        num = 0.0
        for b, r, h in zip(beliefs, resps, feats):
            num += sum(
                r[n_, k_] * float(expected_prototype(b.mean_dir, b.conc, d)[k_] @ h[n_])
                for n_ in range(h.shape[0])
                for k_ in range(k)
            )
        r_ems = abs(num) / sum(h.shape[0] for h in feats)
        assert type(ke) is float
        assert ke == pytest.approx(estimate_kappa_clamped(r_ems, d), rel=1e-10)

    # h holds each step's (N_t, K) products
    @pytest.mark.parametrize("case, error", [
        (lambda b, r, h: ([], [], []), EmptyInputError),
        (lambda b, r, h: (b, r, kappa_products_case(sizes=(0, 0))[2]), DimensionMismatchError),
        (lambda b, r, h: kappa_products_case(sizes=(0, 0)), EmptyInputError),
        (lambda b, r, h: (b, r[:1], h[:1]), DimensionMismatchError),
        (lambda b, r, h: (b, r, h[:1]), DimensionMismatchError),
        (lambda b, r, h: (b[:1], r, h), DimensionMismatchError),
        (lambda b, r, h: (b, r, [h[0], h[1][:, :2]]), DimensionMismatchError),
        (lambda b, r, h: (b, r, [h[0], h[1][0]]), DimensionMismatchError),
        (lambda b, r, h: (b, [r[0], r[1][:, :2]], h), DimensionMismatchError),
        (lambda b, r, h: (b, [r[0], r[1][:5]], h), DimensionMismatchError),
        (lambda b, r, h: ([b[0], PrototypeBelief.from_params(np.eye(2, 5), np.ones(2))], r, h),
         DimensionMismatchError),
        (lambda b, r, h: ([PrototypeBelief.from_params(np.eye(3, 4), np.ones(3))] * 2, r, h),
         DimensionMismatchError),
    ], ids=["empty lists", "batches of other sizes", "all batches empty",
            "one batch for two beliefs", "one batch, two resps", "one belief, two batches",
            "products of wrong K", "1-D batch", "resp of wrong K", "resp of wrong N",
            "beliefs of two K", "beliefs of wrong D"])
    def test_mismatched_inputs_raise(self, case, error):
        with pytest.raises(error):
            kappa_update(*case(*kappa_products_case()), 5)


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
        cfg = VmfConfig(d=d, k=2, kappa_trans=1e6)
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
        with pytest.raises(EmptyInputError):
            model.adapt(1, np.zeros((0, 2)))

    def test_window_eviction(self):
        rng = np.random.default_rng(11)
        model = VmfModel(np.eye(2, 4), VmfConfig(d=4, k=2, window=2))
        for t in range(1, 5):
            model.adapt(t, normalize_rows(rng.standard_normal((6, 4))))
        assert model.window_times == [3, 4]


class TestStaticVariant:
    """The no-dynamics fit: a fresh window-1 model adapted on each batch."""

    def test_first_step_matches_zero_transition(self):
        # at the first step neither model has a link past the one from the
        # source head, so at one kappa_trans they agree
        rng = np.random.default_rng(12)
        w0 = rng.standard_normal((3, 5))
        batch = rng.standard_normal((15, 5))
        static = VmfModel(w0, VmfConfig(d=5, k=3, window=1)).adapt(1, batch)
        dynamic = VmfModel(w0, VmfConfig(d=5, k=3)).adapt(1, batch)
        np.testing.assert_allclose(
            static.prototypes, dynamic.prototypes, atol=1e-12
        )

    def test_same_fixed_point_as_zero_transition_window_one(self):
        # On a stationary stream the static fit and the window-1 dynamic
        # fit share their per-batch fixed point once kappa_trans, and with
        # it every link's message, is negligible.
        rng = np.random.default_rng(13)
        d = 8
        dirs = np.zeros((2, d))
        dirs[0, 0] = 1.0
        dirs[1, 1] = 1.0
        w0 = normalize_rows(dirs + 0.05 * rng.standard_normal((2, d)))
        kwargs = dict(d=d, k=2, kappa_trans=1e-6, e_sweeps=8)
        dynamic = VmfModel(w0, VmfConfig(window=1, **kwargs))
        for t in range(1, 9):
            labels = np.repeat([0, 1], 40)
            batch = cluster_batch(rng, dirs, labels, noise=0.1)
            static = VmfModel(w0, VmfConfig(window=1, **kwargs)).adapt(t, batch)
            dynamic.adapt(t, batch)
        for c in (0, 1):
            assert angular_deg(static.prototypes[c], dynamic.prototypes[c]) < 1e-4


class TestPredict:
    def test_single_class_probability_one(self):
        probs = predict_probs(np.ones((3, 2)) / math.sqrt(2) @ np.array([[1.0, 0.0]]).T, 5.0,
                              np.ones(1))
        np.testing.assert_array_equal(probs, np.ones((3, 1)))

    def test_equidistant_gives_uniform(self):
        protos = np.array([[1.0, 0.0], [-1.0, 0.0]])
        h = np.array([[0.0, 1.0]])
        probs = predict_probs(h @ protos.T, 25.0, np.full(2, 0.5))
        np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)

    def test_frozen_softmax_value(self):
        protos = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = predict_probs(np.array([[1.0, 0.0]]) @ protos.T, 1.0, np.full(2, 0.5))
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
                probs = predict_probs(h @ protos.T, kappa, np.full(k, 1.0 / k))
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
            d=d, k=k, kappa_trans=1e-6, window=1, e_sweeps=sweeps, kappa_ems=100.0,
        )
        model = VmfModel(init, cfg).adapt(1, feats)
        # the oracle has no mixing floor: the floor must not bind
        assert model._steps[-1].resp.mean(axis=0).min() > cfg.pi_floor
        rho, _, resp = oracles.variational_vmf_mixture_em(
            feats, model.source_prototypes, kappa_ems=100.0, kappa0=cfg.kappa_trans,
            sweeps=sweeps
        )
        for c in range(k):
            assert angular_deg(model.prototypes[c], rho[c]) < math.degrees(1e-6)
        np.testing.assert_allclose(model._steps[-1].resp, resp, atol=1e-8)


class TestWindowElboOracle:
    """The sweeps' fixed point against a numerical optimum of the window ELBO.

    The tracker needs K >= 2, so class 1 gets mixing weight 0 at every
    step: its responsibilities are exactly 0 and class 0's exactly 1, and
    each class is a K=1 chain, class 1 one without data. With the
    responsibilities fixed, the ELBO is a function of each step's natural
    parameter eta in R^D alone (`oracles.vmf_window_elbo`), which L-BFGS-B
    maximizes from the source prototypes. A window of `steps` > `window`
    has an evicted belief for its anchor, the others the source prior.
    Recorded: the ELBO gap (fixed point minus optimum) was at most 7e-14
    relative, the concentrations agreed within 2.3e-7 relative and the
    unit directions within 1.4e-8. The optimizer's own convergence sets
    these, so the bounds are 1e-9, 1e-5 and 1e-6.
    """

    KAPPA_TRANS, KAPPA_EMS = 10.0, 20.0

    @pytest.mark.parametrize("d, window, steps", [(3, 2, 2), (3, 2, 3), (8, 3, 3), (8, 2, 3)])
    def test_fixed_point_is_the_optimum(self, d, window, steps):
        rng = np.random.default_rng(40)
        pole = np.eye(1, d)[0]
        w0 = np.stack([pole, -pole])
        cfg = VmfConfig(d=d, k=2, kappa_trans=self.KAPPA_TRANS, kappa_ems=self.KAPPA_EMS,
                        window=window, e_sweeps=1)
        model = VmfModel(w0, cfg)
        drift = unit(rng.standard_normal(d))
        for t in range(1, steps + 1):
            centre = unit(pole + 0.2 * t * drift)
            model.adapt(t, cluster_batch(rng, centre[None], np.zeros(8, dtype=int), noise=0.3))
        for s in model._steps:
            s.mixing = np.array([1.0, 0.0])

        def etas():
            return np.stack([s.belief.conc[:, None] * s.belief.mean_dir for s in model._steps])

        prev = etas()
        for _ in range(100):
            model.coordinate_ascent_sweep()
            cur = etas()
            if np.abs(cur - prev).max() <= 1e-12 * np.abs(cur).max():
                break
            prev = cur
        else:
            pytest.fail("the sweeps did not converge")
        for s in model._steps:
            assert np.all(s.resp[:, 0] == 1.0) and np.all(s.resp[:, 1] == 0.0)

        # kappa_trans times the source head, or an evicted belief's expected prototype
        anchor_scale, anchor_vec = np.full(2, self.KAPPA_TRANS), w0
        if model._anchor is not model._prior:
            gone = model._anchor
            anchor_vec = oracles.scipy_bessel_ratio(d, gone.conc)[:, None] * gone.mean_dir
        args = (anchor_scale, anchor_vec, self.KAPPA_TRANS, self.KAPPA_EMS,
                [s.feats for s in model._steps], [s.resp for s in model._steps],
                [s.mixing for s in model._steps])

        def neg_elbo(x):
            value, grad = oracles.vmf_window_elbo(x.reshape(cur.shape), *args)
            return -value, -grad.ravel()

        start = np.broadcast_to(self.KAPPA_TRANS * w0, cur.shape).ravel()
        res = minimize(neg_elbo, start, jac=True, method="L-BFGS-B",
                       options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 1000})
        best = res.x.reshape(cur.shape)
        elbo = model.window_elbo()
        assert elbo == pytest.approx(oracles.vmf_window_elbo(cur, *args)[0], rel=1e-12)
        assert abs(elbo + res.fun) <= 1e-9 * abs(res.fun)
        np.testing.assert_allclose(np.linalg.norm(cur, axis=2), np.linalg.norm(best, axis=2),
                                   rtol=1e-5)
        np.testing.assert_allclose(cur / np.linalg.norm(cur, axis=2, keepdims=True),
                                   best / np.linalg.norm(best, axis=2, keepdims=True),
                                   rtol=0, atol=1e-6)
