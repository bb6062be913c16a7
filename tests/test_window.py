"""Checks both trackers share through the sliding-window engine."""

import copy
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from stad.errors import (
    MAX_SIZE,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    NonContiguousTimeError,
    NotAdaptedError,
    check_flag,
    check_int,
    check_real,
)
from stad.gauss import GaussConfig, GaussModel
from stad.mathcore import log_sum_exp, normalize_rows
from stad.vmf import VmfConfig, VmfModel, predict_probs
from stad.window import SlidingWindow, check_batches, mixing_floor, softmax_rows

D = 3
MODELS = {
    "vmf": lambda: VmfModel(np.eye(2, D), VmfConfig(d=D, k=2)),
    "vmf-window-1": lambda: VmfModel(np.eye(2, D), VmfConfig(d=D, k=2, window=1)),
    "vmf-learned": lambda: VmfModel(np.eye(2, D), VmfConfig(d=D, k=2, learn_kappa_ems=True)),
    "gauss": lambda: GaussModel(np.eye(2, D), GaussConfig(d=D, k=2)),
    "gauss-learned": lambda: GaussModel(np.eye(2, D), GaussConfig(d=D, k=2, learn_transition=True,
                                                                  learn_sigmas=True)),
}
BATCH = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.2], [0.3, 0.0, 1.0]])


@pytest.fixture(params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


BAD_BATCHES = pytest.mark.parametrize("bad, error", [
    (np.ones(D), DimensionMismatchError),
    (np.ones((4, D + 1)), DimensionMismatchError),
    (np.zeros((0, D)), EmptyInputError),
], ids=["1-D batch", "wrong D", "empty batch"])


@BAD_BATCHES
def test_adapt_rejects_bad_batch(model, bad, error):
    with pytest.raises(error) as info:
        model.adapt(1, bad)
    assert type(info.value) is error
    assert model.window_times == []


@BAD_BATCHES
def test_predict_rejects_bad_batch_like_adapt(model, bad, error):
    # one batch check serves both: the same class, not only a subclass of it
    model.adapt(1, BATCH)
    with pytest.raises(error) as info:
        model.predict(bad)
    assert type(info.value) is error


def test_adapt_is_the_one_window_loop(model, monkeypatch):
    # push, e_sweeps sweeps, then the re-estimates
    assert type(model).adapt is SlidingWindow.adapt
    calls = []
    for hook in ("_push", "_sweep", "_reestimate"):
        def spy(*args, hook=hook, original=getattr(model, hook)):
            calls.append(hook)
            return original(*args)

        monkeypatch.setattr(model, hook, spy)
    assert model.adapt(1, BATCH) is model
    assert calls == ["_push", *["_sweep"] * model.config.e_sweeps, "_reestimate"]


def test_predict_is_the_one_window_head(model, monkeypatch):
    # no tracker defines its own predict: bench/tracing.py's uninstall sets
    # the engine's function back as an own attribute, so an own entry may be
    # that function and nothing else
    assert vars(type(model)).get("predict", SlidingWindow.predict) is SlidingWindow.predict
    assert type(model).predict is SlidingWindow.predict
    model.adapt(1, BATCH)
    heads = []

    def spy(step, unit, original=model._head):
        heads.append((step, unit))
        return original(step, unit)

    monkeypatch.setattr(model, "_head", spy)
    for batch in (BATCH, 2.0 * BATCH):
        probs, labels = model.predict(batch)
        np.testing.assert_array_equal(labels, probs.argmax(axis=1))
    # the batch just adapted on hands over the newest step's own rows
    (step, own), (same, other) = heads
    assert step is same is model._steps[-1]
    assert own is step.feats and other is not step.feats
    np.testing.assert_array_equal(other, normalize_rows(2.0 * BATCH))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_row_order_within_a_batch_does_not_matter(name):
    rng = np.random.default_rng(3)
    batches = [np.eye(2, D)[rng.integers(0, 2, size=7)] + 0.3 * rng.standard_normal((7, D))
               for _ in range(6)]
    probe = rng.standard_normal((5, D))
    model, shuffled = MODELS[name](), MODELS[name]()
    for t, batch in enumerate(batches, start=1):
        model.adapt(t, batch)
        shuffled.adapt(t, batch[rng.permutation(len(batch))])
        np.testing.assert_allclose(shuffled.prototypes, model.prototypes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(shuffled.mixing, model.mixing, rtol=0, atol=1e-12)
        for learned in ("kappa_ems", "sigma_trans", "sigma_ems"):
            if hasattr(model, learned):
                assert getattr(shuffled, learned) == pytest.approx(getattr(model, learned),
                                                                   rel=1e-12, abs=0)
        perm = rng.permutation(len(probe))
        np.testing.assert_allclose(shuffled.predict(probe[perm])[0], model.predict(probe)[0][perm],
                                   rtol=0, atol=1e-12)


def full_path_probs(model, feats):
    """The head of either tracker on normalize_rows(feats) and the model's
    views, as `predict` computes it on a batch it has not adapted on."""
    dots = normalize_rows(feats) @ model.prototypes.T
    if isinstance(model, VmfModel):
        return predict_probs(dots, model.kappa_ems, model.mixing)
    return np.exp(dots - log_sum_exp(dots, axis=1)[:, None])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_predict_on_the_adapted_batch_matches_the_full_path(name):
    rng = np.random.default_rng(5)
    model = MODELS[name]()
    for t in range(1, 6):
        batch = rng.standard_normal((7, D))
        model.adapt(t, batch)
        probs, labels = model.predict(batch)
        expected = full_path_probs(model, batch)
        np.testing.assert_array_equal(probs, expected)
        np.testing.assert_array_equal(labels, expected.argmax(axis=1))
        np.testing.assert_array_equal(model.predict(batch.copy())[0], expected)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_predict_sees_a_batch_written_after_adapt(name):
    rng = np.random.default_rng(6)
    model = MODELS[name]()
    for t in range(1, 5):
        batch = rng.standard_normal((7, D))
        model.adapt(t, batch)
        before = full_path_probs(model, batch)
        batch[2, 1] += 0.5   # one element, in place
        probs = model.predict(batch)[0]
        np.testing.assert_array_equal(probs, full_path_probs(model, batch))
        assert not np.array_equal(probs[2], before[2])
        np.testing.assert_array_equal(probs[[0, 1, 3, 4, 5, 6]], before[[0, 1, 3, 4, 5, 6]])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_float32_batch_and_its_float64_copy_give_the_same_bits(name):
    # the benchmark's streams are float32 on disk
    rng = np.random.default_rng(7)
    single, double = MODELS[name](), MODELS[name]()
    for t in range(1, 6):
        batch32 = rng.standard_normal((7, D)).astype(np.float32)
        batch64 = batch32.astype(np.float64)
        single.adapt(t, batch32)
        double.adapt(t, batch64)
        probs = single.predict(batch32)[0]
        np.testing.assert_array_equal(probs, double.predict(batch64)[0])
        np.testing.assert_array_equal(probs, single.predict(batch64)[0])
        np.testing.assert_array_equal(probs, full_path_probs(single, batch64))
        np.testing.assert_array_equal(single.prototypes, double.prototypes)


def test_non_contiguous_time_rejected(model):
    model.adapt(1, BATCH)
    with pytest.raises(NonContiguousTimeError):
        model.adapt(3, BATCH)
    assert model.window_times == [1]


def test_views_and_predict_need_an_adapt(model):
    for view in (lambda: model.predict(BATCH), lambda: model.prototypes, lambda: model.mixing):
        with pytest.raises(NotAdaptedError):
            view()


def test_sweep_needs_an_adapt(model):
    sweep = getattr(model, "coordinate_sweep", None) or model.coordinate_ascent_sweep
    with pytest.raises(NotAdaptedError):
        sweep()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_beliefs_are_values_that_steps_share(name, monkeypatch):
    # no update writes into a belief, so a push shares the newest kept
    # belief, or the anchor, and the sweeps replace it
    rng = np.random.default_rng(8)
    model = MODELS[name]()
    push, pushed = model._push, []

    def spy(t, feats):
        push(t, feats)
        steps = model._steps
        pushed.append(steps[-1].belief is (steps[-2].belief if len(steps) > 1 else model._anchor))

    monkeypatch.setattr(model, "_push", spy)
    for t in range(1, model.config.window + 3):
        held = [s.belief for s in model._steps] + [model._anchor, model._prior]
        saved = copy.deepcopy(held)
        model.adapt(t, rng.standard_normal((6, D)))
        for belief, before in zip(held, saved):
            for field in dataclasses.fields(belief):
                np.testing.assert_array_equal(getattr(belief, field.name),
                                              getattr(before, field.name))
        beliefs = [s.belief for s in model._steps]
        # `_left_message` tells the prior from an evicted anchor by identity
        assert len({id(b) for b in beliefs}) == len(beliefs)
        assert all(b is not model._prior for b in beliefs)
        for belief in beliefs:
            for field in dataclasses.fields(belief):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(belief, field.name, getattr(belief, field.name))
    assert pushed == [True] * (model.config.window + 2)


def random_logits(shape, seed):
    """Logits of a wide spread, with about one entry in ten -inf and every
    row's max finite."""
    rng = np.random.default_rng(seed)
    logits = 30.0 * rng.standard_normal(shape)
    logits[rng.random(shape) < 0.1] = -np.inf
    logits[:, rng.integers(shape[1])] = rng.standard_normal(shape[0])
    return logits


@pytest.mark.parametrize("shape", [(1, 7), (9, 1), (40, 10), (64, 1000)])
def test_softmax_rows_keeps_the_bits_of_the_log_sum_exp_form(shape):
    logits = random_logits(shape, seed=shape[0] * shape[1])
    expected = np.exp(logits - log_sum_exp(logits, axis=1)[:, None])
    assert softmax_rows(logits.copy()).tobytes() == expected.tobytes()


def test_softmax_rows_writes_into_its_argument():
    logits = random_logits((5, 4), seed=3)
    out = softmax_rows(logits)
    assert out is logits
    np.testing.assert_allclose(logits.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_softmax_rows_gives_0_below_the_float_range():
    # the shifted entry, -2e308, overflows to -inf without a warning
    np.testing.assert_array_equal(softmax_rows(np.array([[1e308, -1e308], [0.0, 0.0]])),
                                  [[1.0, 0.0], [0.5, 0.5]])


@pytest.mark.xfail(strict=True, reason=(
    "x - (log sum exp(x - m) + m) loses the small log sum to a large row max m: the "
    "rows [[s, s], [s, s - 1]] sum to 0.99999952 and 1.00000066 at s = 1e10, and to 2 "
    "at s = 1e16 and -5e199. (x - m) - log sum exp(x - m) mends it, but moves the bits "
    "that the replay hashes and the log-sum-exp form pins hold"))
def test_softmax_rows_sum_to_1_at_a_large_row_max():
    for s in (1e10, 1e16, -5e199):
        probs = softmax_rows(np.array([[s, s], [s, s - 1.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [
    [[0.0, 1.0], [np.nan, 0.0]], [[0.0, 1.0], [2.0, np.inf]], [[0.0, 1.0], [-np.inf, -np.inf]],
], ids=["NaN", "+inf", "all -inf"])
def test_softmax_rows_rejects_a_row_without_a_finite_max(bad):
    with pytest.raises(DomainError):
        softmax_rows(np.array(bad))


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_softmax_rows_rejects_an_empty_array(shape):
    with pytest.raises(EmptyInputError):
        softmax_rows(np.zeros(shape))


@pytest.mark.parametrize("value, bounds", [
    ("x", {}), (None, {}), (True, {}), (np.array(1.0), {}), (float("nan"), {}),
    (float("inf"), {}), (-float("inf"), {}), (-1.0, dict(minimum=0.0)),
    (0.0, dict(minimum=0.0, above=True)), (2.5, dict(minimum=0.0, maximum=2.0)),
    (10**400, {}), (-10**400, {}), (np.float32("inf"), {}),
    # past the digit limit for str, so the message must not repr them
    pytest.param(10**5000, {}, id="10**5000"), pytest.param(-10**5000, {}, id="-10**5000"),
])
def test_check_real_rejects(value, bounds):
    with pytest.raises(DomainError):
        check_real("x", value, **bounds)


@pytest.mark.parametrize("value, bounds", [
    (0, {}), (-3.5, {}), (np.float32(2.0), {}), (np.int64(7), {}), (0.0, dict(minimum=0.0)),
    (1e-300, dict(minimum=0.0, above=True)), (2.0, dict(minimum=0.0, maximum=2.0)),
    (np.float64(1.5), dict(minimum=0.0)), (np.float32(0.5), dict(maximum=1.0)),
    (Fraction(1, 3), dict(minimum=0.0, above=True)), (7, dict(minimum=0.0, maximum=7.0)),
    (10**308, {}),
])
def test_check_real_accepts(value, bounds):
    check_real("x", value, **bounds)


@pytest.mark.parametrize("value", ["x", None, True, 2.0, 1.5, np.int64(0), np.array(3), -1,
                                   pytest.param(-10**5000, id="-10**5000")])
def test_check_int_rejects(value):
    with pytest.raises(DomainError):
        check_int("x", value, 1)


@pytest.mark.parametrize("value", [1, 10**400, np.int64(5), np.uint8(1)])
def test_check_int_accepts(value):
    check_int("x", value, 1)


@pytest.mark.parametrize("value", [10**400, MAX_SIZE + 1, pytest.param(10**5000, id="10**5000")])
def test_check_int_size_rejects_beyond_max_size(value):
    check_int("x", value, 1)
    with pytest.raises(DomainError):
        check_int("x", value, 1, size=True)


@pytest.mark.parametrize("value", [1, MAX_SIZE, np.int64(5), np.uint8(1)])
def test_check_int_size_accepts(value):
    check_int("x", value, 1, size=True)


@pytest.mark.parametrize("value", ["no", "", None, 0, 1, 1.0, np.int64(1), np.array(True),
                                   np.array([True]), [True]], ids=repr)
def test_check_flag_rejects(value):
    with pytest.raises(DomainError):
        check_flag("x", value)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
def test_check_flag_accepts(value):
    check_flag("x", value)


def test_check_batches_takes_any_iterable():
    # the window's batches arrive as lists; any iterable of arrays converts alike
    batch, resp = np.eye(3, 2), np.full((3, 2), 0.5)
    feats, resps, n_total = check_batches(iter([batch]), (r for r in [resp]), 1, 2, 2, "test")
    assert n_total == 3
    np.testing.assert_array_equal(feats[0], batch)
    np.testing.assert_array_equal(resps[0], resp)


TRACKERS = pytest.mark.parametrize("tracker, config", [(VmfModel, VmfConfig),
                                                       (GaussModel, GaussConfig)],
                                   ids=["vmf", "gauss"])


@TRACKERS
def test_configs_read_the_one_mixing_floor(tracker, config):
    # 1e-4 up to K = 1000, 1/(10K) beyond; no config sets it
    assert [config(d=4, k=k).pi_floor for k in (10, 1000, 10_000)] == [1e-4, 1e-4, 1e-5]
    with pytest.raises(dataclasses.FrozenInstanceError):
        config(d=4, k=10).pi_floor = 0.0


def test_vmf_config_of_ten_thousand_classes_builds():
    assert VmfConfig(d=64, k=10_000).pi_floor == mixing_floor(10_000)


def test_gauss_config_of_max_size_classes_builds():
    assert GaussConfig(d=3, k=MAX_SIZE).pi_floor == mixing_floor(MAX_SIZE) < 1.0 / MAX_SIZE


@TRACKERS
def test_a_model_of_ten_thousand_classes_adapts(tracker, config):
    # five rows leave almost every class at the floor 1/(10K) = 1e-5
    rng = np.random.default_rng(31)
    model = tracker(rng.standard_normal((10_000, 64)), config(d=64, k=10_000))
    model.adapt(1, rng.standard_normal((5, 64)))
    assert model.mixing.min() == 1e-5
    assert model.mixing.sum() == pytest.approx(1.0, abs=1e-12)
