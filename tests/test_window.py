"""Checks both trackers share through the sliding-window engine."""

import numpy as np
import pytest

from stad.errors import (
    DimensionMismatchError,
    EmptyBatchError,
    NonContiguousTimeError,
    NotAdaptedError,
)
from stad.gauss import GaussConfig, GaussModel
from stad.vmf import VmfConfig, VmfModel
from stad.window import SlidingWindow

D = 3
MODELS = {
    "vmf": lambda: VmfModel(np.eye(2, D), VmfConfig(d=D, k=2)),
    "vmf-static": lambda: VmfModel(np.eye(2, D), VmfConfig(d=D, k=2), static=True),
    "gauss": lambda: GaussModel(np.eye(2, D), GaussConfig(d=D, k=2)),
    # the id predates the one scalar form; this is the model that learns a_k, q and r
    "gauss-dense": lambda: GaussModel(np.eye(2, D), GaussConfig(d=D, k=2, learn_transition=True,
                                                                learn_sigmas=True)),
}
BATCH = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.2], [0.3, 0.0, 1.0]])


@pytest.fixture(params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


@pytest.mark.parametrize("bad, error", [
    (np.ones(D), DimensionMismatchError),
    (np.ones((4, D + 1)), DimensionMismatchError),
    (np.zeros((0, D)), EmptyBatchError),
], ids=["1-D batch", "wrong D", "empty batch"])
def test_adapt_rejects_bad_batch(model, bad, error):
    with pytest.raises(error):
        model.adapt(1, bad)
    assert model.window_times == []


@pytest.mark.parametrize("bad", [np.ones(D), np.ones((4, D + 1))], ids=["1-D batch", "wrong D"])
def test_predict_rejects_bad_batch_like_adapt(model, bad):
    model.adapt(1, BATCH)
    with pytest.raises(DimensionMismatchError):
        model.predict(bad)


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


def test_static_anchor_never_advances():
    model = MODELS["vmf-static"]()
    for t in range(1, 4):
        model.adapt(t, BATCH)
        assert model.window_times == [t]
        assert model._anchor is model._prior
