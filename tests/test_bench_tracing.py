"""The traced benchmark's rebinding of `stad` names, checked in the unit tests.

`bench/tracing.py` wraps module and class attributes of `stad` by name.
A refactor that drops or renames one of them, or that stops looking one
up through its module at call time, would otherwise only show in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from stad import gauss, mathcore, vmf
from stad.gauss import GaussConfig, GaussModel
from stad.mathcore import normalize_rows
from stad.vmf import VmfConfig, VmfModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (mathcore, vmf, gauss, VmfModel, GaussModel)
# Names the vMF tracker must keep and look up through `vmf` at call time,
# with the span each one's wrapper records.
VMF_SPANS = {
    "assignment_step": "vmf.assignment_step",
    "expected_prototype": "vmf.expected_prototype",
    "kappa_update": "vmf.kappa_update",
    "predict_probs": "vmf.predict_probs",
    "mixing_update": "vmf.mixing_update",
    "bessel_ratio": "mathcore.bessel_ratio",
    "normalize_rows": "mathcore.normalize_rows",
    "log_sum_exp": "mathcore.log_sum_exp",
}
VMF_METHODS = ("adapt", "predict", "coordinate_ascent_sweep")
# The same for the Gaussian tracker.
GAUSS_SPANS = {
    "kf_predict": "gauss.kf_predict",
    "kf_update_weighted": "gauss.kf_update_weighted",
    "kf_smooth": "gauss.kf_smooth",
    "gauss_assignments": "gauss.gauss_assignments",
    "gauss_m_step": "gauss.gauss_m_step",
    "mixing_update": "vmf.mixing_update",
    "log_sum_exp": "mathcore.log_sum_exp",
}
GAUSS_METHODS = ("adapt", "predict", "coordinate_sweep")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [(owner, dict(vars(owner))) for owner in OWNERS]


def methods(cls, names):
    """The methods a traced class rebinds, looked up as a caller sees them:
    `adapt` is inherited from the window engine, so it is not in vars(cls)."""
    return {name: getattr(cls, name) for name in names}


def assert_restored(before, cls, names, before_methods):
    after = snapshot()
    for (owner, old), (_, new) in zip(before, after):
        for name, value in old.items():
            assert new[name] is value, f"{owner.__name__}.{name} not restored"
    for name, value in methods(cls, names).items():
        assert value is before_methods[name], f"{cls.__name__}.{name} not restored"


def test_install_rebinds_and_uninstall_restores():
    tracing = load_tracing()
    before, before_methods = snapshot(), methods(VmfModel, VMF_METHODS)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for name in VMF_SPANS:
            assert vars(vmf)[name] is not dict(before)[vmf][name], name
        for name in VMF_METHODS:
            assert getattr(VmfModel, name) is not before_methods[name], name
        # every wrapped vMF layer fires, so each is looked up by name at call time
        rng = np.random.default_rng(0)
        d, k = 8, 3
        model = VmfModel(rng.standard_normal((k, d)),
                         VmfConfig(d=d, k=k, window=2, learn_kappa_ems=True))
        for t in (1, 2, 3):
            model.adapt(t, normalize_rows(rng.standard_normal((12, d))))
        model.predict(normalize_rows(rng.standard_normal((4, d))))
        fired = {span[0] for span in tracer.spans}
        for name, span in VMF_SPANS.items():
            assert span in fired, name
        for name in VMF_METHODS:
            assert f"vmf.{name}" in fired, name
    finally:
        uninstall()
    assert_restored(before, VmfModel, VMF_METHODS, before_methods)


def test_gauss_dense_path_fires_every_wrapped_name():
    tracing = load_tracing()
    before, before_methods = snapshot(), methods(GaussModel, GAUSS_METHODS)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for name in (*GAUSS_SPANS, "cho_factor"):
            assert vars(gauss)[name] is not dict(before)[gauss][name], name
        for name in GAUSS_METHODS:
            assert getattr(GaussModel, name) is not before_methods[name], name
        # the default model: every kernel runs, and the M-step is called
        # (and learns nothing) once the window holds two steps
        rng = np.random.default_rng(1)
        d, k = 5, 3
        model = GaussModel(rng.standard_normal((k, d)), GaussConfig(d=d, k=k, window=2))
        tracer.timed = True
        for t in (1, 2, 3):
            model.adapt(t, rng.standard_normal((12, d)))
        model.predict(rng.standard_normal((4, d)))
        fired = {span[0] for span in tracer.spans}
        for name, span in GAUSS_SPANS.items():
            assert span in fired, name
        for name in GAUSS_METHODS:
            assert f"gauss.{name}" in fired, name
        # gauss.cho_factor stays importable for the tracer, and nothing factors
        assert tracer.counts["cho_factor.calls"] == 0
        assert tracer.counts["kf_update_weighted.calls"] > 0
    finally:
        uninstall()
    assert_restored(before, GaussModel, GAUSS_METHODS, before_methods)
