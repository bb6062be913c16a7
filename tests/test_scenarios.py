"""Named scenarios of known failure regimes.

Each scenario runs a tracker over a synthetic stream, at its default
settings or with a learn flag on. The accuracy scenarios score it against
the unadapted source head, the prototypes at the first step of the true
trajectory; the invariant scenarios check, after every step, what must
hold whatever the accuracy.
"""

import numpy as np
import pytest

from stad.gauss import GaussConfig, GaussModel
from stad.stream import DriftScenario, synth_drift
from stad.vmf import VmfConfig, VmfModel


def accuracies(model, batches, source):
    """(adapted, source head) accuracy over the stream, predicting each
    batch after adapting to it."""
    correct = source_correct = total = 0
    for batch in batches:
        model.adapt(batch.t, batch.features)
        correct += int(np.sum(model.predict(batch.features)[1] == batch.labels))
        source_correct += int(np.sum(np.argmax(batch.features @ source.T, axis=1)
                                     == batch.labels))
        total += batch.labels.size
    return correct / total, source_correct / total


def d512_sphere_stream():
    """Batches of the D=512, K=10 sphere stream (20 steps of N=200 at
    kappa_true=50, seed 0) and its source head."""
    batches, trajectory = synth_drift(
        DriftScenario(d=512, k=10, t_steps=20, n_per_step=200, kappa_true=50, seed=0))
    return batches, trajectory[0]


@pytest.mark.xfail(strict=True, reason=(
    "default kappa = 100 is weak at D=512 (A_D(100) = 0.19), so the prototypes "
    "drift towards the batch mean: accuracy 0.162 against 0.689 for the source head"))
def test_vmf_default_at_d512_keeps_up_with_source_head():
    batches, source = d512_sphere_stream()
    adapted, unadapted = accuracies(VmfModel(source, VmfConfig(d=512, k=10)), batches, source)
    assert adapted >= unadapted


@pytest.mark.xfail(strict=True, reason=(
    "STAD-Gauss collapses on low-SNR sphere data once it learns its noise: r falls "
    "from 0.5 to 0.002 in three steps, the means shrink to norms of 0.1-0.4 and the "
    "head reads near chance from step 5 on; accuracy 0.238 against 0.689 for the "
    "source head, and 0.690 with q and r fixed"))
def test_gauss_learned_noise_at_d512_sphere_keeps_up_with_source_head():
    batches, source = d512_sphere_stream()
    model = GaussModel(source, GaussConfig(d=512, k=10, learn_transition=True,
                                           learn_sigmas=True))
    adapted, unadapted = accuracies(model, batches, source)
    assert adapted >= unadapted


def test_gauss_learned_transition_alone_keeps_up_with_source_head():
    """Learned transition noise alone, with r at its default 0.5, keeps up
    with the source head (1.000 against 1.000)."""
    d, k = 64, 10
    batches, trajectory = synth_drift(DriftScenario(
        geometry="euclidean", d=d, k=k, t_steps=20, n_per_step=200, seed=0))
    source = trajectory[0]
    model = GaussModel(source, GaussConfig(d=d, k=k, learn_transition=True))
    adapted, unadapted = accuracies(model, batches, source)
    assert adapted >= unadapted


INVARIANT_CASES = ["one-sample", "k-above-n", "float32", "class-absent", "no-drift"]


def invariant_stream(tracker, case):
    """Source head and per-step batches (D=16) of one invariant case.

    The stream's features are float32; every case but "float32" passes
    them as float64. "class-absent" drops class 0 from every step after
    the first.
    """
    k = 6 if case == "k-above-n" else 4
    n = {"one-sample": 1, "k-above-n": 3}.get(case, 12)
    batches, trajectory = synth_drift(DriftScenario(
        geometry="sphere" if tracker == "vmf" else "euclidean", d=16, k=k, t_steps=8,
        n_per_step=n, drift_deg_per_step=0.0 if case == "no-drift" else 2.0,
        drift_scale=0.0 if case == "no-drift" else 0.02, seed=5))
    feats = []
    for i, batch in enumerate(batches):
        h = batch.features if case == "float32" else batch.features.astype(float)
        feats.append(h[batch.labels != 0] if case == "class-absent" and i else h)
    return trajectory[0], feats


def assert_simplex_rows(p, floor=0.0):
    assert np.all(p >= floor * (1.0 - 1e-12))
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", INVARIANT_CASES)
@pytest.mark.parametrize("tracker", ["vmf", "gauss"])
def test_invariants_hold_at_defaults(tracker, case):
    assert_invariants(tracker, case, {})


# The learned configs: vMF as the `vmf-d512-shift` bench row, Gauss with
# each learn flag alone and with both.
LEARNED_CONFIGS = {
    "vmf-kappa-ems": ("vmf", dict(learn_kappa_ems=True)),
    "gauss-q": ("gauss", dict(learn_transition=True)),
    "gauss-r": ("gauss", dict(learn_sigmas=True)),
    "gauss-q-r": ("gauss", dict(learn_transition=True, learn_sigmas=True)),
}


@pytest.mark.parametrize("case", INVARIANT_CASES)
@pytest.mark.parametrize("config", list(LEARNED_CONFIGS))
def test_invariants_hold_when_learning(config, case):
    tracker, options = LEARNED_CONFIGS[config]
    assert_invariants(tracker, case, options)


def assert_invariants(tracker, case, options):
    """Run one invariant case and check, after every step, the simplex rows,
    the argmax labels, unit vMF rows, finite Gauss means and a finite vMF
    window ELBO."""
    source, feats = invariant_stream(tracker, case)
    k, d = source.shape
    if tracker == "vmf":
        model = VmfModel(source, VmfConfig(d=d, k=k, **options))
    else:
        model = GaussModel(source, GaussConfig(d=d, k=k, **options))
    for t, h in enumerate(feats, start=1):
        assert h.shape[0] >= 1
        model.adapt(t, h)
        probs, labels = model.predict(h)
        assert_simplex_rows(probs)
        np.testing.assert_array_equal(labels, probs.argmax(axis=1))
        for step in model._steps:
            assert_simplex_rows(step.resp)
            assert_simplex_rows(step.mixing, model.config.pi_floor)
            if tracker == "vmf":
                np.testing.assert_allclose(np.linalg.norm(step.belief.mean_dir, axis=1), 1.0,
                                           rtol=0, atol=1e-12)
            else:
                assert np.isfinite(step.belief.mean).all()
        if tracker == "vmf":
            assert np.isfinite(model.window_elbo())
