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
from stad.mathcore import estimate_kappa
from stad.stream import DriftScenario, synth_drift
from stad.vmf import VmfConfig, VmfModel

import oracles


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


def test_gauss_default_at_d512_sphere_keeps_up_with_source_head():
    """Gauss at its defaults keeps up with the source head on the D=512
    sphere stream (0.6900 against 0.68925), which a fit of its defaults to
    sphere data must not lose."""
    batches, source = d512_sphere_stream()
    adapted, unadapted = accuracies(GaussModel(source, GaussConfig(d=512, k=10)), batches,
                                    source)
    assert adapted >= unadapted


def small_stream(geometry, t_steps, n_per_step, **drift):
    """Batches of a D=64, K=10 stream (seed 0) and its source head."""
    batches, trajectory = synth_drift(DriftScenario(
        geometry=geometry, d=64, k=10, t_steps=t_steps, n_per_step=n_per_step, seed=0, **drift))
    return batches, trajectory[0]


# The paper's small-batch claim, recorded at N=1, where K > N at every step.
@pytest.mark.xfail(strict=True, reason=(
    "at N=1 the vMF defaults fall below the source head on 200 sphere steps: "
    "accuracy 0.4300 against 0.4750"))
def test_vmf_default_at_one_sample_per_step_keeps_up_with_source_head():
    batches, source = small_stream("sphere", 200, 1)
    adapted, unadapted = accuracies(VmfModel(source, VmfConfig(d=64, k=10)), batches, source)
    assert adapted >= unadapted


def test_labelled_filter_at_one_sample_per_step_beats_the_source_head():
    """The stream of the N=1 vMF record can be tracked: the labelled filter
    of `oracles` (rho = 0.9, kappa_ems = kappa_true = 50) reads 0.870
    against 0.475 for the source head, so the record's gap is the
    label-free tracker's, not the stream's."""
    batches, source = small_stream("sphere", 200, 1)
    feats = [b.features.astype(float) for b in batches]
    labels = [b.labels for b in batches]
    preds = oracles.labelled_vmf_filter(source, feats, labels, estimate_kappa(0.9, 64), 50.0)
    truth = np.concatenate(labels)
    labelled = np.mean(np.concatenate(preds) == truth)
    unadapted = np.mean(np.concatenate([np.argmax(h @ source.T, axis=1) for h in feats]) == truth)
    assert labelled > unadapted


@pytest.mark.xfail(strict=True, reason=(
    "at N=1 the Gauss defaults fall below the source head on 200 Euclidean steps: "
    "accuracy 0.8750 against 0.9700"))
def test_gauss_default_at_one_sample_per_step_keeps_up_with_source_head():
    batches, source = small_stream("euclidean", 200, 1)
    adapted, unadapted = accuracies(GaussModel(source, GaussConfig(d=64, k=10)), batches,
                                    source)
    assert adapted >= unadapted


@pytest.mark.xfail(strict=True, reason=(
    "with no drift the source head is the true one, and the vMF defaults fall just "
    "below it on 30 steps of N=200: accuracy 0.9985 against 0.9993"))
def test_vmf_default_without_drift_keeps_up_with_source_head():
    batches, source = small_stream("sphere", 30, 200, drift_deg_per_step=0.0, drift_scale=0.0)
    adapted, unadapted = accuracies(VmfModel(source, VmfConfig(d=64, k=10)), batches, source)
    assert adapted >= unadapted


def per_sample_streams(geometry, n_per_step):
    """Batches and source heads of the D=64, K=10 streams of seeds 0-2 that
    drift a fixed 0.2 degrees per sample: 0.2 N degrees per step over
    400 / N steps. MAX_DRIFT_DEG caps the drift per step, so a sphere
    stream holds this drift per sample up to N = 50. A Euclidean stream
    takes the same step counts but drifts drift_scale = 0.02 per step,
    so its drift per sample falls as N grows."""
    for seed in range(3):
        batches, trajectory = synth_drift(DriftScenario(
            geometry=geometry, d=64, k=10, t_steps=400 // n_per_step, n_per_step=n_per_step,
            drift_deg_per_step=0.2 * n_per_step, seed=seed))
        yield batches, trajectory[0]


PER_SAMPLE_TRACKERS = {"vmf": ("sphere", VmfModel, VmfConfig),
                       "gauss": ("euclidean", GaussModel, GaussConfig)}


def _per_sample_record(tracker, n_per_step, adapted, source):
    geometry = PER_SAMPLE_TRACKERS[tracker][0]
    return pytest.param(tracker, n_per_step, id=f"{tracker}-N={n_per_step}",
                        marks=pytest.mark.xfail(strict=True, reason=(
                            f"on the per-sample {geometry} streams at N={n_per_step} the "
                            f"{tracker} defaults fall below the source head over seeds 0-2: "
                            f"accuracy {adapted} against {source}")))


# The paper's small-batch claim at a drift per sample that labels can track.
@pytest.mark.parametrize("tracker, n_per_step", [
    _per_sample_record("vmf", 1, "0.5708", "0.8625"),
    _per_sample_record("vmf", 4, "0.7017", "0.8575"),
    _per_sample_record("gauss", 1, "0.4942", "0.6650"),
    _per_sample_record("gauss", 4, "0.9600", "1.0000"),
])
def test_default_at_a_fixed_drift_per_sample_keeps_up_with_source_head(tracker, n_per_step):
    """Pooled over seeds 0-2, since one seed can tie: vMF at N=4 reads
    0.8725 against 0.8725 on seed 0."""
    geometry, model, config = PER_SAMPLE_TRACKERS[tracker]
    runs = [accuracies(model(source, config(d=64, k=10)), batches, source)
            for batches, source in per_sample_streams(geometry, n_per_step)]
    adapted, unadapted = np.mean(runs, axis=0)
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
