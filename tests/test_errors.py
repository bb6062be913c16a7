"""Every entry point keeps the promise of `errors.py`: a bad argument raises
DomainError, and arrays of mismatched shapes DimensionMismatchError, both
StadErrors, never a bare TypeError, ValueError or OverflowError, and is
never run with a value it silently coerced; every exported name that takes
an array has a row here; and the one size domain, `MAX_SIZE`, covers every
benchmark workload with room to spare."""

import dataclasses
import inspect
import os
import runpy
from pathlib import Path

import numpy as np
import pytest

from stad import gauss, mathcore, stream, vmf, window
from stad.errors import (MAX_SIZE, DimensionMismatchError, DomainError, EmptyInputError,
                         ZeroVectorError)
from stad.gauss import GaussBelief, GaussConfig, GaussModel
from stad.stream import (DriftScenario, EmbeddingBatch, make_label_shift, sample_vmf,
                         synth_drift, well_separated_directions, write_matrix, write_stream)
from stad.vmf import VmfConfig, VmfModel
from stad.window import check_batches, mixing_update, softmax_rows

MEAN, VAR = np.eye(2, 3), np.full(2, 0.1)
FEATS, RESP = np.eye(3), np.full((3, 2), 0.5)
DOTS = FEATS @ MEAN.T  # the (N, K) products the vMF kernels take
BATCH = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.2], [0.3, 0.0, 1.0]])


def batches(labels=(0, 1, 1)):
    labels = np.array(labels, dtype=np.uint32)
    return [EmbeddingBatch(1, np.ones((len(labels), 2), np.float32), labels)]


def vmf_model():
    return VmfModel(np.eye(2, 3), VmfConfig(d=3, k=2))


def gauss_model():
    return GaussModel(np.eye(2, 3), GaussConfig(d=3, k=2))


def adapted(make):
    model = make()
    model.adapt(1, BATCH)
    return model


CASES = {
    # gauss: q and r go through check_real after the shape checks
    "kf_predict q a string": lambda tmp: gauss.kf_predict(MEAN, VAR, "x"),
    "kf_predict q a bool": lambda tmp: gauss.kf_predict(MEAN, VAR, True),
    "kf_predict q a 0-d array": lambda tmp: gauss.kf_predict(MEAN, VAR, np.array(0.1)),
    "kf_predict q 10**400": lambda tmp: gauss.kf_predict(MEAN, VAR, 10**400),
    # a noise is a scalar: given as an array of any shape, the scalar rule refuses it
    "kf_predict q a (K,) array": lambda tmp: gauss.kf_predict(MEAN, VAR, np.full(2, 0.1)),
    "kf_smooth q a (K,) array": lambda tmp: gauss.kf_smooth(MEAN[None], VAR[None], np.full(2, 0.1)),
    "kf_update_weighted r a (1,) array":
        lambda tmp: gauss.kf_update_weighted(MEAN, VAR, FEATS, RESP, np.full(1, 0.5)),
    "gauss_assignments r a (D, D) array":
        lambda tmp: gauss.gauss_assignments(FEATS, GaussBelief(MEAN, VAR), np.full(2, 0.5),
                                            np.eye(3)),
    "kf_smooth q a string": lambda tmp: gauss.kf_smooth(MEAN[None], VAR[None], "x"),
    "kf_smooth q a bool": lambda tmp: gauss.kf_smooth(MEAN[None], VAR[None], True),
    "kf_update_weighted r a string":
        lambda tmp: gauss.kf_update_weighted(MEAN, VAR, FEATS, RESP, "x"),
    "kf_update_weighted r a bool":
        lambda tmp: gauss.kf_update_weighted(MEAN, VAR, FEATS, RESP, True),
    "kf_update_weighted r a 0-d array":
        lambda tmp: gauss.kf_update_weighted(MEAN, VAR, FEATS, RESP, np.array(0.5)),
    "gauss_assignments r a string":
        lambda tmp: gauss.gauss_assignments(FEATS, GaussBelief(MEAN, VAR), np.full(2, 0.5), "x"),
    "gauss_assignments r a bool":
        lambda tmp: gauss.gauss_assignments(FEATS, GaussBelief(MEAN, VAR), np.full(2, 0.5), True),
    # mathcore: d through check_int, the Bessel order through check_real,
    # arrays through one conversion
    "bessel_ratio d=2.5": lambda tmp: mathcore.bessel_ratio(2.5, 1.0),
    "bessel_ratio d=2.0": lambda tmp: mathcore.bessel_ratio(2.0, 1.0),
    "bessel_ratio kappa a string": lambda tmp: mathcore.bessel_ratio(3, "x"),
    "log_vmf_norm_const d=3.0": lambda tmp: mathcore.log_vmf_norm_const(3.0, 1.0),
    "log_vmf_norm_const kappa a string": lambda tmp: mathcore.log_vmf_norm_const(3, "x"),
    "estimate_kappa d=3.5": lambda tmp: mathcore.estimate_kappa(0.5, 3.5),
    "estimate_kappa r_bar a string": lambda tmp: mathcore.estimate_kappa("x", 3),
    "estimate_kappa_clamped r_bar a string": lambda tmp: mathcore.estimate_kappa_clamped("x", 8),
    "log_bessel_i order a string": lambda tmp: mathcore.log_bessel_i("x", 1.0),
    "log_bessel_i order a bool": lambda tmp: mathcore.log_bessel_i(True, 1.0),
    "log_bessel_i order 10**400": lambda tmp: mathcore.log_bessel_i(10**400, 1.0),
    "log_bessel_i order MAX_SIZE + 1": lambda tmp: mathcore.log_bessel_i(MAX_SIZE + 1, 1.0),
    "log_bessel_i argument a string": lambda tmp: mathcore.log_bessel_i(1.5, "x"),
    "bessel_ratio d=10**400": lambda tmp: mathcore.bessel_ratio(10**400, 1.0),
    "log_vmf_norm_const d=10**400": lambda tmp: mathcore.log_vmf_norm_const(10**400, 1.0),
    "estimate_kappa d=10**400": lambda tmp: mathcore.estimate_kappa(0.5, 10**400),
    "estimate_kappa_clamped d=10**400": lambda tmp: mathcore.estimate_kappa_clamped(0.5, 10**400),
    "bessel_ratio d=MAX_SIZE + 1": lambda tmp: mathcore.bessel_ratio(MAX_SIZE + 1, 1.0),
    "log_vmf_norm_const d=MAX_SIZE + 1":
        lambda tmp: mathcore.log_vmf_norm_const(MAX_SIZE + 1, 1.0),
    "estimate_kappa d=MAX_SIZE + 1": lambda tmp: mathcore.estimate_kappa(0.5, MAX_SIZE + 1),
    "normalize_rows a string": lambda tmp: mathcore.normalize_rows("x"),
    "log_sum_exp a string": lambda tmp: mathcore.log_sum_exp("x"),
    # an axis is None or an int in [-ndim, ndim)
    "log_sum_exp axis 5": lambda tmp: mathcore.log_sum_exp(np.zeros((2, 3)), axis=5),
    "log_sum_exp axis 2 of a 2-d array": lambda tmp: mathcore.log_sum_exp(np.zeros((2, 3)), axis=2),
    "log_sum_exp axis -3 of a 2-d array":
        lambda tmp: mathcore.log_sum_exp(np.zeros((2, 3)), axis=-3),
    "log_sum_exp axis a string": lambda tmp: mathcore.log_sum_exp(np.zeros((2, 3)), axis="x"),
    "log_sum_exp axis a bool": lambda tmp: mathcore.log_sum_exp(np.zeros((2, 3)), axis=True),
    "log_sum_exp axis 0 of a scalar": lambda tmp: mathcore.log_sum_exp(1.0, axis=0),
    # stream
    "write_stream k=2.7": lambda tmp: write_stream(tmp, batches(), 2.7),
    "write_stream k a string": lambda tmp: write_stream(tmp, batches(), "x"),
    "write_stream metadata a list": lambda tmp: write_stream(tmp, batches(), 3, metadata=["a"]),
    "write_matrix a string": lambda tmp: write_matrix(tmp / "m.emb", "x"),
    "make_label_shift seed=-1": lambda tmp: make_label_shift(batches(), -1, 3),
    "make_label_shift k a string": lambda tmp: make_label_shift(batches(), 0, "x"),
    "make_label_shift (N, 1) labels": lambda tmp: make_label_shift(batches([[0], [1]]), 0, 3),
    "make_label_shift ragged labels":
        lambda tmp: make_label_shift([EmbeddingBatch(1, np.ones((2, 3)), [[0], [1, 2]])], 0, 2),
    "write_stream ragged labels":
        lambda tmp: write_stream(tmp, [EmbeddingBatch(1, np.ones((2, 3)), [[0], [1, 2]])], 2),
    "DriftScenario geometry a two-element array":
        lambda tmp: DriftScenario(geometry=np.array(["sphere", "x"])),
    "DriftScenario geometry a one-element array":
        lambda tmp: DriftScenario(geometry=np.array(["sphere"])),
    # the generator's domain: a concentration in (0, KAPPA_MAX], a noise, a
    # drift scale and a Dirichlet alpha at most MAX_SCALE in size
    "DriftScenario kappa_true 2e6": lambda tmp: DriftScenario(kappa_true=2e6),
    "DriftScenario sigma_true 2e6": lambda tmp: DriftScenario(sigma_true=2e6),
    "DriftScenario drift_scale 2e6": lambda tmp: DriftScenario(drift_scale=2e6),
    "DriftScenario drift_scale -2e6": lambda tmp: DriftScenario(drift_scale=-2e6),
    "DriftScenario dirichlet_alpha 2e6": lambda tmp: DriftScenario(dirichlet_alpha=2e6),
    # numpy's Dirichlet draws overflow to [0, 0] at this alpha
    "synth_drift dirichlet_alpha 1e308":
        lambda tmp: synth_drift(DriftScenario(d=4, k=2, t_steps=2, n_per_step=5,
                                              dirichlet_alpha=1e308)),
    "sample_vmf kappa 2e6": lambda tmp: sample_vmf(np.random.default_rng(0), np.eye(3)[0], 2e6, 3),
    # a float64 feature beyond the float32 range narrows to inf, which the
    # step contract refuses
    "write_stream features beyond float32":
        lambda tmp: write_stream(tmp, [EmbeddingBatch(1, np.full((2, 3), 1e39))], 2),
    "make_label_shift features beyond float32":
        lambda tmp: make_label_shift([EmbeddingBatch(1, np.full((2, 3), 1e39), [0, 1])], 0, 2),
    "make_label_shift list features with a string":
        lambda tmp: make_label_shift([EmbeddingBatch(1, [["x", 1.0]], [0])], 0, 2),
    "make_label_shift list labels out of range":
        lambda tmp: make_label_shift([EmbeddingBatch(1, [[1.0, 0.0]], [5])], 0, 2),
    "sample_vmf mu a string": lambda tmp: sample_vmf(np.random.default_rng(0), "x", 5.0, 3),
    "well_separated_directions d=1":
        lambda tmp: well_separated_directions(np.random.default_rng(0), 1, 2),
    # a size above MAX_SIZE is refused; a seed or t takes any integer
    "well_separated_directions d=10**400":
        lambda tmp: well_separated_directions(np.random.default_rng(0), 10**400, 2),
    "well_separated_directions k=10**400":
        lambda tmp: well_separated_directions(np.random.default_rng(0), 3, 10**400),
    "DriftScenario d=10**400": lambda tmp: DriftScenario(d=10**400, k=2, t_steps=1, n_per_step=1),
    "DriftScenario k=10**400": lambda tmp: DriftScenario(k=10**400),
    "write_stream k=10**400": lambda tmp: write_stream(tmp, batches(), 10**400),
    "make_label_shift k=10**400": lambda tmp: make_label_shift(batches(), 0, 10**400),
    "VmfConfig d=10**400": lambda tmp: VmfConfig(d=10**400, k=2),
    "GaussConfig k=10**400": lambda tmp: GaussConfig(d=3, k=10**400),
    # past MAX_SIZE but within the float range, where numpy would refuse the
    # array size with a bare ValueError
    "well_separated_directions d=10**30":
        lambda tmp: well_separated_directions(np.random.default_rng(0), 10**30, 2),
    "make_label_shift k=10**30": lambda tmp: make_label_shift(batches(), 0, 10**30),
    "sample_vmf n=10**30":
        lambda tmp: sample_vmf(np.random.default_rng(0), np.eye(3)[0], 5.0, 10**30),
    "VmfConfig d=MAX_SIZE + 1": lambda tmp: VmfConfig(d=MAX_SIZE + 1, k=2),
    "VmfConfig k=1": lambda tmp: VmfConfig(d=4, k=1),
    "GaussConfig k=MAX_SIZE + 1": lambda tmp: GaussConfig(d=3, k=MAX_SIZE + 1),
    "DriftScenario d=MAX_SIZE + 1": lambda tmp: DriftScenario(d=MAX_SIZE + 1),
    "write_stream k=MAX_SIZE + 1": lambda tmp: write_stream(tmp, batches(), MAX_SIZE + 1),
    # window: responsibilities of at least one class, before the floor of K
    # is formed; t an integer >= 0, outside arrays converted
    "mixing_update no class": lambda tmp: mixing_update(np.ones((2, 0))),
    "adapt t a bool": lambda tmp: vmf_model().adapt(True, BATCH),
    "adapt t=1.5": lambda tmp: gauss_model().adapt(1.5, BATCH),
    "adapt t a string": lambda tmp: vmf_model().adapt("x", BATCH),
    "adapt t=-1": lambda tmp: gauss_model().adapt(-1, BATCH),
    "vmf predict a string": lambda tmp: adapted(vmf_model).predict("x"),
    "gauss predict a string": lambda tmp: adapted(gauss_model).predict("x"),
    "VmfModel ragged weights": lambda tmp: VmfModel([[1, 2], [3]], VmfConfig(d=2, k=2)),
    "GaussModel weights a string": lambda tmp: GaussModel("x", GaussConfig(d=3, k=2)),
    "GaussModel a NaN source weight":
        lambda tmp: GaussModel(np.array([[np.nan, 0, 0], [0, 1, 0]]), GaussConfig(d=3, k=2)),
    "GaussModel an infinite source weight":
        lambda tmp: GaussModel(np.array([[np.inf, 0, 0], [0, 1, 0]]), GaussConfig(d=3, k=2)),
    "VmfConfig kappa_ems 10**400":
        lambda tmp: VmfModel(np.eye(2, 4), VmfConfig(d=4, k=2, kappa_ems=10**400)),
    # a concentration lies in the learner's clamp range [KAPPA_MIN, KAPPA_MAX]
    "VmfConfig kappa_trans 0": lambda tmp: VmfConfig(d=4, k=2, kappa_trans=0.0),
    "VmfConfig kappa_trans 1e-7": lambda tmp: VmfConfig(d=4, k=2, kappa_trans=1e-7),
    "VmfConfig kappa_trans 2e6": lambda tmp: VmfConfig(d=4, k=2, kappa_trans=2e6),
    "VmfConfig kappa_ems 0": lambda tmp: VmfConfig(d=4, k=2, kappa_ems=0.0),
    "VmfConfig kappa_ems 1e-7": lambda tmp: VmfConfig(d=4, k=2, kappa_ems=1e-7),
    "VmfConfig kappa_ems 2e6": lambda tmp: VmfConfig(d=4, k=2, kappa_ems=2e6),
    "GaussConfig sigma_ems_scale 10**400":
        lambda tmp: GaussModel(np.eye(2, 3), GaussConfig(d=3, k=2, sigma_ems_scale=10**400)),
    # q is also the prior variance, so it must be > 0
    "GaussConfig sigma_trans_scale -1": lambda tmp: GaussConfig(d=3, k=2, sigma_trans_scale=-1.0),
    # a flag is a bool, Python's or numpy's, not any value read by its truth
    "VmfConfig learn_kappa_ems a string": lambda tmp: VmfConfig(d=4, k=3, learn_kappa_ems="no"),
    "VmfConfig learn_kappa_ems None": lambda tmp: VmfConfig(d=4, k=3, learn_kappa_ems=None),
    "GaussConfig learn_transition 1": lambda tmp: GaussConfig(d=3, k=2, learn_transition=1),
    "GaussConfig learn_sigmas a string": lambda tmp: GaussConfig(d=3, k=2, learn_sigmas="yes"),
    # vmf: a concentration is a real number >= 0, one or one per class
    "assignment_step kappa a string": lambda tmp: vmf.assignment_step(DOTS, np.full(2, 0.5), "x"),
    "assignment_step kappa -5.0": lambda tmp: vmf.assignment_step(DOTS, np.full(2, 0.5), -5.0),
    "assignment_step per-class kappa negative":
        lambda tmp: vmf.assignment_step(DOTS, np.full(2, 0.5), np.array([1.0, -1.0])),
    "predict_probs kappa_ems -5.0": lambda tmp: vmf.predict_probs(DOTS, -5.0, np.full(2, 0.5)),
    # the products: converted, and every entry finite
    "assignment_step -inf product":
        lambda tmp: vmf.assignment_step(np.array([[0.5, -np.inf]]), np.full(2, 0.5), 1.0),
    # mixing weights or logits that leave a row without a finite max
    "assignment_step all-zero mixing":
        lambda tmp: vmf.assignment_step(np.array([[0.5, 0.1]]), np.zeros(2), 1.0),
    "assignment_step negative mixing weight":
        lambda tmp: vmf.assignment_step(np.array([[0.5, 0.1]]), np.array([-0.5, 1.5]), 1.0),
    "assignment_step kappa times product beyond the float range":
        lambda tmp: vmf.assignment_step(np.array([[10.0, 1.0]]), np.full(2, 0.5), 1e308),
    "gauss_assignments all-zero mixing":
        lambda tmp: gauss.gauss_assignments(FEATS, GaussBelief(MEAN, VAR), np.zeros(2), 0.5),
    "gauss_assignments negative mixing weight":
        lambda tmp: gauss.gauss_assignments(FEATS, GaussBelief(MEAN, VAR), np.array([-0.5, 1.5]),
                                            0.5),
    "gauss_assignments r=1e-310, logits beyond the float range":
        lambda tmp: gauss.gauss_assignments(FEATS, GaussBelief(MEAN, VAR), np.full(2, 0.5),
                                            1e-310),
    # softmax_rows writes into its argument, so it converts nothing
    "softmax_rows a list": lambda tmp: softmax_rows([[0.0, 1.0]]),
    "softmax_rows an int array": lambda tmp: softmax_rows(np.ones((2, 3), dtype=int)),
    "softmax_rows a read-only array": lambda tmp: softmax_rows(np.broadcast_to(0.0, (2, 3))),
    # outside arrays through one conversion
    "assignment_step products a string":
        lambda tmp: vmf.assignment_step("x", np.full(2, 0.5), 1.0),
    "kappa_update ragged products":
        lambda tmp: vmf.kappa_update([vmf.PrototypeBelief.from_params(MEAN, np.ones(2))],
                                     [RESP], [[[0.5, 0.5], [0.5]]], 3),
    "expected_prototype mean_dir a string": lambda tmp: vmf.expected_prototype("x", np.ones(2), 3),
    "PrototypeBelief.from_params mean_dir a string":
        lambda tmp: vmf.PrototypeBelief.from_params("x", np.ones(2)),
    "kf_predict mean a string": lambda tmp: gauss.kf_predict("x", VAR, 0.1),
    "kf_update_weighted feats a string":
        lambda tmp: gauss.kf_update_weighted(MEAN, VAR, "x", RESP, 0.5),
    "kf_smooth means a string": lambda tmp: gauss.kf_smooth("x", VAR[None], 0.1),
    "gauss_assignments feats a string":
        lambda tmp: gauss.gauss_assignments("x", GaussBelief(MEAN, VAR), np.full(2, 0.5), 0.5),
    "mixing_update resp a string": lambda tmp: mixing_update("x"),
    "write_stream features a string":
        lambda tmp: write_stream(tmp, [EmbeddingBatch(1, "x")], 3),
    # complex arrays are refused, not cast to their real parts
    "assignment_step complex products":
        lambda tmp: vmf.assignment_step(np.array([[1 + 0j, 2 + 5j]]), np.array([0.5, 0.5]), 1.0),
    "kf_update_weighted complex feats":
        lambda tmp: gauss.kf_update_weighted(MEAN, VAR, FEATS + 1j, RESP, 0.5),
    "write_stream complex features":
        lambda tmp: write_stream(tmp, [EmbeddingBatch(1, np.ones((2, 2)) + 1j)], 3),
    "kf_smooth complex means nested in a list":
        lambda tmp: gauss.kf_smooth([MEAN + 1j, MEAN], [VAR] * 2, 0.1),
    # bool arrays and scalars are refused, not cast to 0 and 1, as check_real
    # refuses a bool
    "bessel_ratio kappa a bool": lambda tmp: mathcore.bessel_ratio(4, True),
    "log_bessel_i argument a bool": lambda tmp: mathcore.log_bessel_i(1, True),
    "log_vmf_norm_const kappa a bool": lambda tmp: mathcore.log_vmf_norm_const(4, True),
    "estimate_kappa r_bar a bool": lambda tmp: mathcore.estimate_kappa(False, 4),
    "estimate_kappa_clamped r_bar a bool": lambda tmp: mathcore.estimate_kappa_clamped(True, 4),
    "normalize_rows a bool matrix": lambda tmp: mathcore.normalize_rows(np.eye(2, dtype=bool)),
    "mixing_update bool responsibilities": lambda tmp: mixing_update(np.eye(2, dtype=bool)),
    "assignment_step a bool per-class kappa":
        lambda tmp: vmf.assignment_step(DOTS, np.full(2, 0.5), np.array([True, False])),
    "VmfModel bool source weights":
        lambda tmp: VmfModel(np.eye(2, 3, dtype=bool), VmfConfig(d=3, k=2)),
    "adapt a bool batch": lambda tmp: vmf_model().adapt(1, BATCH > 0.5),
    "sample_vmf a bool mu":
        lambda tmp: sample_vmf(np.random.default_rng(0), np.array([True, False, False]), 5.0, 3),
    "write_stream bool features":
        lambda tmp: write_stream(tmp, [EmbeddingBatch(1, np.ones((2, 2), dtype=bool))], 3),
    # a bool nested in a list beside a float, which numpy would cast too
    "bessel_ratio kappa a list holding a bool":
        lambda tmp: mathcore.bessel_ratio(4, [True, 2.0]),
    "normalize_rows a nested list holding a bool":
        lambda tmp: mathcore.normalize_rows([[True, 2.0]]),
    "normalize_rows a list holding a bool array":
        lambda tmp: mathcore.normalize_rows([np.array([True, False]), np.array([1.0, 2.0])]),
    # an int beyond the float range is refused, not an OverflowError
    "adapt batch holding 10**400": lambda tmp: vmf_model().adapt(1, [[10**400, 1.0, 0.0]]),
    "write_stream features holding 10**400":
        lambda tmp: write_stream(tmp, [EmbeddingBatch(1, [[10**400, 1.0]], None)], 2),
    "gauss_m_step ragged gains":
        lambda tmp: gauss.gauss_m_step([GaussBelief(MEAN, VAR)] * 3, [VAR, np.eye(2)], [], [],
                                       True, False),
    "gauss_m_step gains a string":
        lambda tmp: gauss.gauss_m_step([GaussBelief(MEAN, VAR)] * 2, [["x", "y"]], [], [],
                                       True, False),
    "kappa_update batch a string":
        lambda tmp: vmf.kappa_update([vmf.PrototypeBelief.from_params(MEAN, np.ones(2))],
                                     [RESP], [np.full((3, 2), "x")], 3),
    "gauss_m_step resps a string":
        lambda tmp: gauss.gauss_m_step([GaussBelief(MEAN, VAR)] * 2, [VAR],
                                       [np.full((3, 2), "x")] * 2, [FEATS] * 2, False, True),
    # a message is None or the pair (scale, direction)
    "prototype_update message an int":
        lambda tmp: vmf.prototype_update(vmf.PrototypeBelief.from_params(MEAN, np.ones(2)),
                                         MEAN.copy(), np.ones(2), 5),
    "prototype_update message a triple":
        lambda tmp: vmf.prototype_update(vmf.PrototypeBelief.from_params(MEAN, np.ones(2)),
                                         MEAN.copy(), np.ones(2), (np.ones(2), MEAN, MEAN)),
    "gauss_m_step means a string":
        lambda tmp: gauss.gauss_m_step([GaussBelief(np.full((2, 3), "x"), VAR)] * 2, [VAR],
                                       [RESP] * 2, [FEATS] * 2, False, True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_raises_domain_error(tmp_path, case):
    with pytest.raises(DomainError):
        CASES[case](tmp_path)


def belief(mean_dir=MEAN):
    return vmf.PrototypeBelief.from_params(mean_dir, np.ones(len(mean_dir)))


# One row or more per array argument that `mathcore._float_array` checks
# against a shape; each row's name starts with the entry point it calls.
SHAPE_CASES = {
    "softmax_rows 1-d logits": lambda: softmax_rows(np.zeros(3)),
    # window: the batch of adapt and predict, responsibilities, a window's batches
    "VmfModel adapt on a batch of another D": lambda: vmf_model().adapt(1, np.eye(3, 4)),
    "GaussModel predict on a 1-d batch": lambda: adapted(gauss_model).predict(np.ones(3)),
    "VmfModel (3, 2) weights for K=2, D=3": lambda: VmfModel(np.eye(3, 2), VmfConfig(d=3, k=2)),
    "GaussModel (2, 4) weights for K=2, D=3":
        lambda: GaussModel(np.eye(2, 4), GaussConfig(d=3, k=2)),
    "mixing_update 1-d responsibilities": lambda: mixing_update(np.full(2, 0.5)),
    "check_batches a batch of another D":
        lambda: check_batches([np.eye(3, 4)], [RESP], 1, 2, 3, "test"),
    "check_batches responsibilities of another N":
        lambda: check_batches([FEATS], [RESP[:2]], 1, 2, 3, "test"),
    "check_batches two batches for a window of one":
        lambda: check_batches([FEATS] * 2, [RESP] * 2, 1, 2, 3, "test"),
    # vmf
    "assignment_step products of K=3 for mixing of K=2":
        lambda: vmf.assignment_step(np.ones((4, 3)), np.full(2, 0.5), 1.0),
    "assignment_step 1-d products": lambda: vmf.assignment_step(np.ones(2), np.full(2, 0.5), 1.0),
    "assignment_step (3,) kappa for K=2":
        lambda: vmf.assignment_step(DOTS, np.full(2, 0.5), np.ones(3)),
    "assignment_step (2, 1) kappa for K=2":
        lambda: vmf.assignment_step(DOTS, np.full(2, 0.5), np.ones((2, 1))),
    "predict_probs (1, K) mixing": lambda: vmf.predict_probs(DOTS, 1.0, np.full((1, 2), 0.5)),
    "PrototypeBelief.from_params 1-d mean_dir":
        lambda: vmf.PrototypeBelief.from_params(np.ones(3), np.ones(1)),
    "PrototypeBelief.from_params scalar conc":
        lambda: vmf.PrototypeBelief.from_params(MEAN, 1.0),
    "PrototypeBelief.from_params (3, 4) mean_dir with (2,) conc":
        lambda: vmf.PrototypeBelief.from_params(np.eye(3, 4), np.ones(2)),
    "expected_prototype (3, 4) mean_dir with (2,) conc":
        lambda: vmf.expected_prototype(np.eye(3, 4), np.ones(2), 4),
    "expected_prototype 1-d mean_dir": lambda: vmf.expected_prototype(np.ones(3), np.ones(1), 3),
    "expected_prototype mean_dir of D=4 for d=3":
        lambda: vmf.expected_prototype(np.eye(2, 4), np.ones(2), 3),
    "expected_prototype scalar conc": lambda: vmf.expected_prototype(MEAN, 1.0, 3),
    "prototype_update frame of another K":
        lambda: vmf.prototype_update(belief(), MEAN.copy(), np.ones(3)),
    "prototype_update message scale of another K":
        lambda: vmf.prototype_update(belief(), MEAN.copy(), np.ones(2), (np.ones(3), MEAN)),
    "prototype_update message direction of another D":
        lambda: vmf.prototype_update(belief(), MEAN.copy(), np.ones(2), (np.ones(2), np.eye(2))),
    "kappa_update beliefs of two K":
        lambda: vmf.kappa_update([belief(), belief(np.eye(3))], [RESP] * 2, [DOTS] * 2, 3),
    "kappa_update beliefs of another d": lambda: vmf.kappa_update([belief()], [RESP], [DOTS], 4),
    "kappa_update Bessel ratios of another K":
        lambda: vmf.kappa_update([vmf.PrototypeBelief(MEAN, np.ones(2), np.ones(3))], [RESP],
                                 [DOTS], 3),
    "kappa_update products of another K":
        lambda: vmf.kappa_update([belief()], [RESP], [np.ones((3, 3))], 3),
    # gauss
    "kf_predict 1-d mean": lambda: gauss.kf_predict(MEAN[0], 1.0, 0.1),
    "kf_predict variances of another K": lambda: gauss.kf_predict(MEAN, np.ones(3), 0.1),
    "kf_update_weighted 1-d mean":
        lambda: gauss.kf_update_weighted(MEAN[0], 1.0, FEATS, RESP, 0.5),
    "kf_update_weighted variances of another K":
        lambda: gauss.kf_update_weighted(MEAN, np.ones(3), FEATS, RESP, 0.5),
    "kf_update_weighted batch of another D":
        lambda: gauss.kf_update_weighted(MEAN, VAR, np.eye(3, 2), RESP, 0.5),
    "kf_update_weighted responsibilities of another N":
        lambda: gauss.kf_update_weighted(MEAN, VAR, FEATS, RESP[:2], 0.5),
    "kf_smooth a (T, D) chain": lambda: gauss.kf_smooth(np.zeros((2, 3)), np.ones(2), 0.1),
    "kf_smooth variances of another T": lambda: gauss.kf_smooth(MEAN[None], np.ones((2, 2)), 0.1),
    "gauss_assignments 1-d batch":
        lambda: gauss.gauss_assignments(np.ones(3), GaussBelief(MEAN, VAR), np.full(2, 0.5), 0.5),
    "gauss_assignments mean of another D":
        lambda: gauss.gauss_assignments(np.eye(3, 2), GaussBelief(MEAN, VAR), np.full(2, 0.5), 0.5),
    "gauss_assignments (1, K) mixing":
        lambda: gauss.gauss_assignments(FEATS, GaussBelief(MEAN, VAR), np.full((1, 2), 0.5), 0.5),
    "gauss_assignments (K, D, D) covariances":
        lambda: gauss.gauss_assignments(FEATS, GaussBelief(MEAN, np.ones((2, 3, 3))),
                                        np.full(2, 0.5), 0.5),
    "gauss_m_step gains of another T":
        lambda: gauss.gauss_m_step([GaussBelief(MEAN, VAR)] * 3, [VAR], [], [], True, False),
    "gauss_m_step beliefs of two K":
        lambda: gauss.gauss_m_step([GaussBelief(MEAN, VAR), GaussBelief(np.eye(3), np.ones(3))],
                                   [VAR], [], [], True, False),
    "gauss_m_step covariances of another K":
        lambda: gauss.gauss_m_step([GaussBelief(MEAN, np.ones(3))] * 2, [VAR], [], [], True, False),
    "gauss_m_step batch of another D":
        lambda: gauss.gauss_m_step([GaussBelief(MEAN, VAR)] * 2, [VAR], [RESP] * 2,
                                   [np.eye(3, 2)] * 2, False, True),
    # mathcore and stream
    "normalize_rows a scalar": lambda: mathcore.normalize_rows(1.0),
    "write_matrix a scalar": lambda: write_matrix(os.devnull, 1.0),
    "sample_vmf (1, 3) mu": lambda: sample_vmf(np.random.default_rng(0), np.eye(1, 3), 5.0, 3),
}


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_bad_shape_raises_dimension_mismatch_error(case):
    with pytest.raises(DimensionMismatchError):
        SHAPE_CASES[case]()


EMPTY_CASES = {
    "vmf predict (0, D)": lambda: adapted(vmf_model).predict(np.zeros((0, 3))),
    "gauss predict (0, D)": lambda: adapted(gauss_model).predict(np.zeros((0, 3))),
    "assignment_step (0, K) products": lambda: vmf.assignment_step(np.zeros((0, 2)),
                                                                   np.full(2, 0.5), 1.0),
    "assignment_step (N, 0) products": lambda: vmf.assignment_step(np.zeros((3, 0)),
                                                                   np.zeros(0), 1.0),
    "predict_probs (0, K) products": lambda: vmf.predict_probs(np.zeros((0, 2)), 1.0,
                                                               np.full(2, 0.5)),
    "gauss_assignments (0, D) batch":
        lambda: gauss.gauss_assignments(np.zeros((0, 3)), GaussBelief(MEAN, VAR),
                                        np.full(2, 0.5), 0.5),
}


@pytest.mark.parametrize("case", sorted(EMPTY_CASES))
def test_empty_batch_raises_empty_input_error(case):
    with pytest.raises(EmptyInputError):
        EMPTY_CASES[case]()


# Exported names that take an array but check none of it, each with the
# reason; every other one must be called by a row of the tables above.
UNCHECKED = {
    "WindowStep": "a record the window engine fills from arrays it has checked",
    "GaussBelief": "a record; the kernels that read it check its arrays",
    "EmbeddingBatch": "a record; write_stream and make_label_shift check its arrays",
    "StreamManifest": "a record of steps; read_manifest checks what it reads",
}


def takes_an_array(obj) -> bool:
    """Whether a parameter of obj is annotated as an array, a list or a batch."""
    return any(kind in str(p.annotation) for p in inspect.signature(obj).parameters.values()
               for kind in ("ndarray", "list", "EmbeddingBatch"))


def test_every_entry_point_that_takes_an_array_has_a_row():
    # a row's name starts with the entry point it calls
    rows = {key.split()[0].split(".")[0] for key in (*CASES, *SHAPE_CASES, *EMPTY_CASES)}
    taking = {name for module in (window, vmf, gauss, mathcore, stream) for name in module.__all__
              if callable(getattr(module, name)) and takes_an_array(getattr(module, name))}
    assert sorted(taking - rows - set(UNCHECKED)) == []
    # an exemption names an entry point that takes an array and has no row
    assert sorted(set(UNCHECKED) - (taking - rows)) == []


def test_normalize_rows_names_the_first_bad_row():
    # the rows are checked from their norms: the zero row before the NaN row decides
    with pytest.raises(ZeroVectorError, match="row 1"):
        mathcore.normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(DomainError, match="row 1 has a squared norm") as info:
        mathcore.normalize_rows(np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 0.0]]))
    assert not isinstance(info.value, ZeroVectorError)


def test_flags_take_python_and_numpy_bools():
    assert VmfConfig(d=4, k=3, learn_kappa_ems=np.True_).learn_kappa_ems
    assert not GaussConfig(d=3, k=2, learn_transition=np.False_).learn_transition


# each field is checked once, when the config is built, so none may be
# assigned after: these values would learn kappa_ems, fail in mixing_update
# and drift past MAX_DRIFT_DEG
@pytest.mark.parametrize("make, field, value", [
    (lambda: vmf_model().config, "learn_kappa_ems", "no"),
    (lambda: gauss_model().config, "e_sweeps", 0),
    (lambda: DriftScenario(d=3, k=2), "drift_deg_per_step", 90.0),
], ids=["VmfConfig", "GaussConfig", "DriftScenario"])
def test_a_checked_config_cannot_be_assigned(make, field, value):
    config = make()
    before = getattr(config, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    assert getattr(config, field) == before


def test_seeds_and_times_take_any_integer():
    scenario = DriftScenario(d=3, k=2, t_steps=1, n_per_step=2, seed=10**400)
    assert len(synth_drift(scenario)[0]) == 1
    assert len(make_label_shift(batches(), 10**400, 3)) == 1
    model = vmf_model().adapt(10**400, BATCH).adapt(10**400 + 1, BATCH)
    assert model.window_times == [10**400, 10**400 + 1]


def test_rejected_time_leaves_the_window_usable():
    model = vmf_model()
    with pytest.raises(DomainError):
        model.adapt("x", BATCH)
    assert model.window_times == []
    model.adapt(1, BATCH).adapt(2, BATCH)
    assert model.window_times == [1, 2]


def test_rejected_stream_arguments_write_nothing(tmp_path):
    for k, metadata in ((2.7, None), (3, ["a"])):
        with pytest.raises(DomainError):
            write_stream(tmp_path, batches(), k, metadata)
    assert list(tmp_path.iterdir()) == []


def test_the_size_domain_covers_every_workload():
    # bench/workloads.py, read and never written
    table = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))
    assert table["WORKLOADS"]
    for w in table["WORKLOADS"].values():
        assert 10**3 * max(w.d, w.k) <= MAX_SIZE, w.name
