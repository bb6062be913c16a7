"""Every entry point keeps the promise of `errors.py`: a bad argument raises
DomainError, and arrays of mismatched shapes DimensionMismatchError, both
StadErrors, never a bare TypeError, ValueError or OverflowError, and is
never run with a value it silently coerced."""

import numpy as np
import pytest

from stad import gauss, mathcore, vmf
from stad.errors import DimensionMismatchError, DomainError, EmptyInputError
from stad.gauss import GaussBelief, GaussConfig, GaussModel
from stad.stream import (DriftScenario, EmbeddingBatch, make_label_shift, sample_vmf,
                         synth_drift, well_separated_directions, write_matrix, write_stream)
from stad.vmf import VmfConfig, VmfModel
from stad.window import mixing_update, softmax_rows

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
    "log_bessel_i argument a string": lambda tmp: mathcore.log_bessel_i(1.5, "x"),
    "bessel_ratio d=10**400": lambda tmp: mathcore.bessel_ratio(10**400, 1.0),
    "log_vmf_norm_const d=10**400": lambda tmp: mathcore.log_vmf_norm_const(10**400, 1.0),
    "estimate_kappa d=10**400": lambda tmp: mathcore.estimate_kappa(0.5, 10**400),
    "estimate_kappa_clamped d=10**400": lambda tmp: mathcore.estimate_kappa_clamped(0.5, 10**400),
    "normalize_rows a string": lambda tmp: mathcore.normalize_rows("x"),
    "log_sum_exp a string": lambda tmp: mathcore.log_sum_exp("x"),
    # stream
    "write_stream k=2.7": lambda tmp: write_stream(tmp, batches(), 2.7),
    "write_stream k a string": lambda tmp: write_stream(tmp, batches(), "x"),
    "write_stream metadata a list": lambda tmp: write_stream(tmp, batches(), 3, metadata=["a"]),
    "write_matrix a string": lambda tmp: write_matrix(tmp / "m.emb", "x"),
    "make_label_shift seed=-1": lambda tmp: make_label_shift(batches(), -1, 3),
    "make_label_shift k a string": lambda tmp: make_label_shift(batches(), 0, "x"),
    "make_label_shift (N, 1) labels": lambda tmp: make_label_shift(batches([[0], [1]]), 0, 3),
    "make_label_shift list features with a string":
        lambda tmp: make_label_shift([EmbeddingBatch(1, [["x", 1.0]], [0])], 0, 2),
    "make_label_shift list labels out of range":
        lambda tmp: make_label_shift([EmbeddingBatch(1, [[1.0, 0.0]], [5])], 0, 2),
    "sample_vmf mu a string": lambda tmp: sample_vmf(np.random.default_rng(0), "x", 5.0, 3),
    "well_separated_directions d=1":
        lambda tmp: well_separated_directions(np.random.default_rng(0), 1, 2),
    # a d or k beyond the float range is refused; a seed or t takes any integer
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
    # window: pi_floor in [0, 1/K), t an integer >= 0, outside arrays converted
    "mixing_update floor 0.6 at K=2": lambda tmp: mixing_update(RESP, 0.6),
    "mixing_update floor 0.4 at K=3": lambda tmp: mixing_update(np.full((2, 3), 1 / 3), 0.4),
    "mixing_update floor -0.1": lambda tmp: mixing_update(RESP, -0.1),
    "mixing_update floor a string": lambda tmp: mixing_update(RESP, "x"),
    "adapt t a bool": lambda tmp: vmf_model().adapt(True, BATCH),
    "adapt t=1.5": lambda tmp: gauss_model().adapt(1.5, BATCH),
    "adapt t a string": lambda tmp: vmf_model().adapt("x", BATCH),
    "adapt t=-1": lambda tmp: gauss_model().adapt(-1, BATCH),
    "vmf predict a string": lambda tmp: adapted(vmf_model).predict("x"),
    "gauss predict a string": lambda tmp: adapted(gauss_model).predict("x"),
    "VmfModel ragged weights": lambda tmp: VmfModel([[1, 2], [3]], VmfConfig(d=2, k=2)),
    "GaussModel weights a string": lambda tmp: GaussModel("x", GaussConfig(d=3, k=2)),
    "VmfConfig kappa_ems 10**400":
        lambda tmp: VmfModel(np.eye(2, 4), VmfConfig(d=4, k=2, kappa_ems=10**400)),
    "GaussConfig sigma_ems_scale 10**400":
        lambda tmp: GaussModel(np.eye(2, 3), GaussConfig(d=3, k=2, sigma_ems_scale=10**400)),
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
    # an int beyond the float range is refused, not an OverflowError
    "adapt batch holding 10**400": lambda tmp: vmf_model().adapt(1, [[10**400, 1.0, 0.0]]),
    "write_stream features holding 10**400":
        lambda tmp: write_stream(tmp, [EmbeddingBatch(1, [[10**400, 1.0]], None)], 2),
    "gauss_m_step gains a string":
        lambda tmp: gauss.gauss_m_step([GaussBelief(MEAN, VAR)] * 2, [["x", "y"]], [], [],
                                       True, False),
    "kappa_update batch a string":
        lambda tmp: vmf.kappa_update([vmf.PrototypeBelief.from_params(MEAN, np.ones(2))],
                                     [RESP], [np.full((3, 2), "x")], 3),
    "gauss_m_step resps a string":
        lambda tmp: gauss.gauss_m_step([GaussBelief(MEAN, VAR)] * 2, [VAR],
                                       [np.full((3, 2), "x")] * 2, [FEATS] * 2, False, True),
    "gauss_m_step means a string":
        lambda tmp: gauss.gauss_m_step([GaussBelief(np.full((2, 3), "x"), VAR)] * 2, [VAR],
                                       [RESP] * 2, [FEATS] * 2, False, True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_raises_domain_error(tmp_path, case):
    with pytest.raises(DomainError):
        CASES[case](tmp_path)


SHAPE_CASES = {
    "softmax_rows 1-d logits": lambda: softmax_rows(np.zeros(3)),
    "assignment_step products of K=3 for mixing of K=2":
        lambda: vmf.assignment_step(np.ones((4, 3)), np.full(2, 0.5), 1.0),
    "PrototypeBelief.from_params 1-d mean_dir":
        lambda: vmf.PrototypeBelief.from_params(np.ones(3), np.ones(1)),
    "PrototypeBelief.from_params scalar conc":
        lambda: vmf.PrototypeBelief.from_params(MEAN, 1.0),
    "PrototypeBelief.from_params (3, 4) mean_dir with (2,) conc":
        lambda: vmf.PrototypeBelief.from_params(np.eye(3, 4), np.ones(2)),
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
