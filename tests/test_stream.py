"""Tests for the stream format, label shift and synthetic drift."""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stad.errors import (
    CorruptHeaderError,
    CorruptPayloadError,
    DomainError,
    InfeasibleSeparationError,
    MissingFileError,
    MissingLabelsError,
    NonContiguousTimeError,
    StadError,
)
from stad.stream import (
    MANIFEST_NAME,
    DriftScenario,
    EmbeddingBatch,
    make_label_shift,
    read_manifest,
    read_matrix,
    read_stream,
    sample_vmf,
    synth_drift,
    well_separated_directions,
    write_matrix,
    write_stream,
)


def small_batches(seed=0, d=3, k=3, sizes=(5, 4, 6)):
    rng = np.random.default_rng(seed)
    return [
        EmbeddingBatch(
            t,
            rng.standard_normal((n, d)).astype(np.float32),
            rng.integers(0, k, size=n).astype(np.uint32),
        )
        for t, n in enumerate(sizes, start=1)
    ]


@pytest.fixture
def stream_dir(tmp_path):
    write_stream(tmp_path, small_batches(), k=3, metadata={"note": "x"})
    return tmp_path


def test_round_trip_is_bit_exact(stream_dir):
    back = list(read_stream(stream_dir))
    for want, got in zip(small_batches(), back, strict=True):
        assert got.t == want.t
        assert got.features.dtype == np.float32
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)
    manifest = read_manifest(stream_dir)
    assert (manifest.d, manifest.k, manifest.metadata) == (3, 3, {"note": "x"})


def _edit_manifest(path, edit):
    payload = json.loads((path / MANIFEST_NAME).read_text())
    edit(payload)
    (path / MANIFEST_NAME).write_text(json.dumps(payload))


def _set(key, value):
    return lambda p: p.update({key: value})


def _set_step(i, key, value):
    return lambda p: p["steps"][i].update({key: value})


def _write_bytes(name, data):
    return lambda path: (path / name).write_bytes(data)


def _into_directory(path):
    """Replace a step file with a directory of the same name."""
    path.unlink()
    path.mkdir()


def _header(rows, cols, magic=b"STADEMB1"):
    return magic + np.array([rows, cols], dtype="<u4").tobytes()


CORRUPTIONS = {
    "manifest missing": (MissingFileError, lambda p: (p / MANIFEST_NAME).unlink()),
    "manifest a directory": (MissingFileError, lambda p: _into_directory(p / MANIFEST_NAME)),
    "manifest not json": (CorruptHeaderError, _write_bytes(MANIFEST_NAME, b"{not json")),
    "manifest not an object": (CorruptHeaderError, _write_bytes(MANIFEST_NAME, b"[]")),
    "format version": (CorruptHeaderError, lambda p: _edit_manifest(p, _set("format_version", 2))),
    "no steps": (CorruptHeaderError, lambda p: _edit_manifest(p, _set("steps", []))),
    "zero count": (CorruptHeaderError, lambda p: _edit_manifest(p, _set_step(0, "count", 0))),
    "count not a number": (CorruptHeaderError, lambda p: _edit_manifest(p, _set_step(0, "count", "x"))),
    "metadata not an object": (CorruptHeaderError, lambda p: _edit_manifest(p, _set("metadata", []))),
    "features not a string": (CorruptHeaderError, lambda p: _edit_manifest(p, _set_step(0, "features", 5))),
    "features names the directory": (
        CorruptHeaderError,
        lambda p: _edit_manifest(p, _set_step(0, "features", "")),
    ),
    "features outside the directory": (
        CorruptHeaderError,
        lambda p: _edit_manifest(p, _set_step(0, "features", "../x")),
    ),
    "labels in a subdirectory": (
        CorruptHeaderError,
        lambda p: _edit_manifest(p, _set_step(1, "labels", "sub/step_00002.lbl")),
    ),
    "feature file missing": (MissingFileError, lambda p: (p / "step_00002.emb").unlink()),
    "label file missing": (MissingFileError, lambda p: (p / "step_00001.lbl").unlink()),
    "feature file a directory": (MissingFileError, lambda p: _into_directory(p / "step_00002.emb")),
    "label file a directory": (MissingFileError, lambda p: _into_directory(p / "step_00001.lbl")),
    "truncated header": (CorruptHeaderError, _write_bytes("step_00001.emb", b"STADEMB1")),
    "bad magic": (CorruptHeaderError, _write_bytes("step_00001.emb", _header(5, 3, b"NOTMAGIC"))),
    "short payload": (CorruptPayloadError, _write_bytes("step_00001.emb", _header(5, 3) + bytes(8))),
    "row count vs manifest": (
        CorruptPayloadError,
        lambda p: write_matrix(p / "step_00001.emb", np.ones((4, 3))),
    ),
    "shape vs manifest": (CorruptPayloadError, lambda p: write_matrix(p / "step_00001.emb", np.ones((5, 2)))),
    "non-finite features": (
        CorruptPayloadError,
        lambda p: write_matrix(p / "step_00001.emb", np.full((5, 3), np.nan)),
    ),
    "label length": (CorruptPayloadError, _write_bytes("step_00001.lbl", bytes(4 * 4))),
    "label out of range": (
        CorruptPayloadError,
        _write_bytes("step_00001.lbl", np.full(5, 3, dtype="<u4").tobytes()),
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_stream_rejected(stream_dir, case):
    error, corrupt = CORRUPTIONS[case]
    corrupt(stream_dir)
    with pytest.raises(error):
        list(read_stream(stream_dir))


def _batch(t=1, feats=((0.5, 1.0), (1.0, 0.0)), labels=(0, 1)):
    labels = None if labels is None else np.asarray(labels)
    return EmbeddingBatch(t, np.asarray(feats, dtype=np.float32), labels)


WRITER_VIOLATIONS = {
    "first step t=2": ([_batch(t=2)], NonContiguousTimeError),
    "label 5 with K=2": ([_batch(labels=(0, 5))], DomainError),
    "label -1": ([_batch(labels=(0, -1))], DomainError),
    "NaN features": ([_batch(feats=((0.5, np.nan), (1.0, 0.0)))], DomainError),
    "1-D batch": ([EmbeddingBatch(1, np.ones(2, np.float32), np.zeros(2, np.uint32))],
                  DomainError),
    "wrong D": ([_batch(), _batch(t=2, feats=((1.0, 2.0, 3.0), (0.0, 1.0, 0.0)))],
                DomainError),
    "label-count mismatch": ([_batch(labels=(0, 1, 1))], DomainError),
}


@pytest.mark.parametrize("case", sorted(WRITER_VIOLATIONS))
def test_write_stream_enforces_step_contract(tmp_path, case):
    batches, error = WRITER_VIOLATIONS[case]
    assert issubclass(error, StadError)
    with pytest.raises(error):
        write_stream(tmp_path, batches, k=2)


@pytest.mark.parametrize("batches, k", [([_batch()], 0), ([], 2)], ids=["k=0", "no batches"])
def test_write_stream_rejects_bad_k_and_empty_stream(tmp_path, batches, k):
    with pytest.raises(DomainError):
        write_stream(tmp_path, batches, k=k)


@pytest.mark.parametrize("arr", [np.ones(3), np.ones((2, 2, 2))], ids=["1-D", "3-D"])
def test_write_matrix_rejects_non_matrix(tmp_path, arr):
    with pytest.raises(DomainError):
        write_matrix(tmp_path / "x.emb", arr)


def test_rejected_rewrite_leaves_no_readable_mix(tmp_path):
    def steps(*fills):
        return [EmbeddingBatch(t, np.full((2, 2), fill, np.float32), None)
                for t, fill in enumerate(fills, start=1)]

    write_stream(tmp_path, steps(1.0, 1.0, 1.0), k=2)
    with pytest.raises(DomainError):
        write_stream(tmp_path, steps(7.0, np.nan), k=2)
    with pytest.raises(MissingFileError):
        list(read_stream(tmp_path))


_FIELDS = [("format_version",), ("d",), ("k",), ("steps",), ("metadata",), ("steps", 1)] + [
    ("steps", i, key) for i in range(3) for key in ("t", "features", "labels", "count")
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(deadline=None)
@given(path=st.sampled_from(_FIELDS), value=_JSON)
def test_manifest_field_overwrite_raises_only_stad_errors(path, value):
    def overwrite(payload):
        *parents, key = path
        for name in parents:
            payload = payload[name]
        payload[key] = value

    with tempfile.TemporaryDirectory() as tmp:
        write_stream(tmp, small_batches(), k=3)
        _edit_manifest(Path(tmp), overwrite)
        try:
            list(read_stream(tmp))
        except StadError:
            pass


def test_synth_drift_stream_round_trip(tmp_path):
    scenario = DriftScenario(d=5, k=3, t_steps=4, n_per_step=12, seed=5)
    want, _ = synth_drift(scenario)
    metadata = {name: str(value) for name, value in asdict(scenario).items()}
    write_stream(tmp_path, want, scenario.k, metadata)
    for a, b in zip(want, read_stream(tmp_path), strict=True):
        assert (b.t, b.features.tobytes(), b.labels.tobytes()) == (a.t, a.features.tobytes(),
                                                                   a.labels.tobytes())
    manifest = read_manifest(tmp_path)
    assert (manifest.d, manifest.k, manifest.metadata) == (5, 3, metadata)


def test_read_matrix_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_matrix(tmp_path / "absent.emb")


def test_label_shift_is_class_contiguous_permutation():
    batches = small_batches(seed=1, sizes=(9, 7, 8))
    for b in batches:
        b.features[:, 0] = np.arange(b.count)  # tags the original row order
    out = make_label_shift(batches, seed=3, k=3)
    assert [b.count for b in out] == [b.count for b in batches]

    def rows(b):
        return [(int(label), tuple(f)) for label, f in zip(b.labels, b.features)]

    for got, src in zip(out, batches):
        assert sorted(rows(got)) == sorted(rows(src))
        labels = [label for label, _ in rows(got)]
        # class-contiguous: each class appears as a single run
        runs = [c for i, c in enumerate(labels) if i == 0 or c != labels[i - 1]]
        assert len(runs) == len(set(runs))
        for c in set(labels):
            assert [f for label, f in rows(got) if label == c] == [
                f for label, f in rows(src) if label == c
            ]


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_label_shift_matches_per_class_concatenation(seed):
    """Each step's rows are those of every class in the drawn order, one
    np.flatnonzero per class, concatenated: the construction the
    benchmark's label-shift streams were first written with."""
    k = 4
    batches = small_batches(seed=seed, d=3, k=k, sizes=(1, 9, 16, 5))
    rng = np.random.default_rng(seed)
    out = make_label_shift(batches, seed=seed, k=k)
    for b, got in zip(batches, out, strict=True):
        idx = np.concatenate([np.flatnonzero(b.labels == c) for c in rng.permutation(k)])
        assert got.t == b.t
        assert got.features.tobytes() == b.features[idx].tobytes()
        assert got.labels.tobytes() == b.labels[idx].tobytes()


def test_label_shift_takes_lists_as_write_stream_does():
    batches = small_batches(seed=4, sizes=(6, 5))
    as_lists = [EmbeddingBatch(b.t, b.features.tolist(), b.labels.tolist()) for b in batches]
    for got, want in zip(make_label_shift(as_lists, seed=2, k=3),
                         make_label_shift(batches, seed=2, k=3), strict=True):
        assert got.features.dtype == np.float32
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)


def test_synth_drift_sphere_is_deterministic_with_stated_drift():
    scenario = DriftScenario(d=8, k=3, t_steps=4, n_per_step=20, drift_deg_per_step=3.0, seed=5)
    batches, traj = synth_drift(scenario)
    again, traj_again = synth_drift(scenario)
    np.testing.assert_array_equal(traj, traj_again)
    for a, b in zip(batches, again, strict=True):
        assert a.features.tobytes() == b.features.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)
    other, _ = synth_drift(DriftScenario(d=8, k=3, t_steps=4, n_per_step=20, seed=6))
    assert other[0].features.tobytes() != batches[0].features.tobytes()
    np.testing.assert_allclose(np.linalg.norm(traj, axis=2), 1.0, atol=1e-12)
    cos = np.sum(traj[1:] * traj[:-1], axis=2)
    np.testing.assert_allclose(np.degrees(np.arccos(np.clip(cos, -1, 1))), 3.0, atol=1e-6)
    assert [b.t for b in batches] == [1, 2, 3, 4]
    assert all(b.features.shape == (20, 8) for b in batches)


def test_synth_drift_euclidean_moves_by_drift_scale():
    scenario = DriftScenario(geometry="euclidean", d=6, k=2, t_steps=3, n_per_step=10,
                             drift_scale=0.05, seed=2)
    _, traj = synth_drift(scenario)
    np.testing.assert_allclose(np.linalg.norm(traj[1:] - traj[:-1], axis=2), 0.05, atol=1e-12)


def _shift_out_of_range():
    batch = EmbeddingBatch(1, np.eye(4, 2, dtype=np.float32), np.array([0, 1, 2, 3], np.uint32))
    make_label_shift([batch], seed=0, k=2)


def _manifest_without_steps(tmp_path):
    write_stream(tmp_path, small_batches(), k=3)
    _edit_manifest(tmp_path, lambda p: p.pop("steps"))
    read_manifest(tmp_path)


def _shift_without_labels():
    make_label_shift([EmbeddingBatch(1, np.ones((2, 2), np.float32))], seed=0, k=2)


@pytest.mark.parametrize("case, error", [
    (_manifest_without_steps, CorruptHeaderError),
    (lambda tmp: DriftScenario(dirichlet_alpha="x"), DomainError),
    (lambda tmp: _shift_out_of_range(), DomainError),
    (lambda tmp: _shift_without_labels(), MissingLabelsError),
    (lambda tmp: well_separated_directions(np.random.default_rng(0), 4, 0), DomainError),
    (lambda tmp: well_separated_directions(np.random.default_rng(0), 4.0, 2), DomainError),
], ids=["manifest without steps", "dirichlet alpha not a number", "label shift label >= k",
        "label shift without labels", "no directions", "directions of float d"])
def test_bad_input_raises_stad_error(tmp_path, case, error):
    assert issubclass(error, StadError)
    with pytest.raises(error):
        case(tmp_path)


@pytest.mark.parametrize("kwargs", [
    {"geometry": "torus"},
    {"d": 1}, {"k": 0}, {"t_steps": 0}, {"n_per_step": 0},
    {"kappa_true": 0.0}, {"sigma_true": -0.1},
    {"drift_deg_per_step": 10.5}, {"drift_deg_per_step": -1.0},
    {"dirichlet_alpha": "x"}, {"dirichlet_alpha": 0},
    {"dirichlet_alpha": -1.0}, {"dirichlet_alpha": float("inf")},
    {"dirichlet_alpha": True}, {"dirichlet_alpha": float("nan")},
    {"d": 4.0}, {"k": True}, {"n_per_step": 2.5}, {"t_steps": np.float64(3.0)}, {"seed": -1},
    {"seed": 1.0}, {"kappa_true": float("nan")}, {"kappa_true": float("inf")},
    {"sigma_true": float("nan")}, {"sigma_true": float("inf")},
    {"drift_scale": float("nan")}, {"drift_scale": float("-inf")},
    {"drift_deg_per_step": float("nan")},
    {"kappa_true": "x"}, {"sigma_true": "x"}, {"drift_scale": "x"}, {"drift_deg_per_step": "x"},
    {"kappa_true": True},
])
def test_drift_scenario_rejects(kwargs):
    with pytest.raises(DomainError):
        DriftScenario(**kwargs)


E1 = np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize("mu, kappa, n", [
    (np.ones(1), 5.0, 4), (E1, 0.0, 4), (E1, -1.0, 4),
    (E1, float("nan"), 4), (E1, float("inf"), 4), (E1, 5.0, -1), (E1, 5.0, 2.5), (E1, 5.0, True),
    (np.eye(3), 5.0, 4), (np.array([1.0, np.nan, 0.0]), 5.0, 4),
    (np.array([np.inf, 0.0, 0.0]), 5.0, 4), (np.float64(1.0), 5.0, 4),
    (E1, "5", 3), (E1, 1e8, 3), (E1, 1e200, 3), (np.eye(2)[0], 1e8, 3),
    (np.array([2.0, 0.0, 0.0]), 5.0, 4), (np.array([0.6, 0.6, 0.0]), 5.0, 4),
    (np.array([1e200, 0.0, 0.0]), 5.0, 4),
], ids=["d=1", "kappa=0", "kappa<0", "kappa nan", "kappa inf", "n<0", "n not an integer",
        "n a bool", "mu 2-D", "mu nan", "mu inf", "mu scalar", "kappa a string",
        "kappa 1e8 in d=3", "kappa 1e200", "kappa 1e8 in d=2", "mu of norm 2",
        "mu of norm 0.85", "mu of norm 1e200"])
def test_sample_vmf_rejects(mu, kappa, n):
    # with a non-finite kappa the rejection loop would never accept a sample;
    # past about 1e7 in d=3 Wood's b rounds to 0, and kappa**2 overflows at 1e200
    with pytest.raises(DomainError):
        sample_vmf(np.random.default_rng(0), mu, kappa, n)


@pytest.mark.parametrize("d, kappa", [(3, 1e6), (3, 3e7), (64, 1e9), (2048, 1e9)])
def test_sample_vmf_at_large_kappa_stays_near_mu(d, kappa):
    mu = np.eye(d)[0]
    x = sample_vmf(np.random.default_rng(0), mu, kappa, 200)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-12)
    # E[mu . x] = A_d(kappa), about 1 - (d - 1) / (2 kappa) here
    assert x[:, 0].mean() == pytest.approx(1.0 - (d - 1) / (2.0 * kappa), abs=(d - 1) / kappa)


def test_sample_vmf_of_no_samples():
    assert sample_vmf(np.random.default_rng(0), E1, 5.0, 0).shape == (0, 3)


def test_infeasible_separation_raises():
    # 50 random directions on the circle never keep every pair 1.8 degrees apart
    with pytest.raises(InfeasibleSeparationError):
        well_separated_directions(np.random.default_rng(0), 2, 50)


def test_one_direction_is_the_first_draw_normalized():
    rng, again = np.random.default_rng(3), np.random.default_rng(3)
    dirs = well_separated_directions(rng, 6, 1)
    draw = again.standard_normal((1, 6))
    np.testing.assert_allclose(dirs, draw / np.linalg.norm(draw), rtol=0, atol=1e-15)
    assert rng.bit_generator.state == again.bit_generator.state


def test_drift_scenario_accepts_numpy_numbers():
    scenario = DriftScenario(d=np.int64(4), k=np.int32(3), t_steps=np.uint8(2), n_per_step=5,
                             kappa_true=np.float32(20.0), dirichlet_alpha=np.float64(2.0),
                             seed=np.int64(0))
    batches, _ = synth_drift(scenario)
    assert [b.features.shape for b in batches] == [(5, 4), (5, 4)]


def test_dirichlet_labels_parse():
    scenario = DriftScenario(d=4, k=3, t_steps=1, n_per_step=30, dirichlet_alpha=0.5)
    batches, _ = synth_drift(scenario)
    assert batches[0].labels.max() < 3
