"""Tests for the stream format, CSV ingest, label shift and synthetic drift."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stad.errors import (
    CorruptHeaderError,
    CorruptPayloadError,
    MissingFileError,
    NonContiguousTimeError,
    StadError,
)
from stad.stream import (
    MANIFEST_NAME,
    DriftScenario,
    EmbeddingBatch,
    make_label_shift,
    read_csv_stream,
    read_manifest,
    read_matrix,
    read_stream,
    read_trajectory,
    synth_drift,
    write_matrix,
    write_stream,
    write_synthetic,
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


def _header(rows, cols, magic=b"STADEMB1"):
    return magic + np.array([rows, cols], dtype="<u4").tobytes()


CORRUPTIONS = {
    "manifest missing": (MissingFileError, lambda p: (p / MANIFEST_NAME).unlink()),
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
    "truncated header": (CorruptHeaderError, _write_bytes("step_00001.emb", b"STADEMB1")),
    "bad magic": (CorruptHeaderError, _write_bytes("step_00001.emb", _header(5, 3, b"NOTMAGIC"))),
    "short payload": (CorruptPayloadError, _write_bytes("step_00001.emb", _header(5, 3) + bytes(8))),
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
    "first step t=2": [_batch(t=2)],
    "label 5 with K=2": [_batch(labels=(0, 5))],
    "label -1": [_batch(labels=(0, -1))],
    "NaN features": [_batch(feats=((0.5, np.nan), (1.0, 0.0)))],
    "1-D batch": [EmbeddingBatch(1, np.ones(2, np.float32), np.zeros(2, np.uint32))],
    "wrong D": [_batch(), _batch(t=2, feats=((1.0, 2.0, 3.0), (0.0, 1.0, 0.0)))],
    "label-count mismatch": [_batch(labels=(0, 1, 1))],
}


@pytest.mark.parametrize("case", sorted(WRITER_VIOLATIONS))
def test_write_stream_enforces_step_contract(tmp_path, case):
    with pytest.raises(StadError):
        write_stream(tmp_path, WRITER_VIOLATIONS[case], k=2)


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


def test_write_synthetic_round_trip(tmp_path):
    scenario = DriftScenario(d=5, k=3, t_steps=4, n_per_step=12, seed=5)
    write_synthetic(tmp_path, scenario)
    want, trajectory = synth_drift(scenario)
    for a, b in zip(want, read_stream(tmp_path), strict=True):
        assert (b.t, b.features.tobytes(), b.labels.tobytes()) == (a.t, a.features.tobytes(),
                                                                   a.labels.tobytes())
    np.testing.assert_array_equal(read_trajectory(tmp_path),
                                  trajectory.astype(np.float32).astype(float))
    assert read_manifest(tmp_path).metadata["seed"] == "5"


def test_read_trajectory_absent(stream_dir):
    assert read_trajectory(stream_dir) is None


def test_read_matrix_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_matrix(tmp_path / "absent.emb")


def _csv(tmp_path, text):
    path = tmp_path / "dump.csv"
    path.write_text(text)
    return path


def test_csv_ingest_with_unlabeled_rows(tmp_path):
    path = _csv(tmp_path, "t,label,f0,f1\n2,1,0.5,1\n2,0,1,0\n3,,0,2\n3,,1,1\n")
    batches, k = read_csv_stream(path)
    assert k == 2
    assert [b.t for b in batches] == [2, 3]
    np.testing.assert_array_equal(batches[0].labels, [1, 0])
    assert batches[1].labels is None
    np.testing.assert_array_equal(batches[1].features, np.array([[0, 2], [1, 1]], np.float32))
    assert read_csv_stream(path, k=5)[1] == 5


@pytest.mark.parametrize("text", [
    "t,label,f0\n1,0,0.5,0.1\n",
    "t,labels,f0\n1,0,0.5\n",
])
def test_csv_rejects_malformed_rows(tmp_path, text):
    with pytest.raises((CorruptHeaderError, CorruptPayloadError)):
        read_csv_stream(_csv(tmp_path, text))


@pytest.mark.parametrize("text, k", [
    ("t,label,f0\n1,0,nan\n", None),
    ("t,label,f0,f1\n1,,0.5,inf\n", None),
    ("t,label,f0\n1,0,0.5\n1,3,0.1\n", 2),
])
def test_csv_enforces_step_contract(tmp_path, text, k):
    with pytest.raises(CorruptPayloadError):
        read_csv_stream(_csv(tmp_path, text), k=k)


def test_csv_stream_must_start_at_one_to_be_written(tmp_path):
    batches, k = read_csv_stream(_csv(tmp_path, "t,label,f0\n2,0,0.5\n3,1,0.1\n"))
    with pytest.raises(NonContiguousTimeError):
        write_stream(tmp_path / "out", batches, k)


def test_csv_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_csv_stream(tmp_path / "absent.csv")


@pytest.mark.parametrize("whole_stream", [False, True])
def test_label_shift_is_class_contiguous_permutation(whole_stream):
    batches = small_batches(seed=1, sizes=(9, 7, 8))
    for b in batches:
        b.features[:, 0] = np.arange(b.count)  # tags the original row order
    out = make_label_shift(batches, seed=3, k=3, whole_stream=whole_stream)
    assert [b.count for b in out] == [b.count for b in batches]

    def rows(seq):
        return [(int(label), tuple(f)) for b in seq for label, f in zip(b.labels, b.features)]

    groups = [out] if whole_stream else [[b] for b in out]
    sources = [batches] if whole_stream else [[b] for b in batches]
    for got, src in zip(groups, sources):
        assert sorted(rows(got)) == sorted(rows(src))
        labels = [label for label, _ in rows(got)]
        # class-contiguous: each class appears as a single run
        runs = [c for i, c in enumerate(labels) if i == 0 or c != labels[i - 1]]
        assert len(runs) == len(set(runs))
        for c in set(labels):
            assert [f for label, f in rows(got) if label == c] == [
                f for label, f in rows(src) if label == c
            ]


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


@pytest.mark.parametrize("case", [
    lambda tmp: read_csv_stream(_csv(tmp, "t,label,f0\n")),
    lambda tmp: read_csv_stream(_csv(tmp, "t\n1\n")),
    lambda tmp: read_csv_stream(_csv(tmp, "t,label,f0\n1,0,abc\n")),
    lambda tmp: read_csv_stream(_csv(tmp, "t,label,f0\n1,z,0.5\n")),
    _manifest_without_steps,
    lambda tmp: DriftScenario(label_distribution="dirichlet:x"),
    lambda tmp: _shift_out_of_range(),
], ids=["header-only csv", "one-column header", "non-numeric field", "non-numeric label",
        "manifest without steps", "dirichlet alpha not a number", "label shift label >= k"])
def test_bad_input_raises_stad_error(tmp_path, case):
    with pytest.raises(StadError):
        case(tmp_path)


def test_dirichlet_labels_parse():
    scenario = DriftScenario(d=4, k=3, t_steps=1, n_per_step=30, label_distribution="dirichlet:0.5")
    batches, _ = synth_drift(scenario)
    assert batches[0].labels.max() < 3
