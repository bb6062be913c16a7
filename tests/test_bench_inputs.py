"""The benchmark's inputs, pinned byte for byte.

Every workload's streams come from `bench/streams.py`, which builds them
with `synth_drift`, `sample_vmf`, `well_separated_directions` and
`make_label_shift`. A refactor of those functions that changes one bit of
a stream changes what the benchmark measures, so the written directories
are compared with SHA-256 values frozen from the generators before
`make_label_shift` became one stable argsort per step, which left every
byte as it was. The values hold for numpy's default bit generator and
float64 rounding with one BLAS thread; a numpy or BLAS build that rounds
a dot product differently needs them refrozen from a commit whose
streams are known to be right.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 7
# SHA-256 of `tree_digest` over `bench/streams.py --workload NAME --seed 7 --tiny`
FROZEN = {
    "vmf-d512-shift": "5a53c7aeb32718d7ce5d3caa8afffb6e18fa4ddb97a3a4a85cbb688a70df346b",
    "vmf-d2048-k1000": "8a8c4f24adcc0727efee95998a7311f8e45bfd266db86dba8ee320904f9209b9",
    "gauss-d64": "8ad511c93bfb33a5e666b1449d14e979fa713423aa236891183cbf843f41c9a9",
    "gauss-d64-mstep": "7882b1ca7a0cf410d3037fcee432b44d49f3733da3098b3c54b5e13c042b4f1b",
}


def load_streams(monkeypatch):
    """bench/streams.py as a module; it imports `workloads` from its directory."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_streams", BENCH / "streams.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under root: its relative path, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_tiny_streams_are_unchanged(name, tmp_path, monkeypatch):
    streams = load_streams(monkeypatch)
    assert streams.main(["--workload", name, "--seed", str(SEED), "--out", str(tmp_path),
                         "--tiny"]) == 0
    assert tree_digest(tmp_path) == FROZEN[name]
