"""tools/replay.py: per-step answer hashes of one benchmark run, in one command."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
REPLAY = ROOT / "tools" / "replay.py"
STEPS, STREAMS = 6, 2  # every --tiny workload
HASHED = ("probs", "labels", "prototypes", "mixing", "scalars")
TINY_N = {"vmf-d512-shift": 40, "gauss-d64-mstep": 30}  # the --tiny batch sizes
# SHA-256 of the whole output of `replay.py ROOT --workload W --seed 7 --tiny`
# (numpy 2.4.6, scipy 1.17.1, one OpenBLAS thread, x86-64). The vMF pins were
# frozen at 79863b3, the Gauss pins when `gauss_assignments` stopped forming
# the terms that are the same for every class (a last-bit move of each logit).
# A change that moves any answer of any step of the four workloads changes
# its hash; one that means to move them refreezes these and says why.
FROZEN_TINY = {
    "vmf-d512-shift": "b20f2566f3aae9ad46f7e3fe97ff7dcd17c9c13f23d824bb535059d8dfd704a2",
    "vmf-d2048-k1000": "b669ed3ce8089f3d39c2a89b1132690d7f9c27c5441a2e270fed0c8a8908c94e",
    "gauss-d64": "4505197e9401167798952fa761b3f3238b018e2dd91ad4b52eab4f6499fd23ac",
    "gauss-d64-mstep": "60b7063c2eb140130b4143f26761137a2a70419545a883cc68b8741252976b32",
}


def replay_output(workload: str, *extra: str) -> str:
    return subprocess.run([sys.executable, str(REPLAY), str(ROOT), "--workload", workload,
                           "--seed", "7", "--tiny", *extra], capture_output=True, text=True,
                          check=True).stdout


def replay(workload: str, *extra: str) -> list[dict]:
    return [json.loads(line) for line in replay_output(workload, *extra).splitlines()]


def diff(a: Path, b: Path) -> list[dict]:
    out = subprocess.run([sys.executable, str(REPLAY), "--diff", str(a), str(b)],
                         capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


@pytest.mark.parametrize("workload", ["vmf-d512-shift", "gauss-d64-mstep"])
def test_two_runs_agree_step_by_step(workload):
    first, second = replay(workload), replay(workload)
    assert first == second
    *steps, last = first
    assert [(s["stream"], s["t"]) for s in steps] == [
        (i, t) for i in range(STREAMS) for t in range(1, STEPS + 1)]
    for step in steps:
        assert all(len(step[key]) == 64 for key in HASHED)
        assert step["degenerate_updates"] >= 0
    # the adapted state moves from step to step
    assert len({s["prototypes"] for s in steps}) == len(steps)
    assert 0.0 <= last["accuracy"] <= 1.0 and last["proto_angle_err_deg"] >= 0.0
    assert 0.0 <= last["source_accuracy"] <= 1.0
    assert last["predict_rows"] == STEPS * STREAMS * TINY_N[workload]
    assert 0 <= last["flat_rows"] <= last["predict_rows"]


@pytest.mark.parametrize("workload", sorted(FROZEN_TINY))
def test_tiny_replay_output_is_frozen(workload):
    sha = hashlib.sha256(replay_output(workload).encode()).hexdigest()
    replay_cmd = f"python3 tools/replay.py CHECKOUT --workload {workload} --seed 7 --tiny"
    assert sha == FROZEN_TINY[workload], (
        f"the --tiny replay of {workload} now hashes to {sha}. To see what moved, run "
        f"`{replay_cmd} --save A.npz` on the parent and on this checkout (B.npz), then "
        f"`python3 tools/replay.py --diff A.npz B.npz`; to refreeze on purpose, set "
        f"FROZEN_TINY[{workload!r}] = {sha!r} and say why")


def test_two_saves_diff_to_zero(tmp_path):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    assert replay("vmf-d512-shift", "--save", str(a)) == replay("vmf-d512-shift", "--save", str(b))
    with np.load(a) as saved:
        assert len(saved.files) == 5 * STEPS * STREAMS
        assert saved["s1_t6_prototypes"].shape == (4, 32)   # --tiny K, D
        assert saved["s1_t6_scalars"].shape == (1,)         # kappa_ems
        assert saved["s1_t6_degenerate_updates"].shape == (1,)
    assert diff(a, b) == [
        {"array": "probs", "max_abs_diff": 0.0},
        {"array": "prototypes", "max_abs_diff": 0.0},
        {"array": "mixing", "max_abs_diff": 0.0},
        {"array": "scalars", "max_abs_diff": 0.0},
        {"array": "degenerate_updates", "max_abs_diff": 0.0},
        {"argmax_flips": 0, "rows": STEPS * STREAMS * 40, "flipped_max_spread": 0.0},
    ]


def test_diff_reports_differences_and_flips(tmp_path):
    probs = np.array([[0.5, 0.5 - 1e-13, 1e-13], [0.2, 0.7, 0.1]])
    flipped = np.array([[0.5 - 1e-13, 0.5, 1e-13], [0.2, 0.7, 0.1]])
    arrays = dict(s0_t1_prototypes=np.eye(3), s0_t1_mixing=np.full(3, 1 / 3),
                  s0_t1_scalars=np.array([0.01, 0.5]), s0_t1_degenerate_updates=np.array(0))
    np.savez(tmp_path / "a.npz", s0_t1_probs=probs, **arrays)
    arrays["s0_t1_prototypes"] = np.eye(3) + 1e-15
    # a last-bit move of the learned r, and one more degenerate update
    arrays["s0_t1_scalars"] = np.array([0.01, np.nextafter(0.5, 1.0)])
    arrays["s0_t1_degenerate_updates"] = np.array(1)
    np.savez(tmp_path / "b.npz", s0_t1_probs=flipped, **arrays)
    lines = diff(tmp_path / "a.npz", tmp_path / "b.npz")
    assert lines[0]["max_abs_diff"] == pytest.approx(1e-13, rel=1e-3)
    assert lines[1]["max_abs_diff"] == pytest.approx(1e-15, rel=1e-3)
    assert lines[2]["max_abs_diff"] == 0.0
    assert lines[3] == {"array": "scalars", "max_abs_diff": np.spacing(0.5)}
    assert lines[4] == {"array": "degenerate_updates", "max_abs_diff": 1.0}
    assert lines[5] == {"argmax_flips": 1, "rows": 2, "flipped_max_spread": 0.5 - 1e-13}


def test_diff_rejects_archives_of_other_arrays(tmp_path):
    np.savez(tmp_path / "a.npz", s0_t1_probs=np.ones((2, 3)))
    np.savez(tmp_path / "b.npz", s0_t1_probs=np.ones((2, 4)))
    done = subprocess.run([sys.executable, str(REPLAY), "--diff", str(tmp_path / "a.npz"),
                           str(tmp_path / "b.npz")], capture_output=True, text=True)
    assert done.returncode != 0 and "shape" in done.stderr
