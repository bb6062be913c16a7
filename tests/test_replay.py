"""tools/replay.py: per-step answer hashes of one benchmark run, in one command."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REPLAY = ROOT / "tools" / "replay.py"
STEPS, STREAMS = 6, 2  # every --tiny workload
HASHED = ("probs", "labels", "prototypes", "mixing", "scalars")


def replay(workload: str) -> list[dict]:
    out = subprocess.run([sys.executable, str(REPLAY), str(ROOT), "--workload", workload,
                          "--seed", "7", "--tiny"], capture_output=True, text=True, check=True)
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
