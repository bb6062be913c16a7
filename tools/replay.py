"""Replay one benchmark run's streams through a checkout and hash every step.

    python3 tools/replay.py CHECKOUT --workload NAME --seed 7 [--tiny] [--save FILE.npz]
    python3 tools/replay.py --diff A.npz B.npz

The run's streams are written by CHECKOUT's own `bench/streams.py`, in a
process of its own, into a temporary directory that is removed at the end.
Each stream is then fed to the tracker that CHECKOUT's `bench/episode.py`
builds with `make_model`, as a benchmark pass feeds it: `adapt` on each
batch, then `predict` on the same batch. Every step prints one JSON line::

    {"stream": 0, "t": 1, "probs": SHA, "labels": SHA, "prototypes": SHA,
     "mixing": SHA, "scalars": SHA, "degenerate_updates": 0}

Each SHA is the SHA-256 of the array's float64 bytes (the predicted
labels as int64); `scalars` covers the learned scalars, kappa_ems for vMF
and q, r for Gauss. The last line gives `accuracy`, `source_accuracy`
(the argmax of features @ source.T, the unadapted head) and
`proto_angle_err_deg` over all streams, scored as `episode.py` scores a
pass, then `flat_rows`, the predict rows whose max - min probability is
below 1e-6, out of `predict_rows`, all predict rows. Two checkouts that
print the same lines gave bit-identical answers on the run.

The `bench/` modules and `stad` are imported from CHECKOUT (its `bench/`
and `src/` go first on sys.path), with one BLAS thread as in every
benchmark process. Nothing under CHECKOUT is written.

Hashes only show that answers are bit-identical. `--save FILE.npz` also
writes each step's arrays, `s<stream>_t<t>_probs`, `_prototypes`,
`_mixing`, `_scalars` (the learned scalars above, in that order) and
`_degenerate_updates`, one at a time into an uncompressed archive (about
17 MB per step at D=2048, K=1000). `--diff A.npz B.npz` compares two such
archives, which must hold the same keys and shapes, and prints one JSON
line per array kind with its largest absolute difference over all steps,
then the count of rows whose argmax probability differs, out of all rows,
and the largest max - min probability (in A) of a flipped row. A learned
scalar that moves in its last bits thus shows up by itself, not only
through the probabilities it feeds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path


def load(name: str, path: Path):
    """The module at `path`, imported under `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scalars(model) -> list[float]:
    """The learned scalars of either tracker: kappa_ems, or q and r."""
    return [float(getattr(model, name)) for name in ("kappa_ems", "sigma_trans", "sigma_ems")
            if hasattr(model, name)]


SAVED = ("probs", "prototypes", "mixing", "scalars", "degenerate_updates")
FLAT = 1e-6  # a predict row whose max - min probability is below this is flat


def save_array(archive, key: str, array) -> None:
    """Write one array into an open zip archive as `key`.npy, as np.savez does."""
    import numpy as np  # only after main has pinned the BLAS threads

    with archive.open(f"{key}.npy", "w", force_zip64=True) as f:
        np.lib.format.write_array(f, np.ascontiguousarray(array))


def replay(episode, w, stream_dir: Path, index: int, score: dict, archive=None) -> None:
    """Print one line per step of one stream and add its scores to `score`;
    with an open zip `archive`, also write the step's arrays into it."""
    import numpy as np  # only after main has pinned the BLAS threads

    source = episode.source_head(stream_dir)
    model = episode.make_model(w, source)
    truth = episode.Truth(stream_dir)
    for batch in episode.read_stream(stream_dir):
        model.adapt(batch.t, batch.features)
        probs, pred = model.predict(batch.features)
        protos = model.prototypes
        learned = np.array(scalars(model), dtype="<f8")
        degenerate = getattr(model, "degenerate_updates", 0)
        print(json.dumps({
            "stream": index,
            "t": batch.t,
            "probs": sha(probs.astype("<f8").tobytes()),
            "labels": sha(pred.astype("<i8").tobytes()),
            "prototypes": sha(protos.astype("<f8").tobytes()),
            "mixing": sha(model.mixing.astype("<f8").tobytes()),
            "scalars": sha(learned.tobytes()),
            "degenerate_updates": degenerate,
        }))
        if archive is not None:
            arrays = (probs, protos, model.mixing, learned, np.array(degenerate))
            for name, array in zip(SAVED, arrays):
                save_array(archive, f"s{index}_t{batch.t}_{name}", array)
        score["correct"] += int((pred == batch.labels).sum())
        score["source_correct"] += int((np.argmax(batch.features @ source.T, axis=1)
                                        == batch.labels).sum())
        score["flat_rows"] += int((np.ptp(probs, axis=1) < FLAT).sum())
        score["samples"] += batch.count
        score["angle_sum"] += float(episode.angles_deg(protos, truth.centres(batch.t)).sum())
        score["rows"] += w.k


def diff(a: Path, b: Path) -> list[dict]:
    """The largest absolute difference of each saved array kind between two
    `--save` archives, then their argmax flips; raises ValueError unless the
    archives hold the same keys and shapes."""
    import numpy as np

    worst = dict.fromkeys(SAVED, 0.0)
    flips = rows = 0
    spread = 0.0
    with np.load(a) as left, np.load(b) as right:
        if sorted(left.files) != sorted(right.files):
            raise ValueError(f"{a} and {b} hold different arrays")
        for key in left.files:
            x, y = left[key], right[key]
            if x.shape != y.shape:
                raise ValueError(f"{key}: shape {x.shape} against {y.shape}")
            name = key.split("_", 2)[2]  # s<stream>_t<t>_<name>
            if x.size:
                worst[name] = max(worst[name], float(np.abs(x - y).max()))
            if name == "probs":
                flipped = x.argmax(axis=1) != y.argmax(axis=1)
                flips += int(flipped.sum())
                rows += len(x)
                if flipped.any():
                    spread = max(spread, float(np.ptp(x[flipped], axis=1).max()))
    return ([{"array": name, "max_abs_diff": worst[name]} for name in SAVED]
            + [{"argmax_flips": flips, "rows": rows, "flipped_max_spread": spread}])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--save", type=Path, metavar="FILE.npz")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.diff:
        for line in diff(*args.diff):
            print(json.dumps(line))
        return 0
    if args.checkout is None or args.workload is None or args.seed is None:
        parser.error("a replay needs CHECKOUT, --workload and --seed")
    checkout = args.checkout.resolve()
    bench, src = checkout / "bench", checkout / "src"

    workloads = load("workloads", bench / "workloads.py")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(sorted(workloads.WORKLOADS))}")
    w = workloads.get(args.workload, args.tiny)
    # before numpy loads, so that this process and the stream writer use one thread
    for var in workloads.THREAD_VARS:
        os.environ[var] = "1"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    sys.path[:0] = [str(src), str(bench)]
    episode = load("episode", bench / "episode.py")
    if not Path(episode.stad.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported stad from {episode.stad.__file__}, not from {src}")

    score = dict(correct=0, source_correct=0, samples=0, angle_sum=0.0, rows=0, flat_rows=0)
    with contextlib.ExitStack() as stack:
        tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="stad-replay-"))
        archive = None
        if args.save:
            archive = stack.enter_context(zipfile.ZipFile(args.save, "w", allowZip64=True))
        cmd = [sys.executable, str(bench / "streams.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", tmp] + (["--tiny"] if args.tiny else [])
        subprocess.run(cmd, env=env, check=True)
        for index in range(w.processes):
            replay(episode, w, Path(tmp) / str(index), index, score, archive)
    print(json.dumps({"accuracy": score["correct"] / score["samples"],
                      "source_accuracy": score["source_correct"] / score["samples"],
                      "proto_angle_err_deg": score["angle_sum"] / score["rows"],
                      "flat_rows": score["flat_rows"], "predict_rows": score["samples"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
