"""The sliding window shared by the spherical and Gaussian trackers.

Both trackers keep the most recent batches and re-infer all of them at
every step; the belief of the newest step doubles as the classification
head. A step that falls out of the window leaves its belief behind as the
fixed anchor the oldest remaining step is tied to.

One loop, `SlidingWindow.adapt`, runs every step of both trackers: it
pushes the batch, runs `e_sweeps` coordinate sweeps over the window and
then re-estimates the mixing weights and the tracker's parameters in
closed form. One `SlidingWindow.predict` serves both heads: it takes the
batch's unit rows and the newest step to the tracker's `_head`. The batch
push and the prediction path are shared; the trackers differ only in the
belief type and in three hooks: `_sweep` and `_reestimate`, which the
loop calls after the push, and `_head`.

A step is a plain record. Its one derived field, `products`, holds the
spherical tracker's (N, K) products of the batch with the belief's mean
directions while the belief stands still, so that the sweep, the
re-estimate and the head form them once. The engine also keeps one copy
of the newest batch as given: `predict` on a batch equal to it hands the
head the newest step's unit rows, and the spherical head its products,
instead of normalizing the batch again.

Both trackers normalize their assignment logits, and the Gaussian one its
head, through one in-place row softmax, `softmax_rows`. Its callers form
the logits just before and check the arrays they form them from, so it
checks only the N row maxima it needs for the shift; a row with a NaN or
+inf entry, or all -inf, raises there.

The checks both trackers share live here too: of a config
(`check_config`, whose pi_floor rule `mixing_update` applies as well),
of the source weights (`check_source`) and of a window's batches
(`check_batches`). The scalar checkers they build on, `check_int` and
`check_real`, live in `errors`, the one rule every module uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyBatchError,
    EmptyInputError,
    NonContiguousTimeError,
    NotAdaptedError,
    check_int,
    check_real,
)
from .mathcore import _float_array, normalize_rows

__all__ = ["WindowStep", "SlidingWindow", "mixing_update", "softmax_rows", "check_config",
           "check_source", "check_batches"]


@dataclass
class WindowStep:
    """One window step: its batch, the tracker's belief, responsibilities
    and mixing weights, and the (N, K) products of the batch with the
    belief's mean directions, or None.

    Whoever moves or replaces the belief sets `products` back to None; the
    spherical tracker forms them again when it next reads them, and the
    Gaussian one never reads them.
    """

    t: int
    feats: np.ndarray   # (N, D), unit rows
    belief: Any         # the tracker's belief over the K prototypes
    resp: np.ndarray    # (N, K)
    mixing: np.ndarray  # (K,)
    products: np.ndarray | None = None


def check_config(config, d_min: int) -> None:
    """Raise DomainError unless a tracker config's d, k, window and
    e_sweeps are integers (bools excluded) at or above their minimums and
    within the float range, and its pi_floor is a real number in [0, 1/K)."""
    for name, minimum in (("d", d_min), ("k", 1), ("window", 1), ("e_sweeps", 1)):
        check_int(name, getattr(config, name), minimum, as_float=True)
    _check_pi_floor(config.pi_floor, config.k)


def _check_pi_floor(pi_floor, k: int) -> None:
    """Raise DomainError unless pi_floor is a real number in [0, 1/K)."""
    check_real("pi_floor", pi_floor, 0.0)
    if not pi_floor < 1.0 / k:
        raise DomainError(f"pi_floor must lie in [0, 1/K) for K={k}, got {pi_floor}")


def check_source(source_weights, config) -> np.ndarray:
    """The source classifier weights as a float (K, D) array; raise
    DomainError unless they convert to one and DimensionMismatchError
    unless their shape matches the config."""
    source_weights = _float_array(source_weights, "source weights")
    if source_weights.shape != (config.k, config.d):
        raise DimensionMismatchError(
            f"source weights {source_weights.shape} do not match "
            f"config (K={config.k}, D={config.d})"
        )
    return source_weights


def check_batches(feats: list, resps: list, t_len: int, k: int, d: int,
                  who: str) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """A window's batches and responsibilities as float arrays, and their
    sample count.

    feats and resps need t_len entries each: batches (N_t, d) and their
    responsibilities (N_t, k). An entry that does not convert to a float
    array raises DomainError, anything else DimensionMismatchError and a
    window without a sample EmptyBatchError, each naming `who`.
    `vmf.kappa_update` passes each step's (N_t, K) products as its batch,
    with d = k.
    """
    feats = [_float_array(h, f"{who} batch") for h in feats]
    resps = [_float_array(w, f"{who} responsibilities") for w in resps]
    if (len(feats) != t_len or len(resps) != t_len
            or any(h.ndim != 2 or h.shape[1] != d or w.shape != (len(h), k)
                   for h, w in zip(feats, resps))):
        raise DimensionMismatchError(
            f"{who} needs {t_len} batches (N_t, {d}) and responsibilities (N_t, {k})")
    n_total = sum(len(h) for h in feats)
    if not n_total:
        raise EmptyBatchError(f"{who} needs at least one sample")
    return feats, resps, n_total


def mixing_update(resp: np.ndarray, pi_floor: float = 0.0) -> np.ndarray:
    """Column means of the responsibilities, floored and renormalized.

    Entries below the floor are pinned to it and the remaining mass is
    distributed proportionally over the others, so e.g. rows all equal to
    (1, 0) with floor 0.01 give (0.99, 0.01). A non-finite or negative
    entry, a zero total, or a pi_floor that is not a real number in
    [0, 1/K) raises DomainError.
    """
    resp = _float_array(resp, "responsibilities")
    if resp.ndim != 2:
        raise DimensionMismatchError(f"responsibilities must be (N, K), got {resp.shape}")
    if resp.shape[0] == 0:
        raise EmptyBatchError("mixing update needs at least one sample")
    pi = resp.mean(axis=0)
    total = pi.sum()
    # any NaN or infinity in resp reaches its column means and their sum;
    # a negative entry need not, so the entries are checked too
    if not 0.0 < total < np.inf or resp.min() < 0.0:
        raise DomainError("responsibilities must be finite and nonnegative, with a positive sum")
    _check_pi_floor(pi_floor, resp.shape[1])
    pi = pi / total
    pinned = np.zeros(pi.shape[0], dtype=bool)
    for _ in range(pi.shape[0]):
        low = (pi < pi_floor) & ~pinned
        if not low.any():
            break
        pinned |= low
        rest = ~pinned
        pi[pinned] = pi_floor
        # the mean of simplex rows keeps max >= 1/K > floor, so rest is non-empty
        pi[rest] *= (1.0 - pi_floor * pinned.sum()) / pi[rest].sum()
    return pi


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """The softmax of each row of an (N, K) float array, written into it;
    returns `logits`.

    Each row x becomes exp(x - (log(sum(exp(x - max x))) + max x)): the
    same operations, bit for bit, as exp(x - log_sum_exp(x, axis=1)[:, None]).
    The one value check is on the N row maxima, so the logits are neither
    converted nor scanned: a NaN or +inf entry, or a row that is all -inf,
    leaves its row's max non-finite and raises DomainError. Any other -inf
    entry gets probability 0, as does an entry more than the float range
    below its row's max. An array without an entry raises EmptyInputError,
    anything but a writable float ndarray DomainError and one that is not
    2-d DimensionMismatchError.
    """
    if not (isinstance(logits, np.ndarray) and logits.dtype.kind == "f"
            and logits.flags.writeable):
        raise DomainError("softmax_rows needs a writable float array to write into")
    if logits.ndim != 2:
        raise DimensionMismatchError(f"softmax_rows needs (N, K) logits, got {logits.shape}")
    if not logits.size:
        raise EmptyInputError("softmax of an empty array")
    # the ufuncs' own reductions skip the Python layers of ndarray.max and
    # np.sum, a few us a call at small N K, and give the same bits
    shift = np.maximum.reduce(logits, axis=1, keepdims=True)
    if not np.isfinite(shift).all():
        raise DomainError("each row of logits needs a finite max: no NaN or +inf, "
                          "and not every entry -inf")
    # an entry far enough below its row's max overflows to -inf here
    with np.errstate(over="ignore"):
        shifted = np.subtract(logits, shift)
        total = np.add.reduce(np.exp(shifted, out=shifted), axis=1, keepdims=True)
        logits -= np.log(total) + shift
    return np.exp(logits, out=logits)


class SlidingWindow:
    """Window state, batch checks, views and the adapt loop of both trackers.

    `config` needs `d`, `k`, `window` and `e_sweeps`. The window holds at
    most `config.window` steps. With `static` it holds one step whose
    anchor stays the initial one, which turns the window into a fresh fit
    per batch. The initial anchor is kept as `_prior` and never written.

    `adapt` is `_push`, then `e_sweeps` calls of `_sweep()`, then
    `_reestimate()`, and `predict` takes its batch's unit rows to
    `_head(step, unit)` on the newest step. A subclass supplies the three
    hooks: `_sweep`, one coordinate sweep over `_steps`; `_reestimate`, the
    closed-form mixing and parameter updates; and `_head`, the (N, K) class
    probabilities of the unit rows under the step's belief.

    `_push` keeps one copy of the newest batch as given, `_given`. `predict`
    on a batch that equals it element for element hands the head the
    newest step's own unit rows, which the spherical head recognizes to
    read the step's products; the copy, not the caller's array, is
    compared, so a batch written into after `adapt` takes the full path.
    """

    def __init__(self, config, anchor, static: bool = False):
        self.config = config
        self._prior = self._anchor = anchor
        self._window = 1 if static else config.window
        self._static = static
        self._steps: list[WindowStep] = []
        self._given: np.ndarray | None = None

    @property
    def mixing(self) -> np.ndarray:
        """Mixing weights of the newest step; a snapshot, like the
        trackers' `prototypes`, so that writing into it changes no step."""
        return self._newest().mixing.copy()

    @property
    def window_times(self) -> list[int]:
        return [s.t for s in self._steps]

    def adapt(self, t: int, feats: np.ndarray) -> "SlidingWindow":
        """Ingest the batch at time t and re-infer the window; returns self.

        t is an integer >= 0 (bools excluded), one above the newest step's
        once the window holds one; anything else raises DomainError or
        NonContiguousTimeError. A batch that does not convert to a float
        array raises DomainError, one that is not (N, D)
        DimensionMismatchError and an empty one EmptyBatchError.
        """
        self._push(t, feats)
        for _ in range(self.config.e_sweeps):
            self._sweep()
        self._reestimate()
        return self

    def _newest(self) -> WindowStep:
        if not self._steps:
            raise NotAdaptedError("no adaptation step has run yet")
        return self._steps[-1]

    def _unit_batch(self, feats: np.ndarray) -> np.ndarray:
        """An (N, D) batch as float rows of unit norm; DomainError unless it
        converts to finite floats, DimensionMismatchError unless it is (N, D)."""
        feats = _float_array(feats, "batch")
        if feats.ndim != 2 or feats.shape[1] != self.config.d:
            raise DimensionMismatchError(
                f"batch shape {feats.shape} does not match D={self.config.d}"
            )
        return normalize_rows(feats)

    def predict(self, feats) -> tuple[np.ndarray, np.ndarray]:
        """Class probabilities and argmax labels for a batch, from the
        tracker's head on the newest step, `_head(step, unit)`.

        Raises NotAdaptedError before the first `adapt`. A batch equal
        element for element to the newest step's batch as given (dtypes may
        differ: a float32 batch equals its float64 copy) is not normalized
        again; the head gets the step's own unit rows, with the same bits
        as the full path. Any other batch is checked and normalized as
        `adapt` does: one that does not convert to an (N, D) float array
        raises a StadError, and one of no row EmptyInputError.
        """
        newest = self._newest()
        unit = newest.feats if np.array_equal(feats, self._given) else self._unit_batch(feats)
        probs = self._head(newest, unit)
        return probs, probs.argmax(axis=1)

    def _push(self, t: int, feats: np.ndarray) -> None:
        """Append the batch at time t as the newest step, evicting the oldest
        step first when the window is full.

        The new step starts from a copy of the newest belief (the anchor
        when the window is empty or `static`) in fresh arrays, with uniform
        responsibilities and mixing and no products. The evicted step's
        belief becomes the anchor, except with `static`, where the anchor
        stays the initial one. A push moves no kept step's belief, so those
        steps keep their products. A copy of the batch as given replaces
        `_given`, so the model holds one such copy in all.
        """
        check_int("t", t, 0)
        unit = self._unit_batch(feats)
        if unit.shape[0] == 0:
            raise EmptyBatchError("adaptation needs at least one sample")
        if self._steps and t != self._steps[-1].t + 1:
            raise NonContiguousTimeError(f"expected t={self._steps[-1].t + 1}, got {t}")
        start = self._anchor if self._static or not self._steps else self._steps[-1].belief
        if len(self._steps) == self._window:
            evicted = self._steps.pop(0).belief
            if not self._static:
                self._anchor = evicted
        k = self.config.k
        self._steps.append(
            WindowStep(
                t=t,
                feats=unit,
                belief=start.copy(),
                resp=np.full((unit.shape[0], k), 1.0 / k),
                mixing=np.full(k, 1.0 / k),
            )
        )
        self._given = np.array(feats)
