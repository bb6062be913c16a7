"""The sliding window shared by the spherical and Gaussian trackers.

Both trackers keep the most recent batches and re-infer all of them at
every step; the belief of the newest step doubles as the classification
head. A step that falls out of the window leaves its belief behind as the
fixed anchor the oldest remaining step is tied to.

One loop, `SlidingWindow.adapt`, runs every step of both trackers: it
pushes the batch, runs `e_sweeps` coordinate sweeps over the window and
then re-estimates the mixing weights and the tracker's parameters in
closed form. The trackers differ only in the belief type and in the three
hooks that loop calls, `_push` (which a tracker may extend), `_sweep` and
`_reestimate`, and in the head.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyBatchError,
    NonContiguousTimeError,
    NotAdaptedError,
)
from .mathcore import normalize_rows

__all__ = ["WindowStep", "SlidingWindow", "mixing_update", "check_config", "check_source"]


@dataclass
class WindowStep:
    t: int
    feats: np.ndarray   # (N, D), unit rows
    belief: Any         # the tracker's belief over the K prototypes
    resp: np.ndarray    # (N, K)
    mixing: np.ndarray  # (K,)


def check_config(config, d_min: int) -> None:
    """Raise DomainError unless a tracker config's d, k, window and
    e_sweeps are integers (bools excluded) at or above their minimums and
    its pi_floor lies in [0, 1/K)."""
    for name, minimum in (("d", d_min), ("k", 1), ("window", 1), ("e_sweeps", 1)):
        value = getattr(config, name)
        integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if not integral or value < minimum:
            raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if not 0.0 <= config.pi_floor < 1.0 / config.k:
        raise DomainError(f"pi_floor must lie in [0, 1/K), got {config.pi_floor}")


def check_source(source_weights, config) -> np.ndarray:
    """The source classifier weights as a float (K, D) array; raise
    DimensionMismatchError unless their shape matches the config."""
    source_weights = np.asarray(source_weights, dtype=float)
    if source_weights.shape != (config.k, config.d):
        raise DimensionMismatchError(
            f"source weights {source_weights.shape} do not match "
            f"config (K={config.k}, D={config.d})"
        )
    return source_weights


def mixing_update(resp: np.ndarray, pi_floor: float = 0.0) -> np.ndarray:
    """Column means of the responsibilities, floored and renormalized.

    Entries below the floor are pinned to it and the remaining mass is
    distributed proportionally over the others, so e.g. rows all equal to
    (1, 0) with floor 0.01 give (0.99, 0.01). A non-finite or negative
    entry, or a zero total, raises DomainError.
    """
    resp = np.asarray(resp, dtype=float)
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
    pi = pi / total
    if pi_floor <= 0.0:
        return pi
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


class SlidingWindow:
    """Window state, batch checks, views and the adapt loop of both trackers.

    `config` needs `d`, `k` and `e_sweeps`. The window holds at most
    `window` steps; with `fixed_anchor` the anchor never advances and
    every step starts from it, which turns the window into a fresh fit per
    batch. The initial anchor is kept as `_prior` and never written.

    `adapt` is `_push`, then `e_sweeps` calls of `_sweep()`, then
    `_reestimate()`. A subclass supplies `_sweep`, one coordinate sweep
    over `_steps`, and `_reestimate`, the closed-form mixing and parameter
    updates, and its own head.
    """

    def __init__(self, config, anchor, window: int, fixed_anchor: bool = False):
        self.config = config
        self._prior = self._anchor = anchor
        self._window = window
        self._fixed_anchor = fixed_anchor
        self._steps: list[WindowStep] = []

    @property
    def mixing(self) -> np.ndarray:
        return self._newest().mixing

    @property
    def window_times(self) -> list[int]:
        return [s.t for s in self._steps]

    def adapt(self, t: int, feats: np.ndarray) -> "SlidingWindow":
        """Ingest the batch at time t and re-infer the window; returns self."""
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
        """An (N, D) batch as float rows of unit norm."""
        feats = np.asarray(feats, dtype=float)
        if feats.ndim != 2 or feats.shape[1] != self.config.d:
            raise DimensionMismatchError(
                f"batch shape {feats.shape} does not match D={self.config.d}"
            )
        return normalize_rows(feats)

    def _push(self, t: int, feats: np.ndarray) -> None:
        """Append the batch at time t as the newest step and evict the oldest.

        The new step starts from a copy of the newest belief (the anchor
        when the window is empty or the anchor is fixed) with uniform
        responsibilities and mixing; an evicted step's belief becomes the
        anchor unless the anchor is fixed.

        Once the window is full, each push retires a belief: the anchor
        that the evicted step's belief replaces or, with a fixed anchor,
        the evicted step's own belief. The copy is written into the arrays
        of the retired belief, as far as the belief type's `copy(into=...)`
        reuses them, except that the initial anchor (`_prior`) is kept and
        never written.
        """
        feats = self._unit_batch(feats)
        if feats.shape[0] == 0:
            raise EmptyBatchError("adaptation needs at least one sample")
        if self._steps and t != self._steps[-1].t + 1:
            raise NonContiguousTimeError(f"expected t={self._steps[-1].t + 1}, got {t}")
        start = self._anchor if self._fixed_anchor or not self._steps else self._steps[-1].belief
        leaving = None
        if len(self._steps) == self._window:
            if self._fixed_anchor:
                leaving = self._steps[0].belief
            elif self._anchor is not self._prior:
                leaving = self._anchor
        k = self.config.k
        self._steps.append(
            WindowStep(
                t=t,
                feats=feats,
                belief=start.copy(into=leaving),
                resp=np.full((feats.shape[0], k), 1.0 / k),
                mixing=np.full(k, 1.0 / k),
            )
        )
        while len(self._steps) > self._window:
            evicted = self._steps.pop(0)
            if not self._fixed_anchor:
                self._anchor = evicted.belief
