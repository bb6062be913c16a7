"""The sliding window shared by the spherical and Gaussian trackers.

Both trackers keep the most recent batches and re-infer all of them at
every step; the belief of the newest step doubles as the classification
head. A step that falls out of the window leaves its belief behind as the
fixed anchor the oldest remaining step is tied to. The trackers differ
only in the belief type, the sweep over the window and the head.
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

__all__ = ["WindowStep", "SlidingWindow", "mixing_update", "check_sizes"]


@dataclass
class WindowStep:
    t: int
    feats: np.ndarray   # (N, D), unit rows
    belief: Any         # the tracker's belief over the K prototypes
    resp: np.ndarray    # (N, K)
    mixing: np.ndarray  # (K,)


def check_sizes(config, d_min: int) -> None:
    """Raise DomainError unless a tracker config's d, k, window and
    e_sweeps are integers (bools excluded) at or above their minimums."""
    for name, minimum in (("d", d_min), ("k", 1), ("window", 1), ("e_sweeps", 1)):
        value = getattr(config, name)
        integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if not integral or value < minimum:
            raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


def mixing_update(resp: np.ndarray, pi_floor: float = 0.0) -> np.ndarray:
    """Column means of the responsibilities, floored and renormalized.

    Entries below the floor are pinned to it and the remaining mass is
    distributed proportionally over the others, so e.g. rows all equal to
    (1, 0) with floor 0.01 give (0.99, 0.01).
    """
    resp = np.asarray(resp, dtype=float)
    if resp.ndim != 2 or resp.shape[0] == 0:
        raise EmptyBatchError("mixing update needs at least one sample")
    pi = resp.mean(axis=0)
    pi = pi / pi.sum()
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
    """Window state, batch checks and views common to both trackers.

    `config` needs `d` and `k`. The window holds at most `window` steps;
    with `fixed_anchor` the anchor never advances and every step starts
    from it, which turns the window into a fresh fit per batch. Subclasses
    run their sweep and head over `_steps`.
    """

    def __init__(self, config, anchor, window: int, fixed_anchor: bool = False):
        self.config = config
        self._anchor = anchor
        self._window = window
        self._fixed_anchor = fixed_anchor
        self._steps: list[WindowStep] = []

    @property
    def mixing(self) -> np.ndarray:
        return self._newest().mixing

    @property
    def window_times(self) -> list[int]:
        return [s.t for s in self._steps]

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

        The new step starts from the newest belief (the anchor when the
        window is empty or the anchor is fixed) with uniform responsibilities
        and mixing; an evicted step's belief becomes the anchor unless the
        anchor is fixed.
        """
        feats = self._unit_batch(feats)
        if feats.shape[0] == 0:
            raise EmptyBatchError("adaptation needs at least one sample")
        if self._steps and t != self._steps[-1].t + 1:
            raise NonContiguousTimeError(f"expected t={self._steps[-1].t + 1}, got {t}")
        start = self._anchor if self._fixed_anchor or not self._steps else self._steps[-1].belief
        k = self.config.k
        self._steps.append(
            WindowStep(
                t=t,
                feats=feats,
                belief=start.copy(),
                resp=np.full((feats.shape[0], k), 1.0 / k),
                mixing=np.full(k, 1.0 / k),
            )
        )
        while len(self._steps) > self._window:
            evicted = self._steps.pop(0)
            if not self._fixed_anchor:
                self._anchor = evicted.belief
