"""Hyperspherical state-space mixture tracking drifting class prototypes.

Each class k owns a latent prototype direction on the unit sphere that
drifts over time steps through a vMF transition kernel; observed unit
embeddings at each step follow a vMF mixture around the current
prototypes. Inference is mean-field coordinate ascent over a sliding
window: per-sample assignment updates and per-class prototype-belief
updates alternate in fixed left-to-right sweeps, followed by closed-form
mixing-weight (and optionally emission-concentration) re-estimates. The
window engine's `adapt` runs that loop; this module supplies the sweep and
the re-estimates.

The newest prototype directions double as an adapted last-layer weight
matrix: predictions are the assignment step's cluster posterior on those
directions, a softmax of their dot products with the embeddings at
temperature 1 / kappa_ems plus the log-mixing bias.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, EmptyBatchError
from .mathcore import (
    bessel_ratio,
    estimate_kappa_clamped,
    log_sum_exp,
    log_vmf_norm_const,
    normalize_rows,
)
from .window import SlidingWindow, check_config, check_source, mixing_update

__all__ = [
    "VmfConfig",
    "PrototypeBelief",
    "VmfModel",
    "assignment_step",
    "prototype_update",
    "expected_prototype",
    "mixing_update",
    "kappa_update",
    "predict_probs",
]

_DEGENERATE_EPS = 1e-12
# Bytes of float64 per row block of the prototype update's (K, D) passes:
# a block of each operand the pass touches then stays in L2.
_BLOCK_BYTES = 256 * 1024


def _row_blocks(k: int, d: int) -> list[slice]:
    """Slices of max(1, _BLOCK_BYTES // (8 D)) rows covering K rows."""
    rows = max(1, _BLOCK_BYTES // (8 * d))
    return [slice(lo, lo + rows) for lo in range(0, k, rows)]


@dataclass
class VmfConfig:
    """Knobs for the spherical tracker.

    kappa_trans, kappa_ems and kappa0 are each one concentration shared by
    all K classes: real numbers (bools excluded), finite and >= 0. Only
    kappa_ems is learned, with learn_kappa_ems; the other two stay as set.
    """

    d: int
    k: int
    kappa_trans: float = 100.0
    kappa_ems: float = 100.0
    kappa0: float = 100.0
    window: int = 3
    e_sweeps: int = 2
    learn_kappa_ems: bool = False
    pi_floor: float = 1e-4

    def __post_init__(self):
        check_config(self, d_min=2)
        for name in ("kappa_trans", "kappa_ems", "kappa0"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not real or not 0.0 <= value < math.inf:
                raise DomainError(f"{name} must be a finite real number >= 0, got {value!r}")


@dataclass
class PrototypeBelief:
    """Variational vMF belief over the K prototype directions.

    mean_dir rows are unit vectors, conc the matching concentrations, and
    expected caches A_D(conc) * mean_dir (norm < 1).
    """

    mean_dir: np.ndarray  # (K, D)
    conc: np.ndarray      # (K,)
    expected: np.ndarray  # (K, D)

    @classmethod
    def from_params(cls, mean_dir: np.ndarray, conc: np.ndarray) -> "PrototypeBelief":
        mean_dir = np.asarray(mean_dir, dtype=float)
        conc = np.asarray(conc, dtype=float)
        return cls(mean_dir, conc, expected_prototype(mean_dir, conc, mean_dir.shape[1]))

    def copy(self, into: "PrototypeBelief | None" = None) -> "PrototypeBelief":
        """A copy in fresh arrays, or written into the arrays of `into`.

        With `into`, that belief takes this one's values and is returned,
        so whoever still holds `into` sees them change.
        """
        if into is None:
            return PrototypeBelief(self.mean_dir.copy(), self.conc.copy(), self.expected.copy())
        np.copyto(into.mean_dir, self.mean_dir)
        np.copyto(into.conc, self.conc)
        np.copyto(into.expected, self.expected)
        return into


def expected_prototype(mean_dir: np.ndarray, conc, d: int) -> np.ndarray:
    """Expected prototypes under a vMF belief: A_D(conc) * mean_dir, for
    (K, D) directions and (K,) concentrations."""
    mean_dir = np.asarray(mean_dir, dtype=float)
    return np.asarray(bessel_ratio(d, conc))[:, None] * mean_dir


def assignment_step(
    feats: np.ndarray, expected: np.ndarray, mixing: np.ndarray, kappa_ems: float
) -> np.ndarray:
    """Posterior class responsibilities for one batch.

    Log-domain: log pi_k + kappa_ems <expected_k, h>, normalized per row.
    The vMF log-normalizer log C_D(kappa_ems) is the same in every class,
    so the normalization cancels it and it is left out.
    """
    feats = np.asarray(feats, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if feats.ndim != 2 or expected.ndim != 2 or feats.shape[1] != expected.shape[1]:
        raise DimensionMismatchError(
            f"feats {feats.shape} vs prototypes {expected.shape}"
        )
    with np.errstate(invalid="ignore", over="ignore"):
        dots = feats @ expected.T
    # a NaN or infinity in either input reaches the dots of its row, so
    # this O(N K) check also covers the (N, D) batch
    if not np.isfinite(dots).all():
        raise DomainError("embeddings or prototypes contain non-finite entries")
    with np.errstate(divide="ignore"):
        logits = np.log(np.asarray(mixing, dtype=float)) + kappa_ems * dots
    return np.exp(logits - log_sum_exp(logits, axis=1)[:, None])


def prototype_update(
    belief: PrototypeBelief, total: np.ndarray, sq_norms: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Move `belief` to the update from its summed messages, in place.

    Row k of `total` (K, D) is a natural-parameter vector: the emission
    term sum_n kappa_ems resp_nk h_n plus the temporal neighbours'
    kappa * expected-direction vectors (or the initial prior's
    kappa0 * mu0). Its direction is the new mean direction and its norm
    the new concentration. A row whose messages cancel to norm <= 1e-12
    keeps its previous direction and concentration. `sq_norms` may hold
    the squared row norms of `total` (the sweep writes them as it sums
    the messages); they are computed here otherwise.

    `total` is normalized in place and becomes `belief.mean_dir`;
    `belief.expected` is rewritten in place and `belief.conc` replaced.
    Both (K, D) writes walk row blocks of about 256 KiB, so that a block
    is still in cache for its second pass; the Bessel ratio is taken once
    over all K rows. Every element sees the same operations as in a
    whole-array pass, so the block size does not change a bit of the
    result. Returns the array that was `belief.mean_dir`, free for reuse
    as the next `total`, and the number of degenerate rows.
    """
    k, d = total.shape
    if sq_norms is None:
        sq_norms = np.einsum("kd,kd->k", total, total)
    norms = np.sqrt(sq_norms)
    bad = norms <= _DEGENERATE_EPS
    degenerate = int(np.count_nonzero(bad))
    conc = norms
    if degenerate:
        total[bad] = belief.mean_dir[bad]
        conc = np.where(bad, belief.conc, norms)
        norms[bad] = 1.0
    ratio = bessel_ratio(d, conc)[:, None]
    for rows in _row_blocks(k, d):
        mean_dir, expected = total[rows], belief.expected[rows]
        mean_dir /= norms[rows, None]
        np.copyto(expected, mean_dir)
        expected *= ratio[rows]
    spare, belief.mean_dir, belief.conc = belief.mean_dir, total, conc
    return spare, degenerate


def kappa_update(
    beliefs: list[PrototypeBelief],
    resps: list[np.ndarray],
    feats: list[np.ndarray],
    d: int,
) -> float:
    """Shared emission concentration re-estimate from the window-wide resultant length.

    The resultant averages the responsibility-weighted alignments of
    embeddings with their expected prototypes over every window step. The
    estimate is one float, clamped to [1e-6, 1e6].

    beliefs, resps and feats need one entry per window step: (K, d)
    expected prototypes of one K, batches (N_t, d) and responsibilities
    (N_t, K). Anything else raises DimensionMismatchError, and a window
    without a sample EmptyBatchError.
    """
    t_len = len(beliefs)
    shape = np.shape(beliefs[0].expected) if t_len else (0, d)
    if (len(resps) != t_len or len(feats) != t_len or len(shape) != 2 or shape[1] != d
            or any(np.shape(b.expected) != shape for b in beliefs)
            or any(np.ndim(h) != 2 or np.shape(h)[1] != d or np.shape(w) != (len(h), shape[0])
                   for h, w in zip(feats, resps))):
        raise DimensionMismatchError(
            f"kappa_update needs {t_len} batches (N_t, {d}) and responsibilities "
            f"(N_t, K), one per (K, {d}) belief of one K")
    n_total = sum(len(h) for h in feats)
    if not n_total:
        raise EmptyBatchError("kappa_update needs at least one sample")
    align_sum = np.zeros(shape[0])  # per class, summed last
    for belief, resp, h in zip(beliefs, resps, feats):
        align_sum += np.sum(resp * (h @ belief.expected.T), axis=0)
    return float(estimate_kappa_clamped(abs(align_sum.sum()) / n_total, d))


def predict_probs(
    feats: np.ndarray, prototypes: np.ndarray, kappa_ems: float, mixing: np.ndarray
) -> np.ndarray:
    """Class probabilities from prototype directions: the cluster posterior
    of `assignment_step` with the prototypes' unit directions in place of
    their expected prototypes. With uniform mixing this is
    softmax(kappa_ems * W h).
    """
    return assignment_step(feats, prototypes, mixing, kappa_ems)


class VmfModel(SlidingWindow):
    """Sliding-window spherical tracker with an adapted softmax head.

    Single-writer: adapt/predict must be externally serialized per
    instance. With static=True the transition chain is dropped: the
    window holds one step whose anchor never advances from the source
    prior, so every arrival is fit as a fresh mixture anchored only at
    the source prototypes.

    The sweep rewrites the (K, D) arrays of the window's beliefs in place
    and passes them between steps as scratch space, so `prototypes`
    returns a copy: an array a caller holds is a snapshot that later
    `adapt` calls leave alone. Its elementwise (K, D) work walks row
    blocks of about 256 KiB (see `coordinate_ascent_sweep`), which gives
    the same bits as whole-array passes. A new step takes the arrays of
    the belief that leaves the model at that push (the retired anchor,
    or with static=True the evicted step's belief, never the source
    prior), so once the prior has left the anchor, pushes allocate no
    belief storage.
    """

    def __init__(self, source_weights: np.ndarray, config: VmfConfig, static: bool = False):
        source_weights = check_source(source_weights, config)
        if config.k < 2:
            raise DomainError("the tracker needs K >= 2 classes")
        self.static = static
        self.source_prototypes = normalize_rows(source_weights)

        k = config.k
        self._kappa_trans = float(config.kappa_trans)
        self._kappa_ems = float(config.kappa_ems)
        self._kappa0 = float(config.kappa0)
        super().__init__(
            config,
            PrototypeBelief.from_params(self.source_prototypes.copy(), np.full(k, self._kappa0)),
            window=1 if static else config.window,
            fixed_anchor=static,
        )
        self.degenerate_updates = 0
        self._total = np.empty((k, config.d))  # the sweep's message buffer
        self._sq_norms = np.empty(k)           # its squared row norms

    # -- public views ----------------------------------------------------

    @property
    def prototypes(self) -> np.ndarray:
        """Current adapted weight rows (unit directions, newest step).

        A snapshot: the sweep reuses the arrays it updates in place.
        """
        return self._newest().belief.mean_dir.copy()

    @property
    def kappa_trans(self) -> float:
        return self._kappa_trans

    @property
    def kappa_ems(self) -> float:
        return self._kappa_ems

    # -- adaptation ------------------------------------------------------

    def _sweep(self) -> None:
        self.coordinate_ascent_sweep()

    def _reestimate(self) -> None:
        """Mixing weights of every window step, then the learned emission concentration."""
        cfg = self.config
        for s in self._steps:
            s.mixing = mixing_update(s.resp, cfg.pi_floor)
        if cfg.learn_kappa_ems:
            self._kappa_ems = kappa_update(
                [s.belief for s in self._steps],
                [s.resp for s in self._steps],
                [s.feats for s in self._steps],
                cfg.d,
            )

    def coordinate_ascent_sweep(self) -> None:
        """One left-to-right pass of assignment + prototype updates.

        Each update is the exact coordinate maximizer of the window
        objective given its neighbours, so repeated sweeps with fixed
        concentrations never decrease the evidence lower bound.

        The updates allocate no (K, D) array. The emission term is one
        matmul into a buffer the model owns (`_total`). Then a walk over
        row blocks of about 256 KiB builds the anchor or neighbour message
        in the step's own expected prototype (free until its update
        rewrites it) by a copy and in-place adds and scales, adds it to
        the buffer and writes the block's squared row norms, all while the
        block is in cache. `prototype_update` makes the second walk; the
        buffer becomes the step's mean direction, and the replaced mean
        direction the next buffer. Each element sees the same operations
        in the same order as in a whole-array pass, so the results do not
        depend on the block size. Raises NotAdaptedError before the first
        `adapt`.
        """
        self._newest()
        cfg = self.config
        steps = self._steps
        kappa_trans = self._kappa_trans
        blocks = _row_blocks(cfg.k, cfg.d)
        sq_norms = self._sq_norms
        for i, step in enumerate(steps):
            belief = step.belief
            step.resp = assignment_step(step.feats, belief.expected, step.mixing, self._kappa_ems)
            total = np.matmul((step.resp * self._kappa_ems).T, step.feats, out=self._total)
            if i == 0:
                scale, left = self._anchor_message()
            else:
                scale, left = kappa_trans, steps[i - 1].belief.expected
            right = steps[i + 1].belief.expected if i + 1 < len(steps) else None
            # with both neighbours on kappa_trans, scale their sum once; the
            # source prior sends kappa0 * mu0 on its own, even when kappa0
            # equals kappa_trans
            summed = right is not None and (i > 0 or self._anchor is not self._prior)
            for rows in blocks:
                msg, block = belief.expected[rows], total[rows]
                np.copyto(msg, left[rows])
                if summed:
                    msg += right[rows]
                    msg *= kappa_trans
                else:
                    msg *= scale
                    if right is not None:
                        block += msg
                        np.copyto(msg, right[rows])
                        msg *= kappa_trans
                block += msg
                np.einsum("kd,kd->k", block, block, out=sq_norms[rows])
            self._total, degenerate = prototype_update(belief, total, sq_norms)
            self.degenerate_updates += degenerate

    def _anchor_message(self) -> tuple[float, np.ndarray]:
        """Natural-parameter message the left boundary receives, as (scale, direction).

        The message is scale * direction. The initial prior contributes
        kappa0 * mu0 exactly; a frozen evicted belief contributes
        kappa_trans * (expected direction), i.e. it is treated as one more
        fixed vMF neighbour.
        """
        if self._anchor is self._prior:
            return self._kappa0, self._anchor.mean_dir
        return self._kappa_trans, self._anchor.expected

    # -- prediction and diagnostics ---------------------------------------

    def predict(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class probabilities and argmax labels for a batch."""
        newest = self._newest()
        probs = predict_probs(
            self._unit_batch(feats), newest.belief.mean_dir, self._kappa_ems, newest.mixing
        )
        return probs, probs.argmax(axis=1)

    def window_elbo(self) -> float:
        """Evidence lower bound of the current window state.

        Expected complete-data log density (anchor prior, emissions,
        within-window transitions) plus the entropies of the vMF beliefs
        and the categorical assignments.
        """
        self._newest()  # raises NotAdaptedError before the first step
        d, k = self.config.d, self.config.k
        total = 0.0
        steps = self._steps

        # K vMF factors per transition, each with the shared concentration
        scale, direction = self._anchor_message()
        total += k * float(log_vmf_norm_const(d, scale))
        total += scale * float(np.sum(direction * steps[0].belief.expected))
        for prev, cur in zip(steps, steps[1:]):
            total += k * float(log_vmf_norm_const(d, self._kappa_trans))
            total += self._kappa_trans * float(np.sum(prev.belief.expected * cur.belief.expected))

        for s in steps:
            align = s.feats @ s.belief.expected.T  # (N, K)
            with np.errstate(divide="ignore"):
                log_pi = np.log(s.mixing)
            per_class_ll = (
                log_pi + log_vmf_norm_const(d, self._kappa_ems) + self._kappa_ems * align
            )
            # a class of mixing weight 0 has -inf here and responsibility 0,
            # and contributes 0
            total += float(np.sum(np.multiply(s.resp, per_class_ll, where=s.resp > 0.0,
                                              out=np.zeros_like(per_class_ll))))
            # categorical entropy, 0 log 0 := 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ent = -np.where(s.resp > 0.0, s.resp * np.log(s.resp), 0.0)
            total += float(np.sum(ent))
            # vMF belief entropy: -log C_D(gamma) - gamma A_D(gamma)
            gamma = s.belief.conc
            total += float(
                np.sum(-log_vmf_norm_const(d, gamma) - gamma * bessel_ratio(d, gamma))
            )
        return total
