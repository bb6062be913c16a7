"""Hyperspherical state-space mixture tracking drifting class prototypes.

Each class k owns a latent prototype direction on the unit sphere that
drifts over time steps through a vMF transition kernel. The chain starts
at the source head, and one concentration kappa_trans weights each of its
links, the one from the source head into the first step too. Observed unit
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

A belief stores its unit mean directions as one (K, D) array and its
concentrations and their Bessel ratios A_D(conc) as (K,) vectors. The
expected prototypes A_D(conc_k) m_k are never formed: the assignment
step, the transition messages, the concentration re-estimate and the
ELBO scale their dot products or message rows by class instead. A
prototype update is summed in the frame of its left message: a positive
row scale moves no direction and scales the concentration with it, so the
left mean direction enters unscaled and one in-place GEMM adds the
emission term to it.

The (N, K) products of a batch's unit embeddings with the K prototype
directions are the one data input of the assignment step, the head
(`predict_probs`) and the concentration re-estimate (`kappa_update`), and
each checks them. The model forms them in two places: a step's products
feats @ mean_dir.T once per position of its belief (`VmfModel._products`),
kept as the step's `products`, which the sweep's assignment, the
concentration re-estimate, `window_elbo` and the head on the adapted
batch all read; and in the head (`VmfModel._head`), those of a batch it
has not adapted on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import DimensionMismatchError, DomainError, check_int, check_real
# log_sum_exp is unused here; it stays importable because bench/tracing.py rebinds it
from .mathcore import (  # noqa: F401
    _float_array,
    _nonnegative,
    bessel_ratio,
    estimate_kappa_clamped,
    log_sum_exp,
    log_vmf_norm_const,
    normalize_rows,
)
from .window import (SlidingWindow, check_batches, check_config, check_source, mixing_update,
                     softmax_rows)

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
# A row of a sweep update takes its left message's scale as its frame only
# while that scale exceeds this fraction of kappa_ems + kappa_trans, which
# keeps the framed emission and right-message scales below 1e100.
_FRAME_MIN = 1e-100
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

    kappa_trans and kappa_ems are each one concentration shared by all K
    classes: real numbers (bools excluded), finite and >= 0. kappa_trans
    weights every link of the transition chain, the link from the source
    head into the first window step included. Only kappa_ems is learned,
    with learn_kappa_ems; kappa_trans stays as set.
    """

    d: int
    k: int
    kappa_trans: float = 100.0
    kappa_ems: float = 100.0
    window: int = 3
    e_sweeps: int = 2
    learn_kappa_ems: bool = False
    pi_floor: float = 1e-4

    def __post_init__(self):
        check_config(self, d_min=2)
        for name in ("kappa_trans", "kappa_ems"):
            check_real(name, getattr(self, name), 0.0)


@dataclass
class PrototypeBelief:
    """Variational vMF belief over the K prototype directions.

    mean_dir rows are unit vectors, conc the matching concentrations and
    ratio their Bessel ratios A_D(conc). The expected prototypes are
    ratio[:, None] * mean_dir (norm < 1); that (K, D) product is not
    stored, since its users can scale by class for O(K) or O(N K) work.
    """

    mean_dir: np.ndarray  # (K, D)
    conc: np.ndarray      # (K,)
    ratio: np.ndarray     # (K,), A_D(conc)

    @classmethod
    def from_params(cls, mean_dir: np.ndarray, conc: np.ndarray) -> "PrototypeBelief":
        """The belief with these (K, D) directions and (K,) concentrations;
        mean_dir is kept, not copied, when it is already a float array.
        Other shapes raise DimensionMismatchError."""
        mean_dir = _float_array(mean_dir, "mean directions")
        conc = _float_array(conc, "concentrations")
        if mean_dir.ndim != 2 or conc.shape != mean_dir.shape[:1]:
            raise DimensionMismatchError(f"beliefs need (K, D) mean directions and (K,) "
                                         f"concentrations, got {mean_dir.shape} and {conc.shape}")
        return cls(mean_dir, conc, bessel_ratio(mean_dir.shape[1], conc))

    def copy(self) -> "PrototypeBelief":
        """A copy in fresh arrays."""
        return PrototypeBelief(self.mean_dir.copy(), self.conc.copy(), self.ratio.copy())


def expected_prototype(mean_dir: np.ndarray, conc, d: int) -> np.ndarray:
    """Expected prototypes under a vMF belief: A_D(conc) * mean_dir, for
    (K, D) directions and (K,) concentrations."""
    mean_dir = _float_array(mean_dir, "mean directions")
    return np.asarray(bessel_ratio(d, conc))[:, None] * mean_dir


def assignment_step(dots: np.ndarray, mixing: np.ndarray, kappa) -> np.ndarray:
    """Posterior class responsibilities for one batch, from its (N, K)
    products dots = feats @ prototypes.T with the K prototype rows.

    Log-domain: the logits log pi_k + kappa_k dots_nk, normalized per row
    by `window.softmax_rows`. dots is (N, K), mixing (K,), and kappa one
    concentration for every class (a float) or one per class (K,);
    anything else raises DimensionMismatchError, and a concentration that
    is not a finite real number >= 0 (a bool too) DomainError, both before
    any O(N K) work. Products or mixing weights that do not convert to a
    float array, and a product that is not finite, raise DomainError, and
    so does a row whose logits have no finite max: mixing weights that are
    negative, NaN or all 0, or a concentration times a product beyond the
    float range. Products of no row raise EmptyInputError. The sweep passes the
    products with the unit mean directions and kappa_ems * A_D(conc),
    which gives kappa_ems times the dots with the expected prototypes. The
    vMF log-normalizer log C_D(kappa_ems) is the same in every class, so
    the normalization cancels it and it is left out.
    """
    dots = _float_array(dots, "products")
    mixing = _float_array(mixing, "mixing weights")
    if (dots.ndim != 2 or mixing.shape != dots.shape[1:]
            or np.shape(kappa) not in ((), mixing.shape)):
        raise DimensionMismatchError(f"products {dots.shape}, mixing {mixing.shape} and "
                                     f"concentration {np.shape(kappa)} do not match")
    if np.ndim(kappa):
        kappa = _nonnegative(kappa, "the concentration")[0]
    else:  # a 0-d array is checked as the number it holds
        check_real("the concentration", kappa[()] if isinstance(kappa, np.ndarray) else kappa, 0.0)
    if not np.isfinite(dots).all():
        raise DomainError("products contain non-finite entries")
    # a bad mixing weight or an overflow leaves its row without a finite
    # max, which softmax_rows checks
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logits = np.log(mixing) + kappa * dots
    return softmax_rows(logits)


def prototype_update(
    belief: PrototypeBelief, total: np.ndarray, messages=(), frame=None
) -> tuple[np.ndarray, int]:
    """Move `belief` to the update from its summed messages, in place.

    Row k of the natural parameter is frame_k times row k of `total`
    (K, D) plus scale_k * direction_k for each (scale, direction) of
    `messages`: (K,) scales and (K, D) unit directions, all in units of
    the (K,) positive `frame` (ones when None). The sweep frames each
    update by its left message, so that `total` starts as that message's
    mean direction (see `VmfModel.coordinate_ascent_sweep`). A positive
    row scale leaves a row's direction as it is and scales its norm, so
    the new mean direction is the row's direction and the new
    concentration frame_k times its norm. A row whose concentration would
    be <= 1e-12 keeps its previous direction and concentration. A `total`
    of another shape than `belief.mean_dir` raises DimensionMismatchError.

    One walk over row blocks of about 256 KiB adds the messages to
    `total` in place, takes the block's row norms and divides its rows by
    them while the block is in cache: with one message that is 4 (K, D)
    passes. The concentrations and their Bessel ratios are then taken
    once over all K rows. Every element sees the same operations as in a
    whole-array pass, so the block size does not change a bit of the
    result. `total` becomes `belief.mean_dir`, and `belief.conc` and
    `belief.ratio` are replaced. Returns the array that was
    `belief.mean_dir`, free for reuse as the next `total`, and the number
    of degenerate rows.
    """
    if np.shape(total) != belief.mean_dir.shape:
        raise DimensionMismatchError(f"total {np.shape(total)} for {belief.mean_dir.shape} beliefs")
    k, d = total.shape
    blocks = _row_blocks(k, d)
    scratch = np.empty((min(k, blocks[0].stop), d))
    conc = np.empty(k)
    # a zero row divides 0 by 0 here; it is degenerate and restored below
    with np.errstate(invalid="ignore", divide="ignore"):
        for rows in blocks:
            block = total[rows]
            for scale, direction in messages:
                # each element times its row's scale: the bits of a broadcast
                # multiply in about 0.6-0.75 of its time
                block += np.einsum("kd,k->kd", direction[rows], scale[rows],
                                   out=scratch[:len(block)])
            norms = np.sqrt(np.einsum("kd,kd->k", block, block), out=conc[rows])
            block /= norms[:, None]
    if frame is not None:
        conc *= frame
    bad = conc <= _DEGENERATE_EPS
    degenerate = int(np.count_nonzero(bad))
    if degenerate:
        total[bad] = belief.mean_dir[bad]
        conc[bad] = belief.conc[bad]
    spare = belief.mean_dir
    belief.mean_dir, belief.conc, belief.ratio = total, conc, bessel_ratio(d, conc)
    return spare, degenerate


def kappa_update(
    beliefs: list[PrototypeBelief], resps: list[np.ndarray], dots: list[np.ndarray], d: int
) -> float:
    """Shared emission concentration re-estimate from the window-wide resultant length.

    The resultant averages the responsibility-weighted alignments of
    embeddings with their expected prototypes over every window step;
    each class's summed products with its mean direction are scaled by its
    A_D(conc). The estimate is one float, clamped to [1e-6, 1e6].

    beliefs, resps and dots need one entry per window step: beliefs over
    (K, d) directions of one K, responsibilities (N_t, K) and the (N_t, K)
    products feats_t @ mean_dir_t.T of the step's unit embeddings with its
    mean directions. An entry that does not convert to a float array
    raises DomainError, anything else DimensionMismatchError, and a window
    without a sample EmptyBatchError.
    """
    shape = np.shape(beliefs[0].mean_dir) if beliefs else (0, d)
    if len(shape) != 2 or shape[1] != d or any(np.shape(b.mean_dir) != shape for b in beliefs):
        raise DimensionMismatchError(f"kappa_update needs (K, {d}) beliefs of one K")
    k = shape[0]
    dots, resps, n_total = check_batches(dots, resps, len(beliefs), k, k, "kappa_update")
    align_sum = np.zeros(k)  # per class, summed last
    for belief, resp, dot in zip(beliefs, resps, dots):
        align_sum += np.sum(resp * dot, axis=0) * belief.ratio
    return float(estimate_kappa_clamped(abs(align_sum.sum()) / n_total, d))


def predict_probs(dots: np.ndarray, kappa_ems: float, mixing: np.ndarray) -> np.ndarray:
    """Class probabilities from the (N, K) products dots = feats @ W.T of
    unit embeddings with the prototypes' unit directions W: the cluster
    posterior of `assignment_step`, whose checks it shares, at the one
    concentration kappa_ems in every class. With uniform mixing this is
    softmax(kappa_ems * W h).
    """
    return assignment_step(dots, mixing, kappa_ems)


class VmfModel(SlidingWindow):
    """Sliding-window spherical tracker with an adapted softmax head.

    Single-writer: adapt/predict must be externally serialized per
    instance. With static=True, the window engine's one `static` flag,
    the transition chain is dropped: the window holds one step whose
    anchor never advances from the source prior, so every arrival is fit
    as a fresh mixture anchored only at the source prototypes, through
    the one link from the source head, of concentration kappa_trans.

    The sweep passes the replaced mean direction of each update on as the
    next update's message buffer, so `prototypes` returns a copy: an array
    a caller holds is a snapshot that later `adapt` calls leave alone.
    Each update copies the left mean direction into the message buffer,
    adds the emission with one BLAS GEMM in place, and walks row blocks of
    about 256 KiB for the rest (see `prototype_update`), which gives the
    same bits as whole-array passes. A new step starts from a fresh copy
    of the newest belief, and a belief that leaves the model is dropped,
    so an anchor keeps its values for good. The source prior's mean
    direction is `source_prototypes` itself, made read-only. A full window
    thus holds window + 3 (K, D) arrays: one per step, the anchor's, the
    sweep's message buffer and `source_prototypes`; with static=True,
    whose anchor is the prior, 3.

    Each step keeps its (N, K) products with its mean directions as
    `step.products` (formed by `_products`) until its belief moves: the
    sweep sets them back to None after each update, a push starts the new
    step without them, and a subclass that assigns `step.belief` sets them
    to None too. So a step forms them once per sweep that moves it, the
    concentration re-estimate reads the last sweep's, the next `adapt`'s
    first sweep reads them again for the steps it keeps, and `predict` on
    the batch just adapted reads the newest step's. Once the window is
    full, `adapt` and then `predict` on the same batch, at window 3 and 2
    sweeps, form 7 products with learn_kappa_ems and 6 without, against 10
    and 7 if each user formed its own.

    `predict` is the window engine's, and the head is this tracker's
    `_head`: `predict_probs` on the newest step's mean directions and
    mixing at kappa_ems. The engine hands it the step's own unit rows for
    the batch just adapted on, whose products it reads; on any other
    batch it forms that batch's products with the newest mean directions
    itself, and keeps nothing.
    """

    def __init__(self, source_weights: np.ndarray, config: VmfConfig, static: bool = False):
        source_weights = check_source(source_weights, config)
        check_int("k", config.k, 2)  # the tracker needs two classes
        self.source_prototypes = normalize_rows(source_weights)
        self.source_prototypes.flags.writeable = False

        k = config.k
        self._kappa_trans = float(config.kappa_trans)
        self._kappa_ems = float(config.kappa_ems)
        super().__init__(
            config,
            PrototypeBelief.from_params(self.source_prototypes, np.full(k, self._kappa_trans)),
            static=static,
        )
        self.degenerate_updates = 0
        self._total = np.empty((k, config.d))  # the sweep's message buffer

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
                [self._products(s) for s in self._steps],
                cfg.d,
            )

    @staticmethod
    def _products(step) -> np.ndarray:
        """The (N, K) products feats @ mean_dir.T of a step's unit rows with
        its mean directions: formed here when `step.products` is None, the
        one place they are formed, and kept there until its belief moves."""
        if step.products is None:
            step.products = step.feats @ step.belief.mean_dir.T
        return step.products

    def coordinate_ascent_sweep(self) -> None:
        """One left-to-right pass of assignment + prototype updates.

        Each update is the exact coordinate maximizer of the window
        objective given its neighbours, so repeated sweeps with fixed
        concentrations never decrease the evidence lower bound.

        The updates allocate no (K, D) array. The assignment step scales
        the step's products with its mean directions (`_products`) by
        kappa_ems * A_D(conc), and the update sets them back to None.
        Each update then runs in the frame of its left message, whose row
        scales lambda_k are kappa_trans from the source prior (the link
        from the source head) or kappa_trans * A_D(conc) from the left step
        or an evicted anchor: the left mean direction is copied into a
        buffer the model owns (`_total`), one GEMM adds (kappa_ems /
        lambda) resp^T feats into it in place, and `prototype_update` adds
        the right neighbour's mean direction scaled by its kappa_trans *
        A_D(conc) / lambda and normalizes the rows in one walk over row
        blocks. A row whose lambda is 0, or so small that its framed rows
        could overflow, takes lambda = 1 with its scaled left row. The
        buffer becomes the step's mean direction, and the replaced mean
        direction the next buffer. Raises NotAdaptedError before the first
        `adapt`.
        """
        self._newest()
        steps = self._steps
        kappa_ems = self._kappa_ems
        # framed rows stay below about N * 1e100, so their squared norms are finite
        floor = (kappa_ems + self._kappa_trans) * _FRAME_MIN
        for i, step in enumerate(steps):
            belief = step.belief
            step.resp = assignment_step(self._products(step), step.mixing, kappa_ems * belief.ratio)
            scale, direction = self._left_message(i)
            total = self._total
            np.copyto(total, direction)
            if not scale.min() > floor:
                framed = scale > floor
                total[~framed] *= scale[~framed, None]
                scale = np.where(framed, scale, 1.0)
            # C <- feats^T (resp * kappa_ems / lambda) + C on the transposed,
            # F-ordered view of the buffer, which BLAS writes in place
            dgemm(1.0, step.feats.T, (step.resp * (kappa_ems / scale)).T, beta=1.0,
                  c=total.T, trans_b=True, overwrite_c=True)
            messages = []
            if i + 1 < len(steps):
                right, right_dir = self._message(steps[i + 1].belief)
                messages.append((right / scale, right_dir))
            self._total, degenerate = prototype_update(belief, total, messages, scale)
            step.products = None
            self.degenerate_updates += degenerate

    def _message(self, belief: PrototypeBelief) -> tuple[np.ndarray, np.ndarray]:
        """A neighbour's natural-parameter message, as ((K,) scale, (K, D)
        direction): kappa_trans times its expected prototypes."""
        return self._kappa_trans * belief.ratio, belief.mean_dir

    def _left_message(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The natural-parameter message window step i receives from its
        left, as ((K,) scale, (K, D) direction): the one rule of the sweep
        and `window_elbo`.

        Step i > 0 gets its left step's `_message`. Step 0 gets the
        anchor's. The source head is the chain's first link: the source
        prior sends kappa_trans * mu0 exactly (its conc is kappa_trans in
        every class), the same concentration as every later link. A frozen
        evicted belief is treated as one more fixed vMF neighbour.
        """
        if i:
            return self._message(self._steps[i - 1].belief)
        if self._anchor is self._prior:
            return self._prior.conc, self._prior.mean_dir
        return self._message(self._anchor)

    # -- prediction and diagnostics ---------------------------------------

    def _head(self, step, unit: np.ndarray) -> np.ndarray:
        """`predict_probs` of the unit rows on the step's mean directions and
        mixing, at kappa_ems. When `unit` is the step's own rows, which
        `SlidingWindow.predict` hands over for the batch just adapted on,
        the step's products are read (`_products`), with the same bits as
        multiplying again."""
        dots = self._products(step) if unit is step.feats else unit @ step.belief.mean_dir.T
        return predict_probs(dots, self._kappa_ems, step.mixing)

    def window_elbo(self) -> float:
        """Evidence lower bound of the current window state.

        Expected complete-data log density (every link of the chain, from
        the anchor into the first step and between steps, and the
        emissions) plus the entropies of the vMF beliefs and the
        categorical assignments. The links take their left messages from
        `_left_message`, the sweep's rule; log C_D(kappa_trans) and
        log C_D(kappa_ems) are formed once per call, and each step's
        emission term and categorical entropy are summed in one masked
        pass over its responsibilities.
        """
        self._newest()  # raises NotAdaptedError before the first step
        d, k = self.config.d, self.config.k
        total = 0.0
        link_norm = k * float(log_vmf_norm_const(d, self._kappa_trans))
        ems_norm = float(log_vmf_norm_const(d, self._kappa_ems))
        for i, s in enumerate(self._steps):
            # the link into this step, K vMF factors at kappa_trans: its left
            # message (scale, direction) dotted with the expected prototypes
            # is scale * A_D(conc) m . direction per class
            scale, direction = self._left_message(i)
            total += link_norm + float(np.sum(
                scale * s.belief.ratio * np.einsum("kd,kd->k", direction, s.belief.mean_dir)))
            # r (log pi + log C_D(kappa_ems) + kappa_ems A_D(conc) dots - log r):
            # a class of responsibility 0 contributes 0 (0 log 0 := 0), the
            # -inf of a mixing weight 0 among them
            with np.errstate(divide="ignore", invalid="ignore"):
                per_class = (np.log(s.mixing) + ems_norm
                             + self._kappa_ems * (self._products(s) * s.belief.ratio)
                             - np.log(s.resp))
            total += float(np.sum(np.multiply(s.resp, per_class, where=s.resp > 0.0,
                                              out=np.zeros_like(per_class))))
            # vMF belief entropy: -log C_D(gamma) - gamma A_D(gamma)
            gamma = s.belief.conc
            total += float(np.sum(-log_vmf_norm_const(d, gamma) - gamma * s.belief.ratio))
        return total
