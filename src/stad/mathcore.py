"""Numerically stable special functions and sphere geometry.

Everything the trackers need from directional statistics lives here: the
log modified Bessel function of the first kind, the Bessel ratio
A_D(kappa) = I_{D/2}(kappa) / I_{D/2-1}(kappa), the log normalizer of the
von Mises-Fisher density, the closed-form concentration estimate from a
mean resultant length, and small vector helpers (row normalization,
log-sum-exp).

All functions are pure and accept scalars or arrays for the concentration
argument. A dimension D and a Bessel order lie in the package's one size
domain, at most `errors.MAX_SIZE`; beyond it they raise DomainError. An
argument is bounded only by the float range, and within the domain
log I and log C_D are finite at every finite argument. `log_bessel_i`
takes scipy's scaled Bessel `ive` wherever it lies in [1e-280, 1/2] and
recomputes the rest, where `ive` underflows or log(ive) + x would
cancel, from the uniform large-order expansion or nine terms of the
ascending series. Against mpmath it stays within 1e-14 of
max(|log I|, 1) for orders up to ~1024 (embedding dimension ~2048) and
arguments from 1e-300 to 1e6, and at order 0 within 2e-15 of log I_0(x)
itself, which is ~x^2/4 at small x. `bessel_ratio` evaluates no Bessel
function: it runs the Gauss continued fraction (kappa <= D) or Perron's
(kappa > D) backward from bracketing start values until the two runs
agree, which holds it to about an ulp for any finite kappa.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import ive

__all__ = [
    "log_bessel_i",
    "bessel_ratio",
    "log_vmf_norm_const",
    "estimate_kappa",
    "estimate_kappa_clamped",
    "normalize_rows",
    "log_sum_exp",
    "KAPPA_MIN",
    "KAPPA_MAX",
]

from .errors import (MAX_SIZE, DimensionMismatchError, DomainError, EmptyInputError,
                     ZeroVectorError, check_int, check_real)

_FLOAT64 = np.dtype(np.float64)  # what `_float_array` converts to unless told otherwise
_BOOL = np.dtype(bool)
# Clamp range for estimated concentrations, and the domain of configured ones
# (`vmf.VmfConfig`); keeps downstream exponentials finite.
KAPPA_MIN = 1e-6
KAPPA_MAX = 1e6

_R_BAR_MIN = 1e-12
_R_BAR_MAX = 1.0 - 1e-8

# Where `ive` is not taken, the uniform expansion takes over from this order
# on; below it `ive` underflows only at arguments under ~1e-19 and exceeds
# 1/2 only under 0.88, where nine terms of the series are exact.
_UNIFORM_ORDER_MIN = 14.0
# Range of `ive` values taken as they are. AMOS flushes to 0 some way above
# the float range's end, and above 1/2 log(ive) + arg cancels.
_IVE_MIN = 1e-280
_IVE_MAX = 0.5
# Largest argument handed to scipy's `ive`, which answers NaN above 2**30.
_IVE_ARG_MAX = 1e9
# The Bessel ratio's two bracketing runs must agree to this relative width;
# the depth cap only guards the doubling loop (kappa <= D needs < 40 steps,
# Perron's fraction above it < 60).
_RATIO_TOL = np.finfo(np.float64).eps
_RATIO_DEPTH_MAX = 1 << 12


def _float_array(values, what: str, dtype=_FLOAT64, shape=None) -> np.ndarray:
    """values as an array of `dtype`, checked against `shape`: the one
    conversion of every outside array.

    DomainError naming `what` if they do not convert (a string, a ragged
    nesting, an int beyond the float range, ...), are complex, which numpy
    would cast by dropping the imaginary parts, or are boolean, which numpy
    would cast to 0 and 1, the rule `errors.check_real` keeps for a scalar.
    An ndarray's dtype is read as it is, and one of `dtype` already is
    returned as it is; anything else is first converted as numpy reads it,
    so a complex array nested in a list, or a bool scalar, shows, and a
    list or tuple is searched for a bool or a bool array at any depth,
    which numpy would cast beside a float. `shape`
    is a tuple of axis sizes, None for any size; a wrong number of axes or
    a wrong fixed size raises DimensionMismatchError naming `what`."""
    try:
        arr = values if type(values) is np.ndarray else np.asarray(values)
        given = arr.dtype if arr is values or not _nests_bool(values) else _BOOL
        if given is not dtype and given.kind not in "bc":
            arr = np.asarray(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must convert to an array of real numbers") from exc
    if given is not dtype and given.kind in "bc":
        raise DomainError(f"{what} must be real numbers, got {given}")
    if shape is not None:
        got = arr.shape
        # an index loop, and only where the sizes differ: a zip or a generator
        # over the axes costs more than the ndim and shape predicates it replaced
        if got != shape:
            fits = len(got) == len(shape)
            i = 0
            while fits and i < len(got):
                fits = shape[i] is None or got[i] == shape[i]
                i += 1
            if not fits:
                raise DimensionMismatchError(f"{what} must have shape {shape} (None: any size), "
                                             f"got {got}")
    return arr


def _nests_bool(values) -> bool:
    """Whether values is a list or tuple that holds a bool or a bool array
    at any depth; an array in it is read by its dtype, never entry by
    entry. A loop, not `any` over a generator, which takes twice as long
    on the lists of arrays that the Gauss sweep passes on every step."""
    if isinstance(values, (list, tuple)):
        for v in values:
            if (v.dtype.kind == "b" if isinstance(v, np.ndarray)
                    else isinstance(v, (bool, np.bool_)) or _nests_bool(v)):
                return True
    return False


def _nonnegative(values, what: str, below: float = math.inf, shape=None) -> tuple[np.ndarray, bool]:
    """values as a float64 array of at least one dimension, and whether
    they were a scalar; DomainError unless they convert by the rule of
    `_float_array` (so a bool or a bool array is refused, as
    `errors.check_real` refuses a bool) and every entry is finite, >= 0
    and < below, and DimensionMismatchError unless they have `shape`, when
    given. A scalar and an array of any shape take this one check."""
    arr = _float_array(values, what, shape=shape)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # NaN fails both comparisons
    if not (0.0 <= arr.min(initial=0.0) and arr.max(initial=0.0) < below):
        raise DomainError(f"{what} must be finite and lie in [0, {below:g})")
    return arr, scalar


def _log_i_series(order: float, arg: np.ndarray) -> np.ndarray:
    """Ascending series (A&S 9.6.10) to its ninth term,
    v log(x/2) - lgamma(v+1) + log1p(sum_{m=1..8} y^m / (m! (v+1)_m)) with
    y = (x/2)^2, the sum nested so that no term is lost to the leading 1.

    `log_bessel_i` calls it only below order 14, where `ive` underflows
    (x < ~1e-19) or exceeds 1/2 (x < 0.88, at orders below ~0.3). There
    y < 0.2, and the terms left out are below 1e-16 of the sum's tail.
    """
    y = 0.25 * arg * arg
    tail = np.zeros_like(arg)
    for m in range(8, 0, -1):
        tail = y / (m * (order + m)) * (1.0 + tail)
    return order * (np.log(arg) - math.log(2.0)) - math.lgamma(order + 1.0) + np.log1p(tail)


@functools.cache
def _debye_polynomials() -> tuple[Polynomial, ...]:
    """The Debye polynomials u_1 ... u_6 of the uniform expansion.

    Built once from u_0 = 1 and (A&S 9.3.10; DLMF 10.41.10)
    u_{k+1}(t) = 1/2 t^2 (1 - t^2) u_k'(t) + 1/8 int_0^t (1 - 5 s^2) u_k(s) ds.
    """
    lift = Polynomial([0.0, 0.0, 0.5, 0.0, -0.5])
    weight = Polynomial([1.0, 0.0, -5.0]) / 8.0
    terms = [Polynomial([1.0])]
    for _ in range(6):
        terms.append(lift * terms[-1].deriv() + (weight * terms[-1]).integ())
    return tuple(terms[1:])


def _log_i_uniform(order: float, arg: np.ndarray) -> np.ndarray:
    """Uniform large-order asymptotic expansion (Abramowitz-Stegun 9.7.7).

    The lead, order * eta with eta = root + log(z / (1 + root)),
    z = arg / order and root = sqrt(1 + z^2), is formed as
    hypot(order, arg) + order (log(arg) - log(order) - log1p(root)). Its
    log z stays exact where z is subnormal or 0, and its first term stays
    finite up to the largest argument, where order * root would round
    past it; log I_v(x) < x, so the sum never lies above the float range.
    At orders up to MAX_SIZE the second term lies within ~1.3e10 of 0 at
    any positive argument, so the value is finite there. The
    correction, the sum of u_k(t) / order^k over the Debye polynomials
    u_1 ... u_6 at t = 1 / root, is nested in powers of 1/order.
    """
    root = np.hypot(1.0, arg / order)
    log_order = math.log(order)
    correction = 0.0
    for u in reversed(_debye_polynomials()):
        correction = (correction + u(1.0 / root)) / order
    return (
        np.hypot(order, arg) + order * (np.log(arg) - log_order - np.log1p(root))
        - 0.5 * (math.log(2.0 * math.pi) + log_order)
        - 0.5 * np.log(root)
        + np.log1p(correction)
    )


def _log_i_hankel(order: float, arg: np.ndarray) -> np.ndarray:
    """log I_order(arg) = log(ive) + arg, from scipy's exponentially scaled
    Bessel function; NaN where `ive` is below 1e-280, above 1/2 or NaN,
    and past 1e9 at orders >= 14.

    This is the main branch: `log_bessel_i` sends every positive argument
    here and recomputes only the NaN entries. Above 1/2, log(ive) and arg
    nearly cancel, and the rounding of `ive` near 1 swamps a log I close to
    0. `ive` answers NaN past 2**30, the argument limit of its AMOS code.
    Below order 14 the value is carried on from 1e9 by the first two terms
    of Hankel's expansion (A&S 9.7.1), log ive = -log(2 pi arg) / 2 +
    (1/4 - order^2) / (2 arg) + O(arg^-2), to within 1e-14 absolute, and
    formed so that neither a subnormal arg nor one past 1e9 overflows. The
    name is that of the expansion this branch once summed in full; it
    stays because the bench tracer looks the branch up by name to time it
    as `mathcore.bessel.hankel`.
    """
    near = np.minimum(arg, _IVE_ARG_MAX)
    scaled = ive(order, near)
    kept = (_IVE_MIN <= scaled) & (scaled <= _IVE_MAX)  # NaN fails both
    out = np.log(np.where(kept, scaled, np.nan)) + arg
    if order >= _UNIFORM_ORDER_MIN:
        out[arg > near] = np.nan
    else:  # Hankel's carry, exactly 0 at or below 1e9
        out += (order * order - 0.25) / 2.0 * (1.0 - near / arg) / near - 0.5 * np.log(arg / near)
    return out


def log_bessel_i(order: float, arg: float | np.ndarray):
    """log I_order(arg) for order >= 0 and arg >= 0.

    Branches: scipy's scaled `ive` with Hankel's carry past 1e9
    (`_log_i_hankel`) for every positive argument; where `ive` underflows,
    exceeds 1/2 (log(ive) + arg would cancel) or, from order 14 on, past
    1e9, the uniform large-order expansion with the Debye polynomials
    u_1 ... u_6 for orders >= 14, and nine terms of the ascending series
    below. Returns -inf where I vanishes (arg == 0 with order > 0), and a
    finite value at every finite positive argument.

    An order that is not a real number in [0, MAX_SIZE] (bools excluded),
    or an argument that does not convert to finite floats >= 0, raises
    DomainError.
    """
    check_real("Bessel order", order, 0.0, MAX_SIZE)
    order = float(order)
    arr, scalar = _nonnegative(arg, "Bessel argument")

    out = np.full_like(arr, 0.0 if order == 0.0 else -np.inf)  # I_v(0)
    live = arr > 0.0
    x = arr[live]
    res = _log_i_hankel(order, x)
    lost = np.isnan(res)
    if np.any(lost):
        fallback = _log_i_uniform if order >= _UNIFORM_ORDER_MIN else _log_i_series
        res[lost] = fallback(order, x[lost])
    out[live] = res
    return float(out[0]) if scalar else out


def _amos_lower(order: float, x):
    """Amos (1974) lower bound on I_{order+1}(x) / I_order(x) for order >= 0.

    x / (order + 1/2 + sqrt(x^2 + (order + 3/2)^2)); `hypot` keeps every
    finite x free of overflow.
    """
    return x / (order + 0.5 + np.hypot(x, order + 1.5))


def _amos_upper(order: float, x):
    """Amos (1974) upper bound on I_{order+1}(x) / I_order(x) for order >= 0.

    x / (order + sqrt(x^2 + (order + 2)^2)), tight for x small against
    order.
    """
    return x / (order + np.hypot(x, order + 2.0))


def _runs_agree(runs: np.ndarray) -> bool:
    """Whether the two runs laid end to end in `runs` agree to the tolerance."""
    half = runs.size // 2
    first, second = runs[:half], runs[half:]
    return bool((np.abs(first - second) <= _RATIO_TOL * first).all())


def _gauss_depth(order: float, x) -> int:
    """First depth for `_ratio_gauss` at its largest argument x.

    The steps it takes to shrink the Amos bracket at `order` below the
    tolerance at a rate of upper^2 per step; 0 when the bracket is already
    that narrow. Its relative width grows with x up to x = 2 order + 2 = D,
    so what holds at the largest x of the branch holds at every smaller one.
    """
    lower, upper = _amos_lower(order, x), _amos_upper(order, x)
    if upper - lower <= _RATIO_TOL * lower:
        return 0
    width = (upper - lower) / (_RATIO_TOL * lower)
    return math.ceil(math.log(width) / (-2.0 * math.log(upper)))


def _ratio_gauss(order: float, x: np.ndarray) -> np.ndarray:
    """I_{order+1}(x) / I_order(x) for 1-d x > 0, from the Gauss continued fraction.

    Runs r_{m-1} = x / (2m + x r_m) backward from m = order + M to
    m = order, once from each Amos bound on r at order + M. Each step is a
    decreasing map, so the two runs bracket the true ratio, and they
    shrink the bracket by about r^2 per step. M is first set so that the
    bracket at `order`, shrunk by its upper bound squared per step, falls
    below the tolerance (`_gauss_depth`; about kappa / order steps once
    kappa >> order, none while the bounds at `order` already agree), and
    is doubled until the runs agree. The two runs are laid end to end in
    one vector, and the loop carries s = x r, so a step is
    s <- x^2 / (2m + s); the last one divides x itself, which keeps a tiny
    x exact where x^2 underflows.
    """
    depth = _gauss_depth(order, x.max())
    if depth == 0:
        return _amos_lower(order, x)
    xx = np.concatenate((x, x))
    xx2 = xx * xx
    while True:
        start = order + depth
        runs = np.concatenate((_amos_lower(start, x), _amos_upper(start, x)))
        runs *= xx
        for m in range(depth, 1, -1):
            runs += 2.0 * (order + m)
            np.divide(xx2, runs, out=runs)
        runs += 2.0 * (order + 1.0)
        np.divide(xx, runs, out=runs)
        if _runs_agree(runs) or depth >= _RATIO_DEPTH_MAX:
            return runs[: x.size]
        depth *= 2


def _ratio_perron(order: float, x: np.ndarray) -> np.ndarray:
    """I_{order+1}(x) / I_order(x) for 1-d x > 0, from Perron's continued fraction.

    With v = order + 1 (Gautschi & Slavik 1978, eq. 1.4),
    I_v / I_{v-1} = x / (2v + x - (2v+1)x / (2v+1 + 2x - (2v+3)x / (2v+2 + 2x - ...))).
    In the scaled tail u_k = (2v+2k-1) / (2v+k + x (2 - u_{k+1})) every
    u_k lies in [0, 2] and the map is increasing, so runs started at 0
    and 2 bracket the true tail. Convergence quickens as x grows, and so
    the first depth falls with x; it is doubled until the runs agree. x
    is capped at 1e300, where the ratio is 1 to double precision, so that
    x (2 - u) stays finite.
    """
    x = np.minimum(x, 1e300)
    xx = np.concatenate((x, x))
    v = order + 1.0
    depth = math.ceil(2.0 - math.log(_RATIO_TOL) / math.log1p(float(x.min()) / (v + 1.0)))
    while True:
        runs = np.zeros_like(xx)
        runs[x.size:] = 2.0
        for k in range(depth, 0, -1):
            np.subtract(2.0, runs, out=runs)
            runs *= xx
            runs += 2.0 * v + k
            np.divide(2.0 * v + 2.0 * k - 1.0, runs, out=runs)
        # A = 1 / (1 + e) with e = 2v/x - u_1, formed as 1 - e / (1 + e): the
        # rounding then falls on the small complement and A is near correctly rounded
        runs = 2.0 * v / xx - runs
        runs = 1.0 - runs / (1.0 + runs)
        if _runs_agree(runs) or depth >= _RATIO_DEPTH_MAX:
            return runs[: x.size]
        depth *= 2


def bessel_ratio(d: int, kappa: float | np.ndarray):
    """A_D(kappa) = I_{D/2}(kappa) / I_{D/2-1}(kappa), in [0, 1].

    The expected resultant length of a vMF sample along its mean
    direction. Strictly increasing in kappa and decreasing in D; 0 at
    kappa = 0 and -> 1 as kappa -> infinity (it rounds to 1 once
    (D-1) / (2 kappa) is below half an ulp).

    Computed as a ratio, with no Bessel function evaluated: kappa <= D
    runs the Gauss continued fraction backward from the Amos bounds
    (`_ratio_gauss`, under 30 steps), kappa > D runs Perron's continued
    fraction (`_ratio_perron`, under 60 steps, fewer as kappa grows).
    Each branch runs its recurrence from two start values that bracket
    the answer and stops once the two runs agree to an ulp. Against mpmath
    the result is within 3e-16 relative for D from 2 to 2048 and kappa
    from 1e-6 to 1e6, and no finite kappa overflows.

    A d that is not an integer in [2, MAX_SIZE] (bools excluded), or a
    kappa that does not convert to finite floats >= 0, raises DomainError.
    """
    check_int("d", d, 2, size=True)
    arr = _float_array(kappa, "kappa")
    flat = arr.ravel()
    order = d / 2.0 - 1.0
    if flat.size and 0.0 < flat.min() and flat.max() <= d:
        out = _ratio_gauss(order, flat)
    else:
        flat = _nonnegative(flat, "kappa")[0]
        out = np.zeros_like(flat)
        low = (flat > 0.0) & (flat <= d)
        high = flat > d
        if np.any(low):
            out[low] = _ratio_gauss(order, flat[low])
        if np.any(high):
            out[high] = _ratio_perron(order, flat[high])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def log_vmf_norm_const(d: int, kappa: float | np.ndarray):
    """log C_D(kappa) with C_D(k) = k^{D/2-1} / ((2 pi)^{D/2} I_{D/2-1}(k)).

    At kappa = 0 this is the log inverse surface area of the unit
    (D-1)-sphere, evaluated through the limit rather than a 0/0 form. It
    is finite at every finite kappa. A d that is not an integer in
    [2, MAX_SIZE] (bools excluded), or a kappa that does not convert to
    finite floats >= 0, raises DomainError.
    """
    check_int("d", d, 2, size=True)
    arr, scalar = _nonnegative(kappa, "kappa")
    v = d / 2.0 - 1.0
    uniform = math.lgamma(d / 2.0) - math.log(2.0) - (d / 2.0) * math.log(math.pi)
    out = np.full_like(arr, uniform)
    pos = arr > 0.0
    if np.any(pos):
        x = arr[pos]
        out[pos] = (
            v * np.log(x)
            - (d / 2.0) * math.log(2.0 * math.pi)
            - log_bessel_i(v, x)
        )
    return float(out[0]) if scalar else out


def estimate_kappa(r_bar: float | np.ndarray, d: int):
    """Closed-form concentration estimate from a mean resultant length.

    kappa_hat = (r_bar * D - r_bar^3) / (1 - r_bar^2), the standard
    moment-matching approximation to the inverse of A_D. Monotone
    increasing in r_bar on [0, 1). A d that is not an integer in
    [2, MAX_SIZE] (bools excluded), or an r_bar that does not convert to
    floats in [0, 1), raises DomainError.
    """
    check_int("d", d, 2, size=True)
    arr, scalar = _nonnegative(r_bar, "r_bar", below=1.0)
    out = (arr * d - arr**3) / (1.0 - arr**2)
    return float(out[0]) if scalar else out


def estimate_kappa_clamped(r_bar: float | np.ndarray, d: int):
    """estimate_kappa with r_bar clamped to [1e-12, 1 - 1e-8] and the
    result clamped to [1e-6, 1e6].

    Finite-sample resultant lengths can reach 1, where the closed form is
    singular; the clamps keep every downstream exponential finite.
    """
    arr = np.clip(_float_array(r_bar, "r_bar"), _R_BAR_MIN, _R_BAR_MAX)
    return np.clip(estimate_kappa(arr, d), KAPPA_MIN, KAPPA_MAX)


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise normalize an (N, D) matrix; rejects (near-)zero rows, rows
    with a NaN or infinite entry and rows whose squared norm overflows
    (norm above ~1.3e154), which no float32 batch reaches.

    The rows are checked from their own norms, with no separate pass over
    the entries: a NaN entry leaves a NaN norm, an infinite entry or an
    overflow an infinite one. The first bad row decides the error: a
    (near-)zero row raises ZeroVectorError, any other DomainError, and so
    does a matrix that does not convert to a float array; one that is not
    2-d raises DimensionMismatchError.
    """
    arr = _float_array(m, "matrix", shape=(None, None))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(arr, axis=1)
    bad = ~((norms > 1e-12) & (norms < np.inf))  # NaN fails both
    if np.any(bad):
        row = int(np.argmax(bad))
        if norms[row] <= 1e-12:
            raise ZeroVectorError(f"row {row} has (near-)zero norm")
        raise DomainError(f"row {row} has a squared norm that is NaN or beyond the float range")
    return arr / norms[:, None]


def log_sum_exp(values: np.ndarray, axis: int | None = None):
    """log sum exp via max shift; exact for a single element.

    Accepts finite values and -inf. An all(-inf) reduction yields -inf.
    Values that do not convert to floats, or an axis that is neither None
    nor an int in [-ndim, ndim) (bools excluded), raise DomainError. No
    module of the package calls it: the trackers normalize their rows with
    `window.softmax_rows`, which gives the bits of
    exp(x - log_sum_exp(x, axis=1)[:, None]) without converting or
    scanning logits they have just formed.
    """
    arr = _float_array(values, "log_sum_exp values")
    if axis is not None:
        check_int("axis", axis, -arr.ndim)
        check_real("axis", axis, maximum=arr.ndim - 1)
    if arr.size == 0:
        raise EmptyInputError("log_sum_exp of an empty collection")
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        raise DomainError("log_sum_exp requires finite or -inf values")
    shift = np.max(arr, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(arr - shift), axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)
