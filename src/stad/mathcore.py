"""Numerically stable special functions and sphere geometry.

Everything the trackers need from directional statistics lives here: the
log modified Bessel function of the first kind, the Bessel ratio
A_D(kappa) = I_{D/2}(kappa) / I_{D/2-1}(kappa), the log normalizer of the
von Mises-Fisher density, the closed-form concentration estimate from a
mean resultant length, and small vector helpers (normalize, log-sum-exp).

All functions are pure and accept scalars or arrays for the concentration
argument. Orders up to ~1024 (embedding dimension ~2048) and arguments
from 1e-6 to 1e6 stay accurate to better than 1e-8 relative in the log
domain; naive upward recurrences or scipy's scaled Bessel underflow in
parts of that range.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_bessel_i",
    "bessel_ratio",
    "log_vmf_norm_const",
    "estimate_kappa",
    "estimate_kappa_clamped",
    "normalize",
    "normalize_rows",
    "log_sum_exp",
    "KAPPA_MIN",
    "KAPPA_MAX",
]

from .errors import DomainError, EmptyInputError, ZeroVectorError

# Clamp range for estimated concentrations; keeps downstream exponentials finite.
KAPPA_MIN = 1e-6
KAPPA_MAX = 1e6

_R_BAR_MIN = 1e-12
_R_BAR_MAX = 1.0 - 1e-8

# Power series is used below this argument (or when the argument is small
# relative to the order); it then converges within the term cap.
_SERIES_ARG_MAX = 120.0
_SERIES_TERM_CAP = 200
# Uniform large-order expansion needs this many orders for 1e-8 accuracy.
_UNIFORM_ORDER_MIN = 14.0


def _log_i_series(order: float, arg: np.ndarray) -> np.ndarray:
    """Ascending power series in the log domain.

    log I_v(x) = v log(x/2) - lgamma(v+1) + log sum_m t_m with
    t_m = prod_{j<=m} (x^2/4) / (j (v+j)) and t_0 = 1. All terms are
    positive so the shifted exponential sum has no cancellation.
    """
    log_y = 2.0 * np.log(arg) - math.log(4.0)  # log(x^2/4) without underflow
    log_terms = [np.zeros_like(arg)]
    log_t = np.zeros_like(arg)
    running_max = np.zeros_like(arg)
    for m in range(1, _SERIES_TERM_CAP + 1):
        log_t = log_t + log_y - math.log(m) - math.log(order + m)
        log_terms.append(log_t)
        running_max = np.maximum(running_max, log_t)
        if np.all(log_t < running_max - 46.0):
            break
    stacked = np.stack(log_terms, axis=-1)
    shift = stacked.max(axis=-1)
    total = np.exp(stacked - shift[..., None]).sum(axis=-1)
    return (
        order * (np.log(arg) - math.log(2.0))
        - math.lgamma(order + 1.0)
        + shift
        + np.log(total)
    )


def _debye_correction(t: np.ndarray, order: float) -> np.ndarray:
    """Sum of u_k(t)/order^k for k = 1..6 (Debye polynomials)."""
    t2 = t * t
    u1 = t * (3.0 - 5.0 * t2) / 24.0
    u2 = t2 * (81.0 - 462.0 * t2 + 385.0 * t2 * t2) / 1152.0
    u3 = (
        t * t2
        * (30375.0 - 369603.0 * t2 + 765765.0 * t2**2 - 425425.0 * t2**3)
        / 414720.0
    )
    u4 = (
        t2 * t2
        * (
            4465125.0
            - 94121676.0 * t2
            + 349922430.0 * t2**2
            - 446185740.0 * t2**3
            + 185910725.0 * t2**4
        )
        / 39813120.0
    )
    u5 = (
        t * t2 * t2
        * (
            1519035525.0
            - 49286948607.0 * t2
            + 284499769554.0 * t2**2
            - 614135872350.0 * t2**3
            + 566098157625.0 * t2**4
            - 188699385875.0 * t2**5
        )
        / 6688604160.0
    )
    u6 = (
        t2**3
        * (
            2757049477875.0
            - 127577298354750.0 * t2
            + 1050760774457901.0 * t2**2
            - 3369032068261860.0 * t2**3
            + 5104696716244125.0 * t2**4
            - 3685299006138750.0 * t2**5
            + 1023694168371875.0 * t2**6
        )
        / 4815794995200.0
    )
    v = order
    return u1 / v + u2 / v**2 + u3 / v**3 + u4 / v**4 + u5 / v**5 + u6 / v**6


def _log_i_uniform(order: float, arg: np.ndarray) -> np.ndarray:
    """Uniform large-order asymptotic expansion (Abramowitz-Stegun 9.7.7)."""
    z = arg / order
    root = np.sqrt(1.0 + z * z)
    eta = root + np.log(z) - np.log1p(root)
    t = 1.0 / root
    corr = _debye_correction(t, order)
    return (
        order * eta
        - 0.5 * math.log(2.0 * math.pi * order)
        - 0.25 * np.log1p(z * z)
        + np.log1p(corr)
    )


def _log_i_hankel(order: float, arg: np.ndarray) -> np.ndarray:
    """Large-argument expansion (Abramowitz-Stegun 9.7.1), small orders."""
    mu = 4.0 * order * order
    term = np.ones_like(arg)
    total = np.ones_like(arg)
    for j in range(1, 40):
        term = term * (-(mu - (2.0 * j - 1.0) ** 2) / (8.0 * arg * j))
        total = total + term
        if np.all(np.abs(term) < 1e-18 * np.abs(total)):
            break
    return arg - 0.5 * np.log(2.0 * math.pi * arg) + np.log(total)


def log_bessel_i(order: float, arg):
    """log I_order(arg) for order >= 0 and arg >= 0.

    Branches: ascending power series (log domain, at most 200 terms) when the argument is small absolutely or relative to the
    order; the uniform large-order expansion for orders >= 14; Hankel's
    large-argument expansion otherwise. Returns -inf where I vanishes
    (arg == 0 with order > 0).
    """
    order = float(order)
    if not math.isfinite(order) or order < 0.0:
        raise DomainError(f"Bessel order must be finite and >= 0, got {order}")
    arr = np.asarray(arg, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("Bessel argument must be finite and >= 0")

    out = np.empty_like(arr)
    zero = arr == 0.0
    out[zero] = 0.0 if order == 0.0 else -np.inf

    live = ~zero
    x = arr[live]
    series = (x <= _SERIES_ARG_MAX) | (x * x <= 160.0 * (order + 1.0))
    res = np.empty_like(x)
    if np.any(series):
        res[series] = _log_i_series(order, x[series])
    rest = ~series
    if np.any(rest):
        if order >= _UNIFORM_ORDER_MIN:
            res[rest] = _log_i_uniform(order, x[rest])
        else:
            res[rest] = _log_i_hankel(order, x[rest])
    out[live] = res
    return float(out[0]) if scalar else out


def bessel_ratio(d: int, kappa):
    """A_D(kappa) = I_{D/2}(kappa) / I_{D/2-1}(kappa), in [0, 1).

    The expected resultant length of a vMF sample along its mean
    direction. Strictly increasing in kappa; 0 at kappa = 0 and -> 1 as
    kappa -> infinity.
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    arr = np.asarray(kappa, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("kappa must be finite and >= 0")
    out = np.zeros_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        x = arr[pos]
        out[pos] = np.exp(
            log_bessel_i(d / 2.0, x) - log_bessel_i(d / 2.0 - 1.0, x)
        )
    return float(out[0]) if scalar else out


def log_vmf_norm_const(d: int, kappa):
    """log C_D(kappa) with C_D(k) = k^{D/2-1} / ((2 pi)^{D/2} I_{D/2-1}(k)).

    At kappa = 0 this is the log inverse surface area of the unit
    (D-1)-sphere, evaluated through the limit rather than a 0/0 form.
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    arr = np.asarray(kappa, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("kappa must be finite and >= 0")
    uniform = math.lgamma(d / 2.0) - math.log(2.0) - (d / 2.0) * math.log(math.pi)
    out = np.full_like(arr, uniform)
    pos = arr > 0.0
    if np.any(pos):
        x = arr[pos]
        v = d / 2.0 - 1.0
        out[pos] = (
            v * np.log(x)
            - (d / 2.0) * math.log(2.0 * math.pi)
            - log_bessel_i(v, x)
        )
    return float(out[0]) if scalar else out


def estimate_kappa(r_bar, d: int):
    """Closed-form concentration estimate from a mean resultant length.

    kappa_hat = (r_bar * D - r_bar^3) / (1 - r_bar^2), the standard
    moment-matching approximation to the inverse of A_D. Monotone
    increasing in r_bar on [0, 1).
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    arr = np.asarray(r_bar, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError("r_bar must lie in [0, 1)")
    out = (arr * d - arr**3) / (1.0 - arr**2)
    return float(out[0]) if scalar else out


def estimate_kappa_clamped(r_bar, d: int):
    """estimate_kappa with r_bar clamped to [1e-12, 1 - 1e-8] and the
    result clamped to [1e-6, 1e6].

    Finite-sample resultant lengths can reach 1, where the closed form is
    singular; the clamps keep every downstream exponential finite.
    """
    arr = np.clip(np.asarray(r_bar, dtype=np.float64), _R_BAR_MIN, _R_BAR_MAX)
    return np.clip(estimate_kappa(arr, d), KAPPA_MIN, KAPPA_MAX)


def normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||, rejecting vectors with norm <= 1e-12."""
    arr = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("cannot normalize a non-finite vector")
    norm = float(np.linalg.norm(arr))
    if norm <= 1e-12:
        raise ZeroVectorError("cannot normalize a (near-)zero vector")
    return arr / norm


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise normalize an (N, D) matrix; rejects (near-)zero rows."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise DomainError(f"expected a 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix contains non-finite entries")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms <= 1e-12):
        bad = int(np.argmax(norms <= 1e-12))
        raise ZeroVectorError(f"row {bad} has (near-)zero norm")
    return arr / norms[:, None]


def log_sum_exp(values, axis=None):
    """log sum exp via max shift; exact for a single element.

    Accepts finite values and -inf. An all(-inf) reduction yields -inf.
    """
    arr = np.asarray(values, dtype=np.float64)
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
