"""Exact (Clopper-Pearson) binomial confidence intervals.

Endpoints are Beta quantiles, obtained here by bisecting the regularized
incomplete beta function rather than importing a stats library, so the
whole inference stack stays dependency-light.  The continued-fraction
evaluation of I_x(a, b) is the classical modified-Lentz scheme.
"""

from __future__ import annotations

import math

from .identification import Interval

__all__ = ["regularized_incomplete_beta", "clopper_pearson"]

_BISECT_TOL = 1e-10
_CF_EPS = 1e-15
_CF_TINY = 1e-300
# Terms the continued fraction may take before it must have converged,
# plus sqrt(a + b): the terms it needs grow with the shapes (about 300
# at a + b = 3.5e5 and 1,800 at 1e8, near x = a / (a + b)).
_CF_MAXITER = 300
# Beyond this many trials the lgamma terms of I_x(a, b), each about
# n log n, cancel away the digits the intervals need.
_MAX_TRIALS = 10**12


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXITER + math.isqrt(int(a + b)) + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse of I_x(a, b) in x, by bisection to 1e-10."""
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson(successes: int, n: int, alpha: float = 0.05) -> Interval:
    """Two-sided exact binomial interval for a proportion.

    Boundary counts use the conventional endpoints: a lower limit of 0
    when no successes are observed and an upper limit of 1 when all
    trials succeed.
    """
    if not (1 <= n <= _MAX_TRIALS):
        raise ValueError(f"need between 1 and 10**12 trials, got n={n}")
    if not (0 <= successes <= n):
        raise ValueError(f"successes must lie in [0, {n}], got {successes}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    half = alpha / 2.0
    lo = 0.0 if successes == 0 else _beta_quantile(half, successes, n - successes + 1)
    hi = 1.0 if successes == n else _beta_quantile(1.0 - half, successes + 1, n - successes)
    return Interval(lo, hi)
