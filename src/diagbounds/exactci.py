"""Exact (Clopper-Pearson) binomial confidence intervals.

Endpoints are Beta quantiles, obtained here by bisecting the regularized
incomplete beta function rather than importing a stats library, so the
whole inference stack stays dependency-light.  The continued-fraction
evaluation of I_x(a, b) is the classical modified-Lentz scheme.

The bisection is the definition of an endpoint: from [0, 1], halve until
the interval is narrower than 1e-10, keeping the half in which the
computed I_mid < q decides.  A few Newton steps first find a bracket
[L, H] around the root, and a midpoint outside it takes the decision
monotonicity implies without being evaluated (34 evaluations per
endpoint become about 7).  That keeps every bit only if the computed I at
each skipped midpoint would have decided the same way, so a bracket end
counts only when its computed I clears q by twice a bound on the
rounding error of I: one error at the end, one at the midpoint.  The
bound is ``_ERR_ULPS`` units of eps times the size of the lgamma and log
terms of ln I, whose cancellation is where the error comes from.
Measured errors stayed below 0.25 such units up to n = 10**8.

The same cancellation caps the trials at 10**10.  Against scipy's
``beta.ppf``, over 10,000 counts per n, the largest endpoint error is
5.1e-11 at n = 10**10, but 3.0e-10 at 10**11 and 8.8e-10 at 10**12, past
the 1e-10 the bisection promises.
"""

from __future__ import annotations

import math
import sys

from .identification import Interval

__all__ = ["regularized_incomplete_beta", "clopper_pearson"]

_BISECT_TOL = 1e-10
# The rounding error of a computed I_x(a, b) is taken as this many eps
# times the size of the lgamma and log terms of its logarithm.
_ERR_ULPS = 8
# Newton steps before the bracket is taken as it stands; about 4 are used.
_NEWTON_STEPS = 8
_CF_EPS = 1e-15
_CF_TINY = 1e-300
# Terms the continued fraction may take before it must have converged,
# plus sqrt(a + b): the terms it needs grow with the shapes (about 300
# at a + b = 3.5e5 and 1,800 at 1e8, near x = a / (a + b)).
_CF_MAXITER = 300
# Beyond this many trials the lgamma terms of I_x(a, b), each about
# n log n, cancel away the digits the intervals need (module docstring).
_MAX_TRIALS = 10**10


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
    """Inverse of I_x(a, b) in x, by bisection to 1e-10, evaluating only midpoints inside the bracket."""
    bracket_lo, bracket_hi = _bracket(q, a, b)
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= bracket_lo or (mid < bracket_hi and regularized_incomplete_beta(a, b, mid) < q):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _normal_quantile(p: float) -> float:
    """Standard normal quantile to within 4.5e-4 (Abramowitz & Stegun 26.2.23): a Newton start."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return z if p > 0.5 else -z


def _bracket(q: float, a: float, b: float) -> tuple[float, float]:
    """(L, H): every x <= L computes I_x(a, b) < q and every x >= H computes it >= q; (0, 1) at worst.

    Newton steps from the normal approximation home in on the root, on the
    log of the tail that q lies in: that log is concave (the Beta density
    is log-concave for a, b >= 1), so the steps do not overshoot.  Once the
    computed I is within rounding error of q, one step to each side gives
    the two ends.  An evaluated point becomes an end only if its I clears
    q by twice its rounding error bound.
    """
    if not 0.0 < q < 1.0:  # alpha / 2 rounded to 0 or 1 - alpha / 2 to 1: nothing to home in on
        return 0.0, 1.0
    lg_ab, lg_a, lg_b = math.lgamma(a + b), math.lgamma(a), math.lgamma(b)
    ln_beta = lg_ab - lg_a - lg_b
    size = abs(lg_ab) + abs(lg_a) + abs(lg_b) + _CF_MAXITER + math.sqrt(a + b)
    low_end, high_end = 0.0, 1.0
    below, above = 0.0, 1.0  # the nearest points seen on each side of the root: Newton stays between them

    def classify(x: float) -> tuple[float, float]:
        """(I_x, twice its rounding error bound), recording x as an end when I_x clears q by more."""
        nonlocal low_end, high_end, below, above
        margin = 2.0 * _ERR_ULPS * sys.float_info.epsilon * (size - a * math.log(x) - b * math.log1p(-x))
        i = regularized_incomplete_beta(a, b, x)
        if i < q:
            below = x
            if i < q - margin:
                low_end = x
        else:
            above = x
            if i > q + margin:
                high_end = x
        return i, margin

    lower = q < 0.5  # the tail q lies in: I itself, or 1 - I
    mean = a / (a + b)
    x = mean + _normal_quantile(q) * math.sqrt(mean * (1.0 - mean) / (a + b + 1.0))
    if not 0.0 < x < 1.0:
        x = mean
    for _ in range(_NEWTON_STEPS):
        i, margin = classify(x)
        density = math.exp(ln_beta + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
        if abs(i - q) <= margin:  # x is the root to within rounding: step off it both ways
            step = 3.0 * margin / density if density > 0.0 else 1.0  # 1: no end inside (0, 1)
            for end in (x - step, x + step):
                if 0.0 < end < 1.0:
                    classify(end)
            break
        # Newton on the log of the tail against the log of the distance to its end of [0, 1].
        tail, target, dist = (i, q, x) if lower else (1.0 - i, 1.0 - q, 1.0 - x)
        nxt = math.nan  # fails the check below when the tail or the density underflowed
        if tail > 0.0 and dist * density > 0.0:
            dist *= math.exp(-math.log(tail / target) * tail / (dist * density))
            nxt = dist if lower else 1.0 - dist
        if not below < nxt < above:
            nxt = 0.5 * (x + (below if i > q else above))
            if not below < nxt < above:  # no float left between x and the other side
                break
        x = nxt
    return low_end, high_end


def clopper_pearson(successes: int, n: int, alpha: float = 0.05) -> Interval:
    """Two-sided exact binomial interval for a proportion.

    Boundary counts use the conventional endpoints: a lower limit of 0
    when no successes are observed and an upper limit of 1 when all
    trials succeed.
    """
    if not (1 <= n <= _MAX_TRIALS):
        raise ValueError(f"need between 1 and 10**10 trials, got n={n}")
    if not (0 <= successes <= n):
        raise ValueError(f"successes must lie in [0, {n}], got {successes}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    half = alpha / 2.0
    lo = 0.0 if successes == 0 else _beta_quantile(half, successes, n - successes + 1)
    hi = 1.0 if successes == n else _beta_quantile(1.0 - half, successes + 1, n - successes)
    return Interval(lo, hi)
