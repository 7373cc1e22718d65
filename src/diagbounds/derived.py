"""Bounds on screened-population prevalence and on predictive values.

Prevalence in a population screened with the index test satisfies
P(y=1) = (q + theta0 - 1) / (theta1 + theta0 - 1), where q = P(t=1) is
the screened positive rate, a plain float in [0, 1].  Because the
identified set for (theta1, theta0) is a line segment (or a union of
them), the ratio is monotone along each segment and its extremes sit at
segment endpoints; treating the identified set as a rectangle of its
projections forgets that structure and strictly widens the bounds
whenever the segment is non-degenerate.

``prevalence_width_curve`` is the one prevalence entry point: an
identified set, of one segment or many, at any list of rates (a single
rate is a one-element list), returned as columns over the rates.  Every
bound is one array rule, ``_ratio_bounds``: the ratio at every (rate,
segment, candidate point) at once, the candidates being a segment's two
endpoints or its rectangle's four corners, reduced to one interval per
(rate, segment) clamped into [0, 1]; ``_hull`` takes the hull over the
segments.  ``predictive_value_bounds`` is one array rule over the
segments' endpoints.  Of equal values such as 0.0 and -0.0 each step
keeps the one Python's ``min`` and ``max`` keep (``_first``), so every
float is that of a scalar evaluation.  A segment's own bounds are those
of the set of its one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .identification import IdentifiedSet, Interval, _clamp01, _first

__all__ = [
    "PretestRange",
    "PrevalenceCurve",
    "predictive_value_bounds",
    "prevalence_width_curve",
]

# Sign-change detection tolerance for theta1 + theta0 - 1 along a segment.
SIGN_TOL = 1e-12


@dataclass(frozen=True)
class PretestRange:
    """Range of pre-test probabilities the clinician entertains."""

    pi_lo: float
    pi_hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.pi_lo <= self.pi_hi <= 1.0):
            raise ValueError(
                f"pre-test range must satisfy 0 <= lo <= hi <= 1, got "
                f"[{self.pi_lo}, {self.pi_hi}]"
            )


class PrevalenceCurve(NamedTuple):
    """Sharp and rectangular prevalence bounds at m screened rates, as columns.

    ``sharp`` and ``rect`` are (m, 2) arrays of interval ends.  A
    ``vacuous`` flag marks the fallback [0, 1] that applies when some
    feasible (theta1, theta0) has theta1 = 1 - theta0 (the test could be
    pure noise, so the data say nothing about prevalence); it is the same
    at every rate.  A ``q_consistent`` column (m,) is False where the
    screened rate is impossible under every point of the set; the
    interval then degenerates to the nearest boundary.  Over a set, the
    interval is the hull of the segments' intervals, which can in
    principle be disconnected.
    """

    q: np.ndarray
    sharp: np.ndarray
    rect: np.ndarray
    sharp_vacuous: bool
    rect_vacuous: bool
    sharp_q_consistent: np.ndarray
    rect_q_consistent: np.ndarray


def _ratio_bounds(
    qs: list[float], points: np.ndarray, vacuous: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prevalence at candidate (theta1, theta0) points, clamped into [0, 1].

    For m rates ``qs``, the c candidates of k segments in ``points``
    (k, c, 2) and the segments' ``vacuous`` flags (k,), on which every
    prevalence is feasible, returns ``lo``, ``hi`` and ``q_consistent``,
    each (m, k).  When every candidate falls on one side of [0, 1] the
    rate is impossible and the interval is the nearest boundary.
    """
    q = np.asarray(qs, dtype=float)
    bad = ~((q >= 0.0) & (q <= 1.0))
    if bad.any():
        raise ValueError(
            f"screened positive rate must lie in [0, 1], got {qs[int(np.argmax(bad))]}"
        )
    t1, t0 = points[..., 0], points[..., 1]
    den = np.where(vacuous[:, None], 1.0, t1 + t0 - 1.0)  # no 0/0 where [0, 1] is the answer
    values = np.moveaxis((q[:, None, None] + t0 - 1.0) / den, -1, 0)
    lo = hi = values[0]
    for v in values[1:]:  # Python's min and max: the first of equal values
        lo, hi = np.where(v < lo, v, lo), np.where(v > hi, v, hi)
    ok = (hi >= 0.0) & (lo <= 1.0) | vacuous
    return np.where(vacuous, 0.0, _clamp01(lo)), np.where(vacuous, 1.0, _clamp01(hi)), ok


def _hull(qs: list[float], points: np.ndarray, vacuous: np.ndarray) -> tuple[np.ndarray, bool, np.ndarray]:
    """Per rate, the hull of the segments' intervals: the ends (m, 2), the vacuous flag and ``q_consistent`` (m,).

    The hull runs over the segments at which the rate is consistent, or
    over all of them when it is consistent at none.  A vacuous segment
    makes every rate's bound [0, 1].
    """
    lo, hi, ok = _ratio_bounds(qs, points, vacuous)
    consistent = ok.any(axis=1)
    pool = ok | ~consistent[:, None]
    vac = bool(vacuous.any())
    h_lo = np.where(vac, 0.0, _first(np.where(pool, lo, np.inf), np.argmin))
    h_hi = np.where(vac, 1.0, _first(np.where(pool, hi, -np.inf), np.argmax))
    return np.stack([h_lo, h_hi], axis=-1), vac, consistent


def _sharp(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidates of the sharp bounds: each segment's two endpoints, ``ends`` (k, 2, 2).

    If theta1 + theta0 - 1 vanishes or changes sign along a segment,
    every prevalence in [0, 1] is feasible and its bounds are vacuous.
    """
    d = ends[..., 0] + ends[..., 1] - 1.0
    return ends, (d[:, 0] * d[:, 1] <= 0.0) | np.any(np.abs(d) <= SIGN_TOL, axis=1)


def _rect(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidates of the rectangular bounds: the four corners of each segment's rectangle.

    The rectangle reaches the theta1 = 1 - theta0 line as soon as its
    lower-left corner does, in which case every prevalence is feasible.
    Clear of that line the ratio is coordinate-wise monotone, so its
    extremes sit at corners.
    """
    corners = np.stack([ends[:, [0, 0, 1, 1], 0], ends[:, [0, 1, 0, 1], 1]], axis=-1)
    return corners, corners[:, 0, 0] + corners[:, 0, 1] - 1.0 <= SIGN_TOL


def _predictive_bound(num: np.ndarray, rest: np.ndarray) -> Interval:
    """From the least of row 0 to the largest of row 1 of num / (num + rest); [0, 1] on any 0/0."""
    den = num + rest
    if (den == 0.0).any():
        return Interval(0.0, 1.0)
    lo, hi = num / den
    return Interval(lo[lo.argmin()].item(), hi[hi.argmax()].item())


def predictive_value_bounds(identified: IdentifiedSet, pi: PretestRange) -> tuple[Interval, Interval]:
    """Bounds on PPV and NPV over the identified set and pre-test range.

    Both predictive values increase in theta1 and theta0 jointly, hence
    are monotone along each segment and extremal at its endpoints; PPV
    increases in the pre-test probability while NPV decreases in it.  A
    0/0 evaluation (e.g. a pure-noise corner) makes the affected quantity
    uninformative and returns the degenerate bound [0, 1].
    """
    # Row 0 holds the low endpoints, row 1 the high ones: PPV at pi_lo, then
    # pi_hi, and NPV at pi_hi, then pi_lo.
    t1, t0 = identified.segments[..., 0].T, identified.segments[..., 1].T
    up = np.array([[pi.pi_lo], [pi.pi_hi]])
    down = up[::-1]
    return (
        _predictive_bound(t1 * up, (1.0 - t0) * (1.0 - up)),
        _predictive_bound(t0 * (1.0 - down), (1.0 - t1) * down),
    )


def prevalence_width_curve(identified: IdentifiedSet, q_grid=None) -> PrevalenceCurve:
    """Sharp and rectangular prevalence bounds along a grid of screened rates.

    Default grid is 201 equally spaced rates on [0, 1]; a single rate is
    ``q_grid=[q]``.  The sharp bounds evaluate each segment at its
    endpoints, the rectangular ones treat it as the rectangle of its
    projections, which is what methods reporting only marginal theta
    bounds can do.  The rectangular bounds always contain the sharp ones;
    on one segment they are strictly wider unless it is a single point.
    Over a set each bound is the hull of the segments'.
    """
    if q_grid is None:
        qs = [i / 200.0 for i in range(201)]
    else:
        qs = [float(q) for q in q_grid]
    sharp, sharp_vacuous, sharp_ok = _hull(qs, *_sharp(identified.segments))
    rect, rect_vacuous, rect_ok = _hull(qs, *_rect(identified.segments))
    return PrevalenceCurve(np.array(qs, dtype=float), sharp, rect, sharp_vacuous, rect_vacuous, sharp_ok, rect_ok)
