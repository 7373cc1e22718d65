"""Sharp identified sets for index-test sensitivity and specificity.

For known reference characteristics (s1, s0) the set of (theta1, theta0)
pairs consistent with the observed joint distribution P(t, r) is a line
segment in the unit square: the two parameters are tied by the accounting
identity P(t=1) = theta1 P(y=1) + (1 - theta0) P(y=0), and each parameter
separately ranges over an interval obtained from intersection bounds on
the latent cell probabilities.  Dependence restrictions ("tendency to
wrongly agree") shrink those intervals from above only.  When (s1, s0) is
only known to lie in a compact region, the identified set is the union of
the per-point segments.

An ``IdentifiedSet`` holds its segments as columns, one row per kept
reference point: the endpoints (k, 2, 2), the slopes and the intercepts.
A single point's segment is a set of one row.  Every set in the
(theta1, theta0) plane answers for both axes at once:
``IdentifiedSet.projections`` is the (theta1, theta0) interval pair, and
``frechet_comparator`` returns the marginals-only box as the same pair.

The rules are written once and evaluated at every reference point of a
region at once, as numpy arrays: ``probability.reference_columns``
validates each point and derives its (r, y) table, ``_sharp_segments``
adds the latent-cell ranges, the clamps and the intersection through the
line, and ``frechet_columns`` the marginals-only box.  ``sharp_segment``
and ``frechet_comparator`` are the same rules at a single point, which
they evaluate in Python floats.  Python's ``min(a, b)`` is written
``np.where(b < a, b, a)`` on arrays and ``max(a, b)``
``np.where(b > a, b, a)``, not ``np.minimum`` or ``np.maximum``: on a tie,
or on 0.0 against -0.0, they return the same operand Python does, so a
region's columns hold the bits of each point evaluated alone.  The
reductions over a set's rows, its projections, keep the first of equal
values for the same reason (``_first``).
"""

from __future__ import annotations

import enum
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .probability import (
    JointTR,
    ReferenceColumns,
    RefPerf,
    RefutationError,
    SRegion,
    _at,
    _usable_point,
    _where,
    reference_columns,
)

__all__ = [
    "DependenceAssumption",
    "Interval",
    "IdentifiedSet",
    "sharp_segment",
    "sharp_union",
    "frechet_comparator",
]

# Line-membership tolerance for segment endpoints.
LINE_TOL = 1e-10


class DependenceAssumption(enum.Enum):
    """Maintained restriction on test dependence conditional on status.

    WRONGLY_AGREE_Y1 and WRONGLY_AGREE_Y0 state that when the reference
    errs for status y=1 (resp. y=0), the index test is at least as likely
    to repeat the error as to get the status right; WRONGLY_AGREE_BOTH
    imposes both, NO_RESTRICTION neither.
    """

    NO_RESTRICTION = "none"
    WRONGLY_AGREE_Y1 = "wa1"
    WRONGLY_AGREE_Y0 = "wa0"
    WRONGLY_AGREE_BOTH = "both"


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")


def _first(x: np.ndarray, pick) -> np.ndarray:
    """Row minima or maxima (``pick`` is np.argmin or np.argmax), each the
    first of equal values as Python's ``min`` and ``max`` keep it."""
    return x[np.arange(len(x)), pick(x, axis=1)]


@dataclass(frozen=True)
class IdentifiedSet:
    """Union of per-(s1, s0) segments over a region of reference values, as columns.

    Row i of ``segments`` (k, 2, 2) is the segment at ``s_points[i]``,
    ``[[theta1_lo, theta0_lo], [theta1_hi, theta0_hi]]``.  Both endpoints
    satisfy theta0 = slope * theta1 + intercept with
    slope = P(y=1)/P(y=0) > 0 and intercept = 1 - P(t=1)/P(y=0), so the
    theta0 ordering matches the theta1 ordering.  A single reference point
    is a set of one row.  The columns are read-only float arrays.
    """

    assumption: DependenceAssumption
    s_points: tuple[RefPerf, ...]
    segments: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.s_points)
        if not k:
            raise ValueError("identified set must contain at least one segment")
        for name in ("segments", "slope", "intercept"):
            column = np.array(getattr(self, name), dtype=float)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        ends, slope, intercept = self.segments, self.slope, self.intercept
        if ends.shape != (k, 2, 2) or slope.shape != (k,) or intercept.shape != (k,):
            raise ValueError(f"identified set columns must have shapes ({k}, 2, 2), ({k},) and ({k},)")
        # A row is refused where a segment checked alone was, by the first
        # check that fails it and with that check's message.  A NaN endpoint
        # fails the order check; a NaN slope or intercept passes the other two,
        # whose arithmetic is as quiet as Python's.
        lo, hi = ends[:, 0], ends[:, 1]
        order = ~((0.0 <= lo) & (lo <= hi) & (hi <= 1.0)).all(axis=1)
        with np.errstate(all="ignore"):
            line = np.abs(ends[..., 1] - (slope[:, None] * ends[..., 0] + intercept[:, None])) > LINE_TOL
        refused = order | (slope <= 0.0) | line.any(axis=1)
        if refused.any():
            i = int(refused.argmax())
            lo, hi = map(tuple, ends[i].tolist())
            if order[i]:
                raise ValueError(f"segment endpoints out of order or range: {lo}, {hi}")
            if slope[i] <= 0.0:
                raise ValueError(f"segment slope must be positive, got {slope[i].item()}")
            t1, t0 = lo if line[i, 0] else hi
            raise ValueError(f"endpoint ({t1}, {t0}) is off the feasibility line by more than {LINE_TOL}")

    def __len__(self) -> int:
        return len(self.s_points)

    @property
    def projections(self) -> tuple[Interval, Interval]:
        """Projection bounds on (theta1, theta0): sensitivity, then specificity."""
        lo = _first(self.segments[:, 0].T, np.argmin).tolist()
        hi = _first(self.segments[:, 1].T, np.argmax).tolist()
        return Interval(lo[0], hi[0]), Interval(lo[1], hi[1])

    def point_at(self, frac) -> np.ndarray:
        """Each segment's point a fraction ``frac`` of the way from its low to its high endpoint, (k, 2)."""
        lo, hi = self.segments[:, 0, 0], self.segments[:, 1, 0]
        t1 = lo + frac * (hi - lo)
        return np.stack([t1, self.slope * t1 + self.intercept], axis=-1)

    def _rows(self) -> list[list[float]]:
        """Per segment, (theta1_lo, theta1_hi, theta0_lo, theta0_hi)."""
        return self.segments.transpose(0, 2, 1).reshape(-1, 4).tolist()

    def to_dict(self) -> dict:
        keys = ("s1", "s0", "theta1_lo", "theta1_hi", "theta0_lo", "theta0_hi", "slope", "intercept")
        rows = zip(self.s_points, self._rows(), self.slope.tolist(), self.intercept.tolist())
        return {
            "assumption": self.assumption.value,
            "segments": [dict(zip(keys, (s.s1, s.s0, *ends, m, c))) for s, ends, m, c in rows],
        }

    def to_csv_rows(self) -> list[str]:
        row = "%.10g,%.10g,%.12g,%.12g,%.12g,%.12g"
        return [
            "s1,s0,theta1_lo,theta1_hi,theta0_lo,theta0_hi",
            *(row % (s.s1, s.s0, *ends) for s, ends in zip(self.s_points, self._rows())),
        ]


def _min(a, b):
    """Python's ``min(a, b)``, elementwise over arrays."""
    return _where(b < a, b, a)


def _max(a, b):
    """Python's ``max(a, b)``, elementwise over arrays."""
    return _where(b > a, b, a)


def _clamp01(x):
    return _where(x < 0.0, 0.0, _min(x, 1.0))


def _pinch(lo, hi):
    """A range that is empty only within float noise (1e-12) is a point, not an empty set."""
    pinched = (hi < lo) & (lo <= hi + 1e-12)
    mid = 0.5 * (lo + hi)
    return _where(pinched, mid, lo), _where(pinched, mid, hi)


def _raw_bounds(p_diag, p_off, p_mirror, r_agree, r_wrong, r_miss, wa_own, wa_mirror, py):
    """theta_j's interval before clamping, (1.0, 0.0) where a restriction empties it.

    P(t=j, y=j) splits across the reference outcome into a diagonal r=j
    cell and an off r=1-j cell; each latent cell moves freely between
    intersection bounds determined by P(t, r) and the implied P(r, y).  A
    tendency to wrongly agree for y=1 halves the mass available to
    (t=1, r=0, y=1) and, through the shared cell, caps (t=0, r=0, y=0) at
    P(t=0, r=0) - P(r=0, y=1)/2; wrongly agreeing for y=0 acts as the
    mirror image.  The two cells vary independently, so the bounds are the
    sums of the per-cell extremes divided by P(y=j).  For status j:
    p_diag = P(t=j, r=j), p_off = P(t=j, r=1-j), p_mirror = P(t=1-j, r=1-j);
    r_agree = P(r=j, y=j), r_wrong = P(r=j, y=1-j), r_miss = P(r=1-j, y=j).
    """
    diag_hi = _min(p_diag, r_agree)
    if wa_mirror:
        diag_hi = _min(diag_hi, p_diag - r_wrong / 2.0)
    off_hi = _min(p_off, r_miss)
    if wa_own:
        off_hi = _min(off_hi, r_miss / 2.0)
    diag_lo, diag_hi = _pinch(_max(0.0, p_diag - r_wrong), diag_hi)
    off_lo, off_hi = _pinch(_max(0.0, r_miss - p_mirror), off_hi)
    empty = (diag_lo > diag_hi) | (off_lo > off_hi)
    return _where(empty, 1.0, (diag_lo + off_lo) / py), _where(empty, 0.0, (diag_hi + off_hi) / py)


# The assumptions under which the index test wrongly agrees for status 1, for status 0.
_WA1 = (DependenceAssumption.WRONGLY_AGREE_Y1, DependenceAssumption.WRONGLY_AGREE_BOTH)
_WA0 = (DependenceAssumption.WRONGLY_AGREE_Y0, DependenceAssumption.WRONGLY_AGREE_BOTH)


def _sharp_segments(p: JointTR, points: Sequence[RefPerf], a: DependenceAssumption) -> tuple:
    """The sharp segments at all of ``points`` from one pass over them, and why the refuted ones have none.

    Returns the columns (kept, ends, slope, intercept) over ``points``, the
    last three as ``IdentifiedSet`` holds them and meaningful where
    ``kept``, and the list of (index, reason) of the points not kept.  The
    accounting line maps the theta1 interval exactly onto the theta0
    interval, so intersecting the two only absorbs floating-point noise;
    bounds are clamped to [0, 1] afterwards for the same reason.  A
    wrongly-agree restriction that empties either interval refutes the
    dependence assumption at that point rather than the data.
    """
    ref = reference_columns(p, points)
    wa1, wa0 = a in _WA1, a in _WA0
    raw1 = _raw_bounds(p.p11, p.p10, p.p00, ref.r1y1, ref.r1y0, ref.r0y1, wa1, wa0, ref.py1)
    raw0 = _raw_bounds(p.p00, p.p01, p.p11, ref.r0y0, ref.r0y1, ref.r1y0, wa0, wa1, ref.py0)
    t1_lo, t1_hi = (_clamp01(v) for v in raw1)
    t0_lo, t0_hi = (_clamp01(v) for v in raw0)

    # Pull the theta0 interval back through the line and intersect.
    slope = ref.py1 / ref.py0
    intercept = 1.0 - p.p_t1 / ref.py0
    lo1 = _max(t1_lo, (t0_lo - intercept) / slope)
    hi1 = _min(t1_hi, (t0_hi - intercept) / slope)
    crossed, apart, mid = lo1 > hi1, lo1 - hi1 > 1e-9, 0.5 * (lo1 + hi1)
    lo1, hi1 = _clamp01(_where(crossed, mid, lo1)), _clamp01(_where(crossed, mid, hi1))
    lo0, hi0 = _clamp01(slope * lo1 + intercept), _clamp01(slope * hi1 + intercept)

    empty1, empty0 = raw1[0] > raw1[1], raw0[0] > raw0[1]
    kept = np.array(ref.usable, ndmin=1) & ~np.array(empty1 | empty0 | apart, ndmin=1)
    refuted = []
    for k in np.flatnonzero(~kept).tolist():
        reason = ref.refutation(k)
        if reason is None:
            s = points[k]
            which = "theta1" if _at(empty1, k) else "theta0" if _at(empty0, k) else "intersected theta1"
            reason = (
                f"no (theta1, theta0) is consistent with the data at "
                f"(s1={s.s1}, s0={s.s0}) under {a.value!r}: the {which} interval "
                "is empty, so the dependence assumption is refuted there"
            )
        refuted.append((k, reason))
    ends = np.array([lo1, lo0, hi1, hi0], dtype=float).T.reshape(-1, 2, 2)
    return kept, ends, np.array(slope, ndmin=1), np.array(intercept, ndmin=1), refuted


def sharp_segment(
    p: JointTR, s: RefPerf, a: DependenceAssumption = DependenceAssumption.NO_RESTRICTION
) -> IdentifiedSet:
    """Sharp identified segment for (theta1, theta0) at known (s1, s0): a set of one row.

    Raises ``RefutationError`` when the data refute the maintained
    assumptions at ``s``, or a wrongly-agree restriction empties the set
    there (which refutes the dependence assumption rather than the data).
    """
    _, ends, slope, intercept, refuted = _sharp_segments(p, (s,), a)
    if refuted:
        raise RefutationError(refuted[0][1])
    return IdentifiedSet(a, (s,), ends, slope, intercept)


def sharp_union(
    p: JointTR, S: SRegion, a: DependenceAssumption = DependenceAssumption.NO_RESTRICTION
) -> IdentifiedSet:
    """Union of sharp segments over the grid of reference values in ``S``.

    Grid points the data refute are dropped with a warning; only the true
    (s1, s0) needs to lie in the region, so one bad point does not doom
    the union.  All points refuted is an error.
    """
    points = sorted(S.points)
    kept, ends, slope, intercept, refuted = _sharp_segments(p, points, a)
    for k, reason in refuted:
        s = points[k]
        warnings.warn(f"dropping refuted reference point (s1={s.s1}, s0={s.s0}): {reason}", stacklevel=2)
    if len(refuted) == len(points):
        raise RefutationError(
            "every (s1, s0) point in the region is refuted by the data"
        )
    kept_points = tuple(s for s, ok in zip(points, kept.tolist()) if ok)
    return IdentifiedSet(a, kept_points, ends[kept], slope[kept], intercept[kept])


def frechet_columns(ref: ReferenceColumns) -> tuple:
    """Marginals-only bounds at every point of ``ref``: the columns (theta1 lo, hi, theta0 lo, hi).

    Uses only P(t=j) and the implied P(y=j), ignoring the (t, r) joint:
    theta_j lies in [max(0, P(t=j) - P(y=1-j)), min(P(t=j), P(y=j))] / P(y=j).
    Only the columns of usable points mean anything.
    """

    def bounds(pt, py):
        return _clamp01(_max(0.0, pt - (1.0 - py)) / py), _clamp01(_min(pt, py) / py)

    pt1 = ref.p.p_t1
    return bounds(pt1, ref.py1) + bounds(1.0 - pt1, ref.py0)


def frechet_comparator(p: JointTR, s: RefPerf) -> tuple[Interval, Interval]:
    """Marginals-only (theta1, theta0) intervals; wider than the sharp projections."""
    lo1, hi1, lo0, hi0 = frechet_columns(_usable_point(p, s))
    return Interval(lo1, hi1), Interval(lo0, hi0)
