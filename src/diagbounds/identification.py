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

Every set in the (theta1, theta0) plane answers for both axes at once:
``ThetaSegment.projections`` and ``IdentifiedSet.projections`` are the
(theta1, theta0) interval pair, and ``frechet_comparator`` returns the
marginals-only box as the same pair.

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
region's columns hold the bits of each point evaluated alone.
"""

from __future__ import annotations

import enum
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .probability import (
    JointTR,
    ReferenceColumns,
    RefPerf,
    RefutationError,
    SRegion,
    _column,
    _usable_point,
    _where,
    reference_columns,
)

__all__ = [
    "DependenceAssumption",
    "Interval",
    "ThetaSegment",
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


@dataclass(frozen=True)
class ThetaSegment:
    """A line segment of jointly feasible (theta1, theta0) for fixed (s1, s0).

    Both endpoints satisfy theta0 = slope * theta1 + intercept with
    slope = P(y=1)/P(y=0) > 0 and intercept = 1 - P(t=1)/P(y=0), so the
    theta0 ordering matches the theta1 ordering.
    """

    s: RefPerf
    lo: tuple[float, float]
    hi: tuple[float, float]
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        (t1l, t0l), (t1u, t0u) = self.lo, self.hi
        if not (0.0 <= t1l <= t1u <= 1.0 and 0.0 <= t0l <= t0u <= 1.0):
            raise ValueError(f"segment endpoints out of order or range: {self.lo}, {self.hi}")
        if self.slope <= 0.0:
            raise ValueError(f"segment slope must be positive, got {self.slope}")
        for t1, t0 in (self.lo, self.hi):
            if abs(t0 - (self.slope * t1 + self.intercept)) > LINE_TOL:
                raise ValueError(
                    f"endpoint ({t1}, {t0}) is off the feasibility line by more "
                    f"than {LINE_TOL}"
                )

    @property
    def projections(self) -> tuple[Interval, Interval]:
        """The (theta1, theta0) intervals the segment spans."""
        return Interval(self.lo[0], self.hi[0]), Interval(self.lo[1], self.hi[1])

    def theta0_at(self, theta1: float) -> float:
        return self.slope * theta1 + self.intercept

    def point_at(self, frac: float) -> tuple[float, float]:
        """Point a fraction ``frac`` of the way from the low to high endpoint."""
        t1 = self.lo[0] + frac * (self.hi[0] - self.lo[0])
        return (t1, self.theta0_at(t1))


@dataclass(frozen=True)
class IdentifiedSet:
    """Union of per-(s1, s0) segments over a region of reference values."""

    segments: tuple[ThetaSegment, ...]
    assumption: DependenceAssumption

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("identified set must contain at least one segment")

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def projections(self) -> tuple[Interval, Interval]:
        """Projection bounds on (theta1, theta0): sensitivity, then specificity."""
        return tuple(
            Interval(min(seg.lo[k] for seg in self.segments), max(seg.hi[k] for seg in self.segments))
            for k in (0, 1)
        )

    def to_dict(self) -> dict:
        return {
            "assumption": self.assumption.value,
            "segments": [
                {
                    "s1": seg.s.s1,
                    "s0": seg.s.s0,
                    "theta1_lo": seg.lo[0],
                    "theta1_hi": seg.hi[0],
                    "theta0_lo": seg.lo[1],
                    "theta0_hi": seg.hi[1],
                    "slope": seg.slope,
                    "intercept": seg.intercept,
                }
                for seg in self.segments
            ],
        }

    def to_csv_rows(self) -> list[str]:
        rows = ["s1,s0,theta1_lo,theta1_hi,theta0_lo,theta0_hi"]
        for seg in self.segments:
            rows.append(
                f"{seg.s.s1:.10g},{seg.s.s0:.10g},{seg.lo[0]:.12g},{seg.hi[0]:.12g},"
                f"{seg.lo[1]:.12g},{seg.hi[1]:.12g}"
            )
        return rows


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


def _sharp_segments(
    p: JointTR, points: Sequence[RefPerf], a: DependenceAssumption
) -> Iterator[ThetaSegment | str]:
    """The sharp segment at each of ``points`` in turn, or why there is none, from one pass over them all.

    The accounting line maps the theta1 interval exactly onto the theta0
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

    usable, empty1, empty0, apart, lo1, hi1, lo0, hi0, slope, intercept = map(_column, (
        ref.usable, raw1[0] > raw1[1], raw0[0] > raw0[1], apart, lo1, hi1, lo0, hi0, slope, intercept
    ))
    for k, s in enumerate(points):
        if usable[k] and not (empty1[k] or empty0[k] or apart[k]):
            yield ThetaSegment(s, (lo1[k], lo0[k]), (hi1[k], hi0[k]), slope[k], intercept[k])
            continue
        reason = ref.refutation(k)
        if reason is None:
            which = "theta1" if empty1[k] else "theta0" if empty0[k] else "intersected theta1"
            reason = (
                f"no (theta1, theta0) is consistent with the data at "
                f"(s1={s.s1}, s0={s.s0}) under {a.value!r}: the {which} interval "
                "is empty, so the dependence assumption is refuted there"
            )
        yield reason


def sharp_segment(
    p: JointTR, s: RefPerf, a: DependenceAssumption = DependenceAssumption.NO_RESTRICTION
) -> ThetaSegment:
    """Sharp identified segment for (theta1, theta0) at known (s1, s0).

    Raises ``RefutationError`` when the data refute the maintained
    assumptions at ``s``, or a wrongly-agree restriction empties the set
    there (which refutes the dependence assumption rather than the data).
    """
    seg = next(_sharp_segments(p, (s,), a))
    if isinstance(seg, str):
        raise RefutationError(seg)
    return seg


def sharp_union(
    p: JointTR, S: SRegion, a: DependenceAssumption = DependenceAssumption.NO_RESTRICTION
) -> IdentifiedSet:
    """Union of sharp segments over the grid of reference values in ``S``.

    Grid points the data refute are dropped with a warning; only the true
    (s1, s0) needs to lie in the region, so one bad point does not doom
    the union.  All points refuted is an error.
    """
    points = sorted(S.points)
    segments = []
    for s, seg in zip(points, _sharp_segments(p, points, a)):
        if isinstance(seg, str):
            warnings.warn(f"dropping refuted reference point (s1={s.s1}, s0={s.s0}): {seg}", stacklevel=2)
        else:
            segments.append(seg)
    if not segments:
        raise RefutationError(
            "every (s1, s0) point in the region is refuted by the data"
        )
    return IdentifiedSet(segments=tuple(segments), assumption=a)


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
