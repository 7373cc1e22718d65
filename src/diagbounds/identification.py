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
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

from .probability import (
    DerivedRY,
    JointTR,
    RefPerf,
    RefutationError,
    SRegion,
    derived_joint_ry,
)

__all__ = [
    "DependenceAssumption",
    "Interval",
    "ThetaSegment",
    "IdentifiedSet",
    "sharp_segment",
    "sharp_union",
    "project",
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
    def theta1(self) -> Interval:
        return Interval(self.lo[0], self.hi[0])

    @property
    def theta0(self) -> Interval:
        return Interval(self.lo[1], self.hi[1])

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


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _latent_components(
    p: JointTR, d: DerivedRY, a: DependenceAssumption, j: int
) -> tuple[float, float, float, float]:
    """Feasible ranges for the two latent cells behind P(t=j, y=j).

    P(t=j, y=j) splits across the reference outcome into an r=j cell and
    an r=1-j cell; each latent cell moves freely between intersection
    bounds determined by P(t, r) and the implied P(r, y).  A tendency to
    wrongly agree for y=1 halves the mass available to (t=1, r=0, y=1)
    and, through the shared cell, caps (t=0, r=0, y=0) at
    P(t=0, r=0) - P(r=0, y=1)/2; wrongly agreeing for y=0 acts as the
    mirror image.  Returns (diag_lo, diag_hi, off_lo, off_hi).
    """
    wa1 = a in (DependenceAssumption.WRONGLY_AGREE_Y1, DependenceAssumption.WRONGLY_AGREE_BOTH)
    wa0 = a in (DependenceAssumption.WRONGLY_AGREE_Y0, DependenceAssumption.WRONGLY_AGREE_BOTH)
    if j == 1:
        # diag: P(t=1, r=1, y=1); off: P(t=1, r=0, y=1).
        diag_lo = max(0.0, p.p11 - d.p_r1_y0)
        diag_hi = min(p.p11, d.p_r1_y1)
        if wa0:
            diag_hi = min(diag_hi, p.p11 - d.p_r1_y0 / 2.0)
        off_lo = max(0.0, d.p_r0_y1 - p.p00)
        off_hi = min(p.p10, d.p_r0_y1)
        if wa1:
            off_hi = min(off_hi, d.p_r0_y1 / 2.0)
    else:
        # diag: P(t=0, r=0, y=0); off: P(t=0, r=1, y=0).
        diag_lo = max(0.0, p.p00 - d.p_r0_y1)
        diag_hi = min(p.p00, d.p_r0_y0)
        if wa1:
            diag_hi = min(diag_hi, p.p00 - d.p_r0_y1 / 2.0)
        off_lo = max(0.0, d.p_r1_y0 - p.p11)
        off_hi = min(p.p01, d.p_r1_y0)
        if wa0:
            off_hi = min(off_hi, d.p_r1_y0 / 2.0)
    return diag_lo, diag_hi, off_lo, off_hi


def theta_bounds_raw(
    p: JointTR, d: DerivedRY, a: DependenceAssumption, j: int
) -> tuple[float, float]:
    """Interval for theta_j before clamping; empty means ``a`` is refuted.

    The two latent cells vary independently, so the bounds are the sums
    of the per-cell extremes divided by P(y=j).  Either cell's range can
    empty out under a wrongly-agree restriction; the interval is then
    returned inverted for the caller to diagnose.
    """
    diag_lo, diag_hi, off_lo, off_hi = _latent_components(p, d, a, j)
    py = d.p_y1 if j == 1 else d.p_y0
    # A pinch within float noise is a point, not an empty set.
    if diag_hi < diag_lo <= diag_hi + 1e-12:
        diag_lo = diag_hi = 0.5 * (diag_lo + diag_hi)
    if off_hi < off_lo <= off_hi + 1e-12:
        off_lo = off_hi = 0.5 * (off_lo + off_hi)
    if diag_lo > diag_hi or off_lo > off_hi:
        return 1.0, 0.0
    return (diag_lo + off_lo) / py, (diag_hi + off_hi) / py


def sharp_segment(
    p: JointTR, s: RefPerf, a: DependenceAssumption = DependenceAssumption.NO_RESTRICTION
) -> ThetaSegment:
    """Sharp identified segment for (theta1, theta0) at known (s1, s0).

    The accounting line maps the theta1 interval exactly onto the theta0
    interval, so intersecting the two only absorbs floating-point noise;
    bounds are clamped to [0, 1] afterwards for the same reason.
    """
    d = derived_joint_ry(p, s)
    slope = d.p_y1 / d.p_y0
    intercept = 1.0 - p.p_t1 / d.p_y0

    def _empty(which: str) -> RefutationError:
        return RefutationError(
            f"no (theta1, theta0) is consistent with the data at "
            f"(s1={s.s1}, s0={s.s0}) under {a.value!r}: the {which} interval "
            "is empty, so the dependence assumption is refuted there"
        )

    # A wrongly-agree restriction can empty the set outright; that refutes
    # the dependence assumption at this (s1, s0) rather than the data.
    raw1 = theta_bounds_raw(p, d, a, 1)
    raw0 = theta_bounds_raw(p, d, a, 0)
    for raw, which in ((raw1, "theta1"), (raw0, "theta0")):
        if raw[0] > raw[1]:
            raise _empty(which)

    t1_lo, t1_hi = (_clamp01(v) for v in raw1)
    t0_lo, t0_hi = (_clamp01(v) for v in raw0)

    # Pull the theta0 interval back through the line and intersect.
    lo1 = max(t1_lo, (t0_lo - intercept) / slope)
    hi1 = min(t1_hi, (t0_hi - intercept) / slope)
    if lo1 > hi1:
        if lo1 - hi1 > 1e-9:
            raise _empty("intersected theta1")
        lo1 = hi1 = 0.5 * (lo1 + hi1)
    lo1, hi1 = _clamp01(lo1), _clamp01(hi1)
    lo = (lo1, _clamp01(slope * lo1 + intercept))
    hi = (hi1, _clamp01(slope * hi1 + intercept))
    return ThetaSegment(s=s, lo=lo, hi=hi, slope=slope, intercept=intercept)


def sharp_union(
    p: JointTR, S: SRegion, a: DependenceAssumption = DependenceAssumption.NO_RESTRICTION
) -> IdentifiedSet:
    """Union of sharp segments over the grid of reference values in ``S``.

    Grid points the data refute are dropped with a warning; only the true
    (s1, s0) needs to lie in the region, so one bad point does not doom
    the union.  All points refuted is an error.
    """
    segments = []
    for s in sorted(S.points):
        try:
            segments.append(sharp_segment(p, s, a))
        except RefutationError as exc:
            warnings.warn(
                f"dropping refuted reference point (s1={s.s1}, s0={s.s0}): {exc}",
                stacklevel=2,
            )
    if not segments:
        raise RefutationError(
            "every (s1, s0) point in the region is refuted by the data"
        )
    return IdentifiedSet(segments=tuple(segments), assumption=a)


def project(identified: IdentifiedSet, j: int) -> Interval:
    """Projection bounds on theta_j (j = 1 sensitivity, j = 0 specificity)."""
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    idx = 0 if j == 1 else 1
    lo = min(seg.lo[idx] for seg in identified.segments)
    hi = max(seg.hi[idx] for seg in identified.segments)
    return Interval(lo, hi)


def frechet_comparator(p: JointTR, s: RefPerf, j: int) -> Interval:
    """Marginals-only interval for theta_j; wider than the sharp projection.

    Uses only P(t=j) and the implied P(y=j), ignoring the (t, r) joint:
    [max(0, P(t=j) - P(y=1-j)), min(P(t=j), P(y=j))] / P(y=j).
    """
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    d = derived_joint_ry(p, s)
    pt = p.p_t1 if j == 1 else 1.0 - p.p_t1
    py = d.p_y1 if j == 1 else d.p_y0
    lo = max(0.0, pt - (1.0 - py)) / py
    hi = min(pt, py) / py
    return Interval(_clamp01(lo), _clamp01(hi))
