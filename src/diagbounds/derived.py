"""Bounds on screened-population prevalence and on predictive values.

Prevalence in a population screened with the index test satisfies
P(y=1) = (q + theta0 - 1) / (theta1 + theta0 - 1), where q = P(t=1) is
the screened positive rate, a plain float in [0, 1].  Because the
identified set for (theta1, theta0) is a line segment (or a union of
them), the ratio is monotone along each segment and its extremes sit at
segment endpoints; treating the identified set as a rectangle of its
projections forgets that structure and strictly widens the bounds
whenever the segment is non-degenerate.  Both bounds are one rule,
``_ratio_bounds``: the ratio at candidate points (the two endpoints, or
the rectangle's four corners), clamped into [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .identification import IdentifiedSet, Interval, ThetaSegment

__all__ = [
    "PretestRange",
    "PrevalenceBounds",
    "prevalence_bounds_segment",
    "prevalence_bounds_rect",
    "prevalence_bounds_union",
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


@dataclass(frozen=True)
class PrevalenceBounds:
    """Interval of feasible prevalence values.

    ``vacuous`` marks the fallback [0, 1] that applies when some feasible
    (theta1, theta0) has theta1 = 1 - theta0 (the test could be pure
    noise, so the data say nothing about prevalence).  ``q_consistent``
    is False when the screened rate is impossible under every point of
    the segment; the interval then degenerates to the nearest boundary.
    ``components`` preserves the per-segment intervals behind a union
    hull, which can in principle be disconnected.
    """

    interval: Interval
    vacuous: bool = False
    q_consistent: bool = True
    components: tuple[Interval, ...] = field(default_factory=tuple)

    @property
    def width(self) -> float:
        return self.interval.width


_VACUOUS = Interval(0.0, 1.0)


def _ratio_bounds(
    q: float, points: list[tuple[float, float]], vacuous: bool
) -> PrevalenceBounds:
    """Prevalence at candidate (theta1, theta0) points, clamped into [0, 1].

    ``vacuous`` is the caller's test that theta1 + theta0 - 1 can vanish
    on its set; every prevalence is then feasible.  When every candidate
    falls outside [0, 1] the screened rate is impossible
    (``q_consistent`` False) and the interval is the nearest boundary.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"screened positive rate must lie in [0, 1], got {q}")
    if vacuous:
        return PrevalenceBounds(_VACUOUS, vacuous=True, components=(_VACUOUS,))
    values = [(q + t0 - 1.0) / (t1 + t0 - 1.0) for t1, t0 in points]
    lo, hi = min(values), max(values)
    if hi < 0.0:
        interval, ok = Interval(0.0, 0.0), False
    elif lo > 1.0:
        interval, ok = Interval(1.0, 1.0), False
    else:
        interval, ok = Interval(max(lo, 0.0), min(hi, 1.0)), True
    return PrevalenceBounds(interval, q_consistent=ok, components=(interval,))


def prevalence_bounds_segment(seg: ThetaSegment, q: float) -> PrevalenceBounds:
    """Sharp prevalence bounds from a segment: evaluate at its endpoints.

    If theta1 + theta0 - 1 vanishes or changes sign along the segment,
    every prevalence in [0, 1] is feasible and the bounds are vacuous.
    """
    d_lo = seg.lo[0] + seg.lo[1] - 1.0
    d_hi = seg.hi[0] + seg.hi[1] - 1.0
    crosses = d_lo * d_hi <= 0.0 or abs(d_lo) <= SIGN_TOL or abs(d_hi) <= SIGN_TOL
    return _ratio_bounds(q, [seg.lo, seg.hi], crosses)


def prevalence_bounds_rect(seg: ThetaSegment, q: float) -> PrevalenceBounds:
    """Prevalence bounds ignoring the segment's linear structure.

    Treats the identified set as the rectangle of its projections, which
    is what methods reporting only marginal theta bounds can do.  Always
    contains the sharp bounds; strictly wider unless the segment is a
    single point.  The rectangle reaches the theta1 = 1 - theta0 line as
    soon as its lower-left corner does, in which case every prevalence is
    feasible.  Clear of that line the ratio is coordinate-wise monotone,
    so its extremes sit at corners.
    """
    (t1l, t0l), (t1u, t0u) = seg.lo, seg.hi
    corners = [(t1l, t0l), (t1l, t0u), (t1u, t0l), (t1u, t0u)]
    return _ratio_bounds(q, corners, t1l + t0l - 1.0 <= SIGN_TOL)


def _combine(parts: list[PrevalenceBounds]) -> PrevalenceBounds:
    components = tuple(b.interval for b in parts)
    if any(b.vacuous for b in parts):
        return PrevalenceBounds(_VACUOUS, vacuous=True, components=components)
    consistent = [b.interval for b in parts if b.q_consistent]
    pool = consistent or components
    hull = Interval(min(iv.lo for iv in pool), max(iv.hi for iv in pool))
    return PrevalenceBounds(hull, q_consistent=bool(consistent), components=components)


def prevalence_bounds_union(identified: IdentifiedSet, q: float) -> PrevalenceBounds:
    """Union of per-segment sharp bounds, reported as hull plus components."""
    return _combine([prevalence_bounds_segment(seg, q) for seg in identified])


def prevalence_bounds_rect_union(identified: IdentifiedSet, q: float) -> PrevalenceBounds:
    """Union of per-segment rectangular bounds (the non-sharp comparator)."""
    return _combine([prevalence_bounds_rect(seg, q) for seg in identified])


def _ppv(theta1: float, theta0: float, pi: float) -> float | None:
    num = theta1 * pi
    den = num + (1.0 - theta0) * (1.0 - pi)
    if den == 0.0:
        return None
    return num / den


def _npv(theta1: float, theta0: float, pi: float) -> float | None:
    num = theta0 * (1.0 - pi)
    den = num + (1.0 - theta1) * pi
    if den == 0.0:
        return None
    return num / den


def predictive_value_bounds(
    identified: "IdentifiedSet | ThetaSegment", pi: PretestRange
) -> tuple[Interval, Interval]:
    """Bounds on PPV and NPV over the identified set and pre-test range.

    Both predictive values increase in theta1 and theta0 jointly, hence
    are monotone along each segment and extremal at its endpoints; PPV
    increases in the pre-test probability while NPV decreases in it.  A
    0/0 evaluation (e.g. a pure-noise corner) makes the affected quantity
    uninformative and returns the degenerate bound [0, 1].
    """
    segments = [identified] if isinstance(identified, ThetaSegment) else list(identified)
    ppv_lo = [_ppv(*seg.lo, pi.pi_lo) for seg in segments]
    ppv_hi = [_ppv(*seg.hi, pi.pi_hi) for seg in segments]
    npv_lo = [_npv(*seg.lo, pi.pi_hi) for seg in segments]
    npv_hi = [_npv(*seg.hi, pi.pi_lo) for seg in segments]

    if any(v is None for v in ppv_lo + ppv_hi):
        ppv = Interval(0.0, 1.0)
    else:
        ppv = Interval(min(ppv_lo), max(ppv_hi))
    if any(v is None for v in npv_lo + npv_hi):
        npv = Interval(0.0, 1.0)
    else:
        npv = Interval(min(npv_lo), max(npv_hi))
    return ppv, npv


def prevalence_width_curve(
    identified: IdentifiedSet, q_grid=None
) -> list[tuple[float, PrevalenceBounds, PrevalenceBounds]]:
    """Sharp and rectangular prevalence bounds along a grid of screened rates.

    Default grid is 201 equally spaced rates on [0, 1].  The sharp width
    never exceeds the rectangular width at any grid point.
    """
    if q_grid is None:
        q_grid = [i / 200.0 for i in range(201)]
    out = []
    for q in q_grid:
        out.append(
            (
                float(q),
                prevalence_bounds_union(identified, float(q)),
                prevalence_bounds_rect_union(identified, float(q)),
            )
        )
    return out
