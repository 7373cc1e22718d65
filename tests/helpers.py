"""Shared test utilities: random instances and independent oracles.

The oracles here deliberately avoid the library's closed-form bound
formulas: feasibility of latent cell configurations is checked directly,
so agreement with the fast path is evidence, not tautology.  The
identification oracle is the scalar rule, one reference point at a time
in Python floats, against which the library's array rule over a whole
region is checked bit for bit, exceptions and warnings included.  The
prevalence and predictive-value oracles are the scalar endpoint rules,
one rate and one segment at a time, against which the array rules are
checked float for float.  The oracles return the scalar forms the library
held before its sets and curves became columns: ``ScalarSegment``, which
keeps the checks each segment once made of itself (the oracle of the
set's array checks), ``ScalarSet`` and ``PrevalenceBounds``;
``scalar_set`` and ``scalar_curve`` read the library's columns into them,
so that the two are compared by repr.  The kernel oracles are the
bootstrap test evaluated one row at a time, every step-two term in full,
and the chunked evaluation on all B draws with its zero and skip rules,
against both of which the kernel's candidate draws are checked bit for
bit.  The writer oracles format a set one point or segment at a time,
against which the one-pass CSV rows and set figures are checked byte for
byte.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from diagbounds import (
    CellCounts,
    DependenceAssumption,
    JointTR,
    RefPerf,
    RefutationError,
    validate_assumptions,
)
from diagbounds.derived import SIGN_TOL
from diagbounds.exactci import _BISECT_TOL, regularized_incomplete_beta
from diagbounds.identification import LINE_TOL, IdentifiedSet, Interval
from diagbounds.inference import _divider
from diagbounds.probability import PREVALENCE_GUARD, PROB_TOL, DerivedRY, ValidationReport, derived_joint_ry
from diagbounds.svgfig import SvgCanvas, _padded_box

TABLE_DATASETS = {
    "eua_sx": CellCounts(99, 18, 5, 338),
    "shah_sx": CellCounts(199, 44, 2, 684),
    "shah_asx": CellCounts(33, 15, 5, 824),
}

S_POINT = RefPerf(0.9, 1.0)

WA1 = DependenceAssumption.WRONGLY_AGREE_Y1


def counts_from_joint(p: JointTR, n: int) -> CellCounts:
    """Reconstruct integer counts from frequencies (inverse of estimation)."""
    return CellCounts(*(int(round(c * n)) for c in p.cells))


def random_valid_instance(rng, min_cell=0.02, prev_range=(0.1, 0.9)):
    """A joint distribution and reference point surviving validation."""
    while True:
        cells = rng.dirichlet(np.ones(4) * 2.0)
        if cells.min() < min_cell:
            continue
        p = JointTR(*cells)
        s1 = rng.uniform(0.55, 1.0)
        s0 = rng.uniform(0.55, 1.0)
        if s1 <= 1.0 - s0 + 0.1:
            continue
        s = RefPerf(s1, s0)
        rep = validate_assumptions(p, s)
        if not (rep.passed and rep.reference_rate_in_range):
            continue
        prev = (p.p_r1 + s0 - 1.0) / (s1 + s0 - 1.0)
        if not (prev_range[0] < prev < prev_range[1]):
            continue
        return p, s


def latent_feasible_ranges(p: JointTR, s: RefPerf, a: DependenceAssumption, npts: int):
    """Grid-scan feasibility of the two free latent cell probabilities.

    x = P(t=1, r=1, y=1) and z = P(t=1, r=0, y=1) parameterize all joint
    distributions of (t, r, y) consistent with P(t, r) and the implied
    P(r, y); the remaining six cells are linear in (x, z) and must be
    non-negative.  Wrongly-agree restrictions add one linear cap each.
    Returns the feasible x and z grids (possibly empty).
    """
    d = derived_joint_ry(p, s)
    g = np.linspace(0.0, 1.0, npts)
    tol = 1e-12
    x = g
    ok_x = (
        (x <= p.p11 + tol)
        & (x <= d.p_r1_y1 + tol)
        & (d.p_r1_y1 - x <= p.p01 + tol)
        & (p.p11 - x <= d.p_r1_y0 + tol)
    )
    z = g
    ok_z = (
        (z <= p.p10 + tol)
        & (z <= d.p_r0_y1 + tol)
        & (d.p_r0_y1 - z <= p.p00 + tol)
        & (p.p10 - z <= d.p_r0_y0 + tol)
    )
    if a in (DependenceAssumption.WRONGLY_AGREE_Y1, DependenceAssumption.WRONGLY_AGREE_BOTH):
        ok_z &= z <= d.p_r0_y1 / 2.0 + tol
    if a in (DependenceAssumption.WRONGLY_AGREE_Y0, DependenceAssumption.WRONGLY_AGREE_BOTH):
        ok_x &= p.p11 - x >= d.p_r1_y0 / 2.0 - tol
    return x[ok_x], z[ok_z], d


def brute_force_theta_bounds(p, s, a, npts=100001):
    """min/max of theta1 and theta0 over all feasible latent joints."""
    xs, zs, d = latent_feasible_ranges(p, s, a, npts)
    if xs.size == 0 or zs.size == 0:
        return None
    t1 = ((xs.min() + zs.min()) / d.p_y1, (xs.max() + zs.max()) / d.p_y1)

    def theta0(x, z):
        return (d.p_r0_y0 - (p.p10 - z) + d.p_r1_y0 - (p.p11 - x)) / d.p_y0

    t0 = (theta0(xs.min(), zs.min()), theta0(xs.max(), zs.max()))
    clamp = lambda v: min(1.0, max(0.0, v))
    return tuple(map(clamp, t1)), tuple(map(clamp, t0))


# The identification rules one reference point at a time, in Python floats:
# validation, the implied (r, y) table, the latent-cell ranges, the sharp
# segment and the marginals-only box as written before they became one
# array rule over a region.


def oracle_validate_assumptions(p: JointTR, s: RefPerf, eps: float | None = None) -> ValidationReport:
    lo, hi = 1.0 - s.s0, s.s1
    informative = s.is_informative
    t_ok = informative and (lo < p.p_t1 < hi)
    r_ok = informative and (lo < p.p_r1 < hi)
    boundary = min(abs(p.p_t1 - lo), abs(p.p_t1 - hi)) <= PROB_TOL
    floor_ok = None
    if eps is not None:
        floor_ok = p.satisfies_cell_floor(eps)
    return ValidationReport(
        passed=informative and t_ok,
        reference_informative=informative,
        index_rate_in_range=t_ok,
        reference_rate_in_range=r_ok,
        p_t1=p.p_t1,
        p_r1=p.p_r1,
        interval=(lo, hi),
        boundary_tie=boundary,
        cell_floor_ok=floor_ok,
    )


def oracle_derived_prevalence(p: JointTR, s: RefPerf) -> float:
    report = oracle_validate_assumptions(p, s)
    if not report.passed:
        raise RefutationError(
            "assumptions refuted by the data: " + "; ".join(report.violated_assumptions())
        )
    # Where s1 + s0 - 1 rounds to zero at a point that passes validation, the scalar rule
    # divided by zero; the library calls that prevalence NaN, hence degenerate.
    den = s.s1 + s.s0 - 1.0
    prev = (p.p_r1 + s.s0 - 1.0) / den if den != 0.0 else math.nan
    if not (PREVALENCE_GUARD < prev < 1.0 - PREVALENCE_GUARD):
        raise RefutationError(
            f"implied prevalence {prev!r} is degenerate: bounded prevalence "
            "is refuted for these reference characteristics "
            f"(P(r=1)={p.p_r1!r} outside ({1.0 - s.s0}, {s.s1}))"
        )
    return prev


def oracle_derived_joint_ry(p: JointTR, s: RefPerf) -> DerivedRY:
    prev = oracle_derived_prevalence(p, s)
    return DerivedRY(
        prevalence=prev,
        p_r1_y1=s.s1 * prev,
        p_r0_y1=(1.0 - s.s1) * prev,
        p_r1_y0=(1.0 - s.s0) * (1.0 - prev),
        p_r0_y0=s.s0 * (1.0 - prev),
    )


def _oracle_clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def oracle_latent_components(p: JointTR, d: DerivedRY, a: DependenceAssumption):
    """(diag_lo, diag_hi, off_lo, off_hi) of the latent cells behind theta1, then theta0."""
    wa1 = a in (DependenceAssumption.WRONGLY_AGREE_Y1, DependenceAssumption.WRONGLY_AGREE_BOTH)
    wa0 = a in (DependenceAssumption.WRONGLY_AGREE_Y0, DependenceAssumption.WRONGLY_AGREE_BOTH)

    def ranges(p_diag, p_off, p_mirror, r_agree, r_wrong, r_miss, wa_own, wa_mirror):
        diag_hi = min(p_diag, r_agree)
        if wa_mirror:
            diag_hi = min(diag_hi, p_diag - r_wrong / 2.0)
        off_hi = min(p_off, r_miss)
        if wa_own:
            off_hi = min(off_hi, r_miss / 2.0)
        return max(0.0, p_diag - r_wrong), diag_hi, max(0.0, r_miss - p_mirror), off_hi

    return (
        ranges(p.p11, p.p10, p.p00, d.p_r1_y1, d.p_r1_y0, d.p_r0_y1, wa1, wa0),
        ranges(p.p00, p.p01, p.p11, d.p_r0_y0, d.p_r0_y1, d.p_r1_y0, wa0, wa1),
    )


def oracle_theta_bounds_raw(p: JointTR, d: DerivedRY, a: DependenceAssumption):
    """Raw (theta1, theta0) intervals before clamping; (1.0, 0.0) when a restriction empties one."""

    def bounds(components, py):
        diag_lo, diag_hi, off_lo, off_hi = components
        if diag_hi < diag_lo <= diag_hi + 1e-12:
            diag_lo = diag_hi = 0.5 * (diag_lo + diag_hi)
        if off_hi < off_lo <= off_hi + 1e-12:
            off_lo = off_hi = 0.5 * (off_lo + off_hi)
        if diag_lo > diag_hi or off_lo > off_hi:
            return 1.0, 0.0
        return (diag_lo + off_lo) / py, (diag_hi + off_hi) / py

    theta1, theta0 = oracle_latent_components(p, d, a)
    return bounds(theta1, d.p_y1), bounds(theta0, d.p_y0)


# The scalar forms the library's columns replaced (see the module docstring).


@dataclass(frozen=True)
class ScalarSegment:
    """A line segment of jointly feasible (theta1, theta0) for fixed (s1, s0)."""

    s: RefPerf
    lo: tuple[float, float]
    hi: tuple[float, float]
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        (t1l, t0l), (t1u, t0u) = self.lo, self.hi
        if not (0.0 <= t1l <= t1u <= 1.0 and 0.0 <= t0l <= t0u <= 1.0):
            raise ValueError(f"segment endpoints out of order or range: {self.lo}, {self.hi}")
        if not self.slope > 0.0:
            raise ValueError(f"segment slope must be positive, got {self.slope}")
        for t1, t0 in (self.lo, self.hi):
            if not abs(t0 - (self.slope * t1 + self.intercept)) <= LINE_TOL:
                raise ValueError(
                    f"endpoint ({t1}, {t0}) is off the feasibility line by more "
                    f"than {LINE_TOL}"
                )


@dataclass(frozen=True)
class ScalarSet:
    """Union of per-(s1, s0) segments over a region of reference values."""

    segments: tuple[ScalarSegment, ...]
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
        return tuple(
            Interval(min(seg.lo[k] for seg in self.segments), max(seg.hi[k] for seg in self.segments))
            for k in (0, 1)
        )


@dataclass(frozen=True)
class PrevalenceBounds:
    interval: Interval
    vacuous: bool = False
    q_consistent: bool = True


def scalar_set(identified: IdentifiedSet) -> ScalarSet:
    """The library's set as one scalar segment per row, each checked again."""
    rows = zip(identified.s_points, identified.segments.tolist(), identified.slope.tolist(),
               identified.intercept.tolist())
    return ScalarSet(
        tuple(ScalarSegment(s, tuple(lo), tuple(hi), m, c) for s, (lo, hi), m, c in rows), identified.assumption
    )


def column_set(segments, assumption=DependenceAssumption.NO_RESTRICTION) -> IdentifiedSet:
    """Scalar segments as the library's set of columns."""
    return IdentifiedSet(
        assumption, tuple(g.s for g in segments), [(g.lo, g.hi) for g in segments],
        [g.slope for g in segments], [g.intercept for g in segments],
    )


def segment_sets(identified: IdentifiedSet) -> list[IdentifiedSet]:
    """Each segment of ``identified`` as the set of its one row."""
    columns = (identified.segments, identified.slope, identified.intercept)
    return [
        IdentifiedSet(identified.assumption, (s,), *(c[k : k + 1] for c in columns))
        for k, s in enumerate(identified.s_points)
    ]


def scalar_curve(curve) -> list:
    """A ``prevalence_width_curve``'s columns as (rate, sharp, rect) entries of one rate each."""

    def bounds(ends, vacuous, ok):
        return [PrevalenceBounds(Interval(lo, hi), vacuous, c) for (lo, hi), c in zip(ends.tolist(), ok.tolist())]

    sharp = bounds(curve.sharp, curve.sharp_vacuous, curve.sharp_q_consistent)
    rect = bounds(curve.rect, curve.rect_vacuous, curve.rect_q_consistent)
    return list(zip(curve.q.tolist(), sharp, rect))


def oracle_sharp_segment(p: JointTR, s: RefPerf, a: DependenceAssumption) -> ScalarSegment:
    d = oracle_derived_joint_ry(p, s)
    slope = d.p_y1 / d.p_y0
    intercept = 1.0 - p.p_t1 / d.p_y0

    def _empty(which: str) -> RefutationError:
        return RefutationError(
            f"no (theta1, theta0) is consistent with the data at "
            f"(s1={s.s1}, s0={s.s0}) under {a.value!r}: the {which} interval "
            "is empty, so the dependence assumption is refuted there"
        )

    raw1, raw0 = oracle_theta_bounds_raw(p, d, a)
    for raw, which in ((raw1, "theta1"), (raw0, "theta0")):
        if raw[0] > raw[1]:
            raise _empty(which)
    t1_lo, t1_hi = (_oracle_clamp01(v) for v in raw1)
    t0_lo, t0_hi = (_oracle_clamp01(v) for v in raw0)
    lo1 = max(t1_lo, (t0_lo - intercept) / slope)
    hi1 = min(t1_hi, (t0_hi - intercept) / slope)
    if lo1 > hi1:
        if lo1 - hi1 > 1e-9:
            raise _empty("intersected theta1")
        lo1 = hi1 = 0.5 * (lo1 + hi1)
    lo1, hi1 = _oracle_clamp01(lo1), _oracle_clamp01(hi1)
    lo = (lo1, _oracle_clamp01(slope * lo1 + intercept))
    hi = (hi1, _oracle_clamp01(slope * hi1 + intercept))
    return ScalarSegment(s=s, lo=lo, hi=hi, slope=slope, intercept=intercept)


def oracle_sharp_union(p: JointTR, points, a: DependenceAssumption) -> ScalarSet:
    segments = []
    for s in sorted(points):
        try:
            segments.append(oracle_sharp_segment(p, s, a))
        except RefutationError as exc:
            warnings.warn(f"dropping refuted reference point (s1={s.s1}, s0={s.s0}): {exc}", stacklevel=2)
    if not segments:
        raise RefutationError("every (s1, s0) point in the region is refuted by the data")
    return ScalarSet(segments=tuple(segments), assumption=a)


def oracle_frechet_comparator(p: JointTR, s: RefPerf) -> tuple[Interval, Interval]:
    d = oracle_derived_joint_ry(p, s)

    def bounds(pt, py):
        lo = max(0.0, pt - (1.0 - py)) / py
        hi = min(pt, py) / py
        return Interval(_oracle_clamp01(lo), _oracle_clamp01(hi))

    return bounds(p.p_t1, d.p_y1), bounds(1.0 - p.p_t1, d.p_y0)


def segment_distance_linf(seg, theta1, theta0):
    """Exact L-infinity distance from points to the segment of a one-row set, whose slope is > 0."""
    m, c = seg.slope[0], seg.intercept[0]
    (lo1, _), (hi1, _) = seg.segments[0]
    t1 = np.asarray(theta1, dtype=float)
    t0 = np.asarray(theta0, dtype=float)
    delta = t0 - (m * t1 + c)
    t_star = np.clip(t1 + delta / (1.0 + m), lo1, hi1)
    return np.maximum(np.abs(t1 - t_star), np.abs(t0 - (m * t_star + c)))


def retains(cs, theta1: float, theta0: float, s: RefPerf, tol: float = 1e-9) -> bool:
    """Whether the confidence set ``cs`` retains the grid point (theta1, theta0, s1, s0)."""
    target = np.array([theta1, theta0, s.s1, s.s0])
    return bool(np.any(np.all(np.abs(cs.points - target) <= tol, axis=1)))


def oracle_beta_quantile(q: float, a: float, b: float) -> float:
    """The definition of a Clopper-Pearson endpoint: bisection on [0, 1] evaluating every midpoint."""
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_clopper_pearson(successes: int, n: int, alpha: float) -> Interval:
    half = alpha / 2.0
    lo = 0.0 if successes == 0 else oracle_beta_quantile(half, successes, n - successes + 1)
    hi = 1.0 if successes == n else oracle_beta_quantile(1.0 - half, successes + 1, n - successes)
    return Interval(lo, hi)


# The scalar prevalence endpoint rule, one rate and one segment at a time,
# kept as the oracle of the array rule in ``diagbounds.derived``.

_VACUOUS = Interval(0.0, 1.0)


def oracle_ratio_bounds(q, points, vacuous):
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"screened positive rate must lie in [0, 1], got {q}")
    if vacuous:
        return PrevalenceBounds(_VACUOUS, vacuous=True)
    values = [(q + t0 - 1.0) / (t1 + t0 - 1.0) for t1, t0 in points]
    lo, hi = min(values), max(values)
    if hi < 0.0:
        interval, ok = Interval(0.0, 0.0), False
    elif lo > 1.0:
        interval, ok = Interval(1.0, 1.0), False
    else:
        interval, ok = Interval(max(lo, 0.0), min(hi, 1.0)), True
    return PrevalenceBounds(interval, q_consistent=ok)


def oracle_bounds_segment(seg, q):
    d_lo = seg.lo[0] + seg.lo[1] - 1.0
    d_hi = seg.hi[0] + seg.hi[1] - 1.0
    crosses = d_lo * d_hi <= 0.0 or abs(d_lo) <= SIGN_TOL or abs(d_hi) <= SIGN_TOL
    return oracle_ratio_bounds(q, [seg.lo, seg.hi], crosses)


def oracle_bounds_rect(seg, q):
    (t1l, t0l), (t1u, t0u) = seg.lo, seg.hi
    corners = [(t1l, t0l), (t1l, t0u), (t1u, t0l), (t1u, t0u)]
    return oracle_ratio_bounds(q, corners, t1l + t0l - 1.0 <= SIGN_TOL)


def oracle_combine(parts):
    if any(b.vacuous for b in parts):
        return PrevalenceBounds(_VACUOUS, vacuous=True)
    consistent = [b.interval for b in parts if b.q_consistent]
    pool = consistent or [b.interval for b in parts]
    hull = Interval(min(iv.lo for iv in pool), max(iv.hi for iv in pool))
    return PrevalenceBounds(hull, q_consistent=bool(consistent))


def oracle_bounds_union(identified, q):
    return oracle_combine([oracle_bounds_segment(seg, q) for seg in identified])


def oracle_bounds_rect_union(identified, q):
    return oracle_combine([oracle_bounds_rect(seg, q) for seg in identified])


def oracle_width_curve(identified, q_grid):
    return [
        (float(q), oracle_bounds_union(identified, float(q)), oracle_bounds_rect_union(identified, float(q)))
        for q in q_grid
    ]


# The predictive-value rule one segment at a time in Python floats, kept as
# the oracle of the array rule over the endpoints in ``diagbounds.derived``.


def _oracle_ppv(theta1, theta0, pi):
    num = theta1 * pi
    den = num + (1.0 - theta0) * (1.0 - pi)
    if den == 0.0:
        return None
    return num / den


def _oracle_npv(theta1, theta0, pi):
    num = theta0 * (1.0 - pi)
    den = num + (1.0 - theta1) * pi
    if den == 0.0:
        return None
    return num / den


def oracle_predictive_value_bounds(identified, pi):
    segments = list(identified)
    ppv_lo = [_oracle_ppv(*seg.lo, pi.pi_lo) for seg in segments]
    ppv_hi = [_oracle_ppv(*seg.hi, pi.pi_hi) for seg in segments]
    npv_lo = [_oracle_npv(*seg.lo, pi.pi_hi) for seg in segments]
    npv_hi = [_oracle_npv(*seg.hi, pi.pi_lo) for seg in segments]

    if any(v is None for v in ppv_lo + ppv_hi):
        ppv = Interval(0.0, 1.0)
    else:
        ppv = Interval(min(ppv_lo), max(ppv_hi))
    if any(v is None for v in npv_lo + npv_hi):
        npv = Interval(0.0, 1.0)
    else:
        npv = Interval(min(npv_lo), max(npv_hi))
    return ppv, npv


# The kernel's critical values one row at a time, every step-two term of
# every point in full: the evaluation as written before rows were chunked
# and shared or below-zero terms were skipped.  It reads the kernel's
# data-side statistics and bootstrap tables; the studentization and the
# quantile are written out here.


def oracle_stud(num, den):
    """A data-side statistic: num / den, and +-inf by the numerator's sign where den is 0 (-inf at 0)."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, -np.inf))


def oracle_term(num, den):
    """A bootstrap term: num / den, and -inf where den is 0, whatever the numerator."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, -np.inf)


def oracle_evaluate_row(kernel, u, v, alpha, beta, exact_zero=False):
    """T_n, critical values and step-two recenterings along ``v`` at one ``u``.

    With ``exact_zero`` each deviation of a component whose SD is 0 is
    exactly 0 and every term takes the data side's division
    (``oracle_stud``): the terms that exact zero deviations give.
    """
    div = oracle_stud if exact_zero else oracle_term
    rn = kernel.sqrt_n
    mu6, s6 = kernel._ineq_stats(u)
    dev6 = kernel.PA6.T + kernel.PU6.T * u  # (B, 6)
    if exact_zero:
        dev6[:, s6 == 0.0] = 0.0
    d6max = np.max(div(rn * dev6, s6), axis=1)
    scale = np.where(s6 > 0.0, s6 / rn, 0.0)
    base7 = kernel.PA7 + kernel.PU7 * u
    _, _, mu7, s7, tn = kernel._statistic(u, v)
    s7c = s7[:, None]

    d7 = rn * (base7[None, :] + v[:, None] * kernel.PV7[None, :])
    if exact_zero:
        d7[s7 == 0.0] = 0.0
    g1 = np.maximum(d6max[None, :], np.maximum(div(d7, s7c), div(-d7, s7c)))
    bhat = np.quantile(g1, 1.0 - beta, axis=-1, method="higher")

    scale7 = np.where(s7 > 0.0, s7 / rn, 0.0)
    with np.errstate(invalid="ignore"):
        lam6 = np.minimum(mu6[None, :] + bhat[:, None] * scale[None, :], 0.0)
        lam7a = np.minimum(mu7 + bhat * scale7, 0.0)
        lam7b = np.minimum(-mu7 + bhat * scale7, 0.0)

    gmax = div(rn * (dev6[None, :, 0] + lam6[:, 0, None]), s6[0])
    for j in range(1, 6):
        num = rn * (dev6[None, :, j] + lam6[:, j, None])
        np.maximum(gmax, div(num, s6[j]), out=gmax)
    np.maximum(gmax, div(d7 + rn * lam7a[:, None], s7c), out=gmax)
    np.maximum(gmax, div(-d7 + rn * lam7b[:, None], s7c), out=gmax)
    raw = np.quantile(gmax, 1.0 - alpha + beta, axis=-1, method="higher")
    parts = {
        "s6": s6, "s7": s7, "dev6": dev6, "lam6": lam6, "lam7a": lam7a, "lam7b": lam7b,
        "step_one": g1, "step_two": gmax, "raw": raw,
    }
    return tn, np.maximum(raw, 0.0), parts


def oracle_row_tables(kernel, ur, s6r):
    """The full row tables of rows at ``ur``, every component and draw at once.

    dev6 (rows, 6, B), the inequality deviations PA + PU u; d6max
    (rows, B), the maximum of their studentized values; top6 (rows, 6),
    each component's largest deviation; base7 (rows, B), PA7 + PU7 u.
    ``s6r`` is (rows, 6).
    """
    dev6 = kernel.PA6 + kernel.PU6 * ur[:, None, None]
    d6max = np.max(oracle_term(kernel.sqrt_n * dev6, s6r[:, :, None]), axis=1)
    return dev6, d6max, dev6.max(axis=2), kernel.PA7 + kernel.PU7 * ur[:, None]


def _oracle_rows(kernel, u, v, alpha, beta):
    """``oracle_evaluate_row`` over points (u[k], v[k]), one row per run of equal u: T_n, crit and raw."""
    tn, crit, raw = np.empty((3, len(v)))
    lo = 0
    while lo < len(u):
        hi = lo + 1
        while hi < len(u) and u[hi] == u[lo]:
            hi += 1
        tn[lo:hi], crit[lo:hi], parts = oracle_evaluate_row(kernel, float(u[lo]), np.asarray(v[lo:hi]), alpha, beta)
        raw[lo:hi] = parts["raw"]
        lo = hi
    return tn, crit, raw


def oracle_evaluate(kernel, u, v, alpha, beta):
    """T_n and critical values at the points (u[k], v[k]), one ``oracle_evaluate_row`` per run of equal u."""
    return _oracle_rows(kernel, u, v, alpha, beta)[:2]


def oracle_raw_critical_values(kernel, u, v, alpha, beta):
    """Step two's order statistic at the points (u[k], v[k]) before its floor at zero."""
    return _oracle_rows(kernel, u, v, alpha, beta)[2]


# The kernel's critical values as computed before candidate draws: chunks
# of consecutive points, each with its own row tables, every point
# evaluated on all B draws, with the zero rule (a row's shared
# +0.0-recentered term) and the skip rule (terms below zero at every draw
# of the row are left out of the step-two maximum).


def oracle_critical_values(kernel, u, v, alpha, beta):
    """T_n and critical values at the points (u[k], v[k]), all points one chunk."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    mu6, s6, mu7, s7, tn = kernel._statistic(u, v)
    rn, n, nb = kernel.sqrt_n, v.size, kernel.draws
    if n == 0:
        return tn, np.empty(0)
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(first)
    row = np.cumsum(first) - 1
    d7, g, w = np.empty((3, n, nb))
    dev6, z6 = np.empty((2, starts.size, 6, nb))
    base7, d6max = np.empty((2, starts.size, nb))

    # Row tables.  z6 holds the step-two terms recentered by +0.0; d6max, their maximum, is step one's.
    ur, s6c = u[first], s6[first][:, :, None]
    np.add(kernel.PA6, np.multiply(kernel.PU6, ur[:, None, None], out=dev6), out=dev6)
    _divider(s6c)(np.multiply(rn, np.add(dev6, 0.0, out=z6), out=z6), s6c, out=z6)
    np.max(z6, axis=1, out=d6max)
    top6 = np.max(dev6, axis=2)
    np.add(kernel.PA7, np.multiply(kernel.PU7, ur[:, None], out=base7), out=base7)
    s7c = s7[:, None]

    # Step 1.
    np.take(base7, row, axis=0, out=d7)
    np.add(d7, np.multiply(v[:, None], kernel.PV7, out=w), out=d7)
    np.multiply(rn, d7, out=d7)
    stud7 = _divider(s7c)
    stud7(np.abs(d7, out=g), s7c, out=g)
    np.maximum(np.take(d6max, row, axis=0), g, out=g)
    bhat = np.quantile(g, 1.0 - beta, axis=-1, method="higher")

    # Step 2, with the zero and skip rules.
    scale, scale7 = s6 / rn, s7 / rn
    with np.errstate(invalid="ignore"):
        lam6 = np.minimum(mu6 + bhat[:, None] * scale, 0.0)
        lam7a = np.minimum(mu7 + bhat * scale7, 0.0)
        lam7b = np.minimum(-mu7 + bhat * scale7, 0.0)
    top = _divider(s6)(rn * (top6[row] + lam6), s6)
    skip = np.logical_and.reduceat(top < 0.0, starts, axis=0).tolist()
    zero = np.logical_and.reduceat(lam6 == 0.0, starts, axis=0).tolist()
    g.fill(-np.inf)
    bounds = starts.tolist() + [n]
    for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        gr, wr = g[lo:hi], w[lo:hi]
        for j in range(6):
            if skip[r][j]:
                continue
            if zero[r][j]:
                np.maximum(gr, z6[r, j], out=gr)
                continue
            np.multiply(rn, np.add(dev6[r, j], lam6[lo:hi, j, None], out=wr), out=wr)
            np.maximum(gr, _divider(s6[lo, j])(wr, s6[lo, j], out=wr), out=gr)
    np.add(d7, rn * lam7a[:, None], out=w)
    np.maximum(g, stud7(w, s7c, out=w), out=g)
    np.add(np.negative(d7, out=w), rn * lam7b[:, None], out=w)
    np.maximum(g, stud7(w, s7c, out=w), out=g)
    return tn, np.maximum(np.quantile(g, 1.0 - alpha + beta, axis=-1, method="higher"), 0.0)


# The set writers one point or segment at a time: the CSV row f-strings and
# the set figure's per-point circle and per-segment line loops over Python
# lists, as written before each became one pass over the arrays.


def oracle_identified_csv_rows(identified):
    rows = ["s1,s0,theta1_lo,theta1_hi,theta0_lo,theta0_hi"]
    for seg in identified.segments:
        rows.append(
            f"{seg.s.s1:.10g},{seg.s.s0:.10g},{seg.lo[0]:.12g},{seg.hi[0]:.12g},"
            f"{seg.lo[1]:.12g},{seg.hi[1]:.12g}"
        )
    return rows


def oracle_csv_rows(cs):
    rows = ["theta1,theta0,s1,s0,Tn,crit,accepted"]
    for row, tn, cr in zip(cs.points, cs.t_n, cs.crit):
        rows.append(
            f"{row[0]:.12g},{row[1]:.12g},{row[2]:.10g},{row[3]:.10g},"
            f"{tn:.12g},{cr:.12g},1"
        )
    return rows


class _PointCanvas(SvgCanvas):
    def line(self, x1, y1, x2, y2, color="black", width=1.5):
        self._parts.append(
            f'<line x1="{self._x(x1):.2f}" y1="{self._y(y1):.2f}" '
            f'x2="{self._x(x2):.2f}" y2="{self._y(y2):.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def circle(self, x, y, r, color):
        self._parts.append(
            f'<circle cx="{self._x(x):.2f}" cy="{self._y(y):.2f}" r="{r}" fill="{color}"/>'
        )


def oracle_identified_set_figure(
    segments, apparent=None, apparent_box=None, scatter=None, comparator_box=None, title=""
):
    xs, ys = [], []
    for seg in segments:
        xs += [seg.lo[0], seg.hi[0]]
        ys += [seg.lo[1], seg.hi[1]]
    if apparent is not None:
        xs.append(apparent[0])
        ys.append(apparent[1])
    if apparent_box is not None:
        xs += [apparent_box[0], apparent_box[1]]
        ys += [apparent_box[2], apparent_box[3]]
    if scatter is not None and len(scatter):
        xs += [float(p[0]) for p in scatter]
        ys += [float(p[1]) for p in scatter]
    if comparator_box is not None:
        xs += [comparator_box[0], comparator_box[1]]
        ys += [comparator_box[2], comparator_box[3]]
    canvas = _PointCanvas(*_padded_box(xs, ys), x_label="sensitivity", y_label="specificity", title=title)
    if scatter is not None and len(scatter):
        step = max(1, len(scatter) // 3000)
        for p in scatter[::step]:
            canvas.circle(float(p[0]), float(p[1]), r=1.2, color="#9ecae1")
    if comparator_box is not None:
        canvas.rect(*comparator_box)
    for seg in segments:
        canvas.line(seg.lo[0], seg.lo[1], seg.hi[0], seg.hi[1], color="#d62728", width=2.5)
    if apparent_box is not None:
        canvas.rect(*apparent_box, stroke="#2ca02c", dash="2 2")
    if apparent is not None:
        canvas.circle(apparent[0], apparent[1], r=4.0, color="#d62728")
    return canvas.render()
