"""Shared test utilities: random instances and independent oracles.

The oracles here deliberately avoid the library's closed-form bound
formulas: feasibility of latent cell configurations is checked directly,
so agreement with the fast path is evidence, not tautology.  The
prevalence oracle is the scalar endpoint rule, one rate and one segment
at a time, against which the array rule is checked float for float.  The
kernel oracle is the bootstrap test evaluated one row at a time, every
step-two term in full, against which the chunked kernel is checked bit
for bit.  The writer oracles format a confidence set one point at a time,
against which the one-pass CSV rows and scatter figure are checked byte
for byte.
"""

from __future__ import annotations

import numpy as np

from diagbounds import (
    CellCounts,
    DependenceAssumption,
    JointTR,
    RefPerf,
    validate_assumptions,
)
from diagbounds.derived import SIGN_TOL, PrevalenceBounds
from diagbounds.identification import Interval
from diagbounds.probability import derived_joint_ry
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


def segment_distance_linf(seg, theta1, theta0):
    """Exact L-infinity distance from points to a segment with slope > 0."""
    m, c = seg.slope, seg.intercept
    t1 = np.asarray(theta1, dtype=float)
    t0 = np.asarray(theta0, dtype=float)
    delta = t0 - (m * t1 + c)
    t_star = np.clip(t1 + delta / (1.0 + m), seg.lo[0], seg.hi[0])
    return np.maximum(np.abs(t1 - t_star), np.abs(t0 - (m * t_star + c)))


def retains(cs, theta1: float, theta0: float, s: RefPerf, tol: float = 1e-9) -> bool:
    """Whether the confidence set ``cs`` retains the grid point (theta1, theta0, s1, s0)."""
    target = np.array([theta1, theta0, s.s1, s.s0])
    return bool(np.any(np.all(np.abs(cs.points - target) <= tol, axis=1)))


# The scalar prevalence endpoint rule, one rate and one segment at a time,
# kept as the oracle of the array rule in ``diagbounds.derived``.

_VACUOUS = Interval(0.0, 1.0)


def oracle_ratio_bounds(q, points, vacuous):
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
    components = tuple(b.interval for b in parts)
    if any(b.vacuous for b in parts):
        return PrevalenceBounds(_VACUOUS, vacuous=True, components=components)
    consistent = [b.interval for b in parts if b.q_consistent]
    pool = consistent or components
    hull = Interval(min(iv.lo for iv in pool), max(iv.hi for iv in pool))
    return PrevalenceBounds(hull, q_consistent=bool(consistent), components=components)


def oracle_bounds_union(identified, q):
    return oracle_combine([oracle_bounds_segment(seg, q) for seg in identified])


def oracle_bounds_rect_union(identified, q):
    return oracle_combine([oracle_bounds_rect(seg, q) for seg in identified])


def oracle_width_curve(identified, q_grid):
    return [
        (float(q), oracle_bounds_union(identified, float(q)), oracle_bounds_rect_union(identified, float(q)))
        for q in q_grid
    ]


# The kernel's critical values one row at a time, every step-two term of
# every point in full: the evaluation as written before rows were chunked
# and shared or below-zero terms were skipped.  It reads the kernel's
# data-side statistics and bootstrap tables; the studentization and the
# quantile are written out here.


def oracle_stud(num, den):
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, -np.inf))


def oracle_evaluate_row(kernel, u, v, alpha, beta):
    """T_n, critical values and step-two recenterings along ``v`` at one ``u``."""
    rn = kernel.sqrt_n
    mu6, s6 = kernel._ineq_stats(u)
    dev6 = kernel.PA6.T + kernel.PU6.T * u - mu6  # (B, 6)
    d6max = np.max(oracle_stud(rn * dev6, s6), axis=1)
    scale = np.where(s6 > 0.0, s6 / rn, 0.0)
    base7 = kernel.PA7 + kernel.PU7 * u
    _, _, mu7, s7, tn = kernel._statistic(u, v)
    s7c = s7[:, None]

    d7 = rn * (base7[None, :] + v[:, None] * kernel.PV7[None, :] - mu7[:, None])
    g1 = np.maximum(d6max[None, :], np.maximum(oracle_stud(d7, s7c), oracle_stud(-d7, s7c)))
    bhat = np.quantile(g1, 1.0 - beta, axis=-1, method="higher")

    scale7 = np.where(s7 > 0.0, s7 / rn, 0.0)
    with np.errstate(invalid="ignore"):
        lam6 = np.minimum(mu6[None, :] + bhat[:, None] * scale[None, :], 0.0)
        lam7a = np.minimum(mu7 + bhat * scale7, 0.0)
        lam7b = np.minimum(-mu7 + bhat * scale7, 0.0)

    gmax = oracle_stud(rn * (dev6[None, :, 0] + lam6[:, 0, None]), s6[0])
    for j in range(1, 6):
        num = rn * (dev6[None, :, j] + lam6[:, j, None])
        np.maximum(gmax, oracle_stud(num, s6[j]), out=gmax)
    np.maximum(gmax, oracle_stud(d7 + rn * lam7a[:, None], s7c), out=gmax)
    np.maximum(gmax, oracle_stud(-d7 + rn * lam7b[:, None], s7c), out=gmax)
    crit = np.maximum(np.quantile(gmax, 1.0 - alpha + beta, axis=-1, method="higher"), 0.0)
    parts = {"s6": s6, "s7": s7, "dev6": dev6, "lam6": lam6, "lam7a": lam7a, "lam7b": lam7b}
    return tn, crit, parts


def oracle_evaluate(kernel, u, v, alpha, beta):
    """``oracle_evaluate_row`` over points (u[k], v[k]), one row per run of equal u."""
    tn, crit = np.empty(len(v)), np.empty(len(v))
    lo = 0
    while lo < len(u):
        hi = lo + 1
        while hi < len(u) and u[hi] == u[lo]:
            hi += 1
        tn[lo:hi], crit[lo:hi], _ = oracle_evaluate_row(kernel, float(u[lo]), np.asarray(v[lo:hi]), alpha, beta)
        lo = hi
    return tn, crit


# The confidence-set writers one point at a time: the CSV row f-string and
# the scatter figure's per-point circle loop over Python lists, as written
# before each became one pass over the arrays.


def oracle_csv_rows(cs):
    rows = ["theta1,theta0,s1,s0,Tn,crit,accepted"]
    for row, tn, cr in zip(cs.points, cs.t_n, cs.crit):
        rows.append(
            f"{row[0]:.12g},{row[1]:.12g},{row[2]:.10g},{row[3]:.10g},"
            f"{tn:.12g},{cr:.12g},1"
        )
    return rows


class _PointCanvas(SvgCanvas):
    def circle(self, x, y, r, color):
        self._parts.append(
            f'<circle cx="{self._x(x):.2f}" cy="{self._y(y):.2f}" r="{r}" fill="{color}"/>'
        )


def oracle_identified_set_figure(
    segments, apparent=None, apparent_box=None, scatter=None, comparator_boxes=None, title=""
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
    if comparator_boxes:
        for box in comparator_boxes:
            xs += [box[0], box[1]]
            ys += [box[2], box[3]]
    canvas = _PointCanvas(*_padded_box(xs, ys), x_label="sensitivity", y_label="specificity", title=title)
    if scatter is not None and len(scatter):
        step = max(1, len(scatter) // 3000)
        for p in scatter[::step]:
            canvas.circle(float(p[0]), float(p[1]), r=1.2, color="#9ecae1")
    if comparator_boxes:
        for box in comparator_boxes:
            canvas.rect(*box)
    for seg in segments:
        canvas.line(seg.lo[0], seg.lo[1], seg.hi[0], seg.hi[1], color="#d62728", width=2.5)
    if apparent_box is not None:
        canvas.rect(*apparent_box, stroke="#2ca02c", dash="2 2")
    if apparent is not None:
        canvas.circle(apparent[0], apparent[1], r=4.0, color="#d62728")
    return canvas.render()
