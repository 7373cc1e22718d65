"""Shared test utilities: random instances and independent oracles.

The oracles here deliberately avoid the library's closed-form bound
formulas: feasibility of latent cell configurations is checked directly,
so agreement with the fast path is evidence, not tautology.
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
from diagbounds.probability import derived_joint_ry

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
