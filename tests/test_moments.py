import numpy as np
import pytest

from diagbounds import (
    CellCounts,
    DependenceAssumption,
    JointTR,
    RefPerf,
    ThetaPoint,
    build_moment_system,
    estimate_joint,
    moment_stats,
    param_space_box,
    variance_floor,
)
from diagbounds.moments import CELLS_TR, N_COMPONENTS, moment_cell_tables

from helpers import TABLE_DATASETS, WA1, random_valid_instance


def test_factor_identity_at_perfect_specificity():
    # With s0 = 1 the weighting factor is r / s1; component 4 vanishes at
    # the cell (t, r) = (1, 1) when theta1 = s1.
    s = RefPerf(0.9, 1.0)
    system = build_moment_system(ThetaPoint(0.9, 0.985, s), DependenceAssumption.NO_RESTRICTION)
    assert system.cell_values[0, 3] == pytest.approx(0.9 * (1.0 / 0.9) - 1.0, abs=1e-15)


def test_interior_point_satisfies_population_moments():
    p = JointTR(0.45, 0.05, 0.05, 0.45)
    s = RefPerf(0.9, 0.9)
    system = build_moment_system(ThetaPoint(0.9, 0.9, s), DependenceAssumption.NO_RESTRICTION)
    st = moment_stats(p, system)
    assert np.all(st.means[:6] <= 1e-12)
    assert abs(st.means[6]) <= 1e-12


def test_point_outside_segment_violates_some_moment():
    from diagbounds import sharp_segment

    p = JointTR(0.45, 0.05, 0.05, 0.45)
    s = RefPerf(0.9, 0.9)
    seg = sharp_segment(p, s, DependenceAssumption.NO_RESTRICTION)
    # Sweep a coarse grid; any point off the segment by more than a pitch
    # must violate an inequality or the equality.
    grid = np.linspace(0.0, 1.0, 100)
    A, B, C = moment_cell_tables(DependenceAssumption.NO_RESTRICTION, s)
    w = np.asarray(p.cells)
    eA, eB, eC = w @ A, w @ B, w @ C
    pitch = grid[1] - grid[0]
    from helpers import segment_distance_linf

    for t1 in grid:
        for t0 in grid:
            e = eA + t1 * eB + t0 * eC
            ok = np.all(e[:6] <= 1e-12) and abs(e[6]) <= 1e-10
            if ok:
                assert segment_distance_linf(seg, t1, t0) <= pitch


def test_equality_pair_mirrors():
    s = RefPerf(0.85, 0.95)
    system = build_moment_system(ThetaPoint(0.7, 0.8, s), WA1)
    np.testing.assert_allclose(
        system.cell_values[:, 6], -system.cell_values[:, 7], atol=0, rtol=0
    )
    stats = moment_stats(estimate_joint(CellCounts(40, 25, 10, 25)), system)
    assert stats.means[6] == pytest.approx(-stats.means[7], abs=1e-15)
    assert stats.sds[6] == pytest.approx(stats.sds[7], abs=1e-15)


def test_moment_stats_match_per_observation_brute_force():
    counts = TABLE_DATASETS["eua_sx"]
    s = RefPerf(0.9, 1.0)
    system = build_moment_system(ThetaPoint(0.78, 0.99, s), WA1)
    stats = moment_stats(estimate_joint(counts), system)
    # Expand to one row per observation and average directly.
    rows = []
    for cell_idx, count in enumerate(counts.cells):
        rows.extend([system.cell_values[cell_idx]] * count)
    obs = np.asarray(rows)
    np.testing.assert_allclose(stats.means, obs.mean(axis=0), atol=1e-12, rtol=0)
    np.testing.assert_allclose(stats.sds, obs.std(axis=0), atol=1e-12, rtol=0)


def test_moment_stats_degenerate_single_cell():
    s = RefPerf(0.9, 0.95)
    system = build_moment_system(ThetaPoint(0.5, 0.5, s), DependenceAssumption.NO_RESTRICTION)
    stats = moment_stats(estimate_joint(CellCounts(7, 0, 0, 0)), system)
    np.testing.assert_allclose(stats.sds, 0.0, atol=1e-15)
    with pytest.raises(TypeError):
        moment_stats(CellCounts(7, 0, 0, 0), system)


def test_cell_values_affine_in_theta():
    rng = np.random.default_rng(12)
    for a in DependenceAssumption:
        s = RefPerf(rng.uniform(0.6, 1.0), rng.uniform(0.6, 1.0))
        if not s.is_informative:
            continue
        base = build_moment_system(ThetaPoint(0.3, 0.4, s), a).cell_values
        d1 = build_moment_system(ThetaPoint(0.3 + 0.25, 0.4, s), a).cell_values
        d0 = build_moment_system(ThetaPoint(0.3, 0.4 + 0.25, s), a).cell_values
        dd = build_moment_system(ThetaPoint(0.3 + 0.25, 0.4 + 0.25, s), a).cell_values
        # Affinity: mixed second difference vanishes, slopes add.
        np.testing.assert_allclose(dd - d1 - d0 + base, 0.0, atol=1e-12)
        half = build_moment_system(ThetaPoint(0.3 + 0.125, 0.4, s), a).cell_values
        np.testing.assert_allclose(2 * (half - base), d1 - base, atol=1e-12)


@pytest.mark.parametrize(
    "assumption, hi1, hi0",
    [
        (DependenceAssumption.NO_RESTRICTION, 1.0, 1.0),
        (DependenceAssumption.WRONGLY_AGREE_Y1, 0.95, 1.0),
        (DependenceAssumption.WRONGLY_AGREE_Y0, 1.0, 0.975),
        (DependenceAssumption.WRONGLY_AGREE_BOTH, 0.95, 0.975),
    ],
)
def test_param_space_box(assumption, hi1, hi0):
    box = param_space_box(assumption, RefPerf(0.9, 0.95))
    assert box[0] == (0.0, pytest.approx(hi1))
    assert box[1] == (0.0, pytest.approx(hi0))


def test_param_space_box_perfect_reference():
    box = param_space_box(DependenceAssumption.WRONGLY_AGREE_Y1, RefPerf(1.0, 1.0))
    assert box[0][1] == 1.0


def test_variance_floor_values():
    assert variance_floor(0.1).shape == (N_COMPONENTS,)
    assert variance_floor(0.25)[3] == pytest.approx(0.25, abs=1e-12)
    assert variance_floor(0.2)[4] == pytest.approx(0.2 * 0.8 * (1 - 4.0 / 9.0), abs=1e-12)
    np.testing.assert_allclose(variance_floor(1e-9), 0.0, atol=1e-7)
    assert np.all(variance_floor(0.1) > 0.0)
    with pytest.raises(ValueError):
        variance_floor(0.3)


def test_variance_floor_is_continuous_at_branch_point():
    lo = variance_floor(0.2 - 1e-9)
    hi = variance_floor(0.2)
    np.testing.assert_allclose(lo, hi, atol=1e-6, rtol=0)


def test_variance_floor_holds_for_random_distributions():
    rng = np.random.default_rng(13)
    for eps in (0.05, 0.15, 0.22):
        for _ in range(100):
            cells = rng.dirichlet(np.ones(4))
            cells = eps + cells * (1.0 - 4.0 * eps)
            p = JointTR(*cells)
            s1 = rng.uniform(0.5, 1.0)
            s0 = rng.uniform(0.5, 1.0)
            if s1 <= 1.0 - s0 + 0.05:
                continue
            s = RefPerf(s1, s0)
            a = list(DependenceAssumption)[rng.integers(0, 4)]
            box = param_space_box(a, s)
            theta = ThetaPoint(rng.uniform(0, box[0][1]), rng.uniform(0, box[1][1]), s)
            st = moment_stats(p, build_moment_system(theta, a))
            assert np.all(st.sds**2 >= variance_floor(eps) - 1e-12)
            assert np.all(st.sds > 0.0)


def test_cell_order_constant():
    assert CELLS_TR == ((1, 1), (0, 1), (1, 0), (0, 0))


def test_moment_system_requires_informative_reference():
    with pytest.raises(Exception):
        build_moment_system(ThetaPoint(0.5, 0.5, RefPerf(0.2, 0.5)), WA1)
