import numpy as np
import pytest

from diagbounds import (
    CellCounts,
    DependenceAssumption,
    JointTR,
    RefPerf,
    RefutationError,
    SRegion,
    estimate_joint,
    frechet_comparator,
    project,
    sharp_segment,
    sharp_union,
)

from helpers import (
    TABLE_DATASETS,
    WA1,
    brute_force_theta_bounds,
    random_valid_instance,
    segment_distance_linf,
)

EX1_P = JointTR(0.45, 0.05, 0.05, 0.45)
EX1_S = RefPerf(0.9, 0.9)


@pytest.mark.parametrize(
    "assumption, hi",
    [
        (DependenceAssumption.NO_RESTRICTION, 1.0),
        (DependenceAssumption.WRONGLY_AGREE_Y1, 0.95),
        (DependenceAssumption.WRONGLY_AGREE_BOTH, 0.9),
    ],
)
def test_worked_example_segments_exact(assumption, hi):
    seg = sharp_segment(EX1_P, EX1_S, assumption)
    np.testing.assert_allclose(seg.lo, (0.8, 0.8), atol=1e-12, rtol=0)
    np.testing.assert_allclose(seg.hi, (hi, hi), atol=1e-12, rtol=0)


def test_eua_segment_matches_published_projections():
    seg = sharp_segment(estimate_joint(TABLE_DATASETS["eua_sx"]), RefPerf(0.9, 1.0), WA1)
    assert seg.lo[0] == pytest.approx(0.761, abs=1e-3)
    assert seg.hi[0] == pytest.approx(0.800, abs=1e-3)
    assert seg.lo[1] == pytest.approx(0.985, abs=1e-3)
    assert seg.hi[1] == pytest.approx(1.000, abs=1e-3)


def test_theta_intervals_are_line_images_of_each_other():
    # The accounting line maps the raw theta1 interval exactly onto the
    # raw theta0 interval under every assumption, including the one-sided
    # wrongly-agree cross-caps.
    from diagbounds.identification import theta_bounds_raw
    from diagbounds.probability import derived_joint_ry

    rng = np.random.default_rng(17)
    for _ in range(150):
        p, s = random_valid_instance(rng)
        d = derived_joint_ry(p, s)
        slope = d.p_y1 / d.p_y0
        intercept = 1.0 - p.p_t1 / d.p_y0
        for a in DependenceAssumption:
            b1 = theta_bounds_raw(p, d, a, 1)
            b0 = theta_bounds_raw(p, d, a, 0)
            if b1[0] > b1[1] or b0[0] > b0[1]:
                assert b1[0] > b1[1] and b0[0] > b0[1]
                continue
            assert slope * b1[0] + intercept == pytest.approx(b0[0], abs=1e-12)
            assert slope * b1[1] + intercept == pytest.approx(b0[1], abs=1e-12)


def test_segment_endpoints_lie_on_line():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p, s = random_valid_instance(rng)
        for a in DependenceAssumption:
            try:
                seg = sharp_segment(p, s, a)
            except RefutationError:
                continue
            for t1, t0 in (seg.lo, seg.hi):
                assert abs(t0 - (seg.slope * t1 + seg.intercept)) <= 1e-10


def test_assumption_monotonicity():
    # Upper endpoints weakly decrease as restrictions pile up; lower fixed.
    rng = np.random.default_rng(4)
    order = [
        DependenceAssumption.NO_RESTRICTION,
        DependenceAssumption.WRONGLY_AGREE_Y1,
        DependenceAssumption.WRONGLY_AGREE_BOTH,
    ]
    for _ in range(100):
        p, s = random_valid_instance(rng)
        try:
            segs = [sharp_segment(p, s, a) for a in order]
        except RefutationError:
            continue
        for tighter, looser in zip(segs[1:], segs[:-1]):
            assert tighter.hi[0] <= looser.hi[0] + 1e-12
            assert tighter.hi[1] <= looser.hi[1] + 1e-12
            assert tighter.lo[0] == pytest.approx(looser.lo[0], abs=1e-12)
            assert tighter.lo[1] == pytest.approx(looser.lo[1], abs=1e-12)


def test_brute_force_oracle_agreement():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 30:
        p, s = random_valid_instance(rng)
        for a in DependenceAssumption:
            oracle = brute_force_theta_bounds(p, s, a, npts=50001)
            try:
                seg = sharp_segment(p, s, a)
            except RefutationError:
                if oracle is not None:
                    (lo1, hi1), _ = oracle
                    assert lo1 > hi1 - 1e-9
                continue
            assert oracle is not None
            (lo1, hi1), (lo0, hi0) = oracle
            assert seg.lo[0] == pytest.approx(lo1, abs=1e-3)
            assert seg.hi[0] == pytest.approx(hi1, abs=1e-3)
            assert seg.lo[1] == pytest.approx(lo0, abs=1e-3)
            assert seg.hi[1] == pytest.approx(hi0, abs=1e-3)
            checked += 1


def test_segment_distance_helper_is_exact():
    seg = sharp_segment(EX1_P, EX1_S, DependenceAssumption.NO_RESTRICTION)
    # On-segment points have distance 0; a point one unit off in theta0 has
    # sliding distance 1 / (1 + slope).
    assert segment_distance_linf(seg, 0.9, 0.9) == pytest.approx(0.0, abs=1e-12)
    d = segment_distance_linf(seg, 0.9, 0.95)
    assert d == pytest.approx(0.05 / (1.0 + seg.slope), abs=1e-12)


def test_union_of_singleton_matches_segment():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    s = RefPerf(0.9, 1.0)
    seg = sharp_segment(p, s, WA1)
    union = sharp_union(p, SRegion.singleton(0.9, 1.0), WA1)
    assert len(union) == 1
    assert union.segments[0] == seg


def test_union_projection_matches_sensitivity_table():
    region = SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=10)
    cases = {
        "eua_sx": (0.677, 0.800),
        "shah_sx": (0.655, 0.744),
        "shah_asx": (0.550, 0.669),
    }
    for name, (lo, hi) in cases.items():
        union = sharp_union(estimate_joint(TABLE_DATASETS[name]), region, WA1)
        proj = project(union, 1)
        assert proj.lo == pytest.approx(lo, abs=1e-3)
        assert proj.hi == pytest.approx(hi, abs=1e-3)


def test_union_monotone_in_region():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    small = SRegion.rectangle(0.85, 0.9, 1.0, 1.0, s1_points=6)
    large = SRegion.rectangle(0.80, 0.9, 1.0, 1.0, s1_points=11)
    for j in (0, 1):
        inner = project(sharp_union(p, small, WA1), j)
        outer = project(sharp_union(p, large, WA1), j)
        assert outer.lo <= inner.lo + 1e-12
        assert outer.hi >= inner.hi - 1e-12


def test_union_drops_refuted_points_with_warning():
    # P(t=1) = 0.5; s1 = 0.45 refutes, s1 = 0.9 passes.
    p = JointTR(0.3, 0.1, 0.2, 0.4)
    region = SRegion.from_points([(0.45, 0.9), (0.9, 0.9)])
    with pytest.warns(UserWarning, match="dropping refuted"):
        union = sharp_union(p, region, DependenceAssumption.NO_RESTRICTION)
    assert len(union) == 1
    assert union.segments[0].s.s1 == 0.9


def test_union_errors_when_all_refuted():
    p = JointTR(0.3, 0.1, 0.2, 0.4)
    region = SRegion.from_points([(0.45, 0.9), (0.48, 0.9)])
    with pytest.warns(UserWarning):
        with pytest.raises(RefutationError):
            sharp_union(p, region, DependenceAssumption.NO_RESTRICTION)


def test_projection_of_singleton_segment_degenerate():
    p = JointTR(0.3, 0.2, 0.2, 0.3)  # independent t, r
    s = RefPerf(1.0, 1.0)
    seg = sharp_segment(p, s, DependenceAssumption.NO_RESTRICTION)
    assert seg.lo == seg.hi
    union = sharp_union(p, SRegion.singleton(1.0, 1.0), DependenceAssumption.NO_RESTRICTION)
    proj = project(union, 1)
    assert proj.lo == proj.hi


def test_frechet_worked_example_is_unit_interval():
    iv = frechet_comparator(EX1_P, EX1_S, 1)
    assert (iv.lo, iv.hi) == (0.0, 1.0)


def test_frechet_depends_only_on_marginals():
    s = RefPerf(0.9, 0.9)
    p_conc = JointTR(0.45, 0.05, 0.05, 0.45)
    p_ind = JointTR(0.25, 0.25, 0.25, 0.25)  # same P(t=1), P(r=1) marginals
    for j in (0, 1):
        a = frechet_comparator(p_conc, s, j)
        b = frechet_comparator(p_ind, s, j)
        assert (a.lo, a.hi) == (b.lo, b.hi)


def test_frechet_eua_value():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    iv = frechet_comparator(p, RefPerf(0.9, 1.0), 1)
    # Marginals P(t=1) = 0.226087 and P(y=1) = 0.282609 give [0, 0.8].
    assert iv.lo == pytest.approx(0.0, abs=1e-12)
    assert iv.hi == pytest.approx(0.8, abs=1e-6)


def test_sharp_projection_contained_in_frechet():
    rng = np.random.default_rng(8)
    for _ in range(150):
        p, s = random_valid_instance(rng)
        for a in DependenceAssumption:
            try:
                seg = sharp_segment(p, s, a)
            except RefutationError:
                continue
            for j, iv in ((1, seg.theta1), (0, seg.theta0)):
                wide = frechet_comparator(p, s, j)
                assert wide.lo <= iv.lo + 1e-10
                assert wide.hi >= iv.hi - 1e-10


def test_identified_set_serialization():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    union = sharp_union(p, SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=3), WA1)
    d = union.to_dict()
    assert d["assumption"] == "wa1"
    assert len(d["segments"]) == 3
    rows = union.to_csv_rows()
    assert rows[0].startswith("s1,s0,theta1_lo")
    assert len(rows) == 4
