import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagbounds import (
    CellCounts,
    DependenceAssumption,
    JointTR,
    RefPerf,
    RefutationError,
    SRegion,
    estimate_joint,
    frechet_comparator,
    sharp_segment,
    sharp_union,
    validate_assumptions,
)
from diagbounds.identification import LINE_TOL, IdentifiedSet
from diagbounds.probability import default_cell_floor, derived_joint_ry, derived_prevalence, reference_columns
from diagbounds.report import _frechet_box, _validation_records

from helpers import (
    TABLE_DATASETS,
    WA1,
    ScalarSegment,
    ScalarSet,
    brute_force_theta_bounds,
    oracle_derived_joint_ry,
    oracle_derived_prevalence,
    oracle_frechet_comparator,
    oracle_sharp_segment,
    oracle_sharp_union,
    oracle_theta_bounds_raw,
    oracle_validate_assumptions,
    random_valid_instance,
    scalar_set,
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
    lo, hi_end = sharp_segment(EX1_P, EX1_S, assumption).segments[0]
    np.testing.assert_allclose(lo, (0.8, 0.8), atol=1e-12, rtol=0)
    np.testing.assert_allclose(hi_end, (hi, hi), atol=1e-12, rtol=0)


def test_eua_segment_matches_published_projections():
    (lo1, lo0), (hi1, hi0) = sharp_segment(estimate_joint(TABLE_DATASETS["eua_sx"]), RefPerf(0.9, 1.0), WA1).segments[0]
    assert lo1 == pytest.approx(0.761, abs=1e-3)
    assert hi1 == pytest.approx(0.800, abs=1e-3)
    assert lo0 == pytest.approx(0.985, abs=1e-3)
    assert hi0 == pytest.approx(1.000, abs=1e-3)


def test_theta_intervals_are_line_images_of_each_other():
    # The accounting line maps the raw theta1 interval exactly onto the
    # raw theta0 interval under every assumption, including the one-sided
    # wrongly-agree cross-caps.
    # The raw intervals are read from the scalar oracle, which the library's
    # region rule matches bit for bit (test_region_rule_matches_the_scalar_oracle).
    rng = np.random.default_rng(17)
    for _ in range(150):
        p, s = random_valid_instance(rng)
        d = oracle_derived_joint_ry(p, s)
        slope = d.p_y1 / d.p_y0
        intercept = 1.0 - p.p_t1 / d.p_y0
        for a in DependenceAssumption:
            b1, b0 = oracle_theta_bounds_raw(p, d, a)
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
            for t1, t0 in seg.segments[0]:
                assert abs(t0 - (seg.slope[0] * t1 + seg.intercept[0])) <= 1e-10


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
            segs = [sharp_segment(p, s, a).segments[0] for a in order]
        except RefutationError:
            continue
        for (tight_lo, tight_hi), (loose_lo, loose_hi) in zip(segs[1:], segs[:-1]):
            assert tight_hi[0] <= loose_hi[0] + 1e-12
            assert tight_hi[1] <= loose_hi[1] + 1e-12
            assert tight_lo[0] == pytest.approx(loose_lo[0], abs=1e-12)
            assert tight_lo[1] == pytest.approx(loose_lo[1], abs=1e-12)


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
            lo, hi = seg.segments[0]
            assert lo[0] == pytest.approx(lo1, abs=1e-3)
            assert hi[0] == pytest.approx(hi1, abs=1e-3)
            assert lo[1] == pytest.approx(lo0, abs=1e-3)
            assert hi[1] == pytest.approx(hi0, abs=1e-3)
            checked += 1


def test_segment_distance_helper_is_exact():
    seg = sharp_segment(EX1_P, EX1_S, DependenceAssumption.NO_RESTRICTION)
    # On-segment points have distance 0; a point one unit off in theta0 has
    # sliding distance 1 / (1 + slope).
    assert segment_distance_linf(seg, 0.9, 0.9) == pytest.approx(0.0, abs=1e-12)
    d = segment_distance_linf(seg, 0.9, 0.95)
    assert d == pytest.approx(0.05 / (1.0 + seg.slope[0]), abs=1e-12)


def test_union_of_singleton_matches_segment():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    s = RefPerf(0.9, 1.0)
    seg = sharp_segment(p, s, WA1)
    union = sharp_union(p, SRegion.singleton(0.9, 1.0), WA1)
    assert len(union) == 1
    assert repr(scalar_set(union)) == repr(scalar_set(seg))
    assert union.projections == seg.projections


def test_union_projection_matches_sensitivity_table():
    region = SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=10)
    cases = {
        "eua_sx": (0.677, 0.800),
        "shah_sx": (0.655, 0.744),
        "shah_asx": (0.550, 0.669),
    }
    for name, (lo, hi) in cases.items():
        union = sharp_union(estimate_joint(TABLE_DATASETS[name]), region, WA1)
        proj = union.projections[0]
        assert proj.lo == pytest.approx(lo, abs=1e-3)
        assert proj.hi == pytest.approx(hi, abs=1e-3)


def test_union_monotone_in_region():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    small = SRegion.rectangle(0.85, 0.9, 1.0, 1.0, s1_points=6)
    large = SRegion.rectangle(0.80, 0.9, 1.0, 1.0, s1_points=11)
    for inner, outer in zip(sharp_union(p, small, WA1).projections, sharp_union(p, large, WA1).projections):
        assert outer.lo <= inner.lo + 1e-12
        assert outer.hi >= inner.hi - 1e-12


def test_union_drops_refuted_points_with_warning():
    # P(t=1) = 0.5; s1 = 0.45 refutes, s1 = 0.9 passes.
    p = JointTR(0.3, 0.1, 0.2, 0.4)
    region = SRegion((RefPerf(0.45, 0.9), RefPerf(0.9, 0.9)))
    with pytest.warns(UserWarning, match="dropping refuted"):
        union = sharp_union(p, region, DependenceAssumption.NO_RESTRICTION)
    assert len(union) == len(union.segments) == 1
    assert union.s_points[0].s1 == 0.9


def test_union_errors_when_all_refuted():
    p = JointTR(0.3, 0.1, 0.2, 0.4)
    region = SRegion((RefPerf(0.45, 0.9), RefPerf(0.48, 0.9)))
    with pytest.warns(UserWarning):
        with pytest.raises(RefutationError):
            sharp_union(p, region, DependenceAssumption.NO_RESTRICTION)


def test_projection_of_singleton_segment_degenerate():
    p = JointTR(0.3, 0.2, 0.2, 0.3)  # independent t, r
    s = RefPerf(1.0, 1.0)
    lo, hi = sharp_segment(p, s, DependenceAssumption.NO_RESTRICTION).segments[0]
    assert lo.tobytes() == hi.tobytes()
    union = sharp_union(p, SRegion.singleton(1.0, 1.0), DependenceAssumption.NO_RESTRICTION)
    proj = union.projections[0]
    assert proj.lo == proj.hi


def test_frechet_worked_example_is_unit_interval():
    iv = frechet_comparator(EX1_P, EX1_S)[0]
    assert (iv.lo, iv.hi) == (0.0, 1.0)


def test_frechet_depends_only_on_marginals():
    s = RefPerf(0.9, 0.9)
    p_conc = JointTR(0.45, 0.05, 0.05, 0.45)
    p_ind = JointTR(0.25, 0.25, 0.25, 0.25)  # same P(t=1), P(r=1) marginals
    assert frechet_comparator(p_conc, s) == frechet_comparator(p_ind, s)


def test_frechet_eua_value():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    iv = frechet_comparator(p, RefPerf(0.9, 1.0))[0]
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
            for iv, wide in zip(seg.projections, frechet_comparator(p, s)):
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


def _outcome(f, *args):
    """What ``f(*args)`` does: its result's repr (signed zeros included) or its exception, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("returns", repr(f(*args)))
        except (ArithmeticError, ValueError) as exc:  # RefutationError is a ValueError
            result = ("raises", type(exc).__name__, str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _segment_of(p, s, a):
    """``sharp_segment``'s one row as the scalar segment the oracle builds."""
    return scalar_set(sharp_segment(p, s, a)).segments[0]


def _union_of(p, S, a):
    """``sharp_union``'s rows as the scalar set the oracle builds."""
    return scalar_set(sharp_union(p, S, a))


def _oracle_validation_record(p, s, eps):
    rep = oracle_validate_assumptions(p, s, eps)
    return {
        "s1": s.s1, "s0": s.s0, "passed": rep.passed, "index_rate_in_range": rep.index_rate_in_range,
        "reference_rate_in_range": rep.reference_rate_in_range, "boundary_tie": rep.boundary_tie,
        "cell_floor_ok": rep.cell_floor_ok, "violated": list(rep.violated_assumptions()),
    }


def _oracle_frechet_box(p, points):
    boxes = []
    for s in points:
        try:
            boxes.append(oracle_frechet_comparator(p, s))
        except RefutationError:
            continue
    if not boxes:
        return None
    f1, f0 = zip(*boxes)
    return {"theta1": [min(i.lo for i in f1), max(i.hi for i in f1)],
            "theta0": [min(i.lo for i in f0), max(i.hi for i in f0)]}


@st.composite
def _regions(draw):
    """A table (empty cells included) and reference points on and around its refutation boundaries."""
    cells = draw(st.tuples(*[st.integers(0, 60)] * 4).filter(any) | st.tuples(*[st.integers(0, 10**6)] * 4).filter(any))
    p = estimate_joint(CellCounts(*cells))
    # P(t=1) at an end of (1 - s0, s1) is a boundary tie; P(r=1) there makes the prevalence 0 or 1.
    edges = [0.0, 0.5, 1.0, p.p_t1, 1.0 - p.p_t1, p.p_r1, 1.0 - p.p_r1]
    edges += [math.nextafter(x, d) for x in edges for d in (0.0, 1.0)]
    value = st.floats(0.0, 1.0) | st.sampled_from(edges) | st.floats(0.8, 1.0)
    points = draw(st.lists(st.builds(RefPerf, value, value), min_size=1, max_size=12))
    return cells, points


_TABLES = [(99, 18, 5, 338), (199, 44, 2, 684), (33, 15, 5, 824)]
_RECT = [(s1, s0) for s1 in (0.8, 0.85, 0.9) for s0 in (0.98, 1.0)]


@settings(max_examples=200, deadline=None)
@example(case=(_TABLES[0], [RefPerf(*s) for s in _RECT]))
@example(case=(_TABLES[1], [RefPerf(*s) for s in _RECT]))
@example(case=(_TABLES[2], [RefPerf(*s) for s in _RECT]))
@example(case=((0, 3, 0, 4), [RefPerf(0.9, 1.0), RefPerf(0.8, 0.7), RefPerf(1.0, 1.0)]))  # empty cells: pinches
@example(case=((30, 20, 20, 30), [RefPerf(1.0, 1.0), RefPerf(0.9, 0.9)]))  # a point segment
@example(case=((0, 0, 1, 2), [RefPerf(0.33333333333333337, 0.6666666666666667)]))  # s1 + s0 - 1 rounds to 0
@given(case=_regions())
def test_region_rule_matches_the_scalar_oracle(case):
    # The region rule over all points at once against the scalar rule one point
    # at a time, bit for bit: segments by repr, dropped points and their
    # warnings, the comparator box and the validation records; and each
    # one-point view against its scalar original, exceptions included.
    cells, points = case
    p = estimate_joint(CellCounts(*cells))
    eps = default_cell_floor(sum(cells))
    for s in points:
        for view, oracle in (
            (derived_prevalence, oracle_derived_prevalence),
            (derived_joint_ry, oracle_derived_joint_ry),
            (frechet_comparator, oracle_frechet_comparator),
        ):
            assert _outcome(view, p, s) == _outcome(oracle, p, s)
        assert _outcome(validate_assumptions, p, s, eps) == _outcome(oracle_validate_assumptions, p, s, eps)
        for a in DependenceAssumption:
            assert _outcome(_segment_of, p, s, a) == _outcome(oracle_sharp_segment, p, s, a)

    ref = reference_columns(p, points)
    floor_ok = p.satisfies_cell_floor(eps)
    assert repr(_validation_records(ref, floor_ok)) == repr([_oracle_validation_record(p, s, eps) for s in points])
    assert repr(_frechet_box(ref)) == repr(_oracle_frechet_box(p, points))
    region = [s for s in points if s.is_informative]
    if region:
        for a in DependenceAssumption:
            assert _outcome(_union_of, p, SRegion(tuple(region)), a) == _outcome(oracle_sharp_union, p, region, a)


# Values at the edges of the set's checks: signed zeros, the ends of the
# unit interval and just past them, infinities and NaN.
_EDGES = st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, -1e-300, 1.0 + 2**-52, 5e-324, math.inf, -math.inf, math.nan, 2.0, -1.0]
)
_NUDGES = st.sampled_from([0.0, 0.0, LINE_TOL / 2, -LINE_TOL / 2, 2 * LINE_TOL, -2 * LINE_TOL, 1e-3])


@st.composite
def _rows(draw):
    """One segment as (theta1_lo, theta0_lo, theta1_hi, theta0_hi, slope, intercept): most on their
    line, some nudged off it by about the line tolerance, some with an entry replaced by an edge value."""
    unit = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 5e-324])
    t1_lo, t1_hi = sorted(draw(st.lists(unit, min_size=2, max_size=2)))
    t0_lo, t0_hi = sorted(draw(st.lists(unit, min_size=2, max_size=2)))
    if t1_hi > t1_lo and t0_hi > t0_lo:
        slope = (t0_hi - t0_lo) / (t1_hi - t1_lo)
    else:
        slope = draw(st.floats(0.01, 100.0))
    row = [t1_lo, t0_lo, t1_hi, t0_hi + draw(_NUDGES), slope, t0_lo - slope * t1_lo]
    for i in draw(st.lists(st.integers(0, 5), max_size=2)):
        row[i] = draw(_EDGES)
    return row


def _column_set(rows):
    ends = [[(t1l, t0l), (t1u, t0u)] for t1l, t0l, t1u, t0u, _, _ in rows]
    return IdentifiedSet(WA1, (RefPerf(0.9, 1.0),) * len(rows), ends, [r[4] for r in rows], [r[5] for r in rows])


def _scalar_set(rows):
    segments = (ScalarSegment(RefPerf(0.9, 1.0), (t1l, t0l), (t1u, t0u), m, c) for t1l, t0l, t1u, t0u, m, c in rows)
    return ScalarSet(tuple(segments), WA1)


_ORIGIN, _NEGATIVE_ORIGIN = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [-0.0, -0.0, -0.0, -0.0, 1.0, 0.0]


@settings(max_examples=200, deadline=None)
@example(rows=[_ORIGIN, _NEGATIVE_ORIGIN])  # every projection end ties 0.0 against -0.0: the first is kept
@example(rows=[_NEGATIVE_ORIGIN, _ORIGIN])
@example(rows=[[0.25, 0.625, 0.5, 0.75, 0.5, 0.5], [math.nan, 0.625, 0.5, 0.75, 0.5, 0.5]])  # a NaN endpoint
@example(rows=[[0.25, 0.625, 0.5, 0.75, math.nan, 0.5]])  # a NaN slope is refused
@example(rows=[[0.25, 0.625, 0.5, 0.75, 0.5, math.nan]])  # and so is a NaN intercept
@example(rows=[[0.25, 0.625, 0.5, 0.75, math.inf, math.nan]])  # an infinite slope with a NaN intercept
@example(rows=[[0.0, 0.0, 5e-324, 0.125, math.inf, -math.nan]])  # inf * 0.0 on the line, quietly
@example(rows=[[0.25, 0.625, 0.5, 0.75, 0.5, 0.5], [0.25, 0.625, 0.5, 0.75, math.nan, 0.5]])  # a NaN row after a good one
@example(rows=[[0.25, 0.625, 0.5, 0.75, -0.0, 0.5]])  # a zero slope
@example(rows=[[0.25, 0.625 + 2 * LINE_TOL, 0.5, 0.75 + 2 * LINE_TOL, 0.5, 0.5]])  # both ends off the line
@given(rows=st.lists(_rows(), min_size=1, max_size=4))
def test_set_checks_refuse_what_the_segment_checks_refuse(rows):
    # The set's array checks against the checks each segment once made of
    # itself: the same sets refused, NaN rows included, with the same
    # message, and an accepted set's projections by repr (signed zeros
    # included).  Each row is also checked as a set of its own.
    for part in [rows] + [[row] for row in rows]:
        got = _outcome(lambda: _column_set(part).projections)
        assert got == _outcome(lambda: _scalar_set(part).projections)
        if any(math.isnan(m) or math.isnan(c) for *_, m, c in part):
            assert got[0][0] == "raises"
