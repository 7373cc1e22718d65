import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbounds import (
    DependenceAssumption,
    JointTR,
    PretestRange,
    RefPerf,
    SRegion,
    estimate_joint,
    predictive_value_bounds,
    prevalence_bounds_rect,
    prevalence_bounds_segment,
    prevalence_bounds_union,
    sharp_segment,
    sharp_union,
)
from diagbounds.datasets import list_datasets, load_dataset
from diagbounds.derived import prevalence_bounds_rect_union, prevalence_width_curve
from diagbounds.identification import RefutationError, ThetaSegment

from helpers import TABLE_DATASETS, WA1, random_valid_instance

EX1_SEG = sharp_segment(
    JointTR(0.45, 0.05, 0.05, 0.45), RefPerf(0.9, 0.9), DependenceAssumption.NO_RESTRICTION
)


def _singleton_segment(theta1, theta0):
    prev = 0.5
    slope = prev / (1 - prev)
    pt1 = theta1 * prev + (1 - theta0) * (1 - prev)
    intercept = 1 - pt1 / (1 - prev)
    return ThetaSegment(
        s=RefPerf(0.9, 0.9),
        lo=(theta1, theta0),
        hi=(theta1, theta0),
        slope=slope,
        intercept=intercept,
    )


def test_singleton_segment_point_value():
    seg = _singleton_segment(0.8, 0.9)
    b = prevalence_bounds_segment(seg, 0.3)
    assert b.interval.lo == pytest.approx(0.285714, abs=1e-6)
    assert b.interval.hi == pytest.approx(0.285714, abs=1e-6)
    assert not b.vacuous


def test_worked_example_point_identification_despite_partial_id():
    b = prevalence_bounds_segment(EX1_SEG, 0.5)
    assert b.interval.lo == pytest.approx(0.5, abs=1e-12)
    assert b.interval.hi == pytest.approx(0.5, abs=1e-12)


def test_rect_bounds_worked_example():
    b = prevalence_bounds_rect(EX1_SEG, 0.5)
    assert b.interval.lo == pytest.approx(0.375, abs=1e-12)
    assert b.interval.hi == pytest.approx(0.625, abs=1e-12)


def test_vacuous_when_segment_crosses_antidiagonal():
    p = JointTR(0.25, 0.25, 0.25, 0.25)
    seg = sharp_segment(p, RefPerf(0.8, 0.8), DependenceAssumption.NO_RESTRICTION)
    assert seg.lo[0] + seg.lo[1] - 1.0 < 0.0 < seg.hi[0] + seg.hi[1] - 1.0
    b = prevalence_bounds_segment(seg, 0.3)
    assert b.vacuous and (b.interval.lo, b.interval.hi) == (0.0, 1.0)


def test_rect_strictly_wider_on_eua_segment():
    seg = sharp_segment(estimate_joint(TABLE_DATASETS["eua_sx"]), RefPerf(0.9, 1.0), WA1)
    sharp = prevalence_bounds_segment(seg, 0.2)
    rect = prevalence_bounds_rect(seg, 0.2)
    assert rect.interval.lo < sharp.interval.lo
    assert rect.interval.hi > sharp.interval.hi


def test_rect_equals_segment_for_singleton():
    seg = _singleton_segment(0.8, 0.9)
    for q in (0.1, 0.3, 0.7):
        a = prevalence_bounds_segment(seg, q)
        b = prevalence_bounds_rect(seg, q)
        assert a.interval.lo == pytest.approx(b.interval.lo, abs=1e-12)
        assert a.interval.hi == pytest.approx(b.interval.hi, abs=1e-12)


def test_sharp_within_rect_everywhere():
    rng = np.random.default_rng(9)
    tested = 0
    while tested < 200:
        p, s = random_valid_instance(rng)
        try:
            seg = sharp_segment(p, s, DependenceAssumption.NO_RESTRICTION)
        except RefutationError:
            continue
        q = rng.uniform(0.0, 1.0)
        sharp = prevalence_bounds_segment(seg, q)
        rect = prevalence_bounds_rect(seg, q)
        if rect.vacuous:
            continue
        assert sharp.interval.lo >= rect.interval.lo - 1e-10
        assert sharp.interval.hi <= rect.interval.hi + 1e-10
        if not seg.is_singleton and not sharp.vacuous and sharp.q_consistent:
            assert sharp.interval.width < rect.interval.width + 1e-12
        tested += 1


def test_segment_bounds_match_dense_scan():
    # Endpoint evaluation equals the extremes over a dense discretization.
    rng = np.random.default_rng(10)
    tested = 0
    while tested < 50:
        p, s = random_valid_instance(rng)
        try:
            seg = sharp_segment(p, s, DependenceAssumption.NO_RESTRICTION)
        except RefutationError:
            continue
        d_lo = seg.lo[0] + seg.lo[1] - 1.0
        d_hi = seg.hi[0] + seg.hi[1] - 1.0
        if d_lo * d_hi <= 0 or min(abs(d_lo), abs(d_hi)) < 1e-6:
            continue
        q = rng.uniform(0.0, 1.0)
        t1 = np.linspace(seg.lo[0], seg.hi[0], 10001)
        t0 = seg.slope * t1 + seg.intercept
        vals = (q + t0 - 1.0) / (t1 + t0 - 1.0)
        lo, hi = np.clip([vals.min(), vals.max()], 0.0, 1.0)
        b = prevalence_bounds_segment(seg, q)
        if not b.q_consistent:
            assert hi <= 0 or lo >= 1
            continue
        assert b.interval.lo == pytest.approx(lo, abs=1e-9)
        assert b.interval.hi == pytest.approx(hi, abs=1e-9)
        tested += 1


def test_union_hull_and_components():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    union = sharp_union(p, SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=10), WA1)
    q = 0.226087
    b = prevalence_bounds_union(union, q)
    assert len(b.components) == 10
    # The screened rate equals the study's own P(t=1), so the implied
    # prevalence at s1 = 0.9 must be admitted.
    assert b.interval.lo - 1e-9 <= 0.282609 <= b.interval.hi + 1e-9
    for comp in b.components:
        assert comp.lo >= b.interval.lo - 1e-12
        assert comp.hi <= b.interval.hi + 1e-12


def test_union_singleton_equals_segment():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    union = sharp_union(p, SRegion.singleton(0.9, 1.0), WA1)
    for q in (0.1, 0.226087, 0.5):
        a = prevalence_bounds_union(union, q)
        b = prevalence_bounds_segment(union.segments[0], q)
        assert a.interval == b.interval


def test_union_hull_of_two_disjoint_components():
    seg_a = _singleton_segment(0.9, 0.95)
    seg_b = _singleton_segment(0.7, 0.8)
    from diagbounds.identification import IdentifiedSet

    union = IdentifiedSet(segments=(seg_a, seg_b), assumption=DependenceAssumption.NO_RESTRICTION)
    b = prevalence_bounds_union(union, 0.4)
    lo = min(c.lo for c in b.components)
    hi = max(c.hi for c in b.components)
    assert (b.interval.lo, b.interval.hi) == (lo, hi)


def test_predictive_values_perfect_test():
    seg = _singleton_segment(1.0, 1.0)
    ppv, npv = predictive_value_bounds(seg, PretestRange(0.2, 0.2))
    assert (ppv.lo, ppv.hi) == (1.0, 1.0)
    assert (npv.lo, npv.hi) == (1.0, 1.0)


def test_predictive_values_point_formulas():
    seg = _singleton_segment(0.8, 0.9)
    ppv, npv = predictive_value_bounds(seg, PretestRange(0.2, 0.2))
    assert ppv.lo == pytest.approx(0.666667, abs=1e-6)
    assert ppv.hi == pytest.approx(0.666667, abs=1e-6)
    assert npv.lo == pytest.approx(0.947368, abs=1e-6)
    assert npv.hi == pytest.approx(0.947368, abs=1e-6)


def test_predictive_values_brute_force_over_segment():
    pi = PretestRange(0.1, 0.3)
    ppv, npv = predictive_value_bounds(EX1_SEG, pi)
    t1 = np.linspace(EX1_SEG.lo[0], EX1_SEG.hi[0], 10001)
    t0 = EX1_SEG.slope * t1 + EX1_SEG.intercept
    ppv_vals = []
    npv_vals = []
    for pival in (pi.pi_lo, pi.pi_hi):
        ppv_vals.append(t1 * pival / (t1 * pival + (1 - t0) * (1 - pival)))
        npv_vals.append(t0 * (1 - pival) / (t0 * (1 - pival) + (1 - t1) * pival))
    assert ppv.lo == pytest.approx(min(v.min() for v in ppv_vals), abs=1e-9)
    assert ppv.hi == pytest.approx(max(v.max() for v in ppv_vals), abs=1e-9)
    assert npv.lo == pytest.approx(min(v.min() for v in npv_vals), abs=1e-9)
    assert npv.hi == pytest.approx(max(v.max() for v in npv_vals), abs=1e-9)


def test_predictive_values_degenerate_denominator():
    seg = _singleton_segment(0.0, 1.0)  # never-positive test
    ppv, npv = predictive_value_bounds(seg, PretestRange(0.2, 0.4))
    assert (ppv.lo, ppv.hi) == (0.0, 1.0)  # PPV is 0/0


def test_predictive_values_monotone_in_inputs():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    small = sharp_union(p, SRegion.singleton(0.9, 1.0), WA1)
    large = sharp_union(p, SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=10), WA1)
    ppv_s, npv_s = predictive_value_bounds(small, PretestRange(0.2, 0.3))
    ppv_l, npv_l = predictive_value_bounds(large, PretestRange(0.2, 0.3))
    assert ppv_l.lo <= ppv_s.lo and ppv_l.hi >= ppv_s.hi
    assert npv_l.lo <= npv_s.lo and npv_l.hi >= npv_s.hi
    narrow = predictive_value_bounds(small, PretestRange(0.25, 0.25))
    wide = predictive_value_bounds(small, PretestRange(0.1, 0.4))
    for n_iv, w_iv in zip(narrow, wide):
        assert w_iv.lo <= n_iv.lo and w_iv.hi >= n_iv.hi


def test_width_curve_dominance_and_shape():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    union = sharp_union(p, SRegion.singleton(0.9, 1.0), WA1)
    curve = prevalence_width_curve(union)
    assert len(curve) == 201
    for q, sharp, rect in curve:
        assert sharp.interval.width <= rect.interval.width + 1e-12


def test_width_curve_singleton_theta_zero_everywhere():
    from diagbounds.identification import IdentifiedSet

    seg = _singleton_segment(0.8, 0.9)
    union = IdentifiedSet(segments=(seg,), assumption=DependenceAssumption.NO_RESTRICTION)
    for q, sharp, rect in prevalence_width_curve(union, q_grid=[0.1, 0.5, 0.9]):
        if sharp.q_consistent:
            assert sharp.interval.width == pytest.approx(0.0, abs=1e-12)
            assert rect.interval.width == pytest.approx(0.0, abs=1e-12)


def test_screening_input_validation():
    with pytest.raises(ValueError):
        prevalence_bounds_segment(EX1_SEG, 1.2)
    with pytest.raises(ValueError):
        PretestRange(0.5, 0.4)


@given(
    t1_lo=st.floats(0.05, 0.95),
    width=st.floats(0.0, 0.5),
    prev=st.floats(0.1, 0.9),
    q=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_dominance_property_over_random_segments(t1_lo, width, prev, q):
    # Build a valid positive-slope segment directly from a prevalence.
    slope = prev / (1.0 - prev)
    t1_hi = min(1.0, t1_lo + width)
    # Choose an intercept keeping both theta0 endpoints inside [0, 1].
    lo_icpt = -slope * t1_lo
    hi_icpt = 1.0 - slope * t1_hi
    if lo_icpt > hi_icpt:
        return
    intercept = 0.5 * (lo_icpt + hi_icpt)
    seg = ThetaSegment(
        s=RefPerf(0.9, 0.9),
        lo=(t1_lo, slope * t1_lo + intercept),
        hi=(t1_hi, slope * t1_hi + intercept),
        slope=slope,
        intercept=intercept,
    )
    sharp = prevalence_bounds_segment(seg, q)
    rect = prevalence_bounds_rect(seg, q)
    assert sharp.interval.lo >= rect.interval.lo - 1e-9
    assert sharp.interval.hi <= rect.interval.hi + 1e-9


def _bounds_record(b):
    comps = tuple((c.lo, c.hi) for c in b.components)
    return (b.interval.lo, b.interval.hi, b.vacuous, b.q_consistent, comps)


def test_derived_outputs_pinned():
    # Exact floats and flags of every derived quantity on the bundled
    # tables, recorded before the endpoint rule was written once.
    regions = (
        SRegion.singleton(0.9, 1.0),
        SRegion.rectangle(0.8, 0.9, 0.98, 1.0, s1_points=10, s0_points=10),
    )
    h = hashlib.sha256()
    for name in list_datasets():
        p = estimate_joint(load_dataset(name))
        for a in DependenceAssumption:
            for region in regions:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        union = sharp_union(p, region, a)
                except RefutationError:
                    continue
                rows = [
                    (q, _bounds_record(sharp), _bounds_record(rect))
                    for q, sharp, rect in prevalence_width_curve(union)
                ]
                rows.append(_bounds_record(prevalence_bounds_union(union, 0.23)))
                rows.append(_bounds_record(prevalence_bounds_rect_union(union, 0.23)))
                ppv, npv = predictive_value_bounds(union, PretestRange(0.1, 0.3))
                rows.append((ppv.lo, ppv.hi, npv.lo, npv.hi))
                h.update(repr((name, a.value, len(union), rows)).encode())
    assert h.hexdigest() == "e552476ba41140e3162c29f45ac8414ab6b4039436cb61bec1097a1aed258cf4"
