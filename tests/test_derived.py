import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from diagbounds.identification import IdentifiedSet, RefutationError, ThetaSegment

from helpers import (
    TABLE_DATASETS,
    WA1,
    oracle_bounds_rect,
    oracle_bounds_rect_union,
    oracle_bounds_segment,
    oracle_bounds_union,
    oracle_width_curve,
    random_valid_instance,
)

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
        if seg.lo != seg.hi and not sharp.vacuous and sharp.q_consistent:
            assert sharp.interval.hi - sharp.interval.lo < rect.interval.hi - rect.interval.lo + 1e-12
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


@pytest.mark.parametrize(
    "theta1, theta0, which", [(0.0, 1.0, 0), (1.0, 0.0, 1)], ids=["never-positive-ppv", "always-positive-npv"]
)
def test_predictive_values_degenerate_denominator(theta1, theta0, which):
    # A never-positive test makes PPV 0/0, an always-positive one NPV.
    bounds = predictive_value_bounds(_singleton_segment(theta1, theta0), PretestRange(0.2, 0.4))
    assert (bounds[which].lo, bounds[which].hi) == (0.0, 1.0)


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
        assert sharp.interval.hi - sharp.interval.lo <= rect.interval.hi - rect.interval.lo + 1e-12


def test_width_curve_singleton_theta_zero_everywhere():
    from diagbounds.identification import IdentifiedSet

    seg = _singleton_segment(0.8, 0.9)
    union = IdentifiedSet(segments=(seg,), assumption=DependenceAssumption.NO_RESTRICTION)
    for q, sharp, rect in prevalence_width_curve(union, q_grid=[0.1, 0.5, 0.9]):
        if sharp.q_consistent:
            assert sharp.interval.hi - sharp.interval.lo == pytest.approx(0.0, abs=1e-12)
            assert rect.interval.hi - rect.interval.lo == pytest.approx(0.0, abs=1e-12)


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


def _bounds_record(b, components_from=None):
    comps = tuple((c.lo, c.hi) for c in (components_from or b).components)
    return (b.interval.lo, b.interval.hi, b.vacuous, b.q_consistent, comps)


def test_derived_outputs_pinned():
    # Exact floats and flags of every derived quantity on the bundled
    # tables, recorded before the endpoint rule was written once.  Curve
    # entries carry no components, so each entry is hashed with those of
    # the per-rate union at its rate, which the curve once held.
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
                    (
                        q,
                        _bounds_record(sharp, prevalence_bounds_union(union, q)),
                        _bounds_record(rect, prevalence_bounds_rect_union(union, q)),
                    )
                    for q, sharp, rect in prevalence_width_curve(union)
                ]
                rows.append(_bounds_record(prevalence_bounds_union(union, 0.23)))
                rows.append(_bounds_record(prevalence_bounds_rect_union(union, 0.23)))
                ppv, npv = predictive_value_bounds(union, PretestRange(0.1, 0.3))
                rows.append((ppv.lo, ppv.hi, npv.lo, npv.hi))
                h.update(repr((name, a.value, len(union), rows)).encode())
    assert h.hexdigest() == "e552476ba41140e3162c29f45ac8414ab6b4039436cb61bec1097a1aed258cf4"


# Dyadic coordinates make q = 1 - theta0 exact, so that q + theta0 - 1 is
# exactly 0 and below-chance segments (theta1 + theta0 < 1) give -0.0.
_COORD = st.one_of(st.sampled_from([i / 8.0 for i in range(9)]), st.floats(0.0, 1.0))


@st.composite
def _theta_segments(draw):
    t1a, t1b = sorted((draw(_COORD), draw(_COORD)))
    t0a, t0b = sorted((draw(_COORD), draw(_COORD)))
    if t1a == t1b or t0a == t0b:
        lo = hi = (t1a, t0a)
        slope = 1.0
    else:
        lo, hi = (t1a, t0a), (t1b, t0b)
        slope = (t0b - t0a) / (t1b - t1a)
    try:
        return ThetaSegment(RefPerf(0.9, 0.9), lo, hi, slope, t0a - slope * t1a)
    except ValueError:  # endpoints too close for the line check
        assume(False)


def _hull(b):
    return repr((b.interval, b.vacuous, b.q_consistent))


# A below-chance segment at q = 1 - 0.25: its lower endpoint gives
# 0.0 / -0.5 = -0.0, the upper bound of its interval.
_BELOW = ThetaSegment(RefPerf(0.9, 0.9), (0.25, 0.25), (0.5, 0.375), 0.5, 0.125)
# An above-chance segment whose interval at q = 0.75 is [0.0, 0.0]: with
# _BELOW, the hull's upper end is a tie of -0.0 and 0.0.
_ABOVE = ThetaSegment(RefPerf(0.9, 0.9), (0.9375, 0.125), (1.0, 0.25), 2.0, -1.75)


def test_below_chance_segment_keeps_a_negative_zero():
    b = prevalence_bounds_segment(_BELOW, 0.75)
    assert (b.interval.lo, b.interval.hi) == (0.0, 0.0)
    assert math.copysign(1.0, b.interval.hi) == -1.0
    assert repr(b) == repr(oracle_bounds_segment(_BELOW, 0.75))


@settings(max_examples=100, deadline=None)
@example(segments=[_BELOW, _singleton_segment(0.8, 0.9)], extra=[0.75, 0.0, 1.0])
@example(segments=[_singleton_segment(0.5, 0.25), _BELOW], extra=[0.75])
@example(segments=[_BELOW, _ABOVE], extra=[0.75])
@example(segments=[_ABOVE, _BELOW], extra=[0.75])
@given(
    segments=st.lists(_theta_segments(), min_size=1, max_size=4),
    extra=st.lists(st.floats(0.0, 1.0), max_size=3),
)
def test_prevalence_rule_matches_the_scalar_oracle(segments, extra):
    identified = IdentifiedSet(segments=tuple(segments), assumption=DependenceAssumption.NO_RESTRICTION)
    qs = [0.0, 1.0] + [1.0 - seg.lo[1] for seg in segments] + [1.0 - seg.hi[1] for seg in segments]
    qs += extra
    for q in qs:
        for seg in segments:
            assert repr(prevalence_bounds_segment(seg, q)) == repr(oracle_bounds_segment(seg, q))
            assert repr(prevalence_bounds_rect(seg, q)) == repr(oracle_bounds_rect(seg, q))
        assert repr(prevalence_bounds_union(identified, q)) == repr(oracle_bounds_union(identified, q))
        got = prevalence_bounds_rect_union(identified, q)
        assert repr(got) == repr(oracle_bounds_rect_union(identified, q))
    curve = prevalence_width_curve(identified, qs)
    assert len(curve) == len(qs)
    for (q, sharp, rect), (oq, osharp, orect) in zip(curve, oracle_width_curve(identified, qs)):
        assert repr(q) == repr(oq)
        assert (_hull(sharp), _hull(rect)) == (_hull(osharp), _hull(orect))
        assert sharp.components == rect.components == ()


@pytest.mark.parametrize("bad", [1.2, float("nan"), -0.5])
def test_rates_outside_the_unit_interval_raise_as_before(bad):
    identified = IdentifiedSet(segments=(EX1_SEG, _BELOW), assumption=DependenceAssumption.NO_RESTRICTION)
    grid = [0.1, bad, 0.5]
    with pytest.raises(ValueError) as new:
        prevalence_width_curve(identified, grid)
    with pytest.raises(ValueError) as old:
        oracle_width_curve(identified, grid)
    assert str(new.value) == str(old.value)
    for new_fn, old_fn, arg in [
        (prevalence_bounds_segment, oracle_bounds_segment, EX1_SEG),
        (prevalence_bounds_rect, oracle_bounds_rect, EX1_SEG),
        (prevalence_bounds_union, oracle_bounds_union, identified),
        (prevalence_bounds_rect_union, oracle_bounds_rect_union, identified),
    ]:
        with pytest.raises(ValueError) as new:
            new_fn(arg, bad)
        with pytest.raises(ValueError) as old:
            old_fn(arg, bad)
        assert str(new.value) == str(old.value)
