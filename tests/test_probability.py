import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagbounds import (
    CellCounts,
    JointTR,
    RefPerf,
    RefutationError,
    SRegion,
    apparent_measures,
    derived_joint_ry,
    derived_prevalence,
    estimate_joint,
    validate_assumptions,
)
from helpers import TABLE_DATASETS, counts_from_joint


def test_estimate_joint_eua_row():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    np.testing.assert_allclose(
        p.cells, (0.215217, 0.039130, 0.010870, 0.734783), atol=5e-7
    )


def test_estimate_joint_degenerate_single_cell():
    assert estimate_joint(CellCounts(1, 0, 0, 0)).cells == (1.0, 0.0, 0.0, 0.0)


def test_estimate_joint_asymptomatic_cell():
    p = estimate_joint(TABLE_DATASETS["shah_asx"])
    assert p.p11 == pytest.approx(0.037628, abs=5e-7)


def test_estimate_joint_rejects_empty():
    with pytest.raises(ValueError):
        estimate_joint(CellCounts(0, 0, 0, 0))


counts_strategy = st.tuples(
    st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
).filter(lambda t: sum(t) > 0)


@given(counts_strategy)
@settings(max_examples=200, deadline=None)
def test_estimation_roundtrips_to_counts(cells):
    counts = CellCounts(*cells)
    again = counts_from_joint(estimate_joint(counts), counts.n)
    assert again == counts


def test_validation_eua_passes():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    rep = validate_assumptions(p, RefPerf(0.9, 1.0))
    assert rep.passed and not rep.boundary_tie
    assert rep.p_t1 == pytest.approx(0.226087, abs=5e-7)


def test_validation_refuted_when_index_rate_below_interval():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    rep = validate_assumptions(p, RefPerf(0.2, 0.7))
    assert not rep.passed
    assert not rep.reference_informative  # 0.2 <= 1 - 0.7 fails first
    rep2 = validate_assumptions(p, RefPerf(0.45, 0.7))
    assert not rep2.passed and not rep2.index_rate_in_range
    assert any("P(t=1)" in v for v in rep2.violated_assumptions())


def test_validation_perfect_reference_interval_is_unit():
    p = JointTR(0.25, 0.25, 0.25, 0.25)
    rep = validate_assumptions(p, RefPerf(1.0, 1.0))
    assert rep.passed and rep.interval == (0.0, 1.0)


def test_validation_is_exactly_the_index_rate_check():
    # With an informative reference, passed <=> P(t=1) inside the interval.
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = JointTR(*rng.dirichlet(np.ones(4)))
        s1, s0 = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        if s1 <= 1.0 - s0:
            continue
        rep = validate_assumptions(p, RefPerf(s1, s0))
        assert rep.passed == (1.0 - s0 < p.p_t1 < s1)


def test_boundary_value_is_refuted_but_flagged():
    p = JointTR(0.5, 0.2, 0.0, 0.3)  # P(t=1) = 0.5
    rep = validate_assumptions(p, RefPerf(0.5, 0.9))
    assert not rep.passed and rep.boundary_tie


def test_derived_prevalence_worked_example():
    p = JointTR(0.45, 0.05, 0.05, 0.45)
    assert derived_prevalence(p, RefPerf(0.9, 0.9)) == pytest.approx(0.5, abs=1e-12)


def test_derived_prevalence_perfect_reference_returns_p_r1():
    p = JointTR(0.3, 0.1, 0.05, 0.55)
    assert derived_prevalence(p, RefPerf(1.0, 1.0)) == pytest.approx(p.p_r1, abs=1e-12)


def test_derived_prevalence_eua():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    assert derived_prevalence(p, RefPerf(0.9, 1.0)) == pytest.approx(0.282609, abs=5e-7)


def test_derived_prevalence_errors_name_assumption():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    with pytest.raises(RefutationError, match="P\\(t=1\\)"):
        derived_prevalence(p, RefPerf(0.45, 0.7))
    # Index rate inside, reference rate outside: degenerate prevalence.
    q = JointTR(0.05, 0.60, 0.30, 0.05)  # P(t=1)=0.35, P(r=1)=0.65
    rep = validate_assumptions(q, RefPerf(0.6, 0.8))
    assert rep.passed and not rep.reference_rate_in_range
    with pytest.raises(RefutationError, match="prevalence"):
        derived_prevalence(q, RefPerf(0.6, 0.8))


def test_derived_joint_ry_worked_example():
    p = JointTR(0.45, 0.05, 0.05, 0.45)
    d = derived_joint_ry(p, RefPerf(0.9, 0.9))
    np.testing.assert_allclose(
        [d.p_r1_y1, d.p_r0_y1, d.p_r1_y0, d.p_r0_y0], [0.45, 0.05, 0.05, 0.45], atol=1e-12
    )


def test_derived_joint_ry_perfect_reference_diagonal():
    p = JointTR(0.3, 0.1, 0.05, 0.55)
    d = derived_joint_ry(p, RefPerf(1.0, 1.0))
    assert d.p_r1_y0 == 0.0 and d.p_r0_y1 == 0.0


def test_derived_joint_ry_marginal_consistency_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        cells = rng.dirichlet(np.ones(4))
        p = JointTR(*cells)
        s1, s0 = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
        if s1 <= 1.0 - s0:
            continue
        s = RefPerf(s1, s0)
        try:
            d = derived_joint_ry(p, s)
        except RefutationError:
            continue
        total = d.p_r1_y1 + d.p_r0_y1 + d.p_r1_y0 + d.p_r0_y0
        assert abs(total - 1.0) <= 1e-12
        assert abs(d.p_r1 - p.p_r1) <= 1e-12
        assert 0.0 < d.prevalence < 1.0
        # s0 = 1 forces zero reference false positives.
        if s0 == 1.0:
            assert d.p_r1_y0 == 0.0


def test_derived_prevalence_monotone_in_s1():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    prevs = [derived_prevalence(p, RefPerf(s1, 1.0)) for s1 in (0.5, 0.7, 0.9)]
    assert prevs[0] > prevs[1] > prevs[2]


def test_apparent_measures_tables():
    for name, (t1, t0) in {
        "eua_sx": (0.846, 0.985),
        "shah_sx": (0.819, 0.997),
        "shah_asx": (0.688, 0.994),
    }.items():
        a1, a0 = apparent_measures(estimate_joint(TABLE_DATASETS[name]))
        assert a1 == pytest.approx(t1, abs=1e-3)
        assert a0 == pytest.approx(t0, abs=1e-3)


def test_apparent_symmetry_when_cells_tie():
    p = JointTR(0.25, 0.25, 0.3, 0.2)
    assert apparent_measures(p)[0] == pytest.approx(0.5, abs=1e-15)


def test_apparent_degenerate_reference_margin():
    with pytest.raises(ValueError):
        apparent_measures(JointTR(0.6, 0.4, 0.0, 0.0))


def test_sregion_rejects_uninformative_points():
    with pytest.raises(ValueError):
        SRegion.singleton(0.3, 0.5)
    region = SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=10)
    assert len(region) == 10
    assert region.points[0].s1 == pytest.approx(0.8)
    assert region.points[-1].s1 == pytest.approx(0.9)


@settings(max_examples=300, deadline=None)
@example(lo=5e-324, hi=1e-323, k=4)  # the step underflows to 0
@given(lo=st.floats(0.0, 1.0, exclude_min=True), hi=st.floats(0.0, 1.0, exclude_min=True), k=st.integers(2, 40))
def test_rectangle_axis_ends_at_hi_and_matches_linspace(lo, hi, k):
    lo, hi = sorted((lo, hi))
    s1s = [s.s1 for s in SRegion.rectangle(lo, hi, 1.0, 1.0, s1_points=k).points]
    assert s1s == ([lo] if lo == hi else np.linspace(lo, hi, k).tolist())
    assert s1s[-1] == hi


def test_cell_floor_check():
    p = estimate_joint(TABLE_DATASETS["eua_sx"])
    assert p.satisfies_cell_floor(1.0 / 920.0)
    assert not p.satisfies_cell_floor(0.02)
    rep = validate_assumptions(p, RefPerf(0.9, 1.0), eps=1.0 / 920.0)
    assert rep.cell_floor_ok is True
