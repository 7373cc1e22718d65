import hashlib
import inspect
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diagbounds import (
    CellCounts,
    DependenceAssumption,
    JointTR,
    RefPerf,
    SRegion,
    TestConfig,
    ThetaPoint,
    confidence_set,
    coverage_simulation,
    estimate_joint,
    rsw2_test,
    sharp_segment,
)
from diagbounds import inference
from diagbounds.inference import (
    _QUANTILE_METHOD,
    BETA_PRESETS,
    _rank_from_top,
    _rejects,
    _SPointKernel,
    _stud,
    _Substreams,
    _top,
    bootstrap_cell_frequencies,
)
from diagbounds.moments import build_moment_system, moment_cell_tables, param_space_box
from diagbounds.report import _json_text

from helpers import (
    TABLE_DATASETS,
    WA1,
    oracle_critical_values,
    oracle_evaluate,
    oracle_evaluate_row,
    oracle_raw_critical_values,
    oracle_row_tables,
    oracle_stud,
    retains,
)

EUA = TABLE_DATASETS["eua_sx"]
S91 = RefPerf(0.9, 1.0)
CFG = TestConfig(alpha=0.05, seed=20240501)


def _kernel(counts, a, s, boot):
    """The kernel of one dataset, assumption and reference point."""
    return _SPointKernel(counts, a, moment_cell_tables(a, s), boot)


def test_config_validation():
    assert TestConfig(alpha=0.05).beta_value == pytest.approx(0.005)
    assert TestConfig(alpha=0.05, beta=0.05 / 5).beta_value == pytest.approx(0.01)
    assert TestConfig(alpha=0.05, beta=0.05 / 20).beta_value == pytest.approx(0.0025)
    with pytest.raises(ValueError):
        TestConfig(alpha=0.05, beta=0.05)
    with pytest.raises(ValueError):
        TestConfig(alpha=0.05, bootstrap=0)


def test_seeds_outside_64_bits_are_refused_not_aliased():
    assert TestConfig(seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64, 2**80):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            TestConfig(seed=seed)
    with pytest.raises(OverflowError):  # not the draws of seed 0
        bootstrap_cell_frequencies(EUA, 5, 2**64)


def test_bootstrap_frequencies_shape_and_determinism():
    f1 = bootstrap_cell_frequencies(EUA, 500, CFG.seed)
    f2 = bootstrap_cell_frequencies(EUA, 500, CFG.seed)
    assert f1.shape == (500, 4)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_allclose(f1.sum(axis=1), 1.0, atol=1e-12)
    f3 = bootstrap_cell_frequencies(EUA, 500, 2)
    assert not np.array_equal(f1, f3)


def test_derive_seed_stable():
    assert _Substreams(1).derive_seed(2) == _Substreams(1).derive_seed(2)
    assert _Substreams(1).derive_seed(2) != _Substreams(1).derive_seed(3)


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def test_random_streams_pinned():
    # Digests of the seeded streams as a generator built per substream drew
    # them: any change to how draws are generated fails here.
    boot = bootstrap_cell_frequencies(EUA, CFG.bootstrap, CFG.seed)
    assert _sha256(boot) == "da1bb149c92297f458ddfb5de957842a8d518ab6ba46dd2d012f0047abd92048"
    assert _Substreams(1).derive_seed(2) == 6203319792959033197
    p = estimate_joint(EUA)
    pinned = {  # coverage (0.9, 0.9, 0.9) and (0.75, 0.75, 0.8)
        2: "d88e5d6278e85925673fe7082bbc80680c2447486b3becd30102a6e0a5b7552b",
        3: "18c07d6898d9c2733d99c37387ad519cbd90c691f3561858f66af6bf3e4cd3ef",
    }
    for seed, digest in pinned.items():
        cfg = TestConfig(alpha=0.05, seed=seed, bootstrap=100)
        res = coverage_simulation(p, S91, WA1, n=200, reps=20, cfg=cfg)
        assert _sha256(res.coverage) == digest, (seed, res.coverage)


def _fresh_substream(seed: int, tag: int, index: int) -> np.random.Generator:
    """The generator a substream stands for, built from scratch."""
    key = np.array([seed, (tag << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_TAGS = st.sampled_from([1, 2, 3])
_INDICES = st.integers(0, 2**48 - 1)


@settings(max_examples=200, deadline=None)
@example(seed=0, tag=1, index=0, others=[(1, 1)], n=2, weights=[1, 0, 0, 1])
@example(
    seed=2**64 - 1, tag=3, index=2**48 - 1, others=[(2, 0)], n=5000, weights=[0, 3, 1, 0]
)
@given(
    seed=st.integers(0, 2**64 - 1),
    tag=_TAGS,
    index=_INDICES,
    others=st.lists(st.tuples(_TAGS, _INDICES), min_size=1, max_size=3),
    n=st.integers(2, 5000),
    weights=st.lists(st.integers(0, 20), min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
)
def test_rekeyed_substream_draws_match_a_fresh_generator(seed, tag, index, others, n, weights):
    pvals = np.asarray(weights, dtype=float) / sum(weights)
    fresh = _fresh_substream(seed, tag, index)
    want_counts = fresh.multinomial(n, pvals)
    want_int = fresh.integers(0, 2**63)

    streams = _Substreams(seed)
    rng = streams.at(tag, index)
    np.testing.assert_array_equal(rng.multinomial(n, pvals), want_counts)
    assert rng.integers(0, 2**63) == want_int

    # Re-keying after other substreams, the last of which leaves half of a
    # 64-bit output word buffered, gives the same draws as keying alone.
    for other_tag, other_index in others:
        rng = streams.at(other_tag, other_index)
        rng.multinomial(n, pvals)
        rng.integers(0, 2**63)
        rng.integers(0, 10)
    assert rng.bit_generator.state["has_uint32"] == 1
    rng = streams.at(tag, index)
    np.testing.assert_array_equal(rng.multinomial(n, pvals), want_counts)
    assert rng.integers(0, 2**63) == want_int


def test_reject_rule_rejects_non_finite_statistics():
    tn = np.array([np.nan, np.inf, 1.0, 0.5, 1.0])
    crit = np.array([1.0, 1.0, 0.5, 1.0, 1.0])
    np.testing.assert_array_equal(_rejects(tn, crit), [True, True, True, False, False])


def test_stud_zero_denominator_conventions():
    out = _stud(np.array([1.0, -1.0, 0.0]), np.array([0.0, 0.0, 0.0]))
    assert out[0] == np.inf and out[1] == -np.inf and out[2] == -np.inf


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# Magnitudes are bounded so that no quotient overflows (which warns either way).
_NUMS = st.one_of(
    st.floats(-1e100, 1e100), st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0])
)
_DENS = st.one_of(
    st.floats(1e-100, 1e100), st.sampled_from([0.0, -0.0, -1.0, -1e-100, np.nan])
)


@settings(max_examples=150, deadline=None)
@given(
    num=st.lists(_NUMS, min_size=1, max_size=12),
    den=st.one_of(_DENS, st.lists(_DENS, min_size=12, max_size=12)),
)
def test_stud_fast_path_matches_the_masked_formula(num, den):
    num = np.array(num)
    if isinstance(den, list):  # one denominator per numerator
        den = np.array(den[: num.size])
    assert _same_bits(_stud(num, den), oracle_stud(num, den))
    # A column of denominators against a (rows, draws) block, as in the kernel.
    block = np.tile(num, (np.size(den), 1))
    col = np.reshape(den, (-1, 1))
    assert _same_bits(_stud(block, col), oracle_stud(block, col))


def _levels():
    """Every step-one and step-two level of the CLI's alphas and beta presets."""
    out = []
    for alpha in (0.01, 0.05, 0.10, 0.20):
        for divisor in BETA_PRESETS:
            beta = TestConfig(alpha=alpha, beta=alpha / divisor).beta_value
            out += [1.0 - beta, 1.0 - alpha + beta]
    return out


def test_top_picks_numpys_order_statistic_for_every_draw_count():
    levels = _levels()
    assert len(levels) == 24
    rng = np.random.default_rng(6)
    for m in range(1, 2001):
        x = rng.permutation(m).astype(float)  # distinct values name their rank
        want = np.quantile(x, levels, method=_QUANTILE_METHOD)
        got = [_top(x.copy(), _rank_from_top(m, q)) for q in levels]
        assert _same_bits(got, want), m


_QUANTILE_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([np.inf, -np.inf, 1.0, -1.0]),
)


@settings(max_examples=150, deadline=None)
@example(rows=2, m=50, values=[0.0, -0.0], shuffle=0, q=0.955)  # signed zeros tied at the statistic
@given(
    rows=st.integers(1, 4),
    m=st.integers(1, 600),
    values=st.lists(_QUANTILE_VALUES, min_size=1, max_size=20),
    shuffle=st.integers(0, 2**32 - 1),
    q=st.sampled_from(_levels() + [0.0, 0.5, 1.0]),
)
def test_top_matches_numpy_with_ties_and_infinities(rows, m, values, shuffle, q):
    # A few values repeated in random order: many ties, signed zeros among
    # them.  The kernel passes no NaN.  Of two zeros _top may return the
    # other one; np.maximum(x, 0.0) and np.minimum(x, 0.0), through which
    # every order statistic of the kernel passes, give +0.0 for either.
    pool = np.resize(np.array(values), rows * m)
    x = np.random.default_rng(shuffle).permutation(pool).reshape(rows, m)
    want = np.quantile(x, q, axis=-1, method=_QUANTILE_METHOD)
    # _top partitions its argument in place: give it copies.
    got = _top(x.copy(), _rank_from_top(m, q))
    np.testing.assert_array_equal(got, want)
    for floor in (np.maximum, np.minimum):
        assert _same_bits(floor(got, 0.0), floor(want, 0.0))
    assert _top(x[0].copy(), _rank_from_top(m, q)) == np.quantile(x[0], q, method=_QUANTILE_METHOD)


def test_apparent_point_rejected_on_eua():
    res = rsw2_test(EUA, ThetaPoint(0.846, 0.985, S91), WA1, CFG)
    assert res.reject
    assert res.t_n > res.crit > 0


def test_segment_midpoint_accepted_on_eua():
    seg = sharp_segment(estimate_joint(EUA), S91, WA1)
    mid = seg.point_at(0.5)[0].tolist()
    res = rsw2_test(EUA, ThetaPoint(*mid, S91), WA1, CFG)
    assert not res.reject
    assert res.t_n == pytest.approx(0.0, abs=1e-9)


def test_far_outside_rejected_even_with_single_draw():
    cfg = TestConfig(alpha=0.05, seed=1, bootstrap=1)
    res = rsw2_test(EUA, ThetaPoint(0.1, 0.1, S91), WA1, cfg)
    assert res.reject and res.t_n > 5.0


def test_inference_accepts_empty_cells_and_requires_two_observations():
    # Every entry point checks the kernel's one precondition, n >= 2.
    assert rsw2_test(CellCounts(10, 0, 2, 5), ThetaPoint(0.5, 0.5, S91), WA1, CFG).t_n >= 0.0
    cs = confidence_set(CellCounts(9, 0, 0, 0), SRegion.singleton(0.9, 1.0), WA1, SMALL)
    assert cs.n_tested > 0
    one = CellCounts(1, 0, 0, 0)
    with pytest.raises(ValueError, match="n >= 2"):
        rsw2_test(one, ThetaPoint(0.5, 0.5, S91), WA1, CFG)
    with pytest.raises(ValueError, match="n >= 2"):
        confidence_set(one, SRegion.singleton(0.9, 1.0), WA1, CFG)
    with pytest.raises(ValueError, match="n >= 2"):
        coverage_simulation(
            estimate_joint(EUA), S91, WA1, n=1, reps=1, cfg=CFG
        )


def test_point_outside_parameter_space_rejected_up_front():
    with pytest.raises(ValueError, match="parameter space"):
        rsw2_test(EUA, ThetaPoint(0.99, 0.99, S91), WA1, CFG)


def test_test_is_deterministic_given_seed():
    a = rsw2_test(EUA, ThetaPoint(0.846, 0.985, S91), WA1, CFG)
    b = rsw2_test(EUA, ThetaPoint(0.846, 0.985, S91), WA1, CFG)
    assert a == b


SMALL = TestConfig(alpha=0.05, seed=20240501, theta_grid=60)


def test_confidence_set_retains_estimated_segment_neighborhood():
    cs = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, SMALL)
    seg = sharp_segment(estimate_joint(EUA), S91, WA1)
    pitch = 1.0 / (SMALL.theta_grid - 1)
    (lo1, _), (hi1, _) = seg.segments[0]
    for t1 in cs.theta_axis:
        if lo1 <= t1 <= hi1:
            t0_line = seg.slope[0] * t1 + seg.intercept[0]
            j = int(round(t0_line * (SMALL.theta_grid - 1)))
            t0 = cs.theta_axis[min(j, SMALL.theta_grid - 1)]
            assert retains(cs, t1, t0, S91), (t1, t0)
    proj = cs.projections
    assert proj is not None
    assert proj[0].lo <= lo1 and proj[0].hi >= hi1 - pitch


def test_confidence_sets_nest_in_alpha_under_shared_seed():
    cs05 = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, SMALL)
    cs10 = confidence_set(
        EUA, SRegion.singleton(0.9, 1.0), WA1, TestConfig(alpha=0.10, seed=20240501, theta_grid=60)
    )
    pts05 = {tuple(np.round(r, 10)) for r in cs05.points}
    pts10 = {tuple(np.round(r, 10)) for r in cs10.points}
    assert pts10 <= pts05


def test_confidence_set_respects_parameter_space_box():
    cfg = TestConfig(alpha=0.05, seed=3, theta_grid=40)
    cs = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, cfg)
    assert np.all(cs.points[:, 0] <= (1.0 + 0.9) / 2.0 + 1e-12)
    # Tested grid excludes the out-of-box strip.
    assert cs.n_tested < cfg.theta_grid**2


def test_confidence_set_grid_order():
    cs = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, TestConfig(alpha=0.05, seed=3, theta_grid=40))
    idx1 = np.searchsorted(cs.theta_axis, cs.points[:, 0])
    idx0 = np.searchsorted(cs.theta_axis, cs.points[:, 1])
    keys = list(zip(idx1, idx0))
    assert keys == sorted(keys)


def test_confidence_set_serialization_roundtrip():
    cs = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, TestConfig(alpha=0.05, seed=3, theta_grid=40))
    d = cs.to_dict()
    assert d["n_retained"] == len(cs)
    assert d["quantile_method"] == "higher"
    assert json.loads(_json_text(d)) == d  # floats included, exactly
    rows = cs.to_csv_rows()
    assert rows[0] == "theta1,theta0,s1,s0,Tn,crit,accepted"
    assert len(rows) == len(cs) + 1
    for row, point, tn, crit in zip(rows[1:], cs.points, cs.t_n, cs.crit):
        *values, accepted = row.split(",")
        digits = (12, 12, 10, 10, 12, 12)
        want = [float(f"{x:.{g}g}") for x, g in zip((*point, tn, crit), digits)]
        assert [float(v) for v in values] == want and accepted == "1"


def test_empty_confidence_set_serialization():
    # At s = (0.55, 0.5) no grid point of EUA survives.
    cs = confidence_set(EUA, SRegion.singleton(0.55, 0.5), WA1, TestConfig(alpha=0.05, seed=3, theta_grid=40))
    text = _json_text(cs.to_dict())
    assert '\n "points": [],\n' in text and json.loads(text)["points"] == []
    assert cs.to_csv_rows() == ["theta1,theta0,s1,s0,Tn,crit,accepted"]


def test_union_region_confidence_set_contains_singleton_projection():
    cfg = TestConfig(alpha=0.05, seed=5, theta_grid=50)
    singleton = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, cfg)
    union = confidence_set(
        EUA, SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=3), WA1, cfg
    )
    p_single = singleton.projections
    p_union = union.projections
    assert p_union[0].lo <= p_single[0].lo + 1e-12
    assert p_union[0].hi >= p_single[0].hi - 1e-12


def _reference_two_step(counts, theta, a, cfg, boot_freqs):
    """Straightforward loop implementation of the test, for cross-checking.

    Shares only the bootstrap draws and the cell-value tables with the
    production kernel; every statistic is recomputed component by
    component with plain Python loops.
    """
    from diagbounds import build_moment_system, moment_stats

    system = build_moment_system(theta, a)
    stats = moment_stats(estimate_joint(counts), system)
    n = counts.n
    rn = np.sqrt(n)

    def stud(num, den):
        if den > 0:
            return num / den
        return np.inf if num > 0 else -np.inf

    tn = max(max(stud(rn * m, s) for m, s in zip(stats.means, stats.sds)), 0.0)

    boot_means = boot_freqs @ system.cell_values  # (B, 8)
    step1 = []
    for b in range(boot_freqs.shape[0]):
        step1.append(
            max(
                stud(rn * (boot_means[b, j] - stats.means[j]), stats.sds[j])
                for j in range(8)
            )
        )
    bhat = float(np.quantile(step1, 1.0 - cfg.beta_value, method="higher"))
    lam = [
        min(stats.means[j] + (bhat * stats.sds[j] / rn if stats.sds[j] > 0 else 0.0), 0.0)
        for j in range(8)
    ]
    step2 = []
    for b in range(boot_freqs.shape[0]):
        step2.append(
            max(
                stud(rn * (boot_means[b, j] - stats.means[j] + lam[j]), stats.sds[j])
                for j in range(8)
            )
        )
    crit = max(float(np.quantile(step2, 1.0 - cfg.alpha + cfg.beta_value, method="higher")), 0.0)
    return tn, crit


@pytest.mark.parametrize(
    "a",
    [
        DependenceAssumption.NO_RESTRICTION,
        DependenceAssumption.WRONGLY_AGREE_Y1,
        DependenceAssumption.WRONGLY_AGREE_Y0,
        DependenceAssumption.WRONGLY_AGREE_BOTH,
    ],
)
def test_kernel_matches_loop_reference(a):
    counts = CellCounts(80, 30, 12, 140)
    s = RefPerf(0.88, 0.9)
    cfg = TestConfig(alpha=0.05, seed=41, bootstrap=200)
    boot = bootstrap_cell_frequencies(counts, cfg.bootstrap, cfg.seed)
    rng = np.random.default_rng(abs(hash(a.value)) % 2**32)
    box = param_space_box(a, s)
    for _ in range(6):
        theta = ThetaPoint(
            float(rng.uniform(0.05, box[0][1])), float(rng.uniform(0.05, box[1][1])), s
        )
        want_tn, want_crit = _reference_two_step(counts, theta, a, cfg, boot)
        got = rsw2_test(counts, theta, a, cfg)
        assert got.t_n == pytest.approx(want_tn, abs=1e-10)
        assert got.crit == pytest.approx(want_crit, abs=1e-10)


def test_wrongly_agree_y0_system_behaves_like_the_mirror():
    # The y=0 restriction drives the inequalities through theta0; check
    # the whole accept/reject machinery on a dataset where it binds.
    counts = CellCounts(80, 30, 12, 140)
    s = RefPerf(0.88, 0.9)
    a = DependenceAssumption.WRONGLY_AGREE_Y0
    seg = sharp_segment(estimate_joint(counts), s, a)
    unrestricted = sharp_segment(estimate_joint(counts), s, DependenceAssumption.NO_RESTRICTION)
    hi, unrestricted_hi = seg.segments[0, 1], unrestricted.segments[0, 1]
    assert hi[1] < unrestricted_hi[1]  # halved upper cap binds
    assert hi[0] < unrestricted_hi[0]  # and crosses over to theta1
    cfg = TestConfig(alpha=0.05, seed=77)
    mid = seg.point_at(0.5)[0].tolist()
    assert not rsw2_test(counts, ThetaPoint(*mid, s), a, cfg).reject
    assert rsw2_test(counts, ThetaPoint(0.05, 0.05, s), a, cfg).reject
    cs = confidence_set(
        counts, SRegion.singleton(0.88, 0.9), a, TestConfig(alpha=0.05, seed=77, theta_grid=50)
    )
    assert len(cs) > 0
    assert cs.points[:, 1].max() <= (1.0 + 0.9) / 2.0 + 1e-12


def test_beta_presets_run_and_agree_qualitatively():
    seg = sharp_segment(estimate_joint(EUA), S91, WA1)
    mid = ThetaPoint(*seg.point_at(0.5)[0].tolist(), S91)
    apparent = ThetaPoint(0.846, 0.985, S91)
    for divisor in (5, 10, 20):
        cfg = TestConfig(alpha=0.05, beta=0.05 / divisor, seed=20240501)
        assert not rsw2_test(EUA, mid, WA1, cfg).reject
        assert rsw2_test(EUA, apparent, WA1, cfg).reject


def test_coverage_simulation_healthy_distribution():
    p = JointTR(0.45, 0.05, 0.05, 0.45)
    res = coverage_simulation(
        p, RefPerf(0.9, 0.9), DependenceAssumption.NO_RESTRICTION, n=500, reps=40,
        cfg=TestConfig(alpha=0.05, seed=99),
    )
    assert res.coverage.shape == (3,)
    assert np.all(res.coverage >= 0.9)


def test_coverage_simulation_single_rep_binary():
    p = JointTR(0.45, 0.05, 0.05, 0.45)
    res = coverage_simulation(
        p, RefPerf(0.9, 0.9), DependenceAssumption.NO_RESTRICTION, n=400, reps=1,
        cfg=TestConfig(alpha=0.05, seed=7),
    )
    assert set(np.unique(res.coverage)) <= {0.0, 1.0}


def test_coverage_simulation_far_point_rejected():
    p = JointTR(0.45, 0.05, 0.05, 0.45)
    s = RefPerf(0.9, 0.9)
    far = (ThetaPoint(0.2, 0.2, s),)
    res = coverage_simulation(
        p, s, DependenceAssumption.NO_RESTRICTION, n=500, reps=15,
        cfg=TestConfig(alpha=0.05, seed=21), theta_points=far,
    )
    assert res.coverage[0] == 0.0


def test_coverage_simulation_mixed_reference_points():
    # One kernel per reference point and replicate: candidates at two
    # reference points see the same draws as when simulated apart.
    p = JointTR(0.45, 0.05, 0.05, 0.45)
    a = DependenceAssumption.NO_RESTRICTION
    cfg = TestConfig(alpha=0.05, seed=8, bootstrap=100)

    def on_segment(s):
        seg = sharp_segment(p, s, a)
        return tuple(ThetaPoint(*seg.point_at(f)[0].tolist(), s) for f in (0.2, 0.8))

    def run(points):
        res = coverage_simulation(p, RefPerf(0.9, 0.9), a, n=300, reps=12, cfg=cfg, theta_points=points)
        return res.coverage

    s_b = RefPerf(0.95, 0.85)
    first, second = on_segment(RefPerf(0.9, 0.9)), on_segment(s_b) + (ThetaPoint(0.82, 0.82, s_b),)
    apart = np.concatenate([run(first), run(second)])
    np.testing.assert_array_equal(run(first + second), apart)
    interleaved = (first[0], second[0], first[1], second[1], second[2])
    np.testing.assert_array_equal(run(interleaved), apart[[0, 2, 1, 3, 4]])
    assert 0.0 < apart.min() < apart.max() < 1.0


def test_coverage_simulation_checks_cell_floor():
    # The default floor 1/(2n) is 0.005 at n = 100, above the thin cells.
    thin = JointTR(0.499, 0.499, 0.001, 0.001)
    with pytest.raises(ValueError, match="cell floor 0.005"):
        coverage_simulation(
            thin, RefPerf(0.9, 0.9), DependenceAssumption.NO_RESTRICTION, n=100, reps=5,
            cfg=TestConfig(alpha=0.05, seed=1),
        )


def _chi_square_bound(counts, boot, level):
    """The level quantile of the square-rooted Pearson statistics of the draws."""
    f = np.asarray(counts.cells, dtype=float) / counts.n
    cells = [c for c in range(4) if f[c] > 0.0]
    x2 = [counts.n * sum((fb[c] - f[c]) ** 2 / f[c] for c in cells) for fb in boot]
    return max(float(np.quantile(np.sqrt(x2), level, method="higher")), 0.0)


def _unscreened_confidence_set(counts, S, a, cfg):
    """Confidence set from full-row kernel evaluations, with no screen.

    Also checks the screen's invariant at every grid point: the critical
    value never exceeds the certified cutoff of the chi-square bound, which
    is finite only where every variance exceeds its allowance, the only
    points the screen may reject.  The bound can be attained (a component
    parallel to a draw's deviation), so rounding may put the critical value
    above it; the allowance covers that.  Returns the tested points that
    are not retained as well.
    """
    boot = bootstrap_cell_frequencies(counts, cfg.bootstrap, cfg.seed)
    axis = np.linspace(0.0, 1.0, cfg.theta_grid)
    cbar = _chi_square_bound(counts, boot, 1.0 - cfg.alpha + cfg.beta_value)
    retained, rejected = [], []
    n_tested = 0
    for s_idx, s in enumerate(sorted(S.points, key=lambda q: (q.s1, q.s0))):
        kernel = _kernel(counts, a, s, boot)
        (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
        idx1 = np.flatnonzero((axis >= lo1) & (axis <= hi1))
        idx0 = np.flatnonzero((axis >= lo0) & (axis <= hi0))
        n_tested += idx1.size * idx0.size
        iu, iv = kernel.orient(idx1, idx0)
        for i in iu:
            u, v = np.full(iv.size, axis[i]), axis[iv]
            tn, crit = kernel.evaluate(u, v, cfg.alpha, cfg.beta_value)
            cut = _row_cutoff(kernel, axis[i], v, cbar)
            assert np.all(crit <= cut), (crit[crit > cut], cut[crit > cut], cbar)
            for j, t, c in zip(iv, tn, crit):
                i1, i0 = kernel.orient(i, j)
                if np.isfinite(t) and t <= c:
                    retained.append((i1, i0, s_idx, s, t, c))
                else:
                    rejected.append(ThetaPoint(float(axis[i1]), float(axis[i0]), s))
    retained.sort(key=lambda r: r[:3])
    points = np.array([[axis[r[0]], axis[r[1]], r[3].s1, r[3].s0] for r in retained])
    t_n = np.array([r[4] for r in retained])
    crit = np.array([r[5] for r in retained])
    return points.reshape(-1, 4), t_n, crit, n_tested, rejected


def _spread(n, k=3):
    """Up to k indices spread evenly over range(n)."""
    return np.unique(np.linspace(0, n - 1, min(n, k)).astype(int))


def _assert_matches_unscreened(counts, S, a, cfg):
    cs = confidence_set(counts, S, a, cfg)
    points, t_n, crit, n_tested, rejected = _unscreened_confidence_set(counts, S, a, cfg)
    np.testing.assert_array_equal(cs.points, points)
    np.testing.assert_array_equal(cs.t_n, t_n)
    np.testing.assert_array_equal(cs.crit, crit)
    assert cs.n_tested == n_tested
    # One point at a time, the test agrees with the inversion.
    for k in _spread(len(cs)):
        t1, t0, s1, s0 = (float(x) for x in cs.points[k])
        res = rsw2_test(counts, ThetaPoint(t1, t0, RefPerf(s1, s0)), a, cfg)
        assert not res.reject and (res.t_n, res.crit) == (cs.t_n[k], cs.crit[k])
    for k in _spread(len(rejected)):
        assert rsw2_test(counts, rejected[k], a, cfg).reject
    return cs


@st.composite
def _s_regions(draw):
    points = []
    for _ in range(draw(st.integers(1, 2))):
        s0 = draw(st.floats(0.5, 1.0))
        s1 = draw(st.floats(max(1.02 - s0, 0.3), 1.0))
        points.append(RefPerf(s1, s0))
    return SRegion(points=tuple(points))


@settings(max_examples=100, deadline=None)
@example(
    cells=[1, 1, 1, 1], a=DependenceAssumption.NO_RESTRICTION,
    S=SRegion.singleton(1.0, 1.0), bootstrap=20, seed=12, grid=15, alpha=0.05,
)
@example(  # T_n is in the thousands where a fixed conditioning floor kept the points
    cells=[1, 1, 10**6, 10**6], a=DependenceAssumption.WRONGLY_AGREE_Y0,
    S=SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=2), bootstrap=50, seed=1, grid=40, alpha=0.05,
)
@given(
    cells=st.lists(st.integers(1, 75), min_size=4, max_size=4),
    a=st.sampled_from(list(DependenceAssumption)),
    S=_s_regions(),
    bootstrap=st.integers(20, 200),
    seed=st.integers(0, 2**32 - 1),
    grid=st.integers(15, 40),
    alpha=st.sampled_from([0.05, 0.10]),
)
def test_screened_confidence_set_equals_unscreened(cells, a, S, bootstrap, seed, grid, alpha):
    cfg = TestConfig(alpha=alpha, seed=seed, bootstrap=bootstrap, theta_grid=grid)
    _assert_matches_unscreened(CellCounts(*cells), S, a, cfg)


def _tables_with_an_empty_cell(high=75):
    """Four counts in [0, high] with n >= 2 and a drawn cell emptied."""
    return (
        st.tuples(st.lists(st.integers(0, high), min_size=4, max_size=4), st.integers(0, 3))
        .map(lambda t: [0 if k == t[1] else c for k, c in enumerate(t[0])])
        .filter(lambda c: sum(c) >= 2)
    )


@settings(max_examples=30, deadline=None)
@example(
    cells=[0, 3, 0, 4], a=DependenceAssumption.WRONGLY_AGREE_Y0,
    S=SRegion.singleton(0.8, 0.7), bootstrap=200, seed=3, grid=41, alpha=0.05,
)
@example(
    cells=[1, 0, 0, 1], a=DependenceAssumption.NO_RESTRICTION,
    S=SRegion.singleton(0.875, 0.5), bootstrap=20, seed=0, grid=19, alpha=0.05,
)
@example(  # crit exceeds c_bar by 2e-6 relative, within its points' allowance
    cells=[1, 0, 0, 1], a=DependenceAssumption.NO_RESTRICTION,
    S=SRegion.singleton(0.99999, 1.0), bootstrap=20, seed=0, grid=15, alpha=0.05,
)
@given(
    cells=_tables_with_an_empty_cell(),
    a=st.sampled_from(list(DependenceAssumption)),
    S=_s_regions(),
    bootstrap=st.integers(20, 200),
    seed=st.integers(0, 2**32 - 1),
    grid=st.integers(15, 40),
    alpha=st.sampled_from([0.05, 0.10]),
)
def test_screened_confidence_set_equals_unscreened_with_empty_cells(
    cells, a, S, bootstrap, seed, grid, alpha
):
    # With two occupied cells every component attains the chi-square bound
    # at every point, so crit sits at c_bar up to the rounding of the
    # E[m^2] - mu^2 variances; the certified cutoff is the invariant that
    # keeps both sets equal.
    cfg = TestConfig(alpha=alpha, seed=seed, bootstrap=bootstrap, theta_grid=grid)
    _assert_matches_unscreened(CellCounts(*cells), S, a, cfg)


@st.composite
def _ill_conditioned_tables(draw):
    """Two cells of one or two observations and two of millions, in a layout that keeps a point at s = (1, 1)."""
    small = draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
    big = draw(st.lists(st.integers(10**6, 3 * 10**6), min_size=2, max_size=2))
    if draw(st.booleans()):
        return [small[0], big[0], big[1], small[1]]
    return [big[0], small[0], small[1], big[1]]


@settings(max_examples=20, deadline=None)
@given(
    cells=_ill_conditioned_tables(),
    a=st.sampled_from(list(DependenceAssumption)),
    bootstrap=st.integers(20, 200),
    seed=st.integers(0, 2**32 - 1),
    grid=st.integers(15, 40),
    alpha=st.sampled_from([0.05, 0.10]),
)
def test_screen_keeps_retained_ill_conditioned_points(cells, a, bootstrap, seed, grid, alpha):
    # At s = (1, 1) these tables retain a point where a variance is below
    # 1e-6 of its second moment, a point a fixed conditioning floor sent to
    # the bootstrap.  Its allowance is finite there, so its certified cutoff
    # decides it, and the screen must keep it.
    counts, s = CellCounts(*cells), RefPerf(1.0, 1.0)
    cfg = TestConfig(alpha=alpha, seed=seed, bootstrap=bootstrap, theta_grid=grid)
    cs = _assert_matches_unscreened(counts, SRegion.singleton(1.0, 1.0), a, cfg)
    assume(len(cs) > 0)  # about 1 in 300 draws retains nothing
    boot = bootstrap_cell_frequencies(counts, bootstrap, seed)
    cbar = _chi_square_bound(counts, boot, 1.0 - cfg.alpha + cfg.beta_value)
    kernel = _kernel(counts, a, s, boot)
    decided = []
    for u, v in zip(*kernel.orient(cs.points[:, 0], cs.points[:, 1])):
        mu6, s6, mu7, s7, _ = kernel._statistic(u, np.array([v]))
        ratio = min(np.min(s6 * s6 / (s6 * s6 + mu6 * mu6)), s7[0] ** 2 / (s7[0] ** 2 + mu7[0] ** 2))
        decided.append(ratio < 1e-6 and np.isfinite(_row_cutoff(kernel, u, np.array([v]), cbar)[0]))
    assert any(decided)


def test_empty_cell_table_stays_under_the_chi_square_bound():
    # No draw occupies the empty cell, so the Pearson statistic sums over
    # the occupied ones; the screen and every critical value still agree
    # with the bound, and nothing warns.
    counts = CellCounts(256, 0, 25, 219)
    boot = bootstrap_cell_frequencies(counts, SMALL.bootstrap, SMALL.seed)
    level = 1.0 - SMALL.alpha + SMALL.beta_value
    want = _chi_square_bound(counts, boot, level)
    assert inference._chi_square_bound(counts, boot, level) == pytest.approx(want, rel=1e-12)
    _assert_matches_unscreened(counts, SRegion.singleton(0.9, 1.0), WA1, SMALL)


def _spy_on_evaluate(monkeypatch):
    """Record (u, v) -> (T_n, crit) for every point the kernel evaluates."""
    evaluated = {}
    evaluate = _SPointKernel.evaluate

    def spy(self, u, v, alpha, beta):
        tn, crit = evaluate(self, u, v, alpha, beta)
        evaluated.update({(float(w), float(x)): (t, c) for w, x, t, c in zip(u, v, tn, crit)})
        return tn, crit

    monkeypatch.setattr(_SPointKernel, "evaluate", spy)
    return evaluated


def test_screen_skips_the_bootstrap_at_most_grid_points(monkeypatch):
    evaluated = _spy_on_evaluate(monkeypatch)
    cs = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, SMALL)
    assert len(cs) <= len(evaluated) < cs.n_tested / 20


def test_ill_conditioned_points_are_screened_by_their_allowance(monkeypatch):
    # Two single-observation cells among two million: at the theta0 edges
    # (the driving coordinate under wa0) the variance of a moment component
    # is about 5e-7 of its second moment.  A fixed conditioning floor left
    # those rows to the bootstrap; their allowances are far below 1 and
    # their T_n is in the thousands, so the screen rejects them.
    counts = CellCounts(1, 1, 1_000_000, 1_000_000)
    a = DependenceAssumption.WRONGLY_AGREE_Y0
    s = RefPerf(1.0, 1.0)
    cfg = TestConfig(alpha=0.05, seed=3, bootstrap=50, theta_grid=5)
    axis = np.linspace(0.0, 1.0, cfg.theta_grid)
    kernel = _kernel(counts, a, s, bootstrap_cell_frequencies(counts, cfg.bootstrap, cfg.seed))
    assert not kernel.u_is_theta1
    rows, _ = kernel.screen(np.array([0.0, 1.0]), axis, 0.0)
    for r, edge in enumerate((0.0, 1.0)):
        mu6, s6, _, _, tn = kernel._statistic(edge, axis)
        assert np.min(s6 * s6 / (s6 * s6 + mu6 * mu6)) < 1e-6
        assert np.all(tn > 1e3) and np.count_nonzero(rows == r) == 0

    evaluated = _spy_on_evaluate(monkeypatch)
    cs = confidence_set(counts, SRegion.singleton(1.0, 1.0), a, cfg)
    monkeypatch.undo()
    for edge in (0.0, 1.0):
        for theta1 in axis:
            res = rsw2_test(counts, ThetaPoint(float(theta1), edge, s), a, cfg)
            assert res.reject and (edge, float(theta1)) not in evaluated
    assert not np.any(np.isin(cs.points[:, 1], [0.0, 1.0]))
    _assert_matches_unscreened(counts, SRegion.singleton(1.0, 1.0), a, cfg)


def test_ill_conditioned_reference_point_passes_no_point_through_the_screen():
    # (1, 1, 10^6, 10^6) under wa0 at s = (0.9, 1.0), 316^2, B = 500, seed
    # 1: T_n exceeds c_bar by half at every point, and a fixed conditioning
    # floor sent 99,224 of the 99,856 points to the bootstrap.  Their
    # allowances are far below 1, so the screen passes none.
    counts, a, s = CellCounts(1, 1, 10**6, 10**6), DependenceAssumption.WRONGLY_AGREE_Y0, RefPerf(0.9, 1.0)
    boot = bootstrap_cell_frequencies(counts, 500, 1)
    kernel = _kernel(counts, a, s, boot)
    axis = np.linspace(0.0, 1.0, 316)
    (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
    u, v = kernel.orient(axis[(axis >= lo1) & (axis <= hi1)], axis[(axis >= lo0) & (axis <= hi0)])
    rows, cols = kernel.screen(u, v, inference._chi_square_bound(counts, boot, 0.955))
    assert u.size * v.size == 99_856 and rows.size == cols.size == 0


def _row_cutoff(kernel, u, v, cbar):
    """The certified cutoff of ``cbar`` along one row, restated with a scalar u.

    Each component's allowances e = rho mag / s^2 and d = sqrt(n) rho
    dmag / s, with its summand bounds mag and dmag from the kernel's
    coefficients; +inf where a variance is within its allowance of 0.
    """
    rho, rn = inference._RTOL, kernel.sqrt_n
    _, s6 = kernel._ineq_stats(u)
    _, s7 = kernel._eq_stats(u, v)
    cAA, cAU, cUU, cAV, cUV, cVV = kernel.mag_coef
    au, av = abs(u), np.abs(v)
    m0 = cAA + 2.0 * au * cAU + au * au * cUU
    m1 = cAV + au * cUV
    dmag = kernel.amax + au * kernel.umax
    mag7 = m0[6] + 2.0 * av * m1[6] + av * av * cVV[6]
    dmag7 = dmag[6] + av * kernel.vmax[6]
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.maximum(np.max(rho * m0[:6] / (s6 * s6)), rho * mag7 / (s7 * s7))
        d = np.maximum(np.max(rn * rho * dmag[:6] / s6), rn * rho * dmag7 / s7)
    return inference._cutoff(cbar, e, d)


def _row_screen(kernel, u, v, cbar):
    """The screen's mask along one row, computed row by row with a scalar u."""
    rn = kernel.sqrt_n
    mu6, s6 = kernel._ineq_stats(u)
    mu7, s7 = kernel._eq_stats(u, v)
    t6 = float(np.max(_stud(rn * mu6, s6)))
    tn = np.maximum(np.maximum(t6, _stud(rn * np.abs(mu7), s7)), 0.0)
    return ~(tn > _row_cutoff(kernel, u, v, cbar))


@settings(max_examples=150, deadline=None)
@example(
    cells=[1, 1, 10**6, 10**6], a=DependenceAssumption.WRONGLY_AGREE_Y0,
    S=SRegion.singleton(1.0, 1.0), grid=5, cbar=0.0, budget=10,
)
@example(  # only the first row is ill-conditioned; it shares a chunk with the second
    cells=[10**6, 10**6, 10**6, 2], a=DependenceAssumption.WRONGLY_AGREE_BOTH,
    S=SRegion.singleton(1.0, 1.0), grid=7, cbar=1.0, budget=14,
)
@example(
    cells=[99, 18, 5, 338], a=WA1, S=SRegion.singleton(0.9, 1.0), grid=60, cbar=3.0, budget=200,
)
@given(
    cells=st.one_of(
        st.lists(st.integers(1, 75), min_size=4, max_size=4),
        st.lists(st.integers(1, 10**6), min_size=4, max_size=4),
    ),
    a=st.sampled_from(list(DependenceAssumption)),
    S=_s_regions(),
    grid=st.integers(2, 60),
    cbar=st.floats(0.0, 20.0),
    budget=st.integers(1, 400),
)
def test_block_screen_matches_the_row_by_row_screen(cells, a, S, grid, cbar, budget):
    counts = CellCounts(*cells)
    axis = np.linspace(0.0, 1.0, grid)
    s = S.points[0]
    kernel = _kernel(counts, a, s, bootstrap_cell_frequencies(counts, 2, 0))
    (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
    u, v = kernel.orient(
        axis[(axis >= lo1) & (axis <= hi1)], axis[(axis >= lo0) & (axis <= hi0)]
    )
    with mock.patch.object(inference, "_SCREEN_BLOCK", budget):
        rows, cols = kernel.screen(u, v, cbar)
    assert np.all(np.diff(rows * v.size + cols) > 0)  # row-major, each point once
    got = np.zeros((u.size, v.size), dtype=bool)
    got[rows, cols] = True
    want = np.array([_row_screen(kernel, float(x), v, cbar) for x in u]).reshape(got.shape)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@example(  # ill-conditioned at the theta0 edges
    cells=[1, 1, 10**6, 10**6], a=DependenceAssumption.WRONGLY_AGREE_Y0, s=(1.0, 1.0), grid=5, ends=(0, 4),
    cbar=0.0,
)
@example(  # ill-conditioned in the first row only
    cells=[10**6, 10**6, 10**6, 2], a=DependenceAssumption.WRONGLY_AGREE_BOTH, s=(1.0, 1.0), grid=7,
    ends=(0, 6), cbar=1.0,
)
@example(  # row u = 1 has s7 = 0 at v = 0; rows from u = 0.24 on have t6 = 1.68
    cells=[1, 0, 4, 0], a=DependenceAssumption.NO_RESTRICTION, s=(0.8, 0.5), grid=26, ends=(0, 10),
    cbar=1.0,
)
@given(
    cells=st.one_of(
        st.lists(st.integers(1, 75), min_size=4, max_size=4),
        st.lists(st.integers(1, 10**6), min_size=4, max_size=4),
        _tables_with_an_empty_cell(),
    ),
    a=st.sampled_from(list(DependenceAssumption)),
    s=st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0)).filter(lambda p: p[0] + p[1] >= 1.02),
    grid=st.integers(2, 60),
    ends=st.tuples(st.integers(0, 59), st.integers(0, 59)),
    cbar=st.floats(0.0, 5.0),
)
def test_row_proof_holds_the_equality_gate_at_every_v(cells, a, s, grid, ends, cbar):
    # For an interval [lo, hi] of v, the row proof's bound on the equality
    # SD is at most the kernel's SD at every v in it, at its ends and
    # between them.  Where the bound certifies a row (its allowance e is
    # below 1), every point's equality variance exceeds its own allowance
    # and its allowances are at most the row's.  And the screen of the axis
    # points in [lo, hi], tables with empty cells among them, keeps what the
    # row-by-row screen keeps.
    counts = CellCounts(*cells)
    s = RefPerf(*s)
    kernel = _kernel(counts, a, s, bootstrap_cell_frequencies(counts, 2, 0))
    axis = np.linspace(0.0, 1.0, grid)
    (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
    u, v = kernel.orient(
        axis[(axis >= lo1) & (axis <= hi1)], axis[(axis >= lo0) & (axis <= hi0)]
    )
    i, j = sorted(e % v.size for e in ends)
    lo, hi = v[i], v[j]
    m0, m1, mag, dmag = kernel._magnitudes(u, max(abs(lo), abs(hi)))
    sd = kernel._equality_sd_min(u, lo, hi, m0[:, 6], m1[:, 6], mag[:, 6])
    e_row, d_row = kernel._allowance(mag[:, 6], dmag[:, 6], sd)
    vs = np.concatenate([v[i : j + 1], [lo, hi], np.linspace(lo, hi, 200)])
    _, s7 = kernel._eq_stats(u[:, None], vs)
    assert np.all(s7 >= sd[:, None])
    _, _, mag, dmag = kernel._magnitudes(u[:, None], np.abs(vs))
    e, d = kernel._allowance(mag[..., 6], dmag[..., 6], s7)
    held = e_row < 1.0
    assert np.all(e[held] < 1.0)
    assert np.all(e[held] <= e_row[held, None]) and np.all(d[held] <= d_row[held, None])
    w = v[i : j + 1]
    rows, cols = kernel.screen(u, w, cbar)
    got = np.zeros((u.size, w.size), dtype=bool)
    got[rows, cols] = True
    np.testing.assert_array_equal(got, [_row_screen(kernel, float(x), w, cbar) for x in u])


@pytest.mark.parametrize("budget", ["_SCREEN_BLOCK", "_EVAL_BLOCK"])
def test_memory_budgets_change_no_bit(monkeypatch, budget):
    # A small table screens out little, so rows keep many survivors.  At
    # B = 200 the default candidate count (64) is below B, so both phases run.
    counts = CellCounts(12, 3, 4, 20)
    S = SRegion.rectangle(0.85, 0.95, 0.95, 1.0, s1_points=2, s0_points=1)
    cfg = TestConfig(alpha=0.05, seed=4, bootstrap=200, theta_grid=25)
    eq_stats = _SPointKernel._eq_stats
    critical_values = _SPointKernel._critical_values
    signature = inspect.signature(critical_values)
    shapes, batches = [], []

    def spy(self, u, v):
        shapes.append(np.broadcast_shapes(np.shape(u), np.shape(v)))
        return eq_stats(self, u, v)

    def batch_spy(self, *args, **kwargs):
        u = signature.bind(self, *args, **kwargs).arguments["u"]
        batches.append((np.unique(u).size, u.size))
        return critical_values(self, *args, **kwargs)

    def run():
        shapes.clear()
        batches.clear()
        calls.clear()
        cs = confidence_set(counts, S, WA1, cfg)
        # Screen chunks are (rows, v) blocks, evaluation batches vectors of survivors.
        return cs, [sh for sh in shapes if len(sh) == 2], list(batches), list(calls)

    monkeypatch.setattr(_SPointKernel, "_eq_stats", spy)
    monkeypatch.setattr(_SPointKernel, "_critical_values", batch_spy)
    calls = _spy_on_order_stats(monkeypatch)
    want, screened, evaluated, phases = run()
    monkeypatch.setattr(inference, budget, 1)
    got, screened_1, evaluated_1, phases_1 = run()
    if budget == "_SCREEN_BLOCK":
        assert max(sh[0] for sh in screened) > 1 and {sh[0] for sh in screened_1} == {1}
    else:
        # Batches of one row and at most _ENVELOPE_RUN points, against several rows.
        assert max(rows for rows, _ in evaluated) > 1 and {rows for rows, _ in evaluated_1} == {1}
        assert max(size for _, size in evaluated_1) <= inference._ENVELOPE_RUN
        assert sum(size for _, size in evaluated_1) == sum(size for _, size in evaluated)
    for p in (phases, phases_1):
        assert {m for _, m in p} == {64}  # every point exact on its candidates
    for field in ("points", "t_n", "crit"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert got.n_tested == want.n_tested


def _direct_moments(counts, theta, a, boot):
    """Exact per-observation mean and centered variance per component, and each draw's deviation of the mean.

    Every observation in a cell has that cell's component value, so the
    sums over observations are count-weighted sums over cells, taken here
    in rational arithmetic; a draw's counts are its frequencies times n.
    The deviations are (components, draws).
    """
    values = build_moment_system(theta, a).cell_values  # (4 cells, 8)
    n = counts.n
    draws = [[round(x * n) for x in fb] for fb in boot]
    out = []
    for col in values.T:
        m = [Fraction(float(x)) for x in col]
        mean = sum(k * x for k, x in zip(counts.cells, m)) / n
        var = sum(k * (x - mean) ** 2 for k, x in zip(counts.cells, m)) / n
        dev = [sum(k * x for k, x in zip(draw, m)) / n - mean for draw in draws]
        out.append((float(mean), float(var), [float(d) for d in dev]))
    return (np.array(col) for col in zip(*out))


@settings(max_examples=100, deadline=None)
@example(
    cells=[1, 1, 10**6, 10**6], a=DependenceAssumption.WRONGLY_AGREE_Y0,
    s=(1.0, 1.0), f1=0.0, f0=1.0,
)
@given(
    cells=st.lists(st.integers(1, 10**6), min_size=4, max_size=4),
    a=st.sampled_from(list(DependenceAssumption)),
    s=st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0)).filter(lambda p: p[0] + p[1] >= 1.02),
    f1=st.floats(0.0, 1.0),
    f0=st.floats(0.0, 1.0),
)
def test_kernel_variances_match_per_observation_sums(cells, a, s, f1, f0):
    # The kernel computes each variance as E[m^2] - mu^2 and each bootstrap
    # deviation from its coefficient tables.  Each must agree with the exact
    # per-observation sum to a tenth of its rounding allowance: rho mag for
    # a variance, rho dmag for a deviation, mag and dmag being the
    # component's summand bounds at the point.
    counts = CellCounts(*cells)
    s = RefPerf(*s)
    (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
    theta = ThetaPoint(lo1 + f1 * (hi1 - lo1), lo0 + f0 * (hi0 - lo0), s)
    boot = bootstrap_cell_frequencies(counts, 2, 0)
    kernel = _kernel(counts, a, s, boot)
    u, v = kernel.orient(theta.theta1, theta.theta0)
    mu6, s6 = kernel._ineq_stats(u)
    mu7, s7 = kernel._eq_stats(u, np.array([v]))
    # The kernel's seven components: six inequalities and the equality pair.
    mean, var, dev = (x[:7] for x in _direct_moments(counts, theta, a, boot))
    np.testing.assert_allclose(np.concatenate([mu6, mu7]), mean, rtol=1e-12, atol=1e-12)
    # The deviations as phase A and phase B compute them, before sqrt(n).
    got_dev = np.vstack([
        kernel.PA6 + kernel.PU6 * u - mu6[:, None],
        kernel.PA7 + kernel.PU7 * u + v * kernel.PV7 - mu7,
    ])
    _, _, mag, dmag = kernel._magnitudes(u, abs(v))
    rho = inference._RTOL
    assert np.all(np.abs(np.concatenate([s6 * s6, s7 * s7]) - var) <= rho * mag / 10)
    assert np.all(np.abs(got_dev - dev) <= rho * dmag[:, None] / 10)


# -- the chunked kernel against the row-by-row oracle -------------------


def _box_points(kernel, a, s, grid, layout, seed):
    """(u, v) points of the parameter box's grid: whole rows, row subsets or scattered."""
    axis = np.linspace(0.0, 1.0, grid)
    (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
    iu, iv = kernel.orient(axis[(axis >= lo1) & (axis <= hi1)], axis[(axis >= lo0) & (axis <= hi0)])
    u, v = np.repeat(iu, iv.size), np.tile(iv, iu.size)
    rng = np.random.default_rng(seed)
    if layout == "subsets":  # survivors of a screen: rows with gaps
        keep = rng.random(u.size) < 0.4
        u, v = u[keep], v[keep]
    elif layout == "scattered":  # coverage candidates: any order, rows of one point
        pick = rng.permutation(u.size)[: max(1, u.size // 3)]
        u, v = u[pick], v[pick]
    return u, v


def _assert_kernel_matches_oracle(kernel, u, v, alpha, beta, budget):
    """``evaluate`` at an ``_EVAL_BLOCK`` budget against both kernel oracles, bit for bit.

    The raw critical values, step two's order statistics before their floor
    at zero, equal the row-by-row oracle's too.
    """
    raw = []
    critical_values = _SPointKernel._critical_values

    def spy(self, *args):
        raw.append(critical_values(self, *args).copy())
        return raw[-1]

    with mock.patch.object(inference, "_EVAL_BLOCK", budget), mock.patch.object(_SPointKernel, "_critical_values", spy):
        tn, crit = kernel.evaluate(u, v, alpha, beta)
    for oracle in (oracle_evaluate, oracle_critical_values):
        want_tn, want_crit = oracle(kernel, u, v, alpha, beta)
        assert tn.tobytes() == want_tn.tobytes()
        assert crit.tobytes() == want_crit.tobytes()
    raw = np.concatenate(raw) if raw else np.empty(0)
    np.testing.assert_array_equal(raw, oracle_raw_critical_values(kernel, u, v, alpha, beta))


def _candidate_counts(rule):
    """A stand-in for ``_candidate_count``: one more than the fewest that hold the order statistics, 92, or B."""
    if rule == "top+1":
        return lambda draws, top, points: top + 1
    if rule == "B":
        return lambda draws, top, points: draws
    return lambda draws, top, points: rule


def _spy_on_order_stats(monkeypatch):
    """Record (points, draws evaluated on) for every phase-B call."""
    calls = []
    order_stats = _SPointKernel._order_stats

    def spy(self, tables, row, *args):
        calls.append((row.size, tables[1].shape[1]))
        return order_stats(self, tables, row, *args)

    monkeypatch.setattr(_SPointKernel, "_order_stats", spy)
    return calls


@settings(max_examples=150, deadline=None)
@example(  # rule E fails in the one chunk, where a term below zero at every draw sets the raw critical value
    cells=[1, 1, 1, 16], a=DependenceAssumption.NO_RESTRICTION, S=SRegion.singleton(0.75, 0.5),
    bootstrap=1, seed=1, grid=2, layout="rows", budget=inference._EVAL_BLOCK, alpha=0.05,
)
@given(
    cells=st.one_of(
        st.lists(st.integers(1, 75), min_size=4, max_size=4), _tables_with_an_empty_cell()
    ),
    a=st.sampled_from(list(DependenceAssumption)),
    S=_s_regions(),
    bootstrap=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    grid=st.integers(2, 12),
    layout=st.sampled_from(["rows", "subsets", "scattered"]),
    budget=st.one_of(st.integers(1, 2000), st.just(inference._EVAL_BLOCK)),
    alpha=st.sampled_from([0.05, 0.10]),
)
def test_kernel_matches_the_row_by_row_oracle(cells, a, S, bootstrap, seed, grid, layout, budget, alpha):
    # Chunks of a fixed number of points (a run of equal u that spans two
    # chunks is a row in each), a reused equality term and skipped
    # below-zero terms change no bit.
    counts = CellCounts(*cells)
    s = S.points[0]
    kernel = _kernel(counts, a, s, bootstrap_cell_frequencies(counts, bootstrap, seed))
    u, v = _box_points(kernel, a, s, grid, layout, seed)
    beta = TestConfig(alpha=alpha).beta_value
    _assert_kernel_matches_oracle(kernel, u, v, alpha, beta, budget)


@settings(max_examples=120, deadline=None)
@example(  # a row whose points include s7 = 0: its envelope is +inf
    cells=[1, 0, 4, 0], a=DependenceAssumption.NO_RESTRICTION, s=(0.8, 0.5), bootstrap=37,
    seed=0, grid=41, preset=10,
)
@given(
    cells=st.one_of(
        st.lists(st.integers(1, 75), min_size=4, max_size=4), _tables_with_an_empty_cell()
    ),
    a=st.sampled_from(list(DependenceAssumption)),
    s=st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0)).filter(lambda p: p[0] + p[1] >= 1.02),
    bootstrap=st.sampled_from([1, 2, 37, 500, 2000]),
    seed=st.integers(0, 2**32 - 1),
    grid=st.integers(2, 41),
    preset=st.sampled_from(BETA_PRESETS),
)
def test_envelope_bounds_every_step_one_maximum(cells, a, s, bootstrap, seed, grid, preset):
    # Over each run of a row as the kernel cuts it, the envelope is at least
    # every step-one maximum the kernel computes at every draw, and that in
    # turn is at least every step-two term (the fact the cut relies on).
    counts = CellCounts(*cells)
    s = RefPerf(*s)
    kernel = _kernel(counts, a, s, bootstrap_cell_frequencies(counts, bootstrap, seed))
    beta = TestConfig(alpha=0.05, beta=0.05 / preset).beta_value
    u, v = _box_points(kernel, a, s, grid, "rows", seed)
    run = inference._ENVELOPE_RUN
    for x in np.unique(u):
        row_v = v[u == x]
        for lo in range(0, row_v.size, run):
            vr = row_v[lo : lo + run]
            mu6, s6, _, s7, _ = kernel._statistic(np.full(vr.size, x), vr)
            (d6max, _), free = kernel._row_tables(np.array([x]), mu6[:1], s6[:1], np.empty(14 * bootstrap))
            env = kernel._envelope(
                np.zeros(1, dtype=int), np.array([x]), d6max,
                vr.min(keepdims=True), vr.max(keepdims=True), s7.min(keepdims=True), free,
            )
            _, _, parts = oracle_evaluate_row(kernel, float(x), vr, 0.05, beta)
            assert np.all(parts["step_one"] <= env)
            assert np.all(parts["step_two"] <= parts["step_one"])
            assert np.all(env >= 0.0)  # so the cut is never negative


def test_envelope_is_infinite_where_s7_is_zero(monkeypatch):
    # The pinned row's first point has s7 = 0: its run's cut is +inf, so
    # every point of the run is evaluated again on all B draws.
    counts = CellCounts(1, 0, 4, 0)
    a, s, x = DependenceAssumption.NO_RESTRICTION, RefPerf(0.8, 0.5), 1.0
    kernel = _kernel(counts, a, s, bootstrap_cell_frequencies(counts, 20, 0))
    v = np.linspace(0.0, 0.4, 17)
    mu6, s6, _, s7, _ = kernel._statistic(np.full(v.size, x), v)
    assert s7[0] == 0.0 and np.all(s7[1:] > 0.0)
    (d6max, _), free = kernel._row_tables(np.array([x]), mu6[:1], s6[:1], np.empty(14 * 20))
    env = kernel._envelope(
        np.zeros(1, dtype=int), np.array([x]), d6max, v[:1], v[-1:], s7.min(keepdims=True), free
    )
    assert np.all(env == np.inf)
    monkeypatch.setattr(inference, "_candidate_count", _candidate_counts("top+1"))
    calls = _spy_on_order_stats(monkeypatch)
    _assert_kernel_matches_oracle(kernel, np.full(v.size, x), v, 0.05, 0.005, inference._EVAL_BLOCK)
    assert calls == [(v.size, 2), (v.size, 20)]  # top + 1 = 2 candidates, then every draw


@settings(max_examples=120, deadline=None)
@example(  # the row at u = 0 has s6 = 0
    cells=[0, 25, 20, 10], a=DependenceAssumption.NO_RESTRICTION, s=(0.8, 1.0), bootstrap=37,
    seed=912, grid=9, per_pass=1,
)
@example(  # the row at u = 1 has a point with s7 = 0
    cells=[1, 0, 4, 0], a=DependenceAssumption.NO_RESTRICTION, s=(0.8, 0.5), bootstrap=37,
    seed=0, grid=41, per_pass=6,
)
@given(
    cells=st.one_of(
        st.lists(st.integers(1, 75), min_size=4, max_size=4), _tables_with_an_empty_cell()
    ),
    a=st.sampled_from(list(DependenceAssumption)),
    s=st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0)).filter(lambda p: p[0] + p[1] >= 1.02),
    bootstrap=st.sampled_from([1, 37, 500]),
    seed=st.integers(0, 2**32 - 1),
    grid=st.integers(2, 41),
    per_pass=st.integers(1, 6),
)
def test_streamed_row_tables_match_the_full_tables(cells, a, s, bootstrap, seed, grid, per_pass):
    # Phase A streams the six components through the scratch after d6max,
    # ``per_pass`` (rows, B) temporaries of it, and keeps d6max and top6;
    # dev6 and base7 are formed only at the draws phase B reads.  Each
    # equals the full row tables bit for bit, at every row of the box grid
    # and at gathered draws, repeats included.
    counts = CellCounts(*cells)
    kernel = _kernel(counts, a, RefPerf(*s), bootstrap_cell_frequencies(counts, bootstrap, seed))
    ur = np.unique(_box_points(kernel, a, RefPerf(*s), grid, "rows", seed)[0])
    mu6, s6 = kernel._ineq_stats(ur[:, None])
    scratch = np.empty((1 + per_pass) * ur.size * bootstrap)
    (d6max, top6), _ = kernel._row_tables(ur, mu6, s6, scratch)
    dev6, want_d6max, want_top6, base7 = oracle_row_tables(kernel, ur, mu6, s6)
    assert d6max.tobytes() == want_d6max.tobytes()
    assert top6.tobytes() == want_top6.T.tobytes()
    at = np.random.default_rng(seed).integers(0, bootstrap, (ur.size, 1 + bootstrap // 3))
    got6, got7, tmp = np.empty((6, *at.shape)), np.empty(at.shape), np.empty(at.shape)
    kernel._tables_at(ur, mu6, at, got6, got7, tmp)
    assert got6.tobytes() == np.take_along_axis(dev6, at[:, None, :], axis=2).transpose(1, 0, 2).tobytes()
    assert got7.tobytes() == np.take_along_axis(base7, at, axis=1).tobytes()


@settings(max_examples=120, deadline=None)
@example(  # bhat at or below the cut, the critical value above it
    cells=[21, 67, 21, 61], a=WA1, S=SRegion.singleton(0.9628572886072093, 0.979206815888976),
    bootstrap=207, seed=4131681658, grid=10, layout="rows", count="top+1",
    budget=inference._EVAL_BLOCK, beta=0.04,
)
@given(
    cells=st.one_of(
        st.lists(st.integers(1, 75), min_size=4, max_size=4), _tables_with_an_empty_cell()
    ),
    a=st.sampled_from(list(DependenceAssumption)),
    S=_s_regions(),
    bootstrap=st.one_of(st.integers(1, 300), st.just(500)),
    seed=st.integers(0, 2**32 - 1),
    grid=st.integers(2, 12),
    layout=st.sampled_from(["rows", "subsets", "scattered"]),
    count=st.sampled_from(["top+1", 92, "B"]),
    budget=st.one_of(st.integers(1, 4000), st.just(inference._EVAL_BLOCK)),
    beta=st.sampled_from([0.05 / d for d in BETA_PRESETS] + [0.04]),
)
def test_candidate_draws_match_both_oracles(cells, a, S, bootstrap, seed, grid, layout, count, budget, beta):
    # With the candidate count forced, whatever the call's size: the fewest
    # candidates that hold the order statistics plus one, the default's 92,
    # or B, which sends every point to the evaluation on all B draws.  Past
    # alpha / 2, beta puts step one's order statistic below step two's, so
    # bhat can fall below the cut where the critical value does not.
    counts = CellCounts(*cells)
    s = S.points[0]
    kernel = _kernel(counts, a, s, bootstrap_cell_frequencies(counts, bootstrap, seed))
    u, v = _box_points(kernel, a, s, grid, layout, seed)
    with mock.patch.object(inference, "_candidate_count", _candidate_counts(count)):
        _assert_kernel_matches_oracle(kernel, u, v, 0.05, beta, budget)


def _step_two_facts(kernel, u, v):
    """What the step-two rules see along one row, from the oracle's recenterings."""
    _, _, parts = oracle_evaluate_row(kernel, u, v, 0.05, 0.005)
    lam6, s6, s7 = parts["lam6"], parts["s6"], parts["s7"]
    top = oracle_stud(kernel.sqrt_n * (parts["dev6"].max(axis=0) + lam6), s6)
    below = top < 0.0  # the term is below zero at every draw
    # The row's components the skip rule drops, and those a stricter rule
    # that also asked for s7 > 0 and both equality recenterings 0 at every
    # point of the row would have kept.
    flat7 = (s7 > 0.0) & (parts["lam7a"] == 0.0) & (parts["lam7b"] == 0.0)
    skipped = below.all(axis=0)
    return {
        "skipped": skipped,
        "skipped_only_without_the_s7_conditions": skipped & ~(below & flat7[:, None]).all(axis=0),
        "s7_zero": s7 == 0.0,
        "zero": lam6 == 0.0,
        "negative": lam6 < 0.0,
        "s6_zero": s6 == 0.0,
    }


@pytest.mark.parametrize(
    "cells, a, s, bootstrap, seed, u, v, holds",
    [
        pytest.param(
            (189, 205, 302, 380), DependenceAssumption.NO_RESTRICTION, (0.8, 1.0), 11, 249,
            0.45, [0.5, 0.55], lambda f: f["skipped"].all(), id="all-six-dominated",
        ),
        pytest.param(
            (21, 0, 10, 24), DependenceAssumption.WRONGLY_AGREE_BOTH, (1.0, 1.0), 18, 685,
            0.375, list(np.linspace(0.0, 1.0, 9)),
            lambda f: np.any(f["zero"].any(axis=0) & f["negative"].any(axis=0)),
            id="zero-and-negative-recentering",
        ),
        pytest.param(
            (1, 0, 4, 0), DependenceAssumption.NO_RESTRICTION, (0.8, 0.5), 20, 0,
            1.0, [0.0, 0.025],
            lambda f: f["skipped_only_without_the_s7_conditions"].any() and f["s7_zero"].any(),
            id="skipped-where-s7-is-zero",
        ),
        pytest.param(
            (0, 25, 20, 10), DependenceAssumption.NO_RESTRICTION, (0.8, 1.0), 27, 912,
            0.0, list(np.linspace(0.0, 1.0, 9)), lambda f: f["s6_zero"].any(),
            id="zero-variance-s6",
        ),
    ],
)
def test_kernel_step_two_rules_on_pinned_rows(monkeypatch, cells, a, s, bootstrap, seed, u, v, holds):
    # Rows where the chunked oracle's zero and skip rules act, or where s7
    # or s6 is zero: the kernel evaluates every step-two term, on candidate
    # draws and on all B draws, and agrees with both oracles bit for bit.
    counts = CellCounts(*cells)
    kernel = _kernel(counts, a, RefPerf(*s), bootstrap_cell_frequencies(counts, bootstrap, seed))
    v = np.array(v)
    assert holds(_step_two_facts(kernel, u, v))
    calls = _spy_on_order_stats(monkeypatch)
    top = inference._top
    chunks = []

    def chunk_spy(x, k):
        chunks.append((count, budget, x.shape))
        return top(x, k)

    monkeypatch.setattr(inference, "_top", chunk_spy)
    for count in ("top+1", "B"):
        monkeypatch.setattr(inference, "_candidate_count", _candidate_counts(count))
        for budget in (1, 20 * bootstrap, inference._EVAL_BLOCK):
            _assert_kernel_matches_oracle(kernel, np.full(v.size, u), v, 0.05, 0.005, budget)
    # Both phases ran: points on top + 1 candidate draws, the rest on all B.
    m = 2 if bootstrap < 21 else 3
    assert {width for _, width in calls} == {m, bootstrap}
    # On all B draws a chunk at 20 B holds 2 points (three (point x B) arrays
    # within a third of the budget), so a 9-point row takes five chunks.
    at_20b = [shape[0] for c, b, shape in chunks if (c, b) == ("B", 20 * bootstrap)]
    assert at_20b[::2] == ([2, 2, 2, 2, 1] if v.size == 9 else [v.size])


def _spy_on_step_two_rules(monkeypatch):
    """Record (points, reuse, skip) for every phase-B chunk."""
    chunks = []
    rules = inference._step_two_rules

    def spy(lam7a, *args):
        reuse, skip = rules(lam7a, *args)
        chunks.append((lam7a.shape[0], reuse, skip))
        return reuse, skip

    monkeypatch.setattr(inference, "_step_two_rules", spy)
    return chunks


def _oracle_parts(kernel, u, v):
    """The oracle's s7, recenterings and reject decisions at points (u[k], v[k]), rows of equal u."""
    parts = []
    for x in np.unique(u):
        tn, crit, p = oracle_evaluate_row(kernel, float(x), v[u == x], 0.05, 0.005)
        parts.append((p["s7"], p["lam7a"], p["lam7b"], p["lam6"], _rejects(tn, crit)))
    return (np.concatenate(col) for col in zip(*parts))


@pytest.mark.parametrize("budget", [1, inference._EVAL_BLOCK])
@pytest.mark.parametrize("count", ["top+1", 92, "B"])
def test_step_two_rules_in_one_mixed_chunk(monkeypatch, count, budget):
    # The 25 points of a 5 x 5 box grid make one chunk at the default
    # budget, on candidate draws and on all 200.  They mix every case the
    # rules must tell apart: a point with s7 = 0, rejected points with a
    # negative equality recentering next to points where both are 0, and
    # components recentered by +0.0 at some points and by less at others.
    # So the chunk takes no rule E, hence no rule S.  At budget 1 every
    # point is a chunk of its own.
    counts = CellCounts(1, 0, 4, 0)
    a, s = DependenceAssumption.NO_RESTRICTION, RefPerf(0.8, 0.5)
    kernel = _kernel(counts, a, s, bootstrap_cell_frequencies(counts, 200, 0))
    u, v = _box_points(kernel, a, s, 5, "rows", 0)
    s7, lam7a, lam7b, lam6, rejected = _oracle_parts(kernel, u, v)
    flat7 = (lam7a == 0.0) & (lam7b == 0.0)
    mixed = (lam6 == 0.0).any(axis=0) & (lam6 < 0.0).any(axis=0)
    assert (s7 == 0.0).any() and (rejected & ~flat7).any() and (flat7 & (s7 > 0.0)).any() and mixed.any()
    chunks = _spy_on_step_two_rules(monkeypatch)
    monkeypatch.setattr(inference, "_candidate_count", _candidate_counts(count))
    _assert_kernel_matches_oracle(kernel, u, v, 0.05, 0.005, budget)
    if budget == 1:
        assert {points for points, *_ in chunks} == {1}
        assert any(reuse for _, reuse, _ in chunks)  # the rules act on points of their own
    else:
        points, reuse, skip = chunks[0]
        assert points == u.size and not reuse and not any(skip)


def test_step_two_rules_on_the_infer_grid_region(monkeypatch):
    # The benchmark's infer call (EUA, wa1, s1 in [0.8, 0.9] at s0 = 1.0,
    # 316^2 grid, B = 500, seed 1) takes 27 phase-B chunks, all on 92
    # candidate draws.  Rule E holds in every one, and of the 162 (chunk,
    # component) pairs, 77 are skipped and 85 evaluated per point: a rule
    # that stops acting fails here rather than only slowing.
    chunks = _spy_on_step_two_rules(monkeypatch)
    cfg = TestConfig(alpha=0.05, seed=1, bootstrap=500, theta_grid=316)
    confidence_set(EUA, SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=2, s0_points=1), WA1, cfg)
    assert len(chunks) == 27 and all(reuse for _, reuse, _ in chunks)
    skipped = sum(sum(skip) for *_, skip in chunks)
    assert (skipped, 6 * len(chunks) - skipped) == (77, 85)


def test_every_array_of_an_evaluate_call_lives_in_one_scratch(monkeypatch):
    # Candidates of top + 1 draws leave points to evaluate again on all B
    # draws, so every phase runs, over several batches.  The row tables,
    # envelopes, candidates' tables and the chunk arrays _top sorts are
    # views of one scratch per call, and each call allocates its own.
    kernel = _kernel(EUA, WA1, S91, bootstrap_cell_frequencies(EUA, 500, 1))
    u, v = _box_points(kernel, WA1, S91, 60, "rows", 0)
    monkeypatch.setattr(inference, "_candidate_count", _candidate_counts("top+1"))
    calls = _spy_on_order_stats(monkeypatch)
    arrays = []
    top, row_tables, envelope = inference._top, _SPointKernel._row_tables, _SPointKernel._envelope
    order_stats = _SPointKernel._order_stats  # the spy above

    def top_spy(x, k):
        arrays.append(x)
        return top(x, k)

    def row_tables_spy(self, *args):
        (d6max, top6), free = row_tables(self, *args)
        arrays.append(d6max)  # top6 has no draw axis
        return (d6max, top6), free

    def envelope_spy(self, *args):
        arrays.append(envelope(self, *args))
        return arrays[-1]

    def order_stats_spy(self, tables, *args):
        dev6, d6max, base7, pv7, _ = tables  # top6 has no draw axis
        # On all B draws PV7 serves every row, and each chunk forms dev6 and base7 in its own arrays.
        arrays.extend((d6max,) if pv7.base is self.PV7 else (dev6, d6max, base7, pv7))
        return order_stats(self, tables, *args)

    monkeypatch.setattr(inference, "_top", top_spy)
    monkeypatch.setattr(_SPointKernel, "_row_tables", row_tables_spy)
    monkeypatch.setattr(_SPointKernel, "_envelope", envelope_spy)
    monkeypatch.setattr(_SPointKernel, "_order_stats", order_stats_spy)
    scratches = []
    for _ in range(2):
        arrays.clear()
        calls.clear()
        kernel.evaluate(u, v, 0.05, 0.005)
        assert {m for _, m in calls} == {24, 500} and len(calls) > 4
        scratch = arrays[0].base
        assert scratch.ndim == 1 and all(np.shares_memory(x, scratch) for x in arrays)
        scratches.append(scratch)
    assert scratches[0] is not scratches[1]


@pytest.mark.parametrize(
    "a, n_tested",
    [
        (DependenceAssumption.NO_RESTRICTION, 1600),
        (DependenceAssumption.WRONGLY_AGREE_Y1, 1240),
        (DependenceAssumption.WRONGLY_AGREE_Y0, 1200),
        (DependenceAssumption.WRONGLY_AGREE_BOTH, 930),
    ],
)
def test_reference_point_with_no_survivors(monkeypatch, a, n_tested):
    # At s = (0.55, 0.5) the screen rejects every grid point of EUA, so the
    # kernel evaluates an empty set of survivors.
    cfg = TestConfig(alpha=0.05, seed=1, bootstrap=100, theta_grid=40)
    evaluated = _spy_on_evaluate(monkeypatch)
    cs = confidence_set(EUA, SRegion.singleton(0.55, 0.5), a, cfg)
    assert not evaluated
    assert cs.points.shape == (0, 4) and cs.n_tested == n_tested
    for arr in (cs.t_n, cs.crit):
        assert arr.dtype == np.float64 and arr.shape == (0,)
    alone = confidence_set(EUA, SRegion.singleton(0.9, 1.0), a, cfg)
    both = confidence_set(EUA, SRegion((RefPerf(0.55, 0.5), RefPerf(0.9, 1.0))), a, cfg)
    assert len(alone) > 0
    for field in ("points", "t_n", "crit"):
        got, want = getattr(both, field), getattr(alone, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "s1_points, digest, retained",
    [
        pytest.param(
            2, "d8349115aba4a9f04575d3d2edf9b971ffb9076ce520a089cccd223e342b6604", 1323, id="infer-grid"
        ),
        pytest.param(
            10, "15ec192a9653ac7337609cead2b79ee7bb2ca46c3a7ddcf374ad7c77a714b680", 6630, id="ten-points"
        ),
    ],
)
def test_pinned_regions_keep_their_digests(monkeypatch, s1_points, digest, retained):
    # EUA under wa1 over s1 in [0.8, 0.9] at s0 = 1.0, 316^2 grid, B = 500,
    # seed 1: the sha256 of the points, t_n and crit bytes, as the kernel
    # gave them before candidate draws.  On the two-point region every
    # survivor is exact on its 92 candidate draws, none is evaluated again
    # on all B: a loosened envelope fails here rather than only slowing.
    # The row screen rejects 220 of 284 and 230 of 300 rows whole, and the
    # per-point screen runs on the other 64 and 70: a loosened row proof
    # fails here rather than only slowing.
    calls = _spy_on_order_stats(monkeypatch)
    screened = []  # [rows, rows of the per-point pass] per reference point
    screen, eq_stats = _SPointKernel.screen, _SPointKernel._eq_stats

    def screen_spy(self, u, v, cbar):
        screened.append([u.size, 0])
        return screen(self, u, v, cbar)

    def eq_stats_spy(self, u, v):
        if np.ndim(u) == 2:  # a chunk of rows against v
            screened[-1][1] += np.shape(u)[0]
        return eq_stats(self, u, v)

    monkeypatch.setattr(_SPointKernel, "screen", screen_spy)
    monkeypatch.setattr(_SPointKernel, "_eq_stats", eq_stats_spy)
    cfg = TestConfig(alpha=0.05, seed=1, bootstrap=500, theta_grid=316)
    S = SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=s1_points, s0_points=1)
    batches = []
    critical_values = _SPointKernel._critical_values

    def batch_spy(self, *args):
        batches.append(len(args[0]))  # a flag per point of the batch
        return critical_values(self, *args)

    monkeypatch.setattr(_SPointKernel, "_critical_values", batch_spy)
    cs = confidence_set(EUA, S, WA1, cfg)
    got = hashlib.sha256(cs.points.tobytes() + cs.t_n.tobytes() + cs.crit.tobytes()).hexdigest()
    assert (got, len(cs)) == (digest, retained)
    if s1_points == 2:
        assert {m for _, m in calls} == {92} and sum(p for p, _ in calls) == 1949
        assert screened == [[284, 64], [300, 70]]
        # The 134 bootstrapped rows, each of one run, take 4 batches of at most 35 rows.
        assert len(batches) <= 4 and sum(batches) == 1949


def test_minimum_and_maximum_against_zero_give_positive_zero():
    # The kernel writes np.minimum(x, 0.0) for every recentering and
    # np.maximum(x, 0.0) for T_n and every critical value.  Both turn either
    # zero into +0.0, so which zero a tie or a reduction keeps upstream (the
    # max over components of d6max, the order statistic of a bound) never
    # reaches an output.  Scalars, short arrays and arrays long enough for
    # the SIMD loops.
    for x in (0.0, -0.0):
        for f in (np.minimum, np.maximum):
            got = f(np.float64(x), 0.0)
            assert got == 0.0 and not np.signbit(got)
    for shape in ((1,), (7,), (64,), (8, 64)):
        zeros = np.where(np.arange(np.prod(shape)) % 3 == 0, -0.0, 0.0).reshape(shape)
        assert np.signbit(zeros).any()
        for f in (np.minimum, np.maximum):
            got = f(zeros, 0.0)
            assert np.all(got == 0.0) and not np.signbit(got).any()


def _traced_peak(call):
    """``call()``'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_batch_scratch_stays_within_its_bound_at_b_500():
    # A batch is charged 2 B + 9 m words per row and run: at B = 500 and
    # the default 92 candidates it takes 35 rows, and its scratch stays
    # within the 78,364 words the kernel needed when a batch took 10.
    rows = inference._batch_rows(500, 92)
    assert rows == 35
    for points in (1, 79, 80, 2000, 10**6):
        assert inference._scratch_words(500, 92, rows, points) <= 78_364


def test_kernel_memory_is_bounded_by_the_budget_at_large_b():
    # At B = 20,000 a batch is one row and a phase-B chunk on all B draws one
    # point.  The row tables and the (point x draw) arrays are built per
    # batch, never per reference point, so the peak stays at a fixed
    # multiple of the budget: the kernel's own (B, 8) tables, the draws, one
    # row's tables and candidates and one point's scratch.
    counts = CellCounts(12, 3, 4, 20)
    cfg = TestConfig(alpha=0.05, seed=4, bootstrap=20_000, theta_grid=9)
    cs, peak = _traced_peak(lambda: confidence_set(counts, SRegion.singleton(0.9, 1.0), WA1, cfg))
    assert len(cs) > 10  # many rows go through the bootstrap
    assert peak < 24 * inference._EVAL_BLOCK * 8, peak


def test_kernel_memory_is_one_chunk_of_single_point_rows():
    # Scattered points are rows of one point each, a batch's worst case:
    # as many rows and runs as points.  The bound is what one chunk of
    # piece = _EVAL_BLOCK // (3 B) points took before candidate draws, 17
    # piece B floats; a batch now holds at most 1.04 _EVAL_BLOCK at B = 500.
    # Beyond one batch the peak holds per-point figures (the inputs, their
    # statistics and recenterings) and numpy's iteration buffer of
    # getbufsize() elements for each of two operands, never an array of
    # every point's draws.
    draws = 500
    kernel = _kernel(EUA, WA1, S91, bootstrap_cell_frequencies(EUA, draws, 1))
    piece = inference._EVAL_BLOCK // (3 * draws)
    (lo1, hi1), (lo0, hi0) = param_space_box(WA1, S91)
    rng = np.random.default_rng(0)
    n = 3 * piece
    u, v = rng.uniform(lo1, hi1, n), rng.uniform(lo0, hi0, n)
    assert np.unique(u).size == n and n > 2 * piece  # single-point rows, many batches of them
    (tn, crit), peak = _traced_peak(lambda: kernel.evaluate(u, v, 0.05, 0.005))
    assert np.all(np.isfinite(crit))
    per_point = 48 * n * 8
    assert peak < 17 * piece * draws * 8 + per_point + 2 * np.getbufsize() * 8, peak


def test_bootstrap_draw_memory_is_the_output_alone():
    # The draws are written row by row into one (B, 4) array, so the peak
    # is its 4 B floats and a fixed allowance for the generator and a
    # row.  Keeping one multinomial result per draw (four counts, about
    # 150 bytes with the array's header) would add 3 MB at B = 20,000.
    draws = 20_000
    bootstrap_cell_frequencies(EUA, 2, 0)  # first-call set-up is not the draws' memory
    freqs, peak = _traced_peak(lambda: bootstrap_cell_frequencies(EUA, draws, 1))
    assert freqs.shape == (draws, 4)
    assert peak < 4 * draws * 8 + 64 * 1024, peak


def test_screen_memory_stays_below_a_mask_of_the_whole_block():
    # The screen gathers each chunk's survivors, so its peak is the survivors'
    # indices and one chunk's temporaries, not a (u x v) boolean mask.
    axis = np.linspace(0.0, 1.0, 3000)
    kernel = _kernel(EUA, WA1, S91, bootstrap_cell_frequencies(EUA, 2, 0))
    (lo1, hi1), (lo0, hi0) = param_space_box(WA1, S91)
    u, v = kernel.orient(axis[(axis >= lo1) & (axis <= hi1)], axis[(axis >= lo0) & (axis <= hi0)])
    cbar = inference._chi_square_bound(EUA, bootstrap_cell_frequencies(EUA, 200, 0), 0.955)
    (rows, _), peak = _traced_peak(lambda: kernel.screen(u, v, cbar))
    assert 0 < rows.size < u.size * v.size // 50
    assert peak < u.size * v.size, (peak, u.size * v.size)
