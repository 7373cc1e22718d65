import numpy as np
import pytest
from hypothesis import example, given, settings
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
from diagbounds.inference import (
    _SPointKernel,
    _stud,
    bootstrap_cell_frequencies,
    derive_seed,
)
from diagbounds.moments import param_space_box

from helpers import TABLE_DATASETS, WA1

EUA = TABLE_DATASETS["eua_sx"]
S91 = RefPerf(0.9, 1.0)
CFG = TestConfig(alpha=0.05, seed=20240501)


def test_config_validation():
    assert TestConfig(alpha=0.05).beta_value == pytest.approx(0.005)
    assert TestConfig.with_beta_preset(0.05, 5).beta_value == pytest.approx(0.01)
    assert TestConfig.with_beta_preset(0.05, 20).beta_value == pytest.approx(0.0025)
    with pytest.raises(ValueError):
        TestConfig(alpha=0.05, beta=0.05)
    with pytest.raises(ValueError):
        TestConfig(alpha=0.05, bootstrap=0)
    with pytest.raises(ValueError):
        TestConfig.with_beta_preset(0.05, 7)


def test_bootstrap_frequencies_shape_and_determinism():
    f1 = bootstrap_cell_frequencies(EUA, CFG)
    f2 = bootstrap_cell_frequencies(EUA, CFG)
    assert f1.shape == (500, 4)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_allclose(f1.sum(axis=1), 1.0, atol=1e-12)
    f3 = bootstrap_cell_frequencies(EUA, TestConfig(alpha=0.05, seed=2))
    assert not np.array_equal(f1, f3)


def test_derive_seed_stable():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)


def test_stud_zero_denominator_conventions():
    out = _stud(np.array([1.0, -1.0, 0.0]), np.array([0.0, 0.0, 0.0]))
    assert out[0] == np.inf and out[1] == -np.inf and out[2] == -np.inf


def test_apparent_point_rejected_on_eua():
    res = rsw2_test(EUA, ThetaPoint(0.846, 0.985, S91), WA1, CFG)
    assert res.reject
    assert res.t_n > res.crit > 0


def test_segment_midpoint_accepted_on_eua():
    seg = sharp_segment(estimate_joint(EUA), S91, WA1)
    mid = seg.point_at(0.5)
    res = rsw2_test(EUA, ThetaPoint(*mid, S91), WA1, CFG)
    assert not res.reject
    assert res.t_n == pytest.approx(0.0, abs=1e-9)


def test_far_outside_rejected_even_with_single_draw():
    cfg = TestConfig(alpha=0.05, seed=1, bootstrap=1)
    res = rsw2_test(EUA, ThetaPoint(0.1, 0.1, S91), WA1, cfg)
    assert res.reject and res.t_n > 5.0


def test_inference_requires_occupied_cells():
    with pytest.raises(ValueError, match="every"):
        rsw2_test(CellCounts(10, 0, 2, 5), ThetaPoint(0.5, 0.5, S91), WA1, CFG)
    with pytest.raises(ValueError):
        confidence_set(CellCounts(9, 0, 0, 0), SRegion.singleton(0.9, 1.0), WA1, CFG)


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
    for t1 in cs.theta1_axis:
        if seg.lo[0] <= t1 <= seg.hi[0]:
            t0_line = seg.theta0_at(t1)
            j = int(round(t0_line * (SMALL.theta_grid - 1)))
            t0 = cs.theta0_axis[min(j, SMALL.theta_grid - 1)]
            assert cs.contains(t1, t0, S91), (t1, t0)
    proj = cs.projections
    assert proj is not None
    assert proj[0].lo <= seg.lo[0] and proj[0].hi >= seg.hi[0] - pitch


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
    idx1 = np.searchsorted(cs.theta1_axis, cs.points[:, 0])
    idx0 = np.searchsorted(cs.theta0_axis, cs.points[:, 1])
    keys = list(zip(idx1, idx0))
    assert keys == sorted(keys)


def test_confidence_set_serialization_roundtrip():
    cs = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, TestConfig(alpha=0.05, seed=3, theta_grid=40))
    d = cs.to_dict()
    assert d["n_retained"] == len(cs)
    assert d["quantile_method"] == "higher"
    rows = cs.to_csv_rows()
    assert rows[0] == "theta1,theta0,s1,s0,Tn,crit,accepted"
    assert len(rows) == len(cs) + 1


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
    stats = moment_stats(counts, system)
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
    boot = bootstrap_cell_frequencies(counts, cfg)
    rng = np.random.default_rng(abs(hash(a.value)) % 2**32)
    from diagbounds import param_space_box

    box = param_space_box(a, s)
    for _ in range(6):
        theta = ThetaPoint(
            float(rng.uniform(0.05, box[0][1])), float(rng.uniform(0.05, box[1][1])), s
        )
        want_tn, want_crit = _reference_two_step(counts, theta, a, cfg, boot)
        from diagbounds.inference import _point_test

        got = _point_test(counts, theta, a, cfg, boot_freqs=boot)
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
    assert seg.hi[1] < unrestricted.hi[1]  # halved upper cap binds
    assert seg.hi[0] < unrestricted.hi[0]  # and crosses over to theta1
    cfg = TestConfig(alpha=0.05, seed=77)
    mid = seg.point_at(0.5)
    assert not rsw2_test(counts, ThetaPoint(*mid, s), a, cfg).reject
    assert rsw2_test(counts, ThetaPoint(0.05, 0.05, s), a, cfg).reject
    cs = confidence_set(
        counts, SRegion.singleton(0.88, 0.9), a, TestConfig(alpha=0.05, seed=77, theta_grid=50)
    )
    assert len(cs) > 0
    assert cs.points[:, 1].max() <= (1.0 + 0.9) / 2.0 + 1e-12


def test_beta_presets_run_and_agree_qualitatively():
    seg = sharp_segment(estimate_joint(EUA), S91, WA1)
    mid = ThetaPoint(*seg.point_at(0.5), S91)
    apparent = ThetaPoint(0.846, 0.985, S91)
    for divisor in (5, 10, 20):
        cfg = TestConfig.with_beta_preset(0.05, divisor, seed=20240501)
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


def test_coverage_simulation_checks_cell_floor():
    thin = JointTR(0.499, 0.499, 0.001, 0.001)
    with pytest.raises(ValueError, match="cell floor"):
        coverage_simulation(
            thin, RefPerf(0.9, 0.9), DependenceAssumption.NO_RESTRICTION, n=500, reps=5,
            cfg=TestConfig(alpha=0.05, seed=1), eps=0.01,
        )


def _chi_square_bound(counts, boot, level):
    """The level quantile of the square-rooted Pearson statistics of the draws."""
    f = np.asarray(counts.cells, dtype=float) / counts.n
    x2 = [counts.n * sum((fb[c] - f[c]) ** 2 / f[c] for c in range(4)) for fb in boot]
    return max(float(np.quantile(np.sqrt(x2), level, method="higher")), 0.0)


def _unscreened_confidence_set(counts, S, a, cfg):
    """Confidence set from full-row kernel evaluations, with no screen.

    Also checks the screen's invariant at every finite grid point: the
    critical value never exceeds the chi-square bound.  The bound can be
    attained (a component parallel to a draw's deviation), so rounding may
    put the critical value an ulp above it; the screen's margin covers that.
    """
    boot = bootstrap_cell_frequencies(counts, cfg)
    axis = np.linspace(0.0, 1.0, cfg.theta_grid)
    cbar = _chi_square_bound(counts, boot, 1.0 - cfg.alpha + cfg.beta_value)
    retained = []
    n_tested = 0
    for s_idx, s in enumerate(sorted(S.points, key=lambda q: (q.s1, q.s0))):
        kernel = _SPointKernel(counts, a, s, boot)
        (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
        idx1 = np.flatnonzero((axis >= lo1) & (axis <= hi1))
        idx0 = np.flatnonzero((axis >= lo0) & (axis <= hi0))
        n_tested += idx1.size * idx0.size
        iu, iv = (idx1, idx0) if kernel.u_is_theta1 else (idx0, idx1)
        for i in iu:
            tn, crit = kernel.evaluate(float(axis[i]), axis[iv], cfg.alpha, cfg.beta_value)
            finite = np.isfinite(tn)
            assert np.all(crit[finite] <= cbar * (1.0 + 1e-12)), (crit[finite].max(), cbar)
            for j, t, c in zip(iv[finite], tn[finite], crit[finite]):
                if t <= c:
                    i1, i0 = (i, j) if kernel.u_is_theta1 else (j, i)
                    retained.append((i1, i0, s_idx, s, t, c))
    retained.sort(key=lambda r: r[:3])
    points = np.array([[axis[r[0]], axis[r[1]], r[3].s1, r[3].s0] for r in retained])
    t_n = np.array([r[4] for r in retained])
    crit = np.array([r[5] for r in retained])
    return points.reshape(-1, 4), t_n, crit, n_tested


def _assert_matches_unscreened(counts, S, a, cfg):
    cs = confidence_set(counts, S, a, cfg)
    points, t_n, crit, n_tested = _unscreened_confidence_set(counts, S, a, cfg)
    np.testing.assert_array_equal(cs.points, points)
    np.testing.assert_array_equal(cs.t_n, t_n)
    np.testing.assert_array_equal(cs.crit, crit)
    assert cs.n_tested == n_tested
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


def _spy_on_evaluate(monkeypatch):
    """Record (u, v) -> (T_n, crit) for every point the kernel evaluates."""
    evaluated = {}
    evaluate = _SPointKernel.evaluate

    def spy(self, u, v, alpha, beta):
        tn, crit = evaluate(self, u, v, alpha, beta)
        evaluated.update({(u, float(x)): (t, c) for x, t, c in zip(v, tn, crit)})
        return tn, crit

    monkeypatch.setattr(_SPointKernel, "evaluate", spy)
    return evaluated


def test_screen_skips_the_bootstrap_at_most_grid_points(monkeypatch):
    evaluated = _spy_on_evaluate(monkeypatch)
    cs = confidence_set(EUA, SRegion.singleton(0.9, 1.0), WA1, SMALL)
    assert len(cs) <= len(evaluated) < cs.n_tested / 20


def test_ill_conditioned_points_take_the_full_evaluation(monkeypatch):
    # Two single-observation cells among two million: at the theta0 edges
    # (the driving coordinate under wa0) the variance of a moment component
    # is about 5e-7 of its second moment, so the screen must leave those
    # rows to the bootstrap even though their T_n is in the thousands.
    counts = CellCounts(1, 1, 1_000_000, 1_000_000)
    a = DependenceAssumption.WRONGLY_AGREE_Y0
    s = RefPerf(1.0, 1.0)
    cfg = TestConfig(alpha=0.05, seed=3, bootstrap=50, theta_grid=5)
    axis = np.linspace(0.0, 1.0, cfg.theta_grid)
    kernel = _SPointKernel(counts, a, s, bootstrap_cell_frequencies(counts, cfg))
    assert not kernel.u_is_theta1
    for edge in (0.0, 1.0):
        mu6, s6, _, _, tn = kernel._statistic(edge, axis)
        assert np.min(s6 * s6 / (s6 * s6 + mu6 * mu6)) < 1e-6
        assert np.all(tn > 1e3) and np.all(kernel.needs_bootstrap(edge, axis, 0.0))

    evaluated = _spy_on_evaluate(monkeypatch)
    cs = confidence_set(counts, SRegion.singleton(1.0, 1.0), a, cfg)
    monkeypatch.undo()
    for edge in (0.0, 1.0):
        for theta1 in axis:
            res = rsw2_test(counts, ThetaPoint(float(theta1), edge, s), a, cfg)
            assert res.reject
            assert evaluated[(edge, float(theta1))] == (res.t_n, res.crit)
    assert not np.any(np.isin(cs.points[:, 1], [0.0, 1.0]))
    _assert_matches_unscreened(counts, SRegion.singleton(1.0, 1.0), a, cfg)
