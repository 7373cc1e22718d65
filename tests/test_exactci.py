import numpy as np
import pytest
from scipy import stats

from diagbounds import clopper_pearson
from diagbounds.exactci import regularized_incomplete_beta


def test_boundary_conventions():
    assert clopper_pearson(0, 25).lo == 0.0
    assert clopper_pearson(25, 25).hi == 1.0


def test_eua_apparent_sensitivity_interval():
    iv = clopper_pearson(99, 117, 0.05)
    assert iv.lo == pytest.approx(0.768, abs=1e-3)
    assert iv.hi == pytest.approx(0.905, abs=1.5e-3)
    assert iv.lo < 0.846 < iv.hi


def test_against_beta_quantile_oracle():
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(1, 2000))
        x = int(rng.integers(0, n + 1))
        alpha = float(rng.uniform(0.005, 0.2))
        iv = clopper_pearson(x, n, alpha)
        lo = 0.0 if x == 0 else stats.beta.ppf(alpha / 2.0, x, n - x + 1)
        hi = 1.0 if x == n else stats.beta.ppf(1.0 - alpha / 2.0, x + 1, n - x)
        assert iv.lo == pytest.approx(lo, abs=2e-10)
        assert iv.hi == pytest.approx(hi, abs=2e-10)


def test_exact_coverage_inversion_property():
    # The interval endpoints solve the tail-probability equations.
    x, n, alpha = 7, 40, 0.05
    iv = clopper_pearson(x, n, alpha)
    assert stats.binom.sf(x - 1, n, iv.lo) == pytest.approx(alpha / 2, abs=1e-8)
    assert stats.binom.cdf(x, n, iv.hi) == pytest.approx(alpha / 2, abs=1e-8)


def test_regularized_incomplete_beta_matches_scipy():
    from scipy.special import betainc

    rng = np.random.default_rng(15)
    a = rng.uniform(0.1, 300, size=50)
    b = rng.uniform(0.1, 300, size=50)
    x = rng.uniform(0, 1, size=50)
    for ai, bi, xi in zip(a, b, x):
        assert regularized_incomplete_beta(ai, bi, xi) == pytest.approx(
            betainc(ai, bi, xi), abs=1e-12
        )


def test_interval_widens_as_alpha_shrinks():
    wide = clopper_pearson(30, 100, 0.01)
    narrow = clopper_pearson(30, 100, 0.10)
    assert wide.lo < narrow.lo < narrow.hi < wide.hi


def test_invalid_inputs():
    with pytest.raises(ValueError):
        clopper_pearson(5, 0)
    with pytest.raises(ValueError):
        clopper_pearson(-1, 10)
    with pytest.raises(ValueError):
        clopper_pearson(11, 10)
    with pytest.raises(ValueError):
        clopper_pearson(5, 10, alpha=0.0)


def test_large_samples_converge_and_larger_ones_are_refused():
    # (176339, 352671) once ran out of continued-fraction terms.
    for k, n in [(176339, 352671), (10**8 // 3, 10**8)]:
        iv = clopper_pearson(k, n)
        assert iv.lo == pytest.approx(stats.beta.ppf(0.025, k, n - k + 1), abs=1e-9)
        assert iv.hi == pytest.approx(stats.beta.ppf(0.975, k + 1, n - k), abs=1e-9)
    with pytest.raises(ValueError, match="10\\*\\*12"):
        clopper_pearson(5, 10**12 + 1)
