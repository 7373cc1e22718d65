import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from diagbounds import clopper_pearson, exactci
from diagbounds.datasets import list_datasets, load_dataset
from diagbounds.exactci import _beta_quantile, regularized_incomplete_beta

from helpers import oracle_clopper_pearson


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
    with pytest.raises(ValueError, match="10\\*\\*10"):
        clopper_pearson(5, 10**10 + 1)


@pytest.mark.parametrize("k", [1, 4_971_895_478, 10**10 // 3, 10**10 - 1])
def test_largest_samples_stay_within_the_bisection_tolerance(k):
    # At the cap the endpoints keep the 1e-10 the bisection promises.
    n = 10**10
    iv = clopper_pearson(k, n)
    assert iv.lo == pytest.approx(stats.beta.ppf(0.025, k, n - k + 1), abs=1e-10)
    assert iv.hi == pytest.approx(stats.beta.ppf(0.975, k + 1, n - k), abs=1e-10)


@settings(max_examples=300, deadline=None)
# The cap, at the share of successes whose lower endpoint a fixed relative
# margin of 1e-9 on the bracket ends once moved at n = 10**12.
@example(n_and_successes=(10**10, 4_971_895_478), alpha=0.05)
@example(n_and_successes=(1, 0), alpha=0.05)
@example(n_and_successes=(10**10, 1), alpha=0.05)
@example(n_and_successes=(343, 338), alpha=0.05)
@example(n_and_successes=(10, 3), alpha=1e-300)  # the density at the lower root underflows
@example(n_and_successes=(117, 39), alpha=1e-20)  # 1 - alpha / 2 rounds to 1
@given(
    n_and_successes=(st.integers(1, 10**10) | st.integers(1, 2000)).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n) | st.integers(0, min(n, 5)) | st.integers(n - min(n, 5), n))
    ),
    alpha=st.floats(0.001, 0.5, exclude_min=True, exclude_max=True),
)
def test_clopper_pearson_is_the_plain_bisection_bit_for_bit(n_and_successes, alpha):
    # Midpoints outside the bracket are not evaluated; the bisection they skip must decide as they do.
    n, successes = n_and_successes
    assert clopper_pearson(successes, n, alpha) == oracle_clopper_pearson(successes, n, alpha)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("name", list_datasets())
def test_bundled_tables_take_at_most_20_evaluations_per_endpoint(monkeypatch, name, alpha):
    calls = []
    real = exactci.regularized_incomplete_beta

    def counted(a, b, x):
        calls.append(x)
        return real(a, b, x)

    monkeypatch.setattr(exactci, "regularized_incomplete_beta", counted)
    c = load_dataset(name)
    for k, n in ((c.n11, c.n11 + c.n01), (c.n00, c.n00 + c.n10)):
        for q, a, b in ((alpha / 2.0, k, n - k + 1), (1.0 - alpha / 2.0, k + 1, n - k)):
            calls.clear()
            _beta_quantile(q, a, b)
            assert len(calls) <= 20, (name, q, a, b, len(calls))  # the plain bisection takes 34
