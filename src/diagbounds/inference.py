"""Bootstrap moment-inequality test and confidence sets by grid inversion.

The test statistic at a candidate theta is the largest studentized sample
moment, T_n = max{max_j sqrt(n) mbar_j / S_j, 0}.  Critical values come
from a two-step bootstrap: step one forms joint level-(1 - beta) upper
confidence bounds for the normalized moments; step two takes the
(1 - alpha + beta) bootstrap quantile of the max statistic recentered by
those bounds truncated at zero.  A candidate is retained when T_n does
not exceed the critical value; the confidence set is the collection of
retained grid points.

Two structural facts keep full-grid inversion cheap: every moment
component depends on the data only through the four (t, r) cell
frequencies, so a bootstrap replicate is a single multinomial draw over
cells, and the components are affine in (theta1, theta0), so per-point
statistics are fused multiply-adds over precomputed tables.  The same B
multinomial draws are shared across all grid points, which also makes
confidence sets nested across significance levels for a fixed seed.

A third structural fact lets the inversion skip the bootstrap at almost
every point.  Every step-one and step-two bootstrap term is a studentized
deviation sqrt(n) sum_c (F_bc - f_c) m_c / sd_f(m) plus a recentering that
is zero or negative.  Since the deviations F_b - f sum to zero, the
Cauchy-Schwarz inequality bounds it by sqrt(X2_b), with
X2_b = n sum_c (F_bc - f_c)^2 / f_c the Pearson statistic of draw b,
summed over the occupied cells (a draw leaves an empty cell empty).
Quantiles are monotone in the draws, so at every theta, (s1, s0) and
assumption the critical value is at most c_bar, the same-level quantile
of sqrt(X2_b) floored at zero: one scalar per dataset and seed.  A grid point whose closed-form T_n exceeds c_bar
is rejected without its bootstrap.  The bound holds in exact arithmetic,
so the screen asks T_n to clear c_bar by a small relative and absolute
margin and applies only where every studentizing variance, computed as
E[m^2] - mu^2, is well above rounding error of its second moment; every
other point goes through the full evaluation.

The screen's closed-form T_n and conditioning gate are evaluated over the
whole (u, v) grid block of a reference point at once, in chunks of rows
whose temporaries stay under a fixed element budget.  T_n has one
formula, which broadcasts a column of rows against v as it does
per-point vectors.  The survivors of the whole block are then evaluated
in chunks of ``piece`` consecutive points, as many as a second budget
gives three (point x draw) arrays.  Within a chunk a row is a run of
points sharing the driving coordinate u; a run that spans two chunks is
two rows, one in each.  Each chunk builds its row tables once per row: the bootstrap deviations
of the six inequality components as (rows, 6, B), the equality
component's draws, each component's step-two term recentered by +0.0,
and their maximum, which is step one's.  Per-point arrays gather from
them.  A chunk holds at most 17 piece B floats, three per point and 14
per row with at most one row per point.  A row's tables and terms are
the same elementwise formulas at every point, and the step-two rules
below hold for any run of points of one u, so neither budget changes a
bit.  The "higher" bootstrap
quantile is one order statistic, the element at index ceil((B - 1) q)
of the sorted draws, found by a partial sort.

Step two recenters each moment by min(bound, 0), a shift that is zero or
negative, and two exact rules follow for inequality component j of a row:

- *Zero rule.*  Where the recentering is 0 at every point of the row, it
  is +0.0 there (np.minimum(x, 0.0) never returns -0.0), and every
  point's term is the row's +0.0-recentered vector, bit for bit.
- *Skip rule.*  Every operation of the term is monotone in the
  deviation, so it is at most its value at the row's largest deviation.
  Where that is below zero at every point of the row, the term is below
  zero at every draw and is skipped.  Skipping it lowers only entries of
  the step-two maximum that are already negative (a skipped term is never
  NaN, so every NaN entry stays), so the maximum keeps its entries that are
  zero or more and its number of negative ones.  The critical value is
  an order statistic of the maximum floored at zero: where the order
  statistic is zero or more it is the same element, and where it is
  negative the floor gives +0.0 either way.

The maximum still folds t0..t5, then E_a, then E_b, from -inf.  Signed
zeros: step one's terms differ from the row-by-row form's only in the
sign of a zero.  Its inequality maximum d6max is taken over z6, whose
deviation dev + 0.0 is +0.0 where the row-by-row form's dev is -0.0.  Its
equality term is |d7| / S, which is +0.0 where max(d7 / S, -d7 / S) may
be -0.0 and equal to it everywhere else (at S = 0 both are +inf where d7
is not zero and -inf where it is).  A reduction or a tie may also keep
-0.0 where the row-by-row form kept +0.0 (the order statistic of a
bound).  np.minimum(x, 0.0) and np.maximum(x, 0.0) turn either zero into
+0.0, and every recentering, T_n and every critical value passes through
one of them, so no -0.0 reaches an output.

One kernel per (dataset, reference point) decides every test: a single
point, the candidates of a coverage replicate, the survivors of a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .identification import DependenceAssumption, Interval, sharp_segment
from .moments import ThetaPoint, moment_cell_tables, param_space_box
from .probability import CellCounts, JointTR, RefPerf, SRegion, default_cell_floor

__all__ = [
    "TestConfig",
    "TestResult",
    "ConfidenceSet",
    "CoverageResult",
    "bootstrap_cell_frequencies",
    "rsw2_test",
    "confidence_set",
    "coverage_simulation",
]

_QUANTILE_METHOD = "higher"
BETA_PRESETS = (5, 10, 20)  # first-stage levels beta = alpha / preset
DEFAULT_BETA_PRESET = 10

# The chi-square screen rejects a point only when T_n clears the bound by
# this relative and absolute margin, and only when every studentizing
# variance there exceeds this share of its second moment (below it,
# E[m^2] - mu^2 may have lost the digits the bound relies on).
_SCREEN_RTOL = 1e-9
_SCREEN_ATOL = 1e-12
_SCREEN_VAR_FLOOR = 1e-6

# Element budgets of the kernel's float temporaries.  The screen takes a
# reference point's (u, v) block in chunks of rows of at most
# _SCREEN_BLOCK points.  The survivors are evaluated in chunks of
# piece = max(1, _EVAL_BLOCK // (3 B)) consecutive points, whose three
# (point x draw) arrays (d7, the running maximum, a temporary) then hold
# at most _EVAL_BLOCK elements, or one point's when that alone is more.  A
# chunk's 14 tables per row (dev6 and z6 with six components each, base7,
# d6max) add at most one row per point, so a chunk holds at most
# 3 piece B + 14 rows B <= 17 piece B floats, reached when every point has
# its own u.  Neither budget changes a result, only speed and peak memory.
_SCREEN_BLOCK = 2**13
_EVAL_BLOCK = 2**16

# Substream tags keep bootstrap draws, simulated datasets, and derived
# seeds in disjoint regions of the counter-based key space: substream
# (seed, tag, index) is Philox keyed by [seed, (tag << 48) | index].
# _Substreams re-keys one generator to it in place instead of building a
# generator per substream; the state it sets (that key, counter 0, empty
# output buffer, no spare 32-bit word) is exactly the state a fresh
# Philox(key=...) starts from, so every draw is bit-identical to one from
# a newly built generator.
_TAG_BOOTSTRAP = 1
_TAG_DATASET = 2
_TAG_DERIVED = 3

# Largest run sizes a TestConfig accepts.  With the other sizes at their
# defaults, a call at any one cap runs in under a minute and 400 MB on a
# 2-core VM (README, "Caps").
MAX_BOOTSTRAP = 100_000
MAX_THETA_GRID = 3162
MAX_S_GRID = 20
# Largest grid inversion: theta_grid**2 points at each reference point.  It
# admits every single-size cap call above; the largest call it admits is
# measured in README, "Caps".
MAX_GRID_POINTS = 40_000_000


@dataclass(frozen=True)
class TestConfig:
    """Configuration for the bootstrap test and grid inversion.

    ``beta`` is the first-stage level; ``None`` selects the default
    alpha/10.  ``theta_grid`` is the per-axis resolution of the
    (theta1, theta0) grid (316 x 316 is about 1e5 points) and ``s_grid``
    the default number of points per axis when discretizing a rectangle
    of reference values.
    """

    __test__ = False  # not a pytest collectable

    alpha: float = 0.05
    beta: float | None = None
    bootstrap: int = 500
    seed: int = 0
    theta_grid: int = 316
    s_grid: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        b = self.beta_value
        if not (0.0 < b < self.alpha):
            raise ValueError(f"beta must lie in (0, alpha), got {b}")
        if self.bootstrap < 1:
            raise ValueError(f"need at least one bootstrap draw, got {self.bootstrap}")
        if self.theta_grid < 2 or self.s_grid < 2:
            raise ValueError("grids need at least 2 points per axis")
        for name, cap in (("bootstrap", MAX_BOOTSTRAP), ("theta_grid", MAX_THETA_GRID), ("s_grid", MAX_S_GRID)):
            value = getattr(self, name)
            if value > cap:
                raise ValueError(f"{name} must be at most {cap}, got {value}")
        if not 0 <= self.seed < 2**64:  # one 64-bit word of the Philox key
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    @property
    def beta_value(self) -> float:
        return self.alpha / DEFAULT_BETA_PRESET if self.beta is None else self.beta

    @classmethod
    def with_beta_preset(
        cls, alpha: float = 0.05, divisor: int = DEFAULT_BETA_PRESET, **kwargs
    ) -> "TestConfig":
        """Presets for the first-stage level: alpha/10, alpha/5, alpha/20."""
        if divisor not in BETA_PRESETS:
            raise ValueError(f"beta preset divisor must be one of {BETA_PRESETS}, got {divisor}")
        return cls(alpha=alpha, beta=alpha / divisor, **kwargs)


def check_grid_size(cfg: TestConfig, n_reference: int) -> None:
    """Refuse a grid inversion over more than ``MAX_GRID_POINTS`` points, before any of its work."""
    n = cfg.theta_grid**2 * n_reference
    if n > MAX_GRID_POINTS:
        raise ValueError(
            f"theta_grid**2 x reference points must be at most {MAX_GRID_POINTS}, "
            f"got {cfg.theta_grid}**2 x {n_reference} = {n}"
        )


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest collectable

    reject: bool
    t_n: float
    crit: float


class _Substreams:
    """Counter-based substreams of one seed, served by one re-keyed generator.

    ``at(tag, index)`` returns the object's single generator, re-keyed to
    substream (seed, tag, index); it is valid until the next ``at`` call.
    Mutable state: create one per call, never share one across threads.
    """

    def __init__(self, seed: int) -> None:
        self._bitgen = np.random.Philox(0)  # any seed: ``at`` sets the whole state
        self._gen = np.random.Generator(self._bitgen)
        # Plain ints: the state setter reads lists faster than arrays.
        self._key = [seed, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, tag: int, index: int) -> np.random.Generator:
        self._key[1] = (tag << 48) | index
        self._bitgen.state = self._state
        return self._gen

    def derive_seed(self, index: int) -> int:
        """Stable 63-bit child seed for nested simulations."""
        return int(self.at(_TAG_DERIVED, index).integers(0, 2**63))


def bootstrap_cell_frequencies(counts: CellCounts, bootstrap: int, seed: int) -> np.ndarray:
    """``bootstrap`` multinomial resamples of the four cells, as frequencies.

    Resampling n observations with replacement and tabulating is exactly a
    multinomial draw over the cells, so one vector per replicate carries
    all the information the moment machinery needs.  Each replicate has
    its own counter-based substream keyed by (``seed``, replicate), so draws
    do not depend on call order.  One generator is re-keyed per replicate
    (see ``_TAG_BOOTSTRAP``); its draws are bit-identical to those of a
    generator built per replicate.
    """
    n = counts.n
    pvals = np.asarray(counts.cells, dtype=float) / n
    streams = _Substreams(seed)
    out = np.empty((bootstrap, 4))
    for b in range(bootstrap):
        out[b] = streams.at(_TAG_BOOTSTRAP, b).multinomial(n, pvals)
    out /= n
    out.setflags(write=False)
    return out


def _chi_square_bound(counts: CellCounts, boot_freqs: np.ndarray, level: float) -> float:
    """c_bar: the ``level`` quantile of sqrt(X2_b) over the draws, floored at 0.

    An upper bound on the critical value at every grid point (see the
    module docstring) when ``level`` is the step-two level 1 - alpha + beta.
    """
    f = np.asarray(counts.cells, dtype=float) / counts.n
    occupied = f > 0.0  # draws leave an empty cell empty: no deviation there
    dev = boot_freqs[:, occupied] - f[occupied]
    x2 = counts.n * np.sum(dev**2 / f[occupied], axis=1)
    return max(float(_quantile(np.sqrt(x2), level)), 0.0)


def _quantile(x: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(x, q, axis=-1, method=_QUANTILE_METHOD)`` as one order statistic.

    The "higher" quantile of m values is the element at index
    ceil((m - 1) q) of the sorted values.  Partitioning at that index and
    at the last one, the kth list np.quantile passes, puts the same
    element there (of equal values such as 0.0 and -0.0, the same one) and
    any NaN last, from where it is propagated as np.quantile does.  ``x``
    is partitioned in place, as np.partition partitions its copy.
    """
    k = math.ceil((x.shape[-1] - 1) * q)
    x.partition((k, -1), axis=-1)
    last = x[..., -1]
    return np.where(np.isnan(last), last, x[..., k])


def _stud(num: np.ndarray, den: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """num / den with the zero-denominator convention, into ``out`` if given.

    A degenerate (constant) component rejects only if its mean violates
    the inequality: positive numerator maps to +inf, non-positive to
    -inf (the component drops out of a maximum).
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if (den > 0.0).all():
        return np.divide(num, den, out=out)  # what the masked form below gives, without the masks
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, -np.inf))
    if out is None:
        return q
    out[...] = q
    return out


def _rejects(tn: np.ndarray, crit: np.ndarray) -> np.ndarray:
    """The reject rule: T_n above its critical value, or T_n not finite."""
    return (tn > crit) | ~np.isfinite(tn)


class _SPointKernel:
    """Vectorized test evaluation for one (s1, s0) and one dataset.

    Precomputes, from the affine cell tables m = A + theta1 B + theta0 C,
    every data-side and bootstrap-side projection needed to evaluate the
    statistic and its critical value at arbitrary theta grids.  The six
    inequality components load on a single theta coordinate (the driving
    coordinate ``u``); the equality pair loads on both.
    """

    def __init__(
        self,
        counts: CellCounts,
        a: DependenceAssumption,
        s: RefPerf,
        boot_freqs: np.ndarray,
    ) -> None:
        n = counts.n
        self.check(n)
        A, B, C = moment_cell_tables(a, s)
        self.n = n
        self.sqrt_n = math.sqrt(n)
        # Driving coordinate: theta0 for the wrongly-agree-y0 system.
        self.u_is_theta1 = a is not DependenceAssumption.WRONGLY_AGREE_Y0
        U, V = self.orient(B, C)

        f = np.asarray(counts.cells, dtype=float) / n
        F = boot_freqs

        def proj(w: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
            return w @ (t1 * t2)

        # Data-side affine/quadratic coefficients, shape (8,).
        self.fA, self.fU, self.fV = f @ A, f @ U, f @ V
        self.fAA = proj(f, A, A)
        self.fAU = proj(f, A, U)
        self.fAV = proj(f, A, V)
        self.fUU = proj(f, U, U)
        self.fUV = proj(f, U, V)
        self.fVV = proj(f, V, V)
        # Bootstrap-side means.  Bootstrap deviations are studentized by the
        # data-side standard deviations; re-estimating the scale inside each
        # draw makes the max statistic explode in resamples that nearly
        # empty a thin cell and loses the published rejections.  The six
        # inequality components are kept as (6, B) rows, the layout of the
        # (rows, 6, B) row tables; the equality component as (B,) vectors.
        PA, PU, PV = F @ A, F @ U, F @ V
        self.draws = F.shape[0]
        self.PA6, self.PU6 = PA[:, :6].T.copy(), PU[:, :6].T.copy()
        self.PA7, self.PU7, self.PV7 = PA[:, 6].copy(), PU[:, 6].copy(), PV[:, 6].copy()

    @staticmethod
    def check(n: int) -> None:
        """The test's one precondition on the data: n >= 2 observations.

        Empty cells are allowed.  A component constant over the occupied
        cells has zero variance and ``_stud``'s convention decides it;
        bootstrap draws never occupy an empty cell.
        """
        if n < 2:
            raise ValueError(f"the test requires n >= 2 observations, got {n}")

    def orient(self, x1, x0):
        """A (theta1, theta0) pair as (u, v); the swap also maps (u, v) back."""
        return (x1, x0) if self.u_is_theta1 else (x0, x1)

    # -- data-side statistics ------------------------------------------
    # In ``_ineq_stats`` ``u`` is a scalar or has a trailing axis of length
    # one, which broadcasts against the six components.

    def _ineq_stats(self, u) -> tuple[np.ndarray, np.ndarray]:
        mu = self.fA[:6] + self.fU[:6] * u
        var = self.fAA[:6] + 2.0 * u * self.fAU[:6] + u * u * self.fUU[:6] - mu * mu
        return mu, np.sqrt(np.maximum(var, 0.0))

    def _eq_stats(self, u, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        j = 6
        mu = self.fA[j] + self.fU[j] * u + self.fV[j] * v
        var = (
            self.fAA[j]
            + 2.0 * u * self.fAU[j]
            + u * u * self.fUU[j]
            + 2.0 * v * (self.fAV[j] + u * self.fUV[j])
            + v * v * self.fVV[j]
            - mu * mu
        )
        return mu, np.sqrt(np.maximum(var, 0.0))

    def _statistic(self, u, v) -> tuple[np.ndarray, ...]:
        """Data-side means, SDs and T_n at the points (u, v), broadcast together.

        ``u`` and ``v`` may be per-point vectors, or a column of rows against
        ``v``; the inequality statistics carry a trailing axis of six.
        """
        rn = self.sqrt_n
        mu6, s6 = self._ineq_stats(np.expand_dims(u, -1))
        mu7, s7 = self._eq_stats(u, v)
        t6 = np.max(_stud(rn * mu6, s6), axis=-1)
        t7 = _stud(rn * np.abs(mu7), s7)
        return mu6, s6, mu7, s7, np.maximum(np.maximum(t6, t7), 0.0)

    def screen(self, u: np.ndarray, v: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
        """The points of the (u, v) block the chi-square screen cannot reject.

        Returns their (index into ``u``, index into ``v``) arrays in
        row-major order.  A point is rejected outright when its T_n exceeds
        ``cutoff`` (the chi-square bound with its margin) and every
        studentizing variance there is well conditioned.  Rows are taken
        in chunks of at most ``_SCREEN_BLOCK`` points, and each chunk's
        survivors are gathered as it is done, so no mask of the whole block
        is ever built.  ``u`` is not empty: every parameter box holds 0.
        """
        floor = _SCREEN_VAR_FLOOR
        step = max(1, _SCREEN_BLOCK // max(v.size, 1))
        found = []
        for lo in range(0, u.size, step):
            mu6, s6, mu7, s7, tn = self._statistic(u[lo : lo + step, None], v)
            exact6 = np.all(s6 * s6 > floor * (s6 * s6 + mu6 * mu6), axis=-1)
            exact7 = s7 * s7 > floor * (s7 * s7 + mu7 * mu7)
            r, c = np.nonzero(~((tn > cutoff) & exact6 & exact7))
            found.append((r + lo, c))
        rows, cols = zip(*found)
        return np.concatenate(rows), np.concatenate(cols)

    # -- full evaluation ------------------------------------------------

    def evaluate(
        self, u: np.ndarray, v: np.ndarray, alpha: float, beta: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """T_n and critical value at the points (u[k], v[k]).

        The critical values are computed in chunks of ``piece``
        consecutive points, as many as fit three (point x draw) arrays in
        ``_EVAL_BLOCK`` elements, or one point when that alone is more.
        """
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        mu6, s6, mu7, s7, tn = self._statistic(u, v)
        piece = max(1, _EVAL_BLOCK // (3 * self.draws))
        crit = np.empty(v.size)
        for lo in range(0, v.size, piece):
            part = slice(lo, lo + piece)
            crit[part] = self._critical_values(
                u[part], v[part], mu6[part], s6[part], mu7[part], s7[part], alpha, beta
            )
        return tn, crit

    def _critical_values(self, u, v, mu6, s6, mu7, s7, alpha, beta) -> np.ndarray:
        """Critical values of consecutive points, from their statistics.

        A row is a run of points with equal ``u``.  The row tables hold
        what depends on u alone, built once per row; the (point x draw)
        arrays gather from them.
        """
        rn, n, nb = self.sqrt_n, v.size, self.draws
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(first)
        row = np.cumsum(first) - 1  # each point's row
        d7, g, w = np.empty((3, n, nb))
        dev6, z6 = np.empty((2, starts.size, 6, nb))
        base7, d6max = np.empty((2, starts.size, nb))

        # Row tables.  z6 holds the step-two terms recentered by +0.0; d6max, their maximum, is step one's.
        ur, s6c = u[first], s6[first][:, :, None]
        np.add(self.PA6, np.multiply(self.PU6, ur[:, None, None], out=dev6), out=dev6)
        np.subtract(dev6, mu6[first][:, :, None], out=dev6)
        _stud(np.multiply(rn, np.add(dev6, 0.0, out=z6), out=z6), s6c, out=z6)
        np.max(z6, axis=1, out=d6max)
        top6 = np.max(dev6, axis=2)
        np.add(self.PA7, np.multiply(self.PU7, ur[:, None], out=base7), out=base7)
        s7c = s7[:, None]

        # Step 1: joint upper confidence bounds for the moments.  Every
        # row index is in range; mode="clip" spares the copy "raise" makes.
        np.take(base7, row, axis=0, out=d7, mode="clip")
        np.add(d7, np.multiply(v[:, None], self.PV7, out=w), out=d7)
        np.multiply(rn, np.subtract(d7, mu7[:, None], out=d7), out=d7)
        _stud(np.abs(d7, out=g), s7c, out=g)
        np.maximum(np.take(d6max, row, axis=0, out=w, mode="clip"), g, out=g)
        bhat = _quantile(g, 1.0 - beta)

        # Step 2: recenter by the bounds truncated at zero.  An infinite
        # bound on a zero-scale component gives inf * 0 = NaN, and the
        # component drops out of the maximum (``_stud`` maps it to -inf).
        scale, scale7 = s6 / rn, s7 / rn
        with np.errstate(invalid="ignore"):
            lam6 = np.minimum(mu6 + bhat[:, None] * scale, 0.0)
            lam7a = np.minimum(mu7 + bhat * scale7, 0.0)
            lam7b = np.minimum(-mu7 + bhat * scale7, 0.0)

        # A row's term j is skipped where it is below zero at every draw
        # (``top`` bounds it); where every lam6 of the row is 0 it is one
        # shared vector.
        top = _stud(rn * (top6[row] + lam6), s6)
        skip = np.logical_and.reduceat(top < 0.0, starts, axis=0).tolist()
        zero = np.logical_and.reduceat(lam6 == 0.0, starts, axis=0).tolist()

        # The fold t0..t5, E_a, E_b of every point, from -inf: max(-inf, x) is x.
        g.fill(-np.inf)
        bounds = starts.tolist() + [n]
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            gr, wr = g[lo:hi], w[lo:hi]
            for j in range(6):
                if skip[r][j]:
                    continue
                if zero[r][j]:
                    np.maximum(gr, z6[r, j], out=gr)
                    continue
                np.multiply(rn, np.add(dev6[r, j], lam6[lo:hi, j, None], out=wr), out=wr)
                np.maximum(gr, _stud(wr, s6[lo, j], out=wr), out=gr)
        np.add(d7, rn * lam7a[:, None], out=w)
        np.maximum(g, _stud(w, s7c, out=w), out=g)
        np.add(np.negative(d7, out=w), rn * lam7b[:, None], out=w)
        np.maximum(g, _stud(w, s7c, out=w), out=g)
        return np.maximum(_quantile(g, 1.0 - alpha + beta), 0.0)


def rsw2_test(
    counts: CellCounts,
    theta: ThetaPoint,
    a: DependenceAssumption,
    cfg: TestConfig,
) -> TestResult:
    """Two-step bootstrap max test of H0: theta lies in the identified set.

    Deterministic given the seed.  Requires n >= 2 observations
    (``_SPointKernel.check``).
    """
    _SPointKernel.check(counts.n)
    _check_in_box(theta, a)
    boot_freqs = bootstrap_cell_frequencies(counts, cfg.bootstrap, cfg.seed)
    kernel = _SPointKernel(counts, a, theta.s, boot_freqs)
    u, v = kernel.orient(np.array([theta.theta1]), np.array([theta.theta0]))
    tn, crit = kernel.evaluate(u, v, cfg.alpha, cfg.beta_value)
    return TestResult(reject=bool(_rejects(tn, crit)[0]), t_n=float(tn[0]), crit=float(crit[0]))


def _check_in_box(theta: ThetaPoint, a: DependenceAssumption) -> None:
    (lo1, hi1), (lo0, hi0) = param_space_box(a, theta.s)
    if not (lo1 <= theta.theta1 <= hi1 and lo0 <= theta.theta0 <= hi0):
        raise ValueError(
            f"theta ({theta.theta1}, {theta.theta0}) lies outside the "
            f"parameter space [{lo1}, {hi1}] x [{lo0}, {hi0}] implied by "
            f"{a.value!r}"
        )


@dataclass(frozen=True)
class ConfidenceSet:
    """Retained grid points of the inverted test, with per-point statistics.

    ``points`` has one row (theta1, theta0, s1, s0) per retained point, in
    row-major order over the theta1 index, then theta0, then the s-grid
    index; ``t_n`` and ``crit`` align with it.  ``projections`` are the
    retained ranges of theta1 and theta0 (None when nothing is retained).
    ``theta_axis`` is the grid of each of theta1 and theta0.
    """

    config: TestConfig
    assumption: DependenceAssumption
    theta_axis: np.ndarray
    s_points: tuple[RefPerf, ...]
    points: np.ndarray
    t_n: np.ndarray
    crit: np.ndarray
    n_tested: int

    def __post_init__(self) -> None:
        for arr in (self.theta_axis, self.points, self.t_n, self.crit):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def projections(self) -> tuple[Interval, Interval] | None:
        if len(self) == 0:
            return None
        return (
            Interval(float(self.points[:, 0].min()), float(self.points[:, 0].max())),
            Interval(float(self.points[:, 1].min()), float(self.points[:, 1].max())),
        )

    def to_dict(self) -> dict:
        proj = self.projections
        return {
            "alpha": self.config.alpha,
            "beta": self.config.beta_value,
            "bootstrap": self.config.bootstrap,
            "seed": self.config.seed,
            "quantile_method": _QUANTILE_METHOD,
            "assumption": self.assumption.value,
            "s_points": [[s.s1, s.s0] for s in self.s_points],
            "theta1_axis": self.theta_axis.tolist(),
            "theta0_axis": self.theta_axis.tolist(),
            "n_tested": self.n_tested,
            "n_retained": len(self),
            "theta1_projection": None if proj is None else [proj[0].lo, proj[0].hi],
            "theta0_projection": None if proj is None else [proj[1].lo, proj[1].hi],
            "points": self.points.tolist(),
            "t_n": self.t_n.tolist(),
            "crit": self.crit.tolist(),
        }

    def to_csv_rows(self) -> list[str]:
        table = np.column_stack([self.points, self.t_n, self.crit]).tolist()
        row = "%.12g,%.12g,%.10g,%.10g,%.12g,%.12g,1"
        return ["theta1,theta0,s1,s0,Tn,crit,accepted", *(row % tuple(r) for r in table)]


def confidence_set(
    counts: CellCounts,
    S: SRegion,
    a: DependenceAssumption,
    cfg: TestConfig,
) -> ConfidenceSet:
    """Invert the test over a theta grid crossed with the reference grid.

    The (theta1, theta0) grid spans [0, 1]^2 at the configured resolution;
    points outside the parameter-space box of ``a`` at a given (s1, s0)
    are excluded a priori.  Bootstrap draws are generated once and shared
    by every grid point.  Points the chi-square screen rejects skip the
    bootstrap; a reference point's survivors go through one kernel call.
    """
    check_grid_size(cfg, len(S))
    _SPointKernel.check(counts.n)
    boot_freqs = bootstrap_cell_frequencies(counts, cfg.bootstrap, cfg.seed)
    axis = np.linspace(0.0, 1.0, cfg.theta_grid)
    s_points = tuple(sorted(S.points))
    alpha, beta = cfg.alpha, cfg.beta_value
    cbar = _chi_square_bound(counts, boot_freqs, 1.0 - alpha + beta)
    cutoff = cbar * (1.0 + _SCREEN_RTOL) + _SCREEN_ATOL

    # Retained points as blocks of (theta1 index, theta0 index, s index, T_n, crit).
    blocks: list[tuple[np.ndarray, ...]] = []
    n_tested = 0
    for s_idx, s in enumerate(s_points):
        kernel = _SPointKernel(counts, a, s, boot_freqs)
        (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
        idx1 = np.flatnonzero((axis >= lo1) & (axis <= hi1))
        idx0 = np.flatnonzero((axis >= lo0) & (axis <= hi0))
        n_tested += idx1.size * idx0.size
        iu, iv = kernel.orient(idx1, idx0)
        r, c = kernel.screen(axis[iu], axis[iv], cutoff)
        i, j = iu[r], iv[c]
        tn, crit = kernel.evaluate(axis[i], axis[j], alpha, beta)
        keep = ~_rejects(tn, crit)
        i1, i0 = kernel.orient(i[keep], j[keep])
        blocks.append((i1, i0, np.full(i1.size, s_idx), tn[keep], crit[keep]))

    i1, i0, si, tns, crs = (np.concatenate(col) for col in zip(*blocks))
    order = np.lexsort((si, i0, i1))
    s_arr = np.array([[s.s1, s.s0] for s in s_points])
    pts = np.column_stack([axis[i1[order]], axis[i0[order]], s_arr[si[order]]])

    return ConfidenceSet(
        config=cfg,
        assumption=a,
        theta_axis=axis,
        s_points=s_points,
        points=pts,
        t_n=tns[order],
        crit=crs[order],
        n_tested=n_tested,
    )


# Largest number of replications coverage_simulation accepts (README, "Caps").
MAX_REPS = 10_000


@dataclass(frozen=True)
class CoverageResult:
    """Empirical acceptance rates of identified-set points across replications."""

    theta_points: tuple[ThetaPoint, ...]
    coverage: np.ndarray
    reps: int
    n: int

    def __post_init__(self) -> None:
        self.coverage.setflags(write=False)


def coverage_simulation(
    true_p: JointTR,
    s_true: RefPerf,
    a: DependenceAssumption,
    n: int,
    reps: int,
    cfg: TestConfig,
    theta_points: "tuple[ThetaPoint, ...] | None" = None,
    eps: float | None = None,
) -> CoverageResult:
    """Monte-Carlo acceptance rates of the test at identified-set points.

    Draws ``reps`` datasets of size ``n`` from ``true_p`` and records, for
    each candidate theta (by default three interior points of the true
    segment), the fraction of replications in which the test accepts.
    Replicate r uses its own dataset substream and a derived bootstrap
    seed, so results do not depend on evaluation order; its draws are
    shared by one kernel per distinct reference point of the candidates,
    which tests all of that point's candidates in one call.
    """
    if reps < 1:
        raise ValueError(f"need at least one replication, got {reps}")
    if reps > MAX_REPS:
        raise ValueError(f"reps must be at most {MAX_REPS}, got {reps}")
    _SPointKernel.check(n)
    floor = eps if eps is not None else default_cell_floor(n)
    if not true_p.satisfies_cell_floor(floor):
        raise ValueError(
            f"true distribution violates the cell floor {floor}: cells {true_p.cells}"
        )
    if theta_points is None:
        seg = sharp_segment(true_p, s_true, a)
        theta_points = tuple(
            ThetaPoint(t1, t0, s_true)
            for t1, t0 in dict.fromkeys(seg.point_at(f) for f in (0.25, 0.5, 0.75))
        )
    for tp in theta_points:
        _check_in_box(tp, a)
    groups: dict[RefPerf, list[int]] = {}  # candidates by reference point
    for k, tp in enumerate(theta_points):
        groups.setdefault(tp.s, []).append(k)
    t1 = np.array([tp.theta1 for tp in theta_points])
    t0 = np.array([tp.theta0 for tp in theta_points])

    pvals = np.asarray(true_p.cells, dtype=float)
    streams = _Substreams(cfg.seed)
    accept = np.zeros((reps, len(theta_points)), dtype=int)
    for r in range(reps):
        draw = streams.at(_TAG_DATASET, r).multinomial(n, pvals)
        counts = CellCounts(*(int(c) for c in draw))
        boot = bootstrap_cell_frequencies(counts, cfg.bootstrap, streams.derive_seed(r))
        for s, k in groups.items():
            kernel = _SPointKernel(counts, a, s, boot)
            tn, crit = kernel.evaluate(*kernel.orient(t1[k], t0[k]), cfg.alpha, cfg.beta_value)
            accept[r, k] = ~_rejects(tn, crit)
    coverage = accept.mean(axis=0)
    return CoverageResult(
        theta_points=tuple(theta_points), coverage=coverage, reps=reps, n=n
    )
