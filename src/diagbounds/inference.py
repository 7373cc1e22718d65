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
of sqrt(X2_b) floored at zero: one scalar per dataset and seed.  A grid
point whose T_n exceeds c_bar inflated by a certified rounding allowance
is rejected without its bootstrap.

*The certified cutoff.*  Take the kernel's float inputs as exact, with
eps = 2^-53.  The kernel centres each component's cell tables once by their
means under f, A - fA and so on, every sum over the four cells taken in one
fixed order (``moments._cell_sum``), so an SD is the L2(f) norm of the
centred cell values at the point and nothing cancels against a squared
mean.  A draw's deviation is read from the centred projections, PA - fA +
u (PU - fU) (+ v (PV - fV)), with PA the draw's frequencies times A.  As
dmag = max|A| + |u| max|U| + |v| max|V| over the cells bounds every |m_c|,
each centred value and each deviation is within about 30 eps dmag of its
exact value, and by the triangle inequality in L2(f) so is the SD, up to a
few eps relative.  So one allowance, r = rho dmag / s with rho = ``_RTOL``
= 1e-12 (about 9,000 eps), covers both: sigma <= s (1 + r), and a computed
term, at most the rounded sqrt(n) |dev| / s as the recentering is never
positive, is at most (1 + 4 eps) (sqrt(X2_b) (1 + r) + sqrt(n) r), r the
largest over the seven components.  That grows with X2_b, whose computed
roots are within 5 eps, so crit is at most (1 + 11 eps) ((1 + r) c_bar +
sqrt(n) r), and the cutoff (``_cutoff``) is (1 + rho) ((1 + r) c_bar +
sqrt(n) r): each allowance exceeds what it covers at least 90 times.

An SD within its allowance of 0, s <= rho dmag (r at least 1), is rounding
noise, as the computed deviations are then: the component is taken as
constant on the occupied cells (``_SPointKernel._flat``).  Its SD becomes
0, and so does its mean where that too is within rho dmag of 0.  A
constant component's deviation is 0 at every draw, as a draw occupies
only occupied cells, so each of its bootstrap terms is -inf
(``_divider``), whatever the rounding of the computed deviation, and its
part of T_n is +inf where its mean is positive and -inf elsewhere
(``_stud``).  Where an SD is 0 the cutoff is +inf (r is +inf, or NaN at
dmag = 0), and the point is bootstrapped.

The screen takes the (u, v) block of a reference point row by row first.
A row is a run of points sharing the driving coordinate u, and the six
inequality statistics depend on u alone: their part of T_n,
t6 = max_j sqrt(n) mu_j / s_j, and their allowances are computed once per
row, the same elementwise values the per-point formula broadcasts.  The
row's equality allowance takes dmag at w = max(|lo|, |hi|), at least each
point's, over a lower bound on the equality SD at every v of the row in
[lo, hi]: that SD is the L2(f) norm of a + v Vc, affine in v, so it is at
least sd(mid) - half ||Vc|| (mid and half the midpoint and half-width),
and the computed values of the three are within about 100 eps dmag of
theirs, so the kernel's SD is at least that less rho dmag
(``_equality_sd_min``), which is taken as 0 where it is within rho dmag of
0, as a point's SD is.  Every rounded operation of the allowances and of
``_cutoff`` is monotone, so the row's cutoff is at least each of its
points', and T_n >= t6: a row whose t6 exceeds its cutoff is rejected
whole.  The other rows go through the per-point T_n in chunks of rows under
a fixed element budget, and only a T_n between (1 + rho) c_bar, below every
cutoff, and its row's cutoff needs its point's own.  So the survivors are
exactly those of the per-point screen.

The survivors of the whole block are then evaluated in batches of whole
runs, a run being at most ``_ENVELOPE_RUN`` consecutive points of a row
counted from its first point; a row that spans two batches is a row in
each.  A batch goes through two phases.

- *Phase A, once per row.*  The row tables keep only what must span all
  B draws of a row: d6max, the studentized maximum of the six inequality
  components' bootstrap deviations dev6 (step one's inequality term),
  and top6, each component's largest deviation (for rule S).  The
  components are streamed through the scratch, as many at a time as it
  holds, so dev6 is never kept.  Then, for each run, an envelope U(b),
  described below, that is at least every step-one maximum
  max(d6max(b), |d7_p(b)| / s7_p) of the run's points at every draw b.
  The m draws of largest U are the run's candidates, with
  m = max(4 top, 64) where the order statistics read are the top-th
  largest (92 at B = 500 and the default levels).  The (m + 1)-th
  largest U is the run's cut c.
- *Phase B, per point.*  The same elementwise step-one and step-two
  formulas as on all B draws, at the run's m candidates only, in chunks
  of points that take step two by the exact rules below.  Step one's
  bound bhat and the raw critical value are read as the same order
  statistics counted from the top, each with one single-kth partial sort.

dev6 and base7, the part of the equality component's draws that depends
on u alone, are formed only at the draws phase B reads: at a run's m
candidates, gathered from the (6, B) and (B,) bootstrap tables, for the
run's candidate tables; on all B draws, per chunk at its points; and for
the envelope, base7 per run on all B draws.  Wherever it is formed, each
takes the same IEEE operations in the same order on the centred
projections, PA + PU u and PA7 + PU7 u, so a value has the same bits on
every path.

The envelope is the larger of d6max(b) and the equality term's bound.
d7_p(b) / sqrt(n) = a_b + v_p g_b is affine in v, with a_b = base7_b and
g_b = PV7_b, both centred projections, so over the run's v in [lo, hi] its
absolute value is at most |a_b + mid g_b| + half |g_b|, with mid and half
the midpoint and half-width.  This is scaled by
sqrt(n) (1 + rho) / min s7 over the run's points, after adding the
allowance rho mag, with mag = 2 dmag at |v| the larger of |lo| and |hi|:
every summand of d7 / sqrt(n), a centred projection times 1, u or v, is
the difference of two sums over the cells of frequencies (each summing to
within 2 eps of 1) times cell values, so it is at most mag (1 + 2 eps).
Where a run has a point with s7 = 0, U is +inf.

*Rounding allowance.*  d7 / sqrt(n) is computed from the centred
projections by four roundings, each an error of at most eps of a partial
sum bounded by mag (1 + eps)^3, so it differs from the exact affine value
by at most about 4 eps mag.  The envelope's own arithmetic adds as much at
the midpoint, and the rounding of mid and half adds at most 3 eps mag.
The multiplication by sqrt(n), the division by s7 and the envelope's last
scaling add at most 9 eps relative.  So the allowance rho mag exceeds the
11 eps mag of absolute error, and the factor 1 + rho exceeds the relative
error, both by more than 600 times.  Hence U is at least every computed
step-one maximum of the run.

*Why the result is exact.*  Every step-two term is at most the step-one
term of its component and draw.  Step two adds a recentering that is
zero, negative, -inf, or NaN where the scale is zero, and every later
operation is monotone in the sum; a term over a zero scale is -inf.  So at
every draw outside the candidates, both
steps' maxima are at most c.  When the top-th largest candidate value
exceeds c, every draw holding one of the top values of all B draws is a
candidate, and the order statistic is the same value.  A point is exact
when c < bhat, since its recenterings, and so its step-two terms at the
candidates, are then those of all B draws, and when c < raw crit.  The
cut is never negative, since U is an absolute value times a positive
scale, or +inf.  Every other point is evaluated again by the same code
on all B draws, with its row's d6max and top6.  So is every point when m
is not below B, and every point of a call with fewer than
``_ENVELOPE_MIN_POINTS`` points (``rsw2_test``'s one point, a coverage
replicate's few).  The order statistics need no NaN handling,
since no term is NaN.  Step one's terms are quotients of finite numbers,
or -inf over a zero scale, and a step-two term is NaN nowhere, as above.

Signed zeros: step one's terms differ from the row-by-row form's only in
the sign of a zero.  Its equality term is |d7| / S, which is +0.0 where
max(d7 / S, -d7 / S) may be -0.0, and is equal to it everywhere else.  At
S = 0 both are -inf.  A
reduction or a tie may also keep -0.0 where the row-by-row form kept +0.0
(the order statistic of a bound).  np.minimum(x, 0.0) and
np.maximum(x, 0.0) turn either zero into +0.0.  Every recentering, T_n
and critical value passes through one of them, so no -0.0 reaches an
output.  A row's tables and terms are the same elementwise formulas at
every point, and a point's candidates only decide whether it is
evaluated again, so no batch or chunk size changes a bit.

*Step two's exact rules.*  Most of step two is the same at every point of
a chunk, or cannot matter.  Step one keeps its equality term
e = |d7| / s7 in an array of its own.  Rule E applies per chunk, and
under it rule S per chunk and inequality component; its s7 condition is
decided once for all the points of a phase-B call.  Every term they keep
is the per-point formula's, so bhat and the raw critical value keep their
bits, on candidate draws and on all B draws alike.

- *Rule E, equality reuse.*  Where every s7 of the call is positive and
  both equality recenterings are +0.0 at every point, the step-two
  equality terms are (d7 + 0.0) / s7 and (-d7 + 0.0) / s7, since sqrt(n)
  times +0.0 is +0.0.  Where d7 is not zero, one of d7 and -d7 is |d7|
  and the other is negative, so the larger term is |d7| divided by the
  same s7 with the same rounding: e.  Where d7 is either zero, x + 0.0
  is +0.0, and both terms and e are +0.0.  So step two's maximum starts
  from e.  In exact arithmetic the condition holds at every retained
  point, since t7 <= T_n <= crit <= bhat puts |mu7| <= bhat s7 / sqrt(n);
  the kernel checks it rather than assuming it.
- *Rule S, skip.*  Only under rule E's condition: the maximum then holds
  e >= +0.0 at every draw, so a term below zero at every draw never wins
  it.  A term is monotone in its deviation under rounding: adding the
  recentering, multiplying by sqrt(n) and dividing by a positive s6 each
  are, and at s6 = 0 every term is -inf.  So
  the term at the row's largest deviation bounds the row's terms, and a
  component is skipped where that bound is below zero at every point of
  the chunk.  Without rule E's condition the equality terms may all be
  negative at a draw (an s7 = 0 point, a negative recentering), and a
  skipped term could have set the raw critical value.

Zero signs cannot move.  No recentering is -0.0, so no step-two
numerator is (x + y is -0.0 only where both are), and neither is e.  A
quotient of a numerator by a positive scale keeps its sign unless it
underflows, far below any deviation of these moments.  So the order in
which the terms enter the maximum, and the rules a chunk takes, change
no bit of it.

One kernel per (dataset, reference point) decides every test: a single
point, the candidates of a coverage replicate, the survivors of a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .identification import DependenceAssumption, Interval, sharp_segment
from .moments import ThetaPoint, _cell_sum, moment_cell_tables, param_space_box
from .probability import CellCounts, JointTR, RefPerf, SRegion, _distinct_texts, default_cell_floor

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

# The one rounding allowance of the screen, the row bound and the envelope:
# _RTOL times dmag, a bound on every absolute cell value (module docstring).
_RTOL = 1e-12

# Element budgets of the kernel's float temporaries.  The screen takes a
# reference point's (u, v) block in chunks of rows of at most
# _SCREEN_BLOCK points.  The survivors are evaluated in batches of at most
# R = max(1, _EVAL_BLOCK // (2 B + 9 m)) runs (``_batch_rows``; 35 at
# B = 500 and m = 92), m being the candidate count, so of at most R rows,
# each run lying in one row.  Every float
# array of a batch with a draw axis is a view of one scratch that
# ``evaluate`` allocates per call (``_scratch_words``).  It starts with the
# R B floats of the batch's d6max, and the words after them serve one
# phase at a time: phase A's (q, R, B) temporary, streaming q components
# at a time, q as many of the six as half of _EVAL_BLOCK holds, at least
# one; the envelope's two (runs, B) arrays; the candidates' 9 runs m floats
# of tables and phase B's three (point x m) arrays for a chunk of at most
# c = max(1, _EVAL_BLOCK // (9 m)) points; or the three (point x B) arrays
# of a chunk evaluated on all draws.  So the scratch holds R B + max(q R B,
# 2 R B, 9 R m + 3 c m, 3 c B) words: at most 1.5 _EVAL_BLOCK while
# 2 B + 9 m <= _EVAL_BLOCK, and 68,284 words (1.04 _EVAL_BLOCK) at B = 500
# and m = 92.  The argpartition's (runs, B) indices, as many as the
# envelope's floats, and the candidates' (runs, m) indices are allocated per
# batch; the former are freed before phase B.
# Neither budget changes a result, only speed and peak memory.
_SCREEN_BLOCK = 2**13
_EVAL_BLOCK = 2**16

# Phase A's envelope: the fewest points a call needs for the envelope to
# pay, and the most points of a row that one envelope covers (a longer run
# of v loosens it).  At B = 500, on points of one row, candidates took 1.58,
# 1.33, 1.04, 0.67 and 0.36 times the time of all B draws at 1, 3, 8, 16 and
# 64 points (``evaluate``, 2-core VM); on rows of one point each, 1.17-1.55
# times at every size.
_ENVELOPE_MIN_POINTS = 16
_ENVELOPE_RUN = 32

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
    alpha/10, and the CLI's ``--beta-preset`` sets alpha / preset for a
    preset in ``BETA_PRESETS``.  ``theta_grid`` is the per-axis resolution of the
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
    return max(float(_top(np.sqrt(x2), _rank_from_top(x2.size, level))), 0.0)


def _rank_from_top(m: int, q: float) -> int:
    """The "higher" ``q`` quantile of m values is their ``m - ceil((m - 1) q)``-th largest."""
    return m - math.ceil((m - 1) * q)


def _top(x: np.ndarray, top: int) -> np.ndarray:
    """The ``top``-th largest value along the last axis of ``x``, by one partial sort in place.

    It is ``np.quantile(x, q, axis=-1, method=_QUANTILE_METHOD)`` for
    ``top = _rank_from_top(m, q)`` where ``x`` holds no NaN, which no
    caller passes.  Of equal values it may return another one than
    np.quantile does (0.0 for -0.0), a difference that every caller's floor
    or recentering at zero removes.
    """
    k = x.shape[-1] - top
    x.partition(k, axis=-1)
    return x[..., k].copy()


def _candidate_count(draws: int, top: int, points: int) -> int:
    """Candidate draws kept per run of a row when the ``top``-th largest values are read.

    max(4 top, 64), or every draw when a call has fewer than
    ``_ENVELOPE_MIN_POINTS`` points, too few for the envelope to pay.
    """
    return max(4 * top, 64) if points >= _ENVELOPE_MIN_POINTS else draws


def _chunk_points(width: int) -> int:
    """Points per phase-B chunk on ``width`` draws: three (point x width) arrays in a third of ``_EVAL_BLOCK``."""
    return max(1, _EVAL_BLOCK // (9 * width))


def _batch_rows(draws: int, m: int) -> int:
    """The most runs of one batch, and so the most rows: each is charged 2 B + 9 m words (the budgets' comment)."""
    return max(1, _EVAL_BLOCK // (2 * draws + 9 * m))


def _scratch_words(draws: int, m: int, rows: int, points: int) -> int:
    """Floats of the scratch an ``evaluate`` call's batches share (the budgets' comment).

    ``rows`` bounds the rows and the runs of any one batch, ``points`` its points.
    """
    # Phase A streams as many components at a time as half the budget holds, at least one.
    phases = [min(6, max(1, _EVAL_BLOCK // max(1, 2 * rows * draws))) * rows * draws]
    phases.append(3 * min(_chunk_points(draws), points) * draws)
    if m < draws:
        phases += [2 * rows * draws, 9 * rows * m + 3 * min(_chunk_points(m), points) * m]
    return rows * draws + max(phases)


def _carve(scratch: np.ndarray, *shapes: tuple[int, ...]) -> tuple[list[np.ndarray], np.ndarray]:
    """Consecutive C-ordered views of ``scratch`` with the given shapes, and the scratch after them."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(scratch[at : at + size].reshape(shape))
        at += size
    return views, scratch[at:]


def _step_two_rules(lam7, positive, bound) -> tuple[bool, list[bool]]:
    """The exact rules a phase-B chunk's step two takes (module docstring): (reuse, skip).

    ``reuse``: rule E, the larger equality term is step one's |d7| / s7,
    where ``positive`` (every s7 of the call is positive) and both equality
    recenterings, ``lam7`` (points, 2), are zero at every point.
    ``skip``: rule S, per component, its terms are below zero at every
    draw, as ``bound()``, each point's term at its largest deviation,
    shows; only under rule E.  ``bound()`` is (points, 6).  No
    recentering is -0.0, and any() counts NaN as nonzero.
    """
    reuse = positive and not lam7.any()
    return reuse, (bound().max(axis=0) < 0.0).tolist() if reuse else [False] * 6


def _stud(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den with the data side's zero-denominator convention.

    A degenerate (constant) component rejects only if its mean violates
    the inequality: positive numerator maps to +inf, non-positive to
    -inf (the component drops out of a maximum).
    """
    if (np.asarray(den) > 0.0).all():
        return np.divide(num, den)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, -np.inf))


def _divider(den: np.ndarray):
    """The division of bootstrap terms by the SDs ``den``: np.divide where every SD is positive, else ``_drop_zero_sd``.

    Chosen once per call: ``_drop_zero_sd`` at every division made an
    ``evaluate`` call on the ``infer-grid`` region's survivors 14% slower
    (9.2 against 8.0 ms), and a test of ``den`` inside each division 6%
    (timeit, alternating rounds, 2-core VM).
    """
    return np.divide if (np.asarray(den) > 0.0).all() else _drop_zero_sd


def _drop_zero_sd(num: np.ndarray, den: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """num / den, and -inf where den is 0, as an exact zero deviation gives whatever its rounding.

    An SD is 0 only where the component's centred cell values are 0 on the
    occupied cells, the only cells a draw occupies, so its deviation is 0
    at every draw, and step two's numerator is a recentering min(mu, 0)
    <= 0, or NaN: either way the term drops out of a maximum.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den, out=out)
    np.copyto(out, -np.inf, where=~(np.asarray(den) > 0.0))
    return out


def _allowance(dmag: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The rounding allowance r = rho dmag / s of components with SD ``s`` (module docstring)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _RTOL * dmag / s


def _cutoff(cbar: float, r: np.ndarray, sqrt_n: float) -> np.ndarray:
    """The certified cutoff (1 + rho) ((1 + r) c_bar + sqrt(n) r), +inf where r is not below 1 (module docstring)."""
    with np.errstate(invalid="ignore"):
        return np.where(r < 1.0, (1.0 + _RTOL) * ((1.0 + r) * cbar + sqrt_n * r), np.inf)


def _rejects(tn: np.ndarray, crit: np.ndarray) -> np.ndarray:
    """The reject rule: T_n above its critical value, or T_n not finite."""
    return (tn > crit) | ~np.isfinite(tn)


class _SPointKernel:
    """Vectorized test evaluation for one (s1, s0) and one dataset.

    Precomputes, from the affine cell tables m = A + theta1 B + theta0 C
    of one assumption and reference point (``moment_cell_tables``), every
    data-side and bootstrap-side projection needed to evaluate the
    statistic and its critical value at arbitrary theta grids.  The six
    inequality components load on a single theta coordinate (the driving
    coordinate ``u``); the equality pair loads on both.
    """

    def __init__(
        self,
        counts: CellCounts,
        a: DependenceAssumption,
        tables: tuple[np.ndarray, np.ndarray, np.ndarray],
        boot_freqs: np.ndarray,
    ) -> None:
        n = counts.n
        self.check(n)
        A, B, C = tables
        self.sqrt_n = math.sqrt(n)
        # Driving coordinate: theta0 for the wrongly-agree-y0 system.
        self.u_is_theta1 = a is not DependenceAssumption.WRONGLY_AGREE_Y0
        U, V = self.orient(B, C)

        # The seven components' columns that are read: A and U of the six
        # inequalities and the equality, and V of the equality alone (the
        # inequalities do not load on v; the negated equality is implied).
        # Each is centred once by its mean under f, so every SD is the
        # L2(f) norm of centred cell values: nothing cancels (module docstring).
        self.f = np.asarray(counts.cells, dtype=float) / n
        table = np.concatenate([A[:, :7], U[:, :7], V[:, 6:7]], axis=1)
        mean = _cell_sum(self.f[:, None], table)
        centred = table - mean
        self.fA, self.fU, self.fV = mean[:7], mean[7:14], mean[14]
        self.Ac, self.Uc, self.Vc = centred[:, :7], centred[:, 7:14], centred[:, 14]
        # Bootstrap-side projections, each centred by its data-side mean,
        # (15, B): a draw's deviation of a component's mean is PA + PU u
        # (+ PV v).
        # Bootstrap deviations are studentized by the data-side standard
        # deviations; re-estimating the scale inside each draw makes the max
        # statistic explode in resamples that nearly empty a thin cell and
        # loses the published rejections.  The six inequality components are
        # kept as (6, B) rows, which phase A streams and phase B gathers
        # from; the equality component as (B,) vectors.
        P = _cell_sum(np.ascontiguousarray(boot_freqs.T)[:, None, :], table[:, :, None])
        P -= mean[:, None]
        self.draws = P.shape[1]
        self.PA6, self.PA7, self.PU6, self.PU7, self.PV7 = P[:6], P[6], P[7:13], P[13], P[14]
        self.slope7 = np.abs(self.PV7)  # the envelope's slope in v
        # The bounds of ``_magnitudes``: each column's largest absolute cell value.
        largest = np.abs(table).max(axis=0)
        self.amax, self.umax, self.vmax = largest[:7], largest[7:14], np.zeros(7)
        self.vmax[6] = largest[14]
        # ``_flat``'s bounds on the allowances of the inequalities and of the
        # equality, at |u|, |v| <= 1, as every theta lies in [0, 1]^2.
        x = largest.tolist()
        self.flat_top = _RTOL * (max(x[:6]) + max(x[7:13])), _RTOL * ((x[6] + x[13]) + x[14])

    @staticmethod
    def check(n: int) -> None:
        """The test's one precondition on the data: n >= 2 observations.

        Empty cells are allowed.  A component constant over the occupied
        cells, to within its rounding allowance, has zero SD (``_flat``):
        ``_stud``'s convention decides its part of T_n, and as bootstrap
        draws never occupy an empty cell, its bootstrap terms are -inf
        (``_divider``).
        """
        if n < 2:
            raise ValueError(f"the test requires n >= 2 observations, got {n}")

    def orient(self, x1, x0):
        """A (theta1, theta0) pair as (u, v); the swap also maps (u, v) back."""
        return (x1, x0) if self.u_is_theta1 else (x0, x1)

    # -- data-side statistics ------------------------------------------
    # In ``_ineq_stats`` ``u`` is a scalar or has a trailing axis of length
    # one, which broadcasts against the six components.

    def _norm(self, x: np.ndarray) -> np.ndarray:
        """The L2(f) norm of centred cell values ``x``, cells first: an SD."""
        return np.sqrt(_cell_sum(self.f.reshape((4,) + (1,) * (x.ndim - 1)), x * x))

    def _ineq_stats(self, u) -> tuple[np.ndarray, np.ndarray]:
        mu = self.fA[:6] + self.fU[:6] * u
        cells = (4,) + (1,) * (np.ndim(u) - 1) + (6,)
        sd = self._norm(self.Ac[:, :6].reshape(cells) + u * self.Uc[:, :6].reshape(cells))
        return self._flat(mu, sd, False, u)

    def _eq_stats(self, u, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        j = 6
        mu = self.fA[j] + self.fU[j] * u + self.fV * v
        cells = (4,) + (1,) * len(np.broadcast_shapes(np.shape(u), np.shape(v)))
        x = (self.Ac[:, j].reshape(cells) + u * self.Uc[:, j].reshape(cells)) + v * self.Vc.reshape(cells)
        return self._flat(mu, self._norm(x), True, u, v)

    def _flat(self, mu, sd, eq: bool, u, v=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Means and SDs at (u, v), each component whose SD is within its allowance of 0 taken as constant.

        The components are the equality where ``eq``, else the six
        inequalities.  Such an SD, at most rho dmag (its allowance r is at
        least 1), is rounding noise, so it becomes 0, and so does its mean
        where that too is within rho dmag of 0 (module docstring).  dmag is
        ``_magnitudes``' bound.  u and v lie in [0, 1], as theta does.
        """
        # Rounding is monotone: no point's allowance exceeds its components' at |u| = |v| = 1.
        if not sd.size or sd.min() > self.flat_top[eq]:
            return mu, sd
        u, v = np.abs(u), np.abs(v)
        j = 6 if eq else slice(0, 6)
        tol = _RTOL * ((self.amax[j] + u * self.umax[j]) + v * self.vmax[j])
        flat = sd <= tol
        return np.where(flat & (np.abs(mu) <= tol), 0.0, mu), np.where(flat, 0.0, sd)

    def _t6(self, mu6: np.ndarray, s6: np.ndarray) -> np.ndarray:
        """The largest studentized inequality statistic, over the trailing axis of six."""
        return np.max(_stud(self.sqrt_n * mu6, s6), axis=-1)

    def _statistic(self, u, v) -> tuple[np.ndarray, ...]:
        """Data-side means, SDs and T_n at the points (u, v), broadcast together.

        ``u`` and ``v`` may be per-point vectors, or a column of rows against
        ``v``; the inequality statistics carry a trailing axis of six.
        """
        mu6, s6 = self._ineq_stats(np.expand_dims(u, -1))
        mu7, s7 = self._eq_stats(u, v)
        t7 = _stud(self.sqrt_n * np.abs(mu7), s7)
        return mu6, s6, mu7, s7, np.maximum(np.maximum(self._t6(mu6, s6), t7), 0.0)

    def screen(self, u: np.ndarray, v: np.ndarray, cbar: float) -> tuple[np.ndarray, np.ndarray]:
        """The points of the (u, v) block whose T_n does not exceed the certified cutoff of ``cbar``.

        Returns their (index into ``u``, index into ``v``) arrays in
        row-major order.  Rows are taken whole first, the rest in chunks of
        at most ``_SCREEN_BLOCK`` points whose survivors are gathered as
        each is done, so no mask of the whole block is ever built.  ``u``
        and ``v`` are not empty: every parameter box holds 0.
        """
        mu6, s6 = self._ineq_stats(u[:, None])
        w = np.abs(v)
        dmag = self._magnitudes(u, w.max())
        r6 = _allowance(dmag[:, :6], s6).max(axis=-1)
        r7 = _allowance(dmag[:, 6], self._equality_sd_min(u, v.min(), v.max(), dmag[:, 6]))
        cut = _cutoff(cbar, np.maximum(r6, r7), self.sqrt_n)  # at least each point's of the row
        rows = np.flatnonzero(~(self._t6(mu6, s6) > cut))
        step = max(1, _SCREEN_BLOCK // v.size)
        found = [(rows[:0], rows[:0])]  # no survivor where every row is claimed
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            *_, s7, tn = self._statistic(u[r, None], v)
            # Only a T_n in ((1 + rho) c_bar, its row's cutoff] needs its point's own.
            keep = ~(tn > cut[r, None])
            i, c = np.nonzero(keep & (tn > (1.0 + _RTOL) * cbar))
            if i.size:
                r7 = _allowance(self._magnitudes(u[r[i]], w[c])[:, 6], s7[i, c])
                keep[i, c] = ~(tn[i, c] > _cutoff(cbar, np.maximum(r6[r[i]], r7), self.sqrt_n))
            i, c = np.nonzero(keep)
            found.append((r[i], c))
        rows, cols = zip(*found)
        return np.concatenate(rows), np.concatenate(cols)

    def _magnitudes(self, u, w) -> np.ndarray:
        """dmag of the seven components at u and |v| = w, broadcast, (..., 7): a bound on every |m_c|."""
        return self.amax + np.abs(u)[..., None] * self.umax + np.asarray(w)[..., None] * self.vmax

    def _equality_sd_min(self, u: np.ndarray, lo: float, hi: float, dmag) -> np.ndarray:
        """Per row at ``u``, a lower bound on the kernel's equality SD at every v in [lo, hi], or 0.

        sd(mid) - half ||Vc||, less the allowance rho dmag at max(|lo|, |hi|),
        and 0 where that is within the allowance of 0, as a point's SD is
        (module docstring).
        """
        _, sd = self._eq_stats(u, 0.5 * (lo + hi))
        tol = _RTOL * dmag
        sd = sd - 0.5 * (hi - lo) * self._norm(self.Vc) - tol
        return np.where(sd > tol, sd, 0.0)

    # -- full evaluation ------------------------------------------------

    def evaluate(
        self, u: np.ndarray, v: np.ndarray, alpha: float, beta: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """T_n and critical value at the points (u[k], v[k]).

        Each run of at most ``_ENVELOPE_RUN`` consecutive points of a row
        (a run of equal u) is counted from the row's first point.  The
        points are taken in batches of at most ``_batch_rows`` whole runs,
        so of at most as many rows, each run lying in one row; a row that
        spans two batches is a row in each.  ``m`` is the number of
        candidate draws per run, or B where the envelope does not pay.
        Every batch works in one scratch allocated here.
        """
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        mu6, s6, mu7, s7, tn = self._statistic(u, v)
        nb, n = self.draws, v.size
        tops = (_rank_from_top(nb, 1.0 - beta), _rank_from_top(nb, 1.0 - alpha + beta))
        m = min(_candidate_count(nb, max(tops), n), nb)
        rows = _batch_rows(nb, m)
        first = np.empty(n, dtype=bool)
        first[:1] = True
        first[1:] = u[1:] != u[:-1]
        row = np.cumsum(first) - 1  # each point's row
        # Each run's first point; on all B draws no batch needs its runs.
        lead = first if m >= nb else (np.arange(n) - np.flatnonzero(first)[row]) % _ENVELOPE_RUN == 0
        run = np.cumsum(lead) - 1  # each point's run
        run_at = np.append(np.flatnonzero(lead), n)
        scratch = np.empty(_scratch_words(nb, m, min(rows, run_at.size - 1), n))
        crit = np.empty(n)
        lo = 0
        while lo < n:
            hi = run_at[min(run[lo] + rows, run_at.size - 1)]
            part = slice(lo, hi)
            head = first[part].copy()
            head[0] = True
            crit[part] = self._critical_values(
                head, row[part] - row[lo], lead[part], u[part], v[part], mu6[part], s6[part],
                mu7[part], s7[part], tops, m, scratch,
            )
            lo = hi
        return tn, np.maximum(crit, 0.0, out=crit)

    def _critical_values(self, first, row, lead, u, v, mu6, s6, mu7, s7, tops, m, scratch) -> np.ndarray:
        """Raw critical values of a batch of consecutive points, from their statistics, rows and runs.

        ``first`` marks each row's first point, ``row`` is each point's row
        and ``lead`` marks each run's first point.  Phase A builds the row
        tables; phase B evaluates every point on its run's ``m`` candidate
        draws when m is below B.  The points where that is not exact, or
        every point when m is B, are evaluated on all B draws, each chunk
        forming its points' deviations itself.  ``evaluate`` floors the
        values at zero.
        """
        (d6max, top6), free = self._row_tables(u[first], s6[first], scratch)
        every = (None, d6max, None, self.PV7[None], top6)
        if m >= self.draws:
            return self._order_stats(every, row, u, v, mu6, s6, mu7, s7, tops, free)[1]
        raw, exact = self._on_candidates(d6max, row, lead, u, v, mu6, s6, mu7, s7, tops, m, free)
        if not exact.all():
            todo = ~exact
            points = (x[todo] for x in (row, u, v, mu6, s6, mu7, s7))
            raw[todo] = self._order_stats(every, *points, tops, free)[1]
        return raw

    def _on_candidates(self, d6max, row, lead, u, v, mu6, s6, mu7, s7, tops, m, free):
        """Raw critical values of points on their runs' ``m`` candidate draws, and which are exact.

        ``row`` is each point's row of ``d6max`` and ``lead`` marks each
        run's first point; each run has its own candidates, and the
        candidates' tables are formed into ``free``.
        """
        runs = np.flatnonzero(lead)
        run = np.cumsum(lead) - 1  # each point's run
        owner, ur = row[runs], u[runs]
        keep, cut = self._candidates(
            owner, ur, d6max, np.minimum.reduceat(v, runs), np.maximum.reduceat(v, runs),
            np.minimum.reduceat(s7, runs), m, free,
        )
        # The envelope is spent: the candidates' tables take its place.
        shape = keep.shape
        (dev6, d6m, base7, pv7), free = _carve(free, (6, *shape), shape, shape, shape)
        self._tables_at(ur, keep, dev6, base7, pv7)
        np.take(d6max, owner[:, None] * self.draws + keep, out=d6m, mode="clip")
        np.take(self.PV7, keep, out=pv7, mode="clip")
        kept = (dev6, d6m, base7, pv7, dev6.max(axis=2))
        bhat, raw = self._order_stats(kept, run, u, v, mu6, s6, mu7, s7, tops, free)
        cut = cut[run]
        return raw, (cut < bhat) & (cut < raw)

    def _row_tables(self, ur, s6r, scratch):
        """Phase A's tables of the rows at ``ur``: (d6max, top6), and the scratch after d6max.

        d6max (rows, B), a view of ``scratch``, is the maximum of the six
        inequality components' studentized deviations (step one's
        inequality term); top6 (6, rows) is each component's largest
        deviation.  The components are streamed through the scratch after
        d6max, as many at a time as it holds (at least one), by the
        operations ``_tables_at`` makes at any draws.
        """
        R, B = ur.size, self.draws
        (d6max,), free = _carve(scratch, (R, B))
        q = min(6, free.size // (R * B))  # components per pass
        top6 = np.empty((6, R))
        stud6 = _divider(s6r)
        for j in range(0, 6, q):
            J = slice(j, min(j + q, 6))
            dev = free[: (J.stop - j) * R * B].reshape(-1, R, B)
            np.multiply(self.PU6[J, None, :], ur[:, None], out=dev)
            np.add(self.PA6[J, None, :], dev, out=dev)
            dev.max(axis=2, out=top6[J])
            stud6(np.multiply(self.sqrt_n, dev, out=dev), s6r.T[J, :, None], out=dev)
            if j == 0:
                dev.max(axis=0, out=d6max)
            else:
                for x in dev:
                    np.maximum(d6max, x, out=d6max)
        return (d6max, top6), free

    def _tables_at(self, ur, at, dev6, base7, tmp) -> None:
        """The rows' deviations dev6 and equality base base7 at the draws ``at``, into the given arrays.

        Row k at ``ur[k]`` is taken at the draws ``at[k]``: dev6 is
        (6, *at.shape), the six inequality deviations, and base7 at.shape,
        the part of the equality component's draws that depends on u alone.
        They are PA + PU u for each inequality and PA7 + PU7 u, by
        the operations phase A and the chunks on all B draws make, in the
        same order.  ``tmp``, shaped as ``at``, holds each PA gather.
        """
        uc = ur[:, None]
        np.multiply(np.take(self.PU6, at, axis=1, out=dev6, mode="clip"), uc, out=dev6)
        for j in range(6):
            np.add(np.take(self.PA6[j], at, out=tmp, mode="clip"), dev6[j], out=dev6[j])
        np.multiply(np.take(self.PU7, at, out=base7, mode="clip"), uc, out=base7)
        np.add(np.take(self.PA7, at, out=tmp, mode="clip"), base7, out=base7)

    def _envelope(self, owner, ur, d6max, lo_v, hi_v, s7min, free) -> np.ndarray:
        """U(b) of runs at ``ur`` in rows ``owner`` whose v lie in [lo_v, hi_v], as a view of ``free``.

        At least every step-one maximum of a point of the run, at every
        draw.  ``d6max`` is the row table and ``s7min`` the smallest
        equality SD of each run's points.  Each run's base7 on all B draws
        is formed here, by ``_tables_at``'s operations.
        """
        mid, half = 0.5 * (lo_v + hi_v), 0.5 * (hi_v - lo_v)
        dmag = self._magnitudes(ur, np.maximum(np.abs(lo_v), np.abs(hi_v)))[:, 6]
        (env, tmp), _ = _carve(free, (ur.size, self.draws), (ur.size, self.draws))
        np.add(self.PA7, np.multiply(self.PU7, ur[:, None], out=env), out=env)
        np.add(env, np.multiply(mid[:, None], self.PV7, out=tmp), out=env)
        np.abs(env, out=env)
        np.add(env, np.multiply(half[:, None], self.slope7, out=tmp), out=env)
        np.add(env, (2.0 * _RTOL * dmag)[:, None], out=env)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(env, (self.sqrt_n * (1.0 + _RTOL) / s7min)[:, None], out=env)
        env[s7min == 0.0] = np.inf  # |d7| / 0 is +inf wherever d7 is not zero
        return np.maximum(env, np.take(d6max, owner, axis=0, out=tmp, mode="clip"), out=env)

    def _candidates(self, owner, ur, d6max, lo_v, hi_v, s7min, m, free):
        """Each run's ``m`` draws of largest envelope, (runs, m), and its cut.

        Run k lies in row ``owner[k]``.  The cut is the (m + 1)-th largest
        envelope of the run; no draw outside the candidates has a larger one.
        """
        k = self.draws - m - 1
        env = self._envelope(owner, ur, d6max, lo_v, hi_v, s7min, free)
        order = np.argpartition(env, k, axis=1)
        # A copy, so that the (runs, B) indices are freed before phase B.
        return order[:, k + 1 :].copy(), np.take_along_axis(env, order[:, k, None], axis=1)[:, 0]

    def _order_stats(self, tables, row, u, v, mu6, s6, mu7, s7, tops, free):
        """Step one's bound and step two's raw critical value at points of the tables' rows.

        ``tables`` are (dev6, d6max, base7, pv7, top6) over the draws the
        points are evaluated on, m of them: all B, or a run's candidates;
        ``row`` is each point's row of them.  On all B draws dev6 and base7
        are None, and each chunk forms them at its points from ``u`` by
        ``_tables_at``'s operations.  A pv7 of one row serves every row, as
        PV7 itself does on all B draws.  Both figures are read as the order
        statistics ``tops`` counted from the top.  The points are taken in
        chunks of ``_chunk_points(m)``, whose three (point x m) arrays are
        views of ``free``.  Step two takes the rules of
        ``_step_two_rules`` per chunk.
        """
        dev6, d6max, base7, pv7, top6 = tables
        rn, n, m = self.sqrt_n, v.size, d6max.shape[1]
        step = min(_chunk_points(m), n)
        arrays, _ = _carve(free, (step, m), (step, m), (step, m))
        # Per call: the recenterings' centres and scales as (points, 8)
        # columns (six inequalities, then the equality pair), the divisions
        # and rule E's condition on s7.
        centre = np.concatenate([mu6, mu7[:, None], -mu7[:, None]], axis=1)
        scale = np.concatenate([s6, s7[:, None], s7[:, None]], axis=1)
        scale /= rn
        stud6, stud7 = _divider(s6), _divider(s7)
        positive = bool(s7.min() > 0.0)
        bhat, raw = np.empty((2, n))
        # An infinite bound on a zero-scale component gives inf * 0 = NaN in
        # its recentering, the one invalid operation of the loop.
        with np.errstate(invalid="ignore"):
            for lo in range(0, n, step):
                k = slice(lo, lo + step)
                r, vk, s7c = row[k], v[k, None], s7[k, None]
                d7, e, g = (x[: r.size] for x in arrays)
                uk = u[k, None]

                # Step 1: joint upper confidence bounds for the moments.  Every
                # row index is in range; mode="clip" spares the copy "raise" makes.
                # e keeps the equality term |d7| / s7 for rule E.
                if base7 is None:
                    np.add(self.PA7, np.multiply(self.PU7, uk, out=d7), out=d7)
                else:
                    base7.take(r, axis=0, out=d7, mode="clip")
                pv = pv7 if len(pv7) == 1 else pv7.take(r, axis=0, out=e, mode="clip")
                np.add(d7, np.multiply(vk, pv, out=e), out=d7)
                np.multiply(rn, d7, out=d7)
                stud7(np.abs(d7, out=e), s7c, out=e)
                np.maximum(d6max.take(r, axis=0, out=g, mode="clip"), e, out=g)
                bhat[k] = b = _top(g, tops[0])

                # Step 2: recenter by the bounds truncated at zero.  A NaN
                # recentering drops its component out of the maximum
                # (``_stud`` maps it to -inf).
                lam = np.minimum(centre[k] + b[:, None] * scale[k], 0.0)
                lam6 = lam[:, :6]
                reuse, skip = _step_two_rules(
                    lam[:, 6:], positive, lambda: stud6(rn * (top6.take(r, axis=1).T + lam6), s6[k])
                )
                if reuse:  # the maximum starts as e, and d7 is free
                    acc, t = e, d7
                else:
                    acc, t = g, e
                    stud7(np.add(d7, rn * lam[:, 6, None], out=g), s7c, out=g)
                    np.add(np.negative(d7, out=d7), rn * lam[:, 7, None], out=d7)
                    np.maximum(g, stud7(d7, s7c, out=d7), out=g)
                for j in range(6):
                    if skip[j]:
                        continue
                    if dev6 is None:
                        np.add(self.PA6[j], np.multiply(self.PU6[j], uk, out=t), out=t)
                    else:
                        dev6[j].take(r, axis=0, out=t, mode="clip")
                    np.multiply(rn, np.add(t, lam6[:, j, None], out=t), out=t)
                    stud6(t, s6[k, j, None], out=t)
                    np.maximum(acc, t, out=acc)
                raw[k] = _top(acc, tops[1])
        return bhat, raw


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
    kernel = _SPointKernel(counts, a, moment_cell_tables(a, theta.s), boot_freqs)
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
        """The set's JSON record, its arrays as float64 arrays and the one theta axis under both axis keys.

        ``report._confidence_set_json`` writes it; ``.tolist()`` of each
        array gives the record ``json`` writes.
        """
        proj = self.projections
        return {
            "alpha": self.config.alpha,
            "beta": self.config.beta_value,
            "bootstrap": self.config.bootstrap,
            "seed": self.config.seed,
            "quantile_method": _QUANTILE_METHOD,
            "assumption": self.assumption.value,
            "s_points": [[s.s1, s.s0] for s in self.s_points],
            "theta1_axis": self.theta_axis,
            "theta0_axis": self.theta_axis,
            "n_tested": self.n_tested,
            "n_retained": len(self),
            "theta1_projection": None if proj is None else [proj[0].lo, proj[0].hi],
            "theta0_projection": None if proj is None else [proj[1].lo, proj[1].hi],
            "points": self.points,
            "t_n": self.t_n,
            "crit": self.crit,
        }

    def to_csv_rows(self) -> list[str]:
        """The CSV rows; each coordinate column spells each of its few distinct values once."""
        spellings = ("%.12g", "%.12g", "%.10g", "%.10g")  # theta1, theta0, s1, s0
        coords = (_distinct_texts(self.points[:, k], f.__mod__) for k, f in enumerate(spellings))
        row = "%s,%s,%s,%s,%.12g,%.12g,1"
        table = zip(*coords, self.t_n.tolist(), self.crit.tolist())
        return ["theta1,theta0,s1,s0,Tn,crit,accepted", *(row % r for r in table)]


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

    # Retained points as blocks of (theta1 index, theta0 index, s index, T_n, crit).
    blocks: list[tuple[np.ndarray, ...]] = []
    n_tested = 0
    for s_idx, s in enumerate(s_points):
        kernel = _SPointKernel(counts, a, moment_cell_tables(a, s), boot_freqs)
        (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
        idx1 = np.flatnonzero((axis >= lo1) & (axis <= hi1))
        idx0 = np.flatnonzero((axis >= lo0) & (axis <= hi0))
        n_tested += idx1.size * idx0.size
        iu, iv = kernel.orient(idx1, idx0)
        r, c = kernel.screen(axis[iu], axis[iv], cbar)
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
) -> CoverageResult:
    """Monte-Carlo acceptance rates of the test at identified-set points.

    Draws ``reps`` datasets of size ``n`` from ``true_p``, which must clear
    ``default_cell_floor(n)``, and records, for each candidate theta (by
    default three interior points of the true segment), the fraction of
    replications in which the test accepts.
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
    floor = default_cell_floor(n)
    if not true_p.satisfies_cell_floor(floor):
        raise ValueError(
            f"true distribution violates the cell floor {floor}: cells {true_p.cells}"
        )
    if theta_points is None:
        seg = sharp_segment(true_p, s_true, a)
        points = (tuple(seg.point_at(f)[0].tolist()) for f in (0.25, 0.5, 0.75))
        theta_points = tuple(ThetaPoint(t1, t0, s_true) for t1, t0 in dict.fromkeys(points))
    for tp in theta_points:
        _check_in_box(tp, a)
    groups: dict[RefPerf, list[int]] = {}  # candidates by reference point
    for k, tp in enumerate(theta_points):
        groups.setdefault(tp.s, []).append(k)
    tables = {s: moment_cell_tables(a, s) for s in groups}
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
            kernel = _SPointKernel(counts, a, tables[s], boot)
            tn, crit = kernel.evaluate(*kernel.orient(t1[k], t0[k]), cfg.alpha, cfg.beta_value)
            accept[r, k] = ~_rejects(tn, crit)
    coverage = accept.mean(axis=0)
    return CoverageResult(
        theta_points=tuple(theta_points), coverage=coverage, reps=reps, n=n
    )
