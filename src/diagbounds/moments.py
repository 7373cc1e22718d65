"""Moment-function representation of the identified sets.

Each identified set is rewritten as {theta : E[m_j(W, theta)] <= 0 for
the inequality components, E[m_7(W, theta)] = 0}, where W = (t, r) and
theta = (theta1, theta0, s1, s0).  Every component is affine in the cell
indicators of (t, r) and affine in (theta1, theta0), so expectations and
variances have exact closed forms in the four cell frequencies; nothing
ever loops over observations.  The equality is split into two opposing
inequalities, giving k = 8 components: 1..6 inequalities, 7 the equality,
8 its negation.

``moment_stats(p, system)`` gives the components' means and SDs under a
cell distribution P(t, r); sample statistics are the same call on
``estimate_joint(counts)``.  ``variance_floor(eps)`` gives the eight
variance floors that hold whenever every cell carries mass eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identification import DependenceAssumption
from .probability import JointTR, RefPerf

__all__ = [
    "ThetaPoint",
    "MomentSystem",
    "MomentStats",
    "N_COMPONENTS",
    "moment_cell_tables",
    "build_moment_system",
    "param_space_box",
    "moment_stats",
    "variance_floor",
]

N_COMPONENTS = 8

# Cell order everywhere: (t, r) = (1,1), (0,1), (1,0), (0,0).
CELLS_TR = ((1, 1), (0, 1), (1, 0), (0, 0))

_T = np.array([t for t, _ in CELLS_TR], dtype=float)
_R = np.array([r for _, r in CELLS_TR], dtype=float)


@dataclass(frozen=True)
class ThetaPoint:
    """A candidate parameter value (theta1, theta0, s1, s0)."""

    theta1: float
    theta0: float
    s: RefPerf

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta1 <= 1.0 and 0.0 <= self.theta0 <= 1.0):
            raise ValueError(
                f"theta components must lie in [0, 1], got "
                f"({self.theta1}, {self.theta0})"
            )
        self.s.require_informative()


@dataclass(frozen=True)
class MomentSystem:
    """Evaluated moment components on the four (t, r) cells.

    ``cell_values[c, j]`` is m_{j+1}(W, theta) for W in the cell
    CELLS_TR[c].  Since every component depends on the data only through
    (t, r), these 4 x 8 numbers determine all sample and population
    moments: E_P[m_j] = sum_cells P(cell) * cell_values[cell, j].
    """

    assumption: DependenceAssumption
    theta: ThetaPoint
    cell_values: np.ndarray

    def __post_init__(self) -> None:
        if self.cell_values.shape != (4, N_COMPONENTS):
            raise ValueError(f"cell_values must be 4 x {N_COMPONENTS}, got {self.cell_values.shape}")
        if not np.all(np.isfinite(self.cell_values)):
            raise ValueError("cell_values must be finite")
        self.cell_values.setflags(write=False)


@dataclass(frozen=True)
class MomentStats:
    """Means and standard deviations of the moment components."""

    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self) -> None:
        self.means.setflags(write=False)
        self.sds.setflags(write=False)


def _factor(s: RefPerf) -> np.ndarray:
    """Per-cell value of (r - 1 + s0) / (s1 - 1 + s0); its mean is P(y=1)."""
    s.require_informative()
    return (_R - 1.0 + s.s0) / (s.s1 - 1.0 + s.s0)


def moment_cell_tables(
    a: DependenceAssumption, s: RefPerf
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine decomposition of the cell values in (theta1, theta0).

    Returns (A, B, C), each 4 x 8, with
    cell_values = A + theta1 * B + theta0 * C.  Only the equality pair
    loads on theta0 except under the wrongly-agree-for-y=0 assumption,
    whose six inequalities constrain theta0 instead of theta1.
    """
    phi = _factor(s)
    psi = 1.0 - phi
    t, r = _T, _R
    s1, s0 = s.s1, s.s0

    A = np.zeros((4, N_COMPONENTS))
    B = np.zeros((4, N_COMPONENTS))
    C = np.zeros((4, N_COMPONENTS))

    if a is DependenceAssumption.WRONGLY_AGREE_Y0:
        # Six inequalities written in theta0, driven by psi = 1 - phi.
        A[:, 0] = s0 * psi + (r - 1.0) * t
        A[:, 1] = (1.0 - s0) * psi - t * r
        A[:, 2] = psi - t
        A[:, 3] = t - 1.0
        A[:, 4] = -s0 * psi - r * (1.0 - t)
        A[:, 5] = ((s0 - 1.0) / 2.0) * psi - (1.0 - t) * (1.0 - r)
        C[:, 0:3] = -psi[:, None]
        C[:, 3:6] = psi[:, None]
    else:
        A[:, 0] = s1 * phi + (t - 1.0) * r
        A[:, 1] = (1.0 - s1) * phi + (r - 1.0) * (1.0 - t)
        A[:, 2] = phi + (t - 1.0)
        A[:, 3] = -t
        A[:, 4] = -s1 * phi - t * (1.0 - r)
        if a is DependenceAssumption.NO_RESTRICTION:
            A[:, 5] = (s1 - 1.0) * phi - t * r
        else:
            A[:, 5] = ((s1 - 1.0) / 2.0) * phi - t * r
        if a is DependenceAssumption.WRONGLY_AGREE_BOTH:
            shift = 0.5 * (r - s1 * phi)
            A[:, 3] += shift
            A[:, 5] += shift
        B[:, 0:3] = -phi[:, None]
        B[:, 3:6] = phi[:, None]

    # Equality: (theta0 - 1)(1 - phi) - theta1 * phi + t, and its negation.
    A[:, 6] = -psi + t
    B[:, 6] = -phi
    C[:, 6] = psi
    A[:, 7] = -A[:, 6]
    B[:, 7] = -B[:, 6]
    C[:, 7] = -C[:, 6]
    return A, B, C


def build_moment_system(theta: ThetaPoint, a: DependenceAssumption) -> MomentSystem:
    """Evaluate the moment components of assumption ``a`` at ``theta``."""
    A, B, C = moment_cell_tables(a, theta.s)
    values = A + theta.theta1 * B + theta.theta0 * C
    return MomentSystem(assumption=a, theta=theta, cell_values=values)


def param_space_box(
    a: DependenceAssumption, s: RefPerf
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Parameter-space restriction on (theta1, theta0) implied by ``a``.

    The wrongly-agree assumptions cap the corresponding parameter at
    (1 + s_j) / 2 independently of the data distribution; the caps belong
    to the parameter space rather than to the moment system.
    """
    s.require_informative()
    hi1 = 1.0
    hi0 = 1.0
    if a in (DependenceAssumption.WRONGLY_AGREE_Y1, DependenceAssumption.WRONGLY_AGREE_BOTH):
        hi1 = (1.0 + s.s1) / 2.0
    if a in (DependenceAssumption.WRONGLY_AGREE_Y0, DependenceAssumption.WRONGLY_AGREE_BOTH):
        hi0 = (1.0 + s.s0) / 2.0
    return ((0.0, hi1), (0.0, hi0))


def _cell_sum(w, t) -> np.ndarray:
    """((w0 t0 + w1 t1) + w2 t2) + w3 t3: a weighted sum over the leading cell axis, in one fixed order.

    ``w`` and ``t`` broadcast together, each with the four cells first.
    Every operation is an IEEE elementwise one, so the sum has the same
    bits on every CPU, unlike a BLAS product, whose kernel picks its own
    order.
    """
    out = np.multiply(w[0], t[0])
    term = np.empty_like(out)
    for c in (1, 2, 3):
        out += np.multiply(w[c], t[c], out=term)
    return out


def moment_stats(p: JointTR, system: MomentSystem) -> MomentStats:
    """Closed-form means and SDs of the components under the cells ``p``.

    Under the plug-in ``estimate_joint(counts)`` these are the exact
    per-observation averages (1/n) sum m_j(W_i) and their centered
    variance, because m_j(W_i) takes one of four values determined by the
    cell of W_i.  Each variance is the weighted sum of the squared centered
    cell values, so nothing cancels.  Raw counts are refused rather than
    used as weights.
    """
    if not isinstance(p, JointTR):
        raise TypeError(
            f"moment_stats takes a JointTR, got {type(p).__name__}; "
            "pass estimate_joint(counts) for sample statistics"
        )
    weights = np.asarray(p.cells, dtype=float)
    values = system.cell_values
    means = _cell_sum(weights[:, None], values)
    centred = values - means
    return MomentStats(means=means, sds=np.sqrt(_cell_sum(weights[:, None], centred * centred)))


def _h_correlation_sq(eps: float) -> float:
    """Largest squared correlation of r with a single-cell indicator.

    Piecewise in eps: the unconstrained optimum applies below 0.2, the
    mass constraint binds on [0.2, 0.25].
    """
    if eps >= 0.2:
        return (2.0 - 6.0 * eps) / (3.0 - 6.0 * eps)
    return ((1.0 - eps) / (1.0 + eps)) ** 2


def variance_floor(eps: float) -> np.ndarray:
    """Uniform lower bounds on Var(m_1), ..., Var(m_8) over distributions with cells >= eps.

    Components 3, 4, 7 (and the mirrored 8) involve t or the equality and
    use the bound 2 eps (1 - 2 eps) (1 - (1 - 4 eps)^2); the remaining
    components involve one cell indicator and use
    eps (1 - eps) (1 - h(eps)) with h the extreme squared correlation.
    """
    if not (0.0 < eps <= 0.25):
        raise ValueError(f"cell floor must lie in (0, 0.25], got {eps}")
    floors = np.full(N_COMPONENTS, eps * (1.0 - eps) * (1.0 - _h_correlation_sq(eps)))
    floors[[2, 3, 6, 7]] = 2.0 * eps * (1.0 - 2.0 * eps) * (1.0 - (1.0 - 4.0 * eps) ** 2)
    return floors
