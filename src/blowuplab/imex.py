"""The IMEX trapezoidal step shared by the physical and similarity frames.

Space: second-order centered Laplacian on a uniform grid, homogeneous Neumann
at the outer boundary; radial geometry uses u'' + (N-1) u'/r with the origin
regularised to N u''(0); the similarity frame adds the central drift
-(y/2) u', so its operator A is Lap - (y/2).grad.  Time, for
du/dt = A u + g(t, u): Crank-Nicolson on A, a backward-Euler predictor and
Heun corrector on g,

    (I - dt A) u*      = u + dt g(t, u)
    (I - dt/2 A) u_new = u + dt/2 A u + dt/2 (g(t, u) + g(t + dt, u*)),

second order overall.  The step returns u* next to u_new: their gap is the
local error of the first-order predictor, which the physical frame's step
controller uses.  It also returns max|u_new|: the one reduction that checks
u_new for finiteness is the sup its callers read.

An Operator holds A's bands for one grid and the last dt a step asked for.
A step at a new dt solves each tridiagonal matrix with one dgtsv call and
keeps nothing; a step that repeats the last dt factors both matrices with
dgttrf, and later steps at that dt only back-substitute with dgttrs.  The
two routes give the same bits.  So a similarity run, whose ds is fixed,
factors once, on its second step, and the physical step controller, which
changes dt on nearly every step, almost never factors.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._lapack import dgtsv, dgttrf, dgttrs
from .errors import BlowupOvershootError, NumericError

def laplacian_bands(
    nodes: np.ndarray, geometry: str, dimension: int, drift: bool = False
) -> np.ndarray:
    """Banded (3, n) representation of the Neumann Laplacian on the grid;
    with drift, of Lap - (y/2) d/dy (radial: - (r/2) d/dr).  The boundary
    rows carry no drift: the Neumann ghost makes the central gradient 0.
    Off-diagonals turn negative once (R - h) h > 4, R the outer radius, yet
    the spectrum stays in Re <= 0 (measured up to R h = 312)."""
    n = nodes.size
    h = nodes[1] - nodes[0]
    upper = np.zeros(n)
    diag = np.zeros(n)
    lower = np.zeros(n)
    inv_h2 = 1.0 / (h * h)
    diag[:] = -2.0 * inv_h2
    upper[1:] = inv_h2
    lower[:-1] = inv_h2
    if geometry == "line":
        upper[1] = 2.0 * inv_h2  # mirrored ghost at both ends
        lower[-2] = 2.0 * inv_h2
    else:
        N = dimension
        r = nodes[1:-1]
        radial = (N - 1) / (2.0 * h * r)
        upper[2:] += radial
        lower[:-2] -= radial
        # r = 0: Lap u = N u''(0) with even extension u(-h) = u(h)
        diag[0] = -2.0 * N * inv_h2
        upper[1] = 2.0 * N * inv_h2
        # outer Neumann: mirrored ghost, first-derivative term vanishes
        lower[-2] = 2.0 * inv_h2
    if drift:
        c = nodes[1:-1] / (4.0 * h)
        upper[2:] -= c
        lower[:-2] += c
    return np.vstack([upper, diag, lower])


def _matrix(bands: np.ndarray, alpha: float) -> np.ndarray:
    """The bands of I - alpha A, freshly formed."""
    m = -alpha * bands
    m[1] += 1.0
    return m


def _factor(bands: np.ndarray, alpha: float) -> tuple:
    """dgttrf factors (dl, d, du, du2, ipiv) of I - alpha A."""
    m = _matrix(bands, alpha)
    *factors, info = dgttrf(m[2, :-1], m[1], m[0, 1:])
    if info != 0:  # pragma: no cover - A's spectrum lies in Re <= 0
        raise NumericError(
            f"imex_step: I - {alpha} A is singular (dgttrf info {info})"
        )
    for arr in factors:
        arr.setflags(write=False)  # shared by every step at this dt
    return tuple(factors)


class Operator:
    """The implicit operator A of one grid: its read-only bands, the three
    views of them that A u reads, the last dt a step asked for, and the
    dgttrf factors of I - dt A and I - dt/2 A once that dt is asked for
    again.  A field builds its operator once and hands it to every field
    stepped from it."""

    def __init__(self, nodes: np.ndarray, geometry: str, dimension: int, drift: bool = False):
        self.bands = laplacian_bands(np.asarray(nodes, dtype=float), geometry, dimension, drift)
        self.bands.setflags(write=False)
        # A u = diag u, plus upper u[1:] on rows :-1 and lower u[:-1] on rows 1:
        self.au_bands = self.bands[1], self.bands[0][1:], self.bands[2][:-1]
        self._dt = None
        self._factors = None

    def factors(self, dt: float) -> tuple | None:
        """(predictor factors, corrector factors) when dt repeats the last
        dt asked for, factored on its first repeat; None for a new dt, whose
        step solves each matrix once and factors nothing."""
        if dt != self._dt:
            self._dt, self._factors = dt, None
        elif self._factors is None:
            self._factors = _factor(self.bands, dt), _factor(self.bands, 0.5 * dt)
        return self._factors


def _solve(
    bands: np.ndarray, alpha: float, factors: tuple | None, rhs: np.ndarray, stage: str
) -> np.ndarray:
    """Solve (I - alpha A) x = rhs in rhs's buffer: from that matrix's dgttrf
    factors by dgttrs, or with factors None by one dgtsv call that also
    overwrites the freshly formed matrix.  dgtsv eliminates with the same
    pivots and the same operations as dgttrf followed by dgttrs, so both
    routes give the same bits.  The solution is not checked here: the step
    checks it by its max (see _checked_abs_max).
    """
    if factors is None:
        m = _matrix(bands, alpha)
        *_, out, info = dgtsv(
            m[2, :-1], m[1], m[0, 1:], rhs,
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        routine = "dgtsv"
    else:
        out, info = dgttrs(*factors, rhs, overwrite_b=1)
        routine = "dgttrs"
    if info != 0:  # pragma: no cover - a singular matrix or an invalid argument
        raise NumericError(f"imex_step: {stage} solve failed ({routine} info {info})")
    return out


def _checked_abs_max(x: np.ndarray, t: float, stage: str) -> tuple[np.ndarray, float]:
    """|x| and max|x| of a stage's solution.  NaN and inf propagate through
    the max, so it is also the finiteness check: a non-finite value is an
    overshoot.  The max is read at argmax's index: argmax takes the first
    NaN as the max, as max does, and skips the reduction machinery.

    Only the solution needs checking.  The substitutions reach every entry
    of the right-hand side and divide only by the nonzero pivots, and IEEE
    arithmetic keeps a value non-finite through additions, multiplications
    and such divisions, so a non-finite right-hand side always yields a
    non-finite solution.
    """
    ax = np.abs(x)
    x_max = ax.item(ax.argmax())
    if not math.isfinite(x_max):
        raise BlowupOvershootError(f"imex_step: non-finite {stage} at t={t}")
    return ax, x_max


# One error state for the whole step, both explicit evaluations included: an
# overflow anywhere leaves an inf in a right-hand side, and the max of that
# stage's solution reports it.  As a decorator np.errstate enters its context
# at each call without building a new errstate object.
@np.errstate(over="ignore")
def imex_step(
    operator: Operator,
    u: np.ndarray,
    u_max: float,
    t: float,
    dt: float,
    explicit: Callable[[float, np.ndarray, tuple[np.ndarray, float]], np.ndarray],
) -> tuple[np.ndarray, float, np.ndarray]:
    """Advance u, a finite field with max|u| = u_max, by dt with operator's
    A implicit and the explicit terms g(t, x) = explicit(t, x, (|x|, max|x|)).
    explicit returns a new array, which the step may overwrite, and runs
    with floating-point overflow silenced, so it may overflow to inf
    without a warning.  Returns (u_new, max|u_new|, u*): the second-order
    result, its sup, and the first-order predictor, whose gap to u_new is
    an embedded estimate of the predictor's local error.  Raises
    BlowupOvershootError on any non-finite value (the step went past the
    singularity).

    One reduction per array: max|u*| and max|u_new| check the two
    solutions for finiteness, and hand their explicit terms (and the
    caller) the sup.  The right-hand sides are formed in place, with the
    operations of u + dt g0 and u + dt/2 A u + dt/2 (g0 + g1) in their
    order, so every bit is theirs.
    """
    bands = operator.bands
    predictor, corrector = operator.factors(dt) or (None, None)
    g0 = explicit(t, u, (np.abs(u), u_max))
    rhs = dt * g0
    rhs += u
    u_star = _solve(bands, dt, predictor, rhs, "predictor")
    g1 = explicit(t + dt, u_star, _checked_abs_max(u_star, t, "predictor"))
    half = 0.5 * dt
    diag, upper, lower = operator.au_bands
    rhs = diag * u  # A u, then u + dt/2 A u
    rhs[:-1] += upper * u[1:]
    rhs[1:] += lower * u[:-1]
    rhs *= half
    rhs += u
    g1 += g0
    g1 *= half
    rhs += g1
    u_new = _solve(bands, half, corrector, rhs, "corrector")
    _, u_new_max = _checked_abs_max(u_new, t, "corrector")
    return u_new, u_new_max, u_star
