"""Quadrature rules for integrals against the Gaussian weight rho(y) = e^(-|y|^2/4).

There is one rule, rule_for_grid: the rho-weighted trapezoid on the uniform
nodes of a solver grid, so sampled fields integrate without interpolation.
On a radial grid the weights carry the surface factor omega_{N-1} r^(N-1).

* Line grids (N = 1) and radial grids of odd N: the integrand has Gaussian
  decay and, at odd N, extends evenly through r = 0, so the trapezoid is
  accurate far beyond any polynomial order.
* Radial grids of even N: r^(N-1) rho is odd in r, so the trapezoid keeps
  its h^2 end term at r = 0.  Gregory's end correction of order 7 (Davis &
  Rabinowitz, Methods of Numerical Integration) removes it.

Acceptance criterion 3 checks the Gaussian mass and moments of the rule at
N = 1, 2 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from .errors import ConfigurationError, ContractViolation, NumericError

# Gregory's order-7 end correction as node weights: h * _GREGORY[j] is added
# to the trapezoid weight of node j.  The coefficients sum to zero.
_GREGORY = np.array([
    -3383 / 17280, 6961 / 15120, -66109 / 120960, 33 / 70,
    -31523 / 120960, 1247 / 15120, -275 / 24192,
])


def gaussian_mass(N: int) -> float:
    """int_{R^N} e^(-|y|^2/4) dy = (4 pi)^(N/2)."""
    return float((4.0 * np.pi) ** (N / 2.0))


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    return float(2.0 * np.pi ** (N / 2.0) / gamma(N / 2.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating int g(y) rho(y) dy.

    On a line grid the nodes are signed coordinates; on a radial grid they
    are radii r >= 0 and the weights absorb the surface factor
    omega_{N-1} r^(N-1).
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray


def rule_for_grid(nodes: np.ndarray, N: int, geometry: str) -> QuadratureRule:
    """Grid-coincident rule: rho-weighted trapezoid on the given uniform nodes,
    with Gregory's end correction at r = 0 on radial grids of even N.

    The origin node of an N >= 2 radial grid receives weight zero (the
    measure vanishes there), and no weight is negative.
    """
    nodes = np.asarray(nodes, dtype=float)
    h = nodes[1] - nodes[0]
    w = np.full(nodes.shape, h)
    w[0] = w[-1] = h / 2.0
    if geometry == "line":
        weights = w * np.exp(-nodes * nodes / 4.0)
    elif geometry == "radial":
        if N % 2 == 0:
            if nodes.size <= _GREGORY.size:
                raise ConfigurationError(
                    f"rule_for_grid: a radial grid of even N needs more than "
                    f"{_GREGORY.size} nodes, got {nodes.size}"
                )
            w[: _GREGORY.size] += h * _GREGORY
        weights = w * sphere_area(N) * nodes ** (N - 1) * np.exp(-nodes * nodes / 4.0)
    else:
        raise ConfigurationError(f"rule_for_grid: unknown geometry {geometry!r}")
    return QuadratureRule(dimension=N, nodes=nodes, weights=weights)


def check_same_grid(nodes: np.ndarray, other: np.ndarray, message: str) -> None:
    """Raise ContractViolation(message) unless other is nodes, or the same
    grid to np.allclose."""
    if nodes is not other and (
        nodes.shape != other.shape or not np.allclose(nodes, other)
    ):
        raise ContractViolation(message)


def integrate(rule: QuadratureRule, g):
    """Sum w_i g_i over g sampled on the nodes, or the array of the rows'
    sums over a (rows, n) stack of such samples.

    A non-finite sample is a NumericError naming its node (and, in a stack,
    the first row that has one).  It always makes the sum non-finite (a zero
    weight included: 0 * inf is NaN, and the weights are never negative), so
    the samples are searched only when a sum is not finite.  A sum that
    overflows from finite samples is returned as it is, with numpy's
    overflow warning.

    Each sum is np.vdot, the same BLAS dot product as np.dot, bit for bit,
    but without numpy's floating-point checks, so the common finite case
    needs no error state; the overflow path reruns np.dot for its warning.
    A stack is summed one row at a time, so each row's sum is that of the
    row alone (weights @ stack sums by dgemv, in another order).
    """
    values = np.asarray(g, dtype=float)
    if values.shape[-1:] != rule.nodes.shape or values.ndim > 2:
        raise ContractViolation(
            f"integrate: sample shape {values.shape} does not match rule nodes "
            f"{rule.nodes.shape}"
        )
    rows = values if values.ndim == 2 else values[None]
    totals = [float(np.vdot(rule.weights, row)) for row in rows]
    if not math.isfinite(sum(totals)):  # or finite sums whose total overflows
        bad = ~np.isfinite(rows)
        if bad.any():
            r, i = divmod(int(np.argmax(bad)), rows.shape[1])
            where = f" of row {r}" if values.ndim == 2 else ""
            raise NumericError(
                f"integrate: non-finite sample at node {rule.nodes[i]:.6g} "
                f"(index {i}){where}"
            )
        with np.errstate(invalid="ignore"):  # inf - inf after the overflow
            totals = [float(np.dot(rule.weights, row)) for row in rows]
    return totals[0] if values.ndim == 1 else np.array(totals)
