"""Solver for the similarity-frame equation and the frame change itself.

With y = (x - x0)/sqrt(T - t), s = -log(T - t), u = psi_T(t) w(y, s), the
field w obeys

    dw/ds = Lap w - (y/2).grad w - (1/(p-1)) (1 - a/s) w + source(s, w),

where the source is the cancellation form of e^(-ps/(p-1)) s^(a/(p-1))
f(phi(s) w).  step_w advances it by imex.imex_step.  The linear part
Lap - (y/2).grad, the Ornstein-Uhlenbeck operator with eigenvalues -m/2, is
implicit in imex's factored matrix, so no CFL bound limits ds; the linear
term in w and the source are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core_math import Params, psi_T, rescaled_nonlinearity
from .errors import (
    BlowupOvershootError,
    ContractViolation,
    DomainError,
    TruncationError,
)
from .imex import imex_step
from .physical_solver import Field, GridField
from .quadrature import (
    QuadratureRule,
    cubic_spline,
    integrate,
    rule_for_grid,
)


@dataclass(frozen=True, kw_only=True)
class SimField(Field):
    """A field w of the similarity frame, on a y-grid (line) or an r-grid
    (radial), at rescaled time s >= 1.  Its operator carries the drift.

    A block of a run's steps is a SimField too, built by _stepped: its
    values are a (rows, n) stack of the steps' fields and its s the (rows,)
    array of their s.  functionals.snapshot, ds_dissipation and rescaled_F
    take a block whole, row by row as they would take each field alone.
    """

    s: float

    _DRIFT = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (1.0 <= self.s < np.inf):  # also rejects NaN
            raise DomainError(f"SimField requires a finite s >= 1, got {self.s}")

    @cached_property
    def rule(self) -> QuadratureRule:
        """The rho-weighted quadrature rule of this grid."""
        return rule_for_grid(self.nodes, self.params.N, self.geometry)


def to_similarity(
    u: GridField,
    x0: float,
    T: float,
    target_nodes: np.ndarray,
) -> SimField:
    """Transform a physical field into the similarity frame centred at (x0, T),
    with u's geometry and params.

    w(y) = u(x0 + y sqrt(T - t)) / psi_T(t), with u between its nodes read
    from quadrature.cubic_spline, the not-a-knot cubic spline; raises
    TruncationError if the unscaled grid leaves the physical domain, and
    DomainError for a radial u unless x0 = 0, the only blow-up point a
    radial field has.
    """
    if u.geometry == "radial" and x0 != 0.0:
        raise DomainError(f"to_similarity: a radial field needs x0 = 0, got {x0}")
    if not (u.time < T):
        raise DomainError(f"to_similarity requires u.time < T, got {u.time} >= {T}")
    if T - u.time >= 1.0:
        raise DomainError(f"to_similarity requires T - t < 1, got {T - u.time}")
    scale = np.sqrt(T - u.time)
    x_needed = x0 + np.asarray(target_nodes) * scale
    pad = 1e-12 * (u.nodes[-1] - u.nodes[0])
    if x_needed.min() < u.nodes[0] - pad or x_needed.max() > u.nodes[-1] + pad:
        raise TruncationError(
            "to_similarity: target y-grid maps outside the physical domain "
            f"([{x_needed.min():.4g}, {x_needed.max():.4g}] vs "
            f"[{u.nodes[0]:.4g}, {u.nodes[-1]:.4g}])"
        )
    w = cubic_spline(u.nodes, u.values, np.clip(x_needed, u.nodes[0], u.nodes[-1]))
    w /= psi_T(u.time, T, u.params)
    return SimField(
        geometry=u.geometry,
        nodes=np.asarray(target_nodes, dtype=float),
        values=w,
        s=float(-np.log(T - u.time)),
        params=u.params,
    )


def _explicit_terms(params: Params, s: float, w: np.ndarray, abs_max) -> np.ndarray:
    linear = -(1.0 / (params.p - 1.0)) * (1.0 - params.a / s) * w
    linear += rescaled_nonlinearity(s, w, params, abs_max)
    return linear


def step_w(field_in: SimField, ds: float) -> SimField:
    """One imex_step of the similarity-frame equation: Lap - (y/2).grad
    implicit, the linear and source terms explicit.

    No CFL bound limits ds, since the drift is implicit.  Raises DomainError
    unless ds > 0, and BlowupOvershootError, naming s, on non-finite values.
    The new field carries its sup, the step's own max|w|.
    """
    if not (ds > 0.0):
        raise DomainError(f"step_w: ds must be positive, got {ds}")
    params = field_in.params
    explicit = partial(_explicit_terms, params)
    try:
        w_new, w_max, _ = imex_step(
            field_in.operator, field_in.values, field_in.sup, field_in.s, ds, explicit
        )
    except BlowupOvershootError as exc:
        raise BlowupOvershootError(
            f"step_w: w blew up in the step from s={field_in.s} to s={field_in.s + ds}"
        ) from exc
    return field_in._stepped(w_new, w_max, s=field_in.s + ds)


def ds_dissipation(before: SimField, after: SimField):
    """Discrete dissipation density int ((w_after - w_before)/ds)^2 rho dy,
    or its rows for two blocks of as many rows."""
    gap = np.subtract(after.s, before.s)
    if not (gap > 0.0).all():
        raise ContractViolation("ds_dissipation: after.s must exceed before.s")
    y, y_after = before.nodes, after.nodes
    if y is not y_after and (y.shape != y_after.shape or not np.allclose(y, y_after)):
        raise ContractViolation("ds_dissipation: grid mismatch between fields")
    rate = (after.values - before.values) / gap[..., None]
    return integrate(before.rule, rate * rate)


# The similarity step every caller defaults to: the CLI's solver.ds, the
# separatrix tuner, the audit corpus and criterion 8.  Only accuracy limits
# ds, and at 1/50 the time error of the corpus runs stays below the spatial
# error of the 401-node grid at every unit boundary (a test checks this).
DEFAULT_DS = 1.0 / 50


def cfl_step(nodes: np.ndarray, ds_requested: float) -> float:
    """Largest step <= ds_requested that divides 1 exactly, so runs land on
    unit-s boundaries.  Raises DomainError unless ds_requested is finite and
    positive, with a finite 1/ds_requested.

    The name and the nodes argument are those of the time when the explicit
    drift's CFL bound on the grid capped the step as well; the benchmark's
    perfbench/workloads.py calls cfl_step(nodes, ds) to count a run's steps.
    """
    if not (0.0 < ds_requested < np.inf):
        raise DomainError(f"cfl_step: ds must be finite and positive, got {ds_requested}")
    per_unit = np.ceil(1.0 / ds_requested)
    if per_unit == np.inf:
        raise DomainError(f"cfl_step: ds = {ds_requested:g} makes 1/ds overflow float64")
    return 1.0 / int(per_unit)
