"""Method-of-lines solver for  du/dt = Lap(u) + f(u)  on a truncated domain,
stepped by imex.imex_step with the reaction f(u) as the explicit term.

Near blow-up the step controller follows the reaction timescale M/f(M) with
M = max|u|, so the singularity is approached geometrically and the remaining
time is recovered from the ODE quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_math import Params, eval_f
from .errors import ConfigurationError, DomainError
from .imex import imex_step
from .ode_blowup import time_to_blowup


@dataclass(frozen=True)
class GridField:
    """A scalar field sampled on a uniform 1D or radial mesh at one time."""

    geometry: str  # "line" or "radial"
    dimension: int
    nodes: np.ndarray
    values: np.ndarray
    time: float

    def __post_init__(self) -> None:
        if self.geometry not in ("line", "radial"):
            raise ConfigurationError(f"GridField: unknown geometry {self.geometry!r}")
        if self.geometry == "line" and self.dimension != 1:
            raise ConfigurationError("GridField: line geometry requires N = 1")
        if self.nodes.size < 64:
            raise ConfigurationError(
                f"GridField: node count must be >= 64, got {self.nodes.size}"
            )
        if self.values.shape != self.nodes.shape:
            raise ConfigurationError("GridField: values/nodes shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("GridField: non-finite values")

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])


@dataclass
class PhysicalRunResult:
    """Outcome of a run toward blow-up."""

    field: GridField
    sup_history: np.ndarray  # rows (t, max|u|)
    dts: np.ndarray  # the dt of every step; near blow-up it falls below ulp(t)
    T_hat: float | None
    x0_hat: float | None
    status: str  # "blown_up" or "no_blowup"
    dt_last: float = field(default=0.0)


def step(field_in: GridField, params: Params, dt: float) -> GridField:
    """One imex_step of size dt with the reaction f(u) as the explicit term.

    Raises BlowupOvershootError if the step produces non-finite values.
    """
    if not (dt > 0.0):
        raise DomainError(f"step: dt must be positive, got {dt}")
    u_new = imex_step(
        field_in.nodes,
        field_in.geometry,
        field_in.dimension,
        field_in.values,
        field_in.time,
        dt,
        lambda t, u: eval_f(u, params),
    )
    return GridField(
        geometry=field_in.geometry,
        dimension=field_in.dimension,
        nodes=field_in.nodes,
        values=u_new,
        time=field_in.time + dt,
    )


def _parabolic_argmax(nodes: np.ndarray, values: np.ndarray) -> float:
    i = int(np.argmax(np.abs(values)))
    if i == 0 or i == values.size - 1:
        return float(nodes[i])
    a, b, c = np.abs(values[i - 1]), np.abs(values[i]), np.abs(values[i + 1])
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return float(nodes[i])
    h = nodes[1] - nodes[0]
    return float(nodes[i] + 0.5 * h * (a - c) / denom)


def run_to_blowup(
    u0: GridField,
    params: Params,
    M_stop: float = 1e8,
    t_max: float = 10.0,
    safety: float = 0.05,
) -> PhysicalRunResult:
    """Advance the field until max|u| >= M_stop or the time budget runs out.

    dt = safety * min(h^2, M/f(M)); the second argument is the reaction
    timescale that dominates near blow-up.  On success
    T_hat = t_halt + time_to_blowup(max|u|), the ODE extrapolation of the
    remaining time.
    """
    if M_stop < 1e6:
        raise ConfigurationError(f"run_to_blowup: M_stop must be >= 1e6, got {M_stop}")
    field_now = u0
    h2 = u0.spacing ** 2
    history = [(u0.time, float(np.max(np.abs(u0.values))))]
    dts = []
    dt = safety * h2
    while True:
        M = history[-1][1]
        if M >= M_stop:
            status = "blown_up"
            break
        if field_now.time >= t_max:
            status = "no_blowup"
            break
        if M > 0.0:
            ode_scale = M / abs(eval_f(M, params))
            dt = safety * min(h2, ode_scale)
        else:
            dt = safety * h2
        field_now = step(field_now, params, dt)
        dts.append(dt)
        history.append((field_now.time, float(np.max(np.abs(field_now.values)))))

    sup_history = np.asarray(history)
    if status == "blown_up":
        M_halt = sup_history[-1, 1]
        # the remaining time can fall below one ulp of t_halt; keep the
        # estimate strictly beyond the last recorded time
        T_hat = max(
            field_now.time + time_to_blowup(M_halt, params),
            float(np.nextafter(field_now.time, np.inf)),
        )
        x0_hat = _parabolic_argmax(field_now.nodes, field_now.values)
    else:
        T_hat = None
        x0_hat = None
    return PhysicalRunResult(
        field=field_now,
        sup_history=sup_history,
        dts=np.asarray(dts),
        T_hat=T_hat,
        x0_hat=x0_hat,
        status=status,
        dt_last=dt,
    )
