"""Method-of-lines solver for  du/dt = Lap(u) + f(u)  on a truncated domain,
stepped by imex.imex_step with the reaction f(u) as the explicit term.

run_to_blowup chooses each dt by error control: the gap between imex_step's
first-order predictor and its second-order result estimates the local error,
and a PI controller accepts or rejects each step and proposes the next dt.
dt never exceeds a fixed fraction of the reaction timescale M/f(M) with
M = max|u|, so the singularity is approached geometrically and the remaining
time is recovered from the ODE quadrature.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np

from .core_math import LOG_U_SWITCH, Params, eval_f
from .errors import ConfigurationError, DomainError, NumericError
from .imex import Operator, imex_step
from .ode_blowup import time_to_blowup


@dataclass(frozen=True, kw_only=True)
class Field:
    """A scalar field sampled on a uniform mesh: a line (N = 1) or the
    radial half-line r >= 0 in N = params.N dimensions.

    The public constructor checks the grid and the values; _stepped, the
    constructor a step uses, checks nothing again.  What is derived from
    the grid alone (operator, and SimField's rule) is built on first use
    and inherited by every field stepped from this one.  sup, max|values|,
    is the step's own reduction on a stepped field and is computed on first
    read on any other.
    """

    geometry: str  # "line" or "radial"
    nodes: np.ndarray
    values: np.ndarray
    params: Params

    _DRIFT = False  # whether the frame's operator carries -(y/2).grad

    def __post_init__(self) -> None:
        if self.geometry not in ("line", "radial"):
            self._refuse(f"unknown geometry {self.geometry!r}")
        if self.geometry == "line" and self.params.N != 1:
            self._refuse("line geometry requires N = 1")
        if self.nodes.size < 64:
            self._refuse(f"node count must be >= 64, got {self.nodes.size}")
        if self.values.shape != self.nodes.shape:
            self._refuse("values/nodes shape mismatch")
        diffs = np.diff(self.nodes)
        h = diffs[0]
        if not (h > 0.0 and np.max(np.abs(diffs - h)) <= 1e-9 * h):
            self._refuse("nodes must be uniform and increasing")
        if self.geometry == "radial" and self.nodes[0] != 0.0:
            self._refuse(f"radial nodes must start at r = 0, got {self.nodes[0]}")
        if not np.isfinite(self.values).all():
            self._refuse("non-finite values")

    def _refuse(self, reason: str) -> NoReturn:
        raise ConfigurationError(f"{type(self).__name__}: {reason}")

    def _stepped(self, values: np.ndarray, sup: float | None = None, **clock: float):
        """This field's grid with a step's values at the step's later time
        (time= or s=).  The grid was checked when this field was built,
        imex_step has checked the values for finiteness, a step keeps their
        shape and only advances the clock: what the constructor checked
        still holds.  Copying __dict__ also hands over the grid's operator
        and rule once built.  sup is max|values| when the caller has it (a
        step does); without it this field's cached sup, which belongs to
        other values, is dropped and computed again on first read."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, values=values, sup=sup, **clock)
        if sup is None:
            del out.__dict__["sup"]
        return out

    @cached_property
    def sup(self) -> float:
        """max|values|."""
        return float(np.max(np.abs(self.values)))

    @cached_property
    def operator(self) -> Operator:
        """The implicit operator of this grid and frame."""
        return Operator(self.nodes, self.geometry, self.params.N, self._DRIFT)

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    @property
    def radius(self) -> float:
        return float(abs(self.nodes[-1]))


@dataclass(frozen=True, kw_only=True)
class GridField(Field):
    """A field of the physical frame at time t."""

    time: float


@dataclass
class PhysicalRunResult:
    """Outcome of a run toward blow-up."""

    field: GridField
    sup_history: np.ndarray  # rows (t, max|u|), one per accepted step
    dts: np.ndarray  # the dt of every accepted step
    limits: np.ndarray  # what set each accepted dt: one of STEP_LIMITS
    rejected: int  # attempts whose error estimate exceeded the tolerance
    T_hat: float | None
    x0_hat: float | None
    status: str  # "blown_up" or "no_blowup"
    halt: str  # "m_stop", "t_resolution" (t + dt == t) or "t_max"
    time_stepping: float = 0.0  # wall seconds in step, rejected attempts included


def step(field_in: GridField, dt: float) -> tuple[GridField, float]:
    """One imex_step of size dt with the reaction f(u) as the explicit term.

    Returns the new field, with its sup, and max|u_new - u*|, the gap to
    the step's first-order predictor: an estimate of the local error,
    O(dt^2).  Raises BlowupOvershootError if the step produces non-finite
    values.
    """
    if not (dt > 0.0):
        raise DomainError(f"step: dt must be positive, got {dt}")
    params = field_in.params
    u_new, u_max, u_star = imex_step(
        field_in.operator, field_in.values, field_in.sup, field_in.time, dt,
        lambda t, u, abs_max: eval_f(u, params, abs_max),
    )
    # the gap in u*'s buffer, which nothing reads after the step; u* - u_new
    # is -(u_new - u*) to the bit, and its max is read as imex_step reads one
    gap = u_star
    gap -= u_new
    np.abs(gap, out=gap)
    return field_in._stepped(u_new, u_max, time=field_in.time + dt), gap.item(gap.argmax())


# What set an accepted step's dt: the reaction-timescale cap, the error
# controller's proposal, or the bound on growth (or the first attempt).
STEP_LIMITS = ("reaction_capped", "error_limited", "growth_limited")

# Step-size control on an error estimate of order dt^2 (Hairer, Norsett and
# Wanner, Solving ODEs I, II.4, with Gustafsson's PI form): _FAC shrinks each
# proposal below the one that would just meet the tolerance, dt grows at most
# _GROWTH_MAX-fold and shrinks at most to _SHRINK_MIN of itself per attempt,
# and an err/tol below _RATIO_FLOOR (a field that barely changes) counts as
# _RATIO_FLOOR.
_FAC = 0.9
_GROWTH_MAX = 2.0
_SHRINK_MIN = 0.2
_RATIO_FLOOR = 1e-8

# run_to_blowup's budget of attempts.  The cap safety M/f(M) lets log M grow
# by about safety a step, so runs take a multiple of 1/safety steps (the
# default runs take 446-766).  It is spent, not predicted: t_max and
# t + dt == t can end a run long before M climbs to M_stop.
_MAX_ATTEMPTS = 100_000


def _reaction_timescale(M: float, params: Params) -> float:
    """M / f(M) for M > 0, in Python floats: the same formula as eval_f,
    with its log's switch at log M = LOG_U_SWITCH, without the per-call
    numpy overhead of a 0-d array.  Above the switch 2 log M is
    logaddexp(2 log M, log 2) to the last bit.  An f(M) beyond float64
    (where Python's ** raises OverflowError and numpy returns inf) gives 0,
    and an f(M) that underflows to 0 gives inf."""
    p, a = params.p, params.a
    try:
        f = M ** (p - 1.0) * M
        if a != 0.0:
            log_m = math.log(M)
            ell = math.log(2.0 + M * M) if log_m <= LOG_U_SWITCH else 2.0 * log_m
            f *= ell**a
    except OverflowError:
        return 0.0
    return M / f if f > 0.0 else math.inf


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


# run_to_blowup's defaults, which the CLI's solver.m_stop, t_max and
# dt_safety take as theirs.
DEFAULT_M_STOP = 1e8
DEFAULT_T_MAX = 10.0
DEFAULT_SAFETY = 0.05


def run_to_blowup(
    u0: GridField,
    M_stop: float = DEFAULT_M_STOP,
    t_max: float = DEFAULT_T_MAX,
    safety: float = DEFAULT_SAFETY,
) -> PhysicalRunResult:
    """Advance the field until max|u| >= M_stop, until the next dt falls
    below float resolution in t (t + dt == t, which only the approach to
    blow-up brings about), or until the time budget runs out.

    Each step is error-controlled.  With M = max|u| at the step's start, an
    attempt is accepted when step's error estimate is at most
    tol = safety^2/2 max(M, 1), and rejected and retried with a smaller dt
    otherwise.  After an accepted step a PI rule proposes the next dt,
    growing it at most _GROWTH_MAX-fold (not at all right after a
    rejection), and dt never exceeds safety M/f(M), the reaction timescale
    that dominates near blow-up.  The first attempt takes
    safety min(h^2, M/f(M)).  A run that makes _MAX_ATTEMPTS attempts
    without halting is a NumericError.  On blow-up
    T_hat = t_halt + time_to_blowup(max|u|), the ODE extrapolation of the
    remaining time.  p, a and N are those of u0.params.  safety must lie
    in (0, 1): from 1 up a step may span the whole reaction timescale, and
    T_hat drifts (+7 % at 1) until the verdict itself is wrong.
    """
    if not M_stop >= 1e6:
        raise ConfigurationError(f"run_to_blowup: M_stop must be >= 1e6, got {M_stop}")
    if not 0.0 < safety < 1.0:
        raise ConfigurationError(
            f"run_to_blowup: safety must be positive and below 1, got {safety}"
        )
    tol_scale = 0.5 * safety**2  # tol = tol_scale max(M, 1)
    if tol_scale == 0.0:
        raise ConfigurationError(
            f"run_to_blowup: safety {safety} makes the tolerance safety^2/2 underflow to 0"
        )
    params = u0.params
    field_now = u0
    M = u0.sup
    history = [(u0.time, M)]
    dts, limits = [], []
    rejected = 0
    t_step = 0.0
    dt, limit = safety * u0.spacing**2, "growth_limited"
    ratio_prev = 1.0  # err/tol of the last accepted step
    grow_max = _GROWTH_MAX
    while True:
        if M >= M_stop:
            status, halt = "blown_up", "m_stop"
            break
        if field_now.time >= t_max:
            status, halt = "no_blowup", "t_max"
            break
        cap = safety * _reaction_timescale(M, params) if M > 0.0 else math.inf
        if dt >= cap:
            dt, limit = cap, "reaction_capped"
        if field_now.time + dt == field_now.time:
            status, halt = "blown_up", "t_resolution"
            break
        if len(dts) + rejected == _MAX_ATTEMPTS:
            raise NumericError(f"run_to_blowup: no halt after {_MAX_ATTEMPTS} attempts, "
                               f"at t = {field_now.time:.17g}, M = {M:.6g}")
        t0 = time.perf_counter()
        trial, err = step(field_now, dt)
        t_step += time.perf_counter() - t0
        ratio = err / (tol_scale * max(M, 1.0))
        if ratio > 1.0:
            rejected += 1
            dt *= max(_SHRINK_MIN, _FAC * ratio**-0.5)
            limit = "error_limited"
            grow_max = 1.0  # no growth on the step after a rejection
        else:
            field_now = trial
            M = trial.sup
            history.append((field_now.time, M))
            dts.append(dt)
            limits.append(limit)
            # PI rule: err ~ dt^2, so the exponents are 0.7/2 and 0.4/2
            ratio = max(ratio, _RATIO_FLOOR)
            grow = _FAC * ratio**-0.35 * ratio_prev**0.2
            if grow >= grow_max:
                grow, limit = grow_max, "growth_limited"
            else:
                limit = "error_limited"
            dt *= max(grow, _SHRINK_MIN)
            ratio_prev, grow_max = ratio, _GROWTH_MAX

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
        limits=np.asarray(limits, dtype=str),
        rejected=rejected,
        T_hat=T_hat,
        x0_hat=x0_hat,
        status=status,
        halt=halt,
        time_stepping=t_step,
    )
