"""Rate extraction, profile comparison, Lyapunov auditing, and run orchestration."""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .core_math import Params, kappa_a
from .errors import (
    BlowupOvershootError,
    DomainError,
    FitError,
    NumericError,
    ResolutionError,
)
from .functionals import FunctionalConfig, FunctionalSnapshot, snapshot
from .quadrature import cubic_spline
from .similarity_solver import DEFAULT_DS, SimField, cfl_step, ds_dissipation, step_w

# fit_rate takes the last _FIT_WINDOW_FRACTION of the samples whose remaining
# time T_hat - t lies in _FIT_TAU_WINDOW, and needs _FIT_MIN_SAMPLES of them.
_FIT_WINDOW_FRACTION = 0.6
_FIT_TAU_WINDOW = (1e-7, 1e-2)
_FIT_MIN_SAMPLES = 50


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponents against M(t) ~ kappa (T-t)^(-alpha) (-log(T-t))^(-beta)."""

    alpha_hat: float
    beta_hat: float
    log_kappa_hat: float
    residual: float
    window: tuple[float, float]  # (s_lo, s_hi) actually used

    def report(self) -> dict:
        """The fit as a report entry, its window under the key window_s."""
        out = asdict(self)
        out["window_s"] = out.pop("window")
        return out


@dataclass(frozen=True)
class ProfileReport:
    """Sup-norm distance to the self-similar profile over |z| <= z_max."""

    s: float
    sup_error: float


def fit_rate(sup_history: np.ndarray, T_hat: float) -> RateFit:
    """Fit log M = -alpha log(T_hat - t) - beta log(-log(T_hat - t)) + log kappa.

    Uses the last _FIT_WINDOW_FRACTION of the samples whose remaining time
    T_hat - t lies inside _FIT_TAU_WINDOW; samples at or beyond T_hat fall
    outside it (the final step of a run can saturate float resolution in t).
    Raises FitError for short or degenerate windows.
    """
    if not math.isfinite(T_hat):
        raise DomainError(f"fit_rate: T_hat must be finite, got {T_hat}")
    hist = np.asarray(sup_history, dtype=float)
    t, M = hist[:, 0], hist[:, 1]
    if T_hat <= float(t.min()):
        raise DomainError("fit_rate: T_hat precedes every sample")
    tau = T_hat - t
    keep = (tau >= _FIT_TAU_WINDOW[0]) & (tau <= _FIT_TAU_WINDOW[1]) & (M > 0.0)
    idx = np.flatnonzero(keep)
    if idx.size:
        idx = idx[int(idx.size * (1.0 - _FIT_WINDOW_FRACTION)) :]
    if idx.size < _FIT_MIN_SAMPLES:
        raise FitError(
            f"fit_rate: only {idx.size} samples in the window, "
            f"need >= {_FIT_MIN_SAMPLES}"
        )
    tau = tau[idx]
    s = -np.log(tau)
    X = np.column_stack([-np.log(tau), -np.log(s), np.ones_like(tau)])
    y = np.log(M[idx])
    if np.linalg.cond(X) > 1e10:
        raise FitError("fit_rate: collinear design (window too narrow in log(T-t))")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.sqrt(np.mean((X @ coef - y) ** 2)))
    return RateFit(
        alpha_hat=float(coef[0]),
        beta_hat=float(coef[1]),
        log_kappa_hat=float(coef[2]),
        residual=resid,
        window=(float(s.min()), float(s.max())),
    )


def profile_error(field: SimField, z_max: float) -> ProfileReport:
    """Sup over |z| <= z_max of |w(z sqrt(s)) / kappa_a - (1 + (p-1) z^2 / (4p))^(-1/(p-1))|,
    with w between the nodes read from quadrature.cubic_spline."""
    s = field.s
    if s < 4.0:
        raise DomainError(f"profile_error requires s >= 4, got {s}")
    if z_max * np.sqrt(s) > field.radius + 1e-12:
        raise DomainError(
            f"profile_error: z_max={z_max} needs z_max <= R_max/sqrt(s) = "
            f"{field.radius / np.sqrt(s):.4g}"
        )
    span = z_max * np.sqrt(s)
    n_inside = int(np.sum(np.abs(field.nodes) <= span))
    if n_inside < 16:
        raise ResolutionError(
            f"profile_error: only {n_inside} grid nodes resolve |z| <= {z_max}"
        )
    p = field.params.p
    if field.geometry == "line":
        z = np.linspace(-z_max, z_max, 513)
    else:
        z = np.linspace(0.0, z_max, 257)
    w = cubic_spline(field.nodes, field.values, z * np.sqrt(s))
    target = (1.0 + (p - 1.0) * z * z / (4.0 * p)) ** (-1.0 / (p - 1.0))
    err = float(np.max(np.abs(w / kappa_a(field.params) - target)))
    return ProfileReport(s=float(s), sup_error=err)


@dataclass
class LyapunovReport:
    """lyapunov_audit's signed measures, each against its bound."""

    decrement: list[float]  # per unit
    unit_rise: list[float]  # per unit
    step_rise: float
    step_rise_s: float
    passed: bool


# lyapunov_audit's tolerances: per unit interval _AUDIT_TOL_SCALE (1 + |L|),
# and _AUDIT_STEP_TOL for a rise of L over one unit or one step.
_AUDIT_TOL_SCALE = 1e-3
_AUDIT_STEP_TOL = 1e-6


def lyapunov_audit(
    snapshots: list[FunctionalSnapshot],
    dissipation: np.ndarray,
    step_L: np.ndarray,
) -> LyapunovReport:
    """Each inequality L must meet along a run, as a signed measure.

    On the unit-s snapshots, with dissipation[k] the discrete int int (ds w)^2
    rho over [s_k, s_k + 1] and tol = _AUDIT_TOL_SCALE (1 + |L(s_k)|), unit k
    has decrement L(s_k+1) - L(s_k) - (-dissipation[k]/2 + tol), held at <= 0,
    and unit_rise L(s_k+1) - L(s_k), held at <= _AUDIT_STEP_TOL.  step_rise,
    the largest step-to-step change of step_L (which spans the snapshots at a
    uniform step), is held at <= _AUDIT_STEP_TOL and placed at step_rise_s,
    the s where L rose.  A failed inequality is report content, not an error.
    """
    if len(snapshots) < 4:
        raise DomainError("lyapunov_audit: ledger must span >= 3 units of s")
    if len(dissipation) != len(snapshots) - 1 or len(step_L) < len(snapshots):
        raise DomainError("lyapunov_audit: need one dissipation entry per interval "
                          "and a step_L that spans the snapshots")
    L = np.array([sn.L for sn in snapshots])
    rise = np.diff(L)
    tol = _AUDIT_TOL_SCALE * (1.0 + np.abs(L[:-1]))
    decrement = rise - (-0.5 * np.asarray(dissipation, dtype=float) + tol)
    steps = np.diff(np.asarray(step_L, dtype=float))
    k = int(np.argmax(steps))
    s0, s_last = snapshots[0].s, snapshots[-1].s
    return LyapunovReport(
        decrement=decrement.tolist(),
        unit_rise=rise.tolist(),
        step_rise=float(steps[k]),
        step_rise_s=float(s0 + (k + 1) * (s_last - s0) / (len(step_L) - 1)),
        passed=bool(decrement.max() <= 0.0 and rise.max() <= _AUDIT_STEP_TOL
                    and steps[k] <= _AUDIT_STEP_TOL),
    )


# The tuner brackets its multiplier in [0.5, 1.6] and stops once the bracket
# is _SEPARATRIX_XTOL wide.  _SEPARATRIX_MAX_PROBES is a budget of three probes
# per halving of the bracket down to that width; on the audit pairs and the
# benchmark data the tuner takes 10 to 13.
_SEPARATRIX_BRACKET = (0.5, 1.6)
_SEPARATRIX_XTOL = 1e-10
_SEPARATRIX_MAX_PROBES = 2 + 3 * math.ceil(
    math.log2((_SEPARATRIX_BRACKET[1] - _SEPARATRIX_BRACKET[0]) / _SEPARATRIX_XTOL)
)
# Each probe runs to s_end + _PROBE_MARGIN.  The m=0 mode grows like
# e^(s - s0), so the margin sets how far past s_end a datum near the
# separatrix is followed, and how deep the tuning goes: 10 confirms lambda to
# about e^-20.  At 10 both audit pairs keep the bits they had at 14
# (1.095659015913808 and 1.4413467196168306), and a separatrix op takes about
# a quarter fewer steps; at 9 the (3,1) lambda moves by 1.6e-9, at 8 both
# move, by 1.6e-9 and 5.4e-9.
_PROBE_MARGIN = 10.0


def _separatrix_root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of an increasing signal g on [lo, hi] that is linear on each side
    of its root, with a different slope on each side.

    Each probe is the secant through the two probes nearest the root on one
    side, so the slope of each side comes from its own probes.  The g > 0
    side goes first: for the tuner that is the blow-up side, where the signal
    is linear to within the step resolution.  When neither secant lands
    strictly inside the bracket, the probe is regula falsi across it, else
    its midpoint.  As in Brent's method, no probe lands closer than
    _SEPARATRIX_XTOL/2 to the bracket end with the smaller |g|, so a root that
    close is crossed by the next probe.

    Progress is judged as in Brent's method too, by the step size against the
    step before last.  A probe's step is how far it moves the bracket end it
    replaces; a step not under half the step before last is a miss, and two
    misses in a row force a bisection.  So a one-sided secant that converges
    runs on while the other end of the bracket stays put.  g(x) == 0 returns
    x at once; otherwise the result is the midpoint of the first bracket at
    most _SEPARATRIX_XTOL wide.  Raises NumericError unless g(lo) < 0 < g(hi),
    and past _SEPARATRIX_MAX_PROBES.
    """
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo < 0.0 < g_hi):
        raise NumericError(
            f"tune_blowup_amplitude: bracket [{lo}, {hi}] does not straddle the "
            f"separatrix (signals {g_lo:.3g}, {g_hi:.3g})"
        )
    above, below = [(hi, g_hi)], [(lo, g_lo)]
    # the step before last and the last step start at the bracket width
    before = last = hi - lo
    misses, n_probes = 0, 2
    while hi - lo > _SEPARATRIX_XTOL:
        if n_probes == _SEPARATRIX_MAX_PROBES:
            raise NumericError(
                f"tune_blowup_amplitude: bracket still {hi - lo:.3g} wide after "
                f"{n_probes} probes"
            )
        forced = misses == 2
        candidates = []
        if not forced:
            for pts in (above, below):
                if len(pts) > 1 and pts[-2][1] != pts[-1][1]:
                    (x1, g1), (x2, g2) = pts[-2:]
                    candidates.append(x2 - g2 * (x2 - x1) / (g2 - g1))
            candidates.append(lo - g_lo * (hi - lo) / (g_hi - g_lo))
        x = next((c for c in candidates if lo < c < hi), 0.5 * (lo + hi))
        best = lo if -g_lo < g_hi else hi
        if abs(x - best) < 0.5 * _SEPARATRIX_XTOL:
            x = best + math.copysign(0.5 * _SEPARATRIX_XTOL, 0.5 * (lo + hi) - best)
        gx = g(x)
        n_probes += 1
        if gx == 0.0:
            return x
        if gx > 0.0:
            step = hi - x
            hi, g_hi = x, gx
            above.append((x, gx))
        else:
            step = x - lo
            lo, g_lo = x, gx
            below.append((x, gx))
        misses = 0 if forced or step < 0.5 * before else misses + 1
        before, last = (step, step) if forced else (last, step)
    return 0.5 * (lo + hi)


def tune_blowup_amplitude(
    shape: np.ndarray,
    nodes: np.ndarray,
    s0: float,
    s_end: float,
    params: Params,
    probes: list | None = None,
) -> float:
    """The amplitude multiplier that keeps lam * shape, sampled on the line
    grid nodes, on the blow-up separatrix of the similarity flow up to s_end
    at the step DEFAULT_DS.

    The constant-amplitude equilibrium has unstable directions (shifting the
    blow-up time or point of the underlying physical solution), so an
    untuned datum either quenches to zero or blows up in finite s.  A probe
    classifies an amplitude by whether max|w| crosses 2.5 kappa_a (blow-up,
    class +1) or falls below 0.4 kappa_a (quench, class -1), at its escape
    step k, at s_esc = s0 + k ds.  The m=0 mode grows like e^(s - s0), so a
    datum off the separatrix by d escapes at k ds ~ log(C/|d|), and the
    signal class * exp(-k ds) is linear in d on each side of the separatrix;
    _separatrix_root finds its root.  A probe that stays within the
    thresholds for n = (s_end - s0 + _PROBE_MARGIN) / ds steps (class 0) is
    on the separatrix and ends the search: on the audit grid that is 1,000
    steps, to s_esc = s_end + 10.  The two audit pairs take 12 and 10 probes,
    5,296 and 4,576 steps.

    When probes is a list, one (lam, class, s_esc, k) record is appended
    per probe; this observes the search and changes no result.
    """
    kap = kappa_a(params)
    ds_eff = cfl_step(nodes, DEFAULT_DS)
    per_unit = int(round(1.0 / ds_eff))
    # Probe _PROBE_MARGIN past s_end: an off-separatrix datum may stay within
    # the thresholds over the window of interest yet already be drifting away.
    n_steps = int(round((s_end - s0 + _PROBE_MARGIN) / ds_eff))

    def escape(lam: float) -> tuple[int, int]:  # (class, k)
        w = SimField(
            geometry="line", nodes=nodes, values=lam * shape, s=s0, params=params
        )
        for k in range(1, n_steps + 1):
            try:
                w = step_w(w, ds_eff)
            except BlowupOvershootError:
                return +1, k
            peak = w.sup
            if peak > 2.5 * kap:
                return +1, k
            if peak < 0.4 * kap:
                return -1, k
        return 0, n_steps

    def signal(lam: float) -> float:
        cls, k = escape(lam)
        if probes is not None:
            probes.append((lam, cls, s0 + k / per_unit, k))
        return cls * math.exp(-k / per_unit)

    return _separatrix_root(signal, *_SEPARATRIX_BRACKET)


@dataclass
class SimilarityRun:
    """Unit-s ledger of one similarity-frame evolution."""

    fields: list[SimField]  # at unit-s boundaries, fields[0] is the initial datum
    snapshots: list[FunctionalSnapshot]
    dissipation: np.ndarray  # per unit interval
    step_s: np.ndarray
    step_L: np.ndarray
    step_mass: np.ndarray
    ds: float
    time_stepping: float = 0.0  # wall seconds in step_w
    time_functionals: float = 0.0  # wall seconds in the rest: the functional ledger


# run_similarity takes its per-step ledger in blocks: the next
# ceil(_LEDGER_BLOCK_ELEMENTS / nodes) steps, across unit boundaries, so a
# block holds about _LEDGER_BLOCK_ELEMENTS values (rows x nodes), whatever ds
# and the grid.  Each array the ledger forms from a block then stays near
# 64 KiB: at 2^14 values the benchmark's peak RSS rose by 1.1-1.4 MB, at 2^13
# by under 0.1.
_LEDGER_BLOCK_ELEMENTS = 2**13
# The largest ledger run_similarity allocates (per-step table and density,
# unit fields): at the default s_end, ds = 1e-6 (6e6 steps, 0.45 GiB) fits.
_LEDGER_MAX_BYTES = 2**30


def run_similarity(
    w0: SimField,
    s_end: float,
    ds: float,
    cfg: FunctionalConfig,
) -> SimilarityRun:
    """Evolve w from w0.s to the last whole unit of s at or before s_end,
    collecting the functional ledger.

    The run covers floor(s_end - w0.s + 1e-9) units of s, so an s_end that
    is w0.s plus an integer up to rounding counts as whole.  A NaN or
    infinite s_end, or one with no whole unit after w0.s, is a DomainError
    naming s_end.  The step is 1/m, the largest at most ds that divides a
    unit of s, and the n-th field is at w0.s + n/m, so snapshots land on
    w0.s + k.  One snapshot and one ds_dissipation call per block of steps
    (see _LEDGER_BLOCK_ELEMENTS) fill the per-step ledger, each row as it
    would be alone, so how the steps fall into blocks changes no bit; a
    unit's dissipation is the step-order running sum of ds * ds_dissipation
    over its steps.  A w that blows up ends the run in BlowupOvershootError
    naming s: in step_w, or where w is still finite but its ledger integrals
    overflow float64.  Any NumericError in a block, from step_w or the
    ledger, replays the block's completed steps in step order: the first
    whose own ledger overflows is the error, and otherwise the original
    error is re-raised.  A ledger over _LEDGER_MAX_BYTES is a DomainError
    naming ds, before any step.
    """
    if not math.isfinite(s_end):
        raise DomainError(f"run_similarity: s_end must be finite, got {s_end}")
    n_units = math.floor(s_end - w0.s + 1e-9)
    if n_units < 1:
        raise DomainError(
            f"run_similarity: s_end = {s_end:g} rounds to no whole unit of s "
            f"after w0.s = {w0.s:.6g}"
        )
    ds_eff = cfl_step(w0.nodes, ds)
    per_unit = int(round(1.0 / ds_eff))
    n_steps = n_units * per_unit
    rows = -(-_LEDGER_BLOCK_ELEMENTS // w0.nodes.size)

    t_run, t_step = time.perf_counter(), 0.0
    fields = [w0]
    # the per-step table: a row per member of FunctionalSnapshot, whose
    # columns at the unit boundaries are the snapshots; beside it the
    # ds_dissipation density of each step
    first = vars(snapshot(w0, cfg))
    size = 8 * (len(first) * (n_steps + 1) + n_steps + (n_units + 1) * w0.nodes.size)
    if size > _LEDGER_MAX_BYTES:
        raise DomainError(
            f"run_similarity: ds = {ds:g} takes {n_steps} steps on {w0.nodes.size} nodes, "
            f"a ledger of {size / 2**30:.3g} GiB, over the {_LEDGER_MAX_BYTES >> 30} GiB limit"
        )
    table = np.empty((len(first), n_steps + 1))
    density = np.empty(n_steps)
    table[:, 0] = list(first.values())
    step = dict(zip(first, table))  # the table's rows by name
    step_s = step["s"]
    # row 0: the field before the block; rows 1..m-n: the block's steps
    block = np.empty((rows + 1, w0.values.size))
    block[0] = w0.values

    current, n = w0, 0
    while n < n_steps:
        stop, m = min(n + rows, n_steps), n  # m: the last step taken
        t0 = time.perf_counter()
        try:
            while m < stop:
                nxt = step_w(current, ds_eff)
                m += 1
                current = nxt._stepped(nxt.values, nxt.sup, s=w0.s + m / per_unit)  # the clock
                block[m - n] = current.values
                step_s[m] = current.s
                if m % per_unit == 0:
                    fields.append(current)
            t_step += time.perf_counter() - t0
            after = w0._stepped(block[1 : m - n + 1], s=step_s[n + 1 : m + 1])
            density[n:m] = ds_dissipation(w0._stepped(block[: m - n], s=step_s[n:m]), after)
            table[:, n + 1 : m + 1] = list(vars(snapshot(after, cfg)).values())
        except NumericError:  # a step's overshoot, or a ledger integral's overflow
            for j in range(n + 1, m + 1):  # the first step whose own ledger overflows
                row = w0._stepped(block[j - n], s=float(step_s[j]))
                try:
                    ds_dissipation(w0._stepped(block[j - n - 1], s=float(step_s[j - 1])), row)
                    snapshot(row, cfg)
                except NumericError as row_exc:
                    raise BlowupOvershootError(
                        f"run_similarity: w blew up by s={step_s[j]}: its ledger "
                        f"overflows ({row_exc})"
                    ) from row_exc
            raise
        block[0] = block[m - n]
        n = m
    # each unit's dissipation: cumsum adds in step order, np.sum pairwise
    running = np.cumsum((ds_eff * density).reshape(n_units, per_unit), axis=1)
    return SimilarityRun(
        fields=fields,
        snapshots=[
            FunctionalSnapshot(*table[:, k * per_unit].tolist())
            for k in range(n_units + 1)
        ],
        dissipation=running[:, -1],
        step_s=step_s,
        step_L=step["L"],
        step_mass=step["mass"],
        ds=ds_eff,
        time_stepping=t_step,
        time_functionals=time.perf_counter() - t_run - t_step,
    )
