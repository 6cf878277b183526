"""Numerical optimization of shot duration and of symmetric-family
coefficients, plus generation of the uncertainty-versus-shot-time and
improvement-versus-ion-number datasets.

The gen-Ramsey coefficient search scans ground states of -S_x + mu S_y^2
over log mu. The QFI search runs multi-restart Nelder-Mead on the unit
sphere, restart seeds spawned from the master seed by numpy's SeedSequence,
so identical configurations reproduce identical reports. Its candidates,
like every shot-time QFI optimum, are scored on the Schur-Weyl blocks of the
family state (``fisher._family_qfi_at``): no 2^n state vector or density
matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import minimize as _scipy_minimize
from scipy.optimize import minimize_scalar

from .collective import genramsey_opt_uncertainty
from .exceptions import (
    BracketingError,
    DegenerateStateError,
    NoInformationError,
    OptimizationFailureError,
    SingularPointError,
)
from .fisher import QFI_FLOOR, _NO_INFORMATION, _family_qfi_at
from .qstate import SymmetricFamilyState, _dicke_ladder, collective_moments
from .ramsey import ExperimentBudget, reference_limit, uncertainty_ghz, uncertainty_uncorrelated

__all__ = [
    "OptimizerConfig",
    "OptimizationReport",
    "ImprovementCurvePoint",
    "METHODS",
    "ION_RANGE",
    "minimize_over_t",
    "qfi_shot_optimum",
    "optimize_symmetric_coeffs",
    "improvement_sweep",
    "fig3_scan",
    "fig4_curve",
]

METHODS = ("gen-ramsey", "qfi")
# Smallest and largest ion number each coefficient search accepts. The
# gen-Ramsey end is set by (n+1)-level eigensolves; the qfi end by the cost of
# its Nelder-Mead restarts, each a shot-time search per candidate (the block
# QFI itself reaches n = 20).
ION_RANGE = {"gen-ramsey": (2, 1000), "qfi": (2, 10)}

_GRID_POINTS = 48
# Bytes of one stacked (chunk, K, n+1, n+1) complex block array in the
# shot-time grid: the whole grid in one chunk up to n = 7, three points per
# chunk at n = 20, where the (n+1)-fold larger temporaries of the block
# weights then stay near 2.4 MB.
_STACK_BYTES = 1 << 18
_LOG_MU_GRID = np.linspace(math.log(1e-4), math.log(1e2), 41)  # best mu: 0.2 to 2.2
_TOL_OBJ, _MAX_ITER = 1e-10, 400  # Nelder-Mead objective tolerance, iterations per coefficient


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    seed: int = 0
    tol_x: float = 1e-9

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restart count must be >= 1, got {self.restarts}")
        if not self.tol_x > 0.0:
            raise ValueError("tolerances must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one coefficient optimization for one (n, method) pair."""

    n: int
    method: str
    improvement_pct: float
    delta_omega: float
    t_opt: float
    best_coeffs: np.ndarray
    restart_values: tuple
    status: str = "ok"


@dataclass(frozen=True)
class ImprovementCurvePoint:
    """Improvement over the reference limit for both measurement strategies."""

    n: int
    improvement_genramsey_pct: float
    improvement_qfi_pct: float
    best_coeffs: np.ndarray | None
    status: str = "ok"


def _safe_call(objective, t):
    try:
        value = objective(t)
    except (SingularPointError, DegenerateStateError, NoInformationError):
        return math.inf
    if not math.isfinite(value):
        return math.inf
    return value


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _refine(objective, grid, values, tol_x):
    """Refine ``objective`` (infinite where it fails) from its ``values`` on
    the geometric ``grid`` with scipy's bounded Brent method, between the grid
    neighbours of the best grid point, to ``tol_x``. Returns (t_opt, value),
    never worse than the best grid point; raises BracketingError when every
    grid value is infinite."""
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        raise BracketingError(f"objective is infinite everywhere on ({grid[0]}, {grid[-1]})")
    bounds = (grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)])
    res = minimize_scalar(objective, bounds=bounds, method="bounded", options={"xatol": tol_x})
    if res.fun < values[best]:
        return float(res.x), float(res.fun)
    return float(grid[best]), float(values[best])


def _geometric_grid(bracket) -> np.ndarray:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got ({lo}, {hi})")
    return np.geomspace(lo, hi, _GRID_POINTS)


def minimize_over_t(objective, bracket, tol_x: float = 1e-9):
    """Minimize a scalar objective over shot durations in ``bracket``.

    A coarse geometric presample locates the basin; scipy's bounded Brent
    method narrows it to ``tol_x``. Evaluations raising singular/degenerate
    errors count as infinite; if every probe is infinite a BracketingError is
    raised. Returns (t_opt, value).
    """
    grid = _geometric_grid(bracket)
    values = [_safe_call(objective, t) for t in grid]
    return _refine(lambda t: _safe_call(objective, t), grid, values, tol_x)


def _precision_bounds(fq, ts, total_time):
    """Precision bound 1/sqrt((T/t) F_Q(t)) from the F_Q at each shot time of
    ``ts``, infinite where the state carries no information."""
    with np.errstate(divide="ignore", invalid="ignore"):  # F_Q = 0 where t = 0
        bounds = 1.0 / np.sqrt((total_time / ts) * fq)
    return np.where(fq >= QFI_FLOOR, bounds, math.inf)


def qfi_shot_optimum(state, gamma, total_time, delta=0.0, tol_x=1e-9):
    """Shot time minimizing the precision bound 1/sqrt((T/t) F_Q(t)) of the
    SymmetricFamilyState ``state`` (1 <= n <= 20) over
    (1e-4/gamma, min(T, 8/gamma)). Returns (t_opt, delta_omega); raises
    NoInformationError when no grid shot time carries information.

    F_Q comes from the state's Schur-Weyl blocks. The presampling grid is
    evaluated in stacked chunks, and the bounded Brent refinement is that of
    ``minimize_over_t``, so the result equals ``minimize_over_t`` over the
    single-shot-time bound exactly.
    """
    if not isinstance(state, SymmetricFamilyState):
        raise TypeError(f"expected a SymmetricFamilyState, got {type(state).__name__}")
    _check_finite("detuning", delta)
    _check_finite("dephasing rate", gamma)
    _check_finite("total time", total_time)
    if not gamma > 0.0:
        raise ValueError(f"dephasing rate must be > 0, got {gamma}")
    grid = _geometric_grid((1e-4 / gamma, min(total_time, 8.0 / gamma)))
    fq_at = _family_qfi_at(state, delta, gamma)
    bounds = lambda ts: _precision_bounds(fq_at(ts), ts, total_time)
    chunk = max(1, _STACK_BYTES // (16 * (state.n // 2 + 1) * (state.n + 1) ** 2))
    values = np.concatenate([bounds(grid[i : i + chunk]) for i in range(0, len(grid), chunk)])
    if not np.isfinite(values).any():
        raise NoInformationError(_NO_INFORMATION)
    return _refine(lambda t: float(bounds(t)), grid, values, tol_x)


def _evaluate_candidate(a, n, gamma, total_time, t_tol):
    """QFI bound and shot time of unit coefficients; DegenerateStateError without information."""
    try:
        t_opt, value = qfi_shot_optimum(SymmetricFamilyState(n, a), gamma, total_time, tol_x=t_tol)
    except NoInformationError as exc:
        raise DegenerateStateError(str(exc)) from exc
    return value, t_opt


def _canonical_method(method: str) -> str:
    key = method.replace("-", "").replace("_", "")
    for name in METHODS:
        if key == name.replace("-", ""):
            return name
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _normalize(x):
    nrm = float(np.linalg.norm(x))
    if nrm < 1e-12:
        raise DegenerateStateError("coefficient vector has vanishing norm")
    return np.asarray(x, dtype=float) / nrm


def _run_restart(x0, n, gamma, total_time, cfg):
    # the simplex search tolerates a coarser shot-time resolution than the
    # final report; the winner is re-evaluated at cfg.tol_x afterwards
    search_t_tol = max(cfg.tol_x, 1e-6)

    def objective(x):
        try:
            value, _ = _evaluate_candidate(_normalize(x), n, gamma, total_time, search_t_tol)
        except DegenerateStateError:
            return math.inf
        return value

    result = _scipy_minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "xatol": cfg.tol_x,
            "fatol": _TOL_OBJ,
            "maxiter": _MAX_ITER * len(x0),
            "maxfev": _MAX_ITER * len(x0),
        },
    )
    return float(result.fun), np.asarray(result.x, dtype=float)


def _genramsey_search(n, gamma, total_time, tol_x):
    """(coefficients, PrecisionResult) of the best ground state of -S_x + mu S_y^2:
    the gen-Ramsey score improves as <S_x> rises and <S_y^2> falls (Ulam-Orgikh
    & Kitagawa, PRA 64, 052106 (2001)). By Perron-Frobenius the ground state is
    positive and flip-even, a family state with every a_k > 0, and <S_y^2> <= n
    because its energy is concave in mu, so t_opt <= tau_dec/2 <= T."""
    cls, ladder = _dicke_ladder(n)
    j_plus = np.diag(ladder, -1)
    sx, j_diff = j_plus + j_plus.T, j_plus - j_plus.T
    sy2 = -(j_diff @ j_diff)

    def result(log_mu):
        c = eigh(math.exp(log_mu) * sy2 - sx, subset_by_index=[0, 0])[1][:, 0]
        a = np.sqrt(np.bincount(cls, weights=c * c))  # a_k = sqrt(2) |c_k| as c_k = c_{n-k}
        return a, genramsey_opt_uncertainty(
            collective_moments(SymmetricFamilyState(n, a)), n, total_time, gamma
        )

    score = lambda log_mu: result(log_mu)[1].delta_omega
    log_mu, _ = _refine(score, _LOG_MU_GRID, [score(x) for x in _LOG_MU_GRID], tol_x)
    return result(log_mu)


def optimize_symmetric_coeffs(
    n: int,
    gamma: float,
    total_time: float,
    method: str,
    cfg: OptimizerConfig | None = None,
    extra_starts=(),
) -> OptimizationReport:
    """Search unit-norm family coefficients minimizing the scheme uncertainty.

    ``method`` picks the measurement: "gen-ramsey" (also spelled "genramsey")
    uses the collective S_x observable with the analytic optimal shot time,
    "qfi" uses the optimal projective measurement with the shot time
    minimized numerically per candidate. ``extra_starts`` prepends
    deterministic start vectors to the seeded random restarts of "qfi", which
    reports |a| (a diagonal +-1 unitary keeps its bound). Both give a_k >= 0.
    """
    method = _canonical_method(method)
    lo, hi = ION_RANGE[method]
    if not lo <= n <= hi:
        raise ValueError(f"{method} optimization supports {lo} <= n <= {hi}, got {n}")
    _check_finite("dephasing rate", gamma)
    _check_finite("total time", total_time)
    if not gamma > 0.0:
        raise ValueError(f"dephasing rate must be > 0, got {gamma}")
    if total_time < 0.5 / gamma:
        raise ValueError(f"total time {total_time} below tau_dec/2 = {0.5 / gamma}")
    cfg = cfg or OptimizerConfig()

    if method == "gen-ramsey":
        a_best, best = _genramsey_search(n, gamma, total_time, cfg.tol_x)
        delta_omega, t_opt, values = best.delta_omega, best.t_opt, ()
    else:
        starts = [np.asarray(x, dtype=float) for x in extra_starts]
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
            starts.append(np.random.default_rng(child).normal(size=n // 2 + 1))
        outcomes = [_run_restart(x0, n, gamma, total_time, cfg) for x0 in starts]
        values = tuple(v for v, _ in outcomes)
        best = int(np.argmin(values))
        if not math.isfinite(values[best]):
            raise OptimizationFailureError("every restart ended in a degenerate candidate")
        a_best = np.abs(_normalize(outcomes[best][1]))
        delta_omega, t_opt = _evaluate_candidate(a_best, n, gamma, total_time, cfg.tol_x)
    ref = reference_limit(n, total_time, gamma)
    return OptimizationReport(
        n=n,
        method=method,
        improvement_pct=100.0 * (1.0 - delta_omega / ref),
        delta_omega=delta_omega,
        t_opt=t_opt,
        best_coeffs=a_best,
        restart_values=values,
        status="ok",
    )


def improvement_sweep(
    n_range, gamma: float, total_time: float, methods=METHODS, cfg: OptimizerConfig | None = None
):
    """Yield ``(n, outcomes)`` for each ion number, ``outcomes`` mapping each
    method in order to its OptimizationReport, or to the
    OptimizationFailureError that ended its search.

    A "qfi" search run after a successful "gen-ramsey" one is seeded with
    the collective-observable winner, so its improvement cannot fall below it.
    """
    methods = tuple(_canonical_method(m) for m in methods)
    for n in n_range:
        outcomes = {}
        for method in methods:
            gen = outcomes.get("gen-ramsey")
            seeded = method == "qfi" and isinstance(gen, OptimizationReport)
            extra = (gen.best_coeffs,) if seeded else ()
            try:
                outcomes[method] = optimize_symmetric_coeffs(
                    n, gamma, total_time, method, cfg, extra_starts=extra
                )
            except OptimizationFailureError as exc:
                outcomes[method] = exc
        yield n, outcomes


def fig3_scan(n: int, gamma: float, total_time: float, t_grid) -> np.ndarray:
    """Uncertainty versus shot time for the uncorrelated and maximally
    entangled schemes, each at its own optimal phase (delta*t = pi/2 and
    n*delta*t = pi/2). Rows are (t, uncorrelated, ghz); infeasible shot
    times yield NaN entries.
    """
    if not gamma > 0.0:
        raise ValueError(f"dephasing rate must be > 0, got {gamma}")
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        row = [t, math.nan, math.nan]
        if 0.0 < t <= total_time:
            budget = ExperimentBudget(n, total_time, float(t))
            try:
                row[1] = uncertainty_uncorrelated(budget, 0.5 * math.pi / t, gamma)
            except SingularPointError:
                pass
            try:
                row[2] = uncertainty_ghz(budget, 0.5 * math.pi / (n * t), gamma)
            except SingularPointError:
                pass
        rows.append(row)
    return np.array(rows, dtype=float)


def fig4_curve(n_range, gamma: float, total_time: float, cfg: OptimizerConfig | None = None):
    """Improvement over the reference limit versus ion number, for both the
    collective-observable and the optimal-measurement strategies.

    The optimal-measurement search is seeded with the collective-observable
    winner (see ``improvement_sweep``). Failed points are flagged rather
    than aborting the sweep.
    """
    points = []
    for n, outcomes in improvement_sweep(n_range, gamma, total_time, METHODS, cfg):
        gen, opt = outcomes["gen-ramsey"], outcomes["qfi"]
        if isinstance(gen, Exception) or isinstance(opt, Exception):
            points.append(ImprovementCurvePoint(n, math.nan, math.nan, None, status="failed"))
            continue
        winner = opt if opt.delta_omega <= gen.delta_omega else gen
        points.append(
            ImprovementCurvePoint(n, gen.improvement_pct, opt.improvement_pct, winner.best_coeffs)
        )
    return points
