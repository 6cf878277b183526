"""Numerical optimization of shot duration and of symmetric-family
coefficients, plus generation of the uncertainty-versus-shot-time and
improvement-versus-ion-number datasets.

Both coefficient searches are deterministic: they draw no random numbers,
so identical arguments reproduce identical reports. The gen-Ramsey search
scans ground states of -S_x + mu S_y^2 over log mu. The QFI search runs in
two stages. First, one see-saw over the variational form
F_Q = max_L [2 Tr(drho L) - Tr(rho L^2)], stacked over the shot-time grid of
``qfi_shot_optimum`` and started from the gen-Ramsey winner in every lane,
raises F_Q at each grid shot time. Then one L-BFGS-B polish over the
coefficients and the log shot time, started from the best lane and kept
between its grid neighbours, minimizes t / F_Q with the envelope gradient
(``fisher._qfi_gradient``); its projected gradient certifies the status.
The see-saw's score and step and the gradient, like every shot-time F_Q,
come from the one block QFI ``fisher._block_qfi``: no 2^n state vector or
density matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import fmin_l_bfgs_b, minimize_scalar

from .collective import genramsey_opt_uncertainty
from .exceptions import BracketingError, NoInformationError, SingularPointError
from .evolution import MAX_BLOCK_QUBITS, _block_form
from .fisher import QFI_FLOOR, _NO_INFORMATION, _block_qfi, _qfi_gradient, _seesaw_maps
from .qstate import SymmetricFamilyState, _dicke_amplitudes, _dicke_ladder, collective_moments
from .ramsey import ExperimentBudget, reference_limit, uncertainty_ghz, uncertainty_uncorrelated

__all__ = [
    "OptimizationReport",
    "ImprovementCurvePoint",
    "METHODS",
    "ION_RANGE",
    "qfi_shot_optimum",
    "optimize_symmetric_coeffs",
    "improvement_sweep",
    "fig3_scan",
    "fig4_curve",
]

METHODS = ("gen-ramsey", "qfi")
# Smallest and largest ion number each coefficient search accepts. The
# gen-Ramsey end is set by (n+1)-level eigensolves; the qfi end is that of the
# block QFI.
ION_RANGE = {"gen-ramsey": (2, 1000), "qfi": (2, MAX_BLOCK_QUBITS)}

_GRID_POINTS = 48
# Bytes of one stacked (chunk, K, n+1, n+1) block array and its derivative
# in the shot-time grid, for F_Q and for see-saw lanes alike: the whole grid
# in one chunk up to n = 7, three points per chunk at n = 20, where the
# (n+1)-fold larger temporaries of the block weights then stay near 2.4 MB.
_STACK_BYTES = 1 << 18
_LOG_MU_GRID = np.linspace(math.log(1e-4), math.log(1e2), 41)  # best mu: 0.2 to 2.2
_TOL_X = 1e-9  # Brent tolerance of the log mu and shot-time refinements
# Relative F_Q rise at which a grid lane's see-saw stops: the lanes only
# pick the start of the polish.
_LANE_RTOL = 1e-8
# F_Q evaluations after which a grid lane's see-saw, or the polish, stops
# unconverged. A lane's median is 20-40; the polish takes 6-90 from n = 2 to
# n = 20.
_SEESAW_EVALS = 4000
# The polish stops when a step lowers log t - log F_Q by at most
# _FACTR * machine epsilon relative, and certifies its point when the
# projected gradient is at most _GRAD_TOL: the largest measured over n =
# 2..20 and gamma in {0.3, 1, 2} was 6.6e-8.
_FACTR = 10.0
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one coefficient optimization for one (n, method) pair."""

    n: int
    method: str
    improvement_pct: float
    delta_omega: float
    t_opt: float
    best_coeffs: np.ndarray
    status: str = "ok"


@dataclass(frozen=True)
class ImprovementCurvePoint:
    """Improvement over the reference limit for both measurement strategies."""

    n: int
    improvement_genramsey_pct: float
    improvement_qfi_pct: float
    best_coeffs: np.ndarray
    status: str = "ok"


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


def _precision_bounds(fq, ts, total_time):
    """Precision bound 1/sqrt((T/t) F_Q(t)) from the F_Q at each shot time of
    ``ts``, infinite where the state carries no information."""
    with np.errstate(divide="ignore", invalid="ignore"):  # F_Q = 0 where t = 0
        bounds = 1.0 / np.sqrt((total_time / ts) * fq)
    return np.where(fq >= QFI_FLOOR, bounds, math.inf)


def _shot_grid(n, gamma, total_time):
    """The presampling grid of shot times over (1e-4/gamma, min(T, 8/gamma))
    and its split into chunks of at most ``_STACK_BYTES`` of stacked n-ion
    blocks."""
    grid = _geometric_grid((1e-4 / gamma, min(total_time, 8.0 / gamma)))
    chunk = max(1, _STACK_BYTES // (16 * (n // 2 + 1) * (n + 1) ** 2))
    return grid, [grid[i : i + chunk] for i in range(0, len(grid), chunk)]


def qfi_shot_optimum(state, gamma, total_time, tol_x=_TOL_X):
    """Shot time minimizing the precision bound 1/sqrt((T/t) F_Q(t)) of the
    SymmetricFamilyState ``state`` (1 <= n <= 20) over
    (1e-4/gamma, min(T, 8/gamma)). Returns (t_opt, delta_omega); raises
    NoInformationError when no grid shot time carries information.

    F_Q comes from the state's Schur-Weyl blocks. The presampling grid is
    evaluated in stacked chunks; a stacked F_Q equals the single-shot-time
    one to the last bit, so the result equals a search that evaluates the
    grid one shot time at a time, then refines by the same Brent method.
    """
    if not isinstance(state, SymmetricFamilyState):
        raise TypeError(f"expected a SymmetricFamilyState, got {type(state).__name__}")
    _check_finite("dephasing rate", gamma)
    _check_finite("total time", total_time)
    if not gamma > 0.0:
        raise ValueError(f"dephasing rate must be > 0, got {gamma}")
    n, c = state.n, _dicke_amplitudes(state.n, state.a)
    bounds = lambda ts: _precision_bounds(
        _block_qfi(c, *_block_form(n, gamma, ts))[0], ts, total_time
    )
    grid, chunks = _shot_grid(n, gamma, total_time)
    values = np.concatenate([bounds(ts) for ts in chunks])
    if not np.isfinite(values).any():
        raise NoInformationError(_NO_INFORMATION)
    return _refine(lambda t: bounds(t).item(), grid, values, tol_x)


def _canonical_method(method: str) -> str:
    key = method.replace("-", "").replace("_", "")
    for name in METHODS:
        if key == name.replace("-", ""):
            return name
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _genramsey_search(n, gamma, total_time):
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
    log_mu, _ = _refine(score, _LOG_MU_GRID, [score(x) for x in _LOG_MU_GRID], _TOL_X)
    return result(log_mu)


def _norms(rows):
    """Euclidean norm of each row, summed within the row."""
    return np.sqrt((rows * rows).sum(-1))


def _seesaw(n, gamma, ts, a):
    """Raise the F_Q of the unit coefficient rows ``a``, one lane per shot
    time of ``ts``, by see-saw steps until a cycle raises a lane's F_Q by at
    most ``_LANE_RTOL`` relative. Returns per-lane arrays (F_Q, a, converged), with
    converged False where ``_SEESAW_EVALS`` evaluations cut a lane short.

    Each cycle extrapolates two steps by SQUAREM (Varadhan & Roland, Scand.
    J. Stat. 35, 335 (2008)) and keeps the extrapolated point, after one more
    step, only where it beats them, so F_Q never falls; plain steps crawl
    along flat ridges of F_Q.
    The lanes still active, neither converged nor out of evaluations, are
    scored and stepped as one stack; a lane's results are the bits it gets
    alone.
    """
    score, step = _seesaw_maps(n, gamma, ts)
    a = np.array(a, dtype=float)
    fq, sld = score(slice(None), a)
    evals = np.ones(len(a), dtype=int)
    converged = np.zeros(len(a), dtype=bool)
    active = np.flatnonzero(evals < _SEESAW_EVALS)
    while active.size:
        a0 = a[active]
        a1 = step(active, a0, sld[active])
        a2 = step(active, a1, score(active, a1)[1])
        fq2, sld2 = score(active, a2)
        evals[active] += 2
        r, v = a1 - a0, a2 - 2.0 * a1 + a0
        norm_r, norm_v = _norms(r), _norms(v)
        extrapolate = np.flatnonzero((0.0 < norm_v) & (norm_v < norm_r))
        if extrapolate.size:
            lanes = active[extrapolate]
            alpha = (norm_r[extrapolate] / norm_v[extrapolate])[:, None]
            x = a0[extrapolate] + 2.0 * alpha * r[extrapolate] + alpha * alpha * v[extrapolate]
            x /= _norms(x)[:, None]
            x = step(lanes, x, score(lanes, x)[1])
            fqx, sldx = score(lanes, x)
            evals[lanes] += 2
            wins = fqx > fq2[extrapolate]
            better = extrapolate[wins]
            fq2[better], sld2[better], a2[better] = fqx[wins], sldx[wins], x[wins]
        rise = fq2 - fq[active]
        up = rise > 0.0
        fq[active[up]], sld[active[up]], a[active[up]] = fq2[up], sld2[up], a2[up]
        done = ~(rise > _LANE_RTOL * fq[active])
        converged[active[done]] = True
        active = active[~done & (evals[active] < _SEESAW_EVALS)]
    return fq, a, converged


def _best_grid_lane(n, gamma, total_time):
    """``(a, t, fq, bracket)`` of the best lane of one see-saw stacked over
    ``_shot_grid``, every lane started from the gen-Ramsey winner: its unit
    coefficients, shot time and F_Q, and the shot times of its grid
    neighbours. Raises NoInformationError when no lane carries information."""
    a0 = _genramsey_search(n, gamma, total_time)[0]
    grid, chunks = _shot_grid(n, gamma, total_time)
    lanes = [_seesaw(n, gamma, ts, np.tile(a0, (ts.size, 1))) for ts in chunks]
    fq, a, _ = (np.concatenate(parts) for parts in zip(*lanes))
    values = _precision_bounds(fq, grid, total_time)
    if not np.isfinite(values).any():
        raise NoInformationError(_NO_INFORMATION)
    best = int(np.argmin(values))
    bracket = (grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)])
    return a[best], grid[best], fq[best], bracket


def _polish(n, gamma, a, t, fq, bracket):
    """``(a, t, certified)`` minimizing t / F_Q jointly over the family
    coefficients and the shot time, from the unit coefficients ``a`` at ``t``
    with F_Q ``fq``, the shot time kept inside ``bracket``.

    L-BFGS-B runs on x = (a, log t) with the objective log t - log F_Q(a/|a|,
    t) and the envelope gradient of ``fisher._qfi_gradient``; the objective
    does not involve the total time, so the bound's 1/sqrt(T) scaling stays
    exact. ``certified`` holds when the projected gradient at the returned
    point is at most ``_GRAD_TOL`` and fewer than ``_SEESAW_EVALS``
    evaluations were spent. A polished point worse than the start is
    replaced by the start.
    """

    def objective(x):
        norm, t = _norms(x[:-1]), math.exp(x[-1])
        value, grad_a, grad_t = _qfi_gradient(n, gamma, x[:-1] / norm, t)
        if not value >= QFI_FLOOR:
            return math.inf, np.zeros_like(x)
        grad = np.append(-grad_a / (norm * value), 1.0 - t * grad_t / value)
        return x[-1] - math.log(value), grad

    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    x0 = np.append(a, math.log(t))
    bounds = [(None, None)] * a.size + [(lo, hi)]
    x, f, info = fmin_l_bfgs_b(
        objective, x0, bounds=bounds, maxfun=_SEESAW_EVALS, factr=_FACTR, pgtol=0.0
    )
    grad, evals = info["grad"], info["funcalls"]
    if not f <= x0[-1] - math.log(fq):
        x, grad = x0, objective(x0)[1]
    log_t = x[-1]
    # the projected gradient of L-BFGS-B: zero along a bound it pushes past
    projected = np.append(grad[:-1], log_t - min(max(log_t - grad[-1], lo), hi))
    certified = np.abs(projected).max() <= _GRAD_TOL and evals < _SEESAW_EVALS
    return x[:-1] / _norms(x[:-1]), math.exp(log_t), bool(certified)


def _qfi_search(n, gamma, total_time):
    """(coefficients, t_opt, delta_omega, certified) of the QFI optimum.

    The best lane of the stacked grid see-saw starts one gradient polish
    over coefficients and shot time (``_polish``), whose |a| (a diagonal
    +-1 unitary keeps F_Q) is scored by ``qfi_shot_optimum``.
    """
    a, t, certified = _polish(n, gamma, *_best_grid_lane(n, gamma, total_time))
    a = np.abs(a)
    t_opt, delta_omega = qfi_shot_optimum(SymmetricFamilyState(n, a), gamma, total_time)
    return a, t_opt, delta_omega, certified


def optimize_symmetric_coeffs(
    n: int, gamma: float, total_time: float, method: str
) -> OptimizationReport:
    """Search unit-norm family coefficients minimizing the scheme uncertainty.

    ``method`` picks the measurement: "gen-ramsey" (also spelled "genramsey")
    uses the collective S_x observable with the analytic optimal shot time,
    "qfi" the optimal projective measurement with the shot time searched
    numerically. Both return a_k >= 0. A "qfi" report whose gradient polish
    reached its evaluation cap, or ended with a projected gradient above its
    tolerance, has status "partial".
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

    if method == "gen-ramsey":
        a_best, best = _genramsey_search(n, gamma, total_time)
        delta_omega, t_opt, converged = best.delta_omega, best.t_opt, True
    else:
        a_best, t_opt, delta_omega, converged = _qfi_search(n, gamma, total_time)
    ref = reference_limit(n, total_time, gamma)
    return OptimizationReport(
        n=n,
        method=method,
        improvement_pct=100.0 * (1.0 - delta_omega / ref),
        delta_omega=delta_omega,
        t_opt=t_opt,
        best_coeffs=a_best,
        status="ok" if converged else "partial",
    )


def improvement_sweep(n_range, gamma: float, total_time: float, methods=METHODS):
    """Yield ``(n, outcomes)`` for each ion number, ``outcomes`` mapping each
    method in order to its OptimizationReport."""
    methods = tuple(_canonical_method(m) for m in methods)
    for n in n_range:
        yield n, {m: optimize_symmetric_coeffs(n, gamma, total_time, m) for m in methods}


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


def fig4_curve(n_range, gamma: float, total_time: float):
    """Improvement over the reference limit versus ion number, for both the
    collective-observable and the optimal-measurement strategies.

    A point with a "partial" search is flagged "partial".
    """
    points = []
    for n, outcomes in improvement_sweep(n_range, gamma, total_time, METHODS):
        gen, opt = outcomes["gen-ramsey"], outcomes["qfi"]
        winner = opt if opt.delta_omega <= gen.delta_omega else gen
        status = "ok" if gen.status == opt.status == "ok" else "partial"
        points.append(
            ImprovementCurvePoint(
                n, gen.improvement_pct, opt.improvement_pct, winner.best_coeffs, status
            )
        )
    return points
