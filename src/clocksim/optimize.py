"""Numerical optimization of shot duration and of symmetric-family
coefficients, plus generation of the uncertainty-versus-shot-time and
improvement-versus-ion-number datasets.

Both coefficient searches are deterministic: they draw no random numbers,
so identical arguments reproduce identical reports. The gen-Ramsey search
scans ground states of -S_x + mu S_y^2 over log mu. The QFI search starts
from that winner at its shot time and runs one L-BFGS-B polish over the
coefficients and the log shot time, across the whole shot-time bracket,
minimizing t / F_Q with the envelope gradient (``fisher._qfi_gradient``);
its projected gradient certifies the status, and its own t and F_Q are
reported. The gradient, like every shot-time F_Q, comes from the one block
QFI ``fisher._block_qfi``: no 2^n state vector or density matrix is built.
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
from .fisher import QFI_FLOOR, _NO_INFORMATION, _block_qfi, _qfi_gradient
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
# in the presampling grid of ``qfi_shot_optimum``: the whole grid in one
# chunk up to n = 7, three shot times per chunk at n = 20, where the
# (n+1)-fold larger temporaries of the block weights then stay near 2.4 MB.
_STACK_BYTES = 1 << 18
_LOG_MU_GRID = np.linspace(math.log(1e-4), math.log(1e2), 41)  # best mu: 0.2 to 2.2
_TOL_X = 1e-9  # Brent tolerance of the log mu and shot-time refinements
# F_Q evaluations after which the polish stops unconverged; it takes about
# 10 at n = 2..3 and 90 at n = 20.
_POLISH_EVALS = 4000
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


def _shot_bracket(gamma, total_time):
    """The shot times (1e-4/gamma, min(T, 8/gamma)) both QFI searches cover."""
    return 1e-4 / gamma, min(total_time, 8.0 / gamma)


def _shot_grid(n, gamma, total_time):
    """The presampling grid of shot times over ``_shot_bracket`` and its
    split into chunks of at most ``_STACK_BYTES`` of stacked n-ion blocks."""
    grid = _geometric_grid(_shot_bracket(gamma, total_time))
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


def _polish(n, gamma, a, t, bracket):
    """``(a, t, F_Q, certified)`` minimizing t / F_Q jointly over the family
    coefficients and the shot time, from the unit coefficients ``a`` at
    ``t``, the shot time kept inside ``bracket``.

    L-BFGS-B runs on x = (a, log t) with the objective log t - log F_Q(a/|a|,
    t) and the envelope gradient of ``fisher._qfi_gradient``; the objective
    does not involve the total time, so the bound's 1/sqrt(T) scaling stays
    exact. ``certified`` holds when the projected gradient at the returned
    point is at most ``_GRAD_TOL`` and fewer than ``_POLISH_EVALS``
    evaluations were spent. A polished point worse than the start is
    replaced by the start.
    """
    scored = {}  # (objective, F_Q, gradient) of each evaluated x, by its bytes

    def objective(x):
        norm, t = _norms(x[:-1]), math.exp(x[-1])
        value, grad_a, grad_t = _qfi_gradient(n, gamma, x[:-1] / norm, t)
        if value >= QFI_FLOOR:
            grad = np.append(-grad_a / (norm * value), 1.0 - t * grad_t / value)
            scored[x.tobytes()] = x[-1] - math.log(value), value, grad
        else:
            scored[x.tobytes()] = math.inf, value, np.zeros_like(x)
        return scored[x.tobytes()][::2]

    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    x0 = np.append(a, math.log(t))
    bounds = [(None, None)] * a.size + [(lo, hi)]
    x, _, info = fmin_l_bfgs_b(
        objective, x0, bounds=bounds, maxfun=_POLISH_EVALS, factr=_FACTR, pgtol=0.0
    )
    f, fq, grad = scored[x.tobytes()]
    if not f <= scored[x0.tobytes()][0]:
        x, (_, fq, grad) = x0, scored[x0.tobytes()]
    log_t = x[-1]
    # the projected gradient of L-BFGS-B: zero along a bound it pushes past
    projected = np.append(grad[:-1], log_t - min(max(log_t - grad[-1], lo), hi))
    certified = np.abs(projected).max() <= _GRAD_TOL and info["funcalls"] < _POLISH_EVALS
    return x[:-1] / _norms(x[:-1]), math.exp(log_t), fq, bool(certified)


def _qfi_search(n, gamma, total_time):
    """(coefficients, t_opt, delta_omega, certified) of the QFI optimum.

    One gradient polish over coefficients and shot time (``_polish``) starts
    from the gen-Ramsey winner at its shot time, clipped into the shot-time
    bracket, and may move across the whole bracket. Its |a| (a diagonal +-1
    unitary keeps F_Q), t and F_Q are the result.
    """
    a0, gen = _genramsey_search(n, gamma, total_time)
    lo, hi = _shot_bracket(gamma, total_time)
    a, t, fq, certified = _polish(n, gamma, a0, min(max(gen.t_opt, lo), hi), (lo, hi))
    if not fq >= QFI_FLOOR:
        raise NoInformationError(_NO_INFORMATION)
    return np.abs(a), t, math.sqrt(t / (total_time * fq)), certified


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
