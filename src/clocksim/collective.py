"""Generalized Ramsey spectroscopy: measure the collective operator
S_x = sum_k sigma_x^k after the free-evolution period.

Decohered moments follow from the initial-state moments alone:
<S_x(t)> = e^{-gamma t} * (cos(delta t) <S_x> + sin(delta t) <S_y>) and
<S_x^2(t)> = n + e^{-2 gamma t} * (<rotated S_x^2> - n). The mixed moment
<{S_x, S_y}> vanishes for real-amplitude states, the family this toolkit
optimizes, so it is not tracked. The phase optimum is delta*t = pi/2, and
the optimal shot time t_opt solves n[1 + (2 gamma t - 1) e^{2 gamma t}] =
Var S_y, in closed form t_opt = (1 + W0((Var S_y/n - 1)/e)) / (2 gamma)
with W0 the principal branch of the Lambert W function.
"""

from __future__ import annotations

import math

from scipy.special import lambertw

from .exceptions import DegenerateStateError, SingularPointError
from .qstate import CollectiveMoments
from .ramsey import ExperimentBudget, PrecisionResult, reference_limit

__all__ = [
    "evolved_sx_mean",
    "evolved_sx2_mean",
    "evolved_sx_slope",
    "genramsey_uncertainty",
    "solve_topt",
    "genramsey_opt_uncertainty",
    "precision_bound_chain",
]

_ZERO_TOL = 1e-12


def evolved_sx_mean(m0: CollectiveMoments, delta: float, gamma: float, t: float) -> float:
    """Mean of S_x after detuned free evolution with dephasing."""
    c, s = math.cos(delta * t), math.sin(delta * t)
    return math.exp(-gamma * t) * (c * m0.sx_mean + s * m0.sy_mean)


def evolved_sx2_mean(m0: CollectiveMoments, delta: float, gamma: float, t: float) -> float:
    """Second moment of S_x after evolution (real-amplitude initial states)."""
    c, s = math.cos(delta * t), math.sin(delta * t)
    rotated2 = c * c * m0.sx2_mean + s * s * m0.sy2_mean
    return m0.n + math.exp(-2.0 * gamma * t) * (rotated2 - m0.n)


def evolved_sx_slope(m0: CollectiveMoments, delta: float, gamma: float, t: float) -> float:
    """Analytic derivative of <S_x(t)> with respect to the atomic frequency."""
    c, s = math.cos(delta * t), math.sin(delta * t)
    return t * math.exp(-gamma * t) * (-s * m0.sx_mean + c * m0.sy_mean)


def genramsey_uncertainty(
    m0: CollectiveMoments, budget: ExperimentBudget, delta: float, gamma: float
) -> float:
    """Error-propagated frequency uncertainty of the S_x measurement.

    sqrt(Var S_x(t) / (N * (d<S_x>/domega)^2)) with N = T/t collective
    measurements.
    """
    if m0.n != budget.n:
        raise ValueError(f"moment ion count {m0.n} != budget ion count {budget.n}")
    if gamma < 0.0:
        raise ValueError(f"dephasing rate must be >= 0, got {gamma}")
    t = budget.shot_time
    slope = evolved_sx_slope(m0, delta, gamma, t)
    if abs(slope) < _ZERO_TOL * max(1.0, m0.n * t):
        raise SingularPointError("signal slope d<S_x>/domega vanishes at this point")
    mean = evolved_sx_mean(m0, delta, gamma, t)
    variance = max(evolved_sx2_mean(m0, delta, gamma, t) - mean * mean, 0.0)
    n_meas = budget.total_time / t
    return math.sqrt(variance / (n_meas * slope * slope))


def solve_topt(m0: CollectiveMoments, n: int, gamma: float) -> float:
    """Optimal shot duration: the unique positive root of
    n * [1 + (2 gamma t - 1) e^{2 gamma t}] = Var S_y(t=0), in closed form
    t_opt = (1 + W0((Var S_y/n - 1)/e)) / (2 gamma) with W0 the principal
    branch of the Lambert W function. W0 loses digits near its branch point
    (small Var S_y/n), so one Newton step on the residual, written with expm1
    to avoid cancellation, polishes x = 2 gamma t_opt."""
    if n != m0.n:
        raise ValueError(f"ion count {n} != moment ion count {m0.n}")
    if not gamma > 0.0:
        raise ValueError(f"dephasing rate must be > 0, got {gamma}")
    sy_var = m0.sy_variance()
    if sy_var <= _ZERO_TOL:
        raise DegenerateStateError(f"initial S_y variance must be > 0, got {sy_var:.17g}")
    ratio = sy_var / n
    x = 1.0 + float(lambertw((ratio - 1.0) / math.e).real)
    em1 = math.expm1(x)  # 1 + (x - 1) e^x = x em1 - (em1 - x)
    x -= (x * em1 - (em1 - x) - ratio) / (x * math.exp(x))
    return x / (2.0 * gamma)


def genramsey_opt_uncertainty(
    m0: CollectiveMoments, n: int, total_time: float, gamma: float
) -> PrecisionResult:
    """Best-case generalized-Ramsey precision at delta*t = pi/2.

    sqrt(2 n gamma e^{2 gamma t_opt} / (T <S_x(0)>^2)) with t_opt from
    ``solve_topt``. Requires T >= tau_dec/2; shorter experiments fall in a
    regime the optimized formulas do not cover.
    """
    if n != m0.n:
        raise ValueError(f"ion count {n} != moment ion count {m0.n}")
    if not gamma > 0.0:
        raise ValueError(f"dephasing rate must be > 0, got {gamma}")
    if total_time < 0.5 / gamma:
        raise ValueError(
            f"total time {total_time} below tau_dec/2 = {0.5 / gamma}; optimum not attainable"
        )
    if abs(m0.sx_mean) < _ZERO_TOL:
        raise DegenerateStateError("mean collective signal <S_x(0)> is zero")
    t_opt = solve_topt(m0, n, gamma)
    if t_opt > total_time:
        raise ValueError(f"optimal shot {t_opt} exceeds total time {total_time}")
    delta_omega = math.sqrt(
        2.0 * n * gamma * math.exp(2.0 * gamma * t_opt) / (total_time * m0.sx_mean**2)
    )
    ref = reference_limit(n, total_time, gamma)
    return PrecisionResult(
        scheme="symmetric-genramsey",
        t_opt=t_opt,
        phase_opt=0.5 * math.pi,
        delta_omega=delta_omega,
        improvement_pct=100.0 * (1.0 - delta_omega / ref),
    )


def precision_bound_chain(
    m0: CollectiveMoments, n: int, total_time: float, gamma: float
) -> tuple[float, float]:
    """State-dependent and universal lower bounds on the optimized precision.

    Returns (sqrt(2 n gamma / (T <S_x(0)>^2)), sqrt(2 gamma / (n T))); the
    universal bound sits a factor 1/sqrt(e) below the reference limit.
    """
    if n != m0.n:
        raise ValueError(f"ion count {n} != moment ion count {m0.n}")
    if not (gamma > 0.0 and total_time > 0.0):
        raise ValueError("gamma and total_time must be > 0")
    if abs(m0.sx_mean) < _ZERO_TOL:
        raise DegenerateStateError("mean collective signal <S_x(0)> is zero")
    bound_state = math.sqrt(2.0 * n * gamma / (total_time * m0.sx_mean**2))
    bound_universal = math.sqrt(2.0 * gamma / (n * total_time))
    return bound_state, bound_universal
