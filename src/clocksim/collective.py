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

import numpy as np
from scipy.special import lambertw

from .exceptions import DegenerateStateError
from .qstate import CollectiveMoments
from .ramsey import PrecisionResult, reference_limit

__all__ = [
    "solve_topt",
    "genramsey_opt_uncertainty",
    "precision_bound_chain",
]

_ZERO_TOL = 1e-12


def _topt_rows(sy_var, n, gamma):
    """Optimal shot durations for an array of initial S_y variances: the
    unique positive root of n * [1 + (2 gamma t - 1) e^{2 gamma t}] = Var S_y,
    in closed form t_opt = (1 + W0((Var S_y/n - 1)/e)) / (2 gamma) with W0
    the principal branch of the Lambert W function. W0 loses digits near its
    branch point (small Var S_y/n), so one Newton step on the residual,
    written with expm1 to avoid cancellation, polishes x = 2 gamma t_opt.
    Every operation is elementwise, so an entry gives the same bits alone as
    in an array. Raises DegenerateStateError when any variance is <= 1e-12."""
    bad = sy_var <= _ZERO_TOL
    if bad.any():
        raise DegenerateStateError(f"initial S_y variance must be > 0, got {sy_var[bad][0]:.17g}")
    ratio = sy_var / n
    x = 1.0 + lambertw((ratio - 1.0) / math.e).real
    em1 = np.expm1(x)  # 1 + (x - 1) e^x = x em1 - (em1 - x)
    x = x - (x * em1 - (em1 - x) - ratio) / (x * np.exp(x))
    return x / (2.0 * gamma)


def _genramsey_rows(sx_mean, sy_var, n, total_time, gamma):
    """``(t_opt, delta_omega)`` arrays of the best-case gen-Ramsey precision
    sqrt(2 n gamma e^{2 gamma t_opt} / (T <S_x(0)>^2)) at delta*t = pi/2,
    for arrays of initial <S_x> and Var S_y, elementwise like ``_topt_rows``.
    Raises DegenerateStateError when any |<S_x>| is below 1e-12 or any
    variance is at most 1e-12, and ValueError when any t_opt exceeds T."""
    if (np.abs(sx_mean) < _ZERO_TOL).any():
        raise DegenerateStateError("mean collective signal <S_x(0)> is zero")
    t_opt = _topt_rows(sy_var, n, gamma)
    late = t_opt > total_time
    if late.any():
        raise ValueError(f"optimal shot {float(t_opt[late][0])} exceeds total time {total_time}")
    delta_omega = np.sqrt(
        2.0 * n * gamma * np.exp(2.0 * gamma * t_opt) / (total_time * sx_mean**2)
    )
    return t_opt, delta_omega


def solve_topt(m0: CollectiveMoments, n: int, gamma: float) -> float:
    """Optimal shot duration: the unique positive root of
    n * [1 + (2 gamma t - 1) e^{2 gamma t}] = Var S_y(t=0), in closed form
    t_opt = (1 + W0((Var S_y/n - 1)/e)) / (2 gamma) polished by one Newton
    step (``_topt_rows``)."""
    if n != m0.n:
        raise ValueError(f"ion count {n} != moment ion count {m0.n}")
    if not gamma > 0.0:
        raise ValueError(f"dephasing rate must be > 0, got {gamma}")
    return float(_topt_rows(np.array([m0.sy_variance()]), n, gamma)[0])


def genramsey_opt_uncertainty(
    m0: CollectiveMoments, n: int, total_time: float, gamma: float
) -> PrecisionResult:
    """Best-case generalized-Ramsey precision at delta*t = pi/2.

    sqrt(2 n gamma e^{2 gamma t_opt} / (T <S_x(0)>^2)) with t_opt from
    ``solve_topt``, both from ``_genramsey_rows``. Requires T >= tau_dec/2;
    shorter experiments fall in a regime the optimized formulas do not cover.
    """
    if n != m0.n:
        raise ValueError(f"ion count {n} != moment ion count {m0.n}")
    if not gamma > 0.0:
        raise ValueError(f"dephasing rate must be > 0, got {gamma}")
    if total_time < 0.5 / gamma:
        raise ValueError(
            f"total time {total_time} below tau_dec/2 = {0.5 / gamma}; optimum not attainable"
        )
    t_opt, delta_omega = (
        float(v[0])
        for v in _genramsey_rows(
            np.array([m0.sx_mean]), np.array([m0.sy_variance()]), n, total_time, gamma
        )
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
