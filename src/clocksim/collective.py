"""Generalized Ramsey spectroscopy: measure the collective operator
S_x = sum_k sigma_x^k after the free-evolution period.

Decohered moments follow from the initial-state moments alone:
<S_x(t)> = e^{-gamma t} * (cos(delta t) <S_x> + sin(delta t) <S_y>) and
<S_x^2(t)> = n + e^{-2 gamma t} * (<rotated S_x^2> - n). The mixed moment
<{S_x, S_y}> vanishes for real-amplitude states, the family this toolkit
optimizes, so it is not tracked. The phase optimum is delta*t = pi/2, and
the optimal shot time t_opt solves n[1 + (2 gamma t - 1) e^{2 gamma t}] =
Var S_y, that is t_opt = (1 + W0((Var S_y/n - 1)/e)) / (2 gamma) with W0
the principal branch of the Lambert W function. It is solved for x = 2
gamma t_opt by Halley steps in stdlib ``math``, one state at a time, so the
module needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DegenerateStateError
from .qstate import CollectiveMoments, _check_scalar
from .ramsey import PrecisionResult, reference_limit

__all__ = [
    "solve_topt",
    "genramsey_opt_uncertainty",
]

_ZERO_TOL = 1e-12


# (k - 1) / k! for k = 17 down to 2: the Taylor coefficients of
# 1 + (x - 1) e^x, highest first; below x = 0.5 the omitted terms stay under
# 1e-16 of the sum
_EXCESS_SERIES = tuple((k - 1) / math.factorial(k) for k in range(17, 1, -1))


def _excess(x):
    """1 + (x - 1) e^x for x > 0, without cancellation: as its Taylor series
    sum_{k>=2} (k - 1) x^k / k! below x = 0.5, where 1 + (x - 1) e^x and
    (x - 1) expm1(x) + x cancel, and as (x - 1) expm1(x) + x above."""
    if x >= 0.5:
        return (x - 1.0) * math.expm1(x) + x
    total = 0.0
    for c in _EXCESS_SERIES:
        total = total * x + c
    return total * x * x


def _topt_x(ratio):
    """The root x > 0 of 1 + (x - 1) e^x = ``ratio``, x = 2 gamma t_opt.

    Halley steps start below ratio = 0.3 from the branch-point series x = s
    - s^2/3 + 11 s^3/72, s = sqrt(2 ratio), and above it from x = 1 +
    W0((ratio - 1)/e) with Winitzki's approximation W0(z) ~ L (1 - log(1 +
    L) / (2 + L)), L = log(1 + z) (ICCSA 2003, LNCS 2667, 780), both within
    4 % of the root. They evaluate the residual as (x - 1) expm1(x) + x,
    whose rounding near the branch point stays below 1e-9 relative at ratio
    = 1e-12; once a step is below 1e-4 x, which takes at most two steps
    over ratio in [1e-12, 1e4], one Newton step on ``_excess`` finishes."""
    if ratio < 0.3:
        s = math.sqrt(2.0 * ratio)
        x = s * (1.0 + s * (-1.0 / 3.0 + s * (11.0 / 72.0)))
    else:
        log1p_z = math.log1p((ratio - 1.0) / math.e)
        x = 1.0 + log1p_z * (1.0 - math.log1p(log1p_z) / (2.0 + log1p_z))
    for _ in range(8):
        em1 = math.expm1(x)
        excess = (x - 1.0) * em1 + x - ratio
        step = excess / (x * (em1 + 1.0) - excess * (x + 1.0) / (2.0 * x))
        x -= step
        if abs(step) <= 1e-4 * x:
            break
    return x - (_excess(x) - ratio) / (x * math.exp(x))


def _topt_rows(sy_var, n, gamma):
    """Optimal shot durations for an array of initial S_y variances: the
    unique positive root of n * [1 + (2 gamma t - 1) e^{2 gamma t}] = Var S_y,
    t_opt = x / (2 gamma) with x from ``_topt_x`` at Var S_y/n, within a few
    units in the last place over Var S_y/n in [1e-12, 1e4]. Each entry is
    solved by the same scalar code, so it gives the same bits alone as in an
    array. Raises DegenerateStateError when any variance is <= 1e-12."""
    variances = sy_var.tolist()
    for var in variances:
        if var <= _ZERO_TOL:
            raise DegenerateStateError(f"initial S_y variance must be > 0, got {var:.17g}")
    return np.array([_topt_x(var / n) / (2.0 * gamma) for var in variances])


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


def _check_reachable(gamma, total_time):
    """Reject a dephasing rate that is not finite and > 0, and a total time
    that is not finite or is below tau_dec/2 = 1/(2 gamma): shorter
    experiments fall in a regime the optimized formulas do not cover."""
    gamma = _check_scalar("dephasing rate", gamma, 0, strict=True)
    _check_scalar("total time", total_time, 0.5 / gamma, bound_name="tau_dec/2")


def solve_topt(m0: CollectiveMoments, gamma: float) -> float:
    """Optimal shot duration of the moments ``m0`` of an n = ``m0.n`` ion
    state: the unique positive root of n * [1 + (2 gamma t - 1) e^{2 gamma t}]
    = Var S_y(t=0), that is t_opt = (1 + W0((Var S_y/n - 1)/e)) / (2 gamma),
    solved by Halley steps and a Newton polish (``_topt_rows``)."""
    _check_scalar("dephasing rate", gamma, 0, strict=True)
    return float(_topt_rows(np.array([m0.sy_variance()]), m0.n, gamma)[0])


def genramsey_opt_uncertainty(
    m0: CollectiveMoments, total_time: float, gamma: float
) -> PrecisionResult:
    """Best-case generalized-Ramsey precision at delta*t = pi/2 of the
    moments ``m0`` of an n = ``m0.n`` ion state.

    sqrt(2 n gamma e^{2 gamma t_opt} / (T <S_x(0)>^2)) with t_opt from
    ``solve_topt``, both from ``_genramsey_rows``. Requires T >= tau_dec/2
    (``_check_reachable``).
    """
    n = m0.n
    _check_reachable(gamma, total_time)
    t_opt, delta_omega = (
        float(v[0])
        for v in _genramsey_rows(
            np.array([m0.sx_mean]), np.array([m0.sy_variance()]), n, total_time, gamma
        )
    )
    ref = reference_limit(n, total_time, gamma)
    return PrecisionResult(
        t_opt=t_opt,
        delta_omega=delta_omega,
        improvement_pct=100.0 * (1.0 - delta_omega / ref),
    )

