"""Closed-form Ramsey signals and frequency uncertainties, with and without
dephasing.

Data accounting: the uncorrelated scheme collects N = n*T/t independent data
(one per ion per repetition); entangled and collective schemes collect
N = T/t (one measurement per repetition). Uncertainties use large-N Gaussian
error propagation throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPointError

__all__ = [
    "ExperimentBudget",
    "PrecisionResult",
    "signal_uncorrelated",
    "signal_ghz",
    "uncertainty_uncorrelated",
    "uncertainty_ghz",
    "reference_limit",
]

_SIN_TOL = 1e-12


@dataclass(frozen=True)
class ExperimentBudget:
    """Resources of one experiment: ion count n, total time T, shot time t."""

    n: int
    total_time: float
    shot_time: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"ion count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        t = float(self.shot_time)
        total = float(self.total_time)
        if not (t > 0.0 and math.isfinite(t)):
            raise ValueError(f"shot time must be > 0, got {t!r}")
        if not (total >= t and math.isfinite(total)):
            raise ValueError(f"total time must be >= shot time, got T={total!r}, t={t!r}")
        object.__setattr__(self, "shot_time", t)
        object.__setattr__(self, "total_time", total)


@dataclass(frozen=True)
class PrecisionResult:
    """Optimized gen-Ramsey precision, at delta*t = pi/2, and its gain over
    the reference limit."""

    t_opt: float
    delta_omega: float
    improvement_pct: float

    def __post_init__(self):
        if not self.delta_omega > 0.0:
            raise ValueError(f"frequency uncertainty must be > 0, got {self.delta_omega!r}")


def _check_rates(t, gamma, delta):
    for name, value in (("duration", t), ("dephasing rate", gamma), ("detuning", delta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if t < 0.0:
        raise ValueError(f"duration must be >= 0, got {t}")
    if gamma < 0.0:
        raise ValueError(f"dephasing rate must be >= 0, got {gamma}")


def signal_uncorrelated(delta: float, t: float, gamma: float) -> float:
    """Probability (1 + cos(delta*t) * exp(-gamma*t)) / 2 of finding an ion in |1>."""
    _check_rates(t, gamma, delta)
    return 0.5 * (1.0 + math.cos(delta * t) * math.exp(-gamma * t))


def signal_ghz(n: int, delta: float, t: float, gamma: float) -> float:
    """Maximally entangled signal (1 + cos(n*delta*t) * exp(-n*gamma*t)) / 2."""
    if n < 1:
        raise ValueError(f"ion count must be >= 1, got {n}")
    _check_rates(t, gamma, delta)
    return 0.5 * (1.0 + math.cos(n * delta * t) * math.exp(-n * gamma * t))


def uncertainty_uncorrelated(budget: ExperimentBudget, delta: float, gamma: float) -> float:
    """Frequency uncertainty of standard Ramsey spectroscopy with dephasing.

    sqrt((1 - cos^2(delta*t) e^{-2 gamma t}) / (n T t e^{-2 gamma t} sin^2(delta*t))).
    Reduces to the shot-noise limit 1/sqrt(nTt) at gamma=0, delta*t = pi/2.
    """
    _check_rates(budget.shot_time, gamma, delta)
    t = budget.shot_time
    phase = delta * t
    s = math.sin(phase)
    if abs(s) < _SIN_TOL:
        raise SingularPointError(f"zero signal slope at delta*t = {phase!r} (multiple of pi)")
    c2 = math.cos(phase) ** 2
    decay2 = np.exp(-2.0 * gamma * t)
    return float(
        np.sqrt((1.0 - c2 * decay2) / (budget.n * budget.total_time * t * decay2 * s * s))
    )


def uncertainty_ghz(budget: ExperimentBudget, delta: float, gamma: float) -> float:
    """Frequency uncertainty of the maximally entangled scheme with dephasing."""
    _check_rates(budget.shot_time, gamma, delta)
    n, t = budget.n, budget.shot_time
    phase = n * delta * t
    s = math.sin(phase)
    if abs(s) < _SIN_TOL:
        raise SingularPointError(f"zero signal slope at n*delta*t = {phase!r} (multiple of pi)")
    c2 = math.cos(phase) ** 2
    decay2 = np.exp(-2.0 * n * gamma * t)
    return float(
        np.sqrt((1.0 - c2 * decay2) / (n * n * budget.total_time * t * decay2 * s * s))
    )


def reference_limit(n: int, total_time: float, gamma: float) -> float:
    """Minimum uncertainty sqrt(2*gamma*e/(n*T)) of the uncorrelated scheme.

    Shared by the maximally entangled scheme at its own optimal shot time;
    the baseline against which improvements are quoted.
    """
    if n < 1:
        raise ValueError(f"ion count must be >= 1, got {n}")
    if not total_time > 0:
        raise ValueError(f"total time must be > 0, got {total_time}")
    if gamma < 0.0:
        raise ValueError(f"dephasing rate must be >= 0, got {gamma}")
    return math.sqrt(2.0 * gamma * math.e / (n * total_time))
