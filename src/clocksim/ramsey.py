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
from .qstate import _check_qubit_count, _check_scalar

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
        object.__setattr__(self, "n", _check_qubit_count(self.n))
        t = _check_scalar("shot time", self.shot_time, 0, strict=True)
        object.__setattr__(self, "shot_time", t)
        total = _check_scalar("total time", self.total_time, t, bound_name="shot time")
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


def _signal(m, delta, t, gamma):
    """(1 + cos(m*delta*t) * exp(-m*gamma*t)) / 2: the signal of m ions in a
    GHZ state, which act as one ion at detuning m*delta and rate m*gamma (m
    = 1: one ion)."""
    _check_scalar("duration", t, 0)
    _check_scalar("dephasing rate", gamma, 0)
    _check_scalar("detuning", delta)
    return 0.5 * (1.0 + math.cos(m * delta * t) * math.exp(-m * gamma * t))


def _uncertainty(budget, delta, gamma, m):
    """Frequency uncertainty of the budget's n ions as n/m GHZ states of m
    ions each (m = 1: uncorrelated ions, m = n: one GHZ state), each one ion
    at detuning m*delta and rate m*gamma with m^2 times its weight:
    sqrt((1 - cos^2(phi) e^{-2 m gamma t}) / (n m T t e^{-2 m gamma t}
    sin^2(phi))), phi = m*delta*t. A decay that underflows gives inf."""
    _check_scalar("dephasing rate", gamma, 0)
    _check_scalar("detuning", delta)
    t = budget.shot_time
    phase = m * delta * t
    s = math.sin(phase)
    if abs(s) < _SIN_TOL:
        raise SingularPointError(f"zero signal slope at phase {phase!r} (multiple of pi)")
    c2 = math.cos(phase) ** 2
    decay2 = np.exp(-2.0 * m * gamma * t)
    with np.errstate(divide="ignore"):
        return float(
            np.sqrt((1.0 - c2 * decay2) / (budget.n * m * budget.total_time * t * decay2 * s * s))
        )


def signal_uncorrelated(delta: float, t: float, gamma: float) -> float:
    """Probability (1 + cos(delta*t) * exp(-gamma*t)) / 2 of finding an ion in |1>."""
    return _signal(1, delta, t, gamma)


def signal_ghz(n: int, delta: float, t: float, gamma: float) -> float:
    """Maximally entangled signal (1 + cos(n*delta*t) * exp(-n*gamma*t)) / 2."""
    return _signal(_check_qubit_count(n), delta, t, gamma)


def uncertainty_uncorrelated(budget: ExperimentBudget, delta: float, gamma: float) -> float:
    """Frequency uncertainty of standard Ramsey spectroscopy with dephasing.

    sqrt((1 - cos^2(delta*t) e^{-2 gamma t}) / (n T t e^{-2 gamma t} sin^2(delta*t))).
    Reduces to the shot-noise limit 1/sqrt(nTt) at gamma=0, delta*t = pi/2.
    """
    return _uncertainty(budget, delta, gamma, 1)


def uncertainty_ghz(budget: ExperimentBudget, delta: float, gamma: float) -> float:
    """Frequency uncertainty of the maximally entangled scheme with dephasing."""
    return _uncertainty(budget, delta, gamma, budget.n)


def reference_limit(n: int, total_time: float, gamma: float) -> float:
    """Minimum uncertainty sqrt(2*gamma*e/(n*T)) of the uncorrelated scheme.

    Shared by the maximally entangled scheme at its own optimal shot time;
    the baseline against which improvements are quoted.
    """
    n = _check_qubit_count(n)
    total_time = _check_scalar("total time", total_time, 0, strict=True)
    gamma = _check_scalar("dephasing rate", gamma, 0)
    return math.sqrt(2.0 * gamma * math.e / (n * total_time))
