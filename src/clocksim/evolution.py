"""Free evolution of detuned ions under independent dephasing.

Rate convention: gamma = 1/tau_dec is defined so that a single-qubit
off-diagonal element decays as exp(-gamma*t). In the rotating frame the
matrix element <x|rho(t)|y> equals the initial element times
exp(+i*delta*t*(h(y)-h(x))) * exp(-gamma*t*d(x,y)), with h the Hamming
weight and d the Hamming distance of the basis strings. Populations are
exactly preserved.

The map and its detuning derivative are evaluated by one kernel over a stack
of durations; ``dephase_evolve`` and ``drho_ddelta`` are its
single-duration forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, hamming_weights

__all__ = [
    "DephasingParams",
    "dephase_evolve",
    "drho_ddelta",
]


@dataclass(frozen=True)
class DephasingParams:
    """Detuning delta = omega - omega_0, dephasing rate gamma, duration t."""

    delta: float
    gamma: float
    t: float

    def __post_init__(self):
        for name in ("delta", "gamma", "t"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.gamma < 0.0:
            raise ValueError(f"dephasing rate must be >= 0, got {self.gamma}")
        if self.t < 0.0:
            raise ValueError(f"duration must be >= 0, got {self.t}")


@functools.lru_cache(maxsize=None)
def _weight_diff(n: int) -> np.ndarray:
    """Matrix h(y) - h(x) over basis index pairs (x, y)."""
    w = hamming_weights(n).astype(np.int16)
    wd = w[None, :] - w[:, None]
    wd.flags.writeable = False
    return wd


@functools.lru_cache(maxsize=None)
def _hamming_distance(n: int) -> np.ndarray:
    """Matrix d(x, y) = popcount(x xor y) over basis index pairs."""
    w = hamming_weights(n)
    idx = np.arange(1 << n)
    dist = w[idx[:, None] ^ idx[None, :]].astype(np.uint8)
    dist.flags.writeable = False
    return dist


def _evolve_stack(rho0: DensityMatrix, delta: float, gamma: float, ts):
    """Evolved elements rho(t) and their detuning derivative i*t*W∘rho(t),
    with W[x, y] = h(y) - h(x), for every duration of ``ts``.

    Both read-only arrays have shape ``np.shape(ts) + (d, d)`` and share one
    exponential per duration. The map keeps the diagonal exactly (its
    diagonal factor is exp(0) = 1) and conjugate symmetry, so a state derived
    from a validated ``rho0`` needs no second validation. The scalars are not
    checked here: callers validate them once, at the API boundary (finite
    ``delta``, finite ``gamma`` >= 0, finite durations >= 0).
    """
    n = rho0.n
    t = np.asarray(ts, dtype=float)[..., None, None]
    wd = _weight_diff(n)
    evolved = rho0.elems * np.exp((1j * delta * t) * wd - (gamma * t) * _hamming_distance(n))
    drho = evolved * ((1j * t) * wd)
    evolved.flags.writeable = False
    drho.flags.writeable = False
    return evolved, drho


def dephase_evolve(rho0: DensityMatrix, p: DephasingParams) -> DensityMatrix:
    """Exact analytic evolution map; diagonal elements are untouched."""
    return DensityMatrix._derived(rho0.n, _evolve_stack(rho0, p.delta, p.gamma, p.t)[0])


def drho_ddelta(rho0: DensityMatrix, p: DephasingParams) -> np.ndarray:
    """Analytic derivative of the evolved state with respect to the detuning.

    Elementwise i*t*(h(y)-h(x)) times the evolved element, from the same
    kernel evaluation as ``dephase_evolve``; the result is exactly Hermitian
    and traceless (its diagonal is zero).
    """
    return _evolve_stack(rho0, p.delta, p.gamma, p.t)[1]
