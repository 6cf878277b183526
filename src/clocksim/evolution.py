"""Free evolution of detuned ions under independent dephasing.

Rate convention: gamma = 1/tau_dec is defined so that a single-qubit
off-diagonal element decays as exp(-gamma*t). In the rotating frame the
matrix element <x|rho(t)|y> equals the initial element times
exp(+i*delta*t*(h(y)-h(x))) * exp(-gamma*t*d(x,y)), with h the Hamming
weight and d the Hamming distance of the basis strings. Populations are
exactly preserved.
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


def dephase_evolve(rho0: DensityMatrix, p: DephasingParams) -> DensityMatrix:
    """Exact analytic evolution map; diagonal elements are untouched."""
    n = rho0.n
    factor = np.exp(
        (1j * p.delta * p.t) * _weight_diff(n) - (p.gamma * p.t) * _hamming_distance(n)
    )
    return DensityMatrix(n, rho0.elems * factor)


def drho_ddelta(rho0: DensityMatrix, p: DephasingParams) -> np.ndarray:
    """Analytic derivative of the evolved state with respect to the detuning.

    Elementwise i*t*(h(y)-h(x)) times the evolved element; the result is
    Hermitian and traceless.
    """
    n = rho0.n
    evolved = dephase_evolve(rho0, p).elems
    return evolved * ((1j * p.t) * _weight_diff(n))
