"""Free evolution of detuned family states under independent dephasing.

Rate convention: gamma = 1/tau_dec is defined so that a single-qubit
off-diagonal element decays as exp(-gamma*t). In the rotating frame the
element of the evolved state between basis strings x and y is the initial
one times exp(+i*delta*t*(|y|-|x|)) * exp(-gamma*t*d(x,y)), with |x| the
Hamming weight and d the Hamming distance; populations are exactly
preserved.

A family state never needs the 2^n matrix: its evolved elements depend on
the strings only through |x|, |y| and |x AND y|, so it lies in the Terwilliger
algebra of the n-cube, which A. Schrijver block-diagonalized in closed form
(IEEE Trans. Inf. Theory 51, 2859 (2005)). On those floor(n/2)+1 blocks,
the total-spin sectors j = n/2 - k (Chase & Geremia, PRA 78, 052101 (2008)),
it is a real, state-independent channel times the outer product of the
Dicke amplitudes, and its detuning derivative is i times a real rate
matrix times the blocks. ``_block_form`` builds that channel and rate
matrix, ``_channel_rate`` the channel's shot-time derivative for the QFI
gradient; ``fisher._block_qfi`` multiplies in the amplitudes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_BLOCK_QUBITS",
    "DephasingParams",
]

# Largest ion number of the block form. Its weights are sums of nonnegative
# terms, and the pure-state and trace-one identities hold to ~1e-15 well
# beyond it, but the absolute eigenvalue cutoff of the QFI core drops sectors
# of growing total weight: the product state's F_Q is 1e-10 low at n = 20 and
# 2e-5 low at n = 30.
MAX_BLOCK_QUBITS = 20


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


def _check_block_qubits(n: int) -> None:
    if not 1 <= n <= MAX_BLOCK_QUBITS:
        raise ValueError(
            f"the Schur-Weyl block QFI supports 1 <= n <= {MAX_BLOCK_QUBITS} ions, got {n}"
        )


@functools.lru_cache(maxsize=None)
def _block_tables(n: int):
    """Read-only tables of the block form of an n-ion family state:
    ``(weights, exponents, multiplicities)``.

    Schrijver maps the 0/1 matrix of string pairs (x, y) with |x| = i,
    |y| = j and |x AND y| = s to entry (i, j), i, j = k..n-k, of block k, with
    the value beta^s_{i,j,k} / sqrt(C(n-2k, i-k) C(n-2k, j-k)), where
    beta^s_{i,j,k} = sum_u (-1)^(u-s) C(u, s) C(n-2k, u-k) C(n-k-u, i-u)
    C(n-k-u, j-u), u = max(s, k)..min(i, j). A dephased element carries
    exp(-gamma t (i + j - 2s)), and the binomial theorem turns the sum over s
    into sum_u C(n-2k, u-k) C(n-k-u, i-u) C(n-k-u, j-u) p^(i+j-2u) (1-p^2)^u
    with p = exp(-gamma t): no alternating signs. ``weights[k, i, j, u]`` is
    that integer over sqrt(C(n-2k, i-k) C(n-2k, j-k) C(n, i) C(n, j)); the
    last two binomials turn Dicke amplitudes into per-string ones. Block k
    occurs C(n, k) - C(n, k-1) times in the 2^n matrix.
    """
    _check_block_qubits(n)
    size = n // 2 + 1
    weights = np.zeros((size, n + 1, n + 1, n + 1))
    for k in range(size):
        m = n - 2 * k
        for i in range(k, n - k + 1):
            for j in range(i, n - k + 1):
                norm = math.sqrt(math.comb(m, i - k) * math.comb(m, j - k)
                                 * math.comb(n, i) * math.comb(n, j))
                for u in range(k, i + 1):
                    r = n - k - u
                    count = math.comb(m, u - k) * math.comb(r, i - u) * math.comb(r, j - u)
                    weights[k, i, j, u] = weights[k, j, i, u] = count / norm
    w = np.arange(n + 1)
    # i + j - 2u, clipped where the weight is zero (u > min(i, j)) so that an
    # underflowed p = 0 never meets a negative power
    exponents = np.maximum(w[:, None, None] + w[None, :, None] - 2 * w, 0)
    mult = np.array([math.comb(n, k) - math.comb(n, k - 1) if k else 1 for k in range(size)], float)
    for table in (weights, exponents, mult):
        table.flags.writeable = False
    return weights, exponents, mult


def _block_form(n: int, gamma: float, ts):
    """The state-independent block form of an n-ion family state evolved for
    every duration of ``ts``: ``(channel, rates, multiplicities)``.

    ``channel`` is E_k(t)[i, j] = sum_u weights[k, i, j, u] p^(i+j-2u)
    (1-p^2)^u with p = exp(-gamma t), shape ``np.shape(ts) + (K, n+1, n+1)``,
    K = floor(n/2) + 1; ``rates`` is D(t)[i, j] = t (j - i), shape
    ``np.shape(ts) + (1, n+1, n+1)``. Block k of a family state with Dicke
    amplitudes c is rho_k = E_k ∘ c c^T and its detuning derivative i D ∘ rho_k;
    it fills rows and columns k..n-k and is zero elsewhere, so the padding
    only adds null directions. The detuning phase exp(i delta t (j-i)) is
    left out: a diagonal unitary that commutes with the dephasing, it
    changes neither F_Q nor the SLD measurement's Fisher information. Each
    entry is a sum over the last axis of its own weights, so a stacked
    duration gives the same bits as a single one. The scalars are not
    checked here: callers validate them once, at the API boundary (finite
    ``gamma`` >= 0, finite durations >= 0).
    """
    weights, exponents, mult = _block_tables(n)
    levels = np.arange(n + 1)
    t = np.asarray(ts, dtype=float)[..., None, None, None]
    p = np.exp(-gamma * t)
    decay = p**exponents * (1.0 - p * p) ** levels
    channel = (weights * decay[..., None, :, :, :]).sum(-1)
    return channel, t * (levels - levels[:, None]), mult


def _channel_rate(n: int, gamma: float, ts):
    """dE_k/dt of the channel of ``_block_form``, in its shape: with
    q = 1 - p^2, d/dt [p^(i+j-2u) q^u] = gamma p^(i+j-2u) (2u p^2 q^(u-1) -
    (i+j-2u) q^u), weighted and summed within each entry like the channel,
    so a stacked duration again gives the bits of a single one."""
    weights, exponents, _ = _block_tables(n)
    levels = np.arange(n + 1)
    p = np.exp(-gamma * np.asarray(ts, dtype=float)[..., None, None, None])
    q = 1.0 - p * p
    rate = gamma * p**exponents * (
        2.0 * levels * p * p * q ** np.maximum(levels - 1, 0) - exponents * q**levels
    )
    return (weights * rate[..., None, :, :, :]).sum(-1)
