"""Free evolution of family states under independent dephasing.

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
matrix times the blocks. ``_block_form`` builds that channel, a Gram
product per block, and the rate matrix; ``_channel_drift`` lets the QFI's
shot-time probe read the channel's shot-time derivative without building
it; ``fisher._block_qfi`` multiplies in the amplitudes. The
detuning phase exp(i delta t (j - i)) is left out: a diagonal unitary that
commutes with the dephasing, it changes neither F_Q nor the SLD
measurement's Fisher information, so the form takes only gamma and t.
"""

from __future__ import annotations

import math

import numpy as np

from .qstate import _per_n_cache

__all__ = ["MAX_BLOCK_QUBITS"]

# Largest ion number of the block form. Its channel entries are sums of
# nonnegative terms; at n = 100 the trace-one and pure-state identities hold
# to 3e-14 and 2e-15, and the QFI core's cutoff, relative to each block's
# largest eigenvalue, keeps the product-state and GHZ F_Q within 1e-12 of
# their closed forms. The cap is set by cost: one F_Q with its gradient
# takes about 0.07 s at n = 100, and a QFI coefficient search some 160-260.
MAX_BLOCK_QUBITS = 100


def _check_block_qubits(n: int) -> None:
    if not 1 <= n <= MAX_BLOCK_QUBITS:
        raise ValueError(
            f"the Schur-Weyl block QFI supports 1 <= n <= {MAX_BLOCK_QUBITS} ions, got {n}"
        )


@_per_n_cache
def _block_tables(n: int):
    """Read-only tables of the block form of an n-ion family state:
    ``(base, steps, multiplicities, spans, lowered)``.

    Schrijver maps the 0/1 matrix of string pairs (x, y) with |x| = i,
    |y| = j and |x AND y| = s to entry (i, j), i, j = k..n-k, of block k, with
    the value beta^s_{i,j,k} / sqrt(C(n-2k, i-k) C(n-2k, j-k)), where
    beta^s_{i,j,k} = sum_u (-1)^(u-s) C(u, s) C(n-2k, u-k) C(n-k-u, i-u)
    C(n-k-u, j-u), u = max(s, k)..min(i, j). A dephased element carries
    exp(-gamma t (i + j - 2s)), and the binomial theorem turns the sum over s
    into sum_u C(n-2k, u-k) C(n-k-u, i-u) C(n-k-u, j-u) p^(i+j-2u) (1-p^2)^u
    with p = exp(-gamma t): no alternating signs. Over sqrt(C(n, i) C(n, j)),
    which turns Dicke amplitudes into per-string ones, each term splits into
    an (i, u) and a (j, u) factor: block k is the Gram product
    G_k diag((1-p^2)^u) G_k^T, G_k[i, u] = base[k, i, u] p^steps[i, u], with
    base[k, i, u] = sqrt(C(n-2k, u-k)) C(n-k-u, i-u) / sqrt(C(n-2k, i-k)
    C(n, i)) for k <= u <= i <= n-k, 0 elsewhere, from log-factorials so
    that no product of binomials overflows, and steps = max(i-u, 0), clipped
    so that an underflowed p = 0 never meets a negative power. Block k
    occurs C(n, k) - C(n, k-1) times in the 2^n matrix. spans[i, j] = j - i
    (spans[0] = u, the levels) and lowered = max(u-1, 0) are exponents; the
    integer tables are held as floats, so that no product with them casts.
    The cache keeps recent n up to ``qstate._TABLE_BYTES``, one n = 100 entry.
    """
    _check_block_qubits(n)
    size = n // 2 + 1
    log_fact = np.array([math.lgamma(a + 1.0) for a in range(n + 1)])
    log_comb = lambda top, bottom: log_fact[top] - log_fact[bottom] - log_fact[top - bottom]
    k, i, u = np.ogrid[:size, : n + 1, : n + 1]
    m = n - 2 * k
    # outside the support an index may be negative and wrap; base is 0 there
    log_base = (0.5 * (log_comb(m, u - k) - log_comb(m, i - k) - log_comb(n, i))
                + log_comb(n - k - u, i - u))
    base = np.exp(np.where((k <= u) & (u <= i) & (i <= n - k), log_base, -np.inf))
    steps = np.maximum(i - u, 0)[0].astype(float)
    mult = np.array([math.comb(n, k) - math.comb(n, k - 1) if k else 1 for k in range(size)], float)
    spans, lowered = (u - i)[0].astype(float), np.maximum(u - 1, 0)[0, 0].astype(float)
    tables = base, steps, mult, spans, lowered
    for table in tables:
        table.flags.writeable = False
    return tables


def _gram_form(n: int, gamma: float, ts):
    """``(form, (p^2, q, q^u, G_k))``: the ``_block_form`` of ``ts`` and the
    factors of ``_block_tables`` it is built from, p = exp(-gamma t) and q =
    1 - p^2, for ``_channel_drift``."""
    base, steps, mult, spans, _ = _block_tables(n)
    t = np.asarray(ts, dtype=float)[..., None, None, None]
    p = np.exp(-gamma * t)
    p2 = p * p
    q = 1.0 - p2
    powers = q ** spans[0]
    gram = base * p**steps
    form = (gram * powers) @ np.swapaxes(gram, -1, -2), t * spans, mult
    return form, (p2, q, powers, gram)


def _channel_drift(n: int, gamma: float, factors):
    """F_k = G_k ∘ R on the ``_gram_form`` factors, R[i, u] = dq^u/dt - 2
    gamma (i-u) q^u, dq^u/dt = 2 gamma u p^2 q^(u-1), with the clipped
    ``steps`` i-u. By the product rule dE_k/dt = A + A^T + G_k diag(dq^u/dt)
    G_k^T, A = (-gamma (i-u) G_k) diag(q^u) G_k^T, so for a symmetric Y
    <dE_k/dt, Y> = sum_{i,u} F_k[i, u] (Y G_k)[i, u]: one matrix product."""
    p2, q, powers, gram = factors
    _, steps, _, spans, lowered = _block_tables(n)
    return gram * (2.0 * gamma * (p2 * spans[0] * q**lowered - steps * powers))


def _block_form(n: int, gamma: float, ts):
    """The state-independent block form of an n-ion family state evolved for
    every duration of ``ts``: ``(channel, rates, multiplicities)``.

    ``channel`` is E_k(t) = G_k diag(q^u) G_k^T of ``_block_tables``, q =
    1 - p^2, one stacked matrix product of shape ``np.shape(ts) + (K, n+1,
    n+1)``, K = floor(n/2) + 1. ``rates`` is D(t)[i, j] = t (j - i), shape
    ``np.shape(ts) + (1, n+1, n+1)``. Block k of a family state with Dicke
    amplitudes c is rho_k = E_k ∘ c c^T and its detuning derivative
    i D ∘ rho_k; it fills rows and columns k..n-k and is zero elsewhere, so
    the padding only adds null directions; the detuning phase is left out
    (module docstring). Each duration's blocks are their own matrix
    products, so a stacked duration gives the same bits as a single one. The
    scalars are not checked here: callers validate them once, at the API
    boundary (finite ``gamma`` >= 0, finite durations >= 0).
    """
    return _gram_form(n, gamma, ts)[0]
