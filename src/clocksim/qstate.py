"""Symmetric family states and their collective moments.

A family state of n ions is a permutation- and flip-symmetric superposition
with real weight-class coefficients. It is held as its floor(n/2)+1
coefficients and evaluated on its n+1 Dicke amplitudes, so no 2^n object is
built and the ion count has no cap.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymmetricFamilyState",
    "CollectiveMoments",
    "uniform_coefficients",
    "collective_moments",
]

_COEFF_TOL = 1e-9
# Bytes of per-n tables that each ``_per_n_cache`` keeps, about one n = 100
# entry of ``evolution._block_tables`` (4.2 MB): a sweep asks for each n in
# turn, and every n up to 100 of those tables would hold about 105 MiB.
_TABLE_BYTES = 1 << 22


def _check_qubit_count(n):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"ion count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"ion count must be >= 1, got {n}")
    return int(n)


def _check_scalar(name, value, bound=None, strict=False, bound_name=None):
    """``value`` as a float, if it is a finite number and, given a ``bound``,
    > it (``strict``) or >= it; else ValueError naming the quantity ``name``
    and the bound, as ``bound_name = bound`` when the bound has a name. The
    one check of every scalar input: n is ``_check_qubit_count``'s."""
    finite = math.isfinite(value)  # TypeError for a non-number
    value = float(value)
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if bound is not None and (value <= bound if strict else value < bound):
        shown = f"{bound_name} = {bound}" if bound_name else bound
        raise ValueError(f"{name} must be {'>' if strict else '>='} {shown}, got {value!r}")
    return value


def _reject_non_finite(values: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} must be finite, got {values[bad]} at indices {bad}")


@dataclass(frozen=True)
class CollectiveMoments:
    """First and second moments of the collective spin operators S_x and S_y.

    Carries the ion count so the moment bounds (|<S_x>| <= n, <S_x^2> <= n^2)
    and the dephasing-evolution formulas can be applied without extra context.
    """

    n: int
    sx_mean: float
    sx2_mean: float
    sy_mean: float
    sy2_mean: float

    def __post_init__(self):
        n = _check_qubit_count(self.n)
        object.__setattr__(self, "n", n)
        for name in ("sx_mean", "sx2_mean", "sy_mean", "sy2_mean"):
            _check_scalar(name, getattr(self, name))
        tol = 1e-9 * max(1.0, n * n)
        if self.sx2_mean < self.sx_mean**2 - tol or self.sy2_mean < self.sy_mean**2 - tol:
            raise ValueError("second moment smaller than squared mean")
        if abs(self.sx_mean) > n + tol or abs(self.sy_mean) > n + tol:
            raise ValueError(f"|mean collective spin| cannot exceed n={n}")
        if self.sx2_mean > n * n + tol or self.sy2_mean > n * n + tol:
            raise ValueError(f"collective second moment cannot exceed n^2={n * n}")

    def sy_variance(self) -> float:
        return self.sy2_mean - self.sy_mean**2


@dataclass(frozen=True)
class SymmetricFamilyState:
    """Permutation- and flip-symmetric state family over weight classes.

    ``a[k]`` weights the normalized, equally weighted superposition of all
    basis strings whose Hamming weight is k or n-k, for k = 0..floor(n/2).
    Coefficients within 1e-9 of unit norm are renormalized; anything further
    off, or any non-finite coefficient, is rejected.
    """

    n: int
    a: np.ndarray

    def __post_init__(self):
        n = _check_qubit_count(self.n)
        object.__setattr__(self, "n", n)
        a = np.ascontiguousarray(self.a, dtype=float)
        if a.shape != (n // 2 + 1,):
            raise ValueError(f"need {n // 2 + 1} coefficients for n={n}, got shape {a.shape}")
        norm2 = float(a @ a)
        if not math.isfinite(norm2):  # NaN would slip past the norm check
            _reject_non_finite(a, "coefficients")
        if abs(norm2 - 1.0) > _COEFF_TOL:
            raise ValueError(f"coefficients not normalized: sum a^2 = {norm2:.17g}")
        a = a / np.sqrt(norm2)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)


def uniform_coefficients(n: int) -> np.ndarray:
    """Family coefficients of the product state, every ion in
    (|0>+|1>)/sqrt(2): weight class k holds C(n, k) + C(n, n-k) strings
    (C(n, k) when k = n-k), each of amplitude 2^(-n/2)."""
    n = _check_qubit_count(n)
    sizes = [math.comb(n, k) * (1 if 2 * k == n else 2) for k in range(n // 2 + 1)]
    return np.array([np.sqrt(size / (1 << n)) for size in sizes])


def _per_n_cache(build):
    """``build(n)``, an array or a tuple of arrays, kept for the most
    recently used n while the entries total at most ``_TABLE_BYTES``; the
    latest entry is always kept. ``cache_clear()`` empties the cache."""
    held = OrderedDict()  # n -> (tables, bytes), least recently used first

    @functools.wraps(build)
    def cached(n):
        if n in held:
            held.move_to_end(n)
            return held[n][0]
        tables = build(n)
        arrays = tables if isinstance(tables, tuple) else (tables,)
        held[n] = tables, sum(table.nbytes for table in arrays)
        total = sum(size for _, size in held.values())
        while total > _TABLE_BYTES and len(held) > 1:
            total -= held.popitem(last=False)[1][1]
        return tables

    cached.cache_clear = held.clear
    return cached


@_per_n_cache
def _dicke_ladder(n: int):
    """Weight class min(w, n-w) of each Dicke level w = 0..n, and the
    elements <D_{w+1}|J+|D_w> = sqrt((w+1)(n-w)) for w < n."""
    w = np.arange(n + 1)
    cls, ladder = np.minimum(w, n - w), np.sqrt((w[:-1] + 1.0) * (n - w[:-1]))
    cls.flags.writeable = ladder.flags.writeable = False
    return cls, ladder


def _dicke_amplitudes(n: int, a: np.ndarray) -> np.ndarray:
    """Amplitudes on the Dicke levels w = 0..n of the n-ion family
    coefficients in the last axis of ``a``: weight class k is
    (|D_k> + |D_{n-k}>)/sqrt(2), or |D_{n/2}> alone."""
    c = a[..., _dicke_ladder(n)[0]] * math.sqrt(0.5)
    if n % 2 == 0:
        c[..., n // 2] = a[..., -1]
    return c


@_per_n_cache
def _flip_even_isometry(n: int) -> np.ndarray:
    """Read-only ``_dicke_amplitudes(n, I)``: row k is P e_k, with P the
    isometry from the n//2+1 family coefficients to the n+1 Dicke
    amplitudes, so ``iso @ c`` is P^T c. The array keeps the Fortran order
    that ``_dicke_amplitudes`` gives a stack (strides (8, 8 (n//2+1))):
    products with it are summed in that order, and a C-contiguous copy gives
    other last bits."""
    iso = _dicke_amplitudes(n, np.eye(n // 2 + 1))
    iso.flags.writeable = False
    return iso


def _moment_rows(n: int, c: np.ndarray):
    """``(<S_x>, <S_x^2>, <S_y^2>)`` of each row of the stack ``c`` of n-ion
    Dicke amplitudes, shape (rows, n+1), in O(n) per row.

    With S_x = J+ + J- and S_y = i(J+ - J-), <S_x^2> and <S_y^2> are the
    squared norms of the vectors (J+ +- J-)c themselves: squared norms of J+ c
    and J- c minus their cross term would cancel to 3e-12 relative at n =
    1000 near the gen-Ramsey optimum, where <S_y^2> is far below n^2. <S_y>
    vanishes for real amplitudes. Every sum runs along one contiguous row,
    so a row gives the same bits alone as in a stack.
    """
    ladder, c = _dicke_ladder(n)[1], np.ascontiguousarray(c)
    up, down = np.zeros_like(c), np.zeros_like(c)  # on the levels w = 0..n
    up[:, 1:], down[:, :-1] = ladder * c[:, :-1], ladder * c[:, 1:]  # J+ c and J- c
    plus, minus = up + down, up - down
    sx = 2.0 * (c[:, :-1] * down[:, :-1]).sum(-1)
    return sx, (plus * plus).sum(-1), (minus * minus).sum(-1)


def collective_moments(state: SymmetricFamilyState) -> CollectiveMoments:
    """Exact expectations of S_x, S_x^2, S_y, S_y^2 in a family state, in O(n),
    from its Dicke amplitudes (``_moment_rows``)."""
    sx, sx2, sy2 = _moment_rows(state.n, _dicke_amplitudes(state.n, state.a[None]))
    return CollectiveMoments(state.n, float(sx[0]), float(sx2[0]), 0.0, float(sy2[0]))
