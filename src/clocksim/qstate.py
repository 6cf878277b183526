"""Construction of n-ion pure states, density matrices, and collective moments.

Basis convention: computational basis index b encodes the bit string x with
bit k of b giving the internal state of ion k+1, so ion 1 is the least
significant bit. All preparation routines produce real amplitudes; the
Ramsey pulse is the y-axis rotation |0> -> (|0>+|1>)/sqrt(2),
|1> -> (-|0>+|1>)/sqrt(2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "StateVector",
    "DensityMatrix",
    "SymmetricFamilyState",
    "CollectiveMoments",
    "RAMSEY_PULSE",
    "hamming_weights",
    "product_superposition",
    "ghz",
    "symmetric_state",
    "uniform_coefficients",
    "ghz_via_network",
    "collective_moments",
    "to_density",
    "apply_single_qubit",
    "apply_cnot",
]

# Dense 2^n x 2^n complex matrices; 12 qubits keeps a single matrix under ~270 MB.
MAX_QUBITS = 12

_NORM_TOL = 1e-12
_COEFF_TOL = 1e-9

# pi/2 rotation about the y axis, all-real amplitudes by construction.
RAMSEY_PULSE = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
RAMSEY_PULSE.flags.writeable = False


def _check_qubit_count(n, cap=MAX_QUBITS):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    if not 1 <= int(n) <= cap:
        raise ValueError(f"qubit count must be in 1..{cap}, got {n}")
    return int(n)


def _reject_non_finite(values: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} must be finite, got {values[bad]} at indices {bad}")


@functools.lru_cache(maxsize=None)
def hamming_weights(n: int) -> np.ndarray:
    """Number of 1-bits of every basis index of an n-qubit register."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``n`` ions as amplitudes over the computational basis."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        n = _check_qubit_count(self.n)
        object.__setattr__(self, "n", n)
        amps = np.ascontiguousarray(self.amps, dtype=complex)
        if amps.shape != (1 << n,):
            raise ValueError(f"amplitude vector must have length {1 << n}, got shape {amps.shape}")
        norm2 = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm2):  # NaN would slip past the norm check
            _reject_non_finite(amps, "amplitudes")
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise ValueError(f"state vector is not normalized: sum|amp|^2 = {norm2:.17g}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one matrix over the computational basis of ``n`` ions."""

    n: int
    elems: np.ndarray

    def __post_init__(self):
        n = _check_qubit_count(self.n)
        object.__setattr__(self, "n", n)
        d = 1 << n
        elems = np.ascontiguousarray(self.elems, dtype=complex)
        if elems.shape != (d, d):
            raise ValueError(f"density matrix must be {d}x{d}, got shape {elems.shape}")
        if np.abs(elems - elems.conj().T).max() > _NORM_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(elems))
        if abs(tr - 1.0) > _NORM_TOL:
            raise ValueError(f"density matrix trace must be 1, got {tr:.17g}")
        elems.flags.writeable = False
        object.__setattr__(self, "elems", elems)

    @classmethod
    def _derived(cls, n: int, elems: np.ndarray) -> "DensityMatrix":
        """Wrap the read-only ``d x d`` complex elements that a map keeping
        Hermiticity and the trace derived from a validated state, without
        checking them again."""
        state = object.__new__(cls)
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "elems", elems)
        return state

    @property
    def dim(self) -> int:
        return 1 << self.n

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; physical states satisfy >= -1e-10."""
        return float(np.linalg.eigvalsh(self.elems)[0])


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
        n = _check_qubit_count(self.n, cap=math.inf)
        object.__setattr__(self, "n", n)
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
        n = _check_qubit_count(self.n, cap=math.inf)
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

    def state_vector(self) -> StateVector:
        return symmetric_state(self.n, self.a)


def product_superposition(n: int) -> StateVector:
    """Every ion in (|0>+|1>)/sqrt(2); all 2^n amplitudes equal 2^(-n/2)."""
    n = _check_qubit_count(n)
    amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    return StateVector(n, amps)


def ghz(n: int) -> StateVector:
    """Maximally entangled state (|0...0> + |1...1>)/sqrt(2)."""
    n = _check_qubit_count(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(n, amps)


@functools.lru_cache(maxsize=None)
def _weight_classes(n: int):
    """Basis indices with Hamming weight k or n-k, for k = 0..floor(n/2)."""
    w = hamming_weights(n)
    classes = []
    for k in range(n // 2 + 1):
        idx = np.flatnonzero((w == k) | (w == n - k))
        idx.flags.writeable = False
        classes.append(idx)
    return tuple(classes)


def symmetric_state(n: int, a) -> StateVector:
    """Assemble the symmetric-family state with weight-class coefficients ``a``."""
    fam = SymmetricFamilyState(n, np.asarray(a, dtype=float))
    amps = np.zeros(1 << fam.n, dtype=complex)
    for ak, idx in zip(fam.a, _weight_classes(fam.n)):
        amps[idx] = ak / np.sqrt(len(idx))
    return StateVector(fam.n, amps)


def uniform_coefficients(n: int) -> np.ndarray:
    """Family coefficients that reproduce ``product_superposition(n)``: weight
    class k holds C(n, k) + C(n, n-k) strings (C(n, k) when k = n-k), each of
    amplitude 2^(-n/2). No 2^n array is built, so there is no qubit cap."""
    n = _check_qubit_count(n, cap=math.inf)
    sizes = [math.comb(n, k) * (1 if 2 * k == n else 2) for k in range(n // 2 + 1)]
    return np.array([np.sqrt(size / (1 << n)) for size in sizes])


def apply_single_qubit(gate: np.ndarray, k: int, arr: np.ndarray) -> np.ndarray:
    """Apply a 2x2 gate to qubit k along axis 0 of a state vector or matrix."""
    d = arr.shape[0]
    hi = d >> (k + 1)
    view = arr.reshape(hi, 2, -1)
    return np.einsum("ab,hbx->hax", gate, view).reshape(arr.shape)


def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)


def apply_cnot(control: int, target: int, arr: np.ndarray) -> np.ndarray:
    """Apply a controlled-NOT along axis 0 of a state vector or matrix."""
    n = int(arr.shape[0]).bit_length() - 1
    if control == target:
        raise ValueError("control and target must differ")
    return arr[_cnot_perm(n, control, target)]


def ghz_via_network(n: int) -> StateVector:
    """Prepare the maximally entangled state by the gate network:

    a Ramsey pulse on ion 1 followed by controlled-NOT gates from ion 1 to
    each remaining ion. Equals ``ghz(n)`` up to global phase.
    """
    n = _check_qubit_count(n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    psi = apply_single_qubit(RAMSEY_PULSE, 0, psi)
    for k in range(1, n):
        psi = apply_cnot(0, k, psi)
    return StateVector(n, psi)


@functools.lru_cache(maxsize=None)
def _dicke_ladder(n: int):
    """Weight class min(w, n-w) of each Dicke level w = 0..n, and the
    elements <D_{w+1}|J+|D_w> = sqrt((w+1)(n-w)) for w < n."""
    w = np.arange(n + 1)
    cls, ladder = np.minimum(w, n - w), np.sqrt((w[:-1] + 1.0) * (n - w[:-1]))
    cls.flags.writeable = ladder.flags.writeable = False
    return cls, ladder


def _dicke_amplitudes(state: SymmetricFamilyState) -> np.ndarray:
    """Amplitudes of a family state on the Dicke levels w = 0..n: weight class
    k is (|D_k> + |D_{n-k}>)/sqrt(2), or |D_{n/2}> alone."""
    n, (cls, _) = state.n, _dicke_ladder(state.n)
    c = state.a[cls] * math.sqrt(0.5)
    if n % 2 == 0:
        c[n // 2] = state.a[-1]
    return c


def collective_moments(state: SymmetricFamilyState) -> CollectiveMoments:
    """Exact expectations of S_x, S_x^2, S_y, S_y^2 in a family state, in O(n).

    With the Dicke amplitudes c, S_x = J+ + J- and S_y = i(J+ - J-), <S_x^2>
    and <S_y^2> are the squared norms of (J+ +- J-)c, which differ only in the
    sign of the cross term; <S_y> vanishes for real amplitudes.
    """
    n, ladder = state.n, _dicke_ladder(state.n)[1]
    c = _dicke_amplitudes(state)
    up, down = ladder * c[:-1], ladder * c[1:]  # J+ c on w = 1..n, J- c on w = 0..n-1
    norms = float(up @ up + down @ down)
    cross = 2.0 * float(up[:-1] @ down[1:])
    return CollectiveMoments(n, 2.0 * float(c[:-1] @ down), norms + cross, 0.0, norms - cross)


def to_density(psi: StateVector) -> DensityMatrix:
    """Outer product |psi><psi| as a DensityMatrix."""
    return DensityMatrix(psi.n, np.outer(psi.amps, psi.amps.conj()))
