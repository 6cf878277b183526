"""Quantum Fisher information of the detuning for dephased family states,
and the classical Fisher information of the optimal projective measurement
built from the symmetric logarithmic derivative (SLD).

F_Q = sum over eigenpairs (j, k) of rho with lambda_j + lambda_k > 1e-12 of
2 |<j| drho |k>|^2 / (lambda_j + lambda_k). The eigenvalue cutoff is
load-bearing: dephased states are generically rank-deficient and the cutoff
restricts the sum to the supported subspace. The SLD eigenbasis is the
projective measurement whose classical Fisher information attains F_Q; the
precision of any measurement and estimator over nu = T/t repetitions is
bounded below by 1/sqrt(nu * F_Q).

A dephased family state and its derivative are block-diagonal on the
floor(n/2)+1 Schur-Weyl blocks of ``evolution._family_evolution``, so their F_Q
is the multiplicity-weighted sum of the blocks' F_Q, on (n+1) x (n+1)
matrices instead of 2^n x 2^n ones, and the SLD measurement splits the same
way (``family_qfi``).
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import DephasingParams, _block_tables, _family_evolution
from .exceptions import NoInformationError, SingularOutcomeError
from .qstate import SymmetricFamilyState

__all__ = [
    "EIG_CUTOFF",
    "QFI_FLOOR",
    "family_qfi",
    "qfi_uncertainty",
]

EIG_CUTOFF = 1e-12
# F_Q below this carries no information about the detuning
QFI_FLOOR = 1e-30
_NO_INFORMATION = "state carries no information about the detuning"

_P_FLOOR = 1e-15
_DP_FLOOR = 1e-12


def _fisher_sum(probs: np.ndarray, dprobs: np.ndarray) -> float:
    total = 0.0
    for p, dp in zip(probs, dprobs):
        if p < _P_FLOOR:
            if abs(dp) < _DP_FLOOR:
                continue
            raise SingularOutcomeError(
                f"outcome probability {p:.3g} vanishes while its derivative {dp:.3g} does not"
            )
        total += dp * dp / p
    return total


def _qfi_core(rho: np.ndarray, drho: np.ndarray):
    """F_Q of each state of a stack ``rho`` of shape ``(..., d, d)`` with its
    derivative in ``drho``, together with the eigenbasis data the SLD is built
    from: rho's eigenvectors, drho in that basis, the pair denominators (1
    outside the support) and the support mask. The derivatives are not
    checked here."""
    lam, vecs = np.linalg.eigh(rho)
    dmat = np.swapaxes(vecs.conj(), -1, -2) @ drho @ vecs
    denom = lam[..., :, None] + lam[..., None, :]
    mask = denom > EIG_CUTOFF
    denom = np.where(mask, denom, 1.0)
    terms = np.where(mask, 2.0 * np.abs(dmat) ** 2 / denom, 0.0)
    # Each state's terms are summed as one contiguous row in index order, so
    # a stacked F_Q equals the single-state one to the last bit, and so do
    # the shot-time optima and the CLI output bytes built on it.
    fq = terms.reshape(lam.shape[:-1] + (-1,)).sum(-1)
    return fq, vecs, dmat, denom, mask


def _sld(vecs, dmat, denom, mask) -> np.ndarray:
    """SLDs L = V where(mask, 2 dmat / denom, 0) V^dagger of a stack, from the
    eigenbasis data of ``_qfi_core``."""
    return vecs @ np.where(mask, 2.0 * dmat / denom, 0.0) @ np.swapaxes(vecs.conj(), -1, -2)


def _sld_bases(*eigdata) -> np.ndarray:
    """Eigenbases of the SLDs of a stack, from the eigenbasis data of
    ``_qfi_core``."""
    return np.linalg.eigh(_sld(*eigdata))[1]


def _outcome_probs(basis: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """<b_m| mat |b_m> for every column b_m of each basis of a stack."""
    return np.einsum("...im,...ij,...jm->...m", basis.conj(), mat, basis).real


def _family_qfi_at(state: SymmetricFamilyState, gamma: float):
    """The function mapping durations ``ts`` to the F_Q of the evolved family
    state at each: the multiplicity-weighted sum of its blocks' F_Q."""
    mult = _block_tables(state.n)[2]
    return lambda ts: (_qfi_core(*_family_evolution(state, gamma, ts))[0] * mult).sum(-1)


def family_qfi(state: SymmetricFamilyState, p: DephasingParams):
    """Quantum Fisher information of a family state evolved by ``p``, and the
    classical Fisher information of its SLD measurement, from the state's
    Schur-Weyl blocks without any 2^n matrix (1 <= n <= 20). Returns
    ``(qfi, classical_fi_check)``; each block's SLD eigenbasis is measured
    and its Fisher sum weighted by the block's multiplicity. ``p.delta`` is
    ignored: the detuning phase is a diagonal unitary that commutes with the
    dephasing, so neither number depends on it."""
    blocks, dblocks = _family_evolution(state, p.gamma, p.t)
    mult = _block_tables(state.n)[2]
    fq, *eigdata = _qfi_core(blocks, dblocks)
    bases = _sld_bases(*eigdata)
    probs, dprobs = _outcome_probs(bases, blocks), _outcome_probs(bases, dblocks)
    cfi = sum(m * _fisher_sum(pk, dpk) for m, pk, dpk in zip(mult, probs, dprobs))
    return float((fq * mult).sum(-1)), float(cfi)


def qfi_uncertainty(qfi_per_shot: float, total_time: float, shot_time: float) -> float:
    """Optimal-measurement precision bound 1/sqrt((T/t) * F_Q)."""
    if not (total_time > 0.0 and shot_time > 0.0):
        raise ValueError("total_time and shot_time must be > 0")
    if not math.isfinite(total_time):
        raise ValueError(f"total time must be finite, got {total_time}")
    if total_time < shot_time:
        raise ValueError(f"total time {total_time} smaller than shot time {shot_time}")
    if qfi_per_shot < QFI_FLOOR:
        raise NoInformationError(_NO_INFORMATION)
    return 1.0 / math.sqrt((total_time / shot_time) * qfi_per_shot)
