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
floor(n/2)+1 Schur-Weyl blocks of ``evolution._block_form``, so their F_Q is
the multiplicity-weighted sum of the blocks' F_Q, on (n+1) x (n+1) matrices
instead of 2^n x 2^n ones, and the SLD measurement splits the same way. The
blocks are real and their derivative is i times a real matrix; F_Q sees only
|<j| drho |k>|, so one real evaluation, ``_block_qfi``, gives the F_Q of
``family_qfi``, of the shot-time optimum and of the see-saw's score
(``_seesaw_maps``), for one state or stacks of states and shot times.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import DephasingParams, _block_form
from .exceptions import NoInformationError, SingularOutcomeError
from .qstate import SymmetricFamilyState, _dicke_amplitudes

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


def _block_qfi(c, channel, rates, mult):
    """F_Q of the family states with Dicke-amplitude rows ``c`` on the block
    form ``(channel, rates, mult)`` of ``evolution._block_form``, rows and
    shot times broadcasting against each other. Returns the
    multiplicity-weighted F_Q, the blocks rho = E ∘ c c^T, their real
    derivative D ∘ rho (drho = i D ∘ rho, which has the same F_Q) and the
    eigenbasis data of ``_qfi_core``."""
    blocks = channel * (c[..., None, :, None] * c[..., None, None, :])
    drho = blocks * rates
    fq, *eigdata = _qfi_core(blocks, drho)
    return (fq * mult).sum(-1), blocks, drho, eigdata


def _sld(vecs, dmat, denom, mask) -> np.ndarray:
    """SLDs L = V where(mask, 2 dmat / denom, 0) V^dagger of a stack, from the
    eigenbasis data of ``_qfi_core``; on a real derivative D ∘ rho it is the
    real S = L / i."""
    return vecs @ np.where(mask, 2.0 * dmat / denom, 0.0) @ np.swapaxes(vecs.conj(), -1, -2)


def _seesaw_maps(n, gamma, ts):
    """``(score, step)`` of the see-saw for the F_Q of family coefficients on
    the lanes of shot times ``ts``: ``score(lanes, a)`` gives the F_Q and the
    real SLDs S = L / i of the coefficient rows ``a`` at the lanes indexed by
    ``lanes``, ``step(lanes, a, sld)`` the unit rows maximizing F_Q at those
    SLDs.

    At fixed L the form F_Q = max_L [2 Tr(drho L) - Tr(rho L^2)] is c^T M c,
    c = P a the Dicke amplitudes (P the flip-even isometry), M = sum_k mult_k
    (2 E_k ∘ D ∘ S_k + E_k ∘ S_k^2), maximized by the top eigenvector of
    P^T M P, so alternating L and a never lowers F_Q (Macieszczak,
    arXiv:1312.1356; Demkowicz-Dobrzanski & Maccone, PRL 113, 250801 (2014)).
    Every sum runs within one lane, so a lane's results do not depend on
    which lanes share its stack.
    """
    channel, rates, mult = _block_form(n, gamma, ts)
    fold = _dicke_amplitudes(n, np.eye(n // 2 + 1))  # P^T
    channel_rates2 = 2.0 * channel * rates
    weight = mult[:, None, None]

    def score(lanes, a):
        fq, _, _, eigdata = _block_qfi(_dicke_amplitudes(n, a), channel[lanes], rates[lanes], mult)
        return fq, _sld(*eigdata)

    def step(lanes, a, sld):
        m = (weight * (channel_rates2[lanes] * sld + channel[lanes] * (sld @ sld))).sum(-3)
        top = np.linalg.eigh(fold @ m @ fold.T)[1][..., -1]
        return np.where((top * a).sum(-1, keepdims=True) >= 0.0, top, -top)

    return score, step


def _outcome_probs(basis: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """<b_m| mat |b_m> for every column b_m of each basis of a stack."""
    return np.einsum("...im,...ij,...jm->...m", basis.conj(), mat, basis).real


def family_qfi(state: SymmetricFamilyState, p: DephasingParams):
    """Quantum Fisher information of a family state evolved by ``p``, and the
    classical Fisher information of its SLD measurement, from the state's
    Schur-Weyl blocks without any 2^n matrix (1 <= n <= 20). Returns
    ``(qfi, classical_fi_check)``; each block's SLD eigenbasis is measured
    and its Fisher sum weighted by the block's multiplicity. ``p.delta`` is
    ignored: the detuning phase is a diagonal unitary that commutes with the
    dephasing, so neither number depends on it."""
    n = state.n
    channel, rates, mult = _block_form(n, p.gamma, p.t)
    fq, blocks, drho, eigdata = _block_qfi(_dicke_amplitudes(n, state.a), channel, rates, mult)
    bases = np.linalg.eigh(1j * _sld(*eigdata))[1]
    probs, dprobs = _outcome_probs(bases, blocks), _outcome_probs(bases, 1j * drho)
    cfi = sum(m * _fisher_sum(pk, dpk) for m, pk, dpk in zip(mult, probs, dprobs))
    return float(fq), float(cfi)


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
