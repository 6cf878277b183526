"""Quantum Fisher information of the detuning for dephased family states,
and the classical Fisher information of the optimal projective measurement
built from the symmetric logarithmic derivative (SLD).

F_Q = sum over eigenpairs (j, k) of rho with lambda_j + lambda_k above
1e-14 times rho's largest eigenvalue of 2 |<j| drho |k>|^2 /
(lambda_j + lambda_k). The eigenvalue cutoff is load-bearing: dephased
states are generically rank-deficient and the cutoff restricts the sum to
the supported subspace. It is relative because F_Q is homogeneous,
F_Q(c rho, c drho) = c F_Q(rho, drho): a block's scale is the weight its
sector carries, and an absolute cutoff would drop light sectors that carry
F_Q. The SLD eigenbasis is the projective measurement whose classical
Fisher information attains F_Q; the precision of any measurement and
estimator over nu = T/t repetitions is bounded below by 1/sqrt(nu * F_Q).

A dephased family state and its derivative are block-diagonal on the
floor(n/2)+1 Schur-Weyl blocks of ``evolution._block_form``, so their F_Q is
the multiplicity-weighted sum of the blocks' F_Q, on (n+1) x (n+1) matrices
instead of 2^n x 2^n ones, and the SLD measurement splits the same way. The
blocks are real and their derivative is i times a real matrix; F_Q sees only
|<j| drho |k>|, so one real evaluation, ``_block_qfi``, gives the F_Q of
``family_qfi``, of the shot-time optimum and of its gradient in the
coefficients and the shot time (``_qfi_gradient``), for one state or stacks
of states and shot times.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import DephasingParams, _block_form, _channel_rate
from .exceptions import NoInformationError, SingularOutcomeError
from .qstate import SymmetricFamilyState, _dicke_amplitudes

__all__ = [
    "EIG_CUTOFF",
    "QFI_FLOOR",
    "family_qfi",
    "qfi_uncertainty",
]

# Pairs with lambda_j + lambda_k at most this times the largest eigenvalue of
# their state are outside its support.
EIG_CUTOFF = 1e-14
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
    outside the support) and the support mask. A state whose largest
    eigenvalue is not positive has no support. The derivatives are not
    checked here."""
    lam, vecs = np.linalg.eigh(rho)
    dmat = np.swapaxes(vecs.conj(), -1, -2) @ drho @ vecs
    denom = lam[..., :, None] + lam[..., None, :]
    top = lam[..., -1:, None]  # eigh sorts ascending
    mask = (denom > EIG_CUTOFF * top) & (top > 0.0)
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


def _envelope_matrix(mult, channel, channel_rates2, sld):
    """M = sum_k mult_k (channel_rates2_k ∘ S_k + channel_k ∘ S_k^2): with
    channel E and channel_rates2 = 2 E ∘ D, the matrix of
    F_Q = max_L c^T M(L) c at fixed S = L / i; with dE/dt and
    2 d(E ∘ D)/dt, its shot-time derivative at fixed S."""
    return (mult[:, None, None] * (channel_rates2 * sld + channel * (sld @ sld))).sum(-3)


def _qfi_gradient(n, gamma, a, t):
    """``(F_Q, grad_a, dF_Q/dt)`` of the unit family coefficients ``a`` at
    shot time ``t`` > 0: F_Q, its gradient on the unit sphere,
    2 (P^T M P a - F_Q a), and its shot-time derivative c^T (dM/dt) c.

    F_Q = max_L [2 Tr(drho L) - Tr(rho L^2)] = max_L c^T M(L, t) c, with
    c = P a the Dicke amplitudes (P the flip-even isometry) and M of
    ``_envelope_matrix`` (Macieszczak, arXiv:1312.1356; Demkowicz-Dobrzanski
    & Maccone, PRL 113, 250801 (2014)), is attained at the SLD, so by the
    envelope theorem both derivatives are those of c^T M c at that fixed S,
    with dE/dt from ``evolution._channel_rate`` and dD/dt = D/t. No
    eigensolve is added to the F_Q evaluation.
    """
    channel, rates, mult = _block_form(n, gamma, t)
    dchannel = _channel_rate(n, gamma, t)
    c = _dicke_amplitudes(n, a)
    fq, _, _, eigdata = _block_qfi(c, channel, rates, mult)
    sld = _sld(*eigdata)
    m = _envelope_matrix(mult, channel, 2.0 * channel * rates, sld)
    dm = _envelope_matrix(mult, dchannel, 2.0 * (dchannel * rates + channel * (rates / t)), sld)
    fold = _dicke_amplitudes(n, np.eye(n // 2 + 1))  # P^T
    return fq, 2.0 * (fold @ (m @ c) - fq * a), c @ dm @ c


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
