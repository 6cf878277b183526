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
``family_qfi``, of the shot-time optimum's grid and of its probes, for one
state or stacks of states and shot times. A probe, ``_shot_probe``, adds
F_Q's shot-time derivative and the coefficient gradient of
``_qfi_gradient``, both contracted from one matrix per block, and keeps
the blocks and SLD from which ``_sld_fisher`` measures the report without
a second evaluation. The value of the detuning enters neither F_Q nor
the SLD measurement's Fisher information, since its phase commutes with the
dephasing, so every function here takes only gamma and the shot time.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import _block_form, _channel_drift, _gram_form
from .exceptions import NoInformationError, SingularOutcomeError
from .qstate import (
    SymmetricFamilyState,
    _check_scalar,
    _check_shots,
    _dicke_amplitudes,
    _flip_even_isometry,
)

__all__ = [
    "EIG_CUTOFF",
    "QFI_FLOOR",
    "family_qfi",
    "qfi_uncertainty",
]

# Pairs with lambda_j + lambda_k at most this times the largest eigenvalue of
# their state are outside its support.
EIG_CUTOFF = 1e-14
# F_Q at most this times t^2 carries no information about the detuning: F_Q
# has units of time^2 (F_Q <= 4 t^2 Var(W)), so a floor in units of F_Q / t^2
# holds the same states at every gamma
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


def _block_qfi(c, form):
    """F_Q of the family states with Dicke-amplitude rows ``c`` on the block
    form ``(channel, rates, mult)`` of ``evolution._block_form``,
    rows and shot times broadcasting against each other. Returns the
    multiplicity-weighted F_Q, the blocks rho = E ∘ c c^T, their real
    derivative D ∘ rho (drho = i D ∘ rho, which has the same F_Q) and the
    eigenbasis data of ``_qfi_core``."""
    channel, rates, mult = form
    blocks = channel * (c[..., None, :, None] * c[..., None, None, :])
    drho = blocks * rates
    fq, *eigdata = _qfi_core(blocks, drho)
    return (fq * mult).sum(-1), blocks, drho, eigdata


def _sld(vecs, dmat, denom, mask) -> np.ndarray:
    """SLDs L = V where(mask, 2 dmat / denom, 0) V^dagger of a stack, from the
    eigenbasis data of ``_qfi_core``; on a real derivative D ∘ rho it is the
    real S = L / i."""
    return vecs @ np.where(mask, 2.0 * dmat / denom, 0.0) @ np.swapaxes(vecs.conj(), -1, -2)


def _shot_probe(n, gamma, c, t):
    """``(F_Q, dF_Q/dt, M c, (mult, blocks, drho, sld))`` of the Dicke
    amplitudes ``c`` of an n-ion family state at one shot time ``t`` > 0,
    the last tuple what ``_sld_fisher`` measures.

    F_Q = max_L [2 Tr(drho L) - Tr(rho L^2)] (Macieszczak, arXiv:1312.1356;
    Demkowicz-Dobrzanski & Maccone, PRL 113, 250801 (2014)) is attained at
    the SLD L = i S. With C = c c^T it reads c^T M c, M = sum_k mult_k E_k ∘
    X_k and X = 2 D ∘ S + S^2, so by the envelope theorem at fixed S the
    gradient in c is 2 M c and, as dD/dt = D/t and sum_k mult_k <drho_k,
    S_k> = F_Q, dF_Q/dt = sum_k mult_k <dE_k/dt, C ∘ X_k> + 2 F_Q / t, read
    through ``evolution._channel_drift`` without building dE/dt. No
    eigensolve is added to the F_Q evaluation.
    """
    (channel, rates, mult), factors = _gram_form(n, gamma, t)
    fq, blocks, drho, eigdata = _block_qfi(c, (channel, rates, mult))
    sld = _sld(*eigdata)
    del eigdata  # each (K, n+1, n+1) array goes after its last read: 4 MB at n = 100
    x = 2.0 * rates * sld + sld @ sld
    m = mult @ ((channel * x) @ c)
    del channel
    x *= c[:, None] * c
    drift, gram = _channel_drift(n, gamma, factors), factors[3]
    dfq = mult @ (drift * (x @ gram)).sum((-2, -1)) + 2.0 * fq / t
    return fq, dfq, m, (mult, blocks, drho, sld)


def _qfi_gradient(n, gamma, a, t):
    """``(F_Q, grad_a, dF_Q/dt)`` of the unit family coefficients ``a`` at
    shot time ``t`` > 0: the ``_shot_probe`` of their Dicke amplitudes c =
    P a (P the flip-even isometry) and the gradient of F_Q = c^T M c on the
    unit sphere, 2 (P^T M c - F_Q a), at the probe's SLD (envelope
    theorem)."""
    fq, dfq, m, _ = _shot_probe(n, gamma, _dicke_amplitudes(n, a), t)
    return fq, 2.0 * (_flip_even_isometry(n) @ m - fq * a), dfq


def _outcome_probs(basis: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """<b_m| mat |b_m> for every column b_m of each basis of a stack, from
    one matrix product per basis."""
    return (basis.conj() * (mat @ basis)).sum(-2).real


def _sld_fisher(mult, blocks, drho, sld):
    """Classical Fisher information of the SLD measurement of the blocks
    ``blocks`` with real derivative ``drho``, SLDs ``sld`` and
    multiplicities ``mult``: each block's SLD eigenbasis is measured, and
    its Fisher sum runs over outcome probabilities summed over the block's
    copies (multiplicity times one copy's), so that the floors of a
    vanishing probability never drop a heavy sector of many light copies."""
    bases = np.linalg.eigh(1j * sld)[1]
    probs, dprobs = _outcome_probs(bases, blocks), _outcome_probs(bases, 1j * drho)
    return sum(_fisher_sum(m * pk, m * dpk) for m, pk, dpk in zip(mult, probs, dprobs))


def family_qfi(state: SymmetricFamilyState, gamma: float, t: float):
    """Quantum Fisher information of a family state dephased at rate
    ``gamma`` for a duration ``t``, and the classical Fisher information of
    its SLD measurement, from the state's Schur-Weyl blocks without any 2^n
    matrix (1 <= n <= 100). Returns ``(qfi, classical_fi_check)``, the
    latter from ``_sld_fisher``. Neither number depends on the
    detuning, so it is not a parameter: its phase is a diagonal unitary that
    commutes with the dephasing."""
    gamma = _check_scalar("dephasing rate", gamma, 0)
    t = _check_scalar("duration", t, 0)
    n = state.n
    form = _block_form(n, gamma, t)
    fq, blocks, drho, eigdata = _block_qfi(_dicke_amplitudes(n, state.a), form)
    return float(fq), float(_sld_fisher(form[2], blocks, drho, _sld(*eigdata)))


def _precision_bounds(fq, ts, total_time):
    """Precision bound 1/sqrt((T/t) F_Q(t)), taken as sqrt(t / (T F_Q)), from
    the F_Q at each shot time of ``ts``; infinite where the state carries no
    information, F_Q <= ``QFI_FLOOR`` t^2, as at t = 0."""
    # F_Q = 0 where t = 0, and far below the floor at the shortest grid times
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bounds = np.sqrt(ts / (total_time * fq))
    return np.where(fq > QFI_FLOOR * ts * ts, bounds, math.inf)


def qfi_uncertainty(qfi_per_shot: float, total_time: float, shot_time: float) -> float:
    """Optimal-measurement precision bound 1/sqrt((T/t) * F_Q), by
    ``_precision_bounds``."""
    qfi_per_shot = _check_scalar("quantum Fisher information", qfi_per_shot)
    total_time, shot_time = _check_shots(total_time, shot_time)
    if not qfi_per_shot > QFI_FLOOR * shot_time * shot_time:
        raise NoInformationError(_NO_INFORMATION)
    return float(_precision_bounds(qfi_per_shot, shot_time, total_time))
