import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksim import (
    DephasingParams,
    ExperimentBudget,
    NoInformationError,
    SymmetricFamilyState,
    family_qfi,
    qfi_uncertainty,
    reference_limit,
    uncertainty_uncorrelated,
    uniform_coefficients,
)
from clocksim.evolution import _block_form
from clocksim.fisher import _block_qfi, _qfi_core, _qfi_gradient, _sld
from clocksim.qstate import _dicke_amplitudes
from clocksim.optimize import _precision_bounds

from reference import (
    classical_fi,
    dense_evolve,
    dense_qfi,
    dense_qfi_shot_optimum,
    density,
    family_state,
    ghz_state,
    hamming,
    haar_basis,
    product_state,
    qfi_shot_uncertainty,
    qubits,
    random_density,
    schrijver_blocks,
    sld_qfi,
)


def _evolved_pair(psi, delta, gamma, t):
    return dense_evolve(density(psi), delta, gamma, t)


def _family_blocks(state, gamma, ts):
    """(F_Q, blocks, real derivative D ∘ rho, eigenbasis data) of the family
    state evolved for each duration of ``ts``."""
    return _block_qfi(_dicke_amplitudes(state.n, state.a), *_block_form(state.n, gamma, ts))


def _pure_qfi_bruteforce(psi, t):
    # unitary family: 4 * t^2 * Var(h) with h the excitation-number generator
    w = hamming(qubits(psi))
    probs = np.abs(psi) ** 2
    var = probs @ w**2 - (probs @ w) ** 2
    return 4.0 * t**2 * var


def test_pure_single_qubit_qfi():
    psi = product_state(1)
    for t in (0.3, 1.0, 2.5):
        assert dense_qfi(*_evolved_pair(psi, 0.8, 0.0, t)) == pytest.approx(t**2, rel=1e-10)


def test_pure_state_qfi_matches_generator_variance():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 6):
        a = rng.normal(size=n // 2 + 1)
        a /= np.linalg.norm(a)
        psi = family_state(n, a)
        t = rng.uniform(0.2, 1.5)
        assert dense_qfi(*_evolved_pair(psi, 0.5, 0.0, t)) == pytest.approx(
            _pure_qfi_bruteforce(psi, t), rel=1e-8, abs=1e-10
        )


def test_ghz_qfi_closed_forms():
    # the dense oracle and the family blocks (GHZ is a = e_0) against n^2 t^2 e^{-2 n gamma t}
    for n in (2, 3, 5):
        t = 0.7
        ghz = SymmetricFamilyState(n, np.eye(n // 2 + 1)[0])
        for gamma, rel in ((0.0, 1e-9), (0.9, 1e-8)):
            expected = n**2 * t**2 * math.exp(-2 * n * gamma * t)
            dense = dense_qfi(*_evolved_pair(ghz_state(n), 0.4, gamma, t))
            assert dense == pytest.approx(expected, rel=rel)
            blocks = family_qfi(ghz, DephasingParams(0.4, gamma, t))[0]
            assert blocks == pytest.approx(expected, rel=rel)


def test_product_state_qfi_closed_form():
    # the dense oracle and the family blocks against n t^2 e^{-2 gamma t}
    for n in (1, 2, 4):
        t, gamma = 0.6, 0.8
        expected = n * t**2 * math.exp(-2 * gamma * t)
        dense = dense_qfi(*_evolved_pair(product_state(n), 0.3, gamma, t))
        assert dense == pytest.approx(expected, rel=1e-8)
        state = SymmetricFamilyState(n, uniform_coefficients(n))
        blocks = family_qfi(state, DephasingParams(0.3, gamma, t))[0]
        assert blocks == pytest.approx(expected, rel=1e-8)


def test_sld_basis_is_complete_and_attains_qfi():
    # the package's SLD eigenbasis on dense states outside the family
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        rho_t, drho = dense_evolve(random_density(rng, n), 0.9, 0.7, 0.8)
        fq, *eigdata = _qfi_core(rho_t, drho)
        basis = np.linalg.eigh(_sld(*eigdata))[1]
        assert np.abs(basis.conj().T @ basis - np.eye(1 << n)).max() < 1e-10
        fc = classical_fi(rho_t, drho, basis)
        assert fc == pytest.approx(fq, rel=1e-6)
        assert fc <= fq * (1 + 1e-9)


def test_sld_basis_is_deterministic():
    # the blockwise SLD measurement gives the same bits on every call
    state = SymmetricFamilyState(3, [0.8, 0.6])
    p = DephasingParams(0.5, 0.6, 0.9)
    assert family_qfi(state, p) == family_qfi(state, p)
    one = np.linalg.eigh(1j * _sld(*_family_blocks(state, p.gamma, p.t)[3]))[1]
    two = np.linalg.eigh(1j * _sld(*_family_blocks(state, p.gamma, p.t)[3]))[1]
    assert np.array_equal(one, two)


def test_classical_fi_computational_basis_is_blind():
    rho_t, drho = _evolved_pair(product_state(3), 0.7, 0.5, 0.6)
    assert classical_fi(rho_t, drho, np.eye(8)) == pytest.approx(0.0, abs=1e-15)


def test_classical_fi_sigma_x_basis_matches_error_propagation():
    t, gamma, total = 0.8, 0.9, 20.0
    delta = 0.5 * np.pi / t
    rho_t, drho = _evolved_pair(product_state(1), delta, gamma, t)
    sigma_x_basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    fi = classical_fi(rho_t, drho, sigma_x_basis)
    budget = ExperimentBudget(1, total, t)
    sigma = uncertainty_uncorrelated(budget, delta, gamma)
    # per-shot Fisher information implied by the error-propagation value
    implied = 1.0 / (sigma**2 * (total / t))
    assert fi == pytest.approx(implied, rel=1e-9)


def test_classical_never_beats_quantum():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        rho_t, drho = dense_evolve(
            random_density(rng, n), rng.uniform(-1, 1), rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.5)
        )
        fq = dense_qfi(rho_t, drho)
        fc = classical_fi(rho_t, drho, haar_basis(rng, 1 << n))
        assert fc <= fq * (1 + 1e-9) + 1e-12


def test_qfi_unitary_invariance():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        rho_t, drho = dense_evolve(random_density(rng, n), 0.6, 0.4, 1.1)
        fq = dense_qfi(rho_t, drho)
        u = haar_basis(rng, 1 << n)
        rotated = dense_qfi(u @ rho_t @ u.conj().T, u @ drho @ u.conj().T)
        assert rotated == pytest.approx(fq, rel=1e-8)


def test_qfi_uncertainty_validation_and_scaling():
    with pytest.raises(NoInformationError):
        qfi_uncertainty(0.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        qfi_uncertainty(1.0, 0.5, 1.0)
    base = qfi_uncertainty(2.0, 10.0, 1.0)
    assert qfi_uncertainty(2.0, 20.0, 1.0) == pytest.approx(base / math.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_optimal_measurement_reaches_reference_limit(n):
    gamma, total = 1.0, 100.0
    ref = reference_limit(n, total, gamma)
    t_prod, val_prod = dense_qfi_shot_optimum(product_state(n), gamma, total)
    t_ghz, val_ghz = dense_qfi_shot_optimum(ghz_state(n), gamma, total)
    assert val_prod == pytest.approx(ref, rel=1e-8)
    assert val_ghz == pytest.approx(ref, rel=1e-8)
    assert t_prod == pytest.approx(0.5 / gamma, abs=1e-4)
    assert t_ghz == pytest.approx(0.5 / (n * gamma), abs=1e-4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_qfi_matches_single_evaluation_and_sld_oracle(n):
    rng = np.random.default_rng(40 + n)
    d = 1 << n
    rho0 = 0.7 * random_density(rng, n) + 0.3 * np.eye(d) / d
    delta, gamma, total = 0.7, 0.4, 10.0
    ts = np.array([0.0, 0.05, 0.3, 1.1, 2.5])
    fq = dense_qfi(*dense_evolve(rho0, delta, gamma, ts))
    bounds = _precision_bounds(fq, ts, total)
    for k, t in enumerate(ts):
        rho_t, drho = dense_evolve(rho0, delta, gamma, t)
        assert fq[k] == dense_qfi(rho_t, drho)
        if t == 0.0:
            # no phase has accumulated yet: no information, and the probe reads inf
            assert fq[k] == 0.0 and bounds[k] == math.inf
            continue
        assert bounds[k] == qfi_shot_uncertainty(rho0, t, gamma, total, delta)
        assert fq[k] == pytest.approx(sld_qfi(rho_t, drho), rel=1e-9)


def _random_coeffs(rng, n):
    a = rng.normal(size=n // 2 + 1)
    return a / np.linalg.norm(a)


@pytest.mark.parametrize("n", range(1, 9))
def test_family_blocks_match_dense_qfi(n):
    rng = np.random.default_rng(60 + n)
    ts = np.array([0.0, 0.05, 0.3, 1.1, 2.5])
    for delta in (0.0, 0.3):
        for gamma in (0.0, 0.4, 1.0):
            a = _random_coeffs(rng, n)
            rho0 = density(family_state(n, a))
            dense = dense_qfi(*dense_evolve(rho0, delta, gamma, ts))
            # the blocks drop the detuning phase, which leaves F_Q unchanged
            blocks = _family_blocks(SymmetricFamilyState(n, a), gamma, ts)[0]
            assert blocks == pytest.approx(dense, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_family_blocks_match_schrijver_formula(n):
    # the kernel sums Schrijver's alternating beta^s in closed form, with
    # nonnegative terms only; both must give the same blocks, which carry no
    # detuning phase, so they are those of the formula at delta = 0
    state = SymmetricFamilyState(n, _random_coeffs(np.random.default_rng(80 + n), n))
    gamma, t = 0.4, 0.9
    _, blocks, dblocks, _ = _family_blocks(state, gamma, t)
    assert blocks.dtype == dblocks.dtype == float
    expected = schrijver_blocks(n, _dicke_amplitudes(n, state.a), 0.0, gamma, t)
    levels = np.arange(n + 1)
    for k, block in enumerate(expected):
        assert np.abs(blocks[k, k : n - k + 1, k : n - k + 1] - block).max() < 1e-14
        inner = levels[k : n - k + 1]
        # drho = i D ∘ rho; the kernel keeps the real D ∘ rho
        derivative = t * (inner[None, :] - inner[:, None]) * block
        assert np.abs(dblocks[k, k : n - k + 1, k : n - k + 1] - derivative).max() < 1e-14
        outside = np.ones((n + 1, n + 1), bool)
        outside[k : n - k + 1, k : n - k + 1] = False
        assert not blocks[k][outside].any() and not dblocks[k][outside].any()


def test_stacked_block_qfi_equals_single_shot_time():
    state = SymmetricFamilyState(7, _random_coeffs(np.random.default_rng(7), 7))
    ts = np.geomspace(1e-4, 8.0, 48)
    stacked = _family_blocks(state, 1.0, ts)[0]
    for k, t in enumerate(ts):
        assert stacked[k] == _family_blocks(state, 1.0, t)[0]
        assert stacked[k] == family_qfi(state, DephasingParams(0.3, 1.0, t))[0]


@pytest.mark.parametrize("t", [0.3, 0.5])
def test_product_state_qfi_at_the_cap(t):
    # n t^2 e^(-2 gamma t): the cutoff, relative to each block's largest
    # eigenvalue, keeps the light sectors that carry F_Q
    n, gamma = 20, 1.0
    state = SymmetricFamilyState(n, uniform_coefficients(n))
    fq = family_qfi(state, DephasingParams(0.0, gamma, t))[0]
    assert fq == pytest.approx(n * t * t * math.exp(-2.0 * gamma * t), rel=1e-12)


def test_block_identities_at_the_cap():
    n, t = 20, 0.7
    state = SymmetricFamilyState(n, _random_coeffs(np.random.default_rng(20), n))
    mult = _block_form(n, 0.0, t)[2]
    for gamma in (0.0, 0.4, 1.0):
        blocks = _family_blocks(state, gamma, t)[1]
        trace = np.trace(blocks, axis1=-2, axis2=-1)
        assert abs((trace * mult).sum() - 1.0) < 1e-13
    # unitary limit: 4 t^2 Var(|x|) over the Dicke populations of the state
    blocks = _family_blocks(state, 0.0, t)[1]
    pops, w = np.diagonal(blocks[0]).real, np.arange(n + 1)
    expected = 4.0 * t * t * (pops @ w**2 - (pops @ w) ** 2)
    assert family_qfi(state, DephasingParams(0.3, 0.0, t))[0] == pytest.approx(expected, rel=1e-13)


def test_family_sld_measurement_attains_dense_qfi():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 5):
        a = _random_coeffs(rng, n)
        p = DephasingParams(0.6, 0.7, 0.8)
        fq, cfi = family_qfi(SymmetricFamilyState(n, a), p)
        dense = dense_qfi(*dense_evolve(density(family_state(n, a)), p.delta, p.gamma, p.t))
        assert fq == pytest.approx(dense, rel=1e-12)
        assert cfi == pytest.approx(fq, rel=1e-9)
        assert cfi <= fq * (1 + 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.0, 2.0),
    t=st.floats(0.0, 5.0),
)
def test_family_blocks_stay_positive(n, seed, gamma, t):
    state = SymmetricFamilyState(n, _random_coeffs(np.random.default_rng(seed), n))
    blocks = _family_blocks(state, gamma, t)[1]
    assert np.linalg.eigvalsh(blocks).min() >= -1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.05, 2.0),
    t=st.floats(1e-3, 4.0),
)
def test_qfi_gradient_matches_finite_differences(n, seed, gamma, t):
    # central differences of family_qfi along great circles through a and in t
    a = _random_coeffs(np.random.default_rng(seed), n)
    qfi = lambda a, t: family_qfi(SymmetricFamilyState(n, a), DephasingParams(0.0, gamma, t))[0]
    fq, grad_a, grad_t = _qfi_gradient(n, gamma, a, t)
    assert fq == pytest.approx(qfi(a, t), rel=1e-14)
    assert abs(grad_a @ a) <= 1e-12 * fq
    tangents = np.linalg.svd(np.eye(a.size) - np.outer(a, a))[0][:, :-1].T
    h = 1e-5
    fd_a = np.array([
        (qfi(a * math.cos(h) + v * math.sin(h), t) - qfi(a * math.cos(h) - v * math.sin(h), t))
        / (2.0 * h)
        for v in tangents
    ])
    assert np.linalg.norm(tangents @ grad_a - fd_a) <= 1e-6 * np.linalg.norm(fd_a)
    dt = 1e-5 * t
    fd_t = (qfi(a, t + dt) - qfi(a, t - dt)) / (2.0 * dt)
    assert grad_t == pytest.approx(fd_t, rel=1e-6)
