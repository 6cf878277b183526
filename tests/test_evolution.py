import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksim import SymmetricFamilyState, family_qfi
from clocksim.evolution import (
    MAX_BLOCK_QUBITS,
    _block_form,
    _block_tables,
    _channel_drift,
    _gram_form,
)
from clocksim.optimize import _flip_even_ops
from clocksim.qstate import _flip_even_isometry

from reference import (
    dense_evolve,
    density,
    evolve_reference,
    full_block_form,
    master_equation_oracle,
    random_density,
    random_pure_state,
    schrijver_channel,
)


def _half_coherence():
    # (|0>+|1>)/sqrt(2) as a density matrix
    return density(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))


def _evolve(rho, delta, gamma, t):
    return dense_evolve(rho, delta, gamma, t)[0]


def test_params_validation():
    # family_qfi checks its dephasing rate and duration at the API boundary
    state = SymmetricFamilyState(2, [0.6, 0.8])
    with pytest.raises(ValueError, match="dephasing rate must be >= 0"):
        family_qfi(state, -1.0, 1.0)
    with pytest.raises(ValueError, match="duration must be >= 0"):
        family_qfi(state, 1.0, -0.5)
    for gamma, t, name in ((np.nan, 1.0, "gamma"), (1.0, np.inf, "t")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            family_qfi(state, gamma, t)


def test_block_tables_keep_one_n():
    # a sweep asks for each n in turn: the cache holds the last n's tables,
    # 4.2 MB at n = 100, not the 40 MB of every n from 90 to 100
    _block_tables.cache_clear()
    tracemalloc.start()
    try:
        for n in range(90, MAX_BLOCK_QUBITS + 1):
            _block_tables(n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.5 * _block_tables(MAX_BLOCK_QUBITS)[0].nbytes, held


def test_per_n_tables_survive_a_change_of_n():
    # the benchmark's qfi_curve alternates n = 2 and 3 between jobs; each
    # cache keeps both n's tables until cache_clear()
    for cached in (_block_tables, _flip_even_isometry, _flip_even_ops):
        cached.cache_clear()
        first = cached(2)
        cached(3)
        assert cached(2) is first, cached.__name__
        cached.cache_clear()
        assert cached(2) is not first, cached.__name__


def test_single_qubit_coherence_decay():
    rho = _half_coherence()
    out = _evolve(rho, 0.0, 1.0, 0.5)
    assert out[0, 1] == pytest.approx(0.5 * np.exp(-0.5), abs=1e-15)
    assert out[0, 0] == rho[0, 0]


def test_zero_time_is_identity():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 3)
    assert np.array_equal(_evolve(rho, 1.7, 2.0, 0.0), rho)


def test_two_qubit_element_decays_with_hamming_distance():
    # <01|rho|10> differs in both bits, so it picks up e^{-2 gamma t}
    v = np.zeros(4, complex)
    v[1] = v[2] = 1 / np.sqrt(2)
    out = _evolve(density(v), 0.0, 1.0, 1.0)
    assert out[1, 2] == pytest.approx(0.5 * np.exp(-2.0), rel=1e-12)


def test_diagonal_is_exactly_preserved():
    rng = np.random.default_rng(1)
    for n in (1, 2, 4):
        rho = random_density(rng, n)
        out = _evolve(rho, 0.9, 1.3, 0.7)
        assert np.array_equal(np.diag(out), np.diag(rho))
        assert abs(np.trace(out) - 1.0) < 1e-12


def test_semigroup_property():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 3)
    one = _evolve(_evolve(rho, 0.8, 0.6, 0.4), 0.8, 0.6, 1.1)
    two = _evolve(rho, 0.8, 0.6, 1.5)
    assert np.abs(one - two).max() < 1e-12


def test_channel_matches_kraus_reference():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        rho = random_density(rng, n)
        out = _evolve(rho, 1.1, 0.8, 0.9)
        ref = evolve_reference(rho, n, 1.1, 0.8, 0.9)
        assert np.abs(out - ref).max() < 1e-12


def test_evolved_state_stays_positive():
    rng = np.random.default_rng(4)
    out = _evolve(random_density(rng, 3), 2.0, 1.5, 0.8)
    assert np.linalg.eigvalsh(out)[0] > -1e-10


def test_oracle_requires_positive_steps():
    with pytest.raises(ValueError):
        master_equation_oracle(_half_coherence(), 0.0, 1.0, 1.0, 0)


def test_oracle_unitary_limit():
    rng = np.random.default_rng(5)
    for n in (1, 3):
        rho = density(random_pure_state(rng, n))
        out = master_equation_oracle(rho, 1.4, 0.0, 0.9, 1200)
        assert np.abs(out - _evolve(rho, 1.4, 0.0, 0.9)).max() < 1e-10


def test_oracle_matches_analytic_map_single_qubit():
    rho = _half_coherence()
    out = master_equation_oracle(rho, 2.0, 1.0, 1.0, 1500)
    assert np.abs(out - _evolve(rho, 2.0, 1.0, 1.0)).max() < 1e-8


def test_oracle_matches_analytic_map_three_qubits():
    rng = np.random.default_rng(6)
    rho = density(random_pure_state(rng, 3))
    out = master_equation_oracle(rho, 1.3, 0.7, 0.8, 1500)
    assert np.abs(out - _evolve(rho, 1.3, 0.7, 0.8)).max() < 1e-8


def test_derivative_trivial_cases():
    rho = _half_coherence()
    assert np.abs(dense_evolve(rho, 1.0, 1.0, 0.0)[1]).max() == 0.0
    diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.abs(dense_evolve(diag, 1.0, 1.0, 2.0)[1]).max() == 0.0


def test_derivative_is_hermitian_traceless():
    rng = np.random.default_rng(7)
    d = dense_evolve(random_density(rng, 3), 0.9, 0.5, 1.2)[1]
    assert np.abs(d - d.conj().T).max() < 1e-14
    assert abs(np.trace(d)) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.8])
def test_derivative_matches_finite_difference(gamma):
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        rho = random_density(rng, n)
        delta, t, h = 0.7, 1.1, 1e-6
        d = dense_evolve(rho, delta, gamma, t)[1]
        fd = (_evolve(rho, delta + h, gamma, t) - _evolve(rho, delta - h, gamma, t)) / (2 * h)
        assert np.abs(d - fd).max() < 1e-6


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    delta=st.floats(-5.0, 5.0),
    gamma=st.floats(0.0, 3.0),
    t=st.floats(0.0, 5.0),
    skew=st.one_of(st.just(0.0), st.floats(1e-16, 5e-14)),
)
def test_evolution_preserves_what_validation_checks(n, seed, delta, gamma, t, skew):
    # The dense oracle keeps the diagonal exactly and conjugate symmetry to
    # rounding, over inputs that are exactly Hermitian or Hermitian only
    # within a small skew.
    rng = np.random.default_rng(seed)
    raw = random_density(rng, n)
    noise = skew * rng.normal(size=raw.shape)
    np.fill_diagonal(noise, 0.0)
    rho0 = raw + noise
    out, drho = dense_evolve(rho0, delta, gamma, t)

    assert np.array_equal(np.diag(out), np.diag(rho0))
    residual_in = np.abs(rho0 - rho0.conj().T).max()
    residual_out = np.abs(out - out.conj().T).max()
    # each element is one rounded complex product with a factor of modulus <= 1
    assert residual_out <= residual_in + 4 * np.finfo(float).eps * np.abs(rho0).max()
    assert np.all(np.diag(drho) == 0.0) and np.trace(drho) == 0.0
    if residual_in == 0.0:
        assert residual_out == 0.0
        assert np.array_equal(drho, drho.conj().T)


def _drift_contraction(n, gamma, ts, y):
    """<dE_k/dt, Y_k> of every block and shot time, read from the factor of
    ``_channel_drift`` with one matrix product and no dE/dt."""
    factors = _gram_form(n, gamma, ts)[1]
    return (_channel_drift(n, gamma, factors) * (y @ factors[3])).sum((-2, -1))


def _symmetric(n, seed):
    y = np.random.default_rng(seed).normal(size=(n // 2 + 1, n + 1, n + 1))
    return y + np.swapaxes(y, -1, -2)


@pytest.mark.parametrize("n", range(1, 21))
def test_gram_channel_matches_schrijver_table(n):
    # gamma = 0, t = 0, ordinary and stacked shot times, and gamma t >= 745,
    # where p = exp(-gamma t) underflows to 0; the shot-time derivative is
    # checked as its contraction with a symmetric Y, the only way it is read
    cases = ((0.0, 0.7), (1.0, 0.0), (0.4, 0.9), (2.0, 3.0), (1.0, np.geomspace(1e-4, 8.0, 16)),
             (1.0, 750.0), (3.0, 1e3))
    y = _symmetric(n, n)
    for gamma, ts in cases:
        channel = _block_form(n, gamma, ts)[0]
        expected, rate = schrijver_channel(n, gamma, ts)
        assert channel.shape == expected.shape
        assert np.abs(channel - expected).max() <= 1e-14
        contraction = _drift_contraction(n, gamma, ts, y)
        assert contraction.shape == rate.shape[:-2]
        scale = (np.abs(rate) * np.abs(y)).sum((-2, -1)).max()
        assert np.abs(contraction - (rate * y).sum((-2, -1))).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_channel_without_its_derivative_is_the_full_forms(n):
    # the grid, family_qfi and the probe read the channel from one Gram
    # product and never build dE/dt: the form keeps the bits of one that
    # always builds dE/dt, for one shot time and for a stacked grid, and the
    # probe's contraction of dE/dt agrees with the full matrix contracted
    # with the same symmetric Y to rounding
    y = _symmetric(n, 100 + n)
    for gamma, ts in ((1.0, 0.37), (0.3, np.geomspace(1e-4, 8.0, 16)), (2.0, 0.0)):
        channel, dchannel, rates, mult = full_block_form(n, gamma, ts)
        for got in (_block_form(n, gamma, ts), _gram_form(n, gamma, ts)[0]):
            assert all(np.array_equal(x, y) for x, y in zip(got, (channel, rates, mult)))
        contraction = _drift_contraction(n, gamma, ts, y)
        scale = (np.abs(dchannel) * np.abs(y)).sum((-2, -1)).max()
        assert contraction.shape == dchannel.shape[:-2]
        assert np.abs(contraction - (dchannel * y).sum((-2, -1))).max() <= 1e-14 * scale
