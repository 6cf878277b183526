import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksim import (
    CollectiveMoments,
    SymmetricFamilyState,
    collective_moments,
    uniform_coefficients,
)

from clocksim.optimize import _LOG_MU_BRACKET, _flip_even_ops, _genramsey_lane
from clocksim.qstate import _TABLE_BYTES, _dicke_amplitudes, _dicke_ladder, _moment_rows

from reference import (
    SIGMA_X,
    decimal_moment_rows,
    density,
    dense_collective_moments,
    family_state,
    ghz_state,
    ghz_via_network,
    moments_reference,
    permute_qubits,
    product_state,
    site_operator,
)


def test_product_superposition_amplitudes():
    assert np.allclose(product_state(1), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert np.allclose(product_state(2), 0.25 ** 0.5)


def test_product_superposition_sx_mean_n3():
    m = dense_collective_moments(product_state(3))
    assert m.sx_mean == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, -1])
def test_qubit_count_range_rejected(n):
    with pytest.raises(ValueError):
        uniform_coefficients(n)
    with pytest.raises(ValueError):
        SymmetricFamilyState(n, [1.0])


def test_ghz_amplitudes():
    expected = np.zeros(4, complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    assert np.allclose(ghz_state(2), expected)
    assert np.allclose(ghz_state(1), product_state(1))


def test_ghz_sx_mean_vanishes():
    m = dense_collective_moments(ghz_state(4))
    assert m.sx_mean == pytest.approx(0.0, abs=1e-14)


def test_symmetric_state_reduces_to_ghz():
    assert np.allclose(family_state(4, [1.0, 0.0, 0.0]), ghz_state(4), atol=1e-14)


def test_symmetric_state_single_excitation_class():
    amps = family_state(4, [0.0, 1.0, 0.0])
    weight = np.array([bin(x).count("1") for x in range(16)])
    members = (weight == 1) | (weight == 3)
    assert np.allclose(amps[members], 1 / np.sqrt(8))
    assert np.allclose(amps[~members], 0.0)


def test_symmetric_state_equal_mix_is_product_state():
    theta = np.pi / 4
    amps = family_state(2, [np.cos(theta), np.sin(theta)])
    assert np.allclose(amps, product_state(2), atol=1e-14)


def test_uniform_coefficients_give_product_state():
    for n in (2, 3, 5, 6):
        amps = family_state(n, uniform_coefficients(n))
        assert np.allclose(amps, product_state(n), atol=1e-14)


def test_symmetric_state_validation():
    with pytest.raises(ValueError):
        SymmetricFamilyState(4, [1.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        SymmetricFamilyState(4, [0.5, 0.0, 0.0])  # badly non-normalized
    # tiny drift is renormalized silently
    eps = 2e-10
    fam = SymmetricFamilyState(4, [np.sqrt(1 + eps), 0.0, 0.0])
    amps = family_state(4, fam.a)
    assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12


def test_symmetric_family_state_renormalizes():
    fam = SymmetricFamilyState(5, np.array([0.6, 0.8, 0.0]) * (1 + 1e-10))
    assert fam.a @ fam.a == pytest.approx(1.0, abs=1e-15)
    assert fam.n == 5


def test_symmetric_state_permutation_and_flip_invariance():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5, 6):
        a = rng.normal(size=n // 2 + 1)
        a /= np.linalg.norm(a)
        amps = family_state(n, a)
        for _ in range(4):
            perm = rng.permutation(n)
            assert np.array_equal(permute_qubits(amps, n, perm), amps)
        flipped = amps[np.arange(1 << n) ^ ((1 << n) - 1)]
        assert np.array_equal(flipped, amps)


@pytest.mark.parametrize("n", range(1, 9))
def test_network_preparation_matches_ghz(n):
    fidelity = abs(np.vdot(ghz_via_network(n), ghz_state(n))) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_network_single_ion_is_plain_pulse():
    assert np.allclose(ghz_via_network(1), product_state(1))


def test_collective_moments_against_dense_operators():
    # the bit-flip oracle against kron-built operators, on states outside the family
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 5):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        v /= np.linalg.norm(v)
        m = dense_collective_moments(v)
        sx, sx2, sy, sy2 = moments_reference(v, n)
        assert m.sx_mean == pytest.approx(sx, abs=1e-11)
        assert m.sx2_mean == pytest.approx(sx2, abs=1e-11)
        assert m.sy_mean == pytest.approx(sy, abs=1e-11)
        assert m.sy2_mean == pytest.approx(sy2, abs=1e-11)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), sparsity=st.floats(0.0, 0.9))
def test_family_moments_match_dense_oracle(n, seed, sparsity):
    # the O(n) Dicke-basis moments against the 2^n bit-flip oracle, over
    # random coefficients with some classes switched off
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n // 2 + 1) * (rng.uniform(size=n // 2 + 1) >= sparsity)
    if not a.any():
        a[rng.integers(a.size)] = 1.0
    fam = SymmetricFamilyState(n, a / np.linalg.norm(a))
    fast = collective_moments(fam)
    dense = dense_collective_moments(family_state(n, fam.a))
    tol = 1e-12 * max(1, n * n)
    for field in ("sx_mean", "sx2_mean", "sy_mean", "sy2_mean"):
        assert getattr(fast, field) == pytest.approx(getattr(dense, field), abs=tol)


def test_collective_moments_known_states():
    for n in (2, 4):
        m = collective_moments(SymmetricFamilyState(n, uniform_coefficients(n)))
        assert m.sx_mean == pytest.approx(n, abs=1e-12)
        assert m.sy2_mean - m.sy_mean**2 == pytest.approx(n, abs=1e-12)
    m = collective_moments(SymmetricFamilyState(2, [1.0, 0.0]))
    assert m.sx_mean == pytest.approx(0.0, abs=1e-14)
    assert m.sx2_mean == pytest.approx(4.0, abs=1e-12)
    ground = np.zeros(8, complex)
    ground[0] = 1.0
    m = dense_collective_moments(ground)
    assert m.sx_mean == pytest.approx(0.0, abs=1e-14)
    assert m.sx2_mean == pytest.approx(3.0, abs=1e-12)


def test_family_state_and_moments_have_no_qubit_cap():
    # the Dicke-basis moments never build 2^n amplitudes
    n = 1000
    fam = SymmetricFamilyState(n, np.eye(n // 2 + 1)[0])  # GHZ
    m = collective_moments(fam)
    assert m.n == n and m.sx_mean == 0.0
    assert m.sx2_mean == pytest.approx(n, rel=1e-12)
    assert m.sy2_mean == pytest.approx(n, rel=1e-12)


@pytest.mark.parametrize("n", [20, 100, 300, 1000])
def test_moment_rows_match_a_decimal_oracle_near_the_genramsey_optimum(n):
    # near the gen-Ramsey optimum <S_y^2> is far below n^2: forming it from
    # the squared norms of J+ c and J- c minus their cross term lost up to
    # 3e-12 relative at n = 1000, the squared norm of (J+ - J-)c does not
    ops, log_mu = _flip_even_ops(n), np.linspace(*_LOG_MU_BRACKET, 17)[2:15:3]
    a = np.array([_genramsey_lane(n, ops, x)[0] for x in log_mu])
    c = _dicke_amplitudes(n, a)
    for row, moments in zip(c, zip(*_moment_rows(n, c))):
        for got, want in zip(moments, decimal_moment_rows(n, row)):
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_symmetric_states_have_zero_sy_mean():
    # collective_moments takes <S_y> = 0 for family states; the dense oracle checks it
    rng = np.random.default_rng(3)
    for n in (2, 4, 5):
        a = rng.normal(size=n // 2 + 1)
        a /= np.linalg.norm(a)
        m = dense_collective_moments(family_state(n, a))
        assert m.sy_mean == pytest.approx(0.0, abs=1e-13)


def test_sx2_decomposes_into_pairwise_correlators():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        v /= np.linalg.norm(v)
        m = dense_collective_moments(v)
        pair_sum = 0.0
        for l in range(n):
            for k in range(n):
                if l == k:
                    continue
                op = site_operator(SIGMA_X, l, n) @ site_operator(SIGMA_X, k, n)
                pair_sum += (v.conj() @ op @ v).real
        assert m.sx2_mean - n == pytest.approx(pair_sum, abs=1e-10)


def test_to_density_matches_outer_product():
    # the dense oracles' density matrices, which every 2^n comparison starts from
    assert np.allclose(density(ghz_state(1)), 0.5 * np.ones((2, 2)))
    expected = np.zeros((4, 4), complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.allclose(density(ghz_state(2)), expected)
    rng = np.random.default_rng(5)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = density(v / np.linalg.norm(v))
    assert np.abs(rho - rho.conj().T).max() < 1e-15
    purity = np.trace(rho @ rho).real
    assert purity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected_by_name(bad):
    # nan slips past a norm check, since abs(nan - 1) > tol is False
    with pytest.raises(ValueError, match="coefficients must be finite"):
        SymmetricFamilyState(2, np.array([bad, 1.0]))


def test_collective_moments_validation():
    with pytest.raises(ValueError):
        CollectiveMoments(n=2, sx_mean=3.0, sx2_mean=9.5, sy_mean=0.0, sy2_mean=1.0)
    with pytest.raises(ValueError):
        CollectiveMoments(n=2, sx_mean=1.0, sx2_mean=0.5, sy_mean=0.0, sy2_mean=1.0)


def test_dicke_ladder_cache_stays_within_table_bytes():
    # a gen-Ramsey sweep to n = 1000 asks for each n in turn: the ladders of
    # n = 2..1000 total 8 MB, of which the cache keeps at most _TABLE_BYTES
    _dicke_ladder.cache_clear()
    refs = [weakref.ref(table) for n in range(2, 1001) for table in _dicke_ladder(n)]
    held = [table for table in (ref() for ref in refs) if table is not None]
    assert 0 < sum(table.nbytes for table in held) <= _TABLE_BYTES
