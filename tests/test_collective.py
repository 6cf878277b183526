import math

import numpy as np
import pytest

from clocksim import (
    CollectiveMoments,
    DegenerateStateError,
    ExperimentBudget,
    SingularPointError,
    SymmetricFamilyState,
    collective_moments,
    genramsey_opt_uncertainty,
    precision_bound_chain,
    reference_limit,
    solve_topt,
    uncertainty_uncorrelated,
    uniform_coefficients,
)

from reference import (
    SIGMA_X,
    collective_op,
    dense_evolve,
    density,
    evolved_sx2_mean,
    evolved_sx_mean,
    family_state,
    genramsey_uncertainty,
    minimize_over_t,
    topt_bisection,
)


def _random_family_state(rng, n):
    a = rng.normal(size=n // 2 + 1)
    a /= np.linalg.norm(a)
    return SymmetricFamilyState(n, a)


def _product(n):
    return SymmetricFamilyState(n, uniform_coefficients(n))


def _ghz(n):
    return SymmetricFamilyState(n, np.eye(n // 2 + 1)[0])


def test_evolved_sx_mean_basics():
    m = collective_moments(_product(3))
    assert evolved_sx_mean(m, 0.7, 0.9, 0.0) == pytest.approx(m.sx_mean, abs=1e-15)
    # quarter-turn phase kills the cosine term and real states have <S_y> = 0
    t = 0.8
    assert evolved_sx_mean(m, 0.5 * np.pi / t, 1.0, t) == pytest.approx(0.0, abs=1e-12)
    assert evolved_sx_mean(m, 0.0, 1.0, t) == pytest.approx(3 * np.exp(-t), rel=1e-14)


def test_evolved_sx2_mean_limits():
    m = collective_moments(_product(4))
    assert evolved_sx2_mean(m, 1.0, 0.5, 0.0) == pytest.approx(m.sx2_mean, abs=1e-12)
    assert evolved_sx2_mean(m, 1.0, 200.0, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_evolved_moments_match_dense_evolution():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 6):
        fam = _random_family_state(rng, n)
        m0 = collective_moments(fam)
        delta, gamma, t = rng.uniform(0.2, 2.0), rng.uniform(0.2, 1.5), rng.uniform(0.1, 1.5)
        rho_t = dense_evolve(density(family_state(n, fam.a)), delta, gamma, t)[0]
        sx = collective_op(SIGMA_X, n)
        dense_mean = np.trace(rho_t @ sx).real
        dense_second = np.trace(rho_t @ sx @ sx).real
        assert evolved_sx_mean(m0, delta, gamma, t) == pytest.approx(dense_mean, abs=1e-10)
        assert evolved_sx2_mean(m0, delta, gamma, t) == pytest.approx(dense_second, abs=1e-10)


def test_genramsey_reduces_to_standard_ramsey():
    # with the product preparation the collective measurement reproduces the
    # per-ion accounting at every (delta, t), not just at the optimum
    rng = np.random.default_rng(1)
    for n in (1, 2, 4, 6):
        m0 = collective_moments(_product(n))
        for _ in range(8):
            t = rng.uniform(0.1, 2.0)
            delta = rng.uniform(0.3, 1.2) / t
            gamma = rng.uniform(0.1, 1.5)
            budget = ExperimentBudget(n, 50.0, t)
            assert genramsey_uncertainty(m0, budget, delta, gamma) == pytest.approx(
                uncertainty_uncorrelated(budget, delta, gamma), rel=1e-12
            )


def test_genramsey_rejects_zero_slope_states():
    m0 = collective_moments(_ghz(3))
    with pytest.raises(SingularPointError):
        genramsey_uncertainty(m0, ExperimentBudget(3, 10.0, 0.5), 0.9, 1.0)


def test_genramsey_matches_finite_difference_error_propagation():
    n, gamma, t, delta, total = 4, 1.0, 0.45, 1.3, 60.0
    fam = SymmetricFamilyState(n, np.array([0.8, 0.6, 0.0]))
    m0 = collective_moments(fam)
    rho0 = density(family_state(n, fam.a))
    sx = collective_op(SIGMA_X, n)

    def mean_at(d):
        rho_t = dense_evolve(rho0, d, gamma, t)[0]
        return np.trace(rho_t @ sx).real

    h = 1e-6
    slope = (mean_at(delta + h) - mean_at(delta - h)) / (2 * h)
    rho_t = dense_evolve(rho0, delta, gamma, t)[0]
    var = np.trace(rho_t @ sx @ sx).real - mean_at(delta) ** 2
    expected = math.sqrt(var / ((total / t) * slope**2))
    got = genramsey_uncertainty(m0, ExperimentBudget(n, total, t), delta, gamma)
    assert got == pytest.approx(expected, abs=1e-8)


def test_topt_product_state_is_half_decoherence_time():
    for n in (1, 2, 4, 8):
        m0 = collective_moments(_product(n))
        for gamma in (0.5, 1.0, 2.0):
            assert abs(solve_topt(m0, n, gamma) - 0.5 / gamma) < 1e-12


def test_topt_shrinks_with_variance():
    # squeeze the S_y variance toward zero and watch the root follow
    roots = []
    for scale in (1.0, 0.1, 0.01):
        m0 = collective_moments(_product(2))
        squeezed = type(m0)(
            n=2, sx_mean=m0.sx_mean, sx2_mean=m0.sx2_mean,
            sy_mean=0.0, sy2_mean=scale * m0.sy2_mean,
        )
        roots.append(solve_topt(squeezed, 2, 1.0))
    assert roots[0] > roots[1] > roots[2] > 0.0
    assert roots[2] < 0.1


def test_topt_degenerate_variance_rejected():
    m0 = collective_moments(_product(2))
    flat = type(m0)(n=2, sx_mean=2.0, sx2_mean=4.0, sy_mean=0.0, sy2_mean=0.0)
    with pytest.raises(DegenerateStateError):
        solve_topt(flat, 2, 1.0)


@pytest.mark.parametrize("n", [4, 7, 10])
def test_topt_matches_bisection_oracle(n):
    # the Lambert-W closed form against bisection of the defining equation,
    # down to Var S_y/n = 1e-6, where the residual starts to lose digits; on
    # this grid W0 alone, without the Newton polish, strays past 1e-10
    for ratio in np.geomspace(1e-6, 4.0, 1000):
        m0 = CollectiveMoments(n=n, sx_mean=0.0, sx2_mean=0.0, sy_mean=0.0, sy2_mean=ratio * n)
        for gamma in (0.3, 1.0, 2.5):
            oracle = topt_bisection(m0, n, gamma)
            assert solve_topt(m0, n, gamma) == pytest.approx(oracle, rel=1e-10, abs=0.0)


def test_topt_agrees_with_direct_minimization():
    n, gamma, total = 4, 1.0, 80.0
    m0 = collective_moments(SymmetricFamilyState(n, np.array([0.6, 0.64, 0.48])))
    root = solve_topt(m0, n, gamma)

    ts = np.linspace(0.05, 2.0, 40001)
    values = []
    for t in ts:
        budget = ExperimentBudget(n, total, float(t))
        values.append(genramsey_uncertainty(m0, budget, 0.5 * np.pi / t, gamma))
    assert abs(ts[int(np.argmin(values))] - root) < 1e-4  # grid resolution
    # refine around the grid winner with minimize_over_t for the 1e-6 comparison
    t_star, _ = minimize_over_t(
        lambda t: genramsey_uncertainty(
            m0, ExperimentBudget(n, total, t), 0.5 * np.pi / t, gamma
        ),
        (root / 3, root * 3),
    )
    assert abs(t_star - root) < 1e-6


def test_opt_uncertainty_product_state_hits_reference():
    for n in (1, 3, 5):
        m0 = collective_moments(_product(n))
        res = genramsey_opt_uncertainty(m0, n, 100.0, 1.0)
        assert res.delta_omega == pytest.approx(reference_limit(n, 100.0, 1.0), rel=1e-12)
        assert res.improvement_pct == pytest.approx(0.0, abs=1e-9)
        assert res.phase_opt == pytest.approx(np.pi / 2)
        assert res.scheme == "symmetric-genramsey"


def test_opt_uncertainty_respects_bound_chain():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            m0 = collective_moments(_random_family_state(rng, n))
            if abs(m0.sx_mean) < 1e-9 or m0.sy_variance() < 1e-9:
                continue
            res = genramsey_opt_uncertainty(m0, n, 100.0, 1.0)
            bound_state, bound_universal = precision_bound_chain(m0, n, 100.0, 1.0)
            assert bound_state >= bound_universal - 1e-15
            assert res.delta_omega >= bound_state * (1 - 1e-12)
            assert res.delta_omega >= bound_universal * (1 - 1e-12)
            # universal bound sits 1/sqrt(e) below the reference
            ref = reference_limit(n, 100.0, 1.0)
            assert bound_universal == pytest.approx(ref / math.sqrt(math.e), rel=1e-12)


def test_opt_uncertainty_rejects_degenerate_and_short_budgets():
    m0 = collective_moments(_ghz(4))
    with pytest.raises(DegenerateStateError):
        genramsey_opt_uncertainty(m0, 4, 100.0, 1.0)
    good = collective_moments(_product(4))
    with pytest.raises(ValueError):
        genramsey_opt_uncertainty(good, 4, 0.3, 1.0)  # T < tau_dec/2


def test_bound_chain_product_state_saturates():
    for n in (2, 5):
        m0 = collective_moments(_product(n))
        bound_state, bound_universal = precision_bound_chain(m0, n, 50.0, 1.0)
        assert bound_state == pytest.approx(bound_universal, rel=1e-12)
    bound_state, bound_universal = precision_bound_chain(
        collective_moments(SymmetricFamilyState(4, np.array([0.8, 0.6, 0.0]))), 4, 50.0, 1.0
    )
    assert bound_state > bound_universal * (1 + 1e-9)
