import functools
import importlib
import json
import math
import pkgutil
import re
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksim import (
    BracketingError,
    ClocksimError,
    DegenerateStateError,
    ExperimentBudget,
    NoInformationError,
    SymmetricFamilyState,
    collective_moments,
    family_qfi,
    fig3_scan,
    genramsey_opt_uncertainty,
    improvement_sweep,
    optimize_symmetric_coeffs,
    qfi_shot_optimum,
    qfi_uncertainty,
    reference_limit,
    uncertainty_ghz,
    uncertainty_uncorrelated,
    uniform_coefficients,
)

import clocksim
from clocksim import cli, evolution, fisher, optimize
from clocksim.evolution import MAX_BLOCK_QUBITS
from clocksim.qstate import _dicke_amplitudes, _moment_rows
from clocksim.optimize import (
    _BOUND_SLACK,
    _GRID_POINTS,
    _LINE_EVALS,
    _LOG_MU_GRID,
    _STACK_BYTES,
    ION_RANGE,
    METHODS,
    _backtrack,
    _bracket_beside,
    _chunks,
    _flip_even_ops,
    _genramsey_lanes,
    _genramsey_search,
    _ground_states,
    _polish,
    _secant_root,
    _shot_bracket,
    _shot_grid,
)
from reference import (
    all_lanes_shot_optimum,
    brent_genramsey_root,
    dense_genramsey_ground,
    dense_genramsey_moments,
    dense_genramsey_residual,
    dense_qfi_shot_optimum,
    density,
    family_state,
    ghz_state,
    grid_oracle_improvement,
    lbfgsb_polish,
    minimize_over_t,
    nelder_mead_genramsey,
    nelder_mead_qfi,
)

GAMMA = 1.0
TOTAL = 100.0
# the 41-point log mu grid over [1e-4, 1e2] that ``_LOG_MU_GRID`` is a slice of
_FULL_MU_GRID = np.linspace(math.log(1e-4), math.log(1e2), 41)


def test_minimize_quadratic():
    t_opt, value = minimize_over_t(lambda t: (t - 2.0) ** 2, (0.1, 10.0))
    assert t_opt == pytest.approx(2.0, abs=1e-7)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_minimize_recovers_uncorrelated_optimum():
    objective = lambda t: uncertainty_uncorrelated(
        ExperimentBudget(3, TOTAL, t), 0.5 * np.pi / t, GAMMA
    )
    t_opt, value = minimize_over_t(objective, (1e-3, 3.0))
    assert abs(t_opt - 0.5) < 1e-6
    assert value == pytest.approx(reference_limit(3, TOTAL, GAMMA), rel=1e-9)


def test_minimize_recovers_ghz_optimum():
    n = 5
    objective = lambda t: uncertainty_ghz(
        ExperimentBudget(n, TOTAL, t), 0.5 * np.pi / (n * t), GAMMA
    )
    t_opt, value = minimize_over_t(objective, (1e-3, 3.0))
    assert abs(t_opt - 0.1) < 1e-6
    assert value == pytest.approx(reference_limit(n, TOTAL, GAMMA), rel=1e-9)


def test_minimize_raises_when_nothing_is_finite():
    def always_singular(t):
        raise DegenerateStateError("no signal anywhere")

    with pytest.raises(BracketingError):
        minimize_over_t(always_singular, (0.1, 1.0))


def test_minimize_validates_bracket():
    with pytest.raises(ValueError):
        minimize_over_t(lambda t: t, (1.0, 0.5))


def test_uniform_coefficients_give_zero_improvement():
    # the product preparation is a family member and defines the baseline
    for n in (2, 3, 4):
        res = genramsey_opt_uncertainty(
            collective_moments(SymmetricFamilyState(n, uniform_coefficients(n))),
            TOTAL, GAMMA,
        )
        assert res.improvement_pct == pytest.approx(0.0, abs=1e-9)


def test_ghz_coefficients_are_degenerate_for_genramsey():
    n = 4
    a = np.zeros(n // 2 + 1)
    a[0] = 1.0
    m0 = collective_moments(SymmetricFamilyState(n, a))
    with pytest.raises(DegenerateStateError):
        genramsey_opt_uncertainty(m0, TOTAL, GAMMA)


def test_optimizer_beats_reference_at_n2():
    rep = optimize_symmetric_coeffs(2, GAMMA, TOTAL, "gen-ramsey")
    assert rep.improvement_pct > 0.5
    assert rep.improvement_pct < 100 * (1 - math.exp(-0.5))
    assert np.linalg.norm(rep.best_coeffs) == pytest.approx(1.0, abs=1e-9)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(1, GAMMA, TOTAL, "gen-ramsey")
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(2, GAMMA, TOTAL, "bogus")
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(2, GAMMA, 0.2, "gen-ramsey")  # T < tau_dec/2
    for method in METHODS:
        with pytest.raises(ValueError):
            optimize_symmetric_coeffs(2, GAMMA, math.inf, method)
    # only the exact names of METHODS are accepted
    for method in ("genramsey", "q_f-i", "gen_ramsey"):
        with pytest.raises(ValueError, match=re.escape(str(METHODS))):
            optimize_symmetric_coeffs(2, GAMMA, TOTAL, method)


def test_optimizer_report_is_reproducible_and_self_consistent():
    one = optimize_symmetric_coeffs(3, GAMMA, TOTAL, "gen-ramsey")
    two = optimize_symmetric_coeffs(3, GAMMA, TOTAL, "gen-ramsey")
    assert np.array_equal(one.best_coeffs, two.best_coeffs)
    assert one.improvement_pct == two.improvement_pct
    assert one.t_opt == two.t_opt
    # re-evaluating the reported coefficients reproduces the reported value
    res = genramsey_opt_uncertainty(
        collective_moments(SymmetricFamilyState(3, one.best_coeffs)), TOTAL, GAMMA
    )
    assert res.delta_omega == pytest.approx(one.delta_omega, rel=1e-12)
    ref = reference_limit(3, TOTAL, GAMMA)
    assert one.improvement_pct == pytest.approx(100 * (1 - res.delta_omega / ref), abs=1e-12)


def _improvement(n, delta_omega):
    return 100.0 * (1.0 - delta_omega / reference_limit(n, TOTAL, GAMMA))


@pytest.mark.parametrize("seed", range(4))
def test_reported_coefficients_are_the_canonical_twin(seed):
    # ``seed`` draws the diagonal +-1 unitaries applied to the QFI winner
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4):
        gen = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "gen-ramsey")
        a = gen.best_coeffs
        m0 = collective_moments(SymmetricFamilyState(n, a))
        assert m0.sx_mean > 0.0
        assert a[np.flatnonzero(np.abs(a) > 1e-12)[0]] > 0.0
        twins = [a]
        if n % 2 == 0:  # a_k -> (-1)^k a_k flips <S_x> at the same score
            twins.append(a * (-1.0) ** np.arange(a.size))
        for twin in twins:
            res = genramsey_opt_uncertainty(
                collective_moments(SymmetricFamilyState(n, twin)), TOTAL, GAMMA
            )
            assert res.improvement_pct == pytest.approx(gen.improvement_pct, abs=1e-12)

        opt = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "qfi")
        a = opt.best_coeffs
        assert np.all(a >= 0.0)
        flipped = a * rng.choice([-1.0, 1.0], size=a.size)  # a diagonal +-1 unitary: same bound
        for twin in (a, flipped):
            _, value = qfi_shot_optimum(SymmetricFamilyState(n, twin), GAMMA, TOTAL)
            assert _improvement(n, value) == pytest.approx(opt.improvement_pct, abs=1e-12)


@pytest.mark.parametrize("total", [TOTAL, 0.6])
@pytest.mark.parametrize("n", range(2, 11))
def test_genramsey_search_reaches_nelder_mead_oracle(n, total):
    oracle_impr, _ = nelder_mead_genramsey(n, GAMMA, total)
    rep = optimize_symmetric_coeffs(n, GAMMA, total, "gen-ramsey")
    assert rep.improvement_pct >= oracle_impr - 1e-9
    assert np.all(rep.best_coeffs > 0.0)
    assert collective_moments(SymmetricFamilyState(n, rep.best_coeffs)).sx_mean > 0.0
    assert rep.t_opt <= total and rep.status == "ok"


@pytest.mark.parametrize("n", [2, 3, 4, 20, 101])
def test_stacked_mu_grid_equals_one_mu_at_a_time(n):
    # every lane of the stacked eigensolve and score is computed on its own
    ops = _flip_even_ops(n)
    stacked = _genramsey_lanes(n, ops, GAMMA, TOTAL, _LOG_MU_GRID)
    for i in range(len(_LOG_MU_GRID)):
        single = _genramsey_lanes(n, ops, GAMMA, TOTAL, _LOG_MU_GRID[i : i + 1])
        for got, want in zip(single, stacked):
            assert np.array_equal(got[0], want[i])


@pytest.mark.parametrize("n", [2, 3, 4, 7, 20, 101, 300])
def test_flip_even_ground_states_match_dense_oracle(n):
    # the flip-even sector holds the ground state of the whole n+1 levels.
    # Energies agree to 1e-12 relative to the operator norm, at most
    # n + mu n^2, the scale of any eigensolver's rounding: at mu = 100 the
    # ground energy is far smaller than that norm.
    ops, log_mu = _flip_even_ops(n), _FULL_MU_GRID[::4]
    energies, coeffs, *_ = _ground_states(ops, log_mu)
    for mu, energy, a in zip(np.exp(log_mu), energies, coeffs):
        energy_ref, a_ref = dense_genramsey_ground(n, mu)
        assert abs(energy - energy_ref) <= 1e-12 * max(abs(energy_ref), n + mu * n * n)
        assert np.linalg.norm(a - a_ref) <= 1e-12 * np.linalg.norm(a_ref)
        assert np.all(a > 0.0)
    # where the search ends, the energies agree to 1e-12 relative to themselves
    for mu in (0.2, 1.0, 2.2):
        energy_ref, a_ref = dense_genramsey_ground(n, mu)
        [energy], [a], *_ = _ground_states(ops, np.log([mu]))
        assert energy == pytest.approx(energy_ref, rel=1e-12)
        assert np.linalg.norm(a - a_ref) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 101])
def test_genramsey_search_scores_the_mu_grid_as_stacks(monkeypatch, n):
    # one score call per grid chunk (1, 1 and 3 at n = 3, 4 and 101), then
    # one per Newton probe (3, 2 and 2); Brent's method on the residual alone
    # made 5, 4 and 4, and the bounded minimizer before it 22 at n = 4
    lanes, calls = optimize._genramsey_lanes, []

    def counting(*args):
        calls.append(len(args[-1]))
        return lanes(*args)

    monkeypatch.setattr(optimize, "_genramsey_lanes", counting)
    optimize_symmetric_coeffs(n, GAMMA, TOTAL, "gen-ramsey")
    chunks = _chunks(_LOG_MU_GRID, 16 * (n // 2 + 1) ** 2)
    assert calls[: len(chunks)] == [len(chunk) for chunk in chunks]
    probes = calls[len(chunks) :]
    assert probes == [1] * len(probes) and len(probes) <= 3


# (gamma, T): a long run, a slow one, a fast one and T just above tau_dec/2
@pytest.mark.parametrize("gamma, total", [(1.0, 100.0), (0.3, 50.0), (2.0, 5.0), (1.0, 0.6)])
def test_genramsey_search_solves_its_stationarity_condition(monkeypatch, gamma, total):
    # the winner is the probe where r = log mu - log(<S_x> / (2 n x e^x))
    # vanishes, no worse than any grid lane, and its search reports ok
    lanes, probes = optimize._genramsey_lanes, []

    def recording(*args):
        out = lanes(*args)
        probes.extend(zip(*out))
        return out

    monkeypatch.setattr(optimize, "_genramsey_lanes", recording)
    for n in [*range(2, 21), 101]:
        probes.clear()
        a, t_opt, delta_omega, converged = _genramsey_search(n, gamma, total)
        [r] = [r for _, t, _, r, _ in probes if t == t_opt]
        assert converged and abs(r) <= 1e-10
        grid = _genramsey_lanes(n, _flip_even_ops(n), gamma, total, _LOG_MU_GRID)
        assert delta_omega <= grid[2].min()
        report = optimize_symmetric_coeffs(n, gamma, total, "gen-ramsey")
        assert report.status == "ok" and report.delta_omega == delta_omega


# Ion numbers up to the gen-Ramsey cap of ``ION_RANGE``. Raising that cap,
# as ROADMAP item 3 plans, must add ion numbers up to the new one here.
@pytest.mark.parametrize("n", [*range(2, 41), 60, 100, 300, 1000])
def test_genramsey_optimum_lies_inside_the_mu_grid(monkeypatch, n):
    # the best grid lane is at least two points from either end of the
    # slice, so the slice holds the root's bracket: the best mu rises as
    # about n^0.41, which puts it near 6.8 at n = 1e4, below the top 12.6
    lanes, scores = optimize._genramsey_lanes, []

    def recording(*args):
        out = lanes(*args)
        scores.append(out[2])
        return out

    monkeypatch.setattr(optimize, "_genramsey_lanes", recording)
    *_, converged = _genramsey_search(n, GAMMA, TOTAL)
    chunks = _chunks(_LOG_MU_GRID, 16 * (n // 2 + 1) ** 2)
    best = int(np.argmin(np.concatenate(scores[: len(chunks)])))
    assert converged and 2 <= best <= len(_LOG_MU_GRID) - 3


@pytest.mark.parametrize("n", [2, 5, 17, 60])
def test_genramsey_optimum_depends_on_n_alone(n):
    # neither the residual nor the lane order holds gamma or T, so the
    # winner's coefficients and x = 2 gamma t_opt are the same for every
    # (gamma, T): bit for bit at n <= 17, to 7e-15 at n = 60
    runs = [
        (gamma, _genramsey_search(n, gamma, total))
        for gamma, total in [(1.0, 100.0), (0.3, 50.0), (2.0, 5.0), (1.0, 0.6)]
    ]
    _, (a0, t0, _, _) = runs[0]
    for gamma, (a, t_opt, _, converged) in runs:
        assert converged and np.abs(a - a0).max() <= 1e-14
        assert abs(2.0 * gamma * t_opt - 2.0 * GAMMA * t0) <= 1e-14


@pytest.mark.parametrize("n", [*range(2, 21), 101, 300])
def test_sliced_mu_grid_gives_the_full_grids_bits(monkeypatch, n):
    # each lane scores the same bits alone as in a stack, so the slice finds
    # the full grid's best lane, bracket and probes, and ends on its bits
    a, *rest = _genramsey_search(n, GAMMA, TOTAL)
    monkeypatch.setattr(optimize, "_LOG_MU_GRID", _FULL_MU_GRID)
    a_full, *rest_full = _genramsey_search(n, GAMMA, TOTAL)
    assert a.tobytes() == a_full.tobytes() and rest == rest_full


# The (gamma, T) pairs of the shot-time root checks: a long run, a slow
# one, a fast one and one with T below 8/gamma.
_ROOT_PAIRS = ((1.0, 100.0), (0.3, 50.0), (2.0, 5.0), (1.0, 0.6))


def _seeded_states(n):
    """GHZ, product and one seeded family state at n."""
    a = np.random.default_rng(n).normal(size=n // 2 + 1)
    for coeffs in (np.eye(1, n // 2 + 1)[0], uniform_coefficients(n), a / np.linalg.norm(a)):
        yield SymmetricFamilyState(n, coeffs)


@pytest.mark.parametrize("gamma, total", _ROOT_PAIRS)
def test_shot_time_root_matches_scipy_brentq(monkeypatch, gamma, total):
    # the inverse-quadratic finish lands within 1e-12 of scipy's brentq, to
    # the same xtol, on the bracket and residual each shot-time optimum
    # solves, in x = t / t_lo, so within 1e-12 relative in t, in a few probes
    # (measured: 1 to 4, and at most 1.4e-13 apart)
    secant_root, solves = optimize._secant_root, []

    def comparing(f, lo, hi, f_lo, f_hi):
        theirs = scipy.optimize.brentq(f, lo, hi, xtol=1e-12)
        probes = []
        ours = secant_root(lambda x: probes.append(x) or f(x), lo, hi, f_lo, f_hi)
        solves.append((ours, theirs, len(probes)))
        return ours

    monkeypatch.setattr(optimize, "_secant_root", comparing)
    for n in range(2, 8):
        for state in _seeded_states(n):
            solves.clear()
            qfi_shot_optimum(state, gamma, total)
            [(ours, theirs, probes)] = solves
            assert abs(ours - theirs) <= 1e-12 and 1 <= probes <= 4


@pytest.mark.parametrize(
    "f, lo, hi, root, most",
    [
        (lambda x: x - 1.0, 1.0, 3.0, 1.0, 0),
        (lambda x: x * x - 4.0, 0.0, 2.0, 2.0, 0),
        (lambda x: 2.0 * x - 1.0, 0.0, 3.0, 0.5, 1),
        (lambda x: 0.1 * 3.0 * x - 0.1, 0.0, 10.0, 1.0 / 3.0, 1),
        (lambda x: x**9 - 1e-3, 0.0, 4.0, 1e-3 ** (1.0 / 9.0), 16),  # 16 measured
        (lambda x: math.exp(x) - 5.0, 0.0, 20.0, math.log(5.0), 11),  # 11 measured
        (lambda x: -1.0 if x < 0.3 else 1.0, -1.0, 1.0, 0.3, 40),  # 40 measured
        (lambda x: -1.0 if x < 0.3 else 1.0, -1e300, 1e300, None, 100),
        (lambda x: x if abs(x) == 1.0 else math.nan, -1.0, 1.0, None, 100),
    ],
    ids=["root-at-a", "root-at-b", "linear", "on-probe", "bisection", "interpolation", "step",
         "unconverged", "nan-inside"],
)
def test_secant_root_on_closed_form_residuals(f, lo, hi, root, most):
    # an end where f vanishes is returned without a probe (a step through
    # it would divide by zero) and a linear f's root after one, also where
    # f there is a rounding error off zero and the inverse quadratic's root
    # is that probe itself (on-probe: a zero slope there would bisect); a
    # smooth f ends on its root, a step within twice the tolerance 1e-12 +
    # 4 eps |x| of its jump, and a bracket too wide to bisect in 100 probes,
    # or one where f is NaN inside, ends with None: never an exception or,
    # as warnings are errors here, a warning. A root found by probing is
    # the latest probe
    probes = []
    got = _secant_root(lambda x: probes.append(x) or f(x), lo, hi, f(lo), f(hi))
    assert len(probes) <= most
    if root is None:
        assert got is None
    else:
        assert got == pytest.approx(root, rel=0.0, abs=2.0 * (1e-12 + 4.0 * math.ulp(1.0) * root))
        assert got == (probes[-1] if probes else lo if f(lo) == 0.0 else hi)


def test_genramsey_result_does_not_depend_on_where_the_grid_sits(monkeypatch):
    # a root is where it is; the bounded minimizer's stopping point on the
    # flat optimum moved t_opt by about 3e-8 under this half-spacing shift
    before = [_genramsey_search(n, GAMMA, TOTAL) for n in range(2, 21)]
    spacing = _LOG_MU_GRID[1] - _LOG_MU_GRID[0]
    monkeypatch.setattr(optimize, "_LOG_MU_GRID", _LOG_MU_GRID + 0.5 * spacing)
    for n, (a, t_opt, _, _) in zip(range(2, 21), before):
        a_shift, t_shift, _, converged = _genramsey_search(n, GAMMA, TOTAL)
        assert converged and np.abs(a_shift - a).max() <= 1e-12
        assert t_shift == pytest.approx(t_opt, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [3, 20])
@pytest.mark.parametrize("mu", [0.2, 1.0, 2.2])
def test_dense_ground_states_obey_the_hellmann_feynman_identity(n, mu):
    # d<S_x>/dmu = mu d<S_y^2>/dmu, by central differences on the dense
    # oracle: the identity the stationarity condition of the search rests on
    h = 1e-4 * mu
    (sx_hi, sy2_hi), (sx_lo, sy2_lo) = (dense_genramsey_moments(n, mu + s) for s in (h, -h))
    dsx, dsy2 = (sx_hi - sx_lo) / (2.0 * h), (sy2_hi - sy2_lo) / (2.0 * h)
    assert dsx == pytest.approx(mu * dsy2, rel=1e-6)


@pytest.mark.parametrize("n", [3, 20, 101])
@pytest.mark.parametrize("mu", [0.2, 1.0, 2.2])
def test_lane_slopes_match_central_differences(n, mu):
    # d<S_y^2>/dmu from the eigenpairs, and dr/dlog mu from it, agree with
    # central differences of the lane itself and of the dense oracle
    ops, step, h = _flip_even_ops(n), 1e-4 * mu, 1e-4
    _, _, _, sy2, dsy2 = _ground_states(ops, np.log([mu, mu + step, mu - step]))
    (_, dense_hi), (_, dense_lo) = (dense_genramsey_moments(n, mu + s) for s in (step, -step))
    for hi, lo in ((sy2[1], sy2[2]), (dense_hi, dense_lo)):
        assert dsy2[0] == pytest.approx((hi - lo) / (2.0 * step), rel=1e-6)
    log_mu = math.log(mu) + np.array([0.0, h, -h])
    *_, r, dr = _genramsey_lanes(n, ops, GAMMA, TOTAL, log_mu)
    dense_r = [dense_genramsey_residual(n, x) for x in log_mu[1:]]
    for hi, lo in ((r[1], r[2]), dense_r):
        assert dr[0] == pytest.approx((hi - lo) / (2.0 * h), rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 20, 101, 300, 1000])
def test_lane_moments_match_the_dicke_moments(n):
    # <S_x> and <S_y^2> read from the eigenpairs in the family basis agree
    # with the O(n) moments of the ground states' Dicke amplitudes
    _, a, sx, sy2, _ = _ground_states(_flip_even_ops(n), _LOG_MU_GRID[::4])
    sx_ref, _, sy2_ref = _moment_rows(n, _dicke_amplitudes(n, a))
    assert np.abs(sx / sx_ref - 1.0).max() <= 1e-12
    assert np.abs(sy2 / sy2_ref - 1.0).max() <= 1e-12


def _searched_log_mu(monkeypatch, n, gamma, total):
    """(log mu of the lane ``_genramsey_search`` returns, converged, and the
    number of one-lane probes it made)."""
    lanes, calls, scored = optimize._genramsey_lanes, [], []

    def recording(*args):
        out = lanes(*args)
        calls.append(len(args[-1]))
        scored.extend(zip(args[-1].tolist(), out[1].tolist()))
        return out

    monkeypatch.setattr(optimize, "_genramsey_lanes", recording)
    _, t_opt, _, converged = _genramsey_search(n, gamma, total)
    monkeypatch.setattr(optimize, "_genramsey_lanes", lanes)
    log_mu = [log_mu for log_mu, t in scored if t == t_opt][-1]  # a probe, or the best grid lane
    return log_mu, converged, len(calls) - len(_chunks(_LOG_MU_GRID, 16 * (n // 2 + 1) ** 2))


def _oracle_root(n, log_mu):
    """``brent_genramsey_root`` between the grid points around ``log_mu``."""
    k = int(np.searchsorted(_LOG_MU_GRID, log_mu))
    return brent_genramsey_root(n, _LOG_MU_GRID[k - 1], _LOG_MU_GRID[k])


@pytest.mark.parametrize("n", [*range(2, 21), 101, 300, 1000])
def test_newton_root_matches_the_brent_oracle(monkeypatch, n):
    # Newton steps from the cubic Hermite start land, in at most three
    # one-lane probes, within 1e-12 in log mu of scipy's brentq on the
    # residual of the dense ground states, whatever (gamma, T)
    roots = []
    for gamma, total in [(1.0, 100.0), (0.3, 50.0), (2.0, 5.0), (1.0, 0.6)]:
        log_mu, converged, probes = _searched_log_mu(monkeypatch, n, gamma, total)
        assert converged and probes <= 3
        roots.append(log_mu)
    oracle = _oracle_root(n, roots[0])
    assert max(abs(root - oracle) for root in roots) <= 1e-12


@pytest.mark.parametrize("n", [3, 20, 101])
@pytest.mark.parametrize("fault", ["low-start", "high-start", "negated", "zero", "nan"])
def test_newton_search_survives_a_bad_start_or_slope(monkeypatch, n, fault):
    # a start forced onto a bracket end, or a slope of the wrong sign, zero
    # or NaN, still ends on the root, by bisection where a Newton step would
    # leave the bracket: within the search's tolerance 1e-12 + 4 eps |log mu|
    # and the oracle's own (measured: at most 5.8e-13, after up to 39 probes)
    if fault.endswith("start"):
        end = 0 if fault == "low-start" else 1
        monkeypatch.setattr(optimize, "_hermite_root", lambda *args: args[end])
    else:
        lanes = optimize._genramsey_lanes
        corrupt = {"negated": np.negative, "zero": np.zeros_like, "nan": lambda dr: dr * math.nan}

        def corrupted(*args):
            *out, dr = lanes(*args)
            return (*out, corrupt[fault](dr))

        monkeypatch.setattr(optimize, "_genramsey_lanes", corrupted)
    log_mu, converged, probes = _searched_log_mu(monkeypatch, n, GAMMA, TOTAL)
    assert converged and probes <= 100
    assert abs(log_mu - _oracle_root(n, log_mu)) <= 2e-12


def test_newton_search_without_convergence_reports_partial(monkeypatch):
    # a residual that is NaN off the grid never yields a step: after 100
    # probes the search returns its best grid lane, unconverged
    lanes = optimize._genramsey_lanes

    def undefined_off_the_grid(*args):
        a, t_opt, delta_omega, r, dr = lanes(*args)
        return a, t_opt, delta_omega, r if len(r) > 1 else r * math.nan, dr

    monkeypatch.setattr(optimize, "_genramsey_lanes", undefined_off_the_grid)
    log_mu, converged, probes = _searched_log_mu(monkeypatch, 3, GAMMA, TOTAL)
    assert not converged and probes == 100 and log_mu in _LOG_MU_GRID
    assert optimize_symmetric_coeffs(3, GAMMA, TOTAL, "gen-ramsey").status == "partial"


def test_genramsey_search_off_its_bracket_reports_partial(tmp_path, monkeypatch):
    # on mu in [5, 100] the best lane is the lower edge, where delta_omega
    # still rises with mu: the search returns that lane, flagged partial
    monkeypatch.setattr(optimize, "_LOG_MU_GRID", np.linspace(math.log(5.0), math.log(100.0), 41))
    a, t_opt, delta_omega, converged = _genramsey_search(3, GAMMA, TOTAL)
    edge = _genramsey_lanes(3, _flip_even_ops(3), GAMMA, TOTAL, optimize._LOG_MU_GRID[:1])
    assert not converged and np.array_equal(a, edge[0][0]) and delta_omega == edge[2][0]
    report = optimize_symmetric_coeffs(3, GAMMA, TOTAL, "gen-ramsey")
    assert report.status == "partial" and report.t_opt == t_opt
    assert dict(improvement_sweep([3], GAMMA, TOTAL))[3]["gen-ramsey"].status == "partial"
    out = tmp_path / "opt.csv"
    argv = ["optimize", "--method", "gen-ramsey", "--n-min", "2", "--n-max", "3"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [row[5] for row in rows] == ["partial", "partial"]


def test_sweep_runs_one_genramsey_search_per_n(monkeypatch):
    # the QFI search starts from the gen-Ramsey winner the sweep already has
    search, calls = optimize._genramsey_search, []

    def counting(*args):
        calls.append(args[0])
        return search(*args)

    monkeypatch.setattr(optimize, "_genramsey_search", counting)
    sweep = improvement_sweep(range(2, 6), GAMMA, TOTAL)
    statuses = [rep.status for _, reports in sweep for rep in reports.values()]
    assert calls == [2, 3, 4, 5] and statuses == ["ok"] * 8


@pytest.mark.parametrize("n", range(2, 6))
def test_qfi_search_reaches_nelder_mead_oracle(n):
    oracle_impr, _ = nelder_mead_qfi(n, GAMMA, TOTAL)
    rep = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "qfi")
    assert rep.improvement_pct >= oracle_impr - 1e-9
    assert rep.status == "ok" and np.all(rep.best_coeffs >= 0.0)
    gen = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "gen-ramsey")
    assert rep.improvement_pct >= gen.improvement_pct - 1e-6


def test_qfi_search_makes_few_core_calls(monkeypatch):
    # the polish from the gen-Ramsey winner makes 9, 8 and 69 calls at n =
    # 2, 3 and 20 (11, 9 and 82 without its model stop), and the caps allow
    # one more at n = 2 and 3: the benchmark feels each call (18 instead of
    # 11 at n = 2 once cost its qfi_curve 19 % of wall time), and a
    # shot-time grid scored before the polish would cost far more
    core, calls = fisher._qfi_core, []

    def counting(*args):
        calls.append(1)
        return core(*args)

    monkeypatch.setattr(fisher, "_qfi_core", counting)
    for n, cap in ((2, 10), (3, 9), (20, 96)):
        calls.clear()
        rep = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "qfi")
        assert rep.status == "ok"
        assert 0 < len(calls) <= cap


def _traced(f, df):
    """``phi(step) = (f(step), df(step))`` with the list of steps it was
    called at."""
    steps = []

    def phi(step):
        steps.append(step)
        return f(step), df(step)

    return phi, steps


def test_backtrack_on_closed_form_objectives():
    # f(s) = -s + s^2 from f(0) = 0, f'(0) = -1: minimizer 1/2, and Armijo's
    # test f <= -1e-3 s holds for s <= 0.999
    phi, steps = _traced(lambda s: s * s - s, lambda s: 2.0 * s - 1.0)
    assert _backtrack(phi, 0.0, -1.0, 0.8, 0.0) == 0.8 and steps == [0.8]
    # an overshoot: the cubic through both ends is the quadratic itself, so
    # the next trial is its minimizer -g0/(2c) when that lies in [0.1, 0.5] stp
    phi, steps = _traced(lambda s: s * s - s, lambda s: 2.0 * s - 1.0)
    assert _backtrack(phi, 0.0, -1.0, 1.5, 0.0) == steps[-1]
    assert len(steps) == 2 and steps[1] == pytest.approx(0.5, rel=1e-15)
    # ... and is clamped to 0.1 stp, or to 0.5 stp, when it does not
    phi, steps = _traced(lambda s: s * s - s, lambda s: 2.0 * s - 1.0)
    _backtrack(phi, 0.0, -1.0, 10.0, 0.0)
    assert steps[:2] == [10.0, 1.0] and steps[2] == pytest.approx(0.5, rel=1e-15)
    phi, steps = _traced(lambda s: s * s - s, lambda s: 2.0 * s - 1.0)
    _backtrack(phi, 0.0, -1.0, 0.9995, 0.0)
    assert steps == [0.9995, 0.5 * 0.9995]
    # no decrease, with no further call, once a failed trial's predicted
    # decrease -stp g0 is at most the floor, or after _LINE_EVALS trials
    phi, steps = _traced(lambda s: s * s - s, lambda s: 2.0 * s - 1.0)
    assert _backtrack(phi, 0.0, -1.0, 10.0, 5.0) is None and steps == [10.0, 1.0]
    phi, steps = _traced(lambda s: 1.0, lambda s: 0.0)
    assert _backtrack(phi, 0.0, -1.0, 1.0, 0.0) is None and len(steps) == _LINE_EVALS
    # an infinite objective (no information), with the zero slope the
    # polish gives it, halves the step
    phi, steps = _traced(lambda s: math.inf if s > 1.0 else s * s - s, lambda s: 0.0)
    assert _backtrack(phi, 0.0, -1.0, 6.0, 0.0) == 0.75 and steps == [6.0, 3.0, 1.5, 0.75]


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_polish_never_ends_above_the_best_grid_lane(n):
    # the polish starts from the gen-Ramsey winner at its closed-form shot time
    a, t0, _, _ = _genramsey_search(n, GAMMA, TOTAL)
    bracket = _shot_bracket(GAMMA, TOTAL)
    fq = family_qfi(SymmetricFamilyState(n, a), GAMMA, t0)[0]
    a_pol, t_pol, fq_pol, certified = _polish(n, GAMMA, a, t0, bracket)
    fq_family = family_qfi(SymmetricFamilyState(n, a_pol), GAMMA, t_pol)[0]
    assert fq_pol == pytest.approx(fq_family, rel=1e-13)
    assert certified and bracket[0] <= t_pol <= bracket[1]
    assert t_pol / fq_pol <= t0 / fq


# (gamma, T): long and short runs, weak and strong dephasing
_SHOT_REGIMES = [(1.0, 100.0), (1.0, 0.6), (0.3, 50.0), (2.0, 10.0)]
_POLISH_CASES = [
    *((n, gamma, total) for n in range(2, 11) for gamma, total in _SHOT_REGIMES),
    (20, GAMMA, TOTAL),
]


@pytest.mark.parametrize("n, gamma, total", _POLISH_CASES)
def test_polish_matches_the_lbfgsb_oracle(monkeypatch, n, gamma, total):
    # from the gen-Ramsey winner, the numpy L-BFGS certifies its point, ends
    # no worse than scipy's L-BFGS-B and makes at most 20 % more gradient calls
    a0, t0, _, _ = _genramsey_search(n, gamma, total)
    bracket = _shot_bracket(gamma, total)
    t0 = min(max(t0, bracket[0]), bracket[1])
    _, t_ref, fq_ref, _, calls_ref = lbfgsb_polish(n, gamma, a0, t0, bracket)
    gradient, calls = optimize._qfi_gradient, []

    def counting(*args):
        calls.append(1)
        return gradient(*args)

    monkeypatch.setattr(optimize, "_qfi_gradient", counting)
    _, t, fq, certified = _polish(n, gamma, a0, t0, bracket)
    assert certified
    assert math.sqrt(t / fq) <= math.sqrt(t_ref / fq_ref) * (1.0 + 1e-12)
    assert len(calls) <= 1.2 * calls_ref


@pytest.mark.parametrize("n, gamma, total", _POLISH_CASES)
def test_model_floor_only_cuts_the_polish_short(monkeypatch, n, gamma, total):
    # with a zero model floor the polish runs to its factr and line-search
    # stops; the floor may end it earlier, never uncertified, never with more
    # gradient calls and with the bound moved by at most 1e-12 relative
    a0, t0, _, _ = _genramsey_search(n, gamma, total)
    bracket = _shot_bracket(gamma, total)
    t0 = min(max(t0, bracket[0]), bracket[1])
    gradient, calls = optimize._qfi_gradient, []

    def counting(*args):
        calls.append(1)
        return gradient(*args)

    monkeypatch.setattr(optimize, "_qfi_gradient", counting)
    runs = []
    for floor in (optimize._MODEL_FLOOR, 0.0):
        monkeypatch.setattr(optimize, "_MODEL_FLOOR", floor)
        calls.clear()
        _, t, fq, certified = _polish(n, gamma, a0, t0, bracket)
        runs.append((certified, len(calls), math.sqrt(t / fq)))
    (certified, evals, bound), (certified_old, evals_old, bound_old) = runs
    assert certified or not certified_old
    assert evals <= evals_old
    assert bound == pytest.approx(bound_old, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("edge, bracket", [(0, (0.6, 0.9)), (1, (0.05, 0.2))])
def test_qfi_search_held_at_an_artificial_bracket_edge_reports_partial(monkeypatch, edge, bracket):
    # the n = 3 optimum, t about 0.37, lies beyond a narrowed bracket's edge,
    # where the projected gradient is zero but nothing constrains t
    monkeypatch.setattr(optimize, "_shot_bracket", lambda gamma, total: bracket)
    rep = optimize_symmetric_coeffs(3, GAMMA, TOTAL, "qfi")
    assert rep.t_opt == pytest.approx(bracket[edge], rel=1e-15)
    assert rep.status == "partial"


def test_qfi_search_held_at_the_total_time_is_certified(monkeypatch):
    # t <= T is a real constraint: with T = 0.2 below the n = 3 optimum the
    # polish ends at t = T, certified, with a narrowed bracket too
    a0, t0, _, _ = _genramsey_search(3, GAMMA, TOTAL)
    for bracket in (_shot_bracket, lambda gamma, total: (0.05, min(total, 0.2))):
        monkeypatch.setattr(optimize, "_shot_bracket", bracket)
        _, t, _, certified = optimize._qfi_search(3, GAMMA, 0.2, a0, t0)
        assert t == pytest.approx(0.2, rel=1e-15) and certified


@pytest.mark.parametrize("gamma, total", [(1.0, 100.0), (1.0, 0.6), (0.3, 50.0)])
@pytest.mark.parametrize("n", [2, 5, 10, 20])
def test_qfi_report_is_its_own_shot_time_optimum(n, gamma, total):
    # delta_omega is the polish's own bound at t_opt, and the shot-time
    # search on the reported coefficients lands on the same optimum
    rep = optimize_symmetric_coeffs(n, gamma, total, "qfi")
    state = SymmetricFamilyState(n, rep.best_coeffs)
    fq = family_qfi(state, gamma, rep.t_opt)[0]
    assert rep.delta_omega == pytest.approx(math.sqrt(rep.t_opt / (total * fq)), rel=1e-13)
    t_opt, delta_omega = qfi_shot_optimum(state, gamma, total)
    assert delta_omega == pytest.approx(rep.delta_omega, rel=1e-12)
    assert t_opt == pytest.approx(rep.t_opt, rel=1e-6)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    gamma=st.floats(0.2, 2.0),
    scales=st.tuples(st.floats(8.0, 20.0), st.floats(40.0, 1000.0)),
)
def test_qfi_search_bound_scales_as_inverse_sqrt_total_time(n, gamma, scales):
    # with T >= 8/gamma the shot-time bracket does not depend on T, and the
    # bound sqrt(t / (T F_Q)) scales as 1/sqrt(T) at every shot time
    scaled = []
    for scale in scales:
        total = scale / gamma
        rep = optimize_symmetric_coeffs(n, gamma, total, "qfi")
        assert rep.status == "ok"
        scaled.append(rep.delta_omega * math.sqrt(total))
    assert scaled[0] == pytest.approx(scaled[1], rel=1e-12)


# The dense 2^n path lives in tests/reference.py; no package module may
# define it again, and every exported name must resolve.
_DENSE_NAMES = (
    "StateVector", "DensityMatrix", "product_superposition", "ghz", "symmetric_state",
    "_weight_classes", "hamming_weights", "to_density", "RAMSEY_PULSE", "apply_single_qubit",
    "_cnot_perm", "apply_cnot", "ghz_via_network", "MAX_QUBITS", "_weight_diff",
    "_hamming_distance", "_evolve_stack", "dephase_evolve", "drho_ddelta", "QfiResult",
    "_check_derivative", "_canonical_phases", "qfi_value", "qfi", "basis_projectors",
    "classical_fi", "_HERM_TOL", "pipeline_signal", "_conjugate_single_qubit",
    "_PIPELINE_MAX_QUBITS", "minimize_over_t", "_safe_call", "OptimizationFailureError",
)
# One block QFI serves every F_Q, and the gen-Ramsey uncertainty at any phase
# is a test oracle too: none of these may come back.
_REMOVED_NAMES = (
    "_family_evolution", "_family_qfi_at", "_block_channel", "_sld_bases",
    "evolved_sx_mean", "evolved_sx2_mean", "evolved_sx_slope", "genramsey_uncertainty",
    "fig4_curve", "ImprovementCurvePoint", "precision_bound_chain", "shot_variance",
)


def test_package_keeps_no_dense_path_and_its_exports_resolve(tmp_path):
    modules = [clocksim] + [
        importlib.import_module(f"clocksim.{info.name}")
        for info in pkgutil.iter_modules(clocksim.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        defined = [name for name in _DENSE_NAMES + _REMOVED_NAMES if hasattr(module, name)]
        assert not defined, f"{module.__name__} defines {defined}"
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"
    assert not hasattr(clocksim.SymmetricFamilyState, "state_vector")
    # every QFI preparation of the CLI is a family state, in both timing modes
    preparations = (["--scheme", "ghz"], ["--scheme", "uncorrelated"], ["--coeffs", "0.8;0.6"])
    for preparation in preparations:
        for timing in (["--optimize-t", "--total-time", "100"], ["--t", "0.3"]):
            out = tmp_path / "qfi.json"
            argv = ["qfi", "--n", "3", "--gamma", "1", *preparation, *timing, "--out", str(out)]
            assert cli.main(argv) == 0


# At n = 20 one complex 2^n state vector takes 16 MB; the family paths work on
# n + 1 Dicke amplitudes and Schur-Weyl blocks of at most n + 1 rows.
_LARGE_N = 20
_STATE_VECTOR_BYTES = 16 * 2**_LARGE_N


def _peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_genramsey_search_builds_no_state_vector():
    rep, peak = _peak_bytes(lambda: optimize_symmetric_coeffs(_LARGE_N, GAMMA, TOTAL, "gen-ramsey"))
    assert rep.status == "ok" and rep.improvement_pct > 0.0
    assert peak < _STATE_VECTOR_BYTES / 16, f"the gen-Ramsey search allocated {peak} bytes"


def test_genramsey_search_at_n500_stays_small():
    # one flip-even chunk at a time; an unchunked 17-lane stack of the
    # 251 x 251 sector matrices and eigenvectors would add about 17 MB
    rep, peak = _peak_bytes(lambda: optimize_symmetric_coeffs(500, GAMMA, TOTAL, "gen-ramsey"))
    assert rep.status == "ok" and rep.improvement_pct > 0.0
    assert peak < 16 * 2**20, f"the n = 500 gen-Ramsey search allocated {peak} bytes"


def test_qfi_shot_optimum_at_the_cap_stays_small(tmp_path):
    # one shot time's (K, n+1, n+1) blocks at a time, 4.2 MB each at n = 100;
    # a four-index (K, n+1, n+1, n+1) weight table would take 420 MB
    n = MAX_BLOCK_QUBITS
    evolution._block_tables.cache_clear()
    state = SymmetricFamilyState(n, uniform_coefficients(n))
    (t_opt, delta_omega), peak = _peak_bytes(lambda: qfi_shot_optimum(state, GAMMA, TOTAL))
    assert t_opt == pytest.approx(0.5 / GAMMA, rel=1e-6)
    assert delta_omega == pytest.approx(reference_limit(n, TOTAL, GAMMA), rel=1e-8)
    assert peak < 100 * 2**20, f"the n = {n} shot-time optimum allocated {peak} bytes"
    # the CLI report at the cap reads the search's final probe, the only
    # one held, and stays under the same bound
    evolution._block_tables.cache_clear()
    argv = ["qfi", "--n", str(n), "--gamma", "1", "--optimize-t", "--total-time", str(TOTAL),
            "--scheme", "uncorrelated", "--out", str(tmp_path / "qfi.json")]
    code, peak = _peak_bytes(lambda: cli.main(argv))
    assert code == 0
    assert peak < 100 * 2**20, f"clocksim {' '.join(argv)} allocated {peak} bytes"
    # one polish gradient at the cap drops each (K, n+1, n+1) temporary, 4 MB,
    # after its last read (36.3 MiB measured)
    a = uniform_coefficients(n)
    fisher._qfi_gradient(n, GAMMA, a, 0.5)
    _, peak = _peak_bytes(lambda: fisher._qfi_gradient(n, GAMMA, a, 0.5))
    assert peak <= 44.2 * 2**20, f"one n = {n} QFI gradient allocated {peak} bytes"


def test_qfi_paths_build_no_2n_state(tmp_path):
    rep, peak = _peak_bytes(lambda: optimize_symmetric_coeffs(_LARGE_N, GAMMA, TOTAL, "qfi"))
    assert rep.status == "ok" and rep.improvement_pct > 0.0
    assert peak < _STATE_VECTOR_BYTES / 2, f"the QFI search allocated {peak} bytes"
    coeffs = ";".join(["%.17g" % (1.0 / math.sqrt(_LARGE_N // 2 + 1))] * (_LARGE_N // 2 + 1))
    preparations = (["--scheme", "ghz"], ["--scheme", "uncorrelated"], ["--coeffs", coeffs])
    for preparation in preparations:
        for timing in (["--optimize-t", "--total-time", "100"], ["--t", "0.3"]):
            out = tmp_path / "qfi.json"
            argv = ["qfi", "--n", str(_LARGE_N), "--gamma", "1", *preparation, *timing]
            code, peak = _peak_bytes(lambda: cli.main([*argv, "--out", str(out)]))
            assert code == 0
            assert peak < _STATE_VECTOR_BYTES / 2, f"clocksim {' '.join(argv)} allocated {peak} bytes"


def _forbid_nelder_mead_and_random_draws(monkeypatch, search):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"the {search} search ran Nelder-Mead or drew random numbers")

    monkeypatch.setattr(scipy.optimize, "minimize", forbidden)
    # and through any other entry point to scipy's Nelder-Mead
    monkeypatch.setattr(scipy.optimize._minimize, "_minimize_neldermead", forbidden)
    monkeypatch.setattr(scipy.optimize._optimize, "_minimize_neldermead", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)


def test_genramsey_search_runs_no_nelder_mead_and_draws_nothing(monkeypatch):
    expected = optimize_symmetric_coeffs(5, GAMMA, TOTAL, "gen-ramsey")
    _forbid_nelder_mead_and_random_draws(monkeypatch, "gen-Ramsey")
    rep = optimize_symmetric_coeffs(5, GAMMA, TOTAL, "gen-ramsey")
    assert rep.improvement_pct == expected.improvement_pct
    assert np.array_equal(rep.best_coeffs, expected.best_coeffs)


def test_qfi_search_runs_no_nelder_mead_and_draws_nothing(monkeypatch):
    expected = optimize_symmetric_coeffs(4, GAMMA, TOTAL, "qfi")
    _forbid_nelder_mead_and_random_draws(monkeypatch, "QFI")
    rep = optimize_symmetric_coeffs(4, GAMMA, TOTAL, "qfi")
    assert rep.improvement_pct == expected.improvement_pct and rep.t_opt == expected.t_opt
    assert np.array_equal(rep.best_coeffs, expected.best_coeffs)


def test_qfi_search_at_its_evaluation_cap_reports_partial(monkeypatch):
    monkeypatch.setattr(optimize, "_POLISH_EVALS", 1)
    rep = optimize_symmetric_coeffs(3, GAMMA, TOTAL, "qfi")
    assert rep.status == "partial"
    # with no step taken the search still scores the gen-Ramsey winner
    gen = optimize_symmetric_coeffs(3, GAMMA, TOTAL, "gen-ramsey")
    assert rep.improvement_pct >= gen.improvement_pct - 1e-6
    assert dict(improvement_sweep([3], GAMMA, TOTAL))[3]["qfi"].status == "partial"


def test_ion_range_is_per_method():
    assert ION_RANGE["qfi"] == (2, MAX_BLOCK_QUBITS)
    rep = optimize_symmetric_coeffs(MAX_BLOCK_QUBITS + 1, GAMMA, TOTAL, "gen-ramsey")
    assert rep.improvement_pct > 0.0
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(MAX_BLOCK_QUBITS + 1, GAMMA, TOTAL, "qfi")
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(1001, GAMMA, TOTAL, "gen-ramsey")


@pytest.mark.parametrize("n", [2, 3])
def test_optimizer_matches_grid_oracle_genramsey(n):
    oracle_impr, oracle_a = grid_oracle_improvement(n, GAMMA, TOTAL, "genramsey")
    rep = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "gen-ramsey")
    assert rep.improvement_pct >= oracle_impr - 1e-6
    assert abs(rep.improvement_pct - oracle_impr) < 0.1


@pytest.mark.parametrize("n", [2, 3])
def test_optimizer_matches_grid_oracle_qfi(n):
    oracle_impr, _ = grid_oracle_improvement(n, GAMMA, TOTAL, "qfi")
    rep = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "qfi")
    assert rep.improvement_pct >= oracle_impr - 1e-6
    assert abs(rep.improvement_pct - oracle_impr) < 0.1


def test_qfi_shot_optimum_validation():
    state = SymmetricFamilyState(2, [1.0, 0.0])
    for gamma, total in ((0.0, TOTAL), (-1.0, TOTAL), (math.nan, TOTAL), (GAMMA, math.inf),
                         (GAMMA, math.nan)):
        with pytest.raises(ValueError):
            qfi_shot_optimum(state, gamma, total)
    with pytest.raises(TypeError):
        qfi_shot_optimum(density(ghz_state(2)), GAMMA, TOTAL)
    n = MAX_BLOCK_QUBITS + 1
    with pytest.raises(ValueError, match=f"block QFI supports 1 <= n <= {MAX_BLOCK_QUBITS}"):
        qfi_shot_optimum(SymmetricFamilyState(n, np.eye(1, n // 2 + 1)[0]), GAMMA, TOTAL)


def _scalar_shot_optimum(state, gamma, total):
    """The scalar oracle's shot-time optimum of the block bound: a 48-point
    grid and scipy's bounded Brent method, one shot time at a time."""
    return minimize_over_t(
        lambda t: qfi_uncertainty(family_qfi(state, gamma, t)[0], total, t),
        (1e-4 / gamma, min(total, 8.0 / gamma)),
    )


@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_qfi_shot_optimum_equals_scalar_search(n, delta):
    # the block engine takes no detuning: its phase is a diagonal unitary
    # that commutes with the dephasing; the dense 2^n oracle keeps it
    rng = np.random.default_rng(100 + n)
    coeffs = [np.eye(1, n // 2 + 1)[0], uniform_coefficients(n)]
    for _ in range(2):
        a = rng.normal(size=n // 2 + 1)
        coeffs.append(a / np.linalg.norm(a))
    for a in coeffs:
        state = SymmetricFamilyState(n, a)
        got = qfi_shot_optimum(state, GAMMA, TOTAL)
        # the root is no worse than the bounded minimizer on a flat optimum,
        # whose stopping point is fixed only to about 1e-7
        scalar = _scalar_shot_optimum(state, GAMMA, TOTAL)
        assert got[1] <= scalar[1] * (1.0 + 4e-15)
        assert got[0] == pytest.approx(scalar[0], rel=1e-6)
        # and the block engine lands where the dense 2^n search does
        t_dense, value_dense = dense_qfi_shot_optimum(family_state(n, a), GAMMA, TOTAL, delta)
        assert got[1] == pytest.approx(value_dense, rel=1e-12)
        assert got[0] == pytest.approx(t_dense, rel=1e-6)


# The shot-time check set: four states at each n, and (gamma, T) pairs of a
# long run, a slow one, a fast one and T = 0.3, below the product state's
# optimum 1/(2 gamma) = 0.5, which then sits on the constraint t = T.
_SHOT_NS = (2, 3, 5, 8, 13, 20)
_SHOT_KINDS = ("product", "ghz", "gen-ramsey", "random")
_SHOT_PAIRS = ((1.0, 100.0), (0.3, 50.0), (2.0, 5.0), (1.0, 0.3))


@functools.lru_cache(maxsize=None)
def _shot_state(n, kind):
    if kind == "product":
        a = uniform_coefficients(n)
    elif kind == "ghz":
        a = np.eye(1, n // 2 + 1)[0]
    elif kind == "gen-ramsey":
        a = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "gen-ramsey").best_coeffs
    else:
        a = np.random.default_rng(n).normal(size=n // 2 + 1)
        a /= np.linalg.norm(a)
    return SymmetricFamilyState(n, a)


@pytest.mark.parametrize("kind", _SHOT_KINDS)
@pytest.mark.parametrize("n", _SHOT_NS)
def test_qfi_shot_optimum_is_no_worse_than_the_scalar_oracle(monkeypatch, n, kind):
    # a handful of shot-time probes lands on the root, or certifies t = T
    probe, probes = optimize._shot_probe, []

    def counting(*args):
        probes.append(args[-1])
        return probe(*args)

    monkeypatch.setattr(optimize, "_shot_probe", counting)
    state = _shot_state(n, kind)
    for gamma, total in _SHOT_PAIRS:
        probes.clear()
        t_opt, delta_omega = qfi_shot_optimum(state, gamma, total)
        scalar = _scalar_shot_optimum(state, gamma, total)
        assert delta_omega <= scalar[1] * (1.0 + 4e-15)
        assert t_opt == pytest.approx(scalar[0], rel=1e-6)
        assert 1 <= len(probes) <= 10
        if kind == "product" and total == 0.3:
            assert t_opt == total and probes == [pytest.approx(total, rel=1e-15)]


def test_qfi_shot_optimum_does_not_depend_on_where_the_grid_sits(monkeypatch):
    # a root is where it is; the bounded minimizer this replaced stopped
    # anywhere within about 1e-7 of it, wherever the grid put its bracket
    cases = [(n, kind, *pair) for n in _SHOT_NS for kind in _SHOT_KINDS for pair in _SHOT_PAIRS]
    before = [qfi_shot_optimum(_shot_state(n, kind), g, total) for n, kind, g, total in cases]
    shot_grid = optimize._shot_grid

    def shifted(n, gamma, total_time):
        # every point but the last, the constraint t <= T or the bracket's
        # upper end, moves up by half a log spacing
        grid = shot_grid(n, gamma, total_time)[0]
        grid = np.append(grid[:-1] * math.sqrt(grid[1] / grid[0]), grid[-1])
        return grid, [grid]

    monkeypatch.setattr(optimize, "_shot_grid", shifted)
    for (n, kind, gamma, total), (t_opt, _) in zip(cases, before):
        t_shift, _ = qfi_shot_optimum(_shot_state(n, kind), gamma, total)
        assert t_shift == pytest.approx(t_opt, rel=1e-12, abs=0.0), (n, kind, gamma, total)


def test_shot_grid_has_the_bits_of_geomspace():
    # the grid is np.geomspace's without its dtype and sign handling, over
    # every (gamma, T) regime: T below, inside and above the bracket's 8/gamma
    pairs = 0
    for gamma in np.geomspace(1e-3, 1e3, 37):
        for total in np.geomspace(1e-3, 1e5, 29):
            if total > 1e-4 / gamma:
                pairs += 1
                grid = _shot_grid(3, gamma, total)[0]
                expected = np.geomspace(*_shot_bracket(gamma, total), _GRID_POINTS)
                assert grid.tobytes() == expected.tobytes(), (gamma, total)
    assert pairs == 1020


@pytest.mark.parametrize("n, calls", [(1, 2), (7, 2), (15, 2), (16, 3), (20, 6), (24, 8),
                                      (25, 16), (100, 16)])
def test_shot_grid_chunks_run_from_the_longest_shot_time_down(n, calls):
    # at most half the grid per stacked call, so the bound can skip the
    # other half, and at most _STACK_BYTES unless a chunk is one lane
    grid, chunks = _shot_grid(n, GAMMA, TOTAL)
    assert len(chunks) == calls
    assert np.concatenate(chunks[::-1]).tobytes() == grid.tobytes()
    lane_bytes = 16 * (n // 2 + 1) * (n + 1) ** 2
    for ts in chunks:
        assert len(ts) <= _GRID_POINTS // 2
        assert len(ts) == 1 or len(ts) * lane_bytes <= _STACK_BYTES


def _family_state(n, kind, seed):
    """A GHZ, product, drawn (a_k >= 0) or signed drawn n-ion family state."""
    if kind == "ghz":
        return SymmetricFamilyState(n, np.eye(1, n // 2 + 1)[0])
    if kind == "product":
        return SymmetricFamilyState(n, uniform_coefficients(n))
    a = np.random.default_rng(seed).normal(size=n // 2 + 1)
    a = np.abs(a) if kind == "drawn" else a
    return SymmetricFamilyState(n, a / np.linalg.norm(a))


_FAMILY_KINDS = ("ghz", "product", "drawn", "signed")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 30),
    kind=st.sampled_from(_FAMILY_KINDS),
    seed=st.integers(0, 2**32 - 1),
    pair=st.sampled_from(_ROOT_PAIRS + ((1.0, 0.3),)),
)
def test_skipped_grid_lanes_change_no_bit_of_the_optimum(n, kind, seed, pair):
    # the lanes the pure-state bound skips are strictly worse than the best,
    # so the search ends on the bits of the whole grid's, or raises as it does
    state = _family_state(n, kind, seed)
    outcomes = []
    for search in (all_lanes_shot_optimum, optimize._shot_optimum):
        try:
            t_opt, delta_omega, fq = search(state, *pair)
        except ClocksimError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            fq = fq[0] if isinstance(fq, tuple) else fq  # the search's (F_Q, measurement)
            outcomes.append((t_opt.hex(), delta_omega.hex(), float(fq).hex()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 30),
    kind=st.sampled_from(_FAMILY_KINDS),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([0.3, 1.0, 3.0]),
)
def test_qfi_never_exceeds_the_pure_state_bound(n, kind, seed, gamma):
    # F_Q(t) <= 4 t^2 Var(W): the dephasing commutes with the phase, so the
    # pure state's F_Q bounds the dephased one's at every shot time, with
    # room for rounding within the skip's slack (the largest ratio measured
    # over n <= 50 was 0.99999983, at t = 1e-6 where the bound is tight)
    state = _family_state(n, kind, seed)
    c = _dicke_amplitudes(n, state.a)
    spread = float((c * c) @ (np.arange(n + 1) - 0.5 * n) ** 2)
    for t in np.geomspace(1e-6, 8.0 / gamma, 9):
        fq = family_qfi(state, gamma, t)[0]
        assert fq <= 4.0 * t * t * spread * (1.0 + _BOUND_SLACK)


def test_qfi_shot_optimum_at_the_total_time_is_certified(tmp_path):
    # T = 0.3 cuts the product state off before its optimum at 0.5: at t = T
    # the residual r = 1 - t F_Q'/F_Q is negative, so delta_omega still falls
    # there, and T itself is the optimum, in the library and in the CLI
    state = SymmetricFamilyState(3, uniform_coefficients(3))
    fq, _, dfq = fisher._qfi_gradient(3, GAMMA, state.a, 0.3)
    assert 1.0 - 0.3 * dfq / fq < 0.0
    t_opt, delta_omega = qfi_shot_optimum(state, GAMMA, 0.3)
    assert t_opt == 0.3 and delta_omega == pytest.approx(qfi_uncertainty(fq, 0.3, 0.3), rel=1e-14)
    out = tmp_path / "qfi.json"
    argv = ["qfi", "--n", "3", "--gamma", "1", "--optimize-t", "--total-time", "0.3",
            "--scheme", "uncorrelated", "--out", str(out)]
    assert cli.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["t_opt"] == 0.3 and report["delta_omega"] == delta_omega


def _preparation(n, kind):
    """CLI flags of a GHZ, product or near-equal-weight drawn preparation, and
    its state as the CLI builds it."""
    if kind == "ghz":
        return ["--scheme", "ghz"], SymmetricFamilyState(n, np.eye(1, n // 2 + 1)[0])
    if kind == "product":
        return ["--scheme", "uncorrelated"], SymmetricFamilyState(n, uniform_coefficients(n))
    m = n // 2 + 1
    a = np.full(m, 1.0 / math.sqrt(m)) + 0.015 * np.random.default_rng(n).normal(size=m)
    coeffs = ";".join("%.17g" % x for x in a / np.linalg.norm(a))
    return ["--coeffs", coeffs], SymmetricFamilyState(n, [float(x) for x in coeffs.split(";")])


def _counting(monkeypatch, module, name, calls):
    function = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return function(*args)

    monkeypatch.setattr(module, name, counted)


def _qfi_report(tmp_path, n, total, preparation):
    out = tmp_path / "qfi.json"
    argv = ["qfi", "--n", str(n), "--gamma", "1", "--optimize-t", "--total-time", str(total)]
    assert cli.main([*argv, *preparation, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("kind", ["ghz", "product", "drawn"])
@pytest.mark.parametrize("n, total", [(1, TOTAL), (2, TOTAL), (3, TOTAL), (7, TOTAL), (20, TOTAL),
                                      (3, 0.3)])
def test_qfi_report_reads_the_search_s_final_probe(monkeypatch, tmp_path, n, total, kind):
    # the report's numbers are those of qfi_shot_optimum and of family_qfi
    # at its t_opt to the last bit, yet it evaluates no F_Q after the search:
    # the probe the search ends on is held. T = 0.3 puts the product state's
    # optimum on the constraint t = T.
    preparation, state = _preparation(n, kind)
    t_opt, delta_omega = qfi_shot_optimum(state, GAMMA, total)
    fq, cfi = family_qfi(state, GAMMA, t_opt)
    calls = {}
    _counting(monkeypatch, cli, "family_qfi", calls)
    report = json.loads(_qfi_report(tmp_path, n, total, preparation))
    assert (report["t_opt"], report["delta_omega"]) == (t_opt, delta_omega)
    assert (report["qfi"], report["classical_fi_sld"]) == (fq, cfi)
    assert calls == {}
    if kind == "product" and total == 0.3:
        assert t_opt == total


@pytest.mark.parametrize("kind", ["ghz", "product", "drawn"])
@pytest.mark.parametrize("n", [3, 7])
def test_qfi_report_evaluates_again_when_its_probe_is_not_held(monkeypatch, tmp_path, n, kind):
    # only the latest probe is held: two more probes after the root leave
    # the search off it, so the root is probed once more, by _shot_probe,
    # never by family_qfi, and the report prints the same bytes
    preparation, _ = _preparation(n, kind)
    calls = {}
    _counting(monkeypatch, optimize, "_shot_probe", calls)
    held = _qfi_report(tmp_path, n, TOTAL, preparation)
    probes, secant_root = calls.pop("_shot_probe"), optimize._secant_root

    def probing_past_the_root(f, lo, hi, f_lo, f_hi):
        root = secant_root(f, lo, hi, f_lo, f_hi)
        f(lo + 0.25 * (hi - lo))
        f(lo + 0.75 * (hi - lo))
        return root

    monkeypatch.setattr(optimize, "_secant_root", probing_past_the_root)
    _counting(monkeypatch, cli, "family_qfi", calls)
    assert _qfi_report(tmp_path, n, TOTAL, preparation) == held
    assert calls == {"_shot_probe": probes + 3}


def _counting_lanes(monkeypatch, lanes):
    """Record the number of shot times of each stacked grid call."""
    block_form = optimize._block_form
    monkeypatch.setattr(optimize, "_block_form",
                        lambda n, gamma, ts: lanes.append(len(ts)) or block_form(n, gamma, ts))


@pytest.mark.parametrize("kind", ["ghz", "product", "drawn"])
def test_qfi_report_at_n7_scores_its_grid_once_in_few_probes(monkeypatch, tmp_path, kind):
    # the benchmark's dense report: one stacked call of the 8 longest grid
    # shot times, after which the pure-state bound skips the other 8 (all 16
    # were scored before it), the probe counts of the inverse-quadratic
    # finish (GHZ 3, product 3, drawn 6; the secant finish before it took 8,
    # 8 and 7, Brent's method 8, 8 and 8) and no F_Q evaluated after the
    # search
    calls, lanes = {}, []
    for module, name in ((optimize, "_shot_probe"), (cli, "family_qfi")):
        _counting(monkeypatch, module, name, calls)
    _counting_lanes(monkeypatch, lanes)
    _qfi_report(tmp_path, 7, TOTAL, _preparation(7, kind)[0])
    probes = {"ghz": 3, "product": 3, "drawn": 6}[kind]
    assert calls == {"_shot_probe": probes} and lanes == [8]


def test_shot_time_searches_make_no_more_probes_than_brent(monkeypatch):
    # shot-time probes summed over n = 2..12, the states and (gamma, T)
    # pairs of the scipy brentq check; probe counts do not depend on the
    # machine. Brent's method made 1039 (one BLAS thread), the secant finish
    # in log t 1005 and this inverse-quadratic finish in t 531. The grid
    # lanes scored: 2112 (16 per search) before the pure-state bound, 1128
    # with it.
    calls, lanes = {}, []
    _counting(monkeypatch, optimize, "_shot_probe", calls)
    _counting_lanes(monkeypatch, lanes)
    for n in range(2, 13):
        for state in _seeded_states(n):
            for gamma, total in _ROOT_PAIRS:
                qfi_shot_optimum(state, gamma, total)
    assert calls["_shot_probe"] <= 531 and sum(lanes) <= 1128


@pytest.mark.parametrize("gamma, total", [(1.0, 100.0), (0.3, 50.0), (2.0, 10.0)])
def test_ghz_and_product_shot_times_land_on_their_closed_forms(monkeypatch, gamma, total):
    # F_Q is proportional to t^2 e^(-2 m gamma t), m = n for GHZ and 1 for the
    # product state, so r = 2 m gamma t - 1 is linear in t: the chord of the
    # grid bracket lands on 1/(2 m gamma), and the inverse quadratic through
    # that probe and the ends ends there, 3 probes in all. Measured at most
    # 2.4e-15 relative; F_Q's rounding allows only 3.9e-13 at n = 40 and
    # 1.2e-12 at n = 100, which are left out
    calls = {}
    _counting(monkeypatch, optimize, "_shot_probe", calls)
    for n in range(1, 21):
        for a, t_ref in ((np.eye(1, n // 2 + 1)[0], 0.5 / (n * gamma)),
                         (uniform_coefficients(n), 0.5 / gamma)):
            calls.clear()
            t_opt, _ = qfi_shot_optimum(SymmetricFamilyState(n, a), gamma, total)
            assert t_opt == pytest.approx(t_ref, rel=4e-15, abs=0.0)
            assert calls == {"_shot_probe": 3}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_qfi_shot_optimum_near_a_dicke_state_reports_no_infinite_bound(n):
    # a Dicke state carries no information; within about 1e-15 of it F_Q
    # straddles QFI_FLOOR along the shot-time grid. Where F_Q is below the
    # floor the residual is undefined, so a root must not end there with an
    # infinite bound: the search returns a finite one or reports that the
    # state carries no information
    outcomes = set()
    for eps in np.geomspace(5e-16, 2e-15, 12):
        a = np.zeros(n // 2 + 1)
        a[0], a[-1] = eps, 1.0
        try:
            _, delta_omega = qfi_shot_optimum(SymmetricFamilyState(n, a / np.linalg.norm(a)),
                                              GAMMA, TOTAL)
        except NoInformationError as exc:
            outcomes.add(type(exc))
        else:
            assert math.isfinite(delta_omega)
            outcomes.add(float)
    assert float in outcomes


@pytest.mark.parametrize("best", range(5))
def test_shot_root_is_solved_only_next_to_the_best_point(best):
    # the root 0.3 lies between grid points 2 and 3, so only there is it
    # bracketed and solved; a residual that keeps its sign has no bracket
    grid = np.linspace(-1.0, 1.0, 5)
    bracket = _bracket_beside(lambda k: grid[k] - 0.3, best, len(grid))
    if best in (2, 3):
        assert bracket == (2, 3)
        lo, hi = grid[2], grid[3]
        assert _secant_root(lambda x: x - 0.3, lo, hi, lo - 0.3, hi - 0.3) == pytest.approx(
            0.3, abs=1e-12)
    else:
        assert bracket is None
    assert _bracket_beside(lambda k: grid[k] + 2.0, best, len(grid)) is None


def test_searches_without_a_bracketed_root_report_it(monkeypatch, tmp_path, capsys):
    # with a residual that is positive everywhere, the objective seems to
    # rise at every point: gen-Ramsey reports its best lane as partial, and
    # the shot-time optimum fails, exit 3 in the CLI, with no report written
    lanes, probe = optimize._genramsey_lanes, optimize._shot_probe

    def rising_lanes(*args):
        a, t_opt, delta_omega, r, dr = lanes(*args)
        return a, t_opt, delta_omega, np.ones_like(r), dr

    def rising_probe(*args):
        fq, _, form, measurement = probe(*args)
        return fq, 0.0, form, measurement  # r = 1 - t F_Q'/F_Q = 1

    monkeypatch.setattr(optimize, "_genramsey_lanes", rising_lanes)
    monkeypatch.setattr(optimize, "_shot_probe", rising_probe)
    assert optimize_symmetric_coeffs(3, GAMMA, TOTAL, "gen-ramsey").status == "partial"
    with pytest.raises(BracketingError, match="no shot-time optimum bracketed"):
        qfi_shot_optimum(SymmetricFamilyState(3, [1.0, 0.0]), GAMMA, TOTAL)
    out = tmp_path / "qfi.json"
    argv = ["qfi", "--n", "3", "--gamma", "1", "--optimize-t", "--total-time", "100",
            "--scheme", "ghz", "--out", str(out)]
    assert cli.main(argv) == 3 and not out.exists()
    assert capsys.readouterr().err.startswith("clocksim: optimization-failure: no shot-time")


def test_unconverged_shot_root_exits_3(monkeypatch, tmp_path, capsys):
    # F_Q below QFI_FLOOR at every probe after the bracket's two makes the
    # residual NaN there, so every Newton step bisects, onto the same
    # midpoint once its value is NaN; the finish gives up after 100 steps,
    # probing each shot time once (4 probes), and the CLI exits 3 with no
    # report and no traceback
    probe, probes = optimize._shot_probe, []

    def vanishing_probe(*args):
        probes.append(args[-1])
        fq, dfq, m, measurement = probe(*args)
        return (fq if len(probes) <= 2 else 0.0), dfq, m, measurement

    monkeypatch.setattr(optimize, "_shot_probe", vanishing_probe)
    out = tmp_path / "qfi.json"
    argv = ["qfi", "--n", "3", "--gamma", "1", "--optimize-t", "--total-time", "100",
            "--scheme", "ghz", "--out", str(out)]
    assert cli.main(argv) == 3 and not out.exists()
    assert capsys.readouterr().err.startswith("clocksim: no-information: ")
    assert len(probes) == 4


def test_qfi_shot_optimum_rejects_state_without_information():
    # the last family member at n = 4 is the Dicke state |D_2>, an eigenstate of
    # the detuning Hamiltonian, so F_Q = 0 at every shot time
    with pytest.raises(NoInformationError, match="state carries no information"):
        qfi_shot_optimum(SymmetricFamilyState(4, [0.0, 0.0, 1.0]), GAMMA, TOTAL)


def test_grid_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        grid_oracle_improvement(4, GAMMA, TOTAL, "genramsey")


def test_fig3_scan_minima_match():
    n = 3
    grid = np.linspace(0.02, 2.0, 400)
    table = fig3_scan(n, GAMMA, TOTAL, grid)
    assert table.shape == (400, 3)
    unc_min = np.nanmin(table[:, 1])
    ghz_min = np.nanmin(table[:, 2])
    ref = reference_limit(n, TOTAL, GAMMA)
    assert unc_min == pytest.approx(ref, rel=1e-3)
    assert ghz_min == pytest.approx(ref, rel=1e-3)
    assert grid[np.nanargmin(table[:, 1])] == pytest.approx(0.5, abs=0.01)
    assert grid[np.nanargmin(table[:, 2])] == pytest.approx(1 / (2 * n), abs=0.01)
    # the entangled curve is off-optimum at the uncorrelated optimum
    at_half = table[np.argmin(np.abs(grid - 0.5))]
    assert at_half[2] > ghz_min * 1.4


def test_fig3_scan_flags_infeasible_rows():
    table = fig3_scan(2, GAMMA, 1.0, [0.5, 2.0])
    assert not np.isnan(table[0, 1])
    assert np.isnan(table[1, 1]) and np.isnan(table[1, 2])  # t > T


def test_fig3_scan_underflowed_ghz_decay_is_infinite():
    # exp(-2 n gamma t) underflows to 0 at n gamma t = 500: the GHZ bound is
    # inf, with no numpy warning (errors under this suite's filterwarnings)
    table = fig3_scan(50, 1.0, 100.0, np.linspace(10.0, 20.0, 3))
    assert np.isfinite(table[:, 1]).all()
    assert np.isposinf(table[:, 2]).all()


def test_improvement_sweep_small_range():
    points = list(improvement_sweep(range(2, 4), GAMMA, TOTAL))
    assert [n for n, _ in points] == [2, 3]
    cap = 100 * (1 - math.exp(-0.5))
    for _, reports in points:
        gen, opt = reports["gen-ramsey"], reports["qfi"]
        assert gen.status == opt.status == "ok"
        assert 0.0 < gen.improvement_pct < cap
        assert opt.improvement_pct >= gen.improvement_pct - 1e-6
        for rep in (gen, opt):
            assert np.linalg.norm(rep.best_coeffs) == pytest.approx(1.0, abs=1e-9)
