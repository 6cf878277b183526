import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksim import (
    BracketingError,
    DegenerateStateError,
    DephasingParams,
    ExperimentBudget,
    NoInformationError,
    SymmetricFamilyState,
    collective_moments,
    family_qfi,
    fig3_scan,
    fig4_curve,
    genramsey_opt_uncertainty,
    optimize_symmetric_coeffs,
    qfi_shot_optimum,
    qfi_uncertainty,
    reference_limit,
    uncertainty_ghz,
    uncertainty_uncorrelated,
    uniform_coefficients,
)

import clocksim
from clocksim import cli, fisher, optimize
from clocksim.evolution import MAX_BLOCK_QUBITS
from clocksim.optimize import ION_RANGE, _genramsey_search, _polish, _shot_bracket
from reference import (
    dense_qfi_shot_optimum,
    density,
    family_state,
    ghz_state,
    grid_oracle_improvement,
    minimize_over_t,
    nelder_mead_genramsey,
    nelder_mead_qfi,
)

GAMMA = 1.0
TOTAL = 100.0


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
            n, TOTAL, GAMMA,
        )
        assert res.improvement_pct == pytest.approx(0.0, abs=1e-9)


def test_ghz_coefficients_are_degenerate_for_genramsey():
    n = 4
    a = np.zeros(n // 2 + 1)
    a[0] = 1.0
    m0 = collective_moments(SymmetricFamilyState(n, a))
    with pytest.raises(DegenerateStateError):
        genramsey_opt_uncertainty(m0, n, TOTAL, GAMMA)


def test_optimizer_beats_reference_at_n2():
    rep = optimize_symmetric_coeffs(2, GAMMA, TOTAL, "genramsey")
    assert rep.improvement_pct > 0.5
    assert rep.improvement_pct < 100 * (1 - math.exp(-0.5))
    assert np.linalg.norm(rep.best_coeffs) == pytest.approx(1.0, abs=1e-9)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(1, GAMMA, TOTAL, "genramsey")
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(2, GAMMA, TOTAL, "bogus")
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(2, GAMMA, 0.2, "genramsey")  # T < tau_dec/2
    for method in ("genramsey", "qfi"):
        with pytest.raises(ValueError):
            optimize_symmetric_coeffs(2, GAMMA, math.inf, method)


def test_optimizer_report_is_reproducible_and_self_consistent():
    one = optimize_symmetric_coeffs(3, GAMMA, TOTAL, "genramsey")
    two = optimize_symmetric_coeffs(3, GAMMA, TOTAL, "genramsey")
    assert np.array_equal(one.best_coeffs, two.best_coeffs)
    assert one.improvement_pct == two.improvement_pct
    assert one.t_opt == two.t_opt
    # re-evaluating the reported coefficients reproduces the reported value
    res = genramsey_opt_uncertainty(
        collective_moments(SymmetricFamilyState(3, one.best_coeffs)), 3, TOTAL, GAMMA
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
                collective_moments(SymmetricFamilyState(n, twin)), n, TOTAL, GAMMA
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


@pytest.mark.parametrize("n", range(2, 6))
def test_qfi_search_reaches_nelder_mead_oracle(n):
    oracle_impr, _ = nelder_mead_qfi(n, GAMMA, TOTAL)
    rep = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "qfi")
    assert rep.improvement_pct >= oracle_impr - 1e-9
    assert rep.status == "ok" and np.all(rep.best_coeffs >= 0.0)
    gen = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "gen-ramsey")
    assert rep.improvement_pct >= gen.improvement_pct - 1e-6


def test_qfi_search_makes_few_core_calls(monkeypatch):
    # the polish from the gen-Ramsey winner makes 9 calls at n = 3 and 88 at
    # n = 20; a shot-time grid scored before it would cost far more
    core, calls = fisher._qfi_core, []

    def counting(*args):
        calls.append(1)
        return core(*args)

    monkeypatch.setattr(fisher, "_qfi_core", counting)
    for n, cap in ((3, 30), (20, 150)):
        calls.clear()
        rep = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "qfi")
        assert rep.status == "ok"
        assert 0 < len(calls) <= cap


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_polish_never_ends_above_the_best_grid_lane(n):
    # the polish starts from the gen-Ramsey winner at its closed-form shot time
    a, gen = _genramsey_search(n, GAMMA, TOTAL)
    bracket = _shot_bracket(GAMMA, TOTAL)
    fq = family_qfi(SymmetricFamilyState(n, a), DephasingParams(0.0, GAMMA, gen.t_opt))[0]
    a_pol, t_pol, fq_pol, certified = _polish(n, GAMMA, a, gen.t_opt, bracket)
    fq_family = family_qfi(SymmetricFamilyState(n, a_pol), DephasingParams(0.0, GAMMA, t_pol))[0]
    assert fq_pol == pytest.approx(fq_family, rel=1e-13)
    assert certified and bracket[0] <= t_pol <= bracket[1]
    assert t_pol / fq_pol <= gen.t_opt / fq


@pytest.mark.parametrize("gamma, total", [(1.0, 100.0), (1.0, 0.6), (0.3, 50.0)])
@pytest.mark.parametrize("n", [2, 5, 10, 20])
def test_qfi_report_is_its_own_shot_time_optimum(n, gamma, total):
    # delta_omega is the polish's own bound at t_opt, and the shot-time
    # search on the reported coefficients lands on the same optimum
    rep = optimize_symmetric_coeffs(n, gamma, total, "qfi")
    state = SymmetricFamilyState(n, rep.best_coeffs)
    fq = family_qfi(state, DephasingParams(0.0, gamma, rep.t_opt))[0]
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
    assert fig4_curve([3], GAMMA, TOTAL)[0].status == "partial"


def test_ion_range_is_per_method():
    assert ION_RANGE["qfi"] == (2, MAX_BLOCK_QUBITS)
    assert optimize_symmetric_coeffs(21, GAMMA, TOTAL, "gen-ramsey").improvement_pct > 0.0
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(MAX_BLOCK_QUBITS + 1, GAMMA, TOTAL, "qfi")
    with pytest.raises(ValueError):
        optimize_symmetric_coeffs(1001, GAMMA, TOTAL, "gen-ramsey")


@pytest.mark.parametrize("n", [2, 3])
def test_optimizer_matches_grid_oracle_genramsey(n):
    oracle_impr, oracle_a = grid_oracle_improvement(n, GAMMA, TOTAL, "genramsey")
    rep = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "genramsey")
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
    with pytest.raises(ValueError, match="block QFI supports 1 <= n <= 20"):
        qfi_shot_optimum(SymmetricFamilyState(21, np.eye(1, 11)[0]), GAMMA, TOTAL)


@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_qfi_shot_optimum_equals_scalar_search(n, delta):
    # the block engine drops the detuning phase, a diagonal unitary that
    # commutes with the dephasing; the dense 2^n oracle keeps it
    rng = np.random.default_rng(100 + n)
    coeffs = [np.eye(1, n // 2 + 1)[0], uniform_coefficients(n)]
    for _ in range(2):
        a = rng.normal(size=n // 2 + 1)
        coeffs.append(a / np.linalg.norm(a))
    bracket = (1e-4 / GAMMA, min(TOTAL, 8.0 / GAMMA))
    for a in coeffs:
        state = SymmetricFamilyState(n, a)
        got = qfi_shot_optimum(state, GAMMA, TOTAL)
        # the stacked grid gives the bits of the single-shot-time block bound
        scalar = minimize_over_t(
            lambda t: qfi_uncertainty(family_qfi(state, DephasingParams(delta, GAMMA, t))[0],
                                      TOTAL, t),
            bracket,
            1e-9,
        )
        assert got == scalar
        # and the block engine lands where the dense 2^n search does
        t_dense, value_dense = dense_qfi_shot_optimum(family_state(n, a), GAMMA, TOTAL, delta)
        assert got[1] == pytest.approx(value_dense, rel=1e-12)
        assert got[0] == pytest.approx(t_dense, rel=1e-6)


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


def test_fig4_curve_small_sweep():
    points = fig4_curve(range(2, 4), GAMMA, TOTAL)
    assert [p.n for p in points] == [2, 3]
    cap = 100 * (1 - math.exp(-0.5))
    for p in points:
        assert p.status == "ok"
        assert 0.0 < p.improvement_genramsey_pct < cap
        assert p.improvement_qfi_pct >= p.improvement_genramsey_pct - 1e-6
        assert np.linalg.norm(p.best_coeffs) == pytest.approx(1.0, abs=1e-9)
