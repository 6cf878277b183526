"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np

from clocksim import (
    ExperimentBudget,
    SymmetricFamilyState,
    collective_moments,
    family_qfi,
    genramsey_opt_uncertainty,
    improvement_sweep,
    optimize_symmetric_coeffs,
    qfi_shot_optimum,
    reference_limit,
    signal_ghz,
    signal_uncorrelated,
    solve_topt,
    uncertainty_ghz,
    uncertainty_uncorrelated,
    uniform_coefficients,
)
from clocksim.cli import main

from reference import (
    classical_fi,
    dense_evolve,
    density,
    family_state,
    grid_oracle_improvement,
    haar_basis,
    master_equation_oracle,
    pipeline_signal,
    random_density,
)

GAMMA = 1.0
TOTAL = 100.0
IMPROVEMENT_CAP = 100.0 * (1.0 - math.exp(-0.5))  # 39.3469...


def _check(num, label, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {label}: {status}{suffix}")
    assert condition, f"criterion {num} ({label}) failed {suffix}"


def _golden(f, a, b, tol=1e-11):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= tol:
            break
    return (c, fc) if fc < fd else (d, fd)


def _minimize_t_phase(uncertainty, t_lo, t_hi):
    """Joint numerical minimum over shot time and accumulated phase."""

    def best_over_phase(t):
        _, value = _golden(lambda phase: uncertainty(t, phase), 0.05, math.pi - 0.05)
        return value

    t_opt, value = _golden(best_over_phase, t_lo, t_hi)
    return t_opt, value


def test_criterion_01_uncorrelated_optimum():
    start = time.perf_counter()
    ok, detail = True, []
    for n in (1, 2, 4, 8):
        budget = lambda t: ExperimentBudget(n, TOTAL, t)
        t_opt, value = _minimize_t_phase(
            lambda t, phase: uncertainty_uncorrelated(budget(t), phase / t, GAMMA), 0.05, 3.0
        )
        expected = math.sqrt(2.0 * math.e / (n * TOTAL))
        ok &= abs(t_opt - 0.5) < 1e-6
        ok &= abs(value - expected) / expected < 1e-9
        detail.append(f"n={n}: t={t_opt:.9f} rel_err={(value - expected) / expected:.2e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _check(1, "uncorrelated optimum", ok, "; ".join(detail) + f"; {elapsed:.2f}s")


def test_criterion_02_ghz_equivalence():
    ok, detail = True, []
    for n in (1, 2, 4, 8):
        budget = lambda t: ExperimentBudget(n, TOTAL, t)
        t_opt, value = _minimize_t_phase(
            lambda t, phase: uncertainty_ghz(budget(t), phase / (n * t), GAMMA), 0.005, 3.0
        )
        expected = math.sqrt(2.0 * math.e / (n * TOTAL))
        ok &= abs(t_opt - 0.5 / n) < 1e-6
        ok &= abs(value - expected) / expected < 1e-12
        detail.append(f"n={n}: t={t_opt:.9f} rel_err={(value - expected) / expected:.2e}")
    _check(2, "ghz equivalence", ok, "; ".join(detail))


def test_criterion_03_optimal_measurement_equivalence():
    # both preparations are family states: the product state is
    # uniform_coefficients(n) and GHZ is e_0
    ok, detail = True, []
    for n in (2, 3, 5):
        expected = math.sqrt(2.0 * math.e / (n * TOTAL))
        for name, a in (("product", uniform_coefficients(n)), ("ghz", np.eye(n // 2 + 1)[0])):
            _, value = qfi_shot_optimum(SymmetricFamilyState(n, a), GAMMA, TOTAL)
            rel = abs(value - expected) / expected
            ok &= rel < 1e-6
            detail.append(f"n={n} {name}: rel_err={rel:.2e}")
    _check(3, "optimal-measurement equivalence", ok, "; ".join(detail))


def test_criterion_04_integrator_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        rho = random_density(rng, n)
        gamma = rng.uniform(0.1, 2.0)
        t = rng.uniform(0.1, min(1.5, 3.0 / gamma))
        delta = rng.uniform(-2.0, 2.0)
        numeric = master_equation_oracle(rho, delta, gamma, t, 2000)
        analytic = dense_evolve(rho, delta, gamma, t)[0]
        worst = max(worst, float(np.abs(numeric - analytic).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    _check(4, "integrator oracle equivalence", ok, f"max_dev={worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_generalized_ramsey_reduction():
    ok, detail = True, []
    for n in (1, 2, 4, 8):
        m0 = collective_moments(SymmetricFamilyState(n, uniform_coefficients(n)))
        root = solve_topt(m0, GAMMA)
        residual = abs(root - 0.5 / GAMMA)
        result = genramsey_opt_uncertainty(m0, TOTAL, GAMMA)
        ref = reference_limit(n, TOTAL, GAMMA)
        rel = abs(result.delta_omega - ref) / ref
        ok &= residual < 1e-12 and rel < 1e-12
        detail.append(f"n={n}: |t-tau/2|={residual:.1e} rel={rel:.1e}")
    _check(5, "generalized-ramsey reduction", ok, "; ".join(detail))


def test_criterion_06_partial_entanglement_gain():
    start = time.perf_counter()
    ok, detail = True, []
    for n in range(2, 8):
        rep = optimize_symmetric_coeffs(n, GAMMA, TOTAL, "gen-ramsey")
        ok &= 0.0 < rep.improvement_pct < IMPROVEMENT_CAP
        detail.append(f"n={n}: {rep.improvement_pct:.3f}%")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _check(6, "partial-entanglement gain", ok, "; ".join(detail) + f"; {elapsed:.1f}s")


def test_criterion_07_improvement_ordering_and_grid_oracle():
    points = dict(improvement_sweep(range(2, 6), GAMMA, TOTAL))
    ok, detail = True, []
    for n, reports in sorted(points.items()):
        gen, opt = reports["gen-ramsey"], reports["qfi"]
        ok &= gen.status == opt.status == "ok"
        ok &= opt.improvement_pct >= gen.improvement_pct - 1e-6
        ok &= 0.0 < gen.improvement_pct < IMPROVEMENT_CAP
        detail.append(f"n={n}: qfi={opt.improvement_pct:.3f}% gen={gen.improvement_pct:.3f}%")
    for n in (2, 3):
        for method, got in (
            ("genramsey", points[n]["gen-ramsey"].improvement_pct),
            ("qfi", points[n]["qfi"].improvement_pct),
        ):
            oracle, _ = grid_oracle_improvement(n, GAMMA, TOTAL, method)
            ok &= abs(got - oracle) < 0.1
            detail.append(f"oracle n={n} {method}: |diff|={abs(got - oracle):.4f}pp")
    _check(7, "improvement ordering + grid oracle", ok, "; ".join(detail))


def test_criterion_08_pipeline_cross_check():
    gamma = 0.85
    worst = 0.0
    for n in (1, 2, 4):
        for t in np.linspace(0.05, 2.0, 10):
            for delta in np.linspace(-3.0, 3.0, 10):
                got = pipeline_signal("uncorrelated", n, float(delta), gamma, float(t))
                worst = max(worst, abs(got - signal_uncorrelated(delta, t, gamma)))
                got = pipeline_signal("ghz", n, float(delta), gamma, float(t))
                worst = max(worst, abs(got - signal_ghz(n, delta, t, gamma)))
    _check(8, "pipeline cross-check", worst < 1e-10, f"max_dev={worst:.2e}")


def test_criterion_09_fisher_inequality():
    # F_Q and its SLD check come from the family blocks; the Haar-random
    # measurements act on the dense 2^n evolved state, detuning included
    rng = np.random.default_rng(271828)
    ok, worst_gap, worst_sld = True, -math.inf, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=n // 2 + 1)
        a /= np.linalg.norm(a)
        delta, gamma, t = rng.uniform(-1.5, 1.5), rng.uniform(0.05, 1.2), rng.uniform(0.1, 2.0)
        fq, cfi = family_qfi(SymmetricFamilyState(n, a), gamma, t)
        if fq > 1e-12:
            rel = abs(cfi - fq) / fq
            worst_sld = max(worst_sld, rel)
            ok &= rel < 1e-6
        rho_t, drho = dense_evolve(density(family_state(n, a)), delta, gamma, t)
        fc = classical_fi(rho_t, drho, haar_basis(rng, 1 << n))
        gap = fc - fq * (1 + 1e-9)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 1e-12
    _check(9, "fisher inequality", ok, f"worst_violation={worst_gap:.2e}, worst_sld_rel={worst_sld:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    args = ["optimize", "--n-min", "2", "--n-max", "3", "--method", "both",
            "--seed", "7", "--restarts", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    _check(10, "cli determinism", code_a == 0 and code_b == 0 and identical,
           f"bytes={a.stat().st_size}")


def test_criterion_11_large_n_genramsey_gain():
    start = time.perf_counter()
    gains = [
        optimize_symmetric_coeffs(n, GAMMA, TOTAL, "gen-ramsey").improvement_pct
        for n in (10, 100, 1000)
    ]
    elapsed = time.perf_counter() - start
    ok = gains[0] < gains[1] < gains[2] < IMPROVEMENT_CAP and elapsed < 120.0
    detail = ", ".join(f"n={n}: {g:.3f}%" for n, g in zip((10, 100, 1000), gains))
    _check(11, "large-n gen-ramsey gain", ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_12_large_n_qfi_reference_limit(tmp_path):
    # 2^n x 2^n matrices are out of reach; the Schur-Weyl blocks are at most
    # (n+1) x (n+1)
    ok, detail = True, []
    for n in (20, 100):
        ref = reference_limit(n, TOTAL, GAMMA)
        for scheme, t_expected in (("ghz", 0.5 / (n * GAMMA)), ("uncorrelated", 0.5 / GAMMA)):
            out = tmp_path / f"{scheme}_{n}.json"
            code = main(["qfi", "--scheme", scheme, "--n", str(n), "--gamma", str(GAMMA),
                         "--optimize-t", "--total-time", str(TOTAL), "--out", str(out)])
            report = json.loads(out.read_text()) if code == 0 else {}
            gap = 100.0 * abs(report.get("delta_omega", math.inf) / ref - 1.0)
            t_rel = abs(report.get("t_opt", math.inf) / t_expected - 1.0)
            ok &= code == 0 and gap < 1e-6 and t_rel < 1e-6
            detail.append(f"n={n} {scheme}: exit {code}, |gap|={gap:.1e}pp, t_opt rel={t_rel:.1e}")
    _check(12, "large-n qfi reference limit", ok, "; ".join(detail))


def test_criterion_13_large_n_qfi_gain(tmp_path):
    # the QFI search runs on the Schur-Weyl blocks; its gain keeps rising
    # toward the 1 - 1/sqrt(e) bound
    start, ok, detail, gains = time.perf_counter(), True, [], []
    for n in (5, 10, 20, 40, 60):
        out = tmp_path / f"curve_{n}.csv"
        code = main(["optimize", "--method", "both", "--n-min", str(n), "--n-max", str(n),
                     "--gamma", str(GAMMA), "--total-time", str(TOTAL), "--out", str(out)])
        rows = {}
        if code == 0:
            lines = out.read_text().splitlines()[2:]
            rows = {r[1]: r for r in (line.split(",") for line in lines)}
        gen, opt = (float(rows[m][2]) if m in rows else math.nan for m in ("gen-ramsey", "qfi"))
        ok &= code == 0 and all(r[5] == "ok" for r in rows.values())
        ok &= opt >= gen - 1e-6
        gains.append(opt)
        detail.append(f"n={n}: qfi={opt:.3f}% gen={gen:.3f}%")
    elapsed = time.perf_counter() - start
    ok &= all(a < b for a, b in zip(gains, gains[1:])) and gains[-1] < IMPROVEMENT_CAP
    ok &= elapsed < 120.0
    _check(13, "large-n qfi gain", ok, "; ".join(detail) + f"; {elapsed:.1f}s")
