"""Correctness gate for the outputs of the clocksim benchmark's jobs.

Every check returns a list of error strings; an empty list means the output
passed. The reference limit is recomputed here from its closed form rather
than imported from the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math

# 100 * (1 - 1/sqrt(e)): no preparation beats the reference limit by more.
IMPROVEMENT_CAP_PCT = 39.3469
PAIR_TOL_PCT = 1e-6
REFERENCE_TOL_PCT = 1e-6
FI_REL_TOL = 1e-6
T_OPT_REL_TOL = 1e-6


def reference_limit(n: int, total_time: float, gamma: float) -> float:
    """Optimal uncorrelated uncertainty sqrt(2*gamma*e/(n*T))."""
    return math.sqrt(2.0 * gamma * math.e / (n * total_time))


def improvement_pct(delta_omega: float, n: int, total_time: float, gamma: float) -> float:
    return 100.0 * (1.0 - delta_omega / reference_limit(n, total_time, gamma))


def parse_csv(data: bytes) -> list:
    """Rows of a clocksim CSV report as dicts, skipping ``#`` comment lines."""
    lines = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def check_improvement(value: float, where: str) -> list:
    if 0.0 < value < IMPROVEMENT_CAP_PCT:
        return []
    return [f"{where}: improvement {value!r} % outside (0, {IMPROVEMENT_CAP_PCT})"]


def check_optimize_rows(rows: list) -> list:
    """Each row converged (status ok) to an improvement inside (0, cap)."""
    if not rows:
        return ["no rows"]
    errors = []
    for row in rows:
        where = f"n={row.get('n')} method={row.get('method')}"
        if row.get("status") != "ok":
            errors.append(f"{where}: status {row.get('status')!r}")
            continue
        errors += check_improvement(float(row["improvement_pct"]), where)
    return errors


def check_curve_pair(genramsey_rows: list, qfi_rows: list) -> list:
    """For each n, the optimal measurement does at least as well as S_x."""
    gen = {row["n"]: float(row["improvement_pct"]) for row in genramsey_rows}
    errors = []
    for row in qfi_rows:
        n = row["n"]
        if n not in gen:
            errors.append(f"n={n}: no gen-ramsey row to compare with")
        elif not float(row["improvement_pct"]) >= gen[n] - PAIR_TOL_PCT:
            errors.append(
                f"n={n}: qfi improvement {row['improvement_pct']} below gen-ramsey {gen[n]!r}"
            )
    if len(qfi_rows) != len(gen):
        errors.append(f"{len(qfi_rows)} qfi rows for {len(gen)} gen-ramsey rows")
    return errors


def check_qfi_report(report: dict, scheme: str) -> list:
    """SLD measurement attains the QFI; GHZ and uncorrelated preparations sit
    on the reference limit at their known shot times; any other preparation
    stays inside (0, cap)."""
    n, gamma, total_time = report["n"], report["gamma"], report["total_time"]
    errors = []
    fq, cfi = report["qfi"], report["classical_fi_sld"]
    if not abs(cfi - fq) <= FI_REL_TOL * abs(fq):
        errors.append(f"classical FI of the SLD basis {cfi!r} differs from QFI {fq!r}")
    imp = improvement_pct(report["delta_omega"], n, total_time, gamma)
    if scheme in ("ghz", "uncorrelated"):
        if not abs(imp) <= REFERENCE_TOL_PCT:
            errors.append(f"{scheme}: {imp!r} % off the reference limit")
        t_expected = 0.5 / (gamma * (n if scheme == "ghz" else 1))
        if not abs(report["t_opt"] - t_expected) <= T_OPT_REL_TOL * t_expected:
            errors.append(f"{scheme}: t_opt {report['t_opt']!r}, expected {t_expected!r}")
    else:
        errors += check_improvement(imp, scheme)
    return errors


def qfi_report_improvement(data: bytes) -> float:
    report = json.loads(data)
    return improvement_pct(
        report["delta_omega"], report["n"], report["total_time"], report["gamma"]
    )
