"""The input contract of every public entry: each scalar n, gamma, t, T
(``total_time``, ``shot_time``) and delta it takes is rejected with a
ValueError that names the quantity when it is not a finite number within
its bound, or, for n, not an integer >= 1. The searches for an optimum
take gamma in [1e-100, 1e100] and gamma T up to 1e100, and within those
their results do not depend on the units."""

import inspect
import math
import re

import numpy as np
import pytest

import clocksim
from clocksim import (
    CollectiveMoments,
    ExperimentBudget,
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
    signal_ghz,
    signal_uncorrelated,
    solve_topt,
    uncertainty_ghz,
    uncertainty_uncorrelated,
    uniform_coefficients,
)

nan, inf = math.nan, math.inf
_STATE = SymmetricFamilyState(2, [0.6, 0.8])
_MOMENTS = collective_moments(SymmetricFamilyState(3, uniform_coefficients(3)))
_BUDGET = ExperimentBudget(2, 100.0, 0.2)

# public entry -> (call, keyword arguments of a valid call)
ENTRIES = {
    "ExperimentBudget": (ExperimentBudget, dict(n=2, total_time=100.0, shot_time=0.2)),
    "CollectiveMoments": (
        CollectiveMoments,
        dict(n=3, sx_mean=3.0, sx2_mean=9.0, sy_mean=0.0, sy2_mean=3.0),
    ),
    "SymmetricFamilyState": (SymmetricFamilyState, dict(n=2, a=[0.6, 0.8])),
    "uniform_coefficients": (uniform_coefficients, dict(n=2)),
    "signal_uncorrelated": (signal_uncorrelated, dict(delta=0.0, t=1.0, gamma=0.0)),
    "signal_ghz": (signal_ghz, dict(n=2, delta=0.0, t=1.0, gamma=0.0)),
    "uncertainty_uncorrelated": (uncertainty_uncorrelated, dict(budget=_BUDGET, delta=1.0, gamma=1.0)),
    "uncertainty_ghz": (uncertainty_ghz, dict(budget=_BUDGET, delta=1.0, gamma=1.0)),
    "reference_limit": (reference_limit, dict(n=2, total_time=100.0, gamma=1.0)),
    "solve_topt": (solve_topt, dict(m0=_MOMENTS, gamma=1.0)),
    "genramsey_opt_uncertainty": (
        genramsey_opt_uncertainty,
        dict(m0=_MOMENTS, total_time=100.0, gamma=1.0),
    ),
    "family_qfi": (family_qfi, dict(state=_STATE, gamma=1.0, t=0.2)),
    "qfi_uncertainty": (qfi_uncertainty, dict(qfi_per_shot=2.0, total_time=100.0, shot_time=0.2)),
    "qfi_shot_optimum": (qfi_shot_optimum, dict(state=_STATE, gamma=1.0, total_time=100.0)),
    "optimize_symmetric_coeffs": (
        optimize_symmetric_coeffs,
        dict(n=2, gamma=1.0, total_time=100.0, method="gen-ramsey"),
    ),
    "improvement_sweep": (
        lambda **kwargs: next(improvement_sweep(**kwargs)),
        dict(n_range=[2], gamma=1.0, total_time=100.0, methods=("gen-ramsey",)),
    ),
    "fig3_scan": (fig3_scan, dict(n=2, gamma=1.0, total_time=1.0, t_grid=[0.1])),
}

# (entry, argument, bad value, message fragment)
CONTRACT = [
    ("ExperimentBudget", "n", 0, "ion count must be >= 1"),
    ("ExperimentBudget", "total_time", 0.1, "total time must be >= shot time"),
    ("ExperimentBudget", "shot_time", 0.0, "shot time must be > 0"),
    ("CollectiveMoments", "n", 2.0, "ion count must be an integer"),
    ("CollectiveMoments", "sx_mean", nan, "sx_mean must be finite"),
    ("SymmetricFamilyState", "n", True, "ion count must be an integer"),
    ("uniform_coefficients", "n", 0, "ion count must be >= 1"),
    ("signal_uncorrelated", "delta", inf, "detuning must be finite"),
    ("signal_uncorrelated", "t", -0.5, "duration must be >= 0"),
    ("signal_uncorrelated", "gamma", -1.0, "dephasing rate must be >= 0"),
    ("signal_ghz", "n", 2.5, "ion count must be an integer"),
    ("signal_ghz", "delta", nan, "detuning must be finite"),
    ("signal_ghz", "t", inf, "duration must be finite"),
    ("signal_ghz", "gamma", -1.0, "dephasing rate must be >= 0"),
    ("uncertainty_uncorrelated", "delta", nan, "detuning must be finite"),
    ("uncertainty_uncorrelated", "gamma", -1.0, "dephasing rate must be >= 0"),
    ("uncertainty_ghz", "delta", inf, "detuning must be finite"),
    ("uncertainty_ghz", "gamma", nan, "dephasing rate must be finite"),
    ("reference_limit", "n", 2.5, "ion count must be an integer"),
    ("reference_limit", "total_time", inf, "total time must be finite"),
    ("reference_limit", "gamma", nan, "dephasing rate must be finite"),
    ("solve_topt", "gamma", inf, "dephasing rate must be finite"),
    ("solve_topt", "gamma", 0.0, "dephasing rate must be > 0"),
    ("genramsey_opt_uncertainty", "total_time", inf, "total time must be finite"),
    ("genramsey_opt_uncertainty", "total_time", 0.3, "total time must be >= tau_dec/2 = 0.5"),
    ("genramsey_opt_uncertainty", "gamma", inf, "dephasing rate must be finite"),
    ("family_qfi", "gamma", nan, "dephasing rate must be finite"),
    ("family_qfi", "t", -0.5, "duration must be >= 0"),
    ("qfi_uncertainty", "qfi_per_shot", nan, "quantum Fisher information must be finite"),
    ("qfi_uncertainty", "qfi_per_shot", inf, "quantum Fisher information must be finite"),
    ("qfi_uncertainty", "total_time", 0.1, "total time must be >= shot time"),
    ("qfi_uncertainty", "shot_time", 0.0, "shot time must be > 0"),
    ("qfi_shot_optimum", "gamma", 0.0, "dephasing rate must be > 0"),
    ("qfi_shot_optimum", "total_time", 0.0, "total time must be > 1e-4/gamma"),
    ("optimize_symmetric_coeffs", "n", 2.5, "ion count must be an integer"),
    ("optimize_symmetric_coeffs", "gamma", nan, "dephasing rate must be finite"),
    ("optimize_symmetric_coeffs", "total_time", 0.2, "total time must be >= tau_dec/2"),
    ("improvement_sweep", "gamma", -1.0, "dephasing rate must be > 0"),
    ("improvement_sweep", "total_time", inf, "total time must be finite"),
    ("qfi_shot_optimum", "gamma", 1e101, "dephasing rate must be within [1e-100, 1e100]"),
    ("qfi_shot_optimum", "total_time", 1e101, "dephasing rate times total time must be <= 1e100"),
    ("optimize_symmetric_coeffs", "gamma", 1e101, "dephasing rate must be within [1e-100, 1e100]"),
    ("optimize_symmetric_coeffs", "total_time", 1e101, "dephasing rate times total time must be"),
    ("improvement_sweep", "gamma", 1e101, "dephasing rate must be within [1e-100, 1e100]"),
    ("improvement_sweep", "total_time", 1e101, "dephasing rate times total time must be"),
    ("genramsey_opt_uncertainty", "gamma", 1e101, "dephasing rate must be within [1e-100, 1e100]"),
    ("genramsey_opt_uncertainty", "total_time", 1e101, "dephasing rate times total time must be"),
    ("fig3_scan", "n", 0, "ion count must be >= 1"),
    ("fig3_scan", "gamma", 0.0, "dephasing rate must be > 0"),
    ("fig3_scan", "total_time", nan, "total time must be finite"),
    ("fig3_scan", "total_time", -1.0, "total time must be > 0"),
]

# the scalars of the paper's results that every public entry must check
GUARDED = {"n", "gamma", "t", "shot_time", "total_time", "delta"}
# records the library fills with the results of checked inputs
RESULT_RECORDS = {"OptimizationReport"}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_valid_call_succeeds(entry):
    call, kwargs = ENTRIES[entry]
    call(**kwargs)


@pytest.mark.parametrize(
    "entry, argument, bad, fragment",
    CONTRACT,
    ids=[f"{entry}-{argument}={bad!r}" for entry, argument, bad, _ in CONTRACT],
)
def test_bad_input_raises_value_error_naming_it(entry, argument, bad, fragment):
    call, kwargs = ENTRIES[entry]
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call(**{**kwargs, argument: bad})


def test_every_public_scalar_is_in_the_contract():
    covered = {(entry, argument) for entry, argument, _, _ in CONTRACT}
    missing = []
    for name in clocksim.__all__:
        obj = getattr(clocksim, name)
        if not callable(obj) or name in RESULT_RECORDS:
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        for argument in inspect.signature(obj).parameters:
            if argument in GUARDED and (name, argument) not in covered:
                missing.append(f"{name}({argument})")
    assert not missing, f"public scalars with no contract row: {missing}"


@pytest.mark.parametrize("gamma", [1e-100, 1e-90, 1e90, 1e100])
def test_searches_do_not_depend_on_the_units(gamma):
    # only gamma t and gamma T enter: at gamma T = 10 every gamma in range
    # gives the gamma = 1 rows, and the shot-time optimum scales as 1/gamma
    ref = next(improvement_sweep([4], 1.0, 10.0))[1]
    got = next(improvement_sweep([4], gamma, 10.0 / gamma))[1]
    for method, report in got.items():
        assert report.status == ref[method].status == "ok"
        assert abs(report.improvement_pct - ref[method].improvement_pct) <= 1e-13, method
        assert report.t_opt * gamma == pytest.approx(ref[method].t_opt, rel=1e-6, abs=0.0)
    for a in (np.eye(1, 3)[0], uniform_coefficients(4), [0.6, 0.0, 0.8]):
        state = SymmetricFamilyState(4, a)
        t_ref, bound_ref = qfi_shot_optimum(state, 1.0, 10.0)
        t_opt, bound = qfi_shot_optimum(state, gamma, 10.0 / gamma)
        assert t_opt * gamma == pytest.approx(t_ref, rel=1e-13, abs=0.0)
        assert bound / gamma == pytest.approx(bound_ref, rel=1e-13, abs=0.0)
