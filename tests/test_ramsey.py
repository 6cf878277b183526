import math

import numpy as np
import pytest

from clocksim import (
    ExperimentBudget,
    PrecisionResult,
    SingularPointError,
    reference_limit,
    signal_ghz,
    signal_uncorrelated,
    uncertainty_ghz,
    uncertainty_uncorrelated,
)

from reference import pipeline_signal


def test_signal_uncorrelated_values():
    assert signal_uncorrelated(0.0, 1.0, 0.0) == 1.0
    assert signal_uncorrelated(np.pi, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert signal_uncorrelated(np.pi, 1.0, 1.0) == pytest.approx((1 - np.exp(-1)) / 2, rel=1e-15)


def test_signal_ghz_values():
    for args in [(0.7, 0.3, 0.2), (2.0, 1.5, 0.0)]:
        assert signal_ghz(1, *args) == signal_uncorrelated(*args)
    assert signal_ghz(2, np.pi / 2, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    expected = (1 + np.cos(1.2) * np.exp(-0.6)) / 2
    assert signal_ghz(3, 1.0, 0.4, 0.5) == pytest.approx(expected, rel=1e-15)


def test_signals_bounded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        delta, t, gamma = rng.uniform(-5, 5), rng.uniform(0, 4), rng.uniform(0, 3)
        assert 0.0 <= signal_uncorrelated(delta, t, gamma) <= 1.0
        assert 0.0 <= signal_ghz(n, delta, t, gamma) <= 1.0


def test_uncertainty_uncorrelated_shot_noise_limit():
    budget = ExperimentBudget(4, 16.0, 1.0)
    assert uncertainty_uncorrelated(budget, np.pi / 2, 0.0) == pytest.approx(1 / 8, rel=1e-12)


def test_uncertainty_uncorrelated_optimum_point():
    budget = ExperimentBudget(1, 1.0, 0.5)
    value = uncertainty_uncorrelated(budget, np.pi, 1.0)
    assert value == pytest.approx(math.sqrt(2 * math.e), rel=1e-12)
    # off the optimal shot time the uncertainty is strictly worse
    off = uncertainty_uncorrelated(ExperimentBudget(1, 1.0, 1.0), np.pi / 2, 1.0)
    assert off == pytest.approx(math.e, rel=1e-12)
    assert off > value


def test_uncertainty_singularities():
    budget = ExperimentBudget(2, 10.0, 1.0)
    with pytest.raises(SingularPointError):
        uncertainty_uncorrelated(budget, np.pi, 1.0)
    with pytest.raises(SingularPointError):
        uncertainty_ghz(budget, np.pi / 2, 1.0)


def test_uncertainty_ghz_values():
    budget = ExperimentBudget(3, 9.0, 1.0)
    assert uncertainty_ghz(budget, np.pi / 6, 0.0) == pytest.approx(1 / 9, rel=1e-12)
    # at its own optimal shot time the scheme hits the reference limit
    budget = ExperimentBudget(2, 1.0, 0.25)
    value = uncertainty_ghz(budget, np.pi / 2 / (2 * 0.25), 1.0)
    assert value == pytest.approx(reference_limit(2, 1.0, 1.0), rel=1e-12)
    assert value == pytest.approx(math.sqrt(math.e), rel=1e-12)


def test_uncertainty_ghz_reduces_to_uncorrelated_for_one_ion():
    rng = np.random.default_rng(1)
    for _ in range(25):
        t = rng.uniform(0.05, 2.0)
        budget = ExperimentBudget(1, 5.0, t)
        delta = rng.uniform(0.1, 1.2) / t
        gamma = rng.uniform(0.0, 2.0)
        assert uncertainty_ghz(budget, delta, gamma) == pytest.approx(
            uncertainty_uncorrelated(budget, delta, gamma), rel=1e-14
        )


def test_uncertainty_grows_past_optimum():
    last_unc, last_ghz = 0.0, 0.0
    for t in np.linspace(0.5, 6.0, 24):
        budget = ExperimentBudget(2, 50.0, float(t))
        unc = uncertainty_uncorrelated(budget, np.pi / 2 / t, 1.0)
        ent = uncertainty_ghz(budget, np.pi / 4 / t, 1.0)
        if t > 0.5:
            assert unc > last_unc
        if t > 0.25:
            assert ent > last_ghz
        last_unc, last_ghz = unc, ent


def test_reference_limit_values():
    assert reference_limit(1, 1.0, 1.0) == pytest.approx(math.sqrt(2 * math.e), rel=1e-15)
    assert reference_limit(1, 1.0, 1.0) == pytest.approx(2.3316, abs=5e-5)
    assert reference_limit(4, 2.0, 1.0) == pytest.approx(reference_limit(1, 2.0, 1.0) / 2, rel=1e-15)
    assert reference_limit(2, 3.0, 0.0) == 0.0


def test_budget_validation():
    with pytest.raises(ValueError):
        ExperimentBudget(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ExperimentBudget(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        ExperimentBudget(2, 0.4, 0.5)


def test_precision_result_validation():
    assert PrecisionResult(0.5, 1.0, 0.0).delta_omega == 1.0
    for delta_omega in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="frequency uncertainty must be > 0"):
            PrecisionResult(0.5, delta_omega, 0.0)


def test_pipeline_zero_time_gives_unity():
    # both pulses compose to a bit flip, so |0> ends in |1> with certainty
    for scheme in ("uncorrelated", "ghz"):
        assert pipeline_signal(scheme, 2, 1.3, 0.5, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_pipeline_matches_closed_form_uncorrelated():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        delta, gamma, t = rng.uniform(-3, 3), rng.uniform(0, 1.5), rng.uniform(0, 2)
        assert pipeline_signal("uncorrelated", n, delta, gamma, t) == pytest.approx(
            signal_uncorrelated(delta, t, gamma), abs=1e-10
        )


def test_pipeline_matches_closed_form_ghz():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        delta, gamma, t = rng.uniform(-3, 3), rng.uniform(0, 1.5), rng.uniform(0, 2)
        assert pipeline_signal("ghz", n, delta, gamma, t) == pytest.approx(
            signal_ghz(n, delta, t, gamma), abs=1e-10
        )


def test_pipeline_ghz_two_ions_oscillates_at_double_frequency():
    for delta in np.linspace(0.1, 2.0, 7):
        p = pipeline_signal("ghz", 2, float(delta), 0.0, 1.0)
        assert p == pytest.approx((1 + np.cos(2 * delta)) / 2, abs=1e-12)
