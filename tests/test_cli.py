import json
import math
import os

import numpy as np
import pytest

from clocksim import reference_limit, signal_ghz, signal_uncorrelated, uncertainty_uncorrelated
from clocksim import ExperimentBudget, fig4_curve, optimize
from clocksim.cli import main


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    assert raw.endswith("\n") and "\r" not in raw
    lines = raw.splitlines()
    assert lines[0].startswith("# convention:")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_signal_ghz_row(tmp_path):
    out = tmp_path / "sig.csv"
    t = 0.7853981634
    code = main([
        "signal", "--scheme", "ghz", "--n", "2", "--gamma", "0",
        "--detuning", "1", "--t", str(t), "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["t", "delta", "gamma", "scheme", "P"]
    assert len(rows) == 1
    assert rows[0][3] == "ghz"
    assert float(rows[0][4]) == pytest.approx(signal_ghz(2, 1.0, t, 0.0), rel=1e-15)


def test_signal_zero_time_gives_unity(tmp_path):
    out = tmp_path / "sig.csv"
    assert main(["signal", "--n", "1", "--t", "0", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert float(rows[0][4]) == 1.0


def test_signal_missing_n_exits_2_without_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main(["signal", "--t", "1.0", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "invalid-argument" in err and "--n" in err


def test_signal_csv_roundtrip(tmp_path):
    out = tmp_path / "sig.csv"
    main(["signal", "--scheme", "uncorrelated", "--n", "3", "--gamma", "0.8",
          "--detuning", "1.1", "--t", "0.9", "--out", str(out)])
    _, rows = _read_csv(out)
    t, delta, gamma, scheme, p = rows[0]
    assert scheme == "uncorrelated"
    recomputed = signal_uncorrelated(float(delta), float(t), float(gamma))
    assert recomputed == pytest.approx(float(p), abs=1e-9)


def test_scan_default_grid_minima_agree(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--n", "3", "--gamma", "1", "--total-time", "100", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["t", "delta_omega_uncorrelated", "delta_omega_ghz"]
    unc = np.array([float(r[1]) for r in rows])
    ent = np.array([float(r[2]) for r in rows])
    assert np.nanmin(unc) == pytest.approx(np.nanmin(ent), rel=5e-4)
    ts = np.array([float(r[0]) for r in rows])
    assert ts.tolist() == sorted(ts.tolist())


def test_scan_single_row_value(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--n", "3", "--gamma", "1", "--total-time", "100",
                 "--t-min", "0.5", "--t-max", "0.5", "--t-steps", "1", "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    assert float(rows[0][1]) == pytest.approx(math.sqrt(2 * math.e / 300), rel=1e-12)


def test_scan_rejects_nonpositive_tmin(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--n", "2", "--gamma", "1", "--total-time", "10",
                 "--t-min", "0", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_scan_flags_infeasible_rows_with_warning(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--n", "2", "--gamma", "1", "--total-time", "1.0",
                 "--t-min", "0.5", "--t-max", "2.0", "--t-steps", "4", "--out", str(out)])
    assert code == 0
    assert "warning" in capsys.readouterr().err
    _, rows = _read_csv(out)
    assert rows[-1][1] == "nan"


def test_scan_csv_roundtrip(tmp_path):
    out = tmp_path / "scan.csv"
    main(["scan", "--n", "4", "--gamma", "0.7", "--total-time", "50",
          "--t-min", "0.1", "--t-max", "1.5", "--t-steps", "12", "--out", str(out)])
    _, rows = _read_csv(out)
    for t_s, unc_s, _ in rows:
        t = float(t_s)
        budget = ExperimentBudget(4, 50.0, t)
        expected = uncertainty_uncorrelated(budget, 0.5 * math.pi / t, 0.7)
        assert expected == pytest.approx(float(unc_s), abs=1e-9)


def test_optimize_csv_and_ordering(tmp_path):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--n-min", "2", "--n-max", "3", "--method", "both",
                 "--seed", "42", "--restarts", "3", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["n", "method", "improvement_pct", "t_opt", "coeffs", "status"]
    assert len(rows) == 4  # 2 n-values x 2 methods
    by_key = {(r[0], r[1]): r for r in rows}
    for n in ("2", "3"):
        gen = float(by_key[(n, "gen-ramsey")][2])
        opt = float(by_key[(n, "qfi")][2])
        assert opt >= gen - 1e-6
        assert float(by_key[(n, "gen-ramsey")][2]) > 0.0
        coeffs = [float(c) for c in by_key[(n, "qfi")][4].split(";")]
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-9)


def test_optimize_determinism_bytewise(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["optimize", "--n-min", "2", "--n-max", "2", "--method", "gen-ramsey",
            "--restarts", "1", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_optimize_rejects_n_below_2(tmp_path):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--n-min", "1", "--n-max", "3", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_optimize_json_report(tmp_path):
    out = tmp_path / "opt.json"
    code = main(["optimize", "--n-min", "2", "--n-max", "2", "--method", "gen-ramsey",
                 "--seed", "1", "--restarts", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 2
    assert "convention" in payload
    assert "seed" not in payload and "restarts" not in payload  # both are no-ops
    point = payload["points"][0]
    assert point["method"] == "gen-ramsey"
    assert point["status"] == "ok"
    assert "restart_values" not in point
    assert len(point["coeffs"]) == 2


def test_optimize_genramsey_ignores_seed_and_restarts(capsys):
    outputs = []
    for seed, restarts in (("0", "16"), ("7", "1")):
        assert main(["optimize", "--method", "gen-ramsey", "--n-min", "2", "--n-max", "4",
                     "--seed", seed, "--restarts", restarts]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_optimize_qfi_ignores_seed_and_restarts(capsys):
    outputs = []
    for seed, restarts in (("0", "16"), ("7", "1")):
        assert main(["optimize", "--method", "qfi", "--n-min", "2", "--n-max", "3",
                     "--seed", seed, "--restarts", restarts]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_optimize_reports_partial_search_and_exits_0(tmp_path, monkeypatch):
    monkeypatch.setattr(optimize, "_POLISH_EVALS", 1)
    csv_out, json_out = tmp_path / "opt.csv", tmp_path / "opt.json"
    argv = ["optimize", "--method", "qfi", "--n-min", "2", "--n-max", "2"]
    assert main(argv + ["--out", str(csv_out)]) == 0
    _, rows = _read_csv(csv_out)
    assert [r[5] for r in rows] == ["partial"]
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    assert json.loads(json_out.read_text())["points"][0]["status"] == "partial"


@pytest.mark.parametrize("method, n_max", [("both", "21"), ("qfi", "21"), ("gen-ramsey", "1001")])
def test_optimize_n_above_method_cap_exits_2(tmp_path, capsys, method, n_max):
    out = tmp_path / "never.csv"
    argv = ["optimize", "--method", method, "--n-min", "2", "--n-max", n_max, "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("clocksim: invalid-argument:")


def test_optimize_genramsey_above_qfi_cap(tmp_path):
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--method", "gen-ramsey", "--n-min", "21", "--n-max", "22",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert [r[0] for r in rows] == ["21", "22"]
    assert all(r[5] == "ok" and 0.0 < float(r[2]) < 100 * (1 - math.exp(-0.5)) for r in rows)


def test_optimize_total_time_at_half_decoherence_time(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--method", "gen-ramsey", "--n-min", "2", "--n-max", "5",
                 "--total-time", "0.5", "--gamma", "1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(out)
    assert all(r[5] == "ok" and float(r[3]) <= 0.5 for r in rows)


def test_optimize_short_total_time_skips_infeasible_candidates(tmp_path, capsys):
    # anti-squeezed random candidates have an optimal shot longer than T = 0.6,
    # just above tau_dec/2; the search scores them infeasible instead of aborting
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--method", "gen-ramsey", "--n-min", "2", "--n-max", "3",
                 "--total-time", "0.6", "--gamma", "1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(out)
    assert [r[0] for r in rows] == ["2", "3"]
    for row in rows:
        assert row[5] == "ok"
        assert 0.0 < float(row[2]) < 100 * (1 - math.exp(-0.5))
        assert float(row[3]) <= 0.6


def test_qfi_report_ghz_optimized(tmp_path):
    out = tmp_path / "qfi.json"
    code = main(["qfi", "--scheme", "ghz", "--n", "4", "--gamma", "1",
                 "--optimize-t", "--total-time", "100", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 2
    expected = math.sqrt(2 * math.e / 400)
    assert payload["delta_omega"] == pytest.approx(expected, rel=1e-6)
    assert payload["t_opt"] == pytest.approx(1 / 8, abs=1e-4)
    assert payload["classical_fi_sld"] == pytest.approx(payload["qfi"], rel=1e-6)


def test_qfi_report_uncorrelated_same_limit(tmp_path):
    out = tmp_path / "qfi.json"
    code = main(["qfi", "--scheme", "uncorrelated", "--n", "4", "--gamma", "1",
                 "--optimize-t", "--total-time", "100", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["delta_omega"] == pytest.approx(math.sqrt(2 * math.e / 400), rel=1e-6)


def test_qfi_fixed_time_value(tmp_path):
    out = tmp_path / "qfi.json"
    code = main(["qfi", "--scheme", "ghz", "--n", "3", "--gamma", "0",
                 "--t", "0.7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["qfi"] == pytest.approx(9 * 0.49, rel=1e-9)
    assert payload["delta_omega"] is None


def test_qfi_zero_information_exits_3(tmp_path, capsys):
    out = tmp_path / "qfi.json"
    code = main(["qfi", "--coeffs", "0;0;1", "--n", "4", "--gamma", "1",
                 "--optimize-t", "--total-time", "100", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "clocksim: no-information: state carries no information about the detuning\n"


@pytest.mark.parametrize("scheme", ["uncorrelated", "ghz"])
@pytest.mark.parametrize("from_config", [False, True])
def test_qfi_coeffs_conflicting_with_scheme_exits_2(tmp_path, capsys, scheme, from_config):
    argv = ["qfi", "--coeffs", "1;0", "--n", "2", "--gamma", "1", "--t", "0.1"]
    if from_config:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"scheme={scheme}\n")
        argv += ["--config", str(cfgfile)]
    else:
        argv += ["--scheme", scheme]
    out = tmp_path / "never.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("clocksim: invalid-argument:") and "--coeffs" in err


@pytest.mark.parametrize("n", ["0", "21"])
@pytest.mark.parametrize("scheme", ["ghz", "uncorrelated"])
def test_qfi_outside_block_cap_exits_2(tmp_path, capsys, scheme, n):
    out = tmp_path / "never.json"
    code = main(["qfi", "--scheme", scheme, "--n", n, "--gamma", "1", "--optimize-t",
                 "--total-time", "100", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("clocksim: invalid-argument:")
    assert "block QFI supports 1 <= n <= 20" in err


def test_qfi_symmetric_scheme_with_coeffs(tmp_path):
    out = tmp_path / "qfi.json"
    assert main(["qfi", "--scheme", "symmetric", "--coeffs", "1;0", "--n", "2", "--gamma", "1",
                 "--t", "0.1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scheme"] == "symmetric"


def test_qfi_rejects_csv(tmp_path):
    code = main(["qfi", "--scheme", "ghz", "--n", "2", "--gamma", "1",
                 "--t", "0.5", "--format", "csv"])
    assert code == 2


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scheme=ghz\nn=2\ngamma=0\ndetuning=1\nt=0.5\n")
    out = tmp_path / "sig.csv"
    code = main(["signal", "--config", str(cfgfile), "--t", "1.0", "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    assert float(rows[0][0]) == 1.0  # flag wins over config value
    assert rows[0][3] == "ghz"


def test_stdout_output_when_no_path(capsys):
    code = main(["signal", "--n", "1", "--t", "0.5", "--detuning", "1.0"])
    assert code == 0
    got = capsys.readouterr().out
    assert got.startswith("# convention:")
    assert "t,delta,gamma,scheme,P" in got


def test_signal_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "sig.csv"
    code = main(["signal", "--n", "2", "--t", "0.5", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "invalid-argument" in err


def test_qfi_non_finite_coeffs_exit_2(capsys):
    code = main(["qfi", "--coeffs", "nan;1", "--n", "2", "--gamma", "1", "--t", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid-argument" in err and "coefficients must be finite" in err


def test_optimize_matches_library_curve(tmp_path):
    out = tmp_path / "opt.csv"
    code = main(["optimize", "--method", "both", "--n-min", "2", "--n-max", "3",
                 "--seed", "5", "--restarts", "3", "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    got = {(int(r[0]), r[1]): float(r[2]) for r in rows}
    points = fig4_curve(range(2, 4), 1.0, 100.0)
    assert len(got) == 2 * len(points)
    for p in points:
        assert got[p.n, "gen-ramsey"] == p.improvement_genramsey_pct
        assert got[p.n, "qfi"] == p.improvement_qfi_pct


def test_qfi_optimized_shot_time_ignores_detuning(tmp_path):
    # dephasing commutes with the detuning Hamiltonian, so the detuning
    # changes neither the optimal shot time nor the precision bound
    reports = []
    for detuning in ("0", "0.3"):
        out = tmp_path / f"qfi_{detuning}.json"
        code = main(["qfi", "--coeffs", "0.6;0.5;0.6244997998398398", "--n", "4",
                     "--gamma", "1", "--optimize-t", "--total-time", "100",
                     "--detuning", detuning, "--out", str(out)])
        assert code == 0
        reports.append(json.loads(out.read_text()))
    still, detuned = reports
    assert detuned["detuning"] == 0.3
    assert detuned["delta_omega"] == pytest.approx(still["delta_omega"], rel=1e-9)
    assert detuned["t_opt"] == pytest.approx(still["t_opt"], abs=1e-6)


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--method", "gen-ramsey", "--n-min", "2", "--n-max", "2", "--restarts", "1"],
        ["optimize", "--method", "qfi", "--n-min", "2", "--n-max", "2", "--restarts", "1"],
        ["qfi", "--scheme", "ghz", "--n", "2", "--gamma", "1", "--optimize-t"],
        ["qfi", "--scheme", "ghz", "--n", "2", "--gamma", "1", "--t", "0.2"],
    ],
)
def test_infinite_total_time_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "never.out"
    assert main(argv + ["--total-time", "inf", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("clocksim: invalid-argument:") and "finite" in err


@pytest.mark.parametrize(
    "command, line",
    [
        (["signal", "--n", "2", "--t", "0.5"], "scheme=foo"),
        (["qfi", "--n", "2", "--gamma", "1", "--t", "0.5"], "scheme=foo"),
        (["optimize", "--n-min", "2", "--n-max", "2", "--restarts", "1"], "method=foo"),
        (["optimize", "--n-min", "2", "--n-max", "2", "--restarts", "1"], "method=genramsey"),
    ],
)
def test_config_value_outside_choices_exits_2(tmp_path, capsys, command, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    out = tmp_path / "never.out"
    assert main(command + ["--config", str(cfgfile), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    key, value = line.split("=")
    assert err.startswith(f"clocksim: invalid-argument: config key {key}: invalid choice '{value}'")


@pytest.mark.parametrize("scheme", ["uncorrelated", "ghz"])
@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--t", "nan", "duration"),
        ("--t", "inf", "duration"),
        ("--gamma", "nan", "dephasing rate"),
        ("--gamma", "inf", "dephasing rate"),
        ("--detuning", "nan", "detuning"),
        ("--detuning", "inf", "detuning"),
    ],
)
def test_signal_non_finite_input_exits_2(tmp_path, capsys, scheme, flag, value, name):
    argv = {"--scheme": scheme, "--n": "2", "--t": "0.5", "--gamma": "0.3", "--detuning": "1"}
    argv[flag] = value
    out = tmp_path / "never.csv"
    assert main(["signal", *(x for kv in argv.items() for x in kv), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"clocksim: invalid-argument: {name} must be finite, got {float(value)!r}\n"
