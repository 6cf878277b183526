import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clocksim
from clocksim import reference_limit, signal_ghz, signal_uncorrelated, uncertainty_uncorrelated
from clocksim import ExperimentBudget, cli, improvement_sweep, optimize
from clocksim.cli import main
from clocksim.evolution import MAX_BLOCK_QUBITS


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


@pytest.mark.parametrize("total", ["-1", "0"])
def test_scan_rejects_nonpositive_total_time(tmp_path, capsys, total):
    # every shot time would be infeasible: no nan rows, an error
    out = tmp_path / "scan.csv"
    code = main(["scan", "--n", "2", "--gamma", "1", "--total-time", total,
                 "--t-steps", "3", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"clocksim: invalid-argument: total time must be > 0, got {float(total)!r}\n"


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
    assert payload["schema_version"] == 3
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


@pytest.mark.parametrize(
    "method, n_max",
    [("both", MAX_BLOCK_QUBITS + 1), ("qfi", MAX_BLOCK_QUBITS + 1), ("gen-ramsey", 1001)],
)
def test_optimize_n_above_method_cap_exits_2(tmp_path, capsys, method, n_max):
    out = tmp_path / "never.csv"
    argv = ["optimize", "--method", method, "--n-min", "2", "--n-max", str(n_max), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("clocksim: invalid-argument:")


def test_optimize_genramsey_above_qfi_cap(tmp_path):
    out = tmp_path / "opt.csv"
    above = [str(MAX_BLOCK_QUBITS + 1), str(MAX_BLOCK_QUBITS + 2)]
    assert main(["optimize", "--method", "gen-ramsey", "--n-min", above[0], "--n-max", above[1],
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert [r[0] for r in rows] == above
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
    assert payload["schema_version"] == 3
    assert "detuning" not in payload  # version 3 dropped the no-op key
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


def test_qfi_coeffs_with_a_negative_first_coefficient(tmp_path, capsys):
    # argparse reads a separate "-0.6;0.8" as a flag and exits 2; the "="
    # form and a config file take it, and print the same bytes
    argv = ["qfi", "--n", "2", "--gamma", "1", "--t", "0.1", "--out"]
    flag, config, cfgfile = tmp_path / "flag.json", tmp_path / "config.json", tmp_path / "run.cfg"
    cfgfile.write_text("coeffs=-0.6;0.8\n")
    assert main([*argv, str(flag), "--coeffs=-0.6;0.8"]) == 0
    assert main([*argv, str(config), "--config", str(cfgfile)]) == 0
    assert flag.read_bytes() == config.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(tmp_path / "never.json"), "--coeffs", "-0.6;0.8"])
    assert exc.value.code == 2 and not (tmp_path / "never.json").exists()
    assert "argument --coeffs: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("from_config", [False, True])
def test_qfi_t_conflicting_with_optimize_t_exits_2(tmp_path, capsys, from_config):
    argv = ["qfi", "--scheme", "ghz", "--n", "3", "--gamma", "1", "--total-time", "100"]
    if from_config:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("t=0.3\noptimize_t=true\n")
        argv += ["--config", str(cfgfile)]
    else:
        argv += ["--t", "0.3", "--optimize-t"]
    out = tmp_path / "never.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "clocksim: invalid-argument: --t conflicts with --optimize-t\n"


@pytest.mark.parametrize("n", [0, MAX_BLOCK_QUBITS + 1])
@pytest.mark.parametrize("scheme", ["ghz", "uncorrelated"])
def test_qfi_outside_block_cap_exits_2(tmp_path, capsys, scheme, n):
    out = tmp_path / "never.json"
    code = main(["qfi", "--scheme", scheme, "--n", str(n), "--gamma", "1", "--optimize-t",
                 "--total-time", "100", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("clocksim: invalid-argument:")
    assert f"block QFI supports 1 <= n <= {MAX_BLOCK_QUBITS}" in err


def test_qfi_symmetric_scheme_with_coeffs(tmp_path):
    out = tmp_path / "qfi.json"
    assert main(["qfi", "--scheme", "symmetric", "--coeffs", "1;0", "--n", "2", "--gamma", "1",
                 "--t", "0.1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scheme"] == "symmetric"


def test_qfi_rejects_csv(tmp_path):
    code = main(["qfi", "--scheme", "ghz", "--n", "2", "--gamma", "1",
                 "--t", "0.5", "--format", "csv"])
    assert code == 2


def _same_value(cell, field):
    """A CSV cell holds the JSON field of the same row: NaN as null, an
    array as its elements joined by ';'."""
    if field is None:
        return cell == "nan"
    if isinstance(field, list):
        return [float(c) for c in cell.split(";")] == field
    return cell == field if isinstance(field, str) else type(field)(cell) == field


@pytest.mark.parametrize(
    "argv",
    [
        ["signal", "--scheme", "ghz", "--n", "3", "--gamma", "0.5", "--detuning", "1", "--t", "0.3"],
        ["scan", "--n", "2", "--gamma", "1", "--total-time", "1", "--t-min", "0.5", "--t-steps", "4"],
        ["optimize", "--method", "both", "--n-min", "2", "--n-max", "3"],
    ],
)
def test_csv_cells_equal_the_json_fields_of_the_same_rows(tmp_path, capsys, argv):
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    assert main([*argv, "--out", str(csv_out)]) == 0
    assert main([*argv, "--format", "json", "--out", str(json_out)]) == 0
    header, rows = _read_csv(csv_out)
    payload = json.loads(json_out.read_text())
    records = payload["points" if argv[0] == "optimize" else "rows"]
    assert len(rows) == len(records) > 0
    for cells, record in zip(rows, records):
        assert len(cells) == len(header)
        assert all(_same_value(cell, record[key]) for key, cell in zip(header, cells)), cells
    if argv[0] == "scan":  # the shot times past T = 1 are infeasible
        assert [r[1:] == ["nan", "nan"] for r in rows] == [False, False, True, True]


@pytest.mark.parametrize("error, tag", cli._ERROR_TAGS)
def test_each_numerical_failure_exits_3_with_its_tag(monkeypatch, tmp_path, capsys, error, tag):
    def failing(opts):
        raise error("the message")

    command = cli._COMMANDS["signal"]
    monkeypatch.setitem(cli._COMMANDS, "signal", command._replace(handler=failing))
    out = tmp_path / "never.csv"
    assert main(["signal", "--n", "2", "--t", "0.5", "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == f"clocksim: {tag}: the message\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--method", "gen-ramsey", "--n-min", "2", "--n-max", "2", "--gamma", "1e-170",
          "--total-time", "1e170"], "dephasing rate must be within [1e-100, 1e100], got 1e-170"),
        (["--method", "gen-ramsey", "--n-min", "3", "--n-max", "3", "--gamma", "1e160",
          "--total-time", "1e-159"], "dephasing rate must be within [1e-100, 1e100], got 1e+160"),
        (["--method", "gen-ramsey", "--n-min", "3", "--n-max", "3", "--gamma", "1e-160",
          "--total-time", "1e160"], "dephasing rate must be within [1e-100, 1e100], got 1e-160"),
        (["--method", "qfi", "--n-min", "4", "--n-max", "4", "--gamma", "1e-150",
          "--total-time", "1e151"], "dephasing rate must be within [1e-100, 1e100], got 1e-150"),
        (["--method", "qfi", "--n-min", "4", "--n-max", "4", "--gamma", "1e150",
          "--total-time", "1e-149"], "dephasing rate must be within [1e-100, 1e100], got 1e+150"),
        (["--method", "both", "--n-min", "2", "--n-max", "2", "--gamma", "1",
          "--total-time", "1e101"], "dephasing rate times total time must be <= 1e100, got 1e+101"),
    ],
)
def test_optimize_outside_the_unit_range_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "never.csv"
    assert main(["optimize", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"clocksim: invalid-argument: {message}\n"


@pytest.mark.parametrize("gamma", [1e15, 1e50])
def test_qfi_report_floor_scales_with_the_units(capsys, gamma):
    # F_Q has units of time^2: the GHZ report at gamma is gamma = 1's with
    # F_Q over gamma^2, not a no-information failure
    reports = []
    for g in (1.0, gamma):
        argv = ["qfi", "--n", "2", "--gamma", str(g), "--optimize-t", "--total-time", str(10 / g),
                "--scheme", "ghz"]
        assert main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    ref, got = reports
    assert got["t_opt"] * gamma == pytest.approx(ref["t_opt"], rel=1e-13)
    assert got["qfi"] * gamma**2 == pytest.approx(ref["qfi"], rel=1e-13)
    assert got["delta_omega"] / gamma == pytest.approx(ref["delta_omega"], rel=1e-13)


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


def test_consecutive_main_calls_share_no_state(capsys):
    # the parser is built once per process; every call still parses afresh
    argv = ["signal", "--n", "1", "--t", "0.5"]
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "signal"
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("# convention:")
    with pytest.raises(SystemExit) as exc:
        main(["signal", "--n", "one", "--t", "0.5"])
    assert exc.value.code == 2
    assert main(["signal", "--n", "0", "--t", "0.5"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("# convention:")


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
    points = list(improvement_sweep(range(2, 4), 1.0, 100.0))
    assert len(got) == 2 * len(points)
    for n, reports in points:
        assert got[n, "gen-ramsey"] == reports["gen-ramsey"].improvement_pct
        assert got[n, "qfi"] == reports["qfi"].improvement_pct


def test_qfi_detuning_flag_exits_2(tmp_path, capsys):
    # F_Q does not depend on the detuning, so qfi takes none
    out = tmp_path / "never.json"
    with pytest.raises(SystemExit) as exc:
        main(["qfi", "--scheme", "ghz", "--n", "4", "--gamma", "1", "--t", "0.1",
              "--detuning", "0.3", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "--detuning" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, lines, key",
    [
        (["signal", "--n", "2", "--t", "0.5"], "total-tme=3\nbogus=7\n", "total_tme"),
        (["signal", "--n", "2", "--t", "0.5"], "gama=0.5\n", "gama"),
        (["qfi", "--scheme", "ghz", "--n", "2", "--gamma", "1", "--t", "0.5"],
         "detuning=0.3\n", "detuning"),
        (["optimize", "--n-min", "2", "--n-max", "2"], "out=x.csv\n", "out"),
    ],
)
def test_config_key_matching_no_option_exits_2(tmp_path, capsys, command, lines, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(lines)
    out = tmp_path / "never.out"
    assert main(command + ["--config", str(cfgfile), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"clocksim: invalid-argument: config key {key}: no such option of {command[0]}\n"


@pytest.mark.parametrize(
    "total, message",
    [
        ("inf", "total time must be finite, got inf"),
        ("0.1", "total time must be >= shot time = 0.2, got 0.1"),
    ],
)
def test_qfi_fixed_time_checks_total_time_before_any_qfi(monkeypatch, tmp_path, capsys,
                                                           total, message):
    # the budget qfi_uncertainty checks is checked first: a bad --total-time
    # costs no F_Q evaluation, 0.16 s at n = 100
    calls, family_qfi = [], cli.family_qfi
    monkeypatch.setattr(cli, "family_qfi", lambda *args: calls.append(args) or family_qfi(*args))
    out = tmp_path / "never.json"
    argv = ["qfi", "--scheme", "ghz", "--n", "100", "--gamma", "1", "--t", "0.2",
            "--total-time", total, "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists() and calls == []
    assert capsys.readouterr().err == f"clocksim: invalid-argument: {message}\n"


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


# Runs in a fresh interpreter: importing the package and every command, the
# QFI shot-time and coefficient searches included, loads numpy alone.
_SCIPY_FREE_SCRIPT = """
import os, sys
import clocksim, clocksim.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")[:5]

assert not scipy_modules(), scipy_modules()
out = os.devnull
scipy_free = (
    ["signal", "--scheme", "ghz", "--n", "3", "--gamma", "0.5", "--detuning", "1", "--t", "0.3"],
    ["scan", "--n", "3", "--gamma", "1", "--total-time", "100"],
    ["qfi", "--n", "7", "--gamma", "1", "--t", "0.1", "--scheme", "ghz"],
    ["qfi", "--n", "3", "--gamma", "1", "--optimize-t", "--total-time", "100", "--scheme", "ghz"],
    ["qfi", "--n", "60", "--gamma", "1", "--optimize-t", "--total-time", "100",
     "--scheme", "uncorrelated"],
    ["optimize", "--method", "gen-ramsey", "--n-min", "2", "--n-max", "20"],
    ["optimize", "--method", "qfi", "--n-min", "2", "--n-max", "3"],
    ["optimize", "--method", "both", "--n-min", "2", "--n-max", "6"],
)
for argv in scipy_free:
    assert clocksim.cli.main([*argv, "--out", out]) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
"""


def _fresh_env(**extra):
    """The environment of a fresh interpreter that imports this clocksim."""
    src = str(Path(clocksim.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_no_command_loads_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_SCRIPT],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_qfi_search_bytes_match_across_blas_thread_counts():
    # from n = 80 the QFI search's last bits follow the BLAS thread count
    # (README); at n = 20 one and two threads print the same bytes
    argv = ["-m", "clocksim", "optimize", "--method", "both", "--n-min", "20", "--n-max", "20"]
    outputs = []
    for threads in ("1", "2"):
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        proc = subprocess.run(
            [sys.executable, *argv], env=_fresh_env(**blas), capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
