"""Command-line interface: signals, shot-time scans, coefficient
optimization, and Fisher-information queries, with CSV or JSON output.

Units are the user's: only the products gamma*t, gamma*T, and delta*t enter
any formula, so gamma and the times must simply share inverse/direct units.
Exit codes: 0 success, 2 argument/validation error, 3 numerical or
optimization failure. On exit 2 no output file is created.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .evolution import DephasingParams, _evolve_stack
from .exceptions import (
    BracketingError,
    ClocksimError,
    DegenerateStateError,
    NoInformationError,
    OptimizationFailureError,
    SingularOutcomeError,
    SingularPointError,
)
from .fisher import qfi, qfi_uncertainty
from .optimize import (
    METHODS,
    OptimizerConfig,
    fig3_scan,
    improvement_sweep,
    qfi_shot_optimum,
    qfi_shot_uncertainty,
)
from .qstate import DensityMatrix, ghz, product_superposition, symmetric_state, to_density
from .ramsey import signal_ghz, signal_uncorrelated

CONVENTION_NOTE = (
    "single-qubit coherences decay as exp(-gamma*t) with gamma = 1/tau_dec; "
    "only the products gamma*t, gamma*T and delta*t are physically meaningful"
)
SCHEMA_VERSION = 1

_ERROR_TAGS = (
    (NoInformationError, "no-information"),
    (SingularPointError, "singular-point"),
    (SingularOutcomeError, "singular-outcome"),
    (DegenerateStateError, "degenerate-state"),
    (OptimizationFailureError, "optimization-failure"),
    (BracketingError, "optimization-failure"),
    (ClocksimError, "numerical-failure"),
)

# dest -> (converter, required, default); merged from config file then flags.
_OPTION_TABLES = {
    "signal": {
        "scheme": (str, False, "uncorrelated"),
        "n": (int, True, None),
        "gamma": (float, False, 0.0),
        "detuning": (float, False, 0.0),
        "t": (float, True, None),
    },
    "scan": {
        "n": (int, True, None),
        "gamma": (float, True, None),
        "total_time": (float, True, None),
        "t_min": (float, False, 0.02),
        "t_max": (float, False, 2.0),
        "t_steps": (int, False, 256),
    },
    "optimize": {
        "n_min": (int, True, None),
        "n_max": (int, True, None),
        "method": (str, False, "both"),
        "seed": (int, False, 0),
        "restarts": (int, False, 16),
        "gamma": (float, False, 1.0),
        "total_time": (float, False, 100.0),
    },
    "qfi": {
        "scheme": (str, False, None),
        "coeffs": (str, False, None),
        "n": (int, True, None),
        "gamma": (float, True, None),
        "detuning": (float, False, 0.0),
        "t": (float, False, None),
        "optimize_t": (bool, False, False),
        "total_time": (float, False, None),
    },
}


def _fail(code: int, tag: str, message) -> int:
    print(f"clocksim: {tag}: {message}", file=sys.stderr)
    return code


def _warn(message) -> None:
    print(f"clocksim: warning: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clocksim",
        description="Frequency-measurement precision under dephasing: signals, scans, "
        "coefficient optimization, and Fisher-information bounds.",
    )
    parser.add_argument("--version", action="version", version=f"clocksim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--config", help="flat key=value file; flags override it")

    p = sub.add_parser("signal", help="evaluate a Ramsey signal at one point")
    p.add_argument("--scheme", choices=("uncorrelated", "ghz"))
    p.add_argument("--n", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--detuning", type=float)
    p.add_argument("--t", type=float)
    common(p)

    p = sub.add_parser("scan", help="uncertainty versus shot time for both basic schemes")
    p.add_argument("--n", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--total-time", type=float, dest="total_time")
    p.add_argument("--t-min", type=float, dest="t_min")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--t-steps", type=int, dest="t_steps")
    common(p)

    p = sub.add_parser("optimize", help="optimize symmetric-family coefficients over a sweep of n")
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--method", choices=("gen-ramsey", "qfi", "both"))
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--total-time", type=float, dest="total_time")
    common(p)

    p = sub.add_parser("qfi", help="quantum Fisher information report for one preparation")
    p.add_argument("--scheme", choices=("uncorrelated", "ghz", "symmetric"))
    p.add_argument("--coeffs", help="semicolon-separated family coefficients")
    p.add_argument("--n", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--detuning", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--optimize-t", action="store_true", default=None, dest="optimize_t")
    p.add_argument("--total-time", type=float, dest="total_time")
    common(p)
    return parser


def _load_config(path: str) -> dict:
    data = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                data[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    return data


_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _merge_options(args: argparse.Namespace) -> dict:
    table = _OPTION_TABLES[args.command]
    file_values = _load_config(args.config) if args.config else {}
    merged = {}
    for dest, (convert, required, default) in table.items():
        value = getattr(args, dest, None)
        if value is None and dest in file_values:
            raw = file_values[dest]
            if convert is bool:
                if raw.lower() not in _BOOL_STRINGS:
                    raise ValueError(f"config key {dest}: expected a boolean, got {raw!r}")
                value = _BOOL_STRINGS[raw.lower()]
            else:
                try:
                    value = convert(raw)
                except ValueError:
                    raise ValueError(f"config key {dest}: cannot parse {raw!r}") from None
        if value is None:
            if required:
                raise ValueError(f"missing --{dest.replace('_', '-')}")
            value = default
        merged[dest] = value
    return merged


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    return "nan" if math.isnan(value) else f"{value:.17g}"


def _emit_csv(out, header, rows) -> None:
    lines = [f"# convention: {CONVENTION_NOTE}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _emit_text(out, "\n".join(lines) + "\n")


def _emit_json(out, payload: dict) -> None:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return [clean(v) for v in obj.tolist()]
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (float, np.floating)):
            f = float(obj)
            return None if math.isnan(f) or math.isinf(f) else f
        return obj

    body = {"schema_version": SCHEMA_VERSION, "convention": CONVENTION_NOTE}
    body.update(payload)
    _emit_text(out, json.dumps(clean(body), indent=2, allow_nan=False) + "\n")


def _emit_text(out, text: str) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_signal(opts, out, fmt) -> int:
    scheme = opts["scheme"]
    if scheme == "ghz":
        p = signal_ghz(opts["n"], opts["detuning"], opts["t"], opts["gamma"])
    else:
        if opts["n"] < 1:
            raise ValueError(f"ion count must be >= 1, got {opts['n']}")
        p = signal_uncorrelated(opts["detuning"], opts["t"], opts["gamma"])
    row = [opts["t"], opts["detuning"], opts["gamma"], scheme, p]
    if fmt == "json":
        _emit_json(
            out,
            {
                "command": "signal",
                "rows": [
                    {
                        "t": opts["t"],
                        "delta": opts["detuning"],
                        "gamma": opts["gamma"],
                        "scheme": scheme,
                        "P": p,
                    }
                ],
            },
        )
    else:
        _emit_csv(out, ["t", "delta", "gamma", "scheme", "P"], [row])
    return 0


def _cmd_scan(opts, out, fmt) -> int:
    if not opts["t_min"] > 0.0:
        raise ValueError(f"--t-min must be > 0, got {opts['t_min']}")
    if not opts["t_max"] >= opts["t_min"]:
        raise ValueError("--t-max must be >= --t-min")
    if opts["t_steps"] < 1:
        raise ValueError(f"--t-steps must be >= 1, got {opts['t_steps']}")
    grid = np.linspace(opts["t_min"], opts["t_max"], opts["t_steps"])
    table = fig3_scan(opts["n"], opts["gamma"], opts["total_time"], grid)
    for t, unc, ent in table:
        if math.isnan(unc) or math.isnan(ent):
            _warn(f"t={_fmt(t)}: singular or infeasible shot time, row set to nan")
    header = ["t", "delta_omega_uncorrelated", "delta_omega_ghz"]
    if fmt == "json":
        rows = [dict(zip(header, map(float, row))) for row in table]
        _emit_json(out, {"command": "scan", "rows": rows})
    else:
        _emit_csv(out, header, table.tolist())
    return 0


def _cmd_optimize(opts, out, fmt) -> int:
    n_min, n_max = opts["n_min"], opts["n_max"]
    if not 2 <= n_min <= n_max <= 10:
        raise ValueError(f"need 2 <= n-min <= n-max <= 10, got {n_min}..{n_max}")
    methods = METHODS if opts["method"] == "both" else (opts["method"],)
    cfg = OptimizerConfig(restarts=opts["restarts"], seed=opts["seed"])

    rows, reports, any_ok = [], [], False
    sweep = improvement_sweep(
        range(n_min, n_max + 1), opts["gamma"], opts["total_time"], methods, cfg
    )
    for n, outcomes in sweep:
        for method, rep in outcomes.items():
            if isinstance(rep, Exception):
                _warn(f"n={n} method={method}: {rep}")
                rows.append([n, method, math.nan, math.nan, "", "failed"])
                reports.append({"n": n, "method": method, "status": "failed"})
                continue
            any_ok = True
            coeffs = ";".join(_fmt(c) for c in rep.best_coeffs)
            rows.append([n, rep.method, rep.improvement_pct, rep.t_opt, coeffs, "ok"])
            reports.append(
                {
                    "n": n,
                    "method": rep.method,
                    "status": "ok",
                    "improvement_pct": rep.improvement_pct,
                    "delta_omega": rep.delta_omega,
                    "t_opt": rep.t_opt,
                    "coeffs": rep.best_coeffs,
                    "restart_values": rep.restart_values,
                }
            )

    if fmt == "json":
        _emit_json(
            out,
            {
                "command": "optimize",
                "gamma": opts["gamma"],
                "total_time": opts["total_time"],
                "seed": opts["seed"],
                "restarts": opts["restarts"],
                "points": reports,
            },
        )
    else:
        _emit_csv(out, ["n", "method", "improvement_pct", "t_opt", "coeffs", "status"], rows)
    return 0 if any_ok else 3


def _cmd_qfi(opts, out, fmt) -> int:
    if fmt == "csv":
        raise ValueError("qfi reports are json-only; use --format json")
    n, gamma = opts["n"], opts["gamma"]
    if opts["coeffs"] is not None:
        scheme = "symmetric"
        coeffs = [float(c) for c in opts["coeffs"].split(";") if c.strip()]
        psi = symmetric_state(n, coeffs)
    elif opts["scheme"] == "uncorrelated":
        scheme = "uncorrelated"
        psi = product_superposition(n)
    elif opts["scheme"] == "ghz":
        scheme = "ghz"
        psi = ghz(n)
    elif opts["scheme"] == "symmetric":
        raise ValueError("scheme 'symmetric' requires --coeffs")
    else:
        raise ValueError("missing --scheme or --coeffs")
    rho0 = to_density(psi)

    report = {
        "command": "qfi",
        "scheme": scheme,
        "n": n,
        "gamma": gamma,
        "detuning": opts["detuning"],
        "total_time": opts["total_time"],
        "optimize_t": bool(opts["optimize_t"]),
    }

    if opts["optimize_t"]:
        if opts["total_time"] is None:
            raise ValueError("--optimize-t requires --total-time")
        if not gamma > 0.0:
            raise ValueError("--optimize-t requires gamma > 0")

        # zero detuning information is a t-independent property of the
        # preparation; probe once, within the total time, so the failure
        # reads "no-information"
        probe_t = min(0.5 / gamma, opts["total_time"])
        qfi_shot_uncertainty(rho0, probe_t, gamma, opts["total_time"], opts["detuning"])
        t_opt, delta_omega = qfi_shot_optimum(rho0, gamma, opts["total_time"], opts["detuning"])
        t_report = t_opt
        report["t_opt"] = t_opt
    else:
        if opts["t"] is None:
            raise ValueError("missing --t (or pass --optimize-t)")
        t_report = opts["t"]
        report["t"] = opts["t"]
        delta_omega = None

    params = DephasingParams(opts["detuning"], gamma, t_report)
    evolved, drho = _evolve_stack(rho0, params.delta, params.gamma, params.t)
    result = qfi(DensityMatrix._derived(n, evolved), drho)
    if delta_omega is None and opts["total_time"] is not None:
        delta_omega = qfi_uncertainty(result.qfi, opts["total_time"], t_report)
    report["qfi"] = result.qfi
    report["classical_fi_sld"] = result.classical_fi_check
    report["delta_omega"] = delta_omega
    _emit_json(out, report)
    return 0


_DISPATCH = {
    "signal": (_cmd_signal, "csv"),
    "scan": (_cmd_scan, "csv"),
    "optimize": (_cmd_optimize, "csv"),
    "qfi": (_cmd_qfi, "json"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, default_fmt = _DISPATCH[args.command]
    try:
        opts = _merge_options(args)
        fmt = args.format or default_fmt
        return handler(opts, args.out, fmt)
    except ValueError as exc:
        return _fail(2, "invalid-argument", exc)
    except ClocksimError as exc:
        for cls, tag in _ERROR_TAGS:
            if isinstance(exc, cls):
                return _fail(3, tag, exc)
        return _fail(3, "numerical-failure", exc)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
