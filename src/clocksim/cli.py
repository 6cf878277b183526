"""Command-line interface: signals, shot-time scans, coefficient
optimization, and Fisher-information queries, with CSV or JSON output.

Units are the user's: only the products gamma*t, gamma*T, and delta*t enter
any formula, so gamma and the times must simply share inverse/direct units.
Exit codes: 0 success, 2 argument/validation error, 3 numerical or
optimization failure. On exit 2 no output file is created.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .evolution import _check_block_qubits
from .exceptions import (
    BracketingError,
    ClocksimError,
    DegenerateStateError,
    NoInformationError,
    SingularOutcomeError,
    SingularPointError,
)
from .fisher import _sld_fisher, family_qfi, qfi_uncertainty
from .optimize import (
    ION_RANGE,
    METHODS,
    _shot_optimum,
    fig3_scan,
    improvement_sweep,
)
from .qstate import SymmetricFamilyState, _check_qubit_count, _check_scalar, uniform_coefficients
from .ramsey import signal_ghz, signal_uncorrelated

CONVENTION_NOTE = (
    "single-qubit coherences decay as exp(-gamma*t) with gamma = 1/tau_dec; "
    "only the products gamma*t, gamma*T and delta*t are physically meaningful"
)
SCHEMA_VERSION = 3

_ERROR_TAGS = (
    (NoInformationError, "no-information"),
    (SingularPointError, "singular-point"),
    (SingularOutcomeError, "singular-outcome"),
    (DegenerateStateError, "degenerate-state"),
    (BracketingError, "optimization-failure"),
    (ClocksimError, "numerical-failure"),
)


class _Option(NamedTuple):
    convert: type
    required: bool = False
    default: object = None
    choices: tuple | None = None
    help: str | None = None


# dest -> option, for each subcommand. The parser is generated from these
# tables, and config-file values are merged under them, then flags override;
# a config key outside its subcommand's table is an error.
_OPTION_TABLES = {
    "signal": {
        "scheme": _Option(str, default="uncorrelated", choices=("uncorrelated", "ghz")),
        "n": _Option(int, required=True),
        "gamma": _Option(float, default=0.0),
        "detuning": _Option(float, default=0.0),
        "t": _Option(float, required=True),
    },
    "scan": {
        "n": _Option(int, required=True),
        "gamma": _Option(float, required=True),
        "total_time": _Option(float, required=True),
        "t_min": _Option(float, default=0.02),
        "t_max": _Option(float, default=2.0),
        "t_steps": _Option(int, default=256),
    },
    "optimize": {
        "n_min": _Option(int, required=True),
        "n_max": _Option(int, required=True),
        "method": _Option(str, default="both", choices=(*METHODS, "both")),
        "seed": _Option(int, default=0, help="accepted and ignored: both searches are deterministic"),
        "restarts": _Option(int, default=16, help="accepted and ignored: no search restarts"),
        "gamma": _Option(float, default=1.0),
        "total_time": _Option(float, default=100.0),
    },
    "qfi": {
        "scheme": _Option(str, choices=("uncorrelated", "ghz", "symmetric")),
        "coeffs": _Option(str, help="semicolon-separated family coefficients"),
        "n": _Option(int, required=True),
        "gamma": _Option(float, required=True),
        "t": _Option(float),
        "optimize_t": _Option(bool, default=False),
        "total_time": _Option(float),
    },
}

_COMMAND_HELP = {
    "signal": "evaluate a Ramsey signal at one point",
    "scan": "uncertainty versus shot time for both basic schemes",
    "optimize": "optimize symmetric-family coefficients over a sweep of n",
    "qfi": "quantum Fisher information report for one preparation",
}


def _fail(code: int, tag: str, message) -> int:
    print(f"clocksim: {tag}: {message}", file=sys.stderr)
    return code


def _warn(message) -> None:
    print(f"clocksim: warning: {message}", file=sys.stderr)


# parse_args keeps no state between calls, so one parser serves every main call
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clocksim",
        description="Frequency-measurement precision under dephasing: signals, scans, "
        "coefficient optimization, and Fisher-information bounds.",
    )
    parser.add_argument("--version", action="version", version=f"clocksim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, table in _OPTION_TABLES.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        for dest, opt in table.items():
            flag = "--" + dest.replace("_", "-")
            if opt.convert is bool:
                p.add_argument(flag, action="store_true", default=None, dest=dest, help=opt.help)
            else:
                p.add_argument(
                    flag, type=opt.convert, choices=opt.choices, dest=dest, help=opt.help
                )
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--config", help="flat key=value file; flags override it")
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
    for key in file_values:
        if key not in table:
            raise ValueError(f"config key {key}: no such option of {args.command}")
    merged = {}
    for dest, opt in table.items():
        value = getattr(args, dest, None)
        if value is None and dest in file_values:
            raw = file_values[dest]
            if opt.convert is bool:
                if raw.lower() not in _BOOL_STRINGS:
                    raise ValueError(f"config key {dest}: expected a boolean, got {raw!r}")
                value = _BOOL_STRINGS[raw.lower()]
            else:
                try:
                    value = opt.convert(raw)
                except ValueError:
                    raise ValueError(f"config key {dest}: cannot parse {raw!r}") from None
            if opt.choices is not None and value not in opt.choices:
                raise ValueError(
                    f"config key {dest}: invalid choice {raw!r} "
                    f"(choose from {', '.join(opt.choices)})"
                )
        if value is None:
            if opt.required:
                raise ValueError(f"missing --{dest.replace('_', '-')}")
            value = opt.default
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
        _check_qubit_count(opts["n"])  # the signal of one ion does not take n
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
    t_min = _check_scalar("--t-min", opts["t_min"], 0, strict=True)
    _check_scalar("--t-max", opts["t_max"], t_min, bound_name="--t-min")
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
    methods = METHODS if opts["method"] == "both" else (opts["method"],)
    lo, hi = max(ION_RANGE[m][0] for m in methods), min(ION_RANGE[m][1] for m in methods)
    if not lo <= n_min <= n_max <= hi:
        raise ValueError(f"need {lo} <= n-min <= n-max <= {hi}, got {n_min}..{n_max}")

    rows, reports = [], []
    sweep = improvement_sweep(range(n_min, n_max + 1), opts["gamma"], opts["total_time"], methods)
    for n, outcomes in sweep:
        for rep in outcomes.values():
            coeffs = ";".join(_fmt(c) for c in rep.best_coeffs)
            rows.append([n, rep.method, rep.improvement_pct, rep.t_opt, coeffs, rep.status])
            reports.append(
                {
                    "n": n,
                    "method": rep.method,
                    "status": rep.status,
                    "improvement_pct": rep.improvement_pct,
                    "delta_omega": rep.delta_omega,
                    "t_opt": rep.t_opt,
                    "coeffs": rep.best_coeffs,
                }
            )

    if fmt == "json":
        _emit_json(
            out,
            {
                "command": "optimize",
                "gamma": opts["gamma"],
                "total_time": opts["total_time"],
                "points": reports,
            },
        )
    else:
        _emit_csv(out, ["n", "method", "improvement_pct", "t_opt", "coeffs", "status"], rows)
    return 0


def _cmd_qfi(opts, out, fmt) -> int:
    if fmt == "csv":
        raise ValueError("qfi reports are json-only; use --format json")
    n, gamma = opts["n"], opts["gamma"]
    _check_block_qubits(n)
    # every preparation is a family state: GHZ is e_0, the product state uniform
    if opts["coeffs"] is not None:
        if opts["scheme"] not in (None, "symmetric"):
            raise ValueError(f"--coeffs conflicts with --scheme {opts['scheme']}")
        scheme = "symmetric"
        coeffs = [float(c) for c in opts["coeffs"].split(";") if c.strip()]
    elif opts["scheme"] == "uncorrelated":
        scheme = "uncorrelated"
        coeffs = uniform_coefficients(n)
    elif opts["scheme"] == "ghz":
        scheme = "ghz"
        coeffs = np.eye(1, n // 2 + 1)[0]
    elif opts["scheme"] == "symmetric":
        raise ValueError("scheme 'symmetric' requires --coeffs")
    else:
        raise ValueError("missing --scheme or --coeffs")
    state = SymmetricFamilyState(n, coeffs)

    report = {
        "command": "qfi",
        "scheme": scheme,
        "n": n,
        "gamma": gamma,
        "total_time": opts["total_time"],
        "optimize_t": bool(opts["optimize_t"]),
    }

    if opts["optimize_t"]:
        if opts["t"] is not None:
            raise ValueError("--t conflicts with --optimize-t")
        if opts["total_time"] is None:
            raise ValueError("--optimize-t requires --total-time")
        t_opt, delta_omega, (fq, measurement) = _shot_optimum(state, gamma, opts["total_time"])
        report["t_opt"] = t_opt
        # the probe at t_opt formed the blocks and SLD the report measures
        fq, cfi = float(fq), float(_sld_fisher(*measurement))
    else:
        if opts["t"] is None:
            raise ValueError("missing --t (or pass --optimize-t)")
        report["t"] = opts["t"]
        fq, cfi = family_qfi(state, gamma, opts["t"])
        delta_omega = None
        if opts["total_time"] is not None:
            delta_omega = qfi_uncertainty(fq, opts["total_time"], opts["t"])
    report["qfi"] = fq
    report["classical_fi_sld"] = cfi
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


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
