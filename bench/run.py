"""Closed-loop benchmark of the clocksim command line.

Run from the repository root:

    python3 bench/run.py --workload qfi_curve --seed 3 --trace 0

One client drives ``clocksim.cli.main`` in this process: each job of the
workload (see ``spec.json``) starts after the previous one has finished and
writes its report to a temporary file through ``--out``. One pass runs every
job once, on the inputs drawn from ``--seed`` (its ``--seed``, and the
coefficients it draws), so every pass of a run repeats the same work and
must reproduce the first pass's output bytes. Passes repeat while another
one is expected to end within ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``), and there are at least three. Every job goes through
the gate in ``gate.py``; a job that breaks it counts as failed.

``--trace 0`` reports the end-to-end metrics: ``wall_norm``, the time of a
pass in units of a fixed calibration loop timed before and after every job
(each job's time over the mean of the two calibrations around it, its median
over the passes, summed over the jobs), so that the machine's drifting speed
cancels (the pass time in seconds, the same sum of per-job medians, is
printed as ``wall_s``); the median import time of ``clocksim.cli`` in fresh
interpreters (half of them measured before the passes and half after); peak
memory; and the mean improvement over the reference limit. ``--trace 1`` alternates untraced and
traced passes and reports per-layer call counts and self times per pass,
and ratios of the counts. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
if __name__ == "__main__":
    # One BLAS thread, set before numpy loads its BLAS: LAPACK calls on
    # 256x256 matrices ran no slower with it, and more BLAS threads than
    # free cores stall a run (past 175 s) under competing load.
    os.environ.update(dict.fromkeys(BLAS_ENV, "1"))

import numpy as np
import scipy

import gate
from tracer import Tracer, instrumented

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

LAYER_TARGETS = (
    "qstate.symmetric_state",
    "qstate.collective_moments",
    "qstate.to_density",
    "qstate.DensityMatrix",
    "collective.genramsey_opt_uncertainty",
    "evolution.dephase_evolve",
    "evolution.drho_ddelta",
    "fisher.qfi_value",
    "fisher.qfi",
    "fisher.qfi_uncertainty",
    "optimize.minimize_over_t",
    "optimize.optimize_symmetric_coeffs",
    "cli.main",
)
MIN_PASSES = 3
# Spread of the drawn coefficients around the equal-weight profile: small
# enough that every draw beats the reference limit by a similar margin.
COEFF_NOISE = 0.015


def draw_coeffs(seed: int, n: int) -> str:
    """Unit-norm family coefficients near equal weights, drawn from ``seed``."""
    m = n // 2 + 1
    a = np.full(m, 1.0 / np.sqrt(m)) + COEFF_NOISE * np.random.default_rng(seed).normal(size=m)
    return ";".join(repr(float(x)) for x in a / np.linalg.norm(a))


def build_jobs(workload: dict, seed: int) -> dict:
    """Job label -> CLI argv, with the placeholders filled in from ``seed``.

    A workload with ``draws`` k runs its jobs once on each of the k draw
    seeds ``k*seed``, ..., ``k*seed + k - 1``, so that a pass averages over
    as many independent draws.
    """
    draws = workload.get("draws", 1)
    jobs = {}
    for draw in range(draws):
        draw_seed = draws * seed + draw
        for label, template in workload["jobs"].items():
            argv = [arg.replace("{seed}", str(draw_seed)) for arg in template]
            if "{coeffs}" in argv:
                n = int(argv[argv.index("--n") + 1])
                argv[argv.index("{coeffs}")] = draw_coeffs(draw_seed, n)
            jobs[label if draws == 1 else f"{label}_{draw}"] = argv
    return jobs


def run_job(cli, argv: list, out: Path):
    """Run one CLI job; returns (exit code, output bytes)."""
    out.unlink(missing_ok=True)
    try:
        code = cli.main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    data = out.read_bytes() if out.exists() else b""
    return code, data


def run_pass(cli, jobs: dict, tmp: Path, after_job=None):
    """Run every job once, back to back, calling ``after_job`` (untimed)
    after each; returns (seconds per job, outputs)."""
    times, outputs = {}, {}
    for label, argv in jobs.items():
        start = time.perf_counter()
        outputs[label] = run_job(cli, argv, tmp / f"{label}.out")
        times[label] = time.perf_counter() - start
        if after_job:
            after_job()
    return times, outputs


def pass_time(passes: list) -> float:
    """Time of one pass: the sum over jobs of each job's median time.

    A burst of load on the machine slows the one job it falls in, so a
    per-job median drops it where a median of whole passes would not.
    """
    return sum(statistics.median(p[label] for p in passes) for label in passes[0])


def check_pass(jobs: dict, outputs: dict, seen: dict) -> dict:
    """Gate errors per job label for one pass.

    ``seen`` maps each argv already run to its first output; a job whose
    argv is there must reproduce those bytes, and a new one is added. QFI
    rows are compared with the gen-Ramsey rows of the same ``--seed``.
    """
    errors = {label: [] for label in jobs}
    by_draw, owner = {}, {}  # (seed, method) -> rows, and the job that made them
    for label, argv in jobs.items():
        code, data = outputs[label]
        if code != 0:
            errors[label].append(f"exit code {code}")
            continue
        if seen.setdefault(tuple(argv), data) != data:
            errors[label].append("output bytes differ from an earlier pass with the same inputs")
        try:
            if argv[0] == "optimize":
                rows = gate.parse_csv(data)
                errors[label] += gate.check_optimize_rows(rows)
                seed = argv[argv.index("--seed") + 1]
                for row in rows:
                    by_draw.setdefault((seed, row["method"]), []).append(row)
                    owner[seed, row["method"]] = label
            else:
                errors[label] += gate.check_qfi_report(json.loads(data), label)
        except (ValueError, KeyError, TypeError) as exc:
            errors[label].append(f"unreadable output: {exc!r}")
    for (seed, method), rows in by_draw.items():
        if method == "qfi" and (seed, "gen-ramsey") in by_draw:
            errors[owner[seed, method]] += gate.check_curve_pair(
                by_draw[seed, "gen-ramsey"], rows
            )
    return errors


def report_errors(errors: dict) -> int:
    """Print each gate error; returns the number of failed jobs."""
    for label, errs in errors.items():
        for err in errs:
            print(f"gate: {label}: {err}", file=sys.stderr)
    return sum(bool(errs) for errs in errors.values())


def improvement_mean(jobs: dict, outputs: dict) -> float:
    """Mean improvement over every row and report of one pass."""
    values = []
    for label, argv in jobs.items():
        code, data = outputs[label]
        try:
            if argv[0] == "optimize":
                values += [float(r["improvement_pct"]) for r in gate.parse_csv(data)]
            else:
                values.append(gate.qfi_report_improvement(data))
        except (ValueError, KeyError, TypeError):
            continue
    finite = [v for v in values if np.isfinite(v)]
    return statistics.fmean(finite) if finite else 0.0


def measure_setup(count: int) -> list:
    """Import time of clocksim.cli in ``count`` fresh interpreters."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "t = time.perf_counter(); import clocksim.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def metadata(cli) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or sha
    thread_cap = getattr(cli, "thread_cap", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_cap": thread_cap() if thread_cap else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": sha,
    }


def more_passes(walls: list, start: float, seconds: float, minimum: int) -> bool:
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def make_calibration():
    """A fixed loop that times how fast the machine runs at the moment.

    It mixes what the jobs do (interpreted arithmetic, 8x8 and 128x128
    eigendecompositions) and never calls clocksim, so a change to the
    package leaves its time alone and only the machine moves it.
    """
    rng = np.random.default_rng(0)
    small, large = rng.normal(size=(8, 8)), rng.normal(size=(128, 128))
    small, large = small + small.T, large + large.T

    def calibration() -> float:
        start = time.perf_counter()
        x = 0.0
        for i in range(400_000):
            x += (i % 7) * 0.5
        for _ in range(1500):
            x += float(np.exp(-np.linalg.eigh(small)[0]).sum())
        for _ in range(25):
            np.linalg.eigh(large)
        return time.perf_counter() - start

    return calibration


def timed_run(cli, jobs, tmp, seconds):
    """Passes with the calibration loop timed before the first job and after
    each; returns (seconds per job of each pass, the same divided by the mean
    of the two calibrations around the job, calibration seconds, first pass's
    improvement, jobs attempted, jobs failed)."""
    calibration = make_calibration()
    calibrations = [calibration()]
    passes, relative, durations, seen, failed, improvement = [], [], [], {}, 0, None
    start = time.perf_counter()
    while more_passes(durations, start, seconds, MIN_PASSES):
        begin = time.perf_counter()
        around = calibrations[-1:]
        times, outputs = run_pass(cli, jobs, tmp, lambda: around.append(calibration()))
        durations.append(time.perf_counter() - begin)
        calibrations += around[1:]
        passes.append(times)
        relative.append(
            {
                label: t / (0.5 * (around[i] + around[i + 1]))
                for i, (label, t) in enumerate(times.items())
            }
        )
        if improvement is None:
            improvement = improvement_mean(jobs, outputs)
        failed += report_errors(check_pass(jobs, outputs, seen))
    return passes, relative, calibrations, improvement, len(passes) * len(jobs), failed


def traced_run(cli, jobs, tmp, seconds):
    plain, traced, tables, seen = [], [], [], {}
    failed, attempted = 0, 0
    start = time.perf_counter()
    while more_passes([a + b for a, b in zip(plain, traced)], start, seconds, 1):
        times, outputs = run_pass(cli, jobs, tmp)
        plain.append(sum(times.values()))
        failed += report_errors(check_pass(jobs, outputs, seen))
        tracer = Tracer()
        with instrumented(tracer, "clocksim", LAYER_TARGETS) as missing:
            if missing:
                print(f"trace: not found, counted as zero: {missing}", file=sys.stderr)
            times, outputs = run_pass(cli, jobs, tmp)
        traced.append(sum(times.values()))
        tables.append(tracer.totals())
        failed += report_errors(check_pass(jobs, outputs, seen))
        attempted += 2 * len(jobs)
    return plain, traced, tables, attempted, failed


def layer_metrics(plain, traced, tables) -> dict:
    """Counts of the first traced pass, median self times over traced
    passes, count ratios, and the median slowdown of traced passes."""
    calls = {t: tables[0].get(t, (0, 0.0))[0] for t in LAYER_TARGETS}
    metrics = {}
    for target in LAYER_TARGETS:
        metrics[f"{target}.calls"] = (calls[target], "count")
        self_s = statistics.median(tab.get(target, (0, 0.0))[1] for tab in tables)
        metrics[f"{target}.self_s"] = (self_s, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    # a probe is one Fisher-information evaluation of an evolved state
    probes = calls["fisher.qfi_value"] + calls["fisher.qfi"]
    metrics["optimize.probes_per_candidate"] = (
        ratio(calls["fisher.qfi_value"], calls["optimize.minimize_over_t"]),
        "ratio",
    )
    metrics["evolution.evolves_per_probe"] = (
        ratio(calls["evolution.dephase_evolve"], probes),
        "ratio",
    )
    metrics["qstate.validations_per_probe"] = (
        ratio(calls["qstate.DensityMatrix"], probes),
        "ratio",
    )
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def rounded(values: list) -> list:
    return [round(v, 3) for v in values]


def parse_args(argv, spec, declared):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec, declared)
    if not (SRC / "clocksim" / "__init__.py").is_file():
        print(f"bench: no clocksim package under {SRC}", file=sys.stderr)
        return 2
    # Serial restarts: the restart pool's threads share the GIL, and on a
    # shared host its pass times spread with the scheduler's, not the code's.
    os.environ["CLOCKSIM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    from clocksim import cli

    workload = spec["workloads"][args.workload]
    jobs = build_jobs(workload, args.seed)
    print(f"meta: {json.dumps({**metadata(cli), 'seconds': args.seconds})}")

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmpdir:
        tmp = Path(tmpdir)
        if args.trace:
            plain, traced, tables, attempted, failed = traced_run(cli, jobs, tmp, args.seconds)
            metrics = layer_metrics(plain, traced, tables)
            print(f"passes: untraced {rounded(plain)}, traced {rounded(traced)}")
        else:
            half = spec["setup_imports"] // 2
            setup = measure_setup(half)
            for argv in workload["warmup"]:
                run_job(cli, argv, tmp / "warmup.out")
            passes, relative, calibrations, improvement, attempted, failed = timed_run(
                cli, jobs, tmp, args.seconds
            )
            setup += measure_setup(spec["setup_imports"] - half)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            wall, calibration = pass_time(passes), statistics.median(calibrations)
            metrics = {
                "wall_norm": (pass_time(relative), "ratio"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
                "improvement_pct_mean": (improvement, "%"),
            }
            for label in jobs:
                print(f"job {label}: {rounded([p[label] for p in passes])}")
            print(f"calibrations: {rounded(calibrations)}; imports: {rounded(setup)}")
            print(f"wall_s = {wall:.6g} s; calibration_s = {calibration:.6g} s")

    print(f"failed_frac = {failed / attempted:g} fraction ({failed} of {attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
