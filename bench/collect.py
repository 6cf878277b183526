"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 --out summary.json
    python3 bench/collect.py --seeds 0,7919 --out held_out.json

For every workload it makes one untraced run per seed and two traced runs
with the first seed, each of ``run_seconds`` of ``BENCHMARK.json``, then reports each metric's median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, and whether every traced count repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    """Seeds from comma-separated numbers and ranges, as in ``0,3-5``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--trace",
            str(trace),
        ],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = next(json.loads(ln[len("meta: "):]) for ln in lines if ln.startswith("meta: "))
    print(f"{workload} seed {seed} trace {trace}: {json.dumps(result)}", file=sys.stderr)
    return result


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))

    summary = {}
    for workload in spec["workloads"]:
        runs = [bench_once(workload, s, 0) for s in args.seeds]
        summary["meta"] = runs[0]["meta"]
        traced = [bench_once(workload, args.seeds[0], 1) for _ in range(2)]
        counts = [
            {k: v["value"] for k, v in run["metrics"].items() if v["unit"] in ("count", "ratio")}
            for run in traced
        ]
        entry = {
            "seeds": args.seeds,
            "failed": sum(run["failed"] for run in runs + traced),
            "attempted": sum(run["attempted"] for run in runs + traced),
            "untraced": summarize(runs),
            "traced_seed": args.seeds[0],
            "traced": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "traced_counts_repeat": counts[0] == counts[1],
        }
        summary[workload] = entry
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
        for name, stats in entry["untraced"].items():
            print(
                f"{workload} {name}: median {stats['median']:.6g} {stats['unit']}, "
                f"spread {stats['spread']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
