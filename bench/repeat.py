"""Repeat mode: run workloads under ten seeds and summarise each metric.

    python3 bench/repeat.py --workload word_problem rewrite --out bench/out/repeat.json

Each run is one ``bench/run.py --trace 0`` process, with seeds 1 to 10 and
the run length ``run_seconds`` of BENCHMARK.json.  For every metric the
summary gives the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and the spread, the
distance between the quartiles as a share of the median.  A metric's
regression bound in BENCHMARK.json should be at least three times its spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result line and the meta line of one run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return json.loads(lines[-1]), meta


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    for workload in args.workload:
        pairs = [run_once(workload, seed, seconds) for seed in SEEDS]
        runs = [result for result, _ in pairs]
        if not all(r["correct"] for r in runs):
            raise SystemExit(f"{workload}: a run reported wrong results")
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(unit=first["unit"], **summarise(values))
        summary[workload] = {
            "seeds": [SEEDS[0], SEEDS[-1]],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "executions": [meta.get("executions") for _, meta in pairs],
            "metrics": metrics,
            "uncorrected": [meta.get("uncorrected") for _, meta in pairs],
            "spin_ns_median": [meta.get("spin_ns_median") for _, meta in pairs],
        }
        print(f"== {workload}: {len(SEEDS)} runs of {seconds} s")
        for name, s in metrics.items():
            print(f"{name:48s} median {s['median']:>12.6g}  q1 {s['q1']:>12.6g}  "
                  f"q3 {s['q3']:>12.6g}  spread {s['spread']:.3f} {s['unit']}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
