"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload ladder --seeds 0-9 [--seconds 30] [--trace 0]

run from the repository root.  Runs go one after another, never side by
side.  Each run's JSON result is appended to
``.perfbench_results/<workload>-trace<T>.jsonl``; the summary gives, per
metric, the median and the spread: the distance between the first and the
third quartile (``statistics.quantiles(values, n=4)``) over the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RESULTS = Path(".perfbench_results")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    RESULTS.mkdir(exist_ok=True)
    log = RESULTS / f"{args.workload}-trace{args.trace}.jsonl"
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        began = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        wall = time.perf_counter() - began
        result = json.loads(done.stdout.splitlines()[-1])
        with log.open("a") as out:
            out.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed} ({wall:.0f} s): attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}, "
              + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) < 2:
        return 0
    for name, series in values.items():
        middle = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / middle if middle else float("nan")
        print(f"{name:28s} median {middle:.4g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
