"""Rebuild ``corpus.json``, the graded inputs of the ``ladder`` and ``tables`` workloads.

    python3 perfbench/corpus.py

run from the repository root.  It scans ``random_presentation(seed, n,
{a, b}, 0.25)`` for n in 4..7 and seeds 0..9999 and sizes each syntactic
semigroup with the checkers' own closure.  For each rung it takes the
inputs whose |S| is nearest the rung's target, runs each through the
workload's operations (best of ``repeats``, in probe-scaled milliseconds),
drops any whose command exits non-zero or prints output the checkers
refuse, and keeps the ones whose every operation time (ladder) or output
size (tables) is nearest the rung's typical one.  A workload seed then draws from these, so whichever
it draws, a round does about the same work.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import run  # noqa: E402
import source  # noqa: E402

GENERATOR = {"alphabet": ["a", "b"], "density": 0.25, "vertices": [4, 5, 6, 7], "seeds": 10_000}
SIZE_CAP = 2_500

# Per workload: (target |S|, share of the target an input may miss by) for
# each rung; inputs per rung in a round; inputs timed and kept per rung;
# what the kept inputs are matched on: their operation times, or the sizes
# of their outputs (a table's size sets the work of filling and printing
# it and the peak memory, and unlike a time it does not vary between builds).
# The ladder's rungs grow geometrically, one input each, so that operation
# times spread evenly and no percentile falls in a gap between rungs.
PLANS = {
    "ladder": {
        "rungs": [(round(11 * 20 ** (k / 23)), 0.08) for k in range(24)],
        "take": 1, "timed": 8, "kept": 4, "repeats": 3, "ops": run.ladder_ops, "match": "ms",
    },
    "tables": {
        "rungs": [(600, 0.04), (800, 0.04), (1000, 0.04), (1300, 0.04), (1600, 0.04), (2000, 0.04)],
        "take": 1, "timed": 8, "kept": 4, "repeats": 1, "ops": run.tables_ops, "match": "bytes",
    },
}


def scan(pkg) -> list[dict]:
    flowlab, shift = pkg["flowlab"], pkg["shift"]
    alphabet = shift.Alphabet(tuple(GENERATOR["alphabet"]))
    found = []
    for n in GENERATOR["vertices"]:
        for seed in range(GENERATOR["seeds"]):
            p = flowlab.random_presentation(seed, n, alphabet, GENERATOR["density"])
            graph = checkers.Graph(shift.render_presentation(p))
            if graph.unused_letters() or graph.is_full_shift():
                continue
            try:
                order = checkers.Semigroup(graph, SIZE_CAP).size
            except OverflowError:
                continue
            found.append({"seed": seed, "vertices": n, "order": order})
    return found


def profile(pkg, plan: dict, entry: dict, work: Path, speed: run.Speed) -> list[float] | None:
    """Best probe-scaled time in ms of each of the input's operations, then
    the length of each one's output; None when one of them fails."""
    ops = plan["ops"](pkg, *run.write_input(pkg, GENERATOR, entry, work))
    costs, sizes = [], []
    for op in ops:
        runs = []
        for _ in range(plan["repeats"]):
            speed.probe()
            start = perf_counter()
            result = op.call()
            runs.append((start, perf_counter() - start))
            speed.probe()
        if op.check(result):
            return None
        costs.append(round(1000 * min(speed.scaled(*r) for r in runs), 3))
        sizes.append(len(result[1]))
    return costs + sizes


def most_typical(measured: list[dict], keep: int, match: str) -> list[dict]:
    """The inputs whose every operation time (``match == "ms"``) or output
    size (``"bytes"``) is nearest the median over the measured inputs."""
    half = len(measured[0]["profile"]) // 2
    dims = range(half) if match == "ms" else range(half, 2 * half)
    typical = {k: statistics.median(e["profile"][k] for e in measured) for k in dims}

    def strays(e: dict) -> float:
        return max(abs(math.log(e["profile"][k] / typical[k])) for k in dims)

    return sorted(measured, key=strays)[:keep]


def build(root: Path) -> dict:
    pkg = source.fresh_import(root)
    found = scan(pkg)
    speed = run.Speed()
    corpus = {"generator": GENERATOR}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name, plan in PLANS.items():
            corpus[name] = []
            for target, slack in plan["rungs"]:
                near = [e for e in found if abs(e["order"] - target) <= slack * target]
                near.sort(key=lambda e: (abs(e["order"] - target), e["vertices"], e["seed"]))
                measured = []
                for entry in near:
                    entry = dict(entry, profile=profile(pkg, plan, entry, Path(tmp), speed))
                    if entry["profile"] is not None:
                        measured.append(entry)
                    if len(measured) == plan["timed"]:
                        break
                kept = most_typical(measured, plan["kept"], plan["match"])
                if len(kept) < max(plan["take"], 2):
                    raise SystemExit(f"{name} rung {target}: only {len(kept)} inputs")
                corpus[name].append({"target": target, "take": plan["take"], "inputs": kept})
    return corpus


def main() -> None:
    corpus = build(Path.cwd())
    (HERE / "corpus.json").write_text(json.dumps(corpus, indent=1) + "\n")
    for name in PLANS:
        for rung in corpus[name]:
            orders = [e["order"] for e in rung["inputs"]]
            totals = [sum(e["profile"][: len(e["profile"]) // 2]) for e in rung["inputs"]]
            print(f"{name} |S|~{rung['target']}: {len(orders)} inputs, |S| {min(orders)}..{max(orders)},"
                  f" {min(totals):.0f}..{max(totals):.0f} ms per input")


if __name__ == "__main__":
    main()
