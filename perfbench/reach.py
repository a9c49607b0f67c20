"""Reference figure, not a gated metric: the largest |S| that ``compare``
handles in about one second, against its own symbol expansion.

    python3 perfbench/reach.py

run from the repository root.  For each target |S| it takes the corpus
generator's input nearest the target, writes it and its ``a``-expansion,
and times ``soficlab compare`` on the pair in process (best of three, wall
clock and probe-scaled).  It stops after the first input that needs more
than STOP_S.  A graded ladder moves this figure in steps, which is why it
is reported here rather than gated.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import source  # noqa: E402

TARGETS = [100, 125, 150, 175, 200, 225, 250, 275, 300, 325, 350, 400]
LIMIT_S = 1.0
STOP_S = 5.0


def main() -> None:
    root = Path.cwd()
    pkg = source.fresh_import(root)
    found = corpus.scan(pkg)
    speed = run.Speed()
    reached = None
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for target in TARGETS:
            entry = min(found, key=lambda e: (abs(e["order"] - target), e["vertices"], e["seed"]))
            path, text, p = run.write_input(pkg, corpus.GENERATOR, entry, Path(tmp))
            expanded = path.with_suffix(".expand-a")
            expanded.write_text(pkg["shift"].render_presentation(pkg["shift"].symbol_expansion(p, "a")))
            op = run.cli_op(pkg, ["compare", path, expanded], checkers.check_related_pair)
            runs = []
            for _ in range(3):
                speed.probe()
                start = perf_counter()
                result = op.call()
                runs.append((start, perf_counter() - start))
                speed.probe()
            problems = op.check(result)
            wall = min(t for _, t in runs)
            scaled = min(speed.scaled(*r) for r in runs)
            print(f"|S| {entry['order']:4d} (seed {entry['seed']}, {entry['vertices']} vertices): "
                  f"{wall:.3f} s wall, {scaled:.3f} s scaled"
                  + (f", FAILED {problems[0]}" if problems else ""), flush=True)
            if not problems and scaled <= LIMIT_S:
                reached = entry["order"]
            if problems or wall > STOP_S:
                break
    print(f"largest |S| compared with its expansion in at most {LIMIT_S:g} s (scaled): {reached}")


if __name__ == "__main__":
    main()
