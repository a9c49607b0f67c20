"""Benchmark of soficlab: seeded workloads run in process, every output checked.

    python3 perfbench/run.py --workload moves --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports soficlab from ``src`` there
and exits 2 when there is none.  One process, one thread, one client in a
closed loop: each operation starts when the one before it has been
checked.  The run repeats whole rounds of the workload's fixed list of
operations until the operations have been busy for ``--seconds``.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import source  # noqa: E402
import spans  # noqa: E402

SETUP_REPS = 11
WORK = Path(".perfbench_work")

# The speed probe: a fixed loop, run before an operation when the last run
# of it is more than PROBE_EVERY_S old; a duration is scaled by the probe
# runs within PROBE_WINDOW_S of it.  PROBE_NOMINAL_S is about the loop's
# time on an idle core of the machine the reference figures come from.
PROBE_LOOPS = 30_000
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.5
PROBE_NOMINAL_S = 0.002

# moves: per round, proper inputs drawn from the seeded stream in fixed
# numbers per band of |S| (stratified, so every seed does about the same
# work), then fixed inputs on which the known full-shift / unused-letter
# fault shows.  Inputs with |S| above the last band are skipped: they are
# the heavy tail that belongs to the ladder, and some of them trip the
# envelope's arrow cap.
MOVES_BANDS = ((5, 100), (7, 45), (11, 48), (16, 12), (24, 35))  # (largest |S|, inputs per round)
MOVES_FIXED = {"full": 12, "unused": 4}
MOVES_DENSITY = 0.3

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics, each per operation: (name, unit, span or counter).
PER_LAYER = [
    ("shift.load_ms", "ms", "shift.load"),
    ("shift.move_ms", "ms", "shift.move"),
    ("shift.move_vertices", "count", "shift.move_vertices"),
    ("semigroups.dfa_ms", "ms", "semigroups.dfa"),
    ("semigroups.dfa_states", "count", "semigroups.dfa_states"),
    ("semigroups.closure_ms", "ms", "semigroups.closure"),
    ("semigroups.elements", "count", "semigroups.elements"),
    ("semigroups.table_cells", "count", "semigroups.table_cells"),
    ("semigroups.green_ms", "ms", "semigroups.green"),
    ("semigroups.aperiodic_ms", "ms", "semigroups.aperiodic"),
    ("semigroups.render_ms", "ms", "semigroups.render"),
    ("karoubi.envelope_ms", "ms", "karoubi.envelope"),
    ("karoubi.envelope_scanned", "count", "karoubi.envelope_scanned"),
    ("karoubi.envelope_arrows", "count", "karoubi.envelope_arrows"),
    ("karoubi.skeleton_ms", "ms", "karoubi.skeleton"),
    ("karoubi.skeleton_objects", "count", "karoubi.skeleton_objects"),
    ("karoubi.skeleton_arrows", "count", "karoubi.skeleton_arrows"),
    ("karoubi.arrow_yield", "ratio", None),
    ("karoubi.iso_ms", "ms", "karoubi.iso"),
    ("karoubi.dump_ms", "ms", "karoubi.dump"),
    ("flowlab.compare_ms", "ms", "flowlab.compare"),
    ("flowlab.report_ms", "ms", "flowlab.report"),
    ("flowlab.invariance_ms", "ms", "flowlab.invariance"),
    ("cli.self_ms", "ms", "cli.self"),
    ("cli.stdout_bytes", "count", "cli.stdout_bytes"),
    ("trace.ops_per_s", "1/s", None),
]


class Op:
    """One operation: a call that reads its input afresh, and its checker."""

    def __init__(self, label: str, call, check, may_fail: bool = False):
        self.label = label
        self.call = call
        self.check = check
        self.may_fail = may_fail


class Raised(str):
    """What an operation that raised returns in place of a result."""


class Sink:
    """Collects what a command writes, without copying it."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def cli_op(pkg: dict, argv: list, check) -> Op:
    argv = [str(a) for a in argv]

    def call():
        out, err = Sink(), Sink()
        code = pkg["cli"].main(argv, out, err)
        return code, "".join(out.parts), "".join(err.parts)

    def verdict(result) -> list[str]:
        code, text, err = result
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        return check(text)

    return Op(" ".join(argv), call, verdict)


# --------------------------------------------------------------------------
# Workloads: each writes its inputs under ``work`` and returns one round.


def moves_stream(pkg: dict, draws):
    """Unfiltered random_presentation inputs, classified by the checkers."""
    shift, flowlab = pkg["shift"], pkg["flowlab"]
    alphabet = shift.Alphabet(("a", "b"))
    for s in draws:
        p = flowlab.random_presentation(s, 2 + s % 3, alphabet, MOVES_DENSITY)
        text = shift.render_presentation(p)
        graph = checkers.Graph(text)
        if graph.unused_letters():
            kind = "unused"
        elif graph.is_full_shift():
            kind = "full"
        else:
            kind = proper_band(graph)
        yield kind, s, text


def proper_band(graph: checkers.Graph) -> str:
    try:
        size = checkers.Semigroup(graph, MOVES_BANDS[-1][0]).size
    except OverflowError:
        return "too large"
    return next(f"|S|<={top}" for top, _ in MOVES_BANDS if size <= top)


def take_kind(stream, quotas: dict) -> list:
    wanted = dict(quotas)
    picked = []
    for kind, s, text in stream:
        if wanted.get(kind, 0) > 0:
            wanted[kind] -= 1
            picked.append((kind, s, text))
            if not any(wanted.values()):
                return picked
    raise AssertionError("stream ended")


def moves(pkg: dict, seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    seeded = take_kind(moves_stream(pkg, (rng.randrange(2**31) for _ in itertools.count())),
                       {f"|S|<={top}": count for top, count in MOVES_BANDS})
    fixed = take_kind(moves_stream(pkg, itertools.count()), MOVES_FIXED)
    flowlab, shift = pkg["flowlab"], pkg["shift"]
    all_moves = (flowlab.SymbolExpand("a"), flowlab.SymbolExpand("b"), flowlab.HigherBlock(2))
    ops = []
    for kind, s, text in seeded + fixed:
        path = work / f"{s}.shift"
        path.write_text(text)
        for move in all_moves:
            def call(path=path, move=move):
                p = shift.load_presentation(path.read_text())
                return flowlab.expansion_invariance_check(p, [move])

            ops.append(Op(f"{move} on {path.name}", call,
                          lambda ok: [] if ok is True else [f"check returned {ok!r}"],
                          may_fail=kind in MOVES_FIXED))
    return ops


def corpus_inputs(pkg: dict, name: str, seed: int, work: Path) -> list[tuple[Path, str, object]]:
    corpus = json.loads((HERE / "corpus.json").read_text())
    rng = random.Random(seed)
    picked = []
    for rung in corpus[name]:
        for entry in rng.sample(rung["inputs"], rung["take"]):
            picked.append(write_input(pkg, corpus["generator"], entry, work))
    return picked


def write_input(pkg: dict, generator: dict, entry: dict, work: Path) -> tuple[Path, str, object]:
    shift = pkg["shift"]
    p = pkg["flowlab"].random_presentation(
        entry["seed"], entry["vertices"], shift.Alphabet(tuple(generator["alphabet"])),
        generator["density"])
    path = work / f"{entry['vertices']}-{entry['seed']}.shift"
    text = shift.render_presentation(p)
    path.write_text(text)
    return path, text, p


def ladder_ops(pkg: dict, path: Path, text: str, p) -> list[Op]:
    """inspect and karoubi on the input, and compare against two flow moves of it."""
    shift = pkg["shift"]
    graph = checkers.Graph(text)
    expanded = path.with_suffix(".expand-a")
    expanded.write_text(shift.render_presentation(shift.symbol_expansion(p, "a")))
    recoded = path.with_suffix(".hblock-2")
    recoded.write_text(shift.render_presentation(shift.higher_block(p, 2)))
    rng = random.Random(path.name)
    return [
        cli_op(pkg, ["inspect", path], lambda t: checkers.check_report(t, graph)),
        cli_op(pkg, ["karoubi", path], lambda t: checkers.check_dump(t, graph, rng)),
        cli_op(pkg, ["compare", path, expanded], checkers.check_related_pair),
        cli_op(pkg, ["compare", path, recoded], checkers.check_related_pair),
    ]


def tables_ops(pkg: dict, path: Path, text: str, p) -> list[Op]:
    """syntactic and starfree on the input."""
    graph = checkers.Graph(text)
    rng = random.Random(path.name)
    return [
        cli_op(pkg, ["syntactic", path], lambda t: checkers.check_table(t, graph, rng)),
        cli_op(pkg, ["starfree", path], lambda t: checkers.check_starfree(t, graph)),
    ]


def ladder(pkg: dict, seed: int, work: Path) -> list[Op]:
    return [op for made in corpus_inputs(pkg, "ladder", seed, work)
            for op in ladder_ops(pkg, *made)]


def tables(pkg: dict, seed: int, work: Path) -> list[Op]:
    return [op for made in corpus_inputs(pkg, "tables", seed, work)
            for op in tables_ops(pkg, *made)]


WORKLOADS = {"moves": moves, "ladder": ladder, "tables": tables}


# --------------------------------------------------------------------------


class Speed:
    """The machine's speed over a run, sampled by a fixed pure-Python probe.

    On a shared machine the same operation's wall time drifts by tens of
    percent from one minute to the next, as neighbours load the cores.  A
    duration is divided by the probe's median time around it and multiplied
    by PROBE_NOMINAL_S, so it reads as milliseconds on a machine where the
    probe takes PROBE_NOMINAL_S.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        self.at.append(start)
        self.took.append(perf_counter() - start)

    def probe_if_due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] > PROBE_EVERY_S:
            self.probe()

    def scaled(self, start: float, took: float) -> float:
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, start + took + PROBE_WINDOW_S)
        near = self.took[max(lo - 1, 0): hi + 1]
        return took * PROBE_NOMINAL_S / statistics.median(near)

    def typical(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.took)


def set_up(name: str, seed: int, root: Path, speed: Speed):
    """Import the package, generate the inputs and write them; SETUP_REPS times."""
    took = []
    for _ in range(SETUP_REPS):
        speed.probe()
        start = perf_counter()
        pkg = source.fresh_import(root)
        work = root / WORK / f"{name}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = WORKLOADS[name](pkg, seed, work)
        took.append((start, perf_counter() - start))
    speed.probe()
    return pkg, ops, work, statistics.median(speed.scaled(*t) for t in took)


def run_rounds(name: str, ops: list[Op], seconds: float, speed: Speed, tracer):
    """Whole rounds until the operations have been busy for ``seconds``.

    Returns (start, wall time) of each run of each operation, one list per
    position in the round, the busy time, the failed count and the
    unexpected failures.
    """
    samples: list[list[tuple[float, float]]] = [[] for _ in ops]
    failed = 0
    unexpected: list[str] = []
    first: dict[int, tuple[int, list[str]]] = {}
    busy = 0.0
    while not samples[-1] or busy < seconds:
        for i, op in enumerate(ops):
            speed.probe_if_due()
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # the operation failed; the run goes on
                result = Raised(repr(exc))
            took = perf_counter() - start
            samples[i].append((start, took))
            busy += took
            if tracer is not None and isinstance(result, tuple):
                tracer.counts["cli.stdout_bytes"] += len(result[1])
            # Outputs are deterministic: check each one fully the first time,
            # and later only that it is the same as the output checked then.
            fingerprint = hash(result)
            if i not in first:
                problems = [str(result)] if isinstance(result, Raised) else op.check(result)
                first[i] = (fingerprint, problems)
            if first[i][0] != fingerprint:
                problems = ["output differs from the one checked in the first round"]
            else:
                problems = first[i][1]
            if problems:
                failed += 1
                if not op.may_fail:
                    unexpected.append(f"{op.label}: {problems[0]}")
                    if name == "moves":
                        raise SystemExit(f"unexpected failure: {unexpected[-1]}")
    speed.probe()
    return samples, busy, failed, unexpected


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soficlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    speed = Speed()
    try:
        pkg, ops, work, setup_s = set_up(args.workload, args.seed, root, speed)
    except source.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(pkg)
    try:
        samples, busy, failed, unexpected = run_rounds(
            args.workload, ops, args.seconds, speed, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    for line in unexpected[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    attempted = sum(map(len, samples))
    print(f"perfbench: {args.workload} seed {args.seed}: {attempted // len(ops)} rounds of "
          f"{len(ops)} operations, {busy:.2f} s busy, probe median "
          f"{statistics.median(speed.took) * 1000:.3f} ms", file=sys.stderr)
    # Each operation counts with its fastest scaled time over the rounds:
    # the program is deterministic, so what varies between rounds is the
    # machine, and its noise only ever adds time.
    best = [min(speed.scaled(*run) for run in runs) for runs in samples]
    if tracer is None:
        decile = statistics.quantiles(best, n=10)
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(ops) / sum(best),
            "op_p50_ms": decile[4] * 1000,
            "op_p90_ms": decile[8] * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    else:
        if tracer.absent:
            print("perfbench: absent from the package, reported as 0: "
                  + ", ".join(tracer.absent), file=sys.stderr)
        ms = 1000 * speed.typical()
        per_op = {}
        for name, unit, key in PER_LAYER:
            if key is not None:
                total = tracer.self_s.get(key, 0.0) * ms if unit == "ms" else tracer.counts.get(key, 0)
                per_op[name] = total / attempted
        arrows = tracer.counts.get("karoubi.envelope_arrows", 0)
        per_op["karoubi.arrow_yield"] = (
            tracer.counts.get("karoubi.skeleton_arrows", 0) / arrows if arrows else 0.0)
        per_op["trace.ops_per_s"] = len(ops) / sum(best)
        metrics = {name: metric(per_op[name], unit) for name, unit, _ in PER_LAYER}
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
