"""Each checker accepts the program's real output and refuses a corrupted copy.

    python3 -m unittest perfbench/test_checkers.py

run from the repository root (the package is imported from ``src``).
"""

from __future__ import annotations

import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import run  # noqa: E402
import source  # noqa: E402

PKG = source.fresh_import(HERE.parent)
# |S| = 14, four vertices, both letters used, not the full shift.
SAMPLE = PKG["shift"].render_presentation(
    PKG["flowlab"].random_presentation(42, 4, PKG["shift"].Alphabet(("a", "b")), 0.25))


def command_output(command: str, text: str = SAMPLE) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.shift"
        path.write_text(text)
        out = io.StringIO()
        code = PKG["cli"].main([command, str(path)], out, io.StringIO())
    assert code == 0, command
    return out.getvalue()


class TableChecker(unittest.TestCase):
    def setUp(self):
        self.graph = checkers.Graph(SAMPLE)
        self.text = command_output("syntactic")
        self.names, self.rows = checkers.parse_table(self.text)

    def check(self, text):
        return checkers.check_table(text, self.graph, random.Random(1))

    def render(self, names, rows):
        lines = ["elements " + " ".join(names)]
        lines += [" ".join(names[k] for k in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_accepts_real_output(self):
        self.assertEqual(self.check(self.text), [])

    def test_refuses_a_wrong_generator_product(self):
        # witness(x) + "a" names another element: the product x*a is what
        # multiplies that witness out through the generator rows.
        index = {name: k for k, name in enumerate(self.names)}
        x, y = next((index[n[:-1]], index[n]) for n in self.names
                    if len(n) > 1 and n[-1] == "a" and n[:-1] in index)
        rows = [list(row) for row in self.rows]
        rows[x][index["a"]] = (y + 1) % len(rows)
        problems = self.check(self.render(self.names, rows))
        self.assertTrue(any("multiplies out" in p for p in problems), problems)

    def test_refuses_a_wrong_product_off_the_generator_rows(self):
        index = {name: k for k, name in enumerate(self.names)}
        generators = {index[a] for a in self.graph.letters}
        rows = [list(row) for row in self.rows]
        x = len(rows) - 1
        y = next(k for k in range(len(rows)) if k not in generators)
        rows[x][y] = (rows[x][y] + 1) % len(rows)
        problems = checkers.check_table(self.render(self.names, rows), self.graph,
                                        random.Random(1), pairs=400)
        self.assertTrue(problems)

    def test_refuses_swapped_names(self):
        names = list(self.names)
        names[2], names[3] = names[3], names[2]
        self.assertTrue(self.check(self.render(names, self.rows)))

    def test_refuses_a_missing_row(self):
        self.assertTrue(self.check("\n".join(self.text.splitlines()[:-1]) + "\n"))

    def test_refuses_a_constant_table(self):
        # Every product is the first element: associative, but not this semigroup.
        rows = [[0] * len(self.rows) for _ in self.rows]
        self.assertTrue(self.check(self.render(self.names, rows)))


class DumpChecker(unittest.TestCase):
    def setUp(self):
        self.graph = checkers.Graph(SAMPLE)
        self.lines = command_output("karoubi").splitlines()

    def check(self, lines):
        return checkers.check_dump("\n".join(lines) + "\n", self.graph, random.Random(1))

    def test_accepts_real_output(self):
        self.assertEqual(self.check(self.lines), [])

    def test_refuses_a_missing_identity(self):
        obj = self.lines[0].split()[1]
        lines = [line for line in self.lines if line != f"arrow {obj} {obj} {obj}"]
        self.assertTrue(any("identity" in p for p in self.check(lines)))

    def test_refuses_an_arrow_outside_e_s_f(self):
        own = checkers.Semigroup(self.graph)
        e, s, f = next(line.split()[1:] for line in self.lines if line.startswith("arrow"))
        e_, f_ = own.by_name[e], own.by_name[f]
        bad = next(own.names[x] for x in range(own.size)
                   if own.mul(own.mul(e_, x), f_) != x)
        lines = [f"arrow {e} {bad} {f}" if line == f"arrow {e} {s} {f}" else line
                 for line in self.lines]
        self.assertTrue(self.check(lines))

    def test_refuses_a_wrong_composite(self):
        k = next(i for i, line in enumerate(self.lines)
                 if line.startswith("compose") and line.split()[1] != line.split()[4])
        head, _, _ = self.lines[k].rpartition(" ")
        lines = list(self.lines)
        lines[k] = head + " " + self.lines[k].split()[1]
        self.assertTrue(self.check(lines))

    def test_refuses_a_missing_composite(self):
        k = next(i for i, line in enumerate(self.lines) if line.startswith("compose"))
        self.assertTrue(self.check(self.lines[:k] + self.lines[k + 1:]))


class ReportChecker(unittest.TestCase):
    def setUp(self):
        self.graph = checkers.Graph(SAMPLE)
        self.text = command_output("inspect")

    def replace(self, key, value):
        return "".join(
            f"{key}: {value}\n" if line.startswith(key + ": ") else line + "\n"
            for line in self.text.splitlines())

    def test_accepts_real_output(self):
        self.assertEqual(checkers.check_report(self.text, self.graph), [])

    def test_refuses_each_corrupted_field(self):
        fields = dict(line.split(": ", 1) for line in self.text.splitlines())
        flip = {"true": "false", "false": "true"}
        corrupt = {
            "order": int(fields["order"]) + 1,
            "idempotents": int(fields["order"]) + 1,
            "j_classes": int(fields["regular_j_classes"]) - 1,
            "regular_j_classes": int(fields["regular_j_classes"]) + 1,
            "skeleton_objects": int(fields["skeleton_objects"]) + 1,
            "skeleton_hom_matrix": "[[1]]",
            "aperiodic": flip[fields["aperiodic"]],
            "irreducible": flip[fields["irreducible"]],
        }
        for key, value in corrupt.items():
            with self.subTest(key=key):
                self.assertTrue(checkers.check_report(self.replace(key, value), self.graph))


class SmallCheckers(unittest.TestCase):
    def test_starfree(self):
        graph = checkers.Graph(SAMPLE)
        real = command_output("starfree")
        self.assertEqual(checkers.check_starfree(real, graph), [])
        flipped = "false\n" if real == "true\n" else "true\n"
        self.assertTrue(checkers.check_starfree(flipped, graph))

    def test_related_pair(self):
        self.assertEqual(checkers.check_related_pair("NOT_DISTINGUISHED\n"), [])
        self.assertTrue(checkers.check_related_pair("NOT_FLOW_EQUIVALENT\n"))
        self.assertTrue(checkers.check_related_pair("NOT_DISTINGUISHED"))
        self.assertTrue(checkers.check_related_pair("maybe\n"))

    def test_graph_classifies_the_presets(self):
        render = PKG["shift"].render_presentation
        presets = PKG["soficlab"].presets
        self.assertTrue(checkers.Graph(render(presets.full_shift_2())).is_full_shift())
        golden = checkers.Graph(render(presets.golden_mean_shift()))
        self.assertFalse(golden.is_full_shift())
        self.assertEqual(golden.unused_letters(), [])
        self.assertTrue(golden.strongly_connected())
        one_letter = checkers.Graph("alphabet a b\nedge 1 a 1\n")
        self.assertEqual(one_letter.unused_letters(), ["b"])

    def test_own_semigroup_matches_the_package(self):
        semigroup, _ = PKG["semigroups"].syntactic_semigroup(
            PKG["shift"].load_presentation(SAMPLE))
        own = checkers.Semigroup(checkers.Graph(SAMPLE))
        self.assertEqual(own.names, [semigroup.witness_name(i) for i in range(semigroup.size)])


class BenchmarkFile(unittest.TestCase):
    def test_metrics_and_workloads_match_run_py(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, _ in run.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
