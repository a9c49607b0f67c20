"""Acceptance gate: eight pinned criteria, one printed line each.

Every test announces itself on the real stdout as ``criterion N: PASS``
or ``criterion N: FAIL`` so the suite's log shows the verdicts at a
glance even under output capture.
"""

import io
import re
import sys
from itertools import product

import pytest

import soficlab as sl
from soficlab import presets
from soficlab.cli import main as cli_main

from oracles import generator_map_isomorphic

AB = sl.Alphabet(("a", "b"))

ALL_PRESETS = sorted(presets.PRESENTATIONS)


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def announce(request):
    yield
    number = re.search(r"criterion_(\d+)", request.node.name).group(1)
    report = getattr(request.node, "outcome_call", None)
    status = "PASS" if report is not None and report.passed else "FAIL"
    line = f"criterion {number}: {status}"
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        # the reporter's stream bypasses output capture
        reporter.write_line(line)
    else:
        print(line, file=sys.__stdout__)


def test_criterion_1_even_shift_pipeline(even, announce):
    semigroup, _ = sl.syntactic_semigroup(even)
    assert semigroup.size == 7
    assert len(sl.idempotents(semigroup)) == 4
    assert not sl.is_aperiodic(semigroup)
    assert cli("starfree", "--builtin", "even") == (0, "false\n", "")

    relations, _ = sl.relation_semigroup({"a": {(1, 1)}, "b": {(1, 2), (2, 1)}})
    assert relations.size == 7
    assert generator_map_isomorphic(semigroup, relations)
    assert generator_map_isomorphic(relations, semigroup)

    assert len(sl.syntactic_oracle(even, 6, 6)) == 7


def test_criterion_2_golden_mean_pipeline(golden, announce):
    semigroup, _ = sl.syntactic_semigroup(golden)
    assert semigroup.size == 5
    assert sl.is_aperiodic(semigroup)
    assert cli("starfree", "--builtin", "golden") == (0, "true\n", "")
    assert len(sl.syntactic_oracle(golden, 6, 6)) == 5


def test_criterion_3_membership_goldens(even, golden, announce):
    assert not sl.contains_block(even, tuple("aba"))
    assert sl.contains_block(even, tuple("abba"))
    assert not sl.contains_block(golden, tuple("bb"))
    assert cli("member", "--builtin", "even", "aba") == (0, "false\n", "")
    assert cli("member", "--builtin", "even", "abba") == (0, "true\n", "")
    assert cli("member", "--builtin", "golden", "bb") == (0, "false\n", "")


def test_criterion_4_karoubi_skeletons(even, golden, period2, announce):
    golden_s, _ = sl.syntactic_semigroup(golden)
    golden_sk = sl.skeleton(sl.karoubi_envelope(golden_s))
    assert len(golden_sk.objects) == 2
    assert sl.hom_size_matrix(golden_sk) == [[2, 1], [1, 1]]

    even_s, _ = sl.syntactic_semigroup(even)
    even_sk = sl.skeleton(sl.karoubi_envelope(even_s))
    assert len(even_sk.objects) == 3

    assert cli("compare", "--builtin", "even", "--builtin", "golden") == (
        0, "NOT_FLOW_EQUIVALENT\n", "",
    )
    assert cli("compare", "--builtin", "golden", "--builtin", "period2") == (
        0, "NOT_DISTINGUISHED\n", "",
    )
    period2_s, _ = sl.syntactic_semigroup(period2)
    assert sl.categories_equivalent(
        sl.karoubi_envelope(golden_s), sl.karoubi_envelope(period2_s)
    )


def test_criterion_5_expansion_invariance_suite(announce):
    corpus = sl.random_proper_presentations(50, AB)
    assert len(corpus) == 50
    moves = [sl.SymbolExpand("a"), sl.SymbolExpand("b"), sl.HigherBlock(2)]
    failures = [
        (seed, move)
        for seed, presentation in corpus
        for move in moves
        if not sl.expansion_invariance_check(presentation, [move])
    ]
    assert failures == []


def test_criterion_6_substitutions(fibonacci, announce):
    assert sl.is_primitive(sl.parse_substitution("a:ab,b:aaab"))
    words = sl.substitution_blocks(fibonacci, 3)
    assert {sl.render_word(w) for w in words if len(w) == 3} == {
        "aab", "aba", "baa", "bab",
    }
    language = sl.substitution_blocks(fibonacci, 6)
    assert sl.recurrence_bound(language, ("b",), 6) == 3
    assert sl.recurrence_bound(language, ("a",), 6) == 2


def test_criterion_7_markov_dyck(announce):
    d2 = presets.dyck_graph("D2")
    for word, expected in (("e-f-f+e+", True), ("e-f+", False), ("e+f-", True)):
        assert sl.markov_dyck_member(d2, sl.parse_dyck_word(word, d2)) is expected
    assert cli("dyckcompare", "D2", "D3") == (0, "NOT_FLOW_EQUIVALENT\n", "")
    assert cli("dyckcompare", "D2", "D2") == (0, "FLOW_EQUIVALENT\n", "")
    assert cli("dyckcompare", "D1", "D2") == (0, "INAPPLICABLE\n", "")


def test_criterion_8_structural_suites(announce):
    for name in ALL_PRESETS:
        p = presets.PRESENTATIONS[name]()

        words = sl.blocks(p, 6)
        for w in words:
            # factorial: every factor is a block
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    assert w[i:j] in words
        for w in words:
            # prolongable: extendable with some letter on either side
            if len(w) < 6:
                assert any(w + (a,) in words for a in p.alphabet)
                assert any((a,) + w in words for a in p.alphabet)

        semigroup, _ = sl.syntactic_semigroup(p)
        n, table = semigroup.size, semigroup.table
        for i, j, k in product(range(n), repeat=3):
            assert table[table[i][j]][k] == table[i][table[j][k]]

        envelope = sl.karoubi_envelope(semigroup)
        idem = sl.idempotents(semigroup)
        assert len(envelope.arrows) == sum(
            1
            for x in range(n)
            for e in idem
            for f in idem
            if table[table[e][x]][f] == x
        )

        once = sl.skeleton(envelope)
        twice = sl.skeleton(once)
        assert once.objects == twice.objects and once.arrows == twice.arrows

        for order in (2, 3):
            recoded = sl.higher_block(p, order)
            for length in range(1, 8 - order + 1):
                got = {w for w in sl.blocks(recoded, length) if len(w) == length}
                want = {
                    w
                    for w in sl.blocks(p, length + order - 1)
                    if len(w) == length + order - 1
                }
                assert len(got) == len(want)
