import pytest

import soficlab as sl
from soficlab import flowlab, presets
from soficlab.shift import Alphabet
from soficlab.errors import InputError, UnknownSymbol

AB = sl.Alphabet(("a", "b"))


def test_invariant_report_even_pinned(even):
    r = sl.invariant_report(even)
    assert r.order == 7
    assert r.idempotents == 4
    assert r.aperiodic is False
    assert r.j_classes == 3
    assert r.regular_j_classes == 3
    assert r.skeleton_objects == 3
    assert r.skeleton_hom_matrix == [[2, 3, 1], [3, 7, 1], [1, 1, 1]]
    assert r.irreducible is True


def test_invariant_report_render_golden_pinned(golden):
    assert sl.invariant_report(golden).render() == (
        "order: 5\n"
        "idempotents: 4\n"
        "aperiodic: true\n"
        "j_classes: 2\n"
        "regular_j_classes: 2\n"
        "skeleton_objects: 2\n"
        "skeleton_hom_matrix: [[2,1],[1,1]]\n"
        "irreducible: true\n"
    )


def test_flow_compare_separates_even_from_golden(even, golden):
    verdict = sl.flow_compare(even, golden)
    assert verdict.kind is sl.Verdict.NOT_FLOW_EQUIVALENT
    assert verdict.token == "NOT_FLOW_EQUIVALENT"
    assert "3 objects" in verdict.note and "2 objects" in verdict.note


def test_flow_compare_cannot_separate_golden_from_period2(golden, period2):
    verdict = sl.flow_compare(golden, period2)
    assert verdict.kind is sl.Verdict.NOT_DISTINGUISHED


def test_flow_compare_never_affirms(even, golden, full2, period2):
    shifts = [even, golden, full2, period2]
    for p in shifts:
        for q in shifts:
            assert sl.flow_compare(p, q).kind is not sl.Verdict.FLOW_EQUIVALENT


def test_flow_compare_kind_is_symmetric(even, golden, full2, period2):
    shifts = [even, golden, full2, period2]
    for p in shifts:
        for q in shifts:
            assert sl.flow_compare(p, q).kind is sl.flow_compare(q, p).kind


def test_apply_move_dispatch(golden):
    expanded = sl.apply_move(golden, sl.SymbolExpand("a"))
    assert sl.EXPANSION_SYMBOL in expanded.alphabet
    recoded = sl.apply_move(golden, sl.HigherBlock(2))
    assert all("." in s for s in recoded.alphabet)


def test_expansion_invariance_on_presets(even, golden, period2):
    moves = [sl.SymbolExpand("a"), sl.SymbolExpand("b"), sl.HigherBlock(2),
             sl.HigherBlock(3)]
    for p in (even, golden, period2):
        for move in moves:
            assert sl.expansion_invariance_check(p, [move])


def test_expansion_invariance_on_composed_chain(golden):
    chain = [sl.SymbolExpand("b"), sl.HigherBlock(2)]
    assert sl.expansion_invariance_check(golden, chain)


def test_expansion_invariance_past_the_old_envelope_cap():
    # |S| = 529; under SymbolExpand b the whole envelope passed its cap
    p = sl.random_presentation(756430004, 4, sl.Alphabet(("a", "b")), 0.3)
    assert sl.expansion_invariance_check(p, [sl.SymbolExpand("b")])


def test_full_shift_is_compared_with_a_zero(even, golden, full2, period2):
    # the a-expansion of full2 is not a full shift, and full2 is flow
    # equivalent to golden
    expanded = sl.symbol_expansion(full2, "a")
    assert sl.flow_compare(expanded, full2).kind is sl.Verdict.NOT_DISTINGUISHED
    for other in (golden, period2):
        assert sl.flow_compare(full2, other).kind is sl.Verdict.NOT_DISTINGUISHED
    assert sl.flow_compare(full2, even).kind is sl.Verdict.NOT_FLOW_EQUIVALENT


def test_expansion_invariance_unfiltered():
    # full shifts and unused letters included: 183 and 11 of these inputs
    moves = [sl.SymbolExpand("a"), sl.SymbolExpand("b"), sl.HigherBlock(2)]
    kinds = {"full": 0, "unused letter": 0}
    failures = []
    for seed in range(300):
        p = sl.random_presentation(seed, 2 + seed % 3, AB, 0.3)
        if sl.is_full_shift(p):
            kinds["full"] += 1
        elif {e[1] for e in p.edges} != {"a", "b"}:
            kinds["unused letter"] += 1
        failures += [
            (seed, move)
            for move in moves
            if not sl.expansion_invariance_check(p, [move])
        ]
    assert kinds == {"full": 183, "unused letter": 11}
    assert failures == []


def test_expansion_invariance_rejects_unknown_symbol(golden):
    with pytest.raises(UnknownSymbol):
        sl.expansion_invariance_check(golden, [sl.SymbolExpand("z")])


class TestRandomPresentations:
    def test_deterministic(self):
        a = sl.random_presentation(7, 3, AB, 0.4)
        b = sl.random_presentation(7, 3, AB, 0.4)
        assert a == b

    def test_seed_changes_output(self):
        outputs = {sl.random_presentation(seed, 3, AB, 0.4) for seed in range(8)}
        assert len(outputs) > 1

    def test_always_essential_and_irreducible(self):
        for seed in range(12):
            p = sl.random_presentation(seed, 2 + seed % 3, AB, 0.3)
            assert sl.is_irreducible(p)
            for v in p.vertices:
                assert p.out_edges[v] and p.in_edges[v]

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            sl.random_presentation(0, 0, AB, 0.5)
        with pytest.raises(InputError):
            sl.random_presentation(0, 2, AB, 1.5)

    def test_proper_stream_filters(self):
        picked = sl.random_proper_presentations(10, AB)
        assert len(picked) == 10
        seeds = [s for s, _ in picked]
        assert seeds == sorted(seeds)
        for _, p in picked:
            assert not sl.is_full_shift(p)
            assert {e[1] for e in p.edges} == {"a", "b"}

    def test_proper_stream_deterministic(self):
        assert sl.random_proper_presentations(6, AB) == sl.random_proper_presentations(6, AB)

    def test_proper_stream_empty(self):
        assert sl.random_proper_presentations(0, AB) == []

    def test_proper_stream_refuses_inputs_with_no_proper_shift(self):
        # one letter presents only the full shift: the stream would search
        # for a candidate forever
        with pytest.raises(InputError):
            sl.random_proper_presentations(1, Alphabet(("a",)))


class TestBracketComparison:
    def test_distinct_loop_counts(self):
        d2 = presets.dyck_graph("D2")
        d3 = presets.dyck_graph("D3")
        assert sl.markov_dyck_flow_compare(d2, d3).kind is sl.Verdict.NOT_FLOW_EQUIVALENT

    def test_equal_graphs(self):
        d2 = presets.dyck_graph("D2")
        assert sl.markov_dyck_flow_compare(d2, d2).kind is sl.Verdict.FLOW_EQUIVALENT

    def test_renamed_graph_is_flow_equivalent(self):
        d2 = presets.dyck_graph("D2")
        renamed = sl.DyckGraph(("v",), (("x", "v", "v"), ("y", "v", "v")))
        assert sl.markov_dyck_flow_compare(d2, renamed).kind is sl.Verdict.FLOW_EQUIVALENT

    def test_out_degree_one_is_inapplicable(self):
        d1 = presets.dyck_graph("D1")
        d2 = presets.dyck_graph("D2")
        assert sl.markov_dyck_flow_compare(d1, d2).kind is sl.Verdict.INAPPLICABLE
        assert sl.markov_dyck_flow_compare(d2, d1).kind is sl.Verdict.INAPPLICABLE

    def test_missing_in_edge_is_inapplicable(self):
        dangling = sl.DyckGraph(
            ("1", "2"),
            (("e", "1", "1"), ("f", "1", "1"), ("g", "2", "1"), ("h", "2", "1")),
        )
        d2 = presets.dyck_graph("D2")
        assert sl.markov_dyck_flow_compare(dangling, d2).kind is sl.Verdict.INAPPLICABLE

    def test_same_degrees_different_wiring(self):
        # both have two vertices with two loops each vs a 4-cycle pair; the
        # degree multisets differ from D2 so compare against each other
        doubled = sl.DyckGraph(
            ("1", "2"),
            (
                ("e", "1", "1"), ("f", "1", "1"),
                ("g", "2", "2"), ("h", "2", "2"),
            ),
        )
        crossed = sl.DyckGraph(
            ("1", "2"),
            (
                ("e", "1", "2"), ("f", "1", "2"),
                ("g", "2", "1"), ("h", "2", "1"),
            ),
        )
        verdict = sl.markov_dyck_flow_compare(doubled, crossed)
        assert verdict.kind is sl.Verdict.NOT_FLOW_EQUIVALENT

    def test_isomorphic_two_vertex_graphs(self):
        left = sl.DyckGraph(
            ("1", "2"),
            (("e", "1", "2"), ("f", "1", "2"), ("g", "2", "1"), ("h", "2", "1")),
        )
        right = sl.DyckGraph(
            ("x", "y"),
            (("p", "y", "x"), ("q", "y", "x"), ("r", "x", "y"), ("s", "x", "y")),
        )
        assert sl.markov_dyck_flow_compare(left, right).kind is sl.Verdict.FLOW_EQUIVALENT


def test_verdict_paths_leave_the_table_unfilled(monkeypatch):
    made = []
    build = flowlab.syntactic_semigroup

    def recorded(presentation):
        s, m = build(presentation)
        made.append(s)
        return s, m

    monkeypatch.setattr(flowlab, "syntactic_semigroup", recorded)
    ab = Alphabet(("a", "b"))
    # ladder inputs of |S| 11 and 220, each against two flow moves of it
    for seed, vertices in ((17, 4), (26, 4), (2617, 6), (657, 4)):
        p = sl.random_presentation(seed, vertices, ab, 0.25)
        for q in (sl.symbol_expansion(p, "a"), sl.higher_block(p, 2)):
            assert sl.flow_compare(p, q).kind is sl.Verdict.NOT_DISTINGUISHED
            sl.invariant_report(q)
    # |S| = 2148 against its a-expansion, |S| = 5074
    p = sl.random_presentation(3, 6, ab, 0.25)
    q = sl.symbol_expansion(p, "a")
    assert sl.flow_compare(p, q).kind is sl.Verdict.NOT_DISTINGUISHED
    assert sl.invariant_report(q).order == 5074
    assert len(made) == 27
    for s in made:
        sl.dump_category(sl.envelope_skeleton(s))
        assert "table" not in vars(s)
