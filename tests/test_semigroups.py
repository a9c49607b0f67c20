from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soficlab as sl
from soficlab import semigroups
from soficlab.errors import CapExceeded, NotIdempotent, ParseError
from soficlab.shift import Alphabet

from oracles import generator_map_isomorphic


def witnesses(semigroup):
    return [semigroup.witness_name(i) for i in range(semigroup.size)]


def test_minimal_dfa_sizes(even, golden, full2):
    assert sl.determinize_minimal(even).size == 4
    assert sl.determinize_minimal(golden).size == 3
    assert sl.determinize_minimal(full2).size == 2


def test_even_semigroup_pinned(even):
    s, _ = sl.syntactic_semigroup(even)
    assert witnesses(s) == ["a", "b", "ab", "ba", "bb", "aba", "bab"]
    assert s.witness_name(s.zero) == "aba"
    assert [s.witness_name(i) for i in sl.idempotents(s)] == ["a", "bb", "aba", "bab"]
    assert not sl.is_aperiodic(s)


def test_golden_semigroup_pinned(golden):
    s, _ = sl.syntactic_semigroup(golden)
    assert witnesses(s) == ["a", "b", "ab", "ba", "bb"]
    assert s.witness_name(s.zero) == "bb"
    assert [s.witness_name(i) for i in sl.idempotents(s)] == ["a", "ab", "ba", "bb"]
    assert sl.is_aperiodic(s)


def test_full_shift_semigroup_is_trivial(full2):
    s, _ = sl.syntactic_semigroup(full2)
    assert s.size == 1
    assert s.zero is None


def test_period2_semigroup_pinned(period2):
    s, _ = sl.syntactic_semigroup(period2)
    assert witnesses(s) == ["a", "b", "aa", "ab", "ba"]
    assert s.witness_name(s.zero) == "aa"


def test_zero_absorbs(even):
    s, _ = sl.syntactic_semigroup(even)
    z = s.zero
    for i in range(s.size):
        assert s.mul(i, z) == z
        assert s.mul(z, i) == z


def test_table_is_associative(even, golden, period2):
    for p in (even, golden, period2):
        s, _ = sl.syntactic_semigroup(p)
        n = s.size
        for i, j, k in product(range(n), repeat=3):
            assert s.mul(s.mul(i, j), k) == s.mul(i, s.mul(j, k))


def test_witness_words_evaluate_to_their_element(even):
    s, _ = sl.syntactic_semigroup(even)
    for i, w in enumerate(s.witnesses):
        assert s.evaluate(w) == i


def test_morphism_respects_concatenation(even):
    s, m = sl.syntactic_semigroup(even)
    for u in product("ab", repeat=3):
        for v in product("ab", repeat=2):
            assert m.image(u + v) == s.mul(m.image(u), m.image(v))


# Words with the same image must be interchangeable in the language: the
# syntactic congruence can only merge words the block language cannot
# tell apart by membership of whole words.
@pytest.mark.parametrize("preset", ["even", "golden", "period2"])
def test_image_classes_have_uniform_membership(preset, request):
    p = request.getfixturevalue(preset)
    s, m = sl.syntactic_semigroup(p)
    by_image = {}
    for n in range(1, 6):
        for w in product(p.alphabet.symbols, repeat=n):
            by_image.setdefault(m.image(w), []).append(w)
    assert len(by_image) == s.size
    for members in by_image.values():
        verdicts = {sl.contains_block(p, w) for w in members}
        assert len(verdicts) == 1


def test_recognize_matches_membership(golden):
    s, m = sl.syntactic_semigroup(golden)
    accept = {m.image(w) for w in sl.blocks(golden, 5)}
    for n in range(1, 6):
        for w in product("ab", repeat=n):
            assert sl.recognize(m, accept, w) == sl.contains_block(golden, w)


class TestRelationSemigroups:
    def test_even_from_edge_relations(self, even):
        r, _ = sl.relation_semigroup({"a": {(1, 1)}, "b": {(1, 2), (2, 1)}})
        assert r.size == 7
        assert r.witness_name(r.zero) == "aba"
        s, _ = sl.syntactic_semigroup(even)
        assert generator_map_isomorphic(s, r)
        assert generator_map_isomorphic(r, s)

    def test_golden_from_edge_relations(self, golden):
        r, _ = sl.relation_semigroup({"a": {(1, 1), (2, 1)}, "b": {(1, 2)}})
        assert r.size == 5
        assert r.witness_name(r.zero) == "bb"
        s, _ = sl.syntactic_semigroup(golden)
        assert generator_map_isomorphic(s, r)

    def test_composition_is_left_to_right(self):
        # ab relates x to z when a goes x->y and b goes y->z
        r, m = sl.relation_semigroup({"a": {("x", "y")}, "b": {("y", "z")}})
        ab = m.image(("a", "b"))
        assert r.witnesses[ab] == ("a", "b")
        ba = m.image(("b", "a"))
        assert r.witness_name(ba) != "ab"
        assert r.zero is not None  # ba composes to nothing

    def test_cap(self):
        with pytest.raises(CapExceeded):
            sl.relation_semigroup(
                {"a": {(i, (i + 1) % 11) for i in range(11)},
                 "b": {(0, 0), (1, 0)}},
                cap=5,
            )


class TestSyntacticOracle:
    def test_even_classes(self, even):
        classes = sl.syntactic_oracle(even, 6, 6)
        assert len(classes) == 7
        firsts = {sl.render_word(c[0]) for c in classes}
        assert firsts == {"a", "b", "ab", "ba", "bb", "aba", "bab"}

    def test_golden_classes(self, golden):
        assert len(sl.syntactic_oracle(golden, 6, 6)) == 5

    def test_full_shift_single_class(self, full2):
        # (4, 4) keeps the 2^k block enumeration small; one class either way
        assert len(sl.syntactic_oracle(full2, 4, 4)) == 1

    def test_agrees_with_semigroup_on_even(self, even):
        s, m = sl.syntactic_semigroup(even)
        for members in sl.syntactic_oracle(even, 5, 5):
            images = {m.image(w) for w in members}
            assert len(images) == 1

    def test_cap(self, even):
        with pytest.raises(CapExceeded):
            sl.syntactic_oracle(even, 10, 2, cap=100)


class TestGreenJ:
    def test_even_structure(self, even):
        s, _ = sl.syntactic_semigroup(even)
        j = sl.green_j(s)
        named = [sorted(s.witness_name(i) for i in c) for c in j.classes]
        assert named == [["a", "ab", "ba", "bab"], ["b", "bb"], ["aba"]]
        assert j.regular == (True, True, True)
        # zero class is strictly below the other two
        assert (2, 0) in j.below and (2, 1) in j.below and (0, 1) in j.below

    def test_golden_structure(self, golden):
        s, _ = sl.syntactic_semigroup(golden)
        j = sl.green_j(s)
        named = [sorted(s.witness_name(i) for i in c) for c in j.classes]
        assert named == [["a", "ab", "b", "ba"], ["bb"]]
        assert j.below == frozenset({(1, 0)})
        assert j.regular == (True, True)

    def test_below_is_a_strict_partial_order(self, even):
        s, _ = sl.syntactic_semigroup(even)
        j = sl.green_j(s)
        for i, k in j.below:
            assert i != k
            assert (k, i) not in j.below

    def test_computed_once_per_semigroup(self, even, monkeypatch):
        calls = []
        compute = semigroups._j_classes

        def counted(semigroup):
            calls.append(semigroup)
            return compute(semigroup)

        monkeypatch.setattr(semigroups, "_j_classes", counted)
        s, _ = sl.syntactic_semigroup(even)
        assert sl.green_j(s) is sl.green_j(s)
        assert len(calls) == 1
        # invariant_report reads the J-classes itself and through the skeleton
        sl.invariant_report(even)
        assert len(calls) == 2


def test_maximal_subgroup_at_bb_is_cyclic_of_order_two(even):
    s, _ = sl.syntactic_semigroup(even)
    bb = witnesses(s).index("bb")
    group = sl.maximal_subgroup(s, bb)
    assert sorted(s.witness_name(i) for i in group) == ["b", "bb"]
    b = witnesses(s).index("b")
    assert s.mul(b, b) == bb

def test_maximal_subgroup_needs_idempotent(even):
    s, _ = sl.syntactic_semigroup(even)
    with pytest.raises(NotIdempotent):
        sl.maximal_subgroup(s, witnesses(s).index("b"))


def test_aperiodicity_and_star_freeness(even, golden):
    assert sl.is_plus_free(golden)
    assert not sl.is_plus_free(even)


def test_cayley_table_round_trip(even):
    s, _ = sl.syntactic_semigroup(even)
    text = sl.render_cayley_table(s)
    back = sl.parse_cayley_table(text)
    assert back.table == s.table
    assert back.zero == s.zero


@pytest.mark.parametrize(
    "text",
    [
        "a b\na\n",                  # no header keyword
        "elements a a\na a\na a\n",  # repeated names
        "elements a b\na b\n",       # missing row
        "elements a b\na\nb a\n",    # short row
        "elements a b\na c\nb a\n",  # unknown entry
    ],
)
def test_cayley_parse_rejects(text):
    with pytest.raises(ParseError):
        sl.parse_cayley_table(text)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from("ab"),
        st.sets(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4
        ),
        min_size=2,
        max_size=2,
    )
)
def test_relation_closure_is_associative_and_zero_absorbs(gens):
    s, _ = sl.relation_semigroup(gens)
    n = s.size
    for i, j, k in product(range(n), repeat=3):
        assert s.mul(s.mul(i, j), k) == s.mul(i, s.mul(j, k))
    if s.zero is not None:
        assert all(
            s.mul(i, s.zero) == s.zero and s.mul(s.zero, i) == s.zero
            for i in range(n)
        )


# The table fill composes rows of the table it is building; these tests
# check each product against the generator maps themselves instead.


def assert_table_matches(semigroup, value_of):
    """Check every table[a][b] against the value of witness(a) + witness(b).

    ``value_of`` maps a word to its value through the generator maps
    alone; elements are told apart by the values of their witnesses.
    """
    element_of = {value_of(w): i for i, w in enumerate(semigroup.witnesses)}
    assert len(element_of) == semigroup.size
    for a, wa in enumerate(semigroup.witnesses):
        for b, wb in enumerate(semigroup.witnesses):
            assert semigroup.table[a][b] == element_of[value_of(wa + wb)]


def naive_render(semigroup):
    names = [sl.render_word(w) for w in semigroup.witnesses]
    text = "elements"
    for name in names:
        text += " " + name
    text += "\n"
    for a in range(semigroup.size):
        cells = []
        for b in range(semigroup.size):
            cells.append(names[semigroup.table[a][b]])
        text += " ".join(cells) + "\n"
    return text


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.sampled_from([0.2, 0.3, 0.5]),
)
def test_transition_table_matches_state_maps(seed, n_vertices, density):
    p = sl.random_presentation(seed, n_vertices, Alphabet(("a", "b")), density)
    dfa = sl.determinize_minimal(p)
    s, _ = sl.transition_semigroup(dfa)
    column = {a: k for k, a in enumerate(dfa.alphabet.symbols)}

    def state_map(word):
        states = list(range(dfa.size))
        for a in word:
            states = [dfa.transitions[q][column[a]] for q in states]
        return tuple(states)

    assert_table_matches(s, state_map)
    assert naive_render(s) == sl.render_cayley_table(s)


relations = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    relations,
    relations,
    relations,
    st.sampled_from([None, ("b", "a"), ("c", "a"), ("c", "b")]),
)
def test_relation_table_matches_composed_relations(ra, rb, rc, same):
    gens = {"a": ra, "b": rb, "c": rc}
    if same is not None:  # two letters with one relation
        gens[same[0]] = gens[same[1]]
    s, _ = sl.relation_semigroup(gens)

    def relation(word):
        rel = set(gens[word[0]])
        for letter in word[1:]:
            rel = {(x, z) for x, y in rel for y2, z in gens[letter] if y == y2}
        return frozenset(rel)

    assert_table_matches(s, relation)
    assert naive_render(s) == sl.render_cayley_table(s)


def test_one_element_semigroup(full2):
    s, m = sl.syntactic_semigroup(full2)
    assert s.table == ((0,),)
    assert s.witnesses == (("a",),)
    assert s.generators == {"a": 0, "b": 0}
    assert m.image(("b", "a", "b")) == 0
    text = sl.render_cayley_table(s)
    assert text == naive_render(s) == "elements a\na\n"
    assert sl.parse_cayley_table(text).table == s.table


def test_cayley_render_and_round_trip_at_scale():
    p = sl.random_presentation(53, 4, Alphabet(("a", "b")), 0.25)
    s, _ = sl.syntactic_semigroup(p)
    assert s.size >= 200
    text = sl.render_cayley_table(s)
    assert text == naive_render(s)
    back = sl.parse_cayley_table(text)
    assert back.table == s.table
    assert back.zero == s.zero


def test_round_trip_keeps_witnesses_and_generators_of_block_recodings():
    shared = 0
    for seed in range(60):
        p = sl.random_presentation(seed, 2 + seed % 5, Alphabet(("a", "b")), 0.3)
        for q in (p, sl.higher_block(p, 2)):
            s, _ = sl.syntactic_semigroup(q)
            back = sl.parse_cayley_table(sl.render_cayley_table(s))
            assert back.witnesses == s.witnesses
            assert back.table == s.table
            # a letter that shares its element with an earlier one has no name
            kept = {a: g for a, g in s.generators.items() if s.witnesses[g] == (a,)}
            assert back.generators == kept
            shared += kept != s.generators
    assert shared > 0


# A semigroup built by a closure fills its table only when it is read:
# words, aperiodicity and the rendered table go through the Cayley graph.


def naive_is_aperiodic(semigroup):
    """Powers of each element through the table, until one repeats."""
    for x in range(semigroup.size):
        powers = [x]
        while (nxt := semigroup.table[powers[-1]][x]) not in powers:
            powers.append(nxt)
        if nxt != powers[-1]:
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.sampled_from([0.2, 0.3, 0.5]))
def test_words_are_read_without_the_table(seed, n_vertices, density):
    p = sl.random_presentation(seed, n_vertices, Alphabet(("a", "b")), density)
    s, m = sl.syntactic_semigroup(p)
    words = [w for n in range(1, 5) for w in product("ab", repeat=n)]
    images = [m.image(w) for w in words]
    values = [s.evaluate(w) for w in words]
    accepted = [sl.recognize(m, {0}, w) for w in words]
    assert "table" not in vars(s)
    for w, x, y, ok in zip(words, images, values, accepted):
        by_table = s.generators[w[0]]
        for a in w[1:]:
            by_table = s.table[by_table][s.generators[a]]
        assert x == y == by_table
        assert ok == (by_table == 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.sampled_from([0.2, 0.3, 0.5]))
def test_aperiodic_walk_matches_powers_on_presentations(seed, n_vertices, density):
    p = sl.random_presentation(seed, n_vertices, Alphabet(("a", "b")), density)
    s, _ = sl.syntactic_semigroup(p)
    verdict = sl.is_aperiodic(s)
    assert "table" not in vars(s)
    assert verdict == naive_is_aperiodic(s)


@settings(max_examples=60, deadline=None)
@given(relations, relations, relations)
# |S| = 47, not aperiodic; walking the witnesses backwards says it is
@example(
    frozenset({(0, 2), (2, 1)}),
    frozenset({(2, 2), (3, 0)}),
    frozenset({(0, 2), (1, 3), (2, 2)}),
)
def test_aperiodic_walk_matches_powers_on_relations(ra, rb, rc):
    s, _ = sl.relation_semigroup({"a": ra, "b": rb, "c": rc})
    assert sl.is_aperiodic(s) == naive_is_aperiodic(s)


def test_aperiodic_and_render_at_scale_leave_the_table_unfilled():
    p = sl.random_presentation(69, 6, Alphabet(("a", "b")), 0.25)
    s, _ = sl.syntactic_semigroup(p)
    assert s.size == 1572
    assert sl.is_aperiodic(s) is True
    text = sl.render_cayley_table(s)
    assert "table" not in vars(s)
    assert text.count("\n") == 1573
    assert text.splitlines()[2].split()[:3] == [
        s.witness_name(s.table[1][j]) for j in range(3)
    ]


def test_aperiodic_on_a_parsed_table_of_compound_symbols(even, golden):
    # Dotted names of 2-block symbols parse back into words over the
    # 2-block letters, and the powers are walked through the parsed table.
    for p, expected in ((even, False), (golden, True)):
        s, _ = sl.syntactic_semigroup(sl.higher_block(p, 2))
        parsed = sl.parse_cayley_table(sl.render_cayley_table(s))
        assert parsed.generators == s.generators
        assert parsed.witnesses == s.witnesses
        assert sl.is_aperiodic(parsed) is sl.is_aperiodic(s) is expected
