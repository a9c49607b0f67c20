import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soficlab as sl
from soficlab import presets, shift
from soficlab.errors import (
    AlphabetMismatch,
    CapExceeded,
    EmptyShift,
    NotPrimitive,
    ParseError,
    SymbolClash,
    TooShort,
    UAbsent,
    UnknownEdge,
    UnknownSymbol,
)
from soficlab.shift import _factor_totals

from oracles import avoiding_words, primitive_by_iteration, walk_blocks

AB = sl.Alphabet(("a", "b"))


def test_alphabet_rejects_duplicates_and_bad_tokens():
    with pytest.raises(ParseError):
        sl.Alphabet(("a", "a"))
    with pytest.raises(ParseError):
        sl.Alphabet(())
    with pytest.raises(ParseError):
        sl.Alphabet(("a b",))


def rejected_as_bad(token):
    try:
        shift._check_token(token, "symbol")
    except ParseError as exc:
        return str(exc).startswith("bad symbol token")
    return False


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        st.sampled_from(" \t\x1c\x1f\x85\xa0\u2028\u3000#") | st.characters(),
        max_size=6,
    )
)
def test_token_check_rejects_empty_whitespace_and_comment_tokens(token):
    bad = not token or any(c.isspace() for c in token) or "#" in token
    assert rejected_as_bad(token) == bad


def test_token_check_splits_at_every_whitespace_character():
    # the check's split() cuts at exactly the code points isspace() accepts
    for c in map(chr, range(0x110000)):
        assert (c.split() != [c]) == c.isspace()
    assert rejected_as_bad("\x85") and rejected_as_bad("a\x1cb")


def test_alphabet_shortlex_key_orders_words():
    words = [("b",), ("a", "a"), ("a",), ("b", "a")]
    assert sorted(words, key=AB.sort_key) == [
        ("a",),
        ("b",),
        ("a", "a"),
        ("b", "a"),
    ]


def test_presentation_checks_edges():
    with pytest.raises(ParseError):
        sl.Presentation(AB, ("1",), (("1", "c", "1"),))
    with pytest.raises(ParseError):
        sl.Presentation(AB, ("1",), (("1", "a", "2"),))
    with pytest.raises(ParseError):
        sl.Presentation(AB, ("1",), (("1", "a", "1"), ("1", "a", "1")))
    with pytest.raises(EmptyShift):
        sl.Presentation(AB, (), ())


EVEN_TEXT = """\
# even shift: b's come in even runs
alphabet a b
vertex 1
vertex 2
edge 1 a 1
edge 1 b 2
edge 2 b 1
"""


def test_load_render_round_trip(even):
    loaded = sl.load_presentation(EVEN_TEXT)
    assert loaded == even
    assert sl.load_presentation(sl.render_presentation(loaded)) == loaded


def test_load_requires_alphabet_line():
    with pytest.raises(ParseError):
        sl.load_presentation("vertex 1\nedge 1 a 1\n")


def test_load_trims_to_essential_part():
    text = EVEN_TEXT + "vertex 3\nedge 1 a 3\n"  # 3 has no way out
    assert sl.load_presentation(text) == sl.load_presentation(EVEN_TEXT)


def test_trim_rejects_presentation_with_no_biinfinite_path():
    with pytest.raises(EmptyShift):
        sl.load_presentation("alphabet a\nvertex 1\nvertex 2\nedge 1 a 2\n")


@pytest.mark.parametrize("name", sorted(presets.PRESENTATIONS))
@pytest.mark.parametrize("length", [1, 3, 5])
def test_blocks_match_path_walking_oracle(name, length):
    p = presets.PRESENTATIONS[name]()
    assert sl.blocks(p, length) == walk_blocks(p, length)


def test_blocks_cap(even, monkeypatch):
    monkeypatch.setattr(shift, "DEFAULT_WORD_CAP", 5)
    with pytest.raises(CapExceeded):
        sl.blocks(even, 10)


def test_even_blocks_up_to_three(even):
    got = {sl.render_word(w) for w in sl.blocks(even, 3)}
    assert got == {
        "a", "b",
        "aa", "ab", "ba", "bb",
        "aaa", "aab", "abb", "baa", "bab", "bba", "bbb",
    }


def test_contains_block_agrees_with_block_set(even, golden):
    for p in (even, golden):
        words = sl.blocks(p, 4)
        from itertools import product
        for n in range(1, 5):
            for t in product(p.alphabet.symbols, repeat=n):
                assert sl.contains_block(p, t) == (t in words)


def test_contains_block_rejects_foreign_symbol(even):
    with pytest.raises(AlphabetMismatch):
        sl.contains_block(even, ("a", "c"))


def test_membership_goldens(even, golden):
    assert not sl.contains_block(even, tuple("aba"))
    assert sl.contains_block(even, tuple("abba"))
    assert not sl.contains_block(golden, tuple("bb"))


def test_irreducibility(even, golden, full2, period2):
    for p in (even, golden, full2, period2):
        assert sl.is_irreducible(p)
    two_parts = sl.Presentation(
        AB,
        ("1", "2"),
        (("1", "a", "1"), ("1", "b", "2"), ("2", "a", "2")),
    )
    assert not sl.is_irreducible(two_parts)


def test_is_full_shift(even, golden, full2, period2):
    assert sl.is_full_shift(full2)
    for p in (even, golden, period2):
        assert not sl.is_full_shift(p)


def test_full_shift_check_sees_through_unused_letters():
    # single b-loop declared over a two-letter alphabet
    lonely = sl.Presentation(AB, ("1",), (("1", "b", "1"),))
    assert not sl.is_full_shift(lonely)


def test_full_shift_check_matches_blocks():
    # a shortest word that is not a block leads the subset construction
    # from all vertices to the empty set through distinct nonempty subsets,
    # so it is at most L = 2^|V| - 1 long; there are 2^(L+1) - 2 words
    # of length 1..L over two letters
    verdicts = []
    for seed in range(120):
        density = (0.3, 0.5, 0.7)[seed // 3 % 3]
        p = sl.random_presentation(seed, 1 + seed % 3, AB, density)
        top = 2 ** len(p.vertices) - 1
        full = len(sl.blocks(p, top)) == 2 ** (top + 1) - 2
        assert sl.is_full_shift(p) == full
        verdicts.append(full)
    assert 10 <= verdicts.count(True) <= 110


class TestShiftFromForbidden:
    def test_golden_mean_language(self, golden):
        built = sl.shift_from_forbidden(AB, [("b", "b")])
        for n in (1, 2, 4, 6):
            assert sl.blocks(built, n) == sl.blocks(golden, n)

    def test_run_length_limited(self):
        built = sl.shift_from_forbidden(AB, [("a", "a", "a"), ("b", "b")])
        for n in (1, 3, 6):
            assert sl.blocks(built, n) == avoiding_words(
                AB.symbols, [("a", "a", "a"), ("b", "b")], n
            )

    def test_no_forbidden_words_gives_full_shift(self):
        assert sl.is_full_shift(sl.shift_from_forbidden(AB, []))

    def test_forbidden_word_outside_alphabet(self):
        with pytest.raises(AlphabetMismatch):
            sl.shift_from_forbidden(AB, [("c",)])

    def test_everything_forbidden_is_empty(self):
        with pytest.raises(EmptyShift):
            sl.shift_from_forbidden(AB, [("a",), ("b",)])

    # Words that survive the filter and stay two-sided extendable must be
    # blocks; the avoidance automaton may not invent anything new.
    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(
            st.tuples(
                st.sampled_from("ab"), st.sampled_from("ab"), st.sampled_from("ab")
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_blocks_avoid_all_forbidden_factors(self, forbidden):
        legal = avoiding_words(AB.symbols, forbidden, 6)
        try:
            built = sl.shift_from_forbidden(AB, forbidden)
        except EmptyShift:
            return
        assert sl.blocks(built, 6) <= legal


def test_symbol_expansion_golden_pinned(golden):
    q = sl.symbol_expansion(golden, "a")
    assert q.alphabet.symbols == ("a", "b", "@")
    assert q.vertices == ("1", "2", "@1")
    assert set(q.edges) == {
        ("1", "a", "@1"),
        ("1", "b", "2"),
        ("2", "a", "@1"),
        ("@1", "@", "1"),
    }
    assert sl.contains_block(q, ("a", "@"))
    assert sl.contains_block(q, ("a", "@", "b"))
    assert not sl.contains_block(q, ("a", "b"))
    assert not sl.contains_block(q, ("a", "a"))


def test_symbol_expansion_rejects_bad_symbols(golden):
    with pytest.raises(UnknownSymbol):
        sl.symbol_expansion(golden, "c")
    with pytest.raises(SymbolClash):
        sl.symbol_expansion(sl.symbol_expansion(golden, "a"), "b")


def test_symbol_expansion_relay_names_avoid_collisions():
    taken = sl.Presentation(
        sl.Alphabet(("a",)),
        ("1", "@1"),
        (("1", "a", "1"), ("1", "a", "@1"), ("@1", "a", "1")),
    )
    q = sl.symbol_expansion(taken, "a")
    assert len(set(q.vertices)) == len(q.vertices)


def _strip_expansion(word):
    return tuple(c for c in word if c != sl.EXPANSION_SYMBOL)


@pytest.mark.parametrize("name", sorted(presets.PRESENTATIONS))
@pytest.mark.parametrize("symbol", ["a", "b"])
def test_symbol_expansion_preserves_language(name, symbol):
    p = presets.PRESENTATIONS[name]()
    q = sl.symbol_expansion(p, symbol)
    stripped = {_strip_expansion(w) for w in sl.blocks(q, 8)}
    stripped.discard(())
    assert {w for w in stripped if len(w) <= 4} == sl.blocks(p, 4)


def test_higher_block_even_pinned(even):
    q = sl.higher_block(even, 2)
    assert q.alphabet.symbols == ("a.a", "a.b", "b.a", "b.b")
    assert len(q.vertices) == 3
    assert len(q.edges) == 5


def test_higher_block_requires_order_two(even):
    with pytest.raises(ValueError):
        sl.higher_block(even, 1)


@pytest.mark.parametrize("name", sorted(presets.PRESENTATIONS))
@pytest.mark.parametrize("order", [2, 3])
def test_higher_block_count_law(name, order):
    p = presets.PRESENTATIONS[name]()
    q = sl.higher_block(p, order)
    for length in range(1, 8 - order + 1):
        got = {w for w in sl.blocks(q, length) if len(w) == length}
        want = {
            w
            for w in sl.blocks(p, length + order - 1)
            if len(w) == length + order - 1
        }
        assert len(got) == len(want)


def test_higher_block_twice_recodes_compound_symbols():
    """X^[2][2] has a symbol per 3-block of X, so its n-blocks are X's (n+2)-blocks."""
    for seed in range(40):
        p = sl.random_presentation(seed, 2 + seed % 3, sl.Alphabet(("a", "b")), 0.15)
        q = sl.higher_block(sl.higher_block(p, 2), 2)
        got = sl.blocks(q, 5)
        want = sl.blocks(p, 7)
        for n in range(1, 6):
            assert sum(len(w) == n for w in got) == sum(len(w) == n + 2 for w in want)


def test_block_map_xor():
    binary = sl.Alphabet(("0", "1"))
    xor = sl.BlockMap.from_function(
        binary, binary, 0, 1,
        lambda w: str(int(w[0]) ^ int(w[1])),
    )
    assert sl.apply_block_map(xor, tuple("0110")) == tuple("101")
    with pytest.raises(TooShort):
        sl.apply_block_map(xor, ("0",))


def test_block_map_table_must_be_total():
    binary = sl.Alphabet(("0", "1"))
    with pytest.raises(ParseError):
        sl.BlockMap(binary, binary, 0, 0, {("0",): "0"})


class TestSubstitutions:
    def test_parse(self, fibonacci):
        assert sl.parse_substitution("a:ab,b:a") == fibonacci
        assert fibonacci.apply(("a", "b")) == ("a", "b", "a")

    @pytest.mark.parametrize("text", ["a:ab", "x", "a:ab,a:b", "a:,b:a", "a:xy,b:a"])
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            sl.parse_substitution(text)

    def test_incidence_matrix(self, fibonacci):
        assert sl.incidence_matrix(fibonacci) == [[1, 1], [1, 0]]

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a:ab,b:a", True),
            ("a:ab,b:aaab", True),
            ("a:b,b:a", False),
            ("a:a,b:ab", False),
            ("a:a", False),
            ("a:aa", True),
        ],
    )
    def test_primitivity(self, text, expected):
        s = sl.parse_substitution(text)
        assert sl.is_primitive(s) is expected
        assert primitive_by_iteration(s) is expected

    def test_blocks_of_fibonacci(self, fibonacci):
        got = sl.substitution_blocks(fibonacci, 3)
        assert {sl.render_word(w) for w in got if len(w) == 3} == {
            "aab", "aba", "baa", "bab",
        }
        assert {sl.render_word(w) for w in got} == {
            "a", "b", "aa", "ab", "ba", "aab", "aba", "baa", "bab",
        }

    def test_blocks_cap_is_checked_before_slicing(self, fibonacci, monkeypatch):
        # The 233-symbol image alone has more than 10**4 distinct factors;
        # only the count taken before any slice gives this message.
        monkeypatch.setattr(shift, "DEFAULT_WORD_CAP", 10**4)
        with pytest.raises(
            CapExceeded, match="an image has more than 10000 factors up to length 100000"
        ):
            sl.substitution_blocks(fibonacci, 10**5)

    def test_blocks_cap_admits_answers_under_it(self, fibonacci, monkeypatch):
        # Sturmian: l + 1 blocks of each length l, 5150 in all, though the
        # images sliced on the way take far more than 10**4 slices.
        monkeypatch.setattr(shift, "DEFAULT_WORD_CAP", 10**4)
        got = sl.substitution_blocks(fibonacci, 100)
        assert len(got) == sum(l + 1 for l in range(1, 101))
        assert all(len(w) <= 100 for w in got)

    def test_blocks_symbol_cap_is_checked_before_slicing(self, fibonacci, monkeypatch):
        # The longest image reached holds all 5150 blocks up to length 100,
        # 343400 symbols in all: a symbol cap one lower refuses the answer.
        monkeypatch.setattr(shift, "DEFAULT_WORD_CAP", 10**4)
        monkeypatch.setattr(shift, "SYMBOL_CAP", 343400)
        got = sl.substitution_blocks(fibonacci, 100)
        assert sum(map(len, got)) == 343400
        monkeypatch.setattr(shift, "SYMBOL_CAP", 343399)
        with pytest.raises(CapExceeded, match="hold more than 343399 symbols"):
            sl.substitution_blocks(fibonacci, 100)

    def test_blocks_cap_bounds_the_collected_set(self, monkeypatch):
        # Thue-Morse has 70 blocks up to length 7; no single image reached
        # before every image is 14 long has more than 69 of them.
        thue_morse = sl.parse_substitution("a:ab,b:ba")
        monkeypatch.setattr(shift, "DEFAULT_WORD_CAP", 70)
        assert len(sl.substitution_blocks(thue_morse, 7)) == 70
        monkeypatch.setattr(shift, "DEFAULT_WORD_CAP", 69)
        with pytest.raises(CapExceeded, match="more than 69 factors collected"):
            sl.substitution_blocks(thue_morse, 7)

    @settings(deadline=None)
    @given(st.text("abc", max_size=40), st.integers(1, 45))
    def test_factor_count_matches_slicing(self, text, max_len):
        word = tuple(text)
        sliced = {
            word[i:j]
            for i in range(len(word))
            for j in range(i + 1, min(i + max_len, len(word)) + 1)
        }
        assert _factor_totals(word, max_len) == (len(sliced), sum(map(len, sliced)))

    def test_blocks_require_primitive(self):
        with pytest.raises(NotPrimitive):
            sl.substitution_blocks(sl.parse_substitution("a:b,b:a"), 2)

    def test_recurrence_bounds(self, fibonacci):
        language = sl.substitution_blocks(fibonacci, 6)
        assert sl.recurrence_bound(language, ("b",), 6) == 3
        assert sl.recurrence_bound(language, ("a",), 6) == 2
        assert sl.recurrence_bound(language, ("a", "b", "a"), 6) == 5

    def test_recurrence_probe_absent(self, fibonacci):
        language = sl.substitution_blocks(fibonacci, 6)
        with pytest.raises(UAbsent):
            sl.recurrence_bound(language, ("b", "b"), 6)

    def test_recurrence_no_bound_in_range(self, fibonacci):
        language = sl.substitution_blocks(fibonacci, 6)
        assert sl.recurrence_bound(language, ("b", "a", "b"), 6) is None


DYCK_TWO_VERTEX = """\
vertex 1
vertex 2
edge e 1 2
edge f 2 1
edge g 2 2
"""


class TestMarkovDyck:
    def test_load_graph(self):
        g = sl.load_dyck_graph(DYCK_TWO_VERTEX)
        assert g.vertices == ("1", "2")
        assert g.edge_map["e"] == ("1", "2")

    def test_edge_names_may_not_carry_signs(self):
        with pytest.raises(ParseError):
            sl.load_dyck_graph("vertex 1\nedge e+ 1 1\n")

    def test_word_parsing_concatenated_and_spaced(self):
        g = presets.dyck_graph("D2")
        assert sl.parse_dyck_word("e-f-f+e+", g) == sl.parse_dyck_word(
            "e- f- f+ e+", g
        )
        with pytest.raises(ParseError):
            sl.parse_dyck_word("", g)
        with pytest.raises(UnknownEdge):
            sl.parse_dyck_word("z+", g)

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("e-f-f+e+", True),   # well nested
            ("e-f+", False),      # crossing close
            ("e+f-", True),       # unmatched closings allowed up front
            ("e-e-e+e+", True),
            ("e-e+e-e+", True),
            ("f+f+e-e+", True),
            ("e-f-e+f+", False),
        ],
    )
    def test_one_vertex_machine(self, word, expected):
        g = presets.dyck_graph("D2")
        assert sl.markov_dyck_member(g, sl.parse_dyck_word(word, g)) is expected

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("e-f-", True),    # e lands on 2, where f starts
            ("f-f-", False),   # f lands on 1, f cannot restart there
            ("e-g-g+f-", True),
            ("e-e-", False),   # cannot reopen e from vertex 2
            ("f-e-g-", True),
            ("e+e-", True),    # unmatched close lands at 1, reopen e
            ("g+e-", False),   # g+ pins position to 2, e opens at 1
        ],
    )
    def test_vertex_tracking(self, word, expected):
        g = sl.load_dyck_graph(DYCK_TWO_VERTEX)
        assert sl.markov_dyck_member(g, sl.parse_dyck_word(word, g)) is expected

    def test_builtin_graphs(self):
        assert presets.dyck_graph("D3").edges == (
            ("e", "1", "1"), ("f", "1", "1"), ("g", "1", "1"),
        )
        with pytest.raises(ParseError):
            presets.dyck_graph("D0")
        with pytest.raises(ParseError):
            presets.dyck_graph("dd")
