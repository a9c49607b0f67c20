import gc
import random

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import soficlab as sl
from soficlab.errors import CapExceeded, SearchTimeout, UnknownObject
from soficlab.karoubi import _composition, _refine_colors
from soficlab.shift import Alphabet

from oracles import naive_categories_isomorphic


@pytest.fixture
def golden_env(golden):
    s, _ = sl.syntactic_semigroup(golden)
    return s, sl.karoubi_envelope(s)


@pytest.fixture
def even_env(even):
    s, _ = sl.syntactic_semigroup(even)
    return s, sl.karoubi_envelope(s)


def test_objects_are_the_idempotents(golden_env):
    s, cat = golden_env
    assert list(cat.objects) == sl.idempotents(s)
    assert len(cat.objects) == 4


def test_every_arrow_satisfies_the_sandwich_law(golden_env, even_env):
    for s, cat in (golden_env, even_env):
        for e, x, f in cat.arrows:
            assert s.mul(s.mul(e, x), f) == x


def test_arrow_count_formula(golden_env, even_env):
    # count, per element, the (e, f) pairs that fix it
    for s, cat in (golden_env, even_env):
        idem = sl.idempotents(s)
        expected = sum(
            1
            for x in range(s.size)
            for e in idem
            for f in idem
            if s.mul(s.mul(e, x), f) == x
        )
        assert len(cat.arrows) == expected


def test_envelope_sizes_pinned(golden_env, even_env):
    assert len(golden_env[1].arrows) == 25
    assert len(even_env[1].arrows) == 34


def test_identities_and_unit_laws(golden_env):
    _, cat = golden_env
    for e in cat.objects:
        assert cat.identity(e) in cat.hom(e, e)
    for x in cat.arrows:
        assert cat.compose(cat.identity(x[0]), x) == x
        assert cat.compose(x, cat.identity(x[2])) == x


def test_composition_closed_and_associative(golden_env):
    _, cat = golden_env
    arrows = set(cat.arrows)
    for x in cat.arrows:
        for y in cat.arrows:
            if x[2] != y[0]:
                continue
            xy = cat.compose(x, y)
            assert xy in arrows
            for z in cat.arrows:
                if y[2] == z[0]:
                    assert cat.compose(xy, z) == cat.compose(x, cat.compose(y, z))


def test_compose_rejects_nonconsecutive(golden_env):
    _, cat = golden_env
    x = cat.arrows[0]
    bad = next(a for a in cat.arrows if a[0] != x[2])
    with pytest.raises(ValueError):
        cat.compose(x, bad)


def test_hom_and_identity_check_objects(golden_env):
    _, cat = golden_env
    with pytest.raises(UnknownObject):
        cat.hom(-17, cat.objects[0])
    with pytest.raises(UnknownObject):
        cat.identity(-17)


def test_envelope_cap(golden):
    s, _ = sl.syntactic_semigroup(golden)
    with pytest.raises(CapExceeded):
        sl.karoubi_envelope(s, cap=3)


def test_envelope_skeleton_golden(golden):
    s, _ = sl.syntactic_semigroup(golden)
    sk = sl.envelope_skeleton(s)
    assert [s.witness_name(o) for o in sk.objects] == ["a", "bb"]
    assert sl.hom_size_matrix(sk) == [[2, 1], [1, 1]]
    assert len(sk.arrows) == 5


def test_envelope_skeleton_cap(golden):
    s, _ = sl.syntactic_semigroup(golden)
    assert len(sl.envelope_skeleton(s, cap=5).arrows) == 5
    with pytest.raises(CapExceeded, match="envelope skeleton grew past 4 arrows"):
        sl.envelope_skeleton(s, cap=4)


class _CountingTable(tuple):
    """Cayley table that counts the scans over its rows."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_envelope_skeleton_cap_stops_the_scans(golden):
    # golden's first hom-set has 2 arrows, so a cap of 1 is passed after
    # one scan of the table, not after all four
    counted, _ = sl.syntactic_semigroup(golden)
    vars(counted)["table"] = _CountingTable(counted.table)
    with pytest.raises(CapExceeded):
        sl.envelope_skeleton(counted, cap=1)
    assert counted.table.scans == 1


def assert_skeleton_matches_oracle(semigroup):
    direct = sl.envelope_skeleton(semigroup)
    oracle = sl.skeleton(sl.karoubi_envelope(semigroup))
    assert direct.objects == oracle.objects
    assert direct.arrows == oracle.arrows


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.sampled_from([0.2, 0.3, 0.5]),
)
def test_envelope_skeleton_matches_oracle_on_transition_semigroups(
    seed, n_vertices, density
):
    p = sl.random_presentation(seed, n_vertices, Alphabet(("a", "b")), density)
    s, _ = sl.transition_semigroup(sl.determinize_minimal(p))
    assert_skeleton_matches_oracle(s)


relations = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5)


@settings(max_examples=40, deadline=None)
@given(relations, relations, relations)
def test_envelope_skeleton_matches_oracle_on_relation_semigroups(ra, rb, rc):
    s, _ = sl.relation_semigroup({"a": ra, "b": rb, "c": rc})
    try:
        oracle = sl.skeleton(sl.karoubi_envelope(s))
    except CapExceeded:
        reject()  # the oracle's own cap, not the package's; see the pinned test below
    direct = sl.envelope_skeleton(s)
    assert direct.objects == oracle.objects
    assert direct.arrows == oracle.arrows


def test_envelope_skeleton_where_the_whole_envelope_passes_its_cap():
    # |S| = 1290 with 295 idempotents: karoubi_envelope raises CapExceeded,
    # so the skeleton is checked against direct scans of the table
    s, _ = sl.relation_semigroup(
        {
            "a": {(0, 1), (3, 0), (1, 2)},
            "b": {(0, 0), (3, 1), (2, 3), (2, 2), (0, 1)},
            "c": {(0, 3), (2, 0), (3, 1), (1, 2), (2, 1)},
        }
    )
    assert s.size == 1290 and len(sl.idempotents(s)) == 295
    sk = sl.envelope_skeleton(s)
    green = sl.green_j(s)
    least = sorted(
        min(e for e in cls if s.is_idempotent(e))
        for cls, regular in zip(green.classes, green.regular)
        if regular
    )
    assert list(sk.objects) == least and len(least) == 6
    assert len(sk.arrows) == 308
    for e in sk.objects:
        for f in sk.objects:
            scan = [x for x in range(s.size) if s.mul(s.mul(e, x), f) == x]
            assert [x for _, x, _ in sk.hom(e, f)] == scan
    for i, e in enumerate(sk.objects):
        for f in sk.objects[i + 1 :]:
            assert not sl.objects_isomorphic(sk, e, f)


def test_envelope_skeleton_matches_oracle_without_zero(full2):
    s, _ = sl.syntactic_semigroup(full2)
    assert s.size == 1 and s.zero is None
    assert_skeleton_matches_oracle(s)
    assert sl.envelope_skeleton(s).arrows == ((0, 0, 0),)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_envelope_skeleton_matches_oracle_on_parsed_tables(seed, n_vertices):
    p = sl.random_presentation(seed, n_vertices, Alphabet(("a", "b")), 0.3)
    s, _ = sl.syntactic_semigroup(p)
    parsed = sl.parse_cayley_table(sl.render_cayley_table(s))
    assert_skeleton_matches_oracle(parsed)
    assert sl.envelope_skeleton(parsed).arrows == sl.envelope_skeleton(s).arrows


def test_object_isomorphism_is_reflexive_and_symmetric(even_env):
    _, cat = even_env
    for e in cat.objects:
        assert sl.objects_isomorphic(cat, e, e)
    for e in cat.objects:
        for f in cat.objects:
            assert sl.objects_isomorphic(cat, e, f) == sl.objects_isomorphic(
                cat, f, e
            )


def test_skeleton_golden(golden_env):
    s, cat = golden_env
    sk = sl.skeleton(cat)
    assert [s.witness_name(o) for o in sk.objects] == ["a", "bb"]
    assert sl.hom_size_matrix(sk) == [[2, 1], [1, 1]]


def test_skeleton_even(even_env):
    s, cat = even_env
    sk = sl.skeleton(cat)
    assert len(sk.objects) == 3
    assert sl.hom_size_matrix(sk) == [[2, 3, 1], [3, 7, 1], [1, 1, 1]]


def test_skeleton_is_idempotent(golden_env, even_env):
    for _, cat in (golden_env, even_env):
        once = sl.skeleton(cat)
        twice = sl.skeleton(once)
        assert once.objects == twice.objects
        assert once.arrows == twice.arrows


def test_isomorphic_to_itself_with_relabeled_objects(golden_env):
    _, cat = golden_env
    sk = sl.skeleton(cat)
    flipped = sl.FiniteCategory(
        tuple(reversed(sk.objects)),
        tuple(sorted(sk.arrows, reverse=True)),
        sk.mul,
        sk.name,
    )
    assert sl.categories_isomorphic(sk, flipped)


def test_nonisomorphic_categories(golden_env, even_env):
    golden_sk = sl.skeleton(golden_env[1])
    even_sk = sl.skeleton(even_env[1])
    assert not sl.categories_isomorphic(golden_sk, even_sk)


def relabeled(category, rng):
    """Copy of ``category`` under a permutation of its payloads, arrows shuffled."""
    size = 1 + max(x for arrow in category.arrows for x in arrow)
    perm = list(range(size))
    rng.shuffle(perm)
    inverse = {p: x for x, p in enumerate(perm)}
    objects = [perm[e] for e in category.objects]
    arrows = [tuple(perm[x] for x in arrow) for arrow in category.arrows]
    rng.shuffle(objects)
    rng.shuffle(arrows)
    mul = category.mul
    return sl.FiniteCategory(
        tuple(objects),
        tuple(arrows),
        lambda x, y: perm[mul(inverse[x], inverse[y])],
    )


small_relations = st.frozensets(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=3
)


def small_skeleton(ra, rb):
    s, _ = sl.relation_semigroup({"a": ra, "b": rb})
    sk = sl.envelope_skeleton(s)
    assume(len(sk.arrows) <= 8)
    return sk


@settings(max_examples=60, deadline=None)
@given(small_relations, small_relations, small_relations, small_relations, st.randoms())
def test_isomorphism_search_matches_naive_oracle(ra, rb, rc, rd, rng):
    c, d = small_skeleton(ra, rb), small_skeleton(rc, rd)
    copy = relabeled(c, rng)
    assert sl.categories_isomorphic(c, copy)
    assert naive_categories_isomorphic(c, copy)
    assert sl.categories_isomorphic(c, d) == naive_categories_isomorphic(c, d)
    assert sl.categories_isomorphic(copy, d) == naive_categories_isomorphic(c, d)


def bipartite_category(edges):
    """Identities plus one arrow per edge u -> v; no two edges compose.

    Objects are even payloads, the arrow of an edge has an odd payload,
    and a product with an identity is the other factor.
    """
    vertices = sorted({v for edge in edges for v in edge})
    arrows = [(2 * v, 2 * v, 2 * v) for v in vertices]
    arrows += [(2 * u, 2 * k + 1, 2 * v) for k, (u, v) in enumerate(edges)]
    return sl.FiniteCategory(
        tuple(2 * v for v in vertices),
        tuple(arrows),
        lambda x, y: y if x % 2 == 0 else x,
    )


def test_search_fits_candidates_to_assigned_identities():
    # Two 4-cycles against one 8-cycle, sources 0-3 and targets 4-7.
    # Every arrow of each kind gets the same refined color in both, so
    # only the search tells the categories apart.  It takes 28 nodes
    # when each assignment forces the identities at its ends and a
    # candidate must fit those already assigned; without the forcing it
    # took 3212, without the fit 8960.
    two_squares = bipartite_category(
        [(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)]
    )
    octagon = bipartite_category(
        [(0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 4)]
    )
    assert not naive_categories_isomorphic(two_squares, octagon)
    assert not sl.categories_isomorphic(two_squares, octagon, budget=28)
    assert sl.categories_isomorphic(octagon, relabeled(octagon, random.Random(0)))


def one_object_group(mul):
    """Z3 x Z3 x Z3 with product ``mul`` on (a, b, c), as one-object category;
    payload 9a + 3b + c, so the identity (0, 0, 0) is 0."""
    triples = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]

    def encoded(x, y):
        a, b, c = mul(triples[x], triples[y])
        return 9 * (a % 3) + 3 * (b % 3) + c % 3

    return sl.FiniteCategory((0,), tuple((0, x, 0) for x in range(27)), encoded)


def test_search_forces_composites():
    # Z3^3 against the Heisenberg group mod 3: both have exponent 3, so
    # color refinement gives each the same two colors, identity and the
    # rest, and only forcing the images of composites tells them apart.
    # Dropping both forcing loops of the search accepts this pair;
    # dropping either one alone still rejects it.
    abelian = one_object_group(lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2]))
    heisenberg = one_object_group(
        lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])
    )
    comps = _composition(abelian), _composition(heisenberg)
    colors = _refine_colors(comps)
    assert [sorted(set(cs)) for cs in colors] == [[0, 1], [0, 1]]
    assert sorted(colors[0]) == sorted(colors[1])
    assert not sl.categories_isomorphic(abelian, heisenberg)
    assert sl.categories_isomorphic(abelian, abelian)
    assert sl.categories_isomorphic(heisenberg, heisenberg)


def test_empty_categories_are_isomorphic():
    empty = sl.FiniteCategory((), (), lambda x, y: x)
    assert sl.categories_isomorphic(empty, empty)


def test_search_frees_its_state_without_the_cyclic_gc(even):
    s, _ = sl.syntactic_semigroup(even)
    sk = sl.envelope_skeleton(s)
    gc.collect()
    gc.disable()
    try:
        assert sl.categories_isomorphic(sk, relabeled(sk, random.Random(0)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_budget_raises(golden_env):
    sk = sl.skeleton(golden_env[1])
    with pytest.raises(SearchTimeout):
        sl.categories_isomorphic(sk, sk, budget=0)


def test_equivalence_golden_period2(golden_env, period2):
    s2, _ = sl.syntactic_semigroup(period2)
    env2 = sl.karoubi_envelope(s2)
    assert sl.categories_equivalent(golden_env[1], env2)


def test_equivalence_rejects_full_shift_vs_golden(golden_env, full2):
    sf, _ = sl.syntactic_semigroup(full2)
    envf = sl.karoubi_envelope(sf)
    assert not sl.categories_equivalent(golden_env[1], envf)


def test_dump_category_golden_skeleton_pinned(golden_env):
    sk = sl.skeleton(golden_env[1])
    assert sl.dump_category(sk) == (
        "objects a bb\n"
        "arrow a a a\n"
        "arrow a bb a\n"
        "arrow a bb bb\n"
        "arrow bb bb a\n"
        "arrow bb bb bb\n"
        "compose a:a:a a:a:a = a:a:a\n"
        "compose a:a:a a:bb:a = a:bb:a\n"
        "compose a:a:a a:bb:bb = a:bb:bb\n"
        "compose a:bb:a a:a:a = a:bb:a\n"
        "compose a:bb:a a:bb:a = a:bb:a\n"
        "compose a:bb:a a:bb:bb = a:bb:bb\n"
        "compose a:bb:bb bb:bb:a = a:bb:a\n"
        "compose a:bb:bb bb:bb:bb = a:bb:bb\n"
        "compose bb:bb:a a:a:a = bb:bb:a\n"
        "compose bb:bb:a a:bb:a = bb:bb:a\n"
        "compose bb:bb:a a:bb:bb = bb:bb:bb\n"
        "compose bb:bb:bb bb:bb:a = bb:bb:a\n"
        "compose bb:bb:bb bb:bb:bb = bb:bb:bb\n"
    )
