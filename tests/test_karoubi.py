import gc
import inspect
import io
import random
import sys

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import soficlab as sl
from soficlab import cli, flowlab, karoubi
from soficlab.errors import CapExceeded, SearchTimeout, UnknownObject
from soficlab.karoubi import _composition
from soficlab.shift import Alphabet

from oracles import (
    naive_categories_isomorphic,
    naive_dump_category,
    refined_categories_isomorphic,
)


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
    assert "table" not in vars(s)
    assert list(cat.objects) == sl.idempotents(s)
    assert len(cat.objects) == 4


def test_every_arrow_satisfies_the_sandwich_law(golden_env, even_env):
    for s, cat in (golden_env, even_env):
        for e, x, f in cat.arrows:
            assert s.table[s.table[e][x]][f] == x


def test_arrow_count_formula(golden_env, even_env):
    # count, per element, the (e, f) pairs that fix it
    for s, cat in (golden_env, even_env):
        idem = sl.idempotents(s)
        expected = sum(
            1
            for x in range(s.size)
            for e in idem
            for f in idem
            if s.table[s.table[e][x]][f] == x
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


def test_envelope_cap(golden, monkeypatch):
    s, _ = sl.syntactic_semigroup(golden)
    monkeypatch.setattr(karoubi, "DEFAULT_ARROW_CAP", 3)
    with pytest.raises(CapExceeded):
        sl.karoubi_envelope(s)


def test_envelope_cap_stops_after_one_hom_set(golden, monkeypatch):
    # golden's first hom-set has 2 arrows, so a cap of 1 is passed after
    # the first idempotent's batch of products, not after all four
    s, _ = sl.syntactic_semigroup(golden)
    batches = []

    def counted(xs, js):
        batches.append(js)
        return products(xs, js)

    products = s.products
    monkeypatch.setattr(s, "products", counted)
    monkeypatch.setattr(karoubi, "DEFAULT_ARROW_CAP", 1)
    with pytest.raises(CapExceeded, match="envelope grew past 1 arrows"):
        sl.karoubi_envelope(s)
    assert len(batches) == 1
    assert "table" not in vars(s)


def test_pair_cap_refuses_before_any_product(golden, monkeypatch):
    # golden's skeleton, hom sizes [[2, 1], [1, 1]]: 3 * 3 pairs through
    # a and 2 * 2 through bb
    assert karoubi.DEFAULT_PAIR_CAP > 12_294_754  # the most counted so far
    s, _ = sl.syntactic_semigroup(golden)
    sk = sl.envelope_skeleton(s)
    unlimited = _composition(sk)

    def refuse(xs, ts):
        raise AssertionError("a product was read")

    category = sl.FiniteCategory(sk.objects, sk.arrows, s.product, s.witness_name, refuse)
    monkeypatch.setattr(karoubi, "DEFAULT_PAIR_CAP", 12)
    with pytest.raises(
        CapExceeded, match=r"^composition table: 13 composable pairs, past the cap of 12$"
    ):
        _composition(category)
    monkeypatch.setattr(karoubi, "DEFAULT_PAIR_CAP", 13)
    assert _composition(sk) == unlimited


def test_pair_cap_stops_compare_and_karoubi_before_any_output(monkeypatch):
    monkeypatch.setattr(karoubi, "DEFAULT_PAIR_CAP", 12)
    for argv in (["karoubi", "--builtin", "golden"],
                 ["compare", "--builtin", "golden", "--builtin", "golden"]):
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, out=out, err=err) == 3
        assert out.getvalue() == ""
        assert err.getvalue() == (
            "error: composition table: 13 composable pairs, past the cap of 12\n"
        )


def test_envelope_skeleton_golden(golden):
    s, _ = sl.syntactic_semigroup(golden)
    sk = sl.envelope_skeleton(s)
    assert [s.witness_name(o) for o in sk.objects] == ["a", "bb"]
    assert sl.hom_size_matrix(sk) == [[2, 1], [1, 1]]
    assert len(sk.arrows) == 5


def test_envelope_skeleton_cap(golden, monkeypatch):
    s, _ = sl.syntactic_semigroup(golden)
    monkeypatch.setattr(karoubi, "DEFAULT_ARROW_CAP", 5)
    assert len(sl.envelope_skeleton(s).arrows) == 5
    monkeypatch.setattr(karoubi, "DEFAULT_ARROW_CAP", 4)
    with pytest.raises(CapExceeded, match="envelope skeleton grew past 4 arrows"):
        sl.envelope_skeleton(s)


def test_envelope_skeleton_cap_stops_the_scans(golden, monkeypatch):
    # golden's first hom-set has 2 arrows, so a cap of 1 is passed after
    # one hom-set is built, not after all four
    s, _ = sl.syntactic_semigroup(golden)
    built = []

    def counted(semigroup, e_s, f):
        built.append(f)
        return hom_set(semigroup, e_s, f)

    hom_set = karoubi._hom_set
    monkeypatch.setattr(karoubi, "_hom_set", counted)
    monkeypatch.setattr(karoubi, "DEFAULT_ARROW_CAP", 1)
    with pytest.raises(CapExceeded):
        sl.envelope_skeleton(s)
    assert len(built) == 1
    assert "table" not in vars(s)


def test_composites_through_the_cayley_graph_match_the_table():
    # the skeleton multiplies payloads in batches along tree paths; the
    # same category with the table's product goes one pair at a time
    ab = Alphabet(("a", "b"))
    inputs = [(seed, 2 + seed % 5, 0.3) for seed in range(20)] + [(224, 6, 0.25)]
    for seed, vertices, density in inputs:
        s, _ = sl.syntactic_semigroup(sl.random_presentation(seed, vertices, ab, density))
        sk = sl.envelope_skeleton(s)
        table = s.table
        by_table = sl.FiniteCategory(
            sk.objects, sk.arrows, lambda i, j: table[i][j], sk.name
        )
        assert _composition(sk) == _composition(by_table)
        assert sl.dump_category(sk) == sl.dump_category(by_table)


def assert_skeleton_matches_scans(s, sk):
    """Objects are the least idempotent of each regular J-class, pairwise
    non-isomorphic, and each hom-set is a direct scan of the table."""
    green = sl.green_j(s)
    least = sorted(
        min(e for e in cls if s.is_idempotent(e))
        for cls, regular in zip(green.classes, green.regular)
        if regular
    )
    assert list(sk.objects) == least
    for e in sk.objects:
        for f in sk.objects:
            scan = [x for x in range(s.size) if s.table[s.table[e][x]][f] == x]
            assert [x for _, x, _ in sk.hom(e, f)] == scan
    for i, e in enumerate(sk.objects):
        for f in sk.objects[i + 1 :]:
            assert not sl.objects_isomorphic(sk, e, f)


def assert_skeleton_matches_oracle(semigroup):
    direct = sl.envelope_skeleton(semigroup)
    try:
        oracle = sl.skeleton(sl.karoubi_envelope(semigroup))
    except CapExceeded:
        # the oracle's own cap, not the package's: check against scans instead
        assert_skeleton_matches_scans(semigroup, direct)
        return
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


def test_envelope_skeleton_where_the_whole_envelope_passes_its_cap(monkeypatch):
    # |S| = 1290 with 295 idempotents: karoubi_envelope passes its default
    # cap, so the skeleton is checked against the envelope under a larger
    # cap and against direct scans of the table
    s, _ = sl.relation_semigroup(
        {
            "a": {(0, 1), (3, 0), (1, 2)},
            "b": {(0, 0), (3, 1), (2, 3), (2, 2), (0, 1)},
            "c": {(0, 3), (2, 0), (3, 1), (1, 2), (2, 1)},
        }
    )
    assert s.size == 1290 and len(sl.idempotents(s)) == 295
    sk = sl.envelope_skeleton(s)
    assert len(sk.objects) == 6
    assert len(sk.arrows) == 308
    with pytest.raises(CapExceeded):
        sl.karoubi_envelope(s)
    monkeypatch.setattr(karoubi, "DEFAULT_ARROW_CAP", 400_000)
    oracle = sl.skeleton(sl.karoubi_envelope(s))
    assert sk.objects == oracle.objects
    assert sk.arrows == oracle.arrows
    assert_skeleton_matches_scans(s, sk)


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


def two_squares_and_octagon():
    """Two 4-cycles and one 8-cycle, sources 0-3 and targets 4-7."""
    two_squares = bipartite_category(
        [(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)]
    )
    octagon = bipartite_category(
        [(0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 4)]
    )
    return two_squares, octagon


def test_search_fits_candidates_to_assigned_identities(monkeypatch):
    # Every arrow in both has one right stabilizer, the identity at its
    # target, so only the search tells the categories apart.  It takes
    # 24 nodes when each identity goes to one whose hom-set sizes with
    # those placed agree, and each is placed after one it shares a
    # hom-set with; without that fit it took 116512 nodes, and with the
    # identities in index order, every source before any target, 208.
    two_squares, octagon = two_squares_and_octagon()
    assert not naive_categories_isomorphic(two_squares, octagon)
    assert sl.categories_isomorphic(octagon, relabeled(octagon, random.Random(0)))
    monkeypatch.setattr(karoubi, "DEFAULT_SEARCH_BUDGET", 24)
    assert not sl.categories_isomorphic(two_squares, octagon)
    monkeypatch.setattr(karoubi, "DEFAULT_SEARCH_BUDGET", 23)
    with pytest.raises(SearchTimeout):
        sl.categories_isomorphic(two_squares, octagon)


def cycles(count, length):
    """``count`` disjoint cycles of ``length`` edges as a bipartite
    category: source j of a cycle has edges to its targets j and j + 1."""
    half = length // 2
    edges = []
    for c in range(count):
        base = c * length
        for j in range(half):
            source = base + j
            edges += [(source, base + half + j), (source, base + half + (j + 1) % half)]
    return bipartite_category(edges)


def test_search_places_identities_breadth_first(monkeypatch):
    # The search places each identity after one it shares a non-empty
    # hom-set with.  With the identities in index order, every source
    # before any target, the first pair took more than 500,000 nodes.
    two, one = cycles(2, 12), cycles(1, 24)
    assert sl.categories_isomorphic(one, relabeled(one, random.Random(0)))
    monkeypatch.setattr(karoubi, "DEFAULT_SEARCH_BUDGET", 264)
    assert not sl.categories_isomorphic(two, one)
    monkeypatch.setattr(karoubi, "DEFAULT_SEARCH_BUDGET", 263)
    with pytest.raises(SearchTimeout):
        sl.categories_isomorphic(two, one)


def one_object_group(mul):
    """Z3 x Z3 x Z3 with product ``mul`` on (a, b, c), as one-object category;
    payload 9a + 3b + c, so the identity (0, 0, 0) is 0."""
    triples = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]

    def encoded(x, y):
        a, b, c = mul(triples[x], triples[y])
        return 9 * (a % 3) + 3 * (b % 3) + c % 3

    return sl.FiniteCategory((0,), tuple((0, x, 0) for x in range(27)), encoded)


def z3_cubed_and_heisenberg():
    abelian = one_object_group(lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2]))
    heisenberg = one_object_group(
        lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])
    )
    return abelian, heisenberg


def stabilizer_counts(category):
    """The search's colors, sorted: per arrow i, the arrows j with i·j = i."""
    after = _composition(category)[3]
    return sorted(after[i].count(i) for i in range(len(after)))


def test_search_forces_composites():
    # Z3^3 against the Heisenberg group mod 3: in a group every arrow has
    # one right stabilizer, the identity, so only forcing the images of
    # composites tells them apart.  Dropping both forcing loops of the
    # search accepts this pair; dropping either one alone still rejects it.
    abelian, heisenberg = z3_cubed_and_heisenberg()
    assert stabilizer_counts(abelian) == stabilizer_counts(heisenberg) == [1] * 27
    assert not sl.categories_isomorphic(abelian, heisenberg)
    assert sl.categories_isomorphic(abelian, abelian)
    assert sl.categories_isomorphic(heisenberg, heisenberg)
    # envelope skeletons of relation semigroups, of one shape and with
    # equal colors, that are not isomorphic; the search accepts the first
    # pair without its loop over the j·i, the second without its loop
    # over the i·j or its check of an i·j already assigned, and the third
    # without its check of a j·i already assigned
    for g, h, shape in (
        (
            {
                "a": [(1, 1), (2, 0), (2, 1), (2, 2)],
                "b": [],
                "c": [(0, 2), (1, 1), (2, 0)],
            },
            {
                "a": [(0, 1), (2, 2), (3, 1)],
                "b": [(0, 3), (1, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 0)],
            },
            (3, 17),
        ),
        (
            {
                "a": [(0, 2), (1, 1), (2, 2)],
                "b": [(0, 2), (2, 1)],
                "c": [(0, 1), (1, 1), (2, 0)],
            },
            {"a": [(1, 0), (2, 2)], "b": [(0, 1), (2, 2)], "c": [(0, 0), (1, 2)]},
            (4, 29),
        ),
        (
            {
                "a": [(0, 0), (1, 0), (1, 1)],
                "b": [(0, 0), (1, 1)],
                "c": [(0, 2), (2, 2)],
            },
            {"a": [(1, 1), (1, 2)], "b": [(2, 2)], "c": [(0, 0), (0, 2), (1, 1)]},
            (4, 25),
        ),
    ):
        c, d = (sl.envelope_skeleton(sl.relation_semigroup(r)[0]) for r in (g, h))
        for sk in (c, d):
            assert (len(sk.objects), len(sk.arrows)) == shape
        assert stabilizer_counts(c) == stabilizer_counts(d)
        assert not sl.categories_isomorphic(c, d)
        assert not refined_categories_isomorphic(c, d)


def band_and_z2():
    """{1, z} with z z = z and Z2 = {1, u} with u u = 1, as one-object
    categories."""

    def monoid(square):
        return sl.FiniteCategory(
            (0,), ((0, 0, 0), (0, 1, 0)), lambda x, y: square if x and y else x + y
        )

    return monoid(1), monoid(0)


def test_search_matches_the_refined_oracle(golden, even):
    # flow moves of random inputs, up to 293 arrows; unrelated pairs of
    # one shape; and the pinned pairs
    ab = Alphabet(("a", "b"))
    inputs = [(s, 2 + s % 5, 0.3) for s in range(30)]
    inputs += [(224, 6, 0.25), (39, 5, 0.25), (3357, 5, 0.25)]
    pairs = []
    by_shape: dict = {}
    for seed, vertices, density in inputs:
        p = sl.random_presentation(seed, vertices, ab, density)
        sk = flowlab._skeleton_of(p)
        for q in (sl.symbol_expansion(p, "a"), sl.higher_block(p, 2)):
            pairs.append((sk, flowlab._skeleton_of(q)))
        by_shape.setdefault((len(sk.objects), len(sk.arrows)), []).append(sk)
    for same in by_shape.values():
        pairs += [(c, d) for k, c in enumerate(same[:8]) for d in same[k + 1 : 8]]
    # such pairs are rarely not isomorphic: three that are not
    for left, right in (
        ((22, 5, 0.25), (115, 5, 0.25)),  # 3 objects, 23 arrows
        ((86, 3, 0.3), (228, 4, 0.25)),  # 3 objects, 28 arrows
        ((2, 6, 0.25), (187, 4, 0.3)),  # 4 objects, 63 arrows
    ):
        pairs.append(tuple(
            flowlab._skeleton_of(sl.random_presentation(seed, vertices, ab, density))
            for seed, vertices, density in (left, right)
        ))
    pairs += [
        (flowlab._skeleton_of(golden), flowlab._skeleton_of(even)),
        two_squares_and_octagon(),
        z3_cubed_and_heisenberg(),
        band_and_z2(),
    ]
    answers = []
    for c, d in pairs:
        answers.append(sl.categories_isomorphic(c, d))
        assert answers[-1] == refined_categories_isomorphic(c, d)
    assert answers.count(False) >= 7
    assert max(len(c.arrows) for c, _ in pairs) == 293


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


def test_search_depth_does_not_use_the_python_stack():
    # the chain semilattice of 8 elements: 8 objects, 204 arrows.  A search
    # that recursed once per decision needed 70 frames above its caller on it
    s, _ = sl.relation_semigroup({f"a{i}": [(x, x) for x in range(i + 1)] for i in range(8)})
    sk = sl.envelope_skeleton(s)
    assert (len(sk.objects), len(sk.arrows)) == (8, 204)
    copy = relabeled(sk, random.Random(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        assert sl.categories_isomorphic(sk, copy)
    finally:
        sys.setrecursionlimit(limit)


def test_search_budget_raises(golden_env, monkeypatch):
    sk = sl.skeleton(golden_env[1])
    monkeypatch.setattr(karoubi, "DEFAULT_SEARCH_BUDGET", 0)
    with pytest.raises(SearchTimeout):
        sl.categories_isomorphic(sk, sk)


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


def test_dump_category_matches_all_pairs_oracle():
    checked = 0
    for seed in range(150):
        p = sl.random_presentation(seed, 2 + seed % 3, Alphabet(("a", "b")), 0.15)
        s, _ = sl.syntactic_semigroup(p)
        if s.size <= 60:
            for category in (sl.envelope_skeleton(s), sl.karoubi_envelope(s)):
                assert sl.dump_category(category) == naive_dump_category(category)
            checked += s.size > 1
    assert checked >= 100
