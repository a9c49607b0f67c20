"""Karoubi envelopes of finite semigroups and finite-category comparison.

The envelope of a semigroup S has the idempotents of S as objects and
triples (e, s, f) with e s f = s as arrows from e to f; composition
multiplies payloads in diagram order, (e, s, f)(f, t, g) = (e, s t, g),
and (e, e, e) is the identity at e.  Equivalence of such categories is
decided structurally: collapse each category to a skeleton (one object
per isomorphism class), then search for an isomorphism of the skeletons.

The search stores only the pairs of arrows that compose: for each arrow
x, the index of x y for every arrow y leaving the target of x.  It
assigns arrows by backtracking, so that two arrows compose exactly when
their images do.  An arrow i is colored by its number of arrows j with
i j = i, and goes to an arrow of its color.  The search places each
object on one whose hom-set sizes with those placed agree, each after
one it shares a non-empty hom-set with where there is one, then each
arrow on a free arrow of its color in its image hom-set.  Objects need
no map of their own: an arrow's ends are the identities it composes
with, so assigning an arrow assigns those identities.  The search keeps
its own stack of decisions, so its depth does not use the Python stack.
``dump_category`` prints the composites from the same lists.  Their
number is counted from the hom-sets before any product is read, and
past ``DEFAULT_PAIR_CAP`` both refuse with CapExceeded.

Two idempotents are isomorphic in the envelope exactly when they are
D-related, and D = J in a finite semigroup, so ``envelope_skeleton``
builds the skeleton directly: one object per regular J-class, its least
idempotent, and the hom-set e S f, the image of e S along f's path,
between each pair.  It never builds the whole envelope.
``karoubi_envelope``, ``objects_isomorphic`` and ``skeleton`` take the
general route and serve as its oracle; the envelope's arrows from e to
f are the fixed points of right multiplication by f in e S, so the two
routes share no hom-set code.  Neither reads the n x n table.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress, repeat
from typing import Callable, Iterator, Sequence

from .errors import CapExceeded, SearchTimeout, UnknownObject
from .semigroups import FiniteSemigroup, idempotents

Arrow = tuple[int, int, int]
# products(xs, ts): for each t in ts, x t for every x in xs
Products = Callable[[Sequence[int], Sequence[int]], Sequence[Sequence[int]]]

DEFAULT_ARROW_CAP = 200_000
# composable pairs; the most counted on any input so far is 12,294,754
DEFAULT_PAIR_CAP = 20_000_000
DEFAULT_SEARCH_BUDGET = 500_000


class FiniteCategory:
    """Finite category whose objects are idempotent payloads.

    ``mul`` multiplies payloads; arrows are (source, payload, target)
    triples closed under composition.  ``name`` renders payloads for
    dumps.  ``products(xs, ts)`` gives, for each payload t in ts, x t
    for every payload x in xs: by default one ``mul`` call each; a
    semigroup passes its own, which reads them in batches.
    """

    def __init__(
        self,
        objects: tuple[int, ...],
        arrows: tuple[Arrow, ...],
        mul: Callable[[int, int], int],
        name: Callable[[int], str] = str,
        products: Products | None = None,
    ):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.mul = mul
        self.name = name
        self.products = products or (
            lambda xs, ts: [[mul(x, t) for x in xs] for t in ts]
        )
        self._object_set = frozenset(self.objects)
        hom: dict[tuple[int, int], list[Arrow]] = {}
        for arrow in self.arrows:
            hom.setdefault((arrow[0], arrow[2]), []).append(arrow)
        self._hom = {k: tuple(v) for k, v in hom.items()}

    def check_object(self, e: int) -> int:
        if e not in self._object_set:
            # self.name may not be defined on foreign payloads
            raise UnknownObject(f"{e!r} is not an object")
        return e

    def hom(self, e: int, f: int) -> tuple[Arrow, ...]:
        self.check_object(e)
        self.check_object(f)
        return self._hom.get((e, f), ())

    def identity(self, e: int) -> Arrow:
        self.check_object(e)
        return (e, e, e)

    def compose(self, x: Arrow, y: Arrow) -> Arrow:
        if x[2] != y[0]:
            raise ValueError("arrows are not consecutive")
        return (x[0], self.mul(x[1], y[1]), y[2])


def karoubi_envelope(semigroup: FiniteSemigroup) -> FiniteCategory:
    """Envelope category of ``semigroup``; see the module docstring.

    e s f = s exactly when s is in e S and s f = s: e S is e's row, and
    s f is read for every idempotent f in one batch.  Every hom-set holds
    e f, so checking ``DEFAULT_ARROW_CAP`` per hom-set bounds the work.
    """
    cap = DEFAULT_ARROW_CAP
    objects = tuple(idempotents(semigroup))
    arrows: list[Arrow] = []
    for e in objects:
        e_s = sorted(set(semigroup.row(e)))
        for f, column in zip(objects, semigroup.products(e_s, objects)):
            arrows.extend((e, s, f) for s, sf in zip(e_s, column) if s == sf)
            if len(arrows) > cap:
                raise CapExceeded(f"envelope grew past {cap} arrows")
    return FiniteCategory(
        objects,
        tuple(arrows),
        semigroup.product,
        semigroup.witness_name,
        semigroup.products,
    )


def envelope_skeleton(semigroup: FiniteSemigroup) -> FiniteCategory:
    """Skeleton of the envelope of ``semigroup``, built from its J-classes.

    Objects are the least idempotent of each regular J-class, in
    ascending order; the arrows from e to f are e S f in ascending order.
    These are the objects and arrows of
    ``skeleton(karoubi_envelope(semigroup))``.  e S is e's row of the
    table, built alone by the tree recurrence, and e S f is its image
    walked along f's path.  Every hom-set holds at least e e f, so
    checking ``DEFAULT_ARROW_CAP`` per hom-set bounds the work by the cap
    times |S|.
    """
    cap = DEFAULT_ARROW_CAP
    classes, regular, _ = semigroup.j_classes
    idempotent = semigroup.idempotent.__getitem__
    objects = sorted(min(filter(idempotent, cls)) for cls in compress(classes, regular))
    arrows: list[Arrow] = []
    for e in objects:
        e_s = set(semigroup.row(e))
        for f in objects:
            arrows.extend((e, s, f) for s in _hom_set(semigroup, e_s, f))
            if len(arrows) > cap:
                raise CapExceeded(f"envelope skeleton grew past {cap} arrows")
    return FiniteCategory(
        tuple(objects),
        tuple(arrows),
        semigroup.product,
        semigroup.witness_name,
        semigroup.products,
    )


def _hom_set(semigroup: FiniteSemigroup, e_s: set[int], f: int) -> list[int]:
    """e S f in ascending order: the image of the set e S along f's path."""
    xs = e_s
    for column in semigroup.right_steps(f):
        xs = {column[x] for x in xs}
    return sorted(xs)


def objects_isomorphic(category: FiniteCategory, e: int, f: int) -> bool:
    """Whether some pair of arrows composes to both identities."""
    category.check_object(e)
    category.check_object(f)
    if e == f:
        return True
    id_e = category.identity(e)
    id_f = category.identity(f)
    for x in category.hom(e, f):
        for y in category.hom(f, e):
            if category.compose(x, y) == id_e and category.compose(y, x) == id_f:
                return True
    return False


def skeleton(category: FiniteCategory) -> FiniteCategory:
    """Full subcategory on one representative per object-isomorphism class.

    The representative is the first member in ambient object order, so
    repeated application is stable.
    """
    reps: list[int] = []
    for o in category.objects:
        if not any(objects_isomorphic(category, o, r) for r in reps):
            reps.append(o)
    keep = set(reps)
    arrows = tuple(a for a in category.arrows if a[0] in keep and a[2] in keep)
    return FiniteCategory(
        tuple(reps), arrows, category.mul, category.name, category.products
    )


def hom_size_matrix(category: FiniteCategory) -> list[list[int]]:
    return [
        [len(category.hom(e, f)) for f in category.objects]
        for e in category.objects
    ]


def _composition(category: FiniteCategory) -> tuple[list, ...]:
    """Per arrow: its source and target identities, its place among the
    arrows leaving its source, its composites with those leaving its
    target, and, for an identity, the arrows entering it.  ``after[x]``
    lists the arrows leaving an identity x, and i·j is
    ``after[i][pos[j]]`` when ``dst[i] == src[j]``.

    The composites are read a column at a time: the payloads of all
    arrows i entering f are multiplied together by the payload of each
    arrow j leaving f, and each column is indexed in one C-level pass.
    Their number, the sum over objects f of (arrows into f) x (arrows
    out of f), is known first: past ``DEFAULT_PAIR_CAP`` it raises
    CapExceeded before any product is read.
    """
    arrows = category.arrows
    index = {a: i for i, a in enumerate(arrows)}
    src = [index[e, e, e] for e, _, _ in arrows]
    dst = [index[f, f, f] for _, _, f in arrows]
    leaving: list[list[int]] = [[] for _ in arrows]
    into: list[list[int]] = [[] for _ in arrows]
    pos = []
    for j, (x, y) in enumerate(zip(src, dst)):
        pos.append(len(leaving[x]))
        leaving[x].append(j)
        into[y].append(j)
    pairs = sum(len(entering) * len(out) for entering, out in zip(into, leaving))
    if pairs > DEFAULT_PAIR_CAP:
        raise CapExceeded(
            f"composition table: {pairs} composable pairs,"
            f" past the cap of {DEFAULT_PAIR_CAP}"
        )
    products = category.products
    after: list[tuple[int, ...]] = [()] * len(arrows)
    for entering, leaving_y in zip(into, leaving):
        if not entering:  # not an identity
            continue
        sources = [arrows[i][0] for i in entering]
        payloads = [arrows[i][1] for i in entering]
        out = [arrows[j] for j in leaving_y]
        columns = [
            list(map(index.__getitem__, zip(sources, column, repeat(g))))
            for (_, _, g), column in zip(out, products(payloads, [t for _, t, _ in out]))
        ]
        for i, composites in zip(entering, zip(*columns)):
            after[i] = composites
    return src, dst, pos, after, into


def categories_isomorphic(c: FiniteCategory, d: FiniteCategory) -> bool:
    """Whether an invertible composition-preserving arrow bijection exists.

    Each arrow i is colored by its number of right stabilizers, the
    arrows j with i·j = i, which any isomorphism keeps; if the two sides'
    colors differ as multisets, the answer is False.  Otherwise a
    backtracking search, most constrained first, assigns each arrow to a
    free arrow of its color.  Objects follow from identities: the one
    identity x with x·i defined is the identity at the source of i, so
    σx is the identity at the source of σi.  An assignment forces the
    identities at its ends and, for each assigned arrow it composes with,
    the image of the composite, which must exist.  Identities are placed
    first, breadth first over the non-empty hom-sets between them, each
    on one whose hom-set sizes with those placed agree; then ``pick``
    takes an arrow of the class (hom-set and color) with the fewest
    unassigned arrows, read from a count per class.  The search keeps its
    own stack of decisions, not the Python stack.  Its answer is exact;
    it raises SearchTimeout when it attempts more than
    ``DEFAULT_SEARCH_BUDGET`` assignments.
    """
    if len(c.objects) != len(d.objects) or len(c.arrows) != len(d.arrows):
        return False
    comps = _composition(c), _composition(d)
    color_a, color_b = (
        [after[i].count(i) for i in range(len(after))] for *_, after, _ in comps
    )
    if sorted(color_a) != sorted(color_b):
        return False
    budget = DEFAULT_SEARCH_BUDGET
    (src_a, dst_a, pos_a, after_a, into_a), (src_b, dst_b, pos_b, after_b, _) = comps
    n = len(src_a)
    sigma = [-1] * n
    used = [False] * n
    # c's classes of a hom-set and a color, and how many of each one's
    # arrows are unassigned: as many as the free arrows of its image, once
    # the objects are placed, if the pair is isomorphic
    homs_a: dict[tuple[int, int, int], list[int]] = {}
    for i, key in enumerate(zip(src_a, dst_a, color_a)):
        homs_a.setdefault(key, []).append(i)
    groups = list(homs_a.values())
    hom_of = [0] * n
    for g, arrows in enumerate(groups):
        for i in arrows:
            hom_of[i] = g
    left = list(map(len, groups))

    def assign(i: int, u: int, trail: list) -> bool:
        queue = [(i, u)]
        while queue:
            i, u = queue.pop()
            if sigma[i] != -1:
                if sigma[i] != u:
                    return False
                continue
            if used[u] or color_a[i] != color_b[u]:
                return False
            sigma[i] = u
            used[u] = True
            left[hom_of[i]] -= 1
            trail.append(i)
            x, y, p, q = src_a[i], dst_a[i], src_b[u], dst_b[u]
            queue += (x, p), (y, q)
            for j, k in zip(after_a[y], after_a[i]):  # k = i·j
                v = sigma[j]
                if v != -1:
                    if src_b[v] != q:
                        return False
                    w = after_b[u][pos_b[v]]
                    if sigma[k] == -1:
                        queue.append((k, w))
                    elif sigma[k] != w:
                        return False
            for j in into_a[x]:  # j·i
                v = sigma[j]
                if v != -1:
                    # only an early exit, which keeps pos_b[u] in range: the
                    # (x, p) queued above clashes with the image j forced on
                    # x (never seen to fire: the i·j loop meets a loop i first)
                    if dst_b[v] != p:
                        return False
                    k, w = after_a[j][pos_a[i]], after_b[v][pos_b[u]]
                    if sigma[k] == -1:
                        queue.append((k, w))
                    elif sigma[k] != w:
                        return False
        return True

    homs_b: dict[tuple[int, int, int], list[int]] = {}
    for u, key in enumerate(zip(src_b, dst_b, color_b)):
        homs_b.setdefault(key, []).append(u)
    size_a: defaultdict[tuple[int, int], int] = defaultdict(int)
    size_b: defaultdict[tuple[int, int], int] = defaultdict(int)
    for sizes, homs in ((size_a, homs_a), (size_b, homs_b)):
        for (x, y, _), arrows in homs.items():
            sizes[x, y] += len(arrows)
    # c's identities breadth first over the non-empty hom-sets between
    # them, roots in index order: each comes after one it shares a hom-set
    # with, where there is one, so the hom-set sizes to those placed
    # already narrow its candidates
    identities = [i for i in range(n) if src_a[i] == i]
    ids_a: list[int] = []
    seen: set[int] = set()
    for root in identities:
        if root not in seen:
            seen.add(root)
            queue = [root]
            for x in queue:
                for y in identities:
                    if y not in seen and (size_a[x, y] or size_a[y, x]):
                        seen.add(y)
                        queue.append(y)
            ids_a += queue
    ids_b = [u for u in range(n) if src_b[u] == u]

    def pick() -> tuple[int, list[int]] | None:
        """The next identity and those it may go to; once all are
        placed, an arrow of the class with the fewest unassigned
        arrows, and the free arrows of its image."""
        for x in ids_a:
            if sigma[x] == -1:
                ends = [(y, sigma[y]) for y in ids_a if sigma[y] != -1]
                return x, [
                    p
                    for p in ids_b
                    if not used[p]
                    and all(
                        size_b[p, q] == size_a[x, y]
                        and size_b[q, p] == size_a[y, x]
                        for y, q in ends + [(x, p)]
                    )
                ]
        count, g = min(((k, g) for g, k in enumerate(left) if k), default=(0, -1))
        if not count:
            return None
        i = next(i for i in groups[g] if sigma[i] == -1)
        image = homs_b.get((sigma[src_a[i]], sigma[dst_a[i]], color_a[i]), ())
        return i, [u for u in image if not used[u]]

    # one level per decision: its arrow, its untried candidates, and the
    # trail of the candidate being tried, undone before the next one
    levels: list[tuple[int, Iterator[int], list[int]]] = []
    nodes = 0
    while (best := pick()) is not None:
        levels.append((best[0], iter(best[1]), []))
        # try the deepest level's next candidate; retreat past spent levels
        while levels:
            i, fits, trail = levels[-1]
            while trail:  # undo the candidate tried last
                j = trail.pop()
                used[sigma[j]] = False
                sigma[j] = -1
                left[hom_of[j]] += 1
            u = next(fits, None)
            if u is None:
                levels.pop()
                continue
            nodes += 1
            if nodes > budget:
                raise SearchTimeout(f"isomorphism search passed {budget} nodes")
            if assign(i, u, trail):
                break
        if not levels:
            return False
    return True


def categories_equivalent(c: FiniteCategory, d: FiniteCategory) -> bool:
    """Equivalence test for finite categories: are the skeletons isomorphic?"""
    return categories_isomorphic(skeleton(c), skeleton(d))


def dump_chunks(category: FiniteCategory) -> Iterator[str]:
    """Deterministic text dump: objects, arrows, and all composites.

    The objects and arrows come first, in one chunk; then one chunk of
    lines per arrow x in order: x y for each arrow y leaving the target
    of x, read from the search's composition lists.  A writer that takes
    the chunks one by one holds only those lists and one chunk.
    """
    name = category.name
    lines = ["objects " + " ".join(map(name, category.objects))]
    tokens = []
    for arrow in category.arrows:
        e, s, f = map(name, arrow)
        lines.append(f"arrow {e} {s} {f}")
        tokens.append(f"{e}:{s}:{f}")
    # the pair cap is checked before any line is written
    _, dst, _, after, _ = _composition(category)
    yield "".join(line + "\n" for line in lines)
    for i, y in enumerate(dst):
        yield "".join(
            f"compose {tokens[i]} {tokens[j]} = {tokens[k]}\n"
            for j, k in zip(after[y], after[i])
        )


def dump_category(category: FiniteCategory) -> str:
    """The whole dump of :func:`dump_chunks` as one string."""
    return "".join(dump_chunks(category))
