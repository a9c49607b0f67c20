"""Karoubi envelopes of finite semigroups and finite-category comparison.

The envelope of a semigroup S has the idempotents of S as objects and
triples (e, s, f) with e s f = s as arrows from e to f; composition
multiplies payloads in diagram order, (e, s, f)(f, t, g) = (e, s t, g),
and (e, e, e) is the identity at e.  Equivalence of such categories is
decided structurally: collapse each category to a skeleton (one object
per isomorphism class), then search for an isomorphism of the skeletons
by backtracking over arrows with color-refinement pruning.

Two idempotents are isomorphic in the envelope exactly when they are
D-related, and D = J in a finite semigroup, so ``envelope_skeleton``
builds the skeleton directly: one object per regular J-class, its least
idempotent, and the hom-set e S f between each pair.  It never builds
the whole envelope.  ``karoubi_envelope``, ``objects_isomorphic`` and
``skeleton`` take the general route and serve as its oracle.
"""

from __future__ import annotations

from typing import Callable

from .errors import CapExceeded, SearchTimeout, UnknownObject
from .semigroups import FiniteSemigroup, green_j, idempotents

Arrow = tuple[int, int, int]

DEFAULT_ARROW_CAP = 200_000
DEFAULT_SEARCH_BUDGET = 500_000


class FiniteCategory:
    """Finite category whose objects are idempotent payloads.

    ``mul`` multiplies payloads; arrows are (source, payload, target)
    triples closed under composition.  ``name`` renders payloads for
    dumps.
    """

    def __init__(
        self,
        objects: tuple[int, ...],
        arrows: tuple[Arrow, ...],
        mul: Callable[[int, int], int],
        name: Callable[[int], str] = str,
    ):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.mul = mul
        self.name = name
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


def karoubi_envelope(
    semigroup: FiniteSemigroup, *, cap: int = DEFAULT_ARROW_CAP
) -> FiniteCategory:
    """Envelope category of ``semigroup``; see the module docstring."""
    objects = tuple(idempotents(semigroup))
    table = semigroup.table
    arrows: list[Arrow] = []
    for e in objects:
        row = table[e]
        for f in objects:
            for s in range(semigroup.size):
                if row[table[s][f]] == s:
                    arrows.append((e, s, f))
                    if len(arrows) > cap:
                        raise CapExceeded(f"envelope grew past {cap} arrows")
    return FiniteCategory(
        objects, tuple(arrows), semigroup.mul, semigroup.witness_name
    )


def envelope_skeleton(
    semigroup: FiniteSemigroup, *, cap: int = DEFAULT_ARROW_CAP
) -> FiniteCategory:
    """Skeleton of the envelope of ``semigroup``, built from its J-classes.

    Objects are the least idempotent of each regular J-class, in
    ascending order; the arrows from e to f are e S f in ascending order.
    These are the objects and arrows of
    ``skeleton(karoubi_envelope(semigroup))``.  Every hom-set holds at
    least e e f, so checking the cap per hom-set bounds the work by
    cap * |S|.
    """
    green = green_j(semigroup)
    idempotent = semigroup.is_idempotent
    objects = sorted(
        min(filter(idempotent, cls))
        for cls, regular in zip(green.classes, green.regular)
        if regular
    )
    table = semigroup.table
    arrows: list[Arrow] = []
    for e in objects:
        row_e = table[e]
        for f in objects:
            hom = sorted({row_e[row[f]] for row in table})
            arrows.extend((e, s, f) for s in hom)
            if len(arrows) > cap:
                raise CapExceeded(f"envelope skeleton grew past {cap} arrows")
    return FiniteCategory(
        tuple(objects), tuple(arrows), semigroup.mul, semigroup.witness_name
    )


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
    return FiniteCategory(tuple(reps), arrows, category.mul, category.name)


def hom_size_matrix(category: FiniteCategory) -> list[list[int]]:
    return [
        [len(category.hom(e, f)) for f in category.objects]
        for e in category.objects
    ]


def _refine_colors(
    cats: tuple["_SearchSide", "_SearchSide"]
) -> tuple[list[int], list[int]]:
    """Joint color refinement of both arrow sets by composition profiles."""
    colors = []
    palette: dict[tuple, int] = {}
    for side in cats:
        cs = []
        for i in range(side.n):
            key = (side.is_id[i], side.src[i] == side.dst[i])
            cs.append(palette.setdefault(key, len(palette)))
        colors.append(cs)

    while True:
        palette = {}
        new_colors = []
        for side, cs in zip(cats, colors):
            ids_by_obj = {side.src[i]: cs[i] for i in range(side.n) if side.is_id[i]}
            ns = []
            for i in range(side.n):
                left = sorted(
                    (cs[j], cs[side.comp[i][j]])
                    for j in range(side.n)
                    if side.comp[i][j] >= 0
                )
                right = sorted(
                    (cs[j], cs[side.comp[j][i]])
                    for j in range(side.n)
                    if side.comp[j][i] >= 0
                )
                key = (
                    cs[i],
                    ids_by_obj.get(side.src[i], -1),
                    ids_by_obj.get(side.dst[i], -1),
                    tuple(left),
                    tuple(right),
                )
                ns.append(palette.setdefault(key, len(palette)))
            new_colors.append(ns)
        if sorted(new_colors[0]) == sorted(colors[0]) and sorted(
            new_colors[1]
        ) == sorted(colors[1]):
            return new_colors[0], new_colors[1]
        colors = new_colors


class _SearchSide:
    """Flat arrays for one category in the isomorphism search."""

    def __init__(self, category: FiniteCategory):
        arrows = category.arrows
        self.n = len(arrows)
        index = {a: i for i, a in enumerate(arrows)}
        self.src = [a[0] for a in arrows]
        self.dst = [a[2] for a in arrows]
        self.is_id = [a == (a[0], a[0], a[0]) for a in arrows]
        self.comp = [[-1] * self.n for _ in range(self.n)]
        for i, x in enumerate(arrows):
            for j, y in enumerate(arrows):
                if x[2] == y[0]:
                    self.comp[i][j] = index[category.compose(x, y)]


def categories_isomorphic(
    c: FiniteCategory,
    d: FiniteCategory,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Whether an invertible composition-preserving arrow bijection exists.

    Backtracking assigns arrows most-constrained-first; every assignment
    immediately forces the images of all compositions with previously
    assigned arrows, so contradictions surface early.  Raises
    SearchTimeout when more than ``budget`` assignments are attempted.
    """
    if len(c.objects) != len(d.objects) or len(c.arrows) != len(d.arrows):
        return False
    if not c.arrows:
        return True
    a = _SearchSide(c)
    b = _SearchSide(d)
    color_a, color_b = _refine_colors((a, b))
    if sorted(color_a) != sorted(color_b):
        return False

    candidates: dict[int, list[int]] = {}
    for j, col in enumerate(color_b):
        candidates.setdefault(col, []).append(j)
    if any(
        len(candidates.get(col, ())) != count
        for col, count in _histogram(color_a).items()
    ):
        return False

    sigma = [-1] * a.n
    used = [False] * b.n
    obj_map: dict[int, int] = {}
    obj_used: set[int] = set()
    assigned: list[int] = []
    nodes = 0

    def bind_object(e: int, e2: int, trail: list) -> bool:
        known = obj_map.get(e)
        if known is not None:
            return known == e2
        if e2 in obj_used:
            return False
        obj_map[e] = e2
        obj_used.add(e2)
        trail.append(e)
        return True

    def assign(i: int, u: int, trail: list, objs: list) -> bool:
        queue = [(i, u)]
        while queue:
            i, u = queue.pop()
            if sigma[i] != -1:
                if sigma[i] != u:
                    return False
                continue
            if used[u] or color_a[i] != color_b[u]:
                return False
            if not bind_object(a.src[i], b.src[u], objs):
                return False
            if not bind_object(a.dst[i], b.dst[u], objs):
                return False
            sigma[i] = u
            used[u] = True
            trail.append(i)
            assigned.append(i)
            for j in list(assigned):
                for x, y in ((i, j), (j, i)):
                    k = a.comp[x][y]
                    if k < 0:
                        continue
                    v = b.comp[sigma[x]][sigma[y]]
                    if v < 0:
                        return False
                    queue.append((k, v))
        return True

    def undo(trail: list, objs: list) -> None:
        for i in reversed(trail):
            used[sigma[i]] = False
            sigma[i] = -1
            assigned.pop()
        for e in reversed(objs):
            obj_used.discard(obj_map.pop(e))

    def pick() -> int | None:
        best = None
        best_count = None
        for i in range(a.n):
            if sigma[i] != -1:
                continue
            count = sum(
                1
                for u in candidates[color_a[i]]
                if not used[u]
                and obj_map.get(a.src[i], b.src[u]) == b.src[u]
                and obj_map.get(a.dst[i], b.dst[u]) == b.dst[u]
            )
            if best_count is None or count < best_count:
                best, best_count = i, count
                if count <= 1:
                    break
        return best

    def search() -> bool:
        nonlocal nodes
        i = pick()
        if i is None:
            return True
        for u in candidates[color_a[i]]:
            if used[u]:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchTimeout(f"isomorphism search passed {budget} nodes")
            trail: list[int] = []
            objs: list[int] = []
            if assign(i, u, trail, objs) and search():
                return True
            undo(trail, objs)
        return False

    return search()


def _histogram(values: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def categories_equivalent(
    c: FiniteCategory,
    d: FiniteCategory,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Equivalence test for finite categories: are the skeletons isomorphic?"""
    return categories_isomorphic(skeleton(c), skeleton(d), budget=budget)


def arrow_token(category: FiniteCategory, arrow: Arrow) -> str:
    e, s, f = arrow
    return f"{category.name(e)}:{category.name(s)}:{category.name(f)}"


def dump_category(category: FiniteCategory) -> str:
    """Deterministic text dump: objects, arrows, and all composites."""
    lines = ["objects " + " ".join(category.name(o) for o in category.objects)]
    for e, s, f in category.arrows:
        lines.append(f"arrow {category.name(e)} {category.name(s)} {category.name(f)}")
    for x in category.arrows:
        for y in category.arrows:
            if x[2] == y[0]:
                z = category.compose(x, y)
                lines.append(
                    "compose "
                    f"{arrow_token(category, x)} {arrow_token(category, y)} "
                    f"= {arrow_token(category, z)}"
                )
    return "\n".join(lines) + "\n"
