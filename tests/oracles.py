"""Reference implementations the tests check the package against.

Everything here is deliberately naive and shares no technique with the
package: blocks come from walking literal edge paths, forbidden-factor
languages from filtering the free monoid, primitivity from iterating the
substitution itself, subset automata from frozensets of vertex names,
category isomorphism from trying every bijection, J-classes from the
two-sided ideals themselves, composites from trying every pair of arrows,
color refinement from tuples of color pairs run to stability.  One
exception: ``refined_categories_isomorphic`` is a copy of the package's
former isomorphism test, refinement to stability and then a search by
refined color; the package no longer refines, and colors each arrow by
its right stabilizers alone.
"""

from itertools import permutations, product

from soficlab.semigroups import Dfa


def walk_blocks(presentation, max_len):
    """Label words of all edge paths up to max_len, one path at a time."""
    found = set()
    stack = [(v, ()) for v in presentation.vertices]
    while stack:
        vertex, word = stack.pop()
        if word:
            found.add(word)
        if len(word) < max_len:
            for _, label, target in presentation.out_edges[vertex]:
                stack.append((target, word + (label,)))
    return found


def avoiding_words(symbols, forbidden, max_len):
    """All nonempty words up to max_len with no forbidden factor."""
    forbidden = [tuple(f) for f in forbidden]
    out = set()
    for n in range(1, max_len + 1):
        for candidate in product(symbols, repeat=n):
            if not any(
                candidate[i : i + len(f)] == f
                for f in forbidden
                for i in range(n - len(f) + 1)
            ):
                out.add(candidate)
    return out


def naive_subset_dfa(presentation):
    """The subset automaton of the block language, before minimization.

    Subsets of vertex names are frozensets, numbered in breadth-first
    order from the full vertex set, one symbol at a time in alphabet
    order; the empty set is the sink, added last when nothing reaches
    it, and every other subset accepts.
    """
    symbols = list(presentation.alphabet)
    start = frozenset(presentation.vertices)
    subsets = {start: 0}
    order = [start]
    table = []
    for current in order:
        row = []
        for a in symbols:
            nxt = frozenset(
                w for v in current for w in presentation.successors(v, a)
            )
            if nxt not in subsets:
                subsets[nxt] = len(order)
                order.append(nxt)
            row.append(subsets[nxt])
        table.append(tuple(row))
    if frozenset() not in subsets:
        subsets[frozenset()] = len(order)
        table.append(tuple(len(order) for _ in symbols))
    accepting = frozenset(i for s, i in subsets.items() if s)
    return Dfa(presentation.alphabet, tuple(table), 0, accepting, subsets[frozenset()])


def primitive_by_iteration(substitution):
    """Primitivity via the images themselves: iterate (n-1)^2 + 1 times."""
    letters = tuple(substitution.alphabet)
    if len(letters) == 1 and substitution.images[letters[0]] == letters:
        return False  # the one-letter identity never grows: no shift
    rounds = (len(letters) - 1) ** 2 + 1
    for start in letters:
        word = (start,)
        for _ in range(rounds):
            word = substitution.apply(word)
        if set(word) != set(letters):
            return False
    return True


def generator_map_isomorphic(s, t):
    """Do the witness words of ``s`` induce an isomorphism onto ``t``?

    Sound for semigroups given by generators over the same alphabet: the
    map s -> t sending each element to the value of its witness word is
    the only candidate compatible with the generators.
    """
    if s.size != t.size:
        return False
    image = [t.evaluate(w) for w in s.witnesses]
    if len(set(image)) != s.size:
        return False
    return all(
        image[s.table[i][j]] == t.table[image[i]][image[j]]
        for i in range(s.size)
        for j in range(s.size)
    )


def naive_green_j(table):
    """J-classes, ``below`` and regularity from the table alone.

    x <=_J y iff x lies in the ideal S¹yS¹, which is y, yS, Sy and SyS;
    x and y are J-equivalent iff their ideals are equal.  Classes are
    numbered by least member, like ``green_j``.
    """
    n = len(table)
    columns = [frozenset(row[z] for row in table) for z in range(n)]
    ideals = []
    for y in range(n):
        ideal = {y, *table[y], *columns[y]}
        for z in set(table[y]):
            ideal |= columns[z]
        ideals.append(frozenset(ideal))
    members = {}
    for x in range(n):
        members.setdefault(ideals[x], []).append(x)
    keys = list(members)
    below = frozenset(
        (i, j) for i, a in enumerate(keys) for j, b in enumerate(keys) if a < b
    )
    regular = tuple(any(table[e][e] == e for e in m) for m in members.values())
    return tuple(map(tuple, members.values())), below, regular


def naive_dump_category(category):
    """``dump_category`` by composing every consecutive pair of arrows."""

    def token(arrow):
        e, s, f = arrow
        return f"{category.name(e)}:{category.name(s)}:{category.name(f)}"

    lines = ["objects " + " ".join(category.name(o) for o in category.objects)]
    for e, s, f in category.arrows:
        lines.append(f"arrow {category.name(e)} {category.name(s)} {category.name(f)}")
    for x in category.arrows:
        for y in category.arrows:
            if x[2] == y[0]:
                z = category.compose(x, y)
                lines.append(f"compose {token(x)} {token(y)} = {token(z)}")
    return "\n".join(lines) + "\n"


def naive_categories_isomorphic(c, d):
    """Is there an isomorphism of finite categories ``c`` and ``d``?

    Reads only ``objects``, ``arrows`` (source, payload, target) and the
    payload product ``mul``; identities are the arrows (e, e, e).  Tries
    every object bijection, then every arrow bijection that maps each
    hom-set onto its image hom-set, and checks identities and composites.
    """
    if len(c.objects) != len(d.objects) or len(c.arrows) != len(d.arrows):
        return False

    def hom_sets(category):
        out = {}
        for arrow in category.arrows:
            out.setdefault((arrow[0], arrow[2]), []).append(arrow)
        return out

    def compose(category, x, y):
        return (x[0], category.mul(x[1], y[1]), y[2])

    hom_c, hom_d = hom_sets(c), hom_sets(d)
    composable = [(x, y) for x in c.arrows for y in c.arrows if x[2] == y[0]]
    for image in permutations(d.objects):
        obj = dict(zip(c.objects, image))
        pairs = [
            (arrows, hom_d.get((obj[e], obj[f]), []))
            for (e, f), arrows in hom_c.items()
        ]
        if any(len(a) != len(b) for a, b in pairs):
            continue
        for choice in product(*(permutations(b) for _, b in pairs)):
            arrow = {
                x: y for (a, _), images in zip(pairs, choice) for x, y in zip(a, images)
            }
            if all(
                arrow[(e, e, e)] == (obj[e], obj[e], obj[e]) for e in c.objects
            ) and all(
                arrow[compose(c, x, y)] == compose(d, arrow[x], arrow[y])
                for x, y in composable
            ):
                return True
    return False


def naive_refine_colors(comps):
    """Joint color refinement of ``_composition`` lists, run to stability.

    Keys are tuples: the old color, and the sorted color pairs (j, i·j)
    over the j leaving the target of i and (j, j·i) over the j entering
    its source.  New colors are numbered by first key seen, side by side.
    """
    palette = {}
    colors = []
    for src, dst, *_ in comps:
        keys = ((i == x, x == y) for i, (x, y) in enumerate(zip(src, dst)))
        colors.append([palette.setdefault(key, len(palette)) for key in keys])

    def profile(cs, pairs):
        return tuple(sorted((cs[j], cs[k]) for j, k in pairs))

    while True:
        size, palette = len(palette), {}
        new = []
        for (src, dst, pos, after, into), cs in zip(comps, colors):
            keys = (
                (
                    cs[i],
                    profile(cs, zip(after[y], after[i])),
                    profile(cs, ((j, after[j][pos[i]]) for j in into[x])),
                )
                for i, (x, y) in enumerate(zip(src, dst))
            )
            new.append([palette.setdefault(key, len(palette)) for key in keys])
        colors = new
        if len(palette) == size:
            return colors


def naive_composition(category):
    """``_composition`` lists by composing every consecutive pair of arrows.

    Per arrow i: the identities at its ends, its place among the arrows
    leaving its source, i·j for each j leaving its target in arrow order,
    and, for an identity, the arrows entering it.
    """
    arrows = list(category.arrows)
    index = {a: i for i, a in enumerate(arrows)}
    src = [index[(e, e, e)] for e, _, _ in arrows]
    dst = [index[(f, f, f)] for _, _, f in arrows]
    leaving = [[j for j in range(len(arrows)) if src[j] == i] for i in range(len(arrows))]
    pos = [leaving[src[j]].index(j) for j in range(len(arrows))]
    after = [
        tuple(index[category.compose(x, arrows[j])] for j in leaving[dst[i]])
        for i, x in enumerate(arrows)
    ]
    into = [[j for j in range(len(arrows)) if dst[j] == i] for i in range(len(arrows))]
    return src, dst, pos, after, into


def refined_categories_isomorphic(c, d, budget=500_000):
    """Is there an isomorphism of finite categories ``c`` and ``d``?

    Colors both arrow sets by ``naive_refine_colors`` to stability, then
    backtracks most constrained arrow first: each onto an arrow of its
    color whose ends fit the identities assigned so far, forcing the
    identities at its ends and the images of its composites with the
    arrows already assigned.  Raises AssertionError past ``budget``
    assignments.
    """
    if len(c.objects) != len(d.objects) or len(c.arrows) != len(d.arrows):
        return False
    comp_a, comp_b = naive_composition(c), naive_composition(d)
    src_a, dst_a, pos_a, after_a, into_a = comp_a
    src_b, dst_b, pos_b, after_b, _ = comp_b
    color_a, color_b = naive_refine_colors((comp_a, comp_b))
    if sorted(color_a) != sorted(color_b):
        return False
    candidates = {}
    for j, col in enumerate(color_b):
        candidates.setdefault(col, []).append(j)
    n = len(color_a)
    sigma = [-1] * n
    used = [False] * n
    nodes = [0]

    def assign(i, u, trail):
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
            trail.append(i)
            x, y, p, q = src_a[i], dst_a[i], src_b[u], dst_b[u]
            queue += (x, p), (y, q)
            for j in after_a[y]:  # i·j
                v = sigma[j]
                if v != -1:
                    if src_b[v] != q:
                        return False
                    queue.append((after_a[i][pos_a[j]], after_b[u][pos_b[v]]))
            for j in into_a[x]:  # j·i
                v = sigma[j]
                if v != -1:
                    if dst_b[v] != p:
                        return False
                    queue.append((after_a[j][pos_a[i]], after_b[v][pos_b[u]]))
        return True

    def pick():
        best = None
        for i in (i for i in range(n) if sigma[i] == -1):
            x, y = sigma[src_a[i]], sigma[dst_a[i]]
            fits = [
                u
                for u in candidates[color_a[i]]
                if not used[u] and (x < 0 or x == src_b[u]) and (y < 0 or y == dst_b[u])
            ]
            if best is None or len(fits) < len(best[1]):
                best = i, fits
                if len(fits) <= 1:
                    break
        return best

    def search():
        best = pick()
        if best is None:
            return True
        i, fits = best
        for u in fits:
            nodes[0] += 1
            assert nodes[0] <= budget, f"search passed {budget} nodes"
            trail = []
            if assign(i, u, trail) and search():
                return True
            for j in reversed(trail):
                used[sigma[j]] = False
                sigma[j] = -1
        return False

    return search()
