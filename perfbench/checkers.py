"""Output checkers that share no code path with soficlab.

Everything here works from the text the program read or wrote: its own
parser of the presentation format, its own essential trim, block test,
subset construction, Moore refinement and transformation closure.  A
checker returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import random
from array import array

VERDICTS = ("NOT_FLOW_EQUIVALENT", "NOT_DISTINGUISHED", "FLOW_EQUIVALENT", "INAPPLICABLE")


# --------------------------------------------------------------------------
# Presentations, read from their file text


class Graph:
    """Essential part of a labeled graph, as adjacency by (vertex, letter)."""

    def __init__(self, text: str):
        letters: list[str] = []
        vertices: list[str] = []
        edges: list[tuple[str, str, str]] = []
        for raw in text.splitlines():
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if fields[0] == "alphabet":
                letters = fields[1:]
            elif fields[0] == "vertex":
                vertices.append(fields[1])
            elif fields[0] == "edge":
                u, a, w = fields[1:]
                edges.append((u, a, w))
                vertices += [u, w]
        live = set(vertices)
        while True:  # keep vertices with an in-edge and an out-edge
            edges = [e for e in edges if e[0] in live and e[2] in live]
            keep = {e[0] for e in edges} & {e[2] for e in edges}
            if keep == live:
                break
            live = keep
        self.letters = letters
        self.vertices = sorted(live)
        self.edges = edges
        self.step: dict[tuple[str, str], set[str]] = {}
        for u, a, w in edges:
            self.step.setdefault((u, a), set()).add(w)

    def advance(self, here: frozenset, letter: str) -> frozenset:
        return frozenset(w for v in here for w in self.step.get((v, letter), ()))

    def is_block(self, word) -> bool:
        here = frozenset(self.vertices)
        for letter in word:
            here = self.advance(here, letter)
            if not here:
                return False
        return True

    def unused_letters(self) -> list[str]:
        used = {a for _, a, _ in self.edges}
        return [a for a in self.letters if a not in used]

    def is_full_shift(self) -> bool:
        """Every word is a block: no subset reachable from all vertices is empty."""
        start = frozenset(self.vertices)
        seen = {start}
        todo = [start]
        while todo:
            here = todo.pop()
            for a in self.letters:
                nxt = self.advance(here, a)
                if not nxt:
                    return False
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return True

    def strongly_connected(self) -> bool:
        if not self.vertices:
            return False
        fwd: dict[str, set[str]] = {v: set() for v in self.vertices}
        back: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, _, w in self.edges:
            fwd[u].add(w)
            back[w].add(u)
        for adjacency in (fwd, back):
            seen = {self.vertices[0]}
            todo = [self.vertices[0]]
            while todo:
                for w in adjacency[todo.pop()]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            if len(seen) != len(self.vertices):
                return False
        return True


def word_name(word: tuple[str, ...]) -> str:
    if all(len(a) == 1 for a in word):
        return "".join(word)
    return ".".join(word)


class Semigroup:
    """Syntactic semigroup as maps on the states of the minimal automaton.

    Elements are numbered in shortlex order of their least witness words,
    which is also how the program names them.
    """

    def __init__(self, graph: Graph, cap: int | None = None):
        self.letters = list(graph.letters)
        # Subset automaton from the whole vertex set; the empty set is the sink.
        start = frozenset(graph.vertices)
        states = {start: 0}
        order = [start]
        delta: list[list[int]] = []
        i = 0
        while i < len(order):
            row = []
            for a in self.letters:
                nxt = graph.advance(order[i], a)
                if nxt not in states:
                    states[nxt] = len(order)
                    order.append(nxt)
                row.append(states[nxt])
            delta.append(row)
            i += 1
        # Moore refinement to the minimal automaton.
        part = [1 if s else 0 for s in order]
        n = len(set(part))
        while True:
            keys: dict[tuple, int] = {}
            refined = [
                keys.setdefault((part[q], tuple(part[t] for t in delta[q])), len(keys))
                for q in range(len(order))
            ]
            stable = len(keys) == n
            part, n = refined, len(keys)
            if stable:
                break
        rep = {}
        for q, c in enumerate(part):
            rep.setdefault(c, q)
        self.gens = [
            tuple(part[delta[rep[c]][k]] for c in range(n)) for k in range(len(self.letters))
        ]
        # Breadth-first closure under right multiplication by generators.
        self.maps: list[tuple[int, ...]] = []
        self.words: list[tuple[str, ...]] = []
        self.index: dict[tuple[int, ...], int] = {}
        for a, g in zip(self.letters, self.gens):
            if g not in self.index:
                self.index[g] = len(self.maps)
                self.maps.append(g)
                self.words.append((a,))
        i = 0
        while i < len(self.maps):
            f = self.maps[i]
            for a, g in zip(self.letters, self.gens):
                h = tuple(g[x] for x in f)
                if h not in self.index:
                    if cap is not None and len(self.maps) >= cap:
                        raise OverflowError(f"more than {cap} elements")
                    self.index[h] = len(self.maps)
                    self.maps.append(h)
                    self.words.append(self.words[i] + (a,))
            i += 1
        self.names = [word_name(w) for w in self.words]
        self.by_name = {name: k for k, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.maps)

    def mul(self, x: int, y: int) -> int:
        g = self.maps[y]
        return self.index[tuple(g[s] for s in self.maps[x])]

    def is_idempotent(self, x: int) -> bool:
        f = self.maps[x]
        return all(f[f[s]] == f[s] for s in range(len(f)))

    def idempotent_count(self) -> int:
        return sum(1 for x in range(self.size) if self.is_idempotent(x))

    def aperiodic(self) -> bool:
        """Every element's powers settle: s^k = s^(k+1) for some k."""
        for f in self.maps:
            seen = {f}
            power = f
            while True:
                nxt = tuple(f[s] for s in power)
                if nxt == power:
                    break
                if nxt in seen:
                    return False
                seen.add(nxt)
                power = nxt
        return True


# --------------------------------------------------------------------------
# syntactic: the Cayley table


def lines_of(text: str):
    """The lines of ``text`` one at a time; a table's text runs to tens of MB,
    and a list of all its lines would raise the peak memory measured."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def parse_table(text: str) -> tuple[list[str], list[array]]:
    lines = lines_of(text)
    header = next(lines, "")
    if not header.startswith("elements "):
        raise ValueError("no elements header")
    names = header.split()[1:]
    index = {name: k for k, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("repeated element name")
    rows = []
    for line in lines:
        row = array("I", (index[name] for name in line.split()))
        if len(row) != len(names):
            raise ValueError("row of wrong length")
        rows.append(row)
    if len(rows) != len(names):
        raise ValueError(f"{len(rows)} rows for {len(names)} elements")
    return names, rows


def check_table(text: str, graph: Graph, rng: random.Random,
                triples: int = 2000, pairs: int = 48, ctx_len: int = 2) -> list[str]:
    try:
        names, rows = parse_table(text)
    except (ValueError, KeyError) as exc:
        return [f"unreadable table: {exc!r}"]
    n = len(names)
    problems = []
    own = Semigroup(graph)
    if n != own.size:
        problems.append(f"{n} elements, expected {own.size}")
    for _ in range(triples):
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
            problems.append(f"not associative at {names[x]} {names[y]} {names[z]}")
            break
    words = [tuple(name.split(".")) if "." in name else tuple(name) for name in names]
    index = {name: k for k, name in enumerate(names)}
    missing = [a for a in graph.letters if a not in index]
    if missing:
        return problems + [f"no element named by letter {missing[0]!r}"]
    gen = {a: index[a] for a in graph.letters}
    for k, word in enumerate(words):
        x = gen[word[0]]
        for a in word[1:]:
            x = rows[x][gen[a]]
        if x != k:
            problems.append(f"witness {names[k]} multiplies out to {names[x]}")
            break
    contexts = [()]
    for _ in range(ctx_len):
        contexts += [c + (a,) for c in contexts if len(c) == len(contexts[-1])
                     for a in graph.letters]
    for _ in range(pairs):
        x, y = rng.randrange(n), rng.randrange(n)
        u, v = words[x] + words[y], words[rows[x][y]]
        for left in contexts:
            for right in contexts:
                if graph.is_block(left + u + right) != graph.is_block(left + v + right):
                    problems.append(
                        f"{names[x]}*{names[y]}={names[rows[x][y]]} differs in context "
                        f"{word_name(left) or '-'} _ {word_name(right) or '-'}"
                    )
                    return problems
    return problems


# --------------------------------------------------------------------------
# karoubi: the dump of the envelope skeleton


def check_dump(text: str, graph: Graph, rng: random.Random, triples: int = 500) -> list[str]:
    own = Semigroup(graph)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("objects "):
        return ["no objects line"]
    try:
        objects = [own.by_name[name] for name in lines[0].split()[1:]]
        arrows = []
        compose: dict[tuple, tuple] = {}
        for line in lines[1:]:
            head, *rest = line.split()
            if head == "arrow" and len(rest) == 3:
                arrows.append(tuple(own.by_name[name] for name in rest))
            elif head == "compose" and len(rest) == 4 and rest[2] == "=":
                x, y, z = (tuple(own.by_name[p] for p in tok.split(":"))
                           for tok in (rest[0], rest[1], rest[3]))
                if not len(x) == len(y) == len(z) == 3:
                    return [f"malformed composite: {line}"]
                if (x, y) in compose:
                    return [f"composite listed twice: {line}"]
                compose[x, y] = z
            else:
                return [f"unknown line: {line}"]
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unreadable dump: {exc!r}"]
    problems = []
    arrow_set = set(arrows)
    objs = set(objects)
    for e in objects:
        if not own.is_idempotent(e):
            problems.append(f"object {own.names[e]} is not idempotent")
        if (e, e, e) not in arrow_set:
            problems.append(f"no identity at {own.names[e]}")
    for e, s, f in arrows:
        if e not in objs or f not in objs or own.mul(own.mul(e, s), f) != s:
            problems.append(f"arrow {own.names[e]} {own.names[s]} {own.names[f]} breaks e.s.f = s")
            break
    for e in objects:  # full subcategory: every e.s.f = s is listed
        for f in objects:
            hom = sum(1 for s in range(own.size) if own.mul(own.mul(e, s), f) == s)
            listed = sum(1 for a in arrows if a[0] == e and a[2] == f)
            if hom != listed:
                problems.append(f"hom({own.names[e]},{own.names[f]}) has {listed} arrows, expected {hom}")
    expected = sum(1 for x in arrows for y in arrows if x[2] == y[0])
    if len(compose) != expected:
        problems.append(f"{len(compose)} composites, expected {expected}")
    for (x, y), z in compose.items():
        if x[2] != y[0] or z != (x[0], own.mul(x[1], y[1]), y[2]) or z not in arrow_set:
            problems.append(f"wrong composite of {x} and {y}")
            break
    pairs = list(compose)
    for _ in range(triples if pairs else 0):
        x, y = pairs[rng.randrange(len(pairs))]
        after = [z for z in arrows if z[0] == y[2]]
        z = after[rng.randrange(len(after))]
        xy, yz = compose.get((x, y)), compose.get((y, z))
        if xy is None or yz is None or compose.get((xy, z)) != compose.get((x, yz)):
            problems.append("composition is not associative")
            break
    return problems


# --------------------------------------------------------------------------
# inspect: the invariant report


def check_report(text: str, graph: Graph) -> list[str]:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    want = ("order", "idempotents", "aperiodic", "j_classes", "regular_j_classes",
            "skeleton_objects", "skeleton_hom_matrix", "irreducible")
    if tuple(fields) != want:
        return [f"report keys {tuple(fields)}"]
    try:
        order, idem, j, reg, objs = (int(fields[k]) for k in (
            "order", "idempotents", "j_classes", "regular_j_classes", "skeleton_objects"))
    except ValueError as exc:
        return [f"unreadable count: {exc}"]
    own = Semigroup(graph)
    problems = []
    if objs != reg:
        problems.append(f"skeleton_objects {objs} != regular_j_classes {reg}")
    if not 1 <= idem <= order:
        problems.append(f"idempotents {idem} not within 1..order {order}")
    if not 1 <= reg <= j:
        problems.append(f"regular_j_classes {reg} not within 1..j_classes {j}")
    if order != own.size:
        problems.append(f"order {order}, expected {own.size}")
    if idem != own.idempotent_count():
        problems.append(f"idempotents {idem}, expected {own.idempotent_count()}")
    if fields["aperiodic"] != ("true" if own.aperiodic() else "false"):
        problems.append(f"aperiodic {fields['aperiodic']} disagrees with the star-free test")
    if fields["irreducible"] != ("true" if graph.strongly_connected() else "false"):
        problems.append(f"irreducible {fields['irreducible']} disagrees with strong connectivity")
    matrix = fields["skeleton_hom_matrix"]
    rows = matrix[2:-2].split("],[") if matrix.startswith("[[") else []
    if len(rows) != objs or any(len(r.split(",")) != objs for r in rows):
        problems.append(f"skeleton_hom_matrix {matrix} is not {objs}x{objs}")
    return problems


# --------------------------------------------------------------------------
# starfree and compare


def check_starfree(text: str, graph: Graph) -> list[str]:
    expected = "true\n" if Semigroup(graph).aperiodic() else "false\n"
    return [] if text == expected else [f"starfree printed {text!r}, expected {expected!r}"]


def check_related_pair(text: str) -> list[str]:
    """The two sides differ by a flow move, so a refutation is unsound."""
    token = text.strip()
    if text != token + "\n" or token not in VERDICTS:
        return [f"unreadable verdict {text!r}"]
    if token == "NOT_FLOW_EQUIVALENT":
        return ["NOT_FLOW_EQUIVALENT for a pair related by a flow move"]
    return []
