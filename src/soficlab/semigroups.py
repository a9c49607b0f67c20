"""Finite semigroups attached to sofic shifts.

The central object is the syntactic semigroup of the block language: the
quotient of nonempty words by contextual interchangeability.  It is
computed the standard way, as the transition semigroup of the minimal
deterministic automaton of the language, with every element carrying its
shortlex-least witness word.  A brute-force oracle over explicit context
pairs is provided as an independent cross-check, and semigroups of binary
relations give a second construction route for presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import AlphabetMismatch, CapExceeded, NotIdempotent, ParseError
from .shift import Alphabet, Presentation, Word, blocks

DEFAULT_ELEMENT_CAP = 100_000
DEFAULT_SUBSET_CAP = 2**20

T = TypeVar("T", bound=Hashable)
L = TypeVar("L")


def render_word(word: Word) -> str:
    """Compact display name: concatenate plain symbols, dot-join compound ones."""
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return ".".join(word)


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton over state indices 0..n-1.

    ``transitions[s][i]`` is the state reached from s on the i-th alphabet
    symbol.  At most one state is a sink (the rejecting trap); everything
    else accepts, matching languages of the form "all blocks of a shift".
    """

    alphabet: Alphabet
    transitions: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]
    sink: int | None

    @property
    def size(self) -> int:
        return len(self.transitions)


def determinize_minimal(
    presentation: Presentation, *, cap: int = DEFAULT_SUBSET_CAP
) -> Dfa:
    """Minimal complete DFA of the block language of ``presentation``.

    Subset construction started from the full vertex set (a word is a
    block exactly when it can be read from somewhere), empty set as sink,
    every nonempty subset accepting, then Moore minimization.  Raises
    CapExceeded if more than ``cap`` subsets become reachable.
    """
    symbols = list(presentation.alphabet)
    start = frozenset(presentation.vertices)
    subsets: dict[frozenset[str], int] = {start: 0}
    order: list[frozenset[str]] = [start]
    table: list[tuple[int, ...]] = []
    i = 0
    while i < len(order):
        current = order[i]
        row = []
        for a in symbols:
            nxt = frozenset(
                w for v in current for w in presentation.successors(v, a)
            )
            if nxt not in subsets:
                if len(order) >= cap:
                    raise CapExceeded(f"more than {cap} reachable subsets")
                subsets[nxt] = len(order)
                order.append(nxt)
            row.append(subsets[nxt])
        table.append(tuple(row))
        i += 1
    if frozenset() not in subsets:
        subsets[frozenset()] = len(order)
        order.append(frozenset())
        table.append(tuple(len(order) - 1 for _ in symbols))
    sink = subsets[frozenset()]
    accepting = frozenset(i for s, i in subsets.items() if s)
    raw = Dfa(presentation.alphabet, tuple(table), 0, accepting, sink)
    return minimize(raw)


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement, with states renamed in search order."""
    n = dfa.size
    symbol_count = len(dfa.alphabet.symbols)
    cls = [0 if s in dfa.accepting else 1 for s in range(n)]
    while True:
        signatures = {}
        new_cls = []
        for s in range(n):
            sig = (cls[s], tuple(cls[dfa.transitions[s][a]] for a in range(symbol_count)))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_cls.append(signatures[sig])
        if new_cls == cls:
            break
        cls = new_cls

    # Breadth-first renaming from the start class keeps the result canonical.
    rename: dict[int, int] = {}
    queue = [cls[dfa.start]]
    rename[cls[dfa.start]] = 0
    reps: list[int] = [dfa.start]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        rep = reps[qi]
        qi += 1
        for a in range(symbol_count):
            t = cls[dfa.transitions[rep][a]]
            if t not in rename:
                rename[t] = len(rename)
                queue.append(t)
                reps.append(dfa.transitions[rep][a])
    for s in range(n):  # unreachable classes (at most the sink) go last
        if cls[s] not in rename:
            rename[cls[s]] = len(rename)
            queue.append(cls[s])
            reps.append(s)

    transitions = tuple(
        tuple(rename[cls[dfa.transitions[rep][a]]] for a in range(symbol_count))
        for rep in reps
    )
    accepting = frozenset(rename[cls[s]] for s in dfa.accepting)
    sink = rename[cls[dfa.sink]] if dfa.sink is not None else None
    return Dfa(dfa.alphabet, transitions, rename[cls[dfa.start]], accepting, sink)


class FiniteSemigroup:
    """Finite semigroup with witness names and generator markings.

    Elements are indices into ``witnesses``; ``witnesses[i]`` is the
    shortlex-least word mapping onto element i.  ``generators`` maps each
    alphabet symbol to its element.  ``zero`` is the absorbing element
    when one was detected at construction time.

    It is held as its right Cayley graph, ``right[g][x]`` = x.g for the
    generator elements g = 0..k-1, and its BFS tree: x = parent[x].last[x]
    for x >= k, parent[x] < x, and a generator g has parent -1 and last g.
    ``table[i][j]``, the product i.j, is filled on first read.
    """

    def __init__(
        self,
        right: Sequence[Sequence[int]],
        parent: list[int],
        last: list[int],
        witnesses: tuple[Word, ...],
        generators: dict[str, int],
        zero: int | None = None,
    ):
        self.right = right
        self.parent = parent
        self.last = last
        self.witnesses = witnesses
        self.generators = dict(generators)
        self.zero = zero

    @classmethod
    def from_table(
        cls,
        table: Sequence[Sequence[int]],
        witnesses: tuple[Word, ...],
        generators: dict[str, int],
        zero: int | None = None,
    ) -> FiniteSemigroup:
        """Semigroup given by its table: every element is a generator column."""
        n = len(table)
        return cls(
            tuple(zip(*table)), [-1] * n, list(range(n)), witnesses, generators, zero
        )

    @property
    def size(self) -> int:
        return len(self.witnesses)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The n x n products, filled on first read."""
        # a list, not a range: its items are read several times faster
        return tuple(self.rows(list(range(self.size))))

    def rows(self, labels: Sequence[L]) -> Iterator[tuple[L, ...]]:
        """The table's rows in order, each product shown by its label:
        row x holds labels[x.b].

        The rows are filled one at a time (Froidure & Pin, *Algorithms for
        computing finite semigroups*, 1997).  A generator's row follows
        the BFS tree through the right Cayley graph, and any other row is
        x.b = p.(s.b), row(p) read at the positions of row(s), p < x.
        Reading positions is blind to the labels, so the one recurrence
        gives the int table (labels 0..n-1) or the rendered names.  A row
        is held only until the last row built from it, so a caller that
        consumes the rows one by one never holds them all.
        """
        right, parent, last = self.right, self.parent, self.last
        n, k = len(parent), len(right)
        gen_rows = []
        for g in range(k):
            row = [column[g] for column in right]
            for b in range(k, n):
                row.append(right[last[b]][row[parent[b]]])
            gen_rows.append(row)
        # Exact-size tuples built in C, only for generators that end a tree
        # path (a given table has none).  A non-generator means n >= 2, so
        # each getter has at least two keys and returns a tuple, not a scalar.
        read_at = {g: itemgetter(*gen_rows[g]) for g in set(last[k:])}
        last_child = [-1] * n
        for x in range(k, n):
            last_child[parent[x]] = x
        held: list[tuple[L, ...] | None] = [None] * n
        for g, row in enumerate(gen_rows):
            held[g] = tuple(map(labels.__getitem__, row))
            yield held[g]
        for x in range(k, n):
            p = parent[x]
            row = read_at[last[x]](held[p])
            if last_child[p] == x:
                held[p] = None
            if last_child[x] != -1:
                held[x] = row
            yield row

    @cached_property
    def mul(self) -> Callable[[int, int], int]:
        """The product i.j, read from the table.

        A closure over the table, so that a caller who keeps ``s.mul``
        (a category does) reads a product without looking ``table`` up,
        which the lazy descriptor makes slow, at every call.
        """
        table = self.table
        return lambda i, j: table[i][j]

    def right_steps(self, j: int) -> list[Sequence[int]]:
        """Columns of the right Cayley graph that, applied in turn to x,
        give x.j: those along j's path in the BFS tree."""
        steps = []
        while j != -1:
            steps.append(self.right[self.last[j]])
            j = self.parent[j]
        return steps[::-1]

    def is_idempotent(self, i: int) -> bool:
        return self.table[i][i] == i

    def witness_name(self, i: int) -> str:
        return render_word(self.witnesses[i])

    @cached_property
    def green_j(self) -> GreenJ:
        """J-classes, computed once: the table never changes."""
        return _j_classes(self)

    def evaluate(self, word: Word) -> int:
        """Value of ``word``, stepped through the right Cayley graph."""
        right, generators = self.right, self.generators
        try:
            x = generators[word[0]]
            for a in word[1:]:
                x = right[generators[a]][x]
        except KeyError as exc:
            raise AlphabetMismatch(f"symbol {exc.args[0]!r} has no generator") from None
        return x


@dataclass(frozen=True)
class SemigroupMorphism:
    """Morphism from nonempty words over ``alphabet`` onto a finite semigroup.

    ``images`` maps each letter to a generator element of ``semigroup``.
    """

    alphabet: Alphabet
    semigroup: FiniteSemigroup
    images: Mapping[str, int]

    def image(self, word: Word) -> int:
        """Image of ``word``, stepped through the right Cayley graph."""
        if len(word) == 0:
            raise ValueError("morphism is defined on nonempty words")
        right = self.semigroup.right
        try:
            x = self.images[word[0]]
            for a in word[1:]:
                x = right[self.images[a]][x]
        except KeyError as exc:
            raise AlphabetMismatch(f"symbol {exc.args[0]!r} not in alphabet") from None
        return x


def _closure(
    generators: list[tuple[str, T]],
    compose: Callable[[T, T], T],
    zero_value: T | None,
    cap: int,
) -> FiniteSemigroup:
    """Shortlex breadth-first closure of ``generators`` under ``compose``.

    It builds what Froidure & Pin (*Algorithms for computing finite
    semigroups*, 1997) keep: the right Cayley graph and the BFS tree, in
    which each element x other than a generator is reached as x = p.s, p
    its BFS parent and s a generator.  The Cayley table is not filled
    here; the semigroup fills it from these on first read.
    """
    index: dict[T, int] = {}
    values: list[T] = []
    witnesses: list[Word] = []
    gen_ids: dict[str, int] = {}
    # parent[x]: the element x was reached from, -1 for a generator;
    # last[x]: the generator element x ends with (x itself for a generator).
    parent: list[int] = []
    last: list[int] = []
    for sym, val in generators:
        if val not in index:
            index[val] = len(values)
            last.append(len(values))
            values.append(val)
            witnesses.append((sym,))
            parent.append(-1)
        gen_ids[sym] = index[val]
    gen_count = len(values)

    # right[g][x] = x.g; letters with one value share one column.
    right: list[list[int]] = [[] for _ in range(gen_count)]
    i = 0
    while i < len(values):
        for g in range(gen_count):
            product = compose(values[i], values[g])
            j = index.get(product)
            if j is None:
                j = len(values)
                if j >= cap:
                    raise CapExceeded(f"semigroup grew past {cap} elements")
                index[product] = j
                values.append(product)
                witnesses.append(witnesses[i] + witnesses[g])
                parent.append(i)
                last.append(g)
            right[g].append(j)
        i += 1

    zero = index.get(zero_value) if zero_value is not None else None
    return FiniteSemigroup(
        tuple(map(tuple, right)), parent, last, tuple(witnesses), gen_ids, zero
    )


def transition_semigroup(
    dfa: Dfa, *, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[FiniteSemigroup, SemigroupMorphism]:
    """Semigroup of state maps induced by nonempty words.

    Words compose left to right: the first letter acts first.  When the
    DFA has a sink, the constant map onto it is the zero and is tagged as
    such if some word induces it.
    """
    n = dfa.size
    symbols = list(dfa.alphabet)
    generators = [
        (a, tuple(dfa.transitions[s][k] for s in range(n)))
        for k, a in enumerate(symbols)
    ]

    def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(g[f[s]] for s in range(n))

    zero_value = tuple(dfa.sink for _ in range(n)) if dfa.sink is not None else None
    semigroup = _closure(generators, compose, zero_value, cap)
    return semigroup, SemigroupMorphism(dfa.alphabet, semigroup, semigroup.generators)


def syntactic_semigroup(
    presentation: Presentation,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> tuple[FiniteSemigroup, SemigroupMorphism]:
    """Syntactic semigroup of the block language, with its witness morphism."""
    dfa = determinize_minimal(presentation, cap=subset_cap)
    return transition_semigroup(dfa, cap=element_cap)


Relation = frozenset[tuple[str, str]]


def relation_semigroup(
    generators: Mapping[str, Iterable[tuple[Hashable, Hashable]]],
    *,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> tuple[FiniteSemigroup, SemigroupMorphism]:
    """Closure of the given binary relations under relation composition.

    Composition is left to right, matching word order.  The empty relation
    is the zero when it appears in the closure.
    """
    gens = [(str(sym), frozenset((x, y) for x, y in rel)) for sym, rel in generators.items()]

    def compose(r: Relation, s: Relation) -> Relation:
        outs: dict[Hashable, set[Hashable]] = {}
        for x, y in s:
            outs.setdefault(x, set()).add(y)
        return frozenset((x, z) for x, y in r for z in outs.get(y, ()))

    semigroup = _closure(gens, compose, frozenset(), cap)
    alphabet = Alphabet(tuple(sym for sym, _ in gens))
    return semigroup, SemigroupMorphism(alphabet, semigroup, semigroup.generators)


def recognize(morphism: SemigroupMorphism, accept: Iterable[int], word: Word) -> bool:
    """Whether the image of ``word`` lands in ``accept``."""
    return morphism.image(tuple(word)) in set(accept)


def syntactic_oracle(
    presentation: Presentation,
    maxlen: int,
    ctxlen: int,
    *,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> list[list[Word]]:
    """Partition words of length <= maxlen by their context behavior.

    Two words u, v fall together when x u y and x v y are blocks for
    exactly the same context pairs with |x|, |y| <= ctxlen, empty contexts
    allowed.  Contexts that are not blocks themselves reject every word,
    so only block contexts are enumerated; the partition is unchanged.

    This is a deliberately naive reference construction: it never touches
    automata or semigroups, only block membership.
    """
    symbols = list(presentation.alphabet)
    total = sum(len(symbols) ** k for k in range(1, maxlen + 1))
    if total > cap:
        raise CapExceeded(f"word enumeration up to length {maxlen} is too large")
    code = {a: chr(0xE000 + i) for i, a in enumerate(symbols)}
    block_words = blocks(presentation, maxlen + 2 * ctxlen)
    block_set = {"".join(code[a] for a in w) for w in block_words}

    contexts = [""] + sorted(
        "".join(code[a] for a in w) for w in block_words if len(w) <= ctxlen
    )
    pairs = [(x, y) for x in contexts for y in contexts]

    words: list[Word] = [()]
    classes: dict[frozenset[int], list[Word]] = {}
    for _ in range(maxlen):
        words = [w + (a,) for w in words for a in symbols]
        for w in words:
            encoded = "".join(code[a] for a in w)
            profile = frozenset(
                k for k, (x, y) in enumerate(pairs) if x + encoded + y in block_set
            )
            classes.setdefault(profile, []).append(w)

    key = presentation.alphabet.sort_key
    grouped = [sorted(members, key=key) for members in classes.values()]
    grouped.sort(key=lambda members: key(members[0]))
    return grouped


def idempotents(semigroup: FiniteSemigroup) -> list[int]:
    return [i for i in range(semigroup.size) if semigroup.is_idempotent(i)]


@dataclass(frozen=True)
class GreenJ:
    """J-class partition: classes, strict order pairs, and regularity flags.

    ``below`` contains (i, j) when classes[i] is strictly lower than
    classes[j] in the two-sided ideal order.
    """

    classes: tuple[tuple[int, ...], ...]
    below: frozenset[tuple[int, int]]
    regular: tuple[bool, ...]


def green_j(semigroup: FiniteSemigroup) -> GreenJ:
    """J-classes of ``semigroup``, computed on the first call only."""
    return semigroup.green_j


def _j_classes(semigroup: FiniteSemigroup) -> GreenJ:
    """Compute J-classes from the generator Cayley graphs.

    Multiplying by one generator on either side steps down (or across) the
    J-order, and every two-sided ideal membership is witnessed by such
    steps, so J-classes are the strongly connected components of the
    combined left/right Cayley graph and the order is its condensation.
    """
    n = semigroup.size
    table = semigroup.table
    gen_ids = sorted(set(semigroup.generators.values()))
    succ: list[set[int]] = [set() for _ in range(n)]
    pred: list[set[int]] = [set() for _ in range(n)]
    for s in range(n):
        for g in gen_ids:
            for t in (table[s][g], table[g][s]):
                succ[s].add(t)
                pred[t].add(s)

    # Kosaraju: first pass order, second pass on reversed edges.
    visited = [False] * n
    finish: list[int] = []
    for s0 in range(n):
        if visited[s0]:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(s0, iter(succ[s0]))]
        visited[s0] = True
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                finish.append(v)
                stack.pop()
    component = [-1] * n
    count = 0
    for s0 in reversed(finish):
        if component[s0] != -1:
            continue
        stack2 = [s0]
        component[s0] = count
        while stack2:
            v = stack2.pop()
            for w in pred[v]:
                if component[w] == -1:
                    component[w] = count
                    stack2.append(w)
        count += 1

    members: dict[int, list[int]] = {}
    for s in range(n):
        members.setdefault(component[s], []).append(s)
    ordered = sorted(members.values(), key=min)
    renumber = {component[m[0]]: k for k, m in enumerate(ordered)}

    edges: list[set[int]] = [set() for _ in range(len(ordered))]
    for s in range(n):
        for t in succ[s]:
            a, b = renumber[component[s]], renumber[component[t]]
            if a != b:
                edges[a].add(b)
    below: set[tuple[int, int]] = set()
    for top in range(len(ordered)):
        seen = set()
        stack3 = list(edges[top])
        while stack3:
            c = stack3.pop()
            if c in seen:
                continue
            seen.add(c)
            stack3.extend(edges[c])
        below.update((low, top) for low in seen)

    classes = tuple(tuple(m) for m in ordered)
    regular = tuple(
        any(semigroup.is_idempotent(e) for e in cls) for cls in classes
    )
    return GreenJ(classes, frozenset(below), regular)


def maximal_subgroup(semigroup: FiniteSemigroup, e: int) -> tuple[int, ...]:
    """Group of units of the local monoid e S e, which has identity e."""
    if not semigroup.is_idempotent(e):
        raise NotIdempotent(f"element {semigroup.witness_name(e)} is not idempotent")
    table = semigroup.table
    local = sorted({table[e][table[s][e]] for s in range(semigroup.size)})
    units = [
        x
        for x in local
        if any(table[x][y] == e and table[y][x] == e for y in local)
    ]
    return tuple(units)


def is_aperiodic(semigroup: FiniteSemigroup) -> bool:
    """Whether every element s has a power with s^k = s^(k+1).

    s^(k+1) is s^k walked along the path of s in the BFS tree through the
    right Cayley graph, so the table is never filled.
    """
    for s in range(semigroup.size):
        steps = semigroup.right_steps(s)
        seen: dict[int, int] = {}
        x = s
        while x not in seen:
            seen[x] = len(seen)
            for column in steps:
                x = column[x]
        if len(seen) - seen[x] != 1:
            return False
    return True


def is_plus_free(presentation: Presentation) -> bool:
    """Whether the block language is star-free (aperiodic syntactic semigroup)."""
    semigroup, _ = syntactic_semigroup(presentation)
    return is_aperiodic(semigroup)


def render_cayley_table(semigroup: FiniteSemigroup) -> str:
    """Text form: an ``elements`` header line, then the product of row by column.

    The rows are filled with names directly, so the int table is not.
    """
    names = [semigroup.witness_name(i) for i in range(semigroup.size)]
    header = "elements " + " ".join(names)
    return "\n".join(chain([header], map(" ".join, semigroup.rows(names)), [""]))


def parse_cayley_table(text: str) -> FiniteSemigroup:
    """Parse :func:`render_cayley_table` output back into a semigroup.

    A name is p.g when g is an earlier generator, p.g renders as the name
    and the table agrees; any other name is a generator.  A letter that
    shares its element with an earlier letter has no name, so it is lost.
    """
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if not lines or not lines[0].startswith("elements"):
        raise ParseError("missing elements header line")
    names = lines[0].split()[1:]
    if not names or len(set(names)) != len(names):
        raise ParseError("element names must be distinct and nonempty")
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for row_line in lines[1:]:
        row = row_line.split()
        if len(row) != n or any(name not in index for name in row):
            raise ParseError(f"bad table row: {row_line!r}")
        table.append(tuple(index[name] for name in row))
    witnesses: list[Word] = []
    generators: dict[str, int] = {}
    for x, name in enumerate(names):
        words = (
            witnesses[p] + (a,)
            for a, g in generators.items()
            for p in map(index.get, (name[: -len(a)], name[: -len(a) - 1]))
            if p is not None and p < x and table[p][g] == x
        )
        witnesses.append(next((w for w in words if render_word(w) == name), (name,)))
        if len(witnesses[x]) == 1:
            generators[name] = x
    zero = next(
        (
            z
            for z in range(n)
            if all(table[z][j] == z and table[j][z] == z for j in range(n))
        ),
        None,
    )
    return FiniteSemigroup.from_table(table, tuple(witnesses), generators, zero)
