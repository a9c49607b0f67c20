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
from functools import cached_property, reduce
from itertools import chain, compress, count
from operator import itemgetter, or_
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import AlphabetMismatch, CapExceeded, NotIdempotent, ParseError
from .shift import Alphabet, Presentation, Word, blocks

DEFAULT_ELEMENT_CAP = 100_000
DEFAULT_SUBSET_CAP = 2**20

T = TypeVar("T", bound=Hashable)
L = TypeVar("L")
# the J-classes, whether each is regular, and the order the pass finished them
JClasses = tuple[tuple[tuple[int, ...], ...], tuple[bool, ...], tuple[int, ...]]


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


def determinize_minimal(presentation: Presentation) -> Dfa:
    """Minimal complete DFA of the block language of ``presentation``.

    Subset construction started from the full vertex set (a word is a
    block exactly when it can be read from somewhere), empty set as sink,
    every nonempty subset accepting, then Moore minimization.  Subsets are
    int bit masks, and a subset's successor on a symbol is the union of
    its vertices' successor masks.  Raises CapExceeded if more than
    ``DEFAULT_SUBSET_CAP`` subsets become reachable.
    """
    cap = DEFAULT_SUBSET_CAP
    symbols = list(presentation.alphabet)
    # a subset is an int mask, vertex i its bit 1 << i; successors[k] maps
    # a vertex's bit to the mask of its successors on the k-th symbol
    bit = {v: 1 << i for i, v in enumerate(presentation.vertices)}
    successors = [dict.fromkeys(bit.values(), 0) for _ in symbols]
    at = {a: k for k, a in enumerate(symbols)}
    for u, a, w in presentation.edges:
        successors[at[a]][bit[u]] |= bit[w]
    start = (1 << len(bit)) - 1
    subsets: dict[int, int] = {start: 0}
    order: list[int] = [start]
    table: list[tuple[int, ...]] = []
    for subset in order:
        members = []  # the bits of subset
        while subset:
            low = subset & -subset
            members.append(low)
            subset ^= low
        row = []
        for successor in successors:
            nxt = reduce(or_, map(successor.__getitem__, members), 0)
            if nxt not in subsets:
                if len(order) >= cap:
                    raise CapExceeded(f"more than {cap} reachable subsets")
                subsets[nxt] = len(order)
                order.append(nxt)
            row.append(subsets[nxt])
        table.append(tuple(row))
    if 0 not in subsets:
        subsets[0] = len(order)
        order.append(0)
        table.append(tuple(len(order) - 1 for _ in symbols))
    sink = subsets[0]
    accepting = frozenset(i for s, i in subsets.items() if s)
    raw = Dfa(presentation.alphabet, tuple(table), 0, accepting, sink)
    return minimize(raw)


def is_full_shift(presentation: Presentation) -> bool:
    """Whether every nonempty word over the alphabet labels some path.

    A word leads the minimal DFA of the block language into the sink
    exactly when it is not a block, and every state but the sink is
    reached from the start, so the shift is full exactly when no state
    other than the sink has a transition into it.  Raises CapExceeded
    past ``DEFAULT_SUBSET_CAP``, as :func:`determinize_minimal` does.
    """
    dfa = determinize_minimal(presentation)
    sink = dfa.sink
    return not any(
        sink in row for state, row in enumerate(dfa.transitions) if state != sink
    )


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement, with states renamed in search order."""
    n = dfa.size
    symbol_count = len(dfa.alphabet.symbols)
    cls = [0 if s in dfa.accepting else 1 for s in range(n)]
    while True:
        # a state's signature: its class, then the classes it steps to
        signatures: dict[tuple[int, ...], int] = {}
        new_cls = [
            signatures.setdefault((c, *map(cls.__getitem__, row)), len(signatures))
            for c, row in zip(cls, dfa.transitions)
        ]
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
    Every product is read from these (Froidure & Pin, *Algorithms for
    computing finite semigroups*, 1997): x.j walks j's tree path from x
    through ``right``, and the left Cayley graph ``left[g][x]`` = g.x
    follows from the tree.  ``idempotent[x]``, whether x.x = x, is
    computed once, on first read, and every idempotency question reads
    it: ``is_idempotent``, :func:`idempotents`, the regular J-classes and
    the skeleton's objects.  ``j_classes``, the J-classes and their
    regularity, is one pass computed on first read, and ``green_j`` adds
    the J-order to it.  ``table[i][j]``, the whole n x n table, is
    filled only on first read, for callers that want every product at
    once; no function in the package reads it.
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

    def row(self, i: int) -> list[int]:
        """i.x for every x, by the tree: i.x = (i.p).s for x = p.s."""
        right, parent, last = self.right, self.parent, self.last
        row = [column[i] for column in right]
        for x in range(len(right), len(parent)):
            row.append(right[last[x]][row[parent[x]]])
        return row

    @cached_property
    def left(self) -> tuple[list[int], ...]:
        """The left Cayley graph: ``left[g][x]`` = g.x for the generator
        elements g, which are the generators' rows of the table."""
        return tuple(map(self.row, range(len(self.right))))

    def rows(self, labels: Sequence[L]) -> Iterator[tuple[L, ...]]:
        """The table's rows in order, each product shown by its label:
        row x holds labels[x.b].

        The rows are filled one at a time.  A generator's row is its row
        of ``left``, and any other row is x.b = p.(s.b), row(p) read at
        the positions of row(s), p < x.  Reading positions is blind to
        the labels, so the one recurrence gives the int table (labels
        0..n-1) or the rendered names.  A row is held only until the last
        row built from it, so a caller that consumes the rows one by one
        never holds them all.
        """
        parent, last, left = self.parent, self.last, self.left
        n, k = len(parent), len(left)
        # Exact-size tuples built in C, only for generators that end a tree
        # path (a given table has none).  A non-generator means n >= 2, so
        # each getter has at least two keys and returns a tuple, not a scalar.
        read_at = {g: itemgetter(*left[g]) for g in set(last[k:])}
        last_child = [-1] * n
        for x in range(k, n):
            last_child[parent[x]] = x
        held: list[tuple[L, ...] | None] = [None] * n
        for g, row in enumerate(left):
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

    def right_steps(self, j: int) -> list[Sequence[int]]:
        """Columns of the right Cayley graph that, applied in turn to x,
        give x.j: those along j's path in the BFS tree."""
        steps = []
        while j != -1:
            steps.append(self.right[self.last[j]])
            j = self.parent[j]
        return steps[::-1]

    def product(self, i: int, j: int) -> int:
        """i.j, walked along j's path from i."""
        for column in self.right_steps(j):
            i = column[i]
        return i

    def products(self, xs: Sequence[int], js: Sequence[int]) -> list[tuple[int, ...]]:
        """For each j in js, x.j for every x in xs.

        The xs are walked together along the tree paths of the js, one
        C-level ``itemgetter`` per tree node, and the products at each
        node are kept for the call, so a prefix that several paths share
        is walked once.
        """
        if not xs:
            return [()] * len(js)
        right, parent, last = self.right, self.parent, self.last
        at = {-1: tuple(xs)}  # node -> x.node for each x
        out = []
        for j in js:
            path = []
            while j not in at:
                path.append(j)
                j = parent[j]
            ys = at[j]
            for node in reversed(path):
                column = right[last[node]]
                # a getter of one key returns a scalar
                ys = itemgetter(*ys)(column) if len(ys) > 1 else (column[ys[0]],)
                at[node] = ys
            out.append(ys)
        return out

    @cached_property
    def idempotent(self) -> list[bool]:
        """``idempotent[x]``: whether x.x = x, on first read.

        x.x is x carried up x's own tree path through the left Cayley
        graph, x.x = p.(s.x) for x = p.s, so it is walked once per x.
        """
        parent = self.parent
        # steps[j]: left multiplication by the generator that j's word ends with
        steps = list(map(self.left.__getitem__, self.last))
        flags = []
        for x in range(len(parent)):
            y, j = x, x
            while j != -1:
                y = steps[j][y]
                j = parent[j]
            flags.append(y == x)
        return flags

    def is_idempotent(self, i: int) -> bool:
        return self.idempotent[i]

    def witness_name(self, i: int) -> str:
        return render_word(self.witnesses[i])

    @cached_property
    def j_classes(self) -> JClasses:
        """The J-classes numbered by least member, whether each is regular,
        and the class numbers in the order the pass finished them, each
        after every class below it; computed once, without the J-order."""
        return _j_classes(self)

    @cached_property
    def green_j(self) -> GreenJ:
        """J-classes with their strict order, computed once."""
        classes, regular, _ = self.j_classes
        return GreenJ(classes, _j_order(self), regular)

    def evaluate(self, word: Word) -> int:
        """Value of ``word``, stepped through the right Cayley graph."""
        if len(word) == 0:
            raise ValueError("a semigroup evaluates nonempty words only")
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
) -> FiniteSemigroup:
    """Shortlex breadth-first closure of ``generators`` under ``compose``.

    It builds what Froidure & Pin (*Algorithms for computing finite
    semigroups*, 1997) keep: the right Cayley graph and the BFS tree, in
    which each element x other than a generator is reached as x = p.s, p
    its BFS parent and s a generator.  Elements are found by their
    values, which ``compose`` builds and the index is keyed on: byte codes
    or tuples of states for a DFA, relations otherwise; the right operand
    is always a generator's value.  The Cayley table is not filled here;
    the semigroup fills it from these on first read.  Raises CapExceeded
    past ``DEFAULT_ELEMENT_CAP`` elements.
    """
    cap = DEFAULT_ELEMENT_CAP
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
    # per generator g: g, its value, and the append of its column
    steps = list(enumerate(zip(values[:gen_count], [c.append for c in right])))
    for i, x in enumerate(values):  # values grows as the loop runs
        for g, (value, add) in steps:
            product = compose(x, value)
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
            add(j)

    # a trivial semigroup has no zero, as in parse_cayley_table
    zero = index.get(zero_value) if len(values) > 1 else None
    return FiniteSemigroup(
        tuple(map(tuple, right)), parent, last, tuple(witnesses), gen_ids, zero
    )


def transition_semigroup(dfa: Dfa) -> tuple[FiniteSemigroup, SemigroupMorphism]:
    """Semigroup of state maps induced by nonempty words.

    Words compose left to right: the first letter acts first.  When the
    DFA has a sink, the constant map onto it is the zero and is tagged as
    such if some word induces it.

    A map is the sequence of the states s.w.  With at most 256 states it
    is a ``bytes`` code, and x.g is one C-level ``bytes.translate`` of x's
    code through g's code padded to 256 bytes, a table built once per
    generator; past 256 states it is a tuple, read through ``itemgetter``.
    """
    n = dfa.size
    code = bytes if n <= 256 else tuple
    generators = [
        (a, code(row[k] for row in dfa.transitions))
        for k, a in enumerate(dfa.alphabet)
    ]
    if code is bytes:
        tables = {g: g.ljust(256, b"\0") for _, g in generators}

        def compose(f: bytes, g: bytes) -> bytes:
            return f.translate(tables[g])

    else:

        def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
            # g[f[s]] for each state s, in C
            return itemgetter(*f)(g)

    zero_value = code([dfa.sink] * n) if dfa.sink is not None else None
    semigroup = _closure(generators, compose, zero_value)
    return semigroup, SemigroupMorphism(dfa.alphabet, semigroup, semigroup.generators)


def syntactic_semigroup(
    presentation: Presentation,
) -> tuple[FiniteSemigroup, SemigroupMorphism]:
    """Syntactic semigroup of the block language, with its witness morphism."""
    return transition_semigroup(determinize_minimal(presentation))


Relation = frozenset[tuple[str, str]]


def relation_semigroup(
    generators: Mapping[str, Iterable[tuple[Hashable, Hashable]]],
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

    semigroup = _closure(gens, compose, frozenset())
    alphabet = Alphabet(tuple(sym for sym, _ in gens))
    return semigroup, SemigroupMorphism(alphabet, semigroup, semigroup.generators)


def recognize(morphism: SemigroupMorphism, accept: Iterable[int], word: Word) -> bool:
    """Whether the image of ``word`` lands in ``accept``."""
    return morphism.image(tuple(word)) in set(accept)


def syntactic_oracle(presentation: Presentation, maxlen: int, ctxlen: int) -> list[list[Word]]:
    """Partition words of length <= maxlen by their context behavior.

    Two words u, v fall together when x u y and x v y are blocks for
    exactly the same context pairs with |x|, |y| <= ctxlen, empty contexts
    allowed.  Contexts that are not blocks themselves reject every word,
    so only block contexts are enumerated; the partition is unchanged.

    This is a deliberately naive reference construction: it never touches
    automata or semigroups, only block membership.  Raises CapExceeded
    when there are more than ``DEFAULT_ELEMENT_CAP`` words to enumerate.
    """
    symbols = list(presentation.alphabet)
    total = sum(len(symbols) ** k for k in range(1, maxlen + 1))
    if total > DEFAULT_ELEMENT_CAP:
        raise CapExceeded(
            f"word enumeration: {total} words up to length {maxlen},"
            f" past the cap of {DEFAULT_ELEMENT_CAP}"
        )
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
    """The idempotents in ascending order."""
    return list(compress(range(semigroup.size), semigroup.idempotent))


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
    """J-classes of ``semigroup`` and their order, computed on the first
    call only.  The package's verdicts read ``semigroup.j_classes``, the
    pass without the order."""
    return semigroup.green_j


def _j_classes(semigroup: FiniteSemigroup) -> JClasses:
    """J-classes from the Cayley graphs, in one Tarjan pass.

    Multiplying by one generator on either side steps down (or across) the
    J-order, and every two-sided ideal membership is witnessed by such
    steps, so J-classes are the strongly connected components of the graph
    with edges s -> s.g (the columns of ``right``) and s -> g.s (the rows
    of ``left``), and the order is its condensation.  Tarjan's algorithm
    finishes a component after every component it reaches; the pass
    records that order and leaves the order itself to :func:`_j_order`.
    Classes are numbered by least member.
    """
    n = semigroup.size
    # edges[s]: s.g for each generator g, then g.s
    edges = list(zip(*semigroup.right, *semigroup.left))
    tick, finished = count(), count(n)
    num = [-1] * n  # discovery order
    # least num reached on the stack; once s's component is done, n plus
    # the component's place in finishing order, above every num
    low = [0] * n
    stack: list[int] = []
    for root in range(n):
        if num[root] != -1:
            continue
        num[root] = low[root] = next(tick)
        stack.append(root)
        path = [(root, iter(edges[root]))]
        while path:
            v, out = path[-1]
            for w in out:
                if num[w] == -1:
                    num[w] = low[w] = next(tick)
                    stack.append(w)
                    path.append((w, iter(edges[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                path.pop()
                if low[v] == num[v]:
                    done = next(finished)
                    w = -1
                    while w != v:
                        w = stack.pop()
                        low[w] = done
                elif low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]

    members: dict[int, list[int]] = {}
    for s, done in enumerate(low):
        members.setdefault(done, []).append(s)
    classes = tuple(map(tuple, members.values()))
    idempotent = semigroup.idempotent.__getitem__
    regular = tuple(any(map(idempotent, cls)) for cls in classes)
    keys = list(members)  # n plus each class's place in finishing order
    return classes, regular, tuple(sorted(range(len(keys)), key=keys.__getitem__))


def _j_order(semigroup: FiniteSemigroup) -> frozenset[tuple[int, int]]:
    """The strict J-order, (d, c) for each class d below class c: the
    condensation of the pass's edges, closed up in finishing order, so
    the bit mask of the classes below each end of an edge is at hand."""
    classes, _, finished = semigroup.j_classes
    of = [0] * semigroup.size
    for c, cls in enumerate(classes):
        for s in cls:
            of[s] = c
    edges = list(zip(*semigroup.right, *semigroup.left))
    down = [0] * len(classes)
    for c in finished:
        for d in {of[t] for s in classes[c] for t in edges[s]} - {c}:
            down[c] |= down[d] | 1 << d
    return frozenset(
        (d, c)
        for c, mask in enumerate(down)
        for d, bit in enumerate(reversed(f"{mask:b}"))
        if bit == "1"
    )


def maximal_subgroup(semigroup: FiniteSemigroup, e: int) -> tuple[int, ...]:
    """Group of units of the local monoid e S e, which has identity e.

    e S e is x.e for x in e's row, and x is a unit when x.y = e = y.x
    for some y in e S e, with x.y read from x's row.
    """
    if not semigroup.is_idempotent(e):
        raise NotIdempotent(f"element {semigroup.witness_name(e)} is not idempotent")
    (column,) = semigroup.products(semigroup.row(e), [e])
    local = sorted(set(column))
    product = semigroup.product
    return tuple(
        x
        for x, row in zip(local, map(semigroup.row, local))
        if any(row[y] == e and product(y, x) == e for y in local)
    )


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
    A trivial semigroup gets no zero, as the syntactic one of a full shift
    has none.
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
            for z in range(n if n > 1 else 0)
            if all(table[z][j] == z and table[j][z] == z for j in range(n))
        ),
        None,
    )
    return FiniteSemigroup.from_table(table, tuple(witnesses), generators, zero)
