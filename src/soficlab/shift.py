"""Finite presentations of sofic shifts and operations on their block languages.

A presentation is a finite directed graph with edges labeled by alphabet
symbols.  The shift it presents is the set of biinfinite label sequences of
biinfinite paths; everything here works with the associated language of
finite blocks, which is factorial (closed under factors) and prolongable
(every block extends on both sides) once the graph is essential.

Words are tuples of symbols.  Symbols are short printable strings; plain
one-character alphabets are the common case, but recodings introduce
compound symbols such as ``a.b``, so nothing assumes single characters.

The module also covers the small zoo of side structures the rest of the
package needs: sliding block codes, substitutions and their languages, and
the bracket languages of graphs (matched push/pop edge symbols).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import (
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

Word = tuple[str, ...]
Edge = tuple[str, str, str]

DEFAULT_WORD_CAP = 1_000_000
# Symbols in the factors of one substitution image, ten per word at the word
# cap: an answer's memory and slicing time grow with its symbols, not its words.
SYMBOL_CAP = 10_000_000
DEFAULT_VERTEX_CAP = 100_000

EXPANSION_SYMBOL = "@"


def _check_token(token: str, kind: str) -> str:
    # split() cuts at exactly the characters isspace() accepts, so this
    # rejects the empty token and any token holding whitespace
    if token.split() != [token] or "#" in token:
        raise ParseError(f"bad {kind} token: {token!r}")
    if not token.isprintable():
        raise ParseError(f"unprintable {kind} token: {token!r}")
    return token


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct symbols.

    Declaration order matters: it fixes shortlex order for every word
    enumeration in the package.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ParseError("alphabet is empty")
        seen = set()
        for s in self.symbols:
            _check_token(s, "symbol")
            if s in seen:
                raise ParseError(f"duplicate symbol: {s!r}")
            seen.add(s)

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} not in alphabet") from None

    def sort_key(self, word: Word) -> tuple[int, tuple[int, ...]]:
        """Shortlex key: length first, then symbol indices."""
        return (len(word), tuple(self._index[s] for s in word))

    def check_word(self, word: Word) -> Word:
        for s in word:
            if s not in self._index:
                raise AlphabetMismatch(f"symbol {s!r} not in alphabet")
        return word


@dataclass(frozen=True)
class Presentation:
    """Labeled directed graph presenting a sofic shift.

    Vertices are name strings; edges are (source, label, target) triples
    with labels drawn from ``alphabet``.  Order of vertices and edges is
    the declaration order and is preserved by every operation, so equal
    inputs give byte-identical outputs downstream.

    Constructing a Presentation checks only local well-formedness.  Use
    :func:`trim_essential` (or :func:`load_presentation`, which applies it)
    to guarantee the graph is essential, i.e. every vertex lies on a
    biinfinite path.
    """

    alphabet: Alphabet
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise EmptyShift("presentation has no vertices")
        vs = set()
        for v in self.vertices:
            _check_token(v, "vertex")
            if v in vs:
                raise ParseError(f"duplicate vertex: {v!r}")
            vs.add(v)
        seen = set()
        for u, a, w in self.edges:
            if u not in vs or w not in vs:
                raise ParseError(f"edge {u} {a} {w} uses undeclared vertex")
            if a not in self.alphabet:
                raise ParseError(f"edge {u} {a} {w} uses unknown label")
            if (u, a, w) in seen:
                raise ParseError(f"duplicate edge: {u} {a} {w}")
            seen.add((u, a, w))

    @cached_property
    def _succ(self) -> dict[tuple[str, str], tuple[str, ...]]:
        table: dict[tuple[str, str], list[str]] = {}
        for u, a, w in self.edges:
            table.setdefault((u, a), []).append(w)
        return {k: tuple(v) for k, v in table.items()}

    def successors(self, vertex: str, symbol: str) -> tuple[str, ...]:
        return self._succ.get((vertex, symbol), ())

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e[0]].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e[2]].append(e)
        return {v: tuple(es) for v, es in table.items()}


def trim_essential(presentation: Presentation) -> Presentation:
    """Restrict to the essential part: every vertex keeps an in- and an out-edge.

    Removal cascades until stable.  Raises EmptyShift when nothing is left,
    which means the presented shift is empty.
    """
    alive = set(presentation.vertices)
    edges = list(presentation.edges)
    while True:
        outs = {u for u, _, _ in edges}
        ins = {w for _, _, w in edges}
        keep = {v for v in alive if v in outs and v in ins}
        if keep == alive:
            break
        alive = keep
        edges = [e for e in edges if e[0] in alive and e[2] in alive]
    if not alive:
        raise EmptyShift("no vertex lies on a biinfinite path")
    return Presentation(
        presentation.alphabet,
        tuple(v for v in presentation.vertices if v in alive),
        tuple(edges),
    )


def load_presentation(text: str) -> Presentation:
    """Parse the presentation file format and trim to the essential part.

    The format is line based; ``#`` starts a comment.  One ``alphabet``
    line comes first, then optional ``vertex`` lines, then ``edge SRC
    LABEL DST`` lines.  Vertices may be declared implicitly by edges;
    declaration order (explicit first, then first occurrence) is kept.

    Examples
    --------
    >>> p = load_presentation('''
    ... alphabet a b
    ... edge 1 a 1
    ... edge 1 b 2
    ... edge 2 b 1
    ... ''')
    >>> p.vertices
    ('1', '2')
    """
    alphabet: Alphabet | None = None
    vertices: list[str] = []
    vertex_set: set[str] = set()
    edges: list[Edge] = []
    edge_set: set[Edge] = set()

    def declare(v: str) -> None:
        if v not in vertex_set:
            vertex_set.add(v)
            vertices.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head, rest = fields[0], fields[1:]
        if head == "alphabet":
            if alphabet is not None:
                raise ParseError(f"line {lineno}: second alphabet line")
            if not rest:
                raise ParseError(f"line {lineno}: alphabet line has no symbols")
            alphabet = Alphabet(tuple(rest))
        elif head == "vertex":
            if len(rest) != 1:
                raise ParseError(f"line {lineno}: vertex line wants one name")
            declare(_check_token(rest[0], "vertex"))
        elif head == "edge":
            if alphabet is None:
                raise ParseError(f"line {lineno}: edge before alphabet line")
            if len(rest) != 3:
                raise ParseError(f"line {lineno}: edge line wants SRC LABEL DST")
            u, a, w = rest
            if a not in alphabet:
                raise ParseError(f"line {lineno}: unknown label {a!r}")
            declare(_check_token(u, "vertex"))
            declare(_check_token(w, "vertex"))
            if (u, a, w) not in edge_set:
                edge_set.add((u, a, w))
                edges.append((u, a, w))
        else:
            raise ParseError(f"line {lineno}: unknown directive {head!r}")

    if alphabet is None:
        raise ParseError("missing alphabet line")
    if not vertices:
        raise EmptyShift("presentation has no vertices")
    return trim_essential(Presentation(alphabet, tuple(vertices), tuple(edges)))


def render_presentation(presentation: Presentation) -> str:
    """Inverse of :func:`load_presentation`, up to trimming."""
    lines = ["alphabet " + " ".join(presentation.alphabet)]
    lines += [f"vertex {v}" for v in presentation.vertices]
    lines += [f"edge {u} {a} {w}" for u, a, w in presentation.edges]
    return "\n".join(lines) + "\n"


def blocks(
    presentation: Presentation, max_len: int, *, cap: int = DEFAULT_WORD_CAP
) -> set[Word]:
    """All path label words of length 1..max_len.

    Distinct paths with equal labels contribute one word, so the result is
    exactly the block language of the presented shift cut at ``max_len``.
    Raises CapExceeded when the result would grow past ``cap`` words.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    result: set[Word] = set()
    # Map each word of the current length to the vertices its paths can end at.
    level: dict[Word, frozenset[str]] = {}
    for u, a, w in presentation.edges:
        key: Word = (a,)
        level[key] = level.get(key, frozenset()) | {w}
    for length in range(1, max_len + 1):
        if not level:
            break
        result.update(level)
        if len(result) > cap:
            raise CapExceeded(f"more than {cap} blocks of length <= {length}")
        if length == max_len:
            break
        nxt: dict[Word, set[str]] = {}
        for word, ends in level.items():
            for v in ends:
                for _, a, w in presentation.out_edges[v]:
                    nxt.setdefault(word + (a,), set()).add(w)
        level = {w: frozenset(ends) for w, ends in nxt.items()}
    return result


def contains_block(presentation: Presentation, word: Word) -> bool:
    """Whether ``word`` labels some path of the presentation.

    Propagates the set of possible path positions symbol by symbol, so the
    cost is linear in ``len(word)`` for a fixed graph.
    """
    if len(word) == 0:
        raise ValueError("blocks are nonempty words")
    presentation.alphabet.check_word(word)
    current = set(presentation.vertices)
    for a in word:
        current = {w for u in current for w in presentation.successors(u, a)}
        if not current:
            return False
    return True


def is_irreducible(presentation: Presentation) -> bool:
    """Whether the graph is strongly connected.

    For an essential presentation this is the working notion of an
    irreducible shift: any block can reach any other through the graph.
    """
    vertices = presentation.vertices
    if len(vertices) == 1:
        return True

    def reach(start: str, neighbours: Callable[[str], Iterable[str]]) -> set[str]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in neighbours(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    forward = reach(vertices[0], lambda v: (e[2] for e in presentation.out_edges[v]))
    if len(forward) != len(vertices):
        return False
    backward = reach(vertices[0], lambda v: (e[0] for e in presentation.in_edges[v]))
    return len(backward) == len(vertices)


def shift_from_forbidden(alphabet: Alphabet, forbidden: Iterable[Word]) -> Presentation:
    """Presentation of the shift over ``alphabet`` avoiding the given factors.

    States of the constructed graph are the proper prefixes of forbidden
    words (the longest suffix of the history that could still grow into a
    forbidden factor); reading a symbol that completes a forbidden word
    kills the path.  The live part is trimmed, so the result is essential;
    EmptyShift propagates when nothing survives.
    """
    fset: set[Word] = set()
    for f in forbidden:
        if len(f) == 0:
            raise ParseError("forbidden words must be nonempty")
        alphabet.check_word(f)
        fset.add(tuple(f))
    prefixes = {(): 0}
    ordered: list[Word] = [()]
    for f in sorted(fset, key=alphabet.sort_key):
        for i in range(1, len(f)):
            p = f[:i]
            if p not in prefixes and p not in fset:
                prefixes[p] = len(ordered)
                ordered.append(p)

    def step(state: Word, symbol: str) -> Word | None:
        x = state + (symbol,)
        best: Word | None = None
        for i in range(len(x) + 1):
            suffix = x[i:]
            if suffix in fset:
                return None
            if best is None and suffix in prefixes:
                best = suffix
        return best

    names = {p: f"q{i}" for p, i in prefixes.items()}
    edges: list[Edge] = []
    for p in ordered:
        for a in alphabet:
            q = step(p, a)
            if q is not None:
                edges.append((names[p], a, names[q]))
    raw = Presentation(alphabet, tuple(names[p] for p in ordered), tuple(edges))
    return trim_essential(raw)


def symbol_expansion(presentation: Presentation, symbol: str) -> Presentation:
    """Expand ``symbol`` to the two-symbol word ``symbol @``.

    Every edge labeled ``symbol`` into a vertex v is rerouted through one
    relay vertex for v, whose single outgoing edge is labeled with the
    fresh symbol ``@``.  One relay per target keeps path labels in exact
    correspondence: nothing new can be spelled through a relay.
    """
    if symbol not in presentation.alphabet:
        raise UnknownSymbol(f"symbol {symbol!r} not in alphabet")
    if EXPANSION_SYMBOL in presentation.alphabet:
        raise SymbolClash(f"alphabet already contains {EXPANSION_SYMBOL!r}")
    alphabet = Alphabet(presentation.alphabet.symbols + (EXPANSION_SYMBOL,))

    taken = set(presentation.vertices)

    def relay_name(v: str) -> str:
        name = f"@{v}"
        while name in taken:
            name = "@" + name
        return name

    relays: dict[str, str] = {}
    vertices = list(presentation.vertices)
    edges: list[Edge] = []
    relay_edges: list[Edge] = []
    for u, a, w in presentation.edges:
        if a != symbol:
            edges.append((u, a, w))
            continue
        if w not in relays:
            z = relay_name(w)
            relays[w] = z
            taken.add(z)
            vertices.append(z)
            relay_edges.append((z, EXPANSION_SYMBOL, w))
        edges.append((u, symbol, relays[w]))
    return Presentation(alphabet, tuple(vertices), tuple(edges + relay_edges))


def higher_block(
    presentation: Presentation,
    order: int,
    *,
    cap: int = DEFAULT_VERTEX_CAP,
) -> Presentation:
    """Recoding whose symbols are the ``order``-blocks of the shift.

    Vertices are the paths of ``order - 1`` edges; each path of ``order``
    edges becomes one edge, labeled by its label word joined with dots
    (``a.b``).  Requires ``order >= 2``.
    """
    if order < 2:
        raise ValueError("order must be at least 2")

    paths: list[tuple[Edge, ...]] = [(e,) for e in presentation.edges]
    for _ in range(order - 2):
        paths = [p + (e,) for p in paths for e in presentation.out_edges[p[-1][2]]]
        if len(paths) > cap:
            raise CapExceeded(f"more than {cap} path vertices")
    if not paths:
        raise EmptyShift("no path of the requested length")
    index = {p: f"q{i}" for i, p in enumerate(paths)}

    words: dict[str, Word] = {}  # each symbol's label word
    edges: list[Edge] = []
    for p in paths:
        for e in presentation.out_edges[p[-1][2]]:
            q = p + (e,)
            word = tuple(x[1] for x in q)
            sym = ".".join(word)
            if words.setdefault(sym, word) != word:
                raise SymbolClash(f"blocks {words[sym]} and {word} both join to {sym!r}")
            if len(words) > cap:
                raise CapExceeded(f"more than {cap} block symbols")
            edges.append((index[p], sym, index[q[1:]]))

    key = presentation.alphabet.sort_key
    labels = sorted(words, key=lambda sym: key(words[sym]))
    raw = Presentation(Alphabet(tuple(labels)), tuple(index.values()), tuple(edges))
    return trim_essential(raw)


@dataclass(frozen=True)
class BlockMap:
    """Sliding block code with ``memory`` lookback and ``anticipation`` lookahead.

    ``table`` must assign a target symbol to every source word of length
    ``memory + anticipation + 1``.
    """

    source: Alphabet
    target: Alphabet
    memory: int
    anticipation: int
    table: Mapping[Word, str]

    def __post_init__(self) -> None:
        if self.memory < 0 or self.anticipation < 0:
            raise ValueError("memory and anticipation must be nonnegative")
        width = self.window
        todo = [()]
        for _ in range(width):
            todo = [w + (a,) for w in todo for a in self.source]
        for w in todo:
            out = self.table.get(tuple(w))
            if out is None:
                raise ParseError(f"block map table misses window {w}")
            if out not in self.target:
                raise ParseError(f"block map emits unknown symbol {out!r}")

    @property
    def window(self) -> int:
        return self.memory + self.anticipation + 1

    @classmethod
    def from_function(
        cls,
        source: Alphabet,
        target: Alphabet,
        memory: int,
        anticipation: int,
        rule: Callable[[Word], str],
    ) -> "BlockMap":
        width = memory + anticipation + 1
        windows: list[Word] = [()]
        for _ in range(width):
            windows = [w + (a,) for w in windows for a in source]
        return cls(source, target, memory, anticipation, {w: rule(w) for w in windows})


def apply_block_map(block_map: BlockMap, word: Word) -> Word:
    """Slide the window across ``word``; output is shorter by ``window - 1``.

    Raises TooShort when the word cannot host a single window.
    """
    block_map.source.check_word(word)
    width = block_map.window
    if len(word) < width:
        raise TooShort(f"need at least {width} symbols, got {len(word)}")
    return tuple(
        block_map.table[word[i : i + width]] for i in range(len(word) - width + 1)
    )


@dataclass(frozen=True)
class Substitution:
    """Map sending each symbol to a nonempty word over the same alphabet."""

    alphabet: Alphabet
    images: Mapping[str, Word]

    def __post_init__(self) -> None:
        for a in self.alphabet:
            img = self.images.get(a)
            if img is None or len(img) == 0:
                raise ParseError(f"substitution misses symbol {a!r}")
            self.alphabet.check_word(img)
        if len(self.images) != len(self.alphabet):
            raise ParseError("substitution maps symbols outside the alphabet")

    def apply(self, word: Word) -> Word:
        return tuple(c for a in word for c in self.images[a])


def parse_substitution(text: str) -> Substitution:
    """Parse the literal form ``a:ab,b:a``; letter order fixes the alphabet."""
    images: dict[str, Word] = {}
    order: list[str] = []
    for part in text.split(","):
        if ":" not in part:
            raise ParseError(f"bad substitution entry {part!r}")
        letter, image = part.split(":", 1)
        letter = letter.strip()
        image = image.strip()
        if len(letter) != 1 or not image:
            raise ParseError(f"bad substitution entry {part!r}")
        if letter in images:
            raise ParseError(f"repeated letter {letter!r}")
        order.append(letter)
        images[letter] = tuple(image)
    alphabet = Alphabet(tuple(order))
    for letter, image in images.items():
        for c in image:
            if c not in alphabet:
                raise ParseError(f"image of {letter!r} uses unknown symbol {c!r}")
    return Substitution(alphabet, images)


def incidence_matrix(substitution: Substitution) -> list[list[int]]:
    """Row b, column a counts occurrences of b in the image of a."""
    symbols = list(substitution.alphabet)
    return [
        [substitution.images[a].count(b) for a in symbols] for b in symbols
    ]


def is_primitive(substitution: Substitution) -> bool:
    """Whether some power of the incidence matrix is strictly positive.

    The power is searched up to (n - 1)^2 + 1, which is enough for any
    primitive nonnegative matrix.  The identity on a one-letter alphabet
    is rejected even though its matrix is positive: it generates no shift.
    """
    symbols = substitution.alphabet.symbols
    if len(symbols) == 1 and substitution.images[symbols[0]] == (symbols[0],):
        return False
    n = len(symbols)
    matrix = incidence_matrix(substitution)
    bound = (n - 1) * (n - 1) + 1
    power = matrix
    for _ in range(bound):
        if all(x > 0 for row in power for x in row):
            return True
        power = [
            [sum(prow[k] * matrix[k][c] for k in range(n)) for c in range(n)]
            for prow in power
        ]
    return False


def _factor_totals(word: Word, max_len: int) -> tuple[int, int]:
    """Number and total length of the distinct factors of ``word`` of length 1..max_len.

    Counted on the suffix automaton of ``word``, in O(len(word)) states,
    without taking a slice: state v stands for the factors whose lengths
    run from ``length[link[v]] + 1`` to ``length[v]``.
    """
    length = [0]
    link = [-1]
    edges: list[dict[str, int]] = [{}]
    tail = 0
    for c in word:
        cur = len(length)
        length.append(length[tail] + 1)
        link.append(0)
        edges.append({})
        p = tail
        while p != -1 and c not in edges[p]:
            edges[p][c] = cur
            p = link[p]
        if p != -1:
            q = edges[p][c]
            if length[q] == length[p] + 1:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                edges.append(dict(edges[q]))
                while p != -1 and edges[p].get(c) == q:
                    edges[p][c] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        tail = cur
    count = symbols = 0
    for v in range(1, len(length)):
        low, high = length[link[v]], min(length[v], max_len)
        if high > low:
            count += high - low
            symbols += (high * (high + 1) - low * (low + 1)) // 2
    return count, symbols


def substitution_blocks(
    substitution: Substitution, max_len: int, *, cap: int = DEFAULT_WORD_CAP
) -> set[Word]:
    """Words of length 1..max_len occurring in some iterated image.

    Requires a primitive substitution (NotPrimitive otherwise).  Iteration
    stops once the collected set sits still for one extra round and every
    image is at least twice ``max_len`` long, after which no new short
    factor can appear.  CapExceeded when an image grows past ``cap``
    symbols, when the collected set grows past ``cap`` words, or when the
    factors of one image hold more than SYMBOL_CAP symbols in all.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if not is_primitive(substitution):
        raise NotPrimitive("substitution is not primitive")

    def grow(images: dict[str, Word]) -> dict[str, Word]:
        images = {a: substitution.apply(w) for a, w in images.items()}
        if any(len(w) > cap for w in images.values()):
            raise CapExceeded(f"substitution image grew past {cap} symbols")
        return images

    # The loop below cannot stop before every image is 2 * max_len long,
    # and the answer holds every factor of every image up to then.  Count
    # those factors and their symbols first, so that an answer past either
    # cap is refused before any of them is sliced out and stored.
    images: dict[str, Word] = {a: (a,) for a in substitution.alphabet}
    while not all(len(w) >= 2 * max_len for w in images.values()):
        images = grow(images)
        for w in images.values():
            count, symbols = _factor_totals(w, max_len)
            if count > cap:
                raise CapExceeded(
                    f"an image has more than {cap} factors up to length {max_len}"
                )
            if symbols > SYMBOL_CAP:
                raise CapExceeded(
                    f"the factors of an image up to length {max_len} "
                    f"hold more than {SYMBOL_CAP} symbols"
                )

    def factors(word: Word, sink: set[Word]) -> None:
        for i in range(len(word)):
            for j in range(i + 1, min(i + max_len, len(word)) + 1):
                sink.add(word[i:j])
            if len(sink) > cap:
                raise CapExceeded(f"more than {cap} factors collected")

    collected: set[Word] = set()
    images = {a: (a,) for a in substitution.alphabet}
    while True:
        images = grow(images)
        before = len(collected)
        for w in images.values():
            factors(w, collected)
        grown = len(collected) > before
        long_enough = all(len(w) >= 2 * max_len for w in images.values())
        if not grown and long_enough:
            return collected


def recurrence_bound(language: Iterable[Word], probe: Word, n_max: int) -> int | None:
    """Least N <= n_max such that every length-N word of ``language`` contains ``probe``.

    ``language`` must be factor-closed and complete up to ``n_max``.
    Raises UAbsent when the probe itself is not in the language; returns
    None when no bound exists within range.
    """
    words = set(language)
    probe = tuple(probe)
    if probe not in words:
        raise UAbsent(f"probe {probe!r} not in the language")

    def contains(w: Word) -> bool:
        k = len(probe)
        return any(w[i : i + k] == probe for i in range(len(w) - k + 1))

    for n in range(1, n_max + 1):
        level = [w for w in words if len(w) == n]
        if level and all(contains(w) for w in level):
            return n
    return None


@dataclass(frozen=True)
class DyckGraph:
    """Directed multigraph with named edges, for bracket languages."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (name, source, target)

    def __post_init__(self) -> None:
        vs = set()
        for v in self.vertices:
            _check_token(v, "vertex")
            if v in vs:
                raise ParseError(f"duplicate vertex: {v!r}")
            vs.add(v)
        names = set()
        for name, u, w in self.edges:
            _check_token(name, "edge name")
            if "+" in name or "-" in name:
                # Signs delimit bracket symbols, so names cannot contain them.
                raise ParseError(f"edge name may not contain + or -: {name!r}")
            if name in names:
                raise ParseError(f"duplicate edge name: {name!r}")
            names.add(name)
            if u not in vs or w not in vs:
                raise ParseError(f"edge {name} uses undeclared vertex")

    @cached_property
    def edge_map(self) -> dict[str, tuple[str, str]]:
        return {name: (u, w) for name, u, w in self.edges}


def load_dyck_graph(text: str) -> DyckGraph:
    """Parse the graph file format: ``vertex V`` and ``edge NAME SRC DST`` lines."""
    vertices: list[str] = []
    vertex_set: set[str] = set()
    edges: list[tuple[str, str, str]] = []

    def declare(v: str) -> None:
        if v not in vertex_set:
            vertex_set.add(v)
            vertices.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "vertex" and len(fields) == 2:
            declare(_check_token(fields[1], "vertex"))
        elif fields[0] == "edge" and len(fields) == 4:
            name, u, w = fields[1:]
            declare(_check_token(u, "vertex"))
            declare(_check_token(w, "vertex"))
            edges.append((name, u, w))
        else:
            raise ParseError(f"line {lineno}: expected vertex or edge line")
    if not vertices:
        raise ParseError("graph has no vertices")
    return DyckGraph(tuple(vertices), tuple(edges))


DyckWord = tuple[tuple[str, str], ...]  # (edge name, "-" opening or "+" closing)


_BRACKET_SYMBOL = re.compile(r"([^+\-\s]+)([+-])")


def parse_dyck_word(text: str, graph: DyckGraph) -> DyckWord:
    """Parse bracket symbols ``NAME-`` / ``NAME+``.

    Symbols may be run together (``e-f-f+e+``) or separated by whitespace;
    each sign closes the name before it.
    """
    word: list[tuple[str, str]] = []
    for chunk in text.split():
        pos = 0
        for found in _BRACKET_SYMBOL.finditer(chunk):
            if found.start() != pos:
                raise ParseError(f"bad bracket symbol near {chunk[pos:]!r}")
            name, polarity = found.group(1), found.group(2)
            if name not in graph.edge_map:
                raise UnknownEdge(f"unknown edge {name!r}")
            word.append((name, polarity))
            pos = found.end()
        if pos != len(chunk):
            raise ParseError(f"bad bracket symbol near {chunk[pos:]!r}")
    if not word:
        raise ParseError("empty bracket word")
    return tuple(word)


def markov_dyck_member(graph: DyckGraph, word: DyckWord) -> bool:
    """Whether a bracket word is admissible for the graph.

    ``e-`` opens edge e (walk forward), ``e+`` closes it (walk back).  A
    closing symbol must match the most recent unmatched opening symbol,
    and the walk must stay consistent: openings leave the current vertex
    along their edge, closings arrive against it.  Unmatched closings are
    allowed when the stack is empty, as long as the vertex fits.
    """
    position: str | None = None
    stack: list[str] = []
    for name, polarity in word:
        located = graph.edge_map.get(name)
        if located is None:
            raise UnknownEdge(f"unknown edge {name!r}")
        src, dst = located
        if polarity == "-":
            if position is not None and position != src:
                return False
            stack.append(name)
            position = dst
        elif polarity == "+":
            if position is not None and position != dst:
                return False
            if stack and stack.pop() != name:
                return False
            position = src
        else:
            raise ParseError(f"bad polarity {polarity!r}")
    return True
