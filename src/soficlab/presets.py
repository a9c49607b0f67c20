"""Built-in presentations, substitutions, and bracket graphs."""

from __future__ import annotations

import re

from .errors import ParseError
from .shift import Alphabet, DyckGraph, Presentation, Substitution

AB = Alphabet(("a", "b"))


def even_shift() -> Presentation:
    """Runs of b between two a have even length."""
    return Presentation(AB, ("1", "2"), (("1", "a", "1"), ("1", "b", "2"), ("2", "b", "1")))


def golden_mean_shift() -> Presentation:
    """No two consecutive b."""
    return Presentation(AB, ("1", "2"), (("1", "a", "1"), ("1", "b", "2"), ("2", "a", "1")))


def full_shift_2() -> Presentation:
    """Everything over two symbols."""
    return Presentation(AB, ("1",), (("1", "a", "1"), ("1", "b", "1")))


def period_2_shift() -> Presentation:
    """Strict alternation: both aa and bb forbidden."""
    return Presentation(AB, ("1", "2"), (("1", "a", "2"), ("2", "b", "1")))


def fibonacci_substitution() -> Substitution:
    return Substitution(AB, {"a": ("a", "b"), "b": ("a",)})


PRESENTATIONS = {
    "even": even_shift,
    "golden": golden_mean_shift,
    "full2": full_shift_2,
    "period2": period_2_shift,
}

# Loop names for the one-vertex bracket graphs D1, D2, ...
_LOOP_NAMES = "efghijklmnopqrstuvwxyz"


def dyck_graph(name: str) -> DyckGraph:
    """Built-in bracket graphs: ``Dn`` is one vertex with n loops e, f, g, ..."""
    match = re.fullmatch(r"D([1-9][0-9]*)", name)
    if not match:
        raise ParseError(f"unknown bracket graph {name!r}")
    n = int(match.group(1))
    if n > len(_LOOP_NAMES):
        raise ParseError(f"built-in bracket graphs stop at D{len(_LOOP_NAMES)}")
    return DyckGraph(("1",), tuple((_LOOP_NAMES[i], "1", "1") for i in range(n)))
