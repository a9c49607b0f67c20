"""Command line front end.

Output is line oriented and deterministic so it can be golden-tested with
plain diffs.  Exit codes: 0 success, 1 usage error, 2 invalid input
(including unreadable files), 3 resource cap or search timeout.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path
from typing import IO, Callable, Optional, Sequence

from . import presets
from .errors import InputError, ResourceError
from .flowlab import flow_compare, invariant_report, markov_dyck_flow_compare
from .karoubi import dump_chunks, envelope_skeleton
from .semigroups import (
    is_plus_free,
    render_cayley_table,
    render_word,
    syntactic_semigroup,
)
from .shift import (
    Alphabet,
    DyckGraph,
    Presentation,
    Word,
    blocks,
    contains_block,
    higher_block,
    load_dyck_graph,
    load_presentation,
    markov_dyck_member,
    parse_dyck_word,
    parse_substitution,
    render_presentation,
    substitution_blocks,
    symbol_expansion,
)

_BUILTIN_DYCK = re.compile(r"D[1-9][0-9]*")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); usage problems must exit 1 instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return parse


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _builtin_presentation(name: str) -> Presentation:
    try:
        factory = presets.PRESENTATIONS[name]
    except KeyError:
        known = ", ".join(sorted(presets.PRESENTATIONS))
        raise InputError(f"unknown builtin {name!r} (available: {known})") from None
    return factory()


def _one_presentation(args: argparse.Namespace) -> Presentation:
    if (args.file is None) == (args.builtin is None):
        raise _UsageError("give exactly one of FILE or --builtin NAME")
    if args.builtin is not None:
        return _builtin_presentation(args.builtin)
    return load_presentation(_read(args.file))


def _two_presentations(args: argparse.Namespace) -> tuple[Presentation, Presentation]:
    sources: list[Presentation] = [load_presentation(_read(f)) for f in args.files]
    sources += [_builtin_presentation(n) for n in args.builtin or []]
    if len(sources) != 2:
        raise _UsageError("need exactly two shifts (files and/or --builtin names)")
    return sources[0], sources[1]


def _dyck_source(arg: str) -> DyckGraph:
    # Names of the form Dn are builtins; anything else is a file path.
    if _BUILTIN_DYCK.fullmatch(arg):
        return presets.dyck_graph(arg)
    return load_dyck_graph(_read(arg))


def _parse_word(alphabet: Alphabet, text: str) -> Word:
    if not text:
        raise InputError("empty word")
    word = tuple(text.split(".")) if "." in text else tuple(text)
    return alphabet.check_word(word)


def _bool_line(value: bool) -> str:
    return ("true" if value else "false") + "\n"


def _cmd_inspect(args: argparse.Namespace, out: IO[str]) -> int:
    out.write(invariant_report(_one_presentation(args)).render())
    return 0


def _cmd_syntactic(args: argparse.Namespace, out: IO[str]) -> int:
    semigroup, _ = syntactic_semigroup(_one_presentation(args))
    out.write(render_cayley_table(semigroup))
    return 0


def _cmd_karoubi(args: argparse.Namespace, out: IO[str]) -> int:
    semigroup, _ = syntactic_semigroup(_one_presentation(args))
    for chunk in dump_chunks(envelope_skeleton(semigroup)):
        out.write(chunk)
    return 0


def _cmd_compare(args: argparse.Namespace, out: IO[str]) -> int:
    left, right = _two_presentations(args)
    out.write(flow_compare(left, right).token + "\n")
    return 0


def _cmd_expand(args: argparse.Namespace, out: IO[str]) -> int:
    expanded = symbol_expansion(_one_presentation(args), args.symbol)
    out.write(render_presentation(expanded))
    return 0


def _cmd_hblock(args: argparse.Namespace, out: IO[str]) -> int:
    recoded = higher_block(_one_presentation(args), args.order)
    out.write(render_presentation(recoded))
    return 0


def _cmd_blocks(args: argparse.Namespace, out: IO[str]) -> int:
    presentation = _one_presentation(args)
    words = blocks(presentation, args.length)
    for word in sorted(words, key=presentation.alphabet.sort_key):
        out.write(render_word(word) + "\n")
    return 0


def _cmd_member(args: argparse.Namespace, out: IO[str]) -> int:
    presentation = _one_presentation(args)
    word = _parse_word(presentation.alphabet, args.word)
    out.write(_bool_line(contains_block(presentation, word)))
    return 0


def _cmd_starfree(args: argparse.Namespace, out: IO[str]) -> int:
    out.write(_bool_line(is_plus_free(_one_presentation(args))))
    return 0


def _cmd_subst(args: argparse.Namespace, out: IO[str]) -> int:
    substitution = parse_substitution(args.rules)
    words = substitution_blocks(substitution, args.blocks)
    for word in sorted(words, key=substitution.alphabet.sort_key):
        out.write(render_word(word) + "\n")
    return 0


def _cmd_dyck(args: argparse.Namespace, out: IO[str]) -> int:
    graph = _dyck_source(args.graph)
    word = parse_dyck_word(args.word, graph)
    out.write(_bool_line(markov_dyck_member(graph, word)))
    return 0


def _cmd_dyckcompare(args: argparse.Namespace, out: IO[str]) -> int:
    left = _dyck_source(args.left)
    right = _dyck_source(args.right)
    out.write(markov_dyck_flow_compare(left, right).token + "\n")
    return 0


def _add_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", nargs="?", default=None, metavar="FILE",
                     help="presentation file")
    sub.add_argument("--builtin", metavar="NAME", default=None,
                     help="built-in shift: " + ", ".join(sorted(presets.PRESENTATIONS)))


@cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> _Parser:
    parser = _Parser(
        prog="soficlab",
        description="Sofic shifts, syntactic semigroups, and flow invariants.",
        epilog=(
            "Presentation files: one 'alphabet A B ...' line, then 'vertex V' "
            "and 'edge SRC LABEL DST' lines; '#' starts a comment.  Bracket "
            "graph files: 'vertex V' and 'edge NAME SRC DST' lines, with "
            "names Dn reserved for the built-in one-vertex graphs."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = commands.add_parser("inspect", help="invariant report for one shift")
    _add_source(sub)
    sub.set_defaults(func=_cmd_inspect)

    sub = commands.add_parser("syntactic", help="Cayley table of the syntactic semigroup")
    _add_source(sub)
    sub.set_defaults(func=_cmd_syntactic)

    sub = commands.add_parser("karoubi", help="skeleton of the envelope of the syntactic semigroup")
    _add_source(sub)
    sub.set_defaults(func=_cmd_karoubi)

    sub = commands.add_parser("compare", help="compare two shifts up to flow moves")
    sub.add_argument("files", nargs="*", metavar="FILE",
                     help="presentation files (these fill the two slots first)")
    sub.add_argument("--builtin", action="append", metavar="NAME",
                     help="built-in shift, may repeat")
    sub.set_defaults(func=_cmd_compare)

    sub = commands.add_parser("expand", help="double one symbol into SYMBOL then '@'")
    _add_source(sub)
    sub.add_argument("-l", dest="symbol", required=True, metavar="SYMBOL",
                     help="symbol to expand")
    sub.set_defaults(func=_cmd_expand)

    sub = commands.add_parser("hblock", help="recode onto overlapping N-blocks")
    _add_source(sub)
    sub.add_argument("-n", dest="order", required=True, type=_int_at_least(2),
                     metavar="N", help="block length")
    sub.set_defaults(func=_cmd_hblock)

    sub = commands.add_parser("blocks", help="all blocks up to a length, shortlex")
    _add_source(sub)
    sub.add_argument("-n", dest="length", required=True, type=_int_at_least(1),
                     metavar="L", help="maximum block length")
    sub.set_defaults(func=_cmd_blocks)

    sub = commands.add_parser("member", help="does the word occur in the shift")
    _add_source(sub)
    sub.add_argument("word", metavar="WORD",
                     help="plain symbols concatenated, or dot-joined")
    sub.set_defaults(func=_cmd_member)

    sub = commands.add_parser("starfree", help="is the block language star-free")
    _add_source(sub)
    sub.set_defaults(func=_cmd_starfree)

    sub = commands.add_parser("subst", help="blocks of a primitive substitution shift")
    sub.add_argument("rules", metavar="RULES", help='rule list like "a:ab,b:a"')
    sub.add_argument("--blocks", required=True, type=_int_at_least(1),
                     metavar="L", help="maximum block length")
    sub.set_defaults(func=_cmd_subst)

    sub = commands.add_parser("dyck", help="run the bracket stack machine on a word")
    sub.add_argument("graph", metavar="GRAPH", help="graph file or builtin Dn")
    sub.add_argument("word", metavar="WORD", help="edge names suffixed with + or -")
    sub.set_defaults(func=_cmd_dyck)

    sub = commands.add_parser("dyckcompare", help="compare two bracket shifts")
    sub.add_argument("left", metavar="G", help="graph file or builtin Dn")
    sub.add_argument("right", metavar="H", help="graph file or builtin Dn")
    sub.set_defaults(func=_cmd_dyckcompare)

    return parser


def main(
    argv: Optional[Sequence[str]] = None,
    out: Optional[IO[str]] = None,
    err: Optional[IO[str]] = None,
) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        # --help writes to the real stdio unless redirected here.
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args, out)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 1
    except (InputError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except ResourceError as exc:
        err.write(f"error: {exc}\n")
        return 3


def console_main() -> None:
    raise SystemExit(main())
