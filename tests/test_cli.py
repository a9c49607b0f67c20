import hashlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soficlab as sl
from soficlab import cli, presets
from soficlab.cli import main


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_member_goldens():
    assert run("member", "--builtin", "even", "aba") == (0, "false\n", "")
    assert run("member", "--builtin", "even", "abba") == (0, "true\n", "")
    assert run("member", "--builtin", "golden", "bb") == (0, "false\n", "")


def test_compare_goldens():
    assert run("compare", "--builtin", "even", "--builtin", "golden") == (
        0, "NOT_FLOW_EQUIVALENT\n", "",
    )
    assert run("compare", "--builtin", "golden", "--builtin", "period2") == (
        0, "NOT_DISTINGUISHED\n", "",
    )
    # flow equivalent: the full shift is compared with an adjoined zero
    assert run("compare", "--builtin", "full2", "--builtin", "golden") == (
        0, "NOT_DISTINGUISHED\n", "",
    )


def test_compare_full_shift_against_its_expansion(tmp_path):
    code, expanded, err = run("expand", "--builtin", "full2", "-l", "a")
    assert (code, err) == (0, "")
    path = tmp_path / "full2-a.shift"
    path.write_text(expanded, encoding="utf-8")
    assert run("compare", str(path), "--builtin", "full2") == (
        0, "NOT_DISTINGUISHED\n", "",
    )


def test_inspect_and_karoubi_report_the_full_shift_without_a_zero():
    # compare adjoins a zero to the full shift's semigroup; these do not
    assert run("inspect", "--builtin", "full2") == (
        0,
        "order: 1\n"
        "idempotents: 1\n"
        "aperiodic: true\n"
        "j_classes: 1\n"
        "regular_j_classes: 1\n"
        "skeleton_objects: 1\n"
        "skeleton_hom_matrix: [[1]]\n"
        "irreducible: true\n",
        "",
    )
    assert run("karoubi", "--builtin", "full2") == (
        0, "objects a\narrow a a a\ncompose a:a:a a:a:a = a:a:a\n", "",
    )


def test_missing_file_exits_two():
    code, out, err = run("blocks", "missing.shift", "-n", "3")
    assert code == 2
    assert out == ""
    assert "missing.shift" in err


@pytest.mark.parametrize(
    "argv",
    [["inspect", "{}"], ["dyck", "{}", "e+"]],
    ids=["presentation", "bracket-graph"],
)
def test_file_that_is_not_utf8_exits_two(tmp_path, argv):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"vertex 1\nedge e 1 1 # \xff\n")
    code, out, err = run(*(arg.format(path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err and "UTF-8" in err


def test_starfree():
    assert run("starfree", "--builtin", "even") == (0, "false\n", "")
    assert run("starfree", "--builtin", "golden") == (0, "true\n", "")


def test_blocks_shortlex():
    code, out, err = run("blocks", "--builtin", "golden", "-n", "2")
    assert (code, err) == (0, "")
    assert out == "a\nb\naa\nab\nba\n"


def test_inspect_report():
    code, out, err = run("inspect", "--builtin", "golden")
    assert (code, err) == (0, "")
    assert out.startswith("order: 5\n")
    assert "skeleton_hom_matrix: [[2,1],[1,1]]\n" in out


def test_syntactic_table_is_parseable():
    code, out, err = run("syntactic", "--builtin", "even")
    assert (code, err) == (0, "")
    parsed = sl.parse_cayley_table(out)
    assert parsed.size == 7


# sha256 of the syntactic stdout as rendered from a fully filled int table:
# rendering the named rows from the Cayley graph must not change a byte.
SYNTACTIC_SHA256 = {
    "even": "12782e5cd168886f1db8a72be242b12213e62aaf69a7e39e9e5c147731d7ffad",
    "full2": "4737d370cb7b83361289612f096bd85db9af72382d4a4372bde937ce7c9695f5",
    "golden": "ce490492397a3ab064d00893794a99bf96ae231315b3b81f63b959c480d6a252",
    "period2": "f6034342ae6d0c0f6d159f22d14e0afd8946d54f764f7272a325d178f50198eb",
}


@pytest.mark.parametrize("name", sorted(presets.PRESENTATIONS))
def test_syntactic_output_is_pinned_on_presets(name):
    code, out, err = run("syntactic", "--builtin", name)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SYNTACTIC_SHA256[name]


def test_syntactic_output_is_pinned_at_scale(tmp_path):
    # |S| = 605: 3.5 MB of table
    p = sl.random_presentation(224, 6, sl.Alphabet(("a", "b")), 0.25)
    path = tmp_path / "big.shift"
    path.write_text(sl.render_presentation(p), encoding="utf-8")
    code, out, err = run("syntactic", str(path))
    assert (code, err, len(out)) == (0, "", 3503940)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bcdae777f5c9d40e9ce33094c8d5319d299f085001e8a6f432828fde1fbc723b"
    )


def test_karoubi_dump():
    code, out, err = run("karoubi", "--builtin", "golden")
    assert (code, err) == (0, "")
    assert out.startswith("objects a bb\n")
    assert "compose bb:bb:bb bb:bb:bb = bb:bb:bb\n" in out


def test_expand_output_loads_back():
    code, out, err = run("expand", "--builtin", "golden", "-l", "a")
    assert (code, err) == (0, "")
    reloaded = sl.load_presentation(out)
    assert reloaded.vertices == ("1", "2", "@1")


def test_hblock_output_loads_back():
    code, out, err = run("hblock", "--builtin", "even", "-n", "2")
    assert (code, err) == (0, "")
    reloaded = sl.load_presentation(out)
    assert len(reloaded.vertices) == 3
    assert len(reloaded.edges) == 5


def test_hblock_recodes_its_own_output(tmp_path):
    code, once, err = run("hblock", "--builtin", "golden", "-n", "2")
    assert (code, err) == (0, "")
    path = tmp_path / "golden2.shift"
    path.write_text(once, encoding="utf-8")
    code, twice, err = run("hblock", str(path), "-n", "2")
    assert (code, err) == (0, "")
    assert sl.load_presentation(twice).alphabet.symbols == (
        "a.a.a.a", "a.a.a.b", "a.b.b.a", "b.a.a.a", "b.a.a.b",
    )


def test_hblock_symbol_clash_exits_two(tmp_path):
    # the 2-blocks (a, b.c) and (a.b, c) would both be named a.b.c
    path = tmp_path / "clash.shift"
    path.write_text(
        "alphabet a b a.b b.c c\n"
        "edge 1 a 2\nedge 2 b.c 1\nedge 1 a.b 3\nedge 3 c 1\nedge 1 b 1\n",
        encoding="utf-8",
    )
    code, out, err = run("hblock", str(path), "-n", "2")
    assert (code, out) == (2, "")
    assert "a.b.c" in err


def test_subst_blocks():
    code, out, err = run("subst", "a:ab,b:a", "--blocks", "3")
    assert (code, err) == (0, "")
    assert out == "a\nb\naa\nab\nba\naab\naba\nbaa\nbab\n"


def test_subst_cap_bounds_the_factor_work():
    # The factors of the 610-symbol image hold 27 million symbols, more
    # than the symbol cap; that is counted before any factor is sliced out.
    # The word cap would have waited for the 2584-symbol image.
    code, out, err = run("subst", "a:ab,b:a", "--blocks", "100000")
    assert (code, out) == (3, "")
    assert err == (
        "error: the factors of an image up to length 100000 hold more than "
        "10000000 symbols\n"
    )


def test_subst_symbol_cap_refuses_long_periodic_answers():
    # (ab)^k has two factors of each length: 200000 words, under the word
    # cap, but about 10**10 symbols.  It is refused at once.
    start = time.perf_counter()
    code, out, err = run("subst", "a:ab,b:ab", "--blocks", "100000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "hold more than 10000000 symbols" in err


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    ok = subprocess.run(
        [sys.executable, "-m", "soficlab", "member", "--builtin", "even", "abba"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "true\n", "")
    bad = subprocess.run(
        [sys.executable, "-m", "soficlab", "hblock", "--builtin", "golden", "-n", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr.startswith("usage error:")


def test_subst_rejects_non_primitive():
    code, out, err = run("subst", "a:b,b:a", "--blocks", "2")
    assert code == 2
    assert "primitive" in err


def test_dyck_goldens():
    assert run("dyck", "D2", "e-f-f+e+") == (0, "true\n", "")
    assert run("dyck", "D2", "e-f+") == (0, "false\n", "")
    assert run("dyck", "D2", "e+f-") == (0, "true\n", "")


def test_dyckcompare_goldens():
    assert run("dyckcompare", "D2", "D3") == (0, "NOT_FLOW_EQUIVALENT\n", "")
    assert run("dyckcompare", "D2", "D2") == (0, "FLOW_EQUIVALENT\n", "")
    assert run("dyckcompare", "D1", "D2") == (0, "INAPPLICABLE\n", "")


def test_file_based_workflow(tmp_path, even):
    path = tmp_path / "even.shift"
    path.write_text(sl.render_presentation(even), encoding="utf-8")
    assert run("member", str(path), "abba") == (0, "true\n", "")
    code, out, _ = run("inspect", str(path))
    assert code == 0 and "order: 7" in out
    assert run("compare", str(path), "--builtin", "even") == (
        0, "NOT_DISTINGUISHED\n", "",
    )


def test_inspect_past_the_old_envelope_cap(tmp_path):
    # |S| = 1572: the whole envelope passed its arrow cap, the skeleton
    # has 3 objects
    p = sl.random_presentation(69, 6, sl.Alphabet(("a", "b")), 0.25)
    path = tmp_path / "big.shift"
    path.write_text(sl.render_presentation(p), encoding="utf-8")
    code, out, err = run("inspect", str(path))
    assert (code, err) == (0, "")
    assert "order: 1572\n" in out
    assert "skeleton_objects: 3\n" in out


def test_compare_past_the_old_envelope_cap(tmp_path):
    # |S| = 605 against its a-expansion, |S| = 1605
    p = sl.random_presentation(224, 6, sl.Alphabet(("a", "b")), 0.25)
    left, right = tmp_path / "left.shift", tmp_path / "right.shift"
    left.write_text(sl.render_presentation(p), encoding="utf-8")
    right.write_text(
        sl.render_presentation(sl.symbol_expansion(p, "a")), encoding="utf-8"
    )
    assert run("compare", str(left), str(right)) == (0, "NOT_DISTINGUISHED\n", "")


def test_dyck_graph_file(tmp_path):
    path = tmp_path / "two.dyck"
    path.write_text(
        "vertex 1\nvertex 2\n"
        "edge e 1 2\nedge f 2 1\nedge g 2 2\nedge h 1 1\n",
        encoding="utf-8",
    )
    code, out, err = run("dyck", str(path), "e-g-g+f-")
    assert (code, out, err) == (0, "true\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope"],
        ["inspect"],                                   # no source at all
        ["inspect", "--builtin", "even", "extra.shift"],  # both sources
        ["blocks", "--builtin", "even", "-n", "0"],
        ["blocks", "--builtin", "even"],               # -n required
        ["compare", "--builtin", "even"],              # only one shift
        ["expand", "--builtin", "even"],               # -l required
        ["member", "--builtin", "even"],               # word required
        ["hblock", "--builtin", "golden", "-n", "1"],  # order below 2
    ],
)
def test_usage_errors_exit_one(argv):
    code, out, err = run(*argv)
    assert code == 1
    assert err != ""


def test_invalid_inputs_exit_two(tmp_path):
    bad = tmp_path / "bad.shift"
    bad.write_text("vertex 1\n", encoding="utf-8")
    assert run("inspect", str(bad))[0] == 2
    assert run("member", "--builtin", "even", "xyz")[0] == 2
    assert run("inspect", "--builtin", "unknown")[0] == 2
    assert run("dyck", "D2", "zz")[0] == 2
    assert run("dyck", "D99", "e+")[0] == 2


def test_help_exits_zero():
    code, out, err = run("--help")
    assert code == 0
    assert "COMMAND" in out


def test_subcommand_help_exits_zero():
    code, out, _ = run("member", "--help")
    assert code == 0
    assert "WORD" in out


def test_one_parser_serves_every_call_as_a_fresh_one_would():
    # a usage error, --help, then a verdict, in one process: each output
    # is what a parser built for that call alone gives
    calls = (
        ["compare", "--builtin"],
        ["--help"],
        ["compare", "--builtin", "even", "--builtin", "golden"],
    )
    assert cli.build_parser() is cli.build_parser()
    in_turn = [run(*argv) for argv in calls]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(*argv))
    assert in_turn == alone
    assert [code for code, _, _ in in_turn] == [1, 0, 0]
    assert in_turn[2][1] == "NOT_FLOW_EQUIVALENT\n"


def test_output_is_byte_identical_across_runs():
    for argv in (
        ["inspect", "--builtin", "even"],
        ["syntactic", "--builtin", "even"],
        ["karoubi", "--builtin", "golden"],
        ["blocks", "--builtin", "even", "-n", "4"],
        ["hblock", "--builtin", "golden", "-n", "3"],
    ):
        first = run(*argv)
        second = run(*argv)
        assert first == second


def test_console_entry_point_declared():
    # The declaration lives in pyproject.toml; installed metadata is its copy
    # and exists only after `pip install`. Check each one that is present.
    import importlib
    import importlib.metadata as md
    from pathlib import Path

    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = None
    try:
        md.distribution("soficlab")
        installed = True
    except md.PackageNotFoundError:
        installed = False
    if tomllib is None and not installed:
        pytest.skip(
            "needs tomllib (Python 3.11+) to read pyproject.toml, or an "
            "installed soficlab distribution for its entry-point metadata"
        )

    if tomllib is not None:
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert scripts.get("soficlab") == "soficlab.cli:console_main"
        module, _, attr = scripts["soficlab"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

    if installed:
        entries = md.entry_points(group="console_scripts")
        ours = [e for e in entries if e.name == "soficlab"]
        assert ours and ours[0].value == "soficlab.cli:console_main"


SYMBOLS = ("a", "b", "c")
VERTICES = ("1", "2", "3", "4")


@st.composite
def presentation_bytes(draw):
    """A small presentation file: 1-3 symbols, up to 4 vertices, random
    edges, and sometimes a garbage line or a byte that is not UTF-8."""
    symbols = SYMBOLS[: draw(st.integers(1, 3))]
    vertices = VERTICES[: draw(st.integers(1, 4))]
    edge = st.tuples(
        st.sampled_from(vertices), st.sampled_from(symbols), st.sampled_from(vertices)
    )
    lines = ["alphabet " + " ".join(symbols)]
    lines += [f"edge {u} {a} {v}" for u, a, v in draw(st.lists(edge, max_size=10))]
    garbage = st.sampled_from(
        ["edge 1 a", "vertex", "alphabet x", "edge 1 z 2", "frob 1", "# edge 1 a 1"]
    ) | st.text(max_size=8)
    for line in draw(st.lists(garbage, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


@settings(max_examples=40, deadline=None)
@given(presentation_bytes())
def test_cli_fuzz_exits_cleanly_and_repeats_its_output(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.shift"
    path.write_bytes(data)
    f = str(path)
    for argv in (
        ["inspect", f],
        ["karoubi", f],
        ["compare", f, f],
        ["syntactic", f],
        ["starfree", f],
        ["blocks", f, "-n", "3"],
    ):
        code, out, err = run(*argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert code == 0 or err != ""
        assert run(*argv)[1] == out
