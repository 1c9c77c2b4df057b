import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmsim
from conftest import random_experiment_source
from hmsim.edl import (
    KEYWORDS,
    BlochForm,
    ElaborationError,
    ExperimentSpec,
    HistoryDecl,
    KetbraForm,
    NotForm,
    OrHistoryDecl,
    ParseError,
    ProjDecl,
    SpaceDecl,
    SpanForm,
    StateDecl,
    Token,
    TokenKind,
    _COMPLEX_RE,
    _FORMS,
    _TERMINALS,
    _parse_statements,
    elaborate,
    parse,
    parse_bytes,
    parse_text,
    pretty_print,
    tokenize,
)
from hmsim.histories import MAX_ORHISTORY_BRANCHES, MAX_ORHISTORY_PRODUCTS

CORPUS = Path(__file__).parent / "edl_corpus"


def wide_orhistory_source(disjoint: bool) -> str:
    """Two 8-slot histories on a dim-64 space, 64**8 = 2.8e14 on the product
    space; the branches differ only in slot 0, which makes them disjoint."""
    first = "P1" if disjoint else "P0"
    rest = ", ".join(f"{t}.0: P0" for t in range(1, 8))
    return (
        "space Q dim 64;\n"
        "proj P0 on Q = span [0];\n"
        "proj P1 on Q = span [1];\n"
        f"history A = [0.0: P0, {rest}];\n"
        f"history B = [0.0: {first}, {rest}];\n"
        "orhistory AB = or [A, B];\n"
    )


def test_tokenize_statement():
    toks = tokenize("space Q dim 2;")
    assert [(t.kind, t.lexeme) for t in toks] == [
        (TokenKind.KEYWORD, "space"),
        (TokenKind.IDENT, "Q"),
        (TokenKind.KEYWORD, "dim"),
        (TokenKind.INT, "2"),
        (TokenKind.PUNCT, ";"),
    ]
    assert toks[0] == Token(TokenKind.KEYWORD, "space", 1, 1)
    assert toks[0] == (TokenKind.KEYWORD, "space", 1, 1)
    kind, lexeme, line, column = toks[1]
    assert (kind, lexeme, line, column) == (TokenKind.IDENT, "Q", 1, 7)
    assert toks[3].column == 13


def test_tokenize_complex_literal():
    toks = tokenize("0.5-0.5i")
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.COMPLEX
    toks = tokenize("1e-3+2.5i")
    assert [t.kind for t in toks] == [TokenKind.COMPLEX]


def test_tokenize_negative_numbers():
    toks = tokenize("[-0.5, -2]")
    kinds = [t.kind for t in toks]
    assert kinds == [TokenKind.PUNCT, TokenKind.FLOAT, TokenKind.PUNCT,
                     TokenKind.INT, TokenKind.PUNCT]


def test_tokenize_illegal_character_position():
    with pytest.raises(ParseError) as err:
        tokenize("state @x")
    assert (err.value.line, err.value.column) == (1, 7)
    with pytest.raises(ParseError) as err:
        tokenize("space Q;\n  $")
    assert (err.value.line, err.value.column) == (2, 3)


def test_tokenize_comments_skipped():
    toks = tokenize("# nothing here\nspace Q dim 2; # trailing\n")
    assert toks[0].line == 2
    assert len(toks) == 5


def test_parse_history_times():
    spec = parse_text("space Q dim 2;\nproj P0 on Q = span [0];\n"
                      "history H = [0.0: P0, 1.0: P0];\n")
    assert spec.histories["H"].steps == ((0.0, "P0"), (1.0, "P0"))


def test_parse_missing_semicolon():
    with pytest.raises(ParseError) as err:
        parse_text("space Q dim 2")
    assert "expected ';'" in str(err.value)


def test_parse_duplicate_name():
    with pytest.raises(ParseError) as err:
        parse_text("space Q dim 2;\nstate s in Q = [1, 0];\nstate s in Q = [0, 1];\n")
    assert "duplicate state" in str(err.value)
    assert err.value.line == 3


def test_parse_full_file_expected_ast():
    src = (CORPUS / "valid_11.edl").read_text()
    expected = ExperimentSpec(
        spaces={"Q": SpaceDecl("Q", 2)},
        states={
            "plus": StateDecl("plus", "Q",
                              (complex(0.7071067811865476), complex(0.7071067811865476))),
            "zero": StateDecl("zero", "Q", (complex(1.0), complex(0.0))),
        },
        projectors={
            "P0": ProjDecl("P0", "Q", SpanForm((0,))),
            "P1": ProjDecl("P1", "Q", NotForm("P0")),
        },
        histories={"HH": HistoryDecl("HH", ((0.0, "P0"), (1.0, "P0")))},
        orhistories={},
    )
    assert parse_text(src) == expected


def test_parse_bloch_form():
    spec = parse_text("space Q dim 2;\nstate s in Q = bloch(1.5, 0);\n")
    assert spec.states["s"].body == BlochForm(1.5, 0.0)


def test_pretty_print_round_trip_corpus():
    for path in sorted(CORPUS.glob("valid_*.edl")):
        spec = parse_text(path.read_text())
        printed = pretty_print(spec)
        assert parse_text(printed) == spec


@pytest.mark.parametrize("text, printed", [
    ("space Q dim 2;\nstate s in Q = [1e999, 0];\n", "state s in Q = [1e999, 0.0];"),
    ("space Q dim 2;\nstate s in Q = bloch(1e999, -1e999);\n",
     "state s in Q = bloch(1e999, -1e999);"),
    ("space Q dim 2;\nproj P on Q = span [0];\nhistory H = [0: P, 1e999: P];\n",
     "history H = [0.0: P, 1e999: P];"),
    ("space Q dim 2;\nstate s in Q = [0-1e999i, 1e999+1e999i];\n",
     "state s in Q = [0.0-1e999i, 1e999+1e999i];"),
], ids=["amplitude", "bloch", "history-time", "complex-parts"])
def test_pretty_print_round_trips_overflowing_literals(text, printed):
    # an overflowing literal parses as an infinity, which elaborate refuses later
    spec = parse_text(text)
    assert printed in pretty_print(spec).splitlines()
    assert parse_text(pretty_print(spec)) == spec


def test_pretty_print_matches_goldens():
    for path in sorted(CORPUS.glob("valid_*.edl")):
        golden = path.with_suffix(".golden").read_text()
        assert pretty_print(parse_text(path.read_text())) == golden


def test_elaborate_span_projector():
    exp = elaborate(parse_text("space Q dim 2;\nproj P0 on Q = span [0];\n"))
    assert np.allclose(exp.projectors["P0"].matrix, np.diag([1.0, 0.0]))


def test_elaborate_bloch_state():
    exp = elaborate(parse_text(
        "space Q dim 2;\nstate s in Q = bloch(1.0471975511965976, 0);\n"
    ))
    amps = exp.states["s"].amplitudes
    assert amps[0] == pytest.approx(math.cos(math.pi / 6.0), abs=1e-12)
    assert amps[1] == pytest.approx(math.sin(math.pi / 6.0), abs=1e-12)


def test_elaborate_ketbra_and_not():
    exp = elaborate(parse_text(
        "space Q dim 2;\n"
        "state plus in Q = [0.7071067811865476, 0.7071067811865476];\n"
        "proj Pp on Q = ketbra plus;\n"
        "proj Pm on Q = not Pp;\n"
    ))
    assert np.allclose(exp.projectors["Pp"].matrix, 0.5 * np.ones((2, 2)))
    assert np.allclose(exp.projectors["Pm"].matrix, [[0.5, -0.5], [-0.5, 0.5]])


@pytest.mark.filterwarnings("error")
def test_elaborate_renormalizes_with_warning(capsys):
    src = "space Q dim 2;\nstate d in Q = [1.0, 1.0];\nstate u in Q = [1, 0];\n"
    exp = elaborate(parse_text(src))
    assert exp.states["d"].is_normalized()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "warning: line 2 col 7: state 'd' renormalized (norm was 1.4142135623730951)\n"


def complex_literal(z: complex) -> str:
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(finite, finite, st.lists(st.complex_numbers(max_magnitude=1e3), min_size=1, max_size=4)
       .filter(lambda amps: max(map(abs, amps)) >= 1e-3))
def test_elaborate_normalizes_explicit_and_bloch_states(theta, phi, amps):
    # verify checks each state once and trusts it on every target after that;
    # bloch states are built from their angles and never pass through normalized()
    exp = elaborate(parse_text(
        f"space Q dim 2;\nspace R dim {len(amps)};\n"
        f"state b in Q = bloch({theta!r}, {phi!r});\n"
        f"state s in R = [{', '.join(map(complex_literal, amps))}];\n"))
    assert exp.states["b"].is_normalized()
    assert exp.states["s"].is_normalized()


@pytest.mark.parametrize("amplitudes, message", [
    ("0, 0", "is the zero vector"),
    ("1e-160, 0", "cannot be normalized"),  # <v|v> is subnormal and loses digits
    ("1e200, 1e200", "cannot be normalized"),
])
def test_elaborate_refuses_states_without_a_unit_vector(amplitudes, message):
    with pytest.raises(ElaborationError, match=message) as err:
        elaborate(parse_text(f"space Q dim 2;\nstate s in Q = [{amplitudes}];\n"))
    assert (err.value.line, err.value.column) == (2, 7)


def test_elaborate_unresolved_projector_position():
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_text("space Q dim 2;\nproj P1 on Q = not P0;\n"))
    assert (err.value.line, err.value.column) == (2, 6)
    assert "P0" in str(err.value)


# One case per name-resolution site: state space, projector space, ketbra state,
# not projector, history slot, orhistory branch. Texts and positions were
# recorded before the sites were folded into one lookup.
UNRESOLVED_NAMES = [
    ("space Q dim 2;\n  state s in X = [1, 0];\n",
     "line 2 col 9: unresolved space name 'X'", 2, 9),
    ("space Q dim 2;\nproj P on X = span [0];\n",
     "line 2 col 6: unresolved space name 'X'", 2, 6),
    ("space Q dim 2;\n\n proj P on Q = ketbra s;\n",
     "line 3 col 7: unresolved state name 's'", 3, 7),
    ("space Q dim 2;\nproj P0 on Q = span [0];\nproj P on Q = not R;\n",
     "line 3 col 6: unresolved projector name 'R'", 3, 6),
    ("space Q dim 2;\nproj P0 on Q = span [0];\nhistory H = [0: P0, 1.5: R];\n",
     "line 3 col 9: unresolved projector name 'R'", 3, 9),
    ("space Q dim 2;\nproj P0 on Q = span [0];\nhistory H = [0: P0];\n"
     "   orhistory O = or [H, G];\n",
     "line 4 col 14: unresolved history name 'G'", 4, 14),
]


@pytest.mark.parametrize("source, text, line, column", UNRESOLVED_NAMES)
def test_unresolved_names_keep_their_text_and_position(source, text, line, column):
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_text(source))
    assert str(err.value) == text
    assert (err.value.line, err.value.column) == (line, column)


SPAN_DIAGNOSTICS = [
    ("[2]", "line 3 col 8: span index 2 outside 0..1 in projector 'A'"),
    ("[-1]", "line 3 col 8: span index -1 outside 0..1 in projector 'A'"),
    ("[0, 0]", "line 3 col 8: repeated span index in projector 'A'"),
    # the range is checked before repetition
    ("[0, 0, 5]", "line 3 col 8: span index 5 outside 0..1 in projector 'A'"),
]


@pytest.mark.parametrize("span, text", SPAN_DIAGNOSTICS)
def test_span_diagnostics_keep_their_text_and_position(span, text):
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_text(f"space Q dim 2;\n\n  proj A on Q = span {span};\n"))
    assert str(err.value) == text
    assert (err.value.line, err.value.column) == (3, 8)


def test_elaborate_dimension_mismatch():
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_text("space Q dim 2;\nstate s in Q = [1, 0, 0];\n"))
    assert err.value.line == 2


def test_elaborate_rejects_huge_spaces():
    with pytest.raises(ElaborationError):
        elaborate(parse_text("space big dim 100000;\n"))


def test_elaborate_non_disjoint_orhistory():
    src = (CORPUS / "invalid_19.edl").read_text()
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_text(src))
    assert "not disjoint" in str(err.value)
    assert (err.value.line, err.value.column) == (4, 11)


def best_of_three_in_child(setup: str, timed: str, path: Path) -> list[str]:
    """Words printed by a child that runs `setup`, then times `timed` three times:
    the last value of `timed`, then the best time in seconds.

    Timed in a child with single-threaded BLAS: on a shared 2-vCPU host a threaded
    64x64 product can wait ~16 ms for its second thread, which measures the host,
    not the algorithm."""
    child = (
        "import sys, time\n"
        f"{setup}\n"
        "best = float('inf')\n"
        "for _ in range(3):\n"
        "    start = time.perf_counter()\n"
        f"    value = {timed}\n"
        "    best = min(best, time.perf_counter() - start)\n"
        "print(value, best)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(Path(hmsim.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", child, str(path)], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout.split()


def test_wide_orhistory_elaborates_in_bounded_time(tmp_path):
    path = tmp_path / "wide.edl"
    path.write_text(wide_orhistory_source(disjoint=True))
    out = best_of_three_in_child(
        "from hmsim.edl import elaborate, parse_text\n"
        "spec = parse_text(open(sys.argv[1]).read())",
        "len(elaborate(spec).orhistories['AB'].branches)", path)
    assert out[0] == "2"
    assert float(out[1]) < 0.050, out


def test_wide_non_disjoint_orhistory_exits_2_with_position(capsys, tmp_path):
    from hmsim.cli import main

    path = tmp_path / "wide.edl"
    path.write_text(wide_orhistory_source(disjoint=False))
    code = main(["parse-check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not disjoint" in err
    assert "line 6 col 11" in err
    assert "Traceback" not in err


# a branch whose support, or one of whose slot dims, differs from the first branch's;
# the texts and positions are those the orhistory loop in elaborate wrote
LAYOUT_MISMATCHES = [
    ("space Q dim 2;\nproj P on Q = span [0];\nproj R on Q = not P;\nhistory H = [0: P];\n"
     "history G = [1: R];\n  orhistory O = or [H, G];\n",
     "line 6 col 13: orhistory 'O': branch 'G' has a different support than 'H'"),
    ("space Q dim 2;\nspace T dim 3;\nproj P on Q = span [0];\nproj R on T = span [1];\n"
     "history H = [0: P, 1: P];\nhistory G = [0: P, 1: R];\norhistory O = or [H, H, G, H];\n",
     "line 7 col 11: orhistory 'O': branch 'G' has a different support than 'H'"),
]


@pytest.mark.parametrize("source, text", LAYOUT_MISMATCHES, ids=["support", "slot-dim"])
def test_orhistory_layout_mismatch_keeps_its_text_and_position(capsys, tmp_path, source, text):
    from hmsim.cli import main

    with pytest.raises(ElaborationError) as err:
        elaborate(parse_text(source))
    assert str(err.value) == text
    path = tmp_path / "layout.edl"
    path.write_text(source)
    assert main(["parse-check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


ZERO_SPACE = "space Q dim 4;\nproj A on Q = span [0, 1, 2, 3];\nproj Z on Q = not A;\n"


def repeated_zero_history(slots: int, branches: int) -> str:
    """One history of `slots` zero slots, `branches` times in one orhistory: every
    pair is disjoint, so every pair is checked."""
    steps = ", ".join(f"{t}: Z" for t in range(slots))
    return (ZERO_SPACE + f"history H = [{steps}];\n"
            + "orhistory O = or [" + ", ".join(["H"] * branches) + "];\n")


def distinct_zero_histories(distinct: int) -> str:
    """`distinct` one-slot histories on dim 64, each over its own zero projector, cycled
    through MAX_ORHISTORY_BRANCHES branches: each ordered pair of them takes a 64x64
    product of its own, and every branch pair is checked."""
    lines = ["space Q dim 64;", f"proj A on Q = span [{', '.join(map(str, range(64)))}];"]
    for h in range(distinct):
        lines += [f"proj Z{h} on Q = not A;", f"history H{h} = [0: Z{h}];"]
    branches = (f"H{k % distinct}" for k in range(MAX_ORHISTORY_BRANCHES))
    return "\n".join([*lines, f"orhistory O = or [{', '.join(branches)}];"]) + "\n"


# refused before any product, at the orhistory's name
WIDTH_REFUSALS = [
    (repeated_zero_history(3, MAX_ORHISTORY_BRANCHES + 1),
     "line 5 col 11: orhistory 'O': 1025 branches need up to 3 slot products; at most 1024"
     " branches and 4096 products are supported"),
    (distinct_zero_histories(65),
     "line 133 col 11: orhistory 'O': 1024 branches need up to 4225 slot products; at most"
     " 1024 branches and 4096 products are supported"),
]


@pytest.mark.parametrize("source, text", WIDTH_REFUSALS, ids=["branches", "products"])
def test_too_wide_orhistory_is_refused_at_its_position(capsys, tmp_path, source, text):
    from hmsim.cli import main

    with pytest.raises(ElaborationError) as err:
        elaborate(parse_text(source))
    assert str(err.value) == text
    path = tmp_path / "wide.edl"
    path.write_text(source)
    assert main(["parse-check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


# 1000 repeats of one 3-slot history, and 64 repeats of one 500-slot history, took
# about 11 s and 4.5-7.4 s while every pair took its own products; the slowest family
# the bounds admit is the last, with 64**2 = MAX_ORHISTORY_PRODUCTS fresh 64x64 products.
# Each exits 0 with nothing on stderr.
@pytest.mark.parametrize("source", [
    repeated_zero_history(3, 1000),
    repeated_zero_history(500, 64),
    distinct_zero_histories(64),
], ids=["1000-repeats", "500-slots", "slowest-admitted"])
def test_admitted_orhistory_parse_checks_in_under_a_second(tmp_path, source):
    assert 64**2 == MAX_ORHISTORY_PRODUCTS
    path = tmp_path / "wide.edl"
    path.write_text(source)
    out = best_of_three_in_child(
        "import contextlib, io\n"
        "from hmsim.cli import main\n"
        "def parse_check():\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        return f'{main([\"parse-check\", sys.argv[1]])}:{err.getvalue()!r}'",
        "parse_check()", path)
    assert out[0] == "0:''"
    assert float(out[1]) < 1.0, out


# A long blank run and a long comment run before a syntax error, and unterminated
# 50k-item lists of each generated list shape, on which a backtracking statement
# pattern would blow up, are each refused at the token parser's position; a 1 MB
# valid file is accepted. Each runs in a `parse-check` child given 10 s; on a 2-vCPU
# Xeon host they took 0.16-0.65 s each.
BOUNDED_PARSES = {
    "blank": ("space Q" + " " * 100000 + ";\n",
              2, "error: line 1 col 100008: found ';' (expected 'dim')\n"),
    "comments": ("space Q dim 2;\n" + ("#" * 79 + "\n") * 20000 + "state s in Q = [1, 0]\n",
                 2, "error: line 20002 col 22: found end of input (expected ';')\n"),
    "amplitudes": ("space Q dim 2;\nstate s in Q = [" + ", ".join(["0.5-0.5i"] * 50000) + "\n",
                   2, "error: line 2 col 500015: found end of input (expected ']')\n"),
    "steps": ("space Q dim 2;\nproj P on Q = span [0];\nhistory H = ["
              + ", ".join(["0.5: P"] * 50000) + "\n",
              2, "error: line 3 col 400012: found end of input (expected ']')\n"),
    "branches": ("space Q dim 2;\nproj P on Q = span [0];\nhistory H = [0: P];\n"
                 "orhistory O = or [" + ", ".join(["H"] * 50000) + "\n",
                 2, "error: line 4 col 150017: found end of input (expected ']')\n"),
    "valid": ("".join(
        f"space S{i} dim 2;\nstate s{i} in S{i} = [0.6, 0-0.8i];  # amplitudes\n"
        f"proj a{i} on S{i} = span [0];\nproj b{i} on S{i} = not a{i};\n"
        f"history h{i} = [0: a{i}, 1.5: b{i}];\nhistory g{i} = [0: b{i}, 1.5: b{i}];\n"
        f"orhistory o{i} = or [h{i}, g{i}];\n" for i in range(4100)), 0, ""),
}


@pytest.mark.parametrize("name", BOUNDED_PARSES)
def test_parse_check_is_bounded(tmp_path, name):
    source, code, stderr = BOUNDED_PARSES[name]
    path = tmp_path / f"{name}.edl"
    path.write_text(source)
    env = dict(os.environ, PYTHONPATH=str(Path(hmsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hmsim.cli", "parse-check", str(path)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (code, stderr)


def test_elaborate_orhistory_family():
    exp = elaborate(parse_text((CORPUS / "valid_09.edl").read_text()))
    assert len(exp.orhistories["AB"].branches) == 2


def test_negation_decomposition_file_agrees():
    exp = elaborate(parse_text((CORPUS / "valid_12.edl").read_text()))
    from hmsim.histories import disjoint_or

    m1 = disjoint_or(exp.orhistories["dec1"].branches).matrix
    m2 = disjoint_or(exp.orhistories["dec2"].branches).matrix
    assert np.max(np.abs(m1 - m2)) <= 1e-10


def test_parse_bytes_invalid_utf8():
    with pytest.raises(ParseError):
        parse_bytes(b"space Q \xff dim 2;")
    for data, message in [
        (b"space Q \xff dim 2;", "line 1 col 9: invalid UTF-8 byte"),
        # columns count characters, as in every other diagnostic: the two-byte `é` is one
        (b"space Q dim 2; # \xc3\xa9\xff\n", "line 1 col 19: invalid UTF-8 byte"),
        (b"# \xe2\x82\xac\nspace \xc3\xa9 \xe2\x82", "line 2 col 9: invalid UTF-8 byte"),
        (b"\xff", "line 1 col 1: invalid UTF-8 byte"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_bytes(data)
        assert str(err.value) == message


def test_absurdly_long_integer_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="out of range"):
        parse_text("space Q dim " + "9" * 5000 + ";")


def test_non_finite_literals_rejected_at_elaboration():
    with pytest.raises(ElaborationError, match="non-finite"):
        elaborate(parse_text("space Q dim 2;\nstate s in Q = [1e999, 0];\n"))
    with pytest.raises(ElaborationError, match="non-finite"):
        elaborate(parse_text("space Q dim 2;\nstate s in Q = bloch(1e999, 0);\n"))
    with pytest.raises(ElaborationError, match="non-finite"):
        elaborate(parse_text(
            "space Q dim 2;\nproj P0 on Q = span [0];\n"
            "history H = [1e999: P0, 1e1000: P0];\n"
        ))


# A history's times are checked before its slot names are resolved; texts and
# positions as they were when elaborate compared the times itself.
HISTORY_TIME_ERRORS = [
    ("history H = [1: P0, 0: R];", "history 'H' has non-increasing times [1.0, 0.0]"),
    ("history H = [0: P0, 0: P0];", "history 'H' has non-increasing times [0.0, 0.0]"),
    ("history H = [-0.0: R, 0: P0];", "history 'H' has non-increasing times [-0.0, 0.0]"),
    ("history H = [0: P0, 1e999: R];", "non-finite value in history 'H' times"),
    ("history H = [0: P0, 1: R];", "unresolved projector name 'R'"),
]


@pytest.mark.parametrize("history, message", HISTORY_TIME_ERRORS)
def test_history_times_are_checked_before_slot_names(history, message):
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_text(f"space Q dim 2;\nproj P0 on Q = span [0];\n  {history}\n"))
    assert str(err.value) == f"line 3 col 11: {message}"


def test_non_finite_imaginary_parts_are_refused():
    for amps in ("0+1e999i, 1", "1, 0-1e999i"):
        with pytest.raises(ElaborationError, match="non-finite value in state 's'"):
            elaborate(parse_text(f"space Q dim 2;\nstate s in Q = [{amps}];\n"))


def test_elaboration_is_deterministic():
    src = (CORPUS / "valid_12.edl").read_text()
    a = elaborate(parse_text(src))
    b = elaborate(parse_text(src))
    for name in a.projectors:
        assert a.projectors[name].matrix.tobytes() == b.projectors[name].matrix.tobytes()
    for name in a.states:
        assert a.states[name].amplitudes.tobytes() == b.states[name].amplitudes.tobytes()



# The per-character lexer that the single alternation replaced, kept as the oracle.
_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_ORACLE_PATTERNS = (
    (TokenKind.COMPLEX,
     re.compile(rf"(-?{_NUM})([+-])({_NUM})i(?![A-Za-z0-9_.])", re.ASCII)),
    (TokenKind.FLOAT, re.compile(
        r"-?(?:(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)(?![A-Za-z0-9_.])",
        re.ASCII)),
    (TokenKind.INT, re.compile(r"-?\d+(?![A-Za-z0-9_.])", re.ASCII)),
)
_ORACLE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*", re.ASCII)


def tokenize_oracle(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        for kind, pat in _ORACLE_PATTERNS:
            m = pat.match(source, i)
            if m:
                tokens.append(Token(kind, m.group(0), line, col))
                col += m.end() - i
                i = m.end()
                break
        else:
            m = _ORACLE_IDENT.match(source, i)
            if m:
                word = m.group(0)
                kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
                tokens.append(Token(kind, word, line, col))
                col += len(word)
                i = m.end()
            elif c in ";=[](),:":
                tokens.append(Token(TokenKind.PUNCT, c, line, col))
                i += 1
                col += 1
            else:
                raise ParseError(f"illegal character {c!r}", line, col)
    return tokens


def _lex(lexer, text):
    try:
        return lexer(text)
    except ParseError as exc:
        return (exc.message, exc.line, exc.column)


EDL_FRAGMENTS = sorted(KEYWORDS) + [
    "Q", "p_0", "_x9", "2", "-17", "007", "1.", ".5", "-2.5e-3", "1e9", "3E+2", "1e",
    "0.5-0.5i", "1+2i", "-.5+1e3i", "2i", "1.2.3", "12ab", ";", "=", "[", "]", "(", ")",
    ",", ":", " ", "  ", "\t", "\r", "\n", "\r\n", "# a comment", "#", "é", "€", "Ω", "٣",
    " ", "\x0b", "\x0c", "@", "$", "-", "+", ".", "!", "\x00",
]
edl_like_text = st.tuples(
    st.lists(
        st.sampled_from(EDL_FRAGMENTS) | st.text(alphabet="0123456789.eEi+-_ aZ\n#;", max_size=4),
        max_size=40,
    ).map("".join),
    # blank and comment runs at the end of input, a comment at the end with no newline,
    # and an illegal character after blanks, which must keep its column
    st.sampled_from(["", " ", " \t\r ", "# tail", "  # tail", "\n  ", "\n# c\n  ", "  @",
                     " \t$", "\n   \x00", "# c\n \t€"]),
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(edl_like_text)
def test_tokenize_matches_the_per_character_lexer(text):
    got = _lex(tokenize, text)
    assert got == _lex(tokenize_oracle, text)
    if isinstance(got, list):
        assert all(type(t) is Token for t in got)


def test_tokenize_matches_the_per_character_lexer_on_the_corpus():
    for path in sorted(CORPUS.glob("*.edl")):
        text = path.read_bytes().decode("utf-8", errors="replace")
        assert _lex(tokenize, text) == _lex(tokenize_oracle, text), path.name


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=64))
def test_fuzz_bytes_never_crash(data):
    try:
        spec = parse_bytes(data)
    except ParseError:
        return
    assert isinstance(spec, ExperimentSpec)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=64) | edl_like_text)
def test_fuzz_text_never_crash(text):
    try:
        spec = parse_text(text)
    except ParseError:
        return
    assert isinstance(spec, ExperimentSpec)


# The parser before it was rebuilt on one `take` primitive, kept as the oracle.
class _OracleParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        if tokens:
            last = tokens[-1]
            self.eof_pos = (last.line, last.column + len(last.lexeme))
        else:
            self.eof_pos = (1, 1)

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self) -> Token | None:
        return None if self.at_end() else self.tokens[self.i]

    def error(self, message: str, expected: str | None = None) -> ParseError:
        tok = self.peek()
        if tok is None:
            return ParseError(message + " at end of input", *self.eof_pos, expected=expected)
        return ParseError(message, tok.line, tok.column, expected=expected)

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        self.i += 1
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.KEYWORD or tok.lexeme != word:
            got = "end of input" if tok is None else f"{tok.lexeme!r}"
            raise self.error(f"found {got}", expected=f"'{word}'")
        return self.advance()

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.PUNCT or tok.lexeme != ch:
            got = "end of input" if tok is None else f"{tok.lexeme!r}"
            raise self.error(f"found {got}", expected=f"'{ch}'")
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.IDENT:
            got = "end of input" if tok is None else f"{tok.lexeme!r}"
            raise self.error(f"found {got}", expected="identifier")
        return self.advance()

    def match_punct(self, ch: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.PUNCT and tok.lexeme == ch:
            self.advance()
            return True
        return False

    def _to_int(self, tok: Token) -> int:
        try:
            return int(tok.lexeme)
        except ValueError:  # e.g. beyond the interpreter's digit limit
            raise ParseError("integer literal out of range", tok.line, tok.column) from None

    def _to_float(self, tok_or_text, line: int, column: int) -> float:
        text = tok_or_text if isinstance(tok_or_text, str) else tok_or_text.lexeme
        try:
            return float(text)
        except ValueError:
            raise ParseError("numeric literal out of range", line, column) from None

    def expect_int(self) -> int:
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.INT:
            got = "end of input" if tok is None else f"{tok.lexeme!r}"
            raise self.error(f"found {got}", expected="integer")
        self.advance()
        return self._to_int(tok)

    def expect_number(self) -> float:
        """INT or FLOAT where the grammar says FLOAT."""
        tok = self.peek()
        if tok is None or tok.kind not in (TokenKind.INT, TokenKind.FLOAT):
            got = "end of input" if tok is None else f"{tok.lexeme!r}"
            raise self.error(f"found {got}", expected="number")
        self.advance()
        return self._to_float(tok, tok.line, tok.column)

    def expect_complex(self) -> complex:
        tok = self.peek()
        if tok is None or tok.kind not in (TokenKind.INT, TokenKind.FLOAT, TokenKind.COMPLEX):
            got = "end of input" if tok is None else f"{tok.lexeme!r}"
            raise self.error(f"found {got}", expected="complex number")
        self.advance()
        if tok.kind is TokenKind.COMPLEX:
            m = _COMPLEX_RE.match(tok.lexeme)
            assert m is not None and m.end() == len(tok.lexeme)
            re_part = self._to_float(m.group(1), tok.line, tok.column)
            im_part = self._to_float(m.group(2) + m.group(3), tok.line, tok.column)
            return complex(re_part, im_part)
        return complex(self._to_float(tok, tok.line, tok.column), 0.0)


def parse_oracle(tokens: list[Token]) -> ExperimentSpec:
    """Build the AST; stops at the first syntax error (no recovery)."""
    p = _OracleParser(tokens)
    spec = ExperimentSpec()

    def check_unique(ns: dict, name_tok: Token, what: str, also: dict | None = None):
        if name_tok.lexeme in ns or (also is not None and name_tok.lexeme in also):
            raise ParseError(
                f"duplicate {what} name {name_tok.lexeme!r}", name_tok.line, name_tok.column
            )

    while not p.at_end():
        tok = p.peek()
        assert tok is not None
        if tok.kind is not TokenKind.KEYWORD:
            raise p.error(f"found {tok.lexeme!r}", expected="a statement keyword")
        if tok.lexeme == "space":
            p.advance()
            name = p.expect_ident()
            check_unique(spec.spaces, name, "space")
            p.expect_keyword("dim")
            dim = p.expect_int()
            p.expect_punct(";")
            spec.spaces[name.lexeme] = SpaceDecl(name.lexeme, dim, (name.line, name.column))
        elif tok.lexeme == "state":
            p.advance()
            name = p.expect_ident()
            check_unique(spec.states, name, "state")
            p.expect_keyword("in")
            space = p.expect_ident()
            p.expect_punct("=")
            nxt = p.peek()
            if nxt is not None and nxt.kind is TokenKind.KEYWORD and nxt.lexeme == "bloch":
                p.advance()
                p.expect_punct("(")
                theta = p.expect_number()
                p.expect_punct(",")
                phi = p.expect_number()
                p.expect_punct(")")
                body: tuple[complex, ...] | BlochForm = BlochForm(theta, phi)
            else:
                p.expect_punct("[")
                amps = [p.expect_complex()]
                while p.match_punct(","):
                    amps.append(p.expect_complex())
                p.expect_punct("]")
                body = tuple(amps)
            p.expect_punct(";")
            spec.states[name.lexeme] = StateDecl(
                name.lexeme, space.lexeme, body, (name.line, name.column)
            )
        elif tok.lexeme == "proj":
            p.advance()
            name = p.expect_ident()
            check_unique(spec.projectors, name, "projector")
            p.expect_keyword("on")
            space = p.expect_ident()
            p.expect_punct("=")
            nxt = p.peek()
            if nxt is None or nxt.kind is not TokenKind.KEYWORD:
                raise p.error(
                    "found " + ("end of input" if nxt is None else repr(nxt.lexeme)),
                    expected="'span', 'ketbra' or 'not'",
                )
            if nxt.lexeme == "span":
                p.advance()
                p.expect_punct("[")
                idxs = [p.expect_int()]
                while p.match_punct(","):
                    idxs.append(p.expect_int())
                p.expect_punct("]")
                body: SpanForm | KetbraForm | NotForm = SpanForm(tuple(idxs))
            elif nxt.lexeme == "ketbra":
                p.advance()
                body = KetbraForm(p.expect_ident().lexeme)
            elif nxt.lexeme == "not":
                p.advance()
                body = NotForm(p.expect_ident().lexeme)
            else:
                raise p.error(f"found {nxt.lexeme!r}", expected="'span', 'ketbra' or 'not'")
            p.expect_punct(";")
            spec.projectors[name.lexeme] = ProjDecl(
                name.lexeme, space.lexeme, body, (name.line, name.column)
            )
        elif tok.lexeme == "history":
            p.advance()
            name = p.expect_ident()
            check_unique(spec.histories, name, "history", also=spec.orhistories)
            p.expect_punct("=")
            p.expect_punct("[")
            steps = []
            t = p.expect_number()
            p.expect_punct(":")
            steps.append((t, p.expect_ident().lexeme))
            while p.match_punct(","):
                t = p.expect_number()
                p.expect_punct(":")
                steps.append((t, p.expect_ident().lexeme))
            p.expect_punct("]")
            p.expect_punct(";")
            spec.histories[name.lexeme] = HistoryDecl(
                name.lexeme, tuple(steps), (name.line, name.column)
            )
        elif tok.lexeme == "orhistory":
            p.advance()
            name = p.expect_ident()
            check_unique(spec.orhistories, name, "history", also=spec.histories)
            p.expect_punct("=")
            p.expect_keyword("or")
            p.expect_punct("[")
            branches = [p.expect_ident().lexeme]
            while p.match_punct(","):
                branches.append(p.expect_ident().lexeme)
            p.expect_punct("]")
            p.expect_punct(";")
            spec.orhistories[name.lexeme] = OrHistoryDecl(
                name.lexeme, tuple(branches), (name.line, name.column)
            )
        else:
            raise p.error(f"found {tok.lexeme!r}", expected="a statement keyword")
    return spec


def _parse_outcome(parser, tokens):
    try:
        spec = parser(tokens)
    except ParseError as exc:
        # the oracle said "found end of input at end of input"; nothing else changed
        return ("error", exc.message.removesuffix(" at end of input"), exc.line, exc.column,
                exc.expected)
    return ("ast", spec, repr(spec))  # repr also covers positions and the sign of zeros


def _assert_parsers_agree(tokens):
    assert _parse_outcome(parse, tokens) == _parse_outcome(parse_oracle, tokens), tokens


CORPUS_TOKENS = [tokenize(path.read_text()) for path in sorted(CORPUS.glob("*.edl"))
                 if not path.name == "invalid_14.edl"]  # its illegal character stops the lexer
TOKEN_POOL = list(dict.fromkeys(tok for toks in CORPUS_TOKENS for tok in toks)) + tokenize(
    "space state proj history orhistory dim in on bloch span ketbra not or "
    "X 0 -1 1.5 1e999 0.5-0.5i -0-0i ; = [ ] ( ) , : " + "9" * 5000
)
STATEMENT_FRAGMENTS = [
    "space Q dim 2;", "space R dim 3", "state s in Q = [", "state t in Q =", "1, 0", "0.5-0.5i",
    "];", "]", "bloch(1.5, 0)", "bloch(", "proj P on Q = span [0", "proj P on Q =", "ketbra s",
    "not P", "history H = [0: P", "1.0: P", "orhistory O = or [H", "orhistory H = or [", ",",
    ";", "=", ":", "[", "(", ")", "space", "dim", "in", "on", "or", "Q", "P", "H", "2",
    "-3", "1e9", "9" * 5000,
]
# whole statements whose names collide within and across namespaces
WHOLE_STATEMENTS = [
    "space Q dim 2;", "state s in Q = [1, 0.5-0.5i];", "state s in Q = bloch(1.5, 0);",
    "proj P on Q = span [0];", "proj P on Q = not P;", "proj K on Q = ketbra s;",
    "history H = [0: P, 1.0: K];", "history O = [0: P];", "orhistory O = or [H];",
    "orhistory H = or [H, O];",
]


def test_parser_matches_the_oracle_on_the_corpus():
    assert len(CORPUS_TOKENS) == 19
    for tokens in CORPUS_TOKENS:
        _assert_parsers_agree(tokens)
        for cut in range(len(tokens)):
            _assert_parsers_agree(tokens[:cut])
        for other in CORPUS_TOKENS:
            _assert_parsers_agree(tokens + other)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(WHOLE_STATEMENTS), max_size=8),
       st.lists(st.sampled_from(STATEMENT_FRAGMENTS), max_size=30))
def test_parser_matches_the_oracle_on_fragments(statements, fragments):
    _assert_parsers_agree(tokenize(" ".join(statements + fragments)))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(CORPUS_TOKENS),
       st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                          st.integers(min_value=0), st.sampled_from(TOKEN_POOL)),
                min_size=1, max_size=4))
def test_parser_matches_the_oracle_on_mutated_token_streams(tokens, edits):
    tokens = list(tokens)
    for op, at, tok in edits:
        at %= len(tokens) + 1
        if op == "insert":
            tokens.insert(at, tok)
        elif at < len(tokens):
            if op == "delete":
                del tokens[at]
            else:
                tokens[at] = tok
    _assert_parsers_agree(tokens)


# The statement path of parse_text against the token path, parse(tokenize(.)), kept as
# the oracle: the same AST, positions and signed zeros included, or the same ParseError.
def _text_outcome(parser, text):
    try:
        spec = parser(text)
    except ParseError as exc:
        return ("error", str(exc), exc.message, exc.line, exc.column, exc.expected)
    return ("ast", spec, repr(spec))


def _assert_paths_agree(text):
    assert _text_outcome(parse_text, text) == _text_outcome(lambda s: parse(tokenize(s)), text)


def _assert_statement_path_accepts(text):
    spec, expected = _parse_statements(text), parse(tokenize(text))
    assert spec is not None, text
    assert (spec, repr(spec)) == (expected, repr(expected))


CORPUS_TEXTS = [path.read_text() for path in sorted(CORPUS.glob("*.edl"))]
VALID_TOKENS = [tokenize(path.read_text()) for path in sorted(CORPUS.glob("valid_*.edl"))]
GAPS = [" ", "\t", "\r", "\n", "\r\n", "  # note\n", "#\n", "\n\n \t ", "#" * 40 + "\n",
        "# é €\n"]


def respaced(tokens, gaps):
    """The lexemes of `tokens` with gaps[0] before them and gaps[i + 1] after the i-th."""
    return gaps[0] + "".join(tok.lexeme + gap for tok, gap in zip(tokens, gaps[1:]))


respaced_corpus = st.sampled_from(VALID_TOKENS).flatmap(lambda tokens: st.lists(
    st.sampled_from(GAPS), min_size=len(tokens) + 1, max_size=len(tokens) + 1,
).map(lambda gaps: respaced(tokens, gaps)))


@pytest.mark.parametrize("text", [
    "", " \n\t\r", "# only a comment", "space Q dim 2;", "  space Q dim 2; # end",
    "spaceQ dim 2;", "space Qdim 2;", "space Q dim2;", "space Q dim 2", "space Q dim 2;;",
    "space Q dim 2.0;", "space Q dim -3;", "space Q dim 1e2;", "space dim dim 2;",
    "space Q dim " + "9" * 5000 + ";", "space Q dim 2; @", "space Q\x0bdim 2;",
    "space Q dim 2; # é", "state s in Q = [1+2i, -0-0i, -0, .5, 1., 1e999];",
    "state s in Q = [1 +2i];", "state s in Q = [2i];", "state s in Q = [1e+5i];",
    "state s in Q = [1.2.3];", "state s in Q = [1,];", "state s in Q = [];",
    "state s in Q = bloch(-0, 1e-3);", "state s in Q = bloch (1, 2) ;",
    "state s in Q = bloch(1+2i, 0);", "state s in Q = [1, 0] ; state s in Q = [0, 1];",
    "proj P on Q = span [0,1 , 2];", "proj P on Q = span [1.0];", "proj P on Q = span[0]",
    "proj P on Q = ketbra s;", "proj P on Q = not in;", "proj P on Q = notP;",
    "history H = [0:P,1.5e0 : Q];", "history H = [0: P 1: Q];", "history H = [0: or];",
    "history H = or [A];", "orhistory O = [0: P];", "orhistory O = or[A,B_1 , _c];",
    "history H = [0: P];\norhistory H = or [H];", "orhistory O = or [A, space];",
    "space Q dim 2;\r\n  state s in Q =\n[1,\n 0];\n\n  proj P on Q = span [0];",
])
def test_parse_text_matches_the_token_path_on_edge_cases(text):
    _assert_paths_agree(text)


@settings(max_examples=500, deadline=None)
@given(edl_like_text | respaced_corpus | st.lists(
    st.tuples(st.sampled_from(WHOLE_STATEMENTS + STATEMENT_FRAGMENTS), st.sampled_from(GAPS)),
    max_size=30,
).map(lambda parts: "".join(map("".join, parts))))
def test_parse_text_matches_the_token_path(text):
    _assert_paths_agree(text)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(CORPUS_TEXTS),
       st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                          st.integers(min_value=0), st.integers(0, 8),
                          st.sampled_from(EDL_FRAGMENTS + STATEMENT_FRAGMENTS)),
                min_size=1, max_size=4))
def test_parse_text_matches_the_token_path_on_mutated_corpus_text(text, edits):
    for op, at, width, fragment in edits:
        at %= len(text) + 1
        cut = 0 if op == "insert" else width
        text = text[:at] + ("" if op == "delete" else fragment) + text[at + cut:]
    _assert_paths_agree(text)


def test_statement_path_accepts_every_valid_corpus_file():
    texts = [path.read_text() for path in sorted(CORPUS.glob("valid_*.edl"))]
    assert len(texts) == 12
    for text in texts + [pretty_print(parse_text(t)) for t in texts]:
        _assert_statement_path_accepts(text)
    for disjoint in (True, False):
        _assert_statement_path_accepts(wide_orhistory_source(disjoint))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1).map(random.Random).map(random_experiment_source)
       | respaced_corpus)
def test_statement_path_accepts_every_generated_source(source):
    _assert_statement_path_accepts(source)


# Every label a diagnostic can carry, once on a wrong token and once at end of input
# (a statement keyword is only ever expected where a token is left), each integer
# slot out of range, and each duplicate-name message, history and orhistory both
# ways. The texts are pinned as written, independently of either parser.
Q = "space Q dim 2;\n"
P = Q + "proj P on Q = span [0];\n"
H = P + "history H = [0: P];\n"
PARSE_ERRORS = [
    ("Q dim 2;", "line 1 col 1: found 'Q' (expected a statement keyword)"),
    ("space Q dim 2; dim", "line 1 col 16: found 'dim' (expected a statement keyword)"),
    ("space 2 dim 2;", "line 1 col 7: found '2' (expected identifier)"),
    ("space", "line 1 col 6: found end of input (expected identifier)"),
    ("space Q 2;", "line 1 col 9: found '2' (expected 'dim')"),
    ("space Q", "line 1 col 8: found end of input (expected 'dim')"),
    ("space Q dim 2.0;", "line 1 col 13: found '2.0' (expected integer)"),
    ("space Q dim", "line 1 col 12: found end of input (expected integer)"),
    (Q + "state s on Q = [1, 0];", "line 2 col 9: found 'on' (expected 'in')"),
    (Q + "state s", "line 2 col 8: found end of input (expected 'in')"),
    (Q + "state s in Q [1, 0];", "line 2 col 14: found '[' (expected '=')"),
    (Q + "state s in Q", "line 2 col 13: found end of input (expected '=')"),
    (Q + "state s in Q = 1;", "line 2 col 16: found '1' (expected '[')"),
    (Q + "state s in Q =", "line 2 col 15: found end of input (expected '[')"),
    (Q + "state s in Q = bloch 1, 0);", "line 2 col 22: found '1' (expected '(')"),
    (Q + "state s in Q = bloch", "line 2 col 21: found end of input (expected '(')"),
    (Q + "state s in Q = bloch(x, 0);", "line 2 col 22: found 'x' (expected number)"),
    (Q + "state s in Q = bloch(", "line 2 col 22: found end of input (expected number)"),
    (Q + "state s in Q = bloch(1 0);", "line 2 col 24: found '0' (expected ',')"),
    (Q + "state s in Q = bloch(1", "line 2 col 23: found end of input (expected ',')"),
    (Q + "state s in Q = bloch(1, 0;", "line 2 col 26: found ';' (expected ')')"),
    (Q + "state s in Q = bloch(1, 0", "line 2 col 26: found end of input (expected ')')"),
    (Q + "state s in Q = [1, x];", "line 2 col 20: found 'x' (expected complex number)"),
    (Q + "state s in Q = [1,", "line 2 col 19: found end of input (expected complex number)"),
    (Q + "state s in Q = [1 0];", "line 2 col 19: found '0' (expected ']')"),
    (Q + "state s in Q = [1, 0", "line 2 col 21: found end of input (expected ']')"),
    (Q + "proj P on Q = bloch(1, 0);",
     "line 2 col 15: found 'bloch' (expected 'span', 'ketbra' or 'not')"),
    (Q + "proj P on Q = P;", "line 2 col 15: found 'P' (expected 'span', 'ketbra' or 'not')"),
    (Q + "proj P on Q =",
     "line 2 col 14: found end of input (expected 'span', 'ketbra' or 'not')"),
    (P + "history H = [0 P];", "line 3 col 16: found 'P' (expected ':')"),
    (P + "history H = [0", "line 3 col 15: found end of input (expected ':')"),
    (Q + "orhistory O = [H];", "line 2 col 15: found '[' (expected 'or')"),
    (Q + "orhistory O =", "line 2 col 14: found end of input (expected 'or')"),
    (Q + "proj P on Q = span [0] proj", "line 2 col 24: found 'proj' (expected ';')"),
    (Q + "proj P on Q = span [0]", "line 2 col 23: found end of input (expected ';')"),
    ("space Q dim " + "9" * 5000 + ";", "line 1 col 13: integer literal out of range"),
    (Q + "proj P on Q = span [0, " + "9" * 5000 + "];",
     "line 2 col 24: integer literal out of range"),
    (Q + "space Q dim 3;", "line 2 col 7: duplicate space name 'Q'"),
    (Q + "state s in Q = [1, 0];\nstate s in Q = bloch(1, 0);",
     "line 3 col 7: duplicate state name 's'"),
    (P + "proj P on Q = not P;", "line 3 col 6: duplicate projector name 'P'"),
    (H + "history H = [1: P];", "line 4 col 9: duplicate history name 'H'"),
    (H + "orhistory O = or [H];\norhistory O = or [H];",
     "line 5 col 11: duplicate history name 'O'"),
    (H + "orhistory H = or [H];", "line 4 col 11: duplicate history name 'H'"),
    (H + "orhistory O = or [H];\nhistory O = [0: P];",
     "line 5 col 9: duplicate history name 'O'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_every_diagnostic_keeps_its_text(text, message):
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert str(err.value) == message


def test_keywords_and_punctuation_come_from_the_grammar_table():
    assert KEYWORDS == {"space", "dim", "state", "in", "bloch", "proj", "on", "span",
                        "ketbra", "not", "history", "orhistory", "or"}
    ebnf = "\n".join(line for line in hmsim.edl.__doc__.splitlines() if line.startswith("    "))
    assert set(re.findall(r'"([^"]+)"', ebnf)) == set(_TERMINALS) | {"+", "-", "i"}
    # one form per way through a statement, each told apart by its last group:
    # space, state (list or bloch), proj (span, ketbra or not), history, orhistory
    assert len(_FORMS) == 8


# The printer before it walked the grammar table, kept as the oracle; it writes an
# infinity as the overflowing literal that reads back as one.
def _fmt_float(x: float) -> str:
    return {"inf": "1e999", "-inf": "-1e999"}.get(repr(float(x)), repr(float(x)))


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


def pretty_print_oracle(spec: ExperimentSpec) -> str:
    lines: list[str] = []
    for s in spec.spaces.values():
        lines.append(f"space {s.name} dim {s.dim};")
    for st_ in spec.states.values():
        if isinstance(st_.body, BlochForm):
            rhs = f"bloch({_fmt_float(st_.body.theta)}, {_fmt_float(st_.body.phi)})"
        else:
            rhs = "[" + ", ".join(_fmt_complex(z) for z in st_.body) + "]"
        lines.append(f"state {st_.name} in {st_.space} = {rhs};")
    for pr in spec.projectors.values():
        if isinstance(pr.body, SpanForm):
            rhs = "span [" + ", ".join(str(i) for i in pr.body.indices) + "]"
        elif isinstance(pr.body, KetbraForm):
            rhs = f"ketbra {pr.body.state}"
        else:
            rhs = f"not {pr.body.projector}"
        lines.append(f"proj {pr.name} on {pr.space} = {rhs};")
    for h in spec.histories.values():
        steps = ", ".join(f"{_fmt_float(t)}: {ref}" for t, ref in h.steps)
        lines.append(f"history {h.name} = [{steps}];")
    for oh in spec.orhistories.values():
        lines.append(f"orhistory {oh.name} = or [" + ", ".join(oh.branches) + "];")
    return "\n".join(lines) + ("\n" if lines else "")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1).map(random.Random).map(random_experiment_source)
       | respaced_corpus)
def test_pretty_print_matches_the_oracle(source):
    spec = parse_text(source)
    assert pretty_print(spec) == pretty_print_oracle(spec)


plain_numbers = st.floats() | st.integers(-3, 3) | st.sampled_from([0.0, -0.0, math.inf, math.nan])
amplitudes = st.builds(complex, plain_numbers, plain_numbers) | plain_numbers


@settings(max_examples=200, deadline=None)
@given(st.lists(amplitudes, min_size=1, max_size=4), plain_numbers, plain_numbers,
       st.lists(st.tuples(plain_numbers, st.sampled_from(["P", "N"])), min_size=1, max_size=3))
def test_pretty_print_matches_the_oracle_on_built_asts(amps, theta, phi, steps):
    """Hand-built values the parser never makes: ints, and signed zeros in either part."""
    spec = ExperimentSpec(
        spaces={"Q": SpaceDecl("Q", 2)},
        states={"s": StateDecl("s", "Q", tuple(amps)),
                "b": StateDecl("b", "Q", BlochForm(theta, phi))},
        projectors={"P": ProjDecl("P", "Q", SpanForm((0, 1))),
                    "K": ProjDecl("K", "Q", KetbraForm("s")),
                    "N": ProjDecl("N", "Q", NotForm("P"))},
        histories={"H": HistoryDecl("H", tuple(steps))},
        orhistories={"O": OrHistoryDecl("O", ("H", "H"))},
    )
    assert pretty_print(spec) == pretty_print_oracle(spec)


def test_pretty_print_signed_zeros_and_int_times():
    spec = ExperimentSpec(
        states={"s": StateDecl("s", "Q", (complex(-0.0, -0.0), complex(0.5, -0.0),
                                          complex(-0.0, 1.0), -0.0, 2))},
        histories={"H": HistoryDecl("H", ((0, "P"), (-0.0, "P"), (2, "P")))},
    )
    expected = ("state s in Q = [-0.0, 0.5, -0.0+1.0i, -0.0, 2.0];\n"
                "history H = [0.0: P, -0.0: P, 2.0: P];\n")
    assert pretty_print(spec) == pretty_print_oracle(spec) == expected
