import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmsim
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
    _TOKEN_RE,
    elaborate,
    parse,
    parse_bytes,
    parse_text,
    pretty_print,
    tokenize,
)

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


def test_wide_orhistory_elaborates_in_bounded_time(tmp_path):
    # Timed in a child with single-threaded BLAS: on a shared 2-vCPU host a
    # threaded 64x64 product can wait ~16 ms for its second thread, which
    # measures the host, not the algorithm.
    path = tmp_path / "wide.edl"
    path.write_text(wide_orhistory_source(disjoint=True))
    child = (
        "import sys, time\n"
        "from hmsim.edl import elaborate, parse_text\n"
        "spec = parse_text(open(sys.argv[1]).read())\n"
        "best = float('inf')\n"
        "for _ in range(3):\n"
        "    start = time.perf_counter()\n"
        "    exp = elaborate(spec)\n"
        "    best = min(best, time.perf_counter() - start)\n"
        "print(len(exp.orhistories['AB'].branches), best)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(Path(hmsim.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", child, str(path)], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
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
edl_like_text = st.lists(
    st.sampled_from(EDL_FRAGMENTS) | st.text(alphabet="0123456789.eEi+-_ aZ\n#;", max_size=4),
    max_size=40,
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(edl_like_text)
def test_tokenize_matches_the_per_character_lexer(text):
    assert _lex(tokenize, text) == _lex(tokenize_oracle, text)


def test_tokenize_matches_the_per_character_lexer_on_the_corpus():
    for path in sorted(CORPUS.glob("*.edl")):
        text = path.read_bytes().decode("utf-8", errors="replace")
        assert _lex(tokenize, text) == _lex(tokenize_oracle, text), path.name


def tokenize_named_tuple_oracle(source: str) -> list[Token]:
    """tokenize as it was before it built tokens with tuple.__new__ and a kind
    table: each token through Token(...), each kind through TokenKind[...]."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        lexeme, col = m.group(), m.start() - line_start + 1
        if kind == "word":
            tokens.append(Token(TokenKind.KEYWORD if lexeme in KEYWORDS else TokenKind.IDENT,
                                lexeme, line, col))
        elif kind == "bad":
            raise ParseError(f"illegal character {lexeme!r}", line, col)
        else:
            tokens.append(Token(TokenKind[kind], lexeme, line, col))
    return tokens


@settings(max_examples=1000, deadline=None)
@given(edl_like_text)
def test_tokenize_matches_the_named_tuple_loop(text):
    got, expected = _lex(tokenize, text), _lex(tokenize_named_tuple_oracle, text)
    assert got == expected
    if isinstance(expected, list):
        for t, o in zip(got, expected):
            assert type(t) is Token
            assert t.kind is o.kind
            assert (t.lexeme, t.line, t.column) == (o.lexeme, o.line, o.column)


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=64))
def test_fuzz_bytes_never_crash(data):
    try:
        spec = parse_bytes(data)
    except ParseError:
        return
    assert isinstance(spec, ExperimentSpec)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=64))
def test_fuzz_text_never_crash(text):
    try:
        spec = parse(tokenize(text))
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
