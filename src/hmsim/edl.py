"""Experiment description language: lexer, parser, elaborator.

EDL is a small declarative language binding named spaces, states, projectors
and histories for the command line tools:

    experiment := { stmt } ;
    stmt    := space | state | proj | history | orhist ;
    space   := "space" IDENT "dim" INT ";" ;
    state   := "state" IDENT "in" IDENT "="
               ( "[" complex {"," complex} "]" | "bloch" "(" FLOAT "," FLOAT ")" ) ";" ;
    proj    := "proj" IDENT "on" IDENT "="
               ( "span" "[" INT {"," INT} "]" | "ketbra" IDENT | "not" IDENT ) ";" ;
    history := "history" IDENT "=" "[" FLOAT ":" IDENT {"," FLOAT ":" IDENT} "]" ";" ;
    orhist  := "orhistory" IDENT "=" "or" "[" IDENT {"," IDENT} "]" ";" ;
    complex := FLOAT [ ("+"|"-") FLOAT "i" ] ;

`#` starts a comment running to end of line; input is UTF-8. Numeric
literals may carry a leading minus sign (the grammar has no operators, so
there is no ambiguity), and an INT is accepted anywhere a FLOAT is expected.
A complex literal with both parts, like `0.5-0.5i`, is a single token.
Angles are radians. Lexing is longest-match; keywords are reserved.

`span [i, ...]` is the coordinate projector onto the basis vectors with
those indices: a 0/1 diagonal matrix.

Names are resolved top to bottom, so `ketbra`/`not`/history/orhistory
references must point at declarations appearing earlier in the file.
Histories and orhistories share one namespace so that a report can be
requested by a single name.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum

from .dichotomic import qubit_from_angles
from .errors import DisjointnessError, HmsimError
from .hilbert import Projector, StateVector, complement_projector, ketbra
from .histories import HomogeneousHistory, InhomogeneousHistory

MAX_SPACE_DIM = 64
RENORMALIZATION_WARN_TOL = 1e-9

KEYWORDS = frozenset(
    ["space", "dim", "state", "in", "bloch", "proj", "on", "span", "ketbra", "not",
     "history", "orhistory", "or"]
)

class TokenKind(Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    INT = "INT"
    FLOAT = "FLOAT"
    COMPLEX = "COMPLEX"
    PUNCT = "PUNCT"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    line: int
    column: int


class ParseError(HmsimError):
    """Syntax or lexical error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"line {line} col {column}: {message}{suffix}")


class ElaborationError(HmsimError):
    """Semantic error (unresolved name, bad dimension, ...) with a position."""

    def __init__(self, message: str, line: int, column: int):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line} col {column}: {message}")


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_END = r"(?![A-Za-z0-9_.])"  # a number may not run into a word or a further dot
_COMPLEX_RE = re.compile(rf"(-?{_NUM})([+-])({_NUM})i{_END}", re.ASCII)
# One alternation, tried in this order at each offset; `bad` catches what the others refuse.
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in (
    ("COMPLEX", _COMPLEX_RE.pattern),
    ("FLOAT", rf"-?(?:(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+){_END}"),
    ("INT", rf"-?\d+{_END}"),
    ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("PUNCT", r"[;=\[\](),:]"),
    ("blank", r"[ \t\r]+|#[^\n]*"),
    ("newline", r"\n"),
    ("bad", "."),
)), re.ASCII | re.DOTALL)


def tokenize(source: str) -> list[Token]:
    """Longest-match lexing with 1-based line/column positions."""
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


# ---------------------------------------------------------------------------
# AST


Pos = tuple[int, int]
_NO_POS: Pos = (0, 0)


@dataclass
class BlochForm:
    theta: float
    phi: float


@dataclass
class SpanForm:
    indices: tuple[int, ...]


@dataclass
class KetbraForm:
    state: str


@dataclass
class NotForm:
    projector: str


@dataclass
class SpaceDecl:
    name: str
    dim: int
    pos: Pos = field(default=_NO_POS, compare=False)


@dataclass
class StateDecl:
    name: str
    space: str
    body: tuple[complex, ...] | BlochForm
    pos: Pos = field(default=_NO_POS, compare=False)


@dataclass
class ProjDecl:
    name: str
    space: str
    body: SpanForm | KetbraForm | NotForm
    pos: Pos = field(default=_NO_POS, compare=False)


@dataclass
class HistoryDecl:
    name: str
    steps: tuple[tuple[float, str], ...]
    pos: Pos = field(default=_NO_POS, compare=False)


@dataclass
class OrHistoryDecl:
    name: str
    branches: tuple[str, ...]
    pos: Pos = field(default=_NO_POS, compare=False)


@dataclass
class ExperimentSpec:
    spaces: dict[str, SpaceDecl] = field(default_factory=dict)
    states: dict[str, StateDecl] = field(default_factory=dict)
    projectors: dict[str, ProjDecl] = field(default_factory=dict)
    histories: dict[str, HistoryDecl] = field(default_factory=dict)
    orhistories: dict[str, OrHistoryDecl] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
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


def parse(tokens: list[Token]) -> ExperimentSpec:
    """Build the AST; stops at the first syntax error (no recovery)."""
    p = _Parser(tokens)
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


def parse_text(source: str) -> ExperimentSpec:
    return parse(tokenize(source))


def parse_bytes(data: bytes) -> ExperimentSpec:
    """Decode UTF-8 and parse; decode failures become ParseErrors."""
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start]
        line = prefix.count(b"\n") + 1
        col = exc.start - (prefix.rfind(b"\n") + 1) + 1
        raise ParseError("invalid UTF-8 byte", line, col) from None
    return parse_text(source)


# ---------------------------------------------------------------------------
# Pretty printer


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


def pretty_print(spec: ExperimentSpec) -> str:
    """Canonical source text; reparsing yields a structurally equal AST."""
    lines: list[str] = []
    for s in spec.spaces.values():
        lines.append(f"space {s.name} dim {s.dim};")
    for st in spec.states.values():
        if isinstance(st.body, BlochForm):
            rhs = f"bloch({_fmt_float(st.body.theta)}, {_fmt_float(st.body.phi)})"
        else:
            rhs = "[" + ", ".join(_fmt_complex(z) for z in st.body) + "]"
        lines.append(f"state {st.name} in {st.space} = {rhs};")
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


# ---------------------------------------------------------------------------
# Elaboration


@dataclass
class Experiment:
    """Fully resolved declarations, ready for probability computations."""

    spaces: dict[str, int]
    states: dict[str, StateVector]
    state_spaces: dict[str, str]
    projectors: dict[str, Projector]
    projector_spaces: dict[str, str]
    histories: dict[str, HomogeneousHistory]
    orhistories: dict[str, InhomogeneousHistory]


def _require_finite(values, what: str, pos: Pos) -> None:
    for v in values:
        z = complex(v)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ElaborationError(f"non-finite value in {what}", *pos)


def elaborate(spec: ExperimentSpec) -> Experiment:
    """Resolve names, check dimensions, normalize states, verify disjointness."""
    spaces: dict[str, int] = {}
    for s in spec.spaces.values():
        if not 1 <= s.dim <= MAX_SPACE_DIM:
            raise ElaborationError(
                f"space {s.name!r} has dim {s.dim}, supported range is 1..{MAX_SPACE_DIM}", *s.pos
            )
        spaces[s.name] = s.dim

    states: dict[str, StateVector] = {}
    state_spaces: dict[str, str] = {}
    for st in spec.states.values():
        if st.space not in spaces:
            raise ElaborationError(f"unresolved space name {st.space!r}", *st.pos)
        dim = spaces[st.space]
        if isinstance(st.body, BlochForm):
            if dim != 2:
                raise ElaborationError(
                    f"bloch states need a dim-2 space, {st.space!r} has dim {dim}", *st.pos
                )
            _require_finite((st.body.theta, st.body.phi), f"state {st.name!r}", st.pos)
            vec = qubit_from_angles(st.body.theta, st.body.phi)
        else:
            if len(st.body) != dim:
                raise ElaborationError(
                    f"state {st.name!r} has {len(st.body)} amplitudes for dim {dim}", *st.pos
                )
            _require_finite(st.body, f"state {st.name!r}", st.pos)
            raw = StateVector.of(st.body)
            norm = raw.norm()
            if norm == 0.0:
                raise ElaborationError(f"state {st.name!r} is the zero vector", *st.pos)
            if abs(norm - 1.0) > RENORMALIZATION_WARN_TOL:
                warnings.warn(
                    f"state {st.name!r} renormalized (norm was {norm!r})", stacklevel=2
                )
            vec = raw.normalized()
        states[st.name] = vec
        state_spaces[st.name] = st.space

    projectors: dict[str, Projector] = {}
    projector_spaces: dict[str, str] = {}
    for pr in spec.projectors.values():
        if pr.space not in spaces:
            raise ElaborationError(f"unresolved space name {pr.space!r}", *pr.pos)
        dim = spaces[pr.space]
        if isinstance(pr.body, SpanForm):
            bad = [i for i in pr.body.indices if not 0 <= i < dim]
            if bad:
                raise ElaborationError(
                    f"span index {bad[0]} outside 0..{dim - 1} in projector {pr.name!r}", *pr.pos
                )
            if len(set(pr.body.indices)) != len(pr.body.indices):
                raise ElaborationError(f"repeated span index in projector {pr.name!r}", *pr.pos)
            proj = Projector.coordinate(dim, pr.body.indices)
        elif isinstance(pr.body, KetbraForm):
            ref = pr.body.state
            if ref not in states:
                raise ElaborationError(f"unresolved state name {ref!r}", *pr.pos)
            if state_spaces[ref] != pr.space:
                raise ElaborationError(
                    f"projector {pr.name!r} on {pr.space!r} refers to state {ref!r}"
                    f" in {state_spaces[ref]!r}", *pr.pos
                )
            proj = ketbra(states[ref])
        else:
            ref = pr.body.projector
            if ref not in projectors:
                raise ElaborationError(f"unresolved projector name {ref!r}", *pr.pos)
            if projector_spaces[ref] != pr.space:
                raise ElaborationError(
                    f"projector {pr.name!r} on {pr.space!r} complements {ref!r}"
                    f" on {projector_spaces[ref]!r}", *pr.pos
                )
            proj = complement_projector(projectors[ref])
        projectors[pr.name] = proj
        projector_spaces[pr.name] = pr.space

    histories: dict[str, HomogeneousHistory] = {}
    for h in spec.histories.values():
        times = [t for t, _ in h.steps]
        _require_finite(times, f"history {h.name!r} times", h.pos)
        if any(not (a < b) for a, b in zip(times, times[1:])):
            raise ElaborationError(
                f"history {h.name!r} has non-increasing times {times}", *h.pos
            )
        slot_projs = []
        for _, ref in h.steps:
            if ref not in projectors:
                raise ElaborationError(f"unresolved projector name {ref!r}", *h.pos)
            slot_projs.append(projectors[ref])
        histories[h.name] = HomogeneousHistory.at_times(times, slot_projs)

    orhistories: dict[str, InhomogeneousHistory] = {}
    for oh in spec.orhistories.values():
        branches = []
        for ref in oh.branches:
            if ref not in histories:
                raise ElaborationError(f"unresolved history name {ref!r}", *oh.pos)
            branches.append(histories[ref])
        base = branches[0]
        for ref, b in zip(oh.branches[1:], branches[1:]):
            if b.support != base.support or b.factor_dims != base.factor_dims:
                raise ElaborationError(
                    f"orhistory {oh.name!r}: branch {ref!r} has a different support"
                    f" than {oh.branches[0]!r}", *oh.pos
                )
        try:
            orhistories[oh.name] = InhomogeneousHistory(tuple(branches))
        except DisjointnessError as exc:
            i, j = exc.pair
            raise ElaborationError(
                f"orhistory {oh.name!r}: branches {oh.branches[i]!r} and"
                f" {oh.branches[j]!r} are not disjoint", *oh.pos
            ) from None

    return Experiment(
        spaces, states, state_spaces, projectors, projector_spaces, histories, orhistories
    )
