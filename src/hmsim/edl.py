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
`tokenize` returns `Token` named tuples `(kind, lexeme, line, column)`.

`span [i, ...]` is the coordinate projector onto the basis vectors with
those indices: a 0/1 diagonal matrix.

Names are resolved top to bottom, so `ketbra`/`not`/history/orhistory
references must point at declarations appearing earlier in the file.
Histories and orhistories share one namespace so that a report can be
requested by a single name.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, TypeVar

import numpy as np

from .dichotomic import qubit_from_angles
from .errors import DisjointnessError, HmsimError, NormalizationError
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


class Token(NamedTuple):
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


_KINDS = {kind.name: kind for kind in TokenKind}


def tokenize(source: str) -> list[Token]:
    """Longest-match lexing with 1-based line/column positions."""
    tokens: list[Token] = []
    append, kinds, new = tokens.append, _KINDS, tuple.__new__  # no Python frame per token
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        lexeme = m.group()
        if kind == "word":
            kind = "KEYWORD" if lexeme in KEYWORDS else "IDENT"
        elif kind == "bad":
            raise ParseError(f"illegal character {lexeme!r}", line, m.start() - line_start + 1)
        append(new(Token, (kinds[kind], lexeme, line, m.start() - line_start + 1)))
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


# statement keyword -> (ExperimentSpec fields its name must be new in, word for a duplicate)
_STATEMENTS = {
    "space": (("spaces",), "space"),
    "state": (("states",), "state"),
    "proj": (("projectors",), "projector"),
    "history": (("histories", "orhistories"), "history"),
    "orhistory": (("orhistories", "histories"), "history"),
}


_T = TypeVar("_T")


def _found(tok: Token, expected: str) -> ParseError:
    return ParseError(f"found {tok.lexeme!r}", tok.line, tok.column, expected=expected)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        if tokens:
            last = tokens[-1]
            self.eof_pos = (last.line, last.column + len(last.lexeme))
        else:
            self.eof_pos = (1, 1)

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: str, *kinds: TokenKind, lexeme: str | None = None) -> Token:
        """Consume the next token if it is one of `kinds` (and reads `lexeme`, if given)."""
        tok = self.peek()
        if tok is None:
            raise ParseError("found end of input", *self.eof_pos, expected=expected)
        if tok.kind not in kinds or (lexeme is not None and tok.lexeme != lexeme):
            raise _found(tok, expected)
        self.i += 1
        return tok

    def bracketed(self, item: Callable[[], _T]) -> tuple[_T, ...]:
        """`[` item {`,` item} `]`"""
        self.take("'['", TokenKind.PUNCT, lexeme="[")
        items = [item()]
        while (sep := self.take("']'", TokenKind.PUNCT)).lexeme == ",":
            items.append(item())
        if sep.lexeme != "]":
            raise _found(sep, "']'")
        return tuple(items)


def parse(tokens: list[Token]) -> ExperimentSpec:
    """Build the AST; stops at the first syntax error (no recovery)."""
    p = _Parser(tokens)
    spec = ExperimentSpec()

    def sym(lexeme: str, kind: TokenKind = TokenKind.PUNCT) -> Token:
        return p.take(f"'{lexeme}'", kind, lexeme=lexeme)

    def ident() -> str:
        return p.take("identifier", TokenKind.IDENT).lexeme

    def number() -> float:
        """INT or FLOAT where the grammar says FLOAT."""
        return float(p.take("number", TokenKind.INT, TokenKind.FLOAT).lexeme)

    def integer() -> int:
        tok = p.take("integer", TokenKind.INT)
        try:
            return int(tok.lexeme)
        except ValueError:  # e.g. beyond the interpreter's digit limit
            raise ParseError("integer literal out of range", tok.line, tok.column) from None

    def amplitude() -> complex:
        tok = p.take("complex number", TokenKind.INT, TokenKind.FLOAT, TokenKind.COMPLEX)
        if tok.kind is TokenKind.COMPLEX:
            re_part, sign, im_part = _COMPLEX_RE.match(tok.lexeme).groups()
            return complex(float(re_part), float(sign + im_part))
        return complex(float(tok.lexeme), 0.0)

    def step() -> tuple[float, str]:
        t = number()
        sym(":")
        return t, ident()

    while p.peek() is not None:
        kw = p.take("a statement keyword", TokenKind.KEYWORD)
        if kw.lexeme not in _STATEMENTS:
            raise _found(kw, "a statement keyword")
        fields, word = _STATEMENTS[kw.lexeme]
        name_tok = p.take("identifier", TokenKind.IDENT)
        name, pos = name_tok.lexeme, (name_tok.line, name_tok.column)
        if any(name in getattr(spec, f) for f in fields):
            raise ParseError(f"duplicate {word} name {name!r}", *pos)
        if kw.lexeme == "space":
            sym("dim", TokenKind.KEYWORD)
            decl = SpaceDecl(name, integer(), pos)
        elif kw.lexeme == "state":
            sym("in", TokenKind.KEYWORD)
            space = ident()
            sym("=")
            nxt = p.peek()
            if nxt is not None and nxt.kind is TokenKind.KEYWORD and nxt.lexeme == "bloch":
                sym("bloch", TokenKind.KEYWORD)
                sym("(")
                theta = number()
                sym(",")
                phi = number()
                sym(")")
                body: tuple[complex, ...] | BlochForm = BlochForm(theta, phi)
            else:
                body = p.bracketed(amplitude)
            decl = StateDecl(name, space, body, pos)
        elif kw.lexeme == "proj":
            sym("on", TokenKind.KEYWORD)
            space = ident()
            sym("=")
            form = p.take("'span', 'ketbra' or 'not'", TokenKind.KEYWORD)
            if form.lexeme == "span":
                proj_body: SpanForm | KetbraForm | NotForm = SpanForm(p.bracketed(integer))
            elif form.lexeme == "ketbra":
                proj_body = KetbraForm(ident())
            elif form.lexeme == "not":
                proj_body = NotForm(ident())
            else:
                raise _found(form, "'span', 'ketbra' or 'not'")
            decl = ProjDecl(name, space, proj_body, pos)
        elif kw.lexeme == "history":
            sym("=")
            decl = HistoryDecl(name, p.bracketed(step), pos)
        else:
            sym("=")
            sym("or", TokenKind.KEYWORD)
            decl = OrHistoryDecl(name, p.bracketed(ident), pos)
        sym(";")
        getattr(spec, fields[0])[name] = decl
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
    if not np.isfinite(np.asarray(values, dtype=complex)).all():
        raise ElaborationError(f"non-finite value in {what}", *pos)


def _resolve(table: dict[str, _T], ref: str, what: str, pos: Pos) -> _T:
    if ref not in table:
        raise ElaborationError(f"unresolved {what} name {ref!r}", *pos)
    return table[ref]


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
        dim = _resolve(spaces, st.space, "space", st.pos)
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
            if not raw.amplitudes.any():
                raise ElaborationError(f"state {st.name!r} is the zero vector", *st.pos)
            try:
                vec, norm = raw.normalized()
            except NormalizationError:
                raise ElaborationError(
                    f"state {st.name!r} cannot be normalized in double precision", *st.pos
                ) from None
            if abs(norm - 1.0) > RENORMALIZATION_WARN_TOL:
                line, col = st.pos
                print(f"warning: line {line} col {col}: state {st.name!r} renormalized"
                      f" (norm was {norm!r})", file=sys.stderr)
        states[st.name] = vec
        state_spaces[st.name] = st.space

    projectors: dict[str, Projector] = {}
    projector_spaces: dict[str, str] = {}
    for pr in spec.projectors.values():
        dim = _resolve(spaces, pr.space, "space", pr.pos)
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
            vec = _resolve(states, ref, "state", pr.pos)
            if state_spaces[ref] != pr.space:
                raise ElaborationError(
                    f"projector {pr.name!r} on {pr.space!r} refers to state {ref!r}"
                    f" in {state_spaces[ref]!r}", *pr.pos
                )
            proj = ketbra(vec)
        else:
            ref = pr.body.projector
            complemented = _resolve(projectors, ref, "projector", pr.pos)
            if projector_spaces[ref] != pr.space:
                raise ElaborationError(
                    f"projector {pr.name!r} on {pr.space!r} complements {ref!r}"
                    f" on {projector_spaces[ref]!r}", *pr.pos
                )
            proj = complement_projector(complemented)
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
        slot_projs = [_resolve(projectors, ref, "projector", h.pos) for _, ref in h.steps]
        histories[h.name] = HomogeneousHistory.at_times(times, slot_projs)

    orhistories: dict[str, InhomogeneousHistory] = {}
    for oh in spec.orhistories.values():
        branches = [_resolve(histories, ref, "history", oh.pos) for ref in oh.branches]
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
