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

One table, `_STATEMENTS`, holds this grammar, with the terminals quoted above
but the complex literal's. The lexer's keywords and punctuation, both parsers
and the printer come from it. `parse_text` reads each declaration with one
match of a pattern generated from the table. Any input it refuses goes whole
to `parse(tokenize(source))`, which walks the table over the tokens and writes
every `ParseError`. Both give the same AST, down to positions and signed zeros.

`span [i, ...]` is the coordinate projector onto the basis vectors with
those indices: a 0/1 diagonal matrix.

elaborate resolves names by kind, not by line: spaces, states, projectors,
histories, then orhistories, each kind in file order, raising the first error
it meets; so only a `not` must name a projector declared above it. Histories
and orhistories share one namespace, so a report is requested by one name.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Callable, NamedTuple, TypeVar

from .dichotomic import qubit_from_angles
from .errors import (DimensionError, DisjointnessError, DomainError, HmsimError,
                     NormalizationError, SupportError)
from .hilbert import Projector, StateVector, complement_projector, ketbra
from .histories import HomogeneousHistory, InhomogeneousHistory, TemporalSupport

MAX_SPACE_DIM = 64
RENORMALIZATION_WARN_TOL = 1e-9

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
_KINDS = {kind.name: kind for kind in TokenKind}


def tokenize(source: str) -> list[Token]:
    """Longest-match lexing with 1-based line/column positions."""
    tokens: list[Token] = []
    append, kinds, new = tokens.append, _KINDS, tuple.__new__  # no Python frame per token
    line, line_start = 1, 0
    for m in re.finditer(_TOKEN_PATTERN, source, re.ASCII | re.DOTALL):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        if kind == "end":
            break
        lexeme, column = m.group(kind), m.start(kind) - line_start + 1
        if kind == "word":
            kind = "KEYWORD" if lexeme in KEYWORDS else "IDENT"
        elif kind == "bad":
            raise ParseError(f"illegal character {lexeme!r}", line, column)
        append(new(Token, (kinds[kind], lexeme, line, column)))
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
# Grammar
#
# A statement is its keyword, a new name, then steps. A step is a literal (a keyword if
# it is a word), a value kind, a Python list of steps for `[` item {`,` item} `]`, or a
# dict of alternatives keyed by their leading keyword, None for the one taken otherwise.
# An alternative is its constructor (None passes its one value on) and its steps.

_OPEN, _SEP, _CLOSE = "[", ",", "]"
_W = r"(?!\w)"  # a word may not run into another (`\w` is ASCII here)


# A value kind: the label a diagnostic expects, the token kinds that give it, its
# pattern, readers of one lexeme and of comma-separated ones, and its printer.
_Value = namedtuple("_Value", "label kinds pattern one read show")


def _name(lexeme: str) -> str:
    # the statement path has no lexer to make a keyword a KEYWORD token: this refuses
    # it there, which sends the input to the token path
    if lexeme in KEYWORDS:
        raise ValueError(f"keyword {lexeme!r} where a name belongs")
    return lexeme


_NAME = _Value("identifier", (TokenKind.IDENT,), rf"[^\W\d]\w*{_W}",
               _name, lambda text: tuple(map(_name, map(str.strip, text.split(_SEP)))), str)
_INT = _Value("integer", (TokenKind.INT,), rf"-?\d+{_END}",
              int, lambda text: tuple(map(int, text.split(_SEP))), str)
# an overflowing literal reads as inf, which prints back as the literal 1e999
_NUMBER = _Value("number", (TokenKind.INT, TokenKind.FLOAT), rf"-?{_NUM}{_END}",
                 float, lambda text: tuple(map(float, text.split(_SEP))),
                 lambda x: repr(float(x)).replace("inf", "1e999"))
# `complex` reads both parts of `a+bj` as `float` does, so every value keeps its bits
_AMPLITUDE = _Value("complex number", (TokenKind.INT, TokenKind.FLOAT, TokenKind.COMPLEX),
                    rf"-?{_NUM}(?:[+-]{_NUM}i)?{_END}", lambda s: complex(s.replace("i", "j")),
                    lambda text: tuple(map(complex, text.replace("i", "j").split(_SEP))),
                    lambda z: _NUMBER.show(z.real) + ("" if z.imag == 0.0 else "-+"[z.imag >= 0]
                                                      + _NUMBER.show(abs(z.imag)) + "i"))

# keyword -> (ExperimentSpec fields its name must be new in, word for a duplicate,
#             constructor, steps after the name)
_STATEMENTS = {
    "space": (("spaces",), "space", SpaceDecl, ("dim", _INT, ";")),
    "state": (("states",), "state", StateDecl, ("in", _NAME, "=", {
        "bloch": (BlochForm, "(", _NUMBER, ",", _NUMBER, ")"),
        None: (None, [_AMPLITUDE]),
    }, ";")),
    "proj": (("projectors",), "projector", ProjDecl, ("on", _NAME, "=", {
        "span": (SpanForm, [_INT]),
        "ketbra": (KetbraForm, _NAME),
        "not": (NotForm, _NAME),
    }, ";")),
    "history": (("histories", "orhistories"), "history", HistoryDecl,
                ("=", [_NUMBER, ":", _NAME], ";")),
    "orhistory": (("orhistories", "histories"), "history", OrHistoryDecl,
                  ("=", "or", [_NAME], ";")),
}


def _terminals(steps):
    """The literals, list punctuation and alternative keywords of `steps`."""
    for step in steps:
        if isinstance(step, str):
            yield step
        elif isinstance(step, list):
            yield from [_OPEN, _SEP, _CLOSE, *_terminals(step)]
        elif isinstance(step, dict):
            for key, (_, *alt) in step.items():
                yield from _terminals(alt if key is None else [key, *alt])


_TERMINALS = dict.fromkeys(_terminals(t for kw, (*_, steps) in _STATEMENTS.items()
                                      for t in [kw, *steps]))
KEYWORDS = frozenset(t for t in _TERMINALS if t.isalpha())
# Blanks and comments, then one alternation tried in order. `end` takes the blanks at the
# end of input, which `bad` would otherwise catch; `bad` catches what the others refuse.
# Compiled on first use, through re's cache: `parse_text` lexes only input it refuses.
_TOKEN_PATTERN = r"(?:[ \t\r]+|#[^\n]*)*(?:" + "|".join(f"(?P<{k}>{p})" for k, p in (
    ("COMPLEX", _COMPLEX_RE.pattern),
    ("FLOAT", rf"-?(?:(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+){_END}"),
    ("INT", rf"-?\d+{_END}"),
    ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("PUNCT", "[" + "".join(re.escape(t) for t in _TERMINALS if not t.isalpha()) + "]"),
    ("newline", r"\n"),
    ("end", r"\Z"),
    ("bad", "."),
)) + ")"


# ---------------------------------------------------------------------------
# Token parser


def parse(tokens: list[Token]) -> ExperimentSpec:
    """Build the AST by walking `_STATEMENTS` over the tokens; stops at the first
    syntax error (no recovery)."""
    spec = ExperimentSpec()
    i, n = 0, len(tokens)
    end = (tokens[-1].line, tokens[-1].column + len(tokens[-1].lexeme)) if tokens else (1, 1)

    def found(expected: str) -> ParseError:
        if i == n:
            return ParseError("found end of input", *end, expected=expected)
        tok = tokens[i]
        return ParseError(f"found {tok.lexeme!r}", tok.line, tok.column, expected=expected)

    def values(steps) -> list:
        nonlocal i
        out = []
        for step in steps:
            if isinstance(step, str):
                if i == n or tokens[i].lexeme != step:  # only a KEYWORD or PUNCT reads so
                    raise found(f"'{step}'")
                i += 1
            elif isinstance(step, _Value):
                if i == n or tokens[i].kind not in step.kinds:
                    raise found(step.label)
                try:
                    out.append(step.one(tokens[i].lexeme))
                except ValueError:  # e.g. beyond the interpreter's digit limit
                    raise ParseError(f"{step.label} literal out of range",
                                     *tokens[i][2:]) from None
                i += 1
            elif isinstance(step, list):
                items = [values([_OPEN, *step])]
                while i < n and tokens[i].lexeme == _SEP:
                    items.append(values([_SEP, *step]))
                values([_CLOSE])
                out.append(tuple(item[0] if len(step) == 1 else tuple(item) for item in items))
            else:
                key = tokens[i].lexeme if i < n and tokens[i].lexeme in step else None
                if key not in step:
                    keys = [f"'{key}'" for key in step]
                    raise found(" or ".join(filter(None, (", ".join(keys[:-1]), keys[-1]))))
                ctor, *alt = step[key]
                node = values(alt if key is None else [key, *alt])
                out.append(node[0] if ctor is None else ctor(*node))
        return out

    while i < n:
        if tokens[i].lexeme not in _STATEMENTS:
            raise found("a statement keyword")
        fields, word, ctor, steps = _STATEMENTS[tokens[i].lexeme]
        i += 1
        (name,) = values([_NAME])
        pos = tokens[i - 1][2:]  # the name's line and column
        if any(name in getattr(spec, f) for f in fields):
            raise ParseError(f"duplicate {word} name {name!r}", *pos)
        getattr(spec, fields[0])[name] = ctor(name, *values(steps), pos)
    return spec


# ---------------------------------------------------------------------------
# Statement path
#
# One match of `_STATEMENT_RE` per declaration, on text whose comments are blanked (`#`
# always starts one), so that a gap is the unambiguous `[ \t\r\n]*` and a failed match
# backtracks in linear time. Each value has a named group, and each way through a
# statement ends in a group of its own: `lastgroup` picks that way's form in `_FORMS`.
_G = r"[ \t\r\n]*"


def _literal(text: str) -> str:
    return re.escape(text) + _W * text.isalpha()


def _list(steps, group: str) -> tuple[str, Callable[[str], tuple]]:
    """The pattern of a list, its items' text in `group`, and the reader of that text.
    An item ends at a `,` that no `]` follows, or before the `]`."""
    def item(value) -> str:
        return _G.join(_literal(s) if isinstance(s, str) else value(s.pattern) for s in steps)

    sep, close = re.escape(_SEP), re.escape(_CLOSE)
    pattern = (rf"{re.escape(_OPEN)}(?P<{group}>(?:{_G}{item(str)}{_G}"
               rf"(?:{sep}(?!{_G}{close})|(?={close})))+){close}")
    if len(steps) == 1:
        return pattern, steps[0].read
    rows = re.compile(item("({})".format), re.ASCII).findall
    ones = [s.one for s in steps if not isinstance(s, str)]
    return pattern, lambda text: tuple(zip(*map(map, ones, zip(*rows(text)))))  # by column


def _compile(steps, groups) -> tuple[str, list[list]]:
    """The pattern of `steps` and a flat read plan for each way through their
    alternatives: (group, reader) appends the reading of a group's text, and
    (n, constructor) puts an alternative's node in place of its last n values."""
    parts, plans = [], [[]]
    for step in steps:
        if isinstance(step, str):
            parts.append(_literal(step))
        elif isinstance(step, dict):
            branches, ways = [], []
            for key, (ctor, *alt) in step.items():
                pattern, alt_plans = _compile(alt if key is None else [key, *alt], groups)
                branches.append(pattern)
                node = [(sum(not isinstance(s, str) for s in alt), ctor)] * (ctor is not None)
                ways += [plan + node for plan in alt_plans]
            parts.append(f"(?:{'|'.join(branches)})")
            plans = [plan + way for plan in plans for way in ways]
        else:
            group = f"g{next(groups)}"
            pattern, read = (_list(step, group) if isinstance(step, list)
                             else (f"(?P<{group}>{step.pattern})", step.one))
            parts.append(pattern)
            plans = [plan + [(group, read)] for plan in plans]
    return _G.join(parts), plans


def _statement_pattern() -> tuple[re.Pattern, dict]:
    """The statement pattern, and each way's form by its last group: the namespaces of
    the name, the constructor and the read plan, whose first group reads the name."""
    groups, patterns, forms = count(), [], {}
    for kw, (fields, _, ctor, steps) in _STATEMENTS.items():
        pattern, plans = _compile([kw, _NAME, *steps], groups)
        patterns.append(pattern)
        for plan in plans:
            forms[[g for g, _ in plan if isinstance(g, str)][-1]] = (fields, ctor, tuple(plan))
    return re.compile(f"(?:{'|'.join(patterns)}){_G}", re.ASCII), forms


_STATEMENT_RE, _FORMS = _statement_pattern()


def _parse_statements(source: str) -> ExperimentSpec | None:
    """The AST of `source`, read one declaration per match, or None for any input that
    `parse(tokenize(source))` must decide. On every input this accepts, that returns
    the same AST, down to positions and signed zeros."""
    if "#" in source:  # blanks of equal length keep every column
        source = re.sub(r"#[^\n]*", lambda c: " " * len(c[0]), source)
    spec = ExperimentSpec()
    forms = {last: ([getattr(spec, f) for f in fields], ctor, plan)
             for last, (fields, ctor, plan) in _FORMS.items()}
    match = _STATEMENT_RE.match
    pos, end = len(source) - len(source.lstrip(" \t\r\n")), len(source)
    # `line` is the line of offset `counted`, `line_start` the offset of the newline before it
    line, line_start, counted = 1, -1, 0
    try:
        while pos < end:
            m = match(source, pos)
            if m is None:
                return None
            namespaces, ctor, plan = forms[m.lastgroup]
            args: list = []
            for group, read in plan:
                if type(group) is int:
                    args[-group:] = (read(*args[-group:]),)
                else:
                    args.append(read(m[group]))
            if any(args[0] in names for names in namespaces):
                return None
            at = m.start(plan[0][0])
            line += source.count("\n", counted, at)
            line_start = max(line_start, source.rfind("\n", counted, at))
            counted, pos = at, m.end()
            namespaces[0][args[0]] = ctor(*args, (line, at - line_start))
    except ValueError:  # a keyword in a name slot, or an integer beyond the digit limit
        return None
    return spec


def parse_text(source: str) -> ExperimentSpec:
    """Parse EDL source. The statement path reads input the grammar accepts; on any
    other input the token path, `parse(tokenize(source))`, raises the ParseError."""
    spec = _parse_statements(source)
    return parse(tokenize(source)) if spec is None else spec


def parse_bytes(data: bytes) -> ExperimentSpec:
    """Decode UTF-8 and parse; decode failures become ParseErrors."""
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start].decode("utf-8")  # columns count characters
        line = prefix.count("\n") + 1
        col = len(prefix) - (prefix.rfind("\n") + 1) + 1
        raise ParseError("invalid UTF-8 byte", line, col) from None
    return parse_text(source)


# ---------------------------------------------------------------------------
# Pretty printer


_TIGHT_RE = re.compile(r" (?=[(),:;\]])|(?<=[(\[]) ")  # the blanks before `(),:;]`, after `([`


def _show(steps, values, out: list[str]) -> None:
    values = iter(values)
    for step in steps:
        if isinstance(step, str):
            out.append(step)
        elif isinstance(step, _Value):
            out.append(step.show(next(values)))
        elif isinstance(step, list):
            out.append(_OPEN)
            for k, item in enumerate(next(values)):
                out += [_SEP] * (k > 0)
                _show(step, (item,) if len(step) == 1 else item, out)
            out.append(_CLOSE)
        else:
            node = next(values)
            key = next((k for k, (ctor, *_) in step.items()
                        if ctor is not None and isinstance(node, ctor)), None)
            ctor, *alt = step[key]
            _show(alt if key is None else [key, *alt],
                  (node,) if ctor is None else vars(node).values(), out)


def pretty_print(spec: ExperimentSpec) -> str:
    """Canonical source text; reparsing yields a structurally equal AST."""
    lines: list[str] = []
    for kw, (fields, _, _, steps) in _STATEMENTS.items():
        for decl in getattr(spec, fields[0]).values():
            out: list[str] = []
            _show([kw, _NAME, *steps], list(vars(decl).values())[:-1], out)  # all but pos
            lines.append(_TIGHT_RE.sub("", " ".join(out)))
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
    # not cmath.isfinite: importing cmath maps one more extension module (56 kB of RSS)
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
        raise ElaborationError(f"non-finite value in {what}", *pos)


_T = TypeVar("_T")


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
            try:
                proj = Projector.coordinate(dim, pr.body.indices)
            except DimensionError as exc:
                raise ElaborationError(f"{exc} in projector {pr.name!r}", *pr.pos) from None
            if len(set(pr.body.indices)) != len(pr.body.indices):
                raise ElaborationError(f"repeated span index in projector {pr.name!r}", *pr.pos)
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
        try:  # before the slot names, so that a time is reported before a name
            support = TemporalSupport(tuple(times))
        except SupportError:
            raise ElaborationError(
                f"history {h.name!r} has non-increasing times {times}", *h.pos
            ) from None
        slot_projs = [_resolve(projectors, ref, "projector", h.pos) for _, ref in h.steps]
        histories[h.name] = HomogeneousHistory(support, tuple(slot_projs))

    orhistories: dict[str, InhomogeneousHistory] = {}
    for oh in spec.orhistories.values():
        branches = [_resolve(histories, ref, "history", oh.pos) for ref in oh.branches]
        try:
            orhistories[oh.name] = InhomogeneousHistory(tuple(branches))
        except SupportError as exc:
            first, other = (oh.branches[k] for k in exc.pair)
            raise ElaborationError(f"orhistory {oh.name!r}: branch {other!r} has a different"
                                   f" support than {first!r}", *oh.pos) from None
        except DisjointnessError as exc:
            i, j = (oh.branches[k] for k in exc.pair)
            raise ElaborationError(f"orhistory {oh.name!r}: branches {i!r} and {j!r} are not"
                                   " disjoint", *oh.pos) from None
        except DomainError as exc:
            raise ElaborationError(f"orhistory {oh.name!r}: {exc}", *oh.pos) from None

    return Experiment(
        spaces, states, state_spaces, projectors, projector_spaces, histories, orhistories
    )
