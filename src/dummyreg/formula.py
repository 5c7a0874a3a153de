"""Model-formula mini-language: tokenizer, parser, pretty-printer.

Grammar (whitespace-insensitive)::

    formula  := ident "~" termexpr
    termexpr := ["0" "+"] term {"+" term}
    term     := factor {(":" | "*") factor}
    factor   := ident
              | "log" "(" ident ")"
              | "center" "(" (ident | "log" "(" ident ")") "," "at" "=" const ")"
              | "cat" "(" ident {"," ("ref" | "scheme") "=" string} ")"
    const    := number | "log" "(" number ")"

``a:b`` denotes only the product term. ``a*b`` is sugar for
``a + b + a:b``; chains expand left-associatively, so ``a*b*c`` yields
all seven non-empty subsets. Duplicate terms after expansion are merged,
and interaction factors are normalised to first-appearance order, which
makes ``a:b`` and ``b:a`` the same term.

The intercept is implicit. A leading ``0 +`` parses (the flag is carried
on the AST) but model building rejects it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError, IllegalCharacter, UnknownFunction

SCHEMES = ("treatment", "effect", "weighted")

_FUNCS = ("log", "center", "cat")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "string" | one of "~ + : * ( ) , ="
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<string>"[^"]*")
      | (?P<sym>[~+:*(),=])
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Split formula text into tokens, tracking character offsets."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise IllegalCharacter(pos, source[pos])
        if m.lastgroup != "ws":
            kind = m.lastgroup
            assert kind is not None
            text = m.group()
            if kind == "sym":
                kind = text
            tokens.append(Token(kind, text, pos))
        pos = m.end()
    return tokens


def format_number(x: float) -> str:
    """Shortest exact spelling of a number; integers drop the ".0".

    Also the canonical level name of a numeric value read as a category.
    """
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass(frozen=True)
class ConstExpr:
    """Closed-form constant: a number, or the natural log of one.

    The unevaluated form is kept so that e.g. ``at=log(18)`` survives a
    print/parse round trip instead of collapsing to a rounded literal.
    """

    base: float
    logged: bool = False

    @property
    def value(self) -> float:
        return math.log(self.base) if self.logged else self.base

    def __str__(self) -> str:
        text = format_number(self.base)
        return f"log({text})" if self.logged else text


@dataclass(frozen=True)
class VarRef:
    """A variable occurrence, possibly wrapped in transforms.

    ``log``/``center`` apply to numeric columns (log first, then
    centering). ``categorical`` marks a ``cat(...)`` wrapper, optionally
    overriding the reference level and/or contrast scheme.
    """

    name: str
    log: bool = False
    center: ConstExpr | None = None
    categorical: bool = False
    ref_level: str | None = None
    scheme: str | None = None


@dataclass(frozen=True)
class Term:
    """One model term: empty factors = intercept, one = main effect,
    two or more = interaction."""

    factors: tuple[VarRef, ...] = ()

    @property
    def kind(self) -> str:
        if not self.factors:
            return "intercept"
        return "main" if len(self.factors) == 1 else "interaction"


INTERCEPT = Term()


@dataclass(frozen=True)
class FormulaAst:
    response: str
    terms: tuple[Term, ...]

    @property
    def intercept(self) -> bool:
        return INTERCEPT in self.terms

    def variables(self) -> list[str]:
        """Predictor names in first-appearance order (response excluded)."""
        seen: dict[str, None] = {}
        for term in self.terms:
            for ref in term.factors:
                seen.setdefault(ref.name, None)
        return list(seen)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> Token:
        """The token that _peek() has just returned, consumed."""
        self.i += 1
        return self.tokens[self.i - 1]

    def _expect(self, kind: str, expected: str) -> Token:
        tok = self._peek()
        if tok is None or tok.kind != kind:
            pos = tok.pos if tok is not None else self._end_pos()
            raise FormulaSyntaxError(pos, (expected,))
        self.i += 1
        return tok

    def _end_pos(self) -> int:
        if not self.tokens:
            return 0
        last = self.tokens[-1]
        return last.pos + len(last.text)

    # --- grammar ------------------------------------------------------

    def parse(self) -> FormulaAst:
        response = self._expect("ident", "response identifier")
        self._expect("~", "'~'")

        intercept = True
        tok = self._peek()
        if tok is not None and tok.kind == "number" and tok.text == "0":
            self._next()
            self._expect("+", "'+'")
            intercept = False

        combos: list[tuple[VarRef, ...]] = []
        while True:
            combos.extend(self._term())
            tok = self._peek()
            if tok is None:
                break
            if tok.kind == "+":
                self._next()
                continue
            raise FormulaSyntaxError(tok.pos, ("'+'", "end of formula"))

        # Canonical factor order: rank variables by first appearance in
        # the expanded term list. Ranking off the final list (not token
        # positions) makes parse(print(ast)) a fixed point even when a
        # crossing chain reorders the expansion.
        rank: dict[str, int] = {}
        for combo in combos:
            for ref in combo:
                rank.setdefault(ref.name, len(rank))
        terms: dict[Term, None] = {}
        for combo in combos:
            ordered = tuple(sorted(combo, key=lambda r: rank[r.name]))
            terms.setdefault(Term(ordered), None)

        for term in terms:
            for ref in term.factors:
                if ref.name == response.text:
                    raise FormulaSyntaxError(
                        response.pos,
                        message=f"response {response.text!r} also appears as a predictor",
                    )

        all_terms = ([INTERCEPT] if intercept else []) + list(terms)
        return FormulaAst(response.text, tuple(all_terms))

    def _term(self) -> list[tuple[VarRef, ...]]:
        combos: list[tuple[VarRef, ...]] = [(self._factor(),)]
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in (":", "*"):
                break
            op = self._next()
            f = self._factor()
            if op.kind == ":":
                combos = [_extend(c, f) for c in combos]
            else:
                combos = combos + [(f,)] + [_extend(c, f) for c in combos]
        return combos

    def _factor(self) -> VarRef:
        tok = self._expect("ident", "identifier")
        nxt = self._peek()
        if nxt is not None and nxt.kind == "(":
            if tok.text not in _FUNCS:
                raise UnknownFunction(tok.text, tok.pos)
            if tok.text == "log":
                ref = self._log_factor()
            elif tok.text == "center":
                ref = self._center_factor()
            else:
                ref = self._cat_factor()
        else:
            ref = VarRef(tok.text)
        return ref

    def _log_factor(self) -> VarRef:
        self._expect("(", "'('")
        name = self._expect("ident", "identifier")
        self._expect(")", "')'")
        return VarRef(name.text, log=True)

    def _center_factor(self) -> VarRef:
        self._expect("(", "'('")
        inner = self._expect("ident", "identifier")
        logged = False
        nxt = self._peek()
        if inner.text == "log" and nxt is not None and nxt.kind == "(":
            self._next()
            inner = self._expect("ident", "identifier")
            self._expect(")", "')'")
            logged = True
        self._expect(",", "','")
        kw = self._expect("ident", "'at='")
        if kw.text != "at":
            raise FormulaSyntaxError(kw.pos, ("'at='",))
        self._expect("=", "'='")
        const = self._const()
        self._expect(")", "')'")
        return VarRef(inner.text, log=logged, center=const)

    def _cat_factor(self) -> VarRef:
        self._expect("(", "'('")
        name = self._expect("ident", "identifier")
        ref_level: str | None = None
        scheme: str | None = None
        while True:
            tok = self._peek()
            if tok is None or tok.kind != ",":
                break
            self._next()
            kw = self._expect("ident", "'ref' or 'scheme'")
            if kw.text not in ("ref", "scheme"):
                raise FormulaSyntaxError(kw.pos, ("'ref'", "'scheme'"))
            self._expect("=", "'='")
            val = self._expect("string", "quoted string")
            text = val.text[1:-1]
            if kw.text == "ref":
                ref_level = text
            else:
                if text not in SCHEMES:
                    raise FormulaSyntaxError(val.pos, tuple(repr(s) for s in SCHEMES))
                scheme = text
        self._expect(")", "')'")
        return VarRef(name.text, categorical=True, ref_level=ref_level, scheme=scheme)

    def _const(self) -> ConstExpr:
        tok = self._peek()
        if tok is not None and tok.kind == "number":
            self._next()
            return ConstExpr(float(tok.text))
        if tok is not None and tok.kind == "ident" and tok.text == "log":
            self._next()
            self._expect("(", "'('")
            num = self._expect("number", "number")
            self._expect(")", "')'")
            return ConstExpr(float(num.text), logged=True)
        pos = tok.pos if tok is not None else self._end_pos()
        raise FormulaSyntaxError(pos, ("number", "log(number)"))


def _extend(combo: tuple[VarRef, ...], f: VarRef) -> tuple[VarRef, ...]:
    return combo if f in combo else combo + (f,)


def parse(tokens: list[Token]) -> FormulaAst:
    """Parse a token sequence into an expanded, deduplicated AST."""
    return _Parser(list(tokens)).parse()


def parse_formula(source: str) -> FormulaAst:
    """Convenience wrapper: tokenize and parse in one step."""
    return parse(tokenize(source))


# --- pretty-printer ---------------------------------------------------

def format_ref(ref: VarRef) -> str:
    if ref.categorical:
        args = [ref.name]
        if ref.ref_level is not None:
            args.append(f'ref="{ref.ref_level}"')
        if ref.scheme is not None:
            args.append(f'scheme="{ref.scheme}"')
        return "cat(" + ", ".join(args) + ")"
    inner = f"log({ref.name})" if ref.log else ref.name
    if ref.center is not None:
        return f"center({inner}, at={ref.center})"
    return inner


def format_term(term: Term) -> str:
    if term.kind == "intercept":
        return "(intercept)"
    return ":".join(format_ref(r) for r in term.factors)


def unparse(ast: FormulaAst) -> str:
    """Print an AST back to formula text (expanded form, ``:`` only)."""
    parts = [format_term(t) for t in ast.terms if t.kind != "intercept"]
    rhs = " + ".join(parts)
    if not ast.intercept:
        rhs = "0 + " + rhs
    return f"{ast.response} ~ {rhs}"
