"""Text DSL for weight-update rules in sum-of-products form.

A rule is written as ``dw = <expr>`` where expr is built from numeric
constants, the trace/state variables x0, x1, x2, y0, y1, y2, w, products,
sums and parentheses:

    rule   := "dw" "=" expr
    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := const | var | "-" factor | "(" expr ")"

Parsing canonicalizes: products are distributed over sums, constants are
folded, factors are sorted within each product, like products are combined,
and products are ordered by factor names then constant. Two texts denoting
the same polynomial therefore parse to an identical rule, and the
pretty-printed form re-parses to itself.

The variable names follow the hardware learning-engine convention: x* are
pre-synaptic quantities (x0 = spike this step, x1/x2 = traces), y* are
post-synaptic, w is the current effective weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RULE_VARS = ("x0", "x1", "x2", "y0", "y1", "y2", "w")


class RuleError(ValueError):
    """Malformed rule text; carries the character position when known."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


@dataclass(frozen=True)
class Factor:
    """One multiplicand: a variable."""

    name: str

    def __post_init__(self):
        if self.name not in RULE_VARS:
            raise RuleError(f"unknown variable {self.name!r}")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Product:
    """constant * factor * factor * ..."""

    constant: float
    factors: tuple[Factor, ...] = ()


@dataclass(frozen=True)
class SumOfProductsRule:
    """Canonical weight-update rule: dw = sum_k C_k * prod_l F_kl."""

    products: tuple[Product, ...]

    def __post_init__(self):
        if not self.products:
            raise RuleError("rule must contain at least one product term")

    @property
    def variables(self) -> frozenset[str]:
        """The names of the variables the rule reads."""
        return frozenset(f.name for prod in self.products for f in prod.factors)

    def pretty(self) -> str:
        """Render back to rule text; re-parsing yields an identical rule."""
        parts = []
        for k, prod in enumerate(self.products):
            c = prod.constant
            sign = "-" if c < 0 else "+"
            pieces = []
            if abs(c) != 1.0 or not prod.factors:
                pieces.append(_fmt(abs(c)))
            pieces.extend(str(f) for f in prod.factors)
            term = "*".join(pieces)
            if k == 0:
                parts.append(term if sign == "+" else f"-{term}")
            else:
                parts.append(f" {sign} {term}")
        return "dw = " + "".join(parts)


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# --- tokenizer -------------------------------------------------------------

_PUNCT = set("+-*()=")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Yield (kind, value, pos) with kind in {num, name, punct}."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            toks.append(("punct", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise RuleError(f"bad number {text[i:j]!r}", i)
            if not math.isfinite(value):
                raise RuleError(f"non-finite number {text[i:j]!r}", i)
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise RuleError(f"unexpected character {ch!r}", i)
    return toks


# --- recursive-descent parser producing distributed term lists --------------

_Terms = list[tuple[float, tuple[str, ...]]]


class _Parser:
    def __init__(self, toks: list[tuple[str, str, int]], text_len: int):
        self.toks = toks
        self.i = 0
        self.end = text_len

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.end)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_punct(self, value: str):
        kind, val, pos = self.take()
        if kind != "punct" or val != value:
            raise RuleError(f"expected {value!r}", pos)

    def parse_expr(self) -> _Terms:
        sign = 1.0
        kind, val, _ = self.peek()
        if kind == "punct" and val in "+-":
            self.take()
            sign = -1.0 if val == "-" else 1.0
        terms = _scale(self.parse_term(), sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "punct" and val in "+-":
                self.take()
                nxt = self.parse_term()
                terms.extend(_scale(nxt, -1.0 if val == "-" else 1.0))
            else:
                return terms

    def parse_term(self) -> _Terms:
        terms = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "punct" and val == "*":
                self.take()
                terms = _cross(terms, self.parse_factor())
            else:
                return terms

    def parse_factor(self) -> _Terms:
        kind, val, pos = self.take()
        if kind == "punct" and val == "-":
            return _scale(self.parse_factor(), -1.0)
        if kind == "num":
            return [(float(val), ())]
        if kind == "name":
            if val not in RULE_VARS:
                raise RuleError(f"unknown variable {val!r}", pos)
            return [(1.0, (val,))]
        if kind == "punct" and val == "(":
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        raise RuleError("expected a constant, variable or parenthesized expression", pos)


def _scale(terms: _Terms, c: float) -> _Terms:
    return [(c * tc, tf) for tc, tf in terms]


def _cross(a: _Terms, b: _Terms) -> _Terms:
    return [(ca * cb, fa + fb) for ca, fa in a for cb, fb in b]


def parse_rule(text: str) -> SumOfProductsRule:
    """Parse rule text into its canonical sum-of-products form."""
    if not text or not text.strip():
        raise RuleError("empty rule")
    toks = _tokenize(text)
    if len(toks) < 2 or toks[0][:2] != ("name", "dw") or toks[1][:2] != ("punct", "="):
        raise RuleError("rule must start with 'dw ='", toks[0][2] if toks else 0)
    parser = _Parser(toks[2:], len(text))
    try:
        terms = parser.parse_expr()
    except RecursionError:  # each nested parenthesis or unary minus is a level of the descent
        raise RuleError("rule nests too deeply") from None
    kind, _, pos = parser.peek()
    if kind is not None:
        raise RuleError("trailing input after expression", pos)
    return _canonicalize(terms)


def _canonicalize(terms: _Terms) -> SumOfProductsRule:
    combined: dict[tuple[str, ...], float] = {}
    for c, factors in terms:
        key = tuple(sorted(factors))
        combined[key] = combined.get(key, 0.0) + c
    if not all(math.isfinite(c) for c in combined.values()):
        raise RuleError("constant folding overflows to a non-finite coefficient")
    products = [
        Product(constant=c, factors=tuple(Factor(n) for n in key))
        for key, c in combined.items()
        if c != 0.0
    ]
    if not products:
        products = [Product(constant=0.0)]
    products.sort(key=lambda p: (tuple(f.name for f in p.factors), p.constant))
    return SumOfProductsRule(products=tuple(products))

