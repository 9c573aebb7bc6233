"""Text DSL for weight-update rules in sum-of-products form.

A rule is written ``dw = <expr>``, where expr is the subset of Python's
expression syntax (read by ``ast.parse``) made of constants, the variables
x0, x1, x2, y0, y1, y2, w, unary and binary ``+`` and ``-``, ``*`` and
parentheses; whitespace and line breaks only separate tokens. Everything
else Python accepts is refused: ``/``, ``**``, calls, attributes, strings,
comments, ``True``. A constant is ASCII digits with an optional point and
exponent (``2``, ``.5``, ``1e-3``, ``2.5E2``) and is read with ``float``;
``0x10``, ``1_0`` and ``1j`` are refused, and, as in Python, so is an
integer with a leading zero (``082526``). A unary ``+`` may stand wherever a
unary ``-`` may, also after an operator (``x1 * +x2``).

Parsing canonicalizes: products are distributed over sums, constants are
folded, factors are sorted within each product, like products are combined,
and products are ordered by factor names then constant. Two texts denoting
the same polynomial therefore parse to an identical rule, and the
pretty-printed form re-parses to itself.

``RuleError.pos`` indexes the character at fault in the rule text: the start
of the text lacking ``dw =``, of an unknown name, a non-finite constant or a
refused subexpression, or where Python's parser stopped (the end of a text
that ends early). It is None when nesting is too deep or folding overflows.

The variable names follow the hardware learning-engine convention: x* are
pre-synaptic quantities (x0 = spike this step, x1/x2 = traces), y* are
post-synaptic, w is the current effective weight.
"""

from __future__ import annotations

import ast
import math
import re
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
        text = ""
        for prod in self.products:
            c = prod.constant
            pieces = [_fmt(abs(c))] if abs(c) != 1.0 or not prod.factors else []
            text += (" - " if c < 0 else " + ") + "*".join(pieces + [f.name for f in prod.factors])
        return "dw = " + (text[3:] if text.startswith(" + ") else "-" + text[3:])


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# --- the expression, read by Python's parser and distributed into terms ------

_HEAD = re.compile(r"\s*dw\s*=\s*")
_NUMBER_CHARS = frozenset("0123456789.eE+-")  # the sign of an exponent
# a comment, and characters that Python cannot read as source at all
_UNREADABLE = re.compile("[#\x00\ud800-\udfff]")

_Terms = list[tuple[float, tuple[str, ...]]]


def _scale(terms: _Terms, c: float) -> _Terms:
    return [(c * tc, tf) for tc, tf in terms]


def _cross(a: _Terms, b: _Terms) -> _Terms:
    return [(ca * cb, fa + fb) for ca, fa in a for cb, fb in b]


def parse_rule(text: str) -> SumOfProductsRule:
    """Parse rule text into its canonical sum-of-products form."""
    if not text or not text.strip():
        raise RuleError("empty rule")
    head = _HEAD.match(text)
    if head is None:
        raise RuleError("rule must start with 'dw ='", len(text) - len(text.lstrip()))
    start = head.end()
    # one space per whitespace character keeps every column and joins a rule split over lines
    body = re.sub(r"\s", " ", text[start:])
    if bad := _UNREADABLE.search(body):
        raise RuleError(f"unexpected character {bad.group()!r}", start + bad.start())
    try:
        terms = _terms(ast.parse(body, mode="eval").body, body, start)
    except SyntaxError as e:  # offset counts characters from 1; none, or a later line, is the end
        col = e.offset - 1 if e.lineno == 1 and e.offset else len(body)
        raise RuleError(e.msg, min(start + col, len(text))) from None
    except (RecursionError, MemoryError):  # the depth limits of the walk and of Python's parser, by version
        raise RuleError("rule nests too deeply") from None
    return _canonicalize(terms)


def _terms(root: ast.expr, body: str, start: int) -> _Terms:
    """The products of an expression parsed from ``body``, which sits at ``start`` in the rule text."""
    encoded = body.encode()  # node columns count UTF-8 bytes

    def refuse(message: str, node: ast.expr):
        raise RuleError(message, start + len(encoded[:node.col_offset].decode()))

    def walk(node: ast.expr) -> _Terms:
        # a chain of sums and products is a left spine of BinOps: loop down it
        spine = []
        while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            spine.append(node)
            node = node.left
        terms = operand(node)
        for op in reversed(spine):
            right = walk(op.right)
            if isinstance(op.op, ast.Mult):
                terms = _cross(terms, right)
            else:
                terms.extend(_scale(right, -1.0) if isinstance(op.op, ast.Sub) else right)
        return terms

    def operand(node: ast.expr) -> _Terms:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = walk(node.operand)
            return _scale(inner, -1.0) if isinstance(node.op, ast.USub) else inner
        source = encoded[node.col_offset:node.end_col_offset].decode()
        if isinstance(node, ast.Name):
            if source not in RULE_VARS:  # the spelling, since Python folds a fullwidth x1 to x1
                refuse(f"unknown variable {source!r}", node)
            return [(1.0, (source,))]
        if isinstance(node, ast.Constant) and type(node.value) in (int, float) and _NUMBER_CHARS.issuperset(source):
            value = float(source)
            if not math.isfinite(value):
                refuse(f"non-finite number {source!r}", node)
            return [(value, ())]
        refuse(f"expected a constant, variable, +, -, * or parentheses, got {source!r}", node)

    return walk(root)


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

