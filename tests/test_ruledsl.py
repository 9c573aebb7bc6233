"""Rule DSL: parsing, canonicalization, evaluation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeshot.ruledsl import (
    RULE_VARS,
    Factor,
    Product,
    RuleError,
    SumOfProductsRule,
    parse_rule,
)

from oracle import evaluate_rule

GOLDEN_TEXT = "dw = 2*y1*(x2 - x1) + 2*x1 - 2*x2"


def as_pairs(rule):
    return {(tuple(f.name for f in p.factors), p.constant) for p in rule.products}


def test_golden_rule_canonicalizes_to_four_products():
    rule = parse_rule(GOLDEN_TEXT)
    assert len(rule.products) == 4
    assert as_pairs(rule) == {
        (("x2", "y1"), 2.0),
        (("x1", "y1"), -2.0),
        (("x1",), 2.0),
        (("x2",), -2.0),
    }


def test_golden_rule_is_scaled_error_times_psp():
    # the canonical form factors as 2*(x2-x1)*(y1-1)
    rule = parse_rule(GOLDEN_TEXT)
    for x1, x2, y1 in [(0.1, 0.5, 2.0), (0.3, 0.3, 4.0), (0.0, 1.0, 0.5)]:
        val = evaluate_rule(rule, {"x0": 0, "x1": x1, "x2": x2, "y0": 0, "y1": y1, "y2": 0, "w": 0})
        assert val == pytest.approx(2 * (x2 - x1) * (y1 - 1), abs=1e-12)


def test_single_variable():
    rule = parse_rule("dw = x1")
    assert rule.products == (Product(constant=1.0, factors=(Factor("x1"),)),)


def test_reordered_products_identical():
    assert parse_rule("dw = 3*(x1)*(y1)") == parse_rule("dw = y1*3*x1")


def test_pretty_roundtrip():
    texts = [
        GOLDEN_TEXT,
        "dw = x1",
        "dw = -4*(y1*(x2 - x1) + 0.82526*(x1 - x2))",
        "dw = w*x0*y0 - 0.5*w",
        "dw = 2*(x1 + x2)*(y1 - y2)",
        "dw = 0",
        "dw = x1 - x1",
    ]
    for text in texts:
        rule = parse_rule(text)
        assert parse_rule(rule.pretty()) == rule


# drawn as in test_training.py: round and arbitrary constants, products of up
# to three variables in any order, repeats allowed, constant-only products
CONSTANTS = st.sampled_from([1.0, -1.0, 0.5, 2.0]) | st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
PRODUCTS = st.lists(st.tuples(CONSTANTS, st.lists(st.sampled_from(RULE_VARS), max_size=3)), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(products=PRODUCTS)
def test_pretty_roundtrip_property(products):
    drawn = SumOfProductsRule(products=tuple(
        Product(constant=c, factors=tuple(Factor(name) for name in names)) for c, names in products
    ))
    rule = parse_rule(drawn.pretty())  # canonical, as parse_rule returns every rule
    assert parse_rule(rule.pretty()) == rule


def test_cancellation_yields_zero_rule():
    rule = parse_rule("dw = x1 - x1")
    assert rule.products == (Product(constant=0.0, factors=()),)
    assert evaluate_rule(rule, {"x1": 5.0}) == 0.0


def test_unary_minus_and_signed_constants():
    rule = parse_rule("dw = -2*x1 + -x2")
    assert as_pairs(rule) == {(("x1",), -2.0), (("x2",), -1.0)}


def test_scientific_notation_constants():
    rule = parse_rule("dw = 1e-3*x1 + 2.5E2*y1")
    assert as_pairs(rule) == {(("x1",), 1e-3), (("y1",), 250.0)}


def test_errors_report_position():
    with pytest.raises(RuleError) as exc:
        parse_rule("dw = x1 + (x2")
    assert exc.value.pos is not None
    with pytest.raises(RuleError):
        parse_rule("dw = x1 *")
    with pytest.raises(RuleError, match="unknown variable"):
        parse_rule("dw = z9")
    with pytest.raises(RuleError, match="empty"):
        parse_rule("   ")
    with pytest.raises(RuleError, match="dw"):
        parse_rule("x1 + x2")
    with pytest.raises(RuleError) as exc:
        parse_rule("dw = x1 x2")
    assert 0 <= exc.value.pos <= len("dw = x1 x2")


def test_non_finite_constants_rejected():
    with pytest.raises(RuleError, match="non-finite") as exc:
        parse_rule("dw = 1e400*x1*y1")
    assert exc.value.pos == 5
    with pytest.raises(RuleError, match="non-finite"):
        parse_rule("dw = 1e200*1e200*x1")
    with pytest.raises(RuleError, match="non-finite"):
        parse_rule("dw = 1e308*x1 + 1e308*x1")


# Python's parser refuses the parentheses itself, in words of its own that speak of nesting;
# the chain of signs parses, and the walk over it runs out of depth
@pytest.mark.parametrize("text, pattern", [("dw = " + "(" * 400 + "x1" + ")" * 400, "nest"),
                                           ("dw = " + "-" * 2000 + "x1", "nests too deeply")],
                         ids=["400-parentheses", "2000-unary-minus"])
def test_deep_nesting_is_rule_error(text, pattern):
    with pytest.raises(RuleError, match=pattern):
        parse_rule(text)


def test_rule_may_span_lines():
    assert parse_rule("dw = 2*y1*(x2 - x1)\n  + 2*x1\r\n\t- 2*x2\n") == parse_rule(GOLDEN_TEXT)
    assert parse_rule("\ndw\n=\nx1") == parse_rule("dw = x1")


def test_unary_plus_may_follow_an_operator():
    assert parse_rule("dw = x1 * +x2 - +y1 + ++w") == parse_rule("dw = x1*x2 - y1 + w")


def test_leading_zero_integer_is_refused_as_in_python():
    with pytest.raises(RuleError) as exc:
        parse_rule("dw = 082526*x1")
    assert exc.value.pos == 5
    assert parse_rule("dw = 082526.0*x1") == parse_rule("dw = 82526*x1")
    assert parse_rule("dw = 00*x1 + 0.5") == parse_rule("dw = 0.5")


@pytest.mark.parametrize("operand", ["0x10", "1_0", "1j", "True", "x1/2", "x1**2", "f(x1)", "x1.real", '"a"', "ｘ１"])
def test_python_only_spellings_refused_at_their_node(operand):
    with pytest.raises(RuleError) as exc:
        parse_rule(f"dw = y1 + {operand}")
    assert exc.value.pos == len("dw = y1 + ")


def test_comment_refused_at_the_hash():
    with pytest.raises(RuleError) as exc:
        parse_rule("dw = x1 # c")
    assert exc.value.pos == len("dw = x1 ")


# the DSL's characters, Python-only tokens, and characters that Python's tokenizer treats apart; a
# command-line byte that is not UTF-8 arrives as a lone surrogate
RULE_TEXT_TOKENS = st.sampled_from([
    *RULE_VARS, "0", "1", "2.5", "1e-3", "3E2", ".", "e", "dw", "=", "+", "-", "*", "(", ")", " ", "\n", "\t",
    "/", "**", "#", "0x", "_", "j", "'", '"', "[", "]", ",", "\\", "\x00", "\x85", "\u2028", "é", "ｘ", "\udcff",
])
RULE_TEXTS = st.one_of(
    st.lists(RULE_TEXT_TOKENS, max_size=30).map("".join),
    st.lists(RULE_TEXT_TOKENS, max_size=30).map(lambda tokens: "dw = " + "".join(tokens)),
    st.integers(0, 600).map(lambda n: "dw = " + "(" * n + "x1" + ")" * n),
    st.integers(0, 8000).map(lambda n: "dw = " + "-" * n + "x1"),  # past the parser's own stack at ~6000
    st.just("dw = " + " + ".join(["2*x1*y1"] * 2000)),
)


@settings(max_examples=500, deadline=None)
@given(text=RULE_TEXTS)
def test_any_text_gives_a_rule_or_a_rule_error(text):
    try:
        rule = parse_rule(text)
    except RuleError as e:
        assert e.pos is None or 0 <= e.pos <= len(text)
    else:
        assert parse_rule(rule.pretty()) == rule


def test_rule_must_have_products():
    with pytest.raises(RuleError):
        SumOfProductsRule(products=())


def test_evaluation_examples():
    rule = SumOfProductsRule(products=(Product(constant=2.0, factors=(Factor("y1"), Factor("x1"))),))
    assert evaluate_rule(rule, {"x1": 3.0, "y1": 4.0}) == pytest.approx(24.0)


def _random_expr(rng, depth=0):
    """Small random expression over the DSL grammar."""
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        if rng.random() < 0.4:
            return f"{rng.choice([1, 2, 3, 0.5, 1.5, 2.5]):g}"
        return rng.choice(["x0", "x1", "x2", "y0", "y1", "y2", "w"])
    if roll < 0.6:
        return f"{_random_expr(rng, depth + 1)}*{_random_expr(rng, depth + 1)}"
    if roll < 0.85:
        op = rng.choice(["+", "-"])
        return f"({_random_expr(rng, depth + 1)} {op} {_random_expr(rng, depth + 1)})"
    return f"-{_random_expr(rng, depth + 1)}"


class _Rng:
    def __init__(self, seed):
        self._r = random.Random(seed)

    def random(self):
        return self._r.random()

    def choice(self, xs):
        return self._r.choice(xs)


def test_distribution_equivalence_200_random_expressions():
    # parse(expr) must evaluate identically to the expression itself under
    # random variable bindings: distribution over sums preserves value
    rng = _Rng(1234)
    vrng = random.Random(99)
    for _ in range(200):
        text = f"dw = {_random_expr(rng)}"
        rule = parse_rule(text)
        for _ in range(5):
            env = {v: vrng.uniform(-2, 2) for v in ("x0", "x1", "x2", "y0", "y1", "y2", "w")}
            direct = eval(text.split("=", 1)[1], {"__builtins__": {}}, dict(env))
            assert evaluate_rule(rule, env) == pytest.approx(direct, abs=1e-12, rel=1e-9)


def test_distribute_product_over_sum_identity():
    a = parse_rule("dw = x1*(y1 + y2)")
    b = parse_rule("dw = x1*y1 + x1*y2")
    assert a == b
