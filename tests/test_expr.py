import ast
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermoform.expr import (
    Bin,
    BindError,
    Call,
    DomainError,
    Expression,
    ExprError,
    Neg,
    Num,
    ParseError,
    ScalarField,
    Var,
    add,
    differentiate,
    div,
    evaluate,
    evaluate_all,
    grad,
    grad_columns,
    hessian,
    lower,
    mul,
    neg,
    parse,
    serialize,
    sub,
)
from thermoform import expr as _expr
from thermoform.geometry import (OneForm, d_residual, is_closed, low_discrepancy_samples, potential_form,
                                 worst_residual)
from thermoform.point import (BASE_COORDS, FE_COORDS, Constitutive, entropy_form,
                              potential_coefficients)
from thermoform.expr import _lowered, _second_order, _slots
from conftest import fd_grad, fd_hessian, random_polynomial_text

VDW_TEXT = "(V-0.1)^(2/3)*exp(S/1.5) - 1/V"


class TestParse:
    def test_literal_arithmetic(self):
        assert evaluate(parse("2*x + 3"), {"x": 1.0}) == 5.0

    def test_vdw_parses_and_evaluates(self):
        e = parse(VDW_TEXT)
        # oracle: direct evaluation of the constitutive law with a=1, b=0.1, R=1, c_V=1.5
        expected = 0.9 ** (2.0 / 3.0) * math.exp(0.0) - 1.0
        assert evaluate(e, {"S": 0.0, "V": 1.0}) == pytest.approx(expected, abs=1e-15)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x + * y")
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("sin(x)")

    def test_precedence(self):
        assert evaluate(parse("2+3*4"), {}) == 14.0
        assert evaluate(parse("-2^2"), {}) == -4.0  # unary minus binds looser than power
        assert evaluate(parse("2^3^2"), {}) == 512.0  # right-associative
        assert evaluate(parse("2^-1"), {}) == 0.5

    def test_whitespace_insensitive(self):
        assert parse(" 2 * x + 3 ") == parse("2*x+3")

    def test_overflowing_literal_is_a_parse_error(self):
        # it used to become Num(inf), which serialize could not print
        with pytest.raises(ParseError, match="number '1e999' overflows a float") as err:
            parse("x + 1e999")
        assert err.value.offset == 4

    @pytest.mark.parametrize("text, message", [
        ("1.2.3", "malformed number '1.2.3' at offset 0"),
        ("x $ y", "unexpected character '$' at offset 2"),
        ("(x", "unexpected token at offset 2 (expected ')')"),
        ("x y", "trailing input at offset 2 (expected end of input)"),
        ("pow(x)", "function 'pow' takes 2 argument(s), got 1 at offset 0"),
    ], ids=["malformed-number", "bad-character", "unclosed-parenthesis", "trailing-input",
            "arity"])
    def test_syntax_errors_are_worded(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("use", [
        lambda e: evaluate(e, {"x": 1.0}),
        lambda e: differentiate(e, "x"),
    ], ids=["lower", "differentiate"])
    def test_hand_built_unknown_function(self, use):
        # parse rejects the name, so only a hand-built tree reaches the lowering and differentiate
        with pytest.raises(ExprError) as err:
            use(Call("foo", (Var("x"),)))
        assert type(err.value) is ExprError
        assert str(err.value) == "unknown function 'foo'"


class TestEval:
    def test_division_by_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/V"), {"V": 0.0})

    def test_ln_of_nonpositive(self):
        with pytest.raises(DomainError):
            evaluate(parse("ln(x)"), {"x": -1.0})

    def test_noninteger_power_of_negative_base(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^(1/3)"), {"x": -8.0})

    def test_integer_power_of_negative_base(self):
        assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0

    def test_unbound_coordinate(self):
        with pytest.raises(BindError, match="unbound"):
            evaluate(parse("x+y"), {"x": 1.0})

    def test_domain_error_names_subexpression(self):
        with pytest.raises(DomainError, match="1/V"):
            evaluate(parse("2 + 1/V"), {"V": 0.0})

    @pytest.mark.parametrize("text,x", [("exp(x)", 1000.0), ("x^500", 1e10)])
    def test_overflow_is_domain_error(self, text, x):
        e = parse(text)
        with pytest.raises(DomainError, match=f"overflow in '{re.escape(text)}'"):
            evaluate(e, {"x": x})
        with pytest.raises(DomainError, match=f"overflow in '{re.escape(text)}'"):
            grad(e, {"x": x}, ["x"])

    def test_non_finite_value_is_domain_error(self):
        # a float product overflows to inf without raising; the value used to be returned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"non-finite result in 'x\*1e\+308\*10' \(value inf\)"):
                evaluate(parse("x*1e308*10"), {"x": 1.0})
            with pytest.raises(DomainError, match=r"non-finite result .*\(value nan\)"):
                evaluate(parse("x*1e308*10 - x*1e308*10"), {"x": 1.0})

    @pytest.mark.parametrize("text", ["x^(1e308*10-1e308*10)", "pow(x, 1e308*10-1e308*10)"])
    def test_nan_exponent_is_domain_error(self, text):
        # round(nan) raised ValueError from the constant-exponent branch
        e = parse(text)
        for sweep in (lambda: evaluate(e, {"x": 2.0}), lambda: grad(e, {"x": 2.0}, ["x"]),
                      lambda: hessian(e, {"x": 2.0}, ["x"])):
            with pytest.raises(DomainError, match=rf"^NaN exponent in '{re.escape(serialize(e))}'"):
                sweep()

    def test_sqrt_at_zero_has_a_value_but_no_derivative(self):
        e = parse("sqrt(x)")
        assert evaluate(e, {"x": 0.0}) == 0.0
        with pytest.raises(DomainError, match="not differentiable at zero"):
            grad(e, {"x": 0.0}, ["x"])

    def test_deep_sum_has_no_recursion_limit(self):
        # 3000 terms parse to a left-leaning chain 3000 nodes deep
        n = 3000
        f = ScalarField.from_text(" + ".join(f"{k}*x*y" for k in range(1, n + 1)), ["x", "y"])
        c = n * (n + 1) // 2
        b = {"x": 1.5, "y": 2.0}
        assert f.value(b) == c * 3.0
        assert f.grad(b) == pytest.approx([c * 2.0, c * 1.5], rel=1e-12)
        assert f.hessian(b) == pytest.approx(np.array([[0.0, c], [c, 0.0]]), rel=1e-12)
        # the symbolic partials of the chain: .partial("x") raised RecursionError
        assert f.partial("x").value(b) == c * 2.0
        assert [p.value(b) for p in f.partials()] == [c * 2.0, c * 1.5]
        form = potential_form(f)
        assert [a.value(b) for a in form.coefficients] == [c * 2.0, c * 1.5]
        assert is_closed(form, [b, {"x": -0.5, "y": 0.25}]) == (True, 0.0)

    def test_deep_overflow_names_the_expression(self):
        # the DomainError message serializes the 3000-deep sum, which raised RecursionError
        n = 3000
        text = " + ".join(f"{k}*x" for k in range(1, n + 1)) + " + 1e308*x*10"
        f = ScalarField.from_text(text, ["x"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^non-finite result in '1\*x\+2\*x\+"):
                f.value({"x": 1.0})
        s = str(f)
        assert s == text.replace(" ", "").replace("1e308", "1e+308")
        # parse(str(f)) is f: its text round-trips (== on trees this deep would recurse)
        assert str(ScalarField.from_text(s, ["x"])) == s


class TestGrad:
    def test_square(self):
        assert grad(parse("x^2"), {"x": 3.0}, ["x"]) == pytest.approx([6.0])

    def test_product(self):
        g = grad(parse("x*y"), {"x": 2.0, "y": 5.0}, ["x", "y"])
        assert g == pytest.approx([5.0, 2.0])

    def test_vdw_matches_central_differences(self):
        e = parse(VDW_TEXT)
        b = {"S": 0.0, "V": 1.0}
        g = grad(e, b, ["S", "V"])
        ref = fd_grad(lambda x: evaluate(e, x), b, ["S", "V"])
        assert np.max(np.abs(g - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-6


class TestHessian:
    @pytest.mark.parametrize("text, x", [("1/x", 1e-200), ("x*x*1e300*1e10", 1.0)],
                             ids=["second-derivative", "value"])
    def test_overflow_is_domain_error(self, text, x):
        # the array arithmetic warned and returned inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="floating-point overflow"):
                hessian(parse(text), {"x": x}, ["x"])

    def test_diagonal(self):
        h = hessian(parse("x^2+y^2"), {"x": 0.3, "y": -2.0}, ["x", "y"])
        assert h == pytest.approx(np.diag([2.0, 2.0]))

    def test_cross(self):
        h = hessian(parse("x*y"), {"x": 1.0, "y": 1.0}, ["x", "y"])
        assert h == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_vdw_matches_central_differences(self):
        e = parse(VDW_TEXT)
        b = {"S": 0.0, "V": 1.0}
        h = hessian(e, b, ["S", "V"])
        ref = fd_hessian(lambda x: evaluate(e, x), b, ["S", "V"])
        assert np.max(np.abs(h - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-4


COMPOSITE_CORPUS = [
    "exp(x*y) - sqrt(x+2)",
    "ln(1+x^2) * y",
    "x^3 - 2*x*y + y^2/(1+x^2)",
    "pow(x+2, 3) + abs(y+5)",
    "(x+1)^(y+2)",
    "1/(1+x^2+y^2)",
]


@pytest.mark.parametrize("text", COMPOSITE_CORPUS)
@given(x=st.floats(0.1, 2.0), y=st.floats(0.1, 2.0))
@settings(max_examples=25, deadline=None)
def test_grad_matches_fd_on_composites(text, x, y):
    e = parse(text)
    b = {"x": x, "y": y}
    g = grad(e, b, ["x", "y"])
    ref = fd_grad(lambda p: evaluate(e, p), b, ["x", "y"])
    scale = np.maximum(1.0, np.abs(ref))
    assert np.max(np.abs(g - ref) / scale) <= 1e-6


@pytest.mark.parametrize("text", COMPOSITE_CORPUS + ["(x*y+z)*(x*z+y)*(y*z+x)"])
@given(x=st.floats(0.1, 2.0), y=st.floats(0.1, 2.0), z=st.floats(0.1, 2.0))
@settings(max_examples=25, deadline=None)
def test_hessian_bitwise_symmetric(text, x, y, z):
    h = hessian(parse(text), {"x": x, "y": y, "z": z}, ["x", "y", "z"])
    # symmetric to exactly zero: the sweep forms the upper triangle only and the
    # lower one is its copy (the 3-variable product sums cross terms in two orders)
    assert np.array_equal(h, h.T)


# --- round-trip stability ---------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "V", "S"])
_nums = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _expr_strategy():
    leaf = st.one_of(_nums.map(Num), _names.map(Var))

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: Bin(*t)),
            st.tuples(st.sampled_from(["exp", "ln", "sqrt", "abs"]), children).map(
                lambda t: Call(t[0], (t[1],))
            ),
            st.tuples(children, children).map(lambda t: Call("pow", t)),
        )

    return st.recursive(leaf, extend, max_leaves=20)


@given(e=_expr_strategy())
@settings(max_examples=200, deadline=None)
def test_parse_serialize_roundtrip(e):
    assert parse(serialize(e)) == e


@pytest.mark.parametrize("text", COMPOSITE_CORPUS + [VDW_TEXT, "2*x + 3"])
def test_roundtrip_on_corpus(text):
    e = parse(text)
    assert parse(serialize(e)) == e


def test_negative_literal_power_base_round_trips_by_value():
    # a folded negative constant as a power base printed as -2^2, which parses as -4
    e = Bin("^", Num(-2.0), Num(2.0))
    assert serialize(e) == "(-2)^2"
    assert evaluate(parse(serialize(e)), {}) == evaluate(e, {}) == 4.0


# --- the operator-precedence parser against the recursive-descent parser it replaced ---

class _RecursiveParser:
    """The recursive-descent parser that the one operator-precedence loop replaced, kept as its
    reference: each grammar level is a method, so text nests once per level of the Python stack."""

    def __init__(self, text: str):
        self.tokens = _expr._tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != _expr._TOK_OP or val != op:
            raise ParseError("unexpected token", off, (repr(op),))
        return self.advance()

    def parse(self):
        e = self.additive()
        kind, _, off = self.peek()
        if kind != _expr._TOK_END:
            raise ParseError("trailing input", off, ("end of input",))
        return e

    def additive(self):
        left = self.multiplicative()
        while True:
            kind, val, _ = self.peek()
            if kind == _expr._TOK_OP and val in "+-":
                self.advance()
                right = self.multiplicative()
                left = Bin(val, left, right)
            else:
                return left

    def multiplicative(self):
        left = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == _expr._TOK_OP and val in "*/":
                self.advance()
                right = self.unary()
                left = Bin(val, left, right)
            else:
                return left

    def unary(self):
        kind, val, _ = self.peek()
        if kind == _expr._TOK_OP and val == "-":
            self.advance()
            return Neg(self.unary())
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == _expr._TOK_OP and val == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            return Bin("^", base, self.unary())
        return base

    def primary(self):
        kind, val, off = self.advance()
        if kind == _expr._TOK_NUM:
            return Num(val)
        if kind == _expr._TOK_NAME:
            k2, v2, _ = self.peek()
            if k2 == _expr._TOK_OP and v2 == "(":
                if val not in _expr._FUNCTIONS:
                    raise ParseError(f"unknown function '{val}'", off)
                self.advance()
                args = [self.additive()]
                while True:
                    k3, v3, _ = self.peek()
                    if k3 == _expr._TOK_OP and v3 == ",":
                        self.advance()
                        args.append(self.additive())
                    else:
                        break
                self.expect_op(")")
                if len(args) != _expr._FUNCTIONS[val]:
                    raise ParseError(
                        f"function '{val}' takes {_expr._FUNCTIONS[val]} argument(s), got {len(args)}", off
                    )
                return Call(val, tuple(args))
            return Var(val)
        if kind == _expr._TOK_OP and val == "(":
            e = self.additive()
            self.expect_op(")")
            return e
        raise ParseError("unexpected token", off, ("literal", "name", "'('", "'-'"))


def recursive_parse(text: str):
    return _RecursiveParser(text).parse()


def _parse_outcome(parse_text, text):
    # a tree by its structure (repr) and its text; an error by type, message, offset and expected
    try:
        e = parse_text(text)
    except ParseError as err:
        return (type(err), str(err), err.offset, err.expected)
    return (repr(e), serialize(e))


def check_parse_against_recursive(text):
    # parse raises nothing but ParseError: anything else escapes _parse_outcome and fails the test
    assert _parse_outcome(parse, text) == _parse_outcome(recursive_parse, text)


# operators, names (known, unknown and merging into longer ones) and numbers, the
# malformed, overflowing and non-ASCII-digit ones among them
_PIECES = ["+", "-", "*", "/", "^", "(", ")", ",", " ", "x", "y", "_a", "e", "E", "exp", "ln", "sqrt",
           "abs", "pow", "sin", "0", "1", "2.5", ".5", ".", "1e3", "1e-2", "1e999", "1.2.3", "²",
           "٣", "$"]


@st.composite
def _mutated(draw, texts):
    # a text with, sometimes, one character deleted, replaced or inserted
    text = draw(texts)
    if not draw(st.integers(0, 9)) < 3:
        return text
    k = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from("".join(_PIECES)))
    return draw(st.sampled_from([text[:k] + text[k + 1:], text[:k] + c + text[k + 1:], text[:k] + c + text[k:]]))


@given(text=st.one_of(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
                      _mutated(_expr_strategy().map(serialize))))
@settings(max_examples=2000, deadline=None, derandomize=True)
def test_parse_matches_the_recursive_parser(text):
    check_parse_against_recursive(text)


def _grammar_text(rng, depth: int = 0) -> str:
    r = rng.random()
    if depth > 3 or r < 0.3:
        return str(rng.choice(["x", "y", "V", "0", "1", "2.5", ".5", "1e-2", "3e2"]))
    if r < 0.4:
        return "-" + _grammar_text(rng, depth + 1)
    if r < 0.5:
        return "(" + _grammar_text(rng, depth + 1) + ")"
    if r < 0.65:
        args = [_grammar_text(rng, depth + 1) for _ in range(int(rng.integers(1, 3)))]
        return str(rng.choice(["exp", "ln", "sqrt", "abs", "pow", "sin"])) + "(" + ", ".join(args) + ")"
    op = str(rng.choice(list("+-*/^")))
    return _grammar_text(rng, depth + 1) + op + _grammar_text(rng, depth + 1)


def seeded_parse_corpus(seed: int, count: int):
    """count texts: half random strings of _PIECES, half grammar-generated, 30 % of those mutated."""
    rng = np.random.default_rng(seed)
    chars = "".join(_PIECES)
    for k in range(count):
        if k % 2:
            yield "".join(rng.choice(_PIECES, size=int(rng.integers(0, 31))))
            continue
        text = _grammar_text(rng)
        if rng.random() < 0.3:
            j, c = int(rng.integers(0, len(text) + 1)), chars[int(rng.integers(len(chars)))]
            text = [text[:j] + text[j + 1:], text[:j] + c + text[j + 1:], text[:j] + c + text[j:]][int(rng.integers(3))]
        yield text


def test_parse_matches_the_recursive_parser_on_a_seeded_corpus():
    for text in seeded_parse_corpus(20261021, 20_000):
        check_parse_against_recursive(text)


def _same_tree(a, b) -> bool:
    """== without recursion: the same node types and fields, operands pairwise."""
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        fields = [(getattr(n, "op", None), getattr(n, "fn", None), getattr(n, "name", None),
                   repr(getattr(n, "value", None))) for n in (x, y)]
        if type(x) is not type(y) or fields[0] != fields[1]:
            return False
        operands = _expr._children(x), _expr._children(y)
        if len(operands[0]) != len(operands[1]):
            return False
        pairs.extend(zip(*operands))
    return True


@pytest.mark.parametrize("text, printed", [
    ("(" * 10_000 + "x*y" + ")" * 10_000, "x*y"),
    ("-" * 5_000 + "x", "-" * 5_000 + "x"),
    ("^".join(["x"] * 3_000), "^".join(["x"] * 3_000)),
    ("(" * 3_000 + "x" + "^x)" * 3_000, "(" * 2_999 + "x^x" + ")^x" * 2_999),
    ("exp(" * 3_000 + "x" + ")" * 3_000, "exp(" * 3_000 + "x" + ")" * 3_000),
], ids=["parentheses", "unary-minus", "power-chain", "left-power-chain", "calls"])
def test_deep_text_parses_and_round_trips(text, printed):
    # the recursive-descent parser nested once per parenthesis, power or unary minus: RecursionError
    e = parse(text)
    assert serialize(e) == printed
    assert _same_tree(parse(printed), e)


# --- the value and reverse sweeps against the second-order forward sweep ----

def _outcome(fn):
    try:
        return fn(), None
    except ExprError as exc:
        return None, (type(exc), str(exc))


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _is_overflow(err) -> bool:
    return err is not None and "overflow" in err[1]


def _term(coefficient: float, m: np.ndarray) -> np.ndarray:
    """|coefficient| * m; an operand of zero magnitude contributes 0, even under an inf coefficient."""
    return np.where(m == 0.0, 0.0, abs(coefficient) * m)


def _gradient_magnitude(e, b, names) -> np.ndarray:
    """Sum over all paths of |product of local partials|, per entry of ``names``.

    Rounding in any gradient sweep is relative to this, however much the
    true gradient cancels below it.
    """
    tape = _lowered(e)
    code = tape.plan(names)[0]
    vals = _slots(tape, names, b)
    index = {name: i for i, name in enumerate(names)}
    mag = [np.zeros(len(names)) for _ in tape.consts]
    for name in tape.names:
        mag.append(np.zeros(len(names)))
        if name in index:
            mag[-1][index[name]] = 1.0
    for k, (op, a, c) in enumerate(code):
        x, v = vals[a], vals[tape.base + k]
        if op in (_expr._ADD, _expr._SUB):
            m = mag[a] + mag[c]
        elif op == _expr._MUL:
            m = _term(vals[c], mag[a]) + _term(x, mag[c])
        elif op == _expr._POWV:
            m = _term(v * vals[c] / x, mag[a]) + _term(v * math.log(x), mag[c])
        elif op in (_expr._NEG, _expr._ABS):
            m = mag[a]
        elif op == _expr._RECIP:
            m = _term(v * v, mag[a])
        elif op == _expr._EXP:
            m = _term(v, mag[a])
        elif op == _expr._LN:
            m = _term(1.0 / x, mag[a])
        elif op == _expr._SQRT:
            m = _term(0.5 / v, mag[a])
        else:  # constant exponent
            p = c if op == _expr._POWI else vals[c]
            m = _term(p * x ** (p - 1) if x != 0.0 else float(p == 1), mag[a])
        mag.append(m)
    return mag[tape.outs[0]]


def check_sweeps_against_forward_mode(e, b, names):
    """Values bitwise, reverse-mode gradients to 1e-14 of the second-order forward
    sweep's and errors as that sweep's; its Hessian is finite and mirrored bitwise."""
    names = tuple(names)
    tape = _lowered(e)
    value, value_err = _outcome(lambda: evaluate(e, b))
    const, const_err = _outcome(lambda: _second_order(e, b, ()))
    if const_err is None:
        assert value_err is None and _bits(value) == _bits(const[0])
    elif not _is_overflow(const_err) and "not differentiable" not in const_err[1]:
        assert value_err == const_err

    # with derivatives taken, the same forward sweep feeds the reverse one
    fwd, fwd_err = _outcome(lambda: _slots(tape, names, b)[tape.outs[0]])
    g, g_err = _outcome(lambda: grad(e, b, names))
    second, second_err = _outcome(lambda: _second_order(e, b, names))
    if fwd_err is not None:
        assert g_err == fwd_err and second_err == fwd_err
        return
    assert _bits(fwd) == _bits(second[0]) if second_err is None else _is_overflow(second_err)
    if g_err is not None:
        # a first-derivative factor overflowed; the second-order sweep forms the same factor
        assert _is_overflow(g_err) and _is_overflow(second_err)
        return
    if second_err is not None:
        # only the second-derivative factors, or a value the gradient does not reach, overflowed
        assert _is_overflow(second_err)
        return
    # relative to the summed terms, which the forward sweep's gradient is unless they cancel
    with np.errstate(all="ignore"):
        scale = np.maximum(_gradient_magnitude(e, b, names), 1.0)
    assert np.all(np.abs(g - np.array(second[1])) <= 1e-14 * scale)
    h = hessian(e, b, names)
    assert np.all(np.isfinite(h)) and np.array_equal(h, h.T)
    assert list(map(_bits, h.ravel())) == list(map(_bits, second[2]))


@pytest.mark.parametrize("text", COMPOSITE_CORPUS + [VDW_TEXT])
@given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_sweeps_match_dual_on_corpus(text, x, y):
    names = ("x", "y") if text != VDW_TEXT else ("S", "V")
    check_sweeps_against_forward_mode(parse(text), dict(zip(names, (x, y))), names)


_ALL = ("x", "y", "z", "V", "S")


@given(e=_expr_strategy(), x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
       z=st.floats(0.01, 3.0), wrt=st.sampled_from([_ALL, ("y", "S"), ()]))
# gradient 1e300 against a constant base's zero magnitude: the scale was inf * 0 = NaN
@example(e=Neg(Neg(Neg(Neg(Call("pow", (Num(1.2704758575596067e-149), Var("V"))))))),
         x=2.0, y=0.0, z=1.0, wrt=_ALL)
# 1/5e-324 overflows to inf, and its derivatives to NaN: an error, not an inf/NaN Hessian
@example(e=Neg(Neg(Neg(Bin("/", Num(5e-324), Num(5e-324))))), x=1.0, y=1.0, z=1.0, wrt=_ALL)
@settings(max_examples=300, deadline=None)
def test_sweeps_match_dual_on_random_trees(e, x, y, z, wrt):
    check_sweeps_against_forward_mode(e, {"x": x, "y": y, "z": z, "V": -x, "S": z + 1.0}, wrt)


# --- the Hessian kernel against values frozen from the interpreted sweep ------

# Value, gradient and upper triangle as float.hex, or the error as (type, message),
# recorded from the per-instruction interpreter that the _HESSIAN kernel replaced.
# The cases: the composite corpus and the vdW potential at fixed points, _POWI at
# a zero base for p = 1, 2, 3 and -2, _POWC with integral and non-integral
# exponents, abs at 0, a repeated wrt name, a wrt name the form lacks, wrt = (),
# and factors that overflow only in the second-order rule.
HESSIAN_GOLDEN = [
    ('exp(x*y) - sqrt(x+2)', {'x': 0.7, 'y': 1.3}, ('x', 'y'),
     ('0x1.aeabd9949c3ccp-1', ('0x1.76712e1d767fap+1', '0x1.bd30cb0785c66p+0'), ('0x1.104f8bed90e67p+2', '0x1.2faeff860bb5fp+2', '0x1.37a227b8773e0p+0'))),
    ('exp(x*y) - sqrt(x+2)', {'x': -1.5, 'y': 0.25}, ('x', 'y'),
     ('-0x1.44b0a12b5a7c0p-6', ('-0x1.1210ce104d828p-1', '-0x1.07eb4906f2aebp+0'), ('0x1.80082c7ddd4b5p-1', '0x1.b7dd79b63f233p-2', '0x1.8be0ed8a6c061p+0'))),
    ('exp(x*y) - sqrt(x+2)', {'x': -2.0, 'y': -5.0}, ('x', 'y'),
     ('DomainError', "square root not differentiable at zero in 'sqrt(x+2)' (value 0.0)")),
    ('ln(1+x^2) * y', {'x': 0.7, 'y': 1.3}, ('x', 'y'),
     ('0x1.096ce60f788f4p-1', ('0x1.38b2af3f920a5p+0', '0x1.9858c46692177p-2'), ('0x1.31cd6ccb8ba12p-1', '0x1.e112e63a6a860p-1', '0x0.0p+0'))),
    ('ln(1+x^2) * y', {'x': -1.5, 'y': 0.25}, ('x', 'y'),
     ('0x1.2dbc55768deb3p-2', ('-0x1.d89d89d89d89ep-3', '0x1.2dbc55768deb3p+0'), ('-0x1.e4bbd595f6e94p-5', '-0x1.d89d89d89d89ep-1', '0x0.0p+0'))),
    ('ln(1+x^2) * y', {'x': -2.0, 'y': -5.0}, ('x', 'y'),
     ('-0x1.018293af47840p+3', ('0x1.0000000000000p+2', '0x1.9c041f7ed8d33p+0'), ('0x1.3333333333333p+0', '-0x1.999999999999ap-1', '0x0.0p+0'))),
    ('x^3 - 2*x*y + y^2/(1+x^2)', {'x': 0.7, 'y': 1.3}, ('x', 'y'),
     ('-0x1.5eff92eb81998p-2', ('-0x1.190d479236b4cp+1', '0x1.613ee21acd7d0p-2'), ('0x1.2b89016628cc2p+2', '-0x1.d1dd4aa9ce416p+1', '0x1.579fc90527845p+0'))),
    ('x^3 - 2*x*y + y^2/(1+x^2)', {'x': -1.5, 'y': 0.25}, ('x', 'y'),
     ('-0x1.4d89d89d89d8ap+1', ('0x1.9122d719c060fp+2', '0x1.93b13b13b13b1p+1'), ('-0x1.1f547a94ea718p+3', '-0x1.dba51cc7f3e1bp+0', '0x1.3b13b13b13b14p-1'))),
    ('x^3 - 2*x*y + y^2/(1+x^2)', {'x': -2.0, 'y': -5.0}, ('x', 'y'),
     ('-0x1.7000000000000p+4', ('0x1.a000000000000p+4', '0x1.0000000000000p+1'), ('-0x1.e666666666665p+2', '-0x1.ccccccccccccep+1', '0x1.999999999999ap-2'))),
    ('pow(x+2, 3) + abs(y+5)', {'x': 0.7, 'y': 1.3}, ('x', 'y'),
     ('0x1.9fba5e353f7d0p+4', ('0x1.5deb851eb8520p+4', '0x1.0000000000000p+0'), ('0x1.0333333333334p+4', '0x0.0p+0', '0x0.0p+0'))),
    ('pow(x+2, 3) + abs(y+5)', {'x': -1.5, 'y': 0.25}, ('x', 'y'),
     ('0x1.5800000000000p+2', ('0x1.8000000000000p-1', '0x1.0000000000000p+0'), ('0x1.8000000000000p+1', '0x0.0p+0', '0x0.0p+0'))),
    ('pow(x+2, 3) + abs(y+5)', {'x': -2.0, 'y': -5.0}, ('x', 'y'),
     ('0x0.0p+0', ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'))),
    ('(x+1)^(y+2)', {'x': 0.7, 'y': 1.3}, ('x', 'y'),
     ('0x1.70b0a6f6eccfbp+2', ('0x1.65d8a20dc7ba8p+3', '0x1.8746536b24255p+1'), ('0x1.e425177c0e38ap+3', '0x1.2a52520f718b7p+3', '0x1.9f3e2a239ef89p+0'))),
    ('(x+1)^(y+2)', {'x': -1.5, 'y': 0.25}, ('x', 'y'),
     ('DomainError', "variable power of a non-positive base in '(x+1)^(y+2)' (value -0.5)")),
    ('(x+1)^(y+2)', {'x': -2.0, 'y': -5.0}, ('x', 'y'),
     ('DomainError', "variable power of a non-positive base in '(x+1)^(y+2)' (value -1.0)")),
    ('1/(1+x^2+y^2)', {'x': 0.7, 'y': 1.3}, ('x', 'y'),
     ('0x1.4203385a29dc9p-2', ('-0x1.1b88787607e0cp-3', '-0x1.0747dd922be31p-2'), ('-0x1.36ca7e0fc0df7p-4', '0x1.cfa39649dc948p-3', '0x1.c7ff21e08e652p-3'))),
    ('1/(1+x^2+y^2)', {'x': -1.5, 'y': 0.25}, ('x', 'y'),
     ('0x1.3521cfb2b78c1p-2', ('0x1.17f7fae57ac28p-2', '-0x1.754aa3dca3adfp-5'), ('0x1.40779ffe9fd68p-2', '-0x1.52134bf34bc90p-4', '-0x1.591e5d885d5d3p-3'))),
    ('1/(1+x^2+y^2)', {'x': -2.0, 'y': -5.0}, ('x', 'y'),
     ('0x1.1111111111111p-5', ('0x1.23456789abcdfp-8', '0x1.6c16c16c16c16p-7'), ('-0x1.0fda60a2a059dp-10', '0x1.845c8a0ce5129p-9', '0x1.53d0f8cb48704p-8'))),
    ('(V-0.1)^(2/3)*exp(S/1.5) - 1/V', {'S': 0.0, 'V': 1.0}, ('S', 'V'),
     ('-0x1.15d52b9c20d48p-4', ('0x1.3e2e3c5da7ee4p-1', '0x1.b0c45a6ceb846p+0'), ('0x1.a83da5d2353dbp-2', '0x1.d760f122740bap-2', '-0x1.20bc10bed647fp+1'))),
    ('(V-0.1)^(2/3)*exp(S/1.5) - 1/V', {'S': 0.3, 'V': 0.5}, ('S', 'V'),
     ('-0x1.56406d21b9972p+0', ('0x1.c4a987a611179p-2', '0x1.46ba7d31f2abbp+2'), ('0x1.2dc65a6eb60fcp-2', '0x1.7937f10a6393ap-1', '-0x1.0ebc2f6a67e3cp+4'))),
    ('(V-0.1)^(2/3)*exp(S/1.5) - 1/V', {'S': -1.0, 'V': 0.1}, ('S', 'V'),
     ('DomainError', "non-integer power of a non-positive base in '(V-0.1)^(2/3)' (value 0.0)")),
    ('x^1*y', {'x': 0.0, 'y': 1.5}, ('x', 'y'),
     ('0x0.0p+0', ('0x1.8000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x1.0000000000000p+0', '0x0.0p+0'))),
    ('x^(1)', {'x': -0.0}, ('x',),
     ('-0x0.0p+0', ('0x1.0000000000000p+0',), ('0x0.0p+0',))),
    ('x^2*y', {'x': 0.0, 'y': 1.5}, ('x', 'y'),
     ('0x0.0p+0', ('0x0.0p+0', '0x0.0p+0'), ('0x1.8000000000000p+1', '0x0.0p+0', '0x0.0p+0'))),
    ('x^(2)', {'x': -0.0}, ('x',),
     ('0x0.0p+0', ('0x0.0p+0',), ('0x1.0000000000000p+1',))),
    ('x^3*y', {'x': 0.0, 'y': 1.5}, ('x', 'y'),
     ('0x0.0p+0', ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'))),
    ('x^(3)', {'x': -0.0}, ('x',),
     ('-0x0.0p+0', ('0x0.0p+0',), ('0x0.0p+0',))),
    ('x^-2*y', {'x': 0.0, 'y': 1.5}, ('x', 'y'),
     ('DomainError', "zero raised to a negative power in 'x^-2' (value 0.0)")),
    ('x^(-2)', {'x': -0.0}, ('x',),
     ('DomainError', "zero raised to a negative power in 'x^-2' (value -0.0)")),
    ('pow(x, y)*x', {'x': 0.0, 'y': 2.0}, ('x',),
     ('0x0.0p+0', ('0x0.0p+0',), ('0x0.0p+0',))),
    ('pow(x, y)*x', {'x': 0.0, 'y': 1.0}, ('x',),
     ('0x0.0p+0', ('0x0.0p+0',), ('0x1.0000000000000p+1',))),
    ('pow(x, y)*x', {'x': -2.0, 'y': 3.0}, ('x',),
     ('0x1.0000000000000p+4', ('-0x1.0000000000000p+5',), ('0x1.8000000000000p+5',))),
    ('pow(x, y)*x', {'x': 1.5, 'y': 2.5}, ('x',),
     ('0x1.088b7e0e7b3ffp+2', ('0x1.34a2bdbb8fcaap+3',), ('0x1.013248c6f7d38p+4',))),
    ('pow(x, y)*x', {'x': -2.0, 'y': 0.5}, ('x',),
     ('DomainError', "non-integer power of a non-positive base in 'pow(x, y)' (value -2.0)")),
    ('pow(x, y)*x', {'x': 0.0, 'y': -1.0}, ('x',),
     ('DomainError', "zero raised to a negative power in 'pow(x, y)' (value 0.0)")),
    ('abs(x)*y + abs(x*y)', {'x': 0.0, 'y': 2.0}, ('x', 'y'),
     ('0x0.0p+0', ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'))),
    ('abs(x-y)^3', {'x': 1.0, 'y': 1.0}, ('x', 'y'),
     ('0x0.0p+0', ('0x0.0p+0', '-0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'))),
    ('x*y^2 + exp(y)', {'x': 0.5, 'y': 0.25}, ('y', 'x', 'y'),
     ('0x1.50b5e3c3e8186p+0', ('0x0.0p+0', '0x1.0000000000000p-4', '0x1.88b5e3c3e8186p+0'), ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-1', '0x1.245af1e1f40c3p+1'))),
    ('x*y^2 + exp(y)', {'x': 0.5, 'y': 0.25, 'z': 3.0}, ('z', 'x'),
     ('0x1.50b5e3c3e8186p+0', ('0x0.0p+0', '0x1.0000000000000p-4'), ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'))),
    ('x*y^2 + exp(y)', {'x': 0.5, 'y': 0.25}, (),
     ('0x1.50b5e3c3e8186p+0', (), ())),
    ('1/x', {'x': 1e-200}, ('x',),
     ('DomainError', "floating-point overflow in '1/x' (value 1e-200)")),
    ('1/x', {'x': 1e-200}, (),
     ('DomainError', "floating-point overflow in '1/x' (value 1e-200)")),
    ('ln(x)*y', {'x': 1e+200, 'y': 1.0}, ('x', 'y'),
     ('DomainError', "floating-point overflow in 'ln(x)' (value 1e+200)")),
    ('sqrt(x)*y', {'x': 5e-324, 'y': 1.0}, ('x', 'y'),
     ('DomainError', "floating-point overflow in 'sqrt(x)' (value 5e-324)")),
    ('x^-2', {'x': 1e-120}, ('x',),
     ('DomainError', "floating-point overflow in 'x^-2' (value 1e-120)")),
    ('-0*x + 0*(-x)', {'x': -3.0}, ('x',),
     ('0x0.0p+0', ('0x0.0p+0',), ('0x0.0p+0',))),
    ('x^y', {'x': 2.0, 'y': 1e+300}, ('x', 'y'),
     ('DomainError', "floating-point overflow in 'x^y' (value 2.0)")),
    ('sqrt(x+y)', {'x': 0.0, 'y': 0.0}, ('x', 'y'),
     ('DomainError', "square root not differentiable at zero in 'sqrt(x+y)' (value 0.0)")),
    ('x^y', {'x': -1.0, 'y': 2.0}, ('x', 'y'),
     ('DomainError', "variable power of a non-positive base in 'x^y' (value -1.0)")),
    ('x*x*1e300*1e10', {'x': 1.0}, ('x',),
     ('DomainError', "floating-point overflow in 'x*x*1e+300*10000000000' (value inf)")),
    ('1/x', {'x': 5e-324}, ('x',),
     ('DomainError', "floating-point overflow in '1/x' (value inf)")),
    ('(x*y+z)*(x*z+y)*(y*z+x)', {'x': 0.3, 'y': -1.1, 'z': 2.0}, ('x', 'y', 'z'),
     ('0x1.9624dd2f1a9fep+0', ('-0x1.073b645a1cac1p+3', '-0x1.23b645a1cac09p+2', '0x1.d54c985f06f6ep-1'), ('0x1.023d70a3d70a4p+4', '0x1.6666666666666p+3', '-0x1.53f7ced916873p+3', '0x1.3c28f5c28f5c2p+2', '-0x1.24dd2f1a9fbe8p+2', '-0x1.2467381d7dbf4p+0'))),
    ('(x+z)^(y*z) / (1 + exp(-x*y))', {'x': 0.3, 'y': -1.1, 'z': 2.0}, ('z', 'x', 'y'),
     ('0x1.1225dcb354f9ep-4', ('-0x1.00b38cf8be6f7p-3', '-0x1.b5aa542ca92d2p-4', '0x1.f886e9d0f2dc6p-4'), ('0x1.969f49423f976p-3', '0x1.91430461b4744p-3', '-0x1.de1be3d533628p-4', '0x1.6e01c95484f8dp-3', '-0x1.8190ceb260f10p-4', '0x1.cd401d227913bp-3'))),
]


def _second_order_hex(text, binding, wrt):
    """Value, gradient and the Hessian's upper triangle row by row, as float.hex, or the error."""
    try:
        v, g, h = _second_order(parse(text), binding, wrt)
    except ExprError as exc:
        return type(exc).__name__, str(exc)
    n = len(wrt)
    upper = [h[i * n + j] for i in range(n) for j in range(i, n)]
    return v.hex(), tuple(map(float.hex, g)), tuple(map(float.hex, upper))


@pytest.mark.parametrize("text, binding, wrt, expected", HESSIAN_GOLDEN)
def test_hessian_kernel_matches_the_frozen_sweep(text, binding, wrt, expected):
    assert _second_order_hex(text, binding, wrt) == expected


# --- the joint tape and its column sweep against the per-expression sweeps ----

def _hex(v) -> str:
    return float(v).hex()


def check_joint_against_per_expression(roots, bindings, wrt):
    """evaluate_all and grad_columns over one joint tape: each output's value and
    gradient float.hex-equal to its own evaluate and grad, at every binding, and
    any error the one the per-expression loops raise first, type and message."""
    tape = lower(roots)
    for b in bindings:
        joint, joint_err = _outcome(lambda: evaluate_all(tape, b))
        alone, alone_err = _outcome(lambda: [evaluate(e, b) for e in roots])
        assert joint_err == alone_err
        if alone_err is None:
            assert list(map(_hex, joint)) == list(map(_hex, alone))
    batch, batch_err = _outcome(lambda: grad_columns(tape, bindings, wrt))
    loop, loop_err = _outcome(lambda: [[grad(e, b, wrt) for e in roots] for b in bindings])
    assert batch_err == loop_err
    if loop_err is None:
        assert batch.shape == (len(bindings), len(roots), len(wrt))
        assert [[list(map(_hex, g)) for g in row] for row in batch] == [
            [list(map(_hex, g)) for g in row] for row in loop]


# shared by object across roots and merged by structure within and across them
_SHARED = parse("x*y + 0.5")
JOINT_CORPUS = [
    Bin("-", Call("exp", (_SHARED,)), Call("sqrt", (parse("x+2"),))),
    Bin("*", Call("ln", (_SHARED,)), Var("y")),
    parse("(x+1)^(y+2) - pow(x+1, y+2)"),
    parse("pow(x+2, 3) + abs(y-0.5) + (x*y+0.5)^0.5"),
    Bin("/", Num(1.0), Bin("+", _SHARED, parse("x^2"))),
    Neg(Bin("^", _SHARED, Num(-2.0))),
    Var("y"),
    Num(2.5),
]
_OPS = {_expr._NEG, _expr._ADD, _expr._SUB, _expr._MUL, _expr._RECIP, _expr._EXP, _expr._LN,
        _expr._SQRT, _expr._ABS, _expr._POWI, _expr._POWC, _expr._POWV}


def _bindings(rng, n, names=_ALL, values=None):
    """n bindings of uniform values in [-3, 3], or drawn from ``values`` when given."""
    draw = (lambda: float(rng.choice(values))) if values is not None else (lambda: float(rng.uniform(-3, 3)))
    return [{name: draw() for name in names} for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_joint_tape_on_every_op(n, rng):
    wrt = ("x", "y")
    tape = lower(JOINT_CORPUS)
    assert {op for op, _, _ in tape.plan(wrt)[0]} == _OPS
    # positive x and y: every output evaluates; then anywhere, so some binding fails
    inside = [{"x": float(rng.uniform(0.1, 2.0)), "y": float(rng.uniform(0.1, 2.0))} for _ in range(n)]
    assert grad_columns(tape, inside, wrt).shape == (n, len(JOINT_CORPUS), 2)
    check_joint_against_per_expression(JOINT_CORPUS, inside, wrt)
    check_joint_against_per_expression(JOINT_CORPUS, _bindings(rng, n, ("x", "y")), wrt)
    check_joint_against_per_expression(JOINT_CORPUS, _bindings(rng, n, ("x", "y"), [-0.5, 0.0, 0.5]), wrt)


@st.composite
def _joint_roots(draw):
    """Random trees, and further roots that combine them, so subtrees are shared."""
    parts = draw(st.lists(_expr_strategy(), min_size=1, max_size=3))
    roots = list(parts)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(parts)), draw(st.sampled_from(parts))
        roots.append(draw(st.sampled_from([Bin("+", a, b), Bin("*", a, b), Bin("/", a, b),
                                           Call("pow", (a, b)), Call("exp", (Neg(a),)),
                                           Call("ln", (b,))])))
    return draw(st.permutations(roots))


@given(roots=_joint_roots(), n=st.sampled_from([1, 2, 8, 64]), seed=st.integers(0, 2 ** 32 - 1),
       values=st.sampled_from([None, (-1.0, 0.0, 0.5, 2.0)]),
       wrt=st.sampled_from([_ALL, ("y", "S"), ()]))
@settings(max_examples=150, deadline=None)
def test_joint_tape_matches_per_expression_sweeps(roots, n, seed, values, wrt):
    bindings = _bindings(np.random.default_rng(seed), n, values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the column sweep warns of nothing the float sweep hides
        check_joint_against_per_expression(roots, bindings, wrt)


def test_joint_tape_error_is_the_first_failing_binding_and_output():
    # the column sweep fails first at ln(x+1), which is 0 at binding 2; the loop
    # over bindings fails first at binding 0, output 0, where y - 1 = 0
    roots = [parse("ln(x+1)*0 + 1/(y-1)"), parse("ln(y)")]
    bindings = [{"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 2.0}, {"x": -1.0, "y": -1.0}]
    with pytest.raises(DomainError, match=r"^division by zero in '1/\(y-1\)' \(value 0\.0\)$"):
        grad_columns(lower(roots), bindings, ("x", "y"))
    check_joint_against_per_expression(roots, bindings, ("x", "y"))


def test_grad_columns_unbound_name_is_grads_bind_error():
    # the column sweep's KeyError is no message: the re-run through grad words it
    e = parse("x*y")
    bindings = [{"x": 1.0, "y": 2.0}, {"x": 1.0}]
    with pytest.raises(BindError, match=r"^unbound coordinate 'y'$"):
        grad(e, bindings[1], ("x",))
    with pytest.raises(BindError, match=r"^unbound coordinate 'y'$"):
        grad_columns(lower([e]), bindings, ("x",))


@pytest.mark.parametrize("text, binding, message", [
    ("1/(x-1)", {"x": 1.0}, r"^division by zero in '1/\(x-1\)' \(value 0\.0\)$"),
    ("sqrt(x)", {"x": -1.0}, r"^square root of a negative value in 'sqrt\(x\)' \(value -1\.0\)$"),
    ("sqrt(x)", {"x": 0.0}, r"^square root not differentiable at zero in 'sqrt\(x\)' \(value 0\.0\)$"),
    ("x^(1e308*10-1e308*10)", {"x": 2.0}, r"^NaN exponent in 'x\^\(1e\+308\*10-1e\+308\*10\)' \(value nan\)$"),
    ("x^0.5", {"x": -1.0}, r"^non-integer power of a non-positive base in 'x\^0\.5' \(value -1\.0\)$"),
    ("x^(0.5+0*y)", {"x": 0.0, "y": 1.0},
     r"^non-integer power of a non-positive base in 'x\^\(0\.5\+0\*y\)' \(value 0\.0\)$"),
    ("(x-1)^-2", {"x": 1.0}, r"^zero raised to a negative power in '\(x-1\)\^-2' \(value 0\.0\)$"),
    ("x^(1e308*10)", {"x": 2.0}, r"^floating-point overflow in 'x\^\(1e\+308\*10\)' \(value 3\.0\)$"),
], ids=["pole", "sqrt-negative", "sqrt-zero", "nan-exponent", "negative-base", "zero-base", "power-pole",
        "infinite-exponent"])
def test_grad_columns_domain_errors_are_grads(text, binding, message):
    # each check of the column forward fails at binding 1 (at binding 0 too for an
    # inf exponent, whose round() overflows): the column sweep only raises, and
    # the re-run through grad gives the first failing binding's error
    e = parse(text)
    bindings = [{"x": 3.0, "y": 1.0}, {"y": 1.0, **binding}]
    with pytest.raises(DomainError, match=message):
        grad_columns(lower([e]), bindings, ("x",))
    check_joint_against_per_expression([e], bindings, ("x",))


_EDGE_VALUES = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0, 1e-300, 5e-324, 1e300])


@given(roots=_joint_roots(), bindings=st.lists(st.fixed_dictionaries(
           {name: st.one_of(_EDGE_VALUES, st.floats(-3.0, 3.0)) for name in _ALL}), min_size=1, max_size=8),
       wrt=st.sampled_from([_ALL, ("y", "S"), ()]))
@settings(max_examples=40, deadline=None)
def test_column_sweep_raises_iff_some_binding_raises(roots, bindings, wrt):
    """grad_columns raises iff some binding's grad raises, and then the per-expression loop's error."""
    _, batch_err = _outcome(lambda: grad_columns(lower(roots), bindings, wrt))
    _, loop_err = _outcome(lambda: [[grad(e, b, wrt) for e in roots] for b in bindings])
    assert batch_err == loop_err


def test_adjoints_sum_in_each_outputs_own_order():
    # -x comes first on the joint tape, last in output 1's own post-order.  Its own
    # reverse sweep sums dx as (-1 + 1) + 1e-16 = 1e-16; in the joint tape's order
    # it would be (1 + 1e-16) - 1 = 0
    roots = [parse("-x"), parse("1e-16*x + x + -x")]
    assert grad(roots[1], {"x": 1.0}, ("x",))[0] == 1e-16
    assert grad_columns(lower(roots), [{"x": 1.0}] * 2, ("x",))[:, 1, 0].tolist() == [1e-16] * 2
    check_joint_against_per_expression(roots, [{"x": 1.0}, {"x": -2.0}], ("x",))


def test_reverse_adds_nothing_at_a_kink_or_a_zero_base():
    # d|x| and d(x^p), p != 1, add nothing at x = 0: not 0 times the infinite adjoint, NaN
    roots = [parse("abs(x)*1e308*10"), parse("x^2*1e308*10"), parse("pow(x, y)*1e308*10")]
    bindings = [{"x": 0.0, "y": 2.0}, {"x": 0.0, "y": 3.0}]
    assert grad_columns(lower(roots), bindings, ("x",)).tolist() == [[[0.0]] * 3] * 2
    check_joint_against_per_expression(roots, bindings, ("x",))


def test_joint_tape_merges_across_outputs():
    roots = [parse("exp(x*y) + x"), parse("exp(x*y) * y"), parse("x*y")]
    alone = sum(len(_lowered(e).code) for e in roots)
    assert len(lower(roots).code) == 4 < alone  # x*y, exp, + and *, once each


# a seeded differential: the joint kernels' errors against the per-expression loops

_DIFF_NAMES = ("x", "y", "z")
_DIFF_VALUES = (-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0, 1e-300, 5e-324, 1e300)  # _EDGE_VALUES' draws
_DIFF_WRT = (("x", "y", "z", "w"), ("y", "w"), ("z",), ())


def _draw_tree(rng, leaves: int) -> Expression:
    """A tree of ``leaves`` leaves over x, y and z, from every operator of the grammar."""
    if leaves == 1:
        if rng.random() < 0.6:
            return Var(_DIFF_NAMES[rng.integers(3)])
        return Num(float(rng.choice((0.0, 0.5, 1.0, 2.0, 3.0, 1e300)) if rng.random() < 0.7 else rng.uniform(0, 10)))
    kind = int(rng.integers(8))
    if kind == 0:
        return Neg(_draw_tree(rng, leaves - 1))
    if kind == 1:
        return Call(("exp", "ln", "sqrt", "abs")[rng.integers(4)], (_draw_tree(rng, leaves - 1),))
    left = int(rng.integers(1, leaves))
    a, b = _draw_tree(rng, left), _draw_tree(rng, leaves - left)
    return Call("pow", (a, b)) if kind == 7 else Bin("+-*/^"[kind - 2], a, b)


def _draw_roots(rng) -> list:
    """_joint_roots' draw on a seeded generator, plus one root over w, which no earlier root reads."""
    parts = [_draw_tree(rng, int(rng.integers(1, 7))) for _ in range(rng.integers(1, 4))]
    roots = list(parts)
    for _ in range(rng.integers(0, 4)):
        a, b = parts[rng.integers(len(parts))], parts[rng.integers(len(parts))]
        roots.append((Bin("+", a, b), Bin("*", a, b), Bin("/", a, b), Call("pow", (a, b)),
                      Call("exp", (Neg(a),)), Call("ln", (b,)))[rng.integers(6)])
    roots = [roots[k] for k in rng.permutation(len(roots))]
    roots.insert(int(rng.integers(1, len(roots) + 1)), Bin("*", Var("w"), parts[rng.integers(len(parts))]))
    return roots


def _draw_binding(rng) -> dict:
    """Edge values or uniform ones; w unbound one time in five, and one name an int too large for a float
    one time in ten."""
    b = {n: float(rng.choice(_DIFF_VALUES)) if rng.random() < 0.6 else float(rng.uniform(-3, 3))
         for n in (*_DIFF_NAMES, "w")}
    draw = rng.random()
    if draw < 0.2:
        del b["w"]
    elif draw < 0.3:
        b[(*_DIFF_NAMES, "w")[rng.integers(4)]] = 10 ** 400
    return b


def _error_kind(err) -> str:
    """An error's type and message, without its names, subexpression and value."""
    return f"{err[0].__name__}: " + re.sub(r" in '.*| ?'[^']*'", "", err[1])


def test_joint_kernels_raise_what_the_per_expression_loops_raise():
    # 1,000 tapes, each at 8 batches of 1-3 bindings: 16,008 evaluate_all cases (10,355 raise) and
    # 8,000 grad_columns cases (6,268 raise), each against the loop over its outputs (and bindings)
    rng = np.random.default_rng(32)
    faults = {"evaluate_all": [], "grad_columns": []}
    before_w = 0  # value faults raised while w, read by a later output only, is unbound or too large
    for _ in range(1000):
        roots = _draw_roots(rng)
        tape, wrt = lower(roots), _DIFF_WRT[rng.integers(len(_DIFF_WRT))]
        for _ in range(8):
            bindings = [_draw_binding(rng) for _ in range(rng.integers(1, 4))]
            for b in bindings:
                joint, joint_err = _outcome(lambda: evaluate_all(tape, b))
                alone, alone_err = _outcome(lambda: [evaluate(e, b) for e in roots])
                assert joint_err == alone_err
                if alone_err is None:
                    assert list(map(_hex, joint)) == list(map(_hex, alone))
                else:
                    faults["evaluate_all"].append(_error_kind(alone_err))
                    before_w += alone_err[0] is DomainError and not isinstance(b.get("w"), float)
            batch, batch_err = _outcome(lambda: grad_columns(tape, bindings, wrt))
            loop, loop_err = _outcome(lambda: [[grad(e, b, wrt) for e in roots] for b in bindings])
            assert batch_err == loop_err
            if loop_err is None:
                assert [[list(map(_hex, g)) for g in row] for row in batch] == [
                    [list(map(_hex, g)) for g in row] for row in loop]
            else:
                faults["grad_columns"].append(_error_kind(loop_err))
    assert len(faults["evaluate_all"]) + len(faults["grad_columns"]) >= 10_000 and before_w
    assert {"BindError: unbound coordinate", "BindError: coordinate is too large for a float",
            "DomainError: non-finite result", "DomainError: division by zero",
            "DomainError: logarithm of a non-positive value", "DomainError: floating-point overflow",
            "DomainError: square root of a negative value"} <= set(faults["evaluate_all"])
    assert "DomainError: square root not differentiable at zero" in faults["grad_columns"]


def _certify_forms(rng):
    """Entropy forms of random potentials, both point models, as the certify benchmark
    builds them, and each with c*x_j added to one coefficient, so it is not closed."""
    forms = []
    for coords in (BASE_COORDS, FE_COORDS):
        text = "10.0 + " + random_polynomial_text(list(coords), rng)
        c = Constitutive(ScalarField.from_text(text, coords), rho=1.5, k=1.0)
        form = entropy_form(*potential_coefficients(c), rho=c.rho)
        i, j = rng.choice(len(coords), size=2, replace=False)
        coeffs = list(form.coefficients)
        coeffs[i] = ScalarField(add(coeffs[i].expression, mul(Num(0.75), Var(coords[j]))), coords)
        forms += [form, OneForm(coords, tuple(coeffs))]
    return forms


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_certify_forms_residual_matches_the_per_coefficient_jacobian(n, rng):
    for form in _certify_forms(rng):
        samples = low_discrepancy_samples({name: (0.05, 0.3) for name in form.coords}, n,
                                          seed=int(rng.integers(4096)))
        batch = d_residual(form, samples)
        assert batch.shape == (n, len(form.coords), len(form.coords))
        for x, res in zip(samples, batch):
            jac = np.array([c.grad(x) for c in form.coefficients])
            assert list(map(_hex, (jac - jac.T).ravel())) == list(map(_hex, res.ravel()))
            assert list(map(_hex, d_residual(form, x).ravel())) == list(map(_hex, res.ravel()))
            assert list(map(_hex, form.values(x))) == [_hex(c.value(x)) for c in form.coefficients]
        # the verdict reads the same matrices: the worst |C_ij|, first sample and pair on ties
        k, i, j = np.unravel_index(int(np.abs(batch).argmax()), batch.shape)
        worst = abs(float(batch[k, i, j]))
        assert worst_residual(form, samples) == (worst, (form.coords[i], form.coords[j]))
        assert is_closed(form, samples) == (worst <= 1e-8, worst)


# --- grad_columns hands numpy packed doubles: the per-binding grad loop's array, byte for byte

def _grad_loop_bytes(roots, bindings, wrt) -> bytes:
    loop = np.array([[grad(e, b, wrt) for e in roots] for b in bindings], dtype=float)
    return loop.reshape(len(bindings), len(roots), len(wrt)).tobytes()


def test_grad_columns_is_a_writable_c_contiguous_float64_array():
    batch = grad_columns(lower(JOINT_CORPUS), [{"x": 0.5, "y": 1.5}] * 3, ("x", "y"))
    assert batch.dtype == np.float64 and batch.flags.c_contiguous and batch.flags.writeable
    batch[2, 1, 0] = 7.0
    assert batch[2, 1, 0] == 7.0 and batch[1, 1, 0] != 7.0


@pytest.mark.parametrize("n, wrt", [(0, ("x", "y")), (0, ()), (3, ())])
def test_grad_columns_shape_with_no_bindings_or_no_wrt(n, wrt):
    batch = grad_columns(lower(JOINT_CORPUS), [{"x": 0.5, "y": 1.5}] * n, wrt)
    assert batch.shape == (n, len(JOINT_CORPUS), len(wrt)) and batch.dtype == np.float64


def test_grad_columns_bytes_with_inf_and_nan():
    # x*x overflows at x = 1e160: d/dx takes 0 * inf = NaN, d/dy is x^3 = inf
    roots = [parse("x*x*x*y"), parse("-x*y")]
    bindings = [{"x": 1e160, "y": 0.0}, {"x": 2.0, "y": 0.5}, {"x": -1e160, "y": 1.0}]
    assert [_hex(g) for g in grad(roots[0], bindings[0], ("x", "y"))] == ["nan", "inf"]
    batch = grad_columns(lower(roots), bindings, ("x", "y"))
    assert batch.tobytes() == _grad_loop_bytes(roots, bindings, ("x", "y"))
    assert {_hex(v) for v in batch.ravel()} >= {"nan", "inf", "-inf"}


@pytest.mark.parametrize("n", [1, 8, 64])
def test_grad_columns_bytes_on_the_joint_corpus_and_certify_forms(n, rng):
    inside = [{"x": float(rng.uniform(0.1, 2.0)), "y": float(rng.uniform(0.1, 2.0))} for _ in range(n)]
    batch = grad_columns(lower(JOINT_CORPUS), inside, ("x", "y"))
    assert batch.tobytes() == _grad_loop_bytes(JOINT_CORPUS, inside, ("x", "y"))
    for form in _certify_forms(rng):
        samples = low_discrepancy_samples({name: (0.05, 0.3) for name in form.coords}, n,
                                          seed=int(rng.integers(4096)))
        roots = [c.expression for c in form.coefficients]
        assert grad_columns(form.tape, samples, form.coords).tobytes() == _grad_loop_bytes(
            roots, samples, form.coords)


class TestTape:
    def test_shared_subexpressions_are_merged(self):
        tape = _lowered(parse("exp(x*y) + exp(x*y) / (x*y)"))
        # x*y, exp, 1/(x*y), the product and the sum
        assert len(tape.code) == 5

    def test_merged_division_reports_first_occurrence(self):
        with pytest.raises(DomainError, match="in 'x/y'"):
            evaluate(parse("x/y + 2/y"), {"x": 1.0, "y": 0.0})

    def test_signed_zero_constants_stay_apart(self):
        # -0 + 0*(-0) is -0; with the two zeros merged it would come out +0
        e = Bin("+", Num(-0.0), Bin("*", Num(0.0), Num(-0.0)))
        assert math.copysign(1.0, evaluate(e, {})) == -1.0

    def test_structurally_variable_exponent(self):
        # y - y carries no derivative, but depends on y: the exponent counts as variable
        e = parse("x^(y-y)")
        assert evaluate(e, {"x": -2.0, "y": 1.0}) == 1.0
        with pytest.raises(DomainError, match="variable power"):
            grad(e, {"x": -2.0, "y": 1.0}, ["x", "y"])
        assert grad(e, {"x": -2.0, "y": 1.0}, ["x"]) == pytest.approx([0.0])


class TestKernels:
    """The compiled value, slot and gradient kernels: their errors, memo and text."""

    @pytest.mark.parametrize("e, binding, wrt, message", [
        (parse("x*1e308"), {"x": 10.0}, None, "non-finite result in 'x*1e+308' (value inf)"),
        (parse("x^3"), {"x": 1e200}, None, "floating-point overflow in 'x^3' (value 1e+200)"),
        (parse("x^2.5"), {"x": 1e200}, None, "floating-point overflow in 'x^2.5' (value 1e+200)"),
        (parse("x^y"), {"x": 10.0, "y": 400.0}, ("x", "y"),
         "floating-point overflow in 'x^y' (value 10.0)"),
        (parse("1+exp(x)"), {"x": 800.0}, None, "floating-point overflow in 'exp(x)' (value 800.0)"),
        # forward x^-2 is 1e240; the reverse sweep's x^-3 overflows
        (Bin("^", Var("x"), Num(-2.0)), {"x": 1e-120}, ("x",),
         "floating-point overflow in 'x^-2' (value 1e-120)"),
        (parse("x^(-2)"), {"x": 1e-120}, ("x",), "floating-point overflow in 'x^-2' (value 1e-120)"),
    ], ids=["mul", "powi", "powc", "powv", "exp", "powi-reverse", "powc-reverse"])
    def test_overflow_names_the_instruction(self, e, binding, wrt, message):
        run = (lambda: evaluate(e, binding)) if wrt is None else (lambda: grad(e, binding, wrt))
        with pytest.raises(DomainError) as err:
            run()
        assert str(err.value) == message
        assert isinstance(err.value.subexpr, (Bin, Call))

    def test_unbound_name_is_a_bind_error(self):
        e = parse("x + y")
        for run in (lambda: evaluate(e, {"x": 1.0}), lambda: grad(e, {"x": 1.0}, ("x",)),
                    lambda: hessian(e, {"x": 1.0}, ("x", "y"))):
            with pytest.raises(BindError, match=r"^unbound coordinate 'y'$"):
                run()

    # Overflow sites no other test reaches, each with its message as frozen from the
    # lookup in a table of the kernel's lines that the kernels' own faults replaced.
    @pytest.mark.parametrize("call, e, binding, wrt, message", [
        # forward _POWI, negative exponent: (1e-120)^-3
        ("evaluate", Bin("^", Var("x"), Num(-3.0)), {"x": 1e-120}, None,
         "floating-point overflow in 'x^-3' (value 1e-120)"),
        ("hessian", Bin("^", Var("x"), Num(-3.0)), {"x": 1e-120}, ("x",),
         "floating-point overflow in 'x^-3' (value 1e-120)"),
        # reverse _POWC, non-integral exponent: -0.5 * (1e-320)^-1.5
        ("grad", parse("pow(x, y)"), {"x": 1e-320, "y": -0.5}, ("x",),
         "floating-point overflow in 'pow(x, y)' (value 1e-320)"),
        ("grad_columns", parse("pow(x, y)"), {"x": 1e-320, "y": -0.5}, ("x",),
         "floating-point overflow in 'pow(x, y)' (value 1e-320)"),
        # second order, -1/x^2 of _LN and _POWV with x^2 underflowed to zero
        ("hessian", parse("ln(x)"), {"x": 1e-200}, ("x",),
         "floating-point overflow in 'ln(x)' (value 1e-200)"),
        ("hessian", parse("x^y"), {"x": 1e-200, "y": 0.5}, ("x", "y"),
         "floating-point overflow in 'x^y' (value 1e-200)"),
        # second order _POWC, non-integral exponent: (1e-150)^-2.5
        ("hessian", parse("pow(x, y)"), {"x": 1e-150, "y": -0.5}, ("x",),
         "floating-point overflow in 'pow(x, y)' (value 1e-150)"),
    ], ids=["powi-negative", "powi-negative-hessian", "powc-reverse", "powc-reverse-columns",
            "ln-second", "powv-second", "powc-second"])
    def test_overflow_site_keeps_its_message(self, call, e, binding, wrt, message):
        run = {"evaluate": lambda: evaluate(e, binding), "grad": lambda: grad(e, binding, wrt),
               "hessian": lambda: hessian(e, binding, wrt),
               "grad_columns": lambda: grad_columns(lower([e]), [{"x": 1.0, "y": -0.5}, binding], wrt)}[call]
        with pytest.raises(DomainError) as err:
            run()
        assert str(err.value) == message

    @pytest.mark.parametrize("call", ["evaluate", "grad", "hessian", "grad_columns", "worst_residual"])
    def test_a_number_too_large_for_a_float_is_a_bind_error(self, call):
        # the handler of an overflow looked up the binding's line in a table that held None for it
        e = parse("x^2*y")
        run = {"evaluate": lambda b: evaluate(e, b), "grad": lambda b: grad(e, b, ("x", "y")),
               "hessian": lambda b: hessian(e, b, ("x", "y")),
               "grad_columns": lambda b: grad_columns(lower([e]), [{"x": 1.0, "y": 1.0}, b], ("x", "y")),
               "worst_residual": lambda b: worst_residual(potential_form(ScalarField(e, ("x", "y"))),
                                                          [{"x": 1.0, "y": 1.0}, b])}[call]
        for binding, name in (({"x": 10 ** 400, "y": 1.0}, "x"), ({"x": 1.0, "y": -10 ** 400}, "y"),
                              ({"x": 10 ** 400}, "x")):
            with pytest.raises(BindError, match=rf"^coordinate '{name}' is too large for a float$"):
                run(binding)
        # the binding is read in order: a name missing before the large number is unbound
        with pytest.raises(BindError, match=r"^unbound coordinate 'x'$"):
            run({"y": 10 ** 400})
        with pytest.raises(TypeError):
            run({"x": None, "y": 1.0})
        with pytest.raises(ValueError):
            run({"x": "abc", "y": 1.0})

    @pytest.mark.parametrize("value, text", [(math.inf, "inf"), (math.nan, "nan")])
    def test_non_finite_constant_is_printed_in_the_domain_error(self, value, text):
        # such a constant printed as a coordinate name (x+inf parsed back with a Var('inf')),
        # so it is refused where it is built, and no DomainError is left to word it
        for build in (Num, _expr.const):
            with pytest.raises(ExprError, match=rf"^a constant must be finite, got {text}$"):
                build(value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_no_tree_holds_a_non_finite_constant(self, value):
        # x+inf parsed back as a coordinate named inf, so parse(serialize(e)) != e
        with pytest.raises(ExprError, match=r"^a constant must be finite"):
            e = add(Var("x"), _expr.const(value))
            assert parse(serialize(e)) == e

    def test_every_raising_operation_runs_in_a_faulting_try(self):
        # every failure of a kernel is a _Fault: an ArithmeticError can come only from
        # **, / and the calls exp and round, so each must lie in a try whose handler
        # raises _Fault, and no other call may be made that could raise one
        tape = lower(JOINT_CORPUS + [parse("x^1*y")])
        code = tape.plan(None)[0] + tape.plan(("x", "y"))[0]
        assert {op for op, _, _ in code} == set(range(14)) - {_expr._POW}  # _POW becomes _POWC or _POWV
        assert {b for op, _, b in code if op == _expr._POWI} >= {-2, 1}

        def unguarded(node, guarded=False):
            if isinstance(node, ast.Try):
                faulting = node.handlers and all(isinstance(h.type, ast.Name) and h.type.id == "ArithmeticError"
                                                 and isinstance(h.body[0], ast.Raise)
                                                 and h.body[0].exc.func.id == "_Fault" for h in node.handlers)
                return [*(u for child in node.body for u in unguarded(child, guarded or faulting)),
                        *(u for h in node.handlers for u in unguarded(h, guarded))]
            raising = (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.Div))
                       or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exp", "round"))
            return [ast.unparse(node)] * (raising and not guarded) + [
                u for child in ast.iter_child_nodes(node) for u in unguarded(child, guarded)]

        for wrt, kind in ((None, _expr._VALUES), (None, _expr._SLOTS), (("x", "y"), _expr._SLOTS),
                          (("x", "y"), _expr._GRAD), (("y",), _expr._GRAD),
                          (("x", "y"), _expr._HESSIAN), (("y",), _expr._HESSIAN)):
            source = _expr._source(tape, wrt, kind)
            tree = ast.parse(source)
            assert unguarded(tree) == []
            allowed = set(tape.kernel(wrt, kind).__globals__) | {"float", "int", "abs", "round"}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    assert isinstance(node.func, ast.Name) and node.func.id in allowed, ast.unparse(node)

    def test_kernels_see_only_float_names(self):
        # every kind computes in Python floats: no numpy name is in a kernel's namespace
        tape = lower(JOINT_CORPUS)
        for wrt, kind in ((None, _expr._VALUES), (("x", "y"), _expr._SLOTS), (("x", "y"), _expr._GRAD),
                          (("x",), _expr._GRAD), (("x", "y"), _expr._HESSIAN)):
            names = set(tape.kernel(wrt, kind).__globals__) - {"__builtins__", "kernel"}
            assert names == {"_Fault", "exp", "log", "sqrt", "isnan"}

    def test_gradient_kernel_returns_one_flat_list(self):
        # a one-output tape's kernel returns its gradient, as grad reads it; a joint
        # tape's returns every output's, output by output
        binding, wrt = {"x": 3.0, "y": 2.0}, ("x", "y", "z")
        alone, joint = lower([parse("x^2*y")]), lower([parse("x^2*y"), parse("y"), Num(2.5)])
        assert alone.kernel(wrt, _expr._GRAD)(alone.consts, binding, alone.names) == [12.0, 9.0, 0.0]
        assert joint.kernel(wrt, _expr._GRAD)(joint.consts, binding, joint.names) == [
            12.0, 9.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert lower([]).kernel(wrt, _expr._GRAD)((), binding, ()) == []

    def test_a_tape_of_the_same_shape_reuses_the_compiled_code(self):
        first, second = parse("2*x + exp(x)"), parse("5*y + exp(y)")
        assert evaluate(first, {"x": 1.0}) == 2.0 + math.exp(1.0)
        assert evaluate(second, {"y": 1.0}) == 5.0 + math.exp(1.0)
        assert grad(second, {"y": 2.0}, ("y",)).tolist() == [5.0 + math.exp(2.0)]
        grad(first, {"x": 2.0}, ("x",))
        kernels = _lowered(first).kernels, _lowered(second).kernels
        assert kernels[0][None, _expr._VALUES] is kernels[1][None, _expr._VALUES]
        assert kernels[0][("x",), _expr._GRAD] is kernels[1][("y",), _expr._GRAD]
        joint = lower([first, parse("x*3")]), lower([second, parse("y*7")])
        grad_columns(joint[0], [{"x": 2.0}], ("x",))
        grad_columns(joint[1], [{"y": 2.0}], ("y",))
        assert joint[0].kernels[("x",), _expr._GRAD] is joint[1].kernels[("y",), _expr._GRAD]

    def test_no_constant_or_name_is_in_the_source(self):
        e = parse("2.718281828*theta_long + ln(theta_long)*1234.5 - sqrt(0.1*mu_other)^2.5"
                  " + pow(theta_long, mu_other) + mu_other^-7")
        names = ("theta_long", "mu_other")
        alone, joint = _lowered(e), lower([e, parse("0.375*mu_other - theta_long^3")])
        for tape, wrt, kind in ((alone, None, _expr._VALUES), (alone, names, _expr._SLOTS),
                                (alone, names, _expr._GRAD), (joint, names, _expr._GRAD),
                                (alone, names, _expr._HESSIAN)):
            source = _expr._source(tape, wrt, kind)
            for name in names:
                assert name not in source
            for c in tape.consts:
                assert repr(c) not in source and str(c) not in source
            # the only numbers in the text are the rules' own and _POWI's integer exponent
            rules = {"0.0", "0.5", "1.0"} | ({"0.25", "2.0"} if kind == _expr._HESSIAN else set())
            assert set(re.findall(r"(?<![\w.])\d+\.\d+", source)) <= rules

    def test_a_config_parsed_again_reuses_the_hessian_kernel(self):
        # the kernel's text holds no constant or name: a second parse compiles nothing
        text = "ln(q_a^2 + 3.5) * pow(q_b, 1.75) - q_a / (q_b - 0.125)"
        binding, wrt = {"q_a": 0.5, "q_b": 1.5}, ("q_a", "q_b")
        misses = _expr._compiled.cache_info().misses
        first = hessian(parse(text), binding, wrt)
        second = hessian(parse(text), binding, wrt)
        assert _expr._compiled.cache_info().misses == misses + 1
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("e, binding", [
        (parse("x^1"), {"x": 0.0, "y": 1.0}),  # _POWI
        (parse("x^y"), {"x": 0.0, "y": 1.0}),  # _POWC: y is not differentiated
    ], ids=["powi", "powc"])
    def test_first_power_has_unit_derivative_at_zero(self, e, binding):
        assert grad(e, binding, ("x",)).tolist() == [1.0]
        assert grad_columns(lower([e]), [binding], ("x",)).tolist() == [[[1.0]]]

    def test_adjoints_start_at_positive_zero(self):
        # d(-0*x)/dx sums 0.0 + 1.0*(-0.0), which is +0.0; the lone term would be -0.0
        e = Bin("*", Num(-0.0), Var("x"))
        assert _bits(grad(e, {"x": 1.0}, ("x",))[0]) == _bits(0.0)
        assert _bits(grad_columns(lower([e]), [{"x": 1.0}], ("x",))[0, 0, 0]) == _bits(0.0)

    def test_memo_keeps_signed_zero_and_subnormal_bits(self):
        # the constants come in as arguments: the bits of -0.0 and 5e-324 are kept
        a, b = Bin("*", Num(-0.0), Var("x")), Bin("*", Num(5e-324), Var("x"))
        assert _bits(evaluate(a, {"x": 1.0})) == _bits(-0.0)
        assert evaluate(b, {"x": 2.0}) == 1e-323
        assert _lowered(a).kernels[None, _expr._VALUES] is _lowered(b).kernels[None, _expr._VALUES]


class TestDifferentiate:
    def test_overflowing_constant_fold_keeps_the_operation(self):
        # 1e308*10 folded to Num(inf), which serialize could not print: an OverflowError
        # from every DomainError naming it (check-closed ended in a traceback)
        d = differentiate(parse("x*1e308*10"), "x")
        assert serialize(d) == "1e+308*10" and parse(serialize(d)) == d
        with pytest.raises(DomainError, match=r"^non-finite result in '1e\+308\*10' \(value inf\)$"):
            evaluate(d, {"x": 1.0})

    @pytest.mark.parametrize("text", COMPOSITE_CORPUS)
    def test_symbolic_matches_ad(self, text):
        e = parse(text)
        for b in ({"x": 0.7, "y": 1.3}, {"x": 1.9, "y": 0.2}):
            for name in ("x", "y"):
                symbolic = evaluate(differentiate(e, name), b)
                ad = grad(e, b, [name])[0]
                assert symbolic == pytest.approx(ad, rel=1e-12, abs=1e-12)

    def test_random_polynomials(self, rng):
        names = ["a", "b", "c"]
        for _ in range(10):
            e = parse(random_polynomial_text(names, rng))
            b = {n: float(rng.uniform(-1, 1)) for n in names}
            for name in names:
                assert evaluate(differentiate(e, name), b) == pytest.approx(
                    grad(e, b, [name])[0], rel=1e-12, abs=1e-12)


def _recursive_differentiate(e, name):
    """The recursive differentiate that the one-walk version replaced, kept as its oracle."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == name else 0.0)
    if isinstance(e, Neg):
        return neg(_recursive_differentiate(e.arg, name))
    if isinstance(e, Bin):
        da = _recursive_differentiate(e.left, name)
        db = _recursive_differentiate(e.right, name)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        if e.op == "/":
            return sub(div(da, e.right), div(mul(e.left, db), mul(e.right, e.right)))
        return _recursive_diff_pow(e.left, e.right, da, db)
    if e.fn == "pow":
        base, expo = e.args
        return _recursive_diff_pow(base, expo, _recursive_differentiate(base, name),
                                   _recursive_differentiate(expo, name))
    (a,) = e.args
    da = _recursive_differentiate(a, name)
    if e.fn == "exp":
        return mul(Call("exp", (a,)), da)
    if e.fn == "ln":
        return div(da, a)
    if e.fn == "sqrt":
        return div(da, mul(Num(2.0), Call("sqrt", (a,))))
    return mul(div(a, Call("abs", (a,))), da)


def _recursive_diff_pow(base, expo, da, db):
    if isinstance(db, Num) and db.value == 0.0:
        return mul(mul(expo, Bin("^", base, sub(expo, Num(1.0)))), da)
    return mul(Bin("^", base, expo), add(mul(db, Call("ln", (base,))), div(mul(expo, da), base)))


def check_partials_against_recursive_oracle(e, names):
    # serialize, not ==: dataclass == recurses, and the trees must print alike
    first = _expr._partials(e, names)
    assert [serialize(d) for d in first] == [serialize(_recursive_differentiate(e, n)) for n in names]
    assert [serialize(differentiate(e, n)) for n in names] == [serialize(d) for d in first]
    # first derivatives share subtrees, with e and with each other
    for d in first:
        assert [serialize(dd) for dd in _expr._partials(d, names)] == [
            serialize(_recursive_differentiate(d, n)) for n in names]


# every rule with an operand whose derivative is neither 0 nor 1
RULES_TEXT = "exp(x*y)/sqrt(x*y) - abs(x*y)*ln(x*y) + (x*y)^(x*y) + pow(x*y, 3) - -(x*y)/(y*y)"


@pytest.mark.parametrize("text", COMPOSITE_CORPUS + [VDW_TEXT, RULES_TEXT])
def test_partials_match_the_recursive_oracle_on_corpus(text):
    check_partials_against_recursive_oracle(parse(text), ("x", "y", "S", "V", "x"))


@given(e=_expr_strategy(), names=st.lists(_names, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_partials_match_the_recursive_oracle(e, names):
    check_partials_against_recursive_oracle(e, tuple(names))


class TestScalarField:
    def test_unresolved_name_is_bind_error(self):
        with pytest.raises(BindError, match="unresolved"):
            ScalarField.from_text("x + y", ["x"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(BindError):
            ScalarField.from_text("x", ["x", "x"])

    def test_partials_follow_coords(self):
        f = ScalarField.from_text("x*y^2 + exp(y)", ["y", "x"])
        assert [str(p) for p in f.partials()] == [str(f.partial("y")), str(f.partial("x"))]
        assert all(p.coords == ("y", "x") for p in f.partials())

    def test_grad_order_follows_wrt(self):
        f = ScalarField.from_text("x*y^2", ["x", "y"])
        b = {"x": 2.0, "y": 3.0}
        assert f.grad(b, ("y", "x")) == pytest.approx([12.0, 9.0])
