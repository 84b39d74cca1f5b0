import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoform.expr import (
    Bin,
    BindError,
    Call,
    DomainError,
    ExprError,
    Neg,
    Num,
    ParseError,
    ScalarField,
    Var,
    differentiate,
    evaluate,
    grad,
    hessian,
    parse,
    serialize,
)
from thermoform import expr as _expr
from thermoform.expr import _dual, _forward, _lowered
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
    # symmetric to exactly zero: the lower triangle is a copy of the upper one
    # (the 3-variable product's dual sweep sums its cross terms in two orders)
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


# --- the float and reverse sweeps against dual numbers over the same tape ----

def _outcome(fn):
    try:
        return fn(), None
    except ExprError as exc:
        return None, (type(exc), str(exc))


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _is_overflow(err) -> bool:
    return err is not None and "overflow" in err[1]


def _gradient_magnitude(e, b, names) -> np.ndarray:
    """Sum over all paths of |product of local partials|, per entry of ``names``.

    Rounding in any gradient sweep is relative to this, however much the
    true gradient cancels below it.
    """
    tape = _lowered(e)
    code = tape.plan(names)[0]
    vals = _forward(tape, code, b)
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
            m = abs(vals[c]) * mag[a] + abs(x) * mag[c]
        elif op == _expr._POWV:
            m = abs(v * vals[c] / x) * mag[a] + abs(v * math.log(x)) * mag[c]
        elif op in (_expr._NEG, _expr._ABS):
            m = mag[a]
        elif op == _expr._RECIP:
            m = v * v * mag[a]
        elif op == _expr._EXP:
            m = v * mag[a]
        elif op == _expr._LN:
            m = mag[a] / x
        elif op == _expr._SQRT:
            m = 0.5 / v * mag[a]
        else:  # constant exponent
            p = c if op == _expr._POWI else vals[c]
            m = (abs(p * x ** (p - 1)) if x != 0.0 else float(p == 1)) * mag[a]
        mag.append(m)
    return mag[tape.out]


def check_sweeps_against_dual(e, b, names):
    """Values bitwise, gradients to 1e-14 and errors as the order-2 dual sweep."""
    names = tuple(names)
    tape = _lowered(e)
    value, value_err = _outcome(lambda: evaluate(e, b))
    const, const_err = _outcome(lambda: _dual(e, b, ()))
    if const_err is None:
        assert value_err is None and _bits(value) == _bits(const.v)
    elif not _is_overflow(const_err) and "not differentiable" not in const_err[1]:
        assert value_err == const_err

    # with derivatives taken, the same forward sweep feeds the reverse one
    fwd, fwd_err = _outcome(lambda: _forward(tape, tape.plan(names)[0], b)[tape.out])
    g, g_err = _outcome(lambda: grad(e, b, names))
    dual, dual_err = _outcome(lambda: _dual(e, b, names))
    if fwd_err is not None:
        assert g_err == fwd_err and dual_err == fwd_err
        return
    assert _bits(fwd) == _bits(dual.v) if dual_err is None else _is_overflow(dual_err)
    if g_err is not None:
        # a first-derivative factor overflowed; the dual sweep forms the same factor
        assert _is_overflow(g_err) and _is_overflow(dual_err)
        return
    if dual_err is not None:
        # only the second-derivative factors of the order-2 sweep overflowed
        assert _is_overflow(dual_err)
        return
    if np.all(np.isfinite(dual.g)):
        # relative to the summed terms, which the dual's g is unless they cancel
        with np.errstate(all="ignore"):
            scale = np.maximum(_gradient_magnitude(e, b, names), 1.0)
        assert np.all(np.abs(g - dual.g) <= 1e-14 * scale)
    assert np.array_equal(dual.h, dual.h.T, equal_nan=True)


@pytest.mark.parametrize("text", COMPOSITE_CORPUS + [VDW_TEXT])
@given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_sweeps_match_dual_on_corpus(text, x, y):
    names = ("x", "y") if text != VDW_TEXT else ("S", "V")
    check_sweeps_against_dual(parse(text), dict(zip(names, (x, y))), names)


@given(e=_expr_strategy(), x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
       z=st.floats(0.01, 3.0), wrt=st.sampled_from([("x", "y", "z", "V", "S"), ("y", "S"), ()]))
@settings(max_examples=300, deadline=None)
def test_sweeps_match_dual_on_random_trees(e, x, y, z, wrt):
    check_sweeps_against_dual(e, {"x": x, "y": y, "z": z, "V": -x, "S": z + 1.0}, wrt)


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


class TestDifferentiate:
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


class TestScalarField:
    def test_unresolved_name_is_bind_error(self):
        with pytest.raises(BindError, match="unresolved"):
            ScalarField.from_text("x + y", ["x"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(BindError):
            ScalarField.from_text("x", ["x", "x"])

    def test_grad_order_follows_wrt(self):
        f = ScalarField.from_text("x*y^2", ["x", "y"])
        b = {"x": 2.0, "y": 3.0}
        assert f.grad(b, ("y", "x")) == pytest.approx([12.0, 9.0])
