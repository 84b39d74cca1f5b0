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
from thermoform.geometry import OneForm, d_residual, is_closed, low_discrepancy_samples, potential_form
from thermoform.point import (BASE_COORDS, FE_COORDS, Constitutive, entropy_form,
                              potential_coefficients)
from thermoform.expr import _forward, _lowered, _second_order
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
    fwd, fwd_err = _outcome(lambda: _forward(tape, tape.plan(names)[0], b)[tape.outs[0]])
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
    upper = np.triu_indices(len(names))
    assert np.all(np.isfinite(h)) and np.array_equal(h, h.T)
    assert list(map(_bits, h[upper])) == list(map(_bits, second[2]))


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
