"""Scalar-field expressions over named coordinates with exact derivatives.

Everything downstream (potentials, 1-form coefficients, constitutive laws) is
built from these expressions.  Each expression is lowered once, on its first
evaluation, to a flat instruction tape with common subexpressions merged.
Values come from one sweep over plain floats.  Gradients add one reverse
(adjoint) sweep, whose cost does not grow with the number of variables.
Hessians run second-order dual numbers over the same tape.  Derivatives are
exact, so curl/closeness residuals are limited only by round-off, not by
finite difference noise.  Leaving a function's real domain, overflow
included, raises DomainError naming the subexpression.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "ScalarField",
    "ExprError",
    "ParseError",
    "BindError",
    "DomainError",
    "parse",
    "serialize",
    "free_names",
    "evaluate",
    "grad",
    "hessian",
    "differentiate",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
]


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)


class BindError(ExprError):
    """Unresolved or duplicate coordinate name."""


class DomainError(ExprError):
    """Evaluation left the function's real domain (pole, log of <=0, ...)."""

    def __init__(self, message: str, subexpr: "Expression | None" = None, value: float | None = None):
        self.subexpr = subexpr
        self.value = value
        if subexpr is not None:
            message += f" in '{serialize(subexpr)}'"
        if value is not None:
            message += f" (value {value!r})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expression", ...]


Expression = Num | Var | Neg | Bin | Call

_FUNCTIONS = {"exp": 1, "ln": 1, "sqrt": 1, "abs": 1, "pow": 2}


# ---------------------------------------------------------------------------
# Parser: recursive descent, precedence low->high:
#   additive < multiplicative < unary minus < power (right assoc) < primary
# ---------------------------------------------------------------------------

_TOK_NUM = "number"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number '{lexeme}'", i) from None
            if math.isinf(value):
                raise ParseError(f"number '{lexeme}' overflows a float", i)
            tokens.append((_TOK_NUM, value, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_NAME, text[i:j], i))
            i = j
        elif c in "+-*/^(),":
            tokens.append((_TOK_OP, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append((_TOK_END, None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != _TOK_OP or val != op:
            raise ParseError("unexpected token", off, (repr(op),))
        return self.advance()

    def parse(self) -> Expression:
        e = self.additive()
        kind, _, off = self.peek()
        if kind != _TOK_END:
            raise ParseError("trailing input", off, ("end of input",))
        return e

    def additive(self) -> Expression:
        left = self.multiplicative()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.advance()
                right = self.multiplicative()
                left = Bin(val, left, right)
            else:
                return left

    def multiplicative(self) -> Expression:
        left = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "*/":
                self.advance()
                right = self.unary()
                left = Bin(val, left, right)
            else:
                return left

    def unary(self) -> Expression:
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            return Bin("^", base, self.unary())
        return base

    def primary(self) -> Expression:
        kind, val, off = self.advance()
        if kind == _TOK_NUM:
            return Num(val)
        if kind == _TOK_NAME:
            k2, v2, _ = self.peek()
            if k2 == _TOK_OP and v2 == "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function '{val}'", off)
                self.advance()
                args = [self.additive()]
                while True:
                    k3, v3, _ = self.peek()
                    if k3 == _TOK_OP and v3 == ",":
                        self.advance()
                        args.append(self.additive())
                    else:
                        break
                self.expect_op(")")
                if len(args) != _FUNCTIONS[val]:
                    raise ParseError(
                        f"function '{val}' takes {_FUNCTIONS[val]} argument(s), got {len(args)}", off
                    )
                return Call(val, tuple(args))
            return Var(val)
        if kind == _TOK_OP and val == "(":
            e = self.additive()
            self.expect_op(")")
            return e
        raise ParseError("unexpected token", off, ("literal", "name", "'('", "'-'"))


def parse(text: str) -> Expression:
    """Parse infix text into an expression tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Serialization (minimal parentheses; parse(serialize(e)) == e)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expression) -> int:
    if isinstance(e, Neg) or (isinstance(e, Num) and e.value < 0):
        return _PREC_UNARY  # a negative literal prints with its sign: (-2)^2, not -2^2
    if isinstance(e, (Num, Var, Call)):
        return _PREC_ATOM
    return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[e.op]


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def serialize(e: Expression) -> str:
    """Render the tree back to infix text; iterative, so depth is unbounded."""
    text: dict[int, str] = {}  # id(node) -> its text

    def wrap(child: Expression, minimum: int) -> str:
        s = text[id(child)]
        return f"({s})" if _prec(child) < minimum else s

    for node in _post_order(e):
        if isinstance(node, Num):
            s = _fmt_num(node.value)
        elif isinstance(node, Var):
            s = node.name
        elif isinstance(node, Neg):
            s = "-" + wrap(node.arg, _PREC_UNARY)
        elif isinstance(node, Call):
            s = node.fn + "(" + ", ".join(text[id(a)] for a in node.args) + ")"
        elif node.op in "+-":
            s = wrap(node.left, _PREC_ADD) + node.op + wrap(node.right, _PREC_MUL)
        elif node.op in "*/":
            s = wrap(node.left, _PREC_MUL) + node.op + wrap(node.right, _PREC_UNARY)
        else:  # '^' right-associative, left operand must be atomic
            s = wrap(node.left, _PREC_ATOM) + "^" + wrap(node.right, _PREC_UNARY)
        text[id(node)] = s
    return text[id(e)]


def free_names(e: Expression) -> set[str]:
    """Coordinate names the expression refers to; iterative, so depth is unbounded."""
    out: set[str] = set()
    seen: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            out.add(node.name)
        else:
            stack.extend(_children(node))
    return out


def _children(e: Expression) -> tuple[Expression, ...]:
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Bin):
        return (e.left, e.right)
    if isinstance(e, Call):
        return e.args
    return ()


def _post_order(root: Expression):
    """Each distinct node once, operands first and left before right; iterative."""
    done: set[int] = set()
    stack = [(root, False)]
    while stack:
        e, operands_done = stack.pop()
        if id(e) in done:
            continue
        if operands_done:
            done.add(id(e))
            yield e
        else:
            stack.append((e, True))
            stack.extend((k, False) for k in reversed(_children(e)))


# ---------------------------------------------------------------------------
# Tape.  An expression is lowered once, without recursion, into a flat list
# of instructions in post-order (left operand first), and instructions with
# the same (op, operand slots) are merged.  Slots 0..base-1 hold the
# constants and then the coordinates in order of first use; instruction k
# writes slot base + k.  The tape is stored on the root node the first time
# the expression is evaluated.
#
# A plan specializes the tape for one list of differentiated names (wrt):
# an exponent that depends structurally on none of them counts as constant.
# That is the dual-number test "the exponent carries no derivative" except
# where the exponent's derivatives vanish identically, as in x^(y-y),
# x^(0*y) or x^(y^0): there the exponent counts as variable, so x must be
# positive.
# ---------------------------------------------------------------------------

_NEG, _ADD, _SUB, _MUL, _RECIP, _EXP, _LN, _SQRT, _ABS, _POW, _POWI = range(11)
# What a plan makes of _POW (constant / variable exponent) and, for
# value-only sweeps, of _SQRT (defined at zero when nothing is differentiated).
_POWC, _POWV, _SQRT0 = range(11, 14)
_BINARY = (_ADD, _SUB, _MUL, _POW)
_BIN_OPS = {"+": _ADD, "-": _SUB, "*": _MUL}
_UNARY_FNS = {"exp": _EXP, "ln": _LN, "sqrt": _SQRT, "abs": _ABS}


class _Tape:
    __slots__ = ("consts", "names", "code", "nodes", "base", "out", "value_code", "plans")

    def __init__(self, consts, names, code, nodes, out):
        self.consts = consts            # constant slot values
        self.names = names              # coordinate per coordinate slot
        self.code = code                # (op, a, b): operand slots; b is the exponent of _POWI
        self.nodes = nodes              # source node per instruction, for error messages
        self.base = len(consts) + len(names)
        self.out = out
        self.plans: dict = {}
        self.value_code = self.plan(None)[0]

    def plan(self, wrt: tuple[str, ...] | None):
        """(forward code, reverse code, gradient slot per wrt entry); None: value only."""
        plan = self.plans.get(wrt)
        if plan is None:
            plan = self.plans[wrt] = self._make_plan(wrt)
        return plan

    def _make_plan(self, wrt):
        names = wrt or ()
        index = {name: i for i, name in enumerate(names)}
        dep = [False] * len(self.consts) + [name in index for name in self.names]
        code, rev = [], []
        for k, (op, a, b) in enumerate(self.code):
            d = dep[a] or (op in _BINARY and dep[b])
            if op == _POW:
                op = _POWV if dep[b] else _POWC
            elif op == _SQRT and wrt is None:
                op = _SQRT0
            code.append((op, a, b))
            dep.append(d)
            if d:
                rev.append((op, self.base + k, a, b))
        rev.reverse()
        # a name the expression does not use reads the spare slot past the end,
        # which stays 0.0; a repeated name takes its derivative at the last entry
        slots = [len(dep)] * len(names)
        for k, name in enumerate(self.names):
            if name in index:
                slots[index[name]] = len(self.consts) + k
        return (self.code if code == self.code else code), rev, slots


def _lower(root: Expression) -> _Tape:
    consts: list[float] = []
    names: list[str] = []
    code: list[tuple] = []
    nodes: list[Expression] = []
    interned: dict[tuple, tuple] = {}   # (op, operand refs) -> ref
    ref_of: dict[int, tuple] = {}       # id(node) -> ref; refs are ("c"|"v"|"o", index)

    def intern(key, node):
        ref = interned.get(key)
        if ref is None:
            if key[0] == "c":
                ref = ("c", len(consts))
                consts.append(key[2])
            elif key[0] == "v":
                ref = ("v", len(names))
                names.append(key[1])
            else:
                ref = ("o", len(code))
                code.append(key)
                nodes.append(node)
            interned[key] = ref
        return ref

    def power(base, expo, node):
        if expo[0] == "c" and consts[expo[1]].is_integer():
            return intern((_POWI, base, int(consts[expo[1]])), node)
        return intern((_POW, base, expo), node)

    for e in _post_order(root):
        args = [ref_of[id(k)] for k in _children(e)]
        if isinstance(e, Num):
            v = float(e.value)
            ref = intern(("c", v.hex(), v), None)  # keyed on the bits: 0.0 and -0.0 stay apart
        elif isinstance(e, Var):
            ref = intern(("v", e.name), None)
        elif isinstance(e, Neg):
            ref = intern((_NEG, args[0], None), e)
        elif isinstance(e, Bin):
            a, b = args
            if e.op == "/":
                ref = intern((_MUL, a, intern((_RECIP, b, None), e)), e)
            elif e.op == "^":
                ref = power(a, b, e)
            else:
                ref = intern((_BIN_OPS[e.op], a, b), e)
        elif e.fn == "pow":
            ref = power(*args, e)
        elif e.fn in _UNARY_FNS:
            (a,) = args
            ref = intern((_UNARY_FNS[e.fn], a, None), e)
        else:
            raise ExprError(f"unknown function '{e.fn}'")
        ref_of[id(e)] = ref

    offset = {"c": 0, "v": len(consts), "o": len(consts) + len(names)}

    def slot(ref) -> int:
        return offset[ref[0]] + ref[1]

    flat = [(op, slot(a), b if op == _POWI else 0 if b is None else slot(b)) for op, a, b in code]
    return _Tape(consts, tuple(names), flat, nodes, slot(ref_of[id(root)]))


def _lowered(e: Expression) -> _Tape:
    try:
        return e._tape
    except AttributeError:
        tape = _lower(e)
        object.__setattr__(e, "_tape", tape)
        return tape


def _domain_error(tape: _Tape, vals: list[float], message: str, value: float) -> DomainError:
    """Error for the instruction that would write the next slot."""
    return DomainError(message, tape.nodes[len(vals) - tape.base], value)


def _forward(tape: _Tape, code: list[tuple], binding: dict[str, float]) -> list[float]:
    """Value of every slot, on plain floats, with the domain checks."""
    try:
        vals = tape.consts + [float(binding[name]) for name in tape.names]
    except KeyError as exc:
        raise BindError(f"unbound coordinate '{exc.args[0]}'") from None
    push = vals.append
    try:
        for op, a, b in code:
            if op == _MUL:
                push(vals[a] * vals[b])
            elif op == _ADD:
                push(vals[a] + vals[b])
            elif op == _SUB:
                push(vals[a] - vals[b])
            elif op == _POWI:
                x = vals[a]
                if x == 0.0 and b < 0:
                    raise _domain_error(tape, vals, "zero raised to a negative power", x)
                push(float(x ** b))
            elif op == _NEG:
                push(-vals[a])
            elif op == _RECIP:
                x = vals[a]
                if x == 0.0:
                    raise _domain_error(tape, vals, "division by zero", x)
                push(1.0 / x)
            elif op == _POWC:
                x, p = vals[a], vals[b]
                if p == round(p):
                    p = int(round(p))
                    if x == 0.0 and p < 0:
                        raise _domain_error(tape, vals, "zero raised to a negative power", x)
                    push(float(x ** p))
                elif x <= 0.0:
                    raise _domain_error(tape, vals, "non-integer power of a non-positive base", x)
                else:
                    push(x ** p)
            elif op == _POWV:
                x = vals[a]
                if x <= 0.0:
                    raise _domain_error(tape, vals, "variable power of a non-positive base", x)
                push(math.exp(vals[b] * math.log(x)))
            elif op == _EXP:
                push(math.exp(vals[a]))
            elif op == _LN:
                x = vals[a]
                if x <= 0.0:
                    raise _domain_error(tape, vals, "logarithm of a non-positive value", x)
                push(math.log(x))
            elif op == _ABS:
                push(abs(vals[a]))
            else:  # _SQRT, _SQRT0
                x = vals[a]
                if x < 0.0:
                    raise _domain_error(tape, vals, "square root of a negative value", x)
                if x == 0.0 and op == _SQRT:
                    raise _domain_error(tape, vals, "square root not differentiable at zero", x)
                push(math.sqrt(x))
    except ArithmeticError:
        raise _domain_error(tape, vals, "floating-point overflow", vals[a]) from None
    return vals


def _reverse(tape: _Tape, rev: list[tuple], vals: list[float]) -> list[float]:
    """Adjoint of every slot (and one spare 0.0 past the end): d out / d slot."""
    adj = [0.0] * (len(vals) + 1)
    adj[tape.out] = 1.0
    try:
        for op, i, a, b in rev:
            g = adj[i]
            if op == _MUL:
                adj[a] += g * vals[b]
                adj[b] += g * vals[a]
            elif op == _ADD:
                adj[a] += g
                adj[b] += g
            elif op == _SUB:
                adj[a] += g
                adj[b] -= g
            elif op == _POWI or op == _POWC:
                x = vals[a]
                p = b if op == _POWI else vals[b]
                if p == round(p):
                    p = int(round(p))
                    if x != 0.0:
                        adj[a] += g * (p * x ** (p - 1))
                    elif p == 1:
                        adj[a] += g
                else:
                    adj[a] += g * (p * x ** (p - 1.0))
            elif op == _NEG:
                adj[a] -= g
            elif op == _RECIP:
                v = vals[i]
                adj[a] -= g * v * v
            elif op == _POWV:
                x, v = vals[a], vals[i]
                adj[a] += g * v * (vals[b] * (1.0 / x))
                adj[b] += g * v * math.log(x)
            elif op == _EXP:
                adj[a] += g * vals[i]
            elif op == _LN:
                adj[a] += g * (1.0 / vals[a])
            elif op == _ABS:
                x = vals[a]
                if x > 0.0:
                    adj[a] += g
                elif x < 0.0:
                    adj[a] -= g
            else:  # _SQRT
                adj[a] += g * (0.5 / vals[i])
    except ArithmeticError:
        raise DomainError("floating-point overflow", tape.nodes[i - tape.base], vals[a]) from None
    return adj


# ---------------------------------------------------------------------------
# Second-order dual numbers, swept over the same tape for Hessians.  Their h is
# symmetric up to rounding; ``hessian`` mirrors its upper triangle.
# ---------------------------------------------------------------------------

class _Dual:
    __slots__ = ("v", "g", "h")

    def __init__(self, v: float, g: np.ndarray, h: np.ndarray):
        self.v = v
        self.g = g
        self.h = h

    @staticmethod
    def constant(v: float, nvars: int) -> "_Dual":
        return _Dual(v, np.zeros(nvars), np.zeros((nvars, nvars)))

    @staticmethod
    def seed(v: float, index: int, nvars: int) -> "_Dual":
        g = np.zeros(nvars)
        g[index] = 1.0
        return _Dual(v, g, np.zeros((nvars, nvars)))

    def add(self, o: "_Dual") -> "_Dual":
        return _Dual(self.v + o.v, self.g + o.g, self.h + o.h)

    def sub(self, o: "_Dual") -> "_Dual":
        return _Dual(self.v - o.v, self.g - o.g, self.h - o.h)

    def neg(self) -> "_Dual":
        return _Dual(-self.v, -self.g, -self.h)

    def mul(self, o: "_Dual") -> "_Dual":
        cross = np.outer(self.g, o.g)
        h = self.h * o.v + cross + cross.T + self.v * o.h
        return _Dual(self.v * o.v, self.g * o.v + self.v * o.g, h)

    def recip(self) -> "_Dual":
        inv = 1.0 / self.v
        g = -self.g * inv * inv
        outer = np.outer(self.g, self.g)
        h = -self.h * inv * inv + 2.0 * outer * inv ** 3
        return _Dual(inv, g, h)

    def chain(self, f: float, fp: float, fpp: float) -> "_Dual":
        """Apply scalar function with value f and derivatives fp, fpp."""
        h = fp * self.h + fpp * np.outer(self.g, self.g)
        return _Dual(f, fp * self.g, h)


def _dual_pow(base: _Dual, p: float | None, expo: _Dual | None = None) -> _Dual:
    """base^p for a constant exponent p; base^expo = exp(expo ln base) when p is None."""
    if p is None:
        ln_a = base.chain(math.log(base.v), 1.0 / base.v, -1.0 / base.v ** 2)
        prod = expo.mul(ln_a)
        e = math.exp(prod.v)
        return prod.chain(e, e, e)
    if p == round(p):
        p = int(round(p))
        v = float(base.v ** p)
        if base.v == 0.0:
            fp = 0.0 if p != 1 else 1.0
            fpp = 0.0 if p != 2 else 2.0
        else:
            fp = p * base.v ** (p - 1)
            fpp = p * (p - 1) * base.v ** (p - 2)
        return base.chain(v, fp, fpp)
    v = base.v ** p
    fp = p * base.v ** (p - 1.0)
    fpp = p * (p - 1.0) * base.v ** (p - 2.0)
    return base.chain(v, fp, fpp)


@np.errstate(over="raise", invalid="raise")  # an array overflow is a FloatingPointError, not a warning
def _dual(e: Expression, binding: dict[str, float], wrt: tuple[str, ...]) -> _Dual:
    """Value, gradient and Hessian of ``e`` by a dual-number sweep over its tape."""
    tape = _lowered(e)
    code = tape.plan(wrt)[0]
    vals = _forward(tape, code, binding)  # the domain checks, as in the other sweeps
    nvars = len(wrt)
    index = {name: i for i, name in enumerate(wrt)}
    nc = len(tape.consts)
    duals = [_Dual.constant(v, nvars) for v in vals[:nc]]
    for k, name in enumerate(tape.names):
        v = vals[nc + k]
        duals.append(_Dual.seed(v, index[name], nvars) if name in index else _Dual.constant(v, nvars))
    push = duals.append
    try:
        for op, a, b in code:
            x = duals[a]
            if op == _ADD:
                push(x.add(duals[b]))
            elif op == _SUB:
                push(x.sub(duals[b]))
            elif op == _MUL:
                push(x.mul(duals[b]))
            elif op == _NEG:
                push(x.neg())
            elif op == _RECIP:
                push(x.recip())
            elif op == _POWI:
                push(_dual_pow(x, b))
            elif op == _POWC:
                push(_dual_pow(x, duals[b].v))
            elif op == _POWV:
                push(_dual_pow(x, None, duals[b]))
            elif op == _EXP:
                f = math.exp(x.v)
                push(x.chain(f, f, f))
            elif op == _LN:
                push(x.chain(math.log(x.v), 1.0 / x.v, -1.0 / x.v ** 2))
            elif op == _SQRT:
                r = math.sqrt(x.v)
                push(x.chain(r, 0.5 / r, -0.25 / (r * x.v)))
            else:  # _ABS
                sign = 1.0 if x.v > 0.0 else (-1.0 if x.v < 0.0 else 0.0)
                push(x.chain(abs(x.v), sign, 0.0))
    except ArithmeticError:
        raise DomainError("floating-point overflow", tape.nodes[len(duals) - tape.base], x.v) from None
    out = duals[tape.out]
    # a float product or sum overflows to inf silently; from finite inputs only an overflow gives inf/NaN
    if not (math.isfinite(out.v) and np.isfinite(out.h).all()):
        raise DomainError("floating-point overflow", e, out.v)
    return out


def evaluate(e: Expression, binding: dict[str, float]) -> float:
    """Evaluate at a binding; domain violations raise instead of returning NaN/inf."""
    tape = _lowered(e)
    value = _forward(tape, tape.value_code, binding)[tape.out]
    if not math.isfinite(value):
        raise DomainError("non-finite result", e, value)
    return value


def grad(e: Expression, binding: dict[str, float], wrt: list[str] | tuple[str, ...]) -> np.ndarray:
    """Exact first derivatives, ordered as ``wrt``, by one reverse sweep."""
    tape = _lowered(e)
    code, rev, slots = tape.plan(tuple(wrt))
    adj = _reverse(tape, rev, _forward(tape, code, binding))
    return np.array([adj[s] for s in slots])


def hessian(e: Expression, binding: dict[str, float], wrt: list[str] | tuple[str, ...]) -> np.ndarray:
    """Exact second derivatives, symmetric bitwise: the lower triangle copies the upper
    one, as the dual product sums an entry's two cross terms in its mirror's reverse order."""
    h = _dual(e, binding, tuple(wrt)).h
    for i in range(1, len(h)):
        h[i, :i] = h[:i, i]
    return h


# ---------------------------------------------------------------------------
# Symbolic derivative trees.  Used to materialize potential-generated 1-form
# coefficients as expressions in their own right (so closeness tests really
# differentiate them again, instead of reading off a Hessian).  Only trivial
# constant folding; no CAS-style simplification.
# ---------------------------------------------------------------------------

def const(v: float) -> Expression:
    return Num(float(v))


def var(name: str) -> Expression:
    return Var(name)


def _is_num(e: Expression, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def add(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Bin("-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Bin("/", a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def differentiate(e: Expression, name: str) -> Expression:
    """Partial derivative as a new expression tree."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == name else 0.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, name))
    if isinstance(e, Bin):
        da = differentiate(e.left, name)
        db = differentiate(e.right, name)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        if e.op == "/":
            return sub(div(da, e.right), div(mul(e.left, db), mul(e.right, e.right)))
        # power
        return _diff_pow(e.left, e.right, da, db)
    if e.fn == "pow":
        base, expo = e.args
        return _diff_pow(base, expo, differentiate(base, name), differentiate(expo, name))
    (a,) = e.args
    da = differentiate(a, name)
    if e.fn == "exp":
        return mul(Call("exp", (a,)), da)
    if e.fn == "ln":
        return div(da, a)
    if e.fn == "sqrt":
        return div(da, mul(Num(2.0), Call("sqrt", (a,))))
    if e.fn == "abs":
        # d|a| = a/|a| da away from zero
        return mul(div(a, Call("abs", (a,))), da)
    raise ExprError(f"unknown function '{e.fn}'")


def _diff_pow(base: Expression, expo: Expression, da: Expression, db: Expression) -> Expression:
    f = Bin("^", base, expo)
    if _is_num(db, 0.0):
        # p * a^(p-1) * a'
        return mul(mul(expo, Bin("^", base, sub(expo, Num(1.0)))), da)
    # general: f' = f * (b' ln a + b a'/a)
    inner = add(mul(db, Call("ln", (base,))), div(mul(expo, da), base))
    return mul(f, inner)


# ---------------------------------------------------------------------------
# ScalarField: an expression bound to a declared coordinate space.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Expression over a fixed ordered coordinate list.

    Unresolved coordinate references fail at construction, not at evaluation.
    """

    expression: Expression
    coords: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise BindError("coordinate names must be unique")
        unknown = free_names(self.expression) - set(self.coords)
        if unknown:
            raise BindError(f"unresolved coordinate names: {sorted(unknown)}")

    @classmethod
    def from_text(cls, text: str, coords: list[str] | tuple[str, ...]) -> "ScalarField":
        return cls(parse(text), tuple(coords))

    def value(self, binding: dict[str, float]) -> float:
        return evaluate(self.expression, binding)

    def grad(self, binding: dict[str, float], wrt: tuple[str, ...] | None = None) -> np.ndarray:
        return grad(self.expression, binding, wrt if wrt is not None else self.coords)

    def hessian(self, binding: dict[str, float], wrt: tuple[str, ...] | None = None) -> np.ndarray:
        return hessian(self.expression, binding, wrt if wrt is not None else self.coords)

    def partial(self, name: str) -> "ScalarField":
        """Symbolic partial derivative, as a field over the same coordinates."""
        return ScalarField(differentiate(self.expression, name), self.coords)

    def __str__(self) -> str:
        return serialize(self.expression)
