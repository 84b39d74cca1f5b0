"""Scalar-field expressions over named coordinates with exact derivatives.

Everything downstream (potentials, 1-form coefficients, constitutive laws) is
built from these expressions.  Each expression is lowered once, on its first
evaluation, to a flat instruction tape with common subexpressions merged.
Values come from one sweep over plain floats.  Gradients add one reverse
(adjoint) sweep, whose cost does not grow with the number of variables.
Hessians come from one forward second-order sweep on floats that keeps each
slot's gradient and its Hessian's upper triangle.  Derivatives are exact, so
curl/closeness residuals are limited only by round-off, not by finite
difference noise.  Leaving a function's real domain, overflow included,
raises DomainError naming the subexpression.

A tuple of expressions lowers to one tape with one output per expression
(``lower``), merged across them; a single expression is the 1-tuple case.
``evaluate_all`` takes every output's value from one float sweep;
``grad_columns`` sweeps a batch of bindings as (N,) columns, then runs one
reverse sweep per output in that output's own order.  Both are bitwise the
per-expression ``evaluate`` and ``grad``; when a joint or batched sweep
fails, they re-run the outputs (and bindings) one by one through those, so
the error is the first failing one's, with its own message.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    "lower",
    "evaluate_all",
    "grad_columns",
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
# Parser: recursive descent (the one depth limit left), precedence low->high:
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
    return {node.name for node in _post_order(e) if isinstance(node, Var)}


def _children(e: Expression) -> tuple[Expression, ...]:
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Bin):
        return (e.left, e.right)
    return e.args if isinstance(e, Call) else ()


def _post_order(root: Expression):
    """Each distinct node once, operands first and left before right; iterative."""
    done: set[int] = set()
    stack = [(root, iter(_children(root)))]  # a node, and its operands not yet walked
    while stack:
        e, operands = stack[-1]
        for k in operands:
            if id(k) not in done:
                stack.append((k, iter(_children(k))))
                break
        else:
            stack.pop()
            done.add(id(e))
            yield e


# ---------------------------------------------------------------------------
# Tape.  A tuple of expressions is lowered once, without recursion, into one
# flat list of instructions with a list of outputs (Griewank & Walther,
# Evaluating Derivatives, 2nd ed., ch. 3).  Each root is walked in post-order
# (left operand first) in turn, and instructions with the same (op, operand
# slots) are merged, within a root and across roots.  Slots 0..base-1 hold the
# constants and then the coordinates in order of first use; instruction k
# writes slot base + k.  Per root the tape also keeps its instructions in the
# order the root's own walk first reaches them, which is the order a tape of
# that root alone would hold them in.  A single expression is the 1-tuple
# case; its tape is stored on the root node the first time it is evaluated.
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
    __slots__ = ("consts", "names", "code", "nodes", "base", "roots", "outs", "orders",
                 "value_code", "plans")

    def __init__(self, consts, names, code, nodes, roots, outs, orders):
        self.consts = consts            # constant slot values
        self.names = names              # coordinate per coordinate slot
        self.code = code                # (op, a, b): operand slots; b is the exponent of _POWI
        self.nodes = nodes              # source node per instruction, for error messages
        self.base = len(consts) + len(names)
        self.roots = roots              # the lowered expressions
        self.outs = outs                # slot per root
        self.orders = orders            # per root, its instructions in its own post-order
        self.plans: dict = {}
        self.value_code = self.plan(None)[0]

    def plan(self, wrt: tuple[str, ...] | None):
        """(forward code, (output slot, reverse code) per root, gradient slot per wrt
        entry, per slot whether it depends on wrt); wrt None: value only."""
        plan = self.plans.get(wrt)
        if plan is not None:
            return plan
        names = wrt or ()
        index = {name: i for i, name in enumerate(names)}
        dep = [False] * len(self.consts) + [name in index for name in self.names]
        code = []
        for op, a, b in self.code:
            d = dep[a] or (op in _BINARY and dep[b])
            if op == _POW:
                op = _POWV if dep[b] else _POWC
            elif op == _SQRT and wrt is None:
                op = _SQRT0
            code.append((op, a, b))
            dep.append(d)
        # each root's reverse code follows its own post-order, so every adjoint
        # sums its terms in the order a tape of that root alone would
        revs = [(out, [(*code[k], self.base + k) for k in reversed(order) if dep[self.base + k]])
                for out, order in zip(self.outs, self.orders)]
        # a name the expression does not use reads the spare slot past the end,
        # which stays 0.0; a repeated name takes its derivative at the last entry
        slots = [len(dep)] * len(names)
        for k, name in enumerate(self.names):
            if name in index:
                slots[index[name]] = len(self.consts) + k
        plan = self.plans[wrt] = (self.code if code == self.code else code), revs, slots, dep
        return plan


def _lower(roots: tuple[Expression, ...]) -> _Tape:
    consts: list[float] = []
    names: list[str] = []
    code: list[tuple] = []
    nodes: list[Expression] = []
    interned: dict[tuple, tuple] = {}   # (op, operand refs) -> ref
    ref_of: dict[int, tuple] = {}       # id(node) -> ref; refs are ("c"|"v"|"o", index)
    orders: list[list[int]] = []        # per root, its instructions in first-use order
    reached: set[int] = set()           # instructions the current root has used

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
        if ref[0] == "o" and ref[1] not in reached:
            reached.add(ref[1])
            orders[-1].append(ref[1])
        return ref

    def power(base, expo, node):
        if expo[0] == "c" and consts[expo[1]].is_integer():
            return intern((_POWI, base, int(consts[expo[1]])), node)
        return intern((_POW, base, expo), node)

    for root in roots:
        orders.append([])
        reached.clear()
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
    return _Tape(consts, tuple(names), flat, nodes, tuple(roots),
                 [slot(ref_of[id(root)]) for root in roots], orders)


def _lowered(e: Expression) -> _Tape:
    try:
        return e._tape
    except AttributeError:
        tape = _lower((e,))
        object.__setattr__(e, "_tape", tape)
        return tape


def lower(exprs) -> _Tape:
    """One tape for a sequence of expressions, with one output per expression."""
    return _lower(tuple(exprs))


def _domain_error(tape: _Tape, vals: list, message: str, value: float) -> DomainError:
    """Error for the instruction that would write the next slot."""
    return DomainError(message, tape.nodes[len(vals) - tape.base], value)


def _powc(tape: _Tape, vals: list, x: float, p: float) -> float:
    """x^p for an exponent that carries no derivative, as every sweep forms it."""
    if math.isnan(p):
        raise _domain_error(tape, vals, "NaN exponent", p)
    if p == round(p):
        p = int(round(p))
        if x == 0.0 and p < 0:
            raise _domain_error(tape, vals, "zero raised to a negative power", x)
        return float(x ** p)
    if x <= 0.0:
        raise _domain_error(tape, vals, "non-integer power of a non-positive base", x)
    return x ** p


def _dpow(x: float, p: float) -> float | None:
    """d(x^p)/dx for an exponent that carries no derivative, for the column sweep;
    None where the reverse sweeps add nothing (x = 0 and p != 1, where p x^(p-1)
    would be 0 or a pole).  The float reverse sweep inlines the same rule."""
    if p == round(p):
        p = int(round(p))
        if x != 0.0:
            return p * x ** (p - 1)
        return 1.0 if p == 1 else None
    return p * x ** (p - 1.0)


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
                push(_powc(tape, vals, vals[a], vals[b]))
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


def _reverse(tape: _Tape, rev: list[tuple], out: int, vals: list[float]) -> list[float]:
    """Adjoint of every slot (and one spare 0.0 past the end): d out / d slot."""
    adj = [0.0] * (len(vals) + 1)
    adj[out] = 1.0
    try:
        for op, a, b, i in rev:
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
            elif op == _POWI or op == _POWC:  # _dpow's rule, inlined: a call costs 8 % of a grad
                x, p = vals[a], (b if op == _POWI else vals[b])
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
# Column sweeps: the same instructions over a batch of N bindings, each slot
# an (N,) array.  + - * /, negation, abs and sqrt run in numpy, which rounds
# them correctly, as float arithmetic does; exp, ln and the powers run element
# by element through the float sweep's own operations, so libm's bits are
# kept.  Every column entry is therefore bitwise the float sweep's value, and
# a float operation that raises raises here too.  Nothing here picks the
# failing binding or the message: evaluate_all and grad_columns re-run a
# failed batch through the per-expression sweeps for that.
# ---------------------------------------------------------------------------

def _column_forward(tape: _Tape, code: list[tuple], bindings: list[dict]) -> list[np.ndarray]:
    """Column of every slot over the bindings.  numpy does not raise at a zero
    divisor or outside sqrt's domain, so those are checked; the element-wise
    operations raise by themselves where the float sweep's checks do."""
    n = len(bindings)
    try:
        coords = [[float(b[name]) for name in tape.names] for b in bindings]
    except KeyError as exc:
        raise BindError(f"unbound coordinate '{exc.args[0]}'") from None
    inputs = np.empty((tape.base, n))
    inputs[:len(tape.consts)] = np.array(tape.consts).reshape(-1, 1)
    inputs[len(tape.consts):] = np.array(coords).reshape(n, len(tape.names)).T
    vals = list(inputs)
    push = vals.append
    for op, a, b in code:
        x = vals[a]
        if op == _MUL:
            push(x * vals[b])
        elif op == _ADD:
            push(x + vals[b])
        elif op == _SUB:
            push(x - vals[b])
        elif op == _NEG:
            push(-x)
        elif op == _RECIP:
            if not x.all():
                raise _domain_error(tape, vals, "division by zero", 0.0)
            push(1.0 / x)
        elif op == _ABS:
            push(np.abs(x))
        elif op == _SQRT or op == _SQRT0:
            if (x < 0.0).any():
                raise _domain_error(tape, vals, "square root of a negative value", float(x[x < 0.0][0]))
            if op == _SQRT and not x.all():
                raise _domain_error(tape, vals, "square root not differentiable at zero", 0.0)
            push(np.sqrt(x))
        else:  # math.log raises at x <= 0, and 0.0 ** -n at a pole
            xs = x.tolist()
            if op == _POWI:
                push(np.array([float(v ** b) for v in xs]))
            elif op == _POWC:
                push(np.array([_powc(tape, vals, v, p) for v, p in zip(xs, vals[b].tolist())]))
            elif op == _POWV:
                push(np.array([math.exp(p * math.log(v)) for v, p in zip(xs, vals[b].tolist())]))
            elif op == _EXP:
                push(np.array([math.exp(v) for v in xs]))
            else:  # _LN
                push(np.array([math.log(v) for v in xs]))
    return vals


def _column_reverse(rev: list[tuple], out: int, vals: list[np.ndarray], dep: list[bool],
                    adj: np.ndarray) -> None:
    """Fill the zeroed ``adj`` (one row per slot and a spare) with d out / d slot per
    column.  A slot that depends on no differentiated name gets no adjoint: none is read."""
    adj[out] = 1.0
    for op, a, b, i in rev:
        g = adj[i]
        if op == _MUL:
            if dep[a]:
                adj[a] += g * vals[b]
            if dep[b]:
                adj[b] += g * vals[a]
        elif op == _ADD:
            if dep[a]:
                adj[a] += g
            if dep[b]:
                adj[b] += g
        elif op == _SUB:
            if dep[a]:
                adj[a] += g
            if dep[b]:
                adj[b] -= g
        elif op == _NEG:
            adj[a] -= g
        elif op == _RECIP:
            v = vals[i]
            adj[a] -= g * v * v
        elif op == _EXP:
            adj[a] += g * vals[i]
        elif op == _LN:
            adj[a] += g * (1.0 / vals[a])
        elif op == _SQRT:
            adj[a] += g * (0.5 / vals[i])
        elif op == _ABS:  # at x = 0 (or NaN) the row is left as it is, as in the float sweep
            x, row = vals[a], adj[a]
            adj[a] = np.where(x > 0.0, row + g, np.where(x < 0.0, row - g, row))
        elif op == _POWV:
            x, v = vals[a], vals[i]
            if dep[a]:
                adj[a] += g * v * (vals[b] * (1.0 / x))
            adj[b] += g * v * np.array([math.log(u) for u in x.tolist()])
        else:  # _POWI, _POWC; where _dpow adds nothing the row is left as it is
            ps = [b] * len(g) if op == _POWI else vals[b].tolist()
            fs = [_dpow(u, p) for u, p in zip(vals[a].tolist(), ps)]
            row = adj[a]
            term = row + g * np.array([0.0 if f is None else f for f in fs])
            adj[a] = np.where([f is None for f in fs], row, term)


def evaluate_all(tape: _Tape, binding: dict[str, float]) -> list[float]:
    """Every output's value at a binding, from one float sweep over the joint tape.

    Bitwise each output's ``evaluate``.  When the sweep raises or an output is
    not finite, the outputs are re-run through ``evaluate`` one by one, so the
    error is the one the first failing output gives on its own.
    """
    try:
        vals = _forward(tape, tape.value_code, binding)
        values = [vals[k] for k in tape.outs]
        if all(map(math.isfinite, values)):
            return values
    except Exception:
        pass
    return [evaluate(e, binding) for e in tape.roots]


def grad_columns(tape: _Tape, bindings: list[dict[str, float]],
                 wrt: list[str] | tuple[str, ...]) -> np.ndarray:
    """Every output's gradient at every binding, shape (bindings, outputs, len(wrt)).

    One forward sweep over columns of the bindings, then one reverse sweep per
    output; each entry is bitwise that output's ``grad`` at that binding.
    When a sweep raises, the bindings are re-run one by one, and at each the
    outputs one by one, through ``grad``: the error is the first failing
    binding's, and there the first failing output's, with its own message.
    """
    wrt = tuple(wrt)
    code, revs, slots, dep = tape.plan(wrt)
    try:
        with np.errstate(all="ignore"):  # inf and NaN are the float sweeps' values too
            vals = _column_forward(tape, code, bindings)
            adj = np.empty((len(vals) + 1, len(bindings)))
            jac = np.empty((len(revs), len(slots), len(bindings)))
            rows = np.array(slots, dtype=np.intp)
            for k, (out, rev) in enumerate(revs):
                adj.fill(0.0)
                _column_reverse(rev, out, vals, dep, adj)
                jac[k] = adj[rows]
        return jac.transpose(2, 0, 1)
    except Exception:
        per_binding = [[grad(e, b, wrt) for e in tape.roots] for b in bindings]
        return np.array(per_binding).reshape(len(bindings), len(tape.roots), len(wrt))


# ---------------------------------------------------------------------------
# Second-order forward sweep for Hessians, on plain floats.  Per slot it keeps
# the gradient as n floats and the Hessian's upper triangle, row by row, as
# n(n+1)/2 floats, so an instruction costs O(n^2) (Griewank & Walther,
# Evaluating Derivatives, 2nd ed., ch. 13).  Each entry is summed in the order
# of second-order dual-number arithmetic: for u*w, h_ij w + g_i w_j + g_j w_i
# + u w_ij, and for f(u), f' h_ij + f'' g_i g_j.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _triangle(n: int):
    """(i, j) pairs of the upper triangle row by row, and the (n, n) index of its mirror."""
    pairs = tuple((i, j) for i in range(n) for j in range(i, n))
    mirror = [[pairs.index((min(i, j), max(i, j))) for j in range(n)] for i in range(n)]
    return pairs, np.array(mirror, dtype=np.intp).reshape(n, n)


def _chain(fp: float, fpp: float, g: list, h: list, pairs) -> tuple:
    """Gradient and triangle of f(u) from those of u, with f' = fp and f'' = fpp."""
    return [fp * p for p in g], [fp * q + fpp * (g[i] * g[j]) for q, (i, j) in zip(h, pairs)]


def _product(u: float, gu: list, hu: list, w: float, gw: list, hw: list, pairs) -> tuple:
    """Gradient and triangle of u*w."""
    return ([p * w + u * q for p, q in zip(gu, gw)],
            [((q * w + gu[i] * gw[j]) + gu[j] * gw[i]) + u * r
             for q, r, (i, j) in zip(hu, hw, pairs)])


def _second_order(e: Expression, binding: dict[str, float], wrt: tuple[str, ...]) -> tuple:
    """Value, gradient and Hessian upper triangle of ``e`` by one forward sweep over its tape."""
    tape = _lowered(e)
    code = tape.plan(wrt)[0]
    vals = _forward(tape, code, binding)  # the values and the domain checks, as in the other sweeps
    pairs = _triangle(len(wrt))[0]
    zero = [0.0] * len(wrt), [0.0] * len(pairs)  # (gradient, triangle) of a constant
    seed = {name: ([float(j == i) for j in range(len(wrt))], zero[1]) for i, name in enumerate(wrt)}
    jets = [zero] * len(tape.consts) + [seed.get(name, zero) for name in tape.names]
    try:
        for k, (op, a, b) in enumerate(code):
            x, v, (g, h) = vals[a], vals[tape.base + k], jets[a]
            if op == _MUL:
                g, h = _product(x, g, h, vals[b], *jets[b], pairs)
            elif op == _ADD:
                g, h = ([p + q for p, q in zip(u, w)] for u, w in zip(jets[a], jets[b]))
            elif op == _SUB:
                g, h = ([p - q for p, q in zip(u, w)] for u, w in zip(jets[a], jets[b]))
            elif op == _NEG:
                g, h = ([-p for p in u] for u in jets[a])
            elif op == _RECIP:
                v3 = v ** 3
                g, h = ([-p * v * v for p in g],
                        [-q * v * v + 2.0 * (g[i] * g[j]) * v3 for q, (i, j) in zip(h, pairs)])
            elif op == _POWV:  # exp(expo ln x)
                g, h = _chain(1.0 / x, -1.0 / x ** 2, g, h, pairs)
                g, h = _product(vals[b], *jets[b], math.log(x), g, h, pairs)
                g, h = _chain(v, v, g, h, pairs)
            else:
                if op == _POWI or op == _POWC:
                    p = b if op == _POWI else vals[b]
                    if p == round(p):
                        p = int(round(p))
                        if x == 0.0:
                            fp, fpp = (1.0 if p == 1 else 0.0), (2.0 if p == 2 else 0.0)
                        else:
                            fp, fpp = p * x ** (p - 1), p * (p - 1) * x ** (p - 2)
                    else:
                        fp, fpp = p * x ** (p - 1.0), p * (p - 1.0) * x ** (p - 2.0)
                elif op == _EXP:
                    fp = fpp = v
                elif op == _LN:
                    fp, fpp = 1.0 / x, -1.0 / x ** 2
                elif op == _SQRT:
                    fp, fpp = 0.5 / v, -0.25 / (v * x)
                else:  # _ABS
                    fp, fpp = (1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0), 0.0
                g, h = _chain(fp, fpp, g, h, pairs)
            jets.append((g, h))
    except ArithmeticError:
        raise DomainError("floating-point overflow", tape.nodes[k], x) from None
    v, (g, h) = vals[tape.outs[0]], jets[tape.outs[0]]
    # a float product or sum overflows to inf silently; from finite inputs only an overflow gives inf/NaN
    if not (math.isfinite(v) and all(map(math.isfinite, g)) and all(map(math.isfinite, h))):
        raise DomainError("floating-point overflow", e, v)
    return v, g, h


def evaluate(e: Expression, binding: dict[str, float]) -> float:
    """Evaluate at a binding; domain violations raise instead of returning NaN/inf."""
    tape = _lowered(e)
    value = _forward(tape, tape.value_code, binding)[tape.outs[0]]
    if not math.isfinite(value):
        raise DomainError("non-finite result", e, value)
    return value


def grad(e: Expression, binding: dict[str, float], wrt: list[str] | tuple[str, ...]) -> np.ndarray:
    """Exact first derivatives, ordered as ``wrt``, by one reverse sweep."""
    tape = _lowered(e)
    code, ((out, rev),), slots, _ = tape.plan(tuple(wrt))
    adj = _reverse(tape, rev, out, _forward(tape, code, binding))
    return np.array([adj[s] for s in slots])


def hessian(e: Expression, binding: dict[str, float], wrt: list[str] | tuple[str, ...]) -> np.ndarray:
    """Exact second derivatives from a float second-order sweep that stores the upper
    triangle; the lower triangle copies it, so the matrix is symmetric bitwise."""
    wrt = tuple(wrt)
    return np.array(_second_order(e, binding, wrt)[2])[_triangle(len(wrt))[1]]


# ---------------------------------------------------------------------------
# Symbolic derivative trees.  Used to materialize potential-generated 1-form
# coefficients as expressions in their own right (so closeness tests really
# differentiate them again, instead of reading off a Hessian).  One iterative
# walk over the DAG gives every requested partial, a shared subtree's once.
# Only trivial constant folding; no CAS-style simplification.
# ---------------------------------------------------------------------------

def const(v: float) -> Expression:
    return Num(float(v))


def var(name: str) -> Expression:
    return Var(name)


def _is_num(e: Expression, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _fold(op: str, a: Num, b: Num, v: float) -> Expression:
    """Num(v) for an operation on two constants, unless v overflowed: no literal prints inf or NaN."""
    return Num(v) if math.isfinite(v) else Bin(op, a, b)


def add(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold("+", a, b, a.value + b.value)
    return Bin("+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold("-", a, b, a.value - b.value)
    return Bin("-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold("*", a, b, a.value * b.value)
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
    return _partials(e, (name,))[0]


def _partials(e: Expression, names: tuple[str, ...]) -> tuple[Expression, ...]:
    """Partial derivative trees by each of ``names``, from one walk over the DAG."""
    d: dict[int, tuple[Expression, ...]] = {}  # id(node) -> its partials, ordered as names
    for node in _post_order(e):
        operands = _children(node)
        a, b = (*operands, None, None)[:2]  # None past the node's arity
        pairs = zip(*(d[id(k)] for k in operands))
        if isinstance(node, Num):
            out = (Num(0.0),) * len(names)
        elif isinstance(node, Var):
            out = tuple(Num(1.0 if node.name == n else 0.0) for n in names)
        elif isinstance(node, Neg):
            out = tuple(neg(da) for (da,) in pairs)
        elif isinstance(node, Bin) and node.op in "+-":
            out = tuple((add if node.op == "+" else sub)(da, db) for da, db in pairs)
        elif isinstance(node, Bin) and node.op == "*":
            out = tuple(add(mul(da, b), mul(a, db)) for da, db in pairs)
        elif isinstance(node, Bin) and node.op == "/":
            out = tuple(sub(div(da, b), div(mul(a, db), mul(b, b))) for da, db in pairs)
        elif isinstance(node, Bin) or node.fn == "pow":
            # constant exponent: p a^(p-1) a'; else f' = f (b' ln a + b a'/a)
            f, scale = Bin("^", a, b), mul(b, Bin("^", a, sub(b, Num(1.0))))
            out = tuple(mul(scale, da) if _is_num(db, 0.0)
                        else mul(f, add(mul(db, Call("ln", (a,))), div(mul(b, da), a)))
                        for da, db in pairs)
        elif node.fn == "exp":
            out = tuple(mul(node, da) for (da,) in pairs)
        elif node.fn == "ln":
            out = tuple(div(da, a) for (da,) in pairs)
        elif node.fn == "sqrt":
            out = tuple(div(da, mul(Num(2.0), node)) for (da,) in pairs)
        elif node.fn == "abs":  # d|a| = a/|a| da away from zero
            out = tuple(mul(div(a, node), da) for (da,) in pairs)
        else:
            raise ExprError(f"unknown function '{node.fn}'")
        d[id(node)] = out
    return d[id(e)]


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

    def finite_grad(self, binding: dict[str, float], labels: tuple[str, ...],
                    wrt: tuple[str, ...] | None = None) -> np.ndarray:
        """``grad``; an inf or NaN entry is a DomainError naming it by its entry of ``labels``."""
        g = self.grad(binding, wrt)
        for label, v in zip(labels, g.tolist()):
            if not math.isfinite(v):
                raise DomainError(f"non-finite {label}", self.expression, v)
        return g

    def hessian(self, binding: dict[str, float], wrt: tuple[str, ...] | None = None) -> np.ndarray:
        return hessian(self.expression, binding, wrt if wrt is not None else self.coords)

    def partial(self, name: str) -> "ScalarField":
        """Symbolic partial derivative, as a field over the same coordinates."""
        return ScalarField(differentiate(self.expression, name), self.coords)

    def partials(self) -> tuple["ScalarField", ...]:
        """``partial`` by every coordinate, in order, from one walk over the expression."""
        return tuple(ScalarField(d, self.coords) for d in _partials(self.expression, self.coords))

    def __str__(self) -> str:
        return serialize(self.expression)
