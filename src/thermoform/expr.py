"""Scalar-field expressions over named coordinates with exact derivatives.

Everything downstream (potentials, 1-form coefficients, constitutive laws) is
built from these expressions.  ``parse`` (one operator-precedence loop) and
``serialize`` read one table of infix precedence and associativity
(``_INFIX``); neither recurses, so text nests to any depth.  Each expression
is lowered once, on its first evaluation, to a flat instruction tape with
common subexpressions merged.  Values come from one sweep over plain floats.
Gradients add one reverse (adjoint) sweep, whose cost does not grow with the
number of variables.  Hessians add, per instruction, the second-order rule on
each slot's gradient and its Hessian's upper triangle.  Derivatives are exact,
so curl/closeness residuals are limited only by round-off, not by finite
difference noise.  Leaving a function's real domain, overflow included, raises
DomainError naming the subexpression.

The value, slot, gradient and Hessian sweeps run as kernels (``_VALUES``,
``_SLOTS``, ``_GRAD`` and ``_HESSIAN``): per plan, straight-line Python on
floats, generated from the tape's opcodes and slot numbers, compiled once per
tape shape (a memo keyed on the source text) and kept on the tape.  Constants
and coordinate values are arguments, not text.  Every failure raises from its
instruction's own lines, in instruction order: a domain check with its
message, an overflow from the try around a rule that can overflow.

A tuple of expressions lowers to one tape with one output per expression
(``lower``), merged across them; a single expression is the 1-tuple case.
``evaluate_all`` takes every output's value from one float sweep;
``grad_columns`` runs the gradient kernel at each of a batch of bindings, each
instruction's forward lines once.  Both are bitwise the per-expression
``evaluate`` and ``grad``.  Their kernels run output by output, each output's
new lines in its own order, so the error is the first failing output's (and
binding's), with its own message.
"""
from __future__ import annotations

import math
import struct
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

    def __post_init__(self):  # no literal prints inf or NaN, so serialize round-trips
        if not math.isfinite(self.value):
            raise ExprError(f"a constant must be finite, got {self.value!r}")


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
# Parser: one operator-precedence loop (Dijkstra's shunting-yard) over _INFIX,
# precedence low->high: + - < * / < unary minus < ^ (right assoc) < primary
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


# op -> (precedence, left-associative); unary minus sits at _PREC_UNARY
_INFIX = {"+": (1, True), "-": (1, True), "*": (2, True), "/": (2, True), "^": (4, False)}
_PREC_UNARY, _PREC_ATOM = 3, 5


def _reduce(stack: list, operands: list, above: int) -> None:
    """Apply the stacked operators of precedence >= above; an open group (0) stops it."""
    while stack[-1][0] >= above:
        op = stack.pop()[1]
        if op is None:
            operands[-1] = Neg(operands[-1])
        else:
            right = operands.pop()
            operands[-1] = Bin(op, operands[-1], right)


def parse(text: str) -> Expression:
    """Parse infix text into an expression tree; iterative, so depth is unbounded."""
    tokens = _tokenize(text)
    operands: list[Expression] = []
    # pending operators as (precedence, op), op None for unary minus, and open groups as
    # (0, name, offset, operands below): the whole text (name None), a '(' (name '') or a call
    stack: list[tuple] = [(0, None, 0, 0)]
    i = 0
    while True:
        kind, val, off = tokens[i]  # an operand: unary minus signs, then a primary
        i += 1
        if kind == _TOK_NUM:
            operands.append(Num(val))
        elif kind == _TOK_NAME and tokens[i][1] == "(":
            if val not in _FUNCTIONS:
                raise ParseError(f"unknown function '{val}'", off)
            stack.append((0, val, off, len(operands)))
            i += 1
            continue
        elif kind == _TOK_NAME:
            operands.append(Var(val))
        elif kind == _TOK_OP and val in "-(":
            stack.append((_PREC_UNARY, None) if val == "-" else (0, "", off, len(operands)))
            continue
        else:
            raise ParseError("unexpected token", off, ("literal", "name", "'('", "'-'"))
        while True:  # after an operand: an infix operator, or the innermost group's ',' or ')'
            kind, val, off = tokens[i]
            i += 1
            if kind == _TOK_OP and val in _INFIX:
                prec, left_assoc = _INFIX[val]
                _reduce(stack, operands, prec + (not left_assoc))
                stack.append((prec, val))
                break
            _reduce(stack, operands, 1)
            _, name, at, below = stack[-1]
            if name is None:
                if kind != _TOK_END:
                    raise ParseError("trailing input", off, ("end of input",))
                return operands[0]
            if name and kind == _TOK_OP and val == ",":  # a call's next argument
                break
            if kind != _TOK_OP or val != ")":
                raise ParseError("unexpected token", off, ("')'",))
            stack.pop()
            if name:
                args = tuple(operands[below:])
                del operands[below:]
                if len(args) != _FUNCTIONS[name]:
                    raise ParseError(
                        f"function '{name}' takes {_FUNCTIONS[name]} argument(s), got {len(args)}", at)
                operands.append(Call(name, args))


# ---------------------------------------------------------------------------
# Serialization (minimal parentheses; parse(serialize(e)) == e)
# ---------------------------------------------------------------------------

def _prec(e: Expression) -> int:
    if isinstance(e, Neg) or (isinstance(e, Num) and e.value < 0):
        return _PREC_UNARY  # a negative literal prints with its sign: (-2)^2, not -2^2
    return _INFIX[e.op][0] if isinstance(e, Bin) else _PREC_ATOM


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
        else:  # bare: a left operand of op's precedence if op is left-associative, and a right
            # operand that binds tighter or starts with a unary minus, which nothing splits (x^-y)
            prec, left_assoc = _INFIX[node.op]
            s = wrap(node.left, prec + (not left_assoc)) + node.op + wrap(node.right, min(prec + 1, _PREC_UNARY))
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
    __slots__ = ("consts", "names", "code", "nodes", "base", "roots", "outs", "orders", "ends",
                 "plans", "kernels")

    def __init__(self, consts, names, code, nodes, roots, outs, orders, ends):
        self.consts = consts            # constant slot values
        self.names = names              # coordinate per coordinate slot
        self.code = code                # (op, a, b): operand slots; b is the exponent of _POWI
        self.nodes = nodes              # source node per instruction, for error messages
        self.base = len(consts) + len(names)
        self.roots = roots              # the lowered expressions
        self.outs = outs                # slot per root
        self.orders = orders            # per root, its instructions in its own post-order
        self.ends = ends                # per root, (coordinates, instructions) the roots up to it use
        self.plans: dict = {}
        self.kernels: dict = {}         # (wrt, kind) -> compiled kernel

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

    def kernel(self, wrt: tuple[str, ...] | None, kind: int):
        """plan(wrt)'s compiled kernel of ``kind``, built on first use."""
        key = wrt, kind
        kernel = self.kernels.get(key)
        if kernel is None:
            kernel = self.kernels[key] = _compiled(_source(self, wrt, kind))
        return kernel


def _lower(roots: tuple[Expression, ...]) -> _Tape:
    consts: list[float] = []
    names: list[str] = []
    code: list[tuple] = []
    nodes: list[Expression] = []
    interned: dict[tuple, tuple] = {}   # (op, operand refs) -> ref
    ref_of: dict[int, tuple] = {}       # id(node) -> ref; refs are ("c"|"v"|"o", index)
    orders: list[list[int]] = []        # per root, its instructions in first-use order
    ends: list[tuple[int, int]] = []    # per root, len(names) and len(code) after its walk
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
        ends.append((len(names), len(code)))

    offset = {"c": 0, "v": len(consts), "o": len(consts) + len(names)}

    def slot(ref) -> int:
        return offset[ref[0]] + ref[1]

    flat = [(op, slot(a), b if op == _POWI else 0 if b is None else slot(b)) for op, a, b in code]
    return _Tape(consts, tuple(names), flat, nodes, tuple(roots),
                 [slot(ref_of[id(root)]) for root in roots], orders, ends)


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


# ---------------------------------------------------------------------------
# Kernels.  Each plan is compiled, on first use, into a straight-line Python
# function (source transformation; Griewank & Walther, Evaluating
# Derivatives, 2nd ed., ch. 6) in which slot j is the local v<j> and its
# adjoint a<j>.  The constants, the binding and the coordinate names come in
# as arguments (c, b, n) and are read into locals by index, so the text holds
# only each opcode's operations, slot numbers and _POWI's integer exponent: no
# constant or name is formatted into it, no two literals meet in one
# operation, and a memo keyed on the text compiles each shape once per
# process.  Each instruction's lines do the float operations of its rule in
# the rule's order, and each adjoint starts at 0.0 and accumulates in the
# output's own reverse order.  Every kernel runs output by output: the reads
# and the instructions (domain checks included) that the output's walk added to
# the tape, in that order, which is how a tape of the output alone orders them;
# then, per kind:
#   _VALUES   a check that the output is finite; at the end, the outputs;
#   _SLOTS    nothing; at the end, every slot;
#   _GRAD     the output's reverse sweep; at the end, one flat list of each
#             output's adjoint at the slot of each wrt entry, output by output;
#   _HESSIAN  nothing; at the end, per instruction its second-order rule, then
#             the one output's value, gradient and Hessian row by row, each lower
#             entry its upper-triangle local.
# So the first failure is the first failing output's own.  Every failure
# raises _Fault(instruction, message, value): a domain check from its line, an
# ArithmeticError (overflow in ** or exp, round(inf), a division by an
# underflowed zero) from the try around the lines of a rule that holds one of
# those operations, with the instruction's first operand as the value, and a
# non-finite output j from its check, with ~j for the instruction.
# ---------------------------------------------------------------------------

_VALUES, _SLOTS, _GRAD, _HESSIAN = range(4)


class _Fault(Exception):
    """A kernel's domain check failed or its rule overflowed: (instruction, message, value)."""


# per op, its forward lines; {s} is the slot written, {k} the instruction,
# {a} and {b} the operand slots, or for _POWI {b} the exponent
_POLE = ("if v{a} == 0.0: raise _Fault({k}, 'zero raised to a negative power', v{a})",)
_FORWARD = {
    _MUL: ("v{s} = v{a} * v{b}",),
    _ADD: ("v{s} = v{a} + v{b}",),
    _SUB: ("v{s} = v{a} - v{b}",),
    _NEG: ("v{s} = -v{a}",),
    _POWI: ("v{s} = v{a} ** ({b})",),
    _RECIP: ("if v{a} == 0.0: raise _Fault({k}, 'division by zero', v{a})",
             "v{s} = 1.0 / v{a}"),
    _POWC: ("p = v{b}",
            "if isnan(p): raise _Fault({k}, 'NaN exponent', p)",
            "if p == round(p):",
            " p = int(round(p))",
            " if v{a} == 0.0 and p < 0: raise _Fault({k}, 'zero raised to a negative power', v{a})",
            "elif v{a} <= 0.0: raise _Fault({k}, 'non-integer power of a non-positive base', v{a})",
            "v{s} = v{a} ** p"),
    _POWV: ("if v{a} <= 0.0: raise _Fault({k}, 'variable power of a non-positive base', v{a})",
            "v{s} = exp(v{b} * log(v{a}))"),
    _EXP: ("v{s} = exp(v{a})",),
    _LN: ("if v{a} <= 0.0: raise _Fault({k}, 'logarithm of a non-positive value', v{a})",
          "v{s} = log(v{a})"),
    _ABS: ("v{s} = abs(v{a})",),
    _SQRT: ("if v{a} < 0.0: raise _Fault({k}, 'square root of a negative value', v{a})",
            "if v{a} == 0.0: raise _Fault({k}, 'square root not differentiable at zero', v{a})",
            "v{s} = sqrt(v{a})"),
    _SQRT0: ("if v{a} < 0.0: raise _Fault({k}, 'square root of a negative value', v{a})",
             "v{s} = sqrt(v{a})"),
}
# per op, (operand written: 0 for a, 1 for b; its lines) for each adjoint update;
# {i} is the slot whose adjoint is passed back, {c} _POWI's exponent less one.
# An update to an operand that depends on no wrt name is never read, so it is
# left out (none of those can raise).  At x = 0 with p != 1, d(x^p) adds nothing;
# a _POWI of exponent 1 reverses with _ADD's first update, a{a} += a{i}.
_REVERSE = {
    _MUL: ((0, ("a{a} += a{i} * v{b}",)), (1, ("a{b} += a{i} * v{a}",))),
    _ADD: ((0, ("a{a} += a{i}",)), (1, ("a{b} += a{i}",))),
    _SUB: ((0, ("a{a} += a{i}",)), (1, ("a{b} -= a{i}",))),
    _NEG: ((0, ("a{a} -= a{i}",)),),
    _POWI: ((0, ("if v{a} != 0.0: a{a} += a{i} * (({b}) * v{a} ** ({c}))",)),),
    _RECIP: ((0, ("a{a} -= a{i} * v{i} * v{i}",)),),
    _POWC: ((0, ("p = v{b}",
                 "if p == round(p):",
                 " p = int(round(p))",
                 " if v{a} != 0.0: a{a} += a{i} * (p * v{a} ** (p - 1))",
                 " elif p == 1: a{a} += a{i}",
                 "else: a{a} += a{i} * (p * v{a} ** (p - 1.0))")),),
    _POWV: ((0, ("a{a} += a{i} * v{i} * (v{b} * (1.0 / v{a}))",)),
            (1, ("a{b} += a{i} * v{i} * log(v{a})",))),
    _EXP: ((0, ("a{a} += a{i} * v{i}",)),),
    _LN: ((0, ("a{a} += a{i} * (1.0 / v{a})",)),),
    _ABS: ((0, ("if v{a} > 0.0: a{a} += a{i}", "elif v{a} < 0.0: a{a} -= a{i}")),),
    _SQRT: ((0, ("a{a} += a{i} * (0.5 / v{i})",)),),
}


# per op, its second-order rule (Griewank & Walther, ch. 13): a line in {i} runs per
# gradient index, one in {i} and {j} per triangle pair i <= j (row by row), any other
# once, so an instruction costs O(n^2); g<s>_<i> and h<s>_<i>_<j> are slot s's
# gradient and upper-triangle entries.  Each entry is summed in the order of
# second-order dual-number arithmetic: for u*w, h_ij w + g_i w_j + g_j w_i + u w_ij,
# and for f(u), f' h_ij + f'' g_i g_j, with f' and f'' in f and ff.  Every line runs
# on every jet, a constant's zero one too.
_CHAIN = ("g{s}_{i} = f * g{a}_{i}", "h{s}_{i}_{j} = f * h{a}_{i}_{j} + ff * (g{a}_{i} * g{a}_{j})")
_DPOW = ("if v{a} == 0.0: f, ff = (1.0 if p == 1 else 0.0), (2.0 if p == 2 else 0.0)",
         "else: f, ff = p * v{a} ** (p - 1), p * (p - 1) * v{a} ** (p - 2)")
_SECOND = {
    _MUL: ("g{s}_{i} = g{a}_{i} * v{b} + v{a} * g{b}_{i}",
           "h{s}_{i}_{j} = ((h{a}_{i}_{j} * v{b} + g{a}_{i} * g{b}_{j}) + g{a}_{j} * g{b}_{i})"
           " + v{a} * h{b}_{i}_{j}"),
    _ADD: ("g{s}_{i} = g{a}_{i} + g{b}_{i}", "h{s}_{i}_{j} = h{a}_{i}_{j} + h{b}_{i}_{j}"),
    _SUB: ("g{s}_{i} = g{a}_{i} - g{b}_{i}", "h{s}_{i}_{j} = h{a}_{i}_{j} - h{b}_{i}_{j}"),
    _NEG: ("g{s}_{i} = -g{a}_{i}", "h{s}_{i}_{j} = -h{a}_{i}_{j}"),
    _RECIP: ("w = v{s} ** 3", "g{s}_{i} = -g{a}_{i} * v{s} * v{s}",
             "h{s}_{i}_{j} = -h{a}_{i}_{j} * v{s} * v{s} + 2.0 * (g{a}_{i} * g{a}_{j}) * w"),
    _POWI: ("p = {b}", *_DPOW, *_CHAIN),
    _POWC: ("p = v{b}", "if p == round(p):", " p = int(round(p))", *(" " + line for line in _DPOW),
            "else: f, ff = p * v{a} ** (p - 1.0), p * (p - 1.0) * v{a} ** (p - 2.0)", *_CHAIN),
    _EXP: ("f = ff = v{s}", *_CHAIN),
    _LN: ("f, ff = 1.0 / v{a}, -1.0 / v{a} ** 2", *_CHAIN),
    _SQRT: ("f, ff = 0.5 / v{s}, -0.25 / (v{s} * v{a})", *_CHAIN),
    _ABS: ("f, ff = (1.0 if v{a} > 0.0 else -1.0 if v{a} < 0.0 else 0.0), 0.0", *_CHAIN),
    # exp(expo ln x): the chain through ln, the product with the exponent, the chain through exp
    _POWV: ("f, ff = 1.0 / v{a}, -1.0 / v{a} ** 2", "t{i} = f * g{a}_{i}",
            "t{i}_{j} = f * h{a}_{i}_{j} + ff * (g{a}_{i} * g{a}_{j})", "w = log(v{a})",
            "u{i} = g{b}_{i} * w + v{b} * t{i}",
            "u{i}_{j} = ((h{b}_{i}_{j} * w + g{b}_{i} * t{j}) + g{b}_{j} * t{i}) + v{b} * t{i}_{j}",
            "g{s}_{i} = v{s} * u{i}", "h{s}_{i}_{j} = v{s} * u{i}_{j} + v{s} * (u{i} * u{j})"),
}


def _chunk(lines: tuple[str, ...]) -> str:
    """One rule's lines as one format string, indented into the kernel's body; if they
    hold **, /, exp or round, in a try that raises an ArithmeticError as {k}'s _Fault."""
    if not any(op in line for line in lines for op in ("**", "/", "exp(", "round(")):
        return "\n".join(" " + line for line in lines)
    return "\n".join((" try:", *("  " + line for line in lines),
                      " except ArithmeticError: raise _Fault({k}, 'floating-point overflow', v{a})"))


_FORWARD_CHUNKS = {op: _chunk(lines) for op, lines in _FORWARD.items()}
_POLE_CHUNK = _chunk(_POLE + _FORWARD[_POWI])
_REVERSE_CHUNKS = {op: tuple((operand, _chunk(lines)) for operand, lines in updates)
                   for op, updates in _REVERSE.items()}


@lru_cache(maxsize=None)
def _second_chunks(n: int) -> tuple[dict, tuple[str, ...], tuple[str, ...]]:
    """Per op, its second-order rule for n wrt entries as one format string in {k}, {s},
    {a} and {b}; a slot's jet entries, and its gradient and Hessian row by row (a lower
    entry naming its upper-triangle local), as format strings in {0}."""
    pairs = tuple((i, j) for i in range(n) for j in range(i, n))
    at = ((0, 0),), tuple((i, 0) for i in range(n)), pairs  # by the count of {i} and {j} in a line
    rules = {op: _chunk(tuple(line.format(s="{s}", a="{a}", b="{b}", i=i, j=j) for line in lines
                              for i, j in at[("{i}" in line) + ("{j}" in line)]))
             for op, lines in _SECOND.items()}
    grads = tuple(f"g{{0}}_{i}" for i in range(n))
    rows = tuple(f"h{{0}}_{min(i, j)}_{max(i, j)}" for i in range(n) for j in range(n))
    return rules, grads + tuple(f"h{{0}}_{i}_{j}" for i, j in pairs), grads + rows


def _source(tape: _Tape, wrt: tuple[str, ...] | None, kind: int) -> str:
    """Text of plan(wrt)'s kernel of ``kind``."""
    code, revs, slots, dep = tape.plan(wrt)
    base, ncon = tape.base, len(tape.consts)
    text = ["def kernel(c, b, n):"]
    if ncon:
        text.append(" " + "".join(f"v{j}, " for j in range(ncon)) + "= c")
    read = done = 0  # the coordinates read and instructions emitted for the earlier outputs
    adjoints = ""  # _GRAD: the previous output's list; each earlier one is kept as r<j>, then unpacked
    for j, ((out, rev), (names, length)) in enumerate(zip(revs, tape.ends)):
        # output j's reads and forward lines, those no earlier output emitted, in its own order
        text += [f" v{ncon + i} = float(b[n[{i}]])" for i in range(read, names)]
        for k in range(done, length):
            op, a, b = code[k]
            chunk = _POLE_CHUNK if op == _POWI and b < 0 else _FORWARD_CHUNKS[op]
            text.append(chunk.format(k=k, a=a, b=b, s=base + k))
        read, done = names, length
        if kind == _VALUES:  # v - v is 0.0 unless v is inf or NaN; ~j marks output j's root
            text.append(f" if v{out} - v{out} != 0.0: raise _Fault({~j}, 'non-finite result', v{out})")
        elif kind == _GRAD:
            if j:  # this output's sweep resets the adjoints the previous one returns
                text.append(f" r{j - 1} = [{adjoints}]")
            # the adjoints this output's sweep writes, the only ones it reads
            held = {out, *((a, b)[operand] for op, a, b, _ in rev for operand, _ in _REVERSE_CHUNKS[op]
                           if dep[(a, b)[operand]])}
            if len(held) > 1:
                text.append(" " + "".join(f"a{i} = " for i in sorted(held - {out})) + "0.0")
            text.append(f" a{out} = 1.0")
            for op, a, b, i in rev:
                for operand, chunk in _REVERSE_CHUNKS[_ADD][:1] if op == _POWI and b == 1 else _REVERSE_CHUNKS[op]:
                    if dep[(a, b)[operand]]:
                        text.append(chunk.format(k=i - base, a=a, b=b, c=b - 1 if op == _POWI else None, i=i))
            adjoints = ", ".join(f"a{i}" if i in held else "0.0" for i in slots)
    if kind == _VALUES:
        text.append(" return [" + ", ".join(f"v{j}" for j in tape.outs) + "]")
    elif kind == _SLOTS:
        text.append(" return [" + ", ".join(f"v{j}" for j in range(len(dep))) + "]")
    elif kind == _HESSIAN:
        rules, jet, result = _second_chunks(len(slots))
        # the constants' and coordinates' jets are zero, but for the seed of each wrt entry
        text += [" " + " = ".join(jet).format(j) + " = 0.0" for j in range(base) if jet]
        text += [f" g{j}_{i} = 1.0" for i, j in enumerate(slots) if j < len(dep)]
        for k, (op, a, b) in enumerate(code):
            if rules[op]:  # with no wrt entry, + - * and negation have no lines
                text.append(rules[op].format(k=k, s=base + k, a=a, b=b))
        text.append(" return [" + ", ".join((f"v{tape.outs[0]}",) + result).format(tape.outs[0]) + "]")
    else:
        text.append(" return [" + "".join(f"*r{j}, " for j in range(len(revs) - 1)) + adjoints + "]")
    return "\n".join(text) + "\n"


@lru_cache(maxsize=256)
def _compiled(source: str):
    """The function ``source`` defines; tapes of one shape share it."""
    namespace = {"_Fault": _Fault, "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "isnan": math.isnan}
    exec(compile(source, "<tape kernel>", "exec"), namespace)
    return namespace["kernel"]


def _run(tape: _Tape, kernel, binding: dict[str, float]) -> list[float]:
    """A kernel's result at a binding; an unbound name or a number too large for a float
    is a BindError, and a fault a DomainError naming its instruction's subexpression."""
    try:
        return kernel(tape.consts, binding, tape.names)
    except KeyError as exc:  # only the reads of the binding can raise it
        raise BindError(f"unbound coordinate '{exc.args[0]}'") from None
    except OverflowError:  # likewise only those reads, in names order: each rule's own overflow is a _Fault
        for name in tape.names:
            try:
                float(binding[name])
            except OverflowError:
                raise BindError(f"coordinate '{name}' is too large for a float") from None
        raise
    except _Fault as fault:
        k, message, value = fault.args
        raise DomainError(message, tape.nodes[k] if k >= 0 else tape.roots[~k], value) from None


def _slots(tape: _Tape, wrt: tuple[str, ...] | None, binding: dict[str, float]) -> list[float]:
    """Value of every slot of plan(wrt) at a binding, with the domain checks."""
    return _run(tape, tape.kernel(wrt, _SLOTS), binding)


def evaluate_all(tape: _Tape, binding: dict[str, float]) -> list[float]:
    """Every output's value at a binding, from one float sweep over the joint tape.

    Bitwise each output's ``evaluate``.  The sweep runs output by output, each
    with its finiteness check, so its error is the one the first failing output
    gives on its own.
    """
    return _run(tape, tape.kernel(None, _VALUES), binding)


def grad_columns(tape: _Tape, bindings: list[dict[str, float]],
                 wrt: list[str] | tuple[str, ...]) -> np.ndarray:
    """Every output's gradient at every binding, shape (bindings, outputs, len(wrt)).

    The gradient kernel at each binding in turn runs output by output: its
    forward lines not yet run, then its reverse sweep in its own post-order.  So
    each entry is bitwise that output's ``grad`` at that binding, and the error
    is the first failing binding's, there the first failing output's own.  Each
    binding's flat result is packed as C doubles (exact, so bitwise the floats)
    and numpy reads the joined bytes: a fraction of the cost of converting lists.
    """
    kernel = tape.kernel(tuple(wrt), _GRAD)
    shape = (len(bindings), len(tape.roots), len(wrt))
    pack = struct.Struct(f"{shape[1] * shape[2]}d").pack
    return np.frombuffer(bytearray().join(pack(*_run(tape, kernel, b)) for b in bindings)).reshape(shape)


def _second_order(e: Expression, binding: dict[str, float], wrt: tuple[str, ...]) -> tuple:
    """Value, gradient and Hessian (row by row, bitwise symmetric) of ``e`` from its second-order kernel."""
    tape = _lowered(e)
    out = _run(tape, tape.kernel(wrt, _HESSIAN), binding)
    # a float product or sum overflows to inf silently; from finite inputs only an overflow gives inf/NaN
    if not all(map(math.isfinite, out)):
        raise DomainError("floating-point overflow", e, out[0])
    return out[0], out[1:len(wrt) + 1], out[len(wrt) + 1:]


def evaluate(e: Expression, binding: dict[str, float]) -> float:
    """Evaluate at a binding; domain violations raise instead of returning NaN/inf."""
    tape = _lowered(e)
    return _run(tape, tape.kernel(None, _VALUES), binding)[0]


def grad(e: Expression, binding: dict[str, float], wrt: list[str] | tuple[str, ...]) -> np.ndarray:
    """Exact first derivatives, ordered as ``wrt``, by one reverse sweep."""
    tape = _lowered(e)
    return np.array(_run(tape, tape.kernel(tuple(wrt), _GRAD), binding))


def hessian(e: Expression, binding: dict[str, float], wrt: list[str] | tuple[str, ...]) -> np.ndarray:
    """Exact second derivatives from a float second-order sweep that stores the upper
    triangle; the kernel returns each lower entry as its upper one, so the matrix is symmetric bitwise."""
    wrt = tuple(wrt)
    return np.array(_second_order(e, binding, wrt)[2]).reshape(len(wrt), len(wrt))


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
        return np.array(self.finite_grad_list(binding, labels, wrt))

    def finite_grad_list(self, binding: dict[str, float], labels: tuple[str, ...],
                         wrt: tuple[str, ...] | None = None) -> list[float]:
        """``finite_grad`` as a list of floats."""
        tape = _lowered(self.expression)
        values = _run(tape, tape.kernel(tuple(wrt if wrt is not None else self.coords), _GRAD), binding)
        if not all(map(math.isfinite, values)):
            label, v = next((label, v) for label, v in zip(labels, values) if not math.isfinite(v))
            raise DomainError(f"non-finite {label}", self.expression, v)
        return values

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
