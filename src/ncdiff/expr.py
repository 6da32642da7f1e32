"""Expression language for algebra elements and forms.

Grammar (loosest to tightest binding): sums, wedge ``/\\``, products ``*``,
integer powers ``^``, adjoint suffix ``'``.  Atoms are numbers (``2``,
``1.5``, ``3i``, ``i``), generator names (``U1..Um`` or ``U``/``V``/``W``),
parenthesized expressions, commutator brackets ``[x, y]``, ``delta(x)`` and
``theta_hat(s, t, x)``.

AST: :func:`parse` builds a tree of twelve node classes (``Num``, ``Gen``,
``Adj``, ``Pow``, ``Neg``, ``Mul``, ``Add``, ``Sub``, ``Wedge``, ``Comm``,
``Delta``, ``ThetaHat``).  A node is built from its fields by position or
keyword, cannot be assigned to, equals and hashes alike with a node of its
class with equal fields, and prints as
``Add(left=Gen(name='U'), right=Num(value=2j))``.  The classes share the
package's one tuple record base, :class:`ncdiff.carrier._Node`, and generate
no code at import; as frozen dataclasses, which write out and exec five
methods each, they took half of ncdiff's import.
"""

from __future__ import annotations

import cmath
import math
import re

from .carrier import _new_tuple, _Node, commutator
from .forms import DifferentialBasis, DifferentialForm, delta as form_delta, wedge as form_wedge
from .qlattice import QAlgebraSpec, QElement, theta_hat


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    pass


# -- AST ---------------------------------------------------------------------

class Num(_Node):
    def __new__(cls, value: complex):
        return _new_tuple(cls, (cls, value))


class Gen(_Node):
    def __new__(cls, name: str):
        return _new_tuple(cls, (cls, name))


class Adj(_Node):
    def __new__(cls, arg):
        return _new_tuple(cls, (cls, arg))


class Pow(_Node):
    def __new__(cls, arg, exponent: int):
        return _new_tuple(cls, (cls, arg, exponent))


class Neg(_Node):
    def __new__(cls, arg):
        return _new_tuple(cls, (cls, arg))


class Mul(_Node):
    def __new__(cls, left, right):
        return _new_tuple(cls, (cls, left, right))


class Add(_Node):
    def __new__(cls, left, right):
        return _new_tuple(cls, (cls, left, right))


class Sub(_Node):
    def __new__(cls, left, right):
        return _new_tuple(cls, (cls, left, right))


class Wedge(_Node):
    def __new__(cls, left, right):
        return _new_tuple(cls, (cls, left, right))


class Comm(_Node):
    def __new__(cls, left, right):
        return _new_tuple(cls, (cls, left, right))


class Delta(_Node):
    def __new__(cls, arg):
        return _new_tuple(cls, (cls, arg))


class ThetaHat(_Node):
    def __new__(cls, s: float, t: float, arg):
        return _new_tuple(cls, (cls, s, t, arg))


# -- lexer ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?i?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<wedge>/\\)
  | (?P<op>[+\-*^'()\[\],])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            if kind == "op" or kind == "wedge":
                tokens.append((m.group(), m.group(), pos))
            else:
                tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return node

    def sum(self):
        node = self.wedge()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.wedge()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def wedge(self):
        node = self.product()
        while self.peek()[0] == "/\\":
            self.next()
            node = Wedge(node, self.product())
        return node

    def product(self):
        node = self.unary()
        while self.peek()[0] == "*":
            self.next()
            node = Mul(node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.unary())
        return self.postfix()

    def postfix(self):
        node = self.atom()
        while True:
            kind = self.peek()[0]
            if kind == "'":
                self.next()
                node = Adj(node)
            elif kind == "^":
                self.next()
                node = Pow(node, self._int())
            else:
                return node

    def _int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("number")
        if not re.fullmatch(r"\d+", tok[1]):
            raise ExprSyntaxError("exponent must be an integer", tok[2])
        return sign * int(tok[1])

    def _finite(self, tok) -> float:
        x = float(tok[1].removesuffix("i"))
        if not math.isfinite(x):
            raise ExprSyntaxError(f"number {tok[1]!r} is out of range", tok[2])
        return x

    def _number_value(self, tok) -> complex:
        x = self._finite(tok)
        return complex(0.0, x) if tok[1].endswith("i") else complex(x, 0.0)

    def _float_arg(self) -> float:
        sign = 1.0
        if self.peek()[0] == "-":
            self.next()
            sign = -1.0
        tok = self.expect("number")
        if tok[1].endswith("i"):
            raise ExprSyntaxError("expected a real number", tok[2])
        return sign * self._finite(tok)

    def atom(self):
        tok = self.next()
        kind, text, pos = tok
        if kind == "number":
            return Num(self._number_value(tok))
        if kind == "ident":
            if text == "i":
                return Num(1j)
            if text == "delta":
                self.expect("(")
                arg = self.sum()
                self.expect(")")
                return Delta(arg)
            if text == "theta_hat":
                self.expect("(")
                s = self._float_arg()
                self.expect(",")
                t = self._float_arg()
                self.expect(",")
                arg = self.sum()
                self.expect(")")
                return ThetaHat(s, t, arg)
            return Gen(text)
        if kind == "(":
            node = self.sum()
            self.expect(")")
            return node
        if kind == "[":
            left = self.sum()
            self.expect(",")
            right = self.sum()
            self.expect("]")
            return Comm(left, right)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse(text: str):
    """Parse an expression into its AST; raises ExprSyntaxError with position."""
    return _Parser(text).parse()


# -- evaluation ----------------------------------------------------------------

_ALIASES = {"U": 1, "V": 2, "W": 3}


class EvalContext:
    """Carries the active presentation and the optional differential basis."""

    def __init__(self, spec: QAlgebraSpec, basis: DifferentialBasis | None = None):
        self.spec = spec
        self.basis = basis

    def resolve(self, name: str) -> QElement:
        m = re.fullmatch(r"U(\d+)", name)
        if m:
            idx = int(m.group(1))
        elif name in _ALIASES:
            idx = _ALIASES[name]
        else:
            raise EvalError(f"unknown generator {name!r}")
        if not 1 <= idx <= self.spec.generator_count:
            raise EvalError(f"generator {name!r} out of range for "
                            f"{self.spec.generator_count} generators")
        return QElement.generator(self.spec, idx)


def _as_element(x, ctx: EvalContext) -> QElement:
    if isinstance(x, QElement):
        return x
    if isinstance(x, complex):
        return QElement.one(ctx.spec).scale(x)
    raise EvalError("expected an algebra element, got a form")


def _as_form(x, ctx: EvalContext) -> DifferentialForm:
    if isinstance(x, DifferentialForm):
        return x
    if ctx.basis is None:
        raise EvalError("a differential basis is required for form expressions")
    return DifferentialForm.from_element(ctx.basis, _as_element(x, ctx))


def _mono_inverse(a: QElement) -> QElement:
    if len(a.terms) != 1:
        raise EvalError("negative powers need a single-monomial element")
    (e, c), = a.terms.items()
    inv = QElement.monomial(a.spec, e).adjoint()
    return inv.scale(1.0 / c)


def evaluate(node, ctx: EvalContext):
    """Evaluate an AST to a QElement or a DifferentialForm."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Gen):
        return ctx.resolve(node.name)
    if isinstance(node, Neg):
        return -evaluate(node.arg, ctx)
    if isinstance(node, Adj):
        v = evaluate(node.arg, ctx)
        if isinstance(v, complex):
            return v.conjugate()
        if isinstance(v, QElement):
            return v.adjoint()
        raise EvalError("adjoint of a form is the star operation; not exposed here")
    if isinstance(node, Pow):
        v = evaluate(node.arg, ctx)
        k = node.exponent
        if isinstance(v, complex):
            try:
                return v ** k
            except (ZeroDivisionError, OverflowError) as exc:
                raise EvalError(f"{v} ^ {k}: {exc}") from None
        v = _as_element(v, ctx)
        if k == 0:
            return QElement.one(ctx.spec)
        base = v if k > 0 else _mono_inverse(v)
        # square-and-multiply from the top bit: |k| <= 3 multiplies left to right
        out = base
        for bit in bin(abs(k))[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out
    if isinstance(node, (Add, Sub)):
        a = evaluate(node.left, ctx)
        b = evaluate(node.right, ctx)
        if isinstance(a, DifferentialForm) or isinstance(b, DifferentialForm):
            a, b = _as_form(a, ctx), _as_form(b, ctx)
        else:
            a, b = _as_element(a, ctx), _as_element(b, ctx)
        return a + b if isinstance(node, Add) else a - b
    if isinstance(node, Mul):
        a = evaluate(node.left, ctx)
        b = evaluate(node.right, ctx)
        if isinstance(a, complex) and isinstance(b, complex):
            return a * b
        if isinstance(a, complex):
            return b.scale(a)
        if isinstance(b, complex):
            return a.scale(b)
        if isinstance(a, DifferentialForm) or isinstance(b, DifferentialForm):
            raise EvalError("use /\\ to multiply forms")
        return a * b
    if isinstance(node, Wedge):
        a = _as_form(evaluate(node.left, ctx), ctx)
        b = _as_form(evaluate(node.right, ctx), ctx)
        return form_wedge(a, b)
    if isinstance(node, Comm):
        a = _as_element(evaluate(node.left, ctx), ctx)
        b = _as_element(evaluate(node.right, ctx), ctx)
        return commutator(a, b)
    if isinstance(node, Delta):
        return form_delta(_as_form(evaluate(node.arg, ctx), ctx))
    if isinstance(node, ThetaHat):
        a = _as_element(evaluate(node.arg, ctx), ctx)
        return theta_hat(node.s, node.t, a)
    raise TypeError(f"not an AST node: {node!r}")


def check_finite(value) -> None:
    """Raise EvalError when an evaluated value holds an inf or a nan.

    Looks at the scalar, at every coefficient of an element, or at every
    coefficient of every element coefficient of a form.
    """
    if isinstance(value, DifferentialForm):
        coeffs = [c for a in value.terms.values() for c in a.terms.values()]
    elif isinstance(value, QElement):
        coeffs = value.terms.values()
    else:
        coeffs = [value]
    if not all(cmath.isfinite(c) for c in coeffs):
        raise EvalError("the result is not finite: a coefficient overflowed")


# -- element pretty printer ------------------------------------------------------

def _gen_label(j: int, m: int) -> str:
    if m <= 3:
        return "UVW"[j]
    return f"U{j + 1}"


def format_element(a: QElement) -> str:
    """Human-readable normal form, sorted by exponents."""
    if not a.terms:
        return "0"
    m = a.spec.generator_count
    parts = []
    for e in sorted(a.terms):
        c = a.terms[e]
        factors = [f"{_gen_label(j, m)}^{x}" if x != 1 else _gen_label(j, m)
                   for j, x in enumerate(e) if x != 0]
        mono = "*".join(factors) if factors else "1"
        if c.imag == 0:
            cs = f"{c.real:.12g}"
        elif c.real == 0:
            cs = f"{c.imag:.12g}i"
        else:
            cs = f"({c.real:.12g}{c.imag:+.12g}i)"
        parts.append(f"{cs}*{mono}" if mono != "1" else cs)
    return " + ".join(parts)


def format_form(alpha: DifferentialForm) -> str:
    if not alpha.terms:
        return "0"
    bits = []
    for (I, J) in sorted(alpha.terms, key=lambda k: (len(k[0]) + len(k[1]), k)):
        a = alpha.terms[(I, J)]
        covs = [f"dU{i + 1}" for i in I] + [f"dU{j + 1}*" for j in J]
        label = "^".join(covs) if covs else "1"
        body = format_element(a) if isinstance(a, QElement) else repr(a)
        bits.append(f"({body}) {label}".strip())
    return "  +  ".join(bits)
