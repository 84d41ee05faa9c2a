"""A small expression language over the series builders, for the CLI.

Grammar::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := primary ('^' int)?
    primary := int | rat | 'q' | 'zeta' ('^' int)? | ident '(' args ')' | '(' expr ')'
    args    := (arg (',' arg)*)?      arg := ['-'] int | keyword

A rational literal is a slash directly between digits ("3/4"); with spacing
it parses as division, which evaluates identically.  Functions: E(a), P(a),
T(a,b,l), poch(zpow,qpow,step,count|inf), jac(zpow,qpow,step), U(), V(),
RU(l), RV(l), RHS(id), F(a,b,c,l), G(a,b,c,l), where zpow and the F/G scalar
arguments are powers of the ambient zeta.  Evaluation is exact, over
Q(zeta_ell) at the context precision; all errors carry a byte offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cli import ELL_MAX
from .cyclotomic import QQ, cyclotomic_field, is_prime
from .lambert import E_series, P_series, TSpec, _reduce_p_argument, lambert_T, t_valuation
from .rankgen import IDENTITY_NAMES, eval_f, eval_g, rank_series, rhs_identity
from .series import INF, LaurentSeries, _poch_shift, jacprod, poch


class QExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class QExprEvalError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int
    pos: int = 0


@dataclass(frozen=True)
class RatLit:
    num: int
    den: int
    pos: int = 0


@dataclass(frozen=True)
class Q:
    pos: int = 0


@dataclass(frozen=True)
class Zeta:
    power: int = 1
    pos: int = 0


@dataclass(frozen=True)
class Add:
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True)
class Sub:
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True)
class Mul:
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True)
class Div:
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: int = 0


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: int = 0


# name -> arity; args are integers except the keyword slots noted in eval
FUNCTIONS = {
    "E": 1, "P": 1, "T": 3, "poch": 4, "jac": 3,
    "U": 0, "V": 0, "RU": 1, "RV": 1, "RHS": 1, "F": 4, "G": 4,
}


# -- lexer --------------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            # a slash directly between digits makes a rational literal
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j + 1:k])
                if den == 0:
                    raise QExprSyntaxError(f"malformed number {text[i:k]!r}: zero denominator", i)
                tokens.append(("RAT", (int(text[i:j]), den), i))
                i = k
            else:
                tokens.append(("INT", int(text[i:j]), i))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise QExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


# -- parser -------------------------------------------------------------------


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
            raise QExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise QExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            rhs = self.term()
            node = Add(node, rhs, pos) if op == "+" else Sub(node, rhs, pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.factor()
            node = Mul(node, rhs, pos) if op == "*" else Div(node, rhs, pos)
        return node

    def factor(self):
        node = self.primary()
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            node = Pow(node, self._signed_int(), pos)
        return node

    def _signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("INT")
        return sign * tok[1]

    def primary(self):
        kind, value, pos = self.next()
        if kind == "INT":
            return IntLit(value, pos)
        if kind == "RAT":
            return RatLit(value[0], value[1], pos)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "IDENT":
            if value == "q":
                return Q(pos)
            if value == "zeta":
                power = 1
                if self.peek()[0] == "^":
                    self.next()
                    power = self._signed_int()
                return Zeta(power, pos)
            if value not in FUNCTIONS:
                raise QExprSyntaxError(f"unknown identifier {value!r}", pos)
            self.expect("(")
            args = []
            if self.peek()[0] != ")":
                args.append(self._argument())
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self._argument())
            self.expect(")")
            if len(args) != FUNCTIONS[value]:
                raise QExprSyntaxError(
                    f"{value} takes {FUNCTIONS[value]} argument(s), got {len(args)}", pos)
            return Call(value, tuple(args), pos)
        raise QExprSyntaxError(f"unexpected token {value!r}", pos)

    def _argument(self):
        kind, value, pos = self.peek()
        if kind == "-":
            self.next()
            tok = self.expect("INT")
            return -tok[1]
        if kind == "INT":
            self.next()
            return value
        if kind == "IDENT":
            self.next()
            return value
        raise QExprSyntaxError(f"expected an integer or keyword argument, found {value!r}", pos)


def parse(text: str):
    """Parse a DSL expression into an AST; syntax errors carry the offset."""
    return _Parser(text).parse()


def render(node) -> str:
    """Canonical text for an AST; reparsing yields an equal AST."""
    def prec_of(n):
        if isinstance(n, (Add, Sub)):
            return 1
        if isinstance(n, (Mul, Div)):
            return 2
        if isinstance(n, Pow):
            return 3
        return 4

    def wrap(n, minimum):
        text = render(n)
        return f"({text})" if prec_of(n) < minimum else text

    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, RatLit):
        return f"{node.num}/{node.den}"
    if isinstance(node, Q):
        return "q"
    if isinstance(node, Zeta):
        return "zeta" if node.power == 1 else f"zeta^{node.power}"
    if isinstance(node, Add):
        return f"{wrap(node.left, 1)} + {wrap(node.right, 2)}"
    if isinstance(node, Sub):
        return f"{wrap(node.left, 1)} - {wrap(node.right, 2)}"
    if isinstance(node, Mul):
        return f"{wrap(node.left, 2)}*{wrap(node.right, 3)}"
    if isinstance(node, Div):
        return f"{wrap(node.left, 2)}/{wrap(node.right, 3)}"
    if isinstance(node, Pow):
        base = render(node.base)
        # a bare zeta base would re-parse as Zeta(power); keep the Pow explicit
        if prec_of(node.base) < 4 or isinstance(node.base, Zeta):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.name}({','.join(str(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluator ----------------------------------------------------------------


@dataclass(frozen=True)
class EvalCtx:
    """Ambient cyclotomic order and working precision."""

    ell: int = 5
    prec: int = 60

    def __post_init__(self):
        if self.prec < 1:
            raise ValueError(f"precision must be >= 1, got {self.prec}")
        if self.ell < 3 or not is_prime(self.ell):
            raise ValueError(f"ell must be a prime >= 3, got {self.ell}")


# P(x), T(a, b, l) and a finite poch start near q^(-x^2 / 2), q^(-b^2 / 2) and
# q^(sum of its negative exponents); one needing more than TERMS_MAX terms below
# the precision is refused before it is built (at ell = 5, P(201) has 19,710
# terms and takes 0.9 s, P(451) 100,585 and 25 s), and so is a T whose own l
# is above ELL_MAX, before ``is_prime`` tries it.
TERMS_MAX = 10_000


def _refuse_oversized(node: Call, valuation: int, ctx: EvalCtx) -> None:
    count = ctx.prec - valuation
    if count > TERMS_MAX:
        raise QExprEvalError(f"{render(node)} needs {count} terms below q^{ctx.prec}, "
                             f"more than the cap of {TERMS_MAX}", node.pos)


def _int_args(node, args, count=None):
    vals = args if count is None else args[:count]
    for a in vals:
        if not isinstance(a, int):
            raise QExprEvalError(f"{node.name} needs integer arguments, got {a!r}", node.pos)
    return vals


def _call(node: Call, ctx: EvalCtx) -> LaurentSeries:
    field = cyclotomic_field(ctx.ell)
    name, args = node.name, node.args
    try:
        if name == "E":
            (a,) = _int_args(node, args)
            return E_series(a, ctx.prec)
        if name == "P":
            (a,) = _int_args(node, args)
            if a % ctx.ell:
                _refuse_oversized(node, _reduce_p_argument(a, ctx.ell)[1], ctx)
            return P_series(a, ctx.ell, ctx.prec)
        if name == "T":
            a, b, ell = _int_args(node, args)
            if ell > ELL_MAX:
                raise QExprEvalError(f"{render(node)}: l must be at most {ELL_MAX}, got {ell}", node.pos)
            spec = TSpec(a, b, ell)
            _refuse_oversized(node, t_valuation(spec), ctx)
            return lambert_T(spec, ctx.prec)
        if name == "poch":
            zpow, qpow, step = _int_args(node, args, 3)
            count = args[3]
            if count == "inf":
                count = INF
            elif not isinstance(count, int):
                raise QExprEvalError(f"poch count must be an integer or 'inf', got {count!r}", node.pos)
            if step >= 1 and count != INF:
                _refuse_oversized(node, _poch_shift(qpow, step, count), ctx)
            return poch(field, field.zeta(zpow), qpow, step, count, ctx.prec)
        if name == "jac":
            zpow, qpow, step = _int_args(node, args)
            return jacprod(field, field.zeta(zpow), qpow, step, ctx.prec)
        if name in ("U", "V"):
            return rank_series(name.lower(), "DEFINITION", ctx.prec)
        if name in ("RU", "RV"):
            (ell,) = _int_args(node, args)
            if ell != ctx.ell:
                raise QExprEvalError(
                    f"{name}({ell}) needs the ambient ell to be {ell}; pass --ell {ell}", node.pos)
            return rank_series(name[1].lower(), "LAMBERT", ctx.prec, ell)
        if name == "RHS":
            (ident,) = args
            if ident not in IDENTITY_NAMES:
                raise QExprEvalError(f"unknown identity {ident!r}; expected one of {IDENTITY_NAMES}", node.pos)
            ell = int(ident[2:])
            if ell != ctx.ell:
                raise QExprEvalError(
                    f"RHS({ident}) needs the ambient ell to be {ell}; pass --ell {ell}", node.pos)
            return rhs_identity(ident, ctx.prec)
        if name in ("F", "G"):
            a, b, c, ell = _int_args(node, args)
            if ell != ctx.ell:
                raise QExprEvalError(
                    f"{name}(...,{ell}) needs the ambient ell to be {ell}; pass --ell {ell}", node.pos)
            fn = eval_f if name == "F" else eval_g
            return fn(field.zeta(a), field.zeta(b), field.zeta(c), ctx.prec)
    except QExprEvalError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise QExprEvalError(str(exc), node.pos) from exc
    raise QExprEvalError(f"unknown function {name!r}", node.pos)


def evaluate(node, ctx: EvalCtx) -> LaurentSeries:
    """Evaluate an AST (or expression text) to a series over Q(zeta_ell), exact below ctx.prec.

    Raises QExprEvalError when the expression is known to less precision,
    for example a division by a series of positive valuation.
    """
    if isinstance(node, str):
        node = parse(node)
    field = cyclotomic_field(ctx.ell)

    def ev(n) -> LaurentSeries:
        if isinstance(n, IntLit):
            return LaurentSeries.const(QQ, n.value)
        if isinstance(n, RatLit):
            return LaurentSeries.const(QQ, Fraction(n.num, n.den))
        if isinstance(n, Q):
            return LaurentSeries.monomial(QQ, 1)
        if isinstance(n, Zeta):
            return LaurentSeries.const(field, field.zeta(n.power))
        if isinstance(n, Add):
            return ev(n.left) + ev(n.right)
        if isinstance(n, Sub):
            return ev(n.left) - ev(n.right)
        if isinstance(n, Mul):
            return ev(n.left) * ev(n.right)
        if isinstance(n, Div):
            num, den = ev(n.left), ev(n.right)
            try:
                return num * _inverse_of(den, ctx)
            except (ZeroDivisionError, ValueError) as exc:
                raise QExprEvalError(f"cannot divide: {exc}", n.pos) from exc
        if isinstance(n, Pow):
            base = ev(n.base)
            try:
                if n.exponent < 0:
                    return _inverse_of(base, ctx) ** (-n.exponent)
                return base ** n.exponent
            except (ZeroDivisionError, ValueError) as exc:
                raise QExprEvalError(f"cannot raise to {n.exponent}: {exc}", n.pos) from exc
        if isinstance(n, Call):
            return _call(n, ctx)
        raise TypeError(f"not an AST node: {n!r}")

    out = ev(node).promote(field).truncate(ctx.prec)
    if out.prec < ctx.prec:
        raise QExprEvalError(
            f"the result is exact only below q^{int(out.prec)}, short of the requested "
            f"precision {ctx.prec}", node.pos)
    return out


def _inverse_of(series: LaurentSeries, ctx: EvalCtx) -> LaurentSeries:
    if series.prec == INF:
        # exact polynomial: expand far enough that the final truncation is exact
        return series.inverse(prec=ctx.prec + max(0, -2 * series.valuation) + 1)
    return series.inverse()
