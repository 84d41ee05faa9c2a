"""A small expression language over the series builders, for the CLI.

Grammar::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := primary ('^' ['-'] int)?
    primary := int | int '/' int | 'q' | 'zeta' ('^' ['-'] int)? | ident '(' args ')' | '(' expr ')'
    args    := (arg (',' arg)*)?      arg := ['-'] int | keyword

A rational literal is two integers with a slash and nothing else between them
("3/4").  It is one primary, so it binds before '^': "3/4^2" is (3/4)^2 = 9/16,
while the spaced "3 / 4^2" is the division 3/(4^2) = 3/16.  An exponent is a
bare integer, so "q^2/3" is (q^2)/3.  Functions: E(a), P(a),
T(a,b,l), poch(zpow,qpow,step,count|inf), jac(zpow,qpow,step), U(), V(),
RU(l), RV(l), RHS(id), F(a,b,c,l), G(a,b,c,l), where zpow and the F/G scalar
arguments are powers of the ambient zeta.  Evaluation is exact, over
Q(zeta_ell) at the context precision; all errors carry a byte offset.  A sum of
E/P/T monomials, each node folded once with exact rationals and q-shifts and no
series (``_terms``), is one ``lambert.theta_sum`` table, exact whatever its q-shifts.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .cyclotomic import ELL_MAX, QQ, cyclotomic_field
from .lambert import TSpec, _reduced_factors, block_passes, t_valuation, term_valuation, theta_sum
from .rankgen import IDENTITY_NAMES, eval_f, eval_g, rank_series, rhs_identity
from .record import FrozenRecord
from .series import CLEARED_WITH_MEMOS, INF, LaurentSeries, _poch_shift, jacprod, poch


class QExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class QExprEvalError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# -- AST ----------------------------------------------------------------------


class Num(FrozenRecord):
    __slots__ = ("value", "pos")

    def __init__(self, value: Fraction, pos: int = 0):
        self.value, self.pos = value, pos


class Q(FrozenRecord):
    __slots__ = ("pos",)

    def __init__(self, pos: int = 0):
        self.pos = pos


class Zeta(FrozenRecord):
    __slots__ = ("power", "pos")

    def __init__(self, power: int = 1, pos: int = 0):
        self.power, self.pos = power, pos


class BinOp(FrozenRecord):
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left, right, pos: int = 0):
        self.op, self.left, self.right, self.pos = op, left, right, pos


class Pow(FrozenRecord):
    __slots__ = ("base", "exponent", "pos")

    def __init__(self, base, exponent: int, pos: int = 0):
        self.base, self.exponent, self.pos = base, exponent, pos


class Call(FrozenRecord):
    __slots__ = ("name", "args", "pos")

    def __init__(self, name: str, args: tuple, pos: int = 0):
        self.name, self.args, self.pos = name, args, pos


# an integer, an identifier, an operator or any other character but a space
_TOKEN = re.compile(r"(\d+)|([^\W\d]\w*)|([-+*/^(),])|(\S)")
_RATIONAL = re.compile(r"(\d+)/(\d+)")

# operator -> (binding power, spelling); "/" is spaced so that a rendered
# quotient of two integers is not read back as a rational literal
BINARY = {"+": (1, " + "), "-": (1, " - "), "*": (2, "*"), "/": (2, " / ")}

# name -> arity; args are integers except the keyword slots noted in eval
FUNCTIONS = {
    "E": 1, "P": 1, "T": 3, "poch": 4, "jac": 3,
    "U": 0, "V": 0, "RU": 1, "RV": 1, "RHS": 1, "F": 4, "G": 4,
}


# -- lexer --------------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        digits, ident, op, other = m.groups()
        if other:
            raise QExprSyntaxError(f"unexpected character {other!r}", m.start())
        kind = "INT" if digits else "IDENT" if ident else op
        tokens.append((kind, int(digits) if digits else m[0], m.start()))
    return tokens + [("END", None, len(text))]


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise QExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        try:
            node = self.expr()
        except RecursionError:
            raise QExprSyntaxError("expression nested too deeply", self.peek()[2]) from None
        if (tok := self.peek())[0] != "END":
            raise QExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self, level: int = 1):
        """Left-associated operands joined by the operators of binding power level."""
        operand = self.factor if level == 2 else lambda: self.expr(level + 1)
        node = operand()
        while self.peek()[0] in BINARY and BINARY[self.peek()[0]][0] == level:
            op, _, pos = self.next()
            node = BinOp(op, node, operand(), pos)
        return node

    def factor(self):
        node = self.primary()
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            node = Pow(node, self._signed_int(), pos)
        return node

    def _signed_int(self) -> int:
        if self.peek()[0] == "-":
            self.next()
            return -self.expect("INT")[1]
        return self.expect("INT")[1]

    def primary(self):
        kind, value, pos = self.next()
        if kind == "INT":
            # a slash directly between two integers makes a rational literal,
            # which takes the "/" and INT tokens after this one
            rational = _RATIONAL.match(self.text, pos)
            if not rational:
                return Num(Fraction(value), pos)
            self.i += 2
            den = int(rational[2])
            if not den:
                raise QExprSyntaxError(f"malformed number {rational[0]!r}: zero denominator", pos)
            return Num(Fraction(value, den), pos)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "IDENT":
            if value == "q":
                return Q(pos)
            if value == "zeta" and self.peek()[0] == "^":
                self.next()
                return Zeta(self._signed_int(), pos)
            if value == "zeta":
                return Zeta(1, pos)
            if value not in FUNCTIONS:
                raise QExprSyntaxError(f"unknown identifier {value!r}", pos)
            self.expect("(")
            args = [] if self.peek()[0] == ")" else [self._argument()]
            while args and self.peek()[0] == ",":
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
        if kind == "IDENT":
            self.next()
            return value
        if kind not in ("-", "INT"):
            raise QExprSyntaxError(f"expected an integer or keyword argument, found {value!r}", pos)
        return self._signed_int()


def parse(text: str):
    """Parse a DSL expression into an AST; syntax errors carry the offset."""
    return _Parser(text).parse()


def render(node) -> str:
    """Canonical text for an AST; reparsing yields an equal AST."""
    def prec_of(n):
        return BINARY[n.op][0] if isinstance(n, BinOp) else 3 if isinstance(n, Pow) else 4

    def wrap(n, minimum):
        text = render(n)
        return f"({text})" if prec_of(n) < minimum else text

    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Q):
        return "q"
    if isinstance(node, Zeta):
        return "zeta" if node.power == 1 else f"zeta^{node.power}"
    if isinstance(node, BinOp):
        level, spelling = BINARY[node.op]
        return f"{wrap(node.left, level)}{spelling}{wrap(node.right, level + 1)}"
    if isinstance(node, Pow):
        # a bare zeta base would re-parse as Zeta(power); keep the Pow explicit
        base = render(node.base)
        if prec_of(node.base) < 4 or isinstance(node.base, Zeta):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.name}({','.join(str(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluator ----------------------------------------------------------------


class EvalCtx(FrozenRecord):
    """Ambient cyclotomic order and working precision."""

    __slots__ = ("ell", "prec")

    def __init__(self, ell: int = 5, prec: int = 60):
        if prec < 1:
            raise ValueError(f"precision must be >= 1, got {prec}")
        cyclotomic_field(ell)
        self.ell, self.prec = ell, prec


# P(x), T(a, b, l) and a finite poch start near q^(-x^2 / 2), q^(-b^2 / 2) and
# q^(sum of its negative exponents); one needing more than TERMS_MAX terms below
# the precision is refused before it is built (at ell = 5, P(201) has 19,710
# terms and takes 0.9 s, P(451) 100,585 and 25 s), and so is a T whose own l
# is above ELL_MAX, before ``cyclotomic_field`` tests that it is prime.
TERMS_MAX = 10_000
# One size rule bounds every sum, difference and product, each product of a power's
# squarings or an inverse's Newton steps (all taken by ``_sized``) and each theta-table
# term before it is built: its slots below the precision (all of them for an exact
# polynomial) × ring.width × the bits of a bound on its coordinates and denominator
# (``_bits``) may not exceed POWER_BITS_MAX.  On a 2-core x86 machine 2^1000000 takes
# 0.01 s and (1 + q)^1023 0.06 s; above the cap, (1 + q)^8000 took 42 s, 2^1000000 times
# 30 factors E(1)^2 at prec 10 58-64 s and 1 + q^10000000 peaked at 549 MB.
POWER_BITS_MAX = 1 << 20
_OPERATIONS = {"+": ("a sum", add), "-": ("a difference", sub), "*": ("a product", mul)}


def _bits(slots: int, width: int, bound: int) -> int:
    return slots * width * bound.bit_length()


def _sized(a: LaurentSeries, b: LaurentSeries, op: str = "*") -> LaurentSeries:
    """a op b for op "+", "-" or "*", refused above POWER_BITS_MAX ``_bits``.  A coordinate of a * b
    is at most max|a| max|b| min(len a, len b), times 2 width - 1 when reducing mod the cyclotomic
    polynomial adds raw ones; of a ± b, max|a| den b or max|b| den a, or their sum if they overlap."""
    if a.data and b.data:
        (wa, la, ma), (wb, lb, mb) = ((s.ring.width, len(s.data) // s.ring.width,
                                       max(s.den, max(map(abs, s.data)))) for s in (a, b))
        if op == "*":
            slots = min(la + lb - 1, a.prec - a.valuation, b.prec - b.valuation)
            bound = ma * mb * min(la, lb) * (2 * min(wa, wb) - 1)
        else:
            lo, hi = min(a.valuation, b.valuation), max(a.valuation + la, b.valuation + lb)
            slots, pair = min(hi, a.prec, b.prec) - lo, (ma * b.den, mb * a.den)
            bound = sum(pair) if hi - lo < la + lb else max(pair)
        if (need := _bits(slots, max(wa, wb), bound)) > POWER_BITS_MAX:
            raise ValueError(f"{_OPERATIONS[op][0]} of {la} and {lb} terms needs {need} bits, "
                             f"more than the cap of {POWER_BITS_MAX}")
    return _OPERATIONS[op][1](a, b)


def _refuse_oversized(node, need: int, cap: int, unit: str) -> None:
    if need > cap:
        raise QExprEvalError(f"{render(node)} needs {need} {unit}, more than the cap of {cap}", node.pos)


def _int_args(node, args, count=None):
    vals = args if count is None else args[:count]
    for a in vals:
        if not isinstance(a, int):
            raise QExprEvalError(f"{node.name} needs integer arguments, got {a!r}", node.pos)
    return vals


def _call(node: Call, ctx: EvalCtx) -> LaurentSeries:
    field = cyclotomic_field(ctx.ell)
    name, args = node.name, node.args
    # RU(l), RV(l), RHS(id) and F/G(..., l) are series over Q(zeta_l) at their own l
    if name == "RHS" and args[0] not in IDENTITY_NAMES:
        raise QExprEvalError(f"unknown identity {args[0]!r}; expected one of {IDENTITY_NAMES}", node.pos)
    if name in ("RU", "RV", "RHS", "F", "G"):
        ell = int(args[0][2:]) if name == "RHS" else _int_args(node, args)[-1]
        if ell != ctx.ell:
            raise QExprEvalError(f"{render(node)} needs the ambient ell to be {ell}; pass --ell {ell}",
                                 node.pos)
    try:
        if name in ("poch", "jac"):
            zpow, qpow, step = _int_args(node, args, 3)
            # at zeta^zpow = 1 the product is rational; ``evaluate`` promotes it
            ring, c = (QQ, 1) if zpow % ctx.ell == 0 else (field, field.zeta(zpow))
            if name == "jac":
                return jacprod(ring, c, qpow, step, ctx.prec)
            count = args[3]
            if count == "inf":
                count = INF
            elif not isinstance(count, int):
                raise QExprEvalError(f"poch count must be an integer or 'inf', got {count!r}", node.pos)
            if step >= 1 and count != INF:
                _refuse_oversized(node, ctx.prec - _poch_shift(qpow, step, count), TERMS_MAX,
                                  f"terms below q^{ctx.prec}")
            return poch(ring, c, qpow, step, count, ctx.prec)
        if name in ("U", "V"):
            return rank_series(name.lower(), "DEFINITION", ctx.prec)
        if name in ("RU", "RV"):
            return rank_series(name[1].lower(), "LAMBERT", ctx.prec, ctx.ell)
        if name == "RHS":
            return rhs_identity(args[0], ctx.prec)
        if name in ("F", "G"):
            return (eval_f if name == "F" else eval_g)(*map(field.zeta, args[:3]), ctx.prec)
    except QExprEvalError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise QExprEvalError(str(exc), node.pos) from exc
    raise QExprEvalError(f"unknown function {name!r}", node.pos)


# -- the monomial fold: sums of E/P/T monomials as one theta_sum table ---------


def _theta_call(node: Call, ctx: EvalCtx):
    """The monomial of an E, P or T call, refused as the lone call always was."""
    args, name = _int_args(node, node.args), node.name
    if name == "T" and args[2] > ELL_MAX:
        raise QExprEvalError(f"{render(node)}: l must be at most {ELL_MAX}, got {args[2]}", node.pos)
    try:
        # at power -1 a P(x) with ell | x raises, as it does alone, and the shift is negated
        need = -t_valuation(TSpec(*args)) if name == "T" else _reduced_factors(ctx.ell, 0, ((name, *args, -1),))[1]
    except ValueError as exc:
        raise QExprEvalError(str(exc), node.pos) from exc
    if name != "E":
        _refuse_oversized(node, ctx.prec + need, TERMS_MAX, f"terms below q^{ctx.prec}")
    return [Fraction(1), 0, {} if name == "T" else {(name, *args): 1}, args if name == "T" else None]


def _height(c: Fraction) -> int:
    return max(abs(c.numerator), c.denominator)


def _terms(node, ctx: EvalCtx, memo: dict):
    """node as monomials [c, s, {(kind, x): k}, (a, b, l) or None, origin, prec] of c q^s T(a, b, l)
    prod E(x)^k P(x)^k, prec the generic path's for a term with no call; a None term is left generic,
    None any other node.  Memoized by id beside the node, which keeps the id."""
    if id(node) in memo:
        return memo[id(node)][1]
    terms = None
    if isinstance(node, Num):
        terms = [[node.value, 0, {}, None, node, INF]]
    elif isinstance(node, Q):
        terms = [[Fraction(1), 1, {}, None, node, INF]]
    elif isinstance(node, Call) and node.name in ("E", "P", "T"):
        terms = [[*_theta_call(node, ctx), node, INF]]
    elif isinstance(node, BinOp) and node.op in "+-":
        # a chain of sums folds bottom-up into one list each holds; only the outermost is read again
        chain = [node]
        while isinstance(kid := chain[-1].left, BinOp) and kid.op in "+-" and id(kid) not in memo:
            chain.append(kid)
        terms = _terms(chain[-1].left, ctx, memo)
        terms = terms and list(terms)
        for n in reversed(chain):
            right = terms and _terms(n.right, ctx, memo)
            if right:
                terms += right if n.op == "+" else [t and [-t[0], *t[1:]] for t in right]
            terms = right and terms
            memo[id(n)] = n, terms
    elif isinstance(node, (BinOp, Pow)):
        left = _terms(node.base if isinstance(node, Pow) else node.left, ctx, memo)  # a frame a level
        right = left if isinstance(node, Pow) or left is None else _terms(node.right, ctx, memo)
        if right is not None and len(left) == len(right) == 1:  # else a sum inside: None
            terms = [_combine(node, left[0], right[0], ctx, memo)]
    memo[id(node)] = node, terms
    return terms


def _combine(n, a, b, ctx: EvalCtx, memo: dict):
    """a op b or a^k as one term, c and s exact; None for a None term, two T's, a 0 with a call, or
    a refusal for terms with no call (``_power``, ``_sized`` by heights), which ``_eval`` raises."""
    if a is None or b is None:
        return None
    if isinstance(n, Pow):
        term = _power(a, n.exponent, n, ctx)
        refused = term is None and not (a[2] or a[3])
    else:
        c = b if n.op == "*" else _power(b, -1, n, ctx)  # b or 1/b
        scalars = not (a[2] or a[3] or b[2] or b[3])
        refused = (c is None and not (b[2] or b[3])) or (scalars and a[0] and b[0] and (
            _height(a[0]) * _height(b[0])).bit_length() > POWER_BITS_MAX)
        term = None if refused or c is None or (a[3] and b[3]) or not (scalars or a[0] and b[0]) else [
            a[0] * c[0], a[1] + c[1], {f: a[2].get(f, 0) + c[2].get(f, 0) for f in a[2] | c[2]},
            a[3] or b[3], n, min(a[5] + c[1], c[5] + a[1]) if a[0] and b[0] else INF]
    if refused:
        _eval(n, ctx, memo, False)  # raises the refusal, or gives x^0 = 0 for x known below q^0 only
    return term


def _power(term, k: int, node, ctx: EvalCtx):
    """The term^k; None for a T raised or inverted, a power but +-1 of a c but +-1 with a call, or
    a term with no call that the generic path refuses (the inverse of 0 or of an exact q^s past
    TERMS_MAX terms, squarings past POWER_BITS_MAX bits) or truncates to 0 (x^0, x not known at q^0)."""
    c, s, powers, lam, _, prec = term
    if (lam and k != 1) or (not c and k < 0) or (abs(k) > 1 and abs(c) != 1 and (
            powers or abs(k) * (_height(c).bit_length() - 1) >= POWER_BITS_MAX)):
        return None
    if not (powers or lam):  # the precision of b^k in ``_eval``
        if k < 0 and prec == INF and ctx.prec + 1 - k * s > TERMS_MAX or k == 0 and prec <= 0:
            return None
        prec = ctx.prec + 1 if k < 0 and prec == INF else prec + (k - 1) * s if k else prec
    c **= k
    return None if abs(k) > 1 and _height(c).bit_length() > POWER_BITS_MAX else [
        c, s * k, {f: p * k for f, p in powers.items()}, lam, node, prec]


def _theta_table(node, ctx: EvalCtx, memo: dict):
    """(ell, terms) for ``theta_sum`` of node's monomials if one has an E, P or T call, each term one
    FactorBlock of n = ctx.prec - its valuation terms; None (generic) for a 0 c, a term of more passes
    (``lambert.block_passes``) than terms or of more than max(TERMS_MAX, ctx.prec), or two l."""
    monomials = _terms(node, ctx, memo)
    if not monomials or not all(m and m[0] for m in monomials) or not any(m[2] or m[3] for m in monomials):
        return None
    terms = [(c, s, tuple((kind, x, k) for (kind, x), k in powers.items() if k), lam and lam[:2])
             for c, s, powers, lam, *_ in monomials]
    ells = {m[3][2] for m in monomials if m[3]} | {ctx.ell for t in terms if any(f[0] == "P" for f in t[2])}
    if len(ells) > 1:
        return None
    ell = min(ells, default=ctx.ell)
    for m, term in zip(monomials, terms):
        n = ctx.prec - term_valuation(ell, term)
        if block_passes(_reduced_factors(ell, 0, term[2])[2], n) > max(n, 0) or n > max(TERMS_MAX, ctx.prec):
            return None
        _refuse_oversized(m[4], _bits(max(n, 0), 1, _height(term[0])), POWER_BITS_MAX, "bits")
    return ell, terms


def _plan(n, ctx: EvalCtx, memo: dict, lower: bool = True):
    """(table, lower) of node n: its ``_theta_table``, None where n is evaluated node by node, and
    whether the nodes below n are lowered (below a monomial sum left generic only calls are)."""
    if isinstance(n, Call) or (lower and isinstance(n, (BinOp, Pow))):
        lower = _terms(n, ctx, memo) is None
        return _theta_table(n, ctx, memo), lower
    return None, lower


def _eval(n, ctx: EvalCtx, memo: dict, lower: bool = True, plan=None) -> LaurentSeries:
    """The generic path: n by series operations, but a node ``_theta_table`` lowers is one ``theta_sum``;
    plan is n's ``_plan`` where it is known."""
    if isinstance(n, Num):
        return LaurentSeries.const(QQ, n.value)
    if isinstance(n, Q):
        return LaurentSeries.monomial(QQ, 1)
    if isinstance(n, Zeta):
        return LaurentSeries.const(field := cyclotomic_field(ctx.ell), field.zeta(n.power))
    table, lower = plan or _plan(n, ctx, memo, lower)
    if table is not None:
        return theta_sum(*table, ctx.prec)
    if isinstance(n, BinOp):
        left, right = _eval(n.left, ctx, memo, lower), _eval(n.right, ctx, memo, lower)
        try:
            return _sized(left, _inverse_of(right, ctx)) if n.op == "/" else _sized(left, right, n.op)
        except (ZeroDivisionError, ValueError) as exc:
            raise QExprEvalError(f"cannot divide: {exc}" if n.op == "/" else str(exc), n.pos) from exc
    if isinstance(n, Pow):
        base, k = _eval(n.base, ctx, memo, lower), n.exponent
        try:
            # an exact b^-k at valuation v > 0 is 1/b^|k|, cheaper than (|k| - 1) v more terms of 1/b
            if k < 0 and base.prec == INF and base.valuation > 0:
                return _inverse_of(base.power(-k, _sized), ctx)
            if k < 0:
                base, k = _inverse_of(base, ctx), -k
            return base.power(k, _sized)
        except (ZeroDivisionError, ValueError) as exc:
            raise QExprEvalError(f"cannot raise to {n.exponent}: {exc}", n.pos) from exc
    if isinstance(n, Call):
        return _call(n, ctx)
    raise TypeError(f"not an AST node: {n!r}")


# -- the text cache -----------------------------------------------------------

# ``evaluate`` keeps the parsed tree, the root's ``_plan`` and the fold memo of the
# last SESSION_MAX expression texts, keyed on (text, ctx): a repeat skips the parse
# and the fold, and a root lowered to one table is then a ``theta_sum`` memo hit.
SESSION_MAX = 256


@lru_cache(maxsize=SESSION_MAX)
def _prepared(node, ctx: EvalCtx):
    """(tree, plan, memo) of a text or an AST: the root's ``_plan`` and the fold memo that found it,
    which each evaluation of the tree goes on filling; ``evaluate`` calls it through the cache for a
    text only.  An error leaves no entry."""
    tree = parse(node) if isinstance(node, str) else node
    memo = {}
    try:
        return tree, _plan(tree, ctx, memo), memo
    except RecursionError:
        raise QExprEvalError("expression nested too deeply", tree.pos) from None


CLEARED_WITH_MEMOS.append(_prepared)


def evaluate(node, ctx: EvalCtx) -> LaurentSeries:
    """Evaluate an AST (or expression text) to a series over Q(zeta_ell), exact below ctx.prec.

    Raises QExprEvalError when the expression is known to less precision,
    for example a division by a series of positive valuation.  A text whose
    parse and fold succeed is kept in the text cache, even when its evaluation
    is then refused, which every repeat raises again; a syntax error or a
    refusal in the fold is not kept, and an AST is evaluated afresh.
    """
    tree, plan, memo = (_prepared if isinstance(node, str) else _prepared.__wrapped__)(node, ctx)
    try:
        out = _eval(tree, ctx, memo, plan=plan).promote(cyclotomic_field(ctx.ell)).truncate(ctx.prec)
    except RecursionError:
        raise QExprEvalError("expression nested too deeply", tree.pos) from None
    if out.prec < ctx.prec:
        raise QExprEvalError(f"the result is exact only below q^{int(out.prec)}, short of the requested "
                             f"precision {ctx.prec}", tree.pos)
    return out


def _inverse_of(series: LaurentSeries, ctx: EvalCtx) -> LaurentSeries:
    """1/series, its Newton products taken by ``_sized``."""
    if series.prec != INF:
        return series.inverse(product=_sized)  # as many terms as the series knows
    # an exact polynomial from q^v: prec + v terms, so that the final truncation is exact
    prec = ctx.prec + max(0, -2 * series.valuation) + 1
    if series.data and prec + series.valuation > TERMS_MAX:
        raise ValueError(f"the inverse of an exact polynomial from q^{series.valuation} needs "
                         f"{prec + series.valuation} terms, more than the cap of {TERMS_MAX}")
    return series.inverse(prec=prec, product=_sized)
