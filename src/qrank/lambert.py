"""Generalized Lambert series T(a,b,l) and the P/E product shorthands.

T(a,b,l) = sum_{n in Z} (-1)^n q^(l^2 n(n+1)/2 + l b n) / (1 - q^(l^2 n + l a)),
with a not divisible by l so no denominator vanishes.  E(a) = (q^a; q^a)_inf.
P(a) = (q^(l a); q^(l^2))_inf (q^(l^2 - l a); q^(l^2))_inf for 0 < a < l; out
of that range the symmetries P(-a) = -q^(-l a) P(a) and P(l + a) = P(-a)
reduce the argument first, producing honest Laurent series with negative
valuation where identities demand them.

``theta_sum`` evaluates tables of terms c q^s T(a, b, l) prod E(x)^k P(x)^k,
each E/P product one in-place FactorBlock with no Newton inverse, an E(x)^k
with k > 0 multiplied by Euler's pentagonal series;
``P_series`` is such a table, and so is every identity in
``rankgen.IDENTITY_CATALOGUE``.

``lambert_T``, ``E_series``, ``P_series`` and the E/P products (``_product``,
keyed on the sorted factor ranges, so P(1)P(2) and P(2)P(1) share an entry)
are ``series.memo`` builders: one build per key, the longest asked for, and a
lower precision is its truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import QQ, cyclotomic_field
from .series import INF, FactorBlock, LaurentSeries, memo, poch


@dataclass(frozen=True)
class TSpec:
    """Parameters of a generalized Lambert series T(a, b, ell)."""

    a: int
    b: int
    ell: int

    def __post_init__(self):
        cyclotomic_field(self.ell)
        if self.a % self.ell == 0:
            raise ValueError(f"a = {self.a} is divisible by ell = {self.ell}; the denominator would vanish")


def _t_term_exponents(spec: TSpec, n: int):
    """(sign, valuation, step) of the n-th term after normalizing the denominator.

    For denominator exponent m = l^2 n + l a: if m > 0 the term is
    sign * q^E * sum_k q^(m k); if m < 0 we rewrite 1/(1-q^m) =
    -q^(-m)/(1-q^(-m)), flipping the sign and lifting the valuation by |m|.
    """
    ell = spec.ell
    e = ell * ell * n * (n + 1) // 2 + ell * spec.b * n
    m = ell * ell * n + ell * spec.a
    sign = 1 if n % 2 == 0 else -1
    if m > 0:
        return sign, e, m
    return -sign, e - m, -m


def t_valuation(spec: TSpec) -> int:
    """The least term valuation of T(a, b, ell): the term valuations are
    l^2 n(n+1)/2 + l b n for n > -a/l and l^2 n(n-1)/2 + l b n - l a below, two
    convex quadratics, least beside a vertex (-1/2 - b/l, 1/2 - b/l) or where
    the branches meet."""
    ell, b = spec.ell, spec.b
    first = (-spec.a) // ell + 1
    candidates = (first - 1, first, (-ell - 2 * b) // (2 * ell), (ell - 2 * b) // (2 * ell))
    return min(_t_term_exponents(spec, n + d)[1] for n in candidates for d in (0, 1))


@memo
def lambert_T(spec: TSpec, prec: int) -> LaurentSeries:
    """The bilateral sum T(a,b,ell) truncated below prec, over the rationals."""
    # Term valuations are quadratics in n with positive leading coefficient
    # l^2/2; stop a direction only once past the vertex of both branch
    # quadratics, guarding against early non-monotonicity for large |b|.
    vertex_hi = abs(spec.b) // spec.ell + 2
    items = []
    for n, step in ((0, 1), (-1, -1)):
        while True:
            sign, val, m = _t_term_exponents(spec, n)
            c = QQ.one if sign > 0 else -QQ.one
            items += [(e, c) for e in range(val, prec, m)]
            if val >= prec and abs(n) > vertex_hi:
                break
            n += step
    return LaurentSeries.from_items(QQ, items, prec)


@memo
def E_series(a: int, prec: int) -> LaurentSeries:
    """Euler product E(a) = (q^a; q^a)_inf."""
    if a < 1:
        raise ValueError(f"E(a) needs a >= 1, got {a}")
    return poch(QQ, 1, a, a, INF, prec)


def _reduce_p_argument(a: int, ell: int):
    """Fold a into (0, ell) via the P symmetries; returns (sign, q-shift, a).

    P(r + k l) = (-1)^k q^(-l(k r + l k(k-1)/2)) P(r) for every integer k (the
    theta quasi-periodicity P(a + l) = -q^(-l a) P(a)), and P(l - r) = P(r);
    a negative a folds to l - r.
    """
    k, r = divmod(a, ell)
    return (-1) ** (k % 2), -ell * (k * r + ell * k * (k - 1) // 2), r if a > 0 else ell - r


@memo
def P_series(a: int, ell: int, prec: int) -> LaurentSeries:
    """The theta block P(a) over the rationals, argument reduced by symmetry."""
    if a % ell == 0:
        raise ValueError(f"P({a}) is degenerate for ell = {ell} (argument divisible by ell)")
    return theta_sum(ell, [(1, 0, (("P", a, 1),), None)], prec)


def _reduced_factors(ell: int, shift: int, factors):
    """(sign, shift, ranges, vanishes) of a term's E/P product, each P(x) reduced to 0 < x < ell
    and the product as sorted factor ranges (kind, start, step, power), (q^start; q^step)_inf^power,
    so products that differ only in the order of their factors share one ``_product`` entry."""
    sign, ranges, vanishes = 1, [], False
    for kind, x, power in factors:
        if kind == "E":
            if x < 1:
                raise ValueError(f"E(a) needs a >= 1, got {x}")
            ranges.append(("E", x, x, power))
        elif x % ell == 0:
            if power < 0:
                raise ValueError(f"P({x}) is degenerate for ell = {ell} (argument divisible by ell)")
            vanishes = True
        else:
            p_sign, p_shift, x = _reduce_p_argument(x, ell)
            sign *= p_sign ** abs(power)
            shift += p_shift * power
            ranges += [("P", ell * x, ell * ell, power), ("P", ell * (ell - x), ell * ell, power)]
    return sign, shift, tuple(sorted(ranges)), vanishes


def _pentagonal(x: int, n: int) -> list:
    """The terms (t, c) of E(x) - 1 below q^n, by Euler's pentagonal theorem
    E(x) = 1 + sum_{k >= 1} (-1)^k (q^(x k(3k-1)/2) + q^(x k(3k+1)/2)): about
    2 sqrt(2n/(3x)) of them."""
    terms, k = [], 1
    while x * k * (3 * k - 1) // 2 < n:
        terms += [(t, (-1) ** k) for t in (x * k * (3 * k - 1) // 2, x * k * (3 * k + 1) // 2) if t < n]
        k += 1
    return terms


def block_passes(ranges, n: int) -> int:
    """The whole-block passes ``theta_sum`` makes for a term's factor ranges at n
    terms: one per pentagonal term for each power of an E(x)^k with k > 0, and
    otherwise one per factor below q^n for each power."""
    return sum(power * len(_pentagonal(start, n)) if kind == "E" and power > 0
               else abs(power) * len(range(start, n, step)) for kind, start, step, power in ranges)


@memo
def _product(ranges: tuple, n: int) -> LaurentSeries:
    """The E/P product of a ``theta_sum`` term over the rationals, exact below q^n,
    from its sorted factor ranges (kind, start, step, power)."""
    block = FactorBlock(QQ, n)
    for kind, start, step, power in ranges:
        if kind == "E" and power > 0:
            pentagonal = _pentagonal(start, n)
            for _ in range(power):
                block.sparse(pentagonal)
            continue
        for _ in range(abs(power) if start < n else 0):
            block.factor(1, range(start, n, step), divide=power < 0)
    return block.series(n)


def term_valuation(ell: int, term) -> int:
    """The least exponent of q in a ``theta_sum`` term: its shift, plus its
    P-reduction shifts, plus the ``t_valuation`` of its T."""
    _, shift, factors, lam = term
    shift = _reduced_factors(ell, shift, factors)[1]
    return shift + (0 if lam is None else t_valuation(TSpec(*lam, ell)))


def theta_sum(ell: int, terms, prec: int) -> LaurentSeries:
    """sum of c q^s T(a, b, ell) prod E(x)^k P(x)^k over the terms, exact below q^prec.

    A term is (c, s, ((kind, x, k), ...), (a, b) or None for T = 1), kind "E"
    or "P"; c is a rational or a tuple of (rational, j) pairs for sum c_j zeta^j,
    which puts the sum over Q(zeta_ell).  A P(x) with ell | x zeroes its term at
    k > 0 and raises at k < 0; any other is reduced to 0 < x < ell, its sign and
    q-shift folded into the term.  The E/P product is built over the rationals
    to prec - s - val(T) terms: a term with s >= prec counts when val(T) < 0.
    An E(x)^k with k > 0 multiplies the block k times by Euler's pentagonal
    series, about 2 sqrt(2n/(3x)) terms, one whole-block shifted add each;
    a negative power of E(x) and every P(x)^k (its two ranges
    (q^(l x); q^(l^2))_inf (q^(l^2 - l x); q^(l^2))_inf) are |k| passes of
    one factor (1 - q^e) per exponent below q^n.
    """
    field = cyclotomic_field(ell)
    ring = field if any(isinstance(t[0], tuple) for t in terms) else QQ
    total = LaurentSeries.zero(ring, prec)
    for coeff, shift, factors, lam in terms:
        sign, shift, ranges, vanishes = _reduced_factors(ell, shift, factors)
        t = None if lam is None else lambert_T(TSpec(*lam, ell), prec - shift)
        n = prec - shift - (0 if t is None else t.valuation)
        if vanishes or n <= 0 or (t is not None and t.is_zero()):
            continue
        term = _product(ranges, n) if t is None else t * _product(ranges, n) if ranges else t
        if isinstance(coeff, tuple):
            coeff = sum((ring.zeta(j) * c for c, j in coeff), ring.zero)
        total = total + term.scale(coeff * sign).shift(shift)
    if total.prec < prec:
        raise ValueError(f"internal precision shortfall: {total.prec} < {prec}")
    return total.truncate(prec)
