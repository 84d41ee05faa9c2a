"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written without the package's series
machinery: plain dicts keyed by exponent, plain loops.  These implementations
stay naive so they can arbitrate against the fast paths they check.
"""

import cmath
from fractions import Fraction
from functools import lru_cache

from qrank.cyclotomic import QQ, CycQ, cyclotomic_field
from qrank.quadruples import enumerate_quadruples, rank
from qrank.series import LaurentSeries, ZLaurentPoly


def pentagonal_coeffs(prec: int) -> dict[int, int]:
    """Coefficients of prod (1-q^n) via the bilateral pentagonal sum."""
    out = {0: 1}
    k = 1
    while True:
        hit = False
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < prec:
                out[e] = out.get(e, 0) + (1 if k % 2 == 0 else -1)
                hit = True
        if not hit:
            break
        k += 1
    return {e: c for e, c in out.items() if c}


def partition_counts(limit: int) -> list[int]:
    """p(0), ..., p(limit-1) by bounded-part dynamic programming."""
    table = [1] + [0] * (limit - 1)
    for part in range(1, limit):
        for total in range(part, limit):
            table[total] += table[total - part]
    return table


def partitions_in_box(rows: int, cols: int) -> list[tuple[int, ...]]:
    """All partitions with at most ``rows`` parts, each at most ``cols``."""
    found = []

    def go(prefix, remaining_rows, hi):
        found.append(tuple(prefix))
        if remaining_rows == 0:
            return
        for p in range(1, hi + 1):
            go(prefix + [p], remaining_rows - 1, p)

    go([], rows, cols)
    return found


def poly_mul(a: dict, b: dict, prec) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < prec:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def product_expansion(factor_exponents, prec: int) -> dict[int, int]:
    """Expand prod (1 - q^e) over the given exponents, truncated below prec."""
    out = {0: 1}
    for e in factor_exponents:
        if e >= prec:
            continue
        out = poly_mul(out, {0: 1, e: -1}, prec)
    return out


def jac_reference(a: int, b: int, prec: int) -> dict[int, int]:
    """(q^a; q^b)_inf (q^(b-a); q^b)_inf by direct factor expansion."""
    exps = []
    e = a
    while e < prec:
        exps.append(e)
        e += b
    e = b - a
    while e < prec:
        exps.append(e)
        e += b
    return product_expansion(exps, prec)


def lambert_reference(a: int, b: int, ell: int, prec: int, n_range: int = 6) -> dict[int, Fraction]:
    """T(a,b,ell) by direct per-term expansion over |n| <= n_range."""
    out = {}
    for n in range(-n_range, n_range + 1):
        sign = 1 if n % 2 == 0 else -1
        e = ell * ell * n * (n + 1) // 2 + ell * b * n
        m = ell * ell * n + ell * a
        if m > 0:
            k = 0
            while e + m * k < prec:
                key = e + m * k
                out[key] = out.get(key, 0) + sign
                k += 1
        else:
            # 1/(1-q^m) = -q^(-m) / (1 - q^(-m)) for m < 0
            k = 1
            while e + (-m) * k < prec:
                key = e + (-m) * k
                out[key] = out.get(key, 0) - sign
                k += 1
    return {e: Fraction(c) for e, c in out.items() if c}


def as_coeff_dict(series, lo: int, hi: int) -> dict:
    """Nonzero coefficients of a LaurentSeries on [lo, hi) for comparisons."""
    out = {}
    for e in range(lo, hi):
        c = series.coefficient(e)
        if c:
            out[e] = c
    return out


def complex_embedding(x: CycQ) -> complex:
    """x under zeta -> exp(2 pi i / l) in floating point, by Horner's rule on its
    power-basis coordinates: a sanity check of the field arithmetic, not exact."""
    root = cmath.exp(2j * cmath.pi / x.ell)
    acc = 0j
    for c in reversed(x.coeffs):
        acc = acc * root + complex(c)
    return acc


# -- reference series arithmetic ----------------------------------------------
#
# The dense algorithms the integer kernel in qrank.series replaced, kept as
# the slow reference.  They work on plain lists of ring elements (Fraction,
# CycQ or RefZPoly), index 0 being the lowest exponent, with one ring
# operation per term.


def ref_mul(a: list, b: list, length: int, zero) -> list:
    """Schoolbook product of two coefficient lists, first ``length`` terms."""
    out = [zero] * length
    for i, x in enumerate(a[:length]):
        if not x:
            continue
        for j, y in enumerate(b[:length - i]):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def ref_inverse(a: list, count: int, lead_inv, zero) -> list:
    """First ``count`` terms of 1/a by out[k] = -lead_inv * sum_{i>=1} a[i] out[k-i]."""
    out = [lead_inv]
    for k in range(1, count):
        s = zero
        for i in range(1, min(k, len(a) - 1) + 1):
            if a[i]:
                s = s + a[i] * out[k - i]
        out.append(-(lead_inv * s))
    return out[:count]


def ref_poch(c, a: int, b: int, count, size: int, one, zero) -> list:
    """(c q^a; q^b)_count to ``size`` terms (count None means infinite), in place."""
    arr = [one] + [zero] * (size - 1)
    j = 0
    while count is None or j < count:
        e = a + j * b
        if e >= size:
            break
        for i in range(size - 1, e - 1, -1):
            arr[i] = arr[i] - c * arr[i - e]
        j += 1
    return arr


@lru_cache(maxsize=None)
def ref_poch_series(ring, c, a: int, b: int, count, prec: int):
    """(c q^a; q^b)_count (count None means infinite) as a series exact below prec, from ref_poch.

    Cached, because the reference builders ask for the same products many times.
    """
    return LaurentSeries(ring, 0, ref_poch(ring.of(c), a, b, count, prec, ring.one, ring.zero), prec)


def ref_product(ranges, n: int):
    """The product of (q^start; q^step)_inf^power over the factor ranges (kind, start, step,
    power) to n terms, over QQ: each range a ``ref_poch`` list, inverted by ``ref_inverse``
    for a negative power and multiplied in |power| times by ``ref_mul``."""
    out = [1] + [0] * (n - 1)
    for _, start, step, power in ranges:
        factor = ref_poch(1, start, step, None, n, 1, 0)
        if power < 0:
            factor = ref_inverse(factor, n, 1, 0)
        for _ in range(abs(power)):
            out = ref_mul(out, factor, n, 0)
    return LaurentSeries(QQ, 0, out, n)


def ref_monomial_sum(ell: int, terms, prec: int):
    """The sum of c q^s T(a, b, ell) prod E(x)^k P(x)^k over terms (c, s, ((kind, x, k), ...),
    (a, b) or None), exact below at least q^prec, by the generic route of the
    expression evaluator: E(x) and P(x) as q-Pochhammer products, T by lambert_T,
    and LaurentSeries products, inverses and powers.  A coefficient c is a rational
    or a tuple of (rational, j) pairs for sum c_j zeta^j, each pair a monomial
    scaled by zeta^j over Q(zeta_ell).

    P(x) is its two factor sets (q^(ell x); q^(ell^2))_inf (q^(ell^2 - ell x); q^(ell^2))_inf
    as written, with no reduction of x: the factors with exponent <= 0 are one
    exact finite product.  Each E, P and T is built to ``rel`` terms past its
    valuation, and rel is raised until the sum is exact below q^prec.
    """
    from qrank.lambert import TSpec, lambert_T
    from qrank.series import INF, poch

    def factor(kind, x, rel):
        if kind == "E":
            return poch(QQ, 1, x, x, INF, rel)
        out, step = LaurentSeries.const(QQ, 1), ell * ell
        for start in (ell * x, step - ell * x):
            below = -start // step + 1 if start < 1 else 0
            out = out * poch(QQ, 1, start, step, below, INF) * poch(QQ, 1, start + below * step, step, INF, rel)
        return out

    def monomial(c, s):
        if not isinstance(c, tuple):
            return LaurentSeries.monomial(QQ, s, c)
        field = cyclotomic_field(ell)
        return sum((LaurentSeries.monomial(QQ, s, cj).scale(field.zeta(j)) for cj, j in c),
                   LaurentSeries.zero(field))

    def total(rel):
        out = LaurentSeries.zero(QQ)
        for c, s, factors, lam in terms:
            term = monomial(c, s)
            if lam is not None:
                term = term * lambert_T(TSpec(*lam, ell), rel)
            for kind, x, k in factors:
                if k:
                    f = factor(kind, x, rel)
                    term = term * (f ** k if k > 0 else f.inverse() ** -k)
            out = out + term
        return out

    rel = prec
    while (out := total(rel)).prec < prec:
        rel += prec - out.prec
    return out


def ref_gauss_binomial(n: int, m: int):
    """[n+m choose m]_q: q^|p| summed over the partitions p with at most m parts, each at most n."""
    counts: dict[int, int] = {}
    for p in partitions_in_box(m, n):
        counts[sum(p)] = counts.get(sum(p), 0) + 1
    return LaurentSeries.from_items(QQ, counts.items())


def ref_substitute(coeffs: list, k: int, zero) -> list:
    """Coefficient list of q -> q^k."""
    if not coeffs:
        return []
    out = [zero] * ((len(coeffs) - 1) * k + 1)
    out[::k] = coeffs
    return out


def ref_dissect(valuation: int, coeffs: list, modulus: int, residue: int, zero) -> list:
    """Coefficient list keeping the exponents congruent to residue mod modulus."""
    return [c if (valuation + i) % modulus == residue else zero
            for i, c in enumerate(coeffs)]


def ref_specialize_z(coeffs: list, ring) -> list:
    """z -> 1 (ring QQ) or z -> zeta_l (ring Q(zeta_l)) in a list of ZLaurentPoly,
    one term at a time."""
    if ring is QQ:
        return [sum(c.coeffs, Fraction(0)) for c in coeffs]
    out = []
    for c in coeffs:
        raw = [Fraction(0)] * ring.ell
        for k, x in c.items():
            raw[k % ring.ell] += x
        out.append(CycQ.from_raw(ring.ell, raw))
    return out


# -- reference series builders -------------------------------------------------
#
# The builders that qrank.series.geometric and rankgen._bilateral_rank_sum
# replaced: Newton inversion of 1 - c q, and the bilateral sum term by term
# through ring-element products.  Unlike the list references above they run
# on LaurentSeries, but share none of the closed forms they check.


def ref_geometric(ring, c, step: int, prec: int):
    """1/(1 - c q^step) by Newton inversion of 1 - c q, then q -> q^step."""
    terms = -(-(prec - 1) // step) + 1
    base = LaurentSeries.from_items(ring, [(0, ring.one), (1, -ring.of(c))])
    stretched = ref_substitute(list(base.inverse(prec=terms).coeffs), step, ring.zero)
    return LaurentSeries(ring, 0, stretched, prec)


def ref_bilateral_rank_sum(ell: int, prec: int, offset: int):
    """sum_j (1-z^j)(1-z^(j-1)) z^(1-j) (-1)^j q^(j(j+offset)/2) / ((1-z^2 q^j)(1-z^-2 q^j))
    at z = zeta_ell, one product of two geometric series per term j."""
    field = cyclotomic_field(ell)
    z2, z2i = field.zeta(2), field.zeta(-2)
    acc = LaurentSeries.zero(field, prec)

    def add_term(j: int):
        nonlocal acc
        e = j * (j + offset) // 2
        eff = e if j > 0 else e + 2 * (-j)
        if eff >= prec or j % ell in (0, 1):
            return
        step = abs(j)
        rel = prec - eff
        g = ref_geometric(field, z2, step, rel) * ref_geometric(field, z2i, step, rel)
        c = (field.one - field.zeta(j)) * (field.one - field.zeta(j - 1)) * field.zeta(1 - j)
        if j % 2:
            c = -c
        acc = acc + g.scale(c).shift(eff)

    j = 2
    while j * (j + offset) // 2 < prec:
        add_term(j)
        j += 1
    j = -1
    while j * (j + offset) // 2 + 2 * (-j) < prec:
        add_term(j)
        j -= 1
    return acc


def ref_root_prefactor(ell: int, prec: int):
    """(1+z)(q, z, 1/z; q)_inf at z = zeta_ell as the infinite product, one factor
    at a time on plain residue vectors: slot i holds the coefficients of 1, z, ...,
    z^(ell-1) at q^i, and a factor (1 - z^j q^k) subtracts slot i - k, rotated by j,
    from slot i, from the top slot down."""
    field = cyclotomic_field(ell)
    n = max(prec, 0)
    slots = [[1] + [0] * (ell - 1)] + [[0] * ell for _ in range(n - 1)]
    factors = [(0, k) for k in range(1, n)] + [(j, k) for j in (1, -1) for k in range(n)]
    for j, k in factors:
        for i in range(n - 1, k - 1, -1):
            src = slots[i - k]
            slots[i] = [x - y for x, y in zip(slots[i], src[-j:] + src[:-j])]
    coeffs = [CycQ.from_raw(ell, s) for s in slots]
    return LaurentSeries(field, 0, coeffs, prec).scale(field.one + field.zeta(1))


# -- reference generating functions --------------------------------------------
#
# The builders that qrank.rankgen rebuilt on the in-place FactorBlock kernel:
# every term's Pochhammer denominator is a forward product from ``ref_poch``
# inverted by Newton iteration, with the Gaussian binomial of each bivariate
# term counted from the partitions in its box.  None of them calls the
# FactorBlock-based ``poch`` or ``geometric``.


def ref_counting_series(power: int, prec: int):
    """sum_n q^(power*n) / ((q^n;q)_inf^3 (q^n;q)_{n+1}), one Newton inverse per n."""
    acc = LaurentSeries.zero(QQ, prec)
    n = 1
    while power * n < prec:
        base = power * n
        rel = prec - base
        block = ref_poch_series(QQ, 1, n, 1, None, rel)
        den = block * block * block * ref_poch_series(QQ, 1, n, 1, n + 1, rel)
        acc = acc + den.inverse().shift(base)
        n += 1
    return acc


def ref_fg_series(rho1, rho2, z, prec: int, power: int):
    """(q;q)_inf/(z,1/z,rho1,rho2;q)_inf sum_n (rho1 rho2)^-n q^(power*n)
    prod_c (c;q)_n/(q;q)_{2n}, the numerator and denominator of each term as
    running products and the prefactor as one Newton inverse."""
    field = cyclotomic_field(z.ell)
    one = field.one
    zinv = z.inverse()
    pref_den = LaurentSeries.const(field, one, prec)
    for c in (z, zinv, rho1, rho2):
        pref_den = pref_den * ref_poch_series(field, c, 0, 1, None, prec)
    pref = ref_poch_series(QQ, 1, 1, 1, None, prec) * pref_den.inverse()
    s = (rho1 * rho2).inverse()
    num = LaurentSeries.const(field, one, prec)
    inv_den = LaurentSeries.const(QQ, 1, prec)
    spow = one
    acc = LaurentSeries.zero(field, prec)
    n = 1
    while power * n < prec:
        for c in (z, zinv, rho1, rho2):
            num = num * LaurentSeries.from_items(field, [(0, one), (n - 1, -c)], prec)
        inv_den = inv_den * ref_geometric(QQ, 1, 2 * n - 1, prec) * ref_geometric(QQ, 1, 2 * n, prec)
        spow = spow * s
        acc = acc + (num * inv_den).scale(spow).shift(power * n)
        n += 1
    return pref * acc


class RefZPoly:
    """A Laurent polynomial in z as a dict exponent -> nonzero coefficient, the ring of
    ``ref_bivariate``'s lists, written apart from qrank.series."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return RefZPoly(out)

    def __neg__(self):
        return RefZPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return RefZPoly(out)

    def as_zlaurent(self) -> ZLaurentPoly:
        """The same polynomial as the ZLaurentPoly the rank routes return, to compare with them."""
        lo = min(self.terms, default=0)
        return ZLaurentPoly(lo, [self.terms.get(k, 0) for k in range(lo, max(self.terms, default=lo) + 1)])


def ref_bivariate(power: int, prec: int) -> list:
    """The rank polynomials of RU(z, q) (power 1) or RV(z, q) (power 2) for n < prec, as
    ZLaurentPoly, summed on lists of RefZPoly: per n the head 1/(z q^n, z^2 q^n,
    z^-2 q^n; q)_inf, and per (n, m) a Gaussian binomial over its full Pochhammer
    denominator, each inverted by the recurrence."""
    zero, one = RefZPoly({}), RefZPoly({0: 1})
    z, z2, z2i = (RefZPoly({k: 1}) for k in (1, 2, -2))
    acc = [zero] * max(prec, 0)

    def product(size, factors):
        """prod (c q^a; q)_count over (c, a, count) to size terms; count None is infinite."""
        out = [one] + [zero] * (size - 1)
        for c, a, count in factors:
            out = ref_mul(out, ref_poch(c, a, 1, count, size, one, zero), size, zero)
        return out

    def add(coeffs, shift, scale):
        for i, c in enumerate(coeffs):
            acc[shift + i] = acc[shift + i] + scale * c

    n = 1
    while power * n < prec:
        base = power * n
        rel = prec - base
        head = product(rel, [(z, n, None), (z2, n, None), (z2i, n, None)])
        add(ref_inverse(head, rel, one, zero), base, one)
        m = 1
        while base + n * m < prec:
            rel2 = prec - base - n * m
            den = product(rel2, [(z, n, 1), (one, n + 1, m), (z, n + m + 1, None),
                                 (z2, n, None), (z2i, n, None)])
            gauss = ref_gauss_binomial(n, m)
            gauss = [RefZPoly({0: int(c)}) for c in gauss.coeffs]
            term = ref_mul(ref_inverse(den, rel2, one, zero), gauss, rel2, zero)
            add(term, base + n * m, RefZPoly({-m: 1}))
            m += 1
        n += 1
    return [p.as_zlaurent() for p in acc]


# -- reference rank counts -----------------------------------------------------


def ref_rank_counts(n: int, kind: str) -> dict[int, int]:
    """Rank histogram of the family members of n, by listing every member."""
    counts: dict[int, int] = {}
    for qd in enumerate_quadruples(n, kind):
        r = rank(qd, kind)
        counts[r] = counts.get(r, 0) + 1
    return dict(sorted(counts.items()))
