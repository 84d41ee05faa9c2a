"""The generating functions behind u(n) and v(n), by independent routes.

``rank_series(kind, route, prec, ell)`` is the one entry point: it returns
RU(z, q) (kind "u") or RV(z, q) (kind "v") along the named route, at
z = zeta_ell or at z = 1.  The route that keeps z formal gives one rank
polynomial per n (``rank_histograms``), which ``rank_series`` folds at
zeta_ell or at 1.

* DEFINITION: the hypergeometric-style double product ``_fg_series`` with
  (rho1, rho2, z) = (zeta^2, zeta^-2, zeta), or at z = 1 the counting series
  computed directly from its smallest-part decomposition;
* LAMBERT: ``ru_at_root`` / ``rv_at_root``, a bilateral Lambert-form sum over
  Q(zeta_l) divided in place by the prefactor (1+z)(q, z, 1/z; q)_inf, which
  the Jacobi triple product makes (1+z)(1-z) times the sparse
  ``theta_jtp_sum(zeta)``;
* QBINOMIAL: ``_bivariate``, an exact expansion in both z and q built from a
  single sum plus a Gaussian-binomial double sum, as rank polynomials.

``_counting_series``, ``_fg_series`` and ``_bivariate`` each keep one running
block and change it by a few factors (1 - c q^e) whenever the smallest part
n (and, in ``_bivariate``, the p4 count m) changes, so no term builds or
inverts its own Pochhammer denominator.  The first two are ``FactorBlock``s;
``_bivariate``, the one builder with z formal, keeps plain lists of packed
z-digit integers, sizes the digits by its own coefficient bound, and steps
them with the in-place kernel of ``quadruples.rank_counts``, the DP that
counts the rank classes; DEFINITION and LAMBERT are the routes independent
of that recurrence, and ``verify`` holds its rank polynomials against
histograms counted from the listed quadruples.

``_counting_series``, ``root_prefactor``, ``ru_at_root``, ``rv_at_root``,
``_bivariate`` and ``rhs_identity`` are ``series.memo`` builders: one build
per argument tuple, the longest asked for, and a lower precision is its
truncation (for ``_bivariate``, its first prec rank polynomials), so
``rank_series`` steps the bivariate recurrence of a kind once for every ell.

``IDENTITY_CATALOGUE`` holds every E/P/T identity the program checks as rows
of ``lambert.theta_sum`` terms, each row beside the builder of its other side;
``rhs_identity`` evaluates the five root-of-unity identities among them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, lshift

from . import quadruples
from .cyclotomic import QQ, CycQ, _reduce_residues, cyclotomic_field
from .lambert import theta_sum
from .series import (FactorBlock, LaurentSeries, ZLaurentPoly, _digit_bytes, _make, _unpack,
                     memo, theta_jtp_sum)

ROUTES = ("DEFINITION", "LAMBERT", "QBINOMIAL")


# -- the counting series ------------------------------------------------------


@memo
def _counting_series(power: int, prec: int) -> LaurentSeries:
    """sum over the smallest part n of p1 of q^(power*n) B_n, B_n = 1/((q^n;q)_inf^3 (q^n;q)_{n+1}).

    One running block holds B_n, from the largest n down, to the length
    that n = 1 needs: B_(n-1) is B_n divided four times by (1 - q^(n-1))
    and multiplied by (1 - q^(2n-1)) and (1 - q^(2n)).
    """
    acc = FactorBlock(QQ, prec, 0)
    top = (prec - 1) // power
    block = FactorBlock(QQ, prec - power)
    for e in range(top, prec - power):
        for _ in range(3 if e > 2 * top else 4):
            block.factor(1, e, divide=True)
    for n in range(top, 0, -1):
        if n < top:
            for _ in range(4):
                block.factor(1, n, divide=True)
            block.factor(1, 2 * n + 1)
            block.factor(1, 2 * n + 2)
        acc.add(block, power * n)
    return acc.series(prec)


def u_series(prec: int) -> LaurentSeries:
    """U(q) = sum u(n) q^n."""
    return _counting_series(1, prec)


def v_series(prec: int) -> LaurentSeries:
    """V(q) = sum v(n) q^n."""
    return _counting_series(2, prec)


# -- route 1: the bilateral Lambert form at z = zeta_l ------------------------


@lru_cache(maxsize=None)
def _theta_quotients(ell: int):
    """The per-ell tables of the bilateral route, built once on integer lists: the quotients
    (-1)^n (zeta^n - zeta^(-n-1)) / (1 - 1/zeta) = (-1)^n (zeta^n + zeta^(n-1) + ... + zeta^-n)
    for n = 0 .. 2 ell - 1, a whole period in n; 1 / ((1+zeta)(1-zeta)(1-1/zeta)); and for
    each j mod 2 ell the columns of c_j U_m, m < ell, that ``_bilateral_rank_sum`` adds."""
    period = []
    for n in range(2 * ell):
        raw = [0] * ell
        for i in range(-n, n + 1):
            raw[i % ell] += (-1) ** n
        period.append(CycQ(ell, _reduce_residues(raw, ell, ell)))
    field = cyclotomic_field(ell)
    z = field.zeta(1)
    inverse = ((field.one + z) * (field.one - z) * (field.one - field.zeta(-1))).inverse()
    u_rows = []  # U_m, m < ell, as residue vectors
    for m in range(ell):
        u = [0] * ell
        for i in range(m + 1):
            u[2 * (2 * i - m) % ell] += 1
        u_rows.append(u)
    # coordinate k of c_j U_m is (-1)^j (U_m[k + j - 1] + U_m[k - j] - U_m[k - 1] - U_m[k]), indices mod ell
    columns = [[tuple((-1) ** j * (u[(k + j - 1) % ell] + u[(k - j) % ell] - u[k - 1] - u[k]) for u in u_rows)
                for k in range(ell)] for j in range(2 * ell)]
    return tuple(period), inverse, columns


@memo
def root_prefactor(ell: int, prec: int) -> LaurentSeries:
    """(1+z)(q, z, 1/z; q)_inf at z = zeta_ell, over Q(zeta_ell): by the Jacobi
    triple product (q, z, 1/z; q)_inf = (1-z) sum_n (-1)^n z^n q^(n(n+1)/2),
    the sparse ``theta_jtp_sum``."""
    field = cyclotomic_field(ell)
    z = field.zeta(1)
    return theta_jtp_sum(field, z, prec).scale((field.one + z) * (field.one - z))


def _bilateral_rank_sum(ell: int, prec: int, offset: int) -> FactorBlock:
    """sum_j (1-z^j)(1-z^(j-1)) z^(1-j) (-1)^j q^(j(j+offset)/2) / ((1-z^2 q^j)(1-z^-2 q^j)).

    offset is 3 for the u-family and 1 for the v-family.  Terms with
    j = 0, 1 mod ell vanish.  Denominators at negative j are normalized to
    positive exponents, which lifts the term valuation by 2|j|; the term
    then starts at q^eff and steps by X = q^|j|.

    At z = zeta = zeta_ell every coefficient is an integer combination of
    powers of zeta, so the whole sum is one integer block of exponent
    residues mod ell, built from two closed forms:

    * 1/((1 - zeta^2 X)(1 - zeta^-2 X)) = sum_m U_m X^m, with
      U_m = sum_{i=0..m} zeta^(2(2i-m)); U_{m+ell} = U_m, because the ell
      extra terms sum zeta^(4i) over every residue i mod ell;
    * c_j = (1-zeta^j)(1-zeta^(j-1)) zeta^(1-j) (-1)^j
          = (-1)^j (zeta^(1-j) + zeta^j - zeta - 1).

    Term j adds c_j U_m to the coefficient of q^(eff + m|j|): one slice add
    per coordinate of the columns c_j U_m, m < ell, which depend only on
    j mod 2 ell and are built once per ell (``_theta_quotients``).  The block
    holds residue vectors, so the prefactor can be divided out in place.
    """
    block = FactorBlock(cyclotomic_field(ell), prec, 0)
    raw, columns = block.data, _theta_quotients(ell)[2]

    def add_term(j: int):
        e = j * (j + offset) // 2
        eff = e if j > 0 else e + 2 * (-j)
        if eff >= prec or j % ell in (0, 1):
            return
        step = abs(j)
        reps = (prec - 1 - eff) // step // ell + 1
        for k, column in enumerate(columns[j % (2 * ell)]):
            target = slice(eff * ell + k, None, step * ell)
            raw[target] = map(add, raw[target], column * reps)

    j = 2
    while j * (j + offset) // 2 < prec:
        add_term(j)
        j += 1
    j = -1
    while j * (j + offset) // 2 + 2 * (-j) < prec:
        add_term(j)
        j -= 1
    return block


def _at_root(ell: int, prec: int, offset: int) -> LaurentSeries:
    """The bilateral rank sum divided in place by the prefactor (1+z)(1-z) Theta,
    Theta = ``theta_jtp_sum(zeta)`` = sum_n (-1)^n zeta^n q^(n(n+1)/2).

    Theta has about sqrt(2 prec) terms.  Its constant term is 1 - 1/zeta, and
    the one at q^(n(n+1)/2), n >= 1, gathers n and -n-1:
    (-1)^n (zeta^n - zeta^(-n-1)).  On residue vectors, that is a difference
    of two rotations, whose coordinates sum to 0, so it is divisible by
    1 - 1/zeta in Z[x]/(x^l - 1): a vector r of coordinate sum 0 is
    (1 - x^-1) w with w_j = r_j + ... + r_(l-1), one suffix sum.  Here the
    quotient is (-1)^n zeta^n (1 + zeta^-1 + ... + zeta^-2n), so Theta is
    1 - 1/zeta times a monic series with coefficients in Z[zeta], and the
    block divides by that series with the integer recurrence
    y_i = x_i - sum_T (Theta_T / (1 - 1/zeta)) y_(i-T) of ``FactorBlock.sparse``:
    no denominator, no Newton inverse, and nothing to check at run time.  The
    scalar (1+z)(1-z)(1-1/z) is divided out once at the end.
    """
    block = _bilateral_rank_sum(ell, prec, offset)
    period, inverse, _ = _theta_quotients(ell)
    terms, n = [], 1
    while n * (n + 1) // 2 < prec:
        terms.append((n * (n + 1) // 2, period[n % len(period)]))
        n += 1
    block.sparse(terms, divide=True)
    block.scale(inverse)
    return block.series(prec)


@memo
def ru_at_root(ell: int, prec: int) -> LaurentSeries:
    """RU(zeta_ell, q): coefficients are the rank-class sums over Q(zeta_ell)."""
    return _at_root(ell, prec, 3)


@memo
def rv_at_root(ell: int, prec: int) -> LaurentSeries:
    """RV(zeta_ell, q), the v-family analog of ru_at_root."""
    return _at_root(ell, prec, 1)


# -- route 2: the two-parameter transform -------------------------------------


def _fg_series(rho1: CycQ, rho2: CycQ, z: CycQ, prec: int, power: int) -> LaurentSeries:
    """(q;q)_inf/(z, 1/z, rho1, rho2; q)_inf times sum_n s^n q^(power*n) prod_c (c;q)_n/(q;q)_(2n),
    s = 1/(rho1 rho2), c over z, 1/z, rho1, rho2.

    The factors (1 - c) of (c;q)_n and of the prefactor cancel, so the sum
    runs over s^n R_n, R_n = prod_c (cq;q)_(n-1)/(q;q)_(2n), one running
    block: s^(n+1) R_(n+1) is s^n R_n times s and the four (1 - c q^n),
    divided by (1 - q^(2n+1)) and (1 - q^(2n+2)).  The remaining prefactor
    (q;q)_inf/prod_c (cq;q)_inf is applied to the sum in place.
    ``FactorBlock.factor`` divides only by an integral c (1 or a root of
    unity on every program path); a c with a denominator is divided out as
    1/(1 - x) = (1 + x)(1 + x^2)(1 + x^4)..., products only.
    """
    if rho1.ell != z.ell or rho2.ell != z.ell:
        raise ValueError("rho1, rho2 and z must live in the same cyclotomic field")
    field = cyclotomic_field(z.ell)
    zinv = z.inverse()
    for label, c in (("z", z), ("1/z", zinv), ("rho1", rho1), ("rho2", rho2)):
        if c == field.one:
            raise ValueError(
                f"{label} = 1 makes the prefactor vanish; use the direct counting series for that case")
    args = (z, zinv, rho1, rho2)
    s = (rho1 * rho2).inverse()
    acc = FactorBlock(field, prec, 0)
    term = FactorBlock(field, prec - power)
    term.factor(1, 1, divide=True)
    term.factor(1, 2, divide=True)
    n = 1
    while power * n < prec:
        if n > 1:
            for c in args:
                term.factor(c, n - 1)
            term.factor(1, 2 * n - 1, divide=True)
            term.factor(1, 2 * n, divide=True)
        term.scale(s)
        acc.add(term, power * n)
        n += 1
    top = prec - power  # the sum starts at q^power: factors at q^top and above act as 1
    acc.factor(1, range(1, top))
    for c in args:
        if field.split(c)[0] == 1:
            acc.factor(c, range(1, top), divide=True)
            continue
        step = 1
        while step < top:  # times (1 + c^step q^(e*step)) for every e
            acc.factor(-c, range(step, top, step))
            c, step = c * c, 2 * step
    return acc.series(prec)


def eval_f(rho1: CycQ, rho2: CycQ, z: CycQ, prec: int) -> LaurentSeries:
    """F(rho1, rho2, z; q): (q;q)_inf/(z,1/z,rho1,rho2;q)_inf times the q^n sum."""
    return _fg_series(rho1, rho2, z, prec, 1)


def eval_g(rho1: CycQ, rho2: CycQ, z: CycQ, prec: int) -> LaurentSeries:
    """G(rho1, rho2, z; q), the q^(2n) analog of eval_f."""
    return _fg_series(rho1, rho2, z, prec, 2)


# -- route 3: the exact bivariate expansion -----------------------------------


@memo
def _bivariate(power: int, prec: int) -> tuple:
    """The rank polynomials of RU(z, q) (power 1) or RV(z, q) (power 2), one
    ``ZLaurentPoly`` per power q^0 .. q^(prec-1), by the smallest part n of p1.

    The terms with p4 empty are q^(power*n) E_n, E_n = 1/(z q^n, z^2 q^n,
    z^-2 q^n; q)_inf; one running block holds E_n from the largest n down,
    and E_(n-1) is E_n divided by the three factors at q^(n-1).  p4 with m
    parts, each in [n, 2n], contributes

        z^-m q^(power*n + n*m) [n+m choose m]_q / ((1 - z q^n) (q^(n+1);q)_m
            (z q^(n+m+1), z^2 q^n, z^-2 q^n; q)_inf),

    and [n+m choose m]_q / (q^(n+1);q)_m = 1/(q;q)_m, because
    (q^(n+1);q)_m = (q;q)_(n+m) / (q;q)_n.  The term is therefore
    z^-m q^(power*n + n*m) W_(n,m) with W_(n,0) = E_n and
    W_(n,m) = W_(n,m-1) (1 - z q^(n+m))/(1 - q^m): a copy of the head block
    carries W_(n,m), two factors per term.

    Every block has non-negative coefficients, and at z = 1 each term is at
    most q^(n(power+m)) / (q;q)_inf^4 coefficientwise; summed over n and m
    that is at most q/(1-q)^2 (q;q)_inf^-4 <= q (q;q)_inf^-6, whose
    coefficient of q^i, the count of 6-coloured partitions of i - 1, is below
    exp(2 pi sqrt(i - 1)) (Apostol, Thm 14.5, with 6 colours).  That bounds
    every coefficient of the sum, and sizes the packed z-digits.

    A block is a plain list: slot j is its z-polynomial at q^j times
    z^(tilt*j), evaluated at z = X = 2^bits, one integer whose digits are the
    coefficients.  E_n and W_(n,m) hold z-degrees in [-2j/n, 2j/n] at q^j, so
    tilt 1 keeps every power of X non-negative for n >= 2; at n = 1 the head
    and the sum are re-laid once to tilt 2.  A factor (1 - z^c q^e) then
    moves digits up by c + tilt*e >= 0, one in-place pass of the kernel the
    rank-count DP runs (``quadruples._multiply`` and ``_divide``), z^-m is
    adding a term at q^offset m digits lower (tilt*offset > m), and the sum
    holds z-degrees in [-2i, 2i] at q^i, so slot i decodes to 4i + 1 digits
    from z^-2i up.
    """
    bound = 1 << (int(2 * math.pi * math.sqrt(max(prec - 2, 0)) / math.log(2)) + 2)
    k = _digit_bytes(bound)
    bits = 8 * k

    def add_to_sum(block, offset, m, tilt):  # acc += z^-m q^offset block
        count = min(len(block), prec - offset)
        acc[offset:offset + count] = map(add, acc[offset:offset + count],
                                         map(lshift, block[:count], repeat((tilt * offset - m) * bits)))

    acc = [0] * max(prec, 0)
    top = (prec - 1) // power
    head = [1] + [0] * (prec - power - 1)
    tilt = 1
    for n in range(top, 0, -1):
        if n == 1:
            head, acc = ([x << (i * bits) for i, x in enumerate(b)] for b in (head, acc))
            tilt = 2
        for zpow in (1, 2, -2):
            for e in (range(n, prec - power) if n == top else (n,)):
                quadruples._divide(head, e, (zpow + tilt * e) * bits)
        base = power * n
        add_to_sum(head, base, 0, tilt)
        term = head[:]
        m = 1
        while base + n * m < prec:
            del term[prec - base - n * m:]
            quadruples._multiply(term, n + m, (1 + tilt * (n + m)) * bits)
            quadruples._divide(term, m, tilt * m * bits)
            add_to_sum(term, base + n * m, m, tilt)
            m += 1
    return tuple(ZLaurentPoly(-2 * i, _unpack(x, 4 * i + 1, k)) for i, x in enumerate(acc))


# -- the route table ------------------------------------------------------------


def rank_histograms(kind: str, prec: int) -> tuple:
    """The rank polynomials sum_r N(r, n) z^r of RU (kind "u") or RV (kind "v")
    for n < prec, by the QBINOMIAL route: the polynomials ``_bivariate`` keeps."""
    if kind not in ("u", "v"):
        raise ValueError(f"kind must be 'u' or 'v', got {kind!r}")
    return _bivariate(1 if kind == "u" else 2, prec)


def _fold(polys, ell: int | None, prec: int) -> LaurentSeries:
    """The integer rank polynomials at z = zeta_ell (Q(zeta_ell)) or at z = 1 (QQ, ell None).

    The coefficients of z^r with r in one residue class mod ell are one
    slice of a polynomial's coefficients; each adds into its residue's
    coordinate, and ``_reduce_residues`` takes the vectors to the power basis.
    """
    size = 1 if ell is None else ell
    raw = [0] * (len(polys) * size)
    for i, p in enumerate(polys):
        for j in range(min(size, len(p.coeffs))):
            raw[i * size + (p.lowest + j) % size] += sum(p.coeffs[j::size])
    if ell is None:
        return _make(QQ, 0, 1, raw, prec)
    return _make(cyclotomic_field(ell), 0, 1, _reduce_residues(raw, ell, ell), prec)


def rank_series(kind: str, route: str, prec: int, ell: int | None = None) -> LaurentSeries:
    """RU (kind "u") or RV (kind "v") to precision prec by the named route.

    With ell a prime >= 3 every route gives the series at z = zeta_ell over
    Q(zeta_ell).  With ell None, every route but LAMBERT, which needs ell,
    gives the plain counting series U or V (z = 1) over QQ.
    """
    if kind not in ("u", "v"):
        raise ValueError(f"kind must be 'u' or 'v', got {kind!r}")
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    field = None if ell is None else cyclotomic_field(ell)  # refuses any other order before a builder runs
    power = 1 if kind == "u" else 2
    if route == "DEFINITION":
        if ell is None:
            return _counting_series(power, prec)
        return _fg_series(field.zeta(2), field.zeta(-2), field.zeta(1), prec, power)
    if route == "LAMBERT":
        if ell is None:
            raise ValueError("the bilateral route needs z specialized; pass ell")
        return ru_at_root(ell, prec) if kind == "u" else rv_at_root(ell, prec)
    return _fold(rank_histograms(kind, prec), ell, prec)


# -- the identity catalogue ---------------------------------------------------

# Every E/P/T identity the program checks, as check name -> (PASS detail,
# rows); a row is (label, ell, left side, theta_sum terms), and the label names
# a failing row.  The left side is the independent route to compare with: "RU"
# or "RV" at zeta_ell (LAMBERT route), "prefactor" (``root_prefactor``),
# "product" ((q, zeta, 1/zeta; q)_inf as three ``poch``s), or None when the
# terms sum to zero.


def _one(ell, lhs, terms, label=""):
    """A check of one row, which its label names on PASS too."""
    return label, [(label, ell, lhs, terms)]


def _family(noun, row, params):
    """A check of one row per parameter tuple, counted on PASS."""
    rows = [row(*p) for p in params]
    return f"{len(rows)} {noun}", rows


def _dissection_terms(ell):
    """(q, zeta, 1/zeta; q)_inf = (1 - zeta) E(l^2) sum_k (-1)^k (zeta^k - zeta^(-k-1))
    q^(k(k+1)/2) P((l-1)/2 - k) over 0 <= k <= (l-3)/2."""
    return [(((s, k), (-s, k + 1), (-s, -k - 1), (s, -k)), k * (k + 1) // 2,
             (("E", ell * ell, 1), ("P", (ell - 1) // 2 - k, 1)), None)
            for k in range((ell - 1) // 2) for s in [(-1) ** k]]


def _chan_row(variant, ell, a, b1, b2=None):
    """One of the two T/P transformation identities as a zero sum.

    variant 1 (three-parameter form):
        T(b2, a-b1, l) = q^(l(b1-b2)) P(a-b1)/P(a-b2) T(b1, a-b2, l)
                         - q^(l(b1-b2)) P(a) P(b2-b1) E(l^2)^2 / (P(b1) P(b2) P(a-b2))
    variant 2 (b1 = -b, b2 = b collapsed):
        T(b, a+b, l) = -q^(-l b) P(a+b)/P(a-b) T(b, b-a, l)
                       + q^(-l b) P(a) P(2b) E(l^2)^2 / (P(b)^2 P(a-b))
    """
    e2 = ("E", ell * ell, 2)
    if variant == 1:
        s = ell * (b1 - b2)
        terms = [(1, 0, (), (b2, a - b1)),
                 (-1, s, (("P", a - b1, 1), ("P", a - b2, -1)), (b1, a - b2)),
                 (1, s, (("P", a, 1), ("P", b2 - b1, 1), e2,
                         ("P", b1, -1), ("P", b2, -1), ("P", a - b2, -1)), None)]
    else:
        b = b1
        terms = [(1, 0, (), (b, a + b)),
                 (1, -ell * b, (("P", a + b, 1), ("P", a - b, -1)), (b, b - a)),
                 (-1, -ell * b, (("P", a, 1), ("P", 2 * b, 1), e2, ("P", b, -2), ("P", a - b, -1)), None)]
    return f"parameters {(variant, ell, a, b1, b2)}", ell, None, terms


def _t_symmetry_row(a, b, ell):
    """T(-a, b, l) + q^(l a) T(a, -b, l) = 0."""
    return (f"T(-a,b,l) + q^(la) T(a,-b,l) at (a,b,l)={(a, b, ell)}", ell, None,
            [(1, 0, (), (-a, b)), (1, ell * a, (), (a, -b))])


IDENTITY_CATALOGUE = {
    # the five root-of-unity identities: RU or RV at zeta_ell as E/P/T terms
    "THM12:RU3": _one(3, "RU", [(1, 7, (("E", 3, -1),), (2, 3)),
                                (-1, 5, (("E", 3, -1),), (2, 2))]),
    "THM12:RV3": _one(3, "RV", [(1, 5, (("E", 3, -1),), (2, 2)),
                                (-1, 3, (("E", 3, -1),), (2, 1))]),
    "THM12:RU5": _one(5, "RU", [(1, 1, (("E", 25, 1), ("P", 1, -2)), None),
                                (-1, 7, (("E", 25, -1), ("P", 2, -1)), (2, 2)),
                                (-1, 4, (("E", 25, -1), ("P", 1, -1)), (2, 1))]),
    "THM12:RV5": _one(5, "RV", [(1, 12, (("E", 25, -1), ("P", 2, -1)), (3, 3)),
                                (-1, 5, (("E", 25, -1), ("P", 1, -1)), (3, 1)),
                                (1, 2, (("E", 25, 1), ("P", 1, -1), ("P", 2, -1)), None),
                                (-1, 3, (("E", 25, 1), ("P", 2, -2)), None)]),
    "THM12:RU7": _one(7, "RU", [
        (1, 1, (("E", 49, 1), ("P", 3, 1), ("P", 1, -1), ("P", 2, -2)), None),
        (((-1, 2), (-1, 5)), 15, (("E", 49, -1), ("P", 3, -1)), (3, 3)),
        (((-1, 3), (-1, 4)), 2, (("E", 49, 1), ("P", 1, -1), ("P", 2, -1)), None),
        (1, 3, (("E", 49, 1), ("P", 1, -1), ("P", 3, -1)), None),
        (((1, 1), (1, 6)), 4, (("E", 49, 1), ("P", 2, -2)), None),
        (((1, 1), (1, 6)), 11, (("E", 49, -1), ("P", 2, -1)), (3, 2)),
        (((1, 0), (1, 3), (1, 4)), 6, (("E", 49, 1), ("P", 3, -2)), None),
        (((-1, 0), (-1, 3), (-1, 4)), 6, (("E", 49, -1), ("P", 1, -1)), (3, 1))]),
    # (1+zeta)(q, zeta, 1/zeta; q)_inf as E/P terms
    "INFRA:Prefactor-5": _one(5, "prefactor", [
        (((2, 0), (2, 1), (1, 3)), 0, (("E", 25, 1), ("P", 2, 1)), None),
        (((-1, 0), (-1, 1), (2, 3)), 1, (("E", 25, 1), ("P", 1, 1)), None)]),
    "INFRA:Prefactor-7": _one(7, "prefactor", [
        (((2, 0), (2, 1), (1, 3), (1, 4), (1, 5)), 0, (("E", 49, 1), ("P", 3, 1)), None),
        (((-1, 0), (-1, 1), (1, 3), (1, 5)), 1, (("E", 49, 1), ("P", 2, 1)), None),
        (((-1, 0), (-1, 1), (-1, 3), (-3, 4), (-1, 5)), 3, (("E", 49, 1), ("P", 1, 1)), None)]),
    **{f"INFRA:ProdDissection-{ell}": _one(ell, "product", _dissection_terms(ell)) for ell in (3, 5, 7)},
    # P-quotient identities at ell = 7
    "INFRA:AS-Lemma4": _one(7, None, [(1, 0, (("P", 3, 3), ("P", 1, 1)), None),
                                      (-1, 0, (("P", 2, 3), ("P", 3, 1)), None),
                                      (1, 7, (("P", 1, 3), ("P", 2, 1)), None)],
                            "P(3)^3 P(1) - P(2)^3 P(3) + q^7 P(1)^3 P(2)"),
    "INFRA:q7-rewrites": ("three rewrites", [
        ("q P(2)/P(1)^2 - q^8 P(1)/(P(2)P(3)) = q P(3)^2/(P(1)P(2)^2)", 7, None,
         [(1, 1, (("P", 2, 1), ("P", 1, -2)), None),
          (-1, 8, (("P", 1, 1), ("P", 2, -1), ("P", 3, -1)), None),
          (-1, 1, (("P", 3, 2), ("P", 1, -1), ("P", 2, -2)), None)]),
        ("q^11 P(1)^2/(P(2)P(3)^2) = q^4 P(2)/(P(1)P(3)) - q^4 P(3)/P(2)^2", 7, None,
         [(1, 11, (("P", 1, 2), ("P", 2, -1), ("P", 3, -2)), None),
          (-1, 4, (("P", 2, 1), ("P", 1, -1), ("P", 3, -1)), None),
          (1, 4, (("P", 3, 1), ("P", 2, -2)), None)]),
        ("q^14 P(1)^3/(P(2)P(3)^3) = -q^7 P(1)/P(2)^2 + q^7 P(2)/P(3)^2", 7, None,
         [(1, 14, (("P", 1, 3), ("P", 2, -1), ("P", 3, -3)), None),
          (1, 7, (("P", 1, 1), ("P", 2, -2)), None),
          (-1, 7, (("P", 2, 1), ("P", 3, -2)), None)])]),
    # the transformation identities and the T symmetry, as parameter families
    "INFRA:EqChan1-suite": _family("parameter tuples", _chan_row, [
        *((1, 5, 2 + k + c, 2, k) for k in (3, 4) for c in (-1, 0, 1, 2)),
        *((1, 5, 3 + k + c, 3, k) for k in (2, 4) for c in (-2, -1, 0, 1)),
        *((1, 7, 3 + k + c, 3, k) for k in (2, 4, 5, 6) for c in (-2, -1, 0, 1, 2, 3))]),
    "INFRA:EqChan2-suite": _family("parameter tuples", _chan_row,
                                   [(2, 5, 1, 2), (2, 5, 1, 3), (2, 7, 1, 3), (2, 7, 2, 3)]),
    # four triples at each l, once drawn at random from -10 <= a, b <= 10 with l not dividing a
    "INFRA:T-symmetry": _family("sampled (a,b,l) triples", _t_symmetry_row, [
        (10, 5, 3), (10, -9, 3), (-7, 10, 3), (5, -7, 3), (9, -5, 5), (-9, -3, 5),
        (9, 7, 5), (-7, 9, 5), (3, -6, 7), (-1, -3, 7), (10, 6, 7), (-6, -10, 7)]),
}
IDENTITY_NAMES = tuple(name[6:] for name in IDENTITY_CATALOGUE if name.startswith("THM12:"))


@memo
def rhs_identity(name: str, prec: int) -> LaurentSeries:
    """The E/P/T product-and-Lambert form equated to RU/RV at zeta_ell.

    ``theta_sum`` keeps no memo; this one keeps the table, and the benchmark
    reads ``cache_info()`` on it."""
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")
    (_, ell, _, terms), = IDENTITY_CATALOGUE["THM12:" + name][1]
    return theta_sum(ell, terms, prec)
