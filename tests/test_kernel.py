"""The integer series kernel against the reference algorithms in ``oracles``.

Every property builds random series over QQ and Q(zeta_l) for l in
{3, 5, 7, 13}, runs one kernel operation, and compares the result with the
schoolbook product, the inverse recurrence or the in-place Pochhammer loop
run on plain coefficient lists; ``FactorBlock`` applies random sequences of
factors (1 - c q^e) and their inverses, checked against products of the
in-place loop and the inverse recurrence.  Fixed cases take ``poch`` and
``geometric`` to 60-120 terms, past the sizes Hypothesis draws.  Equality is
canonical series equality, so valuation, precision and every coefficient
must agree.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qrank.cyclotomic import QQ, CycQ, cyclotomic_field
from qrank.series import (INF, FactorBlock, LaurentSeries, _digit_bytes, _pack, _unpack, geometric,
                          jacprod, poch)

import oracles

ORDERS = (3, 5, 7, 13)

# Magnitudes on both sides of the 1, 2, 4, 8 and 16 byte digit widths.
BOUNDARY = sorted({(1 << bits) + d for bits in (7, 8, 15, 16, 31, 32, 63, 64, 127, 128)
                   for d in (-1, 0, 1)})

rationals = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.integers(min_value=-3, max_value=3).map(Fraction),
    st.builds(lambda m, s: Fraction(s * m), st.sampled_from(BOUNDARY), st.sampled_from((1, -1))),
)


def ring_elements(ring):
    if ring is QQ:
        return rationals
    return st.lists(rationals, min_size=ring.ell - 1, max_size=ring.ell - 1).map(
        lambda cs: CycQ(ring.ell, cs))


rings = st.one_of(st.just(QQ), st.sampled_from(ORDERS).map(cyclotomic_field))


@st.composite
def series_over(draw, ring, max_terms=7):
    valuation = draw(st.integers(min_value=-3, max_value=3))
    coeffs = draw(st.lists(ring_elements(ring), min_size=0, max_size=max_terms))
    prec = draw(st.one_of(st.just(INF), st.integers(min_value=valuation,
                                                   max_value=valuation + max_terms + 3)))
    return LaurentSeries(ring, valuation, coeffs, prec)


@st.composite
def ring_and_pair(draw):
    ring = draw(rings)
    return ring, draw(series_over(ring)), draw(series_over(ring))


def expected_product(ring, a, b):
    prec = min(a.prec + b.valuation, b.prec + a.valuation)
    if a.is_zero() or b.is_zero():
        return LaurentSeries.zero(ring, prec)
    val = a.valuation + b.valuation
    length = len(a.coeffs) + len(b.coeffs) - 1
    if prec != INF:
        length = min(length, int(prec - val))
    if length <= 0:
        return LaurentSeries.zero(ring, prec)
    coeffs = oracles.ref_mul(list(a.coeffs), list(b.coeffs), length, ring.zero)
    return LaurentSeries(ring, val, coeffs, prec)


# -- multiplication -------------------------------------------------------------


@given(ring_and_pair())
@example((QQ, LaurentSeries.zero(QQ, 5), LaurentSeries(QQ, 0, [Fraction(3)], 5)))
@example((cyclotomic_field(13), LaurentSeries(cyclotomic_field(13), -2, [cyclotomic_field(13).zeta(5)], INF),
          LaurentSeries(cyclotomic_field(13), -1, [cyclotomic_field(13).zeta(9)], INF)))
def test_mul_matches_schoolbook(case):
    ring, a, b = case
    assert a * b == expected_product(ring, a, b)


@given(series_over(QQ), st.sampled_from(ORDERS).flatmap(
    lambda ell: series_over(cyclotomic_field(ell))))
def test_mixed_ring_mul_matches_schoolbook(a, b):
    expected = expected_product(b.ring, a, b)
    assert a * b == expected
    assert b * a == expected


@given(ring_and_pair())
def test_square_matches_schoolbook(case):
    ring, a, _ = case
    assert a * a == expected_product(ring, a, a)


@pytest.mark.parametrize("magnitude", BOUNDARY)
def test_mul_at_digit_width_boundaries(magnitude):
    f7 = cyclotomic_field(7)
    for ring, big in ((QQ, Fraction(magnitude)), (f7, CycQ(7, [magnitude, -magnitude, 0, 1, 0, 0]))):
        one_term = LaurentSeries(ring, 0, [big], INF)
        three_terms = LaurentSeries(ring, -1, [big, -big, big], INF)
        for a, b in ((one_term, one_term), (three_terms, three_terms), (one_term, three_terms)):
            assert a * b == expected_product(ring, a, b)


def test_digit_codec_round_trips_at_boundaries():
    for k in (1, 2, 4, 8, 16, 24, 72, 4096):
        top = (1 << (8 * k - 1)) - 1
        vals = [top, -top, 0, 1, -1, top, -top]
        assert _unpack(_pack(vals, k), len(vals), k) == vals
        assert _digit_bytes(top) == k
        assert _digit_bytes(top + 1) > k


# -- inverse --------------------------------------------------------------------


@st.composite
def invertible(draw):
    ring = draw(rings)
    valuation = draw(st.integers(min_value=-3, max_value=3))
    lead = draw(ring_elements(ring).filter(bool))
    tail = draw(st.lists(ring_elements(ring), min_size=0, max_size=6))
    prec = draw(st.one_of(st.just(INF), st.integers(min_value=valuation + 1,
                                                   max_value=valuation + 10)))
    return LaurentSeries(ring, valuation, [lead] + tail, prec)


@given(invertible(), st.integers(min_value=1, max_value=12))
@example(LaurentSeries(QQ, 0, [Fraction(2), Fraction(1)], 12), 12)   # 1/(2+q): denominators 2^k
@example(LaurentSeries(QQ, -2, [Fraction(1)], INF), 3)
def test_inverse_matches_recurrence(a, requested):
    ring = a.ring
    v = a.valuation
    native = a.prec - 2 * v if a.prec != INF else INF
    out_prec = requested if native == INF else min(requested, native)
    count = int(out_prec + v)
    got = a.inverse(prec=requested)
    if count <= 0:
        assert got == LaurentSeries.zero(ring, out_prec)
        return
    lead_inv = ring.invert(a.coefficient(v))
    coeffs = oracles.ref_inverse(list(a.coeffs), count, lead_inv, ring.zero)
    assert got == LaurentSeries(ring, -v, coeffs, out_prec)


# -- Pochhammer products and geometric series -----------------------------------


@st.composite
def poch_case(draw):
    ring = draw(rings)
    c = draw(ring_elements(ring))
    b = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.one_of(st.just(INF), st.integers(min_value=0, max_value=5)))
    prec = draw(st.one_of(st.integers(min_value=1, max_value=14),
                          st.just(INF) if count != INF else st.nothing()))
    # exponents <= 0 only in finite products
    lowest = 0 if count == INF else -4
    a = draw(st.integers(min_value=lowest, max_value=3))
    if count == INF and a == 0 and c == ring.one:
        a = 1
    return ring, c, a, b, count, prec


@given(poch_case())
@example((QQ, Fraction(2), -1, 1, 3, 10))
@example((cyclotomic_field(5), cyclotomic_field(5).zeta(2), -4, 2, 5, 3))
@example((QQ, Fraction(0), -2, 1, 4, 6))
def test_poch_matches_in_place_loop(case):
    ring, c, a, b, count, prec = case
    c = ring.of(c)
    exps = [a + j * b for j in range(count)] if count != INF else []
    low = [e for e in exps if e <= 0]
    if prec == INF:
        size = sum(map(abs, exps)) + 1
    else:
        size = prec - sum(low)
    # prod over e <= 0 of (1 - c q^e) = q^sum(low) prod (q^-e - c), then the loop from a >= 1
    coeffs = [ring.one]
    for e in low:
        coeffs = oracles.ref_mul(coeffs, [ring.one - c] if e == 0 else
                                 [-c] + [ring.zero] * (-e - 1) + [ring.one], size, ring.zero)
    first = a + len(low) * b
    tail = None if count == INF else count - len(low)
    rest = oracles.ref_poch(c, first, b, tail, size, ring.one, ring.zero)
    coeffs = oracles.ref_mul(coeffs, rest, size, ring.zero)
    got = poch(ring, c, a, b, count, prec)
    assert got == LaurentSeries(ring, sum(low), coeffs, prec)
    assert got.prec == prec


F5, F7 = cyclotomic_field(5), cyclotomic_field(7)

# (ring, c, prec) with far more factors than the Hypothesis cases above draw
MANY_FACTORS = [
    pytest.param(QQ, 1, 120, id="QQ-1"),
    pytest.param(QQ, -1, 120, id="QQ-minus1"),
    pytest.param(QQ, 2, 120, id="QQ-2"),
    pytest.param(QQ, Fraction(3, 2), 120, id="QQ-3half"),
    pytest.param(F7, F7.zeta(1), 120, id="Q7-zeta"),
    pytest.param(F7, F7.one + F7.zeta(3), 120, id="Q7-1+zeta3"),
]


@pytest.mark.parametrize("ring, c, prec", MANY_FACTORS)
def test_poch_with_many_factors_matches_in_place_loop(ring, c, prec):
    c = ring.of(c)
    coeffs = oracles.ref_poch(c, 1, 1, None, prec, ring.one, ring.zero)
    assert poch(ring, c, 1, 1, INF, prec) == LaurentSeries(ring, 0, coeffs, prec)


@pytest.mark.parametrize("a, b, prec", [(1, 2, 40), (2, 5, 41), (3, 4, 1)])
@pytest.mark.parametrize("ring, c", [
    pytest.param(QQ, 2, id="QQ-2"),
    pytest.param(F7, F7.zeta(3), id="Q7-zeta3"),
    pytest.param(F7, F7.zeta(6) * Fraction(-2, 3), id="Q7-scaled-zeta6"),
])
def test_jacprod_matches_two_in_place_loops(ring, c, a, b, prec):
    c = ring.of(c)
    first = oracles.ref_poch(c, a, b, None, prec, ring.one, ring.zero)
    second = oracles.ref_poch(ring.invert(c), b - a, b, None, prec, ring.one, ring.zero)
    expected = oracles.ref_mul(first, second, prec, ring.zero)
    assert jacprod(ring, c, a, b, prec) == LaurentSeries(ring, 0, expected, prec)


def expected_geometric(ring, c, step, prec):
    factor = [ring.one] + [ring.zero] * (step - 1) + [-c]
    return LaurentSeries(ring, 0, oracles.ref_inverse(factor, prec, ring.one, ring.zero), prec)


@given(rings.flatmap(lambda r: st.tuples(st.just(r), ring_elements(r))),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=14))
def test_geometric_matches_inverse_recurrence(case, step, prec):
    ring, c = case
    c = ring.of(c)
    assert geometric(ring, c, step, prec) == expected_geometric(ring, c, step, prec)


ROOTS_OF_UNITY = [
    pytest.param(QQ, 1, id="QQ-1"),
    pytest.param(QQ, -1, id="QQ-minus1"),
    pytest.param(F5, F5.zeta(1), id="Q5-zeta"),
    pytest.param(F7, F7.zeta(2), id="Q7-zeta2"),
    pytest.param(F7, -F7.zeta(3), id="Q7-minus-zeta3"),
    pytest.param(cyclotomic_field(13), cyclotomic_field(13).zeta(12), id="Q13-zeta12"),
]
NON_ROOTS = [
    pytest.param(QQ, 2, id="QQ-2"),
    pytest.param(QQ, Fraction(1, 2), id="QQ-half"),
    pytest.param(F5, F5.one + F5.zeta(1), id="Q5-1+zeta"),
    pytest.param(F7, F7.zeta(1) / 3, id="Q7-zeta-third"),
]


@pytest.mark.parametrize("prec", (1, 13, 60))
@pytest.mark.parametrize("step", (1, 3))
@pytest.mark.parametrize("ring, c", ROOTS_OF_UNITY + NON_ROOTS)
def test_geometric_to_higher_precision(ring, c, step, prec):
    assert geometric(ring, c, step, prec) == expected_geometric(ring, c, step, prec)


# -- the in-place factor kernel -------------------------------------------------


def factor_scalars(ring):
    """The c of the factors (1 - c q^e) drawn over each ring."""
    base = [1, -1, 2]
    if ring is QQ:
        return base + [Fraction(1, 2)]
    return base + [ring.zeta(k) for k in range(1, ring.ell)] + [ring.one + ring.zeta(3),
                                                               ring.zeta(2) / 3]


@st.composite
def factor_case(draw):
    ring = draw(rings)
    scalars = st.sampled_from(factor_scalars(ring))
    n = draw(st.integers(min_value=1, max_value=14))
    ops = draw(st.lists(st.tuples(scalars, st.sampled_from((1, 2, 5)), st.booleans()),
                        min_size=1, max_size=4))
    return ring, n, ops, draw(scalars), draw(st.integers(min_value=0, max_value=4))


def expected_factors(ring, n, ops):
    """prod (1 - c q^e)^(-1 if divide else 1) to n terms, from the reference loops."""
    coeffs = [ring.one] + [ring.zero] * (n - 1)
    for c, e, divide in ops:
        factor = oracles.ref_poch(ring.of(c), e, 1, 1, n, ring.one, ring.zero)
        if divide:
            factor = oracles.ref_inverse(factor, n, ring.one, ring.zero)
        coeffs = oracles.ref_mul(coeffs, factor, n, ring.zero)
    return LaurentSeries(ring, 0, coeffs, n)


@given(factor_case())
@example((cyclotomic_field(13), 14, [(cyclotomic_field(13).zeta(12), 1, True),
                                     (cyclotomic_field(13).zeta(2) / 3, 2, True)], 2, 3))
def test_factor_block_matches_poch_and_inverse(case):
    ring, n, ops, _, _ = case
    expected = expected_factors(ring, n, ops)
    block = FactorBlock(ring, n)
    for c, e, divide in ops:
        block.factor(c, e, divide)
    assert block.series(n) == expected


@given(factor_case())
def test_factor_block_scale_copy_and_add(case):
    ring, n, ops, c, shift = case
    expected = expected_factors(ring, n, ops)
    one = LaurentSeries.const(ring, ring.one, n)
    part = (expected.truncate(max(n - shift, 0)).scale(c).shift(shift)
            if shift < n else LaurentSeries.zero(ring, n))
    total = (one + part).truncate(n)
    block = FactorBlock(ring, n)
    for f, e, divide in ops:
        block.factor(f, e, divide)
    acc = FactorBlock(ring, n)
    block.scale(c)
    acc.add(block, shift)  # the terms that would pass q^n are cut
    assert acc.series(n) == total
    assert FactorBlock(ring, n, 0).series(n) == LaurentSeries.zero(ring, n)


def integral_scalars(ring):
    """The integral c of the sparse terms c q^t drawn over each ring."""
    if ring is QQ:
        return [1, -1, 2, -3]
    return [1, -1, 2] + [ring.zeta(k) for k in range(1, ring.ell)] + [
        ring.one + ring.zeta(3), ring.zeta(1) - 2 * ring.zeta(4), -ring.zeta(2) - ring.zeta(-2)]


@st.composite
def sparse_case(draw):
    ring, n, ops, _, _ = draw(factor_case())
    terms = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=16),
                                    st.sampled_from(integral_scalars(ring))), max_size=5))
    return ring, n, ops, terms, draw(st.booleans())


@given(sparse_case())
@example((cyclotomic_field(13), 14, [(2, 1, False)],
          [(1, cyclotomic_field(13).zeta(5)), (3, -2), (1, cyclotomic_field(13).zeta(-2))], True))
def test_factor_block_sparse_matches_product_and_inverse(case):
    ring, n, ops, terms, divide = case
    s = [ring.one] + [ring.zero] * (n - 1)
    for t, c in terms:
        if t < n:
            s[t] = s[t] + ring.of(c)
    if divide:
        s = oracles.ref_inverse(s, n, ring.one, ring.zero)
    expected = oracles.ref_mul(list(expected_factors(ring, n, ops).coeffs) + [ring.zero] * n, s, n, ring.zero)
    block = FactorBlock(ring, n)
    for c, e, div in ops:
        block.factor(c, e, div)
    block.sparse(terms, divide)
    assert block.series(n) == LaurentSeries(ring, 0, expected, n)


def test_factor_block_sparse_rejects_bad_terms():
    with pytest.raises(ValueError):
        FactorBlock(QQ, 5).sparse([(0, 1)])
    with pytest.raises(ValueError):
        FactorBlock(QQ, 5).sparse([(2, Fraction(1, 2))], divide=True)


# -- structural operations ------------------------------------------------------


@given(rings.flatmap(series_over), st.integers(min_value=1, max_value=5), st.data())
def test_dissect_matches_reference(a, modulus, data):
    residue = data.draw(st.integers(min_value=0, max_value=modulus - 1))
    coeffs = oracles.ref_dissect(a.valuation, list(a.coeffs), modulus, residue, a.ring.zero)
    expected = LaurentSeries(a.ring, a.valuation if coeffs else a.prec, coeffs, a.prec)
    assert a.dissect(modulus, residue) == expected
