from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qrank.cyclotomic import QQ, cyclotomic_field
from qrank.series import INF, LaurentSeries, PrecisionError, geometric, jacprod, poch, theta_jtp_sum

import oracles


def qs(valuation, coeffs, prec):
    return LaurentSeries(QQ, valuation, [Fraction(c) for c in coeffs], prec)


small_series = st.builds(
    qs,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=0, max_size=6),
    st.just(12),
)


# -- add / mul / invert -------------------------------------------------------


def test_add_examples():
    a = qs(0, [1, 1], 10)
    b = qs(0, [1, -1], 10)
    assert (a + b).coefficient(0) == 2
    assert (a + b).coefficient(1) == 0
    zero = LaurentSeries.zero(QQ, 10)
    assert ((a + zero) - a).first_nonzero_below() is None
    c = qs(-1, [1, 1], 10)  # 1/q + 1
    d = qs(-1, [1], 10)     # 1/q
    diff = c - d
    assert diff.valuation == 0 and diff.coefficient(0) == 1


def test_add_takes_min_precision():
    a = qs(0, [1], 5)
    b = qs(0, [1], 9)
    assert (a + b).prec == 5


def test_mul_examples():
    one_minus_q = qs(0, [1, -1], 30)
    geom = geometric(QQ, 1, 1, 30)
    prod = one_minus_q * geom
    assert prod.first_nonzero_below(1) == (0, 1)
    assert all(prod.coefficient(e) == 0 for e in range(1, prod.prec))
    assert (qs(-2, [1], 20) * qs(3, [1], 20)).valuation == 1


def test_mul_precision_rule():
    a = qs(2, [1, 1], 9)
    b = qs(-1, [1], 4)
    assert (a * b).prec == min(9 + (-1), 4 + 2)


def test_invert_examples():
    inv = qs(0, [1, -1], 25).inverse()
    assert all(inv.coefficient(e) == 1 for e in range(25))
    lau = qs(2, [1, -1], 12).inverse()  # 1/(q^2 (1-q))
    assert lau.valuation == -2
    assert lau.coefficient(-2) == 1 and lau.coefficient(0) == 1
    # partition numbers from the pentagonal product, checked against DP
    e1 = poch(QQ, 1, 1, 1, INF, 16)
    pinv = e1.inverse()
    expected = oracles.partition_counts(16)
    assert [pinv.coefficient(e) for e in range(16)] == expected
    assert expected[10] == 42


def test_invert_pentagonal_roundtrip():
    e1 = poch(QQ, 1, 1, 1, INF, 40)
    prod = e1 * e1.inverse()
    assert prod.coefficient(0) == 1
    assert prod.first_nonzero_below(40) == (0, 1)
    assert all(prod.coefficient(e) == 0 for e in range(1, 40))


def test_invert_rejects_zero_and_infinite():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(QQ, 5).inverse()
    with pytest.raises(PrecisionError):
        LaurentSeries.monomial(QQ, 1).inverse()
    exact = LaurentSeries.from_items(QQ, [(0, Fraction(1)), (1, Fraction(-1))])
    inv = exact.inverse(prec=8)
    assert all(inv.coefficient(e) == 1 for e in range(8))


# -- dissect / coefficient ---------------------------------------------------


def test_dissect_examples():
    from qrank.rankgen import u_series, v_series
    u = u_series(11)
    kept = u.dissect(5, 0)
    assert oracles.as_coeff_dict(kept, 0, 11) == {5: 105, 10: 4390}
    assert (u.dissect(1, 0) - u).first_nonzero_below() is None
    v = v_series(11)
    assert oracles.as_coeff_dict(v.dissect(3, 1), 0, 11) == {4: 15, 7: 237, 10: 2223}
    with pytest.raises(ValueError):
        u.dissect(5, 5)


@given(small_series, st.integers(min_value=1, max_value=5))
def test_dissect_partitions_the_series(a, m):
    total = LaurentSeries.zero(QQ, a.prec)
    for r in range(m):
        total = total + a.dissect(m, r)
    assert (total - a).first_nonzero_below() is None


def test_coefficient_contract():
    from qrank.rankgen import u_series, v_series
    assert u_series(11).coefficient(10) == 4390
    assert v_series(11).coefficient(7) == 237
    a = qs(2, [7], 9)
    assert a.coefficient(-5) == 0
    with pytest.raises(PrecisionError):
        a.coefficient(9)


# -- product builders ---------------------------------------------------------


def test_poch_examples():
    two = poch(QQ, 1, 1, 1, 2, 10)
    assert [two.coefficient(e) for e in range(4)] == [1, -1, -1, 1]
    assert (poch(QQ, Fraction(5, 7), 3, 2, 0, 10) - LaurentSeries.const(QQ, 1, 10)).first_nonzero_below() is None
    e1 = poch(QQ, 1, 1, 1, INF, 16)
    assert oracles.as_coeff_dict(e1, 0, 16) == oracles.pentagonal_coeffs(16)


def test_poch_count_past_the_precision_costs_nothing():
    # factors at or past q^prec are never listed, so a count of 10^12 is at once
    # the INF-count product; factors with exponent <= 0 still count, and the
    # product keeps the requested precision
    assert poch(QQ, 1, 1, 1, 10**12, 10) == poch(QQ, 1, 1, 1, INF, 10)
    lhs = poch(QQ, 3, -2, 1, 10**12, 10)
    rhs = poch(QQ, 3, -2, 1, 3, 10) * poch(QQ, 3, 1, 1, INF, 10)
    assert lhs.prec == 10 and rhs.prec == 7
    assert (lhs - rhs).first_nonzero_below() is None


def test_poch_rejects_divergent_products():
    with pytest.raises(ValueError):
        poch(QQ, 1, -1, 1, INF, 10)
    with pytest.raises(ValueError):
        poch(QQ, 1, 0, 1, INF, 10)
    # a = 0 with c != 1 is the (c; q)_inf case and is fine
    s = poch(QQ, 2, 0, 1, INF, 10)
    assert s.coefficient(0) == -1


def test_jacprod_examples():
    p1 = jacprod(QQ, 1, 5, 25, 27)
    assert oracles.as_coeff_dict(p1, 0, 27) == {0: 1, 5: -1, 20: -1, 25: 1}
    assert oracles.as_coeff_dict(p1, 0, 27) == oracles.jac_reference(5, 25, 27)
    a = jacprod(QQ, 1, 3, 10, 40)
    b = jacprod(QQ, 1, 7, 10, 40)
    assert (a - b).first_nonzero_below() is None  # symmetry a <-> b-a
    assert jacprod(QQ, 1, 1, 4, 30).coefficient(0) == 1
    with pytest.raises(ValueError):
        jacprod(QQ, 1, 5, 5, 30)


def test_jacprod_against_bilateral_triple_product():
    # (q^5, q^20, q^25; q^25)_inf = sum (-1)^n q^(25 n(n+1)/2 - 20n)
    prec = 120
    lhs = jacprod(QQ, 1, 5, 25, prec) * poch(QQ, 1, 25, 25, INF, prec)
    items = {}
    for n in range(-6, 7):
        e = 25 * n * (n + 1) // 2 - 20 * n
        if e < prec:
            items[e] = items.get(e, 0) + (1 if n % 2 == 0 else -1)
    assert oracles.as_coeff_dict(lhs, 0, prec) == {e: Fraction(c) for e, c in items.items() if c}


def test_theta_sum_examples():
    assert theta_jtp_sum(QQ, 1, 40).is_zero()
    f3 = cyclotomic_field(3)
    z = f3.zeta(1)
    theta = theta_jtp_sum(f3, z, 40)
    prod = poch(f3, z, 1, 1, INF, 40) * poch(f3, f3.invert(z), 0, 1, INF, 40) \
        * poch(QQ, 1, 1, 1, INF, 40)
    assert (theta - prod).first_nonzero_below() is None
    # constant term 1 - 1/c from the n = 0 and n = -1 terms
    assert theta_jtp_sum(QQ, 2, 10).coefficient(0) == 1 - Fraction(1, 2)
    f5 = cyclotomic_field(5)
    assert theta_jtp_sum(f5, f5.zeta(1), 10).coefficient(0) == f5.one - f5.zeta(-1)


@pytest.mark.parametrize("label,ring,c", [
    ("zeta3", cyclotomic_field(3), cyclotomic_field(3).zeta(1)),
    ("zeta5", cyclotomic_field(5), cyclotomic_field(5).zeta(1)),
    ("zeta7", cyclotomic_field(7), cyclotomic_field(7).zeta(1)),
    ("two", QQ, Fraction(2)),
    ("minus-one", QQ, Fraction(-1)),
])
def test_triple_product_identity(label, ring, c):
    prec = 60
    theta = theta_jtp_sum(ring, c, prec)
    prod = poch(ring, c, 1, 1, INF, prec) * poch(ring, ring.invert(c), 0, 1, INF, prec) \
        * poch(QQ, 1, 1, 1, INF, prec)
    assert (theta - prod).first_nonzero_below() is None


def gauss_binomial(n: int, m: int) -> LaurentSeries:
    """[n+m choose m]_q = (q^(n+1); q)_m / (q; q)_m, a polynomial of degree n m, from two ``poch``s."""
    prec = n * m + 1
    return poch(QQ, 1, n + 1, 1, m, prec) * poch(QQ, 1, 1, 1, m, prec).inverse()


def test_gauss_binomial_examples():
    assert oracles.as_coeff_dict(gauss_binomial(1, 1), 0, 2) == {0: 1, 1: 1}
    assert gauss_binomial(4, 0).coefficient(0) == 1
    g22 = gauss_binomial(2, 2)
    assert [g22.coefficient(e) for e in range(5)] == [1, 1, 2, 1, 1]
    by_size = {}
    for p in oracles.partitions_in_box(2, 2):
        by_size[sum(p)] = by_size.get(sum(p), 0) + 1
    assert by_size == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (3, 2), (4, 4), (5, 3), (6, 6)])
def test_gauss_binomial_counts_boxes(n, m):
    g = gauss_binomial(n, m)
    by_size = {}
    for p in oracles.partitions_in_box(m, n):
        by_size[sum(p)] = by_size.get(sum(p), 0) + 1
    assert oracles.as_coeff_dict(g, 0, n * m + 1) == {
        e: Fraction(c) for e, c in by_size.items()}


def test_gauss_binomial_shifted_counts_banded_parts():
    # q^(nm) * gauss(n, m) counts partitions into exactly m parts in [n, 2n]
    from qrank.quadruples import _partitions
    for n, m in [(2, 3), (3, 3), (4, 2), (5, 4), (6, 5)]:
        shifted = gauss_binomial(n, m).shift(n * m)
        for total in range(n * m, 2 * n * m + 1):
            matching = [p for p in _partitions(total, n, 2 * n) if len(p) == m]
            assert shifted.coefficient(total) == len(matching)


# -- ring axioms on random series ---------------------------------------------


@given(small_series, small_series, small_series)
def test_series_ring_axioms(a, b, c):
    lhs = (a + b) + c
    rhs = a + (b + c)
    assert (lhs - rhs).first_nonzero_below() is None
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert (lhs - rhs).first_nonzero_below() is None
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert (lhs - rhs).first_nonzero_below() is None


@given(small_series)
def test_series_inverse_roundtrip(a):
    # force a unit leading coefficient at q^0
    unit = LaurentSeries.const(QQ, 1, a.prec) + a.shift(1 - a.valuation if a.coeffs else 1)
    prod = unit * unit.inverse()
    hit = prod.first_nonzero_below()
    assert hit == (0, 1)
    assert all(prod.coefficient(e) == 0 for e in range(1, int(prod.prec)))


def test_json_dump_shape():
    s = qs(-1, [1, 0, 2], 7)
    assert s.to_json() == {"valuation": -1, "prec": 7, "coeffs": ["1/1", "0/1", "2/1"]}
    f3 = cyclotomic_field(3)
    t = LaurentSeries.const(f3, f3.zeta(1), 4)
    assert t.to_json() == {"valuation": 0, "prec": 4, "coeffs": [["0/1", "1/1"]]}
