from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qrank.cyclotomic import QQ, cyclotomic_field
from qrank.lambert import (E_series, P_series, TSpec, _reduce_p_argument, _t_term_exponents,
                           lambert_T, t_valuation, theta_sum)
from qrank.rankgen import IDENTITY_CATALOGUE
from qrank.series import LaurentSeries

import oracles


def test_tspec_validation():
    with pytest.raises(ValueError):
        TSpec(5, 1, 5)
    with pytest.raises(ValueError):
        TSpec(1, 1, 4)
    TSpec(-2, 1, 5)


def test_lambert_constant_term():
    t = lambert_T(TSpec(2, 1, 5), 40)
    # only the n = 0 term reaches q^0
    assert t.coefficient(0) == 1
    assert oracles.as_coeff_dict(t, 0, 40) == oracles.lambert_reference(2, 1, 5, 40)


@pytest.mark.parametrize("a,b,ell", [(2, 1, 5), (2, 2, 5), (3, 3, 5), (2, 3, 3), (3, 1, 7), (-2, 1, 5), (1, -4, 7)])
def test_lambert_against_reference(a, b, ell):
    t = lambert_T(TSpec(a, b, ell), 80)
    ref = oracles.lambert_reference(a, b, ell, 80, n_range=8)
    lo = min(ref, default=0)
    assert oracles.as_coeff_dict(t, min(lo, t.valuation if t.coeffs else 0), 80) == ref


def test_lambert_negation_symmetry_example():
    residual = lambert_T(TSpec(-2, 1, 5), 80) + lambert_T(TSpec(2, -1, 5), 80).shift(10)
    assert residual.first_nonzero_below(80) is None


@given(st.sampled_from([3, 5, 7]), st.integers(min_value=-10, max_value=10),
       st.integers(min_value=-10, max_value=10))
def test_lambert_negation_symmetry(ell, a, b):
    if a == 0 or a % ell == 0:
        return
    residual = lambert_T(TSpec(-a, b, ell), 80) + lambert_T(TSpec(a, -b, ell), 80 - ell * a).shift(ell * a)
    assert residual.prec >= 80
    assert residual.first_nonzero_below(80) is None


def test_lambert_matches_main_theorem_sums():
    # exponent polynomials (9n^2+27n)/2 and (9n^2+21n)/2 over 1 - q^(9n+6)
    for b, poly in ((3, lambda n: (9 * n * n + 27 * n) // 2), (2, lambda n: (9 * n * n + 21 * n) // 2)):
        t = lambert_T(TSpec(2, b, 3), 60)
        items = {}
        for n in range(-8, 9):
            e = poly(n)
            m = 9 * n + 6
            sign = 1 if n % 2 == 0 else -1
            if m > 0:
                k = 0
                while e + m * k < 60:
                    items[e + m * k] = items.get(e + m * k, 0) + sign
                    k += 1
            else:
                k = 1
                while e - m * k < 60:
                    items[e - m * k] = items.get(e - m * k, 0) - sign
                    k += 1
        items = {e: Fraction(c) for e, c in items.items() if c}
        lo = min(items, default=0)
        assert oracles.as_coeff_dict(t, lo, 60) == items


def test_p_series_examples():
    assert (P_series(4, 5, 40) - P_series(1, 5, 40)).first_nonzero_below() is None
    lhs = P_series(6, 5, 40).shift(5)
    assert (lhs + P_series(1, 5, 40)).first_nonzero_below() is None
    p1 = P_series(1, 3, 30)
    assert oracles.as_coeff_dict(p1, 0, 11) == {e: Fraction(c) for e, c in
                                                oracles.jac_reference(3, 9, 11).items()}


def test_p_series_negative_arguments():
    # P(-1) = -q^(-5) P(1) at ell = 5
    lhs = P_series(-1, 5, 40)
    rhs = -P_series(1, 5, 45).shift(-5)
    assert (lhs - rhs).first_nonzero_below(40) is None
    assert lhs.valuation == -5


def test_p_reduction_matches_the_symmetry_steps():
    def stepwise(a, ell):
        sign, shift = 1, 0
        while not 0 < a < ell:
            if a >= ell:   # P(a) = -q^(-l(a-l)) P(a-l)
                a -= ell
                sign, shift = -sign, shift - ell * a
            else:          # P(a) = -q^(l a) P(-a)
                sign, shift, a = -sign, shift + ell * a, -a
        return sign, shift, a

    for ell in (3, 5, 7, 13):
        for a in range(-80, 81):
            if a % ell:
                assert _reduce_p_argument(a, ell) == stepwise(a, ell), (a, ell)


def test_p_series_rejects_degenerate():
    with pytest.raises(ValueError):
        P_series(5, 5, 30)
    with pytest.raises(ValueError):
        P_series(0, 7, 30)
    with pytest.raises(ValueError):
        P_series(-14, 7, 30)


def test_e_series():
    e1 = E_series(1, 16)
    assert oracles.as_coeff_dict(e1, 0, 16) == oracles.pentagonal_coeffs(16)
    stretched = oracles.ref_substitute(list(E_series(1, 9).coeffs), 25, QQ.zero)
    assert (E_series(25, 201) - LaurentSeries(QQ, 0, stretched, 201)).first_nonzero_below(201) is None
    assert E_series(7, 30).coefficient(0) == 1
    with pytest.raises(ValueError):
        E_series(0, 10)


@st.composite
def positive_e_tables(draw):
    """theta_sum terms with at least one E(x)^k, k > 0, each coefficient rational
    (the sum over QQ) or, with ring Q(zeta_5), a sum of c zeta^j."""
    over_field = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [("E", draw(st.integers(1, 12)), draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            factors.append((draw(st.sampled_from("EP")), draw(st.integers(1, 4)), draw(st.integers(-2, 2))))
        lam = draw(st.none() | st.tuples(st.integers(1, 4), st.integers(-5, 5)))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 3)))
        coeff = ((c, draw(st.integers(0, 4))), (1, draw(st.integers(0, 4)))) if over_field else c
        terms.append((coeff, draw(st.integers(0, 6)), tuple(factors), lam))
    return terms, draw(st.integers(1, 120))


@given(positive_e_tables())
def test_pentagonal_e_powers_match_the_product_route(case):
    # E(x)^k, k > 0, multiplied by Euler's pentagonal series, against the
    # generic route whose E is a poch product
    terms, prec = case
    field = cyclotomic_field(5)
    expected = LaurentSeries.zero(QQ, prec)
    for coeff, shift, factors, lam in terms:
        scalar = sum((field.zeta(j) * c for c, j in coeff), field.zero) if isinstance(coeff, tuple) else coeff
        expected = expected + oracles.ref_monomial_sum(5, [(1, shift, factors, lam)], prec).scale(scalar)
    assert (theta_sum(5, terms, prec) - expected).first_nonzero_below(prec) is None


def test_chan_variant2_examples(catalogue_residual):
    # the T(2,3,5) relation used in the RU5 argument
    for label in ("parameters (2, 5, 1, 2, None)", "parameters (2, 5, 1, 3, None)"):
        assert catalogue_residual("INFRA:EqChan2-suite", 60, label).first_nonzero_below(60) is None


def test_chan_variant1_examples(catalogue_residual):
    # ell=5, a=2+k+c, b1=2, b2=k at k=3, c=0
    assert catalogue_residual("INFRA:EqChan1-suite", 60, "parameters (1, 5, 5, 2, 3)") \
        .first_nonzero_below(60) is None
    # ell=7, a=3+k+c, b1=3, b2=k at k=2, c=-2
    assert catalogue_residual("INFRA:EqChan1-suite", 100, "parameters (1, 7, 3, 3, 2)") \
        .first_nonzero_below(100) is None


def test_chan_full_suite(catalogue_residual):
    # the small precisions include terms whose q-shift is at least prec
    # but whose T has negative valuation, e.g. (1, 5, 5, 3, 2)
    for check in ("INFRA:EqChan1-suite", "INFRA:EqChan2-suite"):
        for label, ell, _, _ in IDENTITY_CATALOGUE[check][1]:
            for prec in (1, 2, 3, 5, 13, 100 if ell == 7 else 60):
                residual = catalogue_residual(check, prec, label)
                assert residual.prec >= prec, (label, prec)
                assert residual.first_nonzero_below(prec) is None, (label, prec)


@pytest.mark.parametrize("a,b,ell", [(1, 1000, 3), (1, -1000, 3), (-2, 7, 5), (3, -40, 7),
                                     (10**6 + 1, 2, 3), (4, 0, 13)])
def test_t_valuation_is_the_least_term_valuation(a, b, ell):
    spec = TSpec(a, b, ell)
    least = min(_t_term_exponents(spec, n)[1] for n in range(-1000, 1000))
    assert t_valuation(spec) == least
    assert lambert_T(spec, 5).valuation >= least
