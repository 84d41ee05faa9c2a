from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qrank.cyclotomic import QQ, CycQ, cyclotomic_field
from qrank.qexpr import EvalCtx, evaluate
from qrank import rankgen
from qrank.quadruples import rank_counts
from qrank.rankgen import (ROUTES, _bilateral_rank_sum, _bivariate, _counting_series,
                           _fg_series, eval_f, eval_g, rank_histograms,
                           rank_series, rhs_identity, root_prefactor, ru_at_root, rv_at_root,
                           u_series, v_series)
from qrank.series import LaurentSeries

import oracles

U_GOLDEN = [1, 5, 15, 44, 105, 252, 539, 1135, 2259, 4390]
V_GOLDEN = [1, 4, 15, 39, 105, 237, 530, 1100, 2223]


def test_u_golden_coefficients():
    u = u_series(11)
    assert [u.coefficient(e) for e in range(1, 11)] == U_GOLDEN


def test_v_golden_coefficients():
    v = v_series(11)
    assert [v.coefficient(e) for e in range(2, 11)] == V_GOLDEN
    assert v.coefficient(0) == 0 and v.coefficient(1) == 0


def test_u_minus_v_at_q1():
    diff = u_series(11) - v_series(11)
    assert diff.coefficient(1) == 1


@pytest.mark.parametrize("prec", (1, 2, 14, 40, 61, 300))
@pytest.mark.parametrize("offset", (3, 1))
@pytest.mark.parametrize("ell", (3, 5, 7, 11, 13))
def test_bilateral_sum_matches_term_by_term(ell, offset, prec):
    got = _bilateral_rank_sum(ell, prec, offset).series(prec)
    assert got == oracles.ref_bilateral_rank_sum(ell, prec, offset)


@pytest.mark.parametrize("prec", (1, 2, 14, 61))
@pytest.mark.parametrize("ell", (3, 5, 7, 13))
def test_prefactor_division_matches_newton_reference(ell, prec):
    prefactor = oracles.ref_root_prefactor(ell, prec)
    assert root_prefactor.__wrapped__(ell, prec) == prefactor
    inverse = prefactor.inverse()
    assert ru_at_root.__wrapped__(ell, prec) == oracles.ref_bilateral_rank_sum(ell, prec, 3) * inverse
    assert rv_at_root.__wrapped__(ell, prec) == oracles.ref_bilateral_rank_sum(ell, prec, 1) * inverse


@settings(max_examples=10)
@given(st.sampled_from((3, 5, 7, 11, 13)), st.integers(min_value=1, max_value=300))
@example(13, 300)
def test_prefactor_division_property(ell, prec):
    # the triple-product prefactor and the sparse division against the infinite
    # product, factor by factor, and its Newton inverse, at any order and precision
    test_prefactor_division_matches_newton_reference(ell, prec)


# The running-block builders against the per-term Newton references they
# replaced; the cached builders are called through __wrapped__ so each case
# builds afresh.


@pytest.mark.parametrize("prec", (-1, 0, 1, 2, 3, 30, 60))
@pytest.mark.parametrize("power", (1, 2))
def test_counting_series_matches_newton_reference(power, prec):
    assert _counting_series.__wrapped__(power, prec) == oracles.ref_counting_series(power, prec)


@pytest.mark.parametrize("prec", (1, 2, 3, 14, 60))
@pytest.mark.parametrize("ell", (3, 7, 13))
def test_fg_series_matches_newton_reference(ell, prec):
    f = cyclotomic_field(ell)
    args = (f.zeta(2), f.zeta(-2), f.zeta(1))
    for power in (1, 2):
        assert _fg_series(*args, prec, power) == oracles.ref_fg_series(*args, prec, power)


def test_eval_f_and_g_match_newton_reference_off_the_route():
    # rho1 rho2 != 1, and arguments with denominators 3 and 2
    f5 = cyclotomic_field(5)
    for rho1, rho2, z in ((f5.zeta(1), f5.zeta(3), f5.zeta(2)),
                          (f5.zeta(1) / 3, f5.one + f5.zeta(3), f5.zeta(2) * Fraction(1, 2))):
        for prec in (1, 9, 30):
            assert eval_f(rho1, rho2, z, prec) == oracles.ref_fg_series(rho1, rho2, z, prec, 1)
            assert eval_g(rho1, rho2, z, prec) == oracles.ref_fg_series(rho1, rho2, z, prec, 2)


# packed z-digits of 1 byte up to prec 2, 2 bytes at 3-4, 4 at 5-12, 8 at 13-47, 16 from 48
@pytest.mark.parametrize("prec", (-1, 0, 1, 2, 3, 4, 5, 9, 12, 13, 21, 40))
@pytest.mark.parametrize("power", (1, 2))
def test_bivariate_matches_newton_reference(power, prec):
    assert list(_bivariate.__wrapped__(power, prec)) == oracles.ref_bivariate(power, prec)


@pytest.mark.parametrize("power", (1, 2))
def test_bivariate_matches_rank_counts(power):
    polys = _bivariate.__wrapped__(power, 60)
    assert len(polys) == 60 and not polys[0]
    for n in range(1, 60):
        assert dict(polys[n].items()) == rank_counts(n, "u" if power == 1 else "v"), n


def test_eval_f_is_ru_at_root():
    f5 = cyclotomic_field(5)
    lhs = eval_f(f5.zeta(2), f5.zeta(-2), f5.zeta(1), 20)
    assert (lhs - ru_at_root(5, 20)).first_nonzero_below() is None


def test_eval_f_first_coefficient():
    f7 = cyclotomic_field(7)
    s = eval_f(f7.zeta(2), f7.zeta(-2), f7.zeta(1), 10)
    assert s.coefficient(1) == cyclotomic_field(7).one


def test_eval_g_starts_at_q2():
    f5 = cyclotomic_field(5)
    s = eval_g(f5.zeta(2), f5.zeta(-2), f5.zeta(1), 10)
    assert s.coefficient(1).is_zero()
    assert not s.coefficient(2).is_zero()


def test_eval_f_rejects_degenerate_arguments():
    f5 = cyclotomic_field(5)
    with pytest.raises(ValueError):
        eval_f(f5.one, f5.zeta(-2), f5.zeta(1), 10)
    with pytest.raises(ValueError):
        eval_f(f5.zeta(2), f5.zeta(-2), f5.one, 10)


def test_ru_at_root_vanishing_families():
    s3 = ru_at_root(3, 31)
    assert all(s3.coefficient(3 * n).is_zero() for n in range(1, 11))
    s5 = ru_at_root(5, 26)
    assert s5.coefficient(2).is_zero()
    assert all(s5.coefficient(5 * n).is_zero() for n in range(1, 6))
    assert all(s5.coefficient(5 * n + 3).is_zero() for n in range(5))
    s7 = ru_at_root(7, 22)
    assert all(s7.coefficient(7 * n).is_zero() for n in range(1, 4))
    assert all(s7.coefficient(7 * n + 5).is_zero() for n in range(3))


def test_rv_at_root_vanishing_families():
    s3 = rv_at_root(3, 31)
    assert all(s3.coefficient(3 * n + 1).is_zero() for n in range(10))
    s5 = rv_at_root(5, 26)
    assert all(s5.coefficient(5 * n + 1).is_zero() for n in range(5))
    assert all(s5.coefficient(5 * n + 4).is_zero() for n in range(5))


def test_ru13_q13_nonzero():
    c = ru_at_root(13, 14).coefficient(13)
    assert not c.is_zero()


def test_ru13_matches_enumeration():
    counts = class_counts_13 = [0] * 13
    for r, c in rank_counts(13, "u").items():
        class_counts_13[r % 13] += c
    expected = CycQ.from_raw(13, [Fraction(c) for c in class_counts_13])
    assert ru_at_root(13, 14).coefficient(13) == expected


def test_bivariate_rank_polynomial_at_q3():
    polys = rank_histograms("u", 5)
    assert dict(polys[3].items()) == {-4: 1, -3: 1, -2: 2, -1: 2, 0: 3,
                                      1: 2, 2: 2, 3: 1, 4: 1}
    assert str(polys[2]) == "z^-2 + z^-1 + 1 + z + z^2"
    assert rank_series("u", "QBINOMIAL", 5).coefficient(3) == 15
    assert polys[1] == 1


def test_bivariate_histograms():
    biv_u, biv_v = rank_histograms("u", 13), rank_histograms("v", 13)
    for n in range(1, 13):
        assert dict(biv_u[n].items()) == rank_counts(n, "u")
        assert dict(biv_v[n].items()) == rank_counts(n, "v")


def test_specialize_one_recovers_counting_series():
    assert rank_series("u", "QBINOMIAL", 15) == u_series(15)
    assert rank_series("v", "QBINOMIAL", 15) == v_series(15)


def test_rank_series_routes_agree():
    prec = 11
    for kind in ("u", "v"):
        for ell in (3, 5):
            base, *others = [rank_series(kind, route, prec, ell) for route in ROUTES]
            for other in others:
                assert other.ring is cyclotomic_field(ell)
                assert (base - other).first_nonzero_below(prec) is None
        # every route but LAMBERT gives the counting series at z = 1
        counts = rank_series(kind, "DEFINITION", prec)
        assert counts.ring is QQ
        assert rank_series(kind, "QBINOMIAL", prec) == counts
    with pytest.raises(ValueError):
        rank_series("u", "LAMBERT", 10)
    with pytest.raises(ValueError):
        rank_histograms("w", 10)
    for route in ("MAGIC", "ENUMERATION"):
        with pytest.raises(ValueError):
            rank_series("u", route, 10, 5)
    with pytest.raises(ValueError):
        rank_series("w", "LAMBERT", 10, 5)


# at prec 21 the rank polynomials span z^-40 .. z^40, wider than every l
@pytest.mark.parametrize("ell", [None, 3, 5, 7, 13])
def test_rank_series_folds_rank_polynomials(ell):
    ring = QQ if ell is None else cyclotomic_field(ell)
    for kind in ("u", "v"):
        coeffs = oracles.ref_specialize_z(list(rank_histograms(kind, 21)), ring)
        assert rank_series(kind, "QBINOMIAL", 21, ell) == LaurentSeries(ring, 0, coeffs, 21)


@pytest.mark.parametrize("ell", [1, 4, 9])
@pytest.mark.parametrize("route", ROUTES)
def test_rank_series_refuses_ell_before_building(monkeypatch, route, ell):
    def builder(*args):
        raise AssertionError("a builder ran before ell was checked")
    for name in ("_bivariate", "_counting_series", "_fg_series", "ru_at_root", "rv_at_root"):
        monkeypatch.setattr(rankgen, name, builder)
    for kind in ("u", "v"):
        with pytest.raises(ValueError, match="cyclotomic order must be a prime >= 3"):
            rank_series(kind, route, 200, ell)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_three_routes_agree(ell):
    prec = 21
    for kind in ("u", "v"):
        base = rank_series(kind, "LAMBERT", prec, ell)
        assert (rank_series(kind, "DEFINITION", prec, ell) - base).first_nonzero_below() is None
        assert (rank_series(kind, "QBINOMIAL", prec, ell) - base).first_nonzero_below() is None


@pytest.mark.parametrize("name,prec", [
    ("RU3", 60), ("RV3", 60), ("RU5", 60), ("RV5", 60), ("RU7", 120),
])
def test_main_identities(name, prec):
    lhs = rank_series(name[1].lower(), "LAMBERT", prec, int(name[2:]))
    assert (lhs - rhs_identity(name, prec)).first_nonzero_below(prec) is None


# each identity's right-hand side as qexpr text: the product/Newton route
RHS_TEXTS = {
    "RU3": "(q^7*T(2,3,3) - q^5*T(2,2,3))/E(3)",
    "RV3": "(q^5*T(2,2,3) - q^3*T(2,1,3))/E(3)",
    "RU5": "q*E(25)/P(1)^2 - q^7*T(2,2,5)/(E(25)*P(2)) - q^4*T(2,1,5)/(E(25)*P(1))",
    "RV5": "q^12*T(3,3,5)/(E(25)*P(2)) - q^5*T(3,1,5)/(E(25)*P(1))"
           " + q^2*E(25)/(P(1)*P(2)) - q^3*E(25)/P(2)^2",
    "RU7": "q*E(49)*P(3)/(P(1)*P(2)^2) - (zeta^2 + zeta^5)*q^15*T(3,3,7)/(E(49)*P(3))"
           " - (zeta^3 + zeta^4)*q^2*E(49)/(P(1)*P(2)) + q^3*E(49)/(P(1)*P(3))"
           " + (zeta + zeta^6)*q^4*E(49)/P(2)^2 + (zeta + zeta^6)*q^11*T(3,2,7)/(E(49)*P(2))"
           " + (1 + zeta^3 + zeta^4)*q^6*E(49)/P(3)^2"
           " - (1 + zeta^3 + zeta^4)*q^6*T(3,1,7)/(E(49)*P(1))",
}


@pytest.mark.parametrize("name", sorted(RHS_TEXTS))
def test_rhs_identity_table_matches_the_expression_route(name):
    ell = int(name[2:])
    field = cyclotomic_field(ell)
    for prec in (1, 2, 3, 60, 121):
        rhs = rhs_identity(name, prec)
        assert rhs.ring is (field if name == "RU7" else QQ), prec
        assert rhs.promote(field) == evaluate(RHS_TEXTS[name], EvalCtx(ell=ell, prec=prec)), prec


def test_rhs_rv5_vanishing_families():
    rhs = rhs_identity("RV5", 30)
    assert not rhs.coefficient(1)
    assert not rhs.coefficient(4)
    assert all(not rhs.coefficient(5 * n + 1) for n in range(6))
    assert all(not rhs.coefficient(5 * n + 4) for n in range(6))


def test_rhs_rejects_unknown_name():
    with pytest.raises(ValueError):
        rhs_identity("RU11", 20)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_prod_dissection(catalogue_residual, ell):
    assert catalogue_residual(f"INFRA:ProdDissection-{ell}", 60).first_nonzero_below(60) is None


@pytest.mark.parametrize("ell", [5, 7])
def test_prefactor_closed_forms(catalogue_residual, ell):
    assert catalogue_residual(f"INFRA:Prefactor-{ell}", 60).first_nonzero_below(60) is None


def test_routes_consistent_across_precisions():
    # truncations of a higher-precision run must match a lower-precision run
    assert (ru_at_root(5, 40).truncate(18) - ru_at_root(5, 18)).first_nonzero_below() is None
    assert (rhs_identity("RV5", 50).truncate(25) - rhs_identity("RV5", 25)).first_nonzero_below(25) is None
    assert (u_series(30).truncate(12) - u_series(12)).first_nonzero_below() is None


def test_prefactor_leading_scalar():
    # constant term of (1+z)(q, z, 1/z; q)_inf is (1+z)(1-z)(1-1/z)
    f5 = cyclotomic_field(5)
    z = f5.zeta(1)
    expected = (f5.one + z) * (f5.one - z) * (f5.one - f5.zeta(-1))
    assert root_prefactor(5, 10).coefficient(0) == expected
