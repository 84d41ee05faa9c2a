"""The precision-aware memo: a request at a precision no higher than a kept build
is answered by truncating it, and must equal a fresh build at that precision."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from qrank import lambert, rankgen, series
from qrank.cyclotomic import QQ, cyclotomic_field
from qrank.lambert import TSpec
from qrank.series import INF, clear_memos, memo

F5 = cyclotomic_field(5)


def _ranges(factors):
    """The sorted factor ranges of a ``theta_sum`` term's E/P product at ell = 5."""
    return lambert._reduced_factors(5, 0, factors)[2]


tspecs = st.tuples(st.sampled_from((3, 5, 7)), st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda t: t[1] % t[0]).map(lambda t: TSpec(t[1], t[2], t[0]))
factor_lists = st.lists(st.tuples(st.sampled_from("EP"), st.integers(1, 9).filter(lambda x: x % 5),
                                  st.integers(-3, 3).filter(bool)), max_size=3)
# no x here and no a below is divisible by 3, 5 or 7, so every table is defined at those ell
theta_terms = st.lists(st.tuples(
    st.sampled_from((1, -2, Fraction(1, 3), ((1, 1), (-1, 2)))), st.integers(-3, 6),
    st.lists(st.tuples(st.sampled_from("EP"), st.sampled_from((1, 2, 4, 8, 11)), st.integers(-2, 2).filter(bool)),
             max_size=2).map(tuple),
    st.none() | st.tuples(st.sampled_from((1, 2, -1, -4)), st.integers(-4, 4))), min_size=1, max_size=3).map(tuple)
rings = st.sampled_from((QQ, F5))
scalars = st.sampled_from((1, -1, 2, Fraction(1, 2), F5.zeta(1), F5.zeta(3), F5.zeta(1) + 1))
counts = st.one_of(st.integers(0, 6), st.just(INF))

# memo -> (strategies of the arguments before prec, least prec, largest finite prec)
BUILDERS = {
    "lambert_T": (lambert.lambert_T, (tspecs,), -5, 60),
    "E_series": (lambert.E_series, (st.integers(1, 6),), 0, 60),
    "P_series": (lambert.P_series, (st.integers(-12, 12), st.sampled_from((3, 5, 7))), 1, 50),
    "_product": (lambert._product, (factor_lists.map(_ranges),), 1, 80),
    "_theta_sum": (lambert._theta_sum, (st.sampled_from((3, 5, 7)), theta_terms), 1, 60),
    "poch": (series.poch, (rings, scalars, st.integers(-4, 4), st.integers(1, 3), counts), 1, 40),
    "jacprod": (series.jacprod, (rings, scalars, st.integers(1, 3), st.integers(2, 5)), 1, 40),
    "_counting_series": (rankgen._counting_series, (st.sampled_from((1, 2)),), -3, 60),
    "root_prefactor": (rankgen.root_prefactor, (st.sampled_from((3, 5, 7)),), 1, 60),
    "ru_at_root": (rankgen.ru_at_root, (st.sampled_from((3, 5, 7)),), 1, 50),
    "rv_at_root": (rankgen.rv_at_root, (st.sampled_from((3, 5, 7)),), 1, 50),
    "_bivariate": (rankgen._bivariate, (st.sampled_from((1, 2)),), -3, 25),
    "rank_histograms": (rankgen.rank_histograms,
                        (st.sampled_from("uv"), st.sampled_from(("QBINOMIAL", "ENUMERATION"))), -3, 25),
    "rhs_identity": (rankgen.rhs_identity, (st.sampled_from(rankgen.IDENTITY_NAMES),), 1, 50),
}


def _fresh(build, args, prec):
    """The builder itself at prec, or None where it refuses the arguments."""
    try:
        return build.__wrapped__(*args, prec)
    except (ValueError, TypeError, series.PrecisionError):
        return None


@pytest.mark.parametrize("name", BUILDERS)
@given(data=st.data())
def test_a_hit_equals_a_fresh_build(name, data):
    # the second call's arguments differ from the first's in at most one place,
    # so a memo that keys on too few of them answers it from the wrong build
    build, strategies, least, most = BUILDERS[name]
    first = data.draw(st.tuples(*strategies))
    other = data.draw(st.tuples(*strategies))
    place = data.draw(st.integers(0, len(first)))
    second = first[:place] + other[place:place + 1] + first[place + 1:]
    lo = data.draw(st.integers(least, most))
    hi = data.draw(st.one_of(st.integers(lo, most), st.just(INF)) if name == "poch" else st.integers(lo, most))
    # mostly a request at lo after a build at hi; else the reverse, which must build again
    built, asked = (hi, lo) if data.draw(st.integers(0, 3)) else (lo, hi)
    assume(_fresh(build, first, built) is not None)
    expected = _fresh(build, second, asked)
    assume(expected is not None)
    build.cache_clear()
    build(*first, built)
    got = build(*second, asked)
    assert got == expected
    if not isinstance(got, tuple):
        assert got.prec == expected.prec
    hit = first == second and asked <= built
    assert build.cache_info() == (hit, 2 - hit, None, 1 if first == second else 2)


@pytest.mark.parametrize("build,args,hi,lo", [
    (rankgen._counting_series, (1,), 30, 0),
    (rankgen._counting_series, (2,), 30, -4),
    (rankgen._bivariate, (1,), 12, 0),
    (rankgen._bivariate, (2,), 12, -3),
    (series.poch, (QQ, 1, -2, 1, 5), INF, 3),
    (series.poch, (F5, F5.zeta(2), 1, 2, 4), INF, 6),
    (lambert._product, (_ranges([("E", 2, 3), ("E", 1, -2), ("P", 1, -1), ("P", 7, 2)]),), 90, 17),
    (lambert._theta_sum, (7, ((1, 0, (("P", 3, 3), ("P", 1, 1)), None), (-1, 0, (("P", 2, 3), ("P", 3, 1)), None),
                              (((1, 1), (2, 3)), -7, (("E", 49, -1),), (3, 2)))), 300, 80),
])
def test_lower_precision_hit_cases(build, args, hi, lo):
    build.cache_clear()
    build(*args, hi)
    got = build(*args, lo)
    assert got == build.__wrapped__(*args, lo)
    assert build.cache_info().hits == 1


def test_one_clear_empties_every_memo():
    assert {m.__name__ for m in memo.registry} >= {
        "lambert_T", "E_series", "P_series", "_product", "poch", "jacprod", "_counting_series",
        "root_prefactor", "ru_at_root", "rv_at_root", "_bivariate", "rank_histograms", "rhs_identity",
        "_theta_sum"}
    rankgen.rank_series("u", "LAMBERT", 20, 5)
    rankgen.rhs_identity("RU5", 20)
    rankgen.rhs_identity("RU5", 10)
    assert rankgen.rhs_identity.cache_info().hits >= 1
    clear_memos()
    assert all(m.cache_info() == (0, 0, None, 0) for m in memo.registry)


def test_one_clear_empties_the_theta_sum_memo_and_the_text_cache():
    from qrank import qexpr
    clear_memos()
    for prec in (60, 40, 60):
        qexpr.evaluate("q*P(2)/P(1)^2 - q^8*P(1)/(P(2)*P(3)) - q*P(3)^2/(P(1)*P(2)^2)",
                       qexpr.EvalCtx(ell=7, prec=prec))
    assert lambert._theta_sum.cache_info()[:2] == (2, 1)
    assert qexpr._prepared.cache_info()[:2] == (1, 2)
    clear_memos()
    assert lambert._theta_sum.cache_info() == (0, 0, None, 0)
    assert qexpr._prepared.cache_info() == (0, 0, qexpr.SESSION_MAX, 0)


def test_theta_sum_takes_its_terms_as_any_sequence():
    terms = [(1, 2, (("P", 1, -1),), (1, 1)), (Fraction(-1, 2), 0, (("E", 3, 2),), None)]
    clear_memos()
    assert lambert.theta_sum(5, terms, 40) == lambert._theta_sum.__wrapped__(5, tuple(terms), 40)
    assert lambert.theta_sum(5, iter(terms), 30) == lambert.theta_sum(5, tuple(terms), 30).truncate(30)
    assert lambert._theta_sum.cache_info()[:2] == (2, 1)


def test_every_benchmark_cache_answers_cache_info():
    # perfbench/worker.py reads cache_info() on these names when a pass finishes
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    for fns in worker.CACHES.values():
        for fn in fns:
            info = fn.cache_info()
            assert isinstance(info.hits, int) and isinstance(info.misses, int)
    assert set(worker.cache_stats()) == set(worker.CACHES)


def test_enumeration_histograms_are_counted_once_per_kind(monkeypatch):
    # the ENUMERATION series of u and v at l = 3, 5, 7 and 61 terms, as the tier-1 workflow
    # asks for them: one DP per kind and 0 < n < 61, not one per (kind, l), which made 360 calls
    from qrank import quadruples
    counted, rank_counts = [], quadruples.rank_counts
    monkeypatch.setattr(quadruples, "rank_counts", lambda n, kind: counted.append(n) or rank_counts(n, kind))
    clear_memos()
    for kind in ("u", "v"):
        for ell in (3, 5, 7):
            rankgen.rank_series(kind, "ENUMERATION", 61, ell)
    assert len(counted) == 120
