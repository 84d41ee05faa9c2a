import pytest

from qrank import lambert, verify
from qrank.cyclotomic import cyclotomic_field
from qrank.lambert import TSpec
from qrank.quadruples import class_counts
from qrank.rankgen import IDENTITY_CATALOGUE, rank_histograms, rank_series, root_prefactor
from qrank.series import LaurentSeries, geometric
from qrank.verify import PARTIAL_FRACTIONS, CheckReport, _expand, check_names, run_all, run_check

# every check the registry must expose
REQUIRED_NAMES = [
    "THM11:u3", "THM11:u5a", "THM11:u5b", "THM11:u7a", "THM11:u7b",
    "THM11:u13", "THM11:v3", "THM11:v5a", "THM11:v5b", "THM11:v13",
    "THM12:RU3", "THM12:RV3", "THM12:RU5", "THM12:RV5", "THM12:RU7",
    "THM13:bivariate-agreement", "THM13:classes-u3", "THM13:classes-v3",
    "THM13:classes-u5", "THM13:classes-v5", "THM13:classes-u7",
    "INFRA:T-symmetry", "INFRA:EqChan1-suite", "INFRA:EqChan2-suite",
    "INFRA:JTP", "INFRA:ProdDissection-3", "INFRA:ProdDissection-5",
    "INFRA:ProdDissection-7", "INFRA:AS-Lemma4", "INFRA:q7-rewrites",
    "INFRA:PartialFractions-U", "INFRA:PartialFractions-V",
    "INFRA:Prefactor-5", "INFRA:Prefactor-7",
    "SEC5:RU13-q13-nonzero", "SEC5:F13-grid-q13-nonzero",
]


def test_registry_is_total():
    names = set(check_names())
    for required in REQUIRED_NAMES:
        assert required in names, f"missing check {required}"


def test_long_checks_excluded_by_default():
    assert "SEC5:F13-grid-q13-nonzero" not in check_names(include_long=False)
    fast_names = {r.name for r in run_all(profile="fast", only=["THM11:u3"])}
    assert fast_names == {"THM11:u3"}


def test_run_check_examples():
    report = run_check("THM11:u13", prec=105)
    assert report.status == "PASS"
    assert report.prec == 105
    report = run_check("THM12:RU3", prec=60)
    assert report.status == "PASS"
    report = run_check("SEC5:RU13-q13-nonzero", prec=14)
    assert report.status == "PASS"


def test_run_check_unknown_name():
    with pytest.raises(KeyError):
        run_check("THM99:nope")
    with pytest.raises(KeyError):
        run_all(only=["THM99:nope"])
    with pytest.raises(ValueError):
        run_check("THM11:u3", profile="warp")


def test_reports_are_reproducible():
    a = run_check("THM12:RV3", prec=40)
    b = run_check("THM12:RV3", prec=40)
    assert (a.name, a.prec, a.status, a.first_failure) == \
        (b.name, b.prec, b.status, b.first_failure)


def test_report_json_shape():
    report = CheckReport("X", 10, "FAIL", (3, "1", "0"), 1.25, "demo")
    assert report.to_json() == {
        "name": "X", "prec": 10, "status": "FAIL",
        "first_failure": {"exponent": 3, "lhs": "1", "rhs": "0"},
        "runtime_ms": 1.25, "detail": "demo",
    }


def test_fast_profile_all_pass():
    reports = run_all(profile="fast")
    assert reports == sorted(reports, key=lambda r: r.name)
    failures = [r.name for r in reports if r.status != "PASS"]
    assert failures == []
    assert "SEC5:F13-grid-q13-nonzero" not in {r.name for r in reports}


def test_explicit_prec_override():
    report = run_check("THM12:RU5", prec=25, profile="fast")
    assert report.prec == 25 and report.status == "PASS"


def test_ru13_check_reports_its_capped_precision():
    report = run_check("SEC5:RU13-q13-nonzero", prec=1000)
    assert report.prec == 14 and report.status == "PASS"


def test_class_checks_reach_past_enumeration_scale():
    report = run_check("THM13:classes-u5", prec=25)
    assert report.prec == 25 and report.status == "PASS"
    assert "25" in report.detail


def _bump(series, k):
    """series + q^k"""
    return series + LaurentSeries.monomial(series.ring, k)


def _bump_ru5_rhs(monkeypatch, prec, k):
    theta_sum = verify.theta_sum
    monkeypatch.setattr(verify, "theta_sum", lambda ell, terms, prec: _bump(theta_sum(ell, terms, prec), k))
    c = rank_series("u", "LAMBERT", prec, 5).coefficient(k)
    return (k, str(c), str(c + 1)), ""


def _bump_prefactor_side(monkeypatch, prec, k):
    monkeypatch.setattr(verify, "root_prefactor", lambda ell, prec: _bump(root_prefactor(ell, prec), k))
    c = root_prefactor(5, prec).coefficient(k)
    return (k, str(c + 1), str(c)), ""


def _bump_rank_series(monkeypatch, k, kind, route, *ell):
    def bumped(*args):
        series = rank_series(*args)
        return _bump(series, k) if args[:2] == (kind, route) and args[3:] == ell else series
    monkeypatch.setattr(verify, "rank_series", bumped)


def _bump_rv5_qbinomial(monkeypatch, prec, k):
    _bump_rank_series(monkeypatch, k, "v", "QBINOMIAL", 5)
    c = rank_series("v", "LAMBERT", prec, 5).coefficient(k)
    return (k, str(c), str(c + 1)), "RV at zeta_5, QBINOMIAL route"


def _bump_v_enumeration(monkeypatch, prec, k):
    def bumped(kind, route, prec):
        polys = rank_histograms(kind, route, prec)
        if (kind, route) == ("v", "ENUMERATION"):
            polys = polys[:k] + (polys[k] + 1,) + polys[k + 1:]
        return polys
    monkeypatch.setattr(verify, "rank_histograms", bumped)
    c = rank_histograms("v", "QBINOMIAL", prec)[k]
    return (k, str(c + 1), str(c)), f"v-rank histogram at n={k}"


def _bump_v_definition(monkeypatch, prec, k):
    _bump_rank_series(monkeypatch, k, "v", "DEFINITION")
    c = rank_series("v", "QBINOMIAL", prec).coefficient(k)
    return (k, str(c), str(c + 1)), "z->1 against the v counting series"


@pytest.mark.parametrize("name, prec, k, perturb", [
    ("THM12:RU5", 60, 41, _bump_ru5_rhs),
    ("INFRA:Prefactor-5", 60, 59, _bump_prefactor_side),
    ("INFRA:three-routes", 21, 17, _bump_rv5_qbinomial),
    ("THM13:bivariate-agreement", 21, 12, _bump_v_enumeration),
    ("THM13:bivariate-agreement", 21, 20, _bump_v_definition),
])
def test_perturbed_side_reports_its_first_failure(monkeypatch, name, prec, k, perturb):
    failure, detail = perturb(monkeypatch, prec, k)
    report = run_check(name, prec=prec)
    assert (report.status, report.first_failure, report.detail) == ("FAIL", failure, detail)


@pytest.mark.parametrize("check, index", [(check, i) for check, (_, rows) in IDENTITY_CATALOGUE.items()
                                           for i in range(len(rows))])
def test_moving_one_term_shift_fails_its_row(monkeypatch, check, index):
    passed, rows = IDENTITY_CATALOGUE[check]
    label, ell, lhs, ((c, shift, factors, lam), *rest) = rows[index]
    moved = (label, ell, lhs, [(c, shift + 1, factors, lam), *rest])
    monkeypatch.setitem(IDENTITY_CATALOGUE, check, (passed, rows[:index] + [moved] + rows[index + 1:]))
    for profile in ("default", "fast"):
        report = run_check(check, profile=profile)
        assert (report.status, report.detail) == ("FAIL", label), profile


@pytest.mark.parametrize("name", [n for n in check_names() if n.startswith(("THM11:", "THM13:classes-"))])
def test_scan_and_class_checks_read_something_at_any_precision(name):
    report = run_check(name, prec=1)
    assert report.status == "PASS"
    if name.startswith("THM11:"):
        kind, mod, residue = verify.CONGRUENCES[name[6:]]
        assert "at 0 coefficients" not in report.detail
        assert rank_series(kind, "DEFINITION", report.prec).coefficient(report.prec - 1) != 0
        assert (report.prec - 1) % mod == residue
    else:
        kind, ell, residues = verify.CLASS_FAMILIES[name[14:]]
        assert report.prec % ell in residues and sum(class_counts(report.prec, kind, ell)) > 0
        assert str(report.prec) in report.detail


def test_comparison_short_of_the_requested_precision_is_an_error(monkeypatch):
    theta_sum = verify.theta_sum
    monkeypatch.setattr(verify, "theta_sum", lambda ell, terms, prec: theta_sum(ell, terms, prec).truncate(prec - 5))
    with pytest.raises(ValueError, match="below requested 60"):
        run_check("THM12:RU5", prec=60)


def test_t_symmetry_compares_every_triple_below_the_requested_precision(monkeypatch):
    # (-7, 10, 3) is a sampled triple; q^(la) = q^-21 shifts T(-7, -10, 3)
    # down, so it must be built to prec + 21 for the residual to reach q^79
    lambert_T = lambert.lambert_T
    for target, k in ((TSpec(7, 10, 3), 79), (TSpec(-7, -10, 3), 100)):
        def bumped(spec, prec):
            t = lambert_T(spec, prec)
            return _bump(t, k) if spec == target else t
        monkeypatch.setattr(lambert, "lambert_T", bumped)
        report = run_check("INFRA:T-symmetry", prec=80)
        assert (report.status, report.first_failure) == ("FAIL", (79, "1", "0"))
        assert report.detail.endswith("at (a,b,l)=(-7, 10, 3)")


def test_f13_grid_runs_at_its_capped_precision(monkeypatch):
    seen = []
    def fake_eval_f(x, y, z, prec):
        seen.append(prec)
        return LaurentSeries.monomial(cyclotomic_field(13), 13, prec=prec)
    monkeypatch.setattr(verify, "eval_f", fake_eval_f)
    for prec in (1000, 5):
        seen.clear()
        report = run_check("SEC5:F13-grid-q13-nonzero", prec=prec)
        assert (report.prec, report.status) == (14, "PASS")
        assert seen and set(seen) == {14}


# -- the partial-fraction lemmas ------------------------------------------------

PARTIAL_FRACTION_CHECKS = {"u": "INFRA:PartialFractions-U", "v": "INFRA:PartialFractions-V"}


@pytest.mark.parametrize("kind", ["u", "v"])
def test_partial_fraction_lemmas_pass_at_any_precision(kind):
    for options in ({"profile": "fast"}, {"profile": "default"}, {"prec": 1}, {"prec": 1000}):
        report = run_check(PARTIAL_FRACTION_CHECKS[kind], **options)
        assert report.status == "PASS", options
        assert "every j >= 1" in report.detail and "every z with z^4 != 1" in report.detail


def test_expand_multiplies_out_the_binomials():
    # 2 z q^-1 (1 - z x)(1 - q^2) - x^3
    side = [(2, 1, -1, 0, (1, 0, 1), (0, 2, 0)), (-1, 0, 0, 3)]
    assert {e: c for e, c in _expand(side).items() if c} == {
        (1, -1, 0): 2, (2, -1, 1): -2, (1, 1, 0): -2, (2, 1, 1): 2, (0, 0, 3): -1}


def _moved(term):
    """Every copy of a term with one monomial changed: its sign flipped, or one
    exponent of its head or of one of its binomials moved by one."""
    yield (-term[0], *term[1:])
    for i in range(1, 4):
        for d in (-1, 1):
            yield (*term[:i], term[i] + d, *term[i + 1:])
    for i in range(4, len(term)):
        for j in range(3):
            for d in (-1, 1):
                binomial = (*term[i][:j], term[i][j] + d, *term[i][j + 1:])
                yield (*term[:i], binomial, *term[i + 1:])


@pytest.mark.parametrize("kind", ["u", "v"])
@pytest.mark.parametrize("side", [0, 1])
def test_changing_one_monomial_fails_the_lemma(monkeypatch, kind, side):
    sides = PARTIAL_FRACTIONS[kind]
    for index, term in enumerate(sides[side]):
        for moved in _moved(term):
            changed = list(sides)
            changed[side] = sides[side][:index] + [moved] + sides[side][index + 1:]
            monkeypatch.setitem(PARTIAL_FRACTIONS, kind, tuple(changed))
            report = run_check(PARTIAL_FRACTION_CHECKS[kind])
            assert (report.status, report.detail) == ("FAIL", f"{kind}-lemma times its denominator"), moved
            monomial, lhs, rhs = report.first_failure
            powers = dict(part.split("^") for part in monomial.split()) if monomial != "1" else {}
            key = tuple(int(powers.pop(v, 0)) for v in "zqx")
            assert not powers, monomial
            left, right = map(_expand, changed)
            assert (lhs, rhs) == (str(left[key]), str(right[key])) and lhs != rhs


def test_a_flipped_sign_names_its_monomial_and_both_coefficients(monkeypatch):
    left, right = PARTIAL_FRACTIONS["u"]
    assert right[-1] == (-1, 0, -2, 4)
    monkeypatch.setitem(PARTIAL_FRACTIONS, "u", (left, right[:-1] + [(1, 0, -2, 4)]))
    report = run_check("INFRA:PartialFractions-U")
    assert (report.status, report.first_failure) == ("FAIL", ("q^-2 x^4", "-1", "1"))


@pytest.mark.parametrize("which,ell,j", [("u", 5, 1), ("v", 7, 2)])
def test_partial_fraction_identities(which, ell, j):
    """Both encoded sides at z = zeta_ell, x = q^j, divided by the denominator D, against
    the lemma as stated: 1/((1 - z^2 q^(j-1))(1 - z^-2 q^(j-1))) minus q^(2j) (u) or
    q (v) times 1/((1 - z^2 q^j)(1 - z^-2 q^j)), to q^60."""
    field = cyclotomic_field(ell)

    def inv_factor(c, e):  # 1/(1 - c q^e)
        return LaurentSeries.const(field, (field.one - c).inverse(), 60) if e == 0 else geometric(field, c, e, 60)

    def at_root(c, a, b, k):  # c z^a q^b x^k at z = zeta_ell, x = q^j
        return LaurentSeries.monomial(field, b + j * k, field.zeta(a) * c)

    z2, z2i = field.zeta(2), field.zeta(-2)
    lower = inv_factor(z2, j - 1) * inv_factor(z2i, j - 1)
    upper = inv_factor(z2, j) * inv_factor(z2i, j)
    lemma = lower - upper.shift(2 * j if which == "u" else 1)
    for side in PARTIAL_FRACTIONS[which]:
        poly = LaurentSeries.zero(field)
        for c, a, b, k, *binomials in side:
            term = at_root(c, a, b, k)
            for f in binomials:
                term = term * (at_root(1, 0, 0, 0) - at_root(1, *f))
            poly = poly + term
        residual = poly * lower * upper - lemma
        assert residual.prec >= 60 and residual.first_nonzero_below(60) is None
