import json
import marshal
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qrank import lambert, quadruples, rankgen, verify
from qrank.cyclotomic import cyclotomic_field
from qrank.lambert import TSpec
from qrank.quadruples import class_counts, enumerate_quadruples, rank
from qrank.rankgen import IDENTITY_CATALOGUE, rank_histograms, rank_series, root_prefactor
from qrank.series import LaurentSeries, ZLaurentPoly, clear_memos, geometric
from qrank.verify import PARTIAL_FRACTIONS, CheckReport, _expand, check_names, run_all, run_check

SRC = str(Path(__file__).resolve().parents[1] / "src")

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


# -- the registry across processes ----------------------------------------------

def _open_fds():
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@pytest.fixture
def two_cpus(monkeypatch):
    """run_all forks one worker beside this process; no child outlives the test, and
    no pipe end stays open."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fds = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _one_check_per_process(tmp_path, body):
    """A check body for a run on two CPUs: each process marks that it has started a
    check and waits for the other's mark before it runs ``body``, so neither can
    take a second index before the other has taken its first."""
    def run(prec):
        (tmp_path / f"started-{os.getpid()}").touch()
        deadline = time.monotonic() + 30
        while len(list(tmp_path.glob("started-*"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.002)
        return body(prec)
    return run


def _without_runtime(reports):
    return [{k: v for k, v in r.to_json().items() if k != "runtime_ms"} for r in reports]


@pytest.mark.parametrize("one_cpu", ["affinity", "cpu_count", "no_fork", "fork_fails"])
def test_the_serial_path_gives_the_same_reports(monkeypatch, two_cpus, one_cpu):
    forked = run_all(profile="fast")
    if one_cpu == "no_fork":
        monkeypatch.delattr(os, "fork")
    elif one_cpu == "fork_fails":  # this process alone takes the whole queue
        def fork():
            raise BlockingIOError("Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", fork)
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("the serial path forked"))
        if one_cpu == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _without_runtime(run_all(profile="fast")) == _without_runtime(forked)


def test_a_raising_check_is_an_error_in_either_process(monkeypatch, tmp_path, two_cpus):
    def boom(prec):
        raise RuntimeError(f"boom at {prec} in {os.getpid()}")
    only = ["THM11:u3", "THM12:RU3"]
    for name in only:
        monkeypatch.setattr(verify._REGISTRY[name], "run", _one_check_per_process(tmp_path, boom))
    reports = run_all(only=only)
    assert [(r.name, r.prec, r.status) for r in reports] == [("THM11:u3", 105, "ERROR"),
                                                             ("THM12:RU3", 60, "ERROR")]
    pids = set()
    for r in reports:
        head, _, pid = r.detail.rpartition(" in ")
        assert head == f"RuntimeError: boom at {r.prec}"
        pids.add(int(pid))
    assert len(pids) == 2 and os.getpid() in pids


@pytest.mark.parametrize("die, ended", [(lambda: os._exit(3), "exited with status 3"),
                                        (lambda: os.kill(os.getpid(), signal.SIGKILL),
                                         f"was killed by signal {signal.SIGKILL.value}")])
def test_a_check_lost_with_its_worker_is_an_error(monkeypatch, tmp_path, two_cpus, die, ended):
    # the worker dies in the first check it takes; this process runs the other two
    parent = os.getpid()
    only = ["THM11:u3", "THM11:v3", "THM12:RU3"]
    for name in only:
        run = verify._REGISTRY[name].run
        monkeypatch.setattr(verify._REGISTRY[name], "run", _one_check_per_process(
            tmp_path, lambda prec, run=run: run(prec) if os.getpid() == parent else die()))
    reports = run_all(only=only)
    assert [r.name for r in reports] == only
    lost = [r for r in reports if r.status != "PASS"]
    assert [(r.status, r.detail, r.first_failure) for r in lost] == \
        [("ERROR", f"lost with its worker process, which {ended}", None)]
    assert lost[0].prec == verify._used_prec(lost[0].name, None, "default")


def test_a_raise_in_this_process_kills_and_reaps_the_worker(monkeypatch, tmp_path, two_cpus):
    def body(prec):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    parent = os.getpid()
    only = ["THM11:u3", "THM12:RU3"]
    for name in only:
        monkeypatch.setattr(verify._REGISTRY[name], "run", _one_check_per_process(tmp_path, body))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_all(only=only)
    assert time.monotonic() - start < 30


def test_a_frame_cut_short_is_dropped():
    records = [(5, ("THM11:u3", 20, "PASS", None, 1.5, "")), (7, ("THM12:RU3", 30, "FAIL", (4, "1"), 2.0, "x"))]
    whole = b"".join(marshal.dumps(r) for r in records)
    cut = marshal.dumps((6, ("THM12:RU5", 40, "PASS", None, 0.5, "")))
    for end in range(len(cut)):  # the worker died at every byte of its third record
        read_end, write_end = os.pipe()
        os.write(write_end, whole + cut[:end])
        os.close(write_end)
        try:
            assert list(verify._records(read_end)) == records, end
        finally:
            os.close(read_end)


def test_verify_prints_one_json_document():
    proc = subprocess.run([sys.executable, "-m", "qrank", "verify", "--only", "THM11:u3,THM12:RU3",
                           "--format", "json"], capture_output=True, text=True,
                          env={"PATH": "", "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)["payload"]
    assert [(r["name"], r["status"]) for r in payload] == [("THM11:u3", "PASS"), ("THM12:RU3", "PASS")]


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


def _plus(poly, r, c=1):
    """poly + c z^r"""
    coeffs = dict(poly.items())
    coeffs[r] = coeffs.get(r, 0) + c
    lo = min(coeffs)
    return ZLaurentPoly(lo, [coeffs.get(i, 0) for i in range(lo, max(coeffs) + 1)])


def _bump_v_enumeration(monkeypatch, prec, k):
    # the first v member of n = k listed twice
    first = enumerate_quadruples(k, "v")[0]
    monkeypatch.setattr(verify, "enumerate_quadruples", lambda n, kind: enumerate_quadruples(n, kind) + (
        [first] if (n, kind) == (k, "v") else []))
    c = rank_histograms("v", prec)[k]
    return (k, str(_plus(c, rank(first, "v"))), str(c)), f"v-rank histogram at n={k}"


def _bump_v_definition(monkeypatch, prec, k):
    _bump_rank_series(monkeypatch, k, "v", "DEFINITION")
    c = rank_series("v", "QBINOMIAL", prec).coefficient(k)
    return (k, str(c), str(c + 1)), "z->1 against the v counting series"


@pytest.mark.parametrize("name, prec, k, perturb", [
    ("THM12:RU5", 60, 41, _bump_ru5_rhs),
    ("INFRA:Prefactor-5", 60, 59, _bump_prefactor_side),
    ("INFRA:three-routes", 21, 17, _bump_rv5_qbinomial),
    ("THM13:bivariate-agreement", 21, 6, _bump_v_enumeration),
    ("THM13:bivariate-agreement", 21, 20, _bump_v_definition),
])
def test_perturbed_side_reports_its_first_failure(monkeypatch, name, prec, k, perturb):
    failure, detail = perturb(monkeypatch, prec, k)
    report = run_check(name, prec=prec)
    assert (report.status, report.first_failure, report.detail) == ("FAIL", failure, detail)


def test_a_rank_error_shared_by_the_bivariate_route_and_the_rank_count_dp_fails(monkeypatch):
    # one u member of n = 5 moved from rank 0 to rank 1 in both recurrences on the packed-digit
    # kernel: they still agree with each other, and only the listed histogram tells
    bivariate, rank_counts = rankgen._bivariate, quadruples.rank_counts
    listed = bivariate(1, 21)[5]
    planted = _plus(_plus(listed, 0, -1), 1)

    def planted_bivariate(power, prec):
        polys = bivariate(power, prec)
        return polys[:5] + (planted,) + polys[6:] if power == 1 and prec > 5 else polys

    def planted_counts(n, kind):
        counts = rank_counts(n, kind)
        if (n, kind) == (5, "u"):
            counts[0] -= 1
            counts[1] += 1
        return counts

    monkeypatch.setattr(rankgen, "_bivariate", planted_bivariate)
    monkeypatch.setattr(quadruples, "rank_counts", planted_counts)
    assert dict(rank_histograms("u", 21)[5].items()) == quadruples.rank_counts(5, "u")
    report = run_check("THM13:bivariate-agreement", prec=21)
    assert (report.status, report.first_failure, report.detail) == (
        "FAIL", (5, str(listed), str(planted)), "u-rank histogram at n=5")


def test_the_bivariate_agreement_check_runs_no_rank_count_dp(monkeypatch):
    def refuse(*args):
        raise AssertionError("the rank-count DP ran")
    for name in ("rank_counts", "_rank_counts"):
        monkeypatch.setattr(quadruples, name, refuse)
    for prec in (9, 21, 40):
        assert run_check("THM13:bivariate-agreement", prec=prec).status == "PASS"


@pytest.mark.parametrize("name", ["THM13:bivariate-agreement", "INFRA:three-routes"])
def test_route_checks_compare_a_nonzero_v_coefficient_at_any_precision(name):
    # v(n) = 0 for n < 2, so below prec 3 the v side of either check compares nothing
    for prec in (1, 2, 3):
        report = run_check(name, prec=prec)
        assert (report.prec, report.status) == (3, "PASS")
    assert rank_series("v", "DEFINITION", 3).coefficient(2) != 0


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
    # down, so it must be built to prec + 21 for the residual to reach q^79;
    # the memos are cleared so that theta_sum builds with the bumped T, and
    # again at the end so that no sum built from it is kept
    lambert_T = lambert.lambert_T
    try:
        for target, k in ((TSpec(7, 10, 3), 79), (TSpec(-7, -10, 3), 100)):
            def bumped(spec, prec):
                t = lambert_T(spec, prec)
                return _bump(t, k) if spec == target else t
            monkeypatch.setattr(lambert, "lambert_T", bumped)
            clear_memos()
            report = run_check("INFRA:T-symmetry", prec=80)
            assert (report.status, report.first_failure) == ("FAIL", (79, "1", "0"))
            assert report.detail.endswith("at (a,b,l)=(-7, 10, 3)")
    finally:
        clear_memos()


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
