"""Named-check registry: every verified identity and congruence as a runnable check.

Each check produces a CheckReport: PASS, or FAIL with the first offending
exponent and both coefficient values.  ``run_all`` executes the registry for a
precision profile and reports a check that raises as ERROR, with the
exception text, while the other checks still run; the exit status of the CLI
wrapper reflects any FAIL or ERROR.

Check identifiers are grouped by family:

* ``THM11:*``  coefficient congruence scans of the counting series,
* ``THM12:*``  the five root-of-unity series identities (LHS minus RHS),
* ``THM13:*``  rank-refinement combinatorics (route agreement, equal classes),
* ``INFRA:*``  supporting product/Lambert identities,
* ``SEC5:*``   mod-13 boundary facts (the nonvanishing coefficients).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import add

from .cyclotomic import QQ, cyclotomic_field
from .lambert import term_valuation, theta_sum
from .quadruples import CLASSES_MAX_N, class_counts
from .rankgen import IDENTITY_CATALOGUE, eval_f, rank_histograms, rank_series, root_prefactor
from .series import INF, poch, theta_jtp_sum

PROFILES = ("fast", "default", "deep")

CONGRUENCES = {
    "u3": ("u", 3, 0), "u5a": ("u", 5, 0), "u5b": ("u", 5, 3),
    "u7a": ("u", 7, 0), "u7b": ("u", 7, 5), "u13": ("u", 13, 0),
    "v3": ("v", 3, 1), "v5a": ("v", 5, 1), "v5b": ("v", 5, 4),
    "v13": ("v", 13, 10),
}

CLASS_FAMILIES = {
    "u3": ("u", 3, (0,)), "v3": ("v", 3, (1,)),
    "u5": ("u", 5, (0, 3)), "v5": ("v", 5, (1, 4)),
    "u7": ("u", 7, (0, 5)),
}


@dataclass
class CheckReport:
    name: str
    prec: int
    status: str                  # PASS | FAIL | ERROR (the check raised)
    first_failure: tuple | None  # (exponent, lhs text, rhs text)
    runtime_ms: float
    detail: str = ""

    def to_json(self) -> dict:
        failure = self.first_failure and dict(zip(("exponent", "lhs", "rhs"), self.first_failure))
        return {
            "name": self.name, "prec": self.prec, "status": self.status,
            "first_failure": failure, "runtime_ms": round(self.runtime_ms, 3),
            "detail": self.detail,
        }


@dataclass
class _Check:
    run: callable               # prec -> (status, first_failure, detail)
    default_prec: int
    fast_prec: int
    long: bool = False
    # --prec is clamped to [min_prec, max_prec]: rank-count and bivariate checks
    # stay desk-scale, mod-13 checks read q^13, scans and class checks at least
    # one nonzero coefficient or non-empty class, catalogue checks at least one
    # term of every row; the report carries the prec used
    max_prec: int | None = None
    min_prec: int = 1


def _compare(prec, cases, passed=""):
    """Judge series comparisons below q^prec, stopping at the first failing case.

    ``cases`` yields (detail, lhs, rhs); rhs None means lhs must vanish.
    Returns PASS with ``passed``, or FAIL with (exponent, lhs, rhs) at the
    first nonzero coefficient of lhs - rhs and the case's detail.  A
    difference exact below fewer than prec terms raises ValueError, so a PASS
    covers every coefficient below q^prec.
    """
    for detail, lhs, rhs in cases:
        diff = lhs if rhs is None else lhs - rhs
        if diff.prec < prec:
            raise ValueError(f"residual precision {diff.prec} below requested {prec}")
        hit = diff.first_nonzero_below(prec)
        if hit is not None:
            e = hit[0]
            failure = (e, str(lhs.coefficient(e)), "0" if rhs is None else str(rhs.coefficient(e)))
            return "FAIL", failure, detail
    return "PASS", None, passed


def congruence_scan(family: str, mod: int, residue: int, top: int):
    """Test that mod divides the coefficient of q^e in U (family "u") or V ("v")
    for e = residue, residue + mod, ... up to top.

    Returns (first failure, count of coefficients checked before it).  The
    failure is None or (exponent, coefficient, expected), where expected is
    "an integer" or "0 (mod m)".
    """
    series = rank_series(family, "DEFINITION", top + 1)
    checked = 0
    for e in range(residue, top + 1, mod):
        c = series.coefficient(e)
        if c.denominator != 1:
            return (e, c, "an integer"), checked
        if c.numerator % mod:
            return (e, c, f"0 (mod {mod})"), checked
        checked += 1
    return None, checked


def _congruence_check(family, mod, residue):
    def run(prec):
        failure, checked = congruence_scan(family, mod, residue, prec - 1)
        if failure is not None:
            e, c, expected = failure
            return "FAIL", (e, str(c), expected), ""
        return "PASS", None, f"{family}({mod}n+{residue}) = 0 mod {mod} at {checked} coefficients"
    return run


def _bivariate_agreement(prec):
    """The QBINOMIAL rank polynomials against the ENUMERATION histograms n by n, then
    QBINOMIAL at z = 1 against the counting series."""
    for kind in ("u", "v"):
        formal = rank_histograms(kind, "QBINOMIAL", prec)
        for n, counted in enumerate(rank_histograms(kind, "ENUMERATION", prec)):
            if counted != formal[n]:
                return "FAIL", (n, str(counted), str(formal[n])), f"{kind}-rank histogram at n={n}"
    return _compare(prec, ((f"z->1 against the {kind} counting series",
                            rank_series(kind, "QBINOMIAL", prec), rank_series(kind, "DEFINITION", prec))
                           for kind in ("u", "v")),
                    f"rank histograms to n={prec - 1}; z->1 to order {prec}")


def _class_equality_check(key):
    kind, ell, residues = CLASS_FAMILIES[key]
    def run(n_limit):
        checked = []
        for n in range(1, n_limit + 1):
            if n % ell not in residues:
                continue
            counts = class_counts(n, kind, ell)
            if len(set(counts)) != 1:
                return "FAIL", (n, str(counts), "a constant vector"), ""
            checked.append(n)
        return "PASS", None, f"equal {ell}-classes at n in {checked}"
    return run


def _jtp_check(prec):
    specials = [(cyclotomic_field(ell), cyclotomic_field(ell).zeta(1), f"zeta_{ell}") for ell in (3, 5, 7)]
    specials += [(QQ, QQ.of(2), "2"), (QQ, QQ.of(-1), "-1")]
    return _compare(prec, ((f"triple product at z = {label}", theta_jtp_sum(ring, c, prec),
                            poch(ring, c, 1, 1, INF, prec)
                            * poch(ring, ring.invert(c), 0, 1, INF, prec)
                            * poch(QQ, 1, 1, 1, INF, prec))
                           for ring, c, label in specials), "z in {zeta_3, zeta_5, zeta_7, 2, -1}")


def _row_sides(row, prec):
    """(label, left side by its own route, right side by theta_sum) of a catalogue
    row below q^prec, or (label, the terms' sum, None) for a row with no left side."""
    label, ell, lhs, terms = row
    if lhs is None:
        return label, theta_sum(ell, terms, prec), None
    if lhs in ("RU", "RV"):
        left = rank_series(lhs[1].lower(), "LAMBERT", prec, ell)
    elif lhs == "prefactor":
        left = root_prefactor(ell, prec)
    else:
        field = cyclotomic_field(ell)
        left = poch(QQ, 1, 1, 1, INF, prec) * poch(field, field.zeta(1), 0, 1, INF, prec) \
            * poch(field, field.zeta(-1), 0, 1, INF, prec)
    return label, left, theta_sum(ell, terms, prec)


def _catalogue_check(name):
    def run(prec):
        passed, rows = IDENTITY_CATALOGUE[name]
        return _compare(prec, (_row_sides(row, prec) for row in rows), passed)
    return run


# The partial-fraction lemmas that lead from RU/RV to the bilateral Lambert form,
# times their denominator, as identities in Z[z, 1/z, q, 1/q, x], x = q^j, s = z^2 + z^-2:
#   u: (1 - z^2 x)(1 - z^-2 x) - x^2 (1 - z^2 x/q)(1 - z^-2 x/q) = 1 - s x + s x^3/q - x^4/q^2,
#   v: (1 - z^2 x)(1 - z^-2 x) - q (1 - z^2 x/q)(1 - z^-2 x/q) = (1 - q)(1 - x^2/q).
# kind -> (left side, right side); a side sums terms (c, a, b, k, *binomials),
# c z^a q^b x^k times the product of (1 - z^a' q^b' x^k') over its binomials (a', b', k').
_UPPER, _LOWER = ((2, 0, 1), (-2, 0, 1)), ((2, -1, 1), (-2, -1, 1))
PARTIAL_FRACTIONS = {
    "u": ([(1, 0, 0, 0, *_UPPER), (-1, 0, 0, 2, *_LOWER)],
          [(1, 0, 0, 0), (-1, 2, 0, 1), (-1, -2, 0, 1), (1, 2, -1, 3), (1, -2, -1, 3), (-1, 0, -2, 4)]),
    "v": ([(1, 0, 0, 0, *_UPPER), (-1, 0, 1, 0, *_LOWER)], [(1, 0, 0, 0, (0, 1, 0), (0, -1, 2))]),
}


def _expand(side) -> Counter:
    """{(a, b, k): coefficient of z^a q^b x^k} of a PARTIAL_FRACTIONS side."""
    out = Counter()
    for c, a, b, k, *binomials in side:
        terms = Counter({(a, b, k): c})
        for f in binomials:
            for e, m in list(terms.items()):
                terms[tuple(map(add, e, f))] -= m
        out.update(terms)
    return out


def _partial_fractions(kind):
    """The two sides of a lemma compared monomial by monomial; no precision enters."""
    left, right = map(_expand, PARTIAL_FRACTIONS[kind])
    for e in sorted(left.keys() | right.keys()):
        if left[e] != right[e]:
            monomial = " ".join(f"{v}^{p}" for v, p in zip("zqx", e) if p) or "1"
            return "FAIL", (monomial, str(left[e]), str(right[e])), f"{kind}-lemma times its denominator"
    return "PASS", None, "exact in Z[z, 1/z, q, 1/q, x], x = q^j: every j >= 1, every z with z^4 != 1"


def _three_routes(prec):
    def cases():
        for kind in ("u", "v"):
            for ell in (3, 5, 7):
                base = rank_series(kind, "LAMBERT", prec, ell)
                for route in ("DEFINITION", "QBINOMIAL"):
                    yield (f"R{kind.upper()} at zeta_{ell}, {route} route",
                           base, rank_series(kind, route, prec, ell))
    return _compare(prec, cases(), "RU and RV, ell in {3, 5, 7}, both alternate routes")


def _ru13_nonzero(prec):
    c = rank_series("u", "LAMBERT", prec, 13).coefficient(13)
    if c.is_zero():
        return "FAIL", (13, "0", "a nonzero element"), ""
    return "PASS", None, f"coefficient of q^13 is {c}"


def _f13_grid(prec):
    field = cyclotomic_field(13)
    skipped = checked = 0
    for a, b, c in product(range(13), repeat=3):
        if a == 0 or b == 0 or c == 0:
            skipped += 1  # an argument equals 1: prefactor degenerates
            continue
        if eval_f(field.zeta(a), field.zeta(b), field.zeta(c), prec).coefficient(13).is_zero():
            return "FAIL", (13, "0", f"nonzero at (a,b,c)=({a},{b},{c})"), ""
        checked += 1
    return "PASS", None, f"{checked} triples nonzero, {skipped} degenerate triples skipped"


def _first_nonempty(kind, mod, residues):
    """The least n in ``residues`` mod ``mod`` with u(n) > 0 (n >= 1) or v(n) > 0 (n >= 2)."""
    start = 1 if kind == "u" else 2
    return min(start + (r - start) % mod for r in residues)


# default precisions of the catalogue checks other than 60; the fast profile runs each at 40
_CATALOGUE_PRECS = {"THM12:RU7": 120, "INFRA:T-symmetry": 80, "INFRA:EqChan1-suite": 100,
                    "INFRA:EqChan2-suite": 100, "INFRA:AS-Lemma4": 120, "INFRA:q7-rewrites": 120}


def _build_registry() -> dict[str, _Check]:
    registry: dict[str, _Check] = {}
    for key, (family, mod, residue) in CONGRUENCES.items():
        registry[f"THM11:{key}"] = _Check(_congruence_check(family, mod, residue), 105, 40,
                                          min_prec=_first_nonempty(family, mod, (residue,)) + 1)
    for name, (_, rows) in IDENTITY_CATALOGUE.items():
        # below 1 + a row's least term valuation, that row would compare nothing
        least = max(min(term_valuation(ell, t) for t in terms) for _, ell, _, terms in rows)
        registry[name] = _Check(_catalogue_check(name), _CATALOGUE_PRECS.get(name, 60), 40,
                                min_prec=least + 1)
    registry["THM13:bivariate-agreement"] = _Check(_bivariate_agreement, 21, 9,
                                                   max_prec=CLASSES_MAX_N)
    for key, (kind, ell, residues) in CLASS_FAMILIES.items():
        registry[f"THM13:classes-{key}"] = _Check(_class_equality_check(key), 14, 8,
                                                   max_prec=CLASSES_MAX_N,
                                                   min_prec=_first_nonempty(kind, ell, residues))
    registry["INFRA:JTP"] = _Check(_jtp_check, 60, 40)
    registry["INFRA:PartialFractions-U"] = _Check(lambda prec: _partial_fractions("u"), 60, 40)
    registry["INFRA:PartialFractions-V"] = _Check(lambda prec: _partial_fractions("v"), 60, 40)
    registry["INFRA:three-routes"] = _Check(_three_routes, 21, 11, max_prec=120)
    # the one coefficient either mod-13 check reads is q^13, so both run at prec 14
    registry["SEC5:RU13-q13-nonzero"] = _Check(_ru13_nonzero, 14, 14, max_prec=14, min_prec=14)
    registry["SEC5:F13-grid-q13-nonzero"] = _Check(_f13_grid, 14, 14, long=True, max_prec=14,
                                                   min_prec=14)
    return registry


_REGISTRY = _build_registry()


def check_names(include_long: bool = True) -> list[str]:
    return sorted(n for n, c in _REGISTRY.items() if include_long or not c.long)


def _used_prec(name: str, prec: int | None, profile: str) -> int:
    """``prec``, else the profile's precision for the check, clamped to its min_prec and max_prec."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if name not in _REGISTRY:
        raise KeyError(f"unknown check {name!r}")
    check = _REGISTRY[name]
    if prec is None:
        prec = check.fast_prec if profile == "fast" else check.default_prec
    prec = max(prec, check.min_prec)
    return prec if check.max_prec is None else min(prec, check.max_prec)


def run_check(name: str, prec: int | None = None, profile: str = "default") -> CheckReport:
    """Execute one named check; ``prec`` overrides the profile precision."""
    used_prec = _used_prec(name, prec, profile)
    start = time.perf_counter()
    status, failure, detail = _REGISTRY[name].run(used_prec)
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(name, used_prec, status, failure, elapsed, detail)


def run_all(profile: str = "default", only=None, prec: int | None = None) -> list[CheckReport]:
    """Run the registry (long checks only under the deep profile), each name once, in name order.

    A check that raises is reported as ERROR with the exception text; the others still run.
    """
    names = check_names(include_long=(profile == "deep")) if only is None else set(only)
    used = {n: _used_prec(n, prec, profile) for n in sorted(names)}
    reports = []
    for n in used:
        start = time.perf_counter()
        try:
            reports.append(run_check(n, prec=prec, profile=profile))
        except Exception as exc:
            elapsed = (time.perf_counter() - start) * 1000.0
            reports.append(CheckReport(n, used[n], "ERROR", None, elapsed,
                                       f"{type(exc).__name__}: {exc}"))
    return reports
