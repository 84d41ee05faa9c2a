"""Workload inputs and output checks for the qrank benchmark.

A workload is a list of requests that one client sends, one at a time, to a
fresh worker process (see ``worker.py``).  Each request carries the payload the
worker receives and the expected value the client checks the response against.
The seed fixes the order of the requests and the choices that do not change
their cost; the multiset of costly requests is the same for every seed, so runs
on different seeds measure comparable work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("verify-default", "rank-enum", "expr-session")

# The default-profile registry of ``qrank verify`` (36 checks).
VERIFY_CHECKS = (
    "INFRA:AS-Lemma4", "INFRA:EqChan1-suite", "INFRA:EqChan2-suite", "INFRA:JTP",
    "INFRA:PartialFractions-U", "INFRA:PartialFractions-V", "INFRA:Prefactor-5",
    "INFRA:Prefactor-7", "INFRA:ProdDissection-3", "INFRA:ProdDissection-5",
    "INFRA:ProdDissection-7", "INFRA:T-symmetry", "INFRA:q7-rewrites",
    "INFRA:three-routes", "SEC5:RU13-q13-nonzero", "THM11:u13", "THM11:u3",
    "THM11:u5a", "THM11:u5b", "THM11:u7a", "THM11:u7b", "THM11:v13", "THM11:v3",
    "THM11:v5a", "THM11:v5b", "THM12:RU3", "THM12:RU5", "THM12:RU7", "THM12:RV3",
    "THM12:RV5", "THM13:bivariate-agreement", "THM13:classes-u3",
    "THM13:classes-u5", "THM13:classes-u7", "THM13:classes-v3", "THM13:classes-v5",
)
# Cheap checks at the fast profile, for the self-test.
TINY_VERIFY_CHECKS = ("INFRA:T-symmetry", "THM11:u3", "THM12:RU3", "THM13:classes-u5")

# u(n) and v(n) as displayed in the paper, independent of the program.
U_GOLDEN = {n: c for n, c in enumerate([1, 5, 15, 44, 105, 252, 539, 1135, 2259, 4390], 1)}
V_GOLDEN = {n: c for n, c in enumerate([1, 4, 15, 39, 105, 237, 530, 1100, 2223], 2)}

# (kind, ell) -> residues of n at which the rank splits the family into ell
# equal classes, as the paper states them.
EQUAL_CLASSES = {
    ("u", 3): (0,), ("v", 3): (1,),
    ("u", 5): (0, 3), ("v", 5): (1, 4),
    ("u", 7): (0, 5),
}
RANK_N = {"u": range(9, 18), "v": range(9, 18)}
TINY_RANK_N = {"u": range(3, 8), "v": range(3, 8)}
# At these n every split is asked for, as when reading a whole rank table.
# Their costs sit around the median, so latency_p50_ms rests on several
# requests instead of one.
FULL_TABLE_N = (13, 14)
TINY_FULL_TABLE_N = (5,)

# Identity residuals: each evaluates to the zero series below its precision.
# Sparse ones have rational coefficients (E/P products, Lambert sums); dense
# ones are the Q(zeta_l) root-of-unity identities RHS(id) - id.
SPARSE_TEMPLATES = (
    (7, "P(3)^3*P(1) - P(2)^3*P(3) + q^7*P(1)^3*P(2)"),
    (7, "q*P(2)/P(1)^2 - q^8*P(1)/(P(2)*P(3)) - q*P(3)^2/(P(1)*P(2)^2)"),
    (7, "q^11*P(1)^2/(P(2)*P(3)^2) - q^4*P(2)/(P(1)*P(3)) + q^4*P(3)/P(2)^2"),
    (7, "q^14*P(1)^3/(P(2)*P(3)^3) + q^7*P(1)/P(2)^2 - q^7*P(2)/P(3)^2"),
    (5, "q*E(25)/P(1)^2 - q*E(25)*P(1)^-2"),
    (5, "P(1) - jac(0,5,25)"),
    (5, "E(2) - poch(0,2,2,inf)"),
)
# Cheap once T is cached; asked once per precision.
LAMBERT_TEMPLATES = (
    (3, "T(-1,2,3) + q^3*T(1,-2,3)"),
    (5, "T(-2,3,5) + q^10*T(2,-3,5)"),
    (7, "T(-3,1,7) + q^21*T(3,-1,7)"),
)
DENSE_TEMPLATES = (
    (3, "RHS(RU3) - RU(3)"),
    (3, "RHS(RV3) - RV(3)"),
    (5, "RHS(RU5) - RU(5)"),
    (5, "RHS(RV5) - RV(5)"),
    (7, "RHS(RU7) - RU(7)"),
)
SPARSE_PRECS = (80, 160, 240)
SPARSE_REPEATS = 3
DENSE_PRECS = (30, 40, 50, 60)
DENSE_REPEATED_PRECS = (30, 50)
TINY_SPARSE_PRECS = (20, 30)
TINY_DENSE_PRECS = (12,)


@dataclass(frozen=True)
class Request:
    payload: dict     # what the worker receives
    expected: dict    # what the client checks the response against
    ops: int = 1      # operations this request stands for


def build(workload: str, seed: int, tiny: bool = False, series_coeffs=None) -> list[Request]:
    """The request stream of ``workload`` for ``seed``.

    ``series_coeffs(kind, n_max)`` returns the program's u(n) or v(n) for
    n < n_max; rank-enum needs it for its expected totals.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-default":
        return _verify_requests(tiny)
    if workload == "rank-enum":
        return _rank_requests(rng, tiny, series_coeffs)
    if workload == "expr-session":
        return _expr_requests(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _verify_requests(tiny: bool) -> list[Request]:
    names = TINY_VERIFY_CHECKS if tiny else VERIFY_CHECKS
    argv = ["verify", "--format", "json"]
    argv += ["--profile", "fast", "--only", ",".join(names)] if tiny else ["--profile", "default"]
    expected = {"exit": 0, "status": {name: "PASS" for name in names}}
    return [Request({"op": "verify", "argv": argv}, expected, ops=len(names))]


def _rank_requests(rng: random.Random, tiny: bool, series_coeffs) -> list[Request]:
    ranges = TINY_RANK_N if tiny else RANK_N
    full_table = TINY_FULL_TABLE_N if tiny else FULL_TABLE_N
    reqs = []
    for kind, ns in ranges.items():
        totals = series_coeffs(kind, max(ns) + 1)
        golden = U_GOLDEN if kind == "u" else V_GOLDEN
        moduli = sorted({ell for k, ell in EQUAL_CLASSES if k == kind})
        for n in ns:
            # None asks for the histogram; a histogram and a split cost the
            # same enumeration, so the seed's choice leaves the cost alone
            if n in full_table:
                splits = [None] + moduli
            else:
                splits = [None if rng.random() < 0.5 else rng.choice(moduli)]
            for ell in splits:
                if ell is None:
                    payload = {"op": "hist", "n": n, "kind": kind}
                else:
                    payload = {"op": "classes", "n": n, "kind": kind, "ell": ell}
                equal = ell is not None and n % ell in EQUAL_CLASSES[(kind, ell)]
                reqs.append(Request(payload, {"total": totals[n], "golden": golden.get(n),
                                              "equal": equal}))
    rng.shuffle(reqs)
    return reqs


def _expr_requests(rng: random.Random, tiny: bool) -> list[Request]:
    sparse_precs = TINY_SPARSE_PRECS if tiny else SPARSE_PRECS
    dense_precs = TINY_DENSE_PRECS if tiny else DENSE_PRECS
    repeated = TINY_DENSE_PRECS if tiny else DENSE_REPEATED_PRECS
    repeats = 1 if tiny else SPARSE_REPEATS
    # Template i works at prec + i, so no two templates share a cached series
    # and only repeats of one request hit the caches: the cost of the stream
    # then does not depend on its order, which is all the seed changes.
    jobs = []
    for i, (ell, expr) in enumerate(SPARSE_TEMPLATES + LAMBERT_TEMPLATES):
        times = repeats if (ell, expr) in SPARSE_TEMPLATES else 1
        jobs += [(ell, expr, prec + i) for prec in sparse_precs for _ in range(times)]
    for i, (ell, expr) in enumerate(DENSE_TEMPLATES):
        jobs += [(ell, expr, prec + i) for prec in dense_precs + repeated]
    rng.shuffle(jobs)
    return [Request({"op": "eval", "expr": expr, "ell": ell, "prec": prec},
                    {"prec": prec, "nonzero": []})
            for ell, expr, prec in jobs]


def failures(request: Request, response: dict) -> int:
    """Number of the request's operations whose output is wrong."""
    exp, op = request.expected, request.payload["op"]
    if "error" in response:
        return request.ops
    if op == "verify":
        got = {r["name"]: r["status"] for r in response["reports"]}
        bad = sum(1 for name, status in exp["status"].items() if got.get(name) != status)
        if response["exit"] != exp["exit"]:
            bad = max(bad, 1)
        return bad
    if op == "hist":
        total = sum(response["hist"].values())
        return int(not _total_ok(total, exp))
    if op == "classes":
        counts = response["classes"]
        ok = _total_ok(sum(counts), exp) and (not exp["equal"] or len(set(counts)) == 1)
        return int(not ok)
    if op == "eval":
        ok = response["prec"] >= exp["prec"] and response["nonzero"] == exp["nonzero"]
        return int(not ok)
    raise ValueError(f"unknown request op {op!r}")


def _total_ok(total: int, exp: dict) -> bool:
    return total == exp["total"] and (exp["golden"] is None or total == exp["golden"])


def quadruples(request: Request) -> int:
    """Quadruples a rank-enum request enumerates (its family's count at n)."""
    return request.expected["total"] if request.payload["op"] in ("hist", "classes") else 0
