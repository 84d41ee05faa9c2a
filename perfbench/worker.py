"""Benchmark worker: imports qrank, then serves one client's requests.

Started by ``run.py`` as a fresh interpreter per measured pass, so every
``lru_cache`` in qrank starts cold.  It reads one JSON request per line on
stdin and writes one JSON response per line on stdout.  The first line it
writes is ``{"ready": true}``, once qrank is imported.

With ``--trace`` the worker wraps the public functions of each qrank module
in spans before it reports ready.  It keeps the spans in memory, writes them
to ``--spans`` when the client sends ``{"op": "finish"}``, and answers that
request with per-layer totals.  Without ``--trace`` nothing is wrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import resource
import sys
import time
import traceback

from qrank import cyclotomic, lambert, qexpr, quadruples, rankgen, series, verify
from qrank.cli import main as cli_main


def _terms(series_result) -> int:
    return len(series_result.coeffs)


# (owner, attribute, span name, size of a result added to the span's out_terms)
TRACED_FUNCTIONS = (
    (series, "poch", "series.poch", None),
    (series, "geometric", "series.geometric", None),
    (lambert, "lambert_T", "lambert.lambert_T", None),
    (lambert, "E_series", "lambert.E_series", None),
    (lambert, "P_series", "lambert.P_series", None),
    (rankgen, "_counting_series", "rankgen.counting_series", None),
    (rankgen, "root_prefactor", "rankgen.root_prefactor", None),
    (rankgen, "ru_at_root", "rankgen.ru_at_root", None),
    (rankgen, "rv_at_root", "rankgen.rv_at_root", None),
    (rankgen, "_fg_series", "rankgen.fg_series", None),
    (rankgen, "_bivariate", "rankgen.bivariate", None),
    (rankgen, "rhs_identity", "rankgen.rhs_identity", None),
    (quadruples, "rank_counts", "quadruples.rank_counts", None),
    (quadruples, "enumerate_quadruples", "quadruples.enumerate", len),
    (qexpr, "parse", "qexpr.parse", None),
    (qexpr, "evaluate", "qexpr.evaluate", None),
    (verify, "run_check", "verify.run_check", None),
)
TRACED_METHODS = (
    (cyclotomic.CycQ, ("__mul__", "__rmul__"), "cyclotomic.cycq_mul", None),
    (cyclotomic.CycQ, ("inverse",), "cyclotomic.cycq_inverse", None),
    (series.LaurentSeries, ("__mul__",), "series.mul", _terms),
    (series.LaurentSeries, ("inverse",), "series.inverse", _terms),
    (series.ZLaurentPoly, ("__mul__", "__rmul__"), "series.zpoly_mul", None),
)
# Caches whose hit ratio is reported, read through cache_info().
CACHES = {
    "lambert.cache": (lambert.lambert_T, lambert.E_series, lambert.P_series),
    "rankgen.cache": (rankgen._counting_series, rankgen.root_prefactor, rankgen.ru_at_root,
                      rankgen.rv_at_root, rankgen._bivariate, rankgen.rhs_identity),
    "quadruples.partitions": (quadruples._partitions,),
}


class Tracer:
    """Spans (name, start, end, parent, request id) kept in memory.

    Self time is a span's duration minus the time its direct children cover.
    """

    def __init__(self):
        self.spans: list = []
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, out_terms]
        self.request_id = 0
        self._stack: list = []             # [span index, child seconds]

    def wrap(self, name: str, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                spans[index] = (name, start, end, parent, tracer.request_id)
            if size is not None:
                stats[2] += size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each traced name in every qrank module that binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "qrank" or name.startswith("qrank.")]
        for owner, attr, name, size in TRACED_FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for cls, attrs, name, size in TRACED_METHODS:
            wrapper = self.wrap(name, vars(cls)[attrs[0]], size)
            for attr in attrs:
                setattr(cls, attr, wrapper)

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def cache_stats() -> dict:
    out = {}
    for name, fns in CACHES.items():
        hits = sum(fn.cache_info().hits for fn in fns)
        misses = sum(fn.cache_info().misses for fn in fns)
        out[name] = [hits, misses]
    return out


def handle(req: dict) -> dict:
    op = req["op"]
    if op == "verify":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(req["argv"])
        doc = json.loads(buf.getvalue())
        reports = [{"name": r["name"], "status": r["status"], "runtime_ms": r["runtime_ms"]}
                   for r in doc["payload"]]
        return {"exit": code, "reports": reports}
    if op == "hist":
        hist = quadruples.rank_counts(req["n"], req["kind"])
        return {"hist": {str(r): c for r, c in hist.items()}}
    if op == "classes":
        return {"classes": quadruples.class_counts(req["n"], req["kind"], req["ell"])}
    if op == "eval":
        prec = req["prec"]
        out = qexpr.evaluate(req["expr"], qexpr.EvalCtx(ell=req["ell"], prec=prec))
        nonzero = [[e, str(c)] for e, c in out.nonzero_items() if e < prec][:4]
        return {"prec": out.prec, "nonzero": nonzero}
    raise ValueError(f"unknown request op {op!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="gzip JSON-lines file for the spans")
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    proto = sys.stdout  # handle() captures the CLI's own output, not this
    proto.write(json.dumps({"ready": True}) + "\n")
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "finish":
            resp = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "caches": cache_stats()}
            if tracer is not None:
                resp["layers"] = tracer.stats
                resp["spans"] = len(tracer.spans)
                if args.spans:
                    tracer.dump(args.spans)
            proto.write(json.dumps(resp) + "\n")
            proto.flush()
            return 0
        if tracer is not None:
            tracer.request_id += 1
        try:
            resp = handle(req)
        except Exception as exc:  # report and keep serving; the client counts it failed
            traceback.print_exc()
            resp = {"error": f"{type(exc).__name__}: {exc}"}
        proto.write(json.dumps(resp) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
