#!/usr/bin/env python3
"""qrank benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload rank-enum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client sends the workload's requests, one at a time, to a worker process
(``worker.py``) started from the checkout's ``src/``.  Every measured pass runs
in a fresh worker, so each pass starts with cold caches.  Passes repeat while
another one fits in ``--seconds``; there is always at least one.

With ``--trace 0`` no code is wrapped and the end-to-end metrics are printed.
With ``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics and their ratio gives ``trace.overhead_ratio``.

Every response is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit.  The exit code is 1 if any output was
wrong and 2 if the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"
SETUP_PROBES = 9         # extra worker start-ups per untraced run, for setup_s
RUN_TIMEOUT_S = 170      # a run that takes longer is abandoned without a result

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
# span -> fields reported from the traced passes
LAYER_FIELDS = {
    "cyclotomic.cycq_mul": ("calls", "self_s"),
    "cyclotomic.cycq_inverse": ("calls", "self_s"),
    "series.mul": ("calls", "self_s", "out_terms"),
    "series.inverse": ("calls", "self_s", "out_terms"),
    "series.poch": ("calls", "self_s"),
    "series.geometric": ("calls", "self_s"),
    "series.zpoly_mul": ("calls", "self_s"),
    "lambert.lambert_T": ("self_s",),
    "lambert.E_series": ("self_s",),
    "lambert.P_series": ("self_s",),
    "rankgen.counting_series": ("self_s",),
    "rankgen.ru_at_root": ("self_s",),
    "rankgen.rv_at_root": ("self_s",),
    "rankgen.root_prefactor": ("self_s",),
    "rankgen.fg_series": ("self_s",),
    "rankgen.bivariate": ("self_s",),
    "rankgen.rhs_identity": ("self_s",),
    "quadruples.rank_counts": ("calls", "self_s"),
    "quadruples.enumerate": ("self_s",),
    "qexpr.parse": ("self_s",),
    "qexpr.evaluate": ("self_s",),
}
FIELD_INDEX = {"calls": 0, "self_s": 1, "out_terms": 2}
FIELD_UNIT = {"calls": "count", "self_s": "s", "out_terms": "count"}
HIT_RATIOS = ("lambert.cache", "rankgen.cache", "quadruples.partitions")


def check_metric_name(check: str) -> str:
    return "verify.check." + check.replace(":", ".") + ".ms"


def per_layer_units() -> dict[str, str]:
    units = {}
    for span, fields in LAYER_FIELDS.items():
        for f in fields:
            units[f"{span}.{f}"] = FIELD_UNIT[f]
    units["quadruples.listed"] = "count"
    for cache in HIT_RATIOS:
        units[f"{cache}.hit_ratio"] = "ratio"
    for check in workloads.VERIFY_CHECKS:
        units[check_metric_name(check)] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


class Worker:
    """One worker process; its start-up time is the set-up time."""

    def __init__(self, trace: bool = False, spans: Path | None = None):
        cmd = [sys.executable, str(WORKER)]
        if trace:
            cmd.append("--trace")
            if spans is not None:
                cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        try:
            self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        resp = self.request({"op": "finish"})
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return resp

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class Pass:
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    latencies_ms: list
    attempted: int
    failed: int
    quadruples: int
    check_ms: dict = field(default_factory=dict)
    finish: dict = field(default_factory=dict)


def run_pass(requests, trace: bool = False, spans: Path | None = None) -> Pass:
    """Send every request to a fresh worker, timing and checking each."""
    latencies, check_ms = [], {}
    attempted = failed = 0
    with Worker(trace, spans) as worker:
        start = time.perf_counter()
        for req in requests:
            sent = time.perf_counter()
            resp = worker.request(req.payload)
            latencies.append((time.perf_counter() - sent) * 1000.0)
            attempted += req.ops
            failed += workloads.failures(req, resp)
            if req.payload["op"] == "verify":
                check_ms = {r["name"]: r["runtime_ms"] for r in resp.get("reports", [])}
        wall = time.perf_counter() - start
        finish = worker.finish()
    return Pass(worker.setup_s, wall, finish["peak_rss_mb"], latencies, attempted, failed,
                sum(workloads.quadruples(r) for r in requests), check_ms, finish)


def program_counts(kind: str, n_max: int) -> dict:
    """u(n) or v(n) for n < n_max from the program's counting series."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qrank.rankgen import u_series, v_series
    series = (u_series if kind == "u" else v_series)(n_max)
    return {n: series.coefficient(n) for n in range(1, n_max)}


def _repeat(deadline: float, step):
    """Call ``step`` until the next call would end after ``deadline``; at least once."""
    results = []
    while True:
        began = time.perf_counter()
        results.append(step())
        if time.perf_counter() + (time.perf_counter() - began) > deadline:
            return results


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(passes: list[Pass], setups: list[float]) -> dict:
    # Percentiles are taken per pass, then the median across passes: every pass
    # has the same requests, so a percentile always falls at the same rank.
    return {
        "setup_s": statistics.median(setups + [p.setup_s for p in passes]),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "latency_p50_ms": statistics.median(quantile(p.latencies_ms, 0.5) for p in passes),
        "latency_p90_ms": statistics.median(quantile(p.latencies_ms, 0.9) for p in passes),
    }


def layer_metrics(traced: Pass, untraced: list[Pass]) -> dict:
    layers = traced.finish.get("layers", {})
    out = {}
    for span, fields in LAYER_FIELDS.items():
        stats = layers.get(span, [0, 0.0, 0])
        for f in fields:
            out[f"{span}.{f}"] = stats[FIELD_INDEX[f]]
    out["quadruples.listed"] = layers.get("quadruples.enumerate", [0, 0.0, 0])[2]
    for cache in HIT_RATIOS:
        hits, misses = traced.finish["caches"][cache]
        out[f"{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for check in workloads.VERIFY_CHECKS:
        runs = [p.check_ms[check] for p in untraced if check in p.check_ms]
        out[check_metric_name(check)] = statistics.median(runs) if runs else 0.0
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, extra figures to print)."""
    deadline = time.perf_counter() + seconds
    requests = workloads.build(workload, seed, tiny=tiny, series_coeffs=program_counts)
    if not trace:
        Worker().close()  # unmeasured: the first start of a checkout compiles bytecode
        setups = []
        for _ in range(SETUP_PROBES):
            with Worker() as probe:
                setups.append(probe.setup_s)
        passes = _repeat(deadline, lambda: run_pass(requests))
        metrics = end_to_end(passes, setups)
        units = END_TO_END
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{workload}.jsonl.gz"
        order = itertools.count()

        def pair():
            # (untraced, traced); every other pair runs the traced pass first
            if next(order) % 2:
                traced = run_pass(requests, trace=True, spans=spans)
                return run_pass(requests), traced
            return run_pass(requests), run_pass(requests, trace=True, spans=spans)

        pairs = _repeat(deadline, pair)
        passes = [p for pair in pairs for p in pair]
        untraced = [u for u, _ in pairs]
        per_pass = [layer_metrics(t, untraced) for _, t in pairs]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in PER_LAYER if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = statistics.median(t.wall_s / u.wall_s for u, t in pairs)
        units = PER_LAYER
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall = sum(p.wall_s for p in passes)
    extra = {
        "ops_attempted": (attempted, "count"),
        "ops_failed": (failed, "count"),
        "passes": (len(passes), "count"),
        "latency_samples": (sum(len(p.latencies_ms) for p in passes), "count"),
    }
    if workload == "rank-enum":
        extra["quadruples_per_s"] = (sum(p.quadruples for p in passes) / wall, "1/s")
    if workload == "expr-session":
        extra["evals_per_s"] = (attempted / wall, "1/s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, extra


def _on_timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qrank" / "__init__.py").is_file():
        print(f"qrank sources not found under {SRC}", file=sys.stderr)
        return 2
    print(f"# python {platform.python_version()}, {os.cpu_count()} cpus, seed {args.seed}",
          file=sys.stderr)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(RUN_TIMEOUT_S * len(names))
    correct = True
    try:
        for name in names:
            result, extra = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for metric, entry in result["metrics"].items():
                print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
            for metric, (value, unit) in extra.items():
                print(f"{name}  {metric} = {value:.6g} {unit}")
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
