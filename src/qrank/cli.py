"""Command-line frontend: series evaluation, rank tables, congruence scans, checks.

Every command writes an OutputDoc: a stable JSON envelope with the schema
version, an echo of the command, and the payload.  Plain and CSV formats
render the payload only.  Exit status: 0 on success or PASS, 1 on any FAIL,
2 on usage errors or, with no FAIL, a check that raised (ERROR); a reader
that closes stdout early cuts the output but not the status, which is
computed before anything is written.  The
environment variable QRANK_PREC overrides the default precision.  Refused with
exit 2 before any work: a precision (``coeffs --prec``, QRANK_PREC, ``verify
--prec``) above PREC_MAX or below 1, a ``congruence --max`` above PREC_MAX or
below ``--residue``, ``coeffs --ell`` above ELL_MAX, ``classes --mod`` above
MOD_MAX, a ``coeffs`` P, T or finite poch needing more than ``qexpr.TERMS_MAX``
terms, a ``coeffs`` T whose own l is above ELL_MAX, and a ``coeffs`` inverse
of an exact polynomial needing more than ``qexpr.TERMS_MAX`` terms.  ``coeffs``
also stops with exit 2 at the first sum, difference or product (a power's
squarings and an inverse's Newton steps included) or theta-table term that
needs more than ``qexpr.POWER_BITS_MAX`` bits, and at an expression nested
too deeply to parse or evaluate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, repeat

from .cyclotomic import ELL_MAX, cyclotomic_field
from .quadruples import (CLASSES_MAX_N, RANK_TABLE_COLUMNS, RANKTABLE_MAX_N, class_counts,
                         rank_table)
from .verify import PROFILES, check_names, congruence_scan, run_all

SCHEMA_VERSION = 1
_CONTAINERS = (dict, list, tuple)

# Measured at 1000 on a 2-core x86 machine (Python 3.11, under 25 MB per
# process): the whole `verify --prec` registry 2.2 s across both cores (4.2 s
# on one), 1.6 s of it in INFRA:JTP; `coeffs` of RHS(RU7) - RU(7) 0.13 s, of
# U() 0.32 s, of E(1) 0.08 s; the u(5n) congruence scan 0.26 s.
PREC_MAX = 1000
# Every rank at n <= 40 lies in [-78, 78], so a modulus past 157 only adds
# empty classes.
MOD_MAX = 1000


def _default_prec() -> int:
    raw = os.environ.get("QRANK_PREC")
    if raw is None:
        return 60
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"QRANK_PREC must be a positive integer, got {raw!r}")
    if value > PREC_MAX:
        raise ValueError(f"QRANK_PREC must be at most {PREC_MAX}, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrank",
        description="Exact q-series engine and partition-quadruple rank toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="evaluate a series expression")
    p.add_argument("--expr", required=True, help="expression, e.g. 'q*E(25)/P(1)^2'")
    p.add_argument("--ell", type=int, default=5, help=f"ambient cyclotomic order (default 5, at most {ELL_MAX})")
    p.add_argument("--prec", type=int, default=None,
                   help=f"working precision (default 60, at most {PREC_MAX})")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")

    p = sub.add_parser("ranktable", help="rank table of the quadruples of n")
    p.add_argument("n", type=int)
    p.add_argument("--kind", choices=("u", "v"), default="u")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")

    p = sub.add_parser("classes", help="rank residue-class totals mod ell")
    p.add_argument("n", type=int)
    p.add_argument("--kind", choices=("u", "v"), default="u")
    p.add_argument("--mod", type=int, required=True, help=f"modulus (2 to {MOD_MAX})")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")

    p = sub.add_parser("congruence", help="scan a coefficient congruence family")
    p.add_argument("--family", choices=("u", "v"), required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--max", type=int, required=True,
                   help=f"largest exponent scanned (at most {PREC_MAX})")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")

    p = sub.add_parser("verify", help="run the named-check registry")
    p.add_argument("--only", default=None, help="comma-separated check names")
    p.add_argument("--profile", choices=PROFILES, default="default")
    p.add_argument("--prec", type=int, default=None,
                   help=f"override every check precision (1 to {PREC_MAX})")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p.add_argument("--list", action="store_true", help="list check names and exit")
    return parser


def _doc(command: str, args: dict, payload) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "command": {"name": command, "args": args},
            "payload": payload}


def _batched(chunks, size: int = 1 << 16):
    """The text of ``chunks`` in pieces of about ``size`` characters."""
    buf, count = [], 0
    for chunk in chunks:
        buf.append(chunk)
        count += len(chunk)
        if count >= size:
            yield "".join(buf)
            buf, count = [], 0
    yield "".join(buf)


def _json_chunks(obj, indent: str = ""):
    """The text of json.dump(obj, out, indent=2) for a non-empty dict or list, in
    pieces.  ``indent`` turns CPython's C encoder off, so each container of
    scalars goes through ``json.dumps`` without it, one item per line by the
    item separator."""
    inner = indent + "  "
    is_dict = isinstance(obj, dict)
    sep = "{\n" if is_dict else "[\n"
    for key, value in obj.items() if is_dict else enumerate(obj):
        yield sep + inner
        sep = ",\n"
        if is_dict:
            # json writes a non-string key as the string of its JSON scalar
            yield json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "
        if not value or not isinstance(value, _CONTAINERS):
            yield json.dumps(value)
        elif any(map(isinstance, value.values() if isinstance(value, dict) else value, repeat(_CONTAINERS))):
            yield from _json_chunks(value, inner)
        else:
            text = json.dumps(value, separators=(",\n  " + inner, ": "))
            yield f"{text[0]}\n  {inner}{text[1:-1]}\n{inner}{text[-1]}"
    yield "\n" + indent + ("}" if is_dict else "]")


def _emit(doc: dict, fmt: str, plain_lines, csv_lines, out) -> None:
    """Write the document (read only for JSON), in large pieces; a reader that
    closes the pipe early drops the rest, and the caller's exit status stands."""
    if fmt == "json":
        chunks = chain(_json_chunks(doc), "\n")
    else:
        chunks = (line + "\n" for line in (csv_lines if fmt == "csv" else plain_lines)())
    try:
        for piece in _batched(chunks):
            out.write(piece)
        out.flush()
    except BrokenPipeError:
        # the unwritten buffer would fail again at the flush on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())


def _cmd_coeffs(args, out, err) -> int:
    try:
        prec = args.prec if args.prec is not None else _default_prec()
    except ValueError as exc:
        err.write(f"{exc}\n")
        return 2
    if prec > PREC_MAX:
        err.write(f"qrank coeffs: --prec must be at most {PREC_MAX}, got {prec}\n")
        return 2
    if args.ell > ELL_MAX:
        err.write(f"qrank coeffs: --ell must be at most {ELL_MAX}, got {args.ell}\n")
        return 2
    # imported here so the other commands do not pay for the parser's import
    from .qexpr import EvalCtx, QExprEvalError, QExprSyntaxError, evaluate
    try:
        ctx = EvalCtx(ell=args.ell, prec=prec)
        series = evaluate(args.expr, ctx)
    except (QExprSyntaxError, QExprEvalError, ValueError) as exc:
        err.write(f"qrank coeffs: {exc}\n")
        return 2

    def plain():
        yield str(series)

    def csv():
        width = args.ell - 1
        yield "exponent," + ",".join(f"c{k}" for k in range(width))
        for e, c in series.nonzero_items():
            field = cyclotomic_field(args.ell)
            yield f"{e}," + ",".join(field.encode(c))

    # a coefficient may have more decimal digits than the interpreter converts by
    # default (4,300, where it has a cap): lift the cap while the series is written
    digits_cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits_cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        doc = None
        if args.format == "json":
            dump = series.to_json()
            dump["ell"] = args.ell
            doc = _doc("coeffs", {"expr": args.expr, "ell": args.ell, "prec": prec,
                                  "format": args.format}, dump)
        _emit(doc, args.format, plain, csv, out)
    finally:
        if digits_cap is not None:
            sys.set_int_max_str_digits(digits_cap)
    return 0


def _cmd_ranktable(args, out, err) -> int:
    if not 1 <= args.n <= RANKTABLE_MAX_N:
        err.write(f"qrank ranktable: need 1 <= n <= {RANKTABLE_MAX_N} "
                  "(the table lists every quadruple)\n")
        return 2
    rows = rank_table(args.n, args.kind)
    doc = _doc("ranktable", {"n": args.n, "kind": args.kind, "format": args.format},
               {"n": args.n, "kind": args.kind, "rows": rows})

    def plain():
        header = "  ".join(RANK_TABLE_COLUMNS)
        yield header
        for r in rows:
            yield "  ".join(str(r[c]) for c in RANK_TABLE_COLUMNS)
        yield f"total: {len(rows)}"

    def csv():
        yield ",".join(RANK_TABLE_COLUMNS)
        for r in rows:
            yield ",".join(str(r[c]) for c in RANK_TABLE_COLUMNS)

    _emit(doc, args.format, plain, csv, out)
    return 0


def _cmd_classes(args, out, err) -> int:
    if not 1 <= args.n <= CLASSES_MAX_N or not 2 <= args.mod <= MOD_MAX:
        err.write(f"qrank classes: need 1 <= n <= {CLASSES_MAX_N} and 2 <= --mod <= {MOD_MAX}\n")
        return 2
    counts = class_counts(args.n, args.kind, args.mod)
    payload = {"n": args.n, "kind": args.kind, "mod": args.mod,
               "counts": counts, "equal": len(set(counts)) == 1,
               "total": sum(counts)}
    doc = _doc("classes", {"n": args.n, "kind": args.kind, "mod": args.mod,
                           "format": args.format}, payload)

    def plain():
        yield f"{args.kind}-rank classes of n={args.n} mod {args.mod}: {counts}"
        yield f"equal: {payload['equal']}  total: {payload['total']}"

    def csv():
        yield "residue,count"
        for k, c in enumerate(counts):
            yield f"{k},{c}"

    _emit(doc, args.format, plain, csv, out)
    return 0


def _cmd_congruence(args, out, err) -> int:
    if args.mod < 2 or not 0 <= args.residue < args.mod or not args.residue <= args.max <= PREC_MAX:
        err.write("qrank congruence: need --mod >= 2, 0 <= --residue < --mod, "
                  f"--residue <= --max <= {PREC_MAX}\n")
        return 2
    failure, checked = congruence_scan(args.family, args.mod, args.residue, args.max)
    if failure is not None:
        failure = {"exponent": failure[0], "coefficient": str(failure[1])}
    status = "PASS" if failure is None else "FAIL"
    payload = {"family": args.family, "mod": args.mod, "residue": args.residue,
               "max": args.max, "status": status, "checked": checked,
               "first_failure": failure}
    doc = _doc("congruence", {"family": args.family, "mod": args.mod,
                              "residue": args.residue, "max": args.max,
                              "format": args.format}, payload)

    def plain():
        head = (f"{args.family}({args.mod}n+{args.residue}) = 0 (mod {args.mod}) "
                f"for exponents <= {args.max}: {status}")
        yield head
        if failure is not None:
            yield f"first failure: coefficient of q^{failure['exponent']} is {failure['coefficient']}"
        else:
            yield f"{checked} coefficients checked"

    def csv():
        yield "family,mod,residue,max,status,checked"
        yield f"{args.family},{args.mod},{args.residue},{args.max},{status},{checked}"

    _emit(doc, args.format, plain, csv, out)
    return 0 if status == "PASS" else 1


def _cmd_verify(args, out, err) -> int:
    if args.list:
        names = check_names()
        doc = _doc("verify", {"list": True, "format": args.format}, names)
        _emit(doc, args.format, lambda: names, lambda: ["name", *names], out)
        return 0
    if args.prec is not None and not 1 <= args.prec <= PREC_MAX:
        err.write(f"qrank verify: --prec must be between 1 and {PREC_MAX}, got {args.prec}\n")
        return 2
    only = None
    if args.only is not None:
        only = [n.strip() for n in args.only.split(",") if n.strip()]
        if not only:
            err.write("qrank verify: --only names no check\n")
            return 2
    try:
        reports = run_all(profile=args.profile, only=only, prec=args.prec)
    except KeyError as exc:
        err.write(f"qrank verify: {exc.args[0]}\n")
        return 2
    payload = [r.to_json() for r in reports]
    doc = _doc("verify", {"only": only, "profile": args.profile, "prec": args.prec,
                          "format": args.format}, payload)

    def plain():
        for r in reports:
            line = f"{r.status:<5}  {r.name:<32} prec={r.prec:<4} {r.runtime_ms:9.1f} ms"
            if r.detail:
                line += f"  [{r.detail}]"
            if r.first_failure:
                line += f"  first failure: {r.first_failure}"
            yield line
        fails = sum(1 for r in reports if r.status == "FAIL")
        errors = sum(1 for r in reports if r.status == "ERROR")
        yield f"{len(reports)} checks, {fails} failures" + (f", {errors} errors" if errors else "")

    def csv():
        yield "name,prec,status,runtime_ms,detail"
        for r in reports:
            yield f"{r.name},{r.prec},{r.status},{r.runtime_ms:.1f},\"{r.detail}\""

    _emit(doc, args.format, plain, csv, out)
    statuses = {r.status for r in reports}
    return 1 if "FAIL" in statuses else 2 if "ERROR" in statuses else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; keep that contract
        return int(exc.code or 0)
    out, err = sys.stdout, sys.stderr
    handler = {
        "coeffs": _cmd_coeffs,
        "ranktable": _cmd_ranktable,
        "classes": _cmd_classes,
        "congruence": _cmd_congruence,
        "verify": _cmd_verify,
    }[args.command]
    return handler(args, out, err)


if __name__ == "__main__":
    raise SystemExit(main())
