import io
import json
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from qrank import verify
from qrank.cli import ELL_MAX, MOD_MAX, PREC_MAX, main
from qrank.cyclotomic import QQ, cyclotomic_field
from qrank.qexpr import POWER_BITS_MAX, TERMS_MAX
from qrank.quadruples import CLASSES_MAX_N, RANKTABLE_MAX_N
from qrank.series import LaurentSeries

SRC = str(Path(__file__).resolve().parents[1] / "src")

U3_TABLE_TRIPLES = sorted([
    (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 3), (-1, 2, 4), (0, 0, 0),
    (2, 2, 2), (-2, 1, 3), (-1, 2, 4), (4, 1, 4), (-4, 2, 1), (-2, 1, 3),
    (0, 0, 0), (1, 1, 1), (-3, 0, 2),
])


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "qrank", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def decimal(n: int) -> str:
    """str(n), with the interpreter's int-to-str digit cap, where it has one, lifted meanwhile."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def test_coeffs_plain_v_series():
    code, out, _ = run_cli("coeffs", "--expr", "V()", "--prec", "11")
    assert code == 0
    assert out.strip() == ("q^2 + 4*q^3 + 15*q^4 + 39*q^5 + 105*q^6 + 237*q^7"
                           " + 530*q^8 + 1100*q^9 + 2223*q^10 + O(q^11)")


def test_coeffs_json_roundtrip():
    code, out, _ = run_cli("coeffs", "--expr", "q*E(25)/P(1)^2", "--prec", "12",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"]["name"] == "coeffs"
    assert json.loads(json.dumps(doc)) == doc
    payload = doc["payload"]
    assert payload["valuation"] == 1 and payload["prec"] == 12
    assert payload["coeffs"][0] == ["1/1", "0/1", "0/1", "0/1"]


def test_coeffs_csv():
    code, out, _ = run_cli("coeffs", "--expr", "1 + zeta*q", "--ell", "3",
                           "--prec", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exponent,c0,c1"
    assert lines[1] == "0,1/1,0/1"
    assert lines[2] == "1,0/1,1/1"


def test_coeffs_bad_expression_is_usage_error():
    code, _, err = run_cli("coeffs", "--expr", "P(")
    assert code == 2
    assert "offset" in err


def test_coeffs_precision_shortfall_is_usage_error():
    # P(-2) starts at q^-10 and 1/(1+q) is built to q^9, so their product is exact only below q^-1:
    # short by 9, more than the precision, so it is not evaluated again
    code, out, err = run_cli("coeffs", "--expr", "P(-2)*(1/(1+q))", "--prec", "8", "--format", "json")
    assert code == 2
    assert out == ""
    assert "below q^-1" in err and "precision 8" in err


@pytest.mark.parametrize("text, advised", [("RU(4)", None), ("RV(15)", None), ("F(1,2,3,9)", None),
                                           ("RU(7)", "7")])
def test_coeffs_advises_only_an_ell_that_the_cli_takes(text, advised):
    code, out, err = run_cli("coeffs", "--expr", text, "--ell", "5", "--prec", "5")
    assert (code, out) == (2, "")
    if advised is None:
        assert "pass --ell" not in err and "--ell must be a prime >= 3 and at most 13 (at offset 0)" in err
    else:
        assert f"; pass --ell {advised} (at offset 0)" in err
        assert run_cli("coeffs", "--expr", text, "--ell", advised, "--prec", "5")[0] == 0


def test_coeffs_monomial_with_a_negative_shift_is_exact_to_the_precision():
    # q^-3/E(1) is one theta_sum term, built to prec + 3 terms
    code, out, _ = run_cli("coeffs", "--expr", "q^-3/E(1)", "--prec", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert (payload["valuation"], payload["prec"]) == (-3, 3)
    assert [c[0] for c in payload["coeffs"]] == ["1/1", "1/1", "2/1", "3/1", "5/1", "7/1"]


def test_ranktable_matches_worked_example():
    code, out, _ = run_cli("ranktable", "3", "--kind", "u", "--format", "json")
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    assert len(rows) == 15
    got = sorted((r["rank"], r["mod3"], r["mod5"]) for r in rows)
    assert got == U3_TABLE_TRIPLES


def test_ranktable_csv_columns():
    code, out, _ = run_cli("ranktable", "2", "--kind", "v", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p1,p2,p3,p4,omega,rank,mod3,mod5,mod7"
    assert lines[1] == "1+1,-,-,-,2,0,0,0,0"


def test_classes_command():
    code, out, _ = run_cli("classes", "3", "--kind", "u", "--mod", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["counts"] == [5, 5, 5]
    assert payload["equal"] is True and payload["total"] == 15


def test_congruence_pass_and_exit_codes():
    code, out, _ = run_cli("congruence", "--family", "u", "--mod", "13",
                           "--residue", "0", "--max", "104")
    assert code == 0
    assert "PASS" in out
    # v(5n+2) is not a congruence family; expect a failure with exit 1
    code, out, _ = run_cli("congruence", "--family", "v", "--mod", "5",
                           "--residue", "2", "--max", "40", "--format", "json")
    assert code == 1
    payload = json.loads(out)["payload"]
    assert payload["status"] == "FAIL"
    assert payload["first_failure"] is not None


def test_congruence_usage_error():
    code, _, err = run_cli("congruence", "--family", "u", "--mod", "5",
                           "--residue", "7", "--max", "20")
    assert code == 2 and "residue" in err
    # a --max below --residue scans no coefficient
    code, _, err = run_cli("congruence", "--family", "v", "--mod", "13",
                           "--residue", "10", "--max", "5")
    assert code == 2 and "--residue <= --max" in err


def test_verify_only_selected_checks():
    code, out, _ = run_cli("verify", "--only", "THM12:RU3,THM11:u3",
                           "--profile", "fast", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert [r["name"] for r in payload] == ["THM11:u3", "THM12:RU3"]
    assert all(r["status"] == "PASS" for r in payload)


def test_verify_unknown_check_is_usage_error():
    code, _, err = run_cli("verify", "--only", "NOPE:missing")
    assert code == 2
    assert "NOPE:missing" in err


def test_verify_only_must_name_a_check():
    for only in (",", " "):
        code, out, err = run_cli("verify", "--only", only)
        assert code == 2 and out == ""
        assert "names no check" in err


def test_verify_runs_a_repeated_name_once():
    code, out, _ = run_cli("verify", "--only", "THM11:u3,THM11:u3", "--profile", "fast",
                           "--format", "json")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["payload"]] == ["THM11:u3"]


def test_verify_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    theta_sum = verify.theta_sum
    monkeypatch.setattr(verify, "theta_sum", lambda ell, terms, prec: (
        theta_sum(ell, terms, prec).truncate(prec - 5) if ell == 5 else theta_sum(ell, terms, prec)))
    code = main(["verify", "--only", "THM12:RU3,THM12:RU5", "--prec", "60", "--format", "json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert [(r["name"], r["status"]) for r in payload] == [("THM12:RU3", "PASS"),
                                                          ("THM12:RU5", "ERROR")]
    assert payload[1]["detail"] == "ValueError: residual precision 55 below requested 60"
    assert payload[1]["first_failure"] is None and payload[1]["prec"] == 60


def test_verify_list():
    code, out, _ = run_cli("verify", "--list")
    assert code == 0
    names = out.split()
    assert "THM12:RU7" in names and "SEC5:F13-grid-q13-nonzero" in names


def test_verify_list_as_json_is_the_envelope_with_the_names_as_payload(capsys):
    assert main(["verify", "--list", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"schema_version": 1, "command": {"name": "verify", "args": {"list": True, "format": "json"}},
                   "payload": verify.check_names()}
    assert len(doc["payload"]) == 37


def test_verify_list_as_csv_is_a_name_column(capsys):
    assert main(["verify", "--list", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["name", *verify.check_names()]


def test_usage_error_exit_code():
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    assert main(["classes", "0", "--mod", "3"]) == 2


def test_oversized_inputs_refused_before_any_work(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the cap must be checked first")

    monkeypatch.setattr("qrank.cli.rank_table", no_work)
    monkeypatch.setattr("qrank.cli.class_counts", no_work)
    assert main(["ranktable", str(RANKTABLE_MAX_N + 1)]) == 2
    assert f"n <= {RANKTABLE_MAX_N}" in capsys.readouterr().err
    assert main(["classes", str(CLASSES_MAX_N + 1), "--mod", "5"]) == 2
    assert f"n <= {CLASSES_MAX_N}" in capsys.readouterr().err
    assert main(["classes", "5", "--mod", str(MOD_MAX + 1)]) == 2
    assert f"--mod <= {MOD_MAX}" in capsys.readouterr().err


def test_oversized_precision_refused_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the cap must be checked first")

    for target in ("qrank.cli.congruence_scan", "qrank.cli.run_all", "qrank.qexpr.evaluate",
                   "qrank.cyclotomic.is_prime"):
        monkeypatch.setattr(target, no_work)
    over = str(PREC_MAX + 1)
    for argv in (["coeffs", "--expr", "U()", "--prec", over],
                 ["congruence", "--family", "u", "--mod", "5", "--residue", "0", "--max", over],
                 ["verify", "--only", "THM11:u3", "--prec", over],
                 ["verify", "--only", "THM12:RU3", "--prec", "0"]):
        assert main(argv) == 2
        assert str(PREC_MAX) in capsys.readouterr().err
    assert main(["coeffs", "--expr", "1/(1+zeta+q)", "--ell", "401", "--prec", "10"]) == 2
    assert f"--ell must be at most {ELL_MAX}" in capsys.readouterr().err
    monkeypatch.setenv("QRANK_PREC", over)
    assert main(["coeffs", "--expr", "U()"]) == 2
    assert f"QRANK_PREC must be at most {PREC_MAX}" in capsys.readouterr().err


def test_oversized_theta_arguments_refused_at_once(capsys):
    for expr, count in (("P(1000000000001)", 499999999998500000000010),
                        ("T(1,1000000000000,3)", 499999999998500000000014)):
        start = time.perf_counter()
        assert main(["coeffs", "--expr", expr, "--ell", "5", "--prec", "10"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert f"needs {count} terms" in err and f"cap of {TERMS_MAX}" in err


def test_long_finite_poch_and_large_t_order_refused_at_once(capsys):
    for expr, message in (("poch(1,-10000,1,20000)", "needs 50005010 terms below q^10"),
                          ("T(1,1,1000000000000000009)", f"l must be at most {ELL_MAX}")):
        start = time.perf_counter()
        assert main(["coeffs", "--expr", expr, "--ell", "5", "--prec", "10"]) == 2
        assert time.perf_counter() - start < 1
        assert message in capsys.readouterr().err


def test_large_powers_of_exact_polynomials_refused_at_once(capsys):
    for expr in ("(1+q)^8000", "(1+zeta+q)^2000"):
        start = time.perf_counter()
        assert main(["coeffs", "--expr", expr, "--ell", "5", "--prec", "10"]) == 2
        assert time.perf_counter() - start < 1
        assert f"bits, more than the cap of {POWER_BITS_MAX}" in capsys.readouterr().err


def test_large_exact_sums_products_and_inverses_refused_at_once(capsys):
    for expr, cap in (("1 + q^2000000", f"bits, more than the cap of {POWER_BITS_MAX}"),
                      ("(1 + q^600000)*(1 - q^600000)", f"bits, more than the cap of {POWER_BITS_MAX}"),
                      ("1/(q^10050+2*q^10051)", f"terms, more than the cap of {TERMS_MAX}"),
                      ("(q^10050+2*q^10051)^-2", f"terms, more than the cap of {TERMS_MAX}"),
                      # 1/(1 + 2q) to 10,000 terms would hold 2^9999-sized coefficients
                      ("1/(q^9989+2*q^9990)", f"bits, more than the cap of {POWER_BITS_MAX}"),
                      ("1/(q^1014+2*q^1015)", f"bits, more than the cap of {POWER_BITS_MAX}"),
                      ("(1+q)^1024", f"bits, more than the cap of {POWER_BITS_MAX}"),
                      # a plain product of truncated series, and a theta-table term's coefficient
                      ("2^1000000" + "*E(1)^2" * 30, f"bits, more than the cap of {POWER_BITS_MAX}"),
                      ("2^1000000*E(1)", f"bits, more than the cap of {POWER_BITS_MAX}")):
        start = time.perf_counter()
        assert main(["coeffs", "--expr", expr, "--prec", "10"]) == 2, expr
        assert time.perf_counter() - start < 1
        assert cap in capsys.readouterr().err


def test_large_theta_powers_are_taken_by_squaring(capsys):
    # |k| factor passes per power would take minutes; the power of the truncated
    # series takes a few squarings, as for any other base
    from qrank.lambert import E_series, P_series
    for expr, base, k in (("E(1)^200000", E_series(1, 10), 200000),
                          ("P(1)^-100000", P_series(1, 5, 10).inverse(), 100000),
                          ("E(1)^-3000000", E_series(1, 10).inverse(), 3000000)):
        start = time.perf_counter()
        assert main(["coeffs", "--expr", expr, "--prec", "10"]) == 0
        assert time.perf_counter() - start < 10, expr
        assert capsys.readouterr().out == f"{base ** k}\n", expr


@pytest.mark.parametrize("expr, ell, message", [
    ("P(7)", 7, "P(7) is degenerate for ell = 7 (argument divisible by ell) (at offset 0)"),
    ("P(7)^-1", 7, "P(7) is degenerate for ell = 7 (argument divisible by ell) (at offset 0)"),
    ("2*P(7)^-1", 7, "P(7) is degenerate for ell = 7 (argument divisible by ell) (at offset 2)"),
    ("E(0)", 5, "E(a) needs a >= 1, got 0 (at offset 0)"),
    ("q*E(0)", 5, "E(a) needs a >= 1, got 0 (at offset 2)"),
    ("T(3,1,3)", 5, "a = 3 is divisible by ell = 3; the denominator would vanish (at offset 0)"),
    ("P(100001)", 7, "P(100001) needs 4999750010 terms below q^10, more than the cap of 10000 (at offset 0)"),
    ("T(1,1000000,3)", 5, "T(1,1000000,3) needs 499998500014 terms below q^10, more than the cap of 10000 (at offset 0)"),
])
def test_theta_calls_in_monomials_are_refused_as_alone(capsys, expr, ell, message):
    assert main(["coeffs", "--expr", expr, "--ell", str(ell), "--prec", "10"]) == 2
    assert capsys.readouterr().err == f"qrank coeffs: {message}\n"


def test_large_powers_of_truncated_series_refused(capsys):
    start = time.perf_counter()
    assert main(["coeffs", "--expr", "(2+E(1))^200000", "--prec", "10"]) == 2
    assert time.perf_counter() - start < 10
    assert f"bits, more than the cap of {POWER_BITS_MAX}" in capsys.readouterr().err


def test_exact_layouts_and_inverses_under_the_caps_keep_their_output(capsys):
    for expr, out in (("1/q^5", "q^-5 + O(q^10)"), ("1 + q^1000000", "1 + O(q^10)"),
                      ("(1 + q)*(1 - q) - 1", "-1*q^2 + O(q^10)")):
        assert main(["coeffs", "--expr", expr, "--prec", "10"]) == 0
        assert capsys.readouterr().out == out + "\n"
    field = cyclotomic_field(13)
    inverse = LaurentSeries(field, 0, [field.one + field.zeta(1), field.one]).inverse(prec=40)
    assert main(["coeffs", "--expr", "1/(1 + zeta + q)", "--ell", "13", "--prec", "40"]) == 0
    assert capsys.readouterr().out == f"{inverse}\n"
    # inverses whose coefficients grow slowly keep their output at the largest precision
    field = cyclotomic_field(5)
    for expr, ring, coeffs in (("1/(1-q)^2", QQ, [n + 1 for n in range(1000)]),
                               ("1/((1-q)*(1-q^2)*(1-q^3))", QQ, [((n + 3) ** 2 + 6) // 12 for n in range(1000)]),
                               ("1/(1-zeta*q)", field, [field.zeta(n) for n in range(1000)])):
        assert main(["coeffs", "--expr", expr, "--ell", "5", "--prec", "1000"]) == 0, expr
        assert capsys.readouterr().out == f"{LaurentSeries(ring, 0, coeffs, 1000)}\n", expr
    # the largest 1/(q^m + 2 q^(m+1)), (1 + q)^k and 2^k under the size cap at prec 10
    inverse = LaurentSeries(QQ, 1013, [1, 2]).inverse(prec=11)
    for expr, out in (("1/(q^1013+2*q^1014)", f"{inverse.truncate(10)}"),
                      ("(1+q)^1023", f"{LaurentSeries(QQ, 0, [comb(1023, j) for j in range(10)], 10)}"),
                      ("2^1000000", f"{decimal(2 ** 1000000)} + O(q^10)")):
        assert main(["coeffs", "--expr", expr, "--prec", "10"]) == 0, expr
        assert capsys.readouterr().out == out + "\n", expr


def test_coefficients_past_the_int_to_str_digit_cap_are_written(capsys):
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    digits = decimal(2 ** 20000)
    outputs = {}
    for fmt in ("plain", "json", "csv"):
        assert main(["coeffs", "--expr", "2^20000", "--prec", "10", "--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    assert outputs["plain"] == f"{digits} + O(q^10)\n"
    assert json.loads(outputs["json"])["payload"]["coeffs"] == [[f"{digits}/1", "0/1", "0/1", "0/1"]]
    assert outputs["csv"].splitlines()[1] == f"0,{digits}/1,0/1,0/1,0/1"
    if cap is not None:
        # an --expr literal is read under the interpreter's cap, as before
        assert main(["coeffs", "--expr", "1" * 5000, "--prec", "3"]) == 2
        assert "Exceeds the limit (4300 digits)" in capsys.readouterr().err


def test_coeffs_builds_the_json_payload_only_for_json(monkeypatch, capsys):
    expected = {}
    for fmt in ("plain", "csv"):
        assert main(["coeffs", "--expr", "1 + zeta*q", "--ell", "3", "--prec", "5", "--format", fmt]) == 0
        expected[fmt] = capsys.readouterr().out

    def refuse(self):
        raise AssertionError("to_json called for a format that does not write it")
    monkeypatch.setattr(LaurentSeries, "to_json", refuse)
    for fmt in ("plain", "csv"):
        assert main(["coeffs", "--expr", "1 + zeta*q", "--ell", "3", "--prec", "5", "--format", fmt]) == 0
        assert capsys.readouterr().out == expected[fmt]
    assert expected["plain"] == "1 + (zeta)*q + O(q^5)\n"


def test_json_output_is_the_indented_dump(capsys):
    # the batched writer writes the text json.dump(doc, out, indent=2) writes
    from qrank.cli import _batched, _doc, _emit
    from qrank.qexpr import EvalCtx, evaluate
    from qrank.quadruples import rank_table
    for n in (1, 5, 11, 14):
        for kind in ("u", "v"):
            assert main(["ranktable", str(n), "--kind", kind, "--format", "json"]) == 0
            doc = _doc("ranktable", {"n": n, "kind": kind, "format": "json"},
                       {"n": n, "kind": kind, "rows": rank_table(n, kind)})
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    expr = "RU(7) - 3*q/(1 - zeta*q)"
    assert main(["coeffs", "--expr", expr, "--ell", "7", "--prec", "12", "--format", "json"]) == 0
    payload = {**evaluate(expr, EvalCtx(ell=7, prec=12)).to_json(), "ell": 7}
    doc = _doc("coeffs", {"expr": expr, "ell": 7, "prec": 12, "format": "json"}, payload)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    for doc in (_doc("ranktable", {}, {"n": 0, "rows": []}), {"rows": [{}, [], {1: None, 2.5: [True]}]}):
        out = io.StringIO()
        _emit(doc, "json", None, None, out)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
    chunks = ["ab", "c", "", "defg", "h"]
    assert list(_batched(chunks, 3)) == ["abc", "defg", "h"]
    assert list(_batched([], 3)) == [""]


def test_poch_with_exponents_at_or_below_zero_keeps_the_precision(capsys):
    assert main(["coeffs", "--expr", "poch(1,-3,1,5)", "--ell", "5", "--prec", "10",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["valuation"], payload["prec"]) == (-6, 10)


def test_verify_does_not_import_the_expression_parser():
    script = ("import sys; from qrank.cli import main; "
              "code = main(['verify', '--only', 'THM11:u3', '--format', 'json']); "
              "print(code, 'qrank.qexpr' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PATH": "", "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_classes_at_the_cap():
    code, out, _ = run_cli("classes", str(CLASSES_MAX_N), "--kind", "u", "--mod", "5",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["equal"] is True


def test_env_precision_override(monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "qrank", "coeffs", "--expr", "U()", "--format", "json"],
        capture_output=True, text=True,
        env={"PATH": "", "PYTHONPATH": SRC, "QRANK_PREC": "7"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["prec"] == 7


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_env_precision_rejected_as_usage_error(monkeypatch, capsys, raw):
    monkeypatch.setenv("QRANK_PREC", raw)
    assert main(["coeffs", "--expr", "U()"]) == 2
    assert f"QRANK_PREC must be a positive integer, got {raw!r}" in capsys.readouterr().err


# (argv, exit status, lines read before the reader closes): the first two print
# far more than a pipe buffer holds, the others close before anything is written
CLOSED_READERS = [
    (("coeffs", "--expr", "U()", "--prec", "200", "--format", "json"), 0, 1),
    (("ranktable", "12", "--format", "csv"), 0, 1),
    (("verify", "--only", "THM11:u3"), 0, 0),
    (("congruence", "--family", "u", "--mod", "2", "--residue", "0", "--max", "10"), 1, 0),
]


@pytest.mark.parametrize("argv, status, lines", CLOSED_READERS,
                         ids=["coeffs-json", "ranktable-csv", "verify", "congruence-fail"])
def test_a_closed_reader_keeps_the_exit_status(argv, status, lines):
    proc = subprocess.Popen([sys.executable, "-m", "qrank", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={"PATH": "", "PYTHONPATH": SRC})
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (status, b"")
