import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from qrank import lambert, qexpr
from qrank.cyclotomic import QQ, cyclotomic_field
from qrank.lambert import E_series, P_series, TSpec, lambert_T
from qrank.qexpr import (BinOp, Call, EvalCtx, Num, Pow, Q, QExprEvalError,
                         QExprSyntaxError, Zeta, _sized, evaluate, parse, render)
from qrank.rankgen import ru_at_root, u_series
from qrank.series import INF, LaurentSeries, clear_memos, memo

from oracles import ref_monomial_sum

SRC = str(Path(__file__).resolve().parents[1] / "src")


def strip(node):
    """Positions aside, the structural content of an AST node."""
    if isinstance(node, BinOp):
        return (node.op, strip(node.left), strip(node.right))
    if isinstance(node, Pow):
        return ("Pow", strip(node.base), node.exponent)
    if isinstance(node, Call):
        return ("Call", node.name, node.args)
    if isinstance(node, Num):
        return ("Num", node.value)
    if isinstance(node, Q):
        return ("q",)
    if isinstance(node, Zeta):
        return ("zeta", node.power)
    raise TypeError(node)


def test_parse_example_expression():
    ast = parse("q*E(25)/P(1)^2")
    assert strip(ast) == ("/", ("*", ("q",), ("Call", "E", (25,))),
                          ("Pow", ("Call", "P", (1,)), 2))


def test_parse_rhs_minus_ru():
    ast = parse("RHS(RU5) - RU(5)")
    assert strip(ast) == ("-", ("Call", "RHS", ("RU5",)), ("Call", "RU", (5,)))


def test_parse_error_positions():
    with pytest.raises(QExprSyntaxError) as info:
        parse("P(")
    assert info.value.pos == 2
    with pytest.raises(QExprSyntaxError):
        parse("frob(3)")
    with pytest.raises(QExprSyntaxError):
        parse("E(1,2)")
    with pytest.raises(QExprSyntaxError):
        parse("q +")
    with pytest.raises(QExprSyntaxError):
        parse("q $ 2")
    with pytest.raises(QExprSyntaxError) as info:
        parse("3/0")
    assert info.value.pos == 0


def test_rational_literal_lexing():
    assert strip(parse("3/4")) == ("Num", Fraction(3, 4))
    assert strip(parse("3 / 4")) == ("/", ("Num", 3), ("Num", 4))
    ctx = EvalCtx(ell=5, prec=10)
    a = evaluate("3/4", ctx)
    b = evaluate("3 / 4", ctx)
    assert (a - b).first_nonzero_below() is None
    assert a.coefficient(0) == Fraction(3, 4)


def test_rational_literal_binds_before_an_exponent():
    ctx = EvalCtx(ell=5, prec=10)
    assert strip(parse("3/4^2")) == ("Pow", ("Num", Fraction(3, 4)), 2)
    assert evaluate("3/4^2", ctx).coefficient(0) == Fraction(9, 16)
    assert evaluate("3 / 4^2", ctx).coefficient(0) == Fraction(3, 16)


def test_exponent_is_a_bare_integer():
    ctx = EvalCtx(ell=5, prec=10)
    field = cyclotomic_field(5)
    e1 = E_series(1, 10)
    for text, tree, expected in (
            ("q^2/3", ("/", ("Pow", ("q",), 2), ("Num", 3)),
             LaurentSeries.monomial(QQ, 2, Fraction(1, 3))),
            ("E(1)^2/3", ("/", ("Pow", ("Call", "E", (1,)), 2), ("Num", 3)),
             (e1 * e1).scale(Fraction(1, 3))),
            ("zeta^2/3", ("/", ("zeta", 2), ("Num", 3)),
             LaurentSeries.const(field, field.zeta(2) * Fraction(1, 3))),
            ("2^3/4", ("/", ("Pow", ("Num", 2), 3), ("Num", 4)), LaurentSeries.const(QQ, 2))):
        assert strip(parse(text)) == tree
        assert (evaluate(text, ctx) - expected).first_nonzero_below(10) is None, text


def test_negative_arguments_parse():
    ast = parse("T(-2,1,5)")
    assert strip(ast) == ("Call", "T", (-2, 1, 5))


def test_eval_example_rhs_term():
    ctx = EvalCtx(ell=5, prec=30)
    got = evaluate("q*E(25)/P(1)^2", ctx)
    p1 = P_series(1, 5, 30)
    expected = (E_series(25, 30) * (p1 * p1).inverse()).shift(1)
    assert (got - expected).first_nonzero_below(30) is None


def test_eval_u_coefficients():
    ctx = EvalCtx(ell=5, prec=11)
    got = evaluate("U()", ctx)
    u = u_series(11)
    for e in range(1, 11):
        assert got.coefficient(e) == u.coefficient(e)


def test_eval_algebraic_noop():
    ctx = EvalCtx(ell=5, prec=25)
    lhs = evaluate("T(2,1,5) + q^10 * T(2,1,5)*0", ctx)
    rhs = evaluate("T(2,1,5)", ctx)
    assert (lhs - rhs).first_nonzero_below() is None


def test_eval_identity_residual_is_zero():
    ctx = EvalCtx(ell=5, prec=40)
    residual = evaluate("RHS(RU5) - RU(5)", ctx)
    assert residual.first_nonzero_below(40) is None


def test_eval_zeta_and_division():
    ctx = EvalCtx(ell=7, prec=12)
    s = evaluate("zeta^3 * q^2 / (1 - q)", ctx)
    f7 = cyclotomic_field(7)
    for e in range(2, 12):
        assert s.coefficient(e) == f7.zeta(3)
    assert s.coefficient(1).is_zero()


def test_eval_poch_and_jac():
    ctx = EvalCtx(ell=5, prec=27)
    got = evaluate("jac(0, 5, 25)", ctx)
    direct = P_series(1, 5, 27)
    assert (got - direct).first_nonzero_below(27) is None
    got = evaluate("poch(0, 1, 1, inf)", ctx)
    direct = E_series(1, 27)
    assert (got - direct).first_nonzero_below(27) is None
    got = evaluate("poch(0, 1, 1, 2)", ctx)
    assert [got.coefficient(e) for e in range(4)] == [1, -1, -1, 1]


def test_eval_t_matches_library():
    ctx = EvalCtx(ell=5, prec=30)
    got = evaluate("T(2,1,5)", ctx)
    assert (got - lambert_T(TSpec(2, 1, 5), 30)).first_nonzero_below(30) is None


def test_eval_ru_requires_matching_ell():
    with pytest.raises(QExprEvalError):
        evaluate("RU(3)", EvalCtx(ell=5, prec=10))
    with pytest.raises(QExprEvalError):
        evaluate("RHS(RU7)", EvalCtx(ell=5, prec=10))
    got = evaluate("RU(3)", EvalCtx(ell=3, prec=10))
    assert (got - ru_at_root(3, 10)).first_nonzero_below() is None


def test_eval_rhs_unknown_identity():
    with pytest.raises(QExprEvalError):
        evaluate("RHS(RU11)", EvalCtx(ell=11, prec=10))


def test_eval_division_by_zero_reports_position():
    with pytest.raises(QExprEvalError):
        evaluate("1 / (U() - U())", EvalCtx(ell=5, prec=10))


def test_eval_f_call():
    ctx = EvalCtx(ell=5, prec=15)
    got = evaluate("F(2, -2, 1, 5)", ctx)
    assert (got - ru_at_root(5, 15)).first_nonzero_below(15) is None
    with pytest.raises(QExprEvalError):
        evaluate("F(0, 1, 1, 5)", ctx)


# -- round-trip and compositionality -------------------------------------------

atoms = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda v: Num(Fraction(v))),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(lambda t: Num(Fraction(*t))),
    st.just(Q()),
    st.integers(min_value=-6, max_value=6).map(lambda p: Zeta(p)),
    st.sampled_from([Call("E", (1,)), Call("P", (1,)), Call("P", (2,)),
                     Call("T", (2, 1, 5)), Call("U", ()), Call("V", ())]),
)


def combos(ops):
    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(ops), children, children).map(lambda t: BinOp(*t)),
            st.tuples(children, st.integers(1, 3)).map(lambda t: Pow(t[0], t[1])),
        )
    return extend


# evaluation draws no division, which can fail on a drawn zero or positive valuation
asts = st.recursive(atoms, combos("+-*"), max_leaves=8)
asts_with_division = st.recursive(atoms, combos("+-*/"), max_leaves=8)


@given(asts_with_division)
@example(BinOp("/", Num(Fraction(3)), Num(Fraction(4))))
@example(BinOp("/", Zeta(2), Num(Fraction(3))))
def test_render_parse_roundtrip(ast):
    assert strip(parse(render(ast))) == strip(ast)


@given(asts)
def test_eval_is_compositional(ast):
    ctx = EvalCtx(ell=5, prec=12)
    direct = evaluate(ast, ctx)
    if isinstance(ast, BinOp):
        left = evaluate(ast.left, ctx)
        right = evaluate(ast.right, ctx)
        op = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
              "*": lambda a, b: a * b}[ast.op]
        assert (direct - op(left, right)).first_nonzero_below(12) is None


def test_evalctx_validation():
    with pytest.raises(ValueError):
        EvalCtx(ell=4, prec=10)
    with pytest.raises(ValueError):
        EvalCtx(ell=5, prec=0)


@pytest.mark.parametrize("base", ["q", "2*q", "q+q^2", "q^2", "1-q", "q^-1+1"])
def test_negative_power_keeps_the_precision_of_a_quotient(base):
    ctx = EvalCtx(ell=5, prec=10)
    for k in range(1, 7):
        assert evaluate(f"({base})^-{k}", ctx) == evaluate(f"1/({base})^{k}", ctx), k


@pytest.mark.parametrize("expr, prec, const, k", [
    ("E(1)^1000", 100, 0, 1000), ("E(1)^1000", 300, 0, 1000), ("E(1)^-1000", 100, 0, -1000),
    ("E(1)^-1000", 300, 0, -1000), ("(2+E(1))^10000", 3, 2, 10000)])
def test_sized_powers_of_truncated_series_equal_plain_powers(expr, prec, const, k):
    base = LaurentSeries.const(QQ, const) + E_series(1, prec)
    direct = base ** k if k > 0 else base.inverse() ** -k
    ctx = EvalCtx(ell=5, prec=prec)
    assert evaluate(expr, ctx) == direct.promote(cyclotomic_field(5)).truncate(prec)


def test_deep_expressions_are_refused_with_an_offset():
    # parentheses are refused at the first "(" past NESTING_MAX, whatever the caller's stack;
    # sibling groups do not add up
    n = qexpr.NESTING_MAX
    assert strip(parse("+".join(["(" * n + "q" + ")" * n] * 3))) == strip(parse("q+q+q"))
    for depth in (n + 1, 300):
        with pytest.raises(QExprSyntaxError, match=rf"^expression nested too deeply \(at offset {n}\)$"):
            parse("(" * depth + "q" + ")" * depth)
    with pytest.raises(QExprEvalError, match=r"nested too deeply \(at offset \d+\)"):
        evaluate("*".join(["E(2)"] * 990), EvalCtx(ell=5, prec=10))


@st.composite
def small_series(draw):
    """A series of up to 6 terms over QQ or Q(zeta_5), exact or truncated a few terms on."""
    ring = draw(st.sampled_from([QQ, cyclotomic_field(5)]))
    small = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 4))
    basis = [QQ.one] if ring is QQ else [ring.zeta(j) for j in range(ring.width)]
    coeffs = [sum((z * draw(small) for z in basis), ring.zero) for _ in range(draw(st.integers(1, 6)))]
    v = draw(st.integers(-3, 3))
    return LaurentSeries(ring, v, coeffs, draw(st.sampled_from([INF, v + 1, v + 3, v + 8])))


@given(small_series(), small_series(), st.booleans())
def test_sized_is_the_operation_and_counts_at_least_its_result_bits(a, b, square):
    """_sized(a, b, op) is a op b, and for nonzero a and b (a zero one leaves the other as
    it is) refuses it once the cap is below the result's slots × width × bits of its
    largest coordinate or denominator."""
    b = a if square else b
    assume(a.data and b.data)
    for op, plain in (("+", a + b), ("-", a - b), ("*", a * b)):
        got = _sized(a, b, op)
        assert got == plain
        if got.data:  # len(data) is the slots × width
            bits = len(got.data) * max(got.den, *map(abs, got.data)).bit_length()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qexpr, "POWER_BITS_MAX", bits - 1)
                with pytest.raises(ValueError, match="more than the cap of"):
                    _sized(a, b, op)


@st.composite
def monomial_sums(draw):
    """(ell, prec, text, terms): a sum of up to 3 monomials c q^s T(a, b, ell) prod E(x)^k P(x)^k
    as expression text and as ``ref_monomial_sum`` terms.  Half the coefficients are written
    as a power of a rational; q^s as q^s, a division by q^-s or a quotient q^(s+t)/q^t.  The
    factors after c come in any order, half of them written as divisions by the opposite power;
    half the time the q-power and E/P parts are one power -1; the first coefficient is positive."""
    ell = draw(st.sampled_from([3, 5, 7]))
    text, terms = "", []
    for i in range(draw(st.integers(1, 3))):
        c = Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 4)))
        written = str(c)
        if draw(st.booleans()):
            base, j = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 5))), draw(st.integers(-3, 3))
            c, written = base ** j, f"({base})^{j}"
        c *= 1 if i == 0 else draw(st.sampled_from((1, -1)))
        s, t = draw(st.integers(-20, 20)), draw(st.integers(0, 5))
        parts, factors = [draw(st.sampled_from((f"/q^{-s}", f"*q^{s}", f"*(q^{s + t}/q^{t})")))], []
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from("EP"))
            x = draw(st.integers(1, 30) if kind == "E"
                     else st.integers(-3 * ell, 3 * ell).filter(lambda v: v % ell))
            k = draw(st.integers(-4, 4))
            parts.append(f"/{kind}({x})^{-k}" if k < 0 and draw(st.booleans()) else f"*{kind}({x})^{k}")
            factors.append((kind, x, k))
        if draw(st.booleans()):  # the q-power and E/P parts as the -1 power of their product
            parts = [f"*(1{''.join(draw(st.permutations(parts)))})^-1"]
            s, factors = -s, [(kind, x, -k) for kind, x, k in factors]
        lam = draw(st.none() | st.tuples(st.integers(-2 * ell, 2 * ell).filter(lambda v: v % ell),
                                         st.integers(-ell, ell)))
        if lam is not None:
            parts.append(f"*T({lam[0]},{lam[1]},{ell})")
        text += ("" if i == 0 else " - " if c < 0 else " + ") + written + "".join(draw(st.permutations(parts)))
        terms.append((c, s, tuple(factors), lam))
    return ell, draw(st.integers(1, 40)), text, terms


@given(monomial_sums())
@example((7, 30, "q^11*P(1)^2/(P(2)*P(3)^2) - q^4*P(2)/(P(1)*P(3)) + q^4*P(3)/P(2)^2",
          [(1, 11, (("P", 1, 2), ("P", 2, -1), ("P", 3, -2)), None),
           (-1, 4, (("P", 2, 1), ("P", 1, -1), ("P", 3, -1)), None),
           (1, 4, (("P", 3, 1), ("P", 2, -2)), None)]))
@example((5, 12, "1/2*q^-7/E(3)*T(1,-2,5) - 3*q^2*P(-9)^-2", [
    (Fraction(1, 2), -7, (("E", 3, -1),), (1, -2)), (-3, 2, (("P", -9, -2),), None)]))
def test_monomial_sums_match_the_generic_route(case):
    ell, prec, text, terms = case
    try:
        got = evaluate(text, EvalCtx(ell=ell, prec=prec))
    except QExprEvalError as exc:
        # a term with more factor passes than terms is left to the generic
        # route, which is short by its negative shift, refused past the precision
        assert "exact only below" in str(exc)
        return
    assert (got - ref_monomial_sum(ell, terms, prec)).first_nonzero_below(prec) is None


def test_a_lowered_monomial_sum_multiplies_no_series(monkeypatch):
    # the fold takes each monomial's rationals and powers of q as exact numbers and
    # theta_sum builds each E/P quotient in place, so the lowering makes no series product
    from qrank import series
    products, mul = [], series._mul
    monkeypatch.setattr(series, "_mul", lambda a, b: products.append((a, b)) or mul(a, b))
    series.clear_memos()
    got = evaluate("q^15*E(49)*P(3)/(P(1)*P(2)^2) - q^8*P(1)/(P(2)*P(3))", EvalCtx(ell=7, prec=60))
    assert products == []
    terms = [(1, 15, (("E", 49, 1), ("P", 3, 1), ("P", 1, -1), ("P", 2, -2)), None),
             (-1, 8, (("P", 1, 1), ("P", 2, -1), ("P", 3, -1)), None)]
    assert (got - ref_monomial_sum(7, terms, 60)).first_nonzero_below(60) is None


def _session_templates():
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    return workloads["SPARSE_TEMPLATES"] + workloads["LAMBERT_TEMPLATES"] + workloads["DENSE_TEMPLATES"]


@pytest.mark.parametrize("ell, text", [(5, "1 / 0*E(1)"), (5, "q^-9990*E(1)"), (5, "2^1000000*2^1000000*E(1)"),
                                        *_session_templates()])
def test_the_fold_evaluates_no_node_and_builds_no_series(monkeypatch, ell, text):
    # the fold is exact monomial algebra: where it cannot combine it leaves the node
    # to the generic path, which raises its own refusal when it evaluates the node
    from qrank import series

    def reached(*args):
        raise AssertionError(f"the fold of {text!r} reached the generic path")

    monkeypatch.setattr(qexpr, "_eval", reached)
    monkeypatch.setattr(series, "_new", reached)
    qexpr._plan(parse(text), EvalCtx(ell=ell, prec=60), {})


@pytest.mark.parametrize("text, terms", [
    ("q^-9990*E(1)", [(1, -9990, (("E", 1, 1),), None)]),
    ("E(1)/q^9990", [(1, -9990, (("E", 1, 1),), None)]),
    ("q^-9990/E(23)", [(1, -9990, (("E", 23, -1),), None)]),
])
def test_a_shift_past_the_exact_inverse_cap_is_exact_beside_a_call(text, terms):
    # the series inverse of q^9990 needs more than TERMS_MAX terms; the fold takes
    # q^-9990 as an exact shift of the one table
    got = evaluate(text, EvalCtx(ell=5, prec=10))
    assert got.prec == 10 and (got - ref_monomial_sum(5, terms, 10)).first_nonzero_below(10) is None


@pytest.mark.parametrize("text, factor", [
    ("P(-2)/(1+q)", LaurentSeries(QQ, 0, [(-1) ** k for k in range(21)], 21)),
    ("(1+q)*P(-2)/3", LaurentSeries(QQ, 0, [Fraction(1, 3), Fraction(1, 3)])),
])
def test_an_exact_divisor_is_expanded_past_the_dividend_valuation(text, factor):
    # P(-2) starts at q^-10 at ell 5, so 1/(1+q) and 1/3 need 10 more terms than from q^0
    got = evaluate(text, EvalCtx(ell=5, prec=10))
    p = ref_monomial_sum(5, [(1, 0, (("P", -2, 1),), None)], 10)
    assert got.prec == 10
    assert (got - p * factor).first_nonzero_below(10) is None


def test_a_zeroth_power_beside_a_call_is_one():
    # (q^-7)^0 is 1 exactly, however little of q^-7 a series would know: in the fold
    # beside a call, and alone on the node-by-node path
    ctx = EvalCtx(ell=5, prec=3)
    assert evaluate("(q^-3*q^-4)^0*E(1)", ctx) == evaluate("E(1)", ctx)
    assert str(evaluate("(q^-3*q^-4)^0", EvalCtx(ell=5, prec=10))) == "1 + O(q^10)"


def test_the_fold_keeps_no_coefficient_past_the_cap():
    # a product whose coefficient passes POWER_BITS_MAX bits is left to the generic path,
    # beside a call too, so the fold memo holds no such coefficient; the generic path
    # then refuses the product, though q^100 puts the whole of it above the precision
    text, ctx = "q^100*E(1)" + "*2^1000000" * 60, EvalCtx(ell=5, prec=10)
    memo = {}
    qexpr._plan(parse(text), ctx, memo)
    heights = [qexpr._height(t[0]) for _, terms in memo.values() for t in terms or () if t]
    assert heights and max(heights).bit_length() <= qexpr.POWER_BITS_MAX
    with pytest.raises(QExprEvalError, match="more than the cap of"):
        evaluate(text, ctx)


@pytest.mark.parametrize("expr, product", [("E(5)^4", "poch(0,5,5,inf)^4"), ("E(2)^2", "poch(0,2,2,inf)^2"),
                                            ("E(1)^3/E(2)", "poch(0,1,1,inf)^3/poch(0,2,2,inf)")])
def test_pentagonal_powers_of_e_match_the_generic_route(monkeypatch, expr, product):
    # positive E powers are lowered to one theta_sum at 1000 terms, which multiplies
    # by Euler's pentagonal series once per power; the generic route takes each E
    # call alone and squares it, and the Pochhammer form multiplies every factor
    ctx = EvalCtx(ell=5, prec=1000)
    assert qexpr._theta_table(parse(expr), ctx, {}) is not None
    lowered = str(evaluate(expr, ctx))
    assert lowered == str(evaluate(product, ctx))
    table = qexpr._theta_table
    monkeypatch.setattr(qexpr, "_theta_table", lambda node, *rest: table(node, *rest) if isinstance(node, Call) else None)
    # the tree, not the text, so that the session cache does not answer with the lowered result
    assert lowered == str(evaluate(parse(expr), ctx))


def test_a_positive_e_power_with_no_term_below_the_precision_is_one():
    # E(2) is 1 below q^2, so its 1.8e11-th power costs no pass over the block;
    # the timeout turns a pass per unit of the power into a failure, not a hang
    proc = subprocess.run([sys.executable, "-m", "qrank", "coeffs", "--expr", "((E(2))^600000)^300000",
                           "--ell", "3", "--prec", "1"], capture_output=True, text=True, timeout=30,
                          env={"PATH": "", "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 + O(q^1)\n", "")


def test_import_loads_neither_the_cli_nor_the_check_registry():
    script = "import sys, qrank.qexpr; print(sorted({'qrank.cli', 'qrank.verify'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PATH": "", "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- the session cache ----------------------------------------------------------

SESSION_TEXTS = [
    (7, "q*P(2)/P(1)^2 - q^8*P(1)/(P(2)*P(3)) - q*P(3)^2/(P(1)*P(2)^2)"),
    (7, "T(-3,1,7) + q^21*T(3,-1,7)"),
    (5, "q^-3/E(1) + 2*T(1,2,5) - P(6)^2"),
    (5, "RHS(RU5) - RU(5)"),
    (5, "(1 + q)^3 * E(2) - zeta*q^2"),
]


def _misses():
    return {m.__name__: m.cache_info().misses for m in memo.registry}


@pytest.mark.parametrize("ell, text", SESSION_TEXTS)
def test_a_repeated_text_is_not_parsed_or_built_again(monkeypatch, ell, text):
    clear_memos()
    ctx = EvalCtx(ell=ell, prec=160)
    first = evaluate(text, ctx)
    misses, parsed = _misses(), []
    monkeypatch.setattr(qexpr, "parse", lambda t: parsed.append(t) or parse(t))

    def refuse(*args):
        raise AssertionError("a session hit folded, planned or operated on a series")

    for name in ("_terms", "_plan", "_sized"):
        monkeypatch.setattr(qexpr, name, refuse)
    for name in ("__add__", "__sub__", "__mul__", "promote"):
        monkeypatch.setattr(LaurentSeries, name, refuse)
    again = evaluate(text, ctx)
    assert (again, again.prec, str(again)) == (first, first.prec, str(first))
    lower = evaluate(text, EvalCtx(ell=ell, prec=80))
    assert (lower, lower.prec, str(lower)) == (first.truncate(80), 80, str(first.truncate(80)))
    assert parsed == [] and _misses() == misses
    assert qexpr._session.cache_info()[:2] == (2, 1)


@pytest.mark.parametrize("ell, text", SESSION_TEXTS)
def test_a_lower_precision_after_a_higher_one_equals_a_cold_evaluation(ell, text):
    clear_memos()
    evaluate(text, EvalCtx(ell=ell, prec=240))
    product_misses = lambert._product.cache_info().misses
    warm = evaluate(text, EvalCtx(ell=ell, prec=80))
    assert lambert._product.cache_info().misses == product_misses
    clear_memos()
    cold = evaluate(text, EvalCtx(ell=ell, prec=80))
    assert (warm, warm.prec, str(warm)) == (cold, cold.prec, str(cold))


@pytest.mark.parametrize("ell, prec, text, error", [
    (5, 10, "E(1) +", QExprSyntaxError),
    (5, 10, "E(1) $ 2", QExprSyntaxError),
    (5, 10, "P(100001)", QExprEvalError),
    (5, 10, "T(1,1,17)", QExprEvalError),
    (5, 8, "P(-2)*(1/(1+q))", QExprEvalError),
    (5, 10, "(1+q)^8000", QExprEvalError),
    (5, 10, "RU(7)", QExprEvalError),
    (5, 10, "*".join(["E(2)"] * 990), QExprEvalError),
])
def test_a_refused_text_raises_the_same_error_on_every_request(ell, prec, text, error):
    clear_memos()
    messages = []
    for _ in range(3):
        with pytest.raises(error) as caught:
            evaluate(text, EvalCtx(ell=ell, prec=prec))
        messages.append(str(caught.value))
    assert len(set(messages)) == 1
    info = qexpr._session.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 0)


def test_an_ast_bypasses_the_text_cache(monkeypatch):
    clear_memos()
    ell, text = SESSION_TEXTS[0]
    ctx = EvalCtx(ell=ell, prec=60)
    lowered = evaluate(text, ctx)
    seen = []
    table = qexpr._theta_table
    monkeypatch.setattr(qexpr, "_theta_table", lambda node, *rest: seen.append(node) or table(node, *rest))
    tree = parse(text)
    assert evaluate(tree, ctx) == evaluate(tree, ctx) == lowered
    assert seen.count(tree) == 2
    assert qexpr._session.cache_info()[:2] == (0, 1)


def test_the_text_cache_keeps_the_most_recently_used_entries():
    clear_memos()
    ctx = EvalCtx(ell=5, prec=20)
    texts = [f"E({x})" for x in range(1, qexpr.SESSION_MAX + 2)]
    for text in texts:
        evaluate(text, ctx)
    full = (0, qexpr.SESSION_MAX + 1, qexpr.SESSION_MAX, qexpr.SESSION_MAX)
    assert qexpr._session.cache_info() == full
    evaluate(texts[-1], ctx)
    assert qexpr._session.cache_info()[:2] == (1, qexpr.SESSION_MAX + 1)
    evaluate(texts[0], ctx)
    assert qexpr._session.cache_info()[:2] == (1, qexpr.SESSION_MAX + 2)
    # a hit, at a lower precision too, makes an entry the most recently used: texts[1] then
    # drops texts[3], the least recently used, and texts[2] stays
    evaluate(texts[2], EvalCtx(ell=5, prec=10))
    evaluate(texts[1], ctx)
    evaluate(texts[2], ctx)
    assert qexpr._session.cache_info()[:2] == (3, qexpr.SESSION_MAX + 3)
    evaluate(texts[3], ctx)
    assert qexpr._session.cache_info() == (3, qexpr.SESSION_MAX + 4, qexpr.SESSION_MAX, qexpr.SESSION_MAX)


# q^-1*E(1)^3 at ell 5 falls back from one table to the node-by-node path, one term short, at prec
# 1-10, 12, 13, 15 and 16, and is evaluated once more there; at ell 7 it is a series over another field
SESSION_TEMPLATES = _session_templates() + ((5, "q^-1*E(1)^3"), (7, "q^-1*E(1)^3"))


def _outcome(ell, text, prec):
    """evaluate's answer with its block, or the message it refuses with."""
    try:
        out = evaluate(text, EvalCtx(ell=ell, prec=prec))
    except QExprEvalError as exc:
        return str(exc)
    return _described(out)


def _described(out):
    return out, out.prec, str(out), (out.ring, out.valuation, out.den, list(out.data))


@st.composite
def session_streams(draw):
    """Requests (template, prec) from one to three templates, in any order, with repeats."""
    templates = draw(st.lists(st.sampled_from(SESSION_TEMPLATES), min_size=1, max_size=3, unique=True))
    request = st.tuples(st.sampled_from(templates), st.integers(1, 30) | st.integers(1, 250))
    return draw(st.lists(request, min_size=1, max_size=8))


@given(session_streams())
@example([((5, "q^-1*E(1)^3"), 20), ((5, "q^-1*E(1)^3"), 10), ((5, "q^-1*E(1)^3"), 11)])
@example([((5, "q^-1*E(1)^3"), 30), ((7, "q^-1*E(1)^3"), 20)])
def test_a_session_answers_as_a_cold_evaluation(stream):
    cold = {}
    for (ell, text), prec in stream:
        clear_memos()
        cold[ell, text, prec] = _outcome(ell, text, prec)
    clear_memos()
    for (ell, text), prec in stream:
        assert _outcome(ell, text, prec) == cold[ell, text, prec]


def test_a_session_answers_below_a_longer_answer_as_a_fresh_process_does():
    clear_memos()
    fresh = evaluate("q^-1*E(1)^3", EvalCtx(ell=5, prec=10))
    assert (str(fresh), fresh.prec) == ("q^-1 + -3 + 5*q^2 + -7*q^5 + 9*q^9 + O(q^10)", 10)
    clear_memos()
    evaluate("q^-1*E(1)^3", EvalCtx(ell=5, prec=20))
    out = evaluate("q^-1*E(1)^3", EvalCtx(ell=5, prec=10))
    assert qexpr._session.cache_info()[:2] == (1, 1)
    assert _described(out) == _described(fresh)


def test_a_refusal_leaves_no_entry_and_keeps_the_longest_answer():
    clear_memos()
    messages = []
    for _ in range(3):
        # P(-2) starts at q^-10 and 1/(1+q) is built to q^9: short by 9, more than the precision
        with pytest.raises(QExprEvalError) as caught:
            evaluate("P(-2)*(1/(1+q))", EvalCtx(ell=5, prec=8))
        messages.append(str(caught.value))
    assert len(set(messages)) == 1
    assert qexpr._session.cache_info() == (0, 3, qexpr.SESSION_MAX, 0)
    # q^-9990*E(1) answers at prec 10 and is refused at 20; the refusal keeps the answer at 10
    first = evaluate("q^-9990*E(1)", EvalCtx(ell=5, prec=10))
    for _ in range(2):
        with pytest.raises(QExprEvalError, match="needs 10011 terms, more than the cap of 10000"):
            evaluate("q^-9990*E(1)", EvalCtx(ell=5, prec=20))
    assert evaluate("q^-9990*E(1)", EvalCtx(ell=5, prec=10)) is first
    assert qexpr._session.cache_info() == (1, 6, qexpr.SESSION_MAX, 1)


# -- the precision rule: a short result is evaluated once more at its shortfall ----------


def _top_level_evals(monkeypatch):
    """A list of the trees ``_eval`` is called on from outside ``_eval``, one entry a call."""
    trees, inner, depth = [], qexpr._eval, 0

    def counted(n, *rest):
        nonlocal depth
        if not depth:
            trees.append(n)
        depth += 1
        try:
            return inner(n, *rest)
        finally:
            depth -= 1

    monkeypatch.setattr(qexpr, "_eval", counted)
    return trees


def test_a_short_result_answers_at_every_precision_as_a_longer_answer_truncated(monkeypatch):
    longer = evaluate("q^-1*E(1)^3", EvalCtx(ell=5, prec=40))
    trees = _top_level_evals(monkeypatch)
    for prec in range(1, 40):
        clear_memos()
        out = evaluate("q^-1*E(1)^3", EvalCtx(ell=5, prec=prec))
        assert _described(out) == _described(longer.truncate(prec))
    # a second evaluation only at prec 1-10, 12, 13, 15 and 16, where the lowering falls back
    assert len(trees) == 39 + 14


@pytest.mark.parametrize("ell, prec, text, regrouped", [
    (5, 10, "P(-2)*(1/(1+q))", "P(-2)/(1+q)"),
    (7, 300, "zeta*q^-7*T(3,2,7)/E(49)", "zeta*(q^-7*T(3,2,7)/E(49))"),
])
def test_a_text_answers_as_its_regrouping_does(ell, prec, text, regrouped):
    clear_memos()
    assert _described(evaluate(text, EvalCtx(ell=ell, prec=prec))) == _described(
        evaluate(regrouped, EvalCtx(ell=ell, prec=prec)))


def test_a_quotient_short_by_its_shift_equals_the_shifted_inverse():
    clear_memos()
    inverse = evaluate("1/(1+E(1))", EvalCtx(ell=5, prec=6))
    out = evaluate("q^-3/(1+E(1))", EvalCtx(ell=5, prec=3))
    assert _described(out) == _described(LaurentSeries.monomial(QQ, -3) * inverse)


@pytest.mark.parametrize("ell, prec, text, message", [
    (5, 10, "U()*q^-2000", "the result is exact only below q^-1990, short of the requested precision 10"),
    (5, 8, "P(-2)*(1/(1+q))", "the result is exact only below q^-1, short of the requested precision 8"),
    (5, 1, "1/(E(1)-1)", "cannot divide: inverting a series with no known nonzero coefficient"),
])
def test_a_refusal_past_the_bound_keeps_its_message_after_one_evaluation(monkeypatch, ell, prec, text,
                                                                          message):
    clear_memos()
    trees = _top_level_evals(monkeypatch)
    with pytest.raises(QExprEvalError) as caught:
        evaluate(text, EvalCtx(ell=ell, prec=prec))
    assert (str(caught.value), len(trees)) == (f"{message} (at offset {caught.value.pos})", 1)


@pytest.mark.parametrize("seed", [1, 7, 2401])
def test_no_expr_session_request_is_evaluated_twice(monkeypatch, seed):
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    clear_memos()
    trees = _top_level_evals(monkeypatch)
    for request in workloads["build"]("expr-session", seed):
        evaluate(request.payload["expr"], EvalCtx(ell=request.payload["ell"], prec=request.payload["prec"]))
    assert len(trees) == qexpr._session.cache_info().misses


# the texts CI passes to ``qrank coeffs``, at their CI ell and precision, answered or refused
CI_TEXTS = [
    (13, 40, "1/(1 + zeta + q)"), (5, 1000, "E(5)^4 - poch(0,5,5,inf)^4"), (5, 200, "U()"),
    *((5, 10, text) for text in ("P(100001)", "T(1,1000000,3)", "poch(1,-10000,1,20000)",
                                 "T(1,1,1000000000000000009)", "poch(1,1,1,1000000000000)", "poch(1,-1,1,3)",
                                 "(1+q)^8000", "1 + q^10000000", "1/(q^100000+2*q^100001)", "(2+E(1))^200000",
                                 "1/(q^9989+2*q^9990)", "2^1000000" + "*E(1)^2" * 30, "*".join(["E(2)"] * 990),
                                 "q^-5", "q^2/3", "q^-9990*E(1)", "P(-2)/(1+q)", "E(1)^-3000000",
                                 "(q^-3*q^-4)^0", "q^100*E(1)" + "*2^1000000" * 60,
                                 " + ".join(f"q^{i}*P({1 + i % 3})" for i in range(600)))),
    (5, 1000, "2^1000000*E(1)"), (5, 2, "2^1000000"), (5, 3, "q^-3/E(1)"),
    *((7, 1000, text) for text in ("P(3)^3*P(1) - P(2)^3*P(3) + q^7*P(1)^3*P(2)",
                                   "q*P(2)/P(1)^2 - q^8*P(1)/(P(2)*P(3)) - q*P(3)^2/(P(1)*P(2)^2)",
                                   "q^11*P(1)^2/(P(2)*P(3)^2) - q^4*P(2)/(P(1)*P(3)) + q^4*P(3)/P(2)^2",
                                   "q^14*P(1)^3/(P(2)*P(3)^3) + q^7*P(1)/P(2)^2 - q^7*P(2)/P(3)^2")),
    (3, 300, "RU(3) - (q^7*T(2,3,3)/E(3) - q^5*T(2,2,3)/E(3))"),
    (3, 300, "RV(3) - (q^5*T(2,2,3)/E(3) - q^3*T(2,1,3)/E(3))"),
    (3, 300, "RHS(RU3) - RU(3)"), (3, 300, "RHS(RV3) - RV(3)"), (5, 300, "RHS(RU5) - RU(5)"),
    (5, 300, "RHS(RV5) - RV(5)"), (7, 300, "RHS(RU7) - RU(7)"),
    *((5, 1000, text) for text in ("E(2) - poch(0,2,2,inf)", "P(1) - jac(0,5,25)", "E(25) - poch(0,25,25,inf)")),
]


def test_no_ci_text_is_evaluated_twice(monkeypatch):
    trees = _top_level_evals(monkeypatch)
    for ell, prec, text in CI_TEXTS:
        clear_memos()
        before = len(trees)
        try:
            evaluate(text, EvalCtx(ell=ell, prec=prec))
        except QExprEvalError:
            pass
        assert len(trees) - before <= 1, text
