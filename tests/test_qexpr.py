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
    with pytest.raises(QExprSyntaxError, match=r"nested too deeply \(at offset \d+\)"):
        parse("(" * 300 + "q" + ")" * 300)
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
        # route, which knows a negative shift to less than the precision
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
    # the tree, not the text, so that the text cache does not answer with the lowered plan
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


# -- the text cache -------------------------------------------------------------

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
    again = evaluate(text, ctx)
    assert (again, again.prec, str(again)) == (first, first.prec, str(first))
    assert parsed == [] and _misses() == misses
    assert qexpr._prepared.cache_info()[:2] == (1, 1)


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


# texts whose parse and fold succeed and whose evaluation is refused, so that their entry stays;
# None where the stack depth of the caller decides whether the fold or the evaluation is too deep
KEPT_REFUSALS = {"q^-3/(1+E(1))": True, "(1+q)^8000": True, "RU(7)": True, "*".join(["E(2)"] * 990): None}


@pytest.mark.parametrize("ell, prec, text, error", [
    (5, 10, "E(1) +", QExprSyntaxError),
    (5, 10, "E(1) $ 2", QExprSyntaxError),
    (5, 10, "P(100001)", QExprEvalError),
    (5, 10, "T(1,1,17)", QExprEvalError),
    (5, 3, "q^-3/(1+E(1))", QExprEvalError),
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
    info = qexpr._prepared.cache_info()
    outcomes = {True: [(2, 1, 1)], False: [(0, 3, 0)], None: [(2, 1, 1), (0, 3, 0)]}
    assert (info.hits, info.misses, info.currsize) in outcomes[KEPT_REFUSALS.get(text, False)]


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
    assert qexpr._prepared.cache_info()[:2] == (0, 1)


def test_the_text_cache_keeps_the_most_recently_used_entries():
    clear_memos()
    ctx = EvalCtx(ell=5, prec=20)
    texts = [f"E({x})" for x in range(1, qexpr.SESSION_MAX + 2)]
    for text in texts:
        evaluate(text, ctx)
    full = (0, qexpr.SESSION_MAX + 1, qexpr.SESSION_MAX, qexpr.SESSION_MAX)
    assert qexpr._prepared.cache_info() == full
    evaluate(texts[-1], ctx)
    assert qexpr._prepared.cache_info()[:2] == (1, qexpr.SESSION_MAX + 1)
    evaluate(texts[0], ctx)
    assert qexpr._prepared.cache_info()[:2] == (1, qexpr.SESSION_MAX + 2)
