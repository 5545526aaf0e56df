"""Field expressions given as text, what a manufactured case builds when,
and its chain-rule sources against an independent symbolic expansion.

Text reaches sympy only after a whitelist check on its Python syntax tree,
because sympy's parser evaluates what it is given.
"""

import ast
import keyword
import os
import re
import time

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from dgflow.harness import ConfigError, RunConfig, cli_main
from dgflow.manufactured import (_T, _X, _Y, PRESSURE_EXPR, SAT_A_EXPR, SAT_V_EXPR,
                                 ExpressionError, ManufacturedCase, _as_expr,
                                 case_by_name, constant_densities_case, parse_expression)
from dgflow.physics import FluidProperties

from helpers import symbolic_sources

NAMES = ("t", "x", "y", "pi")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

LEAVES = st.one_of(
    st.sampled_from(NAMES),
    st.integers(0, 10**6).map(str),
    # sympy raises on a literal 0.0 divisor: see test_zero_float_divisor_*
    st.floats(0.0, 1e6, allow_subnormal=False).filter(bool).map(repr),
)


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda a: f"({a[0]} {a[1]} {a[2]})"),
        # small literal exponents: a tower of large powers is valid but
        # would make sympy compute a huge integer
        st.tuples(children, st.integers(0, 3)).map(lambda a: f"({a[0]})**{a[1]}"),
        st.tuples(st.sampled_from("+-"), children).map(lambda a: f"{a[0]}{a[1]}"),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda a: f"{a[0]}({a[1]})"),
    )


WHITELISTED = st.recursive(LEAVES, _grow, max_leaves=12)

IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s) and s not in NAMES)

FORBIDDEN = st.one_of(
    IDENTIFIERS,                                                      # other names
    st.tuples(WHITELISTED, IDENTIFIERS).map(lambda a: f"({a[0]}).{a[1]}"),
    st.tuples(WHITELISTED, st.integers(0, 3)).map(lambda a: f"({a[0]})[{a[1]}]"),
    WHITELISTED.map(lambda e: f"(lambda: {e})"),
    st.tuples(IDENTIFIERS, WHITELISTED).map(lambda a: f"__{a[0]}__({a[1]})"),
    st.tuples(WHITELISTED, IDENTIFIERS).map(lambda a: f"({a[0]}).__{a[1]}__"),
    st.tuples(IDENTIFIERS.filter(lambda s: s not in FUNCTIONS), WHITELISTED).map(
        lambda a: f"{a[0]}({a[1]})"),
)


@st.composite
def embedded_forbidden(draw):
    """A forbidden fragment somewhere inside an otherwise whitelisted text."""
    bad = draw(FORBIDDEN)
    good = draw(WHITELISTED)
    return draw(st.sampled_from([
        bad, f"{good} + {bad}", f"{bad} * ({good})", f"-{bad}",
        f"sin({bad})", f"({good})**({bad})"]))


@settings(max_examples=200, deadline=None)
@given(WHITELISTED)
def test_whitelisted_expressions_parse(text):
    try:
        expr = _as_expr(text)
    except ExpressionError as exc:
        # the one refusal: a constant part outside float64 (exp(1e6), say)
        assert "out of float64 range" in str(exc)
        return
    assert isinstance(expr, sp.Basic)
    assert {s.name for s in expr.free_symbols} <= {"t", "x", "y"}


@settings(max_examples=300, deadline=None)
@given(embedded_forbidden())
def test_other_syntax_is_rejected(text):
    ast.parse(text, mode="eval")   # valid Python: rejected by the whitelist
    with pytest.raises(ExpressionError, match="is not allowed"):
        parse_expression(text)
    with pytest.raises(ConfigError):
        RunConfig(case="custom", pressure_expr=text, sat_a_expr="1/4",
                  sat_v_expr="1/4")


def test_zero_float_divisor_is_a_configuration_error():
    with pytest.raises(ExpressionError, match="cannot evaluate"):
        parse_expression("t + 1.0 / 0.0")
    assert cli_main(["--case", "custom", "--pressure-expr", "(0.0 / 0.0)",
                     "--sat-a-expr", "1/4", "--sat-v-expr", "1/4"]) == 2


@pytest.mark.parametrize("text", ["exp(exp((866614.5827947378)**2))", "9**9**9",
                                  "(1/3)**10**9"])
def test_constant_part_outside_float64_is_a_configuration_error(text):
    # sympy evaluates a constant part exactly, without a bound: the first
    # two ran for minutes and then raised MemoryError
    start = time.perf_counter()
    with pytest.raises(ExpressionError, match="out of float64 range"):
        parse_expression(text)
    assert time.perf_counter() - start < 2.0
    assert cli_main(["--case", "custom", "--pressure-expr", text,
                     "--sat-a-expr", "1/4", "--sat-v-expr", "1/4"]) == 2


@pytest.mark.parametrize("text, label", [
    ("sqrt(-1)", "pressure = I "), ("log(0)", "pressure = zoo "),
    ("2 + x*sqrt(-1)", "pressure = I*x + 2 "), ("(-8)**(1/3)", "pressure = 2*(-1)**(1/3) "),
    ("x + 0**x", "d/dx pressure = nan ")])
def test_field_without_real_values_is_a_configuration_error(text, label, tmp_path):
    # before the case build checked them: a TypeError from the lambdified
    # field, a KeyError 'ComplexInfinity', or a run that dropped the
    # imaginary part after a ComplexWarning
    with pytest.raises(ExpressionError, match=re.escape(label + "is not real-valued")):
        ManufacturedCase("custom", FluidProperties(), text, "1/4", "1/4")
    out = tmp_path / "x.csv"
    assert cli_main(["--case", "custom", "--pressure-expr", text, "--sat-a-expr", "1/4",
                     "--sat-v-expr", "1/4", "--levels", "2", "--h0", "0.5",
                     "--t-final", "0.5", "--out", str(out)]) == 2
    assert not out.exists()


def test_builtin_expressions_give_the_plain_sympify_trees():
    for text in (PRESSURE_EXPR, SAT_A_EXPR, SAT_V_EXPR):
        plain = sp.sympify(text, locals={s: sp.Symbol(s, real=True) for s in "txy"})
        assert _as_expr(text) == plain
        assert sp.srepr(_as_expr(text)) == sp.srepr(plain)


def test_cli_rejects_a_call_without_running_it(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(os, "getpid", lambda: calls.append(1) or 1)
    code = cli_main(["--case", "custom", "--pressure-expr", '__import__("os").getpid()',
                     "--sat-a-expr", "1/4", "--sat-v-expr", "1/4", "--levels", "2"])
    assert code == 2
    assert calls == []
    assert "not allowed" in capsys.readouterr().err


@pytest.mark.parametrize("sides, named", [
    ({"press": ("left",)}, "'press'"),
    ({"pressure": ("left", "nowhere")}, "'nowhere'"),
    ({"sat_a": "left"}, "'left'"),
    ({"sat_v": None}, "'sat_v'"),
])
def test_dirichlet_sides_are_checked_when_the_case_is_built(sides, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        ManufacturedCase("bad", FluidProperties(), dirichlet_sides=sides)


def test_valid_dirichlet_sides_are_kept_as_tuples():
    case = ManufacturedCase("ok", FluidProperties(),
                            dirichlet_sides={"pressure": ["left", "top"], "sat_a": ()})
    assert case.dirichlet_sides == {"pressure": ("left", "top"), "sat_a": (),
                                    "sat_v": ("left", "right", "bottom", "top")}


def test_time_step_callables_are_built_eagerly_the_rest_lazily():
    case = constant_densities_case()
    built = vars(case)
    # perfbench wraps these instance attributes; a step must not build them
    for name in ("pressure", "sat_a", "sat_v", "source_total", "source_aqueous",
                 "source_vapor", "boundary_pressure", "boundary_sat_a",
                 "boundary_sat_v"):
        assert callable(built[name])
    lazy = ("pressure_grad", "sat_a_grad", "sat_v_grad", "sat_a_dt", "sat_v_dt",
            "source_liquid")
    assert not set(lazy) & set(built)
    case.exact_solution(0.5, 0.25, 0.75)
    case.source_terms(0.5, 0.25, 0.75)
    for unknown in ("pressure", "sat_a", "sat_v"):
        case.neumann(unknown, 0.5, 0.25, 0.75, (1.0, 0.0))
    assert set(lazy) <= set(vars(case))


# -- chain-rule sources against the symbolic expansion ----------------------------

#: non-default viscosities, densities, porosity and permeability, gravity in x and y
CUSTOM_FLUIDS = FluidProperties(mu_l=0.6, mu_v=0.3, mu_a=0.9, rho_l=2.0, rho_v=0.5,
                                rho_a=4.0, porosity=0.35, permeability=2.5,
                                gravity=(0.07, -0.2))
CUSTOM_FIELDS = ("1 + x**2*cos(t*y) + exp(x*y)", "(2 + sin(3*x + t)*y**2) / 8",
                 "(1 + x*y*exp(-t)) / 5")


def _oracle_case(name):
    if name == "custom":
        return ManufacturedCase(name, CUSTOM_FLUIDS, *CUSTOM_FIELDS), CUSTOM_FIELDS
    return case_by_name(name), (PRESSURE_EXPR, SAT_A_EXPR, SAT_V_EXPR)


def _assert_matches(actual, expr, t, x, y):
    expected = sp.lambdify((_T, _X, _Y), expr, modules="numpy")(t, x, y)
    expected = np.broadcast_to(expected, t.shape)
    assert np.shape(actual) == t.shape
    assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("name", ["constant_densities", "gravity", "custom"])
def test_chain_rule_sources_match_symbolic_oracle(name):
    case, fields = _oracle_case(name)
    sources, fluxes = symbolic_sources(case.fluids, *fields)
    t, x, y = np.random.default_rng(3).uniform(0.0, 1.0, (3, 500))
    for equation, expr in sources.items():
        _assert_matches(getattr(case, "source_" + equation)(t, x, y), expr, t, x, y)
    for unknown, pair in fluxes.items():
        for normal, expr in zip(((1.0, 0.0), (0.0, 1.0)), pair):
            _assert_matches(case.neumann(unknown, t, x, y, normal), expr, t, x, y)


def test_sources_follow_the_points_they_are_given():
    # the case keeps the terms of the last points a source was evaluated at
    case = constant_densities_case()
    t, x, y = np.random.default_rng(4).uniform(0.0, 1.0, (3, 50))
    for args in ((t, x, y), (0.5, x, y), (t, x, y), (t, y, x)):
        fresh = constant_densities_case()
        for equation in ("total", "aqueous", "vapor", "liquid"):
            expected = getattr(fresh, "source_" + equation)(*args)
            assert np.array_equal(getattr(case, "source_" + equation)(*args), expected)
    first = case.source_aqueous(t, x, y)
    x += 0.125   # the same array, changed in place
    assert not np.array_equal(case.source_aqueous(t, x, y), first)
