"""Manufactured flow scenarios: exact fields, matching sources, boundary data.

A :class:`ManufacturedCase` is built from closed-form expressions for the
liquid pressure and the two saturations.  The source term of each phase is
expanded symbolically from the mass-conservation divergence form with the
package's closure laws, then lambdified to fast numpy callables, so the
discrete error is free of differentiation noise.  An independent
finite-difference oracle in the test suite guards the algebra.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import sympy as sp

from .physics import FluidProperties, PCA_SCALE, PCV_SCALE

_T, _X, _Y = sp.symbols("t x y", real=True)

ALL_SIDES = ("left", "right", "bottom", "top")

#: the unknowns of the scheme, in solve order
UNKNOWNS = ("pressure", "sat_a", "sat_v")

#: default exact fields for the verification scenarios
PRESSURE_EXPR = "2 + x*y**2 + x**2*sin(t + y)"
SAT_A_EXPR = "(1 + 2*x**2*y**2 + cos(t + x)) / 8"
SAT_V_EXPR = "(3 - cos(t + x)) / 8"


_SYMBOLS = {"t": _T, "x": _X, "y": _Y}

#: what an expression given as text may contain besides number literals
_NAMES = frozenset({"t", "x", "y", "pi"})
_FUNCTIONS = frozenset({"sin", "cos", "exp", "log", "sqrt"})
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, ast.Add, ast.Sub,
          ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)

#: the float64 counterparts of the whitelisted functions and operators
_FLOAT_OPS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
              "sqrt": math.sqrt, ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv, ast.Pow: math.pow,
              ast.UAdd: operator.pos, ast.USub: operator.neg}


class ExpressionError(ValueError):
    """A field expression given as text is not allowed or cannot be evaluated."""


def parse_expression(text: str) -> sp.Expr:
    """Sympy expression of a field given as text.

    ``text`` may hold number literals, the names ``t, x, y, pi``, the
    operators ``+ - * / **``, unary signs and one-argument calls of ``sin
    cos exp log sqrt``.  This is checked on the Python syntax tree before
    sympy sees the text, because sympy's parser evaluates what it is
    given.  So is the size of every constant part (:func:`_check_constants`),
    because sympy evaluates it exactly, without a bound.  Anything else, a
    constant part out of float64 range, or text sympy cannot evaluate (a
    division by a literal ``0.0``) raises :class:`ExpressionError`.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from None
    called = set()
    for node in ast.walk(tree):   # iterative, parents before children
        if isinstance(node, ast.Call):
            allowed = (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                       and len(node.args) == 1 and not node.keywords)
            called.add(id(node.func))
        elif isinstance(node, ast.Name):
            allowed = node.id in _NAMES or id(node) in called
        elif isinstance(node, ast.Constant):
            allowed = type(node.value) in (int, float)
        else:
            allowed = isinstance(node, _NODES)
        if not allowed:
            what = ast.unparse(node) if isinstance(node, ast.expr) else type(node).__name__
            raise ExpressionError(
                f"{what!r} is not allowed in {text!r}; use t, x, y, pi, numbers, "
                f"+ - * / ** and one-argument {', '.join(sorted(_FUNCTIONS))}")
    _check_constants(tree, text)
    try:
        return sp.sympify(text, locals=_SYMBOLS)
    except (sp.SympifyError, ArithmeticError) as exc:
        raise ExpressionError(f"cannot evaluate {text!r}: {exc!r}") from None


def _check_constants(tree: ast.Expression, text: str) -> None:
    """Evaluate every constant subtree of a whitelisted ``tree`` in float64,
    children first, and raise :class:`ExpressionError` where one leaves the
    float64 range (``exp(exp(1e6))``, ``9**9**9``, ``(1/3)**10**9``).  A
    subtree of t, x or y, or one with no real float64 value (``log(0)``,
    ``sqrt(-1)``), is left to sympy."""
    value = {}   # id(node) -> float64 value of each constant subtree
    for node in reversed(list(ast.walk(tree))):   # children before parents
        if isinstance(node, ast.Constant):
            fn, args = float, [node.value]
        elif isinstance(node, ast.Name):
            fn, args = float, [math.pi if node.id == "pi" else None]
        elif isinstance(node, ast.Call):
            fn, args = _FLOAT_OPS[node.func.id], [value.get(id(a)) for a in node.args]
        elif isinstance(node, ast.BinOp):
            fn = _FLOAT_OPS[type(node.op)]
            args = [value.get(id(node.left)), value.get(id(node.right))]
        elif isinstance(node, ast.UnaryOp):
            fn, args = _FLOAT_OPS[type(node.op)], [value.get(id(node.operand))]
        else:
            continue
        if None in args:
            continue
        try:
            result = fn(*args)
        except (ValueError, ZeroDivisionError):
            continue
        except OverflowError:
            result = math.inf
        # sympy keeps the power of a nonzero base that underflows here exactly
        if not math.isfinite(result) or (fn is math.pow and result == 0.0 and args[0]):
            raise ExpressionError(f"{ast.unparse(node)!r} is out of float64 range "
                                  f"in {text!r}")
        value[id(node)] = result


def _as_expr(expr):
    """Sympy expression of a field (text goes through
    :func:`parse_expression`); plain t/x/y symbols are rebound to the
    module's own."""
    e = parse_expression(expr) if isinstance(expr, str) else sp.sympify(expr, strict=True)
    rebind = {s: _SYMBOLS[s.name] for s in e.free_symbols if s.name in _SYMBOLS}
    return e.subs(rebind) if rebind else e


def _lambdify(expr):
    # common subexpressions once: the sources repeat the closures many times
    fn = sp.lambdify((_T, _X, _Y), expr, modules="numpy", cse=True)

    def wrapped(t, x, y):
        shape = np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(y))
        out = np.empty(shape, dtype=float)
        out[...] = fn(t, x, y)
        return float(out) if out.ndim == 0 else out

    return wrapped


def _lambdify_vec(expr_x, expr_y):
    fx, fy = _lambdify(expr_x), _lambdify(expr_y)

    def wrapped(t, x, y):
        return np.stack([np.asarray(fx(t, x, y)), np.asarray(fy(t, x, y))], axis=0)

    return wrapped


@dataclass(frozen=True)
class ExactState:
    """Exact fields and first derivatives at given points."""

    p: np.ndarray
    s_a: np.ndarray
    s_v: np.ndarray
    grad_p: np.ndarray      # (2, ...)
    grad_s_a: np.ndarray
    grad_s_v: np.ndarray
    ds_a_dt: np.ndarray
    ds_v_dt: np.ndarray


class ManufacturedCase:
    """Exact solution triple with PDE-consistent sources and boundary data.

    Parameters
    ----------
    name : str
        Scenario label used by the study harness.
    fluids : FluidProperties
        Constant fluid/rock data including the gravity vector; the
        permeability must be a scalar for symbolic source expansion.
    pressure, sat_a, sat_v : str or sympy expression
        Closed-form exact fields in the symbols ``t, x, y``.
    dirichlet_sides : dict, optional
        Per-unknown Dirichlet boundary sides, keys ``pressure`` /
        ``sat_a`` / ``sat_v``; every side defaults to Dirichlet.
        Non-Dirichlet sides are Neumann and served by :meth:`neumann`.
    """

    def __init__(self, name: str, fluids: FluidProperties,
                 pressure=PRESSURE_EXPR, sat_a=SAT_A_EXPR, sat_v=SAT_V_EXPR,
                 dirichlet_sides: dict | None = None):
        if np.ndim(fluids.permeability) != 0:
            raise ValueError("manufactured cases need a scalar permeability")
        self.name = name
        self.fluids = fluids
        sides = dirichlet_sides or {}
        self.dirichlet_sides = {u: tuple(sides.get(u, ALL_SIDES)) for u in UNKNOWNS}

        self._exprs = tuple(_as_expr(e) for e in (pressure, sat_a, sat_v))

        # what a time step evaluates is built here, the rest on first use:
        # each exact field, which is also its Dirichlet data, and the sources
        for unknown, expr in zip(UNKNOWNS, self._exprs):
            setattr(self, unknown, _lambdify(expr))
            setattr(self, "boundary_" + unknown, getattr(self, unknown))
        self._sources, self._fluxes = self._expand(*self._exprs)
        self._flux = {}   # unknown -> lambdified flux, built on first use
        for name in ("total", "aqueous", "vapor"):
            setattr(self, "source_" + name, _lambdify(self._sources[name]))

    def _expand(self, p, sa, sv):
        """Symbolic phase sources and Neumann fluxes of the exact fields."""
        f = self.fluids
        kappa = float(np.asarray(f.permeability))
        gx, gy = (float(c) for c in f.gravity)

        sl = 1 - sa - sv
        k_rl = sl * (sl + sa) * (1 - sa)
        lam = {
            "l": k_rl / f.mu_l,
            "v": sv**2 / f.mu_v,
            "a": sa**2 / f.mu_a,
        }
        rho = {"l": f.rho_l, "v": f.rho_v, "a": f.rho_a}
        p_cv = PCV_SCALE * sp.log(sp.Float(1.01) - sv)
        p_ca = PCA_SCALE * sp.log(sa + sp.Float(0.01))
        phase_p = {"l": p, "v": p + p_cv, "a": p - p_ca}
        s_of = {"l": sl, "v": sv, "a": sa}

        q = {}
        for j in ("l", "v", "a"):
            fx = kappa * lam[j] * (sp.diff(phase_p[j], _X) - rho[j] * gx)
            fy = kappa * lam[j] * (sp.diff(phase_p[j], _Y) - rho[j] * gy)
            q[j] = f.porosity * sp.diff(s_of[j], _T) - sp.diff(fx, _X) - sp.diff(fy, _Y)
        sources = {"liquid": q["l"], "vapor": q["v"], "aqueous": q["a"],
                   "total": q["l"] + q["v"] + q["a"]}

        lam_t = lam["l"] + lam["v"] + lam["a"]
        rho_lam_t = sum(rho[j] * lam[j] for j in ("l", "v", "a"))
        dpca_dsa = PCA_SCALE / (sa + sp.Float(0.01))
        dpcv_dsv = -PCV_SCALE / (sp.Float(1.01) - sv)
        fluxes = {"pressure": tuple(
            kappa * lam_t * sp.diff(p, z) + kappa * lam["v"] * sp.diff(p_cv, z)
            - kappa * lam["a"] * sp.diff(p_ca, z) - kappa * rho_lam_t * g
            for z, g in ((_X, gx), (_Y, gy)))}
        # the capillary pressure enters the aqueous phase pressure with a minus
        for j, sign, dpc_ds in (("a", -1, dpca_dsa), ("v", 1, dpcv_dsv)):
            fluxes["sat_" + j] = tuple(
                sign * kappa * lam[j] * dpc_ds * sp.diff(s_of[j], z)
                + kappa * lam[j] * sp.diff(p, z) - rho[j] * kappa * lam[j] * g
                for z, g in ((_X, gx), (_Y, gy)))
        return sources, fluxes

    # -- built on first use: a time step never calls these -----------------

    def _gradient(self, i):
        return _lambdify_vec(*(sp.diff(self._exprs[i], z) for z in (_X, _Y)))

    pressure_grad = cached_property(lambda self: self._gradient(0))
    sat_a_grad = cached_property(lambda self: self._gradient(1))
    sat_v_grad = cached_property(lambda self: self._gradient(2))
    sat_a_dt = cached_property(lambda self: _lambdify(sp.diff(self._exprs[1], _T)))
    sat_v_dt = cached_property(lambda self: _lambdify(sp.diff(self._exprs[2], _T)))
    source_liquid = cached_property(lambda self: _lambdify(self._sources["liquid"]))

    # -- spec-level conveniences ------------------------------------------

    def exact_solution(self, t, x, y) -> ExactState:
        """Exact values with gradients and saturation time derivatives."""
        fns = [getattr(self, u + suffix) for suffix in ("", "_grad") for u in UNKNOWNS]
        return ExactState(*(fn(t, x, y) for fn in fns + [self.sat_a_dt, self.sat_v_dt]))

    def source_terms(self, t, x, y):
        """Phase sources (q_l, q_v, q_a) matching the exact fields."""
        return (self.source_liquid(t, x, y),
                self.source_vapor(t, x, y),
                self.source_aqueous(t, x, y))

    def neumann(self, unknown, t, x, y, normal):
        """Exact normal flux ``F . normal`` of ``unknown`` ('pressure',
        'sat_a' or 'sat_v'), the Neumann data of its non-Dirichlet sides."""
        if unknown not in self._flux:
            self._flux[unknown] = _lambdify_vec(*self._fluxes[unknown])
        F = self._flux[unknown](t, x, y)
        return F[0] * normal[0] + F[1] * normal[1]

    def __repr__(self):
        return f"ManufacturedCase({self.name!r})"


def constant_densities_case() -> ManufacturedCase:
    """Verification scenario with constant densities and no gravity."""
    return ManufacturedCase("constant_densities", FluidProperties())


def gravity_case() -> ManufacturedCase:
    """Same exact fields with gravity g = (0, -0.1)."""
    return ManufacturedCase("gravity", FluidProperties(gravity=(0.0, -0.1)))


_FACTORIES = {
    "constant_densities": constant_densities_case,
    "gravity": gravity_case,
}


def case_by_name(name: str) -> ManufacturedCase:
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown case {name!r}; known: {sorted(_FACTORIES)}") from None
