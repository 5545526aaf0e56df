"""Manufactured flow scenarios: exact fields, matching sources, boundary data.

A :class:`ManufacturedCase` is built from closed-form expressions for the
liquid pressure and the two saturations.  sympy differentiates only these
fields (first and second space derivatives, the saturations' time
derivatives) into one lambdified numpy function of "atoms".  Each phase
source and Neumann flux is composed from the atoms by the chain rule with
the closure laws of :mod:`physics` and their analytic derivatives, so the
sources are exact and the closure laws are written once.  An independent
symbolic expansion and a finite-difference oracle in the tests guard this.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import sympy as sp

from .physics import (FluidProperties, SaturationPair, capillary_derivatives,
                      mobilities, mobility_partials)

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


class NonFiniteFieldError(ExpressionError):
    """A field has a non-finite value where the scheme evaluates it."""


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


def _full(value, t, x, y):
    """``value`` broadcast to the shape of the arguments (a float if 0-d)."""
    out = np.empty(np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(y)))
    out[...] = value
    return float(out) if out.ndim == 0 else out


#: numpy code of expressions in (t, x, y), common subexpressions computed once
_lambdify = partial(sp.lambdify, (_T, _X, _Y), modules="numpy", cse=True)


def _check_real(exprs, labels):
    """Raise :class:`ExpressionError` naming the first of ``exprs`` with a
    constant that is not finite and real (``I``, ``zoo``, ``(-1)**(1/3)``)."""
    for expr, label in zip(exprs, labels):
        for node in sp.preorder_traversal(expr):
            if node.is_number and (node is sp.nan or node.is_extended_real is False
                                   or node.is_finite is False):
                raise ExpressionError(f"{label} = {expr} is not real-valued ({node})")


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
        permeability must be a scalar.
    pressure, sat_a, sat_v : str or sympy expression
        Closed-form exact fields in the symbols ``t, x, y``; each field and
        each derivative the sources need must be real-valued.
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
        self._kappa = float(np.asarray(fluids.permeability))
        sides = dirichlet_sides or {}
        self.dirichlet_sides = {u: tuple(sides.get(u, ALL_SIDES)) for u in UNKNOWNS}

        # atoms: value, d/dx, d/dy, d2/dx2, d2/dy2 of each field, d/dt s_a, d/dt s_v
        atoms, labels = [], []
        for unknown, text in zip(UNKNOWNS, (pressure, sat_a, sat_v)):
            e = _as_expr(text)
            dx, dy = sp.diff(e, _X), sp.diff(e, _Y)
            atoms += [e, dx, dy, sp.diff(dx, _X), sp.diff(dy, _Y)]
            labels += [f"{d}{unknown}" for d in ("", "d/dx ", "d/dy ", "d2/dx2 ", "d2/dy2 ")]
        atoms += [sp.diff(atoms[5], _T), sp.diff(atoms[10], _T)]
        _check_real(atoms, labels + ["d/dt sat_a", "d/dt sat_v"])

        # what a time step evaluates is built here, the rest on first use:
        # each exact field, which is also its Dirichlet data, and the sources
        for unknown, field in zip(UNKNOWNS, map(_lambdify, atoms[0:15:5])):
            setattr(self, unknown, lambda t, x, y, f=field: _full(f(t, x, y), t, x, y))
            setattr(self, "boundary_" + unknown, getattr(self, unknown))
        self._atoms = _lambdify(atoms)
        self._last = (), {}   # points and saturation sources kept by _source
        for name, phases in (("total", "lva"), ("aqueous", "a"), ("vapor", "v")):
            setattr(self, "source_" + name, self._source(phases))

    def _phases(self, a, phases):
        """``(kappa lam_j, drive, div F_j)`` of each phase j in ``phases`` from
        the atoms ``a``; F_j = kappa lam_j drive, drive = grad P_j - rho_j g
        as a pair of components.  The chain rule, with the closure laws of
        :mod:`physics` (k_rl unfloored, as the exact fields differentiate it)
        and P_j = p + c p_c(s), c = 1 (vapor), -1 (aqueous) or 0 (liquid):
        dP_j = dp + c p_c' ds, ddP_j = ddp + c (p_c'' ds^2 + p_c' dds), and
        d(lam_j drive) = (dlam_j/ds_a ds_a + dlam_j/ds_v ds_v) drive + lam_j ddP_j."""
        f = self.fluids
        p, sa, sv = a[0:5], a[5:10], a[10:15]
        s = SaturationPair(sa[0], sv[0])
        lam, dlam = mobilities(s, f, floor=False), mobility_partials(s, f)
        dpca, d2pca, dpcv, d2pcv = capillary_derivatives(s.s_a, s.s_v)
        # per phase: lam_j, its partials with their fields, rho_j, c p_c', c p_c'', s
        phase = {"l": (lam.lam_l, ((dlam.dlam_l_dsa, sa), (dlam.dlam_l_dsv, sv)), f.rho_l, ()),
                 "v": (lam.lam_v, ((dlam.dlam_v_dsv, sv),), f.rho_v, ((dpcv, d2pcv, sv),)),
                 "a": (lam.lam_a, ((dlam.dlam_a_dsa, sa),), f.rho_a, ((-dpca, -d2pca, sa),))}
        out = {}
        for j in phases:
            lam_j, partials, rho, capillary = phase[j]
            drive, div = [], 0.0
            for d, g in zip((1, 2), f.gravity):
                dP, ddP = p[d], p[d + 2]
                for dpc, d2pc, s_j in capillary:   # none for the liquid
                    dP, ddP = dP + dpc * s_j[d], ddP + (d2pc * s_j[d] ** 2 + dpc * s_j[d + 2])
                drive.append(dP - rho * g)
                div = div + sum(c * s_k[d] for c, s_k in partials) * drive[-1] + lam_j * ddP
            out[j] = self._kappa * lam_j, drive, self._kappa * div
        return out

    def _source(self, phases):
        """Source phi d/dt(sum of s_j) - sum of div F_j over ``phases``.  A step
        asks for its three sources at the same points, so one evaluation
        yields them all; the saturation sources are kept until asked for."""
        def source(t, x, y):
            key, kept = self._last
            if not (phases in kept and all(map(np.array_equal, key, (t, x, y)))):
                # allocated first: made after the temporaries, it would pin them
                shape = np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(y))
                key, kept = [np.array(v) for v in (t, x, y)], {
                    j: np.empty(shape) for j in {"a", "v", phases}}
                a = self._atoms(t, x, y)
                div = {j: d for j, (*_, d) in self._phases(a, "lva").items()}
                ds_dt = {"a": a[15], "v": a[16], "l": -(a[15] + a[16])}
                for j, q in kept.items():
                    q[...] = -(div["l"] + div["v"] + div["a"]) if j == "lva" else (
                        self.fluids.porosity * ds_dt[j] - div[j])
                self._last = key, kept
            q = kept.pop(phases)
            return float(q) if q.ndim == 0 else q
        return source

    # -- built on first use: a time step never calls these -----------------

    def _rows(self, *rows):
        def evaluate(t, x, y):   # the atoms ``rows``, stacked if several
            a = self._atoms(t, x, y)
            out = [_full(a[r], t, x, y) for r in rows]
            return np.stack(out) if len(rows) > 1 else out[0]
        return evaluate

    pressure_grad = cached_property(lambda self: self._rows(1, 2))
    sat_a_grad = cached_property(lambda self: self._rows(6, 7))
    sat_v_grad = cached_property(lambda self: self._rows(11, 12))
    sat_a_dt = cached_property(lambda self: self._rows(15))
    sat_v_dt = cached_property(lambda self: self._rows(16))
    source_liquid = cached_property(lambda self: self._source("l"))

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
        phases = {"pressure": "lva", "sat_a": "a", "sat_v": "v"}[unknown]
        terms = self._phases(self._atoms(t, x, y), phases).values()
        return _full(sum(klam * (drive[0] * normal[0] + drive[1] * normal[1])
                         for klam, drive, _ in terms), t, x, y)

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
