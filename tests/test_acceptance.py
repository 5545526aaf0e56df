"""Acceptance suite: one pass/fail line per criterion.

The four verification ladders are run once per session through the study
harness; criteria assert the stated rate windows and factor-3 magnitude
anchors.  Criterion 3's aqueous-saturation error is known to sit ~20%
above its window in this implementation (lagging the coefficients and
the strong-boundary saturation floor each exceed the anchor value; see
"Criterion 3 attribution" in CHANGES.md); the check is asserted as
stated rather than loosened.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dgflow import assembly, dg_core, physics
from dgflow.assembly import (LaggedCoefficients, RTField, SchemeConfig,
                             assemble_aqueous, assemble_pressure,
                             assemble_vapor, dirichlet_constraints, form_matrix,
                             rt0_project)
from dgflow.dg_core import DGField, gauss_1d
from dgflow.harness import RunConfig, convergence_study
from dgflow.manufactured import constant_densities_case, gravity_case
from dgflow.mesh import build_uniform_mesh
from dgflow.physics import FluidProperties
from dgflow.solver import initialize, run, solve_linear, TimeConfig

from helpers import (StubCase, constant_state, lagged_coefficients, nodal_interpolant,
                     reference_trace_constant, rt_moments_oracle)

# verification anchors: h -> (pressure, aqueous, vapor) reference errors
REF_FIRST_ORDER = {0.25: (3.18e-2, 7.41e-3, 5.84e-2), 0.125: (1.14e-2, 4.67e-3, 9.64e-3),
           0.0625: (2.78e-3, 2.27e-3, 4.77e-3), 0.03125: (9.22e-4, 1.18e-3, 2.15e-3),
           0.015625: (3.41e-4, 6.01e-4, 1.08e-3)}
REF_SECOND_ORDER_P_ANCHOR = (0.03125, 5.32e-4)
REF_GRAVITY_SA_ANCHOR = (0.0625, 9.51e-5)

RATE_WINDOWS_FIRST_ORDER = {"sa": (0.85, 1.15), "sv": (0.85, 1.25), "p_min": 1.2}
RATE_WINDOW_SECOND_ORDER = (1.75, 2.25)

#: the four ladders' errors, pinned by tools/make_ladder_tables.py
LADDER_TABLES = Path(__file__).with_name("ladder_tables.json")
#: relative drift allowed against the pinned tables
LADDER_TABLES_RTOL = 1e-10


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _ladder(case, tau_rule, h0):
    return convergence_study(RunConfig(case=case, levels=5, h0=h0,
                                       tau_rule=tau_rule, t_final=1.0))


@pytest.fixture(scope="module")
def ladder_t1():
    return _ladder("constant_densities", "h", 0.25)


@pytest.fixture(scope="module")
def ladder_t2():
    return _ladder("constant_densities", "h2", 0.5)


@pytest.fixture(scope="module")
def ladder_t3():
    return _ladder("gravity", "h", 0.25)


@pytest.fixture(scope="module")
def ladder_t4():
    return _ladder("gravity", "h2", 0.5)


@pytest.mark.slow
def test_ladder_tables_are_pinned(ladder_t1, ladder_t2, ladder_t3, ladder_t4):
    pinned = json.loads(LADDER_TABLES.read_text(encoding="utf-8"))
    reports = {"ladder_t1": ladder_t1, "ladder_t2": ladder_t2,
               "ladder_t3": ladder_t3, "ladder_t4": ladder_t4}
    drift = []
    worst = (0.0, "none")
    for name, rep in reports.items():
        table = pinned[name]
        label = f"{name} ({table['case']}, tau rule {table['tau_rule']})"
        assert rep.case == table["case"], label
        assert [lvl.h for lvl in rep.levels] == [row["h"] for row in table["levels"]], label
        for level, (lvl, row) in enumerate(zip(rep.levels, table["levels"])):
            for key in ("p", "sa", "sv"):
                got, want = getattr(lvl, "err_" + key), row[key]
                worst = max(worst, (abs(got - want) / abs(want),
                                    f"{name} level {level} err_{key}"))
                if abs(got - want) > LADDER_TABLES_RTOL * abs(want):
                    drift.append(f"{label} level {level} (h={lvl.h}) err_{key}: "
                                 f"{got!r} against pinned {want!r}")
    _report("ladder tables (pinned at 1e-10 relative)", not drift,
            f"{len(drift)} of 60 errors drifted; worst {worst[0]:.2e} relative "
            f"at {worst[1]}")
    assert not drift, "\n".join(drift)


def _within3(value, anchor):
    return anchor / 3.0 <= value <= anchor * 3.0


@pytest.mark.slow
def test_criterion_1_first_order_study(ladder_t1):
    rep = ladder_t1
    checks = []
    rp, ra, rv = rep.rates_p[-1], rep.rates_sa[-1], rep.rates_sv[-1]
    lo, hi = RATE_WINDOWS_FIRST_ORDER["sa"]
    checks.append(lo <= ra <= hi)
    lo, hi = RATE_WINDOWS_FIRST_ORDER["sv"]
    checks.append(lo <= rv <= hi)
    checks.append(rp >= RATE_WINDOWS_FIRST_ORDER["p_min"])
    mags = all(
        _within3(err, anchor)
        for lvl in rep.levels
        for err, anchor in zip((lvl.err_p, lvl.err_sa, lvl.err_sv),
                               REF_FIRST_ORDER[lvl.h]))
    checks.append(mags)
    ok = all(checks)
    _report("criterion 1 (first-order ladder)", ok,
            f"final rates p={rp:.2f} sa={ra:.2f} sv={rv:.2f}; "
            f"magnitudes within x3: {mags}")
    assert ok


@pytest.mark.slow
def test_criterion_2_second_order_study(ladder_t2):
    rep = ladder_t2
    lo, hi = RATE_WINDOW_SECOND_ORDER
    rates = (rep.rates_p[-1], rep.rates_sa[-1], rep.rates_sv[-1])
    rates_ok = all(lo <= r <= hi for r in rates)
    h_anchor, p_anchor = REF_SECOND_ORDER_P_ANCHOR
    lvl = next(l for l in rep.levels if l.h == h_anchor)
    mag_ok = _within3(lvl.err_p, p_anchor)
    ok = rates_ok and mag_ok
    _report("criterion 2 (second-order ladder)", ok,
            f"final rates {rates[0]:.2f}/{rates[1]:.2f}/{rates[2]:.2f}; "
            f"p({h_anchor})={lvl.err_p:.3e} vs {p_anchor:.2e}")
    assert ok


@pytest.mark.slow
def test_criterion_3_gravity_studies(ladder_t3, ladder_t4):
    r3, r4 = ladder_t3, ladder_t4
    lo, hi = RATE_WINDOWS_FIRST_ORDER["sa"]
    first_ok = (lo <= r3.rates_sa[-1] <= hi
                and RATE_WINDOWS_FIRST_ORDER["sv"][0] <= r3.rates_sv[-1]
                <= RATE_WINDOWS_FIRST_ORDER["sv"][1]
                and r3.rates_p[-1] >= RATE_WINDOWS_FIRST_ORDER["p_min"])
    lo, hi = RATE_WINDOW_SECOND_ORDER
    second_ok = all(lo <= r <= hi for r in (r4.rates_p[-1], r4.rates_sa[-1],
                                            r4.rates_sv[-1]))
    h_anchor, sa_anchor = REF_GRAVITY_SA_ANCHOR
    lvl = next(l for l in r4.levels if l.h == h_anchor)
    mag_ok = _within3(lvl.err_sa, sa_anchor)
    _report("criterion 3 (gravity ladders)", first_ok and second_ok and mag_ok,
            f"tau=h rates p={r3.rates_p[-1]:.2f} sa={r3.rates_sa[-1]:.2f} "
            f"sv={r3.rates_sv[-1]:.2f}; tau=h^2 rates {r4.rates_p[-1]:.2f}/"
            f"{r4.rates_sa[-1]:.2f}/{r4.rates_sv[-1]:.2f}; "
            f"sa({h_anchor})={lvl.err_sa:.3e} vs {sa_anchor:.2e} "
            f"(in x3 window: {mag_ok})")
    assert first_ok and second_ok
    # Known failure: the measured error (~3.4e-4) exceeds the x3 window
    # around 9.51e-5.  Exact-input probes ("Criterion 3 attribution" in
    # CHANGES.md) put about 1.3e-4 of it, at tau = 1/256, on lagging the
    # coefficients, and about 1.36e-4, the same at every tau, on the
    # saturation discretisation with strong boundary values; the
    # saturations' own backward Euler adds almost nothing.  Asserted as
    # stated rather than loosened.
    assert mag_ok, (
        f"s_a error {lvl.err_sa:.3e} outside [{sa_anchor / 3:.2e}, "
        f"{sa_anchor * 3:.2e}]; see 'Criterion 3 attribution' in CHANGES.md: "
        f"coefficient lag ~1.3e-4 at tau=1/256, strong-boundary saturation "
        f"floor ~1.36e-4 at every tau")


def test_criterion_4_patch_tests():
    c_tr = reference_trace_constant()
    linear = {"pressure": lambda t, x, y: 1.0 + x + y,
              "sat_a": lambda t, x, y: 0.2 + 0.05 * x + 0.1 * y,
              "sat_v": lambda t, x, y: 0.3 - 0.04 * x + 0.02 * y}
    worst = 0.0
    for theta in (-1, 0, 1):
        alpha = max(1.0, 1.5 * 0.25 * (1 - theta) ** 2 * c_tr**2)
        mesh = build_uniform_mesh(4, 4)
        state = constant_state(mesh)
        for unknown, fn in linear.items():
            case = StubCase(**{unknown: fn})
            coeffs = lagged_coefficients(state, case)
            if unknown == "pressure":
                cfg = SchemeConfig(theta_p=theta, alpha_p=alpha)
                system = assemble_pressure(state, mesh, cfg, case, 1.0, coeffs)
            elif unknown == "sat_a":
                cfg = SchemeConfig(theta_a=theta, alpha_a=alpha)
                system = assemble_aqueous(state, state.pressure,
                                          RTField.zeros(mesh), mesh, cfg,
                                          case, 1e15, 1.0, coeffs)
            else:
                cfg = SchemeConfig(theta_v=theta, alpha_v=alpha)
                system = assemble_vapor(state, state.pressure, None,
                                        RTField.zeros(mesh), mesh, cfg,
                                        case, 1e15, 1.0, coeffs)
            sol = solve_linear(system)
            exact = nodal_interpolant(mesh, lambda x, y: fn(1.0, x, y))
            worst = max(worst, float(np.max(np.abs(sol - exact.vector))))
    ok = worst < 1e-10
    _report("criterion 4 (patch tests)", ok, f"max nodal deviation {worst:.2e}")
    assert ok


def _rt_conservation_violation(mesh, case, cfg, steps=2):
    """Max per-element mismatch between signed flux sums and the projection
    moments recomputed independently, over a short run."""
    from dgflow.solver import advance
    state = initialize(case, mesh)
    worst = 0.0
    rule = gauss_1d(3)
    for _ in range(steps):
        coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
        t_next = state.time + 0.25
        system = assemble_pressure(state, mesh, cfg, case, t_next, coeffs)
        p = DGField.from_vector(mesh, solve_linear(system), "pressure")
        u = rt0_project(p, state, mesh, cfg, coeffs)
        moments = rt_moments_oracle(mesh, p, coeffs, cfg, rule)
        signed_flux = (u.fluxes[mesh.elem_to_faces]
                       * mesh.face_length[mesh.elem_to_faces]
                       * mesh.elem_face_sign).sum(axis=1)
        signed_moment = (moments[mesh.elem_to_faces]
                         * mesh.elem_face_sign).sum(axis=1)
        worst = max(worst, float(np.abs(signed_flux - signed_moment).max()))
        state = advance(state, 0.25, cfg, case)
    return worst


def test_criterion_5_rt_conservation():
    cfg = SchemeConfig()
    worst = 0.0
    for case in (constant_densities_case(), gravity_case()):
        mesh = build_uniform_mesh(4, 4)
        worst = max(worst, _rt_conservation_violation(mesh, case, cfg))
    # structural single-valuedness: both elements adjacent to a face read
    # the identical stored scalar
    mesh = build_uniform_mesh(3, 3)
    vel = RTField(mesh, np.random.default_rng(0).normal(size=mesh.n_faces))
    from dgflow.mesh import LEFT, RIGHT
    single_valued = all(
        vel.fluxes[mesh.elem_to_faces[mesh.face_k1[f], RIGHT]]
        == vel.fluxes[mesh.elem_to_faces[mesh.face_k2[f], LEFT]]
        for f in mesh.interior_vertical)
    ok = worst < 1e-9 and single_valued
    _report("criterion 5 (RT0 conservation)", ok,
            f"max element bookkeeping mismatch {worst:.2e}; "
            f"single-valued traces: {single_valued}")
    assert ok


def test_criterion_6_derivative_oracles():
    grid = np.arange(0.05, 0.901, 0.05)
    h = 1e-6
    worst = 0.0

    def rel(a, b):
        return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12))

    _, dv = physics.capillary_pressure_v(grid)
    fd = (physics.capillary_pressure_v(grid + h)[0]
          - physics.capillary_pressure_v(grid - h)[0]) / (2 * h)
    worst = max(worst, rel(dv, fd))

    _, da, _ = physics.capillary_pressure_a(grid)
    fd = (physics.capillary_pressure_a(grid + h)[0]
          - physics.capillary_pressure_a(grid - h)[0]) / (2 * h)
    worst = max(worst, rel(da, fd))

    fluids = FluidProperties()
    pairs = [(a, v) for a in grid for v in grid if a + v <= 0.95]
    sa = np.array([p[0] for p in pairs])
    sv = np.array([p[1] for p in pairs])
    part = physics.mobility_partials(physics.SaturationPair(sa, sv), fluids)

    def lam(which, a, v):
        return getattr(physics.mobilities(physics.SaturationPair(a, v), fluids),
                       which)

    for name, analytic, fd in (
            ("dlam_l/dsa", part.dlam_l_dsa,
             (lam("lam_l", sa + h, sv) - lam("lam_l", sa - h, sv)) / (2 * h)),
            ("dlam_l/dsv", part.dlam_l_dsv,
             (lam("lam_l", sa, sv + h) - lam("lam_l", sa, sv - h)) / (2 * h)),
            ("dlam_v/dsv", part.dlam_v_dsv,
             (lam("lam_v", sa, sv + h) - lam("lam_v", sa, sv - h)) / (2 * h)),
            ("dlam_a/dsa", part.dlam_a_dsa,
             (lam("lam_a", sa + h, sv) - lam("lam_a", sa - h, sv)) / (2 * h))):
        worst = max(worst, rel(analytic, fd))

    ok = worst < 1e-5
    _report("criterion 6 (derivative oracles)", ok,
            f"worst relative FD mismatch {worst:.2e}")
    assert ok


def test_criterion_7_coercivity_suite():
    mesh = build_uniform_mesh(4, 4)
    case = constant_densities_case()
    state = initialize(case, mesh)
    coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
    dofs, _ = dirichlet_constraints(mesh, case, "pressure", 0.0)
    rng = np.random.default_rng(99)

    nipg = SchemeConfig()
    failures = 0
    for equation in ("pressure", "aqueous", "vapor"):
        B = form_matrix(mesh, nipg, coeffs, equation)
        for _ in range(50):
            w = rng.normal(size=B.shape[0])
            w[dofs] = 0.0
            if w @ (B @ w) <= 0.0:
                failures += 1
    ok = failures == 0
    _report("criterion 7 (coercivity, theta=1 alpha=1)", ok,
            f"{failures}/150 nonpositive quadratic forms")

    # theta=0 far below its penalty bound (see SchemeConfig): reported, never
    # asserted
    weak = SchemeConfig(theta_p=0, alpha_p=1e-8)
    B = form_matrix(mesh, weak, coeffs, "pressure")
    bad = sum(
        1 for _ in range(50)
        if (lambda w: w @ (B @ w))(
            np.where(np.isin(np.arange(B.shape[0]), dofs), 0.0,
                     rng.normal(size=B.shape[0]))) <= 0.0)
    print(f"       theta=0 alpha=1e-8: {bad}/50 sign failures (reported only)")
    assert ok


def test_criterion_8_projection_initialization():
    case = constant_densities_case()
    ratios = {}
    errs = {}
    for nx in (4, 8):
        mesh = build_uniform_mesh(nx, nx)
        state = initialize(case, mesh)
        errs[nx] = (dg_core.l2_error(state.pressure, case.pressure, 0.0),
                    dg_core.l2_error(state.sat_a, case.sat_a, 0.0),
                    dg_core.l2_error(state.sat_v, case.sat_v, 0.0))
    for i, name in enumerate(("pressure", "sat_a", "sat_v")):
        ratios[name] = errs[4][i] / errs[8][i]
    ok = all(3.5 <= r <= 4.5 for r in ratios.values())
    _report("criterion 8 (projection initialization)", ok,
            "halving ratios " + ", ".join(f"{k}={v:.2f}"
                                          for k, v in ratios.items()))
    assert ok


def test_saturations_stay_in_bounds_throughout():
    # the solver tracks a per-step nodal bound check; surface the flag on
    # a representative run
    case = constant_densities_case()
    _, rep = run(case, build_uniform_mesh(4, 4),
                 TimeConfig.from_step(0.25, 1.0), SchemeConfig())
    assert rep.saturations_in_bounds
