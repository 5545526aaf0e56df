import numpy as np
import pytest

from dgflow import physics
from dgflow.manufactured import (constant_densities_case, gravity_case,
                                 ManufacturedCase)
from dgflow.physics import (CapillaryDomainError, FluidProperties, capillary_derivatives,
                            capillary_pressure_a, capillary_pressure_v, clamp,
                            mobilities, mobility_partials,
                            relative_permeabilities)


FLUIDS = FluidProperties()
GRID = np.arange(0.05, 0.901, 0.05)


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def test_array_permeability_is_refused():
    with pytest.raises(ValueError, match="permeability"):
        FluidProperties(permeability=np.full(4, 2.0))


# -- closures ----------------------------------------------------------------

def test_relative_permeability_values():
    s = clamp(0.25, 0.25)
    k_rl, k_rv, k_ra = relative_permeabilities(s)
    assert k_rl == pytest.approx(0.5 * 0.75 * 0.75)
    s = physics.SaturationPair(np.float64(0.2), np.float64(0.5))
    assert relative_permeabilities(s)[1] == pytest.approx(0.25)
    s = physics.SaturationPair(np.float64(0.0), np.float64(0.3))
    assert relative_permeabilities(s)[2] == pytest.approx(0.0)


def test_mobility_values():
    s = clamp(0.25, 0.25)
    mob = mobilities(s, FLUIDS)
    assert mob.lam_l == pytest.approx(0.28125 / 0.75)
    s = clamp(0.2, 0.5)
    assert mobilities(s, FLUIDS).lam_v == pytest.approx(1.0)


def test_total_mobility_matches_sum_oracle():
    # independent term-by-term evaluation of the total
    s = clamp(0.25, 0.25)
    mob = mobilities(s, FLUIDS)
    expected = 0.28125 / 0.75 + 0.0625 / 0.25 + 0.0625 / 0.5
    assert mob.lam_t == pytest.approx(expected)
    assert mob.lam_t == pytest.approx(0.75)


def test_rho_lam_total():
    rng = np.random.default_rng(0)
    sa, sv = rng.uniform(0.1, 0.4, size=(2, 20))
    s = clamp(sa, sv)
    mob = mobilities(s, FLUIDS)
    manual = (FLUIDS.rho_l * mob.lam_l + FLUIDS.rho_v * mob.lam_v
              + FLUIDS.rho_a * mob.lam_a)
    assert np.allclose(mob.rho_lam_t, manual, rtol=0, atol=0)


# -- capillary pressures -----------------------------------------------------

def test_pcv_zero_and_derivative():
    val, deriv = capillary_pressure_v(0.01)
    assert val == pytest.approx(0.0, abs=1e-15)
    fd = central_diff(lambda s: capillary_pressure_v(s)[0], 0.01)
    assert deriv == pytest.approx(fd, rel=1e-6)
    assert deriv == pytest.approx(-3.9 / np.log(0.01), rel=1e-9)


def test_pcv_derivative_positive_on_grid():
    _, deriv = capillary_pressure_v(GRID)
    assert np.all(deriv > 0)


def test_pcv_domain_error():
    with pytest.raises(CapillaryDomainError):
        capillary_pressure_v(1.02)


def test_pca_zero_at_099():
    val, _, _ = capillary_pressure_a(0.99)
    assert val == pytest.approx(0.0, abs=1e-15)


def test_pca_signs_on_grid():
    _, deriv, pos = capillary_pressure_a(GRID)
    assert np.all(deriv < 0)
    assert np.all(pos > 0)
    assert np.allclose(pos, -deriv)


def test_pca_derivative_matches_fd():
    for s in (0.25, 0.5, 0.75):
        _, deriv, _ = capillary_pressure_a(s)
        fd = central_diff(lambda v: capillary_pressure_a(v)[0], s)
        assert deriv == pytest.approx(fd, rel=1e-6)


def test_pca_domain_error():
    with pytest.raises(CapillaryDomainError):
        capillary_pressure_a(-0.02)


def test_capillary_derivative_oracle_grid():
    # acceptance-style sweep: analytic derivatives vs central differences
    fd_v = central_diff(lambda s: capillary_pressure_v(s)[0], GRID)
    assert np.allclose(capillary_pressure_v(GRID)[1], fd_v, rtol=1e-5)
    fd_a = central_diff(lambda s: capillary_pressure_a(s)[0], GRID)
    assert np.allclose(capillary_pressure_a(GRID)[1], fd_a, rtol=1e-5)


def test_mobility_partials_match_fd():
    # physical pairs only: the liquid relperm floor introduces a kink at
    # s_l = 0 that central differences would straddle
    pairs = [(sa, sv) for sa in GRID for sv in GRID if sa + sv <= 0.95]
    sa = np.array([p[0] for p in pairs])
    sv = np.array([p[1] for p in pairs])
    s = physics.SaturationPair(sa, sv)
    part = mobility_partials(s, FLUIDS)

    def lam(which, a, v):
        return getattr(mobilities(physics.SaturationPair(a, v), FLUIDS), which)

    h = 1e-6
    fd_l_a = (lam("lam_l", sa + h, sv) - lam("lam_l", sa - h, sv)) / (2 * h)
    fd_l_v = (lam("lam_l", sa, sv + h) - lam("lam_l", sa, sv - h)) / (2 * h)
    fd_v_v = (lam("lam_v", sa, sv + h) - lam("lam_v", sa, sv - h)) / (2 * h)
    fd_a_a = (lam("lam_a", sa + h, sv) - lam("lam_a", sa - h, sv)) / (2 * h)
    assert np.allclose(part.dlam_l_dsa, fd_l_a, rtol=1e-5, atol=1e-8)
    assert np.allclose(part.dlam_l_dsv, fd_l_v, rtol=1e-5, atol=1e-8)
    assert np.allclose(part.dlam_v_dsv, fd_v_v, rtol=1e-5, atol=1e-8)
    assert np.allclose(part.dlam_a_dsa, fd_a_a, rtol=1e-5, atol=1e-8)


def test_capillary_second_derivatives_match_fd():
    dpca, d2pca, dpcv, d2pcv = capillary_derivatives(GRID, GRID)
    assert np.array_equal(dpca, capillary_pressure_a(GRID)[1])
    assert np.array_equal(dpcv, capillary_pressure_v(GRID)[1])
    assert np.allclose(d2pca, central_diff(lambda s: capillary_pressure_a(s)[1], GRID),
                       rtol=1e-5)
    assert np.allclose(d2pcv, central_diff(lambda s: capillary_pressure_v(s)[1], GRID),
                       rtol=1e-5)
    # unchecked: finite beyond the domain of the capillary pressures themselves
    assert np.all(np.isfinite(capillary_derivatives(-0.5, 1.5)))


def test_unfloored_liquid_mobility_keeps_its_sign():
    s = physics.SaturationPair(np.array([0.6, 0.2]), np.array([0.6, 0.3]))   # s_l < 0, > 0
    floored, smooth = mobilities(s, FLUIDS), mobilities(s, FLUIDS, floor=False)
    assert floored.lam_l[0] == 0.0 and smooth.lam_l[0] < 0.0
    assert floored.lam_l[1] == smooth.lam_l[1] > 0.0


# -- clamping ----------------------------------------------------------------

def test_clamp_leaves_physical_values():
    s = clamp(0.25, 0.25)
    assert s.s_a == 0.25 and s.s_v == 0.25 and s.s_l == 0.5


def test_clamp_bounds():
    s = clamp(-0.2, 0.5)
    assert s.s_a == pytest.approx(physics.SAT_EPS)
    assert s.s_v == 0.5
    s = clamp(1.5, 0.3)
    assert s.s_a == pytest.approx(1.0 - physics.SAT_EPS)


def test_clamped_coefficient_bounds_hold():
    # positive lower bounds for every coefficient over the clamped box
    grid = np.linspace(physics.SAT_EPS, 1 - physics.SAT_EPS, 101)
    sa, sv = np.meshgrid(grid, grid, indexing="ij")
    s = clamp(sa, sv)
    mob = mobilities(s, FLUIDS)
    assert mob.lam_t.min() > 0
    assert np.all(capillary_pressure_a(s.s_a)[2] > 0)
    assert np.all(capillary_pressure_v(s.s_v)[1] >= 0)


def test_lipschitz_spot_check():
    rng = np.random.default_rng(5)
    s1 = clamp(rng.uniform(0, 1, 200), rng.uniform(0, 1, 200))
    s2 = clamp(rng.uniform(0, 1, 200), rng.uniform(0, 1, 200))
    m1, m2 = mobilities(s1, FLUIDS), mobilities(s2, FLUIDS)
    denom = np.abs(s1.s_a - s2.s_a) + np.abs(s1.s_v - s2.s_v)
    ok = denom > 1e-9
    for a, b in ((m1.lam_l, m2.lam_l), (m1.lam_v, m2.lam_v), (m1.lam_a, m2.lam_a)):
        ratio = np.abs(a - b)[ok] / denom[ok]
        assert np.isfinite(ratio).all()
        assert ratio.max() < 20.0  # finite Lipschitz constant on the box


# -- exact solution ----------------------------------------------------------

def test_exact_solution_at_origin():
    case = constant_densities_case()
    ex = case.exact_solution(0.0, 0.0, 0.0)
    assert ex.p == pytest.approx(2.0)
    assert ex.s_a == pytest.approx(0.25)
    assert ex.s_v == pytest.approx(0.25)


def test_exact_saturation_sum_on_axis():
    case = constant_densities_case()
    y = np.linspace(0, 1, 7)
    sa = case.sat_a(0.0, 0.0, y)
    sv = case.sat_v(0.0, 0.0, y)
    assert np.allclose(sa + sv, 0.5)


def test_exact_saturations_stay_physical():
    case = constant_densities_case()
    t = np.linspace(0, 1, 9)[:, None, None]
    x = np.linspace(0, 1, 13)[None, :, None]
    y = np.linspace(0, 1, 13)[None, None, :]
    sa, sv = case.sat_a(t, x, y), case.sat_v(t, x, y)
    sl = 1 - sa - sv
    for s in (sa, sv, sl):
        assert s.min() > 0 and s.max() < 1


def test_exact_gradients_match_fd():
    case = constant_densities_case()
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(20):
        t, x, y = rng.uniform(0.1, 0.9, 3)
        ex = case.exact_solution(t, x, y)
        for fn, grad, dt in ((case.pressure, ex.grad_p, None),
                             (case.sat_a, ex.grad_s_a, ex.ds_a_dt),
                             (case.sat_v, ex.grad_s_v, ex.ds_v_dt)):
            fdx = (fn(t, x + h, y) - fn(t, x - h, y)) / (2 * h)
            fdy = (fn(t, x, y + h) - fn(t, x, y - h)) / (2 * h)
            assert grad[0] == pytest.approx(fdx, rel=1e-6, abs=1e-9)
            assert grad[1] == pytest.approx(fdy, rel=1e-6, abs=1e-9)
            if dt is not None:
                fdt = (fn(t + h, x, y) - fn(t - h, x, y)) / (2 * h)
                assert dt == pytest.approx(fdt, rel=1e-6, abs=1e-9)


# -- manufactured sources ----------------------------------------------------

def _divergence_fd(case, phase, t, x, y, h=1e-4):
    """High-order FD of the flux divergence, independent of the symbolic path."""
    f = case.fluids
    kappa = float(np.asarray(f.permeability))
    g = f.gravity_vector
    rho = {"l": f.rho_l, "v": f.rho_v, "a": f.rho_a}[phase]

    def phase_pressure(t, x, y):
        p = case.pressure(t, x, y)
        if phase == "v":
            return p + physics.capillary_pressure_v(case.sat_v(t, x, y))[0]
        if phase == "a":
            return p - physics.capillary_pressure_a(case.sat_a(t, x, y))[0]
        return p

    def lam(t, x, y):
        s = physics.SaturationPair(np.asarray(case.sat_a(t, x, y)),
                                   np.asarray(case.sat_v(t, x, y)))
        mob = mobilities(s, f)
        return {"l": mob.lam_l, "v": mob.lam_v, "a": mob.lam_a}[phase]

    def flux(t, x, y, comp):
        # fourth-order central first derivative of the phase pressure
        if comp == 0:
            dp = (-phase_pressure(t, x + 2 * h, y) + 8 * phase_pressure(t, x + h, y)
                  - 8 * phase_pressure(t, x - h, y) + phase_pressure(t, x - 2 * h, y)) / (12 * h)
        else:
            dp = (-phase_pressure(t, x, y + 2 * h) + 8 * phase_pressure(t, x, y + h)
                  - 8 * phase_pressure(t, x, y - h) + phase_pressure(t, x, y - 2 * h)) / (12 * h)
        return kappa * lam(t, x, y) * (dp - rho * g[comp])

    div = (-flux(t, x + 2 * h, y, 0) + 8 * flux(t, x + h, y, 0)
           - 8 * flux(t, x - h, y, 0) + flux(t, x - 2 * h, y, 0)) / (12 * h)
    div += (-flux(t, x, y + 2 * h, 1) + 8 * flux(t, x, y + h, 1)
            - 8 * flux(t, x, y - h, 1) + flux(t, x, y - 2 * h, 1)) / (12 * h)
    return div


@pytest.mark.parametrize("case_fn", [constant_densities_case, gravity_case])
def test_sources_match_fd_expansion(case_fn):
    case = case_fn()
    f = case.fluids
    rng = np.random.default_rng(9)
    h = 1e-4
    for _ in range(6):
        t, x, y = rng.uniform(0.2, 0.8, 3)
        q_l, q_v, q_a = case.source_terms(t, x, y)
        for phase, q, sat in (("l", q_l, None), ("v", q_v, case.sat_v),
                              ("a", q_a, case.sat_a)):
            if phase == "l":
                dsdt = (-(case.sat_a(t + h, x, y) + case.sat_v(t + h, x, y))
                        + (case.sat_a(t - h, x, y) + case.sat_v(t - h, x, y))) / (2 * h)
            else:
                dsdt = (sat(t + h, x, y) - sat(t - h, x, y)) / (2 * h)
            expected = f.porosity * dsdt - _divergence_fd(case, phase, t, x, y)
            assert q == pytest.approx(expected, rel=2e-7, abs=2e-7)


def test_source_total_is_sum():
    case = constant_densities_case()
    rng = np.random.default_rng(1)
    t, x, y = rng.uniform(0, 1, 3)
    q_l, q_v, q_a = case.source_terms(t, x, y)
    assert case.source_total(t, x, y) == pytest.approx(q_l + q_v + q_a, rel=1e-14)


def test_source_total_matches_pressure_equation_oracle():
    # independent symbolic expansion of the summed-equation right side
    import sympy as sp
    from dgflow.manufactured import _T, _X, _Y, _as_expr, PRESSURE_EXPR, \
        SAT_A_EXPR, SAT_V_EXPR
    from dgflow.physics import PCA_SCALE, PCV_SCALE

    case = gravity_case()
    f = case.fluids
    p, sa, sv = (_as_expr(e) for e in (PRESSURE_EXPR, SAT_A_EXPR, SAT_V_EXPR))
    sl = 1 - sa - sv
    lam_l = sl * (sl + sa) * (1 - sa) / f.mu_l
    lam_v = sv**2 / f.mu_v
    lam_a = sa**2 / f.mu_a
    lam_t = lam_l + lam_v + lam_a
    rho_lam_t = f.rho_l * lam_l + f.rho_v * lam_v + f.rho_a * lam_a
    p_cv = PCV_SCALE * sp.log(sp.Float(1.01) - sv)
    p_ca = PCA_SCALE * sp.log(sa + sp.Float(0.01))
    gx, gy = f.gravity

    def div(fx, fy):
        return sp.diff(fx, _X) + sp.diff(fy, _Y)

    q_t = (-div(lam_t * sp.diff(p, _X), lam_t * sp.diff(p, _Y))
           - div(lam_v * sp.diff(p_cv, _X), lam_v * sp.diff(p_cv, _Y))
           + div(lam_a * sp.diff(p_ca, _X), lam_a * sp.diff(p_ca, _Y))
           + div(rho_lam_t * gx, rho_lam_t * gy))
    q_t_fn = sp.lambdify((_T, _X, _Y), q_t, modules="numpy")

    rng = np.random.default_rng(3)
    for _ in range(10):
        t, x, y = rng.uniform(0.1, 0.9, 3)
        assert case.source_total(t, x, y) == pytest.approx(
            float(q_t_fn(t, x, y)), rel=1e-8, abs=1e-8)


def test_constant_fields_give_zero_sources():
    case = ManufacturedCase("steady", FluidProperties(), "2", "1/4", "1/4")
    assert case.source_terms(0.7, 0.3, 0.9) == pytest.approx((0.0, 0.0, 0.0))


def test_neumann_fluxes_against_directional_fd():
    case = gravity_case()
    t, x, y = 0.4, 1.0, 0.6
    n = (1.0, 0.0)
    val = case.neumann("pressure", t, x, y, n)
    assert np.isfinite(val)
    # aqueous flux on the top side with exact data
    val_a = case.neumann("sat_a", t, 0.5, 1.0, (0.0, 1.0))
    f = case.fluids
    s = physics.SaturationPair(np.asarray(case.sat_a(t, 0.5, 1.0)),
                               np.asarray(case.sat_v(t, 0.5, 1.0)))
    lam_a = mobilities(s, f).lam_a
    dpca = physics.capillary_pressure_a(s.s_a)[1]
    grad_sa = case.sat_a_grad(t, 0.5, 1.0)
    grad_p = case.pressure_grad(t, 0.5, 1.0)
    expected = (-lam_a * dpca * grad_sa[1] + lam_a * grad_p[1]
                - f.rho_a * lam_a * f.gravity_vector[1])
    assert val_a == pytest.approx(float(expected), rel=1e-12)
