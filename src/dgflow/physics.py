"""Closure laws for the liquid/vapor/aqueous system.

Relative permeabilities, mobilities, capillary pressures with analytic
derivatives, and the saturation cutoff that keeps every coefficient
strictly positive no matter what the discrete saturations do.  All
functions are plain numpy ufunc compositions and broadcast over arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ln(0.01) < 0, so both capillary scale factors below are negative.
_LN: float = float(np.log(0.01))
PCV_SCALE: float = 3.9 / _LN
PCA_SCALE: float = 6.3 / _LN

#: cutoff half-width for saturations fed into the closures
SAT_EPS: float = 1e-3


class CapillaryDomainError(ValueError):
    """Capillary-pressure argument outside the function's domain."""


@dataclass(frozen=True)
class FluidProperties:
    """Constant fluid and rock data.

    Viscosities are constant per phase (the general pressure/saturation
    dependence is not instantiated here); densities are constant
    (incompressible phases); ``permeability`` is one scalar for the whole
    domain.  Defaults match the verification scenarios shipped with the
    package.
    """

    mu_l: float = 0.75
    mu_v: float = 0.25
    mu_a: float = 0.5
    rho_l: float = 3.0
    rho_v: float = 1.0
    rho_a: float = 5.0
    porosity: float = 0.2
    permeability: float = 1.0
    gravity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if np.ndim(self.permeability) != 0:
            raise ValueError("permeability must be a scalar")
        # one field at a time: min() of values with a NaN depends on their order
        for name in ("mu_l", "mu_v", "mu_a", "permeability", "rho_l", "rho_v", "rho_a", "gravity"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("mu_l", "mu_v", "mu_a", "permeability"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not (0.0 < self.porosity <= 1.0):
            raise ValueError("porosity must lie in (0, 1]")

    @property
    def gravity_vector(self) -> np.ndarray:
        return np.asarray(self.gravity, dtype=float)


@dataclass(frozen=True)
class SaturationPair:
    """Aqueous/vapor saturations with the derived liquid saturation."""

    s_a: np.ndarray
    s_v: np.ndarray
    s_l: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "s_l", 1.0 - self.s_a - self.s_v)


def clamp(s_raw_a, s_raw_v) -> SaturationPair:
    """Cut saturations off to [SAT_EPS, 1-SAT_EPS] before coefficient evaluation.

    The derived liquid saturation is recomputed afterwards and may fall
    outside [0, 1]; the liquid relative permeability is floored at zero to
    compensate.  Stored solution fields are never clamped, only the values
    entering the closures.
    """
    s_a = np.clip(np.asarray(s_raw_a, dtype=float), SAT_EPS, 1.0 - SAT_EPS)
    s_v = np.clip(np.asarray(s_raw_v, dtype=float), SAT_EPS, 1.0 - SAT_EPS)
    return SaturationPair(s_a, s_v)


def relative_permeabilities(s: SaturationPair, floor: bool = True):
    """Quadratic-type relative permeabilities (k_rl, k_rv, k_ra).

    k_rl = s_l (s_l + s_a)(1 - s_a), floored at zero for unphysical s_l
    unless ``floor`` is false; k_rv = s_v^2; k_ra = s_a^2.
    """
    k_rl = s.s_l * (s.s_l + s.s_a) * (1.0 - s.s_a)
    return np.maximum(k_rl, 0.0) if floor else k_rl, s.s_v**2, s.s_a**2


@dataclass(frozen=True)
class Mobilities:
    lam_l: np.ndarray
    lam_v: np.ndarray
    lam_a: np.ndarray
    lam_t: np.ndarray
    rho_lam_t: np.ndarray


def mobilities(s: SaturationPair, fluids: FluidProperties, floor: bool = True) -> Mobilities:
    """Phase mobilities k_r/mu plus total and density-weighted totals."""
    k_rl, k_rv, k_ra = relative_permeabilities(s, floor)
    lam_l = k_rl / fluids.mu_l
    lam_v = k_rv / fluids.mu_v
    lam_a = k_ra / fluids.mu_a
    return Mobilities(
        lam_l=lam_l, lam_v=lam_v, lam_a=lam_a,
        lam_t=lam_l + lam_v + lam_a,
        rho_lam_t=fluids.rho_l * lam_l + fluids.rho_v * lam_v + fluids.rho_a * lam_a,
    )


def capillary_pressure_v(s_v):
    """Vapor capillary pressure and its (positive) saturation derivative."""
    s_v = np.asarray(s_v, dtype=float)
    arg = 1.01 - s_v
    if np.any(arg <= 0.0):
        raise CapillaryDomainError("vapor capillary pressure needs s_v < 1.01")
    return PCV_SCALE * np.log(arg), -PCV_SCALE / arg


def capillary_pressure_a(s_a):
    """Aqueous capillary pressure, its (negative) derivative, and the
    positive part used as the aqueous diffusion coefficient."""
    s_a = np.asarray(s_a, dtype=float)
    arg = s_a + 0.01
    if np.any(arg <= 0.0):
        raise CapillaryDomainError("aqueous capillary pressure needs s_a > -0.01")
    deriv = PCA_SCALE / arg
    return PCA_SCALE * np.log(arg), deriv, -deriv


def capillary_derivatives(s_a, s_v):
    """``(p_ca', p_ca'', p_cv', p_cv'')``: the capillary pressures' first and
    second saturation derivatives, with no domain check."""
    dpca, dpcv = PCA_SCALE / (s_a + 0.01), -PCV_SCALE / (1.01 - s_v)
    return dpca, -dpca / (s_a + 0.01), dpcv, dpcv / (1.01 - s_v)


@dataclass(frozen=True)
class MobilityPartials:
    """Analytic partial derivatives of the mobilities, unfloored."""

    dlam_l_dsa: np.ndarray
    dlam_l_dsv: np.ndarray
    dlam_v_dsv: np.ndarray
    dlam_a_dsa: np.ndarray


def mobility_partials(s: SaturationPair, fluids: FluidProperties) -> MobilityPartials:
    # d/ds_a [s_l (s_l+s_a)(1-s_a)] with ds_l/ds_a = -1
    dkrl_dsa = -(s.s_l + s.s_a) * (1.0 - s.s_a + s.s_l)
    dkrl_dsv = -(1.0 - s.s_a) * (2.0 * s.s_l + s.s_a)
    return MobilityPartials(
        dlam_l_dsa=dkrl_dsa / fluids.mu_l,
        dlam_l_dsv=dkrl_dsv / fluids.mu_l,
        dlam_v_dsv=2.0 * s.s_v / fluids.mu_v,
        dlam_a_dsa=2.0 * s.s_a / fluids.mu_a,
    )
