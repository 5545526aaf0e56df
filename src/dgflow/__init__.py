"""Interior-penalty DG solver for incompressible three-phase porous-media flow."""

from .mesh import Mesh, Face, Element, build_uniform_mesh, refine
from .dg_core import (DGField, QuadratureRule, jump, weighted_average,
                      l2_project, l2_error, coercivity_norm, star_norm)
from .physics import (FluidProperties, SaturationPair, clamp, mobilities,
                      relative_permeabilities, capillary_pressure_a,
                      capillary_pressure_v)
from .manufactured import (ManufacturedCase, constant_densities_case,
                           gravity_case, case_by_name)
from .assembly import (SchemeConfig, LinearSystem, RTField, harmonic_penalty,
                       assemble_pressure, assemble_aqueous, assemble_vapor,
                       rt0_project, upwind_value, apply_dirichlet,
                       check_coercivity_threshold)
from .solver import (PhaseState, TimeConfig, ErrorReport, solve_linear,
                     initialize, advance, run)

__version__ = "0.1.0"

#: names served from ``dgflow.harness`` on first use, so that importing the
#: package does not import the module ``python -m dgflow.harness`` runs
_HARNESS_NAMES = ("RunConfig", "ConvergenceReport", "convergence_study",
                  "emit_report", "cli_main")


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
