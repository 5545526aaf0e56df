"""Convergence-study driver, report emission and the command line.

Runs a mesh/time refinement ladder for a named scenario, collects the
final-time L2 errors per unknown, computes observed orders between
consecutive levels and writes the table as CSV or markdown.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, replace

from . import solver
from .assembly import SchemeConfig
from .manufactured import (UNKNOWNS, ExpressionError, ManufacturedCase,
                           case_by_name, case_fluids, parse_expression)
from .mesh import build_uniform_mesh
from .physics import FluidProperties
from .solver import TimeConfig

KNOWN_CASES = ("constant_densities", "gravity", "custom")
TAU_RULES = ("h", "h2", "fixed")


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One convergence study: scenario, scheme switches and the ladder."""

    case: str = "constant_densities"
    levels: int = 5
    h0: float = 0.25
    tau_rule: str = "h"
    tau: float | None = None          # only for tau_rule == "fixed"
    t_final: float = 1.0
    theta: tuple[int, int, int] = (1, 1, 1)
    alpha: tuple[float, float, float] = (1.0, 1.0, 1.0)
    gravity: tuple[float, float] | None = None
    out: str | None = None
    fmt: str = "csv"
    pressure_expr: str | None = None  # custom case only
    sat_a_expr: str | None = None
    sat_v_expr: str | None = None

    def __post_init__(self):
        if self.case not in KNOWN_CASES:
            raise ConfigError(f"unknown case {self.case!r}; known: {KNOWN_CASES}")
        if not (isinstance(self.levels, numbers.Integral) and self.levels >= 2):
            raise ConfigError(f"need a whole number of at least two ladder levels for "
                              f"rates, got {self.levels!r}")
        if self.tau_rule not in TAU_RULES:
            raise ConfigError(f"unknown tau rule {self.tau_rule!r}")
        if self.tau_rule == "fixed" and not self.tau:
            raise ConfigError("tau_rule 'fixed' needs an explicit tau")
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}")
        exprs = {u + "_expr": getattr(self, u + "_expr") for u in UNKNOWNS}
        if self.case == "custom" and not all(exprs.values()):
            raise ConfigError("custom case needs pressure/sat_a/sat_v expressions")
        for name, text in exprs.items():
            if text is not None:
                try:
                    parse_expression(text)
                except ExpressionError as exc:
                    raise ConfigError(f"{name}: {exc}") from None
        if not self.h0 > 0:
            raise ConfigError(f"h0 must be positive, got {self.h0}")
        try:
            self.scheme()
            self.fluids()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for level in range(self.levels):
            try:
                self.level(level)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"ladder level {level}: {exc}") from None

    def level(self, level: int) -> tuple[float, int, TimeConfig]:
        """Mesh size ``h``, elements per side and time partition of one
        ladder level."""
        h = self.h0 / 2**level
        n = round(1.0 / h)
        if not math.isclose(n * h, 1.0, rel_tol=1e-12):   # the rates need halving meshes
            raise ValueError(f"h0 = {self.h0} is not 1/n for a whole n; the nearest is "
                             f"1/{max(1, round(1.0 / self.h0))}")
        tau = {"h": h, "h2": h * h, "fixed": self.tau}[self.tau_rule]
        return h, n, TimeConfig.from_step(tau, self.t_final)

    def scheme(self) -> SchemeConfig:
        # SchemeConfig's fields: theta_p, theta_a, theta_v, alpha_p, alpha_a, alpha_v
        return SchemeConfig(*self.theta, *self.alpha)

    def fluids(self) -> FluidProperties:
        fluids = FluidProperties() if self.case == "custom" else case_fluids(self.case)
        return fluids if self.gravity is None else replace(fluids, gravity=tuple(self.gravity))

    def build_case(self) -> ManufacturedCase:
        if self.case == "custom":
            return ManufacturedCase("custom", self.fluids(), self.pressure_expr,
                                    self.sat_a_expr, self.sat_v_expr)
        if self.gravity is None:
            return case_by_name(self.case)
        return ManufacturedCase(self.case, self.fluids())


#: the unknowns' suffixes of ``LevelResult.err_*`` and ``ConvergenceReport.rates_*``
_KEYS = ("p", "sa", "sv")


@dataclass(frozen=True)
class LevelResult:
    h: float
    dofs: int
    err_p: float
    err_sa: float
    err_sv: float


@dataclass
class ConvergenceReport:
    """Ladder results plus observed orders between consecutive levels."""

    case: str
    levels: list[LevelResult] = field(default_factory=list)
    rates_p: list[float] = field(default_factory=list)
    rates_sa: list[float] = field(default_factory=list)
    rates_sv: list[float] = field(default_factory=list)

    @classmethod
    def from_levels(cls, case: str, levels: list[LevelResult]) -> "ConvergenceReport":
        rep = cls(case, levels)
        for key in _KEYS:
            errs = [getattr(lvl, "err_" + key) for lvl in levels]
            getattr(rep, "rates_" + key).extend(   # no rate from a zero error
                math.log2(coarse / fine) if coarse > 0 and fine > 0 else math.nan
                for coarse, fine in zip(errs, errs[1:]))
        return rep


def convergence_study(config: RunConfig) -> ConvergenceReport:
    """Run the refinement ladder and collect errors and rates."""
    case = config.build_case()
    scheme = config.scheme()
    results = []
    for level in range(config.levels):
        h, nx, time = config.level(level)
        mesh = build_uniform_mesh(nx, nx)
        try:
            _, err = solver.run(case, mesh, time, scheme)
        except solver.STEP_ERRORS as exc:
            raise type(exc)(f"ladder level {level} (h={h}): {exc}") from exc
        results.append(LevelResult(h=mesh.dx, dofs=4 * mesh.n_elements,
                                   err_p=err.l2_pressure, err_sa=err.l2_sat_a,
                                   err_sv=err.l2_sat_v))
    return ConvergenceReport.from_levels(config.case, results)


def emit_report(report: ConvergenceReport, path: str, fmt: str = "csv") -> str:
    """Write the report to ``path`` as CSV or a markdown table."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMATS[fmt][1](report))
    return path


def _rows(report: ConvergenceReport, rate_format: str, no_rate: str):
    """The cells of each level's row: h, DOFs, then each unknown's error and
    its rate from the coarser level (``no_rate`` on the first row)."""
    for i, lvl in enumerate(report.levels):
        cells = [f"{lvl.h:.8g}", str(lvl.dofs)]
        for key in _KEYS:
            rates = getattr(report, "rates_" + key)
            cells += [f"{getattr(lvl, 'err_' + key):.6e}",
                      format(rates[i - 1], rate_format) if i else no_rate]
        yield cells


def _to_csv(report: ConvergenceReport) -> str:
    lines = ["h,dofs,err_p,rate_p,err_sa,rate_sa,err_sv,rate_sv"]
    lines += [",".join(cells) for cells in _rows(report, ".4f", "")]
    return "\n".join(lines) + "\n"


def _to_markdown(report: ConvergenceReport) -> str:
    head = ("| h | DOFs | pressure error | rate | aqueous error | rate "
            "| vapor error | rate |")
    sep = "|---" * 8 + "|"
    lines = [head, sep] + [f"| {' | '.join(cells)} |"
                           for cells in _rows(report, ".2f", "-")]
    return "\n".join(lines) + "\n"


#: report formats: the default file suffix and the writer
FORMATS = {"csv": ("csv", _to_csv), "markdown": ("md", _to_markdown)}


# -- CLI ----------------------------------------------------------------------

def _parse_values(text, kind, n):
    """``n`` comma-separated values of ``kind``; one value stands for all
    of a triple."""
    parts = [kind(p) for p in str(text).split(",")]
    if n == 3 and len(parts) == 1:
        parts = parts * 3
    if len(parts) != n:
        counts = "one or three" if n == 3 else "two"
        raise ConfigError(f"expected {counts} comma-separated values, got {text!r}")
    return tuple(parts)


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` pairs; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


#: every study option: the :class:`RunConfig` field, the converter of its
#: flag or config-file text, and the choices the flag lists.  The flag is
#: the field with '-' for '_' (``fmt`` is ``--format``, and ``format`` in a
#: config file).
_OPTIONS = {
    "case": (str, KNOWN_CASES), "levels": (int, None), "h0": (float, None),
    "tau_rule": (str, TAU_RULES), "tau": (float, None), "t_final": (float, None),
    "theta": (lambda v: _parse_values(v, int, 3), None),
    "alpha": (lambda v: _parse_values(v, float, 3), None),
    "gravity": (lambda v: _parse_values(v, float, 2), None), "out": (str, None),
    "fmt": (str, tuple(FORMATS)), "pressure_expr": (str, None),
    "sat_a_expr": (str, None), "sat_v_expr": (str, None),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dgflow",
        description="Run a mesh/time refinement study for the three-phase "
                    "DG scheme and emit the error table.")
    for key, (_, choices) in _OPTIONS.items():
        flag = "format" if key == "fmt" else key.replace("_", "-")
        p.add_argument("--" + flag, dest=key, choices=choices)
    p.add_argument("--config", help="flat key=value file; flags override")
    return p


def _config_from_args(args) -> RunConfig:
    raw = read_config_file(args.config) if args.config else {}
    raw.update((key, getattr(args, key)) for key in _OPTIONS
               if getattr(args, key) is not None)
    kwargs = {}
    for key, val in raw.items():
        key = "fmt" if key == "format" else key
        if key not in _OPTIONS:
            raise ConfigError(f"unknown configuration key {key!r}")
        kwargs[key] = _OPTIONS[key][0](val)
    return RunConfig(**kwargs)


def cli_main(argv=None) -> int:
    """Entry point; exit code 0 on success, 1 on solver failure, 2 on
    configuration errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = config.out or f"{config.case}_{config.tau_rule}.{FORMATS[config.fmt][0]}"
    folder = os.path.dirname(os.path.abspath(out))
    writable = os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
    if os.path.isdir(out) or not writable:
        why = "it is a directory" if writable else f"{folder} is not a writable directory"
        print(f"error: cannot write {out}: {why}", file=sys.stderr)
        return 2
    try:
        report = convergence_study(config)
    except ExpressionError as exc:   # a field the case build or the scheme rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except solver.STEP_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    emit_report(report, out, config.fmt)
    last = (report.rates_p[-1], report.rates_sa[-1], report.rates_sv[-1])
    print(f"wrote {out}; finest-pair rates: pressure {last[0]:.2f}, "
          f"aqueous {last[1]:.2f}, vapor {last[2]:.2f}")
    return 0


def main():  # console-script entry point
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
