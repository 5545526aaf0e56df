"""Convergence-study driver, report emission and the command line.

Runs a mesh/time refinement ladder for a named scenario, collects the
final-time L2 errors per unknown, computes observed orders between
consecutive levels and writes the table as CSV or markdown.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

from . import solver
from .assembly import SchemeConfig
from .manufactured import (ExpressionError, ManufacturedCase, case_by_name,
                           parse_expression)
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
        if self.levels < 2:
            raise ConfigError("need at least two ladder levels for rates")
        if self.tau_rule not in TAU_RULES:
            raise ConfigError(f"unknown tau rule {self.tau_rule!r}")
        if self.tau_rule == "fixed" and not self.tau:
            raise ConfigError("tau_rule 'fixed' needs an explicit tau")
        if self.fmt not in ("csv", "markdown"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.case == "custom" and not (
                self.pressure_expr and self.sat_a_expr and self.sat_v_expr):
            raise ConfigError("custom case needs pressure/sat_a/sat_v expressions")
        for name in ("pressure_expr", "sat_a_expr", "sat_v_expr"):
            text = getattr(self, name)
            if text is not None:
                try:
                    parse_expression(text)
                except ExpressionError as exc:
                    raise ConfigError(f"{name}: {exc}") from None
        if not self.h0 > 0:
            raise ConfigError(f"h0 must be positive, got {self.h0}")
        try:
            self.scheme()
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
        tau = {"h": h, "h2": h * h, "fixed": self.tau}[self.tau_rule]
        return h, max(1, round(1.0 / h)), TimeConfig.from_step(tau, self.t_final)

    def scheme(self) -> SchemeConfig:
        return SchemeConfig(theta_p=self.theta[0], theta_a=self.theta[1],
                            theta_v=self.theta[2], alpha_p=self.alpha[0],
                            alpha_a=self.alpha[1], alpha_v=self.alpha[2])

    def build_case(self) -> ManufacturedCase:
        if self.case == "custom":
            fluids = FluidProperties(gravity=self.gravity or (0.0, 0.0))
            return ManufacturedCase("custom", fluids, self.pressure_expr,
                                    self.sat_a_expr, self.sat_v_expr)
        case = case_by_name(self.case)
        if self.gravity is not None:
            fluids = replace(case.fluids, gravity=tuple(self.gravity))
            case = ManufacturedCase(case.name, fluids)
        return case


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
        for get, rates in ((lambda r: r.err_p, rep.rates_p),
                           (lambda r: r.err_sa, rep.rates_sa),
                           (lambda r: r.err_sv, rep.rates_sv)):
            for coarse, fine in zip(levels, levels[1:]):
                rates.append(math.log2(get(coarse) / get(fine)))
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
    if fmt == "csv":
        text = _to_csv(report)
    elif fmt == "markdown":
        text = _to_markdown(report)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _fmt_err(e: float) -> str:
    return f"{e:.6e}"


def _to_csv(report: ConvergenceReport) -> str:
    lines = ["h,dofs,err_p,rate_p,err_sa,rate_sa,err_sv,rate_sv"]
    for i, lvl in enumerate(report.levels):
        rates = ("", "", "") if i == 0 else tuple(
            f"{r[i - 1]:.4f}" for r in (report.rates_p, report.rates_sa,
                                        report.rates_sv))
        lines.append(",".join([
            f"{lvl.h:.8g}", str(lvl.dofs),
            _fmt_err(lvl.err_p), rates[0],
            _fmt_err(lvl.err_sa), rates[1],
            _fmt_err(lvl.err_sv), rates[2],
        ]))
    return "\n".join(lines) + "\n"


def _to_markdown(report: ConvergenceReport) -> str:
    head = ("| h | DOFs | pressure error | rate | aqueous error | rate "
            "| vapor error | rate |")
    sep = "|---" * 8 + "|"
    lines = [head, sep]
    for i, lvl in enumerate(report.levels):
        rates = ("-", "-", "-") if i == 0 else tuple(
            f"{r[i - 1]:.2f}" for r in (report.rates_p, report.rates_sa,
                                        report.rates_sv))
        lines.append(
            f"| {lvl.h:.8g} | {lvl.dofs} "
            f"| {_fmt_err(lvl.err_p)} | {rates[0]} "
            f"| {_fmt_err(lvl.err_sa)} | {rates[1]} "
            f"| {_fmt_err(lvl.err_sv)} | {rates[2]} |")
    return "\n".join(lines) + "\n"


# -- CLI ----------------------------------------------------------------------

def _parse_triple(text, kind):
    parts = [kind(p) for p in str(text).split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ConfigError(f"expected one or three comma-separated values, got {text!r}")
    return tuple(parts)


def _parse_pair(text):
    parts = [float(p) for p in str(text).split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated values, got {text!r}")
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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dgflow",
        description="Run a mesh/time refinement study for the three-phase "
                    "DG scheme and emit the error table.")
    p.add_argument("--case", choices=KNOWN_CASES)
    p.add_argument("--levels", type=int)
    p.add_argument("--h0", type=float)
    p.add_argument("--tau-rule", choices=TAU_RULES)
    p.add_argument("--tau", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--theta")
    p.add_argument("--alpha")
    p.add_argument("--gravity")
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=("csv", "markdown"))
    p.add_argument("--pressure-expr")
    p.add_argument("--sat-a-expr")
    p.add_argument("--sat-v-expr")
    p.add_argument("--config", help="flat key=value file; flags override")
    return p


def _config_from_args(args) -> RunConfig:
    raw = {}
    if args.config:
        raw.update(read_config_file(args.config))
    for key in ("case", "levels", "h0", "tau_rule", "tau", "t_final", "theta",
                "alpha", "gravity", "out", "fmt", "pressure_expr",
                "sat_a_expr", "sat_v_expr"):
        val = getattr(args, key)
        if val is not None:
            raw[key] = val
    kwargs = {}
    for key, val in raw.items():
        if key == "format":
            key = "fmt"
        if key in ("levels",):
            kwargs[key] = int(val)
        elif key in ("h0", "tau", "t_final"):
            kwargs[key] = float(val)
        elif key == "theta":
            kwargs[key] = _parse_triple(val, int)
        elif key == "alpha":
            kwargs[key] = _parse_triple(val, float)
        elif key == "gravity":
            kwargs[key] = _parse_pair(val)
        elif key in ("case", "tau_rule", "out", "fmt", "pressure_expr",
                     "sat_a_expr", "sat_v_expr"):
            kwargs[key] = str(val)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
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
    try:
        report = convergence_study(config)
    except solver.STEP_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    out = config.out or f"{config.case}_{config.tau_rule}.{'md' if config.fmt == 'markdown' else 'csv'}"
    emit_report(report, out, config.fmt)
    last = (report.rates_p[-1], report.rates_sa[-1], report.rates_sv[-1])
    print(f"wrote {out}; finest-pair rates: pressure {last[0]:.2f}, "
          f"aqueous {last[1]:.2f}, vapor {last[2]:.2f}")
    return 0


def main():  # console-script entry point
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
