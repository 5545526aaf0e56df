import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dgflow.harness import (ConfigError, ConvergenceReport, LevelResult,
                            RunConfig, cli_main, convergence_study,
                            emit_report, read_config_file)


def small_config(**over):
    kwargs = dict(case="constant_densities", levels=2, h0=0.5, tau_rule="h",
                  t_final=0.5)
    kwargs.update(over)
    return RunConfig(**kwargs)


@pytest.fixture(scope="module")
def small_report():
    return convergence_study(small_config())


# -- configuration -------------------------------------------------------------

def test_unknown_case_rejected():
    with pytest.raises(ConfigError):
        RunConfig(case="warp_drive")


def test_single_level_rejected():
    with pytest.raises(ConfigError):
        RunConfig(levels=1)


def test_fixed_rule_needs_tau():
    with pytest.raises(ConfigError):
        RunConfig(tau_rule="fixed")
    RunConfig(tau_rule="fixed", tau=0.125)  # fine


def test_custom_case_needs_expressions():
    with pytest.raises(ConfigError):
        RunConfig(case="custom")
    cfg = RunConfig(case="custom", pressure_expr="2", sat_a_expr="1/4",
                    sat_v_expr="1/4")
    assert cfg.build_case().name == "custom"


def test_gravity_override_feeds_fluids():
    cfg = small_config(gravity=(0.0, -0.05))
    case = cfg.build_case()
    assert case.fluids.gravity == (0.0, -0.05)


# -- study results ----------------------------------------------------------------

def test_report_shape(small_report):
    rep = small_report
    assert len(rep.levels) == 2
    assert len(rep.rates_p) == len(rep.rates_sa) == len(rep.rates_sv) == 1
    assert rep.levels[0].dofs == 16
    assert rep.levels[1].dofs == 64  # quadruples per level


def test_rates_match_independent_log_ratio(small_report):
    rep = small_report
    for rate_list, get in ((rep.rates_p, lambda r: r.err_p),
                           (rep.rates_sa, lambda r: r.err_sa),
                           (rep.rates_sv, lambda r: r.err_sv)):
        for i, rate in enumerate(rate_list):
            expected = math.log2(get(rep.levels[i]) / get(rep.levels[i + 1]))
            assert rate == expected  # bitwise: same expression


def test_identical_errors_give_zero_rate():
    lv = [LevelResult(0.5, 16, 1e-3, 2e-3, 3e-3),
          LevelResult(0.25, 64, 1e-3, 2e-3, 3e-3)]
    rep = ConvergenceReport.from_levels("constant_densities", lv)
    assert rep.rates_p == [0.0]


# -- emission ----------------------------------------------------------------------

def test_csv_round_trip(tmp_path, small_report):
    import csv
    path = tmp_path / "out.csv"
    emit_report(small_report, str(path), "csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["h", "dofs", "err_p", "rate_p", "err_sa", "rate_sa",
                       "err_sv", "rate_sv"]
    assert len(rows) == 3
    assert rows[1][3] == ""  # first-row rates empty
    assert float(rows[2][2]) == pytest.approx(small_report.levels[1].err_p,
                                              rel=1e-5)
    # numeric-only cells: no quoting required anywhere
    assert all('"' not in ",".join(r) for r in rows)


def test_markdown_table_shape(tmp_path, small_report):
    path = tmp_path / "out.md"
    emit_report(small_report, str(path), "markdown")
    lines = path.read_text().strip().splitlines()
    assert lines[0].count("|") == 9  # three two-column unknown groups + h, DOFs
    assert len(lines) == 2 + len(small_report.levels)


def test_emission_deterministic(tmp_path, small_report):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(small_report, str(p1), "csv")
    emit_report(small_report, str(p2), "csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_end_to_end_byte_determinism(tmp_path):
    # two independent studies from the same config produce identical bytes
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(convergence_study(small_config()), str(p1), "csv")
    emit_report(convergence_study(small_config()), str(p2), "csv")
    assert p1.read_bytes() == p2.read_bytes()


# -- config file and CLI --------------------------------------------------------

def test_config_file_parsing(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("""
# ladder settings
case = constant_densities
levels = 2
h0 = 0.5          # coarse start
tau-rule = h
t_final = 0.5
theta = 1,1,1
alpha = 1.0
""")
    raw = read_config_file(str(path))
    assert raw["case"] == "constant_densities"
    assert raw["tau_rule"] == "h"
    assert raw["levels"] == "2"


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError):
        read_config_file(str(path))


def test_cli_unknown_case_exits_2(capsys):
    assert cli_main(["--case", "starship"]) == 2


def test_cli_bad_levels_exit_2():
    assert cli_main(["--case", "constant_densities", "--levels", "1"]) == 2


def test_cli_missing_config_file_exits_2():
    assert cli_main(["--config", "/nonexistent/path.cfg"]) == 2


def test_cli_small_run(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli_main(["--case", "constant_densities", "--levels", "2",
                     "--h0", "0.5", "--tau-rule", "h", "--t-final", "0.5",
                     "--out", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "rates" in captured.out


def test_cli_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("case = gravity\nlevels = 2\nh0 = 0.5\n"
                       "tau-rule = h\nt_final = 0.5\n")
    out = tmp_path / "o.csv"
    code = cli_main(["--config", str(cfgfile), "--case", "constant_densities",
                     "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("h,dofs")


def _python_m_dgflow(*args):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dgflow", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_dgflow_runs_the_cli():
    done = _python_m_dgflow("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: dgflow")


def test_python_m_dgflow_forbidden_name_exits_2():
    done = _python_m_dgflow("--case", "custom", "--pressure-expr", "open('x')",
                            "--sat-a-expr", "1/4", "--sat-v-expr", "1/4")
    assert done.returncode == 2
    assert "not allowed" in done.stderr
