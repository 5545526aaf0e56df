import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgflow import harness
from dgflow.assembly import NonPositiveCoefficientError
from dgflow.manufactured import ManufacturedCase, gravity_case
from dgflow.harness import (ConfigError, ConvergenceReport, LevelResult,
                            RunConfig, cli_main, convergence_study,
                            emit_report, read_config_file)

from helpers import zero_mobilities


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


def test_gravity_override_builds_the_case_once(monkeypatch):
    builds = []
    init = ManufacturedCase.__init__
    monkeypatch.setattr(ManufacturedCase, "__init__",
                        lambda self, *a, **kw: builds.append(a[0]) or init(self, *a, **kw))
    case = small_config(case="gravity", gravity=(0.0, -0.2)).build_case()
    assert builds == ["gravity"]
    monkeypatch.undo()
    # the named case with its gravity replaced, built apart: the same
    # sources at the same points, bit for bit
    reference = ManufacturedCase(
        "gravity", dataclasses.replace(gravity_case().fluids, gravity=(0.0, -0.2)))
    assert case.fluids == reference.fluids
    x, y = np.random.default_rng(5).uniform(size=(2, 40))
    for name in ("source_total", "source_aqueous", "source_vapor", "source_liquid"):
        assert np.array_equal(getattr(case, name)(0.3, x, y),
                              getattr(reference, name)(0.3, x, y))


def test_named_case_without_override_goes_through_case_by_name(monkeypatch):
    # the benchmark times a ladder's case build by patching this name
    calls = []
    real = harness.case_by_name
    monkeypatch.setattr(harness, "case_by_name", lambda name: calls.append(name) or real(name))
    assert small_config().build_case().name == "constant_densities"
    assert calls == ["constant_densities"]


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


@pytest.mark.parametrize("coarse, fine", [(1e-3, 0.0), (0.0, 1e-3), (0.0, 0.0)])
def test_zero_error_gives_nan_rate(coarse, fine):
    # log2 of x/0 or 0/x has no value; the other unknowns keep their rates
    lv = [LevelResult(0.5, 16, coarse, 2e-3, 3e-3),
          LevelResult(0.25, 64, fine, 1e-3, 3e-3)]
    rep = ConvergenceReport.from_levels("custom", lv)
    assert math.isnan(rep.rates_p[0])
    assert rep.rates_sa == [1.0] and rep.rates_sv == [0.0]


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


def _no_study(monkeypatch):
    def study(config):
        raise AssertionError("the study ran")

    monkeypatch.setattr(harness, "convergence_study", study)


@pytest.mark.parametrize("args", [
    ["--theta", "2"], ["--alpha", "0"], ["--h0", "0"], ["--h0", "0.3"],
    ["--tau-rule", "fixed", "--tau", "0.3"], ["--t-final", "-1"],
    ["--h0", "0.3", "--tau-rule", "fixed", "--tau", "0.05", "--t-final", "0.1",
     "--levels", "3"],
    ["--h0", "0.5", "--t-final", "nan"], ["--h0", "0.5", "--tau-rule", "fixed", "--tau", "inf"],
    ["--alpha", "nan"], ["--alpha", "1,inf,1"], ["--gravity", "nan,0"],
    ["--case", "gravity", "--gravity", "0,-inf"]])
def test_cli_bad_numeric_input_exits_2(args, monkeypatch, capsys):
    # a scheme, fluid or ladder level that cannot be built is a
    # configuration error, found before the study starts
    _no_study(monkeypatch)
    assert cli_main(["--levels", "2", *args]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("pressure, names", [
    ("sqrt(x - 2)", "ladder level 0 (h=0.5): the initial pressure is not finite"),
    ("sqrt(0.3 - t)", "step 0 -> 1: the Dirichlet data of pressure at t=0.5 are not finite")])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_cli_non_finite_field_exits_2(pressure, names, tmp_path, capsys):
    # NaN compares unequal to itself: unchecked, NaN boundary data read as
    # conflicting constraints
    assert cli_main(["--case", "custom", "--pressure-expr", pressure,
                     "--sat-a-expr", "1/4", "--sat-v-expr", "1/4", "--levels", "2",
                     "--h0", "0.5", "--t-final", "0.5",
                     "--out", str(tmp_path / "table.csv")]) == 2
    assert names in capsys.readouterr().err


def test_cli_missing_config_file_exits_2():
    assert cli_main(["--config", "/nonexistent/path.cfg"]) == 2


def test_h0_must_halve_the_meshes():
    # 1/0.3 is not whole: the meshes would be 3x3, 7x7, 13x13
    with pytest.raises(ConfigError, match=r"h0 = 0.3 .* nearest is 1/3$"):
        small_config(h0=0.3, tau_rule="fixed", tau=0.05, t_final=0.1, levels=3)
    assert small_config(h0=1 / 3, tau_rule="fixed", tau=0.05, t_final=0.1).level(1)[1] == 6


def test_cli_missing_output_directory_exits_2_before_the_study(tmp_path, monkeypatch,
                                                               capsys):
    _no_study(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    assert cli_main(["--levels", "2", "--h0", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_output_naming_a_directory_exits_2_before_the_study(tmp_path, monkeypatch,
                                                                capsys):
    _no_study(monkeypatch)
    (tmp_path / "table.csv").mkdir()
    assert cli_main(["--levels", "2", "--h0", "0.5", "--out", str(tmp_path / "table.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path / 'table.csv'}: it is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    assert list((tmp_path / "table.csv").iterdir()) == []


def test_cli_exact_zero_error_writes_nan_rate(tmp_path, capsys):
    # pressure 0 is exact on every mesh, so its error is 0.0 on both levels
    out = tmp_path / "zero.csv"
    assert cli_main(["--case", "custom", "--pressure-expr", "0", "--sat-a-expr", "1/4",
                     "--sat-v-expr", "1/2", "--levels", "2", "--h0", "0.5",
                     "--t-final", "0", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[2][2:4] == ["0.000000e+00", "nan"]
    assert "pressure nan" in capsys.readouterr().out


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


def _python_m(module, *args, flags=()):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_dgflow_runs_the_cli():
    done = _python_m("dgflow", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: dgflow")


def test_python_m_dgflow_harness_runs_the_cli():
    done = _python_m("dgflow.harness", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: dgflow")


def test_coefficient_error_names_level_and_step(monkeypatch, tmp_path):
    zero_mobilities(monkeypatch)
    with pytest.raises(NonPositiveCoefficientError,
                       match=r"^ladder level 0 \(h=0.5\): step 0 -> 1: non-positive"):
        convergence_study(small_config())
    assert cli_main(["--case", "constant_densities", "--levels", "2", "--h0", "0.5",
                     "--out", str(tmp_path / "t.csv")]) == 1


def test_python_m_dgflow_harness_runs_the_module_once():
    # the package imports the harness only on first use of one of its names,
    # so runpy finds no earlier copy of the module (which it warns about)
    done = _python_m("dgflow.harness", "--help", flags=("-W", "error::RuntimeWarning"))
    assert done.returncode == 0, done.stderr


def test_package_serves_harness_names_lazily():
    import dgflow
    from dgflow import convergence_study as study
    assert study is harness.convergence_study
    assert dgflow.RunConfig is harness.RunConfig
    with pytest.raises(AttributeError):
        dgflow.no_such_name


def test_python_m_dgflow_harness_unknown_case_exits_2():
    done = _python_m("dgflow.harness", "--case", "starship")
    assert done.returncode == 2
    assert "starship" in done.stderr


def test_python_m_dgflow_forbidden_name_exits_2():
    done = _python_m("dgflow", "--case", "custom", "--pressure-expr", "open('x')",
                     "--sat-a-expr", "1/4", "--sat-v-expr", "1/4")
    assert done.returncode == 2
    assert "not allowed" in done.stderr


# -- config-file parser properties ----------------------------------------------

KEY = st.from_regex(r"[a-z][a-z0-9]*([-_][a-z0-9]+)*", fullmatch=True)
# values hold no comment sign and no line break; surrounding blanks are stripped
VALUE = st.text(st.characters(blacklist_characters="#\n\r", blacklist_categories=("Cs",)),
                max_size=20).map(str.strip)
BLANK = st.sampled_from(["", " ", "\t", "  "])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(KEY, VALUE, BLANK, BLANK, st.booleans()),
                unique_by=lambda item: item[0].replace("-", "_"), max_size=8),
       st.lists(st.sampled_from(["", "   ", "# a comment", "  # key = value"]),
                max_size=4))
def test_config_file_round_trip(tmp_path, items, filler):
    lines = list(filler)
    for key, value, pad1, pad2, comment in items:
        lines.append(f"{pad1}{key}{pad2}={pad1}{value}{pad2}"
                     + ("  # trailing = comment" if comment else ""))
        lines.extend(filler[:1])
    path = tmp_path / "study.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = {key.replace("-", "_"): value for key, value, *_ in items}
    assert read_config_file(str(path)) == expected


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(["", "# note", "levels = 2"]), max_size=5),
       st.from_regex(r"[a-z][a-z ]*", fullmatch=True))
def test_config_file_line_without_equals_names_its_line(tmp_path, before, words):
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(before + [words]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:{len(before) + 1}:"):
        read_config_file(str(path))


KNOWN_KEYS = ("case", "levels", "h0", "tau_rule", "tau", "t_final", "theta",
              "alpha", "gravity", "out", "fmt", "format", "pressure_expr",
              "sat_a_expr", "sat_v_expr")
# letters that cannot spell a number, "inf" or "nan"
JUNK = st.text("qwxz", min_size=1, max_size=6)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    KEY.filter(lambda k: k.replace("-", "_") not in KNOWN_KEYS).map(lambda k: (k, "1")),
    st.tuples(st.sampled_from(["levels", "h0", "tau", "t-final", "theta",
                               "alpha", "gravity"]), JUNK),
    st.tuples(st.sampled_from(["case", "tau-rule", "format"]), JUNK)))
def test_config_file_bad_key_or_value_exits_2(tmp_path, item):
    key, value = item
    path = tmp_path / "study.cfg"
    path.write_text(f"levels = 2\nh0 = 0.5\n{key} = {value}\n", encoding="utf-8")
    assert cli_main(["--config", str(path)]) == 2
