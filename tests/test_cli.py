"""CLI: config loading, subcommands, export schemas, exit codes."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import types
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import yaml

import robinstrip
from robinstrip import load_config, modematch, read_wavefunction
from robinstrip.cli import build_parser, main
from robinstrip.errors import ConfigError
from robinstrip.outputs import CSV_HEADER

PUBLIC = {
    "BoundState", "BumpProfile", "ConfigError", "ContractError",
    "ConvergenceError", "NumericalError", "ParitySector", "QReport", "RobinCrossSection",
    "RobinStripError", "RunConfig", "SweepResult", "SweepRow", "WavefunctionGrid",
    "WellConfig", "bound_state_energies", "existence_test", "load_config",
    "matching_residual", "minimax_brackets", "oracle_bound_states", "overlap_matrix",
    "q_form", "read_wavefunction", "sweep_csv", "transversal_eigenvalues",
    "transversal_levels", "wavefunction", "write_sweep_csv", "write_sweep_json",
    "write_sweep_svg", "write_wavefunction",
}
# importable from their modules, not from the package
UNEXPORTED = [
    ("transverse", "dispersion"), ("variational", "trial_scale"),
    ("config", "MatchingParams"),
    ("config", "OracleSpec"), ("config", "OutputSpec"), ("config", "SweepSpec"),
    ("fdoracle", "FdGrid"), ("fdoracle", "make_grid"), ("fdoracle", "assemble"),
    ("fdoracle", "lowest_eigenpairs"),
]

BASE_YAML = """\
well:
  alpha0: 20.0
  alpha1: 5.0
  a: 0.3
  d: 1.0
matching:
  N: 16
"""
# Every config text the tests here load, less their output sections, which
# name a temporary directory; TestConfigLoading.test_libyaml_parses_like_safe_loader
# loads each through libyaml and through PyYAML's pure-Python SafeLoader.
ROUND_TRIP_YAML = (
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\n"
    "matching: {N: 24, scan_points: 300}\n"
    "sweep: {parameter: alpha_pair, values: [[50, 3], [70, 2]]}\n"
    "oracle: {L: 6.0, refinements: 2}\n"
    "output: {dir: results, formats: [csv, svg]}\n"
)
BAD_YAML = [
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nextra: {}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1, radius: 2}\n",
    "matching: {N: 16}\n",                                    # no well
    "well: {alpha0: -1, alpha1: 5, a: 0.3, d: 1}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nmatching: {N: 1}\n",
    # roots are refined to 8 ulp of lambda; there is no tolerance to set
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nmatching: {N: 16, tol: 1.0e-12}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nsweep: {parameter: b}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\noutput: {formats: [png]}\n",
    # the oracle's closure is Dirichlet; nothing selects another
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\noracle: {closure: neumann}\n",
    "[1, 2, 3]\n",
    # not YAML: an unclosed flow mapping, a tab in the indentation
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1\n",
    "well:\n\talpha0: 20\n",
]
EXPONENT_YAML = "well: {alpha0: 1e5, alpha1: 1e-5, a: 0.3, d: 1}\n"
NON_NUMERIC_YAML = [
    "well: {alpha0: twenty, alpha1: 5, a: 0.3, d: 1}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nmatching: {N: 16.5}\n",
    "well: {alpha0: true, alpha1: 5, a: 0.3, d: 1}\n",
    # integer fields with non-finite values
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nmatching: {N: 1e400}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nmatching: {N: .inf}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nmatching: {N: .nan}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nmatching: {scan_points: -.inf}\n",
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\noracle: {refinements: .nan}\n",
]
SWEEP_A_YAML = (
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\n"
    "matching: {N: 12}\n"
    "sweep: {parameter: a, values: [1.2, 0.4, 0.8]}\n"   # unsorted on purpose
)
SVG_AXES = [("a", "[0.4, 0.8]", "a/d"), ("alpha_pair", "[[20, 5], [30, 5]]", "α0")]
EMPTY_SWEEP_YAML = (
    "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\n"
    "sweep: {parameter: a, values: []}\n"
)
HUGE_N_YAML = "well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\nmatching: {N: 1e300}\n"


def svg_axis_yaml(parameter, values):
    return ("well: {alpha0: 20, alpha1: 5, a: 0.3, d: 1}\n"
            "matching: {N: 8}\n"
            f"sweep: {{parameter: {parameter}, values: {values}}}\n")


CONFIG_TEXTS = [BASE_YAML, ROUND_TRIP_YAML, *BAD_YAML, EXPONENT_YAML, *NON_NUMERIC_YAML,
                SWEEP_A_YAML, *(svg_axis_yaml(p, v) for p, v, _ in SVG_AXES),
                EMPTY_SWEEP_YAML, HUGE_N_YAML]


def _load_both(path, monkeypatch):
    """load_config's RunConfig, or ConfigError, through the loader it picks
    and through PyYAML's pure-Python SafeLoader."""
    def load():
        try:
            return load_config(str(path))
        except ConfigError:
            return ConfigError

    fast = load()
    with monkeypatch.context() as m:
        m.delattr(yaml, "CSafeLoader", raising=False)
        return fast, load()


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(BASE_YAML + f"output:\n  dir: {tmp_path / 'out'}\n")
    return path


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(ROUND_TRIP_YAML)
        cfg = load_config(str(path))
        assert cfg.well.alpha0 == 20.0
        assert cfg.matching.N == 24
        assert cfg.sweep.values == ((50.0, 3.0), (70.0, 2.0))
        assert cfg.oracle.refinements == 2
        assert cfg.output.formats == ("csv", "svg")

    @pytest.mark.parametrize("text", BAD_YAML)
    def test_rejects_bad_configs(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.yaml")

    def test_yaml11_exponent_literals(self, tmp_path):
        # YAML 1.1 parses 1e-5 as a string; numeric fields must accept it
        path = tmp_path / "c.yaml"
        path.write_text(EXPONENT_YAML)
        cfg = load_config(str(path))
        assert cfg.well.alpha0 == 1e5
        assert cfg.well.alpha1 == 1e-5

    @pytest.mark.parametrize("text", NON_NUMERIC_YAML)
    def test_rejects_non_numeric_fields(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("text", CONFIG_TEXTS)
    def test_libyaml_parses_like_safe_loader(self, tmp_path, monkeypatch, text):
        path = tmp_path / "c.yaml"
        for body in (text, text + f"output: {{dir: {tmp_path / 'out'}, formats: [csv, svg]}}\n"):
            path.write_text(body)
            fast, pure = _load_both(path, monkeypatch)
            assert fast == pure

    def test_figure_script_configs_parse_like_safe_loader(self, tmp_path, monkeypatch):
        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
        spec = importlib.util.spec_from_file_location("reproduce_figures", script)
        figures = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(figures)
        path = str(tmp_path / "c.yaml")
        out = str(tmp_path / "out")
        for write in (lambda: figures.sweep_config(path, 1e5, 1e-5, out, 32),
                      lambda: figures.sweep_config(path, 20.0, 5.0, out, 32),
                      lambda: figures.pair_config(path, out, 32)):
            write()
            fast, pure = _load_both(path, monkeypatch)
            assert isinstance(fast, robinstrip.RunConfig)
            assert fast == pure

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_uses_libyaml(self, tmp_path, monkeypatch):
        used = []

        class Recording(yaml.CSafeLoader):
            def __init__(self, stream):
                used.append(True)
                super().__init__(stream)

        monkeypatch.setattr(yaml, "CSafeLoader", Recording)
        path = tmp_path / "c.yaml"
        path.write_text(EXPONENT_YAML)
        assert load_config(str(path)).well.alpha1 == 1e-5
        assert used == [True]


class TestSpectrum:
    def test_csv_schema_and_content(self, base_cfg, tmp_path, capsys):
        assert main(["spectrum", "--config", str(base_cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 9
        assert fields[1] == "symmetric"
        assert fields[2] == "1"
        lam = float(fields[3])
        assert float(fields[0]) == 0.3                     # sweep value a/d
        assert float(fields[4]) == lam * (1.0 / np.pi) ** 2
        assert float(fields[6]) < lam < float(fields[7])   # bracket columns
        csv_path = tmp_path / "out" / "spectrum.csv"
        assert csv_path.read_text().split("\n")[0] == CSV_HEADER

    def test_byte_stable(self, base_cfg, tmp_path, capsys):
        main(["spectrum", "--config", str(base_cfg)])
        first = (tmp_path / "out" / "spectrum.csv").read_bytes()
        main(["spectrum", "--config", str(base_cfg)])
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first
        assert b"\r" not in first

    def test_no_well_flags_is_config_error(self, capsys):
        assert main(["spectrum", "--alpha0", "20"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_tol_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--tol", "1e-12", "--alpha0", "20", "--alpha1", "5",
                  "--a", "0.3", "--d", "1"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_constant_profile_zero_rows(self, tmp_path, capsys):
        code = main(["spectrum", "--alpha0", "20", "--alpha1", "20", "--a", "0.3",
                     "--d", "1", "--N", "8", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip() == CSV_HEADER


class TestSweep:
    def test_a_family_with_all_formats(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SWEEP_A_YAML
                       + f"output: {{dir: {tmp_path / 'out'}, formats: [csv, json, svg]}}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        csv_lines = (tmp_path / "out" / "sweep_a.csv").read_text().strip().split("\n")
        assert csv_lines[0] == CSV_HEADER
        rows = [line.split(",") for line in csv_lines[1:]]
        sweep_vals = [float(r[0]) for r in rows]
        assert sweep_vals == sorted(sweep_vals)
        for r in rows:
            assert float(r[6]) <= float(r[3]) <= float(r[7])
        data = json.loads((tmp_path / "out" / "sweep_a.json").read_text())
        assert len(data) == len(rows)
        assert data[0]["sector"] in ("symmetric", "antisymmetric")
        svg = ET.parse(tmp_path / "out" / "sweep_a.svg").getroot()
        assert svg.tag.endswith("svg")
        # branches with >= 2 sweep points are polylines, singletons are circles
        from collections import Counter
        counts = Counter(r[2] for r in rows)
        polylines = [e for e in svg.iter() if e.tag.endswith("polyline")]
        circles = [e for e in svg.iter() if e.tag.endswith("circle")]
        assert len(polylines) == sum(1 for c in counts.values() if c >= 2)
        assert len(circles) == sum(1 for c in counts.values() if c == 1)

    @pytest.mark.parametrize("parameter, values, label", SVG_AXES)
    def test_svg_x_axis_names_the_sweep_parameter(self, tmp_path, capsys,
                                                  parameter, values, label):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(svg_axis_yaml(parameter, values)
                       + f"output: {{dir: {tmp_path / 'out'}, formats: [svg]}}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        svg = ET.parse(tmp_path / "out" / f"sweep_{parameter}.svg").getroot()
        texts = [e.text for e in svg.iter() if e.tag.endswith("text")]
        assert label in texts
        assert ({"a/d", "α0"} - {label}).isdisjoint(texts)

    def test_empty_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(EMPTY_SWEEP_YAML + f"output: {{dir: {tmp_path / 'out'}}}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "sweep_a.csv").read_text().strip().split("\n")
        assert lines == [CSV_HEADER]

    def test_sweep_without_spec_is_config_error(self, base_cfg, capsys):
        assert main(["sweep", "--config", str(base_cfg)]) == 2

    def test_alpha_pair_sweep_retains_one_mode_table(self, tmp_path, capsys, monkeypatch):
        # each pair has its own cross-sections; no command reuses an older
        # table, and no state of an earlier pair keeps its table alive while
        # the next pair is scanned
        cfg = tmp_path / "run.yaml"
        cfg.write_text(svg_axis_yaml("alpha_pair", "[[20, 5], [30, 5], [40, 2]]")
                       + f"output: {{dir: {tmp_path}}}\n")
        cached, scan = modematch._mode_table, modematch._scan_roots
        built, alive = [], []

        def recording_table(*args):
            table = cached(*args)
            built.append(weakref.ref(table))
            return table

        def recording_scan(table, *args):
            alive.append(sum(ref() is not None for ref in built))
            return scan(table, *args)

        monkeypatch.setattr(modematch, "_mode_table", recording_table)
        monkeypatch.setattr(modematch, "_scan_roots", recording_scan)
        cached.cache_clear()
        assert main(["sweep", "--config", str(cfg)]) == 0
        info = cached.cache_info()
        assert (info.misses, info.currsize) == (3, 1)
        assert alive == [1, 1, 1]


class TestWavefunction:
    def test_export_normalized_and_symmetric(self, base_cfg, tmp_path, capsys):
        code = main(["wavefunction", "--config", str(base_cfg),
                     "--nx", "81", "--ny", "33", "--xmax", "3.0"])
        assert code == 0
        x, y, vals, lam, parity = read_wavefunction(
            str(tmp_path / "out" / "wavefunction_1.txt"))
        assert parity == "symmetric"
        assert vals.shape == (81, 33)
        assert np.allclose(vals, vals[::-1, :], atol=1e-12)
        nrm = np.sqrt(np.trapezoid(np.trapezoid(vals**2, y, axis=1), x))
        assert nrm == pytest.approx(1.0, abs=1e-9)
        assert 5.2 < lam < 8.2

    @pytest.mark.parametrize("flag, value", [
        ("--nx", "-5"), ("--ny", "-5"), ("--xmax", "nan"), ("--xmax", "inf"),
        ("--xmax", "-1"), ("--ordinal", "0"),
    ])
    def test_bad_argument_is_config_error(self, base_cfg, flag, value, capsys):
        assert main(["wavefunction", "--config", str(base_cfg), f"{flag}={value}"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_ordinal_is_numerical_failure(self, base_cfg, capsys):
        assert main(["wavefunction", "--config", str(base_cfg), "--ordinal", "7"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_short_state_count_is_numerical_failure(self, tmp_path, capsys):
        # a scan of 8 points loses states of a wide well; the Dirichlet
        # lower count and the Neumann cap say so
        argv = ["spectrum", "--alpha0", "20", "--alpha1", "5", "--a", "20", "--d", "1",
                "--scan-points", "8", "--out-dir", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "outside [11, 11]" in err
        assert not list(tmp_path.iterdir())


class TestTruncationCompanion:
    """No command reports a truncation-error estimate, so every solve a
    command runs scans at its N only, never at a second truncation."""

    @pytest.mark.parametrize("alpha0, alpha1, a, d", [(20, 5, 0.3, 1), (8, 1, 1.5, 1)])
    def test_commands_never_scan_half_truncation(self, tmp_path, capsys, scanned_channels,
                                                  alpha0, alpha1, a, d):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"well: {{alpha0: {alpha0}, alpha1: {alpha1}, a: {a}, d: {d}}}\n"
                       "sweep: {parameter: a, values: [0.4, 1.5]}\n"
                       f"output: {{dir: {tmp_path}}}\n")
        for argv in (["spectrum"], ["sweep"], ["wavefunction", "--nx", "9", "--ny", "5"],
                     ["oracle", "--L", str(4 * max(a, d)), "--refinements", "2"]):
            assert main([*argv, "--config", str(cfg)]) == 0
        assert scanned_channels and set(scanned_channels) == {(32 + 1) // 2}


class TestOracleCommand:
    def test_comparison_table(self, tmp_path, capsys):
        code = main(["oracle", "--alpha0", "20", "--alpha1", "5", "--a", "0.3",
                     "--d", "1", "--N", "12", "--out-dir", str(tmp_path),
                     "--L", "4", "--refinements", "2"])
        assert code == 0
        lines = (tmp_path / "oracle_compare.csv").read_text().strip().split("\n")
        assert lines[0] == "sector,index,lambda_matching,lambda_oracle,abs_diff"
        assert len(lines) == 2
        sector, index, lam_m, lam_o, diff = lines[1].split(",")
        assert (sector, index) == ("symmetric", "1")
        assert abs(float(lam_m) - float(lam_o)) == pytest.approx(float(diff))
        assert float(diff) < 0.05

    def test_default_L_admits_a_wide_well(self, tmp_path, capsys):
        # a > 2d: the default half-length is 4a, not 8d, so the oracle's
        # L >= 4 max(a, d) contract holds without --L
        code = main(["oracle", "--alpha0", "20", "--alpha1", "5", "--a", "3", "--d", "1",
                     "--refinements", "2", "--out-dir", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        lines = (tmp_path / "oracle_compare.csv").read_text().strip().split("\n")
        assert len(lines) > 1 and all(line.split(",")[3] for line in lines[1:])

    def test_closure_flag_is_gone(self, capsys):
        # the oracle's closure is Dirichlet; nothing selects another
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--closure", "neumann", "--alpha0", "20", "--alpha1", "5",
                  "--a", "0.3", "--d", "1"])
        assert exc.value.code == 2
        assert "--closure" in capsys.readouterr().err


class TestOversizedInputs:
    # each of these would ask for >= 1e12 elements; they must fail before
    # allocating, as configuration errors
    def test_huge_N_in_config(self, tmp_path, capsys):
        path = tmp_path / "big.yaml"
        path.write_text(HUGE_N_YAML)
        assert main(["spectrum", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--N", "1000000000000"],
        ["oracle", "--N", "8", "--L", "1e12"],
        # the finest grid's h underflows to 0 at 2000 refinements and is
        # subnormal at 1050, where a / h overflows
        ["oracle", "--N", "8", "--refinements", "2000"],
        ["oracle", "--N", "8", "--refinements", "1050"],
        ["wavefunction", "--N", "8", "--nx", "1000000000000"],
        ["existence", "--n-max", "1000000000000"],
    ])
    def test_huge_flag(self, tmp_path, argv, capsys):
        well = ["--alpha0", "20", "--alpha1", "5", "--a", "0.3", "--d", "1"]
        assert main(argv + well + ["--out-dir", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err


    def test_mode_table_over_the_guard(self, tmp_path, monkeypatch, capsys):
        # 8 * 4096^2 scan entries pass the scan bound; N = 8191 is over the
        # largest mode table, N = 3344, and must be refused before it is built
        def refuse(*args):
            raise AssertionError("the mode table was built past the size guard")
        monkeypatch.setattr(modematch, "overlap_matrix", refuse)
        well = ["--alpha0", "20", "--alpha1", "5", "--a", "0.3", "--d", "1"]
        argv = ["spectrum", "--N", "8191", "--scan-points", "8", "--out-dir", str(tmp_path)]
        assert main(argv + well) == 2
        assert "mode table" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "existence"])
    @pytest.mark.parametrize("alpha0", ["1e160", "1e20"])
    def test_coupling_above_the_bound(self, tmp_path, command, alpha0, capsys):
        # 1e160 overflowed alpha**2 and 1e20 lost the level brackets' sign change
        well = ["--alpha0", alpha0, "--alpha1", "1", "--a", "0.5", "--d", "1"]
        assert main([command, *well, "--out-dir", str(tmp_path)]) == 2
        assert "alpha*d must be at most" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "existence"])
    def test_coupling_below_the_bound(self, tmp_path, command, capsys):
        # alpha1 d = 1e-9: the N = 3344 level table loses a bracket's sign change
        well = ["--alpha0", "20", "--alpha1", "1e-9", "--a", "0.5", "--d", "1"]
        assert main([command, *well, "--out-dir", str(tmp_path)]) == 2
        assert "alpha*d must be at least" in capsys.readouterr().err


class TestFlagCensus:
    # each subcommand takes the override flags of the config fields it reads
    WELL = {"--config", "--alpha0", "--alpha1", "--a", "--d", "--out-dir"}
    SOLVE = WELL | {"--N", "--scan-points"}
    FLAGS = {
        "spectrum": SOLVE | {"--formats"},
        "sweep": SOLVE | {"--formats"},
        "wavefunction": SOLVE | {"--ordinal", "--xmax", "--nx", "--ny"},
        "oracle": SOLVE | {"--L", "--refinements"},
        "existence": WELL | {"--n-max", "--plateau", "--support"},
    }

    def test_every_subcommand_has_exactly_the_listed_flags(self):
        # adding or removing a flag must be a deliberate change to this list
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.FLAGS)
        assert sum(map(len, self.FLAGS.values())) == 49
        for name, p in sub.choices.items():
            flags = {o for action in p._actions for o in action.option_strings}
            assert flags == self.FLAGS[name] | {"-h", "--help"}, name


# an invalid value for each override flag, and what its error names;
# "{file}" is a regular file, so no directory can be made under it
INVALID_OVERRIDES = {
    "--alpha0": ("-1", "alpha0 must be positive"),
    "--alpha1": ("0", "alpha1 must be positive"),
    "--a": ("nan", "a must be positive"),
    "--d": ("inf", "d must be positive"),
    "--N": ("1", "matching.N must be >= 2"),
    "--scan-points": ("7", "matching.scan_points must be >= 8"),
    "--out-dir": ("{file}/out", "Not a directory"),
    "--formats": ("csv,xml", "output format must be one of"),
    "--L": ("-1", "oracle.L must be positive"),
    "--refinements": ("1", "oracle.refinements must be >= 2"),
}
REMOVED_FLAGS = [("wavefunction", "--formats", "csv"), ("oracle", "--formats", "csv"),
                 ("existence", "--N", "8"), ("existence", "--scan-points", "8"),
                 ("existence", "--formats", "csv")]


@pytest.fixture
def refuse_solves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran")
    for name in ("bound_states", "existence_test"):
        monkeypatch.setattr(robinstrip.cli, name, refuse)


class TestOverrideFlags:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in TestFlagCensus.FLAGS.items()
        for flag in sorted(flags & set(INVALID_OVERRIDES))
    ])
    def test_invalid_value_is_a_configuration_error(self, tmp_path, capsys, refuse_solves,
                                                   command, flag):
        # every flag reaches its config field, checked before any solve
        (tmp_path / "file").write_text("")
        value, message = INVALID_OVERRIDES[flag]
        well = ["--alpha0", "20", "--alpha1", "5", "--a", "0.3", "--d", "1"]
        argv = [command, *well, "--out-dir", str(tmp_path / "out"),
                f"{flag}={value.format(file=tmp_path / 'file')}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
    def test_removed_flag_is_unrecognized(self, capsys, command, flag, value):
        # a flag for a config field the command never reads is refused
        with pytest.raises(SystemExit) as exc:
            main([command, "--alpha0", "20", "--alpha1", "5", "--a", "0.3", "--d", "1",
                  flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_unwritable_output_file_is_a_configuration_error(self, tmp_path, capsys):
        (tmp_path / "spectrum.csv").mkdir()
        argv = ["spectrum", "--alpha0", "20", "--alpha1", "5", "--a", "0.3", "--d", "1",
                "--N", "8", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")


class TestParserReuse:
    def test_one_parser_and_no_state_between_calls(self, capsys):
        # main shares one parser per process; no call may change the next
        parser = build_parser()
        assert build_parser() is parser
        assert parser.parse_args(["spectrum", "--N", "8", "--formats", "csv"]).N == 8
        args = parser.parse_args(["spectrum"])
        assert args.N is None and args.formats is None
        outputs = []
        for argv in (["oracle", "--help"], ["spectrum", "--alpha0", "20"], ["bogus"]) * 2:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            outputs.append((code, out.out, out.err))
        assert outputs[:3] == outputs[3:]
        assert [code for code, _, _ in outputs[:3]] == [0, 2, 2]
        with pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args(["oracle", "--help"])
        assert capsys.readouterr().out == outputs[0][1]


class TestExistenceCommand:
    def test_report_file(self, tmp_path, capsys):
        code = main(["existence", "--alpha0", "20", "--alpha1", "5", "--a", "0.3",
                     "--d", "1", "--n-max", "48", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "certified" in capsys.readouterr().out
        data = json.loads((tmp_path / "existence.json").read_text())
        assert data["well_hypothesis"] is True
        assert data["first_negative_n"] == 40
        assert len(data["q_values"]) == 48

    @pytest.mark.parametrize("alpha0, alpha1, n_max, first", [
        ("20", "5", "48", 40),          # certified
        ("20", "5", "8", None),         # inconclusive
        ("5", "20", "4", None),         # hypothesis false
    ])
    def test_report_bytes_are_the_indented_dump(self, tmp_path, alpha0, alpha1, n_max, first):
        code = main(["existence", "--alpha0", alpha0, "--alpha1", alpha1, "--a", "0.3",
                     "--d", "1", "--n-max", n_max, "--out-dir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "existence.json").read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload["first_negative_n"] == first
        assert payload["well_hypothesis"] is (alpha1 == "5")
        assert text == json.dumps(payload, indent=2) + "\n"

    def test_sharp_bump(self, tmp_path):
        # a transition 1e-6 of the plateau wide: the well integral needs no refinement
        code = main(["existence", "--alpha0", "20", "--alpha1", "5", "--a", "0.3", "--d", "1",
                     "--plateau", "0.1", "--support", "0.1000001", "--out-dir", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "existence.json").read_text())
        assert len(data["q_values"]) == 64 and data["well_hypothesis"] is True

    def test_subnormal_bump_is_a_configuration_error(self, tmp_path, capsys):
        code = main(["existence", "--alpha0", "20", "--alpha1", "5", "--a", "0.3", "--d", "1",
                     "--plateau", "1e-320", "--support", "2e-320", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "plateau=1e-320 support=2e-320" in capsys.readouterr().err

    def test_inverted_well_reports_no_claim(self, tmp_path, capsys):
        code = main(["existence", "--alpha0", "5", "--alpha1", "20", "--a", "0.3",
                     "--d", "1", "--n-max", "4", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "no claim" in capsys.readouterr().out


class TestImport:
    def test_cli_import_leaves_out_scipy_optimize(self):
        # importing scipy.optimize adds about 0.2 s to every CLI start;
        # scipy.sparse (the FD oracle) and yaml (config files) load on use
        src = str(Path(robinstrip.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, robinstrip.cli; print([m for m in "
                "('scipy.optimize', 'scipy.sparse', 'yaml') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_every_public_name_resolves(self):
        assert sorted(robinstrip.__all__) == sorted(PUBLIC)
        # oracle_bound_states comes from a module-level __getattr__
        for name in robinstrip.__all__:
            assert getattr(robinstrip, name) is not None
        assert robinstrip.oracle_bound_states is robinstrip.fdoracle.oracle_bound_states
        with pytest.raises(AttributeError):
            robinstrip.no_such_name  # noqa: B018

    @pytest.mark.parametrize("module, name", UNEXPORTED)
    def test_unexported_name_stays_in_its_module(self, module, name):
        assert getattr(importlib.import_module(f"robinstrip.{module}"), name) is not None
        assert not hasattr(robinstrip, name)


class TestBudgetScript:
    @pytest.mark.parametrize("megabytes, code", [("300", 0), ("1", 1)])
    def test_exit_code_follows_the_budget(self, tmp_path, megabytes, code):
        script = Path(__file__).resolve().parents[1] / "scripts" / "within_budget.py"
        argv = [sys.executable, str(script), "30", megabytes, "existence", "--alpha0", "20",
                "--alpha1", "5", "--a", "0.3", "--d", "1", "--n-max", "4",
                "--out-dir", str(tmp_path)]
        out = subprocess.run(argv, capture_output=True, text=True)
        assert out.returncode == code
        assert "peak RSS" in out.stdout and (tmp_path / "existence.json").exists()


class TestTracerHooks:
    """bench/tracing.py wraps these module attributes where their callers
    look them up, and skips a missing one silently: its metrics then read 0."""

    @pytest.mark.parametrize("module, name", [
        ("transverse", "dispersion"),
        ("transverse", "transversal_eigenvalues"),
        ("modematch", "transversal_eigenvalues"),
        ("cli", "transversal_eigenvalues"),
        ("fdoracle", "transversal_eigenvalues"),
        ("transverse", "overlap_matrix"),
        ("modematch", "overlap_matrix"),
        ("cli", "existence_test"),
        ("cli", "sweep_csv"),
        ("cli", "write_sweep_csv"),
        ("cli", "write_sweep_json"),
        ("cli", "write_sweep_svg"),
        ("fdoracle", "assemble"),
        ("fdoracle", "lowest_eigenpairs"),
        ("variational", "q_form"),
    ])
    def test_patched_function_exists(self, module, name):
        assert callable(getattr(importlib.import_module(f"robinstrip.{module}"), name))

    def test_svd_is_looked_up_through_numpy(self):
        assert isinstance(modematch.np, types.ModuleType)
        assert callable(modematch.np.linalg.svd)

    def test_assembled_operator_reports_its_size(self):
        fdoracle = importlib.import_module("robinstrip.fdoracle")
        well = robinstrip.WellConfig(20.0, 5.0, 0.3, 1.0)
        grid = fdoracle.make_grid(well, 4.0, 1.0 / 16.0)
        op = fdoracle.assemble(well, grid, robinstrip.ParitySector.SYMMETRIC)
        assert op.dimension == op.matrix.shape[0] > 0
        assert op.matrix.nnz > 0
