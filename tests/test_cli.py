import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import polaron_deco.cli as cli
import polaron_deco.errors as pd_errors
import polaron_deco.output as output
from polaron_deco import ConfigError


def read_csv(path):
    lines = [l for l in open(path).read().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestParseConfig:
    def test_documented_defaults(self):
        cfg = cli.parse_config()
        assert cfg.mode == "single"
        assert cfg.lambda_g == 1.0
        assert cfg.s == 1.0
        assert cfg.j_hop == 1.0
        assert cfg.t_max == 50.0
        assert cfg.dt == 0.005
        assert cfg.rho_ss == pytest.approx(2 / 3)
        assert cfg.re_rho_st == pytest.approx(math.sqrt(2) / 3)
        assert cfg.im_rho_st == 0.0
        assert cfg.s_values == (1.0, 10.0, 100.0)

    def test_flags_override_file(self):
        cfg = cli.parse_config(file_text="s = 1\n", flags={"s": "100"})
        assert cfg.s == 100.0

    def test_file_values(self):
        text = "# comment\nlambda_g = 0.3\ndt = 0.01\ns_values = 2,4\n"
        cfg = cli.parse_config(file_text=text, mode="sweep-s")
        assert cfg.lambda_g == 0.3
        assert cfg.dt == 0.01
        assert cfg.s_values == (2.0, 4.0)

    def test_unknown_key_with_location(self):
        with pytest.raises(ConfigError, match="line 2.*lambd"):
            cli.parse_config(file_text="s = 1\nlambd = 2\n")

    def test_invalid_numeric_with_location(self):
        with pytest.raises(ConfigError, match="line 1.*dt"):
            cli.parse_config(file_text="dt = abc\n")

    def test_invalid_state_names_field(self):
        with pytest.raises(ConfigError, match="rho_ss"):
            cli.parse_config(file_text="rho_ss = 1.5\n")

    def test_mode_specific_defaults(self):
        cfg = cli.parse_config(mode="bangbang")
        assert cfg.s == pytest.approx(math.pi)
        assert cfg.j_hop == 0.5
        cfg = cli.parse_config(mode="oracle-compare")
        assert cfg.lambda_g == 0.1
        assert cfg.t_max == 10.0

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            cli.parse_config(file_text="mode = warp\n")

    @pytest.mark.parametrize("key", ["s_values", "lambda_values", "cycles"])
    def test_empty_list_rejected(self, key):
        # an empty list would echo as "key = ", which does not parse back
        with pytest.raises(ConfigError, match=key):
            replace(cli.parse_config(), **{key: ()})

    @pytest.mark.parametrize("changes", [
        {"s_values": (1.0, -1.0)}, {"lambda_values": (-0.5,)},
        {"s": -1.0}, {"lambda_g": -0.5}, {"cycles": (4, 0)}, {"total_time": 0.0},
        {"s_values": (1.0, 1.0)}, {"lambda_values": (0.5, 0.5000000001)},
    ])
    def test_replace_rechecks(self, changes):
        # a config checks itself when built, so dataclasses.replace (as the
        # sweeps use it) cannot make an invalid one either
        with pytest.raises(ConfigError):
            replace(cli.parse_config(mode="sweep-s"), **changes)

    @pytest.mark.parametrize("mode, lists", [
        ("sweep-s", {"s_values": [1.0, 2.0]}),
        ("effective-hopping", {"s_values": [1.0], "lambda_values": [0.5, 2.0]}),
        ("bangbang", {"cycles": [4, 8, 16]}),
    ])
    def test_list_fields_become_tuples(self, tmp_path, mode, lists):
        # a library caller may pass Python lists; they are stored as tuples,
        # and the echo parses back to an equal config
        cfg = cli.ExperimentConfig(mode=mode, out_dir=str(tmp_path), **lists)
        for key, values in lists.items():
            assert getattr(cfg, key) == tuple(values)
        cli.write_config_echo(cfg, tmp_path / "echo.cfg")
        assert cli.parse_config(file_text=(tmp_path / "echo.cfg").read_text()) == cfg

    def test_env_default_out_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "envout"))
        cfg = cli.parse_config()
        assert cfg.out_dir == str(tmp_path / "envout")


class TestRunExperiment:
    def test_single_decoupled_has_unit_coherence(self, tmp_path):
        cfg = cli.parse_config(flags={"s": "0", "t_max": "5", "dt": "0.01",
                                      "out_dir": str(tmp_path)})
        written = cli.run_experiment(cfg)
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "rho_ss", "rho_tt", "re_rho_st", "im_rho_st", "C", "P_D"]
        c_col = data[:, header.index("C")]
        assert np.all(c_col == 1.0)
        assert str(tmp_path / "config_echo.cfg") in written

    def test_effective_hopping_monotone(self, tmp_path):
        cfg = cli.parse_config(mode="effective-hopping",
                               flags={"out_dir": str(tmp_path), "s_values": "1,5,10"})
        cli.run_experiment(cfg)
        header, data = read_csv(tmp_path / "fig1a.csv")
        assert header[0] == "lambda_g"
        for col in range(1, data.shape[1]):
            assert np.all(np.diff(data[:, col]) < 0.0)
            assert np.all((data[:, col] > 0.0) & (data[:, col] <= 1.0))
        header_b, data_b = read_csv(tmp_path / "fig1b.csv")
        for col in range(1, data_b.shape[1]):
            assert np.all(np.diff(data_b[:, col]) < 0.0)

    def test_sweep_s_outputs(self, tmp_path):
        cfg = cli.parse_config(mode="sweep-s",
                               flags={"out_dir": str(tmp_path), "t_max": "5",
                                      "dt": "0.01", "s_values": "1,10"})
        cli.run_experiment(cfg)
        header, data = read_csv(tmp_path / "fig2a.csv")
        assert header == ["t", "C_s=1", "C_s=10"]
        assert data[0, 1] == 1.0 and data[0, 2] == 1.0
        header_b, _ = read_csv(tmp_path / "fig2bcd.csv")
        assert header_b[1:4] == ["PD_s=1", "rho_tt_s=1", "rho_ss_s=1"]

    def test_sweep_lambda_outputs(self, tmp_path):
        cfg = cli.parse_config(mode="sweep-lambda",
                               flags={"out_dir": str(tmp_path), "t_max": "2",
                                      "dt": "0.01", "lambda_values": "0.5,1"})
        cli.run_experiment(cfg)
        header, _ = read_csv(tmp_path / "fig2a.csv")
        assert header == ["t", "C_lambda=0.5", "C_lambda=1"]

    def test_bangbang_slope_field(self, tmp_path):
        cfg = cli.parse_config(mode="bangbang", flags={"out_dir": str(tmp_path)})
        cli.run_experiment(cfg)
        header, data = read_csv(tmp_path / "bangbang.csv")
        slope_col = header.index("fitted_slope")
        assert np.all(data[:, slope_col] >= 1.7)
        pulsed = data[:, header.index("trace_distance_pulsed")]
        free = data[:, header.index("trace_distance_free")]
        assert np.all(pulsed < free)

    def test_oracle_compare_outputs(self, tmp_path):
        cfg = cli.parse_config(mode="oracle-compare", flags={"out_dir": str(tmp_path)})
        cli.run_experiment(cfg)
        raw = open(tmp_path / "compare.csv").read().splitlines()
        assert raw[0].startswith("# j_tilde=")
        header, data = read_csv(tmp_path / "compare.csv")
        assert header[:3] == ["t", "C_exact", "C_master"]
        rms = math.sqrt(np.mean((data[:, 1] - data[:, 2]) ** 2))
        assert rms <= 0.1

    def test_oracle_compare_diagonal_state(self, tmp_path):
        # zero initial coherence: both C columns are raw |rho_ST|, not a
        # normalization by the round-off of the exact route's rho_ST(0)
        config = tmp_path / "state.cfg"
        config.write_text("rho_ss = 0.5\nre_rho_st = 0\nim_rho_st = 0\n")
        code = cli.main(["oracle-compare", "--modes", "2", "--nmax", "4",
                         "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        raw = open(tmp_path / "compare.csv").read().splitlines()
        rms = float(raw[0].split("rms_coherence_diff=")[1])
        header, data = read_csv(tmp_path / "compare.csv")
        assert data[0, header.index("C_exact")] == 0.0
        assert np.max(data[:, header.index("C_exact")]) < 0.01
        assert rms < 0.01

    # verb, config flags at a small size, and for each table its SVG legend
    # labels mapped to the CSV column each one draws
    OUTPUTS = [
        ("single", {"t_max": "2", "dt": "0.01"},
         {"trajectory": {"C": "C", "P_D": "P_D", "rho_TT": "rho_tt", "rho_SS": "rho_ss"}}),
        ("sweep-s", {"t_max": "2", "dt": "0.01", "s_values": "1,10"},
         {"fig2a": {"s=1": "C_s=1", "s=10": "C_s=10"},
          "fig2bcd": {"PD_s=1": "PD_s=1", "PD_s=10": "PD_s=10"}}),
        ("sweep-lambda", {"t_max": "2", "dt": "0.01", "lambda_values": "0.5"},
         {"fig2a": {"lambda=0.5": "C_lambda=0.5"},
          "fig2bcd": {"PD_lambda=0.5": "PD_lambda=0.5"}}),
        ("effective-hopping", {"s_values": "1", "lambda_values": "0.5,2"},
         {"fig1a": {"ratio_s=1": "ratio_s=1"},
          "fig1b": {"ratio_lambda=0.5": "ratio_lambda=0.5",
                    "ratio_lambda=2": "ratio_lambda=2"}}),
        ("bangbang", {"n_max": "2", "cycles": "4,8,16"},
         {"bangbang": {"pulsed": "trace_distance_pulsed",
                       "free": "trace_distance_free"}}),
        ("oracle-compare", {"n_max": "2", "t_max": "2"},
         {"compare": {"C_exact": "C_exact", "C_master": "C_master"}}),
    ]

    # single at its default grid: 10,001 rows over 563 pixel columns, so the
    # SVG draws only the rows that set its pixels
    DECIMATED = ("single", {},
                 {"trajectory": {"C": "C", "P_D": "P_D", "rho_TT": "rho_tt",
                                 "rho_SS": "rho_ss"}})

    def test_svg_emission(self, tmp_path):
        # every verb: the echo, then stem.csv for every table and stem.svg
        # beside it under svg; the returned list is exactly what is on disk
        runs = list(itertools.product(self.OUTPUTS, (False, True))) + [(self.DECIMATED, True)]
        for (verb, flags, legends), svg in runs:
            out = tmp_path / f"{verb}-{svg}-{len(flags)}"
            cfg = cli.parse_config(mode=verb, flags=dict(flags, out_dir=str(out),
                                                         svg=str(svg)))
            written = cli.run_experiment(cfg)
            expected = [out / "config_echo.cfg"]
            for stem in legends:
                expected += [out / f"{stem}.csv"] + ([out / f"{stem}.svg"] if svg else [])
            assert written == [str(p) for p in expected]
            assert sorted(out.iterdir()) == sorted(expected)
            for stem, columns in legends.items() if svg else ():
                body = (out / f"{stem}.svg").read_text()
                assert body.startswith("<svg ")
                assert re.findall(r'<text x="[^"]+" y="[^"]+">([^<]*)</text>',
                                  body) == list(columns)
                polylines = re.findall(r'<polyline points="([^"]+)"', body)
                assert len(polylines) == len(columns)
                header, data = read_csv(out / f"{stem}.csv")
                points = [[p.split(",") for p in pts.split()] for pts in polylines]
                drawn_x = [x for x, _ in points[0]]
                assert all([x for x, _ in pts] == drawn_x for pts in points)
                log_x = stem in ("fig1b", "bangbang")  # the charts with a log x axis
                rows = self._drawn_rows(drawn_x, data[:, 0], log_x)
                if (verb, flags) == self.DECIMATED[:2]:
                    assert 2 * 563 < len(rows) < len(data) / 2
                drawn = np.array([[float(y) for _, y in pts] for pts in points])
                named = data[np.ix_(rows, [header.index(c) for c in columns.values()])].T
                if stem == "bangbang":  # the one chart with a log y axis
                    named = np.log10(named)
                self._assert_one_scale(drawn, named)

    @staticmethod
    def _drawn_rows(drawn_x, x, log_x):
        # the CSV row of each drawn point, matched in row order by its x
        # pixel to the printed 0.01 (rows are 0.056 px apart or more); a
        # drawn x that no later row matches raises StopIteration
        x = np.log10(x) if log_x else x
        ml, mr = output.MARGINS[:2]
        x_px = ml + (x - x.min()) / (x.max() - x.min()) * (output.WIDTH - ml - mr)
        rows = iter(enumerate(x_px))
        return [next(i for i, p in rows if abs(p - float(d)) <= 0.01) for d in drawn_x]

    @staticmethod
    def _assert_one_scale(drawn, named):
        # every series of a chart maps its column to pixels by the same
        # affine y scale, so a series that draws another column fails the fit
        design = np.stack([named.ravel(), np.ones(named.size)], axis=1)
        coef, *_ = np.linalg.lstsq(design, drawn.ravel(), rcond=None)
        assert np.max(np.abs(design @ coef - drawn.ravel())) <= 0.01

    # a valid value other than every default, for each key a verb may read
    OTHER = {"lambda_g": 0.7, "s": 3.0, "j_hop": 0.3, "t_max": 1.0, "dt": 0.02,
             "rho_ss": 0.5, "re_rho_st": 0.1, "im_rho_st": 0.2, "s_values": (2.0, 20.0),
             "lambda_values": (0.25,), "n_modes": 3, "n_max": 3, "cycles": (2, 6, 12),
             "total_time": 2.0}

    def test_other_values_are_drawn(self):
        defaults = cli.ExperimentConfig()
        assert set(self.OTHER) == {f.name for f in fields(defaults)} - {
            "mode", "out_dir", "svg"}
        for entry in cli.VERBS.values():
            assert not any(self.OTHER[k] == entry.defaults.get(k, getattr(defaults, k))
                           for k in self.OTHER)

    @pytest.mark.parametrize("verb, flags, legends", OUTPUTS)
    def test_verb_reads_no_other_key(self, tmp_path, capsys, verb, flags, legends):
        # the verb table is honest: a key outside a verb's reads changes none
        # of its CSVs, has no flag, and is refused from a file
        reads = cli.VERBS[verb].reads
        unread = [k for k in self.OTHER if k not in reads]
        cfg = cli.parse_config(mode=verb, flags=dict(flags, out_dir=str(tmp_path / "a")))
        other = replace(cfg, out_dir=str(tmp_path / "b"),
                        **{k: self.OTHER[k] for k in unread})
        for config in (cfg, other):
            cli.run_experiment(config)
        for stem in legends:
            assert (tmp_path / "a" / f"{stem}.csv").read_bytes() == \
                (tmp_path / "b" / f"{stem}.csv").read_bytes()
        dests = vars(cli._build_parser().parse_args([verb]))
        assert set(dests) - {"verb", "config"} <= set(reads) | {"out_dir", "svg"}
        for key in unread:
            config = tmp_path / f"{key}.cfg"
            config.write_text(f"{key} = {cli._format_value(self.OTHER[key])}\n")
            out = tmp_path / key
            assert cli.main([verb, "--config", str(config), "--out", str(out)]) == 2
            assert f"{verb} does not read {key!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_csv_well_formed(self, tmp_path):
        cfg = cli.parse_config(mode="sweep-s",
                               flags={"out_dir": str(tmp_path), "t_max": "2",
                                      "dt": "0.01", "s_values": "1,10"})
        cli.run_experiment(cfg)
        for name in ("fig2a.csv", "fig2bcd.csv"):
            lines = open(tmp_path / name).read().splitlines()
            widths = {len(l.split(",")) for l in lines}
            assert len(widths) == 1  # constant column count
            assert '"' not in "".join(lines)  # quoting never needed


class TestDeterminism:
    def _run(self, out_dir, mode="sweep-s"):
        cfg = cli.parse_config(mode=mode, flags={"out_dir": str(out_dir),
                                                 "t_max": "2", "dt": "0.01",
                                                 "s_values": "1,10"})
        files = cli.run_experiment(cfg)
        return {os.path.basename(p): open(p, "rb").read()
                for p in files if p.endswith(".csv")}

    def test_repeated_runs_byte_identical(self, tmp_path):
        a = self._run(tmp_path / "a")
        b = self._run(tmp_path / "b")
        assert a == b

    def test_echo_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        cfg = cli.parse_config(mode="sweep-s", flags={"out_dir": str(first),
                                                      "t_max": "2", "dt": "0.01",
                                                      "s_values": "1,10"})
        files = cli.run_experiment(cfg)
        echo_text = open(first / "config_echo.cfg").read()
        second = tmp_path / "second"
        cfg2 = cli.parse_config(file_text=echo_text, flags={"out_dir": str(second)})
        assert cfg2.mode == "sweep-s"
        files2 = cli.run_experiment(cfg2)
        for p1, p2 in zip(sorted(files), sorted(files2)):
            if p1.endswith(".csv"):
                assert open(p1, "rb").read() == open(p2, "rb").read()


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        code = cli.main(["single", "--s", "0", "--tmax", "2", "--dt", "0.01",
                         "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trajectory.csv" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("rho_ss = 1.5\n")
        code = cli.main(["single", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert "rho_ss" in record["message"]

    def test_missing_config_file(self, tmp_path):
        code = cli.main(["single", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path)])
        assert code == 2

    def test_flag_list_for_sweep(self, tmp_path):
        code = cli.main(["sweep-s", "--s", "1,10", "--tmax", "2", "--dt", "0.01",
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig2a.csv").exists()

    @pytest.mark.parametrize("argv, key, expected", [
        (["sweep-s", "--s", "5"], "s_values", "5.0"),
        (["effective-hopping", "--s", "5"], "s_values", "5.0"),
        (["effective-hopping", "--lambda", "3"], "lambda_values", "3.0"),
        (["sweep-lambda", "--lambda", "3"], "lambda_values", "3.0"),
        (["sweep-s", "--lambda", "3"], "lambda_g", "3.0"),
        (["sweep-lambda", "--s", "7"], "s", "7.0"),
    ])
    def test_list_flags_per_verb(self, tmp_path, argv, key, expected):
        # --s / --lambda set the list a verb sweeps (one value is a
        # one-point list) and the scalar on every other verb
        grid = [] if argv[0] == "effective-hopping" else ["--tmax", "0.5", "--dt", "0.05"]
        code = cli.main(argv + grid + ["--out", str(tmp_path)])
        assert code == 0
        echo = (tmp_path / "config_echo.cfg").read_text().splitlines()
        assert f"{key} = {expected}" in echo

    def test_single_value_sweep_writes_that_point(self, tmp_path):
        code = cli.main(["sweep-s", "--s", "5", "--tmax", "0.5", "--dt", "0.05",
                         "--out", str(tmp_path)])
        assert code == 0
        header, _ = read_csv(tmp_path / "fig2a.csv")
        assert header == ["t", "C_s=5"]

    @pytest.mark.parametrize("argv", [
        ["single", "--s", "1,10"],
        ["single", "--lambda", "1,2"],
        ["sweep-s", "--lambda", "1,2"],
        ["sweep-lambda", "--s", "1,2"],
        ["bangbang", "--s", "1,2"],
        ["oracle-compare", "--lambda", "0.1,0.2"],
    ])
    def test_list_on_scalar_verb_exit_code(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        # a comma list does not parse as the one number the verb reads
        assert re.search(r"flag: invalid value for '(s|lambda_g)': "
                         + re.escape(repr(argv[2])), record["message"])
        assert not (tmp_path / "config_echo.cfg").exists()

    @pytest.mark.parametrize("verb, key, list_key", [
        ("sweep-s", "s", "s_values"),
        ("effective-hopping", "s", "s_values"),
        ("sweep-lambda", "lambda_g", "lambda_values"),
        ("effective-hopping", "lambda_g", "lambda_values"),
    ])
    def test_swept_scalar_in_file_exit_code(self, tmp_path, capsys, verb, key, list_key):
        # the verb sweeps the list and never reads the scalar, so the error
        # names the list to set
        config = tmp_path / "f.cfg"
        config.write_text(f"{key} = 5\n")
        code = cli.main([verb, "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert f"{verb} does not read {key!r} (set {list_key} instead)" in record["message"]
        assert not (tmp_path / "config_echo.cfg").exists()

    def test_swept_scalar_with_list_in_file(self, tmp_path, capsys):
        # the scalar is refused even beside its list: an echo from an older
        # release, which named every key, exits 2 until the line is deleted
        config = tmp_path / "f.cfg"
        config.write_text("s = 5\ns_values = 2\n")
        code = cli.main(["sweep-s", "--config", str(config), "--tmax", "0.5",
                         "--dt", "0.05", "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert "sweep-s does not read 's' (set s_values instead)" in record["message"]
        assert not (tmp_path / "config_echo.cfg").exists()

    def test_oversized_oracle_refused_before_allocating(self):
        # at 2**40 modes, building any array of the mode count would fail
        with pytest.raises(ConfigError, match="exceeds cap"):
            cli.ExperimentConfig(mode="oracle-compare", n_modes=2**40, n_max=1)

    @pytest.mark.parametrize("argv, message", [
        (["effective-hopping", "--s=-1", "--lambda=-0.5"], "must be >= 0, got -"),
        (["sweep-s", "--s=-1,10"], "s must be >= 0, got -1.0"),
        (["sweep-lambda", "--lambda=-1,1"], "lambda_g must be >= 0, got -1.0"),
        (["oracle-compare", "--modes", "0"], "at least one bath mode is required"),
        (["bangbang", "--cycles", "4,0"], "cycles must be >= 1, got 0"),
        # a refused list value names the list the verb reads
        (["sweep-s", "--s=-1,10"], "in s_values: s must be >= 0, got -1.0"),
        (["sweep-lambda", "--lambda=-1,1"], "in lambda_values: lambda_g must be >= 0"),
        (["effective-hopping", "--s=1,-2"], "in s_values: s must be >= 0, got -2.0"),
    ])
    def test_out_of_range_refused_before_echo(self, tmp_path, capsys, argv, message):
        # list values are checked like scalars, before anything is written
        code = cli.main(argv + ["--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert message in record["message"]
        assert not (tmp_path / "config_echo.cfg").exists()

    @pytest.mark.parametrize("argv, key", [
        (["sweep-s", "--s=1,1"], "s_values"),
        (["sweep-s", "--s=1,1.0000000001"], "s_values"),
        (["sweep-lambda", "--lambda=2,0.5,2.0"], "lambda_values"),
        (["effective-hopping", "--lambda=0.5,0.5"], "lambda_values"),
        (["effective-hopping", "--s=10,10.0"], "s_values"),
    ])
    def test_repeated_sweep_value_refused(self, tmp_path, capsys, argv, key):
        # two values that print alike would share one column tag, and the
        # SVG would draw one series for both
        code = cli.main(argv + ["--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert f"{key} repeats a value" in record["message"]
        assert not (tmp_path / "config_echo.cfg").exists()

    @pytest.mark.parametrize("verb", ["oracle-compare", "bangbang"])
    def test_oversized_oracle_exit_code(self, tmp_path, capsys, verb):
        code = cli.main([verb, "--modes", "13", "--nmax", "1", "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "exceeds cap 4096" in record["message"]
        assert not (tmp_path / "config_echo.cfg").exists()

    def test_oracle_flags(self, tmp_path):
        code = cli.main(["bangbang", "--cycles", "4,8,16", "--modes", "2",
                         "--nmax", "4", "--out", str(tmp_path)])
        assert code == 0
        header, data = read_csv(tmp_path / "bangbang.csv")
        assert data.shape[0] == 3
        assert set(data[:, header.index("n_cycles")]) == {4.0, 8.0, 16.0}
        echo = (tmp_path / "config_echo.cfg").read_text()
        assert "n_max = 4" in echo

    def test_env_out_dir_via_main(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "envout"))
        code = cli.main(["single", "--s", "0", "--tmax", "1", "--dt", "0.01"])
        assert code == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()

    @pytest.mark.parametrize("key", ["omega_c", "geometry_factor", "jobs", "seed"])
    def test_removed_key_exit_code(self, tmp_path, capsys, key):
        config = tmp_path / "old.cfg"
        config.write_text(f"s = 1\n{key} = 2\n")
        code = cli.main(["single", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["message"] == f"line 2: unknown key '{key}'"
        assert not (tmp_path / "config_echo.cfg").exists()

    @pytest.mark.parametrize("argv", [
        ["selftest", "--s", "1"],
        ["selftest", "--lambda", "800", "--s", "3"],
        ["selftest", "--config", "/nonexistent"],
        ["selftest", "--svg"],
    ])
    def test_selftest_takes_no_flags(self, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2

    def test_removed_jobs_flag(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.main(["sweep-s", "--jobs", "2", "--out", str(tmp_path)])
        assert info.value.code == 2

    @pytest.mark.parametrize("exc,expected", [
        (cli.NumericalError("quadrature stalled"), 3),
        (cli.InvariantError("state went negative"), 4),
    ])
    def test_failure_exit_codes(self, tmp_path, monkeypatch, capsys, exc, expected):
        def boom(config):
            raise exc
        monkeypatch.setattr(cli, "run_experiment", boom)
        code = cli.main(["single", "--out", str(tmp_path)])
        assert code == expected
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == type(exc).__name__


    @pytest.mark.parametrize("argv", [
        ["single", "--s", "nan"],
        ["single", "--lambda", "nan"],
        ["single", "--j", "inf"],
        ["bangbang", "--lambda", "nan"],
        ["oracle-compare", "--s", "nan"],
        ["single", "--tmax", "inf"],
        ["single", "--tmax", "1e300", "--dt", "1e-300"],
    ])
    def test_non_finite_input_exit_code(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert not (tmp_path / "config_echo.cfg").exists()

    @pytest.mark.parametrize("line", ["rho_ss = nan", "re_rho_st = inf", "im_rho_st = nan"])
    def test_non_finite_state_exit_code(self, tmp_path, capsys, line):
        config = tmp_path / "state.cfg"
        config.write_text(line + "\n")
        code = cli.main(["single", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert line.split()[0] in record["message"]

    def test_non_finite_trajectory_exit_code(self, tmp_path, capsys):
        # exp(K_c) overflows at this coupling and the rates turn NaN
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["single", "--lambda", "800", "--s", "10", "--tmax", "1",
                             "--dt", "0.01", "--out", str(tmp_path)])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NumericalError"
        assert "non-finite state first at t=" in record["message"]
        assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("cls, code", [
    (cli.PolaronDecoError, 3), (cli.ConfigError, 2), (cli.NumericalError, 3),
    (cli.InvariantError, 4), (pd_errors.PositivityError, 4),
])
def test_exit_code_on_error_type(tmp_path, monkeypatch, capsys, cls, code):
    # the exit code lives on the class and a subclass inherits it
    assert cls.exit_code == code

    def boom(config):
        raise cls("failed")
    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["single", "--out", str(tmp_path)]) == code
    assert json.loads(capsys.readouterr().err) == {"error": cls.__name__, "message": "failed"}


# inputs at the edge of the run contract: (argv, config file text, exit
# code). A nonzero code is a refusal by a stated limit before the run can
# hang or allocate; exit 0 is a finite run
EXTREME_INPUTS = {
    # the closed-form kernel table is O(n) at any s: s near the float limit,
    # and s = 1e12, where the former quadrature table would have needed
    # 1.4e17 bytes, run to finite CSVs
    "huge-s": (["single", "--s=1e300", "--tmax", "1", "--dt", "0.5"], None, 0),
    "table-budget": (["single", "--s", "1e12"], None, 0),
    "table-budget-sweep": (["sweep-s", "--s=1,1e12"], None, 0),
    # the largest float s: the Dawson comb's node index once overflowed here
    "largest-s": (["single", "--s=1.7976931348623157e308", "--tmax", "1", "--dt", "0.5"],
                  None, 0),
    "largest-s-hopping": (["effective-hopping", "--s=1.7976931348623157e308"], None, 0),
    # a grid of 1.6e13 bytes
    "grid-points": (["single", "--tmax", "2e12", "--dt", "1"], None, 2),
    "huge-j": (["single", "--j", "1e200", "--tmax", "1", "--dt", "0.5"], None, 3),
    "huge-j-oracle": (["oracle-compare", "--j", "1e200", "--modes", "1", "--nmax", "1",
                       "--tmax", "1", "--dt", "0.5"], None, 3),
    "huge-total-time": (["bangbang"], "total_time = 1e15\n", 3),
    # a spectral radius whose two bounds are finite but 2e308 apart, and
    # radius * tau past the largest float
    "overflowing-j-oracle": (["oracle-compare", "--j", "1e308", "--modes", "1",
                              "--nmax", "1", "--tmax", "1", "--dt", "0.5"], None, 3),
    "overflowing-j-step": (["oracle-compare", "--j", "1e308", "--modes", "1",
                            "--nmax", "1", "--tmax", "4", "--dt", "2"], None, 3),
    "overflowing-j-bangbang": (["bangbang", "--j", "1e308", "--modes", "1", "--nmax", "1"],
                               None, 3),
    # a coupling whose mode couplings |g_j|^2 overflow: refused by name,
    # with no overflow warning before the record
    "overflowing-lambda-oracle": (["oracle-compare", "--lambda", "1e308", "--modes", "1",
                                   "--nmax", "1", "--tmax", "1", "--dt", "0.5"], None, 2),
    "overflowing-lambda-bangbang": (["bangbang", "--lambda", "1e308", "--modes", "1",
                                     "--nmax", "1"], None, 2),
    # bangbang's slope is fitted through three or more cycle counts, each at
    # a pulsed distance of at least 1e-12; a decoupled bath leaves none
    "one-cycle-count": (["bangbang", "--cycles", "1", "--nmax", "2"], None, 2),
    "two-cycle-counts": (["bangbang", "--cycles", "4,8", "--nmax", "2"], None, 2),
    "repeated-cycle-count": (["bangbang", "--cycles", "4,8,8", "--nmax", "2"], None, 2),
    "decoupled-bangbang": (["bangbang", "--lambda", "0", "--nmax", "2"], None, 3),
}


@pytest.mark.parametrize("name", list(EXTREME_INPUTS))
def test_extreme_input_exit_code(tmp_path, name):
    # a child process, so that a guard that fails to stop a hang fails the
    # timeout instead of stalling the suite; an overflow or NaN warning
    # fails it too
    argv, config_text, expected = EXTREME_INPUTS[name]
    if config_text:
        (tmp_path / "run.cfg").write_text(config_text)
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(__file__).resolve().parents[1] / "src"),
                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "polaron_deco.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == expected, proc.stderr[-2000:]
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if expected == 0:
        assert proc.stderr == ""
        assert sorted(Path(p).name for p in proc.stdout.split()) == written
        for csv in (out / f for f in written if f.endswith(".csv")):
            assert np.all(np.isfinite(read_csv(csv)[1])), csv.name
        return
    assert proc.stderr.count("\n") == 1, proc.stderr[-2000:]  # no warning before it
    record = json.loads(proc.stderr)  # one JSON record and nothing else
    assert record["error"] == ("ConfigError" if expected == 2 else "NumericalError")
    assert proc.stdout == ""
    assert written == ([] if expected == 2 else ["config_echo.cfg"])


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert cli.selftest()
        out = capsys.readouterr().out
        assert out.count("PASS") >= 7
        assert "SELFTEST exact-propagation: PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("name", ["dawson-vs-quadrature", "kernel-closed-form",
                                      "exact-propagation", "lang-firsov"])
    def test_selftest_catches_small_defects(self, monkeypatch, capsys, name):
        # each defect is far below the old 1e-9 / 1e-8 tolerances; the
        # displacement check fails on an inconclusive report alone, here its
        # tail of 4.8e-15 against a threshold lowered to 1e-15
        if name == "dawson-vs-quadrature":
            dawson_sine = cli.numerics.dawson_sine
            monkeypatch.setattr(cli.numerics, "dawson_sine",
                                lambda z: dawson_sine(z) * (1.0 + 1e-10))
        elif name == "kernel-closed-form":
            kernel_cos = cli.bath.kernel_cos
            monkeypatch.setattr(cli.bath, "kernel_cos",
                                lambda tau, model: kernel_cos(tau, model) + 1e-10)
        elif name == "exact-propagation":
            monkeypatch.setattr(cli.oracle, "SERIES_TOL", 1e-9)
        else:
            monkeypatch.setattr(cli.oracle, "TAIL_THRESHOLD", 1e-15)
        assert not cli.selftest()
        out = capsys.readouterr().out
        assert f"SELFTEST {name}: FAIL" in out
        assert out.count("FAIL") == 1

    def test_selftest_failure_writes_error_record(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.numerics, "dawson_sine", lambda z: 0.0)
        assert cli.main(["selftest"]) == 4
        captured = capsys.readouterr()
        assert "SELFTEST dawson-vs-quadrature: FAIL" in captured.out
        record = json.loads(captured.err.strip())
        assert record == {"error": "InvariantError",
                          "message": "selftest failed: dawson-vs-quadrature"}


# numpy is the only runtime dependency, while the test extra brings scipy
# into every environment the suite runs in; this child cannot import it
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
try:
    import scipy.special
except ImportError:
    pass
else:
    sys.exit("scipy is still importable")
from polaron_deco.cli import main
sys.exit(main(["selftest"]) or main(["effective-hopping", "--out", sys.argv[1]]))
"""


def test_runs_without_scipy(tmp_path):
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.count("PASS") >= 7 and "FAIL" not in proc.stdout
    assert (tmp_path / "fig1a.csv").exists() and (tmp_path / "fig1b.csv").exists()
