import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import polaron_deco.cli as cli
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
            replace(cli.parse_config(), **{key: ()}).validate()

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

    def test_svg_emission(self, tmp_path):
        cfg = cli.parse_config(flags={"s": "1", "t_max": "2", "dt": "0.01",
                                      "svg": "true", "out_dir": str(tmp_path)})
        written = cli.run_experiment(cfg)
        svg = tmp_path / "trajectory.svg"
        assert str(svg) in written
        body = svg.read_text()
        assert body.startswith("<svg ")
        assert "polyline" in body

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
        code = cli.main(argv + ["--tmax", "0.5", "--dt", "0.05",
                                "--out", str(tmp_path)])
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
        assert "takes one value" in record["message"]
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
        assert f"line 2: key '{key}' was removed" in record["message"]
        assert not (tmp_path / "config_echo.cfg").exists()

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


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert cli.selftest()
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "FAIL" not in out

    def test_selftest_failure_writes_error_record(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.numerics, "dawson_sine", lambda z: 0.0)
        assert cli.main(["selftest"]) == 4
        captured = capsys.readouterr()
        assert "SELFTEST dawson-vs-quadrature: FAIL" in captured.out
        record = json.loads(captured.err.strip())
        assert record == {"error": "InvariantError",
                          "message": "selftest failed: dawson-vs-quadrature"}
