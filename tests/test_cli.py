import math
import os

import numpy as np
import pytest

from tlsim import fieldgrid, parallel
from tlsim.cli import main
from tlsim.coherence import fringe_metrics, spectral_density_profile
from tlsim.config import parse_config
from tlsim.core import centered_axis
from tlsim.fieldgrid import parse_csv, read_pgm
from tlsim.presets import PRESETS
from tlsim.scenario import apply_sweep_value

SPECTRAL_CONFIG = """\
particle.lambda = 5pm
source.zs = -inf
grating0.slits = 8
grating1.slits = 9
spectral.mean = 5pm
"""

PARAXIAL_8_9 = """\
particle.lambda = 5pm
source.zs = -inf
grating0.slits = 8
grating1.slits = 9
"""

SMALL_CONFIG = """\
# small two-grating run
particle.lambda = 5pm
grating0.slits = 4
grating1.slits = 3
grid.x_min = -2um
grid.x_max = 2um
grid.z_min = 0
grid.z_max = 0.12
grid.nx = 24
grid.nz = 10
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return path


class TestRun:
    def test_writes_all_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "small.field.csv").exists()
        assert (out / "small.field.pgm").exists()
        assert (out / "small.meta.txt").exists()
        x, z, p = parse_csv(out / "small.field.csv")
        assert len(p) == 24 * 10
        pix = read_pgm(out / "small.field.pgm")
        assert pix.shape == (10, 24)
        assert pix.max() == 65535
        captured = capsys.readouterr().out
        assert "p_max" in captured

    def test_threads_give_identical_csv(self, config_file, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(config_file), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(out2), "--threads", "2"]) == 0
        assert (out1 / "small.field.csv").read_bytes() == (out2 / "small.field.csv").read_bytes()

    def test_bad_config_lists_problems(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("particle.lambda = 5parsec\nnonsense.key = 3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "line 2" in err

    @pytest.mark.parametrize("line", [
        "grid.x_min = -inf",
        "grating1.pitch = inf",
        "source.xs = inf",
        "spectral.mean = inf",
        "grating1.comb_k = 3\ngrating1.comb_eta = 1e400",
        "source.xs_min = -inf",
        "spectral.lambda_max = inf",
    ])
    def test_non_finite_geometry_exits_1_without_files(self, tmp_path, capsys, line):
        cfg = tmp_path / "inf.cfg"
        key = line.split("=")[0]
        kept = [ln for ln in SMALL_CONFIG.splitlines() if not ln.startswith(key)]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_paraxial_comb_runs(self, tmp_path):
        cfg = tmp_path / "comb.cfg"
        cfg.write_text(SMALL_CONFIG + "source.zs = -inf\ngrating1.comb_k = 16\n"
                       "grating1.comb_eta = 1.5\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, p = parse_csv(out / "comb.field.csv")
        assert len(p) == 24 * 10 and np.all(np.isfinite(p))
        assert "scenario.propagator = hard-edge" in (out / "comb.meta.txt").read_text()

    @pytest.mark.parametrize("fmt, written", [
        ("pgm", ["small.field.pgm"]),
        ("meta", ["small.meta.txt"]),
    ])
    def test_formats_key_selects_outputs(self, tmp_path, fmt, written):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CONFIG + f"output.formats = {fmt}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == written

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1


class TestPreset:
    def test_small_field_preset(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(["preset", "fig10b", "--out", str(out), "--nx", "32", "--nz", "12"])
        assert code == 0
        assert (out / "fig10b.field.csv").exists()
        assert (out / "fig10b.field.pgm").exists()
        assert (out / "fig10b.meta.txt").exists()

    def test_run_matches_preset_bit_for_bit(self, tmp_path, capsys):
        # a config holding fig10b's values, run through `tlsim run`
        vals = {"particle.lambda": 5e-12, **PRESETS["fig10b"]["config"], "grid.nx": 24, "grid.nz": 8}
        cfg = tmp_path / "fig10b.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in vals.items()))
        run_out, pre_out = tmp_path / "run", tmp_path / "preset"
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        assert main(["preset", "fig10b", "--out", str(pre_out), "--nx", "24", "--nz", "8"]) == 0
        for ext in ("field.csv", "field.pgm"):
            assert (run_out / f"fig10b.{ext}").read_bytes() == (pre_out / f"fig10b.{ext}").read_bytes()
        run_meta = (run_out / "fig10b.meta.txt").read_text().splitlines()
        pre_meta = (pre_out / "fig10b.meta.txt").read_text().splitlines()
        assert [ln for ln in pre_meta if not ln.startswith("note = ")] == run_meta
        assert len(pre_meta) == len(run_meta) + 1

    def test_unknown_preset_lists_names(self, tmp_path, capsys):
        assert main(["preset", "fig99", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "fig4a" in err and "fig19d" in err

    def test_contrast_preset_reports_peaks(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["preset", "fig17", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "K1=16" in text
        assert (out / "fig17.contrast_k16.csv").exists()
        assert (out / "fig17.meta.txt").exists()


class TestScan:
    def test_lambda_scan_peaks_at_resonance(self, config_file, tmp_path, capsys):
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(config_file), "--out", str(out),
            "--param", "lambda", "--values", "3pm,5pm,7pm", "--samples", "256",
        ])
        assert code == 0
        rows = np.loadtxt(out / "small.sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 4)
        assert int(np.argmax(rows[:, 2])) == 1  # P_max maximal at 5 pm

    def test_sigma_scan_visibility_ascends(self, tmp_path):
        cfg = tmp_path / "line.cfg"
        cfg.write_text(
            "particle.lambda = 5pm\n"
            "source.xs_min = -1um\nsource.xs_max = 1um\nsource.xs_step = 0.25um\n"
            "grating0.slits = 8\ngrating1.slits = 9\n"
        )
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "sigma_I", "--values", "0.1um,1um,10um", "--samples", "512",
        ])
        assert code == 0
        rows = np.loadtxt(out / "line.sweep.csv", delimiter=",", skiprows=1)
        vis = rows[:, 3]
        assert vis[0] <= vis[1] <= vis[2]

    def test_per_value_field_export(self, config_file, tmp_path):
        out = tmp_path / "sf"
        code = main([
            "scan", "--config", str(config_file), "--out", str(out),
            "--param", "lambda", "--values", "4pm,5pm", "--samples", "64", "--fields",
        ])
        assert code == 0
        assert (out / "small.lambda_0.field.pgm").exists()
        assert (out / "small.lambda_1.field.pgm").exists()

    def test_empty_values_rejected(self, config_file, tmp_path, capsys):
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(config_file), "--out", str(out),
            "--param", "lambda", "--values", " ",
        ])
        assert code == 1
        assert "error: lambda sweep values must not be empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--param", "--values"])
    def test_param_and_values_required(self, config_file, tmp_path, capsys, flag):
        argv = ["scan", "--config", str(config_file), "--out", str(tmp_path / "s"),
                "--param", "lambda", "--values", "5pm"]
        i = argv.index(flag)
        with pytest.raises(SystemExit) as err:
            main(argv[:i] + argv[i + 2:])
        assert err.value.code == 2
        assert f"the following arguments are required: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("values, message", [
        ("inf", "finite"),
        ("1e400", "finite"),
        ("2,inf", "finite"),
        ("nan", "malformed length"),
        ("1e300", "error: comb_k must be in [1, 4096], got 1"),  # finite, whole, never built
    ])
    def test_bad_k1_values_exit_1_without_files(self, config_file, tmp_path, capsys, values, message):
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(config_file), "--out", str(out),
            "--param", "K1", "--values", values, "--samples", "16",
        ])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_k1_scan_rows_differ(self, tmp_path):
        cfg = tmp_path / "small45.cfg"
        cfg.write_text(SMALL_CONFIG.replace("grating1.slits = 3", "grating1.slits = 5"))
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "K1", "--values", "1,4,16", "--samples", "64",
        ])
        assert code == 0
        rows = np.loadtxt(out / "small45.sweep.csv", delimiter=",", skiprows=1)
        assert len({tuple(r[1:]) for r in rows}) == 3

    def test_k1_scan_on_paraxial_config(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(PARAXIAL_8_9)
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "K1", "--values", "1,4", "--samples", "64",
        ])
        assert code == 0
        rows = np.loadtxt(out / "p.sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2, 4)

    def test_spectral_config_reports_averaged_metrics(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(SPECTRAL_CONFIG)
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "zs", "--values", "-inf", "--samples", "256",
        ])
        assert code == 0
        row = np.loadtxt(out / "spec.sweep.csv", delimiter=",", skiprows=1)
        scn = apply_sweep_value(parse_config(SPECTRAL_CONFIG).scenario, "zs", -math.inf)
        x = centered_axis(*scn.metrics_window(), 256)
        met = fringe_metrics(spectral_density_profile(scn, x, scn.z0 + scn.z_talbot))
        assert met.visibility < 0.95  # the monochromatic profile has V = 1
        assert tuple(row[1:]) == (met.p_min, met.p_max, met.visibility)

    def test_zs_scan_reaches_paraxial_limit(self, tmp_path):
        # zs values are negative: the space-separated form must still parse
        cfg = tmp_path / "z.cfg"
        cfg.write_text(PARAXIAL_8_9.replace("source.zs = -inf", "source.zs = -0.5"))
        par = tmp_path / "p.cfg"
        par.write_text(PARAXIAL_8_9)
        common = ["--param", "zs", "--samples", "64"]
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "a"),
                     "--values", "-0.5,-50,-inf", *common]) == 0
        assert main(["scan", "--config", str(par), "--out", str(tmp_path / "b"),
                     "--values", "-inf", *common]) == 0
        rows = (tmp_path / "a" / "z.sweep.csv").read_text().splitlines()
        [one] = (tmp_path / "b" / "p.sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and rows[-1] == one
        assert len(set(rows[1:])) == 3

    def test_zs_to_paraxial_on_line_config_exits_1_without_files(self, tmp_path, capsys):
        cfg = tmp_path / "line.cfg"
        cfg.write_text(PARAXIAL_8_9.replace("source.zs = -inf", "source.zs = -0.5")
                       + "source.xs_min = -1um\nsource.xs_max = 1um\nsource.xs_step = 0.5um\n"
                       + "source.sigma_i = 1um\n")
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "zs", "--values", "-0.5,-inf", "--samples", "16",
        ])
        assert code == 1
        assert "paraxial source" in capsys.readouterr().err
        assert not out.exists()

    def test_xs_on_paraxial_config_exits_1_without_files(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(PARAXIAL_8_9)
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "xs", "--values", "0um,2um", "--samples", "16",
        ])
        assert code == 1
        assert "paraxial source" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_on_spectral_config_exits_1_without_files(self, tmp_path, capsys):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(SPECTRAL_CONFIG)
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "lambda", "--values", "4pm,5pm", "--samples", "16",
        ])
        assert code == 1
        assert "spectrum fixes the wavelengths" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_on_point_config_exits_1_without_files(self, config_file, tmp_path, capsys):
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(config_file), "--out", str(out),
            "--param", "sigma_I", "--values", "0.1um,10um", "--samples", "16",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "sigma_I can only be swept on a line source of two or more positions" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_plane_outside_region_exits_1_without_files(self, tmp_path, capsys):
        cfg = tmp_path / "between.cfg"
        cfg.write_text(SMALL_CONFIG + "scenario.region = between\n")
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "lambda", "--values", "4pm,5pm", "--samples", "16",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert ("the Talbot plane z0 + z_T at z = 0.1 m lies outside the scenario's "
                "between region (0 <= z <= 0.05 m)") in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_non_sweepable_parameter(self, config_file, tmp_path, capsys):
        code = main([
            "scan", "--config", str(config_file), "--out", str(tmp_path),
            "--param", "pitch", "--values", "1um",
        ])
        assert code == 1
        assert "not sweepable" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["run", "--config", "CFG"],
    ["preset", "fig11"],
    ["scan", "--config", "CFG", "--param", "lambda", "--values", "4pm,5pm", "--samples", "16", "--fields"],
], ids=["run", "preset", "scan"])
def test_bad_threads_exit_1_without_files(config_file, tmp_path, capsys, command, threads):
    out = tmp_path / "o"
    argv = [str(config_file) if a == "CFG" else a for a in command]
    assert main(argv + ["--out", str(out), "--threads", threads]) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run", "--config", "CFG"],
    ["preset", "fig11"],
    ["scan", "--config", "CFG", "--param", "lambda", "--values", "4pm,5pm", "--samples", "16", "--fields"],
], ids=["run", "preset", "scan"])
def test_threads_environment_variable_is_ignored(config_file, tmp_path, monkeypatch, command):
    # --threads is the only way to set the worker count
    argv = [str(config_file) if a == "CFG" else a for a in command]
    outputs = []
    for env in (None, "0"):
        if env is None:
            monkeypatch.delenv("TLSIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("TLSIM_THREADS", env)
        out = tmp_path / f"o{len(outputs)}"
        assert main(argv + ["--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[1] == outputs[0]


def _die(*args):
    os._exit(3)


def _interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("task, message", [
    (_die, "error: a worker process died"),
    (_interrupt, "error: interrupted"),
], ids=["dead-worker", "ctrl-c"])
def test_pool_failure_exits_1_without_traceback(config_file, tmp_path, capfd, monkeypatch,
                                                task, message):
    # both run in a real 2-process pool; the interrupt comes back as a task's result
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(fieldgrid, "_eval_rows", task)
    argv = ["run", "--config", str(config_file), "--out", str(tmp_path / "o"), "--threads", "2"]
    assert main(argv) == 1
    err = capfd.readouterr().err
    assert message in err and "Traceback" not in err
    assert parallel._pool is None


@pytest.mark.parametrize("region, grid_line, command", [
    ("between", "grid.z_max = 0.12", ["run"]),
    ("behind", "grid.z_min = 0", ["scan", "--param", "lambda", "--values", "4pm,5pm",
                                  "--samples", "16", "--fields"]),
], ids=["run-between", "scan-fields-behind"])
def test_region_grid_mismatch_exits_1_before_output(tmp_path, capsys, region, grid_line, command):
    cfg = tmp_path / "region.cfg"
    assert grid_line in SMALL_CONFIG
    cfg.write_text(SMALL_CONFIG + f"scenario.region = {region}\n")
    out = tmp_path / "o"
    assert main([command[0], "--config", str(cfg), "--out", str(out)] + command[1:]) == 1
    captured = capsys.readouterr()
    assert f"{region}-region grid" in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        assert main(["oracle-check", "--cases", "3"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "OK" in out

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_no_cases_exits_1(self, capsys, cases):
        assert main(["oracle-check", "--cases", cases]) == 1
        captured = capsys.readouterr()
        assert "--cases must be >= 1" in captured.err
        assert "OK" not in captured.out


class TestHelp:
    def test_run_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert "particle.lambda" in text
        assert "grid.nx" in text
        assert "default" in text
