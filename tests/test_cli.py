import numpy as np
import pytest

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
spectral.enabled = true
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
        "spectral.enabled = true\nspectral.mean = inf",
        "grating1.comb_k = 3\ngrating1.comb_eta = 1e400",
        "source.kind = line\nsource.xs_min = -inf",
        "spectral.enabled = true\nspectral.lambda_max = inf",
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
            "particle.lambda = 5pm\nsource.kind = line\n"
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
        code = main([
            "scan", "--config", str(config_file), "--out", str(tmp_path),
            "--param", "lambda", "--values", " ",
        ])
        assert code == 1
        assert "empty sweep value list" in capsys.readouterr().err

    @pytest.mark.parametrize("values, message", [
        ("inf", "finite"),
        ("1e400", "finite"),
        ("2,inf", "finite"),
        ("nan", "malformed length"),
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

    def test_spectral_config_reports_averaged_metrics(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(SPECTRAL_CONFIG)
        out = tmp_path / "s"
        code = main([
            "scan", "--config", str(cfg), "--out", str(out),
            "--param", "sigma_I", "--values", "1um", "--samples", "256",
        ])
        assert code == 0
        row = np.loadtxt(out / "spec.sweep.csv", delimiter=",", skiprows=1)
        scn = apply_sweep_value(parse_config(SPECTRAL_CONFIG).scenario, "sigma_I", 1e-6)
        x = centered_axis(*scn.metrics_window(), 256)
        met = fringe_metrics(spectral_density_profile(scn, x, scn.z0 + scn.z_talbot))
        assert met.visibility < 0.95  # the monochromatic profile has V = 1
        assert tuple(row[1:]) == (met.p_min, met.p_max, met.visibility)

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

    def test_non_sweepable_parameter(self, config_file, tmp_path, capsys):
        code = main([
            "scan", "--config", str(config_file), "--out", str(tmp_path),
            "--param", "pitch", "--values", "1um",
        ])
        assert code == 1
        assert "not sweepable" in capsys.readouterr().err


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        assert main(["oracle-check", "--cases", "3"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "OK" in out


class TestHelp:
    def test_run_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert "particle.lambda" in text
        assert "grid.nx" in text
        assert "default" in text
