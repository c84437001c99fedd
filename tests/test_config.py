import math

import pytest

from tlsim.config import (
    SCHEMA,
    ConfigError,
    config_help,
    parse_config,
    parse_length,
)
from tlsim.core import DomainError
from tlsim.scenario import apply_sweep_value

MINIMAL = "particle.lambda = 5pm\n"


class TestParseLength:
    @pytest.mark.parametrize("text,expect", [
        ("500nm", 5e-7),
        ("5pm", 5e-12),
        ("0.25um", 0.25e-6),
        ("0.25µm", 0.25e-6),
        ("0.25μm", 0.25e-6),
        ("50mm", 0.05),
        ("0.1m", 0.1),
        ("0.1", 0.1),
        ("-0.5m", -0.5),
        ("2.5e-12", 2.5e-12),
        ("inf", math.inf),
        ("-inf", -math.inf),
    ])
    def test_values(self, text, expect):
        assert parse_length(text) == expect

    @pytest.mark.parametrize("text", ["12 parsecs", "nm500", "1.2.3m", "", "5 km"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_length(text)


class TestParseConfig:
    def test_minimal_with_defaults(self):
        rc = parse_config(MINIMAL)
        scn = rc.scenario
        assert scn.particle.lambda_dB == 5e-12
        assert scn.grating0.n_slits == 32
        assert scn.grating1.z_pos == 0.05
        assert scn.source.kind == "point"
        assert rc.grid.nx == 800 and rc.grid.nz == 600
        assert rc.formats == ("csv", "pgm", "meta")
        assert rc.sweep_param is None

    def test_unit_suffix_on_pitch(self):
        rc = parse_config(MINIMAL + "grating1.pitch = 500nm\n")
        assert rc.scenario.grating1.pitch == 5e-7

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="particle.lambda"):
            parse_config("grating0.slits = 8\n")

    def test_source_before_grating_invariant(self):
        with pytest.raises(ConfigError, match="source must precede grating G0"):
            parse_config(MINIMAL + "source.zs = 0.1\n")

    def test_unknown_key_rejected(self):
        # G0 is always a fuzzy slit, so its comb keys are unknown too
        for key, value in (("grating2.pitch", "500nm"), ("grating0.comb_k", "1"),
                           ("grating0.comb_eta", "1.5")):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(MINIMAL + f"{key} = {value}\n")

    def test_all_problems_reported_with_line_numbers(self):
        text = "particle.lambda = 5parsec\nbogus.key = 1\ngrating0.slits = many\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "line 1" in msg and "line 2" in msg and "line 3" in msg
        assert len(err.value.problems) == 3

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(MINIMAL + "grid.nx = 4\ngrid.nx = 8\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(MINIMAL + "this is not a config line\n")

    def test_comments_and_blanks_ignored(self):
        rc = parse_config("# header\n\n" + MINIMAL + "grid.nx = 16  # inline\n")
        assert rc.grid.nx == 16

    def test_line_source_positions(self):
        rc = parse_config(MINIMAL + "source.kind = line\n")
        xs = rc.scenario.source.x_positions
        assert len(xs) == 33
        assert xs[0] == pytest.approx(-4e-6) and xs[-1] == pytest.approx(4e-6)

    def test_spectral_band(self):
        rc = parse_config(
            MINIMAL
            + "spectral.enabled = true\nsource.zs = -inf\nscenario.region = behind\n"
            + "grid.z_min = 0.05\n"
        )
        band = rc.scenario.source.spectral.lambda_list
        assert len(band) == 21
        assert band[0] == pytest.approx(3e-12) and band[-1] == pytest.approx(8e-12)

    def test_propagator_auto_resolution(self):
        assert parse_config(MINIMAL).scenario.propagator == "standard"
        par = parse_config(
            MINIMAL + "source.zs = -inf\nscenario.region = behind\ngrid.z_min = 0.05\n"
        )
        assert par.scenario.propagator == "paraxial"
        hard = parse_config(MINIMAL + "grating1.comb_k = 16\ngrating1.comb_eta = 1.5\n")
        assert hard.scenario.propagator == "hard-edge"

    def test_explicit_propagator_kept(self):
        rc = parse_config(MINIMAL + "scenario.propagator = hard-edge\n")
        assert rc.scenario.propagator == "hard-edge"

    def test_sweep_descriptor(self):
        rc = parse_config(MINIMAL + "sweep.param = lambda\nsweep.values = 3pm, 5pm, 7pm\n")
        assert rc.sweep_param == "lambda"
        assert rc.sweep_values == (3e-12, 5e-12, 7e-12)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_k1_sweep_value_rejected(self, value):
        scn = parse_config(MINIMAL).scenario
        with pytest.raises(DomainError, match="finite"):
            apply_sweep_value(scn, "K1", value)
        assert apply_sweep_value(scn, "K1", 4.0).grating1.comb_k == 4

    def test_sweep_values_need_param(self):
        with pytest.raises(ConfigError, match="sweep.values given without sweep.param"):
            parse_config(MINIMAL + "sweep.values = 1um\n")

    @pytest.mark.parametrize("line, section", [
        ("grating1.pitch = inf", "grating1"),
        ("grating0.half_width = inf", "grating0"),
        ("grating1.z = inf", "grating1"),
        ("grid.x_min = -inf", "grid"),
        ("grid.z_max = inf", "grid"),
        ("grating1.comb_k = 3\ngrating1.comb_eta = 1e400", "grating1"),
        ("source.xs = inf", "source"),
        ("spectral.enabled = true\nspectral.mean = inf", "source"),
        ("source.kind = line\nsource.xs_min = -inf", "source"),
        ("source.kind = line\nsource.xs_step = inf", "source"),
        ("source.kind = line\nsource.xs_min = -1e308\nsource.xs_max = 1e308", "source"),
        ("spectral.enabled = true\nspectral.lambda_max = inf", "source"),
    ])
    def test_non_finite_geometry_rejected(self, line, section):
        with pytest.raises(ConfigError, match=f"{section}: .*finite"):
            parse_config(MINIMAL + line + "\n")

    def test_multiple_invariant_violations_collected(self):
        text = MINIMAL + "source.zs = 0.1\ngrid.nx = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.problems) >= 2

    def test_help_lists_every_key(self):
        text = config_help()
        for key in SCHEMA:
            assert key in text
        assert "(required)" in text
