import math
import re
from pathlib import Path

import pytest

from tlsim.config import (
    SCHEMA,
    ConfigError,
    build_run_config,
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

    def test_unknown_key_in_a_value_mapping_rejected(self):
        # presets and other callers of build_run_config get the same check
        with pytest.raises(ConfigError, match="unknown key 'grid.nxx'"):
            build_run_config({"particle.lambda": 5e-12, "grid.nxx": 3})

    def test_missing_key_in_a_value_mapping_named(self):
        with pytest.raises(ConfigError) as err:
            build_run_config({})
        assert err.value.problems == [(0, "missing required key 'particle.lambda'")]
        # reported together with every other problem of the mapping
        with pytest.raises(ConfigError) as err:
            build_run_config({"grid.nx": 1, "grid.nxx": 3})
        msgs = [msg for _, msg in err.value.problems]
        assert "missing required key 'particle.lambda'" in msgs
        assert "unknown key 'grid.nxx'" in msgs
        assert any(msg.startswith("grid: ") for msg in msgs) and len(msgs) == 3

    def test_missing_key_reported_with_every_other_problem(self):
        text = "grid.nx = many\nbogus.key = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [
            (0, "missing required key 'particle.lambda'"),
            (1, "grid.nx: malformed integer 'many'"),
            (2, "unknown key 'bogus.key'"),
        ]

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
        rc = parse_config(MINIMAL + "source.xs_min = -4um\n")
        xs = rc.scenario.source.x_positions
        assert len(xs) == 33
        assert xs[0] == pytest.approx(-4e-6) and xs[-1] == pytest.approx(4e-6)

    @pytest.mark.parametrize("lines, last, count", [
        ("spectral.lambda_step = 0.3pm\n", 7.8e-12, 17),
        ("source.xs_min = 0\nsource.xs_max = 1um\n"
         "source.xs_step = 0.3um\n", 0.9e-6, 4),
        # one range or band key alone picks the line or the band
        ("source.xs_min = -2um\n", 4e-6, 25),
        ("spectral.mean = 4pm\n", 8e-12, 21),
    ])
    def test_range_stops_at_its_max(self, lines, last, count):
        src = parse_config(MINIMAL + lines).scenario.source
        vals = src.spectral.lambda_list if src.spectral else src.x_positions
        assert len(vals) == count and vals[-1] == pytest.approx(last, rel=1e-12)

    def test_range_entry_count_bounded(self):
        # 5001 positions: harmless to build, but past the 4096-entry cap
        with pytest.raises(ConfigError, match="give 5001 entries, more than 4096"):
            parse_config(MINIMAL + "source.xs_step = 1.6nm\n")

    @pytest.mark.parametrize("lines, message", [
        ("source.xs = 3um\nsource.xs_max = 5um\n", "source.xs sets a point, .* a line: set one"),
        ("source.sigma_i = 1um\n", "source.sigma_i needs a line source"),
        ("source.xs_min = 1um\nsource.xs_max = 1um\nsource.sigma_i = 1um\n",
         "source.sigma_i needs a line source"),
        ("source.zs = -inf\nsource.xs = 0\n", "source.xs does not reach the field of a paraxial"),
        ("source.zs = -inf\nsource.xs_min = -1um\nsource.xs_max = 1um\nsource.sigma_i = 1um\n",
         "the line source.xs_min/_max/_step does not reach the field of a paraxial"),
    ])
    def test_key_the_source_never_reads_rejected(self, lines, message):
        with pytest.raises(ConfigError, match=f"source: {message}"):
            parse_config(MINIMAL + lines)

    def test_spectral_band(self):
        rc = parse_config(
            MINIMAL
            + "spectral.mean = 5pm\nsource.zs = -inf\nscenario.region = behind\n"
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
        assert par.scenario.propagator == "standard" and par.scenario.source.paraxial
        hard = parse_config(MINIMAL + "grating1.comb_k = 16\ngrating1.comb_eta = 1.5\n")
        assert hard.scenario.propagator == "hard-edge"
        # comb_eta alone is a comb parameter too: the K = 1 comb is not the fuzzy slit
        k1 = parse_config(MINIMAL + "grating1.comb_eta = 1.5\n")
        assert k1.scenario.propagator == "hard-edge"

    def test_hard_edge_with_paraxial_source(self):
        rc = parse_config(MINIMAL + "source.zs = -inf\nscenario.region = behind\n"
                          "grid.z_min = 0.05\ngrating1.comb_k = 16\ngrating1.comb_eta = 1.5\n")
        assert rc.scenario.propagator == "hard-edge" and rc.scenario.source.paraxial

    @pytest.mark.parametrize("lines", [
        "scenario.propagator = standard\ngrating1.comb_k = 16\n",
        "scenario.propagator = paraxial\n",
    ])
    def test_ignored_or_removed_selector_rejected(self, lines):
        # grating 1's comb is the slit model: no selector line can override it
        with pytest.raises(ConfigError, match="line 2: unknown key 'scenario.propagator'"):
            parse_config(MINIMAL + lines)

    @pytest.mark.parametrize("key, value", [
        ("output.log_scale", "true"), ("sweep.param", "lambda"), ("sweep.values", "3pm, 5pm"),
        ("scenario.propagator", "hard-edge"), ("source.kind", "line"), ("spectral.enabled", "true"),
    ])
    def test_run_options_are_not_config_keys(self, key, value):
        # --log-scale and scan --param/--values are the only way to set the
        # first three; grating 1's comb_k/comb_eta pick the slit model, and
        # the range and band keys a config sets pick its source
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(MINIMAL + f"{key} = {value}\n")

    def test_unknown_output_format_names_its_line(self):
        with pytest.raises(ConfigError, match="line 2: output.formats: unknown output format 'png'"):
            parse_config(MINIMAL + "output.formats = csv, png\n")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_k1_sweep_value_rejected(self, value):
        scn = parse_config(MINIMAL).scenario
        with pytest.raises(DomainError, match="finite"):
            apply_sweep_value(scn, "K1", value)
        assert apply_sweep_value(scn, "K1", 4.0).grating1.comb_k == 4

    def test_comb_k_bounded(self):
        # the bound is checked on the spec alone: no value here allocates anything
        scn = parse_config(MINIMAL).scenario
        assert apply_sweep_value(scn, "K1", 4096).grating1.comb_k == 4096
        for value in (4097, 1e300):
            with pytest.raises(DomainError, match=r"comb_k must be in \[1, 4096\]"):
                apply_sweep_value(scn, "K1", value)
        with pytest.raises(ConfigError, match=r"grating1: comb_k must be in \[1, 4096\], got 100000000"):
            parse_config(MINIMAL + "grating1.comb_k = 100000000\n")

    @pytest.mark.parametrize("param, value", [("K1", 4), ("eta1", 1.5)])
    def test_comb_sweeps_select_hard_edge(self, param, value):
        scn = parse_config(MINIMAL).scenario
        assert scn.propagator == "standard"
        assert apply_sweep_value(scn, param, value).propagator == "hard-edge"

    @pytest.mark.parametrize("param, value", [("K1", 4), ("eta1", 1.5)])
    def test_comb_sweep_on_paraxial_scenario_accepted(self, param, value):
        scn = parse_config(
            MINIMAL + "source.zs = -inf\nscenario.region = behind\ngrid.z_min = 0.05\n"
        ).scenario
        swept = apply_sweep_value(scn, param, value)
        assert swept.propagator == "hard-edge" and swept.source.paraxial
        assert (swept.grating1.comb_k, swept.grating1.comb_eta) == (
            (4, 1.0) if param == "K1" else (1, 1.5))

    def test_zs_sweep_crosses_paraxial_limit(self):
        scn = parse_config(MINIMAL).scenario
        par = apply_sweep_value(scn, "zs", -math.inf)
        assert par.source.paraxial and par.propagator == "standard"
        assert apply_sweep_value(par, "zs", -0.5) == scn

    def test_zs_sweep_to_paraxial_on_line_rejected(self):
        # the rule build_run_config applies to a line on a paraxial source
        scn = parse_config(MINIMAL + "source.xs_min = -1um\nsource.xs_max = 1um\n"
                           "source.sigma_i = 1um\n").scenario
        assert scn.source.gsm
        with pytest.raises(DomainError, match="paraxial source"):
            apply_sweep_value(scn, "zs", -math.inf)
        assert apply_sweep_value(scn, "zs", -50.0).source.z_s == -50.0

    def test_xs_sweep_on_paraxial_scenario_rejected(self):
        scn = parse_config(
            MINIMAL + "source.zs = -inf\nscenario.region = behind\ngrid.z_min = 0.05\n"
        ).scenario
        with pytest.raises(DomainError, match="paraxial source"):
            apply_sweep_value(scn, "xs", 2e-6)

    @pytest.mark.parametrize("line, section", [
        ("grating1.pitch = inf", "grating1"),
        ("grating0.half_width = inf", "grating0"),
        ("grating1.z = inf", "grating1"),
        ("grid.x_min = -inf", "grid"),
        ("grid.z_max = inf", "grid"),
        ("grating1.comb_k = 3\ngrating1.comb_eta = 1e400", "grating1"),
        ("source.xs = inf", "source"),
        ("spectral.mean = inf", "source"),
        ("source.xs_min = -inf", "source"),
        ("source.xs_step = inf", "source"),
        ("source.xs_min = -1e308\nsource.xs_max = 1e308", "source"),
        ("spectral.lambda_max = inf", "source"),
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


# A token such as ``.sweep.csv`` belongs to a file name, not a key.
_README_KEY = re.compile(
    r"(?<![\w.])(?:particle|grating[01]|source|spectral|scenario|grid|output|sweep)\.\w+"
)


def test_readme_names_only_schema_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tokens = set(_README_KEY.findall(readme))
    assert tokens, "the key pattern no longer matches the README"
    assert sorted(tokens - set(SCHEMA)) == []
