import os

import numpy as np
import pytest

from tlsim import coherence, parallel, presets
from tlsim.coherence import resonance_plane, talbot_plane, talbot_section
from tlsim.core import DomainError, centered_axis
from tlsim.presets import PRESETS, preset_names, preset_run_config, run_preset
from tlsim.scenario import fingerprint

EXPECTED_NAMES = [
    "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c", "fig6", "fig7",
    "fig8a", "fig8b", "fig9", "fig10a", "fig10b", "fig10c", "fig11", "fig12",
    "fig14a", "fig14b", "fig14c", "fig15a", "fig15b", "fig16", "fig17",
    "fig19a", "fig19b", "fig19c", "fig19d",
]


# sha256 of scenario_lines + grid lines.  The benchmark compares each preset's
# meta fingerprint exactly, so any change to the echo moves its references.
FINGERPRINTS = {
    "fig4a": "ce578d5190f013860ae749ac6c24168387c0a6319df3c67a919af286aedd6f8e",
    "fig4b": "b6a1fb9905f4a61c82921312cc0c7bf07c3c47f49f509f546b6bb752456e8452",
    "fig4c": "6297a215ad2bccc6271983440586cc0464c2a708ad55893f57f79d8092d9e85d",
    "fig5a": "73b7266d3b4ea23b189d9b3d1c1781fce3e4928499c2bff1528790c184ddf978",
    "fig5b": "2cb099ea6e2bed020633698d818a7338a49f68dc14d5bf19ee9e4e6ec49286a8",
    "fig5c": "717b9693c81321a85185e9972a369b465ae848d19ec5c9a296d448e8460807e2",
    "fig6": "5fcf33265c1c04289958af83f9a256b760c1c2c9f578eefe40bf10556f133f18",
    "fig7": "5fcf33265c1c04289958af83f9a256b760c1c2c9f578eefe40bf10556f133f18",
    "fig8a": "ef5ba476b537e29a794b8a6f241c7c382b4c026d88d63384094d66f6df94cbe8",
    "fig8b": "17ed7d5898ccbb3412e4a6737ab2387794e39cffb670fbf55b9726b4dcdaf922",
    "fig9": "fc8b9d93d6ab20f3cb73f5ceae185e2577e6fca93b465c75dc4629975e090af8",
    "fig10a": "d3e0974cb77b427a41d41a7fc24494e837b89ab2b1c17795296c91e410769eb3",
    "fig10b": "193a56d5e1d84ef632b41b40e95773a6c68a2110cec24e3a0571a11e1e751231",
    "fig10c": "bda4a07a0b0c48454d836d047d8006dc7187addc5373bed45d2a4a3168dd5c95",
    "fig11": "b9b6724f57928557e6335187818b78e562ed9f2a9969ccc75cdf7aff6cd6cc48",
    "fig12": "fcc567472b9317b2391ae3534b2010eaac3c3438f0362d84ddd8f2ad38ecbfb4",
    "fig14a": "1bf80df78c6df16eda609487a8932e3ac62901d92a797971631082443fe441ff",
    "fig14b": "e3ef3743fa03dc359ce30a42ed68578d9c27e8232e0d4c8e010754b44c8dc6f5",
    "fig14c": "3d646fda7bbb8a36e8e72a12c3fcdff6514cfb35500e4607c12dbc50112883b6",
    "fig15a": "76b509b9011ad1b318dc811e7c990dc0eb95c4342e86da184f271b8b25e3c174",
    "fig15b": "4b24123ed9ccdb38bd3b350aeeda9307d05c1e8f3a798fac635e67ecf9e700d5",
    "fig16": "4b24123ed9ccdb38bd3b350aeeda9307d05c1e8f3a798fac635e67ecf9e700d5",
    "fig17": "76b509b9011ad1b318dc811e7c990dc0eb95c4342e86da184f271b8b25e3c174",
    "fig19a": "a7e4272528222ad5cadc937a4159c2966679c68ab678fbf1272a7dcfde89379c",
    "fig19b": "c4e1df07c2555e5ca53035720ad51345d044236bc09039014a22fdad1a403f81",
    "fig19c": "a26bc804b594bb277ed5b0c184c7d8225014729ce8d7f8221cad4b487bdf3198",
    "fig19d": "2821ebcb0e8152e96e43b3712db1ee6647634e86950d90d30e46ef5074ff41fe",
}


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_preset_fingerprint_pinned(name):
    rc = preset_run_config(name)
    assert fingerprint(rc.scenario, rc.grid.lines()) == FINGERPRINTS[name]


def test_preset_catalog_complete():
    assert preset_names() == sorted(EXPECTED_NAMES)


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_every_preset_config_builds(name):
    rc = preset_run_config(name)
    assert rc.scenario.particle.lambda_dB > 0
    assert rc.grid.nx >= 2


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(DomainError, match="fig4a"):
        preset_run_config("fig0")
    with pytest.raises(DomainError):
        run_preset("fig0", tmp_path)


def test_field_preset_fingerprint_regenerable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_preset("fig10b", out1, nx=24, nz=8, echo=lambda *_: None)
    run_preset("fig10b", out2, nx=24, nz=8, echo=lambda *_: None)
    meta1 = (out1 / "fig10b.meta.txt").read_text()
    meta2 = (out2 / "fig10b.meta.txt").read_text()
    assert meta1 == meta2
    assert "fingerprint = " in meta1
    # the evaluated samples are regenerated bit-identically too
    assert (out1 / "fig10b.field.csv").read_bytes() == (out2 / "fig10b.field.csv").read_bytes()


def test_resonance_preset_reports_peak(tmp_path, capsys):
    written = run_preset("fig11", tmp_path)
    out = capsys.readouterr().out
    assert "peak emittance at lambda=5e-12" in out
    rows = np.loadtxt(tmp_path / "fig11.sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (17, 3)
    assert str(tmp_path / "fig11.meta.txt") in written


def test_metrics_planes_have_one_definition(tmp_path, monkeypatch):
    evaluated = []
    real = coherence.sweep_profiles

    def spy(scn, param, values, x, z, workers=None):
        evaluated.append(z)
        return real(scn, param, values[:1], x[:8], z, workers)

    monkeypatch.setattr(coherence, "sweep_profiles", spy)
    for name, key, plane in (("fig11", "detector.z", resonance_plane),
                             ("fig7", "sweep.z", talbot_plane)):
        evaluated.clear()
        run_preset(name, tmp_path, echo=lambda *_: None)
        scn = preset_run_config(name).scenario
        meta = (tmp_path / f"{name}.meta.txt").read_text().splitlines()
        assert f"{key} = {plane(scn):.17g}" in meta
        assert evaluated == [plane(scn)]
    assert talbot_section(scn, 4)[1] == talbot_plane(scn)


@pytest.mark.parametrize("name", ["fig7", "fig11", "fig16", "fig17"])
def test_sweep_preset_files_do_not_depend_on_threads(tmp_path, monkeypatch, name):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)  # a real pool on any host
    one = run_preset(name, tmp_path / "t1", threads=1, echo=lambda *_: None)
    two = run_preset(name, tmp_path / "t2", threads=2, echo=lambda *_: None)
    assert [os.path.basename(p) for p in one] == [os.path.basename(p) for p in two]
    for a, b in zip(one, two):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), os.path.basename(a)


@pytest.mark.parametrize("name, target", [("fig10b", "evaluate_grid"), ("fig16", "evaluate_densities")])
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failed_evaluation_leaves_no_directory(tmp_path, monkeypatch, name, target, error):
    # a field preset and a table preset, failing or interrupted
    def fail(*args, **kwargs):
        raise error("evaluation stopped")

    monkeypatch.setattr(presets, target, fail)
    with pytest.raises(error):
        run_preset(name, tmp_path / "out", nx=24, nz=8, echo=lambda *_: None)
    assert not (tmp_path / "out").exists()


def test_profiles_preset_reports_integrals(tmp_path, capsys):
    run_preset("fig16", tmp_path)
    out = capsys.readouterr().out
    assert out.count("integral=") == 3
    assert (tmp_path / "fig16.profile_z0.513zT.csv").exists()


def test_profiles_kind_averages_a_spectral_source(tmp_path):
    PRESETS["_tiny_profiles"] = {
        "kind": "profiles",
        "note": "test entry",
        "config": {"grating0.slits": 4, "grating1.slits": 3,
                   "spectral.lambda_step": 1e-12},
        "z_fractions": (0.5,),
    }
    try:
        run_preset("_tiny_profiles", tmp_path, echo=lambda *_: None)
        rc = preset_run_config("_tiny_profiles")
        scn, grid = rc.scenario, rc.grid
        x = centered_axis(grid.x_min, grid.x_max, 1024)
        z = scn.z0 + 0.5 * scn.z_talbot
        got = np.loadtxt(tmp_path / "_tiny_profiles.profile_z0.5zT.csv", delimiter=",",
                         skiprows=2)
        averaged = coherence.spectral_density_profile(scn, x, z)
        assert np.array_equal(got[:, 1], averaged)
        assert not np.allclose(averaged, coherence.density_profile(scn, x, z), rtol=1e-3)
    finally:
        del PRESETS["_tiny_profiles"]


def _tiny_line_config():
    return {
        "source.xs_min": -1e-6,
        "source.xs_max": 1e-6,
        "source.xs_step": 0.5e-6,
        "grating0.slits": 4,
        "grating1.slits": 3,
    }


def test_gsm_profiles_kind(tmp_path, capsys):
    PRESETS["_tiny_gsm"] = {
        "kind": "gsm-profiles",
        "note": "test entry",
        "config": _tiny_line_config(),
        "sigmas": (1e-6, 0.1e-6),
    }
    try:
        written = run_preset("_tiny_gsm", tmp_path)
        out = capsys.readouterr().out
        assert out.count("sigma_I=") == 2
        assert (tmp_path / "_tiny_gsm.profile_sigma1um.csv").exists()
        assert (tmp_path / "_tiny_gsm.profile_sigma0.1um.csv").exists()
        assert len(written) == 3
    finally:
        del PRESETS["_tiny_gsm"]


def test_sigma_sweep_kind(tmp_path, capsys):
    PRESETS["_tiny_sweep"] = {
        "kind": "sigma-sweep",
        "note": "test entry",
        "config": _tiny_line_config(),
        "sigmas": (0.1e-6, 1e-6, 10e-6),
    }
    try:
        run_preset("_tiny_sweep", tmp_path)
        rows = np.loadtxt(tmp_path / "_tiny_sweep.sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 4)
        vis = rows[:, 3]
        assert vis[0] <= vis[2] + 0.02  # contrast grows with coherence width
    finally:
        del PRESETS["_tiny_sweep"]


def test_spectral_field_kind(tmp_path, capsys):
    run_preset("fig12", tmp_path, nx=48, nz=24, echo=print)
    out = capsys.readouterr().out
    assert "V(averaged)=" in out and "V(monochromatic)=" in out
    assert (tmp_path / "fig12.field.pgm").exists()
    # the visibility echo follows the spectral source, not the preset's kind
    assert PRESETS["fig10b"]["kind"] == PRESETS["fig12"]["kind"]
    run_preset("fig10b", tmp_path, nx=48, nz=24, echo=print)
    out = capsys.readouterr().out
    assert "p_max=" in out and "V(averaged)" not in out


def test_every_preset_kind_has_a_driver():
    """PRESETS is a static table: each kind is a field or a table driver's."""
    kinds = {entry["kind"] for entry in PRESETS.values()}
    assert kinds <= {"field"} | set(presets._TABLE_DRIVERS)
    assert set(presets._TABLE_DRIVERS) <= kinds
