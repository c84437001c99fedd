import numpy as np
import pytest

from tlsim import coherence
from tlsim.coherence import resonance_plane, talbot_plane, talbot_section
from tlsim.core import DomainError
from tlsim.presets import PRESETS, preset_names, preset_run_config, run_preset

EXPECTED_NAMES = [
    "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c", "fig6", "fig7",
    "fig8a", "fig8b", "fig9", "fig10a", "fig10b", "fig10c", "fig11", "fig12",
    "fig14a", "fig14b", "fig14c", "fig15a", "fig15b", "fig16", "fig17",
    "fig19a", "fig19b", "fig19c", "fig19d",
]


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

    def spy(scn, param, values, x, z):
        evaluated.append(z)
        return real(scn, param, values[:1], x[:8], z)

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


def test_profiles_preset_reports_integrals(tmp_path, capsys):
    run_preset("fig16", tmp_path)
    out = capsys.readouterr().out
    assert out.count("integral=") == 3
    assert (tmp_path / "fig16.profile_z0.513zT.csv").exists()


def _tiny_line_config():
    return {
        "source.kind": "line",
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


def test_unknown_kind_rejected(tmp_path):
    PRESETS["_bad_kind"] = {"kind": "hologram", "note": "test entry", "config": {}}
    try:
        with pytest.raises(DomainError, match="unknown kind 'hologram'"):
            run_preset("_bad_kind", tmp_path / "o")
        assert not (tmp_path / "o").exists()
    finally:
        del PRESETS["_bad_kind"]
