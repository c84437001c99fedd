"""Figure-reproduction presets and their drivers.

Each preset is a complete flat configuration (same keys as the config file
format) plus a driver kind: plain density fields, coherence profiles/sweeps,
the wavelength resonance scan, cross-section profile sets, and the
focusing-contrast series.  Output files land in the chosen directory as
``<preset>.<kind>.<ext>`` and the key scalar results go to standard output.
"""

from __future__ import annotations

import os

import numpy as np

from .coherence import (
    coherence_sweep,
    density_profile,
    fringe_metrics,
    focusing_contrast,
    resonance_plane,
    resonance_scan,
    spectral_density_profile,
    sweep_profiles,
    talbot_plane,
    talbot_section,
)
from .config import build_run_config
from .core import PARAXIAL_ZS, DomainError, centered_axis
from .fieldgrid import (
    Profile,
    cross_section,
    evaluate_grid,
    export_field,
    export_meta,
    export_profile_csv,
    export_table_csv,
)
from .scenario import fingerprint

_UM = 1e-6
_NM = 1e-9
_PM = 1e-12

# Small-grating hard-edge base (4 and 5 slits, eta = 1.5).
_HARD_BASE = {
    "grating0.slits": 4,
    "grating1.slits": 5,
    "grating1.comb_eta": 1.5,
    "grid.x_min": -3e-6,
    "grid.x_max": 3e-6,
}

# Paraxial 8/9-slit base (fig10-fig12).
_PARAXIAL_8_9 = {"source.zs": PARAXIAL_ZS, "grating0.slits": 8, "grating1.slits": 9}
_X4 = {"grid.x_min": -4 * _UM, "grid.x_max": 4 * _UM}

_SLIT_ZOOM = {
    "scenario.region": "behind",
    "grid.x_min": -250 * _NM,
    "grid.x_max": 250 * _NM,
    "grid.z_min": 0.05,
    "grid.z_max": 0.06,
    "grid.nx": 512,
    "grid.nz": 400,
}


def _fig19(eta: float) -> dict:
    return {
        "grating0.slits": 2,
        "grating1.slits": 1,
        "grating1.comb_k": 7,
        "grating1.comb_eta": eta,
        "scenario.region": "behind",
        "grid.x_min": -125 * _NM,
        "grid.x_max": 125 * _NM,
        "grid.z_min": 0.05,
        "grid.z_max": 0.054,
        "grid.nx": 512,
        "grid.nz": 320,
    }


# A range or band key at its default picks the default line (fig5-7) or band (fig12).
PRESETS: dict[str, dict] = {
    "fig4a": {
        "kind": "field",
        "note": "two-grating density, point source on axis",
        "config": {},
    },
    "fig4b": {
        "kind": "field",
        "note": "point source shifted to +2 um",
        "config": {"source.xs": 2 * _UM},
    },
    "fig4c": {
        "kind": "field",
        "note": "point source shifted to +4 um",
        "config": {"source.xs": 4 * _UM},
    },
    "fig5a": {
        "kind": "field",
        "note": "33-source coherent beam, sigma_I = 10 um",
        "config": {"source.xs_min": -4e-6, "source.sigma_i": 10 * _UM},
    },
    "fig5b": {
        "kind": "field",
        "note": "33-source almost coherent beam, sigma_I = 1 um",
        "config": {"source.xs_min": -4e-6, "source.sigma_i": 1 * _UM},
    },
    "fig5c": {
        "kind": "field",
        "note": "33-source almost noncoherent beam, sigma_I = 0.3 um",
        "config": {"source.xs_min": -4e-6, "source.sigma_i": 0.3 * _UM},
    },
    "fig6": {
        "kind": "gsm-profiles",
        "note": "fringe cross-sections at z = zT for sigma_I = 1 um and 0.1 um",
        "config": {"source.xs_min": -4e-6},
        "sigmas": (1 * _UM, 0.1 * _UM),
    },
    "fig7": {
        "kind": "sigma-sweep",
        "note": "pedestal and visibility vs coherence width",
        "config": {"source.xs_min": -4e-6},
        "sigmas": tuple(np.logspace(-2, 2, 17) * _UM),
    },
    "fig8a": {
        "kind": "field",
        "note": "close source (zs = -0.5 m), divergent ray groups",
        "config": {"grid.z_max": 0.2},
    },
    "fig8b": {
        "kind": "field",
        "note": "remote source (zs = -50 m), near-paraxial carpet",
        "config": {"source.zs": -50.0, "grid.z_max": 0.2},
    },
    "fig9": {
        "kind": "field",
        "note": "paraxial Talbot carpet, 64/63 slits",
        "config": {
            "source.zs": PARAXIAL_ZS,
            "grating0.slits": 64,
            "grating1.slits": 63,
            "grid.x_min": -18 * _UM,
            "grid.x_max": 18 * _UM,
        },
    },
    "fig10a": {
        "kind": "field",
        "note": "paraxial two-grating field at 3 pm",
        "config": dict(_PARAXIAL_8_9, **_X4, **{"particle.lambda": 3 * _PM}),
    },
    "fig10b": {
        "kind": "field",
        "note": "paraxial two-grating field at 5 pm (resonance)",
        "config": dict(_PARAXIAL_8_9, **_X4),
    },
    "fig10c": {
        "kind": "field",
        "note": "paraxial two-grating field at 7 pm",
        "config": dict(_PARAXIAL_8_9, **_X4, **{"particle.lambda": 7 * _PM}),
    },
    "fig11": {
        "kind": "resonance",
        "note": "emittance P_max at the detector vs wavelength/velocity",
        "config": dict(_PARAXIAL_8_9),
        "lambdas": tuple(3e-12 + 0.25e-12 * k for k in range(17)),
    },
    "fig12": {
        "kind": "field",
        "note": "wavelength-averaged density, mean 5 pm, sigma_g 2.25 pm",
        "config": dict(_PARAXIAL_8_9, **_X4, **{"spectral.mean": 5e-12}),
    },
    "fig14a": {
        "kind": "field",
        "note": "hard-edged G1, K1 = 1",
        "config": dict(_HARD_BASE, **{"grating1.comb_k": 1}),
    },
    "fig14b": {
        "kind": "field",
        "note": "hard-edged G1, K1 = 4",
        "config": dict(_HARD_BASE, **{"grating1.comb_k": 4}),
    },
    "fig14c": {
        "kind": "field",
        "note": "hard-edged G1, K1 = 16",
        "config": dict(_HARD_BASE, **{"grating1.comb_k": 16}),
    },
    "fig15a": {
        "kind": "field",
        "note": "central-slit jet, K1 = 16",
        "config": dict(_HARD_BASE, **_SLIT_ZOOM, **{"grating1.comb_k": 16}),
    },
    "fig15b": {
        "kind": "field",
        "note": "central-slit jet, K1 = 64",
        "config": dict(_HARD_BASE, **_SLIT_ZOOM, **{"grating1.comb_k": 64}),
    },
    "fig16": {
        "kind": "profiles",
        "note": "density profiles at z/zT = 0.5, 0.513, 0.55 (K1 = 64)",
        "config": dict(_HARD_BASE, **_SLIT_ZOOM, **{"grating1.comb_k": 64}),
        "z_fractions": (0.5, 0.513, 0.55),
    },
    "fig17": {
        "kind": "contrast",
        "note": "profile difference p(zb) - p(za) across the beam waist vs K1",
        "config": dict(_HARD_BASE, **_SLIT_ZOOM, **{"grating1.comb_k": 16}),
        "k_list": (1, 2, 4, 8, 16),
        "z_fractions": (0.5, 0.513),
    },
    "fig19a": {
        "kind": "field",
        "note": "single hard-edged slit, K1 = 7, eta = 0.2",
        "config": _fig19(0.2),
    },
    "fig19b": {"kind": "field", "note": "K1 = 7, eta = 0.5", "config": _fig19(0.5)},
    "fig19c": {"kind": "field", "note": "K1 = 7, eta = 0.8", "config": _fig19(0.8)},
    "fig19d": {"kind": "field", "note": "K1 = 7, eta = 1.1", "config": _fig19(1.1)},
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_run_config(name: str, nx: int | None = None, nz: int | None = None):
    if name not in PRESETS:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    vals = {"particle.lambda": 5e-12, **PRESETS[name]["config"]}
    if nx is not None:
        vals["grid.nx"] = nx
    if nz is not None:
        vals["grid.nz"] = nz
    return build_run_config(vals)


# Table drivers: each writes its tables through ``path(kind_ext)``, reports
# through ``say``, splits its sweeps over ``workers`` and returns the lines
# its meta file adds to the scenario echo.


def _gsm_profiles(entry, scn, grid, path, say, workers) -> list[str]:
    x, z = talbot_section(scn, 2048)
    for scn_s, p in sweep_profiles(scn, "sigma_I", entry["sigmas"], x, z, workers):
        sigma = scn_s.source.sigma_I
        met = fringe_metrics(p)
        export_profile_csv(Profile(z=z, x=x, p=p), path(f"profile_sigma{sigma / _UM:g}um.csv"))
        say(f"sigma_I={sigma:.3g} m  P_min={met.p_min:.6g} "
            f"P_max={met.p_max:.6g} V={met.visibility:.4f}")
    return [f"profile.z = {z:.17g}", "profile.samples = 2048"]


def _sigma_sweep(entry, scn, grid, path, say, workers) -> list[str]:
    rows = coherence_sweep(scn, entry["sigmas"], workers=workers)
    table = [(s, m.p_min, m.p_max, m.visibility) for s, m in rows]
    export_table_csv(path("sweep.csv"), "sigma_i_m,p_min,p_max,visibility", table)
    say("sigma_I(m)  P_min  P_max  V")
    for s, pmin, pmax, vis in table:
        say(f"{s:.6g}  {pmin:.6g}  {pmax:.6g}  {vis:.4f}")
    return [f"sweep.z = {talbot_plane(scn):.17g}"]


def _resonance(entry, scn, grid, path, say, workers) -> list[str]:
    rows = resonance_scan(scn, entry["lambdas"], workers=workers)
    export_table_csv(path("sweep.csv"), "lambda_m,velocity_mps,p_max", rows)
    say("lambda(m)  velocity(m/s)  P_max")
    for lam, v, pmax in rows:
        say(f"{lam:.6g}  {v:.4g}  {pmax:.6g}")
    best = max(rows, key=lambda r: r[2])
    say(f"peak emittance at lambda={best[0]:.6g} m (v={best[1]:.4g} m/s)")
    return [f"detector.z = {resonance_plane(scn):.17g}"]


def _profiles(entry, scn, grid, path, say, workers) -> list[str]:
    x = centered_axis(grid.x_min, grid.x_max, 1024)
    extra = []
    for frac in entry["z_fractions"]:
        z = scn.z0 + frac * scn.z_talbot
        prof = Profile(z=z, x=x, p=spectral_density_profile(scn, x, z))
        tag = f"z{frac:g}zT"
        export_profile_csv(prof, path(f"profile_{tag}.csv"))
        integral = prof.integral()
        extra.append(f"profile.{tag}.integral = {integral:.17g}")
        say(f"z/zT={frac:g}  integral={integral:.6g}  max={prof.p.max():.6g}")
    return extra


def _contrast(entry, scn, grid, path, say, workers) -> list[str]:
    zt = scn.z_talbot
    fa, fb = entry["z_fractions"]
    za, zb = scn.z0 + fa * zt, scn.z0 + fb * zt
    x = centered_axis(-125 * _NM, 125 * _NM, 1024)
    inside = np.abs(x) < scn.grating1.half_width
    extra = [f"contrast.za = {za:.17g}", f"contrast.zb = {zb:.17g}"]
    rows_a = sweep_profiles(scn, "K1", entry["k_list"], x, za, workers)
    rows_b = sweep_profiles(scn, "K1", entry["k_list"], x, zb, workers)
    for (scn_k, pa), (_, pb) in zip(rows_a, rows_b):
        k = scn_k.grating1.comb_k
        _, dp = focusing_contrast(Profile(za, x, pa), Profile(zb, x, pb))
        export_table_csv(path(f"contrast_k{k}.csv"), "x_m,p_za,p_zb,delta_p",
                         zip(x, pa, pb, dp))
        peak = float(dp.max())
        well = float(dp[inside].min())
        extra.append(f"contrast.k{k}.peak = {peak:.17g}")
        extra.append(f"contrast.k{k}.well = {well:.17g}")
        say(f"K1={k}  peak={peak:.6g}  well={well:.6g}")
    return extra


_TABLE_DRIVERS = {
    "gsm-profiles": _gsm_profiles,
    "sigma-sweep": _sigma_sweep,
    "resonance": _resonance,
    "profiles": _profiles,
    "contrast": _contrast,
}


def run_preset(
    name: str,
    out_dir,
    *,
    threads: int | None = None,
    nx: int | None = None,
    nz: int | None = None,
    log_scale: bool = False,
    echo=print,
) -> list[str]:
    """Run one preset, writing its outputs under ``out_dir``.

    Returns the list of file paths written.  ``nx``/``nz`` shrink or enlarge
    the evaluation grid of field presets (profile/sweep presets have fixed
    sampling).  A field preset with a spectral source also reports the fringe
    visibility at the detector plane, averaged and monochromatic.
    """
    rc = preset_run_config(name, nx=nx, nz=nz)
    scn, grid = rc.scenario, rc.grid
    entry = PRESETS[name]
    kind = entry["kind"]
    driver = _TABLE_DRIVERS.get(kind)
    if driver is None and kind != "field":
        raise DomainError(f"preset {name!r} has unknown kind {kind!r}")
    os.makedirs(out_dir, exist_ok=True)
    note = f"note = {entry['note']}"

    def say(msg: str) -> None:
        echo(f"{name}: {msg}")

    if kind == "field":
        field = evaluate_grid(scn, grid, workers=threads)
        written = export_field(field, scn, os.path.join(out_dir, name), rc.formats,
                               log_scale=log_scale, extra=[note])
        say(f"p_min={field.p_min:.6g} p_max={field.p_max:.6g}")
        z_det = talbot_plane(scn)
        if scn.source.spectral is not None and grid.z_min <= z_det <= grid.z_max:
            lo, hi = scn.metrics_window()
            prof = cross_section(field, z_det).restrict(lo, hi)
            v_avg = fringe_metrics(prof.p).visibility
            v_mono = fringe_metrics(density_profile(scn, prof.x, prof.z)).visibility
            say(f"V(averaged)={v_avg:.4f} V(monochromatic)={v_mono:.4f}")
        return written

    written: list[str] = []

    def path(kind_ext: str) -> str:
        written.append(os.path.join(out_dir, f"{name}.{kind_ext}"))
        return written[-1]

    extra = driver(entry, scn, grid, path, say, threads)
    export_meta(path("meta.txt"), scn, extra + [note], fingerprint(scn, extra))
    return written
