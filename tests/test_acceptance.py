"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  These are
the exit criteria of the build; the tolerances are fixed here and nowhere
else.  Criterion 11's parallel-speedup clause needs at least 4 CPUs to be
measurable; on smaller hosts it reports the measured speedup and skips the
assertion (the determinism and wall-clock clauses still run).
"""

import math
import os
import time

import numpy as np
import pytest

from tlsim.coherence import (
    coherence_sweep,
    density_profile,
    fringe_metrics,
    focusing_contrast,
    gaussian_spectral_weights,
    resonance_scan,
    spectral_average,
)
from tlsim.core import (
    PARAXIAL_ZS,
    GratingSpec,
    Particle,
    SourceSpec,
    SpectralSpec,
    centered_axis,
)
from tlsim.fieldgrid import GridSpec, Profile, evaluate_grid
from tlsim.oracle import composite_gauss_legendre, quadrature_oracle, random_oracle_case
from tlsim.presets import preset_run_config
from tlsim.propagators import (
    PathContext,
    between_row,
    comb_form_factor,
    psi_behind,
    psi_hard_edge,
)
from tlsim.scenario import Scenario
from tlsim.superposition import density, superpose_between

LAMBDA = 5e-12
MASS = 1.2e-24
PITCH = 500e-9
Z_TALBOT = 0.1
Z1 = 0.05


def _report(tag: str, ok: bool, detail: str) -> str:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def _paper_particle() -> Particle:
    return Particle(mass=MASS, lambda_dB=LAMBDA)


def test_criterion_01_oracle_equivalence():
    """Closed forms match brute-force quadrature on randomized configurations."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_fuzzy = 0.0
    for _ in range(25):
        ctx, x, z = random_oracle_case(rng)
        ref = quadrature_oracle(ctx, x, z, "fuzzy")
        worst_fuzzy = max(worst_fuzzy, abs(psi_behind(ctx, x, z) - ref) / abs(ref))
    worst_comb = 0.0
    k_seen = set()
    for _ in range(10):
        ctx, x, z = random_oracle_case(rng, hard=True)
        ref = quadrature_oracle(ctx, x, z, "comb")
        worst_comb = max(worst_comb, abs(psi_hard_edge(ctx, x, z) - ref) / abs(ref))
        k_seen.add(ctx.grating1.comb_k)
    elapsed = time.perf_counter() - t0
    ok = worst_fuzzy < 1e-6 and worst_comb < 1e-6 and elapsed < 300.0
    _report(
        "C1",
        ok,
        f"25 fuzzy worst {worst_fuzzy:.2e}, 10 comb (K in {sorted(k_seen)}) worst "
        f"{worst_comb:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_reduction_identities():
    """Hard-edge K=1 prefactor identity and behind->between continuity."""
    rng = np.random.default_rng(202)
    particle = _paper_particle()
    worst_k1 = 0.0
    for _ in range(50):
        eta = rng.uniform(0.5, 1.5)
        g0 = GratingSpec(1, PITCH, rng.uniform(20e-9, 100e-9), 0.0)
        g1 = GratingSpec(1, PITCH, rng.uniform(20e-9, 100e-9), rng.uniform(0.02, 0.08),
                         comb_k=1, comb_eta=eta)
        ctx = PathContext(particle=particle, grating0=g0, grating1=g1,
                          x_s=rng.uniform(-2e-6, 2e-6), z_s=-rng.uniform(0.3, 1.0),
                          x0=rng.uniform(-1e-6, 1e-6), x1=rng.uniform(-1e-6, 1e-6))
        x = rng.uniform(-3e-6, 3e-6, 20)
        z = g1.z_pos * (1.0 + rng.uniform(0.1, 1.2))
        a = psi_hard_edge(ctx, x, z)
        b = math.sqrt(2.0 / math.pi) / eta * psi_behind(ctx, x, z)
        worst_k1 = max(worst_k1, float(np.max(np.abs(a - b) / np.abs(b))))

    worst_cont = 0.0
    for _ in range(40):
        z1 = rng.uniform(0.02, 0.08)
        g0 = GratingSpec(1, PITCH, rng.uniform(20e-9, 100e-9), 0.0)
        g1 = GratingSpec(1, PITCH, rng.uniform(20e-9, 100e-9), z1)
        x1 = rng.uniform(-1e-6, 1e-6)
        ctx = PathContext(particle=particle, grating0=g0, grating1=g1,
                          x_s=rng.uniform(-2e-6, 2e-6), z_s=-rng.uniform(0.3, 1.0),
                          x0=rng.uniform(-1e-6, 1e-6), x1=x1)
        a = psi_behind(ctx, x1, z1 * (1.0 + 1e-12))
        b = between_row(LAMBDA, ctx.z_s, ctx.x_s, 0.0, g0.half_width, [ctx.x0],
                        np.array([x1]), z1)[0]
        worst_cont = max(worst_cont, abs(a - b) / abs(b))
    ok = worst_k1 < 1e-12 and worst_cont < 1e-9
    _report("C2", ok, f"K1-reduction worst {worst_k1:.2e} (1000 pts), continuity worst {worst_cont:.2e}")
    assert ok


def test_criterion_03_talbot_self_imaging():
    """Paraxial 64-slit grating: revival at zT on slit centers, at zT/2 on midpoints."""
    particle = _paper_particle()
    g0 = GratingSpec(64, PITCH, 37.5e-9, 0.0)
    g1 = GratingSpec(1, PITCH, 75e-9, 2.0 * Z_TALBOT)  # parked far downstream
    src = SourceSpec(kind="point", x_positions=(0.0,), z_s=PARAXIAL_ZS)
    req = Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                   region="between")
    # N0 = 64 slits sit at half-integer multiples of the pitch; the half-length
    # image is shifted by d/2 onto integer multiples (the slit midpoints)
    worst_half = 0.0
    worst_full = 0.0
    for m in range(-8, 8):
        xwin = centered_axis((m - 0.5) * PITCH, (m + 0.5) * PITCH, 257)
        p = density(superpose_between(req, xwin, Z_TALBOT / 2))
        worst_half = max(worst_half, abs(float(xwin[np.argmax(p)]) - m * PITCH))
        c = (m + 0.5) * PITCH
        xwin = centered_axis(c - 0.5 * PITCH, c + 0.5 * PITCH, 257)
        p = density(superpose_between(req, xwin, Z_TALBOT))
        worst_full = max(worst_full, abs(float(xwin[np.argmax(p)]) - c))
    ok = worst_half <= 0.05 * PITCH and worst_full <= 0.05 * PITCH
    _report(
        "C3", ok,
        f"max offset at zT/2 {worst_half / PITCH * 100:.2f}% of d, at zT "
        f"{worst_full / PITCH * 100:.2f}% of d (16 central periods)",
    )
    assert ok


def test_criterion_04_resonance_scan():
    """Emittance peaks exactly at the 5 pm grid point and falls off both ways."""
    particle = _paper_particle()
    g0 = GratingSpec(8, PITCH, 37.5e-9, 0.0)
    g1 = GratingSpec(9, PITCH, 75e-9, Z1)
    src = SourceSpec(kind="point", x_positions=(0.0,), z_s=PARAXIAL_ZS)
    scn = Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                   region="behind")
    lams = [3e-12 + 0.25e-12 * k for k in range(17)]
    rows = resonance_scan(scn, lams)
    pmax = np.array([r[2] for r in rows])
    imax = int(np.argmax(pmax))
    at_5pm = abs(rows[imax][0] - 5e-12) < 1e-15
    left = all(pmax[imax - k - 1] < pmax[imax - k] for k in range(3))
    right = all(pmax[imax + k + 1] < pmax[imax + k] for k in range(3))
    ok = at_5pm and left and right
    _report(
        "C4", ok,
        f"argmax at {rows[imax][0] * 1e12:.2f} pm (v={rows[imax][1]:.1f} m/s), "
        f"monotone 3 steps left={left} right={right}",
    )
    assert ok


@pytest.fixture(scope="module")
def coherence_sweep_rows():
    particle = _paper_particle()
    g0 = GratingSpec(32, PITCH, 37.5e-9, 0.0)
    g1 = GratingSpec(33, PITCH, 75e-9, Z1)
    xs = tuple(-4e-6 + 0.25e-6 * k for k in range(33))
    src = SourceSpec(kind="line", x_positions=xs, z_s=-0.5)
    scn = Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                   region="behind")
    sigmas = np.logspace(-2, 2, 17) * 1e-6
    return coherence_sweep(scn, sigmas)


def test_criterion_05a_coherence_visibility_gap(coherence_sweep_rows):
    """V(10 um) - V(0.1 um) > 0.3 at the z = zT cross-section.

    Known-red: at the exact Talbot-Lau resonance plane the fringe lattice is
    nearly independent of the source position (that insensitivity is the
    working principle of the geometry), so the incoherent limit keeps
    V close to 0.8 and the measured gap sits near 0.20.  A few percent off
    the resonance plane the gap exceeds 0.3.  The whole computational chain
    behind this number is validated against brute-force quadrature
    elsewhere in the suite; the assertion is kept as stated rather than
    tuned to pass.
    """
    by_sigma = {round(s * 1e6, 4): m for s, m in coherence_sweep_rows}
    v_coh = by_sigma[10.0].visibility
    v_inc = by_sigma[0.1].visibility
    gap = v_coh - v_inc
    ok = gap > 0.3
    _report("C5a", ok, f"V(10um)={v_coh:.4f}, V(0.1um)={v_inc:.4f}, gap={gap:.4f} (need > 0.3)")
    assert ok, f"visibility gap {gap:.4f} <= 0.3 at the exact resonance plane"


def test_criterion_05b_crossover_location(coherence_sweep_rows):
    """V crosses the midpoint of its plateaus between 0.1 um and 1 um."""
    sigmas = np.array([s for s, _ in coherence_sweep_rows])
    vis = np.array([m.visibility for _, m in coherence_sweep_rows])
    v_lo, v_hi = vis[0], vis[-1]
    v_mid = 0.5 * (v_lo + v_hi)
    crossing = None
    for k in range(len(vis) - 1):
        if (vis[k] - v_mid) * (vis[k + 1] - v_mid) <= 0.0:
            f = (v_mid - vis[k]) / (vis[k + 1] - vis[k])
            crossing = float(np.exp(np.log(sigmas[k]) + f * (np.log(sigmas[k + 1]) - np.log(sigmas[k]))))
            break
    ok = crossing is not None and 0.1e-6 <= crossing <= 1.0e-6
    _report("C5b", ok, f"plateaus {v_lo:.3f}/{v_hi:.3f}, midpoint crossing at sigma_I = "
                       f"{(crossing or float('nan')) * 1e6:.3f} um (need within [0.1, 1] um)")
    assert ok


def test_criterion_05c_pedestal_growth(coherence_sweep_rows):
    """P_min grows as sigma_I decreases across the crossover range."""
    by_sigma = {round(s * 1e6, 4): m for s, m in coherence_sweep_rows}
    p_01 = by_sigma[0.1].p_min
    p_1 = by_sigma[1.0].p_min
    p_10 = by_sigma[10.0].p_min
    ok = p_01 > p_1 > p_10
    _report("C5c", ok, f"P_min: {p_01:.4g} (0.1um) > {p_1:.4g} (1um) > {p_10:.4g} (10um)")
    assert ok


def test_criterion_06_comb_area():
    """The comb form factor integrates to the slit width 2b for all (K, eta)."""
    b = 75e-9
    worst = 0.0
    for K in (1, 4, 7, 16, 64):
        for eta in (0.2, 0.5, 0.8, 1.0, 1.5):
            span = b * (1.0 + 6.0 * eta)
            nodes, w = composite_gauss_legendre(-span, span, max(8, 2 * K), 32)
            area = float(np.sum(w * comb_form_factor(nodes, b, eta, K)))
            worst = max(worst, abs(area - 2.0 * b) / (2.0 * b))
    ok = worst < 1e-6
    _report("C6", ok, f"25 (K, eta) combinations, worst area error {worst:.2e}")
    assert ok


def test_criterion_07_hard_edge_focusing():
    """Focusing contrast across the beam waist: strong at K=16, absent at K=1."""
    particle = _paper_particle()
    src = SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)
    g0 = GratingSpec(4, PITCH, 37.5e-9, 0.0)
    x = centered_axis(-125e-9, 125e-9, 1001)
    b1 = 75e-9
    za, zb = 0.5 * Z_TALBOT, 0.513 * Z_TALBOT
    dp = {}
    for K in (1, 16):
        g1 = GratingSpec(5, PITCH, b1, Z1, comb_k=K, comb_eta=1.5)
        scn = Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                       region="behind")
        pa = density_profile(scn, x, za)
        pb = density_profile(scn, x, zb)
        _, dp[K] = focusing_contrast(Profile(za, x, pa), Profile(zb, x, pb))
    inside = np.abs(x) < b1
    peak = float(dp[16].max())
    well = float(dp[16][inside].min())
    ratio = peak / abs(well)
    resid = float(np.abs(dp[1]).max()) / peak
    ok = peak > 0.0 and well < 0.0 and 1.5 <= ratio <= 3.0 and resid < 0.05
    _report(
        "C7", ok,
        f"K=16 peak {peak:.3g}, well {well:.3g}, ratio {ratio:.2f} (need 1.5..3); "
        f"K=1 residual {resid * 100:.2f}% (need < 5%)",
    )
    assert ok


def test_criterion_08_beam_waist_location():
    """Global density maximum downstream of the central slit at the waist."""
    particle = _paper_particle()
    src = SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)
    g0 = GratingSpec(4, PITCH, 37.5e-9, 0.0)
    g1 = GratingSpec(5, PITCH, 75e-9, Z1, comb_k=64, comb_eta=1.5)
    scn = Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                   region="behind")
    grid = GridSpec(x_min=-75e-9, x_max=75e-9, z_min=Z1, z_max=0.055, nx=201, nz=501)
    field = evaluate_grid(scn, grid, workers=2)
    iz, ix = np.unravel_index(int(np.argmax(field.values)), field.values.shape)
    z_frac = float(field.grid.z_axis()[iz]) / Z_TALBOT
    ok = 0.512 < z_frac < 0.524
    _report("C8", ok, f"K=64 eta=1.5: max at z/zT = {z_frac:.4f} (need within (0.512, 0.524))")
    assert ok


def test_criterion_09_spectral_smearing():
    """Wavelength averaging strictly lowers the visibility at z = zT."""
    particle = _paper_particle()
    g0 = GratingSpec(8, PITCH, 37.5e-9, 0.0)
    g1 = GratingSpec(9, PITCH, 75e-9, Z1)
    src = SourceSpec(kind="point", x_positions=(0.0,), z_s=PARAXIAL_ZS)
    scn = Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                   region="behind")
    x = centered_axis(-2e-6, 2e-6, 1536)
    lams = [3e-12 + 0.25e-12 * k for k in range(21)]
    w = gaussian_spectral_weights(
        SpectralSpec(mean_lambda=5e-12, sigma_g=2.25e-12, lambda_list=tuple(lams)))
    stack = [density_profile(scn.with_wavelength(lam), x, Z_TALBOT) for lam in lams]
    v_avg = fringe_metrics(spectral_average(stack, w)).visibility
    v_mono = fringe_metrics(density_profile(scn, x, Z_TALBOT)).visibility
    ok = v_avg < v_mono
    _report("C9", ok, f"V(averaged) = {v_avg:.4f} < V(5pm) = {v_mono:.4f}")
    assert ok


ON_AXIS_FIELD_PRESETS = [
    "fig4a", "fig5a", "fig5b", "fig5c", "fig8a", "fig8b", "fig9",
    "fig10a", "fig10b", "fig10c", "fig12", "fig14a", "fig14b", "fig14c",
    "fig15a", "fig15b", "fig19a", "fig19b", "fig19c", "fig19d",
]


def test_criterion_10_symmetry_and_determinism():
    """Mirror parity of every on-axis preset and bit-identical re-evaluation."""
    worst_name, worst_asym = "", 0.0
    for name in ON_AXIS_FIELD_PRESETS:
        rc = preset_run_config(name, nx=65, nz=7)
        field = evaluate_grid(rc.scenario, rc.grid, workers=1)
        vals = field.values
        asym = float(np.max(np.abs(vals - vals[:, ::-1]))) / max(vals.max(), 1e-300)
        if asym > worst_asym:
            worst_name, worst_asym = name, asym
    parity_ok = worst_asym <= 1e-9

    rc = preset_run_config("fig4a", nx=33, nz=9)
    ref = evaluate_grid(rc.scenario, rc.grid, workers=1)
    identical = all(
        np.array_equal(ref.values, evaluate_grid(rc.scenario, rc.grid, workers=w).values)
        for w in (1, 2, 3)
    )
    ok = parity_ok and identical
    _report(
        "C10", ok,
        f"{len(ON_AXIS_FIELD_PRESETS)} on-axis presets, worst parity residual "
        f"{worst_asym:.2e} ({worst_name}); repeat runs bit-identical across "
        f"1/2/3 workers: {identical}",
    )
    assert ok


def test_criterion_11_performance_contract():
    """800x600 two-grating field: wall clock, determinism, and scaling."""
    particle = _paper_particle()
    g0 = GratingSpec(32, PITCH, 37.5e-9, 0.0)
    g1 = GratingSpec(33, PITCH, 75e-9, Z1)
    src = SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)
    scn = Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                   region="full")
    grid = GridSpec(x_min=-10e-6, x_max=10e-6, z_min=0.0, z_max=0.15, nx=800, nz=600)

    t0 = time.perf_counter()
    f1 = evaluate_grid(scn, grid, workers=1)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    f4 = evaluate_grid(scn, grid, workers=4)
    t_four = time.perf_counter() - t0
    speedup = t_serial / t_four

    identical = np.array_equal(f1.values, f4.values)

    cpus = os.cpu_count() or 1
    ok = t_four < 60.0 and identical
    detail = (
        f"4-worker run {t_four:.1f}s (need < 60), serial {t_serial:.1f}s, "
        f"speedup {speedup:.2f}x, bit-identical {identical}"
    )
    if cpus >= 4:
        ok = ok and speedup >= 3.0
        _report("C11", ok, detail + " (speedup assertion active)")
    else:
        _report("C11", ok, detail + f" (speedup assertion SKIPPED: host has {cpus} CPUs, criterion premises 4 cores)")
    assert ok
