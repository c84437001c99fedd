import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsim.coherence import (
    density_profile, gaussian_spectral_weights, spectral_average, spectral_density_profile,
)
from tlsim.core import (
    PARAXIAL_ZS, DomainError, GratingSpec, Particle, SourceSpec, SpectralSpec,
    centered_axis, slit_positions,
)
from tlsim.config import parse_config
from tlsim.presets import preset_run_config
from tlsim.propagators import _BLOCK, PathContext, between_row, psi_behind
from tlsim.scenario import Scenario, apply_sweep_value, fingerprint, scenario_lines
from tlsim.superposition import density, superpose_behind, superpose_between


def _req(particle, n0=4, n1=3, x_s=0.0, z_s=-0.5, region="full", comb_k=None, comb_eta=1.0):
    g0 = GratingSpec(n0, 500e-9, 37.5e-9, 0.0)
    g1 = GratingSpec(n1, 500e-9, 75e-9, 0.05, comb_k=comb_k, comb_eta=comb_eta)
    src = SourceSpec(kind="point", x_positions=(x_s,), z_s=z_s)
    return Scenario(particle=particle, grating0=g0, grating1=g1, source=src, region=region)


class TestSuperposeBetween:
    def test_single_slit_equals_path(self, fullerene):
        req = _req(fullerene, n0=1)
        x = np.linspace(-1e-6, 1e-6, 7)
        path = between_row(fullerene.lambda_dB, -0.5, 0.0, 0.0, 37.5e-9, [0.0], x, 0.02)
        assert np.array_equal(superpose_between(req, x, 0.02), path)

    def test_two_slit_fringes_match_explicit_sum(self, fullerene):
        req = _req(fullerene, n0=2)
        centers = slit_positions(req.grating0)
        x = centered_axis(-2e-6, 2e-6, 401)
        z = 0.03
        total = superpose_between(req, x, z)
        explicit = sum(
            between_row(fullerene.lambda_dB, -0.5, 0.0, 0.0, 37.5e-9, [float(c)], x, z)
            for c in centers
        )
        assert np.allclose(total, explicit, rtol=1e-12)
        # cos-type modulation: several interior maxima of comparable height
        p = density(total)
        p /= p.max()
        peaks = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]) & (p[1:-1] > 0.1)
        assert int(peaks.sum()) >= 3

    @settings(max_examples=100)
    @given(
        n0=st.integers(1, 64),
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        pitch_scale=st.floats(2.5, 8.0),
        z1=st.floats(0.02, 0.08),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-50.0, -0.3)),
        x_s=st.floats(-3e-6, 3e-6),
        z_kind=st.sampled_from(["z0", "z0+1e-15", "between", "z1"]),
        frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_row_permutation_and_subset_agree(self, n0, lam, b0, pitch_scale, z1, z_s,
                                                     x_s, z_kind, frac, seed):
        """Between the gratings a sample's value is the same bit for bit alone,
        in its row, in a permuted row or among every third sample, for random
        geometries from z0 (and z0 + 1e-15 m) to z1 and samples out to +-1 mm,
        without a numpy warning."""
        scn = Scenario(
            particle=Particle(mass=1.2e-24, lambda_dB=lam),
            grating0=GratingSpec(n0, pitch_scale * b0, b0, 0.0),
            grating1=GratingSpec(2, 500e-9, 75e-9, z1),
            source=SourceSpec(kind="point", x_positions=(x_s,), z_s=z_s),
        )
        rng = np.random.default_rng(seed)
        span = slit_positions(scn.grating0)[-1] + 3e-6
        tails = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-5.0, -3.0, 4)
        x = np.sort(np.concatenate([rng.uniform(-span, span, 11), tails, [1e-3, -1e-3]]))
        perm = rng.permutation(x.size)
        z = {"z0": 0.0, "z0+1e-15": 1e-15, "between": frac * z1, "z1": z1}[z_kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = superpose_between(scn, x, z)
            assert all(superpose_between(scn, float(xj), z) == row[j] for j, xj in enumerate(x))
            assert np.array_equal(superpose_between(scn, x[perm], z), row[perm])
            assert np.array_equal(superpose_between(scn, x[::3], z), row[::3])

    def test_region_violation(self, fullerene):
        req = _req(fullerene, region="behind")
        with pytest.raises(DomainError):
            superpose_between(req, 0.0, 0.02)
        req2 = _req(fullerene)
        with pytest.raises(DomainError):
            superpose_between(req2, 0.0, 0.06)


class TestSuperposeBehind:
    def test_single_pair_equals_path(self, fullerene):
        req = _req(fullerene, n0=1, n1=1)
        ctx = PathContext(particle=fullerene, grating0=req.grating0, grating1=req.grating1,
                          x_s=0.0, z_s=-0.5, x0=0.0, x1=0.0)
        x = np.linspace(-1e-6, 1e-6, 7)
        assert np.array_equal(superpose_behind(req, x, 0.08), psi_behind(ctx, x, 0.08))

    def test_linearity_over_disjoint_subsets(self, fullerene):
        # the superposition is a plain complex sum; splitting the slit set
        # changes only floating-point association, so the parts recombine to
        # the whole at round-off level
        g0 = GratingSpec(6, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(1, 500e-9, 75e-9, 0.05)
        x = np.linspace(-2e-6, 2e-6, 101)
        z = 0.08
        centers = slit_positions(g0)

        def part(sel):
            out = 0.0 + 0.0j
            for c in centers[sel]:
                ctx = PathContext(particle=fullerene, grating0=g0, grating1=g1,
                                  x_s=0.0, z_s=-0.5, x0=float(c), x1=0.0)
                out = out + psi_behind(ctx, x, z)
            return out

        req = _req(fullerene, n0=6, n1=1)
        whole = superpose_behind(req, x, z)
        split = part(slice(0, 2)) + part(slice(2, 6))
        scale = np.abs(whole).max()
        assert np.allclose(whole, split, rtol=0.0, atol=1e-12 * scale)

    def test_parity_for_on_axis_source(self, fullerene):
        for kwargs in ({}, {"comb_k": 16, "comb_eta": 1.5}):
            req = _req(fullerene, n0=32, n1=33, **kwargs)
            x = centered_axis(-6e-6, 6e-6, 501)
            p = density(superpose_behind(req, x, 0.15))
            assert np.max(np.abs(p - p[::-1])) <= 1e-9 * p.max()

    def test_parity_paraxial(self, fullerene):
        req = _req(fullerene, n0=8, n1=9, z_s=PARAXIAL_ZS)
        x = centered_axis(-3e-6, 3e-6, 401)
        p = density(superpose_behind(req, x, 0.12))
        assert np.max(np.abs(p - p[::-1])) <= 1e-9 * p.max()

    def test_deterministic_repeat(self, fullerene):
        req = _req(fullerene, n0=5, n1=4)
        x = np.linspace(-2e-6, 2e-6, 33)
        a = superpose_behind(req, x, 0.09)
        b = superpose_behind(req, x, 0.09)
        assert np.array_equal(a, b)

    def test_scalar_equals_row_element(self, fullerene):
        req = _req(fullerene, n0=5, n1=4, comb_k=3, comb_eta=1.5)
        x = np.linspace(-2e-6, 2e-6, 9)
        row = superpose_behind(req, x, 0.07)
        for j in (0, 4, 8):
            assert superpose_behind(req, float(x[j]), 0.07) == row[j]

    @pytest.mark.parametrize("n0, n1, x_s, z_s, layout", [
        pytest.param(32, 33, 1e-6, -0.5, "spread", id="32-33-1e-06--0.5-standard"),
        pytest.param(8, 9, 0.0, PARAXIAL_ZS, "spread", id="8-9-0.0--inf-standard"),
        pytest.param(1, 9, 1e-6, -0.5, "spread", id="n0=1"),
        pytest.param(8, 1, 1e-6, -0.5, "spread", id="n1=1"),
        *(pytest.param(32, 33, 1e-6, -0.5, count, id=f"one tile of {count}")
          for count in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)),
        pytest.param(32, 33, 1e-6, -0.5, "tile each", id="one sample per tile"),
    ])
    def test_scalar_equals_row_factorised(self, fullerene, rng, n0, n1, x_s, z_s, layout):
        # no sample's value may depend on the other samples of its row, of
        # its x-tile or of its block of _BLOCK samples in the contraction
        req = _req(fullerene, n0=n0, n1=n1, x_s=x_s, z_s=z_s)
        if layout == "spread":  # irregularly spaced samples spanning many x-tiles
            x, planes = np.sort(rng.uniform(-6e-6, 6e-6, 61)), (0.05, 0.0500001, 0.07, 0.14)
        elif layout == "tile each":  # just past z1 every tile is narrower than the 0.1 um step
            x, planes = np.linspace(-3e-6, 3e-6, 61), (0.05 * (1.0 + 1e-12),)
        else:  # within 0.1 nm of x = 0, where a tile is centred at every z
            x, planes = np.sort(rng.uniform(-1e-10, 1e-10, layout)), (0.0500001, 0.07, 0.14)
        perm = rng.permutation(x.size)
        for z in planes:
            row = superpose_behind(req, x, z)
            assert all(superpose_behind(req, float(xj), z) == row[j] for j, xj in enumerate(x))
            assert np.array_equal(superpose_behind(req, x[perm], z), row[perm])
            assert np.array_equal(superpose_behind(req, x[::3], z), row[::3])

    @settings(max_examples=100)
    @given(
        n0=st.integers(2, 64),
        n1=st.integers(2, 64),
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        pitch_scale0=st.floats(2.5, 8.0),
        pitch_scale1=st.floats(2.5, 8.0),
        z1=st.floats(0.02, 0.08),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-50.0, -0.3)),
        x_s=st.floats(-3e-6, 3e-6),
        past=st.one_of(st.just(1e-12), st.floats(1e-12, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_row_permutation_and_subset_agree(self, n0, n1, lam, b0, b1, pitch_scale0,
                                                     pitch_scale1, z1, z_s, x_s, past, seed):
        """A sample's value is the same bit for bit whether it is evaluated alone,
        in its row, in a permuted row or among every third sample, for random
        geometries from z1 (1 + 1e-12) to 3 z1 and samples out to +-1 mm."""
        scn = Scenario(
            particle=Particle(mass=1.2e-24, lambda_dB=lam),
            grating0=GratingSpec(n0, pitch_scale0 * b0, b0, 0.0),
            grating1=GratingSpec(n1, pitch_scale1 * b1, b1, z1),
            source=SourceSpec(kind="point", x_positions=(x_s,), z_s=z_s),
        )
        rng = np.random.default_rng(seed)
        span = max(slit_positions(scn.grating0)[-1], slit_positions(scn.grating1)[-1]) + 3e-6
        tails = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-5.0, -3.0, 4)
        x = np.sort(np.concatenate([rng.uniform(-span, span, 11), tails, [1e-3, -1e-3]]))
        perm = rng.permutation(x.size)
        z = z1 * (1.0 + past)
        row = superpose_behind(scn, x, z)
        assert all(superpose_behind(scn, float(xj), z) == row[j] for j, xj in enumerate(x))
        assert np.array_equal(superpose_behind(scn, x[perm], z), row[perm])
        assert np.array_equal(superpose_behind(scn, x[::3], z), row[::3])

    def test_region_violation(self, fullerene):
        req = _req(fullerene, region="between")
        with pytest.raises(DomainError):
            superpose_behind(req, 0.0, 0.08)
        req2 = _req(fullerene)
        with pytest.raises(DomainError):
            superpose_behind(req2, 0.0, 0.04)


class TestNonFiniteDetector:
    """A NaN or infinite detector position is a DomainError, never a NaN
    density or a numpy warning (fig4a's geometry)."""

    @pytest.fixture()
    def fig4a(self):
        return preset_run_config("fig4a").scenario

    def test_nan_sample(self, fig4a):
        for superpose, z in ((superpose_behind, 0.1), (superpose_between, 0.03)):
            with pytest.raises(DomainError, match="must be finite"):
                superpose(fig4a, [0.0, math.nan], z)

    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    def test_infinite_sample(self, fig4a, x):
        for superpose, z in ((superpose_behind, 0.1), (superpose_between, 0.03)):
            with pytest.raises(DomainError, match="must be finite"):
                superpose(fig4a, [0.0, x], z)
            with pytest.raises(DomainError, match="must be finite"):
                superpose(fig4a, x, z)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_plane(self, fig4a, z):
        with pytest.raises(DomainError, match="must be finite"):
            superpose_behind(fig4a, [0.0, 1e-6], z)

    def test_gsm_density_profile(self):
        scn = preset_run_config("fig5a").scenario
        assert scn.source.gsm
        with pytest.raises(DomainError, match="must be finite"):
            density_profile(scn, np.array([0.0, math.nan, 1e-6]), 0.1)


class TestDensity:
    def test_zero(self):
        assert density(0.0 + 0.0j) == 0.0

    def test_unit(self):
        assert density(1.0 + 0.0j) == 1.0

    def test_global_phase_invariance(self, rng):
        psi = rng.normal(size=50) + 1j * rng.normal(size=50)
        base = density(psi)
        for theta in (0.3, 1.7, -2.2):
            rotated = density(np.exp(1j * theta) * psi)
            assert np.allclose(rotated, base, rtol=1e-12)


class TestRequestValidation:
    def test_hard_edge_takes_paraxial_source(self, fullerene):
        comb = _req(fullerene, z_s=PARAXIAL_ZS, comb_k=16, comb_eta=1.5)
        assert comb.source.paraxial and comb.propagator == "hard-edge"
        assert np.all(np.isfinite(superpose_behind(comb, np.linspace(-1e-6, 1e-6, 9), 0.08)))
        # the echo names the slit model, so a K = 1, eta = 1 comb does not
        # hash the same as the fuzzy slit it equals up to sqrt(2/pi)
        fuzzy = _req(fullerene, z_s=PARAXIAL_ZS)
        k1 = _req(fullerene, z_s=PARAXIAL_ZS, comb_k=1)
        assert "scenario.propagator = paraxial" in scenario_lines(fuzzy)
        assert "scenario.propagator = hard-edge" in scenario_lines(k1)
        assert fingerprint(k1) != fingerprint(fuzzy)

    def test_comb_eta_needs_comb_k(self):
        # eta tunes the comb; fuzzy slits (comb_k = None) have none to tune
        with pytest.raises(DomainError, match="set comb_k too"):
            GratingSpec(3, 500e-9, 75e-9, 0.05, comb_eta=1.5)
        assert GratingSpec(3, 500e-9, 75e-9, 0.05, comb_k=1, comb_eta=1.5).comb

    def test_unit_comb_is_hard_edge(self, fullerene):
        # the K = 1, eta = 1 comb, built directly or reached by a K1 or eta1
        # sweep value of fuzzy slits, is hard-edged and hashes apart from them;
        # a config that sets only comb_k = 1 names the defaults: fuzzy slits
        fuzzy = _req(fullerene)
        combs = [_req(fullerene, comb_k=1), apply_sweep_value(fuzzy, "K1", 1.0),
                 apply_sweep_value(fuzzy, "eta1", 1.0)]
        for comb in combs:
            assert comb == combs[0]
            assert "scenario.propagator = hard-edge" in scenario_lines(comb)
            assert fingerprint(comb) != fingerprint(fuzzy)
        base = "particle.lambda = 5pm\n"
        k1 = parse_config(base + "grating1.comb_k = 1\n").scenario
        assert k1 == parse_config(base).scenario and not k1.grating1.comb
        assert "scenario.propagator = standard" in scenario_lines(k1)

    def test_g0_comb_rejected(self, fullerene):
        g1 = GratingSpec(1, 500e-9, 75e-9, 0.05)
        src = SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)
        for comb in ({"comb_k": 4}, {"comb_k": 1, "comb_eta": 1.5}):
            g0 = GratingSpec(2, 500e-9, 37.5e-9, 0.0, **comb)
            with pytest.raises(DomainError, match="grating 1 only"):
                Scenario(particle=fullerene, grating0=g0, grating1=g1, source=src)


class TestCallShape:
    @pytest.mark.parametrize("z", [0.03, 0.08], ids=["between", "behind"])
    def test_spectral_profile_averages_rebuilt_scenarios(self, fullerene, z):
        spec = SpectralSpec(mean_lambda=5e-12, sigma_g=2.25e-12,
                            lambda_list=(3e-12, 4.5e-12, 5e-12, 7.25e-12))
        src = SourceSpec(kind="line", x_positions=(-1e-6, -0.5e-6, 0.0, 0.5e-6), z_s=-0.5,
                         sigma_I=0.5e-6, spectral=spec)
        point = _req(fullerene, n0=5, n1=4)
        scn = Scenario(particle=fullerene, grating0=point.grating0, grating1=point.grating1,
                       source=src)
        x = np.linspace(-2e-6, 2e-6, 41)
        expected = spectral_average(
            [density_profile(scn.with_wavelength(lam), x, z) for lam in spec.lambda_list],
            gaussian_spectral_weights(spec),
        )
        assert np.array_equal(spectral_density_profile(scn, x, z), expected)

    def test_line_source_needs_explicit_x_s(self, fullerene, line_source_33):
        point = _req(fullerene)
        scn = Scenario(particle=fullerene, grating0=point.grating0, grating1=point.grating1,
                       source=line_source_33)
        with pytest.raises(DomainError):
            superpose_behind(scn, 0.0, 0.08)
        with pytest.raises(DomainError):
            superpose_between(scn, 0.0, 0.02)
        x_s = line_source_33.x_positions[3]
        assert superpose_behind(scn, 0.0, 0.08, x_s=x_s) == superpose_behind(
            _req(fullerene, x_s=x_s), 0.0, 0.08)

    @pytest.mark.parametrize("preset, z, x_s", [
        ("fig15b", 0.07, None),    # the hard-edged comb's direct kernel
        ("fig15b", 0.05, None),    # its z == z1 plane limit
        ("fig4a", 0.1, None),      # the factorised kernel
        ("fig4b", 0.1, None),      # off-centre source: no mirror rule
        ("fig4a", 0.03, None),     # between the gratings
        ("fig5a", 0.1, 1e-6),      # one source of a line
    ])
    def test_empty_row_is_empty(self, preset, z, x_s):
        scn = preset_run_config(preset).scenario
        superpose = superpose_between if z < scn.z1 else superpose_behind
        psi = superpose(scn, np.array([]), z, x_s=x_s)
        assert psi.shape == (0,) and psi.dtype == complex

    def test_empty_single_path_row_is_empty(self, fullerene):
        scn = _req(fullerene)
        ctx = PathContext(particle=fullerene, grating0=scn.grating0, grating1=scn.grating1,
                          x_s=0.0, z_s=-0.5, x0=0.0, x1=0.0)
        assert psi_behind(ctx, np.array([]), 0.08).shape == (0,)
