import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsim import coherence, parallel
from tlsim.core import (
    COHERENT_SIGMA, DomainError, GratingSpec, Particle, SourceSpec, SpectralSpec, centered_axis,
)
from tlsim.coherence import (
    FringeMetrics,
    _kappa,
    coherence_sweep,
    density_profile,
    fringe_metrics,
    focusing_contrast,
    gaussian_spectral_weights,
    gsm_average,
    resonance_scan,
    spectral_average,
    source_field_matrix,
    spectral_density_profile,
    sweep_profiles,
    talbot_section,
)
from tlsim.fieldgrid import Profile
from tlsim.presets import PRESETS, preset_run_config
from tlsim.propagators import reduce_paths
from tlsim.scenario import Scenario, apply_sweep_value

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _kernel_spec(xs, sigma):
    return SourceSpec(kind="line", x_positions=tuple(xs), z_s=-0.5, sigma_I=sigma)


def _spectrum(lams, mean, sigma):
    return SpectralSpec(mean_lambda=mean, sigma_g=sigma, lambda_list=tuple(lams))


def _random_phase_fields(rng, S, nx):
    return rng.uniform(0.0, 1.0, (S, nx)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (S, nx)))


def _diag(F):
    return np.sum(np.abs(F) ** 2, axis=0) / SQRT_2PI


def _outer_product_form(F, spec, chunk=256):
    """Reference: the S^2 * nx outer product conj(F_i) F_j kappa_ij folded by
    reduce_paths, in column chunks to bound its memory."""
    kappa = _kappa(spec)
    S = F.shape[0]
    out = []
    for a in range(0, F.shape[1], chunk):
        Fc = F[:, a:a + chunk]
        prod = (np.conj(Fc)[:, None, :] * Fc[None, :, :]) * kappa[:, :, None]
        out.append(reduce_paths(prod.reshape(S * S, -1)).real)
    return np.concatenate(out)


class TestKernel:
    def test_symmetry_and_diagonal_exact(self, rng):
        for _ in range(50):
            xs = np.sort(rng.uniform(-5e-6, 5e-6, 6))
            m = _kappa(_kernel_spec(xs, 10.0 ** rng.uniform(-8, -5)))
            assert np.array_equal(m, m.T)
            assert np.all(np.diag(m) == 1.0 / SQRT_2PI)

    def test_scaled_matrix_limits(self):
        xs = (-1e-6, 0.0, 1e-6)
        coherent = _kappa(_kernel_spec(xs, COHERENT_SIGMA))
        assert np.allclose(coherent, 1.0 / SQRT_2PI, rtol=0, atol=0)
        tiny = _kappa(_kernel_spec(xs, 1e-9))
        assert np.allclose(np.diag(tiny), 1.0 / SQRT_2PI)
        off = tiny[~np.eye(3, dtype=bool)]
        assert np.all(off < 1e-300)

    def test_coherent_kernel_needs_no_branch(self, rng):
        # sigma_I = inf goes through the general formula: dx^2/(2 sigma^2) = 0
        xs = np.sort(rng.uniform(-5e-3, 5e-3, 33))
        assert np.all(_kappa(_kernel_spec(xs, COHERENT_SIGMA)) == 1.0 / SQRT_2PI)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            _kernel_spec((), 1e-6)
        with pytest.raises(DomainError):
            _kernel_spec((0.0, 0.0), 1e-6)
        with pytest.raises(DomainError):
            _kernel_spec((0.0,), 0.0)


class TestGsmAverage:
    def test_single_source_any_sigma(self, rng):
        psi = complex(rng.normal(), rng.normal())
        for sigma in (1e-8, 1e-6, 1e-3, COHERENT_SIGMA):
            p = gsm_average(np.array([psi]), _kernel_spec((0.0,), sigma))
            assert p == pytest.approx(abs(psi) ** 2 / SQRT_2PI, rel=1e-14)

    def test_incoherent_limit_is_intensity_sum(self, rng):
        xs = tuple(np.arange(5) * 1e-6)
        F = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        # off-diagonal weights below 1e-12 of diagonal at sigma << spacing
        p = gsm_average(F, _kernel_spec(xs, 1e-7))
        expect = np.sum(np.abs(F) ** 2, axis=0) / SQRT_2PI
        assert np.allclose(p, expect, rtol=1e-9)

    def test_coherent_limit_is_coherent_sum(self, rng):
        span = 4e-6
        xs = (-span / 2, 0.0, span / 2)
        F = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        p = gsm_average(F, _kernel_spec(xs, 1e4 * span))
        expect = np.abs(F.sum(axis=0)) ** 2 / SQRT_2PI
        assert np.allclose(p, expect, rtol=1e-6)

    def test_remote_coherence_width_converges_to_coherent(self, rng):
        xs = tuple(-4e-6 + 0.25e-6 * k for k in range(33))
        F = _random_phase_fields(rng, 33, 64)
        coherent = gsm_average(F, _kernel_spec(xs, COHERENT_SIGMA))
        km = gsm_average(F, _kernel_spec(xs, 1e3))
        assert np.max(np.abs(km - coherent)) <= 1e-12 * np.max(coherent)

    def test_global_phase_invariance(self, rng):
        xs = tuple(np.arange(4) * 0.25e-6)
        F = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        spec = _kernel_spec(xs, 0.4e-6)
        base = gsm_average(F, spec)
        assert np.allclose(gsm_average(np.exp(0.7j) * F, spec), base, rtol=1e-12)

    def test_output_real_nonnegative(self, rng):
        xs = tuple(np.arange(6) * 0.25e-6)
        F = rng.normal(size=(6, 33)) + 1j * rng.normal(size=(6, 33))
        for sigma in (1e-7, 3e-7, 1e-6, COHERENT_SIGMA):
            p = gsm_average(F, _kernel_spec(xs, sigma))
            assert np.all(p >= 0.0)

    def test_cancellation_clamps_to_zero(self):
        # two exactly opposite fields and a coherent kernel: p is exactly 0
        # up to round-off and must clamp, not go negative
        F = np.array([[1.0 + 2.0j], [-1.0 - 2.0j]])
        p = gsm_average(F, _kernel_spec((0.0, 1e-9), COHERENT_SIGMA))
        assert p[0] == 0.0

    @pytest.mark.parametrize("S", [1, 3, 33])
    def test_single_point_equals_row_sample(self, rng, S):
        xs = tuple(np.arange(S) * 0.25e-6)
        F = _random_phase_fields(rng, S, 17)
        for sigma in (1e-7, 1e-6, COHERENT_SIGMA):
            spec = _kernel_spec(xs, sigma)
            row = gsm_average(F, spec)
            for k in range(F.shape[1]):
                p = gsm_average(F[:, k], spec)
                assert type(p) is float
                assert p == row[k]

    def test_peak_memory_linear_in_sources(self, rng):
        # the outer product alone would hold S^2 * nx complex values (36 MB)
        S, nx = 33, 2048
        F = _random_phase_fields(rng, S, nx)
        spec = _kernel_spec(np.arange(S) * 0.25e-6, 1e-6)
        tracemalloc.start()
        try:
            gsm_average(F, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * S * nx * 8

    def test_field_count_mismatch(self, rng):
        F = rng.normal(size=(3, 4)) + 0j
        spec = _kernel_spec((0.0, 1e-6), 1e-6)
        for bad in (F, F[0, 0], np.zeros((2, 3, 4), dtype=complex)):
            with pytest.raises(DomainError):
                gsm_average(bad, spec)


_gsm_cases = dict(
    S=st.integers(1, 64),
    nx=st.integers(1, 40),
    log_sigma=st.one_of(st.floats(-8.0, -4.0), st.just(math.inf)),
    seed=st.integers(0, 2**32 - 1),
)


def _gsm_case(S, nx, log_sigma, seed):
    """Random-phase fields on S random source positions, and the kernel."""
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.05e-6, 0.5e-6, S))
    sigma = COHERENT_SIGMA if log_sigma == math.inf else 10.0 ** log_sigma
    return _random_phase_fields(rng, S, nx), _kernel_spec(xs, sigma)


class TestGsmAverageProperties:
    @settings(max_examples=80)
    @given(**_gsm_cases)
    def test_matches_exact_double_sum(self, S, nx, log_sigma, seed):
        F, spec = _gsm_case(S, nx, log_sigma, seed)
        p = gsm_average(F, spec)
        # every term in long double, rounded once, then summed exactly
        kappa = _kappa(spec).astype(np.longdouble)
        fr = F.real.astype(np.longdouble)
        fi = F.imag.astype(np.longdouble)
        terms = kappa[:, :, None] * (fr[:, None, :] * fr[None, :, :] + fi[:, None, :] * fi[None, :, :])
        exact = np.array([math.fsum(terms[:, :, k].astype(float).ravel()) for k in range(nx)])
        assert np.all(np.abs(p - np.maximum(exact, 0.0)) <= 1e-13 * _diag(F))

    @settings(max_examples=80)
    @given(**_gsm_cases, data=st.data())
    def test_column_slice_bit_identical(self, S, nx, log_sigma, seed, data):
        F, spec = _gsm_case(S, nx, log_sigma, seed)
        a = data.draw(st.integers(0, nx - 1))
        b = data.draw(st.integers(a + 1, nx))
        assert np.array_equal(gsm_average(F[:, a:b], spec), gsm_average(F, spec)[a:b])

    def test_fig7_geometry_matches_outer_product(self):
        scn = preset_run_config("fig7").scenario
        lo, hi = scn.metrics_window()
        x = centered_axis(lo, hi, 2048)
        F = source_field_matrix(scn, x, scn.z0 + scn.z_talbot)
        assert F.shape == (33, 2048)
        tol = 1e-12 * _diag(F)
        for sigma in (*PRESETS["fig7"]["sigmas"], COHERENT_SIGMA):
            spec = _kernel_spec(scn.source.x_positions, sigma)
            ref = np.maximum(_outer_product_form(F, spec), 0.0)
            assert np.all(np.abs(gsm_average(F, spec) - ref) <= tol)


class TestFringeMetrics:
    def test_zero_min_gives_unit_visibility(self):
        m = fringe_metrics([0.0, 0.5, 1.0])
        assert m == FringeMetrics(p_min=0.0, p_max=1.0, visibility=1.0)

    def test_constant_profile(self):
        assert fringe_metrics([0.7, 0.7, 0.7]).visibility == 0.0

    def test_all_zero_convention(self):
        assert fringe_metrics([0.0, 0.0]).visibility == 0.0

    def test_bounds(self, rng):
        for _ in range(20):
            p = np.abs(rng.normal(size=64))
            v = fringe_metrics(p).visibility
            assert 0.0 <= v <= 1.0

    def test_rejects_bad_profiles(self):
        with pytest.raises(DomainError):
            fringe_metrics([])
        with pytest.raises(DomainError):
            fringe_metrics([-0.1, 0.5])


class TestSpectral:
    def test_weights_normalized_and_symmetric(self):
        lams = np.array([3.0, 4.0, 5.0, 6.0, 7.0]) * 1e-12
        w = gaussian_spectral_weights(_spectrum(lams, 5e-12, 2.25e-12))
        assert abs(w.sum() - 1.0) < 1e-15
        assert np.allclose(w, w[::-1], rtol=1e-12)

    def test_single_wavelength_identity(self, rng):
        d = rng.random(16)
        out = spectral_average([d], gaussian_spectral_weights(_spectrum([5e-12], 5e-12, 1e-12)))
        assert np.allclose(out, d, rtol=0, atol=0)

    def test_linear_and_nonnegative(self, rng):
        stack = rng.random((4, 10))
        w = gaussian_spectral_weights(_spectrum([3e-12, 4e-12, 5e-12, 6e-12], 5e-12, 2e-12))
        out = spectral_average(stack, w)
        assert np.all(out >= 0.0)
        assert np.allclose(out, sum(wi * di for wi, di in zip(w, stack)), rtol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            gaussian_spectral_weights(_spectrum([], 5e-12, 1e-12))

    def test_fig12_weights_unchanged(self):
        spec = preset_run_config("fig12").scenario.source.spectral
        lams = np.asarray(spec.lambda_list)
        w = np.exp(-((lams - spec.mean_lambda) ** 2) / (2.0 * spec.sigma_g * spec.sigma_g))
        assert np.array_equal(gaussian_spectral_weights(spec), w / w.sum())

    def test_band_narrower_than_spacing_falls_on_nearest_wavelength(self):
        """A 0.001 pm band at 5.1 pm on the 0.25 pm default list: every
        Gaussian weight underflows, yet the average is the density at 5 pm."""
        scn = preset_run_config("fig12", nx=16, nz=4).scenario
        band = dataclasses.replace(scn.source.spectral, mean_lambda=5.1e-12, sigma_g=1e-15)
        scn = dataclasses.replace(scn, source=dataclasses.replace(scn.source, spectral=band))
        near = min(band.lambda_list, key=lambda lam: abs(lam - 5.1e-12))
        x = np.linspace(-4e-6, 4e-6, 16)
        for z in (0.02, 0.1):
            got = spectral_density_profile(scn, x, z)
            assert got.tobytes() == density_profile(scn.with_wavelength(near), x, z).tobytes()


class TestFocusingContrast:
    def test_identical_planes_rejected(self):
        x = np.linspace(-1, 1, 5)
        prof = Profile(z=0.05, x=x, p=np.ones(5))
        with pytest.raises(DomainError):
            focusing_contrast(prof, Profile(z=0.05, x=x, p=np.ones(5)))

    def test_mismatched_sampling_rejected(self):
        a = Profile(z=0.05, x=np.linspace(-1, 1, 5), p=np.ones(5))
        b = Profile(z=0.06, x=np.linspace(-1, 1, 7), p=np.ones(7))
        with pytest.raises(DomainError):
            focusing_contrast(a, b)

    def test_equal_profiles_give_zero(self):
        x = np.linspace(-1, 1, 9)
        p = np.abs(np.sin(x)) + 0.1
        _, dp = focusing_contrast(Profile(0.05, x, p), Profile(0.051, x, p.copy()))
        assert np.all(dp == 0.0)


def _forbid_fields(monkeypatch):
    """Make any field evaluation by the coherence drivers fail the test, in
    this process or in the worker pool, whatever the worker count."""
    def no_fields(*args, **kwargs):
        raise AssertionError("a field was evaluated before the request was checked")

    monkeypatch.setattr(coherence, "spectral_density_profile", no_fields)
    monkeypatch.setattr(coherence, "source_field_matrix", no_fields)
    monkeypatch.setattr(coherence, "map_chunks", no_fields)


class TestDrivers:
    def test_sweep_monotone_on_small_config(self, fullerene):
        g0 = GratingSpec(8, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(9, 500e-9, 75e-9, 0.05)
        xs = tuple(-1e-6 + 0.25e-6 * k for k in range(9))
        src = SourceSpec(kind="line", x_positions=xs, z_s=-0.5)
        scn = Scenario(particle=fullerene, grating0=g0, grating1=g1, source=src,
                       region="behind", propagator="standard")
        rows = coherence_sweep(scn, np.logspace(-1, 1, 5) * 1e-6, samples=512)
        vs = [m.visibility for _, m in rows]
        for lo, hi in zip(vs, vs[1:]):
            assert hi >= lo - 0.02  # non-increasing as sigma decreases, 2% band

    def test_sweep_rejects_empty_or_negative(self, fullerene, line_source_33, g0_main, g1_main):
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=line_source_33, region="behind", propagator="standard")
        with pytest.raises(DomainError):
            coherence_sweep(scn, [])
        with pytest.raises(DomainError):
            coherence_sweep(scn, [-1e-6])

    def test_sweep_rejects_bad_sigma_before_any_field(self, fullerene, line_source_33, g0_main,
                                                      g1_main, monkeypatch):
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=line_source_33, region="behind", propagator="standard")
        _forbid_fields(monkeypatch)
        for bad in (math.nan, -1e-6):
            with pytest.raises(DomainError, match="sigma_I"):
                coherence_sweep(scn, [1e-6, bad])

    @pytest.mark.parametrize("xs", [(0.0,), (1e-6,)])
    @pytest.mark.parametrize("kind", ["point", "line"])
    def test_sweep_rejects_source_without_coherence_width(self, fullerene, g0_main, g1_main,
                                                          monkeypatch, kind, xs):
        src = SourceSpec(kind=kind, x_positions=xs, z_s=-0.5)
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main, source=src,
                       region="behind", propagator="standard")
        _forbid_fields(monkeypatch)
        with pytest.raises(DomainError, match="two or more positions"):
            coherence_sweep(scn, [0.1e-6, 10e-6], samples=16)
        with pytest.raises(DomainError, match="two or more positions"):
            apply_sweep_value(scn, "sigma_I", 1e-6)

    @pytest.mark.parametrize("region, message", [
        ("between", r"Talbot plane z0 \+ z_T at z = 0\.1 m lies outside the scenario's "
                    r"between region \(0 <= z <= 0\.05 m\)"),
        ("behind", r"Talbot plane z0 \+ z_T at z = 0\.03 m lies outside the scenario's "
                   r"behind region \(0\.05 <= z <= inf m\)"),
    ], ids=["between", "behind"])
    def test_sweep_rejects_plane_outside_region(self, fullerene, g0_main, g1_main,
                                                line_source_33, monkeypatch, region, message):
        # G1 at 0.05 m; z_T = 0.1 m at 5 pm, and 0.03 m at 5 pm * 10/3
        particle = fullerene if region == "between" else Particle(fullerene.mass, 5e-12 * 10 / 3)
        scn = Scenario(particle=particle, grating0=g0_main, grating1=g1_main,
                       source=line_source_33, region=region, propagator="standard")
        _forbid_fields(monkeypatch)
        with pytest.raises(DomainError, match=message):
            coherence_sweep(scn, [1e-6], samples=16)

    def test_resonance_scan_rejects_plane_outside_region(self, fullerene, plane_wave_source,
                                                         monkeypatch):
        g0 = GratingSpec(4, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(5, 500e-9, 75e-9, 0.05)
        scn = Scenario(particle=fullerene, grating0=g0, grating1=g1,
                       source=plane_wave_source, region="between", propagator="standard")
        _forbid_fields(monkeypatch)
        with pytest.raises(DomainError, match=r"resonance plane .* at z = 0\.1 m .* between region"):
            resonance_scan(scn, [4e-12, 5e-12], samples=16)

    def test_resonance_scan_rows(self, fullerene, plane_wave_source):
        g0 = GratingSpec(4, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(5, 500e-9, 75e-9, 0.05)
        scn = Scenario(particle=fullerene, grating0=g0, grating1=g1,
                       source=plane_wave_source, region="behind", propagator="standard")
        rows = resonance_scan(scn, [3e-12, 5e-12, 7e-12], samples=256)
        assert len(rows) == 3
        lam, v, pmax = rows[1]
        assert v == pytest.approx(fullerene.v_z, rel=1e-12)
        assert pmax == max(r[2] for r in rows)  # resonance wins

    def test_second_resonance_harmonic(self, fullerene, plane_wave_source):
        # a weaker emittance maximum appears where twice the wavelength hits
        # the self-imaging condition, i.e. near 2.5 pm (v ~ 220 m/s)
        g0 = GratingSpec(8, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(9, 500e-9, 75e-9, 0.05)
        scn = Scenario(particle=fullerene, grating0=g0, grating1=g1,
                       source=plane_wave_source, region="behind", propagator="standard")
        lams = [2.0e-12 + 0.125e-12 * k for k in range(9)]
        rows = resonance_scan(scn, lams, samples=768)
        pmax = [r[2] for r in rows]
        k = int(np.argmax(pmax))
        assert 0 < k < len(lams) - 1  # interior local maximum
        assert abs(rows[k][0] - 2.5e-12) <= 0.125e-12
        assert rows[k][1] == pytest.approx(220.0, rel=0.01)

    def test_source_matrix_shape(self, fullerene, line_source_33, g0_main, g1_main):
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=line_source_33, region="behind", propagator="standard")
        x = centered_axis(-1e-6, 1e-6, 64)
        F = source_field_matrix(scn, x, 0.1)
        assert F.shape == (33, 64)

    def test_density_profile_point_vs_distributed(self, fullerene, g0_main, g1_main):
        x = centered_axis(-1e-6, 1e-6, 64)
        pt = SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=pt, region="behind", propagator="standard")
        p = density_profile(scn, x, 0.1)
        assert p.shape == x.shape and np.all(p >= 0.0)


def _line_9(fullerene, spectral=None):
    """The 8/9-slit geometry with a 9-point line source, optionally spectral."""
    g0 = GratingSpec(8, 500e-9, 37.5e-9, 0.0)
    g1 = GratingSpec(9, 500e-9, 75e-9, 0.05)
    xs = tuple(-1e-6 + 0.25e-6 * k for k in range(9))
    src = SourceSpec(kind="line", x_positions=xs, z_s=-0.5, spectral=spectral)
    return Scenario(particle=fullerene, grating0=g0, grating1=g1, source=src,
                    region="behind", propagator="standard")


class TestSweepProfiles:
    SIGMAS = (0.1e-6, 1e-6, 10e-6)

    def _per_sigma_rows(self, scn, samples):
        x, z = talbot_section(scn, samples)
        return [(s, fringe_metrics(spectral_density_profile(apply_sweep_value(scn, "sigma_I", s), x, z)))
                for s in self.SIGMAS]

    def test_monochromatic_sweep_equals_per_sigma_path(self, fullerene):
        scn = _line_9(fullerene)
        assert coherence_sweep(scn, self.SIGMAS, samples=128) == self._per_sigma_rows(scn, 128)

    def test_spectral_sweep_averages_the_spectrum(self, fullerene):
        scn = _line_9(fullerene, _spectrum([4e-12, 5e-12, 6e-12], 5e-12, 1e-12))
        rows = coherence_sweep(scn, self.SIGMAS, samples=128)
        assert rows == self._per_sigma_rows(scn, 128)
        mono = coherence_sweep(_line_9(fullerene), self.SIGMAS, samples=128)
        assert [m for _, m in rows] != [m for _, m in mono]

    def test_resonance_scan_rejects_spectral_source(self, fullerene):
        scn = _line_9(fullerene, _spectrum([4e-12, 5e-12, 6e-12], 5e-12, 1e-12))
        with pytest.raises(DomainError, match="spectrum fixes the wavelengths"):
            resonance_scan(scn, [4e-12, 5e-12], samples=64)

    def test_every_value_checked_before_any_field(self, fullerene, monkeypatch):
        scn = _line_9(fullerene)
        _forbid_fields(monkeypatch)
        x, z = talbot_section(scn, 64)
        for param, values in (("K1", [2, 2.5]), ("lambda", [5e-12, -1]), ("sigma_I", [1e-6, math.nan])):
            with pytest.raises(DomainError):
                sweep_profiles(scn, param, values, x, z)
        with pytest.raises(DomainError):
            resonance_scan(scn, [5e-12, -1], samples=64)
        with pytest.raises(DomainError):
            coherence_sweep(scn, [1e-6, math.nan], samples=64)
        with pytest.raises(DomainError, match="must not be empty"):
            sweep_profiles(scn, "K1", [], x, z)


class TestSweepColumnSplit:
    """A sweep's x columns split anyhow, or over any worker count, join to
    the whole row bit for bit."""

    SPLIT = (0, 1, 8, 16, 25)  # chunks of 1, 7, 8, 9 and the rest (15)

    @staticmethod
    def _case(name):
        if name == "fig7-gsm":
            scn = preset_run_config("fig7").scenario
            x, z = talbot_section(scn, 40)
            return scn, "sigma_I", (0.1e-6, 1e-6, 10e-6), x, z
        if name == "paraxial-spectral":
            scn = preset_run_config("fig12").scenario
            assert scn.source.paraxial and scn.source.spectral is not None
            x, z = talbot_section(scn, 40)
            return scn, "zs", (-math.inf, -10.0), x, z
        scn = preset_run_config("fig17").scenario
        frac = 0.5 if name == "comb-at-z1" else 0.513
        z = scn.z0 + frac * scn.z_talbot
        assert (z == scn.z1) == (name == "comb-at-z1")
        return scn, "K1", (16,), centered_axis(-125e-9, 125e-9, 40), z

    @pytest.mark.parametrize("name", ["fig7-gsm", "paraxial-spectral", "comb-at-z1",
                                      "comb-past-z1"])
    def test_chunks_join_to_the_whole_row(self, name, monkeypatch):
        scn, param, values, x, z = self._case(name)
        whole = [p.tobytes() for _, p in sweep_profiles(scn, param, values, x, z, workers=1)]
        bounds = self.SPLIT + (len(x),)
        parts = [sweep_profiles(scn, param, values, x[lo:hi], z, workers=1)
                 for lo, hi in zip(bounds[:-1], bounds[1:])]
        for i, row in enumerate(whole):
            assert np.concatenate([part[i][1] for part in parts]).tobytes() == row
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        for workers in (2, 3):
            rows = sweep_profiles(scn, param, values, x, z, workers=workers)
            assert [p.tobytes() for _, p in rows] == whole
