import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsim import coherence
from tlsim.core import COHERENT_SIGMA, DomainError, GratingSpec, SourceSpec, SpectralSpec, centered_axis
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
)
from tlsim.fieldgrid import Profile
from tlsim.presets import PRESETS, preset_run_config
from tlsim.propagators import reduce_paths
from tlsim.scenario import Scenario

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

    def test_sweep_rejects_empty_or_negative(self, fullerene, point_source, g0_main, g1_main):
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=point_source, region="behind", propagator="standard")
        with pytest.raises(DomainError):
            coherence_sweep(scn, [])
        with pytest.raises(DomainError):
            coherence_sweep(scn, [-1e-6])

    def test_sweep_rejects_bad_sigma_before_any_field(self, fullerene, line_source_33, g0_main,
                                                      g1_main, monkeypatch):
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=line_source_33, region="behind", propagator="standard")

        def no_fields(*args, **kwargs):
            raise AssertionError("source_field_matrix called before the sigma_I values were checked")

        monkeypatch.setattr(coherence, "source_field_matrix", no_fields)
        for bad in (math.nan, -1e-6):
            with pytest.raises(DomainError, match="sigma_I"):
                coherence_sweep(scn, [1e-6, bad])

    def test_resonance_scan_rows(self, fullerene, plane_wave_source):
        g0 = GratingSpec(4, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(5, 500e-9, 75e-9, 0.05)
        scn = Scenario(particle=fullerene, grating0=g0, grating1=g1,
                       source=plane_wave_source, region="behind", propagator="paraxial")
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
                       source=plane_wave_source, region="behind", propagator="paraxial")
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
