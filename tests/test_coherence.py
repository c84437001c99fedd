import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsim
from tlsim import coherence, parallel, superposition
from tlsim.core import (
    COHERENT_SIGMA, DomainError, GratingSpec, Particle, SourceSpec, SpectralSpec, centered_axis,
)
from tlsim.coherence import (
    _GSM_BLOCK,
    CoherenceConsistencyError,
    FringeMetrics,
    _kappa,
    coherence_sweep,
    density_profile,
    evaluate_densities,
    field_at,
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
from tlsim.config import build_run_config
from tlsim.fieldgrid import Profile
from tlsim.presets import PRESETS, preset_run_config
from tlsim.propagators import reduce_paths
from tlsim.scenario import Scenario, apply_sweep_value
from tlsim.superposition import density

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
        # rows one sample short of a block, a block, a block and one, two
        # blocks and one, and 17 samples
        xs = tuple(np.arange(S) * 0.25e-6)
        for nx in (_GSM_BLOCK - 1, _GSM_BLOCK, _GSM_BLOCK + 1, 2 * _GSM_BLOCK + 1, 17):
            F = _random_phase_fields(rng, S, nx)
            for sigma in (1e-7, 1e-6, COHERENT_SIGMA):
                spec = _kernel_spec(xs, sigma)
                row = gsm_average(F, spec)
                for k in range(nx):
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


class TestConsistencyErrors:
    """The quadratic form's own checks, reached by substituting the kernel:
    a Gaussian kappa is symmetric and positive semi-definite, so a valid
    source never trips them."""

    XS = (-1e-6, 0.0, 1e-6)
    F = np.array([[1.0, 0.5j], [1.0j, -0.25], [0.5, 1.0 + 1.0j]])

    def _patch(self, monkeypatch, fn):
        real = coherence._kappa
        monkeypatch.setattr(coherence, "_kappa", lambda source: fn(real(source)))

    def test_antisymmetric_kernel_raises_on_the_imaginary_part(self, monkeypatch):
        skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        self._patch(monkeypatch, lambda k: k + 1e-6 * skew)
        with pytest.raises(CoherenceConsistencyError, match="imaginary part"):
            gsm_average(self.F, _kernel_spec(self.XS, 1e-6))

    def test_negated_kernel_raises_on_the_negative_value(self, monkeypatch):
        self._patch(monkeypatch, lambda k: -k)
        with pytest.raises(CoherenceConsistencyError, match="negative"):
            gsm_average(self.F, _kernel_spec(self.XS, 1e-6))

    def test_round_off_excursion_clamps_to_zero(self, monkeypatch):
        spec = _kernel_spec(self.XS, 1e-6)
        assert np.all(gsm_average(self.F, spec) > 0.0)
        self._patch(monkeypatch, lambda k: -1e-14 * k)
        assert gsm_average(self.F, spec).tolist() == [0.0, 0.0]


_gsm_cases = dict(
    S=st.integers(1, 64),
    nx=st.integers(1, max(40, 3 * _GSM_BLOCK + 1)),  # slices cross block boundaries
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

    @settings(max_examples=60)
    @given(S=st.integers(1, 64), nx=st.integers(1, 40), step=st.floats(0.05e-6, 1e-6),
           seed=st.integers(0, 2**32 - 1))
    def test_coherence_width_limits_on_random_fields(self, S, nx, step, seed):
        rng = np.random.default_rng(seed)
        xs = (np.arange(S) - (S - 1) / 2) * step
        assert max(_gsm_limit_errors(_random_phase_fields(rng, S, nx), xs)) <= 1e-12

    def test_coherence_width_limits_on_fig5a_fields(self):
        scn = preset_run_config("fig5a").scenario
        x, z = talbot_section(scn, 64)
        for zr in (z, scn.z1 + 1e-3):
            F = source_field_matrix(scn, x, zr)
            assert max(_gsm_limit_errors(F, scn.source.x_positions)) <= 1e-12

    def test_identical_across_blas_threads(self, tmp_path):
        """Every matmul of the form has a shape fixed by S, so fig7's 33 x 2048
        fields give byte-identical densities on 1 and 2 BLAS threads, for
        each of its coherence widths and the coherent limit.  A 200-source
        form, whose matmuls are larger, is checked the same way."""
        scn = preset_run_config("fig7").scenario
        x, z = talbot_section(scn, 2048)
        F = source_field_matrix(scn, x, z)
        assert F.shape == (33, 2048)
        np.save(tmp_path / "fields.npy", F)
        script = (
            "import dataclasses, sys\n"
            "import numpy as np\n"
            "from tlsim.coherence import gsm_average\n"
            "from tlsim.core import COHERENT_SIGMA, SourceSpec\n"
            "from tlsim.presets import PRESETS, preset_run_config\n"
            "src = preset_run_config('fig7').scenario.source\n"
            "F = np.load(sys.argv[1])\n"
            "rows = [gsm_average(F, dataclasses.replace(src, sigma_I=s))\n"
            "        for s in (*PRESETS['fig7']['sigmas'], COHERENT_SIGMA)]\n"
            "rng = np.random.default_rng(7)\n"
            "G = rng.normal(size=(200, 100)) + 1j * rng.normal(size=(200, 100))\n"
            "xs = tuple(np.arange(200) * 0.1e-6)\n"
            "rows.append(gsm_average(G, SourceSpec(kind='line', x_positions=xs, z_s=-0.5,\n"
            "                                      sigma_I=2e-6)))\n"
            "np.save(sys.argv[2], np.concatenate(rows))\n"
        )
        src = str(Path(tlsim.__file__).resolve().parents[1])
        saved = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            out = tmp_path / f"threads{threads}.npy"
            subprocess.run([sys.executable, "-c", script, str(tmp_path / "fields.npy"), str(out)],
                           env=env, check=True, timeout=300)
            saved.append(out.read_bytes())
        assert saved[0] == saved[1]

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


def _gsm_limit_errors(F, xs):
    """How far ``gsm_average`` of the fields F on the line xs sits from its
    coherent limit |sum_i F_i|^2 / sqrt(2 pi) at sigma_I = inf and from its
    incoherent limit sum_i |F_i|^2 / sqrt(2 pi) at sigma_I = 1e-12 m, each
    relative to the limit, or to the incoherent level where the coherent
    sum cancels below it."""
    diag = _diag(F)
    coherent = np.abs(F.sum(axis=0)) ** 2 / SQRT_2PI
    return tuple(
        float(np.max(np.abs(gsm_average(F, _kernel_spec(xs, sigma)) - ref)
                     / np.maximum(ref, diag)))
        for sigma, ref in ((COHERENT_SIGMA, coherent), (1e-12, diag))
    )


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

    def test_band_rows_take_one_kernel_call_at_any_worker_count(self, monkeypatch):
        """fig12's 21-wavelength band takes one kernel call per row, between
        the gratings and behind G1, and gives the bytes of one scenario per
        wavelength on 1, 2 and 3 workers."""
        rc = preset_run_config("fig12", nx=24, nz=7)
        scn, x, zs = rc.scenario, rc.grid.x_axis(), rc.grid.z_axis()
        spec = scn.source.spectral
        weights = gaussian_spectral_weights(spec)
        per_wavelength = np.array([
            spectral_average([density_profile(scn.with_wavelength(lam), x, z)
                              for lam in spec.lambda_list], weights)
            for z in zs.tolist()])
        calls = []
        with monkeypatch.context() as mp:
            for name in ("between_row", "behind_row"):
                real = getattr(superposition, name)
                mp.setattr(superposition, name,
                           lambda *a, real=real, **k: calls.append(np.size(a[0])) or real(*a, **k))
            whole = evaluate_densities([scn], x, zs, workers=1)
        assert calls == [len(spec.lambda_list)] * len(zs)
        assert whole[0].tobytes() == per_wavelength.tobytes()
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        for workers in (2, 3):
            assert evaluate_densities([scn], x, zs, workers=workers).tobytes() == whole.tobytes()

    def test_line_rows_take_one_kernel_call_at_any_worker_count(self, monkeypatch, tmp_path):
        """fig5a's 33-point line takes one kernel call per row for all of its
        17 mirror pairs and x_s = 0, between the gratings and behind G1, on
        1, 2 and 3 workers (each call logged to a file, which the forked
        workers append to), with the same bytes."""
        rc = preset_run_config("fig5a", nx=24, nz=7)
        scn, x, zs = rc.scenario, rc.grid.x_axis(), rc.grid.z_axis()
        log = tmp_path / "calls.txt"
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        for name in ("between_row", "behind_row"):
            monkeypatch.setattr(superposition, name, _logged(getattr(superposition, name), log))
        rows = []
        for workers in (1, 2, 3):
            log.write_text("")
            rows.append(evaluate_densities([scn], x, zs, workers=workers).tobytes())
            parallel.shutdown_pool()
            assert log.read_text().split() == ["17"] * len(zs)
        assert rows[0] == rows[1] == rows[2]

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


def _logged(kernel, log):
    """``kernel``, appending its source count to the file ``log`` on each call."""
    def logged(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{np.size(args[2])}\n")
        return kernel(*args, **kwargs)
    return logged


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
                       region="behind")
        rows = coherence_sweep(scn, np.logspace(-1, 1, 5) * 1e-6, samples=512)
        vs = [m.visibility for _, m in rows]
        for lo, hi in zip(vs, vs[1:]):
            assert hi >= lo - 0.02  # non-increasing as sigma decreases, 2% band

    def test_sweep_rejects_empty_or_negative(self, fullerene, line_source_33, g0_main, g1_main):
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=line_source_33, region="behind")
        with pytest.raises(DomainError):
            coherence_sweep(scn, [])
        with pytest.raises(DomainError):
            coherence_sweep(scn, [-1e-6])

    def test_sweep_rejects_bad_sigma_before_any_field(self, fullerene, line_source_33, g0_main,
                                                      g1_main, monkeypatch):
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=line_source_33, region="behind")
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
                       region="behind")
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
                       source=line_source_33, region=region)
        _forbid_fields(monkeypatch)
        with pytest.raises(DomainError, match=message):
            coherence_sweep(scn, [1e-6], samples=16)

    def test_resonance_scan_rejects_plane_outside_region(self, fullerene, plane_wave_source,
                                                         monkeypatch):
        g0 = GratingSpec(4, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(5, 500e-9, 75e-9, 0.05)
        scn = Scenario(particle=fullerene, grating0=g0, grating1=g1,
                       source=plane_wave_source, region="between")
        _forbid_fields(monkeypatch)
        with pytest.raises(DomainError, match=r"resonance plane .* at z = 0\.1 m .* between region"):
            resonance_scan(scn, [4e-12, 5e-12], samples=16)

    def test_resonance_scan_rows(self, fullerene, plane_wave_source):
        g0 = GratingSpec(4, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(5, 500e-9, 75e-9, 0.05)
        scn = Scenario(particle=fullerene, grating0=g0, grating1=g1,
                       source=plane_wave_source, region="behind")
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
                       source=plane_wave_source, region="behind")
        lams = [2.0e-12 + 0.125e-12 * k for k in range(9)]
        rows = resonance_scan(scn, lams, samples=768)
        pmax = [r[2] for r in rows]
        k = int(np.argmax(pmax))
        assert 0 < k < len(lams) - 1  # interior local maximum
        assert abs(rows[k][0] - 2.5e-12) <= 0.125e-12
        assert rows[k][1] == pytest.approx(220.0, rel=0.01)

    def test_source_matrix_shape(self, fullerene, line_source_33, g0_main, g1_main):
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=line_source_33, region="behind")
        x = centered_axis(-1e-6, 1e-6, 64)
        F = source_field_matrix(scn, x, 0.1)
        assert F.shape == (33, 64)

    @pytest.mark.parametrize("xs", [None, (-1e-6, 0.5e-6, 2e-6)], ids=["paired", "unpaired"])
    @pytest.mark.parametrize("z", [0.03, 0.05, 0.1])
    def test_source_matrix_of_an_empty_row(self, xs, z):
        scn = preset_run_config("fig5a").scenario
        if xs is not None:
            scn = dataclasses.replace(scn, source=dataclasses.replace(scn.source, x_positions=xs))
        F = source_field_matrix(scn, np.array([]), z)
        assert F.shape == (len(scn.source.x_positions), 0) and F.dtype == complex

    @pytest.mark.parametrize("nz, nx", [(0, 0), (0, 3), (2, 0), (2, 3), (9, 3)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_scenarios_give_an_empty_stack(self, monkeypatch, nz, nx, workers):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)  # no pool starts
        zs, x = np.linspace(0.03, 0.1, nz), np.linspace(-1e-6, 1e-6, nx)
        p = evaluate_densities([], x, zs, workers=workers)
        assert p.shape == (0, nz, nx) and p.dtype == float

    def test_density_profile_point_vs_distributed(self, fullerene, g0_main, g1_main):
        x = centered_axis(-1e-6, 1e-6, 64)
        pt = SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)
        scn = Scenario(particle=fullerene, grating0=g0_main, grating1=g1_main,
                       source=pt, region="behind")
        p = density_profile(scn, x, 0.1)
        assert p.shape == x.shape and np.all(p >= 0.0)

    def test_visibility_converges_in_the_source_step(self):
        # C5's line over +-4 um at the presets' step h = 0.25 um and at h / 2.
        # Measured shifts at 1024 samples: 1.5e-3 on the incoherent plateau
        # (sigma_I = 0.01 um), at most 2.3e-3 where sigma_I >= 4h, and 0.105
        # at sigma_I = 0.1 um, where the 33-point line is not converged.
        sigmas = (0.01e-6, 1e-6, 3.16e-6, 10e-6)
        vis = []
        for h in (0.25e-6, 0.125e-6):
            scn = build_run_config({"particle.lambda": 5e-12, "source.xs_min": -4e-6,
                                    "source.xs_max": 4e-6, "source.xs_step": h}).scenario
            rows = coherence_sweep(scn, sigmas + (0.1e-6,), samples=1024)
            vis.append(np.array([m.visibility for _, m in rows]))
        shift = np.abs(vis[1] - vis[0])
        assert np.all(shift[:-1] <= 3e-3), shift
        assert shift[-1] > 0.05


def _line_9(fullerene, spectral=None):
    """The 8/9-slit geometry with a 9-point line source, optionally spectral."""
    g0 = GratingSpec(8, 500e-9, 37.5e-9, 0.0)
    g1 = GratingSpec(9, 500e-9, 75e-9, 0.05)
    xs = tuple(-1e-6 + 0.25e-6 * k for k in range(9))
    src = SourceSpec(kind="line", x_positions=xs, z_s=-0.5, spectral=spectral)
    return Scenario(particle=fullerene, grating0=g0, grating1=g1, source=src,
                    region="behind")


class TestSampleShapes:
    """x is a scalar or a 1-D array and zs a 1-D array; anything else raises a
    DomainError naming the shape, not a numpy error."""

    def test_density_profile_refuses_a_2d_x(self):
        scn = preset_run_config("fig5a").scenario
        with pytest.raises(DomainError, match=re.escape("x must be a scalar or a 1-D array, "
                                                        "got shape (2, 2)")):
            density_profile(scn, np.zeros((2, 2)), 0.1)
        with pytest.raises(DomainError, match=r"got shape \(2, 2\)"):
            source_field_matrix(scn, np.zeros((2, 2)), 0.1)

    def test_evaluate_densities_refuses_a_2d_x(self):
        scn = preset_run_config("fig5a").scenario
        with pytest.raises(DomainError, match=re.escape("x must be a scalar or a 1-D array, "
                                                        "got shape (2, 3)")):
            evaluate_densities([scn], np.zeros((2, 3)), [0.1], 1)

    @pytest.mark.parametrize("zs", [0.1, [[0.1, 0.2]]], ids=["scalar", "2-D"])
    def test_evaluate_densities_refuses_zs_that_is_not_1d(self, zs):
        scn = preset_run_config("fig5a").scenario
        with pytest.raises(DomainError,
                           match=re.escape(f"zs must be a 1-D array, got shape {np.shape(zs)}")):
            evaluate_densities([scn], np.zeros(3), zs, 1)

    def test_a_scalar_x_is_one_sample(self):
        scn = preset_run_config("fig5a").scenario
        x = np.linspace(-2e-6, 2e-6, 5)
        row = evaluate_densities([scn], x, [0.03, 0.1], 1)
        for j in range(5):
            assert evaluate_densities([scn], float(x[j]), [0.03, 0.1], 1).tobytes() == \
                row[:, :, j].tobytes()


class TestSweepProfiles:
    SIGMAS = (0.1e-6, 1e-6, 10e-6)

    def _per_sigma_rows(self, scn, samples):
        x, z = talbot_section(scn, samples)
        return [(s, fringe_metrics(spectral_density_profile(apply_sweep_value(scn, "sigma_I", s), x, z)))
                for s in self.SIGMAS]

    def test_monochromatic_sweep_equals_per_sigma_path(self, fullerene):
        scn = _line_9(fullerene)
        assert coherence_sweep(scn, self.SIGMAS, samples=128) == self._per_sigma_rows(scn, 128)

    @pytest.mark.parametrize("param, values", [
        ("lambda", (4e-12, 6e-12)), ("zs", (-0.5, -1.0)), ("K1", (2, 4)),
    ])
    def test_line_sweeps_equal_the_per_value_path(self, fullerene, param, values):
        # only scenarios that differ in sigma_I alone may share the source fields
        scn = _line_9(fullerene)
        x, z = talbot_section(scn, 64)
        rows = sweep_profiles(scn, param, values, x, z, workers=1)
        assert [p.tobytes() for _, p in rows] == [
            spectral_density_profile(apply_sweep_value(scn, param, v), x, z).tobytes()
            for v in values]

    @pytest.mark.parametrize("z", [0.03, 0.1], ids=["between", "behind"])
    def test_xs_sweep_equals_the_point_source_at_each_position(self, z):
        """Each profile is the point source at its position, bit for bit.  The
        profile at -s is that at s mirrored, to round-off: the identity that
        mirror-paired line sources rest on."""
        fig4a = preset_run_config("fig4a").scenario
        x = centered_axis(-1e-5, 1e-5, 65)
        rows = sweep_profiles(fig4a, "xs", [2e-6, -2e-6], x, z, workers=1)
        for (scn, p), v in zip(rows, (2e-6, -2e-6)):
            point = build_run_config({"particle.lambda": 5e-12, "source.xs": v}).scenario
            assert scn == point
            assert p.tobytes() == density(field_at(point, x, z)).tobytes()
        (_, plus), (_, minus) = rows
        assert np.max(np.abs(minus - plus[::-1])) <= 1e-12 * plus.max()

    def test_spectral_sweep_averages_the_spectrum(self, fullerene, monkeypatch):
        scn = _line_9(fullerene, _spectrum([4e-12, 5e-12, 6e-12], 5e-12, 1e-12))
        rows = coherence_sweep(scn, self.SIGMAS, samples=128)
        assert rows == self._per_sigma_rows(scn, 128)
        mono = coherence_sweep(_line_9(fullerene), self.SIGMAS, samples=128)
        assert [m for _, m in rows] != [m for _, m in mono]
        # the sigma_I values share each wavelength's fields: 3 evaluations
        # per row, not 3 per row and sigma_I
        scenarios = [apply_sweep_value(scn, "sigma_I", s) for s in self.SIGMAS]
        x, zs = talbot_section(scn, 128)[0], (0.08, scn.z0 + scn.z_talbot)
        per_scenario = np.array([[spectral_density_profile(s, x, z) for z in zs] for s in scenarios])
        calls = []
        field_matrix = coherence.source_field_matrix

        def counted(scn_lam, x, z):
            calls.append((scn_lam.lam, z))
            return field_matrix(scn_lam, x, z)

        monkeypatch.setattr(coherence, "source_field_matrix", counted)
        shared = evaluate_densities(scenarios, x, zs, workers=1)
        assert sorted(calls) == sorted((lam, z) for lam in (4e-12, 5e-12, 6e-12) for z in zs)
        assert shared.tobytes() == per_scenario.tobytes()

    @pytest.mark.parametrize("preset, lam, z", [
        ("fig4a", 1e-300, 0.1),    # factorised behind-G1 kernel: its phase tables overflow
        ("fig14c", 1e-300, 0.1),   # the direct kernel of the hard-edged comb
        ("fig4a", 1e-310, 0.03),   # between the gratings
        ("fig4a", 5e-324, 0.1),    # lam (z1 - z0) underflows to a zero divisor
    ])
    def test_extreme_wavelength_raises_without_warning(self, preset, lam, z):
        scn = preset_run_config(preset).scenario
        x = centered_axis(-4e-6, 4e-6, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="float64's range"):
                sweep_profiles(scn, "lambda", [lam], x, z, workers=1)

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


class TestSharedFields:
    """A row's scenarios that differ only in sigma_I share their per-source
    fields; no others do."""

    @pytest.mark.parametrize("wrap", [list, np.array])
    def test_sigma_sweep_on_list_or_array_positions(self, fullerene, wrap):
        scn = _line_9(fullerene)
        src = SourceSpec(kind="line", x_positions=wrap(scn.source.x_positions), z_s=-0.5)
        assert type(src.x_positions) is tuple and all(type(v) is float for v in src.x_positions)
        other = dataclasses.replace(scn, source=src)
        assert other == scn and hash(other) == hash(scn)
        sigmas = TestSweepProfiles.SIGMAS
        assert coherence_sweep(other, sigmas, samples=64) == coherence_sweep(scn, sigmas, samples=64)

    @settings(max_examples=6)
    @given(order=st.permutations(range(7)), odd=st.sampled_from(["zs", "b1"]),
           odd_band=st.booleans(), nx=st.integers(2, 32), nz=st.integers(1, 2),
           sigma_first=st.sampled_from([0.1e-6, COHERENT_SIGMA]))
    def test_shared_fields_equal_the_per_scenario_path(self, fullerene, order, odd, odd_band,
                                                       nx, nz, sigma_first):
        mono = _line_9(fullerene)
        band = _line_9(fullerene, _spectrum([4e-12, 5e-12, 6e-12], 5e-12, 1e-12))
        sigmas = (sigma_first, 1e-6, 10e-6)
        mix = [apply_sweep_value(scn, "sigma_I", s) for scn in (mono, band) for s in sigmas]
        # one scenario that differs from another in more than sigma_I
        base = band if odd_band else mono
        if odd == "zs":
            mix.append(apply_sweep_value(base, "zs", -1.0))
        else:
            g1 = dataclasses.replace(base.grating1, half_width=60e-9)
            mix.append(dataclasses.replace(base, grating1=g1))
        mix = [mix[k] for k in order]
        x = centered_axis(-2e-6, 2e-6, nx)
        zs = (0.08, 0.1)[:nz]
        per_scenario = np.array([[spectral_density_profile(s, x, z) for z in zs] for s in mix])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel.os, "cpu_count", lambda: 2)
            for workers in (1, 2):
                got = evaluate_densities(mix, x, zs, workers=workers)
                assert got.tobytes() == per_scenario.tobytes()


    @staticmethod
    def _case(fullerene, name):
        """(scenarios, shared keys, unshared GSM (scenario, wavelength) pairs)."""
        mono = _line_9(fullerene)
        band = _line_9(fullerene, _spectrum([4e-12, 5e-12, 6e-12], 5e-12, 1e-12))
        sweep = [apply_sweep_value(mono, "sigma_I", s) for s in TestSweepProfiles.SIGMAS]
        if name == "sigma-shared":
            return sweep, 1, 0
        if name == "spectral-sigma-shared":
            return [apply_sweep_value(band, "sigma_I", s) for s in TestSweepProfiles.SIGMAS], 3, 0
        if name == "unshared":
            return [band, apply_sweep_value(mono, "zs", -1.0)], 0, 4
        return sweep + [band], 1, 3  # "mixed"

    CASES = ["sigma-shared", "spectral-sigma-shared", "unshared", "mixed"]

    @pytest.mark.parametrize("name", CASES)
    def test_one_field_evaluation_per_shared_key_per_row(self, fullerene, monkeypatch, name):
        scenarios, shared, unshared = self._case(fullerene, name)
        x = centered_axis(-2e-6, 2e-6, 16)
        zs = (0.08, 0.1)
        per_scenario = np.array([[spectral_density_profile(s, x, z) for z in zs]
                                 for s in scenarios])
        calls = []
        real = coherence.source_field_matrix
        monkeypatch.setattr(coherence, "source_field_matrix",
                            lambda scn, x, z: calls.append(z) or real(scn, x, z))
        got = evaluate_densities(scenarios, x, zs, workers=1)
        assert got.tobytes() == per_scenario.tobytes()
        assert sorted(calls) == sorted(zs * (shared + unshared))

    @pytest.mark.parametrize("name", CASES)
    def test_profiles_leave_the_fields_they_are_given_unchanged(self, fullerene, name):
        scenarios, _, _ = self._case(fullerene, name)
        x = centered_axis(-2e-6, 2e-6, 16)
        z = 0.08
        pairs = [w for s in scenarios for w in coherence._per_wavelength(s)]
        fields = {coherence._fields_key(w): source_field_matrix(w, x, z) for w in pairs}
        before = {key: (F, F.tobytes()) for key, F in fields.items()}
        for F in fields.values():
            F.flags.writeable = False
        for s in scenarios:
            alone = spectral_density_profile(s, x, z)
            for given in (MappingProxyType(fields), {}):
                assert spectral_density_profile(s, x, z, given).tobytes() == alone.tobytes()
        for w in pairs:
            F = fields[coherence._fields_key(w)]
            assert density_profile(w, x, z, F).tobytes() == density_profile(w, x, z).tobytes()
        assert fields.keys() == before.keys()
        assert all(fields[key] is F and F.tobytes() == b for key, (F, b) in before.items())

    def test_memo_keeps_fields_only_while_a_later_scenario_has_their_key(self, fullerene):
        """A one-scenario row of a 33-point line at 21 wavelengths shares no
        fields, so it holds one wavelength's (S, nx) fields at a time, not
        all 21 (8.9 MB at nx = 800)."""
        g0 = GratingSpec(4, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(3, 500e-9, 75e-9, 0.05)
        xs = tuple(-4e-6 + 0.25e-6 * k for k in range(33))
        spec = _spectrum(np.linspace(3e-12, 7e-12, 21), 5e-12, 2.25e-12)
        src = SourceSpec(kind="line", x_positions=xs, z_s=-0.5, sigma_I=1e-6, spectral=spec)
        scn = Scenario(particle=fullerene, grating0=g0, grating1=g1, source=src)
        x = centered_axis(-4e-6, 4e-6, 800)
        tracemalloc.start()
        try:
            evaluate_densities([scn], x, [0.03], workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestSweepColumnSplit:
    """The densities of many scenarios at one or several planes, split anyhow
    along x or z, or over any worker count, join to the whole array bit for
    bit."""

    SPLIT = (0, 1, 8, 16, 25)  # chunks of 1, 7, 8, 9 and the rest (15)

    @staticmethod
    def _case(name):
        if name == "fig7-gsm":
            scn = preset_run_config("fig7").scenario
            x, z = talbot_section(scn, 40)
            return scn, "sigma_I", (0.1e-6, 1e-6, 10e-6), x, (z,)
        if name == "paraxial-spectral":
            scn = preset_run_config("fig12").scenario
            assert scn.source.paraxial and scn.source.spectral is not None
            x, z = talbot_section(scn, 40)
            return scn, "zs", (-math.inf, -10.0), x, (z,)
        if name == "point-on-axis":
            # fig4a's on-axis source, whose rows are their own mirror images,
            # between the gratings and behind them
            scn = preset_run_config("fig4a").scenario
            return scn, "lambda", (4e-12, 5e-12), centered_axis(-4e-6, 4e-6, 40), (0.03, 0.1)
        scn = preset_run_config("fig17").scenario
        x = centered_axis(-125e-9, 125e-9, 40)
        if name == "comb-planes":
            # fig17's K list at fig16's three planes, which include fig17's (za, zb)
            zs = tuple(scn.z0 + f * scn.z_talbot for f in PRESETS["fig16"]["z_fractions"])
            return scn, "K1", PRESETS["fig17"]["k_list"] + (64,), x, zs
        frac = 0.5 if name == "comb-at-z1" else 0.513
        z = scn.z0 + frac * scn.z_talbot
        assert (z == scn.z1) == (name == "comb-at-z1")
        return scn, "K1", (16,), x, (z,)

    @pytest.mark.parametrize("name", ["fig7-gsm", "paraxial-spectral", "point-on-axis",
                                      "comb-at-z1", "comb-past-z1", "comb-planes"])
    def test_chunks_join_to_the_whole_row(self, name, monkeypatch):
        scn, param, values, x, zs = self._case(name)
        scenarios = [apply_sweep_value(scn, param, v) for v in values]
        whole = evaluate_densities(scenarios, x, zs, workers=1)
        assert whole.shape == (len(values), len(zs), len(x))
        bounds = self.SPLIT + (len(x),)
        columns = [evaluate_densities(scenarios, x[lo:hi], zs, workers=1)
                   for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.concatenate(columns, axis=2).tobytes() == whole.tobytes()
        planes = [evaluate_densities(scenarios, x, [z], workers=1) for z in zs]
        assert np.concatenate(planes, axis=1).tobytes() == whole.tobytes()
        if len(zs) == 1:
            rows = sweep_profiles(scn, param, values, x, zs[0], workers=1)
            assert [p.tobytes() for _, p in rows] == [p.tobytes() for p in whole[:, 0]]
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        for workers in (2, 3):
            assert evaluate_densities(scenarios, x, zs, workers=workers).tobytes() == whole.tobytes()
