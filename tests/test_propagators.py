import cmath
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlsim
from tlsim import propagators
from tlsim.core import (
    HBAR, PARAXIAL_ZS, DomainError, GratingSpec, Particle, SourceSpec, centered_axis,
    slit_positions,
)
from tlsim.oracle import composite_gauss_legendre, quadrature_oracle
from tlsim.presets import preset_run_config
from tlsim.propagators import (
    BranchCutError,
    PathContext,
    _d_squared,
    behind_row,
    between_row,
    comb_form_factor,
    free_kernel,
    gaussian_slit,
    psi_behind,
    psi_hard_edge,
    reduce_paths,
    spreading_sigma,
)
from tlsim.scenario import Scenario, apply_sweep_value
from tlsim.superposition import density, superpose_behind, superpose_between


def _scenario(particle, g0, g1, x_s, z_s, region):
    src = SourceSpec(kind="point", x_positions=(x_s,), z_s=z_s)
    return Scenario(particle=particle, grating0=g0, grating1=g1, source=src, region=region)


def _ctx_between(particle, b0=37.5e-9, x_s=1e-6, z_s=-0.5, x0=2.5e-7):
    g0 = GratingSpec(1, 500e-9, b0, 0.0)
    return PathContext(particle=particle, grating0=g0, grating1=None, x_s=x_s, z_s=z_s, x0=x0)


def _ctx_behind(particle, b0=37.5e-9, b1=75e-9, z1=0.05, x_s=1e-6, z_s=-0.5,
                x0=2.5e-7, x1=-2.5e-7, comb_k=None, comb_eta=1.0):
    g0 = GratingSpec(1, 500e-9, b0, 0.0)
    g1 = GratingSpec(1, 500e-9, b1, z1, comb_k=comb_k, comb_eta=comb_eta)
    return PathContext(particle=particle, grating0=g0, grating1=g1, x_s=x_s, z_s=z_s, x0=x0, x1=x1)


class TestFreeKernel:
    def test_zero_displacement_is_pure_prefactor(self, fullerene):
        k = free_kernel(1e-6, 2e-3, 1e-6, 1e-3, fullerene)
        expect = 1.0 / cmath.sqrt(2j * math.pi * HBAR * 1e-3 / fullerene.mass)
        assert k == pytest.approx(expect, rel=1e-14)

    def test_natural_units_value(self):
        # m = hbar numerically, dx = 2, dt = 1: (2 pi i)^{-1/2} exp(2 i)
        p = Particle(mass=HBAR, lambda_dB=1.0)
        k = free_kernel(2.0, 1.0, 0.0, 0.0, p)
        expect = cmath.exp(2j) / cmath.sqrt(2j * math.pi)
        assert k == pytest.approx(expect, rel=1e-14)

    def test_time_ordering_required(self, fullerene):
        with pytest.raises(DomainError):
            free_kernel(0.0, 1.0, 0.0, 1.0, fullerene)

    @pytest.mark.parametrize("a,c,t1,t2", [(-1.0, 2.0, 1.0, 2.0), (0.5, -0.25, 0.7, 1.9)])
    def test_semigroup_composition(self, a, c, t1, t2):
        # integral K(c,t2;b,t1) K(b,t1;a,0) db = K(c,t2;a,0).  The pure
        # Fresnel chirp is tamed with a Gaussian regulator of width w centered
        # on the stationary point; the regulator bias is linear in 1/(2 w^2),
        # so two Richardson steps over w, w*sqrt(2), 2w remove it.
        part = Particle(mass=HBAR, lambda_dB=1.0)
        target = free_kernel(c, t2, a, 0.0, part)
        b_star = (a * (t2 - t1) + c * t1) / t2
        vals = []
        for w, panels in ((30.0, 4096), (30.0 * math.sqrt(2), 8192), (60.0, 16384)):
            span = 6.5 * w
            nodes, wts = composite_gauss_legendre(b_star - span, b_star + span, panels, 16)
            f = free_kernel(c, t2, nodes, t1, part) * free_kernel(nodes, t1, a, 0.0, part)
            reg = np.exp(-((nodes - b_star) ** 2) / (2.0 * w * w))
            vals.append(complex(np.sum(wts * f * reg)))
        v1, v2, v3 = vals
        extrap = (4.0 * (2.0 * v3 - v2) - (2.0 * v2 - v1)) / 3.0
        assert abs(extrap - target) / abs(target) < 1e-6


def _d(sig0, sig1, z0, z1, z):
    """D as both behind-G1 kernels take it: the principal root of _d_squared."""
    return complex(np.sqrt(_d_squared(complex(sig0), complex(sig1), z0, z1, z)))


class TestDTerm:
    def test_between_gratings_reduction(self):
        sig0 = complex(1.1, 28.29)
        assert _d(sig0, 1.0, 0.0, 0.05, 0.05) == pytest.approx(cmath.sqrt(sig0), rel=1e-14)

    def test_worked_example(self):
        # z-ratio 2 with the quoted spreadings
        d = _d(complex(1.1, 28.29), complex(3.0, 14.15), 0.0, 0.05, 0.15)
        expect = cmath.sqrt(complex(1.1, 28.29) * complex(3.0, 14.15) - 2.0)
        assert d == pytest.approx(expect, rel=1e-14)
        assert d.real == pytest.approx(2.50, abs=0.01)
        assert d.imag == pytest.approx(20.13, abs=0.01)

    def test_identity(self):
        assert _d(1.0, 1.0, 0.0, 0.05, 0.05) == 1.0

    def test_degenerate(self):
        with pytest.raises(DomainError):
            _d_squared(1.0 + 0j, 1.0 + 0j, 0.0, 0.05, 0.1)  # 1*1 - 1 = 0

    def test_branch_guard(self):
        with pytest.raises(BranchCutError):
            _d_squared(complex(0.0, -2.0), 1.0 + 0j, 0.0, 0.05, 0.1)


class TestCombFormFactor:
    def test_single_gaussian_peak_value(self):
        val = comb_form_factor(0.0, 75e-9, 1.5, 1)
        assert val == pytest.approx(math.sqrt(2.0 / math.pi) / 1.5, rel=1e-12)
        assert val == pytest.approx(0.532, abs=0.001)

    @pytest.mark.parametrize("K", [1, 4, 7, 16, 64])
    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.8, 1.0, 1.5])
    def test_area_is_slit_width(self, K, eta):
        b = 75e-9
        span = b * (1.0 + 6.0 * eta)
        nodes, w = composite_gauss_legendre(-span, span, max(8, 2 * K), 32)
        area = float(np.sum(w * comb_form_factor(nodes, b, eta, K)))
        assert abs(area - 2.0 * b) / (2.0 * b) < 1e-6

    def test_k7_eta02_has_seven_peaks(self):
        b = 75e-9
        xi = np.linspace(-b, b, 4001)
        g = comb_form_factor(xi, b, 0.2, 7)
        interior = (g[1:-1] > g[:-2]) & (g[1:-1] > g[2:])
        assert int(interior.sum()) == 7

    def test_k1_matches_widened_gaussian(self):
        b, eta = 60e-9, 1.3
        xi = np.linspace(-4 * b, 4 * b, 101)
        expect = math.sqrt(2.0 / math.pi) / eta * gaussian_slit(xi, b * eta)
        assert np.allclose(comb_form_factor(xi, b, eta, 1), expect, rtol=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            comb_form_factor(0.0, -1.0, 1.0, 1)
        with pytest.raises(DomainError):
            comb_form_factor(0.0, 1e-9, 1.0, 0)


class TestPsiBetween:
    """The between-gratings path wave function: ``between_row`` with one slit."""

    def test_matches_oracle(self, fullerene):
        ctx = _ctx_between(fullerene)
        for z in (0.01, 0.04):
            for x in (2.5e-7, 5e-7, 1e-6):
                ref = quadrature_oracle(ctx, x, z, "fuzzy")
                val = between_row(ctx.lam, ctx.z_s, ctx.x_s, 0.0, 37.5e-9, [ctx.x0],
                                  np.array([x]), z)[0]
                assert abs(val - ref) / abs(ref) < 1e-6

    def test_on_axis_ray_phase_and_peak(self, fullerene):
        # source aligned with the slit: both phase summands vanish at x = x0,
        # so psi there is exactly the 1/sqrt(Sigma) prefactor, and |psi|
        # peaks at the slit center for small z - z0
        lam, z_s, x0 = fullerene.lambda_dB, -0.5, 2.5e-7
        z = 1e-4
        x = np.linspace(0.0, 5e-7, 101)
        p = density(between_row(lam, z_s, x0, 0.0, 37.5e-9, [x0], x, z))
        assert x[np.argmax(p)] == pytest.approx(2.5e-7, abs=5e-9)
        sig = spreading_sigma(lam, z_s, 0.0, z, 37.5e-9)
        at_x0 = between_row(lam, z_s, x0, 0.0, 37.5e-9, [x0], np.array([x0]), z)[0]
        assert at_x0 == pytest.approx(1.0 / cmath.sqrt(sig), rel=1e-13)

    def test_gaussian_beam_width_grows(self, fullerene):
        x = centered_axis(-4e-6, 4e-6, 4001)

        def second_moment(z):
            p = density(between_row(fullerene.lambda_dB, -0.5, 0.0, 0.0, 37.5e-9, [0.0], x, z))
            return float(np.sum(p * x * x) / np.sum(p))

        m1, m2, m3 = (second_moment(z) for z in (0.005, 0.02, 0.045))
        assert m1 < m2 < m3

    def test_boundary_row_is_aperture_times_source_wave(self, fullerene):
        lam, z_s, x_s, x0 = fullerene.lambda_dB, -0.5, 1e-6, 2.5e-7
        x = np.linspace(-2e-7, 6e-7, 9)
        at_plane = between_row(lam, z_s, x_s, 0.0, 37.5e-9, [x0], x, 0.0)
        assert np.allclose(np.abs(at_plane), gaussian_slit(x - x0, 37.5e-9), rtol=1e-12)
        # continuity from above (1 nm past the plane)
        just_above = between_row(lam, z_s, x_s, 0.0, 37.5e-9, [x0], x, 1e-9)
        assert np.allclose(at_plane, just_above, rtol=1e-6)

    def test_region_checks(self, fullerene):
        with pytest.raises(DomainError):
            between_row(fullerene.lambda_dB, -0.5, 1e-6, 0.0, 37.5e-9, [2.5e-7],
                        np.array([0.0]), -0.01)


class TestBetweenLattice:
    """``between_row`` builds its cross-term phasors as powers of one ratio
    per sample, so it takes the G0 centres as a uniform lattice."""

    def test_off_lattice_centre_rejected(self):
        # a centre moved by 1% of the pitch is refused, for a row and for a
        # single sample alike
        x0s = slit_positions(GratingSpec(32, 500e-9, 37.5e-9, 0.0))
        x0s[7] += 0.01 * 500e-9
        for x in (np.linspace(-2e-6, 2e-6, 9), [0.0]):
            with pytest.raises(DomainError, match="uniformly spaced slit centres"):
                between_row(5e-12, -0.5, 0.0, 0.0, 37.5e-9, x0s, x, 0.03)

    @pytest.mark.parametrize("n0", [1, 2, 32])
    def test_short_lattices_accepted(self, n0):
        # a single slit is a lattice of pitch 0; a 2-slit grating is its own lattice
        x0s = slit_positions(GratingSpec(n0, 500e-9, 37.5e-9, 0.0))
        x = np.linspace(-12e-6, 12e-6, 41)
        for z in (0.0, 1e-3, 0.03):
            _assert_between_matches_closed_form(5e-12, -0.5, 1e-6, 37.5e-9, x0s, x, z)

    @pytest.mark.parametrize("z_s", [-1e4, -0.5])
    def test_projected_lattices_accepted(self, z_s):
        """Fresnel-projected lattices (x0s - x_s)/m, and their round trip back,
        are uniform up to round-off only."""
        x_s, R = 2.7e-6, -z_s
        m = (R + 0.03) / R
        x0s = (slit_positions(GratingSpec(32, 500e-9, 37.5e-9, 0.0)) - x_s) / m
        x = np.linspace(-12e-6, 12e-6, 41)
        _assert_between_matches_closed_form(5e-12, PARAXIAL_ZS, 0.0, 37.5e-9 / m, x0s, x, 0.02)
        _assert_between_matches_closed_form(5e-12, z_s, x_s, 37.5e-9, x0s * m + x_s, x, 0.02)


class TestBetweenPlaneContinuity:
    """``between_row`` approaches its z == z0 value continuously."""

    def test_fig4a_row_just_past_g0(self):
        from tlsim.presets import preset_run_config

        rc = preset_run_config("fig4a")
        scn = rc.scenario
        args = (scn.lam, scn.source.z_s, scn.source.x_positions[0], scn.z0,
                scn.grating0.half_width, slit_positions(scn.grating0), rc.grid.x_axis())
        at = between_row(*args, scn.z0)
        near = between_row(*args, scn.z0 + 1e-15)
        assert np.max(np.abs(near - at)) <= 1e-10 * np.max(np.abs(at))

    @settings(max_examples=60)
    @given(
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-1.0, -0.3)),
        x_s=st.floats(-3e-6, 3e-6),
    )
    def test_row_just_past_g0(self, lam, b0, z_s, x_s):
        x0s = slit_positions(GratingSpec(32, 500e-9, b0, 0.0))
        x = centered_axis(-10e-6, 10e-6, 800)
        at = between_row(lam, z_s, x_s, 0.0, b0, x0s, x, 0.0)
        near = between_row(lam, z_s, x_s, 0.0, b0, x0s, x, 1e-15)
        assert np.max(np.abs(near - at)) <= 1e-10 * np.max(np.abs(at))


class TestPsiBehind:
    def test_matches_oracle_sample(self, fullerene, rng):
        from tlsim.oracle import random_oracle_case

        for _ in range(5):
            ctx, x, z = random_oracle_case(rng)
            ref = quadrature_oracle(ctx, x, z, "fuzzy")
            assert abs(psi_behind(ctx, x, z) - ref) / abs(ref) < 1e-6

    def test_continuity_to_between(self, fullerene, rng):
        worst = 0.0
        for _ in range(25):
            z1 = rng.uniform(0.02, 0.08)
            ctx = _ctx_behind(
                fullerene,
                b0=rng.uniform(20e-9, 100e-9), b1=rng.uniform(20e-9, 100e-9),
                z1=z1, x_s=rng.uniform(-2e-6, 2e-6), z_s=-rng.uniform(0.3, 1.0),
                x0=rng.uniform(-1e-6, 1e-6), x1=rng.uniform(-1e-6, 1e-6),
            )
            a = psi_behind(ctx, ctx.x1, z1 * (1.0 + 1e-12))
            b = between_row(ctx.lam, ctx.z_s, ctx.x_s, 0.0, ctx.grating0.half_width,
                            [ctx.x0], np.array([ctx.x1]), z1)[0]
            worst = max(worst, abs(a - b) / abs(b))
        assert worst < 1e-9

    def test_plane_row_is_transmission_times_between(self, fullerene):
        ctx = _ctx_behind(fullerene)
        x = np.linspace(-3e-7, 3e-7, 13)
        lhs = psi_behind(ctx, x, 0.05)
        between = between_row(ctx.lam, ctx.z_s, ctx.x_s, 0.0, 37.5e-9, [ctx.x0], x, 0.05)
        rhs = between * gaussian_slit(x - ctx.x1, 75e-9)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_region_check(self, fullerene):
        ctx = _ctx_behind(fullerene)
        with pytest.raises(DomainError):
            psi_behind(ctx, 0.0, 0.04)

    def test_paraxial_context_is_plane_wave_form(self, fullerene):
        # one-slit gratings centred at 0: the scenario's sum is the single path
        ctx = _ctx_behind(fullerene, x_s=0.0, z_s=PARAXIAL_ZS, x0=0.0, x1=0.0)
        scn = _scenario(fullerene, ctx.grating0, ctx.grating1, 0.0, PARAXIAL_ZS, "behind")
        x = np.linspace(-1e-6, 1e-6, 9)
        for z in (0.05, 0.08):
            assert np.array_equal(psi_behind(ctx, x, z), superpose_behind(scn, x, z))
        assert psi_behind(ctx, 1e-7, 0.08) == superpose_behind(scn, 1e-7, 0.08)

    def test_needs_x1(self, fullerene):
        ctx = _ctx_between(fullerene)
        with pytest.raises(DomainError):
            psi_behind(ctx, 0.0, 0.08)

    @pytest.mark.parametrize("change, message", [
        ({"z_s": 0.01}, "source must precede grating G0"),
        ({"grating1": None}, "x1 given but no grating 1"),
        ({"grating1": GratingSpec(1, 500e-9, 75e-9, -0.05)}, "grating 1 must lie behind"),
    ], ids=["source behind G0", "x1 without G1", "G1 before G0"])
    def test_context_checks(self, fullerene, change, message):
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(_ctx_behind(fullerene), **change)

    def test_finite_at_slit_centers_and_between(self, fullerene):
        ctx = _ctx_behind(fullerene, x0=0.0, x1=0.0, x_s=0.0)
        x = np.array([0.0, 125e-9, 250e-9, 1e-6])
        for z in (0.05, 0.0625, 0.1, 0.15):
            assert np.all(np.isfinite(psi_behind(ctx, x, z)))

    @settings(max_examples=200)
    @given(
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        z1=st.floats(0.02, 0.08),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-50.0, -0.3)),
        x_s=st.floats(-3e-6, 3e-6),
        x0=st.floats(-3e-6, 3e-6),
        x1=st.floats(-3e-6, 3e-6),
        past=st.one_of(st.just(0.0), st.just(1e-12), st.floats(1e-9, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_path_scalar_equals_row(self, lam, b0, b1, z1, z_s, x_s, x0, x1, past, seed):
        """A single fuzzy path takes the direct kernel, whose one-sample call
        evaluates a buffer of two terms: numpy rounds a one-element in-place
        complex product apart from a longer one's."""
        g0 = GratingSpec(1, 500e-9, b0, 0.0)
        g1 = GratingSpec(1, 500e-9, b1, z1)
        ctx = PathContext(particle=Particle(mass=1.2e-24, lambda_dB=lam), grating0=g0,
                          grating1=g1, x_s=x_s, z_s=z_s, x0=x0, x1=x1)
        x = np.random.default_rng(seed).uniform(-6e-6, 6e-6, 41)
        z = z1 * (1.0 + past)
        row = psi_behind(ctx, x, z)
        scalars = np.array([psi_behind(ctx, float(xj), z) for xj in x])
        assert scalars.tobytes() == row.tobytes()
        band = behind_row([lam, lam], z_s, x_s, 0.0, z1, b0, b1, [x0], [x1], x[:1], z)
        assert band.tobytes() == np.array([row[:1], row[:1]]).tobytes()


class TestPsiHardEdge:
    def test_k1_reduction_factor(self, fullerene, rng):
        # 1000 random points: psi_hard_edge(K=1) = sqrt(2/pi)/eta * psi_behind
        worst = 0.0
        for _ in range(50):
            eta = rng.uniform(0.5, 1.5)
            ctx = _ctx_behind(
                fullerene,
                b0=rng.uniform(20e-9, 100e-9), b1=rng.uniform(20e-9, 100e-9),
                z1=rng.uniform(0.02, 0.08), x_s=rng.uniform(-2e-6, 2e-6),
                z_s=-rng.uniform(0.3, 1.0),
                x0=rng.uniform(-1e-6, 1e-6), x1=rng.uniform(-1e-6, 1e-6),
                comb_k=1, comb_eta=eta,
            )
            x = rng.uniform(-3e-6, 3e-6, 20)
            z = ctx.grating1.z_pos * (1.0 + rng.uniform(0.1, 1.2))
            a = psi_hard_edge(ctx, x, z)
            b = math.sqrt(2.0 / math.pi) / eta * psi_behind(ctx, x, z)
            worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
        assert worst < 1e-12

    def test_accepts_paraxial_source(self, fullerene):
        """The comb takes z_s = -inf as one more source distance: the path
        ignores x_s bit for bit, and a remote source converges to it at first
        order in 1/|z_s| (see TestParaxialLimitAsValue for the constant)."""
        x = np.linspace(-1e-6, 1e-6, 41)
        ref = psi_hard_edge(_ctx_behind(fullerene, comb_k=4, z_s=PARAXIAL_ZS), x, 0.08)
        assert np.all(np.isfinite(ref))
        for x_s in (0.0, -3.7e-5, 123.0):
            ctx = _ctx_behind(fullerene, comb_k=4, z_s=PARAXIAL_ZS, x_s=x_s)
            assert psi_hard_edge(ctx, x, 0.08).tobytes() == ref.tobytes()
        scale = np.max(np.abs(ref))
        for z_s in (-1e12, -1e30):
            got = psi_hard_edge(_ctx_behind(fullerene, comb_k=4, z_s=z_s), x, 0.08)
            assert np.max(np.abs(got - ref)) <= TestParaxialLimitAsValue.C / abs(z_s) * scale

    def test_matches_comb_oracle(self, fullerene, rng):
        from tlsim.oracle import random_oracle_case

        for _ in range(4):
            ctx, x, z = random_oracle_case(rng, hard=True)
            ref = quadrature_oracle(ctx, x, z, "comb")
            assert abs(psi_hard_edge(ctx, x, z) - ref) / abs(ref) < 1e-6

    @pytest.mark.xfail(strict=True, reason=(
        "K = 1 comb with eta != 1: behind_row's Sigma1 uses the slit width b1, the "
        "oracle's comb form factor is a Gaussian of width b1*eta (FOUND in CHANGES.md)"))
    def test_k1_comb_off_unit_eta_matches_oracle(self):
        from tlsim.oracle import random_oracle_case

        rng = np.random.default_rng(1)
        for _ in range(4):
            ctx, x, z = random_oracle_case(rng, hard=True)
            g1 = dataclasses.replace(ctx.grating1, comb_k=1, comb_eta=0.7)
            ctx = dataclasses.replace(ctx, grating1=g1)
            ref = quadrature_oracle(ctx, x, z, "comb")
            assert abs(psi_hard_edge(ctx, x, z) - ref) / abs(ref) < 1e-6

    def test_plane_row_is_comb_transmission_times_between(self, fullerene):
        K, eta = 8, 1.2
        ctx = _ctx_behind(fullerene, comb_k=K, comb_eta=eta, x1=-1e-7)
        x = np.linspace(-3e-7, 3e-7, 13)
        lhs = psi_hard_edge(ctx, x, 0.05)
        between = between_row(ctx.lam, ctx.z_s, ctx.x_s, 0.0, 37.5e-9, [ctx.x0], x, 0.05)
        rhs = between * comb_form_factor(x - ctx.x1, 75e-9, eta, K)
        assert np.allclose(lhs, rhs, rtol=1e-11)

    def test_fine_fringes_appear_at_k16(self, fullerene):
        # hard-edged slits produce finely ruled fringes before the revival
        # length that the K=1 slit does not show: count local maxima of the
        # near-slit profile
        x = centered_axis(-250e-9, 250e-9, 1001)
        z = 0.05 + 0.1 * 0.05  # 0.55 zT, prior to the first revival

        def peaks(K):
            ctx = _ctx_behind(fullerene, x_s=0.0, x0=0.0, x1=0.0, comb_k=K, comb_eta=1.5)
            p = density(psi_hard_edge(ctx, x, z))
            p = p / p.max()
            is_peak = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]) & (p[1:-1] > 0.02)
            return int(is_peak.sum())

        assert peaks(16) > peaks(1)


class TestPsiParaxial:
    def test_between_reduces_to_aperture_at_plane(self, fullerene):
        x = np.linspace(-2e-7, 4e-7, 9)
        val = between_row(fullerene.lambda_dB, PARAXIAL_ZS, 0.0, 0.0, 37.5e-9, [1e-7], x, 0.0)
        assert np.allclose(val, gaussian_slit(x - 1e-7, 37.5e-9), rtol=1e-12)

    def test_half_period_shifted_self_image(self, fullerene):
        # single-grating paraxial field at zT/2 reproduces the grating
        # pattern shifted by half a period
        d = 500e-9
        zT = 2 * d * d / 5e-12
        g0 = GratingSpec(64, d, 37.5e-9, 0.0)
        g1 = GratingSpec(1, d, 75e-9, 2 * zT)
        req = _scenario(fullerene, g0, g1, 0.0, PARAXIAL_ZS, "between")
        for m in (-2, 0, 3):
            xwin = centered_axis((m - 0.5) * d, (m + 0.5) * d, 201)
            p = density(superpose_between(req, xwin, zT / 2))
            # grating slits sit at half-integer multiples of d; the shifted
            # image peaks at integer multiples
            assert abs(xwin[np.argmax(p)] - m * d) < 0.05 * d

    def test_agreement_with_remote_finite_source(self, fullerene):
        # Remote-source configuration: a point source at -50 m is 'almost at
        # infinity'; normalized central profiles at z = zT agree within 1% RMS
        from tlsim.superposition import superpose_behind

        g0 = GratingSpec(32, 500e-9, 37.5e-9, 0.0)
        g1 = GratingSpec(33, 500e-9, 75e-9, 0.05)
        x = centered_axis(-1e-6, 1e-6, 512)
        req_par = _scenario(fullerene, g0, g1, 0.0, PARAXIAL_ZS, "behind")
        req_fin = _scenario(fullerene, g0, g1, 0.0, -50.0, "behind")
        pp = density(superpose_behind(req_par, x, 0.1))
        pf = density(superpose_behind(req_fin, x, 0.1))
        pp /= pp.max()
        pf /= pf.max()
        assert math.sqrt(float(np.mean((pp - pf) ** 2))) < 0.01


def _limit_row(kind, z_s, x_s):
    """One row of the 8/9-slit geometry (lam 5 pm, G1 at 0.05 m, +-4 um)."""
    lam, z1, b0, b1 = 5e-12, 0.05, 37.5e-9, 75e-9
    x0s = slit_positions(GratingSpec(8, 500e-9, b0, 0.0))
    x1s = slit_positions(GratingSpec(9, 500e-9, b1, z1))
    x = centered_axis(-4e-6, 4e-6, 257)
    if kind.startswith("between"):
        return between_row(lam, z_s, x_s, 0.0, b0, x0s, x, 0.0 if kind.endswith("z0") else 0.03)
    if kind.startswith("single"):
        x0s, x1s = x0s[3:4], x1s[4:5]
    return behind_row(lam, z_s, x_s, 0.0, z1, b0, b1, x0s, x1s, x,
                      z1 if kind.endswith("z1") else 0.1)


class TestParaxialLimitAsValue:
    """z_s = -inf flows through the general formulas: its source terms are
    exact zeros, so x_s cannot matter, and a remote finite source converges."""

    KINDS = ("between", "between at z0", "single path", "single path at z1",
             "factorised", "factorised at z1")
    # The terms the limit drops are source phases of order
    # pi (x - x_s)^2 / (lam |z_s|) <= pi (6 um)^2 / 5 pm = 22.6 m / |z_s| here.
    C = 25.0  # m
    # The projection check holds each row to 1e-11 of its maximum; that is the
    # accuracy this test vouches for.  An error of that size moves a
    # first-order constant by at most about 0.5% once the rows at -1e5 m differ
    # by 200 times as much, so the constants are compared only above that.
    # Below it lie mostly single paths with a small first-order constant, where
    # the second-order term is not negligible at -1e4 m either: the @example's
    # behind row matches its projection to about 1e-15, yet its constants read
    # 4.86e-6 and 4.69e-6 m at -1e4 and -1e5 m (4.675e-6 m from -1e6 m on).
    RESOLVABLE = 200 * 1e-11

    @pytest.mark.parametrize("kind", KINDS)
    def test_paraxial_row_ignores_source_x(self, kind):
        ref = _limit_row(kind, PARAXIAL_ZS, 0.0)
        for x_s in (1e-6, -3.7e-5, 0.25, -1.0, 123.0):
            assert _limit_row(kind, PARAXIAL_ZS, x_s).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_remote_source_converges_to_paraxial_row(self, kind):
        ref = _limit_row(kind, PARAXIAL_ZS, 0.0)
        scale = np.max(np.abs(ref))
        for z_s in (-1e12, -1e30):
            for x_s in (0.0, 2e-6):
                err = np.max(np.abs(_limit_row(kind, z_s, x_s) - ref))
                assert err <= self.C / abs(z_s) * scale

    @settings(max_examples=16)
    @given(
        n0=st.integers(1, 8),
        n1=st.integers(1, 8),
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        pitch_scale=st.floats(2.5, 6.0),
        z1=st.floats(0.02, 0.08),
        x_s=st.floats(-3e-6, 3e-6),
        between=st.floats(0.2, 0.9),
        behind=st.floats(0.2, 2.0),
        comb=st.one_of(st.none(), st.tuples(st.integers(1, 16), st.floats(0.3, 1.5))),
    )
    @example(n0=1, n1=1, lam=7.589e-12, b0=20e-9, b1=20e-9, pitch_scale=3.0, z1=0.0625,
             x_s=3e-6, between=0.5, behind=1.0, comb=None)
    def test_zs_sweep_converges_at_first_order(self, n0, n1, lam, b0, b1, pitch_scale, z1,
                                               x_s, between, behind, comb):
        """A zs sweep towards -inf on random fuzzy and comb geometries
        (``comb`` = (K, eta) of G1's hard-edged slits).  The first-order
        constant max|p(z_s) - p(-inf)| / max p(-inf) * |z_s| is the same at
        -1e4 m and -1e5 m, wherever the rows at -1e5 m differ by RESOLVABLE
        or more.  Each finite-source row is also the paraxial row of
        the geometry projected from the source (the Fresnel scaling theorem):
        G1 at z1' = R z1/(R + z1) with centres and widths divided by
        M1 = (R + z1)/R, seen at z' = R z/(R + z) and x' = x_s + (x - x_s) R/(z - z_s),
        where R = z0 - z_s and positions are taken relative to the source.
        The comb's offsets and widths scale with b1, so it projects the same way.
        The constant alone does not pin the source terms; the projection does."""
        pitch = pitch_scale * max(b0, b1)
        k, eta = comb or (None, 1.0)
        scn = Scenario(
            particle=Particle(mass=1.2e-24, lambda_dB=lam),
            grating0=GratingSpec(n0, pitch, b0, 0.0),
            grating1=GratingSpec(n1, pitch, b1, z1, comb_k=k, comb_eta=eta),
            source=SourceSpec(kind="point", x_positions=(x_s,), z_s=-0.5),
        )
        x0s, x1s = slit_positions(scn.grating0), slit_positions(scn.grating1)
        half = max(x0s[-1], x1s[-1]) + 2e-6
        x = centered_axis(-half, half, 201)
        for superpose, z in ((superpose_between, between * z1), (superpose_behind, (1 + behind) * z1)):
            def row(z_s):
                return density(superpose(apply_sweep_value(scn, "zs", z_s), x, z))

            ref = row(PARAXIAL_ZS)
            diffs = []
            for z_s in (-1e4, -1e5):
                p = row(z_s)
                diffs.append(np.max(np.abs(p - ref)) / np.max(ref))
                R = -z_s
                m1 = (R + z1) / R
                xp = (x - x_s) * R / (z - z_s)
                if z <= z1:
                    q = between_row(lam, PARAXIAL_ZS, 0.0, 0.0, b0, x0s - x_s, xp, R * z / (R + z))
                else:
                    q = behind_row(lam, PARAXIAL_ZS, 0.0, 0.0, R * z1 / (R + z1), b0, b1 / m1,
                                   x0s - x_s, (x1s - x_s) / m1, xp, R * z / (R + z),
                                   comb_k=k or 1, comb_eta=eta, hard=comb is not None)
                q = density(q)
                assert np.max(np.abs(p / p.max() - q / q.max())) <= 1e-11
            if diffs[1] >= self.RESOLVABLE:
                consts = [diffs[0] * 1e4, diffs[1] * 1e5]
                assert consts[0] == pytest.approx(consts[1], rel=0.01)


class TestFactorisedBehind:
    """Every fuzzy-slit sum over two or more paths takes the factorised
    behind-G1 kernel; single paths and the hard-edged comb take the direct one."""

    def test_comb_matches_oracle_sum(self, fullerene):
        # narrow slits on a 250 nm pitch put every detector point inside the
        # diffraction cone of all 20 paths, so each path's quadrature converges
        g0 = GratingSpec(4, 250e-9, 30e-9, 0.0)
        g1 = GratingSpec(5, 250e-9, 30e-9, 0.05)
        x_s, z_s = 1.5e-6, -0.5
        req = _scenario(fullerene, g0, g1, x_s, z_s, "behind")
        for x, z in ((3e-7, 0.0625), (-5e-7, 0.08), (4e-7, 0.1), (-2e-7, 0.12)):
            ref = sum(
                quadrature_oracle(
                    PathContext(particle=fullerene, grating0=g0, grating1=g1, x_s=x_s,
                                z_s=z_s, x0=float(x0), x1=float(x1)),
                    x, z,
                )
                for x1 in slit_positions(g1)
                for x0 in slit_positions(g0)
            )
            assert abs(superpose_behind(req, x, z) - ref) <= 1e-10 * abs(ref)

    @settings(max_examples=150)
    @given(
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        pitch_scale=st.floats(2.5, 8.0),
        z1=st.floats(0.02, 0.08),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-1.0, -0.3)),
        x_s=st.floats(-3e-6, 3e-6).filter(lambda v: v != 0.0),
        n0=st.integers(2, 9),
        n1=st.integers(2, 9),
        z_kind=st.sampled_from(["plane", "plane+1e-12", "plane+1e-7m", "beyond"]),
        beyond=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_sum(self, lam, b0, b1, pitch_scale, z1, z_s, x_s, n0, n1,
                                z_kind, beyond, seed):
        x0s = slit_positions(GratingSpec(n0, pitch_scale * b0, b0, 0.0))
        x1s = slit_positions(GratingSpec(n1, pitch_scale * b1, b1, z1))
        span = max(abs(x0s[0]), abs(x1s[0])) + 3e-6
        x = np.sort(np.random.default_rng(seed).uniform(-span, span, 41))
        tails = np.array([1e-5, 3e-5, 1e-4, 3e-4, 1e-3])
        x = np.concatenate([-tails[::-1], x, tails])
        z = {"plane": z1, "plane+1e-12": z1 * (1.0 + 1e-12),
             "plane+1e-7m": z1 + 1e-7, "beyond": z1 * (1.0 + beyond)}[z_kind]

        ref = _assert_matches_closed_form(lam, z_s, x_s, z1, b0, b1, x0s, x1s, x, z)
        if z_kind != "plane+1e-12":
            # the seed's one-exponential-per-path kernel (single-path calls
            # never factorise); just past the plane its 1/(z - z1) terms
            # cancel to ~1e-5, so it is compared only where it is accurate
            direct = reduce_paths(np.stack([
                behind_row(lam, z_s, x_s, 0.0, z1, b0, b1, [x0], [x1], x, z)
                for x1 in x1s for x0 in x0s
            ]))
            assert np.max(np.abs(direct - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("z_s", [-0.5, PARAXIAL_ZS])
    @pytest.mark.parametrize("past", [1e-12, 1e-9])
    @pytest.mark.parametrize("n0, n1", [(2, 2), (2, 4), (1, 5), (5, 1)])
    def test_small_lattices_just_past_plane(self, n0, n1, past, z_s):
        """Sums over a few paths take the factorised kernel too.  Just past z1
        the direct kernel's 1/(z - z1) terms cancel: on it these cases missed
        the closed form by 1.2e-8 to 3.5e-5 of the row maximum."""
        lam, z1, b0, b1 = 5e-12, 0.05, 37.5e-9, 75e-9
        x0s = slit_positions(GratingSpec(n0, 500e-9, b0, 0.0))
        x1s = slit_positions(GratingSpec(n1, 500e-9, b1, z1))
        x = np.linspace(-3e-6, 3e-6, 61)
        _assert_matches_closed_form(lam, z_s, 1e-6, z1, b0, b1, x0s, x1s, x, z1 * (1.0 + past))

    @pytest.mark.parametrize("preset", ["fig5a", "fig9"])
    @pytest.mark.parametrize("past", [1e-3, 0.1], ids=["near", "far"])
    def test_matches_direct_sum_at_preset_size(self, rng, preset, past):
        """The recurrence's round-off grows with the slit count: check the
        presets' 32/33 slits (fig5a, z_s = -0.5 m, its outermost source
        point) and 64/63 slits (fig9, paraxial) 1 mm and 0.1 m past G1."""
        scn = preset_run_config(preset).scenario
        assert scn.z0 == 0.0
        g0, g1 = scn.grating0, scn.grating1
        x0s, x1s = slit_positions(g0), slit_positions(g1)
        span = max(x0s[-1], x1s[-1]) + 3e-6
        tails = np.array([1e-5, 1e-4, 1e-3])
        x = np.concatenate([-tails[::-1], np.sort(rng.uniform(-span, span, 41)), tails])
        _assert_matches_closed_form(scn.lam, scn.source.z_s, scn.source.x_positions[0], g1.z_pos,
                                    g0.half_width, g1.half_width, x0s, x1s, x, g1.z_pos + past)

    @settings(max_examples=60)
    @given(
        n0=st.integers(2, 32),
        n1=st.integers(2, 32),
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        pitch_scale0=st.floats(2.5, 8.0),
        pitch_scale1=st.floats(2.5, 8.0),
        z1=st.floats(0.02, 0.08),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-50.0, -0.3)),
        x_s=st.floats(-3e-6, 3e-6),
        past=st.one_of(st.just(1e-9), st.floats(1e-9, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_closed_form_over_geometries(self, n0, n1, lam, b0, b1, pitch_scale0,
                                                 pitch_scale1, z1, z_s, x_s, past, seed):
        """The factorised kernel against the closed-form path sum for random
        geometries up to 32/32 slits, from z1 (1 + 1e-9) to 3 z1."""
        x0s = slit_positions(GratingSpec(n0, pitch_scale0 * b0, b0, 0.0))
        x1s = slit_positions(GratingSpec(n1, pitch_scale1 * b1, b1, z1))
        span = max(x0s[-1], x1s[-1]) + 3e-6
        tails = np.array([1e-5, 1e-4, 1e-3])
        rng = np.random.default_rng(seed)
        x = np.concatenate([-tails[::-1], np.sort(rng.uniform(-span, span, 41)), tails])
        _assert_matches_closed_form(lam, z_s, x_s, z1, b0, b1, x0s, x1s, x, z1 * (1.0 + past))

    @settings(max_examples=60)
    @given(
        n0=st.integers(2, 32),
        n1=st.integers(2, 32),
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        pitch_scale0=st.floats(2.5, 8.0),
        pitch_scale1=st.floats(2.5, 8.0),
        z1=st.floats(0.02, 0.08),
        z_s=st.floats(-50.0, -0.3),
        far=st.floats(-10.0, 10.0),
        z_kind=st.sampled_from(["plane", "plane+1e-12", "plane+1e-7m", "beyond"]),
        beyond=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_far_off_axis_sources(self, n0, n1, lam, b0, b1, pitch_scale0, pitch_scale1, z1,
                                  z_s, far, z_kind, beyond, seed):
        """Sources up to 10 times the larger grating's half-width off axis,
        whose c_s the tile lattice leaves out, against the closed form and,
        away from z1 (1 + 1e-12), the direct sum.  The samples follow the
        beam's centre x_s z / z_s."""
        x0s = slit_positions(GratingSpec(n0, pitch_scale0 * b0, b0, 0.0))
        x1s = slit_positions(GratingSpec(n1, pitch_scale1 * b1, b1, z1))
        half = max(x0s[-1], x1s[-1])
        x_s = far * 10.0 * half
        z = {"plane": z1, "plane+1e-12": z1 * (1.0 + 1e-12),
             "plane+1e-7m": z1 + 1e-7, "beyond": z1 * (1.0 + beyond)}[z_kind]
        span = half + 3e-6
        tails = np.array([1e-5, 1e-4, 1e-3])
        x = x_s * z / z_s + np.concatenate([
            -tails[::-1], np.sort(np.random.default_rng(seed).uniform(-span, span, 41)), tails])
        ref = _assert_matches_closed_form(lam, z_s, x_s, z1, b0, b1, x0s, x1s, x, z)
        if z_kind != "plane+1e-12":
            direct = reduce_paths(np.stack([
                behind_row(lam, z_s, x_s, 0.0, z1, b0, b1, [x0], [x1], x, z)
                for x1 in x1s for x0 in x0s
            ]))
            assert np.max(np.abs(direct - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_rows_identical_across_blas_threads(self, tmp_path):
        """The contraction's matmuls have a shape fixed by the lattice, so
        factorised rows come out byte-identical on 1 and 2 BLAS threads: two
        fig4a rows (32/33 slits, 800 samples) and a 512/513 row whose three
        tiles hold several blocks each."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from tlsim.core import GratingSpec, slit_positions\n"
            "from tlsim.presets import preset_run_config\n"
            "from tlsim.propagators import behind_row\n"
            "from tlsim.superposition import superpose_behind\n"
            "rc = preset_run_config('fig4a')\n"
            "rows = [superpose_behind(rc.scenario, rc.grid.x_axis(), z) for z in (0.0501, 0.1)]\n"
            "x0s = slit_positions(GratingSpec(512, 500e-9, 37.5e-9, 0.0))\n"
            "x1s = slit_positions(GratingSpec(513, 500e-9, 75e-9, 0.05))\n"
            "x = np.linspace(-1e-6, 1e-6, 48)\n"
            "rows.append(behind_row(5e-12, -0.5, 1e-6, 0.0, 0.05, 37.5e-9, 75e-9, x0s, x1s, x, 0.3))\n"
            "np.save(sys.argv[1], np.concatenate(rows))\n"
        )
        src = str(Path(tlsim.__file__).resolve().parents[1])
        saved = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            out = tmp_path / f"threads{threads}.npy"
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True,
                           timeout=300)
            saved.append(out.read_bytes())
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("grating", [0, 1])
    def test_off_lattice_centre_rejected(self, grating):
        """The phase tables are powers of one ratio: a centre moved by 1% of
        the pitch is refused, for a row and for a single sample alike."""
        lam, z1, b0, b1 = 5e-12, 0.05, 37.5e-9, 75e-9
        centres = [slit_positions(GratingSpec(32, 500e-9, b0, 0.0)),
                   slit_positions(GratingSpec(33, 500e-9, b1, z1))]
        centres[grating][7] += 0.01 * 500e-9
        for x in (np.linspace(-2e-6, 2e-6, 9), [0.0]):
            with pytest.raises(DomainError, match="uniformly spaced slit centres"):
                behind_row(lam, -0.5, 0.0, 0.0, z1, b0, b1, *centres, x, 0.1)

    @pytest.mark.parametrize("n0, n1", [(1, 1), (1, 33), (32, 1), (2, 9), (9, 2)])
    def test_short_lattices_accepted(self, n0, n1):
        # a single slit is a lattice of pitch 0, a 2-slit grating its own
        # lattice; only the 1/1 call takes the direct kernel
        lam, z1, b0, b1 = 5e-12, 0.05, 37.5e-9, 75e-9
        x0s = slit_positions(GratingSpec(n0, 500e-9, b0, 0.0))
        x1s = slit_positions(GratingSpec(n1, 500e-9, b1, z1))
        x = np.linspace(-6e-6, 6e-6, 41)
        _assert_matches_closed_form(lam, -0.5, 1e-6, z1, b0, b1, x0s, x1s, x, 0.1)

    @pytest.mark.parametrize("z_s", [-1e4, -0.5])
    def test_projected_lattices_accepted(self, z_s):
        """The Fresnel-scaling test's lattices (x1s - x_s)/m1 and x0s - x_s are
        uniform up to round-off only."""
        lam, z1, b0, b1, x_s = 5e-12, 0.05, 37.5e-9, 75e-9, 2.7e-6
        R = -z_s
        m1 = (R + z1) / R
        x0s = slit_positions(GratingSpec(32, 500e-9, b0, 0.0)) - x_s
        x1s = (slit_positions(GratingSpec(33, 500e-9, b1, z1)) - x_s) / m1
        x = np.linspace(-12e-6, 12e-6, 41)
        _assert_matches_closed_form(lam, PARAXIAL_ZS, 0.0, R * z1 / (R + z1), b0, b1 / m1,
                                    x0s, x1s, x, R * 0.15 / (R + 0.15))


class TestReducePaths:
    """``reduce_paths`` folds adjacent pairs, level by level, and carries an
    odd last row into the next level unchanged."""

    @staticmethod
    def _pairwise(rows):
        rows = list(rows)
        while len(rows) > 1:
            odd = rows[-1:] if len(rows) % 2 else []
            rows = [rows[i] + rows[i + 1] for i in range(0, len(rows) - 1, 2)] + odd
        return rows[0]

    @pytest.mark.parametrize("n", range(1, 18))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_the_explicit_pairwise_sum(self, rng, n, dtype):
        terms = rng.normal(size=(n, 7)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
        if dtype is complex:
            terms = terms + 1j * rng.normal(size=(n, 7))
        kept = terms.copy()
        got = reduce_paths(terms)
        assert got.dtype == terms.dtype and got.shape == (7,)
        assert got.tobytes() == self._pairwise(terms).tobytes()
        assert terms.tobytes() == kept.tobytes()


class TestDirectKernelBound:
    """The direct kernel holds at most ``_GROUP_TERMS`` path terms, or one
    sample's, in one buffer: a row takes blocks of samples.  A comb whose one
    sample needs more than ``_MAX_TERMS`` is refused before any term is
    built.  The bounds are lowered here, so no large buffer is allocated."""

    @pytest.mark.parametrize("K", [1, 2, 7, 16, 64])
    @pytest.mark.parametrize("eta", [0.2, 0.7, 1.5])
    def test_blocked_rows_equal_the_whole_row(self, monkeypatch, K, eta):
        lam, z1, b0, b1 = 5e-12, 0.05, 37.5e-9, 75e-9
        x0s = slit_positions(GratingSpec(4, 500e-9, b0, 0.0))
        x1s = slit_positions(GratingSpec(3, 500e-9, b1, z1))
        x = np.concatenate([np.linspace(-2e-6, 2e-6, 40), [0.0, 1e-3]])
        per_sample = len(x0s) * len(x1s) * K
        for z_s in (-0.5, PARAXIAL_ZS):
            for z in (z1, z1 * (1.0 + 1e-12), 0.08):
                args = (lam, z_s, 1e-6, 0.0, z1, b0, b1, x0s, x1s, x, z)
                whole = behind_row(*args, comb_k=K, comb_eta=eta, hard=True)
                single = behind_row(*args[:7], [x0s[1]], [x1s[2]], x, z)
                for step in (1, 5, 41):
                    monkeypatch.setattr(propagators, "_GROUP_TERMS", step * per_sample + per_sample - 1)
                    got = behind_row(*args, comb_k=K, comb_eta=eta, hard=True)
                    assert got.tobytes() == whole.tobytes()
                # a single path in blocks of one sample is a scalar call, whose
                # one-element in-place products numpy rounds apart from a row's
                for step in (2, 5, 41):
                    monkeypatch.setattr(propagators, "_GROUP_TERMS", step)
                    got = behind_row(*args[:7], [x0s[1]], [x1s[2]], x, z)
                    assert got.tobytes() == single.tobytes()
                monkeypatch.undo()

    def test_a_comb_over_the_bound_is_refused_before_any_term(self, monkeypatch):
        x0s = slit_positions(GratingSpec(3, 500e-9, 37.5e-9, 0.0))
        x1s = slit_positions(GratingSpec(2, 500e-9, 75e-9, 0.05))
        args = (5e-12, -0.5, 0.0, 0.0, 0.05, 37.5e-9, 75e-9, x0s, x1s, np.zeros(3), 0.06)
        monkeypatch.setattr(propagators, "_MAX_TERMS", 23)

        def built(*a, **k):
            raise AssertionError("a path table was built")

        with monkeypatch.context() as mp:
            mp.setattr(propagators, "spreading_sigma", built)
            mp.setattr(propagators, "xi0_grouped", built)
            with pytest.raises(DomainError, match="needs 24 path terms per sample"):
                behind_row(*args, comb_k=4, hard=True)
        # a comb at the bound itself is evaluated, in blocks of one sample
        # when the block bound is below it
        monkeypatch.setattr(propagators, "_MAX_TERMS", 24)
        assert behind_row(*args, comb_k=4, hard=True).shape == (3,)
        monkeypatch.setattr(propagators, "_GROUP_TERMS", 1)
        assert behind_row(*args, comb_k=4, hard=True).shape == (3,)

    @pytest.mark.parametrize("z", [0.05, 0.07], ids=["z1", "beyond"])
    def test_a_comb_row_peaks_within_its_blocks(self, monkeypatch, z):
        """1024 samples of a 4 x 4 comb at K = 16 are 2^18 path terms (4 MiB);
        in blocks of 2^12 terms (64 KiB) the row stays far below that, also
        at z1, where the limit branch holds about three block buffers."""
        x0s = slit_positions(GratingSpec(4, 500e-9, 37.5e-9, 0.0))
        x1s = slit_positions(GratingSpec(4, 500e-9, 75e-9, 0.05))
        x = np.linspace(-2e-6, 2e-6, 1024)
        args = (5e-12, -0.5, 1e-6, 0.0, 0.05, 37.5e-9, 75e-9, x0s, x1s, x, z)
        monkeypatch.setattr(propagators, "_GROUP_TERMS", 2**12)
        tracemalloc.start()
        try:
            psi = behind_row(*args, comb_k=16, comb_eta=0.7, hard=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.shape == (1024,) and np.isfinite(psi).all()
        assert peak < 1e6

    @pytest.mark.parametrize("hard", [False, True])
    def test_no_paths_sum_to_a_zero_row(self, hard):
        psi = behind_row(5e-12, -0.5, 0.0, 0.0, 0.05, 37.5e-9, 75e-9, [], [0.0],
                         np.zeros(3), 0.07, comb_k=4, hard=hard)
        assert psi.dtype == complex and psi.tolist() == [0j, 0j, 0j]


class TestLinearityOverSlits:
    """A row is linear in its slits: splitting one lattice into two
    contiguous slices, each still a uniform lattice, splits the row into
    the sum of the two parts' rows, between the gratings and through the
    factorised kernel behind G1."""

    @settings(max_examples=40)
    @given(
        n0=st.integers(2, 24),
        n1=st.integers(2, 24),
        lam=st.floats(3e-12, 8e-12),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        pitch_scale0=st.floats(2.5, 8.0),
        pitch_scale1=st.floats(2.5, 8.0),
        z1=st.floats(0.02, 0.08),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-50.0, -0.3)),
        x_s=st.floats(-3e-6, 3e-6),
        cut=st.floats(0.0, 1.0),
        split_g1=st.booleans(),
        between=st.floats(0.01, 0.99),
        beyond=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_is_the_sum_of_its_slit_subsets(self, n0, n1, lam, b0, b1, pitch_scale0,
                                                pitch_scale1, z1, z_s, x_s, cut, split_g1,
                                                between, beyond, seed):
        x0s = slit_positions(GratingSpec(n0, pitch_scale0 * b0, b0, 0.0))
        x1s = slit_positions(GratingSpec(n1, pitch_scale1 * b1, b1, z1))
        span = max(x0s[-1], x1s[-1]) + 3e-6
        x = np.sort(np.random.default_rng(seed).uniform(-span, span, 41))
        worst = _split_residual(lam, z_s, x_s, z1, b0, b1, x0s, x1s, x, cut, split_g1,
                               (0.0, between * z1, z1), (z1, z1 * (1.0 + 1e-6), z1 * (1.0 + beyond)))
        assert worst <= 1e-10


def _band_kernel(kind, n0, n1, b0, b1, pitch_scale0, pitch_scale1, z1, z_s, x_s, comb,
                 between, beyond):
    """A row kernel over (lam, x) for one geometry (G0 at z = 0): between the
    gratings for ``kind`` "z0" and "between", behind G1 otherwise."""
    kernel = _entry_kernel(kind, n0, n1, b0, b1, pitch_scale0, pitch_scale1, z1, z_s, comb,
                           between, beyond)
    return lambda lam, x: kernel(lam, x_s, x)


def _entry_kernel(kind, n0, n1, b0, b1, pitch_scale0, pitch_scale1, z1, z_s, comb, between,
                  beyond):
    """The row kernel of :func:`_band_kernel` over (lam, x_s, x)."""
    x0s = slit_positions(GratingSpec(n0, pitch_scale0 * b0, b0, 0.0))
    x1s = slit_positions(GratingSpec(n1, pitch_scale1 * b1, b1, z1))
    if kind in ("z0", "between"):
        z = 0.0 if kind == "z0" else between * z1
        return lambda lam, x_s, x: between_row(lam, z_s, x_s, 0.0, b0, x0s, x, z)
    z = {"z1": z1, "z1(1+1e-12)": z1 * (1.0 + 1e-12), "beyond": z1 * (1.0 + beyond)}[kind]
    k, eta = comb or (1, 1.0)
    return lambda lam, x_s, x: behind_row(lam, z_s, x_s, 0.0, z1, b0, b1, x0s, x1s, x, z,
                                          comb_k=k, comb_eta=eta, hard=comb is not None)


class TestWavelengthAxis:
    """A 1-D ``lam`` of W wavelengths gives (W, nx) rows in one call, each
    bit-identical to its one-wavelength call."""

    @settings(max_examples=60)
    @given(
        n0=st.integers(1, 24),
        n1=st.integers(1, 24),
        lams=st.lists(st.floats(3e-12, 8e-12), min_size=1, max_size=25),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        pitch_scale0=st.floats(2.5, 8.0),
        pitch_scale1=st.floats(2.5, 8.0),
        z1=st.floats(0.02, 0.08),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-50.0, -0.3)),
        x_s=st.floats(-3e-6, 3e-6),
        kind=st.sampled_from(["z0", "between", "z1", "z1(1+1e-12)", "beyond"]),
        between=st.floats(0.01, 0.99),
        beyond=st.floats(0.01, 2.0),
        comb=st.one_of(st.none(), st.tuples(st.integers(1, 4), st.floats(0.3, 1.5))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_band_rows_equal_their_one_wavelength_calls(self, n0, n1, lams, b0, b1,
                                                        pitch_scale0, pitch_scale1, z1, z_s,
                                                        x_s, kind, between, beyond, comb,
                                                        seed):
        kernel = _band_kernel(kind, n0, n1, b0, b1, pitch_scale0, pitch_scale1, z1, z_s, x_s,
                              comb, between, beyond)
        rng = np.random.default_rng(seed)
        span = 0.5 * max(n0 * pitch_scale0 * b0, n1 * pitch_scale1 * b1) + 3e-6
        x = np.concatenate([rng.uniform(-span, span, 37), [0.0, 1e-5, -1e-4, 1e-3]])
        lams = np.array(lams)
        band = kernel(lams, x)
        assert band.shape == (len(lams), len(x))
        for w, lam in enumerate(lams.tolist()):
            assert band[w].tobytes() == kernel(lam, x).tobytes()
        # scalar == row inside a band, and a permuted row is the permuted band
        for j in range(0, len(x), 5):
            assert kernel(lams, x[j:j + 1]).tobytes() == band[:, j:j + 1].tobytes()
        perm = rng.permutation(len(x))
        assert kernel(lams, x[perm]).tobytes() == band[:, perm].tobytes()

    def test_scalar_lam_keeps_the_row_shape(self):
        # between the gratings, the factorised kernel and the comb's direct
        # kernel behind G1 and at z1
        x = np.linspace(-2e-6, 2e-6, 9)
        for kind, comb in (("between", None), ("beyond", None), ("beyond", (4, 0.7)),
                           ("z1", (4, 0.7))):
            kernel = _band_kernel(kind, 8, 9, 37.5e-9, 75e-9, 500 / 37.5, 500 / 75, 0.05,
                                  PARAXIAL_ZS, 0.0, comb, 0.5, 1.0)
            assert kernel(5e-12, x).shape == (9,)
            assert kernel(np.array(5e-12), x).shape == (9,)
            assert kernel([5e-12], x).shape == (1, 9)
            for lam in ([], np.zeros(0), [[5e-12]], np.full((2, 2), 5e-12)):
                with pytest.raises(DomainError, match="1-D array"):
                    kernel(lam, x)

    @pytest.mark.parametrize("kind, bad", [
        ("beyond", 1e-300),   # the factorised kernel's phase tables overflow
        ("comb", 1e-300),     # the direct kernel of the hard-edged comb
        ("between", 1e-310),  # between the gratings
        ("beyond", 5e-324),   # lam (z1 - z0) underflows to a zero divisor
    ])
    def test_a_band_names_the_wavelength_past_float64(self, kind, bad):
        comb = (4, 0.7) if kind == "comb" else None
        kernel = _band_kernel("beyond" if kind == "comb" else kind, 8, 9, 37.5e-9, 75e-9,
                              500 / 37.5, 500 / 75, 0.05, -0.5, 1e-6, comb, 0.6, 1.0)
        x = np.linspace(-4e-6, 4e-6, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="float64's range") as err:
                kernel([5e-12, bad, 6e-12], x)
        assert str(err.value).endswith(f"wavelength(s) {bad:g} m")

    @pytest.mark.parametrize("bad", [-1e-12, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["between", "beyond", "comb"])
    def test_every_wavelength_of_a_band_is_checked(self, kind, bad):
        comb = (4, 0.7) if kind == "comb" else None
        kernel = _band_kernel("beyond" if kind == "comb" else kind, 8, 9, 37.5e-9, 75e-9,
                              500 / 37.5, 500 / 75, 0.05, -0.5, 1e-6, comb, 0.6, 1.0)
        with pytest.raises(DomainError, match=f"wavelength must be finite and positive, got {bad}"):
            kernel([5e-12, 6e-12, bad], np.zeros(3))


class TestSourceAxis:
    """A 1-D ``x_s`` of B source points gives (B, nx) rows in one call, each
    bit-identical to its one-source call: behind G1 the sources share one
    tile lattice per wavelength, which does not depend on x_s."""

    @settings(max_examples=60)
    @given(
        n0=st.integers(1, 24),
        n1=st.integers(1, 24),
        lam=st.floats(3e-12, 8e-12),
        sources=st.lists(st.floats(-30e-6, 30e-6), min_size=1, max_size=17),
        b0=st.floats(20e-9, 100e-9),
        b1=st.floats(20e-9, 100e-9),
        pitch_scale0=st.floats(2.5, 8.0),
        pitch_scale1=st.floats(2.5, 8.0),
        z1=st.floats(0.02, 0.08),
        z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-50.0, -0.3)),
        kind=st.sampled_from(["z0", "between", "z1", "z1(1+1e-12)", "beyond"]),
        between=st.floats(0.01, 0.99),
        beyond=st.floats(0.01, 2.0),
        comb=st.one_of(st.none(), st.tuples(st.integers(1, 4), st.floats(0.3, 1.5))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_rows_equal_their_one_source_calls(self, n0, n1, lam, sources, b0, b1,
                                                     pitch_scale0, pitch_scale1, z1, z_s, kind,
                                                     between, beyond, comb, seed):
        kernel = _entry_kernel(kind, n0, n1, b0, b1, pitch_scale0, pitch_scale1, z1, z_s, comb,
                               between, beyond)
        rng = np.random.default_rng(seed)
        span = 0.5 * max(n0 * pitch_scale0 * b0, n1 * pitch_scale1 * b1) + 3e-6
        x = np.concatenate([rng.uniform(-span, span, 37), [0.0, 1e-5, -1e-4, 1e-3]])
        xs = np.array(sources + [0.0])
        batch = kernel(lam, xs, x)
        assert batch.shape == (len(xs), len(x))
        for b, x_s in enumerate(xs.tolist()):
            assert batch[b].tobytes() == kernel(lam, x_s, x).tobytes()
        # scalar == row inside a batch; a permuted batch, or row, is permuted alike
        for j in range(0, len(x), 5):
            assert kernel(lam, xs, x[j:j + 1]).tobytes() == batch[:, j:j + 1].tobytes()
        perm, perm_x = rng.permutation(len(xs)), rng.permutation(len(x))
        assert kernel(lam, xs[perm], x).tobytes() == batch[perm].tobytes()
        assert kernel(lam, xs, x[perm_x]).tobytes() == batch[:, perm_x].tobytes()

    @pytest.mark.parametrize("kind, comb", [("between", None), ("z1", None), ("beyond", None),
                                            ("z1(1+1e-12)", None), ("beyond", (4, 0.7))])
    def test_band_and_batch_give_every_entry(self, kind, comb):
        kernel = _entry_kernel(kind, 8, 9, 37.5e-9, 75e-9, 500 / 37.5, 500 / 75, 0.05, -0.5,
                               comb, 0.6, 1.0)
        x = np.linspace(-6e-6, 6e-6, 23)
        lams, xs = np.array([4e-12, 5e-12, 6.5e-12]), np.array([-20e-6, 0.0, 1e-6, 7e-6])
        grid = kernel(lams, xs, x)
        assert grid.shape == (3, 4, 23)
        for w, lam in enumerate(lams.tolist()):
            assert grid[w].tobytes() == kernel(lam, xs, x).tobytes()
            for b, x_s in enumerate(xs.tolist()):
                assert grid[w, b].tobytes() == kernel(lam, x_s, x).tobytes()

    def test_scalar_x_s_keeps_the_row_shape(self):
        x = np.linspace(-2e-6, 2e-6, 9)
        for kind, comb in (("between", None), ("beyond", None), ("beyond", (4, 0.7)),
                           ("z1", (4, 0.7))):
            kernel = _entry_kernel(kind, 8, 9, 37.5e-9, 75e-9, 500 / 37.5, 500 / 75, 0.05,
                                   -0.5, comb, 0.5, 1.0)
            assert kernel(5e-12, 1e-6, x).shape == (9,)
            assert kernel(5e-12, np.array(1e-6), x).shape == (9,)
            assert kernel(5e-12, [1e-6], x).shape == (1, 9)
            assert kernel(5e-12, [1e-6, 0.0, -3e-6], x[:1]).shape == (3, 1)
            assert kernel([5e-12, 6e-12], 1e-6, x).shape == (2, 9)
            for xs in ([], np.zeros(0), [[1e-6]], np.zeros((2, 2))):
                with pytest.raises(DomainError, match="x_s must be one source point or a 1-D"):
                    kernel(5e-12, xs, x)

    @pytest.mark.parametrize("kind", ["between", "z1", "beyond"])
    def test_grouped_batch_equals_the_whole_batch(self, monkeypatch, kind):
        """Groups smaller than one wavelength's tiles, down to one tile or one
        sample, join to the whole batch bit for bit."""
        kernel = _entry_kernel(kind, 8, 9, 37.5e-9, 75e-9, 500 / 37.5, 500 / 75, 0.05, -0.5,
                               None, 0.6, 1.0)
        x = np.concatenate([np.linspace(-6e-6, 6e-6, 61), [1e-4, -1e-3]])
        lams, xs = np.array([4e-12, 6e-12]), np.linspace(-10e-6, 10e-6, 5)
        whole = kernel(lams, xs, x)
        for bound in (1, 3000, 20000):
            monkeypatch.setattr(propagators, "_GROUP_TERMS", bound)
            assert kernel(lams, xs, x).tobytes() == whole.tobytes()


class TestReferenceLattice:
    """Behind G1 an entry's path matrix is a diagonal scaling of the one at its
    reference point x_ref, on a lattice in absolute x_s.  Batches that
    straddle cell boundaries, with entries exactly at x_ref, give each entry
    its one-source call's bytes."""

    @staticmethod
    def _spacing(monkeypatch, kernel):
        # the x_ref spacing: the first lattice _behind_factorised asks for
        seen = []
        lattice = propagators._on_lattice

        def record(v, span):
            ks, h = lattice(v, span)
            seen.append((ks, h))
            return ks, h

        monkeypatch.setattr(propagators, "_on_lattice", record)
        kernel()
        monkeypatch.setattr(propagators, "_on_lattice", lattice)
        return seen

    @pytest.mark.parametrize("z_s", [-0.5, PARAXIAL_ZS])
    @pytest.mark.parametrize("kind", ["z1", "z1(1+1e-12)", "beyond", "far"])
    def test_entries_across_cells_equal_their_one_source_calls(self, monkeypatch, z_s, kind):
        z1, b0, b1, lam = 0.05, 37.5e-9, 75e-9, 5e-12
        x0s = slit_positions(GratingSpec(32, 500e-9, b0, 0.0))
        x1s = slit_positions(GratingSpec(33, 500e-9, b1, z1))
        z = {"z1": z1, "z1(1+1e-12)": z1 * (1.0 + 1e-12), "beyond": z1 + 0.01, "far": 3 * z1}[kind]

        def row(x_s, x):
            return behind_row(lam, z_s, x_s, 0.0, z1, b0, b1, x0s, x1s, x, z)

        x = np.linspace(-6e-6, 6e-6, 25)
        seen = self._spacing(monkeypatch, lambda: row(np.array([1e-6, 0.0]), x))
        h = float(seen[0][1][0])
        if z_s == PARAXIAL_ZS:
            assert h == 0.0  # nothing depends on x_s: one cell, at 0
            h = 40e-6
        # at x_ref (0, h, -2h), just either side of the boundaries at h/2 and
        # -3h/2, and inside cells
        xs = np.array([0.0, h, -2.0 * h, 0.5 * h * (1 - 1e-9), 0.5 * h * (1 + 1e-9),
                       -1.5 * h * (1 - 1e-9), -1.5 * h * (1 + 1e-9), 0.3 * h, 1e-6])
        # the samples follow the beams' centres x_s z / z_s
        x = np.concatenate([x, -h * z * np.linspace(-2.0, 1.0, 7) / (1.0 if z_s == PARAXIAL_ZS
                                                                      else z_s)])
        seen = self._spacing(monkeypatch, lambda: row(xs, x))
        if z_s != PARAXIAL_ZS:
            assert np.unique(seen[0][0]).size == 4  # the batch spans four cells
            assert np.array_equal(seen[0][0][0, :3] * h, xs[:3])  # three entries sit at x_ref
        batch = row(xs, x)
        assert batch.shape == (len(xs), len(x)) and np.isfinite(batch).all()
        for b, x_s in enumerate(xs.tolist()):
            assert batch[b].tobytes() == row(x_s, x).tobytes()
        perm = np.random.default_rng(5).permutation(len(xs))
        assert row(xs[perm], x).tobytes() == batch[perm].tobytes()

    @pytest.mark.parametrize("past", [1e-3, 1e-2, 0.05])
    def test_fig5a_line_matches_the_closed_form(self, rng, past):
        """fig5a's whole 33-point line as one batch, each entry against the
        closed-form path sum at 1 mm, 10 mm and 0.05 m past z1."""
        scn = preset_run_config("fig5a").scenario
        assert scn.z0 == 0.0
        g0, g1 = scn.grating0, scn.grating1
        x0s, x1s = slit_positions(g0), slit_positions(g1)
        xs = np.array(scn.source.x_positions)
        assert len(xs) == 33
        span = max(x0s[-1], x1s[-1]) + 3e-6
        x = np.sort(rng.uniform(-span, span, 31))
        args = (scn.lam, scn.source.z_s, xs, g1.z_pos, g0.half_width, g1.half_width, x0s, x1s, x,
                g1.z_pos + past)
        batch = behind_row(*args[:3], 0.0, *args[3:])
        for b, x_s in enumerate(xs.tolist()):
            _assert_matches_closed_form(*args[:2], x_s, *args[3:], got=batch[b])


class TestWavelengthGroups:
    """A band is evaluated in groups of tiles, or blocks of samples, of at
    most _GROUP_TERMS path terms, which join to the whole band bit for bit;
    a tile whose path matrices over the batch of sources alone exceed
    _MAX_TERMS is refused before any path table is built.  The bounds are
    lowered here, so no large buffer is allocated."""

    LAMS = np.linspace(3e-12, 8e-12, 7)

    @pytest.mark.parametrize("kind", ["between", "z1", "beyond"])
    @pytest.mark.parametrize("z_s", [-0.5, PARAXIAL_ZS])
    def test_grouped_band_equals_the_whole_band(self, monkeypatch, kind, z_s):
        kernel = _band_kernel(kind, 8, 9, 37.5e-9, 75e-9, 500 / 37.5, 500 / 75, 0.05, z_s, 1e-6,
                              None, 0.6, 1.0)
        x = np.concatenate([np.linspace(-6e-6, 6e-6, 61), [1e-4, -1e-3]])
        whole = kernel(self.LAMS, x)
        for bound in (1, 2000, 5000, 12000):
            monkeypatch.setattr(propagators, "_GROUP_TERMS", bound)
            assert kernel(self.LAMS, x).tobytes() == whole.tobytes()

    def test_a_tile_over_the_bound_is_refused_before_its_tables(self, monkeypatch):
        # 1000 sources over 32 x 32 paths: one tile's M is 1024000 terms (16 MB),
        # and so are the path tables p23 and bq
        x0s = slit_positions(GratingSpec(32, 500e-9, 37.5e-9, 0.0))
        x1s = slit_positions(GratingSpec(32, 500e-9, 75e-9, 0.05))
        x_s, x = np.linspace(-1e-6, 1e-6, 1000), np.linspace(-1e-3, 1e-3, 1000)
        monkeypatch.setattr(propagators, "_MAX_TERMS", 10**6)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="needs 1024000 path terms per tile"):
                behind_row([5e-12, 6e-12], -0.5, x_s, 0.0, 0.05, 37.5e-9, 75e-9, x0s, x1s, x, 0.06)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        # a batch at the bound itself is evaluated
        monkeypatch.setattr(propagators, "_MAX_TERMS", 3 * 32 * 32)
        psi = behind_row(5e-12, -0.5, x_s[:3], 0.0, 0.05, 37.5e-9, 75e-9, x0s, x1s, x[:5], 0.06)
        assert psi.shape == (3, 5)


def _split_residual(lam, z_s, x_s, z1, b0, b1, x0s, x1s, x, cut, split_g1, zs_between, zs_behind):
    """The largest |row - (part a + part b)| / max |row| over the given
    planes (G0 at z = 0).  G0's lattice is cut after its first
    1 + round(cut (N - 2)) slits; behind G1, G1's instead when ``split_g1``."""

    def parts(xs):
        k = 1 + round(cut * (len(xs) - 2))
        return xs, xs[:k], xs[k:]

    def residual(rows):
        whole, a, b = rows
        return np.max(np.abs(whole - (a + b))) / np.max(np.abs(whole))

    worst = [residual([between_row(lam, z_s, x_s, 0.0, b0, p, x, z) for p in parts(x0s)])
             for z in zs_between]
    for z in zs_behind:
        pairs = ([(x0s, p) for p in parts(x1s)] if split_g1
                 else [(p, x1s) for p in parts(x0s)])
        worst.append(residual([behind_row(lam, z_s, x_s, 0.0, z1, b0, b1, p0, p1, x, z)
                               for p0, p1 in pairs]))
    return max(worst)


def _assert_between_matches_closed_form(lam, z_s, x_s, b0, x0s, x, z):
    """``between_row`` (G0 at z = 0) against the pairwise sum of closed-form
    path terms exp(i pi (q (c dx^2 + 2 g dx - g^2 z) + p3)) / sqrt(Sigma0),
    one complex exponential per term."""
    got = between_row(lam, z_s, x_s, 0.0, b0, x0s, x, z)
    paraxial = z_s == PARAXIAL_ZS
    sig0 = complex(1.0 if paraxial else (z - z_s) / -z_s, lam * z / (2 * math.pi * b0 * b0))
    c = complex(0.0 if paraxial else 1.0 / -z_s, lam / (2 * math.pi * b0 * b0))
    terms = []
    for x0 in x0s:
        g = 0.0 if paraxial else (x0 - x_s) / -z_s
        p3 = 0.0 if paraxial else (x0 - x_s) ** 2 / (lam * -z_s)
        dx = x - x0
        num = c * dx * dx + 2.0 * g * dx - g * g * z
        terms.append(np.exp(1j * math.pi * (num / (lam * sig0) + p3)) / cmath.sqrt(sig0))
    ref = reduce_paths(np.stack(terms))
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def _assert_matches_closed_form(lam, z_s, x_s, z1, b0, b1, x0s, x1s, x, z, got=None):
    """``behind_row`` (G0 at z = 0), or its row ``got`` at x_s, against the
    pairwise sum of the closed-form path terms; returns that reference sum."""
    if got is None:
        got = behind_row(lam, z_s, x_s, 0.0, z1, b0, b1, x0s, x1s, x, z)
    assert np.all(np.isfinite(got))
    terms = np.stack([
        _behind_path_closed_form(lam, z_s, x_s, z1, b0, b1, x0, x1, x, z)
        for x1 in x1s for x0 in x0s
    ])
    ref = reduce_paths(terms)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    # far into the tails each sample still matches to round-off of its own
    # terms, down to where they leave the normal floating-point range
    assert np.all(np.abs(got - ref) <= 1e-9 * reduce_paths(np.abs(terms)) + 1e-300)
    return ref


def _behind_path_closed_form(lam, z_s, x_s, z1, b0, b1, x0, x1, x, z):
    """One behind-G1 path term exp(i pi phi) / D (G0 at z = 0), one exponential
    per sample, with the phase written so that nothing cancels as z -> z1:
    phi = A (x - x1)^2 + B bq (x - x1) + p23 - c bq^2."""
    paraxial = z_s == PARAXIAL_ZS
    sig0 = complex(1.0 if paraxial else z1 / -z_s + 1.0, lam * z1 / (2 * math.pi * b0 * b0))
    sig1 = complex(z / z1, lam * (z - z1) / (2 * math.pi * b1 * b1))
    d2 = sig0 * sig1 - (z - z1) / z1
    u = (x1 - x0) - (0.0 if paraxial else (x0 - x_s) * z1 / -z_s)
    p3 = 0.0 if paraxial else (x0 - x_s) ** 2 / (lam * -z_s)
    p23 = ((x1 - x0) ** 2 - u * u / sig0) / (lam * z1) + p3
    bq = ((x1 - x0) - u / sig0) / (lam * z1)
    a = ((sig0 - 1.0) / z1 + 1j * sig0 * lam / (2 * math.pi * b1 * b1)) / (lam * d2)
    b = 2.0 * sig0 / d2
    c = lam * (z - z1) * sig0 / d2
    dx = x - x1
    return np.exp(1j * math.pi * (a * dx * dx + b * bq * dx + p23 - c * bq * bq)) / cmath.sqrt(d2)
