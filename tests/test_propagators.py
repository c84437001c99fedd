import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tlsim.core import (
    HBAR, PARAXIAL_ZS, DomainError, GratingSpec, Particle, SourceSpec, centered_axis,
    slit_positions,
)
from tlsim.oracle import composite_gauss_legendre, quadrature_oracle
from tlsim.propagators import (
    BranchCutError,
    PathContext,
    behind_row,
    comb_form_factor,
    d_term,
    free_kernel,
    gaussian_slit,
    psi_behind,
    psi_between,
    psi_hard_edge,
    psi_paraxial,
    reduce_paths,
    spreading_sigma,
)
from tlsim.scenario import Scenario
from tlsim.superposition import density, superpose_behind, superpose_between


def _scenario(particle, g0, g1, x_s, z_s, region, propagator="standard"):
    src = SourceSpec(kind="point", x_positions=(x_s,), z_s=z_s)
    return Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                    region=region, propagator=propagator)


def _ctx_between(particle, b0=37.5e-9, x_s=1e-6, z_s=-0.5, x0=2.5e-7):
    g0 = GratingSpec(1, 500e-9, b0, 0.0)
    return PathContext(particle=particle, grating0=g0, grating1=None, x_s=x_s, z_s=z_s, x0=x0)


def _ctx_behind(particle, b0=37.5e-9, b1=75e-9, z1=0.05, x_s=1e-6, z_s=-0.5,
                x0=2.5e-7, x1=-2.5e-7, comb_k=1, comb_eta=1.0):
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


class TestDTerm:
    def test_between_gratings_reduction(self):
        sig0 = complex(1.1, 28.29)
        assert d_term(sig0, 1.0, 0.0, 0.05, 0.05) == pytest.approx(cmath.sqrt(sig0), rel=1e-14)

    def test_worked_example(self):
        # z-ratio 2 with the quoted spreadings
        d = d_term(complex(1.1, 28.29), complex(3.0, 14.15), 0.0, 0.05, 0.15)
        expect = cmath.sqrt(complex(1.1, 28.29) * complex(3.0, 14.15) - 2.0)
        assert d == pytest.approx(expect, rel=1e-14)
        assert d.real == pytest.approx(2.50, abs=0.01)
        assert d.imag == pytest.approx(20.13, abs=0.01)

    def test_identity(self):
        assert d_term(1.0, 1.0, 0.0, 0.05, 0.05) == 1.0

    def test_degenerate(self):
        with pytest.raises(DomainError):
            d_term(1.0, 1.0, 0.0, 0.05, 0.1)  # 1*1 - 1 = 0

    def test_branch_guard(self):
        with pytest.raises(BranchCutError):
            d_term(complex(0.0, -2.0), 1.0, 0.0, 0.05, 0.1)


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
    def test_matches_oracle(self, fullerene):
        ctx = _ctx_between(fullerene)
        for z in (0.01, 0.04):
            for x in (2.5e-7, 5e-7, 1e-6):
                ref = quadrature_oracle(ctx, x, z, "fuzzy")
                val = psi_between(ctx, x, z)
                assert abs(val - ref) / abs(ref) < 1e-6

    def test_on_axis_ray_phase_and_peak(self, fullerene):
        # source aligned with the slit: both phase summands vanish at x = x0,
        # so psi there is exactly the 1/sqrt(Sigma) prefactor, and |psi|
        # peaks at the slit center for small z - z0
        ctx = _ctx_between(fullerene, x_s=2.5e-7, x0=2.5e-7)
        z = 1e-4
        x = np.linspace(0.0, 5e-7, 101)
        p = density(psi_between(ctx, x, z))
        assert x[np.argmax(p)] == pytest.approx(2.5e-7, abs=5e-9)
        sig = spreading_sigma(ctx.lam, ctx.z_s, 0.0, z, ctx.grating0.half_width)
        assert psi_between(ctx, 2.5e-7, z) == pytest.approx(1.0 / cmath.sqrt(sig), rel=1e-13)

    def test_gaussian_beam_width_grows(self, fullerene):
        ctx = _ctx_between(fullerene, x_s=0.0, x0=0.0)
        x = centered_axis(-4e-6, 4e-6, 4001)

        def second_moment(z):
            p = density(psi_between(ctx, x, z))
            return float(np.sum(p * x * x) / np.sum(p))

        m1, m2, m3 = (second_moment(z) for z in (0.005, 0.02, 0.045))
        assert m1 < m2 < m3

    def test_boundary_row_is_aperture_times_source_wave(self, fullerene):
        ctx = _ctx_between(fullerene)
        x = np.linspace(-2e-7, 6e-7, 9)
        at_plane = psi_between(ctx, x, 0.0)
        assert np.allclose(np.abs(at_plane), gaussian_slit(x - ctx.x0, 37.5e-9), rtol=1e-12)
        # continuity from above (1 nm past the plane)
        just_above = psi_between(ctx, x, 1e-9)
        assert np.allclose(at_plane, just_above, rtol=1e-6)

    def test_region_checks(self, fullerene):
        ctx = _ctx_between(fullerene)
        with pytest.raises(DomainError):
            psi_between(ctx, 0.0, -0.01)
        ctx_par = PathContext(
            particle=fullerene, grating0=ctx.grating0, grating1=None,
            x_s=0.0, z_s=PARAXIAL_ZS, x0=0.0,
        )
        with pytest.raises(DomainError):
            psi_between(ctx_par, 0.0, 0.01)


class TestPsiBehind:
    def test_matches_oracle_sample(self, fullerene, rng):
        from tlsim.oracle import random_oracle_case

        for _ in range(5):
            ctx, x, z, _ = random_oracle_case(rng)
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
            ctx_b = PathContext(
                particle=fullerene, grating0=ctx.grating0, grating1=ctx.grating1,
                x_s=ctx.x_s, z_s=ctx.z_s, x0=ctx.x0,
            )
            a = psi_behind(ctx, ctx.x1, z1 * (1.0 + 1e-12))
            b = psi_between(ctx_b, ctx.x1, z1)
            worst = max(worst, abs(a - b) / abs(b))
        assert worst < 1e-9

    def test_plane_row_is_transmission_times_between(self, fullerene):
        ctx = _ctx_behind(fullerene)
        ctx_b = PathContext(
            particle=fullerene, grating0=ctx.grating0, grating1=None,
            x_s=ctx.x_s, z_s=ctx.z_s, x0=ctx.x0,
        )
        x = np.linspace(-3e-7, 3e-7, 13)
        lhs = psi_behind(ctx, x, 0.05)
        rhs = psi_between(ctx_b, x, 0.05) * gaussian_slit(x - ctx.x1, 75e-9)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_region_check(self, fullerene):
        ctx = _ctx_behind(fullerene)
        with pytest.raises(DomainError):
            psi_behind(ctx, 0.0, 0.04)

    def test_finite_at_slit_centers_and_between(self, fullerene):
        ctx = _ctx_behind(fullerene, x0=0.0, x1=0.0, x_s=0.0)
        x = np.array([0.0, 125e-9, 250e-9, 1e-6])
        for z in (0.05, 0.0625, 0.1, 0.15):
            assert np.all(np.isfinite(psi_behind(ctx, x, z)))


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

    def test_matches_comb_oracle(self, fullerene, rng):
        from tlsim.oracle import random_oracle_case

        for _ in range(4):
            ctx, x, z, _ = random_oracle_case(rng, hard=True)
            ref = quadrature_oracle(ctx, x, z, "comb")
            assert abs(psi_hard_edge(ctx, x, z) - ref) / abs(ref) < 1e-6

    def test_plane_row_is_comb_transmission_times_between(self, fullerene):
        K, eta = 8, 1.2
        ctx = _ctx_behind(fullerene, comb_k=K, comb_eta=eta, x1=-1e-7)
        ctx_b = PathContext(
            particle=fullerene, grating0=ctx.grating0, grating1=None,
            x_s=ctx.x_s, z_s=ctx.z_s, x0=ctx.x0,
        )
        x = np.linspace(-3e-7, 3e-7, 13)
        lhs = psi_hard_edge(ctx, x, 0.05)
        rhs = psi_between(ctx_b, x, 0.05) * comb_form_factor(x - ctx.x1, 75e-9, eta, K)
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
    def test_requires_paraxial_source(self, fullerene):
        ctx = _ctx_behind(fullerene)
        with pytest.raises(DomainError):
            psi_paraxial(ctx, 0.0, 0.1)

    def test_between_reduces_to_aperture_at_plane(self, fullerene):
        g0 = GratingSpec(1, 500e-9, 37.5e-9, 0.0)
        ctx = PathContext(particle=fullerene, grating0=g0, grating1=None,
                          x_s=0.0, z_s=PARAXIAL_ZS, x0=1e-7)
        x = np.linspace(-2e-7, 4e-7, 9)
        val = psi_paraxial(ctx, x, 0.0)
        assert np.allclose(val, gaussian_slit(x - 1e-7, 37.5e-9), rtol=1e-12)

    def test_half_period_shifted_self_image(self, fullerene):
        # single-grating paraxial field at zT/2 reproduces the grating
        # pattern shifted by half a period
        d = 500e-9
        zT = 2 * d * d / 5e-12
        g0 = GratingSpec(64, d, 37.5e-9, 0.0)
        g1 = GratingSpec(1, d, 75e-9, 2 * zT)
        req = _scenario(fullerene, g0, g1, 0.0, PARAXIAL_ZS, "between", "paraxial")
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
        req_par = _scenario(fullerene, g0, g1, 0.0, PARAXIAL_ZS, "behind", "paraxial")
        req_fin = _scenario(fullerene, g0, g1, 0.0, -50.0, "behind")
        pp = density(superpose_behind(req_par, x, 0.1))
        pf = density(superpose_behind(req_fin, x, 0.1))
        pp /= pp.max()
        pf /= pf.max()
        assert math.sqrt(float(np.mean((pp - pf) ** 2))) < 0.01


class TestFactorisedBehind:
    """Slit combs with N1*N0 > N1 + N0 + 2 take the factorised behind-G1 kernel."""

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
        assume(n1 * n0 > n1 + n0 + 2)
        x0s = slit_positions(GratingSpec(n0, pitch_scale * b0, b0, 0.0))
        x1s = slit_positions(GratingSpec(n1, pitch_scale * b1, b1, z1))
        span = max(abs(x0s[0]), abs(x1s[0])) + 3e-6
        x = np.sort(np.random.default_rng(seed).uniform(-span, span, 41))
        tails = np.array([1e-5, 3e-5, 1e-4, 3e-4, 1e-3])
        x = np.concatenate([-tails[::-1], x, tails])
        z = {"plane": z1, "plane+1e-12": z1 * (1.0 + 1e-12),
             "plane+1e-7m": z1 + 1e-7, "beyond": z1 * (1.0 + beyond)}[z_kind]

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
        if z_kind != "plane+1e-12":
            # the seed's one-exponential-per-path kernel (single-path calls
            # never factorise); just past the plane its 1/(z - z1) terms
            # cancel to ~1e-5, so it is compared only where it is accurate
            direct = reduce_paths(np.stack([
                behind_row(lam, z_s, x_s, 0.0, z1, b0, b1, [x0], [x1], x, z)
                for x1 in x1s for x0 in x0s
            ]))
            assert np.max(np.abs(direct - ref)) <= 1e-10 * np.max(np.abs(ref))


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
