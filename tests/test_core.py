import math

import numpy as np
import pytest

from tlsim.core import (
    PLANCK_H,
    PARAXIAL_ZS,
    DomainError,
    GratingSpec,
    Particle,
    SourceSpec,
    SpectralSpec,
    centered_axis,
    slit_positions,
    talbot_length,
    xi0_grouped,
)
from tlsim.propagators import behind_row, spreading_sigma


class TestParticle:
    @pytest.mark.parametrize(
        "lam,v_expect",
        [(5e-12, 110.0), (3e-12, 184.0), (7e-12, 79.0)],
    )
    def test_fullerene_velocities(self, lam, v_expect):
        p = Particle(mass=1.2e-24, lambda_dB=lam)
        assert p.v_z == pytest.approx(v_expect, rel=0.01)

    def test_momentum_wavelength_relation_exact(self, rng):
        for _ in range(200):
            m = 10.0 ** rng.uniform(-27, -20)
            lam = 10.0 ** rng.uniform(-13, -9)
            p = Particle(mass=m, lambda_dB=lam)
            assert abs(p.v_z * p.mass * p.lambda_dB - PLANCK_H) / PLANCK_H < 1e-12

    @pytest.mark.parametrize("mass,lam", [(-1.0, 5e-12), (0.0, 5e-12), (1e-24, 0.0), (1e-24, -2e-12)])
    def test_rejects_nonpositive(self, mass, lam):
        with pytest.raises(DomainError):
            Particle(mass=mass, lambda_dB=lam)


class TestTalbotLength:
    def test_paper_value(self):
        assert talbot_length(500e-9, 5e-12) == pytest.approx(0.1, rel=1e-12)

    def test_algebraic_identity(self):
        # pitch d, wavelength 2 d^2 -> unit length
        assert talbot_length(1.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_direct_evaluation(self):
        assert talbot_length(500e-9, 2.5e-12) == pytest.approx(0.2, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            talbot_length(0.0, 5e-12)
        with pytest.raises(DomainError):
            talbot_length(500e-9, -5e-12)


class TestSpreading:
    def test_worked_value(self):
        # Sigma for G0 between source at -0.5 m and G1 at 0.05 m; the
        # expected value is 0.55/0.5 + i * lam*0.05 / (2 pi b0^2).
        sig = spreading_sigma(5e-12, -0.5, 0.0, 0.05, 37.5e-9)
        expect_im = 5e-12 * 0.05 / (2.0 * math.pi * 37.5e-9**2)
        assert sig.real == pytest.approx(1.1, rel=1e-12)
        assert sig.imag == pytest.approx(expect_im, rel=1e-12)
        assert sig.imag == pytest.approx(28.294, rel=1e-3)

    def test_at_grating_plane_sigma_is_one(self):
        sig = spreading_sigma(5e-12, 0.0, 0.05, 0.05, 75e-9)
        assert sig == complex(1.0, 0.0)

    def test_hard_edge_scaling(self):
        # K = 2, eta = 1: the comb scales the imaginary part by (K/eta)^2
        plain = spreading_sigma(5e-12, 0.0, 0.05, 0.1, 75e-9)
        hard = spreading_sigma(5e-12, 0.0, 0.05, 0.1, 75e-9, scale=(2 / 1.0) ** 2)
        assert hard.real == plain.real
        assert hard.imag == pytest.approx(4.0 * plain.imag, rel=1e-15)

    def test_k1_comb_is_plain_gaussian(self):
        # comb_k = 1 means the fuzzy Gaussian slit; eta has no effect on Sigma,
        # so the K = 1 comb is the fuzzy field times its prefactor sqrt(2/pi)/eta
        args = (5e-12, -0.5, 0.0, 0.0, 0.05, 37.5e-9, 75e-9, [2.5e-7], [-2.5e-7])
        x = np.linspace(-1e-6, 1e-6, 9)
        plain = behind_row(*args, x, 0.1)
        hard = behind_row(*args, x, 0.1, comb_k=1, comb_eta=1.5, hard=True)
        assert np.allclose(hard, math.sqrt(2.0 / math.pi) / 1.5 * plain, rtol=1e-15, atol=0)

    def test_im_positive_re_above_one(self, rng):
        for _ in range(100):
            zj = rng.uniform(0.01, 0.1)
            b = rng.uniform(20e-9, 100e-9)
            z_prev = -rng.uniform(0.1, 1.0)
            z_next = zj + rng.uniform(1e-4, 0.2)
            sig = spreading_sigma(rng.uniform(3e-12, 8e-12), z_prev, zj, z_next, b)
            assert sig.imag > 0.0
            assert sig.real > 1.0

    def test_paraxial_real_part_is_one(self):
        sig = spreading_sigma(5e-12, PARAXIAL_ZS, 0.0, 0.05, 37.5e-9)
        assert sig.real == 1.0

    def test_coincident_planes_error(self):
        with pytest.raises(DomainError):
            spreading_sigma(5e-12, 0.0, 0.0, 0.05, 37.5e-9)

    def test_b_form_equals_sigma0_form(self):
        # the paper writes the spreading with sigma0 = b/sqrt(2): 4 pi sigma0^2 = 2 pi b^2
        sigma0 = 37.5e-9 / math.sqrt(2.0)
        sig = spreading_sigma(5e-12, -0.5, 0.0, 0.05, 37.5e-9)
        assert sig.imag == pytest.approx(5e-12 * 0.05 / (4.0 * math.pi * sigma0**2), rel=1e-15)

    def test_rejects_non_finite_wavelength(self):
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                spreading_sigma(lam, -0.5, 0.0, 0.05, 37.5e-9)


def _xi0(x0, x1, x_s, z0, z1, z_s):
    """xi0 itself, from the grouped product (which stays finite at x1 == x0)."""
    return xi0_grouped(x0, x1, x_s, z0, z1, z_s) / (x1 - x0)


class TestXi0:
    def test_source_aligned_with_slit(self):
        assert _xi0(1e-6, 2e-6, 1e-6, 0.0, 0.05, -0.5) == 1.0

    def test_paraxial_limit(self):
        assert _xi0(1e-6, 2e-6, 3e-6, 0.0, 0.05, PARAXIAL_ZS) == 1.0

    def test_worked_example(self):
        # 1 - ((0 - 2e-6)/0.5) * (0.05/250e-9) = 1.8
        assert _xi0(0.0, 250e-9, 2e-6, 0.0, 0.05, -0.5) == pytest.approx(1.8, rel=1e-12)

    def test_grouped_form_finite_and_consistent(self, rng):
        for _ in range(100):
            x0 = rng.uniform(-1e-6, 1e-6)
            x1 = rng.uniform(-1e-6, 1e-6)
            x_s = rng.uniform(-2e-6, 2e-6)
            grouped = xi0_grouped(x0, x1, x_s, 0.0, 0.05, -0.5)
            if x1 != x0:
                xi0 = 1.0 - ((x0 - x_s) / 0.5) * (0.05 / (x1 - x0))
                assert grouped == pytest.approx((x1 - x0) * xi0, rel=1e-12, abs=1e-30)
        assert np.isfinite(xi0_grouped(1e-6, 1e-6, 5e-7, 0.0, 0.05, -0.5))


class TestSlitPositions:
    def test_odd_count(self):
        g = GratingSpec(33, 500e-9, 75e-9, 0.05)
        pos = slit_positions(g)
        assert pos[0] == pytest.approx(-8e-6, rel=1e-12)
        assert pos[16] == 0.0

    def test_single_slit(self):
        g = GratingSpec(1, 500e-9, 75e-9, 0.05)
        assert list(slit_positions(g)) == [0.0]

    def test_even_count_offset(self):
        g = GratingSpec(32, 500e-9, 75e-9, 0.05)
        pos = slit_positions(g)
        assert 0.0 not in pos
        assert pos[15] == pytest.approx(-250e-9, rel=1e-12)
        assert pos[16] == pytest.approx(250e-9, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 4096])
    def test_symmetry(self, n):
        g = GratingSpec(n, 500e-9, 75e-9, 0.05)
        pos = slit_positions(g)
        assert abs(pos.sum()) <= 1e-15 * n * g.pitch
        assert np.array_equal(pos, -pos[::-1])


class TestValidation:
    def test_grating_window_overlap(self):
        with pytest.raises(DomainError):
            GratingSpec(2, 100e-9, 75e-9, 0.0)

    def test_grating_slit_cap(self):
        with pytest.raises(DomainError):
            GratingSpec(5000, 500e-9, 75e-9, 0.0)

    def test_comb_validation(self):
        with pytest.raises(DomainError):
            GratingSpec(1, 500e-9, 75e-9, 0.0, comb_k=0)
        with pytest.raises(DomainError):
            GratingSpec(1, 500e-9, 75e-9, 0.0, comb_eta=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_grating_pitch_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            GratingSpec(1, bad, 75e-9, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_grating_half_width_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            GratingSpec(1, 500e-9, bad, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_grating_z_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            GratingSpec(1, 500e-9, 75e-9, bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_comb_eta_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            GratingSpec(1, 500e-9, 75e-9, 0.05, comb_k=3, comb_eta=bad)

    def test_source_ordering(self):
        with pytest.raises(DomainError):
            SourceSpec(kind="line", x_positions=(1e-6, 0.0), z_s=-0.5)

    @pytest.mark.parametrize("kind, xs", [
        ("point", (math.inf,)),
        ("point", (math.nan,)),
        ("line", (0.0, math.inf)),
        ("line", (-math.inf, 0.0)),
    ])
    def test_source_positions_must_be_finite(self, kind, xs):
        with pytest.raises(DomainError, match="finite"):
            SourceSpec(kind=kind, x_positions=xs, z_s=-0.5)

    def test_infinite_source_distance_and_coherence_stay_valid(self):
        src = SourceSpec(kind="point", x_positions=(0.0,), z_s=-math.inf, sigma_I=math.inf)
        assert src.paraxial

    @pytest.mark.parametrize("kind, xs, gsm", [
        ("point", (0.0,), False),
        ("line", (0.0,), False),
        ("line", (0.0, 1e-6), True),
    ])
    def test_only_a_line_of_two_or_more_positions_is_gsm(self, kind, xs, gsm):
        assert SourceSpec(kind=kind, x_positions=xs, z_s=-0.5).gsm is gsm

    def test_source_sigma(self):
        with pytest.raises(DomainError):
            SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5, sigma_I=0.0)

    def test_spectral_validation(self):
        with pytest.raises(DomainError):
            SpectralSpec(mean_lambda=5e-12, sigma_g=0.0, lambda_list=(5e-12,))
        with pytest.raises(DomainError):
            SpectralSpec(mean_lambda=5e-12, sigma_g=1e-12, lambda_list=())

    @pytest.mark.parametrize("mean, lams", [
        (math.inf, (5e-12,)),
        (math.nan, (5e-12,)),
        (5e-12, (5e-12, math.inf)),
    ])
    def test_spectral_wavelengths_must_be_finite(self, mean, lams):
        with pytest.raises(DomainError, match="finite"):
            SpectralSpec(mean_lambda=mean, sigma_g=1e-12, lambda_list=lams)


class TestCenteredAxis:
    def test_endpoints_exact(self):
        ax = centered_axis(0.05, 0.06, 401)
        assert ax[0] == 0.05 and ax[-1] == 0.06

    def test_symmetric_span_is_antisymmetric(self):
        for n in (64, 65, 800):
            ax = centered_axis(-8e-6, 8e-6, n)
            assert np.array_equal(ax, -ax[::-1])

    def test_uniform_spacing(self):
        ax = centered_axis(-1.0, 2.0, 301)
        steps = np.diff(ax)
        assert np.allclose(steps, steps[0], rtol=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            centered_axis(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            centered_axis(0.0, 1.0, 1)


class TestSpecChecks:
    """The construction checks of the source and scenario specs."""

    def test_source_kind_rejected(self):
        with pytest.raises(DomainError, match="source kind must be 'point' or 'line', got 'ring'"):
            SourceSpec(kind="ring", x_positions=(0.0,), z_s=-0.5)

    def test_point_source_needs_one_position(self):
        with pytest.raises(DomainError, match="point source must have exactly one x position"):
            SourceSpec(kind="point", x_positions=(0.0, 1e-6), z_s=-0.5)

    def test_scenario_region_rejected(self, fullerene):
        from tlsim.scenario import Scenario
        src = SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)
        with pytest.raises(DomainError, match="region must be one of .* got 'inside'"):
            Scenario(particle=fullerene, grating0=GratingSpec(3, 500e-9, 37.5e-9, 0.0),
                     grating1=GratingSpec(3, 500e-9, 75e-9, 0.05), source=src, region="inside")

    def test_echo_formats_floats_at_17_digits_and_the_rest_as_str(self):
        from tlsim.scenario import _fmt
        assert _fmt(0.1) == "0.10000000000000001"
        assert _fmt(33) == "33"
        assert _fmt("standard") == "standard"
