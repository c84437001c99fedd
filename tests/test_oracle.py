import math

import numpy as np
import pytest

from tlsim.core import PARAXIAL_ZS, DomainError, GratingSpec
from tlsim.oracle import (
    OracleConvergenceError,
    closed_gaussian_integral,
    composite_gauss_legendre,
    quadrature_oracle,
    random_oracle_case,
)
from tlsim.propagators import PathContext


class TestGaussianIdentity:
    def test_standard_integral(self):
        # alpha = -1, beta = gamma = 0 -> sqrt(pi)
        assert closed_gaussian_integral(-1.0, 0.0, 0.0) == pytest.approx(math.sqrt(math.pi))

    def test_quadrature_reproduces_closed_form(self):
        nodes, w = composite_gauss_legendre(-10.0, 10.0, 8, 32)
        val = complex(np.sum(w * np.exp(-nodes * nodes)))
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("alpha,beta,gamma", [
        (complex(-1.0, 0.5), complex(0.3, -0.2), 0.1),
        (complex(-0.5, -0.8), 1.0, complex(0.0, 0.4)),
    ])
    def test_complex_cases_against_quadrature(self, alpha, beta, gamma):
        nodes, w = composite_gauss_legendre(-30.0, 30.0, 64, 32)
        f = np.exp(alpha * nodes * nodes + beta * nodes + gamma)
        val = complex(np.sum(w * f))
        assert val == pytest.approx(closed_gaussian_integral(alpha, beta, gamma), rel=1e-10)

    def test_rejects_zero_alpha(self):
        with pytest.raises(DomainError):
            closed_gaussian_integral(0.0, 1.0, 0.0)


class TestOracleInterface:
    def test_rejects_paraxial_source(self, fullerene):
        g0 = GratingSpec(1, 500e-9, 37.5e-9, 0.0)
        ctx = PathContext(particle=fullerene, grating0=g0, grating1=None,
                          x_s=0.0, z_s=PARAXIAL_ZS, x0=0.0)
        with pytest.raises(DomainError):
            quadrature_oracle(ctx, 0.0, 0.01)

    def test_rejects_narrow_window(self, fullerene):
        g0 = GratingSpec(1, 500e-9, 37.5e-9, 0.0)
        ctx = PathContext(particle=fullerene, grating0=g0, grating1=None,
                          x_s=0.0, z_s=-0.5, x0=0.0)
        with pytest.raises(DomainError):
            quadrature_oracle(ctx, 0.0, 0.01, window=4.0)

    def test_rejects_comb_for_between_region(self, fullerene):
        g0 = GratingSpec(1, 500e-9, 37.5e-9, 0.0)
        ctx = PathContext(particle=fullerene, grating0=g0, grating1=None,
                          x_s=0.0, z_s=-0.5, x0=0.0)
        with pytest.raises(DomainError):
            quadrature_oracle(ctx, 0.0, 0.01, aperture_model="comb")

    def test_unknown_aperture_model(self, fullerene, rng):
        ctx, x, z = random_oracle_case(rng)
        with pytest.raises(DomainError):
            quadrature_oracle(ctx, x, z, aperture_model="boxcar")

    def test_nonconvergence_raises(self, fullerene, rng):
        ctx, x, z = random_oracle_case(rng)
        with pytest.raises(OracleConvergenceError):
            quadrature_oracle(ctx, x, z, rel_tol=1e-8, max_panels=2)

    def test_self_consistency_across_windows(self, rng):
        # the converged value is window-independent once tails are negligible
        ctx, x, z = random_oracle_case(rng)
        a = quadrature_oracle(ctx, x, z, window=8.0)
        b = quadrature_oracle(ctx, x, z, window=10.0)
        assert a == pytest.approx(b, rel=1e-6)


class TestCompositeRule:
    def test_polynomial_exactness(self):
        # degree-5 polynomial integrated exactly by any GL rule of order >= 3
        nodes, w = composite_gauss_legendre(0.0, 2.0, 4, 8)
        val = float(np.sum(w * (nodes**5 - 2.0 * nodes**2 + 1.0)))
        assert val == pytest.approx(2.0**6 / 6 - 2.0 * 2.0**3 / 3 + 2.0, rel=1e-14)

    def test_weights_cover_interval(self):
        nodes, w = composite_gauss_legendre(-1.5, 2.5, 16, 32)
        assert float(w.sum()) == pytest.approx(4.0, rel=1e-14)
        assert nodes.min() > -1.5 and nodes.max() < 2.5
