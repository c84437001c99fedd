import numpy as np
import pytest

from tlsim.core import (
    PARAXIAL_ZS, DomainError, GratingSpec, SourceSpec, centered_axis, slit_positions,
)
from tlsim.propagators import PathContext, psi_behind, psi_between
from tlsim.scenario import Scenario
from tlsim.superposition import density, superpose_behind, superpose_between


def _req(particle, n0=4, n1=3, x_s=0.0, z_s=-0.5, region="full", propagator="standard",
         comb_k=1, comb_eta=1.0):
    g0 = GratingSpec(n0, 500e-9, 37.5e-9, 0.0)
    g1 = GratingSpec(n1, 500e-9, 75e-9, 0.05, comb_k=comb_k, comb_eta=comb_eta)
    src = SourceSpec(kind="point", x_positions=(x_s,), z_s=z_s)
    return Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                    region=region, propagator=propagator)


class TestSuperposeBetween:
    def test_single_slit_equals_path(self, fullerene):
        req = _req(fullerene, n0=1)
        ctx = PathContext(particle=fullerene, grating0=req.grating0, grating1=req.grating1,
                          x_s=0.0, z_s=-0.5, x0=0.0)
        x = np.linspace(-1e-6, 1e-6, 7)
        assert np.array_equal(superpose_between(req, x, 0.02), psi_between(ctx, x, 0.02))

    def test_two_slit_fringes_match_explicit_sum(self, fullerene):
        req = _req(fullerene, n0=2)
        centers = slit_positions(req.grating0)
        x = centered_axis(-2e-6, 2e-6, 401)
        z = 0.03
        total = superpose_between(req, x, z)
        explicit = sum(
            psi_between(
                PathContext(particle=fullerene, grating0=req.grating0,
                            grating1=req.grating1, x_s=0.0, z_s=-0.5, x0=float(c)),
                x, z,
            )
            for c in centers
        )
        assert np.allclose(total, explicit, rtol=1e-12)
        # cos-type modulation: several interior maxima of comparable height
        p = density(total)
        p /= p.max()
        peaks = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]) & (p[1:-1] > 0.1)
        assert int(peaks.sum()) >= 3

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
        for prop, kwargs in (
            ("standard", {}),
            ("hard-edge", {"comb_k": 16, "comb_eta": 1.5}),
        ):
            req = _req(fullerene, n0=32, n1=33, propagator=prop, **kwargs)
            x = centered_axis(-6e-6, 6e-6, 501)
            p = density(superpose_behind(req, x, 0.15))
            assert np.max(np.abs(p - p[::-1])) <= 1e-9 * p.max()

    def test_parity_paraxial(self, fullerene):
        req = _req(fullerene, n0=8, n1=9, z_s=PARAXIAL_ZS, propagator="paraxial")
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
        req = _req(fullerene, n0=5, n1=4, comb_k=3, comb_eta=1.5, propagator="hard-edge")
        x = np.linspace(-2e-6, 2e-6, 9)
        row = superpose_behind(req, x, 0.07)
        for j in (0, 4, 8):
            assert superpose_behind(req, float(x[j]), 0.07) == row[j]

    @pytest.mark.parametrize("n0, n1, x_s, z_s, propagator", [
        (32, 33, 1e-6, -0.5, "standard"),
        (8, 9, 0.0, PARAXIAL_ZS, "paraxial"),
    ])
    def test_scalar_equals_row_factorised(self, fullerene, rng, n0, n1, x_s, z_s, propagator):
        # irregularly spaced samples spanning many x-tiles: no sample's value
        # may depend on the other samples of its row
        req = _req(fullerene, n0=n0, n1=n1, x_s=x_s, z_s=z_s, propagator=propagator)
        x = np.sort(rng.uniform(-6e-6, 6e-6, 61))
        perm = rng.permutation(x.size)
        for z in (0.05, 0.0500001, 0.07, 0.14):
            row = superpose_behind(req, x, z)
            assert all(superpose_behind(req, float(xj), z) == row[j] for j, xj in enumerate(x))
            assert np.array_equal(superpose_behind(req, x[perm], z), row[perm])
            assert np.array_equal(superpose_behind(req, x[::3], z), row[::3])

    def test_region_violation(self, fullerene):
        req = _req(fullerene, region="between")
        with pytest.raises(DomainError):
            superpose_behind(req, 0.0, 0.08)
        req2 = _req(fullerene)
        with pytest.raises(DomainError):
            superpose_behind(req2, 0.0, 0.04)


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
    def test_paraxial_needs_remote_source(self, fullerene):
        with pytest.raises(DomainError):
            _req(fullerene, z_s=-0.5, propagator="paraxial")

    def test_standard_needs_finite_source(self, fullerene):
        with pytest.raises(DomainError):
            _req(fullerene, z_s=PARAXIAL_ZS, propagator="standard")

    def test_g0_comb_rejected(self, fullerene):
        g0 = GratingSpec(2, 500e-9, 37.5e-9, 0.0, comb_k=4)
        g1 = GratingSpec(1, 500e-9, 75e-9, 0.05)
        src = SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)
        with pytest.raises(DomainError):
            Scenario(particle=fullerene, grating0=g0, grating1=g1, source=src)


class TestCallShape:
    @pytest.mark.parametrize("z_s, propagator, comb_k", [
        (-0.5, "standard", 1),
        (PARAXIAL_ZS, "paraxial", 1),
        (-0.5, "hard-edge", 4),
    ])
    def test_lam_keyword_equals_rebuilt_scenario(self, fullerene, z_s, propagator, comb_k):
        scn = _req(fullerene, n0=5, n1=4, x_s=0.0 if propagator == "paraxial" else 1e-6,
                   z_s=z_s, propagator=propagator, comb_k=comb_k, comb_eta=1.5)
        x = np.linspace(-2e-6, 2e-6, 41)
        for lam in (3e-12, 7.25e-12):
            other = scn.with_wavelength(lam)
            for z in (0.05, 0.09):
                assert np.array_equal(superpose_behind(scn, x, z, lam=lam),
                                      superpose_behind(other, x, z))
            assert np.array_equal(superpose_between(scn, x, 0.03, lam=lam),
                                  superpose_between(other, x, 0.03))

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
