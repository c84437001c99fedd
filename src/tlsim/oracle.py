"""Brute-force quadrature of the two-slit path integral.

This is the validation oracle for the closed-form propagators: it integrates
the product of free-particle kernels against the slit form factors directly,
never touching the Sigma/Xi/D machinery.  The only shared ingredients are the
free kernel itself and the form-factor definitions.

The integrand is a chirped Gaussian, so composite Gauss-Legendre panels
converge fast; the node count is doubled until two successive evaluations
agree to ``rel_tol``.  The raw integral is finally multiplied by
sqrt(2*pi*i*hbar*T/m), which moves it into the same normalization the closed
forms use (they keep 1/D and drop the source-distance radical).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import HBAR, DomainError, GratingSpec, Particle, is_paraxial
from .propagators import PathContext, comb_form_factor, free_kernel, gaussian_slit


class OracleConvergenceError(RuntimeError):
    """Quadrature failed to self-converge within the node budget."""


def closed_gaussian_integral(alpha: complex, beta: complex, gamma: complex) -> complex:
    """Closed form of integral(exp(alpha*x^2 + beta*x + gamma)) over the real line."""
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    return complex(np.sqrt(math.pi / (-alpha)) * np.exp(-beta * beta / (4.0 * alpha) + gamma))


@lru_cache(maxsize=8)
def _base_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def composite_gauss_legendre(
    a: float, b: float, panels: int, order: int = 32
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an ``order``-point Gauss-Legendre rule on each of
    ``panels`` equal panels spanning [a, b]."""
    base_x, base_w = _base_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def _aperture1(ctx: PathContext, model: str):
    g1 = ctx.grating1
    if model == "fuzzy":
        return lambda xi: gaussian_slit(xi, g1.half_width)
    if model == "comb":
        return lambda xi: comb_form_factor(xi, g1.half_width, g1.comb_eta, g1.comb_k or 1)
    raise DomainError(f"aperture_model must be 'fuzzy' or 'comb', got {model!r}")


def _raw_between(ctx: PathContext, x: float, z: float, panels: int, window: float) -> complex:
    z0 = ctx.grating0.z_pos
    v = ctx.particle.v_z
    t0 = (z0 - ctx.z_s) / v
    t1 = t0 + (z - z0) / v
    b0 = ctx.grating0.half_width
    xi0, w0 = composite_gauss_legendre(-window * b0, window * b0, panels)
    f = (
        gaussian_slit(xi0, b0)
        * free_kernel(x, t1, ctx.x0 + xi0, t0, ctx.particle)
        * free_kernel(ctx.x0 + xi0, t0, ctx.x_s, 0.0, ctx.particle)
    )
    return complex(np.sum(w0 * f))


def _raw_behind(
    ctx: PathContext, x: float, z: float, panels: int, window: float, model: str
) -> complex:
    z0, z1 = ctx.grating0.z_pos, ctx.grating1.z_pos
    v = ctx.particle.v_z
    t0 = (z0 - ctx.z_s) / v
    t1 = t0 + (z1 - z0) / v
    t2 = t1 + (z - z1) / v
    b0, b1 = ctx.grating0.half_width, ctx.grating1.half_width
    xi0, w0 = composite_gauss_legendre(-window * b0, window * b0, panels)
    xi1, w1 = composite_gauss_legendre(-window * b1, window * b1, panels)
    aperture = _aperture1(ctx, model)

    src = w0 * gaussian_slit(xi0, b0) * free_kernel(ctx.x0 + xi0, t0, ctx.x_s, 0.0, ctx.particle)
    out = w1 * aperture(xi1) * free_kernel(x, t2, ctx.x1 + xi1, t1, ctx.particle)

    total = 0.0 + 0.0j
    chunk = max(1, (1 << 21) // max(1, xi0.size))  # bound the (chunk, n0) matrix
    for lo in range(0, xi1.size, chunk):
        hi = min(lo + chunk, xi1.size)
        mid = free_kernel(
            (ctx.x1 + xi1[lo:hi])[:, None], t1, (ctx.x0 + xi0)[None, :], t0, ctx.particle
        )
        total += np.sum(out[lo:hi] * (mid @ src))
    return complex(total)


def quadrature_oracle(
    ctx: PathContext,
    x: float,
    z: float,
    aperture_model: str = "fuzzy",
    *,
    window: float = 8.0,
    rel_tol: float = 1e-8,
    max_panels: int = 512,
) -> complex:
    """Direct numerical quadrature of the slit path integral at one point.

    Returns a value directly comparable with ``between_row`` (one slit,
    ``ctx.x1 is None``), psi_behind and psi_hard_edge (see module docstring
    for the normalization).  A point on or before the last grating plane
    crossed raises DomainError from the free kernel.  Doubles the count of
    32-point panels until two successive results agree to ``rel_tol`` relative.
    """
    if is_paraxial(ctx.z_s):
        raise DomainError("the quadrature oracle needs a finite source distance")
    if window < 6.0:
        raise DomainError(f"integration window must be >= 6 half-widths, got {window}")
    between = ctx.x1 is None
    if between and aperture_model == "comb":
        raise DomainError("comb aperture applies to grating 1 only")

    z0 = ctx.grating0.z_pos
    T = (z0 - ctx.z_s) / ctx.particle.v_z
    norm = complex(np.sqrt(2j * math.pi * HBAR * T / ctx.particle.mass))

    prev: complex | None = None
    panels = 2
    while panels <= max_panels:
        if between:
            val = _raw_between(ctx, x, z, panels, window)
        else:
            val = _raw_behind(ctx, x, z, panels, window, aperture_model)
        if prev is not None:
            scale = max(abs(val), 1e-300)
            if abs(val - prev) <= rel_tol * scale:
                return norm * val
        prev = val
        panels *= 2
    raise OracleConvergenceError(
        f"quadrature did not converge to {rel_tol} within {max_panels} panels/axis"
    )


def random_oracle_case(rng, hard: bool = False) -> tuple[PathContext, float, float]:
    """One randomized behind-G1 configuration at the working scale.

    Wavelengths 3-8 pm, half-widths 20-100 nm, source 0.3-1 m before G0,
    grating separation 2-8 cm, detector 0.25-1.2 separations past G1.  The
    detector point is drawn inside the diffraction cone of the slit pair
    (around the ballistic ray, within a few diffraction widths) so the field
    is non-negligible there; outside the cone the finite aperture window puts
    a hard floor under any quadrature and a relative comparison is
    meaningless.  Used by both the acceptance suite and the ``oracle-check``
    CLI command.
    """
    lam = rng.uniform(3e-12, 8e-12)
    b0 = rng.uniform(20e-9, 100e-9)
    b1 = rng.uniform(20e-9, 100e-9)
    z1 = rng.uniform(0.02, 0.08)
    z_s = -rng.uniform(0.3, 1.0)
    z = z1 + rng.uniform(0.25, 1.2) * z1
    x0 = rng.uniform(-1e-6, 1e-6)
    x1 = rng.uniform(-1e-6, 1e-6)
    x_s = rng.uniform(-2e-6, 2e-6)
    ray = x1 + (x1 - x0) / z1 * (z - z1)
    width = max(b1, (z - z1) * lam / (math.pi * b1))
    x = ray + rng.uniform(-2.0, 2.0) * width
    comb_k, comb_eta = None, 1.0  # fuzzy slits unless ``hard``
    if hard:
        comb_k = int(rng.choice([2, 4]))
        comb_eta = float(rng.uniform(0.5, 1.5))
    g0 = GratingSpec(n_slits=1, pitch=max(500e-9, 2.5 * b0), half_width=b0, z_pos=0.0)
    g1 = GratingSpec(
        n_slits=1, pitch=max(500e-9, 2.5 * b1), half_width=b1, z_pos=z1,
        comb_k=comb_k, comb_eta=comb_eta,
    )
    particle = Particle(mass=1.2e-24, lambda_dB=lam)
    ctx = PathContext(
        particle=particle, grating0=g0, grating1=g1, x_s=x_s, z_s=z_s, x0=x0, x1=x1
    )
    return ctx, float(x), float(z)
