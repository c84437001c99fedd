"""Spatial (Gaussian Schell-model) and spectral averaging, fringe metrics,
and the derived scans (coherence sweep, wavelength resonance, focusing
contrast).

The per-source complex fields are computed once per detector point and then
combined through the S x S coherence kernel, so sweeping the coherence width
costs only the quadratic form, not new propagator work.  The form contracts
G = kappa . F over the sources in index order and then folds conj(F_i) * G_i
over i: S^2 * nx multiply-adds in O(S * nx) memory, never an S x S x nx
product.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import COHERENT_SIGMA, DomainError, SourceSpec, SpectralSpec, centered_axis
from .propagators import reduce_paths
from .scenario import Scenario
from .superposition import density, superpose_behind, superpose_between

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class CoherenceConsistencyError(RuntimeError):
    """The GSM quadratic form produced a significantly non-real/negative value."""


@dataclass(frozen=True)
class FringeMetrics:
    """Pedestal, peak and visibility of one density cross-section."""

    p_min: float
    p_max: float
    visibility: float


def _kappa(source: SourceSpec) -> np.ndarray:
    """sigma_I * mu(x', x'') over the source positions, an S x S matrix.

    Equals exp(-(x'-x'')^2 / (2 sigma_I^2)) / sqrt(2 pi); the sigma_I
    prefactor of the averaging formula cancels the kernel normalization,
    which is what makes the coherent (sigma -> inf) and incoherent
    (sigma -> 0) limits finite.
    """
    xs = np.asarray(source.x_positions)
    dx = xs[:, None] - xs[None, :]
    if source.sigma_I == COHERENT_SIGMA:
        arg = np.zeros_like(dx)
    else:
        arg = (dx * dx) / (2.0 * source.sigma_I * source.sigma_I)
    return np.exp(-arg) / _SQRT_2PI


def gsm_average(psi_per_source: np.ndarray, source: SourceSpec):
    """Partially coherent density from per-source complex fields.

    ``psi_per_source`` has shape (S,) or (S, nx): one complex field value per
    position of ``source``, whose ``sigma_I`` sets the kernel width.  Returns
    the real non-negative density (scalar or length-nx array).  A tiny
    negative excursion from round-off is clamped to zero; anything beyond
    1e-12 of the incoherent level raises.

    p = sum_i conj(F_i) * G_i with G = kappa . F.  G is accumulated over the
    sources j in index order, one elementwise pass per j over the (S, 2 nx)
    real view of the fields (re and im interleaved; kappa is real), and the S
    products are folded by ``reduce_paths``.  That is S^2 * nx kernel terms
    in O(S * nx) memory.  No BLAS: its accumulation order may
    depend on nx, and every order here depends on S alone, so a single
    sample, a column slice or a chunk of a row is bit-identical to the whole
    row.  The imaginary part is kept from the full, unsymmetrised product, so
    its size measures the round-off of the form.
    """
    F = np.asarray(psi_per_source, dtype=complex)
    S = len(source.x_positions)
    if F.ndim not in (1, 2) or F.shape[0] != S:
        raise DomainError(f"need one field per source, shape (S,) or (S, nx): "
                          f"got shape {F.shape}, {S} sources")
    Fv = np.ascontiguousarray(F.reshape(S, -1)).view(float)
    kappa = _kappa(source)
    G = kappa[:, 0, None] * Fv[0]
    term = np.empty_like(G)
    for j in range(1, S):
        G += np.multiply(kappa[:, j, None], Fv[j], out=term)
    fr, fi = Fv[:, 0::2], Fv[:, 1::2]
    gr, gi = G[:, 0::2], G[:, 1::2]
    re = reduce_paths(fr * gr + fi * gi)
    im = reduce_paths(fr * gi - fi * gr)

    diag = np.add.reduce(fr * fr + fi * fi, axis=0) / _SQRT_2PI
    tol = 1e-12 * np.maximum(diag, 1e-300)
    if np.any(np.abs(im) > tol):
        raise CoherenceConsistencyError("GSM quadratic form has a non-negligible imaginary part")
    if np.any(re < -tol):
        raise CoherenceConsistencyError("GSM quadratic form went significantly negative")
    p = np.where(re < 0.0, 0.0, re)
    return float(p[0]) if F.ndim == 1 else p


def fringe_metrics(profile_values) -> FringeMetrics:
    """Global extrema and visibility of a non-negative density profile."""
    p = np.asarray(profile_values, dtype=float)
    if p.size == 0:
        raise DomainError("profile must not be empty")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise DomainError("profile values must be finite and non-negative")
    p_min = float(p.min())
    p_max = float(p.max())
    vis = 0.0 if p_max == 0.0 else (p_max - p_min) / (p_max + p_min)
    return FringeMetrics(p_min=p_min, p_max=p_max, visibility=vis)


def gaussian_spectral_weights(spec: SpectralSpec) -> np.ndarray:
    """Gaussian weights of the spectrum's wavelengths, renormalized to sum to 1."""
    lams = np.asarray(spec.lambda_list, dtype=float)
    w = np.exp(-((lams - spec.mean_lambda) ** 2) / (2.0 * spec.sigma_g * spec.sigma_g))
    return w / w.sum()


def spectral_average(densities, weights) -> np.ndarray:
    """Incoherent (intensity) average of per-wavelength densities."""
    stack = np.asarray(densities, dtype=float)
    w = np.asarray(weights, dtype=float)
    if stack.shape[0] == 0:
        raise DomainError("no densities to average")
    if w.shape[0] != stack.shape[0]:
        raise DomainError(f"{stack.shape[0]} densities but {w.shape[0]} weights")
    out = np.zeros(stack.shape[1:], dtype=float)
    for wi, di in zip(w, stack):
        out += wi * di
    return out


# ---------------------------------------------------------------------------
# Scenario-level drivers.
# ---------------------------------------------------------------------------


def field_at(scn: Scenario, x: np.ndarray, z: float, *, x_s: float | None = None, lam: float | None = None):
    """Complex superposed field of one source point at height z.

    Picks the between/behind form from z relative to the G1 plane and the
    scenario region (the z == z1 row belongs to the behind form only when the
    scenario is restricted to the behind region).
    """
    between = scn.region == "between" or (scn.region == "full" and z <= scn.z1)
    superpose = superpose_between if between else superpose_behind
    return superpose(scn, x, z, x_s=x_s, lam=lam)


def source_field_matrix(scn: Scenario, x: np.ndarray, z: float, *, lam: float | None = None) -> np.ndarray:
    """Per-source complex fields, shape (S, nx)."""
    return np.stack([field_at(scn, x, z, x_s=xs, lam=lam) for xs in scn.source.x_positions])


def density_profile(scn: Scenario, x: np.ndarray, z: float, *, lam: float | None = None) -> np.ndarray:
    """Density at one z for the scenario's source model (point, line, or GSM),
    at a single wavelength."""
    if scn.source.kind == "line" and len(scn.source.x_positions) > 1:
        return gsm_average(source_field_matrix(scn, x, z, lam=lam), scn.source)
    return density(field_at(scn, x, z, lam=lam))


def spectral_density_profile(scn: Scenario, x: np.ndarray, z: float) -> np.ndarray:
    """Density at one z including the scenario's spectral average, if any."""
    spec = scn.source.spectral
    if spec is None:
        return density_profile(scn, x, z)
    w = gaussian_spectral_weights(spec)
    stack = [density_profile(scn, x, z, lam=lam) for lam in spec.lambda_list]
    return spectral_average(stack, w)


def coherence_sweep(scn: Scenario, sigma_list, *, samples: int = 2048) -> list[tuple[float, FringeMetrics]]:
    """Fringe metrics at the z = z_T cross-section per coherence width.

    Every per-sigma source is built (and so validated) first; the per-source
    fields are then evaluated once, and each sigma_I only re-runs the kernel
    quadratic form.
    """
    sources = [dataclasses.replace(scn.source, sigma_I=float(s)) for s in sigma_list]
    if len(sources) == 0:
        raise DomainError("sigma_I list must not be empty")
    lo, hi = scn.metrics_window()
    F = source_field_matrix(scn, centered_axis(lo, hi, samples), scn.z0 + scn.z_talbot)
    return [(src.sigma_I, fringe_metrics(gsm_average(F, src))) for src in sources]


def resonance_scan(scn: Scenario, lambda_list, *, samples: int = 1536) -> list[tuple[float, float, float]]:
    """Peak density (emittance) at the detector plane z0 + 2 (z1 - z0) per
    wavelength.

    Returns (lambda, velocity, p_max) rows.  The geometry stays fixed while
    the wavelength scans across the self-imaging resonance of grating 0.
    """
    lams = [float(v) for v in lambda_list]
    if len(lams) == 0:
        raise DomainError("lambda list must not be empty")
    detector_z = scn.z0 + 2.0 * (scn.z1 - scn.z0)
    lo, hi = scn.metrics_window()
    x = centered_axis(lo, hi, samples)
    rows = []
    for lam in lams:
        scn_l = scn.with_wavelength(lam)
        p = density_profile(scn_l, x, detector_z)
        rows.append((lam, scn_l.particle.v_z, fringe_metrics(p).p_max))
    return rows


def focusing_contrast(profile_a, profile_b):
    """Difference of two density profiles, p(x, z_b) - p(x, z_a).

    Both profiles must share the same x sampling, with z_a < z_b.  Accepts
    any objects carrying ``x``, ``p`` and ``z`` attributes (see
    fieldgrid.Profile) and returns (x, delta_p).
    """
    if profile_b.z <= profile_a.z:
        raise DomainError(f"need z_a < z_b, got z_a={profile_a.z}, z_b={profile_b.z}")
    xa = np.asarray(profile_a.x)
    xb = np.asarray(profile_b.x)
    if xa.shape != xb.shape or not np.array_equal(xa, xb):
        raise DomainError("profiles have mismatched x sampling")
    return xa, np.asarray(profile_b.p, dtype=float) - np.asarray(profile_a.p, dtype=float)
