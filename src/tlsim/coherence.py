"""Spatial (Gaussian Schell-model) and spectral averaging, fringe metrics,
and the derived scans (coherence sweep, wavelength resonance, focusing
contrast).

The per-source complex fields are computed once per detector point and then
combined through the S x S coherence kernel, so sweeping the coherence width
costs only the quadratic form, not new propagator work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import COHERENT_SIGMA, DomainError, centered_axis
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


@dataclass(frozen=True)
class CoherenceKernelSpec:
    """Source x-positions with the effective spatial-coherence width sigma_I."""

    sigma_I: float
    x_positions: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (self.sigma_I > 0.0):
            raise DomainError(f"sigma_I must be positive (inf = coherent), got {self.sigma_I}")
        if len(self.x_positions) == 0:
            raise DomainError("kernel needs at least one source position")
        xs = self.x_positions
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("source positions must be strictly increasing")

    def scaled_matrix(self) -> np.ndarray:
        """sigma_I * mu(x', x'') as an S x S matrix.

        Equals exp(-(x'-x'')^2 / (2 sigma_I^2)) / sqrt(2 pi); the sigma_I
        prefactor of the averaging formula cancels the kernel normalization,
        which is what makes the coherent (sigma -> inf) and incoherent
        (sigma -> 0) limits finite.
        """
        xs = np.asarray(self.x_positions)
        dx = xs[:, None] - xs[None, :]
        if self.sigma_I == COHERENT_SIGMA:
            arg = np.zeros_like(dx)
        else:
            arg = (dx * dx) / (2.0 * self.sigma_I * self.sigma_I)
        return np.exp(-arg) / _SQRT_2PI


def gsm_average(psi_per_source: np.ndarray, spec: CoherenceKernelSpec):
    """Partially coherent density from per-source complex fields.

    ``psi_per_source`` has shape (S,) or (S, nx): one complex field value per
    source position.  Returns the real non-negative density (scalar or
    length-nx array).  A tiny negative excursion from round-off is clamped to
    zero; anything beyond 1e-12 of the incoherent level raises.
    """
    F = np.atleast_2d(np.asarray(psi_per_source, dtype=complex))
    S = len(spec.x_positions)
    if F.shape[0] != S:
        raise DomainError(f"need one field per source: got {F.shape[0]} fields, {S} sources")
    kappa = spec.scaled_matrix()
    prod = (np.conj(F)[:, None, :] * F[None, :, :]) * kappa[:, :, None]
    total = reduce_paths(prod.reshape(S * S, -1))

    diag = np.add.reduce((F.real**2 + F.imag**2), axis=0) / _SQRT_2PI
    tol = 1e-12 * np.maximum(diag, 1e-300)
    if np.any(np.abs(total.imag) > tol):
        raise CoherenceConsistencyError("GSM quadratic form has a non-negligible imaginary part")
    p = total.real
    if np.any(p < -tol):
        raise CoherenceConsistencyError("GSM quadratic form went significantly negative")
    p = np.where(p < 0.0, 0.0, p)
    return float(p[0]) if np.ndim(psi_per_source) == 1 else p


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


def gaussian_spectral_weights(lambda_list, mean_lambda: float, sigma_g: float) -> np.ndarray:
    """Gaussian wavelength weights renormalized to sum to 1."""
    lams = np.asarray(lambda_list, dtype=float)
    if lams.size == 0:
        raise DomainError("lambda_list must not be empty")
    if np.any(lams <= 0.0):
        raise DomainError("wavelengths must be positive")
    if not (sigma_g > 0.0):
        raise DomainError(f"sigma_g must be positive, got {sigma_g}")
    w = np.exp(-((lams - mean_lambda) ** 2) / (2.0 * sigma_g * sigma_g))
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
        spec = CoherenceKernelSpec(sigma_I=scn.source.sigma_I, x_positions=scn.source.x_positions)
        return gsm_average(source_field_matrix(scn, x, z, lam=lam), spec)
    return density(field_at(scn, x, z, lam=lam))


def spectral_density_profile(scn: Scenario, x: np.ndarray, z: float) -> np.ndarray:
    """Density at one z including the scenario's spectral average, if any."""
    spec = scn.source.spectral
    if spec is None:
        return density_profile(scn, x, z)
    w = gaussian_spectral_weights(spec.lambda_list, spec.mean_lambda, spec.sigma_g)
    stack = [density_profile(scn, x, z, lam=lam) for lam in spec.lambda_list]
    return spectral_average(stack, w)


def coherence_sweep(
    scn: Scenario,
    sigma_list,
    *,
    z: float | None = None,
    x: np.ndarray | None = None,
    samples: int = 2048,
) -> list[tuple[float, FringeMetrics]]:
    """Fringe metrics at the z = z_T cross-section per coherence width.

    The per-source fields are evaluated once; each sigma_I only re-runs the
    kernel quadratic form.
    """
    sigmas = [float(s) for s in sigma_list]
    if len(sigmas) == 0:
        raise DomainError("sigma_I list must not be empty")
    if any(s <= 0.0 for s in sigmas):
        raise DomainError("sigma_I values must be positive")
    if z is None:
        z = scn.z0 + scn.z_talbot
    if x is None:
        lo, hi = scn.metrics_window()
        x = centered_axis(lo, hi, samples)
    F = source_field_matrix(scn, x, z)
    out = []
    for s in sigmas:
        spec = CoherenceKernelSpec(sigma_I=s, x_positions=scn.source.x_positions)
        out.append((s, fringe_metrics(gsm_average(F, spec))))
    return out


def resonance_scan(
    scn: Scenario,
    lambda_list,
    *,
    detector_z: float | None = None,
    x: np.ndarray | None = None,
    samples: int = 1536,
) -> list[tuple[float, float, float]]:
    """Peak density (emittance) at the detector plane per wavelength.

    Returns (lambda, velocity, p_max) rows.  The geometry stays fixed while
    the wavelength scans across the self-imaging resonance of grating 0.
    """
    lams = [float(v) for v in lambda_list]
    if len(lams) == 0:
        raise DomainError("lambda list must not be empty")
    if detector_z is None:
        detector_z = scn.z0 + 2.0 * (scn.z1 - scn.z0)
    if x is None:
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
