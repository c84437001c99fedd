"""Spatial (Gaussian Schell-model) and spectral averaging, fringe metrics,
and the derived scans (coherence sweep, wavelength resonance, focusing
contrast).

The per-source complex fields are computed once per detector point and then
combined through the S x S coherence kernel, so sweeping the coherence width
costs only the quadratic form, not new propagator work.  The form contracts
G = kappa . F over the sources in index order and then folds conj(F_i) * G_i
over i: S^2 * nx multiply-adds in O(S * nx) memory, never an S x S x nx
product.

The scenario alone carries the wavelength: the spectral average and the
wavelength scan evaluate one ``Scenario.with_wavelength`` copy per wavelength.

A sweep splits its x samples into contiguous column chunks, one per worker,
and runs the serial sweep on each chunk in the process pool of ``parallel``
(reused within a process; its workers see the module state as of their
fork).  Every kernel here sums in an order fixed by the geometry and S, not
by the samples, so the joined columns equal the whole row bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, SourceSpec, SpectralSpec, centered_axis
from .parallel import default_workers, map_chunks
from .propagators import reduce_paths
from .scenario import Scenario, apply_sweep_value
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
    (sigma -> 0) limits finite; sigma_I = inf gives exactly 1/sqrt(2 pi).
    """
    xs = np.asarray(source.x_positions)
    dx = xs[:, None] - xs[None, :]
    return np.exp(-(dx * dx) / (2.0 * source.sigma_I * source.sigma_I)) / _SQRT_2PI


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
    in O(S * nx) memory.  No BLAS: a product over this form would have nx
    in its shape, and BLAS picks its kernel and order by shape.  (The
    behind-G1 contraction calls BLAS only at shapes fixed by the slit
    lattices.)  Every order here depends on S alone, so a single sample, a
    column slice or a chunk of a row is bit-identical to the whole row.
    The imaginary part is kept from the full, unsymmetrised product, so its
    size measures the round-off of the form.
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
    """Gaussian weights of the spectrum's wavelengths, renormalized to sum to 1.

    The exponent is taken relative to its smallest value, so the nearest
    wavelength has weight 1 before the renormalization and a band far narrower
    than the list's spacing falls on that wavelength instead of underflowing.
    """
    lams = np.asarray(spec.lambda_list, dtype=float)
    e = (lams - spec.mean_lambda) ** 2
    w = np.exp(-(e - e.min()) / (2.0 * spec.sigma_g * spec.sigma_g))
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


def field_at(scn: Scenario, x: np.ndarray, z: float, *, x_s: float | None = None):
    """Complex superposed field of one source point at height z.

    Picks the between/behind form from z relative to the G1 plane and the
    scenario region (the z == z1 row belongs to the behind form only when the
    scenario is restricted to the behind region).
    """
    between = scn.region == "between" or (scn.region == "full" and z <= scn.z1)
    superpose = superpose_between if between else superpose_behind
    return superpose(scn, x, z, x_s=x_s)


def source_field_matrix(scn: Scenario, x: np.ndarray, z: float) -> np.ndarray:
    """Per-source complex fields, shape (S, nx)."""
    return np.stack([field_at(scn, x, z, x_s=xs) for xs in scn.source.x_positions])


def density_profile(scn: Scenario, x: np.ndarray, z: float) -> np.ndarray:
    """Density at one z for the scenario's source model (point, line, or GSM),
    at the scenario's single wavelength."""
    if scn.source.gsm:
        return gsm_average(source_field_matrix(scn, x, z), scn.source)
    return density(field_at(scn, x, z))


def spectral_density_profile(scn: Scenario, x: np.ndarray, z: float) -> np.ndarray:
    """Density at one z including the scenario's spectral average, if any:
    one scenario per wavelength of the spectrum, averaged incoherently."""
    spec = scn.source.spectral
    if spec is None:
        return density_profile(scn, x, z)
    stack = [density_profile(scn.with_wavelength(lam), x, z) for lam in spec.lambda_list]
    return spectral_average(stack, gaussian_spectral_weights(spec))


def talbot_plane(scn: Scenario) -> float:
    """The fringe-metrics plane z0 + z_T, one Talbot length behind grating 0."""
    return scn.z0 + scn.z_talbot


def resonance_plane(scn: Scenario) -> float:
    """The resonance detector plane z0 + 2 (z1 - z0)."""
    return scn.z0 + 2.0 * (scn.z1 - scn.z0)


def talbot_section(scn: Scenario, samples: int) -> tuple[np.ndarray, float]:
    """The fringe-metrics cross-section: G1's slit span at the Talbot plane."""
    z = scn.check_in_region("Talbot plane z0 + z_T", talbot_plane(scn))
    return centered_axis(*scn.metrics_window(), samples), z


def _sweep_columns(scn: Scenario, param: str, scenarios, x: np.ndarray, z: float) -> list[np.ndarray]:
    """The spectral density at z of each swept scenario, on the samples x.
    A sigma_I sweep of a monochromatic GSM source evaluates its fields once
    and re-runs only the quadratic form: the fields do not depend on sigma_I."""
    if param == "sigma_I" and scn.source.spectral is None:
        F = source_field_matrix(scn, x, z)
        return [gsm_average(F, s.source) for s in scenarios]
    return [spectral_density_profile(s, x, z) for s in scenarios]


def sweep_profiles(scn: Scenario, param: str, values, x: np.ndarray, z: float,
                   workers: int | None = None) -> list[tuple[Scenario, np.ndarray]]:
    """(swept scenario, spectral density at z) per value of one parameter.

    Every value is applied (so validated) before any field is evaluated.
    The x samples are split into ``min(len(x), workers)`` contiguous chunks
    (``workers`` defaults to the CPU count), evaluated in the process pool
    and joined; the result is bit-identical for any worker count.
    """
    scenarios = [apply_sweep_value(scn, param, v) for v in values]
    if not scenarios:
        raise DomainError(f"{param} sweep values must not be empty")
    workers = default_workers(workers)
    x = np.asarray(x, dtype=float)
    chunks = [(scn, param, scenarios, xc, z) for xc in np.array_split(x, min(len(x), workers) or 1)]
    parts = map_chunks(_sweep_columns, chunks, workers)
    return [(s, np.concatenate([part[i] for part in parts])) for i, s in enumerate(scenarios)]


def coherence_sweep(scn: Scenario, sigma_list, *, samples: int = 2048,
                    workers: int | None = None) -> list[tuple[float, FringeMetrics]]:
    """Fringe metrics at the z = z0 + z_T cross-section per coherence width."""
    x, z = talbot_section(scn, samples)
    return [(s.source.sigma_I, fringe_metrics(p))
            for s, p in sweep_profiles(scn, "sigma_I", sigma_list, x, z, workers)]


def resonance_scan(scn: Scenario, lambda_list, *, samples: int = 1536,
                   workers: int | None = None) -> list[tuple[float, float, float]]:
    """Peak density (emittance) at the resonance detector plane per wavelength.

    Returns (lambda, velocity, p_max) rows.  The geometry stays fixed while
    the wavelength scans across the self-imaging resonance of grating 0.
    """
    z = scn.check_in_region("resonance plane z0 + 2 (z1 - z0)", resonance_plane(scn))
    x = centered_axis(*scn.metrics_window(), samples)
    profiles = sweep_profiles(scn, "lambda", lambda_list, x, z, workers)
    return [(s.lam, s.particle.v_z, fringe_metrics(p).p_max) for s, p in profiles]


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
