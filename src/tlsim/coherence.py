"""Spatial (Gaussian Schell-model) and spectral averaging, fringe metrics,
and the derived scans (coherence sweep, wavelength resonance, focusing
contrast).

The per-source complex fields do not depend on sigma_I.  A z row evaluates
once the fields that several of its scenarios share, keyed by the scenario
with sigma_I set aside, so sweeping the coherence width, on a spectral line
too, costs only the quadratic form, not new propagator work.  The form
contracts G = kappa . F over the sources as BLAS matmuls of a shape fixed by
S (the block rule of :func:`gsm_average`) and then folds conj(F_i) * G_i over
i: S^2 * nx multiply-adds in O(S * nx) memory, never an S x S x nx product.

Both gratings are centred, so a line's source at -s gives at x the field
its source at s gives at -x.  :func:`source_field_matrix` evaluates a whole
line with one field call on the samples x followed by -x, whose batch of
source points holds each mirror pair once; the mirror rule of
``superposition`` evaluates each distinct value once, and x_s = 0 reads |x|.

The spectral average of a point or paraxial source takes one field call per
row for its whole band (the ``lam`` override of ``superposition``), whose
rows equal the one-wavelength calls bit for bit.  A GSM line takes one
``Scenario.with_wavelength`` copy per wavelength, so that a row holds one
(S, nx) field matrix at a time and its sigma_I sweep shares each one; the
wavelength scan evaluates one copy per wavelength too.

One evaluator, :func:`evaluate_densities`, serves field grids, sweeps, sets
of planes and ``tlsim scan --fields``: it runs row blocks (x columns, cut
in |x| order, when the rows are fewer than both 2 workers and nx) in the
process pool of ``parallel``.  Every kernel here sums in an order fixed by
the geometry and S, not by the samples, so the joined chunks equal the
whole array bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import COHERENT_SIGMA, DomainError, SourceSpec, SpectralSpec, centered_axis
from .parallel import default_workers, map_chunks
from .propagators import _LATTICE_ULPS, _as_row, reduce_paths
from .scenario import Scenario, apply_sweep_value
from .superposition import density, superpose_behind, superpose_between

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Samples per block of the GSM contraction G = kappa . F (see the block rule
# of gsm_average).  Widths from 8 to 256 time alike at S = 33; below 8 the
# per-block matmul call shows.  The smallest such width pads a short call
# least: a single sample costs 8 samples' multiply-adds.
_GSM_BLOCK = 8


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

    p = sum_i conj(F_i) * G_i with G = kappa . F.  The fields are padded
    with zeros to whole blocks of _GSM_BLOCK samples, each block is viewed
    as real (S, 2 _GSM_BLOCK) values (re and im interleaved; kappa is real)
    and one batched matmul multiplies the (S, S) kernel into every block.
    The S products conj(F_i) * G_i are folded by ``reduce_paths``.  That is
    S^2 * nx kernel terms in O(S * nx) memory.

    Block rule: every matmul has the shape (S, S) @ (S, 2 _GSM_BLOCK), fixed
    by S alone, so the same BLAS kernel rounds each entry from its own
    column of the block.  A sample's bits do not depend on how many samples
    share its row, chunk or block, or where in the block it sits, nor on
    the BLAS thread count; a single sample, a column slice or a chunk of a
    row is bit-identical to the whole row.  The imaginary part is kept from
    the full, unsymmetrised product, so its size measures the round-off of
    the form.
    """
    F = np.asarray(psi_per_source, dtype=complex)
    S = len(source.x_positions)
    if F.ndim not in (1, 2) or F.shape[0] != S:
        raise DomainError(f"need one field per source, shape (S,) or (S, nx): "
                          f"got shape {F.shape}, {S} sources")
    nx = F.size // S
    n_blk = -(-nx // _GSM_BLOCK)
    Fv = np.zeros((S, 2 * n_blk * _GSM_BLOCK))
    Fv.view(complex)[:, :nx] = F.reshape(S, nx)
    G = np.empty_like(Fv)
    blocks = (S, n_blk, 2 * _GSM_BLOCK)
    np.matmul(_kappa(source), Fv.reshape(blocks).transpose(1, 0, 2),
              out=G.reshape(blocks).transpose(1, 0, 2))
    fr, fi = Fv[:, 0:2 * nx:2], Fv[:, 1:2 * nx:2]
    gr, gi = G[:, 0:2 * nx:2], G[:, 1:2 * nx:2]
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


def field_at(scn: Scenario, x: np.ndarray, z: float, *,
             x_s: float | np.ndarray | None = None, lam=None):
    """Complex superposed field at height z of the source point ``x_s`` (by
    default the scenario's single or paraxial one) or, one row each, of a
    1-D batch of source points, at the scenario's wavelength or, one row
    each, at the wavelengths ``lam``.  The form follows z and the region: the
    z == z1 row is behind G1 only in a scenario restricted to that region.
    """
    between = scn.region == "between" or (scn.region == "full" and z <= scn.z1)
    superpose = superpose_between if between else superpose_behind
    return superpose(scn, x, z, x_s=x_s, lam=lam)


def source_field_matrix(scn: Scenario, x, z: float) -> np.ndarray:
    """Per-source complex fields, shape (S, nx), or (S,) at a scalar x.

    Position i pairs with S-1-i when their sum is within _LATTICE_ULPS ulps
    of the largest |x_s| (a line stepped from its lower end misses exact
    antisymmetry by about an ulp).  One ``field_at`` call on x followed by
    0.0 - x (no -0.0) takes every position but the smaller member of each
    pair: a position reads its own field from the first half, and its
    partner's from the second.
    """
    xr, scalar = _as_row(x)
    xs = np.array(scn.source.x_positions)
    tol = _LATTICE_ULPS * np.spacing(np.abs(xs).max())
    paired = (xs != xs[::-1]) & (np.abs(xs + xs[::-1]) <= tol)
    own = ~paired | (xs > xs[::-1])
    rows = field_at(scn, np.concatenate([xr, 0.0 - xr]), z, x_s=xs[own])
    F = np.empty((len(xs), xr.size), dtype=complex)
    F[own] = rows[:, :xr.size]
    F[~own] = rows[(np.cumsum(own) - 1)[::-1][~own], xr.size:]
    return F[:, 0] if scalar else F


def _fields_key(scn: Scenario) -> Scenario:
    """The key of a GSM line's per-source fields: the scenario with sigma_I
    set aside."""
    return dataclasses.replace(scn, source=dataclasses.replace(scn.source, sigma_I=COHERENT_SIGMA))


def _per_wavelength(scn: Scenario) -> list[Scenario]:
    """One scenario per wavelength of the spectrum, or the scenario itself."""
    spec = scn.source.spectral
    return [scn] if spec is None else [scn.with_wavelength(lam) for lam in spec.lambda_list]


def density_profile(scn: Scenario, x: np.ndarray, z: float, F: np.ndarray | None = None) -> np.ndarray:
    """Density at one z for the scenario's source model (point, line, or GSM),
    at the scenario's single wavelength.  A GSM line averages its per-source
    fields ``F`` (:func:`source_field_matrix` on x at z), evaluated here when
    none are given."""
    if not scn.source.gsm:
        return density(field_at(scn, x, z))
    return gsm_average(source_field_matrix(scn, x, z) if F is None else F, scn.source)


def spectral_density_profile(scn: Scenario, x: np.ndarray, z: float,
                             fields: dict | None = None) -> np.ndarray:
    """Density at one z including the scenario's spectral average, if any,
    averaged incoherently over the spectrum's wavelengths.  A point or
    paraxial source evaluates the whole band in one field call; a GSM line
    takes one scenario per wavelength, each with its per-source fields from
    ``fields`` by :func:`_fields_key`, if there."""
    spec = scn.source.spectral
    if spec is not None and not scn.source.gsm:
        stack = density(field_at(scn, x, z, lam=np.array(spec.lambda_list)))
    else:
        stack = [density_profile(w, x, z, fields.get(_fields_key(w)) if fields else None)
                 for w in _per_wavelength(scn)]
    return stack[0] if spec is None else spectral_average(stack, gaussian_spectral_weights(spec))


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


def _density_chunk(scenarios, x: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The densities of :func:`evaluate_densities` on one chunk of samples.

    A row first evaluates the per-source fields whose key two or more
    (scenario, wavelength) pairs of the chunk share, and frees them at its end."""
    uses = Counter(_fields_key(w) for s in scenarios for w in _per_wavelength(s) if w.source.gsm)
    out = np.empty((len(scenarios), len(zs), len(x)))
    for j, z in enumerate(zs.tolist()):
        fields = {key: source_field_matrix(key, x, z) for key, n in uses.items() if n > 1}
        for i, s in enumerate(scenarios):
            out[i, j] = spectral_density_profile(s, x, z, fields)
        del fields  # before the next row evaluates its own
    return out


def _mirror_pair_columns(x: np.ndarray, n: int) -> list[np.ndarray]:
    """The indices of x in min(n, distinct |x|) chunks of about equal size,
    cut in |x| order, so that every mirror pair x, -x lands in one chunk."""
    distinct, group = np.unique(np.abs(x), return_inverse=True)
    parts = np.array_split(np.arange(len(distinct)), min(n, len(distinct)))
    chunk = np.searchsorted([p[0] for p in parts[1:]], group, side="right")
    return [np.flatnonzero(chunk == k) for k in range(len(parts))]


def evaluate_densities(scenarios, x, zs, workers: int | None = None) -> np.ndarray:
    """The spectral density of each scenario at each z of the 1-D ``zs`` on
    the samples x, shape (len(scenarios), len(zs), len(x)), or
    (len(scenarios), len(zs)) at a scalar x, over ``workers`` processes
    (default: the CPU count).

    The chunks depend on (nz, x, workers) alone: ``min(nz, 4 workers)``
    row blocks, or up to ``workers`` x columns when the rows are fewer than
    both 2 workers and nx (a sweep's one plane, fig16's three, fig17's
    two).  Columns are cut in |x| order, so every mirror pair x, -x lands
    in one chunk and a self-mirror row evaluates each |x| once (the mirror
    rule of ``superposition``).  The result is bit-identical for any split
    and worker count.  In a row, scenarios that differ only in sigma_I
    share fields, spectral or not.
    """
    workers = default_workers(workers)
    x, scalar = _as_row(x)
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 1:
        raise DomainError(f"zs must be a 1-D array, got shape {zs.shape}")
    if len(zs) >= min(len(x), 2 * workers):
        chunks = [(scenarios, x, zc) for zc in np.array_split(zs, min(len(zs), 4 * workers) or 1)]
        out = np.concatenate(map_chunks(_density_chunk, chunks, workers), axis=1)
    else:
        cols = _mirror_pair_columns(x, workers)
        out = np.empty((len(scenarios), len(zs), len(x)))
        for c, part in zip(cols, map_chunks(_density_chunk, [(scenarios, x[c], zs) for c in cols],
                                            workers)):
            out[:, :, c] = part
    return out[..., 0] if scalar else out


def sweep_profiles(scn: Scenario, param: str, values, x: np.ndarray, z: float,
                   workers: int | None = None) -> list[tuple[Scenario, np.ndarray]]:
    """(swept scenario, spectral density at z) per value of one parameter,
    from :func:`evaluate_densities`.  Every value is applied (so validated)
    before any field is evaluated."""
    scenarios = [apply_sweep_value(scn, param, v) for v in values]
    if not scenarios:
        raise DomainError(f"{param} sweep values must not be empty")
    return list(zip(scenarios, evaluate_densities(scenarios, x, [z], workers)[:, 0]))


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
