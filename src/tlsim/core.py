"""Domain types and geometric helpers for the two-grating simulator.

All lengths are meters, times are seconds, masses are kilograms. Value types
are immutable after construction and every operation here is a pure function,
so everything in this module can be shared freely between worker processes.

The paraxial (plane-wave) limit is a source plane at ``z_s = -inf`` that
flows through every formula as a value: 1/(z0 - z_s) and (x0 - x_s)/(z0 - z_s)
are exact zeros.  Only the real part of ``spreading_sigma`` (inf/inf there),
the validators and the oracle test :func:`is_paraxial`.  A fully coherent
source, ``sigma_I = inf``, likewise has no branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Single source of truth for physical constants; every module derives from
# these two so results agree bit-for-bit.
PLANCK_H = 6.62607015e-34  # J*s
HBAR = PLANCK_H / (2.0 * math.pi)

# Upper bound on slits per grating and on comb terms per G1 slit; keeps the
# per-point superposition cost (N0*N1*K terms) within desk scale.
MAX_SLITS = 4096

PARAXIAL_ZS = float("-inf")

COHERENT_SIGMA = float("inf")  # sigma_I of a fully coherent source


class DomainError(ValueError):
    """Input outside the physical/geometric domain of an operation."""


def is_paraxial(z_s: float) -> bool:
    return z_s == PARAXIAL_ZS


@dataclass(frozen=True)
class Particle:
    """A matter-wave species: mass plus de Broglie wavelength.

    Longitudinal momentum and velocity are derived, not stored, so the
    relation p_z = h / lambda_dB holds exactly by construction.
    """

    mass: float          # kg
    lambda_dB: float     # m

    def __post_init__(self) -> None:
        if not (self.mass > 0.0) or not math.isfinite(self.mass):
            raise DomainError(f"particle mass must be positive, got {self.mass}")
        if not (self.lambda_dB > 0.0) or not math.isfinite(self.lambda_dB):
            raise DomainError(f"de Broglie wavelength must be positive, got {self.lambda_dB}")

    @property
    def p_z(self) -> float:
        """Longitudinal momentum, kg*m/s."""
        return PLANCK_H / self.lambda_dB

    @property
    def v_z(self) -> float:
        """Longitudinal velocity, m/s."""
        return self.p_z / self.mass


def talbot_length(pitch: float, lam: float) -> float:
    """Near-field self-imaging length 2*d^2/lambda of a grating of pitch d."""
    if not (pitch > 0.0):
        raise DomainError(f"pitch must be positive, got {pitch}")
    if not (lam > 0.0):
        raise DomainError(f"wavelength must be positive, got {lam}")
    return 2.0 * pitch * pitch / lam


@dataclass(frozen=True)
class GratingSpec:
    """One diffraction grating: N identical slits on a uniform pitch.

    ``half_width`` is the Gaussian form-factor parameter b (the open window
    spans 2b).  The grating owns its slit model: ``comb_k = None`` is fuzzy
    Gaussian slits, an integer K >= 1 hard-edged slits simulated by a comb of K
    narrow Gaussians tuned by ``comb_eta``, which fuzzy slits leave at 1.0.
    Even at K = 1, eta = 1 the comb field is sqrt(2/pi) times the fuzzy-slit
    field, not equal to it.
    """

    n_slits: int
    pitch: float        # m, center-to-center
    half_width: float   # m, slit half-width b
    z_pos: float        # m, grating plane
    comb_k: int | None = None
    comb_eta: float = 1.0

    def __post_init__(self) -> None:
        if self.n_slits < 1:
            raise DomainError(f"n_slits must be >= 1, got {self.n_slits}")
        if self.n_slits > MAX_SLITS:
            raise DomainError(f"n_slits must be <= {MAX_SLITS}, got {self.n_slits}")
        if not (0.0 < self.pitch < math.inf):
            raise DomainError(f"pitch must be finite and positive, got {self.pitch}")
        if not (0.0 < self.half_width < math.inf):
            raise DomainError(f"half_width must be finite and positive, got {self.half_width}")
        if not math.isfinite(self.z_pos):
            raise DomainError(f"grating z must be finite, got {self.z_pos}")
        if 2.0 * self.half_width > self.pitch:
            raise DomainError(
                f"open windows overlap: 2*half_width={2.0 * self.half_width} > pitch={self.pitch}"
            )
        if self.comb and not (1 <= self.comb_k <= MAX_SLITS):
            raise DomainError(f"comb_k must be in [1, {MAX_SLITS}], got {self.comb_k}")
        if not (0.0 < self.comb_eta < math.inf):
            raise DomainError(f"comb_eta must be finite and positive, got {self.comb_eta}")
        if not self.comb and self.comb_eta != 1.0:
            raise DomainError(f"comb_eta = {self.comb_eta} tunes a comb: set comb_k too")

    @property
    def comb(self) -> bool:
        """Hard-edged comb slits (``comb_k`` set) rather than fuzzy ones."""
        return self.comb_k is not None

    @property
    def span(self) -> float:
        """Distance between first and last slit centers."""
        return (self.n_slits - 1) * self.pitch


def slit_positions(g: GratingSpec) -> np.ndarray:
    """Slit centers (n - (N-1)/2)*d for n = 0..N-1, symmetric about x = 0.

    The offsets are exact integers or half-integers in float64, so the
    returned array is exactly antisymmetric: pos[n] == -pos[N-1-n].
    """
    offsets = np.arange(g.n_slits, dtype=float) - (g.n_slits - 1) / 2.0
    return offsets * g.pitch


@dataclass(frozen=True)
class SpectralSpec:
    """Gaussian wavelength distribution for incoherent spectral averaging."""

    mean_lambda: float                 # m
    sigma_g: float                     # m
    lambda_list: tuple[float, ...]     # m, sample wavelengths (any sequence, stored as a tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_list", tuple(map(float, self.lambda_list)))
        if not (self.sigma_g > 0.0):
            raise DomainError(f"sigma_g must be positive, got {self.sigma_g}")
        if not (0.0 < self.mean_lambda < math.inf):
            raise DomainError(f"mean_lambda must be finite and positive, got {self.mean_lambda}")
        if len(self.lambda_list) == 0:
            raise DomainError("lambda_list must not be empty")
        if any(not (0.0 < lam < math.inf) for lam in self.lambda_list):
            raise DomainError("all lambda_list entries must be finite and positive")


@dataclass(frozen=True)
class SourceSpec:
    """Particle source: one point or a line of points, with coherence widths.

    ``sigma_I`` is the effective spatial-coherence width; ``math.inf`` means a
    fully coherent source.  ``z_s == -inf`` selects the paraxial (plane-wave)
    limit, in which case the transverse positions are ignored.  Positions and
    a spectrum's wavelengths are stored as tuples of float, so that every
    ``Scenario`` hashes and compares by value.
    """

    kind: str                          # "point" | "line"
    x_positions: tuple[float, ...]     # m (any sequence, stored as a tuple)
    z_s: float                         # m, must lie before grating 0
    sigma_I: float = COHERENT_SIGMA    # m
    spectral: SpectralSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_positions", tuple(map(float, self.x_positions)))
        if self.kind not in ("point", "line"):
            raise DomainError(f"source kind must be 'point' or 'line', got {self.kind!r}")
        if len(self.x_positions) == 0:
            raise DomainError("source needs at least one x position")
        if not all(math.isfinite(x) for x in self.x_positions):
            raise DomainError(f"source x positions must be finite, got {self.x_positions}")
        if self.kind == "point" and len(self.x_positions) != 1:
            raise DomainError("point source must have exactly one x position")
        if self.kind == "line" and len(self.x_positions) > 1:
            xs = self.x_positions
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise DomainError("line source x positions must be strictly increasing")
        if not (self.sigma_I > 0.0):
            raise DomainError(f"sigma_I must be positive (inf = coherent), got {self.sigma_I}")
        if math.isnan(self.z_s) or self.z_s == math.inf:
            raise DomainError(f"z_s must be finite or -inf, got {self.z_s}")

    @property
    def paraxial(self) -> bool:
        return is_paraxial(self.z_s)

    @property
    def gsm(self) -> bool:
        """A GSM line of two or more positions, the only source sigma_I acts on."""
        return self.kind == "line" and len(self.x_positions) > 1


def centered_axis(vmin: float, vmax: float, n: int) -> np.ndarray:
    """Uniform sample axis including both endpoints.

    Built from the interval center so a symmetric span (vmin == -vmax) yields
    an exactly antisymmetric array, which the mirror-parity checks rely on;
    the endpoints are then pinned to vmin/vmax exactly.
    """
    if n < 2:
        raise DomainError(f"axis needs at least 2 samples, got {n}")
    if not (vmin < vmax):
        raise DomainError(f"need vmin < vmax, got [{vmin}, {vmax}]")
    step = (vmax - vmin) / (n - 1)
    center = 0.5 * (vmin + vmax)
    vals = center + (np.arange(n, dtype=float) - (n - 1) / 2.0) * step
    vals[0] = vmin
    vals[-1] = vmax
    return vals


def xi0_grouped(x0, x1, x_s: float, z0: float, z1: float, z_s: float):
    """The singularity-free product (x1-x0)*xi0 = (x1-x0) - (x0-x_s)(z1-z0)/(z0-z_s)
    of the source tilt xi0 = 1 - ((x0-x_s)/(z0-z_s)) * ((z1-z0)/(x1-x0)).

    Accepts scalars or arrays for x0/x1; finite for all inputs including
    x1 == x0, and exactly (x1-x0) in the paraxial limit.
    """
    return np.asarray(x1) - np.asarray(x0) - (np.asarray(x0) - x_s) * ((z1 - z0) / (z0 - z_s))
