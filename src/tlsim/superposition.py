"""Superposition of single-path wave functions over grating slits.

The sum over slits runs inside the propagators' row kernels in an order
fixed by the slit counts alone: the pairwise fold of ``reduce_paths``, after
a sequential contraction over grating-0 slits where the behind-G1 kernel is
factorised.  It is the same for a scalar detector point and for a whole row
of points, so grid samples are bit-equal to direct point calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, GratingSpec, Particle, is_paraxial, slit_positions
from .propagators import behind_row, between_row

PROPAGATORS = ("standard", "paraxial", "hard-edge")


@dataclass(frozen=True)
class FieldRequest:
    """A single-wavelength, single-source-point field evaluation request."""

    particle: Particle
    grating0: GratingSpec
    grating1: GratingSpec
    x_s: float
    z_s: float
    region: str = "full"
    propagator: str = "standard"

    def __post_init__(self) -> None:
        if self.propagator not in PROPAGATORS:
            raise DomainError(f"propagator must be one of {PROPAGATORS}, got {self.propagator!r}")
        if self.propagator == "paraxial" and not is_paraxial(self.z_s):
            raise DomainError("paraxial propagator requires the z_s = -inf source")
        if self.propagator != "paraxial" and is_paraxial(self.z_s):
            raise DomainError(f"{self.propagator} propagator requires a finite source")
        if not (self.z_s < self.grating0.z_pos):
            raise DomainError("source must precede grating G0")
        if not (self.grating0.z_pos < self.grating1.z_pos):
            raise DomainError("grating G1 must lie behind grating G0")
        if self.grating0.comb_k != 1:
            raise DomainError("hard-edged comb slits are supported on grating 1 only")

    @property
    def lam(self) -> float:
        return self.particle.lambda_dB

    @property
    def z0(self) -> float:
        return self.grating0.z_pos

    @property
    def z1(self) -> float:
        return self.grating1.z_pos


def _as_row(x):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return arr, np.ndim(x) == 0


def superpose_between(req: FieldRequest, x, z: float):
    """Coherent sum over grating-0 slits in the between-gratings region."""
    if req.region == "behind":
        raise DomainError("request region is 'behind'; between-gratings field not available")
    if not (req.z0 <= z <= req.z1):
        raise DomainError(f"between-gratings point needs z0 <= z <= z1, got z={z}")
    xr, scalar = _as_row(x)
    out = between_row(
        req.lam, req.z_s, req.x_s, req.z0, req.grating0.half_width,
        slit_positions(req.grating0), xr, z,
    )
    return complex(out[0]) if scalar else out


def superpose_behind(req: FieldRequest, x, z: float):
    """Coherent double sum over grating-1 x grating-0 slits behind grating 1."""
    if req.region == "between":
        raise DomainError("request region is 'between'; behind-G1 field not available")
    if z < req.z1:
        raise DomainError(f"behind-G1 point needs z >= z1={req.z1}, got z={z}")
    xr, scalar = _as_row(x)
    hard = req.propagator == "hard-edge"
    g1 = req.grating1
    out = behind_row(
        req.lam, req.z_s, req.x_s, req.z0, req.z1,
        req.grating0.half_width, g1.half_width,
        slit_positions(req.grating0), slit_positions(g1), xr, z,
        comb_k=g1.comb_k if hard else 1,
        comb_eta=g1.comb_eta if hard else 1.0,
        hard=hard,
    )
    return complex(out[0]) if scalar else out


def density(psi):
    """Probability density |psi|^2 = re^2 + im^2 (scalar or array)."""
    psi = np.asarray(psi)
    val = psi.real * psi.real + psi.imag * psi.imag
    return float(val) if val.ndim == 0 else val
