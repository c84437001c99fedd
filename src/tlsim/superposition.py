"""Superposition of single-path wave functions over grating slits.

The sum over slits runs inside the propagators' row kernels in an order
fixed by the slit counts alone: the pairwise fold of ``reduce_paths``, after
a sequential contraction over grating-0 slits where the behind-G1 kernel is
factorised.  It is the same for a scalar detector point and for a whole row
of points, so grid samples are bit-equal to direct point calls.

Both sums take a validated :class:`~tlsim.scenario.Scenario`.  ``x_s``
picks one source point (required for a distributed source) and ``lam``
overrides the scenario wavelength; neither builds a new scenario.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, slit_positions
from .propagators import _as_row, behind_row, between_row
from .scenario import Scenario


def _source_x(scn: Scenario, x_s: float | None) -> float:
    """The source point to evaluate: explicit, the single point, or 0 when paraxial."""
    if x_s is not None:
        return x_s
    if scn.source.paraxial:
        return 0.0
    if len(scn.source.x_positions) != 1:
        raise DomainError("distributed source: pass an explicit x_s")
    return scn.source.x_positions[0]


def superpose_between(scn: Scenario, x, z: float, *, x_s: float | None = None,
                      lam: float | None = None):
    """Coherent sum over grating-0 slits in the between-gratings region."""
    if scn.region == "behind":
        raise DomainError("scenario region is 'behind'; between-gratings field not available")
    if not (scn.z0 <= z <= scn.z1):
        raise DomainError(f"between-gratings point needs z0 <= z <= z1, got z={z}")
    xr, scalar = _as_row(x)
    out = between_row(
        scn.lam if lam is None else lam, scn.source.z_s, _source_x(scn, x_s),
        scn.z0, scn.grating0.half_width, slit_positions(scn.grating0), xr, z,
    )
    return complex(out[0]) if scalar else out


def superpose_behind(scn: Scenario, x, z: float, *, x_s: float | None = None,
                     lam: float | None = None):
    """Coherent double sum over grating-1 x grating-0 slits behind grating 1."""
    if scn.region == "between":
        raise DomainError("scenario region is 'between'; behind-G1 field not available")
    xr, scalar = _as_row(x)
    hard = scn.propagator == "hard-edge"
    g1 = scn.grating1
    out = behind_row(
        scn.lam if lam is None else lam, scn.source.z_s, _source_x(scn, x_s), scn.z0, scn.z1,
        scn.grating0.half_width, g1.half_width,
        slit_positions(scn.grating0), slit_positions(g1), xr, z,
        comb_k=g1.comb_k, comb_eta=g1.comb_eta, hard=hard,
    )
    return complex(out[0]) if scalar else out


def density(psi):
    """Probability density |psi|^2 = re^2 + im^2 (scalar or array)."""
    psi = np.asarray(psi)
    val = psi.real * psi.real + psi.imag * psi.imag
    return float(val) if val.ndim == 0 else val
