"""Superposition of single-path wave functions over grating slits.

The sum over slits runs inside the propagators' row kernels in an order
fixed by the slit counts alone: the pairwise fold of ``reduce_paths``, after
a sequential contraction over grating-0 slits where the behind-G1 kernel is
factorised.  It is the same for a scalar detector point and for a whole row
of points, so grid samples are bit-equal to direct point calls.

Both sums take a validated :class:`~tlsim.scenario.Scenario`, which
carries the wavelength.  Two per-call overrides exist: ``x_s`` picks one
source point, or a 1-D batch of B (required for a distributed source), and
``lam`` evaluates a 1-D array of W wavelengths; either gives one row per
entry, of shape lam.shape + x_s.shape + (nx,) (without the nx axis at a
scalar x), all in one kernel call, each bit-identical to its one-entry call.

Mirror rule: both gratings sit centred on the axis (``slit_positions``
builds exactly antisymmetric lattices), so when the source is paraxial or
sits at x_s = 0 every row is its own mirror image, psi(-x) = psi(x), for
fuzzy slits and the hard-edged comb alike.  Such a self-mirror entry reads
the kernel at |x|, any other entry at x, and one kernel call runs at the
distinct values that a call's entries read, so scalar == row still holds,
parity is exact, and values at x < 0 are those at |x| (the kernels are
mirror-symmetric only to round-off).  The rule lives here alone: the
kernels carry no mirror code.  A line's sources share one such call
(``coherence.source_field_matrix``).
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, slit_positions
from .propagators import _as_row, behind_row, between_row
from .scenario import Scenario


def _source_x(scn: Scenario, x_s):
    """The source point(s) to evaluate: explicit, the single point, or 0 when paraxial."""
    if x_s is not None:
        return x_s
    if scn.source.paraxial:
        return 0.0
    if len(scn.source.x_positions) != 1:
        raise DomainError("distributed source: pass an explicit x_s")
    return scn.source.x_positions[0]


def _on_samples(scn: Scenario, x_s, row, x):
    """``row`` (a kernel over a sample array, one row per wavelength and
    source point) at the samples x, a scalar or an array.  A self-mirror
    entry (source at x_s = 0 or paraxial) reads |x|, any other entry x; the
    kernel runs once, at the distinct values the entries read, ascending,
    and each entry gathers its own samples from that call.  Entries with
    the same rule share their reads, so a batch sorts at most two rows."""
    xr, scalar = _as_row(x)
    # the distinct read rules (True reads |x|) and each entry's index among them
    rules, rule = np.unique(scn.source.paraxial | (np.asarray(x_s) == 0.0), return_inverse=True)
    reads = np.where(rules[:, None], np.abs(xr), xr)
    v, inv = np.unique(reads, return_inverse=True)
    full = row(v)
    # entry e's samples in its rows flattened over the entry and sample axes
    at = inv.reshape(reads.shape)[rule] + v.size * np.arange(rule.size).reshape(rule.shape + (1,))
    out = full.reshape(full.shape[:full.ndim - at.ndim] + (-1,)).take(at, axis=-1)
    return (complex(out[0]) if out.ndim == 1 else out[..., 0]) if scalar else out


def superpose_between(scn: Scenario, x, z: float, *, x_s=None, lam=None):
    """Coherent sum over grating-0 slits in the between-gratings region."""
    if scn.region == "behind":
        raise DomainError("scenario region is 'behind'; between-gratings field not available")
    if not (scn.z0 <= z <= scn.z1):
        raise DomainError(f"between-gratings point needs z0 <= z <= z1, got z={z}")
    x_s, x0s = _source_x(scn, x_s), slit_positions(scn.grating0)
    lam = scn.lam if lam is None else lam
    return _on_samples(scn, x_s, lambda xr: between_row(
        lam, scn.source.z_s, x_s, scn.z0, scn.grating0.half_width, x0s, xr, z,
    ), x)


def superpose_behind(scn: Scenario, x, z: float, *, x_s=None, lam=None):
    """Coherent double sum over grating-1 x grating-0 slits behind grating 1."""
    if scn.region == "between":
        raise DomainError("scenario region is 'between'; behind-G1 field not available")
    g1 = scn.grating1
    x_s, x0s, x1s = _source_x(scn, x_s), slit_positions(scn.grating0), slit_positions(g1)
    lam = scn.lam if lam is None else lam
    return _on_samples(scn, x_s, lambda xr: behind_row(
        lam, scn.source.z_s, x_s, scn.z0, scn.z1, scn.grating0.half_width, g1.half_width,
        x0s, x1s, xr, z, comb_k=g1.comb_k or 1, comb_eta=g1.comb_eta, hard=g1.comb,
    ), x)


def density(psi):
    """Probability density |psi|^2 = re^2 + im^2 (scalar or array)."""
    psi = np.asarray(psi)
    val = psi.real * psi.real + psi.imag * psi.imag
    return float(val) if val.ndim == 0 else val
