"""Single-path wave functions for the two-grating interferometer.

Conventions
-----------
Amplitudes drop the overall sqrt(m/(2*pi*i*hbar*T)) radical: the finite-source
wave functions carry the prefactor 1/D and the paraxial ones carry 1/D with
the free constant set to 1.  Densities are therefore unnormalized, matching
the way the reference patterns are reported; the quadrature oracle multiplies
the raw path integral by sqrt(2*pi*i*hbar*T/m) so both sides live in the same
convention.

The removable singularity of the tilt parameter at x1 == x0 never appears
here: all phases are assembled from the grouped product (x1-x0)*xi0, which is
finite for every input.

On a grating plane the wave function is the incident field modulated by the
slit transmission.  The between-gratings form reaches that limit at z == z0
without a branch; only the behind-G1 direct kernel keeps a z == z1 branch,
and the paraxial source z_s = -inf has none (its source terms are exact
zeros).  Scalar entry points route through the row kernels, so grid samples
and direct calls agree bit for bit.

Every fuzzy-slit path term is a real envelope, one real exponential of its
log-magnitude, times a phase built from phasor tables: no complex
exponential is taken per path term.  Between the gratings the tables are a
per-slit phasor and, per sample, a phasor and the powers of one ratio (the
x*x0 cross term).  Behind G1 every fuzzy sum over two or more paths is
factorised on x-tiles (:func:`_behind_factorised`): a per-tile path matrix
contracted by BLAS matmuls of a shape fixed by (N0, N1) with power tables
over x1 and x0, so a sample's value depends neither on the other samples
of its row nor on the BLAS thread count.  ``between_row`` and the
factorised kernel need slit centres x[n] = x[0] + n*d up to round-off.  The
comb and single fuzzy paths keep the direct one-exponential-per-path
kernel.  A self-mirror row's |x| are shared out by ``superposition``.

Both row kernels take one wavelength or a 1-D band of W, and one source
point or a 1-D batch of B, for a row of shape lam.shape + x_s.shape +
(nx,) (see :func:`_finite_row`).  An entry's scalar coefficients come
from a one-entry call's arithmetic, so entry (w, b) equals the call at
(lam[w], x_s[b]) bit for bit.  What depends on the wavelength alone is
built once per wavelength: between the gratings the powers of kappa,
behind G1 the tile lattice and U and V tables.  Behind G1 an entry's path
matrix is a diagonal scaling of one built at a reference source point
x_ref on a lattice in absolute x_s: a tile builds one M per wavelength and
cell of entries sharing x_ref (a whole line), and N0*N1 complex
multiplies per other entry.  The factorised kernel works in groups of
tiles, ``between_row`` in groups of wavelengths and blocks of sources, the
direct kernel one entry at a time in blocks of samples; each holds at most
``_GROUP_TERMS`` path terms, or one unit.

Every detector position must be finite; a NaN or infinite x or z raises a
DomainError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HBAR,
    DomainError,
    GratingSpec,
    Particle,
    is_paraxial,
    xi0_grouped,
)

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class BranchCutError(ArithmeticError):
    """The complex square-root argument left the principal-branch half plane."""


@dataclass(frozen=True)
class PathContext:
    """Everything fixed along one source->slit(->slit) path.

    ``x1 is None`` selects the between-gratings region (only grating 0 is
    traversed); otherwise the path continues through slit center x1 of
    grating 1 into the region behind it.
    """

    particle: Particle
    grating0: GratingSpec
    grating1: GratingSpec | None
    x_s: float
    z_s: float
    x0: float
    x1: float | None = None

    def __post_init__(self) -> None:
        if not (self.z_s < self.grating0.z_pos):
            raise DomainError(
                f"source must precede grating G0: z_s={self.z_s} >= z0={self.grating0.z_pos}"
            )
        if self.x1 is not None and self.grating1 is None:
            raise DomainError("x1 given but no grating 1 in context")
        if self.grating1 is not None and not (self.grating0.z_pos < self.grating1.z_pos):
            raise DomainError("grating 1 must lie behind grating 0")

    @property
    def lam(self) -> float:
        return self.particle.lambda_dB


def free_kernel(x_b, t_b: float, x_a, t_a: float, particle: Particle):
    """Free-particle propagator between two spacetime points.

    Accepts scalars or arrays for the positions.  This is the only physics
    input of the quadrature oracle.
    """
    dt = t_b - t_a
    if not (dt > 0.0):
        raise DomainError(f"free kernel needs t_b > t_a, got dt={dt}")
    m = particle.mass
    pref = 1.0 / np.sqrt(2j * math.pi * HBAR * dt / m)
    dx = np.asarray(x_b) - np.asarray(x_a)
    val = pref * np.exp(1j * m * dx * dx / (2.0 * HBAR * dt))
    return complex(val) if np.ndim(val) == 0 else val


def _d_squared(sig0: complex, sig1: complex, z0: float, z1: float, z: float) -> complex:
    """D^2 = Sigma0*Sigma1 - (z-z1)/(z1-z0); D is its principal square root.

    Valid geometries keep D^2 off the negative real axis (Im > 0 whenever a
    grating has been crossed); a violation means inputs outside the model.
    """
    d2 = sig0 * sig1 - (z - z1) / (z1 - z0)
    if d2 == 0:
        raise DomainError("degenerate geometry: D^2 = 0")
    if d2.imag < 0.0 and d2.real <= 0.0:
        raise BranchCutError(f"D^2 = {d2} crosses the principal branch cut")
    return d2


def spreading_sigma(
    lam: float, z_prev: float, z_j: float, z_next: float, b: float, scale: float = 1.0
) -> complex:
    """Complex spreading Sigma of the grating at z_j with slit half-width b.

    Sigma = (z_next - z_prev)/(z_j - z_prev) + i*lam*(z_next - z_j)/(2*pi*b^2)*scale,
    where 2*pi*b^2 = 4*pi*sigma0^2 for the effective width sigma0 = b/sqrt(2).
    ``scale`` is K^2/eta^2 for a hard-edged comb and 1 otherwise; the previous
    plane ``z_prev = -inf`` (paraxial source) gives the real part 1.
    """
    if not (0.0 < lam < math.inf):
        raise DomainError(f"wavelength must be finite and positive, got {lam}")
    if not (z_prev < z_j):
        raise DomainError(f"coincident or inverted planes: z_prev={z_prev} >= z_j={z_j}")
    if z_next < z_j:
        raise DomainError(f"need z_next >= z_j, got z_next={z_next}, z_j={z_j}")
    real = 1.0 if is_paraxial(z_prev) else (z_next - z_prev) / (z_j - z_prev)
    return complex(real, lam * (z_next - z_j) / (2.0 * math.pi * b * b) * scale)


def gaussian_slit(xi, b: float):
    """Fuzzy-edged slit form factor exp(-xi^2 / 2 b^2)."""
    xi = np.asarray(xi, dtype=float)
    return np.exp(-(xi * xi) / (2.0 * b * b))


def comb_offsets(K: int) -> np.ndarray:
    """The integer offsets K-(2k-1), k = 1..K."""
    return K - (2.0 * np.arange(1, K + 1) - 1.0)


def comb_form_factor(xi, b: float, eta: float, K: int):
    """Hard-edged slit form factor: K narrow Gaussians tiling the window.

    (1/eta)*sqrt(2/pi) * sum_k exp(-(K*xi - b*(K-(2k-1)))^2 / (2 (b*eta)^2)).
    Its integral is exactly 2b for every (K, eta); at K = 1 it is a single
    Gaussian of standard width b*eta.
    """
    if not (b > 0.0) or not (eta > 0.0) or K < 1:
        raise DomainError(f"need b > 0, eta > 0, K >= 1; got b={b}, eta={eta}, K={K}")
    xi = np.asarray(xi, dtype=float)
    m = comb_offsets(K)
    arg = K * xi[..., None] - b * m
    val = (_SQRT_2_OVER_PI / eta) * np.exp(-(arg * arg) / (2.0 * (b * eta) ** 2)).sum(axis=-1)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# Row kernels over a vector of detector positions x and all slit centres; the
# single-path operations below call them with one centre per grating.
# ---------------------------------------------------------------------------


def _detector_row(x, z: float) -> np.ndarray:
    """The detector samples as a float row; z and every sample must be finite."""
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(z) and np.isfinite(x).all()):
        raise DomainError(
            f"detector position must be finite, got z={z} and "
            f"{np.count_nonzero(~np.isfinite(x))} non-finite x samples"
        )
    return x


def reduce_paths(terms: np.ndarray) -> np.ndarray:
    """Deterministic pairwise sum of (paths, nx) terms along the path axis.

    The fold tree depends only on the path count, never on nx, so a scalar
    evaluation and a whole-row evaluation produce bit-identical sums (numpy's
    own reduce picks different accumulation orders for different shapes).
    An odd last row is carried into the next fold unchanged.
    """
    while terms.shape[0] > 1:
        n, m = terms.shape[0], terms.shape[0] // 2
        folded = np.empty((n - m,) + terms.shape[1:], dtype=terms.dtype)
        np.add(terms[0:2 * m:2], terms[1:2 * m:2], out=folded[:m])
        folded[m:] = terms[2 * m:]
        terms = folded
    return terms[0]


# Floor of a path term's log-magnitude: numpy's real exp is up to 60x slower
# below the normal range (AVX-512).  Behind G1 it lies far below the round-off
# of a tile's sum; between the gratings it moves a sum only where every term
# lies below e^-660, and there |psi|^2 underflows to 0 anyway.
_LOG_FLOOR = -700.0


def _finite_row(kernel):
    """A row kernel over a wavelength band and a batch of source points that
    raises a DomainError, and emits no numpy warning, when a path table
    leaves float64's range.

    ``lam`` is one wavelength or a 1-D array of W, and ``x_s`` one source
    point or a 1-D array of B; the row has shape lam.shape + x_s.shape +
    (nx,).  The kernel takes the band as a list of W floats and the sources
    as a (B,) array, and returns (W, B, nx).

    At lam = 1e-300 the coefficients reach ~1e300 and their squares
    overflow: the kernel runs with floating-point warnings off and its row
    is checked instead (an inf or NaN fails; a log-magnitude of -inf is a
    true zero).  The kernels divide only by quantities nonzero in exact
    arithmetic, so a ZeroDivisionError means one underflowed to zero, as at
    lam = 5e-324.  The error names the wavelengths whose own rows fail.
    """
    @functools.wraps(kernel)
    def row(lam, z_s, x_s, *args, **kwargs):
        lams, sources = np.asarray(lam, dtype=float), np.asarray(x_s, dtype=float)
        for name, what, v in (("lam", "wavelength", lams), ("x_s", "source point", sources)):
            if v.ndim > 1 or v.size == 0:
                raise DomainError(f"{name} must be one {what} or a 1-D array, got shape {v.shape}")
        band = lams.reshape(-1).tolist()
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                psi = kernel(band, z_s, sources.reshape(-1), *args, **kwargs)
            if np.isfinite(psi).all():
                return psi.reshape(lams.shape + sources.shape + psi.shape[-1:])
        except ZeroDivisionError:
            pass
        if len(band) > 1:
            band = [w for w in band if not _evaluates(row, w, (z_s, x_s) + args, kwargs)]
        raise DomainError(f"the path phase tables leave float64's range at wavelength(s) "
                          f"{', '.join(f'{w:g}' for w in band)} m")
    return row


def _evaluates(row, lam: float, args, kwargs) -> bool:
    """Whether the row kernel ``row`` evaluates at the one wavelength ``lam``."""
    try:
        row(lam, *args, **kwargs)
    except DomainError:
        return False
    return True


@_finite_row
def between_row(
    lam: list[float],
    z_s: float,
    x_s: np.ndarray,
    z0: float,
    b0: float,
    x0s: np.ndarray,
    x: np.ndarray,
    z: float,
) -> np.ndarray:
    """Sum of single-slit between-gratings wave functions over centers x0s.

    Valid for z >= z0.  Sigma0 - 1 = (z - z0)*c with c = 1/(z0 - z_s) +
    i*lam/(2*pi*b0^2), so the phase carries no 1/(z - z0): z == z0 gives the
    aperture-modulated source wave, and rows just past the plane approach it
    continuously.

    Slit x0 contributes exp(i*pi*phi) with phi = q (c dx^2 + 2 g dx -
    g^2 (z - z0)) + p3, q = 1/(lam Sigma0) and dx = x - x0.  Its envelope
    exp(-pi Im phi) is one real exponential per term, taken from dx itself.
    Re phi splits into a phase at x = 0 per slit, one per sample and a cross
    term kappa x x0; the slits are a uniform lattice (checked by
    :func:`_lattice_pitch`), so the cross term's phasors are the powers of
    one ratio per sample, built as a running product along the slit axis.

    ``lam`` is a band and ``x_s`` a batch (see :func:`_finite_row`); entry
    (w, b) equals the call at (lam[w], x_s[b]) bit for bit.  kappa, so the
    power table, does not involve x_s: the entries are taken in groups of
    wavelengths, each with its power table, and blocks of sources of at
    most _GROUP_TERMS terms and envelope entries, or one entry.
    """
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    d0 = _lattice_pitch(x0s)
    x = _detector_row(x, z)
    # spreading_sigma also checks each wavelength and z_s < z0 <= z
    sig0 = [spreading_sigma(w, z_s, z0, z, b0) for w in lam]
    a = 1.0 / (z0 - z_s)  # 0 for a paraxial source
    dz = z - z0

    def coefficients(lam, sig0):
        # A wavelength's scalar factors, in a one-wavelength call's arithmetic.
        q = 1.0 / (lam * sig0)
        beta = lam / (2.0 * math.pi * b0 * b0)
        qc = q * complex(a, beta)
        kappa = 2.0 * beta * q.imag
        return (lam * (z0 - z_s), -math.pi * qc.imag, -2.0 * math.pi * q.imag,
                math.pi * q.imag * dz, qc.real, 2.0 * q.real, q.real * dz, kappa * x0s[0],
                1j * math.pi * kappa * d0, np.sqrt(sig0))

    # Slit-by-entry tables are (N0, W, B), per-sample ones (W, B, nx).
    co = np.array(list(map(coefficients, lam, sig0))).T.copy()
    lam_r, env2, env1, env0, qc_re, q_re2, q_re_dz, k_x0 = co[:8].real[:, :, None]
    ratio, root = co[8:]
    linear = q_re2 * (-x_s * a) + k_x0
    p3 = (x0s[:, None, None] - x_s) ** 2 / lam_r
    g = ((x0s[:, None] - x_s) / (z0 - z_s))[:, None, :]
    c0 = x0s[:, None, None]
    phasor = np.exp((1j * math.pi) * (qc_re * c0 * c0 - q_re2 * g * c0 - q_re_dz * g * g + p3))

    def envelope(ws, bs):
        # (N0, W, B, nx) envelope exp(-pi Im phi), one real exponential per term.
        gb = g[:, :, bs]
        dx = (x[None, :] - x0s[:, None])[:, None, None, :]
        env = np.empty(phasor[:, ws, bs].shape + x.shape)
        np.multiply(dx, env2[ws, :, None], out=env)
        env += (env1[ws] * gb)[..., None]
        env *= dx
        env += (env0[ws] * (gb * gb))[..., None]
        np.maximum(env, _LOG_FLOOR, out=env)
        return np.exp(env, out=env)

    def rows(ws, bs, env, powers):
        # Re phi = phi0[n] + Re(qc) x^2 + 2 Re(q) g_s x + kappa x x0[n], with
        # g_s = -x_s/(z0 - z_s) and x0[n] = x0[0] + n d0.  The (N0, W, nx)
        # power table times each entry's per-slit phasor gives its terms;
        # the per-sample phasor multiplies the folded sum.
        terms = np.multiply(powers, phasor[:, ws, bs, None], out=powers if len(x_s) == 1 else None)
        terms.real *= env
        terms.imag *= env
        per_sample = (qc_re[ws, :, None] * x + linear[ws, bs, None]) * x
        psi = reduce_paths(terms) * np.exp((1j * math.pi) * per_sample)
        return psi / root[ws, None, None]

    # Groups of wavelengths, each with its power table, and in each group
    # blocks of entries, whose terms and envelopes hold at most _GROUP_TERMS
    # entries, or one entry.  The table is built after the first block's
    # envelope: in the other order the between-gratings rows of a serial
    # fig12 grid faulted about 3500 pages back in per grid, in this none.
    unit = 2 * x0s.shape[0] * max(x.shape[0], 1)
    n_w = max(1, _GROUP_TERMS // (unit * len(x_s)))
    n_b = max(1, _GROUP_TERMS // (unit * n_w))
    groups = []
    for ws in (slice(i, i + n_w) for i in range(0, len(lam), n_w)):
        blocks, powers = [], None
        for bs in (slice(j, j + n_b) for j in range(0, len(x_s), n_b)):
            env = envelope(ws, bs)
            if powers is None:
                ratios = np.exp(ratio[ws, None] * x)
                powers = _powers(ratios.reshape(-1), x0s.shape[0])
                powers = powers.reshape(x0s.shape[:1] + ratios.shape)[:, :, None]
            blocks.append(rows(ws, bs, env, powers))
        groups.append(blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1))
    return groups[0] if len(groups) == 1 else np.concatenate(groups)


@_finite_row
def behind_row(
    lam: list[float],
    z_s: float,
    x_s: np.ndarray,
    z0: float,
    z1: float,
    b0: float,
    b1: float,
    x0s: np.ndarray,
    x1s: np.ndarray,
    x: np.ndarray,
    z: float,
    *,
    comb_k: int = 1,
    comb_eta: float = 1.0,
    hard: bool = False,
) -> np.ndarray:
    """Sum of single-path behind-G1 wave functions over all (x1, x0) pairs.

    Covers the standard fuzzy-slit form, the paraxial limit (z_s = -inf) and
    the hard-edged comb form (``hard=True``); z == z1 evaluates the analytic
    limit (incident field times slit transmission).  Every fuzzy sum over two
    or more paths goes to :func:`_behind_factorised`; the direct kernel takes
    single paths and the comb, one entry at a time and at every sample of
    x, in blocks of at most ``_GROUP_TERMS`` path terms (a comb that needs
    more than ``_MAX_TERMS`` per sample raises).

    ``lam`` is a band and ``x_s`` a batch (see :func:`_finite_row`); entry
    (w, b) equals the call at (lam[w], x_s[b]) bit for bit.  The direct
    kernel takes the path tables p23 and bq at every entry, the factorised
    one at each wavelength's cells of x_ref only: (W, cells, N1, N0).
    """
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    x1s = np.atleast_1d(np.asarray(x1s, dtype=float))
    x = _detector_row(x, z)
    if z < z1:
        raise DomainError(f"behind-region evaluation needs z >= z1, got z={z}, z1={z1}")

    # A fuzzy slit is the one-term comb: offset 0, so ck = fk = 0.  The unit
    # no block splits is one sample of the comb, or one tile of the batch's
    # path matrices in the factorised kernel.
    K, eta = (comb_k, comb_eta) if hard else (1, 1.0)
    per_sample = len(x1s) * len(x0s) * K
    factorised = not hard and per_sample > 1
    unit, what = (per_sample * len(x_s), "tile") if factorised else (per_sample, "sample")
    if unit > _MAX_TERMS:
        raise DomainError(f"the {'factorised kernel' if factorised else 'comb'} needs {unit} path "
                          f"terms per {what} ({unit / 2**26:.3g} GiB), more than its {_MAX_TERMS}")

    sig0 = [spreading_sigma(w, z_s, z0, z1, b0) for w in lam]
    L10 = [w * (z1 - z0) for w in lam]
    dx10 = x1s[:, None] - x0s[None, :]
    s0, l10, l0 = (np.array(v)[:, None, None, None]
                   for v in (sig0, L10, [w * (z0 - z_s) for w in lam]))

    def tables(pts):
        # (W, P, N1, N0) p23 and bq at the (W or 1, P) source points pts
        u = xi0_grouped(x0s, x1s[:, None], pts[..., None, None], z0, z1, z_s)
        p3 = (x0s - pts[..., None]) ** 2 / l0[..., 0]
        return (dx10 * dx10 - u * u / s0) / l10 + p3[:, :, None, :], (dx10 - u / s0) / l10

    if factorised:
        return _behind_factorised(lam, z_s, x_s, z0, z1, b1, z, sig0, L10, tables, x0s, x1s, x)
    comb_scale = (comb_k / comb_eta) ** 2 if (hard and comb_k > 1) else 1.0
    return np.array([
        [_behind_direct(w, z0, z1, b1, z, s0, p, b, x1s, x, K, eta, comb_scale, hard)
         for p, b in zip(pw, bw)]
        for w, s0, pw, bw in zip(lam, sig0, *tables(x_s[None]))
    ]).reshape(len(lam), len(x_s), x.size)


def _plane_limit(lam, sig0, z0, z1, b1, scale=1.0) -> complex:
    """lam D^2 times a behind-G1 path phase's x^2 coefficient, with nothing
    cancelling as z -> z1; ``scale`` is the comb's Sigma1 scale, else 1."""
    return (complex((sig0 - 1.0) / (z1 - z0))
            + 1j * sig0 * lam * scale / (2.0 * math.pi * b1 * b1))


def _behind_direct(lam, z0, z1, b1, z, sig0, p23, bq, x1s, x, K, eta, comb_scale, hard):
    """The direct behind-G1 kernel at one wavelength: one exponential per path
    term, in blocks of samples of at most _GROUP_TERMS terms (or one sample),
    which join to the whole row bit for bit.  numpy rounds a one-element
    in-place complex product apart, so a lone term is evaluated twice over."""
    per_sample = p23.size * K
    if not (x.size and per_sample):  # no samples, or an empty sum over no paths
        return np.zeros(x.size, dtype=complex)
    mk = comb_offsets(K)
    ck = mk * mk / (2.0 * math.pi * eta * eta)
    fk = K * mk / (2.0 * math.pi * eta * eta * b1)
    pref = _SQRT_2_OVER_PI / eta if hard else 1.0

    def block(x):
        if per_sample * x.shape[0] == 1:
            return block(np.repeat(x, 2))[:1]
        dx1 = x[None, :] - x1s[:, None]
        if z == z1:
            # Analytic z -> z1 limit, where D^2 = Sigma0.
            quad = (dx1 * dx1) * (_plane_limit(lam, sig0, z0, z1, b1, comb_scale) / (lam * sig0))
            phase = (
                quad[:, None, None, :]
                + p23[:, :, None, None]
                + (1j * ck)[None, None, :, None]
                + 2.0 * dx1[:, None, None, :] * (bq[:, :, None, None] - (1j * fk)[None, None, :, None])
            )
            terms = np.exp((1j * math.pi) * phase)
            return pref * reduce_paths(terms.reshape(-1, x.shape[0])) / np.sqrt(sig0)

        d2 = _d_squared(sig0, spreading_sigma(lam, z0, z1, z, b1, comb_scale), z0, z1, z)
        d = complex(np.sqrt(d2))
        Lz = lam * (z - z1)
        c_quad = Lz * sig0 / d2
        w = dx1 / Lz
        t1 = dx1 * w
        acc = np.empty(p23.shape + (K, x.shape[0]), dtype=complex)
        np.subtract(
            w[:, None, None, :], bq[:, :, None, None] - (1j * fk)[None, None, :, None],
            out=acc,
        )
        np.multiply(acc, acc, out=acc)
        np.multiply(acc, -c_quad, out=acc)
        acc += t1[:, None, None, :]
        acc += (p23[:, :, None] + (1j * ck)[None, None, :])[:, :, :, None]
        np.multiply(acc, 1j * math.pi, out=acc)
        np.exp(acc, out=acc)
        return pref * reduce_paths(acc.reshape(-1, x.shape[0])) / d

    step = max(1, _GROUP_TERMS // per_sample)
    return np.concatenate([block(x[i:i + step]) for i in range(0, x.size, step)])


# Largest |log| of a phase-table entry inside one tile, and of each factor
# of d over one cell of source points.  Tables then lie in [e^-B, e^B] (d in
# [1, e^4B]), so a tile's products d*M*U*V, summed divided by U[0]*V[0],
# stay within e^(+-8B) of its largest path term: far from overflow, and
# terms M drops to underflow stay negligible wherever tables amplify them.
_TILE_LOG_BOUND = 64.0

# Largest distance, in ulps of the largest |centre|, of a slit centre from its
# uniform lattice; centres built as n*d, or shifted and scaled, stay within 5.
_LATTICE_ULPS = 16.0

# Most path terms of a unit no block splits (256 MiB of complex128), else
# refused: a comb sample, or one tile's path matrices over a batch of sources.
_MAX_TERMS = 2**24

# Most path terms in the buffers of a group of tiles of the factorised
# kernel, a block of entries of ``between_row`` or a block of samples of
# the direct kernel (1 MiB of complex128); each holds at least one tile,
# entry or sample.  Larger buffers page-fault afresh on every call: a fig12
# behind-G1 row of 21 wavelengths in one group took 20% longer.
_GROUP_TERMS = 2**16

# Samples per block of the behind-G1 contraction (see _behind_factorised).
_BLOCK = 8


def _lattice_pitch(xs: np.ndarray) -> float:
    """Pitch d of slit centres on one uniform lattice xs[0] + n*d.

    Both row kernels build their phase tables as powers of one ratio per
    sample, which holds only on such a lattice; a centre off it by more than
    round-off is rejected, never summed as if it were on it.  A single slit
    is its own lattice, of pitch 0.
    """
    n = xs.shape[0]
    if n == 1:
        return 0.0
    d = (xs[-1] - xs[0]) / (n - 1)
    off = float(np.abs(xs[0] + np.arange(n) * d - xs).max())
    if not (off <= _LATTICE_ULPS * np.spacing(np.abs(xs).max())):
        raise DomainError(
            f"slit phase tables need uniformly spaced slit centres: "
            f"a centre lies {off:.3g} m off the lattice of pitch {d:.6g} m"
        )
    return float(d)


def _powers(r: np.ndarray, n: int) -> np.ndarray:
    """(n, len(r)) table of r^k, k = 0..n-1: each row is the last times r.

    The multiplies run along the sample axis, contiguously; every entry is
    the same chain of k products whatever len(r), and numpy rounds a complex
    multiply the same at every position and array length.
    """
    tab = np.empty((n, r.shape[0]), dtype=complex)
    tab[0] = 1.0
    for k in range(1, n):
        np.multiply(tab[k - 1], r, out=tab[k])
    return tab


def _behind_factorised(
    lams: list[float],
    z_s: float,
    x_s: np.ndarray,
    z0: float,
    z1: float,
    b1: float,
    z: float,
    sig0: list[complex],
    L10: list[float],
    tables,
    x0s: np.ndarray,
    x1s: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Fuzzy-slit behind-G1 sum over all (x1, x0) paths, factorised on x-tiles,
    at W wavelengths and B source points: shape (W, B, nx).

    Path (x1, x0) contributes exp(i*pi*phi) / D with

        phi(x) = A (x - x1)^2 + B bq (x - x1) + p23 - c bq^2,
        bq = alpha x1 + beta x0 + gamma,

    where nothing cancels as z -> z1 (z == z1 gives the plane limit);
    ``tables`` gives p23 and bq at source points.  Around a tile centre x_c,
    with delta = x - x_c,

        phi(x) = phi(x_c) + A delta (2 x_c + delta) + delta (c_u x1 + c_v x0 + c_s),

    so the sum is a per-tile path matrix M, a table U over x1 and V over x0
    and a common chirp.  On uniform lattices (:func:`_lattice_pitch`) U[n] =
    U[0] r_u^n and V[n] = V[0] r_v^n per sample (:func:`_powers`).  Each
    tile's samples fill blocks of _BLOCK, the last one padded; one BLAS
    matmul per tile multiplies M by each (N0, _BLOCK) block of V, then U
    multiplies the result and ``reduce_paths`` folds x1.  A sample costs 2
    complex exponentials and N0*N1 multiply-adds (a short tile pays for
    _BLOCK samples).  Block rule: every matmul has the shape (N1, N0) @ (N0,
    _BLOCK), fixed by the lattice, so a sample's bits do not depend on the
    other samples of its row, tile or block, and a scalar call, its row and
    a permuted row agree bit for bit.

    M's exponent, m = e[k, n1] + x_c (g0[k] + g1[n1]) + a_quad x_c^2, gives
    log|M| = -pi Im(m) as broadcast tables with one real exponential per
    entry, and M's phase as phasor tables over (x0, x1), (tile, x0) and
    (tile, x1).  Each tile's M is scaled to a largest magnitude of 1, and the
    scale comes back with the chirp in the log domain.

    Entries: x_s never enters U and V, so the tile lattice (from c_u x1 and
    c_v x0) and the U and V tables are shared by the batch.  x_s enters m
    through u and bq (linearly), p3 (quadratically) and c_s = b_lin gamma,
    so from a reference point x_ref, with D = x_s - x_ref,

        m_b = m_ref + D (a1 x1 + a0 x0 + q (x_s + x_ref) + e_c x_c),

    and M_b = d_b M_ref with d_b = exp(i pi D (a1 x1 + a0 x0)), an outer
    product of a factor over x1 and one over x0; the rest joins the scale.
    x_ref lies on a lattice in absolute x_s whose spacing keeps each
    factor's |log| within _TILE_LOG_BOUND, and each factor is divided by its
    smallest magnitude, so |d| >= 1 takes no entry of M below its floor.  A
    tile builds M once per wavelength and cell (the entries sharing x_ref),
    and each entry's N0*N1 multiplies by d run in a copy of M just before
    the matmul; an entry at x_ref skips them.  The coefficients come from a
    one-entry call's arithmetic and x_ref from x_s and the geometry alone,
    so entry (w, b) equals the call at (lam[w], x_s[b]) bit for bit.  The
    (wavelength, tile) pairs are contracted in groups of consecutive tiles
    whose cells' M, V and U blocks, accumulators and terms hold at most
    _GROUP_TERMS terms, or one tile; a group ends before a wavelength it
    reaches into but cannot hold (``behind_row`` refuses a tile whose B path
    matrices need more than _MAX_TERMS).
    """
    d0, d1 = _lattice_pitch(x0s), _lattice_pitch(x1s)
    n0, n1, n_src = len(x0s), len(x1s), len(x_s)
    # entries take an x_ref and a cell, but a one-source call with nothing to scale builds M at x_s
    cells = n_src > 1 or bool(x_s.any() and not is_paraxial(z_s))

    r = (z1 - z0) / (z0 - z_s)

    def c_s(b_lin, sig0, L10, pts=x_s):
        return [b_lin * (-s * r / (sig0 * L10)) for s in pts.tolist()]

    def coefficients(lam, sig0, L10):
        # A wavelength's scalar factors in a one-entry call's arithmetic, with
        # x_s's share of m (see "Entries") where there are cells, and c_s.
        alpha = (1.0 - 1.0 / sig0) / L10
        beta = r / (sig0 * L10) - alpha
        d2 = _d_squared(sig0, spreading_sigma(lam, z0, z1, z, b1), z0, z1, z)
        a_quad = _plane_limit(lam, sig0, z0, z1, b1) / (lam * d2)
        b_lin = 2.0 * sig0 / d2
        c_bq = lam * (z - z1) * sig0 / d2
        c_u = b_lin * alpha - 2.0 * a_quad
        c_v = b_lin * beta
        co = (c_bq, a_quad, b_lin, c_u, c_v, c_v * d0, c_u * d1, d2)
        if cells:  # p3_s is minus half of p3's x_s x0 coefficient
            k, p3_s = r / (sig0 * L10), 1.0 / (lam * (z0 - z_s))
            co += (k * (b_lin - 2.0 + 2.0 * c_bq * alpha),
                   2.0 * (k * (1.0 + r) - p3_s + c_bq * k * beta),
                   p3_s - k * (r + c_bq * k), -b_lin * k)
        return co, c_s(b_lin, sig0, L10)

    per_lam, c_b = zip(*map(coefficients, lams, sig0, L10))
    c_bq, a_quad, b_lin, c_u, c_v, k_v, k_u, d2, *shares = np.array(per_lam).T.copy()

    c_ref = c_b = np.array(c_b)
    refs, ipi = x_s[None], 1j * math.pi
    if cells:
        a1, a0, q, e_c = shares
        x0_max, x1_max = max(abs(x0s[0]), abs(x0s[-1])), max(abs(x1s[0]), abs(x1s[-1]))
        span = math.pi * np.maximum(np.abs(a1.imag) * x1_max, np.abs(a0.imag) * x0_max)
        ks, h = _on_lattice(x_s, span.tolist())
        x_ref, kv, cell = ks * h[:, None], ks + 0.0, np.zeros(ks.shape, dtype=np.intp)
        if n_src > 1:  # the cells: a wavelength's distinct x_ref (never -0.0)
            kv, cell = np.unique(kv, return_inverse=True)
        refs, cell = kv.reshape(-1, kv.shape[-1]) * h[:, None], cell.reshape(ks.shape)
        c_ref = np.array([c_s(c[2], sg, L, row) for c, sg, L, row in zip(per_lam, sig0, L10, refs)])
        scaled = (x_s != x_ref) & (not is_paraxial(z_s))  # the entries whose d is not 1
        runs = [[k for k, (a, b) in enumerate(zip([False] + v, v + [False])) if a != b]
                for v in scaled.tolist()]
        runs = [list(zip(e[::2], e[1::2])) for e in runs]  # [i, j) of consecutive scaled entries
        delta = x_s - x_ref  # d's factors over its smallest magnitudes, which join the lift
        e1, e0 = ((ipi * delta * a[:, None])[..., None] * xs for a, xs in ((a1, x1s), (a0, x0s)))
        low1, low0 = e1.real.min(axis=2), e0.real.min(axis=2)
        dmat = np.exp(e1 - low1[..., None])[..., None] * np.exp(e0 - low0[..., None])[..., None, :]
        lift, eps = low1 + low0 + ipi * q[:, None] * delta * (x_s + x_ref), e_c[:, None] * delta
    p23, bq = tables(refs)

    g1 = c_u[:, None] * x1s
    g0v = c_v[:, None] * x0s
    g0 = g0v[:, None, :] + c_ref[:, :, None]  # (W, cells, N0)

    # Each wavelength's tile lattice over the samples in ascending order, and
    # the groups of consecutive tiles whose buffers stay within the bound.
    perm = x.argsort(kind="stable")
    x_sorted, shape = x[perm], (len(lams), x.shape[0])
    span = math.pi * np.maximum(np.abs(g1.imag).max(axis=1), np.abs(g0v.imag).max(axis=1))
    xc, lam_of, start, first, tile, slot = _tile_lattices(x_sorted, span)
    # the terms of the tiles before each: M, V and accumulators per slot, U and terms per sample
    held = (refs.shape[1] * n1 * n0 * np.arange(first.shape[0]) + _BLOCK * (n0 + n_src * n1) * first
            + (1 + n_src) * n1 * start)
    t_first = lam_of.searchsorted(np.arange(len(lams) + 1)).tolist()
    cuts = [0]
    while cuts[-1] < xc.shape[0]:
        lo = cuts[-1]
        hi = max(lo + 1, int(held.searchsorted(held[lo] + _GROUP_TERMS, "right")) - 1)
        # a group that reaches into a wavelength it cannot hold ends before it
        w = lam_of[hi - 1]
        cuts.append(t_first[w] if lo < t_first[w] and hi < t_first[w + 1] else hi)

    g_first = g1[:, :1] + (g0v[:, :1] + c_b)  # (W, B): at the first slits x1[0], x0[0]

    const = p23 - c_bq[:, None, None, None] * (bq * bq)
    c1 = x1s[:, None]
    t01 = ipi * (const - (b_lin[:, None, None, None] * bq - a_quad[:, None, None, None] * c1) * c1)
    p01 = np.exp(1j * t01.imag)
    start, first = start.tolist(), first.tolist()
    rows = []
    for lo, hi in zip(cuts, cuts[1:]):
        xc_g, lam_g, at = xc[lo:hi], lam_of[lo:hi], slice(start[lo], start[hi])
        # The group's (wavelength, sample) pairs in tile order, shared by the batch.
        tile_g = tile[at] - lo
        lam_s = lam_g[tile_g]
        delta = x_sorted[np.arange(start[lo], start[hi]) % shape[1]] - xc_g[tile_g]
        ipd = (1j * math.pi) * delta

        # (tiles, cells, N1, N0) path matrices M = exp(i pi m), each scaled to a
        # largest |M| of 1: a table's real part adds to log|M|, its imaginary
        # part to M's phase.  The envelope is allocated after M's phasors and
        # freed before the contraction, so the allocator reuses M's pages.
        ixc = (ipi * xc_g)[:, None]
        t0 = ixc[:, None] * g0[lam_g]
        t1 = ixc * (g1[lam_g] + a_quad[lam_g, None] * xc_g[:, None])
        own = [(w, slice(max(t_first[w], lo) - lo, min(t_first[w + 1], hi) - lo))
               for w in range(lam_g[0], lam_g[-1] + 1)]  # each wavelength's tiles in the group
        p1 = np.exp(1j * t1.imag)[:, None, :, None]
        m = np.empty((hi - lo, refs.shape[1], n1, n0), dtype=complex)
        for w, sl in own:
            np.multiply(p01[w], p1[sl], out=m[sl])
        m *= np.exp(1j * t0.imag)[:, :, None, :]
        env = np.empty(m.shape)
        for w, sl in own:
            np.add(t01.real[w], t1.real[sl, None, :, None], out=env[sl])
        env += t0.real[:, :, None, :]
        scale = env.max(axis=(2, 3))
        env -= scale[:, :, None, None]
        np.maximum(env, _LOG_FLOOR, out=env)
        np.exp(env, out=env)
        m.real *= env
        m.imag *= env
        del env
        if cells:  # each entry's cell's scale, lifted where d scales it
            scale = scale[np.arange(hi - lo)[:, None], cell[lam_g]]
            scale = np.where(scaled[lam_g], scale + lift[lam_g] + ixc * eps[lam_g], scale)

        def entries(t):  # tile t's (B, 1, N1, N0) matrices: its cells' M, times d
            w = lam_g[t]
            mt = m[t, cell[w]]
            for i, j in runs[w]:
                mt[i:j] *= dmat[w, i:j]
            return mt[:, None]

        # Each tile's samples fill blocks of _BLOCK slots, the last one padded;
        # one matmul per tile covers all its blocks and sources.
        slot_g = slot[at] - first[lo] * _BLOCK
        n_slot = (first[hi] - first[lo]) * _BLOCK
        r_v = np.zeros(n_slot, dtype=complex)
        r_v[slot_g] = np.exp(ipd * k_v[lam_s])
        v = _powers(r_v, n0).reshape(n0, -1, _BLOCK).transpose(1, 0, 2)
        acc = np.empty((n1, n_src, n_slot), dtype=complex)
        acc_blocks = acc.reshape(n1, n_src, -1, _BLOCK).transpose(1, 2, 0, 3)
        bounds = [f - first[lo] for f in first[lo:hi + 1]]
        for mt, f, e in zip(map(entries, range(hi - lo)) if cells else m[:, :, None],
                            bounds, bounds[1:]):
            np.matmul(mt, v[f:e], out=acc_blocks[:, f:e])
        del v
        terms = acc.take(slot_g, axis=2)
        terms *= _powers(np.exp(ipd * k_u[lam_s]), n1)[:, None, :]
        # a zero sum logs to -inf, under the errstate of behind_row
        log_s = np.log(reduce_paths(terms))
        chirp = ipd * (a_quad[lam_s] * (2.0 * xc_g[tile_g] + delta) + g_first[lam_s].T)
        rows.append(np.exp(log_s + chirp + scale[tile_g].T) / np.sqrt(d2[lam_s]))
    psi = np.empty((n_src,) + shape, dtype=complex)
    if rows:
        psi[:, :, perm] = np.concatenate(rows, axis=1).reshape(psi.shape)
    return psi.transpose(1, 0, 2)


def _on_lattice(v: np.ndarray, span: list[float]):
    """Each value's nearest point k h on row w's lattice, as k, and h = 2
    _TILE_LOG_BOUND / span[w], over which a table whose |log| changes by
    span[w] per unit keeps within the bound; span 0 puts all at k = 0, h = 0."""
    h = [2.0 * _TILE_LOG_BOUND / s if s > 0.0 else math.inf for s in span]
    ks = np.rint(v / np.array(h)[:, None])
    return ks, np.array([g if g < math.inf else 0.0 for g in h])


def _tile_lattices(x: np.ndarray, span: np.ndarray):
    """Every wavelength's tile lattice over the ascending samples x, the
    tiles numbered in one list in (wavelength, centre) order as
    ``np.unique`` would number them.

    Tile centres sit on :func:`_on_lattice` for span[w] = pi max |Im g|
    at wavelength w.  Each tile's samples fill blocks of _BLOCK slots, in x
    order, the last block padded.  Returns each tile's centre and
    wavelength; each tile's first (wavelength, sample) pair in the flattened
    (W, nx) row and its first block (both with the total appended); and
    each pair's tile and slot.
    """
    ks, h = _on_lattice(x, span.tolist())
    ks = ks.reshape(-1)
    new = np.empty(ks.shape, dtype=bool)
    np.not_equal(ks[1:], ks[:-1], out=new[1:])
    new[::max(x.shape[0], 1)] = True  # each wavelength's lattice starts a tile
    start = new.nonzero()[0]
    tile = new.cumsum() - 1
    first = np.zeros(start.shape[0] + 1, dtype=np.intp)
    np.cumsum(-(-np.bincount(tile, minlength=start.shape[0]) // _BLOCK), out=first[1:])
    lam_of = start // max(x.shape[0], 1)
    slot = np.arange(ks.shape[0]) + (first[:-1] * _BLOCK - start)[tile]
    return ks[start] * h[lam_of], lam_of, np.append(start, ks.shape[0]), first, tile, slot


# ---------------------------------------------------------------------------
# Single-path operations behind grating 1, for the quadrature oracle's checks.
# ---------------------------------------------------------------------------


def _as_row(x):
    """x as a float row, and whether it was a scalar; anything but a scalar
    or a 1-D array raises a DomainError naming its shape."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim > 1:
        raise DomainError(f"x must be a scalar or a 1-D array, got shape {arr.shape}")
    return np.atleast_1d(arr), arr.ndim == 0


def psi_behind(ctx: PathContext, x, z: float):
    """Wave function behind grating 1 for the path (ctx.x0 -> ctx.x1).

    A paraxial context (z_s = -inf) gives the plane-wave illumination form.
    """
    return _behind_path(ctx, x, z, hard=False)


def psi_hard_edge(ctx: PathContext, x, z: float):
    """Behind-G1 wave function with grating 1's hard-edged comb slits.

    Fuzzy slits are read as the K = 1, eta = 1 comb.  With comb_k = 1 this
    returns sqrt(2/pi)/eta times :func:`psi_behind`, which is right only at
    eta = 1: the K = 1 form factor is a Gaussian of width b1*eta, but the
    kernel keeps the slit width b1 (a known bug).
    """
    return _behind_path(ctx, x, z, hard=True)


def _behind_path(ctx: PathContext, x, z: float, hard: bool):
    if ctx.x1 is None:
        raise DomainError("behind-region evaluation needs a slit center x1")
    g0, g1 = ctx.grating0, ctx.grating1
    xr, scalar = _as_row(x)
    out = behind_row(
        ctx.lam, ctx.z_s, ctx.x_s, g0.z_pos, g1.z_pos, g0.half_width, g1.half_width,
        np.array([ctx.x0]), np.array([ctx.x1]), xr, z,
        comb_k=g1.comb_k or 1, comb_eta=g1.comb_eta, hard=hard,
    )
    return complex(out[0]) if scalar else out
