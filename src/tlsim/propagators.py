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
without a branch: its phase is written so that nothing cancels as z -> z0.
Only the behind-G1 direct kernel keeps a separate z == z1 limit branch.
Everything is vectorized over the detector coordinate and over slit centers;
the scalar entry points route through the same code path so grid samples and
direct calls agree bit for bit.

Behind grating 1 the fuzzy-slit sum over N1*N0 paths is factorised when that
saves exponentials (N1*N0 > N1 + N0 + 2).  For fixed z every path phase is
quadratic in x with a path-independent x^2 coefficient and an x^1
coefficient affine in (x1, x0), so around a tile centre x_c the sum splits
into a per-tile path matrix, one phase table over x1, one over x0 and a
common chirp.  Tile centres sit on a lattice in absolute x whose spacing
follows from the geometry, and the contraction runs in a fixed order, so a
sample's value does not depend on which other samples share its row.  The
hard-edged comb and small path counts (every single-path call) keep the
direct one-exponential-per-path kernel.
"""

from __future__ import annotations

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


def d_term(Sigma0: complex, Sigma1: complex, z0: float, z1: float, z2: float) -> complex:
    """Common divisor D = sqrt(Sigma0*Sigma1 - (z2-z1)/(z1-z0)), principal branch."""
    if not (z1 > z0):
        raise DomainError(f"need z1 > z0, got z0={z0}, z1={z1}")
    return complex(np.sqrt(_d_squared(complex(Sigma0), complex(Sigma1), z0, z1, z2)))


def _d_squared(sig0: complex, sig1: complex, z0: float, z1: float, z: float) -> complex:
    """D^2 = Sigma0*Sigma1 - (z-z1)/(z1-z0), checked against the branch cut.

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
# Row kernels.  These evaluate the wave function for a whole vector of
# detector positions x (and all slit centers at once); the public single-path
# operations below call them with singleton center arrays so that every code
# path is the same one the grid evaluator uses.
# ---------------------------------------------------------------------------


def reduce_paths(terms: np.ndarray) -> np.ndarray:
    """Deterministic pairwise sum of (paths, nx) terms along the path axis.

    The fold tree depends only on the path count, never on nx, so a scalar
    evaluation and a whole-row evaluation produce bit-identical sums (numpy's
    own reduce picks different accumulation orders for different shapes).
    """
    while terms.shape[0] > 1:
        m = terms.shape[0] // 2
        rest = terms[2 * m:]
        terms = terms[0:2 * m:2] + terms[1:2 * m:2]
        if rest.shape[0]:
            terms = np.concatenate([terms, rest], axis=0)
    return terms[0]


def between_row(
    lam: float,
    z_s: float,
    x_s: float,
    z0: float,
    b0: float,
    x0s: np.ndarray,
    x: np.ndarray,
    z: float,
) -> np.ndarray:
    """Sum of single-slit between-gratings wave functions over centers x0s.

    Valid for z >= z0.  Sigma0 - 1 = (z - z0)*c with
    c = 1/(z0 - z_s) + i*lam/(2*pi*b0^2) (real part 0 when paraxial), so the
    phase carries no 1/(z - z0): z == z0 gives the aperture-modulated source
    wave, and rows just past the plane approach it continuously.
    """
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    x = np.asarray(x, dtype=float)
    sig0 = spreading_sigma(lam, z_s, z0, z, b0)  # also checks lam and z_s < z0 <= z
    paraxial = is_paraxial(z_s)
    dx = x[None, :] - x0s[:, None]

    if paraxial:
        p3 = np.zeros(len(x0s))
        g = np.zeros(len(x0s))
    else:
        p3 = (x0s - x_s) ** 2 / (lam * (z0 - z_s))
        g = (x0s - x_s) / (z0 - z_s)

    c = complex(0.0 if paraxial else 1.0 / (z0 - z_s), lam / (2.0 * math.pi * b0 * b0))
    num = dx * dx * c + 2.0 * dx * g[:, None] - (g * g * (z - z0))[:, None]
    psi = reduce_paths(np.exp((1j * math.pi) * (num / (lam * sig0) + p3[:, None])))
    return psi / np.sqrt(sig0)


def behind_row(
    lam: float,
    z_s: float,
    x_s: float,
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
    limit (incident field times slit transmission).  Fuzzy slits with
    N1*N0 > N1 + N0 + 2 are summed by :func:`_behind_factorised`; the rule
    depends on the slit counts alone, so a scalar call and a row agree.
    """
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    x1s = np.atleast_1d(np.asarray(x1s, dtype=float))
    x = np.asarray(x, dtype=float)
    paraxial = is_paraxial(z_s)
    if z < z1:
        raise DomainError(f"behind-region evaluation needs z >= z1, got z={z}, z1={z1}")

    sig0 = spreading_sigma(lam, z_s, z0, z1, b0)
    comb_scale = (comb_k / comb_eta) ** 2 if (hard and comb_k > 1) else 1.0
    L10 = lam * (z1 - z0)

    dx10 = x1s[:, None] - x0s[None, :]
    u = xi0_grouped(x0s[None, :], x1s[:, None], x_s, z0, z1, z_s)
    p3 = np.zeros(len(x0s)) if paraxial else (x0s - x_s) ** 2 / (lam * (z0 - z_s))
    p23 = (dx10 * dx10 - u * u / sig0) / L10 + p3[None, :]
    bq = (dx10 - u / sig0) / L10

    n1, n0 = len(x1s), len(x0s)
    if not hard and n1 * n0 > n1 + n0 + 2:
        r = 0.0 if paraxial else (z1 - z0) / (z0 - z_s)
        alpha = (1.0 - 1.0 / sig0) / L10
        beta = r / (sig0 * L10) - alpha
        gamma = -x_s * r / (sig0 * L10)
        return _behind_factorised(
            lam, z0, z1, b1, z, sig0, p23, bq, alpha, beta, gamma, x0s, x1s, x
        )

    dx1 = x[None, :] - x1s[:, None]

    # A fuzzy slit is the one-term comb: offset 0, so ck = fk = 0.
    K, eta = (comb_k, comb_eta) if hard else (1, 1.0)
    mk = comb_offsets(K)
    ck = mk * mk / (2.0 * math.pi * eta * eta)
    fk = K * mk / (2.0 * math.pi * eta * eta * b1)
    pref = _SQRT_2_OVER_PI / eta if hard else 1.0

    if z == z1:
        # Analytic z -> z1 limit.
        e_lim = complex(
            (sig0 - 1.0) / (z1 - z0)
        ) + 1j * sig0 * lam * comb_scale / (2.0 * math.pi * b1 * b1)
        quad = (dx1 * dx1) * (e_lim / (lam * sig0))
        phase = (
            quad[:, None, None, :]
            + p23[:, :, None, None]
            + (1j * ck)[None, None, :, None]
            + 2.0 * dx1[:, None, None, :] * (bq[:, :, None, None] - (1j * fk)[None, None, :, None])
        )
        terms = np.exp((1j * math.pi) * phase)
        psi = reduce_paths(terms.reshape(-1, x.shape[0]))
        return pref * psi / np.sqrt(sig0)

    d2 = _d_squared(sig0, spreading_sigma(lam, z0, z1, z, b1, comb_scale), z0, z1, z)
    d = complex(np.sqrt(d2))
    Lz = lam * (z - z1)
    c_quad = Lz * sig0 / d2

    w = dx1 / Lz
    t1 = dx1 * w

    # Direct kernel: one exponential per path term, with the quadratic phase
    # assembled in place in one (paths, nx) buffer.  Only the hard-edged
    # comb and path counts too small to factorise come here.
    acc = np.empty((len(x1s), len(x0s), K, x.shape[0]), dtype=complex)
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
    psi = reduce_paths(acc.reshape(-1, x.shape[0]))
    return pref * psi / d


# Largest |log| of a phase-table entry inside one tile.  Table entries then
# lie in [e^-B, e^B], so a tile's products M*U*V stay within e^(+-2B) of its
# largest path term: far from overflow, and terms M drops to underflow stay
# negligible wherever the tables could amplify them.
_TILE_LOG_BOUND = 64.0


def _behind_factorised(
    lam: float,
    z0: float,
    z1: float,
    b1: float,
    z: float,
    sig0: complex,
    p23: np.ndarray,
    bq: np.ndarray,
    alpha: complex,
    beta: complex,
    gamma: complex,
    x0s: np.ndarray,
    x1s: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Fuzzy-slit behind-G1 sum over all (x1, x0) paths, factorised on x-tiles.

    Path (x1, x0) contributes exp(i*pi*phi) / D with

        phi(x) = A (x - x1)^2 + B bq (x - x1) + p23 - c bq^2,
        bq = alpha x1 + beta x0 + gamma,

    where A, B and c are written so that nothing cancels as z -> z1; at
    z == z1 they give the plane limit.  Around a tile centre x_c, with
    delta = x - x_c,

        phi(x) = phi(x_c) + A delta (2 x_c + delta)
                 + delta (c_u x1 + c_v x0 + c_s),

    so one exponential per path and tile (the matrix M), one per slit and
    sample (the tables U over x1 and V over x0; ``g1`` = c_u x1 and ``g0`` =
    c_v x0 + c_s below) and a common chirp replace one exponential per path
    and sample.  Each tile's M is scaled to a largest magnitude of 1, and the
    scale comes back with the chirp in the log domain: far off-axis M alone
    would underflow and the chirp alone overflow.
    """
    d2 = _d_squared(sig0, spreading_sigma(lam, z0, z1, z, b1), z0, z1, z)
    a_quad = (
        complex((sig0 - 1.0) / (z1 - z0)) + 1j * sig0 * lam / (2.0 * math.pi * b1 * b1)
    ) / (lam * d2)
    b_lin = 2.0 * sig0 / d2
    const = p23 - (lam * (z - z1) * sig0 / d2) * (bq * bq)
    g1 = (b_lin * alpha - 2.0 * a_quad) * x1s
    g0 = (b_lin * beta) * x0s + b_lin * gamma

    # Tile lattice in absolute x: |pi Im(g) delta| <= _TILE_LOG_BOUND within
    # a tile.  The spacing depends on the geometry only, never on x.
    span = math.pi * max(float(np.max(np.abs(g1.imag))), float(np.max(np.abs(g0.imag))))
    if span > 0.0:
        h = 2.0 * _TILE_LOG_BOUND / span
        tiles, tile_of = np.unique(np.rint(x / h), return_inverse=True)
        xc = tiles * h
    else:  # no table entry changes magnitude: one tile at x = 0
        xc, tile_of = np.zeros(1), np.zeros(x.shape, dtype=np.intp)
    delta = x - xc[tile_of]

    # (N0, tiles, N1) path matrices, each tile scaled to a largest |M| of 1.
    dxc = xc[:, None] - x1s[None, :]
    m = (b_lin * bq.T)[:, None, :] * dxc
    m += a_quad * dxc * dxc
    m += const.T[:, None, :]
    m *= 1j * math.pi
    scale = m.real.max(axis=(0, 2))
    m -= scale[:, None]
    np.exp(m, out=m)

    ipd = (1j * math.pi) * delta
    u_tab = np.exp(ipd[:, None] * g1)
    v_tab = np.exp(g0[:, None] * ipd)

    # Fixed-order contraction over x0, then the pairwise fold over x1.
    acc = m[0].take(tile_of, axis=0)
    acc *= v_tab[0][:, None]
    tmp = np.empty_like(acc)
    for k in range(1, len(x0s)):
        np.take(m[k], tile_of, axis=0, out=tmp, mode="clip")  # unbuffered; indices in range
        tmp *= v_tab[k][:, None]
        acc += tmp
    acc *= u_tab
    s = reduce_paths(acc.T)
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
    chirp = (a_quad * ipd) * (2.0 * xc[tile_of] + delta)
    return np.exp(log_s + chirp + scale[tile_of]) / np.sqrt(d2)


# ---------------------------------------------------------------------------
# Single-path operations behind grating 1, for the quadrature oracle's checks.
# ---------------------------------------------------------------------------


def _as_row(x):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return arr, np.ndim(x) == 0


def psi_behind(ctx: PathContext, x, z: float):
    """Wave function behind grating 1 for the path (ctx.x0 -> ctx.x1).

    A paraxial context (z_s = -inf) gives the plane-wave illumination form.
    """
    return _behind_path(ctx, x, z, hard=False)


def psi_hard_edge(ctx: PathContext, x, z: float):
    """Behind-G1 wave function with grating 1's hard-edged comb slits.

    With comb_k = 1 this reduces exactly to sqrt(2/pi)/eta times
    :func:`psi_behind`.
    """
    if is_paraxial(ctx.z_s):
        raise DomainError("psi_hard_edge needs a finite source")
    return _behind_path(ctx, x, z, hard=True)


def _behind_path(ctx: PathContext, x, z: float, hard: bool):
    if ctx.x1 is None:
        raise DomainError("behind-region evaluation needs a slit center x1")
    g0, g1 = ctx.grating0, ctx.grating1
    xr, scalar = _as_row(x)
    out = behind_row(
        ctx.lam, ctx.z_s, ctx.x_s, g0.z_pos, g1.z_pos, g0.half_width, g1.half_width,
        np.array([ctx.x0]), np.array([ctx.x1]), xr, z,
        comb_k=g1.comb_k, comb_eta=g1.comb_eta, hard=hard,
    )
    return complex(out[0]) if scalar else out
