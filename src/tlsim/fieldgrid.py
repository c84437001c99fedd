"""Density evaluation on rectangular (x, z) grids, cross-sections, exports.

Grid evaluation is data-parallel over rows: every (x, z) sample is computed
independently with a fixed per-point summation order, so results are
bit-identical for any worker count and any repeated run.  The rows go in
contiguous chunks to the process pool of ``parallel``, which is reused
within a process; its workers see the module state as of their fork.  No
interpolation happens anywhere; cross-sections return the nearest sampled
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, centered_axis
from .coherence import spectral_density_profile
from .parallel import default_workers, map_chunks
from .scenario import Scenario, fingerprint, scenario_lines

FORMATS = ("csv", "pgm", "meta")


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular sampling of the (x, z) plane, endpoints included."""

    x_min: float
    x_max: float
    z_min: float
    z_max: float
    nx: int
    nz: int

    def __post_init__(self) -> None:
        bounds = (self.x_min, self.x_max, self.z_min, self.z_max)
        if not all(math.isfinite(v) for v in bounds):
            raise DomainError(f"grid bounds must be finite, got x [{self.x_min}, {self.x_max}], "
                              f"z [{self.z_min}, {self.z_max}]")
        if not (self.x_min < self.x_max):
            raise DomainError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not (self.z_min < self.z_max):
            raise DomainError(f"need z_min < z_max, got [{self.z_min}, {self.z_max}]")
        if self.nx < 2 or self.nz < 2:
            raise DomainError(f"need nx >= 2 and nz >= 2, got nx={self.nx}, nz={self.nz}")

    def x_axis(self) -> np.ndarray:
        return centered_axis(self.x_min, self.x_max, self.nx)

    def z_axis(self) -> np.ndarray:
        return centered_axis(self.z_min, self.z_max, self.nz)

    def lines(self) -> list[str]:
        return [
            f"grid.x_min = {self.x_min:.17g}",
            f"grid.x_max = {self.x_max:.17g}",
            f"grid.z_min = {self.z_min:.17g}",
            f"grid.z_max = {self.z_max:.17g}",
            f"grid.nx = {self.nx}",
            f"grid.nz = {self.nz}",
        ]


@dataclass(frozen=True)
class DensityField:
    """Sampled density p(x, z): nz x nx matrix, row-major in z (row 0 = z_min)."""

    grid: GridSpec
    values: np.ndarray
    fingerprint: str

    @property
    def p_min(self) -> float:
        return float(self.values.min())

    @property
    def p_max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class Profile:
    """One density cross-section at fixed z."""

    z: float
    x: np.ndarray
    p: np.ndarray

    def restrict(self, x_lo: float, x_hi: float) -> "Profile":
        mask = (self.x >= x_lo) & (self.x <= x_hi)
        if not np.any(mask):
            raise DomainError(f"window [{x_lo}, {x_hi}] contains no samples")
        return Profile(z=self.z, x=self.x[mask], p=self.p[mask])

    def integral(self) -> float:
        """Trapezoidal integral of p over the sampled x range."""
        return float(np.trapezoid(self.p, self.x))


def _eval_rows(scn: Scenario, grid: GridSpec, lo: int, hi: int) -> np.ndarray:
    x = grid.x_axis()
    zs = grid.z_axis()
    out = np.empty((hi - lo, grid.nx), dtype=float)
    for i in range(lo, hi):
        out[i - lo] = spectral_density_profile(scn, x, float(zs[i]))
    return out


def evaluate_grid(scn: Scenario, grid: GridSpec, workers: int | None = None) -> DensityField:
    """Evaluate the scenario's density on the grid.

    A grid spanning both regions is evaluated piecewise: rows below the G1
    plane use the between-gratings form, rows above it the behind form; for a
    region='full' scenario the z == z1 row is assigned to the between form,
    while a region='behind' scenario evaluates it as the behind-form limit
    (incident field times the slit transmission).
    """
    scn.check_in_region(f"{scn.region}-region grid", grid.z_min, grid.z_max)
    workers = default_workers(workers)

    # Chunks follow the requested count, so outputs do not depend on the
    # host; the pool never holds more processes than chunks or CPUs.
    bounds = np.linspace(0, grid.nz, min(grid.nz, 4 * workers) + 1, dtype=int).tolist()
    chunks = [(scn, grid, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    values = np.concatenate(map_chunks(_eval_rows, chunks, workers))
    values.setflags(write=False)
    return DensityField(grid=grid, values=values, fingerprint=fingerprint(scn, grid.lines()))


def cross_section(field: DensityField, z: float) -> Profile:
    """Nearest-row extraction (no interpolation); ties go to the lower row."""
    zs = field.grid.z_axis()
    if z < zs[0] or z > zs[-1]:
        raise DomainError(f"z={z} outside grid range [{zs[0]}, {zs[-1]}]")
    dist = np.abs(zs - z)
    idx = int(np.argmin(dist))  # argmin takes the first (lower) row on ties
    return Profile(z=float(zs[idx]), x=field.grid.x_axis(), p=field.values[idx].copy())


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------


def export_csv(field: DensityField, path) -> None:
    """x_m,z_m,p samples at full double precision (17 significant digits).

    Each x is formatted once per file and each z once per row.
    """
    xs = [f"{v:.17g}," for v in field.grid.x_axis().tolist()]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x_m,z_m,p\n")
            for z, row in zip(field.grid.z_axis().tolist(), field.values):
                zc = f"{z:.17g},"
                fh.write("".join([f"{xc}{zc}{v:.17g}\n" for xc, v in zip(xs, row.tolist())]))
    except OSError as exc:
        raise IOError(f"writing CSV to {path}: {exc}") from exc


def parse_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back an export_csv file: (x, z, p) flat arrays."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise IOError(f"reading CSV from {path}: {exc}") from exc
    return data[:, 0], data[:, 1], data[:, 2]


def export_pgm(field: DensityField, path, log_scale: bool = False) -> None:
    """Binary 16-bit PGM (P5, maxval 65535, big-endian samples).

    Linear mode maps [0, max p] onto [0, 65535]; log mode maps four decades
    of log10(p / max p) onto the same range.
    """
    p = field.values
    pmax = field.p_max
    if pmax <= 0.0:
        pix = np.zeros_like(p)
    elif log_scale:
        with np.errstate(divide="ignore"):
            rel = np.log10(np.where(p > 0.0, p / pmax, np.nan))
        frac = np.clip(1.0 + rel / 4.0, 0.0, 1.0)
        pix = np.where(np.isnan(frac), 0.0, frac) * 65535.0
    else:
        pix = p / pmax * 65535.0
    samples = np.round(pix).astype(">u2")
    header = f"P5\n{field.grid.nx} {field.grid.nz}\n65535\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(samples.tobytes())
    except OSError as exc:
        raise IOError(f"writing PGM to {path}: {exc}") from exc


def read_pgm(path) -> np.ndarray:
    """Read back an export_pgm file as a uint16 matrix."""
    try:
        with open(path, "rb") as fh:
            magic = fh.readline().strip()
            if magic != b"P5":
                raise IOError(f"{path}: not a binary PGM")
            dims = fh.readline().split()
            maxval = int(fh.readline())
            nx, nz = int(dims[0]), int(dims[1])
            if maxval != 65535:
                raise IOError(f"{path}: expected 16-bit PGM, maxval={maxval}")
            raw = fh.read(nx * nz * 2)
    except OSError as exc:
        raise IOError(f"reading PGM from {path}: {exc}") from exc
    vals = np.frombuffer(raw, dtype=">u2").reshape(nz, nx)
    return vals.astype(np.uint16)


def export_meta(path, scn: Scenario, lines: list[str], fingerprint: str) -> None:
    """Plain-text metadata: scenario echo, the given lines, fingerprint."""
    text = "\n".join(scenario_lines(scn) + lines + [f"fingerprint = {fingerprint}"])
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise IOError(f"writing metadata to {path}: {exc}") from exc


def export_field(field: DensityField, scn: Scenario, prefix: str, formats, *,
                 log_scale: bool = False, extra: list[str] | None = None) -> list[str]:
    """Write ``<prefix>.field.csv``, ``.field.pgm`` and ``.meta.txt`` for each of
    'csv', 'pgm', 'meta' in ``formats``; returns the paths written.  The meta
    file adds the grid, the extrema and the ``extra`` lines to the scenario echo."""
    if not set(formats) <= set(FORMATS):
        raise DomainError(f"unknown export format in {tuple(formats)}")
    written: list[str] = []
    if "csv" in formats:
        written.append(f"{prefix}.field.csv")
        export_csv(field, written[-1])
    if "pgm" in formats:
        written.append(f"{prefix}.field.pgm")
        export_pgm(field, written[-1], log_scale=log_scale)
    if "meta" in formats:
        written.append(f"{prefix}.meta.txt")
        lines = field.grid.lines() + [
            f"field.p_min = {field.p_min:.17g}",
            f"field.p_max = {field.p_max:.17g}",
        ]
        export_meta(written[-1], scn, lines + (extra or []), field.fingerprint)
    return written


def export_table_csv(path, header: str, rows) -> None:
    """A header, then one comma-separated line of 17-significant-digit values per row."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    except OSError as exc:
        raise IOError(f"writing CSV to {path}: {exc}") from exc


def export_profile_csv(profile: Profile, path) -> None:
    """x_m,p samples of one cross-section at full double precision."""
    export_table_csv(path, f"# z_m = {profile.z:.17g}\nx_m,p", zip(profile.x, profile.p))
