"""Correctness gate of the benchmark.

Optimisations may change bits, so outputs are compared with tolerances:

* every stored reference sample (taken from the seed commit at the same
  size) must agree to within ``REL_TOL`` times its row maximum;
* on-axis grids keep mirror parity p(x) = p(-x) to ``PARITY_TOL`` of the
  field maximum, the bound the acceptance suite uses;
* every file written is well formed and agrees with the in-memory result;
* single-path closed forms agree with ``quadrature_oracle`` to ``REL_TOL``
  at seed-chosen points inside the diffraction cone;
* the exact work counts repeat from pass to pass.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

REL_TOL = 1e-10
PARITY_TOL = 1e-9
GRID_COLS = 17  # columns kept per grid row in the reference
TABLE_ROWS = 33  # rows kept per table file in the reference


# ---------------------------------------------------------------------------
# Reference samples.
# ---------------------------------------------------------------------------


def grid_sample(values: np.ndarray) -> dict:
    """Every row of a density grid at GRID_COLS fixed columns, with row maxima."""
    nz, nx = values.shape
    cols = np.unique(np.linspace(0, nx - 1, min(nx, GRID_COLS)).round().astype(int))
    return {
        "shape": [nz, nx],
        "cols": cols.tolist(),
        "values": values[:, cols].tolist(),
        "row_max": values.max(axis=1).tolist(),
    }


def compare_grid(ref: dict, values: np.ndarray) -> list[str]:
    if list(values.shape) != ref["shape"]:
        return [f"grid shape {list(values.shape)} != reference {ref['shape']}"]
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        return ["grid has negative or non-finite densities"]
    scale = np.asarray(ref["row_max"])
    problems = []
    got = values[:, ref["cols"]]
    err = np.abs(got - np.asarray(ref["values"])) / scale[:, None]
    if np.any(err > REL_TOL):
        i, j = np.unravel_index(int(np.argmax(err)), err.shape)
        problems.append(
            f"grid sample row {i} col {ref['cols'][j]} off by {err[i, j]:.3e} of its row maximum"
        )
    row_err = np.abs(values.max(axis=1) - scale) / scale
    if np.any(row_err > REL_TOL):
        problems.append(f"grid row maximum off by {row_err.max():.3e}")
    return problems


def _is_density(column: str) -> bool:
    return column == "p" or column.startswith("p_") or column == "delta_p"


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a CSV table (``#`` lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


def table_sample(path) -> dict:
    header, rows = read_table(path)
    dens = [_is_density(c) for c in header]
    keep = np.unique(np.linspace(0, len(rows) - 1, min(len(rows), TABLE_ROWS)).round().astype(int))
    return {
        "header": header,
        "n_rows": len(rows),
        "rows": keep.tolist(),
        "values": rows[keep].tolist(),
        "profile_max": float(np.abs(rows[:, dens]).max()),
    }


def compare_table(ref: dict, path) -> list[str]:
    """Densities to REL_TOL of their profile maximum, visibility (which is
    dimensionless and at most 1) to REL_TOL absolute, other columns to
    REL_TOL relative.

    A sweep file holds one profile summary per line, so each line is its own
    profile; any other table is one profile per file.
    """
    header, rows = read_table(path)
    if header != ref["header"] or len(rows) != ref["n_rows"]:
        return [f"{os.path.basename(path)}: layout {header} x {len(rows)} != reference"]
    got = rows[ref["rows"]]
    want = np.asarray(ref["values"])
    dens = np.array([_is_density(c) for c in header])
    vis = np.array([c == "visibility" for c in header])
    if str(path).endswith(".sweep.csv"):
        profile_max = np.abs(want[:, dens]).max(axis=1, keepdims=True)
    else:
        profile_max = ref["profile_max"]
    scale = np.where(dens, profile_max, np.where(vis, 1.0, np.abs(want)))
    bad = np.abs(got - want) > REL_TOL * scale
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return [f"{os.path.basename(path)}: row {ref['rows'][i]} {header[j]} = {got[i, j]!r}, "
                f"reference {want[i, j]!r}"]
    return []


# ---------------------------------------------------------------------------
# Output files against the in-memory field.
# ---------------------------------------------------------------------------


def check_field_csv(path, field, ref: dict) -> list[str]:
    """Header, row count and the sampled rows, read line by line so that the
    check holds little memory next to the program's."""
    nz, nx = field.values.shape
    x, z = field.grid.x_axis(), field.grid.z_axis()
    sampled = {1 + i * nx + j: (i, j) for i in range(nz) for j in ref["cols"]}
    name = os.path.basename(path)
    n = -1
    with open(path, "rb") as fh:
        for n, line in enumerate(fh):
            if n == 0 and line != b"x_m,z_m,p\n":
                return [f"{name}: header {line!r}"]
            if n in sampled:
                i, j = sampled[n]
                want = (x[j], z[i], field.values[i, j])
                got = tuple(float(v) for v in line.split(b","))
                if got != want:
                    return [f"{name}: row {i} col {j} reads {got}, field has {want}"]
    if n != nx * nz:
        return [f"{name}: {n} rows, expected {nx * nz}"]
    return []


def check_field_pgm(path, field, ref: dict) -> list[str]:
    nz, nx = field.values.shape
    header = f"P5\n{nx} {nz}\n65535\n".encode("ascii")
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(header) or len(data) != len(header) + 2 * nx * nz:
        return [f"{os.path.basename(path)}: bad header or size"]
    pix = np.frombuffer(data[len(header):], dtype=">u2").reshape(nz, nx)[:, ref["cols"]]
    want = np.round(field.values[:, ref["cols"]] / field.p_max * 65535.0)
    if np.any(np.abs(pix - want) > 1):
        return [f"{os.path.basename(path)}: pixels disagree with the linear map of the field"]
    return []


def _meta_lines(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        pairs = (ln.split(" = ", 1) for ln in fh.read().splitlines() if " = " in ln)
        return {k: v for k, v in pairs}


def check_meta(path, fingerprint: str, field=None) -> list[str]:
    meta = _meta_lines(path)
    if meta.get("fingerprint") != fingerprint:
        return [f"{os.path.basename(path)}: fingerprint {meta.get('fingerprint')} != {fingerprint}"]
    if field is not None and float(meta.get("field.p_max", "nan")) != field.p_max:
        return [f"{os.path.basename(path)}: field.p_max does not match the field"]
    return []


def check_parity(values: np.ndarray) -> list[str]:
    asym = float(np.max(np.abs(values - values[:, ::-1]))) / max(float(values.max()), 1e-300)
    return [] if asym <= PARITY_TOL else [f"mirror parity residual {asym:.3e} > {PARITY_TOL:g}"]


# ---------------------------------------------------------------------------
# Quadrature oracle spot checks.
# ---------------------------------------------------------------------------


def oracle_points(preset: str, count: int, rng) -> list[tuple]:
    """Seed-chosen single paths and detector points inside the diffraction cone.

    The G1 slit lies within one diffraction width of where the source ray
    through the G0 slit lands, and the detector point within two widths of
    the ray continued through the G1 slit: outside the cone the field is
    exponentially small and a relative comparison is meaningless.
    """
    from tlsim.core import slit_positions
    from tlsim.presets import preset_run_config

    rc = preset_run_config(preset)
    scn, grid = rc.scenario, rc.grid
    x0s, x1s = slit_positions(scn.grating0), slit_positions(scn.grating1)
    z0, z1, zs, lam = scn.z0, scn.z1, scn.source.z_s, scn.lam
    b0, b1 = scn.grating0.half_width, scn.grating1.half_width
    w0 = (z1 - z0) * lam / (math.pi * b0)
    points = []
    for _ in range(count):
        xs = float(rng.choice(scn.source.x_positions))
        x0 = float(rng.choice(x0s))
        land = x0 + (x0 - xs) / (z0 - zs) * (z1 - z0)
        x1 = float(rng.choice(x1s[np.abs(x1s - land) <= w0]))
        z_lo = max(grid.z_min, z1)
        z = z_lo + (grid.z_max - z_lo) * float(rng.uniform(0.05, 1.0))
        ray = x1 + (x1 - x0) / (z1 - z0) * (z - z1)
        width = max(b1, (z - z1) * lam / (math.pi * b1))
        x = ray + float(rng.uniform(-2.0, 2.0)) * width
        points.append((scn, xs, x0, x1, x, z))
    return points


def oracle_check(scn, xs: float, x0: float, x1: float, x: float, z: float) -> float:
    """Relative error of the closed-form single path against the quadrature."""
    from tlsim.oracle import quadrature_oracle
    from tlsim.propagators import PathContext, psi_behind, psi_hard_edge

    ctx = PathContext(particle=scn.particle, grating0=scn.grating0, grating1=scn.grating1,
                      x_s=xs, z_s=scn.source.z_s, x0=x0, x1=x1)
    if scn.propagator == "hard-edge":
        closed, ref = psi_hard_edge(ctx, x, z), quadrature_oracle(ctx, x, z, "comb")
    else:
        closed, ref = psi_behind(ctx, x, z), quadrature_oracle(ctx, x, z, "fuzzy")
    return abs(closed - ref) / abs(ref)


def run_oracle(preset: str | None, count: int, seed: int) -> tuple[list[tuple[str, list[str]]], list[float], float]:
    """(operations, relative errors, seconds) of the spot checks."""
    if preset is None or count == 0:
        return [], [], 0.0
    t0 = time.perf_counter()
    ops, errors = [], []
    for k, (scn, xs, x0, x1, x, z) in enumerate(oracle_points(preset, count, np.random.default_rng(seed))):
        label = f"oracle {preset} #{k} (x_s={xs:.3g}, x0={x0:.3g}, x1={x1:.3g}, x={x:.4g}, z={z:.5g})"
        try:
            err = oracle_check(scn, xs, x0, x1, x, z)
        except Exception as exc:  # a raising check is a failed operation
            ops.append((label, [f"{type(exc).__name__}: {exc}"]))
            continue
        errors.append(err)
        ops.append((label, [] if err <= REL_TOL else [f"relative error {err:.3e} > {REL_TOL:g}"]))
    return ops, errors, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Exact counts.
# ---------------------------------------------------------------------------


def count_drift(per_pass: list[dict]) -> list[str]:
    """Counts that differ between passes of the same run (they must not)."""
    first = per_pass[0]
    problems = []
    for k, counts in enumerate(per_pass[1:], start=1):
        for key in sorted(set(first) | set(counts)):
            if first.get(key) != counts.get(key):
                problems.append(f"{key}: pass 0 has {first.get(key)}, pass {k} has {counts.get(key)}")
    return problems


# ---------------------------------------------------------------------------
# One run_preset call: its operations.
# ---------------------------------------------------------------------------


def sample_step(written: list[str], fields: list) -> dict:
    """Reference record of one run_preset call (see ``check_step``)."""
    ref = {"files": [os.path.basename(p) for p in written]}
    if fields:
        (field,) = fields
        ref["grid"] = grid_sample(field.values)
        ref["fingerprint"] = field.fingerprint
    else:
        ref["tables"] = {os.path.basename(p): table_sample(p) for p in written if p.endswith(".csv")}
        (meta,) = [p for p in written if p.endswith(".meta.txt")]
        ref["fingerprint"] = _meta_lines(meta)["fingerprint"]
    return ref


def check_step(ref: dict, written: list[str], fields: list, parity: bool) -> list[tuple[str, list[str]]]:
    """Operations of one run_preset call as (label, problems).

    A field preset has one grid operation; a table preset has one operation
    for its sweep or profile set.  Every file in the reference is one more
    operation, failed when it is missing or wrong.
    """
    by_name = {os.path.basename(p): p for p in written}
    ops = []
    if "grid" in ref:
        field = fields[0] if len(fields) == 1 else None
        if field is None:
            ops.append(("grid", [f"expected one grid evaluation, saw {len(fields)}"]))
        else:
            problems = compare_grid(ref["grid"], field.values)
            if parity:
                problems += check_parity(field.values)
            ops.append(("grid", problems))
    else:
        problems = []
        for name, table in ref["tables"].items():
            if name in by_name:
                problems += compare_table(table, by_name[name])
            else:
                problems.append(f"{name} not written")
        ops.append(("table values", problems))

    for name in ref["files"]:
        path = by_name.get(name)
        if path is None or not os.path.isfile(path):
            ops.append((name, ["not written"]))
        elif name.endswith(".meta.txt"):
            ops.append((name, check_meta(path, ref["fingerprint"], field if "grid" in ref else None)))
        elif "grid" not in ref:
            header, rows = read_table(path)
            table = ref["tables"][name]
            ok = header == table["header"] and len(rows) == table["n_rows"]
            ops.append((name, [] if ok else [f"layout {header} x {len(rows)} != reference"]))
        elif field is None:
            ops.append((name, ["no grid to compare with"]))
        elif name.endswith(".csv"):
            ops.append((name, check_field_csv(path, field, ref["grid"])))
        else:
            ops.append((name, check_field_pgm(path, field, ref["grid"])))
    extra = sorted(set(by_name) - set(ref["files"]))
    if extra:
        ops.append(("files", [f"unexpected outputs {extra}"]))
    return ops
