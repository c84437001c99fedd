"""Write the preset reference that ``test_preset_reference.py`` compares with.

    PYTHONPATH=src python tests/make_preset_reference.py

Runs every preset at NX x NZ, in one process, and stores a subsample of
what it writes in ``tests/preset_reference.json``:

* a field grid: every row at GRID_COLS columns, symmetric about the axis
  (x = 0, both ends and mirror pairs), and each row's maximum;
* a table or profile: about TABLE_ROWS rows, with both ends, the central
  pair and the mirror of each kept row, and the profile maximum;
* the meta lines, and the ``# key = value`` lines heading a table.

Run it on the commit whose outputs are the reference.  A change that must
move values regenerates the file and lists each preset and value that moved
in CHANGES.md.  NX is odd so that the field axis holds x = 0.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "preset_reference.json"

NX, NZ = 65, 8
REL_TOL = 1e-10  # of the row (or profile) maximum, as the benchmark's gate
GRID_COLS = 17
TABLE_ROWS = 33

# Entries that are known to be wrong: the hard-edged comb with K = 1 and
# eta != 1 uses the slit width b1 where the comb form factor has width
# b1 * eta.  Their values are pinned as they are, so that the fix moves
# exactly these entries and its regenerated reference shows it.
KNOWN_WRONG_REASON = ("K = 1 hard-edged comb at eta != 1: behind_row takes the slit width b1 "
                      "where the comb form factor has width b1 * eta")
KNOWN_WRONG = {
    "fig14a": ["field.csv", "field.p_min", "field.p_max"],
    "fig17": ["contrast_k1.csv", "contrast.k1.peak", "contrast.k1.well"],
}


def _kept(n: int, k: int) -> list[int]:
    """About k of n indices, evenly spread, closed under i -> n - 1 - i and
    holding both ends and the central one or two."""
    i = np.linspace(0, n - 1, min(n, k)).round().astype(int).tolist()
    return sorted({*i, *(n - 1 - j for j in i), (n - 1) // 2, n // 2})


def _is_density(column: str) -> bool:
    return column == "p" or column.startswith("p_") or column == "delta_p"


def _number(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None


def read_outputs(name: str, paths) -> tuple[dict, list]:
    """The CSV files a preset run wrote, as (header, rows) keyed by their
    suffix after ``<name>.``, and its meta lines (key, value) in order.  The
    ``# key = value`` lines heading a table join the meta lines as
    ``<suffix>:<key>``; the fingerprint line is left out (see the test)."""
    tables, meta = {}, []
    for path in map(Path, paths):
        suffix = path.name[len(name) + 1:]
        if path.suffix == ".pgm":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        if suffix == "meta.txt":
            meta += [tuple(ln.split(" = ", 1)) for ln in lines if not ln.startswith("fingerprint = ")]
        elif suffix.endswith(".csv"):
            heads = [ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# ")]
            meta += [(f"{suffix}:{k}", v) for k, v in heads]
            body = [ln for ln in lines if not ln.startswith("#")]
            rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
            tables[suffix] = (body[0].split(","), rows.reshape(len(body) - 1, -1))
    return tables, meta


def _grid(rows: np.ndarray, meta: list) -> np.ndarray:
    nx = int(dict(meta)["grid.nx"])
    return rows[:, 2].reshape(-1, nx)


def sample(tables: dict, meta: list) -> dict:
    """The reference entry of one preset run (see the module docstring)."""
    files = {}
    for suffix, (header, rows) in tables.items():
        if header == ["x_m", "z_m", "p"]:
            p = _grid(rows, meta)
            cols = _kept(p.shape[1], GRID_COLS)
            files[suffix] = {"shape": list(p.shape), "cols": cols, "values": p[:, cols].tolist(),
                             "row_max": p.max(axis=1).tolist()}
            continue
        keep = _kept(len(rows), TABLE_ROWS)
        dens = np.abs(rows[:, [_is_density(c) for c in header]])
        # A sweep holds one profile summary per line; any other table is one profile.
        scale = dens.max(axis=1) if suffix.startswith("sweep") else np.full(len(rows), dens.max())
        files[suffix] = {"header": header, "n_rows": len(rows), "rows": keep,
                         "values": rows[keep].tolist(), "profile_max": scale[keep].tolist()}
    return {"files": files, "meta": [list(kv) for kv in meta]}


def _density_scale(entry: dict) -> float:
    """The preset's largest stored row or profile maximum."""
    return max(max(f.get("row_max", f.get("profile_max"))) for f in entry["files"].values())


def _first_bad(err: np.ndarray) -> tuple[int, ...] | None:
    return None if not np.any(err > REL_TOL) else np.unravel_index(int(np.argmax(err)), err.shape)


def compare(ref: dict, tables: dict, meta: list) -> list[str]:
    """Problems of a preset run against its reference entry; empty on a pass.

    Densities agree to REL_TOL of their row or profile maximum, a visibility
    (at most 1) to REL_TOL absolute and any other table value to REL_TOL of
    itself.  Text meta lines agree exactly, numeric ones to REL_TOL of the
    larger of the value and the preset's largest row maximum."""
    problems = []
    if sorted(tables) != sorted(ref["files"]):
        return [f"files {sorted(tables)} != reference {sorted(ref['files'])}"]
    for suffix, want in ref["files"].items():
        header, rows = tables[suffix]
        if "cols" in want:
            p = _grid(rows, meta)
            if list(p.shape) != want["shape"]:
                problems.append(f"{suffix}: shape {list(p.shape)} != reference {want['shape']}")
                continue
            scale = np.asarray(want["row_max"])
            err = np.abs(p[:, want["cols"]] - np.asarray(want["values"])) / scale[:, None]
            bad = _first_bad(err)
            if bad is not None:
                problems.append(f"{suffix}: row {bad[0]} col {want['cols'][bad[1]]} off by "
                                f"{err[bad]:.3e} of its row maximum")
            row_err = np.abs(p.max(axis=1) - scale) / scale
            if _first_bad(row_err) is not None:
                problems.append(f"{suffix}: a row maximum is off by {row_err.max():.3e}")
            continue
        if header != want["header"] or len(rows) != want["n_rows"]:
            problems.append(f"{suffix}: layout {header} x {len(rows)} != reference")
            continue
        ref_vals = np.asarray(want["values"])
        dens = np.array([_is_density(c) for c in header])
        vis = np.array([c == "visibility" for c in header])
        scale = np.where(dens, np.asarray(want["profile_max"])[:, None],
                         np.where(vis, 1.0, np.abs(ref_vals)))
        err = np.abs(rows[want["rows"]] - ref_vals) / np.where(scale > 0.0, scale, math.inf)
        err[(scale == 0.0) & (rows[want["rows"]] != ref_vals)] = math.inf
        bad = _first_bad(err)
        if bad is not None:
            problems.append(f"{suffix}: row {want['rows'][bad[0]]} {header[bad[1]]} off by "
                            f"{err[bad]:.3e} of its scale")
    if [k for k, _ in meta] != [k for k, _ in ref["meta"]]:
        return problems + [f"meta keys {[k for k, _ in meta]} != reference"]
    density_scale = _density_scale(ref)
    for (key, got), (_, want) in zip(meta, ref["meta"]):
        g, w = _number(got), _number(want)
        if got != want and (g is None or w is None
                            or not abs(g - w) <= REL_TOL * max(abs(w), density_scale)):
            problems.append(f"meta {key} = {got}, reference {want}")
    return problems


def run_and_sample(name: str, out_dir) -> tuple[dict, list]:
    """Run one preset at NX x NZ on one worker; its outputs as ``read_outputs``."""
    from tlsim.presets import run_preset

    written = run_preset(name, out_dir, nx=NX, nz=NZ, threads=1, echo=lambda *_: None)
    return read_outputs(name, written)


def main() -> int:
    from tlsim.presets import preset_names

    record = {"nx": NX, "nz": NZ, "known_wrong_reason": KNOWN_WRONG_REASON, "presets": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in preset_names():
            entry = sample(*run_and_sample(name, Path(tmp) / name))
            entry["known_wrong"] = KNOWN_WRONG.get(name, [])
            record["presets"][name] = entry
    presets = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in record.pop("presets").items())
    head = json.dumps(record)[:-1]
    REFERENCE.write_text(f'{head}, "presets": {{\n{presets}\n}}}}\n', encoding="utf-8")
    print(f"wrote {REFERENCE.name}: {len(preset_names())} presets at {NX} x {NZ}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
