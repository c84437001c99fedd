"""Batch command-line interface.

Commands
--------
run           evaluate the field described by a config file and export it
preset        run one of the named figure-reproduction presets
scan          sweep one whitelisted parameter, one metrics row per value
oracle-check  compare the closed-form propagators against brute-force
              quadrature on randomized configurations

A config file describes the experiment only; how a run is shown
(``--log-scale``) and what a scan sweeps (``--param``/``--values``, both
required) are flags.  ``--threads`` alone sets the worker count for grid
rows and sweep columns (default: the CPU count); results are bit-identical
for any value.  The count, a config's grid against its region and every sweep
value are checked before any output is written.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .coherence import evaluate_densities, fringe_metrics, sweep_profiles, talbot_section
from .config import ConfigError, config_help, parse_config, parse_length
from .core import DomainError
from .fieldgrid import DensityField, evaluate_grid, export_field, export_table_csv
from .oracle import OracleConvergenceError, quadrature_oracle, random_oracle_case
from .parallel import WorkerError, default_workers
from .presets import preset_names, run_preset
from .propagators import psi_behind, psi_hard_edge
from .scenario import SWEEPABLE_PARAMS, fingerprint


def _read_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([(0, f"cannot read config {path}: {exc}")]) from exc
    return parse_config(text)


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def cmd_run(args) -> int:
    rc = _read_config(args.config)
    field = evaluate_grid(rc.scenario, rc.grid, workers=args.threads)
    os.makedirs(args.out, exist_ok=True)
    stem = _stem(args.config)
    written = export_field(field, rc.scenario, os.path.join(args.out, stem), rc.formats,
                           log_scale=args.log_scale)
    print(f"{stem}: p_min={field.p_min:.6g} p_max={field.p_max:.6g}")
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_preset(args) -> int:
    written = run_preset(
        args.name,
        args.out,
        threads=args.threads,
        nx=args.nx,
        nz=args.nz,
        log_scale=args.log_scale,
    )
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_scan(args) -> int:
    rc = _read_config(args.config)
    try:
        values = [parse_length(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError([(0, f"--values: {exc}")]) from None

    if args.fields:
        rc.scenario.check_in_region(f"{rc.scenario.region}-region grid", rc.grid.z_min, rc.grid.z_max)
    x, z_det = talbot_section(rc.scenario, args.samples)
    # rejects bad values before any field is evaluated
    profiles = sweep_profiles(rc.scenario, args.param, values, x, z_det, args.threads)
    grids = evaluate_densities([s for s, _ in profiles], rc.grid.x_axis(), rc.grid.z_axis(),
                               args.threads) if args.fields else None

    rows = [(v, m.p_min, m.p_max, m.visibility)
            for v, m in zip(values, (fringe_metrics(p) for _, p in profiles))]

    # everything is evaluated before the directory and the first file are made
    os.makedirs(args.out, exist_ok=True)
    stem = _stem(args.config)
    out_path = os.path.join(args.out, f"{stem}.sweep.csv")
    print(f"{stem}: {args.param}  P_min  P_max  V   (z = {z_det:.6g} m)")
    for i, ((v, p_min, p_max, vis), (scn_v, _)) in enumerate(zip(rows, profiles)):
        print(f"{stem}: {v:.6g}  {p_min:.6g}  {p_max:.6g}  {vis:.4f}")
        if args.fields:
            field = DensityField(rc.grid, grids[i], fingerprint(scn_v, rc.grid.lines()))
            [fp] = export_field(field, scn_v, os.path.join(args.out, f"{stem}.{args.param}_{i}"), ("pgm",))
            print(f"wrote {fp}")
    export_table_csv(out_path, f"{args.param},p_min,p_max,visibility", rows)
    print(f"wrote {out_path}")
    return 0


def cmd_oracle_check(args) -> int:
    if args.cases < 1:
        raise DomainError(f"--cases must be >= 1, got {args.cases}")
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for i in range(args.cases):
        ctx, x, z = random_oracle_case(rng, hard=(i % 3 == 2))
        hard = ctx.grating1.comb
        ref = quadrature_oracle(ctx, x, z, aperture_model="comb" if hard else "fuzzy")
        val = psi_hard_edge(ctx, x, z) if hard else psi_behind(ctx, x, z)
        err = abs(val - ref) / abs(ref)
        worst = max(worst, err)
        kind = f"comb K={ctx.grating1.comb_k}" if hard else "fuzzy"
        print(f"case {i:3d} [{kind:>10}]: rel err = {err:.3e}")
    print(f"max relative error over {args.cases} cases: {worst:.3e}")
    if worst >= 1e-6:
        print("FAIL: exceeds 1e-6", file=sys.stderr)
        return 1
    print("OK: all cases within 1e-6")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tlsim",
        description="Two-grating matter-wave interference simulator.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=config_help(),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="evaluate a config-file field and export it",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=config_help(),
    )
    run.add_argument("--config", required=True, help="flat key=value config file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--threads", type=int, default=None, help="worker processes (default: CPU count)")
    run.add_argument("--log-scale", action="store_true", help="log-scale PGM mapping")
    run.set_defaults(fn=cmd_run)

    pre = sub.add_parser("preset", help="run a named figure-reproduction preset")
    pre.add_argument("name", help="preset name; one of: " + ", ".join(preset_names()))
    pre.add_argument("--out", required=True, help="output directory")
    pre.add_argument("--threads", type=int, default=None)
    pre.add_argument("--nx", type=int, default=None, help="override grid x samples")
    pre.add_argument("--nz", type=int, default=None, help="override grid z samples")
    pre.add_argument("--log-scale", action="store_true")
    pre.set_defaults(fn=cmd_preset)

    scan = sub.add_parser("scan", help="sweep one parameter, one metrics row per value")
    scan.add_argument("--config", required=True)
    scan.add_argument("--out", required=True)
    scan.add_argument("--param", required=True, help="one of: " + ", ".join(SWEEPABLE_PARAMS))
    scan.add_argument("--values", required=True, help="comma-separated values (unit suffixes allowed)")
    scan.add_argument("--samples", type=int, default=1536, help="profile x samples")
    scan.add_argument("--fields", action="store_true", help="also export one field image per value")
    scan.add_argument("--threads", type=int, default=None)
    scan.set_defaults(fn=cmd_scan)

    oc = sub.add_parser(
        "oracle-check",
        help="closed forms vs brute-force quadrature on random configurations",
    )
    oc.add_argument("--cases", type=int, default=25)
    oc.add_argument("--seed", type=int, default=20260809)
    oc.set_defaults(fn=cmd_oracle_check)

    return ap


def _glue_values(argv: list[str]) -> list[str]:
    """``--values -0.5,-inf`` as ``--values=-0.5,-inf``: argparse reads a token
    that starts with '-' and is not a plain negative number as an option."""
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--values" and not argv[i].startswith("--"):
            argv[i - 1:i + 1] = [f"--values={argv[i]}"]
    return argv


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_glue_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if hasattr(args, "threads"):
            args.threads = default_workers(args.threads, name="--threads")
        return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DomainError, OracleConvergenceError, IOError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
