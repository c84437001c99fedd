"""tlsim benchmark driver.

Run from the root of a checkout:

    python3 bench/run.py --workload carpet --seed 1 --seconds 20 --trace 0

One run repeats a workload's presets through ``tlsim.presets.run_preset``
(the path a ``tlsim preset`` user takes) for ``--seconds``, checks every
output against the correctness gate in ``checks.py``, prints a report and
ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--trace 0`` measures the end-to-end metrics at the default worker count
with only the boundary functions timed.  ``--trace 1`` runs one
default-worker pass, then alternates untraced and traced one-worker passes
and reports the per-layer metrics.  ``--seed`` chooses only the quadrature
oracle's spot-check points; tlsim receives the preset inputs alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
PROBES = 7  # fresh-process set-ups per run; setup_s is their median
MIN_TRACED = 2  # traced passes per trace run, so the counts can be compared
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The gated end-to-end metrics.  export_s and ops_failed_frac are printed in
# the report only: export_s is a few milliseconds on gsm_beam, too noisy to
# gate, and ops_failed_frac is 0 when the outputs are right (the result line
# carries it as failed / attempted).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

BRANCHES = ("standard", "paraxial", "hard", "limit")
INCLUSIVE = (
    "coherence.coherence_sweep",
    "coherence.resonance_scan",
    "coherence.focusing_contrast",
    "fieldgrid.export_csv",
    "fieldgrid.export_pgm",
    "fieldgrid.export_meta",
)


def per_layer_units(span_names) -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in span_names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for br in BRANCHES:
        units[f"propagators.behind_row.{br}.self_s"] = "s"
        units[f"propagators.behind_row.{br}.path_terms"] = "count"
        units[f"propagators.behind_row.{br}.ns_per_term"] = "ns"
    units.update({
        "propagators.behind_row.buffer_mb_max": "MB",
        "propagators.between_row.path_terms": "count",
        "propagators.between_row.ns_per_term": "ns",
        "propagators.reduce_paths.computed_bytes": "B",
        "coherence.gsm_average.kernel_terms": "count",
        "coherence.gsm_average.ns_per_term": "ns",
    })
    units.update({f"{name}.s": "s" for name in INCLUSIVE})
    units.update({
        "fieldgrid.export_csv.mb_per_s": "MB/s",
        "fieldgrid.bytes_written": "B",
        "fieldgrid.rows": "count",
        "fieldgrid.row_ms.p50": "ms",
        "fieldgrid.row_ms.p90": "ms",
        "fieldgrid.row_ms.n": "count",
        "fieldgrid.pool_speedup": "ratio",
        "setup.import_s": "s",
        "config.build_run_config.s": "s",
        "oracle.spot_checks": "count",
        "oracle.max_rel_err": "ratio",
        "oracle.s": "s",
        "trace.wall_s": "s",
        "trace.uncovered_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.unclassified_calls": "count",
    })
    return units


# Exact counts of one traced pass; they must repeat from pass to pass.
COUNT_KEYS = tuple(f"propagators.behind_row.{br}.path_terms" for br in BRANCHES) + (
    "propagators.behind_row.buffer_mb_max",
    "propagators.between_row.path_terms",
    "propagators.reduce_paths.computed_bytes",
    "coherence.gsm_average.kernel_terms",
    "fieldgrid.rows",
    "fieldgrid.bytes_written",
)


@dataclass
class StepRun:
    preset: str
    written: list[str]
    fields: list
    error: str | None
    sizes: dict[str, int] = field(default_factory=dict)  # bytes per file written


@dataclass
class Pass:
    mode: str  # "default" (default workers), "serial" (one worker) or "traced"
    wall: float
    spans: list
    steps: list[StepRun]
    unclassified: int = 0
    missing: list[str] = field(default_factory=list)

    def bytes_written(self, suffix: str = "") -> int:
        return sum(n for s in self.steps for p, n in s.sizes.items() if p.endswith(suffix))


def _silent(*_args) -> None:
    pass


def run_pass(steps, out_dir: Path, names, workers: int | None, mode: str) -> Pass:
    """Run every step once through run_preset with the given spans recorded."""
    from tlsim import presets
    from tracer import Tracer

    runs = []
    with Tracer(names=names) as tracer:
        grids = tracer.grids
        t0 = time.perf_counter()
        for step in steps:
            before = len(grids)
            try:
                written = presets.run_preset(step.preset, out_dir, threads=workers,
                                             nx=step.nx, nz=step.nz, echo=_silent)
                error = None
            except Exception as exc:  # a raising preset fails its operations
                written, error = [], f"{type(exc).__name__}: {exc}"
            runs.append(StepRun(step.preset, written, grids[before:], error))
        wall = time.perf_counter() - t0
    for sr in runs:
        sr.sizes = {p: os.path.getsize(p) for p in sr.written if os.path.isfile(p)}
    return Pass(mode, wall, tracer.spans, runs, tracer.unclassified, tracer.missing)


def end_to_end_passes(steps, run_dir: Path, seconds: float, gate: Gate) -> list[Pass]:
    """Default-worker passes until the next one would overrun ``seconds``."""
    from tracer import BOUNDARY

    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p.wall for p in passes)) <= seconds:
        out = run_dir / f"{len(passes):02d}"
        passes.append(gate.check(run_pass(steps, out, BOUNDARY, None, "default"), out))
    return passes


def traced_passes(steps, run_dir: Path, seconds: float, gate: Gate) -> list[Pass]:
    """One default-worker pass, then serial and traced one-worker passes."""
    from tracer import BOUNDARY, SPAN_NAMES

    passes: list[Pass] = []
    modes = {"default": (BOUNDARY, None), "serial": (BOUNDARY, 1), "traced": (SPAN_NAMES, 1)}

    def go(mode: str) -> None:
        names, workers = modes[mode]
        out = run_dir / f"{len(passes):02d}"
        passes.append(gate.check(run_pass(steps, out, names, workers, mode), out))

    start = time.perf_counter()
    for mode in ("default", "serial") + ("traced",) * MIN_TRACED:
        go(mode)

    def pair() -> float:
        return sum(statistics.median(p.wall for p in passes if p.mode == m)
                   for m in ("serial", "traced"))

    while time.perf_counter() - start + pair() <= seconds:
        go("serial")
        go("traced")
    return passes


def probe_setup(steps, n: int) -> list[dict]:
    """Time ``n`` fresh processes from spawn to their first evaluation call."""
    args = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src")]
    args += [f"{s.preset}:{s.nx or ''}:{s.nz or ''}" for s in steps]
    out = []
    for _ in range(n):
        # time.time() is one clock for all processes, so the child's stamp of
        # its ready point can be compared with the moment it was spawned.
        t0 = time.time()
        proc = subprocess.run(args, capture_output=True, text=True, timeout=120, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        rec = json.loads(lines[-1])
        rec["setup_s"] = rec["ready"] - t0
        out.append(rec)
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped children (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * 1024 / 1e6  # Linux reports KiB


def samples_per_pass(steps) -> int:
    from tlsim.presets import preset_run_config

    total = 0
    for step in steps:
        if step.samples is None:
            grid = preset_run_config(step.preset, nx=step.nx, nz=step.nz).grid
            total += grid.nx * grid.nz
        else:
            total += step.samples
    return total


# ---------------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------------


@dataclass
class Gate:
    """Checks each pass as it finishes, then deletes its files and, after the
    first pass, drops its grids.  A run therefore holds one pass of outputs
    whatever its pass count, which keeps the driver's own memory out of
    ``peak_rss_mb``."""

    refs: list[dict]
    parity: bool
    ops: list[tuple[str, list[str]]] = field(default_factory=list)
    base: Pass | None = None
    count: int = 0

    def check(self, p: Pass, out_dir: Path) -> Pass:
        import numpy as np
        from checks import check_step

        tag = f"pass {self.count} ({p.mode})"
        for sr, ref in zip(p.steps, self.refs):
            n_ops = 1 + len(ref["files"])
            if sr.error is not None:
                self.ops += [(f"{tag} {sr.preset}", [sr.error])] * n_ops
                continue
            try:
                step_ops = check_step(ref, sr.written, sr.fields, self.parity)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                step_ops = [("outputs", [f"unreadable: {type(exc).__name__}: {exc}"])] * n_ops
            self.ops += [(f"{tag} {sr.preset} {label}", problems) for label, problems in step_ops]
        if self.base is None:
            self.base = p
        else:
            for sr, sb in zip(p.steps, self.base.steps):
                for f, fb in zip(sr.fields, sb.fields):
                    same = np.array_equal(f.values, fb.values)
                    self.ops.append((f"{tag} {sr.preset} bit-identical to pass 0 ({self.base.mode})",
                                     [] if same else ["grid differs from the first pass"]))
                sr.fields = []
        shutil.rmtree(out_dir, ignore_errors=True)
        self.count += 1
        return p


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------


def layer_pass(p: Pass) -> tuple[dict, dict, list[float]]:
    """(seconds, exact counts, row seconds) of one traced pass."""
    from tracer import SPAN_NAMES, self_times, total

    spans = p.spans
    selfs = self_times(spans)
    secs: dict[str, float] = {}
    counts: dict[str, float] = {}
    by_name: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    for name, idx in by_name.items():
        counts[f"{name}.calls"] = len(idx)
        secs[f"{name}.self_s"] = sum(selfs[i] for i in idx)

    def attrs(name: str) -> list[tuple[int, dict]]:
        return [(i, spans[i][4]) for i in by_name[name] if spans[i][4]]

    behind = [(i, a) for i, a in attrs("propagators.behind_row") if "branch" in a]
    for br in BRANCHES:
        sel = [(i, a) for i, a in behind if a["branch"] == br]
        secs[f"propagators.behind_row.{br}.self_s"] = sum(selfs[i] for i, _ in sel)
        counts[f"propagators.behind_row.{br}.path_terms"] = sum(a["terms"] for _, a in sel)
    counts["propagators.behind_row.buffer_mb_max"] = max(
        (a["buffer_bytes"] for _, a in behind), default=0) / 1e6
    counts["propagators.between_row.path_terms"] = sum(
        a.get("terms", 0) for _, a in attrs("propagators.between_row"))
    counts["propagators.reduce_paths.computed_bytes"] = sum(
        a.get("computed_bytes", 0) for _, a in attrs("propagators.reduce_paths"))
    counts["coherence.gsm_average.kernel_terms"] = sum(
        a.get("terms", 0) for _, a in attrs("coherence.gsm_average"))
    for name in INCLUSIVE:
        secs[f"{name}.s"] = total(spans, name)

    rows = [s[2] - s[1] for s in spans
            if s[0] == "coherence.spectral_density_profile" and s[3] >= 0
            and spans[s[3]][0] == "fieldgrid.evaluate_grid"]
    counts["fieldgrid.rows"] = len(rows)
    counts["fieldgrid.bytes_written"] = p.bytes_written()
    secs["trace.wall_s"] = p.wall
    secs["trace.uncovered_s"] = p.wall - sum(s[2] - s[1] for s in spans if s[3] < 0)
    return secs, counts, rows


def per_layer_metrics(passes: list[Pass], probes: list[dict], oracle: tuple) -> tuple[dict, list[str]]:
    """Per-layer metrics and count-drift problems of a trace run."""
    import numpy as np
    from checks import count_drift
    from tracer import SPAN_NAMES, total

    med = statistics.median
    traced = [p for p in passes if p.mode == "traced"]
    serial = [p for p in passes if p.mode == "serial"]
    default = [p for p in passes if p.mode == "default"]
    per_pass = [layer_pass(p) for p in traced]
    counts = [c for _, c, _ in per_pass]
    drift = count_drift([{k: c[k] for k in COUNT_KEYS} for c in counts])
    drift += count_drift([{"fieldgrid.bytes_written": p.bytes_written()} for p in passes])

    m: dict[str, float] = dict(counts[0])
    for key in per_pass[0][0]:
        m[key] = med(s[key] for s, _, _ in per_pass)

    def ns_per(secs_key: str, terms_key: str) -> float:
        return 1e9 * m[secs_key] / m[terms_key] if m[terms_key] else 0.0

    for br in BRANCHES:
        pre = f"propagators.behind_row.{br}"
        m[f"{pre}.ns_per_term"] = ns_per(f"{pre}.self_s", f"{pre}.path_terms")
    m["propagators.between_row.ns_per_term"] = ns_per(
        "propagators.between_row.self_s", "propagators.between_row.path_terms")
    m["coherence.gsm_average.ns_per_term"] = ns_per(
        "coherence.gsm_average.self_s", "coherence.gsm_average.kernel_terms")

    rows_ms = [1e3 * r for _, _, rows in per_pass for r in rows]
    p50, p90 = np.percentile(rows_ms, [50, 90]) if rows_ms else (0.0, 0.0)
    m["fieldgrid.row_ms.p50"] = float(p50)
    m["fieldgrid.row_ms.p90"] = float(p90)
    m["fieldgrid.row_ms.n"] = len(rows_ms)
    grid_s = [total(p.spans, "fieldgrid.evaluate_grid") for p in default]
    serial_grid_s = [total(p.spans, "fieldgrid.evaluate_grid") for p in serial]
    m["fieldgrid.pool_speedup"] = med(serial_grid_s) / med(grid_s) if med(grid_s) else 0.0
    csv_mb = med(p.bytes_written(".field.csv") for p in traced) / 1e6
    csv_s = m["fieldgrid.export_csv.s"]
    m["fieldgrid.export_csv.mb_per_s"] = csv_mb / csv_s if csv_s else 0.0

    m["setup.import_s"] = med(r["import_s"] for r in probes)
    m["config.build_run_config.s"] = med(r["config_s"] for r in probes)
    _, errors, oracle_s = oracle
    m["oracle.spot_checks"] = len(errors)
    m["oracle.max_rel_err"] = max(errors, default=0.0)
    m["oracle.s"] = oracle_s
    m["trace.overhead_frac"] = med(p.wall for p in traced) / med(p.wall for p in serial) - 1.0
    m["trace.unclassified_calls"] = sum(p.unclassified for p in traced)

    units = per_layer_units(SPAN_NAMES)
    return {k: {"value": m[k], "unit": u} for k, u in units.items()}, drift


# ---------------------------------------------------------------------------
# Host record.
# ---------------------------------------------------------------------------


def host_record(seed: int, workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: reduced grids for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS pools before numpy loads, so the driver and its workers use
    # no more threads than there are CPUs.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("TLSIM_THREADS", None)  # default worker count = CPU count
    src = ROOT / "src"
    if not (src / "tlsim" / "__init__.py").is_file():
        print(f"error: no tlsim sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # These import tlsim, so they load only after its path is set.
    from checks import count_drift, run_oracle
    from tlsim.fieldgrid import default_workers
    from tracer import export_seconds
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    ref_path = HERE / "reference" / f"{wl.name}.json"
    refs = json.loads(ref_path.read_text())[args.size]
    steps = wl.steps[args.size]
    workers = default_workers()
    samples = samples_per_pass(steps)

    run_dir = OUT / f"run-{wl.name}-{os.getpid()}"
    gate = Gate(refs["steps"], wl.parity)
    try:
        if args.trace:
            passes = traced_passes(steps, run_dir, args.seconds, gate)
        else:
            passes = end_to_end_passes(steps, run_dir, args.seconds, gate)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    rss = peak_rss_mb()
    ops = gate.ops
    probes = probe_setup(steps, PROBES)
    oracle = run_oracle(wl.oracle_preset, wl.oracle_points, args.seed)
    ops += oracle[0]

    med = statistics.median
    if args.trace:
        metrics, drift = per_layer_metrics(passes, probes, oracle)
        report = {}
        counts = {k: metrics[k]["value"] for k in COUNT_KEYS}
    else:
        walls = [p.wall for p in passes]
        exports = [export_seconds(p.spans) for p in passes]
        drift = count_drift(
            [{"fieldgrid.bytes_written": p.bytes_written()} for p in passes])
        values = {
            "setup_s": med(r["setup_s"] for r in probes),
            "wall_s": med(walls),
            "samples_per_s": samples / med(w - e for w, e in zip(walls, exports)),
            "peak_rss_mb": rss,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        report = {"export_s": {"value": med(exports), "unit": "s"}}
        counts = None
    ops.append(("counts repeat across passes", drift))

    failures = [(label, problems) for label, problems in ops if problems]
    host = host_record(args.seed, workers)
    modes = ", ".join(f"{sum(p.mode == m for p in passes)} {m}" for m in ("default", "serial", "traced")
                      if any(p.mode == m for p in passes))
    print(f"tlsim benchmark: workload {wl.name} (size {args.size}, trace {args.trace}, "
          f"seed {args.seed}; passes: {modes}; {workers} workers)")
    print(f"  why: {wl.why}")
    print("  presets: " + "; ".join(
        f"{s.preset}" + (f" nx={s.nx}" if s.nx else "") + (f" nz={s.nz}" if s.nz else "")
        for s in steps) + f"; {samples} output density samples per pass")
    for name, rec in {**metrics, **report}.items():
        print(f"  {name:48s} {rec['value']:.6g} {rec['unit']}")
    print(f"  ops_failed_frac {len(failures) / len(ops):.6g} ({len(failures)} of {len(ops)} operations)")
    for label, problems in failures[:20]:
        print(f"  FAIL {label}: {'; '.join(problems)}")
    missing = sorted({n for p in passes for n in p.missing})
    if missing:
        print(f"  note: not found in tlsim, reported as 0: {', '.join(missing)}")
    if counts is not None:
        seed_counts = refs["counts"]
        diff = [f"{k}: {seed_counts.get(k)} -> {v}" for k, v in counts.items() if seed_counts.get(k) != v]
        print("  counts vs seed-commit record: " + ("identical" if not diff else "; ".join(diff)))
    print("host: " + json.dumps(host, sort_keys=True))

    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(dict(result, report=report, host=host), indent=1))
    if args.trace:
        spans = [{"mode": p.mode, "wall_s": p.wall, "spans": p.spans} for p in passes if p.mode == "traced"]
        (OUT / f"trace-{stem}.json").write_text(json.dumps({"host": host, "passes": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
