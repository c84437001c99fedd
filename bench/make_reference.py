"""Write the correctness-gate references of every workload.

    python3 bench/make_reference.py

Run this on the commit whose outputs are the reference (it was run on the
seed commit of the benchmark).  For each workload and size it runs one
default-worker pass, stores a fixed subsample of every output (see
``checks.sample_step``), and one traced pass for the seed's exact counts,
which the driver prints a comparison against.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from checks import sample_step
    from tracer import BOUNDARY, SPAN_NAMES
    from workloads import WORKLOADS

    for wl in WORKLOADS.values():
        record = {}
        for size, steps in wl.steps.items():
            run_dir = run.OUT / f"reference-{wl.name}-{size}"
            try:
                base = run.run_pass(steps, run_dir / "default", BOUNDARY, None, "default")
                traced = run.run_pass(steps, run_dir / "traced", SPAN_NAMES, 1, "traced")
                for sr in base.steps + traced.steps:
                    if sr.error is not None:
                        raise RuntimeError(f"{wl.name} {sr.preset}: {sr.error}")
                _, counts, _ = run.layer_pass(traced)
                record[size] = {
                    "steps": [sample_step(sr.written, sr.fields) for sr in base.steps],
                    "counts": {k: counts[k] for k in run.COUNT_KEYS},
                }
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
        path = run.HERE / "reference" / f"{wl.name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
