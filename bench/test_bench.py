"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The tiny-size runs cover every workload in both modes; gsm_beam always runs
the full fig7 sweep, so the file takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import BOUNDARY, SPAN_NAMES, Tracer, fold_bytes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, size: str = "tiny") -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def test_spec_matches_driver():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units(SPAN_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert "ops_failed_frac 0 " in proc.stdout
    if not trace:
        assert "export_s" in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "carpet", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def carpet_tiny(tmp_path_factory):
    steps = WORKLOADS["carpet"].steps["tiny"]
    out = tmp_path_factory.mktemp("carpet")
    return [run.run_pass(steps, out / "a", SPAN_NAMES, 1, "traced"),
            run.run_pass(steps, out / "b", SPAN_NAMES, 1, "traced")]


def _reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())["tiny"]


def test_gate_accepts_seed_grid_and_rejects_perturbed(carpet_tiny):
    ref = _reference("carpet")["steps"][0]["grid"]
    values = carpet_tiny[0].steps[0].fields[0].values.copy()
    assert checks.compare_grid(ref, values) == []

    i, j = 3, ref["cols"][5]
    values[i, j] *= 1 + 1e-12
    assert checks.compare_grid(ref, values) == []
    values[i, j] *= 1 + 1e-8
    assert checks.compare_grid(ref, values)


def test_gate_rejects_perturbed_table(tmp_path):
    steps = WORKLOADS["spectral"].steps["tiny"]
    p = run.run_pass(steps[1:], tmp_path, BOUNDARY, 1, "default")
    (path,) = [f for f in p.steps[0].written if f.endswith(".sweep.csv")]
    ref = _reference("spectral")["steps"][1]["tables"]["fig11.sweep.csv"]
    assert checks.compare_table(ref, path) == []

    header, rows = checks.read_table(path)
    rows[4, header.index("p_max")] *= 1 + 1e-8
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert checks.compare_table(ref, path)


def test_count_check_rejects_changed_count(carpet_tiny):
    counts = [run.layer_pass(p)[1] for p in carpet_tiny]
    assert checks.count_drift(counts) == []
    assert counts[0]["propagators.behind_row.standard.path_terms"] > 0
    assert counts[0] == {**counts[0], **_reference("carpet")["counts"]}

    changed = dict(counts[1], **{"propagators.behind_row.standard.path_terms":
                                 counts[1]["propagators.behind_row.standard.path_terms"] + 1})
    assert checks.count_drift([counts[0], changed])


def test_self_times_account_for_the_pass(carpet_tiny):
    secs, _, _ = run.layer_pass(carpet_tiny[0])
    self_total = sum(v for k, v in secs.items() if k.endswith(".self_s")
                     and k.count(".") == 2)  # per function, not per behind_row branch
    assert self_total + secs["trace.uncovered_s"] == pytest.approx(secs["trace.wall_s"], rel=1e-9)


def test_tracer_wraps_every_lookup_site_and_restores():
    from tlsim import coherence, propagators, superposition

    before = (superposition.behind_row, coherence.reduce_paths, propagators.reduce_paths)
    with Tracer() as tracer:
        assert superposition.behind_row is not before[0]
        assert coherence.reduce_paths is propagators.reduce_paths
        assert coherence.reduce_paths is not before[1]
        assert tracer.missing == []
    assert (superposition.behind_row, coherence.reduce_paths, propagators.reduce_paths) == before


def test_fold_bytes_follows_reduce_paths():
    # 5 rows: sum 2 pairs (read 4, write 2), concatenate 3 rows (read and
    # write 3); sum 1 pair, concatenate 2; sum the last pair.
    assert fold_bytes(5, 1) == (6 + 6) + (3 + 4) + 3
