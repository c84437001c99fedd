"""What the benchmark under ``bench/`` expects from tlsim.

Tier-1 does not collect ``bench/``, so a renamed function or parameter would
break the benchmark without failing a test.  These tests read the bench
modules and change nothing there.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from tlsim import presets

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """A bench module by file, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolves(module: str, name: str) -> bool:
    """``from module import name`` would succeed: an attribute or a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_imported_tlsim_name_resolves():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tlsim":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    assert [(f, m, n) for f, m, n in imported if not _resolves(m, n)] == []


def test_tracer_finds_and_classifies_every_layer(tmp_path):
    tracer_mod = _load("tracer")
    grids = (("fig4a", 64, 7), ("fig5a", 16, 4), ("fig15b", 32, 4))
    with tracer_mod.Tracer() as tracer:
        # the grids of the carpet, gsm_beam and comb_jet workloads' tiny size
        for preset, nx, nz in grids:
            presets.run_preset(preset, tmp_path / preset, threads=1, nx=nx, nz=nz,
                               echo=lambda *a: None)
    assert tracer.missing == []
    assert tracer.unclassified == 0
    seen = {span[0] for span in tracer.spans}
    assert {"presets.run_preset", "propagators.behind_row", "propagators.between_row",
            "coherence.gsm_average"} <= seen
    # bench/run.py reads fieldgrid.rows and row_ms from these spans: one per grid row
    rows = [s for s in tracer.spans if s[0] == "coherence.spectral_density_profile"
            and s[3] >= 0 and tracer.spans[s[3]][0] == "fieldgrid.evaluate_grid"]
    assert len(rows) == sum(nz for _, _, nz in grids)


def test_tracer_classifies_band_calls(tmp_path):
    """A spectral row is one kernel call for its whole band, whose ``lam``
    is an array: the tracer still classifies it."""
    tracer_mod = _load("tracer")
    with tracer_mod.Tracer() as tracer:
        presets.run_preset("fig12", tmp_path / "fig12", threads=1, nx=16, nz=4,
                           echo=lambda *a: None)
    assert tracer.missing == []
    assert tracer.unclassified == 0
    kernels = [s for s in tracer.spans
               if s[0] in ("propagators.behind_row", "propagators.between_row")]
    assert kernels and all(s[4]["terms"] > 0 for s in kernels)
    assert {s[4]["branch"] for s in kernels if "branch" in s[4]} == {"paraxial"}

    def in_grid(span):
        while span[3] >= 0:
            span = tracer.spans[span[3]]
            if span[0] == "fieldgrid.evaluate_grid":
                return True
        return False

    # the grid's rows at z = 0 and z1 lie between the gratings, two behind G1
    assert sorted(s[0] for s in kernels if in_grid(s)) == (
        ["propagators.behind_row"] * 2 + ["propagators.between_row"] * 2)


def test_tracer_classifies_source_batch_calls(tmp_path):
    """A GSM line row is one kernel call for all of its sources, whose
    ``x_s`` is an array: the tracer still classifies it."""
    tracer_mod = _load("tracer")
    with tracer_mod.Tracer() as tracer:
        presets.run_preset("fig5a", tmp_path / "fig5a", threads=1, nx=16, nz=4,
                           echo=lambda *a: None)
    assert tracer.missing == []
    assert tracer.unclassified == 0
    kernels = [s for s in tracer.spans
               if s[0] in ("propagators.behind_row", "propagators.between_row")]
    assert len(kernels) == 4 and all(s[4]["terms"] > 0 for s in kernels)


def test_tracer_sees_the_sweep_drivers(tmp_path):
    tracer_mod = _load("tracer")
    with tracer_mod.Tracer() as tracer:
        for preset in ("fig7", "fig11", "fig17"):
            presets.run_preset(preset, tmp_path / preset, threads=1, echo=lambda *a: None)
    assert tracer.missing == []
    assert tracer.unclassified == 0
    seen = {span[0] for span in tracer.spans}
    assert {"coherence.coherence_sweep", "coherence.resonance_scan",
            "coherence.focusing_contrast"} <= seen
    # fig7's 17 coherence widths share the source fields of their one chunk
    # (fig11 and fig17 have point sources)
    assert sum(s[0] == "coherence.source_field_matrix" for s in tracer.spans) == 1


def test_fig17_matches_the_benchmark_fingerprint(tmp_path):
    """fig17's meta fingerprint hashes its contrast peaks and wells at 17
    digits, and the benchmark compares it exactly with its reference: a
    changed bit of the hard-edged comb fails here, not only in the benchmark."""
    checks = _load("checks")
    ref = json.loads((BENCH / "reference" / "comb_jet.json").read_text(encoding="utf-8"))
    [step] = [s for s in ref["full"]["steps"] if "fig17.meta.txt" in s["files"]]
    presets.run_preset("fig17", tmp_path, threads=1, echo=lambda *a: None)
    assert checks._meta_lines(tmp_path / "fig17.meta.txt")["fingerprint"] == step["fingerprint"]


def test_oracle_spot_checks_pass():
    checks = _load("checks")
    for preset in ("fig4a", "fig15b"):
        (point,) = checks.oracle_points(preset, 1, np.random.default_rng(1))
        assert checks.oracle_check(*point) <= 1e-10
