"""Every preset's numbers against the committed reference.

``make_preset_reference.py`` writes the reference and holds the sampling
and the tolerances.  The meta fingerprint line is left out of the
comparison: it hashes the scenario echo, which ``test_presets.FINGERPRINTS``
pins, and for fig16 and fig17 also numeric lines, which are compared here
to the tolerance and would otherwise be compared bit for bit.
"""

import json

import make_preset_reference as reference
import pytest

from tlsim.presets import PRESETS, preset_names, preset_run_config

REFERENCE = json.loads(reference.REFERENCE.read_text(encoding="utf-8"))


def test_reference_covers_every_preset_at_its_size():
    assert sorted(REFERENCE["presets"]) == preset_names()
    assert (REFERENCE["nx"], REFERENCE["nz"]) == (reference.NX, reference.NZ)


@pytest.mark.parametrize("name", preset_names())
def test_preset_matches_reference(name, tmp_path):
    entry = REFERENCE["presets"][name]
    problems = reference.compare(entry, *reference.run_and_sample(name, tmp_path))
    wrong = f" (known wrong: {entry['known_wrong']})" if entry["known_wrong"] else ""
    assert not problems, f"{name}{wrong}: {problems}"


def test_known_wrong_entries_are_the_k1_comb_outputs():
    """The marked entries exist, and a preset has some exactly when it runs
    the hard-edged comb at K = 1 and eta != 1."""
    for name, entry in REFERENCE["presets"].items():
        assert set(entry["known_wrong"]) <= set(entry["files"]) | {k for k, _ in entry["meta"]}
        g1 = preset_run_config(name).scenario.grating1
        k_list = PRESETS[name].get("k_list", (g1.comb_k,))
        assert bool(entry["known_wrong"]) == (g1.comb and g1.comb_eta != 1.0 and 1 in k_list), name
