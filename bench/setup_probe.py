"""Set-up probe: what a fresh ``tlsim preset`` process does before evaluating.

Usage: python3 setup_probe.py SRC PRESET:NX:NZ [...]

Imports numpy and tlsim from SRC and builds each preset's run config, then
prints one JSON line with the import and config seconds and the wall-clock
time it got there.  The parent subtracts the time it spawned this process,
so the set-up time also covers interpreter start.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402,F401
import tlsim.presets  # noqa: E402

t1 = time.perf_counter()
for spec in sys.argv[2:]:
    name, nx, nz = spec.split(":")
    tlsim.presets.preset_run_config(name, nx=int(nx) if nx else None, nz=int(nz) if nz else None)
t2 = time.perf_counter()
ready = time.time()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "ready": ready}), flush=True)
