"""Span recording around tlsim's public functions, installed from outside.

Each wrapped function is replaced at every ``tlsim`` module attribute that
holds it, because the modules import each other's functions by name (for
example ``superposition.behind_row`` is the name ``superpose_behind`` calls).
A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory until the caller writes them.

The driver uses one recorder in two ways: with only the boundary functions
(grid evaluation, exporters, ``run_preset``) for the end-to-end passes, which
adds a handful of spans per pass, and with every layer for the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

from tlsim.core import is_paraxial

COMPLEX_BYTES = 16


def _bind(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counters read the call arguments by parameter name.  One that no longer
# fits the signature raises TypeError or KeyError; the call is then counted
# as unclassified and the wrapped function still runs.
COUNTER_ERRORS = (TypeError, KeyError, ValueError)


def count_behind_row(sig, args, kwargs) -> dict:
    """Branch and N1*N0*K*nx path terms of one ``behind_row`` call."""
    a = _bind(sig, args, kwargs)
    hard = bool(a["hard"])
    k = int(a["comb_k"]) if hard else 1
    terms = np.size(a["x1s"]) * np.size(a["x0s"]) * k * np.size(a["x"])
    if a["z"] == a["z1"]:
        branch = "limit"
    elif hard:
        branch = "hard"
    elif is_paraxial(a["z_s"]):
        branch = "paraxial"
    else:
        branch = "standard"
    return {"branch": branch, "terms": int(terms), "buffer_bytes": int(terms) * COMPLEX_BYTES}


def count_between_row(sig, args, kwargs) -> dict:
    a = _bind(sig, args, kwargs)
    return {"terms": int(np.size(a["x0s"]) * np.size(a["x"]))}


def fold_bytes(paths: int, row_bytes: int) -> int:
    """Bytes read and written by the pairwise fold of ``reduce_paths``.

    Each level reads 2m rows and writes m sums; an odd leftover row is
    concatenated back, which copies m + 1 rows.  Computed from the shapes,
    so cache behaviour is not included.
    """
    moved = 0
    while paths > 1:
        m = paths // 2
        moved += 3 * m * row_bytes
        rest = paths - 2 * m
        if rest:
            moved += 2 * (m + rest) * row_bytes
        paths = m + rest
    return moved


def count_reduce_paths(sig, args, kwargs) -> dict:
    a = _bind(sig, args, kwargs)
    terms = np.asarray(a["terms"])
    if terms.ndim < 1:
        raise ValueError("reduce_paths needs a (paths, ...) array")
    row_bytes = terms.itemsize * int(math.prod(terms.shape[1:]))
    return {"computed_bytes": fold_bytes(terms.shape[0], row_bytes)}


def count_gsm_average(sig, args, kwargs) -> dict:
    a = _bind(sig, args, kwargs)
    f = np.atleast_2d(np.asarray(a["psi_per_source"]))
    return {"terms": int(f.shape[0] * f.shape[0] * f.shape[1])}


# (module, function, counter).  The span name is "<module>.<function>".
LAYERS = (
    ("propagators", "behind_row", count_behind_row),
    ("propagators", "between_row", count_between_row),
    ("propagators", "reduce_paths", count_reduce_paths),
    ("superposition", "superpose_behind", None),
    ("superposition", "superpose_between", None),
    ("coherence", "source_field_matrix", None),
    ("coherence", "gsm_average", count_gsm_average),
    ("coherence", "density_profile", None),
    ("coherence", "spectral_density_profile", None),
    ("coherence", "spectral_average", None),
    ("coherence", "coherence_sweep", None),
    ("coherence", "resonance_scan", None),
    ("coherence", "focusing_contrast", None),
    ("fieldgrid", "evaluate_grid", None),
    ("fieldgrid", "export_csv", None),
    ("fieldgrid", "export_pgm", None),
    ("fieldgrid", "export_meta", None),
    ("fieldgrid", "export_profile_csv", None),
    ("presets", "run_preset", None),
)

EXPORTERS = (
    "fieldgrid.export_csv",
    "fieldgrid.export_pgm",
    "fieldgrid.export_meta",
    "fieldgrid.export_profile_csv",
)
BOUNDARY = ("fieldgrid.evaluate_grid", "presets.run_preset") + EXPORTERS
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in LAYERS)


class Tracer:
    """Records spans of the wrapped functions while installed.

    The grids that ``evaluate_grid`` returns are kept in ``grids`` so that
    the driver can check them.  Use as a context manager: the original
    functions are restored on exit.
    """

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.spans: list[list] = []
        self.grids: list = []
        self.missing: list[str] = []
        self.unclassified = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter):
        sig = inspect.signature(fn) if counter is not None else None
        keep = name == "fieldgrid.evaluate_grid"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if counter is not None:
                try:
                    attrs = counter(sig, args, kwargs)
                except COUNTER_ERRORS:
                    self.unclassified += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = dict(attrs or {}, raised=type(exc).__name__)
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if keep:
                self.grids.append(out)
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tlsim" or key.startswith("tlsim."))]
        for mod_name, fn_name, counter in LAYERS:
            name = f"{mod_name}.{fn_name}"
            if name not in self.names:
                continue
            try:
                home = importlib.import_module(f"tlsim.{mod_name}")
            except ModuleNotFoundError:
                home = None
            fn = getattr(home, fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(fn, name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def total(spans: list[list], name: str) -> float:
    """Inclusive seconds of all spans with this name."""
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def export_seconds(spans: list[list]) -> float:
    return sum(total(spans, name) for name in EXPORTERS)
