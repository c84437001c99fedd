"""Flat key-value run configuration: parsing, defaults, validation.

The format is line-oriented ``section.key = value`` pairs; ``#`` starts a
comment.  Length values accept the unit suffixes pm, nm, um (or the micro
sign), mm and m; bare numbers are meters.  Parsing is total: every problem in
the file is collected and reported with its line number in one error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .core import (
    MAX_SLITS,
    DomainError,
    GratingSpec,
    Particle,
    SourceSpec,
    SpectralSpec,
)
from .fieldgrid import FORMATS, GridSpec
from .scenario import REGIONS, Scenario

# decimal exponent per unit; lengths are converted with a single
# correctly-rounded decimal->binary conversion so '500nm' == 5e-7 exactly
UNIT_EXPONENT = {
    "pm": -12,
    "nm": -9,
    "um": -6,
    "µm": -6,  # micro sign
    "μm": -6,  # greek mu
    "mm": -3,
    "m": 0,
}

_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?\s*([a-zµμ]*)$"
)


class ConfigError(ValueError):
    """One or more configuration problems; ``problems`` lists (line, message)."""

    def __init__(self, problems: list[tuple[int, str]]):
        self.problems = sorted(problems)
        lines = [f"line {ln}: {msg}" if ln > 0 else msg for ln, msg in self.problems]
        super().__init__("configuration errors:\n  " + "\n  ".join(lines))


def parse_length(text: str) -> float:
    """A length in meters, with optional unit suffix; 'inf'/'-inf' pass through."""
    s = text.strip()
    low = s.lower()
    if low in ("inf", "+inf", "infinity"):
        return math.inf
    if low == "-inf":
        return -math.inf
    m = _NUMBER_RE.match(s)
    if not m:
        raise ValueError(f"malformed length {text!r}")
    mantissa, exponent, unit = m.groups()
    if unit == "":
        shift = 0
    elif unit in UNIT_EXPONENT:
        shift = UNIT_EXPONENT[unit]
    else:
        raise ValueError(f"unknown unit {unit!r} in {text!r} (use pm, nm, um, mm, m)")
    return float(f"{mantissa}e{int(exponent or 0) + shift}")


def _parse_float(text: str) -> float:
    return float(text.strip())


def _parse_int(text: str) -> int:
    s = text.strip()
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"malformed integer {text!r}") from None


def _parse_choice(*choices: str):
    def conv(text: str) -> str:
        s = text.strip()
        if s not in choices:
            raise ValueError(f"{s!r} is not one of {', '.join(choices)}")
        return s

    return conv


def _parse_formats(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    for p in parts:
        if p not in FORMATS:
            raise ValueError(f"unknown output format {p!r} (use {', '.join(FORMATS)})")
    if not parts:
        raise ValueError("output.formats must not be empty")
    return parts


# key -> (converter, default (None = required), unit label, help text)
SCHEMA: dict[str, tuple] = {
    "particle.mass": (_parse_float, 1.2e-24, "kg", "particle mass"),
    "particle.lambda": (parse_length, None, "length", "de Broglie wavelength"),
    "grating0.slits": (_parse_int, 32, "count", "slit count N0"),
    "grating0.pitch": (parse_length, 500e-9, "length", "slit spacing d0"),
    "grating0.half_width": (parse_length, 37.5e-9, "length", "slit half-width b0"),
    "grating0.z": (parse_length, 0.0, "length", "grating-0 plane"),
    "grating1.slits": (_parse_int, 33, "count", "slit count N1"),
    "grating1.pitch": (parse_length, 500e-9, "length", "slit spacing d1"),
    "grating1.half_width": (parse_length, 75e-9, "length", "slit half-width b1"),
    "grating1.z": (parse_length, 0.05, "length", "grating-1 plane"),
    "grating1.comb_k": (_parse_int, 1, "count", "comb term count K1 ((K1, eta1) != (1, 1) picks the comb)"),
    "grating1.comb_eta": (_parse_float, 1.0, "real", "comb tuning parameter eta1"),
    "source.xs": (parse_length, 0.0, "length", "point: x position (not with xs_* keys)"),
    "source.xs_min": (parse_length, -4e-6, "length", "line: first x (any xs_* key sets a line)"),
    "source.xs_max": (parse_length, 4e-6, "length", "line: last x"),
    "source.xs_step": (parse_length, 0.25e-6, "length", "line: x increment"),
    "source.zs": (parse_length, -0.5, "length", "source plane (-inf = paraxial)"),
    "source.sigma_i": (parse_length, math.inf, "length", "line: coherence width (inf = coherent)"),
    "spectral.mean": (parse_length, 5e-12, "length", "band mean (any spectral.* key sets a band)"),
    "spectral.sigma": (parse_length, 2.25e-12, "length", "band dispersion sigma_g"),
    "spectral.lambda_min": (parse_length, 3e-12, "length", "band lower edge"),
    "spectral.lambda_max": (parse_length, 8e-12, "length", "band upper edge"),
    "spectral.lambda_step": (parse_length, 0.25e-12, "length", "band increment"),
    "scenario.region": (_parse_choice(*REGIONS), "full", "choice", "observation region"),
    "grid.x_min": (parse_length, -10e-6, "length", "grid left edge"),
    "grid.x_max": (parse_length, 10e-6, "length", "grid right edge"),
    "grid.z_min": (parse_length, 0.0, "length", "grid lower edge"),
    "grid.z_max": (parse_length, 0.15, "length", "grid upper edge"),
    "grid.nx": (_parse_int, 800, "count", "x samples"),
    "grid.nz": (_parse_int, 600, "count", "z samples"),
    "output.formats": (_parse_formats, FORMATS, "list", ",".join(FORMATS)),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs: the scenario, its grid and the output formats.

    How a run is shown (``--log-scale``) and what a scan sweeps
    (``--param``/``--values``) are command-line flags, not config keys.
    """

    scenario: Scenario
    grid: GridSpec
    formats: tuple[str, ...]


def config_help() -> str:
    """Every config key with its default and unit (for --help and the README)."""
    rows = []
    for key, (conv, default, unit, text) in SCHEMA.items():
        if default is None:
            dflt = "(required)"
        elif isinstance(default, tuple):
            dflt = ",".join(str(v) for v in default)
        else:
            dflt = str(default)
        rows.append(f"  {key:<24} [{unit}] default: {dflt}  {text}")
    return "configuration keys (file format: 'key = value', '#' comments):\n" + "\n".join(rows)


def _inclusive_range(vals: dict, prefix: str) -> tuple[float, ...]:
    """min, min + step, ... up to max, from the keys ``<prefix>_min/_max/_step``.

    The last entry never exceeds max, except by round-off: a span within
    1e-9 steps of a whole number keeps that number's point.  More than
    MAX_SLITS entries are refused before any is built.
    """
    lo, hi, step = (vals[f"{prefix}_{end}"] for end in ("min", "max", "step"))
    if not (step > 0.0):
        raise DomainError(f"{prefix}_step must be positive, got {step}")
    if hi < lo:
        raise DomainError(f"{prefix}_max={hi} < {prefix}_min={lo}")
    span = (hi - lo) / step
    if not all(math.isfinite(v) for v in (lo, step, span)):
        raise DomainError(f"{prefix}_min/_max/_step must give a finite range, got {lo}, {hi}, {step}")
    count = math.floor(span + 1e-9) + 1
    if count > MAX_SLITS:
        raise DomainError(f"{prefix}_min/_max/_step give {count:.6g} entries, more than {MAX_SLITS}")
    return tuple(lo + k * step for k in range(count))


def _missing_keys(given) -> list[tuple[int, str]]:
    """One problem per required key (no SCHEMA default) not in ``given``."""
    return [(0, f"missing required key {key!r}")
            for key, spec in SCHEMA.items() if spec[1] is None and key not in given]


def build_run_config(vals: dict) -> RunConfig:
    """Assemble and validate a RunConfig from a value mapping; optional keys
    it leaves out take their SCHEMA defaults.

    The keys it sets pick the source: any of ``source.xs_min/_max/_step``
    makes a line, any ``spectral.*`` key a wavelength band, and a key the
    source never reads is an error.  Grating 1's comb parameters other than
    (1, 1.0) pick the hard-edged comb, any others its fuzzy slits.  Collects
    every unknown or missing key and every independent invariant violation
    into one ConfigError rather than stopping at the first.
    """
    given = set(vals)
    line = any(key.startswith("source.xs_") for key in given)
    vals = {key: spec[1] for key, spec in SCHEMA.items() if spec[1] is not None} | vals
    comb = (vals["grating1.comb_k"], vals["grating1.comb_eta"]) != (1, 1.0)
    problems = [(0, f"unknown key {key!r}") for key in sorted(given - SCHEMA.keys())]
    problems += _missing_keys(given)

    def attempt(section, fn):
        try:
            return fn()
        except DomainError as exc:
            problems.append((0, f"{section}: {exc}"))
            return None

    particle = None if "particle.lambda" not in vals else attempt(
        "particle", lambda: Particle(mass=vals["particle.mass"], lambda_dB=vals["particle.lambda"])
    )
    g0 = attempt(
        "grating0", lambda: GratingSpec(
            n_slits=vals["grating0.slits"],
            pitch=vals["grating0.pitch"],
            half_width=vals["grating0.half_width"],
            z_pos=vals["grating0.z"],
        )
    )
    g1 = attempt(
        "grating1", lambda: GratingSpec(
            n_slits=vals["grating1.slits"],
            pitch=vals["grating1.pitch"],
            half_width=vals["grating1.half_width"],
            z_pos=vals["grating1.z"],
            comb_k=vals["grating1.comb_k"] if comb else None,
            comb_eta=vals["grating1.comb_eta"],
        )
    )

    def make_source():
        if line and "source.xs" in given:
            raise DomainError("source.xs sets a point, source.xs_min/_max/_step a line: set one")
        spectral = None
        if any(key.startswith("spectral.") for key in given):
            spectral = SpectralSpec(
                mean_lambda=vals["spectral.mean"],
                sigma_g=vals["spectral.sigma"],
                lambda_list=_inclusive_range(vals, "spectral.lambda"),
            )
        src = SourceSpec(
            kind="line" if line else "point",
            x_positions=_inclusive_range(vals, "source.xs") if line else (vals["source.xs"],),
            z_s=vals["source.zs"],
            sigma_I=vals["source.sigma_i"],
            spectral=spectral,
        )
        # the same two keys apply_sweep_value refuses to sweep
        if "source.sigma_i" in given and not src.gsm:
            raise DomainError("source.sigma_i needs a line source of two or more positions")
        if src.paraxial and (line or "source.xs" in given):
            what = "the line source.xs_min/_max/_step" if line else "source.xs"
            raise DomainError(f"{what} does not reach the field of a paraxial source (zs = -inf)")
        return src

    source = attempt("source", make_source)
    grid = attempt(
        "grid", lambda: GridSpec(
            x_min=vals["grid.x_min"],
            x_max=vals["grid.x_max"],
            z_min=vals["grid.z_min"],
            z_max=vals["grid.z_max"],
            nx=vals["grid.nx"],
            nz=vals["grid.nz"],
        )
    )

    scenario = None
    if particle is not None and g0 is not None and g1 is not None and source is not None:
        scenario = attempt(
            "scenario", lambda: Scenario(
                particle=particle,
                grating0=g0,
                grating1=g1,
                source=source,
                region=vals["scenario.region"],
            )
        )

    if problems:
        raise ConfigError(problems)
    assert scenario is not None and grid is not None
    return RunConfig(
        scenario=scenario,
        grid=grid,
        formats=tuple(vals["output.formats"]),
    )


_LINE_RE = re.compile(r"^\s*([A-Za-z0-9_.]+)\s*=\s*(.*?)\s*$")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration file body.

    All syntax errors, unknown keys, malformed values and invariant
    violations are gathered into one ConfigError.
    """
    problems: list[tuple[int, str]] = []
    vals: dict = {}
    key_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            problems.append((lineno, f"malformed line {raw.strip()!r} (expected 'key = value')"))
            continue
        key, value = m.group(1), m.group(2)
        if key not in SCHEMA:
            problems.append((lineno, f"unknown key {key!r}"))
            continue
        if key in key_lines:
            problems.append((lineno, f"duplicate key {key!r} (first set on line {key_lines[key]})"))
            continue
        key_lines[key] = lineno
        conv = SCHEMA[key][0]
        try:
            vals[key] = conv(value)
        except ValueError as exc:
            problems.append((lineno, f"{key}: {exc}"))

    problems += _missing_keys(key_lines)
    if problems:
        raise ConfigError(problems)

    return build_run_config(vals)
