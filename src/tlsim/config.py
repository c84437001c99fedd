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
    DomainError,
    GratingSpec,
    Particle,
    SourceSpec,
    SpectralSpec,
)
from .fieldgrid import FORMATS, GridSpec
from .scenario import PROPAGATORS, REGIONS, SWEEPABLE_PARAMS, Scenario, resolve_propagator

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


def _parse_bool(text: str) -> bool:
    s = text.strip().lower()
    if s in ("true", "yes", "on", "1"):
        return True
    if s in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"malformed boolean {text!r}")


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


def _parse_length_list(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty value list")
    return tuple(parse_length(p) for p in parts)


# key -> (converter, default-or-None, required, unit label, help text)
SCHEMA: dict[str, tuple] = {
    "particle.mass": (_parse_float, 1.2e-24, False, "kg", "particle mass"),
    "particle.lambda": (parse_length, None, True, "length", "de Broglie wavelength"),
    "grating0.slits": (_parse_int, 32, False, "count", "slit count N0"),
    "grating0.pitch": (parse_length, 500e-9, False, "length", "slit spacing d0"),
    "grating0.half_width": (parse_length, 37.5e-9, False, "length", "slit half-width b0"),
    "grating0.z": (parse_length, 0.0, False, "length", "grating-0 plane"),
    "grating1.slits": (_parse_int, 33, False, "count", "slit count N1"),
    "grating1.pitch": (parse_length, 500e-9, False, "length", "slit spacing d1"),
    "grating1.half_width": (parse_length, 75e-9, False, "length", "slit half-width b1"),
    "grating1.z": (parse_length, 0.05, False, "length", "grating-1 plane"),
    "grating1.comb_k": (_parse_int, 1, False, "count", "comb term count K1 (1 = fuzzy slit)"),
    "grating1.comb_eta": (_parse_float, 1.0, False, "real", "comb tuning parameter eta1"),
    "source.kind": (_parse_choice("point", "line"), "point", False, "choice", "point | line"),
    "source.xs": (parse_length, 0.0, False, "length", "point-source x position"),
    "source.xs_min": (parse_length, -4e-6, False, "length", "line source: first x"),
    "source.xs_max": (parse_length, 4e-6, False, "length", "line source: last x"),
    "source.xs_step": (parse_length, 0.25e-6, False, "length", "line source: x increment"),
    "source.zs": (parse_length, -0.5, False, "length", "source plane (-inf = paraxial)"),
    "source.sigma_i": (parse_length, math.inf, False, "length", "coherence width (inf = coherent)"),
    "spectral.enabled": (_parse_bool, False, False, "bool", "average over a wavelength band"),
    "spectral.mean": (parse_length, 5e-12, False, "length", "band mean wavelength"),
    "spectral.sigma": (parse_length, 2.25e-12, False, "length", "band dispersion sigma_g"),
    "spectral.lambda_min": (parse_length, 3e-12, False, "length", "band lower edge"),
    "spectral.lambda_max": (parse_length, 8e-12, False, "length", "band upper edge"),
    "spectral.lambda_step": (parse_length, 0.25e-12, False, "length", "band increment"),
    "scenario.region": (_parse_choice(*REGIONS), "full", False, "choice", "observation region"),
    "scenario.propagator": (
        _parse_choice("auto", *PROPAGATORS),
        "auto", False, "choice", "wave-function family (auto follows source/grating)",
    ),
    "grid.x_min": (parse_length, -10e-6, False, "length", "grid left edge"),
    "grid.x_max": (parse_length, 10e-6, False, "length", "grid right edge"),
    "grid.z_min": (parse_length, 0.0, False, "length", "grid lower edge"),
    "grid.z_max": (parse_length, 0.15, False, "length", "grid upper edge"),
    "grid.nx": (_parse_int, 800, False, "count", "x samples"),
    "grid.nz": (_parse_int, 600, False, "count", "z samples"),
    "output.formats": (_parse_formats, FORMATS, False, "list", ",".join(FORMATS)),
    "output.log_scale": (_parse_bool, False, False, "bool", "PGM maps 4 decades of log10"),
    "sweep.param": (
        _parse_choice(*SWEEPABLE_PARAMS), None, False, "choice", "sweepable parameter",
    ),
    "sweep.values": (_parse_length_list, None, False, "list", "sweep values (units allowed)"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs: scenario, grid, outputs and optional sweep."""

    scenario: Scenario
    grid: GridSpec
    formats: tuple[str, ...]
    log_scale: bool
    sweep_param: str | None
    sweep_values: tuple[float, ...] | None


def config_help() -> str:
    """Every config key with its default and unit (for --help and the README)."""
    rows = []
    for key, (conv, default, required, unit, text) in SCHEMA.items():
        if required:
            dflt = "(required)"
        elif default is None:
            dflt = "(unset)"
        elif isinstance(default, tuple):
            dflt = ",".join(str(v) for v in default)
        else:
            dflt = str(default)
        rows.append(f"  {key:<24} [{unit}] default: {dflt}  {text}")
    return "configuration keys (file format: 'key = value', '#' comments):\n" + "\n".join(rows)


def _inclusive_range(vals: dict, prefix: str) -> tuple[float, ...]:
    """min, min + step, ... up to max, from the keys ``<prefix>_min/_max/_step``."""
    lo, hi, step = (vals[f"{prefix}_{end}"] for end in ("min", "max", "step"))
    if not (step > 0.0):
        raise DomainError(f"{prefix}_step must be positive, got {step}")
    if hi < lo:
        raise DomainError(f"{prefix}_max={hi} < {prefix}_min={lo}")
    span = (hi - lo) / step
    if not all(math.isfinite(v) for v in (lo, step, span)):
        raise DomainError(f"{prefix}_min/_max/_step must give a finite range, got {lo}, {hi}, {step}")
    return tuple(lo + k * step for k in range(int(round(span)) + 1))


def build_run_config(vals: dict) -> RunConfig:
    """Assemble and validate a RunConfig from a value mapping; optional keys
    it leaves out take their SCHEMA defaults.

    Collects every independent invariant violation into one ConfigError
    rather than stopping at the first.
    """
    vals = {key: spec[1] for key, spec in SCHEMA.items() if not spec[2]} | vals
    problems: list[tuple[int, str]] = []

    def attempt(section, fn):
        try:
            return fn()
        except DomainError as exc:
            problems.append((0, f"{section}: {exc}"))
            return None

    particle = attempt(
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
            comb_k=vals["grating1.comb_k"],
            comb_eta=vals["grating1.comb_eta"],
        )
    )

    def make_source():
        spectral = None
        if vals["spectral.enabled"]:
            spectral = SpectralSpec(
                mean_lambda=vals["spectral.mean"],
                sigma_g=vals["spectral.sigma"],
                lambda_list=_inclusive_range(vals, "spectral.lambda"),
            )
        return SourceSpec(
            kind=vals["source.kind"],
            x_positions=((vals["source.xs"],) if vals["source.kind"] == "point"
                         else _inclusive_range(vals, "source.xs")),
            z_s=vals["source.zs"],
            sigma_I=vals["source.sigma_i"],
            spectral=spectral,
        )

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
                propagator=resolve_propagator(vals["scenario.propagator"], source, g1),
            )
        )

    sweep_param = vals.get("sweep.param")
    sweep_values = vals.get("sweep.values")
    if sweep_values is not None and sweep_param is None:
        problems.append((0, "sweep.values given without sweep.param"))
    if sweep_values is not None and len(sweep_values) == 0:
        problems.append((0, "sweep.values must not be empty"))

    if problems:
        raise ConfigError(problems)
    assert scenario is not None and grid is not None
    return RunConfig(
        scenario=scenario,
        grid=grid,
        formats=tuple(vals["output.formats"]),
        log_scale=vals["output.log_scale"],
        sweep_param=sweep_param,
        sweep_values=tuple(sweep_values) if sweep_values is not None else None,
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

    for key, (conv, default, required, unit, text_) in SCHEMA.items():
        if required and key not in key_lines:
            problems.append((0, f"missing required key {key!r}"))

    if problems:
        raise ConfigError(problems)

    return build_run_config(vals)
