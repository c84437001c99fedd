"""Complete simulation inputs and canonical fingerprinting."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

from .core import (
    DomainError,
    GratingSpec,
    Particle,
    SourceSpec,
    is_paraxial,
    talbot_length,
)

REGIONS = ("between", "behind", "full")
PROPAGATORS = ("standard", "hard-edge")


@dataclass(frozen=True)
class Scenario:
    """Particle, two gratings, source, region and G1's slit model ``propagator``
    (standard: fuzzy slits, hard-edge: comb).  ``source.z_s = -inf`` is the paraxial form."""

    particle: Particle
    grating0: GratingSpec
    grating1: GratingSpec
    source: SourceSpec
    region: str = "full"
    propagator: str = "standard"

    def __post_init__(self) -> None:
        if self.region not in REGIONS:
            raise DomainError(f"region must be one of {REGIONS}, got {self.region!r}")
        if self.propagator not in PROPAGATORS:
            raise DomainError(f"propagator must be one of {PROPAGATORS}, got {self.propagator!r}")
        if not (self.grating0.z_pos < self.grating1.z_pos):
            raise DomainError("grating G1 must lie behind grating G0")
        if not (self.source.z_s < self.grating0.z_pos):
            raise DomainError("source must precede grating G0")
        if self.propagator == "standard" and self.grating1.comb:
            raise DomainError("standard propagator ignores grating 1's comb_k/comb_eta: use hard-edge")
        if self.grating0.comb:
            raise DomainError("hard-edged comb slits are supported on grating 1 only")

    @property
    def lam(self) -> float:
        return self.particle.lambda_dB

    @property
    def z0(self) -> float:
        return self.grating0.z_pos

    @property
    def z1(self) -> float:
        return self.grating1.z_pos

    @property
    def z_talbot(self) -> float:
        """Self-imaging length of grating 0 at the scenario wavelength."""
        return talbot_length(self.grating0.pitch, self.lam)

    def z_range(self) -> tuple[float, float]:
        """The region's z interval: [z0, z1] between the gratings, [z1, inf)
        behind G1 and [z0, inf) for the full field."""
        return (self.z1 if self.region == "behind" else self.z0,
                self.z1 if self.region == "between" else math.inf)

    def check_in_region(self, what: str, z_min: float, z_max: float | None = None) -> float:
        """Raise unless the plane ``z_min``, or the rows ``z_min..z_max``, lie
        in the region's z range; returns ``z_min``.  Callers check before any
        field is evaluated, so that the error names ``what``, not the config."""
        lo, hi = self.z_range()
        z_max = z_min if z_max is None else z_max
        if not (lo <= z_min and z_max <= hi):
            at = f"z = {z_min:.6g} m" if z_min == z_max else f"{z_min:.6g} <= z <= {z_max:.6g} m"
            raise DomainError(f"the {what} at {at} lies outside the scenario's "
                              f"{self.region} region ({lo:.6g} <= z <= {hi:.6g} m)")
        return z_min

    def metrics_window(self) -> tuple[float, float]:
        """Default x-window for fringe metrics: the span of G1's slit centers."""
        half = self.grating1.span / 2.0
        if half == 0.0:
            half = self.grating1.pitch / 2.0
        return -half, half

    def with_wavelength(self, lam: float) -> "Scenario":
        if lam == self.lam:
            return self
        return dataclasses.replace(
            self, particle=dataclasses.replace(self.particle, lambda_dB=lam)
        )


SWEEPABLE_PARAMS = ("sigma_I", "lambda", "K1", "eta1", "zs", "xs")


def apply_sweep_value(scn: Scenario, param: str, value: float) -> Scenario:
    """A copy of the scenario with one sweepable parameter replaced.  K1 and
    eta1 describe the hard-edged comb, so they also select its propagator."""
    if param == "sigma_I":
        if not scn.source.gsm:
            raise DomainError("sigma_I can only be swept on a line source of two or more "
                              "positions: no other source is averaged over sigma_I")
        return dataclasses.replace(
            scn, source=dataclasses.replace(scn.source, sigma_I=float(value))
        )
    if param == "lambda":
        if scn.source.spectral is not None:
            raise DomainError("lambda cannot be swept on a spectral source: "
                              "its spectrum fixes the wavelengths")
        return scn.with_wavelength(float(value))
    if param == "K1":
        if not math.isfinite(value):
            raise DomainError(f"K1 sweep values must be finite integers, got {value}")
        k = int(round(value))
        if k != value:
            raise DomainError(f"K1 sweep values must be integers, got {value}")
        return dataclasses.replace(
            scn, grating1=dataclasses.replace(scn.grating1, comb_k=k), propagator="hard-edge"
        )
    if param == "eta1":
        return dataclasses.replace(
            scn, grating1=dataclasses.replace(scn.grating1, comb_eta=float(value)),
            propagator="hard-edge",
        )
    if param == "zs":
        if scn.source.gsm and is_paraxial(value):
            raise DomainError("zs = -inf cannot be swept on a line source of two or more "
                              "positions: the positions do not reach the field of a "
                              "paraxial source")
        return dataclasses.replace(
            scn, source=dataclasses.replace(scn.source, z_s=float(value))
        )
    if param == "xs":
        if scn.source.kind != "point":
            raise DomainError("xs sweep applies to point sources only")
        if scn.source.paraxial:
            raise DomainError("xs cannot be swept on a paraxial source (zs = -inf): "
                              "the source position does not reach the field")
        return dataclasses.replace(
            scn, source=dataclasses.replace(scn.source, x_positions=(float(value),))
        )
    raise DomainError(f"parameter {param!r} is not sweepable (use {', '.join(SWEEPABLE_PARAMS)})")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def scenario_lines(scn: Scenario) -> list[str]:
    """Canonical key=value echo of a scenario (used for metadata and hashing)."""
    src = scn.source
    # Fuzzy slits with a paraxial source echo "paraxial", as they always have.
    prop = "paraxial" if src.paraxial and scn.propagator == "standard" else scn.propagator
    lines = [
        f"particle.mass = {_fmt(scn.particle.mass)}",
        f"particle.lambda = {_fmt(scn.particle.lambda_dB)}",
        f"particle.vz = {_fmt(scn.particle.v_z)}",
        f"grating0.slits = {scn.grating0.n_slits}",
        f"grating0.pitch = {_fmt(scn.grating0.pitch)}",
        f"grating0.half_width = {_fmt(scn.grating0.half_width)}",
        f"grating0.z = {_fmt(scn.grating0.z_pos)}",
        f"grating1.slits = {scn.grating1.n_slits}",
        f"grating1.pitch = {_fmt(scn.grating1.pitch)}",
        f"grating1.half_width = {_fmt(scn.grating1.half_width)}",
        f"grating1.z = {_fmt(scn.grating1.z_pos)}",
        f"grating1.comb_k = {scn.grating1.comb_k}",
        f"grating1.comb_eta = {_fmt(scn.grating1.comb_eta)}",
        f"source.kind = {src.kind}",
        f"source.xs = {','.join(_fmt(v) for v in src.x_positions)}",
        f"source.zs = {_fmt(src.z_s)}",
        f"source.sigma_i = {_fmt(src.sigma_I)}",
        f"scenario.region = {scn.region}",
        f"scenario.propagator = {prop}",
    ]
    if src.spectral is not None:
        sp = src.spectral
        lines += [
            f"spectral.mean = {_fmt(sp.mean_lambda)}",
            f"spectral.sigma = {_fmt(sp.sigma_g)}",
            f"spectral.lambdas = {','.join(_fmt(v) for v in sp.lambda_list)}",
        ]
    return lines


def fingerprint(scn: Scenario, extra_lines: list[str] | None = None) -> str:
    """Deterministic sha256 fingerprint of a scenario (plus grid echo lines)."""
    text = "\n".join(scenario_lines(scn) + (extra_lines or []))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
