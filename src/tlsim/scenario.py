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
    talbot_length,
)

REGIONS = ("between", "behind", "full")
PROPAGATORS = ("standard", "paraxial", "hard-edge")


@dataclass(frozen=True)
class Scenario:
    """Particle + two gratings + source model + region/propagator selection."""

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
        if self.propagator == "paraxial" and not self.source.paraxial:
            raise DomainError("paraxial propagator requires source.zs = -inf")
        if self.propagator != "paraxial" and self.source.paraxial:
            raise DomainError(f"{self.propagator} propagator requires a finite source distance")
        if self.grating0.comb_k != 1:
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

    def metrics_window(self) -> tuple[float, float]:
        """Default x-window for fringe metrics: the span of G1's slit centers."""
        half = self.grating1.span / 2.0
        if half == 0.0:
            half = self.grating1.pitch / 2.0
        return -half, half

    def wavelengths(self) -> tuple[float, ...]:
        spec = self.source.spectral
        return spec.lambda_list if spec is not None else (self.lam,)

    def with_wavelength(self, lam: float) -> "Scenario":
        if lam == self.lam:
            return self
        return dataclasses.replace(
            self, particle=dataclasses.replace(self.particle, lambda_dB=lam)
        )


def resolve_propagator(selector: str, source: SourceSpec, grating1: GratingSpec) -> str:
    """Resolve the 'auto' propagator selector from the source and grating 1."""
    if selector != "auto":
        return selector
    if source.paraxial:
        return "paraxial"
    if grating1.comb_k > 1:
        return "hard-edge"
    return "standard"


SWEEPABLE_PARAMS = ("sigma_I", "lambda", "K1", "eta1", "zs", "xs")


def apply_sweep_value(scn: Scenario, param: str, value: float) -> Scenario:
    """A copy of the scenario with one sweepable parameter replaced."""
    if param == "sigma_I":
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
            scn, grating1=dataclasses.replace(scn.grating1, comb_k=k)
        )
    if param == "eta1":
        return dataclasses.replace(
            scn, grating1=dataclasses.replace(scn.grating1, comb_eta=float(value))
        )
    if param == "zs":
        return dataclasses.replace(
            scn, source=dataclasses.replace(scn.source, z_s=float(value))
        )
    if param == "xs":
        if scn.source.kind != "point":
            raise DomainError("xs sweep applies to point sources only")
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
        f"scenario.propagator = {scn.propagator}",
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
