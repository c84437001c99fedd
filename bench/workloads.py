"""The benchmark's workloads: fixed preset lists, as a ``tlsim preset`` user runs them.

Only the grid ``nz`` (and ``nx`` for fig5a) is reduced from the presets, so
that one pass fits many times into a run.  The ``tiny`` sizes exist for the
benchmark's own tests; they also reduce ``nx``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Step:
    """One ``run_preset`` call.  ``samples`` is the number of output density
    samples of a table preset; a field preset's count is its grid size."""

    preset: str
    nx: int | None = None
    nz: int | None = None
    samples: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: dict[str, tuple[Step, ...]]  # size -> steps
    oracle_preset: str | None  # geometry of the quadrature spot checks
    oracle_points: int
    parity: bool  # the grids are on-axis, so p(x) = p(-x) must hold


# Table presets evaluate fixed samplings inside tlsim: fig7 17 coherence
# widths on 2048 x-samples, fig11 17 wavelengths on 1536, fig17 5 comb
# sizes at 2 planes on 1024.
FIG7 = Step("fig7", samples=17 * 2048)
FIG11 = Step("fig11", samples=17 * 1536)
FIG17 = Step("fig17", samples=5 * 2 * 1024)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="carpet",
            why="default tlsim run: point-source fig4a carpet, standard behind_row "
                "(1056 paths) and between_row rows over the process pool, CSV/PGM/meta export",
            steps={
                "full": (Step("fig4a", nz=60),),
                "tiny": (Step("fig4a", nx=64, nz=7),),
            },
            oracle_preset="fig4a",
            oracle_points=6,
            parity=True,
        ),
        Workload(
            name="gsm_beam",
            why="33-source GSM beam (fig5a grid, fig7 sweep): many sources sharing one "
                "geometry and the S^2*nx gsm_average quadratic form; writes negligible",
            steps={
                "full": (Step("fig5a", nx=200, nz=6), FIG7),
                "tiny": (Step("fig5a", nx=16, nz=4), FIG7),
            },
            oracle_preset="fig5a",
            oracle_points=6,
            parity=False,
        ),
        Workload(
            name="spectral",
            why="wavelength-averaged paraxial fig12 grid and fig11 scan: many small "
                "72-path behind_row calls, spectral_average and per-call validation",
            steps={
                "full": (Step("fig12", nz=48), FIG11),
                "tiny": (Step("fig12", nx=32, nz=5), FIG11),
            },
            oracle_preset=None,  # paraxial: the oracle needs a finite source
            oracle_points=0,
            parity=False,
        ),
        Workload(
            name="comb_jet",
            why="hard-edged K=64 comb jet (fig15b grid from z=z1, fig17 contrast): the "
                "only hard-edge and z==z1 plane-limit behind_row branches",
            steps={
                "full": (Step("fig15b", nz=64), FIG17),
                "tiny": (Step("fig15b", nx=32, nz=4), FIG17),
            },
            oracle_preset="fig15b",
            oracle_points=3,
            parity=True,
        ),
    )
}
