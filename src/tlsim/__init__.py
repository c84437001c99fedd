"""Two-grating matter-wave interference simulator.

Closed-form path-integral wave functions (finite source, paraxial, and
hard-edged comb slits), slit superposition, spatial/spectral coherence
averaging, fringe metrics, data-parallel grid evaluation with CSV/PGM export,
and a brute-force quadrature oracle validating the closed forms.
"""

from .core import (
    COHERENT_SIGMA,
    HBAR,
    PARAXIAL_ZS,
    PLANCK_H,
    DomainError,
    GratingSpec,
    Particle,
    SourceSpec,
    SpectralSpec,
    slit_positions,
    talbot_length,
)
from .coherence import (
    FringeMetrics,
    coherence_sweep,
    density_profile,
    fringe_metrics,
    focusing_contrast,
    gaussian_spectral_weights,
    gsm_average,
    resonance_scan,
    spectral_average,
)
from .config import ConfigError, RunConfig, parse_config
from .fieldgrid import (
    DensityField,
    GridSpec,
    Profile,
    cross_section,
    evaluate_grid,
    export_field,
)
from .oracle import OracleConvergenceError, quadrature_oracle
from .propagators import (
    PathContext,
    comb_form_factor,
    free_kernel,
    psi_behind,
    psi_hard_edge,
    spreading_sigma,
)
from .scenario import Scenario
from .superposition import density, superpose_behind, superpose_between

__version__ = "0.1.0"
