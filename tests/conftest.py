import numpy as np
import pytest
from hypothesis import settings

from tlsim import parallel
from tlsim.core import GratingSpec, Particle, SourceSpec, PARAXIAL_ZS

# Property tests draw the same examples on every run, and a slow example is
# not a failure.  ``--hypothesis-profile tlsim-seeds`` draws random examples
# instead, so that ``--hypothesis-seed N`` picks them.
settings.register_profile("tlsim", derandomize=True, deadline=None)
settings.register_profile("tlsim-seeds", deadline=None)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("tlsim")


@pytest.fixture(autouse=True)
def _no_cached_pool():
    """Drop the cached worker pool after every test.  A fake executor, or a
    pool forked while a test's monkeypatches were in place, would otherwise
    serve the tests that follow."""
    yield
    parallel.shutdown_pool()


@pytest.fixture(scope="session")
def fullerene():
    """The working particle: m = 1.2e-24 kg, lambda = 5 pm (v ~ 110 m/s)."""
    return Particle(mass=1.2e-24, lambda_dB=5e-12)


@pytest.fixture(scope="session")
def g0_main():
    """32-slit first grating, d = 500 nm, b0 = 37.5 nm, at z = 0."""
    return GratingSpec(n_slits=32, pitch=500e-9, half_width=37.5e-9, z_pos=0.0)


@pytest.fixture(scope="session")
def g1_main():
    """33-slit second grating, d = 500 nm, b1 = 75 nm, at z = 0.05 m."""
    return GratingSpec(n_slits=33, pitch=500e-9, half_width=75e-9, z_pos=0.05)


@pytest.fixture(scope="session")
def point_source():
    return SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5)


@pytest.fixture(scope="session")
def plane_wave_source():
    return SourceSpec(kind="point", x_positions=(0.0,), z_s=PARAXIAL_ZS)


@pytest.fixture(scope="session")
def line_source_33():
    xs = tuple(-4e-6 + 0.25e-6 * k for k in range(33))
    return SourceSpec(kind="line", x_positions=xs, z_s=-0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)
