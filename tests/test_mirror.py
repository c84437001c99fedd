"""The mirror rule: a row that is its own mirror image evaluates each |x| once.

Both gratings are centred on the axis, so for a source at x_s = 0 or a
paraxial one psi(-x) = psi(x), for fuzzy slits and the hard-edged comb
alike.  The superposition sums, the rule's one home, evaluate the kernel at
the distinct |x| and copy each value to -x; ``evaluate_densities`` keeps
mirror pairs in one chunk.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsim import coherence, parallel, propagators, superposition
from tlsim.coherence import _mirror_pair_columns, evaluate_densities, field_at, source_field_matrix
from tlsim.core import PARAXIAL_ZS, GratingSpec, Particle, SourceSpec, centered_axis, slit_positions
from tlsim.propagators import behind_row, between_row
from tlsim.scenario import Scenario
from tlsim.superposition import density, superpose_behind, superpose_between


def _scenario(n0, n1, b0, b1, pitch_scale, z1, lam, x_s, z_s, comb=None):
    comb_k, comb_eta = comb if comb else (None, 1.0)
    return Scenario(
        particle=Particle(mass=1.2e-24, lambda_dB=lam),
        grating0=GratingSpec(n0, pitch_scale * b0, b0, 0.0),
        grating1=GratingSpec(n1, pitch_scale * b1, b1, z1, comb_k=comb_k, comb_eta=comb_eta),
        source=SourceSpec(kind="point", x_positions=(x_s,), z_s=z_s),
    )


def _self_mirror():
    return st.builds(
        _scenario,
        n0=st.integers(1, 16), n1=st.integers(1, 16),
        b0=st.floats(20e-9, 100e-9), b1=st.floats(20e-9, 100e-9),
        pitch_scale=st.floats(2.5, 6.0), z1=st.floats(0.02, 0.08),
        lam=st.floats(3e-12, 8e-12),
        x_s=st.just(0.0), z_s=st.one_of(st.just(PARAXIAL_ZS), st.floats(-50.0, -0.3)),
        comb=st.one_of(st.none(), st.tuples(st.integers(1, 64), st.floats(0.2, 1.5))),
    )


class TestSuperpositionRule:
    @settings(max_examples=30)
    @given(scn=_self_mirror(), frac=st.floats(0.0, 1.0),
           past=st.one_of(st.just(0.0), st.just(1e-12), st.floats(1e-12, 2.0)),
           nx=st.integers(2, 41))
    def test_self_mirror_rows_are_exact_mirror_copies(self, scn, frac, past, nx):
        """Fuzzy slits or the comb, behind G1 from the plane z1 on: p(-x) ==
        p(x) bit for bit, at x >= 0 the kernel's own bits, and at x < 0
        within 1e-12 of the row maximum of the kernel evaluated at -x."""
        span = max(slit_positions(scn.grating0)[-1], slit_positions(scn.grating1)[-1]) + 3e-6
        x = centered_axis(-span, span, nx)
        x0s, x1s = slit_positions(scn.grating0), slit_positions(scn.grating1)
        g0, g1 = scn.grating0, scn.grating1
        z_between, z_behind = frac * scn.z1, scn.z1 * (1.0 + past)
        rows = [
            (superpose_between(scn, x, z_between),
             between_row(scn.lam, scn.source.z_s, 0.0, 0.0, g0.half_width, x0s, x, z_between)),
            (superpose_behind(scn, x, z_behind),
             behind_row(scn.lam, scn.source.z_s, 0.0, 0.0, scn.z1, g0.half_width,
                        g1.half_width, x0s, x1s, x, z_behind, comb_k=g1.comb_k or 1,
                        comb_eta=g1.comb_eta, hard=g1.comb)),
        ]
        for psi, direct in rows:
            p, p_direct = density(psi), density(direct)
            assert p.tobytes() == p[::-1].tobytes()
            right = x >= 0.0
            assert psi[right].tobytes() == direct[right].tobytes()
            assert np.max(np.abs(p - p_direct)) <= 1e-12 * p_direct.max()
        # a scalar call at -x reads the row's value, so scalar == row holds
        assert superpose_between(scn, float(x[0]), z_between) == rows[0][0][0]
        assert superpose_behind(scn, float(x[0]), z_behind) == rows[1][0][0]

    @settings(max_examples=20)
    @given(
        n0=st.integers(1, 16), n1=st.integers(1, 16),
        comb=st.one_of(st.none(), st.tuples(st.integers(1, 16), st.floats(0.3, 1.5))),
        x_s=st.floats(-3e-6, 3e-6).filter(lambda v: v != 0.0),
        z_s=st.floats(-50.0, -0.3), frac=st.floats(0.0, 1.0), past=st.floats(1e-12, 2.0),
    )
    def test_off_centre_source_calls_the_kernel_at_every_x(self, n0, n1, comb, x_s, z_s,
                                                           frac, past):
        scn = _scenario(n0, n1, 37.5e-9, 75e-9, 4.0, 0.05, 5e-12, x_s, z_s, comb)
        g0, g1 = scn.grating0, scn.grating1
        x0s, x1s = slit_positions(g0), slit_positions(g1)
        x = centered_axis(-5e-6, 5e-6, 33)
        z = frac * scn.z1
        assert superpose_between(scn, x, z).tobytes() == between_row(
            scn.lam, z_s, x_s, 0.0, g0.half_width, x0s, x, z).tobytes()
        z = scn.z1 * (1.0 + past)
        assert superpose_behind(scn, x, z).tobytes() == behind_row(
            scn.lam, z_s, x_s, 0.0, scn.z1, g0.half_width, g1.half_width, x0s, x1s, x, z,
            comb_k=g1.comb_k or 1, comb_eta=g1.comb_eta, hard=g1.comb).tobytes()

    @pytest.mark.parametrize("z_s", [-0.5, PARAXIAL_ZS], ids=["x_s = 0", "paraxial"])
    @pytest.mark.parametrize("z", [0.05, 0.0575])
    def test_comb_row_is_evaluated_once_per_abs_x(self, z_s, z, monkeypatch):
        """A self-mirror comb row calls the kernel once, at its distinct |x|."""
        scn = _scenario(4, 5, 37.5e-9, 75e-9, 4.0, 0.05, 5e-12, 0.0, z_s, comb=(16, 1.5))
        seen = []
        real = superposition.behind_row
        monkeypatch.setattr(superposition, "behind_row",
                            lambda *a, **kw: seen.append(np.array(a[9])) or real(*a, **kw))
        psi = superpose_behind(scn, np.array([-2e-7, 0.0, 1e-7, 2e-7, -1e-7, 1e-7]), z)
        [x] = seen
        assert x.tolist() == [0.0, 1e-7, 2e-7]
        assert psi[[0, 4, 5]].tobytes() == psi[[3, 2, 2]].tobytes()


class TestEvaluatorChunks:
    @pytest.mark.parametrize("x", [
        centered_axis(-1.0, 1.0, 11), centered_axis(-1.0, 1.0, 12),
        np.array([3.0, -1.0, 0.0, 2.0, 1.0, -3.0, 5.0]), np.array([-2.0, 2.0]), np.zeros(3),
    ], ids=["odd", "even", "unpaired", "one pair", "zeros"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_columns_keep_mirror_pairs_together(self, x, n):
        cols = _mirror_pair_columns(x, n)
        assert sorted(np.concatenate(cols).tolist()) == list(range(len(x)))
        assert all(len(c) for c in cols) and len(cols) <= n
        chunk_of = {abs(float(x[i])): k for k, c in enumerate(cols) for i in c}
        assert all(chunk_of[abs(float(v))] == k for k, c in enumerate(cols) for v in x[c])


def _line_scenario(geometry, xs, comb):
    """The geometry of ``_scenario`` with a GSM line at the positions xs."""
    n0, n1, b0, b1, pitch_scale, z1, lam, z_s = geometry
    scn = _scenario(n0, n1, b0, b1, pitch_scale, z1, lam, 0.0, z_s, comb)
    return dataclasses.replace(scn, source=SourceSpec(kind="line", x_positions=xs, z_s=z_s,
                                                      sigma_I=1e-6))


def _stepped_line(S, half, nudges):
    """S positions stepped from -half, as a config line is built (a pair then
    misses exact antisymmetry by about an ulp), each moved by its nudge in ulps."""
    step = 2.0 * half / (S - 1)
    return tuple(float(v + n * np.spacing(v)) for v, n in
                 zip((-half + k * step for k in range(S)), nudges))


def _per_source(scn, x, z):
    return np.stack([field_at(scn, x, z, x_s=s) for s in scn.source.x_positions])


class TestMirrorPairedSources:
    """On a line that is symmetric to round-off, the source at -s takes the
    field of the source at s at -x: one kernel call per pair.

    Fields agree with their own per-source evaluation to 1e-12 of max|F|
    behind G1.  Between the gratings ``between_row`` rounds its phases from
    tables referenced to the first slit, so its mirror image differs in the
    last digits of phases of up to ~1e4 rad near G0: up to 1.3e-11 of
    max|F| on fig5a's 33-point line over its +-10 um, 800-sample rows,
    hence 1e-10 there."""

    @settings(max_examples=12)
    @given(
        geometry=st.tuples(st.integers(1, 33), st.integers(1, 33), st.floats(20e-9, 100e-9),
                           st.floats(20e-9, 100e-9), st.floats(2.5, 6.0), st.floats(0.02, 0.08),
                           st.floats(3e-12, 8e-12), st.floats(-50.0, -0.3)),
        comb=st.one_of(st.none(), st.tuples(st.integers(1, 16), st.floats(0.3, 1.5))),
        S=st.integers(2, 40), half=st.floats(0.1e-6, 4e-6),
        nudge=st.lists(st.integers(-3, 3), min_size=40, max_size=40),
        span=st.floats(1e-6, 12e-6), nx=st.integers(1, 41), seed=st.integers(0, 2**32 - 1),
        frac=st.floats(0.0, 1.0), past=st.floats(1e-12, 2.0),
    )
    def test_pairs_match_per_source_fields(self, geometry, comb, S, half, nudge, span, nx,
                                           seed, frac, past):
        """Scalar == row and 1, 2 and 3 workers bit for bit, and every field
        close to its own ``field_at``, between the gratings and behind G1."""
        scn = _line_scenario(geometry, _stepped_line(S, half, nudge), comb)
        x = np.random.default_rng(seed).permutation(
            centered_axis(-span, span, nx) if nx > 1 else np.zeros(1))
        order = np.argsort(x)
        at_neg = np.empty_like(order)  # the index of -x[k]
        at_neg[order] = order[::-1]
        zs = (frac * scn.z1, scn.z1 * (1.0 + past))
        for z, tol in zip(zs, (1e-10, 1e-12)):
            F = source_field_matrix(scn, x, z)
            # every position pairs: the i-th from the left is the mirror of the i-th from the right
            assert F[:S // 2].tobytes() == F[::-1][:S // 2][:, at_neg].tobytes()
            ref = _per_source(scn, x, z)
            assert np.max(np.abs(F - ref), initial=0.0) <= tol * np.max(np.abs(ref))
            for k in {0, nx // 2, nx - 1}:
                assert source_field_matrix(scn, float(x[k]), z).tobytes() == F[:, k].tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel.os, "cpu_count", lambda: 2)
            rows = [evaluate_densities([scn], x, zs, workers=w).tobytes() for w in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("z", [0.03, 0.05, 0.1])
    def test_unpaired_positions_take_their_own_call(self, z):
        """x_s = 0, a position moved off symmetry by more than the tolerance
        and its former partner are byte-identical to ``field_at``."""
        xs = list(_stepped_line(9, 2e-6, [0] * 9))
        xs[4], xs[1] = 0.0, xs[1] + 4 * propagators._LATTICE_ULPS * np.spacing(2e-6)
        scn = _line_scenario((8, 9, 37.5e-9, 75e-9, 4.0, 0.05, 5e-12, -0.5), tuple(xs), None)
        x = centered_axis(-5e-6, 5e-6, 33)
        F, ref = source_field_matrix(scn, x, z), _per_source(scn, x, z)
        for i in (1, 4, 7):
            assert F[i].tobytes() == ref[i].tobytes()
        assert F.tobytes() != ref.tobytes()  # the other pairs take the mirror rule

    @pytest.mark.parametrize("xs", [(0.0,), (1e-6,), (-1e-6, 0.5e-6, 2e-6), (1e-6, 3e-6)],
                             ids=["on-axis point", "point", "asymmetric", "one-sided"])
    @pytest.mark.parametrize("z", [0.03, 0.1])
    def test_line_without_pairs_is_byte_identical(self, xs, z):
        scn = _line_scenario((8, 9, 37.5e-9, 75e-9, 4.0, 0.05, 5e-12, -0.5), xs, None)
        x = centered_axis(-5e-6, 5e-6, 32)
        assert source_field_matrix(scn, x, z).tobytes() == _per_source(scn, x, z).tobytes()

    @pytest.mark.parametrize("z", [0.03, 0.1])
    def test_x_zero_is_evaluated_once(self, z, monkeypatch):
        scn = _line_scenario((8, 9, 37.5e-9, 75e-9, 4.0, 0.05, 5e-12, -0.5), (-1e-6, 1e-6), None)
        seen = []
        real = coherence.field_at
        monkeypatch.setattr(coherence, "field_at",
                            lambda s, x, z, x_s: seen.append(np.array(x)) or real(s, x, z, x_s=x_s))
        source_field_matrix(scn, np.array([-2e-6, 0.0, 1e-6, 2e-6]), z)
        [x] = seen
        assert x.tolist() == [-2e-6, -1e-6, 0.0, 1e-6, 2e-6]
