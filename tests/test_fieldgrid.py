import math
import os

import numpy as np
import pytest

from tlsim import parallel
from tlsim.core import DomainError, GratingSpec, SourceSpec
from tlsim.fieldgrid import (
    DensityField,
    GridSpec,
    cross_section,
    evaluate_grid,
    export_csv,
    export_field,
    export_meta,
    export_pgm,
    export_profile_csv,
    parse_csv,
    read_pgm,
)
from tlsim.scenario import Scenario
from tlsim.superposition import density, superpose_behind, superpose_between


def _scenario(particle, n0=3, n1=2, region="full", z_s=-0.5, **g1_kw):
    g0 = GratingSpec(n0, 500e-9, 37.5e-9, 0.0)
    g1 = GratingSpec(n1, 500e-9, 75e-9, 0.05, **g1_kw)
    src = SourceSpec(kind="point", x_positions=(0.0,), z_s=z_s)
    return Scenario(particle=particle, grating0=g0, grating1=g1, source=src,
                    region=region)


def _small_grid(region="full"):
    if region == "behind":
        return GridSpec(-2e-6, 2e-6, 0.05, 0.12, 31, 9)
    return GridSpec(-2e-6, 2e-6, 0.0, 0.12, 31, 9)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(1.0, 0.0, 0.0, 1.0, 4, 4)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 1.0, 0.5, 4, 4)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 1, 4)

    @pytest.mark.parametrize("field", ["x_min", "x_max", "z_min", "z_max"])
    @pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
    def test_bounds_must_be_finite(self, field, bad):
        bounds = {"x_min": -1e-6, "x_max": 1e-6, "z_min": 0.0, "z_max": 0.1}
        bounds[field] = bad
        with pytest.raises(DomainError):
            GridSpec(nx=4, nz=4, **bounds)

    def test_axes_endpoints_exact(self):
        g = GridSpec(-1e-6, 3e-6, 0.05, 0.06, 17, 11)
        assert g.x_axis()[0] == -1e-6 and g.x_axis()[-1] == 3e-6
        assert g.z_axis()[0] == 0.05 and g.z_axis()[-1] == 0.06


class TestEvaluateGrid:
    def test_two_by_two_single_paths(self, fullerene):
        scn = _scenario(fullerene, n0=1, n1=1, region="behind")
        grid = GridSpec(-1e-6, 1e-6, 0.06, 0.1, 2, 2)
        field = evaluate_grid(scn, grid, workers=1)
        for i, z in enumerate(grid.z_axis()):
            for j, x in enumerate(grid.x_axis()):
                assert field.values[i, j] == density(superpose_behind(scn, float(x), float(z)))

    def test_spot_checks_bit_equal(self, fullerene, rng):
        scn = _scenario(fullerene, n0=4, n1=3)
        grid = _small_grid()
        field = evaluate_grid(scn, grid, workers=1)
        xs, zs = grid.x_axis(), grid.z_axis()
        for _ in range(10):
            i = int(rng.integers(0, grid.nz))
            j = int(rng.integers(0, grid.nx))
            z = float(zs[i])
            if z <= scn.z1:
                expect = density(superpose_between(scn, float(xs[j]), z))
            else:
                expect = density(superpose_behind(scn, float(xs[j]), z))
            assert field.values[i, j] == expect

    def test_symmetric_scenario_mirror_columns(self, fullerene):
        scn = _scenario(fullerene, n0=4, n1=3)
        field = evaluate_grid(scn, _small_grid(), workers=1)
        vals = field.values
        assert np.max(np.abs(vals - vals[:, ::-1])) <= 1e-9 * vals.max()

    def test_parallel_bit_identical(self, fullerene):
        scn = _scenario(fullerene, n0=4, n1=3)
        grid = _small_grid()
        f1 = evaluate_grid(scn, grid, workers=1)
        f2 = evaluate_grid(scn, grid, workers=2)
        f3 = evaluate_grid(scn, grid, workers=3)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(f1.values, f3.values)
        assert f1.fingerprint == f2.fingerprint

    def test_parallel_bit_identical_32_33(self, fullerene):
        scn = _scenario(fullerene, n0=32, n1=33)
        grid = _small_grid()
        f1 = evaluate_grid(scn, grid, workers=1)
        assert all(
            np.array_equal(f1.values, evaluate_grid(scn, grid, workers=w).values) for w in (2, 3)
        )

    def test_region_grid_mismatch(self, fullerene):
        scn = _scenario(fullerene, region="behind")
        with pytest.raises(DomainError):
            evaluate_grid(scn, _small_grid("full"), workers=1)
        scn_b = _scenario(fullerene, region="between")
        with pytest.raises(DomainError):
            evaluate_grid(scn_b, _small_grid("full"), workers=1)

    def test_boundary_row_uses_between_form_for_full_region(self, fullerene):
        scn = _scenario(fullerene, n0=3, n1=2)
        grid = GridSpec(-1e-6, 1e-6, 0.0, 0.1, 9, 3)  # middle row exactly at z1
        field = evaluate_grid(scn, grid, workers=1)
        x = grid.x_axis()
        expect = density(superpose_between(scn, x, 0.05))
        assert np.array_equal(field.values[1], expect)

    def test_boundary_row_uses_behind_limit_for_behind_region(self, fullerene):
        scn = _scenario(fullerene, n0=3, n1=2, region="behind")
        grid = GridSpec(-1e-6, 1e-6, 0.05, 0.1, 9, 3)
        field = evaluate_grid(scn, grid, workers=1)
        x = grid.x_axis()
        expect = density(superpose_behind(scn, x, 0.05))
        assert np.array_equal(field.values[0], expect)


class TestCrossSection:
    def _field(self, fullerene):
        scn = _scenario(fullerene, n0=2, n1=2)
        return evaluate_grid(scn, _small_grid(), workers=1)

    def test_first_row(self, fullerene):
        field = self._field(fullerene)
        prof = cross_section(field, field.grid.z_min)
        assert prof.z == field.grid.z_min
        assert np.array_equal(prof.p, field.values[0])

    def test_tie_goes_to_lower_row(self, fullerene):
        field = self._field(fullerene)
        zs = field.grid.z_axis()
        mid = 0.5 * (zs[3] + zs[4])
        prof = cross_section(field, float(mid))
        assert prof.z == zs[3]

    def test_out_of_range(self, fullerene):
        field = self._field(fullerene)
        with pytest.raises(DomainError):
            cross_section(field, 0.2)

    def test_restrict_window(self, fullerene):
        field = self._field(fullerene)
        prof = cross_section(field, 0.08).restrict(-1e-6, 1e-6)
        assert prof.x.min() >= -1e-6 and prof.x.max() <= 1e-6

    def test_restrict_to_empty_window_rejected(self, fullerene):
        prof = cross_section(self._field(fullerene), 0.08)
        with pytest.raises(DomainError, match="contains no samples"):
            prof.restrict(1.0, 2.0)


class TestExports:
    def test_csv_round_trip_bit_exact(self, fullerene, tmp_path):
        scn = _scenario(fullerene, n0=2, n1=2)
        field = evaluate_grid(scn, GridSpec(-1e-6, 1e-6, 0.0, 0.1, 5, 4), workers=1)
        path = tmp_path / "field.csv"
        export_csv(field, path)
        x, z, p = parse_csv(path)
        assert np.array_equal(p.reshape(4, 5), field.values)
        assert np.array_equal(x.reshape(4, 5)[0], field.grid.x_axis())
        assert np.array_equal(z.reshape(4, 5)[:, 0], field.grid.z_axis())

    def test_csv_bytes_match_per_sample_format(self, rng, tmp_path):
        grid = GridSpec(-1e-6, 1e-6, 0.0, 0.1, 7, 5)
        values = rng.random((5, 7)) * 1e-3
        values[0, :3] = (0.0, 5e-324, 1e300)
        values[4, 6] = 0.1 + 0.2
        field = DensityField(grid=grid, values=values, fingerprint="0" * 64)
        path = tmp_path / "f.csv"
        export_csv(field, path)
        x, zs = grid.x_axis(), grid.z_axis()
        expect = "x_m,z_m,p\n" + "".join(
            f"{x[j]:.17g},{zs[i]:.17g},{values[i, j]:.17g}\n"
            for i in range(len(zs)) for j in range(len(x))
        )
        assert path.read_bytes() == expect.encode("utf-8")

    def test_csv_header(self, fullerene, tmp_path):
        scn = _scenario(fullerene, n0=1, n1=1, region="behind")
        field = evaluate_grid(scn, GridSpec(-1e-6, 1e-6, 0.06, 0.1, 2, 2), workers=1)
        path = tmp_path / "f.csv"
        export_csv(field, path)
        assert path.read_text().splitlines()[0] == "x_m,z_m,p"

    def test_pgm_zero_field(self, tmp_path):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        field = DensityField(grid=grid, values=np.zeros((2, 2)), fingerprint="0" * 64)
        path = tmp_path / "zero.pgm"
        export_pgm(field, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n65535\n")
        assert raw[-8:] == b"\x00" * 8
        assert np.array_equal(read_pgm(path), np.zeros((2, 2), dtype=np.uint16))

    def test_pgm_linear_mapping(self, tmp_path):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        vals = np.array([[0.0, 0.25], [0.5, 1.0]])
        field = DensityField(grid=grid, values=vals, fingerprint="0" * 64)
        path = tmp_path / "lin.pgm"
        export_pgm(field, path)
        pix = read_pgm(path)
        assert pix[1, 1] == 65535  # max value pixel saturates
        assert pix[0, 0] == 0
        assert pix[0, 1] == round(0.25 * 65535)
        # monotone: sorted densities give sorted pixels
        order = np.argsort(vals.ravel())
        assert np.all(np.diff(pix.ravel()[order].astype(int)) >= 0)

    def test_pgm_log_mapping(self, tmp_path):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        vals = np.array([[1.0, 1e-2], [1e-5, 0.0]])
        field = DensityField(grid=grid, values=vals, fingerprint="0" * 64)
        path = tmp_path / "log.pgm"
        export_pgm(field, path, log_scale=True)
        pix = read_pgm(path)
        assert pix[0, 0] == 65535
        assert pix[0, 1] == round(0.5 * 65535)  # two decades down over a 4-decade range
        assert pix[1, 0] == 0  # below the 4-decade floor
        assert pix[1, 1] == 0  # exact zero maps to black

    def test_meta_contains_fingerprint_and_echo(self, fullerene, tmp_path):
        scn = _scenario(fullerene, n0=2, n1=2)
        field = evaluate_grid(scn, GridSpec(-1e-6, 1e-6, 0.0, 0.1, 3, 3), workers=1)
        [path] = export_field(field, scn, str(tmp_path / "f"), ("meta",), extra=["note = smoke"])
        assert path == str(tmp_path / "f.meta.txt")
        text = (tmp_path / "f.meta.txt").read_text()
        assert f"fingerprint = {field.fingerprint}" in text
        assert f"particle.lambda = {5e-12:.17g}" in text
        assert "grid.nx = 3" in text
        assert "note = smoke" in text

    def test_fingerprint_stable_and_sensitive(self, fullerene):
        scn = _scenario(fullerene, n0=2, n1=2)
        grid = GridSpec(-1e-6, 1e-6, 0.0, 0.1, 3, 3)
        f1 = evaluate_grid(scn, grid, workers=1)
        f2 = evaluate_grid(scn, grid, workers=2)
        assert f1.fingerprint == f2.fingerprint
        other = evaluate_grid(_scenario(fullerene, n0=3, n1=2), grid, workers=1)
        assert other.fingerprint != f1.fingerprint

    def test_export_field_dispatch(self, fullerene, tmp_path):
        scn = _scenario(fullerene, n0=1, n1=1, region="behind")
        field = evaluate_grid(scn, GridSpec(-1e-6, 1e-6, 0.06, 0.1, 2, 2), workers=1)
        prefix = str(tmp_path / "a")
        written = export_field(field, scn, prefix, ("meta", "pgm", "csv"))
        assert written == [f"{prefix}.field.csv", f"{prefix}.field.pgm", f"{prefix}.meta.txt"]
        assert all((tmp_path / p).exists() for p in written)
        assert export_field(field, scn, str(tmp_path / "b"), ("pgm",)) == [f"{tmp_path / 'b'}.field.pgm"]
        assert not (tmp_path / "b.field.csv").exists() and not (tmp_path / "b.meta.txt").exists()
        with pytest.raises(DomainError):
            export_field(field, scn, str(tmp_path / "c"), ("csv", "bmp"))
        assert not (tmp_path / "c.field.csv").exists()

    def test_io_error_carries_path(self, fullerene):
        scn = _scenario(fullerene, n0=1, n1=1, region="behind")
        field = evaluate_grid(scn, GridSpec(-1e-6, 1e-6, 0.06, 0.1, 2, 2), workers=1)
        with pytest.raises(IOError, match="no/such/dir"):
            export_csv(field, "no/such/dir/f.csv")
        with pytest.raises(IOError, match="writing metadata to no/such/dir"):
            export_meta("no/such/dir/f.meta.txt", scn, [], field.fingerprint)

    @pytest.mark.parametrize("read, content, message", [
        (read_pgm, b"P2\n2 2\n65535\n", "not a binary PGM"),
        (read_pgm, b"P5\n2 2\n255\n" + bytes(4), "expected 16-bit PGM, maxval=255"),
        (read_pgm, None, "reading PGM from .*No such file"),
        (parse_csv, None, "reading CSV from .*not found"),
    ], ids=["pgm not P5", "pgm maxval 255", "pgm missing", "csv missing"])
    def test_unreadable_file_rejected(self, tmp_path, read, content, message):
        path = tmp_path / "in"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(IOError, match=message):
            read(path)

    def test_profile_csv(self, fullerene, tmp_path):
        scn = _scenario(fullerene, n0=2, n1=2)
        field = evaluate_grid(scn, _small_grid(), workers=1)
        prof = cross_section(field, 0.1)
        path = tmp_path / "prof.csv"
        export_profile_csv(prof, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "x_m,p"
        assert len(lines) == 2 + len(prof.x)


class TestWorkerDefaults:
    def test_explicit_count_wins_and_is_checked(self, fullerene):
        from tlsim.fieldgrid import default_workers

        assert default_workers() == (os.cpu_count() or 1)
        assert default_workers(2) == 2
        with pytest.raises(DomainError, match="--threads must be >= 1, got 0"):
            default_workers(0, name="--threads")
        with pytest.raises(DomainError, match="workers must be >= 1"):
            evaluate_grid(_scenario(fullerene, n0=2, n1=2), _small_grid(), workers=-1)

    @pytest.mark.parametrize("workers, nz, cpus, pool, chunks", [
        (5000, 10, 2, 2, 10),   # huge request, small host: the CPUs bound the pool
        (5000, 6, 64, 6, 6),    # huge request, short grid: the chunks bound it
        (3, 100, 64, 3, 12),    # a modest request is honoured
    ])
    def test_pool_size_is_capped(self, fullerene, monkeypatch, workers, nz, cpus, pool, chunks):
        # the fake pool records its size and runs nothing: no process starts
        seen, submitted = [], []

        class FakeFuture:
            def __init__(self, rows):
                self.rows = rows

            def result(self):
                return np.zeros((1, self.rows, 5))

            def cancel(self):
                return False

        class FakePool:
            def __init__(self, max_workers, initializer=None):
                seen.append(max_workers)

            def submit(self, fn, scenarios, x, zs):
                submitted.append((zs[0], zs[-1], len(zs)))
                return FakeFuture(len(zs))

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        grid = GridSpec(-1e-6, 1e-6, 0.06, 0.1, 5, nz)
        evaluate_grid(_scenario(fullerene, region="behind"), grid, workers=workers)
        assert seen == [pool]
        # the chunking still follows the requested worker count
        assert len(submitted) == chunks
        assert submitted[0][0] == grid.z_min and submitted[-1][1] == grid.z_max
        assert sum(n for _, _, n in submitted) == nz


class TestProfileIntegrals:
    def test_jet_cross_sections_conserve_flux(self, fullerene):
        # profiles taken right at the slit exit, at the waist and past it
        # integrate to nearly the same flux
        scn = Scenario(
            particle=fullerene,
            grating0=GratingSpec(4, 500e-9, 37.5e-9, 0.0),
            grating1=GratingSpec(5, 500e-9, 75e-9, 0.05, comb_k=64, comb_eta=1.5),
            source=SourceSpec(kind="point", x_positions=(0.0,), z_s=-0.5),
            region="behind",
        )
        grid = GridSpec(-250e-9, 250e-9, 0.05, 0.06, 257, 101)
        field = evaluate_grid(scn, grid, workers=2)
        zt = scn.z_talbot
        integrals = [cross_section(field, f * zt).integral() for f in (0.5, 0.513, 0.55)]
        spread = (max(integrals) - min(integrals)) / max(integrals)
        assert spread < 0.05
