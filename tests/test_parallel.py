import os
import subprocess
import sys
from pathlib import Path

import pytest

from tlsim import parallel
from tlsim.parallel import WorkerError, map_chunks


class FakeFuture:
    def __init__(self, value=None, error=None):
        self.value, self.error, self.cancelled = value, error, False

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value

    def cancel(self):
        self.cancelled = True
        return True


@pytest.fixture()
def fake_pools(monkeypatch):
    """Replace the executor by a fake that runs each task at submit and
    records its life in ``events``; no process starts."""
    events, futures = [], []

    class FakePool:
        _processes = {}

        def __init__(self, max_workers, initializer=None):
            self.size = max_workers
            events.append(("start", max_workers))

        def submit(self, fn, *args):
            try:
                futures.append(FakeFuture(fn(*args)))
            except BaseException as exc:
                futures.append(FakeFuture(error=exc))
            return futures[-1]

        def shutdown(self, wait=True, cancel_futures=False):
            events.append(("shutdown", self.size))

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
    return events, futures


def _square(v):
    return v * v


def _fail_on_two(v):
    if v == 2:
        raise ValueError("two")
    return v


def _interrupt(v):
    raise KeyboardInterrupt


def _exit_on_one(v):
    if v == 1:
        os._exit(3)
    return v


class TestPoolLifecycle:
    def test_one_worker_runs_in_process(self, fake_pools):
        events, _ = fake_pools
        assert map_chunks(_square, [(1,), (2,), (3,)], 1) == [1, 4, 9]
        assert events == []

    def test_same_size_is_reused(self, fake_pools):
        events, _ = fake_pools
        assert map_chunks(_square, [(1,), (2,), (3,)], 2) == [1, 4, 9]
        assert map_chunks(_square, [(4,), (5,)], 2) == [16, 25]
        assert events == [("start", 2)]

    def test_new_size_shuts_the_old_pool_down_first(self, fake_pools):
        events, _ = fake_pools
        map_chunks(_square, [(1,), (2,)], 2)
        map_chunks(_square, [(1,), (2,), (3,)], 3)
        assert events == [("start", 2), ("shutdown", 2), ("start", 3)]

    def test_size_is_capped_by_chunks_and_cpus(self, fake_pools, monkeypatch):
        events, _ = fake_pools
        map_chunks(_square, [(1,), (2,), (3,)], 5000)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        map_chunks(_square, [(1,), (2,), (3,)], 5000)
        assert [size for what, size in events if what == "start"] == [3, 2]

    def test_task_error_cancels_pending_and_keeps_pool(self, fake_pools):
        events, futures = fake_pools
        with pytest.raises(ValueError, match="two"):
            map_chunks(_fail_on_two, [(1,), (2,), (3,)], 2)
        assert futures[2].cancelled
        map_chunks(_square, [(1,), (2,)], 2)
        assert events == [("start", 2)]

    def test_interrupt_drops_pool(self, fake_pools):
        events, futures = fake_pools
        with pytest.raises(KeyboardInterrupt):
            map_chunks(_interrupt, [(1,), (2,)], 2)
        assert all(f.cancelled for f in futures)
        assert parallel._pool is None
        map_chunks(_square, [(1,), (2,)], 2)
        assert events == [("start", 2), ("shutdown", 2), ("start", 2)]


def test_dead_worker_gives_one_error_and_a_fresh_pool(monkeypatch):
    # one real pool of 2 processes, then a fake: at most 2 processes start
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    with pytest.raises(WorkerError, match="worker process died") as info:
        map_chunks(_exit_on_one, [(0,), (1,)], 2)
    assert info.value.__suppress_context__  # one error, not a chain
    assert parallel._pool is None
    started = []

    class FakePool:
        def __init__(self, max_workers, initializer=None):
            started.append(max_workers)

        def submit(self, fn, *args):
            return FakeFuture(fn(*args))

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    assert map_chunks(_square, [(2,), (3,)], 2) == [4, 9]
    assert started == [2]


def test_no_worker_outlives_its_process():
    # a 2-worker grid in a child interpreter; it prints its workers' pids
    src = Path(parallel.__file__).resolve().parents[1]
    script = (
        "from tlsim import parallel\n"
        "from tlsim.presets import preset_run_config\n"
        "from tlsim.fieldgrid import evaluate_grid\n"
        "parallel.os.cpu_count = lambda: 2\n"
        "rc = preset_run_config('fig4a', nx=8, nz=4)\n"
        "evaluate_grid(rc.scenario, rc.grid, workers=2)\n"
        "print(*parallel._pool._processes)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    pids = [int(p) for p in out.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_setup_leaves_pool_and_hash_modules_unloaded():
    """Importing tlsim and loading a preset's config import neither the
    process pool's modules nor hashlib: a serial run's set-up never pays
    for them."""
    src = Path(parallel.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import tlsim.presets\n"
        "tlsim.presets.preset_run_config('fig12')\n"
        "print(*[m for m in ('concurrent.futures', 'multiprocessing', 'hashlib')"
        " if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == []
