"""One process pool per process for tlsim's data-parallel evaluations.

``coherence.evaluate_densities`` is the one caller of ``map_chunks``: it
cuts its (z, x) samples into ``min(nz, 4 workers)`` row blocks, or into up
to ``workers`` x columns (in |x| order) when the rows are fewer than both 2
workers and nx, and ``map_chunks`` runs the chunks in order.  Each sample is
computed with a summation order that does not depend on its chunk, so the
joined result is bit-identical for any split.

The pool is created by the first call that needs more than one worker and
is reused while that size repeats; a call of another size shuts the old
pool down (joining its threads and processes) before it starts the new
one, so no fork happens while an executor thread is alive.  Starting a
pool costs tens of milliseconds and fresh workers run cold, which is why
it is kept.  A worker is a fork of the process as it was when the pool
started: it runs the module state of that moment, not of a later call.
A serial run never imports ``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import os
import signal

from .core import DomainError

ProcessPoolExecutor = None  # concurrent.futures' executor, bound by the first pool
_pool = None
_pool_size = 0


class WorkerError(RuntimeError):
    """A worker process died; the pool it belonged to has been dropped."""


def default_workers(workers: int | None = None, *, name: str = "workers") -> int:
    """The worker count: ``workers`` if given, else the CPU count.  A count
    below 1 raises, naming the option ``name`` it came from."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise DomainError(f"{name} must be >= 1, got {workers}")
    return workers


def _ignore_sigint() -> None:
    # Ctrl-C reaches the whole process group; the parent alone handles it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _get_pool(size: int):
    global _pool, _pool_size, ProcessPoolExecutor
    if _pool is None or _pool_size != size:
        shutdown_pool()
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        _pool = ProcessPoolExecutor(max_workers=size, initializer=_ignore_sigint)
        _pool_size = size
    return _pool


def shutdown_pool(*, terminate: bool = False) -> None:
    """Drop the cached pool: cancel its pending tasks and join its threads
    and processes.  ``terminate`` also stops the tasks already running."""
    global _pool, _pool_size
    pool, _pool, _pool_size = _pool, None, 0
    if pool is None:
        return
    if terminate:
        # ProcessPoolExecutor has no public way to stop a running task
        # before Python 3.14; its workers then read as a broken pool.
        for proc in list((pool._processes or {}).values()):
            proc.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


def map_chunks(fn, chunks, workers: int) -> list:
    """``[fn(*args) for args in chunks]``, in order.

    Runs over the cached pool of ``min(workers, len(chunks), CPUs)``
    processes, or in this process when that is 1; ``fn`` and its arguments
    must pickle.  A dead worker raises ``WorkerError`` and Ctrl-C raises
    ``KeyboardInterrupt``; either way the pool is stopped and dropped first,
    and the next call starts a fresh one.  An error raised by ``fn`` itself
    cancels the pending chunks and keeps the pool.
    """
    chunks = list(chunks)
    size = min(workers, len(chunks), os.cpu_count() or 1)
    if size <= 1:
        return [fn(*args) for args in chunks]
    from concurrent.futures.process import BrokenProcessPool
    pool = _get_pool(size)
    futures = []
    try:
        futures = [pool.submit(fn, *args) for args in chunks]
        return [fut.result() for fut in futures]
    except BrokenProcessPool:
        shutdown_pool(terminate=True)
        raise WorkerError("a worker process died; the evaluation was abandoned") from None
    except KeyboardInterrupt:
        shutdown_pool(terminate=True)
        raise
    finally:
        for fut in futures:
            fut.cancel()
