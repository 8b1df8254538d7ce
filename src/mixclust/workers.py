"""The forked worker pool shared by :func:`~mixclust.clustering.fit` (its
restarts) and :func:`~mixclust.simulation.run_experiment` (its
replications).

:func:`fork_map` runs one function over many items in forked processes,
each pinned to one OpenBLAS thread, and yields the results in item order.
The function reaches the workers through the fork itself, so large
arguments bound into it (the (n, p) data) are never pickled; only the
items and the results are.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable, Iterable, Iterator

# Thread-count setters exported by the OpenBLAS builds that numpy and scipy
# bundle (64-bit and 32-bit integer ABIs) and by a plain OpenBLAS.
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads")
_PROC_MAPS = "/proc/self/maps"

# The function a worker applies to each item, set by the pool initializer in
# the forked child. The parent never sets it.
_task: Callable | None = None


def _one_blas_thread() -> None:
    """Pin every OpenBLAS mapped into this worker to one thread. Left
    alone, each forked worker restarts OpenBLAS's own threads, which spin
    through the small BLAS calls of an n~1000 fit and compete with the
    other workers for the cores."""
    with open(_PROC_MAPS, encoding="utf-8") as fh:
        # address, perms, offset, device, inode, path (which may hold spaces)
        paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _start_worker(fn: Callable) -> None:
    """Pool initializer: keep ``fn``, inherited through the fork, and pin
    this worker's BLAS to one thread."""
    global _task
    _task = fn
    _one_blas_thread()


def _run_task(item):
    return _task(item)


def _pool_available() -> bool:
    """The worker pool needs ``fork`` and ``/proc/self/maps`` (Linux)."""
    return hasattr(os, "fork") and os.path.exists(_PROC_MAPS)


def default_workers() -> int:
    """One worker per CPU this process may run on; 1 where there is no pool."""
    return len(os.sched_getaffinity(0)) if _pool_available() else 1


def fork_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """``map(fn, items)``, in a pool of ``min(workers, len(items))`` forked
    processes when that is more than one and the pool is available.

    Results come back lazily and in item order, so a caller that reduces
    them keeps only what it needs. An exception raised by ``fn`` reaches
    the caller with its own type when its item's result is read; the items
    not yet started are then cancelled. Each worker runs one BLAS thread;
    the calling process's BLAS settings are never changed, and without a
    pool ``fn`` runs in it. ``fn`` must not rely on state it changes in
    the calling process, because a worker changes only its own copy.
    """
    items = list(items)
    n_workers = min(workers, len(items))
    if n_workers <= 1 or not _pool_available():
        yield from map(fn, items)
        return
    # Imported here: they add about 0.5 MiB and 2.5 ms to the start-up of
    # every CLI call, and only this branch uses them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: workers start from this process's loaded modules
    # instead of importing numpy and mixclust again, and inherit ``fn``
    # without pickling it. mixclust starts no Python threads, and OpenBLAS
    # stops its own before a fork.
    with ProcessPoolExecutor(max_workers=n_workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(fn,)) as pool:
        yield from pool.map(_run_task, items)
