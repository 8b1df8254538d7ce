"""The forked worker pool shared by :func:`~mixclust.clustering.fit` (its
restarts) and :func:`~mixclust.simulation.run_experiment` (its
replications).

:func:`fork_map` runs one function over many items in forked processes
and yields the results in item order. The function reaches the workers
through the fork itself, so large arguments bound into it (the (n, p)
data) are never pickled; only the items and the results are.

This pool is mixclust's only parallelism. A worker runs with the BLAS
setting of the process it forked from: the ``mixclust`` program runs one
OpenBLAS thread (:mod:`mixclust.__main__`), and a library caller keeps
whatever thread count it set.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator

# The function a worker applies to each item, set by the pool initializer in
# the forked child. The parent never sets it.
_task: Callable | None = None


def _start_worker(fn: Callable) -> None:
    """Pool initializer: keep ``fn``, inherited through the fork."""
    global _task
    _task = fn


def _run_task(item):
    return _task(item)


def _pool_available() -> bool:
    """The pool is Linux-only: it forks, and :func:`default_workers` sizes it
    by ``os.sched_getaffinity``, which Linux alone has."""
    return hasattr(os, "sched_getaffinity")


def default_workers() -> int:
    """One worker per CPU this process may run on; 1 where there is no pool."""
    return len(os.sched_getaffinity(0)) if _pool_available() else 1


def fork_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """``map(fn, items)``, in a pool of ``min(workers, len(items))`` forked
    processes when that is more than one and the pool is available.

    Results come back lazily and in item order, so a caller that reduces
    them keeps only what it needs. An exception raised by ``fn`` reaches
    the caller with its own type when its item's result is read; the items
    not yet started are then cancelled. Each worker keeps the calling
    process's BLAS settings, and without a pool ``fn`` runs in that process
    with them. ``fn`` must not rely on state it changes in the calling
    process, because a worker changes only its own copy.
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
