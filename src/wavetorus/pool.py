"""The package's one thread pool, and the OpenBLAS thread pin its callers hold.

``share_work`` maps a function over an iterable on several threads, the
calling thread one of them.  Workers pull items one at a time under a lock,
so the iterable may be a generator: only one thread advances it at a time.
Results come back in item order, so they depend neither on the worker count
nor on the schedule.  ``multi_seed_search`` runs its seed ladder on it, and
the ``verify`` suites their ensembles.

Threads gain only where the work releases the GIL (LAPACK, BLAS and numpy's
array loops).  An OpenBLAS call that runs on several threads oversubscribes
the cores when several workers make such calls, and a threaded LU moves the
last bits of its factors.  So each caller holds the OpenBLAS its calls reach
at one thread (``one_blas_thread``) and runs one worker where it cannot.
``ctypes`` is imported inside ``openblas_threads``: importing the package
binds no ``ctypes``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from functools import lru_cache

_DONE = object()


def usable_cores() -> int:
    """Cores of the process's affinity set (else ``os.cpu_count()``), at least one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_work(fn, items, workers: int) -> list:
    """[fn(x) for x in items] on ``workers`` threads, the calling thread one
    of them; one worker (or fewer) is the serial loop.

    Each worker takes the next item under a lock and stores its result at
    that item's index.  The first exception, from ``fn`` or from advancing
    ``items``, stops further pulls; the other workers finish the item they
    hold, and the exception is raised here once they have all stopped.
    """
    it = iter(items)
    lock = threading.Lock()
    results = []
    errors = []

    def work():
        try:
            while True:
                with lock:
                    if errors:
                        return
                    x = next(it, _DONE)
                    if x is _DONE:
                        return
                    i = len(results)
                    results.append(None)
                results[i] = fn(x)
        except BaseException as exc:
            with lock:
                errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    return results


@lru_cache(maxsize=None)
def openblas_threads(module: str):
    """(get, set) of the thread count of the OpenBLAS that the Linux wheels
    of ``module``'s package bundle in ``<package>.libs`` beside it, or None
    (MKL, Accelerate, a system BLAS).

    ``module`` is imported first (``scipy.linalg`` for scipy's LAPACK,
    ``numpy`` for numpy's matrix products), so ctypes reaches the library
    those calls go to.  The calls are ``openblas_get_num_threads`` and
    ``openblas_set_num_threads`` with the prefix ``scipy_`` (the
    scipy-openblas builds) or none, and the suffix ``64_`` (the builds with
    64-bit integers, as numpy's) or none.  The lookup is made once per
    process.
    """
    import ctypes  # not at module level: start-up
    import glob
    import importlib

    importlib.import_module(module)
    package = importlib.import_module(module.partition(".")[0])
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if get is not None:
                    set_threads = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    return get, set_threads
    return None


@contextmanager
def one_blas_thread(module: str):
    """Hold ``module``'s bundled OpenBLAS (``openblas_threads``) at one
    thread for the block; yield whether it could.  The count is
    process-wide, and the previous one is restored on exit, also when the
    block raises; blocks that overlap in time (two threads' calls) would
    restore it out of order."""
    threads = openblas_threads(module)
    if threads is None:
        yield False
        return
    get, set_threads = threads
    before = get()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(before)
