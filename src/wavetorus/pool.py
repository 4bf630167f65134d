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
last bits of its factors.  So ``share_work`` holds the OpenBLAS its caller's
calls reach at one thread and runs one worker where it cannot.  ``ctypes``
is imported inside ``openblas_threads``: importing the package binds no
``ctypes``.

``lapack`` loads scipy's f2py LAPACK module, whose ``dgetrf`` and
``dgetrs`` are all the dense Newton step needs, without importing
``scipy.linalg`` (about 21 MB and 0.35 s of start-up against 2.5 MB and
5 ms).  ``multi_seed_search``'s pin makes the first call on the calling
thread, before any worker starts.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from functools import lru_cache

_DONE = object()
POOL_BYTES = 32 << 20  # memory the workers of one share_work call hold together


def usable_cores() -> int:
    """Cores of the process's affinity set (else ``os.cpu_count()``), at least one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_work(fn, items, n: int, blas: str, item_bytes: int = 0) -> list:
    """[fn(x) for x in items], ``n`` items, on min(n, usable cores,
    POOL_BYTES // item_bytes) threads, at least one (``item_bytes``: the
    memory one call of ``fn`` holds, 0 for no bound), with ``blas``'s
    OpenBLAS held at one thread; on one thread where that OpenBLAS is not
    found.  The count is process-wide and restored on return or raise, out
    of order if pooled calls overlap in time.
    """
    threads = openblas_threads(blas)
    if threads is None:
        return _map(fn, items, 1)
    get, set_threads = threads
    before = get()
    set_threads(1)
    try:
        cap = POOL_BYTES // item_bytes if item_bytes else n
        return _map(fn, items, max(1, min(n, usable_cores(), cap)))
    finally:
        set_threads(before)


def _map(fn, items, workers: int) -> list:
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


def _load_flapack():
    """``scipy.linalg._flapack`` loaded from its file under its own name into
    ``sys.modules``, where a later ``import scipy.linalg`` finds it; no scipy
    package is imported, not even to find the file."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                        "linalg", "_flapack")
    path = next(stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                if os.path.isfile(stem + suffix))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


@lru_cache(maxsize=None)
def lapack():
    """scipy's LAPACK wrappers, once per process: ``_load_flapack()``, or
    ``scipy.linalg.lapack`` when that fails in any way.  Both hold the same
    ``dgetrf`` and ``dgetrs``, the ones ``scipy.linalg.lu_factor`` and
    ``lu_solve`` call."""
    try:
        return _load_flapack()
    except Exception:
        from scipy.linalg import lapack as module

        return module


@lru_cache(maxsize=None)
def openblas_threads(module: str):
    """(get, set) of the thread count of the OpenBLAS that the Linux wheels
    of ``module``'s package bundle in ``<package>.libs`` beside it, or None
    (MKL, Accelerate, a system BLAS).

    ``module`` is loaded first, so ctypes reaches the library its calls go
    to: ``"scipy.linalg"`` names scipy's LAPACK, loaded by ``lapack`` (no
    ``scipy.linalg`` import), ``"numpy"`` numpy's matrix products.  The
    calls are ``openblas_get_num_threads`` and ``openblas_set_num_threads``
    with the prefix ``scipy_`` (the scipy-openblas builds) or none, and the
    suffix ``64_`` (the builds with 64-bit integers, as numpy's) or none.
    The lookup is made once per process.
    """
    import ctypes  # not at module level: start-up
    import glob

    if module == "scipy.linalg":
        lapack()
    else:
        importlib.import_module(module)
    package = module.partition(".")[0]
    site = os.path.dirname(importlib.util.find_spec(package).submodule_search_locations[0])
    for path in sorted(glob.glob(os.path.join(site, package + ".libs", "lib*openblas*"))):
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
