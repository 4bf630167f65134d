"""The package's one thread pool, and the binding of each bundled OpenBLAS:
the thread pin the pool's callers hold, and the dense LU routines.

``share_work`` maps a function over an iterable on several threads, the
calling thread one of them.  Workers pull items one at a time under a lock,
so the iterable may be a generator: only one thread advances it at a time.
Results come back in item order, so they depend neither on the worker count
nor on the schedule.  ``multi_seed_search`` runs its seed ladder on it, and
the ``verify`` suites their ensembles.

Threads gain only where the work releases the GIL: numpy's array loops and
matrix products, and the LU routines of ``lapack``, which ``ctypes`` calls
with the GIL released.  An OpenBLAS call that runs on several threads
oversubscribes the cores when several workers make such calls, and a
threaded LU moves the last bits of its factors.  So ``share_work`` holds the
OpenBLAS its caller's calls reach at one thread and runs one worker where it
cannot.  The pin is ``one_blas_thread``, which the ``norms`` command holds
too, so that its grid sums keep their bits at any BLAS thread count.

One ``BundledOpenBLAS`` binds each bundled library (``_bundled_openblas``):
its thread count, which ``one_blas_thread`` pins, and its ``dgetrf`` and
``dgetrs``, which the dense Newton step calls (``lapack``) on the library
of ``LU_PACKAGE``, scipy, the one name of that choice.  So the pin of
``multi_seed_search`` and the LU act on the same library, and a solve
imports no scipy module: neither ``scipy.linalg``, which brings
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` with it, nor its f2py
LAPACK module alone, each of which adds start-up time and peak RSS
(measured in CHANGES.md).  ``ctypes`` is imported inside the functions that use it:
importing the package binds no ``ctypes``.
"""

from __future__ import annotations

import importlib.util
import os
import threading
from contextlib import contextmanager
from functools import cached_property, lru_cache

import numpy as np

_DONE = object()
POOL_BYTES = 32 << 20  # memory the workers of one share_work call hold together
LU_PACKAGE = "scipy"  # the package whose bundled OpenBLAS runs the LU of lapack()


def usable_cores() -> int:
    """Cores of the process's affinity set (else ``os.cpu_count()``), at least one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_work(fn, items, n: int, package: str, item_bytes: int = 0) -> list:
    """[fn(x) for x in items], ``n`` items, on min(n, usable cores,
    POOL_BYTES // item_bytes) threads, at least one (``item_bytes``: the
    memory one call of ``fn`` holds, 0 for no bound), with the OpenBLAS
    that ``package`` bundles held at one thread (``one_blas_thread``):
    ``LU_PACKAGE``'s, which runs the LU of ``lapack``, or ``"numpy"``'s,
    which runs its matrix products; on one thread where that OpenBLAS is
    not found.
    """
    with one_blas_thread(package) as pinned:
        cap = POOL_BYTES // item_bytes if item_bytes else n
        return _map(fn, items, max(1, min(n, usable_cores(), cap)) if pinned else 1)


@contextmanager
def one_blas_thread(package: str):
    """Hold the OpenBLAS that ``package`` bundles at one thread for the
    ``with`` block, which gets True; False, and no pin, where that OpenBLAS
    is not found.  The count is process-wide and restored on exit, out of
    order if pinned blocks on several threads overlap in time."""
    blas = _bundled_openblas(package)
    if blas is None:
        yield False
        return
    before = blas.threads()
    blas.set_threads(1)
    try:
        yield True
    finally:
        blas.set_threads(before)


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


class BundledOpenBLAS:
    """One OpenBLAS that a Linux wheel bundles, bound through ``ctypes``:
    its thread count (``threads``, ``set_threads``) and its ``dgetrf`` and
    ``dgetrs``, called as scipy's f2py wrappers of the same routines are:
    ``dgetrf(a, overwrite_a=1) -> (lu, piv, info)`` and
    ``dgetrs(lu, piv, b) -> (x, info)``, with 0-based pivots and LAPACK's
    ``info`` returned, not raised.

    The library names each routine with its ``prefix`` before and its
    ``suffix`` after: ``scipy_`` (the scipy-openblas builds) or none, and
    ``64_`` (the builds with 64-bit integers, as numpy's) or none, so
    ``scipy_dgetrf_`` and ``scipy_openblas_get_num_threads64_``.  The thread
    calls are bound when the object is made, and an AttributeError says the
    library does not name them so; the LAPACK routines at their first call,
    so a library that is only pinned need not export them.

    ``dgetrf`` factors ``a`` in place, so ``lu`` is ``a``; ``dgetrs`` solves
    for one right-hand side, on a copy of ``b``.  ``a`` and ``lu`` must be
    writeable, Fortran-contiguous float64 arrays, else ValueError: f2py
    would factor a copy of any other array, silently, and leave ``a`` as it
    was.  Every call makes its own integers, so threads may call at once,
    and ``ctypes`` releases the GIL for the call, as the f2py wrappers do.
    """

    def __init__(self, lib, prefix: str, suffix: str):
        import ctypes

        self._lib, self.prefix, self.suffix = lib, prefix, suffix
        # the builds with the suffix 64_ take 64-bit integers
        self._int = ctypes.c_int64 if suffix == "64_" else ctypes.c_int
        self.threads = self._routine("openblas_get_num_threads", [], ctypes.c_int)
        self.set_threads = self._routine("openblas_set_num_threads", [ctypes.c_int])

    def _routine(self, name: str, argtypes: list, restype=None):
        routine = self._lib[self.prefix + name + self.suffix]
        routine.argtypes, routine.restype = argtypes, restype
        return routine

    @cached_property
    def _lu(self):
        """(dgetrf, dgetrs), bound at their first call."""
        import ctypes

        ref, ptr = ctypes.POINTER(self._int), ctypes.c_void_p
        return (self._routine("dgetrf_", [ref, ref, ptr, ref, ptr, ref]),  # m, n, a, lda, ipiv, info
                # trans, n, nrhs, a, lda, ipiv, b, ldb, info, and trans's hidden length
                self._routine("dgetrs_", [ctypes.c_char_p, ref, ref, ptr, ref, ptr, ptr, ref, ref,
                                          ctypes.c_size_t]))

    @staticmethod
    def _check_matrix(a, name):
        if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == np.float64
                and a.flags.f_contiguous and a.flags.writeable):
            raise ValueError(f"{name} must be a writeable, Fortran-contiguous 2-d float64 array")

    def dgetrf(self, a, overwrite_a=1):
        """(a, piv, info): ``a`` holds L and U, row i was swapped with row
        piv[i], and info > 0 names a zero pivot U(info, info)."""
        if not overwrite_a:
            raise ValueError("dgetrf factors in place only: pass a copy to keep a")
        self._check_matrix(a, "a")
        m, n = a.shape
        piv = np.empty(min(m, n), self._int)
        info = self._int()
        self._lu[0](self._int(m), self._int(n), a.ctypes.data, self._int(max(1, m)),
                    piv.ctypes.data, info)
        piv -= 1
        return a, piv, info.value

    def dgetrs(self, lu, piv, b):
        """(x, info): the solution of A x = b from ``dgetrf``'s factors of A."""
        self._check_matrix(lu, "lu")
        n = lu.shape[0]
        x = np.array(b, dtype=np.float64)
        if lu.shape != (n, n) or len(piv) != n or x.shape != (n,):
            raise ValueError(f"dgetrs needs an n x n lu, n pivots and a b of n entries (n = {n})")
        ipiv = np.asarray(piv, self._int) + 1
        info = self._int()
        self._lu[1](b"N", self._int(n), self._int(1), lu.ctypes.data, self._int(max(1, n)),
                    ipiv.ctypes.data, x.ctypes.data, self._int(max(1, n)), info, 1)
        return x, info.value


@lru_cache(maxsize=None)
def _bundled_openblas(package: str):
    """The ``BundledOpenBLAS`` of the library that the Linux wheels of
    ``package`` bundle in ``<package>.libs`` beside it, or None (MKL,
    Accelerate, a system BLAS), found once per process.

    The library is opened by its path through ``ctypes``; the package's own
    extension modules link it by the same name, so both reach one copy,
    whichever loads it first.  Its naming is the first (prefix, suffix) of
    ``BundledOpenBLAS`` under which it exports the thread calls.
    """
    import ctypes
    import glob

    site = os.path.dirname(importlib.util.find_spec(package).submodule_search_locations[0])
    for path in sorted(glob.glob(os.path.join(site, package + ".libs", "lib*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", ""), ("scipy_", "64_"), ("", ""), ("", "64_")):
            try:
                return BundledOpenBLAS(lib, prefix, suffix)
            except AttributeError:  # not this library's naming
                pass
    return None


@lru_cache(maxsize=None)
def lapack():
    """The ``dgetrf`` and ``dgetrs`` that ``scipy.linalg.lu_factor`` and
    ``lu_solve`` reach, once per process: ``LU_PACKAGE``'s
    ``BundledOpenBLAS``, the library ``share_work(..., LU_PACKAGE)`` pins,
    so that no scipy module is imported; or ``scipy.linalg.lapack``, whose
    f2py wrappers take the same calls, where no such library is found."""
    blas = _bundled_openblas(LU_PACKAGE)
    if blas is None:
        from scipy.linalg import lapack as module

        return module
    return blas
