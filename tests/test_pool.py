import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from wavetorus import pool
from wavetorus.pool import _map, share_work
from wavetorus.solver import DENSE_LIMIT, PenalizedProblem, _solve_bytes
from wavetorus.spectral import lattice


@pytest.mark.parametrize("workers", [0, 1, 2, 8])
def test_share_work_keeps_item_order(workers):
    # item 0 finishes last whenever a second worker exists; the results
    # still come back in item order, as the serial loop's
    first_done = threading.Event()
    later_done = threading.Event()

    def fn(x):
        if x == 0 and workers > 1:
            assert later_done.wait(timeout=30)
        if x == 1:
            later_done.set()
        if x == 0:
            first_done.set()
        return x * x

    assert _map(fn, range(20), workers) == [x * x for x in range(20)]
    assert first_done.is_set()
    assert _map(fn, iter(()), workers) == []


def test_share_work_runs_on_the_calling_thread_and_its_helpers():
    # three workers hold an item each at the same time, the caller one of them
    barrier = threading.Barrier(3, timeout=30)
    seen = []

    def fn(x):
        if x < 3:
            barrier.wait()
        seen.append(threading.get_ident())
        return x

    assert _map(fn, range(9), 3) == list(range(9))
    assert threading.get_ident() in seen and len(set(seen)) == 3
    seen.clear()
    _map(fn, range(3, 9), 1)
    assert set(seen) == {threading.get_ident()}


def test_share_work_advances_a_generator_on_one_thread_at_a_time():
    # a generator entered by two threads at once raises "generator already
    # executing".  The eight workers meet at a barrier with their first
    # items and then pull at once, switching threads every microsecond;
    # they pull under a lock, so none enters it while another is in it
    barrier = threading.Barrier(8, timeout=30)

    def items():
        for i in range(2000):
            for _ in range(100):  # bytecodes inside the generator, for switches to land in
                pass
            yield i

    def fn(x):
        if x < 8:
            barrier.wait()
        return -x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _map(fn, items(), 8) == [-x for x in range(2000)]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("item_0_raises", [False, True])
def test_share_work_reraises_the_first_error_and_stops_pulling(item_0_raises):
    # item 1 raises first; item 0, held by the other worker, ends later,
    # returning or raising.  The caller gets item 1's error, and no item
    # after them is pulled
    raised = threading.Event()
    pulled = []

    def items():
        for i in range(100):
            pulled.append(i)
            yield i

    def fn(x):
        if x == 1:
            raised.set()
            raise ValueError("first")
        if x == 0:
            assert raised.wait(timeout=30)
            time.sleep(0.1)
            if item_0_raises:
                raise RuntimeError("second")
        return x

    with pytest.raises(ValueError, match="first"):
        _map(fn, items(), 2)
    assert pulled == [0, 1]


def test_share_work_reraises_an_error_of_the_items():
    def items():
        yield 1
        raise KeyError("drawn badly")

    with pytest.raises(KeyError, match="drawn badly"):
        _map(lambda x: x, items(), 2)


def test_pool_workers_leave_blas_its_cores_and_bound_the_memory(monkeypatch, default_nl):
    # one worker per core of the affinity set (cpu_count without one), each
    # running its BLAS calls at one thread; items of 12 (n_real + 1)^2
    # bytes each stay within POOL_BYTES together.  No BLAS variable in the
    # environment moves the count
    opened = []
    monkeypatch.setattr(pool, "_bundled_openblas", lambda package: SimpleNamespace(
        threads=lambda: 4, set_threads=lambda n: None))
    monkeypatch.setattr(pool, "_map", lambda fn, items, workers: opened.append(workers))

    def workers(n, n_real):
        share_work(None, (), n, "scipy", 12 * (n_real + 1) ** 2)
        return opened.pop()

    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(16)),
                        raising=False)
    n24, n33, n34 = (lattice(M).n_real for M in (24, 33, 34))
    assert [workers(32, n24), workers(5, n24), workers(32, n33)] == [7, 5, 2]
    assert [workers(32, n) for n in (n34, lattice(64).n_real)] == [1, 1]
    # above DENSE_LIMIT a solve factors only its coarse block and runs the
    # GMRES beside it, so the first such M (66, coarse weight 16) holds
    # _solve_bytes, not (n_real + 1)^2 floats: three solves fit POOL_BYTES
    M = next(M for M in range(64, 100) if lattice(M).n_real > DENSE_LIMIT)
    share_work(None, (), 32, "scipy",
               _solve_bytes(PenalizedProblem(M=M, beta=1e-3, nl=default_nl)))
    assert (M, opened.pop()) == (66, 3)
    for n in range(1, 2000, 37):
        w = workers(10**6, n)
        assert w == 1 or w * 12 * (n + 1) ** 2 <= pool.POOL_BYTES
    share_work(None, (), 100, "numpy")  # verify's calls set no memory bound
    assert [workers(32, 73), opened.pop()] == [16, 16]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert [workers(32, n) for n in (73, n24, n34)] == [16, 7, 1]
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert workers(32, 73) == 3
    monkeypatch.delattr(pool.os, "sched_getaffinity")
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 6)
    assert workers(32, 73) == 6
    monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
    assert workers(32, 73) == 1


def _bundled_lapack():
    lapack = pool.lapack()
    if not isinstance(lapack, pool.BundledOpenBLAS):
        pytest.skip("scipy does not bundle OpenBLAS here")
    return lapack


def test_bundled_lapack_returns_what_scipys_wrappers_return():
    # factors, 0-based pivots and info of a square, a tall and a singular
    # matrix, and a solve
    from scipy.linalg import lapack as f2py

    lapack = _bundled_lapack()
    rng = np.random.default_rng(7)
    square = np.asfortranarray(rng.standard_normal((40, 40)))
    singular = square.copy(order="F")
    singular[:, 3] = singular[:, 5]
    for a in (square, np.asfortranarray(rng.standard_normal((9, 5))), singular,
              np.zeros((4, 4), order="F")):
        mine, theirs = lapack.dgetrf(a.copy(order="F")), f2py.dgetrf(a)
        assert np.array_equal(mine[0], theirs[0]) and mine[2] == theirs[2]
        assert mine[1].dtype == theirs[1].dtype and np.array_equal(mine[1], theirs[1])
    lu, piv, _ = lapack.dgetrf(square.copy(order="F"))
    b = rng.standard_normal(40)
    x, info = lapack.dgetrs(lu, piv, b)
    assert info == 0 and x is not b
    assert np.array_equal(x, f2py.dgetrs(lu, piv, b)[0])
    a = square.copy(order="F")
    assert lapack.dgetrf(a, overwrite_a=1)[0] is a


def test_bundled_lapack_rejects_what_it_would_factor_as_a_copy():
    # f2py factors a copy of an array that is not a writeable,
    # Fortran-contiguous float64 matrix; the binding factors in place only,
    # so it raises, and the array is left as it was
    lapack = _bundled_lapack()
    a = np.arange(16.0).reshape(4, 4) + np.eye(4)
    readonly = np.asfortranarray(a)
    readonly.flags.writeable = False
    for bad in (a, np.asfortranarray(a, dtype=np.float32), np.asfortranarray(a)[:, ::2],
                readonly, a.ravel(), a.tolist()):
        before = np.array(bad)
        with pytest.raises(ValueError):
            lapack.dgetrf(bad, overwrite_a=1)
        assert np.array_equal(np.array(bad), before)
    with pytest.raises(ValueError, match="in place"):
        lapack.dgetrf(np.asfortranarray(a), overwrite_a=0)
    lu, piv, _ = lapack.dgetrf(np.asfortranarray(a))
    with pytest.raises(ValueError):
        lapack.dgetrs(np.ascontiguousarray(lu), piv, np.ones(4))
    for b in (np.ones(5), np.ones((4, 1))):
        with pytest.raises(ValueError):
            lapack.dgetrs(lu, piv, b)


def test_bundled_lapack_passes_each_call_its_own_ctypes_integers():
    # the pool calls the binding from several threads at once, so no ctypes
    # integer may outlive a call, where another call could write it while
    # LAPACK reads it: over four calls into a recording library, no ctypes
    # scalar is passed twice
    import ctypes

    passed = []

    class Routine:
        argtypes = restype = None

        def __call__(self, *args):
            passed.append([x for x in args if isinstance(x, ctypes._SimpleCData)])

    class Library:
        def __getitem__(self, name):
            return Routine()

    lapack = pool.BundledOpenBLAS(Library(), "scipy_", "")
    for _ in range(2):
        lu, piv, _ = lapack.dgetrf(np.eye(3, order="F"))
        lapack.dgetrs(lu, np.arange(3), np.ones(3))
    ids = [id(x) for args in passed for x in args]
    assert [len(args) for args in passed] == [4, 5] * 2
    assert len(set(ids)) == len(ids)


def test_bundled_lapack_gives_the_serial_bits_on_eight_threads():
    # eight threads factor and solve their own matrices, of three sizes, each
    # with a zero column at its own place or none, so that each call has its
    # own info; they get the serial factors, pivots, infos and solutions
    # (OpenBLAS at one thread, as the pool holds it)
    lapack = _bundled_lapack()
    get, set_threads = lapack.threads, lapack.set_threads
    rng = np.random.default_rng(3)
    systems = []
    for i, n in enumerate((40, 150, 250) * 8):
        a = np.asfortranarray(rng.standard_normal((n, n)))
        if i % 4:
            a[:, (7 * i) % n] = 0.0
        systems.append((a, rng.standard_normal(n)))

    def step(system):
        a, b = system
        lu, piv, info = lapack.dgetrf(a.copy(order="F"))
        return lu, piv, info, *lapack.dgetrs(lu, piv, b)

    threads = get()
    set_threads(1)
    try:
        serial = [step(s) for s in systems]
        assert len({out[2] for out in serial}) > 10
        for _ in range(3):
            for got, want in zip(_map(step, systems, 8), serial):
                assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
    finally:
        set_threads(threads)
