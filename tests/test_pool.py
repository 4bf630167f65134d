import sys
import threading
import time

import pytest

from wavetorus import pool
from wavetorus.pool import _map, share_work
from wavetorus.solver import DENSE_LIMIT
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


def test_pool_workers_leave_blas_its_cores_and_bound_the_memory(monkeypatch):
    # one worker per core of the affinity set (cpu_count without one), each
    # running its BLAS calls at one thread; items of 12 (n_real + 1)^2
    # bytes each stay within POOL_BYTES together.  No BLAS variable in the
    # environment moves the count
    opened = []
    monkeypatch.setattr(pool, "openblas_threads", lambda name: (lambda: 4, lambda n: None))
    monkeypatch.setattr(pool, "_map", lambda fn, items, workers: opened.append(workers))

    def workers(n, n_real):
        share_work(None, (), n, "scipy.linalg", 12 * (n_real + 1) ** 2)
        return opened.pop()

    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(16)),
                        raising=False)
    n24, n33, n34 = (lattice(M).n_real for M in (24, 33, 34))
    assert [workers(32, n24), workers(5, n24), workers(32, n33)] == [7, 5, 2]
    assert [workers(32, n) for n in (n34, lattice(64).n_real, DENSE_LIMIT + 1)] == [1, 1, 1]
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
