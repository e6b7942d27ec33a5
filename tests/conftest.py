from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from mealy import classify, levels


class _CountingPool(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(3)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def counting_pool(monkeypatch):
    """levels._executor() is a pool of the test's own, of three threads that
    count the ranges submitted to them, on a machine with 3 CPUs."""
    pool = _CountingPool()
    monkeypatch.setattr(levels, "_pool", pool)
    monkeypatch.setattr(levels.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    yield pool
    pool.shutdown()


@pytest.fixture(params=[1, 2, 3])
def both_ways(request, monkeypatch, counting_pool):
    """run(fn, *args) gives (fn(*args) unsplit, fn(*args) with every level
    kernel split into request.param ranges), on counting_pool; run.parts
    and run.pool for the checks."""
    monkeypatch.setattr(levels.os, "sched_getaffinity", lambda pid: set(range(request.param)))

    def run(fn, *args):
        monkeypatch.setattr(levels, "_SPLIT_CUT", 1 << 62)
        want = fn(*args)
        monkeypatch.setattr(levels, "_SPLIT_CUT", 1)
        return want, fn(*args)

    run.parts, run.pool = request.param, counting_pool
    return run


@pytest.fixture
def key_pass(monkeypatch, counting_pool):
    """The key pass on counting_pool, logged: .ranges gets the range count of
    each batch's split, .shares the (start, end) of each share of raw tables
    decoded, in the order they finish; .pool is counting_pool."""
    log = SimpleNamespace(ranges=[], shares=[], pool=counting_pool)
    split, decode = classify._split, classify._raw_cells

    def logged_split(*args):
        out = split(*args)
        log.ranges.append(len(out))
        return out

    def logged_decode(q, a, start, end):
        log.shares.append((start, end))
        return decode(q, a, start, end)

    monkeypatch.setattr(classify, "_split", logged_split)
    monkeypatch.setattr(classify, "_raw_cells", logged_decode)
    return log
