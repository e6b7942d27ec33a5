import pytest

from mealy import classify


class _Inline:
    """Stands in for ThreadPoolExecutor: records its max_workers and the
    slice count of each map, and starts no thread."""

    log: list = []

    def __init__(self, max_workers):
        self.log.append(("workers", max_workers))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.log.append(("slices", len(items)))
        return map(fn, items)


@pytest.fixture
def inline_pool(monkeypatch):
    """The key pass's thread pool, run inline on a machine with 3 CPUs.

    The log also records ("share", n) for each range of n raw tables
    decoded, in the order the shares run.
    """
    monkeypatch.setattr(classify, "ThreadPoolExecutor", _Inline)
    monkeypatch.setattr(classify.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(_Inline, "log", [])
    decode = classify._raw_cells

    def logged(q, a, start, end):
        _Inline.log.append(("share", end - start))
        return decode(q, a, start, end)

    monkeypatch.setattr(classify, "_raw_cells", logged)
    return _Inline.log
