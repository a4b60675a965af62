"""Fixtures shared by the test modules."""

import os

import pytest

from ecgarr import experiment


@pytest.fixture
def pool_workers(monkeypatch):
    """Sets the record-loading pool's thread count.  The pool is built on
    first use from ``os.cpu_count()`` and kept, so it is dropped when the
    count is set and again after the test."""
    def set_workers(n):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        experiment._pool.cache_clear()
    yield set_workers
    experiment._pool.cache_clear()
