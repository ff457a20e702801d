from __future__ import annotations

import time

import pytest
from hypothesis import settings

from expmorse.pipeline import theorem1_report

# One profile for every property test: the same examples on every run, no
# example database on disk, and no per-example deadline. Tests state only
# their max_examples.
settings.register_profile("expmorse", derandomize=True, database=None, deadline=None)
settings.load_profile("expmorse")


def _timed_report(n: int):
    t0 = time.perf_counter()
    rep = theorem1_report(n)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def timed_report3():
    return _timed_report(3)


@pytest.fixture(scope="session")
def timed_report4():
    return _timed_report(4)


@pytest.fixture(scope="session")
def timed_report5():
    return _timed_report(5)
