"""The ordered parallel map: input order, early stop, and the jobs clamp."""

import concurrent.futures
import os
import subprocess
import sys

import pytest

from convexparts.parallel import pmap


def square(x):
    return x * x


def at_least_16(value):
    return value >= 16


def never(value):
    return False


@pytest.mark.parametrize("jobs", [1, 2])
def test_stops_at_first_hit_in_input_order(jobs):
    # items 5..9 hit as well; only the first hit and what precedes it return
    assert pmap(square, range(10), jobs, at_least_16) == [0, 1, 4, 9, 16]


@pytest.mark.parametrize("jobs", [1, 2])
def test_all_results_without_a_hit(jobs):
    assert pmap(square, range(10), jobs, never) == [x * x for x in range(10)]
    assert pmap(square, [], jobs, never) == []


def test_jobs_clamped_to_cpu_count(monkeypatch):
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(workers):
        started.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pmap(square, range(6), 1000, never) == [x * x for x in range(6)]
    assert started == [2]
    # one CPU, or one item, runs in this process without a pool
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert pmap(square, range(6), 1000, never) == [x * x for x in range(6)]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pmap(square, [3], 1000, never) == [9]
    assert started == [2]


EARLY_STOP_SCRIPT = """
from convexparts.parallel import pmap

def megabyte(x):
    return bytes(1_000_000)

for _ in range(20):
    assert len(pmap(megabyte, range(8), 2, bool)) == 1
"""


def test_early_stop_while_results_are_in_flight_returns():
    # with multiprocessing.Pool.terminate killing busy workers, this loop
    # hung in most runs; a subprocess turns a hang into a timeout
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    subprocess.run([sys.executable, "-c", EARLY_STOP_SCRIPT], check=True, timeout=120, env=env)
