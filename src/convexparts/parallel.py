"""Order-preserving parallel map with early stop: the package's one parallel path.

Results come back in input order, so sweep outputs are identical for any
worker count. Functions passed here must be module-level (picklable). Workers
come from multiprocessing's default start method (fork on Linux): spawned
workers would re-import the package for every sweep.
"""

from __future__ import annotations

import concurrent.futures
import os


def pmap(fn, items, jobs: int, until) -> list:
    """fn over items in input order, up to and including the first result
    for which until(result) is true (all results when none is).

    jobs is clamped to min(len(items), os.cpu_count()). One pool serves the
    whole call and is shut down on return: items not yet started are
    cancelled, and the few already running finish first. (Killing busy
    workers, as multiprocessing.Pool.terminate does, can leave a queue lock
    held by a dead worker and hang the shutdown.)
    """
    items = list(items)
    jobs = min(jobs, len(items), os.cpu_count() or 1)
    if jobs <= 1:
        return _take(map(fn, items), until)
    # the attribute imports concurrent.futures.process on first use only
    pool = concurrent.futures.ProcessPoolExecutor(jobs)
    try:
        futures = [pool.submit(fn, item) for item in items]
        return _take((future.result() for future in futures), until)
    finally:
        pool.shutdown(cancel_futures=True)


def _take(results, until) -> list:
    out = []
    for res in results:
        out.append(res)
        if until(res):
            break
    return out
