"""Benchmark child process: one closed-loop client running an op stream.

    python3 bench/runner.py PLAN.json RESULT.json

`bench/run.py` writes the plan and starts this script in a fresh interpreter
with `src` on PYTHONPATH. It imports `convexparts.cli` once and calls
`main(argv)` for each op, one after the other. After any op that wrote a
certificate, the next op is a `verify-cert` of that file. Each op is
bracketed by contention calibration samples (see contention.py).

The stream runs in rounds until the plan's time budget is spent (at least
one round per mode); the last round of a plain plan stops part way when the
budget ends. A traced plan alternates whole plain and traced rounds, so the
tracing overhead is measured within one process. After the rounds, the ops
the plan marks as not measured run once as they are, and the `jobs_check`
ops once more with `--jobs 1`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from contention import calibrate

CERTIFICATE_FILES = ("certificate.json", "empty_intersection.json",
                     "r_separation.json")
MAX_ROUNDS = 40


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_seconds():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _run_op(cli, op_id, argv):
    # Each op starts from a collected heap with the survivors frozen, as in a
    # fresh CLI process: its own allocations alone decide when the cyclic
    # collector runs, and a collection scans only the op's objects.
    gc.collect()
    gc.freeze()
    before = calibrate()
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu_seconds()
    stamp = time.monotonic()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is exit status 1 for a CLI user
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0
    return {"id": op_id, "start": stamp, "seconds": seconds, "cpu_s": cpu_s,
            "calibration": before + calibrate(), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def _run_round(cli, ops, out_root, deadline=None):
    """Run the ops in order; with a deadline, start no op after it."""
    shutil.rmtree(out_root, ignore_errors=True)
    records = []
    start = time.perf_counter()
    for op in ops:
        if deadline is not None and time.perf_counter() > deadline:
            break
        argv = list(op["argv"])
        out_dir = None
        if op["out"]:
            out_dir = out_root / op["id"]
            argv += ["--out-dir", str(out_dir)]
        records.append(_run_op(cli, op["id"], argv))
        if out_dir is None:
            continue
        for name in CERTIFICATE_FILES:
            path = out_dir / name
            if path.exists():
                records.append(_run_op(cli, f"{op['id']}+verify-cert:{name}",
                                       ["verify-cert", "--input", str(path)]))
    return {"wall_s": time.perf_counter() - start, "ops": records}


def _with_jobs_1(argv):
    argv = list(argv)
    argv[argv.index("--jobs") + 1] = "1"
    return argv


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    out_root = Path(plan["out_root"])
    ops = [op for op in plan["ops"] if op["measured"]]

    start = time.perf_counter()
    import convexparts.cli as cli
    import_s = time.perf_counter() - start
    from convexparts.rational import Rat

    tracer_cls = None
    modes = ["plain"]
    if plan["trace"]:
        from tracer import Tracer as tracer_cls
        modes = ["plain", "traced"]

    rounds = []
    begin = time.perf_counter()
    while len(rounds) < MAX_ROUNDS:
        mode = modes[len(rounds) % len(modes)]
        # A traced run measures whole rounds only. A plain run fills its
        # budget: after the first round, a round stops where the budget ends.
        deadline = None
        if rounds and not plan["trace"]:
            deadline = begin + plan["seconds"]
        if mode == "traced":
            tracer = tracer_cls()
            tracer.install()
            kids0 = _children_cpu_seconds()
            try:
                result = _run_round(cli, ops, out_root)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics()
            layers["parallel.child_cpu_s"] = _children_cpu_seconds() - kids0
            result["layers"] = layers
        else:
            result = _run_round(cli, ops, out_root, deadline)
        result["mode"] = mode
        rounds.append(result)
        elapsed = time.perf_counter() - begin
        if plan["trace"]:
            elapsed += result["wall_s"]     # the next round would end here
        if len(rounds) >= len(modes) and elapsed > plan["seconds"]:
            break

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    unmeasured = [_run_op(cli, op["id"], op["argv"])
                  for op in plan["ops"] if not op["measured"]]
    jobs_check = [_run_op(cli, op["id"], _with_jobs_1(op["argv"]))
                  for op in plan["ops"] if op["jobs_check"]]
    shutil.rmtree(out_root, ignore_errors=True)

    result = {"import_s": import_s,
              "backend": f"{Rat.__module__}.{Rat.__qualname__}",
              "peak_rss_kib": max(own, kids),
              "rounds": rounds,
              "unmeasured": unmeasured,
              "jobs_check": jobs_check,
              "python": sys.version.split()[0],
              "nproc": os.cpu_count()}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
