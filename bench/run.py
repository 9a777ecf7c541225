"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload search-serial --seed 0 --seconds 30 --trace 0

Run from the repository root. The script generates the workload's inputs from
the seed, measures the CLI cold start (`setup_s`), then starts
`bench/runner.py` in a fresh interpreter that drives `convexparts.cli.main`
through the op stream for about `--seconds` seconds. It checks every op's
output and prints the metrics; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

End-to-end times are converted to uncontended-core units with the samples
of `bench/contention.py`, which runs alongside (see there). Ops that start a
pool (`--jobs` above 1) are converted with the calibration samples taken
just before and after them alone: while the pool's workers fill the CPUs,
the sampler's kernel times also measure the program's own load.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json;
`--trace 1` reports the per-layer metrics from traced rounds instead.
`--record-expected` rewrites the expected-verdict file of the workload from
a run at the default seed; use it only when a change is meant to alter
verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import verdicts  # noqa: E402
from contention import Speed, calibrate  # noqa: E402
from workloads import DEFAULT_SEED, SETUP_ARGV, WORKLOADS, build  # noqa: E402

# Nearest-rank percentile reported as op_tail_s: the highest whole percentile
# that leaves at least ten ops of one round beyond it.
TAIL_PERCENTILE = {"search-serial": 92, "sweep-pool": 72,
                   "shatter-combinatorics": 86}
# Cold-start samples per run, half taken before the op stream and half after,
# so the median spans the run's time window.
SETUP_SAMPLES = 10
RUN_TIMEOUT_S = 170


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _percentile(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def _git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_lines(src):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((src / "convexparts").glob("*.py")))


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # fixed str hashing: set and dict layouts are the same in every run
    env["PYTHONHASHSEED"] = "0"
    return env


def _setup_samples(root, env, count):
    """(start, seconds, calibration) of fresh interpreters that import the
    CLI and run one trivial op."""
    snippet = ("import sys\nfrom convexparts.cli import main\n"
               f"sys.exit(main({SETUP_ARGV!r}))\n")
    samples = []
    for _ in range(count):
        before = calibrate()
        stamp = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=root,
                              capture_output=True, text=True, timeout=60)
        samples.append((stamp, time.perf_counter() - start, before + calibrate()))
        if proc.returncode != 0 or proc.stdout != "6\n":
            _fail(f"setup op failed with exit {proc.returncode}: {proc.stderr[-500:]}")
    return samples


def _run_child(root, env, plan, work, deadline):
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    cmd = [sys.executable, str(BENCH_DIR / "runner.py"), str(plan_path),
           str(result_path)]
    # its own process group, so a kill also reaches its pool workers
    proc = subprocess.Popen(cmd, env=env, cwd=root, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _fail("the op stream did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        _fail(f"runner exited with status {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


@contextlib.contextmanager
def _contention_monitor(work):
    """Run bench/contention.py for the duration of the block; the yielded
    list receives its samples when the block ends."""
    path = work / "contention.json"
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "contention.py"),
                             str(path)], stdin=subprocess.PIPE)
    samples = []
    try:
        yield samples
    finally:
        proc.stdin.close()          # end of input stops the monitor
        try:
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        _fail(f"contention monitor exited with status {proc.returncode}")
    samples.extend(json.loads(path.read_text(encoding="utf-8")))


def _median_layers(rounds):
    traced = [r["layers"] for r in rounds if r["mode"] == "traced"]
    return {key: statistics.median(layer[key] for layer in traced)
            for key in traced[0]}


def _uses_pool(argv):
    return "--jobs" in argv and int(argv[argv.index("--jobs") + 1]) > 1


def _end_to_end(workload, ops, result, setup, speed, ok_frac):
    """Each time is multiplied by the speed factor of the interval it was
    measured in; an op's latency and CPU time are then the medians over the
    run's plain rounds, and setup_s the median over the cold starts."""
    pooled = {op["id"] for op in ops if _uses_pool(op["argv"])}
    per_op = {}
    for rnd in result["rounds"]:
        if rnd["mode"] == "plain":
            for rec in rnd["ops"]:
                f = speed.factor(rec["start"], rec["start"] + rec["seconds"],
                                 rec["calibration"],
                                 monitor=rec["id"] not in pooled)
                reps = per_op.setdefault(rec["id"], ([], []))
                reps[0].append(rec["seconds"] * f)
                reps[1].append(rec["cpu_s"] * f)
    latencies = [statistics.median(s) for s, _ in per_op.values()]
    setup_s = statistics.median(
        seconds * speed.factor(stamp, stamp + seconds, calibration)
        for stamp, seconds, calibration in setup)
    pct = TAIL_PERCENTILE[workload]
    beyond = len(latencies) - math.ceil(pct / 100 * len(latencies))
    if beyond < 10:
        print(f"bench: only {beyond} ops lie beyond p{pct}", file=sys.stderr)
    return {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": _percentile(latencies, pct),
        "cpu_s": sum(statistics.median(c) for _, c in per_op.values()),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "ok_frac": ok_frac,
    }


def _per_layer(result):
    rounds = result["rounds"]
    layers = _median_layers(rounds)
    plain = statistics.median(r["wall_s"] for r in rounds if r["mode"] == "plain")
    traced = statistics.median(r["wall_s"] for r in rounds if r["mode"] == "traced")
    layers["cli.import_s"] = result["import_s"]
    layers["trace_overhead_frac"] = (traced - plain) / plain
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int,
                        help="run only the first N ops of the stream (smoke test)")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail("run from the repository root; BENCHMARK.json is missing")
    if not (root / "src" / "convexparts" / "cli.py").is_file():
        _fail("src/convexparts is missing; nothing to benchmark")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.record_expected and (args.seed != DEFAULT_SEED or args.max_ops):
        _fail("--record-expected needs the default seed and the full stream")

    env = _child_env(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = build(args.workload, args.seed, work / "in")
        if args.max_ops:
            ops = ops[:args.max_ops]
        plan = {"ops": ops, "seconds": seconds, "trace": bool(args.trace),
                "out_root": str(work / "out")}
        deadline = started + RUN_TIMEOUT_S
        if args.trace:
            result = _run_child(root, env, plan, work, deadline)
        else:
            with _contention_monitor(work) as contention:
                setup = _setup_samples(root, env, SETUP_SAMPLES // 2)
                result = _run_child(root, env, plan, work, deadline)
                setup += _setup_samples(root, env, SETUP_SAMPLES // 2)
            speed = Speed(contention)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    expected_path = BENCH_DIR / "expected" / f"{args.workload}.json"
    if args.record_expected:
        verdicts.record(expected_path, args.workload, args.seed, result)
    if not expected_path.is_file():
        _fail(f"the expected-verdict file {expected_path.name} is missing")
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    check = verdicts.check(result, expected)

    attempted, failed = check["attempted"], len(check["failures"])
    if args.trace:
        values = _per_layer(result)
        names = spec["per_layer"]
    else:
        values = _end_to_end(args.workload, ops, result, setup, speed,
                             1 - failed / attempted)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "backend": result["backend"], "python": result["python"],
            "nproc": result["nproc"], "git_commit": _git_commit(root),
            "src_lines": _src_lines(root / "src"),
            "rounds": len(result["rounds"]),
            "ops_per_round": len(result["rounds"][0]["ops"]),
            "tail_percentile": TAIL_PERCENTILE[args.workload],
            "fail_frac": failed / attempted}
    if not args.trace:
        meta["contention_slowdown"] = speed.slowdown()
    for failure in check["failures"][:20]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": not check["failures"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
