#!/usr/bin/env python3
"""plemelj benchmark: seeded workloads, oracle checks, end-to-end and
per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``): ``sweep`` (domain-map grids), ``functional``
(Plemelj functionals on straight, bent and arc paths) and ``crosscheck``
(the regularization, deformation and overlap routes and the tilted line).
One client runs closed loop: a single worker process, one thread, each
request starting when the previous one returned.  The worker imports
plemelj from ``src/`` and nothing else, and writes each request's output
to a file, as the CLI does; this process generates the inputs from the
seed, computes the oracle references with scipy before the worker starts,
and checks every output after it ended.  The output files live in a
``.perfbench-out-*`` directory of the checkout, removed at the end.

``--trace 0`` prints the end-to-end metrics: set-up time (median of fresh
interpreters that import ``plemelj.cli`` and run one request), throughput,
p50/p90 latency, accuracy against the oracles and the worker's peak RSS.
Times are scaled to a reference interpreter speed, measured by a short
fixed loop that the worker times every few milliseconds while requests
run (``corrected_durations``); the uncorrected figures are in the info
line.
``--trace 1`` runs the pool untraced and then traced and prints the
per-layer metrics of ``tracer.py``.  The last line of standard output is
the JSON result; the line before it records the environment and the
SHA-256 digest of the pool's outputs.
"""
import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_LAUNCHES = 7
# nominal duration of the worker's speed probe, calibration(PROBE_ITERATIONS),
# near its median on the 2-core x86-64 host (Python 3.11) where the
# benchmark was defined
PROBE_REF_S = 2.5e-5
MIN_PROBES = 5                 # probe samples a request is corrected by
RUN_BUDGET_S = 170.0           # every worker must have ended by then
ACCURACY_FLOOR = 1e-17


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


_DEADLINE = time.monotonic() + RUN_BUDGET_S


def _worker(mode, job):
    """Runs one worker process to completion; returns its output lines."""
    proc = subprocess.Popen([sys.executable, WORKER, SRC, mode],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(json.dumps(job),
                                    timeout=max(1.0, _DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{err[-2000:]}")
    return [json.loads(line) for line in out.splitlines()]


def setup_seconds(warmup, out_dir):
    """Median wall time of fresh interpreters that import plemelj.cli and
    run the workload's warm-up request.  Each launch, less its speed
    probe's own time, is scaled like a request (see
    ``corrected_durations``) by the probe samples taken in it, or by all
    launches' samples if it holds fewer than MIN_PROBES."""
    launches = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        done = _worker("setup", {"warmup": warmup, "out_dir": out_dir})[-1]["done"]
        wall = time.perf_counter() - t0
        launches.append((wall - done["probe_spent"], [d for _t, d in done["probes"]]))
    pooled = [d for _wall, own in launches for d in own]
    if not pooled:
        raise BenchError("no speed-probe samples in the set-up launches")
    return statistics.median(
        wall * PROBE_REF_S / statistics.median(own if len(own) >= MIN_PROBES else pooled)
        for wall, own in launches)


def check_outputs(pool, refs, lines, out_dir):
    """Checks every reported request.  Each pass overwrote the request's
    output file, so the file holds the last pass's output; it must pass
    the oracle, and every pass must report its SHA-256.

    Returns (failed, worst deviation, digest, first failure)."""
    verdict = {}                    # pool index -> (ok, sha, message)
    worst = 0.0
    for i in sorted({rec["i"] for rec in lines if "i" in rec}):
        path = os.path.join(out_dir, f"{i}.out")
        with open(path, "rb") as fh:
            data = fh.read()
        ok, dev, msg = oracles.check(pool[i], refs[i], data.decode())
        if ok:
            worst = max(worst, dev)
        verdict[i] = (ok, hashlib.sha256(data).hexdigest(), msg)
    failed, failure = 0, ""
    for rec in lines:
        if "i" not in rec:
            continue
        i = rec["i"]
        ok, sha, msg = verdict[i]
        if ok and rec["sha"] != sha:
            ok, msg = False, "output differs between passes"
        if not ok and not failure:
            failure = f"request {i} ({pool[i]['op']}): {msg}"
        failed += not ok
    digest = hashlib.sha256("".join(
        verdict[i][1] if i in verdict else "" for i in range(len(pool))).encode()).hexdigest()
    return failed, worst, digest, failure


def corrected_durations(recs):
    """Request durations scaled to the reference interpreter speed.

    On a shared host the interpreter's speed drifts by tens of percent
    within a second and between runs.  The worker's speed probe times a
    short fixed loop every few milliseconds; a request's duration is
    multiplied by PROBE_REF_S over the median of the probe samples taken
    while it ran, or of the MIN_PROBES samples nearest its midpoint if it
    was shorter.  The ratio follows plemelj's cost and cancels most of the
    host's drift.  Returns the corrected durations and the median probe
    time."""
    probes = sorted(p for rec in recs for p in rec["probes"])
    if len(probes) < MIN_PROBES:
        raise BenchError(f"only {len(probes)} speed-probe samples")
    times = [t for t, _d in probes]
    out = []
    for rec in recs:
        t0, t1 = rec["t"], rec["t"] + rec["dt"]
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        if hi - lo < MIN_PROBES:
            mid = 0.5 * (t0 + t1)
            near = probes[max(0, lo - MIN_PROBES):hi + MIN_PROBES]
            window = sorted(near, key=lambda p: abs(p[0] - mid))[:MIN_PROBES]
        else:
            window = probes[lo:hi]
        out.append(rec["dt"] * PROBE_REF_S / statistics.median(d for _t, d in window))
    return out, statistics.median(d for _t, d in probes)


def _git_commit():
    """The checkout's commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(backend):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"backend": backend, "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "commit": _git_commit()}


def ops_per_second(durations, pool_size):
    """Requests per second of request time, over the median pass: the
    durations come in whole passes over the pool, and a pass that a slow
    spell of the host hit moves the median less than the mean."""
    passes = [sum(durations[k:k + pool_size])
              for k in range(0, len(durations), pool_size)]
    return pool_size / statistics.median(passes)


def _percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plemelj", "__init__.py")):
        print(f"error: no plemelj sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    pool = workloads.generate(args.workload, args.seed)
    refs = [oracles.references(req) for req in pool]
    warmup = workloads.warmup(args.workload, args.seed)
    job = {"warmup": {"op": warmup["op"], "args": warmup["args"]},
           "ops": [{"op": r["op"], "args": r["args"]} for r in pool],
           "seconds": args.seconds,
           "out_dir": tempfile.mkdtemp(prefix=".perfbench-out-", dir=ROOT)}
    try:
        lines = _worker("trace" if args.trace else "run", job)
        done = lines[-1]["done"]
        failed, worst, digest, failure = check_outputs(pool, refs, lines,
                                                       job["out_dir"])
        checked = [rec for rec in lines if "i" in rec]
        timed = checked[:done["timed_passes"] * len(pool)]
        durations, probe = corrected_durations(timed)
        raw = [rec["dt"] for rec in timed]
        metrics = {}
        if args.trace:
            wanted = spec["per_layer"]
            layers = done["layers"]
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in wanted if m["name"] in layers}
        else:
            setup = setup_seconds(job["warmup"], job["out_dir"])
            accuracy = -math.log10(max(worst, ACCURACY_FLOOR))
            values = {"setup_s": setup,
                      "ops_per_s": ops_per_second(durations, len(pool)),
                      "op_p50_ms": 1e3 * statistics.median(durations),
                      "op_p90_ms": 1e3 * _percentile(durations, 0.9),
                      "accuracy_digits": accuracy,
                      "peak_rss_mb": done["peak_rss_mb"]}
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(job["out_dir"], ignore_errors=True)
    if failure:
        print(f"failed: {failure}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed,
            "requests": len(pool), "samples": len(durations),
            "probe_s": probe,
            "uncorrected": {"ops_per_s": ops_per_second(raw, len(pool)),
                            "op_p50_ms": 1e3 * statistics.median(raw),
                            "op_p90_ms": 1e3 * _percentile(raw, 0.9)},
            "output_sha256": digest, "environment": environment(done["backend"])}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(checked),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
