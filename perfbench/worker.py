"""Workload process: imports plemelj from a source tree and runs requests.

Usage: python worker.py SRC_DIR MODE < job.json

The job on stdin is {"warmup": request, "ops": [request, ...],
"seconds": s, "out_dir": path}, each request {"op": ..., "args": ...}.
MODE is

* ``setup`` -- import ``plemelj.cli``, run the warm-up request, exit;
  the ``done`` line carries the probe samples taken meanwhile;
* ``run``   -- the warm-up request, then whole passes over the pool until
  ``seconds`` have elapsed, timing each request;
* ``trace`` -- as ``run``, then one more pass with every layer boundary
  wrapped (see ``tracer``); its per-layer metrics cover that one pass.

Each request writes its output to the file ``<out_dir>/<pool index>.out``,
the way the CLI writes to its ``--out`` file, so the worker holds no
output text.  While the untraced passes run, a :class:`SpeedProbe` times
a short fixed loop every few milliseconds.  For every request the worker
prints one JSON line to stdout -- the pool index, the start time, the
duration (less the probe's own time), the SHA-256 of the file and the
probe samples taken since the previous line -- and at the end a
``{"done": ...}`` line with the number of untraced passes, the peak RSS
and, when tracing, the per-layer metrics.  It never imports the oracle
libraries, so its peak RSS is that of the program under test.
"""
import cmath
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

_DIR = os.path.dirname(os.path.abspath(__file__))


def _import_plemelj(src_dir):
    sys.path.insert(0, src_dir)
    import plemelj.cli   # noqa: F401  (the import chain a CLI user pays)
    import plemelj
    where = os.path.dirname(os.path.abspath(plemelj.__file__))
    if os.path.commonpath([where, os.path.abspath(src_dir)]) != os.path.abspath(src_dir):
        raise ImportError(f"plemelj was imported from {where}, not {src_dir}")
    return plemelj


def _c(z):
    return {"re": z.real, "im": z.imag}


class Runner:
    """Executes one request the way the CLI (or a library caller) would.

    Looks every entry point up through its module at call time, so the
    tracer's wrappers are seen."""

    def __init__(self):
        import plemelj.cli as cli
        import plemelj.contours as contours
        import plemelj.functionals as functionals
        import plemelj.tilted as tilted
        self.cli, self.contours = cli, contours
        self.functionals, self.tilted = functionals, tilted
        self.errors = (functionals.DomainViolationError,
                       functionals.OrientationError,
                       functionals.AdmissibilityError,
                       contours.ContourError)
        self.cli_bytes = 0

    def __call__(self, req, out_path):
        """Writes the output text to ``out_path``.  A library error the CLI
        reports (its exit-1 path) becomes ``raised <Type>: <message>``; any
        other exception becomes ``unexpected ...``, which no oracle
        accepts, so the request counts as failed and the run goes on."""
        with open(out_path, "w") as fh:
            try:
                text = getattr(self, "_" + req["op"])(fh, **req["args"])
            except self.errors as exc:
                text = f"raised {type(exc).__name__}: {exc}"
            except Exception as exc:   # the worker must keep running
                traceback.print_exc()
                text = f"unexpected {type(exc).__name__}: {exc}"
            if text is not None:
                fh.seek(0)
                fh.truncate()
                fh.write(text)

    def _domain_map(self, fh, kernel, grid):
        cli = self.cli
        req = cli.DomainMapRequest(grid=tuple(grid), kernel=kernel)
        rows = cli.run_domain_map(req)
        cli.write_domain_map_csv(rows, fh)
        self.cli_bytes += fh.tell()

    def _functional(self, fh, kernel, function, contour, cross_check):
        path = self.contours.Contour.from_json(contour)
        report = self.cli.run_functional(kernel, function, path,
                                         cross_check=cross_check)
        out = self.cli.dump_json(report)
        self.cli_bytes += len(out)
        return out

    def _tilted(self, fh, function, phi, q_min, q_max):
        f = self.functionals.catalog_function(function)
        res = self.tilted.tilted_plemelj(
            f, self.tilted.TiltedLine(phi, q_min, q_max))
        return json.dumps({"value": _c(res.value), "pv_part": _c(res.pv_part),
                           "delta_part": _c(res.delta_part),
                           "kernel_mismatch": res.kernel_mismatch})

    def _overlap(self, fh, function, contour, z2):
        f = self.functionals.catalog_function(function)
        path = self.contours.Contour.from_json(contour)
        v = self.functionals.overlap_delta(complex(*z2), f, path)
        return json.dumps({"value": _c(v)})

    def _deformation(self, fh, function, contour, side):
        f = self.functionals.catalog_function(function)
        path = self.contours.Contour.from_json(contour)
        v = self.functionals.deformation_route(f, path, side=side)
        return json.dumps({"value": _c(v)})


def _peak_rss_mb():
    """High-water RSS of this process image.  ru_maxrss would also count
    the parent's pages, which Linux carries across fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def calibration(iterations=1000):
    """A fixed pure-Python loop of complex arithmetic and calls, the kind of
    work plemelj does.  Its duration tracks how fast this interpreter runs
    on the machine right now, which varies by tens of percent within a
    second on a shared host; the benchmark divides times by it."""
    acc = 0j
    z = 0.3 + 0.7j
    for _ in range(iterations):
        z = z * 0.999 + 0.001j
        acc += cmath.exp(z) / (1.0 + abs(z))
    return acc


PROBE_PERIOD_S = 0.005
PROBE_ITERATIONS = 50


class SpeedProbe:
    """Samples the interpreter's speed while requests run.

    An interval timer interrupts the worker every PROBE_PERIOD_S; the
    signal handler times ``calibration(PROBE_ITERATIONS)`` (about 20
    microseconds) and adds its whole time to ``spent``, which the caller
    subtracts from the request it interrupted.  A request of any length
    is thus covered by samples taken while it ran."""

    def __init__(self, clock):
        self.clock = clock
        self.samples = []          # (start, duration) of each probe loop
        self.spent = 0.0
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = self.clock()
        calibration(PROBE_ITERATIONS)
        t1 = self.clock()
        self.samples.append((t0, t1 - t0))
        self.spent += self.clock() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def take(self):
        samples, self.samples = self.samples, []
        return samples


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _timed_pass(run, ops, out_dir, probe):
    """Runs every request once; reports its start, its duration net of
    the probe's time, the output's digest and the probe samples, and
    returns the pass time."""
    clock = probe.clock
    total = 0.0
    for i, req in enumerate(ops):
        path = os.path.join(out_dir, f"{i}.out")
        spent = probe.spent
        t0 = clock()
        run(req, path)
        dt = clock() - t0 - (probe.spent - spent)
        total += dt
        _emit({"i": i, "t": t0, "dt": dt, "sha": file_sha256(path),
               "probes": probe.take()})
    return total


def main(argv):
    src_dir, mode = argv[1], argv[2]
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    job = json.load(sys.stdin)
    probe = SpeedProbe(time.perf_counter)
    probe.start()
    plemelj = _import_plemelj(src_dir)
    run = Runner()
    out_dir = job["out_dir"]
    run(job["warmup"], os.path.join(out_dir, "warmup.out"))
    if mode == "setup":
        probe.stop()
        _emit({"done": {"probes": probe.take(), "probe_spent": probe.spent}})
        return 0
    probe.take()
    ops = job["ops"]
    done = {"backend": plemelj.BACKEND}
    start = time.perf_counter()
    passes = [_timed_pass(run, ops, out_dir, probe)]
    while time.perf_counter() - start < job["seconds"]:
        passes.append(_timed_pass(run, ops, out_dir, probe))
    probe.stop()
    probe.take()
    done["timed_passes"] = len(passes)
    if mode == "trace":
        sys.path.insert(0, _DIR)
        import tracer
        run.cli_bytes = 0
        trace = tracer.Tracer()
        trace.install()
        traced = _timed_pass(trace.op(run), ops, out_dir, probe)
        layers = trace.metrics(n_ops=len(ops))
        layers["cli.bytes_out"] = run.cli_bytes
        # against the pass just before, which ran in the same spell of the
        # host's speed
        layers["trace.overhead_ratio"] = traced / passes[-1]
        done["layers"] = layers
    done["peak_rss_mb"] = _peak_rss_mb()
    _emit({"done": done})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
