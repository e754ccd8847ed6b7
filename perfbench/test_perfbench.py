"""Self-tests of the benchmark: deterministic generators, oracles that
reject wrong answers, and a traced pass whose self times add up.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import json
import os
import subprocess
import sys

import pytest

import oracles
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.warmup(workload, 7) == workloads.warmup(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pools_are_stratified(workload):
    """Every seed draws the same mix of operations and kernels."""
    def mix(seed):
        return sorted((r["op"], r["args"].get("kernel", ""),
                       str(r["ref"].get("raises"))) for r in workloads.generate(workload, seed))
    assert mix(1) == mix(2) == mix(3)


def test_pv_reference_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    a = 0.3 - 0.2j
    f, _f0 = oracles.test_function(f"gauss({a.real}{a.imag:+}j)")
    d = mpmath.exp(0.4j)
    g = lambda q: mpmath.exp(-(q * d - a) ** 2)
    exact = mpmath.quad(lambda q: (g(q) - g(-q)) / q, [0, 2]) \
        + mpmath.quad(lambda q: g(q) / q, [2, 3])
    assert abs(oracles.pv_line(f, 0.4, -2.0, 3.0) - complex(exact)) < 1e-13


def test_expected_status_geometry():
    assert oracles.expected_status("I_plus", -1j)[0] == "diverged"
    assert oracles.expected_status("I_plus", 1j)[0] == "converged"
    assert oracles.expected_status("I_minus", 1j)[0] == "diverged"
    assert oracles.expected_status("full_line", 1j)[0] == "diverged"
    assert oracles.expected_status("full_line", 1.0)[0] == "converged"


def test_probe_correction():
    """A request is scaled by the probe samples taken while it ran, or by
    the MIN_PROBES nearest ones when it was too short to hold that many."""
    ref = run.PROBE_REF_S
    probes = [(0.001 * k, ref * (2.0 if k < 50 else 1.0)) for k in range(100)]
    recs = [{"t": 0.0, "dt": 0.04, "probes": probes[:50]},
            {"t": 0.0601, "dt": 0.0005, "probes": probes[50:]}]
    durations, _probe = run.corrected_durations(recs)
    assert durations == pytest.approx([0.02, 0.0005])
    assert run.ops_per_second([1.0, 1.0, 3.0, 3.0, 2.0, 2.0], 2) == 0.5


# -- oracles reject wrong answers -------------------------------------------------

def _run_worker(ops, out_dir, mode="run"):
    """Runs one pass of ``ops`` in a worker; returns its output lines."""
    job = {"warmup": {"op": ops[0]["op"], "args": ops[0]["args"]},
           "ops": [{"op": r["op"], "args": r["args"]} for r in ops],
           "seconds": 0, "out_dir": str(out_dir)}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), SRC, mode],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=120, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _first(workload, predicate, seed=3):
    return next(r for r in workloads.generate(workload, seed) if predicate(r))


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    reqs = [
        _first("sweep", lambda r: r["args"]["kernel"] == "I_plus"
               and r["ref"]["rect"] == "origin"),
        _first("sweep", lambda r: r["args"]["kernel"] == "full_line"),
        _first("functional", lambda r: r["args"]["kernel"] == "I_plus"
               and not r["ref"]["raises"]),
        _first("functional", lambda r: r["args"]["kernel"] == "delta"
               and not r["ref"]["raises"]),
        _first("functional", lambda r: r["ref"]["raises"]),
        _first("crosscheck", lambda r: r["op"] == "tilted"
               and abs(r["args"]["phi"]) > 0.8),
        _first("crosscheck", lambda r: r["op"] == "overlap"),
        _first("crosscheck", lambda r: r["op"] == "deformation"),
    ]
    for r in reqs:     # shrink the grids: the point is the oracle, not speed
        if r["op"] == "domain_map":
            r["args"]["grid"][4:] = [15, 13]
    out_dir = tmp_path_factory.mktemp("out")
    _run_worker(reqs, out_dir)
    outs = [(out_dir / f"{i}.out").read_text() for i in range(len(reqs))]
    return [(r, oracles.references(r), out) for r, out in zip(reqs, outs)]


def test_correct_outputs_pass(samples):
    for req, refs, out in samples:
        ok, dev, msg = oracles.check(req, refs, out)
        assert ok, msg
        assert dev is not None and dev < 1e-6


def _flip_status(text):
    lines = text.splitlines()
    for k, line in enumerate(lines[1:], start=1):
        if ",converged," in line:
            lines[k] = line.replace(",converged,", ",diverged,")
            return "\n".join(lines) + "\n"
        if ",diverged," in line:
            lines[k] = line.replace(",diverged,", ",converged,") + "1.0"
            return "\n".join(lines) + "\n"
    raise AssertionError("no decided row")


def _perturb_value(text, rel=1e-6):
    lines = text.splitlines()
    for k, line in enumerate(lines[1:], start=1):
        re_, im, status, val = line.split(",")
        if status == "converged" and val:
            lines[k] = ",".join((re_, im, status, repr(float(val) * (1 + rel) + rel)))
            return "\n".join(lines) + "\n"
    raise AssertionError("no converged row")


def _perturb_json(text, key, rel=1e-6):
    obj = json.loads(text)
    obj[key]["re"] = obj[key]["re"] * (1 + rel) + rel
    return json.dumps(obj)


def test_oracles_reject_wrong_answers(samples):
    wrong = []
    for req, refs, out in samples:
        op = req["op"]
        wrong.append((req, refs, "unexpected RuntimeError: boom"))
        if op == "domain_map":
            wrong.append((req, refs, _flip_status(out)))
            wrong.append((req, refs, out.replace("re,im", "im,re", 1)))
            if req["args"]["kernel"] != "full_line":
                wrong.append((req, refs, _perturb_value(out)))
        elif req["ref"].get("raises"):
            wrong.append((req, refs, "raised OrientationError: wrong error"))
            wrong.append((req, refs, "{}"))
        elif op == "functional":
            wrong.append((req, refs, _perturb_json(out, "value")))
            wrong.append((req, refs, _perturb_json(out, "pv_part")))
            wrong.append((req, refs, out.replace("e+00", "e+01", 1)))
        elif op == "tilted":
            obj = json.loads(out)
            obj["kernel_mismatch"] = not obj["kernel_mismatch"]
            wrong.append((req, refs, json.dumps(obj)))
            wrong.append((req, refs, _perturb_json(out, "value")))
        else:
            wrong.append((req, refs, _perturb_json(out, "value", rel=1e-3)))
            nan = json.loads(out)
            nan["value"]["im"] = float("nan")
            wrong.append((req, refs, json.dumps(nan)))
    for req, refs, text in wrong:
        ok, _dev, _msg = oracles.check(req, refs, text)
        assert not ok, (req["op"], text[:120])


# -- traced pass -------------------------------------------------------------------

def test_traced_self_times_add_up(tmp_path):
    """A traced crosscheck pass (which touches every layer) reports every
    layer, and the layer self times, the unattributed rest and the
    tracer's own span costs add up to the traced op time."""
    pick = [_first("crosscheck", lambda r, op=op: r["op"] == op, seed=5)
            for op in ("tilted", "overlap", "deformation", "functional")]
    layers = _run_worker(pick, tmp_path, mode="trace")[-1]["done"]["layers"]
    names = ("special", "kernels", "contours", "quadrature", "functionals",
             "tilted", "cli")
    total = (sum(layers[f"{n}.self_s"] for n in names)
             + layers["trace.unattributed_s"] + layers["trace.overhead_s"])
    assert abs(total - layers["trace.op_s"]) < 1e-6
    assert layers["trace.span_cost_ns"] > 0
    assert 0 < layers["trace.overhead_s"] < layers["trace.op_s"]
    for n in names:
        assert layers[f"{n}.calls"] > 0
        assert layers[f"{n}.self_s"] <= layers[f"{n}.busy_s"] + 1e-9


def test_missing_boundary_is_absent_not_fatal():
    """A boundary a refactor removed leaves its metrics out; the rest stay."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import plemelj.cli, tracer\n"
        "del tracer.BOUNDARIES['gk15']\n"
        "tracer.BOUNDARIES['no_such_function'] = 'kernels'\n"
        "t = tracer.Tracer(); t.install()\n"
        "print(sorted(t.metrics(n_ops=1)))\n")
    proc = subprocess.run([sys.executable, "-c", code, SRC, HERE],
                          capture_output=True, text=True, timeout=60, check=True)
    names = proc.stdout
    assert "quadrature.panels" not in names
    assert "special.erfcx.calls" in names and "kernels.calls" in names


def test_every_layer_has_a_prediction():
    """Each per-layer metric's prefix names a row of predictions.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)
    rows = {row["layer"] for row in predictions["layers"]}
    assert {m["name"].split(".")[0] for m in spec["per_layer"]} <= rows
