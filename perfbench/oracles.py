"""Independent oracles for the benchmark's requests.

Nothing here imports plemelj.  References come from

* the analytic wedge geometry (``domain_map``): the limit of J(z, lambda)
  converges to i/z outside the lower wedge arg z in [-3pi/4, -pi/4] and
  diverges inside it; the mirrored kernel swaps in the upper wedge, the
  full-line kernel excludes both and converges to 0;
* ``scipy.integrate.quad(weight="cauchy")`` for the principal value of
  f(z)/z along the straight line in its real parameter q.  Bent and arc
  paths in the generators have real endpoints and a straight crossing, so
  by path independence their PV equals the one along [-a, b];
* closed forms: 2 pi f(0) for the delta, 2 pi f(z2) for the overlap.

``check(req, output)`` returns ``(ok, deviation, message)``: the relative
deviation is |value - ref| / max(|ref|, 1) over the values the op reports.
"""
import cmath
import csv
import io
import json
import math
import re
import warnings

QUARTER_PI = 0.25 * math.pi

# where the default lambda schedule (1 .. 1e-6) may leave a point
# undecided: near the apex, and in a band along the wedge rays whose
# angular width shrinks like 1/|z|^2 (measured at most 2.3e-5 / |z|^2
# beyond |z| = 0.2; the bound below leaves a factor of four)
UNDECIDED_RADIUS = 0.2
UNDECIDED_BAND = 1e-4
ON_RAY = 1e-9          # points this close to a ray may take either status

FORMULA_TOL = 1e-9     # PV-ladder functionals against the scipy reference
ROUTE_TOL = 1e-5       # lambda_route, the CLI's own cross-check agreement
DEFORMATION_TOL = 1e-6
OVERLAP_TOL = 1e-4
ABS_VALUE_TOL = 1e-12


# -- test functions ------------------------------------------------------------

def test_function(name: str):
    """The catalog entry ``name`` as a plain callable, with its f(0)."""
    m = re.fullmatch(r"gauss\((.+)\)", name)
    if m:
        a = complex(m.group(1))
        return (lambda z: cmath.exp(-(z - a) ** 2)), cmath.exp(-a * a)
    m = re.fullmatch(r"poly_gauss\((\d+),(.+)\)", name)
    if m:
        n, a = int(m.group(1)), complex(m.group(2))
        return ((lambda z: z ** n * cmath.exp(-(z - a) ** 2)),
                cmath.exp(-a * a) if n == 0 else 0j)
    if name == "cos_gauss":
        return (lambda z: cmath.cos(z) * cmath.exp(-z * z)), 1.0 + 0j
    raise ValueError(f"oracle does not know test function {name!r}")


def pv_line(f, phi: float, q0: float, q1: float) -> complex:
    """PV of the integral of f(q e^{i phi}) / q dq over [q0, q1], q0 < 0 < q1
    (equal to the contour PV of f(z)/z dz along that line)."""
    from scipy.integrate import IntegrationWarning, quad
    d = cmath.exp(1j * phi)
    parts = []
    for part in (lambda q: f(q * d).real, lambda q: f(q * d).imag):
        with warnings.catch_warnings():
            # QUADPACK flags roundoff at this tolerance; the values still
            # agree with a 30-digit mpmath reference to ~1e-15 (self-tests)
            warnings.simplefilter("ignore", IntegrationWarning)
            v, _err = quad(part, q0, q1, weight="cauchy", wvar=0.0,
                           epsabs=1e-14, epsrel=1e-13, limit=400)
        parts.append(v)
    return complex(*parts)


# -- wedge geometry ------------------------------------------------------------

_RAYS = {"I_plus": (-QUARTER_PI, -3 * QUARTER_PI),
         "I_minus": (QUARTER_PI, 3 * QUARTER_PI),
         "full_line": (QUARTER_PI, 3 * QUARTER_PI, -QUARTER_PI, -3 * QUARTER_PI)}


def _in_lower_wedge(theta):
    return -3 * QUARTER_PI <= theta <= -QUARTER_PI


def expected_status(kernel: str, z: complex):
    """(status, angular distance to the nearest wedge ray)."""
    if abs(z) <= 1e-14:
        return "diverged", 0.0
    theta = math.atan2(z.imag, z.real)
    ray = min(abs(math.remainder(theta - r, 2 * math.pi)) for r in _RAYS[kernel])
    if kernel == "I_plus":
        bad = _in_lower_wedge(theta)
    elif kernel == "I_minus":
        bad = _in_lower_wedge(math.atan2(-z.imag, -z.real))
    else:
        bad = _in_lower_wedge(theta) or _in_lower_wedge(math.atan2(-z.imag, -z.real))
    return ("diverged" if bad else "converged"), ray


def _axis(lo, hi, n):
    if n == 1:
        return [lo]
    return [lo + k * (hi - lo) / (n - 1) for k in range(n)]


def check_domain_map(args, text):
    kernel = args["kernel"]
    re_min, re_max, im_min, im_max, n_re, n_im = args["grid"]
    lines = text.splitlines()
    if not lines or lines[0] != "re,im,status,abs_value":
        return False, None, "bad CSV header"
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if len(rows) != n_re * n_im:
        return False, None, f"{len(rows)} rows for a {n_re}x{n_im} grid"
    worst = 0.0
    k = 0
    for im in _axis(im_min, im_max, n_im):
        for re_ in _axis(re_min, re_max, n_re):
            row = rows[k]
            k += 1
            if len(row) != 4:
                return False, None, f"row {k}: {row!r}"
            x, y = float(row[0]), float(row[1])
            if abs(x - re_) > 1e-12 * (1 + abs(re_)) or abs(y - im) > 1e-12 * (1 + abs(im)):
                return False, None, f"row {k}: point ({x}, {y}) is off the grid"
            z = complex(x, y)
            want, ray = expected_status(kernel, z)
            status = row[2]
            if ray <= ON_RAY:
                continue
            near = abs(z) < UNDECIDED_RADIUS or ray * abs(z) ** 2 < UNDECIDED_BAND
            if status == "undecided" and near:
                if row[3] != "":
                    return False, None, f"row {k}: undecided point has a value"
                continue
            if status != want:
                return False, None, f"row {k}: z = {z} is {status}, geometry says {want}"
            if status == "diverged":
                if row[3] != "":
                    return False, None, f"row {k}: diverged point has a value"
                continue
            value = float(row[3])
            if not math.isfinite(value):
                return False, None, f"row {k}: non-finite value"
            ref = 0.0 if kernel == "full_line" else 1.0 / abs(z)
            dev = abs(value - ref) / max(ref, 1.0)
            if dev > ABS_VALUE_TOL:
                return False, dev, f"row {k}: |limit| {value!r}, expected {ref!r}"
            worst = max(worst, dev)
    return True, worst, ""


# -- functionals ---------------------------------------------------------------

def references(req):
    """The scipy-side numbers a request needs, computed before the run."""
    op, args, ref = req["op"], req["args"], req["ref"]
    if op == "domain_map" or ref.get("raises"):
        return {}
    f, f0 = test_function(args["function"])
    if op == "overlap":
        return {"value": 2 * math.pi * f(complex(*args["z2"]))}
    if op == "tilted":
        pv = pv_line(f, args["phi"], args["q_min"], args["q_max"])
        return {"pv": pv, "delta": -1j * math.pi * f0,
                "mismatch": abs(args["phi"]) > QUARTER_PI}
    line = ref["line"]
    pv = pv_line(f, line["phi"], line["q0"], line["q1"])
    plus, minus = 1j * pv + math.pi * f0, -1j * pv + math.pi * f0
    if op == "deformation":
        return {"value": plus if args["side"] == "above" else minus}
    kernel = args["kernel"]
    if kernel == "I_plus":
        return {"pv": 1j * pv, "delta": math.pi * f0}
    if kernel == "I_minus":
        return {"pv": -1j * pv, "delta": math.pi * f0}
    return {"pv": 0j, "delta": 2 * math.pi * f0}


def _z(d):
    z = complex(d["re"], d["im"])
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("non-finite value")
    return z


def _dev(value, ref):
    return abs(value - ref) / max(abs(ref), 1.0)


def _compare(pairs):
    """pairs of (name, value, reference, tolerance) -> (ok, worst, msg)."""
    worst = 0.0
    for name, value, ref, tol in pairs:
        dev = _dev(value, ref)
        if not dev <= tol:
            return False, dev, f"{name} = {value!r}, reference {ref!r} (dev {dev:.2e})"
        worst = max(worst, dev)
    return True, worst, ""


def check(req, refs, text):
    """Checks one request's output text against its references."""
    op, args = req["op"], req["args"]
    if op == "domain_map":
        return check_domain_map(args, text)
    raises = req["ref"].get("raises")
    if raises:
        if text.startswith(f"raised {raises}:"):
            return True, 0.0, ""
        return False, None, f"expected {raises}, got {text[:80]!r}"
    if text.startswith("raised "):
        return False, None, text[:200]
    try:
        out = json.loads(text)
        if op in ("overlap", "deformation"):
            tol = OVERLAP_TOL if op == "overlap" else DEFORMATION_TOL
            return _compare([("value", _z(out["value"]), refs["value"], tol)])
        pv, delta = _z(out["pv_part"]), _z(out["delta_part"])
        value = _z(out["value"])
        pairs = [("pv_part", pv, refs["pv"], FORMULA_TOL),
                 ("delta_part", delta, refs["delta"], FORMULA_TOL),
                 ("value", value, refs["pv"] + refs["delta"], FORMULA_TOL)]
        if op == "tilted":
            if out["kernel_mismatch"] is not refs["mismatch"]:
                return False, None, f"kernel_mismatch is {out['kernel_mismatch']}"
            return _compare(pairs)
        cc = out["cross_check"]
        if args["cross_check"]:
            if cc is None or cc["agree"] is not True:
                return False, None, f"cross-check did not agree: {cc!r}"
            pairs.append(("lambda_route", _z(cc["lambda_route"]),
                          refs["pv"] + refs["delta"], ROUTE_TOL))
        elif cc is not None:
            return False, None, "unrequested cross-check in the report"
        return _compare(pairs)
    except (ValueError, KeyError, TypeError) as exc:
        return False, None, f"unreadable output ({exc}): {text[:80]!r}"
