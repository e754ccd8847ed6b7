"""Self-verification suites behind the ``plemelj verify`` command.

Each suite re-runs the module-level invariants with fixed seeds and
reports one measured error per check against its pinned tolerance.  The
suites are deterministic: identical runs produce identical numbers.
"""
import cmath
import math
import random
import sys
from dataclasses import dataclass

from . import functionals, kernels, tilted
from .contours import (WedgeDomain, classify_point, segment_path,
                       tilted_segment)
from .special_functions import (SQRT_PI, erfc_complex, erfcx_scaled,
                                is_overflow, wz_erfcx)

# frozen two-oracle reference value for erfc(1): high-precision series oracle
# cross-checked against adaptive quadrature of (2/sqrt(pi)) int_1^inf e^{-t^2} dt
# (both reproduced in tests/test_special_functions.py); they agree to < 1e-16
ERFC_ONE = 0.15729920705028513066
# series oracle for 2*Shi(1) = PV int_{-1}^{1} e^z / z dz
TWO_SHI_ONE = 2.1145017507514570291


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tol: float
    passed: bool


def _check(name, measured, tol):
    return Check(name, float(measured), float(tol), bool(measured <= tol))


def _seeded_points(n, radius, seed):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        w = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(w) <= radius:
            pts.append(w)
    return pts


# -- special functions -------------------------------------------------------

def suite_special():
    checks = []
    checks.append(_check("special/erfc-at-zero", abs(erfc_complex(0) - 1.0), 1e-15))
    checks.append(_check("special/erfcx-at-zero", abs(erfcx_scaled(0) - 1.0), 1e-15))
    checks.append(_check("special/erfc-one-reference",
                         abs(erfc_complex(1.0) - ERFC_ONE) / ERFC_ONE, 1e-12))

    worst = 0.0
    for w in _seeded_points(1000, 8.0, seed=20240601):
        a = erfc_complex(w)
        b = erfc_complex(-w)
        if is_overflow(a) or is_overflow(b):
            continue
        scale = max(2.0, abs(a), abs(b))
        worst = max(worst, abs(a + b - 2.0) / scale)
    checks.append(_check("special/reflection-identity", worst, 1e-12))

    worst = 0.0
    for w in _seeded_points(1000, 8.0, seed=20240602):
        a = erfc_complex(w.conjugate())
        b = erfc_complex(w)
        if is_overflow(a) or is_overflow(b):
            continue
        worst = max(worst, abs(a - b.conjugate()) / max(1.0, abs(b)))
    checks.append(_check("special/conjugation-symmetry", worst, 1e-13))

    worst = 0.0
    for w in _seeded_points(1000, 10.0, seed=20240603):
        w2 = w * w
        if abs(w2.real) > 500.0:
            continue
        lhs = erfcx_scaled(w)
        rhs = cmath.exp(w2) * erfc_complex(w)
        if is_overflow(lhs) or is_overflow(rhs):
            continue
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    checks.append(_check("special/fused-consistency", worst, 1e-10))

    # sector limit: |sqrt(pi) w erfcx(w) - 1| decreases along each inside ray
    worst_violation = 0.0
    t_grid = (10.0, 18.0, 32.0, 56.0, 100.0)
    for k in range(8):
        theta = (-1.0 + 2.0 * (k + 0.5) / 8.0) * (0.75 * math.pi - 0.1)
        devs = [abs(wz_erfcx(t * cmath.exp(1j * theta)) - 1.0) for t in t_grid]
        for d0, d1 in zip(devs[:-1], devs[1:]):
            worst_violation = max(worst_violation, d1 - d0)
    checks.append(_check("special/sector-limit-monotone", worst_violation, 0.0))

    grid = [0.5 * k for k in range(1, 60)]
    vals = [erfcx_scaled(x) for x in grid]
    worst_violation = 0.0
    for v0, v1 in zip(vals[:-1], vals[1:]):
        if v1.imag != 0.0 or v1.real <= 0.0:
            worst_violation = max(worst_violation, 1.0)
        worst_violation = max(worst_violation, v1.real - v0.real)
    checks.append(_check("special/real-erfcx-positive-decreasing", worst_violation, 0.0))
    return checks


# -- kernels -----------------------------------------------------------------

def _agreement_sample(n, seed):
    """(z, lambda) pairs where both evaluators stay representable and the
    oscillatory quadrature does not cancel beyond ~1e6:1 (past which no
    double-precision quadrature can certify 1e-8)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) > 5.0 or abs(z) < 1e-3:
            continue
        lam = 10.0 ** rng.uniform(-3, 0)
        growth = max(0.0, -z.imag)
        if growth * growth / (4.0 * lam) > 350.0:
            continue
        if growth > 0.0 and z.real * z.real / (4.0 * lam) > 14.0:
            continue
        out.append((z, lam))
    return out


def suite_kernels():
    checks = []
    worst = 0.0
    for z, lam in _agreement_sample(40, seed=20240611):
        a = kernels.j_closed_form(z, lam)
        b = kernels.direct_quadrature(z, lam)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    checks.append(_check("kernels/evaluator-agreement", worst, 1e-8))

    worst = 0.0
    rng = random.Random(20240612)
    for _ in range(30):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 0.05:
            continue
        lam = 10.0 ** rng.uniform(-3, 0)
        base = kernels.j_kernel(z, lam)
        for s in (0.5, 2.0, 10.0):
            other = s * kernels.j_kernel(s * z, s * s * lam)
            if is_overflow(base) or is_overflow(other):
                continue
            worst = max(worst, abs(base - other) / max(1.0, abs(base)))
    checks.append(_check("kernels/scaling-identity", worst, 1e-10))

    # the same law on the lambda routes' ladder, lambda_m = lambda_0 / 4^m,
    # where it holds to the bit: 2^m kernel(2^m z, lambda_0) == kernel(z,
    # lambda_m), the law by which one arm tree in u = 2^m t serves every
    # rung with kernel(., lambda_0) (functionals._arm_rungs).  Exact wherever
    # each part of the value is 0 or at least 2^m times the smallest normal
    # double, so that the scaled-down one does not underflow
    worst = 0.0
    rng = random.Random(20240616)
    pts = [cmath.rect(10.0 ** rng.uniform(-2.0, 1.0), rng.uniform(-math.pi, math.pi))
           for _ in range(40)]
    ladder = functionals._LAMBDA_LADDER
    for kernel in (kernels.j_kernel, lambda z, lam: kernels.j_kernel(-z, lam),
                   kernels.full_line_kernel):
        for m, lam in enumerate(ladder):
            s = 2.0 ** m
            normal = s * sys.float_info.min
            for z in pts:
                base = kernel(z, lam)
                other = s * kernel(s * z, ladder[0])
                if (is_overflow(base) or is_overflow(other)
                        or 0.0 < abs(base.real) < normal
                        or 0.0 < abs(base.imag) < normal):
                    continue
                worst = max(worst, abs(base - other) / max(1.0, abs(base)))
    checks.append(_check("kernels/scaling-identity-dyadic", worst, 0.0))

    # the kernel pairs of a folded ladder arm (functionals._centred_pieces):
    # j_kernel_pair(z) is (j_kernel(z), j_kernel(-z)) to the bit, from one
    # erfcx wherever Re w != 0, and full_line_kernel_pair(z) is
    # (K(z), K(-z)) to the bit.  Seeded z over the Weideman disk, the
    # asymptotic series and the overflow sector of w, a tenth of them real
    # (Re w = +-0)
    def bits(*values):
        return [(v.real.hex(), v.imag.hex()) for v in values]

    mismatches = 0
    rng = random.Random(20240617)
    for k in range(400):
        z = cmath.rect(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-math.pi, math.pi))
        if k % 10 == 0:
            z = complex(z.real, 0.0)
        lam = 10.0 ** rng.uniform(-6.0, 0.0)
        mismatches += (bits(*kernels.j_kernel_pair(z, lam))
                       != bits(kernels.j_kernel(z, lam), kernels.j_kernel(-z, lam)))
        mismatches += (bits(*kernels.full_line_kernel_pair(z, lam))
                       != bits(kernels.full_line_kernel(z, lam),
                               kernels.full_line_kernel(-z, lam)))
    checks.append(_check("kernels/pair-identity", mismatches, 0.0))

    worst = 0.0
    rng = random.Random(20240613)
    n = 0
    while n < 50:
        z = complex(rng.uniform(-5, 5), rng.uniform(0.5, 5))
        if abs(z) > 5.0:
            continue
        n += 1
        res = kernels.kernel_limit(z)
        if res.status != "converged":
            worst = max(worst, 1.0)
            continue
        # the ladder's last J against i/z with its first A&S 7.1.23
        # correction, (i/z)(1 - 1/(2 w^2)), w^2 = -z^2 / (4 lambda)
        lam, last = res.lambda_trace[-1]
        worst = max(worst, abs(last - 1j / z * (1.0 + 2.0 * lam / (z * z)))
                    / abs(1j / z))
    checks.append(_check("kernels/upper-half-exactness", worst, 1e-6))

    # statuses against the analytic wedge: diverged outside 'plus', converged
    # inside, undecided only where (angle to a ray) * |z|^2 < 1e-4
    mismatches = 0
    rng = random.Random(20240614)
    for _ in range(60):
        z = cmath.rect(10.0 ** rng.uniform(-0.7, 0.5),
                       rng.uniform(-math.pi, math.pi))
        status = kernels.kernel_limit(z).status
        ray = min(abs(math.remainder(cmath.phase(z) + q * math.pi, 2.0 * math.pi))
                  for q in (0.25, 0.75))
        want = {"diverged": "outside", "converged": "inside"}.get(status)
        mismatches += (classify_point(z, WedgeDomain.plus()) != want
                       if want else ray * abs(z) ** 2 >= 1e-4)
    checks.append(_check("kernels/wedge-point-symmetry", mismatches, 0.0))

    # _decide against the full ladders on the default schedule: seeded
    # points, the boundary rays, and the bands around the radii where the
    # convergence certificates switch on, |z|^2 = 4 C lambda_min / tol for
    # J (C = 1 + 2 e^{-3/2}) and Re(z^2) = 4 lambda_min log(sqrt(pi /
    # lambda_min) / tol) for K; below the real axis J's switches on at
    # |z|^2 = 4 C lambda_min / ((1 - d) tol) and Re(z^2) = 4 lambda_min
    # log(2 sqrt(pi / lambda_min) sqrt(q_max) / (d tol)), d its share of
    # tol for the K term and q_max = 1e8 lambda_min its cap on |z|^2/4
    schedule = kernels.RegularizationSchedule.default()
    lam, tol = schedule.lambdas[-1], schedule.convergence_tol
    r_j = math.sqrt(4.0 * (1.0 + 2.0 * math.exp(-1.5)) * lam / tol)
    s_k = 4.0 * lam * math.log(math.sqrt(math.pi / lam) / tol)
    d, q_max = kernels._EXP_SHARE, kernels._CERTIFY_MAX_W2 * lam
    r_tail = r_j / math.sqrt(1.0 - d)
    s_exp = 4.0 * lam * math.log(2.0 * math.sqrt(math.pi / lam * q_max) / (d * tol))
    rng = random.Random(20240615)
    pts = [cmath.rect(r_j * 10.0 ** rng.uniform(-1.0, 1.0),
                      rng.uniform(-math.pi, math.pi)) for _ in range(40)]
    for _ in range(40):
        angle = rng.uniform(-math.pi, math.pi)
        pts.append(cmath.rect(r_j * rng.uniform(0.9, 1.1), angle))
        if math.cos(2.0 * angle) > 0.0:
            pts.append(cmath.rect(math.sqrt(s_k / math.cos(2.0 * angle))
                                  * rng.uniform(0.9, 1.1), angle))
    pts += [cmath.rect(r, (0.5 * q + 0.25) * math.pi)
            for q in range(4) for r in (0.3 * r_j, r_j, 3.0 * r_j)]
    # below the axis outside the wedge, either side of Re z = 0, and
    # mirrored above it for 'minus'
    for _ in range(10):
        r = 2.0 * math.sqrt(q_max) * 10.0 ** rng.uniform(-2.0, 0.0)
        angle = 0.5 * math.acos(min(s_exp * rng.uniform(0.5, 1.5) / (r * r), 1.0))
        for z in (cmath.rect(r_tail * rng.uniform(0.999, 1.001),
                             -rng.uniform(0.0, 0.25) * math.pi),
                  cmath.rect(r, -angle)):
            pts += [z, -z, -z.conjugate(), z.conjugate()]
    # and both wedges' centre lines, where a = -Re(z^2)/4 = |z|^2/4, at
    # a = A_k (1 -+ 1e-9) for each threshold A_k of the wedge certificates
    for c in (0.0, 0.5):
        for a_k in kernels._wedge_thresholds(schedule, c):
            if a_k < math.inf:
                for f in (1.0 - 1e-9, 1.0 + 1e-9):
                    y = 2.0 * math.sqrt(a_k * f)
                    pts += [complex(0.0, -y), complex(0.0, y)]
    # the edge band along the rays, a <= a_one = lambda_min ln 2: the
    # diagonal points of the README's 81 x 81 grid over [-2, 2]^2 that lie
    # a few ulps inside a wedge (with its axes spaced as the CLI spaces
    # them), and points next to each ray at a = a_one (1 -+ 1e-9)
    step = 4.0 / 80
    axis = [-2.0 + k * step for k in range(81)]
    pts += [z for z in (complex(axis[i], axis[j]) for i in range(81)
                        for j in (i, 80 - i)) if abs(z.real) < abs(z.imag)]
    for f in (1.0 - 1e-9, 1.0 + 1e-9):
        a = lam * math.log(2.0) * f
        for r in (0.3, 1.0, 2.5):
            x = math.sqrt(0.5 * r * r - 2.0 * a)
            y = math.sqrt(x * x + 4.0 * a)
            pts += [complex(x, y), complex(-x, y), complex(x, -y), complex(-x, -y)]
    mismatches = 0
    for z in pts:
        for kind, limit_of in (("plus", kernels.kernel_limit),
                               ("minus", kernels.kernel_limit_mirror),
                               ("full_line", kernels.full_line_limit)):
            res = limit_of(z, schedule)
            mismatches += (kernels._decide(kind, z, schedule)
                           != (res.status, res.value))
    checks.append(_check("kernels/decider-matches-ladders", mismatches, 0.0))

    half_gauss = kernels.direct_quadrature(0.0, 1.0)
    checks.append(_check("kernels/half-gaussian",
                         abs(half_gauss - 0.5 * SQRT_PI), 1e-12))
    return checks


# -- plemelj functionals -----------------------------------------------------

def _route_pairs():
    gauss03 = functionals.catalog_function("gauss(0.3)")
    polyg = functionals.catalog_function("poly_gauss(1,0)")
    straight = segment_path(-4.0, 4.0)
    tilted_p = tilted_segment(math.pi / 8, -3.0, 3.0)
    bent = segment_path(-3.0, -1.0 + 0.5j, -0.5, 0.5, 1.0 + 0.5j, 3.0)
    return ((gauss03, straight), (polyg, tilted_p), (gauss03, bent))


def suite_plemelj():
    checks = []
    gauss = functionals.catalog_function("gauss(0)")
    seg = segment_path(-3.0, 3.0)

    # <I(+), f> - <I(-), f> = 2i PV, with the one-sided actions taken
    # over the path deformed above and below the origin
    worst = 0.0
    for f, path in ((gauss, seg), (functionals.catalog_function("cos_gauss"), seg)):
        pv = functionals.pv_contour(f, path)
        above = functionals.deformation_route(f, path, side="above")
        below = functionals.deformation_route(f, path, side="below")
        worst = max(worst, abs((above - below) - 2j * pv))
    checks.append(_check("plemelj/decomposition-identity", worst, 1e-14))

    # <I(+), f> + <I(-), f> = 2 pi f(0), through the nascent delta
    worst = 0.0
    paths = (seg, tilted_segment(math.pi / 10, -2.0, 2.5))
    for name in functionals.CATALOG_EXAMPLES:
        f = functionals.catalog_function(name)
        for path in paths:
            delta = functionals.lambda_route(f, path, kernel="full_line")
            worst = max(worst, abs(delta - 2.0 * math.pi * f.at_zero()))
    checks.append(_check("plemelj/delta-sum-identity", worst, 1e-10))

    pv_exp = functionals.pv_contour(
        functionals.TestFunction(cmath.exp, value_at_zero=1.0), segment_path(-1.0, 1.0))
    checks.append(_check("plemelj/pv-exp-oracle", abs(pv_exp - TWO_SHI_ONE), 1e-8))

    worst = 0.0
    for f, path in _route_pairs():
        formula = functionals.plemelj_plus(f, path).value
        route = functionals.lambda_route(f, path, kernel="plus")
        worst = max(worst, abs(route - formula) / max(abs(formula), 1e-8 / 1e-5))
    checks.append(_check("plemelj/route-equivalence", worst, 1e-5))

    f, path = _route_pairs()[0]
    formula = functionals.plemelj_plus(f, path).value
    deform = functionals.deformation_route(f, path, side="above")
    checks.append(_check("plemelj/deformation-route",
                         abs(deform - formula) / max(1.0, abs(formula)), 1e-6))

    rng = random.Random(20240621)
    worst = 0.0
    f1 = functionals.catalog_function("gauss(0)")
    f2 = functionals.catalog_function("poly_gauss(2,0.3)")
    for _ in range(3):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        combo = functionals.TestFunction(
            lambda z, a=a, b=b: a * f1(z) + b * f2(z),
            value_at_zero=a * f1.at_zero() + b * f2.at_zero())
        lhs = functionals.plemelj_plus(combo, seg).value
        rhs = (a * functionals.plemelj_plus(f1, seg).value
               + b * functionals.plemelj_plus(f2, seg).value)
        worst = max(worst, abs(lhs - rhs))
    checks.append(_check("plemelj/linearity", worst, 1e-10))

    path_a = segment_path(-2.0, 2.0)
    path_b = segment_path(-2.0, -1.0 + 0.4j, -0.6, 0.6, 1.0 + 0.4j, 2.0)
    f = functionals.catalog_function("gauss(0.3)")
    va = functionals.plemelj_plus(f, path_a).value
    vb = functionals.plemelj_plus(f, path_b).value
    checks.append(_check("plemelj/path-independence", abs(va - vb), 1e-8))
    return checks


# -- tilted line -------------------------------------------------------------

def suite_tilted():
    checks = []
    worst = 0.0
    for eps in (1e-2, 1e-4):
        for phi in (-1.37, -0.8, -0.2, 0.0, 0.35, 0.9, 1.37):
            jump = abs(tilted.arg_regularized(1e-12, phi, eps)
                       - tilted.arg_regularized(-1e-12, phi, eps))
            worst = max(worst, jump)
    checks.append(_check("tilted/continuity-across-zero", worst, 1e-6))

    worst_violation = 0.0
    for eps in (1e-2, 1e-4):
        for phi in (-1.2, 0.0, 0.7):
            qs = [math.copysign(10.0 ** e, s)
                  for s in (-1, 1) for e in range(-6, 3)] + [0.0]
            qs.sort()
            vals = [tilted.arg_regularized(q, phi, eps) for q in qs]
            for v0, v1 in zip(vals[:-1], vals[1:]):
                worst_violation = max(worst_violation, v1 - v0)
    checks.append(_check("tilted/monotone-decreasing", worst_violation, 0.0))

    worst = worst_offset = 0.0
    eps = 1e-8
    # grid stays a hair off |q| = 0.01, where the true deviation
    # atan(1e-8/|q|) sits within one rounding of the tolerance itself
    for phi in (-1.2, -0.4, 0.0, 0.4, 1.2):
        for q in (-100.0, -1.0, -0.011, 0.011, 1.0, 100.0):
            offset = tilted.arg_regularized(q, phi, eps) - tilted.arg_limit(q, phi)
            worst = max(worst, abs(offset))
            # the offset itself in closed form: arg(k + i eps) - arg(k) =
            # arg(1 + i eps e^{-i phi} / q) for k = q e^{i phi}
            worst_offset = max(worst_offset, abs(offset - math.atan2(
                eps * math.cos(phi) / q, 1.0 + eps * math.sin(phi) / q)))
    checks.append(_check("tilted/eps-limit-matches-step-form", worst, 1e-6))
    # about 11 ulps of the args, which reach pi + 1.2
    checks.append(_check("tilted/eps-offset-matches-closed-form", worst_offset, 1e-14))

    worst = 0.0
    f = functionals.catalog_function("gauss(0.2)")
    for phi in (-math.pi / 8, 0.0, math.pi / 8,
                math.pi / 4 - 0.05, -(math.pi / 4 - 0.05)):
        line = tilted.TiltedLine(phi, -3.0, 3.0)
        res = tilted.tilted_plemelj(f, line)
        ref = -1j * functionals.plemelj_plus(f, line.to_contour()).value
        worst = max(worst, abs(res.value - ref))
    checks.append(_check("tilted/matches-contour-route", worst, 1e-6))

    # the PV over the whole range |phi| < pi/2, also where the kernel route
    # diverges: pv_contour checks no domain, and its subtraction along the
    # contour is independent of the fold in q; 1e-12 is the contour PV's
    # quadrature tolerance per piece
    worst = 0.0
    f = functionals.catalog_function("gauss(0.3)")
    for phi in (-1.37, -1.2, -0.9, -0.4, 0.0, 0.4, 0.9, 1.2, 1.37):
        line = tilted.TiltedLine(phi, -3.0, 3.0)
        pv = tilted.tilted_plemelj(f, line).pv_part
        ref = functionals.pv_contour(f, line.to_contour())
        worst = max(worst, abs(pv - ref) / max(1.0, abs(ref)))
    checks.append(_check("tilted/pv-part-matches-contour-pv", worst, 1e-12))

    flag_errors = 0
    for phi, expect in ((math.pi / 4 + 0.05, True), (-(math.pi / 4 + 0.05), True),
                        (math.pi / 4 - 0.05, False), (-(math.pi / 4 - 0.05), False)):
        line = tilted.TiltedLine(phi, -2.0, 2.0)
        res = tilted.tilted_plemelj(functionals.catalog_function("gauss(0)"), line)
        if res.kernel_mismatch != expect:
            flag_errors += 1
    checks.append(_check("tilted/kernel-validity-bracketing", flag_errors, 0.0))

    worst = 0.0
    for q in (-2.0, -0.3, 0.4, 1.7):
        for phi in (-0.9, 0.0, 0.6):
            worst = max(worst, tilted.log_branch_residual(q, phi, 1e-3))
    checks.append(_check("tilted/log-branch-residual", worst, 1e-6))
    return checks


SUITES = {
    "special": suite_special,
    "kernels": suite_kernels,
    "plemelj": suite_plemelj,
    "tilted": suite_tilted,
}


def run_suite(name: str):
    """Run one named suite (or 'all'); returns the list of Check records."""
    if name == "all":
        out = []
        for key in ("special", "kernels", "plemelj", "tilted"):
            out.extend(SUITES[key]())
        return out
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITES)} or 'all'")
    return suite()
