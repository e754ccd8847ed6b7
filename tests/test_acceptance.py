"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured errors.  Criteria and tolerances are pinned here; the
sampling rules (seeds, grids, path choices) are frozen so the suite is
deterministic.
"""
import cmath
import math
import random
import time

import mpmath as mp

from plemelj import functionals, kernels, tilted
from plemelj.cli import DomainMapRequest, run_domain_map
from plemelj.contours import segment_path, tilted_segment
from plemelj.functionals import TestFunction, catalog_function
from plemelj.quadrature import integrate_adaptive
from plemelj.special_functions import (SQRT_PI, erfc_complex, is_overflow,
                                       wz_erfcx)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


# -- 1: wedge reconstruction ---------------------------------------------------

def test_criterion_1_wedge_reconstruction():
    t0 = time.perf_counter()
    req = DomainMapRequest(grid=(-2.0, 2.0, -2.0, 2.0, 81, 81), kernel="I_plus")
    rows = list(run_domain_map(req))   # the timing covers the whole sweep
    elapsed = time.perf_counter() - t0
    cell = (4.0 / 80.0) * math.sqrt(2.0)   # one grid cell, diagonal measure

    def dist_to_wedge(z):
        # closed wedge arg in [5pi/4, 7pi/4] == [-3pi/4, -pi/4], apex 0
        ph = cmath.phase(z)
        if -0.75 * math.pi <= ph <= -0.25 * math.pi:
            return 0.0
        best = abs(z)
        for ang in (-0.75 * math.pi, -0.25 * math.pi):
            u = cmath.exp(1j * ang)
            s = (z * u.conjugate()).real
            if s > 0.0:
                best = min(best, abs(z - s * u))
        return best

    def dist_into_wedge_interior(z):
        ph = cmath.phase(z)
        if not -0.75 * math.pi <= ph <= -0.25 * math.pi:
            return 0.0
        return min(abs(z),
                   abs(abs(z) * math.sin(ph + 0.75 * math.pi)),
                   abs(abs(z) * math.sin(ph + 0.25 * math.pi)))

    stray_diverged = []
    stray_converged = []
    missed_interior = []
    for re, im, status, _absv in rows:
        z = complex(re, im)
        if abs(z) < 1e-14:
            continue
        if status == "diverged" and dist_to_wedge(z) > cell:
            stray_diverged.append(z)
        if status == "converged" and dist_into_wedge_interior(z) > cell:
            stray_converged.append(z)
        # integrity beyond the letter: deep interior must actually diverge
        if (dist_into_wedge_interior(z) > cell and abs(z) >= 0.15
                and status != "diverged"):
            missed_interior.append(z)
    ok = (not stray_diverged and not stray_converged and not missed_interior
          and elapsed <= 60.0)
    assert report(1, ok,
                  f"diverged stray={len(stray_diverged)}, converged-in-wedge="
                  f"{len(stray_converged)}, interior-missed={len(missed_interior)}, "
                  f"runtime={elapsed:.2f}s (cap 60s)")


# -- 2: upper-half-plane limit ---------------------------------------------------

def test_criterion_2_upper_half_plane_limit():
    rng = random.Random(11011)
    worst = 0.0
    worst_trace = 0.0   # empirical deviation of J at the smallest lambda
    n = 0
    while n < 200:
        z = complex(rng.uniform(-5, 5), rng.uniform(0.2, 5))
        if abs(z) > 5.0:
            continue
        n += 1
        res = kernels.kernel_limit(z)
        if res.status != "converged":
            worst = math.inf
            break
        worst = max(worst, abs(res.value - 1j / z) / abs(1j / z))
        worst_trace = max(worst_trace,
                          abs(res.lambda_trace[-1][1] - 1j / z) / abs(1j / z))
    assert report(2, worst <= 1e-6,
                  f"max rel deviation from i/z = {worst:.3e} (tol 1e-6, "
                  f"200 points, Im z >= 0.2; raw kernel at lambda=1e-6 "
                  f"deviates by at most {worst_trace:.3e})")


# -- 3: evaluator cross-validation ------------------------------------------------

def test_criterion_3_evaluator_cross_validation():
    # pairs with lambda in [1e-3, 1], |z| <= 5; resampled where the
    # integrand envelope leaves the double range or the oscillatory
    # cancellation exceeds ~1e6:1 (beyond which no double-precision
    # quadrature can certify 1e-8 agreement)
    rng = random.Random(515151)
    worst = 0.0
    n = 0
    while n < 100:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) > 5.0 or abs(z) < 1e-3:
            continue
        lam = 10.0 ** rng.uniform(-3, 0)
        growth = max(0.0, -z.imag)
        if growth * growth / (4.0 * lam) > 350.0:
            continue
        if growth > 0.0 and z.real * z.real / (4.0 * lam) > 14.0:
            continue
        n += 1
        a = kernels.j_closed_form(z, lam)
        b = kernels.direct_quadrature(z, lam)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    assert report(3, worst <= 1e-8,
                  f"max |closed - quadrature|/(1+|J|) = {worst:.3e} "
                  "(tol 1e-8, 100 pairs)")


# -- 4: sector-limit law -----------------------------------------------------------

def test_criterion_4_sector_limit_law():
    # A&S 7.1.23: inside |arg w| < 3pi/4,
    #   sqrt(pi) w e^{w^2} erfc(w) = 1 - 1/(2 w^2) + 3/(4 w^4) - ...
    # The bare limit 1 is off by 1/(2|w|^2) = 5e-5 at |w| = 100, so there the
    # law is checked with its first correction (omitted term 3/(4|w|^4) =
    # 7.5e-9) and the bare limit is checked at |w| = 1000 (deviation 5e-7).
    r = 100.0
    tol = 1e-6
    inside_angles = [(-1.0 + 2.0 * (k + 0.5) / 8.0) * (0.75 * math.pi - 0.1)
                     for k in range(8)]
    worst_law = 0.0
    worst_oracle = 0.0
    for theta in inside_angles:
        w = r * cmath.exp(1j * theta)
        v = wz_erfcx(w)
        worst_law = max(worst_law, abs(v - (1.0 - 1.0 / (2.0 * w * w))))
        with mp.workdps(40):
            wm = mp.mpc(w.real, w.imag)
            exact = complex(mp.sqrt(mp.pi) * wm * mp.exp(wm * wm) * mp.erfc(wm))
        worst_oracle = max(worst_oracle, abs(v - exact) / abs(exact))
    dev_1000 = max(abs(wz_erfcx(1000.0 * cmath.exp(1j * t)) - 1.0)
                   for t in inside_angles)
    outside_ok = True
    min_outside = math.inf
    for theta in (0.76 * math.pi, -0.76 * math.pi, 0.9 * math.pi, -0.9 * math.pi):
        v = wz_erfcx(r * cmath.exp(1j * theta))
        mag = math.inf if is_overflow(v) else abs(v)
        min_outside = min(min_outside, mag)
        outside_ok = outside_ok and mag >= 1e6
    ok = (worst_law <= tol and dev_1000 <= tol and worst_oracle <= 1e-10
          and outside_ok)
    assert report(4, ok,
                  f"max |sqrt(pi) w erfcx(w) - (1 - 1/(2w^2))| at |w|=100 inside "
                  f"sector = {worst_law:.3e} (tol 1e-6; omitted A&S 7.1.23 term "
                  f"3/(4|w|^4) = {3 / (4 * r ** 4):.1e}); max |... - 1| at "
                  f"|w|=1000 = {dev_1000:.2e} (tol 1e-6); max rel err vs mpmath "
                  f"at |w|=100 = {worst_oracle:.1e} (tol 1e-10); min magnitude "
                  f"outside = {min_outside:.3e} (>= 1e6: {outside_ok})")


# -- 5: extended Plemelj route equivalence ------------------------------------------

def _criterion_5_pairs():
    bent_up = segment_path(-3.0, -1.0 + 0.5j, -0.5, 0.5, 1.0 + 0.5j, 3.0)
    bent_arch = segment_path(-3.0, -1.5 + 0.8j, -0.6, 0.6, 1.5 + 0.8j, 3.0)
    return (
        (catalog_function("gauss(0)"), segment_path(-4.0, 4.0)),
        (catalog_function("gauss(0.3)"), segment_path(-4.0, 4.0)),
        (catalog_function("poly_gauss(1,0)"), segment_path(-3.0, 3.0)),
        (catalog_function("poly_gauss(2,0.3)"), segment_path(-3.0, 3.0)),
        (catalog_function("gauss(0)"), tilted_segment(math.pi / 8, -3.0, 3.0)),
        (catalog_function("gauss(0.3)"), tilted_segment(-math.pi / 8, -3.0, 3.0)),
        (catalog_function("poly_gauss(1,0.2)"), tilted_segment(math.pi / 10, -3.0, 3.0)),
        (catalog_function("gauss(0.3)"), bent_up),
        (catalog_function("poly_gauss(2,0)"), bent_up),
        (catalog_function("gauss(0.2+0.1j)"), bent_arch),
    )


def test_criterion_5_route_equivalence():
    worst = 0.0
    for f, path in _criterion_5_pairs():
        formula = functionals.plemelj_plus(f, path).value
        route = functionals.lambda_route(f, path, kernel="plus")
        resid = abs(route - formula) / max(abs(formula), 1e-8 / 1e-5)
        worst = max(worst, resid)
    assert report(5, worst <= 1e-5,
                  f"max relative route disagreement = {worst:.3e} "
                  "(tol 1e-5, 10 pairs: straight/tilted/bent)")


# -- 6: delta sum ---------------------------------------------------------------------

def test_criterion_6_delta_sum():
    paths = (
        segment_path(-3.0, 3.0),
        tilted_segment(math.pi / 10, -2.0, 2.5),
        tilted_segment(-math.pi / 10, -2.5, 2.0),
        segment_path(-2.0, -0.8 + 0.3j, -0.4, 0.4, 0.8 + 0.3j, 2.0),
        segment_path(-2.0, -0.8 - 0.3j, -0.4, 0.4, 0.8 - 0.3j, 2.0),
    )
    worst_sum = 0.0
    for name in functionals.CATALOG_EXAMPLES:
        f = catalog_function(name)
        target = 2.0 * math.pi * f.at_zero()
        for path in paths:
            plus = functionals.plemelj_plus(f, path)
            minus = functionals.plemelj_minus(f, path)
            worst_sum = max(worst_sum, abs(plus.value + minus.value - target))
    worst_route = 0.0
    for name in ("gauss(0.3)", "poly_gauss(1,0)"):
        f = catalog_function(name)
        target = 2.0 * math.pi * f.at_zero()
        for path in paths:
            route = functionals.lambda_route(f, path, kernel="full_line")
            worst_route = max(worst_route,
                              abs(route - target) / max(1.0, abs(target)))
    ok = worst_sum <= 1e-10 and worst_route <= 1e-5
    assert report(6, ok,
                  f"max |plus+minus - 2 pi f(0)| = {worst_sum:.3e} (tol 1e-10); "
                  f"max full-line route deviation = {worst_route:.3e} (tol 1e-5)")


# -- 7: tilted-line consistency ----------------------------------------------------

def test_criterion_7_tilted_consistency():
    f = catalog_function("gauss(0.2)")
    worst = 0.0
    for phi in (-math.pi / 8, 0.0, math.pi / 8):
        line = tilted.TiltedLine(phi, -3.0, 3.0)
        res = tilted.tilted_plemelj(f, line)
        ref = -1j * functionals.plemelj_plus(f, line.to_contour()).value
        worst = max(worst, abs(res.value - ref))
    flags_ok = True
    for phi, expect in ((math.pi / 4 + 0.05, True),
                        (-(math.pi / 4 + 0.05), True),
                        (math.pi / 4 - 0.05, False),
                        (-(math.pi / 4 - 0.05), False)):
        res = tilted.tilted_plemelj(catalog_function("gauss(0)"),
                                    tilted.TiltedLine(phi, -2.0, 2.0))
        flags_ok = flags_ok and (res.kernel_mismatch == expect)
    ok = worst <= 1e-6 and flags_ok
    assert report(7, ok,
                  f"max |tilted - (-i plemelj_plus)| = {worst:.3e} (tol 1e-6); "
                  f"validity flags bracket pi/4: {flags_ok}")


# -- 8: argument continuity ----------------------------------------------------------

def test_criterion_8_argument_continuity():
    worst_jump = 0.0
    for eps in (1e-2, 1e-4):
        for phi in (-1.47, -0.9, -0.3, 0.0, 0.3, 0.9, 1.47):
            jump = abs(tilted.arg_regularized(1e-12, phi, eps)
                       - tilted.arg_regularized(-1e-12, phi, eps))
            worst_jump = max(worst_jump, jump)
    worst_limit = 0.0
    # |q| grid starts at 0.011: at exactly 0.01 the true deviation
    # atan(1e-8/0.01) sits within one float rounding of the 1e-6 tolerance
    for phi in (-1.2, -0.4, 0.0, 0.4, 1.2):
        for q in (-100.0, -1.0, -0.1, -0.011, 0.011, 0.1, 1.0, 100.0):
            worst_limit = max(worst_limit,
                              abs(tilted.arg_regularized(q, phi, 1e-8)
                                  - tilted.arg_limit(q, phi)))
    ok = worst_jump <= 1e-6 and worst_limit <= 1e-6
    assert report(8, ok,
                  f"max jump across q=0 = {worst_jump:.3e}, max eps->0 "
                  f"deviation on |q| >= 0.011 = {worst_limit:.3e} (tol 1e-6)")


# -- 9: orthogonality overlap ---------------------------------------------------------

def test_criterion_9_orthogonality_overlap():
    t0 = time.perf_counter()
    f_real = catalog_function("gauss(0.7)")
    v1 = functionals.overlap_delta(0.7, f_real, segment_path(-3.0, 3.0))
    r1 = abs(v1 - 2.0 * math.pi) / (2.0 * math.pi)
    z2 = 0.7 * cmath.exp(1j * math.pi / 8)
    f_tilt = TestFunction(lambda z: cmath.exp(-(z - z2) ** 2),
                          value_at_zero=cmath.exp(-z2 * z2))
    v2 = functionals.overlap_delta(z2, f_tilt,
                                   tilted_segment(math.pi / 8, -3.0, 3.0))
    target = 2.0 * math.pi * f_tilt(z2)
    r2 = abs(v2 - target) / abs(target)
    elapsed = time.perf_counter() - t0
    ok = r1 <= 1e-4 and r2 <= 1e-4 and elapsed <= 30.0
    assert report(9, ok,
                  f"real-path rel err = {r1:.3e}, tilted-path rel err = "
                  f"{r2:.3e} (tol 1e-4); runtime {elapsed:.2f}s (cap 30s)")


# -- 10: special-function floor ---------------------------------------------------------

def test_criterion_10_special_function_floor():
    rng = random.Random(606060)
    worst_refl = 0.0
    worst_conj = 0.0
    n = 0
    while n < 1000:
        w = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(w) > 8.0:
            continue
        n += 1
        a = erfc_complex(w)
        b = erfc_complex(-w)
        worst_refl = max(worst_refl,
                         abs(a + b - 2.0) / max(2.0, abs(a), abs(b)))
        c = erfc_complex(w.conjugate())
        worst_conj = max(worst_conj,
                         abs(c - a.conjugate()) / max(1.0, abs(a)))
    # two independent oracles for erfc(1): high-precision Maclaurin series
    # and Gauss-Kronrod quadrature of the defining integral (A&S 7.1.2)
    with mp.workdps(40):
        acc = mp.mpf(0)
        for k in range(200):
            acc += (-1) ** k / (mp.factorial(k) * (2 * k + 1))
        oracle_series = float(1 - 2 / mp.sqrt(mp.pi) * acc)
    val, _ = integrate_adaptive(lambda t: math.exp(-t * t), 1.0, 13.0,
                                abs_tol=1e-16)
    oracle_quad = 2.0 / SQRT_PI * val.real
    oracle_gap = abs(oracle_series - oracle_quad) / oracle_series
    impl_err = abs(erfc_complex(1.0) - oracle_series) / oracle_series
    ok = (worst_refl <= 1e-12 and worst_conj <= 1e-12
          and oracle_gap <= 1e-12 and impl_err <= 1e-12)
    assert report(10, ok,
                  f"reflection residual = {worst_refl:.3e}, conjugation "
                  f"residual = {worst_conj:.3e}, two-oracle gap = "
                  f"{oracle_gap:.3e}, erfc(1) error = {impl_err:.3e} "
                  "(all tol 1e-12)")
