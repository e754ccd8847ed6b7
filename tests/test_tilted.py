"""Tilted-line argument function and Plemelj identity."""
import cmath
import math

import pytest

from plemelj.contours import ContourError
from plemelj.functionals import (AdmissibilityError, TestFunction,
                                 catalog_function, plemelj_plus)
from plemelj.tilted import (TiltedLine, arg_limit, arg_regularized,
                            log_branch_residual, tilted_plemelj)


# -- argument function -------------------------------------------------------

def test_arg_limits_at_large_q():
    phi = 0.3
    assert abs(arg_regularized(1e6, phi, 1e-3) - phi) <= 1e-5
    assert abs(arg_regularized(-1e6, phi, 1e-3) - (phi + math.pi)) <= 1e-5


def test_arg_at_zero_is_half_pi():
    for phi in (-1.2, 0.0, 0.9):
        for eps in (1e-2, 1e-6):
            assert arg_regularized(0.0, phi, eps) == 0.5 * math.pi
    # and both side limits agree with it
    for phi in (-0.7, 0.4):
        lo = arg_regularized(-1e-13, phi, 1e-4)
        hi = arg_regularized(1e-13, phi, 1e-4)
        assert abs(lo - 0.5 * math.pi) < 1e-8
        assert abs(hi - 0.5 * math.pi) < 1e-8


def test_arg_continuity_across_zero():
    for eps in (1e-2, 1e-4):
        for phi in (-1.47, -0.8, 0.0, 0.8, 1.47):
            jump = abs(arg_regularized(1e-12, phi, eps)
                       - arg_regularized(-1e-12, phi, eps))
            assert jump <= 1e-6


def test_arg_strictly_decreasing():
    for eps in (1e-2, 1e-4):
        for phi in (-1.2, 0.0, 0.7):
            qs = sorted(math.copysign(10.0 ** e, s)
                        for s in (-1, 1) for e in range(-8, 4))
            qs = qs[:12] + [0.0] + qs[12:]
            vals = [arg_regularized(q, phi, eps) for q in qs]
            assert all(v1 < v0 for v0, v1 in zip(vals[:-1], vals[1:]))


def test_arg_range_endpoints():
    phi = 0.5
    eps = 1e-3
    assert arg_regularized(-1e9, phi, eps) < phi + math.pi
    assert arg_regularized(1e9, phi, eps) > phi


def test_arg_limit_step_form():
    assert arg_limit(1.0, 0.3) == 0.3
    assert arg_limit(-1.0, 0.3) == 0.3 + math.pi
    with pytest.raises(ValueError):
        arg_limit(0.0, 0.3)


def test_arg_limit_is_pointwise_limit():
    # grid kept a hair off |q| = 0.01, where the true deviation
    # atan(1e-8/|q|) sits within one float rounding of 1e-6 itself
    for phi in (-1.2, -0.4, 0.0, 0.4, 1.2):
        for q in (-100.0, -1.0, -0.011, 0.011, 1.0, 100.0):
            dev = abs(arg_regularized(q, phi, 1e-8) - arg_limit(q, phi))
            assert dev <= 1e-6, (q, phi, dev)


def test_arg_validation():
    with pytest.raises(ValueError):
        arg_regularized(1.0, 0.3, 0.0)
    with pytest.raises(ValueError):
        arg_regularized(1.0, 0.3, -1e-3)


def test_log_branch_residual_small():
    for q in (-2.0, -0.3, 0.4, 1.7):
        for phi in (-0.9, 0.0, 0.6):
            assert log_branch_residual(q, phi, 1e-3) <= 1e-6


# -- tilted line object --------------------------------------------------------

def test_line_validation():
    with pytest.raises(ValueError):
        TiltedLine(math.pi / 2, -1.0, 1.0)
    with pytest.raises(ValueError):
        TiltedLine(0.3, 0.5, 1.0)


def test_strict_kernel_flag():
    assert TiltedLine(0.2, -1, 1).strict_kernel_valid
    assert not TiltedLine(1.0, -1, 1).strict_kernel_valid


def test_to_contour_round_trip():
    line = TiltedLine(math.pi / 8, -2.0, 3.0)
    c = line.to_contour()
    assert c.crossing == 1
    assert abs(c.start - (-2.0) * cmath.exp(1j * math.pi / 8)) < 1e-14
    assert abs(c.end - 3.0 * cmath.exp(1j * math.pi / 8)) < 1e-14


# -- tilted Plemelj ---------------------------------------------------------------

def test_tilted_gaussian_at_zero_tilt():
    res = tilted_plemelj(catalog_function("gauss(0)"), TiltedLine(0.0, -3.0, 3.0))
    assert abs(res.value + 1j * math.pi) < 1e-9
    assert abs(res.pv_part) < 1e-9
    assert res.delta_part == -1j * math.pi
    assert not res.kernel_mismatch


def test_tilted_constant_any_tilt():
    res = tilted_plemelj(catalog_function("one"),
                         TiltedLine(math.pi / 8, -2.0, 2.0))
    assert abs(res.value + 1j * math.pi) < 1e-10


def test_tilted_outside_strict_range_still_evaluates():
    # formula route valid for |phi| < pi/2; kernel route diverges there
    res = tilted_plemelj(catalog_function("gauss(0)"),
                         TiltedLine(3 * math.pi / 8, -3.0, 3.0))
    assert res.kernel_mismatch
    assert abs(res.value + 1j * math.pi) < 1e-8   # even Gaussian: PV part ~ 0


def test_consistency_with_contour_functional():
    f = catalog_function("gauss(0.2)")
    for phi in (-math.pi / 8, 0.0, math.pi / 8,
                math.pi / 4 - 0.05, -(math.pi / 4 - 0.05)):
        line = TiltedLine(phi, -3.0, 3.0)
        res = tilted_plemelj(f, line)
        ref = -1j * plemelj_plus(f, line.to_contour()).value
        assert abs(res.value - ref) <= 1e-6, phi


def test_kernel_mismatch_bracketing():
    f = catalog_function("gauss(0)")
    for phi, expect in ((math.pi / 4 + 0.05, True),
                        (-(math.pi / 4 + 0.05), True),
                        (math.pi / 4 - 0.05, False),
                        (-(math.pi / 4 - 0.05), False)):
        res = tilted_plemelj(f, TiltedLine(phi, -2.0, 2.0))
        assert res.kernel_mismatch == expect, phi


@pytest.mark.parametrize("line, expect", [
    (TiltedLine(1.2, -0.01, 0.01), True),
    (TiltedLine(0.9, -0.001, 0.001), True),
    (TiltedLine(-1.2, -0.01, 0.01), True),
    (TiltedLine(-0.9, -0.001, 2.0), True),
    (TiltedLine(math.pi / 4, -2.0, 2.0), True),
    (TiltedLine(-math.pi / 4, -0.01, 0.01), True),
    (TiltedLine(0.7, -0.001, 0.001), False),
    (TiltedLine(-0.7, -0.01, 0.01), False)])
def test_kernel_mismatch_depends_on_the_tilt_alone(line, expect):
    # near the origin the kernel limit reads undecided, yet the kernel
    # route diverges along the whole line once |phi| >= pi/4, however
    # short the line
    res = tilted_plemelj(catalog_function("gauss(0)"), line)
    assert res.kernel_mismatch is expect


@pytest.mark.parametrize("line", [TiltedLine(0.1, -2.0, 2.0),
                                  TiltedLine(0.0, -1.0, 2.0),
                                  TiltedLine(-0.3, -2.5, 0.5)],
                         ids=["symmetric", "longer-right", "longer-left"])
def test_pv_takes_at_most_three_integrals(monkeypatch, line):
    import plemelj.tilted as tilted
    calls = []
    integrate = tilted.integrate_adaptive

    def counting(g, a, b, **kwargs):
        calls.append((a, b))
        return integrate(g, a, b, **kwargs)

    monkeypatch.setattr(tilted, "integrate_adaptive", counting)
    tilted_plemelj(catalog_function("gauss(0.2)"), line)
    assert 1 <= len(calls) <= 3


def test_asymmetric_range():
    # PV over (-1, 2) of 1/q = ln 2 for f = 1
    res = tilted_plemelj(catalog_function("one"), TiltedLine(0.0, -1.0, 2.0))
    assert abs(res.pv_part - math.log(2.0)) < 1e-9
    assert abs(res.value - (math.log(2.0) - 1j * math.pi)) < 1e-9


def test_line_too_short_for_its_squared_length_is_refused():
    # |q_max - q_min| = 2e-320 squares to 0; the contour refuses the line
    # instead of dividing by it
    with pytest.raises(ContourError):
        tilted_plemelj(catalog_function("gauss(0)"),
                       TiltedLine(0.1, -1e-320, 1e-320))


def test_non_finite_f_at_zero_is_inadmissible():
    f = TestFunction(lambda z: complex("nan") if z == 0 else 1.0)
    with pytest.raises(AdmissibilityError, match="not finite"):
        tilted_plemelj(f, TiltedLine(0.1, -1.0, 1.0))


def test_overflowing_test_function_is_inadmissible():
    # f(0) = exp(900) overflows
    with pytest.raises(AdmissibilityError, match="f overflows"):
        tilted_plemelj(catalog_function("gauss(30j)"), TiltedLine(0.1, -1.0, 1.0))


def test_eps_offset_check_can_fail(monkeypatch):
    # an arg 1e-9 off: within the step-form check's 1e-6 (the offset there
    # is 9.09e-7), far outside the closed-form check's 1e-14
    from plemelj import tilted, verify
    arg = tilted.arg_regularized
    monkeypatch.setattr(tilted, "arg_regularized",
                        lambda q, phi, eps: arg(q, phi, eps) + 1e-9)
    checks = {c.name: c for c in verify.suite_tilted()}
    assert checks["tilted/eps-limit-matches-step-form"].passed
    check = checks["tilted/eps-offset-matches-closed-form"]
    assert check.measured > 1e-10 and not check.passed


def test_pv_part_check_can_fail(monkeypatch):
    # a pv_part 1e-9 off: within the contour-route check's 1e-6, far
    # outside the pv_contour check's 1e-12, at every tilt up to pi/2
    from plemelj import tilted, verify
    pv_real_line = tilted._pv_real_line

    def off(g, q_min, q_max, budget):
        pv, err = pv_real_line(g, q_min, q_max, budget)
        return pv + 1e-9, err
    monkeypatch.setattr(tilted, "_pv_real_line", off)
    checks = {c.name: c for c in verify.suite_tilted()}
    assert checks["tilted/matches-contour-route"].passed
    check = checks["tilted/pv-part-matches-contour-pv"]
    assert check.measured > 1e-10 and not check.passed
