"""Regularized kernel evaluators, schedules and limit classification."""
import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plemelj.kernels as kernels
from plemelj import _erfcx_py
from plemelj.cli import _axis
from plemelj.kernels import (RegularizationSchedule,
                             SingularInputError, TruncationError,
                             _decide, _full_line,
                             direct_quadrature, full_line_kernel,
                             full_line_limit, j_closed_form, j_kernel,
                             kernel_limit, kernel_limit_mirror)
from plemelj.special_functions import OVERFLOW, SQRT_PI, is_overflow

# frozen oracle value for exp(1)*erfc(1) (two-oracle machinery in
# tests/test_special_functions.py)
ERFCX_ONE = 0.42758357615580700441


# -- schedule validation -----------------------------------------------------

def test_default_schedule():
    s = RegularizationSchedule.default()
    assert len(s.lambdas) == 13
    assert s.lambdas[0] == 1.0
    assert abs(s.lambdas[-1] - 1e-6) < 1e-18
    assert all(b < a for a, b in zip(s.lambdas[:-1], s.lambdas[1:]))


@pytest.mark.parametrize("bad", [
    dict(lambdas=()),
    dict(lambdas=(1.0, 2.0)),
    dict(lambdas=(1.0, -0.5)),
    dict(lambdas=(1.0, 0.1), divergence_threshold=100.0, convergence_tol=1e-4),
])
def test_schedule_rejects(bad):
    with pytest.raises(ValueError):
        RegularizationSchedule(**bad)


# -- closed form --------------------------------------------------------------

def test_closed_form_upper_half_limit():
    # Im z > 0: the limit is i/z; at lambda = 1e-6 the residual is O(lambda)
    v = j_closed_form(1j, 1e-6)
    assert abs(v - 1.0) < 1e-3


def test_closed_form_rejects_origin():
    with pytest.raises(SingularInputError):
        j_closed_form(0.0, 0.1)


def test_closed_form_at_w_equals_one():
    # z = 2 sqrt(lambda) i makes w = 1: J = sqrt(pi) erfcx(1) / (2 sqrt(lambda))
    for lam in (1.0, 0.01):
        z = 2.0 * math.sqrt(lam) * 1j
        expected = SQRT_PI * ERFCX_ONE / (2.0 * math.sqrt(lam))
        assert abs(j_closed_form(z, lam) - expected) < 1e-13 * expected


def test_closed_form_overflow_propagates():
    v = j_closed_form(-1e4j, 1e-4)   # deep in the wedge, e^{w^2} overflows
    assert is_overflow(v)


# -- direct quadrature ---------------------------------------------------------

def test_half_gaussian_value():
    assert abs(direct_quadrature(0.0, 1.0) - 0.5 * SQRT_PI) < 1e-13


def test_quadrature_matches_closed_form_at_i():
    for lam in (1.0, 0.1, 0.01, 1e-3):
        a = j_closed_form(1j, lam)
        b = direct_quadrature(1j, lam)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_quadrature_real_point_approaches_plemelj_value():
    # z = 1, lambda -> 0: i/(1 + i0) = i; the delta term vanishes pointwise
    v = direct_quadrature(1.0, 1e-4)
    assert abs(v - 1j) < 1e-3


def test_quadrature_truncation_failure():
    with pytest.raises(TruncationError):
        direct_quadrature(-40.0j, 1e-3)   # envelope peak e^{400/0.004} overflows


def test_evaluator_agreement_100_random_pairs():
    # pairs drawn with lambda in [1e-3, 1], |z| <= 5; pairs whose envelope
    # peak exceeds the double range or whose oscillatory cancellation
    # exceeds ~1e6:1 are resampled (past that no double-precision
    # quadrature can certify 1e-8; both regimes are exercised elsewhere)
    rng = random.Random(20240715)
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
        a = j_closed_form(z, lam)
        b = direct_quadrature(z, lam)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a)), (z, lam)


def test_scaling_identity():
    # J(z, lambda) = s J(s z, s^2 lambda) for real s > 0
    rng = random.Random(4711)
    for _ in range(40):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 0.05:
            continue
        lam = 10.0 ** rng.uniform(-3, 0)
        base = j_kernel(z, lam)
        if is_overflow(base):
            continue
        for s in (0.5, 2.0, 10.0):
            scaled = s * j_kernel(s * z, s * s * lam)
            assert abs(base - scaled) <= 1e-10 * max(1.0, abs(base))


_DYADIC_KERNELS = {"j_kernel": j_kernel,
                   "mirrored": lambda z, lam: j_kernel(-z, lam),
                   "full_line_kernel": full_line_kernel}


@pytest.mark.parametrize("name", list(_DYADIC_KERNELS))
def test_dyadic_scaling_is_exact(name):
    # on the lambda routes' ladder, lambda_m = lambda_0 / 4^m, so
    # s = 2^m scales w, the exponent and the prefactor exactly, and
    # 2^m kernel(2^m z, lambda_0) is kernel(z, lambda_m) to the bit: the
    # premise of the routes' shared kernel values.  Where a part of the
    # value is below 2^m times the smallest normal double, the scaled-down
    # one underflows and the law holds only to 2^m * 2^-1075
    from plemelj.functionals import _LAMBDA_LADDER as lams
    kernel = _DYADIC_KERNELS[name]
    rng = random.Random(f"dyadic:{name}")
    pts = [cmath.rect(10.0 ** rng.uniform(-3.0, 1.5), rng.uniform(-math.pi, math.pi))
           for _ in range(300)]
    compared = 0
    for m, lam in enumerate(lams):
        s = 2.0 ** m
        assert s * s * lam == lams[0]
        normal = s * sys.float_info.min
        for z in pts:
            base = kernel(z, lam)
            if is_overflow(base) or any(0.0 < abs(p) < normal
                                        for p in (base.real, base.imag)):
                continue
            assert s * kernel(s * z, lams[0]) == base, (z, lam)
            compared += 1
    assert compared > 1000


@settings(max_examples=300, deadline=None)
@given(r=st.floats(1e-3, 30.0),
       theta=st.floats(-0.25 * math.pi + 0.1, 1.25 * math.pi - 0.1),
       log_lam=st.floats(-6.0, 1.0), log_s=st.floats(-4.0, 4.0))
def test_scaling_law_for_any_s(r, theta, log_lam, log_s):
    # x -> x/s in the defining integral: s J(s z, s^2 lambda) = J(z, lambda),
    # here for real s > 0 that round, inside J's domain 0.1 rad from its rays
    z, lam, s = cmath.rect(r, theta), 10.0 ** log_lam, 10.0 ** log_s
    base = j_kernel(z, lam)
    scaled = s * j_kernel(s * z, s * s * lam)
    assert not is_overflow(base)
    assert abs(scaled - base) <= 1e-12 * abs(base)


# -- limit classification ------------------------------------------------------

def test_limit_examples():
    res = kernel_limit(1.0)
    assert res.status == "converged"
    assert res.value == 1j
    assert kernel_limit(-1j).status == "diverged"


def test_limit_rejects_origin():
    with pytest.raises(SingularInputError):
        kernel_limit(0.0)


def test_limit_on_boundary_ray_is_undecided():
    # exactly on the wedge boundary the scaled error function oscillates
    # (neither stabilizing at i/z nor blowing past the threshold), and the
    # classifier must refuse to guess
    res = kernel_limit(1.0 - 1.0j)
    assert res.status == "undecided"


def test_shallow_schedule_leaves_more_undecided():
    # with the ladder cut at lambda = 1e-2 even z = i cannot be certified
    shallow = RegularizationSchedule(
        lambdas=tuple(10.0 ** (-0.5 * n) for n in range(5)))
    assert kernel_limit(1j, shallow).status == "undecided"
    assert kernel_limit(1j).status == "converged"


def test_limit_wedge_boundary_bracketing():
    inside_wedge = cmath.exp(1j * (1.25 * math.pi + 0.05))
    outside_wedge = cmath.exp(1j * (1.25 * math.pi - 0.05))
    assert kernel_limit(inside_wedge).status == "diverged"
    res = kernel_limit(outside_wedge)
    assert res.status == "converged"
    assert abs(res.value - 1j / outside_wedge) < 1e-12


def test_limit_trace_shows_empirical_convergence():
    res = kernel_limit(2.0 + 1.0j)
    lam_last, j_last = res.lambda_trace[-1]
    assert lam_last == res.lambda_trace[-1][0] == min(
        l for l, _ in res.lambda_trace)
    assert abs(j_last - res.value) <= 1e-4 * abs(res.value)


def test_limit_diverged_trace_grows():
    res = kernel_limit(-0.5j)
    assert res.status == "diverged"
    mags = [abs(v) for _, v in res.lambda_trace if not is_overflow(v)]
    assert all(m1 > m0 for m0, m1 in zip(mags[:-1], mags[1:]))


def test_mirror_examples():
    res = kernel_limit_mirror(1.0)
    assert res.status == "converged"
    assert res.value == -1j
    res = kernel_limit_mirror(-1j)
    assert res.status == "converged"
    assert abs(res.value - 1.0) < 1e-12   # -i/(-i) = 1
    assert kernel_limit_mirror(2j).status == "diverged"  # upper wedge
    assert kernel_limit_mirror(1j * cmath.exp(0.1j)).status == "diverged"


def test_wedge_point_symmetry():
    rng = random.Random(90210)
    for _ in range(200):
        z = cmath.rect(10.0 ** rng.uniform(-0.5, 0.5),
                       rng.uniform(-math.pi, math.pi))
        assert ((kernel_limit(z).status == "diverged")
                == (kernel_limit_mirror(-z).status == "diverged"))


def test_mirror_is_limit_at_reflected_point():
    rng = random.Random(4242)
    pts = [cmath.rect(10.0 ** rng.uniform(-0.5, 0.5),
                      rng.uniform(-math.pi, math.pi)) for _ in range(50)]
    pts.append(cmath.rect(1.0, 0.25 * math.pi))   # undecided boundary ray
    statuses = set()
    for z in pts:
        mirror, direct = kernel_limit_mirror(z), kernel_limit(-z)
        assert mirror.status == direct.status
        assert mirror.value == direct.value
        assert mirror.lambda_trace == direct.lambda_trace
        statuses.add(mirror.status)
    assert statuses == {"converged", "diverged", "undecided"}


def test_upper_half_plane_exactness():
    rng = random.Random(1999)
    n = 0
    while n < 60:
        z = complex(rng.uniform(-5, 5), rng.uniform(0.5, 5))
        if abs(z) > 5.0:
            continue
        n += 1
        res = kernel_limit(z)
        assert res.status == "converged"
        assert abs(res.value - 1j / z) <= 1e-6 * abs(1j / z)


# -- full-line kernel -----------------------------------------------------------

def test_full_line_kernel_is_sum_of_halves():
    rng = random.Random(31337)
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = 10.0 ** rng.uniform(-2, 0)
        lhs = full_line_kernel(z, lam)
        rhs = j_kernel(z, lam) + j_kernel(-z, lam)
        if is_overflow(lhs) or is_overflow(rhs):
            continue
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_full_line_limit_trichotomy():
    assert full_line_limit(1.0).status == "converged"
    assert abs(full_line_limit(1.0).value) == 0.0
    assert full_line_limit(1j).status == "diverged"    # upper wedge
    assert full_line_limit(-1j).status == "diverged"   # lower wedge
    # on the wedge boundary |K| = sqrt(pi/lambda) grows below the threshold
    assert full_line_limit(cmath.rect(1.0, math.pi / 4)).status == "undecided"


# -- last-step decider ------------------------------------------------------------

def _schedule(steps):
    return RegularizationSchedule(
        lambdas=tuple(10.0 ** (-0.5 * n) for n in range(steps)))


# 30 steps from 1e-3 down to 10^-17.5: c sqrt(pi/lambda) reaches the
# divergence threshold 1e6 at step 19 for c = 1/2, 18 for c = 1 and 17 for
# c = 3/2
_DEEP = RegularizationSchedule(
    lambdas=tuple(1e-3 * 10.0 ** (-0.5 * n) for n in range(30)))

# (schedule, statuses the sample reaches on it).  The 5-step schedule stops
# at lambda = 1e-2; the 40-step one reaches 10^-19.5, and _DEEP 10^-17.5,
# where c sqrt(pi/lambda) exceeds the divergence threshold, so the ladder
# must run and the boundary rays diverge
_ALL = {"converged", "diverged", "undecided"}
_DECIDE_SCHEDULES = ((None, _ALL), (_schedule(5), _ALL),
                     (_schedule(40), {"converged", "diverged"}),
                     (_DEEP, {"converged", "diverged"}))
_WEDGE_RAYS = (-0.75 * math.pi, -0.25 * math.pi, 0.25 * math.pi, 0.75 * math.pi)
_LIMITS = (("plus", kernel_limit), ("minus", kernel_limit_mirror),
           ("full_line", full_line_limit))


def _decide_points():
    rng = random.Random(77)
    pts = [cmath.rect(10.0 ** rng.uniform(-1.0, 0.5),
                      rng.uniform(-math.pi, math.pi)) for _ in range(60)]
    for ray in _WEDGE_RAYS:
        for offset in (-1e-6, 0.0, 1e-6):
            for r in (0.3, 1.0, 2.5):
                pts.append(cmath.rect(r, ray + offset))
    return pts


@pytest.mark.parametrize("schedule, reached", _DECIDE_SCHEDULES)
def test_decide_matches_the_full_ladders(schedule, reached):
    statuses = set()
    for z in _decide_points():
        for kind, limit_of in _LIMITS:
            res = limit_of(z, schedule)
            status, value = _decide(kind, z, schedule)
            assert status == res.status, (kind, z)
            assert value == res.value, (kind, z)
            statuses.add(status)
    assert statuses == reached


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(kernels, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(kernels, name, counting)
    return calls


def test_decide_certifies_converged_points_without_the_kernel(monkeypatch):
    erfcx_calls = []
    erfcx = _erfcx_py.erfcx_complex
    monkeypatch.setattr(_erfcx_py, "erfcx_complex",
                        lambda w: erfcx_calls.append(w) or erfcx(w))
    j_calls = _count_calls(monkeypatch, "j_kernel")
    k_calls = _count_calls(monkeypatch, "_full_line")
    ladders = _count_calls(monkeypatch, "_ladder")
    # beyond the certificate radii: upper half plane, below the axis
    # outside the wedge, and the full line off the rays
    assert _decide("plus", 1.0 + 1.0j) == ("converged", 1j / (1.0 + 1.0j))
    assert _decide("plus", 2.0 - 1.0j) == ("converged", 1j / (2.0 - 1.0j))
    assert _decide("minus", 2.0 + 1.0j) == ("converged", 1j / (-2.0 - 1.0j))
    assert _decide("full_line", 1.0) == ("converged", 0j)
    assert _decide("full_line", -0.5 + 0.3j) == ("converged", 0j)
    assert erfcx_calls == j_calls == k_calls == []
    # a boundary ray, and points inside the radii (|z|^2 < 4 C lambda_min /
    # tol = 0.058 for J): evaluated once, at the last step
    assert _decide("full_line", cmath.rect(1.0, math.pi / 4))[0] == "undecided"
    assert _decide("plus", 0.2j)[0] == "converged"
    assert _decide("plus", 0.1j)[0] == "undecided"
    assert _decide("plus", 0.2 - 0.05j)[0] == "converged"
    lam_min = RegularizationSchedule.default().lambdas[-1]
    assert [lam for _z, lam in j_calls] == [lam_min] * 3
    assert [lam for _z, lam in k_calls] == [lam_min]
    assert len(erfcx_calls) == 3 and ladders == []


def test_decide_skips_the_steps_that_cannot_diverge(monkeypatch):
    # on _DEEP the walk starts two steps before the first step whose bound
    # c sqrt(pi/lambda) reaches the threshold, and decides as the ladder
    j_calls = _count_calls(monkeypatch, "j_kernel")
    k_calls = _count_calls(monkeypatch, "_full_line")
    for kind, z, first, calls in (("plus", 1.0j, 19, j_calls),
                                  ("plus", 2.0 - 1.0j, 17, j_calls),
                                  ("minus", -1.0j, 19, j_calls),
                                  ("full_line", 1.0 + 0.5j, 18, k_calls)):
        res = dict(_LIMITS)[kind](z, _DEEP)
        calls.clear()
        assert _decide(kind, z, _DEEP) == (res.status, res.value), (kind, z)
        assert [lam for _z, lam in calls] == list(_DEEP.lambdas[first - 2:])


def _in_a_wedge(kind, z):
    """True when z lies in the open wedge of kind's kernel, as computed."""
    if kind == "minus":
        z = -z
    return abs(z.real) < abs(z.imag) and (kind == "full_line" or z.imag < 0.0)


def _diagonal_points(n):
    """The points on both diagonals of the n x n grid over [-2, 2]^2 with
    the CLI's axes: the axis values at k and n - 1 - k are not exact
    negatives, so some of these points lie a few ulps inside a wedge."""
    ax = _axis(-2.0, 2.0, n)
    return sorted({complex(ax[i], ax[j]) for i in range(n) for j in (i, n - 1 - i)},
                  key=lambda z: (z.imag, z.real))


@pytest.mark.parametrize("kind, limit_of", _LIMITS, ids=[k for k, _ in _LIMITS])
def test_decide_takes_the_edge_band_in_one_step(monkeypatch, kind, limit_of):
    # the in-wedge diagonal points of the README's 81 x 81 grid and of the
    # 201 x 201 full-line grid lie in the edge band: one kernel evaluation
    # at lambda_min decides each as its ladder does, and none walks
    points = [z for n in (81, 201) for z in _diagonal_points(n) if _in_a_wedge(kind, z)]
    assert len(points) == {"plus": 4, "minus": 27 + 39, "full_line": 27 + 43}[kind]
    refs = [limit_of(z) for z in points]
    calls = _count_calls(monkeypatch, "_full_line" if kind == "full_line" else "j_kernel")
    ladders = _count_calls(monkeypatch, "_ladder")
    lam_min = RegularizationSchedule.default().lambdas[-1]
    for z, res in zip(points, refs):
        calls.clear()
        assert _decide(kind, z) == (res.status, res.value), z
        assert [lam for _z, lam in calls] == [lam_min], z
    assert ladders == []


def _band_point(a, r):
    """(x, y), 0 < x < y, with x^2 + y^2 about r^2 and the exact
    (y^2 - x^2)/4 as close to a as the last bit of y allows."""
    x = math.sqrt(0.5 * r * r - 2.0 * a)
    y = math.sqrt(x * x + 4.0 * a)
    near = [y, math.nextafter(y, 0.0), math.nextafter(y, math.inf)]
    return x, min(near, key=lambda y: abs((Fraction(y) ** 2 - Fraction(x) ** 2) / 4
                                          - Fraction(a)))


# (schedule, the step a band point's walk starts at, None where the last
# step alone decides): two steps before the first lambda with 5/2
# sqrt(pi/lambda) >= 1e6, lambda <= 1.96e-11, which for K's c = 2 is the
# same step
@pytest.mark.parametrize("schedule, late", [(None, None), (_schedule(5), None),
                                            (_schedule(40), 20), (_DEEP, 14)],
                         ids=["default", "5-steps", "40-steps", "30-steps-from-1e-3"])
def test_decide_at_the_edge_of_the_band_matches_the_ladders(monkeypatch, schedule, late):
    # points at a = -Re(z^2)/4 = a_one (1 -+ 1e-9), a_one = lambda_min ln 2,
    # next to each wedge ray.  Next to a ray, a moves in steps of about
    # u |z|^2 / 2 from one double y to the next (u = 2^-53), so below the
    # default's lambda_min = 1e-6 the radii shrink by sqrt(lambda_min /
    # 1e-6) to keep those steps under 1e-10 a_one
    lams = (schedule or RegularizationSchedule.default()).lambdas
    a_one = lams[-1] * math.log(2.0)
    scale = min(1.0, math.sqrt(lams[-1] / 1e-6))
    cases = []
    for f in (1.0 - 1e-9, 1.0 + 1e-9):
        for r in (0.3, 1.0, 2.5):
            x, y = _band_point(a_one * f, r * scale)
            a = float((Fraction(y) ** 2 - Fraction(x) ** 2) / 4)
            assert abs(a / (a_one * f) - 1.0) < 2e-10, (r, f)
            for z in (complex(x, y), complex(-x, y), complex(x, -y), complex(-x, -y)):
                for kind, limit_of in _LIMITS:
                    cases.append((kind, z, f < 1.0, limit_of(z, schedule)))
    kernel_calls = {"plus": _count_calls(monkeypatch, "j_kernel"),
                    "full_line": _count_calls(monkeypatch, "_full_line")}
    kernel_calls["minus"] = kernel_calls["plus"]
    ladders = _count_calls(monkeypatch, "_ladder")
    evaluated = {True: 0, False: 0}
    for kind, z, in_band, res in cases:
        calls = kernel_calls[kind]
        calls.clear()
        ladders.clear()
        assert _decide(kind, z, schedule) == (res.status, res.value), (kind, z)
        if not _in_a_wedge(kind, z):
            continue
        steps = [lam for _z, lam in calls]
        # a wedge point the wedge test certifies evaluates no kernel; the
        # others walk from step 0 beyond the band, and in it take the last
        # step alone, or start late on a schedule too deep for that
        # (a walk ends at the step that diverges)
        if steps:
            evaluated[in_band] += 1
            if not in_band:
                assert steps == list(lams[:len(steps)]) and ladders, (kind, z)
            elif late is None:
                assert steps == [lams[-1]] and ladders == [], (kind, z)
            else:
                assert steps == list(lams[late:late + len(steps)]), (kind, z)
    assert evaluated[True] and evaluated[False]
    if late is None:
        assert evaluated == {True: 24, False: 24}


@pytest.mark.parametrize("schedule", [_DEEP, _schedule(40), None],
                         ids=["30-steps-from-1e-3", "40-steps", "default"])
def test_decide_matches_the_full_ladders_next_to_the_rays_at_huge_z(schedule):
    # at |z| > 1.3e154, |z|^2 overflows, and the kernel's exponent error can
    # lift a step whose bound is below the threshold to overflow: the walk
    # may skip no such step (a late start missed it, e.g. at
    # 7.079221983598495e+154 - 7.079221983598494e+154j on _DEEP)
    rng = random.Random(18)
    mismatches = []
    for _ in range(4000):
        a = 10.0 ** rng.uniform(153.0, 158.0)
        b = a * (1.0 + rng.randint(-4, 4) * 2.0 ** -52)
        z = complex(rng.choice((-a, a)), rng.choice((-b, b)))
        kind, limit_of = rng.choice(_LIMITS)
        res = limit_of(z, schedule)
        if _decide(kind, z, schedule) != (res.status, res.value):
            mismatches.append((kind, z))
    assert mismatches == []


def _certificate_radii(schedule, angle):
    """|z| at which each convergence certificate of a one-step schedule
    switches on along the ray at ``angle``: J above the axis, K, and J
    below it (None where that certificate does not apply)."""
    lam, tol = schedule.lambdas[-1], schedule.convergence_tol
    tol_j = tol * (1.0 - 1e-6) - kernels._J_ROUNDING
    root = math.sqrt(math.pi / lam)
    r_j = math.sqrt(4.0 * kernels._ERFCX_TAIL * lam / tol_j)
    c2 = math.cos(2.0 * angle)
    if c2 <= 0.0:
        return r_j, None, None
    r_k = math.sqrt(max(4.0 * lam * math.log(root / tol) / c2, 0.0))
    # |z| root exp(-|z|^2 c2 / (4 lambda)) = tol_j, by fixed-point iteration
    r = max(r_k, r_j)
    for _ in range(40):
        r = math.sqrt(4.0 * lam * math.log(max(r * root / tol_j, 1.0)) / c2)
    return r_j, r_k, max(r, r_j)


_CERT_SCHEDULES = {
    "default": RegularizationSchedule.default(),
    "tol_1e-9": RegularizationSchedule(lambdas=_schedule(13).lambdas,
                                       divergence_threshold=1e12,
                                       convergence_tol=1e-9),
    "tol_0.5": RegularizationSchedule(lambdas=(1.0, 10 ** -0.5, 0.1),
                                      divergence_threshold=10.0,
                                      convergence_tol=0.5),
    "lambda_1e-15": RegularizationSchedule(lambdas=(1e-13, 1e-14, 1e-15),
                                           divergence_threshold=1e9),
    "lambda_1e-300": RegularizationSchedule(lambdas=(1e-298, 1e-299, 1e-300),
                                            divergence_threshold=1e160),
}


def _certificate_points(schedule):
    """Seeded points at 0.9-1.1 times each certificate radius, on and next
    to the boundary rays and the real axis, and far out to |z| = 1e300."""
    rng = random.Random(4321)
    pts = []
    for _ in range(40):
        angle = rng.uniform(-math.pi, math.pi)
        for r in _certificate_radii(schedule, angle):
            if r:
                pts += [cmath.rect(r * rng.uniform(0.9, 1.1), angle),
                        cmath.rect(r * rng.uniform(0.999, 1.001), angle)]
    r_j = _certificate_radii(schedule, 0.0)[0]
    for ray in _WEDGE_RAYS:
        for offset in (-1e-6, 0.0, 1e-6):
            for f in (0.5, 0.95, 1.05, 3.0):
                pts.append(cmath.rect(f * r_j, ray + offset))
    pts += [complex(s * r_j, 0.0) for s in (-1.05, -0.95, 0.95, 1.05)]
    pts += [cmath.rect(r, rng.uniform(-math.pi, math.pi))
            for r in (1e10, 1e50, 1e100, 1e150) for _ in range(4)]
    # where the rounding of w puts a point onto a ray and the phase of
    # exp(w^2) overflows, the computed kernel leaves its bound
    pts += [cmath.rect(r, ray) for r in (1e155, 1e200, 1e300) for ray in _WEDGE_RAYS]
    return pts


@pytest.mark.parametrize("name", list(_CERT_SCHEDULES))
def test_decide_certificates_match_the_ladders(name):
    schedule = _CERT_SCHEDULES[name]
    statuses = set()
    for z in _certificate_points(schedule):
        for kind, limit_of in _LIMITS:
            res = limit_of(z, schedule)
            assert _decide(kind, z, schedule) == (res.status, res.value), (kind, z)
            statuses.add(res.status)
    assert {"converged", "diverged"} <= statuses


def test_erfcx_tail_bound_against_mpmath():
    # |sqrt(pi) w erfcx(w) - 1| |w|^2 <= 1 + 2 e^{-3/2} for Re w >= 0, the
    # bound behind the J certificates; the imaginary axis is included
    import mpmath as mp
    assert 1.0 + 2.0 * math.exp(-1.5) <= kernels._ERFCX_TAIL
    rng = random.Random(8128)
    angles = [rng.uniform(-0.5, 0.5) * math.pi for _ in range(150)]
    angles += [-0.5 * math.pi, 0.5 * math.pi] * 25
    worst = 0.0
    with mp.workdps(30):
        for angle in angles:
            w = mp.mpc(cmath.rect(10.0 ** rng.uniform(-1.5, 2.0), angle))
            dev = abs(mp.sqrt(mp.pi) * w * mp.exp(w * w) * mp.erfc(w) - 1)
            worst = max(worst, float(dev * abs(w) ** 2))
    assert 0.5 < worst <= 1.0 + 2.0 * math.exp(-1.5)


def test_full_line_kernel_beyond_the_double_range():
    # z*z overflows; Re(z^2) > 0, so K underflows to 0 at every lambda
    z = 1e155 + 1e154j
    assert full_line_kernel(z, 1.0) == 0j
    res = full_line_limit(z)
    assert (res.status, res.value) == ("converged", 0j)
    assert _decide("full_line", z) == ("converged", 0j)
    # the phase -Im(z^2)/(4 lambda) overflows next to the ray at -pi/4
    z = 7.071067811865476e149 - 7.071067811865475e149j
    assert _full_line(z, 1e-3 * 10.0 ** -6) == 0j
    assert full_line_limit(z, _DEEP).status == "converged"
    # inside the wedge the tag stays
    assert full_line_kernel(1e154 + 1e155j, 1.0) == OVERFLOW
    assert _full_line(1e155 + 1e155j, 1.0) == OVERFLOW   # phase lost on the ray


def test_full_line_kernel_at_a_subnormal_lambda():
    # sqrt(pi/lambda) overflows at lambda = 5e-324; the modulus is taken in
    # log space there: K -> 0 for z = 1, and K = sqrt(pi/lambda) where
    # |z|^2 underflows
    assert full_line_kernel(1.0, 5e-324) == 0j
    k = full_line_kernel(1e-170, 5e-324)
    assert abs(k - SQRT_PI / math.sqrt(5e-324)) <= 1e-12 * abs(k)
    assert full_line_kernel(1.0j, 5e-324) == OVERFLOW
    schedule = RegularizationSchedule(lambdas=(1e-300, 1e-310, 5e-324))
    res = full_line_limit(1.0, schedule)
    assert (res.status, res.value) == ("converged", 0j)
    assert _decide("full_line", 1.0, schedule) == ("converged", 0j)


def test_j_kernel_with_w_beyond_the_double_range():
    # w = -iz/(2 sqrt(lambda)) overflows; J = (i/z)(1 + O(lambda/|z|^2))
    one_step = RegularizationSchedule(lambdas=(1e-300,))
    for z, status in ((1e200j, "converged"), (1e200 + 1e200j, "converged"),
                      (1e200 - 1e199j, "converged"), (-1e200j, "diverged")):
        res = kernel_limit(z, one_step)
        assert res.status == status, z
        assert _decide("plus", z, one_step) == (res.status, res.value)
    assert j_kernel(1e200j, 1e-300) == 1j / 1e200j
    assert kernel_limit(1e200j, one_step).value == 1j / 1e200j


def test_ladder_reports_a_modulus_beyond_the_double_range_as_diverged():
    # K(z, 1e-4) has finite parts, 1.54e308 each, but abs() overflows
    z = 0.0002958399812237108 - 0.5309614746111948j
    v = _full_line(z, 1e-4)
    assert math.isfinite(v.real) and math.isfinite(v.imag)
    assert math.hypot(v.real, v.imag) == math.inf
    for steps in (1, 3):
        schedule = RegularizationSchedule(
            lambdas=tuple(1e-4 * 10.0 ** (0.5 * n) for n in range(steps))[::-1])
        res = full_line_limit(z, schedule)
        assert (res.status, res.value) == ("diverged", OVERFLOW)
        assert _decide("full_line", z, schedule) == (res.status, res.value)


# schedules for the wedge certificate: one and two steps (too short to
# certify), the default, 5 and 40 steps, and a slowly decreasing one whose
# consecutive magnitudes differ by about 5e-4
_CERTIFY_SCHEDULES = (
    None, _schedule(1), _schedule(2), _schedule(5), _schedule(40),
    RegularizationSchedule(lambdas=tuple(1.0 - 0.001 * k for k in range(100))))


def _wedge_points():
    """Seeded points inside the wedges of every kernel, points 1e-6 rad
    either side of each boundary ray, and tiny and huge |z|."""
    rng = random.Random(1234)
    pts = []
    for centre in (-0.5 * math.pi, 0.5 * math.pi):
        pts += [cmath.rect(10.0 ** rng.uniform(-1.0, 1.2),
                           centre + rng.uniform(-0.24, 0.24) * math.pi)
                for _ in range(12)]
    for ray in _WEDGE_RAYS:
        for offset in (-1e-6, 1e-6):
            for r in (0.3, 1.0, 3.0, 12.0):
                pts.append(cmath.rect(r, ray + offset))
    for r in (1e-150, 1e150):
        for angle in (-0.5 * math.pi, 0.5 * math.pi, -0.3 * math.pi, 0.6 * math.pi):
            pts.append(cmath.rect(r, angle))
    return pts


@pytest.mark.parametrize("schedule", _CERTIFY_SCHEDULES,
                         ids=["default", "1", "2", "5", "40", "slow"])
def test_decide_wedge_certificate_matches_the_ladders(schedule):
    for z in _wedge_points():
        for kind, limit_of in _LIMITS:
            res = limit_of(z, schedule)
            assert _decide(kind, z, schedule) == (res.status, res.value), (kind, z)


# schedules for the wedge threshold table: 2 and 3 steps, the default, 5,
# 30 (_DEEP) and 40 steps, a loose and a tight tolerance, lambdas near the
# bottom of the double range, and an irregular one whose near-equal pair
# 0.01, 0.00999999999 puts A_3 and A_4 far above A_2 and A_5
_TABLE_SCHEDULES = {
    "2": _schedule(2), "3": _schedule(3), "default": RegularizationSchedule.default(),
    "5": _schedule(5), "30": _DEEP, "40": _schedule(40),
    "tol_0.5": _CERT_SCHEDULES["tol_0.5"], "tol_1e-9": _CERT_SCHEDULES["tol_1e-9"],
    "lambda_1e-300": _CERT_SCHEDULES["lambda_1e-300"],
    "irregular": RegularizationSchedule(
        lambdas=(1.0, 0.1, 0.01, 0.00999999999, 1e-3, 1e-4)),
}


def _table_points(schedule):
    """Points of both wedges at a = -Re(z^2)/4 = A_k (1 -+ 1e-9) for every
    step k of both tables, and at |z|^2/4 = (1 -+ 1e-9) times each step's
    certification cap."""
    pts = []
    caps = [kernels._CERTIFY_MAX_W2 * lam for lam in schedule.lambdas[2:]]
    for c in (0.0, 0.5):
        for a_k in kernels._wedge_thresholds(schedule, c):
            if a_k == math.inf:
                continue
            for f in (1.0 - 1e-9, 1.0 + 1e-9):
                for angle in (-0.5, -0.3, -0.74):
                    r = math.sqrt(-4.0 * a_k * f / math.cos(2.0 * math.pi * angle))
                    pts.append(cmath.rect(r, math.pi * angle))
    for cap in caps:
        for f in (1.0 - 1e-9, 1.0 + 1e-9):
            for angle in (-0.5, -0.3):
                pts.append(cmath.rect(2.0 * math.sqrt(cap * f), math.pi * angle))
    return pts + [-z for z in pts]


def test_wedge_thresholds_pass_the_step_test():
    # each stored A_k passes the step test as computed, the float below it
    # does not, and one- and two-step schedules have no table
    for schedule in _TABLE_SCHEDULES.values():
        lams = schedule.lambdas
        log_threshold = math.log(schedule.divergence_threshold)
        for c in (0.0, 0.5):
            table = kernels._wedge_thresholds(schedule, c)
            assert len(table) == max(len(lams) - 2, 0)
            for k, a_k in enumerate(table, start=2):
                if a_k == math.inf:
                    continue
                assert kernels._wedge_step_fires(a_k, lams, k, c, log_threshold)
                if a_k > sys.float_info.min:
                    below = math.nextafter(a_k, 0.0)
                    assert not kernels._wedge_step_fires(below, lams, k, c,
                                                         log_threshold)
    assert any(a_k < math.inf
               for a_k in kernels._wedge_thresholds(RegularizationSchedule.default(), 0.5))
    for steps in (1, 2):
        for c in (0.0, 0.5):
            assert kernels._wedge_thresholds(_schedule(steps), c) == ()


@pytest.mark.parametrize("name", list(_TABLE_SCHEDULES))
def test_decide_at_the_wedge_thresholds_matches_the_ladders(name):
    schedule = _TABLE_SCHEDULES[name]
    # per table, the pairings of a = A_j (1 -+ 1e-9) with |z|^2/4 =
    # (1 -+ 1e-9) cap_k; some lie next to the rays, where the wedge test
    # refuses points that the computed a would certify
    caps = [kernels._CERTIFY_MAX_W2 * lam for lam in schedule.lambdas[2:]]
    pairings = {}
    for c in (0.0, 0.5):
        table = kernels._wedge_thresholds(schedule, c)
        pairings[c] = [
            cmath.rect(2.0 * math.sqrt(w2), -0.5 * (math.pi - math.acos(a / w2)))
            for a in (a_k * f for a_k in table if a_k < math.inf
                      for f in (1.0 - 1e-9, 1.0 + 1e-9))
            for w2 in (cap * f for cap in caps for f in (1.0 - 1e-9, 1.0 + 1e-9))
            if a <= w2]
    cases = [(kind, limit_of, z) for z in _table_points(schedule) + _wedge_points()
             for kind, limit_of in _LIMITS]
    # each table's pairings in the wedge of the kernels it serves
    cases += [(kind, limit_of, sign * z) for kind, limit_of, sign, c in (
        ("plus", kernel_limit, 1.0, 0.5), ("minus", kernel_limit_mirror, -1.0, 0.5),
        ("full_line", full_line_limit, 1.0, 0.0)) for z in pairings[c]]
    for kind, limit_of, z in cases:
        res = limit_of(z, schedule)
        assert _decide(kind, z, schedule) == (res.status, res.value), (kind, z)
    # the wedge test against walks over the table, certified at the first
    # k with a >= A_k when |z|^2/4 is within that step's cap: the walk at
    # the computed lower bound a_lo exactly, and never a point that the
    # walk at the computed a = (y - x)(y + x)/4 refuses
    for c in (0.0, 0.5):
        table = kernels._wedge_thresholds(schedule, c)
        diverges = kernels._wedge_certificate(schedule, c)

        def walk(a, x, y):
            return a >= sys.float_info.min and next(
                (0.25 * (x * x + y * y) <= cap
                 for a_k, cap in zip(table, caps) if a >= a_k), False)
        outcomes = set()
        for z in _table_points(schedule) + pairings[c]:
            x, y = z.real, z.imag
            yy = y * y
            got = diverges(x, y)
            assert got == walk(0.25 * ((yy - x * x) - kernels._ROW_MARGIN * yy),
                               x, y), (c, z)
            want = walk(0.25 * (y - x) * (y + x), x, y)
            assert want or not got, (c, z)
            outcomes.add(want)
        assert outcomes == ({True, False} if table else set())


def test_decide_certifies_wedge_points_without_erfcx(monkeypatch):
    erfcx_calls = []
    erfcx = _erfcx_py.erfcx_complex
    monkeypatch.setattr(_erfcx_py, "erfcx_complex",
                        lambda w: erfcx_calls.append(w) or erfcx(w))
    k_calls = _count_calls(monkeypatch, "_full_line")
    ladders = _count_calls(monkeypatch, "_ladder")
    rng = random.Random(99)
    deep = [cmath.rect(rng.uniform(0.3, 3.0),
                       -0.5 * math.pi + rng.uniform(-0.2, 0.2) * math.pi)
            for _ in range(20)]
    for z in deep:
        assert _decide("plus", z) == ("diverged", OVERFLOW)
        assert _decide("minus", -z) == ("diverged", OVERFLOW)
        assert _decide("full_line", z) == ("diverged", OVERFLOW)
        assert _decide("full_line", -z) == ("diverged", OVERFLOW)
    assert erfcx_calls == [] and k_calls == [] and ladders == []
    # a bounded point on a schedule too deep for the bound runs the ladder
    assert _decide("plus", 1.0j, _schedule(40))[0] == "converged"
    assert len(ladders) == 1 and len(ladders[0][3].lambdas) == 40
    # the counter sees the reference ladder's erfcx calls
    erfcx_calls.clear()
    assert kernel_limit(deep[0]).status == "diverged"
    assert erfcx_calls


@st.composite
def _rows(draw):
    """(kind, schedule, y, xs): a schedule of 1-40 steps with a random
    start, ratio, tol and threshold, and a row at |y| from 1e-8 to 1e160
    whose ascending xs lie within a few ulps of -y and y and spread across
    the row."""
    steps = draw(st.integers(1, 40))
    start = 10.0 ** draw(st.floats(-6.0, 2.0))
    ratio = draw(st.floats(0.1, 0.999))
    tol = 10.0 ** draw(st.floats(-10.0, -0.3))
    schedule = RegularizationSchedule(
        lambdas=tuple(start * ratio ** n for n in range(steps)),
        divergence_threshold=10.0 ** draw(st.floats(0.01, 8.0)) / tol,
        convergence_tol=tol)
    # half of the rows at y^2 from 0.01 to 1e9 times the first lambda,
    # where the wedge thresholds and the caps, |z|^2/4 <= 1e8 lambda_k,
    # both come into play
    y = draw(st.sampled_from((-1.0, 1.0))) * draw(st.one_of(
        st.floats(-1.0, 4.5).map(lambda e: math.sqrt(start) * 10.0 ** e),
        st.floats(-8.0, 160.0).map(lambda e: 10.0 ** e)))
    xs = set()
    for sign, ulps in draw(st.lists(st.tuples(st.sampled_from((-1.0, 1.0)),
                                              st.integers(-4, 4)), max_size=12)):
        x = abs(y)
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
        xs.add(sign * x)
    xs.update(abs(y) * f for f in draw(st.lists(st.floats(-3.0, 3.0),
                                                min_size=1, max_size=16)))
    return draw(st.sampled_from(("plus", "minus", "full_line"))), schedule, y, sorted(xs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row=_rows())
def test_decide_row_matches_decide(row):
    # the runs of a row give each point the (status, value) of its
    # one-point row
    kind, schedule, y, xs = row
    decide_row = kernels._decider(kind, schedule)

    def points(xs):
        got, start = [], 0
        for stop, status, value in decide_row(y, xs):
            assert stop > start
            if type(value) is not list:
                value = [value] * (stop - start)
            got += [(status, v) for v in value]
            start = stop
        assert start == len(xs)
        return got
    assert points(xs) == [point for x in xs for point in points((x,))]


def test_kernel_bounds_outside_the_wedges():
    # |J| <= c sqrt(pi/lambda), c = 1/2 for Im z >= 0 and 3/2 below the
    # axis with Re(z^2) >= 0; |K| <= sqrt(pi/lambda) for Re(z^2) >= 0.
    # Angles include the closed boundary rays; 1e-12 covers rounding.
    rng = random.Random(2718)
    lambdas = RegularizationSchedule.default().lambdas
    angles = [rng.uniform(-0.25 * math.pi, 1.25 * math.pi) for _ in range(80)]
    angles += [-0.25 * math.pi, 0.0, 0.5 * math.pi, 1.25 * math.pi]
    for theta in angles:
        z = cmath.rect(10.0 ** rng.uniform(-2.0, 2.0), theta)
        c = 0.5 if z.imag >= 0.0 else 1.5
        full_line_side = abs(z.real) >= abs(z.imag)
        for lam in lambdas:
            scale = math.sqrt(math.pi / lam) * (1.0 + 1e-12)
            assert abs(j_kernel(z, lam)) <= c * scale, (z, lam)
            if full_line_side:
                assert abs(_full_line(z, lam)) <= scale, (z, lam)


def test_concurrent_evaluation_is_consistent():
    # pure functions with no shared state: a threaded sweep must reproduce
    # the sequential classification bit for bit
    from concurrent.futures import ThreadPoolExecutor
    pts = [complex(-2 + 0.37 * k, -2 + 0.59 * (k % 7)) for k in range(64)]
    pts = [z for z in pts if abs(z) > 1e-6]
    sequential = [(kernel_limit(z).status, kernel_limit(z).value) for z in pts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(
            lambda z: (kernel_limit(z).status, kernel_limit(z).value), pts))
    assert sequential == threaded


@pytest.mark.parametrize("flip", [{"diverged": "converged"},
                                  {"converged": "undecided"}],
                         ids=["diverged-as-converged", "converged-as-undecided"])
def test_wedge_point_symmetry_check_can_fail(monkeypatch, flip):
    from plemelj import verify
    limit = kernels.kernel_limit

    def flipped(z, schedule=None):
        res = limit(z, schedule)
        return kernels.KernelResult(res.value, flip.get(res.status, res.status),
                                    res.lambda_trace)

    monkeypatch.setattr(kernels, "kernel_limit", flipped)
    check = {c.name: c for c in verify.suite_kernels()}["kernels/wedge-point-symmetry"]
    assert check.measured > 0 and not check.passed


def test_decider_matches_ladders_check_can_fail(monkeypatch):
    # a J certificate built on too small a tail constant certifies points
    # whose ladders end undecided
    from plemelj import verify
    monkeypatch.setattr(kernels, "_ERFCX_TAIL", 1e-3)
    check = {c.name: c for c in verify.suite_kernels()}["kernels/decider-matches-ladders"]
    assert check.measured > 0 and not check.passed


def test_upper_half_exactness_check_can_fail(monkeypatch):
    # a J that jumps straight to its limit i/z still converges there, but
    # misses the last ladder value's first A&S 7.1.23 correction,
    # (i/z) 2 lambda / z^2, by about 5e-6
    from plemelj import verify
    monkeypatch.setattr(kernels, "j_kernel", lambda z, lam: 1j / z)
    check = {c.name: c for c in verify.suite_kernels()}["kernels/upper-half-exactness"]
    assert check.measured > 1e-6 and not check.passed


def test_dyadic_scaling_check_can_fail(monkeypatch):
    # a J one ulp off below lambda = 0.01, where both ladders have their
    # deeper rungs, breaks the bit-exact law the check holds at tolerance 0
    from plemelj import verify
    j = kernels.j_kernel
    monkeypatch.setattr(kernels, "j_kernel", lambda z, lam: j(z, lam) * (
        1.0 + 2.0 ** -52 if lam < 0.01 else 1.0))
    check = {c.name: c for c in verify.suite_kernels()}["kernels/scaling-identity-dyadic"]
    assert check.measured > 0 and not check.passed
