"""Distribution functionals: PV, extended Plemelj formulas, delta, overlap."""
import cmath
import importlib.util
import math
import os
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plemelj.contours import (Arc, Contour, ContourError, Line,
                              segment_path, tilted_segment)
from plemelj.functionals import (_LAMBDA_LADDER, CATALOG_EXAMPLES,
                                 AdmissibilityError, DomainViolationError, FunctionalResult,
                                 OrientationError, PvDivergenceError,
                                 TestFunction, check_analytic,
                                 deformation_route, lambda_route,
                                 overlap_delta, plemelj_delta,
                                 plemelj_minus, plemelj_plus,
                                 pv_contour, catalog_function)
from plemelj.quadrature import richardson
from plemelj.tilted import TiltedLine, tilted_plemelj

# frozen series-oracle values (tests below regenerate them)
TWO_SHI_ONE = 2.1145017507514570291    # PV int_{-1}^{1} e^z/z dz = 2 Shi(1)
SQRTPI_ERF_3 = 1.7724146965190424678   # int_{-3}^{3} e^{-t^2} dt


def shi_series(x, terms=40):
    """Shi(x) = sum x^{2n+1} / ((2n+1) (2n+1)!) -- independent oracle."""
    acc = 0.0
    for n in range(terms):
        k = 2 * n + 1
        acc += x ** k / (k * math.factorial(k))
    return acc


def test_shi_oracle_matches_frozen():
    assert abs(2.0 * shi_series(1.0) - TWO_SHI_ONE) < 1e-15


# -- test-function catalog -----------------------------------------------------

def test_catalog_values_at_zero():
    assert catalog_function("one").at_zero() == 1.0
    assert abs(catalog_function("gauss(0.3)").at_zero() - math.exp(-0.09)) < 1e-15
    assert catalog_function("poly_gauss(2,0.3)").at_zero() == 0.0
    assert catalog_function("cos_gauss").at_zero() == 1.0


def test_catalog_complex_center():
    f = catalog_function("gauss(0.3+0.1j)")
    a = 0.3 + 0.1j
    assert abs(f(0.5) - cmath.exp(-(0.5 - a) ** 2)) < 1e-15


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        catalog_function("sinc(1)")


def test_declared_f0_mismatch_is_error():
    f = TestFunction(lambda z: cmath.exp(-z * z), value_at_zero=0.5)
    with pytest.raises(AdmissibilityError):
        f.at_zero()


def test_analyticity_spot_check_rejects_conjugation():
    bad = TestFunction(lambda z: z.conjugate(), value_at_zero=0.0)
    with pytest.raises(AdmissibilityError):
        check_analytic(bad, segment_path(-1.0, 1.0))


# -- principal value -------------------------------------------------------------

def test_pv_constant_vanishes():
    assert abs(pv_contour(catalog_function("one"), segment_path(-1.0, 1.0))) < 1e-10


def test_pv_linear_function():
    f = TestFunction(lambda z: z, value_at_zero=0.0)
    assert abs(pv_contour(f, segment_path(-1.0, 1.0)) - 2.0) < 1e-10


def test_pv_exponential_matches_shi_oracle():
    f = TestFunction(cmath.exp, value_at_zero=1.0)
    pv = pv_contour(f, segment_path(-1.0, 1.0))
    assert abs(pv - 2.0 * shi_series(1.0)) < 1e-9


def test_pv_asymmetric_interval():
    # PV int_{-1}^{2} dz/z = ln 2
    pv = pv_contour(catalog_function("one"), segment_path(-1.0, 2.0))
    assert abs(pv - math.log(2.0)) < 1e-9


def test_pv_divergence_for_near_pole():
    f = TestFunction(lambda z: 1.0 / (z - 1e-5), value_at_zero=-1e5)
    with pytest.raises(PvDivergenceError):
        pv_contour(f, segment_path(-1.0, 1.0))


def test_pv_requires_crossing():
    with pytest.raises(ContourError):
        pv_contour(catalog_function("one"), segment_path(-1.0 + 1j, 1.0 + 1j))


# passes through 0 on its marked first segment and again on its last, where
# the central Gauss-Kronrod node of the whole segment lands on it
_TWICE_THROUGH_ZERO = segment_path(-1.0, 2.0, 2.0 + 1j, -1.0 + 1j, -1.0, 1.0,
                                   crossing=0)

# route -> (its function, its keywords, the text of its second-passage
# error): the routes with a wedge domain find a second passage at the
# domain's apex, the others walking the path out from its crossing
_CROSSING_ROUTES = {
    "pv_contour": (pv_contour, {}, "away from its marked crossing"),
    "plemelj_plus": (plemelj_plus, {}, "away from a marked crossing"),
    "plemelj_minus": (plemelj_minus, {}, "away from a marked crossing"),
    "plemelj_delta": (plemelj_delta, {}, "away from a marked crossing"),
    "deformation_route": (deformation_route, {}, "away from its marked crossing"),
    "lambda_route": (lambda_route, {}, "away from a marked crossing"),
    "lambda_route-minus": (lambda_route, {"kernel": "minus"},
                           "away from a marked crossing"),
    "lambda_route-full_line": (lambda_route, {"kernel": "full_line"},
                               "away from a marked crossing"),
}


# a crossing at an end of the path: the PV of dz/z diverges like ln|z|
# there, and only half of a lambda kernel's mass lies on the path, so its
# ladder converges to neither 2 pi f(0) nor pi f(0)
@pytest.mark.parametrize("path, match", [
    pytest.param(segment_path(0.0, 1.0, crossing=0), "an end of the path", id="start"),
    pytest.param(segment_path(-1.0, 0.0, crossing=0), "an end of the path", id="end"),
    pytest.param(_TWICE_THROUGH_ZERO, None, id="second-passage"),
])
@pytest.mark.parametrize("route", list(_CROSSING_ROUTES))
def test_crossing_routes_admit_paths_alike(route, path, match):
    # one admission check for every route that integrates through the
    # crossing: the same defect raises the same error, named after the
    # route that was called
    call, keywords, second_passage = _CROSSING_ROUTES[route]
    with pytest.raises(ContourError, match=match or second_passage) as info:
        call(catalog_function("gauss(0.3)"), path, **keywords)
    assert str(info.value).startswith(call.__name__)


@pytest.mark.parametrize("points", [(0.0, 1.0), (-1.0, 0.0)], ids=["start", "end"])
def test_pv_refuses_a_crossing_at_an_end_of_the_path(points):
    # PV of dz/z diverges like ln|z| at an end of the path
    with pytest.raises(ContourError, match="an end of the path"):
        pv_contour(catalog_function("gauss(0.3)"), segment_path(*points, crossing=0))


# the minus and full_line kernels are routes of the shared admission test
@pytest.mark.parametrize("kernel", ["plus"])
@pytest.mark.parametrize("points", [(0.0, 2.0), (-2.0, 0.0)], ids=["start", "end"])
def test_lambda_route_refuses_a_crossing_at_an_end_of_the_path(points, kernel):
    # only half the kernel's mass lies on the path there, so the ladder
    # converges to neither 2 pi f(0) nor pi f(0)
    with pytest.raises(ContourError, match="an end of the path"):
        lambda_route(catalog_function("gauss(0.3)"),
                     segment_path(*points, crossing=0), kernel=kernel)


def test_pv_error_estimate_within_contract():
    from plemelj.functionals import _principal_value
    from plemelj.quadrature import PanelBudget
    for name in ("gauss(0.3)", "cos_gauss", "poly_gauss(2,0.3)"):
        f = catalog_function(name)
        _pv, err = _principal_value(f, segment_path(-3.0, 3.0), f.at_zero(),
                                    PanelBudget())
        assert err <= 1e-8


def test_pv_kinked_crossing_matches_mpmath():
    import mpmath as mp
    a, b = -2.0 - 0.5j, 2.0 - 0.3j
    path = Contour([Line(a, 0.0), Line(0.0, b)], crossing=1)
    with mp.workdps(30):
        c = mp.mpf("0.3")

        def fm(z):
            return mp.exp(-(z - c) ** 2)

        u_in, u_out = mp.mpc(a) / abs(a), mp.mpc(b) / abs(b)
        m = min(abs(a), abs(b))
        # symmetric excision at |z| = eps, folded over the rays at distance s
        ref = (mp.quad(lambda s: (fm(s * u_out) - fm(s * u_in)) / s, [0, m])
               + mp.quad(lambda s: fm(s * u_out) / s, [m, abs(b)])
               - mp.quad(lambda s: fm(s * u_in) / s, [m, abs(a)]))
    pv = pv_contour(catalog_function("gauss(0.3)"), path)
    assert abs(pv - complex(ref)) <= 1e-14 * abs(complex(ref))


def test_pv_arc_through_origin_matches_mpmath():
    import mpmath as mp
    # the lower half of the unit circle about i, through 0 at theta = -pi/2
    path = Contour([Arc(1j, 1.0, -math.pi, 0.0), Line(1.0 + 1j, 2.0 + 1j)],
                   crossing=0)
    with mp.workdps(30):
        c = mp.mpf("0.3")

        def fm(z):
            return mp.exp(-(z - c) ** 2)

        def h(u, s):   # f(z)/z dz/dtheta at theta = -pi/2 + s u
            # z = i + e^{i theta} = 2 s sin(u/2) e^{i s u/2}, written so
            # that it does not cancel next to the origin
            z = 2 * s * mp.sin(u / 2) * mp.expj(s * u / 2)
            return fm(z) * mp.expj(s * u) / z

        # |z| = 2 sin(u/2) on both sides: the eps-disk is symmetric in u
        ref = (mp.quad(lambda u: h(u, 1) + h(u, -1), [0, mp.pi / 2])
               + mp.quad(lambda x: fm(x + 1j) / (x + 1j), [1, 2]))
    pv = pv_contour(catalog_function("gauss(0.3)"), path)
    assert abs(pv - complex(ref)) <= 1e-14 * abs(complex(ref))


def test_pv_pole_next_to_the_path():
    # f = 1/(z - a) with a 1e-7 off the path: f/z = (1/(z - a) - 1/z)/a
    a = 1e-5 + 1e-7j
    f = TestFunction(lambda z: 1.0 / (z - a), value_at_zero=-1.0 / a)
    ref = (cmath.log(1.0 - a) - cmath.log(-1.0 - a)) / a
    pv = pv_contour(f, segment_path(-1.0, 1.0))
    assert abs(pv - ref) <= 1e-10 * abs(ref)


def test_pv_pole_too_close_to_resolve_spends_the_budget():
    # a pole 1e-15 off the path next to the crossing: the PV exists, but
    # quadrature cannot resolve the pole within the panel budget, which
    # proves nothing about the PV
    a = 1e-2 + 1e-15j
    f = TestFunction(lambda z: 1.0 / (z - a), value_at_zero=-1.0 / a)
    with pytest.raises(AdmissibilityError, match="budget") as info:
        pv_contour(f, segment_path(-1.0, 1.0))
    assert not isinstance(info.value, PvDivergenceError)


def test_pv_pole_at_the_origin_is_inadmissible():
    with pytest.raises(AdmissibilityError, match="not finite"):
        pv_contour(TestFunction(lambda z: 1.0 / z), segment_path(-1.0, 1.0))


def test_lambda_route_rejects_bad_ladders():
    # the ladders are fixed; what a caller can still get wrong is the kernel
    with pytest.raises(ValueError):
        lambda_route(catalog_function("gauss(0)"), segment_path(-2.0, 2.0),
                     kernel="bogus")


# -- plemelj plus/minus -----------------------------------------------------------

def test_plus_constant_on_symmetric_segment():
    res = plemelj_plus(catalog_function("one"), segment_path(-1.0, 1.0))
    assert abs(res.value - math.pi) < 1e-10
    assert abs(res.pv_part) < 1e-10
    assert abs(res.delta_part - math.pi) < 1e-15


def test_plus_gaussian_even_symmetry():
    res = plemelj_plus(catalog_function("gauss(0)"), segment_path(-3.0, 3.0))
    assert abs(res.value - math.pi) < 1e-6


def test_result_bookkeeping_identity():
    res = plemelj_plus(catalog_function("gauss(0.3)"), segment_path(-3.0, 3.0))
    assert res.value == res.pv_part + res.delta_part
    assert isinstance(res, FunctionalResult)


@pytest.mark.parametrize("path, pieces", [
    (segment_path(-3.0, 3.0), 2),
    (segment_path(-2.0, -0.5 + 0.4j, 0.0, 0.5 + 0.4j, 2.0), 4),
    (Contour([Arc(-1.9, 0.7, math.pi, 0.0), Line(-1.2, 2.5)], crossing=1), 3),
], ids=["straight", "bent", "arc"])
def test_plus_integrates_once_per_path_piece(monkeypatch, path, pieces):
    # the PV needs one regular integral per piece of the path, the
    # crossing segment cut at the origin, and nothing more
    import plemelj.quadrature as quadrature
    calls = []
    integrate = quadrature.integrate_adaptive

    def counting(g, a, b, **kwargs):
        calls.append((a, b))
        return integrate(g, a, b, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_adaptive", counting)
    plemelj_plus(catalog_function("gauss(0.3)"), path)
    assert len(calls) == pieces


def test_minus_mirror_constant():
    res = plemelj_minus(catalog_function("one"), segment_path(-1.0, 1.0))
    assert abs(res.value - math.pi) < 1e-10


def test_minus_odd_gaussian_pv_is_erf_integral():
    # f = z e^{-z^2}: f/z = e^{-z^2}, so PV part = -i int_{-3}^{3} e^{-t^2} dt
    f = catalog_function("poly_gauss(1,0)")
    res = plemelj_minus(f, segment_path(-3.0, 3.0))
    assert abs(res.delta_part) == 0.0
    assert abs(res.value - (-1j) * SQRTPI_ERF_3) < 1e-9
    # regenerate the oracle: Gauss-Kronrod of e^{-t^2} has no PV subtlety
    from plemelj.quadrature import integrate_adaptive
    val, _ = integrate_adaptive(lambda t: math.exp(-t * t), -3.0, 3.0,
                                abs_tol=1e-14)
    assert abs(val.real - SQRTPI_ERF_3) < 1e-13


def test_plus_plus_minus_is_two_pi_f0():
    for name in CATALOG_EXAMPLES:
        f = catalog_function(name)
        for path in (segment_path(-3.0, 3.0),
                     tilted_segment(math.pi / 10, -2.0, 2.5),
                     segment_path(-2.0, -0.8 + 0.3j, -0.4, 0.4, 0.8 + 0.3j, 2.0)):
            plus = plemelj_plus(f, path)
            minus = plemelj_minus(f, path)
            target = 2.0 * math.pi * f.at_zero()
            assert abs(plus.value + minus.value - target) <= 1e-10


def test_domain_violation_reports_segment():
    low = segment_path(-1.0, -0.5 - 1.2j, 0.0, 1.0, crossing=2)
    with pytest.raises(DomainViolationError) as info:
        plemelj_plus(catalog_function("gauss(0)"), low)
    assert info.value.segment_index in (0, 1)


@pytest.mark.parametrize("name", [
    "gauss(30j)",          # f(0) = exp(900) overflows
    "gauss(1e200j)",       # f(0) is inf
    "gauss(1+26.645j)",    # f(0) is finite, f(1) overflows
    None,                  # inf on part of the path
])
def test_non_finite_test_function_is_inadmissible(name):
    if name is None:
        f = TestFunction(lambda z: complex(math.inf) if z.real > 0.5 else 1.0 + 0j)
    else:
        f = catalog_function(name)
    for functional in (plemelj_plus, plemelj_minus, plemelj_delta):
        with pytest.raises(AdmissibilityError):
            functional(f, segment_path(-1.0, 1.0))


@pytest.mark.parametrize("route", [
    pv_contour,
    lambda f, path: lambda_route(f, path),
    lambda f, path: overlap_delta(0.5, f, path),
    deformation_route,
], ids=["pv_contour", "lambda_route", "overlap_delta", "deformation_route"])
def test_routes_report_an_overflowing_test_function(route):
    # f(1) overflows; no OverflowError or QuadratureError may get through
    with pytest.raises(AdmissibilityError, match="f overflows"):
        route(catalog_function("gauss(1+26.645j)"), segment_path(-1.0, 1.0))


def test_plus_requires_crossing_marker():
    path = segment_path(-1.0 + 0.5j, 1.0 + 0.5j)
    with pytest.raises(DomainViolationError):
        plemelj_plus(catalog_function("gauss(0)"), path)


def test_linearity():
    rng = random.Random(2718)
    f1 = catalog_function("gauss(0)")
    f2 = catalog_function("poly_gauss(2,0.3)")
    seg = segment_path(-3.0, 3.0)
    v1 = plemelj_plus(f1, seg).value
    v2 = plemelj_plus(f2, seg).value
    for _ in range(5):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        combo = TestFunction(lambda z, a=a, b=b: a * f1(z) + b * f2(z),
                             value_at_zero=a * f1.at_zero() + b * f2.at_zero())
        lhs = plemelj_plus(combo, seg).value
        assert abs(lhs - (a * v1 + b * v2)) <= 1e-10


def test_decomposition_identity():
    f = catalog_function("cos_gauss")
    seg = segment_path(-3.0, 3.0)
    pv = pv_contour(f, seg)
    plus = plemelj_plus(f, seg)
    minus = plemelj_minus(f, seg)
    assert plus.value - minus.value == 2j * pv


def test_path_independence_inside_domain():
    f = catalog_function("gauss(0.3)")
    flat = segment_path(-2.0, 2.0)
    arched = segment_path(-2.0, -1.0 + 0.4j, -0.6, 0.6, 1.0 + 0.4j, 2.0)
    va = plemelj_plus(f, flat).value
    vb = plemelj_plus(f, arched).value
    assert abs(va - vb) <= 1e-8


# -- verification routes -----------------------------------------------------------

def test_deformation_route_agrees_above():
    f = catalog_function("gauss(0.3)")
    seg = segment_path(-3.0, 3.0)
    formula = plemelj_plus(f, seg).value
    assert abs(deformation_route(f, seg, side="above") - formula) <= 1e-6


def test_deformed_integrals_are_cauchy_in_eps():
    # the deformed-path functional stabilizes as the arc radius shrinks
    from plemelj.contours import deform_at_origin
    from plemelj.quadrature import integrate_segment
    f = catalog_function("gauss(0.3)")
    seg = segment_path(-3.0, 3.0)
    vals = []
    for k in range(6):
        eps = 0.3 * 0.5 ** k
        d = deform_at_origin(seg, eps, "above")
        n = len(d.segments)
        vals.append(sum(integrate_segment(lambda z: 1j * f(z) / z, s,
                                          abs_tol=1e-12 / n)[0]
                        for s in d.segments))
    # the integrand is analytic off the origin, so the value is exactly
    # epsilon-independent and the ladder sits at quadrature noise
    diffs = [abs(b - a) for a, b in zip(vals[:-1], vals[1:])]
    assert all(d <= 1e-12 for d in diffs)


def test_deformation_route_integrates_once(monkeypatch):
    # the deformed integral does not depend on the arc radius (above), so
    # the route integrates at one radius and extrapolates nothing
    import plemelj.functionals as functionals
    calls = []
    deform = functionals.deform_at_origin

    def counting(path, epsilon, side):
        calls.append(epsilon)
        return deform(path, epsilon, side)

    monkeypatch.setattr(functionals, "deform_at_origin", counting)
    f = catalog_function("gauss(0.3)")
    seg = segment_path(-3.0, 3.0)
    value = deformation_route(f, seg, side="above")
    assert len(calls) == 1
    assert abs(value - plemelj_plus(f, seg).value) <= 1e-12


def test_default_ladders_extrapolate_in_lambda():
    # seven rungs of ratio 4, the Richardson step in lambda; an arm's panel
    # tree serves rung m with kernel(., lambda_0) in u = 2^m t without
    # checking that 4^m lambda_m is lambda_0, so it must hold to the bit
    assert len(_LAMBDA_LADDER) == 7
    assert all(4.0 ** m * lam == _LAMBDA_LADDER[0]
               for m, lam in enumerate(_LAMBDA_LADDER))


def test_deformation_route_below_matches_minus():
    f = catalog_function("gauss(0.3)")
    seg = segment_path(-3.0, 3.0)
    formula = plemelj_minus(f, seg).value
    route = deformation_route(f, seg, side="below")
    assert abs(route - formula) <= 1e-6


def test_lambda_route_straight_tilted_bent():
    f = catalog_function("gauss(0.3)")
    for path in (segment_path(-4.0, 4.0),
                 tilted_segment(math.pi / 8, -2.0, 2.0),
                 tilted_segment(math.pi / 8, -3.0, 3.0),
                 segment_path(-3.0, -1.0 + 0.5j, -0.5, 0.5, 1.0 + 0.5j, 3.0)):
        formula = plemelj_plus(f, path).value
        route = lambda_route(f, path, kernel="plus")
        assert abs(route - formula) <= max(1e-5 * abs(formula), 1e-8)


def test_lambda_route_minus_kernel():
    f = catalog_function("gauss(0)")
    seg = segment_path(-3.0, 3.0)
    formula = plemelj_minus(f, seg).value
    route = lambda_route(f, seg, kernel="minus")
    assert abs(route - formula) <= max(1e-5 * abs(formula), 1e-8)


@pytest.mark.parametrize("kernel", ["plus", "minus", "full_line"])
def test_lambda_route_rejects_paths_leaving_the_kernel_domain(kernel):
    # at phi = 0.9 > pi/4 the line enters the lower (plus, full_line) or
    # upper (minus) wedge, where the kernel overflows; the route used to
    # return nan+nanj
    with pytest.raises(DomainViolationError):
        lambda_route(catalog_function("gauss(0)"),
                     tilted_segment(0.9, -3.0, 3.0), kernel=kernel)


# -- accuracy against scipy ----------------------------------------------------------
#
# The routes are compared with a reference that shares no code with plemelj:
# QUADPACK's Cauchy-weight PV along the straight line [q0, q1] e^{i phi},
# plus pi f(0) (or 2 pi f(0) for the full-line kernel and 2 pi f(z2) for
# the overlap).  The bent and arc paths have real endpoints and a straight
# crossing, so by path independence their PV is the one along [-a, b].
# Errors are relative to max(|reference|, 1), as in the benchmark's oracles.

def _scipy_pv(f, phi, q0, q1):
    quad = pytest.importorskip("scipy.integrate").quad
    d = cmath.exp(1j * phi)
    parts = []
    for part in (lambda q: f(q * d).real, lambda q: f(q * d).imag):
        with warnings.catch_warnings():
            # QUADPACK flags roundoff at this tolerance; the value is good
            warnings.simplefilter("ignore")
            v, _err = quad(part, q0, q1, weight="cauchy", wvar=0.0,
                           epsabs=1e-14, epsrel=1e-13, limit=400)
        parts.append(v)
    return complex(*parts)


def _seeded_functions(rng):
    a = f"{rng.uniform(-0.3, 0.3):.3f}{rng.uniform(-0.15, 0.15):+.3f}j"
    return [catalog_function(name) for name in
            (f"gauss({a})", f"poly_gauss({rng.choice((1, 2))},{a})", "cos_gauss")]


def _seeded_path(rng, family):
    """(path, (phi, q0, q1)) of the line whose PV the path's PV equals."""
    a, b = rng.uniform(2.4, 2.8), rng.uniform(2.4, 2.8)
    sign = rng.choice((-1.0, 1.0))
    if family == "straight":
        phi = sign * rng.uniform(0.15, 0.45)
        d = cmath.exp(1j * phi)
        return segment_path(-a * d, b * d), (phi, -a, b)
    if family == "bent":
        c = rng.uniform(0.5, 0.7) * cmath.exp(1j * sign * rng.uniform(0.3, 0.5))
        return segment_path(-a, -c, c, b), (0.0, -a, b)
    # a half circle above or below [-a, -c], outside both wedges
    c = a * rng.uniform(0.4, 0.5)
    arc = Arc(-0.5 * (a + c), 0.5 * (a - c), sign * math.pi, 0.0)
    return Contour([arc, Line(-c, b)], crossing=1), (0.0, -a, b)


def _rel_err(value, ref):
    return abs(value - ref) / max(abs(ref), 1.0)


_FAMILIES = ("straight", "bent", "arc")


@pytest.mark.parametrize("kernel", ["plus", "minus", "full_line"])
@pytest.mark.parametrize("family", _FAMILIES)
def test_lambda_route_matches_scipy(family, kernel):
    rng = random.Random(f"lambda:{family}:{kernel}")
    path, line = _seeded_path(rng, family)
    for f in _seeded_functions(rng):
        f0 = f.at_zero()
        if kernel == "full_line":
            ref = 2 * math.pi * f0
        else:
            sign = 1j if kernel == "plus" else -1j
            ref = sign * _scipy_pv(f, *line) + math.pi * f0
        assert _rel_err(lambda_route(f, path, kernel=kernel), ref) <= 2e-13, f.label


@pytest.mark.parametrize("family", _FAMILIES)
def test_deformation_route_matches_scipy(family):
    rng = random.Random(f"deformation:{family}")
    path, line = _seeded_path(rng, family)
    for f in _seeded_functions(rng):
        pv, f0 = _scipy_pv(f, *line), f.at_zero()
        for side, sign in (("above", 1j), ("below", -1j)):
            ref = sign * pv + math.pi * f0
            assert _rel_err(deformation_route(f, path, side=side), ref) <= 1e-13, \
                (f.label, side)


@pytest.mark.parametrize("half_length", [30.0, 100.0, 300.0, 1e3, 1e6])
def test_plus_on_long_paths(half_length):
    # gauss(0.3) is below 1e-300 beyond |z| = 27, so [-30, 30] carries the
    # whole PV; scipy's own quad misses the narrow peak on the long lines
    f = catalog_function("gauss(0.3)")
    ref = 1j * _scipy_pv(f, 0.0, -30.0, 30.0) + math.pi * f.at_zero()
    value = plemelj_plus(f, segment_path(-half_length, half_length)).value
    assert _rel_err(value, ref) <= 1e-10


@pytest.mark.parametrize("family", _FAMILIES)
def test_pv_matches_scipy(family):
    rng = random.Random(f"pv:{family}")
    path, line = _seeded_path(rng, family)
    for f in _seeded_functions(rng):
        assert _rel_err(pv_contour(f, path), _scipy_pv(f, *line)) <= 1e-14, f.label


@pytest.mark.parametrize("family", ["straight", "bent"])
def test_overlap_matches_two_pi_f_z2(family):
    rng = random.Random(f"overlap:{family}")
    a, b = rng.uniform(2.4, 2.8), rng.uniform(2.4, 2.8)
    if family == "straight":
        d = cmath.exp(1j * rng.choice((-1.0, 1.0)) * rng.uniform(0.15, 0.45))
        path, z2 = segment_path(-a * d, b * d), rng.uniform(-0.8, 0.8) * d
    else:   # slopes below pi/4 on both legs
        mid = complex(rng.uniform(-0.3, 0.3), rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.4))
        path = segment_path(-a, mid, b, crossing=None)
        z2 = mid + rng.uniform(0.3, 0.5) * (b - mid)
    for f in _seeded_functions(rng):
        ref = 2 * math.pi * f(z2)
        assert _rel_err(overlap_delta(z2, f, path), ref) <= 1e-13, f.label


_ARC_ANGLE = 0.8
_ARC_START = 1j + cmath.exp(1j * (-0.5 * math.pi - _ARC_ANGLE))


@pytest.mark.parametrize("path", [
    # the unit circle about i passes through 0 at its lowest point
    Contour([Line(-2.5, _ARC_START),
             Arc(1j, 1.0, -0.5 * math.pi - _ARC_ANGLE, -0.5 * math.pi + _ARC_ANGLE),
             Line(1j + cmath.exp(1j * (-0.5 * math.pi + _ARC_ANGLE)), 2.5)],
            crossing=1),
    Contour([Line(-2.5, _ARC_START),
             Arc(1j, 1.0, -0.5 * math.pi - _ARC_ANGLE, -0.5 * math.pi),
             Line(0.0, 2.5)], crossing=2),
], ids=["inside-the-arc", "arc-then-line"])
def test_lambda_route_crossing_on_an_arc(path):
    # an arc next to the crossing: no arm is cut there, the arc is
    # integrated whole
    for name in ("gauss(0.1-0.05j)", "poly_gauss(2,0.2+0.1j)", "cos_gauss"):
        f = catalog_function(name)
        ref = plemelj_plus(f, path).value
        assert _rel_err(lambda_route(f, path), ref) <= 1e-10, name


@pytest.fixture
def budgets(monkeypatch):
    """Every PanelBudget that a route call creates."""
    import plemelj.functionals as functionals
    made = []

    class Recorded(functionals.PanelBudget):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(functionals, "PanelBudget", Recorded)
    return made


def test_lambda_route_shares_kernel_values_across_the_ladder(monkeypatch, budgets):
    # in u = 2^m t every rung sees kernel(., lambda_0), and the straight
    # path folds into one arm over Line(-E, E): one kernel pair per node of
    # its tree serves all seven rungs and both mirror images, and no node
    # or mirrored node is computed twice
    import plemelj.functionals as functionals
    args, singles = [], []
    pair, j = functionals.j_kernel_pair, functionals.j_kernel

    def counting_pair(z, lam):
        args.append((z, lam))
        return pair(z, lam)

    def counting_j(z, lam):
        singles.append((z, lam))
        return j(z, lam)

    monkeypatch.setattr(functionals, "j_kernel_pair", counting_pair)
    monkeypatch.setattr(functionals, "j_kernel", counting_j)
    lambda_route(catalog_function("gauss(0.3)"), segment_path(-2.5, 2.5))
    (budget,) = budgets
    spent = budget.evals - budget.left   # no leftover: the sides match
    assert len(args) == spent == 21 * 11
    assert singles == []
    nodes = [z for z, _lam in args] + [-z for z, _lam in args]
    assert len(set(nodes)) == len(nodes)
    assert {lam for _z, lam in args} == {_LAMBDA_LADDER[0]}


def test_lambda_route_evaluates_f_once_per_point():
    # f(z) does not depend on lambda, so one memo per call serves every
    # rung: no point is evaluated twice (without it, the seven rungs make
    # 2,820 evaluations at 990 points)
    points = []

    def gauss(z):
        points.append(z)
        return cmath.exp(-(z - 0.3) * (z - 0.3))

    lambda_route(TestFunction(gauss), segment_path(-2.5, 2.5))
    assert 0 < len(points) <= 1300
    assert len(set(points)) == len(points)


def test_ladder_work_is_pinned(monkeypatch, budgets):
    # a rung tolerance or a pre-split that changes changes no output, only
    # the work: (arm-tree panels, GK15 panels of the other pieces, kernel
    # calls); a K21 arm-tree panel costs 21 kernel calls and a GK15 panel
    # 15, a kernel pair on a folded arm counted as one
    import plemelj.functionals as functionals
    import plemelj.quadrature as quadrature
    counts = [0, 0]
    gk15 = quadrature.gk15

    def counting_gk15(g, a, b):
        counts[0] += 1
        return gk15(g, a, b)

    monkeypatch.setattr(quadrature, "gk15", counting_gk15)
    for name in ("j_kernel", "j_kernel_pair", "full_line_kernel",
                 "full_line_kernel_pair"):
        def counted(z, lam, kernel=getattr(functionals, name)):
            counts[1] += 1
            return kernel(z, lam)
        monkeypatch.setattr(functionals, name, counted)
    f = catalog_function("gauss(0.3)")
    straight = segment_path(-2.5, 2.5)
    bent = segment_path(-2.5, -0.6 - 0.3j, 0.6 + 0.3j, 2.6)
    work = {}
    for name, route in (
            ("plus straight", lambda: lambda_route(f, straight)),
            ("full_line straight",
             lambda: lambda_route(f, straight, kernel="full_line")),
            ("plus bent", lambda: lambda_route(f, bent)),
            ("full_line bent", lambda: lambda_route(f, bent, kernel="full_line")),
            ("overlap bent", lambda: overlap_delta(0.3 + 0.15j, f, bent))):
        counts[:] = [0, 0]
        route()
        budget = budgets[-1]
        tree_panels, rem = divmod(budget.evals - budget.left - 15 * counts[0], 21)
        assert rem == 0, name
        work[name] = (tree_panels, counts[0], counts[1])
        assert counts[1] == 21 * tree_panels + 15 * counts[0], name
    assert work == {"plus straight": (11, 0, 231),
                    "full_line straight": (11, 0, 231),
                    "plus bent": (15, 50, 1065),
                    "full_line bent": (15, 28, 735),
                    "overlap bent": (14, 53, 1089)}


@pytest.mark.parametrize("name", ["default", "overlap"])
def test_rung_tolerances_split_the_propagated_bound(monkeypatch, name):
    # the limit is sum c_k V_k; rung k runs at tol sum|c_j| / (n |c_k|),
    # tol = 1e-11 / pieces, so every rung adds the same share to the
    # propagated bound sum |c_k| tol_k, which stays tol sum |c_k|; every
    # arm tree brings each rung within its own tolerance
    import plemelj.functionals as functionals
    n = 7
    weights = [richardson([float(j == k) for j in range(n)], 4.0)[0]
               for k in range(n)]
    trees, segments = [], []
    ladder, segment = functionals.integrate_ladder, functionals.integrate_segment

    def recording(kernel, lam, f, center, end, tols, *args, **kwargs):
        values, errs = ladder(kernel, lam, f, center, end, tols, *args, **kwargs)
        trees.append((list(tols), errs))
        return values, errs

    def recording_segment(g, seg, **kwargs):
        segments.append((seg, kwargs["abs_tol"]))
        return segment(g, seg, **kwargs)

    monkeypatch.setattr(functionals, "integrate_ladder", recording)
    monkeypatch.setattr(functionals, "integrate_segment", recording_segment)
    rng = random.Random("lambda:ratio-3")
    path, line = _seeded_path(rng, "straight")
    f = _seeded_functions(rng)[0]
    if name == "default":
        value = lambda_route(f, path)
        ref = 1j * _scipy_pv(f, *line) + math.pi * f.at_zero()
    else:
        z2 = path.point((0, 0.4))
        value = overlap_delta(z2, f, path)
        ref = 2 * math.pi * f(z2)
    # a straight path is one folded arm and at most one leftover piece,
    # integrated rung by rung
    leftovers = {seg for seg, _tol in segments}
    assert len(trees) == 1 and len(leftovers) <= 1
    pieces = len(trees) + len(leftovers)
    rung_tols = trees[0][0]
    assert len(rung_tols) == n and all(tols == rung_tols for tols, _e in trees)
    assert [tol for _seg, tol in segments] == rung_tols[:len(segments)]
    assert len(segments) == n * len(leftovers)
    assert all(0.0 < t < math.inf for t in rung_tols)
    for _tols, errs in trees:
        assert all(e <= t for e, t in zip(errs, rung_tols))
    tol, total = 1e-11 / pieces, sum(abs(c) for c in weights)
    shares = [abs(c) * t for c, t in zip(weights, rung_tols)]
    assert sum(shares) <= tol * total * (1.0 + 1e-12)
    assert max(shares) <= min(shares) * (1.0 + 1e-12)
    assert rung_tols[-1] < 0.2 * tol and min(rung_tols[:4]) > 550.0 * tol
    assert _rel_err(value, ref) <= 2e-13


def _mp_twin(label):
    """The catalog function of ``label`` as an mpmath function."""
    import mpmath as mp
    if label == "cos_gauss":
        return lambda z: mp.cos(z) * mp.exp(-z * z)
    m = re.fullmatch(r"(?:poly_gauss\((\d+),|gauss\()(.+)\)", label)
    n, a = int(m.group(1) or 0), mp.mpc(complex(m.group(2)))
    return lambda z: z ** n * mp.exp(-(z - a) ** 2)


def _mp_pv(label, phi, q0, q1):
    """PV of f(q e^{i phi}) / q dq over [q0, q1] at 30 digits, folded at 0."""
    import mpmath as mp
    f = _mp_twin(label)
    with mp.workdps(30):
        d = mp.expj(phi)
        m = min(-q0, q1)
        pv = mp.quad(lambda q: (f(q * d) - f(-q * d)) / q, [0, m])
        if q1 > m:
            pv += mp.quad(lambda q: f(q * d) / q, [m, q1])
        if -q0 > m:
            pv += mp.quad(lambda q: f(q * d) / q, [q0, -m])
        return complex(pv)


@pytest.fixture
def limits(monkeypatch):
    """The (limit, error estimate) of every _regularized_limit call."""
    import plemelj.functionals as functionals
    got = []
    regularized = functionals._regularized_limit

    def recording(*args, **kwargs):
        got.append(regularized(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(functionals, "_regularized_limit", recording)
    return got


# The estimate is the larger of the triangle's last correction and the
# propagated quadrature estimate sum |c_k| e_k.  It must cover the error
# against mpmath or a closed form, and stay below the propagated bound
# 1e-11 sum |c_k| = 2.0e-11 that the rung tolerances keep.

@pytest.mark.parametrize("kernel", ["plus", "minus", "full_line"])
@pytest.mark.parametrize("family", _FAMILIES)
def test_lambda_route_error_estimate_covers_its_error(limits, family, kernel):
    rng = random.Random(f"estimate:{family}:{kernel}")
    path, line = _seeded_path(rng, family)
    for f in _seeded_functions(rng):
        f0 = f.at_zero()
        if kernel == "full_line":
            ref = 2 * math.pi * f0
        else:
            sign = 1j if kernel == "plus" else -1j
            ref = sign * _mp_pv(f.label, *line) + math.pi * f0
        value = lambda_route(f, path, kernel=kernel)
        limit, estimate = limits[-1]
        assert limit == value
        assert abs(value - ref) <= estimate <= 2e-11, f.label


def _overlap_path(rng, family):
    """(path, z2) with every slope inside (-pi/4, pi/4)."""
    a, b = rng.uniform(2.4, 2.8), rng.uniform(2.4, 2.8)
    sign = rng.choice((-1.0, 1.0))
    if family == "straight":
        d = cmath.exp(1j * sign * rng.uniform(0.15, 0.45))
        return segment_path(-a * d, b * d), rng.uniform(-0.8, 0.8) * d
    if family == "bent":
        mid = complex(rng.uniform(-0.3, 0.3), sign * rng.uniform(0.3, 0.4))
        return segment_path(-a, mid, b, crossing=None), mid + rng.uniform(0.3, 0.5) * (b - mid)
    # an arc through 0 turning by 1.2, its tangents within 0.6 of the axis
    arc = Arc(2j * sign, 2.0, -sign * (0.5 * math.pi + 0.6), -sign * (0.5 * math.pi - 0.6))
    path = Contour([Line(-a, arc.start), arc, Line(arc.end, b)])
    return path, arc.point(rng.uniform(0.2, 0.8))


@pytest.mark.parametrize("family", _FAMILIES)
def test_overlap_error_estimate_covers_its_error(limits, family):
    rng = random.Random(f"estimate:overlap:{family}")
    path, z2 = _overlap_path(rng, family)
    for f in _seeded_functions(rng):
        value = overlap_delta(z2, f, path)
        limit, estimate = limits[-1]
        assert limit == value
        assert abs(value - 2 * math.pi * f(z2)) <= estimate <= 2e-11, f.label


_FORMULAS = {"plus": plemelj_plus, "minus": plemelj_minus, "full_line": plemelj_delta}


@pytest.mark.parametrize("kernel, start", [
    ("full_line", -0.1), ("plus", -0.1), ("minus", -0.1),
    ("full_line", -0.01), ("plus", -0.01), ("minus", -0.01), ("overlap", -3.0)])
def test_error_estimate_covers_the_loss_beyond_a_path_end(limits, kernel, start):
    # a centre next to an end: the rungs lose the kernel's mass beyond it,
    # and the early rungs carry that loss into the limit.  The value is
    # off by 1.5e-5 to 0.19 (6.1e-10 for the overlap at 0.1 from its end);
    # the estimate must cover it, within a factor 10
    f = catalog_function("gauss(0.3)")
    path = segment_path(start, 3.0)
    if kernel == "overlap":
        value, ref = overlap_delta(-2.9, f, path), 2 * math.pi * f(-2.9)
    else:
        value, ref = lambda_route(f, path, kernel), _FORMULAS[kernel](f, path).value
    limit, estimate = limits[-1]
    assert limit == value
    error = abs(value - ref)
    assert 1e-10 < error <= estimate <= 10.0 * error


@pytest.mark.parametrize("case", ["unequal-arms", "vertex", "overlap-off-centre"])
def test_arm_shapes_match_the_formula_route(limits, case):
    # a crossing inside a Line folds its sides at the shorter one's length
    # and integrates the longer side's leftover as a piece of its own; a
    # crossing at a vertex keeps two single arms; an overlap folds about z2
    # wherever it lies on its segment.  Each against the formula route or
    # 2 pi f(z2), within 1e-12 and within the returned estimate
    import plemelj.functionals as functionals
    rng = random.Random(f"arm-shapes:{case}")
    checked = 0
    for f in _seeded_functions(rng):
        d_in = cmath.exp(1j * rng.uniform(-0.4, 0.4))
        d_out = cmath.exp(1j * rng.uniform(-0.4, 0.4)) if case == "vertex" else d_in
        a, b = rng.uniform(0.5, 1.5), rng.uniform(2.0, 3.0)
        if rng.random() < 0.5:
            a, b = b, a
        if case == "overlap-off-centre":
            path = segment_path(-2.6 * d_in, 2.5 * d_in)
            z2 = rng.uniform(-1.8, 1.8) * d_in
            loc, center, routes = path.min_distance(z2)[1], z2, {
                "overlap": (lambda: overlap_delta(z2, f, path), 2 * math.pi * f(z2))}
        else:
            path = segment_path(-a * d_in, 0, b * d_out) if case == "vertex" \
                else segment_path(-a * d_in, b * d_out)
            loc, center = (path.crossing, path.crossing_param), 0j
            routes = {kernel: (lambda kernel=kernel: lambda_route(f, path, kernel),
                               formula(f, path).value)
                      for kernel, formula in _FORMULAS.items()}
        arms, rest = functionals._centred_pieces(path, loc, center)
        if case == "vertex":
            assert [(sign, folded) for _e, sign, folded in arms] == [
                (-1.0, False), (1.0, False)] and rest == []
        else:
            assert [folded for _e, _s, folded in arms] == [True]
            (leftover, _cut), = rest
            assert abs(leftover.length - abs(abs(path.start - center)
                                              - abs(path.end - center))) <= 1e-12
        for name, (route, ref) in routes.items():
            value = route()
            limit, estimate = limits[-1]
            assert limit == value
            assert abs(value - ref) <= estimate, (f.label, name)
            assert _rel_err(value, ref) <= 1e-12, (f.label, name)
            checked += 1
    assert checked == (3 if case == "overlap-off-centre" else 9)


def _crosscheck_pool(seed):
    """The requests of the crosscheck pool of perfbench/workloads.py for seed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate("crosscheck", seed)


@pytest.mark.parametrize("seed", range(1, 6))
def test_error_estimate_covers_the_benchmark_closed_forms(limits, seed):
    # the full-line lambda_routes (2 pi f(0)) and the overlaps (2 pi f(z2))
    # of the benchmark's crosscheck pool, 16 per seed
    checked = 0
    for req in _crosscheck_pool(seed):
        args = req["args"]
        if req["op"] == "functional" and args["kernel"] == "delta":
            f = catalog_function(args["function"])
            value = lambda_route(f, Contour.from_json(args["contour"]), "full_line")
            ref = 2 * math.pi * f.at_zero()
        elif req["op"] == "overlap":
            f, z2 = catalog_function(args["function"]), complex(*args["z2"])
            value = overlap_delta(z2, f, Contour.from_json(args["contour"]))
            ref = 2 * math.pi * f(z2)
        else:
            continue
        limit, estimate = limits[-1]
        assert limit == value
        assert abs(value - ref) <= estimate, (req, value - ref, estimate)
        checked += 1
    assert checked == 16


def _seeded_arms(rng, kind):
    """(kernel, pair, center, end) of seeded arms Line(0, end) that the
    ladder integrates, pair(z, lam) = (kernel(z, lam), kernel(-z, lam)):
    both arms of straight and of bent crossings of the origin, or, for
    "overlap", arms from a centre z2, forwards and backwards; every
    direction within 0.6 of the real axis, lengths from 0.01 to 10."""
    import plemelj.functionals as functionals
    j, j_pair = functionals.j_kernel, functionals.j_kernel_pair
    k, k_pair = functionals.full_line_kernel, functionals.full_line_kernel_pair
    kernel, pair = {
        "plus": (j, j_pair),
        "minus": (lambda z, lam: j(-z, lam), lambda z, lam: j_pair(-z, lam)),
        "full_line": (k, k_pair),
        "overlap": (k, k_pair)}[kind]
    arms = []
    for bent in (False, True, False, True):
        phi_in = rng.uniform(-0.6, 0.6)
        phi_out = rng.uniform(-0.6, 0.6) if bent else phi_in
        center = (complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
                  if kind == "overlap" else 0.0 + 0.0j)
        for sign, phi in ((-1.0, phi_in), (1.0, phi_out)):
            length = 10.0 ** rng.uniform(-2.0, 1.0)
            arms.append((kernel, pair, center, sign * length * cmath.exp(1j * phi)))
    return arms


@pytest.mark.parametrize("kind", ["plus", "minus", "full_line", "overlap"])
def test_arm_tree_matches_each_rung_integrated_alone(kind):
    # V_m of the u = 2^m t tree against kernel(zeta, lambda_m) f integrated
    # over the same arm in t, rung by rung; rungs 0-3 weigh at most 5.1e-4
    # in the limit, so only this shows a wrong scale or active range there
    _check_arm_tree(kind, folded=False)


@pytest.mark.parametrize("kind", ["plus", "minus", "full_line", "overlap"])
def test_folded_arm_tree_matches_each_half_integrated_alone(kind):
    # the tree of a folded arm, Line(-end, end), with a kernel pair per
    # node, against its two halves integrated alone, rung by rung
    _check_arm_tree(kind, folded=True)


def _check_arm_tree(kind, folded):
    from plemelj.functionals import _arm_rungs, _rung_tolerances
    from plemelj.quadrature import PanelBudget, integrate_adaptive
    rng = random.Random(f"arm-tree:{kind}")
    functions = _seeded_functions(rng)
    tols = _rung_tolerances(1e-11 / 2)
    for k, (kernel, pair, center, end) in enumerate(_seeded_arms(rng, kind)):
        f = functions[k % len(functions)]
        k_of = pair if folded else lambda z, lam, kernel=kernel: (kernel(z, lam),)
        values, errs = _arm_rungs(k_of, f, center, end, tols, PanelBudget())
        halves = ((end, 1.0), (-end, -1.0))[:1 + folded]
        for m, (lam, tol) in enumerate(zip(_LAMBDA_LADDER, tols)):
            splits, u = [], 0.5
            while u * abs(end) > 0.4 * math.sqrt(lam):
                splits.append(u)
                u *= 0.5
            ref = 0j
            for e, sign in halves:    # the half Line(0, -end) runs inwards
                v, _err = integrate_adaptive(
                    lambda t: kernel(t * e, lam) * f(center + t * e) * e,
                    0.0, 1.0, abs_tol=tol, breakpoints=splits,
                    budget=PanelBudget(15 * 16384))
                ref += sign * v
            assert abs(values[m] - ref) <= errs[m] + len(halves) * tol, \
                (f.label, end, m)


def _plus_by_formula(f, path):
    """The limit of the plus kernel's action along a path of Lines through
    0 at a vertex, at 30 digits: i PV(f/z) + f(0) (pi - alpha), alpha the
    turn of the path's direction at the crossing.  The PV is the integral
    of the entire (f(z) - f(0))/z along the chord plus f(0) (ln|end/start|
    + i turn), turn that of arg z along the lines that miss the origin."""
    import mpmath as mp
    g = _mp_twin(f.label)
    d_in, d_out = path.crossing_directions()
    alpha = cmath.phase(d_out / d_in)
    with mp.workdps(30):
        a, b = mp.mpc(path.start), mp.mpc(path.end)
        f0 = g(mp.mpc(0))
        chord = mp.quad(lambda s: (g(a + s * (b - a)) - f0) / (a + s * (b - a)) * (b - a),
                        [0, 0.5, 1])
        turn = sum(cmath.phase(seg.end / seg.start)
                   for seg in path.segments if seg.start and seg.end)
        pv = chord + f0 * (mp.log(abs(b) / abs(a)) + 1j * turn)
        return complex(1j * pv + (mp.pi - alpha) * f0)


def _refused_or_close(route, ref):
    """AdmissibilityError, or a value within 1e-9 of ref."""
    try:
        value = route()
    except AdmissibilityError as exc:
        assert "panels" in str(exc) or "overflow" in str(exc)
        return
    assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def test_panel_budget_bounds_a_lambda_route_along_huge_f(monkeypatch):
    # max |f| on the path is 5.8e208: quadrature refines without end
    # against the roundoff of that magnitude; the panel budget stops it
    import plemelj.functionals as functionals
    calls = [0]
    j = functionals.j_kernel

    def counting_j(z, lam):
        calls[0] += 1
        return j(z, lam)

    monkeypatch.setattr(functionals, "j_kernel", counting_j)
    f = catalog_function("gauss(-1.2)")
    path = segment_path(-8.18 - 4.82j, 0, 12.75 + 25.99j, 27.20 + 3.14j)
    _refused_or_close(lambda: lambda_route(f, path, "plus"), _plus_by_formula(f, path))
    assert 0 < calls[0] <= functionals.PanelBudget().evals == 15 * 2048


def test_panel_budget_bounds_an_overlap_against_a_vanishing_f(monkeypatch):
    # 2 pi f(z2) is below 1e-12, the path's f up to 1e5 times larger
    # (a kernel pair of the folded arm counted as one call)
    import plemelj.functionals as functionals
    calls = [0]
    for name in ("full_line_kernel", "full_line_kernel_pair"):
        def counting(z, lam, k=getattr(functionals, name)):
            calls[0] += 1
            return k(z, lam)
        monkeypatch.setattr(functionals, name, counting)
    f = catalog_function("poly_gauss(3,0.5)")
    path = segment_path(-25.03 - 9.68j, -14.16 - 10.61j, 2.39 + 5.87j)
    z2 = path.segments[1].point(0.5)
    ref = 2 * math.pi * f(z2)
    assert abs(ref) < 1e-12
    _refused_or_close(lambda: overlap_delta(z2, f, path), ref)
    assert 0 < calls[0] <= functionals.PanelBudget().evals == 15 * 2048


_FUZZ_F = "gauss(-1.2)"
_FUZZ_PATH = segment_path(-8.18 - 4.82j, 0, 12.75 + 25.99j, 27.20 + 3.14j)


@pytest.mark.parametrize("route", [
    lambda f, path: deformation_route(f, path, "above"),
    lambda f, path: deformation_route(f, path, "below"),
    lambda f, path: lambda_route(f, path, "plus"),
    pv_contour,
    plemelj_plus,
], ids=["deformation-above", "deformation-below", "lambda-plus", "pv_contour",
        "plemelj_plus"])
def test_every_route_bounds_its_work_along_huge_f(monkeypatch, route):
    # max |f| on the path is 5.8e208: each route refuses it after at most
    # one budget of integrand evaluations, counted as 15 per GK15 panel
    # and, on the ladder, as kernel calls (one per evaluation)
    import plemelj.functionals as functionals
    import plemelj.quadrature as quadrature
    counts = {"gk15": 0, "kernel": 0}
    gk15, j = quadrature.gk15, functionals.j_kernel

    def counting_gk15(g, a, b):
        counts["gk15"] += 1
        return gk15(g, a, b)

    def counting_j(z, lam):
        counts["kernel"] += 1
        return j(z, lam)

    monkeypatch.setattr(quadrature, "gk15", counting_gk15)
    monkeypatch.setattr(functionals, "j_kernel", counting_j)
    with pytest.raises(AdmissibilityError):
        route(catalog_function(_FUZZ_F), _FUZZ_PATH)
    evals = max(15 * counts["gk15"], counts["kernel"])
    assert evals <= quadrature.PanelBudget().evals == 15 * 2048


_POLE_AT_ONE = TestFunction(lambda z: 1.0 / (z - 1.0))


@pytest.mark.parametrize("route", [
    lambda f: deformation_route(f, segment_path(-2.0, 2.0), "above"),
    lambda f: tilted_plemelj(f, TiltedLine(0.0, -2.0, 2.0)),
    lambda f: lambda_route(f, segment_path(-2.0, 2.0), "plus"),
    lambda f: overlap_delta(0.5, f, segment_path(-2.0, 2.0)),
], ids=["deformation_route", "tilted_plemelj", "lambda_route", "overlap_delta"])
def test_an_f_that_divides_by_zero_is_inadmissible(route):
    # a quadrature node lands on the pole at z = 1 on the path
    with pytest.raises(AdmissibilityError, match="division by zero"):
        route(_POLE_AT_ONE)


@pytest.mark.parametrize("path", [
    segment_path(-2.0 + 0.3j, 0, 2.0 + 0.5j),
    segment_path(-2.0 - 0.5j, 0, 2.0 + 0.3j),
], ids=["turning-left", "turning-right"])
def test_plemelj_formulas_carry_the_corner_term(path):
    # a crossing on a vertex that turns the path by alpha: plus is
    # i PV + (pi - alpha) f(0) and minus -i PV + (pi + alpha) f(0), as the
    # kernel limit and the deformed path give them; the delta stays 2 pi f(0)
    f = catalog_function("gauss(0.3)")
    d_in, d_out = path.crossing_directions()
    alpha = cmath.phase(d_out / d_in)
    assert abs(alpha) > 0.05
    plus, minus = plemelj_plus(f, path), plemelj_minus(f, path)
    assert abs(plus.delta_part - (math.pi - alpha) * f.at_zero()) <= 1e-15
    assert abs(minus.delta_part - (math.pi + alpha) * f.at_zero()) <= 1e-15
    assert abs(plus.value - _plus_by_formula(f, path)) <= 1e-13
    for value, ref in ((plus.value, lambda_route(f, path, "plus")),
                       (plus.value, deformation_route(f, path, "above")),
                       (minus.value, lambda_route(f, path, "minus")),
                       (minus.value, deformation_route(f, path, "below"))):
        assert abs(value - ref) <= 1e-12
    delta = plemelj_delta(f, path)
    assert delta.delta_part == 2 * math.pi * f.at_zero()
    assert abs(delta.value - 2 * math.pi * f.at_zero()) <= 1e-14


_TURN = math.atan(0.15) - math.atan(0.25)   # alpha of (2-0.3j, 0, -2+0.5j)


@pytest.mark.parametrize("points, plus, minus, arc", [
    # right to left: i PV - (pi + alpha) f(0) and -i PV - (pi - alpha) f(0)
    ((2, -2), -math.pi, -math.pi, True),
    ((2, 0, -2 + 0.5j), -math.pi + math.atan(0.25), -math.pi - math.atan(0.25), True),
    ((2 - 0.3j, 0, -2 + 0.5j), -math.pi - _TURN, -math.pi + _TURN, True),
    # U-turns: the indentation sweeps the short way between the arms
    ((-1 + 1j, 0, -2 + 1j), math.atan(0.5) - math.pi / 4, None, True),
    ((1 + 1j, 0, 2 + 1j), math.pi / 4 - math.atan(0.5), None, True),
    ((-1 - 1j, 0, -2 - 1j), None, math.atan(0.5) - math.pi / 4, True),
    # in the intersection domain no arc above or below joins the arms
    ((-1 + 0.2j, 0, -1 - 0.2j), -2 * math.atan(0.2), 2 * math.atan(0.2), False),
    ((1 - 0.2j, 0, 1 + 0.2j), -2 * math.atan(0.2), 2 * math.atan(0.2), False),
], ids=["back", "back-bent", "back-bent-off-axis", "u-turn-plus",
        "u-turn-plus-mirror", "u-turn-minus", "u-turn-left", "u-turn-right"])
def test_plemelj_formulas_follow_the_crossing_direction(points, plus, minus, arc):
    # s PV + s i dtheta f(0), dtheta the sweep of an indentation on the
    # kernel's side, as the kernel limit and the deformed path give it
    f = catalog_function("gauss(0.3)")
    f0 = f.at_zero()
    path = segment_path(*points)
    for functional, kernel, side, coef in ((plemelj_plus, "plus", "above", plus),
                                           (plemelj_minus, "minus", "below", minus)):
        if coef is None:
            with pytest.raises(DomainViolationError):
                functional(f, path)
            continue
        res = functional(f, path)
        assert abs(res.delta_part - coef * f0) <= 1e-14
        assert abs(res.value - lambda_route(f, path, kernel)) <= 1e-12
        if arc:
            assert abs(res.value - deformation_route(f, path, side)) <= 1e-12
        else:
            with pytest.raises(ContourError):
                deformation_route(f, path, side)
    if plus is not None and minus is not None:
        delta = plemelj_delta(f, path)
        assert abs(delta.delta_part - (plus + minus) * f0) <= 1e-14
        assert abs(delta.value - lambda_route(f, path, "full_line")) <= 1e-12


def test_routes_take_a_plain_callable():
    # a plain callable goes through the routes as its TestFunction does
    f = catalog_function("cos_gauss")
    path = segment_path(-2.5, -0.6 - 0.3j, 0.6 + 0.3j, 2.6)
    for route in (lambda g: lambda_route(g, path),
                  lambda g: lambda_route(g, path, kernel="full_line"),
                  lambda g: overlap_delta(0.3 + 0.15j, g, path),
                  lambda g: pv_contour(g, path),
                  lambda g: deformation_route(g, path)):
        assert repr(route(f.eval)) == repr(route(f))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(phi=st.floats(-0.2 * math.pi, 0.2 * math.pi),
       q_min=st.floats(-3.0, -1.5), q_max=st.floats(1.5, 3.0),
       re=st.floats(-0.5, 0.5), im=st.floats(-0.3, 0.3))
def test_lambda_route_plus_and_minus_sum_to_two_pi_f0(phi, q_min, q_max, re, im):
    # J(z) + J(-z) is the full-line kernel, the nascent 2 pi delta: the
    # two one-sided routes add up to 2 pi f(0) on a tilted straight path
    f = catalog_function(f"gauss({re!r}{im:+.17g}j)")
    path = tilted_segment(phi, q_min, q_max)
    total = lambda_route(f, path, kernel="plus") + lambda_route(f, path, kernel="minus")
    target = 2.0 * math.pi * f.at_zero()
    assert _rel_err(total, target) <= 1e-12


@pytest.mark.parametrize("where", ["vertex", "off-segment", "off-vertex"])
def test_overlap_at_a_vertex_and_next_to_the_path(where):
    # z2 at the bend, or 1e-11 off the path (within the 1e-10 the route
    # allows): the arms start exactly at z2, which by Cauchy's theorem
    # leaves the integral as it is
    mid, end = 0.2 + 0.35j, 2.6
    path = segment_path(-2.5, mid, end, crossing=None)
    normal = 1j * (end - mid) / abs(end - mid)
    z2 = {"vertex": mid, "off-segment": mid + 0.4 * (end - mid) + 1e-11 * normal,
          "off-vertex": mid + 1e-11j}[where]
    for name in ("gauss(0.1-0.05j)", "poly_gauss(2,0.2+0.1j)", "cos_gauss"):
        f = catalog_function(name)
        assert _rel_err(overlap_delta(z2, f, path), 2 * math.pi * f(z2)) <= 1e-13, name


# -- delta action --------------------------------------------------------------------

def test_delta_examples():
    seg = segment_path(-3.0, 3.0)
    assert abs(plemelj_delta(catalog_function("gauss(0)"), seg).value - 2 * math.pi) < 1e-10
    assert abs(plemelj_delta(catalog_function("poly_gauss(1,0)"), seg).value) < 1e-10


def test_delta_bent_path_with_lambda_oracle():
    bent = segment_path(-2.0, -0.5 + 0.4j, 0.0, 0.5 + 0.4j, 2.0)
    f = catalog_function("cos_gauss")
    val = plemelj_delta(f, bent).value
    assert abs(val - 2 * math.pi) < 1e-10
    route = lambda_route(f, bent, kernel="full_line")
    assert abs(route - val) <= max(1e-5 * abs(val), 1e-8)


def test_delta_follows_the_crossing_direction():
    # right to left the delta winds once clockwise, -2 pi f(0); a U-turn
    # does not wind; both as the full-line kernel limit gives them
    f = catalog_function("gauss(0.3)")
    back = segment_path(1.0, -1.0)
    res = plemelj_delta(f, back)
    assert res.delta_part == -2 * math.pi * f.at_zero()
    assert abs(res.value - lambda_route(f, back, "full_line")) <= 1e-12
    u_turn = plemelj_delta(f, segment_path(-1 + 0.2j, 0, -1 - 0.2j))
    assert u_turn.delta_part == 0


def test_delta_rejects_wedge_path():
    path = segment_path(-1.0, -0.5 + 0.9j, 0.0, 1.0, crossing=2)
    with pytest.raises(DomainViolationError):
        plemelj_delta(catalog_function("gauss(0)"), path).value


def test_delta_runs_one_pv_ladder(monkeypatch):
    import plemelj.functionals as functionals
    calls = []
    principal_value = functionals._principal_value

    def counting(f, path, f0, budget):
        calls.append(path)
        return principal_value(f, path, f0, budget)

    monkeypatch.setattr(functionals, "_principal_value", counting)
    bent = segment_path(-2.0, -0.5 + 0.4j, 0.0, 0.5 + 0.4j, 2.0)
    f = catalog_function("gauss(0.3)")
    val = plemelj_delta(f, bent).value
    assert len(calls) == 1
    assert abs(val - 2 * math.pi * f.at_zero()) < 1e-10
    res = plemelj_delta(f, bent)
    assert len(calls) == 2
    assert res.value == val
    assert res.delta_part == 2 * math.pi * f.at_zero()


# -- overlap --------------------------------------------------------------------------

def test_overlap_real_axis():
    f = catalog_function("gauss(0.7)")
    val = overlap_delta(0.7, f, segment_path(-3.0, 3.0))
    assert abs(val - 2 * math.pi) <= 1e-4 * 2 * math.pi


def test_overlap_tilted():
    z2 = 0.7 * cmath.exp(1j * math.pi / 8)
    f = TestFunction(lambda z: cmath.exp(-(z - z2) ** 2),
                     value_at_zero=cmath.exp(-z2 * z2))
    val = overlap_delta(z2, f, tilted_segment(math.pi / 8, -3.0, 3.0))
    target = 2 * math.pi * f(z2)
    assert abs(val - target) <= 1e-4 * abs(target)


def test_overlap_zero_sift():
    f = catalog_function("poly_gauss(1,0.7)")   # vanishes at... z^1 factor at z2=0
    val = overlap_delta(0.0, f, segment_path(-3.0, 3.0))
    assert abs(val) <= 1e-4 * 2 * math.pi


def test_overlap_slope_violation():
    steep = segment_path(-1.0 - 1.2j, 1.0 + 1.2j)   # slope exceeds pi/4
    with pytest.raises(DomainViolationError):
        overlap_delta(0.0, catalog_function("gauss(0)"), steep)


@pytest.mark.parametrize("path, error, segment", [
    # the exit ray runs backwards; only its direction leaves the band
    (Contour(segment_path(-3.0, 3.0).segments, ray_out=math.pi),
     OrientationError, None),
    (Contour(segment_path(-3.0, 3.0).segments, ray_out=math.pi / 3),
     DomainViolationError, 1),
    # a near-full loop whose end tangents are both horizontal-ish
    (Contour([Arc(0.0, 1.0, -math.pi / 2, 1.5 * math.pi - 0.1)]),
     DomainViolationError, 0),
], ids=["backward-ray", "steep-ray", "looping-arc"])
def test_overlap_slope_check_is_exact(path, error, segment):
    with pytest.raises(error) as info:
        overlap_delta(path.start, catalog_function("gauss(0)"), path)
    if segment is not None:
        assert info.value.segment_index == segment
        assert "band" in str(info.value)


def test_overlap_point_off_path():
    with pytest.raises(DomainViolationError):
        overlap_delta(0.5j, catalog_function("gauss(0)"), segment_path(-2.0, 2.0))


@pytest.mark.parametrize("z2", [-3.0, 3.0, -3.0 + 1e-11, 3.0 + 1e-11j],
                         ids=["start", "end", "next-to-start", "next-to-end"])
def test_overlap_refuses_a_sifting_point_at_an_end_of_the_path(z2):
    # only half the kernel's mass lies on the path there, so the ladder
    # converges to about pi f(z2), not 2 pi f(z2)
    with pytest.raises(DomainViolationError, match="an end of the path"):
        overlap_delta(z2, catalog_function("gauss(0.3)"), segment_path(-3.0, 3.0))


def test_overlap_infinite_path_truncation():
    base = tilted_segment(0.0, -1.0, 1.0)
    inf_path = Contour(base.segments, crossing=base.crossing,
                       ray_in=0.0, ray_out=0.0)
    f = catalog_function("gauss(0.4)")
    val = overlap_delta(0.4, f, inf_path)
    assert abs(val - 2 * math.pi) <= 1e-4 * 2 * math.pi


def test_finite_path_required_elsewhere():
    base = tilted_segment(0.0, -1.0, 1.0)
    inf_path = Contour(base.segments, crossing=base.crossing, ray_in=0.0,
                       ray_out=0.0)
    with pytest.raises(AdmissibilityError):
        plemelj_plus(catalog_function("gauss(0)"), inf_path)
