"""Quadrature and extrapolation building blocks."""
import cmath
import math

import pytest

from plemelj.contours import Arc, Line
from plemelj.quadrature import (_NODES, _WG_WK, _WK, PanelBudget,
                                QuadratureError, gk15, integrate_adaptive,
                                integrate_ladder, integrate_segment,
                                richardson)


def test_kronrod_polynomial_exactness():
    # the one panel rule is G10/K21: K21 integrates x^k exactly up to
    # degree 31 and G10 up to 19, so their difference, the estimate, is
    # at roundoff up to degree 19; and neither one degree beyond
    for k in range(32):
        val, err, mag = gk15(lambda x, k=k: x ** k, -1.0, 1.0)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(val - exact) < 5e-15, k
        if k <= 19:
            assert err < 5e-15, k
    val, _err, _mag = gk15(lambda x: x ** 32, -1.0, 1.0)
    assert abs(val - 2.0 / 33) > 1e-13
    _val, err, _mag = gk15(lambda x: x ** 20, -1.0, 1.0)
    assert err > 1e-9


def test_ladder_rule_is_g10_k21():
    # the panel tables of gk15 and the lambda ladder: QUADPACK's G10/K21,
    # 21 Kronrod nodes, the ten Gauss nodes first, then the other Kronrod
    # nodes and the centre; K21 integrates x^k exactly up to degree 31,
    # G10 up to 19
    kronrod = _WK[:21]
    gauss = [r * w for r, w in zip(_WG_WK, kronrod)]
    assert len(_NODES) == 21 and len(gauss) == 10
    assert _WK[21:] == kronrod and _NODES[20] == 0.0
    assert abs(math.fsum(kronrod) - 2.0) <= 1e-15
    assert abs(math.fsum(gauss) - 2.0) <= 1e-15

    def rule(weights, k):
        return math.fsum(w * x ** k for w, x in zip(weights, _NODES))

    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(rule(kronrod, k) - exact) <= 1e-15, k
        if k <= 19:
            assert abs(rule(gauss, k) - exact) <= 1e-15, k
    # and not beyond: the degrees are those of a 21- and a 10-point rule
    assert abs(rule(kronrod, 32) - 2.0 / 33) > 1e-13
    assert abs(rule(gauss, 20) - 2.0 / 21) > 1e-9


@pytest.mark.parametrize("folded", [False, True], ids=["arm", "folded-arm"])
def test_ladder_rungs_match_adaptive_within_their_estimates(folded):
    # each rung integral of one panel tree against the same integral over
    # [0, 2^m] by integrate_adaptive, within the two returned estimates;
    # the kernel is not even, so the fold's mirrored values differ
    lam, end, center = 0.0625, 1.7 * cmath.exp(0.3j), 0.2 - 0.1j

    def k(z):
        return cmath.exp(-z * z / (4.0 * lam)) / (1.0 + 0.3j * z)

    def f(z):
        return (1.0 + z) * cmath.exp(-(z - 0.3) * (z - 0.3))

    kernel = (lambda z, _lam: (k(z), k(-z))) if folded else (lambda z, _lam: (k(z),))
    n = 7
    tols = [1e-12] * n
    values, errs = integrate_ladder(kernel, lam, f, center, end, tols, [1.0] * n,
                                    (0.5, 0.25), PanelBudget())
    assert all(e <= t for e, t in zip(errs, tols))
    for m in range(n):
        s = 2.0 ** -m

        def g(u):
            z = u * end
            v = k(z) * f(center + s * z)
            if folded:
                v += k(-z) * f(center - s * z)
            return v * end

        ref, ref_err = integrate_adaptive(g, 0.0, 2.0 ** m, abs_tol=1e-14,
                                          breakpoints=[2.0 ** i for i in range(-2, 6)])
        assert abs(values[m] - ref) <= errs[m] + ref_err, m


def test_adaptive_oscillatory():
    val, err = integrate_adaptive(lambda x: math.sin(40.0 * x), 0.0, math.pi,
                                  abs_tol=1e-13)
    exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
    assert abs(val - exact) < 1e-12
    assert err < 1e-12


def test_adaptive_complex_integrand():
    val, _ = integrate_adaptive(lambda t: complex(math.cos(t), math.sin(t)),
                                0.0, math.pi / 2, abs_tol=1e-13)
    assert abs(val - complex(1.0, 1.0)) < 1e-13


def test_adaptive_breakpoints_sharp_feature():
    # narrow Gaussian bump bracketed by a geometric breakpoint ladder (the
    # pattern the kernel integrators use), so every scale is resolved
    g = lambda x: math.exp(-((x - 0.3) / 1e-4) ** 2)
    ladder = [0.3] + [0.3 + s * 1e-4 * 2.0 ** k for s in (-1, 1) for k in range(12)]
    val, _ = integrate_adaptive(g, 0.0, 1.0, abs_tol=1e-16, breakpoints=ladder)
    assert abs(val - 1e-4 * math.sqrt(math.pi)) < 1e-15


def test_adaptive_raises_when_stalled():
    # |x|^{-1/2} endpoint singularity on a budget too small to resolve it
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: abs(x) ** -0.5, 0.0, 1.0,
                           abs_tol=1e-14, budget=PanelBudget(21 * 8))


def test_a_gk15_patched_by_name_sees_every_panel(monkeypatch):
    # the benchmark's tracer counts panels and integrand evaluations by
    # wrapping quadrature.gk15 by name: every panel of integrate_adaptive
    # and integrate_segment goes through that name, and each evaluates the
    # integrand the 21 times it charges
    import plemelj.quadrature as quadrature
    calls, evals = [0], [0]
    gk15 = quadrature.gk15

    def counting_gk15(g, a, b):
        calls[0] += 1

        def counted(x):
            evals[0] += 1
            return g(x)
        return gk15(counted, a, b)

    def g(z):
        return cmath.exp(-(z - 0.3j) * (z - 0.3j)) / (1.2 + z)

    monkeypatch.setattr(quadrature, "gk15", counting_gk15)
    for name, run in (
            ("adaptive", lambda budget: integrate_adaptive(
                lambda x: math.sin(40.0 * x), 0.0, math.pi, abs_tol=1e-13,
                breakpoints=(0.5,), budget=budget)),
            ("line", lambda budget: integrate_segment(
                g, Line(-0.7 + 0.2j, 1.3 - 0.4j), abs_tol=1e-13,
                breakpoints=(0.25,), budget=budget)),
            ("arc", lambda budget: integrate_segment(
                g, Arc(0.2 - 0.1j, 0.9, -2.0, 1.1), abs_tol=1e-13,
                budget=budget))):
        budget = PanelBudget()
        calls[0] = evals[0] = 0
        run(budget)
        assert calls[0] >= 2, name
        assert budget.evals - budget.left == 21 * calls[0] == evals[0], name


@pytest.mark.parametrize("bad", [math.nan, complex(math.inf, math.inf)])
def test_adaptive_raises_on_non_finite_integrand(bad):
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: bad if x < 0.5 else 1.0, 0.0, 1.0)


@pytest.mark.parametrize("segment", [
    Line(-0.7 + 0.2j, 1.3 - 0.4j),
    Arc(0.2 - 0.1j, 0.9, -2.0, 1.1),
    Arc(0.2 - 0.1j, 0.9, 1.1, -2.0),
    Line(-2.0 ** 501 + 0.5j, 2.0 ** 501 + 2.0 ** 499 * 1j),
], ids=["line", "arc-positive-sweep", "arc-negative-sweep", "line-beyond-2^500"])
def test_segment_integrand_is_point_and_derivative(segment):
    # integrate_segment evaluates the segment's point and derivative
    # inline; the nodes and the result must be those of the methods, to
    # the bit
    scale = 1.0 / segment.length
    nodes = []

    def g(z):
        nodes.append(z)
        w = scale * z
        return cmath.exp(-(w - 0.3j) * (w - 0.3j)) + 1.0 / (2.0 + w)

    ref = integrate_adaptive(lambda t: g(segment.point(t)) * segment.derivative(t),
                             0.0, 1.0, abs_tol=1e-12, breakpoints=(0.25,))
    ref_nodes = nodes[:]
    nodes.clear()
    got = integrate_segment(g, segment, abs_tol=1e-12, breakpoints=(0.25,))
    assert repr(nodes) == repr(ref_nodes)
    assert repr(got) == repr(ref)


def test_richardson_geometric_ladder():
    # I_k = L + c1 h_k + c2 h_k^2, h_k = 2^-k
    L, c1, c2 = 0.7, 0.3, -0.2
    vals = [L + c1 * 2.0 ** -k + c2 * 4.0 ** -k for k in range(8)]
    est, err = richardson(vals, ratio=2.0)
    assert abs(est - L) < 1e-12
    assert err < 1e-9


def test_richardson_single_value():
    est, err = richardson([3.0], ratio=2.0)
    assert est == 3.0
    assert math.isinf(err)
