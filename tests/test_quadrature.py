"""Quadrature and extrapolation building blocks."""
import cmath
import math

import pytest

from plemelj.contours import Arc, Line
from plemelj.quadrature import (PanelBudget, QuadratureError, gk15,
                                integrate_adaptive, integrate_segment,
                                richardson)


def test_kronrod_polynomial_exactness():
    # the 15-point Kronrod rule integrates monomials up to degree 22 exactly
    for k in range(0, 23):
        val, _err, _mag = gk15(lambda x, k=k: x ** k, -1.0, 1.0)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(val - exact) < 5e-15, k


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
                           abs_tol=1e-14, budget=PanelBudget(8))


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
