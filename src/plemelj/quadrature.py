"""Shared quadrature and extrapolation machinery.

Complex-valued adaptive Gauss-Kronrod (G7/K15) integration over real
parameter intervals and over piecewise contours, plus generic Richardson
extrapolation for the regularization ladders of the lambda routes.
"""
import cmath
import heapq
import math

from .contours import Line

# QUADPACK G7/K15 nodes and weights (positive half; rule is symmetric).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# 7-point Gauss weights, matching _XGK indices 1, 3, 5, 7.
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


class QuadratureError(Exception):
    """Adaptive refinement failed to reach the requested tolerance."""


# (node, Kronrod weight, Gauss weight or 0.0) of the node pairs off the
# centre, in the order gk15 sums them
_GK15_PAIRS = tuple(zip(_XGK[:7], _WGK[:7],
                        (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0)))
_WGK_CENTRE, _WG_CENTRE = _WGK[7], _WG[3]


def gk15(g, a: float, b: float):
    """One G7/K15 panel of ``g`` over [a, b].

    Returns (kronrod_value, error_estimate, magnitude) where magnitude is
    the K15 sum of |g| (used for noise floors and tail criteria).
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = g(mid)
    kron = _WGK_CENTRE * fc
    gauss = _WG_CENTRE * fc
    mag = _WGK_CENTRE * abs(fc)
    for x, wk, wg in _GK15_PAIRS:
        dx = half * x
        fl = g(mid - dx)
        fr = g(mid + dx)
        pair = fl + fr
        kron += wk * pair
        mag += wk * (abs(fl) + abs(fr))
        if wg:
            gauss += wg * pair
    kron *= half
    gauss *= half
    mag *= abs(half)
    return kron, abs(kron - gauss), mag


def integrate_adaptive(g, a: float, b: float, abs_tol: float = 1e-12,
                       breakpoints=(), max_panels: int = 4096):
    """Adaptive G7/K15 integration of complex-valued ``g`` over [a, b].

    ``breakpoints`` pre-splits the interval (pass locations of known sharp
    features, e.g. the crossing neighbourhood of a kernel integrand).
    Returns (value, error_estimate); raises QuadratureError if the panel
    budget is exhausted before the tolerance is met, or if the sum is not
    finite.
    """
    if a == b:
        return 0.0 + 0.0j, 0.0
    pts = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    total_mag = 0.0
    counter = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err, mag = gk15(g, lo, hi)
        total += val
        total_err += err
        total_mag += mag
        heapq.heappush(heap, (-err, counter, lo, hi, val))
        counter += 1
    n_panels = len(pts) - 1
    # noise floor: no point refining below roundoff of the accumulated mass
    while heap and total_err > abs_tol + 1e-16 * total_mag and n_panels < max_panels:
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        if -neg_err < 1e-3 * (abs_tol + 1e-16 * total_mag) / max(1, len(heap)):
            heapq.heappush(heap, (neg_err, counter, lo, hi, val))
            counter += 1
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            continue  # interval at roundoff width; give up on it
        v1, e1, m1 = gk15(g, lo, mid)
        v2, e2, m2 = gk15(g, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        total_mag += m1 + m2
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1
        n_panels += 1
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise QuadratureError(
            f"integrand is not finite on [{a!r}, {b!r}]: the sum is {total!r}")
    if total_err > 100 * (abs_tol + 1e-14 * total_mag):
        raise QuadratureError(
            f"adaptive quadrature stalled: error estimate {total_err:.3e} "
            f"exceeds tolerance {abs_tol:.3e} after {n_panels} panels")
    return total, total_err


def integrate_segment(g, segment, abs_tol=1e-12, breakpoints=()):
    """Integrate g(z) dz over one contour segment, a Line or an Arc.  The
    integrand evaluates the expressions of the segment's ``point`` and
    ``derivative`` inline, with one exponential per node on an arc."""
    if isinstance(segment, Line):
        a, d = segment.start, segment.end - segment.start

        def integrand(t):
            return g(a + t * d) * d
    else:
        c, r, t0, sweep = (segment.center, segment.radius,
                           segment.theta_start, segment.sweep)
        dr = 1j * sweep * r

        def integrand(t):
            e = cmath.exp(1j * (t0 + t * sweep))
            return g(c + r * e) * (dr * e)
    return integrate_adaptive(integrand, 0.0, 1.0, abs_tol=abs_tol,
                              breakpoints=breakpoints)


def integrate_contour(g, contour, abs_tol=1e-12, seg_breakpoints=None):
    """Integrate g(z) dz along a piecewise contour.

    ``seg_breakpoints`` maps segment index -> iterable of parameter values
    in (0, 1) to pre-split that segment at.
    Returns (value, error_estimate).
    """
    total = 0.0 + 0.0j
    err = 0.0
    n = len(contour.segments)
    for i, seg in enumerate(contour.segments):
        bps = () if seg_breakpoints is None else tuple(seg_breakpoints.get(i, ()))
        v, e = integrate_segment(g, seg, abs_tol=abs_tol / n, breakpoints=bps)
        total += v
        err += e
    return total, err


def richardson(values, ratio: float):
    """Richardson-extrapolate a ladder of approximations to its limit.

    ``values[k]`` is assumed to carry an error expansion in powers
    h_k^m (m = 1, 2, ...) with h_k = h_0 / ratio**k.
    Returns (limit_estimate, error_estimate) from the full triangle.
    """
    if not values:
        raise ValueError("empty extrapolation ladder")
    level = list(values)
    prev_best = level[-1]
    for m in range(1, len(values)):
        mult = ratio ** m
        level = [(mult * level[i + 1] - level[i]) / (mult - 1.0)
                 for i in range(len(level) - 1)]
        best = level[-1]
        err = abs(best - prev_best)
        prev_best = best
    if len(values) == 1:
        return prev_best, math.inf
    return prev_best, abs(err)
