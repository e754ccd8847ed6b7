"""Shared quadrature and extrapolation machinery.

Complex-valued adaptive Gauss-Kronrod integration over real parameter
intervals and over contour segments (G7/K15), and the one panel tree of
a lambda-ladder arm (G10/K21), all bounded by a budget of integrand
evaluations, plus generic Richardson extrapolation for the regularization
ladders of the lambda routes.
"""
import cmath
import heapq
import math
from itertools import chain, repeat
from operator import add, gt, mul

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


class PanelBudget:
    """The integrand evaluations that a group of integrals may make between
    them; :meth:`take` raises QuadratureError once they are spent.  A GK15
    panel charges 15 and a K21 panel of the lambda ladder 21.

    Every route call charges one budget with all of its integrals.  The
    default, 30,720 evaluations (2,048 GK15 panels), is about four times
    the largest accepted call measured: in the test suite, pv_contour
    7,860 (a pole 1e-7 off the path), a lambda ladder 3,030 (a crossing
    inside an arc), tilted_plemelj 720 and deformation_route 600; in the
    benchmark's pools (seeds 1-5), a lambda ladder 1,275,
    deformation_route 525, a Plemelj functional 345 and tilted_plemelj
    270.
    An f that quadrature cannot integrate spends it in well under a
    second and raises instead of refining for tens of seconds.
    """

    def __init__(self, evals: int = 30720):
        self.evals = evals
        self.left = evals

    def take(self, n: int):
        self.left -= n
        if self.left < 0:
            raise QuadratureError(
                f"the budget of {self.evals} integrand evaluations "
                f"({self.evals // 15} GK15 panels) is spent")


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
                       breakpoints=(), budget=None):
    """Adaptive G7/K15 integration of complex-valued ``g`` over [a, b].

    ``breakpoints`` pre-splits the interval (pass locations of known sharp
    features, e.g. the crossing neighbourhood of a kernel integrand).  The
    panel with the largest error estimate is bisected until the summed
    estimate is at most abs_tol + 1e-16 * magnitude, or until the largest
    estimate is negligible next to that.  Every GK15 panel evaluated
    charges its 15 evaluations to ``budget`` (:class:`PanelBudget`, a
    fresh default one when None), which raises QuadratureError when it
    runs out.  Returns (value, error_estimate); raises QuadratureError if
    the sum is not finite or if the estimate exceeds
    100 * (abs_tol + 1e-14 * magnitude), so a refinement that stopped
    short of abs_tol but within that returns normally.
    """
    if a == b:
        return 0.0 + 0.0j, 0.0
    if budget is None:
        budget = PanelBudget()
    pts = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    budget.take(15 * (len(pts) - 1))
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
    # noise floor: no point refining below roundoff of the accumulated mass
    while heap and total_err > abs_tol + 1e-16 * total_mag:
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        if -neg_err < 1e-3 * (abs_tol + 1e-16 * total_mag) / max(1, len(heap)):
            heapq.heappush(heap, (neg_err, counter, lo, hi, val))
            counter += 1
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            continue  # interval at roundoff width; give up on it
        budget.take(30)
        v1, e1, m1 = gk15(g, lo, mid)
        v2, e2, m2 = gk15(g, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        total_mag += m1 + m2
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise QuadratureError(
            f"integrand is not finite on [{a!r}, {b!r}]: the sum is {total!r}")
    if total_err > 100 * (abs_tol + 1e-14 * total_mag):
        raise QuadratureError(
            f"adaptive quadrature stalled: error estimate {total_err:.3e} "
            f"exceeds tolerance {abs_tol:.3e}")
    return total, total_err


# QUADPACK G10/K21 nodes and weights (positive half; rule is symmetric),
# for the panels of the lambda ladder
_XGK21 = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK21 = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208643851237,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# 10-point Gauss weights, matching _XGK21 indices 1, 3, 5, 7, 9; the
# centre is a Kronrod node only.
_WG10 = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# The G10/K21 nodes on [-1, 1], the ten Gauss nodes first, then the other
# Kronrod nodes and the centre; the Kronrod weights in that order, written
# out twice (a folded arm lays the mirror images of the 21 nodes after
# them), and the Gauss weights over the Kronrod weights
_LADDER_NODES = tuple(chain.from_iterable(
    (-_XGK21[i], _XGK21[i]) for i in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8))) + (_XGK21[10],)
_LADDER_WK = tuple(_WGK21[_XGK21.index(abs(x))] for x in _LADDER_NODES) * 2
_LADDER_WG_WK = tuple(_WG10[_XGK21.index(abs(x)) // 2] / wk
                      for x, wk in zip(_LADDER_NODES[:10], _LADDER_WK))


def integrate_ladder(kernel, lam, f, center, end, tols, weights,
                     breakpoints, budget):
    """The n = len(tols) integrals

        V_m = integral over [0, 2^m] of sum_j k_j(u E) f(center + s_j u E 2^-m) E du,

    m = 0 .. n - 1, E = ``end``, on one adaptive G10/K21 panel tree over
    [0, 2^(n-1)] (QUADPACK's qk21 rule).  ``kernel(z, lam)`` returns the
    tuple (k_1(z), ...) of one or two values: (k(z),) integrates the arm
    Line(0, E) (s_1 = 1), and the mirrored pair (k(z), k(-z)) the fold of
    that arm with its mirror image, s_2 = -1, f taken at
    center - u E 2^-m, which is the integral over Line(-E, E).

    The tree is split at 2^m and at ``breakpoints``.  Rung m sums the
    panels with hi <= 2^m.  A panel evaluates the kernel once per node u.
    f is evaluated once per distinct node +-u 2^-m of the call: a panel
    [lo, hi] on rung m and the panel [2 lo, 2 hi] on rung m + 1 share
    their nodes exactly.  The panel with the largest weighted estimate
    sum |weights[m]| e_m is bisected until every rung's summed estimate is
    at most tols[m] + 1e-16 * its magnitude, or until the largest weighted
    estimate is negligible next to those tolerances.  Returns (values,
    error_estimates), one per rung, each value summed exactly over the
    final panels (``math.fsum``); raises QuadratureError, as
    :func:`integrate_adaptive` does, for a rung whose sum is not finite or
    whose estimate exceeds 100 * (tols[m] + 1e-14 * magnitude), and when
    the ``budget`` (:class:`PanelBudget`), charged 21 evaluations per
    panel, is spent.

    K21 rather than K15: the tight last rungs bisect a K15 tree well past
    its pre-splits on the pessimistic |K15 - G7| estimate, while K21 meets
    them on the pre-split tree (on Line(-2.5, 2.5) with the half-line
    kernel, 11 panels instead of 19), and every panel also pays the rung
    sums over its f vector.
    """
    n = len(tols)
    top = 2.0 ** (n - 1)
    pts = sorted({0.0, top, *(2.0 ** m for m in range(n - 1)),
                  *(p for p in breakpoints if 0.0 < p < top)})
    scales = [2.0 ** -m for m in range(n)]
    aw = [abs(c) for c in weights]
    f_at = {}       # (lo 2^-m, hi 2^-m) -> f at the nodes of rung m's panel

    def panel(lo, hi):
        """(values, estimates, magnitudes) of [lo, hi] per rung, 0 on the
        rungs it does not serve."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        zs = [(mid + half * x) * end for x in _LADDER_NODES]
        ks = list(chain.from_iterable(zip(*map(kernel, zs, repeat(lam)))))
        kw = list(map(mul, _LADDER_WK, ks))
        folded = len(ks) > len(zs)
        nodes = zs + [-z for z in zs] if folded else zs
        scale = half * end
        size = abs(scale)
        frac, first = math.frexp(hi)     # the first rung m with hi <= 2^m
        first = max(0, first - 1 if frac == 0.5 else first)
        vals, errs, mags = [0j] * first, [0.0] * first, [0.0] * first
        for s in scales[first:]:
            key = (lo * s, hi * s)
            fs = f_at.get(key)
            if fs is None:
                fs = f_at[key] = list(map(f, [center + s * z for z in nodes]))
            prods = list(map(mul, kw, fs))
            # a node's term adds its mirror image's before the panel sums,
            # so the parts of the two halves that cancel do so first
            terms = list(map(add, prods, prods[len(zs):])) if folded else prods
            kron = sum(terms)
            vals.append(scale * kron)
            errs.append(size * abs(kron - sum(map(mul, _LADDER_WG_WK, terms))))
            mags.append(size * sum(map(abs, prods)))
        return vals, errs, mags

    budget.take(21 * (len(pts) - 1))
    spans = list(zip(pts[:-1], pts[1:]))
    vals, errs, mags = zip(*[panel(lo, hi) for lo, hi in spans])
    total = list(map(sum, zip(*vals)))
    total_err = list(map(sum, zip(*errs)))
    total_mag = list(map(sum, zip(*mags)))
    heap = [(-sum(map(mul, aw, e)), counter, lo, hi, v, e)
            for counter, ((lo, hi), v, e) in enumerate(zip(spans, vals, errs))]
    heapq.heapify(heap)
    counter = len(heap)
    kept = []       # values of the panels left out of the heap
    while heap:
        floors = [t + 1e-16 * m for t, m in zip(tols, total_mag)]
        if not any(map(gt, total_err, floors)):
            break
        neg_err, _, lo, hi, vals, errs = heapq.heappop(heap)
        if not 1e-3 * sum(map(mul, aw, floors)) / max(1, len(heap)) <= -neg_err < math.inf:
            kept.append(vals)
            break     # negligible, or not finite (the checks below raise)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            kept.append(vals)
            continue  # interval at roundoff width; give up on it
        budget.take(42)
        v1, e1, m1 = panel(lo, mid)
        v2, e2, m2 = panel(mid, hi)
        total = [t + a + b - v for t, a, b, v in zip(total, v1, v2, vals)]
        total_err = [t + a + b - e for t, a, b, e in zip(total_err, e1, e2, errs)]
        total_mag = [t + a + b for t, a, b in zip(total_mag, m1, m2)]
        heapq.heappush(heap, (-sum(map(mul, aw, e1)), counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-sum(map(mul, aw, e2)), counter + 1, mid, hi, v2, e2))
        counter += 2
    for m, (v, e, t, mag) in enumerate(zip(total, total_err, tols, total_mag)):
        if not cmath.isfinite(v):
            raise QuadratureError(
                f"rung {m}: integrand is not finite on [0, {2.0 ** m!r}]: "
                f"the sum is {v!r}")
        if e > 100 * (t + 1e-14 * mag):
            raise QuadratureError(
                f"rung {m}: adaptive quadrature stalled: error estimate "
                f"{e:.3e} exceeds tolerance {t:.3e}")
    # the running totals steer the loop; the values are summed afresh over
    # the final panels, free of the rounding that each update left in them
    leaves = kept + [entry[4] for entry in heap]
    return ([complex(math.fsum(v.real for v in rung), math.fsum(v.imag for v in rung))
             for rung in zip(*leaves)], total_err)


def integrate_segment(g, segment, abs_tol=1e-12, breakpoints=(), budget=None):
    """Integrate g(z) dz over one contour segment, a Line or an Arc, by
    :func:`integrate_adaptive` in its parameter t on [0, 1], charged to
    ``budget``.  The integrand evaluates the expressions of the segment's
    ``point`` and ``derivative`` inline, with one exponential per node on
    an arc."""
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
                              breakpoints=breakpoints, budget=budget)


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
