"""Extended Sokhotski-Plemelj functionals on complex contours.

For an analytic test function f integrable along an oriented contour that
crosses the origin inside the appropriate wedge domain,

    forward:   <I(+), f> =  i PV (f/z) - dtheta(+i) f(0)
    backward:  <I(-), f> = -i PV (f/z) + dtheta(-i) f(0)
    delta:     <2 pi delta, f> = forward + backward = 2 pi w f(0)

where PV is the symmetric-excision principal value along the contour.
For the kernel s/z, s = +-i, dtheta(s) is the signed angle that a small
indentation of the path around the origin sweeps from the incoming arm to
the outgoing one on the side of s, avoiding the direction -s, the centre
of the kernel's excluded wedge.  A path straight at the crossing has
dtheta(+i) = -pi and dtheta(-i) = pi left to right, the textbook pi f(0),
and the opposite right to left; a turn alpha = phase(d_out / d_in) at the
crossing adds alpha to both.  The winding w = (dtheta(-i) - dtheta(+i)) /
2 pi is 1 left to right, -1 right to left and 0 for a U-turn.
:func:`pv_contour` computes it without a limit, by subtracting the
singularity: PV (f/z) = integral of (f(z) - f(0))/z dz + f(0) L, where the
first integrand is regular and L = ln|end/start| + i (turn of arg z along
the path) is the PV of dz/z in closed form.

Two independent verification routes are provided: :func:`deformation_route`
integrates i f(z)/z over the path deformed around the origin by one
circular arc (Cauchy's theorem makes the value independent of its
radius), and :func:`lambda_route` integrates the
Gaussian-regularized kernel against f and extrapolates the regularization
away in lambda — the statement that these agree with the formula
route is the library's central numerical theorem, exercised by the
verification suites.

:func:`overlap_delta` applies the same machinery to the sifting property
of the shifted full-line kernel along paths of bounded slope, recovering
2 pi f(z2).

Every route, like the functionals, reports an f that overflows, divides
by zero, or that quadrature cannot integrate along the path as
AdmissibilityError.  All the quadrature of one route call shares one
panel budget (:class:`~plemelj.quadrature.PanelBudget`), so that refusal
comes after bounded work.

The built-in test-function catalog (:func:`catalog_function`) knows
"one", "gauss(a)", "poly_gauss(n,a)" and "cos_gauss".
"""
import cmath
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

from .contours import (
    Arc,
    Contour,
    ContourError,
    Line,
    WedgeDomain,
    crossing_arms,
    domain_violations,
    meets_off_crossing,
    deform_at_origin,
)
from .kernels import (full_line_kernel, full_line_kernel_pair, j_kernel,
                      j_kernel_pair)
from .quadrature import (PanelBudget, QuadratureError, integrate_ladder,
                         integrate_segment, richardson)
from .special_functions import erfc_complex


class AdmissibilityError(ValueError):
    """Test function fails its contract on the requested contour."""


class PvDivergenceError(AdmissibilityError):
    """(f(z) - f(0))/z cannot be integrated next to the crossing (f is not
    analytic there, e.g. has a pole on the path); the principal value does
    not exist."""


class DomainViolationError(ValueError):
    """Contour leaves the convergence domain required by the functional."""

    def __init__(self, message, segment_index=None):
        super().__init__(message)
        self.segment_index = segment_index


class OrientationError(ValueError):
    """Contour runs right to left where a route needs increasing real part
    (the slope check of :func:`overlap_delta`)."""


# -- test functions --------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Analytic function handle with the metadata the functionals need.

    ``value_at_zero`` may be supplied (it is cross-checked against an
    evaluation at 0 and a mismatch beyond 1e-10 is an error) or left None
    to be evaluated.  Handles must be pure: they are called concurrently,
    and the routes memoise f within a call, evaluating it once per
    distinct point.
    """
    eval: callable
    value_at_zero: complex = None
    label: str = ""

    __test__ = False   # keep pytest collection away from the domain name

    def __call__(self, z: complex) -> complex:
        return self.eval(z)

    def at_zero(self) -> complex:
        """f(0), preferring the declared value but never trusting it blindly."""
        computed = complex(self.eval(0.0 + 0.0j))
        if self.value_at_zero is None:
            return computed
        declared = complex(self.value_at_zero)
        if abs(declared - computed) > 1e-10 * max(1.0, abs(declared)):
            raise AdmissibilityError(
                f"declared f(0) = {declared!r} disagrees with the evaluated "
                f"value {computed!r} beyond 1e-10")
        return declared


_GAUSS_RE = re.compile(r"^gauss\(\s*([^)]+?)\s*\)$")
_POLY_GAUSS_RE = re.compile(r"^poly_gauss\(\s*(\d+)\s*,\s*([^)]+?)\s*\)$")


def _parse_center(text: str) -> complex:
    try:
        a = complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse test-function parameter {text!r}")
    if not cmath.isfinite(a):
        raise ValueError(f"test-function parameter {text!r} must be finite")
    return a


def _exp_neg_square(a: complex):
    try:
        return cmath.exp(-a * a)
    except OverflowError:   # undeclared; the functional reports f(0)'s overflow
        return None


def catalog_function(name: str) -> TestFunction:
    """Catalog lookup: "one", "gauss(a)", "poly_gauss(n,a)", "cos_gauss"."""
    name = name.strip()
    if name == "one":
        return TestFunction(lambda z: 1.0 + 0.0j, value_at_zero=1.0, label="one")
    if name == "cos_gauss":
        return TestFunction(lambda z: cmath.cos(z) * cmath.exp(-z * z),
                            value_at_zero=1.0, label="cos_gauss")
    m = _GAUSS_RE.match(name)
    if m:
        a = _parse_center(m.group(1))
        return TestFunction(lambda z, a=a: cmath.exp(-(z - a) * (z - a)),
                            value_at_zero=_exp_neg_square(a), label=name)
    m = _POLY_GAUSS_RE.match(name)
    if m:
        n = int(m.group(1))
        a = _parse_center(m.group(2))
        f0 = _exp_neg_square(a) if n == 0 else 0.0 + 0.0j
        return TestFunction(lambda z, n=n, a=a: z ** n * cmath.exp(-(z - a) * (z - a)),
                            value_at_zero=f0, label=name)
    raise ValueError(f"unknown test function {name!r}; the catalog knows "
                     "'one', 'gauss(a)', 'poly_gauss(n,a)', 'cos_gauss'")


CATALOG_EXAMPLES = ("one", "gauss(0)", "gauss(0.3)", "poly_gauss(1,0)",
                    "poly_gauss(2,0.3)", "cos_gauss")


def check_analytic(f, path: Contour):
    """Spot-check analyticity of f at 20 points along the path: the
    centered difference quotients taken in two orthogonal directions must
    agree to 1e-6 relative (a finite Cauchy-Riemann stencil).  Raises
    AdmissibilityError on failure."""
    n = len(path.segments)
    for k in range(20):
        seg = path.segments[k % n]
        t = ((k * 0.37) % 0.9) + 0.05
        z0 = seg.point(t)
        h = 1e-5 * max(1.0, abs(z0))
        d_re = (f(z0 + h) - f(z0 - h)) / (2.0 * h)
        d_im = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2j * h)
        resid = abs(d_re - d_im)
        scale = max(1.0, abs(d_re), abs(d_im))
        if resid > 1e-6 * scale:
            raise AdmissibilityError(
                f"Cauchy-Riemann residual {resid:.3e} at z = {z0!r} exceeds "
                f"1e-06 * {scale:.3g}; the handle is not analytic there")


@contextmanager
def _admissible_f(op: str):
    """The one context of a route call's work on f.  Yields the call's
    :class:`PanelBudget`, which every integral of the call charges, and
    reports an f that overflows or divides by zero (ArithmeticError), or
    that quadrature cannot integrate along the path within the budget, as
    AdmissibilityError rather than as the bare error."""
    try:
        yield PanelBudget()
    except (ArithmeticError, QuadratureError) as exc:
        raise AdmissibilityError(
            f"{op}: f overflows, divides by zero or cannot be integrated "
            f"along the path ({exc})") from exc


def _admit_crossing_path(path: Contour, op: str, domain: WedgeDomain = None):
    """Check the path contract of every route that integrates through the
    crossing, in this order:

    - the path is finite (else AdmissibilityError);
    - with a ``domain``, it stays inside it (else DomainViolationError)
      and meets its apex only at a marked crossing (else ContourError),
      which it must have (else DomainViolationError);
    - it is marked as crossing the origin, the crossing is not an end of
      the path, and it meets the origin nowhere else (else ContourError).

    Each message starts with ``op``, the name of the route called."""
    if path.is_infinite:
        raise AdmissibilityError(
            f"{op} requires a finite contour; truncate infinite rays first "
            "(Contour.truncated)")
    if domain is not None:
        detail = domain_violations(path, domain)
        if detail["unmarked_apex"]:
            raise ContourError(
                f"{op}: path passes through the domain apex away from a marked crossing")
        if detail["violations"]:
            seg, t, z = detail["violations"][0]
            raise DomainViolationError(
                f"{op}: contour leaves the {domain.kind} wedge domain at segment "
                f"{seg}, t = {t:.4g}, z = {z:.6g}", segment_index=seg)
        if not detail["apex_crossing"]:
            raise DomainViolationError(
                f"{op}: contour must cross the origin (marked) for this functional",
                segment_index=None)
    if path.crossing is None:
        raise ContourError(f"{op} needs a contour marked as crossing 0")
    if 0.0 in path.arm_lengths():
        raise ContourError(f"{op}: the marked crossing is an end of the path")
    # with a domain, domain_violations made this test at its apex, the origin
    if domain is None and meets_off_crossing(path, 0.0 + 0.0j):
        raise ContourError(
            f"{op}: path passes through the origin away from its marked crossing")


# -- principal value -------------------------------------------------------

_QUAD_TOL = 1e-12


def _evaluator(f):
    """The plain callable behind f: a TestFunction's ``eval``, or f itself."""
    return f.eval if isinstance(f, TestFunction) else f


def _f_at_zero(f, op: str) -> complex:
    """f(0), the declared value of a TestFunction checked against an
    evaluation; AdmissibilityError unless it is finite."""
    try:
        f0 = f.at_zero() if isinstance(f, TestFunction) else complex(f(0.0 + 0.0j))
    except ZeroDivisionError as exc:
        raise AdmissibilityError(f"{op}: f(0) is not finite ({exc})") from exc
    if not cmath.isfinite(f0):
        raise AdmissibilityError(f"{op}: f(0) = {f0!r} is not finite")
    return f0


def _arc_turn(arc: Arc) -> float:
    """Turn of arg z along an arc that misses the origin.  With
    z = c + r e^{i theta}, arg z = arg c + arg(1 + (r/c) e^{i theta}) when
    the origin lies outside the circle, and theta + arg(1 + (c/r) e^{-i theta})
    when it lies inside; either second term stays on the principal branch."""
    c, r = arc.center, arc.radius
    if abs(c) > r:
        w, sign, turn = r / c, 1j, 0.0
    else:
        w, sign, turn = c / r, -1j, arc.sweep
    return (turn + cmath.phase(1.0 + w * cmath.exp(sign * arc.theta_end))
            - cmath.phase(1.0 + w * cmath.exp(sign * arc.theta_start)))


def _turn(pieces) -> float:
    """Turn of arg z along (segment, at_origin) pieces, the jump at the
    origin left out.  A line piece at the origin keeps arg z fixed; an arc
    piece at the origin turns it by half its sweep (inscribed angle); any
    other line piece from p to q turns it by phase(q/p), any other arc
    piece by :func:`_arc_turn`."""
    total = 0.0
    for seg, at_origin in pieces:
        if isinstance(seg, Line):
            total += 0.0 if at_origin else cmath.phase(seg.end / seg.start)
        else:
            total += 0.5 * seg.sweep if at_origin else _arc_turn(seg)
    return total


def _principal_value(f, path: Contour, f0: complex, budget: PanelBudget):
    """PV of f(z)/z along a crossing-marked path, by subtracting the
    singularity:

        PV = integral of (f(z) - f0)/z dz + f0 (ln|end/start| + i turn)

    where turn is that of arg z along the path (:func:`_turn`).  The first
    integrand is regular; each piece of the path, the crossing segment cut
    at the origin (:func:`crossing_arms`), is integrated by adaptive
    Gauss-Kronrod, none of whose nodes is an endpoint, charged to
    ``budget``.  Returns (pv, error_estimate), the estimate being the
    summed quadrature estimates.

    The path must have passed :func:`_admit_crossing_path`.  An integral
    that quadrature cannot finish next to the crossing, with the budget
    not spent, raises PvDivergenceError.
    """
    check_analytic(f, path)
    before, after = crossing_arms(path)
    pieces = ([(seg, k == len(before) - 1) for k, seg in enumerate(before)]
              + [(seg, k == 0) for k, seg in enumerate(after)])
    f_of = _evaluator(f)
    value, err = 0.0 + 0.0j, 0.0
    for seg, at_origin in pieces:
        try:
            v, e = integrate_segment(lambda z: (f_of(z) - f0) / z, seg,
                                     abs_tol=_QUAD_TOL, budget=budget)
        except (QuadratureError, ZeroDivisionError) as exc:
            if not at_origin or budget.left < 0:
                raise       # a spent budget says nothing about the PV
            raise PvDivergenceError(
                "(f(z) - f(0))/z cannot be integrated next to the "
                f"crossing ({exc}); the principal value does not exist") from exc
        value += v
        err += e
    log_ratio = math.log(abs(path.end)) - math.log(abs(path.start))
    return value + f0 * complex(log_ratio, _turn(pieces)), err


def pv_contour(f, path: Contour) -> complex:
    """Principal value of the integral of f(z)/z along a crossing-marked
    contour: the limit of the integral with a symmetric (radius-epsilon)
    neighbourhood of the origin excised.  Computed without a limit, as the
    regular integral of (f(z) - f(0))/z plus f(0) times the closed-form PV
    of dz/z (:func:`_principal_value`).  Its error is the quadrature's,
    estimated at 1e-12 per path piece above the roundoff floor of large
    integrands; a piece that quadrature cannot bring within 100 times that
    raises.

    Raises ContourError for a path that meets the origin away from its
    marked crossing or whose crossing is one of its ends,
    AdmissibilityError for an infinite path or a non-finite f(0), and
    PvDivergenceError when (f(z) - f(0))/z cannot be integrated next to
    the crossing (f is not admissible at the origin, e.g. has a pole on
    the path there).
    """
    _admit_crossing_path(path, "pv_contour")
    with _admissible_f("pv_contour") as budget:
        pv, _err = _principal_value(f, path, _f_at_zero(f, "pv_contour"), budget)
    return pv


# -- the extended Plemelj functionals --------------------------------------

@dataclass(frozen=True)
class FunctionalResult:
    """Value of a Plemelj functional with its principal-value / delta
    decomposition.

    For plemelj_plus and plemelj_minus, value = pv_part + delta_part holds
    exactly by construction, delta_part being the indentation's term
    -dtheta(+i) f(0) or dtheta(-i) f(0).  For plemelj_delta, value and
    pv_part are the sums of the one-sided ones and delta_part is
    2 pi w f(0), w the winding of the crossing (1, 0 or -1), their sum with
    the turn terms cancelled, so value may differ from pv_part + delta_part
    in the last bits.
    """
    value: complex
    pv_part: complex
    delta_part: complex


def _sweep(path: Contour, s: complex) -> float:
    """dtheta(s): the signed angle that a small indentation at the marked
    crossing sweeps from the incoming arm, direction -d_in, to the outgoing
    one, d_out, for the kernel s/z, s = +-i.  Of the two arcs,
    alpha - pi (clockwise from -d_in) and alpha + pi (counterclockwise),
    alpha = phase(d_out / d_in) the turn of the path there, it takes the
    one that avoids the direction -s, the centre of the kernel's excluded
    wedge; the domain check keeps both arms out of that wedge, so exactly
    one does.  Measured from s, -d_in lies at theta in (-pi, pi), and the
    arc alpha - pi stays in that range iff theta + alpha > 0."""
    d_in, d_out = path.crossing_directions()
    # complex d / d can miss 1 by 1e-17j; a straight crossing keeps alpha = 0
    alpha = 0.0 if d_in == d_out else cmath.phase(d_out / d_in)
    if cmath.phase(-d_in / s) + alpha > 0.0:
        return alpha - math.pi
    return alpha + math.pi


def _plemelj(f, path: Contour, op: str, domain: WedgeDomain,
             signs: tuple) -> FunctionalResult:
    """Sum over the one-sided kernels s = +i (forward) and s = -i (mirrored)
    in ``signs`` of s PV(f/z) + s i dtheta(s) f(0) (:func:`_sweep`), from
    one domain check, one f(0) and one principal value.  In a two-sided sum
    (the delta) the turns cancel, and its delta_part is 2 pi w f(0) exactly,
    w = (dtheta(-i) - dtheta(+i)) / 2 pi the winding of the crossing."""
    _admit_crossing_path(path, op, domain)
    with _admissible_f(op) as budget:
        f0 = _f_at_zero(f, op)
        pv, _err = _principal_value(f, path, f0, budget)
    sides, sweeps = [], []
    for s in signs:     # s i = -s.imag, -1 forward and 1 mirrored
        sweeps.append(_sweep(path, s))
        delta_part = -s.imag * sweeps[-1] * f0
        sides.append(FunctionalResult(s * pv + delta_part, s * pv, delta_part))
    if len(sides) == 1:
        return sides[0]
    plus, minus = sides
    winding = round((sweeps[1] - sweeps[0]) / (2.0 * math.pi))
    return FunctionalResult(
        plus.value + minus.value, plus.pv_part + minus.pv_part,
        2.0 * math.pi * winding * f0)


def plemelj_plus(f, path: Contour) -> FunctionalResult:
    """Action of the forward kernel limit i/z on f along the path:
    i PV(f/z) - dtheta(+i) f(0), for paths inside the 'plus' wedge domain
    that cross the origin in any direction; dtheta(+i) is the angle that
    an indentation above the origin sweeps from the incoming arm to the
    outgoing one (:func:`_sweep`).  Left to right this is
    i PV(f/z) + (pi - alpha) f(0), alpha the turn of the path's direction
    at a crossing on a vertex (0 inside a segment); right to left it is
    i PV(f/z) - (pi + alpha) f(0)."""
    return _plemelj(f, path, "plemelj_plus", WedgeDomain.plus(), (1j,))


def plemelj_minus(f, path: Contour) -> FunctionalResult:
    """Action of the mirrored kernel limit -i/z on f along the path:
    -i PV(f/z) + dtheta(-i) f(0), for paths inside the 'minus' wedge
    domain, the indentation passing below the origin.  Left to right this
    is -i PV(f/z) + (pi + alpha) f(0), right to left
    -i PV(f/z) - (pi - alpha) f(0), alpha as in :func:`plemelj_plus`."""
    return _plemelj(f, path, "plemelj_minus", WedgeDomain.minus(), (-1j,))


def plemelj_delta(f, path: Contour) -> FunctionalResult:
    """Action of the two-sided delta on f: forward + backward functional,
    with the PV/delta split of the sum.  The path must lie in the
    intersection domain and cross the origin; the value is 2 pi w f(0),
    w the winding of the crossing: 1 left to right, -1 right to left and
    0 for a U-turn, as ``lambda_route(f, path, "full_line")`` gives it."""
    return _plemelj(f, path, "plemelj_delta", WedgeDomain.intersection(),
                    (1j, -1j))


# -- verification routes ----------------------------------------------------

def deformation_route(f, path: Contour, side: str = "above") -> complex:
    """Kernel action computed over the path deformed around the origin by a
    circular arc of radius 0.1 * (the shorter arm length).

    side='above' integrates the forward kernel i f(z)/z over the path with
    the origin circled from above and must agree with plemelj_plus;
    side='below' integrates the mirrored kernel -i f(z)/z (the mirrored
    picture) and must agree with plemelj_minus, for every crossing
    direction where such an arc exists, the turn of a crossing on a vertex
    included.  A U-turn in the intersection domain has none and raises
    ContourError.
    This is the geometric half of the extended formulas.  The integrand is
    analytic off the origin, so by Cauchy's theorem the deformed integral
    does not depend on the arc radius, and one radius gives the value.
    Each deformed segment is integrated to 1e-12 / (number of segments),
    pre-split at its point nearest the origin where that lies within
    4 eps.  A path that meets the origin away from its marked crossing,
    or whose crossing is one of its ends, raises ContourError.
    """
    _admit_crossing_path(path, "deformation_route")
    sign = 1j if side == "above" else -1j
    before, after = path.arm_lengths()
    eps = 0.1 * min(before, after)
    deformed = deform_at_origin(path, eps, side).segments
    f_of = _evaluator(f)
    value = 0.0 + 0.0j
    with _admissible_f("deformation_route") as budget:
        for seg in deformed:
            d, t = seg.min_distance(0.0 + 0.0j)
            cut = (t,) if d < 4.0 * eps and 1e-9 < t < 1.0 - 1e-9 else ()
            v, _e = integrate_segment(lambda z: sign * f_of(z) / z, seg,
                                      abs_tol=_QUAD_TOL / len(deformed),
                                      breakpoints=cut, budget=budget)
            value += v
    return value


# The regularization error is a series in whole powers of lambda: the
# full-line kernel is the heat kernel, <K_lam(. - z2), f> =
# 2 pi sum_n lam^n f^(2n)(z2) / n!, and away from the origin J follows
# A&S 7.1.23 in 1/w^2 = -4 lam / z^2.  Seven values reach the quadrature
# floor; each smaller lambda costs more panels next to the kernel centre.
# The ladder, which lambda_route and overlap_delta share, has ratio 4,
# which halves sqrt(lambda) exactly from one value to the next, and
# 4^m lambda_m == lambda_0 holds exactly on every rung, so on an arm every
# rung integrates the same kernel, kernel(., lambda_0), in a scaled
# variable, and one panel tree serves all seven (see _arm_rungs).
_LAMBDA_LADDER = tuple(0.0625 * 0.25 ** m for m in range(7))


def _richardson_weights(n: int, ratio: float):
    """Weights c_k of the Richardson triangle over n rungs of the given
    ratio.  The triangle is linear, so its limit is sum c_k V_k, and c_k is
    the limit of the ladder that is 1 on rung k and 0 on the others."""
    return [richardson([float(j == k) for j in range(n)], ratio)[0]
            for k in range(n)]


# The weights of the ladder: 3.3e-13 on the first rung up to 1.45 on the
# last.  The last rungs carry the limit, the first ones almost nothing, so
# each rung is integrated only as tightly as its weight needs.
_WEIGHTS = _richardson_weights(7, 4.0)


def _rung_tolerances(tol: float):
    """Quadrature tolerance of each rung, tol sum|c_j| / (n |c_k|): every
    rung adds an equal share to the propagated bound sum |c_k| tol_k, which
    stays tol sum |c_k|."""
    share = tol * sum(abs(c) for c in _WEIGHTS) / len(_WEIGHTS)
    return [share / abs(c) for c in _WEIGHTS]


def _centred_pieces(path: Contour, loc, center: complex):
    """The path in the offset zeta = z - center, cut at ``loc``, its point
    next to the kernel centre.  Returns (arms, rest): arms are
    (end, sign, folded) triples; rest are (segment, breakpoints) pairs,
    the other pieces in path order.  An unfolded arm is the Line from
    exactly zeta = 0 to ``end``, the one before the cut reversed
    (sign -1); a folded arm is the Line(-end, end) through zeta = 0, the
    arm and its mirror image.  The signed integrals add up to the path's.

    A cut inside a Line folds its two sides: the longer one is cut at the
    shorter one's length, the two mirror images +-end form the folded arm,
    and the longer side's leftover, a Line that does not meet the centre,
    joins the rest.  A cut at a vertex between Lines (or at an end of the
    path) makes one arm of each Line next to it.  That moves the crossing,
    within CROSSING_TOL of a marked crossing or 1e-10 of overlap's z2, to
    the centre; the path stays continuous and its ends stay fixed, so by
    Cauchy's theorem the integral of the analytic integrand does not
    change.  An arc next to the cut keeps the vertex where it is, and an
    arc cut inside is integrated whole, with the cut as a breakpoint.
    """
    segs = [seg.shifted(-center) for seg in path.segments]
    i, t = loc
    if 1e-13 < t < 1.0 - 1e-13:      # inside segment i
        if isinstance(segs[i], Arc):
            return [], [(seg, (t,) if k == i else ()) for k, seg in enumerate(segs)]
        start, end = segs[i].start, segs[i].end
        if abs(end) <= abs(start):
            fold, left = end, (start, -end)
        else:
            fold, left = -start, (-start, end)
        rest = [(seg, ()) for seg in segs]
        gap = abs(start + end)       # the leftover's length
        if gap * gap == 0.0:         # too short for a Line: the sides match
            del rest[i]
        else:
            rest[i] = (Line(*left), ())
        return [(fold, 1.0, True)], rest
    b = i - 1 if t <= 1e-13 else i   # at the vertex after segment b
    a = b + 1
    if not all(isinstance(seg, Line) for seg in segs[max(b, 0):a + 1]):
        return [], [(seg, ()) for seg in segs]
    arms = []
    if b >= 0:
        arms.append((segs[b].start, -1.0, False))
    if a < len(segs):
        arms.append((segs[a].end, 1.0, False))
    rest = [(seg, ()) for k, seg in enumerate(segs) if not b <= k <= a]
    return arms, rest


def _arm_rungs(kernel, f_of, center: complex, end: complex, tols, budget):
    """The rung integrals V_m of kernel(zeta, lambda_m) f(center + zeta)
    dzeta over the arm Line(0, ``end``), or over the folded arm
    Line(-end, end), and their estimates, from one G10/K21 panel tree
    (:func:`integrate_ladder`) charged to ``budget``.  ``kernel`` returns
    (k(zeta),) for an arm and the mirrored pair (k(zeta), k(-zeta)) for a
    folded one.

    Substituting x -> x/s in the defining integrals gives the scaling law
    s J(s zeta, s^2 lam) = J(zeta, lam), and the same for the mirrored and
    the full-line kernel.  On rung m, s = 2^m and s^2 lambda_m = lam0, the
    first rung's lambda, exactly; so with zeta = t E and u = 2^m t,

        V_m = integral over [0, 2^m] of kernel(u E, lam0) f(center + u E 2^-m) E du,

    (on a folded arm plus kernel(-u E, lam0) f(center - u E 2^-m) E), and
    every rung sees the same kernel.  Besides the rung ends 2^m, the
    tree is pre-split at the powers of two 2^i < 1 with 2^i |E| >
    0.4 sqrt(lam0), so it holds every rung's pre-splits in t, at 2^-k with
    2^-k |E| > 0.4 sqrt(lambda_m).
    """
    lam0 = _LAMBDA_LADDER[0]
    floor = 0.4 * math.sqrt(lam0)
    splits, u = [], 0.5      # integrate_ladder splits at every 2^m, m >= 0
    while u * abs(end) > floor:
        splits.append(u)
        u *= 0.5
    return integrate_ladder(kernel, lam0, f_of, center, end, tols, _WEIGHTS,
                            splits, budget)


def _regularized_limit(kernel, pair, f, path: Contour, loc,
                       budget: PanelBudget, center=0.0 + 0.0j):
    """Integrate kernel(z - center, lambda) f(z) along the path for each
    lambda of the 7-rung ladder of ratio 4 (``_LAMBDA_LADDER``) and
    Richardson-extrapolate the regularization away.  ``pair(zeta, lam)``
    gives (kernel(zeta, lam), kernel(-zeta, lam)), bit for bit.  ``loc``
    is the path's point at the centre.  Returns (limit, error_estimate).

    The limit is sum c_k V_k over the rung integrals V_k, with the
    triangle's weights c_k (``_WEIGHTS``), so a quadrature error e_k on
    rung k moves the limit by |c_k| e_k.  Rung k is integrated to
    tol sum|c_j| / (n |c_k|) per piece (:func:`_rung_tolerances`),
    tol = 1e-11 / (number of pieces): each rung adds an equal share to the
    propagated bound sum |c_k| tol_k = tol sum |c_k|, the bound of a ladder
    run at tol on every rung.  The last rung tightens to 0.19 tol, and the
    first four, whose errors the triangle all but cancels, loosen to
    550 tol and more.
    The error estimate is the larger of the triangle's last correction and
    the propagated quadrature estimate sum |c_k| e_k, e_k the summed
    quadrature estimates of rung k, plus the kernel mass that the rungs
    lose beyond the path's ends (:func:`_end_tails`).

    The path is integrated in zeta = z - center, cut at the centre into
    arms and other pieces (:func:`_centred_pieces`).  Each arm is
    integrated once for all seven rungs, in u = 2^m t, where every rung
    sees the same kernel (:func:`_arm_rungs`).  Where the centre lies
    inside a Line, its two sides fold into one arm over Line(-E, E): one
    tree, whose every node takes both kernel values from one ``pair``
    call, one erfcx for a half-line kernel.  Each other piece, the longer
    side's leftover included, is integrated rung by rung
    (:func:`integrate_segment`), kernel(zeta, lambda) evaluated directly,
    and pre-split where it crosses a circle of radius 2^-k times the
    shorter side of the path, k >= 1, down to 0.4 sqrt(lambda); a memo
    keyed by zeta evaluates f once per distinct node of its rungs.

    All of it charges the route call's ``budget``, so an f that quadrature
    cannot integrate raises QuadratureError after bounded work.
    """
    arms, rest = _centred_pieces(path, loc, center)
    i, t = loc
    before = sum(seg.length for seg in path.segments[:i]) + t * path.segments[i].length
    side = min(v for v in (before, path.length - before)
               if v > 1e-13 * path.length)
    tols = _rung_tolerances(1e-11 / (len(arms) + len(rest)))
    f_of = _evaluator(f)
    values = [0.0 + 0.0j] * len(_LAMBDA_LADDER)
    errs = [0.0] * len(_LAMBDA_LADDER)
    for end, sign, folded in arms:
        k_of = pair if folded else lambda zeta, lam: (kernel(zeta, lam),)
        vs, es = _arm_rungs(k_of, f_of, center, end, tols, budget)
        values = [v + sign * w for v, w in zip(values, vs)]
        errs = [e + w for e, w in zip(errs, es)]
    f_memo = {}

    def f_at(zeta):
        v = f_memo.get(zeta)
        if v is None:
            v = f_memo[zeta] = f_of(center + zeta)
        return v

    for m, (lam, tol) in enumerate(zip(_LAMBDA_LADDER, tols)):
        floor = 0.4 * math.sqrt(lam)
        radii = []
        r = 0.5 * side
        while r > floor:
            radii.append(r)
            r *= 0.5
        for seg, cut in rest:
            splits = [u for r in radii for u in seg.radius_hits(r)
                      if 1e-9 < u < 1.0 - 1e-9]
            v, e = integrate_segment(lambda zeta: kernel(zeta, lam) * f_at(zeta),
                                     seg, abs_tol=tol,
                                     breakpoints=splits + list(cut), budget=budget)
            values[m] += v
            errs[m] += e
    limit, correction = richardson(values, ratio=4.0)
    propagated = sum(abs(c) * e for c, e in zip(_WEIGHTS, errs))
    return limit, max(correction, propagated) + _end_tails(f_of, path, center)


def _end_tails(f_of, path: Contour, center: complex) -> float:
    """A bound on what the ladder's limit loses with the kernel's mass
    beyond the ends of the path:

        sum over the ends of |f(end)| sum_k |c_k| pi |erfc(x_k)|,

    x_k = +-(end - center) / (2 sqrt(lambda_k)), the sign making
    Re x_k >= 0.  Continued from an end in the kernel's decay sector,
    integral sqrt(pi/lambda) exp(-zeta^2/4 lambda) dzeta = pi erfc(x_k),
    and Richardson carries each rung's loss into the limit with its weight
    c_k.  Re x_k^2 grows fourfold from rung to rung; the sum stops where
    exp(-Re x_k^2) underflows.  An f that cannot be evaluated at an end
    makes the bound infinite."""
    bound = 0.0
    for end in (path.start, path.end):
        try:
            size = abs(f_of(end))
        except ArithmeticError:
            return math.inf
        if not size < math.inf:
            return math.inf
        zeta = end - center
        for c, lam in zip(_WEIGHTS, _LAMBDA_LADDER):
            x = zeta / (2.0 * math.sqrt(lam))
            if x.real < 0.0:
                x = -x
            if (x * x).real > 745.0:
                break
            bound += size * abs(c) * math.pi * abs(erfc_complex(x))
    return bound


def lambda_route(f, path: Contour, kernel: str = "plus") -> complex:
    """Regularization route: integrate the Gaussian-regularized kernel
    against f along the path for the seven regularization strengths
    lambda = 0.0625 * 4^-m and extrapolate to zero (Richardson in lambda:
    the regularization error is a series in whole powers of lambda).

    kernel: 'plus' (forward half-line kernel), 'minus' (mirrored), or
    'full_line' (nascent delta).  This is the independent oracle against
    which the formula routes are verified.  The path must cross the origin
    inside the kernel's wedge domain (the intersection domain for
    'full_line'), where the kernel stays finite, otherwise it raises
    DomainViolationError; a path that meets the origin at one of its ends
    or away from its marked crossing raises ContourError.
    """
    if kernel == "plus":
        k_of, pair, domain = j_kernel, j_kernel_pair, WedgeDomain.plus()
    elif kernel == "minus":
        k_of, pair, domain = ((lambda z, lam: j_kernel(-z, lam)),
                              (lambda z, lam: j_kernel_pair(-z, lam)),
                              WedgeDomain.minus())
    elif kernel == "full_line":
        k_of, pair, domain = (full_line_kernel, full_line_kernel_pair,
                              WedgeDomain.intersection())
    else:
        raise ValueError(f"kernel must be plus|minus|full_line, got {kernel!r}")
    _admit_crossing_path(path, "lambda_route", domain)
    with _admissible_f("lambda_route") as budget:
        limit, _err = _regularized_limit(
            k_of, pair, f, path, (path.crossing, path.crossing_param), budget)
    return limit


# -- orthogonality overlap ---------------------------------------------------


def _check_slope(path: Contour, op: str):
    """Every tangent direction, rays included, must make an angle within
    (-pi/4, pi/4) of the real axis, traversed forward.  Line tangents are
    constant and arc tangents turn monotonically, so the end tangents, arc
    sweeps below pi/2 and the ray directions decide it exactly; chords,
    positive combinations of tangents, then stay in the band too.  Returns
    the worst |slope| (used to size ray truncation)."""
    angles = [(i, cmath.phase(seg.derivative(t)))
              for i, seg in enumerate(path.segments) for t in (0.0, 1.0)]
    angles += [(i, cmath.phase(cmath.exp(1j * a))) for i, a in (
        (-1, path.ray_in), (len(path.segments), path.ray_out)) if a is not None]
    for i, ang in angles:
        if abs(ang) >= 0.5 * math.pi:
            raise OrientationError(
                f"{op}: path runs right-to-left at segment {i} "
                "(traverse it with increasing real part)")
        if abs(ang) >= 0.25 * math.pi:
            raise DomainViolationError(
                f"{op}: slope {ang:.4f} rad at segment {i} leaves the "
                "allowed (-pi/4, pi/4) band", segment_index=i)
    for i, seg in enumerate(path.segments):
        if isinstance(seg, Arc) and abs(seg.sweep) >= 0.5 * math.pi:
            raise DomainViolationError(
                f"{op}: the arc at segment {i} turns through {abs(seg.sweep):.4f} "
                "rad, wider than the (-pi/4, pi/4) band", segment_index=i)
    return max(abs(ang) for _i, ang in angles)


def overlap_delta(z2: complex, f, path: Contour) -> complex:
    """Smeared orthogonality overlap: integrate the shifted full-line
    Gaussian kernel (centred at z2 on the path, between its ends) against
    f along the path for lambda = 0.0625 * 4^-m, m = 0..6, and extrapolate the
    regularization away; converges to 2 pi f(z2).

    The path must have slopes within (-pi/4, pi/4) so every pair
    difference of path points stays inside the double-wedge domain.
    Infinite rays are truncated where the regularizer suppresses the
    integrand below 1e-16.
    """
    z2 = complex(z2)
    worst_slope = _check_slope(path, "overlap_delta")
    if path.is_infinite:
        # slope < pi/4 keeps Re((z-z2)^2) >= cos(2*slope_max) |z-z2|^2 > 0
        # along the path, so the widest kernel sets the truncation length;
        # slopes grazing pi/4 decay arbitrarily slowly and are rejected
        decay = math.cos(2.0 * worst_slope)
        if decay < 0.02:
            raise DomainViolationError(
                "overlap_delta: path slope too close to pi/4; the shifted "
                "kernel decays too slowly along it for a finite truncation")
        length = (math.sqrt(4.0 * _LAMBDA_LADDER[0] * 40.0 / decay)
                  + abs(z2 - path.start) + abs(z2 - path.end))
        path = path.truncated(length, length)
    dmin, loc = path.min_distance(z2)
    if dmin > 1e-10:
        raise DomainViolationError(
            f"overlap_delta: z2 = {z2!r} is {dmin:.3e} away from the path; "
            "the sifting point must lie on it")
    if min(abs(z2 - path.start), abs(z2 - path.end)) <= 1e-10:
        raise DomainViolationError(
            f"overlap_delta: z2 = {z2!r} is an end of the path; the sifting "
            "point must lie between its ends")
    with _admissible_f("overlap_delta") as budget:
        limit, _err = _regularized_limit(
            full_line_kernel, full_line_kernel_pair, f, path, loc, budget,
            center=z2)
    return limit
