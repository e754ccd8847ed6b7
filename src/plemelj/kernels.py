"""Gaussian-regularized half-line Fourier kernels and their limits.

The central object is

    J(z, lambda) = integral_0^inf exp(-lambda x^2) exp(i z x) dx
                 = (i/z) sqrt(pi) w exp(w^2) erfc(w),   w = -i z / (2 sqrt(lambda))

evaluated either in closed form through the fused scaled complementary
error function (:func:`j_closed_form`) or by direct oscillatory quadrature
(:func:`direct_quadrature`); the two independent evaluators cross-validate
each other.  :func:`kernel_limit` takes the limit lambda -> 0+ along a
decreasing schedule and classifies each point of the complex plane as
converged (limit i/z), diverged (inside the lower angular wedge
arg z in [5 pi/4, 7 pi/4], where the scaled error function blows up) or
undecided (a thin band along the wedge boundary).  The mirror kernel
J(-z, lambda) covers the point-reflected wedge.

Everything here is pure and safe to sweep over grids concurrently.
"""
import bisect
import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

from . import _erfcx_py
from .quadrature import gk15
from .special_functions import OVERFLOW, SQRT_PI, _require_finite, is_overflow

_EXP_OVERFLOW = 709.0
_EXP_UNDERFLOW = -746.0   # exp of less is 0.0
_LOG_PI = math.log(math.pi)


class SingularInputError(ValueError):
    """The kernel limit is evaluated at its excluded singular point z = 0."""


class TruncationError(RuntimeError):
    """No finite truncation of the oscillatory integral meets the tail
    bound at the requested precision; use the closed form instead."""


def _require_positive(lam: float, what: str = "lambda") -> float:
    lam = float(lam)
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"{what} must be a positive finite real, got {lam!r}")
    return lam


@dataclass(frozen=True)
class RegularizationSchedule:
    """Decreasing sequence of regularization strengths plus the thresholds
    that make the limit trichotomy empirically decidable.

    ``divergence_threshold`` and ``convergence_tol`` must not overlap
    (threshold > 1/tol), so a trace cannot qualify as both.
    """
    lambdas: tuple = field(default_factory=tuple)
    divergence_threshold: float = 1e6
    convergence_tol: float = 1e-4

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if not lams:
            raise ValueError("schedule needs at least one lambda")
        for v in lams:
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"lambdas must be positive finite reals, got {v!r}")
        for a, b in zip(lams[:-1], lams[1:]):
            if b >= a:
                raise ValueError("lambdas must be strictly decreasing")
        if not (self.divergence_threshold > 0 and self.convergence_tol > 0):
            raise ValueError("thresholds must be positive")
        if self.divergence_threshold <= 1.0 / self.convergence_tol:
            raise ValueError(
                "divergence_threshold must exceed 1/convergence_tol so the "
                "two regimes cannot overlap")

    @classmethod
    def default(cls) -> "RegularizationSchedule":
        # lambda_n = 10^(-n/2), n = 0..12
        return cls(lambdas=tuple(10.0 ** (-0.5 * n) for n in range(13)))


@dataclass(frozen=True)
class KernelResult:
    """Outcome of a schedule limit: the limiting value, the convergence
    status and the (lambda, J) evaluation trace."""
    value: complex
    status: str          # converged | diverged | undecided
    lambda_trace: tuple  # ((lambda, J), ...)


def j_kernel(z: complex, lam: float) -> complex:
    """J(z, lambda) without the z != 0 restriction (J(0, lambda) is the
    finite half-Gaussian integral).  Internal workhorse; overflow tagged.

    Uses (i/z) w = 1/(2 sqrt(lambda)): the closed form collapses to a
    z-free prefactor times erfcx(w), removing the spurious 0/0 at z = 0.
    """
    sq = math.sqrt(lam)
    w = complex(0.5 * z.imag / sq, -0.5 * z.real / sq)   # -i z / (2 sqrt(lam))
    # an overflowed erfcx makes the product non-finite too
    out = (0.5 * SQRT_PI / sq) * _erfcx_py.erfcx_complex(w)
    if is_overflow(out) or not out:
        # a w beyond the double range ends here too, as NaN or 0
        if is_overflow(w):
            return _j_far(z, lam)
        if is_overflow(out):
            return OVERFLOW
    return out


def j_kernel_pair(z: complex, lam: float) -> tuple:
    """(J(z, lambda), J(-z, lambda)), bit for bit the two :func:`j_kernel`
    values, from one erfcx evaluation (``_erfcx_py.erfcx_pair``): -z maps
    to -w exactly.  Where either value is not finite and nonzero (overflow,
    underflow, a w beyond the double range), both come from j_kernel."""
    sq = math.sqrt(lam)
    w = complex(0.5 * z.imag / sq, -0.5 * z.real / sq)
    scale = 0.5 * SQRT_PI / sq
    a, b = _erfcx_py.erfcx_pair(w)
    a, b = scale * a, scale * b
    if a and b and cmath.isfinite(a) and cmath.isfinite(b):
        return a, b
    return j_kernel(z, lam), j_kernel(-z, lam)


def _j_far(z: complex, lam: float) -> complex:
    """J where w = -i z / (2 sqrt(lambda)) is beyond the double range.
    There sqrt(pi) w erfcx(w) = 1 + O(1/|w|^2) is 1 to double precision
    for Re w >= 0 (A&S 7.1.23), so J = i/z; below the real axis
    J(z) = K(z) - J(-z) = K(z) + i/z."""
    if z.imag >= 0.0:
        return 1j / z
    k = _full_line(z, lam)
    return k if is_overflow(k) else k + 1j / z


def j_closed_form(z: complex, lam: float) -> complex:
    """Closed form of the regularized kernel, (i/z) sqrt(pi) w e^{w^2} erfc(w).

    Computed fused through the scaled error function, so nothing overflows
    where the kernel itself is representable.  z = 0 is rejected (the limit
    prescription excludes it); deep inside the divergence wedge the tagged
    overflow value propagates out.
    """
    z = _require_finite(z, "z")
    lam = _require_positive(lam)
    if z == 0:
        raise SingularInputError("closed-form kernel excludes z = 0")
    return j_kernel(z, lam)


def full_line_kernel(z: complex, lam: float) -> complex:
    """Full-line Gaussian kernel sqrt(pi/lambda) exp(-z^2 / (4 lambda)),
    i.e. J(z, lambda) + J(-z, lambda); the nascent delta.  Overflow tagged."""
    return _full_line(_require_finite(z, "z"), _require_positive(lam))


def full_line_kernel_pair(z: complex, lam: float) -> tuple:
    """(K(z, lambda), K(-z, lambda)) from one evaluation, as a folded
    lambda-ladder arm takes them: K depends on z through z * z, which -z
    gives bit for bit.  Internal, like :func:`j_kernel_pair`: z and lambda
    are not validated."""
    k = _full_line(z, lam)
    return k, k


def _full_line(z: complex, lam: float) -> complex:
    ex = -(z * z) / (4.0 * lam)
    if not ex.real <= _EXP_OVERFLOW:   # or NaN, where z*z overflowed
        return OVERFLOW if ex.real > _EXP_OVERFLOW else _full_line_far(z, lam)
    root = math.sqrt(math.pi / lam)
    try:
        if root == math.inf:
            # a subnormal lambda: pi/lambda overflowed, the modulus need not
            return cmath.exp(complex(0.5 * (_LOG_PI - math.log(lam)) + ex.real,
                                     ex.imag))
        return root * cmath.exp(ex)
    except (ValueError, OverflowError):
        # the phase -Im(z^2) / (4 lambda), or the modulus, overflowed
        return _full_line_far(z, lam)


def _full_line_far(z: complex, lam: float) -> complex:
    """K where z*z or the phase of the exponent overflowed.  The modulus
    follows from Re(z^2) = (x - y)(x + y), whose parts do not overflow:
    0j where it underflows, and otherwise the overflow tag, as the phase
    is beyond the double range."""
    x, y = z.real, z.imag
    log_modulus = 0.5 * (_LOG_PI - math.log(lam)) + (y - x) * (y + x) / (4.0 * lam)
    return 0j if log_modulus < _EXP_UNDERFLOW else OVERFLOW


_TAIL_FACTOR = 1e-16
_MAX_PANELS = 40000


def direct_quadrature(z: complex, lam: float):
    """J(z, lambda) by composite Gauss-Kronrod quadrature of the defining
    integral.

    Panel length pi / (2 max(|Re z|, |Im z|, sqrt(lambda))) keeps the
    oscillation and the envelope resolved (quarter periods hold the
    G10/K21 rule at roundoff); integration continues past the envelope
    peak until the analytic tail bound

        integral_X^inf exp(-lambda x^2 - Im(z) x) dx
            <= exp(-lambda X^2 - Im(z) X) / (2 lambda X + Im z)

    drops below 1e-16 of the accumulated magnitude.  Raises
    TruncationError when the integrand leaves the double range before the
    bound can be met (extreme |Im z| / sqrt(lambda) ratios).
    """
    z = _require_finite(z, "z")
    lam = _require_positive(lam)
    growth = -z.imag   # integrand envelope is exp(-lam x^2 + growth x)
    if growth > 0.0 and growth * growth / (4.0 * lam) > 700.0:
        raise TruncationError(
            "integrand envelope peaks beyond the double range "
            f"(Im z = {z.imag:.3g}, lambda = {lam:.3g}); use j_closed_form")
    scale = max(abs(z.real), abs(z.imag), math.sqrt(lam))
    h = 0.5 * math.pi / scale   # quarter-period panels keep K21 near roundoff
    x_peak = max(0.0, growth / (2.0 * lam))

    def integrand(x):
        return cmath.exp(complex(-lam * x * x - z.imag * x, z.real * x))

    acc = 0.0 + 0.0j
    err = 0.0
    x = 0.0
    for _ in range(_MAX_PANELS):
        val, e, _mag = gk15(integrand, x, x + h)
        acc += val
        err += e
        x += h
        if x <= x_peak:
            continue
        log_tail = -lam * x * x + growth * x
        denom = 2.0 * lam * x - growth
        floor = max(abs(acc), 1e-300)
        if log_tail < math.log(_TAIL_FACTOR * floor * denom):
            break
    else:
        raise TruncationError(
            f"tail bound not met after {_MAX_PANELS} panels "
            f"(z = {z!r}, lambda = {lam!r})")
    if not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
        raise TruncationError(
            f"accumulated integral left the double range (z = {z!r}, "
            f"lambda = {lam!r}); use j_closed_form")
    return acc


def _limit_point(z, schedule):
    """Validated ladder inputs: a finite z != 0 and a schedule (the
    default one if None)."""
    z = _require_finite(z, "z")
    if z == 0:
        raise SingularInputError("the kernel limit excludes z = 0")
    if schedule is None:
        schedule = RegularizationSchedule.default()
    return z, schedule


def _ladder(kernel, z: complex, limit: complex,
            schedule: RegularizationSchedule, start: int = 0) -> KernelResult:
    """Walk kernel(z, lambda) down the schedule, from step ``start`` on,
    and classify its limit.

    Diverged once the kernel overflows (a non-finite part, or finite parts
    whose modulus is beyond the double range) or its magnitude keeps
    growing past the divergence threshold; otherwise the last value
    decides (:func:`_verdict`).
    """
    trace = []
    mags = []
    for lam in schedule.lambdas[start:]:
        val = kernel(z, lam)
        trace.append((lam, val))
        if is_overflow(val):
            return KernelResult(OVERFLOW, "diverged", tuple(trace))
        try:
            mags.append(abs(val))
        except OverflowError:
            return KernelResult(OVERFLOW, "diverged", tuple(trace))
        if (len(mags) >= 3 and mags[-1] > schedule.divergence_threshold
                and mags[-1] > mags[-2] > mags[-3]):
            # magnitudes only keep growing deeper into the wedge
            return KernelResult(OVERFLOW, "diverged", tuple(trace))
    status, value = _verdict(trace[-1][1], limit, schedule)
    return KernelResult(value, status, tuple(trace))


def _verdict(last: complex, limit: complex, schedule) -> tuple:
    """(status, value) of a ladder that did not diverge, from its last
    value: converged when it lies within convergence_tol of ``limit``
    (relative, or absolute for a zero limit), undecided otherwise."""
    if abs(last - limit) <= schedule.convergence_tol * (abs(limit) or 1.0):
        return "converged", limit
    return "undecided", last


_LOG_SHRINK = math.log1p(-1e-6)   # relative margin on the lower bounds
_LOG_GROW = math.log1p(1e-6)      # and on the upper bounds
_GROW = 1.0 + 1e-6
# The kernels round w^2 = -z^2 / (4 lambda) with an absolute error of a few
# ulps of |w|^2, and exponentiate it; below this |w|^2 the computed
# magnitudes stay within 1e-7 of the exact ones, well inside the margin.
_CERTIFY_MAX_W2 = 1e8
# Bound on the error of a computed Re(w^2) (J below the axis) or
# Re(-z^2 / (4 lambda)) (K) relative to |w|^2: a few roundings of w's parts,
# of their sum, difference and product, about 8e-16 at most.
_EXP_ROUNDING = 2e-15
# |sqrt(pi) w erfcx(w) - 1| <= (1 + 2 e^{-3/2}) / |w|^2 for Re w >= 0, from
# three integrations by parts of erfcx(w) = (2/sqrt(pi)) int_0^inf
# exp(-t^2 - 2 w t) dt (cf. A&S 7.1.23, DLMF 7.12); rounded up from 1.446260.
_ERFCX_TAIL = 1.4463
# Bound on the rounding of a computed J relative to |i/z|, 87 times the
# erfcx core's largest relative error measured on Re w >= 0, 1.15e-15
# (over 20,000 seeded points; see _erfcx_py).
_J_ROUNDING = 1e-13
# Relative margin of the wedge test's lower bound on a = (y^2 - x^2)/4.
# With u = 2^-53, the computed a = (y - x)(y + x)/4 is at least
# (1 - 3u)(y^2 - x^2)/4.
# The computed bound (y^2 - x^2 - 8u y^2)/4 is at most that where it is
# positive: its roundings, and the 3u (y^2 - x^2) between the two, come to
# less than 8u y^2.  As a power of two, 8u times y^2 is exact.
_ROW_MARGIN = 8.0 * 2.0 ** -53
# Share of J's tolerance below the real axis that its convergence
# certificate gives |z| |K(z, lambda)|, the erfcx tail the rest (_decider).
_EXP_SHARE = 1e-3
# Relative margin of the edge band's test a <= a_one = lambda_min ln 2
# (_decider) on a = (y^2 - x^2)/4.  With u = 2^-53, the computed
# ((y - x)(y + x))/4 is at least (1 - 3u) a - 2^-1074, the last term for
# underflow, and 2^-1074 is less than 3u a_one for a normal lambda_min.
# The computed a_one (1 - 16u) is at most (1 - 12u) a_one, so a computed
# a up to it bounds the exact a below a_one.
_BAND_MARGIN = 16.0 * 2.0 ** -53


def _wedge_bounds(a: float, lam: float, c: float) -> tuple:
    """(lower, upper) bounds on log |kernel(z, lambda)| inside the open
    wedge Re(z^2) < 0, from a = -Re(z^2)/4 > 0 alone.

    There |K(z, lambda)| = sqrt(pi/lambda) exp(a/lambda), and the kernel's
    magnitude lies within c sqrt(pi/lambda) of it: c = 1/2 for J, as
    J(z) = K(z) - J(-z) with -z in the upper half plane, and c = 0 for K
    itself.  Both bounds are widened by a relative 1e-6."""
    t = a / lam
    base = 0.5 * math.log(math.pi / lam) + t
    r = c * math.exp(-t)
    return base + math.log1p(-r) + _LOG_SHRINK, base + math.log1p(r) + _LOG_GROW


def _wedge_step_fires(a: float, lams: tuple, k: int, c: float,
                      log_threshold: float) -> bool:
    """True when the bounds of :func:`_wedge_bounds` prove that the
    ladder's divergence test fires at step k >= 2 of ``lams``: the lower
    bound of step k passes the threshold and the upper bound of step k-1,
    and the lower bound of step k-1 passes the upper bound of step k-2.
    Each of the three tests is monotone increasing in a."""
    _lo, hi_prev2 = _wedge_bounds(a, lams[k - 2], c)
    lo_prev, hi_prev = _wedge_bounds(a, lams[k - 1], c)
    lo, _hi = _wedge_bounds(a, lams[k], c)
    return lo > log_threshold and lo > hi_prev and lo_prev > hi_prev2


@functools.lru_cache(maxsize=64)
def _wedge_thresholds(schedule: RegularizationSchedule, c: float) -> tuple:
    """A_k for the steps k = 2, 3, ... of the schedule: the least a at
    which :func:`_wedge_step_fires` holds, found by bisection once per
    (schedule, c).  Each A_k passes the step test as computed, and as the
    exact tests are monotone in a and carry a relative margin of 1e-6,
    every a >= A_k passes them too.  inf where the step cannot fire for
    any a up to the largest |z|^2/4 certified at it, _CERTIFY_MAX_W2
    lambda_k (a <= |z|^2/4).  Empty on schedules of one or two steps."""
    lams = schedule.lambdas
    log_threshold = math.log(schedule.divergence_threshold)
    out = []
    for k in range(2, len(lams)):
        lo = sys.float_info.min   # a below it has lost relative precision
        hi = min(_CERTIFY_MAX_W2 * lams[k], sys.float_info.max)
        if not (lo <= hi and _wedge_step_fires(hi, lams, k, c, log_threshold)):
            out.append(math.inf)
            continue
        if _wedge_step_fires(lo, lams, k, c, log_threshold):
            out.append(lo)
            continue
        # hi passes and lo does not; halve the log of hi/lo, then hi - lo
        while True:
            mid = (math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo
                   else lo + 0.5 * (hi - lo))
            if not lo < mid < hi:
                break
            if _wedge_step_fires(mid, lams, k, c, log_threshold):
                hi = mid
            else:
                lo = mid
        out.append(hi)
    return tuple(out)


def _wedge_certificate(schedule: RegularizationSchedule, c: float):
    """A function (x, y) -> True when the ladder at z = x + iy, inside the
    open wedge Re(z^2) < 0, must report diverged, decided without
    evaluating the kernel; False means only "not certified".

    The ladder's divergence test fires at the first step k with
    a = -Re(z^2)/4 >= A_k (:func:`_wedge_thresholds`), found by bisection
    in the running minimum of the A_k, which needs no order among them.
    The point is certified there when |z|^2/4 is at most _CERTIFY_MAX_W2
    lambda_k, the smallest cap the steps up to k allow.  Every A_k is at
    least the smallest normal double, so an a that lost its relative
    precision to underflow finds no step.

    The test takes in place of a the lower bound
    a_lo = (y^2 - x^2 - _ROW_MARGIN y^2)/4, which as computed never exceeds
    the computed a = (y - x)(y + x)/4 where it reaches an A_k, and does not
    rise as |x| grows; as the caps fall with k, the points of a row of
    fixed y it certifies form one interval around x = 0.  Next to the rays
    it refuses points that a itself would certify."""
    # negated running minima, ascending: the first k with a >= A_k is the
    # first index whose entry is >= -a
    firsts = [-m for m in itertools.accumulate(_wedge_thresholds(schedule, c), min)]
    caps = [_CERTIFY_MAX_W2 * lam for lam in schedule.lambdas[2:]]
    n = len(caps)

    def diverges(x, y):
        yy = y * y
        k = bisect.bisect_left(firsts, -0.25 * ((yy - x * x) - _ROW_MARGIN * yy))
        return k < n and 0.25 * (x * x + yy) <= caps[k]
    return diverges


def _spans(xs, up, down) -> tuple:
    """The index ranges [lo, hi) of the ascending xs on which up(x) and
    down(x) both hold, one left of 0 and one right of it (either may be
    empty), for an up that holds from some |x| on and a down that holds up
    to some |x| along each side.  Each bound is the least index of its
    range at which a test holds, found by bisect_left(xs, True, lo, hi,
    key=test), which probes the midpoints (lo + hi) // 2: O(log n)
    evaluations of each test."""
    n = len(xs)
    p = bisect.bisect_left(xs, 0.0)   # |x| falls before p and rises from p
    lo = bisect.bisect_left(xs, True, 0, p, key=down)
    hi = bisect.bisect_left(xs, True, lo, p, key=lambda x: not up(x))
    lo_right = bisect.bisect_left(xs, True, p, n, key=up)
    return ((lo, hi),
            (lo_right, bisect.bisect_left(xs, True, lo_right, n,
                                          key=lambda x: not down(x))))


def _middle(xs, test) -> tuple:
    """The index range [lo, hi) of the ascending xs on which test(x) holds,
    for a test that holds up to some |x| on each side of 0, found by
    bisect_left(..., key=test) with the probes of :func:`_spans`.  O(log n)
    evaluations of the test."""
    p = bisect.bisect_left(xs, 0.0)
    return (bisect.bisect_left(xs, True, 0, p, key=test),
            bisect.bisect_left(xs, True, p, len(xs), key=lambda x: not test(x)))


def _row_runs(uncertified, y: float, xs, spans) -> list:
    """The row x + iy, x in xs, as runs (stop, status, value) that cover
    xs[start:stop], start being the previous run's stop (0 first): each
    non-empty one of the certified ``spans`` (lo, hi, status, value),
    ascending and disjoint, as one run, and the points between them
    decided by uncertified, one run for each stretch of equal
    (status, value)."""
    runs = []

    def between(start, stop):
        last = None
        for k, x in enumerate(xs[start:stop], start):
            point = uncertified(complex(x, y))
            if point != last:
                if last:
                    runs.append((k, *last))
                last = point
        if last:
            runs.append((stop, *last))

    start = 0
    for lo, hi, status, value in spans:
        if lo < hi:
            between(start, lo)
            runs.append((hi, status, value))
            start = hi
    between(start, len(xs))
    return runs


def _decider(kind: str, schedule: RegularizationSchedule):
    """The decision procedure of :func:`_decide` for one kind ('plus',
    'minus' or 'full_line') and one schedule, with every schedule-level
    constant computed once: a function decide_row(y, xs).  Build one per
    grid; :func:`_decide` decides a single point as a one-point row.

    decide_row decides the row of points x + iy, for ascending finite xs
    with no x + iy = 0, as runs (stop, status, value): each covers
    xs[start:stop], start being the previous run's stop (0 for the first),
    and its value is the common value of its points or a list of one value
    per point.  Each point gets the (status, value) its ladder reports.
    The kinds differ only in data: the kernel, its limit and, per half
    plane, the shortcut, the certificate's bounds and the wedge test.
    'minus' decides -z with J; every test below gives z and -z the same
    result, bit for bit.

    Outside the open excluded wedge(s) the kernel obeys
    |kernel(z, lambda)| <= c sqrt(pi/lambda) for every lambda > 0:

    * J, Im z >= 0: c = 1/2, as |J| <= int_0^inf exp(-lambda x^2) dx;
    * J, Im z < 0 and Re(z^2) >= 0: c = 3/2, as J(z) = K(z) - J(-z) and
      |K(z, lambda)| = sqrt(pi/lambda) exp(-Re(z^2) / (4 lambda));
    * K, Re(z^2) >= 0: c = 1.

    Each half plane that holds a wedge also has an edge band along its
    rays: the wedge points with a = -Re(z^2)/4 <= a_one = lambda_min ln 2.
    There |K(z, lambda)| = sqrt(pi/lambda) exp(a/lambda) and exp(a/lambda)
    <= 2 at every step, so the same bound holds for lambda >= lambda_min
    with c = 2 for K and c = 5/2 for J, as |J(-z)| <= (1/2) sqrt(pi/lambda)
    with -z above the axis.
    The band is tested on the computed a with the relative margin
    _BAND_MARGIN, and for a normal lambda_min only.

    A step whose bound (widened by a relative 1e-6) is below the
    divergence threshold can neither overflow nor pass it.  So when the
    last step's bound is below it, the last step alone sets the verdict,
    and a point there is certified ``converged`` without any kernel
    evaluation where the kernel at lambda_min provably lies within tol of
    the limit.  tol is convergence_tol shrunk by a relative 1e-6, which
    covers the rounding of K, and for J also by _J_ROUNDING.  With
    q = |z|^2/4 and s = Re(z^2) = (x - y)(x + y):

    * J, Im z >= 0: |J - i/z| <= (C lambda / q) |i/z| with
      C = 1 + 2 e^{-3/2} (_ERFCX_TAIL): certified for
      q >= q_min = C lambda_min / tol, with the value i/z;
    * J, Im z < 0: J - i/z = K(z) - (J(-z) + i/z) adds |z| |K| to that
      bound.  tol is split: (1 - _EXP_SHARE) tol for the erfcx tail, met
      for q >= q_min / (1 - _EXP_SHARE), and _EXP_SHARE tol for |z| |K|
      <= 2 sqrt(pi/lambda_min) sqrt(q_max) exp(-s / (4 lambda_min)), met
      for s >= s_exp.  Certified where both are, with the value i/z;
    * K: certified where |K(z, lambda_min)| <= tol, i.e. for s >= s_min,
      with the value 0j.

    Any other such point costs one kernel evaluation at lambda_min.  The
    certificates refuse where their margin cannot be shown to dominate the
    kernel's rounding: at q > q_max = _CERTIFY_MAX_W2 lambda_min, for a
    subnormal lambda_min, and for J when tol is within _J_ROUNDING of 0.
    The computed q and s lie within 3u of |z|^2/4 and Re(z^2), relative
    (u = 2^-53), which moves s / (4 lambda_min) by less than 4e-8 at
    q <= q_max, inside the 1e-6 margin on the bounds of K.  On J's K term
    that margin leaves 1e-6 _EXP_SHARE tol of slack, which covers the few
    ulps by which the rounded q and q_min / (1 - _EXP_SHARE) can lift the
    tail term above its share.

    The one-step verdict itself needs the computed kernel to stay below
    the threshold at every step.  The exponent of K, and of exp(w^2) in J
    below the axis, carries an error of up to _EXP_ROUNDING |w|^2, so
    beyond the |w|^2 at which that could lift the bound to the threshold
    (about 3e15 at the defaults, in the edge band too) the full ladder
    runs.  On a deeper schedule the walk starts two steps before the
    first step whose bound reaches the threshold, as the divergence test
    looks back two steps, where that exponent error can neither lift a
    step it skips to the threshold nor overflow it; from step 0
    elsewhere.  The edge band has its own shortcut of that kind, built
    from its own c: its points take the one-step verdict, or start late,
    exactly as the points outside the wedge do.  Deeper inside the
    wedge(s) one lookup in a table of thresholds on a, built once per
    schedule and kernel (:func:`_wedge_certificate`), certifies the
    ladder's divergence without evaluating the kernel; where it cannot
    (between the band and the certified points, on schedules of one or
    two steps), the full ladder runs.

    Along a row, each certificate test is, as computed, monotone in |x|
    on either side of x = 0: |x| >= |y|; q against its bounds; where
    |x| >= |y|, s against its bound, a product of two non-negative
    factors that do not fall as |x| grows; and the wedge test.  So the
    points a convergence certificate holds for form at most one span on
    each side, and those the wedge test certifies one span around x = 0.
    Bisection over those tests finds each span, which becomes one run.
    The points between the spans go one at a time to a function that
    makes no certificate test: the one-step verdict, in or out of the
    edge band, or the ladder walk.
    So a point's result does not depend on the other points of its row.
    """
    lams = schedule.lambdas
    lam = lams[-1]
    threshold = schedule.divergence_threshold
    tol = schedule.convergence_tol
    root = math.sqrt(math.pi / lam)

    def shortcut(c, rounding=_EXP_ROUNDING):
        """(q_one, first, q_late) for points whose kernel is bounded by
        c sqrt(pi/lambda) and is computed with exponent errors up to
        rounding |w|^2.  The computed kernel at a step whose bound is
        below the threshold stays below it, and finite, while |z|^2/4 is
        at most that step's q_safe.  So the last step alone decides a
        point while |z|^2/4 <= q_one, its q_safe.  On a schedule whose
        bound reaches the threshold, q_one = -inf, and the walk may skip
        the steps before ``first``, two steps before the first step whose
        bound does (the divergence test looks back two steps), while
        |z|^2/4 <= q_late, the least q_safe of the skipped steps; it
        starts at step 0 otherwise."""
        def q_safe(step):
            bound = c * _GROW * math.sqrt(math.pi / step)
            headroom = min(math.log(threshold / bound), _EXP_OVERFLOW)
            return step * headroom / rounding if rounding else math.inf

        if c * _GROW * root < threshold:
            return q_safe(lam), 0, math.inf
        first = next(k for k, step in enumerate(lams)
                     if c * _GROW * math.sqrt(math.pi / step) >= threshold)
        first = max(0, first - 2)
        # q_safe falls from step to step, so the last skipped one is least
        return -math.inf, first, (q_safe(lams[first - 1]) if first else math.inf)

    # the largest |z|^2/4 a convergence certificate takes
    q_max = _CERTIFY_MAX_W2 * lam
    normal = lam >= sys.float_info.min
    log_root = 0.5 * math.log(math.pi / lam)

    def s_bound(log_scale, log_tol):
        """The least s at which log_scale - s/(4 lambda) <= log_tol + _LOG_SHRINK."""
        return 4.0 * lam * (log_scale - log_tol - _LOG_SHRINK) if normal else math.inf

    # the edge band's a_one, less its margin; none for a subnormal lambda_min
    a_band = lam * math.log(2.0) * (1.0 - _BAND_MARGIN) if normal else -math.inf

    # per half plane: the shortcuts outside the wedge and in its edge band,
    # the certificate's q_min and s_min, and the wedge test, None where the
    # half plane holds no wedge
    full = kind == "full_line"
    mirror = kind == "minus"
    if full:
        kernel = _full_line
        upper = lower = (shortcut(1.0), shortcut(2.0), 0.0,
                         s_bound(log_root, math.log(tol)),
                         _wedge_certificate(schedule, 0.0))
    else:
        kernel = j_kernel
        tail = _ERFCX_TAIL * lam   # |J - i/z| / |i/z| <= tail / q above the axis
        tol_j = tol * (1.0 - 1e-6) - _J_ROUNDING
        q_min = tail / tol_j if normal and tol_j > 0.0 else math.inf
        if not q_min >= sys.float_info.min:
            q_min = math.inf
        s_exp = (s_bound(math.log(2.0 * math.sqrt(q_max)) + log_root,
                         math.log(_EXP_SHARE * tol_j)) if q_min < math.inf else math.inf)
        # J above the axis has no exponential: erfcx(w) for Re w >= 0
        upper = (shortcut(0.5, rounding=0.0), None, q_min, -math.inf, None)
        lower = (shortcut(1.5), shortcut(2.5), q_min / (1.0 - _EXP_SHARE), s_exp,
                 _wedge_certificate(schedule, 0.5))

    def uncertified(z):
        if mirror:
            z = -z
        x, y = z.real, z.imag
        limit = 0j if full else 1j / z
        near, band, _q_min, _s_min, wedge = upper if y >= 0.0 else lower
        if wedge is None or abs(x) >= abs(y):   # Re(z^2) >= 0, without rounding
            q_one, first, q_late = near
        elif 0.25 * ((y - x) * (y + x)) <= a_band:
            q_one, first, q_late = band
        else:   # deeper in the wedge the walk starts at step 0
            q_one, first, q_late = -math.inf, 0, math.inf
        q = 0.25 * (x * x + y * y)
        if q <= q_one:
            return _verdict(kernel(z, lam), limit, schedule)
        res = _ladder(kernel, z, limit, schedule, first if q <= q_late else 0)
        return res.status, res.value

    def decide_row(y, xs):
        (q_one, _step, _late), _band, q_min, s_min, wedge = (
            upper if (-y if mirror else y) >= 0.0 else lower)
        ay = abs(y)

        def up(x):     # the certificate tests that pass from an |x| on
            return 0.25 * (x * x + y * y) >= q_min and (
                wedge is None or abs(x) >= ay and (x - y) * (x + y) >= s_min)

        def down(x):   # and those that pass up to an |x|
            q = 0.25 * (x * x + y * y)
            return q <= q_one and q <= q_max

        def converged(lo, hi):
            if full:
                return lo, hi, "converged", 0j
            if mirror:
                return lo, hi, "converged", [1j / complex(-x, -y) for x in xs[lo:hi]]
            return lo, hi, "converged", [1j / complex(x, y) for x in xs[lo:hi]]
        left, right = _spans(xs, up, down)
        # a wedge, |x| < |y|, lies between the two
        middle = () if wedge is None else (
            (*_middle(xs, lambda x: wedge(x, y)), "diverged", OVERFLOW),)
        return _row_runs(uncertified, y, xs,
                         (converged(*left), *middle, converged(*right)))
    return decide_row


def _decide(kind: str, z: complex, schedule: RegularizationSchedule = None) -> tuple:
    """(status, value) of the 'plus', 'minus' or 'full_line' limit at z:
    what kernel_limit, kernel_limit_mirror or full_line_limit report,
    without the trace.  Validates z and decides it as the one-point row
    of the :func:`_decider` of the schedule (the default one if None),
    which decides from closed-form bounds where it can and evaluates the
    kernel or walks the ladder where it cannot; a sweep builds that
    decider once and decides whole rows instead.
    """
    z, schedule = _limit_point(z, schedule)
    ((_stop, status, value),) = _decider(kind, schedule)(z.imag, (z.real,))
    return status, value[0] if type(value) is list else value


def kernel_limit(z: complex, schedule: RegularizationSchedule = None) -> KernelResult:
    """Limit of J(z, lambda) for lambda -> 0+ along a schedule.

    Converged points report the limiting value i/z (the trace holds the
    finite-lambda history); diverged points report the overflow tag; points
    in the thin band along the wedge boundary stay undecided rather than
    being guessed.
    """
    z, schedule = _limit_point(z, schedule)
    return _ladder(j_kernel, z, 1j / z, schedule)


def kernel_limit_mirror(z: complex, schedule: RegularizationSchedule = None) -> KernelResult:
    """Limit of the mirrored kernel J(-z, lambda) for lambda -> 0+.

    Finite limit -i/z on the point reflection of the forward domain (the
    excluded wedge sits in the upper half plane).  Same status, value and
    trace as kernel_limit(-z).
    """
    z, schedule = _limit_point(z, schedule)
    return _ladder(j_kernel, -z, 1j / -z, schedule)


def full_line_limit(z: complex, schedule: RegularizationSchedule = None) -> KernelResult:
    """Limit of the full-line Gaussian kernel (pointwise 0 on the double
    wedge domain, divergent inside either wedge).  Used by the domain-map
    sweep; the distributional content at z = 0 lives in the functionals."""
    z, schedule = _limit_point(z, schedule)
    return _ladder(_full_line, z, 0j, schedule)
