"""Sokhotski-Plemelj on tilted copies of the real line.

A tilted line is {q e^{i phi} : q real} for a fixed tilt angle
|phi| < pi/2.  Shifting the variable by +i epsilon gives the regularized
argument function

    arg(q e^{i phi} + i eps) = arctan((q sin phi + eps) / (q cos phi))
                               + pi Theta(-q)

which is continuous and strictly decreasing in q for eps > 0 (the arctan
jump at q = 0 exactly compensates the step), runs from phi + pi at
q -> -inf to phi at q -> +inf, and becomes the discontinuous
phi + pi Theta(-q) as eps -> 0+ (:func:`arg_limit`).  Differentiating the
polar logarithm and taking the limit yields the tilted Plemelj identity

    1/(k + i 0+) = e^{-i phi} PV(1/q) - i pi e^{-i phi} d Theta(-q)/dq
                 = PV(1/k) - i pi delta(k)

whose action on a test function :func:`tilted_plemelj` computes in the
real variable q, independently of the complex-contour machinery in
:mod:`plemelj.functionals`: its PV folds q and -q into the regular
(g(q) - g(-q))/q and takes no cutoff to zero.  The identity as derived
holds for |phi| < pi/2, but the Gaussian-regularized kernel route only
converges for |phi| < pi/4; outside that range the result carries a
raised ``kernel_mismatch`` flag instead of a silently wrong cross-check.
"""
import cmath
import math
from dataclasses import dataclass

from .contours import Contour, tilted_segment
from .functionals import _admissible_f, _f_at_zero, check_analytic
from .quadrature import integrate_adaptive


@dataclass(frozen=True)
class TiltedLine:
    """Tilt angle and the q-interval (must straddle 0) of a tilted line."""
    phi: float
    q_min: float
    q_max: float

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "q_min", float(self.q_min))
        object.__setattr__(self, "q_max", float(self.q_max))
        if not -0.5 * math.pi < self.phi < 0.5 * math.pi:
            raise ValueError(
                f"tilt angle must satisfy |phi| < pi/2, got {self.phi!r}")
        if not self.q_min < 0.0 < self.q_max:
            raise ValueError(
                f"q interval must contain 0, got ({self.q_min!r}, {self.q_max!r})")

    @property
    def strict_kernel_valid(self) -> bool:
        """True where the Gaussian-regularized kernel converges on the
        whole line: |phi| < pi/4."""
        return -0.25 * math.pi < self.phi < 0.25 * math.pi

    def to_contour(self) -> Contour:
        """The same line as a crossing-marked two-segment contour."""
        return tilted_segment(self.phi, self.q_min, self.q_max)


def arg_regularized(q: float, phi: float, epsilon: float) -> float:
    """Continuous branch of arg(q e^{i phi} + i epsilon).

    arctan((q sin phi + eps)/(q cos phi)) + pi Theta(-q), with the arctan
    branch jump at q = 0 compensating the step; exactly pi/2 at q = 0.
    Strictly decreasing from phi + pi (q -> -inf) to phi (q -> +inf).
    """
    q = float(q)
    phi = float(phi)
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    c = math.cos(phi)
    if c == 0.0:
        raise ValueError("cos(phi) must be nonzero")
    if q == 0.0:
        return 0.5 * math.pi
    val = math.atan((q * math.sin(phi) + epsilon) / (q * c))
    if q < 0.0:
        val += math.pi
    return val


def arg_limit(q: float, phi: float) -> float:
    """Pointwise epsilon -> 0+ limit of arg_regularized: phi + pi Theta(-q).

    Undefined at the jump q = 0."""
    q = float(q)
    if q == 0.0:
        raise ValueError("arg(k + i 0+) is undefined at the jump q = 0")
    return float(phi) + (math.pi if q < 0.0 else 0.0)


def log_branch_residual(q: float, phi: float, epsilon: float,
                        h: float = 1e-6) -> float:
    """Finite-difference check of the polar-logarithm decomposition:

        |e^{-i phi} d/dq [ln|k + i eps| + i arg(k + i eps)] - 1/(k + i eps)|

    evaluated with centered differences in q.  Small (O(h^2)) wherever the
    decomposition holds, which is the content of the derivative step in
    the tilted derivation.
    """
    def log_abs(qq):
        k = qq * cmath.exp(1j * phi)
        return math.log(abs(k + 1j * epsilon))

    d_log = (log_abs(q + h) - log_abs(q - h)) / (2.0 * h)
    d_arg = (arg_regularized(q + h, phi, epsilon)
             - arg_regularized(q - h, phi, epsilon)) / (2.0 * h)
    k = q * cmath.exp(1j * phi)
    lhs = cmath.exp(-1j * phi) * (d_log + 1j * d_arg)
    return abs(lhs - 1.0 / (k + 1j * epsilon))


@dataclass(frozen=True)
class TiltedResult:
    """Tilted Plemelj action with its PV / delta split and the
    kernel-validity mismatch flag (True when |phi| >= pi/4, where the
    regularized-kernel route does not converge on this line even though
    the formula route remains well defined)."""
    value: complex
    pv_part: complex
    delta_part: complex
    kernel_mismatch: bool


def _pv_real_line(g, q_min: float, q_max: float, budget):
    """PV of integral g(q)/q dq over [q_min, q_max] through the pole at 0.

    Integrates the regular fold (g(q) - g(-q))/q over (0, m], m the
    shorter side, and g(q)/q over the rest of the longer side, charged to
    the route call's ``budget``.  Returns (pv, summed quadrature error
    estimate).  Independent of the singularity subtraction along contours
    in functionals._principal_value.
    """
    m = min(-q_min, q_max)

    def folded(q):
        return (g(q) - g(-q)) / q

    core, core_err = integrate_adaptive(folded, 0.0, m, abs_tol=1e-13,
                                        breakpoints=(m * 1e-6, m * 1e-3),
                                        budget=budget)
    rest = 0.0 + 0.0j
    for lo, hi in ((m, q_max), (q_min, -m)):   # the longer side's excess
        if hi > lo:
            v, e = integrate_adaptive(lambda q: g(q) / q, lo, hi, abs_tol=1e-13,
                                      budget=budget)
            rest += v
            core_err += e
    return core + rest, core_err


def tilted_plemelj(f, line: TiltedLine) -> TiltedResult:
    """Action of 1/(k + i 0+) on f along the tilted line, computed in the
    real variable q:

        value = PV integral f(q e^{i phi}) / q dq  -  i pi f(0)

    (the e^{-i phi} factor of the identity cancels against the line
    element e^{i phi} dq).  Where |phi| < pi/4 this equals
    -i * plemelj_plus(f, line.to_contour()).value; for pi/4 <= |phi| < pi/2
    the formula route stays valid but the Gaussian-regularized kernel does
    not converge on the line, which the kernel_mismatch flag reports.  The
    flag depends on phi alone, however short the line.

    An f whose value at 0 is not finite, or that overflows, divides by
    zero or cannot be integrated along the line within the call's panel
    budget, raises AdmissibilityError.
    """
    path = line.to_contour()
    phase = cmath.exp(1j * line.phi)

    def g(q):
        return f(q * phase)

    with _admissible_f("tilted_plemelj") as budget:
        check_analytic(f, path)
        f0 = _f_at_zero(f, "tilted_plemelj")
        pv, _err = _pv_real_line(g, line.q_min, line.q_max, budget)
    delta_part = -1j * math.pi * f0
    return TiltedResult(pv + delta_part, pv, delta_part,
                        not line.strict_kernel_valid)
