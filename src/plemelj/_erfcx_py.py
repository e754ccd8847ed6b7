"""Pure-Python core for the complex (scaled) complementary error function.

Evaluates erfcx(w) = exp(w^2) erfc(w) on the whole plane in three regions:

* Re w >= 0, |w|^2 < 64   Weideman's rational approximation of the Faddeeva
                          function w_F (SIAM J. Numer. Anal. 31 (1994)
                          1497), N = 48 terms, via erfcx(w) = w_F(i w).
* Re w >= 0, |w|^2 >= 64  the A&S 7.1.23 asymptotic series, by Horner in
                          u = 1/(2 w^2) with a fixed number of terms for each
                          binade of |w|^2 (see :func:`_asymptotic_bands`).
* Re w < 0                reflection erfcx(w) = 2 exp(w^2) - erfcx(-w), with
                          the right-half-plane evaluator for erfcx(-w); the
                          exp(w^2) factor is where genuine overflow lives.

Term counts.  The series is bounded by its first omitted term for
|arg w| <= pi/4, and by csc(2 |arg w|) times it up to the imaginary axis
(DLMF 7.12(i)).  Each binade keeps the fewest terms whose first omitted one
is below 1e-18 at the binade's lower edge: 18 terms at |w|^2 = 64, 12 from
128, 9 from 256, 8 from 512, 6 from 1024, 5 from 4096, 4 from 8192, 3 from
2^16, 2 from 2^21, 1 from 2^30 and none from 2^59.  The cutoff lies two
orders below the rounding unit, which leaves room for the csc factor next
to the axis.

exp(w^2), w = x + iy, is taken as exp((x - y)(x + y)) times a phase
2xy carried in double-double (Dekker's TwoProduct): the rounded w*w would
put an error of |w|^2 times the rounding unit into the phase.

Against mpmath at 40 digits, the largest relative error measured on
Re w >= 0 is 1.15e-15, at w = 0.10661 + 0.58502i, over 20,000 points
uniform on [0, 1] x [-1, 1] (Re w, then Im w, drawn from random.Random(7));
2,500 seeded points over the whole half plane reached 8.7e-16.  On
Re w < 0, relative to max(|erfcx(w)|, |exp(w^2)|) (erfc has zeros there),
2,500 seeded points per region give 9.9e-15 for |w| < 8 and 1.2e-13 for
8 <= |w| <= 1000: the rounding of (x - y)(x + y), at most about
2.2e-16 |Re w^2| with Re w^2 <= 709.

Anchoring identities, transcribed from Abramowitz & Stegun ch. 7:

  (7.1.2)   erfc z = (2/sqrt(pi)) * integral_z^inf exp(-t^2) dt
  (7.1.23)  sqrt(pi) z e^{z^2} erfc z ~ 1 + sum_{m>=1} (-1)^m
                (1*3*...*(2m-1)) / (2 z^2)^m,   |arg z| < 3 pi/4

Mirrored pairs.  :func:`erfcx_pair` gives erfcx(w) and erfcx(-w) from one
right-half-plane evaluation, the reflection being the same identity as
J(z) + J(-z) = K(z) for the kernels; each value is bit for bit the
:func:`erfcx_complex` value.  It calls the module's ``_erfcx_right`` and
``_exp_square`` directly, so a replaced ``erfcx_complex`` (a tracer, a
test) does not see the pair's evaluations off the imaginary axis.

Overflow is reported as the value complex(inf, inf), never as an exception:
the divergent sector |arg w| > 3 pi/4 at large |w| is legitimate input whose
blow-up downstream code classifies.

All functions are pure and safe for concurrent use.
"""
import cmath
import math
import sys

SQRT_PI = 1.7724538509055160273
INV_SQRT_PI = 0.5641895835477562869

# exp(x) overflows IEEE double just above x = 709.78, and is 0.0 below -746
_EXP_OVERFLOW = 709.0
_EXP_UNDERFLOW = -746.0

#: Value-level overflow tag (see module docstring).
OVERFLOW = complex(math.inf, math.inf)

# Weideman coefficients, N = 48, generated from the defining Fourier sums at
# 60 decimal digits.  Real by construction; highest polynomial degree first.
_WEIDEMAN_L = 5.8259012604878810434
_WEIDEMAN_COEFS = (
    -1.7229929424733809760e-18, -1.7002414703709919185e-18,
    1.0143644768076384449e-17, 1.1239721046711718533e-17,
    -5.9805823062946816686e-17, -8.3042615498912872336e-17,
    3.4839124551595775081e-16, 6.5544810181918919605e-16,
    -1.9426648606382169699e-15, -5.2979443451748263600e-15,
    9.6048404827117240780e-15, 4.2343104696919381945e-14,
    -3.1939423743169578190e-14, -3.2268483073834781968e-13,
    -9.6432764464304551797e-14, 2.2154904726186045999e-12,
    3.4254258518412529323e-12, -1.1935494328759350903e-11,
    -4.3865882662554395362e-11, 2.1621977623864712633e-11,
    3.8794210668839531470e-10, 5.7752897655739289375e-10,
    -2.0156599753747293333e-9, -9.5962547526903269983e-9,
    -6.3868099518349111015e-9, 6.9270006358871891208e-8,
    2.6549492017089925545e-7, 1.9494337483322260436e-7,
    -1.9445657789319262658e-6, -9.4756382403851335839e-6,
    -1.9054461618984306611e-5, 1.7506316371146353925e-5,
    3.0786913640886617021e-4, 1.4864991251956357011e-3,
    5.1258135482258635624e-3, 1.4546837792237557580e-2,
    3.5861369983376719050e-2, 7.8955895534700230206e-2,
    1.5786330443380481970e-1, 2.8979989079604830277e-1,
    4.9225702391399072777e-1, 7.7806241914842289259e-1,
    1.1492204645397782597, 1.5913084691178007425,
    2.0707599716742919656, 2.5370484874446906635,
    2.9304498956237564941, 3.1940645893950711745,
)

_ASYMPTOTIC_MIN_W2 = 64.0   # |w|^2 from which A&S 7.1.23 replaces Weideman
_OMITTED_TERM = 1e-18       # bound on the first omitted asymptotic term
_HALF_MAX = 0.5 * sys.float_info.max   # 2xy is finite up to this xy
_SPLITTER = 134217729.0     # 2^27 + 1, Veltkamp's splitting constant


def _asymptotic_bands():
    """Horner coefficients of the A&S 7.1.23 series, one band per binade.

    The series is 1 + sum_{m=1..M} a_m u^m with u = 1/(2 w^2) and
    a_m = (-1)^m (2m-1)!!.  The band of the binary exponent e holds
    2^(e-1) <= |w|^2 < 2^e, where |u| <= 2^-e, and keeps the fewest terms M
    whose first omitted one, (2M+1)!! 2^(-e(M+1)), is below 1e-18.
    Returns ({e: coefficients, highest degree first}, the |w|^2 from which
    no term is left)."""
    bands = {}
    e = math.frexp(_ASYMPTOTIC_MIN_W2)[1]
    while True:
        u_max = 2.0 ** -e
        coefs = [1.0]
        omitted = u_max            # (2M+1)!! u_max^(M+1) with M = 0
        while omitted >= _OMITTED_TERM:
            m = len(coefs)
            coefs.append(-(2 * m - 1) * coefs[-1])
            omitted *= (2 * m + 1) * u_max
        if len(coefs) == 1:
            return bands, 2.0 ** (e - 1)
        bands[e] = tuple(reversed(coefs))
        e += 1


_ASYMPTOTIC, _NO_TERMS_W2 = _asymptotic_bands()


def _erfcx_right(w: complex) -> complex:
    """erfcx(w) for Re w >= 0: Weideman inside |w| = 8, A&S 7.1.23 outside."""
    x, y = w.real, w.imag
    r2 = x * x + y * y
    if r2 < _ASYMPTOTIC_MIN_W2:
        # Faddeeva function at u = i w (Im u = Re w >= 0 as the method
        # requires); with u = i w the map Z = (L + i u)/(L - i u) collapses
        # to (L - w)/(L + w).
        denom = _WEIDEMAN_L + w
        z_map = (_WEIDEMAN_L - w) / denom
        p = 0j
        for c in _WEIDEMAN_COEFS:
            p = p * z_map + c
        return 2.0 * p / (denom * denom) + INV_SQRT_PI / denom
    if r2 >= _NO_TERMS_W2:
        # no term is left, and beyond |w| ~ 1e154 w*w would overflow
        return INV_SQRT_PI / w
    u = 0.5 / (w * w)
    p = 0j
    for c in _ASYMPTOTIC[math.frexp(r2)[1]]:
        p = p * u + c
    return p / (SQRT_PI * w)


def _exp_square(x: float, y: float) -> complex:
    """exp((x + iy)^2) = exp((x - y)(x + y) + 2ixy), with 2xy carried in
    double-double; the OVERFLOW tag where the value, or its phase, leaves
    the double range."""
    re = (x - y) * (x + y)     # x + y is exact near the rays |x| = |y|
    if not re <= _EXP_OVERFLOW:
        return OVERFLOW
    if re < _EXP_UNDERFLOW:
        return 0j
    # Dekker's TwoProduct: hi + lo = x*y exactly
    hi = x * y
    if abs(hi) > _HALF_MAX:
        return OVERFLOW
    t = _SPLITTER * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    t = _SPLITTER * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    lo = ((x_hi * y_hi - hi) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo
    # exp(2i lo) is 1 + 2i lo to rounding while |2 lo| < 1e-8
    t = lo + lo
    rot = complex(1.0, t) if -1e-8 < t < 1e-8 else cmath.exp(complex(0.0, t))
    return cmath.exp(complex(re, hi + hi)) * rot


def erfcx_complex(w: complex) -> complex:
    """Scaled complementary error function exp(w^2) erfc(w) of a complex w.

    Returns the OVERFLOW tag where the value exceeds the double range
    (deep inside the divergence sector |arg w| > 3 pi/4).
    """
    if w.real >= 0.0:
        return _erfcx_right(w)
    e = _exp_square(w.real, w.imag)
    if e is OVERFLOW:
        return OVERFLOW
    return 2.0 * e - _erfcx_right(-w)


def erfcx_pair(w: complex) -> tuple:
    """(erfcx(w), erfcx(-w)), bit for bit the two :func:`erfcx_complex`
    values, from one right-half-plane evaluation off the imaginary axis:
    erfcx at whichever of +-w has Re > 0, and the reflection
    2 exp(w^2) - that value for the other.  On the axis (and for a NaN
    real part) both values are evaluated directly."""
    if w.real > 0.0:
        r = _erfcx_right(w)
        e = _exp_square(-w.real, -w.imag)
        return r, OVERFLOW if e is OVERFLOW else 2.0 * e - r
    if w.real < 0.0:
        r = _erfcx_right(-w)
        e = _exp_square(w.real, w.imag)
        return OVERFLOW if e is OVERFLOW else 2.0 * e - r, r
    return erfcx_complex(w), erfcx_complex(-w)


def erfc_complex(w: complex) -> complex:
    """Complementary error function of a complex argument.

    Returns the OVERFLOW tag where |erfc(w)| exceeds the double range
    (|w| large near the imaginary axis, or deep in the left half plane).
    """
    if w.real < 0.0:
        v = erfc_complex(-w)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            return OVERFLOW
        return 2.0 - v
    ex = _exp_square(-w.imag, w.real)     # exp(-w^2) = exp((i w)^2)
    if ex is OVERFLOW:
        return OVERFLOW
    val = ex * erfcx_complex(w)
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        return OVERFLOW
    return val
