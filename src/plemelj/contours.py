"""Oriented integration paths and wedge-shaped convergence domains.

A :class:`Contour` is an ordered chain of straight segments and circular
arcs, optionally marked where it passes through the origin (the singular
point of the kernels) and optionally tagged with infinite entry/exit rays.
A :class:`WedgeDomain` is one of the three angular convergence regions of
the regularized kernels: the plane minus a lower wedge ("plus"), minus the
mirrored upper wedge ("minus"), or minus both ("intersection"); membership
is a pure angular test around the apex, strict on the boundary rays.

Path-in-domain checks are exact.  With v = z - apex, the closed lower
wedge is {v != 0 : h(v) <= 0}, h(v) = Im v + |Re v| (the upper one uses
h(-v)).  h is piecewise linear along lines and rays and piecewise
sinusoidal along arcs, so a path enters a wedge iff one of its candidate
points does: segment ends, kinks Re v = 0, arc angles +-pi/4 and +-3pi/4,
and where a ray's falling tail of h crosses 0.  :func:`domain_violations`
reports the first candidate outside, in path order.

:func:`deform_at_origin` realizes the standard deformation that removes a
radius-epsilon neighbourhood of the marked origin crossing and bridges the
gap with a circular arc above or below, keeping the path orientation.

Tolerances are fixed constants: 1e-14 for geometric coincidence
(continuity, crossing-on-origin) and 1e-12 for crossing detection.
Contours and domains are immutable; every operation is pure.
"""
import cmath
import json
import math
from dataclasses import dataclass

COINCIDENCE_TOL = 1e-14
CROSSING_TOL = 1e-12

_TWO_PI = 2.0 * math.pi
_QUARTER_PI = 0.25 * math.pi
_THREE_QUARTER_PI = 0.75 * math.pi
_LONG_LINE = 2.0 ** 500   # |d| ** 2 overflows beyond 2 ** 512 (1.3e154)


class ContourError(ValueError):
    """Ill-formed contour or ill-posed geometric request."""


@dataclass(frozen=True)
class Line:
    """Directed straight segment from ``start`` to ``end``."""
    start: complex
    end: complex

    def __post_init__(self):
        object.__setattr__(self, "start", complex(self.start))
        object.__setattr__(self, "end", complex(self.end))
        for v in (self.start, self.end):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ContourError(f"non-finite segment endpoint {v!r}")
        try:
            length = abs(self.end - self.start)
        except OverflowError:   # finite parts, modulus beyond the double range
            length = math.inf
        if length == math.inf:
            raise ContourError("line segment longer than the double range")
        # min_distance and radius_hits divide by the squared length.  _frame
        # rescales lines whose squared length would overflow; below a length
        # of about 1.5e-162 it underflows to 0, so such lines are refused
        if length * length == 0.0:
            raise ContourError("zero-length line segment (its squared "
                               "length is 0 in double precision)")

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def derivative(self, t: float) -> complex:
        return self.end - self.start

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def subsegment(self, t0: float, t1: float) -> "Line":
        return Line(self.point(t0), self.point(t1))

    def shifted(self, d: complex) -> "Line":
        """The same line moved by ``d``."""
        return Line(self.start + d, self.end + d)

    def _frame(self, p: complex, eps: float = 0.0):
        """(p - start, end - start, eps), all scaled by one power of two for
        lines longer than _LONG_LINE, whose squared length overflows beyond
        1.3e154.  The callers divide products of these by the squared
        length, so the scale cancels exactly.  Shorter lines are not
        scaled."""
        d = self.end - self.start
        rel = p - self.start
        length = abs(d)
        if length > _LONG_LINE:
            s = math.ldexp(1.0, -math.frexp(length)[1])
            return rel * s, d * s, eps * s
        return rel, d, eps

    def min_distance(self, p: complex):
        """Closest approach to ``p``: returns (distance, parameter)."""
        rel, d, _ = self._frame(p)
        t = (rel.real * d.real + rel.imag * d.imag) / (abs(d) ** 2)
        t = min(1.0, max(0.0, t))
        return abs(self.point(t) - p), t

    def radius_hits(self, eps: float, center: complex = 0.0 + 0.0j):
        """Parameters t in [0, 1] where |point(t) - center| = eps.

        Solved around the closest-approach point rather than with the raw
        quadratic formula, whose discriminant cancels catastrophically when
        eps is small against the endpoint distances.
        """
        rel, d, eps = self._frame(center, eps)
        len2 = abs(d) ** 2
        t_c = (rel.real * d.real + rel.imag * d.imag) / len2
        # compared, then factored: a distance or eps beyond 1.3e154
        # overflows when squared
        dist = abs(t_c * d - rel)
        if dist > eps:
            return []
        off = math.sqrt((eps - dist) * (eps + dist) / len2)
        return [t for t in (t_c - off, t_c + off) if -1e-12 <= t <= 1.0 + 1e-12]


@dataclass(frozen=True)
class Arc:
    """Directed circular arc: center + radius * exp(i theta), theta running
    from ``theta_start`` to ``theta_end`` (signed sweep, radians)."""
    center: complex
    radius: float
    theta_start: float
    theta_end: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "theta_start", float(self.theta_start))
        object.__setattr__(self, "theta_end", float(self.theta_end))
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise ContourError(f"non-finite arc center {self.center!r}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ContourError(f"arc radius must be positive, got {self.radius!r}")
        sweep = self.theta_end - self.theta_start
        if sweep == 0.0 or abs(sweep) > _TWO_PI + 1e-12:
            raise ContourError(f"arc sweep must be nonzero and at most 2 pi, got {sweep!r}")

    @property
    def sweep(self) -> float:
        return self.theta_end - self.theta_start

    def _theta(self, t: float) -> float:
        return self.theta_start + t * self.sweep

    def point(self, t: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * self._theta(t))

    def derivative(self, t: float) -> complex:
        return 1j * self.sweep * self.radius * cmath.exp(1j * self._theta(t))

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    @property
    def length(self) -> float:
        return self.radius * abs(self.sweep)

    def subsegment(self, t0: float, t1: float) -> "Arc":
        return Arc(self.center, self.radius, self._theta(t0), self._theta(t1))

    def shifted(self, d: complex) -> "Arc":
        """The same arc moved by ``d``."""
        return Arc(self.center + d, self.radius, self.theta_start, self.theta_end)

    def _param_of_theta(self, theta: float):
        """Map an absolute angle to t in [0, 1] if it lies on the arc."""
        off = (theta - self.theta_start) % _TWO_PI
        if self.sweep < 0.0:
            off -= _TWO_PI
        t = off / self.sweep
        if -1e-12 <= t <= 1.0 + 1e-12:
            return min(1.0, max(0.0, t))
        # the wrapped alternative (relevant when |sweep| is close to 2 pi)
        alt = off - _TWO_PI if self.sweep > 0 else off + _TWO_PI
        t = alt / self.sweep
        if -1e-12 <= t <= 1.0 + 1e-12:
            return min(1.0, max(0.0, t))
        return None

    def min_distance(self, p: complex):
        """Closest approach to ``p``: returns (distance, parameter)."""
        rel = p - self.center
        candidates = [0.0, 1.0]
        if abs(rel) > 0.0:
            t = self._param_of_theta(cmath.phase(rel))
            if t is not None:
                candidates.append(t)
        best = min(candidates, key=lambda t: abs(self.point(t) - p))
        return abs(self.point(best) - p), best

    def radius_hits(self, eps: float, center: complex = 0.0 + 0.0j):
        """Parameters t in [0, 1] where |point(t) - center| = eps."""
        rel = center - self.center
        c = abs(rel)
        if c == 0.0:
            return []  # |point - center| is constant; an eps-match is degenerate
        cos_beta = (c * c + self.radius * self.radius - eps * eps) / (2.0 * c * self.radius)
        if abs(cos_beta) > 1.0:
            return []
        beta = math.acos(max(-1.0, min(1.0, cos_beta)))
        psi = cmath.phase(rel)  # direction from arc center towards the probe center
        ts = []
        for theta in (psi - beta, psi + beta):
            t = self._param_of_theta(theta)
            if t is not None:
                ts.append(t)
        return sorted(set(ts))


def _as_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ContourError(f"{what} must be finite, got {z!r}")
    return z


def _real(value, what: str) -> float:
    """An int (not a bool) or a float as a float, inf beyond the double
    range; anything else is refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContourError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:   # an int beyond the double range
        return math.inf


def _point(value, what: str) -> complex:
    """A JSON point [re, im] as a complex number."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ContourError(f"{what} must be a [re, im] pair, got {value!r}")
    return complex(_real(value[0], what), _real(value[1], what))


def _ray_angle(angle, what: str):
    """A ray's direction angle as a finite float, or None for no ray."""
    if angle is None:
        return None
    angle = _real(angle, what)
    if not math.isfinite(angle):
        raise ContourError(f"{what} must be finite, got {angle!r}")
    return angle


class Contour:
    """Oriented piecewise path of lines and arcs.

    ``crossing`` is the index of the segment that passes through z = 0 (or
    None); the exact on-segment location is resolved at construction and
    must coincide with the origin to within 1e-14.  ``ray_in``/``ray_out``
    optionally tag the path as extending to infinity before its first /
    after its last finite segment, along the given direction angles
    (traversal direction); rays take part in domain checks and can be
    truncated to finite segments for quadrature.
    """

    def __init__(self, segments, crossing=None, ray_in=None, ray_out=None):
        segments = tuple(segments)
        if not segments:
            raise ContourError("contour needs at least one segment")
        for a, b in zip(segments[:-1], segments[1:]):
            gap = abs(a.end - b.start)
            if gap > COINCIDENCE_TOL:
                raise ContourError(
                    f"discontinuous contour: gap {gap:.3e} between consecutive segments")
        self.segments = segments
        self.ray_in = _ray_angle(ray_in, "ray_in")
        self.ray_out = _ray_angle(ray_out, "ray_out")
        if crossing is None:
            self.crossing = None
            self.crossing_param = None
        else:
            if isinstance(crossing, bool) or not isinstance(crossing, int):
                raise ContourError(
                    f"crossing must be a segment index, got {crossing!r}")
            if not 0 <= crossing < len(segments):
                raise ContourError(f"crossing segment index {crossing} out of range")
            dist, t = segments[crossing].min_distance(0.0 + 0.0j)
            if dist > COINCIDENCE_TOL:
                raise ContourError(
                    f"marked crossing segment misses the origin by {dist:.3e}")
            self.crossing = crossing
            self.crossing_param = t

    # -- basic geometry -------------------------------------------------

    @property
    def start(self) -> complex:
        return self.segments[0].start

    @property
    def end(self) -> complex:
        return self.segments[-1].end

    @property
    def length(self) -> float:
        return sum(s.length for s in self.segments)

    @property
    def is_infinite(self) -> bool:
        return self.ray_in is not None or self.ray_out is not None

    def point(self, loc) -> complex:
        seg, t = loc
        return self.segments[seg].point(t)

    def min_distance(self, p: complex):
        """Closest approach of the finite segments to ``p``.

        Returns (distance, (segment_index, parameter)).
        """
        p = _as_finite(p, "point")
        best = (math.inf, (0, 0.0))
        for i, seg in enumerate(self.segments):
            d, t = seg.min_distance(p)
            if d < best[0]:
                best = (d, (i, t))
        return best

    def arm_lengths(self):
        """Path length before and after the marked crossing."""
        if self.crossing is None:
            raise ContourError("contour has no crossing marker")
        i, t = self.crossing, self.crossing_param
        before = sum(s.length for s in self.segments[:i]) + t * self.segments[i].length
        after = (1.0 - t) * self.segments[i].length + sum(
            s.length for s in self.segments[i + 1:])
        return before, after

    def crossing_directions(self):
        """Tangents (d_in, d_out) of the path at the marked crossing.  On a
        vertex they are the end tangent of the segment before it and the
        start tangent of the one after; inside a segment, or within 1e-13
        of an end of the path, they are the same tangent twice, so the
        path has no turn there."""
        if self.crossing is None:
            raise ContourError("contour has no crossing marker")
        i, t = self.crossing, self.crossing_param
        segs = self.segments
        b = i - 1 if t <= 1e-13 else i      # the vertex after segment b
        if 1e-13 < t < 1.0 - 1e-13 or not 0 <= b < len(segs) - 1:
            d = segs[i].derivative(t)
            return d, d
        return segs[b].derivative(1.0), segs[b + 1].derivative(0.0)

    def truncated(self, length_in: float, length_out: float) -> "Contour":
        """Replace infinite rays by finite straight segments of the given lengths."""
        segs = list(self.segments)
        if self.ray_in is not None:
            d = cmath.exp(1j * self.ray_in)
            segs.insert(0, Line(self.start - length_in * d, self.start))
        if self.ray_out is not None:
            d = cmath.exp(1j * self.ray_out)
            segs.append(Line(self.end, self.end + length_out * d))
        crossing = self.crossing
        if crossing is not None and self.ray_in is not None:
            crossing += 1
        return Contour(segs, crossing=crossing)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        segs = []
        for s in self.segments:
            if isinstance(s, Line):
                segs.append({"type": "line",
                             "start": [s.start.real, s.start.imag],
                             "end": [s.end.real, s.end.imag]})
            else:
                segs.append({"type": "arc",
                             "center": [s.center.real, s.center.imag],
                             "radius": s.radius,
                             "theta_start": s.theta_start,
                             "theta_end": s.theta_end})
        out = {"segments": segs, "crossing": self.crossing}
        # finite paths keep their ray-free JSON
        for key, angle in (("ray_in", self.ray_in), ("ray_out", self.ray_out)):
            if angle is not None:
                out[key] = angle
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Contour":
        raw = data.get("segments") if isinstance(data, dict) else None
        if not isinstance(raw, list):
            raise ContourError("contour JSON needs a 'segments' list")
        segs = []
        for i, entry in enumerate(raw):
            try:
                kind = entry["type"]
                if kind == "line":
                    segs.append(Line(_point(entry["start"], "start"),
                                     _point(entry["end"], "end")))
                elif kind == "arc":
                    segs.append(Arc(_point(entry["center"], "center"),
                                    *(_real(entry[key], key) for key in
                                      ("radius", "theta_start", "theta_end"))))
                else:
                    raise ContourError(f"unknown type {kind!r}")
            except ContourError as exc:
                raise ContourError(f"segment {i}: {exc}") from exc
            except (KeyError, TypeError) as exc:
                raise ContourError(f"segment {i}: malformed entry ({exc})") from exc
        return cls(segs, crossing=data.get("crossing"),
                   ray_in=data.get("ray_in"), ray_out=data.get("ray_out"))

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Contour":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ContourError(f"invalid contour JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def __repr__(self):
        tag = "" if self.crossing is None else f", crossing={self.crossing}"
        rays = ""
        if self.is_infinite:
            rays = f", rays=({self.ray_in}, {self.ray_out})"
        return f"Contour({len(self.segments)} segments{tag}{rays})"


def segment_path(*points, crossing="auto") -> Contour:
    """Polyline through ``points``; crossing='auto' marks a segment passing
    through the origin if one exists, None skips marking, and a segment
    index marks that segment (:class:`Contour` refuses anything else)."""
    pts = [_as_finite(p, "polyline point") for p in points]
    if len(pts) < 2:
        raise ContourError("need at least two points")
    segs = [Line(a, b) for a, b in zip(pts[:-1], pts[1:])]
    if crossing == "auto":
        crossing = next((i for i, s in enumerate(segs)
                         if s.min_distance(0.0 + 0.0j)[0] <= COINCIDENCE_TOL), None)
    return Contour(segs, crossing=crossing)


def tilted_segment(phi: float, q_min: float, q_max: float) -> Contour:
    """The tilted-line piece {q e^{i phi} : q in [q_min, q_max]} with the
    origin crossing marked (requires q_min < 0 < q_max)."""
    if not q_min < 0.0 < q_max:
        raise ContourError("tilted segment needs q_min < 0 < q_max")
    d = cmath.exp(1j * phi)
    return Contour([Line(q_min * d, 0.0 + 0.0j), Line(0.0 + 0.0j, q_max * d)],
                   crossing=1)


# -- wedge domains -------------------------------------------------------

@dataclass(frozen=True)
class WedgeDomain:
    """Angular convergence domain around an apex.

    kind 'plus': everything except the closed lower wedge
    arg in [5 pi/4, 7 pi/4] around the apex (boundary rays excluded from
    the domain); 'minus': the point reflection of that wedge into the
    upper half plane; 'intersection': both constraints at once.
    """
    kind: str
    apex: complex = 0.0 + 0.0j

    _KINDS = ("plus", "minus", "intersection")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        _as_finite(self.apex, "apex")

    @classmethod
    def plus(cls, apex=0.0 + 0.0j):
        return cls("plus", complex(apex))

    @classmethod
    def minus(cls, apex=0.0 + 0.0j):
        return cls("minus", complex(apex))

    @classmethod
    def intersection(cls, apex=0.0 + 0.0j):
        return cls("intersection", complex(apex))


def _angular_inside_plus(v: complex) -> bool:
    # inside iff the angle, normalized into [-pi/4, 7 pi/4), lies strictly
    # within (-pi/4, 5 pi/4); equivalently, the principal atan2 angle is
    # strictly outside the closed excluded wedge [-3 pi/4, -pi/4].  Stated
    # on the principal range directly so boundary points are not nudged
    # across the strict inequality by a lossy +2 pi renormalization.
    theta = math.atan2(v.imag, v.real)
    return theta > -_QUARTER_PI or theta < -_THREE_QUARTER_PI


def classify_point(z: complex, domain: WedgeDomain) -> str:
    """Membership of ``z`` in a wedge domain: 'inside', 'outside' or 'apex'."""
    z = _as_finite(z, "point")
    v = z - domain.apex
    if abs(v) <= COINCIDENCE_TOL:
        return "apex"
    if domain.kind == "plus":
        ok = _angular_inside_plus(v)
    elif domain.kind == "minus":
        ok = _angular_inside_plus(-v)
    else:
        ok = _angular_inside_plus(v) and _angular_inside_plus(-v)
    return "inside" if ok else "outside"


def _line_params(v0: complex, d: complex, signs, end: float):
    """Distances s in [0, end] along v0 + s d where h(sign v) can be least:
    a segment's ends and kink Re v = 0; a ray's (end = inf) kink and, where
    h falls along its tail, the zero of h and a point beyond it."""
    kink = -v0.real / d.real if d.real != 0.0 else 0.0
    ss = [kink] if 0.0 < kink < end else []
    if end < math.inf:
        return [0.0, *ss, end]
    s0 = ss[0] if ss else 0.0
    v = v0 + s0 * d
    for sign in signs:
        slope = sign * d.imag + abs(d.real)   # h(sign d), the tail's slope
        if slope < 0.0:
            cross = s0 + max(sign * v.imag + abs(v.real), 0.0) / -slope
            ss += [cross, 2.0 * cross + 1.0]   # beyond: rounding can't hide it
    return sorted(ss)


def _arc_params(arc: Arc, apex: complex):
    """Parameters where h can be least on an arc: the ends, the kinks
    Re v = 0 and the angles where r (sin theta +- cos theta) is stationary."""
    thetas = [q * _QUARTER_PI for q in (-3, -1, 1, 3)]
    cos_kink = (apex - arc.center).real / arc.radius
    if -1.0 <= cos_kink <= 1.0:
        thetas += [math.acos(cos_kink), -math.acos(cos_kink)]
    ts = {0.0, 1.0}
    ts.update(t for t in map(arc._param_of_theta, thetas) if t is not None)
    return sorted(ts)


def path_in_domain(path: Contour, domain: WedgeDomain) -> str:
    """Classify a path against a wedge domain.

    Returns 'fully_inside', 'inside_except_crossing' (the only non-inside
    point is the marked origin crossing sitting at the apex) or 'violates'.
    Raises ContourError if the path passes within 1e-12 of the apex
    anywhere but at a crossing marker there.  The verdict is exact (module
    docstring).
    """
    detail = domain_violations(path, domain)
    if detail["unmarked_apex"]:
        raise ContourError(
            f"path passes within {CROSSING_TOL:.0e} of the domain apex "
            f"{domain.apex!r} away from a marked crossing")
    if detail["violations"]:
        return "violates"
    return "inside_except_crossing" if detail["apex_crossing"] else "fully_inside"


def _ray_meets(z0: complex, d: complex, point: complex) -> bool:
    """Whether the ray z0 + s d (s > 0, d a unit vector) comes within
    CROSSING_TOL of ``point`` beyond its finite end z0, which belongs to
    the path's segments and is judged with them.  The distance is convex
    along the ray, so its closest approach decides: at s = -Re((z0 - point)
    conj(d)), where it is |Im((z0 - point) conj(d))|."""
    v = z0 - point
    if abs(v) <= CROSSING_TOL:
        return False
    s = -(v.real * d.real + v.imag * d.imag)
    return s > 0.0 and abs(v.imag * d.real - v.real * d.imag) <= CROSSING_TOL


def domain_violations(path: Contour, domain: WedgeDomain) -> dict:
    """Exact domain check used by path_in_domain and error reporting.

    Each candidate point (module docstring) is decided by
    :func:`classify_point`; one at the apex is left to the crossing marker.
    Returns {'violations': [] or [(segment_index, t, point)], the first
    outside candidate in path order (rays are indexed -1 and len(segments),
    t being the distance from their finite end), 'apex_crossing': bool,
    'unmarked_apex': bool}, the last set when the path, rays included,
    comes within CROSSING_TOL of the apex other than at a marked crossing
    there.
    """
    apex = domain.apex
    crossing_at_apex = (
        path.crossing is not None
        and abs(path.point((path.crossing, path.crossing_param)) - apex) <= CROSSING_TOL)
    # (index, finite end, unit direction) of each ray
    rays = [(i, z0, sense * cmath.exp(1j * angle))
            for i, z0, angle, sense in ((-1, path.start, path.ray_in, -1.0),
                                        (len(path.segments), path.end, path.ray_out, 1.0))
            if angle is not None]
    unmarked = (meets_off_crossing(path, apex) if crossing_at_apex
                else path.min_distance(apex)[0] <= CROSSING_TOL)
    unmarked = unmarked or any(_ray_meets(z0, d, apex) for _i, z0, d in rays)
    signs = {"plus": (1.0,), "minus": (-1.0,), "intersection": (1.0, -1.0)}[domain.kind]
    candidates = []
    for i, seg in enumerate(path.segments):
        if isinstance(seg, Line):
            ts = _line_params(seg.start - apex, seg.end - seg.start, signs, 1.0)
        else:
            ts = _arc_params(seg, apex)
        candidates += [(i, t, seg.point(t)) for t in ts]
    for i, z0, d in rays:
        candidates += [(i, s, z0 + s * d)
                       for s in _line_params(z0 - apex, d, signs, math.inf)]
    candidates.sort(key=lambda c: c[:2])
    first = next((c for c in candidates if classify_point(c[2], domain) == "outside"), None)
    return {"violations": [] if first is None else [first],
            "apex_crossing": crossing_at_apex, "unmarked_apex": unmarked}


# -- origin deformation ----------------------------------------------------


def _walk_to_radius(path: Contour, eps: float, forward: bool):
    """From the marked crossing, walk along the path until |z| = eps.

    Returns (segment_index, t) of the first hit.  Raises ContourError when
    the path ends inside the eps-disk (epsilon too large).
    """
    i0, t0 = path.crossing, path.crossing_param
    n = len(path.segments)
    i, lo_t = i0, t0
    while 0 <= i < n:
        seg = path.segments[i]
        hits = seg.radius_hits(eps)
        if forward:
            hits = [t for t in hits if t > lo_t + 1e-13]
            if hits:
                return i, min(hits)
            i += 1
            lo_t = -1.0
        else:
            hits = [t for t in hits if t < lo_t - 1e-13]
            if hits:
                return i, max(hits)
            i -= 1
            lo_t = 2.0
    raise ContourError(
        f"epsilon {eps!r} reaches past the contour endpoint; "
        "choose it smaller than the distance from the crossing to either endpoint")


def radius_cut_locations(path: Contour, eps: float):
    """Locations where a crossing-marked path enters and leaves the
    origin-centred eps-disk: ((seg, t) before, (seg, t) after)."""
    if path.crossing is None:
        raise ContourError("contour has no crossing marker at the origin")
    before, after = path.arm_lengths()
    if not 0.0 < eps < min(before, after):
        raise ContourError(
            f"epsilon must lie in (0, {min(before, after):.6g}) for this contour, "
            f"got {eps!r}")
    return (_walk_to_radius(path, eps, forward=False),
            _walk_to_radius(path, eps, forward=True))


def subpath_segments(path: Contour, loc0, loc1):
    """Segments of the piece of ``path`` between locations loc0 and loc1
    (each a (segment_index, t) pair, loc0 not after loc1)."""
    (i0, t0), (i1, t1) = loc0, loc1
    if (i0, t0) > (i1, t1):
        raise ContourError("subpath locations out of order")
    if i0 == i1:
        if t1 - t0 <= 1e-13:
            return []
        return [path.segments[i0].subsegment(t0, t1)]
    out = []
    if t0 < 1.0 - 1e-13:
        out.append(path.segments[i0].subsegment(t0, 1.0))
    out.extend(path.segments[i0 + 1:i1])
    if t1 > 1e-13:
        out.append(path.segments[i1].subsegment(0.0, t1))
    return out


def crossing_arms(path: Contour):
    """The segments of a crossing-marked path before and after its marked
    crossing, the crossing segment cut there: (before, after), each in path
    order."""
    cross = (path.crossing, path.crossing_param)
    return (subpath_segments(path, (0, 0.0), cross),
            subpath_segments(path, cross, (len(path.segments) - 1, 1.0)))


def meets_off_crossing(path: Contour, point: complex) -> bool:
    """Whether a path whose marked crossing lies at ``point`` comes within
    CROSSING_TOL of it anywhere else: walking out from the crossing along
    either arm, the path must leave that disk and stay out.  The distance
    to a point is convex along a line and has one minimum on a circle, so
    a piece that starts inside and ends outside cannot dip back in; an arc
    that ends inside has closed up on the crossing if its midpoint is out.
    """
    before, after = crossing_arms(path)
    for arm in ([(seg.start, seg) for seg in reversed(before)],
                [(seg.end, seg) for seg in after]):
        left = False
        for far, seg in arm:
            if left:
                if seg.min_distance(point)[0] <= CROSSING_TOL:
                    return True
            elif abs(far - point) > CROSSING_TOL:
                left = True
            elif isinstance(seg, Arc) and abs(seg.point(0.5) - point) > CROSSING_TOL:
                return True
    return False


def split_at_radius(path: Contour, eps: float):
    """Split a crossing-marked path at |z| = eps around the origin.

    Returns (head_segments, a, b, tail_segments): the part of the path up
    to the entry point ``a`` of the eps-disk and the part from the exit
    point ``b`` on; both endpoints lie at |z| = eps exactly (up to roundoff).
    """
    (bi, bt), (fi, ft) = radius_cut_locations(path, eps)
    head = subpath_segments(path, (0, 0.0), (bi, bt))
    tail = subpath_segments(path, (fi, ft), (len(path.segments) - 1, 1.0))
    a = path.segments[bi].point(bt)
    b = path.segments[fi].point(ft)
    return head, a, b, tail


def deform_at_origin(path: Contour, epsilon: float, side: str) -> Contour:
    """Deform a crossing-marked path around z = 0.

    Removes the radius-``epsilon`` neighbourhood of the marked crossing and
    bridges it with the circular arc of radius epsilon centred at the
    origin passing on the requested ``side`` ('above': through the upper
    half plane, 'below': through the lower); for a straight crossing this
    is the textbook semicircle.  Orientation is preserved; the result
    carries no crossing marker, so deforming twice raises.
    """
    if side not in ("above", "below"):
        raise ContourError(f"side must be 'above' or 'below', got {side!r}")
    if not (isinstance(epsilon, (int, float)) and epsilon > 0.0
            and math.isfinite(epsilon)):
        raise ContourError(f"epsilon must be a positive real, got {epsilon!r}")
    head, a, b, tail = split_at_radius(path, float(epsilon))
    theta_a = cmath.phase(a)
    theta_b = cmath.phase(b)
    sweep_ccw = (theta_b - theta_a) % _TWO_PI
    candidates = []
    for sweep in (sweep_ccw, sweep_ccw - _TWO_PI):
        if sweep == 0.0:
            continue
        mid_sin = math.sin(theta_a + 0.5 * sweep)
        candidates.append((sweep, mid_sin))
    want = 1.0 if side == "above" else -1.0
    chosen = [s for s, m in candidates if m * want > 1e-12]
    if not chosen:
        raise ContourError(
            f"no radius-{epsilon} arc on side {side!r} connects the excision "
            f"points: neither arc between their arguments {theta_a:.4f} and "
            f"{theta_b:.4f} passes {side} the origin")
    arc = Arc(0.0 + 0.0j, float(epsilon), theta_a, theta_a + chosen[0])
    # snap straight neighbours exactly onto the arc endpoints (the cut
    # solver leaves ~1e-15 residue that would trip the continuity check)
    if head and isinstance(head[-1], Line):
        head = head[:-1] + [Line(head[-1].start, arc.start)]
    if tail and isinstance(tail[0], Line):
        tail = [Line(arc.end, tail[0].end)] + tail[1:]
    return Contour(head + [arc] + tail, crossing=None,
                   ray_in=path.ray_in, ray_out=path.ray_out)
