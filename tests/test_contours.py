"""Contour geometry, wedge classification, deformation, serialization."""
import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plemelj.contours import (Arc, Contour, ContourError, Line, WedgeDomain,
                              classify_point, deform_at_origin,
                              domain_violations, meets_off_crossing,
                              path_in_domain, segment_path, split_at_radius,
                              tilted_segment)


# -- wedge membership -------------------------------------------------------

def test_classify_examples():
    plus = WedgeDomain.plus()
    assert classify_point(1j, plus) == "inside"
    assert classify_point(-1j, plus) == "outside"
    assert classify_point(0.0, plus) == "apex"
    assert classify_point(-1j, WedgeDomain.minus()) == "inside"


def test_boundary_rays_count_as_outside():
    plus = WedgeDomain.plus()
    # the diagonals carry the exact boundary angles -pi/4 and -3pi/4
    assert classify_point(1.0 - 1.0j, plus) == "outside"
    assert classify_point(-1.0 - 1.0j, plus) == "outside"
    assert classify_point(2.5 - 2.5j, plus) == "outside"
    # just inside both rays
    assert classify_point(cmath.rect(1.0, -math.pi / 4 + 1e-9), plus) == "inside"
    assert classify_point(cmath.rect(1.0, 5 * math.pi / 4 - 1e-9), plus) == "inside"
    # just outside (inside the wedge)
    assert classify_point(cmath.rect(1.0, -math.pi / 4 - 1e-9), plus) == "outside"
    assert classify_point(cmath.rect(1.0, 5 * math.pi / 4 + 1e-9), plus) == "outside"


def test_scale_invariance():
    rng = random.Random(1234)
    plus = WedgeDomain.plus()
    for _ in range(300):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-6:
            continue
        ref = classify_point(z, plus)
        for s in (1e-6, 0.3, 7.0, 1e5):
            assert classify_point(s * z, plus) == ref


def test_intersection_membership():
    both = WedgeDomain.intersection()
    assert classify_point(1.0, both) == "inside"
    assert classify_point(-1.0, both) == "inside"
    assert classify_point(1j, both) == "outside"   # upper wedge excluded
    assert classify_point(-1j, both) == "outside"  # lower wedge excluded


def test_shifted_apex():
    # with the apex at -i*eps the origin itself sits inside the domain
    dom = WedgeDomain.plus(apex=-0.01j)
    assert classify_point(0.0, dom) == "inside"
    assert classify_point(-0.01j, dom) == "apex"


# -- contour construction ---------------------------------------------------

def test_continuity_enforced():
    with pytest.raises(ContourError):
        Contour([Line(0.0, 1.0), Line(1.0 + 1e-10j, 2.0)])


def test_line_whose_squared_length_underflows_is_refused():
    # min_distance and radius_hits divide by |d|^2, which is 0 here although
    # |d| = 2e-320 is not
    for start, end in ((0.0, 0.0), (-1e-320, 1e-320), (1e-170j, 2e-170j)):
        with pytest.raises(ContourError):
            Line(start, end)
    assert Line(0.0, 1e-150).length == 1e-150
    assert Line(-1e200, 1e200).length == 2e200


def test_line_longer_than_the_double_range_is_refused():
    # end - start is inf here, and |d| overflows for the second pair
    for start, end in ((-1e308, 1e308), (-1.5e308 - 1.5e308j, 0.5e308 + 0.5e308j)):
        with pytest.raises(ContourError):
            Line(start, end)


def test_line_beyond_1e154_keeps_its_geometry():
    # |d| ** 2 overflows once |d| > 1.3e154; min_distance and radius_hits
    # used to raise a bare OverflowError on this line
    line = Line(-1e200, 1e200)
    assert line.min_distance(1j) == (1.0, 0.5)
    assert line.min_distance(5e199j) == (5e199, 0.5)
    assert line.min_distance(3e200) == (2e200, 1.0)
    assert line.radius_hits(1e199) == pytest.approx([0.45, 0.55], rel=1e-15)
    assert line.radius_hits(1e199, center=5e199) == pytest.approx([0.7, 0.8], rel=1e-15)
    assert line.radius_hits(3e200) == []
    # hits 5e-201 from the crossing round to its parameter
    assert line.radius_hits(1.0) == [0.5, 0.5]
    # a short line 1e200 from the centre: its distance is not squared
    assert Line(1e200j, 1e200j + 1).radius_hits(1.0) == []


def test_crossing_marked_contours_beyond_1e154():
    path = segment_path(-1e200, 1e200)
    assert (path.crossing, path.crossing_param) == (0, 0.5)
    assert path.arm_lengths() == (1e200, 1e200)
    assert path.min_distance(1j) == (1.0, (0, 0.5))
    tilted = tilted_segment(0.3, -1e200, 1e200)
    assert tilted.crossing == 1
    assert tilted.arm_lengths() == pytest.approx((1e200, 1e200), rel=1e-15)
    head, a, b, tail = split_at_radius(path, 1e199)
    assert a == pytest.approx(-1e199, rel=1e-15)
    assert b == pytest.approx(1e199, rel=1e-15)
    assert path_in_domain(path, WedgeDomain.intersection()) == "inside_except_crossing"


def test_crossing_must_hit_origin():
    with pytest.raises(ContourError):
        Contour([Line(-1.0 + 0.5j, 1.0 + 0.5j)], crossing=0)


@pytest.mark.parametrize("crossing", [0.9, "0", True, 0.0])
def test_segment_path_refuses_a_crossing_that_is_not_an_index(crossing):
    # no coercion: a fraction, a string or a bool is refused, as in JSON
    with pytest.raises(ContourError, match="must be a segment index"):
        segment_path(-1.0, 1.0, 2.0, crossing=crossing)


def test_crossing_resolution():
    c = segment_path(-1.0, 1.0)
    assert c.crossing == 0
    assert abs(c.crossing_param - 0.5) < 1e-15
    assert abs(c.point((0, 0.5))) == 0.0


def test_arm_lengths():
    c = segment_path(-1.0, 3.0)
    before, after = c.arm_lengths()
    assert abs(before - 1.0) < 1e-14
    assert abs(after - 3.0) < 1e-14


def test_arc_geometry():
    a = Arc(0.0, 2.0, 0.0, math.pi / 2)
    assert abs(a.start - 2.0) < 1e-15
    assert abs(a.end - 2.0j) < 1e-15
    assert abs(a.length - math.pi) < 1e-15
    d, t = a.min_distance(2.0 * cmath.exp(0.3j))
    assert d < 1e-14 and abs(t - 0.3 / (math.pi / 2)) < 1e-12


def test_arc_radius_hits():
    # circle through the origin: |z| = eps cuts it at two symmetric angles
    arc = Arc(1.0, 1.0, math.pi / 2, 3 * math.pi / 2)  # passes through 0 at t=0.5
    hits = arc.radius_hits(0.1)
    assert len(hits) == 2
    for t in hits:
        assert abs(abs(arc.point(t)) - 0.1) < 1e-13


# -- path-in-domain ---------------------------------------------------------

def test_path_in_domain_examples():
    plus = WedgeDomain.plus()
    marked = segment_path(-1.0, 1.0)
    assert path_in_domain(marked, plus) == "inside_except_crossing"
    low = segment_path(-1.0 - 2.0j, 1.0 - 2.0j)
    assert path_in_domain(low, plus) == "violates"
    assert path_in_domain(marked, WedgeDomain.intersection()) == "inside_except_crossing"


def test_unmarked_crossing_raises():
    unmarked = Contour([Line(-1.0, 1.0)])
    with pytest.raises(ContourError):
        path_in_domain(unmarked, WedgeDomain.plus())


def test_second_passage_through_the_apex_raises():
    twice = segment_path(-1.0, 2.0, 2.0 + 1j, -1.0 + 1j, -1.0, 1.0, crossing=0)
    assert domain_violations(twice, WedgeDomain.plus())["unmarked_apex"]
    with pytest.raises(ContourError, match="away from a marked crossing"):
        path_in_domain(twice, WedgeDomain.plus())


@pytest.mark.parametrize("path", [
    Contour([Line(1.0, 2.0)], ray_in=0.0),
    Contour([Line(-2.0 + 1j, -1.0)], ray_out=0.0),
    # beyond the ray's finite end, 1e-13 from the apex
    Contour([Line(-2.0 + 1j, -1.0 + 1e-13j)], ray_out=0.0),
], ids=["ray-in", "ray-out", "ray-out-grazing"])
def test_ray_through_the_apex_raises(path):
    # the truncated path raises too: the ray is a part of the path
    plus = WedgeDomain.plus()
    assert domain_violations(path, plus)["unmarked_apex"]
    for p in (path, path.truncated(5.0, 5.0)):
        with pytest.raises(ContourError, match="away from a marked crossing"):
            path_in_domain(p, plus)


@pytest.mark.parametrize("path, verdict", [
    (Contour([Line(1.0 + 1e-11j, 2.0 + 1e-11j)], ray_in=0.0), "fully_inside"),
    # the ray leaves from the marked crossing at the end of the segments
    (Contour([Line(-1.0, 0.0)], crossing=0, ray_out=0.0),
     "inside_except_crossing"),
], ids=["near-miss", "from-the-crossing"])
def test_ray_past_the_apex_passes(path, verdict):
    assert path_in_domain(path, WedgeDomain.plus()) == verdict


@pytest.mark.parametrize("path, meets", [
    # the stretch next to the crossing, kinked there, is the crossing itself
    (segment_path(-1.0, 0.0, 1.0 + 0.5j), False),
    # a second passage 7e-12 away misses CROSSING_TOL; 7e-14 away it meets
    (segment_path(-1.0, 1.0, 1.0 + 1e-11 + 1j, -1.0 + 1e-11 - 1j, crossing=0),
     False),
    (segment_path(-1.0, 1.0, 1.0 + 1e-13 + 1j, -1.0 + 1e-13 - 1j, crossing=0),
     True),
    # an arc leaving the crossing that closes up on it
    (Contour([Line(-1.0, 0.0), Arc(0.5, 0.5, math.pi, 3.0 * math.pi),
              Line(0.0, 1.0)], crossing=0), True),
    (Contour([Line(-1.0, 0.0), Arc(0.5, 0.5, math.pi, 2.5 * math.pi),
              Line(0.5 + 0.5j, 1.0 + 0.5j)], crossing=0), False),
], ids=["kinked", "near-miss", "second-passage", "closed-arc", "open-arc"])
def test_meets_off_crossing(path, meets):
    assert meets_off_crossing(path, 0.0 + 0.0j) is meets


def test_fully_inside_without_crossing():
    above = segment_path(-1.0 + 0.5j, 1.0 + 0.5j)
    assert path_in_domain(above, WedgeDomain.plus()) == "fully_inside"


def test_shifted_apex_path_is_fully_inside():
    # origin-crossing path against the apex-at-(-i eps) wedge: the apex is
    # off the path, so nothing is excluded
    marked = segment_path(-1.0, 1.0)
    assert path_in_domain(marked, WedgeDomain.plus(apex=-0.01j)) == "fully_inside"


def test_vertical_path_violates_plus_domain():
    vertical = segment_path(-1j, 1j)
    assert path_in_domain(vertical, WedgeDomain.plus()) == "violates"


_GRAZE = 10.0 / math.sqrt(2.0) + 1e-4   # the circle dips 1e-4 into the wedge


@pytest.mark.parametrize("path, domain, s_exit", [
    # a line whose ends are inside and whose kink Re z = 0 is not
    (Contour([Line(-1.0 - 1e-3j, 1.1 - 1e-3j)]), WedgeDomain.plus(), None),
    # rays entering a wedge only at s = 1000 sqrt(2) / sin(1e-4) ~ 7.07e6,
    # and at 1500 sqrt(2) / sin(1e-4) for the mirrored one
    (Contour([Line(0.5, 1000.0)], ray_out=-math.pi / 4 - 1e-4),
     WedgeDomain.plus(), 7.0711e6),
    (Contour([Line(-0.5, -1000.0 - 500j)], ray_out=3 * math.pi / 4 - 1e-4),
     WedgeDomain.minus(), 1.0607e7),
    # arcs whose points at theta = -3pi/4 (or its mirror pi/4) are outside
    (Contour([Arc(10.0, _GRAZE, -math.pi, -0.4)]), WedgeDomain.plus(), None),
    (Contour([Arc(10.0, _GRAZE, -math.pi, -0.4)]), WedgeDomain.intersection(), None),
    (Contour([Arc(-10.0, _GRAZE, 0.0, math.pi - 0.4)]), WedgeDomain.minus(), None),
    (Contour([Arc(-10.0, _GRAZE, 0.0, math.pi - 0.4)]),
     WedgeDomain.intersection(), None),
], ids=["line-kink", "ray-plus", "ray-minus", "arc-plus", "arc-intersection-lower",
        "arc-minus", "arc-intersection-upper"])
def test_barely_violating_paths_are_caught(path, domain, s_exit):
    assert path_in_domain(path, domain) == "violates"
    (i, t, z), = domain_violations(path, domain)["violations"]
    assert classify_point(z, domain) == "outside"
    if s_exit is None:
        assert z == path.segments[i].point(t)
    else:
        assert i == len(path.segments) and abs(t / s_exit - 1.0) < 1e-4
        assert z == path.end + t * cmath.exp(1j * path.ray_out)


_coord = st.floats(-5.0, 5.0)
_point = st.builds(complex, _coord, _coord)
_lines = st.tuples(_point, _point).filter(
    lambda ab: abs(ab[1] - ab[0]) > 1e-3).map(lambda ab: Line(*ab))
_arcs = st.tuples(_point, st.floats(0.05, 5.0), st.floats(-7.0, 7.0),
                  st.floats(-7.0, 7.0)).filter(
    lambda a: 1e-3 < abs(a[3] - a[2]) <= 2 * math.pi).map(lambda a: Arc(*a))
_ray = st.one_of(st.none(), st.floats(-math.pi, math.pi))


def _depth(z, domain):
    """max over the excluded wedges of -(Im v + |Re v|)/|v|, v = z - apex
    (mirrored for the upper wedge): positive inside an excluded wedge."""
    v = z - domain.apex
    signs = {"plus": (1,), "minus": (-1,), "intersection": (1, -1)}[domain.kind]
    return max(-(s * v.imag + abs(v.real)) / abs(v) for s in signs)


def _dense(path):
    """(segment_index, t, z) along the segment and the rays out to 1e12."""
    seg = path.segments[0]
    out = [(0, k / 2000, seg.point(k / 2000)) for k in range(2001)]
    far = [10.0 ** (k / 40) for k in range(-120, 481)]
    if path.ray_in is not None:
        d = cmath.exp(1j * path.ray_in)
        out += [(-1, s, path.start - s * d) for s in far]
    if path.ray_out is not None:
        d = cmath.exp(1j * path.ray_out)
        out += [(1, s, path.end + s * d) for s in far]
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seg=st.one_of(_lines, _arcs), ray_in=_ray, ray_out=_ray, apex=_point,
       kind=st.sampled_from(("plus", "minus", "intersection")))
def test_exact_check_agrees_with_dense_sampling(seg, ray_in, ray_out, apex, kind):
    path = Contour([seg], ray_in=ray_in, ray_out=ray_out)
    domain = WedgeDomain(kind, apex)
    found = domain_violations(path, domain)["violations"]
    deep = [(i, t) for i, t, z in _dense(path)
            if abs(z - apex) > 1e-9 and _depth(z, domain) > 1e-9]
    if deep:
        assert found, f"sampled exit {deep[0]} missed"
    for i, t, z in found:
        if i == 0:
            assert z == seg.point(t)
        elif i == -1:
            assert z == path.start - t * cmath.exp(1j * ray_in)
        else:
            assert z == path.end + t * cmath.exp(1j * ray_out)
        assert classify_point(z, domain) == "outside"


# -- deformation -------------------------------------------------------------

def test_deform_above_geometry():
    path = segment_path(-1.0, 1.0)
    d = deform_at_origin(path, 0.1, "above")
    assert d.crossing is None
    kinds = [type(s).__name__ for s in d.segments]
    assert kinds == ["Line", "Arc", "Line"]
    lead, arc, trail = d.segments
    assert abs(lead.start - (-1.0)) < 1e-15 and abs(lead.end - (-0.1)) < 1e-13
    assert abs(trail.start - 0.1) < 1e-13 and abs(trail.end - 1.0) < 1e-15
    assert abs(arc.point(0.5) - 0.1j) < 1e-13   # passes above through +i eps


def test_deform_below_mirror():
    d = deform_at_origin(segment_path(-1.0, 1.0), 0.1, "below")
    assert abs(d.segments[1].point(0.5) + 0.1j) < 1e-13


def test_deform_arc_length_formula():
    # analytic: new length = old - 2 eps + pi eps; numeric oracle: dense
    # polyline length of the deformed path
    eps = 0.07
    path = segment_path(-1.0, 1.0)
    d = deform_at_origin(path, eps, "above")
    analytic = path.length - 2.0 * eps + math.pi * eps
    assert abs(d.length - analytic) < 1e-12
    n = 20000
    pts = []
    for seg in d.segments:
        pts.extend(seg.point(k / n) for k in range(n + 1))
    poly = sum(abs(b - a) for a, b in zip(pts[:-1], pts[1:]))
    assert abs(poly - analytic) < 1e-5   # polyline understates by O(1/n^2)


def test_deform_preserves_orientation_left_to_right():
    d = deform_at_origin(segment_path(-1.0, 1.0), 0.1, "above")
    arc = d.segments[1]
    assert arc.sweep < 0  # clockwise over the top keeps the flow rightwards
    assert abs(arc.point(0.0) - (-0.1)) < 1e-13
    assert abs(arc.point(1.0) - 0.1) < 1e-13


def test_deform_epsilon_too_large():
    with pytest.raises(ContourError):
        deform_at_origin(segment_path(-1.0, 1.0), 1.5, "above")


@pytest.mark.parametrize("side", ["above", "below"])
def test_deform_names_the_arc_that_is_missing(side):
    # a U-turn whose arms both run near the negative real axis: the arcs
    # between the excision points, at arguments +-(pi - atan 0.2), pass
    # through -eps and +eps, so neither passes above or below the origin
    path = segment_path(-1 + 0.2j, 0, -1 - 0.2j)
    theta = math.pi - math.atan(0.2)
    with pytest.raises(ContourError) as info:
        deform_at_origin(path, 0.1, side)
    message = str(info.value)
    assert (f"neither arc between their arguments {theta:.4f} and {-theta:.4f} "
            f"passes {side} the origin") in message
    assert "vertical" not in message


def test_deform_twice_raises():
    d = deform_at_origin(segment_path(-1.0, 1.0), 0.1, "above")
    with pytest.raises(ContourError):
        deform_at_origin(d, 0.05, "above")


def test_deform_bent_joint_crossing():
    # crossing at a segment joint: excision points sit at radius eps on
    # each arm and the bridging arc spans the through-above angle
    path = segment_path(-2.0, -0.5 + 0.4j, 0.0, 0.5 + 0.4j, 2.0)
    eps = 0.05
    d = deform_at_origin(path, eps, "above")
    arc = [s for s in d.segments if isinstance(s, Arc)][0]
    assert abs(abs(arc.start) - eps) < 1e-13
    assert abs(abs(arc.end) - eps) < 1e-13
    in_dir = cmath.phase(-0.5 + 0.4j)
    out_dir = cmath.phase(0.5 + 0.4j)
    assert abs(abs(arc.sweep) - (in_dir - out_dir)) < 1e-12
    assert arc.point(0.5).imag > 0


def test_split_at_radius_multi_segment():
    path = segment_path(-0.05, 0.05, 1.0)   # crossing close to a joint
    head, a, b, tail = split_at_radius(path, 0.03)
    assert abs(abs(a) - 0.03) < 1e-14
    assert abs(abs(b) - 0.03) < 1e-14
    assert head and tail


# -- infinite rays -----------------------------------------------------------

def test_ray_truncation():
    base = tilted_segment(0.2, -1.0, 1.0)
    inf_path = Contour(base.segments, crossing=base.crossing,
                       ray_in=0.2, ray_out=0.2)
    assert inf_path.is_infinite
    t = inf_path.truncated(3.0, 4.0)
    assert not t.is_infinite
    assert abs(t.start - (-4.0) * cmath.exp(0.2j)) < 1e-12
    assert abs(t.end - 5.0 * cmath.exp(0.2j)) < 1e-12
    assert t.crossing == base.crossing + 1


def test_ray_domain_check():
    base = tilted_segment(0.0, -1.0, 1.0)
    ok = Contour(base.segments, crossing=base.crossing, ray_in=0.0, ray_out=0.0)
    assert path_in_domain(ok, WedgeDomain.plus()) == "inside_except_crossing"
    bad = Contour(base.segments, crossing=base.crossing,
                  ray_in=0.0, ray_out=-math.pi / 3)   # exits into the wedge
    assert path_in_domain(bad, WedgeDomain.plus()) == "violates"


# -- serialization ------------------------------------------------------------

def test_json_round_trip():
    path = segment_path(-2.0, -0.5 + 0.4j, 0.0, 0.5 + 0.4j, 2.0)
    text = path.to_json()
    back = Contour.from_json(text)
    assert back.crossing == path.crossing
    assert len(back.segments) == len(path.segments)
    for s0, s1 in zip(path.segments, back.segments):
        assert abs(s0.start - s1.start) == 0.0
        assert abs(s0.end - s1.end) == 0.0


def test_json_round_trip_with_arc():
    d = deform_at_origin(segment_path(-1.0, 1.0), 0.125, "above")
    back = Contour.from_json(d.to_json())
    assert isinstance(back.segments[1], Arc)
    assert abs(back.segments[1].point(0.5) - d.segments[1].point(0.5)) == 0.0


def test_json_round_trip_keeps_rays():
    base = segment_path(-1.0, 1.0)
    assert "ray" not in base.to_json()   # finite paths keep their JSON
    for ray_in, ray_out in ((None, 0.3), (-0.2, None), (0.1, -0.7)):
        path = Contour(base.segments, crossing=0, ray_in=ray_in,
                       ray_out=ray_out)
        back = Contour.from_json(path.to_json())
        assert back.is_infinite
        assert (back.ray_in, back.ray_out) == (ray_in, ray_out)
        assert back.to_json() == path.to_json()
    line = '{"segments": [{"type": "line", "start": [0, 0], "end": [1, 0]}]'
    for bad in ('"ray_out": "east"', '"ray_in": NaN'):
        with pytest.raises(ContourError):
            Contour.from_json(line + ", " + bad + "}")


def test_json_malformed():
    with pytest.raises(ContourError):
        Contour.from_json("{not json")
    with pytest.raises(ContourError):
        Contour.from_json('{"segments": [{"type": "spline"}], "crossing": null}')
    with pytest.raises(ContourError):
        Contour.from_json('{"segments": [{"type": "line", "start": [0, 0]}]}')
    # fields of the wrong type are refused, not coerced: an index that is a
    # fraction, a string or a bool, an angle that is a bool or a string, a
    # number beyond the double range, and segments that are not a list
    line = '{"type": "line", "start": [-1, 0], "end": [1, 0]}'
    for field in ('"crossing": 0.9', '"crossing": "0"', '"crossing": true',
                  '"crossing": "abc"', '"crossing": 1e400', '"crossing": NaN',
                  '"crossing": [0]', '"ray_out": true', '"ray_in": "0"',
                  '"ray_out": 1' + "0" * 400):
        with pytest.raises(ContourError):
            Contour.from_json(f'{{"segments": [{line}], {field}}}')
    for segments in ('5', '{"type": "line"}', '"line"', '[5]',
                     '[{"type": "line", "start": [-1], "end": [1, 0]}]',
                     '[{"type": "line", "start": [true, 0], "end": [1, 0]}]',
                     '[{"type": "line", "start": ["-1", 0], "end": [1, 0]}]',
                     '[{"type": "arc", "center": [0, 0], "radius": "1", '
                     '"theta_start": 0, "theta_end": 1}]',
                     '[{"type": "arc", "center": [0, 0], "radius": 1' + "0" * 400
                     + ', "theta_start": 0, "theta_end": 1}]'):
        with pytest.raises(ContourError):
            Contour.from_json(f'{{"segments": {segments}}}')
    for data in ('[]', '"x"', 'null', '{}'):
        with pytest.raises(ContourError):
            Contour.from_json(data)
    # an int index and int angles are JSON numbers like any other
    path = Contour.from_json(f'{{"segments": [{line}], "crossing": 0, '
                             '"ray_in": 0, "ray_out": 1}')
    assert (path.crossing, path.ray_in, path.ray_out) == (0, 0.0, 1.0)
    with pytest.raises(ContourError):   # the same check for Python callers
        Contour(path.segments, crossing=0.0)
