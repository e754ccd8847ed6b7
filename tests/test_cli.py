"""Command-line interface: formats, determinism, exit codes."""
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plemelj
from plemelj import cli, kernels
from plemelj.cli import (DomainMapRequest, _axis, _decider, _parse_grid,
                         _schedule_from_args, dump_json, main, run_domain_map,
                         run_functional, write_domain_map_csv)
from plemelj.contours import Arc, Contour, Line, segment_path
from plemelj.functionals import DomainViolationError
from plemelj.kernels import RegularizationSchedule
from plemelj.special_functions import OVERFLOW


# the CLI subprocess imports the same plemelj tree as this test process
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(plemelj.__file__)))
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "plemelj.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


# -- domain map -----------------------------------------------------------------

def test_single_point_grid_at_i():
    req = DomainMapRequest(grid=(0.0, 0.0, 1.0, 1.0, 1, 1), kernel="I_plus")
    rows = list(run_domain_map(req))
    assert len(rows) == 1
    re, im, status, absv = rows[0]
    assert (re, im) == (0.0, 1.0)
    assert status == "converged"
    assert abs(absv - 1.0) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        DomainMapRequest(grid=(0.0, 1.0, 0.0, 1.0, 1, 5), kernel="I_plus")
    with pytest.raises(ValueError):
        DomainMapRequest(grid=(1.0, 0.0, 0.0, 1.0, 5, 5), kernel="I_plus")
    with pytest.raises(ValueError):
        DomainMapRequest(grid=(0.0, 1.0, 0.0, 1.0, 5, 5), kernel="bogus")
    with pytest.raises(ValueError):    # re_max - re_min overflows
        DomainMapRequest(grid=(-1e308, 1e308, 1.0, 1.0, 3, 1), kernel="I_plus")
    with pytest.raises(ValueError):    # finite span, last point rounds to inf
        DomainMapRequest(grid=(0.0, 1.0, 0.0, sys.float_info.max, 2, 4),
                         kernel="I_plus")


@pytest.mark.parametrize("n", [5.5, 5.0, True, "5", None])
def test_grid_resolution_must_be_an_int(n):
    for grid in ((0, 1, 0, 1, n, 5), (0, 1, 0, 1, 5, n)):
        with pytest.raises(ValueError, match="resolution"):
            DomainMapRequest(grid=grid, kernel="I_plus")


def test_row_order_and_origin_row(tmp_path):
    req = DomainMapRequest(grid=(-1.0, 1.0, -1.0, 1.0, 3, 3), kernel="I_plus")
    rows = list(run_domain_map(req))
    assert len(rows) == 9
    assert [(r[0], r[1]) for r in rows[:3]] == [(-1.0, -1.0), (0.0, -1.0), (1.0, -1.0)]
    by_point = {(r[0], r[1]): r for r in rows}
    assert by_point[(0.0, 0.0)][2] == "diverged"        # apex
    assert by_point[(0.0, -1.0)][2] == "diverged"       # wedge bisector
    assert by_point[(0.0, 1.0)][2] == "converged"
    assert abs(by_point[(0.0, 1.0)][3] - 1.0) < 1e-12


def test_mirror_map_excludes_upper_wedge():
    req = DomainMapRequest(grid=(-1.0, 1.0, -1.0, 1.0, 5, 5), kernel="I_minus")
    status = {(r[0], r[1]): r[2] for r in run_domain_map(req)}
    assert status[(0.0, 0.5)] == "diverged"     # upper wedge
    assert status[(0.0, -0.5)] == "converged"   # lower half is regular
    assert status[(0.5, 0.0)] == "converged"


def test_full_line_map_excludes_both_wedges():
    req = DomainMapRequest(grid=(-1.0, 1.0, -1.0, 1.0, 5, 5),
                           kernel="full_line")
    status = {(r[0], r[1]): r[2] for r in run_domain_map(req)}
    assert status[(0.0, 0.5)] == "diverged"
    assert status[(0.0, -0.5)] == "diverged"
    assert status[(0.5, 0.0)] == "converged"
    assert status[(-0.5, 0.0)] == "converged"


def test_csv_format(tmp_path):
    req = DomainMapRequest(grid=(0.0, 0.0, 1.0, 1.0, 1, 1), kernel="I_plus")
    out = tmp_path / "m.csv"
    with open(out, "w") as fh:
        write_domain_map_csv(run_domain_map(req), fh)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "re,im,status,abs_value"
    assert lines[1] == ("0.0000000000000000e+00,1.0000000000000000e+00,"
                        "converged,1.0000000000000000e+00")


def test_cli_domain_map_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        r = run_cli("domain-map", "--kernel", "I_plus",
                    "--grid=-1:1:7,-1:1:7", "--out", str(out))
        assert r.returncode == 0, r.stderr
    assert out1.read_bytes() == out2.read_bytes()


_PINNED_GRIDS = {"wide": "-2:2:41,-2:2:41",
                 "narrow": "-1e-3:1e-3:41,-1e-3:1e-3:41",
                 # straddles the radii of the convergence certificates
                 "half": "-0.5:0.5:41,-0.5:0.5:41",
                 # re is -0.0 on every row, im crosses +0.0
                 "signed_zero": "-0:-0:1,-1:1:3",
                 # neither square nor symmetric; the last re point
                 # overshoots its bound by one ulp, the last im by two
                 "asym": "-1.3:2.9:37,-2.2:0.7:29",
                 # rows straddle the caps of the wedge certificate,
                 # |z|^2/4 = 1e8 lambda_k: |z| = 6325 at the default
                 # schedule's first, 200 at the deep one's
                 "caps": "-2e4:2e4:41,-2e4:2e4:201"}
_PINNED_SCHEDULES = {"default": (),
                     "deep": ("--lambda-start", "1e-3", "--lambda-steps", "30"),
                     "two": ("--lambda-steps", "2"),
                     "one": ("--lambda-steps", "1")}
# SHA-256 of the CSVs written by the full ladder at every point with one
# format call per number; they hold every faster path to the same bytes
_PINNED_CSV_SHA256 = {
    ("I_plus", "wide", "default"):
        "592dc5112eed296ad4776e0f43fe5731d1d40a569b7a94d23aa8fdef9d07dae2",
    ("I_plus", "narrow", "default"):
        "91e6d52f5291bcbcb8c4141a04044b1c3d1c9676018fec5b14310039afd33aec",
    ("I_plus", "wide", "deep"):
        "bff2ae813b3143059d6e16683ec8da6619a3083733b8a4d639ede64889a4c2bb",
    ("I_plus", "narrow", "deep"):
        "157fcc0b08ebd3dee3394a9a9b23bea59131999e45c306ad2fc0d49a007191fa",
    ("I_plus", "wide", "two"):
        "49525a168e8e2e9d18f0298166c05183438666b9abc616bf36f2ce492a753100",
    ("I_plus", "narrow", "two"):
        "91e6d52f5291bcbcb8c4141a04044b1c3d1c9676018fec5b14310039afd33aec",
    ("I_plus", "half", "default"):
        "e9f9c0efea7c834639061850022693702bb3aab59ddaba32e82c50064fc7b8b1",
    ("I_minus", "half", "default"):
        "0b38cb7470ed921c218f43235d618e3eee4894eec57a30ab238a9dd5f7877510",
    ("full_line", "half", "default"):
        "6d7062ed553ca87a12a9e15e5a5740df0e9b38c434dba2a6b1b45ff3d1a670ea",
    ("I_plus", "signed_zero", "default"):
        "c5af1a561d6581212fc8f683628da9c4682770f3edf03994aa48943be9b964d5",
    ("I_minus", "wide", "default"):
        "ec68218045ac01afb8b5dfd26074c514f83473fa5af7b98f2e3df6f45ce78955",
    ("I_minus", "narrow", "default"):
        "91e6d52f5291bcbcb8c4141a04044b1c3d1c9676018fec5b14310039afd33aec",
    ("I_minus", "wide", "deep"):
        "cd022384b2e40b27baa08d23ba27910bf76d55e97fba1435f0dae9586c14c9ed",
    ("I_minus", "narrow", "deep"):
        "ee5890fcdad9522f7473c00c4c6a44a3f5d52dbfa0c0f833df434a0775e7c08b",
    ("I_minus", "wide", "two"):
        "49525a168e8e2e9d18f0298166c05183438666b9abc616bf36f2ce492a753100",
    ("I_minus", "narrow", "two"):
        "91e6d52f5291bcbcb8c4141a04044b1c3d1c9676018fec5b14310039afd33aec",
    ("I_minus", "signed_zero", "default"):
        "53fd4952327f8de434d678aabd01325cb910ec62486bf818b96854661b4b93d5",
    ("full_line", "wide", "default"):
        "69d8e0529d36b127722dc4a17bf7a0bc22af79f44775aeb4788e6f3be333c6b4",
    ("full_line", "narrow", "default"):
        "91e6d52f5291bcbcb8c4141a04044b1c3d1c9676018fec5b14310039afd33aec",
    ("full_line", "wide", "deep"):
        "44d6d73cea24454976b793002604011b08cdbefbc686f26bf6efa7cbd32cb3f7",
    ("full_line", "narrow", "deep"):
        "b3a2bffed4e56b41aef490fb5339a9d0f30bef3eeb9d5a99bab623d7896f5ef3",
    ("full_line", "wide", "two"):
        "49525a168e8e2e9d18f0298166c05183438666b9abc616bf36f2ce492a753100",
    ("full_line", "narrow", "two"):
        "91e6d52f5291bcbcb8c4141a04044b1c3d1c9676018fec5b14310039afd33aec",
    ("full_line", "signed_zero", "default"):
        "9075844292050bcf226522c3df692e552cc0c90790bbad7c46384ba5e8f6d3e1",
    ("I_plus", "asym", "default"):
        "22f6078ee2a30791626037b4532553af696a16eb3459128b93077c5331357282",
    ("I_plus", "asym", "deep"):
        "169dc18a84d694ef0d85edec3ad7bae853373c5b4c32fcceddac1fd7aed04535",
    ("I_minus", "asym", "default"):
        "078ca3f6b92574ee88f945d35c8f86028dc71abc690786ec0fb97a6da4ec60a2",
    ("I_minus", "asym", "deep"):
        "f9f8640df34fb2a1d3db07619853e2a751dae9e6a53605ab0058edd9ddc081f2",
    ("full_line", "asym", "default"):
        "2bca1d3d2307c64251687642b966a649a5bb276dde7055bf19d3454c41b7c0b3",
    ("full_line", "asym", "deep"):
        "e5a924f3865c4accd14953447048f8a245094222ef68ffc18714d2f15eaecc4b",
    ("I_plus", "caps", "default"):
        "f4016a8afe98eed985982c40f1aa4bfbc2aa4497053f429fda29e7236a7bec9b",
    ("I_plus", "caps", "deep"):
        "d05aaed54a035e061cc28aee75669b72e4a6e27ccc972ef3198206b4b18991f3",
    ("I_minus", "caps", "default"):
        "d7f8a04d7d89a89c8e00f90db28db7fa8d26bc82aad55ad2e24be2380295ccd6",
    ("I_minus", "caps", "deep"):
        "101d0c6b2c591f12bb858022c94bf09ea8aac066bb78ffa6dc098be18cf9f235",
    ("full_line", "caps", "default"):
        "689ddd8644611547a6ac9954cc7109217d1ccf66d7832e76e6b760375b9011da",
    ("full_line", "caps", "deep"):
        "82b62480913dec31b857e843ae1e5ca2a0d8cf904441ff752000e49d9eae0c5a",
}


def test_domain_map_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "m.csv"
    for (kernel, grid, schedule), digest in _PINNED_CSV_SHA256.items():
        assert main(["domain-map", "--kernel", kernel,
                     f"--grid={_PINNED_GRIDS[grid]}", "--out", str(out),
                     *_PINNED_SCHEDULES[schedule]]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (
            kernel, grid, schedule)


# -- the row decider ----------------------------------------------------------------

_KINDS = {"I_plus": "plus", "I_minus": "minus", "full_line": "full_line"}


def _schedule(flags):
    """The schedule the CLI builds from its --lambda-start/--lambda-steps
    flags."""
    args = cli._build_parser().parse_args(
        ["domain-map", "--kernel=I_plus", "--grid=0:0:1,1:1:1", "--out=-",
         *flags])
    return _schedule_from_args(args)


def _grid_rows(grid):
    """(im, re axis) of each row of a --grid text, as the CLI builds them."""
    re_min, re_max, im_min, im_max, n_re, n_im = _parse_grid(grid)
    re = _axis(re_min, re_max, n_re)
    return [(im, re) for im in _axis(im_min, im_max, n_im)]


@pytest.fixture
def work(monkeypatch):
    """Counts of kernel evaluations and of the points the row form leaves
    to its per-point function, from the moment they are reset."""
    counts = {"kernel": 0, "uncertified": 0}
    for name in ("j_kernel", "_full_line"):
        fn = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda z, lam, fn=fn: (
            counts.__setitem__("kernel", counts["kernel"] + 1) or fn(z, lam)))
    row_runs = kernels._row_runs

    def counted_runs(uncertified, *args):
        def point(z):
            counts["uncertified"] += 1
            return uncertified(z)
        return row_runs(point, *args)
    monkeypatch.setattr(kernels, "_row_runs", counted_runs)
    return counts


def _points(runs, n):
    """The (status, value) of each of the n points that runs cover."""
    got, start = [], 0
    for stop, status, value in runs:
        assert stop > start
        if type(value) is not list:
            value = [value] * (stop - start)
        assert len(value) == stop - start
        got += [(status, v) for v in value]
        start = stop
    assert start == n
    return got


def _row_mismatches(counts, kind, schedule, rows):
    """The points at which the decider's runs over rows (y, ascending xs)
    differ from its one-point rows, and how many points the runs decided
    in bulk: (mismatches, converged bulk, wedge bulk).  The row form takes
    no z = 0 (the CLI's apex), so the rows are split there.

    Besides the results, the work must match (``counts`` from the ``work``
    fixture): a row evaluates the kernel as often as its one-point rows
    together, and leaves to its per-point function exactly the points that
    neither a convergence certificate nor the wedge test certifies, as
    each one-point row does.  The certified points are those a one-point
    row decides converged without a kernel evaluation (on either side of
    the real axis; every other point evaluates the kernel at least once),
    and those that the wedge test certifies in the part of the plane that
    holds a wedge (J below the real axis, mirrored for 'minus'; anywhere
    for the full line), which a one-point row reports diverged without a
    kernel evaluation.  So a run that ends one point early or late fails
    too."""
    decide_row = _decider(kind, schedule)
    wedge = kernels._wedge_certificate(
        schedule, 0.0 if kind == "full_line" else 0.5)

    def run(y, xs):
        counts.update(kernel=0, uncertified=0)
        return (_points(decide_row(y, xs), len(xs)), counts["kernel"],
                counts["uncertified"])

    mismatches, converged_bulk, wedge_bulk = [], 0, 0
    for y, xs in rows:
        pieces = [[]]
        for x in xs:
            if complex(x, y) == 0:
                pieces.append([])
            else:
                pieces[-1].append(x)
        upper = (-y if kind == "minus" else y) >= 0.0
        for piece in pieces:
            got, kernel_calls, uncertified = run(y, piece)
            for x, have in zip(piece, got):
                (want,), k, u = run(y, (x,))
                kernel_calls -= k
                uncertified -= u
                mismatches += [(kind, complex(x, y))] if have != want else []
                in_span = want[0] == "converged" and k == 0
                in_wedge = (kind == "full_line" or not upper) and wedge(x, y)
                if in_wedge:
                    assert (want, k) == (("diverged", OVERFLOW), 0), (kind, x, y)
                assert u == (not (in_span or in_wedge)), (kind, x, y)
                converged_bulk += in_span
                wedge_bulk += in_wedge
            assert kernel_calls == 0, (kind, y)
            assert uncertified == 0, (kind, y)
    return mismatches, converged_bulk, wedge_bulk


def _ray_rows(rng):
    """Rows next to the rays |x| = |y| at |z| in [1e153, 1e158], where
    |z|^2 overflows: y = +-b and x within 4 ulps of +-b, and a few x
    further out."""
    rows = []
    for _ in range(12):
        b = 10.0 ** rng.uniform(153.0, 158.0)
        xs = sorted({s * b * f for s in (-1.0, 1.0)
                     for f in [1.0 + k * 2.0 ** -52 for k in range(-4, 5)]
                     + [0.5, 0.99, 1.01, 2.0]})
        rows += [(b, xs), (-b, xs)]
    return rows


# rows through the apex: signed zeros and points within 1e-14 of it
_APEX_ROWS = [(y, [-1.0, -1e-15, -1e-300, -0.0, 1e-300, 1e-15, 0.5])
              for y in (0.0, -0.0, 1e-15, -1e-15, 1e-300)]
# rows out to |z| = 1e3, where the certificates of the one- and two-step
# schedules hold (|z| >= 240 and 135 for J)
_FAR_ROWS = [(y, _axis(-1e3, 1e3, 81)) for y in (-500.0, -50.0, 0.0, 50.0, 500.0)]


@pytest.mark.parametrize("flags", list(_PINNED_SCHEDULES.values()),
                         ids=list(_PINNED_SCHEDULES))
def test_row_decider_matches_decide(work, flags):
    # every point of the pinned grids, of rows next to the rays at huge
    # |z|, through the apex and far out, on one-, two- and 13-step and deep
    # schedules
    schedule = _schedule(flags)
    rows = [row for grid in _PINNED_GRIDS.values() for row in _grid_rows(grid)]
    rows += _ray_rows(random.Random(19)) + _APEX_ROWS + _FAR_ROWS
    converged = wedge = 0
    for kind in _KINDS.values():
        mismatches, n, m = _row_mismatches(work, kind, schedule, rows)
        assert mismatches == []
        converged += n
        wedge += m
    # the deep schedule's bound reaches the threshold, so no point is
    # certified converged and every one walks the ladder; the one- and
    # two-step schedules have no wedge thresholds
    assert (converged == 0) == (flags == _PINNED_SCHEDULES["deep"])
    assert (wedge > 0) == (flags in (_PINNED_SCHEDULES["default"],
                                     _PINNED_SCHEDULES["deep"]))


def _sweep_pool(seed):
    """The requests of the sweep pool of perfbench/workloads.py for seed."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(_ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate("sweep", seed)


@pytest.mark.parametrize("seed", range(1, 6))
def test_row_decider_matches_decide_on_the_benchmark_sweep(work, seed):
    schedule = RegularizationSchedule.default()
    converged = wedge = 0
    for req in _sweep_pool(seed):
        kind = _KINDS[req["args"]["kernel"]]
        re_min, re_max, im_min, im_max, n_re, n_im = req["args"]["grid"]
        re = _axis(re_min, re_max, n_re)
        mismatches, n, m = _row_mismatches(
            work, kind, schedule,
            [(im, re) for im in _axis(im_min, im_max, n_im)])
        assert mismatches == []
        converged += n
        wedge += m
    # each pool has 77,511 points, and each kind of run takes about 36,000
    assert converged > 35000 and wedge > 35000


def test_decider_work_on_the_benchmark_sweep_is_pinned(work, monkeypatch):
    # a certificate that stops firing, or fires one point short, changes
    # no output, only the work: the seed-1 sweep pool, decided row by row
    # as the CLI does, leaves 781 points to the per-point function, each
    # decided by one kernel evaluation at lambda_min (the 70 of them in a
    # wedge's edge band too), so it walks no ladder and evaluates J 380
    # times and K 401 times
    calls = dict.fromkeys(("_ladder", "j_kernel", "_full_line"), 0)
    for name in calls:
        def counted(*args, fn=getattr(kernels, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    for req in _sweep_pool(1):
        args = req["args"]
        grid = run_domain_map(DomainMapRequest(grid=tuple(args["grid"]),
                                               kernel=args["kernel"]))
        for _row in grid.rows():
            pass
    assert calls == {"_ladder": 0, "j_kernel": 380, "_full_line": 401}
    assert work == {"kernel": 781, "uncertified": 781}


def test_domain_map_decides_one_row_at_a_time(monkeypatch):
    # a 4001 x 4001 grid (16 million points) must not be decided up front:
    # reading its first point or first row decides that one row only
    calls = {"rows": 0}
    make = cli._decider

    def counting(kind, schedule):
        decide_row = make(kind, schedule)

        def row(y, xs):
            calls["rows"] += 1
            assert calls["rows"] <= 1, "decided a second row"
            assert len(xs) == 4001
            return decide_row(y, xs)
        return row

    monkeypatch.setattr(cli, "_decider", counting)
    req = DomainMapRequest(grid=(-2.0, 2.0, -2.0, 2.0, 4001, 4001),
                           kernel="I_plus")
    grid = run_domain_map(req)
    assert calls["rows"] == 0
    assert next(iter(grid))[:2] == (-2.0, -2.0)
    assert calls["rows"] == 1
    calls["rows"] = 0
    im, runs = next(grid.rows())
    assert im == -2.0 and runs[-1][0] == 4001
    assert calls["rows"] == 1


def test_domain_map_rows_and_points_agree(tmp_path):
    # iterating the grid yields the points of the rows the CSV is written
    # from, with abs_value = |i/z| for J and 0 for full_line
    for kernel in _KINDS:
        req = DomainMapRequest(grid=(-1.3, 2.9, -2.2, 0.7, 37, 29),
                               kernel=kernel)
        out = tmp_path / "m.csv"
        with open(out, "w") as fh:
            write_domain_map_csv(run_domain_map(req), fh)
        points = list(run_domain_map(req))
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == len(points) == 37 * 29
        for line, (re, im, status, absv) in zip(lines, points):
            assert line == ",".join((f"{re:.16e}", f"{im:.16e}", status,
                                     "" if absv is None else f"{absv:.16e}"))
            if status == "converged":
                assert absv == (0.0 if kernel == "full_line"
                                else abs(1j / complex(re, im)))


def _per_point_csv(grid):
    """The CSV of a DomainMap as a plain writer makes it from the grid's
    points: one _FMT call for every number of every point."""
    lines = ["re,im,status,abs_value\n"]
    for re, im, status, absv in grid:
        tail = "" if absv is None else cli._FMT(absv)
        lines.append(f"{cli._FMT(re)},{cli._FMT(im)},{status},{tail}\n")
    return "".join(lines)


def _written_csv(req):
    out = io.StringIO()
    write_domain_map_csv(run_domain_map(req), out)
    return out.getvalue()


_jitter = st.floats(-0.3, 0.3)


@settings(max_examples=60, deadline=None)
@given(kernel=st.sampled_from(list(_KINDS)), a=st.floats(0.01, 4.0),
       n=st.integers(2, 25), schedule=st.sampled_from(list(_PINNED_SCHEDULES)),
       jitter=st.none() | st.tuples(_jitter, _jitter, _jitter, _jitter,
                                    st.integers(0, 2)))
def test_csv_writer_matches_a_per_point_writer(kernel, a, n, schedule, jitter):
    # symmetric grids (the Re axis equal to the Im axis, bounds -a, a)
    # repeat |i/z| under x -> -x, y -> -y and x <-> y; jittered ones do not
    grid = (-a, a, -a, a, n, n)
    if jitter is not None:
        d0, d1, d2, d3, dn = jitter
        grid = (-a * (1 + d0), a * (1 + d1), -a * (1 + d2), a * (1 + d3),
                n, n + dn)
    req = DomainMapRequest(grid=grid, kernel=kernel,
                           schedule=_schedule(_PINNED_SCHEDULES[schedule]))
    assert _written_csv(req) == _per_point_csv(run_domain_map(req))


def test_csv_writer_clears_its_full_cache(monkeypatch):
    monkeypatch.setattr(cli, "_TAILS_MAX", 3)
    for kernel in _KINDS:
        req = DomainMapRequest(grid=(-2.0, 2.0, -2.0, 2.0, 21, 21),
                               kernel=kernel)
        distinct = {absv for *_, absv in run_domain_map(req) if absv is not None}
        assert len(distinct) > 3 or kernel == "full_line"
        assert _written_csv(req) == _per_point_csv(run_domain_map(req))


def test_cli_lambda_flags_change_schedule(tmp_path):
    # a 5-step ladder stops at lambda = 1e-2, too coarse to certify z = i
    out = tmp_path / "m.csv"
    r = run_cli("domain-map", "--kernel", "I_plus", "--grid", "0:0:1,1:1:1",
                "--out", str(out), "--lambda-steps", "5")
    assert r.returncode == 0, r.stderr
    assert out.read_text().splitlines()[1].split(",")[2] == "undecided"


def test_cli_domain_map_modulus_beyond_double_range(tmp_path):
    # the full-line kernel there has finite parts but |K| > 1.8e308
    out = tmp_path / "m.csv"
    z = "0.0002958399812237108:0.0002958399812237108:1,-0.5309614746111948:-0.5309614746111948:1"
    assert main(["domain-map", "--kernel", "full_line", f"--grid={z}",
                 "--lambda-start", "1e-4", "--lambda-steps", "1",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[2] == "diverged"


def test_cli_domain_map_full_line_beyond_double_range(tmp_path):
    # z*z and the phase -Im(z^2)/(4 lambda) overflow next to the ray at
    # -pi/4, where Re(z^2) > 0 and K tends to 0
    out = tmp_path / "m.csv"
    z = "7.071067811865476e149:7.071067811865476e149:1,-7.071067811865475e149:-7.071067811865475e149:1"
    assert main(["domain-map", "--kernel", "full_line", f"--grid={z}",
                 "--lambda-start", "1e-3", "--lambda-steps", "30",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[2:] == [
        "converged", "0.0000000000000000e+00"]


@pytest.mark.parametrize("grid", ["nonsense", "-1e308:1e308:3,1:1:1"],
                         ids=["nonsense", "overflowing_span"])
def test_cli_bad_grid_usage_error(tmp_path, grid):
    out = tmp_path / "x.csv"
    r = run_cli("domain-map", "--kernel", "I_plus", f"--grid={grid}",
                "--out", str(out))
    assert r.returncode == 2
    assert "grid" in r.stderr
    assert not out.exists()


def test_cli_unknown_kernel_usage_error(tmp_path):
    r = run_cli("domain-map", "--kernel", "I_weird", "--grid", "0:1:3,0:1:3",
                "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2


# -- functional reports ------------------------------------------------------------

def _contour_file(tmp_path, points, crossing):
    path = segment_path(*points, crossing=crossing)
    f = tmp_path / "contour.json"
    f.write_text(path.to_json())
    return f


def test_functional_report_symmetric_gaussian(tmp_path):
    contour = _contour_file(tmp_path, (-3.0, 3.0), 0)
    out = tmp_path / "rep.json"
    r = run_cli("functional", "--kernel", "I_plus", "--function", "gauss(0)",
                "--contour", str(contour), "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert abs(rep["value"]["re"] - math.pi) < 1e-6
    assert abs(rep["value"]["im"]) < 1e-6
    assert rep["cross_check"] is None
    assert list(rep) == ["kernel", "function", "value", "pv_part",
                         "delta_part", "cross_check"]


def test_functional_delta_bent_path_cross_check(tmp_path):
    path = segment_path(-2.0, -0.5 + 0.4j, 0.0, 0.5 + 0.4j, 2.0)
    f = tmp_path / "bent.json"
    f.write_text(path.to_json())
    out = tmp_path / "rep.json"
    r = run_cli("functional", "--kernel", "delta", "--function", "gauss(0)",
                "--contour", str(f), "--out", str(out), "--cross-check")
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert abs(rep["value"]["re"] - 2 * math.pi) < 1e-8
    assert rep["cross_check"]["agree"] is True


def test_functional_cross_check_tilted(tmp_path):
    d = complex(math.cos(math.pi / 8), math.sin(math.pi / 8))
    contour = _contour_file(tmp_path, (-2.0 * d, 0.0, 2.0 * d), 1)
    out = tmp_path / "rep.json"
    r = run_cli("functional", "--kernel", "I_plus", "--function", "gauss(0.3)",
                "--contour", str(contour), "--out", str(out), "--cross-check")
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert rep["cross_check"]["agree"] is True
    lam = complex(rep["cross_check"]["lambda_route"]["re"],
                  rep["cross_check"]["lambda_route"]["im"])
    formula = complex(rep["value"]["re"], rep["value"]["im"])
    assert abs(lam - formula) <= 1e-5 * abs(formula)


@pytest.mark.parametrize("kernel", ["I_plus", "I_minus", "delta"])
def test_functional_cross_check_right_to_left(tmp_path, kernel):
    # no crossing direction is refused: right to left the one-sided
    # functionals carry -pi f(0), and --kernel delta exits 0 with
    # -2 pi f(0), each as the lambda route gives it
    contour = _contour_file(tmp_path, (2.0, -2.0), 0)
    out = tmp_path / "rep.json"
    r = run_cli("functional", "--kernel", kernel, "--function", "gauss(0.3)",
                "--contour", str(contour), "--out", str(out), "--cross-check")
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert rep["cross_check"]["agree"] is True
    expected = -(2 if kernel == "delta" else 1) * math.pi * math.exp(-0.09)
    assert abs(rep["delta_part"]["re"] - expected) < 1e-14


def test_functional_domain_violation_exit_1(tmp_path):
    contour = _contour_file(tmp_path, (-1.0, -0.5 - 1.2j, 0.0, 1.0), 2)
    out = tmp_path / "rep.json"
    r = run_cli("functional", "--kernel", "I_plus", "--function", "gauss(0)",
                "--contour", str(contour), "--out", str(out))
    assert r.returncode == 1
    assert "segment" in r.stderr


def test_functional_delta_report_is_sum_of_one_sided_reports():
    path = segment_path(-2.0, -0.5 + 0.4j, 0.0, 0.5 + 0.4j, 2.0)
    plus, minus, delta = (run_functional(k, "gauss(0.3)", path)
                          for k in ("I_plus", "I_minus", "delta"))

    def bits_of_sum(a, b):
        return ((a["re"] + b["re"]).hex(), (a["im"] + b["im"]).hex())

    def bits(a):
        return (a["re"].hex(), a["im"].hex())

    for key in ("value", "pv_part", "delta_part"):
        assert bits(delta[key]) == bits_of_sum(plus[key], minus[key]), key


def test_functional_delta_domain_check_precedes_pv_ladder(monkeypatch):
    import plemelj.functionals as functionals
    calls = []
    principal_value = functionals._principal_value

    def counting(f, path, f0):
        calls.append(path)
        return principal_value(f, path, f0)

    monkeypatch.setattr(functionals, "_principal_value", counting)
    upper = segment_path(-1.0, -0.5 + 0.9j, 0.0, 1.0, crossing=2)
    with pytest.raises(DomainViolationError) as info:
        run_functional("delta", "gauss(0)", upper)
    assert info.value.segment_index == 0
    assert "intersection" in str(info.value)
    assert calls == []


@pytest.mark.parametrize("function", ["blorp(1)", "gauss(nan)", "gauss(inf)",
                                      "poly_gauss(1,nan)"])
def test_functional_unknown_function_exit_2(tmp_path, function):
    contour = _contour_file(tmp_path, (-1.0, 1.0), 0)
    out = tmp_path / "r.json"
    r = run_cli("functional", "--kernel", "I_plus", "--function", function,
                "--contour", str(contour), "--out", str(out))
    assert r.returncode == 2
    assert not out.exists()


@pytest.mark.parametrize("function", ["gauss(30j)", "gauss(1e200j)",
                                      "gauss(1+26.645j)"])
def test_functional_non_finite_function_exit_1(tmp_path, function):
    contour = _contour_file(tmp_path, (-1.0, 1.0), 0)
    out = tmp_path / "r.json"
    r = run_cli("functional", "--kernel", "I_plus", "--function", function,
                "--contour", str(contour), "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert not out.exists()


def test_functional_malformed_contour_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    r = run_cli("functional", "--kernel", "I_plus", "--function", "gauss(0)",
                "--contour", str(bad), "--out", str(tmp_path / "r.json"))
    assert r.returncode == 2


@pytest.mark.parametrize("field", ['"crossing": 0.9', '"crossing": true',
                                   '"crossing": "abc"', '"crossing": 1e400',
                                   '"ray_out": true', '"segments": 5'])
def test_functional_ill_typed_contour_exit_2(tmp_path, field):
    data = {**segment_path(-1.0, 1.0).to_json_dict(), **json.loads(f"{{{field}}}")}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    r = run_cli("functional", "--kernel", "I_plus", "--function", "gauss(0)",
                "--contour", str(bad), "--out", str(tmp_path / "r.json"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_functional_report_deterministic(tmp_path):
    contour = _contour_file(tmp_path, (-3.0, 3.0), 0)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        r = run_cli("functional", "--kernel", "I_minus", "--function",
                    "poly_gauss(1,0)", "--contour", str(contour),
                    "--out", str(out))
        assert r.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_PINNED_PATHS = {
    "straight": (segment_path(-3.0, 3.0), "gauss(0.3)"),
    "bent": (segment_path(-2.0, -0.5 + 0.4j, 0.0, 0.5 + 0.4j, 2.0),
             "poly_gauss(2,0.3)"),
    "arc": (Contour([Arc(-1.9, 0.7, math.pi, 0.0), Line(-1.2, 2.5)], crossing=1),
            "cos_gauss"),
}
# SHA-256 of the functional reports without cross-check; they hold every
# change to the PV or the report to the same bytes
_PINNED_REPORT_SHA256 = {
    ("I_plus", "straight"):
        "ba6e17d367fd0debb18cc6c1f1fb9aae55cb1d41ccae495d0c3626384af0279b",
    ("I_plus", "bent"):
        "1e8e7c2bd56a9a0a7b1504b4dec51ce8dfab1a6d399bc0cd319718914a3d9e41",
    ("I_plus", "arc"):
        "fb8636fb5d77654fff6dba66bc9cbafdc4d5086b3371ded4f9358d04337f5811",
    ("I_minus", "straight"):
        "8b172528a706d037ba5c6b52e6bc3e899a53f09bd2a8c3f20608072db0ed87b5",
    ("I_minus", "bent"):
        "652b388a97b8fd295b2e8984280ad1ebae8414dd6b4bbb8c36487d770c06aa83",
    ("I_minus", "arc"):
        "1a100271b0f288047cb1587dd8611b854727f87d1a52d550a52a1eb4b230db16",
    ("delta", "straight"):
        "43b24dd24addca4b80f97d20ad7249cda3bde54c44789fcb5a5d00bef4dd746d",
    ("delta", "bent"):
        "203609cefe25332c84c0e7abbafbcd67afdfb77e036838d6a4cdd12c0c373871",
    ("delta", "arc"):
        "70c35da40963d90e4c71cd6b328018ea9311d98bf7ecd2cdd09aa7f0a24cfe0c",
}


def test_functional_report_bytes_are_pinned(tmp_path):
    contour, out = tmp_path / "c.json", tmp_path / "r.json"
    for (kernel, name), digest in _PINNED_REPORT_SHA256.items():
        path, function = _PINNED_PATHS[name]
        contour.write_text(path.to_json())
        assert main(["functional", "--kernel", kernel, "--function", function,
                     "--contour", str(contour), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (
            kernel, name)


# -- verify ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["special", "kernels", "plemelj", "tilted"])
def test_verify_suite_passes(suite):
    r = run_cli("verify", "--suite", suite)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [l for l in r.stdout.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[PASS]") for l in lines)
    assert all("measured=" in l and "tol=" in l for l in lines)


def test_verify_unknown_suite_usage_error():
    r = run_cli("verify", "--suite", "bogus")
    assert r.returncode == 2


def test_cli_import_leaves_verify_unloaded():
    # only the verify command imports the suites; the other commands do
    # not compile verify.py
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, plemelj.cli; print('plemelj.verify' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr


# -- JSON emitter ----------------------------------------------------------------------

def test_dump_json_formats_floats():
    text = dump_json({"x": 0.1, "flag": True, "none": None, "list": [1.5]})
    assert "1.0000000000000001e-01" in text
    assert "true" in text and "null" in text
    assert json.loads(text) == {"x": 0.1, "flag": True, "none": None,
                                "list": [1.5]}
