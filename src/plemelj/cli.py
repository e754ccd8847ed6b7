"""Command-line front end.

Subcommands:

* ``domain-map``  -- sweep a rectangular grid of the complex plane,
  classify each point's regularized-kernel limit and write a CSV
  (columns re, im, status, abs_value) for external plotting.
* ``functional``  -- evaluate one of the extended Plemelj functionals for
  a catalog test function along a contour read from JSON, emitting a JSON
  report with the value, its PV/delta split and (optionally) the
  regularization-route cross-check.
* ``verify``      -- run the library's invariant suites and report one
  measured-vs-tolerance line per check.

Exit codes: 0 success, 1 check/evaluation failure, 2 usage or parse error.
All emitted floats use 17 significant digits in lowercase scientific
notation, so identical requests produce byte-identical files.
"""
import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

from . import functionals
from .contours import Contour, ContourError
from .functionals import AdmissibilityError, DomainViolationError
from .kernels import RegularizationSchedule, _decider

_FMT = "{:.16e}".format   # 17 significant digits, lowercase scientific

KERNEL_CHOICES = ("I_plus", "I_minus", "full_line")
FUNCTIONAL_KERNELS = ("I_plus", "I_minus", "delta")


@dataclass(frozen=True)
class DomainMapRequest:
    """Grid sweep request: bounds, resolution, schedule and kernel."""
    grid: tuple  # (re_min, re_max, im_min, im_max, n_re, n_im)
    schedule: RegularizationSchedule = field(
        default_factory=RegularizationSchedule.default)
    kernel: str = "I_plus"

    def __post_init__(self):
        re_min, re_max, im_min, im_max, n_re, n_im = self.grid
        for v in (re_min, re_max, im_min, im_max):
            if not math.isfinite(v):
                raise ValueError("grid bounds must be finite")
        if re_min > re_max or im_min > im_max:
            raise ValueError("grid bounds must be ordered min <= max")
        for n, lo, hi in ((n_re, re_min, re_max), (n_im, im_min, im_max)):
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"grid resolution must be an int, got {n!r}")
            if n < 1 or (n == 1 and lo != hi):
                raise ValueError(
                    "grid resolution must be >= 2 (or 1 with equal bounds)")
            # the largest grid point, as _axis computes it, bounds the others
            if n > 1 and not math.isfinite(lo + (n - 1) * ((hi - lo) / (n - 1))):
                raise ValueError("grid span overflows: max - min and every "
                                 "grid point must be finite")
        if self.kernel not in KERNEL_CHOICES:
            raise ValueError(f"kernel must be one of {KERNEL_CHOICES}")


def _axis(lo, hi, n):
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


# the apex: every wedge pinches it and the half-line kernel grows like
# 1/sqrt(lambda) there, so the limit diverges at |z| <= _APEX
_APEX = 1e-14
_ZERO = _FMT(0.0)   # abs_value of every converged full_line point
# the most formatted line ends the CSV writer holds at once; it clears
# them when full, so its memory stays O(row + _TAILS_MAX)
_TAILS_MAX = 2 ** 14


class DomainMap:
    """The grid of a :class:`DomainMapRequest`, decided one row at a time
    as it is read; no more than one row is held.

    ``re`` and ``im`` are the grid's axes, ascending.
    :meth:`rows` yields (im, runs) per grid row, im ascending: the runs
    (stop, status, value) of ``kernels._decider``'s row form over the Re
    axis ``re``, with the apex points as diverged runs of their own.
    Iterating yields the points of those rows as
    (re, im, status, abs_value_or_None) in row-major order (im ascending
    outer, re ascending inner); abs_value is given for converged points.
    """

    def __init__(self, req: DomainMapRequest):
        re_min, re_max, im_min, im_max, n_re, n_im = req.grid
        self.re = _axis(re_min, re_max, n_re)
        self.im = _axis(im_min, im_max, n_im)
        self._decide_row = _decider(
            {"I_plus": "plus", "I_minus": "minus",
             "full_line": "full_line"}[req.kernel], req.schedule)

    def rows(self):
        for im in self.im:
            yield im, self._row(im)

    def _row(self, im):
        re = self.re
        if abs(im) > _APEX:   # |z| >= |im|: no apex point on this row
            return self._decide_row(im, re)
        runs = []
        start = 0
        for apex, group in itertools.groupby(
                re, lambda x: abs(complex(x, im)) <= _APEX):
            xs = list(group)
            if apex:
                runs.append((start + len(xs), "diverged", None))
            else:
                runs += [(start + stop, status, value) for stop, status, value
                         in self._decide_row(im, xs)]
            start += len(xs)
        return runs

    def __iter__(self):
        re = self.re
        for im, runs in self.rows():
            start = 0
            for stop, status, value in runs:
                if type(value) is not list:
                    value = [value] * (stop - start)
                for x, v in zip(re[start:stop], value):
                    yield x, im, status, abs(v) if status == "converged" else None
                start = stop


def run_domain_map(req: DomainMapRequest) -> DomainMap:
    """The sweep, decided lazily row by row as it is read (see
    :class:`DomainMap`)."""
    return DomainMap(req)


def write_domain_map_csv(rows: DomainMap, stream):
    """Write the CSV of a :func:`run_domain_map` grid: the Re axis is
    formatted once, Im once per row and a run's common abs_value once; on
    a grid that can repeat |i/z|, each distinct per-point abs_value once
    (up to _TAILS_MAX held at once).  Each row is one write."""
    stream.write("re,im,status,abs_value\n")
    re = [_FMT(x) for x in rows.re]
    tails = {}

    def miss(a):   # the line end of converged abs_value a, formatted once
        if len(tails) >= _TAILS_MAX:
            tails.clear()
        end = tails[a] = f"converged,{_FMT(a)}\n"
        return end

    # |i/z| is the same at x + iy, -x + iy, x - iy and y + ix, so only a
    # grid whose two axes hold some magnitude twice repeats it by symmetry;
    # on any other each point formats its own, as a memo would always miss
    axes = rows.re + rows.im
    memo = len(set(map(abs, axes))) < len(axes)
    for im, runs in rows.rows():
        mid = f",{_FMT(im)},"
        parts = []
        start = 0
        for stop, status, value in runs:
            if status != "converged":
                end = f"{mid}{status},\n"
            elif type(value) is list:
                xs = re[start:stop]
                if memo:
                    parts += [f"{x}{mid}{tails.get(a) or miss(a)}"
                              for x, a in zip(xs, map(abs, value))]
                else:
                    parts += [f"{x}{mid}converged,{_FMT(abs(v))}\n"
                              for x, v in zip(xs, value)]
                start = stop
                continue
            else:
                end = f"{mid}converged,{_FMT(abs(value)) if value else _ZERO}\n"
            parts.append(end.join(re[start:stop]))
            parts.append(end)
            start = stop
        stream.write("".join(parts))


def _parse_grid(text: str):
    try:
        re_part, im_part = text.split(",")
        re_min, re_max, n_re = re_part.split(":")
        im_min, im_max, n_im = im_part.split(":")
        return (float(re_min), float(re_max), float(im_min), float(im_max),
                int(n_re), int(n_im))
    except ValueError as exc:
        raise ValueError(
            f"grid must look like RE_MIN:RE_MAX:N,IM_MIN:IM_MAX:N, got {text!r}"
        ) from exc


def _schedule_from_args(args) -> RegularizationSchedule:
    return RegularizationSchedule(
        lambdas=tuple(args.lambda_start * 10.0 ** (-0.5 * n)
                      for n in range(args.lambda_steps)))


# -- deterministic JSON emission ---------------------------------------------

def _emit_json(obj, out, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(k)}: ")
            _emit_json(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit_json(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        out.append(_FMT(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj) -> str:
    out = []
    _emit_json(obj, out)
    out.append("\n")
    return "".join(out)


def _c_dict(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def run_functional(kernel: str, function_name: str, contour: Contour,
                   cross_check: bool = False) -> dict:
    """Evaluate one functional and assemble its JSON-ready report."""
    f = functionals.catalog_function(function_name)
    if kernel == "I_plus":
        res, route_kernel = functionals.plemelj_plus(f, contour), "plus"
    elif kernel == "I_minus":
        res, route_kernel = functionals.plemelj_minus(f, contour), "minus"
    elif kernel == "delta":
        res, route_kernel = functionals.plemelj_delta(f, contour), "full_line"
    else:
        raise ValueError(f"kernel must be one of {FUNCTIONAL_KERNELS}")
    report = {
        "kernel": kernel,
        "function": function_name,
        "value": _c_dict(res.value),
        "pv_part": _c_dict(res.pv_part),
        "delta_part": _c_dict(res.delta_part),
        "cross_check": None,
    }
    if cross_check:
        route = functionals.lambda_route(f, contour, kernel=route_kernel)
        agree = abs(route - res.value) <= max(1e-5 * abs(res.value), 1e-8)
        report["cross_check"] = {
            "lambda_route": _c_dict(route),
            "formula_route": _c_dict(res.value),
            "agree": agree,
        }
    return report


# -- entry point ---------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plemelj",
        description="Regularized complex-delta kernels, wedge domain maps and "
                    "extended Plemelj functionals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("domain-map", help="classify a complex-plane grid")
    p_map.add_argument("--kernel", required=True, choices=KERNEL_CHOICES)
    p_map.add_argument("--grid", required=True,
                       help="RE_MIN:RE_MAX:N,IM_MIN:IM_MAX:N")
    p_map.add_argument("--out", required=True, help="output CSV path")
    p_map.add_argument("--lambda-start", type=float, default=1.0)
    p_map.add_argument("--lambda-steps", type=int, default=13)

    p_fun = sub.add_parser("functional", help="evaluate a Plemelj functional")
    p_fun.add_argument("--kernel", required=True, choices=FUNCTIONAL_KERNELS)
    p_fun.add_argument("--function", required=True,
                       help="catalog name, e.g. gauss(0.3)")
    p_fun.add_argument("--contour", required=True, help="contour JSON path")
    p_fun.add_argument("--out", required=True, help="output JSON path")
    p_fun.add_argument("--cross-check", action="store_true",
                       help="also run the regularization-route oracle")

    p_ver = sub.add_parser("verify", help="run invariant suites")
    p_ver.add_argument("--suite", required=True,
                       choices=("special", "kernels", "plemelj", "tilted", "all"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "domain-map":
        try:
            req = DomainMapRequest(grid=_parse_grid(args.grid),
                                   schedule=_schedule_from_args(args),
                                   kernel=args.kernel)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows = run_domain_map(req)
        try:
            with open(args.out, "w") as fh:
                write_domain_map_csv(rows, fh)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "functional":
        try:
            with open(args.contour) as fh:
                contour = Contour.from_json(fh.read())
        except OSError as exc:
            print(f"error: cannot read {args.contour}: {exc}", file=sys.stderr)
            return 2
        except ContourError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            report = run_functional(args.kernel, args.function, contour,
                                    cross_check=args.cross_check)
        except (DomainViolationError, AdmissibilityError, ContourError) as exc:
            seg = getattr(exc, "segment_index", None)
            where = "" if seg is None else f" (segment {seg})"
            print(f"error: {exc}{where}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            with open(args.out, "w") as fh:
                fh.write(dump_json(report))
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "verify":
        from . import verify   # only this command compiles the suites
        checks = verify.run_suite(args.suite)
        failed = 0
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {c.name}: measured={c.measured:.3e} "
                  f"tol={c.tol:.3e}")
            failed += not c.passed
        print(f"{len(checks) - failed}/{len(checks)} checks passed")
        return 0 if failed == 0 else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
