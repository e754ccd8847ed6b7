"""Layer tracing for the benchmark's traced run.

The layers are plemelj's modules.  Each boundary is a function name; the
tracer replaces it, in every ``plemelj.*`` namespace that binds it, with a
wrapper that records a span (name, parent span, start, end).  Spans stay in
memory in flat arrays until :meth:`Tracer.metrics` turns them into per-layer
counts and times at the end.  Nothing under ``src/`` is edited, and a name
that no module binds any more is skipped: its metrics are then absent from
the output instead of crashing the run.

A span's self time is its duration minus the durations of its direct
children, and minus what the tracer itself spent: in the parent, around
each child (the wrapper frame, the bookkeeping before and after the timed
call, any counting the wrapper does), and inside the span's own timed
interval (the clock reads and the extra call frame).  Both parts are
measured per wrapper kind, on a wrapped no-op, in the traced process
(:func:`span_costs`); ``trace.span_cost_ns`` reports them for a plain
span and ``trace.overhead_s`` their sum over all spans.  A layer's busy
time is likewise net of the cost of its own and its nested spans.
Because every span except an op root has exactly one parent, the self
times of all spans plus that overhead add up exactly (in integer
nanoseconds) to the duration of the op roots; :meth:`Tracer.metrics`
checks that.
"""
import math
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, replace
from types import SimpleNamespace

# boundary name -> layer.  Private names are listed only where another
# module calls them, so every cross-module call is a span.
BOUNDARIES = {
    # special_functions and its erfcx cores (_erfcx_py, _erfcx_ext)
    "erfcx_complex": "special", "erfc_complex": "special",
    "erfcx_scaled": "special", "wz_erfcx": "special",
    # kernels
    "j_kernel": "kernels", "j_closed_form": "kernels",
    "full_line_kernel": "kernels", "direct_quadrature": "kernels",
    "kernel_limit": "kernels", "kernel_limit_mirror": "kernels",
    "full_line_limit": "kernels",
    # quadrature
    "gk15": "quadrature", "integrate_adaptive": "quadrature",
    "integrate_segment": "quadrature", "integrate_contour": "quadrature",
    "richardson": "quadrature",
    # contours
    "Contour.from_json": "contours", "domain_violations": "contours",
    "path_in_domain": "contours", "radius_cut_locations": "contours",
    "split_at_radius": "contours", "subpath_segments": "contours",
    "deform_at_origin": "contours", "segment_path": "contours",
    "tilted_segment": "contours",
    # functionals
    "catalog_function": "functionals", "check_analytic": "functionals",
    "plemelj_plus": "functionals", "plemelj_minus": "functionals",
    "delta_action": "functionals", "pv_contour": "functionals",
    "_crossing_moves_left_to_right": "functionals",
    "deformation_route": "functionals", "lambda_route": "functionals",
    "overlap_delta": "functionals",
    # tilted
    "tilted_plemelj": "tilted", "arg_regularized": "tilted",
    "arg_limit": "tilted",
    # cli
    "run_domain_map": "cli", "write_domain_map_csv": "cli",
    "run_functional": "cli", "dump_json": "cli",
}
LAYERS = ("special", "kernels", "contours", "quadrature", "functionals",
          "tilted", "cli")

# The region split documented in plemelj._erfcx_py.erfcx_complex, fixed
# here so a later change of the core cannot move the region boundaries.
ERFCX_REGIONS = ("series", "weideman", "cf", "asymptotic", "reflection")


def erfcx_region(w: complex) -> str:
    r = abs(w)
    if r <= 2.0:
        return "series"
    if w.real < 0.0:
        return "reflection"
    if r >= 8.0:
        return "cf" if w.real > 0.1 * r else "asymptotic"
    return "weideman"


_LADDERS = ("kernel_limit", "kernel_limit_mirror", "full_line_limit")
_CORE_MODULES = ("plemelj._erfcx_py", "plemelj._erfcx_ext")


def _kind(name):
    """The wrapper kind of a boundary: what the wrapper does besides
    recording the span, which sets its cost."""
    if name in ("erfcx_complex", "gk15", "catalog_function"):
        return name
    return "ladder" if name in _LADDERS else "plain"


@dataclass(frozen=True)
class _NullFunction:
    eval: object


_NULL_LADDER = SimpleNamespace(lambda_trace=(1.0, 0.3, 0.1), status="converged")
_NULL_FUNCTION = _NullFunction(abs)

# per kind: a boundary name of that kind, a no-op in its place (it returns
# a prebuilt value, so its body costs nothing), and the call arguments
_NULL_CALLS = {
    "plain": ("null", lambda *args, **kwargs: None, ()),
    "erfcx_complex": ("erfcx_complex", lambda w: w, (3.0 + 4.0j,)),
    "ladder": ("kernel_limit", lambda z: _NULL_LADDER, (1j,)),
    "gk15": ("gk15", lambda g, a, b: None, (abs, 0.0, 1.0)),
    "catalog_function": ("catalog_function", lambda name: _NULL_FUNCTION,
                         ("gauss",)),
}


def span_costs(rounds=7, repeats=2000):
    """Per wrapper kind, the nanoseconds a span adds (to its parent's self
    time, to its own).  A parent span calls a wrapped no-op ``repeats``
    times.  Its self time, less the same loop calling the no-op directly
    (the call the parent makes untraced), is the first cost; the no-op
    spans' durations, whose body is empty, are the second.  Per call,
    medians of ``rounds``."""
    clock = time.perf_counter_ns
    costs = {}
    for kind, (name, fn, args) in _NULL_CALLS.items():
        outer, inner = [], []
        for _ in range(rounds):
            t = Tracer()
            wrapped = t._wrap(name, "null", fn)
            t0 = clock()
            for _ in range(repeats):
                fn(*args)
            direct = clock() - t0

            def loop():
                for _ in range(repeats):
                    wrapped(*args)
            t._span(0, loop, (), {})
            spans = sum(t.end[i] - t.start[i] for i in range(1, len(t.name)))
            outer.append((t.end[0] - t.start[0] - spans - direct) / repeats)
            inner.append(spans / repeats)
        costs[kind] = (max(0, round(statistics.median(outer))),
                       max(0, round(statistics.median(inner))))
    return costs


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.span_names = ["op"]                    # name id -> span name
        self.layer_of = [None]                      # name id -> layer
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = {"ladder.points": 0, "ladder.steps": 0,
                       "ladder.decided": 0, "erfcx.overflow": 0,
                       "integrand_evals": 0, "f_evals": 0}
        self.installed = set()                      # boundary names found
        self.kind_of = [None]                       # name id -> wrapper kind
        self.span_cost = None       # kind -> (outer, inner) ns, see install

    # -- recording -------------------------------------------------------

    def _name_id(self, span_name, layer, kind="plain"):
        self.span_names.append(span_name)
        self.layer_of.append(layer)
        self.kind_of.append(kind)
        return len(self.span_names) - 1

    def _span(self, name_id, fn, args, kwargs):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def op(self, run):
        """``run`` wrapped so each call is an op root span."""
        def traced_op(*args):
            return self._span(0, run, args, {})
        return traced_op

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, layer, fn):
        span = self._span
        counts = self.counts
        if name == "erfcx_complex":
            ids = {r: self._name_id(f"erfcx.{r}", layer, "erfcx_complex")
                   for r in ERFCX_REGIONS}

            def wrapper(w):
                v = span(ids[erfcx_region(w)], fn, (w,), {})
                if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                    counts["erfcx.overflow"] += 1
                return v
            return wrapper
        nid = self._name_id(name, layer, _kind(name))
        if name in _LADDERS:
            def wrapper(*args, **kwargs):
                res = span(nid, fn, args, kwargs)
                counts["ladder.points"] += 1
                counts["ladder.steps"] += len(res.lambda_trace)
                counts["ladder.decided"] += res.status != "undecided"
                return res
            return wrapper
        if name == "gk15":
            def wrapper(g, a, b):
                def counted(x):
                    counts["integrand_evals"] += 1
                    return g(x)
                return span(nid, fn, (counted, a, b), {})
            return wrapper
        if name == "catalog_function":
            def wrapper(*args, **kwargs):
                f = span(nid, fn, args, kwargs)
                inner = f.eval

                def counted(z):
                    counts["f_evals"] += 1
                    return inner(z)
                return replace(f, eval=counted)
            return wrapper

        def wrapper(*args, **kwargs):
            return span(nid, fn, args, kwargs)
        return wrapper

    def install(self):
        """Measure the span costs, then wrap every boundary in every loaded
        plemelj namespace."""
        self.span_cost = span_costs()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "plemelj" or n.startswith("plemelj.")) and m is not None]
        wrapped = {}
        for name, layer in BOUNDARIES.items():
            if name == "erfcx_complex":
                spaces = [sys.modules[n] for n in _CORE_MODULES if n in sys.modules]
            else:
                spaces = modules
            for ns in spaces:
                cls_name, _, attr = name.rpartition(".")
                holder = getattr(ns, cls_name, None) if cls_name else ns
                if holder is None or cls_name and holder.__module__ != ns.__name__:
                    continue
                raw = vars(holder).get(attr)
                method = isinstance(raw, classmethod)
                fn = raw.__func__ if method else raw
                if not callable(fn):
                    continue
                if not getattr(fn, "__module__", "").startswith("plemelj"):
                    continue
                if id(fn) not in wrapped:    # one wrapper per function object
                    wrapped[id(fn)] = self._wrap(name, layer, fn)
                w = wrapped[id(fn)]
                setattr(holder, attr, classmethod(w) if method else w)
                self.installed.add(name)

    # -- analysis ------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        layer_of = self.layer_of
        cost_of = [self.span_cost[k] if k else (0, 0) for k in self.kind_of]
        child = array("q", bytes(8 * n))       # children's time + outer cost
        nested = array("q", bytes(8 * n))      # cost of every nested span
        overhead = 0
        for i in range(n - 1, -1, -1):         # children follow their parent
            p = parent[i]
            if p >= 0:
                outer, inner = cost_of[name[i]]
                child[p] += end[i] - start[i] + outer
                nested[p] += nested[i] + outer + inner
                overhead += outer + inner
        per_name = {}          # name id -> [spans, self_ns]
        per_layer = {}         # layer -> [entries, busy_ns, self_ns]
        op_ns = 0
        self_total = 0
        for i in range(n):
            d = end[i] - start[i]
            inner = cost_of[name[i]][1]
            own = d - child[i] - inner
            self_total += own
            nid = name[i]
            rec = per_name.setdefault(nid, [0, 0])
            rec[0] += 1
            rec[1] += own
            layer = layer_of[nid]
            p = parent[i]
            if layer is None:
                op_ns += d
                continue
            lrec = per_layer.setdefault(layer, [0, 0, 0])
            lrec[2] += own
            if p < 0 or layer_of[name[p]] != layer:
                lrec[0] += 1
                lrec[1] += d - nested[i] - inner
        if self_total + overhead != op_ns:
            raise RuntimeError(f"self times {self_total} ns and span costs "
                               f"{overhead} ns do not add up to op time {op_ns} ns")
        by_name = {}           # span name -> (spans, self_ns), summed over
        for nid, (spans, own) in per_name.items():   # same-named functions
            prev = by_name.get(self.span_names[nid], (0, 0))
            by_name[self.span_names[nid]] = (prev[0] + spans, prev[1] + own)
        installed = self.installed
        out = {}
        for layer in LAYERS:
            if not any(l == layer for nm, l in BOUNDARIES.items() if nm in installed):
                continue
            entries, busy, own = per_layer.get(layer, (0, 0, 0))
            out[f"{layer}.calls"] = entries
            out[f"{layer}.busy_s"] = busy / 1e9
            out[f"{layer}.self_s"] = own / 1e9

        def calls(span_name):
            return by_name.get(span_name, (0, 0))[0]

        c = self.counts
        if "erfcx_complex" in installed:
            total_calls = total_ns = 0
            for r in ERFCX_REGIONS:
                k, own = by_name.get(f"erfcx.{r}", (0, 0))
                out[f"special.erfcx.calls.{r}"] = k
                out[f"special.erfcx.ns_per_call.{r}"] = own / k if k else 0.0
                total_calls += k
                total_ns += own
            out["special.erfcx.calls"] = total_calls
            out["special.erfcx.ns_per_call"] = total_ns / total_calls if total_calls else 0.0
            out["special.erfcx.overflow_ratio"] = (
                c["erfcx.overflow"] / total_calls if total_calls else 0.0)
        if any(l in installed for l in _LADDERS):
            pts = c["ladder.points"]
            out["kernels.ladder.points"] = pts
            out["kernels.ladder.steps_per_point"] = c["ladder.steps"] / pts if pts else 0.0
            out["kernels.ladder.decided_ratio"] = c["ladder.decided"] / pts if pts else 0.0
        for nm in ("j_kernel", "full_line_kernel"):
            if nm in installed:
                out[f"kernels.{nm}.calls"] = calls(nm)
        if "gk15" in installed and "integrate_adaptive" in installed:
            integrals, panels = calls("integrate_adaptive"), calls("gk15")
            out["quadrature.integrals"] = integrals
            out["quadrature.panels"] = panels
            out["quadrature.panels_per_integral"] = panels / integrals if integrals else 0.0
            out["quadrature.integrand_evals"] = c["integrand_evals"]
        for metric, nm in (("contours.domain_checks", "domain_violations"),
                           ("contours.radius_cuts", "radius_cut_locations"),
                           ("contours.deformations", "deform_at_origin"),
                           ("contours.from_json", "Contour.from_json")):
            if nm in installed:
                out[metric] = calls(nm)
        if "catalog_function" in installed:
            out["functionals.f_evals"] = c["f_evals"]
            out["functionals.f_evals_per_op"] = c["f_evals"] / n_ops
        out["trace.op_s"] = op_ns / 1e9
        out["trace.overhead_s"] = overhead / 1e9
        out["trace.span_cost_ns"] = sum(self.span_cost["plain"])
        out["trace.unattributed_s"] = by_name.get("op", (0, 0))[1] / 1e9
        out["trace.spans"] = n
        return out
