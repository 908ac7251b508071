"""In-memory spans around the public functions of each dhmeasure layer.

A `Tracer` replaces every binding of a wrapped function -- the defining
module's attribute and each name imported from it into another dhmeasure
module (`rank` lives in `rational`, `polycone`, `conespline` and, as
`exact_rank`, in `verify`) -- so nested calls are seen however they are
reached. Spans are recorded only while a case is open; the benchmark's own
checks run between cases and stay out of the trace.

The library is single-threaded: a span's self time is its duration minus
the durations of its direct children, and no layer has queue-wait time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Functions wrapped in a traced run, by layer (each layer is one module). The
# scalar helpers rat/vec/vdot are left out on purpose: they run millions of
# times per case and wrapping them would measure the wrapper.
LAYERS = {
    "rational": ("rref", "rank", "solve", "nullspace", "det"),
    "lp": ("solve_lp",),
    "polycone": (
        "is_feasible",
        "feasible_point",
        "is_compact",
        "is_proper",
        "bounded_below",
        "proper_projection_directions",
        "cone_is_proper",
        "interior_point",
        "strict_positive_functional",
    ),
    "conespline": ("heaviside_density", "spline_density", "spline_laplace",
                   "laplace_factor"),
    "localize": ("validate_model", "default_chamber", "renormalize", "dh_measure",
                 "gamma_region", "localization_sum"),
    "hermitian": ("build_pair", "orbit_model", "t_type_measure", "k_type_measure",
                  "laplace_nu_symbolic"),
    "oracle": ("quadrature_convolution", "lattice_count", "numeric_laplace_spline",
               "montecarlo_pushforward", "truncated_circle_check"),
}

# The workload on which each wrapped function must record at least one span.
EXPECTED_HITS = {
    **{f"rational.{n}": "orbits" for n in LAYERS["rational"]},
    "lp.solve_lp": "cones",
    **{f"polycone.{n}": "cones" for n in LAYERS["polycone"]},
    **{f"conespline.{n}": "models" for n in LAYERS["conespline"]},
    **{f"localize.{n}": "models" for n in LAYERS["localize"]},
    **{f"hermitian.{n}": "orbits" for n in LAYERS["hermitian"]},
    **{f"oracle.{n}": "oracles" for n in LAYERS["oracle"]},
}


def _lp_status(result):
    return result.status


def _empty_fiber(result):
    return "empty" if result == 0.0 else None


# Per-function hooks that tag a span with an outcome read from the result.
_TAGGERS = {"lp.solve_lp": _lp_status, "conespline.heaviside_density": _empty_fiber}


class Tracer:
    """Wraps layer functions of an imported `dhmeasure` (all of LAYERS, or the
    given {layer: names} subset) and records spans.

    A span is (name, start, end, parent index, case id, tag). Use as a
    context manager: bindings are restored on exit.
    """

    def __init__(self, functions=None, on_call=None):
        self.functions = LAYERS if functions is None else functions
        self.on_call = on_call  # run before each recorded call, outside its span
        self.spans = []
        self.case_id = None
        self._stack = []
        self._restore = []

    def __enter__(self):
        pkg = "dhmeasure"
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == pkg or k.startswith(pkg + ".")) and m is not None]
        for layer, names in self.functions.items():
            home = sys.modules[f"{pkg}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, name, fn):
        tagger = _TAGGERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.case_id is None:
                return fn(*args, **kwargs)
            if self.on_call is not None:
                self.on_call()
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, self.case_id, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tagger is not None:
                span[5] = tagger(result)
            return result

        return traced

    def open_case(self, case_id):
        self.case_id = case_id

    def close_case(self):
        self.case_id = None

    def write(self, path):
        """Write the spans as JSON lines, starts relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, case, tag) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start - t0, 9),
                                     round(end - t0, 9), parent, case, tag]) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans, index, prefix):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, cases, scale=None):
    """Per-layer counts and self times from one traced batch of `cases`.
    `scale` maps a case id to the factor its times are multiplied by."""
    selfs = self_times(spans)
    count = {}
    self_s = {}
    for s, st in zip(spans, selfs):
        count[s[0]] = count.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + st * (scale[s[4]] if scale else 1.0)

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    # an LP "solve" is an outermost solve_lp span (maximize re-enters itself)
    solves = [i for i, s in enumerate(spans)
              if s[0] == "lp.solve_lp" and not _has_ancestor(spans, i, "lp.")]
    lp_under_polycone = sum(1 for i in solves if _has_ancestor(spans, i, "polycone."))
    top_polycone = sum(1 for i, s in enumerate(spans)
                       if s[0].startswith("polycone.")
                       and not _has_ancestor(spans, i, "polycone."))
    heaviside = count.get("conespline.heaviside_density", 0)
    empty = sum(1 for s in spans
                if s[0] == "conespline.heaviside_density" and s[5] == "empty")
    transforms = count.get("localize.localization_sum", 0)
    lp_under_transform = sum(
        1 for i in solves if _has_ancestor(spans, i, "localize.localization_sum"))

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "rational.calls": (total("rational.", count), "count"),
        "rational.self_s": (total("rational.", self_s), "s"),
        "lp.solves": (len(solves), "count"),
        "lp.self_s": (total("lp.", self_s), "s"),
        "lp.solves_per_case": (ratio(len(solves), cases), "count"),
        "lp.infeasible": (sum(1 for i in solves if spans[i][5] == "infeasible"), "count"),
        "lp.unbounded": (sum(1 for i in solves if spans[i][5] == "unbounded"), "count"),
        "polycone.calls": (total("polycone.", count), "count"),
        "polycone.self_s": (total("polycone.", self_s), "s"),
        "polycone.lp_per_call": (ratio(lp_under_polycone, top_polycone), "count"),
        "conespline.heaviside.calls": (heaviside, "count"),
        "conespline.heaviside.self_s": (self_s.get("conespline.heaviside_density", 0.0), "s"),
        "conespline.heaviside.empty_ratio": (ratio(empty, heaviside), "ratio"),
        "conespline.spline_density.self_s": (self_s.get("conespline.spline_density", 0.0), "s"),
        "conespline.spline_laplace.self_s": (self_s.get("conespline.spline_laplace", 0.0), "s"),
        "localize.renormalize.calls": (count.get("localize.renormalize", 0), "count"),
        "localize.lp_per_transform": (ratio(lp_under_transform, transforms), "count"),
        "localize.localization_sum.self_s": (self_s.get("localize.localization_sum", 0.0), "s"),
        "localize.dh_measure.self_s": (self_s.get("localize.dh_measure", 0.0), "s"),
        "localize.default_chamber.self_s": (self_s.get("localize.default_chamber", 0.0), "s"),
        "hermitian.orbit_model.per_case": (ratio(count.get("hermitian.orbit_model", 0), cases), "count"),
        "hermitian.symbolic.self_s": (self_s.get("hermitian.laplace_nu_symbolic", 0.0), "s"),
        "hermitian.build_pair.self_s": (self_s.get("hermitian.build_pair", 0.0), "s"),
        "hermitian.t_type.self_s": (self_s.get("hermitian.t_type_measure", 0.0), "s"),
        "hermitian.k_type.self_s": (self_s.get("hermitian.k_type_measure", 0.0), "s"),
        "oracle.quadrature.self_s": (self_s.get("oracle.quadrature_convolution", 0.0), "s"),
        "oracle.lattice.self_s": (self_s.get("oracle.lattice_count", 0.0), "s"),
        "oracle.numeric_laplace.self_s": (self_s.get("oracle.numeric_laplace_spline", 0.0), "s"),
        "oracle.montecarlo.self_s": (self_s.get("oracle.montecarlo_pushforward", 0.0), "s"),
        "oracle.circle.self_s": (self_s.get("oracle.truncated_circle_check", 0.0), "s"),
    }, count
