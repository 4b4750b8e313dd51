"""In-memory span tracer installed around strataglue's layer boundaries.

The tracer wraps library functions from the outside, so the library
itself carries no tracing code.  A *span* probe times each call and
records the span that was open when it started; a *counter* probe only
adds to a count on the innermost open span, which keeps hot functions
such as ``MorseSystem.rhs`` (hundreds of thousands of calls per run)
cheap to observe.

Spans stay in memory and are written out once, after the run.  A
layer's self time is the summed duration of its spans minus the time
their child spans cover.

A probe whose target no longer exists is recorded as absent, and every
metric derived from it is reported as absent rather than as zero.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

import numpy as np

perf_counter = time.perf_counter


class Span:
    __slots__ = ("layer", "parent", "t0", "t1", "child_s", "counts")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.t0 = 0.0
        self.t1 = 0.0
        self.child_s = 0.0
        self.counts = {}


def _hausdorff_shape(args, kwargs):
    """Point-segment pairs a dense point-to-polyline pass evaluates."""

    def pairs(P, Q):
        n, m = len(P), len(Q)
        if n < 2 or m < 2:
            return max(n, m)
        return n * (m - 1) + m * (n - 1)

    P = np.atleast_2d(args[0])
    if len(args) > 1 and isinstance(args[1], (list, tuple)):
        parts = [np.atleast_2d(Q) for Q in args[1]]
    else:
        parts = [np.atleast_2d(args[1])]
    total = sum(pairs(P, Q) for Q in parts)
    dim = P.shape[1]
    # per pair: difference, projection and residual vectors, plus the
    # clipped parameter and the distance, all float64
    return {"point_segment_pairs": total, "bytes_computed": total * (3 * dim + 2) * 8}


def _halvings(args, kwargs, result):
    eps_in = kwargs["eps"] if "eps" in kwargs else args[2]
    eps_out = result[1]
    return {"halvings": int(round(math.log2(eps_in / eps_out)))}


# (module, attribute path, layer) -- each call becomes a span
SPAN_PROBES = [
    ("strataglue.morse", "find_critical_points", "morse.critical"),
    ("strataglue.morse", "integrate_flow", "morse.flow"),
    ("strataglue.morse", "ModuliAnalysis._sweep", "morse.sweep"),
    ("strataglue.morse", "ModuliAnalysis._back_prefix", "morse.prefix"),
    ("strataglue.morse", "ModuliAnalysis._end_table", "morse.endtable"),
    ("strataglue.morse", "ModuliAnalysis._arc_length", "morse.endtable"),
    ("strataglue.morse", "ModuliAnalysis._loop_length", "morse.endtable"),
    ("strataglue.morse", "hausdorff", "morse.hausdorff"),
    ("strataglue.morse", "hausdorff_to_union", "morse.hausdorff"),
    ("strataglue.morse", "check_transversality", "morse.transversality"),
    ("strataglue.morse", "ModuliAnalysis.to_family", "morse.export"),
    ("strataglue.collar", "build_collars", "collar.build"),
    ("strataglue.collar", "CorrectedChart.forward", "collar.chart"),
    ("strataglue.collar", "CorrectedChart.inverse", "collar.chart"),
    ("strataglue.collar", "check_compat_one_pair", "collar.check.nested"),
    ("strataglue.collar", "check_compat_concat", "collar.check.concat"),
    ("strataglue.collar", "check_associativity", "collar.check.assoc"),
    ("strataglue.collar", "check_stratum_condition", "collar.check.stratum"),
    ("strataglue.collar", "check_differential", "collar.check.differential"),
    ("strataglue.collar", "glue", "collar.glue"),
    ("strataglue.collar", "_glue_rows", "collar.glue"),
    ("strataglue.collar", "glue_differential", "collar.glue"),
    ("strataglue.family", "validate_family", "family.validate"),
    ("strataglue.family", "load_family", "family.io"),
    ("strataglue.family", "save_family", "family.io"),
    ("strataglue.cli", "_write_report", "cli.report"),
]

# (module, attribute path, count name) -- each call adds 1 to the
# innermost open span
COUNTER_PROBES = [
    ("strataglue.morse", "MorseSystem.rhs", "rhs_evals"),
    ("strataglue.morse", "MorseSystem.rhs_back", "rhs_back_evals"),
    ("strataglue.morse", "solve_ivp", "ivp_calls"),
    ("strataglue.morse", "ModuliAnalysis._classify", "shots"),
    ("strataglue.morse", "ModuliAnalysis._shot_trajectory", "shots"),
    ("strataglue.collar", "CorrectedChart.forward", "forward_calls"),
    ("strataglue.collar", "CorrectedChart.inverse", "inverse_calls"),
    ("strataglue.collar", "CorrectedChart.__init__", "corrections"),
]

# counts computed from a span's arguments, keyed by attribute path
SHAPE_PROBES = {
    "hausdorff": _hausdorff_shape,
    "hausdorff_to_union": _hausdorff_shape,
}

# counts computed from arguments and result, added to the open span
RESULT_PROBES = [
    ("strataglue.collar", "normalize_junctions", _halvings),
]


class Tracer:
    def __init__(self, root_layer: str = "body"):
        self.root = Span(root_layer, None)
        self.stack = [self.root]
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self._undo = []

    # -- installation ---------------------------------------------------

    def _resolve(self, module_name, path):
        obj = importlib.import_module(module_name)
        owner, name = obj, path
        for part in path.split("."):
            owner, name = obj, part
            obj = getattr(obj, part)
        return owner, name, obj

    def _replace(self, owner, name, original, wrapper):
        """Swap ``original`` for ``wrapper`` on its owner and in every
        strataglue module that imported it by name."""
        targets = [(owner, name)]
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("strataglue"):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        targets.append((mod, attr))
        for tgt, attr in targets:
            self._undo.append((tgt, attr, getattr(tgt, attr)))
            setattr(tgt, attr, wrapper)

    def install(self):
        probes = (
            [(m, p, lambda fn, c=c: self._counter(fn, c)) for m, p, c in COUNTER_PROBES]
            + [
                (m, p, lambda fn, l=l, p=p: self._span(fn, l, SHAPE_PROBES.get(p)))
                for m, p, l in SPAN_PROBES
            ]
            + [(m, p, lambda fn, f=f: self._result(fn, f)) for m, p, f in RESULT_PROBES]
        )
        for module_name, path, make_wrapper in probes:
            try:
                owner, name, fn = self._resolve(module_name, path)
            except (ImportError, AttributeError):
                self.absent[f"{module_name}.{path}"] = "not found"
                continue
            self._replace(owner, name, fn, make_wrapper(fn))

    def uninstall(self):
        for tgt, attr, val in reversed(self._undo):
            setattr(tgt, attr, val)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------

    def _counter(self, fn, count):
        stack = self.stack

        def counted(*args, **kwargs):
            counts = stack[-1].counts
            counts[count] = counts.get(count, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, layer, shape):
        stack = self.stack
        spans = self.spans

        def spanned(*args, **kwargs):
            parent = stack[-1]
            span = Span(layer, parent)
            if shape is not None:
                span.counts.update(shape(args, kwargs))
            stack.append(span)
            span.t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                parent.child_s += span.t1 - span.t0
                spans.append(span)

        return spanned

    def _result(self, fn, measure):
        stack = self.stack

        def measured(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = stack[-1].counts
            for key, val in measure(args, kwargs, result).items():
                counts[key] = counts.get(key, 0) + val
            return result

        return measured

    # -- the root span --------------------------------------------------

    def run(self, body):
        """Call ``body()`` inside the root span and return its result."""
        self.root.t0 = perf_counter()
        try:
            return body()
        finally:
            self.root.t1 = perf_counter()
            self.spans.append(self.root)

    # -- results --------------------------------------------------------

    def layers(self) -> dict:
        """Per-layer totals: spans, self time and summed counts."""
        out: dict[str, dict] = {}
        for span in self.spans:
            agg = out.setdefault(span.layer, {"spans": 0, "self_s": 0.0, "counts": {}})
            agg["spans"] += 1
            agg["self_s"] += (span.t1 - span.t0) - span.child_s
            for key, val in span.counts.items():
                agg["counts"][key] = agg["counts"].get(key, 0) + val
        return out

    def records(self) -> list[dict]:
        """Every span as a plain record; parents are list indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t_base = self.root.t0
        return [
            {
                "layer": s.layer,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "start_s": s.t0 - t_base,
                "end_s": s.t1 - t_base,
                "self_s": (s.t1 - s.t0) - s.child_s,
                "counts": s.counts,
            }
            for s in self.spans
        ]


# ---------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------

_M = "strataglue.morse."
_C = "strataglue.collar."
_SWEEP = [_M + "ModuliAnalysis._sweep", _M + "ModuliAnalysis._classify"]
_PREFIX = [_M + "ModuliAnalysis._back_prefix"]
_END = [_M + f"ModuliAnalysis.{m}" for m in ("_end_table", "_arc_length", "_loop_length")]
_HAUS = [_M + "hausdorff", _M + "hausdorff_to_union"]
_CHART = [_C + "CorrectedChart.forward", _C + "CorrectedChart.inverse"]
_CHECKS = {
    "nested": "check_compat_one_pair",
    "concat": "check_compat_concat",
    "assoc": "check_associativity",
    "stratum": "check_stratum_condition",
    "differential": "check_differential",
}
_GLUE = [_C + "glue", _C + "_glue_rows", _C + "glue_differential"]


def layer_metrics(tracer: Tracer, resolution: int) -> dict:
    """Per-layer metrics of one traced body; None marks an absent layer.

    ``resolution`` is the sweep's angular grid: classify shots in a
    computed sweep beyond that grid are bisection steps.
    """
    L = tracer.layers()

    def self_s(layer):
        return L.get(layer, {}).get("self_s", 0.0)

    def spans(*layers):
        return sum(L.get(layer, {}).get("spans", 0) for layer in layers)

    def count(layer, key):
        return L.get(layer, {}).get("counts", {}).get(key, 0)

    bisect = sum(
        s.counts["shots"] - resolution
        for s in tracer.spans
        if s.layer == "morse.sweep" and s.counts.get("shots")
    )
    forward, inverse = count("collar.chart", "forward_calls"), count("collar.chart", "inverse_calls")
    table = {
        "morse.critical.self_s": (self_s("morse.critical"), [_M + "find_critical_points"]),
        "morse.flow.calls": (spans("morse.flow"), [_M + "integrate_flow"]),
        "morse.flow.ivp_calls": (count("morse.flow", "ivp_calls"), [_M + "integrate_flow", _M + "solve_ivp"]),
        "morse.flow.rhs_evals": (
            count("morse.flow", "rhs_evals"),
            [_M + "integrate_flow", _M + "MorseSystem.rhs"],
        ),
        "morse.flow.self_s": (self_s("morse.flow"), [_M + "integrate_flow"]),
        "morse.sweep.shots": (count("morse.sweep", "shots"), _SWEEP),
        "morse.sweep.bisect_steps": (bisect, _SWEEP),
        "morse.sweep.self_s": (self_s("morse.sweep"), _SWEEP[:1]),
        "morse.prefix.calls": (spans("morse.prefix"), _PREFIX),
        "morse.prefix.self_s": (self_s("morse.prefix"), _PREFIX),
        # the backward field; on flat systems rhs_back calls rhs, so the
        # prefix's rhs count would count each backward evaluation twice
        "morse.prefix.rhs_back_evals": (
            count("morse.prefix", "rhs_back_evals"), _PREFIX + [_M + "MorseSystem.rhs_back"]
        ),
        "morse.prefix.ivp_calls": (count("morse.prefix", "ivp_calls"), _PREFIX + [_M + "solve_ivp"]),
        "morse.endtable.calls": (spans("morse.endtable"), _END),
        "morse.endtable.shots": (
            count("morse.endtable", "shots"), _END + [_M + "ModuliAnalysis._shot_trajectory"]
        ),
        "morse.endtable.self_s": (self_s("morse.endtable"), _END),
        "morse.hausdorff.calls": (spans("morse.hausdorff"), _HAUS),
        "morse.hausdorff.self_s": (self_s("morse.hausdorff"), _HAUS),
        "morse.hausdorff.point_segment_pairs": (count("morse.hausdorff", "point_segment_pairs"), _HAUS),
        "morse.hausdorff.bytes_computed": (count("morse.hausdorff", "bytes_computed"), _HAUS),
        "morse.transversality.self_s": (self_s("morse.transversality"), [_M + "check_transversality"]),
        "morse.transversality.ivp_calls": (
            count("morse.transversality", "ivp_calls"), [_M + "check_transversality", _M + "solve_ivp"]
        ),
        "morse.export.self_s": (self_s("morse.export"), [_M + "ModuliAnalysis.to_family"]),
        "collar.build.self_s": (self_s("collar.build"), [_C + "build_collars"]),
        "collar.build.corrections": (
            count("collar.build", "corrections"), [_C + "build_collars", _C + "CorrectedChart.__init__"]
        ),
        "collar.build.halvings": (
            count("collar.build", "halvings"), [_C + "build_collars", _C + "normalize_junctions"]
        ),
        "collar.chart.forward_calls": (forward, _CHART),
        "collar.chart.inverse_calls": (inverse, _CHART),
        "collar.chart.forward_per_inverse": (forward / inverse if inverse else 0.0, _CHART),
        "collar.chart.self_s": (self_s("collar.chart"), _CHART),
        "collar.check.rows": (
            spans(*(f"collar.check.{k}" for k in _CHECKS)), [_C + f for f in _CHECKS.values()]
        ),
        "collar.glue.calls": (spans("collar.glue"), _GLUE),
        "collar.glue.self_s": (self_s("collar.glue"), _GLUE),
        "family.validate.self_s": (self_s("family.validate"), ["strataglue.family.validate_family"]),
        "family.io.self_s": (
            self_s("family.io"), ["strataglue.family.load_family", "strataglue.family.save_family"]
        ),
        "cli.report.self_s": (self_s("cli.report"), ["strataglue.cli._write_report"]),
        "body.self_s": (self_s("body"), []),
    }
    for key, fn in _CHECKS.items():
        table[f"collar.check.{key}.self_s"] = (self_s(f"collar.check.{key}"), [_C + fn])
    return {
        name: None if any(req in tracer.absent for req in required) else value
        for name, (value, required) in table.items()
    }
