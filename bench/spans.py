"""Span recorder wrapped around zonorec's public functions from outside.

``Tracer.install`` replaces each public function of the traced modules, and
the methods listed in ``METHODS``, with a wrapper that records one span
(name, parent, start, end) per call.  A function is replaced wherever the
package holds it: in its defining module, in every ``zonorec`` module that
imported it by name, and in the package ``__init__``.  Spans stay in memory
until the run ends; self time is a span's duration minus the durations of
its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "jsonio", "zonogon", "flips", "engine", "laurent", "spinor", "tropical")

# In the cli layer only ``main`` is wrapped: every command function is a step
# of it, so the layer is measured as one span per CLI call.
WRAPPED_ONLY = {"cli": {"main"}}

# Public functions left unwrapped, so that their time counts toward the
# caller's span:
# - tiny helpers called per lattice point or per vector entry, whose wrapper
#   would cost more than their body and bury the layers they serve.
# - generator functions, whose body runs while the caller iterates.
# - spinor.rref: the elimination belongs to the kernel (nullspace) or rank
#   query that runs it.
UNWRAPPED = {
    "zonogon": {"unit", "shift", "shift2", "cross", "rhombus_corners", "rhombus_edges",
                "cube_bottom_faces", "cube_top_faces"},
    "engine": {"cube_corner_values"},
    "spinor": {"rref", "eps", "eps_dual", "inner", "clifford_act"},
}


def _observe_enumerate(notes, args, result):
    notes["tilings_found"] = notes.get("tilings_found", 0) + len(result)


def _observe_extend(notes, args, result):
    new = len(result.values) - len(args[0].values)
    notes["points_labelled"] = notes.get("points_labelled", 0) + new


def _observe_exact_div(notes, args, result):
    terms = max(len(args[0].terms), len(result.terms))
    notes["max_terms"] = max(notes.get("max_terms", 0), terms)


OBSERVE = {
    "flips.enumerate_tilings": _observe_enumerate,
    "engine.extend_to_lattice": _observe_extend,
    "laurent.LaurentPoly.exact_div": _observe_exact_div,
}

# (layer, class, method) wrapped in addition to module-level functions
METHODS = (
    ("zonogon", "Tiling", "__init__"),
    ("laurent", "LaurentPoly", "__mul__"),
    ("laurent", "LaurentPoly", "exact_div"),
    ("laurent", "LaurentPoly", "evaluate"),
)


def _wrapped_here(layer: str, attr: str, obj, module) -> bool:
    if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
        return False
    if attr.startswith("_") or inspect.isgeneratorfunction(obj):
        return False
    if layer in WRAPPED_ONLY:
        return attr in WRAPPED_ONLY[layer]
    return attr not in UNWRAPPED.get(layer, ())


class Tracer:
    """Spans in four parallel arrays, indexed by span id in start order."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.errors: list[int] = []
        self.notes: dict = {}
        self._stack: list[int] = []
        self._undo: list = []

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.errors.append(0)
        return self._index[name]

    def wrap(self, name: str, fn, observe=None):
        idx = self.name_index(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, errors, clock, notes = self._stack, self.errors, self.clock, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(notes, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        holders = [m for n, m in list(sys.modules.items())
                   if n == "zonorec" or n.startswith("zonorec.")]
        for layer in LAYERS:
            module = sys.modules[f"zonorec.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not _wrapped_here(layer, attr, obj, module):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, obj, OBSERVE.get(name))
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is obj:
                            self._replace(holder, key, traced)
        for layer, cls, meth in METHODS:
            klass = getattr(sys.modules[f"zonorec.{layer}"], cls)
            name = f"{layer}.{cls}.{meth}"
            self._replace(klass, meth, self.wrap(name, klass.__dict__[meth], OBSERVE.get(name)))

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis ------------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[sid] - self.start[sid]
        return out

    def under(self, name: str) -> list[bool]:
        """Per span: whether it or one of its ancestors has the given name."""
        idx = self._index.get(name, -1)
        out = []
        for n, p in zip(self.name, self.parent):
            out.append(n == idx or (p >= 0 and out[p]))
        return out

    def totals(self) -> dict:
        """name -> [calls, self_ns, errors]"""
        out = {name: [0, 0, self.errors[i]] for i, name in enumerate(self.names)}
        for n, s in zip(self.name, self.self_ns()):
            row = out[self.names[n]]
            row[0] += 1
            row[1] += s
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made inside a call of ``ancestor``."""
        idx = self._index.get(name, -1)
        inside = self.under(ancestor)
        return sum(1 for n, p in zip(self.name, self.parent)
                   if n == idx and p >= 0 and inside[p])

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
        }


# ---------------------------------------------------------------------------
# per-layer metrics

BOTH = ("calls", "self_s")

# metric prefix -> stats reported; the prefix is also the span's name except
# for the LaurentPoly methods, which SPAN_OF maps.
FUNCTION_METRICS = {
    "cli.main": ("self_s",),
    "zonogon.tiling_through_vertex": BOTH,
    "zonogon.t_min": BOTH,
    "flips.normalize_to_min": BOTH,
    "flips.fundamental_forest": BOTH,
    "flips.flippable_vertices": BOTH,
    "flips.apply_move": BOTH,
    "flips.enumerate_tilings": ("self_s",),
    "flips.random_tiling": ("self_s",),
    "engine.extend_to_lattice": BOTH,
    "engine.evaluate_path": BOTH,
    "engine.flip_value": BOTH,
    "engine.verify_cube_relations": BOTH,
    "laurent.exact_div": BOTH,
    "laurent.mul": BOTH,
    "laurent.evaluate": BOTH,
    "spinor.pure_spinor": BOTH,
    "spinor.nullspace": BOTH,
    "spinor.complete_isotropic_pair": ("self_s",),
    "spinor.spin_coordinates": ("calls",),
    "spinor.random_isotropic_subspace": ("self_s",),
    "spinor.trbi_residuals": ("self_s",),
    "tropical.check_propagation": BOTH,
}
SPAN_OF = {
    "laurent.exact_div": "laurent.LaurentPoly.exact_div",
    "laurent.mul": "laurent.LaurentPoly.__mul__",
    "laurent.evaluate": "laurent.LaurentPoly.evaluate",
}

# name -> (unit, better)
PER_LAYER = {}
for _prefix, _stats in FUNCTION_METRICS.items():
    for _stat in _stats:
        PER_LAYER[f"{_prefix}.{_stat}"] = ("s", "lower") if _stat == "self_s" else ("count", "lower")
PER_LAYER.update({
    "jsonio.decode.self_s": ("s", "lower"),
    "jsonio.encode.self_s": ("s", "lower"),
    "zonogon.Tiling.built": ("count", "lower"),
    "flips.new_tiling_ratio": ("ratio", "higher"),
    "engine.useful_solve_ratio": ("ratio", "higher"),
    "laurent.max_terms": ("count", "lower"),
    "spinor.solves_per_point": ("ratio", "lower"),
})
for _layer in LAYERS:
    if _layer != "cli":
        PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.errors"] = ("count", "lower")
PER_LAYER["trace_overhead_ratio"] = ("ratio", "lower")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric, as a mean per traced pass where it is a sum."""
    totals = tracer.totals()

    def get(span, i):
        return totals.get(span, [0, 0, 0])[i]

    out = {}
    for prefix, stats in FUNCTION_METRICS.items():
        span = SPAN_OF.get(prefix, prefix)
        if "calls" in stats:
            out[f"{prefix}.calls"] = get(span, 0) / passes
        if "self_s" in stats:
            out[f"{prefix}.self_s"] = get(span, 1) / 1e9 / passes

    def layer_sum(pred, i):
        return sum(row[i] for name, row in totals.items() if pred(name))

    out["jsonio.decode.self_s"] = layer_sum(
        lambda s: s.startswith("jsonio.") and s.endswith("_from_json"), 1) / 1e9 / passes
    out["jsonio.encode.self_s"] = layer_sum(
        lambda s: s.startswith("jsonio.") and s.endswith("_to_json"), 1) / 1e9 / passes
    out["zonogon.Tiling.built"] = get("zonogon.Tiling.__init__", 0) / passes
    notes = tracer.notes
    out["flips.new_tiling_ratio"] = _ratio(
        notes.get("tilings_found", 0),
        tracer.count_under("flips.apply_move", "flips.enumerate_tilings"))
    out["engine.useful_solve_ratio"] = _ratio(
        notes.get("points_labelled", 0),
        tracer.count_under("engine.flip_value", "engine.extend_to_lattice"))
    out["laurent.max_terms"] = notes.get("max_terms", 0)
    out["spinor.solves_per_point"] = _ratio(
        get("spinor.pure_spinor", 0), get("spinor.spin_coordinates", 0))
    for layer in LAYERS:
        def in_layer(s, layer=layer):
            return s.startswith(layer + ".")
        if layer != "cli":
            out[f"{layer}.self_s"] = layer_sum(in_layer, 1) / 1e9 / passes
        out[f"{layer}.errors"] = layer_sum(in_layer, 2)
    out["trace_overhead_ratio"] = overhead_ratio
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics differ from PER_LAYER: {set(out) ^ set(PER_LAYER)}")
    return out
