"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces the public functions named in SPANS by timing
wrappers, in every soficlab module that holds a reference to them,
so calls made through ``from .x import f`` names are caught as well.  A
span's self time is its duration minus the time of the spans it encloses.
Spans are summed by name in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter

# Span name for each public function the per-layer metrics read.  Other
# functions are not wrapped: their time counts to the span that called them.
SPANS = {
    ("shift", "load_presentation"): "shift.load",
    ("shift", "symbol_expansion"): "shift.move",
    ("shift", "higher_block"): "shift.move",
    ("semigroups", "determinize_minimal"): "semigroups.dfa",
    ("semigroups", "transition_semigroup"): "semigroups.closure",
    ("semigroups", "green_j"): "semigroups.green",
    ("semigroups", "is_aperiodic"): "semigroups.aperiodic",
    ("semigroups", "render_cayley_table"): "semigroups.render",
    ("karoubi", "karoubi_envelope"): "karoubi.envelope",
    ("karoubi", "skeleton"): "karoubi.skeleton",
    ("karoubi", "categories_isomorphic"): "karoubi.iso",
    ("karoubi", "dump_category"): "karoubi.dump",
    ("flowlab", "flow_compare"): "flowlab.compare",
    ("flowlab", "invariant_report"): "flowlab.report",
    ("flowlab", "expansion_invariance_check"): "flowlab.invariance",
    ("cli", "main"): "cli.self",
}


def _count_result(tracer: "Tracer", span: str, args: tuple, kwargs: dict, result) -> None:
    count = tracer.counts
    if span == "shift.move":
        count["shift.move_vertices"] += len(result.vertices)
    elif span == "semigroups.dfa":
        count["semigroups.dfa_states"] += result.size
    elif span == "semigroups.closure":
        size = result[0].size
        count["semigroups.elements"] += size
        count["semigroups.table_cells"] += size * size
    elif span == "karoubi.envelope":
        semigroup = args[0] if args else kwargs["semigroup"]
        count["karoubi.envelope_scanned"] += len(result.objects) ** 2 * semigroup.size
        count["karoubi.envelope_arrows"] += len(result.arrows)
    elif span == "karoubi.skeleton":
        count["karoubi.skeleton_objects"] += len(result.objects)
        count["karoubi.skeleton_arrows"] += len(result.arrows)


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._open: list[list[float]] = []  # time of the children of each open span

    def _wrap(self, span: str, fn):
        open_spans = self._open
        self_s = self.self_s

        def timed(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                open_spans.pop()
                self_s[span] += took - children[0]
                if open_spans:
                    open_spans[-1][0] += took
            try:
                _count_result(self, span, args, kwargs, result)
            except (AttributeError, TypeError, IndexError, KeyError):
                # A later version returns another shape: report the count absent.
                if f"{span} counts" not in self.absent:
                    self.absent.append(f"{span} counts")
            return result

        return timed

    def install(self, pkg: dict) -> None:
        wrapped = {}
        for (module, name), span in SPANS.items():
            fn = getattr(pkg[module], name, None)
            if isinstance(fn, types.FunctionType):
                wrapped[fn] = self._wrap(span, fn)
            else:
                self.absent.append(f"{module}.{name}")
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "soficlab"]:
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(mod, name, wrapped[value])
