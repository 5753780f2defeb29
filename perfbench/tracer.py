"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces every public function of the package, in every
module that binds it, by a wrapper that records a span (name, start, end,
parent) and the counters below.  ``from .exact import rank`` binds
``rank`` separately in flats, torus, arrangement and morse, so patching
``exact.rank`` alone would miss those calls.  Nothing under ``src/`` is
changed; spans stay in memory until ``write``.

Layers are the package's modules, with ``serialize`` folded into ``cli``
and the ``flowlab`` subpackage as one layer.
"""

import functools
import gzip
import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "hypertoric"

# Private functions that mark a layer boundary worth a span of its own.
PRIVATE_BOUNDARIES = {"cli._emit", "cli._load_json", "torus._dependent_witness"}

# Genericity decisions; one made while none of GUARDS is active is a
# separate decision of the request rather than part of a sampling search.
GENERICITY = {"torus.alpha_witness", "torus.beta_witness",
              "torus._dependent_witness"}
GUARDS = GENERICITY | {"torus.sample_generic"}

# Time of a group is the time of its spans not nested in another of its spans.
GROUPS = {
    "cli.parse": {"cli.build_parser", "cli._load_json", "cli.setup_from_json",
                  "cli.parse_matrix_list"},
    "cli.emit": {"cli._emit", "cli.setup_to_json", "cli.flat_to_json",
                 "cli.poly_to_json", "cli.rational_to_str",
                 "cli.complex_to_json", "cli.witness_to_json"},
    "torus.genericity": GENERICITY,
    "morse.modification": {"morse.modification_recurrence",
                           "morse.modification_cases"},
}


def layer_of(module_name):
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != PACKAGE:
        return None
    if parts[1] == "serialize":
        return "cli"
    return parts[1]


def _monomials(nvars, degree):
    if nvars == 0:
        return int(degree == 0)
    return math.comb(nvars - 1 + degree, degree)


def _hilbert_cells(pres, max_degree):
    """Rows x columns of the integer matrix hilbert_dims ranks per degree."""
    degrees = [sum(gen[0][0]) for gen in pres.gens if gen]
    cells = []
    for m in range(max_degree + 1):
        rows = sum(_monomials(pres.nvars, m - g) for g in degrees if g <= m)
        cells.append(rows * _monomials(pres.nvars, m))
    return cells


# Post-call hooks: (tracer, args, kwargs, result, parent name) -> None.

def _fm_feasible(tr, args, kwargs, result, parent):
    if parent == "arrangement.bounded_regions":
        tr.counts["arrangement.prefix_tests"] += 1
        tr.counts["arrangement.prefix_feasible"] += bool(result)


def _cone_is_pointed(tr, args, kwargs, result, parent):
    tr.counts["arrangement.bounded_cells"] += bool(result)


def _presentation(tr, args, kwargs, result, parent):
    tr.counts["ringcalc.generators"] += len(result.gens)


def _hilbert_dims(tr, args, kwargs, result, parent):
    pres = args[0]
    max_degree = args[1] if len(args) > 1 else kwargs["max_degree"]
    tr.last_cells = _hilbert_cells(pres, max_degree)


def _ring_table(top_of):
    def hook(tr, args, kwargs, result, parent):
        top = top_of(args[0])
        cells = tr.last_cells or []
        tr.counts["ringcalc.matrix_cells"] += sum(cells)
        tr.counts["ringcalc.matrix_cells_above_top"] += sum(cells[top + 1:])
        tr.last_cells = None
    return hook


def _integrate_flow(tr, args, kwargs, result, parent):
    tr.counts["flowlab.trials"] += 1
    tr.counts["flowlab.accepted_steps"] += result.steps


POST_HOOKS = {
    "arrangement.fm_feasible": _fm_feasible,
    "arrangement.cone_is_pointed": _cone_is_pointed,
    "ringcalc.cohomology_presentation": _presentation,
    "ringcalc.circle_equivariant_presentation": _presentation,
    "ringcalc.hilbert_dims": _hilbert_dims,
    "ringcalc.ring_dims": _ring_table(lambda w: len(w) - (len(w[0]) if w else 0)),
    "ringcalc.circle_dims": _ring_table(lambda s: s.n - s.dim),
    "flowlab.integrate_flow": _integrate_flow,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.active = []            # open spans per name id
        self.stack = []             # indices of open spans
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = bytearray()  # 1 unless nested in a span of its name
        self.counts = Counter()
        self.last_cells = None
        self.guard_ids = set()

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.ids[name]

    def install(self):
        """Wrap every public package function in every module binding it."""
        wrapped = {}
        for mod_name, module in sorted(sys.modules.items()):
            if layer_of(mod_name) is None and mod_name != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                name = self._name_of(attr, value)
                if name is None:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self.wrap(name, value)
                setattr(module, attr, wrapped[id(value)])
        self.guard_ids = {self.ids[n] for n in GUARDS if n in self.ids}

    @staticmethod
    def _name_of(attr, value):
        if isinstance(value, type) or not callable(value):
            return None
        layer = layer_of(getattr(value, "__module__", None) or "")
        if layer is None:
            return None
        name = f"{layer}.{getattr(value, '__name__', attr)}"
        if name.split(".")[1].startswith("_") and name not in PRIVATE_BOUNDARIES:
            return None
        return name

    def wrap(self, name, fn):
        nid = self._id(name)
        post = POST_HOOKS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        genericity = name in GENERICITY
        names, active, stack, counts = self.names, self.active, self.stack, self.counts
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_outer = self.span_start, self.span_end, self.span_outer
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_outer.append(active[nid] == 0)
            span_start.append(0.0)
            span_end.append(0.0)
            if genericity and not any(active[g] for g in tracer.guard_ids):
                counts["torus.genericity_checks"] += 1
            misses = cache_info().misses if cache_info else 0
            active[nid] += 1
            stack.append(idx)
            span_start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if cache_info:
                missed = cache_info().misses > misses
                counts[f"{name}.cache_misses"] += missed
                if missed and name == "flats.enumerate_flats":
                    counts["flats.flats_count"] += len(result)
            if post:
                post(tracer, args, kwargs, result,
                     names[span_name[stack[-1]]] if stack else None)
            return result

        return traced

    def totals(self):
        """Calls and outermost inclusive seconds per name, self seconds per
        layer, and outermost seconds per group."""
        n = len(self.span_name)
        names = [self.names[i] for i in self.span_name]
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        covered = [0.0] * n
        in_group = {g: bytearray(n) for g in GROUPS}
        for i in range(n):
            p = self.span_parent[i]
            if p < 0:
                continue
            covered[p] += dur[i]
            for g, members in GROUPS.items():
                in_group[g][i] = in_group[g][p] or names[p] in members
        per_name = {}
        layers = Counter()
        groups = Counter()
        for i in range(n):
            entry = per_name.setdefault(names[i], [0, 0.0])
            entry[0] += 1
            if self.span_outer[i]:
                entry[1] += dur[i]
            layers[names[i].split(".")[0]] += dur[i] - covered[i]
            for g, members in GROUPS.items():
                if names[i] in members and not in_group[g][i]:
                    groups[g] += dur[i]
        return {"names": per_name, "layers": dict(layers),
                "groups": dict(groups), "counts": dict(self.counts),
                "spans": n}

    def write(self, path):
        """Write all spans as gzipped JSON, times in seconds from the first."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": [round(t - t0, 6) for t in self.span_start],
                       "end": [round(t - t0, 6) for t in self.span_end]},
                      handle, separators=(",", ":"))
