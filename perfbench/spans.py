"""Layer spans recorded from outside the package.

The tracer wraps regpos functions and methods at every module attribute
that binds them (a function imported into three modules is wrapped three
times), so no file under src/ changes.  Spans stay in memory as
(id, parent, layer, name, start, end, attrs) tuples and are written once,
after the timed call.  A layer's self time is its spans' durations minus
the durations of their direct child spans.

Tracing assumes one thread: run traced workloads with --threads 1.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# layer -> (module, function names) on the three workloads' call paths;
# wrapped wherever regpos binds them
FUNCTIONS = {
    "ascent": ("regpos._ascent", ["ratio_extremum_many", "_ellipsoid_ratio"]),
    "subspaces": ("regpos.subspaces", ["haar_grassmannian_batch", "section_out_radii"]),
    "gaussian": ("regpos.gaussian", ["ell", "ell_star"]),
    "positions": ("regpos.positions", ["solve_ell_position", "balance_scale"]),
    "regular": ("regpos.regular", ["find_regular_position", "random_gelfand", "regularity_report",
                                   "section_radius_sample", "ell_position_certificate",
                                   "balanced_interpolant_functionals"]),
    "experiments": ("regpos.experiments", ["run_qs_experiment", "run_regular_positions"]),
    "records": ("regpos.records", ["write_csv"]),
}

# layer -> (module, class, method names)
METHODS = {
    "gaussian": [("regpos.gaussian", "GaussianSample", ["block"])],
    "positions": [("regpos.positions", "_DiagObjective", ["__call__"])],
    "records": [("regpos.records", "JsonlWriter", ["write"])],
}

ORACLES = ("_gauge", "_gauge_subgrad", "_ascent_subgrad", "_support")


def _attrs_for(name, args, kwargs):
    """Work counts known from the arguments of a call."""
    if name == "ratio_extremum_many":
        return {"subspaces": int(args[1].shape[0])}
    if name == "haar_grassmannian_batch":
        return {"bases": int(args[3] if len(args) > 3 else kwargs["count"])}
    if name == "block":
        s = args[0]
        return {"key": [int(s.seed), int(s.count), int(s.dim), int(args[1])]}
    if name in ORACLES:
        body = args[0]
        p = getattr(body, "p", None)
        return {"rows": int(args[1].shape[0]),
                "pgen": p is not None and p not in (1.0, 2.0, float("inf"))}
    return None


def _attrs_from_result(name, result):
    if name in ("solve_ell_position", "find_regular_position"):
        return {"iterations": int(result.iterations)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, layer, name, clock(), None,
                    _attrs_for(name, args, kwargs)]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = clock()
            extra = _attrs_from_result(name, result)
            if extra:
                span[6] = {**(span[6] or {}), **extra}
            return result

        return traced

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self):
        """Wrap every traced function at each regpos binding, and the layer methods."""
        import regpos.bodies as bd

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "regpos" or n.startswith("regpos.")) and m is not None]
        for layer, (modname, names) in FUNCTIONS.items():
            home = sys.modules[modname]
            for name in names:
                fn = getattr(home, name)
                wrapped = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapped)
        for layer, entries in METHODS.items():
            for modname, clsname, names in entries:
                cls = getattr(sys.modules[modname], clsname)
                for name in names:
                    self._patch(cls, name, self._wrap(layer, name, vars(cls)[name]))
        bodies = {obj for mod in modules for obj in vars(mod).values()
                  if inspect.isclass(obj) and issubclass(obj, bd.ConvexBody)}
        for cls in sorted(bodies, key=lambda c: (c.__module__, c.__qualname__)):
            for name in ORACLES:
                if name in vars(cls):
                    self._patch(cls, name, self._wrap("bodies", name, vars(cls)[name]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, layer, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer, "name": name,
                                     "start": t0, "end": t1, "attrs": attrs or {}}) + "\n")


# per-layer metric units, the traced run's overhead included
UNITS = {
    "ascent.self_s": "s", "ascent.subspaces": "count", "ascent.ms_per_subspace": "ms",
    "ascent.fun_grad_evals": "count", "ascent.eigen_solves": "count", "ascent.eigen_s": "s",
    "bodies.rows": "count", "bodies.self_s": "s", "bodies.rows_per_s": "1/s", "bodies.pgen.self_s": "s",
    "gaussian.blocks": "count", "gaussian.block_s": "s", "gaussian.distinct_block_share": "ratio",
    "positions.solves": "count", "positions.objective_evals": "count", "positions.objective_self_s": "s",
    "positions.lbfgs_iters": "count", "regular.fp_iterations": "count", "regular.fp_step_ms": "ms",
    "regular.gelfand_s": "s", "subspaces.haar_bases": "count", "subspaces.haar_s": "s",
    "experiments.self_s": "s", "records.records": "count", "records.write_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans):
    """Per-layer metrics from finished spans (see perfbench/README.md for definitions)."""
    dur = [s[5] - s[4] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[1] is not None:
            child[s[1]] += d
    self_s = [d - c for d, c in zip(dur, child)]

    def parent(s):
        return spans[s[1]] if s[1] is not None else None

    def outermost(s, layer=None, name=None):
        p = parent(s)
        return p is None or not ((layer is None or p[2] == layer) and (name is None or p[3] == name))

    def total(values):
        return float(sum(values))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    by_layer = {}
    for s, st in zip(spans, self_s):
        by_layer[s[2]] = by_layer.get(s[2], 0.0) + st

    ratio_spans = [(s, d) for s, d in zip(spans, dur)
                   if s[3] == "ratio_extremum_many" and outermost(s, "ascent")]
    subspaces = sum(s[6]["subspaces"] for s, _ in ratio_spans)
    eigen = [d for s, d in zip(spans, dur) if s[3] == "_ellipsoid_ratio"]
    oracle = [(s, st) for s, st in zip(spans, self_s) if s[2] == "bodies"]
    rows = sum(s[6]["rows"] for s, _ in oracle if outermost(s, "bodies"))
    bodies_self = total(st for _, st in oracle)
    blocks = [(s, d) for s, d in zip(spans, dur) if s[3] == "block"]
    distinct = len({tuple(s[6]["key"]) for s, _ in blocks})
    solves = [s for s in spans if s[3] == "solve_ell_position" and outermost(s, name="solve_ell_position")]
    objective = [st for s, st in zip(spans, self_s) if s[3] == "__call__"]
    fixed_points = [(s, d) for s, d in zip(spans, dur) if s[3] == "find_regular_position"]
    fp_iterations = sum(s[6]["iterations"] for s, _ in fixed_points)
    haar = [(s, d) for s, d in zip(spans, dur) if s[6] and "bases" in s[6]]
    writes = [d for s, d in zip(spans, dur) if s[2] == "records"]

    return {
        "ascent.self_s": by_layer.get("ascent", 0.0),
        "ascent.subspaces": subspaces,
        "ascent.ms_per_subspace": ratio(total(d for _, d in ratio_spans), subspaces, 1e3),
        "ascent.fun_grad_evals": sum(1 for s in spans
                                     if s[3] == "_ascent_subgrad" and parent(s) is not None
                                     and parent(s)[2] == "ascent"),
        "ascent.eigen_solves": len(eigen),
        "ascent.eigen_s": total(eigen),
        "bodies.rows": rows,
        "bodies.self_s": bodies_self,
        "bodies.rows_per_s": ratio(rows, bodies_self),
        "bodies.pgen.self_s": total(st for s, st in oracle if s[6]["pgen"]),
        "gaussian.blocks": len(blocks),
        "gaussian.block_s": total(d for _, d in blocks),
        "gaussian.distinct_block_share": ratio(distinct, len(blocks)),
        "positions.solves": len(solves),
        "positions.objective_evals": len(objective),
        "positions.objective_self_s": total(objective),
        "positions.lbfgs_iters": sum(s[6]["iterations"] for s in solves),
        "regular.fp_iterations": fp_iterations,
        "regular.fp_step_ms": ratio(total(d for _, d in fixed_points), fp_iterations, 1e3),
        "regular.gelfand_s": total(d for s, d in zip(spans, dur)
                                   if s[3] == "random_gelfand" and outermost(s, name="random_gelfand")),
        "subspaces.haar_bases": sum(s[6]["bases"] for s, _ in haar),
        "subspaces.haar_s": total(d for _, d in haar),
        "experiments.self_s": by_layer.get("experiments", 0.0),
        "records.records": sum(1 for s in spans if s[3] == "write" and s[2] == "records"),
        "records.write_s": total(writes),
    }
