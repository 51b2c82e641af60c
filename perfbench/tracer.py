"""Traced run: spans and work counters recorded from outside hyperlab.

Every public function of the traced modules is wrapped.  Each module does
`from .metric import metric_at` and the like, so a wrapper is installed
under every name, in every hyperlab module, that refers to the original
function (and in module-level dicts such as cli.COMMANDS).  A span records
name, start, end and parent id; self time is the span minus its children.
Spans stay in memory until write_spans().

Counters are taken where their layer does the work, e.g. the number of
level >= 1 metric_at calls made inside an integrate_rays span.
"""

import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("metric", "geodesic", "foliation", "mass", "kgflat", "zscompare",
          "nullgeom", "cli")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    if len(args) > index:
        return args[index]
    return default


def _points(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.on = False
        self.spans = []            # (id, parent id, name, start, end)
        self.self_s = Counter()    # span name -> summed self time
        self.calls = Counter()     # span name -> number of spans
        self.count = Counter()     # work counters
        self.active = Counter()    # span name -> open spans of that name
        self._stack = []           # [id, name, start, child seconds]
        self._next_id = 0
        self._patched = []         # (namespace, key, original)

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1
        self.active[name] += 1
        self.calls[name] += 1

    def _exit(self):
        end = self.clock()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.active[name] -= 1
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else -1, name, start, end))

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = before(tracer, args, kwargs) if before else name
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the public functions of every traced module, everywhere."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hyperlab.{layer}"]
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                span = (f"cli.{fname[4:].replace('_', '-')}"
                        if layer == "cli" and fname.startswith("cmd_")
                        else f"{layer}.{fname}")
                before, after = _HOOKS.get(span, (None, None))
                wrappers[fn] = self._wrap(span, fn, before, after)
        for modname, mod in list(sys.modules.items()):
            if modname != "hyperlab" and not modname.startswith("hyperlab."):
                continue
            for ns in [vars(mod)] + [v for v in vars(mod).values()
                                     if isinstance(v, dict)]:
                for key, val in list(ns.items()):
                    if inspect.isfunction(val) and val in wrappers:
                        self._patched.append((ns, key, val))
                        ns[key] = wrappers[val]

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched = []

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")

    def layer_metrics(self):
        """Per-layer metrics from the spans and counters of the traced op."""
        c, s, n = self.count, self.self_s, self.calls

        def per(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        m = {}
        for lv in (0, 1, 2):
            m[f"metric.l{lv}.calls"] = (n[f"metric.l{lv}"], "count")
        m["metric.calls"] = (sum(n[f"metric.l{lv}"] for lv in (0, 1, 2)),
                             "count")
        for lv in (1, 2):
            m[f"metric.l{lv}.points"] = (c[f"metric.l{lv}.points"], "count")
            m[f"metric.l{lv}.self_s"] = (s[f"metric.l{lv}"], "s")
            m[f"metric.l{lv}.us_per_call"] = (
                per(s[f"metric.l{lv}"], n[f"metric.l{lv}"], 1e6), "us")
        m["metric.l2.batch_mean"] = (
            per(c["metric.l2.points"], n["metric.l2"]), "count")
        m["metric.l2.us_per_point"] = (
            per(s["metric.l2"], c["metric.l2.points"], 1e6), "us")

        ir = "geodesic.integrate_rays"
        m[ir + ".calls"] = (n[ir], "count")
        m[ir + ".rays"] = (c["geodesic.rays"], "count")
        m[ir + ".self_s"] = (s[ir], "s")
        m["geodesic.payload_calls"] = (c["geodesic.payload_calls"], "count")
        m["geodesic.metric_calls"] = (c["geodesic.metric_calls"], "count")
        m["geodesic.rhs_evals"] = (c["geodesic.rhs_evals"], "count")
        m["geodesic.rhs_evals_per_call"] = (
            per(c["geodesic.rhs_evals"], n[ir]), "count")

        sl, ls = "foliation.solve_level_nodes", "foliation.leaf_slice"
        m[sl + ".calls"] = (n[sl], "count")
        m[sl + ".self_s"] = (s[sl], "s")
        m[ls + ".self_s"] = (s[ls], "s")
        m["foliation.integrate_rays_per_leaf"] = (
            per(c["foliation.leaf_integrate_rays"], n[ls]), "count")
        m["foliation.rhs_evals_per_leaf"] = (
            per(c["foliation.leaf_rhs_evals"], n[ls]), "count")
        m["foliation.nodes_per_solve"] = (
            per(c["foliation.solve_nodes"], n[sl]), "count")
        m["foliation.structure_residuals.self_s"] = (
            s["foliation.structure_residuals"], "s")

        for name in ("mass.mass_of_leaf", "mass.hawking_mass",
                     "kgflat.evolve_kg", "kgflat.decay_report",
                     "kgflat.hyperboloid_energy",
                     "zscompare.cone_sphere_geometry",
                     "zscompare.radial_comparison_series",
                     "zscompare.transport_residuals_zs",
                     "nullgeom.null_decompose", "cli.foliate",
                     "cli.weyl-check", "cli.zs-compare", "cli.residuals",
                     "cli.write_csv", "kgflat.energy"):
            m[name + ".self_s"] = (s[name], "s")
        m["kgflat.cell_steps_computed"] = (c["kgflat.cell_steps"], "count")
        m["kgflat.cell_steps_per_s"] = (
            per(c["kgflat.cell_steps"], s["kgflat.evolve_kg"]), "1/s")
        m["kgflat.energy.calls"] = (n["kgflat.energy"], "count")
        m["kgflat.hyperboloid_energy.nodes"] = (
            c["kgflat.hyperboloid_nodes"], "count")
        m["nullgeom.null_decompose.calls"] = (n["nullgeom.null_decompose"],
                                              "count")
        m["cli.bytes_written"] = (c["cli.bytes_written"], "count")
        return m


# -- hooks: span names and counters that need the call's arguments ---------

def _metric_before(tr, args, kwargs):
    level = _arg(args, kwargs, 2, "level", 2)
    tr.count[f"metric.l{level}.points"] += _points(_arg(args, kwargs, 1, "x"))
    if tr.active["geodesic.integrate_rays"]:
        tr.count["geodesic.metric_calls"] += 1
        if level >= 1:
            tr.count["geodesic.rhs_evals"] += 1
            if tr.active["foliation.leaf_slice"]:
                tr.count["foliation.leaf_rhs_evals"] += 1
    return f"metric.l{level}"


def _rays_before(tr, args, kwargs):
    tr.count["geodesic.rays"] += len(_arg(args, kwargs, 2, "directions"))
    if (_arg(args, kwargs, 6, "with_jacobi", False)
            or _arg(args, kwargs, 7, "with_k", False)):
        tr.count["geodesic.payload_calls"] += 1
    if tr.active["foliation.leaf_slice"]:
        tr.count["foliation.leaf_integrate_rays"] += 1
    return "geodesic.integrate_rays"


def _solve_before(tr, args, kwargs):
    tr.count["foliation.solve_nodes"] += len(_arg(args, kwargs, 4, "angles"))
    return "foliation.solve_level_nodes"


def _evolve_before(tr, args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    times = np.atleast_1d(_arg(args, kwargs, 1, "output_times"))
    dt = cfg.cfl * cfg.dr
    steps = max(int(round(t / dt)) for t in times)
    tr.count["kgflat.cell_steps"] += int(round(cfg.r_max / cfg.dr)) * steps
    return "kgflat.evolve_kg"


def _hyperboloid_after(tr, args, kwargs, result):
    tr.count["kgflat.hyperboloid_nodes"] += result["n_nodes"]


def _csv_after(tr, args, kwargs, result):
    tr.count["cli.bytes_written"] += Path(args[0]).stat().st_size


def _meta_after(tr, args, kwargs, result):
    meta = Path(args[0]).with_suffix(".meta.json")
    tr.count["cli.bytes_written"] += meta.stat().st_size


_HOOKS = {
    "metric.metric_at": (_metric_before, None),
    "geodesic.integrate_rays": (_rays_before, None),
    "foliation.solve_level_nodes": (_solve_before, None),
    "kgflat.evolve_kg": (_evolve_before, None),
    "kgflat.hyperboloid_energy": (None, _hyperboloid_after),
    "cli.write_csv": (None, _csv_after),
    "cli.write_meta": (None, _meta_after),
}
