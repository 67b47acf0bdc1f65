"""Spans recorded around flagricci's layer boundaries, from outside the library.

A `Tracer` wraps the public functions of each layer (and the two private
ones other modules call by name: the batch stepper and the planar
Lyapunov evaluation).  Every call becomes a span with a name, start, end
and parent; counters taken at the same boundaries (points per kernel
call, Newton seeds, orbit samples, SVG bytes) sit next to them.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, class or None, span name); a span's layer is the
# part of its name before the first dot
TARGETS = (
    ("flagricci.flowgen", "projected_field", None, "flowgen.projected_field"),
    ("flagricci.flowgen", "rhs", "ProjectedField", "flowgen.rhs"),
    ("flagricci.flowgen", "jacobian", "ProjectedField", "flowgen.jacobian"),
    ("flagricci.flowgen", "lyapunov_planar", None, "flowgen.lyapunov"),
    ("flagricci.polyalg", "eval", "Poly", "polyalg.eval"),
    ("flagricci.equilibria", "find_equilibria", None, "equilibria.find_equilibria"),
    ("flagricci.equilibria", "verify_catalog", None, "equilibria.verify_catalog"),
    ("flagricci.dynamics", "basin_map", None, "dynamics.basin_map"),
    ("flagricci.dynamics", "separatrices", None, "dynamics.separatrices"),
    ("flagricci.dynamics", "integrate_orbit", None, "dynamics.integrate_orbit"),
    ("flagricci.dynamics", "_integrate_batch", None, "dynamics.integrate_batch"),
    ("flagricci.render", "basins_svg", None, "render.basins_svg"),
    ("flagricci.render", "portrait_svg", None, "render.portrait_svg"),
    ("flagricci.cli", "main", None, "cli.main"),
)


def _points(args, kwargs) -> int:
    pts = args[1] if len(args) > 1 else kwargs["points"]
    return getattr(pts, "size", 0) // 2


def _count_result(counters, name, args, kwargs, result) -> None:
    """Counters taken where the work happens, keyed by span name."""
    if name in ("flowgen.rhs", "flowgen.jacobian"):
        counters[name + ".points"] += _points(args, kwargs)
    elif name == "equilibria.find_equilibria":
        counters["equilibria.seeds_tried"] += result.seeds_tried
        counters["equilibria.seeds_converged"] += result.seeds_converged
        counters["equilibria.found"] += len(result)
    elif name == "dynamics.integrate_orbit":
        counters["dynamics.orbit_steps"] += len(result.samples) - 1
    elif name == "dynamics.basin_map":
        labels = [lab for row in result.labels for lab in row if lab is not None]
        counters["dynamics.cells"] += len(labels)
        counters["dynamics.undetermined"] += labels.count("Undetermined")
    elif name in ("render.basins_svg", "render.portrait_svg"):
        counters["render.svg_bytes"] += len(result.encode())


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id: list = array("i")
        self.parent: list = array("i")
        self.start: list = array("d")
        self.end: list = array("d")
        self.counters: dict = defaultdict(float)
        self._stack = [-1]
        self._patched: list = []

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            counters[name + ".calls"] += 1
            _count_result(counters, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each target inside the flagricci modules."""
        mods = [m for n, m in sys.modules.items() if n == "flagricci" or n.startswith("flagricci.")]
        for modname, attr, clsname, name in TARGETS:
            owner = sys.modules[modname]
            if clsname is not None:
                cls = getattr(owner, clsname)
                orig = cls.__dict__[attr]
                self._patched.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, name))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    def spans(self) -> tuple:
        names = [self.names[i] for i in self.name_id]
        return names, list(self.parent), list(self.start), list(self.end)


def self_times(parent, start, end) -> list:
    """Each span's duration minus the part of it that its children cover.

    Spans are indexed in start order, so a parent precedes its children
    and each parent's children arrive sorted by start; overlapping or
    overhanging children are merged and clipped to the parent.
    """
    n = len(parent)
    covered = [0.0] * n
    reach = list(start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def within(names, parent, ancestor: str) -> list:
    """Per span: whether a span named `ancestor` encloses it."""
    inside = [False] * len(names)
    for i, p in enumerate(parent):
        if p >= 0:
            inside[i] = inside[p] or names[p] == ancestor
    return inside


def layer_metrics(names, parent, start, end, counters) -> dict:
    """Per-layer figures from spans and counters."""
    selfs = self_times(parent, start, end)
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    for nm, s, e, st in zip(names, start, end, selfs):
        total[nm] += e - s
        self_by_name[nm] += st
        self_by_layer[nm.split(".", 1)[0]] += st
    in_orbit = within(names, parent, "dynamics.integrate_orbit")
    orbit_rhs = sum(1 for nm, io in zip(names, in_orbit) if io and nm == "flowgen.rhs")

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters
    rhs_calls, rhs_pts = c["flowgen.rhs.calls"], c["flowgen.rhs.points"]
    jac_calls, jac_pts = c["flowgen.jacobian.calls"], c["flowgen.jacobian.points"]
    lyap_calls = c["flowgen.lyapunov.calls"]
    out = {
        "flowgen.rhs_calls": (rhs_calls, "count"),
        "flowgen.rhs_points": (rhs_pts, "points"),
        "flowgen.jacobian_calls": (jac_calls, "count"),
        "flowgen.lyapunov_calls": (lyap_calls, "count"),
        "flowgen.derive_s": (total["flowgen.projected_field"], "s"),
        "polyalg.eval_calls": (c["polyalg.eval.calls"], "count"),
        "polyalg.eval_s": (total["polyalg.eval"], "s"),
        "equilibria.find_s": (total["equilibria.find_equilibria"], "s"),
        "equilibria.self_s": (self_by_layer["equilibria"], "s"),
        "equilibria.seeds_tried": (c["equilibria.seeds_tried"], "count"),
        "equilibria.seeds_converged": (c["equilibria.seeds_converged"], "count"),
        "equilibria.found": (c["equilibria.found"], "count"),
        "dynamics.self_s": (self_by_layer["dynamics"], "s"),
        "dynamics.integrate_orbit_calls": (c["dynamics.integrate_orbit.calls"], "count"),
        "dynamics.orbit_steps": (c["dynamics.orbit_steps"], "count"),
        "render.basins_svg_s": (total["render.basins_svg"], "s"),
        "render.portrait_self_s": (self_by_name["render.portrait_svg"], "s"),
        "render.svg_bytes": (c["render.svg_bytes"], "bytes"),
        "cli.self_s": (self_by_layer["cli"], "s"),
        "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
    }
    out.update(
        {
            "flowgen.rhs_mean_batch": (ratio(rhs_pts, rhs_calls), "points"),
            "flowgen.rhs_ns_per_point": (ratio(total["flowgen.rhs"], rhs_pts) * 1e9, "ns"),
            "flowgen.jacobian_ns_per_point": (ratio(total["flowgen.jacobian"], jac_pts) * 1e9, "ns"),
            "flowgen.lyapunov_us_per_call": (ratio(total["flowgen.lyapunov"], lyap_calls) * 1e6, "us"),
            "dynamics.rhs_calls_per_step": (ratio(orbit_rhs, c["dynamics.orbit_steps"]), "ratio"),
            "dynamics.undetermined_frac": (
                ratio(c["dynamics.undetermined"], c["dynamics.cells"]),
                "ratio",
            ),
            "equilibria.converged_ratio": (
                ratio(c["equilibria.seeds_converged"], c["equilibria.seeds_tried"]),
                "ratio",
            ),
        }
    )
    return out
