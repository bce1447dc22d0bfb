"""Span tracing of hamorbit from outside the package.

:func:`instrument` replaces every binding of the traced functions and
methods, in every loaded ``hamorbit`` module and class, with a wrapper that
records one span per call: its name, start, end and parent (the span open
when it was called).  Names bound in several modules, such as
``scaling_root`` in ``functional`` and ``solvers``, get the same wrapper
everywhere, and the parent span tells the callers apart.  Leaving the
``with`` block puts every original object back.

Spans live in flat arrays while the traced pass runs; :func:`layer_metrics`
turns them into per-layer counts, inclusive times and self times.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (span name, owner, attribute); an owner is a module or class path inside
# the package.  The layer of a span is the part of its name before the dot.
TRACED = (
    ("potentials.value", "potentials.PowerLawPotential", "value"),
    ("potentials.value", "potentials.ExpressionPotential", "value"),
    ("potentials.gradient", "potentials.PowerLawPotential", "gradient"),
    ("potentials.gradient", "potentials.ExpressionPotential", "gradient"),
    ("potentials.hessian_ray", "potentials", "hessian_ray"),
    ("potentials.parse_potential", "potentials", "parse_potential"),
    ("expressions.evaluate", "expressions", "evaluate"),
    ("expressions.evaluate_gradient", "expressions", "evaluate_gradient"),
    ("expressions.parse_expression", "expressions", "parse_expression"),
    ("functional.action", "functional", "action"),
    ("functional.action_gradient", "functional", "action_gradient"),
    ("functional.constraint_value", "functional", "constraint_value"),
    ("functional.constraint_gradient", "functional", "constraint_gradient"),
    ("functional.scaling_root", "functional", "scaling_root"),
    ("functional.constraint_distance", "functional", "constraint_distance"),
    ("functional.cps_append", "functional", "cps_append"),
    ("loopspace.sobolev_precondition", "loopspace", "sobolev_precondition"),
    ("loopspace.project_symmetric", "loopspace", "project_symmetric"),
    ("loopspace.symmetry_defect", "loopspace", "symmetry_defect"),
    ("loopspace.random_loop", "loopspace", "random_loop"),
    ("loopspace.circle_loop", "loopspace", "circle_loop"),
    ("solvers.minimize_on_nehari", "solvers", "minimize_on_nehari"),
    ("solvers.mountain_pass", "solvers", "mountain_pass"),
    ("solvers.build_endpoint", "solvers", "build_endpoint"),
    ("solvers.separation_check", "solvers", "separation_check"),
    ("solvers.segment_max", "solvers._PathMax", "segment_max"),
    ("solvers.refresh", "solvers._PathMax", "refresh"),
    ("solvers.redistribute", "solvers", "_redistribute"),
    ("orbit.synthesize", "orbit", "synthesize"),
    ("orbit.orbit_period", "orbit", "orbit_period"),
    ("orbit.orbit_residuals", "orbit", "orbit_residuals"),
    ("orbit.closure_gap", "orbit", "closure_gap"),
    ("reportio.render_report", "reportio", "render_report"),
    ("reportio.write_orbit_table", "reportio", "write_orbit_table"),
    ("reportio.read_orbit_table", "reportio", "read_orbit_table"),
    ("cli.main", "cli", "main"),
    ("cli.cmd_solve", "cli", "cmd_solve"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
    ("cli.make_potential", "cli", "make_potential"),
)

LAYERS = ("potentials", "expressions", "functional", "loopspace", "solvers",
          "orbit", "reportio", "cli")


def _points(args, kwargs):
    """Points in the batch passed to a potential entry point (q is last)."""
    q = kwargs["q"] if "q" in kwargs else args[-1]
    shape = np.shape(q)
    return 1 if len(shape) == 1 else shape[0]


def _steps(args, kwargs):
    """Integrator steps of a closure_gap call (its default is 2048)."""
    if "steps" in kwargs:
        return kwargs["steps"]
    return args[4] if len(args) > 4 else 2048


SIZES = {
    "potentials.value": _points,
    "potentials.gradient": _points,
    "potentials.hessian_ray": _points,
    "orbit.closure_gap": _steps,
}


class Tracer:
    """Records spans of one traced pass in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        sid = self.ids[name]
        size = SIZES.get(name)
        clock = time.perf_counter
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(sid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.size.append(size(args, kwargs) if size else 0)
            self.end.append(0.0)
            open_spans.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                open_spans.pop()

        return traced


def _package_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if (name == "hamorbit" or name.startswith("hamorbit.")) and mod is not None}


def _resolve(owner: str):
    obj = sys.modules["hamorbit." + owner.split(".")[0]]
    for part in owner.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def snapshot() -> dict:
    """Identity of every attribute of every loaded hamorbit module and of
    every class those modules define, keyed by (owner, attribute)."""
    out = {}
    for mname, mod in _package_modules().items():
        for attr, val in vars(mod).items():
            out[(mname, attr)] = id(val)
            if isinstance(val, type) and val.__module__ == mname:
                for cattr, cval in vars(val).items():
                    out[(f"{mname}.{val.__qualname__}", cattr)] = id(cval)
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on every binding of the TRACED objects, and
    restore the original objects on exit, even when the body raises."""
    import hamorbit.cli  # noqa: F401  (loads every module of the package)

    modules = _package_modules()
    patched = []  # (owner, attribute, original)
    try:
        for name, owner, attr in TRACED:
            holder = _resolve(owner)
            original = vars(holder)[attr]
            wrapper = tracer.wrap(name, original)
            if isinstance(holder, type):
                patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)
                continue
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)


def layer_metrics(tracer: Tracer, iterations: int, traced_wall_s: float) -> dict:
    """Per-layer counts, inclusive times and self times of a traced pass.

    ``iterations`` is the pass's total of solver iterations and sweeps, read
    from the reports; ``traced_wall_s`` is the benchmark's own timing of the
    traced CLI calls, against which the self times are accounted.
    """
    names = np.array(tracer.names + [""])
    sid = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    size = np.frombuffer(tracer.size, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
    parent_sid = np.where(has_parent, sid[np.maximum(parent, 0)], len(names) - 1)
    span_name = names[sid]
    span_layer = np.array([n.split(".")[0] for n in names])[sid]

    def mask(name):
        return span_name == name

    def calls(name):
        return int(mask(name).sum())

    def total(name, values=dur):
        return float(values[mask(name)].sum())

    def points(name):
        return int(size[mask(name)].sum())

    def ratio(num, den):
        return float(num) / den if den else 0.0

    # Spans inside a cps_append call: diagnostics, not descent.  A parent is
    # recorded before its children, so one forward sweep marks them all.
    under_cps = mask("functional.cps_append").tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and under_cps[p]:
            under_cps[i] = True
    under_cps = np.array(under_cps, dtype=bool)

    roots = mask("functional.scaling_root")
    root_id = tracer.ids.get("functional.scaling_root", -1)
    value_calls = calls("potentials.value")
    gradient_calls = calls("potentials.gradient")
    pot_points = points("potentials.value") + points("potentials.gradient") \
        + points("potentials.hessian_ray")
    pot_calls = value_calls + gradient_calls + calls("potentials.hessian_ray")
    trials = calls("loopspace.symmetry_defect")  # one per line-search trial
    steps = points("orbit.closure_gap")

    m = {
        "potentials.value.calls": value_calls,
        "potentials.value.points": points("potentials.value"),
        "potentials.gradient.calls": gradient_calls,
        "potentials.gradient.points": points("potentials.gradient"),
        "potentials.hessian_ray.points": points("potentials.hessian_ray"),
        "potentials.points": pot_points,
        "potentials.points_per_call": ratio(pot_points, pot_calls),
        "expressions.evaluate.s": total("expressions.evaluate"),
        "expressions.evaluate_gradient.s": total("expressions.evaluate_gradient"),
        "functional.scaling_root.calls": int(roots.sum()),
        "functional.scaling_root.s": total("functional.scaling_root"),
        "functional.scaling_root.cps_s": float(dur[roots & under_cps].sum()),
        "functional.constraint_value.calls": calls("functional.constraint_value"),
        "functional.constraint_evals_per_root": ratio(
            int((mask("functional.constraint_value") & (parent_sid == root_id)).sum()),
            int(roots.sum())),
        "functional.action.calls": calls("functional.action"),
        "functional.action_gradient.calls": calls("functional.action_gradient"),
        "functional.action_gradient.s": total("functional.action_gradient"),
        "functional.action_gradient.calls_per_iteration": ratio(
            calls("functional.action_gradient"), iterations),
        "functional.constraint_gradient.calls": calls("functional.constraint_gradient"),
        "functional.cps_append.s": total("functional.cps_append"),
        "loopspace.sobolev_precondition.calls": calls("loopspace.sobolev_precondition"),
        "loopspace.sobolev_precondition.s": total("loopspace.sobolev_precondition"),
        "loopspace.project_symmetric.calls": calls("loopspace.project_symmetric"),
        "solvers.minimize_on_nehari.self_s": total("solvers.minimize_on_nehari", self_time),
        "solvers.mountain_pass.self_s": total("solvers.mountain_pass", self_time),
        "solvers.line_search.trials": trials,
        "solvers.line_search.accept_ratio": ratio(iterations, trials),
        "solvers.segment_max.calls": calls("solvers.segment_max"),
        "solvers.segment_max.s": total("solvers.segment_max"),
        "solvers.refresh.calls": calls("solvers.refresh"),
        "solvers.redistribute.s": total("solvers.redistribute"),
        "orbit.synthesize.s": total("orbit.synthesize"),
        "orbit.closure_gap.s": total("orbit.closure_gap"),
        "orbit.closure_gap.steps": steps,
        "orbit.closure_gap.s_per_step": ratio(total("orbit.closure_gap"), steps),
        "orbit.orbit_residuals.s": total("orbit.orbit_residuals"),
        "reportio.render_report.s": total("reportio.render_report"),
        "reportio.write_orbit_table.s": total("reportio.write_orbit_table"),
        "reportio.read_orbit_table.s": total("reportio.read_orbit_table"),
    }
    accounted = 0.0
    for layer in LAYERS:
        layer_self = float(self_time[span_layer == layer].sum())
        m[f"{layer}.self_s"] = layer_self
        accounted += layer_self
    m["trace.spans"] = len(sid)
    m["trace.wall_s"] = traced_wall_s
    m["trace.remainder_s"] = traced_wall_s - accounted
    return m
