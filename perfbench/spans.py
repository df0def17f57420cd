"""In-memory span tracing of rollgeo's layers, installed from outside.

The tracer wraps public functions of each module and rebinds every name
that refers to them in every loaded ``rollgeo`` module, so calls made
through ``from .geometry import christoffel`` are seen too.  Each call
records a span (name, start, end, parent).  Nothing is changed inside the
library's source; ``uninstall`` restores the original objects.

Two numbers are taken at the integrator boundary: ``solve_ivp`` as
imported by ``rollgeo.integrate`` is wrapped to sum its ``nfev`` and
accepted steps, and the right-hand side handed to it is wrapped in an
``integrate.rhs`` span.  The two RHS totals are reached independently and
must agree.
"""

from __future__ import annotations

import gzip
import importlib
import pathlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("rollgeo.geometry", "christoffel", "geometry.christoffel"),
    ("rollgeo.geometry", "cholesky_frame", "geometry.cholesky_frame"),
    ("rollgeo.geometry", "cholesky_frame_deriv", "geometry.cholesky_frame_deriv"),
    ("rollgeo.geometry", "riemann", "geometry.riemann"),
    ("rollgeo.geometry", "gauss_curvature", "geometry.gauss_curvature"),
    ("rollgeo.transport", "gamma_contract", "transport.gamma_contract"),
    ("rollgeo.integrate", "integrate", "integrate.integrate"),
    ("rollgeo.submersion", "lifted_hamiltonian_flow", "submersion.lifted_hamiltonian_flow"),
    ("rollgeo.submersion", "projected_force_flow", "submersion.projected_force_flow"),
    ("rollgeo.rolling", "develop", "rolling.develop"),
    ("rollgeo.rolling", "noslip_notwist_residual", "rolling.noslip_notwist_residual"),
    ("rollgeo.rolling", "so_projection", "rolling.so_projection"),
    ("rollgeo.geodesics", "geodesic_rhs", "geodesics.geodesic_rhs"),
    ("rollgeo.geodesics", "curvature_forms_along", "geodesics.curvature_forms_along"),
    ("rollgeo.geodesics", "integrate_geodesic", "geodesics.integrate_geodesic"),
    ("rollgeo.geodesics", "reduce_2d", "geodesics.reduce_2d"),
    ("rollgeo.geodesics", "rn_rolling_flow", "geodesics.rn_rolling_flow"),
    ("rollgeo.geodesics", "vtilde_symmetry_check", "geodesics.vtilde_symmetry_check"),
    ("rollgeo.geodesics", "charge_monitor", "geodesics.charge_monitor"),
    ("rollgeo.geodesics", "pendulum_residual", "geodesics.pendulum_residual"),
    ("rollgeo.shooting", "solve", "shooting.solve"),
    ("rollgeo.shooting", "_residual_vector", "shooting.shot"),
    ("rollgeo.suites", "execute_scenario", "suites.execute_scenario"),
)

# (module, class, method, span name) for methods.
METHODS = (
    ("rollgeo.charts", "ChartMetric", "metric", "charts.metric"),
    ("rollgeo.submersion", "SubmersionTestbed", "coefficients", "submersion.coefficients"),
    ("rollgeo.submersion", "SubmersionTestbed", "coefficient_derivs",
     "submersion.coefficient_derivs"),
    ("rollgeo.integrate", "Trajectory", "sample", "integrate.sample"),
)

CHECK_SPANS = ("geodesics.vtilde_symmetry_check", "geodesics.charge_monitor",
               "geodesics.pendulum_residual")


class Tracer:
    """Span recorder plus the counters read from return values."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` updates counters."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "rollgeo" and not modname.startswith("rollgeo."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        counters = self.counters

        def count_points(result, args):
            counters["integrate.sample.points"] += len(np.atleast_1d(args[1]))

        def note_reprojection(result, args):
            counters["integrate.max_reprojection"] = max(
                counters["integrate.max_reprojection"],
                float(result.meta.get("max_reprojection", 0.0)))

        def count_iterations(result, args):
            counters["shooting.iterations"] += result.iterations

        hooks = {"integrate.integrate": note_reprojection,
                 "shooting.solve": count_iterations,
                 "integrate.sample": count_points}
        for modname, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            self._rebind(original, self.wrap(name, original, hooks.get(name)))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))

        integ = importlib.import_module("rollgeo.integrate")
        original_solve_ivp = integ.solve_ivp
        wrap = self.wrap

        def count_steps(res, args):
            counters["integrate.chunks"] += 1
            counters["integrate.steps"] += len(res.t) - 1
            counters["integrate.rhs_evals"] += res.nfev

        def solve_ivp(fun, *args, **kwargs):
            return original_solve_ivp(wrap("integrate.rhs", fun), *args, **kwargs)

        self._patches.append((integ, "solve_ivp", original_solve_ivp))
        integ.solve_ivp = self.wrap("integrate.solve_ivp", solve_ivp, count_steps)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def totals(self) -> dict:
        """Per-name calls, inclusive and self seconds of the recorded spans."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        nid = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(arr))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        excl = np.bincount(nid, weights=own, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def write(self, path: pathlib.Path) -> None:
        """Write the recorded spans as gzipped CSV: name,start,end,parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced round, and any cross-check problems."""
    tot = tracer.totals()
    cnt = tracer.counters

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    steps = cnt["integrate.steps"]
    shots = calls("shooting.shot")
    iterations = cnt["shooting.iterations"]
    m = {
        "charts.metric.calls": calls("charts.metric"),
        "charts.metric.self_s": own("charts.metric"),
        "geometry.christoffel.calls": calls("geometry.christoffel"),
        "geometry.christoffel.self_s": own("geometry.christoffel"),
        "geometry.cholesky_frame.calls": calls("geometry.cholesky_frame"),
        "geometry.cholesky_frame_deriv.calls": calls("geometry.cholesky_frame_deriv"),
        "geometry.riemann.calls": calls("geometry.riemann"),
        "geometry.gauss_curvature.calls": calls("geometry.gauss_curvature"),
        "transport.gamma_contract.calls": calls("transport.gamma_contract"),
        "integrate.chunks": int(cnt["integrate.chunks"]),
        "integrate.steps": int(steps),
        "integrate.rhs_evals": int(cnt["integrate.rhs_evals"]),
        "integrate.rhs_evals_per_step": cnt["integrate.rhs_evals"] / steps if steps else 0.0,
        "integrate.stepper_self_s": own("integrate.solve_ivp"),
        "integrate.sample.points": int(cnt["integrate.sample.points"]),
        "integrate.sample.self_s": own("integrate.sample"),
        "integrate.max_reprojection": cnt["integrate.max_reprojection"],
        "submersion.coefficients.calls": calls("submersion.coefficients"),
        "submersion.coefficients.self_s": own("submersion.coefficients"),
        "submersion.coefficient_derivs.calls": calls("submersion.coefficient_derivs"),
        "submersion.coefficient_derivs.self_s": own("submersion.coefficient_derivs"),
        "submersion.lifted_hamiltonian_flow.s": incl("submersion.lifted_hamiltonian_flow"),
        "submersion.projected_force_flow.s": incl("submersion.projected_force_flow"),
        "rolling.develop.s": incl("rolling.develop"),
        "rolling.noslip_notwist_residual.s": incl("rolling.noslip_notwist_residual"),
        "rolling.so_projection.calls": calls("rolling.so_projection"),
        "geodesics.geodesic_rhs.calls": calls("geodesics.geodesic_rhs"),
        "geodesics.geodesic_rhs.self_s": own("geodesics.geodesic_rhs"),
        "geodesics.curvature_forms_along.calls": calls("geodesics.curvature_forms_along"),
        "geodesics.integrate_geodesic.s": incl("geodesics.integrate_geodesic"),
        "geodesics.reduce_2d.s": incl("geodesics.reduce_2d"),
        "geodesics.rn_rolling_flow.s": incl("geodesics.rn_rolling_flow"),
        "geodesics.checks.s": sum(incl(n) for n in CHECK_SPANS),
        "shooting.solve.s": incl("shooting.solve"),
        "shooting.shots": shots,
        "shooting.iterations": int(iterations),
        "shooting.shots_per_iteration": shots / iterations if iterations else 0.0,
        "suites.execute_scenario.self_s": own("suites.execute_scenario"),
        "cli.run.self_s": own("cli.run"),
    }
    problems = []
    if calls("integrate.rhs") != cnt["integrate.rhs_evals"]:
        problems.append(f"RHS calls seen by the wrapper ({calls('integrate.rhs')}) differ "
                        f"from the sum of solve_ivp nfev ({int(cnt['integrate.rhs_evals'])})")
    return m, problems
