"""Scenario catalog, scenario execution, and verification suites.

A scenario is a plain JSON-able dict describing one experiment: which
charts or testbed to use, the initial data, the horizon, and the
tolerances for the monitored invariants.  The built-in catalog covers
each scenario kind; ``execute_scenario`` runs one and returns a summary
record plus a trajectory table ready for CSV export.  Verification
suites bundle related scenario checks under a single name.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

from . import charts as chart_catalog
from . import submersion
from .geodesics import (
    E2,
    RHO_FLOOR,
    Pendulum2DState,
    RollingGeodesicState,
    charge_monitor,
    flow_residual,
    integrate_geodesic,
    pendulum_constants,
    pendulum_residual,
    reduce_2d,
    rn_layout,
    rn_rolling_flow,
    vtilde_symmetry_check,
)
from .errors import RollgeoError
from .geometry import gauss_curvature
from .rolling import (
    RollingConfiguration,
    aligned_configuration,
    develop,
    develop_layout,
    noslip_notwist_residual,
)
from .shooting import ShootingProblem, endpoint_map, solve
from .submersion import (
    CotangentState,
    free_hamiltonian,
    kinetic_hamiltonian,
    verify_projection,
)

ARTIFACT_VERSION = "0.1.0"

KINDS = ("verify-lift", "develop", "geodesic", "pendulum-2d", "rn-roll", "bvp")


class ScenarioError(ValueError):
    """A scenario dict fails schema or referential validation."""


# ---------------------------------------------------------------------------
# Built-in catalog

SCENARIOS: dict[str, dict] = {
    "heisenberg-lift": {
        "kind": "verify-lift",
        "testbed": "heisenberg",
        "hamiltonian": "free",
        "initial": {"x": [0.3, -0.2], "y": [0.1], "a": [0.4, 0.7], "b": [0.5]},
        "T": 5.0,
        "tol": 1e-9,
        "thresholds": {"sup_error": 1e-6},
    },
    "frame-bundle-lift": {
        "kind": "verify-lift",
        "testbed": "frame-bundle(sphere(1),euclidean(2))",
        "hamiltonian": "free",
        "initial": {
            "x": [1.5707963267948966, 0.0],
            "y": [0.0, 0.0, 0.0, 0.0],
            "a": [0.12, 0.15],
            "b": [0.1, 0.05, 0.02, 0.03],
        },
        "T": 5.0,
        "tol": 1e-9,
        "thresholds": {"sup_error": 1e-6},
    },
    "sphere-on-plane-geodesic": {
        "kind": "geodesic",
        "chart": "sphere(1)",
        "chart_hat": "euclidean(2)",
        "x": [1.5707963267948966, 0.0],
        "xhat": [0.0, 0.0],
        "u": [0.0, 1.0],
        "v": [0.05, 0.02],
        "ell": 0.1,
        "T": 10.0,
        "tol": 1e-9,
        "thresholds": {"speed_drift": 1e-8, "flow_residual": 1e-6,
                       "aux_symmetry": 1e-7, "charge_error": 1e-6},
    },
    "paraboloid-on-plane-geodesic": {
        "kind": "geodesic",
        "chart": "paraboloid(1)",
        "chart_hat": "euclidean(2)",
        "x": [0.4, 0.1],
        "xhat": [0.0, 0.0],
        "u": [0.6, 0.8],
        "v": [0.1, -0.05],
        "ell": 0.15,
        "T": 10.0,
        "tol": 1e-9,
        "thresholds": {"speed_drift": 1e-8, "flow_residual": 1e-6,
                       "aux_symmetry": 1e-7, "charge_error": 1e-6},
    },
    "hyperbolic-on-plane-geodesic": {
        "kind": "geodesic",
        "chart": "hyperbolic-disk(1)",
        "chart_hat": "euclidean(2)",
        "x": [0.05, -0.05],
        "xhat": [0.0, 0.0],
        "u": [0.2, -0.15],
        "v": [0.02, 0.04],
        "ell": 1.0,
        "T": 10.0,
        "tol": 1e-9,
        "thresholds": {"speed_drift": 1e-8, "flow_residual": 1e-6,
                       "aux_symmetry": 1e-7, "charge_error": 1e-6},
    },
    "sphere-on-sphere-geodesic": {
        "kind": "geodesic",
        "chart": "sphere(1)",
        "chart_hat": "sphere(2)",
        "x": [1.5707963267948966, 0.0],
        "xhat": [1.5707963267948966, 0.0],
        "u": [0.0, 1.0],
        "v": [0.02, 0.01],
        "ell": 0.05,
        "T": 10.0,
        "tol": 1e-9,
        "thresholds": {"speed_drift": 1e-8, "flow_residual": 1e-6,
                       "aux_symmetry": 1e-7},
    },
    "sphere-on-plane-pendulum": {
        "kind": "pendulum-2d",
        "chart": "sphere(1)",
        "chart_hat": "euclidean(2)",
        "x": [1.5707963267948966, 0.0],
        "xhat": [0.0, 0.0],
        "theta": 1.5707963267948966,
        "L": 0.1,
        "b1": 0.05,
        "b2": 0.02,
        "a": 1.0,
        "T": 10.0,
        "tol": 1e-9,
        "thresholds": {"pendulum_residual": 1e-6},
    },
    "paraboloid-on-plane-pendulum": {
        "kind": "pendulum-2d",
        "chart": "paraboloid(1)",
        "chart_hat": "euclidean(2)",
        "x": [0.4, 0.1],
        "xhat": [0.0, 0.0],
        "theta": 0.9,
        "L": 0.1,
        "b1": 0.05,
        "b2": -0.03,
        "a": 1.0,
        "T": 5.0,
        "tol": 1e-9,
        "thresholds": {"pendulum_residual": 1e-5},
    },
    "sphere-great-circle-develop": {
        "kind": "develop",
        "chart": "sphere(1)",
        "chart_hat": "euclidean(2)",
        "x": [1.5707963267948966, 0.0],
        "xhat": [0.0, 0.0],
        "direction": [0.0, 1.0],
        "T": 6.283185307179586,
        "tol": 1e-9,
        "thresholds": {"slip": 1e-8, "twist": 1e-8},
    },
    "paraboloid-magnetic-roll": {
        "kind": "rn-roll",
        "chart": "paraboloid(1)",
        "x": [0.4, 0.1],
        "u": [0.6, 0.8],
        "v": [0.1, -0.05],
        "ell": 0.2,
        "T": 5.0,
        "tol": 1e-9,
        "thresholds": {"form_agreement": 1e-7, "general_agreement": 1e-7},
    },
    "sphere-on-plane-bvp": {
        "kind": "bvp",
        "chart": "sphere(1)",
        "chart_hat": "euclidean(2)",
        "x": [1.5707963267948966, 0.0],
        "xhat": [0.0, 0.0],
        "true_params": [1.1, 0.15, -0.1, 0.25],
        "perturbation": 1e-2,
        "T": 2.0,
        "tol": 1e-9,
        "seed": 1,
        "thresholds": {"endpoint_residual": 1e-8},
    },
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def scenario_by_name(name: str) -> dict:
    if name not in SCENARIOS:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}")
    out = json.loads(json.dumps(SCENARIOS[name]))
    out["name"] = name
    return out


def scenario_hash(scenario: dict) -> str:
    blob = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Validation

_REQUIRED = {
    "verify-lift": ("testbed", "hamiltonian", "initial", "T"),
    "develop": ("chart", "chart_hat", "x", "xhat", "direction", "T"),
    "geodesic": ("chart", "chart_hat", "x", "xhat", "u", "v", "ell", "T"),
    "pendulum-2d": ("chart", "chart_hat", "x", "xhat", "theta", "L", "b1", "b2",
                    "a", "T"),
    "rn-roll": ("chart", "x", "u", "v", "ell", "T"),
    "bvp": ("chart", "chart_hat", "x", "xhat", "true_params", "perturbation",
            "T"),
}


def _all_finite(value) -> bool:
    if isinstance(value, bool):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return True


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Vector fields: the chart whose dimension gives their length, or the length.
_VECTORS = {"x": "chart", "xhat": "chart_hat", "u": "chart", "v": "chart",
            "direction": "chart", "true_params": 4}


def _check_vector(key: str, value, size: int) -> None:
    if not (isinstance(value, list) and all(_is_number(v) for v in value)):
        raise ScenarioError(f"field {key!r} must be a list of numbers, got {value!r}")
    if len(value) != size:
        raise ScenarioError(f"field {key!r} must have {size} entries, got {len(value)}")


# The kinds that roll surfaces only: their charge is the scalar L of lam = L E2.
_SURFACE_KINDS = ("geodesic", "pendulum-2d", "bvp")

_SCALARS = ("ell", "theta", "L", "b1", "b2", "a", "perturbation")


def _check_optional(scenario: dict) -> None:
    """The optional fields: the file stem ``name``, ``seed`` and ``thresholds``."""
    name = scenario.get("name", "scenario")
    if not (isinstance(name, str) and name and "\0" not in name
            and pathlib.PurePath(name).name == name):
        raise ScenarioError(f"field 'name' must be a file name without a directory, "
                            f"got {name!r}")
    seed = scenario.get("seed", 0)
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        raise ScenarioError(f"field 'seed' must be a non-negative integer, got {seed!r}")
    thresholds = scenario.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ScenarioError(f"field 'thresholds' must be a mapping of invariant names "
                            f"to numbers, got {thresholds!r}")
    for key, bound in thresholds.items():
        if not _is_number(bound):
            raise ScenarioError(f"field 'thresholds.{key}' must be a number, got {bound!r}")


def _check_lift(scenario: dict) -> None:
    """The testbed, Hamiltonian and initial covector of a ``verify-lift`` scenario."""
    try:
        tb = submersion.testbed_by_name(scenario["testbed"])
    except Exception as exc:
        raise ScenarioError(f"field 'testbed': {exc}") from exc
    ham = scenario["hamiltonian"]
    chart = None
    if ham != "free":
        try:
            chart = chart_catalog.chart_by_name(ham)
        except Exception as exc:
            raise ScenarioError(f"field 'hamiltonian' must be 'free' or a chart name: "
                                f"{exc}") from exc
        if chart.dim != tb.base_dim:
            raise ScenarioError(f"field 'hamiltonian': chart '{chart.label}' has dimension "
                                f"{chart.dim}, the testbed's base {tb.base_dim}")
    init = scenario["initial"]
    if not isinstance(init, dict):
        raise ScenarioError(f"field 'initial' must be a mapping of x, y, a and b, "
                            f"got {init!r}")
    for slot, size in (("x", tb.base_dim), ("y", tb.fiber_dim),
                       ("a", tb.base_dim), ("b", tb.fiber_dim)):
        if slot not in init:
            raise ScenarioError(f"kind 'verify-lift' requires field 'initial.{slot}'")
        _check_vector(f"initial.{slot}", init[slot], size)
    x, y = np.asarray(init["x"], float), np.asarray(init["y"], float)
    if tb.margin(x, y) <= 0:
        raise ScenarioError(f"field 'initial': point ({x}, {y}) outside the domain of "
                            f"testbed '{tb.label}'")
    try:
        tb.validate(x, y)
    except RollgeoError as exc:
        raise ScenarioError(f"field 'initial': {exc}") from exc
    if chart is not None:
        _check_start_point("initial.x", chart, x)


def _check_start_point(key: str, chart: chart_catalog.ChartMetric, x: np.ndarray) -> None:
    """A start point must lie inside its chart, where the metric is positive definite."""
    if chart.margin(x) <= 0:
        raise ScenarioError(f"field {key!r}: point {x} outside the domain of chart "
                            f"'{chart.label}'")
    try:
        chart.validate(x)
    except RollgeoError as exc:
        raise ScenarioError(f"field {key!r}: {exc}") from exc


def validate_scenario(scenario: dict) -> dict:
    """Schema and referential validation; returns the scenario unchanged."""
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a mapping")
    kind = scenario.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"field 'kind' must be one of {KINDS}, got {kind!r}")
    for key in _REQUIRED[kind]:
        if key not in scenario:
            raise ScenarioError(f"kind {kind!r} requires field {key!r}")
    for key, value in scenario.items():
        if not _all_finite(value):
            raise ScenarioError(f"field {key!r} contains a non-finite number")
    if not _is_number(scenario["T"]) or scenario["T"] == 0:
        raise ScenarioError(f"field 'T' must be a nonzero number, got {scenario['T']!r}")
    if "tol" in scenario and not (_is_number(scenario["tol"]) and scenario["tol"] > 0):
        raise ScenarioError(f"field 'tol' must be a positive number, got {scenario['tol']!r}")
    for key in _REQUIRED[kind]:
        if key in _SCALARS and not _is_number(scenario[key]):
            raise ScenarioError(f"field {key!r} must be a number, got {scenario[key]!r}")
    if kind == "bvp" and scenario["perturbation"] < 0:
        raise ScenarioError(f"field 'perturbation' must not be negative, "
                            f"got {scenario['perturbation']!r}")
    _check_optional(scenario)
    dims = {}
    for key in ("chart", "chart_hat"):
        if key in scenario:
            try:
                dims[key] = chart_catalog.chart_by_name(scenario[key]).dim
            except Exception as exc:
                raise ScenarioError(f"field {key!r}: {exc}") from exc
    if len(set(dims.values())) > 1:
        raise ScenarioError(f"fields 'chart' and 'chart_hat' must have the same dimension, "
                            f"got {dims['chart']} and {dims['chart_hat']}")
    if kind in _SURFACE_KINDS and dims["chart"] != 2:
        raise ScenarioError(f"field 'chart': kind {kind!r} rolls surfaces and needs a 2D "
                            f"chart, got dimension {dims['chart']}")
    for key in _REQUIRED[kind]:
        if key in _VECTORS:
            size = _VECTORS[key]
            _check_vector(key, scenario[key], dims[size] if isinstance(size, str) else size)
    for key, chart_key in (("x", "chart"), ("xhat", "chart_hat")):
        if key in _REQUIRED[kind]:
            _check_start_point(key, chart_catalog.chart_by_name(scenario[chart_key]),
                               np.asarray(scenario[key], float))
    if kind == "verify-lift":
        _check_lift(scenario)
    if kind == "pendulum-2d":
        chart = chart_catalog.chart_by_name(scenario["chart"])
        chart_hat = chart_catalog.chart_by_name(scenario["chart_hat"])
        gap = gauss_curvature(chart, np.asarray(scenario["x"], float)) - \
            gauss_curvature(chart_hat, np.asarray(scenario["xhat"], float))
        if abs(gap) < RHO_FLOOR:
            raise ScenarioError(
                "bracket-generating precondition violated: the Gaussian "
                "curvatures agree at the starting contact point, so the "
                "pendulum reduction is singular there")
    return scenario


# ---------------------------------------------------------------------------
# Execution

def _aligned_start(scenario: dict) -> RollingConfiguration:
    """The scenario's start configuration, with the canonical chart frames."""
    return aligned_configuration(chart_catalog.chart_by_name(scenario["chart"]),
                                 chart_catalog.chart_by_name(scenario["chart_hat"]),
                                 np.asarray(scenario["x"], float),
                                 np.asarray(scenario["xhat"], float))


def _geodesic_initial(scenario: dict) -> RollingGeodesicState:
    return RollingGeodesicState(cfg=_aligned_start(scenario),
                                u=np.asarray(scenario["u"], float),
                                v=np.asarray(scenario["v"], float),
                                lam=float(scenario["ell"]) * E2)


_GEODESIC_HEADER = ["t", "x1", "x2", "xhat1", "xhat2", "L01", "u1", "u2", "v1", "v2"]


def _geodesic_rows(ts, d: dict) -> list[list[float]]:
    """Table rows, in ``_GEODESIC_HEADER`` order, of surface geodesic states split at ``ts``."""
    return [[t, *x, *xhat, lam[0, 1], *u, *v]
            for t, x, xhat, lam, u, v in zip(ts, d["x"], d["xhat"], d["lam"], d["u"], d["v"])]


def _run_geodesic(scenario: dict, samples: int) -> tuple[dict, list[str], list[list[float]]]:
    s0 = _geodesic_initial(scenario)
    run = integrate_geodesic(s0, float(scenario["T"]), float(scenario["tol"]))
    ts = run.grid(samples)
    residual = flow_residual(run, ts)
    sym = vtilde_symmetry_check(run)
    invariants = {
        "speed_drift": run.speed_drift(),
        "flow_residual": float(residual.max()),
        "aux_symmetry": max(sym["charge"], sym["field"]),
    }
    if run.chart_hat.label.startswith("euclidean"):
        invariants["charge_error"] = charge_monitor(run)["sup_error"]

    header = _GEODESIC_HEADER + ["speed", "flow_residual"]
    d = run.split(run.traj.sample(ts))
    rows = [row + [float(np.linalg.norm(u)), r]
            for row, u, r in zip(_geodesic_rows(ts, d), d["u"], residual)]
    return {"invariants": invariants, "truncated": run.truncated}, header, rows


def _run_pendulum(scenario: dict, samples: int):
    s0 = Pendulum2DState(cfg=_aligned_start(scenario), theta=float(scenario["theta"]),
                         L=float(scenario["L"]), b1=float(scenario["b1"]),
                         b2=float(scenario["b2"]), a=float(scenario["a"]))
    run = reduce_2d(s0, float(scenario["T"]), float(scenario["tol"]))
    A, phi0 = pendulum_constants(run)
    invariants = {
        "pendulum_residual": pendulum_residual(run, A, phi0),
        "amplitude": A,
        "phase": phi0,
        "rho_singular": bool(run.traj.meta.get("rho_singular", False)),
    }
    ts = run.grid(samples)
    ch = run.channels(ts)
    header = ["t", "x1", "x2", "xhat1", "xhat2", "theta", "L", "b1", "b2",
              "C", "S", "F"]
    rows = [[t, *ch["x"][i], *ch["xhat"][i], ch["theta"][i], ch["L"][i],
             ch["b1"][i], ch["b2"][i], ch["C"][i], ch["S"][i], ch["F"][i]]
            for i, t in enumerate(ts)]
    return {"invariants": invariants, "truncated": run.truncated}, header, rows


def _run_develop(scenario: dict, samples: int):
    cfg = _aligned_start(scenario)
    direction = np.asarray(scenario["direction"], float)
    path = develop(cfg, lambda t: cfg.x + t * direction, lambda t: direction,
                   float(scenario["T"]), float(scenario["tol"]))
    res = noslip_notwist_residual(path)
    invariants = {"slip": res["slip"], "twist": res["twist"]}
    ts = path.grid(samples)
    n = path.dim
    header = (["t"] + [f"x{i+1}" for i in range(n)]
              + [f"xhat{i+1}" for i in range(n)]
              + [f"f{i+1}{j+1}" for i in range(n) for j in range(n)]
              + [f"fhat{i+1}{j+1}" for i in range(n) for j in range(n)])
    d = develop_layout(n).split(path.traj.sample(ts))
    rows = [[t, *path.curve(t), *xhat, *f.ravel(), *fhat.ravel()]
            for t, xhat, f, fhat in zip(ts, d["xhat"], d["f"], d["fhat"])]
    return {"invariants": invariants, "truncated": path.truncated}, header, rows


def _run_rn_roll(scenario: dict, samples: int):
    chart = chart_catalog.chart_by_name(scenario["chart"])
    x0 = np.asarray(scenario["x"], float)
    u0 = np.asarray(scenario["u"], float)
    v0 = np.asarray(scenario["v"], float)
    ell = float(scenario["ell"])
    T, tol = float(scenario["T"]), float(scenario["tol"])
    n = chart.dim
    cfg = aligned_configuration(chart, chart_catalog.euclidean(n), x0, np.zeros(n))
    lam0 = ell * E2 if n == 2 else np.zeros((n, n))
    tra = rn_rolling_flow(chart, x0, cfg.f, u0, v0, lam0, T, tol, form="a")
    trb = rn_rolling_flow(chart, x0, cfg.f, u0, v0, lam0, T, tol, form="b")
    gen = integrate_geodesic(
        RollingGeodesicState(cfg=cfg, u=u0, v=v0, lam=lam0), T, tol)
    t1 = min(tra.t1, trb.t1, gen.t1)
    ts = np.linspace(0.0, t1, samples)
    da, db = rn_layout(n).split(tra.sample(ts)), rn_layout(n).split(trb.sample(ts))
    xg = gen.split(gen.traj.sample(ts))["x"]
    invariants = {
        "form_agreement": float(np.abs(da["x"] - db["x"]).max()),
        "general_agreement": float(np.abs(da["x"] - xg).max()),
    }
    header = (["t"] + [f"x{i+1}" for i in range(n)]
              + [f"u{i+1}" for i in range(n)] + [f"w{i+1}" for i in range(n)])
    rows = [[t, *x, *u, *w] for t, x, u, w in zip(ts, da["x"], da["u"], da["w"])]
    truncated = tra.truncated or trb.truncated or gen.truncated
    return {"invariants": invariants, "truncated": truncated}, header, rows


def _run_verify_lift(scenario: dict, samples: int):
    tb = submersion.testbed_by_name(scenario["testbed"])
    ham = scenario["hamiltonian"]
    if ham == "free":
        H = free_hamiltonian(tb.base_dim)
    else:
        H = kinetic_hamiltonian(chart_catalog.chart_by_name(ham))
    init = scenario["initial"]
    s0 = CotangentState(x=init["x"], y=init["y"], a=init["a"], b=init["b"])
    # The check runs on at least 200 points; the table takes every
    # stride-th of its states, which lie on linspace(0, T, samples).
    stride = -(-199 // (samples - 1)) if samples > 1 else 1
    report = verify_projection(tb, H, s0, float(scenario["T"]), float(scenario["tol"]),
                               samples=max((samples - 1) * stride + 1, 200))
    invariants = {
        "sup_error": max(report["sup_error_lambda"], report["sup_error_beta"],
                         report["sup_error_lift"]),
        "sup_error_lambda": report["sup_error_lambda"],
        "sup_error_beta": report["sup_error_beta"],
        "sup_error_lift": report["sup_error_lift"],
        "energy_drift": report["energy_drift"],
    }
    n, nu = tb.base_dim, tb.fiber_dim
    header = (["t"] + [f"x{i+1}" for i in range(n)]
              + [f"y{i+1}" for i in range(nu)]
              + [f"a{i+1}" for i in range(n)] + [f"b{i+1}" for i in range(nu)])
    ts, lifted = report["ts"][::stride][:samples], report["lifted"]
    rows = [[t, *x, *y, *a, *b] for t, x, y, a, b in
            zip(ts, *(lifted[slot][::stride] for slot in "xyab"))]
    return {"invariants": invariants, "truncated": report["truncated"]}, header, rows


def _run_bvp(scenario: dict, samples: int):
    cfg0 = _aligned_start(scenario)
    true_p = np.asarray(scenario["true_params"], float)
    T, tol = float(scenario["T"]), float(scenario["tol"])
    target = endpoint_map(cfg0, true_p[0], true_p[1:3], true_p[3], T, tol=tol)
    prob = ShootingProblem(cfg0=cfg0, cfg1=target, T=T, integrator_tol=tol,
                           seed=int(scenario.get("seed", 0)))
    rng = np.random.default_rng(int(scenario.get("seed", 0)))
    scale = float(scenario["perturbation"])
    res = solve(prob, p0=true_p + rng.uniform(-scale, scale, size=4))
    invariants = {
        "endpoint_residual": res.residual,
        "iterations": res.iterations,
        "converged": res.status == "converged",
    }
    if res.run is None:
        return {"invariants": invariants, "truncated": True}, _GEODESIC_HEADER, []
    ts = res.run.grid(samples)
    rows = _geodesic_rows(ts, res.run.split(res.run.traj.sample(ts)))
    return {"invariants": invariants, "truncated": res.run.truncated}, _GEODESIC_HEADER, rows


_RUNNERS = {
    "geodesic": _run_geodesic,
    "pendulum-2d": _run_pendulum,
    "develop": _run_develop,
    "rn-roll": _run_rn_roll,
    "verify-lift": _run_verify_lift,
    "bvp": _run_bvp,
}


def execute_scenario(scenario: dict, samples: int = 200) -> dict:
    """Validate and run one scenario; return the summary record.

    The record carries the measured invariants, the pass/fail verdict
    against the scenario thresholds, the trajectory table (header plus
    rows), and provenance fields (artifact version and scenario hash).
    """
    validate_scenario(scenario)
    result, header, rows = _RUNNERS[scenario["kind"]](scenario, samples)
    thresholds = scenario.get("thresholds", {})
    violations = {
        key: {"value": result["invariants"][key], "threshold": bound}
        for key, bound in thresholds.items()
        if key in result["invariants"]
        and not (result["invariants"][key] <= bound)
    }
    if scenario["kind"] == "bvp" and not result["invariants"].get("converged", True):
        violations["converged"] = {"value": False, "threshold": True}
    if result["truncated"]:
        status = "truncated"
    elif violations:
        status = "invariant-violation"
    else:
        status = "ok"
    return {
        "artifact_version": ARTIFACT_VERSION,
        "scenario": scenario,
        "scenario_sha256": scenario_hash(scenario),
        "kind": scenario["kind"],
        "tolerances": {"integrator": scenario.get("tol", 1e-9), **thresholds},
        "invariants": result["invariants"],
        "violations": violations,
        "status": status,
        "samples": len(rows),
        "table": {"header": header, "rows": rows},
    }


# ---------------------------------------------------------------------------
# Verification suites

def _suite_projection(tol: float | None) -> list[dict]:
    cases = []
    for name in ("heisenberg-lift", "frame-bundle-lift"):
        scenario = scenario_by_name(name)
        if tol is not None:
            scenario["tol"] = tol
        summary = execute_scenario(scenario, samples=50)
        inv = summary["invariants"]
        bound = scenario["thresholds"]["sup_error"]
        cases.append({
            "name": name,
            "sup_error_lambda": inv["sup_error_lambda"],
            "sup_error_beta": inv["sup_error_beta"],
            "sup_error_lift": inv["sup_error_lift"],
            "threshold": bound,
            "passed": summary["status"] == "ok",
        })
    return cases


def _suite_first_integrals(tol: float | None) -> list[dict]:
    cases = []
    for name in scenario_names():
        scenario = scenario_by_name(name)
        if scenario["kind"] != "geodesic":
            continue
        if tol is not None:
            scenario["tol"] = tol
        validate_scenario(scenario)
        run = integrate_geodesic(_geodesic_initial(scenario),
                                 float(scenario["T"]),
                                 float(scenario["tol"]))
        drift = run.speed_drift()
        cases.append({
            "name": name,
            "speed_drift": drift,
            "threshold": 1e-8,
            "passed": bool(drift <= 1e-8 and not run.truncated),
        })
    return cases


SUITES = {
    "theorem-2-4": _suite_projection,
    "first-integrals": _suite_first_integrals,
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, tol: float | None = None) -> dict:
    """Run a named verification suite and return its report."""
    if name not in SUITES:
        raise ScenarioError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    cases = SUITES[name](tol)
    return {
        "suite": name,
        "artifact_version": ARTIFACT_VERSION,
        "cases": cases,
        "passed": all(c["passed"] for c in cases),
    }
