"""Scenario generation for the three benchmark workloads.

Every operation is one ``rollgeo run <file>``; this module writes the
scenario files and returns the operation list.  Inputs depend only on the
workload name and the seed.  ``lift`` and ``rolling`` are built from the
program's catalog plus fixed generated scenarios, so their inputs do not
vary with the seed; ``shooting`` draws the true data of its boundary
value problems from the seed.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2

LIFT_CATALOG = ("frame-bundle-lift", "heisenberg-lift")

ROLLING_CATALOG = (
    "sphere-on-plane-geodesic",
    "paraboloid-on-plane-geodesic",
    "hyperbolic-on-plane-geodesic",
    "sphere-on-sphere-geodesic",
    "sphere-on-plane-pendulum",
    "paraboloid-on-plane-pendulum",
    "sphere-great-circle-develop",
    "paraboloid-magnetic-roll",
)

# The geodesic twin of this catalog pendulum traces the same base curve by
# the full (not reduced) flow.
PAIRED_PENDULUM = "paraboloid-on-plane-pendulum"

# Sphere rolling on a curved target: the pendulum memory force is nonzero
# here, unlike on the catalog's flat targets.  ``rollgeo run`` reports an
# invariant violation on it because ``pendulum_residual`` recomputes that
# force by trapezoid on the coarse sample grid; the operation is kept and
# counted as failed.
CURVED_PENDULUM = {
    "kind": "pendulum-2d",
    "chart": "sphere(1)",
    "chart_hat": "paraboloid(1)",
    "x": [HALF_PI, 0.0],
    "xhat": [0.3, 0.2],
    "theta": 0.9,
    "L": 0.1,
    "b1": 0.05,
    "b2": -0.03,
    "a": 1.0,
    "T": 5.0,
    "tol": 1e-9,
    "thresholds": {"pendulum_residual": 1e-5},
}

# Chart pairs of the seeded boundary value problems: start points and the
# box from which the true data (heading, v1, v2, charge) are drawn.  The
# charges are larger than the catalog problem's 0.25.  At charges of that
# size about one solve in four to ten stalls (see STALL_BVP), which ones
# depending on the seed, so the share of failed operations would change
# from seed to seed.  With these boxes the endpoint Jacobian's smallest
# singular value stays near or above 1e-4 of its largest (measured over
# sweeps of these boxes), and no solve stalled.  The paraboloid needs the
# larger charge.
BVP_PAIRS = (
    ("sphere(1)", "euclidean(2)", [HALF_PI, 0.0], [0.0, 0.0],
     ((0.6, 1.6), (-0.5, 0.5), (-0.5, 0.5), (1.5, 2.5))),
    ("paraboloid(1)", "euclidean(2)", [0.0, 0.0], [0.0, 0.0],
     ((0.6, 1.6), (-0.3, 0.3), (-0.3, 0.3), (2.5, 3.5))),
    ("sphere(1)", "sphere(2)", [HALF_PI, 0.0], [HALF_PI, 0.0],
     ((0.6, 1.6), (-0.5, 0.5), (-0.5, 0.5), (1.5, 2.5))),
)
BVP_DRAWS_PER_PAIR = 4

# The program's own boundary value problem (charge 0.25), run as it stands.
BVP_CATALOG = "sphere-on-plane-bvp"

# A fixed instance on which the solver stalls just above its 1e-8
# tolerance: the endpoint Jacobian has singular values near
# (2.98, 0.25, 3.4e-3, 2.8e-6), and the truncated least-squares step drops
# the weak but real last direction.  Counted as failed.
STALL_BVP = {
    "kind": "bvp",
    "chart": "paraboloid(1)",
    "chart_hat": "euclidean(2)",
    "x": [0.4, 0.1],
    "xhat": [0.0, 0.0],
    "true_params": [4.15, 0.17259, -0.11712, 0.07805],
    "perturbation": 1e-2,
    "T": 2.0,
    "tol": 1e-9,
    "seed": 0,
    "thresholds": {"endpoint_residual": 1e-8},
}

@dataclass(frozen=True)
class Operation:
    """One ``rollgeo run`` of a scenario file.

    ``check`` names the correctness check of its artifacts.  ``fault``
    names the known fault that makes it fail on every run, if any, and
    ``pair`` an operation whose contact curves it must reproduce.
    """

    name: str
    scenario: dict
    check: str
    fault: str | None = None
    pair: str | None = None


def _catalog_scenario(name: str) -> dict:
    from rollgeo import suites

    return suites.scenario_by_name(name)


def _paired_geodesic(pendulum: dict) -> dict:
    """The full geodesic started from a pendulum scenario's initial data."""
    th, a = pendulum["theta"], pendulum["a"]
    c, s = math.cos(th), math.sin(th)
    b1, b2 = pendulum["b1"], pendulum["b2"]
    return {
        "name": "paired-geodesic",
        "kind": "geodesic",
        "chart": pendulum["chart"],
        "chart_hat": pendulum["chart_hat"],
        "x": list(pendulum["x"]),
        "xhat": list(pendulum["xhat"]),
        "u": [a * c, a * s],
        "v": [b1 * c - b2 * s, b1 * s + b2 * c],
        "ell": pendulum["L"],
        "T": pendulum["T"],
        "tol": pendulum["tol"],
        "thresholds": {"speed_drift": 1e-8, "flow_residual": 1e-6,
                       "aux_symmetry": 1e-7, "charge_error": 1e-6},
    }


def _lift_ops(seed: int) -> list[Operation]:
    check = {"frame-bundle-lift": "frame-bundle", "heisenberg-lift": "heisenberg"}
    return [Operation(n, _catalog_scenario(n), check[n]) for n in LIFT_CATALOG]


def _rolling_ops(seed: int) -> list[Operation]:
    ops = []
    for name in ROLLING_CATALOG:
        sc = _catalog_scenario(name)
        check = {"geodesic": "geodesic", "pendulum-2d": "pendulum",
                 "develop": "develop", "rn-roll": "rn-roll"}[sc["kind"]]
        if name == "sphere-on-plane-pendulum":
            check = "pendulum-theta"
        ops.append(Operation(name, sc, check))
    ops.append(Operation("paired-geodesic",
                         _paired_geodesic(_catalog_scenario(PAIRED_PENDULUM)),
                         "geodesic", pair=PAIRED_PENDULUM))
    ops.append(Operation("curved-target-pendulum",
                         {"name": "curved-target-pendulum", **CURVED_PENDULUM},
                         "pendulum", fault="pendulum-residual"))
    return ops


def bvp_draw(seed: int, pair_index: int, k: int) -> dict:
    """The k-th seeded boundary value problem on one chart pair."""
    chart, chart_hat, x, xhat, box = BVP_PAIRS[pair_index]
    rng = np.random.default_rng([seed, pair_index, k])
    params = [float(rng.uniform(lo, hi)) for lo, hi in box]
    name = f"bvp-{pair_index}-{k}"
    return {
        "name": name,
        "kind": "bvp",
        "chart": chart,
        "chart_hat": chart_hat,
        "x": list(x),
        "xhat": list(xhat),
        "true_params": params,
        "perturbation": 1e-2,
        "T": 2.0,
        "tol": 1e-9,
        # one start perturbation for every draw: a random one decides per
        # solve between 2 and 3 Gauss-Newton iterations, which made the
        # round's cost swing by about 8% from seed to seed
        "seed": 0,
        "thresholds": {"endpoint_residual": 1e-8},
    }


def _shooting_ops(seed: int) -> list[Operation]:
    ops = [Operation(BVP_CATALOG, _catalog_scenario(BVP_CATALOG), "bvp")]
    ops += [Operation(sc["name"], sc, "bvp")
            for sc in (bvp_draw(seed, i, k) for i in range(len(BVP_PAIRS))
                       for k in range(BVP_DRAWS_PER_PAIR))]
    ops.append(Operation("stalled-bvp", {"name": "stalled-bvp", **STALL_BVP},
                         "bvp", fault="bvp-stall"))
    return ops


def make_operations(workload: str, seed: int) -> list[Operation]:
    builders = {"lift": _lift_ops, "rolling": _rolling_ops,
                "shooting": _shooting_ops}
    return builders[workload](seed)


def write_inputs(ops: list[Operation], directory: pathlib.Path) -> dict[str, pathlib.Path]:
    """Write one JSON scenario file per operation; return the paths by name."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        path = directory / f"{op.name}.json"
        path.write_text(json.dumps(op.scenario, sort_keys=True, indent=1) + "\n")
        paths[op.name] = path
    return paths
