"""Christoffel contraction and geodesic flow on a single chart."""

from __future__ import annotations

import numpy as np

from .charts import Array, ChartMetric
from .geometry import christoffel
from .integrate import DEFAULT_TOL, DENSE_MAX_STEP, Trajectory, integrate


def gamma_contract(gam: Array, v: Array) -> Array:
    """Matrix (Gamma(v))^k_l = Gamma^k_il v^i acting on vector components.

    Leading axes are a stack: ``gam[..., k, i, l]`` pairs with ``v[..., i]``.
    """
    return (v[..., None, None, :] @ gam)[..., 0, :]


def geodesic_flow(
    chart: ChartMetric,
    x0: Array,
    v0: Array,
    T: float,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Geodesic with initial point ``x0`` and velocity ``v0``.

    State layout: ``y = [x, v]``.  Exits through the chart margin truncate
    the run and set the flag.  :func:`geodesic_residual` differentiates
    the dense output, so the steps are capped at ``DENSE_MAX_STEP``.
    """
    n = chart.dim
    x0 = chart.check_point(x0)

    def rhs(t, y):
        x, v = y[:n], y[n:]
        gam = christoffel(chart, x)
        return np.concatenate([v, -np.einsum("kij,i,j->k", gam, v, v)])

    def margin(y):
        return chart.margin(y[:n])

    return integrate(rhs, np.concatenate([x0, np.asarray(v0, dtype=float)]), T, tol,
                     margin=margin, max_step=DENSE_MAX_STEP)


def geodesic_residual(chart: ChartMetric, traj: Trajectory, m: int = 200) -> float:
    """Sup of |x'' + Gamma(x', x')| on a uniform grid, via dense output."""
    n = chart.dim
    _, ys, dys = traj.derivative(traj.grid(m))
    worst = 0.0
    for y, dy in zip(ys, dys):
        gam = christoffel(chart, y[:n])
        res = dy[n:] + np.einsum("kij,i,j->k", gam, y[n:], y[n:])  # dy[n:] = x''
        worst = max(worst, float(np.abs(res).max()))
    return worst


def speed(chart: ChartMetric, x: Array, v: Array) -> float:
    gx = chart.metric(x)
    return float(np.sqrt(v @ gx @ v))
