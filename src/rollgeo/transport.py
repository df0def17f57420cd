"""Parallel transport and geodesic flow on a single chart."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .charts import Array, ChartMetric
from .geometry import christoffel
from .integrate import DEFAULT_TOL, DENSE_MAX_STEP, Trajectory, integrate


def gamma_contract(gam: Array, v: Array) -> Array:
    """Matrix (Gamma(v))^k_l = Gamma^k_il v^i acting on vector components.

    Leading axes are a stack: ``gam[..., k, i, l]`` pairs with ``v[..., i]``.
    """
    return (v[..., None, None, :] @ gam)[..., 0, :]


def parallel_transport(
    chart: ChartMetric,
    curve: Callable[[float], Array],
    curve_dot: Callable[[float], Array],
    v0: Array,
    T: float,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Transport ``v0`` along ``t -> curve(t)``: v'^k = -Gamma^k_ij x'^i v^j.

    The trajectory state is ``[v, t]``: the transported vector's chart
    components plus a clock slot, which lets the chart-exit margin watch the
    base curve.  If the curve leaves the chart the result is truncated and
    flagged.
    """
    def rhs(t, y):
        gam = christoffel(chart, curve(t))
        return np.append(-gamma_contract(gam, curve_dot(t)) @ y[:-1], 1.0)

    def margin(y):
        return chart.margin(curve(y[-1]))

    return integrate(rhs, np.append(np.asarray(v0, dtype=float), 0.0), T, tol,
                     margin=margin)


def transport_frame(
    chart: ChartMetric,
    curve: Callable[[float], Array],
    curve_dot: Callable[[float], Array],
    f0: Array,
    T: float,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Transport a whole basis (columns of ``f0``) along the curve."""
    n = chart.dim

    def rhs(t, y):
        f = y.reshape(n, n)
        gam = christoffel(chart, curve(t))
        return (-gamma_contract(gam, curve_dot(t)) @ f).ravel()

    return integrate(rhs, np.asarray(f0, dtype=float).ravel(), T, tol)


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
