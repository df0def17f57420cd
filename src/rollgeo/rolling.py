"""Rolling of one surface on another: configurations, development, diagnostics.

A rolling configuration is a pair of contact points with a pointwise
isometry between the tangent planes, encoded as a pair of positively
oriented orthonormal frames: the isometry q maps column j of the first
frame to column j of the second, so q = fhat f^-1 in chart components.
Rolling without slipping or twisting along a prescribed base curve
("development") keeps both frames parallel and matches velocities through
q; this makes the dynamics linear in the frame matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .charts import Array, ChartMetric
from .errors import DimensionError, FrameError
from .geometry import (
    FramePoint,
    MetricJet,
    adjugate,
    cholesky_frame,
    cholesky_frame_jet,
    christoffel,
    riemann,
    curvature_form_from_lowered,
)
from .integrate import DEFAULT_TOL, DENSE_MAX_STEP, StateLayout, Trajectory, integrate
from .transport import gamma_contract


@dataclass(frozen=True)
class RollingConfiguration:
    """Contact points and frame pair encoding the tangent isometry."""

    chart: ChartMetric
    chart_hat: ChartMetric
    x: Array
    xhat: Array
    f: Array
    fhat: Array

    def __post_init__(self):
        if self.chart.dim != self.chart_hat.dim:
            raise DimensionError("both surfaces must have the same dimension")
        for name in ("x", "xhat", "f", "fhat"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def q(self) -> Array:
        """Chart components of the tangent isometry."""
        return self.fhat @ np.linalg.inv(self.f)

    def validate(self, tol: float = 1e-8) -> None:
        FramePoint(self.x, self.f).validate(self.chart, tol)
        FramePoint(self.xhat, self.fhat).validate(self.chart_hat, tol)

    def isometry_defect(self) -> float:
        """How far q is from preserving inner products, on the frame basis."""
        g = self.chart.metric(self.x)
        ghat = self.chart_hat.metric(self.xhat)
        q = self.q
        return float(np.abs(q.T @ ghat @ q - g).max())


def aligned_configuration(
    chart: ChartMetric, chart_hat: ChartMetric, x: Array, xhat: Array
) -> RollingConfiguration:
    """The configuration whose frames are the canonical chart frames."""
    return RollingConfiguration(
        chart=chart, chart_hat=chart_hat, x=np.asarray(x, float),
        xhat=np.asarray(xhat, float),
        f=cholesky_frame(chart, np.asarray(x, float)),
        fhat=cholesky_frame(chart_hat, np.asarray(xhat, float)),
    )


@lru_cache(maxsize=None)
def develop_layout(n: int) -> StateLayout:
    """State of a development: ``[xhat, f, fhat, clock]``."""
    return StateLayout(xhat=n, f=(n, n), fhat=(n, n), clock=())


@dataclass
class RollingPath:
    """A development run: the base curve plus the integrated frame data.

    The trajectory state is ``develop_layout``, ``[xhat, f, fhat, clock]``;
    the base point x comes from the prescribed curve at the clock value.
    """

    chart: ChartMetric
    chart_hat: ChartMetric
    curve: Callable[[float], Array]
    curve_dot: Callable[[float], Array]
    traj: Trajectory

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def t1(self) -> float:
        return self.traj.t1

    @property
    def truncated(self) -> bool:
        return self.traj.truncated

    def configuration(self, t: float) -> RollingConfiguration:
        d = develop_layout(self.dim).split(self.traj.sample([t])[0])
        return RollingConfiguration(
            chart=self.chart, chart_hat=self.chart_hat,
            x=self.curve(t), xhat=d["xhat"], f=d["f"], fhat=d["fhat"],
        )

    def grid(self, m: int) -> Array:
        return self.traj.grid(m)


def frame_connection_form(chart: ChartMetric, x: Array, v: Array) -> Array:
    """Connection-form coefficients of the canonical frame field along v.

    Returns the skew matrix ``w[a, b] = g(E_a, nabla_v E_b)`` for the
    canonical orthonormal frame E of the chart.
    """
    return np.einsum("kab,k->ab", cholesky_frame_jet(chart, x).omega, v)


def distribution_basis(cfg: RollingConfiguration) -> list[tuple[Array, Array, Array]]:
    """Basis of the admissible (no-slip, no-twist) velocities at ``cfg``.

    Uses the canonical frame field e = E(x) on the first surface and its
    q-image, extended with constant coefficients in the canonical hat
    field, on the second.  Direction j is returned as the triple

        (e_j on M,  q e_j on Mhat,  w_j in so(n)),

    where ``w_j[a, b] = g(e_a, nabla_{e_j} e_b)
    - ghat(q e_a, nablahat_{q e_j} q e_b)`` is the fiber velocity
    coefficient on the generators rotating the isometry.
    """
    n = cfg.chart.dim
    E = cholesky_frame(cfg.chart, cfg.x)
    Ehat = cholesky_frame(cfg.chart_hat, cfg.xhat)
    q = cfg.q
    C = np.linalg.solve(Ehat, q @ E)  # hat-field coefficients of the q-image frame
    out = []
    for j in range(n):
        ej = E[:, j]
        vhat = q @ ej
        w = frame_connection_form(cfg.chart, cfg.x, ej)
        what = C.T @ frame_connection_form(cfg.chart_hat, cfg.xhat, vhat) @ C
        out.append((ej, vhat, w - what))
    return out


def so_projection(f: Array, g: Array, tol: float = 0.5) -> Array:
    """Nearest g-orthonormal frame to ``f``, preserving orientation.

    Polar-type correction: with g = L L^T the matrix L^T f is taken to its
    orthogonal polar factor.  Frames farther than ``tol`` from orthogonal
    (smallest singular value below 1 - tol or above 1 + tol) are rejected.
    """
    L = np.linalg.cholesky(g)
    m = L.T @ f
    U, s, Vt = np.linalg.svd(m)
    if s.min() < 1.0 - tol or s.max() > 1.0 + tol:
        raise FrameError(f"frame too degenerate to reproject (singular values {s})")
    return np.linalg.solve(L.T, U @ Vt)


def develop(
    cfg0: RollingConfiguration,
    curve: Callable[[float], Array],
    curve_dot: Callable[[float], Array],
    T: float,
    tol: float = DEFAULT_TOL,
) -> RollingPath:
    """Roll ``cfg0`` along the prescribed base curve without slip or twist.

    Both frames are kept parallel along their contact curves and the
    second contact point follows the isometry image of the base velocity;
    this is the unique admissible motion over the given curve.  In every
    dimension one :class:`~rollgeo.geometry.MetricJet` on (x, xhat) moves
    both frames, and xhatdot = fhat f^-1 xdot with f^-1 = adj f / det f.
    Frames are re-orthonormalized between integration chunks; chart exit on
    either surface truncates the run.
    """
    chart, chart_hat = cfg0.chart, cfg0.chart_hat
    charts, n = (chart, chart_hat), chart.dim
    layout = develop_layout(n)
    if np.abs(np.asarray(curve(0.0), float) - cfg0.x).max() > 1e-9:
        raise ValueError("curve(0) does not match the starting configuration")
    chart.validate(cfg0.x)
    chart_hat.validate(cfg0.xhat)

    xhat_slot, clock_slot = layout.slices["xhat"], layout.slices["clock"].start
    frame_slots = slice(layout.slices["f"].start, layout.slices["fhat"].stop)

    def rhs(t, z):
        fs = z[frame_slots].reshape(2, n, n)
        x = np.asarray(curve(z[clock_slot]), float)
        xdot = np.asarray(curve_dot(z[clock_slot]), float)
        adj, det = adjugate(fs[0])
        xdots = np.array([xdot, fs[1] @ ((adj * xdot).sum(-1) / det)])
        jet = MetricJet(charts, np.array([x, z[xhat_slot]]), curvature=False)
        out = np.empty(layout.size)
        out[xhat_slot] = xdots[1]
        out[frame_slots] = jet.frame_rate(xdots, fs).ravel()
        out[clock_slot] = 1.0
        return out

    def margin(z):
        d = layout.split(z)
        return min(chart.margin(np.asarray(curve(d["clock"]), float)),
                   chart_hat.margin(d["xhat"]))

    def reproject(z):
        z = z.copy()
        d = layout.split(z)
        x = np.asarray(curve(d["clock"]), float)
        d["f"][:] = so_projection(d["f"], chart.validate(x))
        d["fhat"][:] = so_projection(d["fhat"], chart_hat.validate(d["xhat"]))
        return z

    z0 = layout.pack(xhat=cfg0.xhat, f=cfg0.f, fhat=cfg0.fhat, clock=0.0)
    traj = integrate(rhs, z0, T, tol, margin=margin, reproject=reproject,
                     max_step=DENSE_MAX_STEP)
    return RollingPath(chart=chart, chart_hat=chart_hat,
                       curve=curve, curve_dot=curve_dot, traj=traj)


def noslip_notwist_residual(path: RollingPath, m: int = 100) -> dict:
    """Worst-case slip and twist violations along a development.

    Slip compares the isometry image of the base velocity with the actual
    velocity of the second contact point (finite difference of the dense
    output).  Twist measures the hat-side covariant derivative of the
    q-image of a parallel test field; the frame columns themselves are
    the transported test vectors.
    """
    n = path.dim
    layout = develop_layout(n)
    ts, zs, dzs = path.traj.derivative(path.grid(m))
    d, dot = layout.split(zs), layout.split(dzs)
    slip = twist = 0.0
    for i, t in enumerate(ts):
        xhat, fhat, xhatdot = d["xhat"][i], d["fhat"][i], dot["xhat"][i]
        xdot = np.asarray(path.curve_dot(t), float)
        ghat = path.chart_hat.metric(xhat)
        q = fhat @ np.linalg.inv(d["f"][i])
        dv = q @ xdot - xhatdot
        slip = max(slip, float(np.sqrt(dv @ ghat @ dv)))
        gamhat = christoffel(path.chart_hat, xhat)
        cov = dot["fhat"][i] + gamma_contract(gamhat, xhatdot) @ fhat
        for j in range(n):
            twist = max(twist, float(np.sqrt(cov[:, j] @ ghat @ cov[:, j])))
    return {"slip": slip, "twist": twist}


def curvature_gap(cfg: RollingConfiguration) -> dict:
    """The curvature-difference map on two-planes, in the frame basis.

    Entry ((a, b), (c, d)) is the (a, b) component of the difference of
    the two curvature forms evaluated on the frame pair (c, d).  The
    distribution is bracket generating at ``cfg`` exactly when this map is
    invertible; for surfaces the single entry is kappa - kappahat.
    """
    n = cfg.chart.dim
    _, low = riemann(cfg.chart, cfg.x)
    _, lowhat = riemann(cfg.chart_hat, cfg.xhat)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    G = np.empty((len(pairs), len(pairs)))
    for col, (c, d) in enumerate(pairs):
        om = curvature_form_from_lowered(low, cfg.f, cfg.f[:, c], cfg.f[:, d])
        omhat = curvature_form_from_lowered(
            lowhat, cfg.fhat, cfg.fhat[:, c], cfg.fhat[:, d])
        diff = om - omhat
        for row, (a, b) in enumerate(pairs):
            G[row, col] = diff[a, b]
    s = np.linalg.svd(G, compute_uv=False)
    return {"map": G, "min_singular_value": float(s.min())}
