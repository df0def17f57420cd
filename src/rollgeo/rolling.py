"""Rolling of one surface on another: configurations, development, diagnostics.

A rolling configuration is a pair of contact points with a pointwise
isometry between the tangent planes, encoded as a pair of positively
oriented orthonormal frames: the isometry q maps column j of the first
frame to column j of the second, so q = fhat f^-1 in chart components.
Rolling without slipping or twisting along a prescribed base curve
("development") keeps both frames parallel and matches velocities through
q; this makes the dynamics linear in the frame matrices.

Every rolling flow, here and in :mod:`rollgeo.geodesics`, starts its state
with the configuration: :func:`contact_hooks` checks it at the start, keeps
it in its charts and on the orthonormal frame bundle, and
:class:`RollingRun` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar

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
    """State of a development: ``[x, xhat, f, fhat]``."""
    return StateLayout(x=n, xhat=n, f=(n, n), fhat=(n, n))


@dataclass
class RollingRun:
    """An integrated rolling flow: the chart pair and the trajectory.

    Every rolling state begins with its configuration, the x, xhat, f and
    fhat slots of the layout a subclass names in ``layout_for``, a function
    of the dimension.
    """

    layout_for: ClassVar[Callable[[int], StateLayout]]

    chart: ChartMetric
    chart_hat: ChartMetric
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

    def grid(self, m: int) -> Array:
        return self.traj.grid(m)

    def split(self, z: Array) -> dict:
        return self.layout_for(self.dim).split(z)

    def configuration(self, t: float) -> RollingConfiguration:
        d = self.split(self.traj.sample([t])[0])
        return RollingConfiguration(chart=self.chart, chart_hat=self.chart_hat,
                                    x=d["x"], xhat=d["xhat"], f=d["f"], fhat=d["fhat"])


@dataclass
class RollingPath(RollingRun):
    """A development run: ``develop_layout``, ``[x, xhat, f, fhat]``, with the
    prescribed base velocity ``curve_dot``."""

    layout_for = staticmethod(develop_layout)

    curve_dot: Callable[[float], Array]


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


def contact_hooks(layout: StateLayout, z0: Array, chart: ChartMetric,
                  chart_hat: ChartMetric | None = None):
    """Check a rolling state at its start; its chart-exit margin and frame reprojection.

    The contacts are the x and f slots on ``chart`` and, with ``chart_hat``,
    the xhat and fhat slots on it.  ``z0`` and the states the hooks take are
    one state or a flat stack of states.  The metric is validated at every
    contact point of ``z0`` (:class:`SingularMetricError` names the chart);
    the margin is the least over the rows and contacts, and the reprojection
    validates the metric and applies :func:`so_projection` at each contact
    of each row.
    """
    contacts = [(chart, layout.slices["x"], layout.slices["f"])]
    if chart_hat is not None:
        contacts.append((chart_hat, layout.slices["xhat"], layout.slices["fhat"]))
    n = chart.dim

    for row in z0.reshape(-1, layout.size):
        for c, x, _ in contacts:
            c.validate(row[x])

    def margin(z):
        zs = z.reshape(-1, layout.size)
        return min(min(map(c.margin, zs[:, x])) for c, x, _ in contacts)

    def reproject(z):
        z = z.copy()
        for row in z.reshape(-1, layout.size):
            for c, x, f in contacts:
                row[f] = so_projection(row[f].reshape(n, n), c.validate(row[x])).ravel()
        return z

    return margin, reproject


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
    this is the unique admissible motion over the given curve.  The state
    is ``develop_layout``, ``[x, xhat, f, fhat]``: x moves with xdot =
    curve_dot(t), and ``curve`` only checks the start.  In every dimension
    one :class:`~rollgeo.geometry.MetricJet` on the carried (x, xhat) moves
    both frames, and xhatdot = fhat f^-1 xdot with f^-1 = adj f / det f.
    :func:`contact_hooks` checks the start, re-orthonormalizes the frames
    between integration chunks and truncates the run at chart exit on
    either surface.
    """
    chart, chart_hat = cfg0.chart, cfg0.chart_hat
    charts, n = (chart, chart_hat), chart.dim
    layout = develop_layout(n)
    if np.abs(np.asarray(curve(0.0), float) - cfg0.x).max() > 1e-9:
        raise ValueError("curve(0) does not match the starting configuration")

    # x, xhat are adjacent, and so are f, fhat
    points = slice(layout.slices["x"].start, layout.slices["xhat"].stop)
    frames = slice(layout.slices["f"].start, layout.slices["fhat"].stop)

    def rhs(t, z):
        fs = z[frames].reshape(2, n, n)
        xdot = np.asarray(curve_dot(t), float)
        adj, det = adjugate(fs[0])
        xdots = np.array([xdot, fs[1] @ ((adj * xdot).sum(-1) / det)])
        jet = MetricJet(charts, z[points].reshape(2, n))
        out = np.empty(layout.size)
        out[points] = xdots.ravel()
        out[frames] = jet.frame_rate(xdots, fs).ravel()
        return out

    z0 = layout.pack(x=cfg0.x, xhat=cfg0.xhat, f=cfg0.f, fhat=cfg0.fhat)
    margin, reproject = contact_hooks(layout, z0, chart, chart_hat)
    traj = integrate(rhs, z0, T, tol, margin=margin, reproject=reproject,
                     max_step=DENSE_MAX_STEP)
    return RollingPath(chart=chart, chart_hat=chart_hat, traj=traj, curve_dot=curve_dot)


def noslip_notwist_residual(path: RollingPath, m: int = 100) -> dict:
    """Worst-case slip and twist violations along a development.

    Slip compares the isometry image of the base velocity with the actual
    velocity of the second contact point (finite difference of the dense
    output).  Twist measures the hat-side covariant derivative of the
    q-image of a parallel test field; the frame columns themselves are
    the transported test vectors.
    """
    n = path.dim
    ts, zs, dzs = path.traj.derivative(path.grid(m))
    d, dot = path.split(zs), path.split(dzs)
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
