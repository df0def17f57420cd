"""Normal geodesics of the rolling problem and their reductions.

The geodesic system carries a rolling configuration together with the
frame coordinates u of the contact velocity, the frame coordinates v of an
auxiliary parallel-type field V, and a skew matrix charge Lam.  With the
pairing <A, B> = tr(A^T B) / 2 and the curvature forms Om, Omhat of the
two surfaces evaluated on their frames, the locked equations are

    udot_j  = <Lam, Om(f u, f_j) - Omhat(fhat u, fhat_j)>
    vdot_j  = <Lam, Omhat(fhat u, fhat_j)>
    Lamdot  = u v^T - v u^T

while both frames move by parallel transport and the contact points by
xdot = f u, xhatdot = fhat u.  The sign conventions are pinned by the
sphere regression in the geometry tests: for surfaces the realized
curvature form is Om(f)(f_1, f_2) = kappa [[0, 1], [-1, 0]], and with
that choice the 2D system reduces exactly to

    thetadot = L (kappa - kappahat),   Ldot = a b2,
    b1dot = thetadot b2,               b2dot = a L kappahat - thetadot b1,

which is what ``reduce_2d`` integrates directly.

For surfaces the charge lives in so(2): Lam = L E2 with one scalar L, and
the curvature tensor is R(X, Y)Z = kappa (g(Y, Z) X - g(X, Z) Y), so each
curvature form is a multiple of E2, Om(f)(X, f_j) = c_j E2 with
c_j = kappa det f det g (X_0 f_1j - X_1 f_0j) on any frame.  On an
orthonormal frame det f det g = rho, where rho = sqrt(det g) is the area
density, and along X = f u this is c = k (-u_1, u_0) with k = kappa rho det f
(k = kappa on an exactly orthonormal frame).  Since <L E2, c E2> = L c,
``geodesic_rhs`` evaluates the surface system in closed form,

    udot = L (k - khat) (-u_1, u_0),   vdot = L khat (-u_1, u_0),
    Ldot = u_0 v_1 - u_1 v_0,

and the frames by fdot = -g^-1 N f with N = (D + B^T - B) / 2, where
D = sum_i X^i d_i g and B[l, m] = sum_i X^i d_l g_im are the metric
derivative contracted with X = xdot (N is the Christoffel matrix
Gamma(X) with its upper index lowered), and g^-1 = adj g / det g.  That is
one metric evaluation, one metric derivative and one curvature per surface,
all from one :class:`~rollgeo.geometry.MetricJet`.
The surface system takes a stack of states, one per row, and evaluates
everything but the charts' own functions once for the whole stack; a
single state is a stack of one.

Every flow here and :func:`rollgeo.rolling.develop` move their frames by
that one transport, in every dimension.  Above two dimensions the charge
is a full skew matrix: the curvature forms come from the curvature tensor,
one state at a time.  The reduced system takes the kernel on the 2-point
stack (x, xhat): u = a (cos theta, sin theta), and its memory channels
need kappadot = d kappa . xdot, one central difference of the curvature
per surface.  Form "a" of the flat-target flow pairs the running charge
lam0 + w v0^T - v0 w^T with the curvature forms, on surfaces in the closed
form with the scalar ell + w_0 v_1 - w_1 v_0.  Two paths stay on the
Christoffel symbols on purpose, so that the checks compare independent
code: the transport of form "b" and the slip and twist residual of
:func:`rollgeo.rolling.noslip_notwist_residual`.  Form "b" pairs the
charge with :func:`curvature_forms_along`, which on surfaces builds each
form from the identity above with one metric and one ``gauss_curvature``
and shares no code with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .charts import Array, ChartMetric
from .errors import DimensionError
from .geometry import (MetricJet, christoffel, curvature_form_from_lowered, gauss_curvature,
                       riemann, surface_kappa)
from .integrate import (DEFAULT_TOL, DENSE_MAX_STEP, DERIV_STEP, Skew, StateLayout,
                        Trajectory, integrate)
from .integrate import skew_to_vec, vec_to_skew  # noqa: F401 (re-exported)
from .rolling import RollingConfiguration, so_projection
from .transport import gamma_contract

E2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

RHO_FLOOR = 1e-3


def pair(A: Array, B: Array) -> float:
    """The so(n) inner product <A, B> = tr(A^T B) / 2."""
    return 0.5 * float(np.vdot(A, B))


@lru_cache(maxsize=None)
def geodesic_layout(n: int) -> StateLayout:
    """State of the normal-geodesic system: ``[x, xhat, f, fhat, u, v, lam]``."""
    return StateLayout(x=n, xhat=n, f=(n, n), fhat=(n, n), u=n, v=n, lam=Skew(n))


# Reduced 2D system: the contact geometry, the scalar variables, and the
# C and S quadrature slots of the memory force.
PENDULUM_LAYOUT = StateLayout(x=2, xhat=2, f=(2, 2), fhat=(2, 2), theta=(), L=(),
                              b1=(), b2=(), C=(), S=())

# Slots of the reduced state: the contact points, the frames, (theta, L, b1,
# b2) and (C, S), each adjacent.
_PEND = PENDULUM_LAYOUT.slices
_PEND_POINTS = slice(_PEND["x"].start, _PEND["xhat"].stop)
_PEND_FRAMES = slice(_PEND["f"].start, _PEND["fhat"].stop)
_PEND_SCALARS = slice(_PEND["theta"].start, _PEND["b2"].stop)
_PEND_MEMORY = slice(_PEND["C"].start, _PEND["S"].stop)


@lru_cache(maxsize=None)
def rn_layout(n: int) -> StateLayout:
    """State of rolling on flat space: ``[x, f, u, w]``."""
    return StateLayout(x=n, f=(n, n), u=n, w=n)


def _contact_hooks(layout: StateLayout, chart: ChartMetric, chart_hat: ChartMetric):
    """Chart-exit margin and frame reprojection on the x, xhat, f, fhat slots.

    Both take a state or a flat stack of states: the margin is the least
    over the rows, and each row is reprojected.
    """
    x, xhat = layout.slices["x"], layout.slices["xhat"]

    def margin(z):
        zs = z.reshape(-1, layout.size)
        return min(min(map(chart.margin, zs[:, x])), min(map(chart_hat.margin, zs[:, xhat])))

    def reproject(z):
        z = z.copy()
        for row in z.reshape(-1, layout.size):
            d = layout.split(row)
            d["f"][:] = so_projection(d["f"], chart.validate(d["x"]))
            d["fhat"][:] = so_projection(d["fhat"], chart_hat.validate(d["xhat"]))
        return z

    return margin, reproject


@dataclass(frozen=True)
class RollingGeodesicState:
    """Full state of the normal-geodesic system."""

    cfg: RollingConfiguration
    u: Array
    v: Array
    lam: Array

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        if np.abs(self.lam + self.lam.T).max() > 1e-12:
            raise DimensionError("charge matrix must be skew")

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.u))


@dataclass(frozen=True)
class Pendulum2DState:
    """Reduced state of the surface-on-surface geodesic system."""

    cfg: RollingConfiguration
    theta: float
    L: float
    b1: float
    b2: float
    a: float

    def to_full(self) -> RollingGeodesicState:
        c, s = np.cos(self.theta), np.sin(self.theta)
        u = self.a * np.array([c, s])
        v = self.b1 * np.array([c, s]) + self.b2 * np.array([-s, c])
        return RollingGeodesicState(cfg=self.cfg, u=u, v=v, lam=self.L * E2)


def curvature_forms_along(chart: ChartMetric, x: Array, f: Array, X: Array) -> Array:
    """The matrices Om(f)(X, f_j)[a, b] = g(R(X, f_j) f_b, f_a), stacked over j.

    For surfaces this is R(X, Y)Z = kappa (g(Y, Z) X - g(X, Z) Y): with
    G = f^T g, Om_j = kappa ((G X) (G f_j)^T - (G f_j) (G X)^T), exact on
    any frame, from one metric and one ``gauss_curvature``.  In higher
    dimension it contracts the full curvature tensor.
    """
    n = chart.dim
    if n == 2:
        G = f.T @ chart.metric(x)
        gx, gf = G @ X, (G @ f).T  # gf[j] = G f_j
        return gauss_curvature(chart, x) * (gx[:, None] * gf[:, None] - gf[:, :, None] * gx)
    _, low = riemann(chart, x)
    return np.array([curvature_form_from_lowered(low, f, X, f[:, j]) for j in range(n)])


# ---------------------------------------------------------------------------
# Full geodesic flow

@dataclass
class GeodesicRun:
    """An integrated geodesic with chart references and slot accessors."""

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

    def split(self, z: Array) -> dict:
        return geodesic_layout(self.dim).split(z)

    def ends(self) -> dict:
        """Slots at the last node, one row per state of a stacked run."""
        return self.split(self.traj.y[-1].reshape(-1, geodesic_layout(self.dim).size))

    def state(self, t: float) -> RollingGeodesicState:
        d = self.split(self.traj.sample([t])[0])
        cfg = RollingConfiguration(chart=self.chart, chart_hat=self.chart_hat,
                                   x=d["x"], xhat=d["xhat"], f=d["f"], fhat=d["fhat"])
        return RollingGeodesicState(cfg=cfg, u=d["u"], v=d["v"], lam=d["lam"])

    def speed_drift(self, m: int = 200) -> float:
        sp = [np.linalg.norm(u) for u in self.split(self.traj.sample(self.traj.grid(m)))["u"]]
        return float(max(sp) - min(sp))

    def grid(self, m: int) -> Array:
        return self.traj.grid(m)


def geodesic_rhs(chart: ChartMetric, chart_hat: ChartMetric, t: float, z: Array) -> Array:
    """Right-hand side of the normal-geodesic system at state ``z``.

    ``z`` is one state or a stack of states, one per row; a flat vector of
    several states is read as their stack.  The result has the shape of ``z``.
    """
    n = chart.dim
    if n == 2:
        return _surface_rhs(chart, chart_hat, z)
    layout = geodesic_layout(n)
    if z.size > layout.size:
        return np.array([geodesic_rhs(chart, chart_hat, t, row)
                         for row in z.reshape(-1, layout.size)]).reshape(z.shape)
    d = layout.split(z)
    x, xhat, f, fhat = d["x"], d["xhat"], d["f"], d["fhat"]
    u, v, lam = d["u"], d["v"], d["lam"]

    xdot = f @ u
    xhatdot = fhat @ u
    jet = MetricJet((chart, chart_hat), (x, xhat), curvature=False)
    fdot, fhatdot = jet.frame_rate(np.array([xdot, xhatdot]), np.array([f, fhat]))

    om = curvature_forms_along(chart, x, f, xdot)
    omhat = curvature_forms_along(chart_hat, xhat, fhat, xhatdot)
    udot = np.array([pair(lam, om[j] - omhat[j]) for j in range(n)])
    vdot = np.array([pair(lam, omhat[j]) for j in range(n)])
    return layout.pack(x=xdot, xhat=xhatdot, f=fdot, fhat=fhatdot, u=udot, v=vdot,
                       lam=np.outer(u, v) - np.outer(v, u))


# Slots of the surface state; x, xhat are adjacent, and so are f, fhat.
_SIZE, _SLOTS = geodesic_layout(2).size, geodesic_layout(2).slices
_POINTS = slice(_SLOTS["x"].start, _SLOTS["xhat"].stop)
_FRAMES = slice(_SLOTS["f"].start, _SLOTS["fhat"].stop)
_UV = slice(_SLOTS["u"].start, _SLOTS["v"].stop)
_L = _SLOTS["lam"].start

# (k, khat) @ _CHARGE_SPLIT is (k - khat, khat), the coefficients of udot and vdot.
_CHARGE_SPLIT = np.array([[1.0, 0.0], [-1.0, 1.0]])


def _frame_det(f: Array) -> Array:
    """det f of each 2-by-2 matrix of a stack."""
    return f[..., 0, 0] * f[..., 1, 1] - f[..., 0, 1] * f[..., 1, 0]


def _surface_rhs(chart: ChartMetric, chart_hat: ChartMetric, z: Array) -> Array:
    """``geodesic_rhs`` for surfaces, in the closed form of the module docstring.

    The m states of the stack give 2m points of one :class:`MetricJet`,
    ``chart`` at the even rows and ``chart_hat`` at the odd ones.
    """
    zs = z.reshape(-1, _SIZE)
    m = len(zs)
    xs, fs = zs[:, _POINTS].reshape(2 * m, 2), zs[:, _FRAMES].reshape(2 * m, 2, 2)
    u, v, L = zs[:, _SLOTS["u"]], zs[:, _SLOTS["v"]], zs[:, _L:_L + 1]
    jet = MetricJet((chart, chart_hat) * m, xs)
    xdot = (fs.reshape(m, 2, 2, 2) @ u[:, None, :, None]).reshape(2 * m, 2)
    fdot = jet.frame_rate(xdot, fs)
    k = jet.kappa * jet.rho * _frame_det(fs)
    ju = u @ E2  # (-u_1, u_0)
    out = np.empty((m, _SIZE))
    out[:, _POINTS] = xdot.reshape(m, 4)
    out[:, _FRAMES] = fdot.reshape(m, 8)
    out[:, _UV] = ((L * (k.reshape(m, 2) @ _CHARGE_SPLIT))[:, :, None]
                   * ju[:, None, :]).reshape(m, 4)
    out[:, _L] = (ju * v).sum(1)
    return out.reshape(z.shape)


def integrate_geodesic(
    s0: RollingGeodesicState | Sequence[RollingGeodesicState],
    T: float,
    tol: float = DEFAULT_TOL,
    max_step: float = DENSE_MAX_STEP,
    dense_output: bool = True,
) -> GeodesicRun:
    """Integrate the normal-geodesic system from ``s0`` for time ``T``.

    ``s0`` is one state or a sequence of states on the same charts; a
    sequence is integrated as one stacked system whose rows share their
    steps, and its run leaves the chart when any row does.  Each node of
    ``traj.y`` is then the flat stack; :meth:`GeodesicRun.ends` splits the
    last one.  The default step cap keeps the dense output fit for
    differentiation; a caller that reads only the nodes may pass
    ``np.inf`` and ``dense_output=False``.
    """
    states = [s0] if isinstance(s0, RollingGeodesicState) else list(s0)
    chart, chart_hat = states[0].cfg.chart, states[0].cfg.chart_hat
    layout = geodesic_layout(chart.dim)
    for s in states:
        chart.validate(s.cfg.x)
        chart_hat.validate(s.cfg.xhat)

    def rhs(t, z):
        return geodesic_rhs(chart, chart_hat, t, z)

    margin, reproject = _contact_hooks(layout, chart, chart_hat)
    z0 = np.concatenate([layout.pack(x=s.cfg.x, xhat=s.cfg.xhat, f=s.cfg.f, fhat=s.cfg.fhat,
                                     u=s.u, v=s.v, lam=s.lam) for s in states])
    traj = integrate(rhs, z0, T, tol, margin=margin, reproject=reproject,
                     max_step=max_step, dense_output=dense_output)
    return GeodesicRun(chart=chart, chart_hat=chart_hat, traj=traj)


def flow_residual(run: GeodesicRun, ts) -> Array:
    """Residual of the geodesic equations at each time in ``ts``.

    Differentiates the carried u, v and charge slots by central
    differences of the interpolant and compares with the right-hand side
    recomputed from the sampled states, evaluated once on their stack.
    """
    start = geodesic_layout(run.dim).slices["u"].start  # the u, v and lam slots
    ts, zs, dzs = run.traj.derivative(ts)
    rhs = geodesic_rhs(run.chart, run.chart_hat, ts, zs)
    return np.abs(dzs[:, start:] - rhs[:, start:]).max(axis=1)


def theorem_residual(run: GeodesicRun, samples: int = 100) -> float:
    """Sup residual of the geodesic equations along the dense output."""
    return float(flow_residual(run, run.grid(samples)).max())


def vtilde_symmetry_check(run: GeodesicRun, samples: int = 100) -> dict:
    """Residuals of the shifted-field identities along a geodesic run.

    With vtilde = v + u the charge equation keeps its form and the
    evolution of vtilde couples to the first surface's curvature alone:

        d/dt lam = u vtilde^T - vtilde u^T
        d/dt (v + u)_j = <lam, Om(f u, f_j)>.
    """
    n = run.dim
    _, zs, dzs = run.traj.derivative(run.grid(samples))
    d, dot = run.split(zs), run.split(dzs)
    res_lam = res_v = 0.0
    for i in range(len(zs)):
        x, f, u, v, lam = d["x"][i], d["f"][i], d["u"][i], d["v"][i], d["lam"][i]
        vt = v + u
        want_lam = np.outer(u, vt) - np.outer(vt, u)
        res_lam = max(res_lam, float(np.abs(dot["lam"][i] - want_lam).max()))
        om = curvature_forms_along(run.chart, x, f, f @ u)
        want_vt = np.array([pair(lam, om[j]) for j in range(n)])
        res_v = max(res_v, float(np.abs(dot["v"][i] + dot["u"][i] - want_vt).max()))
    return {"charge": res_lam, "field": res_v}


# ---------------------------------------------------------------------------
# 2D reduction

@dataclass
class PendulumRun:
    """A reduced 2D run with curvature channels and quadrature slots.

    State layout ``PENDULUM_LAYOUT``: ``[x, xhat, f, fhat, theta, L, b1,
    b2, C, S]`` where C and S accumulate the integrals of cos(theta) w and
    sin(theta) w with w = rho^2 (kappa kappahatdot - kappadot kappahat),
    the separated kernel of the memory force.
    """

    chart: ChartMetric
    chart_hat: ChartMetric
    a: float
    traj: Trajectory

    @property
    def t1(self) -> float:
        return self.traj.t1

    @property
    def truncated(self) -> bool:
        return self.traj.truncated

    def grid(self, m: int) -> Array:
        return self.traj.grid(m)

    def channels(self, ts) -> dict:
        zs = self.traj.sample(ts)
        out = PENDULUM_LAYOUT.split(zs)
        out["kappa"], out["kappahat"] = _contact_curvatures(self.chart, self.chart_hat, zs)
        out["F"] = np.sin(out["theta"]) * out["C"] - np.cos(out["theta"]) * out["S"]
        return out

    def state(self, t: float) -> Pendulum2DState:
        d = PENDULUM_LAYOUT.split(self.traj.sample([t])[0])
        cfg = RollingConfiguration(chart=self.chart, chart_hat=self.chart_hat,
                                   x=d["x"], xhat=d["xhat"], f=d["f"], fhat=d["fhat"])
        return Pendulum2DState(cfg=cfg, theta=d["theta"], L=d["L"], b1=d["b1"], b2=d["b2"],
                               a=self.a)


def _contact_curvatures(chart: ChartMetric, chart_hat: ChartMetric, zs: Array) -> Array:
    """kappa at x and kappahat at xhat, one entry per row of a stack of reduced states."""
    points = zs[:, _PEND_POINTS].reshape(-1, 2)
    return surface_kappa((chart, chart_hat) * len(zs), points).reshape(-1, 2).T


def reduce_2d(
    s0: Pendulum2DState,
    T: float,
    tol: float = DEFAULT_TOL,
) -> PendulumRun:
    """Integrate the reduced surface-on-surface geodesic system.

    Runs entirely in the scalar variables (theta, L, b1, b2) plus the
    carried contact geometry; the auxiliary C and S slots advance the
    separated memory-force quadrature alongside the stepper.  Accepted
    nodes where |kappa - kappahat| is below the floor set the
    ``rho_singular`` flag in the metadata, since the pendulum-form
    constants divide by the gap.
    """
    chart, chart_hat = s0.cfg.chart, s0.cfg.chart_hat
    if chart.dim != 2:
        raise DimensionError("reduce_2d requires surfaces")
    chart.validate(s0.cfg.x)
    chart_hat.validate(s0.cfg.xhat)
    a = s0.a
    charts = (chart, chart_hat)

    def rhs(t, z):
        theta, L, b1, b2 = z[_PEND_SCALARS]
        c, s = np.cos(theta), np.sin(theta)
        fs = z[_PEND_FRAMES].reshape(2, 2, 2)
        jet = MetricJet(charts, z[_PEND_POINTS].reshape(2, 2))
        xdot = fs @ (a * np.array([c, s]))  # rows: xdot = f u, xhatdot = fhat u
        kap, kaphat = jet.kappa
        kapdot, kaphatdot = jet.kappa_rate(xdot)
        gap = kap - kaphat
        thetadot = L * gap
        rho = 1.0 / gap if abs(gap) >= RHO_FLOOR else 0.0
        w = rho * rho * (kap * kaphatdot - kapdot * kaphat)
        out = np.empty(PENDULUM_LAYOUT.size)
        out[_PEND_POINTS] = xdot.ravel()
        out[_PEND_FRAMES] = jet.frame_rate(xdot, fs).ravel()
        out[_PEND_SCALARS] = thetadot, a * b2, thetadot * b2, a * L * kaphat - thetadot * b1
        out[_PEND_MEMORY] = c * w, s * w
        return out

    margin, reproject = _contact_hooks(PENDULUM_LAYOUT, chart, chart_hat)
    z0 = PENDULUM_LAYOUT.pack(x=s0.cfg.x, xhat=s0.cfg.xhat, f=s0.cfg.f, fhat=s0.cfg.fhat,
                              theta=s0.theta, L=s0.L, b1=s0.b1, b2=s0.b2, C=0.0, S=0.0)
    traj = integrate(rhs, z0, T, tol, margin=margin, reproject=reproject,
                     max_step=DENSE_MAX_STEP)
    kap, kaphat = _contact_curvatures(chart, chart_hat, traj.y)
    traj.meta["rho_singular"] = bool((np.abs(kap - kaphat) < RHO_FLOOR).any())
    return PendulumRun(chart=chart, chart_hat=chart_hat, a=a, traj=traj)


def pendulum_constants(run: PendulumRun) -> tuple[float, float]:
    """Fit the amplitude and phase of the pendulum form from the start data.

    The closed-form b solution determines both integration constants from
    (b1(0), b2(0)) and the initial curvature data; they are outputs of a
    run, not free inputs.
    """
    ch = run.channels([0.0])
    a = run.a
    gap0 = float(ch["kappa"][0] - ch["kappahat"][0])
    if abs(gap0) < RHO_FLOOR:
        raise ZeroDivisionError("curvature gap below floor at t = 0")
    rho0 = 1.0 / gap0
    db1 = float(ch["b1"][0]) - a * rho0 * float(ch["kappahat"][0])
    b20 = float(ch["b2"][0])
    A = a * float(np.hypot(db1, b20))
    phi0 = float(ch["theta"][0]) + float(np.arctan2(b20, db1)) + np.pi
    return A, phi0


def closed_form_b(run: PendulumRun, ts, A: float, phi0: float) -> tuple[Array, Array]:
    """Quadrature solution of the b-system along a reduced run.

    Combines the fitted pendulum constants with the carried C and S
    channels; for constant curvatures the channel terms vanish and b2
    reduces to (A/a) sin(theta - phi0).
    """
    ch = run.channels(ts)
    a = run.a
    gap = ch["kappa"] - ch["kappahat"]
    rho = 1.0 / gap
    th, C, S = ch["theta"], ch["C"], ch["S"]
    b1 = a * rho * ch["kappahat"] - (A / a) * np.cos(th - phi0) \
        - a * (np.cos(th) * C + np.sin(th) * S)
    b2 = (A / a) * np.sin(th - phi0) + a * (np.sin(th) * C - np.cos(th) * S)
    return b1, b2


def pendulum_residual(run: PendulumRun, A: float, phi0: float, samples: int = 400) -> float:
    """Sup residual of the pendulum form along a reduced run.

    Uses Ldot = a b2 for the left-hand side (no second differences) and
    recomputes the memory force by Simpson quadrature of its defining
    integrand on the sample grid, independently of the carried channels.
    Simpson's O(dt^4) error keeps the quadrature below the pendulum
    thresholds on curved targets, where the memory integrand is nonzero.
    """
    ts = run.grid(samples)
    ch = run.channels(ts)
    a = run.a
    th = ch["theta"]
    rho = 1.0 / (ch["kappa"] - ch["kappahat"])
    h = DERIV_STEP
    tc = run.traj.interior(ts)
    lo, hi = run.channels(tc - h), run.channels(tc + h)
    kapdot = (hi["kappa"] - lo["kappa"]) / (2 * h)
    kaphatdot = (hi["kappahat"] - lo["kappahat"]) / (2 * h)
    w = rho * rho * (ch["kappa"] * kaphatdot - kapdot * ch["kappahat"])
    from scipy.integrate import cumulative_simpson

    # Simpson needs increasing abscissae: a backward run integrates in -t.
    sign = 1.0 if run.traj.t1 >= run.traj.t0 else -1.0
    C = sign * cumulative_simpson(np.cos(th) * w, x=sign * ts, initial=0.0)
    S = sign * cumulative_simpson(np.sin(th) * w, x=sign * ts, initial=0.0)
    F = np.sin(th) * C - np.cos(th) * S
    res = a * ch["b2"] - A * np.sin(th - phi0) - a * a * F
    return float(np.abs(res).max())


# ---------------------------------------------------------------------------
# Rolling on flat space

def rn_rolling_flow(
    chart: ChartMetric,
    x0: Array,
    f0: Array,
    u0: Array,
    v0: Array,
    lam0: Array,
    T: float,
    tol: float = DEFAULT_TOL,
    form: str = "a",
) -> Trajectory:
    """Geodesic rolling of a manifold on flat space, in two formulations.

    Both exploit that v is constant in frame coordinates when the second
    factor is flat.  Form "a" carries the running charge through the
    accumulated displacement slots w (wdot = u), so

        udot_j = <lam0 + w v^T - v w^T, Om(f u, f_j)>.

    Form "b" is the second-order form in the development coordinates y:
    the charge correction enters as a curvature contraction with the
    chordal displacement,

        udot_j = <lam0, Om_j> + g(R(f u, f_j) f v0, f (y - y0))
               = <lam0, Om_j> + (y - y0)^T Om_j v0,

    with Om_j = Om(f u, f_j) from :func:`curvature_forms_along`, and y0 = 0.
    It is integrated as an independent code path: form "a" moves its frame
    with the kernel :class:`~rollgeo.geometry.MetricJet` (and on a surface
    carries the scalar charge), and form "b" with the Christoffel symbols,
    taking its curvature forms on a surface from the metric and
    ``gauss_curvature`` and above two dimensions from one Riemann tensor per
    right-hand side.  State layout for both: ``rn_layout``, ``[x, f, u, w]``,
    with the w slot holding y in form "b".
    """
    n = chart.dim
    layout = rn_layout(n)
    lam0 = np.asarray(lam0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    chart.validate(x0)

    if form not in ("a", "b"):
        raise ValueError("form must be 'a' or 'b'")
    x_slot, f_slot, u_slot, w_slot = (layout.slices[name] for name in "xfuw")
    if form == "a":
        if n == 2:
            # lam = ell E2 with ell = lam0_01 + w_0 v0_1 - w_1 v0_0, in the closed
            # form of the module docstring: udot = ell k (-u_1, u_0), k = kappa rho det f.
            ell0, (v00, v01) = lam0[0, 1], v0

            def force(jet, f, u, w):
                ell = ell0 + w[0] * v01 - w[1] * v00
                return ell * jet.kappa[0] * jet.rho[0] * _frame_det(f) * (u @ E2)
        else:
            def force(jet, f, u, w):
                lam = lam0 + np.outer(w, v0) - np.outer(v0, w)
                om = curvature_forms_along(chart, jet.xs[0], f, f @ u)
                return np.array([pair(lam, om[j]) for j in range(n)])

        def rhs(t, z):
            f, u, w = z[f_slot].reshape(1, n, n), z[u_slot], z[w_slot]
            jet = MetricJet((chart,), [z[x_slot]], curvature=n == 2)
            xdot = f @ u
            out = np.empty(layout.size)
            out[x_slot] = xdot[0]
            out[f_slot] = jet.frame_rate(xdot, f).ravel()
            out[u_slot] = force(jet, f[0], u, w)
            out[w_slot] = u
            return out
    else:
        def rhs(t, z):
            x, f, u, y = z[x_slot], z[f_slot].reshape(n, n), z[u_slot], z[w_slot]
            xdot = f @ u
            om = curvature_forms_along(chart, x, f, xdot)
            out = np.empty(layout.size)
            out[x_slot] = xdot
            out[f_slot] = (-gamma_contract(christoffel(chart, x), xdot) @ f).ravel()
            out[u_slot] = 0.5 * (om * lam0).sum((1, 2)) + om @ v0 @ y
            out[w_slot] = u
            return out

    def margin(z):
        return chart.margin(layout.split(z)["x"])

    def reproject(z):
        z = z.copy()
        d = layout.split(z)
        d["f"][:] = so_projection(d["f"], chart.validate(d["x"]))
        return z

    z0 = layout.pack(x=np.asarray(x0, float), f=np.asarray(f0, float),
                     u=np.asarray(u0, float), w=np.zeros(n))
    return integrate(rhs, z0, T, tol, margin=margin, reproject=reproject,
                     max_step=DENSE_MAX_STEP)


def charge_monitor(run: GeodesicRun, samples: int = 2000) -> dict:
    """Compare the integrated 2D charge with its line-integral reconstruction.

    For a surface rolling on the flat plane the scalar charge equals its
    initial value plus the flux of V through the contact curve: the
    integrand is the Riemannian area form evaluated on (contact velocity,
    V), which in frame coordinates is u_1 v_2 - u_2 v_1.  The
    reconstruction integrates this by trapezoid on the sample grid.
    """
    if run.dim != 2:
        raise DimensionError("charge monitor is a surface diagnostic")
    ts = run.grid(samples)
    d = run.split(run.traj.sample(ts))
    ell = d["lam"][:, 0, 1]
    xdot = (d["f"] @ d["u"][:, :, None])[:, :, 0]
    V = (d["f"] @ d["v"][:, :, None])[:, :, 0]
    rho = np.sqrt(np.linalg.det([run.chart.metric(x) for x in d["x"]]))
    integrand = rho * (xdot[:, 0] * V[:, 1] - xdot[:, 1] * V[:, 0])
    from scipy.integrate import cumulative_trapezoid

    recon = ell[0] + cumulative_trapezoid(integrand, ts, initial=0.0)
    return {
        "sup_error": float(np.abs(ell - recon).max()),
        "charge": ell,
        "reconstruction": recon,
        "t": ts,
    }
