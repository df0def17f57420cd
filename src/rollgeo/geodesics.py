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
the surface kernel :func:`rollgeo.geometry.surface_rate`: one
``metric_jet`` and one curvature per surface, on Python floats, since on
2-by-2 arrays numpy's fixed cost per call outweighs the arithmetic.  The
surface system takes a stack of states, one per row, and evaluates them
one at a time.  A metric with det g <= 0 gives nan there, which the
integrator rejects, never an exception.

The reduced system reads both charts through the same kernel, with
u = a (cos theta, sin theta); its memory channels need kappadot =
d kappa . xdot, one central difference of the curvature per surface
(:func:`rollgeo.geometry.surface_kappa_rate`).  Form "a" of the
flat-target flow pairs the running charge lam0 + w v0^T - v0 w^T with the
curvature forms; on a surface that is the kernel with the scalar charge
ell + w_0 v_1 - w_1 v_0.  Above two dimensions ``geodesic_rhs`` and
form "a", and :func:`rollgeo.rolling.develop` in every dimension, move
their frames by the same transport on numpy stacks,
:class:`~rollgeo.geometry.MetricJet`, whose frame rate the tests pin to the
kernel's; there the charge is a full skew matrix and the curvature forms
come from the curvature tensor, one state at a time.  Two paths stay on the
Christoffel symbols on purpose, so that the checks compare independent
code: the transport of form "b" and the slip and twist residual of
:func:`rollgeo.rolling.noslip_notwist_residual`.  Form "b" pairs the
charge with :func:`curvature_forms_along`, which on surfaces builds each
form from the identity above with one metric and one ``gauss_curvature``
and shares no code with the kernel.

Every state here begins with its configuration, the slots x, f and, for
two surfaces, xhat, fhat: :func:`rollgeo.rolling.contact_hooks` checks
it at the start, stops the run at a chart edge and re-orthonormalizes the
frames between chunks, and the runs read it back through
:class:`rollgeo.rolling.RollingRun`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .charts import Array, ChartMetric
from .errors import DimensionError
from .geometry import (MetricJet, christoffel, curvature_form_from_lowered, gauss_curvature,
                       riemann, surface_kappa, surface_kappa_rate, surface_rate)
from .integrate import (DEFAULT_TOL, DENSE_MAX_STEP, DERIV_STEP, Skew, StateLayout,
                        Trajectory, integrate)
from .integrate import skew_to_vec, vec_to_skew  # noqa: F401 (re-exported)
from .rolling import RollingConfiguration, RollingRun, contact_hooks
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

_PEND = PENDULUM_LAYOUT.slices


@lru_cache(maxsize=None)
def rn_layout(n: int) -> StateLayout:
    """State of rolling on flat space: ``[x, f, u, w]``."""
    return StateLayout(x=n, f=(n, n), u=n, w=n)


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
class GeodesicRun(RollingRun):
    """An integrated geodesic, ``geodesic_layout``; a stacked run has one row per state."""

    layout_for = staticmethod(geodesic_layout)

    def ends(self) -> dict:
        """Slots at the last node, one row per state of a stacked run."""
        return self.split(self.traj.y[-1].reshape(-1, geodesic_layout(self.dim).size))

    def state(self, t: float) -> RollingGeodesicState:
        d = self.split(self.traj.sample([t])[0])
        return RollingGeodesicState(cfg=self.configuration(t), u=d["u"], v=d["v"], lam=d["lam"])

    def speed_drift(self, m: int = 200) -> float:
        sp = [np.linalg.norm(u) for u in self.split(self.traj.sample(self.traj.grid(m)))["u"]]
        return float(max(sp) - min(sp))


def geodesic_rhs(chart: ChartMetric, chart_hat: ChartMetric, t: float, z: Array) -> Array:
    """Right-hand side of the normal-geodesic system at state ``z``.

    ``z`` is one state or a stack of states, one per row; a flat vector of
    several states is read as their stack.  The result has the shape of ``z``.
    Surfaces take the float kernel of the module docstring.  The branch above
    two dimensions serves the general flow that ``rn-roll`` compares form "a"
    with (its ``general_agreement``), which runs in every dimension.
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
    jet = MetricJet((chart, chart_hat), (x, xhat))
    fdot, fhatdot = jet.frame_rate(np.array([xdot, xhatdot]), np.array([f, fhat]))

    om = curvature_forms_along(chart, x, f, xdot)
    omhat = curvature_forms_along(chart_hat, xhat, fhat, xhatdot)
    udot = np.array([pair(lam, om[j] - omhat[j]) for j in range(n)])
    vdot = np.array([pair(lam, omhat[j]) for j in range(n)])
    return layout.pack(x=xdot, xhat=xhatdot, f=fdot, fhat=fhatdot, u=udot, v=vdot,
                       lam=np.outer(u, v) - np.outer(v, u))


# Size of the surface state; ``_surface_rhs`` unpacks its slots in the order of
# ``geodesic_layout(2)``: x, xhat, f, fhat, u, v and the scalar charge L.
_SIZE = geodesic_layout(2).size


def _surface_rhs(chart: ChartMetric, chart_hat: ChartMetric, z: Array) -> Array:
    """``geodesic_rhs`` for surfaces, in the closed form of the module docstring.

    Each state is read as Python floats and evaluated on its own: on 2-by-2
    metrics numpy's cost per call outweighs the arithmetic.
    """
    zs = z.reshape(-1, _SIZE)
    rows = []
    for i, (x0, x1, y0, y1, f00, f01, f10, f11, h00, h01, h10, h11,
            u0, u1, v0, v1, L) in enumerate(zs.tolist()):
        a, b, e00, e01, e10, e11, _, k = surface_rate(chart, zs[i, 0:2], f00, f01, f10, f11,
                                                      u0, u1)
        ah, bh, eh00, eh01, eh10, eh11, _, kh = surface_rate(chart_hat, zs[i, 2:4], h00, h01,
                                                            h10, h11, u0, u1)
        c, ch = L * (k - kh), L * kh
        rows.append((a, b, ah, bh, e00, e01, e10, e11, eh00, eh01, eh10, eh11,
                     -c * u1, c * u0, -ch * u1, ch * u0, u0 * v1 - u1 * v0))
    return np.array(rows).reshape(z.shape)


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

    def rhs(t, z):
        return geodesic_rhs(chart, chart_hat, t, z)

    z0 = np.concatenate([layout.pack(x=s.cfg.x, xhat=s.cfg.xhat, f=s.cfg.f, fhat=s.cfg.fhat,
                                     u=s.u, v=s.v, lam=s.lam) for s in states])
    margin, reproject = contact_hooks(layout, z0, chart, chart_hat)
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
class PendulumRun(RollingRun):
    """A reduced 2D run with curvature channels and quadrature slots.

    State layout ``PENDULUM_LAYOUT``: ``[x, xhat, f, fhat, theta, L, b1,
    b2, C, S]`` where C and S accumulate the integrals of cos(theta) w and
    sin(theta) w with w = rho^2 (kappa kappahatdot - kappadot kappahat),
    the separated kernel of the memory force.
    """

    layout_for = staticmethod(lambda n: PENDULUM_LAYOUT)

    a: float

    def channels(self, ts) -> dict:
        zs = self.traj.sample(ts)
        out = self.split(zs)
        out["kappa"], out["kappahat"] = _contact_curvatures(self.chart, self.chart_hat, zs)
        out["F"] = np.sin(out["theta"]) * out["C"] - np.cos(out["theta"]) * out["S"]
        return out

    def state(self, t: float) -> Pendulum2DState:
        d = self.split(self.traj.sample([t])[0])
        return Pendulum2DState(cfg=self.configuration(t), theta=d["theta"], L=d["L"],
                               b1=d["b1"], b2=d["b2"], a=self.a)


def _contact_curvatures(chart: ChartMetric, chart_hat: ChartMetric, zs: Array) -> Array:
    """kappa at x and kappahat at xhat, one entry per row of a stack of reduced states."""
    x, xhat = _PEND["x"], _PEND["xhat"]
    return np.array([(surface_kappa(chart, z[x]), surface_kappa(chart_hat, z[xhat]))
                     for z in zs]).T


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
    a = float(s0.a)
    x_slot, xhat_slot = _PEND["x"], _PEND["xhat"]

    def rhs(t, z):
        (_, _, _, _, f00, f01, f10, f11, h00, h01, h10, h11,
         theta, L, b1, b2, _, _) = z.tolist()
        # math.cos raises on an infinite angle: such a state gives nan instead,
        # for the integrator to reject
        c, s = (math.nan, math.nan) if math.isinf(theta) else (math.cos(theta), math.sin(theta))
        x, xhat, u0, u1 = z[x_slot], z[xhat_slot], a * c, a * s
        p0, p1, e00, e01, e10, e11, kap, _ = surface_rate(chart, x, f00, f01, f10, f11, u0, u1)
        q0, q1, eh00, eh01, eh10, eh11, kaphat, _ = surface_rate(chart_hat, xhat, h00, h01,
                                                                 h10, h11, u0, u1)
        kapdot = surface_kappa_rate(chart, x, p0, p1)
        kaphatdot = surface_kappa_rate(chart_hat, xhat, q0, q1)
        gap = kap - kaphat
        thetadot = L * gap
        rho = 1.0 / gap if abs(gap) >= RHO_FLOOR else 0.0
        w = rho * rho * (kap * kaphatdot - kapdot * kaphat)
        return np.array((p0, p1, q0, q1, e00, e01, e10, e11, eh00, eh01, eh10, eh11,
                         thetadot, a * b2, thetadot * b2, a * L * kaphat - thetadot * b1,
                         c * w, s * w))

    z0 = PENDULUM_LAYOUT.pack(x=s0.cfg.x, xhat=s0.cfg.xhat, f=s0.cfg.f, fhat=s0.cfg.fhat,
                              theta=s0.theta, L=s0.L, b1=s0.b1, b2=s0.b2, C=0.0, S=0.0)
    margin, reproject = contact_hooks(PENDULUM_LAYOUT, z0, chart, chart_hat)
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
    with the surface kernel :func:`~rollgeo.geometry.surface_rate` on a
    surface, where it carries the scalar charge, and with
    :class:`~rollgeo.geometry.MetricJet` above; form "b" moves it with the
    Christoffel symbols, taking its curvature forms on a surface from the
    metric and ``gauss_curvature`` and above two dimensions from one Riemann
    tensor per right-hand side.  State layout for both: ``rn_layout``, ``[x, f, u, w]``,
    with the w slot holding y in form "b".
    """
    n = chart.dim
    layout = rn_layout(n)
    lam0 = np.asarray(lam0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if form not in ("a", "b"):
        raise ValueError("form must be 'a' or 'b'")
    x_slot, f_slot, u_slot, w_slot = (layout.slices[name] for name in "xfuw")
    if form == "a" and n == 2:
        # lam = ell E2 with ell = lam0_01 + w_0 v0_1 - w_1 v0_0, in the closed
        # form of the module docstring: udot = ell k (-u_1, u_0), k = kappa rho det f.
        ell0, (v00, v01) = float(lam0[0, 1]), v0.tolist()

        def rhs(t, z):
            _, _, f00, f01, f10, f11, u0, u1, w0, w1 = z.tolist()
            a, b, e00, e01, e10, e11, _, k = surface_rate(chart, z[x_slot], f00, f01, f10,
                                                          f11, u0, u1)
            c = (ell0 + w0 * v01 - w1 * v00) * k
            return np.array((a, b, e00, e01, e10, e11, -c * u1, c * u0, u0, u1))
    elif form == "a":
        def rhs(t, z):
            x, f, u, w = z[x_slot], z[f_slot].reshape(n, n), z[u_slot], z[w_slot]
            xdot = f @ u
            lam = lam0 + np.outer(w, v0) - np.outer(v0, w)
            om = curvature_forms_along(chart, x, f, xdot)
            out = np.empty(layout.size)
            out[x_slot] = xdot
            out[f_slot] = MetricJet((chart,), [x]).frame_rate(xdot[None], f[None]).ravel()
            out[u_slot] = [pair(lam, om[j]) for j in range(n)]
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

    z0 = layout.pack(x=np.asarray(x0, float), f=np.asarray(f0, float),
                     u=np.asarray(u0, float), w=np.zeros(n))
    margin, reproject = contact_hooks(layout, z0, chart)
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
