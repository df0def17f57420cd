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
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .charts import Array, ChartMetric, fd_step
from .errors import DimensionError
from .geometry import (
    christoffel,
    curvature_form_from_lowered,
    gauss_curvature,
    riemann,
)
from .integrate import DEFAULT_TOL, Trajectory, integrate
from .rolling import RollingConfiguration, so_projection
from .transport import gamma_contract

E2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

RHO_FLOOR = 1e-3


def pair(A: Array, B: Array) -> float:
    """The so(n) inner product <A, B> = tr(A^T B) / 2."""
    return 0.5 * float(np.vdot(A, B))


def skew_to_vec(lam: Array) -> Array:
    """Strictly-upper-triangle coordinates of a skew matrix, row by row."""
    n = lam.shape[0]
    return np.array([lam[i, j] for i in range(n) for j in range(i + 1, n)])


def vec_to_skew(vec: Array, n: int) -> Array:
    lam = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            lam[i, j] = vec[k]
            lam[j, i] = -vec[k]
            k += 1
    return lam


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


def curvature_forms_along(chart: ChartMetric, x: Array, f: Array, X: Array) -> list[Array]:
    """The matrices Om(f)(X, f_j) for each frame index j.

    For surfaces this uses the Gaussian curvature and the area form (the
    realized orientation of the frame convention); in higher dimension it
    contracts the full curvature tensor.
    """
    n = chart.dim
    if n == 2:
        kap = gauss_curvature(chart, x)
        dens = np.sqrt(np.linalg.det(chart.metric(x)))
        return [kap * dens * (X[0] * f[1, j] - X[1] * f[0, j]) * E2 for j in range(2)]
    _, low = riemann(chart, x)
    return [curvature_form_from_lowered(low, f, X, f[:, j]) for j in range(n)]


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
        n = self.dim
        m = n * n
        out = {
            "x": z[:n],
            "xhat": z[n:2 * n],
            "f": z[2 * n:2 * n + m].reshape(n, n),
            "fhat": z[2 * n + m:2 * n + 2 * m].reshape(n, n),
            "u": z[2 * n + 2 * m:3 * n + 2 * m],
            "v": z[3 * n + 2 * m:4 * n + 2 * m],
        }
        out["lam"] = vec_to_skew(z[4 * n + 2 * m:], n)
        return out

    def state(self, t: float) -> RollingGeodesicState:
        d = self.split(self.traj.sample([t])[0])
        cfg = RollingConfiguration(chart=self.chart, chart_hat=self.chart_hat,
                                   x=d["x"], xhat=d["xhat"], f=d["f"], fhat=d["fhat"])
        return RollingGeodesicState(cfg=cfg, u=d["u"], v=d["v"], lam=d["lam"])

    def speed_drift(self, m: int = 200) -> float:
        sp = [np.linalg.norm(self.split(z)["u"]) for z in self.traj.sample(self.traj.grid(m))]
        return float(max(sp) - min(sp))

    def grid(self, m: int) -> Array:
        return self.traj.grid(m)


def pack_state(s: RollingGeodesicState) -> Array:
    return np.concatenate([
        s.cfg.x, s.cfg.xhat, s.cfg.f.ravel(), s.cfg.fhat.ravel(),
        s.u, s.v, skew_to_vec(s.lam),
    ])


def geodesic_rhs(chart: ChartMetric, chart_hat: ChartMetric, t: float, z: Array) -> Array:
    n = chart.dim
    m = n * n
    x, xhat = z[:n], z[n:2 * n]
    f = z[2 * n:2 * n + m].reshape(n, n)
    fhat = z[2 * n + m:2 * n + 2 * m].reshape(n, n)
    u = z[2 * n + 2 * m:3 * n + 2 * m]
    v = z[3 * n + 2 * m:4 * n + 2 * m]
    lam = vec_to_skew(z[4 * n + 2 * m:], n)

    xdot = f @ u
    xhatdot = fhat @ u
    fdot = -gamma_contract(christoffel(chart, x), xdot) @ f
    fhatdot = -gamma_contract(christoffel(chart_hat, xhat), xhatdot) @ fhat

    om = curvature_forms_along(chart, x, f, xdot)
    omhat = curvature_forms_along(chart_hat, xhat, fhat, xhatdot)
    udot = np.array([pair(lam, om[j] - omhat[j]) for j in range(n)])
    vdot = np.array([pair(lam, omhat[j]) for j in range(n)])
    lamdot = np.outer(u, v) - np.outer(v, u)
    return np.concatenate([xdot, xhatdot, fdot.ravel(), fhatdot.ravel(),
                           udot, vdot, skew_to_vec(lamdot)])


def integrate_geodesic(
    s0: RollingGeodesicState,
    T: float,
    tol: float = DEFAULT_TOL,
    max_step: float = 0.02,
) -> GeodesicRun:
    """Integrate the normal-geodesic system from ``s0`` for time ``T``."""
    chart, chart_hat = s0.cfg.chart, s0.cfg.chart_hat
    n = chart.dim
    m = n * n
    chart.validate(s0.cfg.x)
    chart_hat.validate(s0.cfg.xhat)

    def rhs(t, z):
        return geodesic_rhs(chart, chart_hat, t, z)

    def margin(z):
        return min(chart.margin(z[:n]), chart_hat.margin(z[n:2 * n]))

    def reproject(z):
        z = z.copy()
        f = z[2 * n:2 * n + m].reshape(n, n)
        fhat = z[2 * n + m:2 * n + 2 * m].reshape(n, n)
        z[2 * n:2 * n + m] = so_projection(f, chart.validate(z[:n])).ravel()
        z[2 * n + m:2 * n + 2 * m] = so_projection(
            fhat, chart_hat.validate(z[n:2 * n])).ravel()
        return z

    traj = integrate(rhs, pack_state(s0), T, tol, margin=margin,
                     reproject=reproject, max_step=max_step)
    traj.meta["charts"] = (chart.label, chart_hat.label)
    return GeodesicRun(chart=chart, chart_hat=chart_hat, traj=traj)


def theorem_residual(run: GeodesicRun, samples: int = 100) -> float:
    """Sup residual of the geodesic equations along the dense output.

    Differentiates the carried u, v and charge slots by central
    differences of the interpolant and compares with the right-hand side
    recomputed from the sampled state.
    """
    n = run.dim
    m = n * n
    h = 1e-6
    ts = np.clip(run.grid(samples), run.traj.t0 + h, run.traj.t1 - h)
    worst = 0.0
    for t in ts:
        zm, z0, zp = run.traj.sample([t - h, t, t + h])
        want = geodesic_rhs(run.chart, run.chart_hat, t, z0)
        got = (zp - zm) / (2 * h)
        sl = slice(2 * n + 2 * m, None)  # u, v, lam slots
        worst = max(worst, float(np.abs(got[sl] - want[sl]).max()))
    return worst


def vtilde_symmetry_check(run: GeodesicRun, samples: int = 100) -> dict:
    """Residuals of the shifted-field identities along a geodesic run.

    With vtilde = v + u the charge equation keeps its form and the
    evolution of vtilde couples to the first surface's curvature alone:

        d/dt lam = u vtilde^T - vtilde u^T
        d/dt (v + u)_j = <lam, Om(f u, f_j)>.
    """
    n = run.dim
    m = n * n
    h = 1e-6
    ts = np.clip(run.grid(samples), run.traj.t0 + h, run.traj.t1 - h)
    res_lam = res_v = 0.0
    for t in ts:
        zm, z0, zp = run.traj.sample([t - h, t, t + h])
        d = run.split(z0)
        u, v, lam = d["u"], d["v"], d["lam"]
        vt = v + u
        dm, dp = run.split(zm), run.split(zp)
        lamdot = (dp["lam"] - dm["lam"]) / (2 * h)
        want_lam = np.outer(u, vt) - np.outer(vt, u)
        res_lam = max(res_lam, float(np.abs(lamdot - want_lam).max()))
        vtdot = ((dp["v"] + dp["u"]) - (dm["v"] + dm["u"])) / (2 * h)
        om = curvature_forms_along(run.chart, d["x"], d["f"], d["f"] @ u)
        want_vt = np.array([pair(lam, om[j]) for j in range(n)])
        res_v = max(res_v, float(np.abs(vtdot - want_vt).max()))
    return {"charge": res_lam, "field": res_v}


# ---------------------------------------------------------------------------
# 2D reduction

def _kappa_grad(chart: ChartMetric, x: Array) -> Array:
    h = fd_step(x)
    out = np.empty(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        out[k] = (gauss_curvature(chart, x + e) - gauss_curvature(chart, x - e)) / (2 * h)
    return out


@dataclass
class PendulumRun:
    """A reduced 2D run with curvature channels and quadrature slots.

    State layout: ``[x, xhat, f, fhat, theta, L, b1, b2, C, S]`` where C
    and S accumulate the integrals of cos(theta) w and sin(theta) w with
    w = rho^2 (kappa kappahatdot - kappadot kappahat), the separated
    kernel of the memory force.
    """

    chart: ChartMetric
    chart_hat: ChartMetric
    a: float
    traj: Trajectory

    IDX = {"theta": 12, "L": 13, "b1": 14, "b2": 15, "C": 16, "S": 17}

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
        out = {name: zs[:, i] for name, i in self.IDX.items()}
        out["x"] = zs[:, 0:2]
        out["xhat"] = zs[:, 2:4]
        out["kappa"] = np.array([gauss_curvature(self.chart, p) for p in out["x"]])
        out["kappahat"] = np.array([gauss_curvature(self.chart_hat, p) for p in out["xhat"]])
        out["F"] = np.sin(out["theta"]) * out["C"] - np.cos(out["theta"]) * out["S"]
        return out

    def state(self, t: float) -> Pendulum2DState:
        z = self.traj.sample([t])[0]
        cfg = RollingConfiguration(chart=self.chart, chart_hat=self.chart_hat,
                                   x=z[0:2], xhat=z[2:4],
                                   f=z[4:8].reshape(2, 2), fhat=z[8:12].reshape(2, 2))
        return Pendulum2DState(cfg=cfg, theta=z[12], L=z[13], b1=z[14], b2=z[15],
                               a=self.a)


def reduce_2d(
    s0: Pendulum2DState,
    T: float,
    tol: float = DEFAULT_TOL,
    max_step: float = 0.02,
) -> PendulumRun:
    """Integrate the reduced surface-on-surface geodesic system.

    Runs entirely in the scalar variables (theta, L, b1, b2) plus the
    carried contact geometry; the auxiliary C and S slots advance the
    separated memory-force quadrature alongside the stepper.  Windows
    where |kappa - kappahat| drops below the floor are flagged in the
    metadata since the pendulum-form constants divide by it.
    """
    chart, chart_hat = s0.cfg.chart, s0.cfg.chart_hat
    if chart.dim != 2:
        raise DimensionError("reduce_2d requires surfaces")
    chart.validate(s0.cfg.x)
    chart_hat.validate(s0.cfg.xhat)
    a = s0.a
    singular = [False]

    def rhs(t, z):
        x, xhat = z[0:2], z[2:4]
        f = z[4:8].reshape(2, 2)
        fhat = z[8:12].reshape(2, 2)
        theta, L, b1, b2 = z[12:16]
        kap = gauss_curvature(chart, x)
        kaphat = gauss_curvature(chart_hat, xhat)
        gap = kap - kaphat
        if abs(gap) < RHO_FLOOR:
            singular[0] = True
        c, s = np.cos(theta), np.sin(theta)
        u = a * np.array([c, s])
        xdot = f @ u
        xhatdot = fhat @ u
        fdot = -gamma_contract(christoffel(chart, x), xdot) @ f
        fhatdot = -gamma_contract(christoffel(chart_hat, xhat), xhatdot) @ fhat
        thetadot = L * gap
        Ldot = a * b2
        b1dot = thetadot * b2
        b2dot = a * L * kaphat - thetadot * b1
        kapdot = float(_kappa_grad(chart, x) @ xdot)
        kaphatdot = float(_kappa_grad(chart_hat, xhat) @ xhatdot)
        rho = 1.0 / gap if abs(gap) >= RHO_FLOOR else 0.0
        w = rho * rho * (kap * kaphatdot - kapdot * kaphat)
        return np.concatenate([
            xdot, xhatdot, fdot.ravel(), fhatdot.ravel(),
            [thetadot, Ldot, b1dot, b2dot, c * w, s * w],
        ])

    def margin(z):
        return min(chart.margin(z[0:2]), chart_hat.margin(z[2:4]))

    def reproject(z):
        z = z.copy()
        z[4:8] = so_projection(z[4:8].reshape(2, 2), chart.validate(z[0:2])).ravel()
        z[8:12] = so_projection(z[8:12].reshape(2, 2), chart_hat.validate(z[2:4])).ravel()
        return z

    z0 = np.concatenate([
        s0.cfg.x, s0.cfg.xhat, s0.cfg.f.ravel(), s0.cfg.fhat.ravel(),
        [s0.theta, s0.L, s0.b1, s0.b2, 0.0, 0.0],
    ])
    traj = integrate(rhs, z0, T, tol, margin=margin, reproject=reproject,
                     max_step=max_step)
    traj.meta["charts"] = (chart.label, chart_hat.label)
    traj.meta["rho_singular"] = singular[0]
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
    h = 1e-6
    tc = np.clip(ts, run.traj.t0 + h, run.traj.t1 - h)
    lo, hi = run.channels(tc - h), run.channels(tc + h)
    kapdot = (hi["kappa"] - lo["kappa"]) / (2 * h)
    kaphatdot = (hi["kappahat"] - lo["kappahat"]) / (2 * h)
    w = rho * rho * (ch["kappa"] * kaphatdot - kapdot * ch["kappahat"])
    from scipy.integrate import cumulative_simpson

    C = cumulative_simpson(np.cos(th) * w, x=ts, initial=0.0)
    S = cumulative_simpson(np.sin(th) * w, x=ts, initial=0.0)
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
    max_step: float = 0.02,
) -> Trajectory:
    """Geodesic rolling of a surface on flat space, in two formulations.

    Both exploit that v is constant in frame coordinates when the second
    factor is flat.  Form "a" carries the running charge through the
    accumulated displacement slots w (wdot = u), so

        udot_j = <lam0 + w v^T - v w^T, Om(f u, f_j)>.

    Form "b" is the second-order form in the development coordinates y:
    the charge correction enters as a curvature contraction with the
    chordal displacement,

        udot_j = <lam0, Om(f u, f_j)> + g(R(f u, f_j) f v0, f (y - y0)),

    integrated as an independent code path.  State layout for both:
    ``[x, f, u, w-or-y]``.
    """
    n = chart.dim
    m = n * n
    lam0 = np.asarray(lam0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    chart.validate(x0)

    if form == "a":
        def force(x, f, u, w):
            xdot = f @ u
            lam = lam0 + np.outer(w, v0) - np.outer(v0, w)
            om = curvature_forms_along(chart, x, f, xdot)
            return np.array([pair(lam, om[j]) for j in range(n)])
    elif form == "b":
        def force(x, f, u, y):
            xdot = f @ u
            om = curvature_forms_along(chart, x, f, xdot)
            base = np.array([pair(lam0, om[j]) for j in range(n)])
            _, low = riemann(chart, x)
            fv = f @ v0
            fy = f @ y
            corr = np.array([
                np.einsum("ijkl,i,j,k,l->", low, xdot, f[:, j], fy, fv)
                for j in range(n)
            ])
            return base + corr
    else:
        raise ValueError("form must be 'a' or 'b'")

    def rhs(t, z):
        x = z[:n]
        f = z[n:n + m].reshape(n, n)
        u = z[n + m:2 * n + m]
        w = z[2 * n + m:]
        xdot = f @ u
        fdot = -gamma_contract(christoffel(chart, x), xdot) @ f
        return np.concatenate([xdot, fdot.ravel(), force(x, f, u, w), u])

    def margin(z):
        return chart.margin(z[:n])

    def reproject(z):
        z = z.copy()
        z[n:n + m] = so_projection(z[n:n + m].reshape(n, n), chart.validate(z[:n])).ravel()
        return z

    z0 = np.concatenate([np.asarray(x0, float), np.asarray(f0, float).ravel(),
                         np.asarray(u0, float), np.zeros(n)])
    traj = integrate(rhs, z0, T, tol, margin=margin, reproject=reproject,
                     max_step=max_step)
    traj.meta["chart"] = chart.label
    traj.meta["form"] = form
    return traj


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
    ell = np.empty(len(ts))
    integrand = np.empty(len(ts))
    for i, z in enumerate(run.traj.sample(ts)):
        d = run.split(z)
        ell[i] = d["lam"][0, 1]
        g = run.chart.metric(d["x"])
        xdot = d["f"] @ d["u"]
        V = d["f"] @ d["v"]
        integrand[i] = np.sqrt(np.linalg.det(g)) * (xdot[0] * V[1] - xdot[1] * V[0])
    from scipy.integrate import cumulative_trapezoid

    recon = ell[0] + cumulative_trapezoid(integrand, ts, initial=0.0)
    return {
        "sup_error": float(np.abs(ell - recon).max()),
        "charge": ell,
        "reconstruction": recon,
        "t": ts,
    }
