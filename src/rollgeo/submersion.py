"""Horizontal lifts over a coordinate submersion and projection checks.

The setting is a product chart (x, y) with x the base coordinates and y
the fiber coordinates of a submersion.  A connection is given through its
horizontal-lift coefficients A: the horizontal lift of the base coordinate
vector d_{x_i} is d_{x_i} + sum_k A[k, i] d_{y_k}.  Covectors upstairs are
written p = sum_i a_i dx_i + sum_k b_k (dy_k - sum_i A[k, i] dx_i), so the
(x, a) slots transform as a base covector and the b slots live in the
annihilator of the horizontal space.

Three flows are provided: the canonical Hamiltonian flow of the lifted
Hamiltonian upstairs, the transport of annihilator forms along horizontal
curves, and the projected flow downstairs in which the base Hamiltonian
flow picks up a curvature force coupled to the transported form.  The
projection identity says the first, pushed down, equals the second two;
``verify_projection`` measures this numerically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .charts import Array, ChartMetric, central_diff, chart_by_name, fd_step
from .errors import DimensionError, HorizontalityError
from .geometry import cholesky_frame_jet
from .integrate import DEFAULT_TOL, StateLayout, Trajectory, integrate


@dataclass(frozen=True)
class SubmersionTestbed:
    """A coordinate submersion with connection coefficients ``A(x, y)``.

    ``A`` returns a (fiber_dim, base_dim) array; column i holds the fiber
    components of the horizontal lift of d_{x_i}.  ``jet`` returns the
    triple ``(A, dAx, dAy)`` with ``dAx[j] = d A / d x_j`` and
    ``dAy[m] = d A / d y_m``, all three from one evaluation of the
    testbed's data; the flows' right-hand sides make one ``jet`` call per
    evaluation, and ``A`` alone serves the conversions between canonical
    and adapted states.  ``margin(x, y)`` is positive on the working
    domain.  ``validate(x, y)`` checks a flow's start state and raises if
    the testbed's data are unusable there; the flows call it once, before
    integrating.
    """

    base_dim: int
    fiber_dim: int
    A: Callable[[Array, Array], Array]
    jet: Callable[[Array, Array], tuple[Array, Array, Array]]
    margin: Callable[[Array, Array], float] = lambda x, y: 1.0
    validate: Callable[[Array, Array], None] = lambda x, y: None
    label: str = ""
    params: dict = field(default_factory=dict)

    def coefficients(self, x: Array, y: Array) -> Array:
        A = np.asarray(self.A(np.asarray(x, float), np.asarray(y, float)), float)
        self._check_shape("A", A, ())
        return A

    def coefficient_derivs(self, x: Array, y: Array) -> tuple[Array, Array, Array]:
        """``(A, dAx, dAy)`` at (x, y), from the testbed's ``jet``."""
        A, dAx, dAy = (np.asarray(v, float) for v in
                       self.jet(np.asarray(x, float), np.asarray(y, float)))
        self._check_shape("A", A, ())
        self._check_shape("dAx", dAx, (self.base_dim,))
        self._check_shape("dAy", dAy, (self.fiber_dim,))
        return A, dAx, dAy

    def _check_shape(self, name: str, value: Array, lead: tuple) -> None:
        want = lead + (self.fiber_dim, self.base_dim)
        if value.shape != want:
            raise DimensionError(f"{name} has shape {value.shape}, expected {want}")


@dataclass(frozen=True)
class CotangentState:
    """Covector upstairs in the adapted presentation (x, y, a, b)."""

    x: Array
    y: Array
    a: Array
    b: Array

    def __post_init__(self):
        for name in ("x", "y", "a", "b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True)
class BaseHamiltonian:
    """A Hamiltonian H(x, a) on the base, with optional analytic gradient.

    ``grad(x, a)`` returns ``(dH_dx, dH_da)``; central differences are used
    when it is absent.
    """

    H: Callable[[Array, Array], float]
    grad: Optional[Callable[[Array, Array], tuple[Array, Array]]] = None
    label: str = ""

    def value(self, x: Array, a: Array) -> float:
        return float(self.H(x, a))

    def gradient(self, x: Array, a: Array) -> tuple[Array, Array]:
        if self.grad is not None:
            dx, da = self.grad(x, a)
            return np.asarray(dx, float), np.asarray(da, float)
        h = fd_step(np.concatenate([x, a]))
        return (central_diff(lambda p: self.H(p, a), x, h),
                central_diff(lambda p: self.H(x, p), a, h))


def free_hamiltonian(n: int = 2) -> BaseHamiltonian:
    """H = |a|^2 / 2 with the flat kinetic term."""
    return BaseHamiltonian(
        H=lambda x, a: 0.5 * float(a @ a),
        grad=lambda x, a: (np.zeros(n), np.asarray(a, float)),
        label="free",
    )


def kinetic_hamiltonian(chart: ChartMetric) -> BaseHamiltonian:
    """H = a . g^-1(x) a / 2, whose flow is the chart's geodesic flow."""

    def H(x, a):
        return 0.5 * float(a @ np.linalg.solve(chart.metric(x), a))

    def grad(x, a):
        g, dg = chart.metric_jet(x)
        ginv_a = np.linalg.solve(g, a)
        dx = -0.5 * np.einsum("i,kij,j->k", ginv_a, dg, ginv_a)
        return dx, ginv_a

    return BaseHamiltonian(H=H, grad=grad, label=f"kinetic[{chart.label}]")


# ---------------------------------------------------------------------------
# Connection coefficients

def connection_coefficients(tb: SubmersionTestbed, x: Array, y: Array) -> tuple[Array, Array]:
    """Transport coefficients and curvature of the connection at (x, y).

    Returns ``(Gbar, R)`` with ``Gbar[m, i, k] = d A[m, i] / d y_k`` (the
    coefficient multiplying xdot_i b_m in the form-transport law) and
    ``R[k, i, j]`` the fiber components of the bracket of the horizontal
    lifts of d_{x_i} and d_{x_j}:

        R[k, i, j] = d_{x_i} A[k, j] - d_{x_j} A[k, i]
                     + A[m, i] d_{y_m} A[k, j] - A[m, j] d_{y_m} A[k, i].
    """
    return _transport_and_curvature(*tb.coefficient_derivs(x, y))


def _transport_and_curvature(A: Array, dAx: Array, dAy: Array) -> tuple[Array, Array]:
    """``(Gbar, R)`` of :func:`connection_coefficients` from A and its partials."""
    Gbar = dAy.transpose(1, 2, 0)  # Gbar[m, i, k] = dAy[k, m, i]
    dxA = dAx.transpose(1, 0, 2)  # dxA[k, i, j] = d_{x_i} A[k, j]
    R = (
        dxA
        - dxA.transpose(0, 2, 1)
        + np.einsum("mi,mkj->kij", A, dAy)
        - np.einsum("mj,mki->kij", A, dAy)
    )
    return Gbar, R


# ---------------------------------------------------------------------------
# Flows

@lru_cache(maxsize=None)
def canonical_layout(n: int, nu: int) -> StateLayout:
    """State of the lifted flow upstairs: ``[x, y, Px, Py]``."""
    return StateLayout(x=n, y=nu, Px=n, Py=nu)


@lru_cache(maxsize=None)
def force_layout(n: int, nu: int) -> StateLayout:
    """State of the projected force flow downstairs: ``[x, a, b, y]``."""
    return StateLayout(x=n, a=n, b=nu, y=nu)


def lifted_energy(tb: SubmersionTestbed, H: BaseHamiltonian, z: Array) -> float:
    """The lifted Hamiltonian evaluated on a canonical state [x, y, Px, Py]."""
    s = canonical_to_state(tb, z)
    return H.value(s.x, s.a)


def canonical_to_state(tb: SubmersionTestbed, z: Array) -> CotangentState:
    """Read a canonical state back into the adapted (x, y, a, b) presentation."""
    d = canonical_layout(tb.base_dim, tb.fiber_dim).split(z)
    A = tb.coefficients(d["x"], d["y"])
    return CotangentState(x=d["x"], y=d["y"], a=d["Px"] + A.T @ d["Py"], b=d["Py"])


def state_to_canonical(tb: SubmersionTestbed, s: CotangentState) -> Array:
    A = tb.coefficients(s.x, s.y)
    return canonical_layout(tb.base_dim, tb.fiber_dim).pack(
        x=s.x, y=s.y, Px=s.a - A.T @ s.b, Py=s.b)


def lifted_hamiltonian_flow(
    tb: SubmersionTestbed,
    H: BaseHamiltonian,
    s0: CotangentState,
    T: float,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Canonical Hamiltonian flow of the lifted Hamiltonian upstairs.

    The integration state is canonical, ``[x, y, Px, Py]``, where the
    symplectic form has its standard coefficients; the adapted (a, b)
    presentation is recovered per sample with :func:`canonical_to_state`.
    """
    layout = canonical_layout(tb.base_dim, tb.fiber_dim)
    tb.validate(s0.x, s0.y)

    def rhs(t, z):
        d = layout.split(z)
        x, y, Py = d["x"], d["y"], d["Py"]
        A, dAx, dAy = tb.coefficient_derivs(x, y)
        Hx, Ha = H.gradient(x, d["Px"] + A.T @ Py)
        return layout.pack(x=Ha, y=A @ Ha,
                           Px=-Hx - np.einsum("i,k,jki->j", Ha, Py, dAx),
                           Py=-np.einsum("i,k,mki->m", Ha, Py, dAy))

    def margin(z):
        d = layout.split(z)
        return tb.margin(d["x"], d["y"])

    return integrate(rhs, state_to_canonical(tb, s0), T, tol, margin=margin)


def nabla_bar_form_transport(
    tb: SubmersionTestbed,
    curve: Callable[[float], tuple[Array, Array]],
    curve_dot: Callable[[float], tuple[Array, Array]],
    beta0: Array,
    T: float,
    tol: float = DEFAULT_TOL,
    horizontal_tol: float = 1e-6,
) -> Trajectory:
    """Transport an annihilator form along a horizontal curve.

    ``curve(t)`` returns ``(x, y)`` and ``curve_dot(t)`` the velocities.
    The curve must be horizontal (``ydot = A xdot``); the worst compliance
    residual over a probe grid is checked first and a violation raises
    :class:`HorizontalityError`.  The transport law is

        bdot[k] = - sum_{i, m} xdot_i b_m Gbar[m, i, k].
    """
    worst = 0.0
    for t in np.linspace(0.0, T, 17):
        x, y = curve(t)
        xdot, ydot = curve_dot(t)
        res = np.abs(ydot - tb.coefficients(x, y) @ xdot).max() if tb.fiber_dim else 0.0
        worst = max(worst, float(res))
    if worst > horizontal_tol:
        raise HorizontalityError(
            f"curve is not horizontal: compliance residual {worst:.3e} > {horizontal_tol:g}"
        )

    def rhs(t, b):
        x, y = curve(t)
        xdot, _ = curve_dot(t)
        Gbar, _ = connection_coefficients(tb, x, y)
        return -np.einsum("i,m,mik->k", xdot, b, Gbar)

    return integrate(rhs, np.asarray(beta0, dtype=float), T, tol)


def projected_force_flow(
    tb: SubmersionTestbed,
    H: BaseHamiltonian,
    x0: Array,
    a0: Array,
    beta0: Array,
    T: float,
    tol: float = DEFAULT_TOL,
    y0: Optional[Array] = None,
) -> Trajectory:
    """Base Hamiltonian flow with the curvature force, downstairs.

    State layout ``[x, a, b, y]``: the base covector (x, a) follows the
    Hamiltonian vector field of H plus the force term coupling b to the
    connection curvature; b follows the annihilator transport along the
    horizontal lift of the base curve, which is integrated simultaneously
    in the trailing y slots,

        adot[j] = -dH/dx_j + sum_{k, i} b_k R[k, i, j] xdot_i.
    """
    layout = force_layout(tb.base_dim, tb.fiber_dim)
    if y0 is None:
        y0 = np.zeros(tb.fiber_dim)
    tb.validate(np.asarray(x0, float), np.asarray(y0, float))

    def rhs(t, z):
        d = layout.split(z)
        x, b, y = d["x"], d["b"], d["y"]
        A, dAx, dAy = tb.coefficient_derivs(x, y)
        Gbar, R = _transport_and_curvature(A, dAx, dAy)
        Hx, Ha = H.gradient(x, d["a"])
        xdot = Ha
        return layout.pack(x=xdot, a=-Hx + np.einsum("k,kij,i->j", b, R, xdot),
                           b=-np.einsum("i,m,mik->k", xdot, b, Gbar), y=A @ xdot)

    def margin(z):
        d = layout.split(z)
        return tb.margin(d["x"], d["y"])

    z0 = layout.pack(x=np.asarray(x0, float), a=np.asarray(a0, float),
                     b=np.asarray(beta0, float), y=np.asarray(y0, float))
    return integrate(rhs, z0, T, tol, margin=margin)


def verify_projection(
    tb: SubmersionTestbed,
    H: BaseHamiltonian,
    s0: CotangentState,
    T: float,
    tol: float = DEFAULT_TOL,
    samples: int = 200,
) -> dict:
    """Measure agreement between the lifted flow, pushed down, and the
    projected force flow started from the matched initial data.

    Both flows are sampled at ``samples`` evenly spaced times.  Returns a
    report with the three sup-norm discrepancies: the base covector path
    (x, a), the transported form b, and the fiber path y of the horizontal
    lift, the drift of the lifted energy, the sample times as ``ts`` and
    the lifted flow's states there, in the adapted presentation, as
    ``lifted`` (one stacked array per slot ``x``, ``y``, ``a``, ``b``).
    """
    up = lifted_hamiltonian_flow(tb, H, s0, T, tol)
    down = projected_force_flow(tb, H, s0.x, s0.a, s0.b, T, tol, y0=s0.y)

    t1 = min(abs(up.t1), abs(down.t1)) * np.sign(T if T else 1.0)
    ts = np.linspace(0.0, t1, samples)
    ups = [canonical_to_state(tb, z) for z in up.sample(ts)]
    lifted = {slot: np.array([getattr(s, slot) for s in ups]) for slot in ("x", "y", "a", "b")}
    d = force_layout(tb.base_dim, tb.fiber_dim).split(down.sample(ts))

    def sup_error(slot):
        return float(np.abs(lifted[slot] - d[slot]).max())

    e0 = lifted_energy(tb, H, up.y[0])
    return {
        "sup_error_lambda": max(sup_error("x"), sup_error("a")),
        "sup_error_beta": sup_error("b"),
        "sup_error_lift": sup_error("y"),
        "energy_drift": float(max(abs(H.value(s.x, s.a) - e0) for s in ups)),
        "truncated": bool(up.truncated or down.truncated),
        "ts": ts,
        "lifted": lifted,
    }


# ---------------------------------------------------------------------------
# Testbed catalog

def trivial(n: int = 2, nu: int = 1) -> SubmersionTestbed:
    """Product connection: A = 0, so the lift is flat and b is constant."""
    zero = np.zeros((nu, n))
    jet = (zero, np.zeros((n, nu, n)), np.zeros((nu, nu, n)))
    return SubmersionTestbed(
        base_dim=n, fiber_dim=nu,
        A=lambda x, y: zero,
        jet=lambda x, y: jet,
        label=f"trivial({n},{nu})",
        params={"n": n, "nu": nu},
    )


def heisenberg() -> SubmersionTestbed:
    """The standard contact-type connection on R^2 x R.

    A = (-x2/2, x1/2): the curvature is the constant area form, the
    transport coefficients vanish, and free projected motion is circular.
    """
    dAx = np.zeros((2, 1, 2))
    dAx[0, 0, 1] = 0.5
    dAx[1, 0, 0] = -0.5
    dAy = np.zeros((1, 1, 2))

    def A(x, y):
        return np.array([[-0.5 * x[1], 0.5 * x[0]]])

    return SubmersionTestbed(
        base_dim=2, fiber_dim=1,
        A=A,
        jet=lambda x, y: (A(x, y), dAx, dAy),
        label="heisenberg",
    )


_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # d Rot / d psi = Rot J


def _rot(psi: float) -> Array:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s], [s, c]])


def frame_bundle(chart: ChartMetric, chart_hat: ChartMetric) -> SubmersionTestbed:
    """Rolling of one surface on another, viewed as a submersion testbed.

    Base coordinates are the contact point x on the first surface.  Fiber
    coordinates ``y = (psi, xhat, psihat)`` hold the frame angle on the
    first surface, the contact point on the second, and the frame angle
    there; frames are ``f = E(x) Rot(psi)`` with E the canonical
    orthonormal frame of each chart.  The horizontal lift of a base
    direction moves both frames by parallel transport and the second
    contact point by the no-slip rule, so horizontal curves are exactly
    the rolling motions.

    The coefficients have the rows

        A = [w(x)^T;  q;  c(xhat)^T q],   q = Ehat(xhat) Rot(psihat - psi) E(x)^-1,

    with w_k and c_k the spins of the canonical frames along d_k (see
    :class:`rollgeo.geometry.FrameJet`) and q the tangent isometry.  The
    angles enter only through Rot(psihat - psi), a shift in x only through
    the first chart and one in xhat only through the second, so every
    partial is analytic except those of the spins, which are one-chart
    central differences.  With J the quarter turn, d Rot / d psi = Rot J,

        d_psi q = -Ehat Rot J E^-1 = -d_psihat q,   d_{x_j} q = -q d_jE E^-1,
        d_{xhat_m} q = d_mEhat Ehat^-1 q.

    ``jet`` thus costs one frame evaluation per chart plus four more per
    chart for the spin differences.  The bracket of the horizontal lifts
    of d_{x_1} and d_{x_2}, divided by the area density sqrt(det g), is
    (kappa(x), 0, 0, kappahat(xhat)) in (psi, xhat, psihat): the relative
    angle psihat - psi picks up the difference of the two Gaussian
    curvatures per unit area swept.
    """
    if chart.dim != 2 or chart_hat.dim != 2:
        raise DimensionError("frame_bundle testbed requires two 2D charts")

    def spin(ch, p):
        return cholesky_frame_jet(ch, p).omega[:, 0, 1]

    def rows(w, q, c):
        # Stack [w; q; c q] along the row axis, for one A or a stack of partials.
        return np.concatenate([w[..., None, :], q, (c @ q)[..., None, :]], axis=-2)

    def frames(x, y):
        F, Fh = cholesky_frame_jet(chart, x), cholesky_frame_jet(chart_hat, y[1:3])
        R = _rot(y[3] - y[0])
        return F, Fh, R, Fh.E @ R @ F.Einv

    def A(x, y):
        F, Fh, _, q = frames(x, y)
        return rows(F.omega[:, 0, 1], q, Fh.omega[:, 0, 1])

    def jet(x, y):
        F, Fh, R, q = frames(x, y)
        w, c = F.omega[:, 0, 1], Fh.omega[:, 0, 1]
        q_angle = Fh.E @ (R @ _J) @ F.Einv  # d q / d(psihat - psi)
        q_x = -q @ F.dE @ F.Einv  # q_x[j] = d q / d x_j
        q_xhat = Fh.dE @ Fh.Einv @ q  # q_xhat[m] = d q / d xhat_m
        dw = central_diff(lambda p: spin(chart, p), x)  # dw[j, k] = d_j w_k
        dc = central_diff(lambda p: spin(chart_hat, p), y[1:3])
        dAx = rows(dw, q_x, c)
        dAy = rows(np.zeros((4, 2)), np.stack([-q_angle, *q_xhat, q_angle]), c)
        dAy[1:3, 3] += dc @ q  # the spin c itself moves with xhat
        return rows(w, q, c), dAx, dAy

    def margin(x, y):
        return min(chart.margin(x), chart_hat.margin(y[1:3]))

    def validate(x, y):
        chart.validate(x)
        chart_hat.validate(y[1:3])

    return SubmersionTestbed(
        base_dim=2, fiber_dim=4, A=A, jet=jet, margin=margin, validate=validate,
        label=f"frame-bundle({chart.label},{chart_hat.label})",
        params={"chart": chart.label, "chart_hat": chart_hat.label},
    )


_TB_RE = re.compile(r"^([a-z-]+)(?:\((.*)\))?$")


def testbed_names() -> list[str]:
    return ["trivial", "heisenberg", "frame-bundle"]


def testbed_by_name(name: str) -> SubmersionTestbed:
    """Resolve names like ``trivial(2,1)`` or ``frame-bundle(sphere(1),euclidean(2))``."""
    m = _TB_RE.match(name.strip())
    if not m:
        raise KeyError(f"malformed testbed name '{name}'")
    base, argstr = m.group(1), m.group(2) or ""
    if base == "trivial":
        args = [int(a) for a in argstr.split(",")] if argstr else []
        return trivial(*args)
    if base == "heisenberg":
        return heisenberg()
    if base == "frame-bundle":
        depth = 0
        parts, cur = [], ""
        for ch in argstr:
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                parts.append(cur)
                cur = ""
            else:
                cur += ch
        if cur:
            parts.append(cur)
        if len(parts) != 2:
            raise KeyError(f"frame-bundle needs two chart names, got '{argstr}'")
        return frame_bundle(chart_by_name(parts[0]), chart_by_name(parts[1]))
    raise KeyError(f"unknown testbed '{base}'; have {testbed_names()}")
