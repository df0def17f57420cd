"""Chart-based tensor calculus: Christoffel symbols, curvature, frames.

Index conventions, fixed once for the whole library:

* ``christoffel(chart, x)[k, i, j]`` is Gamma^k_ij.
* ``riemann`` returns ``(up, low)`` with ``up[a, i, j, k]`` the component
  along d_a of R(d_i, d_j) d_k, where R(X, Y) = [nabla_X, nabla_Y] -
  nabla_[X,Y], and ``low[i, j, k, l] = g(R(d_i, d_j) d_l, d_k)``.  With
  this lowering the 2D Gaussian curvature is ``low[0,1,0,1] / det g``,
  positive on the sphere.
* ``curvature_form_in_frame`` evaluates Omega(f)(X, Y)_{ab} =
  g(R(X, Y) f_b, f_a) on an orthonormal frame.  On the unit sphere with
  X = f_1, Y = f_2 the realized (1, 2) entry is +kappa; the sphere
  regression test pins this sign and the geodesic equations in
  :mod:`rollgeo.geodesics` are locked against it.

:class:`MetricJet` is the kernel of the rolling flows in every dimension:
one metric jet per point of a stack and the parallel frame transport from
adj g / det g, plus, on surfaces, one curvature per point and its rate
along a velocity.  Those flows transport their frames without
``christoffel``, and on a chart with an analytic ``kappa`` the surface
flows need no ``gauss_curvature``.  Above two dimensions the curvature
forms still come from the curvature tensor, which also serves the
independent checks and the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .charts import Array, ChartMetric, central_diff
from .errors import DimensionError, FrameError, SingularMetricError

FRAME_TOL = 1e-8


@dataclass(frozen=True)
class TangentAtPoint:
    """A tangent vector given by chart components at a chart point."""

    x: Array
    v: Array

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclass(frozen=True)
class FramePoint:
    """A positively oriented g-orthonormal frame at a chart point.

    Column ``j`` of ``f`` holds the chart components of frame vector f_j.
    """

    x: Array
    f: Array

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))

    def validate(self, chart: ChartMetric, tol: float = FRAME_TOL) -> None:
        gx = chart.validate(self.x)
        defect = self.f.T @ gx @ self.f - np.eye(chart.dim)
        if np.abs(defect).max() > tol:
            raise FrameError(
                f"frame not orthonormal (defect {np.abs(defect).max():.2e}) at {self.x}"
            )
        if np.linalg.det(self.f) <= 0:
            raise FrameError(f"frame not positively oriented at {self.x}")


def christoffel(chart: ChartMetric, x: Array) -> Array:
    """Levi-Civita symbols Gamma^k_ij of the chart metric at ``x``."""
    return christoffel_from(*chart.metric_jet(x))


def christoffel_from(gx: Array, dgx: Array) -> Array:
    """Gamma^k_ij from the metric coefficients ``gx`` and partials ``dgx[k] = d_k g``.

    Leading axes are a stack: ``gx[..., i, j]`` and ``dgx[..., k, i, j]``
    give ``Gamma[..., k, i, j]``.  A singular ``gx`` raises ``LinAlgError``.
    """
    ginv = np.linalg.inv(gx)
    # Gamma^k_ij = 1/2 g^{kl} low_ijl with low_ijl = d_i g_jl + d_j g_il - d_l g_ij
    # (g symmetric).  swapped[..., i, j, l] = d_j g_il, and with its last two
    # axes swapped it is d_l g_ij.  The contraction with g^{kl} is a matmul,
    # several times cheaper than einsum on these small arrays; it gives
    # [..., i, j, k], which the last two swaps turn into [..., k, i, j].
    swapped = dgx.swapaxes(-3, -2)
    low = dgx + swapped - swapped.swapaxes(-2, -1)
    gam = low @ ginv.swapaxes(-2, -1)[..., None, :, :]
    return 0.5 * gam.swapaxes(-2, -1).swapaxes(-3, -2)


def christoffel_deriv(chart: ChartMetric, x: Array) -> Array:
    """Partials dGamma[m, k, i, j] = d_m Gamma^k_ij by central differences."""
    return central_diff(lambda p: christoffel(chart, p), chart.check_point(x))


def riemann(chart: ChartMetric, x: Array) -> tuple[Array, Array]:
    """Riemann tensor at ``x``; see the module docstring for index layout."""
    x = chart.check_point(x)
    gam = christoffel(chart, x)
    dgam = christoffel_deriv(chart, x)
    # up[a, i, j, k]: d_i Gamma^a_jk - d_j Gamma^a_ik
    #                + Gamma^a_im Gamma^m_jk - Gamma^a_jm Gamma^m_ik
    up = (
        dgam.transpose(1, 0, 2, 3)  # [a, i, j, k] from dgam[i, a, j, k]
        - dgam.transpose(1, 2, 0, 3)
        + np.einsum("aim,mjk->aijk", gam, gam)
        - np.einsum("ajm,mik->aijk", gam, gam)
    )
    gx = chart.metric(x)
    low = np.einsum("ka,aijl->ijkl", gx, up)
    return up, low


def curvature_form_in_frame(
    chart: ChartMetric, fp: FramePoint, X: TangentAtPoint, Y: TangentAtPoint
) -> Array:
    """so(n)-valued curvature form Omega(f)(X, Y) on an orthonormal frame."""
    if not np.array_equal(fp.x, X.x) or not np.array_equal(fp.x, Y.x):
        raise DimensionError("frame and tangent arguments at different base points")
    _, low = riemann(chart, fp.x)
    return curvature_form_from_lowered(low, fp.f, X.v, Y.v)


def curvature_form_from_lowered(low: Array, f: Array, Xv: Array, Yv: Array) -> Array:
    """Omega_{ab} = g(R(X, Y) f_b, f_a) from the lowered curvature tensor."""
    return np.einsum("ijkl,i,j,ka,lb->ab", low, Xv, Yv, f, f)


def gauss_curvature(chart: ChartMetric, x: Array) -> float:
    """Gaussian curvature of a 2D chart; analytic shortcut when attached."""
    if chart.dim != 2:
        raise DimensionError("gauss_curvature requires a 2D chart")
    x = chart.check_point(x)
    if chart.kappa is not None:
        return float(chart.kappa(x))
    return gauss_curvature_tensor(chart, x)


def gauss_curvature_tensor(chart: ChartMetric, x: Array) -> float:
    """Gaussian curvature from the curvature tensor, ignoring any shortcut."""
    if chart.dim != 2:
        raise DimensionError("gauss_curvature requires a 2D chart")
    _, low = riemann(chart, x)
    return float(low[0, 1, 0, 1] / np.linalg.det(chart.metric(x)))


def surface_kappa(charts: Sequence[ChartMetric], xs: Array) -> Array:
    """Gaussian curvature at each point of a stack, ``charts[i]`` at ``xs[i]``."""
    return np.fromiter([c.kappa(x) if c.kappa is not None else gauss_curvature(c, x)
                        for c, x in zip(charts, xs)], float, len(xs))


# adj a is the transpose of _ADJ_SIGNS * a reversed along both axes, for 2-by-2 matrices.
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def adjugate(a: Array) -> tuple[Array, Array]:
    """``(adj a, det a)`` of a stack of square matrices, so that a^-1 = adj a / det a.

    2-by-2 matrices take the closed form; larger ones det a times ``np.linalg.inv``.
    """
    if a.shape[-1] == 2:
        adj_t = a[..., ::-1, ::-1] * _ADJ_SIGNS
        return adj_t.swapaxes(-2, -1), (a[..., 0, :] * adj_t[..., 0, :]).sum(-1)
    det = np.linalg.det(a)
    return det[..., None, None] * np.linalg.inv(a), det


class MetricJet:
    """The kernel of the rolling flows: metric jets of a stack of chart points.

    Point ``xs[i]`` lies on ``charts[i]``, and all charts have one dimension.
    Construction evaluates each chart's ``metric_jet`` once per point and
    keeps dg, adj g and det g.  On surfaces, with ``curvature`` (the
    default), it also evaluates the Gaussian curvature ``kappa`` once per
    point; a flow that only transports frames, or runs above two
    dimensions, passes False, and ``kappa`` is None.  The curvature's rate
    is evaluated only by ``kappa_rate``.  Both take a chart's analytic
    ``kappa`` where it has one, else ``gauss_curvature``.
    """

    __slots__ = ("charts", "xs", "dg", "adj", "det", "kappa")

    def __init__(self, charts: Sequence[ChartMetric], xs: Array, curvature: bool = True):
        m, n = len(xs), charts[0].dim
        g, dg, kappa = np.empty((m, n, n)), np.empty((m, n, n, n)), np.empty(m)
        for i, (c, x) in enumerate(zip(charts, xs)):
            g[i], dg[i] = c.metric_jet(x)
            if curvature:
                kappa[i] = c.kappa(x) if c.kappa is not None else gauss_curvature(c, x)
        self.charts, self.xs, self.dg = charts, xs, dg
        self.kappa = kappa if curvature else None
        # g is symmetric, so on surfaces adj g needs no transpose; kept inline
        # because the surface flows build a jet in every right-hand side.
        if n == 2:
            self.adj = g[:, ::-1, ::-1] * _ADJ_SIGNS
            self.det = (g[:, 0] * self.adj[:, 0]).sum(-1)
        else:
            self.adj, self.det = adjugate(g)

    @property
    def rho(self) -> Array:
        """The volume density sqrt(det g) at each point."""
        return np.sqrt(self.det)

    def frame_rate(self, xdot: Array, f: Array) -> Array:
        """fdot = -g^-1 N f: frames ``f[i]`` parallel along ``xdot[i]``.

        N = (D + B^T - B) / 2 is the Christoffel matrix Gamma(xdot) with its
        upper index lowered: D = sum_i xdot^i d_i g and B[l, m] = sum_i
        xdot^i d_l g_im.  With g^-1 = adj g / det g this is
        adj g (B - B^T - D) f / (2 det g).
        """
        dg, m = self.dg, len(xdot)
        B = (xdot[:, None, None, :] @ dg)[:, :, 0]
        D = (xdot[:, None, :] @ dg.reshape(m, dg.shape[1], -1)).reshape(B.shape)
        return (self.adj @ ((B - B.swapaxes(1, 2) - D) @ f)) / (2 * self.det)[:, None, None]

    def kappa_rate(self, xdot: Array) -> Array:
        """kappadot = d kappa . xdot at each surface point, by ``central_diff`` of the curvature."""
        return np.array([
            central_diff(c.kappa if c.kappa is not None else partial(gauss_curvature, c), x) @ v
            for c, x, v in zip(self.charts, self.xs, xdot)])


def sharp(chart: ChartMetric, x: Array, p: Array) -> Array:
    """Raise a covector with the inverse metric."""
    gx = chart.metric(x)
    return np.linalg.solve(gx, np.asarray(p, dtype=float))


def flat(chart: ChartMetric, x: Array, v: Array) -> Array:
    """Lower a tangent vector with the metric."""
    gx = chart.metric(x)
    return gx @ np.asarray(v, dtype=float)


def orthonormal_frame_at(chart: ChartMetric, x: Array, seed: Array | None = None) -> FramePoint:
    """Gram-Schmidt a seed basis against g(x), correcting orientation."""
    x = chart.check_point(x)
    n = chart.dim
    if seed is None:
        seed = np.eye(n)
    seed = np.asarray(seed, dtype=float)
    gx = chart.validate(x)
    if abs(np.linalg.det(seed)) < 1e-12:
        raise FrameError("seed basis is degenerate")
    cols = []
    for j in range(n):
        v = seed[:, j].copy()
        for w in cols:
            v -= (w @ gx @ v) * w
        nrm = np.sqrt(v @ gx @ v)
        if nrm < 1e-12:
            raise FrameError("seed basis is numerically degenerate")
        cols.append(v / nrm)
    f = np.column_stack(cols)
    if np.linalg.det(f) < 0:
        f[:, -1] = -f[:, -1]
    return FramePoint(x=x, f=f)


def _cholesky(chart: ChartMetric, x: Array, gx: Array) -> tuple[Array, Array]:
    """The factor L of ``gx = L L^T`` and the canonical frame E = L^-T.

    The factorization doubles as the positivity check of the metric at
    ``x``.  LAPACK is called directly: on the 2-by-2 and 3-by-3 metrics of
    the charts, numpy's wrappers cost several times the factorization.
    """
    L, info = dpotrf(gx, lower=1)
    if info != 0:
        raise SingularMetricError(f"metric not positive definite at {x} on '{chart.label}'")
    Linv, _ = dtrtri(L, lower=1)
    return L, Linv.T


def cholesky_frame(chart: ChartMetric, x: Array) -> Array:
    """The canonical orthonormal frame E(x) = L(x)^-T with g = L L^T.

    Smooth in ``x`` wherever the metric is, which makes it suitable as a
    reference section of the frame bundle.  A metric that is not positive
    definite at ``x`` raises :class:`SingularMetricError`.
    """
    return _cholesky(chart, x, chart.metric(x))[1]


def cholesky_frame_deriv(chart: ChartMetric, x: Array) -> Array:
    """Partials dE[k] = d E / d x_k of the canonical frame, analytic in dg."""
    gx, dgx = chart.metric_jet(x)
    return _frame_deriv(_cholesky(chart, x, gx)[1], dgx)[1]


@lru_cache(maxsize=None)
def _tril_half(n: int) -> Array:
    """Weights of the Cholesky differential: the strict lower triangle and half the diagonal."""
    return np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)


def _frame_deriv(E: Array, dgx: Array) -> tuple[Array, Array]:
    """``(K, dE)`` with d_k L = L K[k] and dE[k] = d_k E, for E = L^-T.

    The Cholesky differential of g = L L^T is K[k] = tril(Phi_k) -
    diag(Phi_k)/2 with Phi_k = L^-1 d_k g L^-T = E^T d_k g E, and
    d_k E = -E d_k L^T E = -E K[k]^T since L^T E = I.
    """
    K = (E.T @ dgx @ E) * _tril_half(E.shape[0])
    return K, -E @ K.transpose(0, 2, 1)


@dataclass(frozen=True)
class FrameJet:
    """The canonical frame at a point with its first partials.

    ``E`` is the canonical frame L^-T, ``Einv`` its inverse L^T, ``dE[k]``
    the partial of E along d_k, and ``omega[k]`` the connection form of the
    frame field along d_k: the skew matrix
    ``omega[k][a, b] = g(E_a, nabla_k E_b)``.  On a 2D chart
    ``omega[:, 0, 1]`` is the spin of the frame: ``omega[k][0, 1]`` is the
    rate at which E_1 turns towards E_0 under d_k, measured against
    parallel transport.
    """

    E: Array
    Einv: Array
    dE: Array
    omega: Array


def cholesky_frame_jet(chart: ChartMetric, x: Array) -> FrameJet:
    """E, its inverse, its partials and its connection forms at ``x``.

    One metric evaluation, one metric-derivative evaluation and one
    Cholesky factorization serve all four; a metric that is not positive
    definite raises :class:`SingularMetricError`.
    """
    gx, dgx = chart.metric_jet(x)
    L, E = _cholesky(chart, x, gx)
    K, dE = _frame_deriv(E, dgx)
    # omega[k] is the skew part of E^-1 nabla_k E = E^-1 d_k E + E^-1 Gamma_k E.
    # With E^-1 = L^T the first term is -K[k]^T.  Since L^T g^-1 = E^T, the
    # second is E^T (Gamma_k lowered) E / 2, whose skew part keeps only the
    # antisymmetric S_k[l, j] = d_j g_kl - d_l g_kj of the lowered symbols.
    D = dgx.transpose(1, 2, 0)  # D[k, l, j] = d_j g_kl
    S = D - D.transpose(0, 2, 1)
    omega = 0.5 * (K - K.transpose(0, 2, 1) + E.T @ S @ E)
    return FrameJet(E=E, Einv=L.T, dE=dE, omega=omega)
