"""Single-chart Riemannian metrics and the built-in chart catalog.

A manifold is represented by one coordinate chart: a dimension, a domain
(given through a signed margin function, positive inside), and a map from
chart points to symmetric positive definite metric coefficients.  Analytic
first metric derivatives may be attached; finite differences are used
otherwise.  Runs that leave the chart domain are truncated with an
explicit flag, never continued.

``ChartMetric.metric`` and ``ChartMetric.metric_jet`` (the coefficients
with their first partials) are the cheap evaluations the flows'
right-hand sides make at every stage: they check the point's shape and
domain once and return the coefficients.  ``ChartMetric.validate`` adds
the symmetry and positive-definiteness checks.  The flows run it where
states are accepted: at their start state and, in the flows that
re-orthonormalize frames, at every chunk boundary, where they do so.
Elsewhere the chart-exit event keeps accepted states in the domain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError, DimensionError, SingularMetricError

Array = np.ndarray


def _default_margin(x: Array) -> float:
    return 1.0


# Integrators may evaluate the right-hand side slightly past the margin zero
# while bracketing a chart-exit event; points this far beyond the declared
# boundary are still accepted as long as the metric stays positive definite.
CHART_SLACK = 0.25


@dataclass(frozen=True)
class ChartMetric:
    """A Riemannian metric presented in a single coordinate chart.

    ``g(x)`` returns the n-by-n metric coefficient array.  ``dg(x)``, when
    present, returns an (n, n, n) array with ``dg[k]`` the partial of ``g``
    along coordinate ``k``.  ``margin(x)`` is positive on the domain
    interior and crosses zero at the boundary; it doubles as the
    integrator's chart-exit event function.  ``kappa``, when present, is an
    analytic Gaussian curvature (2D charts only).

    ``metric`` does not check that the coefficients are symmetric positive
    definite; ``validate`` does, and the flows call it at their start state
    and, in the flows that reproject, at every chunk boundary.
    """

    dim: int
    g: Callable[[Array], Array]
    dg: Optional[Callable[[Array], Array]] = None
    margin: Callable[[Array], float] = _default_margin
    kappa: Optional[Callable[[Array], float]] = None
    label: str = ""
    params: dict = field(default_factory=dict)

    def check_point(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionError(
                f"point of shape {x.shape} on chart '{self.label}' of dim {self.dim}"
            )
        if self.margin(x) <= -CHART_SLACK:
            raise ChartDomainError(f"point {x} outside domain of chart '{self.label}'")
        return x

    def metric(self, x: Array) -> Array:
        """Metric coefficients at ``x``; the point is checked, the values not."""
        return np.asarray(self.g(self.check_point(x)), dtype=float)

    def validate(self, x: Array) -> Array:
        """Metric coefficients at ``x``, checked for symmetry and positivity.

        Raises :class:`SingularMetricError` naming the point and the chart.
        """
        gx = self.metric(x)
        if not np.allclose(gx, gx.T, atol=1e-12):
            raise SingularMetricError(f"metric not symmetric at {x} on '{self.label}'")
        try:
            np.linalg.cholesky(gx)
        except np.linalg.LinAlgError as exc:
            raise SingularMetricError(
                f"metric not positive definite at {x} on '{self.label}'"
            ) from exc
        return gx

    def metric_jet(self, x: Array) -> tuple[Array, Array]:
        """Metric coefficients and their first partials at ``x``, one point check.

        The partials are ``dg`` when attached, else central differences of ``g``.
        """
        x = self.check_point(x)
        gx = np.asarray(self.g(x), dtype=float)
        if self.dg is None:
            return gx, central_diff(lambda p: np.asarray(self.g(p)), x)
        return gx, np.asarray(self.dg(x), dtype=float)


def fd_step(x: Array, scale: float = 1e-5) -> float:
    """Default central-difference step, relative to the point's size."""
    return scale * (1.0 + float(np.linalg.norm(x)))


def central_diff(fn: Callable[[Array], Array], x: Array, h: Optional[float] = None) -> Array:
    """Central-difference partials of ``fn`` at ``x``, stacked along axis 0.

    Entry ``k`` is ``(fn(x + h e_k) - fn(x - h e_k)) / (2 h)``; the step
    defaults to ``fd_step(x)``.
    """
    x = np.asarray(x, dtype=float)
    h = fd_step(x) if h is None else h
    parts = []
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = h
        parts.append((fn(x + e) - fn(x - e)) / (2 * h))
    return np.array(parts, dtype=float)


# ---------------------------------------------------------------------------
# Built-in catalog

def euclidean(n: int = 2) -> ChartMetric:
    eye = np.eye(n)
    zeros1 = np.zeros((n, n, n))
    return ChartMetric(
        dim=n,
        g=lambda x: eye,
        dg=lambda x: zeros1,
        kappa=(lambda x: 0.0) if n == 2 else None,
        label=f"euclidean({n})",
        params={"n": n},
    )


def sphere(r: float = 1.0, band: float = 0.02) -> ChartMetric:
    """Round sphere of radius ``r`` in colatitude/longitude ``(phi, theta)``.

    The chart covers the open band ``band < phi < pi - band``; the poles
    are coordinate singularities and are excluded.
    """
    r = float(r)
    r2 = r * r

    def g(x):
        return np.diag([r2, r2 * np.sin(x[0]) ** 2])

    def dg(x):
        out = np.zeros((2, 2, 2))
        out[0, 1, 1] = 2 * r2 * np.sin(x[0]) * np.cos(x[0])
        return out

    return ChartMetric(
        dim=2,
        g=g,
        dg=dg,
        margin=lambda x: min(x[0] - band, np.pi - band - x[0]),
        kappa=lambda x: 1.0 / r2,
        label=f"sphere({r:g})",
        params={"r": r},
    )


def hyperbolic_disk(a: float = 1.0) -> ChartMetric:
    """Poincare disk model with curvature -1/a^2, metric 4a^2/(1-|x|^2)^2 I."""
    a = float(a)
    c = 4.0 * a * a
    eye = np.eye(2)

    def lam(x):
        return c / (1.0 - x @ x) ** 2

    def g(x):
        return lam(x) * eye

    def dg(x):
        s = 1.0 - x @ x
        grad = 4.0 * c * x / s**3
        return grad[:, None, None] * eye[None, :, :]

    return ChartMetric(
        dim=2,
        g=g,
        dg=dg,
        margin=lambda x: 0.7 - float(np.linalg.norm(x)),
        kappa=lambda x: -1.0 / (a * a),
        label=f"hyperbolic-disk({a:g})",
        params={"a": a},
    )


def paraboloid(c: float = 1.0) -> ChartMetric:
    """Graph z = c|x|^2 / 2 over the plane, with the induced metric."""
    c = float(c)
    c2 = c * c
    eye = np.eye(2)

    def g(x):
        return eye + c2 * np.outer(x, x)

    def dg(x):
        # dg[k, i, j] = c^2 (delta_ik x_j + x_i delta_jk)
        part = eye[:, :, None] * x
        return c2 * (part + part.transpose(0, 2, 1))

    def kappa(x):
        return c2 / (1.0 + c2 * (x @ x)) ** 2

    return ChartMetric(
        dim=2, g=g, dg=dg, kappa=kappa,
        label=f"paraboloid({c:g})", params={"c": c},
    )


_PROFILES = {
    # r(s), r'(s), r''(s) for surfaces of revolution (s, theta) with
    # embedding (r(s) cos theta, r(s) sin theta, s).
    "bump": (
        lambda s: 1.0 + 0.3 * np.exp(-(s * s)),
        lambda s: -0.6 * s * np.exp(-(s * s)),
        lambda s: (-0.6 + 1.2 * s * s) * np.exp(-(s * s)),
    ),
    "cosh": (np.cosh, np.sinh, np.cosh),
}


def revolution(profile: str = "bump") -> ChartMetric:
    """Surface of revolution with radius profile ``r(s)``: g = diag(1+r'^2, r^2)."""
    if profile not in _PROFILES:
        raise KeyError(f"unknown revolution profile '{profile}'; have {sorted(_PROFILES)}")
    r, rp, rpp = _PROFILES[profile]

    def g(x):
        s = x[0]
        return np.diag([1.0 + rp(s) ** 2, r(s) ** 2])

    def dg(x):
        s = x[0]
        out = np.zeros((2, 2, 2))
        out[0, 0, 0] = 2.0 * rp(s) * rpp(s)
        out[0, 1, 1] = 2.0 * r(s) * rp(s)
        return out

    def kappa(x):
        s = x[0]
        return -rpp(s) / (r(s) * (1.0 + rp(s) ** 2) ** 2)

    return ChartMetric(
        dim=2, g=g, dg=dg, kappa=kappa,
        label=f"revolution({profile})", params={"profile": profile},
    )


_CATALOG: dict[str, Callable[..., ChartMetric]] = {
    "euclidean": euclidean,
    "sphere": sphere,
    "hyperbolic-disk": hyperbolic_disk,
    "paraboloid": paraboloid,
    "revolution": revolution,
}

_NAME_RE = re.compile(r"^([a-z0-9-]+)(?:\(([^)]*)\))?$")


def chart_names() -> list[str]:
    return sorted(_CATALOG)


def chart_by_name(name: str) -> ChartMetric:
    """Resolve catalog names like ``sphere(2)`` or ``euclidean(3)``.

    Numeric arguments are positional; ``revolution`` takes a profile id.
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise KeyError(f"malformed chart name '{name}'")
    base, argstr = m.group(1), m.group(2)
    if base not in _CATALOG:
        raise KeyError(f"unknown chart '{base}'; have {chart_names()}")
    args: list = []
    if argstr:
        for tok in argstr.split(","):
            tok = tok.strip()
            try:
                val: object = int(tok)
            except ValueError:
                try:
                    val = float(tok)
                except ValueError:
                    val = tok
            args.append(val)
    return _CATALOG[base](*args)
