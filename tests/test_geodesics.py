import itertools
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import rollgeo.geodesics
import rollgeo.geometry
import rollgeo.rolling
from rollgeo import charts
from rollgeo.charts import central_diff
from rollgeo.geodesics import (
    E2,
    PENDULUM_LAYOUT,
    Pendulum2DState,
    RollingGeodesicState,
    charge_monitor,
    closed_form_b,
    curvature_forms_along,
    flow_residual,
    geodesic_layout,
    geodesic_rhs,
    integrate_geodesic,
    pair,
    pendulum_constants,
    pendulum_residual,
    reduce_2d,
    rn_layout,
    rn_rolling_flow,
    skew_to_vec,
    theorem_residual,
    vec_to_skew,
    vtilde_symmetry_check,
)
from rollgeo.geometry import (MetricJet, christoffel, curvature_form_from_lowered,
                              gauss_curvature, orthonormal_frame_at, riemann,
                              surface_kappa_rate, surface_rate)
from rollgeo.rolling import (aligned_configuration, develop, develop_layout,
                             noslip_notwist_residual)
from rollgeo.submersion import canonical_layout, force_layout
from rollgeo.suites import _geodesic_initial, scenario_by_name

SPHERE = charts.sphere(1.0)
PLANE = charts.euclidean(2)


def _sphere_on_plane_state(theta=0.3, L=0.4, b1=0.2, b2=0.1, a=1.0,
                           x=(np.pi / 2, 0.0)):
    cfg = aligned_configuration(SPHERE, PLANE, np.array(x), np.zeros(2))
    return Pendulum2DState(cfg=cfg, theta=theta, L=L, b1=b1, b2=b2, a=a)


class TestPacking:
    def test_skew_round_trip(self):
        lam = np.array([[0.0, 1.5, -0.2], [-1.5, 0.0, 0.7], [0.2, -0.7, 0.0]])
        assert np.allclose(vec_to_skew(skew_to_vec(lam), 3), lam)

    @pytest.mark.parametrize("layout", [
        geodesic_layout(2), geodesic_layout(3), PENDULUM_LAYOUT, rn_layout(2),
        develop_layout(2), canonical_layout(2, 4), force_layout(2, 4),
    ], ids=["geodesic-2", "geodesic-3", "pendulum", "rn", "develop", "canonical",
            "force"])
    def test_layout_round_trip(self, layout):
        z = np.random.default_rng(0).normal(size=layout.size)
        parts = layout.split(z)
        assert np.array_equal(layout.pack(**parts), z)
        for name, value in parts.items():
            # vector and array slots are views; scalar slots come back as
            # numbers and the skew charge as a new full matrix
            assert np.shares_memory(value, z) == (np.ndim(value) > 0 and name != "lam"), name
        # a stack of states splits row by row
        stacked = layout.split(np.stack([z, 2 * z]))
        for name, value in layout.split(2 * z).items():
            assert np.array_equal(stacked[name][1], value), name

    def test_layout_slot_order(self):
        # readers outside the library take (x, xhat) and x from the leading slots
        z = np.arange(float(PENDULUM_LAYOUT.size))
        d = PENDULUM_LAYOUT.split(z)
        assert np.array_equal(np.concatenate([d["x"], d["xhat"]]), z[:4])
        assert [float(d[k]) for k in ("theta", "L", "b1", "b2", "C", "S")] == \
            list(range(12, 18))
        assert np.array_equal(rn_layout(2).split(z[:10])["x"], z[:2])
        assert np.array_equal(geodesic_layout(2).split(z[:17])["x"], z[:2])

    def test_pair_normalization(self):
        assert pair(E2, E2) == pytest.approx(1.0)

    def test_pendulum_state_maps_up(self):
        s = _sphere_on_plane_state(theta=0.0, L=0.7, b1=0.3, b2=0.4, a=2.0)
        full = s.to_full()
        assert full.speed == pytest.approx(2.0)
        assert full.lam[0, 1] == pytest.approx(0.7)
        assert np.allclose(full.v, [0.3, 0.4])


class TestCurvatureForms:
    def test_surface_shortcut_matches_tensor(self):
        chart = charts.paraboloid(1.2)
        x = np.array([0.4, -0.3])
        from rollgeo.geometry import orthonormal_frame_at, riemann, curvature_form_from_lowered
        f = orthonormal_frame_at(chart, x).f
        X = f @ np.array([0.7, -0.2])
        oms = curvature_forms_along(chart, x, f, X)
        _, low = riemann(chart, x)
        for j in range(2):
            want = curvature_form_from_lowered(low, f, X, f[:, j])
            assert np.abs(oms[j] - want).max() < 1e-7

    def test_flat_zero(self):
        oms = curvature_forms_along(PLANE, np.zeros(2), np.eye(2), np.array([1.0, 0.0]))
        assert max(np.abs(o).max() for o in oms) == 0.0


def _bumpy_chart():
    """A surface metric with neither dg nor kappa: both come from differences."""
    return charts.ChartMetric(
        dim=2, g=lambda x: np.array([[1.0 + x[1] ** 2, 0.2 * x[0]],
                                     [0.2 * x[0], 1.0 + 0.5 * x[0] ** 2]]),
        label="bumpy")


def _conformal_chart(c, n=3):
    """The non-flat metric (1 + c |x|^2) I on R^n, with its analytic dg and no kappa."""
    eye = np.eye(n)
    return charts.ChartMetric(
        dim=n, g=lambda x: (1.0 + c * (x @ x)) * eye,
        dg=lambda x: 2.0 * c * x[:, None, None] * eye,
        label=f"conformal({c:g})" if n == 3 else f"conformal{n}({c:g})")


_SURFACES = ["euclidean(2)", "sphere(1)", "hyperbolic-disk(1)", "paraboloid(1)",
             "revolution(bump)", "revolution(cosh)"]


def _random_frame(chart, x, rng):
    """A positively oriented orthonormal frame at ``x``, turned at random."""
    f = orthonormal_frame_at(chart, x).f
    if chart.dim == 2:
        a = rng.uniform(0, 2 * np.pi)
        return f @ np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return f @ (q * np.sign(np.linalg.det(q)))


def _reference_rhs(chart, chart_hat, z):
    """The locked equations of the module docstring, from the curvature tensor."""
    n = chart.dim
    layout = geodesic_layout(n)
    d = layout.split(z)
    u, v, lam = d["u"], d["v"], d["lam"]
    out = {}
    oms = []
    for side, c in (("", chart), ("hat", chart_hat)):
        x, f = d["x" + side], d["f" + side]
        xdot = f @ u
        _, low = riemann(c, x)
        out["x" + side] = xdot
        out["f" + side] = -np.einsum("kil,i,la->ka", christoffel(c, x), xdot, f)
        oms.append([curvature_form_from_lowered(low, f, xdot, f[:, j]) for j in range(n)])
    om, omhat = oms
    out["u"] = np.array([pair(lam, om[j] - omhat[j]) for j in range(n)])
    out["v"] = np.array([pair(lam, omhat[j]) for j in range(n)])
    out["lam"] = np.outer(u, v) - np.outer(v, u)
    return layout.pack(**out)


_TEST_CHARTS = {c.label: c for c in (_bumpy_chart(), _conformal_chart(0.3),
                                     _conformal_chart(-0.1), _conformal_chart(0.3, 2))}


def _charts_named(names):
    return tuple(_TEST_CHARTS[name] if name in _TEST_CHARTS
                 else charts.chart_by_name(name) for name in names)


def _random_point(chart, rng):
    """A point well inside the chart: near the origin, or the equator of a sphere."""
    x = rng.uniform(-0.4, 0.4, chart.dim)
    if chart.label.startswith("sphere"):
        x[0] += np.pi / 2
    assert chart.margin(x) > 0
    return x


def _close(got, want):
    """The relative agreement of ``TestRightHandSide``."""
    return np.abs(got - want).max() < 1e-7 * (1.0 + np.abs(want).max())


class TestRightHandSide:
    """``geodesic_rhs`` against the equations assembled from the tensor route."""

    PAIRS = list(itertools.product(_SURFACES, repeat=2))

    CASES = PAIRS + [
        ("bumpy", "sphere(1)"), ("sphere(1)", "bumpy"),
        ("conformal(0.3)", "conformal(-0.1)"),
    ]

    STACK_CASES = PAIRS + [
        ("conformal(0.3)", "conformal(-0.1)"),
    ]

    _charts = staticmethod(_charts_named)

    @staticmethod
    def _random_state(chart, chart_hat, rng):
        n = chart.dim
        parts = {}
        for side, c in (("", chart), ("hat", chart_hat)):
            x = _random_point(c, rng)
            parts["x" + side] = x
            parts["f" + side] = _random_frame(c, x, rng)
        lam = rng.normal(size=(n, n))
        return geodesic_layout(n).pack(u=rng.normal(size=n), v=rng.normal(size=n),
                                       lam=lam - lam.T, **parts)

    @pytest.mark.parametrize("names", CASES, ids=["-on-".join(c) for c in CASES])
    def test_matches_tensor_route(self, names):
        chart, chart_hat = self._charts(names)
        rng = np.random.default_rng(7)
        for _ in range(3):
            z = self._random_state(chart, chart_hat, rng)
            assert _close(geodesic_rhs(chart, chart_hat, 0.0, z),
                          _reference_rhs(chart, chart_hat, z))

    @pytest.mark.parametrize("names", STACK_CASES, ids=["-on-".join(c) for c in STACK_CASES])
    def test_stack_rows_are_the_single_states(self, names):
        # row k of a stack, given as rows or flat, is the call on state k alone;
        # a shooting Jacobian stacks 5 states and flow_residual 200
        chart, chart_hat = self._charts(names)
        rng = np.random.default_rng(11)
        for rows in (5, 200):
            zs = np.array([self._random_state(chart, chart_hat, rng) for _ in range(rows)])
            stacked = geodesic_rhs(chart, chart_hat, 0.0, zs)
            assert stacked.shape == zs.shape
            assert np.array_equal(geodesic_rhs(chart, chart_hat, 0.0, zs.ravel()),
                                  stacked.ravel())
            for z, row in zip(zs, stacked):
                assert np.array_equal(geodesic_rhs(chart, chart_hat, 0.0, z), row)

    @pytest.mark.parametrize("names", PAIRS, ids=["-on-".join(c) for c in PAIRS])
    def test_frame_rate_is_the_metric_jet_transport(self, names):
        # the surface kernel and MetricJet, which moves the frames of the other
        # flows, are one transport: they agree to rounding on every catalog pair
        chart, chart_hat = self._charts(names)
        rng = np.random.default_rng(29)
        zs = np.array([self._random_state(chart, chart_hat, rng) for _ in range(5)])
        d = geodesic_layout(2).split(zs)
        fs = np.stack([d["f"], d["fhat"]], axis=1).reshape(-1, 2, 2)
        xdot = (fs @ np.repeat(d["u"], 2, axis=0)[:, :, None])[:, :, 0]
        jet = MetricJet((chart, chart_hat) * len(zs),
                        np.stack([d["x"], d["xhat"]], axis=1).reshape(-1, 2))
        want = jet.frame_rate(xdot, fs).reshape(len(zs), 2, 2, 2)
        got = geodesic_layout(2).split(geodesic_rhs(chart, chart_hat, 0.0, zs))
        for side, f in enumerate(("f", "fhat")):
            assert np.abs(got[f] - want[:, side]).max() <= 1e-14 * (1.0 + np.abs(want).max())

    @pytest.mark.parametrize("x0", [1.0, 1.2], ids=["singular", "indefinite"])
    def test_degenerate_metric_gives_non_finite_rates(self, x0, monkeypatch):
        # g = diag(1, 1 - x_0) has det g = 0 at x_0 = 1 and det g < 0 past it:
        # the kernel returns inf or nan there, for the integrator to reject,
        # and leaves the other rows of a stack alone; so do the reduced and
        # flat-target right-hand sides, and the reduced one at an infinite or
        # undefined angle
        def dg(x):
            out = np.zeros((2, 2, 2))
            out[0, 1, 1] = -1.0
            return out

        chart = charts.ChartMetric(dim=2, g=lambda x: np.diag([1.0, 1.0 - x[0]]), dg=dg,
                                   kappa=lambda x: 0.25, label="degenerating")
        rng = np.random.default_rng(31)
        good = self._random_state(chart, PLANE, rng)
        bad = good.copy()
        bad[geodesic_layout(2).slices["x"]] = x0, 0.0
        out = geodesic_rhs(chart, PLANE, 0.0, np.array([good, bad]))
        assert not np.isfinite(out[1]).all()
        assert np.array_equal(out[0], geodesic_rhs(chart, PLANE, 0.0, good))

        cfg = aligned_configuration(chart, PLANE, np.array([0.5, 0.0]), np.zeros(2))
        reduced = _captured_rhs(monkeypatch, rollgeo.geodesics, lambda: reduce_2d(
            Pendulum2DState(cfg=cfg, theta=0.3, L=0.4, b1=0.2, b2=0.1, a=1.0), 1.0))
        z = PENDULUM_LAYOUT.pack(x=cfg.x, xhat=cfg.xhat, f=cfg.f, fhat=cfg.fhat, theta=0.3,
                                 L=0.4, b1=0.2, b2=0.1, C=0.0, S=0.0)
        flat = _captured_rhs(monkeypatch, rollgeo.geodesics, lambda: rn_rolling_flow(
            chart, cfg.x, cfg.f, np.array([0.8, 0.6]), np.array([0.2, -0.1]), 0.3 * E2, 1.0))
        w = rn_layout(2).pack(x=cfg.x, f=cfg.f, u=np.array([0.8, 0.6]), w=np.zeros(2))
        for rhs, layout, state, slot, value in (
                (reduced, PENDULUM_LAYOUT, z, "x", (x0, 0.0)),
                (reduced, PENDULUM_LAYOUT, z, "theta", np.inf),
                (reduced, PENDULUM_LAYOUT, z, "theta", -np.inf),
                (reduced, PENDULUM_LAYOUT, z, "theta", np.nan),
                (flat, rn_layout(2), w, "x", (x0, 0.0))):
            assert np.isfinite(rhs(0.0, state)).all()
            bad = state.copy()
            bad[layout.slices[slot]] = value
            assert not np.isfinite(rhs(0.0, bad)).all(), (slot, value)


# The 2D charts of the surface-kernel oracles: the catalog's six, plus one
# with neither dg nor kappa and one with dg but no kappa.
_KERNEL_SURFACES = _SURFACES + ["bumpy", "conformal2(0.3)"]
_KERNEL_PAIRS = list(itertools.product(_KERNEL_SURFACES, repeat=2))
_PAIR_IDS = ["-on-".join(p) for p in _KERNEL_PAIRS]

# A 3D pair for the flows that share the kernel's frame transport in every dimension.
_SOLID_PAIR = ("conformal(0.3)", "conformal(-0.1)")


def _skew(rng, n):
    """A random skew n-by-n matrix; E2 itself on surfaces, where so(2) is one line."""
    if n == 2:
        return E2
    a = rng.normal(size=(n, n))
    return a - a.T


def _tensor_frame_rate(chart, x, xdot, f):
    """fdot = -Gamma(xdot) f from the Christoffel symbols."""
    return -np.einsum("kil,i,la->ka", christoffel(chart, x), xdot, f)


def _tensor_kappa_rate(chart, x, xdot):
    return float(central_diff(lambda p: gauss_curvature(chart, p), x) @ xdot)


def _reference_pendulum_rhs(chart, chart_hat, a, z):
    """The reduced system of the module docstring, from Christoffel symbols and
    finite differences of ``gauss_curvature``."""
    d = PENDULUM_LAYOUT.split(z)
    x, xhat, f, fhat = d["x"], d["xhat"], d["f"], d["fhat"]
    theta, L, b1, b2 = d["theta"], d["L"], d["b1"], d["b2"]
    kap, kaphat = gauss_curvature(chart, x), gauss_curvature(chart_hat, xhat)
    gap = kap - kaphat
    c, s = np.cos(theta), np.sin(theta)
    u = a * np.array([c, s])
    xdot, xhatdot = f @ u, fhat @ u
    thetadot = L * gap
    kapdot = _tensor_kappa_rate(chart, x, xdot)
    kaphatdot = _tensor_kappa_rate(chart_hat, xhat, xhatdot)
    rho = 1.0 / gap if abs(gap) >= rollgeo.geodesics.RHO_FLOOR else 0.0
    w = rho * rho * (kap * kaphatdot - kapdot * kaphat)
    return PENDULUM_LAYOUT.pack(
        x=xdot, xhat=xhatdot, f=_tensor_frame_rate(chart, x, xdot, f),
        fhat=_tensor_frame_rate(chart_hat, xhat, xhatdot, fhat), theta=thetadot,
        L=a * b2, b1=thetadot * b2, b2=a * L * kaphat - thetadot * b1, C=c * w, S=s * w)


def _reference_develop_rhs(chart, chart_hat, curve_dot, t, z):
    """Rolling along the curve without slip or twist, from Christoffel symbols."""
    layout = develop_layout(chart.dim)
    d = layout.split(z)
    x, f, fhat = d["x"], d["f"], d["fhat"]
    xdot = curve_dot(t)
    xhatdot = fhat @ np.linalg.solve(f, xdot)
    return layout.pack(
        x=xdot, xhat=xhatdot, f=_tensor_frame_rate(chart, x, xdot, f),
        fhat=_tensor_frame_rate(chart_hat, d["xhat"], xhatdot, fhat))


def _reference_flat_target_rhs(chart, lam0, v0, z):
    """Form "a" of ``rn_rolling_flow``: the running charge lam0 + w v0^T - v0 w^T
    paired with the curvature forms of the curvature tensor."""
    n = chart.dim
    d = rn_layout(n).split(z)
    x, f, u, w = d["x"], d["f"], d["u"], d["w"]
    xdot = f @ u
    _, low = riemann(chart, x)
    lam = lam0 + np.outer(w, v0) - np.outer(v0, w)
    udot = [pair(lam, curvature_form_from_lowered(low, f, xdot, f[:, j])) for j in range(n)]
    return rn_layout(n).pack(x=xdot, f=_tensor_frame_rate(chart, x, xdot, f),
                             u=np.array(udot), w=u)


class _Captured(Exception):
    pass


def _captured_rhs(monkeypatch, module, start):
    """The right-hand side that ``start()`` hands to ``module.integrate``."""
    seen = {}

    def capture(rhs, *args, **kwargs):
        seen["rhs"] = rhs
        raise _Captured

    monkeypatch.setattr(module, "integrate", capture)
    with pytest.raises(_Captured):
        start()
    return seen["rhs"]


class TestSurfaceKernel:
    """The surface kernel, ``MetricJet`` and their flows against the tensor route."""

    @pytest.mark.parametrize("names", _KERNEL_PAIRS, ids=_PAIR_IDS)
    def test_kernel_matches_tensor_route(self, names):
        surfaces = _charts_named(names)
        rng = np.random.default_rng(3)
        for _ in range(3):
            xs = np.array([_random_point(c, rng) for c in surfaces])
            fs = np.array([_random_frame(c, x, rng) @ rng.normal(size=(2, 2))
                           for c, x in zip(surfaces, xs)])
            us = rng.normal(size=(2, 2))
            xdot = (fs @ us[:, :, None])[:, :, 0]
            for i, c in enumerate(surfaces):
                x, f = xs[i], fs[i]
                *got_xdot, e00, e01, e10, e11, kappa, k = surface_rate(
                    c, x, *f.ravel().tolist(), *us[i].tolist())
                kappa_want = gauss_curvature(c, x)
                rho = np.sqrt(np.linalg.det(c.metric(x)))
                assert _close(np.array(got_xdot), xdot[i])
                assert _close(np.array([[e00, e01], [e10, e11]]),
                              _tensor_frame_rate(c, x, xdot[i], f))
                assert _close(kappa, kappa_want)
                assert _close(k, kappa_want * rho * np.linalg.det(f))
                assert _close(surface_kappa_rate(c, x, *xdot[i].tolist()),
                              _tensor_kappa_rate(c, x, xdot[i]))
            fdot = MetricJet(surfaces, xs).frame_rate(xdot, fs)
            for i, c in enumerate(surfaces):
                assert _close(fdot[i], _tensor_frame_rate(c, xs[i], xdot[i], fs[i]))

    @pytest.mark.parametrize("names", _KERNEL_PAIRS, ids=_PAIR_IDS)
    def test_reduced_rhs_matches_tensor_route(self, names, monkeypatch):
        chart, chart_hat = _charts_named(names)
        rng = np.random.default_rng(5)
        cfg = aligned_configuration(chart, chart_hat, _random_point(chart, rng),
                                    _random_point(chart_hat, rng))
        a = 1.3
        rhs = _captured_rhs(monkeypatch, rollgeo.geodesics, lambda: reduce_2d(
            Pendulum2DState(cfg=cfg, theta=0.0, L=0.0, b1=0.0, b2=0.0, a=a), 1.0))
        for _ in range(3):
            x, xhat = _random_point(chart, rng), _random_point(chart_hat, rng)
            theta, L, b1, b2, C, S = rng.normal(size=6)
            z = PENDULUM_LAYOUT.pack(x=x, xhat=xhat, f=_random_frame(chart, x, rng),
                                     fhat=_random_frame(chart_hat, xhat, rng), theta=theta,
                                     L=L, b1=b1, b2=b2, C=C, S=S)
            assert _close(rhs(0.0, z), _reference_pendulum_rhs(chart, chart_hat, a, z))

    @pytest.mark.parametrize("names", _KERNEL_PAIRS + [_SOLID_PAIR],
                             ids=_PAIR_IDS + ["-on-".join(_SOLID_PAIR)])
    def test_develop_rhs_matches_tensor_route(self, names, monkeypatch):
        chart, chart_hat = _charts_named(names)
        rng = np.random.default_rng(9)
        x0, direction = _random_point(chart, rng), rng.normal(size=chart.dim) * 0.3
        cfg = aligned_configuration(chart, chart_hat, x0, _random_point(chart_hat, rng))

        def curve(t):
            return x0 + t * direction

        def curve_dot(t):
            return direction

        rhs = _captured_rhs(monkeypatch, rollgeo.rolling,
                            lambda: develop(cfg, curve, curve_dot, 1.0))
        for _ in range(3):
            t = rng.uniform(0.0, 0.3)
            x, xhat = curve(t), _random_point(chart_hat, rng)
            z = develop_layout(chart.dim).pack(
                x=x, xhat=xhat, f=_random_frame(chart, x, rng),
                fhat=_random_frame(chart_hat, xhat, rng))
            assert _close(rhs(t, z), _reference_develop_rhs(chart, chart_hat, curve_dot, t, z))

    @pytest.mark.parametrize("form", ["a", "b"])
    @pytest.mark.parametrize("name", _KERNEL_SURFACES + list(_SOLID_PAIR))
    def test_flat_target_rhs_matches_tensor_route(self, name, form, monkeypatch):
        # form "b" reads its w slot as y: since Om_j is skew,
        # <lam0 + y v0^T - v0 y^T, Om_j> = <lam0, Om_j> + y^T Om_j v0
        (chart,) = _charts_named([name])
        n = chart.dim
        rng = np.random.default_rng(13)
        x0 = _random_point(chart, rng)
        v0, lam0 = rng.normal(size=n), 0.7 * _skew(rng, n)
        f0 = orthonormal_frame_at(chart, x0).f
        rhs = _captured_rhs(monkeypatch, rollgeo.geodesics, lambda: rn_rolling_flow(
            chart, x0, f0, np.eye(n)[0], v0, lam0, 1.0, form=form))
        for _ in range(3):
            x = _random_point(chart, rng)
            z = rn_layout(n).pack(x=x, f=_random_frame(chart, x, rng), u=rng.normal(size=n),
                                  w=rng.normal(size=n))
            assert _close(rhs(0.0, z), _reference_flat_target_rhs(chart, lam0, v0, z))


    @pytest.mark.parametrize("name", _KERNEL_SURFACES)
    def test_curvature_forms_hold_on_any_frame(self, name):
        (chart,) = _charts_named([name])
        rng = np.random.default_rng(19)
        for _ in range(3):
            x = _random_point(chart, rng)
            m = rng.normal(size=(2, 2))
            if np.linalg.det(m) < 0:
                m[:, 0] = -m[:, 0]
            f, X = _random_frame(chart, x, rng) @ m, rng.normal(size=2)
            _, low = riemann(chart, x)
            om = curvature_forms_along(chart, x, f, X)
            for j in range(2):
                assert _close(om[j], curvature_form_from_lowered(low, f, X, f[:, j]))


class TestRoutes:
    """Which flows reach the Christoffel symbols and the curvature functions."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {}
        for name in ("christoffel", "gauss_curvature", "riemann"):
            original = getattr(rollgeo.geometry, name)
            counts[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            # every module that imported the name calls it through its own binding
            for modname, mod in list(sys.modules.items()):
                if modname.startswith("rollgeo") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return counts

    @staticmethod
    def _flat_target(form):
        cfg = aligned_configuration(SPHERE, PLANE, np.array([1.4, 0.0]), np.zeros(2))
        return rn_rolling_flow(SPHERE, cfg.x, cfg.f, np.array([0.8, 0.6]),
                               np.array([0.2, -0.1]), 0.3 * E2, 0.5, form=form)

    @staticmethod
    def _develop():
        cfg = aligned_configuration(SPHERE, PLANE, np.array([1.4, 0.0]), np.zeros(2))
        d = np.array([0.3, 0.4])
        return develop(cfg, lambda t: cfg.x + t * d, lambda t: d, 0.5)

    def test_surface_flows_take_the_kernel(self, calls):
        reduce_2d(_sphere_on_plane_state(), 0.5)
        self._develop()
        self._flat_target("a")
        assert calls == {"christoffel": 0, "gauss_curvature": 0, "riemann": 0}

    def test_surface_curvature_forms_take_no_riemann_tensor(self, calls):
        self._flat_target("b")
        vtilde_symmetry_check(integrate_geodesic(_sphere_on_plane_state().to_full(), 0.5))
        assert calls["gauss_curvature"] > 0
        assert calls["riemann"] == 0

    def test_form_b_in_three_dimensions_takes_one_riemann_per_rhs(self, calls, monkeypatch):
        real, rhs_calls = rollgeo.geodesics.integrate, [0]

        def counting(rhs, *args, **kwargs):
            def counted(t, z):
                rhs_calls[0] += 1
                return rhs(t, z)
            return real(counted, *args, **kwargs)

        monkeypatch.setattr(rollgeo.geodesics, "integrate", counting)
        (chart,) = _charts_named(_SOLID_PAIR[:1])
        rng = np.random.default_rng(23)
        x0 = _random_point(chart, rng)
        rn_rolling_flow(chart, x0, orthonormal_frame_at(chart, x0).f, rng.normal(size=3),
                        rng.normal(size=3), _skew(rng, 3), 0.3, form="b")
        assert rhs_calls[0] > 0
        assert calls["riemann"] == rhs_calls[0]

    @pytest.fixture()
    def transport_calls(self, monkeypatch):
        """Christoffel calls made by the flow modules themselves, for their frame transport.

        Above two dimensions the curvature forms contract the Riemann tensor,
        whose own Christoffel symbols ``rollgeo.geometry`` computes; those are
        not counted here.
        """
        original, count = rollgeo.geometry.christoffel, [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        for mod in (rollgeo.geodesics, rollgeo.rolling):
            monkeypatch.setattr(mod, "christoffel", counted)
        return count

    def test_flows_in_three_dimensions_take_the_kernel(self, transport_calls):
        chart, chart_hat = _charts_named(_SOLID_PAIR)
        rng = np.random.default_rng(17)
        cfg = aligned_configuration(chart, chart_hat, _random_point(chart, rng),
                                    _random_point(chart_hat, rng))
        d = 0.3 * rng.normal(size=3)
        develop(cfg, lambda t: cfg.x + t * d, lambda t: d, 0.3)
        u0, v0, lam0 = rng.normal(size=3), rng.normal(size=3), _skew(rng, 3)
        rn_rolling_flow(chart, cfg.x, cfg.f, u0, v0, lam0, 0.3, form="a")
        geodesic_rhs(chart, chart_hat, 0.0,
                     TestRightHandSide._random_state(chart, chart_hat, rng))
        assert transport_calls == [0]
        rn_rolling_flow(chart, cfg.x, cfg.f, u0, v0, lam0, 0.3, form="b")
        assert transport_calls[0] > 0

    def test_independent_checks_stay_on_the_tensors(self, calls):
        # criterion 5 compares form "b" with form "a"; criterion 7's twist
        # is measured through the Christoffel symbols
        self._flat_target("b")
        assert calls["christoffel"] > 0
        calls["christoffel"] = 0
        path = self._develop()
        assert calls["christoffel"] == 0
        noslip_notwist_residual(path)
        assert calls["christoffel"] > 0

    @pytest.mark.parametrize("flow", ["integrate_geodesic", "reduce_2d", "develop",
                                      "rn_rolling_flow-a", "rn_rolling_flow-b"])
    def test_flows_take_the_shared_contact_hooks(self, flow, monkeypatch):
        # the start check, chart exit and reprojection of every rolling state
        # come from one call of rollgeo.rolling.contact_hooks
        original, count = rollgeo.rolling.contact_hooks, [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("rollgeo") and getattr(mod, "contact_hooks", None) is original:
                monkeypatch.setattr(mod, "contact_hooks", counted)
        if flow == "integrate_geodesic":
            integrate_geodesic(_sphere_on_plane_state().to_full(), 0.5)
        elif flow == "reduce_2d":
            reduce_2d(_sphere_on_plane_state(), 0.5)
        elif flow == "develop":
            self._develop()
        else:
            self._flat_target(flow[-1])
        assert count == [1]


class TestFullFlow:
    def test_plane_on_plane_straight(self):
        cfg = aligned_configuration(PLANE, PLANE, np.zeros(2), np.array([1.0, -1.0]))
        s0 = RollingGeodesicState(cfg=cfg, u=np.array([1.0, 0.0]),
                                  v=np.array([0.2, 0.3]), lam=0.5 * E2)
        run = integrate_geodesic(s0, 3.0)
        end = run.state(3.0)
        assert np.allclose(end.cfg.x, [3.0, 0.0], atol=1e-8)
        assert np.allclose(end.u, [1.0, 0.0], atol=1e-10)
        # the charge still evolves from u x v, but v stays put
        assert np.allclose(end.v, s0.v, atol=1e-10)

    def test_zero_covector_great_circle(self):
        # theta = pi/2 points along the equator, which the run can follow
        # without leaving the colatitude band
        s0 = _sphere_on_plane_state(theta=np.pi / 2, L=0.0, b1=0.0, b2=0.0)
        run = integrate_geodesic(s0.to_full(), 4.0)
        # no force: u constant, plane trace straight along the rolled image
        end = run.state(4.0)
        assert np.abs(end.u - s0.to_full().u).max() < 1e-9
        pts = np.array([run.state(t).cfg.xhat for t in run.grid(20)])
        d0 = pts[-1] - pts[0]
        d0 /= np.linalg.norm(d0)
        for p in pts[1:]:
            assert abs((p - pts[0]) @ np.array([-d0[1], d0[0]])) < 1e-8

    def test_catalog_run_reports_its_chunks(self):
        # the geodesic reprojects its frames every CHUNK = 0.5 of time
        s0 = _geodesic_initial(scenario_by_name("sphere-on-plane-geodesic"))
        run = integrate_geodesic(s0, 10.0, 1e-9)
        assert run.traj.meta["chunks"] == 20

    def test_theorem_residual(self):
        run = integrate_geodesic(_sphere_on_plane_state().to_full(), 3.0)
        assert theorem_residual(run) < 1e-7

    def test_speed_drift(self):
        run = integrate_geodesic(_sphere_on_plane_state(a=1.3).to_full(), 5.0)
        assert run.speed_drift() <= 1e-9

    def test_lambda_stays_skew(self):
        run = integrate_geodesic(_sphere_on_plane_state().to_full(), 3.0)
        for t in run.grid(10):
            lam = run.state(t).lam
            assert np.abs(lam + lam.T).max() < 1e-12

    def test_time_reversal(self):
        s0 = _sphere_on_plane_state().to_full()
        fwd = integrate_geodesic(s0, 2.0)
        z_mid = fwd.traj.y[-1]
        mid = fwd.state(2.0)
        back = integrate_geodesic(
            RollingGeodesicState(cfg=mid.cfg, u=-mid.u, v=-mid.v, lam=-mid.lam),
            2.0,
        )
        s_back = back.state(2.0)
        assert np.abs(s_back.cfg.x - s0.cfg.x).max() < 1e-7
        assert np.abs(s_back.cfg.xhat - s0.cfg.xhat).max() < 1e-7
        assert np.abs(s_back.u + s0.u).max() < 1e-7

    def test_flow_residual_is_the_row_by_row_residual(self):
        cfg = aligned_configuration(charts.paraboloid(1.0), charts.hyperbolic_disk(1.0),
                                    np.array([0.3, -0.1]), np.array([0.1, 0.2]))
        run = integrate_geodesic(RollingGeodesicState(cfg=cfg, u=np.array([0.6, 0.8]),
                                                      v=np.array([0.1, -0.2]), lam=0.3 * E2),
                                 2.0)
        start = geodesic_layout(2).slices["u"].start
        ts, zs, dzs = run.traj.derivative(run.grid(50))
        want = [np.abs(dz[start:] - geodesic_rhs(run.chart, run.chart_hat, t, z)[start:]).max()
                for t, z, dz in zip(ts, zs, dzs)]
        assert np.abs(flow_residual(run, run.grid(50)) - want).max() <= 1e-15

    def test_stacked_run_rows_follow_their_own_flows(self):
        # two states as one system share their steps: each row ends where
        # its own run ends, to the integrator's tolerance
        states = [_sphere_on_plane_state(theta=0.3).to_full(),
                  _sphere_on_plane_state(theta=1.2, L=-0.2).to_full()]
        stacked = integrate_geodesic(states, 2.0, dense_output=False)
        ends = stacked.ends()
        assert ends["x"].shape == (2, 2) and not stacked.truncated
        for k, s0 in enumerate(states):
            single = integrate_geodesic(s0, 2.0).traj.y[-1]
            row = stacked.traj.y[-1].reshape(2, -1)[k]
            assert np.abs(row - single).max() < 1e-8
            assert np.array_equal(ends["u"][k], row[geodesic_layout(2).slices["u"]])
        with pytest.raises(ValueError, match="without dense output"):
            stacked.traj.sample([1.0])

    def test_stacked_run_leaves_the_chart_with_any_row(self):
        # the second state heads for the sphere's pole band
        states = [_sphere_on_plane_state(theta=np.pi / 2, L=0.0, b1=0.0, b2=0.0,
                                         x=(1.0, 0.0)).to_full(),
                  _sphere_on_plane_state(theta=np.pi, L=0.0, b1=0.0, b2=0.0,
                                         x=(1.0, 0.0)).to_full()]
        assert not integrate_geodesic(states[0], 2.0).truncated
        run = integrate_geodesic(states, 2.0, dense_output=False)
        assert run.truncated and run.t1 < 1.0

    def test_vtilde_symmetry(self):
        run = integrate_geodesic(_sphere_on_plane_state().to_full(), 3.0)
        res = vtilde_symmetry_check(run)
        assert res["charge"] <= 1e-7
        assert res["field"] <= 1e-7


class TestReduction:
    def test_reduced_matches_full_sphere_on_plane(self):
        s0 = _sphere_on_plane_state(theta=0.4, L=0.3, b1=0.1, b2=0.25)
        red = reduce_2d(s0, 3.0)
        full = integrate_geodesic(s0.to_full(), 3.0)
        for t in np.linspace(0.0, 3.0, 30):
            ch = red.state(t)
            fu = full.state(t)
            assert np.abs(ch.cfg.x - fu.cfg.x).max() < 1e-7
            assert np.abs(ch.cfg.xhat - fu.cfg.xhat).max() < 1e-7
            assert abs(ch.L - fu.lam[0, 1]) < 1e-7

    def test_consistency_L_equals_rho_thetadot(self):
        s0 = _sphere_on_plane_state()
        red = reduce_2d(s0, 3.0)
        h = 1e-6
        for t in np.linspace(0.1, 2.9, 15):
            ch = red.channels([t - h, t, t + h])
            thetadot = (ch["theta"][2] - ch["theta"][0]) / (2 * h)
            rho = 1.0 / (ch["kappa"][1] - ch["kappahat"][1])
            assert abs(ch["L"][1] - rho * thetadot) < 1e-7

    def test_zero_force_theta_constant(self):
        s0 = _sphere_on_plane_state(theta=0.8, L=0.0, b1=0.3, b2=0.0)
        red = reduce_2d(s0, 2.0)
        th = red.channels(red.grid(20))["theta"]
        # L stays zero (Ldot = a b2, b2dot = -thetadot b1 = 0)
        assert np.abs(th - 0.8).max() < 1e-9

    def test_rho_singular_flagged(self):
        cfg = aligned_configuration(charts.sphere(1.5), charts.sphere(1.5),
                                    np.array([1.2, 0.0]), np.array([1.0, 0.0]))
        s0 = Pendulum2DState(cfg=cfg, theta=0.2, L=0.3, b1=0.1, b2=0.0, a=1.0)
        red = reduce_2d(s0, 0.5)
        assert red.traj.meta["rho_singular"]
        # the curvature gap stays at 1 for the unit sphere on the plane
        red = reduce_2d(_sphere_on_plane_state(), 0.5)
        assert red.traj.meta["rho_singular"] is False


class TestPendulumForm:
    def test_sphere_on_plane_is_mathematical_pendulum(self):
        s0 = _sphere_on_plane_state(theta=0.5, L=0.6, b1=0.2, b2=0.3)
        red = reduce_2d(s0, 5.0)
        A, phi0 = pendulum_constants(red)

        def pend(t, y):
            return [y[1], A * np.sin(y[0] - phi0)]

        sol = solve_ivp(pend, (0, 5.0), [s0.theta, s0.L * 1.0], rtol=1e-11,
                        atol=1e-11, dense_output=True)
        ts = np.linspace(0, 5.0, 100)
        th = red.channels(ts)["theta"]
        assert np.abs(th - sol.sol(ts)[0]).max() < 1e-7

    def test_closed_form_b_matches_ode(self):
        cfg = aligned_configuration(charts.paraboloid(1.0), PLANE,
                                    np.array([0.3, 0.1]), np.zeros(2))
        s0 = Pendulum2DState(cfg=cfg, theta=0.2, L=0.4, b1=0.15, b2=-0.1, a=1.0)
        red = reduce_2d(s0, 3.0)
        assert not red.truncated
        A, phi0 = pendulum_constants(red)
        ts = red.grid(60)
        b1c, b2c = closed_form_b(red, ts, A, phi0)
        ch = red.channels(ts)
        assert np.abs(b1c - ch["b1"]).max() < 1e-6
        assert np.abs(b2c - ch["b2"]).max() < 1e-6

    def test_pendulum_residual_small(self):
        cfg = aligned_configuration(charts.paraboloid(1.0), PLANE,
                                    np.array([0.3, 0.1]), np.zeros(2))
        s0 = Pendulum2DState(cfg=cfg, theta=0.2, L=0.4, b1=0.15, b2=-0.1, a=1.0)
        red = reduce_2d(s0, 3.0)
        A, phi0 = pendulum_constants(red)
        assert pendulum_residual(red, A, phi0) < 1e-5

    def test_pendulum_residual_curved_target(self):
        # On a curved second surface the memory integrand is nonzero, so the
        # residual measures the quadrature of the memory force.
        cfg = aligned_configuration(SPHERE, charts.paraboloid(1.0),
                                    np.array([np.pi / 2, 0.0]), np.array([0.3, 0.2]))
        s0 = Pendulum2DState(cfg=cfg, theta=0.9, L=0.1, b1=0.05, b2=-0.03, a=1.0)
        red = reduce_2d(s0, 5.0)
        A, phi0 = pendulum_constants(red)
        assert pendulum_residual(red, A, phi0) < 1e-5

    def test_memory_channel_zero_for_proportional_curvatures(self):
        # kappahat = 0 * kappa on sphere-on-plane: the memory integrand
        # vanishes identically and the channels stay at zero.
        s0 = _sphere_on_plane_state()
        red = reduce_2d(s0, 4.0)
        ch = red.channels(red.grid(40))
        assert np.abs(ch["F"]).max() <= 1e-10


class TestFlatRolling:
    def test_forms_agree_on_sphere(self):
        cfg = aligned_configuration(SPHERE, PLANE, np.array([1.4, 0.0]), np.zeros(2))
        u0 = np.array([0.8, 0.6])
        v0 = np.array([0.2, -0.1])
        lam0 = 0.3 * E2
        kw = dict(T=3.0, tol=1e-9)
        ta = rn_rolling_flow(SPHERE, cfg.x, cfg.f, u0, v0, lam0, form="a", **kw)
        tb = rn_rolling_flow(SPHERE, cfg.x, cfg.f, u0, v0, lam0, form="b", **kw)
        ts = np.linspace(0, 3.0, 40)
        assert np.abs(ta.sample(ts) - tb.sample(ts)).max() < 1e-7

    def test_forms_agree_with_general_flow(self):
        cfg = aligned_configuration(SPHERE, PLANE, np.array([1.4, 0.0]), np.zeros(2))
        u0 = np.array([0.8, 0.6])
        v0 = np.array([0.2, -0.1])
        lam0 = 0.3 * E2
        ta = rn_rolling_flow(SPHERE, cfg.x, cfg.f, u0, v0, lam0, 3.0, form="a")
        full = integrate_geodesic(
            RollingGeodesicState(cfg=cfg, u=u0, v=v0, lam=lam0), 3.0)
        for t in np.linspace(0, 3.0, 25):
            za = ta.sample([t])[0]
            sf = full.state(t)
            assert np.abs(za[:2] - sf.cfg.x).max() < 1e-7
            assert np.abs(za[6:8] - sf.u).max() < 1e-7

    def test_magnetic_circle_with_parallel_charge(self):
        # Constant charge on the round sphere bends the contact curve into
        # a circle; its development on the plane is a circle as well, with
        # radius speed / (charge * curvature).
        a = 1.0
        L0 = 0.8
        cfg = aligned_configuration(SPHERE, PLANE, np.array([np.pi / 2, 0.0]), np.zeros(2))
        run = integrate_geodesic(
            RollingGeodesicState(cfg=cfg, u=np.array([a, 0.0]),
                                 v=np.zeros(2), lam=L0 * E2), 4.0)
        pts = np.array([run.state(t).cfg.xhat for t in run.grid(60)])
        # fit circle: all points equidistant from the mean-based center estimate
        # using three points instead for an exact construction
        p0, p1, p2 = pts[0], pts[20], pts[40]
        ax, ay = p1 - p0, p2 - p0
        d = 2 * (ax[0] * ay[1] - ax[1] * ay[0])
        ux = (ay[1] * (ax @ ax) - ax[1] * (ay @ ay)) / d
        uy = (ax[0] * (ay @ ay) - ay[0] * (ax @ ax)) / d
        center = p0 + np.array([ux, uy])
        radii = np.linalg.norm(pts - center, axis=1)
        assert radii.max() - radii.min() < 1e-6
        assert radii.mean() == pytest.approx(a / L0, abs=1e-6)


class TestCharge:
    def test_zero_field_constant_charge(self):
        s0 = _sphere_on_plane_state(b1=0.0, b2=0.0, L=0.5)
        run = integrate_geodesic(s0.to_full(), 4.0)
        rep = charge_monitor(run)
        assert np.abs(rep["charge"] - 0.5).max() < 1e-9
        assert rep["sup_error"] <= 1e-6

    def test_reconstruction_generic(self):
        run = integrate_geodesic(_sphere_on_plane_state().to_full(), 5.0)
        assert charge_monitor(run)["sup_error"] <= 1e-6

    def test_reconstruction_paraboloid(self):
        cfg = aligned_configuration(charts.paraboloid(0.9), PLANE,
                                    np.array([0.2, -0.1]), np.zeros(2))
        s0 = Pendulum2DState(cfg=cfg, theta=0.3, L=0.2, b1=0.4, b2=0.0, a=1.0)
        run = integrate_geodesic(s0.to_full(), 5.0)
        assert charge_monitor(run)["sup_error"] <= 1e-6
