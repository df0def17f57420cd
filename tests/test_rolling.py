import re

import numpy as np
import pytest

from rollgeo import charts
from rollgeo.charts import ChartMetric
from rollgeo.errors import FrameError, SingularMetricError
from rollgeo.geodesics import (
    E2,
    Pendulum2DState,
    RollingGeodesicState,
    integrate_geodesic,
    reduce_2d,
)
from rollgeo.geometry import christoffel, gauss_curvature
from rollgeo.integrate import integrate
from rollgeo.rolling import (
    RollingConfiguration,
    aligned_configuration,
    curvature_gap,
    develop,
    distribution_basis,
    noslip_notwist_residual,
    so_projection,
)
from rollgeo.submersion import (
    CotangentState,
    frame_bundle,
    free_hamiltonian,
    lifted_hamiltonian_flow,
)
from rollgeo.transport import gamma_contract

SPHERE = charts.sphere(1.0)
PLANE = charts.euclidean(2)


def _plane_on_plane(x=(0.0, 0.0), xhat=(0.0, 0.0)):
    return aligned_configuration(PLANE, PLANE, np.array(x), np.array(xhat))


def _sphere_on_plane(x=(np.pi / 2, 0.0), xhat=(0.0, 0.0)):
    return aligned_configuration(SPHERE, PLANE, np.array(x), np.array(xhat))


class TestConfiguration:
    def test_isometry_defect_zero_for_frames(self):
        cfg = _sphere_on_plane()
        cfg.validate()
        assert cfg.isometry_defect() < 1e-12

    def test_dimension_mismatch_rejected(self):
        from rollgeo.errors import DimensionError
        with pytest.raises(DimensionError):
            RollingConfiguration(
                chart=charts.euclidean(3), chart_hat=PLANE,
                x=np.zeros(3), xhat=np.zeros(2),
                f=np.eye(3), fhat=np.eye(2),
            )


class TestDistributionBasis:
    def test_plane_on_plane_no_fiber_part(self):
        cfg = _plane_on_plane()
        for ej, vhat, w in distribution_basis(cfg):
            assert np.abs(w).max() < 1e-12
            assert np.allclose(vhat, ej)

    def test_sphere_on_plane_matches_connection_form(self):
        # Flat second factor: the fiber part is the sphere-side connection
        # form alone; cross-check it against an independent finite
        # difference of the canonical frame field.
        cfg = _sphere_on_plane(x=(1.1, 0.4))
        basis = distribution_basis(cfg)
        from rollgeo.geometry import cholesky_frame
        h = 1e-6
        for j, (ej, vhat, w) in enumerate(basis):
            x = cfg.x
            g = SPHERE.metric(x)
            E = cholesky_frame(SPHERE, x)
            dE = (cholesky_frame(SPHERE, x + h * ej) - cholesky_frame(SPHERE, x - h * ej)) / (2 * h)
            gam = christoffel(SPHERE, x)
            cov = dE + gamma_contract(gam, ej) @ E
            want = E.T @ g @ cov
            want = 0.5 * (want - want.T)
            assert np.abs(w - want).max() < 1e-6

    def test_fiber_part_skew(self):
        cfg = aligned_configuration(charts.paraboloid(1.2), SPHERE,
                                    np.array([0.4, -0.2]), np.array([1.3, 0.5]))
        for _, _, w in distribution_basis(cfg):
            assert np.abs(w + w.T).max() < 1e-10

    def test_base_velocities_unit_speed(self):
        cfg = _sphere_on_plane(x=(1.2, -0.3))
        g = SPHERE.metric(cfg.x)
        for ej, vhat, _ in distribution_basis(cfg):
            assert ej @ g @ ej == pytest.approx(1.0, abs=1e-12)
            assert vhat @ vhat == pytest.approx(1.0, abs=1e-10)


class TestSoProjection:
    def test_identity_unchanged(self):
        g = SPHERE.metric(np.array([1.0, 0.2]))
        f = np.linalg.inv(np.linalg.cholesky(g)).T
        assert np.abs(so_projection(f, g) - f).max() < 1e-12

    def test_scaled_frame_recovered(self):
        g = np.eye(2)
        f = 1.001 * np.eye(2)
        out = so_projection(f, g)
        assert np.abs(out - np.eye(2)).max() < 1e-12

    def test_small_perturbation_defect(self):
        rng = np.random.default_rng(3)
        g = charts.paraboloid(1.0).metric(np.array([0.5, 0.1]))
        f = np.linalg.inv(np.linalg.cholesky(g)).T + rng.normal(scale=1e-6, size=(2, 2))
        out = so_projection(f, g)
        assert np.abs(out.T @ g @ out - np.eye(2)).max() < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(FrameError):
            so_projection(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))


class TestDevelop:
    def test_plane_on_plane_translation(self):
        cfg = _plane_on_plane(xhat=(1.0, 2.0))
        curve = lambda t: np.array([0.6 * t, 0.8 * t])
        dcurve = lambda t: np.array([0.6, 0.8])
        path = develop(cfg, curve, dcurve, 2.0)
        end = path.configuration(2.0)
        assert np.allclose(end.xhat, [1.0 + 1.2, 2.0 + 1.6], atol=1e-9)
        assert np.abs(end.q - cfg.q).max() < 1e-10

    def test_sphere_on_plane_straight_trace(self):
        # Rolling along the equator, a geodesic, develops to a straight
        # segment of the same length on the plane.
        cfg = _sphere_on_plane()
        curve = lambda t: np.array([np.pi / 2, t])
        dcurve = lambda t: np.array([0.0, 1.0])
        path = develop(cfg, curve, dcurve, 3.0)
        ts = path.grid(40)
        pts = np.array([path.configuration(t).xhat for t in ts])
        d0 = pts[1] - pts[0]
        d0 /= np.linalg.norm(d0)
        # all displacements parallel to the first one
        for p in pts[1:]:
            disp = p - pts[0]
            assert abs(disp @ np.array([-d0[1], d0[0]])) < 1e-8
        length = np.linalg.norm(pts[-1] - pts[0])
        assert length == pytest.approx(3.0, abs=1e-8)

    def test_small_circle_holonomy(self):
        # One loop around the colatitude-pi/3 circle turns a parallel frame
        # by 2 pi (1 - cos pi/3) = pi (the classical closed form).
        phi0 = np.pi / 3
        cfg = _sphere_on_plane(x=(phi0, 0.0))
        path = develop(cfg, lambda t: np.array([phi0, t]), lambda t: np.array([0.0, 1.0]),
                       2 * np.pi)
        turn = np.linalg.solve(cfg.f, path.configuration(2 * np.pi).f)
        assert abs(abs(np.arctan2(turn[1, 0], turn[0, 0])) - np.pi) < 1e-7

    def test_residuals_small(self):
        cfg = _sphere_on_plane(x=(1.2, 0.0))
        curve = lambda t: np.array([1.2 + 0.3 * np.sin(t), 0.7 * t])
        dcurve = lambda t: np.array([0.3 * np.cos(t), 0.7])
        path = develop(cfg, curve, dcurve, 2.0)
        res = noslip_notwist_residual(path)
        assert res["slip"] <= 1e-8
        assert res["twist"] <= 1e-8

    def test_twist_detected_on_frozen_isometry(self):
        # Deliberate violation: freeze the frames while the contact point
        # moves on the curved sphere; the twist residual must light up.
        cfg = _sphere_on_plane(x=(1.2, 0.0))
        curve = lambda t: np.array([1.2, 0.9 * t])
        dcurve = lambda t: np.array([0.0, 0.9])
        good = develop(cfg, curve, dcurve, 1.5)
        frozen = develop(cfg, curve, dcurve, 1.5)
        z = frozen.traj.y
        z[:, good.dim:good.dim + 4] = z[0, good.dim:good.dim + 4]  # freeze f nodes
        # rebuild a fake dense path by piecewise-constant frames: measure twist
        # directly instead via the covariant derivative of the frozen frame
        gam = christoffel(SPHERE, curve(0.5))
        cov = gamma_contract(gam, dcurve(0.5)) @ cfg.f
        assert np.abs(cov).max() > 0.1
        assert noslip_notwist_residual(good)["twist"] <= 1e-8

    def test_speed_match(self):
        cfg = aligned_configuration(SPHERE, charts.paraboloid(0.8),
                                    np.array([1.3, 0.2]), np.array([0.1, -0.2]))
        curve = lambda t: np.array([1.3 + 0.2 * t, 0.2 + 0.5 * t])
        dcurve = lambda t: np.array([0.2, 0.5])
        path = develop(cfg, curve, dcurve, 1.5)
        h = 1e-6
        for t in np.linspace(0.1, 1.4, 15):
            zm, z0, zp = path.traj.sample([t - h, t, t + h])
            xhat = z0[:2]
            xhatdot = (zp[:2] - zm[:2]) / (2 * h)
            sp = np.sqrt(xhatdot @ path.chart_hat.metric(xhat) @ xhatdot)
            xdot = dcurve(t)
            sp0 = np.sqrt(xdot @ SPHERE.metric(curve(t)) @ xdot)
            assert abs(sp - sp0) < 1e-8

    def test_reparametrization_covariance(self):
        cfg = _sphere_on_plane(x=(1.1, 0.0))
        curve = lambda t: np.array([1.1 + 0.2 * t, 0.6 * t])
        dcurve = lambda t: np.array([0.2, 0.6])
        path = develop(cfg, curve, dcurve, 1.0)
        # phi(s) = s^2 / 2 on [0, sqrt(2)]: same geometric curve
        phi = lambda s: 0.5 * s * s
        dphi = lambda s: s
        path2 = develop(cfg, lambda s: curve(phi(s)), lambda s: dcurve(phi(s)) * dphi(s),
                        np.sqrt(2.0))
        end1 = path.configuration(1.0)
        end2 = path2.configuration(np.sqrt(2.0))
        assert np.abs(end1.xhat - end2.xhat).max() < 1e-8
        assert np.abs(end1.q - end2.q).max() < 1e-8

    def test_concatenation(self):
        cfg = _sphere_on_plane(x=(1.3, 0.0))
        curve = lambda t: np.array([1.3 - 0.1 * t, 0.5 * t])
        dcurve = lambda t: np.array([-0.1, 0.5])
        whole = develop(cfg, curve, dcurve, 2.0)
        first = develop(cfg, curve, dcurve, 1.0)
        mid = first.configuration(1.0)
        second = develop(mid, lambda s: curve(1.0 + s), lambda s: dcurve(1.0 + s), 1.0)
        e1 = whole.configuration(2.0)
        e2 = second.configuration(1.0)
        assert np.abs(e1.xhat - e2.xhat).max() < 1e-8
        assert np.abs(e1.q - e2.q).max() < 1e-8

    def test_chart_exit_truncates(self):
        cfg = _sphere_on_plane(x=(0.5, 0.0))
        curve = lambda t: np.array([0.5 - 0.4 * t, 0.0])  # heads for the pole band
        dcurve = lambda t: np.array([-0.4, 0.0])
        path = develop(cfg, curve, dcurve, 3.0)
        assert path.truncated
        assert path.t1 < 3.0

    def test_basis_directions_reproduce_develop(self):
        # Integrate the admissible directions with the base-curve
        # coefficients and compare against develop: state (xhat, C) with C
        # the isometry coefficients in the canonical frame fields.
        cfg = _sphere_on_plane(x=(1.2, 0.1))
        curve = lambda t: np.array([1.2 + 0.25 * np.sin(t), 0.1 + 0.5 * t])
        dcurve = lambda t: np.array([0.25 * np.cos(t), 0.5])
        path = develop(cfg, curve, dcurve, 1.5)

        from rollgeo.geometry import cholesky_frame

        def rhs(t, z):
            xhat, C = z[:2], z[2:].reshape(2, 2)
            x = curve(t)
            E = cholesky_frame(SPHERE, x)
            Ehat = cholesky_frame(PLANE, xhat)
            q = Ehat @ C @ np.linalg.inv(E)
            c = np.linalg.solve(E, dcurve(t))
            cfg_t = RollingConfiguration(chart=SPHERE, chart_hat=PLANE, x=x,
                                         xhat=xhat, f=E, fhat=q @ E)
            basis = distribution_basis(cfg_t)
            xhatdot = sum(cj * vh for cj, (_, vh, _) in zip(c, basis))
            W = sum(cj * w for cj, (_, _, w) in zip(c, basis))
            Cdot = C @ W
            return np.concatenate([xhatdot, Cdot.ravel()])

        E0 = cholesky_frame(SPHERE, cfg.x)
        Ehat0 = cholesky_frame(PLANE, cfg.xhat)
        C0 = np.linalg.solve(Ehat0, cfg.q @ E0)
        tr = integrate(rhs, np.concatenate([cfg.xhat, C0.ravel()]), 1.5, 1e-10,
                       max_step=0.02)
        end = path.configuration(1.5)
        xhat1, C1 = tr.y[-1][:2], tr.y[-1][2:].reshape(2, 2)
        q1 = cholesky_frame(PLANE, xhat1) @ C1 @ np.linalg.inv(cholesky_frame(SPHERE, curve(1.5)))
        assert np.abs(xhat1 - end.xhat).max() < 1e-7
        assert np.abs(q1 - end.q).max() < 1e-7


class TestCurvatureGap:
    def test_plane_on_plane_zero(self):
        rep = curvature_gap(_plane_on_plane())
        assert rep["min_singular_value"] == pytest.approx(0.0, abs=1e-10)

    def test_sphere_on_plane_unit(self):
        rep = curvature_gap(_sphere_on_plane(x=(1.0, 0.3)))
        assert rep["min_singular_value"] == pytest.approx(1.0, abs=1e-7)

    def test_equal_spheres_zero(self):
        cfg = aligned_configuration(charts.sphere(1.5), charts.sphere(1.5),
                                    np.array([1.0, 0.0]), np.array([2.0, 0.4]))
        rep = curvature_gap(cfg)
        assert rep["min_singular_value"] == pytest.approx(0.0, abs=1e-8)

    def test_two_dim_entry_is_curvature_difference(self):
        chart = charts.paraboloid(1.1)
        cfg = aligned_configuration(chart, SPHERE,
                                    np.array([0.5, -0.3]), np.array([1.2, 0.1]))
        rep = curvature_gap(cfg)
        want = gauss_curvature(chart, cfg.x) - gauss_curvature(SPHERE, cfg.xhat)
        assert rep["map"][0, 0] == pytest.approx(want, abs=1e-7)


class TestMetricValidation:
    """The flows check the chart metric at their start and chunk boundaries."""

    BAD_CHARTS = {
        "indefinite": ChartMetric(dim=2, g=lambda x: np.diag([1.0, -0.5]),
                                  dg=lambda x: np.zeros((2, 2, 2)), label="indefinite"),
        "non-symmetric": ChartMetric(dim=2, g=lambda x: np.array([[1.0, 0.1], [0.0, 1.0]]),
                                     dg=lambda x: np.zeros((2, 2, 2)),
                                     label="non-symmetric"),
    }

    @staticmethod
    def _start(chart):
        return RollingConfiguration(chart=chart, chart_hat=PLANE, x=np.zeros(2),
                                    xhat=np.zeros(2), f=np.eye(2), fhat=np.eye(2))

    @pytest.mark.parametrize("chart_name", sorted(BAD_CHARTS))
    @pytest.mark.parametrize("flow", ["geodesic", "reduce_2d", "develop", "lift"])
    def test_bad_start_metric_rejected(self, chart_name, flow):
        cfg = self._start(self.BAD_CHARTS[chart_name])
        direction = np.array([1.0, 0.0])
        with pytest.raises(SingularMetricError, match=chart_name):
            if flow == "geodesic":
                integrate_geodesic(RollingGeodesicState(cfg=cfg, u=direction,
                                                        v=np.zeros(2), lam=0.1 * E2), 1.0)
            elif flow == "reduce_2d":
                reduce_2d(Pendulum2DState(cfg=cfg, theta=0.0, L=0.1, b1=0.0, b2=0.0,
                                          a=1.0), 1.0)
            elif flow == "develop":
                develop(cfg, lambda t: t * direction, lambda t: direction, 1.0)
            else:
                s0 = CotangentState(x=np.zeros(2), y=np.zeros(4), a=direction,
                                    b=np.zeros(4))
                lifted_hamiltonian_flow(frame_bundle(cfg.chart, PLANE),
                                        free_hamiltonian(2), s0, 1.0)

    def test_canonical_frame_rejects_indefinite_metric(self):
        with pytest.raises(SingularMetricError, match="indefinite"):
            aligned_configuration(self.BAD_CHARTS["indefinite"], PLANE,
                                  np.zeros(2), np.zeros(2))

    def test_integrator_failure_names_time_and_state(self):
        # With its true derivative the degenerating metric makes the
        # Christoffel symbols blow up before the first chunk boundary: the
        # stepper fails near x0 = 1, which the curve reaches at t = 0.5.
        def dg(x):
            out = np.zeros((2, 2, 2))
            out[0, 1, 1] = -1.0
            return out

        chart = ChartMetric(dim=2, g=lambda x: np.diag([1.0, 1.0 - x[0]]), dg=dg,
                            label="degenerating")
        x0 = np.array([0.5, 0.0])
        direction = np.array([1.0, 0.0])
        cfg = aligned_configuration(chart, PLANE, x0, np.zeros(2))
        with pytest.raises(RuntimeError, match="integrator failed") as info:
            develop(cfg, lambda t: x0 + t * direction, lambda t: direction, 2.0)
        m = re.search(r"at t = (\S+) with state \[([^\]]*)\]", str(info.value))
        assert m is not None
        assert abs(float(m.group(1)) - 0.5) < 1e-3
        assert len(m.group(2).split(",")) == 11

    def test_degenerating_metric_caught_at_chunk_boundary(self):
        # g = diag(1, 1 - x0) turns indefinite past x0 = 1.  Its derivative is
        # supplied as zero, so the transport stays smooth through the
        # degeneracy and only the metric check can see it.
        chart = ChartMetric(dim=2, g=lambda x: np.diag([1.0, 1.0 - x[0]]),
                            dg=lambda x: np.zeros((2, 2, 2)), label="degenerating")
        x0 = np.array([0.6, 0.0])
        direction = np.array([1.0, 0.0])
        clocks = []

        def curve(t):
            clocks.append(t)
            return x0 + t * direction

        cfg = RollingConfiguration(chart=chart, chart_hat=PLANE, x=x0, xhat=np.zeros(2),
                                   f=np.diag([1.0, 1.0 / np.sqrt(0.4)]), fhat=np.eye(2))
        with pytest.raises(SingularMetricError, match="degenerating"):
            develop(cfg, curve, lambda t: direction, 2.0)
        # x0 passes 1 at t = 0.4; the first chunk boundary is at t = 0.5
        assert max(clocks) <= 0.5 + 1e-8
