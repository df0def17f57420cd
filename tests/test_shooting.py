import dataclasses

import numpy as np
import pytest

from rollgeo import charts, geodesics, shooting
from rollgeo.errors import DimensionError
from rollgeo.rolling import aligned_configuration
from rollgeo.shooting import (
    FD_STEP,
    ShootingProblem,
    _jacobian,
    _residual_vector,
    _shots,
    configuration_distance,
    endpoint_map,
    solve,
)
from rollgeo.suites import _aligned_start, scenario_by_name

SPHERE = charts.sphere(1.0)
PLANE = charts.euclidean(2)


def _cfg0():
    return aligned_configuration(SPHERE, PLANE, np.array([np.pi / 2, 0.0]), np.zeros(2))


class TestEndpointMap:
    def test_zero_covector_straight_roll(self):
        # No charge and no field: the contact curve is the equator and the
        # development is a straight segment of length aT.
        cfg0 = _cfg0()
        end = endpoint_map(cfg0, np.pi / 2, np.zeros(2), 0.0, T=1.0, a=1.0)
        assert np.linalg.norm(end.xhat - cfg0.xhat) == pytest.approx(1.0, abs=1e-8)
        assert abs(end.x[0] - np.pi / 2) < 1e-9

    def test_continuity_probe(self):
        cfg0 = _cfg0()
        base = endpoint_map(cfg0, 1.0, np.array([0.1, 0.2]), 0.3, T=2.0)
        bump = endpoint_map(cfg0, 1.0 + 1e-6, np.array([0.1, 0.2]), 0.3, T=2.0)
        delta = max(np.abs(bump.x - base.x).max(), np.abs(bump.xhat - base.xhat).max())
        assert delta < 1e-4  # O(1e-6) data change moves the endpoint O(1e-6)

    def test_chart_exit_raises(self):
        cfg0 = aligned_configuration(SPHERE, PLANE, np.array([0.3, 0.0]), np.zeros(2))
        with pytest.raises(RuntimeError):
            endpoint_map(cfg0, 0.0, np.zeros(2), 0.0, T=3.0)  # runs into the pole band


class TestConfigurationDistance:
    def test_identical_zero(self):
        cfg = _cfg0()
        assert configuration_distance(cfg, cfg) == 0.0

    def test_rotation_term(self):
        cfg = _cfg0()
        alpha = 0.3
        c, s = np.cos(alpha), np.sin(alpha)
        rot = np.array([[c, -s], [s, c]])
        other = aligned_configuration(SPHERE, PLANE, cfg.x, cfg.xhat)
        other = type(other)(chart=SPHERE, chart_hat=PLANE, x=cfg.x, xhat=cfg.xhat,
                            f=cfg.f, fhat=rot @ cfg.fhat)
        want = 0.5 * np.linalg.norm(rot - np.eye(2))
        assert configuration_distance(cfg, other) == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        cfgs = []
        for _ in range(3):
            x = np.array([rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5)])
            xhat = rng.uniform(-1, 1, size=2)
            cfgs.append(aligned_configuration(SPHERE, PLANE, x, xhat))
        a, b, c = cfgs
        assert configuration_distance(a, b) == pytest.approx(configuration_distance(b, a))
        assert configuration_distance(a, c) <= (
            configuration_distance(a, b) + configuration_distance(b, c) + 1e-12
        )

    def test_chart_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            configuration_distance(
                _cfg0(), aligned_configuration(PLANE, PLANE, np.zeros(2), np.zeros(2)))


class TestSolve:
    def test_inverse_crime_recovery(self):
        cfg0 = _cfg0()
        true_p = np.array([1.1, 0.15, -0.1, 0.25])
        target = endpoint_map(cfg0, true_p[0], true_p[1:3], true_p[3], T=2.0)
        prob = ShootingProblem(cfg0=cfg0, cfg1=target, T=2.0, a=1.0, tol=1e-8)
        rng = np.random.default_rng(1)
        p_start = true_p + rng.uniform(-1e-2, 1e-2, size=4)
        res = solve(prob, p0=p_start)
        assert res.status == "converged"
        assert res.residual <= 1e-8
        assert res.iterations <= 50
        # residual history is strictly decreasing across accepted steps
        assert all(b < a for a, b in zip(res.history, res.history[1:]))

    def test_straight_target_zero_covector(self):
        cfg0 = _cfg0()
        target = endpoint_map(cfg0, np.pi / 2, np.zeros(2), 0.0, T=1.0)
        prob = ShootingProblem(cfg0=cfg0, cfg1=target, T=1.0, tol=1e-8)
        res = solve(prob, p0=np.array([np.pi / 2 + 0.005, 0.003, -0.002, 0.004]))
        assert res.status == "converged"
        assert abs(res.params[3]) < 1e-5  # charge comes back to zero
        # the field component along the roll direction is a true null
        # direction of the endpoint map here, so only the perpendicular
        # component is determined
        u_dir = np.array([np.cos(res.params[0]), np.sin(res.params[0])])
        perp = res.params[1:3] - (res.params[1:3] @ u_dir) * u_dir
        assert np.abs(perp).max() < 1e-5

    def test_plane_on_plane_warns_and_stalls(self):
        cfg0 = aligned_configuration(PLANE, PLANE, np.zeros(2), np.zeros(2))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        cfg1 = type(cfg0)(chart=PLANE, chart_hat=PLANE, x=np.array([1.0, 0.0]),
                          xhat=np.array([1.0, 0.0]), f=np.eye(2), fhat=rot)
        prob = ShootingProblem(cfg0=cfg0, cfg1=cfg1, T=1.0, max_iterations=5)
        with pytest.warns(UserWarning):
            res = solve(prob)
        assert res.status != "converged"

    def test_deterministic_given_seed(self):
        cfg0 = _cfg0()
        target = endpoint_map(cfg0, 1.3, np.array([0.05, 0.0]), 0.1, T=1.5)
        prob = ShootingProblem(cfg0=cfg0, cfg1=target, T=1.5, seed=42,
                               max_iterations=8)
        r1 = solve(prob)
        r2 = solve(prob)
        assert r1.residual == r2.residual
        assert np.array_equal(r1.params, r2.params)

    def test_weak_jacobian_direction_kept(self):
        # The endpoint Jacobian here has singular values near
        # (2.98, 0.25, 3.4e-3, 2.8e-6); a least-squares cutoff that drops the
        # last one stalls the solve just above its tolerance.
        chart = charts.paraboloid(1.0)
        cfg0 = aligned_configuration(chart, PLANE, np.array([0.4, 0.1]), np.zeros(2))
        true_p = np.array([4.15, 0.17259, -0.11712, 0.07805])
        target = endpoint_map(cfg0, true_p[0], true_p[1:3], true_p[3], T=2.0)
        prob = ShootingProblem(cfg0=cfg0, cfg1=target, T=2.0, tol=1e-8, seed=0)
        rng = np.random.default_rng(0)
        res = solve(prob, p0=true_p + rng.uniform(-1e-2, 1e-2, size=4))
        assert res.status == "converged"
        assert res.residual < 1e-8


class TestStackedJacobian:
    """Each iteration's Jacobian comes from one stacked integration of p and p + h e_k."""

    @staticmethod
    def _problem():
        cfg0 = _cfg0()
        target = endpoint_map(cfg0, 1.3, np.array([0.05, 0.0]), 0.1, T=1.5)
        return ShootingProblem(cfg0=cfg0, cfg1=target, T=1.5)

    @staticmethod
    def _per_shot_jacobian(prob, p):
        """One integration per column, as a separate shot each."""
        r, _ = _residual_vector(prob, p)
        return np.array([(_residual_vector(prob, p + FD_STEP * e)[0] - r) / FD_STEP
                         for e in np.eye(len(p))]).T

    def test_agrees_with_a_tight_reference(self):
        # against per-shot columns at integrator tol 1e-13, the stacked
        # Jacobian at the default tol is no worse than per-shot columns are
        prob = self._problem()
        p = np.array([1.0, 0.3, -0.2, 0.0])
        ref = self._per_shot_jacobian(dataclasses.replace(prob, integrator_tol=1e-13), p)
        stacked = np.abs(_jacobian(prob, p) - ref).max(axis=0)
        per_shot = np.abs(self._per_shot_jacobian(prob, p) - ref).max(axis=0)
        assert stacked.max() <= 6e-9
        assert stacked.max() <= per_shot.max()

    def test_row_leaving_the_chart_ends_the_solve(self, monkeypatch):
        # with a step of pi the heading's neighbour rolls into the sphere's
        # pole band; the solve stops at its start point, as a chart-exit
        # column always did, and raises nothing
        cfg0 = aligned_configuration(SPHERE, PLANE, np.array([1.0, 0.0]), np.zeros(2))
        prob = ShootingProblem(cfg0=cfg0, cfg1=endpoint_map(cfg0, 0.0, np.zeros(2), 0.1, T=1.5),
                               T=1.5)
        monkeypatch.setattr(shooting, "FD_STEP", np.pi)
        R, run = _shots(prob, np.array([[0.0, 0.0, 0.0, 0.0], [np.pi, 0.0, 0.0, 0.0]]))
        assert R is None and run.truncated
        res = solve(prob, p0=np.zeros(4))
        r0, _ = _residual_vector(prob, np.zeros(4))
        assert res.status == "stalled" and res.iterations == 0
        assert np.array_equal(res.params, np.zeros(4))
        assert res.history == [np.linalg.norm(r0)] and not res.run.truncated

    def test_one_integration_per_jacobian(self, monkeypatch):
        # the catalog problem: the first shot, then per iteration one
        # stacked Jacobian run of 5 rows and one accepted trial, plus any
        # rejected trials
        scenario = scenario_by_name("sphere-on-plane-bvp")
        cfg0 = _aligned_start(scenario)
        true_p = np.asarray(scenario["true_params"], float)
        T, tol = scenario["T"], scenario["tol"]
        prob = ShootingProblem(cfg0=cfg0, T=T, integrator_tol=tol, seed=scenario["seed"],
                               cfg1=endpoint_map(cfg0, true_p[0], true_p[1:3], true_p[3], T,
                                                 tol=tol))
        rng = np.random.default_rng(scenario["seed"])
        p0 = true_p + rng.uniform(-1e-2, 1e-2, size=4)

        calls, norms = [], []
        integrate, residual_vector = geodesics.integrate, shooting._residual_vector

        def counted_integrate(rhs, y0, *args, **kwargs):
            calls.append((len(y0), kwargs["dense_output"]))
            return integrate(rhs, y0, *args, **kwargs)

        def noted_residual_vector(prob, p):
            r, run = residual_vector(prob, p)
            norms.append(None if r is None else float(np.linalg.norm(r)))
            return r, run

        monkeypatch.setattr(geodesics, "integrate", counted_integrate)
        monkeypatch.setattr(shooting, "_residual_vector", noted_residual_vector)
        res = solve(prob, p0=p0)
        assert res.status == "converged"
        rejected = sum(norm not in res.history for norm in norms)
        size = geodesics.geodesic_layout(2).size
        assert len(calls) == 1 + 2 * res.iterations + rejected
        assert calls.count((5 * size, False)) == res.iterations
        assert calls.count((size, True)) == len(calls) - res.iterations
