import re

import numpy as np
import pytest

from rollgeo import charts
from rollgeo import integrate as integrate_module
from rollgeo.errors import SingularMetricError
from rollgeo.integrate import DERIV_STEP, integrate
from rollgeo.transport import geodesic_flow, geodesic_residual, speed

SPHERE = charts.sphere(1.0)
PLANE = charts.euclidean(2)


class TestTrajectoryDerivative:
    def test_harmonic_oscillator(self):
        # y'' = -y from (1, 0): the state is (cos t, -sin t)
        traj = integrate(lambda t, y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]),
                         3.0, tol=1e-12, max_step=0.02)
        ts, zs, dzs = traj.derivative(traj.grid(50))
        assert ts[0] == traj.t0 + DERIV_STEP and ts[-1] == traj.t1 - DERIV_STEP
        assert np.abs(zs[:, 0] - np.cos(ts)).max() < 1e-9
        assert np.abs(dzs[:, 0] + np.sin(ts)).max() < 1e-8
        assert np.abs(dzs[:, 1] + np.cos(ts)).max() < 1e-8

    def test_backward_harmonic_oscillator(self):
        # the same oscillator run back to t = -2: the clip stays inside the run
        traj = integrate(lambda t, y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]),
                         -2.0, tol=1e-12, max_step=0.02)
        ts, zs, dzs = traj.derivative(traj.grid(50))
        assert ts[0] == traj.t0 - DERIV_STEP and ts[-1] == traj.t1 + DERIV_STEP
        assert np.abs(zs[:, 0] - np.cos(ts)).max() < 1e-9
        assert np.abs(dzs[:, 0] + np.sin(ts)).max() < 1e-8
        assert np.abs(dzs[:, 1] + np.cos(ts)).max() < 1e-8

    @pytest.mark.parametrize("margin", [None, lambda y: 0.5 + y[0]])
    def test_cost_in_meta_counts_every_call_and_step(self, margin):
        # the oscillator over T = 3; with the margin it is cut at
        # cos t = -0.5, near t = 2.1
        calls = []

        def rhs(t, y):
            calls.append(t)
            return np.array([y[1], -y[0]])

        traj = integrate(rhs, np.array([1.0, 0.0]), 3.0, tol=1e-10, margin=margin)
        assert traj.truncated == (margin is not None)
        assert traj.meta["rhs_evals"] == len(calls)
        assert traj.meta["steps"] == len(traj.t) - 1

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, SingularMetricError])
    def test_rhs_error_becomes_integrator_failure(self, error):
        # the oscillator's right-hand side fails once t >= 0.3, as a solve
        # with a singular matrix does when a stage lands on the singularity
        def rhs(t, y):
            if t >= 0.3:
                raise error("Singular matrix")
            return np.array([y[1], -y[0]])

        with pytest.raises(RuntimeError, match="integrator failed") as info:
            integrate(rhs, np.array([1.0, 0.0]), 1.0, tol=1e-10)
        m = re.search(r"at t = (\S+) with state \[([^\]]*)\]: Singular matrix$",
                      str(info.value))
        assert m is not None
        t = float(m.group(1))
        assert 0.3 <= t <= 1.0
        state = [float(v) for v in m.group(2).split(",")]
        assert len(state) == 2 and abs(state[0] ** 2 + state[1] ** 2 - 1.0) < 1e-3
        assert isinstance(info.value.__cause__, error)

    def test_nodes_only_run_skips_the_interpolants(self):
        # the pendulum y'' = -sin y: without dense output the nodes and steps
        # are the same, and each step saves its interpolant's 3 right-hand sides
        def rhs(t, y):
            return np.array([y[1], -np.sin(y[0])])

        dense = integrate(rhs, np.array([1.0, 0.0]), 5.0, tol=1e-10)
        nodes = integrate(rhs, np.array([1.0, 0.0]), 5.0, tol=1e-10, dense_output=False)
        assert np.array_equal(nodes.t, dense.t) and np.array_equal(nodes.y, dense.y)
        assert nodes.meta["steps"] == dense.meta["steps"] > 0
        assert nodes.meta["rhs_evals"] == dense.meta["rhs_evals"] - 3 * dense.meta["steps"]
        with pytest.raises(ValueError, match="without dense output"):
            nodes.sample([1.0])

    def test_later_chunks_start_with_the_carried_step(self):
        # capped at 0.1, the oscillator's steps are the cap: a chunk that
        # started afresh would open with a shorter step of its own choosing,
        # and steps of exactly 0.1 would add up to just short of a chunk's
        # end and leave a step of about 1e-16 there
        traj = integrate(lambda t, y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]),
                         3.0, tol=1e-9, max_step=0.1, reproject=lambda y: y)
        steps = np.diff(traj.t[traj.t >= 0.5])
        assert len(steps) == 25
        assert np.allclose(steps, 0.1, rtol=1e-8, atol=0)

    def test_grinding_chunk_fails_at_the_rhs_cap(self, monkeypatch):
        # y' = 1 / (0.5 - t) has no solution past t = 0.5: the stepper
        # shrinks its steps towards it until the chunk's allowance runs out
        monkeypatch.setattr(integrate_module, "MAX_CHUNK_RHS", 1000)
        calls = []

        def rhs(t, y):
            calls.append(t)
            return np.array([1.0 / (0.5 - t)])

        with pytest.raises(RuntimeError, match="more than 1000 right-hand sides") as info:
            integrate(rhs, np.zeros(1), 1.0)
        assert len(calls) == 1000
        m = re.search(r"at t = (\S+) with state", str(info.value))
        assert abs(float(m.group(1)) - 0.5) < 1e-3

    def test_run_without_hook_is_one_chunk_of_bounded_steps(self):
        # y' = 1 is integrated exactly by a step of any length: uncapped, the
        # stepper crosses T = 3 in one or two steps.  A run with nothing to
        # reproject is one chunk, and its steps are held to CHUNK.
        traj = integrate(lambda t, y: np.ones(1), np.zeros(1), 3.0)
        assert traj.meta["chunks"] == 1
        assert np.diff(traj.t).max() <= integrate_module.CHUNK * (1 + 1e-9)
        assert traj.t[-1] == 3.0

    def test_rhs_cap_counts_per_chunk_of_time(self, monkeypatch):
        # the oscillator at steps of 0.01 makes about 750 right-hand sides in
        # each CHUNK of time, and about 4,500 over T = 3, in one chunk
        monkeypatch.setattr(integrate_module, "MAX_CHUNK_RHS", 1000)
        traj = integrate(lambda t, y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]),
                         3.0, max_step=0.01)
        assert traj.meta["chunks"] == 1
        assert traj.meta["rhs_evals"] > 4 * 1000

    def test_chunk_boundaries_take_the_earlier_chunk(self):
        # y' = 1 in chunks of 0.5, each boundary state shifted by 1e-3: at a
        # boundary the dense output is the earlier chunk's, before the shift.
        traj = integrate(lambda t, y: np.ones(1), np.zeros(1), 1.5,
                         reproject=lambda y: y + 1e-3)
        ys = traj.sample([0.0, 0.5, 0.75, 1.0, 1.5])[:, 0]
        assert np.allclose(ys, [0.0, 0.5, 0.751, 1.001, 1.502], rtol=0, atol=1e-12)
        assert traj.sample(1.5 + 1e-13)[0, 0] == traj.y[-1, 0]
        for t in (-1e-9, 1.5 + 1e-9):
            with pytest.raises(ValueError, match="outside the integrated interval"):
                traj.sample([0.5, t])


class TestGeodesicFlow:
    def test_flat_straight_line(self):
        tr = geodesic_flow(PLANE, np.zeros(2), np.array([1.0, 2.0]), 3.0)
        assert np.allclose(tr.y[-1], [3.0, 6.0, 1.0, 2.0], atol=1e-10)

    def test_great_circle_period(self):
        # From the equator heading along a meridian: a great circle through
        # the poles would close after 2 pi; the chart truncates at the band.
        tr = geodesic_flow(SPHERE, np.array([np.pi / 2, 0.0]), np.array([-1.0, 0.0]), 3.0)
        assert tr.truncated  # hits the colatitude band before the pole
        # stay on the equator instead: equator is a geodesic, period 2 pi
        tr = geodesic_flow(SPHERE, np.array([np.pi / 2, 0.0]), np.array([0.0, 1.0]), 2 * np.pi)
        assert not tr.truncated
        assert abs(tr.y[-1][0] - np.pi / 2) < 1e-8
        assert abs(tr.y[-1][1] - 2 * np.pi) < 1e-7

    def test_energy_conserved(self):
        tr = geodesic_flow(SPHERE, np.array([np.pi / 2, 0.0]), np.array([0.6, 0.8]), 5.0)
        sp = [speed(SPHERE, y[:2], y[2:]) for y in tr.sample(tr.grid(100))]
        assert max(sp) - min(sp) < 1e-9

    def test_covariant_residual(self):
        tr = geodesic_flow(SPHERE, np.array([np.pi / 2, 0.2]), np.array([0.3, 0.9]), 2.0)
        assert geodesic_residual(SPHERE, tr, 100) < 1e-7

    def test_local_minimality_spot(self):
        # Chart-length along the geodesic <= length of perturbed paths with
        # the same endpoints (sphere, short arc).
        x0 = np.array([np.pi / 2, 0.0])
        v0 = np.array([0.5, 0.9])
        tr = geodesic_flow(SPHERE, x0, v0, 1.0)
        ts = tr.grid(200)
        ys = tr.sample(ts)

        def length(path):
            total = 0.0
            for a, b in zip(path[:-1], path[1:]):
                mid = 0.5 * (a + b)
                d = b - a
                total += np.sqrt(d @ SPHERE.metric(mid) @ d)
            return total

        base = length(ys[:, :2])
        rng = np.random.default_rng(0)
        for _ in range(5):
            bumpseed = rng.uniform(-1, 1, size=(2,))
            bump = np.sin(np.pi * np.linspace(0, 1, len(ts)))[:, None] * bumpseed * 0.05
            assert length(ys[:, :2] + bump) >= base - 1e-9
