import numpy as np
import pytest

from rollgeo import charts
from rollgeo.charts import central_diff, fd_step
from rollgeo.errors import HorizontalityError
from rollgeo.geometry import (
    cholesky_frame,
    cholesky_frame_deriv,
    christoffel,
    gauss_curvature,
    sharp,
)
from rollgeo.submersion import (
    CotangentState,
    canonical_to_state,
    connection_coefficients,
    frame_bundle,
    free_hamiltonian,
    heisenberg,
    kinetic_hamiltonian,
    lifted_energy,
    lifted_hamiltonian_flow,
    nabla_bar_form_transport,
    projected_force_flow,
    testbed_by_name as resolve_testbed,
    trivial,
    verify_projection,
)
from rollgeo.transport import geodesic_flow


def _rot(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]])


def _fd_partials(tb, x, y):
    """Central differences of ``tb.A`` in x and in y, with one joint step."""
    h = fd_step(np.concatenate([x, y]))
    return (central_diff(lambda p: tb.coefficients(p, y), x, h),
            central_diff(lambda p: tb.coefficients(x, p), y, h))


def _frame_bundle_A_by_transport(chart, chart_hat, x, y):
    """Frame-bundle coefficients column by column: each frame angle's rate
    from the covariant derivative of the canonical frame, the second
    contact point's velocity through the tangent isometry q."""
    psi, xhat, psihat = y[0], y[1:3], y[3]
    E = cholesky_frame(chart, x)
    dE = cholesky_frame_deriv(chart, x)
    gam = christoffel(chart, x)
    Ehat = cholesky_frame(chart_hat, xhat)
    dEhat = cholesky_frame_deriv(chart_hat, xhat)
    gamhat = christoffel(chart_hat, xhat)
    q = Ehat @ _rot(psihat) @ np.linalg.inv(E @ _rot(psi))
    out = np.empty((4, 2))
    for i in range(2):
        B = np.linalg.inv(E) @ (-gam[:, i, :] @ E - dE[i])
        v = q[:, i]
        Bh = np.linalg.inv(Ehat) @ (-np.einsum("kil,i->kl", gamhat, v) @ Ehat
                                    - np.einsum("kab,k->ab", dEhat, v))
        out[:, i] = [0.5 * (B[1, 0] - B[0, 1]), v[0], v[1],
                     0.5 * (Bh[1, 0] - Bh[0, 1])]
    return out


# Chart pairs of the frame-bundle identities, with a sampler of contact
# points inside both charts.
def _colatitude_point(rng):
    return np.array([rng.uniform(0.5, 2.6), rng.uniform(-3.0, 3.0)])


def _planar_point(rng):
    return rng.uniform(-1.0, 1.0, 2)


FRAME_BUNDLE_PAIRS = {
    "sphere/euclidean": (charts.sphere(1.0), charts.euclidean(2),
                         _colatitude_point, _planar_point),
    "paraboloid/sphere": (charts.paraboloid(1.0), charts.sphere(2.0),
                          _planar_point, _colatitude_point),
    "sphere/paraboloid": (charts.sphere(1.0), charts.paraboloid(1.0),
                          _colatitude_point, _planar_point),
}


def _frame_bundle_points(pair, count=5, seed=7):
    """``count`` states (x, y) of one chart pair, frame angles in [-3, 3]."""
    chart, chart_hat, draw, draw_hat = FRAME_BUNDLE_PAIRS[pair]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x, xhat = draw(rng), draw_hat(rng)
        psi, psihat = rng.uniform(-3.0, 3.0, 2)
        yield chart, chart_hat, x, np.array([psi, *xhat, psihat])


class TestConnectionCoefficients:
    def test_trivial_vanishes(self):
        tb = trivial(2, 3)
        Gbar, R = connection_coefficients(tb, np.array([0.3, -1.0]), np.zeros(3))
        assert np.abs(Gbar).max() == 0.0
        assert np.abs(R).max() == 0.0

    def test_heisenberg_hand_values(self):
        # Bracket of the two horizontal lifts by hand: constant unit
        # curvature in the single fiber slot, no transport coefficients.
        tb = heisenberg()
        for x in [np.zeros(2), np.array([1.7, -0.4])]:
            Gbar, R = connection_coefficients(tb, x, np.zeros(1))
            assert np.abs(Gbar).max() == 0.0
            assert R[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
            assert R[0, 1, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_analytic_derivs_match_fd(self):
        tb = heisenberg()
        x, y = np.array([0.5, 1.1]), np.array([0.2])
        _, dAx, dAy = tb.coefficient_derivs(x, y)
        for got, want in zip((dAx, dAy), _fd_partials(tb, x, y)):
            assert np.abs(got - want).max() < 1e-9

    def test_curvature_antisymmetric(self):
        tb = frame_bundle(charts.sphere(1.0), charts.euclidean(2))
        x = np.array([np.pi / 2, 0.3])
        y = np.array([0.2, 0.1, -0.4, 0.5])
        _, R = connection_coefficients(tb, x, y)
        assert np.abs(R + R.transpose(0, 2, 1)).max() < 1e-9

    def test_frame_bundle_sphere_on_plane_curvature(self):
        # The frame-angle slot of the curvature equals the Gaussian
        # curvature times the area density of the chart, up to the
        # orientation sign locked by the library's frame convention.
        chart = charts.sphere(1.0)
        tb = frame_bundle(chart, charts.euclidean(2))
        x = np.array([1.1, 0.4])
        y = np.zeros(4)
        _, R = connection_coefficients(tb, x, y)
        dens = np.sqrt(np.linalg.det(chart.metric(x)))
        assert abs(abs(R[0, 0, 1]) - dens) < 1e-6

    @pytest.mark.parametrize("pair", sorted(FRAME_BUNDLE_PAIRS))
    def test_frame_bundle_bracket_is_the_curvature_pair(self, pair):
        # Yang-Mills field of the rolling bundle: per unit area on the
        # first surface, the bracket of the horizontal lifts turns the
        # first frame at kappa and the second at kappahat and moves the
        # contact point not at all.
        for chart, chart_hat, x, y in _frame_bundle_points(pair):
            tb = frame_bundle(chart, chart_hat)
            _, R = connection_coefficients(tb, x, y)
            want = [gauss_curvature(chart, x), 0.0, 0.0, gauss_curvature(chart_hat, y[1:3])]
            got = R[:, 0, 1] / np.sqrt(np.linalg.det(chart.metric(x)))
            assert np.abs(got - want).max() < 1e-7

    @pytest.mark.parametrize("pair", sorted(FRAME_BUNDLE_PAIRS))
    def test_frame_bundle_jet_matches_fd_and_transport(self, pair):
        for chart, chart_hat, x, y in _frame_bundle_points(pair):
            tb = frame_bundle(chart, chart_hat)
            A, dAx, dAy = tb.coefficient_derivs(x, y)
            fd_x, fd_y = _fd_partials(tb, x, y)
            assert np.abs(dAx - fd_x).max() < 1e-6
            assert np.abs(dAy - fd_y).max() < 1e-6
            want = _frame_bundle_A_by_transport(chart, chart_hat, x, y)
            assert np.abs(A - want).max() < 1e-14
            assert np.array_equal(tb.coefficients(x, y), A)

    def test_frame_bundle_flat_on_flat_is_flat(self):
        tb = frame_bundle(charts.euclidean(2), charts.euclidean(2))
        _, R = connection_coefficients(tb, np.array([0.3, 0.4]), np.array([0.5, 1.0, -2.0, 0.8]))
        assert np.abs(R).max() < 1e-8


class TestLiftedFlow:
    def test_trivial_straight_line(self):
        tb = trivial(2, 2)
        s0 = CotangentState(x=[0.0, 0.0], y=[0.5, -0.5], a=[1.0, 2.0], b=[0.3, 0.4])
        traj = lifted_hamiltonian_flow(tb, free_hamiltonian(2), s0, 3.0)
        end = canonical_to_state(tb, traj.y[-1])
        assert np.allclose(end.x, [3.0, 6.0], atol=1e-9)
        assert np.allclose(end.y, s0.y, atol=1e-9)
        assert np.allclose(end.b, s0.b, atol=1e-12)

    def test_heisenberg_circular_arc(self):
        # Free motion with a nonzero annihilator charge is the classical
        # magnetic flow: xdot(t) = Rot(b0 t) a0, an arc of radius |a0|/|b0|.
        tb = heisenberg()
        a0 = np.array([0.8, 0.3])
        b0 = 0.7
        s0 = CotangentState(x=[0.1, -0.2], y=[0.0], a=a0, b=[b0])
        traj = lifted_hamiltonian_flow(tb, free_hamiltonian(2), s0, 4.0)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        for t, z in zip(traj.t, traj.y):
            want = s0.x + (-J / b0) @ (_rot(b0 * t) - np.eye(2)) @ a0
            assert np.abs(z[:2] - want).max() < 1e-7

    def test_energy_drift(self):
        tb = heisenberg()
        H = free_hamiltonian(2)
        s0 = CotangentState(x=[0.0, 0.0], y=[0.0], a=[1.0, 0.5], b=[0.4])
        traj = lifted_hamiltonian_flow(tb, H, s0, 10.0)
        e0 = lifted_energy(tb, H, traj.y[0])
        drift = max(abs(lifted_energy(tb, H, z) - e0) for z in traj.sample(traj.grid(100)))
        assert drift <= 1e-8


class TestFormTransport:
    def test_flat_constant(self):
        tb = trivial(2, 2)
        curve = lambda t: (np.array([t, 0.0]), np.array([1.0, 2.0]))
        dcurve = lambda t: (np.array([1.0, 0.0]), np.zeros(2))
        tr = nabla_bar_form_transport(tb, curve, dcurve, np.array([0.3, -0.8]), 2.0)
        assert np.abs(tr.y[-1] - [0.3, -0.8]).max() < 1e-12

    def test_heisenberg_constant(self):
        tb = heisenberg()
        # horizontal lift of the x1-axis: y' = A(x) x' = -x2/2 * 1 = 0 on the axis
        curve = lambda t: (np.array([t, 0.0]), np.zeros(1))
        dcurve = lambda t: (np.array([1.0, 0.0]), np.zeros(1))
        tr = nabla_bar_form_transport(tb, curve, dcurve, np.array([0.9]), 3.0)
        assert np.abs(tr.y[-1] - 0.9).max() < 1e-12

    def test_linearity(self):
        tb = frame_bundle(charts.sphere(1.0), charts.euclidean(2))
        flow = lifted_hamiltonian_flow(
            tb, free_hamiltonian(2),
            CotangentState(x=[1.2, 0.0], y=[0.0, 0.0, 0.0, 0.0],
                           a=[0.4, 0.5], b=np.zeros(4)),
            1.0,
        )
        n = 2

        def curve(t):
            z = flow.sample([t])[0]
            return z[:n], z[n:n + 4]

        def dcurve(t):
            h = 1e-6
            zm, zp = flow.sample([max(t - h, 0.0), min(t + h, flow.t1)])
            d = (zp - zm) / (min(t + h, flow.t1) - max(t - h, 0.0))
            return d[:n], d[n:n + 4]

        b0 = np.array([0.3, -0.2, 0.5, 0.1])
        one = nabla_bar_form_transport(tb, curve, dcurve, b0, 1.0)
        three = nabla_bar_form_transport(tb, curve, dcurve, 3.0 * b0, 1.0)
        assert np.abs(three.y[-1] - 3.0 * one.y[-1]).max() < 1e-8

    def test_non_horizontal_rejected(self):
        tb = heisenberg()
        curve = lambda t: (np.array([t, 1.0]), np.zeros(1))  # y should move here
        dcurve = lambda t: (np.array([1.0, 0.0]), np.zeros(1))
        with pytest.raises(HorizontalityError):
            nabla_bar_form_transport(tb, curve, dcurve, np.ones(1), 1.0)


class TestProjectedFlow:
    def test_zero_charge_reduces_to_base_flow(self):
        chart = charts.sphere(1.0)
        tb = frame_bundle(chart, charts.euclidean(2))
        H = kinetic_hamiltonian(chart)
        x0 = np.array([1.3, 0.2])
        v0 = np.array([0.4, 0.6])
        a0 = chart.metric(x0) @ v0
        traj = projected_force_flow(tb, H, x0, a0, np.zeros(4), 2.0)
        geo = geodesic_flow(chart, x0, v0, 2.0)
        ts = np.linspace(0, 2.0, 40)
        assert np.abs(traj.sample(ts)[:, :2] - geo.sample(ts)[:, :2]).max() < 1e-7

    def test_heisenberg_matches_lifted_projection(self):
        tb = heisenberg()
        H = free_hamiltonian(2)
        s0 = CotangentState(x=[0.0, 0.1], y=[0.0], a=[1.0, 0.2], b=[0.5])
        up = lifted_hamiltonian_flow(tb, H, s0, 3.0)
        down = projected_force_flow(tb, H, s0.x, s0.a, s0.b, 3.0, y0=s0.y)
        ts = np.linspace(0, 3.0, 50)
        for t, zu, zd in zip(ts, up.sample(ts), down.sample(ts)):
            su = canonical_to_state(tb, zu)
            assert np.abs(su.x - zd[:2]).max() < 1e-7
            assert np.abs(su.a - zd[2:4]).max() < 1e-7

    def test_riemannian_base_force_identity(self):
        # On a Riemannian base the projected curve obeys Newton's law with
        # the curvature force: covariant acceleration equals the raised
        # force covector b_k R^k_ij xdot^i.
        chart = charts.sphere(1.0)
        tb = frame_bundle(chart, charts.euclidean(2))
        H = kinetic_hamiltonian(chart)
        x0 = np.array([1.4, 0.0])
        a0 = chart.metric(x0) @ np.array([0.3, 0.5])
        b0 = np.array([0.4, 0.0, 0.0, 0.2])
        traj = projected_force_flow(tb, H, x0, a0, b0, 2.0)
        h = 1e-6
        worst = 0.0
        for t in np.linspace(0.1, traj.t1 - 0.1, 25):
            zm, z0, zp = traj.sample([t - h, t, t + h])
            x, a, b, y = z0[:2], z0[2:4], z0[4:8], z0[8:]
            xdot = np.linalg.solve(chart.metric(x), a)
            xdm = np.linalg.solve(chart.metric(zm[:2]), zm[2:4])
            xdp = np.linalg.solve(chart.metric(zp[:2]), zp[2:4])
            acc = (xdp - xdm) / (2 * h)
            gam = christoffel(chart, x)
            _, R = connection_coefficients(tb, x, y)
            force = np.einsum("k,kij,i->j", b, R, xdot)
            res = acc + np.einsum("kij,i,j->k", gam, xdot, xdot) - sharp(chart, x, force)
            worst = max(worst, np.abs(res).max())
        assert worst < 1e-7


class TestVerifyProjection:
    def test_trivial(self):
        tb = trivial(2, 1)
        s0 = CotangentState(x=[0.0, 0.0], y=[0.3], a=[1.0, -0.5], b=[0.7])
        rep = verify_projection(tb, free_hamiltonian(2), s0, 2.0)
        assert rep["sup_error_lambda"] <= 1e-10
        assert rep["sup_error_beta"] <= 1e-10
        assert rep["sup_error_lift"] <= 1e-10

    def test_heisenberg(self):
        tb = heisenberg()
        s0 = CotangentState(x=[0.0, 0.0], y=[0.0], a=[1.0, 0.3], b=[0.6])
        rep = verify_projection(tb, free_hamiltonian(2), s0, 5.0)
        assert rep["sup_error_lambda"] <= 1e-6
        assert rep["sup_error_beta"] <= 1e-6
        assert rep["sup_error_lift"] <= 1e-6
        assert rep["energy_drift"] <= 1e-8

    def test_heisenberg_long_horizon(self):
        # the catalog heisenberg-lift data over T = 50: with steps held to
        # CHUNK the flows agree to about 2e-12; uncapped they part by 1.4e-8
        s0 = CotangentState(x=[0.3, -0.2], y=[0.1], a=[0.4, 0.7], b=[0.5])
        rep = verify_projection(heisenberg(), free_hamiltonian(2), s0, 50.0)
        assert not rep["truncated"]
        assert max(rep["sup_error_lambda"], rep["sup_error_beta"],
                   rep["sup_error_lift"]) <= 1e-10

    def test_frame_bundle_smoke(self):
        tb = frame_bundle(charts.sphere(1.0), charts.euclidean(2))
        s0 = CotangentState(x=[1.4, 0.0], y=np.zeros(4), a=[0.5, 0.4],
                            b=[0.2, 0.1, -0.1, 0.1])
        rep = verify_projection(tb, free_hamiltonian(2), s0, 1.0)
        assert not rep["truncated"]
        assert rep["sup_error_lambda"] <= 1e-6
        assert rep["sup_error_beta"] <= 1e-6
        assert rep["sup_error_lift"] <= 1e-6


class TestCatalog:
    def test_names_resolve(self):
        assert resolve_testbed("trivial(3,2)").base_dim == 3
        assert resolve_testbed("heisenberg").fiber_dim == 1
        tb = resolve_testbed("frame-bundle(sphere(1),euclidean(2))")
        assert tb.fiber_dim == 4

    def test_bad_names(self):
        with pytest.raises(KeyError):
            resolve_testbed("nonsense")
        with pytest.raises(KeyError):
            resolve_testbed("frame-bundle(sphere(1))")
