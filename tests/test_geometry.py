import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollgeo import charts
from rollgeo.charts import central_diff
from rollgeo.errors import ChartDomainError, DimensionError, FrameError
from rollgeo.geometry import (
    FramePoint,
    TangentAtPoint,
    cholesky_frame,
    cholesky_frame_deriv,
    christoffel,
    curvature_form_in_frame,
    flat,
    gauss_curvature,
    gauss_curvature_tensor,
    orthonormal_frame_at,
    riemann,
    sharp,
)

from oracles import brioschi_curvature, conformal_curvature


SPHERE = charts.sphere(1.0)
PLANE = charts.euclidean(2)


class TestChristoffel:
    def test_flat_chart_vanishes(self):
        gam = christoffel(PLANE, np.array([0.3, -1.2]))
        assert np.abs(gam).max() == 0.0

    def test_unit_sphere_hand_values(self):
        x = np.array([np.pi / 3, 0.0])
        gam = christoffel(SPHERE, x)
        assert gam[0, 1, 1] == pytest.approx(-np.sqrt(3) / 4, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert gam[1, 1, 0] == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_poincare_origin_vanishes(self):
        disk = charts.hyperbolic_disk(1.0)
        gam = christoffel(disk, np.zeros(2))
        assert np.abs(gam).max() < 1e-12

    def test_symmetry_lower_indices(self):
        x = np.array([0.9, 0.4])
        gam = christoffel(charts.paraboloid(1.3), x)
        assert np.allclose(gam, gam.transpose(0, 2, 1))

    def test_metric_compatibility(self):
        chart = charts.paraboloid(0.8)
        x = np.array([0.5, -0.7])
        gam = christoffel(chart, x)
        g, dg = chart.metric_jet(x)
        # d_k g_ij = g_lj Gamma^l_ki + g_il Gamma^l_kj
        lhs = dg
        rhs = np.einsum("lj,lki->kij", g, gam) + np.einsum("il,lkj->kij", g, gam)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_outside_domain_raises(self):
        with pytest.raises(ChartDomainError):
            christoffel(SPHERE, np.array([-1.0, 0.0]))

    def test_fd_matches_analytic_order_two(self):
        # Drop the analytic derivative and check O(h^2) convergence of the
        # finite-difference Christoffels against the analytic ones.  (Needs a
        # metric with nonvanishing third derivatives, hence the sphere.)
        chart = SPHERE
        x = np.array([1.1, 0.9])
        exact = christoffel(chart, x)

        def fd_gamma(h):
            bare = charts.ChartMetric(dim=2, g=chart.g, label="bare")
            import rollgeo.charts as c

            orig = c.fd_step
            c.fd_step = lambda x, scale=h: h
            try:
                return christoffel(bare, x)
            finally:
                c.fd_step = orig

        e1 = np.abs(fd_gamma(1e-3) - exact).max()
        e2 = np.abs(fd_gamma(5e-4) - exact).max()
        assert 3.5 < e1 / e2 < 4.5


class TestCentralDiff:
    def test_matches_analytic_paraboloid_derivative(self):
        para = charts.paraboloid(1.3)
        bare = charts.ChartMetric(dim=2, g=para.g, label="bare")
        for x in (np.array([0.3, -0.4]), np.array([1.2, 0.7])):
            exact = para.dg(x)
            assert np.abs(central_diff(para.g, x) - exact).max() < 1e-9
            assert np.abs(bare.metric_jet(x)[1] - exact).max() < 1e-9

    def test_partials_stacked_along_first_axis(self):
        def fn(x):
            return np.array([[x[0] ** 2, x[1]], [x[0] * x[1], 3.0 * x[2]]])

        d = central_diff(fn, np.array([1.0, 2.0, -1.0]), h=1e-4)
        assert d.shape == (3, 2, 2)
        assert np.allclose(d[0], [[2.0, 0.0], [2.0, 0.0]], atol=1e-9)
        assert np.allclose(d[1], [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)
        assert np.allclose(d[2], [[0.0, 0.0], [0.0, 3.0]], atol=1e-9)


class TestRiemann:
    def test_flat_zero(self):
        up, low = riemann(charts.euclidean(3), np.array([1.0, 2.0, 3.0]))
        assert np.abs(up).max() < 1e-12
        assert np.abs(low).max() < 1e-12

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_sphere_sectional_curvature(self, r):
        chart = charts.sphere(r)
        x = np.array([1.1, 0.3])
        _, low = riemann(chart, x)
        kappa = low[0, 1, 0, 1] / np.linalg.det(chart.metric(x))
        # Brioschi oracle on the raw coefficient function
        oracle = brioschi_curvature(chart.g, x)
        assert kappa == pytest.approx(1.0 / r**2, abs=1e-7)
        assert kappa == pytest.approx(oracle, abs=1e-6)

    def test_poincare_disk_curvature(self):
        disk = charts.hyperbolic_disk(1.0)
        x = np.array([0.2, -0.1])
        assert gauss_curvature_tensor(disk, x) == pytest.approx(-1.0, abs=1e-7)
        lam = lambda p: 4.0 / (1.0 - p @ p) ** 2
        assert conformal_curvature(lam, x) == pytest.approx(-1.0, abs=1e-6)

    def test_antisymmetries_and_bianchi(self):
        chart = charts.paraboloid(1.1)
        x = np.array([0.6, 0.2])
        up, low = riemann(chart, x)
        assert np.abs(low + low.transpose(1, 0, 2, 3)).max() < 1e-8
        assert np.abs(low + low.transpose(0, 1, 3, 2)).max() < 1e-8
        bianchi = up + up.transpose(0, 2, 3, 1) + up.transpose(0, 3, 1, 2)
        assert np.abs(bianchi).max() < 1e-8


class TestGaussCurvature:
    def test_plane(self):
        assert gauss_curvature(PLANE, np.zeros(2)) == 0.0

    def test_sphere_radius(self):
        assert gauss_curvature(charts.sphere(3.0), np.array([1.0, 0.5])) == pytest.approx(1 / 9)

    def test_analytic_vs_tensor_paraboloid(self):
        chart = charts.paraboloid(1.4)
        for x in [np.array([0.0, 0.0]), np.array([0.7, -0.4])]:
            assert gauss_curvature(chart, x) == pytest.approx(
                gauss_curvature_tensor(chart, x), abs=1e-7
            )
            assert gauss_curvature(chart, x) == pytest.approx(
                brioschi_curvature(chart.g, x), abs=1e-6
            )

    def test_revolution_profile_vs_brioschi(self):
        chart = charts.revolution("bump")
        x = np.array([0.35, 1.2])
        assert gauss_curvature(chart, x) == pytest.approx(
            brioschi_curvature(chart.g, x), abs=1e-6
        )

    def test_dim_check(self):
        with pytest.raises(DimensionError):
            gauss_curvature(charts.euclidean(3), np.zeros(3))


class TestCurvatureForm:
    def test_flat_zero(self):
        fp = orthonormal_frame_at(PLANE, np.zeros(2))
        X = TangentAtPoint(np.zeros(2), np.array([1.0, 0.0]))
        Y = TangentAtPoint(np.zeros(2), np.array([0.0, 1.0]))
        assert np.abs(curvature_form_in_frame(PLANE, fp, X, Y)).max() < 1e-12

    def test_sphere_realized_sign_regression(self):
        # Locks the realized sign of Omega once for the whole library: with
        # Omega(f)(X, Y)_{ab} = g(R(X, Y) f_b, f_a) and R = [nabla, nabla] -
        # nabla_[,], the unit sphere gives Omega(f)(f1, f2) = [[0, +1], [-1, 0]].
        x = np.array([np.pi / 3, 0.4])
        fp = orthonormal_frame_at(SPHERE, x)
        X = TangentAtPoint(x, fp.f[:, 0])
        Y = TangentAtPoint(x, fp.f[:, 1])
        om = curvature_form_in_frame(SPHERE, fp, X, Y)
        assert om[0, 1] == pytest.approx(+1.0, abs=1e-7)
        assert om[1, 0] == pytest.approx(-1.0, abs=1e-7)

    def test_skewness_and_bilinearity(self):
        chart = charts.paraboloid(1.0)
        x = np.array([0.5, 0.3])
        fp = orthonormal_frame_at(chart, x)
        X = TangentAtPoint(x, np.array([0.4, -1.0]))
        Y = TangentAtPoint(x, np.array([1.1, 0.2]))
        om = curvature_form_in_frame(chart, fp, X, Y)
        assert np.abs(om + om.T).max() < 1e-9
        om3 = curvature_form_in_frame(chart, fp, TangentAtPoint(x, 3.0 * X.v), Y)
        assert np.allclose(om3, 3.0 * om, atol=1e-9)
        om_swap = curvature_form_in_frame(chart, fp, Y, X)
        assert np.allclose(om_swap, -om, atol=1e-9)

    def test_mismatched_base_points_rejected(self):
        fp = orthonormal_frame_at(PLANE, np.zeros(2))
        X = TangentAtPoint(np.zeros(2), np.ones(2))
        Y = TangentAtPoint(np.ones(2), np.ones(2))
        with pytest.raises(DimensionError):
            curvature_form_in_frame(PLANE, fp, X, Y)


class TestMusicalIsomorphisms:
    def test_euclidean_identity(self):
        p = np.array([0.3, -2.0])
        assert np.allclose(sharp(PLANE, np.zeros(2), p), p)
        assert np.allclose(flat(PLANE, np.zeros(2), p), p)

    def test_sphere_equator_flat(self):
        x = np.array([np.pi / 2, 0.0])
        assert np.allclose(flat(SPHERE, x, np.array([1.0, 1.0])), [1.0, 1.0])

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, comps):
        chart = charts.paraboloid(0.9)
        x = np.array([0.4, -0.2])
        v = np.array(comps)
        assert np.abs(sharp(chart, x, flat(chart, x, v)) - v).max() < 1e-12


class TestFrames:
    def test_euclidean_identity_seed(self):
        fp = orthonormal_frame_at(PLANE, np.zeros(2))
        assert np.allclose(fp.f, np.eye(2))

    def test_sphere_equator_identity(self):
        fp = orthonormal_frame_at(SPHERE, np.array([np.pi / 2, 0.3]))
        assert np.allclose(fp.f, np.eye(2), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_seed_gives_valid_frame(self, seed):
        rng = np.random.default_rng(seed)
        chart = charts.paraboloid(1.2)
        x = rng.uniform(-1, 1, size=2)
        basis = rng.uniform(-1, 1, size=(2, 2))
        if abs(np.linalg.det(basis)) < 1e-2:
            return
        fp = orthonormal_frame_at(chart, x, basis)
        fp.validate(chart, tol=1e-10)

    def test_degenerate_seed_rejected(self):
        with pytest.raises(FrameError):
            orthonormal_frame_at(PLANE, np.zeros(2), np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_frame_point_validation(self):
        bad = FramePoint(np.zeros(2), 1.5 * np.eye(2))
        with pytest.raises(FrameError):
            bad.validate(PLANE)


class TestCholeskyFrame:
    def test_orthonormal(self):
        chart = charts.paraboloid(1.0)
        x = np.array([0.8, -0.3])
        E = cholesky_frame(chart, x)
        assert np.abs(E.T @ chart.metric(x) @ E - np.eye(2)).max() < 1e-12

    def test_derivative_matches_fd(self):
        chart = charts.paraboloid(1.0)
        x = np.array([0.4, 0.6])
        dE = cholesky_frame_deriv(chart, x)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (cholesky_frame(chart, x + e) - cholesky_frame(chart, x - e)) / (2 * h)
            assert np.abs(fd - dE[k]).max() < 1e-8
