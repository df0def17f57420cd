"""Two-point boundary value problem for rolling geodesics, by shooting.

Given start and goal configurations on the same chart pair, the solver
searches over the initial covector data (heading angle of the contact
velocity, the auxiliary field coefficients, and the scalar charge) for a
normal geodesic whose endpoint matches the goal.  The speed and horizon
are fixed, so every shot has the same length and the search has no
time-reparametrization null direction.

Each Gauss-Newton iteration differentiates the endpoint map by internal
numerical differentiation (Bock 1981): the shot and its forward
neighbours p + h e_k are integrated as one stacked system, so all rows
take the same steps and their differences carry no step-size noise.
That is one integration per Jacobian, without dense output, in place of
one per column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .charts import Array
from .errors import DimensionError
from .geodesics import E2, GeodesicRun, RollingGeodesicState, integrate_geodesic
from .integrate import DEFAULT_TOL
from .rolling import RollingConfiguration, curvature_gap

GAP_FLOOR = 0.1
STEP_CAP = 1.0
FD_STEP = 1e-6  # forward-difference step of the Jacobian


@dataclass(frozen=True)
class ShootingProblem:
    cfg0: RollingConfiguration
    cfg1: RollingConfiguration
    T: float
    a: float = 1.0
    tol: float = 1e-8
    integrator_tol: float = DEFAULT_TOL
    max_iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.cfg0.chart.label != self.cfg1.chart.label or \
                self.cfg0.chart_hat.label != self.cfg1.chart_hat.label:
            raise DimensionError("start and goal configurations on different charts")
        if self.a <= 0:
            raise ValueError("speed must be positive")


@dataclass
class ShootingResult:
    status: str  # converged | stalled | chart-exit
    params: Array  # [heading, v0..., charge]
    residual: float
    iterations: int
    run: Optional[GeodesicRun]
    length: float
    energy: float
    seed: int
    history: list = field(default_factory=list)


def configuration_distance(c1: RollingConfiguration, c2: RollingConfiguration) -> float:
    """Distance between configurations on a shared chart pair.

    Chart-coordinate distance on each surface plus 1/n times the Frobenius
    distance of the isometry matrices.
    """
    if c1.chart.label != c2.chart.label or c1.chart_hat.label != c2.chart_hat.label:
        raise DimensionError("configurations on different charts")
    return float(np.linalg.norm(c1.x - c2.x) + np.linalg.norm(c1.xhat - c2.xhat)
                 + np.linalg.norm(c1.q - c2.q) / c1.chart.dim)


def _params_to_state(cfg0: RollingConfiguration, p: Array, a: float) -> RollingGeodesicState:
    heading, v1, v2, ell = p
    u = a * np.array([np.cos(heading), np.sin(heading)])
    return RollingGeodesicState(cfg=cfg0, u=u, v=np.array([v1, v2]), lam=ell * E2)


def _shoot(cfg0: RollingConfiguration, P: Array, a: float, T: float,
           tol: float, dense_output: bool) -> GeodesicRun:
    """The geodesics with initial data rows ``P`` from ``cfg0``, integrated for ``T``.

    The rows are one stacked system (a single row is a stack of one).  A
    shot reads only its end nodes, so it runs without the step cap that
    keeps dense output fit for differentiation.
    """
    states = [_params_to_state(cfg0, p, a) for p in np.atleast_2d(P)]
    return integrate_geodesic(states, T, tol, max_step=np.inf, dense_output=dense_output)


def endpoint_map(
    cfg0: RollingConfiguration,
    heading: float,
    v0: Array,
    ell: float,
    T: float,
    a: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> RollingConfiguration:
    """Endpoint configuration of the geodesic with the given initial data."""
    run = _shoot(cfg0, np.array([heading, v0[0], v0[1], ell], dtype=float), a, T, tol,
                 dense_output=False)
    if run.truncated:
        raise RuntimeError("geodesic left the chart domain before the horizon")
    end = {key: rows[0] for key, rows in run.ends().items()}
    return RollingConfiguration(chart=cfg0.chart, chart_hat=cfg0.chart_hat, x=end["x"],
                                xhat=end["xhat"], f=end["f"], fhat=end["fhat"])


def _shots(prob: ShootingProblem, P: Array,
           dense_output: bool = False) -> tuple[Optional[Array], GeodesicRun]:
    """Endpoint residual of each row of ``P``, one row each, and the run.

    The residual stacks the contact point errors and 1/n times the isometry
    error; it is None when the stacked run left the chart.
    """
    run = _shoot(prob.cfg0, P, prob.a, prob.T, prob.integrator_tol, dense_output)
    if run.truncated:
        return None, run
    end = run.ends()
    q = end["fhat"] @ np.linalg.inv(end["f"])
    R = np.concatenate([
        end["x"] - prob.cfg1.x,
        end["xhat"] - prob.cfg1.xhat,
        (q - prob.cfg1.q).reshape(len(q), -1) / prob.cfg0.chart.dim,
    ], axis=1)
    return R, run


def _residual_vector(prob: ShootingProblem, p: Array) -> tuple[Optional[Array], GeodesicRun]:
    """The residual of the one shot ``p``, with dense output for its table."""
    R, run = _shots(prob, p, dense_output=True)
    return (None if R is None else R[0]), run


def _jacobian(prob: ShootingProblem, p: Array) -> Optional[Array]:
    """Forward-difference Jacobian of the residual at ``p``, from one stacked run.

    The rows are p and p + FD_STEP e_k; None when the run left the chart.
    """
    R, _ = _shots(prob, p + FD_STEP * np.eye(len(p) + 1, len(p), -1))
    return None if R is None else (R[1:] - R[0]).T / FD_STEP


def solve(prob: ShootingProblem, p0: Optional[Array] = None) -> ShootingResult:
    """Damped Gauss-Newton over the initial data.

    The iteration starts from ``p0`` when given, otherwise from a heading drawn
    from ``prob.seed`` and zero covector data.  The accepted-step residual
    sequence is strictly decreasing; stalls return the best point found.
    """
    if prob.cfg0.chart.dim != 2:
        raise DimensionError("the shooting parametrization is for surfaces")
    gap = curvature_gap(prob.cfg0)
    if gap["min_singular_value"] < GAP_FLOOR:
        warnings.warn(
            "curvature gap nearly singular: the distribution may not be "
            "bracket generating, the endpoint problem can be unreachable",
            stacklevel=2,
        )
    if p0 is None:
        heading = float(np.random.default_rng(prob.seed).uniform(0, 2 * np.pi))
        p0 = np.array([heading, 0.0, 0.0, 0.0])
    return _solve_single(prob, np.asarray(p0, dtype=float))


def _solve_single(prob: ShootingProblem, p: Array) -> ShootingResult:
    """Damped Gauss-Newton from ``p``.

    Each iteration takes its Jacobian from one stacked integration of p
    and its neighbours (internal numerical differentiation, Bock 1981) and
    solves against the residual ``r`` of the accepted shot, so the history
    records accepted residuals only.  A Jacobian run that leaves the chart
    ends the solve at the current point.
    """
    r, run = _residual_vector(prob, p)
    if r is None:
        return ShootingResult(status="chart-exit", params=p, residual=np.inf,
                              iterations=0, run=run, length=prob.a * prob.T,
                              energy=0.5 * prob.a ** 2 * prob.T, seed=prob.seed)
    norm = float(np.linalg.norm(r))
    history = [norm]
    for it in range(1, prob.max_iterations + 1):
        if norm <= prob.tol:
            return ShootingResult(status="converged", params=p, residual=norm,
                                  iterations=it - 1, run=run,
                                  length=prob.a * prob.T,
                                  energy=0.5 * prob.a ** 2 * prob.T,
                                  seed=prob.seed, history=history)
        J = _jacobian(prob, p)
        if J is None:
            break
        # truncated least squares: endpoint degeneracies (such as the
        # field component along the contact velocity on a straight roll)
        # produce near-null Jacobian directions that must not be chased.
        # The cutoff sits below the weakest real direction: singular
        # values down to about 1e-6 of the largest occur on solvable
        # problems, and dropping them stalls the solve just above its
        # tolerance.
        step, *_ = np.linalg.lstsq(J, -r, rcond=1e-9)
        # trust region: wild steps produce absurd trial trajectories (for
        # example an enormous charge) that are expensive to integrate
        if np.linalg.norm(step) > STEP_CAP:
            step *= STEP_CAP / np.linalg.norm(step)
        accepted = False
        lam = 1.0
        for _ in range(8):
            r_try, run_try = _residual_vector(prob, p + lam * step)
            if r_try is not None and np.linalg.norm(r_try) < norm:
                p = p + lam * step
                r, run = r_try, run_try
                new_norm = float(np.linalg.norm(r))
                assert new_norm < norm  # accepted steps are monotone
                norm = new_norm
                history.append(norm)
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
    status = "converged" if norm <= prob.tol else "stalled"
    return ShootingResult(status=status, params=p, residual=norm,
                          iterations=len(history) - 1, run=run,
                          length=prob.a * prob.T,
                          energy=0.5 * prob.a ** 2 * prob.T,
                          seed=prob.seed, history=history)
