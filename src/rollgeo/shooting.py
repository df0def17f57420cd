"""Two-point boundary value problem for rolling geodesics, by shooting.

Given start and goal configurations on the same chart pair, the solver
searches over the initial covector data (heading angle of the contact
velocity, the auxiliary field coefficients, and the scalar charge) for a
normal geodesic whose endpoint matches the goal.  The speed and horizon
are fixed, so every shot has the same length and the search has no
time-reparametrization null direction.
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


@dataclass(frozen=True)
class ShootingProblem:
    cfg0: RollingConfiguration
    cfg1: RollingConfiguration
    T: float
    a: float = 1.0
    tol: float = 1e-8
    integrator_tol: float = DEFAULT_TOL
    max_iterations: int = 50
    multistart: int = 1
    seed: int = 0
    weights: tuple = (1.0, 1.0, None)

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


def configuration_distance(c1: RollingConfiguration, c2: RollingConfiguration,
                           weights: tuple = (1.0, 1.0, None)) -> float:
    """Weighted distance between configurations on a shared chart pair.

    Chart-coordinate distance on each surface plus the Frobenius distance
    of the isometry matrices; the isometry weight defaults to 1/n.
    """
    if c1.chart.label != c2.chart.label or c1.chart_hat.label != c2.chart_hat.label:
        raise DimensionError("configurations on different charts")
    n = c1.chart.dim
    wq = weights[2] if weights[2] is not None else 1.0 / n
    return float(
        weights[0] * np.linalg.norm(c1.x - c2.x)
        + weights[1] * np.linalg.norm(c1.xhat - c2.xhat)
        + wq * np.linalg.norm(c1.q - c2.q)
    )


def _params_to_state(cfg0: RollingConfiguration, p: Array, a: float) -> RollingGeodesicState:
    heading, v1, v2, ell = p
    u = a * np.array([np.cos(heading), np.sin(heading)])
    return RollingGeodesicState(cfg=cfg0, u=u, v=np.array([v1, v2]), lam=ell * E2)


def _shoot(cfg0: RollingConfiguration, p: Array, a: float, T: float,
           tol: float) -> GeodesicRun:
    """The geodesic with initial data ``p`` from ``cfg0``, integrated for ``T``.

    A shot reads only its end state, a stepper node, so it runs without the
    step cap that keeps dense output fit for differentiation.
    """
    return integrate_geodesic(_params_to_state(cfg0, p, a), T, tol, max_step=np.inf)


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
    run = _shoot(cfg0, np.array([heading, v0[0], v0[1], ell], dtype=float), a, T, tol)
    if run.truncated:
        raise RuntimeError("geodesic left the chart domain before the horizon")
    return run.state(run.t1).cfg


def _residual_vector(prob: ShootingProblem, p: Array) -> tuple[Array, Optional[GeodesicRun]]:
    run = _shoot(prob.cfg0, p, prob.a, prob.T, prob.integrator_tol)
    if run.truncated:
        return None, run
    end = run.state(run.t1).cfg
    n = prob.cfg0.chart.dim
    wq = prob.weights[2] if prob.weights[2] is not None else 1.0 / n
    r = np.concatenate([
        prob.weights[0] * (end.x - prob.cfg1.x),
        prob.weights[1] * (end.xhat - prob.cfg1.xhat),
        wq * (end.q - prob.cfg1.q).ravel(),
    ])
    return r, run


def solve(prob: ShootingProblem, p0: Optional[Array] = None) -> ShootingResult:
    """Damped Gauss-Newton over the initial data, with optional multistart.

    Shots start from ``p0`` when given, otherwise from zero covector data
    with headings spread by the golden angle.  The accepted-step residual
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

    golden = np.pi * (3.0 - np.sqrt(5.0))
    rng = np.random.default_rng(prob.seed)
    starts = []
    if p0 is not None:
        starts.append(np.asarray(p0, dtype=float))
    else:
        base = float(rng.uniform(0, 2 * np.pi))
        for k in range(prob.multistart):
            starts.append(np.array([base + k * golden, 0.0, 0.0, 0.0]))

    best: Optional[ShootingResult] = None
    for start in starts[:max(1, prob.multistart)]:
        res = _solve_single(prob, start)
        if best is None or res.residual < best.residual:
            best = res
        if best.status == "converged":
            break
    assert best is not None
    return best


def _solve_single(prob: ShootingProblem, p: Array) -> ShootingResult:
    r, run = _residual_vector(prob, p)
    if r is None:
        return ShootingResult(status="chart-exit", params=p, residual=np.inf,
                              iterations=0, run=run, length=prob.a * prob.T,
                              energy=0.5 * prob.a ** 2 * prob.T, seed=prob.seed)
    norm = float(np.linalg.norm(r))
    history = [norm]
    h = 1e-6
    for it in range(1, prob.max_iterations + 1):
        if norm <= prob.tol:
            return ShootingResult(status="converged", params=p, residual=norm,
                                  iterations=it - 1, run=run,
                                  length=prob.a * prob.T,
                                  energy=0.5 * prob.a ** 2 * prob.T,
                                  seed=prob.seed, history=history)
        J = np.empty((len(r), len(p)))
        failed = False
        for k in range(len(p)):
            e = np.zeros(len(p))
            e[k] = h
            rp, _ = _residual_vector(prob, p + e)
            if rp is None:
                failed = True
                break
            J[:, k] = (rp - r) / h
        if failed:
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
