"""Correctness checks on the artifacts of each ``rollgeo run``.

Every check compares an operation's trajectory table with a computation
made apart from the program (closed forms, the benchmark's own chart
formulas, quadrature and ODE integration by scipy) or with a property the
method must have.  No check compares with stored output.  The one oracle
taken from the library is ``reduce_2d`` for the shooting endpoints: the
solver shoots with the full geodesic flow, so the reduced flow is a
different code path.

Each check returns a list of problems; an empty list means the artifact
passed.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
import re
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicSpline

# Sample spacing of the 200-row tables is 0.025 to 0.05; cubic-spline
# derivatives of smooth channels are good to about 1e-7 there, so 1e-5
# leaves margin while a corrupted column (error 1e-3 or more) fails.
SPLINE_TOL = 1e-5
# Quantities the integrator carries to its 1e-9 tolerance.
FLOW_TOL = 1e-7
# First integrals the program's own gates hold at 1e-8.
INTEGRAL_TOL = 1e-8
# Shots are integrated with steps up to 0.25 rather than 0.02, and |u|
# drifts by a few 1e-9 over T = 2 at the 1e-9 integrator tolerance.
SHOT_INTEGRAL_TOL = 1e-7


@dataclass
class Artifacts:
    """What one operation left behind: exit code, table and summary."""

    exit_code: int
    table: dict
    summary: dict


def read_artifacts(directory: pathlib.Path, name: str, exit_code: int) -> Artifacts:
    table: dict = {}
    csv_path = directory / f"{name}.csv"
    if csv_path.exists():
        with csv_path.open() as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], np.array(rows[1:], dtype=float).reshape(-1, len(rows[0]))
        table = {col: body[:, i] for i, col in enumerate(header)}
    summary_path = directory / f"{name}.summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    return Artifacts(exit_code=exit_code, table=table, summary=summary)


# ---------------------------------------------------------------------------
# Chart formulas, written out independently of rollgeo.charts

_CHART_RE = re.compile(r"^([a-z-]+)\(([^)]*)\)$")


def _chart(name: str) -> tuple[str, float]:
    m = _CHART_RE.match(name)
    return m.group(1), float(m.group(2))


def metric(name: str, x: np.ndarray) -> np.ndarray:
    """Metric coefficients at the points ``x`` (shape (m, 2)) -> (m, 2, 2)."""
    base, p = _chart(name)
    m = len(x)
    g = np.zeros((m, 2, 2))
    if base == "euclidean":
        g[:, 0, 0] = g[:, 1, 1] = 1.0
    elif base == "sphere":
        g[:, 0, 0] = p * p
        g[:, 1, 1] = (p * np.sin(x[:, 0])) ** 2
    elif base == "paraboloid":
        g = np.eye(2)[None] + p * p * np.einsum("mi,mj->mij", x, x)
    elif base == "hyperbolic-disk":
        lam = 4 * p * p / (1 - np.einsum("mi,mi->m", x, x)) ** 2
        g[:, 0, 0] = g[:, 1, 1] = lam
    else:
        raise ValueError(f"no metric formula for chart {name!r}")
    return g


def gauss_curvature(name: str, x: np.ndarray) -> np.ndarray:
    base, p = _chart(name)
    if base == "euclidean":
        return np.zeros(len(x))
    if base == "sphere":
        return np.full(len(x), 1.0 / (p * p))
    if base == "paraboloid":
        return p * p / (1 + p * p * np.einsum("mi,mi->m", x, x)) ** 2
    if base == "hyperbolic-disk":
        return np.full(len(x), -1.0 / (p * p))
    raise ValueError(f"no curvature formula for chart {name!r}")


def _cols(table: dict, *names: str) -> np.ndarray:
    return np.column_stack([table[n] for n in names])


def _speed(chart: str, t: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Riemannian speed of a sampled chart curve, by spline derivative."""
    vel = CubicSpline(t, pts, axis=0)(t, 1)
    return np.sqrt(np.einsum("mi,mij,mj->m", vel, metric(chart, pts), vel))


def _interior(t: np.ndarray) -> slice:
    # spline end conditions are one order less accurate at the ends
    return slice(3, len(t) - 3)


def _worst(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _expect(problems: list, label: str, err: float, tol: float) -> None:
    if not err <= tol:
        problems.append(f"{label}: {err:.3e} exceeds {tol:.0e}")


# ---------------------------------------------------------------------------
# lift

def check_heisenberg(sc: dict, art: Artifacts) -> list[str]:
    """The projected Heisenberg flow is a circle traced at constant speed.

    With H = |a|^2/2 and A = (-x2/2, x1/2): a rotates at rate b, so with
    complex coordinates z = x1 + i x2, alpha = a1 + i a2,
    alpha(t) = alpha0 e^{ibt}, z(t) = z0 + alpha0 E, E = (e^{ibt} - 1)/(ib),
    and ydot = Im(conj(z) alpha)/2 integrates in closed form.
    """
    tab, init, problems = art.table, sc["initial"], []
    t = tab["t"]
    b = float(init["b"][0])
    z0 = complex(*init["x"])
    al0 = complex(*init["a"])
    rot = np.exp(1j * b * t)
    E = (rot - 1) / (1j * b)
    z = z0 + al0 * E
    al = al0 * rot
    y = init["y"][0] + 0.5 * np.imag(np.conj(z0) * al0 * E
                                     + abs(al0) ** 2 * (E - t) / (1j * b))
    _expect(problems, "heisenberg x", _worst(tab["x1"] + 1j * tab["x2"], z), FLOW_TOL)
    _expect(problems, "heisenberg a", _worst(tab["a1"] + 1j * tab["a2"], al), FLOW_TOL)
    _expect(problems, "heisenberg y", _worst(tab["y1"], y), FLOW_TOL)
    _expect(problems, "heisenberg b", _worst(tab["b1"], b), 0.0)
    return problems


def check_frame_bundle(sc: dict, art: Artifacts) -> list[str]:
    """Free lifted flow on the sphere-on-plane frame bundle.

    |a| is conserved (H = |a|^2/2 is a first integral), and the contact
    point on the plane (fiber slots y2, y3) moves without slip, so its
    speed and arc length equal those of x on the unit sphere, whose
    velocity is xdot = a.
    """
    tab, problems = art.table, []
    t = tab["t"]
    chart, chart_hat = re.match(r"frame-bundle\((.*\)),(.*)\)$", sc["testbed"]).groups()
    amag = np.hypot(tab["a1"], tab["a2"])
    _expect(problems, "|a| drift", float(amag.max() - amag.min()), INTEGRAL_TOL)
    x, a = _cols(tab, "x1", "x2"), _cols(tab, "a1", "a2")
    speed = np.sqrt(np.einsum("mi,mij,mj->m", a, metric(chart, x), a))
    speed_hat = _speed(chart_hat, t, _cols(tab, "y2", "y3"))
    inner = _interior(t)
    _expect(problems, "no-slip speed", _worst(speed[inner], speed_hat[inner]), SPLINE_TOL)
    length, length_hat = simpson(speed, x=t), simpson(speed_hat, x=t)
    _expect(problems, "arc length", abs(length - length_hat) / length, SPLINE_TOL)
    return problems


# ---------------------------------------------------------------------------
# rolling

def check_geodesic(sc: dict, art: Artifacts) -> list[str]:
    """|u| is a first integral; v is constant when the target is flat; both
    contact points move at speed |u| (frames are orthonormal, no slip)."""
    tab, problems = art.table, []
    t = tab["t"]
    umag = np.hypot(tab["u1"], tab["u2"])
    _expect(problems, "|u| drift", float(umag.max() - umag.min()), INTEGRAL_TOL)
    if sc["chart_hat"].startswith("euclidean"):
        v = _cols(tab, "v1", "v2")
        _expect(problems, "v drift on flat target", _worst(v, v[0]), 0.0)
    inner = _interior(t)
    for label, chart, cols in (("x", sc["chart"], ("x1", "x2")),
                               ("xhat", sc["chart_hat"], ("xhat1", "xhat2"))):
        sp = _speed(chart, t, _cols(tab, *cols))
        _expect(problems, f"{label} speed vs |u|", _worst(sp[inner], umag[inner]), SPLINE_TOL)
    return problems


def check_same_base_curve(geo: Artifacts, pend: Artifacts) -> list[str]:
    """The full geodesic and the reduced pendulum from the same data trace
    the same contact curves: two independent code paths."""
    problems = []
    if len(geo.table["t"]) != len(pend.table["t"]) or \
            _worst(geo.table["t"], pend.table["t"]) > 1e-12:
        return ["paired runs sampled on different grids"]
    for col in ("x1", "x2", "xhat1", "xhat2"):
        _expect(problems, f"paired {col}", _worst(geo.table[col], pend.table[col]), 1e-8)
    return problems


def check_pendulum(sc: dict, art: Artifacts) -> list[str]:
    """Reduced-flow relations: thetadot = L (kappa - kappahat),
    Ldot = a b2, and the contact point moves at speed a."""
    tab, problems = art.table, []
    t, a = tab["t"], float(sc["a"])
    inner = _interior(t)
    gap = gauss_curvature(sc["chart"], _cols(tab, "x1", "x2")) \
        - gauss_curvature(sc["chart_hat"], _cols(tab, "xhat1", "xhat2"))
    thetadot = CubicSpline(t, tab["theta"])(t, 1)
    _expect(problems, "thetadot = L gap",
            _worst(thetadot[inner], (tab["L"] * gap)[inner]), SPLINE_TOL)
    Ldot = CubicSpline(t, tab["L"])(t, 1)
    _expect(problems, "Ldot = a b2", _worst(Ldot[inner], a * tab["b2"][inner]), SPLINE_TOL)
    sp = _speed(sc["chart"], t, _cols(tab, "x1", "x2"))
    _expect(problems, "contact speed", _worst(sp[inner], a), SPLINE_TOL)
    return problems


def pendulum_theta(sc: dict, t: np.ndarray) -> np.ndarray:
    """theta(t) from theta'' = gap * A sin(theta - phi0), constant curvatures.

    With constant curvatures the pair (b1 - a kappahat/gap, b2) rotates
    rigidly with theta, so b2 = (A/a) sin(theta - phi0) with A and phi0 fixed
    by the initial data, and theta'' = gap Ldot = gap a b2.
    """
    x = np.array([sc["x"]], float)
    xhat = np.array([sc["xhat"]], float)
    kap = float(gauss_curvature(sc["chart"], x)[0])
    kaphat = float(gauss_curvature(sc["chart_hat"], xhat)[0])
    gap, a = kap - kaphat, float(sc["a"])
    db1, b2 = sc["b1"] - a * kaphat / gap, sc["b2"]
    A = a * math.hypot(db1, b2)
    phi0 = sc["theta"] - math.atan2(b2, -db1)
    sol = solve_ivp(lambda s, y: [y[1], gap * A * math.sin(y[0] - phi0)],
                    (t[0], t[-1]), [sc["theta"], sc["L"] * gap],
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=t)
    return sol.y[0]


def check_pendulum_theta(sc: dict, art: Artifacts) -> list[str]:
    problems = check_pendulum(sc, art)
    theta = pendulum_theta(sc, art.table["t"])
    _expect(problems, "theta vs pendulum ODE", _worst(art.table["theta"], theta), FLOW_TOL)
    return problems


def check_develop(sc: dict, art: Artifacts) -> list[str]:
    """Rolling the unit sphere once around a great circle: the plane trace
    is a straight segment of length 2 pi and both frames come back."""
    tab, problems = art.table, []
    t = tab["t"]
    xhat = _cols(tab, "xhat1", "xhat2")
    length = simpson(_speed(sc["chart_hat"], t, xhat), x=t)
    _expect(problems, "trace length", abs(length - 2 * math.pi), SPLINE_TOL)
    _expect(problems, "chord length",
            abs(float(np.linalg.norm(xhat[-1] - xhat[0])) - 2 * math.pi), FLOW_TOL)
    frames = [c for c in tab if c.startswith("f")]
    for col in frames:
        _expect(problems, f"{col} holonomy", abs(tab[col][-1] - tab[col][0]), FLOW_TOL)
    return problems


def check_rn_roll(sc: dict, art: Artifacts) -> list[str]:
    """Rolling on flat space: |u| is conserved, w accumulates u, and the
    contact point moves at speed |u|."""
    tab, problems = art.table, []
    t = tab["t"]
    umag = np.hypot(tab["u1"], tab["u2"])
    _expect(problems, "|u| drift", float(umag.max() - umag.min()), INTEGRAL_TOL)
    u = _cols(tab, "u1", "u2")
    w = CubicSpline(t, u, axis=0).antiderivative()(t)
    _expect(problems, "w = int u", _worst(_cols(tab, "w1", "w2"), w), SPLINE_TOL)
    sp = _speed(sc["chart"], t, _cols(tab, "x1", "x2"))
    inner = _interior(t)
    _expect(problems, "contact speed", _worst(sp[inner], umag[inner]), SPLINE_TOL)
    return problems


# ---------------------------------------------------------------------------
# shooting

def true_endpoint(sc: dict) -> np.ndarray:
    """Contact points at T of the true data, by the reduced 2D flow."""
    from rollgeo import charts
    from rollgeo.geodesics import Pendulum2DState, reduce_2d
    from rollgeo.rolling import aligned_configuration

    heading, v1, v2, ell = sc["true_params"]
    c, s = math.cos(heading), math.sin(heading)
    cfg = aligned_configuration(charts.chart_by_name(sc["chart"]),
                                charts.chart_by_name(sc["chart_hat"]),
                                np.asarray(sc["x"], float),
                                np.asarray(sc["xhat"], float))
    s0 = Pendulum2DState(cfg=cfg, theta=heading, L=ell, b1=v1 * c + v2 * s,
                         b2=-v1 * s + v2 * c, a=1.0)
    run = reduce_2d(s0, float(sc["T"]), float(sc["tol"]))
    return run.traj.y[-1, :4]


def check_bvp(sc: dict, art: Artifacts) -> list[str]:
    tab, problems = art.table, []
    if not art.summary.get("invariants", {}).get("converged"):
        return ["solver did not report convergence"]
    end = np.array([tab[c][-1] for c in ("x1", "x2", "xhat1", "xhat2")])
    _expect(problems, "endpoint vs reduced flow of the true data",
            _worst(end, true_endpoint(sc)), FLOW_TOL)
    start = np.array([tab[c][0] for c in ("x1", "x2", "xhat1", "xhat2")])
    _expect(problems, "start point", _worst(start, sc["x"] + sc["xhat"]), 0.0)
    umag = np.hypot(tab["u1"], tab["u2"])
    _expect(problems, "|u| vs speed 1", _worst(umag, 1.0), SHOT_INTEGRAL_TOL)
    return problems


# ---------------------------------------------------------------------------
# known faults: the failure must be the documented one

def fault_pendulum(sc: dict, art: Artifacts) -> list[str]:
    """Only the trapezoid-route residual may fail; the flow itself holds."""
    violations = set(art.summary.get("violations", {}))
    if art.summary.get("status") != "invariant-violation" or violations != {"pendulum_residual"}:
        return [f"unexpected failure: status {art.summary.get('status')}, "
                f"violations {sorted(violations)}"]
    return check_pendulum(sc, art)


def fault_bvp_stall(sc: dict, art: Artifacts) -> list[str]:
    """A stall just above tolerance, not a divergence or a chart exit."""
    inv = art.summary.get("invariants", {})
    if art.summary.get("status") != "invariant-violation" or inv.get("converged"):
        return [f"unexpected failure: status {art.summary.get('status')}"]
    problems = []
    _expect(problems, "stalled residual", float(inv["endpoint_residual"]), 1e-6)
    return problems


CHECKS = {
    "heisenberg": check_heisenberg,
    "frame-bundle": check_frame_bundle,
    "geodesic": check_geodesic,
    "pendulum": check_pendulum,
    "pendulum-theta": check_pendulum_theta,
    "develop": check_develop,
    "rn-roll": check_rn_roll,
    "bvp": check_bvp,
}

FAULT_CHECKS = {
    "pendulum-residual": fault_pendulum,
    "bvp-stall": fault_bvp_stall,
}

# Exit code the CLI documents for an invariant violation.
EXIT_INVARIANT = 1


def check_operation(op, art: Artifacts, others: dict) -> tuple[list[str], list[str]]:
    """Problems with one operation's artifacts, and notes on a failure.

    An operation that exited non-zero counts as failed and its outputs are
    not held to the checks.  For a known fault the notes say whether the
    failure still carries that fault's signature.
    """
    if art.exit_code != 0:
        if op.fault is None:
            return [], [f"{op.name}: unexpected exit code {art.exit_code}"]
        if art.exit_code != EXIT_INVARIANT:
            return [], [f"{op.name}: exit code {art.exit_code}, "
                        f"expected {EXIT_INVARIANT} from the known fault"]
        return [], [f"{op.name}: {p}" for p in FAULT_CHECKS[op.fault](op.scenario, art)]
    if not art.table:
        return ["no trajectory table"], []
    problems = CHECKS[op.check](op.scenario, art)
    if op.pair is not None:
        problems += check_same_base_curve(art, others[op.pair])
    return problems, []
