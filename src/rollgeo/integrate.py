"""Adaptive Runge-Kutta integration with dense output and chart-exit events.

All flows in the library are smooth non-stiff ODEs; they share one wrapper
around :func:`scipy.integrate.solve_ivp` with one method, DOP853: the
explicit Dormand-Prince pair of order 8(5,3) (Hairer, Norsett & Wanner,
*Solving ODEs I*, II.10).  A step costs 12 right-hand sides (the derivative
at the new node is reused as the next step's first stage) plus 3 more for
its 7th-order dense output.  At the library's tolerance of 1e-9 it takes
about a quarter of the steps of the 5(4) pair RK45.

Its steps are long, and the checks differentiate the dense output by
central differences (:meth:`Trajectory.derivative`), whose error follows
the interpolation error inside a step.  The flows whose dense output is
differentiated therefore cap the step at :data:`DENSE_MAX_STEP`; every
other run takes no step longer than :data:`CHUNK`.

The stepper is restarted only where a flow has a state correction to apply,
such as frame re-orthonormalization: a run with a ``reproject`` hook
proceeds in chunks of :data:`CHUNK` and is corrected between them, so the
correction does not disturb the stepper's order.  A run without one is a
single :func:`~scipy.integrate.solve_ivp` call.  A domain-margin event
truncates either kind with an explicit flag.  Each chunk starts with the
last step of the one before that was not shortened to land on its end, so
a restart neither spends right-hand sides on choosing a first step nor
starts short.  A run that makes more than :data:`MAX_CHUNK_RHS`
right-hand sides within one :data:`CHUNK` of integrated time fails: that
is the stepper grinding towards a singularity, not a flow of the library.

Dense output is built only when asked for (``dense_output=True``, the
default).  The chunks' step interpolants are then joined into one
:class:`scipy.integrate.OdeSolution`, so a run is sampled at a whole
vector of times in one call; at a chunk boundary the earlier chunk's
interpolant (the state before reprojection) is used.  A caller that reads
only the accepted nodes, such as a shooting Jacobian, passes
``dense_output=False``: the nodes and steps are the same, and each step
saves the 3 right-hand sides of its interpolant.

Every flow's state vector is described by one :class:`StateLayout`, and
the checks differentiate dense output through :meth:`Trajectory.derivative`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

from .errors import RollgeoError

Array = np.ndarray

DEFAULT_TOL = 1e-9

# Time step of the central differences that the checks take of dense output.
DERIV_STEP = 1e-6

# Step cap of the flows whose dense output the checks differentiate.  Uncapped,
# DOP853 puts the speed drift, theorem, slip and speed-match residuals of the
# unit tests up to 1.8 times over their tolerances; at 0.2 the worst is 0.64
# of its tolerance, at 0.1 it is 0.11.
DENSE_MAX_STEP = 0.1

# Reprojection interval of the flows with a ``reproject`` hook, and the step
# bound of every run.  Without the bound a run with no hook takes steps of
# several time units, and its error over long horizons grows: heisenberg-lift
# at T = 50 ends 1.4e-8 off the projected flow, against 2.3e-12 with it.
CHUNK = 0.5

# Right-hand sides allowed within one CHUNK of integrated time, counted from
# the time a stage first enters it: over 100 times what the largest catalog
# chunk makes (92).  A run into a singularity of the metric would otherwise
# grind on at ever smaller steps (79,103 right-hand sides on the degenerating
# metric of the tests) before the stepper gives up.
MAX_CHUNK_RHS = 10_000


@lru_cache(maxsize=None)
def _upper(n: int) -> tuple[Array, Array]:
    """Flat positions of the strict upper triangle, row by row, and of its mirror."""
    i, j = np.triu_indices(n, 1)
    return i * n + j, j * n + i


def skew_to_vec(lam: Array) -> Array:
    """Strictly-upper-triangle coordinates of a skew matrix, row by row."""
    return lam.take(_upper(lam.shape[0])[0])


def vec_to_skew(vec: Array, n: int) -> Array:
    """The skew matrix with upper triangle ``vec``, or one per row of a stack."""
    vec = np.asarray(vec).T
    pos, neg = _upper(n)
    lam = np.zeros((n * n,) + vec.shape[1:])
    lam[pos] = vec
    lam[neg] = -vec
    return lam.T.reshape(vec.shape[1:] + (n, n))


@dataclass(frozen=True)
class Skew:
    """Slot shape of an n-by-n skew matrix, stored as its strict upper triangle."""

    n: int


class StateLayout:
    """Named slots of a flat state vector, in declaration order.

    A slot's shape is an int (a vector), a tuple (an array; ``()`` is a
    scalar) or a :class:`Skew`.  ``split`` takes one state or a stack of
    states, one per row.  Vector and array slots come back as views into
    it, scalar slots of a single state as numbers, and skew slots as new
    full matrices.  ``pack`` is its inverse for one state.
    """

    def __init__(self, **shapes):
        # per slot: name, index into a state, array shape or None, and for a
        # skew slot (n, flat upper positions, flat lower positions) or None
        self._slots = []
        self.slices: dict[str, slice] = {}
        start = 0
        for name, shape in shapes.items():
            skew = (shape.n, *_upper(shape.n)) if isinstance(shape, Skew) else None
            shape = () if skew else (shape,) if isinstance(shape, int) else tuple(shape)
            size = len(skew[1]) if skew else int(np.prod(shape, dtype=int))
            self.slices[name] = slice(start, start + size)
            index = start if shape == () and not skew else self.slices[name]
            self._slots.append((name, index, shape if len(shape) > 1 else None, skew))
            start += size
        self.size = start

    def split(self, z: Array) -> dict:
        if z.ndim > 1:
            return self._split_stack(z)
        out = {}
        for name, index, shape, skew in self._slots:
            part = z[index]
            if skew:
                n, pos, neg = skew
                lam = np.zeros(n * n)
                lam[pos] = part
                lam[neg] = -part
                part = lam.reshape(n, n)
            elif shape:
                part = part.reshape(shape)
            out[name] = part
        return out

    def _split_stack(self, z: Array) -> dict:
        lead = z.shape[:-1]
        out = {}
        for name, index, shape, skew in self._slots:
            part = z[..., index]
            if skew:
                part = vec_to_skew(part, skew[0])
            elif shape:
                part = part.reshape(lead + shape)
            out[name] = part
        return out

    def pack(self, **parts) -> Array:
        z = np.empty(self.size)
        for name, index, shape, skew in self._slots:
            part = parts[name]
            if skew:
                part = part.take(skew[1])
            elif shape:
                part = part.ravel()
            z[index] = part
        return z


@dataclass
class Trajectory:
    """Time-stamped states, with dense output unless it was skipped."""

    t: Array
    y: Array  # shape (len(t), dim), states at the accepted nodes
    dense: Optional[OdeSolution]  # one interpolant per accepted step, or None
    truncated: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t1(self) -> float:
        return float(self.t[-1])

    def sample(self, ts) -> Array:
        """Evaluate the dense interpolant at times ``ts``, one row per time.

        Times up to 1e-12 outside the run are clipped onto its ends.
        """
        if self.dense is None:
            raise ValueError("run integrated without dense output: only its nodes "
                             "t and y can be read")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        lo, hi = sorted((self.t0, self.t1))
        if ts.min() < lo - 1e-12 or ts.max() > hi + 1e-12:
            raise ValueError("sample times outside the integrated interval")
        return self.dense(np.clip(ts, lo, hi)).T

    def grid(self, m: int) -> Array:
        return np.linspace(self.t0, self.t1, m)

    def interior(self, ts) -> Array:
        """The times ``ts`` clipped to ``DERIV_STEP`` inside the run's interval."""
        lo, hi = sorted((self.t0, self.t1))
        return np.clip(np.atleast_1d(ts), lo + DERIV_STEP, hi - DERIV_STEP)

    def derivative(self, ts) -> tuple[Array, Array, Array]:
        """Central differences of the dense output around the times ``ts``.

        The times are first moved into the run by :meth:`interior`; returns
        the clipped times, the states there and their time derivatives, one
        row per time.
        """
        h = DERIV_STEP
        ts = self.interior(ts)
        zm, z0, zp = np.split(self.sample(np.concatenate([ts - h, ts, ts + h])), 3)
        return ts, z0, (zp - zm) / (2 * h)


def _failure(t: float, y: Array, reason) -> RuntimeError:
    state = ", ".join(f"{v:.6g}" for v in y)
    return RuntimeError(f"integrator failed at t = {t:.6g} with state [{state}]: {reason}")


def integrate(
    rhs: Callable[[float, Array], Array],
    y0: Array,
    T: float,
    tol: float = DEFAULT_TOL,
    *,
    margin: Optional[Callable[[Array], float]] = None,
    reproject: Optional[Callable[[Array], Array]] = None,
    t0: float = 0.0,
    max_step: float = np.inf,
    dense_output: bool = True,
) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` from ``t0`` to ``t0 + T``.

    ``margin(y)`` positive means in-domain; a zero crossing terminates the
    run and sets the ``truncated`` flag.  ``reproject`` is applied to the
    state every ``CHUNK`` of time, between two chunks and never after the
    last (drift correction); corrections are expected to be below the
    integration tolerance; the largest is recorded in ``meta`` as
    ``max_reprojection``, next to the cost of the run:
    ``chunks``, the ``solve_ivp`` calls, ``rhs_evals``, the right-hand
    side evaluations, and ``steps``, the accepted steps, each
    summed over the chunks.  No step is longer than ``min(max_step, CHUNK)``
    (times 1 + 1e-9).  With ``dense_output=False`` the run keeps only its
    nodes, and :meth:`Trajectory.sample` raises.

    A failure of the stepper, more than ``MAX_CHUNK_RHS`` right-hand sides
    within one ``CHUNK`` of time, or a ``LinAlgError`` or library error
    raised by ``rhs``, becomes a ``RuntimeError`` naming the time and state
    of the failing step or call (the raised error is chained).
    """
    y0 = np.asarray(y0, dtype=float)
    if margin is not None and margin(y0) <= 0.0:
        raise ValueError("initial state outside domain")

    direction = 1.0 if T >= 0 else -1.0
    t_end = t0 + T
    events = None
    if margin is not None:
        def exit_event(t, y):
            return margin(y)
        exit_event.terminal = True  # type: ignore[attr-defined]
        events = [exit_event]

    window = 0  # the latest CHUNK of time that a stage has entered
    calls = 0  # right-hand sides since then

    def checked_rhs(t, y):
        nonlocal window, calls
        entered = int(direction * (t - t0) // CHUNK)
        if entered > window:
            window, calls = entered, 0
        calls += 1
        if calls > MAX_CHUNK_RHS:
            raise _failure(t, y, f"more than {MAX_CHUNK_RHS} right-hand sides "
                                 f"within {CHUNK} of time")
        try:
            return rhs(t, y)
        except (np.linalg.LinAlgError, RollgeoError) as exc:
            raise _failure(t, y, exc) from exc

    ts: list[Array] = []
    ys: list[Array] = []
    interpolants: list = []
    truncated = False
    max_correction = 0.0
    chunks = rhs_evals = steps = 0

    # A run with nothing to correct is one chunk.
    chunk = CHUNK if reproject is not None else np.inf
    # Steps of exactly the cap add up, with rounding, to just short of a
    # chunk's end and leave a last step of about 1e-16 (a whole step's
    # right-hand sides); a cap 1e-9 wider lets the last full step land on it.
    step_cap = min(max_step, CHUNK) * (1 + 1e-9)
    t_cur, y_cur = t0, y0
    first_step = None  # solve_ivp picks the first chunk's first step
    while direction * (t_end - t_cur) > 1e-14:
        if chunks and reproject is not None:  # between two chunks, never after the last
            y_new = reproject(y_cur)
            max_correction = max(max_correction, float(np.abs(y_new - y_cur).max()))
            y_cur = y_new
        span = min(chunk, abs(t_end - t_cur))
        t_next = t_cur + direction * span
        res = solve_ivp(
            checked_rhs,
            (t_cur, t_next),
            y_cur,
            method="DOP853",
            rtol=tol,
            atol=tol,
            dense_output=dense_output,
            events=events,
            max_step=step_cap,
            first_step=None if first_step is None else min(first_step, span),
        )
        if not res.success and res.status != 1:
            raise _failure(res.t[-1], res.y[:, -1], res.message)
        if dense_output:
            interpolants += res.sol.interpolants
        chunks += 1
        rhs_evals += res.nfev
        steps += len(res.t) - 1
        ts.append(res.t if not ts else res.t[1:])
        ys.append(res.y.T if not ys else res.y.T[1:])
        if res.status == 1:  # terminated by the domain-exit event
            truncated = True
            break
        # The last step is shortened to land on the chunk's end; the one
        # before it, if any, is the last that the error control chose freely.
        last = res.t[-3:]
        first_step = float(abs(last[1] - last[0]))
        t_cur = res.t[-1]
        y_cur = res.y[:, -1]

    t_all = np.concatenate(ts)
    return Trajectory(
        t=t_all,
        y=np.concatenate(ys, axis=0),
        dense=OdeSolution(t_all, interpolants) if dense_output else None,
        truncated=truncated,
        meta={"max_reprojection": max_correction, "chunks": chunks,
              "rhs_evals": rhs_evals, "steps": steps},
    )
