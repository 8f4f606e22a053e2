"""Non-probabilistic reliability index: minimal norm distance from the
standardized origin to the limit-state surface g = 0.

The standardized coordinates are delta = A⁻¹D⁻¹(X - X^m), with A the
model's factor: the Cholesky factor P of R for the ellipsoid model
(membership iff ‖delta‖₂ ≤ 1) and the shape matrix S for parallelepiped
models (membership iff ‖delta‖_∞ ≤ 1). The solver is multi-start:
one array evaluation of g over every ray from the origin times 96 radial
steps brackets the surface, and brentq finds the root in each ray's
first sign change whose two ends are both defined. Then one SLSQP
problem for either norm, minimise s subject to g(delta) = 0 and delta in
s·B_p, refines each of the 16 nearest hits. The starts are refined in
lockstep: each keeps its own state in scipy's reverse-communication
SLSQP core (the loop of minimize(method="SLSQP"), bit for bit), every
round steps each unfinished start once, and the 2n-point central-difference
stencils of every start that needs a gradient are built as one array,
mapped by one matrix product and evaluated in one array call; constraint
values are still taken point by point, one scalar call each. A refined point
off the surface is dropped, and the start's ray hit stands in for it.
The reported index is the best surface point found; `starts` records
each refined start.

The solver reads only `g.variables` and calls only `g.evaluate`, or, on a
LimitState at one point with float bindings, `g._value`: its scalar path
without the checks the solver has already made. `evaluations` counts
those calls, and one call may carry many points.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .correlation import ModelVariant
from .domain import as_integer, read_only
from .errors import EvaluationError, NoSurfaceFound, UnboundVariable
from .expr import LimitState
from .models import ConvexModel, from_delta

__all__ = [
    "ReliabilityOptions",
    "ReliabilityResult",
    "StartRecord",
    "reliability_index",
]

EUCLIDEAN = "euclidean"
INFINITY = "infinity"

_SCAN_STEPS = 96
_STARTS = 16  # ray hits refined per solve
_AGREE_RTOL = 1e-4
_G_TOL = 1e-8  # surface tolerance, relative to max(1, |g| at the midpoint)
_FTOL = 1e-12  # SLSQP accuracy
_MAXITER = 200  # SLSQP iterations per start


def default_norm(model: ConvexModel) -> str:
    return EUCLIDEAN if model.variant is ModelVariant.ME else INFINITY


@dataclass(frozen=True)
class ReliabilityOptions:
    bindings: Mapping[str, float] = field(default_factory=dict)
    norm: str | None = None  # None picks the model's natural norm
    eta_max: float = 10.0
    seed: int = 0


@dataclass(frozen=True)
class StartRecord:
    """One refined start: its ray's id, the distance of its ray hit, the
    norm of its SLSQP point (None when that point is off the surface, so
    the hit stood in for it), SLSQP's exit mode (0 is success) and its
    iteration count."""

    start_id: int
    hit: float
    refined: float | None
    exit_mode: int
    iterations: int


@dataclass(frozen=True)
class ReliabilityResult:
    eta: float
    delta_star: np.ndarray
    x_star: np.ndarray
    norm: str
    converged: bool
    evaluations: int
    g_midpoint: float
    starts: tuple[StartRecord, ...]  # the refined starts, nearest hit first


def brentq(f, a: float, b: float, **options) -> float:
    """scipy.optimize.brentq, imported at its first call, so that `import
    convexuq` loads no scipy module (scipy.optimize alone takes about
    0.4 s). The solver reads this name at each call and never rebinds it."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **options)


def _slsqp_core():
    """The SLSQP core that scipy's own minimize(method="SLSQP") loops over,
    imported when a solve starts; an ImportError that names the
    requirement where this scipy lacks it."""
    try:
        from scipy.optimize._slsqplib import slsqp
    except ImportError as exc:
        raise ImportError(
            "convexuq requires scipy>=1.17: its reliability solver drives "
            "scipy.optimize._slsqplib.slsqp, which this scipy lacks"
        ) from exc
    return slsqp


class _Slsqp:
    """One start's SLSQP problem over y = (delta, s): minimise s subject to
    one equality (the surface) and m - 1 inequalities (the ball), with
    acc = ftol = 1e-12 and at most 200 iterations, set up as
    scipy.optimize.minimize(method="SLSQP") sets it up (no bounds).

    `step` runs scipy's reverse-communication core once. It updates y and
    the solver's state in place and leaves `mode` at 1 when it needs the
    objective and constraint values at y (`fx`, `d`), at -1 when it needs
    their gradients (`C`; the objective's, e_s, never changes), and at any
    other value once it has finished, 0 being success."""

    def __init__(self, y0: np.ndarray, m: int) -> None:
        self.core = _slsqp_core()
        size = y0.size
        meq = 1
        self.y = np.clip(y0, -np.inf, np.inf)
        self.fx = 0.0
        self.gx = np.zeros(size)
        self.gx[-1] = 1.0
        self.C = np.zeros((m, size), order="F")
        self.d = np.zeros(m)
        self.lower = np.full(size, np.nan)  # nan marks an absent bound
        self.upper = np.full(size, np.nan)
        self.mult = np.zeros(m + 2 * size + 2)
        self.indices = np.zeros(m + 2 * size + 2, dtype=np.int32)
        # the core's worst-case workspace, as scipy sizes it
        self.buffer = np.zeros(
            size * (size + 1) // 2 + 3 * m * size - (m + 5 * size + 7) * meq
            + 9 * m + 8 * size * size + 35 * size + meq * meq + 28
        )
        self.state = {  # the core's own variables, keyed as its C struct
            **dict.fromkeys(("alpha", "f0", "gs", "h1", "h2", "h3", "h4", "t", "t0"), 0.0),
            **dict.fromkeys(("exact", "inconsistent", "reset", "iter", "line", "mode"), 0),
            "acc": _FTOL,
            "tol": 10.0 * _FTOL,
            "itermax": _MAXITER,
            "m": m,
            "meq": meq,
            "n": size,
        }

    @property
    def mode(self) -> int:
        return self.state["mode"]

    @property
    def iterations(self) -> int:
        return self.state["iter"]

    def step(self) -> None:
        self.core(
            self.state, self.fx, self.gx, self.C, self.d, self.y, self.mult,
            self.lower, self.upper, self.buffer, self.indices,
        )


def _length(v: np.ndarray) -> float:
    """The Euclidean norm of a 1-D float vector: np.linalg.norm's own
    sqrt(v·v), without its dispatch."""
    return math.sqrt(v.dot(v))


def _norm_of(delta: np.ndarray, norm: str) -> float:
    if norm == EUCLIDEAN:
        return _length(delta)
    return float(np.max(np.abs(delta)))


def _directions(n: int, norm: str, seed: int) -> np.ndarray:
    """The scan's rays, unit in the norm, one per row of a read-only
    array: the 2n axis directions (+e_k, then -e_k), then 2n² standard
    normals of the Philox stream keyed by seed, each divided by its norm
    (a zero row dropped)."""
    k = np.arange(2 * n)
    axes = np.zeros((2 * n, n))
    axes[k, k // 2] = np.where(k % 2 == 0, 1.0, -1.0)
    normals = np.random.Generator(np.random.Philox(key=seed)).standard_normal((2 * n * n, n))
    if norm == EUCLIDEAN:  # _length's dot, whose bits a vectorized sum need not have
        lengths = np.sqrt([row.dot(row) for row in normals])
    else:
        lengths = np.abs(normals).max(axis=1)
    kept = lengths > 0
    return read_only(np.concatenate([axes, normals[kept] / lengths[kept, None]]))


def _nearest_hits(values: np.ndarray, ts: np.ndarray, root) -> list[tuple[float, int]]:
    """The _STARTS nearest surface hits of a ray scan, as (t, ray id)
    sorted by t, then id. values[i] holds g along ray i at ts. A ray's hit
    lies in its first step whose two ends are defined and differ in sign
    (or end on g = 0): the end's t where g is 0 there, else root(i, a, b)
    on the step [a, b], and no hit when root raises ValueError (what
    brentq raises on a nan).

    Rays are searched in order of their step's lower end, then id, and
    the search stops once _STARTS hits exist and the next lower end lies
    beyond the farthest of the _STARTS nearest: every later hit lies
    farther still. So the result, ties included, is that of searching
    every ray; later hits cannot lower the minimum or change `converged`
    (the _STARTS raw hits already agree)."""
    defined = ~np.isnan(values)
    below = values < 0.0
    change = (defined[:, :-1] & defined[:, 1:]) & (
        (values[:, 1:] == 0.0) | (below[:, :-1] != below[:, 1:])
    )
    rays = np.flatnonzero(change.any(axis=1))
    steps = change[rays].argmax(axis=1)
    hits: list[tuple[float, int]] = []
    nearest: list[float] = []  # the _STARTS least t so far, negated: a max-heap
    order = np.argsort(ts[steps], kind="stable")
    for ray, j in zip(rays[order].tolist(), steps[order].tolist()):
        if len(nearest) == _STARTS and ts[j] > -nearest[0]:
            break
        if values[ray, j + 1] == 0.0:
            t = float(ts[j + 1])
        else:
            try:
                t = root(ray, ts[j], ts[j + 1])
            except ValueError:
                continue
        hits.append((t, ray))
        heapq.heappush(nearest, -t)
        if len(nearest) > _STARTS:
            heapq.heappop(nearest)
    return sorted(hits)[:_STARTS]


def reliability_index(
    model: ConvexModel,
    g: LimitState,
    options: ReliabilityOptions | None = None,
) -> ReliabilityResult:
    """Compute eta = min ‖delta‖ subject to g(from_delta(delta)) = 0.

    Raises NoSurfaceFound when g keeps one sign on every probed ray within
    the eta_max ball (eta_max is then a lower bound on the index),
    UnboundVariable when g uses names that are neither model variables nor
    option bindings, ValueError when eta_max is not finite and > 0, and
    TypeError when the seed is not an integer (`operator.index`).
    """
    opts = options or ReliabilityOptions()
    norm = opts.norm or default_norm(model)
    if norm not in (EUCLIDEAN, INFINITY):
        raise ValueError(f"norm must be '{EUCLIDEAN}' or '{INFINITY}', got {opts.norm!r}")
    if not (math.isfinite(opts.eta_max) and opts.eta_max > 0.0):
        raise ValueError(f"eta_max must be finite and > 0, got {opts.eta_max!r}")
    seed = as_integer(opts.seed, "seed")
    names = model.spec.names
    bindings = dict(opts.bindings)
    shadowed = set(bindings) & set(names)
    if shadowed:
        raise ValueError(f"bindings shadow model variables: {sorted(shadowed)}")
    unbound = g.variables - set(names) - set(bindings)
    if unbound:
        raise UnboundVariable(
            f"limit state uses unbound name(s): {', '.join(sorted(unbound))}",
            names=sorted(unbound),
        )
    _slsqp_core()  # a scipy without the core is refused before any work

    n = model.n
    mid, rad = model.midpoints, model.radii
    evaluations = 0

    # every name is bound (checked above), so a LimitState's scalar call
    # skips evaluate's checks, unless an array binding makes it an array call
    unchecked = isinstance(g, LimitState) and not any(
        isinstance(v, np.ndarray) for v in bindings.values()
    )

    def g_of(x, scalar: bool = False) -> float | np.ndarray:
        """g at physical coordinates, one entry per variable: floats take
        the scalar evaluator, arrays one array call. nan wherever g is
        undefined."""
        nonlocal evaluations
        evaluations += 1
        env = dict(zip(names, x))
        env.update(bindings)
        if scalar and unchecked:
            return g._value(env)
        try:
            return g.evaluate(env)
        except EvaluationError:
            return math.nan

    def g_at(delta: np.ndarray) -> float:
        """g at one standardized point, by the scalar evaluator."""
        return g_of(from_delta(model, delta).tolist(), scalar=True)

    g_mid = g_at(np.zeros(n))
    if math.isnan(g_mid):
        raise EvaluationError("limit state is undefined at the domain midpoint")
    if g_mid == 0.0:
        raise ValueError("midpoint already lies on the limit-state surface")
    scale = max(1.0, abs(g_mid))
    tol_abs = _G_TOL * scale

    directions = _directions(n, norm, seed)

    # stage 1: bracket the surface along every ray. One evaluation covers
    # every ray and step; brentq seeks the root in the bracket of each ray
    # that can still be among the _STARTS nearest (see _nearest_hits). A
    # ray whose bracket brentq cannot finish (g undefined inside it) has
    # no hit.
    ts = np.linspace(0.0, opts.eta_max, _SCAN_STEPS + 1)
    reach = directions @ model.factor.T  # row r holds A·ray_r
    values = np.empty((len(directions), _SCAN_STEPS + 1))
    values[:, 0] = g_mid
    values[:, 1:] = g_of([mid[k] + rad[k] * np.outer(reach[:, k], ts[1:]) for k in range(n)])

    def root(start_id: int, a: float, b: float) -> float:
        ray = directions[start_id]
        return brentq(lambda t: g_at(t * ray), a, b, xtol=1e-13, rtol=1e-15)

    # (norm, start id, delta) of each start
    hits = [(t, i, t * directions[i]) for t, i in _nearest_hits(values, ts, root)]
    if not hits:
        raise NoSurfaceFound(
            f"g keeps the sign of g(midpoint) on all probed rays within "
            f"radius {opts.eta_max}",
            eta_max=opts.eta_max,
        )

    # Epigraph form over y = (delta, s): minimise s subject to g(delta) = 0
    # and delta in s·B_p. Only the ball constraint depends on the norm.
    if norm == EUCLIDEAN:

        def ball(y: np.ndarray, out: np.ndarray) -> None:
            out[0] = y[-1] - _length(y[:-1])

        def ball_jac(y: np.ndarray) -> np.ndarray:
            return np.append(-y[:-1] / _length(y[:-1]), 1.0)

    else:
        box_jac = np.block([[-np.eye(n), np.ones((n, 1))], [np.eye(n), np.ones((n, 1))]])

        def ball(y: np.ndarray, out: np.ndarray) -> None:
            np.subtract(y[-1], y[:-1], out=out[:n])
            np.add(y[-1], y[:-1], out=out[n:])

        def ball_jac(y: np.ndarray) -> np.ndarray:
            return box_jac

    def put_values(start: _Slsqp) -> None:
        """Objective and constraint values at the start's y; the surface
        value is g / max(1, |g_mid|), with 1e9 where g is undefined."""
        y = start.y
        start.fx = float(y[-1])
        value = g_at(y[:-1])
        start.d[0] = 1e9 if math.isnan(value) else value / scale
        ball(y, start.d[1:])

    def put_gradients(batch: list[_Slsqp]) -> None:
        """Constraint gradients at the y of every start in batch. The
        surface row takes central differences of the surface value with
        steps h = 1e-6·max(1, |delta_k|) at the 2n stencil points
        delta ± diag(h). The stencils of all starts are built as one
        (2n·starts, n) array, mapped by one from_delta call (each row of
        that product has the bits of the start's own product) and sent to
        g in one evaluation."""
        if not batch:
            return
        k = len(batch)
        deltas = np.array([start.y[:-1] for start in batch])
        steps = 1e-6 * np.maximum(1.0, np.abs(deltas))
        shifts = np.zeros((k, n, n))  # np.diag(h) of each start
        shifts.reshape(k, n * n)[:, :: n + 1] = steps
        stencils = np.concatenate([deltas[:, None] + shifts, deltas[:, None] - shifts], axis=1)
        values = g_of(from_delta(model, stencils.reshape(2 * n * k, n)).T)
        values = np.where(np.isnan(values), 1e9, values / scale).reshape(k, 2, n)
        slopes = (values[:, 0] - values[:, 1]) / (2.0 * steps)
        for start, slope in zip(batch, slopes):
            start.C[0, :-1] = slope
            start.C[1:] = ball_jac(start.y)

    # All starts are refined together: each round steps every unfinished
    # one, and one g call carries the gradient stencils of all that need them.
    m = 2 if norm == EUCLIDEAN else 1 + 2 * n  # surface, then ball rows
    starts = [_Slsqp(np.append(delta0, _norm_of(delta0, norm)), m) for *_, delta0 in hits]
    for start in starts:
        put_values(start)
    put_gradients(starts)
    active = starts
    while active:
        for start in active:
            start.step()
            if start.mode == 1:
                put_values(start)
        put_gradients([start for start in active if start.mode == -1])
        active = [start for start in active if abs(start.mode) == 1]

    candidates: list[tuple[float, int, np.ndarray]] = []
    records = []
    for (t_root, start_id, delta0), start in zip(hits, starts):
        refined = start.y[:-1]
        value = g_at(refined)
        length = None
        if not math.isnan(value) and abs(value) <= 10.0 * tol_abs:
            length = _norm_of(refined, norm)
            candidates.append((length, start_id, refined))
        candidates.append((t_root, start_id, delta0))  # raw hit as fallback
        records.append(StartRecord(start_id, t_root, length, start.mode, start.iterations))

    best_eta = min(c[0] for c in candidates)
    near = [c for c in candidates if c[0] <= best_eta * (1.0 + 1e-9)]
    near.sort(key=lambda c: tuple(c[2]))
    eta, _, delta_star = near[0]
    distinct_starts = {c[1] for c in candidates if c[0] <= best_eta * (1.0 + _AGREE_RTOL)}
    converged = len(distinct_starts) >= 2
    return ReliabilityResult(
        eta=float(eta),
        delta_star=delta_star.copy(),
        x_star=from_delta(model, delta_star),
        norm=norm,
        converged=converged,
        evaluations=evaluations,
        g_midpoint=float(g_mid),
        starts=tuple(records),
    )
