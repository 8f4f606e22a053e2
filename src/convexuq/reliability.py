"""Non-probabilistic reliability index: minimal norm distance from the
standardized origin to the limit-state surface g = 0.

The standardized coordinates are delta = A⁻¹D⁻¹(X - X^m), with A the
model's factor: the Cholesky factor P of R for the ellipsoid model
(membership iff ‖delta‖₂ ≤ 1) and the shape matrix S for parallelepiped
models (membership iff ‖delta‖_∞ ≤ 1). The solver is multi-start:
one array evaluation of g over every ray from the origin times 96 radial
steps brackets the surface, and brentq finds the root in each ray's
first sign change whose two ends are both defined; then one SLSQP
problem for either norm, minimise s subject to g(delta) = 0 and delta in
s·B_p, refines each start, with the central-difference gradient of g
taken by one array evaluation over the 2n stencil points. A refined point
off the surface is dropped, and the start's ray hit stands in for it. The
reported index is the best surface point found.

The solver reads only `g.variables` and calls only `g.evaluate`;
`evaluations` counts those calls, and one call may carry many points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.optimize import brentq, minimize

from .correlation import ModelVariant
from .errors import EvaluationError, NoSurfaceFound, UnboundVariable
from .expr import LimitState, parse_limit_state  # re-exported for callers
from .models import ConvexModel, from_delta, to_delta  # re-exported for callers

__all__ = [
    "parse_limit_state",
    "LimitState",
    "ReliabilityOptions",
    "ReliabilityResult",
    "to_delta",
    "from_delta",
    "reliability_index",
]

EUCLIDEAN = "euclidean"
INFINITY = "infinity"

_SCAN_STEPS = 96
_AGREE_RTOL = 1e-4
_G_TOL = 1e-8  # surface tolerance, relative to max(1, |g| at the midpoint)


def default_norm(model: ConvexModel) -> str:
    return EUCLIDEAN if model.variant is ModelVariant.ME else INFINITY


@dataclass(frozen=True)
class ReliabilityOptions:
    bindings: Mapping[str, float] = field(default_factory=dict)
    norm: str | None = None  # None picks the model's natural norm
    eta_max: float = 10.0
    seed: int = 0


@dataclass(frozen=True)
class ReliabilityResult:
    eta: float
    delta_star: np.ndarray
    x_star: np.ndarray
    norm: str
    converged: bool
    evaluations: int
    g_midpoint: float


def _norm_of(delta: np.ndarray, norm: str) -> float:
    if norm == EUCLIDEAN:
        return float(np.linalg.norm(delta))
    return float(np.max(np.abs(delta)))


def reliability_index(
    model: ConvexModel,
    g: LimitState,
    options: ReliabilityOptions | None = None,
) -> ReliabilityResult:
    """Compute eta = min ‖delta‖ subject to g(from_delta(delta)) = 0.

    Raises NoSurfaceFound when g keeps one sign on every probed ray within
    the eta_max ball (eta_max is then a lower bound on the index),
    UnboundVariable when g uses names that are neither model variables nor
    option bindings, and ValueError when eta_max is not finite and > 0.
    """
    opts = options or ReliabilityOptions()
    norm = opts.norm or default_norm(model)
    if norm not in (EUCLIDEAN, INFINITY):
        raise ValueError(f"norm must be '{EUCLIDEAN}' or '{INFINITY}', got {opts.norm!r}")
    if not (math.isfinite(opts.eta_max) and opts.eta_max > 0.0):
        raise ValueError(f"eta_max must be finite and > 0, got {opts.eta_max!r}")
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

    n = model.n
    mid, rad = model.midpoints, model.radii
    evaluations = 0

    def g_of(x) -> float | np.ndarray:
        """g at physical coordinates, one entry per variable: floats take
        the scalar evaluator, arrays one array call. nan wherever g is
        undefined."""
        nonlocal evaluations
        evaluations += 1
        env = dict(zip(names, x))
        env.update(bindings)
        try:
            return g.evaluate(env)
        except EvaluationError:
            return math.nan

    g_mid = g_of(from_delta(model, np.zeros(n)))
    if math.isnan(g_mid):
        raise EvaluationError("limit state is undefined at the domain midpoint")
    if g_mid == 0.0:
        raise ValueError("midpoint already lies on the limit-state surface")
    scale = max(1.0, abs(g_mid))
    tol_abs = _G_TOL * scale

    # 2n axis directions plus 2n^2 seeded random directions, unit in the norm
    directions = []
    for k in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[k] = sign
            directions.append(e)
    gen = np.random.Generator(np.random.Philox(key=int(opts.seed)))
    raw = gen.standard_normal((2 * n * n, n))
    for row in raw:
        length = _norm_of(row, norm)
        if length > 0:
            directions.append(row / length)

    # stage 1: bracket the surface along every ray. One evaluation covers
    # every ray and step; the root is sought in each ray's first step whose
    # two ends are defined and differ in sign (or end on g = 0). A ray whose
    # bracket brentq cannot finish (g undefined inside it) has no hit.
    ts = np.linspace(0.0, opts.eta_max, _SCAN_STEPS + 1)
    reach = np.array(directions) @ model.factor.T  # row r holds A·ray_r
    values = np.empty((len(directions), _SCAN_STEPS + 1))
    values[:, 0] = g_mid
    values[:, 1:] = g_of([mid[k] + rad[k] * np.outer(reach[:, k], ts[1:]) for k in range(n)])
    defined = ~np.isnan(values)
    below = values < 0.0
    change = (defined[:, :-1] & defined[:, 1:]) & (
        (values[:, 1:] == 0.0) | (below[:, :-1] != below[:, 1:])
    )
    hits: list[tuple[float, int, np.ndarray]] = []  # (norm, start id, delta)
    for start_id, ray in enumerate(directions):
        if not change[start_id].any():
            continue
        j = int(change[start_id].argmax())
        if values[start_id, j + 1] == 0.0:
            t_root = float(ts[j + 1])
        else:
            try:
                t_root = brentq(
                    lambda t: g_of(from_delta(model, t * ray)),
                    ts[j],
                    ts[j + 1],
                    xtol=1e-13,
                    rtol=1e-15,
                )
            except ValueError:  # what brentq raises on a nan
                continue
        hits.append((t_root, start_id, t_root * ray))
    if not hits:
        raise NoSurfaceFound(
            f"g keeps the sign of g(midpoint) on all probed rays within "
            f"radius {opts.eta_max}",
            eta_max=opts.eta_max,
        )
    hits.sort(key=lambda h: h[0])

    def constraint_value(delta: np.ndarray) -> float:
        value = g_of(from_delta(model, delta))
        return 1e9 if math.isnan(value) else value / scale

    def constraint_gradient(delta: np.ndarray) -> np.ndarray:
        """Central differences of constraint_value with steps
        1e-6·max(1, |delta_k|), all 2n stencil points in one evaluation."""
        steps = 1e-6 * np.maximum(1.0, np.abs(delta))
        stencil = np.concatenate([delta + np.diag(steps), delta - np.diag(steps)])
        values = g_of(from_delta(model, stencil).T)
        values = np.where(np.isnan(values), 1e9, values / scale)
        return (values[:n] - values[n:]) / (2.0 * steps)

    # Epigraph form over y = (delta, s): minimise s subject to g(delta) = 0
    # and delta in s·B_p. Only the ball constraint depends on the norm.
    s_grad = np.zeros(n + 1)
    s_grad[-1] = 1.0
    if norm == EUCLIDEAN:
        ball = {
            "type": "ineq",
            "fun": lambda y: y[-1] - np.linalg.norm(y[:-1]),
            "jac": lambda y: np.append(-y[:-1] / np.linalg.norm(y[:-1]), 1.0),
        }
    else:
        box_jac = np.block([[-np.eye(n), np.ones((n, 1))], [np.eye(n), np.ones((n, 1))]])
        ball = {
            "type": "ineq",
            "fun": lambda y: np.concatenate([y[-1] - y[:-1], y[-1] + y[:-1]]),
            "jac": lambda y: box_jac,
        }
    surface = {
        "type": "eq",
        "fun": lambda y: constraint_value(y[:-1]),
        "jac": lambda y: np.append(constraint_gradient(y[:-1]), 0.0),
    }

    def refine(delta0: np.ndarray) -> np.ndarray | None:
        """Constrained local descent from a surface point; returns the
        SLSQP point if it lies on the surface, else None (the start's raw
        hit stays the fallback)."""
        result = minimize(
            lambda y: float(y[-1]),
            np.append(delta0, _norm_of(delta0, norm)),
            jac=lambda y: s_grad,
            method="SLSQP",
            constraints=[surface, ball],
            options={"maxiter": 200, "ftol": 1e-12},
        )
        candidate = result.x[:-1]
        value = g_of(from_delta(model, candidate))
        return candidate if not math.isnan(value) and abs(value) <= 10.0 * tol_abs else None

    # later hits lie no nearer than the 16th, so they cannot lower the
    # minimum or change `converged` (the 16 raw hits already agree)
    candidates: list[tuple[float, int, np.ndarray]] = []
    for t_root, start_id, delta0 in hits[:16]:
        refined = refine(delta0)
        if refined is not None:
            candidates.append((_norm_of(refined, norm), start_id, refined))
        candidates.append((t_root, start_id, delta0))  # raw hit as fallback

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
    )
