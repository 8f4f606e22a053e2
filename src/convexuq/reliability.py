"""Non-probabilistic reliability index: minimal norm distance from the
standardized origin to the limit-state surface g = 0.

The standardized coordinates are delta = A⁻¹D⁻¹(X - X^m), with A the
model's factor: the Cholesky factor P of R for the ellipsoid model
(membership iff ‖delta‖₂ ≤ 1) and the shape matrix S for parallelepiped
models (membership iff ‖delta‖_∞ ≤ 1). The solver is multi-start:
sign-change bracketing plus root-finding along rays from the origin
lands on the surface, then a
constrained local refinement with central finite differences polishes
each start; the reported index is the best surface point found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.optimize import brentq, minimize

from .correlation import ModelVariant
from .errors import (
    DimensionMismatch,
    EvaluationError,
    NoSurfaceFound,
    UnboundVariable,
)
from .expr import LimitState, parse_limit_state  # re-exported for callers
from .models import ConvexModel

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


def to_delta(model: ConvexModel, x: np.ndarray) -> np.ndarray:
    """Standardize a physical point, delta = A⁻¹D⁻¹(x - X^m); inverse of
    from_delta to 1e-10."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise DimensionMismatch(f"expected point of length {model.n}, got shape {x.shape}")
    return np.linalg.solve(model.factor, (x - model.midpoints) / model.radii)


def from_delta(model: ConvexModel, delta: np.ndarray) -> np.ndarray:
    """Map a standardized point back to physical coordinates,
    x = X^m + D·A·delta."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (model.n,):
        raise DimensionMismatch(f"expected vector of length {model.n}, got shape {delta.shape}")
    return model.midpoints + model.radii * (model.factor @ delta)


def default_norm(model: ConvexModel) -> str:
    return EUCLIDEAN if model.variant is ModelVariant.ME else INFINITY


@dataclass(frozen=True)
class ReliabilityOptions:
    bindings: Mapping[str, float] = field(default_factory=dict)
    norm: str | None = None  # None picks the model's natural norm
    eta_max: float = 10.0
    g_tol: float = 1e-8  # relative to max(1, |g| at the midpoint)
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


def _central_gradient(fun, x: np.ndarray) -> np.ndarray:
    grad = np.empty_like(x)
    for k in range(x.size):
        step = 1e-6 * max(1.0, abs(x[k]))
        hi = x.copy()
        lo = x.copy()
        hi[k] += step
        lo[k] -= step
        grad[k] = (fun(hi) - fun(lo)) / (2.0 * step)
    return grad


def reliability_index(
    model: ConvexModel,
    g: LimitState,
    options: ReliabilityOptions | None = None,
) -> ReliabilityResult:
    """Compute eta = min ‖delta‖ subject to g(from_delta(delta)) = 0.

    Raises NoSurfaceFound when g keeps one sign on every probed ray within
    the eta_max ball (eta_max is then a lower bound on the index), and
    UnboundVariable when g uses names that are neither model variables nor
    option bindings.
    """
    opts = options or ReliabilityOptions()
    norm = opts.norm or default_norm(model)
    if norm not in (EUCLIDEAN, INFINITY):
        raise ValueError(f"norm must be '{EUCLIDEAN}' or '{INFINITY}', got {opts.norm!r}")
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
    evaluations = 0

    def g_at(delta: np.ndarray) -> float | None:
        nonlocal evaluations
        evaluations += 1
        x = from_delta(model, delta)
        env = dict(zip(names, (float(v) for v in x)))
        env.update(bindings)
        try:
            return g.evaluate(env)
        except EvaluationError:
            return None

    g_mid = g_at(np.zeros(n))
    if g_mid is None:
        raise EvaluationError("limit state is undefined at the domain midpoint")
    if g_mid == 0.0:
        raise ValueError("midpoint already lies on the limit-state surface")
    scale = max(1.0, abs(g_mid))
    tol_abs = opts.g_tol * scale

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

    def ray_root(direction: np.ndarray) -> float | None:
        """Smallest t in (0, eta_max] with g(t*direction) = 0, or None."""
        ts = np.linspace(0.0, opts.eta_max, _SCAN_STEPS + 1)
        prev_t, prev_g = 0.0, g_mid
        for t in ts[1:]:
            cur = g_at(t * direction)
            if cur is None:
                prev_g = None
                continue
            if prev_g is not None and (cur == 0.0 or (prev_g < 0) != (cur < 0)):
                if cur == 0.0:
                    return float(t)
                try:
                    return float(
                        brentq(
                            lambda s: g_at(s * direction),
                            prev_t,
                            t,
                            xtol=1e-13,
                            rtol=1e-15,
                        )
                    )
                except (ValueError, TypeError):
                    return None
            prev_t, prev_g = t, cur
        return None

    # stage 1: bracket the surface along every ray
    hits: list[tuple[float, int, np.ndarray]] = []  # (norm, start id, delta)
    for start_id, direction in enumerate(directions):
        t_root = ray_root(direction)
        if t_root is not None:
            hits.append((t_root, start_id, t_root * direction))
    if not hits:
        raise NoSurfaceFound(
            f"g keeps the sign of g(midpoint) on all probed rays within "
            f"radius {opts.eta_max}",
            eta_max=opts.eta_max,
        )
    hits.sort(key=lambda h: h[0])

    def constraint_value(delta: np.ndarray) -> float:
        value = g_at(delta)
        return 1e9 if value is None else value / scale

    def refine(delta0: np.ndarray) -> np.ndarray | None:
        """Constrained local descent from a surface point."""
        if norm == EUCLIDEAN:
            result = minimize(
                lambda d: float(d @ d),
                delta0,
                jac=lambda d: 2.0 * d,
                method="SLSQP",
                constraints=[
                    {
                        "type": "eq",
                        "fun": constraint_value,
                        "jac": lambda d: _central_gradient(constraint_value, d),
                    }
                ],
                options={"maxiter": 200, "ftol": 1e-12},
            )
            candidate = result.x
        else:
            # minimize the bound s with -s <= delta_i <= s and g = 0
            y0 = np.append(delta0, np.max(np.abs(delta0)))

            def obj(y):
                return float(y[-1])

            def obj_jac(y):
                jac = np.zeros_like(y)
                jac[-1] = 1.0
                return jac

            cons = [
                {
                    "type": "eq",
                    "fun": lambda y: constraint_value(y[:-1]),
                    "jac": lambda y: np.append(
                        _central_gradient(constraint_value, y[:-1]), 0.0
                    ),
                },
                {
                    "type": "ineq",
                    "fun": lambda y: y[-1] - y[:-1],
                    "jac": lambda y: np.hstack([-np.eye(n), np.ones((n, 1))]),
                },
                {
                    "type": "ineq",
                    "fun": lambda y: y[-1] + y[:-1],
                    "jac": lambda y: np.hstack([np.eye(n), np.ones((n, 1))]),
                },
            ]
            result = minimize(
                obj,
                y0,
                jac=obj_jac,
                method="SLSQP",
                constraints=cons,
                options={"maxiter": 200, "ftol": 1e-12},
            )
            candidate = result.x[:-1]
        value = g_at(candidate)
        if value is not None and abs(value) <= 10.0 * tol_abs:
            return candidate
        # polish by re-rooting along the ray through the candidate
        length = _norm_of(candidate, norm)
        if length > 0:
            t_root = ray_root(candidate / length)
            if t_root is not None:
                return t_root * (candidate / length)
        return None

    candidates: list[tuple[float, int, np.ndarray]] = []
    for t_root, start_id, delta0 in hits[:16]:
        refined = refine(delta0)
        if refined is not None:
            value = g_at(refined)
            if value is not None and abs(value) <= 10.0 * tol_abs:
                candidates.append((_norm_of(refined, norm), start_id, refined))
        candidates.append((t_root, start_id, delta0))  # raw hit as fallback
    for t_root, start_id, delta0 in hits[16:]:
        candidates.append((t_root, start_id, delta0))

    best_eta = min(c[0] for c in candidates)
    near = [c for c in candidates if c[0] <= best_eta * (1.0 + 1e-9)]
    near.sort(key=lambda c: tuple(c[2]))
    eta, best_start, delta_star = near[0]
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
