"""Uniform sampling in convex domains, Monte-Carlo volume estimation, and
the unbiasedness verification harness.

All randomness flows from a Philox counter-based generator keyed by the
caller's seed, so identical (model, count, seed) triples produce
bit-identical output on every platform. Gaussian deviates for ball
sampling come from an explicit Box-Muller transform of the uniform
stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix, ModelVariant, fit_correlation_matrix
from .domain import make_marginal_spec
from .models import MEMBERSHIP_TOL, ConvexModel, build_model, membership_values

VERDICT_UNBIASED = "unbiased-consistent"
VERDICT_BIASED = "biased-detected"


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _box_muller(gen: np.random.Generator, count: int) -> np.ndarray:
    """Standard normal deviates from the uniform stream."""
    half = (count + 1) // 2
    u1 = gen.random(half)
    u2 = gen.random(half)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0, 1] keeps the log finite
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def verdict_tolerance(draws: int) -> float:
    return 4.0 / np.sqrt(draws) + 0.005


@dataclass(frozen=True)
class UnbiasednessReport:
    """Pairwise SCCs recomputed from uniform draws from the true domain,
    with the verdict of the largest gap against the tolerance."""

    variant: ModelVariant
    true_R: np.ndarray
    recovered_R: np.ndarray
    max_abs_error: float
    verdict: str
    draws: int
    seed: int
    tolerance: float


@dataclass(frozen=True)
class CCCRecoveryReport:
    """Pairwise CCCs re-fitted on uniform draws from the true domain. No
    pass/fail threshold is defined for this measure, so the report carries
    the gaps only."""

    variant: ModelVariant
    true_R: np.ndarray
    recovered_R: np.ndarray
    max_abs_error: float
    draws: int
    seed: int


def sample_uniform(model: ConvexModel, count: int, seed: int) -> np.ndarray:
    """Draw `count` points uniformly from the model's domain.

    X = X^m + D·A·delta with A the model's factor. MP: delta uniform in
    [-1,1]^n (uniformity is exact by linearity). ME: delta uniform in the
    unit ball (normalized Box-Muller direction times U^(1/n) radius; the
    direction block of count*n normals is drawn before the radius block).
    The two branches group the product differently, D·(delta·Aᵀ) for ME
    and delta·(D·A)ᵀ for MP; each grouping fixes the drawn bits.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    gen = _generator(seed)
    n = model.n
    if model.variant is ModelVariant.ME:
        z = _box_muller(gen, count * n).reshape(count, n)
        norms = np.linalg.norm(z, axis=1)
        norms[norms == 0.0] = 1.0
        radial = gen.random(count) ** (1.0 / n)
        delta = z / norms[:, None] * radial[:, None]
        return model.midpoints + model.radii * (delta @ model.factor.T)
    delta = 2.0 * gen.random((count, n)) - 1.0
    return model.midpoints + delta @ (model.radii[:, None] * model.factor).T


def mc_volume(model: ConvexModel, count: int, seed: int) -> tuple[float, float]:
    """Hit-ratio estimate of the volume ratio nu over the marginal box,
    with its binomial standard error."""
    if count < 1000:
        raise ValueError("count must be at least 1e3")
    gen = _generator(seed)
    draws = model.midpoints + model.radii * (2.0 * gen.random((count, model.n)) - 1.0)
    hits = int(np.sum(membership_values(model, draws) <= 1.0 + MEMBERSHIP_TOL))
    p = hits / count
    return p, float(np.sqrt(p * (1.0 - p) / count))


def _standard_model(variant: ModelVariant, R: np.ndarray | CorrelationMatrix) -> ConvexModel:
    if not isinstance(R, CorrelationMatrix):
        R = CorrelationMatrix(entries=np.asarray(R, dtype=float), method="scc")
    n = R.n
    spec = make_marginal_spec((f"u{k + 1}", -1.0, 1.0) for k in range(n))
    return build_model(variant, spec, R)


def verify_unbiasedness(
    variant: ModelVariant,
    R: np.ndarray | CorrelationMatrix,
    draws: int,
    seed: int,
) -> UnbiasednessReport:
    """Build the variant's regularized domain from R, draw uniform points,
    recompute the pairwise SCC matrix, and compare against R.

    The verdict is unbiased-consistent when the largest entry error stays
    within 4/sqrt(draws) + 0.005.
    """
    if draws < 10_000:
        raise ValueError("draws must be at least 1e4")
    model = _standard_model(variant, R)
    points = sample_uniform(model, draws, seed)
    recovered = fit_correlation_matrix("scc", variant, points).entries
    true_entries = model.R.entries
    max_err = float(np.max(np.abs(recovered - true_entries)))
    tol = verdict_tolerance(draws)
    verdict = VERDICT_UNBIASED if max_err <= tol else VERDICT_BIASED
    return UnbiasednessReport(
        variant=variant,
        true_R=true_entries,
        recovered_R=recovered,
        max_abs_error=max_err,
        verdict=verdict,
        draws=draws,
        seed=seed,
        tolerance=tol,
    )


def ccc_recovery_report(
    variant: ModelVariant,
    R: np.ndarray | CorrelationMatrix,
    draws: int,
    seed: int,
) -> CCCRecoveryReport:
    """Demonstration counterpart of verify_unbiasedness for the CCC
    measure: fit pairwise CCCs on uniform draws from the true domain and
    report the gaps."""
    if draws < 10_000:
        raise ValueError("draws must be at least 1e4")
    model = _standard_model(variant, R)
    points = sample_uniform(model, draws, seed)
    fitted = fit_correlation_matrix("ccc", variant, points, on_infeasible="relax").entries
    true_entries = model.R.entries
    max_err = float(np.max(np.abs(fitted - true_entries)))
    return CCCRecoveryReport(
        variant=variant,
        true_R=true_entries,
        recovered_R=fitted,
        max_abs_error=max_err,
        draws=draws,
        seed=seed,
    )
