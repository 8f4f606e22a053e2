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
from .models import (
    MEMBERSHIP_TOL,
    ConvexModel,
    build_model,
    from_delta,
    membership_values,
    row_blocks,
)

VERDICT_UNBIASED = "unbiased-consistent"
VERDICT_BIASED = "biased-detected"


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _box_muller(gen: np.random.Generator, count: int) -> np.ndarray:
    """Standard normal deviates from the uniform stream: the first half of
    one array holds radius·cos(angle), the second radius·sin(angle), each
    computed in place from the half's uniforms."""
    half = (count + 1) // 2
    z = np.empty(2 * half)
    radius, angle = z[:half], z[half:]
    gen.random(out=radius)
    gen.random(out=angle)
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)  # 1-u1 in (0, 1] keeps the log finite
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cos
    return z[:count]


def _unit_ball(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    """`count` points uniform in the unit n-ball: normalized Box-Muller
    directions times U^(1/n) radii, the radius block drawn after the
    direction block. One count-long buffer holds the norms, then the radii."""
    z = _box_muller(gen, count * n).reshape(count, n)
    scale = np.empty(count)
    for block in row_blocks(count):  # np.linalg.norm(z, axis=1)
        np.sqrt(np.add.reduce(z[block] * z[block], axis=1), out=scale[block])
    scale[scale == 0.0] = 1.0
    z /= scale[:, None]
    gen.random(out=scale)
    scale **= 1.0 / n
    z *= scale[:, None]
    return z


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
    unit ball (`_unit_ball`). ME maps delta with from_delta, D·(delta·Aᵀ);
    MP groups the product as delta·(D·A)ᵀ. Each grouping fixes the drawn
    bits. Besides the result, a draw holds the count×n deviates and, for
    ME, half as much again while it turns them into normals.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    gen = _generator(seed)
    n = model.n
    if model.variant is ModelVariant.ME:
        return from_delta(model, _unit_ball(gen, count, n))
    delta = gen.random((count, n))
    delta *= 2.0
    delta -= 1.0
    x = delta @ (model.radii[:, None] * model.factor).T
    x += model.midpoints
    return x


def mc_volume(model: ConvexModel, count: int, seed: int) -> tuple[float, float]:
    """Hit-ratio estimate of the volume ratio nu over the marginal box,
    with its binomial standard error."""
    if count < 1000:
        raise ValueError("count must be at least 1e3")
    gen = _generator(seed)
    hits = 0
    for block in row_blocks(count):  # the draws of one count×n array, streamed
        draws = gen.random((block.stop - block.start, model.n))
        draws *= 2.0
        draws -= 1.0
        draws *= model.radii
        draws += model.midpoints
        hits += int(np.count_nonzero(membership_values(model, draws) <= 1.0 + MEMBERSHIP_TOL))
    p = hits / count
    return p, float(np.sqrt(p * (1.0 - p) / count))


def _standard_model(variant: ModelVariant, R: np.ndarray | CorrelationMatrix) -> ConvexModel:
    if not isinstance(R, CorrelationMatrix):
        R = CorrelationMatrix(entries=np.asarray(R, dtype=float), method="scc")
    n = R.n
    spec = make_marginal_spec((f"u{k + 1}", -1.0, 1.0) for k in range(n))
    return build_model(variant, spec, R)


def _refit_on_draws(
    method: str, variant: ModelVariant, R: np.ndarray | CorrelationMatrix, draws: int, seed: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """The entries of R, those `method` refits on uniform draws from the
    variant's regularized domain of R, and their largest absolute gap."""
    if draws < 10_000:
        raise ValueError("draws must be at least 1e4")
    model = _standard_model(variant, R)
    points = sample_uniform(model, draws, seed)
    recovered = fit_correlation_matrix(method, variant, points, on_infeasible="relax").entries
    true_entries = model.R.entries
    return true_entries, recovered, float(np.max(np.abs(recovered - true_entries)))


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
    true_entries, recovered, max_err = _refit_on_draws("scc", variant, R, draws, seed)
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
    true_entries, fitted, max_err = _refit_on_draws("ccc", variant, R, draws, seed)
    return CCCRecoveryReport(
        variant=variant,
        true_R=true_entries,
        recovered_R=fitted,
        max_abs_error=max_err,
        draws=draws,
        seed=seed,
    )
