"""Uniform sampling in convex domains, Monte-Carlo volume estimation, and
the unbiasedness verification harness.

All randomness flows from a Philox counter-based generator keyed by the
caller's seed, so identical (model, count, seed) triples produce
bit-identical output on every platform. Gaussian deviates for ball
sampling come from an explicit Box-Muller transform of the uniform
stream. The bulk calls run contiguous groups of row blocks on up to
`domain.BULK_THREADS` threads (`domain.map_groups`); each group draws
from its own counter offset of the one stream, so the draws have the
same bits whatever the number of threads. Counts and seeds are integers
(`operator.index`): a float or other non-integer raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix, ModelVariant, fit_correlation_matrix
from .domain import as_integer, make_marginal_spec, map_groups, row_blocks
from .models import MEMBERSHIP_TOL, ConvexModel, build_model, centred_membership

VERDICT_UNBIASED = "unbiased-consistent"
VERDICT_BIASED = "biased-detected"


def _stream(seed: int, offset: int) -> np.random.Generator:
    """The seed's Philox stream from its `offset`-th double on: a counter
    step is four doubles, the rest are drawn and dropped."""
    bits = np.random.Philox(key=seed)
    bits.advance(offset // 4)
    gen = np.random.Generator(bits)
    gen.random(offset % 4)
    return gen


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
    [-1,1]^n (uniformity is exact by linearity), the stream's first
    count·n values in row order. ME: delta uniform in the unit ball,
    Box-Muller normals scaled to unit norm times U^(1/n) radii; of the
    stream's first 2·half values (half = ⌈count·n/2⌉), the flat position
    k < half is radius(u_k)·cos(angle(u_{half+k})) and k ≥ half is
    radius(u_{k−half})·sin(angle(u_k)), and row i's radius is
    u_{2·half+i}. ME maps delta as D·(delta·Aᵀ), MP as delta·(D·A)ᵀ; each
    grouping fixes the drawn bits. Besides the result, a draw holds a few
    blocks of deviates per thread.
    """
    count, seed = as_integer(count, "count"), as_integer(seed, "seed")
    if count < 1:
        raise ValueError("count must be at least 1")
    n = model.n
    x = np.empty((count, n))
    if model.variant is ModelVariant.ME:
        flat, size = x.reshape(-1), count * n
        half = (size + 1) // 2

        def normals(group: list[slice]) -> None:
            # a row block takes the half positions [⌈start·n/2⌉, ⌈stop·n/2⌉):
            # the radius and angle at k give the cos value at k and the
            # sin value at half + k, which may fall in another block
            lo = (group[0].start * n + 1) // 2
            radius_gen, angle_gen = _stream(seed, lo), _stream(seed, half + lo)
            for block in group:
                a, b = (block.start * n + 1) // 2, (block.stop * n + 1) // 2
                radius, angle = radius_gen.random(b - a), angle_gen.random(b - a)
                np.negative(radius, out=radius)
                np.log1p(radius, out=radius)  # 1-u1 in (0, 1] keeps the log finite
                radius *= -2.0
                np.sqrt(radius, out=radius)
                angle *= 2.0 * np.pi
                np.multiply(radius, np.cos(angle), out=flat[a:b])
                np.sin(angle, out=angle)
                end = min(b, size - half)  # an odd size drops the last sin value
                np.multiply(angle[: end - a], radius[: end - a], out=flat[half + a : half + end])

        def draw(group: list[slice]) -> None:
            radial = _stream(seed, 2 * half + group[0].start)
            for block in group:
                z = x[block]
                scale = np.sqrt(np.add.reduce(z * z, axis=1))  # np.linalg.norm(z, axis=1)
                scale[scale == 0.0] = 1.0
                z /= scale[:, None]
                radial.random(out=scale)
                scale **= 1.0 / n
                z *= scale[:, None]
            # from_delta block by block, into place, its products back to
            # back: a BLAS that runs threads of its own keeps them spinning
            # between its calls, which the work above would stretch
            for block in group:
                np.multiply(x[block] @ model.factor.T, model.radii, out=x[block])
                x[block] += model.midpoints

        map_groups(row_blocks(count), normals, count * n)

    else:
        linear = (model.radii[:, None] * model.factor).T

        def draw(group: list[slice]) -> None:
            gen = _stream(seed, group[0].start * n)
            for block in group:
                delta = gen.random((block.stop - block.start, n))
                delta *= 2.0
                delta -= 1.0
                np.matmul(delta, linear, out=x[block])
                x[block] += model.midpoints

    map_groups(row_blocks(count), draw, count * n)
    return x


def mc_volume(model: ConvexModel, count: int, seed: int) -> tuple[float, float]:
    """Hit-ratio estimate of the volume ratio nu over the marginal box,
    with its binomial standard error. The draws are the stream's first
    count·n values in row order, scaled to the box, streamed block by
    block."""
    count, seed = as_integer(count, "count"), as_integer(seed, "seed")
    if count < 1000:
        raise ValueError("count must be at least 1e3")
    n = model.n

    def count_hits(group: list[slice]) -> int:
        gen = _stream(seed, group[0].start * n)
        hits = 0
        with np.errstate(over="ignore", invalid="ignore"):  # nan is no hit
            for block in group:
                draws = gen.random((block.stop - block.start, n))
                draws *= 2.0
                draws -= 1.0
                draws *= model.radii
                draws += model.midpoints
                # centred in place: the draw less its midpoints is not the
                # unshifted deviate in floating point
                draws -= model.midpoints
                values = centred_membership(model, draws)
                hits += int(np.count_nonzero(values <= 1.0 + MEMBERSHIP_TOL))
        return hits

    p = sum(map_groups(row_blocks(count), count_hits, count * n)) / count
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
    draws, seed = as_integer(draws, "draws"), as_integer(seed, "seed")
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
    draws, seed = as_integer(draws, "draws"), as_integer(seed, "seed")
    true_entries, fitted, max_err = _refit_on_draws("ccc", variant, R, draws, seed)
    return CCCRecoveryReport(
        variant=variant,
        true_R=true_entries,
        recovered_R=fitted,
        max_abs_error=max_err,
        draws=draws,
        seed=seed,
    )
