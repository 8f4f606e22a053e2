"""Pairwise correlation measures and correlation-matrix assembly.

Two measures are supported. The sample correlation coefficient (SCC) is a
Pearson-style coefficient taken about the interval midpoints rather than
the sample means. The convex correlation coefficient (CCC) of a pair is
the parameter of the minimum-area member, within the model variant's 2D
family, that encloses all regularized sample pairs; the family of every
variant is parameterized by a single scalar r, and area strictly decreases
in |r|, so the fit is the feasible r of maximal magnitude.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .domain import read_only
from .errors import (
    DegenerateData,
    DimensionMismatch,
    DuplicatePair,
    InfeasibleFit,
    MissingPair,
    NotPositiveDefinite,
    ZeroDeviation,
)

EPS_PD = 1e-8
R_CLAMP = 1.0 - 1e-6
MEMBERSHIP_TOL = 1e-9
_GRID_STEP = 1e-3
_REFINE_TOL = 1e-7
_STEPS = int((R_CLAMP - _GRID_STEP / 2) / _GRID_STEP)  # largest grid multiple below the clamp
# the MP fit's r grid, 2001 points: ±R_CLAMP and every multiple of _GRID_STEP between
_GRID = read_only(
    np.concatenate(([-R_CLAMP], np.arange(-_STEPS, _STEPS + 1) * _GRID_STEP, [R_CLAMP]))
)
_TIE_TOL = 1e-9
# margin by which a sample must lie inside every hull edge before the MP fit
# may drop it; why this keeps the fit bit-identical is in _mp_intervals
_HULL_TOL = 1e-9
# most (r, sample) elements _mp_feasible holds in one of its temporaries
_BLOCK = 1 << 17


class ModelVariant(enum.Enum):
    """Convex model family selector; fixes the CCC geometry and the
    factorization rule that derives the domain shape from R."""

    ME = "me"
    MP1 = "mp1"
    MP2 = "mp2"
    RECT = "rect"
    LTRI = "ltri"
    UTRI = "utri"

    @property
    def label(self) -> str:
        return {
            ModelVariant.ME: "ME",
            ModelVariant.MP1: "MP-I",
            ModelVariant.MP2: "MP-II",
            ModelVariant.RECT: "RectMP",
            ModelVariant.LTRI: "LTriMP",
            ModelVariant.UTRI: "UTriMP",
        }[self]

    @property
    def is_parallelepiped(self) -> bool:
        return self is not ModelVariant.ME


@dataclass(frozen=True)
class RepairReport:
    """What ensure_positive_definite changed in repair mode."""

    lambda_min_before: float
    max_entry_change: float


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric unit-diagonal matrix of pairwise coefficients."""

    entries: np.ndarray
    method: str  # "ccc" or "scc"
    repair: RepairReport | None = None

    def __post_init__(self) -> None:
        entries = read_only(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch(f"correlation matrix must be square, got {entries.shape}")
        if self.method not in ("ccc", "scc"):
            raise ValueError(f"method must be 'ccc' or 'scc', got {self.method!r}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("non-finite correlation entries")
        if np.max(np.abs(entries - entries.T)) > 1e-12:
            raise ValueError("correlation matrix not symmetric within 1e-12")
        if np.any(np.diag(entries) != 1.0):
            raise ValueError("correlation matrix diagonal must be exactly 1")
        off = entries[~np.eye(entries.shape[0], dtype=bool)]
        if off.size and np.max(np.abs(off)) >= 1.0:
            raise ValueError("off-diagonal correlation magnitude must be < 1")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    # computed once per matrix: ensure_positive_definite and build_model
    # both read it
    @cached_property
    def lambda_min(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def _scaled(column: np.ndarray) -> np.ndarray:
    """The column over its largest magnitude when that lies outside [1e-50,
    1e50], where scc's dot products could overflow or underflow; else itself."""
    peak = max(float(column.max()), -float(column.min()))
    return column / peak if peak > 0.0 and not 1e-50 <= peak <= 1e50 else column


def _scc_column(x: np.ndarray) -> tuple[np.ndarray, float]:
    """A column ready for scc's dot products, (a, a·a): contiguous, copied
    only when strided since a dot product over a strided column can round
    differently, and `_scaled`."""
    a = np.ascontiguousarray(x, dtype=float)
    if a.size < 2:
        raise DimensionMismatch("need at least 2 samples")
    a = _scaled(a)
    return a, float(a @ a)


def _scc_pair(column_i: tuple[np.ndarray, float], column_j: tuple[np.ndarray, float]) -> float:
    """The SCC of two `_scc_column` results: one dot product a·b over the
    square root of the two self dots, clipped to [-1, 1]."""
    (a, denom_a), (b, denom_b) = column_i, column_j
    if denom_a == 0.0 or denom_b == 0.0:
        raise ZeroDeviation("a column sits identically at its midpoint")
    value = float(a @ b) / np.sqrt(denom_a * denom_b)
    return float(np.clip(value, -1.0, 1.0))


def scc(x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Sample correlation coefficient of two regularized columns, about
    their interval midpoint 0. fit_correlation_matrix("scc") goes through
    the same two helpers, taking each column once, so its entries are
    this function's bits."""
    x_i, x_j = np.asarray(x_i), np.asarray(x_j)
    if x_i.shape != x_j.shape or x_i.ndim != 1:
        raise DimensionMismatch(
            f"columns must be 1-D and equal length, got {x_i.shape} and {x_j.shape}"
        )
    return _scc_pair(_scc_column(x_i), _scc_column(x_j))


def _mp_shape_2d(variant: ModelVariant, r: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 shape matrices S(r) of an MP variant, vectorized
    over r; rows of each S have unit absolute sum. Matches the general
    factorization path (asserted in tests), with the r=0 member being the
    standard square for every variant."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty(r.shape + (2, 2))
    absr = np.abs(r)
    if variant is ModelVariant.MP1:
        d = 1.0 + absr
        out[..., 0, 0] = 1.0 / d
        out[..., 0, 1] = r / d
        out[..., 1, 0] = r / d
        out[..., 1, 1] = 1.0 / d
    elif variant is ModelVariant.MP2:
        sp = np.sqrt(1.0 + r)
        sm = np.sqrt(1.0 - r)
        p = (sp + sm) / 2.0
        q = (sp - sm) / 2.0
        d = p + np.abs(q)
        out[..., 0, 0] = p / d
        out[..., 0, 1] = q / d
        out[..., 1, 0] = q / d
        out[..., 1, 1] = p / d
    elif variant is ModelVariant.RECT:
        # eigen rule: columns ordered by descending eigenvalue 1+|r|, 1-|r|
        sp = np.sqrt(1.0 + absr)
        sm = np.sqrt(1.0 - absr)
        d = sp + sm
        pos = r > 0
        a, b = sp / d, sm / d
        out[..., 0, 0] = a
        out[..., 0, 1] = b
        out[..., 1, 0] = np.where(pos, a, -a)
        out[..., 1, 1] = np.where(pos, -b, b)
        zero = r == 0
        if np.any(zero):
            out[zero] = np.eye(2)
    elif variant is ModelVariant.LTRI:
        c = np.sqrt(1.0 - r * r)
        d = absr + c
        out[..., 0, 0] = 1.0
        out[..., 0, 1] = 0.0
        out[..., 1, 0] = r / d
        out[..., 1, 1] = c / d
    elif variant is ModelVariant.UTRI:
        c = np.sqrt(1.0 - r * r)
        d = c + absr
        out[..., 0, 0] = c / d
        out[..., 0, 1] = r / d
        out[..., 1, 0] = 0.0
        out[..., 1, 1] = 1.0
    else:
        raise ValueError(f"not a parallelepiped variant: {variant}")
    return out


def _mp_terms(variant: ModelVariant, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """The adjugate terms (a11, a12, a21, a22, det) of S(r), each of r's shape."""
    shapes = _mp_shape_2d(variant, r)
    a11, a12 = shapes[..., 0, 0], shapes[..., 0, 1]
    a21, a22 = shapes[..., 1, 0], shapes[..., 1, 1]
    return a11, a12, a21, a22, a11 * a22 - a12 * a21


def _mp_feasible(
    terms: tuple[np.ndarray, ...], u: np.ndarray, starts: np.ndarray | list[int]
) -> np.ndarray:
    """For each of G values of r and each of P pairs, do all the pair's
    sample rows lie inside its 2D domain |S(r)^-1 u| <= e (with membership
    tolerance)? u stacks the K rows of every pair, pair p's from
    starts[p] on; terms are _mp_terms, each broadcastable to (G, K).
    Returns a (G, P) bool array.

    The rows go in blocks of at most _BLOCK (r, row) elements, and each
    pair takes the exact max of its rows, so neither the blocks nor the
    other pairs change any answer: every test is elementwise in r and in
    sample."""
    g, k = terms[0].shape[0], len(u)
    terms = [np.broadcast_to(t, (g, k)) for t in terms]
    worst = np.full((g, len(starts)), -np.inf)
    step = max(1, _BLOCK // g)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        a11, a12, a21, a22, det = (t[:, lo:hi] for t in terms)
        u1, u2 = u[lo:hi, 0], u[lo:hi, 1]
        # delta = S^-1 u via the 2x2 adjugate, (G, rows)
        d1 = (a22 * u1 - a12 * u2) / det
        d2 = (-a21 * u1 + a11 * u2) / det
        dist = np.maximum(np.abs(d1), np.abs(d2))
        # the pairs with rows in this block, and where each one's rows begin in it
        first = np.searchsorted(starts, lo, side="right") - 1
        last = np.searchsorted(starts, hi)
        cuts = np.maximum(starts[first:last], lo) - lo
        part = worst[:, first:last]
        np.maximum(part, np.maximum.reduceat(dist, cuts, axis=1), out=part)
    return worst <= 1.0 + MEMBERSHIP_TOL


def _pick_extreme(r_neg: float, r_pos: float, u: np.ndarray) -> float:
    """Choose the fitted value among the two one-sided extremes by max |r|,
    breaking near-ties with the SCC sign of the pair."""
    if abs(abs(r_pos) - abs(r_neg)) <= _TIE_TOL:
        return r_pos if float(u[:, 0] @ u[:, 1]) >= 0.0 else r_neg
    return r_pos if abs(r_pos) > abs(r_neg) else r_neg


def _me_interval(u: np.ndarray) -> tuple[float, float]:
    """Closed-form ME feasible interval: the intersection (lo, hi) of the
    per-sample feasible r-intervals of the ellipse family
    u1^2 + u2^2 - 2 r u1 u2 <= 1 - r^2; empty when lo > hi."""
    u1, u2 = u[:, 0], u[:, 1]
    prod = u1 * u2
    half = np.sqrt(np.maximum((1.0 - u1 * u1) * (1.0 - u2 * u2), 0.0))
    return float(np.max(prod - half)), float(np.min(prod + half))


def _hull_candidates(u: np.ndarray) -> np.ndarray:
    """The samples that can bind an MP fit: every row of u not inside
    every edge of the samples' convex hull by at least _HULL_TOL. Returns
    u itself when qhull cannot build a 2-D hull (fewer than 3 points, or
    all on one line)."""
    try:
        equations = ConvexHull(u).equations
    except QhullError:
        return u
    depth = (u @ equations[:, :2].T + equations[:, 2]).max(axis=1)
    return u[depth > -_HULL_TOL]


def _mp_intervals(
    variant: ModelVariant, u: np.ndarray, pairs: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-plus-bisection extremes (r_neg, r_pos) of the MP feasible set
    of every column pair of u, each within the clamp, as two arrays in the
    order of pairs. Feasibility in r need not be one interval, so each
    pair's first and last feasible grid points are bisected toward their
    infeasible outer neighbours; an end at the clamp has no neighbour and
    stays there. The grid is one _mp_feasible call per pair, on grid
    terms built once per call; the bisection is one loop for both ends of
    every pair, each step one _mp_feasible call over the stacked
    candidates of all pairs. Each pair gets the grid indices, bisection
    path and ends it would get alone: its tests are its own, and a closed
    end retests its own feasible r, so it does not move.

    The grid and the bisections test only _hull_candidates of each pair;
    the SCC tie-break in _finish_ccc still reads every sample. This returns
    the same bits as testing all of u. For every r, f_r(u) =
    |S(r)^-1 u|_inf is a norm, hence convex, so its maximum over the hull
    H of the kept points is attained at a kept vertex. A dropped point p
    has p + tau*B inside H (tau = _HULL_TOL, B the unit disc), so
    p*(1 + tau/|p|) lies in H and f_r(p) <= max_H f_r / (1 + tau/sqrt(2)):
    a relative margin of about 7e-10, since |p| <= sqrt(2) in the unit
    box. Rounding in _mp_feasible stays below 1e-13 relative, even at the
    clamp, where |S^-1| reaches about 1e3 (1e6 for MP-I). The test against
    1 + MEMBERSHIP_TOL therefore gives the same answer at every r the fit
    visits, and with it the same grid indices, bisection path and fitted
    r. The hull edges are computed in floating point, so the guarantee
    rests on the tau margin alone.
    """
    grid_terms = _mp_terms(variant, _GRID[:, None])
    candidates, ends = [], []
    for pair in pairs:
        # one pair's (N, 2) copy at a time; only its candidates are kept
        candidates.append(_hull_candidates(u[:, pair]))
        feasible = _mp_feasible(grid_terms, candidates[-1], [0])[:, 0]
        # never all False: r = 0 is on the grid, S(0) = I, and _ccc_fits admits |u| <= 1 + 1e-9 only
        ends.append(np.flatnonzero(feasible)[[0, -1]])
    ends = np.array(ends).T
    feas = _GRID[ends]
    # an end at the clamp brackets itself, so it starts closed
    infeas = _GRID[np.clip(ends + [[-1], [1]], 0, len(_GRID) - 1)]
    counts = [len(c) for c in candidates]
    starts = np.cumsum([0] + counts[:-1])
    rows = np.concatenate(candidates)
    for _ in range(64):
        open_ = np.abs(infeas - feas) > _REFINE_TOL
        if not open_.any():
            break
        # a closed end retests its own feasible r, so neither side moves
        mid = np.where(open_, (feas + infeas) / 2.0, feas)
        # each pair's two r, repeated over its candidate rows
        terms = [np.repeat(t, counts, axis=1) for t in _mp_terms(variant, mid)]
        ok = _mp_feasible(terms, rows, starts)
        feas = np.where(ok, mid, feas)
        infeas = np.where(ok, infeas, mid)
    return feas[0], feas[1]


def _check_fit_options(method: str, variant, on_infeasible: str) -> None:
    if method not in ("ccc", "scc"):
        raise ValueError(f"method must be 'ccc' or 'scc', got {method!r}")
    if method == "ccc" and not isinstance(variant, ModelVariant):
        raise ValueError(f"variant must be a ModelVariant, got {variant!r}")
    if on_infeasible not in ("error", "relax"):
        raise ValueError(f"on_infeasible must be 'error' or 'relax', got {on_infeasible!r}")


def _ccc_fits(
    variant: ModelVariant,
    u: np.ndarray,
    pairs: list[tuple[int, int]],
    on_infeasible: str,
) -> list[float]:
    """The CCC of every column pair of u, in the order of pairs: first the
    feasible r-interval of every pair (_me_interval one pair at a time,
    _mp_intervals all pairs together), then each pair finished on its own,
    warnings and errors in pair order."""
    if u.shape[0] < 1:
        raise DimensionMismatch("need at least one sample pair")
    if not np.all(np.abs(u) <= 1.0 + 1e-9):  # also refuses nan
        raise ValueError("u_pairs entries must lie in [-1, 1]")
    if variant is ModelVariant.ME:
        intervals = [_me_interval(u[:, pair]) for pair in pairs]
    else:
        r_neg, r_pos = _mp_intervals(variant, u, pairs)
        intervals = zip(r_neg.tolist(), r_pos.tolist())
    return [
        _finish_ccc(lo, hi, u[:, pair], on_infeasible)
        for pair, (lo, hi) in zip(pairs, intervals)
    ]


def _finish_ccc(lo: float, hi: float, u: np.ndarray, on_infeasible: str) -> float:
    """One pair's CCC from its feasible interval (lo, hi) and its samples u."""
    if lo > hi:
        gap = lo - hi
        if on_infeasible == "relax":
            warnings.warn(
                f"infeasible ME pair fit relaxed to minimax value (gap {gap:.3g})",
                DegenerateData,
            )
            return float(np.clip((lo + hi) / 2.0, -R_CLAMP, R_CLAMP))
        raise InfeasibleFit(
            f"no ellipse of the family encloses all pairs (feasible intervals "
            f"disjoint, gap {gap:.3g})",
            gap=gap,
        )
    lo_c, hi_c = max(lo, -R_CLAMP), min(hi, R_CLAMP)
    if lo_c > hi_c:
        r = R_CLAMP if lo > 0 else -R_CLAMP  # the interval lies beyond the clamp
    else:
        r = _pick_extreme(lo_c, hi_c, u)
    if abs(r) >= R_CLAMP:
        warnings.warn("fit clamped at |r| = 1 - 1e-6", DegenerateData)
    return float(r)


def ccc_fit(
    variant: ModelVariant,
    u_pairs: np.ndarray,
    *,
    on_infeasible: str = "error",
) -> float:
    """Fit the convex correlation coefficient of one pair of regularized
    sample columns.

    u_pairs is an (N, 2) array with every entry in [-1, 1]. This is the
    one-pair call of fit_correlation_matrix's CCC stage: both families
    reduce the pair to a feasible r-interval (_me_interval,
    _mp_intervals), which the stage then finishes. Returns the r of
    maximal |r| whose 2D domain encloses all pairs; ties between the
    positive and negative extremes go to the SCC sign. Fits reaching the
    clamp |r| = 1 - 1e-6 emit a DegenerateData warning. When no r is
    feasible (possible only for ME, even on in-box data), on_infeasible
    selects between raising InfeasibleFit ("error") and returning the
    minimax-violation r with a warning ("relax").
    """
    _check_fit_options("ccc", variant, on_infeasible)
    u = np.asarray(u_pairs, dtype=float)
    if u.ndim != 2 or u.shape[1] != 2:
        raise DimensionMismatch(f"u_pairs must be (N, 2), got {u.shape}")
    return _ccc_fits(variant, u, [(0, 1)], on_infeasible)[0]


def assemble_correlation_matrix(
    pairwise: list[tuple[int, int, float]],
    n: int,
    method: str,
) -> CorrelationMatrix:
    """Assemble the symmetric unit-diagonal matrix from n(n-1)/2 pairwise
    coefficients given as (i, j, r) with 0-based i < j."""
    matrix = np.eye(n)
    seen = set()
    for i, j, r in pairwise:
        if not (0 <= i < j < n):
            raise MissingPair(f"pair index ({i}, {j}) invalid for n={n}; need 0 <= i < j < n")
        if (i, j) in seen:
            raise DuplicatePair(f"pair ({i}, {j}) supplied twice")
        if not abs(r) < 1.0:
            raise ValueError(f"|r| must be < 1, got {r} for pair ({i}, {j})")
        seen.add((i, j))
        matrix[i, j] = matrix[j, i] = float(r)
    expected = n * (n - 1) // 2
    if len(seen) != expected:
        absent = [
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in seen
        ]
        raise MissingPair(f"{expected} pairs required, got {len(seen)}; missing {absent}")
    return CorrelationMatrix(entries=matrix, method=method)


def ensure_positive_definite(R: CorrelationMatrix, policy: str = "strict") -> CorrelationMatrix:
    """Check or restore positive definiteness.

    strict: return R unchanged when its smallest eigenvalue is at least
    EPS_PD, raise NotPositiveDefinite otherwise. repair: clip eigenvalues
    at EPS_PD and rescale back to an exact unit diagonal (repeated until
    the floor holds; the congruence rescaling preserves definiteness), and
    attach a report with the prior smallest eigenvalue and the largest
    entry change.
    """
    if policy not in ("strict", "repair"):
        raise ValueError(f"policy must be 'strict' or 'repair', got {policy!r}")
    entries = R.entries
    lam_before = R.lambda_min
    if lam_before >= EPS_PD:
        return R
    if policy == "strict":
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lam_before:.3e} below {EPS_PD:.0e}",
            lambda_min=lam_before,
        )
    fixed = entries.copy()
    for _ in range(50):
        lam, vec = np.linalg.eigh(fixed)
        if lam[0] >= EPS_PD:
            break
        # clip a bit above the floor: the unit-diagonal rescale that follows
        # pulls the smallest eigenvalue back down slightly
        clipped = (vec * np.maximum(lam, 1.05 * EPS_PD)) @ vec.T
        scale = np.sqrt(np.diag(clipped))
        fixed = clipped / np.outer(scale, scale)
        fixed = (fixed + fixed.T) / 2.0
        np.fill_diagonal(fixed, 1.0)
    report = RepairReport(
        lambda_min_before=lam_before,
        max_entry_change=float(np.max(np.abs(fixed - entries))),
    )
    return CorrelationMatrix(entries=fixed, method=R.method, repair=report)


def fit_correlation_matrix(
    method: str,
    variant: ModelVariant | None,
    u_rows: np.ndarray,
    *,
    on_infeasible: str = "error",
) -> CorrelationMatrix:
    """Compute all pairwise coefficients from regularized sample rows and
    assemble the matrix. method, variant (a ModelVariant for "ccc", unread
    for "scc") and on_infeasible are checked before any work, whatever the
    number of columns.

    "ccc" fits every pair in one stage, the one ccc_fit calls for its one
    pair, so each entry is that pair's ccc_fit, bit for bit and with its
    warnings in pair order: the feasible intervals of all pairs first (for
    the parallelepipeds one grid test per pair, then one bisection over
    all pairs together; see _mp_intervals), then each pair finished on its
    own. SCC values that land exactly at ±1 are pulled to the clamp with a
    DegenerateData warning so assembly stays valid."""
    _check_fit_options(method, variant, on_infeasible)
    u = np.asarray(u_rows, dtype=float)
    if u.ndim != 2:
        raise DimensionMismatch(f"u_rows must be 2-D, got shape {u.shape}")
    n = u.shape[1]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # fitted only when a pair exists, so a lone column is [[1.0]] whatever its rows
    if not pairs:
        values = []
    elif method == "ccc":
        values = _ccc_fits(variant, u, pairs, on_infeasible)
    else:
        # one contiguous copy of every column, scaled and self-dotted once,
        # not once per pair
        columns = [_scc_column(column) for column in np.ascontiguousarray(u.T)]
        values = []
        for i, j in pairs:
            r = _scc_pair(columns[i], columns[j])
            if abs(r) >= 1.0:
                warnings.warn(f"SCC of pair ({i}, {j}) is exactly ±1; clamped", DegenerateData)
                r = float(np.sign(r)) * R_CLAMP
            values.append(r)
    return assemble_correlation_matrix(
        [(i, j, r) for (i, j), r in zip(pairs, values)], n, method
    )
