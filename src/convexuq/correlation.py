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

from .domain import map_groups, read_only, row_blocks
from .errors import (
    DegenerateData,
    DimensionMismatch,
    DuplicatePair,
    InfeasibleFit,
    MissingPair,
    NotPositiveDefinite,
    ZeroDeviation,
)

# the correlation estimators, by the name that selects each
ESTIMATORS = ("ccc", "scc")
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
_ZERO = _STEPS + 1  # the index of r = 0 in _GRID
_TIE_TOL = 1e-9
# the exact MP kernel's relative margin: its thresholds K(1 -+ _GAMMA), K = 1 +
# MEMBERSHIP_TOL, lie three times _mp_distance's largest relative rounding
# from the float test's K; the inner one rounds to 1.0, so a sample on the
# box's edge or corner stays inside it
_GAMMA = 1e-9
_THRESHOLDS = tuple((1.0 + MEMBERSHIP_TOL) * (1.0 + g) for g in (-_GAMMA, _GAMMA))
# relative slack of every comparison of a test point's rho with a bound: the
# bounds and rho(|r|) are within a few ulps of exact, far below this
_SLACK = 1e-12
# most (row, pair) elements a blocked CCC stage holds in one temporary; an
# _mp_feasible block holds about ten such temporaries, so this keeps it near 1 MB
_BLOCK = 1 << 14


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
    method: str  # one of ESTIMATORS
    repair: RepairReport | None = None

    def __post_init__(self) -> None:
        entries = read_only(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch(f"correlation matrix must be square, got {entries.shape}")
        _check_method(self.method)
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


def _scc_columns(u: np.ndarray) -> np.ndarray:
    """The columns of the sample rows u, ready for scc's dot products, as
    the rows of one C-ordered copy: a dot product over a strided column can
    round differently. The copy runs block by block of `row_blocks`, on the
    block groups (`map_groups`): a block fits in cache, where a pass that
    transposes all of u at once reads each row once per column. A column
    whose largest magnitude lies outside [1e-50, 1e50], where the dot
    products could overflow or underflow, is divided by it in the caller's
    thread. Raises DimensionMismatch below 2 rows, and ValueError naming
    the first non-finite entry where there is one."""
    count, n = u.shape
    if count < 2:
        raise DimensionMismatch("need at least 2 samples")
    columns = np.empty((n, count))

    def copy(group: list[slice]) -> np.ndarray:
        peaks = np.zeros(n)
        for block in group:
            part = columns[:, block]
            np.copyto(part, u[block].T)
            # max and min keep nan and ±inf, so a non-finite entry makes its
            # column's block peak non-finite
            peak = np.maximum(part.max(axis=1), -part.min(axis=1))
            if not np.isfinite(peak).all():
                row, column = np.argwhere(~np.isfinite(u[block]))[0]
                row += block.start
                raise ValueError(
                    f"entry ({row}, {column}) is {u[row, column]}; scc needs finite entries"
                )
            np.maximum(peaks, peak, out=peaks)
        return peaks

    peaks = np.max(map_groups(row_blocks(count), copy, count), axis=0)
    for column, peak in zip(columns, peaks):
        if peak > 0.0 and not 1e-50 <= peak <= 1e50:
            column /= peak
    return columns


def _scc_dots(columns: np.ndarray, pairs: list[tuple[int, int]]) -> list[float]:
    """The dot product of each pair of rows of `_scc_columns`, in order, on
    the block groups (`map_groups`): `np.dot` calls the BLAS dot product of
    `@` and gives its bits, but releases the GIL while it runs."""

    def dots(group: list[tuple[int, int]]) -> list[float]:
        # finite rows within 1e50 cannot overflow; an underflow is ignored
        # on every thread alike
        with np.errstate(under="ignore"):
            return [float(np.dot(columns[i], columns[j])) for i, j in group]

    return [dot for group in map_groups(pairs, dots, columns.shape[1]) for dot in group]


def _scc_value(dot: float, norm_i: float, norm_j: float) -> float:
    """The SCC of two `_scc_columns` rows from their dot product and their
    self dots: the dot over the square root of the self dots' product,
    clipped to [-1, 1]."""
    if norm_i == 0.0 or norm_j == 0.0:
        raise ZeroDeviation("a column sits identically at its midpoint")
    value = dot / np.sqrt(norm_i * norm_j)
    return float(np.clip(value, -1.0, 1.0))


def scc(x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Sample correlation coefficient of two regularized columns, about
    their interval midpoint 0. The columns may hold any finite values; a
    non-finite one raises ValueError. fit_correlation_matrix("scc") goes
    through the same three helpers, so its entries are this function's
    bits."""
    x_i, x_j = np.asarray(x_i, dtype=float), np.asarray(x_j, dtype=float)
    if x_i.shape != x_j.shape or x_i.ndim != 1:
        raise DimensionMismatch(
            f"columns must be 1-D and equal length, got {x_i.shape} and {x_j.shape}"
        )
    columns = _scc_columns(np.stack((x_i, x_j)).T)
    norm_i, norm_j, dot = _scc_dots(columns, [(0, 0), (1, 1), (0, 1)])
    return _scc_value(dot, norm_i, norm_j)


def _mp_shape_2d(variant: ModelVariant, r: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 shape matrices S(r) of an MP variant other than
    UTriMP, vectorized over r; rows of each S have unit absolute sum.
    Matches the general factorization path (asserted in tests), with the
    r=0 member being the standard square for every variant. UTriMP's S(r)
    is LTriMP's with rows and columns swapped, so `_ccc_fits` fits a
    UTriMP pair (i, j) as LTriMP on (j, i)."""
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
    else:
        raise ValueError(f"no closed-form pair shape for {variant}")
    return out


def _mp_terms(variant: ModelVariant, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """The adjugate terms (a11, a12, a21, a22, det) of S(r), each of r's shape."""
    shapes = _mp_shape_2d(variant, r)
    a11, a12 = shapes[..., 0, 0], shapes[..., 0, 1]
    a21, a22 = shapes[..., 1, 0], shapes[..., 1, 1]
    return a11, a12, a21, a22, a11 * a22 - a12 * a21


def _mp_distance(terms: tuple[np.ndarray, ...], u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """|S(r)^-1 u|_inf of each (r, row) element, with S^-1 u taken through
    the 2x2 adjugate; terms are _mp_terms, and terms, u1 and u2 broadcast
    to the elements' shape, which a22 * u1 already has. The one formula of
    every MP feasibility test: an element's value has the same bits
    wherever it is computed."""
    a11, a12, a21, a22, det = terms
    d1 = a22 * u1
    d1 -= a12 * u2
    d1 /= det
    d2 = -a21 * u1
    d2 += a11 * u2
    d2 /= det
    np.abs(d1, out=d1)
    np.abs(d2, out=d2)
    return np.maximum(d1, d2, out=d1)


def _pair_blocks(u: np.ndarray, first: np.ndarray, second: np.ndarray):
    """Walk the (row, pair) elements of the column pairs (first[p],
    second[p]) of u in blocks of at most _BLOCK; yield each block's slice
    of pairs and its (rows, pairs) arrays of first and second coordinates."""
    rows = min(len(u), _BLOCK)
    step = max(1, _BLOCK // rows)
    for r0 in range(0, len(u), rows):
        block = u[r0 : r0 + rows]
        for p0 in range(0, len(first), step):
            part = slice(p0, p0 + step)
            yield part, block[:, first[part]], block[:, second[part]]


def _mp_feasible(
    terms: tuple[np.ndarray, ...], u: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """For each of T tests, do all rows of its column pair (first[t],
    second[t]) lie inside its 2D domain |S(r)^-1 u| <= e (with membership
    tolerance), at the r whose _mp_terms are each term's entry t? A (T,)
    bool array; each test takes the exact max of its rows' _mp_distance
    over _pair_blocks, so neither blocks nor other tests change an answer."""
    worst = np.full(len(first), -np.inf)
    for part, u1, u2 in _pair_blocks(u, first, second):
        dist = _mp_distance([t[None, part] for t in terms], u1, u2)
        np.maximum(worst[part], dist.max(axis=0), out=worst[part])
    return worst <= 1.0 + MEMBERSHIP_TOL


def _pick_extreme(r_neg: float, r_pos: float, u: np.ndarray) -> float:
    """Choose the fitted value among the two one-sided extremes by max |r|,
    breaking near-ties with the SCC sign of the pair."""
    if abs(abs(r_pos) - abs(r_neg)) <= _TIE_TOL:
        return r_pos if float(u[:, 0] @ u[:, 1]) >= 0.0 else r_neg
    return r_pos if abs(r_pos) > abs(r_neg) else r_neg


def _me_intervals(u: np.ndarray, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ME feasible intervals (lo, hi) of every column pair of u,
    as two arrays in the order of pairs: the intersection of the per-sample
    feasible r-intervals of the ellipse family u1^2 + u2^2 - 2 r u1 u2 <=
    1 - r^2; empty when lo > hi. The per-sample bounds go through
    _pair_blocks, and each pair's lo and hi are the exact max and min of
    its samples'."""
    first, second = np.array(pairs).T
    lo, hi = np.full(len(pairs), -np.inf), np.full(len(pairs), np.inf)
    for part, u1, u2 in _pair_blocks(u, first, second):
        prod = u1 * u2
        half = np.sqrt(np.maximum((1.0 - u1 * u1) * (1.0 - u2 * u2), 0.0))
        np.maximum(lo[part], (prod - half).max(axis=0), out=lo[part])
        np.minimum(hi[part], (prod + half).min(axis=0), out=hi[part])
    return lo, hi


def _mp_rho(variant: ModelVariant, r: np.ndarray) -> np.ndarray:
    """The parameter rho(|r|), increasing, in which each side of an MP
    family's condition is linear: |r| for MP-I, |r|/(1 + sqrt(1 - r^2)) for
    MP-II (S(r) is MP-I's S(rho)), |r|/sqrt(1 - r^2) for LTriMP and 1/sigma =
    sqrt((1 + |r|)/(1 - |r|)) for RectMP, each within a few ulps."""
    a = np.abs(r)
    if variant is ModelVariant.RECT:
        return np.sqrt((1.0 + a) / (1.0 - a))
    if variant is ModelVariant.MP1:
        return a
    c = np.sqrt((1.0 - a) * (1.0 + a))
    return a / (1.0 + c) if variant is ModelVariant.MP2 else a / c


def _mp_sample_bounds(variant: ModelVariant, k: float, x: np.ndarray, v: np.ndarray):
    """Each sample's (lower, upper) bound on rho at threshold k on one side
    s of r, from x = u1 and v = s*u2 within [-k, k]; lower is None where
    rho >= 0 is the only one, and nan is no bound. MP-I and MP-II:
    |x - rho*v| and |v - rho*x| <= k(1 - rho), so rho <= min(a, b)/max(a, b)
    for (a, b) = (k - x, k - v) and (k + x, k + v). LTriMP: S^-1 u = (u1,
    u2 + rho*(u2 - s*u1)), so with w = v - x, rho <= (k - sign(w)*v)/|w|.
    RectMP, rho = 1/sigma: |x + v|(1 + sigma) <= 2k and |x - v|(1 + sigma)
    <= 2k*sigma give |x + v|/(2k - |x + v|) <= rho <= (2k - |x - v|)/|x - v|."""
    if variant is ModelVariant.RECT:
        plus, minus = np.abs(x + v), np.abs(x - v)
        return plus / (2.0 * k - plus), (2.0 * k - minus) / minus
    if variant is ModelVariant.LTRI:
        w = v - x
        return None, np.where(w > 0.0, k - v, k + v) / np.abs(w)
    a, b, c, d = k - x, k - v, k + x, k + v
    return None, np.fmin(np.minimum(a, b) / np.maximum(a, b), np.minimum(c, d) / np.maximum(c, d))


def _mp_bounds(variant: ModelVariant, u: np.ndarray, first: np.ndarray, second: np.ndarray):
    """The feasible rho-interval (lo, hi) of every column pair at each of
    _THRESHOLDS on each side of r (0 for r < 0): two (threshold, side,
    pair) arrays, empty where lo > hi, the exact max and min of the pair's
    _mp_sample_bounds over _pair_blocks. A pair with an entry beyond the
    inner threshold, 1.0, gets no inner interval, so its points take the
    float test."""
    lo, hi = np.zeros((2, 2, len(first))), np.full((2, 2, len(first)), np.inf)
    # x/0 is inf and 0/0 nan: no bound; so is an overflow past a tiny divisor
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for part, u1, u2 in _pair_blocks(u, first, second):
            for side, v in enumerate((-u2, u2)):
                for level, k in enumerate(_THRESHOLDS):
                    lower, upper = _mp_sample_bounds(variant, k, u1, v)
                    at = level, side, part
                    hi[at] = np.fmin(hi[at], np.fmin.reduce(upper, axis=0))
                    if lower is not None:
                        lo[at] = np.maximum(lo[at], lower.max(axis=0))
    peak = np.maximum(u.max(axis=0), -u.min(axis=0))
    hi[0][:, np.maximum(peak[first], peak[second]) > _THRESHOLDS[0]] = -np.inf
    return lo, hi


def _mp_intervals(
    variant: ModelVariant, u: np.ndarray, pairs: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-plus-bisection extremes (r_neg, r_pos) of the MP feasible set
    of every column pair of u, each within the clamp, as two arrays in the
    order of pairs: the first and last feasible points of _GRID, each
    bisected toward its infeasible outer neighbour to within _REFINE_TOL
    (an end at the clamp stays there). Each answer is the float test's,
    _mp_feasible on all of the pair's samples, which runs only where the
    exact intervals of _mp_bounds cannot settle a point.

    Why the bits hold: the float test rounds max |S(r)^-1 u|_inf to within
    _GAMMA/3 relative (pinned by a test; the largest, 2.7e-10, is MP-I's
    near the clamp) and compares it with K = 1 + MEMBERSHIP_TOL, so it
    passes a point whose exact distance is within K(1 - _GAMMA) and fails
    one beyond K(1 + _GAMMA). On each side of r the exact distance is
    within a threshold iff rho(|r|) is in that threshold's interval; a
    point settles when rho is inside the inner or outside the outer one,
    by relative slack _SLACK. r = 0 (S = I, distance max |u| <= K, as
    _ccc_fits checks) always passes and is never read from the intervals,
    which for RectMP hold the r -> 0 diamond. Feasibility need not be one
    interval in r (RectMP can have an island off 0; float answers near a
    bound need not be monotone), so a side's last grid point is the last
    of its sure points and of its unsettled points that pass. The grid's unsettled points, and each bisection step's unsettled
    midpoints of all pairs, take one float test call."""
    first, second = np.array(pairs).T
    lo, hi = _mp_bounds(variant, u, first, second)
    # inside the sure intervals a point passes; outside the maybe ones it fails
    sure_lo, sure_hi = lo[0] * (1.0 + _SLACK), hi[0] * (1.0 - _SLACK)
    maybe_lo, maybe_hi = lo[1] * (1.0 - _SLACK), hi[1] * (1.0 + _SLACK)

    def test(r: np.ndarray, pair: np.ndarray) -> np.ndarray:
        return _mp_feasible(_mp_terms(variant, r), u, first[pair], second[pair])

    # grid position j is r = _GRID[_ZERO + 1 + j] on side 1, -r on side 0
    rho = _mp_rho(variant, _GRID[_ZERO + 1 :])
    top = np.searchsorted(rho, sure_hi, side="right")
    sure = np.where(np.searchsorted(rho, sure_lo) < top, top, 0)
    start = np.maximum(sure, np.searchsorted(rho, maybe_lo))
    stop = np.searchsorted(rho, maybe_hi, side="right")
    count = np.maximum(stop - start, 0).ravel()
    if count.any():  # every unsettled (side, pair, j), in one float test
        at = np.repeat(np.arange(count.size), count)
        j = np.arange(at.size) - np.repeat(np.cumsum(count) - count, count) + start.ravel()[at]
        side, pair = np.divmod(at, len(pairs))
        passed = test(_GRID[_ZERO + (2 * side - 1) * (j + 1)], pair)
        np.maximum.at(sure.reshape(-1), at[passed], j[passed] + 1)
    ends = _ZERO + np.array([[-1], [1]]) * sure  # sure: each side's last feasible k
    feas = _GRID[ends]
    # an end at the clamp brackets itself, so it starts closed
    infeas = _GRID[np.clip(ends + [[-1], [1]], 0, len(_GRID) - 1)]
    for _ in range(64):
        open_ = np.abs(infeas - feas) > _REFINE_TOL
        if not open_.any():
            break
        # a row's midpoints lie on its side of 0; a closed end keeps its
        # feasible r, as a retest of it would
        side, pair = np.nonzero(open_)
        mid = (feas[side, pair] + infeas[side, pair]) / 2.0
        rho = _mp_rho(variant, mid)
        ok = (sure_lo[side, pair] <= rho) & (rho <= sure_hi[side, pair])
        unsettled = ~ok & (maybe_lo[side, pair] <= rho) & (rho <= maybe_hi[side, pair])
        if unsettled.any():
            ok[unsettled] = test(mid[unsettled], pair[unsettled])
        feas[side[ok], pair[ok]] = mid[ok]
        infeas[side[~ok], pair[~ok]] = mid[~ok]
    return feas[0], feas[1]


def _check_method(method: str) -> None:
    if method not in ESTIMATORS:
        names = " or ".join(repr(name) for name in ESTIMATORS)
        raise ValueError(f"method must be {names}, got {method!r}")


def _check_fit_options(method: str, variant, on_infeasible: str) -> None:
    _check_method(method)
    if method == "ccc" and not isinstance(variant, ModelVariant):
        raise ValueError(f"variant must be a ModelVariant, got {variant!r}")
    if on_infeasible not in ("error", "relax"):
        raise ValueError(f"on_infeasible must be 'error' or 'relax', got {on_infeasible!r}")


def _ccc_fits(
    variant: ModelVariant, u: np.ndarray, pairs: list[tuple[int, int]], on_infeasible: str
) -> list[float]:
    """The CCC of every column pair of u, in the order of pairs: first the
    feasible r-interval of every pair (_me_intervals or _mp_intervals, all
    pairs together), then each pair finished on its own, warnings and
    errors in pair order."""
    if u.shape[0] < 1:
        raise DimensionMismatch("need at least one sample pair")
    if not np.all(np.abs(u) <= 1.0 + MEMBERSHIP_TOL):  # also refuses nan
        raise ValueError("u_pairs entries must lie in [-1, 1]")
    if variant is ModelVariant.ME:
        lo, hi = _me_intervals(u, pairs)
    else:
        if variant is ModelVariant.UTRI:
            # the swapped pair's adjugate terms and distances differ from
            # UTriMP's only by IEEE operations that commute, so the bits hold
            variant, pairs = ModelVariant.LTRI, [(j, i) for i, j in pairs]
        lo, hi = _mp_intervals(variant, u, pairs)
    return [
        _finish_ccc(lo_p, hi_p, u[:, pair], on_infeasible)
        for pair, lo_p, hi_p in zip(pairs, lo.tolist(), hi.tolist())
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
    number of columns. Only "ccc" needs every entry of u_rows in [-1, 1];
    "scc" takes any finite entries, and raises ValueError at a non-finite
    one before any pair.

    "ccc" gives each pair the r of maximal |r| whose 2D domain of the
    variant's family encloses all of the pair's samples; a tie between the
    positive and negative extremes goes to the pair's SCC sign. A fit
    reaching the clamp |r| = 1 - 1e-6 warns with DegenerateData. When no r
    is feasible (possible only for ME, even on in-box data), on_infeasible
    selects between raising InfeasibleFit ("error") and taking the
    minimax-violation r with a DegenerateData warning ("relax"). A pair's
    entry, warnings and errors are those of the fit of its two columns
    alone; the warnings come in pair order.

    All pairs are fitted in one stage: the feasible intervals of all pairs
    first, then each pair finished on its own. The ellipse's are
    closed-form. A parallelepiped's condition on each sign of r is linear
    in one monotone parameter, so one blocked pass takes each pair's exact
    interval in it; the grid and bisection answers are replayed from those,
    the float test running only at the few points too near a bound, so
    every value has the bits of testing each point on every sample (see
    _mp_intervals).

    "scc" runs three stages. One blocked copy transposes the rows into
    one C-ordered row per column (`_scc_columns`); one `np.dot` per
    column and per pair follows (`_scc_dots`); each pair is then finished
    in pair order (`_scc_value`). Over more than BLOCK_ROWS rows the copy
    and the dots run on the block groups (`map_groups`); every warning
    and error comes from the caller's thread, in pair order. SCC values
    that land exactly at ±1 are pulled to the clamp with a DegenerateData
    warning so assembly stays valid, and a column sitting at its midpoint
    raises ZeroDeviation at its first pair."""
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
        # every column copied, scaled and self-dotted once, not once per pair
        columns = _scc_columns(u)
        dots = _scc_dots(columns, [(k, k) for k in range(n)] + pairs)
        values = []
        for (i, j), dot in zip(pairs, dots[n:]):
            r = _scc_value(dot, dots[i], dots[j])
            if abs(r) >= 1.0:
                warnings.warn(f"SCC of pair ({i}, {j}) is exactly ±1; clamped", DegenerateData)
                r = float(np.sign(r)) * R_CLAMP
            values.append(r)
    return assemble_correlation_matrix(
        [(i, j, r) for (i, j), r in zip(pairs, values)], n, method
    )
