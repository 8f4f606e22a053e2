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
_TIE_TOL = 1e-9
# margin by which a sample must lie inside every polygon edge before the MP fit
# may drop it; why this keeps the fit bit-identical is in _mp_intervals
_HULL_TOL = 1e-9
# most elements a blocked CCC stage holds in one temporary: (r, sample) for
# the parallelepipeds, (sample, pair) for the ellipse. An _mp_feasible block
# holds about ten such temporaries, so this keeps it near 1 MB
_BLOCK = 1 << 14
# grid points per cell of the witness pass; see _witness_pass
_CELL = 25
# directions whose extreme rows are the polygon of _hull_candidates' second stage
_DIRECTIONS = 32


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


def _blocks(begins: np.ndarray, size: int, step: int):
    """Walk a run of size elements cut into segments at begins (sorted,
    from 0, none empty) in blocks of at most step elements; yield each
    block's (lo, hi), the segments a:b it meets, and where each of them
    begins in it."""
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        a = int(np.searchsorted(begins, lo, side="right")) - 1
        b = int(np.searchsorted(begins, hi))
        yield lo, hi, a, b, np.maximum(begins[a:b], lo) - lo


def _mp_feasible(
    terms: tuple[np.ndarray, ...], coords: np.ndarray, first: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """For each of T tests, do all its sample rows lie inside its 2D domain
    |S(r)^-1 u| <= e (with membership tolerance)? Test t reads the counts[t]
    rows of coords (a (2, K) array of u1 and u2) from first[t] on, at the r
    whose _mp_terms are each term's entry t. Returns a (T,) bool array.

    The tests' (r, row) elements go in blocks of at most _BLOCK, and each
    test takes the exact max of its rows' _mp_distance, so neither the
    blocks nor the other tests change any answer: every value is
    elementwise in r and in sample."""
    begins = np.cumsum(counts) - counts
    shift = first - begins
    worst = np.full(len(counts), -np.inf)
    for lo, hi, a, b, cuts in _blocks(begins, int(counts.sum()), _BLOCK):
        lengths = np.diff(cuts, append=hi - lo)
        row = np.arange(lo, hi) + np.repeat(shift[a:b], lengths)
        u1, u2 = coords[0, row], coords[1, row]
        del row
        dist = _mp_distance([np.repeat(t[a:b], lengths) for t in terms], u1, u2)
        part = worst[a:b]
        np.maximum(part, np.maximum.reduceat(dist, cuts), out=part)
    return worst <= 1.0 + MEMBERSHIP_TOL


def _witnesses(terms: tuple[np.ndarray, ...], coords: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """For each of C values of r (terms of shape (C,)) and each pair, the
    index in coords of the pair's first candidate row at the largest
    _mp_distance. Pair p's rows run from starts[p] to the next start; rows
    go in blocks of at most _BLOCK (r, row) elements. Returns (C, P)."""
    c, k = len(terms[0]), coords.shape[1]
    column = [t[:, None] for t in terms]
    best = np.full((c, len(starts)), -np.inf)
    which = np.zeros((c, len(starts)), dtype=np.intp)
    for lo, hi, a, b, cuts in _blocks(starts, k, max(1, _BLOCK // c)):
        dist = _mp_distance(column, coords[0, lo:hi], coords[1, lo:hi])
        top = np.maximum.reduceat(dist, cuts, axis=1)
        reach = dist == np.repeat(top, np.diff(cuts, append=hi - lo), axis=1)
        arg = np.minimum.reduceat(np.where(reach, np.arange(lo, hi), k), cuts, axis=1)
        gain = top > best[:, a:b]
        np.copyto(best[:, a:b], top, where=gain)
        np.copyto(which[:, a:b], arg, where=gain)
    return which


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
    1 - r^2; empty when lo > hi. The per-sample bounds of all pairs are
    taken as columns, in blocks of at most _BLOCK (sample, pair) elements,
    and each pair's lo and hi are the exact max and min of its samples'."""
    first, second = np.array(pairs).T
    lo, hi = np.full(len(pairs), -np.inf), np.full(len(pairs), np.inf)
    rows = min(len(u), _BLOCK)
    step = max(1, _BLOCK // rows)
    for r0 in range(0, len(u), rows):
        block = u[r0 : r0 + rows]
        for p0 in range(0, len(pairs), step):
            u1, u2 = block[:, first[p0 : p0 + step]], block[:, second[p0 : p0 + step]]
            prod = u1 * u2
            half = np.sqrt(np.maximum((1.0 - u1 * u1) * (1.0 - u2 * u2), 0.0))
            part = lo[p0 : p0 + step]
            np.maximum(part, (prod - half).max(axis=0), out=part)
            part = hi[p0 : p0 + step]
            np.minimum(part, (prod + half).min(axis=0), out=part)
    return lo, hi


def _not_inside(x: np.ndarray, y: np.ndarray, directions: int) -> np.ndarray:
    """Which rows may lie on their pair's hull: x and y hold one pair's
    coordinates per line, and a row is dropped (False) only when it lies
    at least _HULL_TOL inside every edge line of its pair's polygon, the
    rows extreme in `directions` evenly spaced directions in order of
    angle. A zero-length edge has a nan normal, which np.fmax skips. So a
    polygon of one point leaves every depth nan, and one with no area
    puts each row on both sides of its edge lines; neither drops a row."""
    angle = 2.0 * np.pi * np.arange(directions) / directions
    cos, sin = np.cos(angle), np.sin(angle)
    pick = np.stack([np.argmax(c * x + s * y, axis=1) for c, s in zip(cos, sin)], axis=1)
    vx, vy = np.take_along_axis(x, pick, 1), np.take_along_axis(y, pick, 1)
    ex, ey = np.roll(vx, -1, axis=1) - vx, np.roll(vy, -1, axis=1) - vy
    with np.errstate(invalid="ignore"):  # 0/0 on a zero-length edge
        length = np.hypot(ex, ey)
        nx, ny = ey / length, -ex / length
    offset = nx * vx + ny * vy
    depth = np.full(x.shape, np.nan)
    for k in range(directions):
        np.fmax(depth, nx[:, k, None] * x + ny[:, k, None] * y - offset[:, k, None], out=depth)
    return ~(depth <= -_HULL_TOL)


def _hull_candidates(u: np.ndarray, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The samples that can bind an MP fit of each column pair of u: a
    (2, K) array of their u1 and u2, pair by pair in the order of pairs and
    rows in the order of u, and each pair's count.

    Pairs go in blocks of at most _BLOCK (pair, row) elements, in two
    stages of _not_inside. The first tests every row against the octagon
    of its pair's extremes along the axes and the diagonals (Akl and
    Toussaint's prefilter); the second tests the rows it keeps against
    the polygon of their extremes in _DIRECTIONS directions, each pair's
    rows padded to the block's longest with copies of its first, which
    are then dropped. A dropped row p has p + _HULL_TOL*B inside a polygon
    whose vertices are kept rows: the vertices go round in order of angle,
    p is left of every directed edge line by _HULL_TOL, so the polygon
    winds around each point of that disc, which thus lies in the hull of
    the kept rows (see _mp_intervals)."""
    first, second = np.array(pairs).T
    columns = np.ascontiguousarray(u.T)
    step = max(1, _BLOCK // len(u))
    kept, counts = [], []
    for p0 in range(0, len(pairs), step):
        x, y = columns[first[p0 : p0 + step]], columns[second[p0 : p0 + step]]
        keep = _not_inside(x, y, 8)
        count = keep.sum(axis=1)
        # each pair's survivors first, in row order; the rest of the
        # longest pair's width repeats the pair's first survivor
        rows = np.argsort(~keep, axis=1, kind="stable")[:, : count.max()]
        pad = np.arange(rows.shape[1]) >= count[:, None]
        rows = np.where(pad, rows[:, :1], rows)
        x, y = np.take_along_axis(x, rows, 1), np.take_along_axis(y, rows, 1)
        keep = _not_inside(x, y, _DIRECTIONS) & ~pad
        kept.append(np.stack([x[keep], y[keep]]))
        counts.append(keep.sum(axis=1))
    return np.concatenate(kept, axis=1), np.concatenate(counts)


def _witness_pass(terms: tuple[np.ndarray, ...], coords: np.ndarray, starts: np.ndarray):
    """The (grid point, pair) tests that the witnesses leave open, as two
    index arrays in pair order, then point order; terms are _mp_terms of
    _GRID, and pair p's candidate rows are the columns of coords from
    starts[p] to the next start.

    The grid is cut into cells of _CELL points, each between two coarse
    points (every _CELL-th grid point). A pair's witnesses are its
    _witnesses at the coarse points, and every grid point is tested on the
    witnesses of its cell's two coarse points, pairs in blocks of at most
    _BLOCK (point, witness) elements. A point where a witness's distance
    exceeds 1 + MEMBERSHIP_TOL is infeasible; every other point stays
    open."""
    coarse = np.arange(0, len(_GRID), _CELL)
    witnesses = _witnesses([t[coarse] for t in terms], coords, starts)
    # cell c holds grid points c*_CELL onward and lies between coarse points
    # c and c + 1; the last cell's tail past the grid repeats its last point
    padded = [t[np.minimum(np.arange(len(coarse) * _CELL), len(_GRID) - 1)] for t in terms]
    upper = np.minimum(np.arange(1, len(coarse) + 1), len(coarse) - 1)
    step = max(1, _BLOCK // padded[0].size)
    points, pairs = [], []
    for p0 in range(0, len(starts), step):
        lower = witnesses[:, p0 : p0 + step].T
        open_ = True
        for rows in (lower, lower[:, upper]):
            # one row per pair, one column per padded grid point
            u1, u2 = (np.repeat(coords[axis, rows], _CELL, axis=1) for axis in (0, 1))
            open_ = open_ & (_mp_distance(padded, u1, u2) <= 1.0 + MEMBERSHIP_TOL)
        pair, point = np.nonzero(open_[:, : len(_GRID)])
        points.append(point)
        pairs.append(pair + p0)
    return np.concatenate(points), np.concatenate(pairs)


def _grid_ends(
    variant: ModelVariant, coords: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The first and last feasible _GRID index of every pair, a (2, P)
    array; pair p's candidate rows are the counts[p] columns of coords
    from starts[p] on. Every (point, pair) that _witness_pass leaves open
    takes the full test, one _mp_feasible call on all of them, each with
    its own r.

    This gives the grid answers of testing every point on every candidate.
    A witness is one of its pair's candidates, and _mp_distance gives its
    distance the bits of the same element inside the full test's exact
    max, which is at least that value. So a point that a witness rules out
    fails the full test too, and every other point takes the full test.
    The choice of witnesses affects only how many points remain."""
    terms = _mp_terms(variant, _GRID)
    point, pair = _witness_pass(terms, coords, starts)
    feasible = _mp_feasible([t[point] for t in terms], coords, starts[pair], counts[pair])
    point, pair = point[feasible], pair[feasible]
    # never empty for a pair: r = 0 is on the grid, S(0) = I, and _ccc_fits
    # admits |u| <= 1 + 1e-9 only
    index = np.arange(len(starts))
    return point[[np.searchsorted(pair, index), np.searchsorted(pair, index, side="right") - 1]]


def _mp_intervals(
    variant: ModelVariant, u: np.ndarray, pairs: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-plus-bisection extremes (r_neg, r_pos) of the MP feasible set
    of every column pair of u, each within the clamp, as two arrays in the
    order of pairs. Feasibility in r need not be one interval, so each
    pair's first and last feasible grid points are bisected toward their
    infeasible outer neighbours; an end at the clamp has no neighbour and
    stays there. The grid is one stage over all pairs (_grid_ends: a
    witness pass, then one full test of the points it leaves open); the
    bisection is one loop for both ends of every pair, each step one
    _mp_feasible call over the stacked candidates of all pairs. Each pair
    gets the grid indices, bisection path and ends it would get alone: its
    tests are its own, and a closed end retests its own feasible r, so it
    does not move.

    The grid and the bisections test only _hull_candidates of each pair;
    the SCC tie-break in _finish_ccc still reads every sample. This returns
    the same bits as testing all of u. For every r, f_r(u) =
    |S(r)^-1 u|_inf is a norm, hence convex, so its maximum over the hull
    H of the kept points is attained at a kept vertex. A dropped point p
    has p + tau*B (tau = _HULL_TOL, B the unit disc) inside a polygon of
    kept extremes, and so inside H (see _hull_candidates). Hence
    p*(1 + tau/|p|) lies in H and f_r(p) <= max_H f_r / (1 + tau/sqrt(2)):
    a relative margin of about 7e-10, since |p| <= sqrt(2) in the unit
    box. Rounding in _mp_distance stays below 1e-13 relative, even at the
    clamp, where |S^-1| reaches about 1e3 (1e6 for MP-I). The test against
    1 + MEMBERSHIP_TOL therefore gives the same answer at every r the fit
    visits, and with it the same grid indices, bisection path and fitted
    r. The polygon edges are computed in floating point, so the guarantee
    rests on the tau margin alone.
    """
    coords, counts = _hull_candidates(u, pairs)
    starts = np.cumsum(counts) - counts
    ends = _grid_ends(variant, coords, starts, counts)
    feas = _GRID[ends]
    # an end at the clamp brackets itself, so it starts closed
    infeas = _GRID[np.clip(ends + [[-1], [1]], 0, len(_GRID) - 1)]
    both_starts, both_counts = np.tile(starts, 2), np.tile(counts, 2)
    for _ in range(64):
        open_ = np.abs(infeas - feas) > _REFINE_TOL
        if not open_.any():
            break
        # a closed end retests its own feasible r, so neither side moves
        mid = np.where(open_, (feas + infeas) / 2.0, feas)
        terms = [t.ravel() for t in _mp_terms(variant, mid)]
        ok = _mp_feasible(terms, coords, both_starts, both_counts).reshape(mid.shape)
        feas = np.where(ok, mid, feas)
        infeas = np.where(ok, infeas, mid)
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
    variant: ModelVariant,
    u: np.ndarray,
    pairs: list[tuple[int, int]],
    on_infeasible: str,
) -> list[float]:
    """The CCC of every column pair of u, in the order of pairs: first the
    feasible r-interval of every pair (_me_intervals or _mp_intervals, all
    pairs together), then each pair finished on its own, warnings and
    errors in pair order."""
    if u.shape[0] < 1:
        raise DimensionMismatch("need at least one sample pair")
    if not np.all(np.abs(u) <= 1.0 + 1e-9):  # also refuses nan
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
    first, then each pair finished on its own. For the ellipse the
    intervals are closed-form, all pairs as columns of one blocked pass.
    For the parallelepipeds one grid stage serves all pairs: a witness
    pass rules out most grid points with one candidate each, and one full
    test settles the rest on all candidates, with the answers of testing
    every point (see _grid_ends); then one bisection runs over all pairs
    together (see _mp_intervals).

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
