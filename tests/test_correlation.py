import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import convexuq as cq
import convexuq.correlation as correlation
from convexuq import ModelVariant as V
from convexuq.correlation import (
    _GAMMA,
    _GRID,
    _GRID_STEP,
    R_CLAMP,
    _REFINE_TOL,
    _mp_intervals,
    _pick_extreme,
    scc,
)
from convexuq.domain import BLOCK_ROWS
from convexuq.errors import (
    DegenerateData,
    DimensionMismatch,
    DuplicatePair,
    InfeasibleFit,
    MissingPair,
    NotPositiveDefinite,
    ZeroDeviation,
)
from convexuq.factorization import core_shape_matrix, shape_matrix
from conftest import DATA
from test_acceptance import GEOTECH_CCC_REF

MP_VARIANTS = [V.MP1, V.MP2, V.RECT, V.LTRI, V.UTRI]


def _shape_2d(variant, r):
    """Closed-form 2x2 shape matrices S(r) of every MP variant: the
    library's, and UTriMP's own, which the library never forms (it fits a
    UTriMP pair as LTriMP on the swapped pair). UTriMP's is the
    independent reference for its fits here."""
    if variant is not V.UTRI:
        return correlation._mp_shape_2d(variant, r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    c = np.sqrt(1.0 - r * r)
    d = c + np.abs(r)
    out = np.empty(r.shape + (2, 2))
    out[..., 0, 0] = c / d
    out[..., 0, 1] = r / d
    out[..., 1, 0] = 0.0
    out[..., 1, 1] = 1.0
    return out


def _pair_ccc(variant, u, **options):
    """The CCC of one pair of regularized columns u: its entry in the
    matrix fit of the two columns alone."""
    return cq.fit_correlation_matrix("ccc", variant, u, **options).entries[0, 1]


def test_scc_hand_value():
    # about midpoints (0, 0), not about sample means
    x = np.array([1.0, -1.0, 2.0])
    y = np.array([2.0, -2.0, 4.0])
    assert scc(x, y) == pytest.approx(1.0)
    assert scc(x, -y) == pytest.approx(-1.0)


def test_scc_uses_midpoint_not_mean():
    x = np.array([0.2, 0.4])
    y = np.array([0.4, 0.2])
    # about the means this pair is perfectly anti-correlated; about the
    # midpoint 0 both products are positive
    assert scc(x, y) == pytest.approx(0.8)
    assert np.corrcoef(x, y)[0, 1] == pytest.approx(-1.0)


def test_scc_zero_deviation():
    with pytest.raises(ZeroDeviation):
        scc(np.zeros(3), np.ones(3))


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        min_size=2,
        max_size=12,
    )
)
# sqrt(a·a · b·b) underflows to 0 here although neither column is zero
@example(pairs=[(0.0, 0.0), (7.94e-150, 7.94e-150)])
# a·a overflows to inf here, and inf/inf is nan
@example(pairs=[(0.0, 0.0), (1e160, 2e160), (-3e159, 1e159)])
def test_scc_bounded(pairs):
    u = np.array(pairs)
    # a column sitting identically at its midpoint has no SCC
    if not np.any(u[:, 0]) or not np.any(u[:, 1]):
        return
    value = scc(u[:, 0], u[:, 1])
    assert -1.0 <= value <= 1.0


@settings(max_examples=60)
@given(st.floats(-0.998, 0.998))
def test_closed_form_shape_matches_factorization(r):
    if abs(r) < 1e-9:
        # below working precision the eigensolver no longer separates the
        # two eigenvectors, so only the exact r = 0 member is canonical
        return
    R = np.array([[1.0, r], [r, 1.0]])
    for variant in MP_VARIANTS:
        generic = shape_matrix(core_shape_matrix(variant, R)).entries
        closed = _shape_2d(variant, np.array([r]))[0]
        np.testing.assert_allclose(closed, generic, atol=1e-12)


def test_shape_at_zero_is_square():
    for variant in MP_VARIANTS:
        np.testing.assert_array_equal(_shape_2d(variant, np.array([0.0]))[0], np.eye(2))


def test_rect_family_discontinuous_at_zero():
    # the limiting member at r -> 0 is the inscribed diamond, not the square
    s_eps = _shape_2d(V.RECT, np.array([1e-9]))[0]
    np.testing.assert_allclose(s_eps, [[0.5, 0.5], [0.5, -0.5]], atol=1e-8)


def _shape_2d_long(variant, r):
    """_mp_shape_2d's entries (a11, a12, a21, a22) in np.longdouble, from
    the same float r."""
    r = r.astype(np.longdouble)
    a, one = np.abs(r), np.longdouble(1.0)
    if variant is V.MP1:
        return one / (one + a), r / (one + a), r / (one + a), one / (one + a)
    if variant is V.MP2:
        sp, sm = np.sqrt(one + r), np.sqrt(one - r)
        p, q = (sp + sm) / 2, (sp - sm) / 2
        d = p + np.abs(q)
        return p / d, q / d, q / d, p / d
    if variant is V.RECT:
        sp, sm = np.sqrt(one + a), np.sqrt(one - a)
        b, c = sp / (sp + sm), sm / (sp + sm)
        return b, c, np.where(r > 0, b, -b), np.where(r > 0, -c, c)
    c = np.sqrt(one - r * r)
    return np.ones_like(r), np.zeros_like(r), r / (a + c), c / (a + c)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended long double")
@pytest.mark.parametrize("variant", [V.MP1, V.MP2, V.RECT, V.LTRI], ids=lambda v: v.value)
def test_mp_distance_rounding_is_within_the_kernel_margin(variant):
    """_mp_distance is within _GAMMA/3 of S(r)^-1 u taken in long double,
    relative, on the grid, its cells' midpoints and bisection-like points
    within 1e-6 of the clamp, for samples on the box's edges and corners
    and on both diagonals: the margin by which the exact kernel's two
    thresholds bracket the float test's. The largest, about 2.7e-10, is
    MP-I's near the clamp, where its adjugate cancels."""
    near = R_CLAMP - np.arange(1, 2001) * 5e-10
    r = np.concatenate([_GRID, (_GRID[1:] + _GRID[:-1]) / 2.0, near, -near])
    r = r[r != 0.0]
    rng = np.random.Generator(np.random.Philox(key=61))
    a = rng.uniform(-1.0, 1.0, 60)
    corners = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, 0.3], [-0.6, 1.0], [1.0, 0.0]]
    u = np.concatenate(
        [rng.uniform(-1.0, 1.0, (60, 2)), np.column_stack([a, a]), np.column_stack([a, -a]), corners]
    )
    u1, u2 = u[:, 0].astype(np.longdouble), u[:, 1].astype(np.longdouble)
    worst = 0.0
    for lo in range(0, len(r), 1000):
        part = r[lo : lo + 1000]
        dist = correlation._mp_distance(
            [t[:, None] for t in correlation._mp_terms(variant, part)], u[:, 0], u[:, 1]
        )
        a11, a12, a21, a22 = (t[:, None] for t in _shape_2d_long(variant, part))
        det = a11 * a22 - a12 * a21
        exact = np.maximum(np.abs((a22 * u1 - a12 * u2) / det), np.abs((a11 * u2 - a21 * u1) / det))
        worst = max(worst, float(np.max(np.abs(dist - exact) / exact)))
    assert worst <= _GAMMA / 3


@pytest.mark.parametrize("variant", [V.MP1, V.MP2, V.RECT, V.LTRI], ids=lambda v: v.value)
def test_mp_distance_is_linear_in_rho(variant):
    """On each side s of r, |S(r)^-1 u|_inf is the form in rho =
    _mp_rho(|r|) that _mp_sample_bounds solves, with x = u1 and v = s*u2."""
    rng = np.random.Generator(np.random.Philox(key=67))
    r = np.concatenate([rng.uniform(-0.999, 0.999, 200), [-R_CLAMP, R_CLAMP]])
    u = rng.uniform(-1.0, 1.0, (200, 2))
    dist = correlation._mp_distance(
        [t[:, None] for t in correlation._mp_terms(variant, r)], u[:, 0], u[:, 1]
    )
    rho = correlation._mp_rho(variant, r)[:, None]
    x, v = u[:, 0], np.sign(r)[:, None] * u[:, 1]
    if variant is V.RECT:
        sigma = 1.0 / rho
        form = np.maximum(np.abs(x + v) * (1 + sigma) / 2, np.abs(x - v) * (1 + sigma) / (2 * sigma))
    elif variant is V.LTRI:
        form = np.maximum(np.abs(x), np.abs(v + rho * (v - x)))
    else:
        form = np.maximum(np.abs(x - rho * v), np.abs(v - rho * x)) / (1 - rho)
    np.testing.assert_allclose(dist, form, rtol=1e-9)


def test_rect_fit_keeps_the_grid_semantics():
    """RectMP's r > 0 side of _RECT_ISLAND is feasible on [0.8164, 0.8166]
    only, between two grid points, and beam's pairs admit only r = 0: the
    fit is the grid's answer, r = 0, in both."""
    r = np.array([0.816, 0.8164, 0.8165, 0.8166, 0.817])
    feasible = _full_set_feasible(V.RECT, r, _RECT_ISLAND)
    assert feasible.tolist() == [False, True, True, True, False]
    assert _pair_ccc(V.RECT, _RECT_ISLAND) == 0.0
    R = cq.fit_correlation_matrix("ccc", V.RECT, _BEAM)
    assert np.array_equal(R.entries, np.eye(3))


def _full_set_feasible(variant, r, u):
    """For each r, do all sample rows u lie inside the variant's 2D domain
    |S(r)^-1 u| <= e (with membership tolerance)? Every sample, one (G, N)
    array per 64 values of r: the reference for the library's blocked,
    batched test."""
    worst = []
    for lo in range(0, len(r), 64):
        shapes = _shape_2d(variant, r[lo : lo + 64])
        a11, a12 = shapes[..., 0, 0], shapes[..., 0, 1]
        a21, a22 = shapes[..., 1, 0], shapes[..., 1, 1]
        det = a11 * a22 - a12 * a21
        u1, u2 = u[:, 0], u[:, 1]
        d1 = (a22[:, None] * u1 - a12[:, None] * u2) / det[:, None]
        d2 = (-a21[:, None] * u1 + a11[:, None] * u2) / det[:, None]
        worst.append(np.maximum(np.abs(d1), np.abs(d2)).max(axis=1))
    return np.concatenate(worst) <= 1.0 + correlation.MEMBERSHIP_TOL


def _me_values(r, u):
    R = np.array([[1.0, r], [r, 1.0]])
    return np.einsum("ij,jk,ik->i", u, np.linalg.inv(R), u)


def _me_feasible(r, u):
    return np.all(_me_values(r, u) <= 1.0 + 1e-9)


def test_me_ccc_matches_grid_oracle():
    # random box data is often infeasible for the ellipse family; the fit
    # and the brute-force grid must agree on that too
    rng = np.random.Generator(np.random.Philox(key=11))
    feasible_cases = 0
    for _ in range(20):
        u = rng.uniform(-0.9, 0.9, size=(8, 2))
        grid = np.linspace(-0.999, 0.999, 1999)
        feasible = [r for r in grid if _me_feasible(r, u)]
        try:
            fitted = _pair_ccc(V.ME, u)
        except InfeasibleFit:
            assert not feasible
            continue
        feasible_cases += 1
        assert feasible, "oracle found nothing but the fit succeeded"
        oracle = max(feasible, key=abs)
        assert fitted == pytest.approx(oracle, abs=2e-3)
        assert abs(fitted) >= abs(oracle) - 1e-12
    assert feasible_cases >= 3


@pytest.mark.parametrize("variant", MP_VARIANTS, ids=lambda v: v.value)
def test_mp_ccc_is_feasible_extreme(variant):
    rng = np.random.Generator(np.random.Philox(key=13))
    for _ in range(6):
        u = rng.uniform(-0.92, 0.92, size=(10, 2))
        fitted = _pair_ccc(variant, u)
        assert bool(_full_set_feasible(variant, np.array([fitted]), u)[0])
        if fitted != 0.0 and abs(fitted) < R_CLAMP - 1e-3:
            stepped = fitted + np.sign(fitted) * 2e-3
            assert not bool(_full_set_feasible(variant, np.array([stepped]), u)[0])


def test_me_ccc_is_feasible_extreme():
    # correlated, off-corner data keeps the ellipse family feasible
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(6):
        z1 = rng.standard_normal(10)
        z2 = 0.7 * z1 + 0.3 * rng.standard_normal(10)
        u = np.clip(np.column_stack([z1, z2]) / 3.0, -0.85, 0.85)
        fitted = _pair_ccc(V.ME, u)
        assert _me_feasible(fitted, u)
        if fitted != 0.0 and abs(fitted) < R_CLAMP - 1e-3:
            assert not _me_feasible(fitted + np.sign(fitted) * 2e-3, u)


def test_ccc_tie_breaks_with_scc_sign():
    # mirror-symmetric data: both one-sided extremes have equal magnitude,
    # the sample correlation sign decides
    u = np.array([[0.6, 0.55], [-0.6, -0.55], [0.2, 0.1], [-0.2, -0.1]])
    for variant in MP_VARIANTS:
        r_pos = _pair_ccc(variant, u)
        r_neg = _pair_ccc(variant, u * np.array([1.0, -1.0]))
        assert r_pos > 0
        assert r_neg < 0
        assert r_pos == pytest.approx(-r_neg, abs=1e-9)


def _refine_boundary(variant, u, r_feas, r_infeas):
    """Bisect one end of the feasible set between a feasible and an
    infeasible r, one r per call; returns the feasible end."""
    for _ in range(64):
        if abs(r_infeas - r_feas) <= _REFINE_TOL:
            break
        mid = (r_feas + r_infeas) / 2.0
        if bool(_full_set_feasible(variant, np.array([mid]), u)[0]):
            r_feas = mid
        else:
            r_infeas = mid
    return r_feas


def _full_set_mp_interval(variant, u):
    """The MP feasible interval (r_neg, r_pos) found on every sample, one
    end at a time: the grid, then a bisection for each end not at the
    clamp, without the hull reduction."""
    steps = int((R_CLAMP - _GRID_STEP / 2) / _GRID_STEP)
    grid = np.concatenate(([-R_CLAMP], np.arange(-steps, steps + 1) * _GRID_STEP, [R_CLAMP]))
    idx = np.flatnonzero(_full_set_feasible(variant, grid, u))
    i_hi, i_lo = int(idx[-1]), int(idx[0])
    if i_hi == len(grid) - 1:
        r_pos = R_CLAMP
    else:
        r_pos = _refine_boundary(variant, u, float(grid[i_hi]), float(grid[i_hi + 1]))
    if i_lo == 0:
        r_neg = -R_CLAMP
    else:
        r_neg = _refine_boundary(variant, u, float(grid[i_lo]), float(grid[i_lo - 1]))
    return r_neg, r_pos


@st.composite
def _mp_fit_samples(draw):
    """In-box sample pairs of the shapes that stress a hull: uniform,
    lattice (integer-valued data), collinear, on the box edges, at the
    corners, and with duplicates."""
    kind = draw(st.sampled_from(["uniform", "lattice", "collinear", "edge", "corner", "duplicate"]))
    size = draw(st.integers(1, 40))
    coord = st.floats(-1, 1)
    if kind == "uniform":
        return np.array(draw(st.lists(st.tuples(coord, coord), min_size=size, max_size=size)))
    if kind == "lattice":
        step = draw(st.sampled_from([1.0, 0.5, 0.25, 0.1]))
        cells = int(round(1.0 / step))
        ints = draw(st.lists(st.tuples(st.integers(-cells, cells), st.integers(-cells, cells)),
                             min_size=size, max_size=size))
        return np.array(ints, dtype=float) * step
    if kind == "collinear":
        t = np.array(draw(st.lists(coord, min_size=size, max_size=size)))
        slope, shift = draw(st.floats(-1, 1)), draw(st.floats(-0.5, 0.5))
        return np.column_stack([t, np.clip(slope * t + shift, -1.0, 1.0)])
    if kind == "edge":
        u = np.array(draw(st.lists(st.tuples(coord, coord), min_size=size, max_size=size)))
        pins = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-1.0, 1.0])),
                             min_size=size, max_size=size))
        for row, (axis, side) in enumerate(pins):
            if axis < 2:
                u[row, axis] = side
        return u
    if kind == "corner":
        corners = draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
                                min_size=1, max_size=4))
        inner = draw(st.lists(st.tuples(coord, coord), max_size=size))
        return np.array(corners + inner)
    base = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=max(1, size // 2)))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=size, max_size=size))
    return np.array(base)[picks]


def _copula(key, size, loads):
    """Seeded in-box samples with one common Gaussian factor, as the
    benchmark's wide sets draw them: column j loads loads[j] on it."""
    rng = np.random.Generator(np.random.Philox(key=key))
    loads = np.asarray(loads)
    z = rng.standard_normal((size, 1)) * loads + rng.standard_normal((size, len(loads))) * np.sqrt(
        1.0 - loads**2
    )
    return 2.0 * ndtr(z) - 1.0


def _rect_island(r_lo, r_hi):
    """Two samples confining RectMP's r > 0 side to [r_lo, r_hi]: in rho =
    sqrt((1 + r)/(1 - r)), the first bounds it below and the second above."""
    rho_lo, rho_hi = (np.sqrt((1.0 + r) / (1.0 - r)) for r in (r_lo, r_hi))
    a, b = rho_lo / (1.0 + rho_lo), 1.0 / (1.0 + rho_hi)
    return np.array([[a, a], [b, -b]])


_RECT_ISLAND = _rect_island(0.8164, 0.8166)
_BEAM = cq.regularize(
    cq.read_intervals_csv(DATA / "beam_intervals.csv"),
    cq.read_samples_csv(DATA / "beam_samples.csv"),
).rows


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(MP_VARIANTS), u=_mp_fit_samples())
# copula pairs where only a few grid points are feasible
@example(variant=V.MP2, u=_copula(31, 200, [0.6, -0.4]))
@example(variant=V.MP1, u=_copula(32, 200, [0.9, 0.9]))
@example(variant=V.RECT, u=_copula(33, 2000, [0.5, 0.3]))
@example(variant=V.LTRI, u=_copula(34, 2000, [-0.9, 0.7]))
@example(variant=V.UTRI, u=_copula(35, 2000, [0.2, 0.0]))
@example(variant=V.MP2, u=np.array([[0.4, -0.3]]))
@example(variant=V.RECT, u=np.array([[0.4, -0.3], [-0.2, 0.7]]))
@example(variant=V.LTRI, u=np.array([[1.0, 1.0], [-1.0, -1.0], [0.3, 0.3], [0.1, 0.2]]))
# r_pos at the clamp while r_neg is bisected (to 0.0)
@example(variant=V.RECT, u=np.array([[0.5, 0.5], [-0.3, -0.3], [0.9, 0.9]]))
# only r = 0 is feasible: both ends bisect inward
@example(variant=V.MP2, u=np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
# both ends at the clamp: no bisection
@example(variant=V.UTRI, u=np.array([[0.0, 0.0]]))
# a corner in the slack band beyond 1: every r > 0 grid point takes the
# float test
@example(variant=V.MP1, u=np.array([[1.0 + 5e-10, 1.0 + 5e-10], [0.2, -0.1]]))
# one bisection point of each lies too near a bound for the exact kernel,
# so the float test settles it
@example(variant=V.MP2, u=np.array([[0.23, -0.23], [0.99, 0.96]]))
@example(variant=V.LTRI, u=np.array([[-0.51, -0.72], [0.34, 0.43]]))
# r > 0 feasible on [0.8164, 0.8166] only, between two grid points: the
# grid sees no feasible point there, so r_pos is 0
@example(variant=V.RECT, u=_RECT_ISLAND)
# beam: RectMP's only feasible r on every pair is 0
@example(variant=V.RECT, u=_BEAM[:, [0, 1]])
@example(variant=V.RECT, u=_BEAM[:, [0, 2]])
@example(variant=V.RECT, u=_BEAM[:, [1, 2]])
def test_mp_ccc_exact_bounds_replay_is_bit_identical(variant, u):
    """The grid and both ends' bisections replayed from the exact
    per-sample bounds, with the float test only where they cannot settle
    a point, give the bits of the whole grid and each end bisected on its
    own, every point tested on every sample."""
    r_neg, r_pos = _full_set_mp_interval(variant, u)
    # the matrix fit runs a UTriMP pair (i, j) as LTriMP on (j, i)
    fitted, pair = (V.LTRI, [(1, 0)]) if variant is V.UTRI else (variant, [(0, 1)])
    assert [a.tolist() for a in _mp_intervals(fitted, u, pair)] == [[r_neg], [r_pos]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateData)
        assert _pair_ccc(variant, u) == _pick_extreme(r_neg, r_pos, u)


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from([V.MP1, V.MP2, V.RECT, V.LTRI]), u=_mp_fit_samples())
@example(variant=V.RECT, u=_RECT_ISLAND)
@example(variant=V.MP1, u=np.array([[1.0, 1.0], [-1.0, -1.0], [0.5, 0.4]]))
@example(variant=V.LTRI, u=np.array([[1.0, -1.0], [1.0, 1.0], [0.0, -1.0]]))
# entries in the slack band beyond 1: no inner interval
@example(variant=V.MP2, u=np.array([[1.0 + 5e-10, 0.3], [-0.2, -1.0 - 1e-9]]))
def test_mp_bounds_settle_points_as_the_float_test_does(variant, u):
    """On the grid and a denser scan, every r whose rho lies inside its
    side's inner interval (less the slack) passes the float test on all
    samples, and every r outside the outer interval fails it."""
    index = np.array([0])
    lo, hi = correlation._mp_bounds(variant, u, index, index + 1)
    r = np.concatenate([_GRID, np.linspace(-R_CLAMP, R_CLAMP, 6007)])
    r = r[r != 0.0]
    rho, side = correlation._mp_rho(variant, r), (r > 0).astype(int)
    slack = correlation._SLACK
    inner = (lo[0, side, 0] * (1 + slack) <= rho) & (rho <= hi[0, side, 0] * (1 - slack))
    outer = (lo[1, side, 0] * (1 - slack) <= rho) & (rho <= hi[1, side, 0] * (1 + slack))
    feasible = _full_set_feasible(variant, r, u)
    assert feasible[inner].all()
    assert not feasible[~outer].any()


@st.composite
def _mp_fit_matrices(draw):
    """Sample matrices whose column pairs mix hull sizes: uniform columns,
    lattice columns on {-1, 0, 1} (two of them holding all four corners
    admit only r = 0), columns linear in an earlier one (no 2-D hull) and
    signed copies of an earlier one (an end at the clamp)."""
    n, size = draw(st.integers(2, 6)), draw(st.integers(1, 30))
    columns = []
    for j in range(n):
        kind = draw(st.sampled_from(["uniform", "lattice"] + ["linear", "copy"] * (j > 0)))
        if kind == "uniform":
            column = draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
        elif kind == "lattice":
            level = st.sampled_from([-1.0, 0.0, 1.0])
            column = draw(st.lists(level, min_size=size, max_size=size))
        elif kind == "linear":
            slope, shift = draw(st.floats(-1, 1)), draw(st.floats(-0.5, 0.5))
            column = np.clip(slope * columns[draw(st.integers(0, j - 1))] + shift, -1.0, 1.0)
        else:
            column = draw(st.sampled_from([1.0, -1.0])) * columns[draw(st.integers(0, j - 1))]
        columns.append(np.array(column, dtype=float))
    return np.column_stack(columns)


_MIXED = np.array(
    [
        # x0, x1 hold the four corners: only r = 0 for that pair;
        # x2 = x0 (r_pos at the clamp); x3 linear in x1 (no 2-D hull)
        [-1.0, -1.0, -1.0, -0.4, 0.31],
        [1.0, -1.0, 1.0, -0.4, -0.72],
        [-1.0, 1.0, -1.0, 0.6, 0.05],
        [1.0, 1.0, 1.0, 0.6, 0.66],
        [0.2, 0.5, 0.2, 0.35, -0.18],
        [-0.3, 0.1, -0.3, 0.15, 0.93],
    ]
)


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(MP_VARIANTS), u=_mp_fit_matrices())
@example(variant=V.MP2, u=_MIXED)
@example(variant=V.RECT, u=_MIXED)
@example(variant=V.MP1, u=_MIXED[:1])
@example(variant=V.LTRI, u=_MIXED[:, ::-1])
def test_matrix_fit_is_the_pairwise_fit(variant, u):
    """Every entry of the one-stage matrix fit is _pick_extreme of the
    one-end-at-a-time reference on all samples of its pair, and the
    matrix warns as the fit of each pair alone does, in pair order."""
    R, messages = _warning_messages(lambda: cq.fit_correlation_matrix("ccc", variant, u))
    expected = []
    for i in range(u.shape[1]):
        for j in range(i + 1, u.shape[1]):
            pair = u[:, (i, j)]
            reference = _pick_extreme(*_full_set_mp_interval(variant, pair), pair)
            assert R.entries[i, j].hex() == float(reference).hex()
            expected += _warning_messages(lambda: _pair_ccc(variant, pair))[1]
    assert messages == expected


def _assert_utri_is_reversed_ltri(u):
    """The UTriMP fit of u has the bits and warnings of the LTriMP fit of
    u's columns in reverse order, read back in reverse."""
    upper, up = _warning_messages(lambda: cq.fit_correlation_matrix("ccc", V.UTRI, u))
    lower, low = _warning_messages(lambda: cq.fit_correlation_matrix("ccc", V.LTRI, u[:, ::-1]))
    assert upper.entries.tobytes() == lower.entries[::-1, ::-1].tobytes()
    assert sorted(up) == sorted(low)


@pytest.mark.parametrize("name", ["standard", "beam", "geotech"])
def test_utri_fit_is_the_reversed_ltri_fit_on_bundled_sets(name, data_dir):
    spec = cq.read_intervals_csv(data_dir / f"{name}_intervals.csv")
    samples = cq.read_samples_csv(data_dir / f"{name}_samples.csv")
    _assert_utri_is_reversed_ltri(cq.regularize(spec, samples).rows)


@settings(max_examples=60, deadline=None)
@given(u=_mp_fit_matrices())
@example(u=_MIXED)
def test_utri_fit_is_the_reversed_ltri_fit(u):
    """UTriMP's pair shape is LTriMP's with rows and columns swapped, and
    the matrix fit reads it so; the UTriMP closed form above checks the
    fitted values themselves."""
    _assert_utri_is_reversed_ltri(u)


def _fit_work(variant, u, monkeypatch):
    """Work counts of one matrix fit: the steps of its bisection and the
    (pair, r) tests they make (every _mp_rho call but the first, which is
    the grid's), and the calls of the float fallback with the tests they
    carry."""
    work = {"steps": 0, "bisection": 0, "calls": 0, "fallback": 0}
    rho, feasible = correlation._mp_rho, correlation._mp_feasible
    grid_seen = []

    def counted_rho(variant, r):
        if grid_seen:
            work["steps"] += 1
            work["bisection"] += np.size(r)
        grid_seen.append(True)
        return rho(variant, r)

    def counted_feasible(terms, columns, first, second):
        work["calls"] += 1
        work["fallback"] += len(first)
        return feasible(terms, columns, first, second)

    with monkeypatch.context() as patch:
        patch.setattr(correlation, "_mp_rho", counted_rho)
        patch.setattr(correlation, "_mp_feasible", counted_feasible)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateData)
            cq.fit_correlation_matrix("ccc", variant, u)
    return work


def _me_interval(u):
    """The closed-form ME interval of one pair, its samples in one 1-D pass."""
    u1, u2 = u[:, 0], u[:, 1]
    prod = u1 * u2
    half = np.sqrt(np.maximum((1.0 - u1 * u1) * (1.0 - u2 * u2), 0.0))
    return float(np.max(prod - half)), float(np.min(prod + half))


@settings(max_examples=60, deadline=None)
@given(u=_mp_fit_matrices())
@example(u=_MIXED)
# rows ±e_k or 0: every pair's interval is [±0, ±0], and the rows span
# more than one block
@example(u=np.eye(4)[np.random.Generator(np.random.Philox(key=41)).integers(0, 4, 40000), :3]
         * np.random.Generator(np.random.Philox(key=43)).choice([-1.0, 1.0], size=(40000, 1)))
def test_me_matrix_intervals_are_the_pairwise_closed_form(u):
    """All pairs' ME intervals taken as blocked columns have the bits of
    each pair's own 1-D pass, and so does every matrix entry."""
    n = u.shape[1]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lo, hi = correlation._me_intervals(u, pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateData)
        R = cq.fit_correlation_matrix("ccc", V.ME, u, on_infeasible="relax")
        for k, pair in enumerate(pairs):
            interval = _me_interval(u[:, pair])
            assert (lo[k].hex(), hi[k].hex()) == tuple(float(x).hex() for x in interval)
            entry = correlation._finish_ccc(*interval, u[:, pair], "relax")
            assert R.entries[pair].hex() == entry.hex()


@pytest.mark.parametrize("variant", MP_VARIANTS, ids=lambda v: v.value)
def test_mp_matrix_fit_work_does_not_grow_with_pairs(variant, monkeypatch):
    """The exact kernel settles nearly every point: the float fallback
    carries at most 2% of the bisection's (pair, r) tests, in at most one
    call for the grid and one per bisection step, so its calls stay within
    1 + 64 for 6 pairs, 28 or 435."""
    rng = np.random.Generator(np.random.Philox(key=19))
    wider = rng.uniform(-0.95, 0.95, size=(40, 8))
    small = _fit_work(variant, wider[:, :4], monkeypatch)
    large = _fit_work(variant, wider, monkeypatch)
    loads = np.random.Generator(np.random.Philox(key=29)).uniform(-0.9, 0.9, size=30)
    wide = _fit_work(variant, _copula(29, 200, loads), monkeypatch)
    for work in (small, large, wide):
        assert work["calls"] <= 1 + work["steps"] <= 1 + 64
        assert work["fallback"] <= 0.02 * work["bisection"]


def _peak_bytes(fit):
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mp_fit_memory_is_bounded_without_a_2d_hull():
    """A collinear pair: the exact kernel holds a few blocks of at most
    _BLOCK elements, so at N = 400,000 its peak is below one N-long array
    (3.2 MB), and a fit and a matrix at N = 5000 stay linear in N, far
    from a 2001 x N grid (80 MB)."""
    rng = np.random.Generator(np.random.Philox(key=23))
    t = rng.uniform(-1.0, 1.0, size=400_000)
    collinear = np.column_stack([t, 0.5 * t + 0.25])
    index = np.array([0])
    lo, hi = correlation._mp_bounds(V.MP2, collinear, index, index + 1)
    assert np.all(lo <= hi)
    assert _peak_bytes(lambda: correlation._mp_bounds(V.MP2, collinear, index, index + 1)) < 2e6
    assert _peak_bytes(lambda: _pair_ccc(V.MP2, collinear[:5000])) < 2e6
    u = np.column_stack([collinear[:5000], rng.uniform(-1.0, 1.0, size=(5000, 2))])
    assert _peak_bytes(lambda: cq.fit_correlation_matrix("ccc", V.MP2, u)) < 2e6


def test_wide_mp_fit_memory_is_bounded():
    """A generic wide fit, 435 pairs of 200 samples, holds a few blocks of
    the exact kernel at a time, not a grid per pair."""
    loads = np.random.Generator(np.random.Philox(key=29)).uniform(-0.5, 0.5, size=30)
    u = _copula(29, 200, loads)
    assert _peak_bytes(lambda: cq.fit_correlation_matrix("ccc", V.MP2, u)) < 3e6


def test_me_infeasible_raises_with_gap():
    u = np.array([[0.99, -0.99], [0.99, 0.99]])
    with pytest.raises(InfeasibleFit) as exc:
        _pair_ccc(V.ME, u)
    assert exc.value.gap is not None and exc.value.gap > 0


def test_geotech_pair_45_admits_no_ellipse(geotech_spec, geotech_samples):
    # an ellipsoid with exact marginals encloses u_k only if R >= u_k u_k^T,
    # and so only if every 2x2 principal block does: with no feasible
    # coefficient for (x4, x5) no unit-diagonal R encloses all ten samples
    u = cq.regularize(geotech_spec, geotech_samples).rows[:, (3, 4)]
    with pytest.raises(InfeasibleFit) as exc:
        _pair_ccc(V.ME, u)
    assert exc.value.gap == pytest.approx(0.00146, abs=1e-5)
    # the published (4,5) entry repeats its (3,6) entry and misses most samples
    assert np.sum(_me_values(GEOTECH_CCC_REF[3, 4], u) <= 1.0 + 1e-9) <= 3


def test_me_infeasible_relax_returns_midpoint():
    u = np.array([[0.99, -0.99], [0.99, 0.99]])
    with pytest.warns(DegenerateData):
        relaxed = _pair_ccc(V.ME, u, on_infeasible="relax")
    # symmetric violation above/below zero
    assert relaxed == pytest.approx(0.0, abs=1e-9)


def test_ccc_clamp_warns():
    # a single diagonal pair supports correlation arbitrarily close to 1
    u = np.array([[0.5, 0.5], [-0.5, -0.5]])
    with pytest.warns(DegenerateData):
        fitted = _pair_ccc(V.ME, u)
    assert fitted == pytest.approx(R_CLAMP)


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_ccc_fit_refuses_nan(variant):
    """nan fails the [-1, 1] box check instead of passing it: ME would
    return nan, and the MP fits would test nan as a sample."""
    u = np.array([[np.nan, 0.2], [0.3, 0.1], [-0.5, 0.4]])
    with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
        _pair_ccc(variant, u)


@pytest.mark.parametrize("variant", [None, "me", "mp2"])
def test_ccc_fit_refuses_a_variant_that_is_not_a_model_variant(variant):
    u = np.array([[0.3, 0.1], [-0.5, 0.4], [0.2, -0.6]])
    # a lone column has no pair to fit and is refused all the same
    for columns in (u, u[:, :1]):
        with pytest.raises(ValueError, match=f"variant must be a ModelVariant, got {variant!r}"):
            cq.fit_correlation_matrix("ccc", variant, columns)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_fit_matrix_checks_options_before_any_work(n):
    """method, variant and on_infeasible are refused at every n, even on
    rows that are not 2-D."""
    u = np.full((4, n), 0.5)
    for rows in (u, u.ravel()):
        with pytest.raises(ValueError, match="method must be 'ccc' or 'scc', got 'pearson'"):
            cq.fit_correlation_matrix("pearson", V.MP2, rows)
        with pytest.raises(ValueError, match="on_infeasible must be 'error' or 'relax'"):
            cq.fit_correlation_matrix("scc", None, rows, on_infeasible="bogus")
        with pytest.raises(ValueError, match="on_infeasible must be 'error' or 'relax'"):
            cq.fit_correlation_matrix("ccc", V.ME, rows, on_infeasible="bogus")


def test_fit_matrix_refuses_out_of_box_entry_before_any_pair():
    """The box check covers every column before the first pair is fitted,
    so pair (0, 1), which would warn at the clamp, does not."""
    u = np.array([[0.5, 0.5, 0.2], [-0.3, -0.3, 1.5], [0.9, 0.9, -0.1]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
            cq.fit_correlation_matrix("ccc", V.MP2, u)
    assert not caught


def _warning_messages(fit):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateData)
        value = fit()
    return value, [str(w.message) for w in caught]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ccc_interval_beyond_clamp_warns_once(sign):
    """Row (1, ±1) pins the ellipse feasible interval to r = ±1, beyond the
    clamp: the fit returns ±R_CLAMP and warns exactly once."""
    u = np.array([[1.0, 1.0], [0.5, 0.5]]) * np.array([1.0, sign])
    value, messages = _warning_messages(lambda: _pair_ccc(V.ME, u))
    assert value == sign * R_CLAMP
    assert messages == ["fit clamped at |r| = 1 - 1e-6"]


def test_scc_of_exactly_one_is_clamped():
    u = np.array([[0.5, 0.25], [-0.8, -0.4], [0.2, 0.1]])
    R, messages = _warning_messages(lambda: cq.fit_correlation_matrix("scc", None, u))
    assert R.entries[0, 1] == R.entries[1, 0] == R_CLAMP
    assert messages == ["SCC of pair (0, 1) is exactly ±1; clamped"]


def test_assemble_checks_pairs():
    with pytest.raises(MissingPair):
        cq.assemble_correlation_matrix([(0, 1, 0.5)], 3, "scc")
    with pytest.raises(DuplicatePair):
        cq.assemble_correlation_matrix(
            [(0, 1, 0.5), (0, 1, 0.4), (0, 2, 0.1), (1, 2, 0.2)], 3, "scc"
        )


def test_ensure_pd_strict_raises():
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    R = cq.CorrelationMatrix(entries=bad, method="scc")
    assert R.lambda_min < 0
    with pytest.raises(NotPositiveDefinite):
        cq.ensure_positive_definite(R, policy="strict")


def test_ensure_pd_repair_restores():
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    R = cq.CorrelationMatrix(entries=bad, method="scc")
    fixed = cq.ensure_positive_definite(R, policy="repair")
    assert fixed.lambda_min >= 1e-8 * (1 - 1e-12)
    np.testing.assert_array_equal(np.diag(fixed.entries), np.ones(3))
    assert fixed.repair is not None
    assert fixed.repair.lambda_min_before == pytest.approx(R.lambda_min)
    assert fixed.repair.max_entry_change > 0


def test_ensure_pd_leaves_good_matrix_alone():
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    R = cq.CorrelationMatrix(entries=good, method="scc")
    out = cq.ensure_positive_definite(R, policy="repair")
    assert out is R


def test_pd_check_and_build_share_one_eigendecomposition(monkeypatch):
    R = cq.CorrelationMatrix(entries=np.array([[1.0, 0.3], [0.3, 1.0]]), method="scc")
    spec = cq.make_marginal_spec([("a", 0.0, 1.0), ("b", 0.0, 1.0)])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    cq.build_model(V.ME, spec, cq.ensure_positive_definite(R))
    assert len(calls) == 1


def test_fit_matrix_scc_matches_manual(standard_u):
    R = cq.fit_correlation_matrix("scc", None, standard_u)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert R.entries[i, j] == 1.0
            else:
                assert R.entries[i, j] == scc(standard_u[:, i], standard_u[:, j])


_SCC_COLUMNS = st.integers(2, 12).flatmap(
    lambda rows: st.lists(
        st.lists(st.floats(-1, 1), min_size=rows, max_size=rows), min_size=2, max_size=6
    )
)


@settings(max_examples=80)
@given(_SCC_COLUMNS)
# the columns of test_scc_bounded's examples, which take the _scaled path
@example(
    columns=[
        [0.0, 7.94e-150, 0.5],
        [0.0, 7.94e-150, -0.25],
        [0.0, 1e160, -3e159],
        [0.0, 2e160, 1e159],
    ]
)
def test_fit_matrix_scc_is_pairwise_scc(columns):
    """Each column is scaled and self-dotted once for the whole matrix, and
    every entry is still scc of its two columns, bit for bit (or its clamp)."""
    u = np.array(columns).T
    if not np.all(np.any(u, axis=0)):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateData)
        R = cq.fit_correlation_matrix("scc", None, u)
    for i in range(u.shape[1]):
        for j in range(i + 1, u.shape[1]):
            value = scc(u[:, i], u[:, j])
            if abs(value) >= 1.0:
                value = np.sign(value) * R_CLAMP
            assert R.entries[i, j] == R.entries[j, i] == value


def test_fit_matrix_scc_edges():
    # no pair: a single column, even one at its midpoint, is [[1.0]]
    for rows in (np.zeros((5, 1)), np.zeros((1, 1))):
        assert cq.fit_correlation_matrix("scc", None, rows).entries.tolist() == [[1.0]]
    for rows in (np.zeros((1, 3)), np.zeros((0, 2))):
        with pytest.raises(DimensionMismatch, match="need at least 2 samples"):
            cq.fit_correlation_matrix("scc", None, rows)
    u = np.array([[0.5, 0.0, 0.1], [-0.2, 0.0, 0.3], [0.4, 0.0, -0.6]])
    with pytest.raises(ZeroDeviation):
        cq.fit_correlation_matrix("scc", None, u)


# row counts around the SCC fit's blocks, and the thread counts it runs on
SCC_ROWS = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 17)
THREAD_COUNTS = (1, 2, 3, 7)


def _scc_oracle(u):
    """fit_correlation_matrix("scc") as one transposing copy of u, each
    column scaled where its largest magnitude lies outside [1e-50, 1e50],
    and `@` for every self dot and pair dot: the reference that the
    blocked, threaded fit must reproduce bit for bit."""
    columns = []
    for x in np.ascontiguousarray(u.T):
        peak = max(float(x.max()), -float(x.min()))
        a = x / peak if peak > 0.0 and not 1e-50 <= peak <= 1e50 else x
        columns.append((a, float(a @ a)))
    n = u.shape[1]
    R = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            (a, norm_a), (b, norm_b) = columns[i], columns[j]
            R[i, j] = R[j, i] = np.clip(float(a @ b) / np.sqrt(norm_a * norm_b), -1.0, 1.0)
    return R


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("rows", SCC_ROWS)
def test_scc_fit_has_the_bits_of_one_pass_on_any_thread_count(thread_count, rows, layout):
    """C, F and strided rows give the oracle's bits on 1, 2, 3 and 7
    threads, with two columns on the scaled path, and every entry is scc's
    bits on its two columns."""
    wide = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 14))
    wide[:, 2] *= 1e-60
    wide[:, 8] *= 1e70
    u = {
        "C": np.ascontiguousarray(wide[:, :7]),
        "F": np.asfortranarray(wide[:, :7]),
        "strided": wide[:, ::2],
    }[layout]
    expected = _scc_oracle(u)
    for threads in THREAD_COUNTS:
        thread_count(threads)
        R = cq.fit_correlation_matrix("scc", None, u).entries
        np.testing.assert_array_equal(R, expected, err_msg=f"{threads} threads")
        assert R[2, 4] == scc(u[:, 2], u[:, 4])


def test_scc_fit_warns_then_raises_in_pair_order(thread_count):
    """Over more than one block, on 1, 2, 3 and 7 threads: the ±1 clamp
    warning of pair (0, 1) comes first, then ZeroDeviation at pair (0, 2),
    the zero column's first pair, and no warning of a later pair."""
    x = np.random.default_rng(3).uniform(-1.0, 1.0, 3 * BLOCK_ROWS + 17)
    u = np.column_stack([x, -2.0 * x, np.zeros_like(x), np.ones_like(x)])
    for threads in THREAD_COUNTS:
        thread_count(threads)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ZeroDeviation):
                cq.fit_correlation_matrix("scc", None, u)
        assert [str(w.message) for w in caught] == [
            "SCC of pair (0, 1) is exactly ±1; clamped"
        ], threads


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("rows", (5, 3 * BLOCK_ROWS + 17))
def test_scc_fit_refuses_nonfinite_entries(thread_count, rows, value):
    """A non-finite entry raises ValueError naming the first one, also
    where a later group holds another, before any pair and without a
    warning, on 1, 2, 3 and 7 threads; scc refuses one as well."""
    u = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 4))
    u[rows // 3, 3] = value
    u[rows - 1, 0] = np.nan
    for threads in THREAD_COUNTS:
        thread_count(threads)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"entry \({rows // 3}, 3\) is {value}"):
                cq.fit_correlation_matrix("scc", None, u)
            with pytest.raises(ValueError, match="scc needs finite entries"):
                scc(u[:, 0], u[:, 1])


def test_scc_fit_starts_no_thread_within_one_block(thread_count, monkeypatch):
    """At most BLOCK_ROWS rows run the copy and every dot product in the
    caller's thread; one more row starts threads."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(cq.domain.threading, "Thread", Thread)
    thread_count(7)
    for rows in (2, BLOCK_ROWS):
        u = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 10))
        cq.fit_correlation_matrix("scc", None, u)
        scc(u[:, 0], u[:, 1])
    assert started == []
    u = np.random.default_rng(0).uniform(-1.0, 1.0, size=(BLOCK_ROWS + 1, 10))
    cq.fit_correlation_matrix("scc", None, u)
    assert started


def test_scc_fit_memory_is_one_copy(thread_count, traced_peak):
    """A 4e5-row fit at n = 10 holds one copy of the rows, transposed, and
    below three blocks beside it, on 1, 2 and 7 threads."""
    u = np.random.default_rng(0).uniform(-1.0, 1.0, size=(400_000, 10))
    for threads in (1, 2, 7):
        thread_count(threads)
        _, peak = traced_peak(lambda: cq.fit_correlation_matrix("scc", None, u))
        assert peak < u.nbytes + 3 * BLOCK_ROWS * u.shape[1] * 8, threads


def test_fit_matrix_ccc_uses_variant_geometry(standard_u):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateData)
        by_variant = {
            v: cq.fit_correlation_matrix("ccc", v, standard_u).entries[0, 1]
            for v in [V.ME] + MP_VARIANTS
        }
    # different enclosing geometries give genuinely different coefficients
    assert len({round(x, 6) for x in by_variant.values()}) >= 4
