import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convexuq as cq
from convexuq import ModelVariant as V
from convexuq.correlation import (
    _GRID_STEP,
    R_CLAMP,
    _REFINE_TOL,
    _hull_candidates,
    _mp_feasible,
    _mp_interval,
    _mp_shape_2d,
    _pick_extreme,
    ccc_fit,
    scc,
)
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
from test_acceptance import GEOTECH_CCC_REF

MP_VARIANTS = [V.MP1, V.MP2, V.RECT, V.LTRI, V.UTRI]


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
        closed = _mp_shape_2d(variant, np.array([r]))[0]
        np.testing.assert_allclose(closed, generic, atol=1e-12)


def test_shape_at_zero_is_square():
    for variant in MP_VARIANTS:
        np.testing.assert_array_equal(_mp_shape_2d(variant, np.array([0.0]))[0], np.eye(2))


def test_rect_family_discontinuous_at_zero():
    # the limiting member at r -> 0 is the inscribed diamond, not the square
    s_eps = _mp_shape_2d(V.RECT, np.array([1e-9]))[0]
    np.testing.assert_allclose(s_eps, [[0.5, 0.5], [0.5, -0.5]], atol=1e-8)


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
            fitted = ccc_fit(V.ME, u)
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
        fitted = ccc_fit(variant, u)
        assert bool(_mp_feasible(variant, np.array([fitted]), u)[0])
        if fitted != 0.0 and abs(fitted) < R_CLAMP - 1e-3:
            stepped = fitted + np.sign(fitted) * 2e-3
            assert not bool(_mp_feasible(variant, np.array([stepped]), u)[0])


def test_me_ccc_is_feasible_extreme():
    # correlated, off-corner data keeps the ellipse family feasible
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(6):
        z1 = rng.standard_normal(10)
        z2 = 0.7 * z1 + 0.3 * rng.standard_normal(10)
        u = np.clip(np.column_stack([z1, z2]) / 3.0, -0.85, 0.85)
        fitted = ccc_fit(V.ME, u)
        assert _me_feasible(fitted, u)
        if fitted != 0.0 and abs(fitted) < R_CLAMP - 1e-3:
            assert not _me_feasible(fitted + np.sign(fitted) * 2e-3, u)


def test_ccc_tie_breaks_with_scc_sign():
    # mirror-symmetric data: both one-sided extremes have equal magnitude,
    # the sample correlation sign decides
    u = np.array([[0.6, 0.55], [-0.6, -0.55], [0.2, 0.1], [-0.2, -0.1]])
    for variant in MP_VARIANTS:
        r_pos = ccc_fit(variant, u)
        r_neg = ccc_fit(variant, u * np.array([1.0, -1.0]))
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
        if bool(_mp_feasible(variant, np.array([mid]), u)[0]):
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
    idx = np.flatnonzero(_mp_feasible(variant, grid, u))
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


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(MP_VARIANTS), u=_mp_fit_samples())
@example(variant=V.MP2, u=np.array([[0.4, -0.3]]))
@example(variant=V.RECT, u=np.array([[0.4, -0.3], [-0.2, 0.7]]))
@example(variant=V.LTRI, u=np.array([[1.0, 1.0], [-1.0, -1.0], [0.3, 0.3], [0.1, 0.2]]))
# r_pos at the clamp while r_neg is bisected (to 0.0)
@example(variant=V.RECT, u=np.array([[0.5, 0.5], [-0.3, -0.3], [0.9, 0.9]]))
# only r = 0 is feasible: both ends bisect inward
@example(variant=V.MP2, u=np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
# both ends at the clamp: no bisection
@example(variant=V.UTRI, u=np.array([[0.0, 0.0]]))
def test_mp_ccc_hull_reduction_is_bit_identical(variant, u):
    """Both ends bisected together on the hull candidates give the bits
    of each end bisected on its own over every sample."""
    r_neg, r_pos = _full_set_mp_interval(variant, u)
    assert _mp_interval(variant, u) == (r_neg, r_pos)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateData)
        assert ccc_fit(variant, u) == _pick_extreme(r_neg, r_pos, u)


def test_hull_candidates_keep_vertices_and_edge_points():
    corners = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
    on_edges = [[0.0, -1.0], [1.0, 0.25], [-0.5, 1.0], [-1.0, 0.0]]
    inside = [[0.0, 0.0], [0.9, 0.9], [-0.999, 0.5]]
    u = np.array(corners + on_edges + inside)
    np.testing.assert_array_equal(_hull_candidates(u), np.array(corners + on_edges))


def test_hull_candidates_return_input_without_a_2d_hull():
    for u in (
        np.array([[0.3, -0.2]]),
        np.array([[0.3, -0.2], [-0.5, 0.1]]),
        np.array([[-1.0, -0.5], [0.0, 0.0], [0.5, 0.25], [1.0, 0.5]]),
        np.array([[0.2, 0.2], [0.2, 0.2], [0.2, 0.2]]),
    ):
        assert _hull_candidates(u) is u


def test_me_infeasible_raises_with_gap():
    u = np.array([[0.99, -0.99], [0.99, 0.99]])
    with pytest.raises(InfeasibleFit) as exc:
        ccc_fit(V.ME, u)
    assert exc.value.gap is not None and exc.value.gap > 0


def test_geotech_pair_45_admits_no_ellipse(geotech_spec, geotech_samples):
    # an ellipsoid with exact marginals encloses u_k only if R >= u_k u_k^T,
    # and so only if every 2x2 principal block does: with no feasible
    # coefficient for (x4, x5) no unit-diagonal R encloses all ten samples
    u = cq.regularize(geotech_spec, geotech_samples).rows[:, (3, 4)]
    with pytest.raises(InfeasibleFit) as exc:
        ccc_fit(V.ME, u)
    assert exc.value.gap == pytest.approx(0.00146, abs=1e-5)
    # the published (4,5) entry repeats its (3,6) entry and misses most samples
    assert np.sum(_me_values(GEOTECH_CCC_REF[3, 4], u) <= 1.0 + 1e-9) <= 3


def test_me_infeasible_relax_returns_midpoint():
    u = np.array([[0.99, -0.99], [0.99, 0.99]])
    with pytest.warns(DegenerateData):
        relaxed = ccc_fit(V.ME, u, on_infeasible="relax")
    # symmetric violation above/below zero
    assert relaxed == pytest.approx(0.0, abs=1e-9)


def test_ccc_clamp_warns():
    # a single diagonal pair supports correlation arbitrarily close to 1
    u = np.array([[0.5, 0.5], [-0.5, -0.5]])
    with pytest.warns(DegenerateData):
        fitted = ccc_fit(V.ME, u)
    assert fitted == pytest.approx(R_CLAMP)


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_ccc_fit_refuses_nan(variant):
    """nan fails the [-1, 1] box check instead of passing it: ME would
    return nan and MP-II would fail inside qhull."""
    u = np.array([[np.nan, 0.2], [0.3, 0.1], [-0.5, 0.4]])
    with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
        ccc_fit(variant, u)


@pytest.mark.parametrize("variant", [None, "me", "mp2"])
def test_ccc_fit_refuses_a_variant_that_is_not_a_model_variant(variant):
    u = np.array([[0.3, 0.1], [-0.5, 0.4], [0.2, -0.6]])
    with pytest.raises(ValueError, match=f"variant must be a ModelVariant, got {variant!r}"):
        ccc_fit(variant, u)
    with pytest.raises(ValueError, match="variant must be a ModelVariant"):
        cq.fit_correlation_matrix("ccc", variant, u)


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
    value, messages = _warning_messages(lambda: ccc_fit(V.ME, u))
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


def test_fit_matrix_ccc_uses_variant_geometry(standard_u):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateData)
        by_variant = {
            v: cq.fit_correlation_matrix("ccc", v, standard_u).entries[0, 1]
            for v in [V.ME] + MP_VARIANTS
        }
    # different enclosing geometries give genuinely different coefficients
    assert len({round(x, 6) for x in by_variant.values()}) >= 4
