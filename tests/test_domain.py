import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexuq as cq
from convexuq.domain import Violation
from convexuq.errors import (
    DegenerateInterval,
    DimensionMismatch,
    DuplicateName,
    NameMismatch,
    SampleOutsideMarginal,
)


def test_interval_midpoint_radius():
    iv = cq.Interval(2.0, 10.0)
    assert iv.midpoint == 6.0
    assert iv.radius == 4.0


def test_interval_rejects_degenerate():
    with pytest.raises(DegenerateInterval):
        cq.Interval(3.0, 3.0)
    with pytest.raises(DegenerateInterval):
        cq.Interval(5.0, 1.0)
    with pytest.raises(DegenerateInterval):
        cq.Interval(0.0, float("inf"))


@pytest.mark.parametrize("lower, upper", [(-1e308, 1e308), (1e308, 1.7e308), (-1.7e308, -1e308)])
def test_interval_refuses_a_width_or_midpoint_beyond_float_range(lower, upper):
    """Finite bounds whose width or midpoint overflows would give a model
    of nan; the interval is refused, also through make_marginal_spec."""
    with pytest.raises(DegenerateInterval, match="beyond float range"):
        cq.Interval(lower, upper)
    with pytest.raises(DegenerateInterval, match="beyond float range"):
        cq.make_marginal_spec([("a", 0.0, 1.0), ("b", lower, upper)])


def test_spec_rejects_duplicate_names():
    with pytest.raises(DuplicateName):
        cq.make_marginal_spec([("a", 0, 1), ("a", 0, 2)])


@pytest.mark.parametrize(
    "names, count, error, message",
    [
        ((), 0, DegenerateInterval, "needs at least one variable"),
        (("a", "b"), 1, DimensionMismatch, "2 names but 1 intervals"),
        (("a", ""), 2, DuplicateName, "empty variable name"),
    ],
)
def test_spec_refuses_inconsistent_fields(names, count, error, message):
    with pytest.raises(error, match=message):
        cq.MarginalSpec(names=names, intervals=(cq.Interval(0.0, 1.0),) * count)


@pytest.mark.parametrize(
    "names, rows, error, message",
    [
        (("a",), np.zeros(3), DimensionMismatch, "must be 2-D"),
        (("a",), np.zeros((0, 1)), DimensionMismatch, "empty sample matrix"),
        (("a", "b"), np.zeros((2, 3)), DimensionMismatch, "2 names but 3 sample columns"),
        (("a", "b"), np.array([[0.0, np.inf]]), ValueError, "non-finite entries"),
        (("a", "a"), np.zeros((2, 2)), DuplicateName, "duplicate sample column name 'a'"),
        (("a", ""), np.zeros((2, 2)), DuplicateName, "empty sample column name"),
    ],
)
def test_sampleset_refuses_inconsistent_fields(names, rows, error, message):
    with pytest.raises(error, match=message):
        cq.SampleSet(names=names, rows=rows)


def test_spec_vectors():
    spec = cq.make_marginal_spec([("a", 0.0, 4.0), ("b", -3.0, 1.0)])
    assert spec.n == 2
    np.testing.assert_allclose(spec.midpoints, [2.0, -1.0])
    np.testing.assert_allclose(spec.radii, [2.0, 2.0])


def test_sampleset_aligned_to_reorders():
    s = cq.SampleSet(names=("b", "a"), rows=np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = s.aligned_to(("a", "b"))
    np.testing.assert_allclose(out.rows, [[2.0, 1.0], [4.0, 3.0]])
    with pytest.raises(NameMismatch):
        s.aligned_to(("a", "c"))


def test_sampleset_holds_a_read_only_copy():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    s = cq.SampleSet(("a", "b"), rows)
    rows[0, 0] = 9.0  # the caller's array stays writable
    assert s.rows[0, 0] == 1.0
    with pytest.raises(ValueError):
        s.rows[0, 0] = 5.0


def test_regularize_reports_every_violation():
    spec = cq.make_marginal_spec([("a", 0.0, 1.0), ("b", 0.0, 1.0)])
    s = cq.SampleSet(names=("a", "b"), rows=np.array([[0.5, 1.5], [-0.2, 0.3]]))
    with pytest.raises(SampleOutsideMarginal) as exc:
        cq.regularize(spec, s)
    assert exc.value.violations == (
        Violation(row=0, column=1, value=1.5, lower=0.0, upper=1.0),
        Violation(row=1, column=0, value=-0.2, lower=0.0, upper=1.0),
    )
    assert all(type(v) is Violation for v in exc.value.violations)
    assert "(2 violation(s) total)" in str(exc.value)


def test_regularize_hard_errors_outside():
    spec = cq.make_marginal_spec([("a", 0.0, 1.0)])
    s = cq.SampleSet(names=("a",), rows=np.array([[1.2]]))
    with pytest.raises(SampleOutsideMarginal):
        cq.regularize(spec, s)


def test_regularize_clamps_slack_band():
    # values inside the tiny tolerance band land exactly on the box edge
    spec = cq.make_marginal_spec([("a", 0.0, 1.0)])
    s = cq.SampleSet(names=("a",), rows=np.array([[1.0 + 5e-13]]))
    u = cq.regularize(spec, s).rows
    assert u[0, 0] == 1.0


def test_deregularize_shape_check():
    spec = cq.make_marginal_spec([("a", 0.0, 1.0), ("b", 0.0, 1.0)])
    with pytest.raises(DimensionMismatch):
        cq.deregularize(spec, np.zeros((3, 3)))


@settings(max_examples=60)
@given(
    mids=st.lists(st.floats(-50, 50), min_size=1, max_size=5),
    rads=st.data(),
)
def test_regularize_roundtrip(mids, rads):
    n = len(mids)
    radii = rads.draw(st.lists(st.floats(0.1, 20), min_size=n, max_size=n))
    us = rads.draw(
        st.lists(
            st.lists(st.floats(-1, 1), min_size=n, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
    spec = cq.make_marginal_spec(
        (f"v{k}", mids[k] - radii[k], mids[k] + radii[k]) for k in range(n)
    )
    x = cq.deregularize(spec, np.array(us))
    s = cq.SampleSet(names=spec.names, rows=x)
    u_back = cq.regularize(spec, s).rows
    np.testing.assert_allclose(u_back, np.array(us), atol=1e-9)
