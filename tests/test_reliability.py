import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexuq as cq
from convexuq import ModelVariant as V
from convexuq.errors import EvaluationError, NoSurfaceFound, UnboundVariable
from convexuq.reliability import default_norm

R3 = np.array(
    [[1.0, 0.4, -0.2], [0.4, 1.0, 0.3], [-0.2, 0.3, 1.0]]
)


def make_model(variant, entries=R3):
    bounds = [("x1", 2.0, 8.0), ("x2", -4.0, 0.0), ("x3", 10.0, 30.0)][
        : entries.shape[0]
    ]
    spec = cq.make_marginal_spec(bounds)
    R = cq.CorrelationMatrix(entries=entries, method="scc")
    return cq.build_model(variant, spec, R)


def linear_expr(coeffs, constant):
    parts = [f"{float(c)!r}*x{k + 1}" for k, c in enumerate(coeffs)]
    return " + ".join(parts + [repr(float(constant))])


@pytest.mark.parametrize("variant", [V.ME, V.MP2, V.UTRI], ids=lambda v: v.value)
def test_delta_round_trip(variant):
    model = make_model(variant)
    rng = np.random.default_rng(0)
    for _ in range(20):
        delta = rng.uniform(-1.5, 1.5, size=3)
        back = cq.to_delta(model, cq.from_delta(model, delta))
        np.testing.assert_allclose(back, delta, atol=1e-10)


def test_delta_norm_matches_membership():
    me = make_model(V.ME)
    box = make_model(V.LTRI)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform([2.0, -4.0, 10.0], [8.0, 0.0, 30.0])
        d_me = cq.to_delta(me, x)
        assert cq.membership_values(me, x) == pytest.approx(float(d_me @ d_me))
        d_box = cq.to_delta(box, x)
        assert cq.membership_values(box, x) == pytest.approx(
            float(np.max(np.abs(d_box)))
        )


def test_default_norm_by_variant():
    assert default_norm(make_model(V.ME)) == "euclidean"
    assert default_norm(make_model(V.RECT)) == "infinity"


def test_euclidean_matches_hyperplane_formula():
    """For a linear limit state the index has the closed form
    |g(midpoint)| / ||P^T D a||_2 in the ellipsoid's standardized
    coordinates; the solver must reproduce it."""
    model = make_model(V.ME)
    rng = np.random.default_rng(42)
    for _ in range(4):
        a = rng.uniform(-2.0, 2.0, size=3)
        a[np.abs(a) < 0.2] = 0.5
        g0 = float(rng.uniform(1.0, 3.0) * np.sign(rng.standard_normal()))
        w = model.factor.T @ (model.radii * a)
        expected = abs(g0) / np.linalg.norm(w)
        if not 0.2 < expected < 8.0:
            continue
        constant = g0 - float(a @ model.midpoints)
        g = cq.parse_limit_state(linear_expr(a, constant))
        result = cq.reliability_index(model, g)
        assert result.eta == pytest.approx(expected, rel=1e-6)
        assert result.norm == "euclidean"
        assert result.g_midpoint == pytest.approx(g0, rel=1e-12)
        assert abs(g.evaluate(dict(zip(model.spec.names, result.x_star)))) < 1e-6
        assert result.converged
        assert result.evaluations > 0


@pytest.mark.parametrize("variant", [V.MP2, V.RECT, V.LTRI], ids=lambda v: v.value)
def test_infinity_matches_hyperplane_formula(variant):
    """Parallelepiped counterpart: |g(midpoint)| / ||(D S)^T a||_1."""
    model = make_model(variant)
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.5, 1.5, size=3)
    a[np.abs(a) < 0.2] = -0.6
    g0 = 2.5
    w = (model.radii[:, None] * model.factor).T @ a
    expected = g0 / np.sum(np.abs(w))
    constant = g0 - float(a @ model.midpoints)
    g = cq.parse_limit_state(linear_expr(a, constant))
    result = cq.reliability_index(model, g)
    assert result.norm == "infinity"
    assert result.eta == pytest.approx(expected, rel=1e-6)
    assert np.max(np.abs(result.delta_star)) == pytest.approx(result.eta, rel=1e-9)


def test_explicit_norm_override():
    model = make_model(V.ME)
    # x3's standardized constraint row mixes all three deltas, so the two
    # balls give different distances (rows of the Cholesky factor have
    # unit 2-norm but larger 1-norm under correlation)
    g = cq.parse_limit_state("x3 - 25")
    natural = cq.reliability_index(model, g)
    forced = cq.reliability_index(
        model, g, cq.ReliabilityOptions(norm="infinity")
    )
    assert natural.norm == "euclidean" and forced.norm == "infinity"
    assert natural.eta == pytest.approx(0.5, rel=1e-6)
    row = model.factor[2]
    assert forced.eta == pytest.approx(0.5 / np.sum(np.abs(row)), rel=1e-6)
    assert forced.eta < natural.eta
    with pytest.raises(ValueError):
        cq.reliability_index(model, g, cq.ReliabilityOptions(norm="manhattan"))


def test_index_can_exceed_one():
    """eta > 1 means the surface lies outside the uncertainty domain; the
    computation is still well defined."""
    model = make_model(V.MP2, np.eye(3))
    g = cq.parse_limit_state("x1 - 20")
    result = cq.reliability_index(model, g)
    assert result.eta == pytest.approx(5.0, rel=1e-9)


def test_no_surface_within_eta_max():
    model = make_model(V.ME, np.eye(3))
    g = cq.parse_limit_state("x1 + 100")
    with pytest.raises(NoSurfaceFound) as exc:
        cq.reliability_index(model, g)
    assert exc.value.eta_max == 10.0
    wide = cq.reliability_index(
        model, g, cq.ReliabilityOptions(eta_max=50.0)
    )
    assert wide.eta == pytest.approx(105.0 / 3.0, rel=1e-9)


def test_bindings_supply_parameters():
    model = make_model(V.ME, np.eye(3))
    g = cq.parse_limit_state("x1 - S")
    result = cq.reliability_index(
        model, g, cq.ReliabilityOptions(bindings={"S": 6.5})
    )
    assert result.eta == pytest.approx(0.5, rel=1e-9)
    assert result.x_star[0] == pytest.approx(6.5, rel=1e-9)


def test_bindings_shadowing_rejected():
    model = make_model(V.ME)
    g = cq.parse_limit_state("x1 - 6")
    with pytest.raises(ValueError):
        cq.reliability_index(
            model, g, cq.ReliabilityOptions(bindings={"x1": 1.0})
        )


def test_unbound_name_rejected_up_front():
    model = make_model(V.ME)
    g = cq.parse_limit_state("x1 - load")
    with pytest.raises(UnboundVariable) as exc:
        cq.reliability_index(model, g)
    assert "load" in exc.value.names


def test_midpoint_on_surface_rejected():
    model = make_model(V.ME)
    with pytest.raises(ValueError):
        cq.reliability_index(model, cq.parse_limit_state("x1 - 5"))


def test_midpoint_undefined_rejected():
    model = make_model(V.ME)
    with pytest.raises(EvaluationError):
        cq.reliability_index(model, cq.parse_limit_state("1/(x1 - 5)"))


def test_result_is_deterministic():
    model = make_model(V.LTRI)
    g = cq.parse_limit_state("x1*x3 - 130")
    a = cq.reliability_index(model, g)
    b = cq.reliability_index(model, g)
    assert a.eta == b.eta
    np.testing.assert_array_equal(a.delta_star, b.delta_star)


@settings(max_examples=15, deadline=None)
@given(
    c1=st.floats(0.3, 2.0),
    c2=st.floats(-2.0, -0.3),
    g0=st.floats(0.5, 4.0),
)
def test_hyperplane_property_2d(c1, c2, g0):
    model = make_model(V.ME, np.eye(2))
    a = np.array([c1, c2])
    constant = g0 - float(a @ model.midpoints)
    g = cq.parse_limit_state(linear_expr(a, constant))
    expected = g0 / np.linalg.norm(model.radii * a)
    result = cq.reliability_index(model, g)
    assert result.eta == pytest.approx(expected, rel=1e-5)
