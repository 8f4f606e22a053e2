import warnings

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


@pytest.mark.parametrize("eta_max", [-10.0, 0.0, np.inf, np.nan])
def test_eta_max_must_be_finite_and_positive(eta_max):
    model = make_model(V.ME, np.eye(3))
    g = cq.parse_limit_state("x1 + 100")
    with pytest.raises(ValueError, match="eta_max"):
        cq.reliability_index(model, g, cq.ReliabilityOptions(eta_max=eta_max))


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


@pytest.mark.parametrize("override", [False, True], ids=["natural", "override"])
@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
@settings(max_examples=4, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_linear_index_matches_dual_norm_oracle(variant, override, n, seed):
    """For linear g the index has the closed form
    eta = |g(X^m)| / ||(D·A)^T a||_q, with q the dual of the ball's norm
    (q = 2 for p = 2, q = 1 for p = inf), for every variant and norm."""
    rng = np.random.default_rng(seed)
    root = rng.uniform(-1.0, 1.0, (n, n)) + 1.5 * np.eye(n)
    cov = root @ root.T
    scale = np.sqrt(np.diag(cov))
    entries = cov / np.outer(scale, scale)
    np.fill_diagonal(entries, 1.0)
    mid, rad = rng.uniform(-5.0, 5.0, n), rng.uniform(0.5, 3.0, n)
    spec = cq.make_marginal_spec(
        (f"x{k + 1}", mid[k] - rad[k], mid[k] + rad[k]) for k in range(n)
    )
    model = cq.build_model(
        variant, spec, cq.CorrelationMatrix(entries=entries, method="scc")
    )
    natural = "euclidean" if variant is V.ME else "infinity"
    norm = ({"euclidean", "infinity"} - {natural}).pop() if override else natural
    a = rng.uniform(0.2, 2.0, n) * rng.choice((-1.0, 1.0), n)
    w = (model.radii[:, None] * model.factor).T @ a
    dual = np.linalg.norm(w) if norm == "euclidean" else np.sum(np.abs(w))
    # an index below 1.5 keeps the nearest axis ray's hit (at most
    # sqrt(n) or n times the index) inside the default eta_max of 10
    g0 = rng.uniform(0.3, 1.5) * dual * rng.choice((-1.0, 1.0))
    g = cq.parse_limit_state(linear_expr(a, g0 - float(a @ model.midpoints)))
    result = cq.reliability_index(
        model, g, cq.ReliabilityOptions(norm=norm if override else None)
    )
    assert result.norm == norm
    assert result.eta == pytest.approx(abs(g0) / dual, rel=1e-8)


class _BareLimitState:
    """Exposes only what the solver may read, and counts evaluations."""

    __slots__ = ("variables", "_evaluate", "calls")

    def __init__(self, g):
        self.variables = g.variables
        self._evaluate = g.evaluate
        self.calls = 0

    def evaluate(self, env):
        self.calls += 1
        return self._evaluate(env)


@pytest.mark.parametrize("variant", [V.ME, V.LTRI], ids=lambda v: v.value)
def test_solver_reads_only_variables_and_evaluate(variant):
    """`evaluations` counts `evaluate` calls, and a limit state with
    nothing but `variables` and `evaluate` suffices: the benchmark's traced
    runs pass such a proxy and check the count."""
    model = make_model(variant)
    g = cq.parse_limit_state("x1*x3 - 130")
    bare = _BareLimitState(g)
    result = cq.reliability_index(model, bare)
    assert result.evaluations == bare.calls
    assert result.eta == cq.reliability_index(model, g).eta


# g is undefined on the slab 3.5 < x1 < 4.5 (a fractional power of a
# negative number), which crosses the rays that head towards low x1
SLAB = "0.1*((x1 - 4)^2 - 0.25)^0.5"


@pytest.mark.parametrize(
    "text, variant, eta",
    [
        (f"3 - x1 + 0.1*x2 + {SLAB}", V.ME, 0.716689307666254),
        (f"3 - x1 + 0.1*x2 + {SLAB}", V.LTRI, 0.6845177121029214),
        (f"3 - x1 + 0.1*x2 + {SLAB}", V.MP2, 0.7336280792996204),
        ("x2 + 1.5 + (x1 - 4.5)^0.5", V.ME, 0.057378638762235985),
        ("x2 + 1.5 + (x1 - 4.5)^0.5", V.LTRI, 0.04814560089199095),
    ],
    ids=["slab-me", "slab-ltri", "slab-mp2", "halfspace-me", "halfspace-ltri"],
)
def test_scan_skips_undefined_points(text, variant, eta):
    """A step counts as a sign change only when both of its ends are
    defined. With the slab, g is negative up to it and stays negative past
    it, so every ray reaching the surface crosses undefined steps first
    and must still find the sign change beyond them. The indices are those
    of the scalar step-by-step scan."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = cq.reliability_index(make_model(variant), cq.parse_limit_state(text))
    assert result.eta == pytest.approx(eta, rel=1e-9)
    assert result.converged


@pytest.mark.parametrize("variant", [V.ME, V.LTRI, V.MP2], ids=lambda v: v.value)
def test_sign_change_across_undefined_slab_is_no_surface(variant):
    """g = x1 - 4 changes sign only inside the undefined slab, so no ray
    has a step with two defined ends of opposite sign."""
    g = cq.parse_limit_state(f"x1 - 4 + {SLAB}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoSurfaceFound):
            cq.reliability_index(make_model(variant), g)


# g is undefined where (x1 - 4.7)^2 < 1e-8, a band of half-width 1e-4 around
# its surface x1 = 4.7 that falls between two scan steps, so the scan sees a
# sign change with both ends defined and only brentq meets the band
BAND = "4.7 - x1 + 0.1*((x1 - 4.7)^2 - 1e-8)^0.5"


@pytest.mark.parametrize(
    "text, variant, eta",
    [
        (BAND, V.ME, None),
        (BAND, V.LTRI, None),
        (BAND, V.MP2, None),
        (f"{BAND} + 0.05*x2", V.ME, 0.34990900232325056),
        (f"{BAND} + 0.05*x2", V.LTRI, 0.34222220793641056),
        (f"{BAND} + 0.05*x2", V.MP2, 0.34222220793641056),
    ],
    ids=["band-me", "band-ltri", "band-mp2", "tilted-me", "tilted-ltri", "tilted-mp2"],
)
def test_bracket_with_undefined_interior_is_dropped(text, variant, eta):
    """A ray on which brentq meets an undefined point has no hit. Without
    x2 every crossing ray's root lies in the band, so no surface is found;
    with it, only the +x1 axis ray's root does, and the other rays give
    the index."""
    spec = cq.make_marginal_spec([("x1", 2.0, 6.0), ("x2", -1.0, 1.0), ("x3", 0.0, 10.0)])
    model = cq.build_model(variant, spec, cq.CorrelationMatrix(entries=np.eye(3), method="scc"))
    g = cq.parse_limit_state(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if eta is None:
            with pytest.raises(NoSurfaceFound):
                cq.reliability_index(model, g)
        else:
            assert cq.reliability_index(model, g).eta == pytest.approx(eta, rel=1e-9)


@pytest.mark.parametrize("variant", [v for v in V if v.is_parallelepiped], ids=lambda v: v.value)
def test_infinity_optimum_on_a_face(variant):
    """With R = I on [-1, 1]^3, g = 1 - x1 + x2^2 + 0.1*x2 + 0.5*x3^2 - 0.2*x3
    is smallest over the box ‖δ‖∞ ≤ t at δ = (t, -0.05, 0.2), where
    g = 0.9775 - t. The optimum lies on the face δ1 = η with δ2 and δ3
    inside it, where a sign-based projection of the gradient oscillates."""
    spec = cq.make_marginal_spec([("x1", -1.0, 1.0), ("x2", -1.0, 1.0), ("x3", -1.0, 1.0)])
    model = cq.build_model(variant, spec, cq.CorrelationMatrix(entries=np.eye(3), method="scc"))
    g = cq.parse_limit_state("1 - x1 + x2^2 + 0.1*x2 + 0.5*x3^2 - 0.2*x3")
    result = cq.reliability_index(model, g)
    assert result.norm == "infinity"
    assert result.eta == pytest.approx(0.9775, rel=1e-9)
    np.testing.assert_allclose(result.delta_star, [0.9775, -0.05, 0.2], atol=1e-6)
    assert result.converged
