import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

import convexuq as cq
from convexuq import ModelVariant as V
from convexuq import reliability
from convexuq.errors import EvaluationError, NoSurfaceFound, UnboundVariable
from convexuq.expr import LimitState
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
        assert cq.contains(me, x).value == pytest.approx(float(d_me @ d_me))
        d_box = cq.to_delta(box, x)
        assert cq.contains(box, x).value == pytest.approx(
            float(np.max(np.abs(d_box)))
        )


def test_seed_is_taken_through_operator_index():
    """A float or string seed raises a TypeError naming it, rather than
    being truncated or parsed, and a numpy integer seed gives the result
    of the int it equals."""
    model = make_model(V.ME)
    g = cq.parse_limit_state("x1*x1/8 - x2 + 0.05*x3*x1 - 6")
    for seed in (1.5, 3.0, "3"):
        with pytest.raises(TypeError, match="seed must be an integer"):
            cq.reliability_index(model, g, cq.ReliabilityOptions(seed=seed))
    got, expected, other = (
        cq.reliability_index(model, g, cq.ReliabilityOptions(seed=seed))
        for seed in (np.int64(3), 3, 1)
    )
    assert got.eta.hex() == expected.eta.hex() != other.eta.hex()
    np.testing.assert_array_equal(got.delta_star, expected.delta_star)
    assert (got.starts, got.evaluations) == (expected.starts, expected.evaluations)


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
    # the ridge keeps every draw positive definite: lambda_min of the
    # correlation matrix is at least 0.01 over the largest diagonal entry
    # (at most 11.26 at n = 6), about 9e-4. Without it some draws are near
    # singular (n = 5, seed 245347700: lambda_min 6.2e-11), and build_model
    # rightly refuses them
    cov = root @ root.T + 0.01 * np.eye(n)
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


@pytest.mark.parametrize("variant", [V.ME, V.LTRI], ids=lambda v: v.value)
def test_solver_scalar_calls_skip_evaluate_checks(variant, monkeypatch):
    """On a LimitState with float bindings, the solver's one-point calls
    take `_value`, evaluate's scalar path without its checks, and its array
    calls take evaluate: `evaluations` counts both, and eta, delta* and the
    count are those of a proxy that has only `evaluate`."""
    model = make_model(variant)
    g = cq.parse_limit_state("x1*x3 - S")
    options = cq.ReliabilityOptions(bindings={"S": 130.0})
    bare = _BareLimitState(g)
    expected = cq.reliability_index(model, bare, options)
    calls = {"evaluate": 0, "_value": 0}
    for name in calls:
        method = getattr(LimitState, name)

        def counted(self, env, name=name, method=method):
            calls[name] += 1
            return method(self, env)

        monkeypatch.setattr(LimitState, name, counted)
    result = cq.reliability_index(model, g, options)
    assert result.evaluations == sum(calls.values()) == bare.calls == expected.evaluations
    assert calls["_value"] > calls["evaluate"] > 0
    assert result.eta.hex() == expected.eta.hex()
    assert result.delta_star.tobytes() == expected.delta_star.tobytes()


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


# --------------------------------------------------------------------------
# the lockstep SLSQP driver


class _RecordedSlsqp(reliability._Slsqp):
    """The solver's per-start SLSQP state, keeping its starting point and
    its number of core steps; `log` (when set) also gets one "step" entry
    per core step."""

    made: list = []
    log: list | None = None

    def __init__(self, y0, m):
        super().__init__(y0, m)
        self.y0 = self.y.copy()
        self.steps = 0
        _RecordedSlsqp.made.append(self)

    def step(self):
        self.steps += 1
        if _RecordedSlsqp.log is not None:
            _RecordedSlsqp.log.append("step")
        super().step()


@pytest.fixture()
def recorded_starts(monkeypatch):
    monkeypatch.setattr(_RecordedSlsqp, "made", [])
    monkeypatch.setattr(_RecordedSlsqp, "log", None)
    monkeypatch.setattr(reliability, "_Slsqp", _RecordedSlsqp)
    return _RecordedSlsqp


def _reference_slsqp(model, g, bindings, norm, y0):
    """One start's refinement through the public minimize(method="SLSQP"):
    the objective, constraints and options the solver refined each start
    with, one problem at a time, each gradient one g call on its own 2n
    stencil points."""
    names, n = model.spec.names, model.n

    def g_of(x):
        env = dict(zip(names, x))
        env.update(bindings)
        try:
            return g.evaluate(env)
        except EvaluationError:
            return math.nan

    scale = max(1.0, abs(g_of(cq.from_delta(model, np.zeros(n)))))

    def value(delta):
        v = g_of(cq.from_delta(model, delta))
        return 1e9 if math.isnan(v) else v / scale

    def gradient(delta):
        steps = 1e-6 * np.maximum(1.0, np.abs(delta))
        stencil = np.concatenate([delta + np.diag(steps), delta - np.diag(steps)])
        values = g_of(cq.from_delta(model, stencil).T)
        values = np.where(np.isnan(values), 1e9, values / scale)
        return (values[:n] - values[n:]) / (2.0 * steps)

    if norm == "euclidean":
        ball = {
            "type": "ineq",
            "fun": lambda y: y[-1] - np.linalg.norm(y[:-1]),
            "jac": lambda y: np.append(-y[:-1] / np.linalg.norm(y[:-1]), 1.0),
        }
    else:
        box_jac = np.block([[-np.eye(n), np.ones((n, 1))], [np.eye(n), np.ones((n, 1))]])
        ball = {
            "type": "ineq",
            "fun": lambda y: np.concatenate([y[-1] - y[:-1], y[-1] + y[:-1]]),
            "jac": lambda y: box_jac,
        }
    surface = {
        "type": "eq",
        "fun": lambda y: value(y[:-1]),
        "jac": lambda y: np.append(gradient(y[:-1]), 0.0),
    }
    s_grad = np.zeros(n + 1)
    s_grad[-1] = 1.0
    return minimize(
        lambda y: float(y[-1]),
        y0,
        jac=lambda y: s_grad,
        method="SLSQP",
        constraints=[surface, ball],
        options={"maxiter": 200, "ftol": 1e-12},
    )


def _beam_model(variant, data_dir):
    spec = cq.read_intervals_csv(data_dir / "beam_intervals.csv")
    samples = cq.read_samples_csv(data_dir / "beam_samples.csv")
    u = cq.regularize(spec, samples).rows
    R = cq.ensure_positive_definite(cq.fit_correlation_matrix("scc", None, u), policy="repair")
    return cq.build_model(variant, spec, R)


def _beam_case(variant, norm):
    def build(data_dir, bulk_model):
        g = cq.parse_limit_state((data_dir / "beam_limit_state.txt").read_text(encoding="utf-8"))
        return _beam_model(variant, data_dir), g, {"S": 250.0}, norm

    return build


def _synthetic_case(variant):
    """A seeded n = 10 model and g = c - a·x - b·x2·x10, as the benchmark's
    synthetic set draws them."""

    def build(data_dir, bulk_model):
        model = bulk_model(variant)
        rng = np.random.default_rng(31)
        a = rng.uniform(0.5, 1.5, 10) * rng.choice((-1.0, 1.0), 10)
        c = float(a @ model.midpoints + 0.1 * model.midpoints[1] * model.midpoints[9])
        c += 0.45 * float(np.abs(a) @ model.radii)
        g = cq.parse_limit_state(f"{c!r} - ({linear_expr(a, 0.0)}) - 0.1*x2*x10")
        return model, g, {}, None

    return build


def _edge_case(norm):
    """g's surface ends where it becomes undefined (x2 < -0.2), and SLSQP's
    steps across that edge meet the 1e9 penalty, and starts end with exit
    mode 8 (positive directional derivative in the line search)."""

    def build(data_dir, bulk_model):
        spec = cq.make_marginal_spec([("x1", -1.0, 1.0), ("x2", -1.0, 1.0), ("x3", -1.0, 1.0)])
        model = cq.build_model(V.MP2, spec, cq.CorrelationMatrix(entries=np.eye(3), method="scc"))
        return model, cq.parse_limit_state("1 - x1 - x2 + 5*(x2 + 0.2)^0.5"), {}, norm

    return build


LOCKSTEP_CASES = {
    "beam-me-euclidean": _beam_case(V.ME, "euclidean"),
    "beam-me-infinity": _beam_case(V.ME, "infinity"),
    "beam-mp2-euclidean": _beam_case(V.MP2, "euclidean"),
    "beam-mp2-infinity": _beam_case(V.MP2, "infinity"),
    "synthetic-n10-ltri": _synthetic_case(V.LTRI),
    "synthetic-n10-me": _synthetic_case(V.ME),
    "edge-infinity": _edge_case("infinity"),
    "edge-euclidean": _edge_case("euclidean"),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_starts_match_public_slsqp(case, data_dir, bulk_model, recorded_starts):
    """Every start's final point, exit mode and iteration count equal, by
    float.hex, those of minimize(method="SLSQP") on the same problem from
    the same point, although the solver steps all starts together and
    takes all their gradient stencils in one g call per round."""
    model, g, bindings, norm = LOCKSTEP_CASES[case](data_dir, bulk_model)
    result = cq.reliability_index(model, g, cq.ReliabilityOptions(bindings=bindings, norm=norm))
    starts = recorded_starts.made
    assert len(starts) == len(result.starts) > 1
    for start, record in zip(starts, result.starts):
        reference = _reference_slsqp(model, g, bindings, result.norm, start.y0)
        assert [v.hex() for v in start.y] == [v.hex() for v in reference.x]
        assert record.exit_mode == start.mode == reference.status
        assert record.iterations == start.iterations == reference.nit
    # the starts finish in different rounds, so later rounds carry fewer
    assert len({start.steps for start in starts}) > 1
    if case.startswith("edge"):
        assert any(record.exit_mode != 0 for record in result.starts)
        assert any(record.refined is None for record in result.starts)


@pytest.fixture()
def ray_hits(monkeypatch):
    """Counts the rays whose root brentq finds: the solver's ray hits (no
    scan in these cases ends exactly on g = 0)."""
    found = []

    def counted(*args, **kwargs):
        root = brentq(*args, **kwargs)
        found.append(root)
        return root

    monkeypatch.setattr(reliability, "brentq", counted)
    return found


def test_start_records_account_for_the_index(data_dir, ray_hits):
    """On beam SCC MP-II at S = 250 the nearest min(16, hits) ray hits are
    refined, nearest first, and η is the least of their refined norms and
    hits, up to the 1e-9 relative tie that delta* breaks."""
    g = cq.parse_limit_state((data_dir / "beam_limit_state.txt").read_text(encoding="utf-8"))
    model = _beam_model(V.MP2, data_dir)
    result = cq.reliability_index(model, g, cq.ReliabilityOptions(bindings={"S": 250.0}))
    records = result.starts
    assert len(records) == min(16, len(ray_hits)) > 1
    assert len({r.start_id for r in records}) == len(records)
    hits = [r.hit for r in records]
    assert hits == sorted(hits) == sorted(ray_hits)[: len(records)]
    lengths = hits + [r.refined for r in records if r.refined is not None]
    assert result.eta in lengths
    assert min(lengths) <= result.eta <= min(lengths) * (1.0 + 1e-9)
    assert all(r.exit_mode == 0 and 0 < r.iterations <= 200 for r in records)
    with pytest.raises(AttributeError):
        records[0].hit = 0.0


class _LoggedLimitState(_BareLimitState):
    """Logs the size of every array call ("scalar" for a float call)."""

    __slots__ = ("log",)

    def __init__(self, g, log):
        super().__init__(g)
        self.log = log

    def evaluate(self, env):
        sizes = [np.size(v) for v in env.values() if isinstance(v, np.ndarray)]
        self.log.append(max(sizes) if sizes else "scalar")
        return super().evaluate(env)


@pytest.mark.parametrize("case", ["beam-mp2-infinity", "synthetic-n10-me", "edge-infinity"])
def test_refinement_makes_one_stencil_call_per_round(
    case, data_dir, bulk_model, recorded_starts, ray_hits
):
    """From the first start built on, each round of core steps is followed
    by at most one array call, which carries the 2n-point stencils of
    whole starts; the first carries those of every start."""
    model, g, bindings, norm = LOCKSTEP_CASES[case](data_dir, bulk_model)
    log: list = []
    proxy = _LoggedLimitState(g, log)
    recorded_starts.log = log
    result = cq.reliability_index(model, proxy, cq.ReliabilityOptions(bindings=bindings, norm=norm))
    expected_starts = min(16, len(ray_hits))
    assert len(result.starts) == len(recorded_starts.made) == expected_starts
    assert result.evaluations == proxy.calls == len(log) - log.count("step")
    refinement = log[log.index("step") :]
    before = log[: log.index("step")]
    stencil = 2 * model.n
    # before the first step: the scan's one array call, then the first stencil call
    arrays_before = [entry for entry in before if entry != "scalar"]
    assert arrays_before[-1] == stencil * expected_starts
    assert len(arrays_before) == 2
    rounds = "".join("s" if e == "step" else ("v" if e == "scalar" else "a") for e in refinement)
    for between in rounds.split("s"):
        assert between.count("a") <= 1
    arrays = [entry for entry in refinement if entry not in ("step", "scalar")]
    assert arrays and all(size % stencil == 0 for size in arrays)
    assert all(size <= stencil * expected_starts for size in arrays)


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=["lower-triangular", "full"])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 16])
def test_stacked_stencils_map_as_each_start_alone(bulk_model, variant, n):
    """from_delta of the stencils of many starts in one (2n·starts, n)
    stack gives, by float.hex, the rows of one from_delta call per start:
    the solver maps every round's stencils with one product."""
    model = bulk_model(variant, n=n)
    assert n == 1 or np.all(np.triu(model.factor, 1) == 0) == (variant is V.ME)
    rng = np.random.default_rng(n)
    for count in (1, 2, 3, 7, 16):
        deltas = rng.normal(size=(count, n)) * rng.choice([1e-3, 1.0, 30.0], size=(count, n))
        stencils = []
        for delta in deltas:
            h = 1e-6 * np.maximum(1.0, np.abs(delta))
            stencils.append(np.concatenate([delta + np.diag(h), delta - np.diag(h)]))
        stacked = cq.from_delta(model, np.concatenate(stencils))
        alone = np.concatenate([cq.from_delta(model, stencil) for stencil in stencils])
        assert [v.hex() for v in stacked.ravel()] == [v.hex() for v in alone.ravel()], count


def _rays_one_by_one(n, norm, seed):
    """The reference of the scan's rays, built one at a time: the axis
    directions, then each seeded normal divided by its norm."""
    directions = []
    for k in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[k] = sign
            directions.append(e)
    gen = np.random.Generator(np.random.Philox(key=seed))
    for row in gen.standard_normal((2 * n * n, n)):
        length = math.sqrt(row.dot(row)) if norm == "euclidean" else float(np.max(np.abs(row)))
        if length > 0:
            directions.append(row / length)
    return np.array(directions)


@pytest.mark.parametrize("norm", ["euclidean", "infinity"])
def test_directions_are_read_only_with_the_one_by_one_bits(norm):
    """The rays of each (n, norm, seed) come as one read-only array with
    the bits of the one-at-a-time build."""
    for n, seed in ((1, 0), (3, 0), (3, 7), (10, 2)):
        rays = reliability._directions(n, norm, seed)
        expected = _rays_one_by_one(n, norm, seed)
        assert rays.shape == expected.shape == (2 * n + 2 * n * n, n)
        assert [v.hex() for v in rays.ravel()] == [v.hex() for v in expected.ravel()]
        assert not rays.flags.writeable
        with pytest.raises(ValueError):
            rays[0, 0] = 2.0


def test_import_names_the_scipy_requirement():
    """A scipy without the SLSQP core the solver drives fails at import,
    with the requirement in the message."""
    probe = (
        "import sys, types, scipy.optimize\n"
        "sys.modules['scipy.optimize._slsqplib'] = types.ModuleType('scipy.optimize._slsqplib')\n"
        "try:\n"
        "    import convexuq\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cq.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert "scipy>=1.17" in done.stdout


def _all_hits(values, ts, root):
    """The full-scan reference of _nearest_hits: every ray's hit, rays in
    id order, then a stable sort by t and the 16 nearest."""
    hits = []
    for ray, row in enumerate(values):
        defined, below = ~np.isnan(row), row < 0.0
        change = (defined[:-1] & defined[1:]) & ((row[1:] == 0.0) | (below[:-1] != below[1:]))
        if not change.any():
            continue
        j = int(change.argmax())
        if row[j + 1] == 0.0:
            t = float(ts[j + 1])
        else:
            try:
                t = root(ray, ts[j], ts[j + 1])
            except ValueError:
                continue
        hits.append((t, ray))
    hits.sort(key=lambda hit: hit[0])
    return hits[:16]


@settings(max_examples=300, deadline=None)
@given(
    values=st.integers(1, 40).flatmap(
        lambda rays: st.lists(
            st.lists(st.sampled_from([math.nan, -1.0, 0.0, 1.0]), min_size=4, max_size=4),
            min_size=rays,
            max_size=rays,
        )
    ),
    where=st.lists(st.sampled_from([0.0, 0.5, 1.0, None]), min_size=40, max_size=40),
)
def test_nearest_hits_are_the_full_scans(values, where):
    """Searching rays by their bracket's lower end and stopping early gives
    the full scan's 16 nearest hits, ties included, by float.hex, and
    calls root only on brackets the full scan does. Lower ends and roots
    tie often here: four steps, and roots at a bracket's ends or middle."""
    values = np.array(values)
    ts = np.linspace(0.0, 3.0, 4)

    def root_of(calls):
        def root(ray, a, b):
            calls.append((ray, float(a), float(b)))
            if where[ray] is None:
                raise ValueError("g is undefined inside the bracket")
            return float(a + where[ray] * (b - a))

        return root

    calls, reference_calls = [], []
    hits = reliability._nearest_hits(values, ts, root_of(calls))
    reference = _all_hits(values, ts, root_of(reference_calls))
    assert [(t.hex(), ray) for t, ray in hits] == [(t.hex(), ray) for t, ray in reference]
    assert set(calls) <= set(reference_calls)


def _start_outcome(result):
    return (
        result.eta.hex(),
        [v.hex() for v in result.delta_star],
        result.converged,
        [
            (r.start_id, r.hit.hex(), r.refined is None or r.refined.hex(), r.exit_mode, r.iterations)
            for r in result.starts
        ],
    )


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_early_stopped_ray_search_keeps_the_result(case, data_dir, bulk_model, monkeypatch):
    """η, δ*, `converged` and every start record equal, by float.hex, those
    of brentq on every bracketed ray, with no more evaluations of g."""
    model, g, bindings, norm = LOCKSTEP_CASES[case](data_dir, bulk_model)
    options = cq.ReliabilityOptions(bindings=bindings, norm=norm)
    result = cq.reliability_index(model, g, options)
    monkeypatch.setattr(reliability, "_nearest_hits", _all_hits)
    reference = cq.reliability_index(model, g, options)
    assert _start_outcome(result) == _start_outcome(reference)
    assert result.evaluations <= reference.evaluations
    if case.startswith("synthetic"):  # 220 rays: most brackets lie too far
        assert result.evaluations < reference.evaluations
