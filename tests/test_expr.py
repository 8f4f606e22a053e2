import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexuq.errors import (
    EvaluationError,
    LimitStateSyntaxError,
    UnboundVariable,
    UnknownCharacter,
)
from convexuq.expr import parse_limit_state


def ev(text, **env):
    return parse_limit_state(text).evaluate(env)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2+3*4", 14.0),
        ("(2+3)*4", 20.0),
        ("10/4", 2.5),
        ("2*3^2", 18.0),
        ("2^3^2", 512.0),  # right associative
        ("-2^2", -4.0),  # power binds tighter than unary minus
        ("(-2)^2", 4.0),
        ("2^-2", 0.25),  # unary minus allowed in the exponent
        ("(-2)^3", -8.0),
        ("--3", 3.0),
        ("1.5e2 + .5", 150.5),
        ("2.", 2.0),
        ("1 - 2 - 3", -4.0),  # left associative chain
        ("12/3/2", 2.0),
    ],
)
def test_golden_values(text, expected):
    assert ev(text) == pytest.approx(expected)


def test_variables_and_listing():
    g = parse_limit_state("S - 6*Q*L/(b^2*h)")
    assert g.variables == frozenset({"S", "Q", "L", "b", "h"})
    value = g.evaluate({"S": 300.0, "Q": 50.0, "L": 10.0, "b": 2.0, "h": 3.0})
    assert value == pytest.approx(300.0 - 6.0 * 50.0 * 10.0 / 12.0)


def test_underscored_identifiers():
    assert ev("_x1 + y_2", _x1=1.0, y_2=2.0) == 3.0


@pytest.mark.parametrize(
    "text, offset",
    [
        ("2 +", 3),
        ("1 2", 2),
        ("(1+2", 4),
        ("*3", 0),
        ("", 0),
        ("   ", 0),
        ("2 + ()", 5),
    ],
)
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(LimitStateSyntaxError) as exc:
        parse_limit_state(text)
    assert exc.value.offset == offset


def test_unknown_character_offset():
    with pytest.raises(UnknownCharacter) as exc:
        parse_limit_state("2 @ 3")
    assert exc.value.offset == 2


def test_unbound_variables_sorted():
    g = parse_limit_state("a + b + c")
    with pytest.raises(UnboundVariable) as exc:
        g.evaluate({"b": 1.0})
    assert exc.value.names == ("a", "c")


UNDEFINED = [
    "1/0",
    "(0-8)^0.5",
    "0^-1",
    "10^10^10",
    "1e308*10",
    "(0-2)^(1e308*10)",
    "(0-2)^(1e308*10-1e308*10)",
    # undefined powers whose value (inf or 0) the rest of g makes finite
    "1/0^(0-1e308*10)",
    "(0-2)^(0-1e308*10)",
    "1/(0-2)^(1e308*10)",
]


@pytest.mark.parametrize("text", UNDEFINED)
def test_evaluation_errors(text):
    with pytest.raises(EvaluationError):
        ev(text)


def test_division_by_variable_zero():
    with pytest.raises(EvaluationError):
        ev("1/x", x=0.0)


@pytest.mark.parametrize("text", UNDEFINED)
def test_evaluation_errors_are_nan_in_arrays(text):
    value = parse_limit_state(text).evaluate({"x": np.array([1.0])})
    assert value.shape == (1,) and np.isnan(value[0])


def test_array_evaluation_marks_only_undefined_points():
    g = parse_limit_state("1/x + y^0.5")
    value = g.evaluate({"x": np.array([0.0, 1.0, 2.0, 4.0]), "y": np.array([4.0, 9.0, -1.0, 0.0])})
    np.testing.assert_array_equal(value, [np.nan, 4.0, np.nan, 0.25])


@st.composite
def trees(draw, depth=0):
    """Random ASTs over +, -, *, /, ^, neg, literals (zero and negative
    ones included, a negative literal being neg of a positive one, as the
    parser builds it), and three variable names; every operator node is
    rendered fully parenthesized so the parse must reproduce the tree
    exactly."""
    if depth >= 4 or draw(st.booleans()):
        if draw(st.booleans()):
            value = draw(
                st.one_of(
                    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                )
            )
            literal = ("num", float(repr(value) and value))
            return ("neg", literal) if draw(st.booleans()) else literal
        return ("var", draw(st.sampled_from(["a", "b2", "c_3"])))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg"]))
    if op == "neg":
        return ("neg", draw(trees(depth=depth + 1)))
    return (op, draw(trees(depth=depth + 1)), draw(trees(depth=depth + 1)))


def render(node):
    op = node[0]
    if op == "num":
        return repr(node[1])
    if op == "var":
        return node[1]
    if op == "neg":
        return f"(-{render(node[1])})"
    return f"({render(node[1])}{op}{render(node[2])})"


@settings(max_examples=200, deadline=None)
@given(tree=trees())
def test_parse_reproduces_random_tree(tree):
    parsed = parse_limit_state(render(tree))
    assert parsed.root == tree


def has_power(node):
    return node[0] == "^" or any(has_power(c) for c in node[1:] if isinstance(c, tuple))


points = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5]),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    ),
    min_size=6,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(tree=trees(), a=points, b2=points, c_3=points)
def test_array_evaluate_matches_scalar_calls(tree, a, b2, c_3):
    """Evaluating arrays is evaluating each point: nan exactly where the
    scalar call raises EvaluationError, and the same bits elsewhere when
    there is no power (np.power and libm pow may differ in the last ulp)."""
    g = parse_limit_state(render(tree))
    env = {"a": np.array(a), "b2": np.array(b2), "c_3": np.array(c_3)}
    batch = g.evaluate(env)
    assert batch.shape == (6,)
    for k in range(6):
        try:
            scalar = g.evaluate({name: float(column[k]) for name, column in env.items()})
        except EvaluationError:
            assert np.isnan(batch[k])
            continue
        assert not np.isnan(batch[k])
        if not has_power(tree):
            assert batch[k] == scalar


def oracle_node(node, env, undefined):
    """The recursive evaluator that parse-time compilation replaced, kept
    as the bit reference. With undefined None, env holds floats and a
    domain error raises EvaluationError; otherwise env holds arrays and
    the points in error are ORed into undefined."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]] if undefined is not None else float(env[node[1]])
    if op == "neg":
        return -oracle_node(node[1], env, undefined)
    a = oracle_node(node[1], env, undefined)
    b = oracle_node(node[2], env, undefined)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if undefined is not None:
            undefined |= b == 0.0
            return np.divide(a, b)
        if b == 0.0:
            raise EvaluationError("division by zero")
        return a / b
    if undefined is not None:
        fractional = (b != np.floor(b)) | np.isinf(b)
        value = np.power(a, b)
        undefined |= (a < 0.0) & fractional
        undefined |= (a == 0.0) & (b < 0.0)
        undefined |= np.isinf(value) & np.isfinite(a) & np.isfinite(b)
        return value
    if a < 0.0 and not b.is_integer():
        raise EvaluationError("fractional power of a negative number")
    if a == 0.0 and b < 0.0:
        raise EvaluationError("zero raised to a negative power")
    try:
        return float(a**b)
    except OverflowError:
        raise EvaluationError("overflow in power") from None


def oracle_evaluate(g, env):
    """LimitState.evaluate as it was before compilation."""
    if not any(isinstance(v, np.ndarray) for v in env.values()):
        value = oracle_node(g.root, env, None)
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite value from '{g.source}'")
        return value
    arrays = {k: np.asarray(v, dtype=float) for k, v in env.items()}
    undefined = np.zeros(np.broadcast_shapes(*(v.shape for v in arrays.values())), bool)
    with np.errstate(all="ignore"):
        value = oracle_node(g.root, arrays, undefined)
        undefined |= ~np.isfinite(value)
    return np.where(undefined, np.nan, value)


# right operands of / and ^ whose undefined sets the array evaluator
# shortcuts or must not: zero, negated zero, fractional, natural, negative
LITERAL_OPERANDS = [
    ("num", 0.0),
    ("neg", ("num", 0.0)),
    ("num", 0.5),
    ("num", 2.0),
    ("num", 3.0),
    ("neg", ("num", 1.0)),
    ("num", 1e308),
]


@st.composite
def oracle_trees(draw, depth=0):
    """trees(), with literal right operands of / and ^ at some nodes."""
    if depth >= 3 or draw(st.booleans()):
        return draw(trees(depth=2))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg"]))
    if op == "neg":
        return ("neg", draw(oracle_trees(depth=depth + 1)))
    left = draw(oracle_trees(depth=depth + 1))
    if op in "/^" and draw(st.booleans()):
        return (op, left, draw(st.sampled_from(LITERAL_OPERANDS)))
    return (op, left, draw(oracle_trees(depth=depth + 1)))


def outcome(g, env):
    """float.hex of g at env, or the message of the EvaluationError raised."""
    try:
        return g(env).hex()
    except EvaluationError as exc:
        return f"EvaluationError: {exc}"


wide_points = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e200, -1e200]),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    ),
    min_size=6,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(tree=oracle_trees(), a=wide_points, b2=wide_points, c_3=wide_points)
def test_compiled_evaluators_match_recursive_oracle(tree, a, b2, c_3):
    """The compiled scalar evaluator gives the oracle's bits or raises its
    error with its message; the array evaluator gives its array, nan
    included."""
    g = parse_limit_state(render(tree))
    env = {"a": np.array(a), "b2": np.array(b2), "c_3": np.array(c_3)}
    assert np.array_equal(g.evaluate(env), oracle_evaluate(g, env), equal_nan=True)
    for k in range(6):
        point = {name: float(column[k]) for name, column in env.items()}
        assert outcome(g.evaluate, point) == outcome(lambda e: oracle_evaluate(g, e), point)


@settings(max_examples=200, deadline=None)
@given(tree=oracle_trees(), a=wide_points, b2=wide_points, c_3=wide_points)
def test_unchecked_scalar_value_is_evaluate_or_nan(tree, a, b2, c_3):
    """`_value`, the one-point call of the reliability solver, gives
    evaluate's bits, and nan where evaluate raises EvaluationError."""
    g = parse_limit_state(render(tree))
    for k in range(6):
        point = {"a": a[k], "b2": b2[k], "c_3": c_3[k]}
        value = g._value(point)
        try:
            assert value.hex() == g.evaluate(point).hex()
        except EvaluationError:
            assert math.isnan(value)


def test_long_chains_compile():
    """A left-associative chain as deep as the recursive evaluator allowed
    compiles without nesting parentheses in the generated source."""
    text = " - ".join(f"{k}*x" for k in range(900))
    assert ev(text, x=1.0) == -sum(range(1, 900)) and ev(f"({text})*2", x=0.0) == 0.0


def test_array_evaluator_peak_memory(traced_peak):
    """Each intermediate dies once consumed: on a 40-term chain at 1e5
    points, the compiled array evaluator's peak is at most the recursive
    oracle's plus one array."""
    g = parse_limit_state(" + ".join(f"{k + 1}*a/(b + {k})^2 - a*b" for k in range(40)))
    gen = np.random.default_rng(0)
    env = {"a": gen.uniform(1.0, 2.0, 10**5), "b": gen.uniform(1.0, 2.0, 10**5)}
    expected, oracle_peak = traced_peak(lambda: oracle_evaluate(g, env))
    value, peak = traced_peak(lambda: g.evaluate(env))
    assert np.array_equal(value, expected)
    assert peak <= oracle_peak + env["a"].nbytes


def test_limit_state_pickles():
    g = parse_limit_state("S - 6*Q*L/(b^2*h)")
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    env = {"S": 300.0, "Q": 50.0, "L": 10.0, "b": 2.0, "h": 3.0}
    assert copy.evaluate(env) == g.evaluate(env)
