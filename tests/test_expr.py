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
