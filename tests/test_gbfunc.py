import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbent import (
    ComponentTuple,
    FunctionDoc,
    FunctionFormatError,
    GBFunction,
    PAryFunction,
    all_points,
    combination_tables,
    combine,
    compose,
    digits,
    function_to_text,
    index_point,
    parse_function_text,
    point_index,
)
from conftest import random_tuple


def test_point_index_convention():
    assert point_index(3, (0, 0, 0, 0)) == 0
    assert point_index(3, (2, 2, 2, 2)) == 80
    assert point_index(3, (1, 0, 0, 0)) == 27


def test_point_index_bijection():
    for i in range(3**4):
        assert point_index(3, index_point(3, 4, i)) == i


def test_point_index_rejects_bad_coordinate():
    with pytest.raises(ValueError):
        point_index(3, (0, 3))


def test_validation():
    with pytest.raises(ValueError):
        GBFunction(4, 1, 8, (0, 0, 0, 0))  # p not an odd prime
    with pytest.raises(ValueError):
        GBFunction(3, 1, 7, (0, 0, 0))  # p does not divide q
    with pytest.raises(ValueError):
        GBFunction(3, 1, 9, (0, 0, 9))  # entry out of range, never reduced
    with pytest.raises(ValueError):
        GBFunction(3, 2, 9, (0, 0, 0))  # wrong length


def test_k_exponent():
    assert GBFunction(3, 1, 3, (0, 0, 0)).k == 1
    assert GBFunction(3, 1, 9, (0, 0, 0)).k == 2
    assert GBFunction(3, 1, 21, (0, 0, 0)).k == 3
    assert GBFunction(3, 1, 27, (0, 0, 0)).k == 3
    assert GBFunction(3, 1, 21, (0, 0, 0)).is_prime_power is False
    assert GBFunction(3, 1, 27, (0, 0, 0)).is_prime_power is True


def test_digit_extraction_value():
    # 26 = 2*9 + 2*3 + 2 in base 3
    f = GBFunction(3, 1, 27, (26, 0, 0))
    t = digits(f)
    assert tuple(c.table[0] for c in t.components) == (2, 2, 2)


def test_digits_of_composed_example():
    # f = 9 f0 + 3 f1 + f2 with f0 = 2 x1 x3 + x2 x4, f1 = x1 + x2, f2 = x1.
    points = all_points(3, 4)
    f0 = tuple((2 * x[0] * x[2] + x[1] * x[3]) % 3 for x in points)
    f1 = tuple((x[0] + x[1]) % 3 for x in points)
    f2 = tuple(x[0] % 3 for x in points)
    table = tuple((9 * a + 3 * b + c) % 27 for a, b, c in zip(f0, f1, f2))
    t = digits(GBFunction(3, 4, 27, table))
    assert t.components[0].table == f0
    assert t.components[1].table == f1
    assert t.components[2].table == f2


def test_digits_requires_prime_power():
    with pytest.raises(ValueError):
        digits(GBFunction(3, 1, 21, (0, 0, 0)))


def test_zero_function_round_trip():
    f = GBFunction(3, 2, 27, (0,) * 9)
    t = digits(f)
    assert all(not any(c.table) for c in t.components)
    assert compose(t) == f


def test_compose_general_q_weights():
    # q = 21: weights are q/p = 7, then 3, 1.
    points = all_points(3, 4)
    f0 = PAryFunction(3, 4, tuple((x[0] * x[2] + 2 * x[1] * x[3]) % 3 for x in points))
    f1 = PAryFunction(3, 4, tuple((2 * x[0] + x[1]) % 3 for x in points))
    f2 = PAryFunction(3, 4, tuple(1 for _ in points))
    t = ComponentTuple(3, 4, 21, (f0, f1, f2))
    f = compose(t)
    for i in range(81):
        assert f.table[i] == (7 * f0.table[i] + 3 * f1.table[i] + f2.table[i]) % 21


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30))
def test_digits_compose_round_trip(seed):
    rng = random.Random(seed)
    f = GBFunction(3, 2, 27, tuple(rng.randrange(27) for _ in range(9)))
    assert compose(digits(f)) == f
    t = random_tuple(rng, 3, 2, 27, 3)
    assert digits(compose(t)) == t


def test_combine_basics(rng):
    t = random_tuple(rng, 3, 2, 27, 3)
    assert combine(t, (0, 0)).table == t.components[0].table
    with pytest.raises(ValueError):
        combine(t, (0,))
    # k = 1: empty coefficient vector returns f0
    t1 = random_tuple(rng, 3, 2, 3, 1)
    assert combine(t1, ()).table == t1.components[0].table


def test_combine_example_components():
    # f0 = 2 x1 x3 + x2 x4, f1 = x1 + x2, f2 = x1 with a = (1, 1):
    # the combination is f0 + f1 + f2 pointwise mod 3.
    points = all_points(3, 4)
    f0 = PAryFunction(3, 4, tuple((2 * x[0] * x[2] + x[1] * x[3]) % 3 for x in points))
    f1 = PAryFunction(3, 4, tuple((x[0] + x[1]) % 3 for x in points))
    f2 = PAryFunction(3, 4, tuple(x[0] % 3 for x in points))
    t = ComponentTuple(3, 4, 27, (f0, f1, f2))
    g = combine(t, (1, 1))
    expected = tuple(
        (2 * x[0] * x[2] + x[1] * x[3] + (x[0] + x[1]) + x[0]) % 3 for x in points
    )
    assert g.table == expected


def test_combine_is_linear(rng):
    t = random_tuple(rng, 3, 2, 27, 3)
    for _ in range(20):
        a = tuple(rng.randrange(3) for _ in range(2))
        b = tuple(rng.randrange(3) for _ in range(2))
        ab = tuple((x + y) % 3 for x, y in zip(a, b))
        lhs = [
            (combine(t, a).table[i] + combine(t, b).table[i] - combine(t, (0, 0)).table[i]) % 3
            for i in range(9)
        ]
        assert tuple(lhs) == combine(t, ab).table


@pytest.mark.parametrize(
    "p,n,q,k",
    [(3, 2, 3, 1), (3, 2, 9, 2), (3, 2, 27, 3), (5, 2, 125, 3), (3, 2, 15, 3), (3, 2, 21, 3)],
)
def test_combination_tables_match_combine(rng, p, n, q, k):
    t = random_tuple(rng, p, n, q, k)
    tables = combination_tables(t)
    assert len(tables) == p ** (t.k - 1)
    for r, table in enumerate(tables):
        assert table == combine(t, index_point(p, t.k - 1, r)).table


def test_function_file_round_trip(rng):
    f = GBFunction(3, 2, 9, tuple(rng.randrange(9) for _ in range(9)))
    text = function_to_text(FunctionDoc(f, None))
    doc = parse_function_text(text)
    assert doc.function == f and doc.components is None
    assert function_to_text(doc) == text

    t = random_tuple(rng, 3, 2, 21, 3)
    text = function_to_text(FunctionDoc(compose(t), t))
    doc = parse_function_text(text)
    assert doc.components == t
    assert doc.function == compose(t)
    assert function_to_text(doc) == text


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        '{"p": 3, "n": 1, "q": 9}',
        '{"p": 3, "n": 1, "q": 9, "table": [0, 0, 0], "components": [[0, 0, 0]]}',
        '{"p": 3, "n": 1, "q": 9, "table": [0, 0, 9]}',
        '{"p": 3, "n": 1, "q": 9, "table": [0, 0]}',
        '{"p": "3", "n": 1, "q": 9, "table": [0, 0, 0]}',
        '{"p": 3, "n": 1, "q": 9, "components": [[0, 0, 0]]}',
    ],
)
def test_bad_function_files(payload):
    with pytest.raises(FunctionFormatError):
        parse_function_text(payload)
