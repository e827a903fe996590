import random
import re

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
    combine,
    compose,
    digits,
    function_to_text,
    index_point,
    parse_function_text,
    point_index,
)
from gbent.gbfunc import _pairing_rows
from conftest import random_tuple


def test_point_index_convention():
    assert point_index(3, (0, 0, 0, 0)) == 0
    assert point_index(3, (2, 2, 2, 2)) == 80
    assert point_index(3, (1, 0, 0, 0)) == 27


def test_point_index_bijection():
    for i in range(3**4):
        assert point_index(3, index_point(3, 4, i)) == i


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 3), (7, 2)])
def test_all_points_in_index_order(p, n):
    assert all_points(p, n) == tuple(index_point(p, n, i) for i in range(p**n))


def test_all_points_cache_is_bounded():
    # The cache holds a bounded number of point tables; an evicted table is
    # rebuilt equal to the first.
    maxsize = all_points.cache_info().maxsize
    assert maxsize is not None
    first = all_points(3, 4)
    for p in range(2, maxsize + 3):
        all_points(p, 1)
    misses = all_points.cache_info().misses
    assert all_points(3, 4) == first == tuple(index_point(3, 4, i) for i in range(81))
    assert all_points.cache_info().misses == misses + 1


@pytest.mark.parametrize(
    "p,n",
    [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2),
     (3, 5), (5, 3), (13, 2), (17, 2), (31, 2), (257, 1)],
)
def test_dot_table_is_the_pairing(p, n):
    points = all_points(p, n)
    table = list(_pairing_rows(p, n))
    assert len(table) == p**n
    for u, row in zip(points, table):
        assert tuple(row) == tuple(sum(ui * xi for ui, xi in zip(u, x)) % p for x in points)


@pytest.mark.parametrize("u", [(0, 0), (0, 1), (1, 0), (2, 255), (256, 256)])
def test_pairing_row_past_one_byte(u):
    # At p = 257 an entry can be 256, so rows hold two-byte entries. Each
    # row of Z_257^2 is read alone, by all its digits as the lead.
    p = 257
    (row,) = _pairing_rows(p, 2, u)
    assert memoryview(row).itemsize == 2
    assert tuple(row) == tuple((u[0] * x[0] + u[1] * x[1]) % p for x in all_points(p, 2))


@pytest.mark.parametrize(
    "p,n,lead",
    [(3, 2, ()), (3, 3, (1,)), (3, 3, (2, 0)), (3, 5, (2,)), (3, 5, (1, 2, 0)), (5, 2, (4,)),
     (5, 3, (4, 1)), (7, 2, (3, 6)), (17, 2, (5,))],
)
def test_pairing_rows_under_a_lead(p, n, lead):
    # The rows whose leading digits are lead are that slice of all the rows,
    # also where lead ends inside a step of several digits.
    full = list(map(tuple, _pairing_rows(p, n)))
    start = point_index(p, lead) * p ** (n - len(lead))
    assert list(map(tuple, _pairing_rows(p, n, lead))) == full[start : start + p ** (n - len(lead))]


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


class _Digit(int):
    pass


@pytest.mark.parametrize("make,bound", [
    (lambda table: GBFunction(3, 1, 9, table), 9),
    (lambda table: PAryFunction(3, 1, table), 3),
])
def test_table_entries_checked_alike(make, bound):
    # Both records share one table check: int subclasses pass, bools and
    # other types do not, and the error names the first bad index.
    assert make((_Digit(1), 0, 2)).table == (1, 0, 2)
    assert make([2, 1, 0]).table == (2, 1, 0)
    for table, index in [
        ((0, True, 0), 1),
        ((0, 0, 1.0), 2),
        ((0, "1", 0), 1),
        ((-1, 0, bound), 0),
        ((0, bound, -1), 1),
        ((0, 1, _Digit(bound)), 2),
    ]:
        message = f"table[{index}] = {table[index]!r} is not in [0, {bound})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(table)
    with pytest.raises(ValueError, match=r"^table length 2 != 3\^1$"):
        make((0, 0))


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


def test_each_failed_check_keeps_its_message():
    # The table length is compared before p's primality test (the CLI tests
    # time huge p and n); an input that fails one check is told that one.
    for args, needle in [
        ((9, 2, 9, (0,) * 81), "p must be an odd prime, got 9"),
        ((1, 40, 3, (0,)), "p must be an odd prime, got 1"),
        ((3, 2, 3, (0,) * 8), "table length 8 != 3^2"),
        ((3, 1, 4, (0, 0, 0)), "q must be a positive multiple of p, got q=4"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(needle)}$"):
            GBFunction(*args)
        if args[0] == args[2]:
            with pytest.raises(ValueError, match=f"^{re.escape(needle)}$"):
                PAryFunction(*args[:2], args[3])
    with pytest.raises(ValueError, match="^q=27 needs at least one component, got 0$"):
        ComponentTuple(3, 1, 27, ())
    with pytest.raises(ValueError, match="^q=27 needs exactly 3 components, got 1$"):
        ComponentTuple(3, 1, 27, (PAryFunction(3, 1, (0, 0, 0)),))
