from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditwalk import DomainError, HalfInt, components, dimension
from quditwalk.halfint import walk_index


def test_parse_forms():
    assert HalfInt.parse(3) == HalfInt(6)
    assert HalfInt.parse(1.5) == HalfInt(3)
    assert HalfInt.parse(-0.5) == HalfInt(-1)
    assert HalfInt.parse("11/2") == HalfInt(11)
    assert HalfInt.parse(" 3 ") == HalfInt(6)
    assert HalfInt.parse("-3/2") == HalfInt(-3)
    assert HalfInt.parse(HalfInt(5)) == HalfInt(5)
    assert HalfInt.parse(np.int64(3)) == HalfInt(6)
    assert HalfInt.parse(np.int32(2)) == HalfInt(4)
    assert HalfInt.parse(np.float32(1.5)) == HalfInt(3)
    assert HalfInt.parse(Fraction(-5, 2)) == HalfInt(-5)


def test_parse_rejects_off_lattice():
    for bad in (0.3, "2/3", "x", float("nan"), float("inf"), True, None, 1 + 2j,
                np.float64(0.3), np.float32("nan"), np.bool_(True),
                Fraction(3, 2) + Fraction(1, 10**30), 1e308):
        with pytest.raises(DomainError):
            HalfInt.parse(bad)


@given(st.integers(min_value=-200, max_value=200))
def test_roundtrip_through_float_and_str(doubled):
    h = HalfInt(doubled)
    assert HalfInt.parse(float(h)) == h
    assert HalfInt.parse(str(h)) == h


def test_str_forms():
    assert str(HalfInt(11)) == "11/2"
    assert str(HalfInt(6)) == "3"
    assert str(-HalfInt(1)) == "-1/2"
    assert str(HalfInt(0)) == "0"


def test_is_integer_and_float():
    assert HalfInt(4).is_integer and not HalfInt(3).is_integer
    assert float(HalfInt(3)) == 1.5


def test_ordering():
    assert HalfInt(1) < HalfInt(2)
    assert max(HalfInt(3), HalfInt(-5)) == HalfInt(3)


def test_components_and_dimension():
    assert components("3/2") == (HalfInt(3), HalfInt(1), HalfInt(-1), HalfInt(-3))
    assert dimension("3/2") == 4
    assert dimension(0.5) == 2
    assert dimension(3.5) == 8


def test_walk_index_requires_positive_spin():
    assert walk_index("1/2") == 1
    assert walk_index(25) == 50
    for bad in (0, -1, "-3/2"):
        with pytest.raises(DomainError):
            walk_index(bad)
