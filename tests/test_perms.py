import numpy as np
import pytest
from hypothesis import given, strategies as st

from quillen.errors import NonPermutationGenerator
from quillen.perms import format_cycles, parse_cycles

from conftest import check_permutation, perm_order


def test_parse_basic():
    p = parse_cycles("(1 2)(3 4 5)", 5)
    assert list(p) == [1, 0, 3, 4, 2]


def test_parse_identity_forms():
    assert list(parse_cycles("()", 4)) == [0, 1, 2, 3]
    assert list(parse_cycles("", 4)) == [0, 1, 2, 3]


def test_parse_commas():
    assert np.array_equal(parse_cycles("(1,2,3)", 3), parse_cycles("(1 2 3)", 3))


def test_parse_rejects_repeats_and_range():
    with pytest.raises(NonPermutationGenerator):
        parse_cycles("(1 2)(2 3)", 4)
    with pytest.raises(NonPermutationGenerator):
        parse_cycles("(1 9)", 4)
    with pytest.raises(NonPermutationGenerator):
        parse_cycles("1 2 3", 4)


def test_format_identity():
    assert format_cycles(np.arange(6)) == "()"


def test_format_roundtrip_fixed():
    p = parse_cycles("(1 4)(2 6 3)", 7)
    assert np.array_equal(parse_cycles(format_cycles(p), 7), p)


@given(st.permutations(list(range(9))))
def test_format_parse_roundtrip(row):
    p = np.array(row, dtype=np.int64)
    assert np.array_equal(parse_cycles(format_cycles(p), 9), p)


def test_perm_order():
    assert perm_order(parse_cycles("(1 2)(3 4 5)", 5)) == 6
    assert perm_order(np.arange(5)) == 1


def test_check_permutation():
    with pytest.raises(NonPermutationGenerator):
        check_permutation(np.array([0, 0, 2]), 3)
