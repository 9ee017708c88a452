from math import gcd

import pytest
from hypothesis import given, strategies as st

from orthocycles.catalog import develop
from orthocycles.core import canonical_cycle


def cyclic(n, step=1):
    return {"kind": "cyclic", "modulus": [n], "step": step}


def pair_first(m):
    return {"kind": "pair_first", "modulus": [m]}


def pair_both(m, t):
    return {"kind": "pair_both", "modulus": [m, t]}


def test_cyclic_translate_and_fixed_points():
    images = develop([("9", "inf", "3")], cyclic(11), [11])
    assert canonical_cycle(("2", "inf", "7")) in images  # the +4 image
    assert all("inf" in c for c in images)
    with pytest.raises(ValueError, match="cannot move"):
        develop([("(1,2)", "0", "1")], cyclic(11), [11])


def test_cyclic_full_orbit():
    # a base with no symmetry develops into n distinct cycles
    base = ("0", "1", "3", "7", "2")
    assert len(develop([base], cyclic(11), [11])) == 11


def test_cyclic_short_orbit_by_stabilizer():
    # increments repeat with period 2 and sum to 3, so +3 mod 9 rotates the
    # cycle onto itself and the orbit collapses to 3
    base = ("0", "1", "3", "4", "6", "7")
    assert len(develop([base], cyclic(9), [3])) == 3


def test_cyclic_step_subgroup():
    # step 2 mod 26 is the subgroup of order 13; the full group gives 26
    base = ("inf", "0", "1", "5")
    assert len(develop([base], cyclic(26, step=2), [13])) == 13
    assert len(develop([base], cyclic(26), [26])) == 26


def test_reflection_coincidence_halves_orbit():
    # +5 sends the cycle to its own reversal, so only 5 distinct images mod 10
    base = ("0", "1", "5", "6")
    assert len(develop([base], cyclic(10), [5])) == 5


def test_pair_first_moves_x_keeps_j():
    images = develop([("(8,2)", "(0,0)", "inf1")], pair_first(9), [9])
    assert canonical_cycle(("(2,2)", "(3,0)", "inf1")) in images  # the +3 image
    base = ("(0,0)", "(0,1)", "(0,2)", "(1,0)")
    assert len(develop([base], pair_first(9), [9])) == 9
    with pytest.raises(ValueError, match="cannot move"):
        develop([("0", "(1,0)", "(2,0)")], pair_first(9), [9])


def test_pair_both_full_group():
    generic = ("(0,0)", "(1,0)", "(0,1)", "(2,3)", "(4,4)")
    assert len(develop([generic], pair_both(5, 5), [25])) == 25
    # slope line: translation by (1,2) stabilizes it, orbit drops to 5
    line = tuple(f"({i},{(2 * i) % 5})" for i in range(5))
    assert len(develop([line], pair_both(5, 5), [5])) == 5


def test_develop_checks_expected_orbits():
    with pytest.raises(ValueError):
        develop([("0", "1", "2")], cyclic(9), [3])
    with pytest.raises(ValueError):
        develop([("0", "1", "2")], {"kind": "affine", "modulus": [9]}, [9])


def test_develop_images_are_canonical_and_distinct():
    base = ("0", "2", "3", "8", "1")
    images = develop([base], cyclic(13), [13])
    assert len(set(images)) == 13
    assert all(canonical_cycle(c) == c for c in images)


@given(st.integers(5, 20), st.integers(1, 19))
def test_orbit_size_divides_group_order(n, step):
    # develop accepts exactly one orbit size, and it divides the group order
    k = n // gcd(n, step)
    accepted = []
    for size in range(1, k + 1):
        try:
            develop([("0", "1", "3")], cyclic(n, step), [size])
        except ValueError:
            continue
        accepted.append(size)
    assert len(accepted) == 1 and k % accepted[0] == 0
