import json
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import develop as reference_develop
from orthocycles import catalog
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


def _outcome(develop_fn, bases, action, expected):
    """The developed list, or the exception's type and message."""
    try:
        return develop_fn(bases, action, expected)
    except Exception as exc:
        return type(exc), str(exc)


def _catalog_groups():
    for path in sorted(catalog._data_files().glob("*.json")):
        entry = json.loads(path.read_text())
        for name in ("first", "second"):
            payload = entry["systems"][name]
            for g in payload.get("groups", ()):
                yield path.stem, g["bases"], g["action"], g["expected"]


def test_every_catalog_group_develops_as_before():
    groups = list(_catalog_groups())
    assert {g[2]["kind"] for g in groups} == {"cyclic", "pair_first", "pair_both"}
    for key, bases, action, expected in groups:
        assert develop(bases, action, expected) == reference_develop(bases, action, expected), key


class _AnySize(int):
    """An orbit-size pin that every size meets: as a subclass of int, its
    != is asked before the size's own."""

    def __ne__(self, other):
        return False


_ANY = [_AnySize()]

NUMBERS = st.integers(-30, 30).map(str)
PAIRS = st.tuples(st.integers(-12, 12), st.integers(-4, 4)).map(lambda p: f"({p[0]},{p[1]})")
ODD_LABELS = st.sampled_from(("inf", "inf1", "inf7", "(1,2,3)", "(1)", "x", "", "(a,1)", " 4", "(1,2"))
ACTIONS = st.one_of(
    st.builds(cyclic, st.integers(0, 30), st.integers(1, 31)),
    st.builds(pair_first, st.integers(0, 16)),
    st.builds(pair_both, st.integers(0, 7), st.integers(0, 5)),
)


@st.composite
def develop_cases(draw):
    """An action and one to three bases, most of them of labels it moves and
    fixed points, the rest of any labels."""
    action = draw(ACTIONS)
    movable = NUMBERS if action["kind"] == "cyclic" else PAIRS
    clean = st.lists(movable | st.just("inf"), min_size=3, max_size=6, unique=True)
    mixed = st.lists(NUMBERS | PAIRS | ODD_LABELS, min_size=3, max_size=6)
    bases = [draw(mixed if draw(st.integers(0, 3)) == 0 else clean)
             for _ in range(draw(st.integers(1, 3)))]
    return bases, action


@given(develop_cases(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_develop_agrees_with_the_earlier_implementation(case, perturb):
    # orbit sizes are read from the earlier implementation, and one may be
    # put off by one; the result or the error must be the same
    bases, action = case
    sizes = []
    for base in bases:
        got = _outcome(reference_develop, [base], action, _ANY)
        sizes.append(len(got) if type(got) is list else 1)
    if perturb and sizes:
        sizes[-1] += 1
    assert _outcome(develop, bases, action, sizes) == _outcome(reference_develop, bases, action, sizes)


@pytest.mark.parametrize("bases, action", [
    ([("(1,2,3)", "(0,0)", "(1,0)")], pair_first(5)),
    ([("(1,2,3)", "(0,0)", "(1,0)")], pair_both(5, 3)),
    ([("0", "x", "2")], cyclic(7)),
    ([("(1,2)", "0", "2")], cyclic(7)),
    ([("0", "(1,2)", "2")], cyclic(7)),
    ([("1", "(0,0)", "(1,0)")], pair_both(3, 3)),
    ([("inf", "inf2", "0")], cyclic(7)),
    ([("inf", "0", "1"), ("inf", "inf", "1")], cyclic(7)),
    ([("0", "1")], cyclic(7)),
    ([()], cyclic(7)),
    ([("x", "y", "z")], cyclic(0)),
])
def test_odd_labels_develop_or_raise_as_before(bases, action):
    got = _outcome(develop, bases, action, [7] * len(bases))
    assert got == _outcome(reference_develop, bases, action, [7] * len(bases))


def test_a_three_coordinate_label_is_refused():
    # "(1,2,3)" is no pair; parsing it as one must not drop a coordinate
    with pytest.raises(ValueError, match="too many values to unpack"):
        develop([("(1,2,3)", "(0,0)", "(1,0)")], pair_first(5), [5])
