import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_qh
from orthocycles import auxiliary
from orthocycles.auxiliary import (
    GroupDivisibleDesign,
    QuasigroupWithHoles,
    _check_gdd,
    _check_qh,
    _triple_system,
    build_gdd,
    build_quasigroup_with_holes,
    half_idempotent_quasigroup,
    idempotent_symmetric_quasigroup,
)
from orthocycles.construct import UNSATISFIABLE, admissible, plan_for

# every group-divisible design shape the recursive constructions ever ask for
GDD_SHAPES = (
    [(2,) * u for u in range(3, 26) if u % 3 in (0, 1)]
    + [(3,) * u for u in range(3, 16, 2)]
    + [(4,) + (2,) * m for m in (3, 6, 9)]
)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=60).map(lambda m: 2 * m + 1))
def test_idempotent_quasigroup_is_symmetric_latin_idempotent(n):
    f = idempotent_symmetric_quasigroup(n)
    assert all(f[i][i] == i for i in range(n))
    assert all(f[i][j] == f[j][i] for i in range(n) for j in range(i))
    assert all(sorted(row) == list(range(n)) for row in f)


def test_idempotent_quasigroup_rejects_even_order():
    with pytest.raises(ValueError):
        idempotent_symmetric_quasigroup(4)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_half_idempotent_quasigroup_properties(t):
    f = half_idempotent_quasigroup(t)
    n = 2 * t
    assert all(f[i][i] == (i if i < t else i - t) for i in range(n))
    assert all(f[i][j] == f[j][i] for i in range(n) for j in range(i))
    assert all(sorted(row) == list(range(n)) for row in f)


@pytest.mark.parametrize("n", [1, 3, 7, 9, 13, 15, 19, 21, 25, 27, 31, 33, 37, 39, 43, 45, 49, 51])
def test_triple_system_covers_every_pair_once(n):
    triples = _triple_system(n)
    if n > 1:  # order 1 has no pair, and K_1 no second part
        _check_gdd(GroupDivisibleDesign((1,) * n, triples), f"triple system of order {n}")
    assert len(triples) == n * (n - 1) // 6
    seen = Counter(p for t in triples for p in combinations(sorted(t), 2))
    assert set(seen.values()) <= {1}
    assert len(seen) == n * (n - 1) // 2
    assert all(len(set(t)) == 3 and all(0 <= x < n for x in t) for t in triples)


@pytest.mark.parametrize("n", [-5, -3, 0, 2, 5, 6, 11, 17])
def test_triple_system_rejects_bad_orders(n):
    with pytest.raises(ValueError, match="no triple system of order"):
        _triple_system(n)


def _assert_covers_cross_pairs(gdd):
    # independent recount: every cross-group pair exactly once, none inside
    gid = []
    for i, s in enumerate(gdd.group_sizes):
        gid += [i] * s
    seen = Counter()
    for t in gdd.triples:
        assert len(set(t)) == 3
        for a, b in combinations(t, 2):
            assert gid[a] != gid[b]
            seen[(min(a, b), max(a, b))] += 1
    cross = sum(
        1 for a, b in combinations(range(len(gid)), 2) if gid[a] != gid[b]
    )
    assert set(seen.values()) <= {1}
    assert len(seen) == cross


@pytest.mark.parametrize("sizes", GDD_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_gdd_shapes_used_by_constructions(sizes):
    gdd = build_gdd(sizes)
    assert gdd.group_sizes == sizes
    _assert_covers_cross_pairs(gdd)


def test_gdd_groups_are_consecutive_ranges():
    gdd = build_gdd((4, 2, 2, 2))
    assert gdd.group_sizes == (4, 2, 2, 2)
    group = [0, 0, 0, 0, 1, 1, 2, 2, 3, 3]
    assert all(len({group[x] for x in t}) == 3 for t in gdd.triples)


def test_gdd_rejects_too_few_groups():
    with pytest.raises(ValueError):
        build_gdd((2, 2))


def test_gdd_rejects_impossible_shapes():
    # pair count not divisible by three
    with pytest.raises(ValueError):
        build_gdd((2, 2, 2, 2, 2))
    # three groups force transversal triples, so sizes must be equal
    with pytest.raises(ValueError):
        build_gdd((5, 3, 3))
    # types that exist, but are none of the closed forms 2^u, 3^u or 4.2^m
    for sizes in ((5, 3, 3, 3, 3), (1,) * 7, (6, 6, 6)):
        with pytest.raises(ValueError):
            build_gdd(sizes)


def test_gdd_builds_are_repeatable():
    # two cold builds of type 4.2^3 are distinct objects with equal triples
    build_gdd.cache_clear()
    a = build_gdd((4, 2, 2, 2))
    build_gdd.cache_clear()
    b = build_gdd((4, 2, 2, 2))
    assert a is not b
    assert a.triples == b.triples


def test_four_twos_gdd_from_the_6n_plus_5_design():
    for m in range(3, 61, 3):
        gdd = build_gdd((4,) + (2,) * m)
        assert gdd.group_sizes[0] == 4
        _check_gdd(gdd)


@pytest.mark.parametrize("k", range(3, 41))
def test_quasigroup_with_holes_properties(k):
    q = build_quasigroup_with_holes(k)
    n = 2 * k
    for x in range(n):
        row = []
        for y in range(n):
            if x // 2 == y // 2:
                assert q.table[x][y] is None
                continue
            z = q.table[x][y]
            assert z == q.table[y][x]
            assert z // 2 not in (x // 2, y // 2)
            row.append(z)
        assert sorted(row) == [z for z in range(n) if z // 2 != x // 2]


def test_quasigroup_with_holes_rejects_small_k():
    for k in (0, 1, 2):
        with pytest.raises(ValueError):
            build_quasigroup_with_holes(k)


def _refuse_random(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scaffold builder created a random source")

    monkeypatch.setattr(random.Random, "__init__", refuse)


def test_quasigroup_with_holes_never_searches(monkeypatch):
    # every k has a closed form, so no random source is ever created
    _refuse_random(monkeypatch)
    build_quasigroup_with_holes.cache_clear()
    for k in range(3, 61):
        _check_qh(build_quasigroup_with_holes(k))


def test_scaffolds_never_search(monkeypatch):
    # every group-divisible design the constructions ask for has a closed
    # form, so no random source is ever created on the build path
    _refuse_random(monkeypatch)
    build_gdd.cache_clear()
    plans = [plan_for(l, v) for l in range(5, 10) for v in range(l, 601)
             if admissible(l, v) and (l, v) not in UNSATISFIABLE]
    shapes = {p.group_sizes for p in plans if p.route in ("four-level-gdd", "nine-level-gdd")}
    assert len(shapes) == 82  # group shapes of the GDD routes, v <= 600
    for sizes in shapes:
        _check_gdd(build_gdd(sizes))


def test_scaffolds_are_pinned():
    # the whole-output digest only reaches scaffolds for v <= 201; this pins
    # every triple system, block-three design and quasigroup with holes well
    # beyond it, in a fixed order
    digest = hashlib.sha256()
    for n in range(1, 202):
        if n % 6 in (1, 3):
            digest.update(repr(_triple_system(n)).encode())
    shapes = ([(2,) * u for u in range(3, 61) if u % 3 in (0, 1)]
              + [(3,) * u for u in range(3, 61, 2)]
              + [(4,) + (2,) * m for m in range(3, 61, 3)])
    for sizes in shapes:
        digest.update(repr(build_gdd(sizes).triples).encode())
    for k in range(3, 61):
        digest.update(repr(build_quasigroup_with_holes(k).table).encode())
    assert digest.hexdigest() == "4ce87f458fd28cc2ae3a4edf48a89860a99fac31697b756b679e055ee67654dd"


# ------------------------------------------------ self-check failure paths

def test_triple_system_with_two_points_swapped_fails_its_check(monkeypatch):
    # swapping points between two triples keeps the triple count, which is
    # all the check once looked at; the verifier sees the pairs
    levels = auxiliary._levels

    def swapped(f, pt):
        out = levels(f, pt)
        i = next(i for i, t in enumerate(out) if not set(t) & set(out[0]))
        (a, b, c), (d, e, g) = out[0], out[i]
        out[0], out[i] = (a, b, g), (d, e, c)
        return out

    monkeypatch.setattr(auxiliary, "_levels", swapped)
    with pytest.raises(AssertionError, match=r"triple system of order 9 is invalid \(bug\)"):
        _check_gdd(GroupDivisibleDesign((1,) * 9, _triple_system(9)), "triple system of order 9")


def test_point_deletion_designs_are_checked_once_and_whole(monkeypatch):
    checked, check = [], auxiliary._check_gdd

    def spy(gdd, *what):
        checked.append(gdd.group_sizes)
        check(gdd, *what)

    monkeypatch.setattr(auxiliary, "_check_gdd", spy)
    for u in (3, 4, 9, 10, 30):
        build_gdd.__wrapped__((2,) * u)
    assert checked == [(2,) * u for u in (3, 4, 9, 10, 30)]
    # the triple system under the design goes unchecked, so a broken one
    # reaches the design's own check
    levels = auxiliary._levels
    monkeypatch.setattr(auxiliary, "_levels",
                        lambda f, pt: levels(f, pt)[1:] + levels(f, pt)[:1] * 2)
    with pytest.raises(AssertionError, match=r"block-three design is invalid \(bug\)"):
        build_gdd.__wrapped__((2,) * 4)


def _broken_gdd(edit):
    triples = [list(t) for t in build_gdd((2, 2, 2, 2)).triples]
    edit(triples)
    return GroupDivisibleDesign((2, 2, 2, 2), tuple(map(tuple, triples)))


def test_gdd_with_a_point_out_of_range_fails_its_check():
    def out_of_range(triples):
        triples[0][2] = 8

    with pytest.raises(AssertionError, match="leaves the vertex range 0..7"):
        _check_gdd(_broken_gdd(out_of_range))


def test_gdd_with_a_duplicated_pair_fails_its_check():
    def duplicated(triples):
        triples[1] = triples[0]

    with pytest.raises(AssertionError, match=r"block-three design is invalid \(bug\): 6 edge deficits"):
        _check_gdd(_broken_gdd(duplicated))


def _broken_qh(k, cells):
    t = [list(row) for row in build_quasigroup_with_holes(k).table]
    for (x, y), z in cells.items():
        t[x][y] = z
    return QuasigroupWithHoles(k, tuple(map(tuple, t)))


def test_quasigroup_with_two_cells_swapped_symmetrically_fails_its_check():
    # both cells of row 0 over the hole {2, 3} hold a symbol of the hole
    # {4, 5}, so the swap leaves row 0 latin and breaks rows 2 and 3
    t = build_quasigroup_with_holes(3).table
    one, two = t[0][2], t[0][3]
    q = _broken_qh(3, {(0, 2): two, (2, 0): two, (0, 3): one, (3, 0): one})
    with pytest.raises(AssertionError, match="row 2 is not a bijection outside its hole"):
        _check_qh(q)


def test_quasigroup_that_is_not_symmetric_fails_its_check():
    t = build_quasigroup_with_holes(3).table
    q = _broken_qh(3, {(0, 2): t[0][3], (0, 3): t[0][2]})
    with pytest.raises(AssertionError, match="table is not symmetric"):
        _check_qh(q)


def test_quasigroup_with_an_empty_cell_fails_its_check():
    q = _broken_qh(3, {(0, 2): None, (2, 0): None})
    with pytest.raises(AssertionError, match=r"cell \(0, 2\) = None is empty"):
        _check_qh(q)


def test_quasigroup_with_a_filled_hole_cell_fails_its_check():
    with pytest.raises(AssertionError, match="hole cell is filled"):
        _check_qh(_broken_qh(3, {(0, 1): 4, (1, 0): 4}))


def test_quasigroup_with_a_product_in_an_operands_hole_fails_its_check():
    with pytest.raises(AssertionError, match=r"cell \(0, 2\) = 2 is empty or in an operand's hole"):
        _check_qh(_broken_qh(3, {(0, 2): 2, (2, 0): 2}))


def _qh_refusal(check, *args):
    try:
        check(*args)
    except AssertionError as e:
        return str(e)
    return None


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_quasigroup_check_reports_as_the_earlier_cell_loop(k):
    # every single-cell and every symmetric two-cell edit, to None or to any
    # symbol up to one past the last: the same acceptance or the same message
    n = 2 * k
    values = [None, *range(n + 1)]
    edits = [{(x, y): z} for x in range(n) for y in range(n) for z in values]
    edits += [{(x, y): z, (y, x): z} for x in range(n) for y in range(x + 1, n) for z in values]
    kinds = Counter()
    for cells in edits:
        q = _broken_qh(k, cells)
        want = _qh_refusal(check_qh, k, q.table)
        assert _qh_refusal(_check_qh, q) == want, cells
        kinds[want and want.split(" ")[0]] += 1
    assert set(kinds) == {None, "hole", "table", "cell", "row"}, kinds
