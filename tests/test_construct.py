from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocycles.auxiliary import build_quasigroup_with_holes
from orthocycles.catalog import get_ingredient, has_ingredient
from orthocycles.construct import (
    UNSATISFIABLE,
    ConstructionPlan,
    NotAdmissibleError,
    UnsatisfiableError,
    admissible,
    _columns,
    _onto,
    _quasigroup_cross,
    construct_pair,
    plan_for,
)
from orthocycles.core import CycleSystem, canonical_cycle, complete
from orthocycles.verify import verify_pair

PINNED = [
    (5, 31, 93), (5, 35, 119),
    (6, 25, 50), (6, 33, 88), (6, 45, 165), (6, 69, 391),
    (7, 43, 129), (7, 49, 168),
    (8, 33, 66), (8, 49, 147),
    (9, 55, 165), (9, 63, 217),
]


def _admissible_orders(l, hi=201):
    return [v for v in range(1, hi + 1) if admissible(l, v)]


@pytest.mark.parametrize("l,v,count", PINNED)
def test_pinned_orders_build_and_verify(l, v, count):
    pair = construct_pair(l, v)
    assert len(pair.first.cycles) == count
    assert len(pair.second.cycles) == count
    assert verify_pair(pair, l).ok


def test_not_admissible_orders_raise():
    for l, v in ((5, 13), (9, 58), (6, 10), (8, 20), (5, 3), (6, 1)):
        with pytest.raises(NotAdmissibleError):
            plan_for(l, v)
        with pytest.raises(NotAdmissibleError):
            construct_pair(l, v)
    with pytest.raises(NotAdmissibleError):
        plan_for(4, 9)


def test_admissible_but_unsatisfiable_orders_raise():
    assert UNSATISFIABLE == {(5, 5), (7, 7), (9, 9)}
    for l, v in sorted(UNSATISFIABLE):
        assert admissible(l, v)
        with pytest.raises(UnsatisfiableError):
            construct_pair(l, v)


def test_small_orders_route_to_catalog():
    for l, v in ((5, 11), (5, 25), (6, 21), (7, 35), (8, 17), (9, 45)):
        plan = plan_for(l, v)
        assert plan.route == "catalog"
        assert plan.group_keys == (f"l{l}_v{v}",) and plan.block_key == ""


def test_routes_and_scaffold_shapes():
    for v in (45, 69, 189):
        assert plan_for(6, v).route == "paste" and plan_for(6, v).group_sizes == ()
    assert plan_for(9, 55).group_sizes == (2, 2, 2)
    assert plan_for(9, 91).group_sizes == (4, 2, 2, 2)
    assert plan_for(9, 99).group_sizes == (4, 2, 2, 2)
    assert plan_for(9, 199).group_sizes == (4,) + (2,) * 9
    assert plan_for(6, 37).group_sizes == (3, 3, 3)
    assert plan_for(8, 65).k == 4
    assert plan_for(7, 57).k == 4 and plan_for(7, 57).r == 1


def test_every_planned_ingredient_is_in_the_catalog():
    for l in range(5, 10):
        for v in _admissible_orders(l):
            if (l, v) in UNSATISFIABLE:
                continue
            plan = plan_for(l, v)
            for key in plan.group_keys + (plan.block_key,) * bool(plan.block_key):
                assert has_ingredient(key), (l, v, key)


def _tabled_keys(plan: ConstructionPlan):
    # the per-length key tables assembly once kept apart from the plan
    l, r, sizes = plan.l, plan.r, plan.group_sizes
    if plan.route == "quasigroup-columns":
        return ((f"l{l}_v{2 * l + 1}",) * len(sizes) if r == 1 else
                (f"l{l}_v{3 * l}",) + (f"l{l}_K{3 * l}mK{l}",) * (len(sizes) - 1)), ""
    if plan.route == "four-level-gdd":
        return tuple({2: "l6_v9", 3: "l6_v13"}[s] for s in sizes), "l6_K444"
    if plan.route == "sixteen-blocks":
        return ("l8_v17",) * plan.k, "l8_K16x16"
    first = {(2, 1): "l9_v19", (2, 9): "l9_v27", (4, 1): "l9_v37", (4, 9): "l9_v45"}
    rest = "l9_v19" if r == 1 else "l9_K27mK9"
    return (first[sizes[0], r],) + (rest,) * (len(sizes) - 1), "l9_K999"


def test_group_keys_follow_one_rule():
    assert plan_for(5, 35).group_keys == ("l5_v15", "l5_K15mK5", "l5_K15mK5")
    assert plan_for(9, 207).group_keys == ("l9_v45",) + ("l9_K27mK9",) * 9
    paste = plan_for(6, 45)
    assert (paste.route, paste.group_keys, paste.block_key) == ("paste", ("l6_v21",), "l6_K6x10")
    routes = set()
    for l, v in _sweep():
        plan = plan_for(l, v)
        if plan.route not in ("catalog", "paste"):
            routes.add(plan.route)
            assert (plan.group_keys, plan.block_key) == _tabled_keys(plan), (l, v)
            assert plan.h * sum(plan.group_sizes) + plan.fixed == v, (l, v)
    assert len(routes) == 4


def _planned_edge_total(plan: ConstructionPlan) -> int:
    # sum of host edge counts over the blocks the plan will place
    l, k, r = plan.l, plan.k, plan.r
    if plan.route == "catalog":
        return comb(plan.v, 2)
    if plan.route == "quasigroup-columns":
        cross = l * l * (comb(2 * k, 2) - k)
        if r == 1:
            return k * comb(2 * l + 1, 2) + cross
        return comb(3 * l, 2) + (k - 1) * (comb(3 * l, 2) - comb(l, 2)) + cross
    if plan.route == "four-level-gdd":
        sizes = plan.group_sizes
        n = sum(sizes)
        triples = (n * n - sum(s * s for s in sizes)) // 6
        return sum(comb(4 * s + 1, 2) for s in sizes) + 48 * triples
    if plan.route == "sixteen-blocks":
        return k * comb(17, 2) + comb(k, 2) * 256
    if plan.route == "nine-level-gdd":
        sizes = plan.group_sizes
        n = sum(sizes)
        triples = (n * n - sum(s * s for s in sizes)) // 6
        rest = comb(19, 2) if r == 1 else comb(27, 2) - comb(9, 2)
        return comb(9 * sizes[0] + r, 2) + (len(sizes) - 1) * rest + 243 * triples
    return comb(plan.v - 20, 2) + comb(21, 2) + 480 * (plan.v - 21) // 24  # paste


def test_planned_blocks_cover_the_edge_count_exactly():
    for l in range(5, 10):
        for v in _admissible_orders(l):
            if (l, v) in UNSATISFIABLE:
                continue
            assert _planned_edge_total(plan_for(l, v)) == comb(v, 2), (l, v)


def test_construction_metadata_records_the_route():
    m = dict(construct_pair(5, 31).first.meta)
    assert m["source"] == "construct"
    assert m["route"] == "quasigroup-columns"
    assert (m["length"], m["order"], m["k"], m["r"]) == (5, 31, 3, 1)
    assert dict(construct_pair(5, 11).first.meta)["source"] == "catalog"


def test_construction_is_deterministic():
    a = construct_pair(7, 43)
    construct_pair.cache_clear()
    b = construct_pair(7, 43)
    assert a is not b
    assert a.first.cycles == b.first.cycles
    assert a.second.cycles == b.second.cycles


def test_placement_rejects_targets_that_disagree_with_the_host_parts():
    k11 = get_ingredient("l5_v11")  # complete K11
    holed = get_ingredient("l5_K15mK5")  # hole of 5, rest of 10
    tri = get_ingredient("l6_K444")  # parts 4, 4, 4
    assert _onto(k11, [range(100, 111)]) == list(range(100, 111))
    # the hole's targets, then the rest's, land on the hole's and the rest's ids
    hole = sorted(holed.spec.hole)
    rest = sorted(set(range(15)) - holed.spec.hole)
    mapping = _onto(holed, [range(100, 105), range(200, 210)])
    assert [mapping[x] for x in hole + rest] == [*range(100, 105), *range(200, 210)]
    assert _onto(tri, [range(10, 14), range(20, 24), range(30, 34)]) == [
        *range(10, 14), *range(20, 24), *range(30, 34)]
    for pair, targets in ((k11, [range(10)]), (k11, [range(5), range(6)]),
                          (holed, [range(15)]), (holed, [range(10), range(5)]),
                          (tri, [range(4), range(4)]),
                          (tri, [range(4), range(4), range(5)])):
        with pytest.raises(ValueError):
            _onto(pair, targets)


def _sweep():
    return [(l, v) for l in range(5, 10) for v in _admissible_orders(l)
            if (l, v) not in UNSATISFIABLE]


def test_assembled_cycles_equal_their_canonical_forms_sorted():
    # assembly builds cycles canonical instead of canonicalising them; this
    # is the per-cycle canonicalisation it skips
    assert len(_sweep()) == 132
    for l, v in _sweep():
        pair = construct_pair(l, v)
        for system in (pair.first, pair.second):
            assert list(system.cycles) == sorted(map(canonical_cycle, system.cycles)), (l, v)


def _template_cross(l, q):
    # the per-pair template zip the grouped emission replaced, kept as oracle
    n = 2 * q.k
    col = [[[l * x + (i + s) % l for i in range(l)] for s in range(7)] for x in range(n)]
    first, second = [], []
    for x in range(n):
        cx = col[x]
        for y in range(x + 1, n):
            if x // 2 == y // 2:
                continue
            cy, cz = col[y], col[q.mul(x, y)]
            if l == 5:
                first.extend(zip(cx[0], cy[0], cx[1], cz[3], cy[1]))
                second.extend(zip(cx[0], cy[0], cx[2], cz[3], cy[2]))
            else:
                cxp, cyp = col[x ^ 1], col[y ^ 1]
                first.extend(zip(cx[0], cy[0], cx[1], cy[3], cz[6], cx[3], cy[1]))
                second.extend(zip(cx[0], cy[0], cxp[3], cy[4], cz[6], cx[4], cyp[3]))
    return first, second


def test_quasigroup_cross_cycles_are_the_canonical_template_cycles():
    ks = {(l, plan_for(l, v).k) for l, v in _sweep() if plan_for(l, v).route == "quasigroup-columns"}
    assert {l for l, _ in ks} == {5, 7}
    for l, k in sorted(ks):
        q = build_quasigroup_with_holes(k)
        for got, want in zip(_quasigroup_cross(l, q), _template_cross(l, q), strict=True):
            assert sorted(got) == sorted(map(canonical_cycle, want)), (l, k)


@pytest.mark.parametrize("l,v", [(5, 35), (7, 49), (9, 63)])
def test_holed_placement_matches_per_cycle_canonicalisation(l, v):
    labels, placements, cross = _columns(plan_for(l, v))
    # the hole goes onto the fixed points, the highest ids: not an increasing map
    holed = [_onto(pair, t) for pair, t in placements if pair.spec.kind == "complete_minus_hole"]
    assert holed and all(m != sorted(m) for m in holed)
    spec = complete(v, labels)
    pair = construct_pair(l, v)
    for i, (system, generated) in enumerate(zip((pair.first, pair.second), cross)):
        cycles = list(generated)
        for block, targets in placements:
            at = _onto(block, targets).__getitem__
            cycles += [tuple(map(at, c)) for c in (block.first, block.second)[i].cycles]
        assert system == CycleSystem(spec, cycles)


def test_canonical_constructor_sorts_and_checks_the_vertex_range():
    spec = complete(5)
    system = CycleSystem._of_canonical(spec, [(1, 2, 4), (0, 3, 4), (0, 1, 2)])
    assert system == CycleSystem(spec, [(4, 2, 1), (3, 4, 0), (2, 0, 1)])
    for bad in ((0, 1, 5), (-1, 0, 1)):
        with pytest.raises(ValueError, match="leaves the vertex range"):
            CycleSystem._of_canonical(spec, [(0, 1, 2), bad])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=4, max_value=10), st.integers(min_value=1, max_value=300))
def test_plan_exists_exactly_on_the_admissible_spectrum(l, v):
    if not admissible(l, v):
        with pytest.raises(NotAdmissibleError):
            plan_for(l, v)
    elif (l, v) in UNSATISFIABLE:
        with pytest.raises(UnsatisfiableError):
            plan_for(l, v)
    else:
        plan = plan_for(l, v)
        assert plan.route in ("catalog", "quasigroup-columns", "four-level-gdd",
                              "sixteen-blocks", "nine-level-gdd", "paste")
        assert plan.l == l and plan.v == v


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=5, max_value=9), st.integers(min_value=5, max_value=101))
def test_built_pairs_have_the_block_count_formula(l, v):
    if not admissible(l, v) or (l, v) in UNSATISFIABLE:
        return
    pair = construct_pair(l, v)
    assert len(pair.first.cycles) == v * (v - 1) // (2 * l)
    assert pair.first.cycles != pair.second.cycles
