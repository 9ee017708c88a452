import hashlib
from functools import lru_cache, reduce
from itertools import chain, combinations
from math import comb
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cross_bases, cycle_edges, hamiltonian_decompositions, orbits_report, placed_cycles,
                     report_fields)
from orthocycles import construct, verify
from orthocycles.auxiliary import GroupDivisibleDesign, build_gdd, build_quasigroup_with_holes
from orthocycles.catalog import get_ingredient, has_ingredient
from orthocycles.cli import design_text
from orthocycles.construct import (
    UNSATISFIABLE,
    ConstructionPlan,
    NotAdmissibleError,
    UnsatisfiableError,
    admissible,
    _certify,
    _emit,
    _placements,
    _quasigroup_cross,
    construct_pair,
    plan_for,
)
from orthocycles.core import CycleSystem, GraphSpec, OrthogonalPair, canonical_cycle, complete
from orthocycles.search import SearchBudget, search_pair
from orthocycles.verify import Batch, VerificationReport, verify_orbits, verify_pair
from test_cli import GENERATED_SHA256

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


def test_refusals_at_five_and_seven_hold_by_exhaustion():
    # every ordered pair of Hamiltonian decompositions of K_v, v = 5 and 7:
    # pair (a, b) is orthogonal iff no cycle of b shares two edges with a
    # cycle of a; (9, 9) rests on the pigeonhole argument alone
    for v, count in ((5, 6), (7, 960)):
        decompositions = hamiltonian_decompositions(v)
        assert len(decompositions) == count == len(set(decompositions))
        cycles = sorted({c for d in decompositions for c in d})
        edges = [cycle_edges(c) for c in cycles]
        clash = [sum(1 << j for j, f in enumerate(edges) if len(e & f) > 1) for e in edges]
        assert min(map(int.bit_count, clash)) < len(cycles)  # some cycles do not clash
        index = {c: i for i, c in enumerate(cycles)}
        held = [sum(1 << index[c] for c in d) for d in decompositions]
        clashing = [reduce(or_, (clash[index[c]] for c in d)) for d in decompositions]
        assert sum(not h & c for c in clashing for h in held) == 0, v
        with pytest.raises(UnsatisfiableError, match="no orthogonal pair"):
            construct_pair(v, v)
    # the verifier agrees on every pair of K_5 decompositions
    fives = [CycleSystem(complete(5), d) for d in hamiltonian_decompositions(5)]
    for a in fives:
        for b in fives:
            assert verify_pair(OrthogonalPair(a.spec, a, b), 5).max_cross_intersection > 1


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


def _target_sizes(plan: ConstructionPlan, i: int, s: int) -> list:
    # the target lists' sizes for group i of s points: its columns with the
    # fixed points, or, after the first group when there are several fixed
    # points, the fixed points as a hole and then the columns
    if plan.route == "catalog":
        return [plan.v]
    if plan.route == "paste":
        return [21]
    if i and plan.fixed > 1:
        return [plan.fixed, plan.h * s]
    return [plan.h * s + plan.fixed]


def test_plans_to_ten_thousand_name_fitting_pairs_and_cover_k_v():
    # plan-level evidence far past the built sweep: no scaffold is built
    host_sizes, refused = {}, []
    for l in range(5, 10):
        for v in _admissible_orders(l, 10_000):
            try:
                plan = plan_for(l, v)
            except UnsatisfiableError:
                refused.append((l, v))
                continue
            sizes = plan.group_sizes or (0,) * len(plan.group_keys)
            # groups after the second repeat its size and key
            wanted = {key: _target_sizes(plan, i, s)
                      for i, (s, key) in enumerate(zip(sizes[:2], plan.group_keys[:2]))}
            assert len(set(zip(sizes[1:], plan.group_keys[1:]))) <= 1, (l, v)
            if plan.block_key:
                arity = 2 if plan.route == "sixteen-blocks" else 3
                wanted[plan.block_key] = [6, 10] if plan.route == "paste" else [plan.h] * arity
            for key, want in wanted.items():
                if key not in host_sizes:
                    assert has_ingredient(key), (l, v, key)
                    host_sizes[key] = _host_layout(key)[0]
                assert host_sizes[key] == want, (l, v, key)
            assert _planned_edge_total(plan) == comb(v, 2), (l, v)
    assert refused == sorted(UNSATISFIABLE)


def _host_layout(key):
    # a placed catalog key's host parts and inner parts
    _, sizes, inner = construct._ingredient(key, int(key[1]))
    return list(sizes), inner


def _assemble(plan, *layout):
    return _emit(plan, *_certify(plan, *layout))


def _flat(placements):
    # for the oracles: the layout one (key, target lists) placement at a
    # time, every batch expanded in place, a complete key's runs laid end to
    # end as its one part
    return [(key, [[*chain.from_iterable(parts)]] if len(_host_layout(key)[0]) == 1 else parts)
            for key, batch in placements for parts, _ in batch.expand()]


def _one(*runs):
    # one placement as a batch: a start column of one entry and a width per run
    return Batch(tuple((run.start,) for run in runs), tuple(map(len, runs)))


def _moved(placements, i, p, j, start):
    # the layout with start j of run p in batch i moved to start
    placements, (key, batch) = list(placements), placements[i]
    starts = list(map(list, batch.starts))
    starts[p][j] = start
    placements[i] = (key, batch._replace(starts=tuple(map(tuple, starts))))
    return placements


def _dropped(placements):
    # the layout with the last placement of its last batch dropped
    key, batch = placements[-1]
    return [*placements[:-1], (key, batch._replace(starts=tuple(col[:-1] for col in batch.starts)))]


def test_plans_certify_their_cover_without_building_a_cycle(monkeypatch):
    # _certify on the layouts alone, past the built sweep: every assembled
    # order to 401, the largest admissible order to 2,001 per length and the
    # largest paste order to 2,001; near 10,000 the length-6 scaffold alone
    # takes seconds
    def unbuilt(*args):
        raise AssertionError(f"no assembly cycle is built for a layout, called with {args}")

    monkeypatch.setattr(construct, "_quasigroup_cross", lambda l, k: ((), ()))
    monkeypatch.setattr(construct, "_emit", unbuilt)
    monkeypatch.setattr(construct, "construct_pair", unbuilt)
    plans = [plan_for(l, v) for l in range(5, 10) for v in _admissible_orders(l, 401)
             if (l, v) not in UNSATISFIABLE]
    plans = [plan for plan in plans if plan.route != "catalog"]
    assert len(plans) == 253 and {plan.route for plan in plans} >= {"paste", "quasigroup-columns"}
    plans += [plan_for(l, _admissible_orders(l, 2001)[-1]) for l in range(5, 10)]
    plans.append(plan_for(6, 1989))
    assert plans[-1].route == "paste" and plans[-1].v + 24 > 2001
    for plan in plans:
        labels, placements, cross_parts = _placements(plan)
        assert len(labels) == len(set(labels)) == plan.v
        assert bool(cross_parts) == (plan.route == "quasigroup-columns")
        # every batch, and the cross host, is served by the one-table path:
        # its runs keep one order, whole vertices and whole cover atoms
        m = 2 if plan.route == "paste" else plan.h
        for key, batch in placements + [("cross", cross_parts)] * bool(cross_parts):
            assert batch.whole(plan.v, 1) and batch.whole(plan.v, m), (plan.l, plan.v, key)
        for key, targets in placements:
            sizes, _ = _host_layout(key)
            for _, parts in _flat([(key, targets)]):
                assert list(map(len, parts)) == sizes, (plan.l, plan.v, key)
        spec, cross, _ = _certify(plan, labels, placements, cross_parts)
        assert spec.v == plan.v and cross == ((), ())


@pytest.mark.parametrize("v", [45, 69, 189])
def test_paste_places_its_order_v_minus_20_layout_flat(monkeypatch, v):
    # paste lays out the order n + 1 = v - 20 plan itself, its vertex n (the
    # fixed point) mapped to v - 1, and places catalog keys only: no pair is
    # built for it, and the design file generate writes is unchanged
    def unbuilt(*args):
        raise AssertionError(f"paste builds no nested pair, called with {args}")

    monkeypatch.setattr(construct, "construct_pair", unbuilt)
    plan = plan_for(6, v)
    assert plan.route == "paste"
    labels, placements, cross_parts = _placements(plan)
    n = v - 21
    at = [*range(n), v - 1]
    inner = [(key, [[at[x] for x in t] for t in targets])
             for key, targets in _flat(_placements(plan_for(6, n + 1))[1])]
    flat = _flat(placements)
    i = [key for key, _ in flat].index("l6_v21")
    assert [(key, list(map(list, targets))) for key, targets in flat[:i]] == inner
    assert all(type(key) is str for key, _ in placements)
    text = design_text(_assemble(plan, labels, placements, cross_parts), 6)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_SHA256[(6, v)]


def test_construction_metadata_records_the_route():
    m = dict(construct_pair(5, 31).first.meta)
    assert m["source"] == "construct"
    assert m["route"] == "quasigroup-columns"
    assert (m["length"], m["order"], m["k"], m["r"]) == (5, 31, 3, 1)
    assert dict(construct_pair(5, 11).first.meta)["source"] == "catalog"


def test_construction_is_deterministic():
    a = construct_pair(7, 43)
    b = construct_pair(7, 43)
    assert a is not b
    assert a.first.cycles == b.first.cycles
    assert a.second.cycles == b.second.cycles


def _placed_alone(monkeypatch, l, key, targets):
    # one placement assembled on its own, its cover taken as proven, so the
    # assembled systems are the placed pair's mapped onto the targets
    return _assembled_alone(monkeypatch, l, [(key, targets)])


def _assembled_alone(monkeypatch, l, placements):
    # placements assembled with no cross, their cover taken as proven
    monkeypatch.setattr(construct, "verify_cover", lambda v, hosts, m: VerificationReport())
    v = max(max(col) + w for _, batch in placements for col, w in zip(batch.starts, batch.widths))
    pair = _assemble(ConstructionPlan(l, v, "one-placement", ()), None, placements)
    return [pair.first.cycles, pair.second.cycles]


def _mapped(key, at):
    # the catalog pair under key, each vertex x relabelled at[x], on K_v
    v = max(at.values()) + 1
    return [CycleSystem(complete(v), [[at[x] for x in c] for c in system.cycles]).cycles
            for system in (get_ingredient(key).first, get_ingredient(key).second)]


def test_placement_rejects_targets_that_disagree_with_the_host_parts(monkeypatch):
    # l5_v11: complete K11; l5_K15mK5: hole of 5, rest of 10; l6_K444: parts 4, 4, 4
    assert _placed_alone(monkeypatch, 5, "l5_v11", _one(range(100, 111))) == _mapped(
        "l5_v11", {x: 100 + x for x in range(11)})
    # the hole's targets, then the rest's, land on the hole's and the rest's ids
    holed = get_ingredient("l5_K15mK5").spec
    hole = sorted(holed.hole)
    rest = sorted(set(range(15)) - holed.hole)
    at = dict(zip(hole + rest, [*range(100, 105), *range(200, 210)]))
    assert _placed_alone(monkeypatch, 5, "l5_K15mK5", _one(range(100, 105), range(200, 210))) == _mapped(
        "l5_K15mK5", at)
    tri = [range(10, 14), range(20, 24), range(30, 34)]
    at = dict(zip(chain.from_iterable(get_ingredient("l6_K444").spec.parts), chain.from_iterable(tri)))
    assert _placed_alone(monkeypatch, 6, "l6_K444", _one(*tri)) == _mapped("l6_K444", at)
    # a complete host's one part is its runs laid end to end, so two runs
    # disagree with K11 by their sum
    for l, key, runs in ((5, "l5_v11", [range(10)]), (5, "l5_v11", [range(5), range(5, 10)]),
                         (5, "l5_K15mK5", [range(15)]), (5, "l5_K15mK5", [range(10), range(5)]),
                         (6, "l6_K444", [range(4), range(4)]),
                         (6, "l6_K444", [range(4), range(4), range(5)])):
        with pytest.raises(ValueError, match="disagree with the host parts"):
            _placed_alone(monkeypatch, l, key, _one(*runs))


@pytest.mark.parametrize("l,key,increasing,other", [
    (5, "l5_v11", [range(20, 24), range(24, 27), range(27, 31)], [range(50, 54), range(66, 69), range(58, 62)]),
    (5, "l5_K15mK5", [range(20, 25), range(30, 40)], [range(90, 95), range(60, 70)]),
    (6, "l6_K444", [range(10, 14), range(20, 24), range(30, 34)],
     [range(70, 74), range(50, 54), range(60, 64)]),
])
def test_one_key_under_an_increasing_and_another_map_places_both(monkeypatch, l, key, increasing, other):
    # one key, two batches under two vertex maps in one assembly: each keeps
    # its own rank relabelling, whichever order the two come in
    pair = get_ingredient(key)
    # the other map is not increasing (nor a rotation, which l5_v11's cyclic
    # development would absorb), so its rank relabelling matters
    assert placed_cycles(pair.first.cycles, other) != placed_cycles(pair.first.cycles,
                                                                    [sorted(chain.from_iterable(other))])
    for targets in ([increasing, other], [other, increasing]):
        want = [sorted(chain.from_iterable(placed_cycles(system.cycles, t) for t in targets))
                for system in (pair.first, pair.second)]
        got = _assembled_alone(monkeypatch, l, [(key, _one(*t)) for t in targets])
        assert [list(cycles) for cycles in got] == want


@pytest.mark.parametrize("key,starts,widths,whole", [
    ("l6_K444", ((0, 12, 32), (4, 24, 40), (8, 36, 44)), (4, 4, 4), True),
    ("l6_K444", ((0, 12, 32), (8, 24, 40), (4, 36, 44)), (4, 4, 4), False),
    ("l8_K16x16", ((0, 32), (16, 48)), (16, 16), True),
    ("l6_K6x10", ((10, 20, 40), (0, 30, 50)), (6, 10), False),
    ("l5_v11", ((0, 10, 40), (63, 63, 63)), (10, 1), True),
    ("l5_K15mK5", ((59, 59, 59), (0, 20, 40)), (5, 10), True),
    ("l5_K15mK5", ((59, 0, 59), (0, 5, 40)), (5, 10), False),
], ids=["K444", "K444-one-descending", "K16x16", "K6x10-one-descending", "v11-fixed-point", "K15mK5-holed",
        "K15mK5-mixed"])
def test_a_batch_assembles_as_its_expansion(monkeypatch, key, starts, widths, whole):
    # a batch whose runs lie in one order in every placement is emitted from
    # its image table, and places every placement as the oracle does, a
    # complete pair's runs laid end to end as its one part (the group
    # columns, then the shared fixed point), a holed pair's hole (the shared
    # fixed points) above the rest; one table cannot emit any other batch
    # canonically, so it is refused by key
    monkeypatch.setattr(construct, "verify_cover", lambda v, hosts, m: VerificationReport())
    pair = get_ingredient(key)
    batch = Batch(starts, widths)
    assert batch.whole(64, 1) == whole
    plan = ConstructionPlan(int(key[1]), 64, "one-placement", ())
    if whole:
        got = _assemble(plan, None, [(key, batch)])
        for system, built in zip((pair.first, pair.second), (got.first, got.second)):
            want = chain.from_iterable(placed_cycles(system.cycles, parts) for parts, _ in batch.expand())
            assert list(built.cycles) == sorted(want)
    else:
        with pytest.raises(ValueError, match=f"batch {key} is refused: its runs change order"):
            _assemble(plan, None, [(key, batch)])
    with pytest.raises(ValueError, match="disagree with the host parts"):
        _assemble(plan, None, [(key, batch._replace(widths=batch.widths[::-1] + (1,)))])


def test_a_cover_valid_batch_whose_runs_change_order_is_refused_after_the_cover(monkeypatch):
    # parts 0 and 1 of the second K444 block swapped: the hosts still cover
    # K_49 exactly, but the block's runs no longer keep one order, so the
    # batch is refused by key once the cover has passed, before any ranked
    # template or emission
    plan = plan_for(6, 49)
    labels, placements, cross_parts = _placements(plan)
    key, blocks = placements[-1]
    assert key == "l6_K444" and blocks.whole(49, 1)
    a, b = blocks.starts[0][1], blocks.starts[1][1]
    placements = _moved(_moved(placements, -1, 0, 1, b), -1, 1, 1, a)
    assert not placements[-1][1].whole(49, 1)
    events, cover = [], construct.verify_cover

    def covered(v, hosts, m):
        report = cover(v, hosts, m)
        events.append(("verify_cover", report.ok))
        return report

    monkeypatch.setattr(construct, "verify_cover", covered)
    monkeypatch.setattr(construct, "_ranked", lambda *args: events.append("_ranked"))
    monkeypatch.setattr(construct, "_emit", lambda *args: events.append("_emit"))
    with pytest.raises(ValueError, match="batch l6_K444 is refused: its runs change order"):
        construct._emit(plan, *construct._certify(plan, labels, placements, cross_parts))
    assert events == [("verify_cover", True)]


def test_a_batch_of_a_complete_pair_takes_its_inner_part_from_the_layout():
    # the batch says no part is inner; the cover counts the edges inside
    # K_11's one part because assembly takes inner from the catalog host
    plan = ConstructionPlan(5, 11, "one-placement", (), h=1)
    got = _assemble(plan, None, [("l5_v11", Batch(((0,),), (11,)))])
    pair = get_ingredient("l5_v11")
    assert (got.first.cycles, got.second.cycles) == (pair.first.cycles, pair.second.cycles)


def test_assembly_with_a_placement_dropped_raises_through_the_verifier(monkeypatch):
    plan = plan_for(9, 91)
    checked, check = [], VerificationReport.check

    def spy(report, what):
        checked.append(what)
        check(report, what)

    _placements(plan)  # the scaffold checks itself once, when it is first built
    monkeypatch.setattr(VerificationReport, "check", spy)
    labels, placements, cross_parts = _placements(plan)
    construct._ingredient.cache_clear()
    assert verify_pair(_assemble(plan, labels, placements, cross_parts), 9).ok
    construct._ingredient.cache_clear()
    with pytest.raises(AssertionError, match=r"assembled pair is invalid \(bug\): \d+ edge deficits"):
        _assemble(plan, labels, _dropped(placements), cross_parts)
    # per assembly, each catalog key placed as it is resolved, then the cover
    # of the whole
    keys = ["catalog pair l9_v37", "catalog pair l9_v19", "catalog pair l9_K999"]
    assert checked == [*keys, "assembled pair"] * 2


@pytest.mark.parametrize("l,v", [(5, 31), (6, 25), (8, 33), (9, 55), (6, 45)],
                         ids=["quasigroup-columns", "four-level-gdd", "sixteen-blocks", "nine-level-gdd",
                              "paste"])
def test_every_certificate_finishes_before_emission(monkeypatch, l, v):
    # one order per assembly route, every certificate reached: each call
    # into the verifier returns before _emit is entered, and _emit, entered
    # once, checks nothing
    events = []

    def spied(name, fn):
        def call(*args):
            events.append((name, "enter"))
            result = fn(*args)
            events.append((name, "exit"))
            return result
        return call

    for name in ("verify_cover", "verify_orbits", "verify_pair", "_emit"):
        monkeypatch.setattr(construct, name, spied(name, getattr(construct, name)))
    monkeypatch.setattr(VerificationReport, "check", spied("check", VerificationReport.check))
    _quasigroup_cross.cache_clear()
    construct._ingredient.cache_clear()
    pair = construct_pair(l, v)
    monkeypatch.undo()
    entered = events.index(("_emit", "enter"))
    assert events[entered:] == [("_emit", "enter"), ("_emit", "exit")]
    certified = {name for name, _ in events[:entered]}
    assert certified - {"verify_orbits"} == {"verify_cover", "verify_pair", "check"}
    assert ("verify_orbits" in certified) == (l in (5, 7))
    assert verify_pair(pair, l).ok


def test_a_refused_assembly_never_reaches_emission(monkeypatch):
    # a placement dropped fails the cover, and a refused catalog key is not
    # cached: it is verified and refused again on the next assembly
    emitted, verified, placements = [], [], construct._placements

    def dropped(plan):
        labels, placed, cross_parts = placements(plan)
        return labels, _dropped(placed), cross_parts

    monkeypatch.setattr(construct, "_emit", lambda *args: emitted.append(args))
    monkeypatch.setattr(construct, "_placements", dropped)
    with pytest.raises(AssertionError, match=r"assembled pair is invalid \(bug\): \d+ edge deficits"):
        construct_pair(9, 91)
    monkeypatch.setattr(construct, "_placements", placements)
    real = get_ingredient("l9_K999")
    fake = OrthogonalPair(real.spec, real.first, real.first)
    monkeypatch.setattr(construct, "get_ingredient",
                        lambda key: fake if key == "l9_K999" else get_ingredient(key))
    monkeypatch.setattr(construct, "verify_pair",
                        lambda pair, l: verified.append(pair.spec.v) or verify_pair(pair, l))
    construct._ingredient.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(AssertionError, match=r"catalog pair l9_K999 is invalid \(bug\)"):
                construct_pair(9, 55)
    finally:
        monkeypatch.undo()
        construct._ingredient.cache_clear()
    # l9_v19 once, then l9_K999 on each assembly
    assert verified == [19, 27, 27] and emitted == []
    assert verify_pair(construct_pair(9, 55), 9).ok


def _refused(plan, labels, placements, cross_parts=(),
             match=r"assembled pair is invalid \(bug\)"):
    with pytest.raises(AssertionError, match=match):
        _assemble(plan, labels, placements, cross_parts)


def test_assembly_with_target_lists_swapped_between_blocks_is_refused():
    # the first starts of blocks 0 and 3 swapped in the blocks' batch
    plan = plan_for(9, 91)
    labels, placements, cross_parts = _placements(plan)
    key, blocks = placements[-1]
    assert key == "l9_K999"
    ta, tb = (tuple(col[j] for col in blocks.starts) for j in (0, 3))
    assert ta[0] != tb[0] and ta[1:] != tb[1:]  # two triples through different points
    placements = _moved(_moved(placements, -1, 0, 0, tb[0]), -1, 0, 3, ta[0])
    _refused(plan, labels, placements, cross_parts)


def test_assembly_with_a_wrong_group_key_is_refused():
    plan = plan_for(5, 35)
    assert plan.group_keys == ("l5_v15", "l5_K15mK5", "l5_K15mK5")
    # a complete pair where a holed one belongs covers the fixed points twice
    wrong = plan._replace(group_keys=("l5_v15", "l5_v15", "l5_K15mK5"))
    _refused(wrong, *_placements(wrong), match=r"assembled pair is invalid \(bug\): 1 edge deficits")
    # a pair of another cycle length fails its own check
    paste = plan_for(6, 45)._replace(group_keys=("l5_v21",))
    with pytest.raises(AssertionError, match=r"catalog pair l5_v21 is invalid \(bug\)"):
        _assemble(paste, *_placements(paste))


def test_assembly_with_a_part_repeating_a_vertex_of_its_atom_is_refused():
    # the first group's fixed points moved onto its columns' second atom: the
    # complete key's one part, its two runs laid end to end, keeps its size
    # and repeats the vertices of that atom; the cover sees the runs as two
    # parts of whole atoms, so only the shared atom tells them apart (host 3:
    # the three hole pairs of the cross host come first)
    plan = plan_for(5, 35)
    labels, placements, cross_parts = _placements(plan)
    key, groups = placements[0]
    assert key == "l5_v15" and groups.starts == ((0,), (30,)) and groups.widths == (10, 5)
    placements = _moved(placements, 0, 1, 0, 5)
    _refused(plan, labels, placements, cross_parts,
             match=r"first defect \(\(3, 1\), 'part \[5, 6, 7, 8, 9\] shares a run with another part'\)")


@pytest.mark.parametrize("start", [87, -4], ids=["past-v", "below-0"])
def test_assembly_with_targets_off_the_vertex_range_is_refused_before_storing(monkeypatch, start):
    # the certificate is the only range check on the assembled cycles, so it
    # must refuse the placement before any system is stored
    plan = plan_for(9, 91)
    labels, placements, cross_parts = _placements(plan)
    stored, of_canonical = [], CycleSystem._of_canonical
    monkeypatch.setattr(CycleSystem, "_of_canonical",
                        lambda *args, **kw: stored.append(args) or of_canonical(*args, **kw))
    assert verify_pair(_assemble(plan, labels, placements, cross_parts), 9).ok and len(stored) == 2
    # the last block's last part keeps its size of 9, and runs past 90 or below 0
    placements = _moved(placements, -1, 2, -1, start)
    stored.clear()
    _refused(plan, labels, placements, cross_parts, match=r"\(bug\): .* leaves the vertex range 0\.\.90")
    assert stored == []


def test_a_catalog_host_renumbered_off_its_layout_is_refused(monkeypatch):
    # moved off {0..f-1}, the hole no longer lies where placement lays the
    # fixed points; the pair itself stays valid, so only the layout check,
    # run next to the catalog pair's own verification, can refuse it
    holed = get_ingredient("l5_K15mK5")
    f, v = len(holed.spec.hole), holed.spec.v
    spec = GraphSpec("complete_minus_hole", holed.spec.labels,
                     hole=frozenset((x + f) % v for x in holed.spec.hole))
    moved = OrthogonalPair(spec, *(CycleSystem(spec, [[(x + f) % v for x in c] for c in s.cycles])
                                   for s in (holed.first, holed.second)))
    assert verify_pair(moved, 5).ok and spec.hole == frozenset(range(f, 2 * f))
    monkeypatch.setattr(construct, "get_ingredient",
                        lambda key: moved if key == "l5_K15mK5" else get_ingredient(key))
    construct._ingredient.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"catalog pair l5_K15mK5 is invalid \(bug\): "
                                                 r"its host's parts are not numbered from 0"):
            construct_pair(5, 35)
    finally:
        monkeypatch.undo()
        construct._ingredient.cache_clear()
    assert verify_pair(construct_pair(5, 35), 5).ok


@pytest.mark.parametrize("wrong", ["latin-square-triangles", "first-system-twice"])
def test_a_catalog_entry_of_the_right_shape_but_the_wrong_content_is_refused(monkeypatch, wrong):
    # on l9_K999's own K_{9,9,9} host, so the layout check passes and only
    # the catalog pair's verification can refuse it
    real = get_ingredient("l9_K999")
    spec = real.spec
    a, b, c = spec.parts
    if wrong == "latin-square-triangles":
        # the triangles {a_i, b_j, c_(i + s*j)} of the Latin squares i + j and
        # i + 2j mod 9: each system covers the host, with cycles of length 3
        fake = OrthogonalPair(spec, *(CycleSystem(spec, [(a[i], b[j], c[(i + s * j) % 9])
                                                         for i in range(9) for j in range(9)])
                                      for s in (1, 2)))
        report = verify_pair(fake, 3)
        assert not report.edge_deficits and not report.bad_cycles
    else:
        fake = OrthogonalPair(spec, real.first, real.first)
        report = verify_pair(fake, 9)
        assert not report.edge_deficits and not report.bad_cycles
        assert report.max_cross_intersection == 9
    monkeypatch.setattr(construct, "get_ingredient",
                        lambda key: fake if key == "l9_K999" else get_ingredient(key))
    construct._ingredient.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"catalog pair l9_K999 is invalid \(bug\)"):
            construct_pair(9, 55)
    finally:
        monkeypatch.undo()
        construct._ingredient.cache_clear()
    assert verify_pair(construct_pair(9, 55), 9).ok


def test_assembly_on_a_broken_scaffold_triple_is_refused(monkeypatch):
    plan = plan_for(9, 55)
    triples = list(build_gdd(plan.group_sizes).triples)
    assert triples[0] == (0, 2, 4)
    triples[0] = (0, 2, 5)  # the pairs {0, 5} and {2, 5} now twice, {0, 4} and {2, 4} never
    monkeypatch.setattr(construct, "build_gdd",
                        lambda sizes: GroupDivisibleDesign(sizes, tuple(triples)))
    _refused(plan, *_placements(plan), match=r"assembled pair is invalid \(bug\): \d+ edge deficits")


def _cross_with(monkeypatch, l, edit):
    """_quasigroup_cross on three holes, with its bases edited on their way
    to the certificate; the cache is cleared so that each call reaches it."""
    def edited(spec, length, m, first, second):
        return verify_orbits(spec, length, m, *edit(list(first), list(second)))

    monkeypatch.setattr(construct, "verify_orbits", edited)
    _quasigroup_cross.cache_clear()
    return _quasigroup_cross(l, 3)


def _swap_two(c):
    return (c[1], c[0], *c[2:])


# edits of the cross bases on their way to the certificate, and the refusal
_BASE_EDITS = {
    "base-with-two-vertices-swapped": (lambda f, s: (f[:3] + [_swap_two(f[3])] + f[4:], s),
                                       r"[1-9]\d* edge deficits"),
    "second-bases-equal-first": (lambda f, s: (f, f),
                                 r"0 edge deficits, 0 bad cycles, max cross intersection [3-7]"),
    "base-dropped": (lambda f, s: (f, s[:-1]), r"[1-9]\d* edge deficits"),
    "base-vertex-past-the-host": (lambda f, s: (f[:3] + [(*f[3][:-1], 1000)] + f[4:], s),
                                  r"[1-9]\d* edge deficits, 1 bad cycles, .* leaves the vertex range"),
}


@pytest.mark.parametrize("l", [5, 7])
@pytest.mark.parametrize("edit, match", list(_BASE_EDITS.values()), ids=list(_BASE_EDITS))
def test_cross_certificate_refuses_mutated_bases(monkeypatch, l, edit, match):
    assert all(_cross_with(monkeypatch, l, lambda f, s: (f, s)))
    with pytest.raises(AssertionError, match=r"cross cycles is invalid \(bug\): " + match):
        _cross_with(monkeypatch, l, edit)


@pytest.mark.parametrize("l", [5, 7])
def test_cross_certificate_reports_as_the_earlier_implementation(monkeypatch, l):
    # the bases _quasigroup_cross certifies for k = 3..6, as built and under
    # each edit above: the one-pass certificate gives the very same report
    calls = []
    monkeypatch.setattr(construct, "verify_orbits",
                        lambda *args: calls.append(args) or verify_orbits(*args))
    for k in range(3, 7):
        _quasigroup_cross.cache_clear()
        _quasigroup_cross(l, k)
    monkeypatch.undo()
    _quasigroup_cross.cache_clear()
    assert len(calls) == 4
    for spec, length, m, first, second in calls:
        for edit in [lambda f, s: (f, s)] + [edit for edit, _ in _BASE_EDITS.values()]:
            bases = edit(list(first), list(second))
            got = verify_orbits(spec, length, m, *bases)
            want = orbits_report(spec, length, m, *bases)
            assert repr(report_fields(got)) == repr(want), (l, spec.v)


@pytest.mark.parametrize("l", [5, 7])
def test_cross_bases_are_the_earlier_layout(monkeypatch, l):
    # the bases _quasigroup_cross hands to its certificate, in order; k = 3..20
    # takes all three quasigroup constructions (odd k, k = 0 or 1 mod 3, the rest)
    calls = []
    monkeypatch.setattr(construct, "verify_orbits",
                        lambda *args: calls.append(tuple(map(list, args[3:]))) or verify_orbits(*args))
    for k in range(3, 21):
        _quasigroup_cross.cache_clear()
        _quasigroup_cross(l, k)
        assert calls.pop() == cross_bases(l, build_quasigroup_with_holes(k).table), (l, k)
    monkeypatch.undo()
    _quasigroup_cross.cache_clear()


def test_cross_cycles_are_built_and_certified_once_per_l_and_k(monkeypatch):
    calls = []
    monkeypatch.setattr(construct, "verify_orbits",
                        lambda spec, l, *args: calls.append((l, spec.v // (2 * l)))
                        or verify_orbits(spec, l, *args))
    _quasigroup_cross.cache_clear()
    plans = [plan_for(l, v) for l, v in _sweep() if l in (5, 7)]
    plans = [p for p in plans if p.route == "quasigroup-columns"]
    assert len(plans) == 58
    for plan in plans:
        construct_pair(plan.l, plan.v)
    # the cross host has l columns per symbol, 2k symbols
    assert sorted(calls) == sorted({(p.l, p.k) for p in plans})
    assert len(calls) == 30
    # (5, 191) and (5, 195) share k = 19 and so the very same cross cycles
    for v in (191, 195):
        assert verify_pair(construct_pair(5, v), 5).ok
    cross = _quasigroup_cross(5, 19)
    assert type(cross[0]) is tuple and type(cross[1]) is tuple
    # each cached system is presorted, so an assembly merges it as one run
    for l, k in set(calls):
        for system in _quasigroup_cross(l, k):
            assert list(system) == sorted(system), (l, k)


def test_assembly_runs_the_full_verifier_once_per_catalog_key(monkeypatch):
    sizes = []
    monkeypatch.setattr(construct, "verify_pair",
                        lambda pair, l: sizes.append(pair.spec.v) or verify_pair(pair, l))
    construct._ingredient.cache_clear()
    for l, v in ((5, 31), (5, 41), (5, 51), (8, 33), (8, 49), (6, 45)):
        construct_pair(l, v)
    # l5_v11; l8_v17 and l8_K16x16; for (6, 45) first its order-25 layout's
    # l6_v9 and l6_K444, then l6_v21 and l6_K6x10
    assert sizes == [11, 17, 32, 9, 12, 21, 16]


def _readme_admissible(l, v):
    # the README's spectrum: v odd, v >= l, and 2l divides v(v-1)
    return v % 2 == 1 and v >= l and v * (v - 1) % (2 * l) == 0


def test_spectrum_matches_the_readme_formula():
    for l in range(5, 10):
        assert [v for v in range(2001) if admissible(l, v)] == [
            v for v in range(2001) if _readme_admissible(l, v)]


@pytest.mark.parametrize("l", range(5, 10))
def test_search_refuses_exactly_off_the_spectrum(l):
    # on the spectrum a one-node budget returns at once, whatever the engine
    for v in range(61):
        if _readme_admissible(l, v):
            res = search_pair(complete(v), l, SearchBudget(max_nodes=1))
            assert res.status in ("exhausted", "unsatisfiable") and res.nodes <= 1
        else:
            with pytest.raises(ValueError, match="can exist"):
                search_pair(complete(v), l, SearchBudget(max_nodes=1))


def _sweep():
    return [(l, v) for l in range(5, 10) for v in _admissible_orders(l)
            if (l, v) not in UNSATISFIABLE]


def test_a_cold_sweep_certifies_every_layout_from_its_columns(monkeypatch):
    # over the 132 orders, from cold scaffold caches: verify_cover walks no
    # host of a layout part by part, a holed key's ranked template cycles
    # are built once per process, and the quasigroup route builds its
    # point-deletion design beside build_gdd, whose one entry the GDD routes
    # keep (pinned counts: every quasigroup build is a miss)
    walks, ranked, walk, rank = [], [], verify._host_atoms, construct._ranked.__wrapped__

    def walked(parts, v, m, tag, bad):
        walks.append(tag)
        return walk(parts, v, m, tag, bad)

    def built(key, l, order):
        if order != tuple(range(len(order))):
            ranked.append(key)
        return rank(key, l, order)

    monkeypatch.setattr(verify, "_host_atoms", walked)
    monkeypatch.setattr(construct, "_ranked", lru_cache(maxsize=None)(built))
    for cached in (build_gdd, build_quasigroup_with_holes, _quasigroup_cross):
        cached.cache_clear()
    for l, v in _sweep():
        construct_pair(l, v)
    assert [tag for tag in walks if tag != "host"] == []  # verify_orbits walks its cross host
    assert ranked == ["l5_K15mK5", "l7_K21mK7", "l9_K27mK9"]
    assert (build_gdd.cache_info().misses, build_quasigroup_with_holes.cache_info().misses) == (39, 30)


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
            cy, cz = col[y], col[q.table[x][y]]
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
        for got, want in zip(_quasigroup_cross(l, k), _template_cross(l, build_quasigroup_with_holes(k)),
                             strict=True):
            assert sorted(got) == sorted(map(canonical_cycle, want)), (l, k)
        # the cross host: per pair of holes i < j, a K_{2l,2l} on their two
        # columns of height l each
        host = _placements(plan_for(l, 2 * l * k + 1))[2]
        hole = [list(range(2 * l * i, 2 * l * (i + 1))) for i in range(k)]
        assert [(list(map(list, parts)), inner) for parts, inner in host.expand()] == [
            ([hole[i], hole[j]], ()) for i, j in combinations(range(k), 2)]


@pytest.mark.parametrize("l,v", [(5, 35), (7, 49), (9, 63)])
def test_holed_placement_matches_per_cycle_canonicalisation(l, v):
    plan = plan_for(l, v)
    labels, placements, cross_parts = _placements(plan)
    blocks = [(get_ingredient(key), list(chain.from_iterable(targets)))
              for key, targets in _flat(placements)]
    # the hole goes onto the fixed points, the highest ids: not an increasing map
    holed = [m for block, m in blocks if block.spec.kind == "complete_minus_hole"]
    assert holed and all(m != sorted(m) for m in holed)
    spec = complete(v, labels)
    pair = construct_pair(l, v)
    cross = _quasigroup_cross(l, plan.k) if cross_parts else ((), ())
    for i, (system, generated) in enumerate(zip((pair.first, pair.second), cross)):
        cycles = list(generated)
        for block, m in blocks:
            cycles += [tuple(map(m.__getitem__, c)) for c in (block.first, block.second)[i].cycles]
        assert system == CycleSystem(spec, cycles)


def test_assembled_sweep_orders_are_the_cross_and_the_per_placement_cycles():
    # every assembled order of the sweep, all five routes, against the
    # per-placement emission kept in the oracles
    routes = set()
    for l, v in _sweep():
        plan = plan_for(l, v)
        if plan.route == "catalog":
            continue
        routes.add(plan.route)
        labels, placements, cross_parts = _placements(plan)
        pair = construct_pair(l, v)
        cross = _quasigroup_cross(l, plan.k) if cross_parts else ((), ())
        for i, (system, generated) in enumerate(zip((pair.first, pair.second), cross)):
            cycles = list(generated)
            for key, targets in _flat(placements):
                cycles += placed_cycles((get_ingredient(key).first, get_ingredient(key).second)[i].cycles,
                                        targets)
            assert system == CycleSystem(complete(v, labels), cycles), (l, v)
    assert routes == {"quasigroup-columns", "four-level-gdd", "sixteen-blocks", "nine-level-gdd", "paste"}


def test_canonical_constructor_sorts():
    # the vertex range of certified cycles is the certificate's to check
    # (test_assembly_with_targets_off_the_vertex_range_is_refused_before_storing)
    spec = complete(5)
    system = CycleSystem._of_canonical(spec, [(1, 2, 4), (0, 3, 4), (0, 1, 2)])
    assert system == CycleSystem(spec, [(4, 2, 1), (3, 4, 0), (2, 0, 1)])


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
