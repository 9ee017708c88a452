from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import cycle_edges, graph_edges
from orthocycles.catalog import cycle_length, get_ingredient
from orthocycles.core import CycleSystem, GraphSpec, OrthogonalPair, complete
from orthocycles.verify import VerificationReport, verify_decomposition, verify_pair

# K5 decomposes into two 5-cycles, and this particular pair shares <= 1 edge
# cycle against cycle, so it doubles as a tiny orthogonality fixture.
K5_FIRST = [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3)]


def brute_orthogonal(sys_a, sys_b):
    worst = 0
    for ca in sys_a.cycles:
        for cb in sys_b.cycles:
            worst = max(worst, len(cycle_edges(ca) & cycle_edges(cb)))
    return worst


def test_k5_decomposition_ok():
    sys = CycleSystem(complete(5), K5_FIRST)
    rep = verify_decomposition(sys, 5)
    assert rep.ok and not rep.edge_deficits and not rep.bad_cycles


def test_missing_cycle_reports_every_uncovered_edge():
    sys = CycleSystem(complete(5), K5_FIRST[:1])
    rep = verify_decomposition(sys, 5)
    assert not rep.ok
    assert set(rep.edge_deficits) == cycle_edges(K5_FIRST[1])
    assert all(d == -1 for d in rep.edge_deficits.values())


def test_duplicated_cycle_reports_overcover():
    sys = CycleSystem(complete(5), K5_FIRST + [(0, 1, 2, 4, 3)])
    rep = verify_decomposition(sys, 5)
    assert not rep.ok
    assert all(d in (-1, 1) for d in rep.edge_deficits.values())
    assert sum(d for d in rep.edge_deficits.values() if d > 0) == 5


def test_wrong_length_flagged():
    spec = complete(4)
    sys = CycleSystem(spec, [(0, 1, 2), (0, 2, 3), (0, 3, 1)])
    rep = verify_decomposition(sys, 4)
    assert not rep.ok
    assert len(rep.bad_cycles) == 3
    # the 3-cycles do cover K4 minus nothing?  no: they cover each edge of K4
    # except (1,2),(2,3),(1,3) twice... just check deficits are reported too
    assert rep.edge_deficits


def multipartite(sizes):
    """Host with consecutive parts of the given sizes."""
    bounds = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    return GraphSpec("multipartite", tuple(map(str, range(bounds[-1]))),
                     parts=tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))


def test_foreign_edge_flagged():
    spec = multipartite((2, 2))
    sys = CycleSystem(spec, [(0, 1, 2, 3)])  # uses same-part edges (0,1),(2,3)
    rep = verify_decomposition(sys, 4)
    assert not rep.ok
    assert rep.edge_deficits[(0, 1)] == 1
    assert rep.edge_deficits[(2, 3)] == 1


def test_orthogonality_detects_two_shared_edges():
    spec = complete(6)
    a = CycleSystem(spec, [(0, 1, 2, 3, 4)])
    b = CycleSystem(spec, [(0, 1, 2, 3, 5)])  # shares edges 01, 12, 23
    rep = verify_pair(OrthogonalPair(spec, a, b), 5)
    assert not rep.ok
    assert rep.max_cross_intersection == 3
    assert rep.witness == (0, 0)


def test_orthogonal_pair_end_to_end():
    # K_{4,4}: row pairing vs diagonal pairing shares exactly one edge
    # between any two cross cycles.
    spec = multipartite((4, 4))
    pair = OrthogonalPair(
        spec,
        CycleSystem(spec, [(0, 4, 1, 5), (2, 6, 3, 7), (0, 6, 1, 7), (2, 4, 3, 5)]),
        CycleSystem(spec, [(0, 4, 2, 6), (1, 4, 3, 6), (0, 5, 2, 7), (1, 5, 3, 7)]),
    )
    assert brute_orthogonal(pair.first, pair.second) == 1
    rep = verify_pair(pair, 4)
    assert rep.ok
    assert rep.max_cross_intersection == 1


def test_pair_with_wrong_cycle_count_reports_it():
    spec = complete(5)
    pair = OrthogonalPair(
        spec,
        CycleSystem(spec, K5_FIRST),
        CycleSystem(spec, K5_FIRST[:1]),
    )
    rep = verify_pair(pair, 5)
    assert not rep.ok
    assert any(tag == ("second", None) for tag, _ in rep.bad_cycles)


@st.composite
def random_systems(draw):
    v = draw(st.integers(5, 8))
    spec = complete(v)
    verts = st.lists(st.integers(0, v - 1), min_size=4, max_size=5, unique=True)
    a = CycleSystem(spec, [draw(verts) for _ in range(draw(st.integers(1, 4)))])
    b = CycleSystem(spec, [draw(verts) for _ in range(draw(st.integers(1, 4)))])
    return a, b


@given(random_systems())
@settings(max_examples=150)
def test_orthogonality_matches_bruteforce(systems):
    a, b = systems
    rep = verify_pair(OrthogonalPair(a.spec, a, b), 5)
    worst = brute_orthogonal(a, b)
    assert rep.max_cross_intersection == worst
    assert worst <= 1 or not rep.ok


def test_pair_report_keeps_each_systems_deficits_apart():
    # both systems miss the same cycle: 5 deficits each, none overwritten
    spec = complete(5)
    half = CycleSystem(spec, K5_FIRST[:1])
    rep = verify_pair(OrthogonalPair(spec, half, half), 5)
    assert not rep.ok
    assert len(rep.edge_deficits) == 10
    assert Counter(tag for tag, _ in rep.edge_deficits) == {"first": 5, "second": 5}
    for tag in ("first", "second"):
        missing = {e for t, e in rep.edge_deficits if t == tag}
        assert missing == cycle_edges(K5_FIRST[1])
    assert all(d == -1 for d in rep.edge_deficits.values())


def raw(spec, cycles):
    """A system as written, not canonicalised (CycleSystem would refuse it)."""
    return SimpleNamespace(spec=spec, cycles=[tuple(c) for c in cycles])


def test_raw_cycles_with_a_loop_or_repeat_are_reported_not_raised():
    spec = complete(5)
    looped = raw(spec, [(0, 1, 2, 3, 0), K5_FIRST[1]])
    repeated = raw(spec, [(0, 1, 2, 0, 3), K5_FIRST[1]])
    for system, word in ((looped, "loop"), (repeated, "repeated vertex")):
        pair = SimpleNamespace(spec=spec, first=system, second=raw(spec, K5_FIRST))
        rep = verify_pair(pair, 5)
        assert not rep.ok
        [(where, reason)] = rep.bad_cycles
        assert where == ("first", 0) and reason.startswith(word)
        # the defective cycle covers nothing, so its five edges are missing
        assert {e for _, e in rep.edge_deficits} == cycle_edges(K5_FIRST[0])
        # and it is skipped when counting shared edges: counted, it would
        # share three edges with (0, 1, 2, 3, 4)
        pair = SimpleNamespace(spec=spec, first=system, second=raw(spec, K5_FIRST[:1]))
        assert verify_pair(pair, 5).max_cross_intersection == 0


def test_short_and_out_of_range_cycles_are_reported():
    spec = complete(5)
    system = raw(spec, [(0, 1), (0, 1, 9), (), K5_FIRST[1]])
    rep = verify_decomposition(system, 5)
    reasons = dict(rep.bad_cycles)
    assert "at least 3 vertices" in reasons[("", 0)]
    assert "vertex range" in reasons[("", 1)]
    assert "at least 3 vertices" in reasons[("", 2)]
    assert not rep.ok


# ------------------------------------------------- differential reference

def reference_decomposition(system, length):
    """The frozenset/Counter verifier the integer-id scan replaced, per system."""
    ok = all(len(c) == length for c in system.cycles)
    covered = Counter()
    for c in system.cycles:
        covered.update(cycle_edges(c))
    deficits = {}
    for e in graph_edges(system.spec):
        got = covered.pop(e, 0)
        if got != 1:
            deficits[e] = got - 1
    deficits.update(covered)  # edges outside the host
    return ok and not deficits, deficits


def reference_cross(first, second):
    owners: dict = {}
    for j, c in enumerate(second.cycles):
        for e in cycle_edges(c):
            owners.setdefault(e, []).append(j)
    worst = 0
    for c in first.cycles:
        shared = Counter(j for e in cycle_edges(c) for j in owners.get(e, ()))
        worst = max(worst, max(shared.values(), default=0))
    return worst


HOSTS = (
    lambda v: complete(v),
    lambda v: GraphSpec("complete_minus_hole", complete(v).labels,
                        hole=frozenset(range(v - 3, v))),
    lambda v: multipartite((v // 2, v - v // 2)),
    lambda v: multipartite((2,) * (v // 2) + (v % 2,) * (v % 2)),
)


@st.composite
def random_pairs(draw):
    """Random cycles on a random host, with the length the check expects."""
    v = draw(st.integers(5, 9))
    spec = draw(st.sampled_from(HOSTS))(v)
    length = draw(st.integers(3, 6))
    verts = st.lists(st.integers(0, v - 1), min_size=3, max_size=6, unique=True)
    systems = [CycleSystem(spec, draw(st.lists(verts, max_size=8))) for _ in range(2)]
    return OrthogonalPair(spec, *systems), length


SMALL_KEYS = ("l3_v7", "l5_v11", "l5_K15mK5", "l6_v9", "l6_K444", "l6_K6x10", "l7_v15")


@st.composite
def mutated_catalog_pairs(draw):
    """A verified catalog pair with zero to three random edits."""
    key = draw(st.sampled_from(SMALL_KEYS))
    pair = get_ingredient(key)
    spec = pair.spec
    systems = [list(pair.first.cycles), list(pair.second.cycles)]
    for _ in range(draw(st.integers(0, 3))):
        cycles = systems[draw(st.integers(0, 1))]
        kind = draw(st.sampled_from(("drop", "duplicate", "swap", "replace")))
        k = draw(st.integers(0, len(cycles) - 1))
        if kind == "drop" and len(cycles) > 1:
            del cycles[k]
        elif kind == "duplicate":
            cycles.append(cycles[k])
        elif kind == "swap":
            c = list(cycles[k])
            i, j = draw(st.lists(st.integers(0, len(c) - 1), min_size=2, max_size=2, unique=True))
            c[i], c[j] = c[j], c[i]
            cycles[k] = tuple(c)
        elif kind == "replace":
            cycles[k] = tuple(draw(st.lists(st.integers(0, spec.v - 1), min_size=3,
                                            max_size=cycle_length(key), unique=True)))
    return OrthogonalPair(spec, *(CycleSystem(spec, c) for c in systems)), cycle_length(key)


@given(st.one_of(random_pairs(), mutated_catalog_pairs()))
@settings(max_examples=300, deadline=None)
def test_scan_agrees_with_the_reference_verifier(case):
    pair, length = case
    rep = verify_pair(pair, length)
    want_ok, want_deficits = True, {}
    for tag, system in (("first", pair.first), ("second", pair.second)):
        ok, deficits = reference_decomposition(system, length)
        want_deficits.update({(tag, e): d for e, d in deficits.items()})
        want_ok &= ok and length * len(system.cycles) == len(graph_edges(pair.spec))
        single = verify_decomposition(system, length, tag=tag)
        assert single.ok == ok
        assert single.edge_deficits == deficits
    worst = reference_cross(pair.first, pair.second)
    assert rep.edge_deficits == want_deficits
    assert rep.max_cross_intersection == worst
    assert rep.ok == (want_ok and worst <= 1)


def test_each_report_gets_fresh_containers():
    a, b = VerificationReport(), VerificationReport()
    a.edge_deficits[("first", 1)] = -1
    a.bad_cycles.append((("first", 0), "why"))
    a.ok = False
    assert (b.ok, b.edge_deficits, b.bad_cycles, b.max_cross_intersection, b.witness) == (
        True, {}, [], 0, None)
    c = VerificationReport(ok=False, max_cross_intersection=2, witness=(0, 1))
    assert (c.ok, c.edge_deficits, c.bad_cycles, c.max_cross_intersection, c.witness) == (
        False, {}, [], 2, (0, 1))

