import ast
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import random

from oracles import (cross, cross_bases, cycle_edges, graph_edges, host_cover_is_exact, orbits_report,
                     report_fields, scan)
from orthocycles import verify
from orthocycles.auxiliary import build_quasigroup_with_holes
from orthocycles.catalog import cycle_length, get_ingredient
from orthocycles.core import CycleSystem, GraphSpec, OrthogonalPair, complete
from orthocycles.verify import (Batch, VerificationReport, verify_cover, verify_decomposition,
                                verify_orbits, verify_pair)

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


def test_a_pair_sharing_exactly_two_edges_is_refused():
    # the first system of l5_v11 against a relabelled copy, the first copy of
    # a seeded search that shares at most two edges cycle against cycle
    pair, rng = get_ingredient("l5_v11"), random.Random(5)
    while True:
        at = list(range(11))
        rng.shuffle(at)
        copy = raw(pair.spec, [[at[x] for x in c] for c in pair.first.cycles])
        if brute_orthogonal(pair.first, copy) == 2:
            break
    rep = verify_pair(SimpleNamespace(spec=pair.spec, first=pair.first, second=copy), 5)
    assert (rep.edge_deficits, rep.bad_cycles, rep.max_cross_intersection) == ({}, [], 2)
    assert not rep.ok


def _owned_ids(v, *cycles):
    return [[min(a, b) * v + max(a, b) for a, b in zip(c, c[1:] + c[:1])] for c in cycles]


def test_cross_counts_a_twice_covered_edge_against_both_owners():
    # second cycles 0 and 1 both hold {0, 1}: the first cycle's edges have
    # distinct owners, the fast path's shape, yet it meets cycle 1 in {0, 1}
    # and {1, 2}
    first, second = _owned_ids(6, (0, 1, 2)), _owned_ids(6, (0, 1, 3), (1, 2, 4, 0))
    assert verify._cross(first, second, 6) == cross(first, second, 6) == (2, (0, 1))


def test_cross_counts_no_owner_for_an_edge_the_second_system_misses():
    # of the first cycle 0, only {0, 1} is covered, by second cycle 1; of the
    # first cycle 1, only {4, 5}, by second cycle 0
    first = _owned_ids(6, (0, 1, 2), (3, 4, 5))
    second = _owned_ids(6, (2, 4, 5), (0, 1, 3))
    assert verify._cross(first, second, 6) == cross(first, second, 6) == (1, (0, 1))
    assert verify._cross(first[:1], second[:1], 6) == (0, None)


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


def test_a_loop_at_every_position_is_named_a_loop():
    # the loop between positions i and i + 1 of a 4-cycle, the last one
    # between the cycle's last vertex and its first
    for i in range(4):
        cyc = [0, 1, 2, 3]
        cyc[(i + 1) % 4] = cyc[i]
        [(where, reason)] = verify_decomposition(raw(complete(5), [cyc]), 4).bad_cycles
        assert reason == f"loop at vertex {cyc[i]} in cycle {tuple(cyc)}", i


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


def test_verifier_imports_only_the_standard_library():
    # the root of trust shares no code with the builders it checks
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            imported.append(node.module)
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in imported), imported


def test_check_raises_the_one_bug_error_only_on_a_failed_report():
    assert repr(VerificationReport()) == ("VerificationReport(ok=True, edge_deficits={}, "
                                          "bad_cycles=[], max_cross_intersection=0, witness=None)")
    VerificationReport().check("anything")
    bad = verify_decomposition(CycleSystem(complete(5), [(0, 1, 2, 3, 4)]), 5)
    with pytest.raises(AssertionError, match=r"^built system is invalid \(bug\): 5 edge deficits, "
                                             r"0 bad cycles, max cross intersection 0, first defect"):
        bad.check("built system")
    crossed = VerificationReport(ok=False, max_cross_intersection=2, witness=(0, 3))
    with pytest.raises(AssertionError, match="max cross intersection 2, first defect None"):
        crossed.check("pair")


# ------------------------------------------------ assembly certificates

def test_cover_counts_atom_pairs_and_rejects_a_repeated_vertex():
    # K_4 on the atoms {0, 1} and {2, 3}: each atom's pair, then the 2x2 across
    halves = [([[0, 1]], (0,)), ([[2, 3]], (0,)), ([[0, 1], [2, 3]], ())]
    assert verify_cover(4, halves, 2).ok
    assert verify_cover(4, [([[1, 0, 3, 2]], (0,))], 2).ok  # any vertex order
    dropped = verify_cover(4, halves[:2], 2)
    assert dropped.edge_deficits == {(0, 1): -1} and not dropped.ok
    assert verify_cover(4, halves + halves[:1], 2).edge_deficits == {(0, 0): 1}
    # [0, 0] names atom {0, 1} by count alone, but it is no part of K_4
    repeated = verify_cover(4, [([[0, 0]], (0,))] + halves[1:], 2)
    assert repeated.bad_cycles == [((0, 0), "part [0, 0] repeats a vertex")]
    with pytest.raises(AssertionError, match="repeats a vertex"):
        repeated.check("assembled pair")
    for part, why in (([0, 4], "leaves the vertex range"), ([0, 2], "not a union of whole runs")):
        assert why in verify_cover(4, [([part], (0,))], 2).bad_cycles[0][1]
    shared = verify_cover(4, [([[0, 1], [1, 0]], ())], 2)
    assert shared.bad_cycles == [((0, 1), "part [1, 0] shares a run with another part")]


def test_cover_of_an_order_with_a_single_vertex_atom():
    # v = 5, m = 2: the atom {4} has no edge inside, so nothing need cover it
    star = [([[0, 1, 2, 3]], (0,)), ([[0, 1, 2, 3], [4]], ())]
    assert verify_cover(5, star, 2).ok
    assert verify_cover(5, star + [([[4]], (0,))], 2).ok
    assert verify_cover(5, star[:1], 2).edge_deficits == {(0, 2): -1, (1, 2): -1}


def test_cover_counts_an_inner_part_that_begins_with_a_single_vertex_atom():
    # m = 1: every atom is one vertex, with no edge inside, so an inner part
    # counts each pair of its atoms once, its first atom's pairs too; the same
    # hosts as batches report the same
    hosts = [([range(0, 3)], (0,)), ([range(0, 3), range(3, 4)], ())]
    batches = [Batch(((0,),), (3,), (0,)), Batch(((0,), (3,)), (3, 1))]
    for given in (hosts, batches):
        assert verify_cover(4, given, 1).ok
        assert verify_cover(4, given[:1], 1).edge_deficits == {(0, 3): -1, (1, 3): -1, (2, 3): -1}
    assert repr(verify_cover(4, batches[1:], 1)) == repr(verify_cover(4, hosts[1:], 1))


def _shifted(base, m, i):
    return tuple(x - x % m + (x % m + i) % m for x in base)


def _orbit_pair(spec, m, first, second):
    systems = [SimpleNamespace(cycles=[_shifted(b, m, i) for b in bases for i in range(m)])
               for bases in (first, second)]
    return SimpleNamespace(spec=spec, first=systems[0], second=systems[1])


def _triangle_bases(m, c, d=0):
    # columns 0, 1, 2 of height m: rows 0, a, c*a + d hold the classes
    # (0,1,a), (0,2,ca+d), (1,2,(c-1)a+d), each met once when c and c - 1
    # are units mod m; two such systems with one c and two d are orthogonal
    return [(0, m + a, 2 * m + (c * a + d) % m) for a in range(m)]


def test_orbits_certify_a_triangle_pair_and_refuse_its_mutants():
    spec = multipartite((5, 5, 5))
    first, second = _triangle_bases(5, 2), _triangle_bases(5, 2, 1)
    good = verify_orbits(spec, 3, 5, first, second)
    assert good.ok and good.max_cross_intersection == 1
    assert verify_pair(_orbit_pair(spec, 5, first, second), 3).ok
    same = verify_orbits(spec, 3, 5, first, first)
    assert same.max_cross_intersection == 3 and same.witness == (0, 0) and not same.ok
    dropped = verify_orbits(spec, 3, 5, first[1:], second)
    assert dropped.edge_deficits == {("first", (0, 1, 0)): -1, ("first", (0, 2, 0)): -1,
                                     ("first", (1, 2, 0)): -1}
    inside = verify_orbits(spec, 3, 5, first, [(0, 1, 5)] + second[1:])
    assert ("second", (0, 0, 1)) in inside.edge_deficits and not inside.ok
    with pytest.raises(AssertionError, match="cross cycles is invalid"):
        verify_orbits(multipartite((4, 6, 5)), 3, 5, first, second).check("cross cycles")


def test_orbits_meeting_twice_at_one_offset_are_refused():
    # the first cross bases of (l, k) = (5, 3) against a relabelled copy, the
    # first of a seeded search whose bases meet at most twice at one phase
    # offset: holes permuted, the columns of a hole maybe swapped, and each
    # column's rows turned, a map that keeps the host and commutes with the
    # row shift, so the copy's orbits decompose the host too
    first, _ = cross_bases(5, build_quasigroup_with_holes(3).table)
    spec = multipartite((10, 10, 10))
    rng = random.Random(2)
    while True:
        holes, swap = rng.sample(range(3), 3), [rng.randrange(2) for _ in range(3)]
        turn = [rng.randrange(5) for _ in range(6)]
        cols = [2 * holes[c // 2] + (c % 2 ^ swap[c // 2]) for c in range(6)]
        copy = [tuple(cols[x // 5] * 5 + (x + turn[x // 5]) % 5 for x in b) for b in first]
        rep = verify_orbits(spec, 5, 5, first, copy)
        if rep.max_cross_intersection == 2:
            break
    assert (rep.edge_deficits, rep.bad_cycles) == ({}, []) and not rep.ok
    developed = _orbit_pair(spec, 5, first, copy)
    assert brute_orthogonal(developed.first, developed.second) == 2
    assert verify_pair(developed, 5).max_cross_intersection == 2


def _cover_case(rng):
    """Hosts over the atoms of m vertices: an exact cover of K_v by recursive
    splits, then maybe one edit.  Returns (v, m, hosts, aligned); aligned is
    False when the edit left a part that is no union of whole atoms."""
    v, m = rng.randint(1, 30), rng.randint(2, 5)
    atoms = [list(range(a, min(a + m, v))) for a in range(0, v, m)]
    hosts = []

    def verts(group):
        out = [x for a in group for x in atoms[a]]
        rng.shuffle(out)
        return out

    def split(group):
        if len(group) < 2 or rng.random() < 0.25:
            hosts.append(([verts(group)], (0,)))
            return
        rng.shuffle(group)
        cuts = sorted(rng.sample(range(1, len(group)), rng.randint(1, min(3, len(group) - 1))))
        chunks = [group[a:b] for a, b in zip([0] + cuts, cuts + [len(group)])]
        if rng.random() < 0.5:  # each chunk on its own, and a multipartite host across
            for chunk in chunks:
                split(chunk)
            hosts.append(([verts(c) for c in chunks], ()))
        else:  # the first chunk on its own, the others as inner parts of one host
            split(chunks[0])
            hosts.append(([verts(c) for c in chunks], tuple(range(1, len(chunks)))))

    split(list(range(len(atoms))))
    edit = rng.choice(("none", "drop", "duplicate", "move atom", "copy atom", "toggle inner",
                       "repeat vertex", "foreign vertex", "out of range"))
    h = rng.randrange(len(hosts))
    parts, inner = hosts[h]
    p = rng.randrange(len(parts))
    part, q = parts[p], rng.choice([q for q in range(len(parts)) if q != p] or [p])
    aligned = True
    if edit == "drop":
        del hosts[h]
    elif edit == "duplicate":
        hosts.append(hosts[h])
    elif edit in ("move atom", "copy atom") and part:
        a = rng.choice(part) // m
        if edit == "move atom":
            parts[p] = [x for x in part if x // m != a]
        if q != p:
            parts[q] = parts[q] + atoms[a]
    elif edit == "toggle inner":
        hosts[h] = (parts, tuple(sorted(set(inner) ^ {p})))
    elif edit == "repeat vertex" and len(atoms[part[0] // m]) > 1:
        # a twin of part[0] from its own atom, which the part holds whole
        twin = next(x for x in atoms[part[0] // m] if x != part[0])
        parts[p], aligned = [twin] + part[1:], False
    elif edit == "foreign vertex":
        outside = [x for a in atoms if len(a) > 1 for x in a if x not in part]
        if outside:
            parts[p], aligned = [rng.choice(outside)] + part[1:], False
    elif edit == "out of range":
        parts[p], aligned = part[:-1] + [v], False
    return v, m, hosts, aligned


def test_cover_agrees_with_the_edge_by_edge_oracle():
    rng = random.Random(17)
    seen = Counter()
    for _ in range(1500):
        v, m, hosts, aligned = _cover_case(rng)
        got, want = verify_cover(v, hosts, m).ok, host_cover_is_exact(v, hosts)
        # a part that is no union of atoms is refused even where the edges
        # happen to work out; otherwise the counts per atom pair decide
        assert got == (want and aligned), (v, m, hosts)
        seen[got, aligned] += 1
    assert seen[True, True] > 300 and seen[False, True] > 300 and seen[False, False] > 100


def _run_cover_case(rng):
    """Hosts whose parts are runs of whole atoms, as ranges: an exact cover of
    K_v by recursive splits of the atoms in order, some parts then listed,
    and maybe one malformed range.  Returns (v, m, hosts, aligned) as
    _cover_case does."""
    v, m = rng.randint(1, 30), rng.randint(2, 5)
    hosts = []

    def run(a, b):
        return range(a * m, min(b * m, v))

    def split(a, b):
        if b - a < 2 or rng.random() < 0.25:
            hosts.append(([run(a, b)], (0,)))
            return
        cuts = sorted(rng.sample(range(a + 1, b), rng.randint(1, min(3, b - a - 1))))
        chunks = list(zip([a] + cuts, cuts + [b]))
        if rng.random() < 0.5:
            for chunk in chunks:
                split(*chunk)
            hosts.append(([run(*c) for c in chunks], ()))
        else:
            split(*chunks[0])
            hosts.append(([run(*c) for c in chunks], tuple(range(1, len(chunks)))))

    split(0, -(-v // m))
    parts, inner = hosts[rng.randrange(len(hosts))]
    p = rng.randrange(len(parts))
    part, aligned = parts[p], True
    edit = rng.choice(("none", "drop", "duplicate", "step 2", "start inside a run",
                       "stop inside a run", "stop past v", "negative start", "share a run"))
    if edit == "drop":
        hosts.remove((parts, inner))
    elif edit == "duplicate":
        hosts.append((list(parts), inner))
    elif edit == "step 2" and len(part) > 2:
        parts[p], aligned = range(part.start, part.stop, 2), False
    elif edit == "start inside a run" and len(part) > 1 and part.start % m + 1 < m:
        parts[p], aligned = range(part.start + 1, part.stop), False
    elif edit == "stop inside a run" and len(part) > 1 and (part.stop - 1) % m:
        parts[p], aligned = range(part.start, part.stop - 1), False
    elif edit == "stop past v":
        parts[p], aligned = range(part.start, v + 1), False
    elif edit == "negative start":
        parts[p], aligned = range(-1, part.stop), False
    elif edit == "share a run" and len(parts) > 1:
        q = rng.choice([q for q in range(len(parts)) if q != p])
        parts[q] = range(part.start, min(part.start + m, v))
    for parts, _ in hosts:
        parts[:] = [list(x) if rng.random() < 0.2 else x for x in parts]
    return v, m, hosts, aligned


def test_cover_of_range_parts_agrees_with_the_oracle_and_the_listed_parts():
    rng = random.Random(23)
    seen = Counter()
    for _ in range(1500):
        v, m, hosts, aligned = _run_cover_case(rng)
        got = verify_cover(v, hosts, m)
        assert got.ok == (host_cover_is_exact(v, hosts) and aligned), (v, m, hosts)
        # parts given as ranges or as lists of the same vertices: one report
        listed = verify_cover(v, [([list(x) for x in parts], inner) for parts, inner in hosts], m)
        assert repr(got) == repr(listed), (v, m, hosts)
        seen[got.ok, aligned] += 1
    assert seen[True, True] > 300 and seen[False, True] > 100 and seen[False, False] > 100


def _batch_case(rng):
    """(v, m, hosts, b, shape, edit): hosts[b] is a Batch, the rest per-host,
    and the hosts cover K_v exactly before the edit.  k groups of g whole
    atoms each, and in the group shapes a fixed run of f <= m vertices
    after them (the short last atom when f < m).  The batch's shape:

    - blocks: 2 or 3 parts, each a group; with 2 the batch holds every pair
      of groups, in random order;
    - reversed, mixed: the pairs of groups with their parts in descending
      order in every placement, or in a random order per placement;
    - groups: every group and the fixed run, both inner (the run's edges
      inside once more, on a host of its own, when it has any);
    - holed groups: the fixed run, then a group, inner, for every group but
      the first, which is a host of its own with the run.

    Then the batch maybe gets one edit, and the hosts maybe a last one with
    a part off the vertices, whose index counts the batch's placements."""
    m, g, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(4, 6)
    w = g * m
    shape = rng.choice(("blocks", "blocks", "blocks", "reversed", "mixed", "groups", "holed groups"))
    f = rng.randint(1, m) if shape in ("groups", "holed groups") else rng.choice((0, 0, 1))
    v = k * w + f
    fixed = range(k * w, v)
    hosts = [([range(i * w, i * w + w)], (0,)) for i in range(k)]
    inner = ()
    if shape == "groups":
        blocks, hosts = [(i, k) for i in range(k)], [([fixed], (0,))] if f > 1 else []
        inner = (0, 1) if f == 1 else (0,)
    elif shape == "holed groups":
        blocks, hosts, inner = [(k, i) for i in range(1, k)], [([range(w), fixed], (0, 1))], (1,)
    else:
        blocks = list(combinations(range(k), 2 if shape != "blocks" else rng.choice((2, 2, 3))))
        blocks = [b[::-1] if shape == "reversed" or shape == "mixed" and rng.random() < 0.5 else b
                  for b in blocks]
    if shape in ("groups", "holed groups"):
        hosts += [([range(i * w, i * w + w), range(j * w, j * w + w)], ()) for i, j in combinations(range(k), 2)]
    elif v > k * w:
        hosts.append(([range(k * w), fixed], ()))
    rng.shuffle(blocks)
    starts = [[x * w for x in col] for col in zip(*blocks)]
    widths = [f if col[0] == k * w else w for col in starts]
    i, j = rng.sample(range(len(blocks)), 2)
    p, q = rng.sample(range(len(starts)), 2)
    edit = rng.choice(("none", "none", "off a run", "leaves", "one run twice", "one pair twice",
                       "width", "negative width", "descending", "inner", "ragged", "middle leaves"))
    if edit == "off a run" and m > 1:
        starts[p][i] += rng.randrange(1, m)
    elif edit == "leaves":
        starts[p][i] = rng.choice((-m * rng.randint(1, 2), v - w + m, v))
    elif edit == "one run twice":
        starts[q][i] = starts[p][i] + rng.randrange(max(1, w - m + 1))
    elif edit == "one pair twice":
        for col in starts:
            col[j] = col[i]
    elif edit == "width" and m > 1:
        widths[p] += rng.randrange(1, m)
    elif edit == "negative width":
        widths[-2] = -w
        if len(starts) == 3:  # part 1 now ends where it starts, and parts 0 and 2 share runs
            starts[1][i], starts[2][i] = starts[0][i] + w, starts[0][i]
    elif edit == "descending":
        starts[p][i], starts[q][i] = starts[q][i], starts[p][i]
    elif edit == "inner":
        inner = (p,)
    elif edit == "ragged":
        starts[p].pop()
    elif edit == "middle leaves" and len(starts) == 3:
        # below 0 or past v in every placement, so the parts keep one order
        starts[1] = [rng.choice((-w, v))] * len(blocks)
    if rng.random() < 0.3:
        hosts.append(([range(v, v + 1)], ()))
    b = rng.randrange(len(hosts) + 1)
    hosts.insert(b, Batch(tuple(map(tuple, starts)), tuple(widths), inner))
    return v, m, hosts, b, shape, edit


def test_a_batch_reports_as_its_expansion():
    # every report field, the host indices of bad parts too, whether the
    # column tables certify the batch or it is walked host by host
    star = [([range(0, 2)], (0,)), ([range(0, 2), range(2, 3)], ())]
    for empty in (Batch((), ()), Batch(((), ()), (2, 2))):  # no part, or no placement
        assert list(empty.expand()) == []
        assert repr(verify_cover(3, [empty, star[1], empty], 1)) == repr(verify_cover(3, star[1:], 1))
    rng = random.Random(31)
    seen, shapes, short = Counter(), Counter(), Counter()
    for _ in range(3000):
        v, m, hosts, b, shape, edit = _batch_case(rng)
        expanded = hosts[:b] + list(hosts[b].expand()) + hosts[b + 1:]
        got = verify_cover(v, hosts, m)
        assert repr(got) == repr(verify_cover(v, expanded, m)), (v, m, hosts)
        assert not got.ok or host_cover_is_exact(v, expanded), (v, m, hosts)
        fast = hosts[b].whole(v, m)
        seen[edit, fast, got.ok] += 1
        shapes[shape, edit, fast, got.ok] += 1
        if shape in ("groups", "holed groups") and fast and got.ok and v % m:
            short[v % m == 1] += 1  # the fixed run on a short last atom
    assert seen["none", True, True] > 100 and seen["none", True, False] > 50
    assert seen["one pair twice", True, False] > 50
    for edit in ("off a run", "leaves", "one run twice", "width", "descending", "ragged"):
        assert seen[edit, False, False] > 20, edit
    assert seen["negative width", False, False] > 20
    # an inner part is counted from the columns too, and a middle part
    # outside 0..v-1 is refused although the parts keep one order
    assert seen["inner", True, False] > 20 and seen["middle leaves", False, False] > 20
    for shape in ("reversed", "groups", "holed groups"):
        assert shapes[shape, "none", True, True] > 20, shape
        assert shapes[shape, "inner", True, False] > 5, shape
    assert sum(n for (shape, _, fast, _), n in shapes.items() if shape == "mixed" and not fast) > 100
    assert short[True] > 20 and short[False] > 10  # a last atom of one vertex, and of more


def _orbit_case(rng):
    """(spec, length, m, first bases, second bases) on at most 30 vertices:
    a triangle pair over three columns, or random cycles on columns grouped
    into random parts, then maybe one edit."""
    m = rng.choice((3, 5))
    if rng.random() < 0.6:
        spec, length = multipartite((m, m, m)), 3
        c = rng.randrange(m)
        first = _triangle_bases(m, c)
        c2 = c if rng.random() < 0.7 else rng.randrange(m)
        second = _triangle_bases(m, c2, rng.randrange(m))
    else:
        n = rng.randint(2, 30 // m)
        cols = list(range(n))
        rng.shuffle(cols)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        groups = [cols[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        spec = GraphSpec("multipartite", complete(n * m).labels,
                         parts=tuple(tuple(x for c in g for x in range(c * m, c * m + m))
                                     for g in groups))
        length = rng.randint(3, min(6, n * m))
        first, second = ([tuple(rng.sample(range(n * m), length))
                          for _ in range(rng.randint(0, 6))] for _ in range(2))
    bases = rng.choice((first, second))
    edit = rng.choice(("none", "none", "swap", "drop", "duplicate", "same", "shift", "replace"))
    if edit == "same":
        second = first
    elif bases and edit != "none":
        i = rng.randrange(len(bases))
        c = list(bases[i])
        if edit == "swap":
            a, b = rng.sample(range(len(c)), 2)
            c[a], c[b] = c[b], c[a]
        elif edit == "shift":
            c = list(_shifted(c, m, rng.randrange(1, m)))
        elif edit == "replace":
            c[rng.randrange(len(c))] = rng.randrange(spec.v)
        if edit == "drop":
            del bases[i]
        elif edit == "duplicate":
            bases.append(tuple(c))
        else:
            bases[i] = tuple(c)
    return spec, length, m, first, second


def test_orbits_agree_with_the_verifier_on_the_developed_pair():
    rng = random.Random(29)
    seen = Counter()
    for _ in range(1500):
        spec, length, m, first, second = _orbit_case(rng)
        got = verify_orbits(spec, length, m, first, second)
        want = verify_pair(_orbit_pair(spec, m, first, second), length)
        assert got.ok == want.ok, (spec.parts, length, m, first, second)
        seen[got.ok] += 1
        # once the developed systems decompose the host, each edge class
        # stands for its edges, and the base meets count the shared edges
        if not (want.edge_deficits or want.bad_cycles):
            assert got.max_cross_intersection == want.max_cross_intersection, (first, second)
            seen["decomposed", want.max_cross_intersection > 1] += 1
    assert seen[True] > 100 and seen[False] > 300
    assert seen["decomposed", True] > 100 and seen["decomposed", False] > 100


def test_orbits_report_as_the_earlier_implementation():
    # the one-pass certificate against the edge-id one it replaced, report
    # for report, deficits and bad cycles in the same order
    rng = random.Random(31)
    seen = Counter()
    for _ in range(1500):
        case = _orbit_case(rng)
        got = verify_orbits(*case)
        assert repr(report_fields(got)) == repr(orbits_report(*case)), case
        # every base of the wrong length, listed beside any shape defect
        spec, length, *rest = case
        wrong = (spec, length + 1, *rest)
        assert repr(report_fields(verify_orbits(*wrong))) == repr(orbits_report(*wrong)), case
        seen["ok"] += got.ok
        seen["deficits"] += bool(got.edge_deficits)
        seen["bad cycles"] += bool(got.bad_cycles)
        seen["crossed"] += not got.edge_deficits and got.max_cross_intersection > 1
    assert seen["ok"] > 100 and seen["deficits"] > 300 and seen["crossed"] > 100
    assert seen["bad cycles"] > 20


CROSS_PAIRS = ("l5_v11", "l5_K15mK5", "l6_K444", "l7_v15", "l9_v45", (5, 41), (8, 33))


def _mutant(cycles, kind, rng):
    """cycles with one defect, as perfbench's design-file mutants make them:
    two vertices of a cycle swapped, a cycle dropped, or a cycle whose last
    vertex repeats its first."""
    cycles = list(cycles)
    i = rng.randrange(len(cycles))
    if kind == "drop":
        del cycles[i]
        return cycles
    c = list(cycles[i])
    if kind == "transpose":
        a, b = rng.sample(range(len(c)), 2)
        c[a], c[b] = c[b], c[a]
    else:
        c[-1] = c[0]
    cycles[i] = tuple(c)
    return cycles


@pytest.mark.parametrize("source", CROSS_PAIRS, ids=map(str, CROSS_PAIRS))
def test_cross_reports_as_the_earlier_implementation_on_mutants(source):
    # over-covered edges in the second system no longer send every first
    # cycle down the edge-by-edge count; the reports stay the same
    from orthocycles.construct import construct_pair

    pair = get_ingredient(source) if type(source) is str else construct_pair(*source)
    v, rng, seen = pair.spec.v, random.Random(str(source)), Counter()
    for side in (0, 1):
        for kind in ("transpose", "drop", "repeat"):
            for _ in range(8):
                systems = [list(pair.first.cycles), list(pair.second.cycles)]
                systems[side] = _mutant(systems[side], kind, rng)
                scanned = [verify._scan(c, v, None, "", []) for c in systems]
                assert scanned == [scan(c, v, None, "", []) for c in systems]
                got = verify._cross(*scanned, v)
                assert got == cross(*scanned, v), (source, side, kind)
                seen[got[0]] += 1
    assert seen[1] and seen[2]
