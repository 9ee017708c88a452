import pickle
import re

import pytest
from hypothesis import given, strategies as st

from oracles import cycle_edges, edge, graph_edges
from orthocycles.core import (
    CycleSystem,
    GraphSpec,
    OrthogonalPair,
    canonical_cycle,
    complete,
)


def digits(v):
    return tuple(map(str, range(v)))


def test_edge_orders_endpoints():
    assert edge(5, 2) == (2, 5)
    assert edge(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        edge(3, 3)


def test_canonical_cycle_examples():
    assert canonical_cycle((2, 0, 1)) == (0, 1, 2)
    # reflections identified: (0,1,2,3) traversed backwards is the same cycle
    assert canonical_cycle((0, 3, 2, 1)) == (0, 1, 2, 3)
    assert canonical_cycle((4, 0, 3, 1, 2)) == (0, 3, 1, 2, 4)


def test_canonical_cycle_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical_cycle((0, 1))
    with pytest.raises(ValueError):
        canonical_cycle((0, 1, 0, 2))


def brute_canonical(seq):
    """Reference: least tuple over every rotation of the sequence and of its
    reversal."""
    seq = tuple(seq)
    return min(cand[r:] + cand[:r] for cand in (seq, seq[::-1]) for r in range(len(seq)))


@given(st.lists(st.integers(-50, 200), min_size=3, max_size=16, unique=True))
def test_canonical_cycle_matches_bruteforce(seq):
    assert canonical_cycle(seq) == brute_canonical(seq)


@given(st.lists(st.integers(0, 200), min_size=3, max_size=12, unique=True))
def test_canonical_cycle_idempotent_and_rotation_invariant(seq):
    c = canonical_cycle(seq)
    assert canonical_cycle(c) == c
    for r in range(len(seq)):
        rot = seq[r:] + seq[:r]
        assert canonical_cycle(rot) == c
        assert canonical_cycle(rot[::-1]) == c


@given(st.lists(st.integers(0, 200), min_size=3, max_size=12, unique=True))
def test_cycle_edges_count(seq):
    assert len(cycle_edges(seq)) == len(seq)
    assert cycle_edges(seq) == cycle_edges(canonical_cycle(seq))


def test_graph_edges_counts():
    assert len(graph_edges(complete(15))) == 105
    assert len(graph_edges(GraphSpec("complete_minus_hole", digits(15),
                                     hole=frozenset(range(10, 15))))) == 95
    assert len(graph_edges(GraphSpec("multipartite", digits(12),
                                     parts=(range(4), range(4, 8), range(8, 12))))) == 48
    assert len(graph_edges(GraphSpec("multipartite", digits(16),
                                     parts=(range(6), range(6, 16))))) == 60
    assert len(graph_edges(GraphSpec("complete_minus_hole", digits(27),
                                     hole=frozenset(range(18, 27))))) == 315


def test_hole_edges_absent():
    spec = GraphSpec("complete_minus_hole", digits(7), hole=frozenset({4, 5, 6}))
    es = graph_edges(spec)
    assert (4, 5) not in es and (5, 6) not in es
    assert (0, 4) in es and (3, 6) in es


def test_multipartite_same_part_edges_absent():
    spec = GraphSpec("multipartite", digits(5), parts=((0, 1), (2, 3, 4)))
    es = graph_edges(spec)
    assert (0, 1) not in es and (2, 3) not in es
    assert len(es) == 6


def test_labels_roundtrip():
    spec = complete(4, labels=("a", "b", "c", "d"))
    assert spec.ids(["c"]) == (2,)
    with pytest.raises(ValueError):
        spec.ids(["z"])
    with pytest.raises(ValueError):
        complete(3, labels=("x", "x", "y"))


def test_graph_spec_ids_maps_a_label_sequence():
    spec = complete(4, labels=("a", "b", "c", "d"))
    assert spec.ids(("c", "a", "d")) == (2, 0, 3)
    assert spec.ids(iter(["b", "b"])) == (1, 1)
    assert spec.ids([]) == ()
    with pytest.raises(ValueError, match=r"^label 'z' not in graph$"):
        spec.ids(["a", "z", "b"])
    with pytest.raises(ValueError, match=r"^label 3 not in graph$"):
        spec.ids(["a", 3])


def test_cycle_system_canonicalizes_and_sorts():
    spec = complete(5)
    sys1 = CycleSystem(spec, [(2, 0, 1), (3, 4, 0)])
    sys2 = CycleSystem(spec, [(0, 4, 3), (1, 2, 0)])
    assert sys1 == sys2
    assert sys1.cycles == ((0, 1, 2), (0, 3, 4))
    assert sys1.cycle_length == 3


def test_cycle_system_rejects_out_of_range():
    for cyc in [(0, 1, 7), (0, 1, 4), (2, -1, 3)]:
        with pytest.raises(ValueError):
            CycleSystem(complete(4), [cyc])
    # the message names the first offender in canonical order
    for cycles, named in (([(3, 1, 2), (2, 9, 0), (1, 3, 8)], "(0, 2, 9)"),
                          ([(0, 1, 2), (3, -1, 2)], "(-1, 2, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"cycle {named} leaves the vertex range")):
            CycleSystem(complete(4), cycles)


# ------------------------------------------------------- value-type contract

K5_CYCLES = [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3)]


def test_graph_specs_compare_and_hash_by_value():
    assert complete(5) == GraphSpec("complete", ("0", "1", "2", "3", "4"))
    assert hash(complete(5)) == hash(complete(5)) and complete(5) is not complete(5)
    assert complete(5) != complete(6) and complete(5) != complete(5, labels="abcde")
    hole = GraphSpec("complete_minus_hole", digits(5), hole=frozenset([1, 0]))
    assert hole == GraphSpec(kind="complete_minus_hole", labels=tuple("01234"),
                             hole=frozenset({0, 1}))
    assert hash(hole) == hash(GraphSpec("complete_minus_hole", digits(5), frozenset({0, 1})))
    assert hole != GraphSpec("complete_minus_hole", digits(5), frozenset({0, 2}))
    twos = GraphSpec("multipartite", digits(4), parts=((0, 1), (2, 3)))
    assert twos == GraphSpec("multipartite", tuple("0123"), frozenset(), ((0, 1), (2, 3)))
    assert twos != GraphSpec("multipartite", digits(4), parts=((0,), (1, 2, 3)))
    assert len({complete(5), complete(5), hole,
                GraphSpec("complete_minus_hole", digits(5), frozenset([0, 1]))}) == 2
    spec = GraphSpec("complete", ("a", "b", "c"))
    assert (spec.kind, spec.labels, spec.hole, spec.parts) == ("complete", ("a", "b", "c"),
                                                                frozenset(), ())


def test_graph_spec_rejects_bad_hosts():
    for args in (("bogus", ("0", "1", "2")),
                 ("complete_minus_hole", ("0", "1", "2")),
                 ("complete_minus_hole", ("0", "1", "2"), frozenset({3})),
                 ("multipartite", ("0", "1", "2"), frozenset(), ((0, 1, 2),)),
                 ("multipartite", ("0", "1", "2"), frozenset(), ((0, 1), (1, 2)))):
        with pytest.raises(ValueError):
            GraphSpec(*args)


def test_cycle_system_equality_ignores_meta():
    plain = CycleSystem(complete(5), K5_CYCLES)
    tagged = CycleSystem(spec=complete(5), cycles=K5_CYCLES[::-1], meta=(("source", "x"),))
    assert plain.meta == () and tagged.meta == (("source", "x"),)
    assert plain == tagged and hash(plain) == hash(tagged)
    assert plain != CycleSystem(complete(5), K5_CYCLES[:1])
    assert plain != CycleSystem(complete(5, labels="abcde"), K5_CYCLES)


def test_orthogonal_pair_compares_by_value_and_checks_its_host():
    system = CycleSystem(complete(5), K5_CYCLES)
    pair = OrthogonalPair(complete(5), system, system)
    again = OrthogonalPair(spec=complete(5), first=CycleSystem(complete(5), K5_CYCLES),
                           second=system)
    assert pair == again and hash(pair) == hash(again)
    with pytest.raises(ValueError):
        OrthogonalPair(complete(5, labels="abcde"), system, system)


def test_core_value_types_refuse_assignment():
    spec = complete(5)
    system = CycleSystem(spec, K5_CYCLES)
    pair = OrthogonalPair(spec, system, system)
    for obj, name in ((spec, "kind"), (spec, "labels"), (spec, "hole"), (spec, "parts"),
                      (spec, "extra"), (system, "spec"), (system, "cycles"),
                      (system, "meta"), (pair, "spec"), (pair, "first"), (pair, "second")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert spec.kind == "complete" and system.cycles == tuple(sorted(K5_CYCLES))


def test_core_value_types_pickle():
    spec = GraphSpec("complete_minus_hole", digits(5), hole=frozenset({0, 1}))
    system = CycleSystem(complete(5), K5_CYCLES, meta=(("source", "x"),))
    pair = OrthogonalPair(complete(5), system, system)
    for obj in (spec, system, pair):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and repr(back) == repr(obj)
    assert pickle.loads(pickle.dumps(spec)).ids(["3"]) == (3,)

