import hashlib
import sys
from itertools import islice
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cycle_edges, edge
from orthocycles.core import complete
from orthocycles.search import (
    SearchBudget,
    _difference_bases,
    _translates_cross_ok,
    search_pair,
)
from orthocycles.verify import verify_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from freeze_search_ingredients import (  # noqa: E402
    K16_FIRST,
    K16_SECOND,
    _bipartite_diffs,
    bipartite_translation_completion,
)

# status, nodes and sha256 of repr((first.cycles, second.cycles)) at a
# 2,000,000-node budget: search_pair on K_v by (l, v) at seed 1, or by
# (l, v, seed)
SEARCH_PINS = {
    ("pair", 5, 11): ("found", 95, "36fcb43534d316057be2e159076d49d2466e51d431ec648ddc0aa62071211cda"),
    ("pair", 6, 13): ("found", 380, "b2221a3713625fbab28b3152212859aa0e43332ebc934e0da6aed144bb338fcb"),
    ("pair", 7, 15): ("found", 108, "ba905dad655ce1c138ca9fec671b941893ca2e665e8533f0bf08bf30c2cf6f5e"),
    ("pair", 8, 17, 2): ("found", 21225, "72cd83f0062c7825c724352eec73dbb778e9cbccf64e6f7b1b72bdfa009aab12"),
    ("pair", 9, 19): ("found", 46, "aa826a44c675946cb98b8dcc755f47262695a1d9b95c86d9937f5cd6391ecd4a"),
    ("pair", 6, 9): ("found", 2187, "b51d03cc5c8d0d71848f0d4c4ba5bd1cd96d2df27ed06bb5d2618c6a4d639a3e"),
    ("pair", 5, 15): ("found", 1454, "0ef727090a1a52ebba8591f437dfa170a822dfa668399fa0bfa805beb82b7d22"),
    ("pair", 5, 21): ("found", 5958, "a227438cad0d7e9eb15c3612db872897d9bb7681095288fa1ed1d312e233df6d"),
    ("pair", 6, 21): ("found", 3151, "ecdd4880f99171487b6a54b06961eb24acba53797ba3320807a96ea6e5ee82b1"),
    ("pair", 5, 25): ("found", 8926, "29531ff3e5b8556a70ed7ae5a9d336e6cf6ed65d78ef9505f196b435ce023574"),
    ("pair", 7, 29): ("found", 135641, "e6caf623429aa7ddfef956d0bf7182fbacb58638e5e7c85d985c0783e72d7407"),
    ("pair", 4, 9): ("found", 43, "73e0fb168a05565a1c35041ffb5404e1d82e2e2dde883262f6960c3d4e6e8f5f"),
}


class _NoLimit:
    def spend(self):
        pass


def test_budget_validation():
    with pytest.raises(ValueError, match="max_nodes"):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError, match="seed"):
        SearchBudget(seed=-1)
    assert (SearchBudget().max_nodes, SearchBudget().seed) == (1_000_000, 1)
    budget = SearchBudget(500, 7)
    assert (budget.max_nodes, budget.seed) == (500, 7)
    assert budget == SearchBudget(max_nodes=500, seed=7) and budget != SearchBudget(500)
    assert hash(budget) == hash(SearchBudget(500, 7))


@given(st.integers(min_value=3, max_value=6))
@settings(max_examples=4, deadline=None)
def test_difference_bases_are_well_formed(l):
    v = 2 * l + 1
    count = 0
    for base in _difference_bases(v, l, _NoLimit(), Random(0)):
        count += 1
        assert base[0] == 0 and len(set(base)) == l
        diffs = {min((b - a) % v, (a - b) % v)
                 for a, b in zip(base, base[1:] + base[:1])}
        assert diffs == set(range(1, l + 1))
        if count >= 50:
            break
    assert count > 0


def _translates_cross_ok_by_translation(base_a, base_b, v):
    """Reference: translate base_b by every shift and count shared edges."""
    ea = cycle_edges(base_a)
    for s in range(v):
        shared = 0
        prev = (base_b[-1] + s) % v
        for x in base_b:
            cur = (x + s) % v
            if edge(prev, cur) in ea:
                shared += 1
                if shared > 1:
                    return False
            prev = cur
    return True


@st.composite
def _two_cycles_mod_v(draw):
    v = draw(st.integers(min_value=3, max_value=20)) * 2 + 1  # odd, 7..41
    l = draw(st.integers(min_value=3, max_value=(v - 1) // 2))
    cycle = st.lists(st.integers(min_value=0, max_value=v - 1),
                     min_size=l, max_size=l, unique=True).map(tuple)
    return v, draw(cycle), draw(cycle)


@given(_two_cycles_mod_v())
@settings(max_examples=300, deadline=None)
def test_shift_count_cross_check_matches_translation(case):
    v, base_a, base_b = case
    expected = _translates_cross_ok_by_translation(base_a, base_b, v)
    assert _translates_cross_ok(base_a, base_b, v) == expected


@pytest.mark.parametrize("l", range(3, 7))
def test_shift_count_cross_check_on_difference_bases(l):
    v = 2 * l + 1
    bases = list(islice(_difference_bases(v, l, _NoLimit(), Random(l)), 40))
    verdicts = set()
    for a in bases:
        for b in bases:
            ok = _translates_cross_ok_by_translation(a, b, v)
            assert _translates_cross_ok(a, b, v) == ok, (a, b)
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_cyclic_search_finds_verified_pair():
    res = search_pair(complete(11), 5, SearchBudget(max_nodes=100_000, seed=1))
    assert res.status == "found"
    assert len(res.pair.first.cycles) == 11
    assert verify_pair(res.pair, 5).ok
    again = search_pair(complete(11), 5, SearchBudget(max_nodes=100_000, seed=1))
    assert again.pair.first.cycles == res.pair.first.cycles
    assert again.pair.second.cycles == res.pair.second.cycles


def test_search_rejects_impossible_shapes():
    with pytest.raises(ValueError):
        search_pair(complete(12), 5)
    with pytest.raises(ValueError):
        search_pair(complete(13), 5)  # 78 edges, not divisible by 5
    with pytest.raises(ValueError):
        search_pair(complete(7), 9)
    for v, l in ((3, 0), (3, 1), (5, 2)):  # no cycle is shorter than 3
        with pytest.raises(ValueError):
            search_pair(complete(v), l)


def test_budget_exhaustion_is_reported():
    res = search_pair(complete(19), 9, SearchBudget(max_nodes=10, seed=1))
    assert res.status == "exhausted"
    assert res.pair is None
    assert res.nodes == 10


@pytest.mark.parametrize("l, v", [(6, 9), (5, 15)])
def test_nodes_never_exceed_the_budget(l, v):
    for max_nodes in range(1, 401):
        res = search_pair(complete(v), l, SearchBudget(max_nodes=max_nodes, seed=1))
        assert res.nodes <= max_nodes, (max_nodes, res.status, res.nodes)


@pytest.mark.parametrize("key", sorted(SEARCH_PINS, key=repr), ids=repr)
def test_search_outputs_are_pinned(key):
    budget = SearchBudget(max_nodes=2_000_000, seed=key[3] if len(key) > 3 else 1)
    res = search_pair(complete(key[2]), key[1], budget)
    digest = hashlib.sha256(repr((res.pair.first.cycles, res.pair.second.cycles)).encode())
    assert (res.status, res.nodes, digest.hexdigest()) == SEARCH_PINS[key]


def test_hamiltonian_orders_without_mates_are_unsatisfiable():
    for l in (5, 7):
        res = search_pair(complete(l), l, SearchBudget(max_nodes=2_000_000, seed=1))
        assert res.status == "unsatisfiable", l
        assert res.pair is None


def test_general_route_handles_other_shapes():
    res = search_pair(complete(9), 4, SearchBudget(max_nodes=300_000, seed=1))
    assert res.status == "found"
    assert verify_pair(res.pair, 4).ok


def test_bipartite_completion_uses_complementary_classes():
    mate_a, mate_b = bipartite_translation_completion(K16_FIRST, K16_SECOND)
    for base, mate in ((K16_FIRST, mate_a), (K16_SECOND, mate_b)):
        assert sorted(_bipartite_diffs(base) + _bipartite_diffs(mate)) == list(range(16))
    assert (mate_a, mate_b) == bipartite_translation_completion(K16_FIRST, K16_SECOND)


def test_found_cyclic_orbits_cover_each_difference_once():
    res = search_pair(complete(15), 7, SearchBudget(max_nodes=200_000, seed=3))
    assert res.status == "found"
    for system in (res.pair.first, res.pair.second):
        seen = set()
        for c in system.cycles:
            seen.update(cycle_edges(c))
        assert len(seen) == 105
