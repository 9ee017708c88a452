import json
from pathlib import Path

import pytest

from oracles import design_defects
from orthocycles import catalog
from orthocycles.catalog import (
    cycle_length,
    get_ingredient,
    has_ingredient,
    list_ingredients,
    verify_catalog,
)
from orthocycles.cli import design_text, load_design
from orthocycles.core import CycleSystem, OrthogonalPair
from orthocycles.verify import verify_pair

# cycles per system, pinned; counts are |E| / l for each host graph
PINNED_COUNTS = {
    "l3_v7": 7,
    "l5_v11": 11,
    "l5_v15": 21,
    "l5_K15mK5": 19,
    "l5_v21": 42,
    "l5_v25": 60,
    "l6_v9": 6,
    "l6_v13": 13,
    "l6_K444": 8,
    "l6_v21": 35,
    "l6_K6x10": 10,
    "l7_v15": 15,
    "l7_v21": 30,
    "l7_K21mK7": 27,
    "l7_v29": 58,
    "l7_v35": 85,
    "l8_v17": 17,
    "l8_K16x16": 32,
    "l9_v19": 19,
    "l9_v27": 39,
    "l9_K27mK9": 35,
    "l9_v37": 74,
    "l9_v45": 110,
    "l9_K999": 27,
}


def test_listing_covers_pinned_keys():
    keys = {k for k, _ in list_ingredients()}
    assert keys >= set(PINNED_COUNTS)
    assert all(cite for _, cite in list_ingredients())


def test_pinned_cycle_counts():
    for key, count in PINNED_COUNTS.items():
        pair = get_ingredient(key)
        assert len(pair.first.cycles) == count, key
        assert len(pair.second.cycles) == count, key


def test_every_entry_verifies():
    for key, report in verify_catalog():
        assert report.ok, (key, report)
        assert report.max_cross_intersection <= 1, key


def test_cycle_lengths_match_key_prefix():
    for key, _ in list_ingredients():
        l = cycle_length(key)
        assert key.startswith(f"l{l}_")
        pair = get_ingredient(key)
        assert {len(c) for c in pair.first.cycles} == {l}


def test_data_files_are_named_by_their_key_and_length():
    # the listing takes each key from its file's stem, so every file must be
    # listed, and its "key" and "l" fields must agree with that stem
    paths = sorted((Path(catalog.__file__).parent / "data").glob("*.json"))
    assert [path.stem for path in paths] == [k for k, _ in list_ingredients()]
    for path in paths:
        d = json.loads(path.read_text())
        assert d["key"] == path.stem
        assert path.stem.startswith(f"l{d['l']}_")


def test_unknown_key():
    assert not has_ingredient("l4_v99")
    with pytest.raises(KeyError, match="l4_v99"):
        get_ingredient("l4_v99")


def test_has_ingredient_agrees_with_the_listing():
    keys = {k for k, _ in list_ingredients()}
    assert all(has_ingredient(k) for k in keys)
    for key in ("l4_v99", "l5_v11.json", "data/l5_v11", "../data/l5_v11", "./l5_v11", ""):
        assert not has_ingredient(key), key
        with pytest.raises(KeyError):
            get_ingredient(key)


def test_hosts_number_their_parts_from_zero_in_placement_order():
    # placement lays the targets of the parts end to end: a holed host's
    # hole is {0..f-1}, and multipartite parts are consecutive ascending ranges
    for key, _ in list_ingredients():
        spec = get_ingredient(key).spec
        if spec.kind == "complete_minus_hole":
            assert spec.hole == frozenset(range(len(spec.hole))), key
        elif spec.kind == "multipartite":
            start = 0
            for part in spec.parts:
                assert part == tuple(range(start, start + len(part))), key
                start += len(part)
            assert start == spec.v, key


def test_ingredients_are_cached():
    assert get_ingredient("l6_v9") is get_ingredient("l6_v9")


def test_meta_carries_provenance():
    m = dict(get_ingredient("l5_v15").first.meta)
    assert m["source"] == "catalog"
    assert m["key"] == "l5_v15"
    assert m["citation"]


def test_verifier_catches_tampered_entry():
    pair = get_ingredient("l6_v9")
    c0 = list(pair.first.cycles[0])
    c0[0], c0[1] = c0[1], c0[0]
    tampered = CycleSystem(pair.spec, [tuple(c0)] + list(pair.first.cycles[1:]))
    report = verify_pair(OrthogonalPair(pair.spec, tampered, pair.second), 6)
    assert not report.ok


def test_every_entry_passes_a_design_file_checker_apart_from_the_package():
    # the holed and multipartite hosts included: the checker takes the host
    # from the file's own hole or parts labels
    kinds = set()
    for key, _ in list_ingredients():
        text = design_text(get_ingredient(key), cycle_length(key))
        assert design_defects(text) == [], key
        assert verify_pair(*load_design(text)).ok, key
        kinds.add(json.loads(text)["spec"]["kind"])
    assert kinds == {"complete", "complete_minus_hole", "multipartite"}


@pytest.mark.parametrize("key,edited,foreign", [
    # 0 and 1 both lie in the hole {0..4}
    ("l5_K15mK5", ["0", "1", "11", "6", "10"], [(0, 1)]),
    # 0, 3 and 1 all lie in the first part {0..3}
    ("l6_K444", ["0", "3", "1", "5", "2", "6"], [(0, 3), (1, 3)]),
], ids=["edge-inside-the-hole", "edge-inside-a-part"])
def test_an_edge_the_host_lacks_is_refused_by_both_checkers(key, edited, foreign):
    doc = json.loads(design_text(get_ingredient(key), cycle_length(key)))
    first = doc["systems"]["first"]
    assert len(first[0]) == len(edited) and first[0] != edited
    first[0] = edited
    text = json.dumps(doc, indent=1, sort_keys=True)
    defects = design_defects(text)
    for e in foreign:
        assert f"first: edge {e} covered 1 times, the host has it 0" in defects, (key, e)
    report = verify_pair(*load_design(text))
    assert not report.ok
    assert all(report.edge_deficits[("first", e)] == 1 for e in foreign)
