from collections import Counter
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import array_text
from orthocycles.heffter import (
    HeffterArray,
    check_simple,
    parse_array,
    search_3x3,
    simple_cyclic_order,
    simple_cyclic_orders,
    validate_heffter,
)


def _first():
    return next(search_3x3())


def _with_cell(a, i, j, value):
    cells = [list(r) for r in a.cells]
    cells[i][j] = value
    return HeffterArray(a.row_fill, a.col_fill, tuple(tuple(r) for r in cells))


def test_searched_3x3_is_valid():
    a = _first()
    assert a.rows == a.cols == 3
    assert a.modulus == 19 and a.symbol_count == 9
    report = validate_heffter(a)
    assert report.ok and report.defects == ()


def test_every_searched_3x3_is_valid_and_simple():
    # independent recount of the validator's conditions on the oracle output,
    # and the claim that short lines always admit a simple order
    n = 0
    for a in search_3x3():
        n += 1
        mags = Counter(abs(x) for row in a.cells for x in row)
        assert mags == Counter(range(1, 10))
        assert all(sum(row) % 19 == 0 for row in a.cells)
        assert all(sum(r[j] for r in a.cells) % 19 == 0 for j in range(3))
        assert check_simple(a).ok
    assert n > 100


def test_negating_one_entry_breaks_line_sums():
    a = _first()
    bad = _with_cell(a, 0, 0, -a.cells[0][0])
    report = validate_heffter(bad)
    assert not report.ok
    assert any(d.startswith("row 0: sums") for d in report.defects)
    assert any(d.startswith("column 0: sums") for d in report.defects)


def test_both_signs_present_is_a_symbol_defect():
    a = _first()
    bad = _with_cell(a, 0, 0, -a.cells[1][1])
    report = validate_heffter(bad)
    missing = abs(a.cells[0][0])
    doubled = abs(a.cells[1][1])
    assert any(d.startswith(f"symbol {missing}: neither") for d in report.defects)
    assert any(d.startswith(f"symbol {doubled}: appears 2") for d in report.defects)


def test_out_of_range_entry_is_reported():
    report = validate_heffter(_with_cell(_first(), 0, 0, 15))
    assert any("outside the symbol range" in d for d in report.defects)


def test_missing_cell_breaks_fill_counts():
    report = validate_heffter(_with_cell(_first(), 2, 2, None))
    assert any(d.startswith("row 2: 2 filled cells") for d in report.defects)
    assert any(d.startswith("column 2: 2 filled cells") for d in report.defects)


def test_check_simple_rejects_invalid_arrays():
    with pytest.raises(ValueError):
        check_simple(_with_cell(_first(), 0, 0, 15))


def test_three_entry_lines_are_always_simple():
    for tail in permutations((2, -3)):
        order = simple_cyclic_order((1,) + tail, 19)
        assert order is not None


def test_alternating_line_is_never_simple():
    entries = (1, -1, 1, -1, 1, -1)
    assert simple_cyclic_order(entries, 19) is None
    # oracle: every cyclic arrangement walks +-1 and returns to 0, so some
    # partial sum must repeat; confirm by brute force over all arrangements
    for tail in permutations(entries[1:]):
        sums, acc = [], 0
        for x in (1,) + tail:
            acc = (acc + x) % 19
            sums.append(acc)
        assert len(set(sums)) < len(sums)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), max_size=6))
def test_simple_order_postconditions(entries):
    result = simple_cyclic_order(entries, 19)
    if result is not None:
        assert Counter(result) == Counter(entries)
        sums, acc = set(), 0
        for x in result:
            acc = (acc + x) % 19
            sums.add(acc)
        assert len(sums) == len(entries)


def test_text_format_round_trips():
    a = _first()
    assert parse_array(array_text(a.cells)) == a
    partial = parse_array("1,.,-2\n.,3,.\n-4,.,5\n")
    assert partial.cells == ((1, None, -2), (None, 3, None), (-4, None, 5))
    assert partial.row_fill == 2 and partial.col_fill == 2
    assert array_text(partial.cells) == "1,.,-2\n.,3,.\n-4,.,5\n"


def test_array_compares_by_value_and_rejects_bad_cells():
    a = HeffterArray(row_fill=2, col_fill=2, cells=[[1, None], [None, 3]])
    assert a.cells == ((1, None), (None, 3))
    b = HeffterArray(2, 2, ((1, None), (None, 3)))
    assert a == b and hash(a) == hash(b) and a != HeffterArray(2, 1, b.cells)
    for cells in ((), ((1, 2), (3,))):
        with pytest.raises(ValueError, match="rectangular"):
            HeffterArray(1, 1, cells)


def test_parse_rejects_ragged_input():
    with pytest.raises(ValueError):
        parse_array("1,2\n3\n")
    with pytest.raises(ValueError):
        parse_array("")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5))
def test_simple_orders_are_every_distinct_sum_arrangement(entries):
    # oracle: brute force over the arrangements that keep the first entry
    want = []
    for tail in permutations(entries[1:]):
        sums, acc = set(), 0
        for x in (entries[0],) + tail:
            acc = (acc + x) % 19
            sums.add(acc)
        if len(sums) == len(entries):
            want.append((entries[0],) + tail)
    assert list(simple_cyclic_orders(entries, 19)) == want
    assert simple_cyclic_order(entries, 19) == (want[0] if want else None)
