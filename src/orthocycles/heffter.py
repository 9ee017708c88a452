"""Integer arrays whose rows and columns sum to zero modulo 2*rows*row_fill+1,
twice the number of filled cells plus one, using exactly one of {x, -x} for
each symbol x, plus the simple-ordering check: a cyclic order of a line whose
partial sums are pairwise distinct.

The square 3x3 case over modulus 19 has an exhaustive-search generator that
serves as the independent oracle for the validator.

Text format: one row per line, cells comma-separated, "." for an empty cell.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .core import Value


class HeffterArray(Value):
    """Partial integer matrix with declared fill counts per row and column.

    The symbol range is rows * row_fill, the number of filled cells, and the
    modulus is 2 * rows * row_fill + 1; both follow from the fill counts, so
    only the cells and the two counts are stored.  cells[i][j] is an int or
    None.
    """

    __slots__ = _fields = ("row_fill", "col_fill", "cells")

    def __init__(self, row_fill: int, col_fill: int, cells: tuple):
        if not cells or len({len(r) for r in cells}) != 1:
            raise ValueError("cells must be a nonempty rectangular matrix")
        self._set(row_fill=row_fill, col_fill=col_fill, cells=tuple(tuple(r) for r in cells))

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @property
    def modulus(self) -> int:
        return 2 * self.rows * self.row_fill + 1

    @property
    def symbol_count(self) -> int:
        return self.rows * self.row_fill

    def row_entries(self, i: int) -> tuple:
        return tuple(x for x in self.cells[i] if x is not None)

    def col_entries(self, j: int) -> tuple:
        return tuple(r[j] for r in self.cells if r[j] is not None)


class HeffterReport(NamedTuple):
    ok: bool
    defects: tuple


def _line_defects(a: HeffterArray):
    """validate_heffter's defects, and each row's and column's entries, every
    line built and summed once."""
    rows = [a.row_entries(i) for i in range(a.rows)]
    cols = [tuple(x for x in col if x is not None) for col in zip(*a.cells)]
    defects = []
    for line, fill in (("row", a.row_fill), ("column", a.col_fill)):
        if fill < 1:
            defects.append(f"{line} fill count is {fill}, expected at least 1")
    mod = a.modulus
    for line, fill, entries in (("row", a.row_fill, rows), ("column", a.col_fill, cols)):
        for i, es in enumerate(entries):
            if len(es) != fill:
                defects.append(f"{line} {i}: {len(es)} filled cells, expected {fill}")
            if total := sum(es) % mod:
                defects.append(f"{line} {i}: sums to {total} mod {mod}")
    seen: dict = {}
    for es in rows:
        for x in es:
            if not 1 <= abs(x) <= a.symbol_count:
                defects.append(f"entry {x}: outside the symbol range 1..{a.symbol_count}")
                continue
            seen.setdefault(abs(x), []).append(x)
    for x in range(1, a.symbol_count + 1):
        got = seen.get(x, [])
        if not got:
            defects.append(f"symbol {x}: neither {x} nor {-x} appears")
        elif len(got) > 1:
            defects.append(f"symbol {x}: appears {len(got)} times as {sorted(got)}")
    return defects, rows, cols


def validate_heffter(a: HeffterArray) -> HeffterReport:
    """Check fill counts (at least one cell per line), zero line sums mod the
    modulus, and that each symbol 1..symbol_count appears exactly once, in
    exactly one sign."""
    defects = _line_defects(a)[0]
    return HeffterReport(not defects, tuple(defects))


def simple_cyclic_orders(entries, modulus: int):
    """Every cyclic order of the (non-empty) entries whose partial sums are
    pairwise distinct mod modulus.  Rotations preserve distinctness, so the
    first entry stays fixed and only the (t-1)! arrangements of the rest are
    scanned."""
    head, rest = entries[0], entries[1:]
    for tail in permutations(rest):
        order = (head,) + tail
        sums, acc = set(), 0
        for x in order:
            acc = (acc + x) % modulus
            sums.add(acc)
        if len(sums) == len(order):
            yield order


def simple_cyclic_order(entries, modulus: int):
    """A cyclic order of the entries whose partial sums are pairwise distinct
    mod modulus, or None."""
    entries = tuple(entries)
    if not entries:
        return ()
    return next(simple_cyclic_orders(entries, modulus), None)


class SimpleOrderings(NamedTuple):
    """Per-line simple cyclic orders; None marks a line with no such order."""

    ok: bool
    rows: tuple
    cols: tuple


def check_simple(a: HeffterArray) -> SimpleOrderings:
    """Simple cyclic orders for every row and column of a valid array.  Each
    line's entries are built and summed once, for validate_heffter's checks
    and for the orders alike."""
    defects, *lines = _line_defects(a)
    if defects:
        raise ValueError(f"array is not valid: {'; '.join(defects[:3])}")
    rows, cols = (tuple(simple_cyclic_order(es, a.modulus) for es in part) for part in lines)
    ok = all(o is not None for o in rows + cols)
    return SimpleOrderings(ok, rows, cols)


@lru_cache(maxsize=None)
def _census_tables():
    """The 3x3 census's signed symbols 1, -1, ..., 9, -9 in scan order, and
    per line total t (-18..18, read mod 19 through negative indices) the
    signed symbol x, |x| <= 9, with t + x = 0 mod 19; each symbol paired
    with its used-magnitude bit 1 << |x|."""
    signed = tuple((x, 1 << mag) for mag in range(1, 10) for x in (mag, -mag))
    forced = []
    for t in range(19):
        x = -t % 19
        if x > 9:
            x -= 19
        forced.append((x, 1 << abs(x)))
    return signed, tuple(forced)


def search_3x3():
    """Exhaustively generate every full 3x3 array over modulus 19, scanning
    the two free cells of the first two rows in ascending signed order; the
    last cell of each line is forced by the zero-sum condition and read from
    a table by the line's total.  The magnitudes used so far are the bits of
    one int, bit 0 set from the start so that a zero completion is refused.
    Serves as the independent oracle for the validator."""
    signed, forced = _census_tables()
    for a, bit_a in signed:
        used_a = 1 | bit_a
        for b, bit_b in signed:
            if used_a & bit_b:
                continue
            c, bit_c = forced[a + b]
            if (used_a | bit_b) & bit_c:
                continue
            used_c = used_a | bit_b | bit_c
            for d, bit_d in signed:
                if used_c & bit_d:
                    continue
                used_d = used_c | bit_d
                for e, bit_e in signed:
                    if used_d & bit_e:
                        continue
                    used = used_d | bit_e
                    f, bit_f = forced[d + e]
                    if used & bit_f:
                        continue
                    used |= bit_f
                    g, bit_g = forced[a + d]
                    if used & bit_g:
                        continue
                    used |= bit_g
                    h, bit_h = forced[b + e]
                    if used & bit_h:
                        continue
                    i, bit_i = forced[c + f]
                    if (used | bit_h) & bit_i or (g + h + i) % 19:
                        continue
                    yield HeffterArray(3, 3, ((a, b, c), (d, e, f), (g, h, i)))


def parse_array(text: str) -> HeffterArray:
    """Parse the text format; fill counts are inferred from the first row and
    first column (validate_heffter reports lines that disagree)."""
    rows = []
    for line in text.strip().splitlines():
        cells = []
        for tok in line.split(","):
            tok = tok.strip()
            cells.append(None if tok == "." else int(tok))
        rows.append(tuple(cells))
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("array lines must be nonempty and of equal length")
    row_fill = sum(1 for x in rows[0] if x is not None)
    col_fill = sum(1 for r in rows if r[0] is not None)
    return HeffterArray(row_fill, col_fill, tuple(rows))
