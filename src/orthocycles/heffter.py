"""Integer arrays whose rows and columns sum to zero modulo 2*rows*col_fill+1,
using exactly one of {x, -x} for each symbol x, plus the simple-ordering
check: a cyclic order of a line whose partial sums are pairwise distinct.

The square 3x3 case over modulus 19 has an exhaustive-search generator that
serves as the independent oracle for the validator.

Text format: one row per line, cells comma-separated, "." for an empty cell.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .core import Value


class HeffterArray(Value):
    """Partial integer matrix with declared fill counts per row and column.

    The modulus is 2 * rows * col_fill + 1 and the symbol range is
    rows * row_fill; both follow from the fill counts, so only the cells and
    the two counts are stored.  cells[i][j] is an int or None.
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
        return 2 * self.rows * self.col_fill + 1

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


def validate_heffter(a: HeffterArray) -> HeffterReport:
    """Check fill counts, zero line sums mod the modulus, and that each
    symbol 1..symbol_count appears exactly once, in exactly one sign."""
    defects = []
    mod = a.modulus
    for i in range(a.rows):
        entries = a.row_entries(i)
        if len(entries) != a.row_fill:
            defects.append(f"row {i}: {len(entries)} filled cells, expected {a.row_fill}")
        if sum(entries) % mod:
            defects.append(f"row {i}: sums to {sum(entries) % mod} mod {mod}")
    for j in range(a.cols):
        entries = a.col_entries(j)
        if len(entries) != a.col_fill:
            defects.append(f"column {j}: {len(entries)} filled cells, expected {a.col_fill}")
        if sum(entries) % mod:
            defects.append(f"column {j}: sums to {sum(entries) % mod} mod {mod}")
    seen: dict = {}
    for i in range(a.rows):
        for x in a.row_entries(i):
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
    """Simple cyclic orders for every row and column of a valid array."""
    report = validate_heffter(a)
    if not report.ok:
        raise ValueError(f"array is not valid: {'; '.join(report.defects[:3])}")
    rows = tuple(simple_cyclic_order(a.row_entries(i), a.modulus) for i in range(a.rows))
    cols = tuple(simple_cyclic_order(a.col_entries(j), a.modulus) for j in range(a.cols))
    ok = all(o is not None for o in rows + cols)
    return SimpleOrderings(ok, rows, cols)


def search_3x3():
    """Exhaustively generate every full 3x3 array over modulus 19, scanning
    the two free cells of the first two rows in ascending signed order; the
    last cell of each line is forced by the zero-sum condition.  Serves as
    the independent oracle for the validator."""
    mod, top = 19, 9
    signed = [x for mag in range(1, top + 1) for x in (mag, -mag)]

    def forced(total, used):
        # the unique signed symbol completing the line to 0 mod 19, if free
        residue = (-total) % mod
        x = residue if residue <= top else residue - mod
        if x == 0 or abs(x) in used:
            return None
        return x

    for a in signed:
        for b in signed:
            if abs(b) == abs(a):
                continue
            c = forced(a + b, {abs(a), abs(b)})
            if c is None:
                continue
            used3 = {abs(a), abs(b), abs(c)}
            for d in signed:
                if abs(d) in used3:
                    continue
                for e in signed:
                    if abs(e) in used3 or abs(e) == abs(d):
                        continue
                    f = forced(d + e, used3 | {abs(d), abs(e)})
                    if f is None:
                        continue
                    g = forced(a + d, used3 | {abs(d), abs(e), abs(f)})
                    if g is None:
                        continue
                    h = forced(b + e, used3 | {abs(d), abs(e), abs(f), abs(g)})
                    if h is None:
                        continue
                    i = forced(c + f, used3 | {abs(d), abs(e), abs(f), abs(g), abs(h)})
                    if i is None or (g + h + i) % mod:
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


def format_array(a: HeffterArray) -> str:
    return "\n".join(
        ",".join("." if x is None else str(x) for x in row) for row in a.cells
    ) + "\n"
