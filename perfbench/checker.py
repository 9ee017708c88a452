"""Checks made apart from the package: none of them imports orthocycles.

- the spectrum rule for l-cycle systems of K_v, computed from its definition;
- a pair checker on integer edge ids (edge {a, b} with a < b is a * v + b):
  exact coverage per system, cycle shape, and an owner array for the
  cross-system intersections;
- a design-file reader that maps labels to ids from the file alone;
- the Heffter census properties;
- the seeded mutation generator for design files.
"""

from __future__ import annotations

import json
import random
from itertools import permutations


def spectrum_admissible(l: int, v: int) -> bool:
    """K_v splits into l-cycles only if every degree v - 1 is even, l divides
    the edge count v(v - 1)/2, and a cycle fits on the vertices."""
    return v % 2 == 1 and (v * (v - 1)) % (2 * l) == 0 and v >= l


def pair_impossible(l: int, v: int) -> bool:
    """At v = l each system has (l - 1)/2 cycles, so the l edges of any cycle
    of a mate fall at least three into one of them (pigeonhole)."""
    return v == l and l >= 5


def check_pair(v: int, l: int, first, second) -> list[str]:
    """Defects of a claimed orthogonal pair of l-cycle systems of K_v.

    first and second are sequences of cycles over vertex ids 0..v-1.
    Returns an empty list for a valid pair.
    """
    defects: list[str] = []
    n_edges = v * (v - 1) // 2
    want = n_edges // l if n_edges % l == 0 else None
    owner: list[int] = [-1] * (v * v)
    for tag, system in (("first", first), ("second", second)):
        if want is None or len(system) != want:
            defects.append(f"{tag}: {len(system)} cycles, K_{v} needs {want}")
        seen = bytearray(v * v)
        for i, cyc in enumerate(system):
            if len(cyc) != l or len(set(cyc)) != l:
                defects.append(f"{tag} cycle {i}: not {l} distinct vertices: {list(cyc)}")
                continue
            if not all(0 <= x < v for x in cyc):
                defects.append(f"{tag} cycle {i}: vertex outside 0..{v - 1}")
                continue
            hit: set[int] = set()
            prev = cyc[-1]
            for x in cyc:
                e = prev * v + x if prev < x else x * v + prev
                prev = x
                if seen[e]:
                    defects.append(f"{tag} cycle {i}: edge {divmod(e, v)} covered twice")
                seen[e] = 1
                if tag == "first":
                    owner[e] = i
                else:
                    o = owner[e]
                    if o >= 0:
                        if o in hit:
                            defects.append(f"second cycle {i} shares two edges with first cycle {o}")
                        hit.add(o)
        if sum(seen) != n_edges:
            defects.append(f"{tag}: covers {sum(seen)} of {n_edges} edges")
    return defects


def read_design(text: str):
    """(v, l, first, second) from a design file, labels mapped to ids by
    their position in the file's label list."""
    doc = json.loads(text)
    labels = doc["spec"]["labels"]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels) or doc["spec"]["kind"] != "complete":
        raise ValueError("design is not over a complete graph with distinct labels")
    systems = [[tuple(index[lab] for lab in c) for c in doc["systems"][name]]
               for name in ("first", "second")]
    return len(labels), int(doc["meta"]["length"]), systems[0], systems[1]


def check_design(text: str) -> list[str]:
    v, l, first, second = read_design(text)
    return check_pair(v, l, first, second)


# ------------------------------------------------------------- mutations

# `orthocycles verify` should exit 1 with a report on each of them; on
# "repeat" it exits 2 today (see README.md, "Named fault")
MUTATIONS = ("transpose", "drop", "repeat")


def mutate(text: str, kind: str, rng: random.Random) -> str:
    """A copy of a design file with one defect.

    transpose: swap two vertices inside one cycle (seeded);
    drop: remove one cycle (seeded);
    repeat: the first cycle of the first system repeats its first vertex in
    its last position (fixed, so the outcome never depends on the seed).
    """
    doc = json.loads(text)
    systems = doc["systems"]
    if kind == "transpose":
        cyc = systems[rng.choice(("first", "second"))]
        c = cyc[rng.randrange(len(cyc))]
        i, j = rng.sample(range(len(c)), 2)
        c[i], c[j] = c[j], c[i]
    elif kind == "drop":
        cyc = systems[rng.choice(("first", "second"))]
        del cyc[rng.randrange(len(cyc))]
    elif kind == "repeat":
        c = systems["first"][0]
        c[-1] = c[0]
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------- heffter

def check_census_array(cells, mod: int = 19, top: int = 9) -> list[str]:
    """A full 3x3 array: zero line sums mod 19, one of +-x for x in 1..9."""
    defects = []
    if len(cells) != 3 or any(len(r) != 3 or None in r for r in cells):
        return [f"not a full 3x3 array: {cells}"]
    for i, row in enumerate(cells):
        if sum(row) % mod:
            defects.append(f"row {i} sums to {sum(row) % mod}")
    for j in range(3):
        col = [cells[i][j] for i in range(3)]
        if sum(col) % mod:
            defects.append(f"column {j} sums to {sum(col) % mod}")
    mags = sorted(abs(x) for row in cells for x in row)
    if mags != list(range(1, top + 1)):
        defects.append(f"symbols {mags} are not one of +-x for each x in 1..{top}")
    return defects


def _distinct_partial_sums(order, mod: int) -> bool:
    sums, acc = set(), 0
    for x in order:
        acc = (acc + x) % mod
        sums.add(acc)
    return len(sums) == len(order)


def check_orderings(lines, orders, mod: int = 19) -> list[str]:
    """Each reported order is a rearrangement of its line with distinct
    partial sums; a line reported as having none has none."""
    defects = []
    for line, order in zip(lines, orders, strict=True):
        if order is None:
            if any(_distinct_partial_sums(p, mod) for p in permutations(line)):
                defects.append(f"line {line} has a simple order but none was reported")
        elif sorted(order) != sorted(line) or not _distinct_partial_sums(order, mod):
            defects.append(f"order {order} of line {line} is not simple")
    return defects
