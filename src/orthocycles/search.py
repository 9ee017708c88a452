"""Bounded exact search for small orthogonal pairs.

Three routes behind search_pair:
  * v = 2l+1 over Z_v: enumerate base cycles whose edge differences hit every
    class 1..l once, then pair two bases whose orbits cross in <= 1 edge.
    Translation invariance means one base against all v translates of the
    other covers every cross pair, and the check counts, per shift, the edge
    pairs of equal difference that the shift lines up.
  * v = l: no search.  A system has only (l-1)/2 cycles, so the l edges of
    any cycle of a mate fall at least three into one of them (pigeonhole),
    and the result is "unsatisfiable" with no nodes spent.
  * anything else: randomized greedy first system, then a depth-first mate
    search on the same node budget.  Each mate cycle starts on the least
    uncovered edge and keeps at most one shared edge per first cycle.

The general engines work on integer vertex ids: a bytearray row per vertex
marks the edges still uncovered (free[a][x] == free[x][a]), the mate search
reads the first system's owner of edge {a, x} from a v x v table, and
candidates are the set bits of the last vertex's row in ascending order;
bytearray marks hold the open mate path's vertices and the first cycles it
meets.  Both depth-first searches take their leaf step in the parent's
candidate loop: the greedy path's and the mate path's last vertex each spend
their node there and test the closing edge in place, so only a mate cycle
that closes costs a call.  The cyclic bases grow one shared vertex list and
keep the classes taken and vertices visited as int bit masks.  Every random
order is the one Random.shuffle would give, drawn by _shuffled (or, for a
cyclic step's two signs, by its one 2-bit draw inline) through the seeded
Random's getrandbits alone, the Mersenne Twister output, so no pin depends
on the private helpers behind shuffle.
The engines return cycle lists; search_pair alone builds a found pair's two
CycleSystems and runs verify_pair on it before returning it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from random import Random
from typing import NamedTuple

from .core import (
    CycleSystem,
    GraphSpec,
    OrthogonalPair,
    Value,
    meta,
)
# unused here, but perfbench/tracing.py wraps search.verify_decomposition
from .verify import verify_decomposition, verify_pair  # noqa: F401


class SearchBudget(Value):
    __slots__ = _fields = ("max_nodes", "seed")

    def __init__(self, max_nodes: int = 1_000_000, seed: int = 1):
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._set(max_nodes=max_nodes, seed=seed)


class SearchResult(NamedTuple):
    status: str  # "found" | "exhausted" | "unsatisfiable"
    pair: OrthogonalPair | None
    nodes: int


class _OutOfBudget(Exception):
    pass


class _Budget:
    __slots__ = ("left",)

    def __init__(self, max_nodes: int):
        self.left = max_nodes

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise _OutOfBudget


@lru_cache(maxsize=None)
def _fisher_yates(n: int) -> tuple:
    """The steps of a Fisher-Yates pass over n items, built once per n: for
    i = n-1 down to 1, i and the (i+1).bit_length() bits that its partner
    index is drawn with."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def _shuffled(xs, getrandbits) -> list:
    """xs as a list in the order Random.shuffle would leave it, drawn through
    getrandbits alone: a Fisher-Yates pass from the end, each index j <= i
    taken as (i+1).bit_length() bits and redrawn while it is above i."""
    xs = list(xs)
    for i, k in _fisher_yates(len(xs)):
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def _steps(cycle):
    """Consecutive vertex pairs of a closed cycle, the wrap pair included."""
    return zip(cycle, cycle[1:] + cycle[:1])


# ---------------------------------------------------------------- cyclic route

def _difference_bases(v: int, l: int, budget: _Budget, rng: Random):
    """Base l-cycles through 0 using each difference class 1..l exactly once.

    First step is restricted to the positive class representative: every orbit
    has a representative of that shape (rotate to put 0 first, pick the
    traversal direction whose first difference is <= (v-1)/2).
    """
    getrandbits = rng.getrandbits
    verts = [0]

    def rec(used, seen):
        # used: bit c per class taken; seen: bit x per vertex in verts
        pos, tail = len(verts), verts[-1]
        if pos == l:
            last = ((1 << (l + 1)) - 2 & ~used).bit_length() - 1
            d = -tail % v
            budget.spend()
            if d == last or d == v - last:
                yield tuple(verts)
            return
        for c in _shuffled([c for c in range(1, l + 1) if not used >> c & 1], getrandbits):
            if pos == 1:
                steps = (c,)
            else:
                # _shuffled((c, v - c)): one 2-bit draw, redrawn above 1
                j = getrandbits(2)
                while j > 1:
                    j = getrandbits(2)
                steps = (c, v - c) if j else (v - c, c)
            for d in steps:
                budget.spend()
                nxt = (tail + d) % v
                if seen >> nxt & 1:
                    continue
                verts.append(nxt)
                yield from rec(used | 1 << c, seen | 1 << nxt)
                verts.pop()

    yield from rec(0, 1)


def _translates_cross_ok(base_a, base_b, v: int) -> bool:
    """Every translate of base_b shares at most one edge with base_a.

    Shift s carries edge {x, y} of base_b onto edge {p, q} of base_a iff
    s = p - x = q - y or s = q - x = p - y (mod v): iff base_a has a step
    p -> q, in either direction, of difference y - x, with s = p - x.
    Count the shifts each such pair of edges gives.
    """
    starts: dict[int, list[int]] = {}
    for p, q in _steps(base_a):
        starts.setdefault((q - p) % v, []).append(p)
        starts.setdefault((p - q) % v, []).append(q)
    hits = [0] * v
    for x, y in _steps(base_b):
        for p in starts.get((y - x) % v, ()):
            s = (p - x) % v
            hits[s] += 1
            if hits[s] > 1:
                return False
    return True


def _orbit_cycles(base, v: int):
    return [tuple((x + s) % v for x in base) for s in range(v)]


def _cyclic_pair(spec: GraphSpec, l: int, b: _Budget, seed: int):
    """The orbit over Z_v of the first difference base, and as its mate the
    orbit of the first base of a second shuffle whose translates each cross
    the first base in at most one edge (a base fails against itself at
    shift 0), as two cycle lists.  None if the bases run out.

    Every l-cycle of Z_{2l+1} has a full orbit: a shift that maps it onto
    itself maps its l vertices onto themselves, so the shift's order
    divides l as well as 2l+1, and the two are coprime.
    """
    v = spec.v
    base = next(_difference_bases(v, l, b, Random(seed)), None)
    if base is None:
        return None
    for cand in _difference_bases(v, l, b, Random(seed + 1)):
        if _translates_cross_ok(base, cand, v):
            return _orbit_cycles(base, v), _orbit_cycles(cand, v)
    return None


# ------------------------------------------------------------- general route

def _free_rows(spec: GraphSpec) -> list[bytearray]:
    """free[a][x] == 1 iff {a, x} is a host edge: a pair of distinct vertices
    not both in the hole or in one part."""
    free = [bytearray(b"\x01") * spec.v for _ in range(spec.v)]
    for a, row in enumerate(free):
        row[a] = 0
    for group in (spec.hole, *spec.parts):
        for a in group:
            for x in group:
                free[a][x] = 0
    return free


def _least_free(free):
    """The least free edge (u, w), u < w, or None.  Rows are symmetric, so
    u is the least vertex with a free edge and w its least free neighbour."""
    for u, row in enumerate(free):
        w = row.find(1)
        if w >= 0:
            return u, w
    return None


def _greedy_system(spec: GraphSpec, l: int, budget: _Budget, rng: Random):
    """Cycles covering every host edge, each closing the least edge left by a
    randomized depth-first path; a dead end restarts the whole system."""
    v = spec.v
    getrandbits = rng.getrandbits

    def grow():
        cycles = []
        free = _free_rows(spec)

        def path_search(path, target, depth):
            budget.left -= 1
            if budget.left < 0:
                raise _OutOfBudget
            last = path[-1]
            row = free[last]
            for nxt in _shuffled(range(v), getrandbits):
                if not row[nxt] or nxt == target or nxt in path:
                    continue
                if depth == 1:
                    # the leaf step: nxt's node, then its edge to target
                    budget.left -= 1
                    if budget.left < 0:
                        raise _OutOfBudget
                    if not free[nxt][target]:
                        continue
                row[nxt] = free[nxt][last] = 0
                path.append(nxt)
                if depth == 1 or path_search(path, target, depth - 1):
                    return True
                path.pop()
                row[nxt] = free[nxt][last] = 1
            return False

        while (least := _least_free(free)) is not None:
            u, w = least
            free[u][w] = free[w][u] = 0
            path = [u]
            if not path_search(path, w, l - 2):
                return None
            free[path[-1]][w] = free[w][path[-1]] = 0
            cycles.append(tuple(path) + (w,))
        return cycles

    while True:
        budget.spend()
        cycles = grow()
        if cycles is not None:
            return cycles


def _general_pair(spec: GraphSpec, l: int, b: _Budget, seed: int):
    """A randomized greedy first system and its depth-first mate, as two
    cycle lists, or None once the mate tree is done.

    Each mate cycle starts on the least uncovered edge (u, anchor), so u is
    the least uncovered vertex.  A cycle may share at most one edge with each
    first cycle, and every host edge has one owner in the first system:
    owner[a][x] is the index, in drawn order, of the first cycle on edge
    {a, x}.  Uncovered edges change only when a cycle closes, and a failed
    subtree restores them, so every candidate of a step sees the same rows.
    The open path marks its vertices in on_path and the owners of its edges
    in met; a closed cycle clears both marks for the next cycle, which starts
    fresh, and restores them if that subtree fails.
    """
    first = _greedy_system(spec, l, b, Random(seed))
    v = spec.v
    owner = [[-1] * v for _ in range(v)]
    for j, c in enumerate(first):
        for a, x in _steps(c):
            owner[a][x] = owner[x][a] = j
    free = _free_rows(spec)
    on_path = bytearray(v)
    met = bytearray(len(first))

    def mark(path, flag):
        for a, x in zip(path, path[1:]):
            met[owner[a][x]] = flag
        for a in path:
            on_path[a] = flag

    def rec(done):
        b.spend()
        least = _least_free(free)
        if least is None:
            return done
        u, anchor = least
        path = [u, anchor]
        mark(path, 1)
        found = extend(path, done)
        if found is None:
            mark(path, 0)
        return found

    def close(path, done):
        steps = list(_steps(path))
        for a, x in steps:
            free[a][x] = free[x][a] = 0
        mark(path, 0)
        found = rec(done + [tuple(path)])
        if found is None:
            mark(path, 1)
            for a, x in steps:
                free[a][x] = free[x][a] = 1
        return found

    def extend(path, done):
        b.left -= 1
        if b.left < 0:
            raise _OutOfBudget
        last = path[-1]
        row = owner[last]
        leaf = len(path) == l - 1
        start = path[0]
        for nxt in compress(range(v), free[last]):
            j = row[nxt]
            if on_path[nxt] or met[j]:
                continue
            if leaf:
                # the last vertex's node, then its closing edge nxt -> start
                b.left -= 1
                if b.left < 0:
                    raise _OutOfBudget
                k = owner[nxt][start]
                if not free[nxt][start] or met[k] or k == j:
                    continue
            met[j] = on_path[nxt] = 1
            path.append(nxt)
            found = (close if leaf else extend)(path, done)
            if found is not None:
                return found
            path.pop()
            met[j] = on_path[nxt] = 0
        return None

    found = rec([])
    return None if found is None else (first, found)


def search_pair(spec: GraphSpec, l: int, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """A verified orthogonal pair on spec, or exhausted / unsatisfiable: the
    one place that builds a found pair from its cycles and verifies it."""
    v = spec.v
    if l < 3 or l > v or spec.kind == "complete" and (v % 2 == 0 or v * (v - 1) % (2 * l)):
        raise ValueError(f"no {l}-cycle decomposition of order {v} can exist")
    if spec.kind == "complete" and v == l:
        # certificate, not search: a system has (l-1)/2 cycles, so the l
        # edges of any mate cycle put at least three into one of them
        return SearchResult("unsatisfiable", None, 0)
    engine = _cyclic_pair if spec.kind == "complete" and v == 2 * l + 1 else _general_pair
    b = _Budget(budget.max_nodes)
    try:
        found = engine(spec, l, b, budget.seed)
    except _OutOfBudget:
        return SearchResult("exhausted", None, budget.max_nodes)
    if found is None:
        return SearchResult("exhausted", None, budget.max_nodes - b.left)
    m = meta(route="search", seed=budget.seed)
    pair = OrthogonalPair(spec, *(CycleSystem(spec, cycles, meta=m) for cycles in found))
    verify_pair(pair, l).check("searched pair")
    return SearchResult("found", pair, budget.max_nodes - b.left)
