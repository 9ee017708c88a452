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
candidates are the set bits of the last vertex's row in ascending order.
All found pairs are re-checked with verify_pair before being returned.
"""

from __future__ import annotations

from itertools import compress
from random import Random
from typing import NamedTuple

from .core import (
    CycleSystem,
    GraphSpec,
    OrthogonalPair,
    Value,
    canonical_cycle,
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


def _run(budget: SearchBudget, search) -> SearchResult:
    """search(b) on a fresh node budget b: found if it returns a pair,
    exhausted if it returns None or runs out of nodes."""
    b = _Budget(budget.max_nodes)
    try:
        pair = search(b)
    except _OutOfBudget:
        return SearchResult("exhausted", None, budget.max_nodes)
    return SearchResult("found" if pair else "exhausted", pair, budget.max_nodes - b.left)


def _checked(pair: OrthogonalPair, l: int) -> OrthogonalPair:
    rep = verify_pair(pair, l)
    if not rep.ok:
        raise AssertionError(f"search produced an invalid pair: {rep}")
    return pair


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
    classes = list(range(1, l + 1))

    def shuffled(xs):
        xs = list(xs)
        rng.shuffle(xs)
        return xs

    def rec(verts, used):
        pos = len(verts)
        if pos == l:
            (last,) = set(classes) - used
            d = (-verts[-1]) % v
            budget.spend()
            if d == last or d == v - last:
                yield tuple(verts)
            return
        for c in shuffled(c for c in classes if c not in used):
            steps = (c,) if pos == 1 else shuffled((c, v - c))
            for d in steps:
                budget.spend()
                nxt = (verts[-1] + d) % v
                if nxt in verts:
                    continue
                yield from rec(verts + [nxt], used | {c})

    yield from rec([0], set())


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
    seen = dict()
    for s in range(v):
        seen.setdefault(canonical_cycle(tuple((x + s) % v for x in base)), None)
    return list(seen)


def _cyclic_pair(spec: GraphSpec, l: int, b: _Budget, seed: int) -> OrthogonalPair | None:
    """The orbit over Z_v of the first difference base, and as its mate the
    orbit of the first base of a second shuffle whose translates each cross
    the first base in at most one edge (a base fails against itself at
    shift 0).  None if the bases run out.

    Every l-cycle of Z_{2l+1} has a full orbit: a shift that maps it onto
    itself maps its l vertices onto themselves, so the shift's order
    divides l as well as 2l+1, and the two are coprime.
    """
    v = spec.v
    base = next(_difference_bases(v, l, b, Random(seed)), None)
    if base is None:
        return None
    m = meta(route="search", seed=seed)
    first = CycleSystem(spec, _orbit_cycles(base, v), meta=m)
    for cand in _difference_bases(v, l, b, Random(seed + 1)):
        if _translates_cross_ok(base, cand, v):
            orbit = CycleSystem(spec, _orbit_cycles(cand, v), meta=m)
            return _checked(OrthogonalPair(spec, first, orbit), l)
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

    def grow():
        cycles = []
        free = _free_rows(spec)

        def path_search(path, target, depth):
            budget.spend()
            last = path[-1]
            if depth == 0:
                return free[last][target]
            row = free[last]
            nbrs = list(range(v))
            rng.shuffle(nbrs)
            for nxt in nbrs:
                if not row[nxt] or nxt == target or nxt in path:
                    continue
                row[nxt] = free[nxt][last] = 0
                path.append(nxt)
                if path_search(path, target, depth - 1):
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


def _general_pair(spec: GraphSpec, l: int, b: _Budget, seed: int) -> OrthogonalPair | None:
    """A randomized greedy first system, then its depth-first mate, or None
    once the mate tree is done.

    Each mate cycle starts on the least uncovered edge (u, anchor), so u is
    the least uncovered vertex.  A cycle may share at most one edge with each
    first cycle, and every host edge has one owner in the first system:
    owner[a][x] is the index of the first cycle on edge {a, x}.  Uncovered
    edges change only when a cycle closes, and a failed subtree restores
    them, so every candidate of a step sees the same rows.
    """
    m = meta(route="search", seed=seed)
    first = CycleSystem(spec, _greedy_system(spec, l, b, Random(seed)), meta=m)
    v = spec.v
    owner = [[-1] * v for _ in range(v)]
    for j, c in enumerate(first.cycles):
        for a, x in _steps(c):
            owner[a][x] = owner[x][a] = j
    free = _free_rows(spec)

    def rec(done):
        b.spend()
        least = _least_free(free)
        if least is None:
            return done
        u, anchor = least
        return extend([u, anchor], {u, anchor}, {owner[u][anchor]}, done)

    def extend(path, used, shared, done):
        b.spend()
        last = path[-1]
        if len(path) == l:
            start = path[0]
            if not free[last][start] or owner[last][start] in shared:
                return None
            steps = list(_steps(path))
            for a, x in steps:
                free[a][x] = free[x][a] = 0
            found = rec(done + [tuple(path)])
            if found is None:
                for a, x in steps:
                    free[a][x] = free[x][a] = 1
            return found
        row = owner[last]
        for nxt in compress(range(v), free[last]):
            j = row[nxt]
            if nxt in used or j in shared:
                continue
            shared.add(j)
            path.append(nxt)
            used.add(nxt)
            found = extend(path, used, shared, done)
            if found is not None:
                return found
            used.discard(nxt)
            path.pop()
            shared.discard(j)
        return None

    found = rec([])
    if found is None:
        return None
    return _checked(OrthogonalPair(spec, first, CycleSystem(spec, found, meta=m)), l)


def search_pair(spec: GraphSpec, l: int, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """A verified orthogonal pair on spec, or exhausted / unsatisfiable."""
    seed = budget.seed
    if spec.kind == "complete":
        v = spec.v
        if l < 3 or v % 2 == 0 or v < 3 or l > v or (v * (v - 1)) % (2 * l) != 0:
            raise ValueError(f"no {l}-cycle decomposition of order {v} can exist")
        if v == l:
            # certificate, not search: a system has (l-1)/2 cycles, so the l
            # edges of any mate cycle put at least three into one of them
            return SearchResult("unsatisfiable", None, 0)
        if v == 2 * l + 1:
            return _run(budget, lambda b: _cyclic_pair(spec, l, b, seed))
    return _run(budget, lambda b: _general_pair(spec, l, b, seed))
