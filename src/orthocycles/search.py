"""Bounded exact search for small orthogonal pairs.

Three routes behind search_pair:
  * v = 2l+1 over Z_v: enumerate base cycles whose edge differences hit every
    class 1..l once, then pair two bases whose orbits cross in <= 1 edge.
    Translation invariance means one base against all v translates of the
    other covers every cross pair.  search_second takes the same mate step
    when its first system is one full orbit over Z_v.
  * v = l: no search.  A system has only (l-1)/2 cycles, so the l edges of
    any cycle of a mate fall at least three into one of them (pigeonhole),
    and the result is "unsatisfiable" with no nodes spent.
  * anything else: randomized greedy first system, then a depth-first mate
    search on the same node budget.  Each mate cycle starts on the least
    uncovered edge and keeps at most one shared edge per first cycle.

All found pairs are re-checked with verify_pair before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .core import (
    CycleSystem,
    GraphSpec,
    OrthogonalPair,
    canonical_cycle,
    cycle_edges,
    edge,
    graph_edges,
    meta,
)
from .verify import verify_decomposition, verify_pair


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 1_000_000
    seed: int = 1

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SearchResult:
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


def _orbit_cycles(base, v: int):
    seen = dict()
    for s in range(v):
        seen.setdefault(canonical_cycle(tuple((x + s) % v for x in base)), None)
    return list(seen)


def _cyclic_mate(first: CycleSystem, base, b: _Budget, rng: Random, m) -> OrthogonalPair | None:
    """Mate of first, the full orbit of base over Z_v: the orbit of the first
    full-orbit difference base whose translates each cross base in at most
    one edge (base itself fails at shift 0).  None if the bases run out."""
    spec, l = first.spec, len(base)
    for cand in _difference_bases(spec.v, l, b, rng):
        orbit = _orbit_cycles(cand, spec.v)
        if len(orbit) == spec.v and _translates_cross_ok(base, cand, spec.v):
            return _checked(OrthogonalPair(spec, first, CycleSystem(spec, orbit, meta=m)), l)
    return None


def _cyclic_pair(spec: GraphSpec, l: int, b: _Budget, seed: int) -> OrthogonalPair | None:
    v = spec.v
    base = next((c for c in _difference_bases(v, l, b, Random(seed))
                 if len(_orbit_cycles(c, v)) == v), None)
    if base is None:
        return None
    m = meta(route="search", seed=seed)
    first = CycleSystem(spec, _orbit_cycles(base, v), meta=m)
    return _cyclic_mate(first, base, b, Random(seed + 1), m)


# ------------------------------------------------------------- general route

def _greedy_system(spec: GraphSpec, l: int, budget: _Budget, rng: Random):
    """Cycles covering every host edge, each closing the least edge left by a
    randomized depth-first path; a dead end restarts the whole system."""
    all_edges = frozenset(graph_edges(spec))

    def grow():
        cycles = []
        left = set(all_edges)

        def path_search(path, target, depth):
            budget.spend()
            if depth == 0:
                return edge(path[-1], target) in left
            nbrs = list(range(spec.v))
            rng.shuffle(nbrs)
            for nxt in nbrs:
                if nxt in path or nxt == target:
                    continue
                e = edge(path[-1], nxt)
                if e not in left:
                    continue
                left.discard(e)
                path.append(nxt)
                if path_search(path, target, depth - 1):
                    return True
                path.pop()
                left.add(e)
            return False

        while left:
            u, w = min(left)
            left.discard((u, w))
            path = [u]
            if not path_search(path, w, l - 2):
                return None
            left.discard(edge(path[-1], w))
            cycles.append(tuple(path) + (w,))
        return cycles

    while True:
        budget.spend()
        cycles = grow()
        if cycles is not None:
            return cycles


def _mate(first: CycleSystem, b: _Budget, m) -> OrthogonalPair | None:
    """Depth-first mate of a verified system, or None once the tree is done.

    Each cycle starts on the least uncovered edge (u, anchor); edges are
    stored low-high, so u is the least uncovered vertex.  A cycle may share
    at most one edge with each first cycle, and every host edge has one
    owner in the first system.
    """
    spec, l = first.spec, first.cycle_length
    owners = {e: j for j, c in enumerate(first.cycles) for e in cycle_edges(c)}
    uncovered = graph_edges(spec)

    def rec(done):
        b.spend()
        if not uncovered:
            return done
        u, anchor = min(uncovered)
        shared = {owners[u, anchor]}

        def extend(path, used):
            b.spend()
            if len(path) == l:
                e = edge(path[-1], path[0])
                if e not in uncovered or owners[e] in shared:
                    return None
                es = [edge(path[i], path[i + 1]) for i in range(l - 1)] + [e]
                uncovered.difference_update(es)
                found = rec(done + [tuple(path)])
                if found is None:
                    uncovered.update(es)
                return found
            for nxt in range(spec.v):
                if nxt in used:
                    continue
                e = edge(path[-1], nxt)
                if e not in uncovered or owners[e] in shared:
                    continue
                shared.add(owners[e])
                path.append(nxt)
                used.add(nxt)
                found = extend(path, used)
                if found is not None:
                    return found
                used.discard(nxt)
                path.pop()
                shared.discard(owners[e])
            return None

        return extend([u, anchor], {u, anchor})

    found = rec([])
    if found is None:
        return None
    return _checked(OrthogonalPair(spec, first, CycleSystem(spec, found, meta=m)), l)


def _general_pair(spec: GraphSpec, l: int, b: _Budget, seed: int) -> OrthogonalPair | None:
    m = meta(route="search", seed=seed)
    first = CycleSystem(spec, _greedy_system(spec, l, b, Random(seed)), meta=m)
    return _mate(first, b, m)


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


def search_second(first: CycleSystem, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Search for an orthogonal mate of a verified system: the cyclic mate
    step if first is one full orbit over Z_v, otherwise depth-first."""
    spec, l = first.spec, first.cycle_length
    if not verify_decomposition(first, l).ok:
        raise ValueError("first system is not a valid decomposition")
    m = meta(route="search", seed=budget.seed)
    if (spec.kind == "complete" and spec.v == 2 * l + 1 and len(first.cycles) == spec.v
            and set(_orbit_cycles(first.cycles[0], spec.v)) == set(first.cycles)):
        base = first.cycles[0]
        return _run(budget, lambda b: _cyclic_mate(first, base, b, Random(budget.seed), m))
    return _run(budget, lambda b: _mate(first, b, m))
