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
  * anything else: randomized greedy first system + depth-first mate search
    with per-cycle shared-edge counters pruned at 2.

All found pairs are re-checked with verify_pair before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
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
        if self.max_nodes < 1 or self.seed < 0:
            raise ValueError("budget must be positive")


@dataclass
class SearchResult:
    status: str  # "found" | "exhausted" | "unsatisfiable"
    pair: OrthogonalPair | None
    nodes: int


class _Budget:
    __slots__ = ("left",)

    def __init__(self, max_nodes: int):
        self.left = max_nodes

    def tick(self) -> bool:
        self.left -= 1
        return self.left >= 0


class _OutOfBudget(Exception):
    pass


def _spend(b: _Budget):
    if not b.tick():
        raise _OutOfBudget


# ---------------------------------------------------------------- cyclic route

def _difference_bases(v: int, l: int, budget: _Budget, rng: Random | None):
    """Base l-cycles through 0 using each difference class 1..l exactly once.

    First step is restricted to the positive class representative: every orbit
    has a representative of that shape (rotate to put 0 first, pick the
    traversal direction whose first difference is <= (v-1)/2).
    """
    classes = list(range(1, l + 1))

    def shuffled(xs):
        if rng is None:
            return list(xs)
        xs = list(xs)
        rng.shuffle(xs)
        return xs

    def rec(verts, used):
        pos = len(verts)
        if pos == l:
            (last,) = set(classes) - used
            d = (-verts[-1]) % v
            _spend(budget)
            if d == last or d == v - last:
                yield tuple(verts)
            return
        for c in shuffled(c for c in classes if c not in used):
            steps = (c,) if pos == 1 else shuffled((c, v - c))
            for d in steps:
                _spend(budget)
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
        if len(orbit) != spec.v or not _translates_cross_ok(base, cand, spec.v):
            continue
        pair = OrthogonalPair(spec, first, CycleSystem(spec, orbit, meta=m))
        rep = verify_pair(pair, l)
        if not rep.ok:
            raise AssertionError(f"search produced an invalid pair: {rep}")
        return pair
    return None


def _cyclic_pair(spec: GraphSpec, l: int, budget: SearchBudget) -> SearchResult:
    v = spec.v
    b = _Budget(budget.max_nodes)
    m = meta(route="search", seed=budget.seed)
    try:
        base = next((c for c in _difference_bases(v, l, b, Random(budget.seed))
                     if len(_orbit_cycles(c, v)) == v), None)
        pair = None
        if base is not None:
            first = CycleSystem(spec, _orbit_cycles(base, v), meta=m)
            pair = _cyclic_mate(first, base, b, Random(budget.seed + 1), m)
    except _OutOfBudget:
        return SearchResult("exhausted", None, budget.max_nodes)
    return SearchResult("found" if pair else "exhausted", pair, budget.max_nodes - b.left)


# ------------------------------------------------------------- general route

def _greedy_system(spec: GraphSpec, l: int, budget: _Budget, rng: Random):
    uncovered = graph_edges(spec)
    all_edges = frozenset(uncovered)

    def grow():
        cycles = []
        left = set(all_edges)

        def path_search(path, target, depth):
            _spend(budget)
            if depth == 0:
                e = edge(path[-1], target)
                return [e] if e in left else None
            nbrs = list(range(spec.v))
            rng.shuffle(nbrs)
            for nxt in nbrs:
                if nxt in path or nxt == target:
                    continue
                e = edge(path[-1], nxt)
                if e not in left:
                    continue
                left.discard(e)
                rest = path_search(path + [nxt], target, depth - 1)
                if rest is not None:
                    return [e] + rest
                left.add(e)
            return None

        while left:
            u, w = min(left)
            base = edge(u, w)
            left.discard(base)
            es = path_search([u], w, l - 2)
            if es is None:
                return None
            es.append(base)
            cycle, cur = [u], u
            for e in es[:-1]:
                cur = e[1] if e[0] == cur else e[0]
                cycle.append(cur)
            for e in es:
                left.discard(e)
            cycles.append(tuple(cycle))
        return cycles

    while True:
        _spend(budget)
        got = grow()
        if got is not None:
            return got


def search_pair(spec: GraphSpec, l: int, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """A verified orthogonal pair on spec, or exhausted / unsatisfiable."""
    if spec.kind == "complete":
        v = spec.v
        if v % 2 == 0 or v < 3 or l > v or (v * (v - 1)) % (2 * l) != 0:
            raise ValueError(f"no {l}-cycle decomposition of order {v} can exist")
        if v == l:
            # certificate, not search: a system has (l-1)/2 cycles, so the l
            # edges of any mate cycle put at least three into one of them
            return SearchResult("unsatisfiable", None, 0)
        if v == 2 * l + 1:
            return _cyclic_pair(spec, l, budget)
    b = _Budget(budget.max_nodes)
    rng = Random(budget.seed)
    try:
        cycles = _greedy_system(spec, l, b, rng)
    except _OutOfBudget:
        return SearchResult("exhausted", None, budget.max_nodes)
    first = CycleSystem(spec, cycles, meta=meta(route="search", seed=budget.seed))
    res = search_second(first, SearchBudget(max(b.left, 1), budget.seed))
    return SearchResult(res.status, res.pair, budget.max_nodes - b.left + res.nodes)


def search_second(first: CycleSystem, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Depth-first search for an orthogonal mate of a verified system."""
    spec = first.spec
    l = first.cycle_length
    if not verify_decomposition(first, l).ok:
        raise ValueError("first system is not a valid decomposition")
    b = _Budget(budget.max_nodes)

    # cyclic fast path: single full orbit over Z_v
    if spec.kind == "complete" and spec.v == 2 * l + 1 and len(first.cycles) == spec.v:
        base = first.cycles[0]
        if set(_orbit_cycles(base, spec.v)) == set(first.cycles):
            try:
                pair = _cyclic_mate(first, base, b, Random(budget.seed),
                                    meta(route="search", seed=budget.seed))
            except _OutOfBudget:
                return SearchResult("exhausted", None, budget.max_nodes)
            return SearchResult("found" if pair else "exhausted", pair,
                                budget.max_nodes - b.left)

    owners: dict = {}
    for j, c in enumerate(first.cycles):
        for e in cycle_edges(c):
            owners[e] = j
    uncovered = set(graph_edges(spec))
    found: list = []

    def rec(done):
        _spend(b)
        if not uncovered:
            found.extend(done)
            return True
        u = min(x for e in uncovered for x in e)
        anchor = min(x for e in uncovered if u in e for x in e if x != u)
        j0 = owners.get(edge(u, anchor))
        shared: dict = {} if j0 is None else {j0: 1}

        def extend(path, used):
            _spend(b)
            if len(path) == l:
                e = edge(path[-1], path[0])
                if e not in uncovered:
                    return False
                j = owners.get(e)
                if j is not None and shared.get(j, 0) >= 1:
                    return False
                es = [edge(path[i], path[i + 1]) for i in range(l - 1)] + [e]
                for x in es:
                    uncovered.discard(x)
                if rec(done + [tuple(path)]):
                    return True
                uncovered.update(es)
                return False
            for nxt in range(spec.v):
                if nxt in used:
                    continue
                e = edge(path[-1], nxt)
                if e not in uncovered:
                    continue
                j = owners.get(e)
                if j is not None and shared.get(j, 0) >= 1:
                    continue
                if j is not None:
                    shared[j] = shared.get(j, 0) + 1
                path.append(nxt)
                used.add(nxt)
                if extend(path, used):
                    return True
                used.discard(nxt)
                path.pop()
                if j is not None:
                    shared[j] -= 1
            return False

        return extend([u, anchor], {u, anchor})

    try:
        if rec([]):
            second = CycleSystem(spec, found, meta=meta(route="search", seed=budget.seed))
            pair = OrthogonalPair(spec, first, second)
            rep = verify_pair(pair, l)
            if not rep.ok:
                raise AssertionError(f"mate search produced an invalid pair: {rep}")
            return SearchResult("found", pair, budget.max_nodes - b.left)
        return SearchResult("exhausted", None, budget.max_nodes - b.left)
    except _OutOfBudget:
        return SearchResult("exhausted", None, budget.max_nodes)


# -------------------------------------------------- bipartite completion search

def _bipartite_diffs(cycle_pairs, m: int = 16):
    """Difference classes of an alternating bipartite cycle ((x,0),(y,1),...)."""
    out = []
    for (x, jx), (y, jy) in zip(cycle_pairs, cycle_pairs[1:] + cycle_pairs[:1]):
        if jx == jy:
            raise ValueError("cycle does not alternate sides")
        out.append((y - x) % m if jx == 0 else (x - y) % m)
    return out


def _bipartite_bases_with_diffs(diffs, m: int = 16):
    """All alternating 8-cycles (x1,0),(y1,1),...,(x4,0),(y4,1) with x1 = 0
    whose difference multiset is exactly `diffs`, lexicographically."""
    k = len(diffs) // 2
    for perm in permutations(sorted(diffs)):
        xs, ys = [0], []
        ok = True
        for i in range(k):
            ys.append((xs[i] + perm[2 * i]) % m)
            xs.append((ys[i] - perm[2 * i + 1]) % m)
        if xs[k] != 0:
            continue
        xs = xs[:k]
        if len(set(xs)) != k or len(set(ys)) != k:
            continue
        cyc = []
        for x, y in zip(xs, ys):
            cyc.extend([(x, 0), (y, 1)])
        yield tuple(cyc)


def _bipartite_edges(cycle_pairs):
    out = set()
    for (x, jx), (y, jy) in zip(cycle_pairs, cycle_pairs[1:] + cycle_pairs[:1]):
        out.add((x, y) if jx == 0 else (y, x))
    return out


def _bipartite_cross_ok(c1, c2, m: int = 16) -> bool:
    e1 = _bipartite_edges(c1)
    base2 = list(_bipartite_edges(c2))
    for s in range(m):
        shared = 0
        for x, y in base2:
            if ((x + s) % m, (y + s) % m) in e1:
                shared += 1
                if shared > 1:
                    return False
    return True


def bipartite_translation_completion(base_a, base_b, m: int = 16):
    """Second bases completing two published K_{m,m} base cycles to full
    orthogonal decompositions.

    Each published base misses half the difference classes; the completions
    use exactly the complementary classes, and all four orbit pairs are
    checked for <= 1 shared edge under every relative translation.  Returns
    the lexicographically first completion (mate_a, mate_b).
    """
    da, db = _bipartite_diffs(base_a, m), _bipartite_diffs(base_b, m)
    if not _bipartite_cross_ok(base_a, base_b, m):
        raise AssertionError("published bases are not mutually orthogonal")
    comp_a = sorted(set(range(m)) - set(da))
    comp_b = sorted(set(range(m)) - set(db))
    cand_a = [c for c in _bipartite_bases_with_diffs(comp_a, m)
              if _bipartite_cross_ok(c, base_b, m)]
    for cb in _bipartite_bases_with_diffs(comp_b, m):
        if not _bipartite_cross_ok(cb, base_a, m):
            continue
        for ca in cand_a:
            if _bipartite_cross_ok(ca, cb, m):
                return ca, cb
    raise RuntimeError("no completion found")
