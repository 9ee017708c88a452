"""Auxiliary combinatorial ingredients for the recursive constructions:
triple systems, group divisible designs with block size three, and symmetric
quasigroups whose holes are the pairs {2i, 2i+1}.

Everything is deterministic.  Triple systems and quasigroups with holes are
built by direct algebra for every order.  Only block-three designs with mixed
group sizes, which the constructions ask for as types (4, 2^m) and (5, 3^2m),
still fall back to a Stinson-style hill climb with a fixed internal seed.
Every builder self-checks before returning, so a returned object is always
valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from random import Random

_CLIMB_SEED = 7
_MAX_RESTARTS = 60


def idempotent_symmetric_quasigroup(n: int):
    """Odd n: symmetric latin table with f(i,i) = i (multiply by (n+1)/2)."""
    if n % 2 == 0 or n < 1:
        raise ValueError("order must be odd")
    h = (n + 1) // 2
    return tuple(tuple(((i + j) * h) % n for j in range(n)) for i in range(n))


def half_idempotent_quasigroup(t: int):
    """Order 2t: symmetric latin table with f(i,i) = i for i < t, else i - t."""
    if t < 1:
        raise ValueError("t must be positive")
    n = 2 * t

    def h(s):
        return s // 2 if s % 2 == 0 else s // 2 + t

    return tuple(tuple(h((i + j) % n) for j in range(n)) for i in range(n))


def steiner_triple_system(n: int) -> tuple:
    """Triples on {0..n-1} covering every pair exactly once (n = 1, 3 mod 6)."""
    triples = []
    if n == 1:
        return ()
    if n % 6 == 3:
        m = n // 3
        f = idempotent_symmetric_quasigroup(m)

        def pt(x, a):
            return a * m + x

        triples += [(pt(x, 0), pt(x, 1), pt(x, 2)) for x in range(m)]
        for a in range(3):
            for x, y in combinations(range(m), 2):
                triples.append(tuple(sorted((pt(x, a), pt(y, a), pt(f[x][y], (a + 1) % 3)))))
    elif n % 6 == 1:
        t = (n - 1) // 6
        m = 2 * t
        f = half_idempotent_quasigroup(t)
        inf = n - 1

        def pt(x, a):
            return a * m + x

        triples += [(pt(x, 0), pt(x, 1), pt(x, 2)) for x in range(t)]
        for a in range(3):
            for x in range(t, m):
                triples.append(tuple(sorted((inf, pt(x, a), pt(x - t, (a + 1) % 3)))))
            for x, y in combinations(range(m), 2):
                triples.append(tuple(sorted((pt(x, a), pt(y, a), pt(f[x][y], (a + 1) % 3)))))
    else:
        raise ValueError(f"no triple system of order {n}")
    assert len(triples) == n * (n - 1) // 6
    return tuple(sorted(triples))


@dataclass(frozen=True)
class GroupDivisibleDesign:
    """Block-three design: points 0..n-1 split into consecutive groups; the
    triples cover every cross-group pair exactly once."""
    group_sizes: tuple
    triples: tuple

    @property
    def points(self) -> int:
        return sum(self.group_sizes)

    def groups(self):
        out, start = [], 0
        for s in self.group_sizes:
            out.append(tuple(range(start, start + s)))
            start += s
        return tuple(out)


def _group_index(sizes):
    out = []
    for i, s in enumerate(sizes):
        out.extend([i] * s)
    return out


def _check_gdd(gdd: GroupDivisibleDesign):
    gidx = _group_index(gdd.group_sizes)
    need = {(x, y) for x, y in combinations(range(gdd.points), 2) if gidx[x] != gidx[y]}
    for t in gdd.triples:
        for p in combinations(t, 2):
            if p not in need:
                raise AssertionError(f"pair {p} duplicated or inside a group")
            need.discard(p)
    if need:
        raise AssertionError(f"{len(need)} cross pairs uncovered")


def _gdd_from_point_deletion(u: int) -> GroupDivisibleDesign:
    # delete one point of a triple system of order 2u+1; its triples become
    # the u groups of size 2
    sts = steiner_triple_system(2 * u + 1)
    gone = 2 * u
    pairs = sorted(tuple(x for x in t if x != gone) for t in sts if gone in t)
    relabel = {}
    for i, (p, q) in enumerate(pairs):
        relabel[p], relabel[q] = 2 * i, 2 * i + 1
    triples = sorted(tuple(sorted(relabel[x] for x in t)) for t in sts if gone not in t)
    return GroupDivisibleDesign((2,) * u, tuple(triples))


def _gdd_triple_groups(u: int) -> GroupDivisibleDesign:
    # groups {3i, 3i+1, 3i+2}; levels rotate via an idempotent quasigroup
    f = idempotent_symmetric_quasigroup(u)
    triples = []
    for a in range(3):
        for i, j in combinations(range(u), 2):
            triples.append(tuple(sorted((3 * i + a, 3 * j + a, 3 * f[i][j] + (a + 1) % 3))))
    return GroupDivisibleDesign((3,) * u, tuple(sorted(triples)))


def _gdd_hill_climb(sizes, seed: int) -> GroupDivisibleDesign:
    # Stinson-style: pick a live point and two of its uncovered partners.
    # At most one existing triple is evicted per move, so coverage never
    # drops; cross-degrees stay even, so a live point has >= 2 partners.
    n = sum(sizes)
    gidx = _group_index(sizes)
    total = sum(len([y for y in range(n) if gidx[x] != gidx[y]]) for x in range(n)) // 2

    def key(a, b):
        return (a, b) if a < b else (b, a)

    for attempt in range(_MAX_RESTARTS):
        rng = Random(seed + attempt)
        cover: dict = {}
        live = [set(y for y in range(n) if gidx[y] != gidx[x]) for x in range(n)]
        covered = 0
        steps = 300 * n * n
        while covered < total and steps > 0:
            steps -= 1
            x = rng.randrange(n)
            if not live[x]:
                continue
            y, z = rng.sample(sorted(live[x]), 2)
            if gidx[y] == gidx[z]:
                continue
            old = cover.get(key(y, z))
            if old is not None:
                for q in combinations(old, 2):
                    del cover[q]
                    a, b = q
                    live[a].add(b)
                    live[b].add(a)
                covered -= 3
            t = tuple(sorted((x, y, z)))
            for a, b in combinations(t, 2):
                cover[(a, b)] = t
                live[a].discard(b)
                live[b].discard(a)
            covered += 3
        if covered == total:
            return GroupDivisibleDesign(tuple(sizes), tuple(sorted(set(cover.values()))))
    raise RuntimeError(f"no block-three design of type {sizes} found")


def _gdd_admissible(sizes) -> bool:
    n = sum(sizes)
    if any((n - g) % 2 for g in sizes):
        return False  # each point's cross pairs split into pairs of a triple
    cross = (n * n - sum(g * g for g in sizes)) // 2
    if cross % 3:
        return False
    if len(sizes) == 3 and len(set(sizes)) > 1:
        # with three groups every triple is a transversal, so the three
        # cross-pair counts must all be equal, forcing equal group sizes
        return False
    return True


@lru_cache(maxsize=None)
def build_gdd(group_sizes: tuple) -> GroupDivisibleDesign:
    """Group divisible design with block size 3 and the given group sizes,
    laid out on consecutive point ranges in the given order."""
    sizes = tuple(group_sizes)
    if len(sizes) < 3:
        raise ValueError("need at least three groups")
    if not _gdd_admissible(sizes):
        raise ValueError(f"no block-three design of type {sizes}")
    if all(s == 2 for s in sizes) and len(sizes) % 3 in (0, 1):
        gdd = _gdd_from_point_deletion(len(sizes))
    elif all(s == 3 for s in sizes) and len(sizes) % 2 == 1:
        gdd = _gdd_triple_groups(len(sizes))
    else:
        gdd = _gdd_hill_climb(sizes, _CLIMB_SEED)
    _check_gdd(gdd)
    return gdd


@dataclass(frozen=True)
class QuasigroupWithHoles:
    """Symmetric quasigroup on {0..2k-1} with holes {2i, 2i+1}: products are
    defined across holes, avoid both operands' holes, and every row hits every
    symbol outside its own hole exactly once."""
    k: int
    table: tuple

    def mul(self, x: int, y: int) -> int:
        if x // 2 == y // 2:
            raise ValueError(f"{x} and {y} share a hole")
        return self.table[x][y]

    @staticmethod
    def hole_of(x: int) -> tuple:
        return (x - x % 2, x - x % 2 + 1)


def _qh_from_hole_level(k: int):
    # value 2f(i,j) + (parity of x+y) splits each hole-level product into the
    # two symbols of the target hole, one per parity, keeping rows latin
    f = idempotent_symmetric_quasigroup(k)
    n = 2 * k
    return tuple(tuple(None if x // 2 == y // 2 else 2 * f[x // 2][y // 2] + ((x ^ y) & 1)
                       for y in range(n)) for x in range(n))


def _qh_from_gdd(k: int):
    # x*y = third point of the unique triple through {x, y}
    gdd = build_gdd((2,) * k)
    third: dict = {}
    for a, b, c in gdd.triples:
        third[(a, b)] = c
        third[(a, c)] = b
        third[(b, c)] = a
    n = 2 * k
    return tuple(tuple(None if x // 2 == y // 2 else third[(min(x, y), max(x, y))]
                       for y in range(n)) for x in range(n))


def _qh_doubled(k: int):
    # even k, after the 6n+5 construction (Lindner & Rodger, Design Theory):
    # m = k-1 is odd, (x,a) = 2x+a, and (x,a)(y,b) = (f(x,y), a+b+[y-x = +-2])
    # with an extra hole {inf0, inf1}.  The cells {(x,0),(x+1,1)} and
    # {(x,0),(x+2,1)} form an even 2-factor, bipartite between the levels and
    # holding every symbol once, so they can take inf0 and inf1 while each
    # displaced symbol moves to the extra hole's rows at the cell's endpoints
    m = k - 1
    f = idempotent_symmetric_quasigroup(m)
    inf0, inf1 = 2 * m, 2 * m + 1
    t = [[None] * (2 * k) for _ in range(2 * k)]
    for x in range(m):
        for y in range(m):
            if x != y:
                s = (y - x) % m in (2, m - 2)
                for a in (0, 1):
                    for b in (0, 1):
                        t[2 * x + a][2 * y + b] = 2 * f[x][y] + ((a + b + s) & 1)
    for x in range(m):
        p, q, r = 2 * x, 2 * ((x + 1) % m) + 1, 2 * ((x + 2) % m) + 1
        one, two = t[p][q], t[p][r]
        t[p][q] = t[q][p] = inf0
        t[p][r] = t[r][p] = inf1
        for u, w, z in ((p, inf0, one), (q, inf1, one), (p, inf1, two), (r, inf0, two)):
            t[u][w] = t[w][u] = z
    return tuple(map(tuple, t))


def _check_qh(q: QuasigroupWithHoles):
    n = 2 * q.k
    for x in range(n):
        seen = []
        for y in range(n):
            z = q.table[x][y]
            if x // 2 == y // 2:
                if z is not None:
                    raise AssertionError("hole cell is filled")
                continue
            if z != q.table[y][x]:
                raise AssertionError("table is not symmetric")
            if z // 2 in (x // 2, y // 2):
                raise AssertionError("product lands in an operand's hole")
            seen.append(z)
        if sorted(seen) != [z for z in range(n) if z // 2 != x // 2]:
            raise AssertionError(f"row {x} is not a bijection outside its hole")


@lru_cache(maxsize=None)
def build_quasigroup_with_holes(k: int) -> QuasigroupWithHoles:
    """Symmetric quasigroup of order 2k with holes {2i, 2i+1}; k >= 3."""
    if k < 3:
        raise ValueError("need at least three holes")
    if k % 2 == 1:
        table = _qh_from_hole_level(k)
    elif k % 3 in (0, 1):
        table = _qh_from_gdd(k)
    else:
        table = _qh_doubled(k)
    q = QuasigroupWithHoles(k, table)
    _check_qh(q)
    return q
