"""Auxiliary combinatorial ingredients for the recursive constructions:
triple systems, group divisible designs with block size three, and symmetric
quasigroups whose holes are the pairs {2i, 2i+1}.

Everything is built by direct algebra, with no search and no random source:
triple systems and quasigroups with holes for every order, and block-three
designs of the three types the constructions ask for, 2^u, 3^u and 4.2^m.
Every public builder self-checks before returning, so a returned object is
always valid: the verifier checks the triples as 3-cycles, and _check_qh the
tables.  A triple system is checked within the 2^u design made from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, product
from types import SimpleNamespace
from typing import NamedTuple

from .core import GraphSpec
from .verify import verify_decomposition


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


def _levels(f, pt) -> list:
    """The level rule of the triple systems and the 3^u and 4.2^m designs: the
    sorted triples {(x,a), (y,a), (f(x,y), a+1)} for x < y and a in Z_3, where
    pt(x, a) is the point of x on level a."""
    return [tuple(sorted((pt(x, a), pt(y, a), pt(f[x][y], (a + 1) % 3))))
            for a in range(3) for x, y in combinations(range(len(f)), 2)]


def _triple_system(n: int) -> tuple:
    """Triples on {0..n-1} covering every pair exactly once (n = 1, 3 mod 6):
    Bose's construction for n = 3 mod 6, Skolem's for n = 1 mod 6.
    Unchecked: point deletion's design is checked whole by build_gdd."""
    if n < 1:
        raise ValueError(f"no triple system of order {n}")
    if n == 1:
        return ()
    if n % 6 == 3:
        m = t = n // 3
        f = idempotent_symmetric_quasigroup(m)
    elif n % 6 == 1:
        t = (n - 1) // 6
        m = 2 * t
        f = half_idempotent_quasigroup(t)
    else:
        raise ValueError(f"no triple system of order {n}")
    # point a*m + x is x on level a; f(x,x) = x for x < t gives a transversal,
    # and Skolem's f(x,x) = x - t for x >= t a triple through the point n - 1
    triples = _levels(f, lambda x, a: a * m + x)
    triples += [(x, m + x, 2 * m + x) for x in range(t)]
    triples += [tuple(sorted((a * m + x, (a + 1) % 3 * m + x - t, n - 1)))
                for a in range(3) for x in range(t, m)]
    return tuple(sorted(triples))


class GroupDivisibleDesign(NamedTuple):
    """Block-three design: points 0..n-1 split into consecutive groups; the
    triples cover every cross-group pair exactly once."""
    group_sizes: tuple
    triples: tuple


def _check_gdd(gdd: GroupDivisibleDesign, what="block-three design"):
    """Verify the triples as 3-cycles on the groups' multipartite graph (type 1^n: K_n)."""
    ends = list(accumulate(gdd.group_sizes, initial=0))
    parts = tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))
    spec = GraphSpec("multipartite", tuple(map(str, range(ends[-1]))), parts=parts)
    verify_decomposition(SimpleNamespace(spec=spec, cycles=gdd.triples), 3).check(what)


def _gdd_from_point_deletion(u: int) -> GroupDivisibleDesign:
    # delete one point of a triple system of order 2u+1; its triples become
    # the u groups of size 2
    sts = _triple_system(2 * u + 1)
    gone = 2 * u
    pairs = sorted(tuple(x for x in t if x != gone) for t in sts if gone in t)
    relabel = {}
    for i, (p, q) in enumerate(pairs):
        relabel[p], relabel[q] = 2 * i, 2 * i + 1
    triples = sorted(tuple(sorted(relabel[x] for x in t)) for t in sts if gone not in t)
    return GroupDivisibleDesign((2,) * u, tuple(triples))


def _gdd_triple_groups(u: int) -> GroupDivisibleDesign:
    # groups {3i, 3i+1, 3i+2}; point 3i + a is i on level a
    triples = _levels(idempotent_symmetric_quasigroup(u), lambda x, a: 3 * x + a)
    return GroupDivisibleDesign((3,) * u, tuple(sorted(triples)))


def _gdd_four_twos(m: int) -> GroupDivisibleDesign:
    # type 4.2^m with m = 3n: the 6n+5 design (Lindner & Rodger, Design
    # Theory) on {inf1, inf2} + Z_{2n+1} x Z_3 less inf1.  Its 5-block
    # {inf1, inf2, (0,.)} leaves the 4-group, and its triples
    # {inf1, (2i-1,j), (2i,j+1)} leave the 2-groups; the other triples are
    # {inf2, (2i,j), (2i-1,j+1)} and the levels of sigma f, with sigma
    # swapping 2i-1 and 2i and fixing 0
    n = m // 3
    f = idempotent_symmetric_quasigroup(2 * n + 1)
    sigma = [0] + [x + 1 if x % 2 else x - 1 for x in range(1, 2 * n + 1)]
    pt = {(0, j): 1 + j for j in range(3)}  # inf2 = 0, so the 4-group is 0..3
    for g, (i, j) in enumerate(product(range(1, n + 1), range(3))):
        pt[(2 * i - 1, j)], pt[(2 * i, (j + 1) % 3)] = 4 + 2 * g, 5 + 2 * g
    triples = _levels([[sigma[z] for z in row] for row in f], lambda x, a: pt[(x, a)])
    triples += [(0, *sorted((pt[(2 * i, j)], pt[(2 * i - 1, (j + 1) % 3)])))
                for i in range(1, n + 1) for j in range(3)]
    return GroupDivisibleDesign((4,) + (2,) * m, tuple(sorted(triples)))


@lru_cache(maxsize=1)
def build_gdd(group_sizes: tuple) -> GroupDivisibleDesign:
    """Group divisible design with block size 3 of type 2^u (u = 0, 1 mod 3),
    3^u (u odd) or 4.2^m (m = 0 mod 3), laid out on consecutive point ranges
    in the given order.  Raises ValueError for every other type."""
    sizes = tuple(group_sizes)
    u = len(sizes)
    if u < 3:
        raise ValueError("need at least three groups")
    if sizes == (2,) * u and u % 3 in (0, 1):
        gdd = _gdd_from_point_deletion(u)
    elif sizes == (3,) * u and u % 2 == 1:
        gdd = _gdd_triple_groups(u)
    elif sizes == (4,) + (2,) * (u - 1) and (u - 1) % 3 == 0:
        gdd = _gdd_four_twos(u - 1)
    else:
        raise ValueError(f"no closed-form block-three design of type {sizes}")
    _check_gdd(gdd)
    return gdd


class QuasigroupWithHoles(NamedTuple):
    """Symmetric quasigroup on {0..2k-1} with holes {2i, 2i+1}: products are
    defined across holes, avoid both operands' holes, and every row hits every
    symbol outside its own hole exactly once."""
    k: int
    table: tuple


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
    """Raise AssertionError naming q's first defect.  A valid table passes a
    row at a time: it is symmetric, and each row is None on its own hole and
    as a set is None and the symbols outside it, n - 1 values in n cells, so
    a bijection off the hole; by symmetry each product also avoids its
    column's hole.  Any other table is walked cell by cell to name a defect."""
    n, table = 2 * q.k, q.table
    symbols = {None, *range(n)}
    if len(table) == n and tuple(zip(*table)) == table and all(
            row[x & -2] is row[x | 1] is None and set(row) == symbols - {x & -2, x | 1}
            for x, row in enumerate(table)):
        return
    for x in range(n):
        seen = []
        for y in range(n):
            z = table[x][y]
            if x // 2 == y // 2:
                if z is not None:
                    raise AssertionError("hole cell is filled")
                continue
            if z != table[y][x]:
                raise AssertionError("table is not symmetric")
            if z is None or z // 2 in (x // 2, y // 2):
                raise AssertionError(f"cell ({x}, {y}) = {z} is empty or in an operand's hole")
            seen.append(z)
        if sorted(seen) != [z for z in range(n) if z // 2 != x // 2]:
            raise AssertionError(f"row {x} is not a bijection outside its hole")


@lru_cache(maxsize=1)
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
