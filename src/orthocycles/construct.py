"""Assembly of orthogonal cycle-system pairs for cycle lengths five through
nine, one certified pair for every admissible order.

Small orders come straight from the embedded catalog.  Every larger order is
one assembly: catalog pairs placed on the groups (or around the holes) of a
scaffold, multipartite pairs or generated cross cycles on the edges between
groups, and a certificate of the result from those parts.  All routes but
one use columns of height h over the scaffold's points plus fixed points:

- lengths 5 and 7: height l over a quasigroup with holes, plus 1 or l fixed
  points; cross-hole column joins come from the quasigroup, built and
  certified per (l, k), the last one kept for the next order to read,
- lengths 6 and 9: height 4 or 9 over a group divisible design; groups carry
  small complete or holed pairs, triples carry tripartite pairs,
- length 8: height 16 over singleton groups around one fixed point, every
  two columns joined by a complete bipartite pair,
- length 6, order v = 21 (mod 24): the order v-20 layout and an order-21
  pair on a shared fixed point, joined by complete bipartite 6x10 pairs.

plan_for decides all of it, and assembly only reads the plan.  One rule names
every group's pair: a group of s points, whose h * s columns carry a pair
together with the f fixed points, takes l{l}_v{h*s+f}; when f > 1, every
group after the first takes the holed l{l}_K{h*s+f}mK{f} instead, its hole on
the fixed points.

_placements turns a plan into its layout, as data and with no cycle built:
the vertex labels, each group's placement as (key, target lists), all the
blocks as one (key, Batch) of start columns, and the cross host's parts.
Every key is a catalog key, and its target lists are its host's parts,
which every catalog host numbers from vertex 0 in placement order, so a pair
is placed by laying its target lists end to end.  _certify resolves each key
once (_ingredient checks that numbering and verifies the pair), certifies
that the hosts cover K_v exactly and returns tables of vertex images, so an
order is certified before any placed cycle exists; _emit only emits: one zip
per template cycle through a table places all copies of a batch, or of the
placements of one key and map rank.  Cycles are built canonical: placed
cycles stay so under increasing vertex maps, holed pairs are relabelled by
rank first, and cross cycles are zipped canonical from a table of column
rows per group of quasigroup pairs, one rotation per group, keyed by the
parities of x, y and the place of z = x * y among them.  A certificate
failure is a bug, not an input error, and raises the verifier's
AssertionError; the full verifier still runs where a pair is published, in
`orthocycles generate`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product, repeat
from operator import add, mul
from typing import NamedTuple

from .auxiliary import build_gdd, build_quasigroup_with_holes
from .catalog import get_ingredient, has_ingredient
from .core import CycleSystem, GraphSpec, OrthogonalPair, canonical_cycle, complete, meta
from .verify import Batch, gc_paused, verify_cover, verify_orbits, verify_pair


class NotAdmissibleError(ValueError):
    """No cycle system of this length exists on this order at all."""


class UnsatisfiableError(ValueError):
    """The order is admissible, but provably no orthogonal pair exists."""


# residue classes of admissible orders, per cycle length
_SPECTRUM = {5: ((1, 5), 10), 6: ((1, 9), 12), 7: ((1, 7), 14),
             8: ((1,), 16), 9: ((1, 9), 18)}

UNSATISFIABLE = frozenset({(5, 5), (7, 7), (9, 9)})


def no_pair_reason(l: int, v: int) -> str:
    """The pigeonhole proof that no orthogonal pair exists at v = l (odd)."""
    return (f"order {v} admits {l}-cycle systems but no orthogonal pair: "
            f"a system has only {(l - 1) // 2} cycles, so any cycle of a "
            f"mate system would share at least three edges with one of them")

def admissible(l: int, v: int) -> bool:
    """Spectrum test: v >= l, right residue (equivalently v odd with
    v(v-1) = 0 mod 2l for these lengths)."""
    if l not in _SPECTRUM:
        return False
    residues, mod = _SPECTRUM[l]
    return v >= l and v % mod in residues


class ConstructionPlan(NamedTuple):
    """Which route builds (l, v), on which scaffold, and which catalog pair
    sits on each of its groups and blocks: the one place a build is decided."""

    l: int
    v: int
    route: str  # catalog | quasigroup-columns | four-level-gdd | sixteen-blocks | nine-level-gdd | paste
    group_keys: tuple  # catalog key per scaffold group, in group order (catalog: the entry)
    block_key: str = ""  # catalog key on every scaffold block (paste: every bridge)
    k: int = 0  # quasigroup-columns: holes; four-level-gdd, sixteen-blocks: groups;
    # nine-level-gdd: half the points (type 2^k, or 4.2^(k-2) with k - 1 groups)
    r: int = 0  # fixed points, except for length 6: v mod 24 (with one fixed point)
    group_sizes: tuple = ()  # points per scaffold group, groups on consecutive points
    h: int = 0  # column height
    fixed: int = 0  # fixed points


def plan_for(l: int, v: int) -> ConstructionPlan:
    if l not in _SPECTRUM:
        raise NotAdmissibleError(f"cycle length {l} is not supported (5..9)")
    if not admissible(l, v):
        residues, mod = _SPECTRUM[l]
        raise NotAdmissibleError(
            f"order {v} is not admissible for length {l}: "
            f"need v >= {l} and v mod {mod} in {residues}")
    if (l, v) in UNSATISFIABLE:
        raise UnsatisfiableError(no_pair_reason(l, v))
    key = f"l{l}_v{v}"
    if has_ingredient(key):
        return ConstructionPlan(l, v, "catalog", (key,))
    if l == 6 and v % 24 == 21:
        return ConstructionPlan(6, v, "paste", ("l6_v21",), "l6_K6x10")
    if l == 6:
        r = v % 24
        sizes = (3,) * ((v - 1) // 12) if r == 13 else (2,) * ((v - 1) // 8)
        route, block, h, fixed, k = "four-level-gdd", "l6_K444", 4, 1, len(sizes)
    elif l == 8:
        route, block, h, fixed, r, k = "sixteen-blocks", "l8_K16x16", 16, 1, 1, (v - 1) // 16
        sizes = (1,) * k
    else:
        h, fixed = l, 1 if v % (2 * l) == 1 else l
        r, k = fixed, (v - fixed) // (2 * l)
        if l == 9:
            route, block = "nine-level-gdd", "l9_K999"
            sizes = (2,) * k if k % 3 in (0, 1) else (4,) + (2,) * (k - 2)
        else:
            route, block, sizes = "quasigroup-columns", "", (2,) * k
    keys = [f"l{l}_v{h * s + fixed}" for s in sizes]
    if fixed > 1:
        keys[1:] = (f"l{l}_K{h * s + fixed}mK{fixed}" for s in sizes[1:])
    return ConstructionPlan(l, v, route, tuple(keys), block, k=k, r=r,
                            group_sizes=sizes, h=h, fixed=fixed)


# ----------------------------------------------------------------- assembly

@lru_cache(maxsize=None)
def _ingredient(key: str, l: int):
    """The catalog pair under key, verified in full, with its host's part
    sizes in placement order and the indices of those with edges inside: a
    complete host's one part, a holed host's hole then rest, or none of a
    multipartite host's parts.  Raises, caching nothing, unless the pair
    verifies and its host numbers those parts from vertex 0, as assembly
    lays out their targets."""
    pair = get_ingredient(key)
    spec = pair.spec
    laid = [*sorted(spec.hole), *chain.from_iterable(spec.parts)]
    if laid != list(range(len(laid))):
        raise AssertionError(f"catalog pair {key} is invalid (bug): its host's parts "
                             f"are not numbered from 0 in placement order")
    verify_pair(pair, l).check(f"catalog pair {key}")
    if spec.kind == "complete":
        return pair, (spec.v,), (0,)
    if spec.kind == "complete_minus_hole":
        return pair, (len(spec.hole), spec.v - len(spec.hole)), (1,)
    return pair, tuple(map(len, spec.parts)), ()


def _certify(plan: ConstructionPlan, labels, placements, cross_parts=()):
    """Certify the placements and batches of _placements, and the quasigroup
    route's cross cycles when it has cross parts, as the paper proves it:
    from parts certified already (_ingredient, _quasigroup_cross) and
    verify_cover's exact cover of K_v by their hosts, whose parts are the
    target lists.  The cover refuses a target outside 0..v-1, so _emit needs
    no vertex walk.  Returns K_v, the cross cycles, and a (pair, rank,
    images) table per ascending batch (its columns plus each offset) and per
    key and map rank (none if increasing) of the rest, images[x] being x's
    target in each placement."""
    spec = complete(plan.v, labels)
    pairs, hosts, batches = {}, [(cross_parts, ())], {}  # (key, rank[, index]): maps, or a batch's table
    for i, (key, targets) in enumerate(placements):
        pairs[key], sizes, inner = _ingredient(key, plan.l)
        batched = type(targets) is Batch
        widths = tuple(targets.widths if batched else map(len, targets))
        if sizes != widths:
            raise ValueError(f"target sizes {widths} disagree with the host parts {sizes}")
        hosts.append(targets._replace(inner=inner) if batched else (targets, inner))
        if batched and targets.whole(plan.v, 1):  # ascending parts within 0..v-1
            batches[key, (), i] = [tuple(map(add, s, repeat(r))) for s, w in zip(targets.starts, widths)
                                   for r in range(w)]
            continue
        for parts in [p for p, _ in targets.expand()] if batched else [targets]:
            mapping = list(chain.from_iterable(parts))
            ascending = sorted(mapping)
            rank = () if mapping == ascending else tuple(map(ascending.index, mapping))
            batches.setdefault((key, rank), []).append(ascending)
    # paste's atoms are vertex pairs: all its parts are even but the last vertex
    verify_cover(spec.v, hosts, 2 if plan.route == "paste" else plan.h).check("assembled pair")
    cross = _quasigroup_cross(plan.l, plan.k) if cross_parts else ((), ())
    return spec, cross, [(pairs[key], rank, images if table else list(zip(*images)))
                         for (key, rank, *table), images in batches.items()]


def _emit(plan: ConstructionPlan, spec, cross, tables) -> OrthogonalPair:
    """The pair _certify certified: each template cycle of a table's pair,
    relabelled by its rank first, zipped through the table into all its
    placed copies, next to the cross cycles."""
    first, second = map(list, cross)
    for pair, rank, images in tables:
        systems = pair.first.cycles, pair.second.cycles
        if rank:
            systems = [sorted(canonical_cycle(map(rank.__getitem__, c)) for c in cycles)
                       for cycles in systems]
        for cycles, out in zip(systems, (first, second)):
            for c in cycles:
                out.extend(zip(*map(images.__getitem__, c)))
    scaffold = {} if plan.route == "paste" else {"k": plan.k, "r": plan.r}
    m = meta(source="construct", route=plan.route, length=plan.l, order=plan.v, **scaffold)
    return OrthogonalPair(spec, CycleSystem._of_canonical(spec, first, meta=m),
                          CycleSystem._of_canonical(spec, second, meta=m))


# ------------------------------------------------------------------- routes

# template cycles per length and system: slot (c, s) is row (i + s) mod l of
# column c, where c indexes x, y, z = x * y, x ^ 1, y ^ 1
_CROSS = {5: (((0, 0), (1, 0), (0, 1), (2, 3), (1, 1)), ((0, 0), (1, 0), (0, 2), (2, 3), (1, 2))),
          7: (((0, 0), (1, 0), (0, 1), (1, 3), (2, 6), (0, 3), (1, 1)),
              ((0, 0), (1, 0), (3, 3), (1, 4), (2, 6), (0, 4), (4, 3)))}


@lru_cache(maxsize=1)
def _quasigroup_cross(l: int, k: int):
    """Cycles of each system joining the columns of symbols x < y from
    different holes, one orbit of l per pair, steered by z = x * y in the
    quasigroup with k holes.  Pairs whose columns lie in the same order form
    a group: at each shift i they need the same rotation and reflection to
    make a template cycle canonical, found from the group's first pair.  z
    avoids both holes, so its place is (z > x) + (z > y); for l = 7, x ^ 1
    and y ^ 1 lie above x and y exactly when these are even.  A group's
    table cells[c][r] holds its pairs' vertices in row r of column slot c;
    the bases, certified by verify_orbits on the cross host (each hole's two
    columns, the cross parts of _placements), and every shift's cycles are
    zips of its tuples.

    They depend on (l, k) alone and are kept, as sorted tuples that an
    assembly merges as one presorted run, for the last (l, k) built only: a
    build reads one cross, and the orders 2lk+1 and 2lk+l that read the same
    one are adjacent in a sweep.  A failed certificate raises and caches
    nothing."""
    q = build_quasigroup_with_holes(k)
    n, m, bit = 2 * k, 3 if l == 5 else 5, int(l == 7)
    groups: dict = {}
    for x, products in enumerate(q.table):
        for y in range((x | 1) + 1, n):
            z = products[y]
            groups.setdefault(((z > x) + (z > y), x & bit, y & bit), []).append(
                (l * x, l * y, l * z, l * (x ^ 1), l * (y ^ 1))[:m])
    cells = [[[tuple(map(add, col, repeat(r))) for r in range(l)] for col in zip(*members)]
             for members in groups.values()]
    host = GraphSpec("multipartite", tuple(map(str, range(l * n))),
                     parts=tuple(tuple(range(2 * l * i, 2 * l * i + 2 * l)) for i in range(k)))
    verify_orbits(host, l, l, *([b for cell in cells for b in zip(*[cell[c][s] for c, s in template])]
                                for template in _CROSS[l])).check("cross cycles")
    first, second = [], []
    for cell in cells:
        for template, out in zip(_CROSS[l], (first, second)):
            for i in range(l):
                slots = [cell[c][(s + i) % l] for c, s in template]
                rep = [slot[0] for slot in slots]
                out.extend(zip(*map(slots.__getitem__, map(rep.index, canonical_cycle(rep)))))
    return tuple(sorted(first)), tuple(sorted(second))


def _placements(plan: ConstructionPlan):
    """The layout of an assembly, as data: the vertex labels, each group as
    (key, target lists) and the blocks as (key, Batch), a list or column per
    part of the key's host in placement order, and the cross host's parts (the
    quasigroup route's holes, two columns each).  Every key is a catalog key.

    All routes but paste lay columns of height h over the points of a
    scaffold, plus fixed points.  Each group's columns and the fixed points
    carry the group's pair, complete or holed with its hole on the fixed
    points; each block carries the block pair, one column per part.  The
    scaffold: for lengths 5 and 7 the holes {2i, 2i+1} of a quasigroup with
    holes, whose products steer _quasigroup_cross; for lengths 6 and 9 the
    groups and triples of a group divisible design; for length 8 singleton
    groups, every pair of points a block.

    Paste, order v = 24t + 21: the order-(24t+1) layout on n = 24t points,
    its fixed point n renamed v-1 on its groups, shares it with an order-21
    pair on the 20 points between; 8t 6x10 pairs bridge the n x 20 rest."""
    if plan.route == "paste":
        n = plan.v - 21
        labels = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(20)] + ["inf0"]
        *groups, blocks = _placements(plan_for(6, n + 1))[1]
        placements = [(key, [[plan.v - 1 if x == n else x for x in t] if n in t else t for t in targets])
                      for key, targets in groups]
        bridges = Batch(tuple(zip(*product(range(0, n, 6), range(n, n + 20, 10)))), (6, 10))
        return labels, placements + [blocks, (plan.group_keys[0], [range(n, n + 21)]),
                                     (plan.block_key, bridges)], ()
    h, fixed, sizes = plan.h, plan.fixed, plan.group_sizes
    n = sum(sizes)
    infs = range(h * n, h * n + fixed)
    labels = ([f"({x},{t})" for x in range(n) for t in range(h)]
              + [f"inf{j}" for j in range(fixed)])
    placements, start = [], 0
    for s, key in zip(sizes, plan.group_keys, strict=True):
        cols = range(h * start, h * (start + s))
        start += s
        holed = get_ingredient(key).spec.kind == "complete_minus_hole"
        placements.append((key, [infs, cols] if holed else [[*cols, *infs]]))
    if plan.route == "quasigroup-columns":
        return labels, placements, [range(2 * h * i, 2 * h * i + 2 * h) for i in range(plan.k)]
    blocks = (combinations(range(plan.k), 2) if plan.route == "sixteen-blocks"
              else build_gdd(sizes).triples)
    starts = tuple(tuple(map(mul, col, repeat(h))) for col in zip(*blocks))
    return labels, placements + [(plan.block_key, Batch(starts, (h,) * len(starts)))], ()


@gc_paused
def construct_pair(l: int, v: int) -> OrthogonalPair:
    """Orthogonal pair of l-cycle systems of order v, certified from its
    parts: verified catalog pairs, template cycles checked by orbit, and an
    exact cover of K_v by their hosts.

    Raises NotAdmissibleError off the spectrum and UnsatisfiableError for the
    three admissible orders (5,5), (7,7), (9,9) where no pair exists.
    """
    plan = plan_for(l, v)
    if plan.route == "catalog":
        return get_ingredient(plan.group_keys[0])
    return _emit(plan, *_certify(plan, *_placements(plan)))
