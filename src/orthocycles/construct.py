"""Assembly of orthogonal cycle-system pairs for cycle lengths five through
nine, one verified pair for every admissible order.

Small orders come straight from the embedded catalog.  Every larger order is
one assembly: catalog pairs placed on the groups (or around the holes) of a
scaffold, multipartite pairs or generated cross cycles on the edges between
groups, and the verifier on the result.  All routes but one use columns of
height h over the scaffold's points plus fixed points:

- lengths 5 and 7: height l over a quasigroup with holes, plus 1 or l fixed
  points; cross-hole column joins come from the quasigroup,
- lengths 6 and 9: height 4 or 9 over a group divisible design; groups carry
  small complete or holed pairs, triples carry tripartite pairs,
- length 8: height 16 over singleton groups around one fixed point, every
  two columns joined by a complete bipartite pair,
- length 6, order v = 21 (mod 24): a pasted join of an order v-20 pair, an
  order-21 pair, and complete bipartite 6x10 pairs between the two.

Cycles are built canonical: placed cycles stay so under increasing vertex
maps, holed pairs are relabelled by rank first, and cross cycles are emitted
canonical.  A verification failure in assembly is a bug, not an input error,
and raises AssertionError.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
from operator import add
from typing import NamedTuple

from .auxiliary import build_gdd, build_quasigroup_with_holes
from .catalog import get_ingredient, has_ingredient
from .core import CycleSystem, OrthogonalPair, canonical_cycle, complete, meta
from .verify import verify_pair


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

_L6_GROUP_KEY = {2: "l6_v9", 3: "l6_v13"}
_L9_FIRST_KEY = {(2, 1): "l9_v19", (2, 9): "l9_v27",
                 (4, 1): "l9_v37", (4, 9): "l9_v45"}
_BLOCK_KEY = {6: "l6_K444", 8: "l8_K16x16", 9: "l9_K999"}


def admissible(l: int, v: int) -> bool:
    """Spectrum test: v >= l, right residue (equivalently v odd with
    v(v-1) = 0 mod 2l for these lengths)."""
    if l not in _SPECTRUM:
        return False
    residues, mod = _SPECTRUM[l]
    return v >= l and v % mod in residues


class ConstructionPlan(NamedTuple):
    """Which route builds (l, v) and which catalog blocks it places."""

    l: int
    v: int
    route: str  # catalog | quasigroup-columns | four-level-gdd | sixteen-blocks | nine-level-gdd | paste
    ingredients: tuple
    k: int = 0  # scaffold size: holes / blocks / group count
    r: int = 0  # fixed points, except for length 6: v mod 24 (with one fixed point)
    group_sizes: tuple = ()


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
    if l in (5, 7):
        r = 1 if v % (2 * l) == 1 else l
        k = (v - r) // (2 * l)
        if r == 1:
            ing = (f"l{l}_v{2 * l + 1}",)
        else:
            ing = (f"l{l}_v{3 * l}", "l5_K15mK5" if l == 5 else "l7_K21mK7")
        return ConstructionPlan(l, v, "quasigroup-columns", ing, k=k, r=r)
    if l == 6:
        r = v % 24
        if r == 21:
            return ConstructionPlan(6, v, "paste", ("l6_K444", "l6_K6x10", "l6_v21", "l6_v9"))
        sizes = (3,) * ((v - 1) // 12) if r == 13 else (2,) * ((v - 1) // 8)
        ing = ("l6_K444", _L6_GROUP_KEY[sizes[0]])
        return ConstructionPlan(6, v, "four-level-gdd", ing,
                                k=len(sizes), r=r, group_sizes=sizes)
    if l == 8:
        return ConstructionPlan(8, v, "sixteen-blocks", ("l8_K16x16", "l8_v17"),
                                k=(v - 1) // 16, r=1)
    r = 1 if v % 18 == 1 else 9
    k = (v - r) // 18
    sizes = (2,) * k if k % 3 in (0, 1) else (4,) + (2,) * (k - 2)
    rest_key = "l9_v19" if r == 1 else "l9_K27mK9"
    ing = tuple(sorted({_L9_FIRST_KEY[(sizes[0], r)], rest_key, "l9_K999"}))
    return ConstructionPlan(9, v, "nine-level-gdd", ing,
                            k=k, r=r, group_sizes=sizes)


# ----------------------------------------------------------------- assembly

def _onto(pair: OrthogonalPair, targets) -> list:
    """Vertex map of pair's host onto targets, as a list indexed by source
    vertex; one target list per host part in order: every vertex of a
    complete host, the hole and then the rest of a holed host, each part of a
    multipartite host (ids ascending)."""
    spec = pair.spec
    if spec.kind == "complete":
        parts = [range(spec.v)]
    elif spec.kind == "complete_minus_hole":
        parts = [sorted(spec.hole), sorted(set(range(spec.v)) - spec.hole)]
    else:
        parts = [sorted(part) for part in spec.parts]
    if [len(p) for p in parts] != [len(t) for t in targets]:
        raise ValueError(f"target sizes {[len(t) for t in targets]} disagree "
                         f"with the host parts {[len(p) for p in parts]}")
    mapping = [0] * spec.v
    for part, t in zip(parts, targets):
        for x, y in zip(part, t):
            mapping[x] = y
    return mapping


def _assemble(plan: ConstructionPlan, labels, placements, cross=((), ())) -> OrthogonalPair:
    """Place each (pair, target lists) block next to the generated cross
    cycles (first-system list, second-system list), and verify the result; a
    pair whose vertex map is not increasing is relabelled by rank first."""
    spec = complete(plan.v, labels)
    first, second = list(cross[0]), list(cross[1])
    relabelled = {}
    for pair, targets in placements:
        mapping = _onto(pair, targets)
        ascending = sorted(mapping)
        systems = pair.first.cycles, pair.second.cycles
        if mapping != ascending:
            rank = tuple(map(ascending.index, mapping))
            if (id(pair), rank) not in relabelled:
                relabelled[id(pair), rank] = [sorted(canonical_cycle(map(rank.__getitem__, c))
                                                     for c in cycles) for cycles in systems]
            systems = relabelled[id(pair), rank]
        at = ascending.__getitem__
        first.extend(tuple(map(at, c)) for c in systems[0])
        second.extend(tuple(map(at, c)) for c in systems[1])
    scaffold = {} if plan.route == "paste" else {"k": plan.k, "r": plan.r}
    m = meta(source="construct", route=plan.route, length=plan.l, order=plan.v, **scaffold)
    pair = OrthogonalPair(spec, CycleSystem._of_canonical(spec, first, meta=m),
                          CycleSystem._of_canonical(spec, second, meta=m))
    report = verify_pair(pair, plan.l)
    if not report.ok:
        raise AssertionError(
            f"assembled pair is invalid (bug): {len(report.edge_deficits)} "
            f"edge deficits, {len(report.bad_cycles)} bad cycles, "
            f"max cross intersection {report.max_cross_intersection}")
    return pair


# ------------------------------------------------------------------- routes

# template cycles per length and system: slot (c, s) is row (i + s) mod l of
# column c, where c indexes x, y, z = x * y, x ^ 1, y ^ 1
_CROSS = {5: (((0, 0), (1, 0), (0, 1), (2, 3), (1, 1)), ((0, 0), (1, 0), (0, 2), (2, 3), (1, 2))),
          7: (((0, 0), (1, 0), (0, 1), (1, 3), (2, 6), (0, 3), (1, 1)),
              ((0, 0), (1, 0), (3, 3), (1, 4), (2, 6), (0, 4), (4, 3)))}


def _quasigroup_cross(l: int, q):
    """Cycles of each system joining the columns of symbols x, y from
    different holes, one orbit of l per pair, steered by z = x * y in the
    quasigroup q.  Pairs whose columns lie in the same order need, at each
    shift i, the same rotation and reflection to make a template cycle
    canonical, found once per group from its first pair."""
    n, m = 2 * q.k, 3 if l == 5 else 5
    groups: dict = {}
    for x in range(n):
        for y in range(x + 1, n):
            if x // 2 != y // 2:
                cols = (l * x, l * y, l * q.mul(x, y), l * (x ^ 1), l * (y ^ 1))[:m]
                # equal columns make a group of their own: no order repeats a value
                key = tuple(sorted(range(m), key=cols.__getitem__)) if len(set(cols)) == m else cols
                groups.setdefault(key, []).append(cols)
    first: list = []
    second: list = []
    for members in groups.values():
        bases = list(zip(*members))
        for template, out in zip(_CROSS[l], (first, second)):
            for i in range(l):
                slots = [(c, (i + s) % l) for c, s in template]
                rep = [members[0][c] + row for c, row in slots]
                out.extend(zip(*[map(add, bases[slots[j][0]], repeat(slots[j][1]))
                                 for j in map(rep.index, canonical_cycle(rep))]))
    return first, second


def _columns(plan: ConstructionPlan):
    """Columns of height h over the points of a scaffold, plus fixed points.

    Each scaffold group's columns and the fixed points carry a complete
    catalog pair, or a holed one whose hole sits on the fixed points; each
    scaffold block carries a multipartite pair, one column per part.

    - lengths 5, 7: height l, groups are the holes {2i, 2i+1} of a quasigroup
      with holes, and the cross edges come from _quasigroup_cross;
    - lengths 6, 9: height 4 or 9, groups and triples of a group divisible
      design;
    - length 8: height 16, singleton groups, every pair of points a block.
    """
    l, k, r = plan.l, plan.k, plan.r
    blocks, cross = (), ((), ())
    if plan.route == "quasigroup-columns":
        h, fixed = l, r
        groups = [(2 * i, 2 * i + 1) for i in range(k)]
        # the full pair on the first hole, then the holed pair when r = l
        keys = plan.ingredients[:1] + plan.ingredients[-1:] * (k - 1)
        cross = _quasigroup_cross(l, build_quasigroup_with_holes(k))
    elif plan.route == "sixteen-blocks":
        h, fixed = 16, 1
        groups = [(x,) for x in range(k)]
        keys = ("l8_v17",) * k
        blocks = combinations(range(k), 2)
    else:
        gdd = build_gdd(plan.group_sizes)
        groups, blocks = gdd.groups(), gdd.triples
        if l == 6:
            h, fixed = 4, 1
            keys = [_L6_GROUP_KEY[len(g)] for g in groups]
        else:
            h, fixed = 9, r
            rest = "l9_v19" if r == 1 else "l9_K27mK9"
            keys = [_L9_FIRST_KEY[(len(groups[0]), r)]] + [rest] * (len(groups) - 1)
    n = sum(len(g) for g in groups)

    def cols(points):
        return [h * x + t for x in points for t in range(h)]

    infs = list(range(h * n, h * n + fixed))
    labels = ([f"({x},{t})" for x in range(n) for t in range(h)]
              + [f"inf{j}" for j in range(fixed)])
    ing = {key: get_ingredient(key) for key in plan.ingredients}
    placements = []
    for group, key in zip(groups, keys, strict=True):
        pair = ing[key]
        holed = pair.spec.kind == "complete_minus_hole"
        placements.append((pair, [infs, cols(group)] if holed else [cols(group) + infs]))
    placements += [(ing[_BLOCK_KEY[l]], [cols((x,)) for x in block]) for block in blocks]
    return labels, placements, cross


def _paste(plan: ConstructionPlan):
    """Order v = 24t + 21: an order-(24t+1) pair on n = 24t points and an
    order-21 pair on 20 more share one fixed point, and 8t complete
    bipartite 6x10 pairs bridge the n x 20 remainder."""
    n = plan.v - 21
    labels = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(20)] + ["inf0"]
    placements = [(construct_pair(6, n + 1), [list(range(n)) + [n + 20]]),
                  (get_ingredient("l6_v21"), [list(range(n, n + 20)) + [n + 20]])]
    bridge = get_ingredient("l6_K6x10")
    placements += [(bridge, [range(6 * i, 6 * i + 6), range(n + 10 * j, n + 10 * j + 10)])
                   for i in range(n // 6) for j in range(2)]
    return labels, placements


def _build(plan: ConstructionPlan) -> OrthogonalPair:
    if plan.route == "catalog":
        return get_ingredient(plan.ingredients[0])
    if plan.route == "paste":
        return _assemble(plan, *_paste(plan))
    return _assemble(plan, *_columns(plan))


@lru_cache(maxsize=None)
def construct_pair(l: int, v: int) -> OrthogonalPair:
    """Verified orthogonal pair of l-cycle systems of order v.

    Raises NotAdmissibleError off the spectrum and UnsatisfiableError for the
    three admissible orders (5,5), (7,7), (9,9) where no pair exists.
    """
    return _build(plan_for(l, v))
