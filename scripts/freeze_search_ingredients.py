"""Regenerate the search-supplied catalog entries.

Two families are frozen here so that builds never depend on a live search:
  * the five smallest two-base-class orders (v = 2l+1) as single cyclic base
    cycles, found by the seeded difference-cycle search;
  * the K_{16,16} ingredient: published base 8-cycles cover only half of the
    difference classes of each side, so each system gets a second base on the
    complementary classes, found by exhaustive scan over closures.

Re-running with the pinned seeds/budgets must reproduce all six files
verbatim; CI checks that by running this script and diffing the data
directory.  (The acceptance suite checks only the five cyclic entries, and
compares their cycles, not their files.)

Run from the repository root:  python3 scripts/freeze_search_ingredients.py
"""

import json
import sys
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from orthocycles.catalog import get_ingredient  # noqa: E402
from orthocycles.core import GraphSpec, complete  # noqa: E402
from orthocycles.search import SearchBudget, search_pair  # noqa: E402
from orthocycles.verify import verify_orbits, verify_pair  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "orthocycles" / "data"

SEED = 1
BUDGET = 500_000

K16_FIRST = ((0, 0), (0, 1), (1, 0), (2, 1), (6, 0), (1, 1), (4, 0), (6, 1))
K16_SECOND = ((0, 0), (0, 1), (6, 0), (7, 1), (4, 0), (3, 1), (7, 0), (5, 1))


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


def _bipartite_cross_ok(c1, c2, m: int = 16) -> bool:
    """No translate of c2 shares two edges with c1: verify_orbits on K_{m,m},
    with (x, j) as vertex m*j + x and one base per system."""
    spec = GraphSpec("multipartite", tuple(map(str, range(2 * m))),
                     parts=(tuple(range(m)), tuple(range(m, 2 * m))))
    first, second = ([m * j + x for x, j in c] for c in (c1, c2))
    return verify_orbits(spec, len(c1), m, [first], [second]).max_cross_intersection <= 1


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


def dump(entry: dict):
    path = DATA / f"{entry['key']}.json"
    path.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")


def freeze_cyclic(l: int, v: int):
    res = search_pair(complete(v), l, SearchBudget(max_nodes=BUDGET, seed=SEED))
    assert res.status == "found", (l, v, res.status)
    bases = [list(sys_.cycles[0]) for sys_ in (res.pair.first, res.pair.second)]
    entry = {
        "key": f"l{l}_v{v}",
        "l": l,
        "citation": f"pair of orthogonal {l}-cycle systems of order {v} found "
                    f"by seeded difference-cycle search; frozen for reproducibility",
        "graph": {"kind": "complete", "labels": [str(i) for i in range(v)]},
        "systems": {
            name: {"kind": "bases",
                   "groups": [{"action": {"kind": "cyclic", "modulus": [v]},
                               "bases": [[str(x) for x in base]],
                               "expected": [v]}]}
            for name, base in zip(("first", "second"), bases)
        },
        "meta": {"route": "search", "seed": SEED, "budget": BUDGET},
    }
    dump(entry)


def freeze_k16():
    mate_a, mate_b = bipartite_translation_completion(K16_FIRST, K16_SECOND)
    lab = lambda p: f"({p[0]},{p[1]})"
    labels = [f"({i},0)" for i in range(16)] + [f"({i},1)" for i in range(16)]
    entry = {
        "key": "l8_K16x16",
        "l": 8,
        "citation": "pair of orthogonal 8-cycle decompositions of K_{16,16}: "
                    "published base cycles plus complementary-difference mates "
                    "found by exhaustive scan; frozen for reproducibility",
        "graph": {"kind": "multipartite", "labels": labels,
                  "parts": [labels[:16], labels[16:]]},
        "systems": {
            name: {"kind": "bases",
                   "groups": [{"action": {"kind": "pair_first", "modulus": [16]},
                               "bases": [[lab(p) for p in base] for base in bases],
                               "expected": [16, 16]}]}
            for name, bases in (("first", (K16_FIRST, mate_a)),
                                ("second", (K16_SECOND, mate_b)))
        },
        "meta": {"route": "completion-search"},
    }
    dump(entry)


def main():
    for l, v in [(5, 11), (6, 13), (7, 15), (8, 17), (9, 19)]:
        freeze_cyclic(l, v)
    freeze_k16()
    get_ingredient.cache_clear()
    for l, v in [(5, 11), (6, 13), (7, 15), (8, 17), (9, 19)]:
        pair = get_ingredient(f"l{l}_v{v}")
        rep = verify_pair(pair, l)
        assert rep.ok and len(pair.first.cycles) == v * (v - 1) // (2 * l), (l, v)
        print(f"verified l{l}_v{v}: {len(pair.first.cycles)} cycles per system")
    pair = get_ingredient("l8_K16x16")
    rep = verify_pair(pair, 8)
    assert rep.ok and len(pair.first.cycles) == 32
    print("verified l8_K16x16: 32 cycles per system")


if __name__ == "__main__":
    main()
