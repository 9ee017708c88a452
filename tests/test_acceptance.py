"""Release gate. One test per shipped guarantee, with counts, seeds, budgets,
and runtime ceilings pinned exactly."""
import subprocess
import sys
import time
from itertools import combinations
from random import Random

from orthocycles.auxiliary import build_gdd, build_quasigroup_with_holes
from orthocycles.catalog import get_ingredient, verify_catalog
from orthocycles.construct import (UnsatisfiableError, admissible,
                                   construct_pair)
from orthocycles.core import (CycleSystem, OrthogonalPair, canonical_cycle,
                              complete)
from orthocycles.heffter import check_simple, search_3x3, validate_heffter
from orthocycles.search import SearchBudget, search_pair
from orthocycles.verify import verify_pair

# cycles per system for every hand-entered or developed catalog entry
CATALOG_COUNTS = {
    "l5_v15": 21, "l5_v21": 42, "l5_v25": 60, "l5_K15mK5": 19,
    "l6_v9": 6, "l6_v21": 35, "l6_K444": 8, "l6_K6x10": 10,
    "l7_v21": 30, "l7_v29": 58, "l7_v35": 85, "l7_K21mK7": 27,
    "l9_v27": 39, "l9_v37": 74, "l9_v45": 110, "l9_K27mK9": 35,
    "l9_K999": 27,
}

# smallest searched order per length, frozen in the catalog with this budget
FROZEN_SEARCH = {5: "l5_v11", 6: "l6_v13", 7: "l7_v15", 8: "l8_v17", 9: "l9_v19"}
FROZEN_BUDGET = SearchBudget(max_nodes=500_000, seed=1)

# admissible orders with no orthogonal mate: v = l leaves so few cycles per
# system that some mate cycle must share three edges with one of them
NO_MATE = ((5, 5), (7, 7), (9, 9))


def test_criterion_1_catalog_regression():
    t0 = time.monotonic()
    reports = verify_catalog()
    bad = [key for key, rep in reports if not rep.ok]
    assert bad == []
    for key, want in CATALOG_COUNTS.items():
        pair = get_ingredient(key)
        assert len(pair.first.cycles) == want, key
        assert len(pair.second.cycles) == want, key
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 1 PASS: {len(reports)} catalog entries verify, "
          f"{len(CATALOG_COUNTS)} pinned counts exact ({elapsed:.2f}s)")


def test_criterion_2_spectrum_sweep():
    t0 = time.monotonic()
    built, refused = 0, []
    for l in range(5, 10):
        for v in range(l, 202):
            if not admissible(l, v):
                continue
            try:
                pair = construct_pair(l, v)
            except UnsatisfiableError:
                refused.append((l, v))
                continue
            assert verify_pair(pair, l).ok, (l, v)
            built += 1
    elapsed = time.monotonic() - t0
    assert built == 132
    assert tuple(refused) == NO_MATE
    assert elapsed < 60.0
    print(f"criterion 2 PASS: {built} admissible orders built and verified, "
          f"{len(refused)} provably refused ({elapsed:.1f}s)")


def test_criterion_3_frozen_search_reproduces():
    for l, key in FROZEN_SEARCH.items():
        frozen = get_ingredient(key)
        res = search_pair(frozen.spec, l, FROZEN_BUDGET)
        assert res.status == "found", key
        assert res.pair.first.cycles == frozen.first.cycles, key
        assert res.pair.second.cycles == frozen.second.cycles, key
        assert verify_pair(res.pair, l).ok, key
    print(f"criterion 3 PASS: {len(FROZEN_SEARCH)} searched orders reproduce "
          f"byte-for-byte at seed {FROZEN_BUDGET.seed}, "
          f"budget {FROZEN_BUDGET.max_nodes}")


def test_criterion_4_exhaustive_nonexistence():
    nodes = {}
    for l, v in NO_MATE:
        t0 = time.monotonic()
        res = search_pair(complete(v), l, SearchBudget(max_nodes=2_000_000))
        elapsed = time.monotonic() - t0
        assert res.status == "unsatisfiable", (l, v)
        assert elapsed < 10.0, (l, v)
        nodes[(l, v)] = res.nodes
    print(f"criterion 4 PASS: no pair exists at v = l, pigeonhole certificate, "
          f"nodes {nodes}")


def _suite_canonical_form(rng):
    # idempotent, and constant on every rotation and reflection
    cases = 0
    for _ in range(120):
        n = rng.randrange(3, 40)
        cyc = tuple(rng.sample(range(1000), n))
        canon = canonical_cycle(cyc)
        assert canonical_cycle(canon) == canon
        r = rng.randrange(n)
        assert canonical_cycle(cyc[r:] + cyc[:r]) == canon
        assert canonical_cycle(tuple(reversed(cyc))) == canon
        cases += 1
    return cases


def _suite_orbit_size(rng):
    # developing a cycle by +1 mod v gives an orbit whose size divides v
    cases = 0
    for _ in range(120):
        v = rng.randrange(5, 60)
        n = rng.randrange(3, min(v, 12) + 1)
        base = canonical_cycle(tuple(rng.sample(range(v), n)))
        size, cur = 1, base
        while True:
            cur = canonical_cycle(tuple((x + 1) % v for x in cur))
            if cur == base:
                break
            size += 1
        assert v % size == 0
        cases += 1
    return cases


def _suite_perturbation(rng):
    # swapping two vertices inside any cycle always trips the verifier:
    # a single transposition never equals a rotation or reflection, so the
    # edge multiset of that cycle changes
    pool = [(l, construct_pair(l, v))
            for l, v in [(5, 25), (6, 13), (7, 21), (8, 17), (9, 19)]]
    cases = 0
    for _ in range(110):
        l, pair = pool[rng.randrange(len(pool))]
        side = rng.randrange(2)
        system = (pair.first, pair.second)[side]
        cycles = [list(c) for c in system.cycles]
        ci = rng.randrange(len(cycles))
        i, j = rng.sample(range(l), 2)
        cycles[ci][i], cycles[ci][j] = cycles[ci][j], cycles[ci][i]
        mutated = CycleSystem(system.spec, tuple(tuple(c) for c in cycles),
                              meta=system.meta)
        a, b = (mutated, pair.second) if side == 0 else (pair.first, mutated)
        assert not verify_pair(OrthogonalPair(pair.spec, a, b), l).ok
        cases += 1
    return cases


def _suite_hole_avoidance(rng):
    # cross-hole products stay outside both operands' holes; same-hole empty
    tables = {k: build_quasigroup_with_holes(k) for k in (3, 4, 5, 6, 7, 8, 10)}
    ks = sorted(tables)
    cases = 0
    while cases < 120:
        q = tables[ks[rng.randrange(len(ks))]]
        x, y = rng.sample(range(2 * q.k), 2)
        z = q.table[x][y]
        if x // 2 == y // 2:
            assert z is None, "same-hole product is defined"
            cases += 1
            continue
        assert z == q.table[y][x]
        assert z // 2 not in (x // 2, y // 2)
        cases += 1
    return cases


def _suite_gdd_coverage(rng):
    # triples cover every cross-group pair exactly once and no others,
    # rechecked under a random relabelling of the points
    shapes = ([(2,) * u for u in range(3, 19) if u % 3 in (0, 1)]
              + [(3,) * u for u in (3, 5, 7, 9)]
              + [(4,) + (2,) * m for m in (3, 6, 9, 12)])
    built = {s: build_gdd(s) for s in shapes}
    cases = 0
    while cases < 110:
        sizes = shapes[rng.randrange(len(shapes))]
        gdd = built[sizes]
        gidx = [g for g, s in enumerate(sizes) for _ in range(s)]
        perm = list(range(len(gidx)))
        rng.shuffle(perm)
        need = {frozenset((perm[a], perm[b]))
                for a, b in combinations(range(len(gidx)), 2)
                if gidx[a] != gidx[b]}
        for t in gdd.triples:
            for a, b in combinations(t, 2):
                pair = frozenset((perm[a], perm[b]))
                assert pair in need
                need.discard(pair)
        assert not need
        cases += 1
    return cases


def _suite_heffter_simplicity(rng):
    # every searched three-by-three array is valid and all of its rows and
    # columns admit simple cyclic orderings
    cases = 0
    for arr in search_3x3():
        assert validate_heffter(arr).ok
        assert check_simple(arr).ok
        cases += 1
    assert cases == 432
    return cases


def test_criterion_5_property_suites():
    rng = Random(20260814)
    counts = {
        "canonical form": _suite_canonical_form(rng),
        "orbit size": _suite_orbit_size(rng),
        "perturbation": _suite_perturbation(rng),
        "hole avoidance": _suite_hole_avoidance(rng),
        "gdd coverage": _suite_gdd_coverage(rng),
        "heffter simplicity": _suite_heffter_simplicity(rng),
    }
    assert all(n >= 100 for n in counts.values()), counts
    print(f"criterion 5 PASS: six property suites, zero failures, {counts}")


def test_criterion_6_generate_is_deterministic(tmp_path):
    for l, v in [(6, 45), (9, 55)]:
        blobs = []
        for tag in "ab":
            out = tmp_path / f"l{l}v{v}{tag}.json"
            subprocess.run(
                [sys.executable, "-m", "orthocycles.cli", "generate",
                 "--length", str(l), "--order", str(v), "--out", str(out)],
                check=True, capture_output=True)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], (l, v)
        assert len(blobs[0]) > 0
    print("criterion 6 PASS: repeated generate runs are byte-identical "
          "across fresh processes")
