"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py {setup,spectrum,search} [--spans PATH]

With --spans the layer wrappers of tracing.py are installed first and the
recorded spans are written to PATH at the end.  The last line of standard
output is a JSON object: the timed seconds of each operation, as measured
and scaled by refclock.RefClock, the program's outcomes, and the defects the
independent checks found (an empty list when all is well).  The checks run
after the timed region.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from checker import (check_census_array, check_orderings, check_pair,
                     pair_impossible, spectrum_admissible)
from refclock import RefClock
from tracing import Tracer, install

SRC = Path(__file__).resolve().parent.parent / "src"

MAX_ORDER = 201
LENGTHS = range(5, 10)

# (l, v, seed) per engine; every task finds a pair or proves a refusal
# within SEARCH_BUDGET nodes (see README.md for why each was chosen)
SEARCH_TASKS = (
    (5, 11, 1), (6, 13, 1), (7, 15, 1), (8, 17, 2), (9, 19, 1),      # cyclic
    (6, 9, 1), (5, 15, 1), (5, 21, 1), (6, 21, 1), (5, 25, 1), (7, 29, 1),  # greedy
    (5, 5, 1), (7, 7, 1), (9, 9, 1),                                 # exhaustive
)
SEARCH_BUDGET = 2_000_000


def _import_package():
    import orthocycles

    if not Path(orthocycles.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"orthocycles was imported from {orthocycles.__file__}, not {SRC}")


def run_setup(span) -> dict:
    from orthocycles import catalog

    keys = [key for key, _ in catalog.list_ingredients()]
    for key in keys:
        catalog.get_ingredient(key)
    return {"units": {}, "scaled": {}, "ref_s": 0.0, "ops": 0, "failed": 0,
            "defects": [] if keys else ["catalog is empty"]}


def run_spectrum(span) -> dict:
    from orthocycles import construct

    orders = [(l, v) for l in LENGTHS for v in range(l, MAX_ORDER + 1)
              if spectrum_admissible(l, v)]
    built, refused, units, marks = {}, [], {}, {}
    clock = RefClock()
    for l, v in orders:
        t0 = time.perf_counter()
        try:
            built[(l, v)] = construct.construct_pair(l, v)
        except construct.UnsatisfiableError:
            refused.append((l, v))
        name = f"construct {l},{v}"
        units[name] = time.perf_counter() - t0
        marks[name] = clock.record(units[name])

    defects = []
    want_refused = [o for o in orders if pair_impossible(*o)]
    if refused != want_refused:
        defects.append(f"refused {refused}, expected {want_refused}")
    for (l, v), pair in built.items():
        if pair.spec.kind != "complete" or pair.spec.v != v:
            defects.append(f"({l},{v}): host is {pair.spec.kind} on {pair.spec.v} vertices")
            continue
        defects += [f"({l},{v}): {d}" for d in
                    check_pair(v, l, pair.first.cycles, pair.second.cycles)[:3]]
    for l in LENGTHS:
        for v in range(1, MAX_ORDER + 1):
            if spectrum_admissible(l, v):
                continue
            try:
                construct.plan_for(l, v)
                defects.append(f"({l},{v}) is off the spectrum but has a plan")
            except construct.NotAdmissibleError:
                pass
    return {"units": units, "scaled": {n: clock.scaled(m) for n, m in marks.items()},
            "ref_s": clock.median_ref(), "ops": len(orders), "failed": 0,
            "built": len(built), "refused": refused, "defects": defects}


def run_search(span) -> dict:
    from orthocycles import heffter, search
    from orthocycles.core import complete

    results, units, marks = [], {}, {}
    clock = RefClock()

    def timed(name, t0):
        units[name] = time.perf_counter() - t0
        marks[name] = clock.record(units[name])

    for l, v, seed in SEARCH_TASKS:
        t0 = time.perf_counter()
        results.append(search.search_pair(
            complete(v), l, search.SearchBudget(max_nodes=SEARCH_BUDGET, seed=seed)))
        timed(f"search {l},{v},{seed}", t0)
    t0 = time.perf_counter()
    with span("heffter.search_3x3"):
        arrays = list(heffter.search_3x3())
    timed("census", t0)
    t0 = time.perf_counter()
    simple = [heffter.check_simple(a) for a in arrays]
    timed("simple", t0)

    defects, failed, nodes = [], 0, []
    for (l, v, seed), res in zip(SEARCH_TASKS, results):
        nodes.append(res.nodes)
        if res.status == "exhausted":
            failed += 1
        elif res.status == "unsatisfiable":
            if not pair_impossible(l, v):
                defects.append(f"({l},{v},{seed}): refused, but a pair exists")
        elif pair_impossible(l, v):
            defects.append(f"({l},{v},{seed}): found a pair where none can exist")
        else:
            defects += [f"({l},{v},{seed}): {d}" for d in
                        check_pair(v, l, res.pair.first.cycles, res.pair.second.cycles)[:3]]
    if len({a.cells for a in arrays}) != len(arrays):
        defects.append("census repeats an array")
    for a, s in zip(arrays, simple):
        defects += check_census_array(a.cells)
        rows = [a.row_entries(i) for i in range(3)]
        cols = [a.col_entries(j) for j in range(3)]
        defects += check_orderings(rows + cols, s.rows + s.cols)
    if not arrays:
        defects.append("census found no arrays")
    return {"units": units, "scaled": {n: clock.scaled(m) for n, m in marks.items()},
            "ref_s": clock.median_ref(), "ops": len(SEARCH_TASKS) + 2, "failed": failed,
            "nodes": nodes, "arrays": len(arrays), "defects": defects[:20]}


TASKS = {"setup": run_setup, "spectrum": run_spectrum, "search": run_search}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("task", choices=sorted(TASKS))
    ap.add_argument("--spans", default=None, help="trace and write spans here")
    args = ap.parse_args()
    _import_package()
    tracer = None
    span = nullcontext
    if args.spans:
        tracer = Tracer()
        install(tracer)
        span = tracer.span
    out = TASKS[args.task](span)
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
