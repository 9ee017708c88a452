"""Build every admissible order up to --max-order in one process and check
each pair with perfbench/checker.py, which never imports the package.

Prints, per route, how many orders took it, the largest of them and the
seconds spent building them, then the peak resident memory and every defect
found; exits 1 on any defect.  The three orders v = l with no pair must be
refused, and no other.  Each built system must also be stored canonical and
strictly sorted, as the package's equality of systems assumes; that is
checked here, without the package's own code.  Each pair is dropped once it
is checked, so memory stays bounded.

Run from the repository root:  python3 scripts/deep_sweep.py --max-order 401
"""

import argparse
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from checker import check_pair, pair_impossible, spectrum_admissible  # noqa: E402

from orthocycles.construct import UnsatisfiableError, construct_pair, plan_for  # noqa: E402


def stored_order_defects(tag: str, cycles) -> list:
    """The first cycle not stored canonical, starting at its least vertex with
    its second vertex below its last, and the first not above the cycle
    before it; [] when there is neither."""
    out = [f"{tag} cycle {i} {c} is not canonical" for i, c in enumerate(cycles)
           if c[0] != min(c) or not c[1] < c[-1]][:1]
    out += [f"{tag} cycle {i + 1} {b} is not above cycle {i} {a}"
            for i, (a, b) in enumerate(zip(cycles, cycles[1:])) if not a < b][:1]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-order", type=int, required=True)
    args = ap.parse_args()

    orders = [(l, v) for l in range(5, 10) for v in range(l, args.max_order + 1)
              if spectrum_admissible(l, v)]
    count, largest, seconds = defaultdict(int), defaultdict(int), defaultdict(float)
    defects = []
    for l, v in orders:
        t0 = time.perf_counter()
        try:
            pair = construct_pair(l, v)
        except UnsatisfiableError:
            if not pair_impossible(l, v):
                defects.append(f"({l},{v}): refused, but a pair should exist")
            continue
        route = plan_for(l, v).route
        seconds[route] += time.perf_counter() - t0
        count[route] += 1
        largest[route] = max(largest[route], v)
        if pair_impossible(l, v):
            defects.append(f"({l},{v}): built, but no pair exists")
        defects += [f"({l},{v}): {d}" for d in
                    check_pair(v, l, pair.first.cycles, pair.second.cycles)[:3]
                    + stored_order_defects("first", pair.first.cycles)
                    + stored_order_defects("second", pair.second.cycles)]
        del pair

    for route in sorted(count):
        print(f"{route:20s} {count[route]:4d} orders, largest {largest[route]:5d}, "
              f"built in {seconds[route]:.2f} s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{sum(count.values())} orders built, {len(defects)} defects, "
          f"peak RSS {peak_mb:.0f} MB")
    for d in defects:
        print(d)
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())
