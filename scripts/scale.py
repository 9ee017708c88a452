"""Time and measure the build path at large orders, one fresh process per
order and layer.

For each route, the first order at or above each --near size that takes it
is run through four layers, each in its own interpreter:

- build: construct_pair(l, v);
- verify: verify_pair on the pair just built (as `orthocycles generate` does
  before it writes);
- serialise: design_text on the pair just built, written to a scratch file;
- load: load_design on the text of that file.

Only the layer itself is timed, in CPU seconds of its process, and it starts
from a collected heap: the untimed set-up before it (the build before verify
and serialise, the read before load) is followed by gc.collect(), so young
objects a paused construct_pair leaves are not collected, and charged, inside
the next layer.  Each row gives those seconds, the peak resident set of the
process (peak_rss_mb), that peak just before the layer began (base_rss_mb),
so a layer lighter than the steps before it shows as equal figures, and the
garbage collections started during the layer (gc_collections, summed over
generations).  The output is one JSON object;
--repeats runs each layer that many times and keeps the least seconds
(other work can only add to them) and the largest peak.

Run from anywhere:  python3 scripts/scale.py --near 1000 2000
"""

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from orthocycles.construct import admissible, plan_for  # noqa: E402

LAYERS = ("build", "verify", "serialise", "load")
# one length per route, and both lengths of the quasigroup route
ROUTES = ((5, "quasigroup-columns"), (7, "quasigroup-columns"), (6, "four-level-gdd"),
          (6, "paste"), (8, "sixteen-blocks"), (9, "nine-level-gdd"))


def orders_near(size: int) -> list:
    """(l, route, v): the least v >= size on which l takes the route."""
    out = []
    for l, route in ROUTES:
        v = size
        while not (admissible(l, v) and plan_for(l, v).route == route):
            v += 1
        out.append((l, route, v))
    return out


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_layer(layer: str, l: int, v: int, path: str) -> dict:
    """One layer in this process; its timing and memory as a dict."""
    from orthocycles.cli import design_text, load_design
    from orthocycles.construct import construct_pair
    from orthocycles.verify import verify_pair

    if layer == "load":
        text = Path(path).read_text()
    elif layer != "build":
        pair = construct_pair(l, v)
    gc.collect()
    before = gc.get_stats()
    base = _peak_mb()
    t0 = time.process_time()
    if layer == "build":
        construct_pair(l, v)
    elif layer == "verify":
        verify_pair(pair, l).check(f"({l}, {v})")
    elif layer == "serialise":
        text = design_text(pair, l)
    else:
        loaded = load_design(text)
    seconds = time.process_time() - t0
    # get_stats copies the counts before it builds its list, so a collection
    # that list starts (the first after a paused layer) is not counted here
    after = gc.get_stats()
    if layer == "serialise":
        Path(path).write_text(text)
    elif layer == "load" and (loaded[0].spec.v, loaded[1]) != (v, l):
        raise AssertionError(f"({l}, {v}) loaded as ({loaded[1]}, {loaded[0].spec.v})")
    return {"seconds": seconds, "peak_rss_mb": _peak_mb(), "base_rss_mb": base,
            "gc_collections": sum(a["collections"] - b["collections"]
                                  for a, b in zip(after, before))}


def _child(layer: str, l: int, v: int, path: str) -> dict:
    out = subprocess.run([sys.executable, __file__, "--layer", layer, "--length", str(l),
                          "--order", str(v), "--file", path],
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--near", type=int, nargs="+", default=[1000, 2000])
    ap.add_argument("--repeats", type=int, default=1)
    # one layer in this process, as the runs above start it
    ap.add_argument("--layer", choices=LAYERS)
    ap.add_argument("--length", type=int)
    ap.add_argument("--order", type=int)
    ap.add_argument("--file")
    args = ap.parse_args()
    if args.layer:
        print(json.dumps(run_layer(args.layer, args.length, args.order, args.file)))
        return 0

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for size in args.near:
            for l, route, v in orders_near(size):
                path = os.path.join(tmp, f"l{l}_v{v}.json")
                row = {"l": l, "v": v, "route": route}
                for layer in LAYERS:
                    runs = [_child(layer, l, v, path) for _ in range(args.repeats)]
                    row[f"{layer}_s"] = round(min(r["seconds"] for r in runs), 4)
                    row[f"{layer}_peak_rss_mb"] = round(max(r["peak_rss_mb"] for r in runs), 1)
                    row[f"{layer}_base_rss_mb"] = round(max(r["base_rss_mb"] for r in runs), 1)
                    row[f"{layer}_gc_collections"] = max(r["gc_collections"] for r in runs)
                row["design_bytes"] = os.path.getsize(path)
                rows.append(row)
                print(json.dumps(row), file=sys.stderr, flush=True)
    print(json.dumps({"python": platform.python_version(), "machine": platform.machine(),
                      "cpus": os.cpu_count(), "repeats": args.repeats, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
