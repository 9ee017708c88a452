"""Benchmark of the orthocycles package: one workload per run.

    python3 perfbench/run.py --workload {spectrum,cli,search} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
Passes of the workload repeat, one child process at a time, until S seconds
have gone (at least three passes).  Each operation of a pass is timed, and
the time is scaled to a reference machine speed (refclock.py); a timing is
the median of that operation over the passes, and a total is the sum of
those medians.  Every output is checked by checker.py,
which never calls the package.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checker import MUTATIONS, check_design, mutate
from refclock import RefClock
from tracing import summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PY = sys.executable
SETUP_CODE = ("import orthocycles\n"
              "from orthocycles.catalog import get_ingredient, list_ingredients\n"
              "for key, _ in list_ingredients():\n"
              "    get_ingredient(key)\n")
# what the installed `orthocycles` console script runs
CLI_CODE = "import sys\nfrom orthocycles.cli import main\nsys.exit(main())\n"
STARTUP_CODE = "import orthocycles.cli\n"

CLI_ORDERS = ((5, 191), (6, 189), (7, 183), (8, 193), (9, 199), (6, 45))
SETUP_STARTS = 3     # fresh interpreters timed for setup_s, before each pass
STARTUP_STARTS = 5   # fresh interpreters timed for cli.startup_s
TRACED_SETUPS = 3    # traced set-ups for the catalog and develop figures
MIN_PASSES = 3
RUN_LIMIT_S = 170    # no pass starts that would likely end past this


@dataclass
class Child:
    code: int
    wall_s: float
    mark: int     # for Bench.clock.scaled
    rss_kb: int
    stdout: str


@dataclass
class Pass:
    """One pass of a workload: timed operations, outcomes and spans."""

    units: dict = field(default_factory=dict)    # operation -> seconds, same keys every pass
    scaled: dict = field(default_factory=dict)   # the same, scaled by a RefClock
    marks: dict = field(default_factory=dict)    # operation -> RefClock mark, until scaled
    ref_s: float = 0.0                           # median reference sample of the pass
    ops: int = 0
    failed: int = 0
    rss_kb: int = 0
    repeat: dict = field(default_factory=dict)   # must be equal on every pass
    spans: list = field(default_factory=list)    # span lists, one per process

    @property
    def work_s(self) -> float:
        return sum(self.units.values())

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled.values())


class Bench:
    def __init__(self, seed: int, seconds: int, trace: bool, out: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = out
        self.start = time.perf_counter()
        self.defects: list[str] = []
        self.setup_walls: list[float] = []
        self.setup_marks: list[int] = []
        # bytecode caches are written (by the warm-up start), as an
        # installed package would have them
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self._n = 0
        # children are timed from this process, not in it, so their scale
        # is the median of a longer run of samples (about 3 s of cli commands)
        self.clock = RefClock(half=8)

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.out / f"{self._n:05d}-{stem}"

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, argv: list[str]) -> Child:
        """Run one child to completion; wall time as seen by the caller, its
        mark on the run's RefClock, and the child's own peak resident memory
        (from wait4)."""
        out_path = self.path("stdout")
        limit = max(5.0, RUN_LIMIT_S - self.elapsed())
        with open(out_path, "w") as fout:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fout, stderr=subprocess.DEVNULL,
                                    cwd=ROOT, env=self.env)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise RuntimeError(f"child {argv[1:3]} killed by signal {-code}")
        text = out_path.read_text()
        out_path.unlink()
        return Child(code, wall, self.clock.record(wall), usage.ru_maxrss, text)

    def setup_s(self) -> float:
        return statistics.median(self.clock.scaled(m) for m in self.setup_marks)

    def sample_setup(self) -> None:
        """Time fresh set-ups; spread over the run so that slow and fast
        phases of a shared machine both reach the median."""
        for _ in range(SETUP_STARTS):
            got = self.child([PY, "-c", SETUP_CODE])
            self.check(got.code == 0, f"set-up exited {got.code}")
            self.setup_walls.append(got.wall_s)
            self.setup_marks.append(got.mark)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.defects.append(what)


# ------------------------------------------------------------------ passes

def worker_pass(bench: Bench, task: str, traced: bool) -> Pass:
    argv = [PY, str(HERE / "worker.py"), task]
    if traced:
        spans_path = bench.path(f"{task}-spans.json")
        argv += ["--spans", str(spans_path)]
    got = bench.child(argv)
    bench.check(got.code == 0, f"{task} worker exited {got.code}")
    if got.code != 0:
        return Pass(rss_kb=got.rss_kb)
    res = json.loads(got.stdout.splitlines()[-1])
    bench.defects += res["defects"]
    p = Pass(units=res["units"], scaled=res["scaled"], ref_s=res["ref_s"],
             ops=res["ops"], failed=res["failed"], rss_kb=got.rss_kb)
    if "nodes" in res:
        p.repeat = {"search nodes": res["nodes"], "census arrays": res["arrays"]}
    if traced:
        p.spans = [json.loads(spans_path.read_text())]
        spans_path.unlink()
    return p


class CliWorkload:
    """generate then verify each order, then verify every mutated copy."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.designs: dict = {}   # (l, v) -> bytes of the first pass's file
        self.mutants: list = []   # (kind, path)

    def command(self, args: list[str], traced: bool, spans: list) -> Child:
        if traced:
            spans_path = self.bench.path("cli-spans.json")
            got = self.bench.child([PY, str(HERE / "cli_shim.py"), str(spans_path), *args])
            spans.append(json.loads(spans_path.read_text()))
            spans_path.unlink()
            return got
        return self.bench.child([PY, "-c", CLI_CODE, *args])

    def run_pass(self, traced: bool) -> Pass:
        bench = self.bench
        p = Pass()
        design_bytes = 0
        for l, v in CLI_ORDERS:
            path = bench.out / f"l{l}_v{v}.json"
            got = self.command(["generate", "--length", str(l), "--order", str(v),
                                "--out", str(path)], traced, p.spans)
            p.units[f"generate {l},{v}"] = got.wall_s
            p.marks[f"generate {l},{v}"] = got.mark
            p.rss_kb = max(p.rss_kb, got.rss_kb)
            data = path.read_bytes() if got.code == 0 and path.exists() else b""
            bench.check(bool(data), f"generate ({l},{v}) exited {got.code}")
            design_bytes += len(data)
            if (l, v) not in self.designs:
                self.designs[(l, v)] = data
                text = data.decode()
                bench.defects += [f"generate ({l},{v}): {d}" for d in check_design(text)[:3]]
                bench.check(f'"length": {l}' in text, f"generate ({l},{v}): meta.length missing")
            bench.check(data == self.designs[(l, v)],
                        f"generate ({l},{v}) is not byte-identical across passes")
            got = self.command(["verify", str(path)], traced, p.spans)
            p.units[f"verify {l},{v}"] = got.wall_s
            p.marks[f"verify {l},{v}"] = got.mark
            p.rss_kb = max(p.rss_kb, got.rss_kb)
            bench.check(got.code == 0 and got.stdout.startswith("ok"),
                        f"verify ({l},{v}) exited {got.code} on a valid file")
            p.ops += 2
        p.repeat["cli.design_bytes"] = design_bytes
        if not self.mutants:
            self.make_mutants()
        for kind, path in self.mutants:
            got = self.command(["verify", str(path)], traced, p.spans)
            p.rss_kb = max(p.rss_kb, got.rss_kb)
            p.ops += 1
            if got.code == 1 and got.stdout.strip():
                if kind != "repeat":
                    p.units[f"reject {path.stem}"] = got.wall_s
                    p.marks[f"reject {path.stem}"] = got.mark
            elif kind == "repeat" and got.code == 2:
                # named fault: load_design canonicalises before verifying, so
                # a repeated vertex ends in "cannot load" (exit 2), not exit 1
                p.failed += 1
            else:
                bench.check(False, f"verify exited {got.code} on {kind} mutant {path.name}")
        return p

    def make_mutants(self) -> None:
        rng = random.Random(self.bench.seed)
        for (l, v), data in self.designs.items():
            for kind in MUTATIONS:
                text = mutate(data.decode(), kind, rng)
                self.bench.check(bool(check_design(text)),
                                 f"{kind} mutant of ({l},{v}) is still valid")
                path = self.bench.out / f"l{l}_v{v}-{kind}.json"
                path.write_text(text)
                self.mutants.append((kind, path))


def run_passes(bench: Bench, one_pass) -> dict[bool, list[Pass]]:
    """Whole passes until the run length has gone; with tracing, untraced
    and traced passes alternate so both see the same machine state."""
    order = (False, True) if bench.trace else (False,)
    done: dict[bool, list[Pass]] = {False: [], True: []}
    longest = 0.0
    while True:
        for traced in order:
            if not bench.trace:  # setup_s is an end-to-end figure
                bench.sample_setup()
            t0 = time.perf_counter()
            done[traced].append(one_pass(traced))
            longest = max(longest, time.perf_counter() - t0)
        n = len(done[False]) + len(done[True])
        if bench.defects or bench.elapsed() + longest > RUN_LIMIT_S:
            break
        if bench.elapsed() >= bench.seconds and n >= MIN_PASSES:
            break
    for traced, passes in done.items():
        for p in passes:
            p.scaled.update((name, bench.clock.scaled(m)) for name, m in p.marks.items())
        for p in passes[1:]:
            for key, value in p.repeat.items():
                bench.check(value == passes[0].repeat[key],
                            f"{key} differ between passes: {value} vs {passes[0].repeat[key]}")
    return done


# ----------------------------------------------------------------- metrics

def median_wall(bench: Bench, code: str, starts: int) -> float:
    walls = []
    for _ in range(starts):
        got = bench.child([PY, "-c", code])
        bench.check(got.code == 0, f"fresh interpreter exited {got.code} on {code!r}")
        walls.append(got.wall_s)
    return statistics.median(walls)


def layer_metrics(summary: dict) -> dict:
    def self_s(*names):
        return sum(summary[n]["self_s"] for n in names if n in summary)

    def calls(*names):
        return sum(summary[n]["calls"] for n in names if n in summary)

    def attrs(name):
        return summary.get(name, {"attrs": []})["attrs"]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    verify = ("verify.verify_pair", "verify.verify_decomposition")
    edges = sum(a["edges"] for n in verify for a in attrs(n))
    built = {tuple(a["key"]): a["cycles"] for a in attrs("construct.construct_pair")
             if a.get("source") == "construct"}
    m = {
        "auxiliary.quasigroup_s": self_s("auxiliary.quasigroup"),
        "auxiliary.gdd_s": self_s("auxiliary.gdd"),
        "auxiliary.scaffold_calls": calls("auxiliary.quasigroup", "auxiliary.gdd"),
        "catalog.pass_s": self_s("catalog.get_ingredient", "catalog.has_ingredient",
                                 "catalog.list_ingredients", "develop.develop"),
        "construct.assembly_s": self_s("construct.construct_pair"),
        "construct.cycles_built": sum(built.values()),
        "verify.verify_s": self_s(*verify),
        "verify.calls": calls(*verify),
        "verify.edges": edges,
        "verify.edges_per_s": rate(edges, self_s(*verify)),
        "cli.serialise_s": self_s("cli.design_text"),
        "cli.load_s": self_s("cli.load_design"),
        "cli.self_s": self_s("cli.main"),
        "heffter.census_s": self_s("heffter.search_3x3"),
        "heffter.simple_s": self_s("heffter.check_simple"),
        "heffter.arrays": calls("heffter.check_simple"),
    }
    for engine in ("cyclic", "greedy", "exhaustive"):
        name = f"search.{engine}"
        nodes = sum(a["nodes"] for a in attrs(name) if "nodes" in a)
        m[f"{name}_s"] = self_s(name)
        m[f"{name}_nodes"] = nodes
        m[f"{name}_nodes_per_s"] = rate(nodes, self_s(name))
    m["trace.spans_self_s"] = sum(e["self_s"] for e in summary.values())
    return m


def median_dict(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def unit_total(passes: list[Pass], prefix: str = "", scaled: bool = True) -> float:
    """Sum over operations (names starting with prefix) of their median
    time, scaled or as measured."""
    medians = median_dict([p.scaled if scaled else p.units for p in passes])
    return sum(t for name, t in medians.items() if name.startswith(prefix))


def traced_figures(bench: Bench, passes: dict[bool, list[Pass]]) -> dict:
    setups = []
    for _ in range(TRACED_SETUPS):
        p = worker_pass(bench, "setup", traced=True)
        summary = summarise(p.spans)
        setups.append({
            "catalog.load_s": sum(summary[n]["self_s"] for n in summary
                                  if n.startswith("catalog.")),
            "develop.develop_s": summary.get("develop.develop", {"self_s": 0.0})["self_s"],
            "catalog.entries": len({a["key"] for a in
                                    summary.get("catalog.get_ingredient", {"attrs": []})["attrs"]}),
        })
    m = median_dict(setups)
    m["cli.startup_s"] = median_wall(bench, STARTUP_CODE, STARTUP_STARTS)
    layers = []
    for p in passes[True]:
        figures = layer_metrics(summarise(p.spans))
        figures["trace.unattributed_s"] = p.work_s - figures.pop("trace.spans_self_s")
        layers.append(figures)
    m.update(median_dict(layers))
    # passes run in (untraced, traced) pairs; neighbours see the same
    # machine state, so the overhead is the median of pairwise differences
    m["trace.overhead_s"] = statistics.median(
        t.scaled_s - u.scaled_s for u, t in zip(passes[False], passes[True]))
    m["cli.design_bytes"] = passes[False][0].repeat.get("cli.design_bytes", 0)
    for step in ("generate", "verify", "reject"):
        m[f"cli.{step}_s"] = unit_total(passes[False], step + " ")
    m["host.pass_wall_s"] = unit_total(passes[False], scaled=False)
    # the reference loop as timed next to the passes' operations: in the
    # worker for spectrum and search, in this process for cli
    refs = [p.ref_s for p in passes[False] if p.ref_s] or [bench.clock.median_ref()]
    m["host.ref_s"] = statistics.median(refs)
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "MB" if name.endswith("_mb") else "count"


# ------------------------------------------------------------------- main

def header() -> list[str]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return [f"python {platform.python_version()} ({platform.python_implementation()})",
            f"cpu {cpu}; nproc {len(os.sched_getaffinity(0))}",
            f"commit {commit}; src sha256 {digest.hexdigest()[:16]}"]


WORKLOADS = ("spectrum", "cli", "search")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "orthocycles" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'orthocycles'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out = OUT / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.seed, args.seconds, bool(args.trace), out)
    try:
        for line in header():
            print(line)
        print(f"workload {args.workload}; seed {args.seed}; seconds {args.seconds}; "
              f"trace {args.trace}")
        bench.child([PY, "-c", SETUP_CODE + STARTUP_CODE])  # writes bytecode caches
        if args.workload == "cli":
            one_pass = CliWorkload(bench).run_pass
        else:
            def one_pass(traced, task=args.workload):
                return worker_pass(bench, task, traced)
        passes = run_passes(bench, one_pass)
        every = passes[False] + passes[True]
        attempted = sum(p.ops for p in every)
        failed = sum(p.failed for p in every)
        untraced = passes[False]
        if args.trace:
            metrics = traced_figures(bench, passes)
        else:
            metrics = {
                "setup_s": bench.setup_s(),
                "pass_s": unit_total(untraced),
                "peak_rss_mb": max(p.rss_kb for p in untraced) / 1024,
            }
        print(f"{len(untraced)} untraced and {len(passes[True])} traced passes, "
              f"{len(bench.setup_walls)} timed set-ups; "
              f"{attempted} operations attempted, {failed} failed")
        print("pass seconds: " + " ".join(f"{p.work_s:.3f}" for p in untraced))
        print("scaled: " + " ".join(f"{p.scaled_s:.3f}" for p in untraced))
        print("set-up seconds: " + " ".join(f"{w:.3f}" for w in bench.setup_walls))
        print("scaled: " + " ".join(f"{bench.clock.scaled(m):.3f}" for m in bench.setup_marks))
        print("medians:")
        for name, value in metrics.items():
            print(f"  {name:32s} {value:14.6g} {unit_of(name)}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass
    for d in bench.defects[:20]:
        print(f"DEFECT {d}")
    correct = not bench.defects
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
