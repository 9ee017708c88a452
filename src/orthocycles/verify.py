"""Certificate checking for cycle systems and orthogonal pairs.

All checkers report every defect they find instead of stopping at the first,
so a failed report pinpoints the bad cycles / edges directly.

Edges are integer ids a*v + b with a < b.  Each system is scanned once: the
ids of every cycle are computed a single time and serve the shape, coverage
and orthogonality checks alike.  A correct system is confirmed by counts
alone (its ids are distinct, none is a vertex pair the host lacks, and there
are as many as the host has edges); the edge-by-edge listing of missing,
over-covered and foreign edges runs only when those counts disagree.

The verifier is the root of trust for every construction, scaffolds (as
3-cycle covers) and pairs alike, so it imports the standard library alone and
accepts cycles as written: a cycle need not be canonical, and a loop or
repeated vertex is reported instead of raised; one guard, _simple, names
those defects for every scan.  verify_cover and verify_orbits certify an
assembled pair from its parts, not the whole pair.  verify_orbits makes one
pass per base: each pair of consecutive vertices gives its edge's class key
and phase as integers, with no edge id in between.  It, too, confirms a
cover by counts alone when the base classes are exact, and keys each meet
of two bases by one integer.
"""

from __future__ import annotations

import gc
from collections import Counter, namedtuple
from functools import wraps
from itertools import chain, combinations, product, repeat
from operator import add, floordiv, le, mod, mul


class VerificationReport:
    """Outcome of a decomposition / orthogonality check.

    ok is True iff no defect was recorded.  edge_deficits maps an edge to its
    signed count (cover count minus required count, nonzero entries only); in
    a pair report the key is (tag, edge), tag "first" or "second", so each
    system's defects stay apart.  bad_cycles lists ((tag, index), reason) for
    cycles of wrong length or shape, and ((tag, None), reason) for a wrong
    cycle count.  max_cross_intersection is the largest number of edges shared
    by a cycle of one system and a cycle of the other; witness names the first
    (first index, second index) pair found to share that many.
    """

    __slots__ = ("ok", "edge_deficits", "bad_cycles", "max_cross_intersection", "witness")

    def __init__(self, ok: bool = True, edge_deficits: dict = None, bad_cycles: list = None,
                 max_cross_intersection: int = 0, witness: tuple | None = None):
        self.ok = ok
        self.edge_deficits = {} if edge_deficits is None else edge_deficits
        self.bad_cycles = [] if bad_cycles is None else bad_cycles
        self.max_cross_intersection = max_cross_intersection
        self.witness = witness

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"VerificationReport({args})"

    def check(self, what: str) -> None:
        """Raise AssertionError unless ok: a design the package built failing
        its own check is a bug, not an input error."""
        if not self.ok:
            first = (self.bad_cycles or list(self.edge_deficits.items()) or [None])[0]
            raise AssertionError(
                f"{what} is invalid (bug): {len(self.edge_deficits)} edge deficits, "
                f"{len(self.bad_cycles)} bad cycles, max cross intersection "
                f"{self.max_cross_intersection}, first defect {first}")


# ------------------------------------------------------------------ host

def _host(spec) -> tuple[int, set]:
    """Edge count of the host, and the ids of the vertex pairs it lacks
    (those inside the hole or inside a part)."""
    v = spec.v
    absent = {a * v + b for g in (spec.hole, *spec.parts) for a in g for b in g if a < b}
    return v * (v - 1) // 2 - len(absent), absent


# ----------------------------------------------------------------- scans

def _shape_defect(cyc, v: int) -> str | None:
    n = len(cyc)
    if n < 3:
        return f"cycle needs at least 3 vertices, got {n}"
    if min(cyc) < 0 or max(cyc) >= v:
        return f"cycle {tuple(cyc)} leaves the vertex range 0..{v - 1}"
    if len(set(cyc)) != n:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a == b:
                return f"loop at vertex {a} in cycle {tuple(cyc)}"
        return f"repeated vertex in cycle {tuple(cyc)}"
    return None


def _simple(cycles, v: int, length: int | None, tag, bad: list):
    """The cycles, with None in place of each one that is not a simple cycle
    on 0..v-1.

    Appends ((tag, index), reason) to bad for every such cycle, and for
    every cycle whose length is not `length` (a simple one is kept, so its
    edges still count towards coverage).  When counts show nothing to name
    (every vertex in range, each cycle of `length` distinct vertices, and at
    least 3), the cycles come back as they are.
    """
    verts = set(chain.from_iterable(cycles))
    in_range = not verts or (min(verts) >= 0 and max(verts) < v)
    sizes = list(map(len, cycles))
    if (in_range and sizes == list(map(len, map(set, cycles))) and min(sizes, default=3) >= 3
            and (length is None or sizes.count(length) == len(sizes))):
        return cycles
    out = list(cycles)
    for i, (cyc, n) in enumerate(zip(cycles, sizes)):
        if length is not None and n != length:
            bad.append(((tag, i), f"length {n} != {length}"))
        if n < 3 or len(set(cyc)) != n or not in_range:  # cheap tests first
            reason = _shape_defect(cyc, v)
            if reason:
                bad.append(((tag, i), reason))
                out[i] = None
    return out


def _scan(cycles, v: int, length: int | None, tag, bad: list) -> list:
    """Edge ids of each cycle, or None for one that is not a simple cycle;
    bad gets _simple's reasons."""
    out = []
    for cyc in _simple(cycles, v, length, tag, bad):
        if cyc is None:
            out.append(None)
            continue
        prev, es = cyc[-1], []
        for x in cyc:
            es.append(prev * v + x if prev < x else x * v + prev)
            prev = x
        out.append(es)
    return out


def _coverage(ids: list, v: int, size: int, absent: set) -> dict:
    """Deficit of every edge covered other than once: {(a, b): count - need}.

    Empty when the ids are distinct, avoid the absent pairs and number as
    many as the host has edges, which is an exact cover.  Only otherwise is
    every edge counted.
    """
    flat = [e for es in ids if es is not None for e in es]
    distinct = set(flat)
    if len(distinct) == len(flat) == size and distinct.isdisjoint(absent):
        return {}
    cover = [0] * (v * v)
    for e in flat:
        cover[e] += 1
    deficits = {}
    for a in range(v):
        for e in range(a * v + a + 1, a * v + v):
            need = e not in absent
            if cover[e] != need:
                deficits[(a, e - a * v)] = cover[e] - need
    return deficits


def _cross(first_ids: list, second_ids: list, v: int) -> tuple[int, tuple | None]:
    """Largest number of edges a first cycle shares with a second cycle, and
    the first (i, j) found to share that many.

    owner[e] is the second cycle holding edge e; an edge held by more than
    one second cycle keeps its other holders in extra, so over-covered edges
    still count against every owner.
    """
    owner = [-1] * (v * v)
    extra: dict = {}
    for j, es in enumerate(second_ids):
        if es is None:
            continue
        for e in es:
            if owner[e] < 0:
                owner[e] = j
            else:
                extra.setdefault(e, []).append(j)
    best, witness = 0, None
    for i, es in enumerate(first_ids):
        if es is None:
            continue
        got = list(map(owner.__getitem__, es))
        if len(set(got)) == len(got) and (not extra or extra.keys().isdisjoint(es)):
            # every second cycle met here is met in one edge: the first is
            # the witness the count below would name
            if best == 0:
                j = next((j for j in got if j >= 0), -1)
                if j >= 0:
                    best, witness = 1, (i, j)
            continue
        shared: dict = {}
        for e, j in zip(es, got):
            for k in ([j] if j >= 0 else []) + extra.get(e, []):
                shared[k] = shared.get(k, 0) + 1
        for j, k in shared.items():
            if k > best:
                best, witness = k, (i, j)
    return best, witness


# ---------------------------------------------------------------- checks

def gc_paused(fn):
    """Run fn with the cyclic garbage collector off: the package's bulk
    tuples and lists hold no cycles, so collecting them is pure cost.  Called
    with it off already, fn runs as it is, so nested calls stay paused.  The
    collector is process-wide: cyclic garbage another thread makes during a
    long call is not collected until the call returns."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def verify_decomposition(system, length: int, tag="") -> VerificationReport:
    """Check that the cycles partition the host's edge set into `length`-cycles.

    system carries .spec and .cycles; deficits are keyed by edge.
    """
    spec = system.spec
    report = VerificationReport()
    ids = _scan(system.cycles, spec.v, length, tag, report.bad_cycles)
    report.edge_deficits = _coverage(ids, spec.v, *_host(spec))
    report.ok = not (report.bad_cycles or report.edge_deficits)
    return report


@gc_paused
def verify_pair(pair, length: int) -> VerificationReport:
    """Full certificate: both systems decompose the host into `length`-cycles
    and the two systems are orthogonal.

    pair carries .spec, .first.cycles and .second.cycles.  Deficits are keyed
    by (tag, edge), tag "first" or "second".
    """
    spec = pair.spec
    v = spec.v
    size, absent = _host(spec)
    report = VerificationReport()
    scanned = []
    for tag, system in (("first", pair.first), ("second", pair.second)):
        ids = _scan(system.cycles, v, length, tag, report.bad_cycles)
        for e, d in _coverage(ids, v, size, absent).items():
            report.edge_deficits[(tag, e)] = d
        if length * len(system.cycles) != size:
            report.bad_cycles.append(
                ((tag, None), f"{len(system.cycles)} cycles cover "
                              f"{length * len(system.cycles)} edges, host has {size}"))
        scanned.append(ids)
    report.max_cross_intersection, report.witness = _cross(*scanned, v)
    report.ok = not (report.bad_cycles or report.edge_deficits
                     or report.max_cross_intersection > 1)
    return report


# ---------------------------------------------------- assembly certificates

class Batch(namedtuple("Batch", "starts widths inner", defaults=((),))):
    """Hosts of one shape as column tables, a start column and a width per
    part: part p of placement i is range(starts[p][i], starts[p][i] +
    widths[p]), and inner is as in a host."""

    def expand(self):
        """The placements as hosts (parts, inner), in order."""
        for row in zip(*self.starts):
            yield [range(s, s + w) for s, w in zip(row, self.widths)], self.inner

    def whole(self, v: int, m: int) -> bool:
        """Whether the columns show each placement a host _host_atoms passes,
        none inner: whole runs of m in 0..v-1, each ending by the next's start."""
        starts, widths, inner = self
        return not (inner or len(set(map(len, starts))) != 1 or any(w % m or w < 0 for w in widths)
                    or any(map(mod, chain.from_iterable(starts), repeat(m)))
                    or min(starts[0], default=0) < 0 or max(starts[-1], default=0) + widths[-1] > v
                    or not all(all(map(le, map(add, s, repeat(w)), t))
                               for s, w, t in zip(starts, widths, starts[1:])))


def _host_atoms(parts, v: int, m: int, tag, bad: list) -> list:
    """The atoms, runs x // m of 0..v-1, that each part is the union of, []
    for a bad part: one that repeats or leaves the vertices, holds part of an
    atom, or shares an atom with an earlier part.  Appends ((tag, part
    index), reason) to bad for each."""
    out, seen = [], set()
    for p, part in enumerate(parts):
        atoms = sorted({x // m for x in part})
        if len(set(part)) != len(part):
            reason = "repeats a vertex"
        elif part and (min(part) < 0 or max(part) >= v):
            reason = f"leaves the vertex range 0..{v - 1}"
        elif sum(min(m, v - a * m) for a in atoms) != len(part):
            reason = f"is not a union of whole runs of {m}"
        elif not seen.isdisjoint(atoms):
            reason = "shares a run with another part"
        else:
            seen.update(atoms)
            out.append(atoms)
            continue
        bad.append(((tag, p), f"part {list(part)} {reason}"))
        out.append([])
    return out


def verify_cover(v: int, hosts, m: int) -> VerificationReport:
    """Check that the hosts partition the edges of K_v, counted per pair of
    atoms, the runs x // m.  A host is (parts, inner): an edge across every
    two parts, and inside each part whose index is in inner.  Every part must
    be a union of whole atoms (_host_atoms), so an atom pair's count is that
    of each of its edges.  Deficits are keyed by atom pair (a, b), a <= b;
    bad_cycles lists ((host index, part index), reason).  A Batch reports as
    its hosts: counted from its columns when whole, else host by host."""
    n = -(-v // m)
    single = [min(m, v - a * m) == 1 for a in range(n)]  # no edge inside
    cover = [0] * (n * n)
    report, h = VerificationReport(), -1  # h: the index of the last host counted
    for host in hosts:
        if type(host) is Batch and host.whole(v, m):
            atoms = [tuple(map(floordiv, s, repeat(m))) for s in host.starts]
            for (a, wa), (b, wb) in combinations(zip(atoms, host.widths), 2):
                base = list(map(add, map(mul, a, repeat(n)), b))  # the first atoms' pair keys
                for d in [x + y for x in range(0, wa // m * n, n) for y in range(wb // m)]:
                    for key in map(add, base, repeat(d)):
                        cover[key] += 1
            h += len(host.starts[0])
            continue
        for h, (parts, inner) in enumerate(host.expand() if type(host) is Batch else [host], h + 1):
            atoms = _host_atoms(parts, v, m, h, report.bad_cycles)
            for p, q in combinations(atoms, 2):
                for a, b in product(p, q):
                    cover[a * n + b if a < b else b * n + a] += 1
            for p in inner:
                for i, a in enumerate(atoms[p]):
                    for b in atoms[p][i + single[a]:]:
                        cover[a * n + b] += 1
    for a in range(n):
        row = cover[a * n + a + single[a]:a * n + n]
        if row.count(1) < len(row):
            for b, k in enumerate(row, a + single[a]):
                if k != 1:
                    report.edge_deficits[(a, b)] = k - 1
    report.ok = not (report.bad_cycles or report.edge_deficits)
    return report


def verify_orbits(spec, length: int, m: int, first_bases, second_bases) -> VerificationReport:
    """Full certificate, from the bases alone, for the pair whose systems are
    the orbits of the base cycles under the row shift c*m + r -> c*m + (r+1)
    % m; every part of the host must be whole columns, the runs x // m.

    An edge from row r of column c to row s of column d >= c lies in the
    class (c, d, s - r mod m) at phase r, and the shift moves it one phase
    on.  So the orbits decompose the host iff each base is a simple
    `length`-cycle and each system's bases meet every class of the host
    once; and the pair is orthogonal iff no first base i and second base j
    share two classes at one phase offset o.  Deficits are keyed by (tag,
    class); max_cross_intersection is the largest (i, j, o) count, witness
    its first (i, j), counted only when one set shows a repeated meet."""
    v = spec.v
    report = VerificationReport()
    bad = report.bad_cycles
    if v % m:
        bad.append((("host", None), f"{v} vertices are not whole columns of {m}"))
    n = v // m
    cols = _host_atoms(spec.parts, v, m, "host", bad)
    size = m * (n * (n - 1) - sum(len(c) * (len(c) - 1) for c in cols)) // 2
    absent = {(c * n + d) * m + r for atoms in cols
              for i, c in enumerate(atoms) for d in atoms[i:] for r in range(m)}
    # consecutive vertices a < b of base i, a's column the lower, make an
    # edge of class key lower[a] + upper[b] + (b - a) % m at phase key
    # i * m + a % m: its base and the row of a
    lower, upper = [x // m * n * m for x in range(v)], [x - x % m for x in range(v)]
    systems = []
    for tag, bases in (("first", first_bases), ("second", second_bases)):
        keys, phases = [], []
        for i, cyc in enumerate(_simple(bases, v, length, tag, bad)):
            if cyc is None:
                continue
            phase, a = i * m, cyc[-1]
            for b in cyc:
                if a < b:
                    keys.append(lower[a] + upper[b] + (b - a) % m)
                    phases.append(phase + a % m)
                else:
                    keys.append(lower[b] + upper[a] + (a - b) % m)
                    phases.append(phase + b % m)
                a = b
        if not (len(set(keys)) == len(keys) == size and absent.isdisjoint(keys)):
            count = Counter(keys)
            for key in range(n * n * m):
                c, d = divmod(key // m, n)
                k = count[key] - (c < d and key not in absent)
                if k:
                    report.edge_deficits[(tag, (c, d, key % m))] = k
        systems.append((keys, phases))
    (keys, phases), (second_keys, second_phases) = systems
    # first base i meets second base j at phase offset o as (i * t + j) * m + o
    t = len(second_bases)
    owner = dict(zip(keys, phases))
    found = zip(map(owner.get, second_keys), second_phases)
    if bad or report.edge_deficits:  # else both systems meet each class once
        found = [pq for pq in found if pq[0] is not None]
    meets = [(p // m * t + q // m) * m + (p - q) % m for p, q in found]
    if len(set(meets)) < len(meets):
        shared = Counter(meets)
        best = report.max_cross_intersection = max(shared.values())
        report.witness = divmod(next(meet for meet, k in shared.items() if k == best) // m, t)
    elif meets:
        report.max_cross_intersection, report.witness = 1, divmod(meets[0] // m, t)
    report.ok = not (bad or report.edge_deficits or report.max_cross_intersection > 1)
    return report
