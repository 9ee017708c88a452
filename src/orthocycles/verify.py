"""Certificate checking for cycle systems and orthogonal pairs.

All checkers report every defect they find instead of stopping at the first,
so a failed report pinpoints the bad cycles / edges directly.

Edges are integer ids a*v + b with a < b.  Each system is scanned once: the
ids of every cycle are computed a single time and serve the shape, coverage
and orthogonality checks alike.  A correct system is confirmed by counts
alone (its ids are distinct, none is a vertex pair the host lacks, and there
are as many as the host has edges); the edge-by-edge listing of missing,
over-covered and foreign edges runs only when those counts disagree.

The verifier is the root of trust for every construction, so it depends on
core alone and accepts cycles as written: a cycle need not be canonical, and a
loop or repeated vertex is reported instead of raised.
"""

from __future__ import annotations

from itertools import chain

from .core import GraphSpec, Value


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

    __slots__ = _fields = ("ok", "edge_deficits", "bad_cycles", "max_cross_intersection", "witness")
    __repr__ = Value.__repr__

    def __init__(self, ok: bool = True, edge_deficits: dict = None, bad_cycles: list = None,
                 max_cross_intersection: int = 0, witness: tuple | None = None):
        self.ok = ok
        self.edge_deficits = {} if edge_deficits is None else edge_deficits
        self.bad_cycles = [] if bad_cycles is None else bad_cycles
        self.max_cross_intersection = max_cross_intersection
        self.witness = witness


# ------------------------------------------------------------------ host

def _host(spec: GraphSpec) -> tuple[int, set]:
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


def _scan(cycles, v: int, length: int | None, tag, bad: list) -> list:
    """Edge ids of each cycle, or None for one that is not a simple cycle.

    Appends ((tag, index), reason) to bad for every defective cycle, and for
    every cycle whose length is not `length` (such a cycle keeps its ids, so
    its edges still count towards coverage).
    """
    verts = set(chain.from_iterable(cycles))
    in_range = not verts or (min(verts) >= 0 and max(verts) < v)
    out = []
    for i, cyc in enumerate(cycles):
        n = len(cyc)
        if length is not None and n != length:
            bad.append(((tag, i), f"length {n} != {length}"))
        if n < 3 or len(set(cyc)) != n or not in_range:  # cheap tests first
            reason = _shape_defect(cyc, v)
            if reason:
                bad.append(((tag, i), reason))
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
        if not extra and len(set(got)) == len(got):
            # every second cycle met here is met in one edge
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
