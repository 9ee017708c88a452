"""Host graphs, cycles, and cycle systems.

Vertices are dense 0-based integer ids paired with display labels kept on the
graph spec.  A cycle is stored as the lexicographically least tuple among all
rotations and reflections of its vertex sequence, so equality of cycles is
plain tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Edge = tuple[int, int]
Cycle = tuple[int, ...]


def edge(a: int, b: int) -> Edge:
    """Undirected edge as an ordered pair (lo, hi)."""
    if a == b:
        raise ValueError(f"loop edge at vertex {a}")
    return (a, b) if a < b else (b, a)


def canonical_cycle(vertices) -> Cycle:
    """Least tuple over all rotations of the sequence and of its reversal.

    Raises ValueError for sequences shorter than 3 or with repeated vertices.
    """
    seq = tuple(vertices)
    n = len(seq)
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    if len(set(seq)) != n:
        raise ValueError(f"repeated vertex in cycle {seq}")
    # distinct vertices: the least rotation starts at the minimum, read
    # forwards or backwards from it
    i = seq.index(min(seq))
    fwd = seq[i:] + seq[:i]
    back = fwd[:1] + fwd[:0:-1]
    return min(fwd, back)


def cycle_edges(cycle) -> frozenset[Edge]:
    """Edge set of a closed cycle (consecutive pairs plus the wrap edge)."""
    seq = tuple(cycle)
    out = frozenset(edge(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))
    if len(out) != len(seq):
        raise ValueError(f"degenerate cycle {seq}")
    return out


@dataclass(frozen=True)
class GraphSpec:
    """Host graph: complete, complete minus a clique hole, or multipartite.

    labels[i] is the display label of vertex i.  For complete_minus_hole the
    hole is a vertex subset whose internal edges are absent; for multipartite
    the parts partition the vertices and only cross-part edges exist.
    """

    kind: str
    labels: tuple[str, ...]
    hole: frozenset[int] = frozenset()
    parts: tuple[tuple[int, ...], ...] = ()
    _index: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        if self.kind not in ("complete", "complete_minus_hole", "multipartite"):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        v = len(self.labels)
        if self.kind == "complete_minus_hole":
            if not self.hole or not all(0 <= x < v for x in self.hole):
                raise ValueError("hole must be a nonempty subset of the vertex range")
        if self.kind == "multipartite":
            flat = [x for part in self.parts for x in part]
            if sorted(flat) != list(range(v)) or len(self.parts) < 2:
                raise ValueError("parts must partition the vertex range into >= 2 parts")
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def v(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"label {label!r} not in graph") from None


def complete(v: int, labels=None) -> GraphSpec:
    if v < 0:
        raise ValueError(f"order must be non-negative, got {v}")
    if labels is None:
        labels = tuple(str(i) for i in range(v))
    return GraphSpec("complete", tuple(labels))


def complete_minus_hole(v: int, hole, labels=None) -> GraphSpec:
    if labels is None:
        labels = tuple(str(i) for i in range(v))
    return GraphSpec("complete_minus_hole", tuple(labels), hole=frozenset(hole))


def multipartite(sizes, labels=None) -> GraphSpec:
    sizes = tuple(sizes)
    v = sum(sizes)
    if labels is None:
        labels = tuple(str(i) for i in range(v))
    parts, at = [], 0
    for s in sizes:
        parts.append(tuple(range(at, at + s)))
        at += s
    return GraphSpec("multipartite", tuple(labels), parts=tuple(parts))


def graph_edges(spec: GraphSpec) -> set[Edge]:
    """All edges of the host graph."""
    v = spec.v
    if spec.kind == "complete":
        return {(a, b) for a in range(v) for b in range(a + 1, v)}
    if spec.kind == "complete_minus_hole":
        return {
            (a, b)
            for a in range(v)
            for b in range(a + 1, v)
            if not (a in spec.hole and b in spec.hole)
        }
    part_of = {}
    for i, part in enumerate(spec.parts):
        for x in part:
            part_of[x] = i
    return {
        (a, b)
        for a in range(v)
        for b in range(a + 1, v)
        if part_of[a] != part_of[b]
    }


@dataclass(frozen=True)
class CycleSystem:
    """A multiset-free list of canonical cycles claimed to decompose the host.

    Cycles are canonicalized and sorted at construction, so two systems with
    the same content compare equal.  meta carries provenance (source, seed,
    citation, route) and never affects equality.
    """

    spec: GraphSpec
    cycles: tuple[Cycle, ...]
    meta: tuple = field(default=(), compare=False)

    def __post_init__(self):
        v = self.spec.v
        canon = sorted(canonical_cycle(c) for c in self.cycles)
        for c in canon:
            if c[0] < 0 or max(c) >= v:
                raise ValueError(f"cycle {c} leaves the vertex range")
        object.__setattr__(self, "cycles", tuple(canon))

    @property
    def cycle_length(self) -> int:
        return len(self.cycles[0]) if self.cycles else 0


@dataclass(frozen=True)
class OrthogonalPair:
    """Two cycle systems over one host graph, intended to be orthogonal."""

    spec: GraphSpec
    first: CycleSystem
    second: CycleSystem

    def __post_init__(self):
        if self.first.spec != self.spec or self.second.spec != self.spec:
            raise ValueError("systems disagree with the pair's host graph")


def meta(**kwargs) -> tuple:
    """Provenance record as a sorted tuple of (key, value) pairs."""
    return tuple(sorted(kwargs.items()))
