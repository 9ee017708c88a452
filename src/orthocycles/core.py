"""Host graphs, cycles, and cycle systems.

Vertices are dense 0-based integer ids paired with display labels kept on the
graph spec.  A cycle is stored as the lexicographically least tuple among all
rotations and reflections of its vertex sequence, so equality of cycles is
plain tuple equality.
"""

from __future__ import annotations

Cycle = tuple[int, ...]


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
    # forwards or backwards from it, whichever has the smaller second vertex
    i = seq.index(min(seq))
    if i:
        seq = seq[i:] + seq[:i]
    return seq if seq[1] < seq[-1] else seq[:1] + seq[:0:-1]


class Value:
    """Immutable value type.  A subclass lists its constructor arguments in
    _fields and stores them once with _set; equality and hashing read _key(),
    which is every field unless the subclass narrows it, and any later
    assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class GraphSpec(Value):
    """Host graph: complete, complete minus a clique hole, or multipartite.

    labels[i] is the display label of vertex i.  For complete_minus_hole the
    hole is a vertex subset whose internal edges are absent; for multipartite
    the parts partition the vertices and only cross-part edges exist.
    """

    __slots__ = ("kind", "labels", "hole", "parts", "_index")
    _fields = ("kind", "labels", "hole", "parts")

    def __init__(self, kind: str, labels: tuple[str, ...], hole: frozenset[int] = frozenset(),
                 parts: tuple[tuple[int, ...], ...] = ()):
        if kind not in ("complete", "complete_minus_hole", "multipartite"):
            raise ValueError(f"unknown graph kind {kind!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        v = len(labels)
        if kind == "complete_minus_hole":
            if not hole or not all(0 <= x < v for x in hole):
                raise ValueError("hole must be a nonempty subset of the vertex range")
        if kind == "multipartite":
            flat = [x for part in parts for x in part]
            if sorted(flat) != list(range(v)) or len(parts) < 2:
                raise ValueError("parts must partition the vertex range into >= 2 parts")
        self._set(kind=kind, labels=labels, hole=hole, parts=parts,
                  _index={lab: i for i, lab in enumerate(labels)})

    @property
    def v(self) -> int:
        return len(self.labels)

    def ids(self, labels) -> tuple[int, ...]:
        """Vertex ids of a label sequence, in order."""
        try:
            return tuple(map(self._index.__getitem__, labels))
        except (KeyError, TypeError):  # TypeError: an unhashable array or object
            label = next(x for x in labels if x.__hash__ is None or x not in self._index)
            raise ValueError(f"label {label!r} not in graph") from None


def complete(v: int, labels=None) -> GraphSpec:
    if v < 0:
        raise ValueError(f"order must be non-negative, got {v}")
    if labels is None:
        labels = tuple(str(i) for i in range(v))
    return GraphSpec("complete", tuple(labels))


class CycleSystem(Value):
    """A multiset-free list of canonical cycles claimed to decompose the host.

    Cycles are canonicalized and sorted at construction, so two systems with
    the same content compare equal.  meta carries provenance (source, seed,
    citation, route) and never affects equality.
    """

    __slots__ = _fields = ("spec", "cycles", "meta")

    def __init__(self, spec: GraphSpec, cycles, meta: tuple = ()):
        self._store(spec, map(canonical_cycle, cycles), meta)

    @classmethod
    def _of_canonical(cls, spec: GraphSpec, cycles, meta: tuple = ()) -> CycleSystem:
        """System of cycles that are canonical already, so only sorted."""
        (system := cls.__new__(cls))._store(spec, cycles, meta)
        return system

    def _store(self, spec: GraphSpec, cycles, meta: tuple) -> None:
        canon = sorted(cycles)
        # a canonical cycle starts at its least vertex, so canon[0][0] is the
        # least vertex of all; walk the cycles only to name an offender
        if canon and (canon[0][0] < 0 or max(map(max, canon)) >= spec.v):
            for c in canon:
                if c[0] < 0 or max(c) >= spec.v:
                    raise ValueError(f"cycle {c} leaves the vertex range")
        self._set(spec=spec, cycles=tuple(canon), meta=meta)

    def _key(self) -> tuple:
        return self.spec, self.cycles

    @property
    def cycle_length(self) -> int:
        return len(self.cycles[0]) if self.cycles else 0


class OrthogonalPair(Value):
    """Two cycle systems over one host graph, intended to be orthogonal."""

    __slots__ = _fields = ("spec", "first", "second")

    def __init__(self, spec: GraphSpec, first: CycleSystem, second: CycleSystem):
        if first.spec != spec or second.spec != spec:
            raise ValueError("systems disagree with the pair's host graph")
        self._set(spec=spec, first=first, second=second)


def meta(**kwargs) -> tuple:
    """Provenance record as a sorted tuple of (key, value) pairs."""
    return tuple(sorted(kwargs.items()))
