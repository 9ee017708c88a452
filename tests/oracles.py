"""Reference edge sets for the tests, written apart from the package: this
module never imports orthocycles, so a fault there cannot hide in both the
code and its oracle."""

from itertools import permutations


def edge(a, b):
    """Undirected edge as an ordered pair (lo, hi)."""
    if a == b:
        raise ValueError(f"loop edge at vertex {a}")
    return (a, b) if a < b else (b, a)


def cycle_edges(cycle):
    """Edge set of a closed cycle (consecutive pairs plus the wrap edge)."""
    seq = tuple(cycle)
    out = frozenset(edge(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))
    if len(out) != len(seq):
        raise ValueError(f"degenerate cycle {seq}")
    return out


def graph_edges(spec):
    """All edges of a host with .v, .kind, .hole and .parts."""
    v = spec.v
    if spec.kind == "complete":
        return {(a, b) for a in range(v) for b in range(a + 1, v)}
    if spec.kind == "complete_minus_hole":
        return {(a, b) for a in range(v) for b in range(a + 1, v)
                if not (a in spec.hole and b in spec.hole)}
    part_of = {x: i for i, part in enumerate(spec.parts) for x in part}
    return {(a, b) for a in range(v) for b in range(a + 1, v) if part_of[a] != part_of[b]}


def host_cover_is_exact(v, hosts):
    """Whether the hosts partition the edges of K_v, edge by edge.  A host is
    (parts, inner): an edge across every two parts, and one inside each part
    whose index is in inner.  A host that names a vertex twice, or one outside
    0..v-1, is no simple graph, so no partition."""
    counts = {}
    for parts, inner in hosts:
        flat = [x for part in parts for x in part]
        if len(set(flat)) != len(flat) or not all(0 <= x < v for x in flat):
            return False
        for p, part in enumerate(parts):
            pairs = [(a, b) for q in parts[p + 1:] for a in part for b in q]
            if p in inner:
                pairs += [(a, b) for i, a in enumerate(part) for b in part[i + 1:]]
            for a, b in pairs:
                counts[edge(a, b)] = counts.get(edge(a, b), 0) + 1
    return counts == {(a, b): 1 for a in range(v) for b in range(a + 1, v)}


def hamiltonian_decompositions(n):
    """Every decomposition of K_n into Hamiltonian cycles, each a sorted tuple
    of cycles written from vertex 0 with the lesser neighbour of 0 second.
    The cycle through the least edge not yet covered is chosen at each step,
    so every decomposition is found exactly once."""
    bit = {}
    for a in range(n):
        for b in range(a + 1, n):
            bit[a, b] = 1 << len(bit)
    masks = {}
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:
            cycle = (0, *rest)
            masks[cycle] = sum(bit[e] for e in cycle_edges(cycle))
    full, out = (1 << len(bit)) - 1, []

    def extend(chosen, covered):
        if covered == full:
            out.append(tuple(sorted(chosen)))
            return
        least = ~covered & (covered + 1)
        for cycle, mask in masks.items():
            if mask & least and not mask & covered:
                extend(chosen + [cycle], covered | mask)

    extend([], 0)
    return out


def array_text(cells):
    """The Heffter array text format: one row per line, cells comma-separated,
    "." for an empty cell."""
    return "\n".join(",".join("." if x is None else str(x) for x in row) for row in cells) + "\n"
