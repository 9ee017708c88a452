"""Reference edge sets for the tests, written apart from the package: this
module never imports orthocycles, so a fault there cannot hide in both the
code and its oracle."""


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


def array_text(cells):
    """The Heffter array text format: one row per line, cells comma-separated,
    "." for an empty cell."""
    return "\n".join(",".join("." if x is None else str(x) for x in row) for row in cells) + "\n"
