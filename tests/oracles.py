"""Reference edge sets for the tests, written apart from the package: this
module never imports orthocycles, so a fault there cannot hide in both the
code and its oracle.  It also keeps the package's earlier versions of the
loops that were rewritten for speed, so the rewrites can be held to the
very same results."""

import json
from collections import Counter
from itertools import compress, permutations
from math import gcd
from random import Random


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


def design_defects(text):
    """Defects of the pair in a design file, read from the file alone: the
    host is K_v on the file's labels less every edge inside its hole or
    inside one of its parts.  Each system must cover each host edge exactly
    once with cycles of meta.length distinct vertices, and an owner map from
    each first-system edge to its cycle must show no second cycle sharing
    two edges with one first cycle.  [] for a valid pair."""
    doc = json.loads(text)
    spec, l = doc["spec"], doc["meta"]["length"]
    at = {label: i for i, label in enumerate(spec["labels"])}
    group = {at[x]: g for g, labels in enumerate([spec.get("hole", []), *spec.get("parts", [])])
             for x in labels}
    host = {(a, b) for a in range(len(at)) for b in range(a + 1, len(at))
            if a not in group or group[a] != group.get(b)}
    defects, owner = [], {}
    for tag in ("first", "second"):
        covered = Counter()
        for i, labels in enumerate(doc["systems"][tag]):
            cyc = [at.get(x) for x in labels]
            if len(cyc) != l or None in cyc or len(set(cyc)) != l:
                defects.append(f"{tag} cycle {i}: not {l} distinct vertices of the host: {labels}")
                continue
            edges = [edge(cyc[j - 1], cyc[j]) for j in range(l)]
            covered.update(edges)
            if tag == "first":
                owner.update(dict.fromkeys(edges, i))
                continue
            for j, shared in Counter(owner[e] for e in edges if e in owner).items():
                if shared > 1:
                    defects.append(f"second cycle {i} shares {shared} edges with first cycle {j}")
        for e in sorted(host | set(covered)):
            if covered[e] != (e in host):
                defects.append(f"{tag}: edge {e} covered {covered[e]} times, the host has it {int(e in host)}")
    return defects


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


# ------------------------------------------------ earlier implementations
#
# The package's previous verify_orbits, _cross, develop, validate_heffter
# and search's _difference_bases and _general_pair, with the helpers they
# called, kept so that their rewrites can be held to the same reports,
# results and random draws.
# A report is the tuple (ok, edge_deficits, bad_cycles,
# max_cross_intersection, witness), VerificationReport's fields in order.

def report_fields(report):
    """A report's fields, in the order the earlier implementations give them."""
    return (report.ok, report.edge_deficits, report.bad_cycles,
            report.max_cross_intersection, report.witness)


def _shape_defect(cyc, v):
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


def scan(cycles, v, length, tag, bad):
    """Edge ids a*v + b (a < b) of each cycle, or None for one that is not a
    simple cycle; appends ((tag, index), reason) to bad for every defective
    cycle and every cycle whose length is not `length`."""
    out = []
    for i, cyc in enumerate(cycles):
        n = len(cyc)
        if length is not None and n != length:
            bad.append(((tag, i), f"length {n} != {length}"))
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


def _host_atoms(parts, v, m, tag, bad):
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


def orbits_report(spec, length, m, first_bases, second_bases):
    """verify_orbits as it was: edge ids from scan, split back into a
    class key and a phase per edge."""
    v = spec.v
    bad, deficits, best, witness = [], {}, 0, None
    if v % m:
        bad.append((("host", None), f"{v} vertices are not whole columns of {m}"))
    n = v // m
    cols = _host_atoms(spec.parts, v, m, "host", bad)
    size = m * (n * (n - 1) - sum(len(c) * (len(c) - 1) for c in cols)) // 2
    absent = {(c * n + d) * m + r for atoms in cols
              for i, c in enumerate(atoms) for d in atoms[i:] for r in range(m)}
    lower, upper = [x // m * n * m for x in range(v)], [x - x % m for x in range(v)]
    systems = []
    for tag, bases in (("first", first_bases), ("second", second_bases)):
        scanned = scan(bases, v, length, tag, bad)
        ids = [e for es in scanned if es for e in es]
        lows = [e // v for e in ids]
        keys = [lower[a] + upper[b] + (b - a) % m for a, b in zip(lows, [e % v for e in ids])]
        if not (len(set(keys)) == len(keys) == size and absent.isdisjoint(keys)):
            count = Counter(keys)
            for key in range(n * n * m):
                c, d = divmod(key // m, n)
                k = count[key] - (c < d and key not in absent)
                if k:
                    deficits[(tag, (c, d, key % m))] = k
        owners = [i * m for i, es in enumerate(scanned) if es for _ in es]
        systems.append((keys, [o + a % m for o, a in zip(owners, lows)]))
    (keys, phases), (second_keys, second_phases) = systems
    t = len(second_bases)
    owner = dict(zip(keys, phases))
    meets = [(p // m * t + q // m) * m + (p - q) % m
             for p, q in zip(map(owner.get, second_keys), second_phases) if p is not None]
    shared = Counter(meets)
    if shared:
        best = max(shared.values())
        witness = divmod(next(meet for meet, k in shared.items() if k == best) // m, t)
    return not (bad or deficits or best > 1), deficits, bad, best, witness


def cross(first_ids, second_ids, v):
    """_cross as it was: once any edge is over-covered, every first cycle
    counts its meets edge by edge."""
    owner = [-1] * (v * v)
    extra = {}
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
            if best == 0:
                j = next((j for j in got if j >= 0), -1)
                if j >= 0:
                    best, witness = 1, (i, j)
            continue
        shared = {}
        for e, j in zip(es, got):
            for k in ([j] if j >= 0 else []) + extra.get(e, []):
                shared[k] = shared.get(k, 0) + 1
        for j, k in shared.items():
            if k > best:
                best, witness = k, (i, j)
    return best, witness


def _canonical(vertices):
    """Least tuple over every rotation of the sequence and of its reversal,
    found by trying them all."""
    seq = tuple(vertices)
    n = len(seq)
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    if len(set(seq)) != n:
        raise ValueError(f"repeated vertex in cycle {seq}")
    return min(s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(n))


def develop(bases, action, expected):
    """catalog.develop as it was: every label parsed and formatted again for
    every group element."""
    kind, modulus = action["kind"], action["modulus"]
    if kind == "pair_both":
        m, t = modulus
        elements = [(a, b) for a in range(m) for b in range(t)]
    elif kind in ("cyclic", "pair_first"):
        (n,) = modulus
        elements = range(0, n, gcd(n, action.get("step", 1)))
    else:
        raise ValueError(f"unknown action kind {kind!r}")

    def move(label, g):
        if label.startswith("inf"):
            return label
        if (kind == "cyclic") == label.startswith("("):
            raise ValueError(f"{kind} action cannot move label {label!r}")
        if kind == "cyclic":
            return str((int(label) + g) % n)
        x, j = map(int, label[1:-1].split(","))
        if kind == "pair_first":
            return f"({(x + g) % n},{j})"
        return f"({(x + g[0]) % m},{(j + g[1]) % t})"

    out = []
    for i, base in enumerate(bases):
        images = list(dict.fromkeys(
            _canonical(tuple(move(lab, g) for lab in base)) for g in elements))
        if len(images) != expected[i]:
            raise ValueError(
                f"base {i} develops into {len(images)} cycles, expected {expected[i]}")
        out.extend(images)
    return out


def difference_bases(v, l, budget, rng):
    """search._difference_bases as it was, every random order drawn by
    rng.shuffle itself: base l-cycles through 0 using each difference class
    1..l once, the first step the class's positive representative, each
    later step's class and then its two signs in shuffled order."""
    classes = list(range(1, l + 1))

    def rec(verts, used):
        pos = len(verts)
        if pos == l:
            (last,) = set(classes) - used
            d = (-verts[-1]) % v
            budget.spend()
            if d == last or d == v - last:
                yield tuple(verts)
            return
        order = [c for c in classes if c not in used]
        rng.shuffle(order)
        for c in order:
            steps = [c]
            if pos > 1:
                steps.append(v - c)
                rng.shuffle(steps)
            for d in steps:
                budget.spend()
                nxt = (verts[-1] + d) % v
                if nxt in verts:
                    continue
                yield from rec(verts + [nxt], used | {c})

    yield from rec([0], set())


def heffter_report(a):
    """validate_heffter as it was, every line's entries built and summed
    apart for each check: (ok, defects)."""
    defects = []
    for line, fill in (("row", a.row_fill), ("column", a.col_fill)):
        if fill < 1:
            defects.append(f"{line} fill count is {fill}, expected at least 1")
    mod = a.modulus
    for i in range(a.rows):
        entries = a.row_entries(i)
        if len(entries) != a.row_fill:
            defects.append(f"row {i}: {len(entries)} filled cells, expected {a.row_fill}")
        if sum(entries) % mod:
            defects.append(f"row {i}: sums to {sum(entries) % mod} mod {mod}")
    for j in range(a.cols):
        entries = a.col_entries(j)
        if len(entries) != a.col_fill:
            defects.append(f"column {j}: {len(entries)} filled cells, expected {a.col_fill}")
        if sum(entries) % mod:
            defects.append(f"column {j}: sums to {sum(entries) % mod} mod {mod}")
    seen = {}
    for i in range(a.rows):
        for x in a.row_entries(i):
            if not 1 <= abs(x) <= a.symbol_count:
                defects.append(f"entry {x}: outside the symbol range 1..{a.symbol_count}")
                continue
            seen.setdefault(abs(x), []).append(x)
    for x in range(1, a.symbol_count + 1):
        got = seen.get(x, [])
        if not got:
            defects.append(f"symbol {x}: neither {x} nor {-x} appears")
        elif len(got) > 1:
            defects.append(f"symbol {x}: appears {len(got)} times as {sorted(got)}")
    return not defects, tuple(defects)


class _OutOfBudget(Exception):
    pass


def general_pair(spec, l, max_nodes, seed):
    """search._general_pair as it was, behind search_pair's node budget, every
    random order drawn by Random.shuffle itself: a randomized greedy first
    system, each cycle closing the least free edge by a depth-first path that
    calls itself down to depth 0, then a depth-first mate whose every step,
    the last one included, is a call.  (status, nodes, first cycles or None,
    mate cycles or None, the Random's state); the cycles as the search left
    them, not canonical.  The mate numbers the first cycles in greedy order,
    not canonical order; it reads only which edges share an owner, so the
    numbering changes nothing."""
    v = spec.v
    rng = Random(seed)
    left = [max_nodes]

    def spend():
        left[0] -= 1
        if left[0] < 0:
            raise _OutOfBudget

    def free_rows():
        free = [bytearray(b"\x01") * v for _ in range(v)]
        for a, row in enumerate(free):
            row[a] = 0
        for group in (spec.hole, *spec.parts):
            for a in group:
                for x in group:
                    free[a][x] = 0
        return free

    def least_free(free):
        for u, row in enumerate(free):
            w = row.find(1)
            if w >= 0:
                return u, w
        return None

    def grow():
        cycles, free = [], free_rows()

        def path_search(path, target, depth):
            spend()
            last = path[-1]
            if depth == 0:
                return free[last][target]
            row = free[last]
            order = list(range(v))
            rng.shuffle(order)
            for nxt in order:
                if not row[nxt] or nxt == target or nxt in path:
                    continue
                row[nxt] = free[nxt][last] = 0
                path.append(nxt)
                if path_search(path, target, depth - 1):
                    return True
                path.pop()
                row[nxt] = free[nxt][last] = 1
            return False

        while (least := least_free(free)) is not None:
            u, w = least
            free[u][w] = free[w][u] = 0
            path = [u]
            if not path_search(path, w, l - 2):
                return None
            free[path[-1]][w] = free[w][path[-1]] = 0
            cycles.append(tuple(path) + (w,))
        return cycles

    def greedy():
        while True:
            spend()
            cycles = grow()
            if cycles is not None:
                return cycles

    def steps(cycle):
        return zip(cycle, cycle[1:] + cycle[:1])

    def mate(first):
        owner = [[-1] * v for _ in range(v)]
        for j, c in enumerate(first):
            for a, x in steps(c):
                owner[a][x] = owner[x][a] = j
        free = free_rows()
        on_path = bytearray(v)
        met = bytearray(len(first))

        def mark(path, flag):
            for a, x in zip(path, path[1:]):
                met[owner[a][x]] = flag
            for a in path:
                on_path[a] = flag

        def rec(done):
            spend()
            least = least_free(free)
            if least is None:
                return done
            path = list(least)
            mark(path, 1)
            found = extend(path, done)
            if found is None:
                mark(path, 0)
            return found

        def extend(path, done):
            spend()
            last = path[-1]
            if len(path) == l:
                start = path[0]
                if not free[last][start] or met[owner[last][start]]:
                    return None
                edges = list(steps(path))
                for a, x in edges:
                    free[a][x] = free[x][a] = 0
                mark(path, 0)
                found = rec(done + [tuple(path)])
                if found is None:
                    mark(path, 1)
                    for a, x in edges:
                        free[a][x] = free[x][a] = 1
                return found
            row = owner[last]
            for nxt in compress(range(v), free[last]):
                j = row[nxt]
                if on_path[nxt] or met[j]:
                    continue
                met[j] = on_path[nxt] = 1
                path.append(nxt)
                found = extend(path, done)
                if found is not None:
                    return found
                path.pop()
                met[j] = on_path[nxt] = 0
            return None

        return rec([])

    first = second = None
    try:
        first = greedy()
        second = mate(first)
    except _OutOfBudget:
        return "exhausted", max_nodes, first, None, rng.getstate()
    status = "exhausted" if second is None else "found"
    return status, max_nodes - left[0], first, second, rng.getstate()


# template cycles of the quasigroup route's cross, per length and system:
# slot (c, s) is row s of column c, where c indexes x, y, z = x * y, x ^ 1, y ^ 1
CROSS_TEMPLATES = {
    5: (((0, 0), (1, 0), (0, 1), (2, 3), (1, 1)), ((0, 0), (1, 0), (0, 2), (2, 3), (1, 2))),
    7: (((0, 0), (1, 0), (0, 1), (1, 3), (2, 6), (0, 3), (1, 1)),
        ((0, 0), (1, 0), (3, 3), (1, 4), (2, 6), (0, 4), (4, 3))),
}


def cross_bases(l, table):
    """The first and second bases _quasigroup_cross certified, in its earlier
    nested layout: the pairs x < y from different holes of the quasigroup
    table, grouped by the place of z = x * y among x and y and, for l = 7,
    the parities of x and y, groups in order of first appearance; per group
    and template, one list per slot of the members' vertices at shift 0."""
    n, m, bit = len(table), 3 if l == 5 else 5, int(l == 7)
    groups = {}
    for x, products in enumerate(table):
        for y in range((x | 1) + 1, n):
            z = products[y]
            groups.setdefault(((z > x) + (z > y), x & bit, y & bit), []).append(
                (l * x, l * y, l * z, l * (x ^ 1), l * (y ^ 1))[:m])
    ats = [[[tuple(a + s for a in cols[c]) for c, s in template] for template in CROSS_TEMPLATES[l]]
           for cols in (list(zip(*members)) for members in groups.values())]
    return tuple([b for group in ats for b in zip(*group[t])] for t in (0, 1))


def check_qh(k, table):
    """_check_qh as it was, cell by cell: raise AssertionError naming the
    first defect of a symmetric quasigroup table with holes {2i, 2i+1}."""
    n = 2 * k
    for x in range(n):
        seen = []
        for y in range(n):
            z = table[x][y]
            if x // 2 == y // 2:
                if z is not None:
                    raise AssertionError("hole cell is filled")
                continue
            if z != table[y][x]:
                raise AssertionError("table is not symmetric")
            if z is None or z // 2 in (x // 2, y // 2):
                raise AssertionError(f"cell ({x}, {y}) = {z} is empty or in an operand's hole")
            seen.append(z)
        if sorted(seen) != [z for z in range(n) if z // 2 != x // 2]:
            raise AssertionError(f"row {x} is not a bijection outside its hole")


def placed_cycles(cycles, targets):
    """One system of a placed catalog pair, as assembly emitted it one
    placement at a time: the host's vertex x goes to the x-th target laid
    end to end.  When that map is not increasing, the cycles are first
    relabelled by the rank of their targets and made canonical again, then
    every cycle is mapped through the sorted targets."""
    mapping = [x for part in targets for x in part]
    ascending = sorted(mapping)
    if mapping != ascending:
        rank = [ascending.index(x) for x in mapping]
        cycles = sorted(_canonical(rank[x] for x in c) for c in cycles)
    return [tuple(ascending[x] for x in c) for c in cycles]
