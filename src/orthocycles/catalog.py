"""Embedded store of small verified ingredient pairs.

Each entry is one JSON data file: a host graph with display labels and the two
systems, either as explicit label cycles or as base blocks plus the group
action that develops them (with pinned orbit sizes).  Entries marked as
search-supplied carry the seed and budget that reproduce them.

Labels are plain integers "7", coordinate pairs "(3,2)", and fixed points
"inf", "inf1", ...  An action is a translation group, stored as a dict:
{"kind": "cyclic", "modulus": [n], "step": s} moves integer labels by the
multiples of s mod n (step defaults to 1); {"kind": "pair_first", "modulus":
[m]} moves x in "(x,j)" mod m and keeps j; {"kind": "pair_both", "modulus":
[m, t]} moves x mod m and j mod t.  Every action fixes the "inf*" labels.
develop() keeps the distinct canonical images of each base, so short orbits
(bases with a nontrivial stabiliser, reflection coincidences included) come
out at their true size, which the entry pins.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import repeat
from math import gcd
from pathlib import Path

from .core import CycleSystem, GraphSpec, OrthogonalPair, canonical_cycle


def _data_files() -> Path:
    # package-data beside this module; importlib.resources costs ~35 ms of import
    return Path(__file__).parent / "data"


def list_ingredients() -> tuple[tuple[str, str], ...]:
    """(key, citation) for every embedded entry, sorted by key."""
    return tuple((key, _load(key)["citation"]) for key in sorted(_keys()))


@lru_cache(maxsize=None)
def _keys() -> frozenset:
    # a key names one file of data/: no separator or dot can lead elsewhere
    stems = (path.stem for path in _data_files().glob("*.json"))
    return frozenset(stem for stem in stems if stem.isidentifier())


@lru_cache(maxsize=None)
def _load(key: str) -> dict:
    if not has_ingredient(key):
        raise KeyError(f"no catalog entry {key!r}")
    return json.loads((_data_files() / f"{key}.json").read_text())


def has_ingredient(key: str) -> bool:
    return key in _keys()


def json_array(value, name: str, nested: bool = False) -> list:
    """value if it is a JSON array (of JSON arrays, when nested), else a ValueError
    naming the field; a string would be read one character at a time."""
    if type(value) is not list:
        raise ValueError(f"{name} is not a JSON array (got {type(value).__name__})")
    if nested and not all(type(x) is list for x in value):
        for i, x in enumerate(value):
            json_array(x, f"{name}[{i}]")
    return value


def json_object(value, name: str) -> dict:
    """value if it is a JSON object, else a ValueError naming the field."""
    if type(value) is not dict:
        raise ValueError(f"{name} is not a JSON object (got {type(value).__name__})")
    return value


def spec_from_dict(g: dict) -> GraphSpec:
    # the complete host checks the labels; its ids() looks up hole and parts
    labels = json_array(g["labels"], "labels")
    bad = next((i for i, x in enumerate(labels) if type(x) in (list, dict)), None)
    if bad is not None:
        raise ValueError(f"labels[{bad}] is not a JSON string or number")
    host = GraphSpec("complete", tuple(labels))
    if g["kind"] == "complete":
        return host
    if g["kind"] == "complete_minus_hole":
        hole = host.ids(json_array(g["hole"], "hole"))
        if len(set(hole)) != len(hole):
            raise ValueError("hole repeats a label")
        return GraphSpec("complete_minus_hole", host.labels, hole=frozenset(hole))
    if g["kind"] == "multipartite":
        parts = json_array(g["parts"], "parts", nested=True)
        return GraphSpec("multipartite", host.labels, parts=tuple(map(host.ids, parts)))
    raise ValueError(f"unknown graph kind {g['kind']!r}")


def develop(bases, action: dict, expected) -> list[tuple[str, ...]]:
    """Concatenated orbits of every base under action; expected pins each
    orbit size, so a base transcribed wrong fails loudly."""
    kind, modulus = action["kind"], action["modulus"]
    if kind == "pair_both":
        m, t = modulus
        elements = [(a, b) for a in range(m) for b in range(t)]
    elif kind in ("cyclic", "pair_first"):
        (n,) = modulus
        elements = range(0, n, gcd(n, action.get("step", 1)))
    else:
        raise ValueError(f"unknown action kind {kind!r}")

    size = len(elements)
    # label strings, each row listed twice so that a slice wraps around: per
    # first coordinate a for pair_both, the labels (a,0) .. (a,t-1); else per
    # second coordinate j, the labels of 0 .. n-1 (j None: cyclic)
    rows: dict = {}

    def orbit(label: str) -> list:
        """The label's image under each element, in element order: its
        coordinates are parsed once and moved by slicing a doubled table."""
        if label.startswith("inf"):
            return [label] * size
        # cyclic moves integer labels only, the pair kinds "(x,j)" labels only
        if (kind == "cyclic") == label.startswith("("):
            raise ValueError(f"{kind} action cannot move label {label!r}")
        if kind == "cyclic":
            x, j = int(label), None
        else:
            x, j = map(int, label[1:-1].split(","))
        if kind == "pair_both":
            if not rows:
                rows.update((a, [f"({a},{b})" for b in range(t)] * 2) for a in range(m))
            x, j = x % m, j % t
            return [s for a in range(x, x + m) for s in rows[a % m][j:j + t]]
        if j not in rows:
            rows[j] = [str(i) if j is None else f"({i},{j})" for i in range(n)] * 2
        x %= n
        return rows[j][x:x + n:elements.step]

    out: list[tuple[str, ...]] = []
    for i, base in enumerate(bases):
        # an empty group forms no image, so it reads no label
        columns = [orbit(label) for label in base] if size else []
        images = list(dict.fromkeys(map(canonical_cycle, zip(*columns) if columns
                                        else repeat((), size))))
        if len(images) != expected[i]:
            raise ValueError(
                f"base {i} develops into {len(images)} cycles, expected {expected[i]}")
        out.extend(images)
    return out


def _label_cycles(payload: dict) -> list:
    if payload["kind"] == "explicit":
        return payload["cycles"]
    cycles = []
    for g in payload["groups"]:
        cycles.extend(develop(g["bases"], g["action"], g["expected"]))
    return cycles


@lru_cache(maxsize=None)
def get_ingredient(key: str) -> OrthogonalPair:
    d = _load(key)
    spec = spec_from_dict(d["graph"])
    meta = tuple(sorted({"source": "catalog", "key": key,
                         "citation": d["citation"], **d.get("meta", {})}.items()))
    systems = []
    for name in ("first", "second"):
        label_cycles = _label_cycles(d["systems"][name])
        systems.append(CycleSystem(spec, map(spec.ids, label_cycles), meta=meta))
    return OrthogonalPair(spec, systems[0], systems[1])


def cycle_length(key: str) -> int:
    return _load(key)["l"]


def verify_catalog() -> list:
    """(key, VerificationReport) for every entry; the full regression gate."""
    from .verify import verify_pair

    out = []
    for key, _ in list_ingredients():
        pair = get_ingredient(key)
        out.append((key, verify_pair(pair, cycle_length(key))))
    return out
