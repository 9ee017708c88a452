"""Differential fuzz test of `orthocycles verify` against perfbench/checker.py.

Design files, dumped from the catalog or generated, are mutated structurally
(wrong JSON types, unknown, duplicate and non-string labels, swapped, dropped
and repeated vertices, a bad meta.length).  The command must exit 0, 1 or 2
without a traceback, print a report with every exit 1, and on every file that
loads over a complete host agree with the independent checker, which is
imported by path because nothing under perfbench/ is a package.  On a holed
or multipartite host, which that checker cannot read, they agree with
tests/oracles.design_defects, which reads the hole and parts from the file.
"""

import contextlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from orthocycles.catalog import cycle_length, get_ingredient
from orthocycles.cli import design_text, load_design, main
from orthocycles.construct import construct_pair
from orthocycles.verify import verify_pair

_CHECKER = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
_spec = importlib.util.spec_from_file_location("checker", _CHECKER)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

# dumped catalog files of each host kind, and small generated ones
BASES = tuple(design_text(get_ingredient(key), cycle_length(key))
              for key in ("l3_v7", "l5_v11", "l6_v9", "l5_K15mK5", "l6_K444", "l8_v17")) + (
    design_text(construct_pair(5, 31), 5), design_text(construct_pair(6, 25), 6))

# a value of each JSON type, and labels that no file uses, as JSON texts so
# that every draw is a fresh object
_VALUES = ("null", "true", "0", "7", "2.5", '"x"', "[]", "{}", "[[]]", '["0"]')
_STRANGERS = ('"zz"', '""', '"inf9"', "99", "-1", "1.5", "null", "true", '["0"]', '{"0": 0}')


def _fresh(draw, texts):
    return json.loads(draw(st.sampled_from(texts)))


def _wrong_type(draw, doc):
    """Walk down from the root and replace the node reached by a value of
    another JSON type; the root itself may be replaced."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 7)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(list(keys)))
        parent, node = node, node[key]
    value = json.loads(draw(st.sampled_from(
        [x for x in _VALUES if type(json.loads(x)) is not type(node)])))
    if parent is None:
        return value
    parent[key] = value
    return doc


def _cycle(draw, doc):
    """A cycle of one system, or None when the file has none to edit."""
    cycles = doc["systems"][draw(st.sampled_from(("first", "second")))]
    if isinstance(cycles, list) and cycles:
        return cycles[draw(st.integers(0, len(cycles) - 1))]
    return None


@st.composite
def mutated_designs(draw):
    doc = json.loads(draw(st.sampled_from(BASES)))
    # edits that keep the file loadable are drawn more often, so that the
    # verifier and the checker meet on many files
    for kind in draw(st.lists(st.sampled_from(
            ("swap", "drop", "repeat", "length") * 3
            + ("type", "unknown", "duplicate", "non-string")),
            min_size=1, max_size=3)):
        if not (isinstance(doc, dict) and isinstance(doc.get("systems"), dict)
                and isinstance(doc.get("spec"), dict)) or kind == "type":
            doc = _wrong_type(draw, doc)
            continue
        labels = doc["spec"].get("labels")
        c = _cycle(draw, doc) if kind in ("unknown", "swap", "drop", "repeat") else None
        if isinstance(c, list) and c:
            i, j = draw(st.integers(0, len(c) - 1)), draw(st.integers(0, len(c) - 1))
            if kind == "unknown":
                c[i] = _fresh(draw, _STRANGERS)
            elif kind == "swap":
                c[i], c[j] = c[j], c[i]
            elif kind == "drop":
                del c[i]
            else:
                c[i] = c[j]
        elif kind in ("duplicate", "non-string") and isinstance(labels, list) and labels:
            i, j = draw(st.integers(0, len(labels) - 1)), draw(st.integers(0, len(labels) - 1))
            labels[i] = labels[j] if kind == "duplicate" else _fresh(draw, _STRANGERS[3:])
        elif kind == "length" and isinstance(doc.get("meta"), dict):
            doc["meta"]["length"] = draw(st.integers(-2, 12)) if draw(st.booleans()) else _fresh(
                draw, _VALUES)
    return json.dumps(doc)


def _verify(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "design.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


@seed(20)
@given(mutated_designs())
@settings(max_examples=400, deadline=None)
def test_verify_and_the_independent_checker_agree_on_mutated_files(text):
    code, out, err = _verify(text)  # an exception here is the traceback to rule out
    assert code in (0, 1, 2)
    if code == 1:
        assert out.strip(), "exit 1 without a report"
    if code == 2:
        assert err.startswith("cannot load") and out == ""
        return
    pair, length = load_design(text)
    report = verify_pair(pair, length)
    assert code == (0 if report.ok else 1)
    if pair.spec.kind == "complete":  # the checker knows complete hosts only
        defects = checker.check_pair(pair.spec.v, length, pair.first.cycles, pair.second.cycles)
        assert report.ok == (defects == []), defects
    else:  # a holed or multipartite host, whose parts the oracle reads from the file
        defects = oracles.design_defects(text)
        assert report.ok == (defects == []), defects


def test_every_base_verifies_and_satisfies_the_checker():
    for text in BASES:
        assert _verify(text)[0] == 0
        pair, length = load_design(text)
        if pair.spec.kind == "complete":
            assert checker.check_pair(pair.spec.v, length, pair.first.cycles,
                                      pair.second.cycles) == []
