import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orthocycles
from orthocycles.catalog import cycle_length, get_ingredient, list_ingredients
from orthocycles.cli import design_text, load_design, main
from orthocycles.construct import UNSATISFIABLE, admissible, construct_pair, no_pair_reason
from oracles import array_text
from orthocycles.core import CycleSystem, GraphSpec, OrthogonalPair, complete
from orthocycles.heffter import search_3x3
from orthocycles.search import SearchBudget, search_pair


def run(*argv):
    return main(list(argv))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh interpreter, and these two modules (which a
    # bare interpreter does not load) once made up most of its import time.
    # importlib.resources, which imports inspect from Python 3.12 on, is not
    # loaded either: the catalog finds its data files next to its module.
    code = ("import sys\nheavy = {'dataclasses', 'inspect', 'importlib.resources'}\n"
            "before = heavy & set(sys.modules)\nimport orthocycles.cli\n"
            "print(sorted(heavy & set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(orthocycles.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_public_names_are_pinned():
    assert sorted(orthocycles.__all__) == [
        "CycleSystem", "GraphSpec", "NotAdmissibleError", "OrthogonalPair", "SearchBudget",
        "UnsatisfiableError", "VerificationReport", "admissible", "canonical_cycle",
        "complete", "construct_pair", "get_ingredient", "list_ingredients", "search_pair",
        "verify_decomposition", "verify_pair"]
    assert all(hasattr(orthocycles, name) for name in orthocycles.__all__)


def test_generate_writes_a_verifiable_design(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run("generate", "--length", "5", "--order", "31", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["systems"]["first"]) == 93
    assert len(doc["systems"]["second"]) == 93
    assert doc["meta"]["length"] == 5
    assert run("verify", str(out)) == 0
    assert "ok" in capsys.readouterr().out


def test_generate_to_stdout(capsys):
    assert run("generate", "--length", "6", "--order", "9") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["v"] == 9 and len(doc["systems"]["first"]) == 6


def test_generate_rejects_bad_orders(capsys):
    assert run("generate", "--length", "7", "--order", "7") == 3
    assert json.loads(capsys.readouterr().out)["reason"] == "unsatisfiable"
    assert run("generate", "--length", "6", "--order", "10") == 3
    assert json.loads(capsys.readouterr().out)["reason"] == "not admissible"
    assert run("generate", "--length", "5", "--order", "13") == 3


def test_out_in_a_missing_directory_is_a_write_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "d.json")
    for argv in (("generate", "--length", "5", "--order", "11"),
                 ("catalog", "dump", "l5_v11"),
                 ("search", "--length", "5", "--order", "11")):
        assert run(*argv, "--out", out) == 2, argv
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"cannot write {out}: "), argv


def test_verify_flags_a_tampered_file(tmp_path, capsys):
    out = tmp_path / "d.json"
    run("generate", "--length", "6", "--order", "13", "--out", str(out))
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc["systems"]["first"][0][0], doc["systems"]["first"][0][1] = (
        doc["systems"]["first"][0][1], doc["systems"]["first"][0][0])
    out.write_text(json.dumps(doc))
    assert run("verify", str(out)) == 1
    assert "edge" in capsys.readouterr().out


def test_verify_reports_a_repeated_vertex(tmp_path, capsys):
    out = tmp_path / "d.json"
    run("generate", "--length", "5", "--order", "11", "--out", str(out))
    doc = json.loads(out.read_text())
    cycle = doc["systems"]["second"][3]
    cycle[2] = cycle[0]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", str(out)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "second system, cycle 3: repeated vertex in cycle" in "\n".join(lines)
    assert all(line.startswith("second system, ") for line in lines)


def test_verify_rejects_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("verify", str(bad)) == 2
    bad.write_text(json.dumps({"format_version": 1, "spec": {"kind": "complete"}}))
    assert run("verify", str(bad)) == 2
    doc = json.loads(design_text(construct_pair(5, 11), 5))
    doc["meta"] = [["length", 5]]
    bad.write_text(json.dumps(doc))
    assert run("verify", str(bad)) == 2
    assert "cannot load" in capsys.readouterr().err
    for section, field, value in (("meta", "length", 5.9), ("meta", "length", "5"),
                                  ("meta", "length", True), ("spec", "v", 11.0)):
        doc = json.loads(design_text(construct_pair(5, 11), 5))
        doc[section][field] = value
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 2, (field, value)
        assert "cannot load" in capsys.readouterr().err
    # an unknown host kind is not read as multipartite
    doc = json.loads(design_text(construct_pair(5, 11), 5))
    doc["spec"]["kind"] = "bogus"
    doc["spec"]["parts"] = [[lab] for lab in doc["spec"]["labels"]]
    bad.write_text(json.dumps(doc))
    assert run("verify", str(bad)) == 2
    assert "cannot load" in capsys.readouterr().err
    # arrays stay arrays: a string is not read one character at a time
    def dumped(key):
        assert run("catalog", "dump", key) == 0
        return json.loads(capsys.readouterr().out)

    cases = []
    doc = dumped("l3_v7")
    doc["spec"]["labels"] = "0123456"
    for name in ("first", "second"):
        doc["systems"][name] = ["".join(c) for c in doc["systems"][name]]
    cases.append((doc, "labels is not a JSON array"))
    for name in ("first", "second"):
        doc = dumped("l3_v7")
        doc["systems"][name][1] = "".join(doc["systems"][name][1])
        cases.append((doc, f"systems.{name}[1] is not a JSON array"))
        doc = dumped("l3_v7")
        doc["systems"][name] = {str(i): c for i, c in enumerate(doc["systems"][name])}
        cases.append((doc, f"systems.{name} is not a JSON array"))
    for hole, reason in (("01234", "hole is not a JSON array"), (["0", "0"], "hole repeats")):
        doc = dumped("l5_K15mK5")
        doc["spec"]["hole"] = hole
        cases.append((doc, reason))
    doc = dumped("l6_K444")
    doc["spec"]["parts"] = "0123"
    cases.append((doc, "parts is not a JSON array"))
    doc = dumped("l6_K444")
    doc["spec"]["parts"][2] = "8"
    cases.append((doc, "parts[2] is not a JSON array"))
    for doc, reason in cases:
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 2, reason
        assert reason in capsys.readouterr().err
    assert run("verify", str(tmp_path / "absent.json")) == 2
    capsys.readouterr()


def test_verify_names_the_label_a_cycle_cannot_place(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for label, reason in (("zz", "label 'zz' not in graph"),
                          (5, "label 5 not in graph"),
                          (["0"], "label ['0'] not in graph")):
        doc = json.loads(design_text(construct_pair(5, 11), 5))
        doc["systems"]["second"][4][2] = label
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad)) == 2, label
        out, err = capsys.readouterr()
        assert out == "" and err == f"cannot load {bad}: {reason}\n"


_HOLE, _PART = ("spec", "hole", 0), ("spec", "parts", 1, 0)


@pytest.mark.parametrize("key,path,value,reason", [
    ("l5_K15mK5", _HOLE, "zz", "label 'zz' not in graph"),
    ("l5_K15mK5", _HOLE, 3, "label 3 not in graph"),
    ("l5_K15mK5", _HOLE, ["0"], "label ['0'] not in graph"),
    ("l5_K15mK5", _HOLE, {}, "label {} not in graph"),
    ("l6_K444", _PART, "zz", "label 'zz' not in graph"),
    ("l6_K444", _PART, 3, "label 3 not in graph"),
    ("l6_K444", _PART, ["0"], "label ['0'] not in graph"),
    ("l6_K444", _PART, {}, "label {} not in graph"),
    ("l5_K15mK5", ("spec", "labels", 1), "0", "duplicate vertex labels"),
    ("l5_K15mK5", ("spec",), [], "spec is not a JSON object (got list)"),
    ("l5_K15mK5", ("spec",), "x", "spec is not a JSON object (got str)"),
    ("l5_K15mK5", ("systems",), [], "systems is not a JSON object (got list)"),
    ("l5_K15mK5", ("systems",), 3, "systems is not a JSON object (got int)"),
    ("l5_K15mK5", ("spec", "labels", 1), ["x"], "labels[1] is not a JSON string or number"),
    ("l5_K15mK5", ("spec", "labels", 1), {"x": 1}, "labels[1] is not a JSON string or number"),
])
def test_verify_names_a_bad_host_label_or_non_object_field(tmp_path, capsys, key, path,
                                                          value, reason):
    doc = json.loads(design_text(get_ingredient(key), cycle_length(key)))
    at = doc
    for step in path[:-1]:
        at = at[step]
    at[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("verify", str(bad)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"cannot load {bad}: {reason}\n"


def test_verify_names_a_design_file_that_is_not_an_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert run("verify", str(bad)) == 2
    assert capsys.readouterr().err == (
        f"cannot load {bad}: the design file is not a JSON object (got list)\n")


def test_catalog_list_and_verify(capsys):
    assert run("catalog", "list") == 0
    out = capsys.readouterr().out
    assert "l3_v7" in out and "l9_K999" in out
    assert run("catalog", "verify") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24 and all(line.endswith("ok") for line in lines)


def test_catalog_dump_round_trips(tmp_path, capsys):
    out = tmp_path / "k444.json"
    assert run("catalog", "dump", "l6_K444", "--out", str(out)) == 0
    pair, length = load_design(out.read_text())
    assert length == 6 and len(pair.first.cycles) == 8
    assert design_text(pair, length) == out.read_text()
    assert run("verify", str(out)) == 0
    capsys.readouterr()


def test_catalog_dump_usage_errors(tmp_path, capsys):
    assert run("catalog", "dump") == 2
    capsys.readouterr()
    # a key is an entry name, never a path, even to a file that exists
    (tmp_path / "x.json").write_text("[1]")
    outside = os.path.relpath(tmp_path / "x", Path(orthocycles.__file__).parent / "data")
    for key in ("l4_v99", outside, "../data/l5_v11", "l5_v11.json", "l5_v11/", ""):
        assert run("catalog", "dump", key) == 2, key
        out, err = capsys.readouterr()
        assert out == "" and "no catalog entry" in err, key


def test_search_finds_and_writes_verified_pairs(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run("search", "--length", "8", "--order", "17", "--seed", "1",
               "--out", str(out)) == 0
    assert run("verify", str(out)) == 0
    capsys.readouterr()


def test_search_exit_codes(capsys):
    assert run("search", "--length", "5", "--order", "11", "--budget", "3") == 4
    assert json.loads(capsys.readouterr().out)["reason"] == "budget exhausted"
    assert run("search", "--length", "5", "--order", "12") == 3
    assert json.loads(capsys.readouterr().out)["reason"] == "not admissible"
    assert run("search", "--length", "7", "--order", "7", "--budget", "2000000") == 3
    refusal = json.loads(capsys.readouterr().out)
    assert refusal["reason"] == "unsatisfiable"
    assert "only 3 cycles" in refusal["detail"]  # the pigeonhole proof, no search
    for flag, value, field in (("--budget", "0", "max_nodes"), ("--seed", "-1", "seed")):
        assert run("search", "--length", "5", "--order", "11", flag, value) == 2
        out, err = capsys.readouterr()
        assert out == "" and field in err
    for l, v in ((0, 3), (1, 3), (2, 5)):
        assert run("search", "--length", str(l), "--order", str(v)) == 3
        assert json.loads(capsys.readouterr().out)["reason"] == "not admissible"
    assert run("search", "--length", "5", "--order", "-1") == 3
    refusal = json.loads(capsys.readouterr().out)
    assert refusal["reason"] == "not admissible" and "-1" in refusal["detail"]


def test_heffter_commands(tmp_path, capsys):
    good = tmp_path / "h.txt"
    good.write_text(array_text(next(search_3x3()).cells))
    assert run("heffter", "validate", str(good)) == 0
    assert "modulus 19" in capsys.readouterr().out
    assert run("heffter", "simple", str(good)) == 0
    out = capsys.readouterr().out
    assert out.count("row") == 3 and out.count("column") == 3

    bad = tmp_path / "bad.txt"
    text = good.read_text()
    first = text.split(",")[0]
    bad.write_text(text.replace(first, str(-int(first)), 1))
    assert run("heffter", "validate", str(bad)) == 1
    assert "sums to" in capsys.readouterr().out
    assert run("heffter", "simple", str(bad)) == 1

    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1,2\n3\n")
    assert run("heffter", "validate", str(ragged)) == 2
    capsys.readouterr()


def test_design_text_is_deterministic_and_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run("generate", "--length", "9", "--order", "55", "--out", str(a))
    construct_pair.cache_clear()
    run("generate", "--length", "9", "--order", "55", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    pair, length = load_design(a.read_text())
    assert design_text(pair, length).encode() == a.read_bytes()


# sha256 of the design files `generate` writes; a change here changes a
# published design, so it must be deliberate
GENERATED_SHA256 = {
    (5, 191): "bea1ffd7b682825cbb6723c9fd4b8bad08164800981300f6bce8d7f56ed1c95d",
    (6, 189): "776221cd172f0712d5d10732857a2d8a8f6865e7a87d9c067dc34c22ecd17aa9",
    (7, 183): "cef9bf3c366ce14fc994c56eb6e30f355617f35f364ac44f427c3f228fc957eb",
    (8, 193): "561a8f717fbe3ce60c6177652c2b3c473bde899ce1168dfd2ef026c0eb55a59e",
    (9, 199): "946b4b4bef7c3c094c04d3a743d52c005c89073d7734335e5582f30c8d6e77cf",
    (6, 45): "602e024df21a9d695d11331c3f407e79c8244d7f180db362fcd5bb746e6aab11",
    # holed quasigroup columns (r = l), the holed nine-level route, and the
    # four-level route on groups of two and of three
    (5, 35): "1e7900b938e14d270b7bdc97995f4611973dcbb3f4ca7d6b64dae393ca6ed9bb",
    (7, 49): "8bd093f17c873cfc47fd3e4ef5ffb1f09842b51216f32c7a67b0dc2cc5a9710a",
    (9, 63): "69fee1f1ebfd4094fca0a79d7c93b269d485bbf256ea0ba9654c02c2e809a094",
    (6, 25): "522f640ed85657e35b18dc7306bef9bbfaaf0d2a59a8b74c0cf1d32d1980f46d",
    (6, 37): "b49809210586caac90778df552befb61c4213f30be19a101bd067d52cdef414b",
    # the paste over an order-49 pair, and the nine-level route on type 4.2^3
    (6, 69): "0fce9bb433aaa3f6bfd1311b571d500cfba3f946cb3e605084f657931fe18609",
    (9, 91): "e4602388075cb81c6eb5c811ed676755a0c32edbe4ae606061301a27c7588a32",
}


@pytest.mark.parametrize("lv", GENERATED_SHA256, ids=lambda lv: f"l{lv[0]}v{lv[1]}")
def test_generate_output_is_pinned(tmp_path, lv):
    l, v = lv
    out = tmp_path / "d.json"
    assert run("generate", "--length", str(l), "--order", str(v), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATED_SHA256[lv]


# sha256 of every output the library publishes, concatenated: the three
# refusals and the design text of each other admissible order, l = 5..9 and
# v <= 201, then every catalog entry in list order
WHOLE_OUTPUT_SHA256 = "6725699bc891a91ad0a494aefc958039150b7211174474d8c41917ea6a07bf54"


def test_whole_output_is_pinned():
    digest = hashlib.sha256()
    for l in range(5, 10):
        for v in range(l, 202):
            if admissible(l, v):
                text = (no_pair_reason(l, v) if (l, v) in UNSATISFIABLE
                        else design_text(construct_pair(l, v), l))
                digest.update(text.encode())
    for key, _ in list_ingredients():
        digest.update(design_text(get_ingredient(key), cycle_length(key)).encode())
    assert digest.hexdigest() == WHOLE_OUTPUT_SHA256


# ------------------------------------------------------------ writer oracle

def reference_design_text(pair, length):
    """design_text as it was first written, one json.dumps of the whole
    document: the oracle every written design file must equal byte for byte."""
    spec = pair.spec
    g = {"kind": spec.kind, "v": spec.v, "labels": list(spec.labels)}
    if spec.kind == "complete_minus_hole":
        g["hole"] = [spec.labels[x] for x in sorted(spec.hole)]
    if spec.kind == "multipartite":
        g["parts"] = [[spec.labels[x] for x in part] for part in spec.parts]
    meta = {str(k): v for k, v in pair.first.meta}
    meta["length"] = length
    doc = {
        "format_version": 1,
        "spec": g,
        "systems": {
            name: [[spec.labels[x] for x in c] for c in system.cycles]
            for name, system in (("first", pair.first), ("second", pair.second))
        },
        "meta": meta,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def assert_writer_matches_reference(pair, length):
    assert design_text(pair, length) == reference_design_text(pair, length)


@pytest.mark.parametrize("key", [key for key, _ in list_ingredients()])
def test_writer_matches_reference_on_catalog_entries(key):
    assert_writer_matches_reference(get_ingredient(key), cycle_length(key))


@pytest.mark.parametrize("lv", GENERATED_SHA256, ids=lambda lv: f"l{lv[0]}v{lv[1]}")
def test_writer_matches_reference_on_pinned_orders(lv):
    assert_writer_matches_reference(construct_pair(*lv), lv[0])


def test_writer_matches_reference_on_a_searched_pair():
    result = search_pair(complete(17), 8, SearchBudget(seed=2))
    assert result.status == "found" and dict(result.pair.first.meta)["seed"] == 2
    assert_writer_matches_reference(result.pair, 8)
    # a search-supplied catalog entry carries its seed and budget
    pair = get_ingredient("l8_v17")
    assert {"seed", "budget"} <= dict(pair.first.meta).keys()
    assert_writer_matches_reference(pair, 8)


def test_writer_matches_reference_on_empty_systems():
    for spec in (complete(5), complete(0)):
        pair = OrthogonalPair(spec, CycleSystem(spec, []), CycleSystem(spec, []))
        assert_writer_matches_reference(pair, 5)


ODD_LABELS = ('a"b', "c\\d", "\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600", "tab\there",
              "nl\nx", "", "7")


def test_writer_matches_reference_on_escaped_and_non_ascii_labels():
    hosts = (complete(9, labels=ODD_LABELS),
             GraphSpec("complete_minus_hole", ODD_LABELS, hole=frozenset({0, 2, 5})),
             GraphSpec("multipartite", ODD_LABELS, parts=((0, 1, 2), (3, 4), (5, 6, 7, 8))))
    for spec in hosts:
        first = CycleSystem(spec, [(0, 3, 6), (1, 4, 7, 2)], meta=(("note", "\u00e9\"\\"),))
        second = CycleSystem(spec, [(8, 6, 1)])
        assert_writer_matches_reference(OrthogonalPair(spec, first, second), 3)


def test_writer_matches_reference_on_a_loaded_file(tmp_path):
    # a file may name its vertices by JSON numbers and hold an empty cycle;
    # what load_design reads back is written as the reference writes it
    doc = json.loads(design_text(get_ingredient("l3_v7"), 3))
    doc["spec"]["labels"] = [int(lab) * 10 for lab in doc["spec"]["labels"]]
    for name in ("first", "second"):
        doc["systems"][name] = [[int(lab) * 10 for lab in c] for c in doc["systems"][name]]
    doc["systems"]["second"].append([])
    pair, length = load_design(json.dumps(doc))
    assert_writer_matches_reference(pair, length)


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run("generate", "--length", "5")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("nonsense")
    assert exc.value.code == 2


# designs with l >= 5, where swapping two vertices of a cycle always changes
# its edge set; one of each host kind
MUTATION_BASES = (
    design_text(construct_pair(5, 11), 5),
    design_text(construct_pair(7, 15), 7),
    design_text(get_ingredient("l5_K15mK5"), cycle_length("l5_K15mK5")),
    design_text(get_ingredient("l6_K444"), cycle_length("l6_K444")),
)


@st.composite
def mutated_designs(draw):
    doc = json.loads(draw(st.sampled_from(MUTATION_BASES)))
    cycles = doc["systems"][draw(st.sampled_from(("first", "second")))]
    k = draw(st.integers(0, len(cycles) - 1))
    c = cycles[k]
    i, j = draw(st.lists(st.integers(0, len(c) - 1), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(("swap", "drop", "repeat", "duplicate")))
    if kind == "swap":
        c[i], c[j] = c[j], c[i]
    elif kind == "drop":
        del cycles[k]
    elif kind == "repeat":
        c[i] = c[j]
    else:
        cycles.insert(draw(st.integers(0, len(cycles))), list(c))
    return json.dumps(doc)


@given(mutated_designs())
@settings(max_examples=80, deadline=None)
def test_verify_reports_every_mutated_design(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run("verify", str(path))
    assert code == 1
    report = out.getvalue().splitlines()
    assert report and all(line.startswith(("first system", "second system")) for line in report)
