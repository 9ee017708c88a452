"""The four bulk entry points (construct_pair, verify_pair, load_design and
the command line's main) run with the cyclic garbage collector paused, and
leave it as they found it, whether they return, raise or exit."""

import gc

import pytest

from orthocycles import cli, construct
from orthocycles.cli import design_text, load_design
from orthocycles.construct import NotAdmissibleError, UnsatisfiableError, construct_pair
from orthocycles.verify import verify_pair


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    pair = construct_pair(6, 193)
    text = design_text(pair, 6)
    path = tmp_path_factory.mktemp("design") / "l6_v193.json"
    path.write_text(text)
    return pair, text, str(path)


CALLS = {
    "construct_pair": lambda d: construct_pair(6, 193),
    "verify_pair": lambda d: verify_pair(d[0], 6),
    "load_design": lambda d: load_design(d[1]),
    "main verify": lambda d: cli.main(["verify", d[2]]),
}


def _refused(call, error):
    def run(d):
        with pytest.raises(error):
            call(d)
    return run


def _missing_file(d):
    assert cli.main(["verify", d[2] + ".missing"]) == 2


# each ends in a raise, an exit or exit code 2 from inside the paused call
FAILING = {
    "unsatisfiable": _refused(lambda d: construct_pair(5, 5), UnsatisfiableError),
    "not admissible": _refused(lambda d: construct_pair(5, 12), NotAdmissibleError),
    "bad json": _refused(lambda d: load_design("{"), ValueError),
    "usage": _refused(lambda d: cli.main(["generate"]), SystemExit),
    "missing file": _missing_file,
}
EVERY = {**CALLS, **FAILING}


@pytest.mark.parametrize("name", CALLS)
def test_no_collection_starts_during_a_bulk_call(name, design):
    starts = []

    def probe(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()  # so no collection is already due when the call begins
    gc.callbacks.append(probe)
    try:
        CALLS[name](design)
    finally:
        gc.callbacks.remove(probe)
    assert starts == []


@pytest.mark.parametrize("name", EVERY)
def test_an_enabled_collector_is_enabled_again_after_the_call(name, design, capsys):
    assert gc.isenabled()
    EVERY[name](design)
    assert gc.isenabled()


@pytest.mark.parametrize("name", EVERY)
def test_a_disabled_collector_stays_disabled_after_the_call(name, design, capsys):
    gc.disable()
    try:
        EVERY[name](design)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_calls_stay_paused(monkeypatch):
    enabled = []
    monkeypatch.setattr(construct, "verify_pair",
                        lambda pair, l: enabled.append(gc.isenabled()) or verify_pair(pair, l))
    construct._ingredient.cache_clear()
    try:
        construct_pair(5, 31)
    finally:
        monkeypatch.undo()
        construct._ingredient.cache_clear()
    assert enabled == [False]
    assert gc.isenabled()
