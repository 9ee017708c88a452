"""Spans recorded from outside the package.

A Tracer keeps spans (name, start, end, parent, attrs) in memory.  install()
replaces each layer's public functions with timing wrappers at the module
attribute the *calling* module looks them up through (construct reaches
verify_pair as construct.verify_pair, so that is what gets wrapped).  Nothing
in the package changes.  summarise() turns spans into per-layer self times:
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, attrs=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name, on_result=None) -> None:
        """Replace module.attr by a wrapper recording one span per call.

        name is a span name or a function of the call's arguments giving one;
        on_result(args, result) gives the span's attrs.  An exception closes
        the span with attrs {"raised": <exception class>} and propagates.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx, {"raised": type(exc).__name__})
                raise
            tracer._close(idx)
            if on_result is not None:  # after the span ends, so it is not timed
                tracer.spans[idx][4] = on_result(args, result)
            return result

        setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _verify_attrs(args, report):
    pair, length = args[0], args[1]
    if hasattr(pair, "first"):
        cycles = len(pair.first.cycles) + len(pair.second.cycles)
    else:
        cycles = len(pair.cycles)
    return {"edges": length * cycles}


def _construct_attrs(args, pair):
    source = dict(pair.first.meta).get("source")
    return {"key": list(args[:2]), "source": source,
            "cycles": len(pair.first.cycles) + len(pair.second.cycles)}


def _search_name(args):
    spec, l = args[0], args[1]
    if spec.v == l:
        return "search.exhaustive"
    if spec.v == 2 * l + 1:
        return "search.cyclic"
    return "search.greedy"


def install(tracer: Tracer) -> None:
    """Wrap every cross-layer call site the workloads reach."""
    from orthocycles import auxiliary, catalog, cli, construct, heffter, search

    tracer.wrap(construct, "build_quasigroup_with_holes", "auxiliary.quasigroup")
    tracer.wrap(construct, "build_gdd", "auxiliary.gdd")
    tracer.wrap(auxiliary, "build_gdd", "auxiliary.gdd")  # via _qh_from_gdd
    for module in (construct, cli, catalog):
        tracer.wrap(module, "get_ingredient", "catalog.get_ingredient",
                    lambda args, _: {"key": args[0]})
    tracer.wrap(construct, "has_ingredient", "catalog.has_ingredient")
    tracer.wrap(catalog, "list_ingredients", "catalog.list_ingredients")
    tracer.wrap(catalog, "develop", "develop.develop")
    for module in (construct, cli):
        tracer.wrap(module, "construct_pair", "construct.construct_pair", _construct_attrs)
    for module in (construct, cli, search):
        tracer.wrap(module, "verify_pair", "verify.verify_pair", _verify_attrs)
    tracer.wrap(search, "verify_decomposition", "verify.verify_decomposition", _verify_attrs)
    tracer.wrap(search, "search_pair", _search_name,
                lambda args, res: {"nodes": res.nodes, "status": res.status})
    tracer.wrap(heffter, "check_simple", "heffter.check_simple")
    tracer.wrap(cli, "design_text", "cli.design_text")
    tracer.wrap(cli, "load_design", "cli.load_design")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def summarise(span_lists) -> dict:
    """Self time, call count and the list of attrs per span name, over
    several span lists (one per process)."""
    total: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "attrs": []})
    for spans in span_lists:
        for s, own in zip(spans, self_times(spans)):
            entry = total[s[0]]
            entry["self_s"] += own
            entry["calls"] += 1
            if s[4]:
                entry["attrs"].append(s[4])
    return dict(total)
