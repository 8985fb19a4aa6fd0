"""Call tracing for the benchmark, installed from outside the package.

The tracer replaces public entry points of the ``rankgraph`` modules with
timing wrappers and rebinds every ``from .x import y`` alias that points
at the original, so calls through any module reach the wrapper.  Each
wrapper pushes a frame on one stack; a call's self time is its duration
minus the time of the wrapped calls nested in it, which also handles
recursion (``dist_to_full``).

Two kinds of target:

* ``span``: coarse calls (one per CLI job, per sweep entry, per Aut
  search ...).  Each call is kept as a span record (name, start, end,
  parent span) in memory and written out when the run ends.
* ``hot``: calls made thousands of times (closures, chain builds,
  ``crown_generates``).  They are aggregated per enclosing span as
  (calls, total, self) and never produce a record of their own.

Per-element helpers such as ``pair_join`` and ``EdgeOracle.edge`` are
never wrapped: their time stays in the self time of their caller.

A target missing from the program (renamed or removed on a later
commit) is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, metric name, kind, extras).  ``extras`` maps the
# call's (args, result) to counters added under the metric name.


def _cells(args, result):
    n = args[0].n
    return {"cells": n * n}


def _delta_pairs(args, result):
    n = args[0].order
    return {"pairs": n * (n - 1) // 2, "edges": result.n_edges}


def _tuples(args, result):
    return {"tuples": len(args[1])}


def _omega(args, result):
    return {"omega": len(result.tuples),
            "space": result.mono.socle.order ** len(result.a)}


TARGETS = [
    ("rankgraph.perm_core", "CayleyTable.__init__",
     "perm_core.CayleyTable", "span", _cells),
    ("rankgraph.perm_core", "StabilizerChain.__init__",
     "perm_core.StabilizerChain", "hot", None),
    ("rankgraph.perm_core", "StabilizerChain.add_generator",
     "perm_core.StabilizerChain.add_generator", "hot", None),
    ("rankgraph.group_structure", "min_rank",
     "group_structure.min_rank", "span", None),
    ("rankgraph.group_structure", "SubgroupRegistry.close",
     "group_structure.close", "hot", None),
    ("rankgraph.group_structure", "SubgroupRegistry.join_with_element",
     "group_structure.join", "hot", None),
    ("rankgraph.group_structure", "SubgroupRegistry.dist_to_full",
     "group_structure.dist_to_full", "hot", None),
    ("rankgraph.graphs", "delta_summary",
     "graphs.delta_summary", "span", _delta_pairs),
    ("rankgraph.automorphisms", "automorphism_group",
     "automorphisms.automorphism_group", "span", None),
    ("rankgraph.automorphisms", "x_subgroup",
     "automorphisms.x_subgroup", "span", None),
    ("rankgraph.automorphisms", "orbits_on_tuples",
     "automorphisms.orbits_on_tuples", "span", _tuples),
    ("rankgraph.crown_powers", "omega_table",
     "crown_powers.omega_table", "span", _omega),
    ("rankgraph.crown_powers", "build_crown_power",
     "crown_powers.build_crown_power", "span", None),
    ("rankgraph.crown_powers", "crown_generates",
     "crown_powers.crown_generates", "hot", None),
    ("rankgraph.crown_powers", "weak_connectivity",
     "crown_powers.weak_connectivity", "span", None),
    ("rankgraph.crown_powers", "weak_connectivity_sampled",
     "crown_powers.weak_connectivity_sampled", "span", None),
    ("rankgraph.crown_powers", "cln_witness",
     "crown_powers.cln_witness", "hot", None),
    ("rankgraph.sweep", "sweep_entry", "sweep.sweep_entry", "span", None),
    ("rankgraph.verify", "run_verifier", "verify.run_verifier", "span", None),
    ("rankgraph.cli", "cli_main", "cli.cli_main", "span", None),
]

ROOT = "<root>"


class Tracer:
    """Collects spans and per-parent aggregates for the wrapped calls."""

    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        # one frame per active wrapped call: [time of nested wrapped calls]
        self.stack = [[0.0]]
        self.spans = []  # [name, start, end, parent span index]
        self.span_stack = [None]
        self.totals = {}  # metric -> {"calls", "self_s", counters...}
        self.by_parent = {}  # (parent span name, metric) -> [calls, total_s, self_s]
        self.absent = []
        self.extras_failed = set()

    def _wrap(self, fn, name, kind, extras):
        clock = self.clock
        stack = self.stack
        span_stack = self.span_stack
        spans = self.spans
        totals = self.totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        by_parent = self.by_parent
        is_span = kind == "span"
        tracer = self

        def wrapper(*args, **kwargs):
            parent_span = span_stack[-1]
            if is_span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent_span])
                span_stack.append(idx)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stack[-1][0] += dur
                self_s = dur - frame[0]
                totals["calls"] += 1
                totals["self_s"] += self_s
                if is_span:
                    span_stack.pop()
                    spans[idx][1] = start - tracer.t0
                    spans[idx][2] = end - tracer.t0
                else:
                    key = (ROOT if parent_span is None
                           else spans[parent_span][0], name)
                    agg = by_parent.get(key)
                    if agg is None:
                        agg = by_parent[key] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += self_s
            if extras is not None and name not in tracer.extras_failed:
                try:
                    for k, v in extras(args, result).items():
                        totals[k] = totals.get(k, 0) + v
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.extras_failed.add(name)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        for modname, attr, name, kind, extras in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(fn, name, kind, extras)
            setattr(owner, leaf, wrapper)
            if not path:
                self._rebind_aliases(fn, wrapper)

    @staticmethod
    def _rebind_aliases(fn, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rankgraph"
                                   or modname.startswith("rankgraph.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

    def report(self) -> dict:
        """Aggregates, per-parent breakdown and spans, JSON-ready."""
        return {
            "totals": self.totals,
            "absent": sorted(self.absent),
            "extras_failed": sorted(self.extras_failed),
            "by_parent": [
                {"parent": p, "name": n, "calls": c, "total_s": t,
                 "self_s": s}
                for (p, n), (c, t, s) in sorted(self.by_parent.items())],
            "spans": self.spans,
        }
