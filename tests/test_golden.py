"""Reproducibility gate: the ``--out`` payloads of the six commands of
the crown benchmark workload, rerun at seed 1, against the golden file
``golden/crown_payloads.json``.

The timing and provenance fields (``elapsed_ms``, ``timestamp``,
``tool_version``) and ``seed`` are stripped before the comparison.  A
change that alters an answer on purpose rewrites the golden file and
says which answers changed and why.
"""

import json
from pathlib import Path

from rankgraph.cli import cli_main

GOLDEN = Path(__file__).parent / "golden" / "crown_payloads.json"
STRIPPED = {"elapsed_ms", "timestamp", "tool_version", "seed"}
COMMANDS = [
    ["crown", "--L", "A5", "--t", "2", "--check", "delta",
     "--verify-witness"],
    ["crown", "--L", "PSL(2,7)", "--t", "2", "--check", "delta"],
    ["crown", "--L", "PSL(2,7)", "--t", "3", "--eta", "1",
     "--check", "weak-conn"],
    ["crown", "--L", "A5", "--t", "2", "--eta", "1", "--check",
     "weak-conn", "--mode", "sampled", "--samples", "20"],
    ["verify", "--lemma", "primo", "--params",
     '{"random_samples":100,"exhaustive_slice":500}'],
    ["verify", "--lemma", "cln", "--params", '{"group_ids":["A5","S5"]}'],
]


def strip(value):
    """The payload without the stripped fields, at any depth."""
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in STRIPPED}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def first_difference(want, got, path="$"):
    """The path and both values of the first field where ``got``
    differs from ``want``, in the order of ``want``'s keys; None if
    they are equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in want or key not in got:
                return (f"{path}.{key}", want.get(key, "<missing>"),
                        got.get(key, "<missing>"))
            found = first_difference(want[key], got[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for k, (w, g) in enumerate(zip(want, got)):
            found = first_difference(w, g, f"{path}[{k}]")
            if found:
                return found
        if len(want) != len(got):
            return f"{path} (length)", len(want), len(got)
        return None
    if type(want) is not type(got) or want != got:
        return path, want, got
    return None


def test_crown_payloads_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in COMMANDS)
    out = tmp_path / "out.json"
    for argv in COMMANDS:
        key = " ".join(argv)
        assert cli_main(argv + ["--seed", "1", "--out", str(out)]) == 0, key
        diff = first_difference(golden[key], strip(json.loads(
            out.read_text())))
        assert diff is None, \
            "{}: first difference at {}: golden {!r}, got {!r}".format(
                key, *diff)


def test_first_difference_names_the_field():
    want = {"a": 1, "w": [{"d": {"0": 20}}, {"d": {"0": 3}}]}
    assert first_difference(want, json.loads(json.dumps(want))) is None
    got = {"a": 1, "w": [{"d": {"0": 20}}, {"d": {"0": 4}}]}
    assert first_difference(want, got) == ("$.w[1].d.0", 3, 4)
    assert first_difference(want, {"a": 1})[0] == "$.w"
    assert first_difference({"a": 1}, {"a": True}) == ("$.a", 1, True)
