"""Reproducibility gate: recomputed answers against golden files.

* ``golden/crown_payloads.json``: the ``--out`` payloads of the six
  commands of the crown benchmark workload, rerun at seed 1;
* ``golden/sweep_records.json``: the records of ``sweep --max-order
  2048`` under ``default``, ``theorem --diameter`` and ``conjecture``
  (the first also rerun with two worker processes);
* ``golden/lattice_digests.json``: per catalog group of order <= 2048,
  and A5xA5 under ``caps(max_dense_order=8000)``, one digest of
  ``maximal_subgroups()`` and the incidence rows, order included;
* ``golden/verify_payloads.json``: the ``verify --out`` payload of
  every suite except ``primo`` (most of ``--lemma all``'s time; the
  crown file already holds one ``primo`` run) at seed 42.

The timing and provenance fields (``elapsed_ms``, ``timestamp``,
``tool_version``) and ``seed`` are stripped before the comparison.  A
change that alters an answer on purpose rewrites the golden file
(``python tests/test_golden.py`` writes the sweep, lattice and verify
files) and says which answers changed and why.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import rankgraph
from rankgraph.catalog import builtin_entry, default_catalog
from rankgraph.cli import cli_main
from rankgraph.config import caps
from rankgraph.group_structure import registry_for
from rankgraph.sweep import sweep
from rankgraph.verify import VERIFIERS

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "crown_payloads.json"
SWEEP_GOLDEN = GOLDEN_DIR / "sweep_records.json"
LATTICE_GOLDEN = GOLDEN_DIR / "lattice_digests.json"
VERIFY_GOLDEN = GOLDEN_DIR / "verify_payloads.json"
MAX_ORDER = 2048
# sweep policy key -> (policy, with_diameter)
SWEEPS = {"default": ("default", False),
          "theorem --diameter": ("theorem", True),
          "conjecture": ("conjecture", False)}
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
VERIFY_LEMMAS = [lemma for lemma in VERIFIERS if lemma != "primo"]


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


def assert_matches(want, got, what: str) -> None:
    diff = first_difference(want, got)
    assert diff is None, \
        "{}: first difference at {}: golden {!r}, got {!r}".format(
            what, *diff)


def sweep_records(key: str, jobs: int = 1) -> list:
    policy, with_diameter = SWEEPS[key]
    return [strip(json.loads(rec.to_json()))
            for rec in sweep(default_catalog(), max_order=MAX_ORDER,
                             policy=policy, with_diameter=with_diameter,
                             jobs=jobs)]


def lattice_digest(G) -> str:
    """The sha256 of G's maximal subgroups (members sorted, list order
    kept) and incidence rows."""
    reg = registry_for(G)
    answer = [[sorted(m) for m in reg.maximal_subgroups()],
              reg.incidence_rows()]
    G.release_dense_caches()
    return hashlib.sha256(json.dumps(answer).encode()).hexdigest()


def lattice_digests() -> dict:
    """``lattice_digest`` per catalog group of order <= MAX_ORDER, then
    of A5xA5 under raised caps (a lattice with many normal class
    representatives)."""
    out = {entry.id: lattice_digest(G) for entry in default_catalog()
           if (G := entry.group()).order <= MAX_ORDER}
    with caps(max_dense_order=8000):
        out["A5xA5"] = lattice_digest(builtin_entry("A5xA5").group())
    return out


@pytest.mark.parametrize("key", list(SWEEPS))
def test_sweep_records_match_golden(key):
    golden = json.loads(SWEEP_GOLDEN.read_text())
    assert sorted(golden) == sorted(SWEEPS)
    assert_matches(golden[key], sweep_records(key), f"sweep {key}")


def test_parallel_sweep_matches_golden():
    golden = json.loads(SWEEP_GOLDEN.read_text())
    assert_matches(golden["default"], sweep_records("default", jobs=2),
                   "sweep default --jobs 2")


def test_lattice_digests_match_golden():
    golden = json.loads(LATTICE_GOLDEN.read_text())
    assert_matches(golden, lattice_digests(), "lattice digests")


def test_crown_payloads_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in COMMANDS)
    out = tmp_path / "out.json"
    for argv in COMMANDS:
        key = " ".join(argv)
        assert cli_main(argv + ["--seed", "1", "--out", str(out)]) == 0, key
        assert_matches(golden[key], strip(json.loads(out.read_text())), key)


def verify_payload(lemma: str, out: Path) -> dict:
    cli_main(["verify", "--lemma", lemma, "--seed", "42", "--out", str(out)])
    return strip(json.loads(out.read_text()))


def test_verify_payloads_match_golden(tmp_path):
    golden = json.loads(VERIFY_GOLDEN.read_text())
    assert sorted(golden) == sorted(VERIFY_LEMMAS)
    for lemma in VERIFY_LEMMAS:
        assert_matches(golden[lemma],
                       verify_payload(lemma, tmp_path / "out.json"),
                       f"verify --lemma {lemma}")


def test_crown_workload_does_not_import_numpy_ma(tmp_path):
    # np.unique would import it; verify frat reaches perm_core.quotient
    argv = [cmd + ["--seed", "1", "--out", str(tmp_path / "out.json")]
            for cmd in COMMANDS + [["verify", "--lemma", "frat"]]]
    src = str(Path(rankgraph.__file__).parents[1])
    script = ("import json, sys\n"
              f"sys.path.insert(0, {src!r})\n"
              "from rankgraph.cli import cli_main\n"
              "codes = [cli_main(a) for a in json.loads(sys.argv[1])]\n"
              "print(codes, 'numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == f"{[0] * len(argv)} False"


def test_first_difference_names_the_field():
    want = {"a": 1, "w": [{"d": {"0": 20}}, {"d": {"0": 3}}]}
    assert first_difference(want, json.loads(json.dumps(want))) is None
    got = {"a": 1, "w": [{"d": {"0": 20}}, {"d": {"0": 4}}]}
    assert first_difference(want, got) == ("$.w[1].d.0", 3, 4)
    assert first_difference(want, {"a": 1})[0] == "$.w"
    assert first_difference({"a": 1}, {"a": True}) == ("$.a", 1, True)


if __name__ == "__main__":
    SWEEP_GOLDEN.write_text(json.dumps(
        {key: sweep_records(key) for key in SWEEPS}, indent=1,
        sort_keys=True) + "\n")
    LATTICE_GOLDEN.write_text(json.dumps(lattice_digests(), indent=1)
                              + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        VERIFY_GOLDEN.write_text(json.dumps(
            {lemma: verify_payload(lemma, Path(tmp) / "out.json")
             for lemma in VERIFY_LEMMAS}, indent=1, sort_keys=True) + "\n")
