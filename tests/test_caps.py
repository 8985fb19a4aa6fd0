"""Resource caps are one process-wide value that every check site reads."""

import functools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from rankgraph import CapExceededError, config
from rankgraph.automorphisms import automorphism_group
from rankgraph.catalog import (
    alternating,
    builtin_entry,
    default_catalog,
    dihedral,
    load_catalog,
    save_catalog,
    symmetric,
)
from rankgraph.cli import cli_main
from rankgraph.config import Limits, caps
from rankgraph.crown_powers import MonolithicGroup, delu_fraction, omega_table
from rankgraph.graphs import delta_summary
from rankgraph.group_structure import (
    SubgroupRegistry,
    _prune_generators,
    gaschutz_lift,
    generates,
    min_rank,
    normal_subgroups,
)
from rankgraph import sweep as sweep_mod


def test_caps_nest_and_restore_on_error():
    with caps(max_elements=50) as outer:
        assert config.LIMITS == outer == Limits(max_elements=50)
        with pytest.raises(CapExceededError):
            with caps(max_dense_order=10):
                assert config.LIMITS == Limits(max_elements=50,
                                               max_dense_order=10)
                raise CapExceededError("stub")
        assert config.LIMITS == Limits(max_elements=50)
    assert config.LIMITS == Limits()
    with pytest.raises(TypeError):
        with caps(no_such_cap=1):
            pass
    assert config.LIMITS == Limits()


def test_dense_cap_reaches_delta_summary():
    with caps(max_dense_order=10), pytest.raises(CapExceededError,
                                                 match="dense-table cap 10"):
        delta_summary(symmetric(4).group(), 2)


def test_dense_cap_holds_for_a_cached_table():
    G = symmetric(4).group()
    assert delta_summary(G, 2).connected
    with caps(max_dense_order=10), pytest.raises(CapExceededError,
                                                 match="dense-table cap 10"):
        delta_summary(G, 2)
    assert delta_summary(G, 2).connected


def test_dense_cap_bounds_the_aut_search():
    # the search runs on the Cayley table, so |L| needs no cap of its own
    with caps(max_dense_order=50), pytest.raises(CapExceededError,
                                                 match="dense-table cap 50"):
        automorphism_group(alternating(5).group())


def test_search_cap_bounds_the_aut_search_cells():
    # A5 needs a validated candidate, whose map fills 60 cells, so a cap
    # of 0 trips the search before its closure check
    with caps(max_search_space=0), pytest.raises(
            CapExceededError,
            match=r"automorphism search of \d+ cells exceeds the cap 0"):
        automorphism_group(alternating(5).group())
    assert len(automorphism_group(alternating(5).group())) == 120


def test_omega_search_cap_comes_before_the_lattice(monkeypatch):
    # a fresh A5: the cap refuses |N|^2 = 3600 tuples before any maximal
    # subgroup is searched for
    L = MonolithicGroup(alternating(5).group())
    ct = L.ct()
    a = [ct.index[g.images] for g in L.group.generators]
    assert len(a) == 2
    calls = []
    extend = SubgroupRegistry._cyclic_extension

    def counted(reg):
        calls.append(reg.ct.n)
        return extend(reg)

    monkeypatch.setattr(SubgroupRegistry, "_cyclic_extension", counted)
    with caps(max_search_space=3599), pytest.raises(
            CapExceededError,
            match="search space of 3600 tuples exceeds the cap 3599"):
        omega_table(L, a)
    assert calls == []
    assert omega_table(L, a).orbit_count == 19
    assert calls


def test_density_search_cap():
    L = MonolithicGroup(alternating(5).group())
    l, b1 = min_rank(L.group).witness
    with caps(max_search_space=3599), pytest.raises(
            CapExceededError,
            match="search space of 3600 tuples exceeds the cap 3599"):
        delu_fraction(L, l, [b1, l])
    assert delu_fraction(L, l, [b1, l]) > 0


def test_lifting_search_cap():
    # S4 over V4, r = 2 corrections: 4^2 = 16 tuples
    G = symmetric(4).group()
    [V4] = [M for M in normal_subgroups(G).normals if M.order == 4]
    g = list(min_rank(G).witness)
    with caps(max_search_space=15), pytest.raises(
            CapExceededError,
            match="search space of 16 tuples exceeds the cap 15"):
        gaschutz_lift(G, V4, [], g)
    assert len(gaschutz_lift(G, V4, [], g)) == 2


def test_element_cap_holds_for_a_cached_list():
    G = symmetric(4).group()
    assert len(G.elements()) == 24
    with caps(max_elements=10), pytest.raises(CapExceededError):
        G.elements()
    assert len(G.elements()) == 24


# (subcommand, order of the first group it analyses above 10 elements)
CAPPED_RUNS = [
    (["analyze", "--group", "S4"], 24),
    (["analyze", "--group", "S4", "--d", "2"], 24),
    (["analyze", "--group", "S4", "--graph", "gamma", "--d", "2"], 24),
    (["export-dot", "--group", "S4"], 24),
    (["export-dot", "--group", "S4", "--d", "2"], 24),
    (["crown", "--L", "A5", "--t", "2", "--check", "delta"], 60),
    (["verify", "--lemma", "frat"], 16),  # Dih8
]


@pytest.mark.parametrize("argv, order", CAPPED_RUNS,
                         ids=[" ".join(argv) for argv, _ in CAPPED_RUNS])
def test_cap_elements_holds_on_every_subcommand(argv, order, tmp_path,
                                                capsys):
    # the analysed group trips the cap, not the catalog that names it
    argv = argv + ["--out", str(tmp_path / "out")]
    assert cli_main(argv + ["--cap-elements", "10"]) == 2
    assert f"resource cap: order {order} exceeds enumeration cap 10" in \
        capsys.readouterr().err
    assert config.LIMITS == Limits()


def test_catalogs_are_read_at_the_default_element_cap(tmp_path):
    path = tmp_path / "cat.json"
    with open(path, "w") as fh:
        save_catalog([alternating(5)], fh)
    with caps(max_elements=10):
        assert len(default_catalog()) == 48
        [entry] = load_catalog(path)
        assert config.LIMITS == Limits(max_elements=10)
        # the list cached while validating is not handed out over the cap
        with pytest.raises(CapExceededError):
            entry.group().elements()


def test_cap_elements_at_the_group_order_passes(capsys):
    assert cli_main(["analyze", "--group", "S4", "--d", "2",
                     "--cap-elements", "24"]) == 0
    assert "S4: |G| = 24" in capsys.readouterr().out
    assert config.LIMITS == Limits()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_cap_elements_below_one_is_a_usage_error(value, capsys):
    assert cli_main(["analyze", "--group", "S4", "--d", "2",
                     "--cap-elements", value]) == 2
    assert f"--cap-elements: must be at least 1, got {value}" in \
        capsys.readouterr().err
    assert config.LIMITS == Limits()


def _strip_timing(line: str) -> dict:
    rec = json.loads(line)
    del rec["elapsed_ms"], rec["timestamp"]
    for g in rec["graphs"]:
        del g["elapsed_ms"]
    return rec


def test_sweep_cap_elements_same_with_jobs(tmp_path, capsys):
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        assert cli_main(["sweep", "--max-order", "60", "--cap-elements", "30",
                         "--jobs", jobs, "--out", str(out)]) == 0
        runs.append([_strip_timing(line)
                     for line in out.read_text().splitlines()])
    assert runs[0] == runs[1]
    by_id = {rec["group_id"]: rec for rec in runs[0]}
    assert by_id["A5"]["error"] == \
        "cap exceeded: order 60 exceeds enumeration cap 30"
    assert by_id["S4"]["error"] is None and by_id["S4"]["graphs"]
    assert all((rec["error"] is not None) == (30 < rec["order"] <= 60)
               for rec in runs[0])
    assert config.LIMITS == Limits()


def test_sweep_workers_get_the_caps_under_spawn(monkeypatch):
    # a spawned worker imports the package afresh, so it sees the caps
    # only through the pool initializer
    # sweep() imports the pool from concurrent.futures when it needs one
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        functools.partial(ProcessPoolExecutor, mp_context=spawn))
    entries = [symmetric(4), alternating(4), dihedral(5)]
    with caps(max_elements=12):
        records = sweep_mod.sweep(entries, jobs=2)
    assert [rec.error for rec in records] == [
        "cap exceeded: order 24 exceeds enumeration cap 12", None, None]


# Above the dense cap, min_rank certifies d <= 2 from the pruned
# generators, or from a generating pair of the seeded random probe when
# three generators survive pruning; non-abelianness rules out d = 1.
@pytest.mark.parametrize("group_id,d,probed", [
    ("S4", 2, False), ("A5", 2, False), ("PGL(2,7)", 2, True),
    ("PSL(2,8)", 2, True), ("C12", 1, False)])
def test_min_rank_above_the_dense_cap(group_id, d, probed):
    G = builtin_entry(group_id).group()
    with caps(max_dense_order=4):
        cert = min_rank(G)
        pruned = tuple(_prune_generators(G))
        assert generates(G, list(cert.witness))
    assert cert.d == len(cert.witness) == d
    assert len(pruned) == (3 if probed else d)
    assert (cert.witness != pruned) == probed
    assert min_rank(G).d == d  # the dense path agrees


@pytest.mark.parametrize("group_id", ["E2^3", "Dih4xC2"])
def test_min_rank_above_the_dense_cap_needs_a_small_certificate(group_id):
    G = builtin_entry(group_id).group()
    with caps(max_dense_order=4), pytest.raises(
            CapExceededError, match="no small certificate"):
        min_rank(G)


def test_sweep_entry_above_the_dense_cap_keeps_d():
    with caps(max_dense_order=100):
        rec = sweep_mod.sweep_entry(builtin_entry("PGL(2,7)"))
    assert (rec.d_min, rec.graphs) == (2, [])
    assert rec.error == \
        "cap exceeded: order 336 exceeds dense-table cap 100"
    assert sweep_mod.cap_skipped([rec]) == ["PGL(2,7)"]
    assert sweep_mod.unexpected_errors([rec]) == []
