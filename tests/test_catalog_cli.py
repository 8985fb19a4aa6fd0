import errno
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from rankgraph import CapExceededError, Permutation, PreconditionError
from rankgraph import catalog as catalog_mod
from rankgraph.catalog import (
    CatalogError,
    CatalogEntry,
    alternating,
    builtin_entry,
    crown_power_entry,
    cyclic,
    default_catalog,
    dihedral,
    direct_product,
    elementary_abelian,
    find_entry,
    load_catalog,
    pgl2,
    psl2,
    save_catalog,
    symmetric,
    validate_entry,
)
from rankgraph.config import caps
from rankgraph.group_structure import is_simple
from rankgraph.sweep import load_records, sweep, sweep_entry
from rankgraph.cli import cli_main
from rankgraph import cli as cli_mod
from rankgraph import verify as verify_mod

from oracles import isomorphism


def write_catalog(entries, path):
    with open(path, "w") as fh:
        save_catalog(entries, fh)


class TestBuilders:
    def test_cyclic_trivial(self):
        assert cyclic(1).group().order == 1

    def test_out_of_range(self):
        with pytest.raises(CatalogError):
            dihedral(2)
        with pytest.raises(CatalogError):
            psl2(6)
        with pytest.raises(CatalogError):
            pgl2(8)
        with pytest.raises(CatalogError):
            elementary_abelian(4, 2)

    def test_psl25_matches_a5(self):
        G = psl2(5).group()
        A5 = alternating(5).group()
        assert G.order == 60 and is_simple(G)
        assert isomorphism(G, A5).isomorphic is True

    def test_psl2_orders(self):
        expected = {4: 60, 5: 60, 7: 168, 8: 504, 9: 360, 11: 660, 13: 1092}
        for q, order in expected.items():
            assert psl2(q).group().order == order

    def test_pgl2_orders(self):
        assert pgl2(7).group().order == 336
        assert pgl2(9).group().order == 720

    def test_direct_product_order(self):
        entry = direct_product(alternating(5), alternating(5))
        assert entry.group().order == 3600

    def test_crown_power_entry(self):
        entry = crown_power_entry(symmetric(5), 2)
        assert entry.group().order == 7200

    def test_default_catalog_validates(self):
        for entry in default_catalog():
            validate_entry(entry)

    def test_validation_releases_the_table(self):
        # the tag checks build the dense table; validation drops it
        entry = builtin_entry("S5")
        ct = entry.group().cayley_table()
        validate_entry(entry)
        assert entry.group().cayley_table() is not ct


class TestCatalogIO:
    def test_empty_catalog(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text('{"entries": []}')
        assert load_catalog(path) == []

    def test_round_trip(self, tmp_path):
        entries = [cyclic(6), symmetric(4), psl2(7)]
        path = tmp_path / "cat.json"
        write_catalog(entries, path)
        loaded = load_catalog(path)
        assert [e.id for e in loaded] == [e.id for e in entries]
        assert [e.generators for e in loaded] == \
            [[list(g) for g in e.generators] for e in entries]

    def test_non_bijective_images_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"entries": [
            {"id": "broken", "degree": 3, "generators": [[0, 0, 1]]}]}))
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert "broken" in str(err.value)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text('{"entries": [\n  {"id": }\n]}')
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert "line 2" in str(err.value)

    def test_bad_tag_rejected(self):
        entry = CatalogEntry("S4-oops", 4,
                             symmetric(4).generators, tags=["simple"])
        with pytest.raises(CatalogError):
            validate_entry(entry)

    @pytest.mark.parametrize("tag", ["simple", "monolithic", "almost-simple"])
    def test_lattice_tag_above_dense_cap_is_a_cap_error(self, tag):
        # these tags are checked on the normal lattice, which needs the
        # dense table
        entry = CatalogEntry("A5-tagged", 5, alternating(5).generators,
                             tags=[tag])
        with caps(max_dense_order=50), pytest.raises(CapExceededError):
            validate_entry(entry)

    def test_lattice_tag_above_dense_cap_exits_2(self, tmp_path):
        raw = dict(builtin_entry("A5xA5").to_dict(), tags=["monolithic"])
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"entries": [raw]}))
        assert cli_main(["sweep", "--catalog", str(path), "--max-order",
                         "10000", "--out", str(tmp_path / "out.jsonl")]) == 2

    def test_automorphisms_rejected(self, tmp_path):
        # Aut(L) is always computed, so a supplied field is refused, even
        # a correct map (conjugation by (0 1) on A4) or an empty list
        a4 = alternating(4)
        swap = Permutation.from_cycles(4, [0, 1])
        good = [list((swap.inverse() * Permutation(g) * swap).images)
                for g in a4.generators]
        for maps in ([good], []):
            raw = dict(a4.to_dict(), automorphisms=maps)
            path = tmp_path / "aut.json"
            path.write_text(json.dumps({"entries": [raw]}))
            with pytest.raises(CatalogError, match="always computed"):
                load_catalog(path)
        assert "automorphisms" not in a4.to_dict()

    def test_unreadable_file_names_its_path(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(CatalogError,
                           match=f"{re.escape(str(path))}: cannot read"):
            load_catalog(path)
        with pytest.raises(CatalogError, match="cannot read"):
            load_catalog(tmp_path)  # a directory

    @pytest.mark.parametrize("text", ['{"foo": 1}', "5", "null",
                                      '{"entries": null}'],
                             ids=["no-entries", "number", "null",
                                  "null-entries"])
    def test_malformed_top_level_exits_2(self, tmp_path, capsys, text):
        # a traceback and exit 1 would read as a theorem violation
        path = tmp_path / "shape.json"
        path.write_text(text)
        with pytest.raises(CatalogError, match=re.escape(str(path))):
            load_catalog(path)
        assert cli_main(["catalog", "--catalog", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_repeated_id_names_both_entries(self, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"entries": [
            dict(symmetric(3).to_dict(), id="X"), cyclic(4).to_dict(),
            dict(symmetric(4).to_dict(), id="X")]}))
        with pytest.raises(CatalogError,
                           match="entry #2: id 'X' repeats entry #0"):
            load_catalog(path)
        assert cli_main(["analyze", "--catalog", str(path), "--group", "X",
                         "--d", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("ident", [5, "", None, ["S3"]],
                             ids=["number", "empty", "null", "list"])
    def test_id_must_be_a_non_empty_string(self, tmp_path, capsys, ident):
        # a number id would be listed, miss every --group and reach the
        # sweep records as a number
        path = tmp_path / "ids.json"
        path.write_text(json.dumps([{"id": ident, "degree": 3, "generators":
                                     [[1, 2, 0], [1, 0, 2]]}]))
        with pytest.raises(CatalogError, match=re.escape(
                f"entry #0: id {ident!r} is not a non-empty string")):
            load_catalog(path)
        for argv in (["catalog"], ["analyze", "--group", str(ident)],
                     ["sweep", "--out", str(tmp_path / "out.jsonl")]):
            assert cli_main(argv + ["--catalog", str(path)]) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: "), argv
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("group_id", ["S5", "PGL(2,7)", "PGL(2,9)",
                                          "S6"])
    def test_almost_simple_tag_holds(self, tmp_path, group_id):
        raw = dict(builtin_entry(group_id).to_dict(), tags=["almost-simple"])
        path = tmp_path / "as.json"
        path.write_text(json.dumps({"entries": [raw]}))
        [entry] = load_catalog(path)
        assert entry.id == group_id

    @pytest.mark.parametrize("entry", [
        symmetric(4), direct_product(symmetric(3), symmetric(3)),
        direct_product(alternating(5), cyclic(2))],
        ids=["S4", "S3xS3", "A5xC2"])
    def test_almost_simple_tag_needs_a_simple_socle(self, tmp_path, entry):
        # S4 and S3xS3 have an abelian socle, A5xC2 the socle A5xC2
        raw = dict(entry.to_dict(), tags=["almost-simple"])
        path = tmp_path / "as.json"
        path.write_text(json.dumps({"entries": [raw]}))
        with pytest.raises(CatalogError,
                           match="socle is not non-abelian simple"):
            load_catalog(path)


def strip_timing(rec):
    """A sweep record as a dict without its timing fields."""
    d = json.loads(rec.to_json())
    d.pop("timestamp")
    d.pop("elapsed_ms")
    for g in d["graphs"]:
        g.pop("elapsed_ms")
    return d


class TestSweep:
    def test_empty_catalog(self):
        assert sweep([], max_order=100) == []

    def test_cyclic_skipped(self):
        recs = sweep([cyclic(6)], max_order=100)
        assert recs[0].skipped == "cyclic"
        assert recs[0].graphs == []

    def test_records_round_trip(self, tmp_path):
        recs = sweep([symmetric(4), alternating(4)], max_order=100)
        path = tmp_path / "out.jsonl"
        path.write_text("".join(r.to_json() + "\n" for r in recs))
        loaded = load_records(path)
        assert [r.to_json() for r in loaded] == [r.to_json() for r in recs]

    def test_determinism_modulo_timing(self):
        entries = [symmetric(4), dihedral(5), elementary_abelian(2, 2)]
        a = [strip_timing(r) for r in sweep(entries, max_order=100)]
        b = [strip_timing(r) for r in sweep(entries, max_order=100)]
        assert a == b

    def test_error_isolation(self):
        # an entry over every cap records an error; the sweep continues
        big = crown_power_entry(symmetric(5), 2)
        with caps(max_dense_order=2048):
            recs = sweep([big, symmetric(4)], max_order=10000)
        assert recs[0].error is not None
        assert recs[1].error is None and recs[1].graphs

    def test_max_order_skip(self):
        recs = sweep([symmetric(5)], max_order=100)
        assert recs[0].skipped == "over max-order"

    def test_resume_skips_recorded(self, tmp_path):
        entries = [symmetric(4), alternating(4)]
        recs = sweep(entries, max_order=100, skip_ids={"S4"})
        assert [r.group_id for r in recs] == ["A4"]

    def test_parallel_matches_serial(self):
        entries = [symmetric(4), alternating(4), dihedral(6)]

        serial = [strip_timing(r)
                  for r in sweep(entries, max_order=100, jobs=1)]
        parallel = [strip_timing(r)
                    for r in sweep(entries, max_order=100, jobs=2)]
        assert serial == parallel

    def test_conjecture_policy(self):
        # d = 2 for 2-generated groups only; nothing for E2^3 (d = 3)
        entries = [find_entry(default_catalog(), gid)
                   for gid in ("S4", "E2^3", "A5", "C6")]
        serial = sweep(entries, policy="conjecture")
        s4, e23, a5, c6 = serial
        for rec in (s4, a5):
            assert [g.d for g in rec.graphs] == [2]
            assert rec.graphs[0].connected and rec.critical == []
        assert (e23.d_min, e23.graphs, e23.critical) == (3, [], [])
        assert (c6.skipped, c6.graphs) == ("cyclic", [])
        assert [r.error for r in serial] == [None] * 4
        assert [strip_timing(r) for r in sweep(entries, policy="conjecture",
                                               jobs=2)] == \
            [strip_timing(r) for r in serial]

    def test_pool_is_no_larger_than_the_entries(self, monkeypatch):
        # the pool forks all its workers up front; an in-process stand-in
        # records the size asked for, so no process is started here
        asked = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def map(self, fn, args):
                return map(fn, args)

            def shutdown(self, cancel_futures=False):
                pass

        entries = [symmetric(4), alternating(4), dihedral(6)]
        serial = [strip_timing(r)
                  for r in sweep(entries, max_order=100, jobs=1)]
        # sweep() imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            InProcessPool)
        pooled = [strip_timing(r)
                  for r in sweep(entries, max_order=100, jobs=10_000)]
        assert asked == [3]
        assert pooled == serial

    def test_jobs_in_a_fresh_process(self, tmp_path):
        # each run imports the package afresh, as a user's does, so the
        # pool is imported cold; one job must not import it at all
        src = str(Path(cli_mod.__file__).parents[1])
        script = ("import sys\n"
                  f"sys.path.insert(0, {src!r})\n"
                  "from rankgraph.cli import cli_main\n"
                  "code = cli_main(sys.argv[1:])\n"
                  "print('multiprocessing' in sys.modules)\n"
                  "sys.exit(code)\n")
        records, pool_loaded = [], []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.jsonl"
            done = subprocess.run(
                [sys.executable, "-c", script, "sweep", "--max-order", "24",
                 "--jobs", jobs, "--out", str(out)],
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            pool_loaded.append(done.stdout.splitlines()[-1])
            records.append([strip_timing(r) for r in load_records(out)])
        assert pool_loaded == ["False", "True"]
        assert records[0] and records[0] == records[1]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_must_be_a_positive_integer(self, jobs, capsys):
        assert cli_main(["sweep", "--max-order", "10", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_entry_releases_dense_caches(self):
        def verdicts(rec):
            return [(g.d, g.n_edges, g.n_components) for g in rec.graphs]

        entry = symmetric(4)
        ct = entry.group().cayley_table()
        first = sweep_entry(entry)
        assert entry.group().cayley_table() is not ct  # rebuilt on demand
        second = sweep_entry(entry)
        assert verdicts(first) == verdicts(second) and first.graphs

    def test_entry_frees_its_table_at_once(self, gc_disabled):
        entry = symmetric(4)
        table = weakref.ref(entry.group().cayley_table())
        assert sweep_entry(entry).graphs
        assert table() is None  # no cycle waits for the GC

    def test_diameter_flag_changes_only_the_diameter(self):
        entries = [e for e in default_catalog() if e.group().order <= 120]

        def split(rec):
            d = json.loads(rec.to_json())
            d.pop("timestamp")
            d.pop("elapsed_ms")
            for g in d["graphs"]:
                g.pop("elapsed_ms")
            return d, [g.pop("diameter") for g in d["graphs"]]

        plain = [split(r) for r in sweep(entries)]
        diam = [split(r) for r in sweep(entries, with_diameter=True)]
        assert [d for d, _ in plain] == [d for d, _ in diam]
        assert all(x is None for _, ds in plain for x in ds)
        diameters = [x for _, ds in diam for x in ds]
        assert diameters and all(isinstance(x, int) for x in diameters)

    def test_connected_verdict_means_one_component(self):
        recs = sweep([symmetric(4)], max_order=100)
        for g in recs[0].graphs:
            assert g.connected == (g.n_components <= 1)


class TestCLI:
    def test_analyze_a5_diameter(self, capsys):
        rc = cli_main(["analyze", "--group", "A5", "--graph", "rank",
                       "--d", "2", "--diameter"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "diameter 2" in out

    def test_gamma_without_d_uses_d_of_g(self, tmp_path, capsys):
        assert cli_main(["export-dot", "--group", "S4", "--graph", "gamma",
                         "--out", str(tmp_path / "g.dot")]) == 0
        wrote = re.search(r"wrote (\d+) vertices / (\d+) edges",
                          capsys.readouterr().out)
        assert cli_main(["analyze", "--group", "S4", "--graph", "gamma"]) == 0
        out = capsys.readouterr().out
        assert "graph d=2:" in out
        assert f"{wrote[1]} vertices, {wrote[2]} edges" in out

    def test_usage_error_exit_2(self):
        assert cli_main(["analyze", "--group", "A5", "--no-such-flag"]) == 2

    # each flag a subcommand does not read is refused, not ignored
    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--lemma", "frat"], ["--catalog", "{tmp}/none.json"]),
        (["analyze", "--group", "S3", "--d", "2"], ["--seed", "1"]),
        (["export-dot", "--group", "S3", "--d", "2",
          "--out", "{tmp}/x.dot"], ["--seed", "1"]),
        (["catalog"], ["--seed", "1"]),
        (["catalog", "--max-order", "30"], ["--cap-elements", "1"])],
        ids=["verify-catalog", "analyze-seed", "export-dot-seed",
             "catalog-seed", "catalog-cap-elements"])
    def test_flag_the_command_does_not_read_is_a_usage_error(
            self, tmp_path, capsys, argv, flag):
        argv, flag = ([a.replace("{tmp}", str(tmp_path)) for a in args]
                      for args in (argv, flag))
        assert cli_main(argv + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert list(tmp_path.iterdir()) == []

    # each subcommand's --out help says what it writes there
    @pytest.mark.parametrize("command, says", [
        ("analyze", "as one JSON object"),
        ("sweep", "as JSON lines, which --resume reads"),
        ("crown", "as one JSON object"),
        ("verify", "as JSON (a list for --lemma all)"),
        ("export-dot", "in DOT"),
        ("catalog", "as catalog JSON")])
    def test_out_help_names_what_is_written(self, capsys, command, says):
        assert cli_main([command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(k for k, line in enumerate(lines)
                     if line.lstrip().startswith("--out OUT"))
        text = [lines[start].split("--out OUT", 1)[1]]
        for line in lines[start + 1:]:
            if not line.strip() or line.lstrip().startswith("-"):
                break
            text.append(line)
        text = " ".join(" ".join(text).split())
        assert says in text, text
        if command == "export-dot":
            assert "JSON" not in text

    def test_unknown_group_exit_2(self):
        assert cli_main(["analyze", "--group", "Nope", "--d", "2"]) == 2

    def test_verify_pass_exit_0(self, tmp_path):
        out = tmp_path / "frat.json"
        rc = cli_main(["verify", "--lemma", "frat", "--seed", "42",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True and payload["seed"] == 42

    def test_verify_failure_exit_1(self, monkeypatch):
        from rankgraph.verify import VerifyReport

        def failing(seed=42):
            return VerifyReport("stub", False, 1, [{"err": "boom"}])

        monkeypatch.setitem(verify_mod.VERIFIERS, "stub", failing)
        assert cli_main(["verify", "--lemma", "stub"]) == 1

    @pytest.mark.parametrize("params", ['{"random_sample": 1}', '[1]'],
                             ids=["unknown-key", "not-an-object"])
    def test_verify_bad_params_exit_2(self, params, capsys):
        assert cli_main(["verify", "--lemma", "primo",
                         "--params", params]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "random_samples" in err \
            and "exhaustive_slice" in err

    @pytest.mark.parametrize("lemma, params", [
        ("primo", {"random_samples": -3, "exhaustive_slice": 0}),
        ("sempreuno", {"submatrix_samples": -2}),
        ("unico-rank", {"samples": -3}),
        ("lambda", {"choice_checks": "x"}),
        ("lambda", {"choice_checks": True}),
        ("cln", {"group_ids": []}),
        ("cln", {"group_ids": ["A5", "A5"]}),
        ("cln", {"group_ids": "A5"}),
    ], ids=["primo", "sempreuno", "unico-rank", "lambda-str", "lambda-bool",
            "cln-empty", "cln-repeated", "cln-str"])
    def test_verify_negative_count_exit_2(self, lemma, params, capsys):
        # every parameter with an int default is a non-negative count, and
        # cln's group_ids is a non-empty list of distinct strings
        assert cli_main(["verify", "--lemma", lemma, "--params",
                         json.dumps(params)]) == 2
        assert "[PASS]" not in capsys.readouterr().out
        with pytest.raises(PreconditionError):
            verify_mod.run_verifier(lemma, **params)

    def test_lambda_bug_is_not_the_rejection(self, monkeypatch):
        # only GroupArgumentError counts as rejecting x = y; any other
        # exception is a bug and must escape the suite
        real = verify_mod.build_lambda

        def buggy(S, x, y):
            if x == y:
                raise RuntimeError("bug")
            return real(S, x, y)

        monkeypatch.setattr(verify_mod, "build_lambda", buggy)
        with pytest.raises(RuntimeError, match="bug"):
            verify_mod.run_verifier("lambda")

    @pytest.mark.parametrize("isolate", [False, True],
                             ids=["own-component", "isolated"])
    def test_coniugo_fails_on_a_split_class(self, monkeypatch, isolate):
        # one member of a conjugacy class gets a component of its own, or
        # is made isolated (label -1 - x): the class check must see it
        real = verify_mod.element_components

        def split(G, d):
            labels = real(G, d)
            members = next((c for c in G.cayley_table().classes
                            if len(c) > 1 and labels[c[0]] >= 0), None)
            if members is not None:  # an abelian group has none
                x = members[-1]
                labels[x] = -1 - x if isolate else labels.max() + 1
            return labels

        assert verify_mod.verify_coniugo(max_order=24).passed
        monkeypatch.setattr(verify_mod, "element_components", split)
        rep = verify_mod.verify_coniugo(max_order=24)
        assert not rep.passed and rep.failures
        assert all(set(failure) == {"group", "d", "class"}
                   for failure in rep.failures)

    def test_verify_all(self, tmp_path, monkeypatch, capsys):
        from rankgraph.verify import VerifyReport

        def passing(seed=42):
            return VerifyReport("ok", True, 2, seed=seed)

        def failing(seed=42):
            return VerifyReport("bad", False, 1, [{"err": "boom"}], seed=seed)

        # suites run in VERIFIERS order, not sorted by id
        monkeypatch.setattr(verify_mod, "VERIFIERS",
                            {"ok": passing, "bad": failing})
        out = tmp_path / "all.json"
        assert cli_main(["verify", "--lemma", "all", "--seed", "7",
                         "--out", str(out)]) == 1
        reports = json.loads(out.read_text())
        assert [(r["lemma"], r["passed"], r["seed"]) for r in reports] == \
            [("ok", True, 7), ("bad", False, 7)]
        printed = capsys.readouterr().out
        assert "[PASS] ok" in printed and "[FAIL] bad" in printed
        monkeypatch.setattr(verify_mod, "VERIFIERS", {"ok": passing})
        assert cli_main(["verify", "--lemma", "all"]) == 0
        assert cli_main(["verify", "--lemma", "all", "--params", "{}"]) == 2

    def test_crown_weak_conn(self, capsys):
        rc = cli_main(["crown", "--L", "A5", "--t", "3", "--eta", "1",
                       "--check", "weak-conn"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_crown_delta(self, tmp_path, capsys):
        out = tmp_path / "delta.json"
        rc = cli_main(["crown", "--L", "A5", "--t", "2", "--check", "delta",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["delta"] == 19

    def test_crown_verify_witness_psl27(self, tmp_path, capsys):
        # certified by two stabilizer chains of degree 456 this run took
        # 133.7 s on a 2-vCPU machine; the subdirect-product lemma needs none
        payloads = []
        for extra in ([], ["--verify-witness"]):
            out = tmp_path / f"delta{len(extra)}.json"
            rc = cli_main(["crown", "--L", "PSL(2,7)", "--t", "2", "--check",
                           "delta", "--out", str(out)] + extra)
            assert rc == 0
            payload = json.loads(out.read_text())
            del payload["elapsed_ms"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        assert payloads[1]["delta"] == 57

    @pytest.mark.parametrize("extra", [["--eta", "0"], ["--samples", "0"]],
                             ids=["eta", "samples"])
    def test_crown_counts_must_be_positive(self, extra, capsys):
        assert cli_main(["crown", "--L", "A5", "--t", "2", "--check",
                         "weak-conn", "--mode", "sampled"] + extra) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_crown_witness_failure_exit_1(self, monkeypatch, capsys):
        from rankgraph import crown_powers
        monkeypatch.setattr(crown_powers, "columns_generate",
                            lambda L, columns: False)
        rc = cli_main(["crown", "--L", "A5", "--t", "2", "--check", "delta",
                       "--verify-witness"])
        assert rc == 1
        assert "theorem violation: " in capsys.readouterr().err

    def test_sweep_cli(self, tmp_path, capsys):
        cat_path = tmp_path / "cat.json"
        write_catalog([symmetric(4), dihedral(5)], cat_path)
        out = tmp_path / "records.jsonl"
        rc = cli_main(["sweep", "--catalog", str(cat_path),
                       "--max-order", "100", "--out", str(out)])
        assert rc == 0
        assert len(load_records(out)) == 2

    def test_sweep_unexpected_error_exit_1(self, tmp_path, monkeypatch,
                                           capsys):
        from rankgraph import sweep as sweep_mod

        cat_path = tmp_path / "cat.json"
        write_catalog([symmetric(4), dihedral(5)], cat_path)
        argv = ["sweep", "--catalog", str(cat_path), "--max-order", "100"]
        real = sweep_mod.min_rank

        def failing_on_s4(exc):
            def min_rank(G):
                if G.order == 24:
                    raise exc
                return real(G)
            return min_rank

        # a cap error is a recorded skip
        monkeypatch.setattr(sweep_mod, "min_rank",
                            failing_on_s4(CapExceededError("stub cap")))
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert "0 error(s), 1 cap-skipped" in capsys.readouterr().out
        # anything else is a failure of the run
        monkeypatch.setattr(sweep_mod, "min_rank",
                            failing_on_s4(KeyError("boom")))
        out = tmp_path / "records.jsonl"
        assert cli_main(argv + ["--out", str(out)]) == 1
        assert "1 error(s), 0 cap-skipped" in capsys.readouterr().out
        errors = [r.error for r in load_records(out)]
        assert errors == ["KeyError: 'boom'", None]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_interrupted_run_resumes(self, tmp_path, monkeypatch,
                                           capsys, jobs):
        # records reach --out as they finish, so --resume completes the
        # file an interrupted run left
        from rankgraph import sweep as sweep_mod

        cat_path = tmp_path / "cat.json"
        write_catalog([symmetric(4), dihedral(5), alternating(4),
                       dihedral(4)], cat_path)
        argv = ["sweep", "--catalog", str(cat_path), "--max-order", "100",
                "--jobs", jobs, "--out"]
        whole, part = tmp_path / "whole.jsonl", tmp_path / "part.jsonl"
        assert cli_main(argv + [str(whole)]) == 0
        real = sweep_mod.sweep_entry

        def interrupted_at_third(entry, *args):
            if entry.id == "A4":
                raise KeyboardInterrupt
            return real(entry, *args)

        monkeypatch.setattr(sweep_mod, "sweep_entry", interrupted_at_third)
        with pytest.raises(KeyboardInterrupt):
            cli_main(argv + [str(part)])
        assert [r.group_id for r in load_records(part)] == ["S4", "Dih5"]
        monkeypatch.setattr(sweep_mod, "sweep_entry", real)
        assert cli_main(argv + [str(part), "--resume"]) == 0

        def untimed(path):
            out = []
            for rec in load_records(path):
                rec.timestamp = rec.elapsed_ms = 0
                for g in rec.graphs:
                    g.elapsed_ms = 0
                out.append(rec.to_json())
            return out

        assert untimed(part) == untimed(whole)

    def test_sweep_resume(self, tmp_path, capsys):
        cat_path = tmp_path / "cat.json"
        write_catalog([symmetric(4), dihedral(5)], cat_path)
        out = tmp_path / "records.jsonl"
        cli_main(["sweep", "--catalog", str(cat_path), "--max-order", "100",
                  "--out", str(out)])
        rc = cli_main(["sweep", "--catalog", str(cat_path),
                       "--max-order", "100", "--out", str(out), "--resume"])
        assert rc == 0
        assert len(load_records(out)) == 2  # nothing re-recorded

    @pytest.mark.parametrize("line", ['{"group_id": "S3"}', "[1, 2]",
                                      "not json"],
                             ids=["partial", "list", "not-json"])
    def test_sweep_resume_names_a_line_that_is_no_record(self, tmp_path,
                                                         capsys, line):
        cat_path = tmp_path / "cat.json"
        write_catalog([symmetric(3)], cat_path)
        out = tmp_path / "records.jsonl"
        argv = ["sweep", "--catalog", str(cat_path), "--max-order", "10",
                "--out", str(out)]
        assert cli_main(argv) == 0
        with open(out, "a") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        assert cli_main(argv + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}:2: not a sweep record")

    def test_sweep_resume_counts_recorded_critical(self, tmp_path, capsys):
        # a CRITICAL flag written by the earlier run decides the exit code
        cat_path = tmp_path / "cat.json"
        write_catalog([symmetric(4), dihedral(5)], cat_path)
        out = tmp_path / "records.jsonl"
        argv = ["sweep", "--catalog", str(cat_path), "--max-order", "100",
                "--out", str(out)]
        assert cli_main(argv) == 0
        records = load_records(out)
        records[0].critical.append("Delta_2 disconnected (stub)")
        out.write_text("".join(r.to_json() + "\n" for r in records))
        capsys.readouterr()
        assert cli_main(argv + ["--resume"]) == 1
        assert "CRITICAL S4: Delta_2 disconnected (stub)" in \
            capsys.readouterr().out
        assert len(load_records(out)) == 2  # nothing re-recorded

    def test_sweep_fixed_d_same_with_jobs(self, tmp_path, capsys):
        # --d/--d-max reach the worker processes: same records either way
        def run(jobs):
            out = tmp_path / f"jobs{jobs}.jsonl"
            rc = cli_main(["sweep", "--max-order", "12", "--d", "4",
                           "--jobs", str(jobs), "--out", str(out)])
            assert rc == 0
            records = []
            for rec in load_records(out):
                rec.timestamp = rec.elapsed_ms = 0
                for g in rec.graphs:
                    g.elapsed_ms = 0
                records.append(rec.to_json())
            return records

        serial = run(1)
        assert {g["d"] for line in serial
                for g in json.loads(line)["graphs"]} == {4}
        assert run(2) == serial

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("bad", [["--d", "1"], ["--d", "5", "--d-max", "3"],
                                     ["--d-max", "3"]],
                             ids=["d-below-2", "empty-range", "d-max-alone"])
    def test_sweep_bad_d_range_exits_2(self, tmp_path, capsys, bad, jobs):
        # refused before --out is opened: an existing file is kept
        out = tmp_path / "records.jsonl"
        out.write_text("kept\n")
        rc = cli_main(["sweep", "--max-order", "12", "--jobs", jobs,
                       "--out", str(out)] + bad)
        assert rc == 2
        assert "swept" not in capsys.readouterr().out
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ["--catalog", "{missing}/cat.json"],
        ["--max-order", "6", "--out", "{missing}/dir/x.jsonl"]],
        ids=["catalog", "out"])
    def test_sweep_file_errors_exit_2(self, tmp_path, capsys, argv, jobs):
        missing = tmp_path / "missing"
        argv = [a.format(missing=missing) for a in argv]
        assert cli_main(["sweep", "--jobs", jobs] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("argv", [
        ["catalog", "--catalog", "{missing}"],
        ["analyze", "--group", "S3", "--d", "2", "--dot", "{missing}/x.dot"],
        ["verify", "--lemma", "frat", "--out", "{missing}/x.json"],
        ["analyze", "--group", "A5", "--out", "{tmp}/a.json",
         "--dot", "{missing}/x.dot"],
        ["verify", "--lemma", "all", "--out", "{missing}/x.json"],
        ["crown", "--L", "A5", "--t", "2", "--check", "delta",
         "--out", "{missing}/x.json"],
        ["export-dot", "--group", "S3", "--d", "2",
         "--out", "{missing}/x.dot"]],
        ids=["catalog", "analyze-dot", "verify-out", "analyze-out-dot",
             "verify-all-out", "crown-out", "export-dot-out"])
    def test_file_errors_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # 1 is the theorem-violation code; a path that cannot be read or
        # written is an error of the run's inputs.  Output files are
        # opened before any work, so nothing is printed or written first.
        def no_graph(*args, **kwargs):
            raise AssertionError("graph work ran")

        monkeypatch.setattr(cli_mod, "delta_summary", no_graph)
        monkeypatch.setattr(cli_mod, "export_dot", no_graph)
        missing = tmp_path / "missing"
        argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and \
            str(missing) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "a.json").exists() or \
            (tmp_path / "a.json").read_text() == ""

    def test_sweep_resume_needs_out(self, monkeypatch, capsys):
        from rankgraph import sweep as sweep_mod

        def no_entry(*args, **kwargs):
            raise AssertionError("entry swept")

        monkeypatch.setattr(sweep_mod, "sweep_entry", no_entry)
        assert cli_main(["sweep", "--max-order", "60", "--resume"]) == 2
        captured = capsys.readouterr()
        assert "swept" not in captured.out
        assert "--resume needs --out" in captured.err

    def test_diameter_builds_no_element_graph(self, tmp_path, capsys):
        assert cli_main(["sweep", "--max-order", "60", "--diameter"]) == 0
        assert "0 error(s)" in capsys.readouterr().out
        out = tmp_path / "a.json"

        def analyze(*argv):
            assert cli_main(["analyze", "--diameter", "--out", str(out)]
                            + list(argv)) == 0
            return json.loads(out.read_text())

        a5 = analyze("--group", "A5", "--graph", "gamma", "--d", "2")
        assert (a5["n_vertices"], a5["n_components"], a5["diameter"]) == \
            (60, 2, 2)
        # E2^3 needs three generators: Gamma_2 is its 8 isolated elements
        gamma = analyze("--group", "E2^3", "--graph", "gamma", "--d", "2")
        assert (gamma["n_vertices"], gamma["n_components"],
                gamma["diameter"]) == (8, 8, 0)
        delta = analyze("--group", "E2^3", "--graph", "rank", "--d", "2")
        assert (delta["n_vertices"], delta["diameter"]) == (0, None)

    def test_export_dot_needs_out(self, monkeypatch, capsys):
        def no_graph(*args, **kwargs):
            raise AssertionError("graph built")
        monkeypatch.setattr(cli_mod, "export_dot", no_graph)
        assert cli_main(["export-dot", "--group", "S3"]) == 2
        assert "export-dot needs --out" in capsys.readouterr().err

    # an output file is written to a temporary file beside it, which
    # replaces it only when the run completes
    @pytest.mark.parametrize("argv", [
        ["analyze", "--group", "C6", "--out", "{path}"],
        ["analyze", "--group", "C6", "--dot", "{path}"],
        ["export-dot", "--group", "C6", "--out", "{path}"],
        ["crown", "--L", "S4", "--t", "2", "--check", "delta",
         "--out", "{path}"],
        ["verify", "--lemma", "lambda", "--params", '{"choice_checks": -1}',
         "--out", "{path}"]],
        ids=["analyze-out", "analyze-dot", "export-dot", "crown", "verify"])
    def test_failed_run_keeps_the_old_output(self, tmp_path, capsys, argv):
        path = tmp_path / "old.txt"
        path.write_text("old\n")
        assert cli_main([a.replace("{path}", str(path)) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(("error: ",
                                                   "resource cap: "))
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]

    @pytest.mark.parametrize("argv,head", [
        (["analyze", "--group", "S3", "--d", "2", "--out", "{path}"], "{"),
        (["analyze", "--group", "S3", "--d", "2", "--dot", "{path}"],
         "graph"),
        (["export-dot", "--group", "S3", "--d", "2", "--out", "{path}"],
         "graph"),
        (["crown", "--L", "A5", "--t", "2", "--check", "delta",
          "--out", "{path}"], "{"),
        (["verify", "--lemma", "frat", "--out", "{path}"], "{"),
        (["catalog", "--max-order", "10", "--out", "{path}"], "{")],
        ids=["analyze-out", "analyze-dot", "export-dot", "crown", "verify",
             "catalog"])
    def test_run_replaces_the_old_output(self, tmp_path, argv, head):
        path = tmp_path / "old.txt"
        path.write_text("old\n")
        assert cli_main([a.replace("{path}", str(path)) for a in argv]) == 0
        assert path.read_text().startswith(head)
        assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]
        # the mode of a file opened for writing, not mkstemp's 0600
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_catalog_write_keeps_the_old_file(self, tmp_path,
                                                     monkeypatch, capsys):
        # the catalog is loaded and filtered before it is written; a
        # write that fails then must not have truncated the old file
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        path = tmp_path / "old.json"
        path.write_text("old\n")
        monkeypatch.setattr(json, "dump", disk_full)
        assert cli_main(["catalog", "--max-order", "10",
                         "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.json"]

    def test_failing_verification_still_writes_its_report(
            self, tmp_path, monkeypatch):
        from rankgraph.verify import VerifyReport

        def failing(seed=42):
            return VerifyReport("bad", False, 1, [{"err": "boom"}], seed=seed)

        monkeypatch.setattr(verify_mod, "VERIFIERS", {"bad": failing})
        path = tmp_path / "old.json"
        path.write_text("old\n")
        assert cli_main(["verify", "--lemma", "bad", "--out", str(path)]) == 1
        assert json.loads(path.read_text())["passed"] is False
        assert [p.name for p in tmp_path.iterdir()] == ["old.json"]

    def test_link_is_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert cli_main(["analyze", "--group", "S3", "--d", "2",
                         "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["group_id"] == "S3"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["link.json", "target.json"]

    @pytest.mark.parametrize("command", ["catalog", "sweep"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_order_must_be_positive(self, capsys, command, value):
        assert cli_main([command, "--max-order", value]) == 2
        err = capsys.readouterr().err
        assert "--max-order: must be at least 1" in err

    def test_catalog_max_order_one_lists_nothing(self, capsys):
        assert cli_main(["catalog", "--max-order", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_generating_graph_refuses_other_d(self, capsys):
        assert cli_main(["analyze", "--group", "A5", "--graph", "generating",
                         "--d", "3"]) == 2
        assert "generating graph has d = 2" in capsys.readouterr().err
        assert cli_main(["analyze", "--group", "A5", "--graph", "generating",
                         "--d", "2"]) == 0
        assert "generating graph d=2" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["--d", "1"], ["--d", "2"]],
                             ids=["no-d", "d1", "d2"])
    def test_cyclic_group_names_the_reason(self, capsys, argv):
        # d(C6) = 1: the refusal names cyclicity, not d < 2
        assert cli_main(["analyze", "--group", "C6"] + argv) == 2
        err = capsys.readouterr().err
        assert "non-cyclic groups only" in err and "at least 2" not in err

    def test_export_dot(self, tmp_path):
        out = tmp_path / "g.dot"
        rc = cli_main(["export-dot", "--group", "E2^2", "--d", "2",
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text().count("--") == 3

    def test_catalog_export(self, tmp_path):
        out = tmp_path / "cat.json"
        rc = cli_main(["catalog", "--max-order", "30", "--out", str(out)])
        assert rc == 0
        assert load_catalog(out)

    def test_catalog_lists_the_given_file(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        write_catalog([dihedral(5)], path)
        assert cli_main(["catalog", "--catalog", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Dih5\tdegree 5\torder 10\t[soluble]"]
        out = tmp_path / "copy.json"
        assert cli_main(["catalog", "--catalog", str(path), "--max-order",
                         "10", "--out", str(out)]) == 0
        assert [e.id for e in load_catalog(out)] == ["Dih5"]
        assert cli_main(["catalog", "--catalog", str(path), "--max-order",
                         "9", "--out", str(out)]) == 0
        assert load_catalog(out) == []

    def test_catalog_file_with_a_false_tag_exits_2(self, tmp_path, capsys):
        raw = dict(symmetric(4).to_dict(), id="S4-oops", tags=["simple"])
        path = tmp_path / "oops.json"
        path.write_text(json.dumps({"entries": [raw]}))
        for command in ("catalog", "sweep"):
            assert cli_main([command, "--catalog", str(path)]) == 2
            assert "S4-oops" in capsys.readouterr().err

    def test_version(self, capsys):
        rc = cli_main(["--version"])
        assert rc == 0


class TestFindEntry:
    def test_found(self):
        assert find_entry(default_catalog(), "A5").id == "A5"

    def test_missing(self):
        with pytest.raises(CatalogError):
            find_entry(default_catalog(), "M11")

    def test_builtin_entry_is_the_catalog_entry(self):
        # every table key names the entry its builder makes; a missing id
        # fails as find_entry fails
        entries = default_catalog()
        assert [e.id for e in entries] == list(catalog_mod._BUILTINS)
        for e in entries:
            assert builtin_entry(e.id).to_dict() == e.to_dict()
        with pytest.raises(CatalogError) as ours:
            builtin_entry("M11")
        with pytest.raises(CatalogError) as theirs:
            find_entry(entries, "M11")
        assert str(ours.value) == str(theirs.value)

    def test_single_entry_commands_build_one_entry(self, monkeypatch,
                                                   tmp_path, capsys):
        def whole_catalog():
            raise AssertionError("the whole catalog was built")

        monkeypatch.setattr(catalog_mod, "default_catalog", whole_catalog)
        assert cli_main(["crown", "--L", "A5", "--t", "2",
                         "--check", "delta"]) == 0
        assert cli_main(["analyze", "--group", "S4", "--d", "2"]) == 0
        assert cli_main(["export-dot", "--group", "S3",
                         "--out", str(tmp_path / "s3.dot")]) == 0
        assert cli_main(["crown", "--L", "M11", "--t", "2",
                         "--check", "delta"]) == 2
        # --catalog FILE still names the entries
        path = tmp_path / "cat.json"
        write_catalog([psl2(5)], path)
        assert cli_main(["crown", "--catalog", str(path), "--L",
                         "PSL(2,5)", "--t", "2", "--check", "delta"]) == 0
        assert cli_main(["crown", "--catalog", str(path), "--L", "A5",
                         "--t", "2", "--check", "delta"]) == 2
        assert "no catalog entry named 'A5'" in capsys.readouterr().err
