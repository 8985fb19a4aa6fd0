"""Acceptance suite: one test per shipped criterion.

Every test prints a [PASS]/[FAIL] line (run pytest with -s or look at
captured output) and asserts the criterion at its stated tolerance and
runtime ceiling.  Runtime ceilings are generous by design; the asserts
keep them honest on slow machines without masking regressions.
"""

import os
import time
from fractions import Fraction

import pytest

from rankgraph.catalog import default_catalog, find_entry
from rankgraph.crown_powers import (
    MonolithicGroup,
    build_crown_power,
    delta_Lt,
)
from rankgraph.graphs import delta_summary
from rankgraph.group_structure import is_soluble, min_rank
from rankgraph.sweep import critical_flags, sweep
from rankgraph.verify import run_verifier

from oracles import column_elements, crown_generates


def _report(num: int, text: str, ok: bool, elapsed: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {num}: {text} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


def test_criterion_1_simple_rank_graph_diameter(catalog):
    """Delta_2(A5): connected, 59 vertices, diameter exactly 2, < 5 s."""
    t0 = time.perf_counter()
    A5 = find_entry(catalog, "A5").group()
    s = delta_summary(A5, 2, with_diameter=True)
    elapsed = time.perf_counter() - t0
    ok = (s.n_vertices == 59 and s.connected and s.diameter == 2
          and elapsed < 5)
    _report(1, f"Delta_2(A5): {s.n_vertices} vertices, "
               f"{s.n_components} component(s), diameter {s.diameter}",
            ok, elapsed)
    assert s.n_vertices == 59
    assert s.connected
    assert s.diameter == 2
    assert elapsed < 5


def test_criterion_2_soluble_diameter_bound(catalog):
    """Soluble catalog groups <= 200 with d=2: connected, diameter <= 3."""
    t0 = time.perf_counter()
    violations = []
    checked = 0
    for entry in catalog:
        G = entry.group()
        if G.order > 200 or not is_soluble(G):
            continue
        if min_rank(G).d != 2:
            continue
        checked += 1
        s = delta_summary(G, 2, with_diameter=True)
        if not s.connected or s.diameter > 3:
            violations.append((entry.id, s.n_components, s.diameter))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 120
    _report(2, f"{checked} soluble groups <= 200: zero violations "
               f"(diameters <= 3)", ok, elapsed)
    assert checked >= 15
    assert violations == []
    assert elapsed < 120


def test_criterion_3_rank_connectivity_sweep(catalog):
    """Delta_d connected for d in {max(3,d(G)), max(3,d(G))+1}, order <= 500."""
    t0 = time.perf_counter()
    jobs = min(4, os.cpu_count() or 1)
    records = sweep(catalog, max_order=500, policy="theorem", jobs=jobs)
    flags = critical_flags(records)
    errors = [(r.group_id, r.error) for r in records if r.error]
    analyzed = sum(1 for r in records if r.graphs)
    elapsed = time.perf_counter() - t0
    ok = not flags and not errors and elapsed < 1800
    _report(3, f"theorem sweep over {analyzed} groups <= 500 at jobs={jobs}: "
               f"{len(flags)} CRITICAL flags", ok, elapsed)
    assert analyzed >= 30
    assert errors == []
    assert flags == []
    assert elapsed < 1800


def test_criterion_4_generating_graph_connectivity(catalog):
    """Delta_2 connected for all 2-generated entries <= 500 plus the
    almost simple entries S5, S6, PGL(2,7), PGL(2,9)."""
    t0 = time.perf_counter()
    required = {"S5", "S6", "PGL(2,7)", "PGL(2,9)"}
    violations = []
    checked = []
    for entry in catalog:
        G = entry.group()
        in_range = G.order <= 500
        if not in_range and entry.id not in required:
            continue
        if min_rank(G).d != 2:
            continue
        s = delta_summary(G, 2)
        checked.append(entry.id)
        if not s.connected:
            violations.append((entry.id, s.n_components))
    elapsed = time.perf_counter() - t0
    ok = not violations and required <= set(checked)
    _report(4, f"Delta_2 connected for {len(checked)} two-generated entries "
               f"(incl. {sorted(required)})", ok, elapsed)
    assert required <= set(checked)
    assert violations == []


def test_criterion_5_correction_density():
    """Exhaustive density >= 53/90 over L = A5, d = 2; minimum reported."""
    t0 = time.perf_counter()
    rep = run_verifier("delu", seed=42)
    elapsed = time.perf_counter() - t0
    min_frac = rep.details["min_fraction"]
    ok = rep.passed and min_frac >= Fraction(53, 90) and elapsed < 600
    _report(5, f"minimum correction density {min_frac} >= 53/90 over "
               f"{rep.instances} instances", ok, elapsed)
    assert rep.passed
    assert min_frac >= Fraction(53, 90)
    assert elapsed < 600


def test_criterion_6_commuting_corrections():
    """100% witness rate over all pairs with commutator in the socle."""
    t0 = time.perf_counter()
    rep = run_verifier("cln", seed=42)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 1200
    _report(6, f"commuting corrections found for all {rep.instances} pairs "
               f"over {sorted(rep.details['pairs'])}", ok, elapsed)
    assert rep.passed
    assert rep.details["pairs"] == {
        "A5": 3600, "S5": 14400, "PSL(2,7)": 28224, "PGL(2,7)": 112896}
    assert elapsed < 1200


def test_criterion_7_orbit_criterion_equivalence():
    """Orbit criterion vs direct generation: 10^4 random + 10^5 slice."""
    t0 = time.perf_counter()
    rep = run_verifier("primo", seed=42)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.details["agreements"] == rep.instances
    _report(7, f"{rep.details['agreements']}/{rep.instances} agreement "
               "(10^4 random + 10^5 exhaustive slice)", ok, elapsed)
    assert rep.passed
    assert rep.instances == 110000
    assert rep.details["agreements"] == 110000


def test_criterion_8_delta_a5_nineteen():
    """delta(A5, 2) = 19 by orbit count; witness generates the k = 19 power."""
    t0 = time.perf_counter()
    A5 = MonolithicGroup.from_group(
        find_entry(default_catalog(), "A5").group(), "A5")
    delta, table = delta_Lt(A5, 2, verify=True)
    crown = build_crown_power(A5, delta)
    # the witness itself, checked by a stabilizer chain in L_19
    generated = crown_generates(crown, column_elements(A5, table.reps))
    elapsed = time.perf_counter() - t0
    ok = (delta == 19 and len(table.tuples) == 2280
          and crown.degree == 95 and crown.order == 60 ** 19
          and generated and elapsed < 300)
    _report(8, f"delta(A5,2) = {delta}, witness pair generates the "
               f"degree-{crown.degree} power of order 60^19", ok,
            elapsed)
    assert delta == 19
    assert len(table.tuples) == 2280
    assert crown.order == 60 ** 19
    assert generated
    assert elapsed < 300


def test_criterion_9_weak_connectivity():
    """Weak connectivity for A5 and PSL(2,7) at t=3, eta=1; A5 eta=2 sampled."""
    t0 = time.perf_counter()
    rep = run_verifier("weak-conn", seed=42)
    elapsed = time.perf_counter() - t0
    _report(9, f"weak connectivity over {rep.instances} instances "
               f"({rep.details})", rep.passed, elapsed)
    assert rep.passed
    assert rep.failures == []


def test_criterion_10_lemma_suites():
    """Statement-level suites, each runnable via `verify --lemma <id> --seed 42`."""
    suites = ["modgg", "unico-rank", "coniugo", "frat", "induzionenormale",
              "norsol", "sempreuno"]
    all_ok = True
    for lemma in suites:
        t0 = time.perf_counter()
        rep = run_verifier(lemma, seed=42)
        elapsed = time.perf_counter() - t0
        _report(10, f"suite {lemma}: {rep.instances} instances", rep.passed,
                elapsed)
        all_ok = all_ok and rep.passed
        assert rep.passed, f"suite {lemma} failed: {rep.failures[:3]}"
    assert all_ok


def test_criterion_11_coset_graph_connectivity():
    """The bipartite coset graph over A5 in S5 is connected for every
    admissible representative choice."""
    t0 = time.perf_counter()
    rep = run_verifier("lambda", seed=42)
    elapsed = time.perf_counter() - t0
    _report(11, f"coset graph: {rep.details['vertices']} vertices, "
                f"{rep.details['edges']} edges, connected; "
                f"{rep.details['equivalent_choices']} equivalent choices",
            rep.passed, elapsed)
    assert rep.passed
    assert rep.details["vertices"] == 120
    assert rep.failures == []
