"""The incidence-row generation engine against the closure oracle.

Every generation question (d(G) and its witness, d_X(G), edge witnesses,
normal-subgroup corrections, Omega tuples and crown-graph completions) is
answered from maximal-subgroup incidence masks.  ``oracles.ClosureOracle``
answers the same questions by subgroup closures on a registry of its own.
"""

import itertools
import random

import pytest

from rankgraph import group_structure
from rankgraph.catalog import default_catalog, find_entry
from rankgraph.crown_powers import (
    MonolithicGroup,
    default_generating_tuple,
    omega_table,
)
from rankgraph.group_structure import (
    SubgroupRegistry,
    d_X,
    gaschutz_lift,
    min_rank,
    normal_subgroups,
    registry_for,
)

from oracles import ClosureOracle, crown_graph, edge_witness, is_edge_d

SMALL = [e for e in default_catalog() if e.group().order <= 360]
MONOLITHIC = [e for e in SMALL if "monolithic" in e.tags
              and not e.group().is_abelian()]


def _group(group_id):
    return find_entry(default_catalog(), group_id).group()


def _indices(ct, perms):
    return tuple(ct.index[p.images] for p in perms)


@pytest.mark.parametrize("group_id", [
    e.id for e in default_catalog() if 360 < e.group().order <= 2048])
def test_min_rank_matches_closure_oracle_above_360(group_id):
    # S6, PSL(2,8), PSL(2,11), PSL(2,13) and PGL(2,9): d = 2 from the rows
    G = _group(group_id)
    oracle = ClosureOracle(G)
    cert = min_rank(G)
    assert (cert.d, _indices(oracle.ct, cert.witness)) == oracle.min_rank()


@pytest.mark.parametrize("entry", SMALL, ids=lambda e: e.id)
def test_min_rank_and_d_X_match_closure_oracle(entry):
    G = entry.group()
    oracle = ClosureOracle(G)
    ct = oracle.ct
    cert = min_rank(G)
    assert (cert.d, _indices(ct, cert.witness)) == oracle.min_rank()
    n = ct.n
    for X in [(), (1,), (n - 1,), (1, 2), (n // 2, n - 1),
              tuple(ct.gen_indices[:1])]:
        assert d_X(G, [ct.perm(i) for i in X]) == oracle.d_X(X), X


@pytest.mark.parametrize("group_id", ["S4", "A4xC2", "S3xS3", "Dih4xC2",
                                      "E2^3", "A5"])
@pytest.mark.parametrize("d", [3, 4])
def test_edge_witness_matches_closure_climb(group_id, d):
    G = _group(group_id)
    oracle = ClosureOracle(G)
    ct = oracle.ct
    for x, y in itertools.combinations(range(ct.n), 2):
        px, py = ct.perm(x), ct.perm(y)
        if not is_edge_d(G, px, py, d):
            continue
        got = edge_witness(G, px, py, d)
        assert frozenset(_indices(ct, got)) == oracle.edge_witness(x, y, d)


@pytest.mark.parametrize("group_id", ["S4", "A4", "Dih4", "Dih6", "S3xS3",
                                      "A4xC2"])
def test_gaschutz_lift_matches_closure_oracle(group_id):
    G = _group(group_id)
    oracle = ClosureOracle(G)
    ct = oracle.ct
    rng = random.Random(6)
    checked = 0
    for M in normal_subgroups(G).normals:
        if M.order in (1, G.order):
            continue
        m_idx = ct.indices(M.elements())
        for _ in range(6):
            x_idx = tuple(rng.randrange(ct.n) for _ in range(rng.randrange(3)))
            r = max(1, oracle.d_X(x_idx))
            for _ in range(200):
                g_idx = tuple(rng.randrange(ct.n) for _ in range(r))
                if oracle.generates(x_idx + g_idx + tuple(m_idx)):
                    break
            else:
                continue
            got = gaschutz_lift(G, M, [ct.perm(i) for i in x_idx],
                                [ct.perm(i) for i in g_idx])
            want = oracle.gaschutz_corrections(x_idx, g_idx, m_idx)
            assert _indices(ct, got) == want
            checked += 1
    assert checked >= 6


# PSL(2,8) has 73 maximal subgroups, so its masks span two uint64 words
@pytest.mark.parametrize("group_id", ["S4", "A5", "PSL(2,7)", "S3xS3",
                                      "Dih12", "PSL(2,8)"])
def test_generating_tuples_match_closure_oracle(group_id):
    # seeded unsorted cells of arbitrary elements, searched from the
    # default mask or from the mask of a seeded start subset; the tuples
    # come in the product order of the cells
    G = _group(group_id)
    reg = registry_for(G)
    oracle = ClosureOracle(G)
    n = oracle.ct.n
    rng = random.Random(24)
    nonempty = set()
    for _ in range(16):
        cells = [rng.sample(range(n), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 3))]
        start = tuple(rng.sample(range(n), rng.randrange(3)))
        want = [tup for tup in itertools.product(*cells)
                if oracle.generates(start + tup)]
        mask = reg.mask_of(start) if start else None
        assert _rows(reg.generating_tuples(cells, mask)) == want
        nonempty.add(bool(want))
    assert nonempty == {False, True}
    # cells inside one maximal subgroup: no tuple generates
    M = sorted(reg.maximal_subgroups()[0])
    rng.shuffle(M)
    assert _rows(reg.generating_tuples([M, M[:5]])) == []
    # no cells: the empty tuple, iff the start mask is already 0
    assert _rows(reg.generating_tuples([])) == []
    assert _rows(reg.generating_tuples([], 0)) == [()]


@pytest.mark.parametrize("group_id,block", [("A5", 150), ("PSL(2,8)", None)],
                         ids=["A5-patched", "PSL(2,8)"])
def test_generating_tuple_blocks_hold_at_most_tuple_block(
        monkeypatch, group_id, block):
    # two whole-group cells: the heads are decided in chunks of
    # _TUPLE_BLOCK // n, so no yielded block holds more than
    # _TUPLE_BLOCK tuples, and the blocks keep the product order
    G = _group(group_id)
    reg = registry_for(G)
    n = G.order
    if block is not None:
        monkeypatch.setattr(group_structure, "_TUPLE_BLOCK", block)
    blocks = list(reg.generating_tuples([range(n), range(n)]))
    assert len(blocks) > 1
    assert max(map(len, blocks)) <= group_structure._TUPLE_BLOCK
    got = _rows(blocks)
    assert got == sorted(set(got))
    if block is not None:
        assert got == [(x, y) for x in range(n) for y in range(n)
                       if not reg.mask_of((x, y))]


def _rows(blocks) -> list:
    """The tuples of the blocks ``generating_tuples`` yields, in order;
    every block is a non-empty 2-d array."""
    out = []
    for block in blocks:
        assert block.ndim == 2 and len(block)
        out.extend(map(tuple, block.tolist()))
    return out


@pytest.mark.parametrize("group_id", ["A5", "S5", "PSL(2,7)", "PGL(2,7)"])
def test_coset_indices_match_row_products(group_id):
    # the definition the coset labels replaced: the sorted x n, n in N
    L = MonolithicGroup(_group(group_id))
    table = L.ct().table
    socle = set(L.socle_indices)
    for x in range(L.ct().n):
        assert L.coset_indices(x) == sorted(table[x][n] for n in socle)
    assert L.socle_mask.tolist() == [x in socle for x in range(L.ct().n)]


@pytest.mark.parametrize("entry", MONOLITHIC, ids=lambda e: e.id)
def test_omega_tuples_match_closure_oracle(entry):
    L = MonolithicGroup(entry.group())
    a = default_generating_tuple(L, 2)
    cosets = [L.coset_indices(x) for x in a]
    assert list(map(tuple, omega_table(L, a).tuples.tolist())) == \
        ClosureOracle(L.group).generating_tuples(cosets)


def test_omega_tuples_a5_t3_match_closure_oracle():
    L = MonolithicGroup(_group("A5"))
    a = default_generating_tuple(L, 3)
    cosets = [L.coset_indices(x) for x in a]
    assert list(map(tuple, omega_table(L, a).tuples.tolist())) == \
        ClosureOracle(L.group).generating_tuples(cosets)


@pytest.mark.parametrize("group_id", ["A5", "S5"])
def test_crown_completions_match_closure_oracle(group_id):
    # t = 3, eta = 1: an edge joins two pinned elements of different rows
    # that the free row's coset completes to a generating triple
    L = MonolithicGroup(_group(group_id))
    graph = crown_graph(L, 3, 1, drop_isolated=False)
    oracle = ClosureOracle(L.group)
    tbl = oracle.ct.table
    a = graph.meta["a"]
    socle = L.socle_indices
    labels = graph.labels
    for v, w in itertools.combinations(range(len(labels)), 2):
        # rank = row * |N| + the position of the correction in the socle
        (iv, kv), (iw, kw) = (divmod(labels[v], len(socle)),
                              divmod(labels[w], len(socle)))
        expected = False
        if iv != iw:
            x = tbl[a[iv]][socle[kv]]
            y = tbl[a[iw]][socle[kw]]
            u = 3 - iv - iw
            expected = oracle.completes(oracle.closure((x, y)),
                                        [L.coset_indices(a[u])])
        assert (w in graph.adjacency[v]) == expected


@pytest.mark.parametrize("group_id, d", [("C12", 1), ("S4", 2), ("E2^3", 3)])
def test_min_rank_checks_certified_d(monkeypatch, group_id, d):
    # the certified d must equal the trivial subgroup's distance to G
    G = _group(group_id)
    full_mask = registry_for(G).mask_of(())
    true_dist = SubgroupRegistry.mask_dist

    def off_by_one(self, mask):
        return true_dist(self, mask) + (mask == full_mask)

    monkeypatch.setattr(SubgroupRegistry, "mask_dist", off_by_one)
    with pytest.raises(RuntimeError, match=f"certified d = {d} "):
        min_rank(G)
