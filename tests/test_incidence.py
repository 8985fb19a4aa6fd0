"""Differential checks of the maximal-subgroup incidence edge engine.

The engine decides Delta_d edges from the rows of
``SubgroupRegistry.incidence_rows``; these tests compare it with the
brute generation oracle, with ``oracles.ClosureOracle`` (pair closures
and distances by subgroup closures on a registry of its own) and with
values frozen from the closure-based implementation.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from rankgraph.catalog import default_catalog, find_entry
from rankgraph.config import caps
from rankgraph.graphs import delta_summary, element_components
from rankgraph.group_structure import (
    SubgroupRegistry,
    class_block,
    min_rank,
    registry_for,
)

from oracles import (
    ClosureOracle,
    brute_generates,
    build_gamma_d,
    joined,
    reference_dist,
)


def _group(group_id):
    return find_entry(default_catalog(), group_id).group()


def closure_summary(G, d):
    """(n_vertices, n_edges, n_components) of Delta_d by per-pair closures."""
    oracle = ClosureOracle(G)
    n = oracle.ct.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    touched = set()
    n_edges = 0
    for x, y in itertools.combinations(range(n) if n >= d else (), 2):
        sid = oracle.closure((x, y))
        if n == d or sid == oracle.full or oracle.dist(sid) <= d - 2:
            n_edges += 1
            touched.update((x, y))
            parent[find(y)] = find(x)
    return len(touched), n_edges, len({find(v) for v in touched})


@pytest.mark.parametrize("group_id", ["S4", "A4xC2", "Dih4xC2", "A5"])
def test_generating_edges_match_brute_oracle(group_id):
    G = _group(group_id)
    gamma = build_gamma_d(G, 2)
    labels = gamma.labels
    ours = {(v, w) for v, nbrs in enumerate(gamma.adjacency)
            for w in nbrs if v < w}
    brute = {(v, w) for v in range(len(labels))
             for w in range(v + 1, len(labels))
             if brute_generates(G, [labels[v], labels[w]])}
    assert ours == brute


def test_summaries_match_closure_path():
    checked = 0
    for entry in default_catalog():
        G = entry.group()
        if G.order > 120 or min_rank(G).d == 1:
            continue
        for d in (2, 3, 4):
            s = delta_summary(G, d)
            assert (s.n_vertices, s.n_edges, s.n_components) == \
                closure_summary(G, d), (entry.id, d)
        checked += 1
    assert checked >= 30


# (n_vertices, n_edges, n_components) of Delta_2 and Delta_3, frozen from
# the closure-based edge test.
FROZEN = {
    "PSL(2,8)": {2: (503, 107352, 1), 3: (504, 126756, 1)},
    "PSL(2,11)": {2: (659, 167640, 1), 3: (660, 217470, 1)},
    "S6": {2: (719, 114480, 1), 3: (720, 258840, 1)},
    "PGL(2,9)": {2: (719, 168480, 1), 3: (720, 258840, 1)},
    "PSL(2,13)": {2: (1091, 540540, 1), 3: (1092, 595686, 1)},
}


@pytest.mark.parametrize("group_id", sorted(FROZEN))
def test_frozen_large_summaries(group_id):
    G = _group(group_id)
    for d, expected in FROZEN[group_id].items():
        s = delta_summary(G, d)
        assert (s.n_vertices, s.n_edges, s.n_components) == expected


class TestIncidenceRows:
    def test_rows_of_generators_meet_trivially(self, S4):
        reg = SubgroupRegistry(S4.cayley_table())
        rows = reg.incidence_rows()
        common = -1
        for g in reg.ct.gen_indices:
            common &= rows[g]
        assert common == 0
        assert rows[reg.ct.identity] == \
            (1 << len(reg.maximal_subgroups())) - 1

    @pytest.mark.parametrize("group_id", ["S4", "Dih8", "Dih4xC2",
                                          "C4xC4", "A5"])
    def test_row_classes_group_the_elements_by_row(self, group_id):
        reg = SubgroupRegistry(_group(group_id).cayley_table())
        rows = reg.incidence_rows()
        classes, class_rows, class_of = reg.row_classes()
        assert sorted(x for c in classes for x in c) == list(range(reg.ct.n))
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        assert len(set(class_rows)) == len(classes)
        for k, members in enumerate(classes):
            assert members == sorted(members)
            assert {rows[x] for x in members} == {class_rows[k]}
            assert {class_of[x] for x in members} == {k}
        # the identity's class is the Frattini subgroup
        assert frozenset(classes[class_of[reg.ct.identity]]) == \
            frozenset.intersection(*reg.maximal_subgroups())

    def test_mask_dist_matches_closure_distance(self, S4):
        reg = SubgroupRegistry(S4.cayley_table())
        rows = reg.incidence_rows()
        oracle = ClosureOracle(S4)
        for x in range(reg.ct.n):
            for y in range(reg.ct.n):
                assert reg.mask_dist(rows[x] & rows[y]) == \
                    oracle.dist(oracle.closure((x, y)))

    def test_whole_group_listed_as_maximal_raises(self, S4):
        reg = SubgroupRegistry(S4.cayley_table())
        reg.maximal_subgroups = lambda: [frozenset(range(reg.ct.n))]
        with pytest.raises(RuntimeError, match="maximal subgroup of order"):
            reg.incidence_rows()

    def test_order_not_dividing_raises(self, S4):
        reg = SubgroupRegistry(S4.cayley_table())
        reg.maximal_subgroups = lambda: [frozenset(range(5))]
        with pytest.raises(RuntimeError, match="maximal subgroup of order"):
            reg.incidence_rows()

    def test_generators_in_a_listed_maximal_raises(self, S4):
        # a wrong maximal-subgroup list that has one member holding every
        # generator of G
        reg = SubgroupRegistry(S4.cayley_table())
        ct = reg.ct
        held = sorted({ct.identity, *ct.gen_indices})
        others = [x for x in range(ct.n) if x not in held]
        fake = frozenset(held + others[:12 - len(held)])
        reg.maximal_subgroups = lambda: [fake]
        with pytest.raises(RuntimeError, match="every generator"):
            reg.incidence_rows()


# ---------------------------------------------------------------------------
# row-avoidance distances and the class-pair distance table


DISTANCE_GROUPS = [e.id for e in default_catalog()
                   if e.group().order <= 360] + ["PSL(2,13)"]


@pytest.mark.parametrize("group_id", DISTANCE_GROUPS)
def test_distances_match_the_reference_recursion(group_id):
    # a registry of its own, so that no earlier test has filled the
    # distance memo: every distinct AND of two class rows is decided by
    # the row-avoidance bitsets or the recursion below them here
    G = _group(group_id)
    reg = SubgroupRegistry(G.cayley_table())
    rows = reg.row_classes()[1]
    expected = [[reference_dist(reg, ri & rj) for rj in rows] for ri in rows]
    assert reg.class_dists().tolist() == expected
    # the Delta_3 and Delta_4 reads of ``class_adjacency`` (which reads no
    # distance when |G| <= d), pair by pair
    for d in (3, 4):
        if reg.ct.n > d:
            assert (reg.class_dists() <= d - 2).tolist() == \
                [[joined(reg, ri & rj, d) for rj in rows] for ri in rows]
    fresh = SubgroupRegistry(G.cayley_table())
    for mask in sorted({ri & rj for ri in rows for rj in rows}):
        assert fresh.mask_dist(mask) == reference_dist(reg, mask), mask
    if group_id == "PSL(2,13)":
        # the masks span more than one uint64 word
        assert max(rows).bit_length() > 64


def test_class_dists_triangle_matches_the_full_grid():
    # ``class_dists`` decides the class pairs i <= j and mirrors them; a
    # copy of the rows makes ``class_block`` decide the whole grid
    groups = [e.group() for e in default_catalog() if e.group().order <= 2048]
    assert len(groups) == 46
    with caps(max_dense_order=8000):
        groups.append(_group("A5xA5"))
        for G in groups:
            reg = SubgroupRegistry(G.cayley_table())
            rows = reg.row_classes()[1]
            full = class_block(rows, list(rows), reg.mask_dist, np.int8(0))
            assert np.array_equal(reg.class_dists(), full), G.order


def test_a5xa5_maximal_subgroups_and_isolated_vertices():
    # A5 x A5 has the maximal subgroups M x A5 and A5 x M, M one of the
    # 21 maximal subgroups of A5 (5 A4, 6 D10, 10 S3), and the 120
    # diagonals {(a, a^phi)}, phi in Aut(A5) = S5; an element with a
    # trivial coordinate lies in a proper normal subgroup with every
    # other element, so the 59 + 59 + 1 such elements are isolated in
    # Delta_2
    with caps(max_dense_order=3600):
        G = _group("A5xA5")
        reg = registry_for(G)
        images = [p.images for p in reg.ct.elements]
        kinds = Counter()
        for M in reg.maximal_subgroups():
            left = {images[x][:5] for x in M}
            right = {images[x][5:] for x in M}
            if len(M) == len(left) == len(right) == 60:
                kinds["diagonal"] += 1
            else:
                assert len(M) == len(left) * len(right)
                proper = ("A5 x M", len(right)) if len(left) == 60 else \
                    ("M x A5", len(left))
                kinds[proper] += 1
        assert kinds == {"diagonal": 120,
                         ("A5 x M", 12): 5, ("A5 x M", 10): 6,
                         ("A5 x M", 6): 10, ("M x A5", 12): 5,
                         ("M x A5", 10): 6, ("M x A5", 6): 10}
        assert delta_summary(G, 2).n_vertices == 3600 - 119
        fixed = (tuple(range(5)), tuple(range(5, 10)))
        assert np.flatnonzero(element_components(G, 2) < 0).tolist() == \
            [x for x, img in enumerate(images)
             if img[:5] == fixed[0] or img[5:] == fixed[1]]
