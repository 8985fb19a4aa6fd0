"""The class-block kernels against the per-pair oracles.

``delta_summary``, ``weak_connectivity`` and ``crown_graph`` decide edges
in numpy blocks over classes of equal incidence rows (or equal crown
class keys); the oracles in ``oracles.py`` decide one pair at a time.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rankgraph import group_structure
from rankgraph.catalog import default_catalog, find_entry
from rankgraph.crown_powers import (
    CrownGraphBuilder,
    MonolithicGroup,
    delta_Lt,
    weak_connectivity,
)
from rankgraph.graphs import (
    class_adjacency,
    component_labels,
    delta_summary,
)
from rankgraph.group_structure import class_block, min_rank, registry_for

from oracles import (
    bfs_components,
    class_edges,
    class_pair_summary,
    crown_graph,
    pairwise_edges,
    pairwise_weak_connectivity,
)


def _group(group_id):
    return find_entry(default_catalog(), group_id).group()


def check_class_pairs(G, d):
    """The class adjacency and ``delta_summary`` against the class pairs
    joined one at a time."""
    upper = np.triu(class_adjacency(G, d))
    assert set(map(tuple, np.argwhere(upper).tolist())) == \
        set(class_edges(registry_for(G), d))
    s = delta_summary(G, d)
    assert (s.n_vertices, s.n_edges, s.n_components) == \
        class_pair_summary(G, d)


def test_delta_summary_matches_class_pairs_up_to_360():
    checked = 0
    for entry in default_catalog():
        G = entry.group()
        if G.order > 360 or min_rank(G).d == 1:
            continue
        for d in (2, 3, 4):
            check_class_pairs(G, d)
        checked += 1
    assert checked >= 35


def test_delta_summary_matches_class_pairs_on_multiword_masks():
    G = _group("PSL(2,13)")
    # more than 64 maximal subgroups: the masks span two uint64 words
    assert max(registry_for(G).incidence_rows()).bit_length() > 64
    for d in (2, 3, 4):
        check_class_pairs(G, d)


# (L, t, eta, with an orbit table: the SDR path)
WEAK_CASES = [("A5", 3, 1, False), ("S5", 3, 1, False),
              ("PSL(2,7)", 3, 1, False), ("PGL(2,7)", 2, 1, False),
              ("A5", 2, 1, True)]


@pytest.mark.parametrize("gid, t, eta, sdr", WEAK_CASES,
                         ids=[f"{c[0]}-t{c[1]}-eta{c[2]}" + ("-sdr" * c[3])
                              for c in WEAK_CASES])
def test_weak_connectivity_matches_vertex_pairs(gid, t, eta, sdr):
    L = MonolithicGroup.from_group(_group(gid), gid)
    table = delta_Lt(L, t)[1] if sdr else None
    assert dataclasses.asdict(weak_connectivity(L, t, eta, table=table)) == \
        dataclasses.asdict(pairwise_weak_connectivity(L, t, eta, table=table))


def test_crown_graph_matches_vertex_pairs():
    L = MonolithicGroup.from_group(_group("A5"), "A5")
    graph = crown_graph(L, 3, 1, drop_isolated=False)
    expected = [[] for _ in graph.labels]
    for v, w in pairwise_edges(CrownGraphBuilder(L, 3, 1)):
        expected[v].append(w)
        expected[w].append(v)
    assert graph.adjacency == [sorted(nbrs) for nbrs in expected]


# masks of up to three uint64 words with a few bits in each word, so that
# ANDs are often empty in one word and not in another; up to 40 left
# rows, more than one row block holds
_MASKS = st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=3).map(
    lambda words: sum(w << (64 * k) for k, w in enumerate(words))),
    max_size=40)


@settings(max_examples=80, deadline=None)
@given(_MASKS, _MASKS, st.integers(0, 3))
def test_class_block_matches_pairwise_ands(left, right, salt):
    # a predicate that depends on every word of the mask
    def joined(mask):
        return (mask * 2654435761 + salt) % 3 == 0

    calls = []

    def counted(mask):
        calls.append(mask)
        return joined(mask)

    expected = [[not (x & y) or joined(x & y) for y in right] for x in left]
    assert class_block(left, right, counted).tolist() == expected
    assert class_block(left, right).tolist() == \
        [[not (x & y) for y in right] for x in left]
    # one call per distinct non-empty AND of each row block
    rows = group_structure._BLOCK_ROWS
    assert sorted(calls) == sorted(
        m for s in range(0, len(left), rows)
        for m in {x & y for x in left[s:s + rows] for y in right} - {0})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
    max_size=2 * n))))
def test_component_labels_match_bfs(graph):
    n, edges = graph
    adj = np.zeros((n, n), dtype=bool)
    for v, w in edges:
        adj[v, w] = adj[w, v] = True
    assert component_labels(adj).tolist() == bfs_components(n, edges)

