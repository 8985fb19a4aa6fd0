"""Differential checks against independent libraries.

sympy's ``combinatorics`` package checks group orders, membership,
conjugacy classes, derived series and normal closures on random
permutation groups; networkx checks the component counts and diameters
of rank graphs.  Each half is skipped when its library is not installed.
"""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rankgraph import (
    Permutation,
    caps,
    group_from_generators,
    normal_closure,
)
from rankgraph.catalog import default_catalog
from rankgraph.graphs import (
    class_adjacency,
    class_eccentricities,
    component_labels,
    element_components,
)
from rankgraph.group_structure import min_rank, registry_for
from rankgraph.perm_core import derived_subgroup

from oracles import build_delta_d, components


def _generator_sets(max_degree=7, max_gens=3):
    return st.integers(1, max_degree).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.permutations(range(n)).map(tuple), min_size=1,
                 max_size=max_gens),
        st.lists(st.permutations(range(n)).map(tuple), min_size=1,
                 max_size=4)))


@settings(max_examples=60, deadline=None)
@given(_generator_sets())
def test_order_membership_classes_match_sympy(case):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n, gens, probes = case
    ours = group_from_generators(n, [Permutation(g) for g in gens])
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in gens])
    assert ours.order == theirs.order()
    for p in probes:
        assert ours.contains(Permutation(p)) == \
            theirs.contains(combinatorics.Permutation(list(p)))
    # degree 7 reaches order 5040, above the default dense cap
    with caps(max_dense_order=5040):
        classes = ours.cayley_table().classes
    assert len(classes) == len(theirs.conjugacy_classes())


@settings(max_examples=60, deadline=None)
@given(_generator_sets(), st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_derived_series_and_normal_closure_match_sympy(case, word):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n, gens, _ = case
    ours = group_from_generators(n, [Permutation(g) for g in gens])
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in gens])
    # sympy's series stops before the first term equal to its predecessor
    orders = [ours.order]
    current = derived_subgroup(ours)
    while current.order < orders[-1]:
        orders.append(current.order)
        current = derived_subgroup(current)
    assert orders == [H.order() for H in theirs.derived_series()]
    # the normal closure of a word in the generators, multiplied left to
    # right under both libraries' convention
    seed = Permutation(tuple(range(n)))
    for i in word:
        seed = seed * Permutation(gens[i % len(gens)])
    assert normal_closure(ours, [seed]).order == theirs.normal_closure(
        combinatorics.Permutation(list(seed.images))).order()


# rank graphs are defined for the non-cyclic groups
NON_CYCLIC = [e for e in default_catalog()
              if e.group().order <= 120 and min_rank(e.group()).d > 1]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("entry", NON_CYCLIC, ids=lambda e: e.id)
def test_delta_components_and_diameter_match_networkx(entry, d):
    nx = pytest.importorskip("networkx")
    graph = build_delta_d(entry.group(), d)
    comps = components(graph)
    theirs = nx.Graph()
    theirs.add_nodes_from(range(graph.n_vertices))
    theirs.add_edges_from((v, w) for v, nbrs in enumerate(graph.adjacency)
                          for w in nbrs)
    assert comps.count == nx.number_connected_components(theirs)
    # the element labels, read at the elements of Delta_d (vertex v is
    # the v-th element labelled >= 0)
    labels = element_components(entry.group(), d)
    keep = [x for x, c in enumerate(labels.tolist()) if c >= 0]
    assert len(keep) == graph.n_vertices
    assert {frozenset(x for x in keep if labels[x] == c)
            for c in set(labels[keep].tolist())} == \
        {frozenset(keep[v] for v in c)
         for c in nx.connected_components(theirs)}
    # per component of the non-isolated row classes, the largest class
    # eccentricity
    adj = class_adjacency(entry.group(), d)
    sizes = list(map(len, registry_for(entry.group()).row_classes()[0]))
    ecc = class_eccentricities(adj, sizes)
    active = adj.any(axis=1)
    labels = component_labels(adj)
    ours = sorted(int(ecc[active & (labels == c)].max())
                  for c in set(labels[active].tolist()))
    assert ours == sorted(nx.diameter(theirs.subgraph(c))
                          for c in nx.connected_components(theirs))
