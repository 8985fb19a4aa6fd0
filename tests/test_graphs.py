import io
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from rankgraph import GroupArgumentError, Permutation, group_from_generators
from rankgraph.catalog import default_catalog, symmetric
from rankgraph.graphs import (
    build_lambda,
    class_adjacency,
    class_eccentricities,
    delta_summary,
    element_components,
    export_dot,
)
from rankgraph.group_structure import min_rank, registry_for

from oracles import (
    ElementGraph,
    bfs_components,
    bfs_diameters,
    brute_generates,
    build_delta_d,
    build_gamma_d,
    components,
    conj,
    edge_witness,
    element_dot,
    is_edge_d,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, *cycles)


class TestEdgePredicate:
    def test_a5_generating_pair(self, A5):
        x = cyc(5, [0, 1, 2, 3, 4])
        y = cyc(5, [0, 1], [2, 3])
        assert brute_generates(A5, [x, y])
        assert is_edge_d(A5, x, y, 2)

    def test_equal_vertices_error(self, A5):
        x = cyc(5, [0, 1, 2])
        with pytest.raises(GroupArgumentError):
            is_edge_d(A5, x, x, 2)

    def test_elementary_abelian_rank3(self):
        # edge iff a third basis vector completes the pair
        G = group_from_generators(6, [cyc(6, [0, 1]), cyc(6, [2, 3]),
                                      cyc(6, [4, 5])])
        a, b, c = cyc(6, [0, 1]), cyc(6, [2, 3]), cyc(6, [4, 5])
        assert is_edge_d(G, a, b, 3)
        assert is_edge_d(G, a, a * b, 3)
        assert not is_edge_d(G, a, G.identity, 3)  # <a, 1> needs 2 more

    def test_small_group_equal_to_d(self, V4):
        # |G| = d: the whole group is the only size-d subset and generates
        a, b = V4.generators[0], V4.generators[1]
        assert is_edge_d(V4, a, b, 4)
        assert not is_edge_d(V4, a, b, 5)

    def test_witness_is_generating_set_of_size_d(self, S4):
        x, y = cyc(4, [0, 1]), cyc(4, [1, 2])
        for d in (2, 3):
            if is_edge_d(S4, x, y, d):
                W = edge_witness(S4, x, y, d)
                assert len(W) == d and x in W and y in W
                assert brute_generates(S4, list(W))

    def test_edge_symmetry(self, S4):
        rng = random.Random(2)
        els = S4.elements()
        for _ in range(40):
            x, y = rng.sample(els, 2)
            for d in (2, 3):
                assert is_edge_d(S4, x, y, d) == is_edge_d(S4, y, x, d)

    def test_monotonicity_in_d(self, S4):
        rng = random.Random(3)
        els = S4.elements()
        for _ in range(40):
            x, y = rng.sample(els, 2)
            for d in (2, 3, 4):
                if is_edge_d(S4, x, y, d) and S4.order > d + 1:
                    assert is_edge_d(S4, x, y, d + 1)


class TestGammaDelta:
    def test_cyclic_rejected(self):
        C6 = group_from_generators(6, [cyc(6, list(range(6)))])
        with pytest.raises(GroupArgumentError):
            build_gamma_d(C6, 2)

    def test_klein_triangle(self, V4):
        delta = build_delta_d(V4, 2)
        assert delta.n_vertices == 3 and delta.n_edges == 3

    def test_a5_rank_graph(self, A5):
        delta = build_delta_d(A5, 2)
        assert delta.n_vertices == 59  # identity is the only isolated vertex
        gamma = build_gamma_d(A5, 2)
        assert gamma.n_vertices == 60

    def test_gamma_below_min_rank_is_edgeless(self):
        G = group_from_generators(6, [cyc(6, [0, 1]), cyc(6, [2, 3]),
                                      cyc(6, [4, 5])])
        gamma = build_gamma_d(G, 2)  # d(G) = 3
        assert gamma.n_edges == 0

    def test_delta_summary_matches_built_graph(self, S4):
        for d in (2, 3):
            graph = build_delta_d(S4, d)
            comps = components(graph)
            s = delta_summary(S4, d)
            assert (s.n_vertices, s.n_edges, s.n_components) == \
                (graph.n_vertices, graph.n_edges, comps.count)


@pytest.mark.parametrize("d", [2, 3])
def test_delta_is_gamma_without_isolated_vertices(catalog_entries, d):
    for entry in catalog_entries:
        G = entry.group()
        if G.order > 120 or min_rank(G).d < 2:
            continue
        gamma, delta = build_gamma_d(G, d), build_delta_d(G, d)
        keep = [v for v, nbrs in enumerate(gamma.adjacency) if nbrs]
        renumber = {v: k for k, v in enumerate(keep)}
        assert delta.labels == [gamma.labels[v] for v in keep], entry.id
        assert delta.adjacency == [[renumber[w] for w in gamma.adjacency[v]]
                                   for v in keep], entry.id
        assert (delta.kind, delta.meta) == (gamma.kind, gamma.meta)


NON_CYCLIC_360 = [e for e in default_catalog()
                  if e.group().order <= 360 and min_rank(e.group()).d > 1]


class TestComponentsAndDiameter:
    def test_edgeless_graph(self):
        g = ElementGraph.from_matrix("rank-d", list(range(4)),
                                     np.zeros((4, 4), dtype=bool))
        comps = components(g)
        assert comps.count == 4
        assert not comps.connected

    def test_a5_connected_diameter_two(self, A5):
        s = delta_summary(A5, 2, with_diameter=True)
        assert s.connected
        assert s.diameter == 2

    def test_s4_generating_graph_diameter(self, S4):
        s = delta_summary(S4, 2, with_diameter=True)
        assert s.connected
        assert s.diameter <= 3

    @pytest.mark.parametrize("build,d", [(build_gamma_d, 2),
                                         (build_gamma_d, 3),
                                         (build_delta_d, 3)],
                             ids=["gamma2", "gamma3", "delta3"])
    @pytest.mark.parametrize("entry", NON_CYCLIC_360, ids=lambda e: e.id)
    def test_class_sources_match_all_sources(self, entry, build, d):
        # one search per row class against a search from every vertex;
        # Gamma_d keeps its isolated vertices, so several components are
        # compared
        G = entry.group()
        graph = build(G, d)
        assert _class_diameters(G, d, graph) == \
            bfs_diameters(graph.adjacency)
        if build is build_delta_d:
            assert delta_summary(G, d, with_diameter=True).diameter == \
                max(bfs_diameters(graph.adjacency).values(), default=0)


def _per_component(ids, ecc):
    """The largest of ``ecc`` over the vertices of each component id."""
    diam = dict.fromkeys(ids, 0)
    for c, e in zip(ids, ecc):
        diam[c] = max(diam[c], int(e))
    return diam


def _class_diameters(G, d, graph):
    """Diameter per component of an element graph of G, each vertex
    given the eccentricity of its row class in the class adjacency."""
    classes = registry_for(G).row_classes()[0]
    ecc = class_eccentricities(class_adjacency(G, d),
                               list(map(len, classes)))
    class_of = {x: k for k, members in enumerate(classes) for x in members}
    ct = G.cayley_table()
    return _per_component(components(graph).ids,
                          [ecc[class_of[ct.index[p.images]]]
                           for p in graph.labels])


def _expand(adj, sizes):
    """The element graph of a class adjacency: sizes[i] elements per
    class i, distinct elements joined where their classes are."""
    node_of = np.repeat(np.arange(len(sizes)), sizes)
    return ElementGraph.from_matrix("rank-d", node_of.tolist(),
                                    adj[np.ix_(node_of, node_of)])


class TestTwinDistance:
    # two or more elements of one class are one step apart when their
    # class is joined inside, else two steps, through another class
    @pytest.mark.parametrize("adj,sizes,ecc", [
        ([[True, True], [True, False]], [2, 1], [1, 1]),
        ([[False, True], [True, False]], [2, 1], [2, 1]),
        ([[True, False], [False, False]], [3, 2], [1, 0])],
        ids=["joined-inside", "not-joined-inside", "only-inside"])
    def test_twin_rule_matches_bfs(self, adj, sizes, ecc):
        adj = np.array(adj)
        graph = _expand(adj, sizes)
        ours = class_eccentricities(adj, sizes)
        assert ours.tolist() == ecc
        assert _per_component(components(graph).ids, ours[graph.labels]) \
            == bfs_diameters(graph.adjacency)


def _edge_matrix(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for v, w in edges:
        adj[v, w] = adj[w, v] = True
    return adj


@st.composite
def _random_graphs(draw):
    n = draw(st.integers(0, 30))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]),
                          max_size=2 * n))
    return n, edges


@st.composite
def _sparse_graphs(draw):
    """Paths through the vertices in a drawn order, cut at random, plus
    a few chords: long paths, several components and isolated vertices."""
    n = draw(st.integers(0, 30))
    order = draw(st.permutations(range(n)))
    links = draw(st.lists(st.integers(0, 4), min_size=max(n - 1, 0),
                          max_size=max(n - 1, 0)))
    edges = [(v, w) for v, w, k in zip(order, order[1:], links) if k]
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += draw(st.lists(pairs.filter(lambda e: e[0] != e[1]),
                               max_size=n // 4))
    return n, edges


class TestFrontierSearchAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(_random_graphs())
    def test_components_match_bfs(self, graph):
        n, edges = graph
        comps = components(ElementGraph.from_matrix(
            "rank-d", list(range(n)), _edge_matrix(n, edges)))
        ids = bfs_components(n, edges)
        count = len(set(ids))
        assert comps.ids == ids
        assert comps.count == count
        assert comps.sizes == [ids.count(c) for c in range(count)]

    @settings(max_examples=150, deadline=None)
    @given(_sparse_graphs(), st.randoms(use_true_random=False))
    @example((0, []), random.Random(0))
    @example((12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                   (7, 8), (8, 9), (9, 10), (10, 7)]), random.Random(0))
    def test_diameter_matches_bfs(self, graph, rng):
        n, edges = graph
        adjacency = [set() for _ in range(n)]
        for v, w in edges:
            adjacency[v].add(w)
            adjacency[w].add(v)
        adj = _edge_matrix(n, edges)
        # from_matrix ignores the diagonal
        adj[np.diag_indices(n)] = [rng.random() < 0.5 for _ in range(n)]
        graph = ElementGraph.from_matrix("rank-d", list(range(n)), adj)
        assert graph.adjacency == [sorted(a) for a in adjacency]
        assert graph.n_edges == len({frozenset(e) for e in edges})
        # classes of one element: the diagonal is ignored there too
        ecc = class_eccentricities(adj, [1] * n)
        assert _per_component(components(graph).ids, ecc) == \
            bfs_diameters(graph.adjacency)


class TestConjugationInvariance:
    def test_components_closed_under_conjugation(self, S4, A5):
        for G in (S4, A5):
            delta = build_delta_d(G, 2)
            comps = components(delta)
            ct = G.cayley_table()
            pos = {ct.index[p.images]: v for v, p in enumerate(delta.labels)}
            for v, p in enumerate(delta.labels):
                x = ct.index[p.images]
                for z in range(ct.n):
                    w = pos.get(conj(ct, x, z))
                    assert w is not None and comps.ids[w] == comps.ids[v]


class TestQuotientLifting:
    def test_connected_component_lifts(self, S4, V4):
        # non-isolated x, y with xM, yM joined in the quotient graph have
        # a translate ym in x's component
        from rankgraph import quotient
        Q, hom = quotient(S4, V4)
        gamma = build_gamma_d(S4, 2)
        comps = components(gamma)
        gq = build_gamma_d(Q, 2)
        comps_q = components(gq)
        ctq = Q.cayley_table()
        vq = {ctq.index[p.images]: v for v, p in enumerate(gq.labels)}
        ct = S4.cayley_table()
        vg = {ct.index[p.images]: v for v, p in enumerate(gamma.labels)}
        non_iso = [p for v, p in enumerate(gamma.labels) if gamma.adjacency[v]]
        m_elems = V4.elements()
        rng = random.Random(4)
        for _ in range(60):
            x, y = rng.choice(non_iso), rng.choice(non_iso)
            cx = comps_q.ids[vq[ctq.index[hom(x).images]]]
            cy = comps_q.ids[vq[ctq.index[hom(y).images]]]
            if cx != cy:
                continue
            target = comps.ids[vg[ct.index[x.images]]]
            assert any(
                comps.ids[vg[ct.index[(y * m).images]]] == target
                for m in m_elems)


def _lambda_graph(S, x, y):
    """``build_lambda``'s block as the bipartite graph on its 2|S|
    vertices, labelled ("x", element) and ("y", element)."""
    block, part_x, part_y = build_lambda(S, x, y)
    empty = np.zeros_like(block)  # both parts have |S| vertices
    return ElementGraph.from_matrix(
        "lambda", [("x", p) for p in part_x] + [("y", p) for p in part_y],
        np.block([[empty, block], [block.T, empty]]))


class TestLambdaGraph:
    def test_s5_over_a5(self, A5):
        S5 = symmetric(5).group()
        odd = [p for p in S5.elements() if not A5.contains(p)]
        graph = _lambda_graph(A5, odd[0], odd[1])
        assert graph.n_vertices == 120
        assert components(graph).connected

    def test_edge_subgroup_contains_socle(self, A5):
        S5 = symmetric(5).group()
        odd = [p for p in S5.elements() if not A5.contains(p)]
        graph = _lambda_graph(A5, odd[0], odd[1])
        offset = 60
        for v in range(3):
            for w in graph.adjacency[v]:
                u1 = graph.labels[v][1]
                u2 = graph.labels[w][1]
                H = group_from_generators(5, [u1, u2])
                assert H.contains_group(A5)

    def test_trivial_socle_smoke(self):
        S = group_from_generators(3, [])
        x = cyc(3, [0, 1, 2])
        y = cyc(3, [0, 1])
        graph = _lambda_graph(S, x, y)
        # single-element cosets; an edge iff the two elements generate
        assert graph.n_vertices == 2
        assert graph.n_edges == (1 if brute_generates(
            group_from_generators(3, [x, y]), [x, y]) else 0)

    def test_identical_representatives_rejected(self, A5):
        x = cyc(5, [0, 1])
        with pytest.raises(GroupArgumentError):
            build_lambda(A5, x, x)

    def test_distinct_coset_instance_has_isolated_identity(self, A5):
        S5 = symmetric(5).group()
        x = cyc(5, [0, 1])
        graph = _lambda_graph(A5, x, Permutation.identity(5))
        iso = [v for v in range(graph.n_vertices) if not graph.adjacency[v]]
        assert iso  # the identity vertex cannot be joined to anything
        assert not components(graph).connected


def _dot(G, d, keep_isolated):
    sink = io.StringIO()
    export_dot(G, d, keep_isolated, sink)
    return sink.getvalue()


class TestExportDot:
    def test_empty_graph(self):
        # d(E2^3) = 3: Delta_2 has no vertex
        G = group_from_generators(6, [cyc(6, [0, 1]), cyc(6, [2, 3]),
                                      cyc(6, [4, 5])])
        text = _dot(G, 2, False)
        assert text.splitlines()[0].startswith("graph")
        assert "--" not in text

    def test_triangle(self, V4):
        text = _dot(V4, 2, False)
        assert text.count("--") == 3
        assert text.count("label=") == 3

    def test_stable_ordering(self, V4):
        assert _dot(V4, 2, False) == _dot(V4, 2, False) == \
            element_dot(build_delta_d(V4, 2))


@pytest.mark.parametrize("build,d", [(build_gamma_d, 2), (build_delta_d, 2),
                                     (build_gamma_d, 3), (build_delta_d, 3)],
                         ids=["gamma2", "delta2", "gamma3", "delta3"])
def test_streamed_dot_matches_element_graph(build, d):
    # each element's neighbours streamed from its class's row against the
    # neighbour lists of the gathered element matrix
    for entry in NON_CYCLIC_360:
        G = entry.group()
        assert _dot(G, d, build is build_gamma_d) == \
            element_dot(build(G, d)), entry.id


def _partition(ids) -> list:
    """The ids renumbered in the order of their first appearance."""
    first = {}
    return [first.setdefault(c, len(first)) for c in ids]


class TestElementComponents:
    def test_isolated_elements_have_labels_of_their_own(self):
        # d(E2^3) = 3: all 8 elements are isolated in Gamma_2
        G = group_from_generators(6, [cyc(6, [0, 1]), cyc(6, [2, 3]),
                                      cyc(6, [4, 5])])
        assert element_components(G, 2).tolist() == \
            [-1 - x for x in range(8)]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_labels_match_element_graph_components(self, d):
        for entry in NON_CYCLIC_360:
            G = entry.group()
            labels = element_components(G, d)
            gamma = build_gamma_d(G, d)
            assert _partition(labels.tolist()) == \
                _partition(components(gamma).ids), entry.id
            assert (labels >= 0).tolist() == \
                [bool(nbrs) for nbrs in gamma.adjacency], entry.id
