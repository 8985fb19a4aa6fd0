"""Element graphs: generating graphs, rank graphs and bipartite coset graphs.

Vertices are indices into a deterministic label list; for group-element
graphs the labels are the group elements themselves (lexicographic
order), for coset graphs they are (part, element) pairs.  All graphs are
simple and undirected.

Edge predicate for the d-rank graph: x and y are joined when some
generating set of cardinality exactly d contains both.  This reduces to
d_{x,y}(G) <= d - 2 plus a distinctness repair: a shortest completion
z_1..z_r has each z_{i+1} outside <x, y, z_1..z_i>, so its elements are
pairwise distinct and distinct from x and y, and when |G| > d the set
pads up to cardinality d with fresh elements.  Groups with |G| <= d are
handled exhaustively.

The test runs on maximal-subgroup incidence (P. Hall's view of
generation): with row[x] the bitmask of the maximal subgroups containing
x, the maximal subgroups containing <x, y, z_1..z_r> are the AND of the
rows.  So x ~ y in Delta_2 iff row[x] & row[y] == 0, and in Delta_d iff
the mask row[x] & row[y] can be cleared by at most d - 2 further rows
(``SubgroupRegistry.mask_dist``).  Elements with equal rows are
interchangeable, so edges are decided per pair of row classes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .perm_core import (
    GroupArgumentError,
    Permutation,
    PermutationGroup,
    UnionFind,
)
from .group_structure import min_rank, registry_for


# ---------------------------------------------------------------------------
# graph containers


@dataclass
class ElementGraph:
    """Simple undirected graph on labelled vertices."""

    kind: str  # "generating" | "rank-d" | "lambda" | "crown"
    labels: list
    adjacency: list  # list of sorted neighbour lists
    group: Optional[PermutationGroup] = None
    meta: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass
class Components:
    """Connected components of an ElementGraph."""

    ids: list  # component id per vertex
    count: int
    sizes: list

    @property
    def connected(self) -> bool:
        # the empty graph is trivially connected
        return self.count <= 1


def components(graph: ElementGraph) -> Components:
    """Union-find over the adjacency lists."""
    n = graph.n_vertices
    uf = UnionFind(n)
    for v, nbrs in enumerate(graph.adjacency):
        for w in nbrs:
            uf.union(v, w)
    roots = {}
    ids = [0] * n
    for v in range(n):
        r = uf.find(v)
        if r not in roots:
            roots[r] = len(roots)
        ids[v] = roots[r]
    sizes = [0] * len(roots)
    for c in ids:
        sizes[c] += 1
    return Components(ids, len(roots), sizes)


def diameter(graph: ElementGraph, comps: Optional[Components] = None) -> dict:
    """Exact diameter per component id (all-pairs BFS; opt-in, it dominates)."""
    if comps is None:
        comps = components(graph)
    adj = graph.adjacency
    diam = {c: 0 for c in range(comps.count)}
    for source in range(graph.n_vertices):
        dist = {source: 0}
        queue = [source]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        ecc = max(dist.values()) if dist else 0
        c = comps.ids[source]
        if ecc > diam[c]:
            diam[c] = ecc
    return diam


# ---------------------------------------------------------------------------
# rank-graph edge machinery


class EdgeOracle:
    """Gamma_d edge tests of one dense group, by maximal-subgroup incidence.

    An edge test only sees the AND of the two incidence rows, so elements
    with equal rows are interchangeable: edges are decided once per pair
    of row classes and expanded to elements by the builders.
    """

    def __init__(self, G: PermutationGroup):
        self.group = G
        self.reg = registry_for(G)
        self.ct = self.reg.ct
        self.rows = self.reg.incidence_rows()
        by_row: dict = {}
        for x, row in enumerate(self.rows):
            by_row.setdefault(row, []).append(x)
        # ascending element indices per distinct row, classes by first element
        self.classes = list(by_row.values())

    def joined(self, mask: int, d: int) -> bool:
        """Edge test for distinct x, y with rows[x] & rows[y] == mask."""
        n = self.ct.n
        if n < d:
            return False
        if n == d:
            return True
        return not mask or (d > 2 and self.reg.mask_dist(mask) <= d - 2)

    def edge(self, x: int, y: int, d: int) -> bool:
        """Edge test on element indices, x != y assumed."""
        return self.joined(self.rows[x] & self.rows[y], d)

    def class_edges(self, d: int):
        """Yield (i, j), i <= j, for the joined pairs of row classes.

        (i, i) means the elements of class i are pairwise joined; it is
        yielded only for classes of two or more elements.
        """
        classes, rows, joined = self.classes, self.rows, self.joined
        heads = [rows[c[0]] for c in classes]
        for i, ri in enumerate(heads):
            if len(classes[i]) > 1 and joined(ri, d):
                yield (i, i)
            for j in range(i + 1, len(heads)):
                if joined(ri & heads[j], d):
                    yield (i, j)


def is_edge_d(G: PermutationGroup, x: Permutation, y: Permutation,
              d: int) -> bool:
    """Whether some generating set of G of cardinality exactly d contains x and y."""
    if d < 2:
        raise GroupArgumentError("d must be at least 2")
    if x == y:
        raise GroupArgumentError("x and y must be distinct")
    oracle = _oracle_for(G)
    ct = oracle.ct
    try:
        xi, yi = ct.index[x.images], ct.index[y.images]
    except KeyError:
        raise GroupArgumentError("x and y must lie in G")
    return oracle.edge(xi, yi, d)


def edge_witness(G: PermutationGroup, x: Permutation, y: Permutation,
                 d: int) -> Optional[frozenset]:
    """A generating set of cardinality exactly d containing x and y, or None."""
    if not is_edge_d(G, x, y, d):
        return None
    oracle = _oracle_for(G)
    ct, reg = oracle.ct, oracle.reg
    n = ct.n
    if n == d:
        return frozenset(ct.elements)
    xi, yi = ct.index[x.images], ct.index[y.images]
    chosen = {xi, yi, *reg.climb(oracle.rows[xi] & oracle.rows[yi])}
    for z in range(n):
        if len(chosen) == d:
            break
        chosen.add(z)
    return frozenset(ct.perm(i) for i in chosen)


def _oracle_for(G: PermutationGroup) -> EdgeOracle:
    ct = G.cayley_table()
    oracle = getattr(ct, "_edge_oracle", None)
    if oracle is None:
        oracle = EdgeOracle(G)
        ct._edge_oracle = oracle
    return oracle


def build_gamma_d(G: PermutationGroup, d: int) -> ElementGraph:
    """Gamma_d on all elements of G (isolated vertices included)."""
    _check_graph_args(G, d)
    oracle = _oracle_for(G)
    classes = oracle.classes
    joined_to = [[] for _ in classes]
    for i, j in oracle.class_edges(d):
        joined_to[i].append(j)
        if i != j:
            joined_to[j].append(i)
    adjacency = [None] * oracle.ct.n
    for members, others in zip(classes, joined_to):
        nbrs = sorted(w for j in others for w in classes[j])
        for x in members:
            adjacency[x] = [w for w in nbrs if w != x]
    kind = "generating" if d == 2 else "rank-d"
    return ElementGraph(kind, list(oracle.ct.elements), adjacency, G,
                        {"d": d})


def build_delta_d(G: PermutationGroup, d: int) -> ElementGraph:
    """Delta_d: Gamma_d with isolated vertices removed."""
    gamma = build_gamma_d(G, d)
    keep = [v for v in range(gamma.n_vertices) if gamma.adjacency[v]]
    remap = {v: i for i, v in enumerate(keep)}
    adjacency = [sorted(remap[w] for w in gamma.adjacency[v]) for v in keep]
    return ElementGraph(gamma.kind, [gamma.labels[v] for v in keep],
                        adjacency, G, dict(gamma.meta))


def _check_graph_args(G: PermutationGroup, d: int) -> None:
    if d < 2:
        raise GroupArgumentError("d must be at least 2")
    if G.order > 1 and min_rank(G).d == 1:
        raise GroupArgumentError(
            "rank graphs are defined for non-cyclic groups only")


@dataclass
class DeltaSummary:
    """Streaming connectivity summary of Delta_d (no adjacency stored)."""

    d: int
    n_vertices: int
    n_edges: int
    n_components: int

    @property
    def connected(self) -> bool:
        return self.n_components <= 1


def delta_summary(G: PermutationGroup, d: int) -> DeltaSummary:
    """Connectivity of Delta_d via union-find over joined row classes.

    Every element of a class that has an edge is adjacent to all of that
    edge's other class, so a non-isolated class lies in one component.
    """
    _check_graph_args(G, d)
    oracle = _oracle_for(G)
    classes = oracle.classes
    uf = UnionFind(len(classes))
    non_isolated = bytearray(len(classes))
    n_edges = 0
    for i, j in oracle.class_edges(d):
        ci, cj = len(classes[i]), len(classes[j])
        n_edges += ci * (ci - 1) // 2 if i == j else ci * cj
        non_isolated[i] = non_isolated[j] = 1
        uf.union(i, j)
    active = [i for i in range(len(classes)) if non_isolated[i]]
    return DeltaSummary(d, sum(len(classes[i]) for i in active), n_edges,
                        len({uf.find(i) for i in active}))


# ---------------------------------------------------------------------------
# bipartite coset graph


def build_lambda(S: PermutationGroup, x: Permutation,
                 y: Permutation) -> ElementGraph:
    """Bipartite graph whose parts are the cosets xS and yS in G = <S, x, y>.

    The parts are kept as two formally disjoint vertex copies (2|S|
    vertices even when xS = yS as sets); (x s1, y s2) is an edge exactly
    when the two elements generate G.  Instances with x = y are rejected:
    the two parts would be literally the same labelled family.
    """
    G = PermutationGroup(S.degree, tuple(S.generators) + (x, y))
    if not G.contains(x) or not G.contains(y):
        raise GroupArgumentError("x and y must have the ambient degree")
    from .perm_core import is_normal
    if not is_normal(G, S):
        raise GroupArgumentError("S must be normal in <S, x, y>")
    if x == y:
        raise GroupArgumentError(
            "rejected: x = y gives identical parts for the coset graph")
    reg = registry_for(G)
    ct, rows = reg.ct, reg.incidence_rows()
    s_elems = S.elements()
    part_x = sorted(ct.index[(x * s).images] for s in s_elems)
    part_y = sorted(ct.index[(y * s).images] for s in s_elems)
    labels = [("x", ct.perm(i)) for i in part_x]
    labels += [("y", ct.perm(i)) for i in part_y]
    adjacency = [[] for _ in labels]
    offset = len(part_x)
    for i, xi in enumerate(part_x):
        for j, yj in enumerate(part_y):
            if xi != yj and not rows[xi] & rows[yj]:
                adjacency[i].append(offset + j)
                adjacency[offset + j].append(i)
    for a in adjacency:
        a.sort()
    return ElementGraph("lambda", labels, adjacency, G,
                        {"parts": (len(part_x), len(part_y)),
                         "same_coset": part_x == part_y})


# ---------------------------------------------------------------------------
# export


def _vertex_label(label) -> str:
    if isinstance(label, Permutation):
        return label.cycle_string()
    if isinstance(label, tuple):
        return "|".join(_vertex_label(part) for part in label)
    return str(label)


def export_dot(graph: ElementGraph, sink=None) -> str:
    """Deterministic DOT output; vertices labelled by cycle notation."""
    lines = [f'graph "{graph.kind}" {{']
    for v, label in enumerate(graph.labels):
        lines.append(f'  v{v} [label="{_vertex_label(label)}"];')
    for v, nbrs in enumerate(graph.adjacency):
        for w in nbrs:
            if v < w:
                lines.append(f"  v{v} -- v{w};")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if sink is not None:
        if hasattr(sink, "write"):
            sink.write(text)
        else:
            with open(sink, "w") as fh:
                fh.write(text)
    return text


@dataclass
class GraphStats:
    """One JSON record per analyzed graph."""

    group_id: str
    kind: str
    d: Optional[int]
    n_vertices: int
    n_edges: int
    n_components: int
    diameter: Optional[int]
    elapsed_ms: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def analyze_graph(group_id: str, graph: ElementGraph,
                  with_diameter: bool = False) -> GraphStats:
    t0 = time.perf_counter()
    comps = components(graph)
    diam = None
    if with_diameter and graph.n_vertices:
        diam = max(diameter(graph, comps).values())
    return GraphStats(group_id, graph.kind, graph.meta.get("d"),
                      graph.n_vertices, graph.n_edges, comps.count, diam,
                      int((time.perf_counter() - t0) * 1000))
