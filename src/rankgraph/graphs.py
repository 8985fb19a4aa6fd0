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

``class_block`` decides a whole block of class pairs at once: it ANDs
the masks as numpy ``uint64`` words and tests each distinct ANDed mask
once, so the Python work grows with the number of distinct masks, not
with the number of pairs.

Rank-graph statistics come from the class adjacency alone
(``delta_summary``): elements with equal rows have the same neighbours,
so counts, components and diameters are read off the row classes.
Element graphs are held as a symmetric boolean adjacency matrix
(``ElementGraph.from_matrix``) for DOT export and per-vertex components.
One frontier search (``_levels``) finds components
(``component_labels``, ``components``) and class eccentricities
(``class_eccentricities``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .perm_core import GroupArgumentError, Permutation, PermutationGroup
from .group_structure import min_rank, registry_for


# ---------------------------------------------------------------------------
# graph containers


@dataclass
class ElementGraph:
    """Simple undirected graph on labelled vertices, held as a symmetric
    boolean adjacency matrix with a zero diagonal; build it with
    ``from_matrix``."""

    kind: str  # "generating" | "rank-d" | "lambda" | "crown"
    labels: list
    matrix: object  # numpy bool array, n_vertices x n_vertices
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_matrix(cls, kind: str, labels: list, adj,
                    meta: Optional[dict] = None) -> "ElementGraph":
        """The graph on ``labels`` whose distinct vertices v, w are joined
        where ``adj[v, w]``; ``adj`` is symmetric and boolean, and its
        diagonal is ignored."""
        import numpy as np
        adj = np.array(adj, dtype=bool)
        np.fill_diagonal(adj, False)
        return cls(kind, labels, adj, dict(meta or {}))

    @cached_property
    def adjacency(self) -> list:
        """The sorted neighbour list of each vertex."""
        import numpy as np
        return [np.flatnonzero(row).tolist() for row in self.matrix]

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return int(self.matrix.sum()) // 2


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
    """Components numbered in the order of their least vertex, found by
    ``component_labels`` on the graph's boolean matrix."""
    import numpy as np
    ids = component_labels(graph.matrix)
    count = int(ids.max()) + 1 if len(ids) else 0
    return Components(ids.tolist(), count,
                      np.bincount(ids, minlength=count).tolist())


def _levels(adj, source: int, unseen):
    """The levels of a frontier search of the boolean adjacency ``adj``
    from ``source``: ``[source]``, then each unseen node adjacent to the
    level before, as arrays of node indices.  ``unseen`` is a boolean
    mask over the nodes; the nodes reached are cleared in it."""
    import numpy as np
    unseen[source] = False
    level = np.array([source])
    while len(level):
        yield level
        level = np.flatnonzero(adj[level].any(axis=0) & unseen)
        unseen[level] = False


# ---------------------------------------------------------------------------
# class blocks

# numpy is imported where it is used: importing it with this module, ahead
# of the modules the CLI imports after it, raised the peak RSS of the
# benchmark's crown pass by 0.6 MB (CPython 3.11, numpy 2.4, x86-64).

# Left masks ANDed with all right masks at a time; the temporary holds
# rows * len(right) * words uint64 cells.
_BLOCK_ROWS = 32
_WORD = (1 << 64) - 1


def _mask_words(masks: list, n_words: int):
    """The masks as rows of ``n_words`` uint64 words, low word first."""
    import numpy as np
    out = np.empty((len(masks), n_words), dtype="<u8")
    for k in range(n_words):
        out[:, k] = [(m >> (64 * k)) & _WORD for m in masks]
    return out


def class_block(left: list, right: list,
                joined: Optional[Callable[[int], bool]] = None):
    """Boolean matrix of the pairs (left[i], right[j]) of incidence masks
    whose AND is joined.

    An empty AND is always joined (the two elements generate).  The
    masks are ANDed as uint64 words, ``_BLOCK_ROWS`` left rows at a time,
    and each distinct non-empty AND of a row block is decided once by
    ``joined``, which callers memoise on the mask; without ``joined`` no
    non-empty AND is joined.
    """
    import numpy as np
    widest = max(map(int.bit_length, left + right), default=0)
    n_words = max(1, -(-widest // 64))
    left_w, right_w = _mask_words(left, n_words), _mask_words(right, n_words)
    out = np.empty((len(left), len(right)), dtype=bool)
    for start in range(0, len(left), _BLOCK_ROWS):
        anded = left_w[start:start + _BLOCK_ROWS, None, :] & right_w[None]
        block = ~anded.any(axis=2)
        rest = ~block
        if joined is not None and rest.any():
            # one little-endian byte string per mask, low word first
            found = anded[rest].view(f"V{8 * n_words}")[:, 0].tolist()
            verdict = {key: joined(int.from_bytes(key, "little"))
                       for key in set(found)}
            block[rest] = list(map(verdict.__getitem__, found))
        out[start:start + len(block)] = block
    return out


def component_labels(adj):
    """Component id per node of a symmetric boolean adjacency matrix,
    numbered in the order of each component's least node.

    Each component is grown from its least node by the frontier search
    of ``_levels``.
    """
    import numpy as np
    labels = np.full(len(adj), -1, dtype=np.intp)
    unseen = np.ones(len(adj), dtype=bool)
    count = 0
    for source in range(len(adj)):
        if unseen[source]:
            for level in _levels(adj, source, unseen):
                labels[level] = count
            count += 1
    return labels


def class_eccentricities(adj, sizes: list):
    """Eccentricity of the elements of each row class in their component
    of the element graph, from the symmetric class adjacency ``adj``,
    whose diagonal says that a class is joined inside, and the class
    sizes; 0 for an isolated class.

    An element reaches another class as its class does, so one frontier
    search over ``adj`` with the diagonal cleared serves the whole class.
    For a non-isolated class of two or more elements this is raised to
    the distance between two of them: 1 if the class is joined inside,
    else 2, through a common neighbour in another class.
    """
    import numpy as np
    inside = adj.diagonal().copy()
    twin = np.where(inside, 1, 2) * (adj.any(axis=1) & (np.array(sizes) > 1))
    adj = adj.copy()
    np.fill_diagonal(adj, False)
    k = len(adj)
    ecc = [sum(1 for _ in _levels(adj, c, np.ones(k, dtype=bool))) - 1
           for c in range(k)]
    return np.maximum(np.array(ecc, dtype=np.intp), twin)


# ---------------------------------------------------------------------------
# rank-graph edge machinery


class EdgeOracle:
    """Gamma_d edge tests of one dense group, by maximal-subgroup incidence.

    An edge test only sees the AND of the two incidence rows, so elements
    with equal rows are interchangeable: edges are decided once per pair
    of row classes (``class_adjacency``) and expanded to elements by the
    builders.
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
        self.heads = [self.rows[c[0]] for c in self.classes]
        self.sizes = [len(c) for c in self.classes]

    def class_adjacency(self, d: int):
        """Symmetric boolean matrix of the joined pairs of row classes.

        The diagonal entry of class i says that its elements are pairwise
        joined; it is False for classes of one element.
        """
        import numpy as np
        n, k = self.ct.n, len(self.classes)
        if n <= d:
            adj = np.full((k, k), n == d)
        else:
            reg = self.reg
            adj = class_block(self.heads, self.heads, None if d == 2 else
                              (lambda mask: reg.mask_dist(mask) <= d - 2))
        adj[np.diag_indices(k)] &= np.array(self.sizes) > 1
        return adj


def _oracle_for(G: PermutationGroup) -> EdgeOracle:
    ct = G.cayley_table()
    oracle = getattr(ct, "_edge_oracle", None)
    if oracle is None:
        oracle = EdgeOracle(G)
        ct._edge_oracle = oracle
    return oracle


def build_gamma_d(G: PermutationGroup, d: int) -> ElementGraph:
    """Gamma_d on all elements of G (isolated vertices included)."""
    return _rank_graph(G, d, drop_isolated=False)


def build_delta_d(G: PermutationGroup, d: int) -> ElementGraph:
    """Delta_d: Gamma_d with isolated vertices removed."""
    return _rank_graph(G, d, drop_isolated=True)


def _rank_graph(G: PermutationGroup, d: int,
                drop_isolated: bool) -> ElementGraph:
    """Gamma_d, or Delta_d with ``drop_isolated``: the class adjacency
    gathered at the row class of each element."""
    _check_graph_args(G, d)
    oracle = _oracle_for(G)
    import numpy as np
    node_of = np.empty(oracle.ct.n, dtype=np.intp)
    for k, members in enumerate(oracle.classes):
        node_of[members] = k
    keep = np.arange(oracle.ct.n)
    adj = oracle.class_adjacency(d)
    if drop_isolated:
        # a class joined inside has two or more elements, so its diagonal
        # entry never makes an isolated element look joined
        keep = np.flatnonzero(adj[node_of].any(axis=1))
    elements = oracle.ct.elements
    return ElementGraph.from_matrix(
        graph_kind(d), [elements[v] for v in keep.tolist()],
        adj[np.ix_(node_of[keep], node_of[keep])], {"d": d})


def _check_graph_args(G: PermutationGroup, d: int) -> None:
    # cyclicity first: for a cyclic group, d = d(G) = 1 is not the reason
    if G.order > 1 and min_rank(G).d == 1:
        raise GroupArgumentError(
            "rank graphs are defined for non-cyclic groups only")
    if d < 2:
        raise GroupArgumentError("d must be at least 2")


def graph_kind(d: int) -> str:
    """The kind of Gamma_d and Delta_d: the generating graph at d = 2."""
    return "generating" if d == 2 else "rank-d"


@dataclass
class GraphVerdict:
    """Counts, connectivity and (opt-in) diameter of Delta_d, and the
    wall time its caller spent on them."""

    d: int
    n_vertices: int
    n_edges: int
    n_components: int
    connected: bool
    diameter: Optional[int] = None
    elapsed_ms: int = 0


def delta_summary(G: PermutationGroup, d: int,
                  with_diameter: bool = False) -> GraphVerdict:
    """Delta_d from the adjacency of the row classes, with no element
    graph built.

    Every element of a class that has an edge is adjacent to all of that
    edge's other class, so a non-isolated class lies in one component,
    and the components of Delta_d are those of the non-isolated classes.
    With ``with_diameter`` the diameter is the largest eccentricity of a
    non-isolated class (``class_eccentricities``), 0 when Delta_d is
    empty.
    """
    _check_graph_args(G, d)
    oracle = _oracle_for(G)
    import numpy as np
    adj = oracle.class_adjacency(d)
    sizes = np.array(oracle.sizes, dtype=np.int64)
    # ordered pairs of joined elements: |c_i| |c_j| per joined class pair,
    # less the pairs (x, x) of the classes joined inside
    ordered = int(np.einsum("ij,i,j->", adj, sizes, sizes)) - \
        int(sizes @ adj.diagonal())
    active = adj.any(axis=1)
    count = len(set(component_labels(adj)[active].tolist()))
    verdict = GraphVerdict(d, int(sizes[active].sum()), ordered // 2, count,
                           count <= 1)
    if with_diameter:
        verdict.diameter = int(
            class_eccentricities(adj, oracle.sizes)[active].max(initial=0))
    return verdict


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
    import numpy as np
    block = class_block([rows[i] for i in part_x], [rows[j] for j in part_y])
    block &= np.not_equal.outer(part_x, part_y)  # x s1 != y s2
    empty = np.zeros_like(block)  # both parts have |S| vertices
    return ElementGraph.from_matrix(
        "lambda", labels, np.block([[empty, block], [block.T, empty]]),
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
