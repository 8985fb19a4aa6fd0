"""Generating graphs, rank graphs and bipartite coset graphs.

The vertices of Gamma_d and Delta_d are group elements, numbered by
their index in the Cayley table (lexicographic order).  All graphs are
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
interchangeable, so edges are decided per pair of the registry's row
classes (``SubgroupRegistry.row_classes``) by ``class_adjacency``.

At d = 2 ``class_adjacency`` reads the empty ANDs of all class pairs
off ``group_structure.class_block``, which ANDs the masks as numpy
``uint64`` words; at d >= 3 it reads ``SubgroupRegistry.class_dists``,
the distance of every class pair, built once per group by the same
kernel with one ``mask_dist`` call per distinct AND, so Delta_3 and
Delta_4 of a group share one pass.

Everything about Gamma_d and Delta_d is read off ``class_adjacency``:
elements with equal rows have the same neighbours, so counts,
components and diameters come from the row classes (``delta_summary``),
an element's component is that of its class (``element_components``),
and DOT export streams each element's neighbours from its class's row
(``export_dot``); no element-by-element matrix is built.  One frontier
search (``_levels``) finds components (``component_labels``) and class
eccentricities (``class_eccentricities``).  The bipartite coset graph
of ``build_lambda`` is one ``class_block`` between its two parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .perm_core import GroupArgumentError, Permutation, PermutationGroup
from .group_structure import class_block, min_rank, registry_for

# numpy is imported where it is used: importing it with this module, ahead
# of the modules the CLI imports after it, raised the peak RSS of the
# benchmark's crown pass by 0.6 MB (CPython 3.11, numpy 2.4, x86-64).


# ---------------------------------------------------------------------------
# frontier search


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


def _check_graph_args(G: PermutationGroup, d: int) -> None:
    # cyclicity first: for a cyclic group, d = d(G) = 1 is not the reason
    if G.order > 1 and min_rank(G).d == 1:
        raise GroupArgumentError(
            "rank graphs are defined for non-cyclic groups only")
    if d < 2:
        raise GroupArgumentError("d must be at least 2")


def class_adjacency(G: PermutationGroup, d: int):
    """Symmetric boolean matrix of the joined pairs of the row classes
    (``SubgroupRegistry.row_classes``) of Gamma_d.

    An edge test only sees the AND of the two incidence rows, so it is
    decided once per pair of classes: by an empty AND at d = 2, and by
    the class-pair distances ``SubgroupRegistry.class_dists`` at d >= 3.
    The diagonal entry of class i says that its elements are pairwise
    joined; it is False for classes of one element.
    """
    _check_graph_args(G, d)
    import numpy as np
    reg = registry_for(G)
    classes, rows, _ = reg.row_classes()
    n, k = reg.ct.n, len(classes)
    if n <= d:
        adj = np.full((k, k), n == d)
    elif d == 2:
        adj = class_block(rows, rows)
    else:
        adj = reg.class_dists() <= d - 2
    adj[np.diag_indices(k)] &= np.array(list(map(len, classes))) > 1
    return adj


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
    adj = class_adjacency(G, d)
    import numpy as np
    sizes = np.array(list(map(len, registry_for(G).row_classes()[0])),
                     dtype=np.int64)
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
            class_eccentricities(adj, sizes)[active].max(initial=0))
    return verdict


def element_components(G: PermutationGroup, d: int):
    """Component label per element index of Gamma_d: the component of its
    row class in the class adjacency (``component_labels``), or -1 - x for
    an isolated element x, so the elements labelled >= 0 are the vertices
    of Delta_d and two elements share a label exactly when they lie in
    one component."""
    adj = class_adjacency(G, d)
    import numpy as np
    node_of = np.array(registry_for(G).row_classes()[2])
    labels = component_labels(adj)[node_of]
    isolated = np.flatnonzero(~adj.any(axis=1)[node_of])
    labels[isolated] = -1 - isolated
    return labels


# ---------------------------------------------------------------------------
# bipartite coset graph


def build_lambda(S: PermutationGroup, x: Permutation,
                 y: Permutation) -> tuple:
    """Bipartite graph whose parts are the cosets xS and yS in G = <S, x, y>.

    Returns ``(block, part_x, part_y)``: each part as its elements sorted
    by index in G's Cayley table, and the boolean |S| x |S| block whose
    entry (i, j) is True exactly when part_x[i] and part_y[j] are
    distinct and generate G.  The parts are two formally disjoint vertex
    copies (2|S| vertices even when xS = yS as sets).  Instances with
    x = y are rejected: the two parts would be literally the same
    labelled family.
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
    part_x, part_y = (sorted(ct.indices(z * s for s in S.elements()))
                      for z in (x, y))
    import numpy as np
    block = class_block([rows[i] for i in part_x], [rows[j] for j in part_y])
    block &= np.not_equal.outer(part_x, part_y)  # x s1 != y s2
    return block, [ct.perm(i) for i in part_x], [ct.perm(i) for i in part_y]


# ---------------------------------------------------------------------------
# export


def export_dot(G: PermutationGroup, d: int, keep_isolated: bool,
               out) -> tuple:
    """Write Gamma_d, or Delta_d without ``keep_isolated``, to the file
    object ``out`` as deterministic DOT: the kept elements in ascending
    index order, labelled by cycle notation, then the edges (v, w), v < w,
    streamed from the class adjacency one element at a time.  Returns
    the numbers of vertices and edges written."""
    adj = class_adjacency(G, d)
    import numpy as np
    reg = registry_for(G)
    node_of = np.array(reg.row_classes()[2])
    keep = np.arange(reg.ct.n)
    if not keep_isolated:
        # a class joined inside has two or more elements, so its diagonal
        # entry never makes an isolated element look joined
        keep = np.flatnonzero(adj.any(axis=1)[node_of])
    cls = node_of[keep]
    elements = reg.ct.elements
    out.write(f'graph "{graph_kind(d)}" {{\n')
    for v, x in enumerate(keep.tolist()):
        out.write(f'  v{v} [label="{elements[x].cycle_string()}"];\n')
    n_edges = 0
    for v in range(len(cls)):
        nbrs = np.flatnonzero(adj[cls[v], cls[v + 1:]]) + (v + 1)
        n_edges += len(nbrs)
        out.write("".join(f"  v{v} -- v{w};\n" for w in nbrs.tolist()))
    out.write("}\n")
    return len(keep), n_edges
