"""Independent oracles used to freeze expected test values.

The brute-force functions work by exhaustive enumeration on raw image
tuples and never touch stabilizer chains, Cayley tables or subgroup
registries.  ``ClosureOracle`` answers generation questions by subgroup
closures alone (a breadth-first closure over Cayley-table rows, interned
in a registry of its own), the path rankgraph took before
maximal-subgroup incidence rows answered them; it never reads incidence
rows, so it checks the row-mask engine, and it never calls the
registry's coset closure, which it checks too.
It also finds the conjugacy classes of subgroups and the maximal
subgroups by joining every class representative with every element,
which checks the cyclic-extension search.  ``is_homomorphism`` checks a
candidate automorphism on the whole multiplication table, where the
search checks it on generators only.  ``exhaustive_automorphisms`` tries
every fingerprint-compatible image tuple of a minimal generating
sequence, where the search tries one tuple per class of tuples under
inner automorphisms, and ``inner_automorphisms`` builds Inn(G) from
conjugation by the generators; ``conj`` conjugates one element index by
table reads, where the library reads the generators' ``conj_rows``,
built with the table.
``isomorphism`` tries every tuple of
equal-order images of a ``min_rank`` witness, extended breadth first on
the Cayley table and checked by ``is_homomorphism``; it shares no code
with the Aut(L) search.  ``circ`` builds an element a . m of a crown
power L_k, ``column_elements`` the elements of L_k with given coordinate
columns, ``crown_group`` L_k as a permutation group with its order from
a chain, and ``crown_generates`` decides generation of L_k by a
stabilizer chain.  ``pairwise_columns_generate`` decides the same
question for large k by the subdirect-product lemma pair by pair, over
the Aut search's map-extension kernel, where ``columns_generate``
compares one Cayley-graph certificate per column.  ``meet_blocks``
counts the blocks of the meet of the row partitions of a column matrix
with a union-find.
``component`` and ``is_congruent`` are helpers on crown powers that only
tests ask, as are ``joined`` and ``is_edge_d``,
the Gamma_d edge test of one mask and of one pair of elements, and
``edge_witness``, a generating set of cardinality d through an edge of
Delta_d.  ``joined`` reads ``reference_dist``, the distance of a mask
by the set recursion over the class rows, where ``mask_dist`` reads
distance 1 off row-avoidance bitsets.  ``union_find_orbits``
labels the orbits of a group on tuples by joining each tuple with its
generator images, where ``orbits_on_tuples`` gathers the whole orbit of
one tuple per orbit from the rows of X.  ``class_edges`` and
``class_pair_summary`` decide Delta_d one pair of the registry's row
classes (``SubgroupRegistry.row_classes``) at a time with a union-find
over the joined pairs, where ``class_adjacency`` decides them in blocks.
``crown_edge`` decides one pair of crown-graph vertex ranks, and
``pairwise_weak_connectivity`` joins every vertex pair of a crown graph
by it; the block kernels of ``graphs`` and the builder's ``_row_block``
are checked against them.  Both read the corrections of a vertex off
``correction_tuples``, built from ``socle_indices``, and not the
builder's own.  On the direct path ``crown_edge`` completes a vertex
pair by ``ClosureOracle.completes`` over the cosets of the free rows,
where the builder searches incidence rows.  On the SDR path it reads
the admissible orbits of a column pair off a dict built tuple by tuple
(``admissible_orbits``), and ``sdr_exists`` decides distinct
representatives by the two-set rule or by trying every choice, where
``_row_block`` reads count and lone-label arrays and matches three or
more sets by augmenting paths.  ``pairwise_weak_connectivity`` then
checks each vertex of a row by its own loop over the conjugators, in
product order of ``socle_word_order`` and conjugated by
``crown_conjugate``.
``pairwise_sampled_weak_connectivity`` redraws the seeded pairs of the
sampled check and decides each of them from those pairwise edges.
``crown_graph`` and ``class_graph_edges`` expand the builder's class
graph to vertex ranks and edges for the tests to compare.
``ElementGraph`` holds a graph as an n x n boolean matrix:
``build_gamma_d`` and ``build_delta_d`` gather the class adjacency at
each element's class, ``components`` labels the vertices and
``element_dot`` writes DOT from the neighbour lists, the element-matrix
path rankgraph took before ``element_components`` and ``export_dot``
read the class adjacency row by row.
``cln_pair_witnesses`` searches the commuting corrections pair by pair
over centralizer sets, where ``cln_witness`` decides the pairs of a
block of rows at once by gathers on the Cayley table.
``permutation_normal_subgroups`` builds the normal-subgroup lattice on
permutations, by Schreier-Sims normal closures of the conjugacy classes
and pairwise joins, where ``normal_subgroups`` computes on class masks
of the Cayley table.  ``permutation_quotient`` finds the cosets of a
normal subgroup by a search over image tuples, taking the least of
n * x over all of N for each coset, where ``quotient`` reads them off
the Cayley table's coset labels.
``brute_cyclic_classes`` labels the conjugacy classes of cyclic
subgroups by mapping each <a> under every conjugator, where
``cyclic_classes`` reads them off the element classes.
``UnionFind`` joins the orbits of ``union_find_orbits`` and the
components of ``class_pair_summary`` and ``pairwise_weak_connectivity``,
and ``bfs_components`` and ``bfs_diameters`` search neighbour lists
breadth first, where rankgraph runs a frontier search over a boolean
matrix.
"""

import random
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Optional

import numpy as np

from rankgraph import (
    GroupArgumentError,
    NotNormalError,
    Permutation,
    PermutationGroup,
    is_normal,
)
from rankgraph.automorphisms import (
    _bfs_schedule,
    _element_fingerprints,
    _extend_map,
    _respects_generators,
)
from rankgraph.crown_powers import (
    CrownGraphBuilder,
    RowCheck,
    WeakConnectivityReport,
    _from_coordinates,
)
from rankgraph.graphs import (
    _check_graph_args,
    class_adjacency,
    component_labels,
    graph_kind,
)
from rankgraph.group_structure import SubgroupRegistry, min_rank, registry_for
from rankgraph.perm_core import StabilizerChain, normal_closure


def mult(p: tuple, q: tuple) -> tuple:
    return tuple(q[i] for i in p)


class UnionFind:
    """Disjoint sets on {0, ..., n-1} with path halving.

    ``union(a, b)`` attaches the root of b under the root of a.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def brute_closure(degree: int, gens) -> set:
    """All products of the generators, by breadth-first multiplication."""
    identity = tuple(range(degree))
    gen_images = [g.images if isinstance(g, Permutation) else tuple(g)
                  for g in gens]
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for img in frontier:
            for g in gen_images:
                prod = mult(img, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


def brute_generates(G, elems) -> bool:
    return len(brute_closure(G.degree, elems)) == G.order


def is_homomorphism(ct_src, ct_dst, sigma) -> bool:
    """sigma is a bijection with sigma(x * y) = sigma(x) * sigma(y) for
    every cell of the source's Cayley table (n^2 cells)."""
    if len(np.unique(sigma)) != ct_src.n:
        return False
    src, dst = ct_src.array, ct_dst.array
    return bool((sigma[src] == dst[sigma][:, sigma]).all())


def conj(ct, x: int, g: int) -> int:
    """Index of g^-1 * x * g in a Cayley table, by three table reads."""
    return ct.table[ct.table[ct.inv[g]][x]][g]


def inner_automorphisms(G) -> PermutationGroup:
    """Inn(G) on element indices, generated by conjugation with the
    generators of G."""
    ct = G.cayley_table()
    gens = [Permutation([conj(ct, x, g) for x in range(ct.n)])
            for g in ct.gen_indices]
    return PermutationGroup(ct.n, gens)


# Words in two letters whose orders every automorphism keeps; letter k
# stands for the k-th generator image.
_WORDS = [
    (0, 1), (1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1), (1, 1, 0, 0, 1),
]


def exhaustive_automorphisms(G) -> list:
    """Every automorphism of G, sorted, by the search without the
    inner-automorphism reduction: every product of the fingerprint
    buckets of a ``min_rank`` witness (rarest bucket first) is tried,
    filtered by word orders and validated by ``_respects_generators``."""
    ct = G.cayley_table()
    fps = _element_fingerprints(ct)
    sizes = {}
    for fp in fps:
        sizes[fp] = sizes.get(fp, 0) + 1
    src = sorted((ct.index[p.images] for p in min_rank(G).witness),
                 key=lambda i: (sizes[fps[i]], i))
    buckets = {}
    for x in range(ct.n):
        buckets.setdefault(fps[x], []).append(x)

    def word_order(gens, word):
        x = ct.identity
        for letter in word:
            if letter >= len(gens):
                return 0
            x = ct.table[x][gens[letter]]
        return ct.order_of[x]

    profile = [word_order(src, w) for w in _WORDS]
    dst = [d for d in product(*(buckets[fps[g]] for g in src))
           if all(word_order(d, w) == wp for w, wp in zip(_WORDS, profile))]
    sigma = _extend_map(ct, _bfs_schedule(ct, src), dst)
    ok = _respects_generators(ct, src, dst, sigma)
    return sorted(Permutation(row) for row in sigma[ok].tolist())


@dataclass
class IsoResult:
    isomorphic: bool
    map: Optional[list] = None  # element-index map when isomorphic


def bfs_extension(ct_src, ct_dst, src, dst) -> list:
    """sigma(1) = 1 and sigma(x * src[k]) = sigma(x) * dst[k], filled
    breadth first from the identity; the first image an element gets is
    kept (-1 where none is reached)."""
    sigma = [-1] * ct_src.n
    sigma[ct_src.identity] = ct_dst.identity
    frontier = [ct_src.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, h in zip(src, dst):
                y = ct_src.table[x][g]
                if sigma[y] < 0:
                    sigma[y] = ct_dst.table[sigma[x]][h]
                    new.append(y)
        frontier = new
    return sigma


def isomorphism(G, H) -> IsoResult:
    """An isomorphism G -> H by brute search: the images of a
    ``min_rank`` witness of G run over every tuple of elements of H of
    the same orders, each is extended by ``bfs_extension``, and the
    first extension that ``is_homomorphism`` accepts is kept."""
    if G.order != H.order:
        return IsoResult(False)
    ct_g, ct_h = G.cayley_table(), H.cayley_table()
    src = [ct_g.index[p.images] for p in min_rank(G).witness]
    by_order = {}
    for y in range(ct_h.n):
        by_order.setdefault(ct_h.order_of[y], []).append(y)
    for dst in product(*(by_order.get(ct_g.order_of[x], []) for x in src)):
        sigma = bfs_extension(ct_g, ct_h, src, dst)
        if is_homomorphism(ct_g, ct_h, np.array(sigma)):
            return IsoResult(True, sigma)
    return IsoResult(False)


def component(cp, p, j: int) -> Permutation:
    """The j-th coordinate of an element of the crown power L_k."""
    d = cp.block_degree
    off = j * d
    return Permutation(p.images[off + i] - off for i in range(d))


def circ(L, a: Permutation, m) -> Permutation:
    """a . m = (a m_1, ..., a m_k) as an element of L_k."""
    if not L.group.contains(a):
        raise GroupArgumentError("a must lie in L")
    for n in m:
        if not L.socle.contains(n):
            raise GroupArgumentError("correction components must lie in the socle")
    return _from_coordinates([a * n for n in m])


def column_elements(L, columns) -> list:
    """The t elements of L^k whose coordinates are given by columns.

    ``columns[j]`` holds the element indices (c_j[1], ..., c_j[t]); the
    s-th element is (c_1[s], ..., c_k[s]) on k copies of L's domain.
    """
    ct = L.ct()
    return [_from_coordinates([ct.perm(col[s]) for col in columns])
            for s in range(len(columns[0]))]


def crown_group(cp) -> PermutationGroup:
    """L_k as the permutation group its generators give, its order from
    a stabilizer chain built without the known order."""
    return PermutationGroup(cp.degree, cp.generators)


def crown_generates(cp, elems) -> bool:
    """Direct stabilizer-chain generation test inside L_k: the oracle
    that ``columns_generate``, ``square_order`` and the orbit criterion
    are checked against."""
    chain = StabilizerChain(cp.degree, elems, known_order=cp.order)
    return chain.order() == cp.order


def pairwise_columns_generate(L, columns) -> bool:
    """The subdirect-product lemma of ``columns_generate`` decided pair
    by pair: (i) by the incidence mask of each column, (ii) by extending
    c_i[s] -> c_j[s] from each column to every later one of equal
    element orders over the Aut search's map-extension kernel, and
    checking the maps on generators.  The reference for large k, where
    a stabilizer chain of L_k is out of reach; the columns must agree
    modulo the socle."""
    ct = L.ct()
    reg = registry_for(L.group)
    if any(reg.mask_of(col) for col in columns):
        return False
    cols = np.array(columns, dtype=np.int64)
    order = np.array(ct.order_of)[cols]
    for i in range(len(cols) - 1):
        # an automorphism keeps element orders: compare those first
        rest = cols[i + 1:][(order[i + 1:] == order[i]).all(1)]
        if not len(rest):
            continue
        gens = columns[i]
        sigma = _extend_map(ct, _bfs_schedule(ct, gens), rest)
        if _respects_generators(ct, gens, rest, sigma).any():
            return False
    return True


def is_congruent(cp, p) -> bool:
    """The coordinates of p lie in one coset of the socle of the crown
    power's base (membership in L_k)."""
    comps = [component(cp, p, j) for j in range(cp.k)]
    first = comps[0]
    N = cp.base.socle
    return all(N.contains(first.inverse() * c) for c in comps[1:])


def meet_blocks(table, columns) -> int:
    """The number of blocks of the meet of the row partitions of a column
    matrix: a union-find joins two positions whenever their entries in
    some row lie in one X-orbit, the orbit of x being column x of the
    rows of X."""
    orbit = table.mono.x_group.min(0).tolist()  # least member per orbit
    uf = UnionFind(len(columns))
    for i in range(table.t):
        first = {}
        for pos, col in enumerate(columns):
            uf.union(first.setdefault(orbit[col[i]], pos), pos)
    return len({uf.find(pos) for pos in range(len(columns))})


_REFERENCE_DISTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reference_dist(reg, mask: int) -> int:
    """d_H(G) for a subgroup H with incidence mask ``mask``, from the
    class rows of a ``SubgroupRegistry``: 0 for the empty mask, else
    1 + the least distance of the masks mask & r != mask, r a class row;
    memoised per registry and mask."""
    memo = _REFERENCE_DISTS.setdefault(reg, {0: 0})
    got = memo.get(mask)
    if got is None:
        smaller = {mask & r for r in reg.row_classes()[1]}
        smaller.discard(mask)
        got = memo[mask] = 1 if 0 in smaller else \
            1 + min(reference_dist(reg, m) for m in smaller)
    return got


def joined(reg, mask: int, d: int) -> bool:
    """The Gamma_d edge test of distinct x, y with rows[x] & rows[y] ==
    mask, for a ``SubgroupRegistry``: the rule ``class_adjacency``
    applies to whole row classes, stated for one pair."""
    n = reg.ct.n
    if n < d:
        return False
    if n == d:
        return True
    return not mask or (d > 2 and reference_dist(reg, mask) <= d - 2)


def is_edge_d(G, x, y, d: int) -> bool:
    """Whether some generating set of G of cardinality exactly d
    contains the distinct elements x and y."""
    if d < 2:
        raise GroupArgumentError("d must be at least 2")
    if x == y:
        raise GroupArgumentError("x and y must be distinct")
    reg = registry_for(G)
    ct, rows = reg.ct, reg.incidence_rows()
    try:
        xi, yi = ct.index[x.images], ct.index[y.images]
    except KeyError:
        raise GroupArgumentError("x and y must lie in G") from None
    return joined(reg, rows[xi] & rows[yi], d)


def edge_witness(G, x, y, d: int):
    """A generating set of cardinality exactly d containing x and y, or
    None: x, y and a ``climb`` of the registry from row[x] & row[y],
    padded by least elements."""
    if not is_edge_d(G, x, y, d):
        return None
    reg = registry_for(G)
    ct, rows = reg.ct, reg.incidence_rows()
    n = ct.n
    if n == d:
        return frozenset(ct.elements)
    xi, yi = ct.index[x.images], ct.index[y.images]
    chosen = {xi, yi, *reg.climb(rows[xi] & rows[yi])}
    for z in range(n):
        if len(chosen) == d:
            break
        chosen.add(z)
    return frozenset(ct.perm(i) for i in chosen)


def union_find_orbits(generators, tuples) -> tuple:
    """Orbits of the group generated by ``generators`` (index
    permutations) on ``tuples``, acting entry-wise, by a union-find over
    the generator images.

    Returns (labels, count), orbits numbered by their least member.
    Raises ``KeyError`` if an image leaves the tuple set.
    """
    index = {t: i for i, t in enumerate(tuples)}
    uf = UnionFind(len(tuples))
    for i, t in enumerate(tuples):
        for g in generators:
            uf.union(i, index[mult(t, g.images)])
    least = {}
    for i, t in enumerate(tuples):
        r = uf.find(i)
        if r not in least or t < least[r]:
            least[r] = t
    number = {r: k for k, r in enumerate(sorted(least, key=least.get))}
    return [number[uf.find(i)] for i in range(len(tuples))], len(number)


def brute_conjugacy_classes(G) -> list:
    """Conjugation orbits by scanning all conjugators."""
    elems = [p.images for p in G.elements()]
    inv = {}
    for img in elems:
        out = [0] * len(img)
        for i, j in enumerate(img):
            out[j] = i
        inv[img] = tuple(out)
    remaining = set(elems)
    classes = []
    while remaining:
        x = min(remaining)
        orbit = {mult(mult(inv[z], x), z) for z in elems}
        classes.append(sorted(orbit))
        remaining -= orbit
    return sorted(classes, key=lambda c: (len(c), c[0]))


def brute_cyclic_classes(G) -> list:
    """Per element x, in the order of ``G.elements()``, a label of the
    conjugacy class of <x>: <a> and <b> get one label iff some g maps <a>
    onto <b> as sets, g^-1 <a> g = <b>."""
    elems = [p.images for p in G.elements()]
    e = tuple(range(G.degree))
    inv = {}
    for img in elems:
        out = [0] * len(img)
        for i, j in enumerate(img):
            out[j] = i
        inv[img] = tuple(out)

    def powers(a) -> frozenset:
        out, x = {e}, a
        while x != e:
            out.add(x)
            x = mult(x, a)
        return frozenset(out)

    label: dict = {}
    classes = 0
    for a in elems:
        S = powers(a)
        if S not in label:
            for g in elems:
                label[frozenset(mult(mult(inv[g], x), g) for x in S)] = \
                    classes
            classes += 1
    return [label[powers(a)] for a in elems]


def brute_centralizer(G, p) -> set:
    return {g.images for g in G.elements()
            if mult(g.images, p.images) == mult(p.images, g.images)}


def brute_subgroups(G, max_gens: int = 2) -> set:
    """All subgroups generated by up to max_gens elements, as frozensets.

    Complete for groups whose every subgroup is max_gens-generated (true
    for the small oracle targets used in the tests).
    """
    elems = [p.images for p in G.elements()]
    found = set()
    for r in range(1, max_gens + 1):
        for combo in combinations(elems, r):
            found.add(frozenset(brute_closure(G.degree, combo)))
    found.add(frozenset([tuple(range(G.degree))]))
    return found


def brute_normal_subgroups(G, max_gens: int = 2) -> set:
    elems = [p.images for p in G.elements()]
    inv = {}
    for img in elems:
        out = [0] * len(img)
        for i, j in enumerate(img):
            out[j] = i
        inv[img] = tuple(out)
    normals = set()
    for H in brute_subgroups(G, max_gens):
        if all(mult(mult(inv[z], h), z) in H for h in H for z in elems):
            normals.add(H)
    return normals


def permutation_normal_subgroups(G) -> tuple:
    """(normal subgroups, minimal normal subgroups) of G on permutations,
    in the order of ``group_structure.normal_subgroups``.

    Each non-identity class, by least element, gets a Schreier-Sims
    normal closure; the first class reaching a subgroup keeps it, and
    every pair of normal subgroups found is joined by a new group on
    both generator lists until no join is new.
    """
    atoms = {}
    for cls in sorted(brute_conjugacy_classes(G), key=lambda c: c[0]):
        rep = Permutation(cls[0])
        if rep.is_identity():
            continue
        N = normal_closure(G, [rep])
        atoms.setdefault(frozenset(p.images for p in N.elements()), N)
    found = dict(atoms)
    trivial_key = frozenset([G.identity.images])
    frontier = list(atoms.items())
    while frontier:
        new = []
        for key, N in frontier:
            for key2, M in list(found.items()):
                if key2 <= key:
                    continue
                J = PermutationGroup(
                    G.degree, tuple(N.generators) + tuple(M.generators),
                    known_order=G.order)
                jkey = frozenset(p.images for p in J.elements())
                if jkey not in found and jkey != trivial_key:
                    found[jkey] = J
                    new.append((jkey, J))
        frontier = new
    found[trivial_key] = PermutationGroup(G.degree, ())
    found[frozenset(p.images for p in G.elements())] = G
    keys = sorted(found, key=lambda key: (len(key), sorted(key)))
    minimal = [found[key] for key in keys if len(key) > 1 and not any(
        1 < len(other) < len(key) and other < key for other in keys)]
    return [found[key] for key in keys], minimal


def permutation_quotient(G, N):
    """(G/N, projection) by the coset search on image tuples: cosets are
    discovered by right multiplication with the generators, each named by
    its least member n * x over all n in N; the quotient acts on them in
    the sorted order of those names."""
    if not is_normal(G, N):
        raise NotNormalError("N is not a normal subgroup of G")
    n_elems = [p.images for p in N.elements()]

    def canonical(img: tuple) -> tuple:
        return min(mult(n, img) for n in n_elems)

    start = canonical(G.identity.images)
    reps = {start}
    frontier = [start]
    gen_images = [g.images for g in G.generators]
    while frontier:
        new = []
        for rep in frontier:
            for g in gen_images:
                c = canonical(mult(rep, g))
                if c not in reps:
                    reps.add(c)
                    new.append(c)
        frontier = new
    rep_list = sorted(reps)
    rep_index = {rep: i for i, rep in enumerate(rep_list)}

    def project_images(img: tuple) -> tuple:
        return tuple(rep_index[canonical(mult(rep, img))] for rep in rep_list)

    Q = PermutationGroup(len(rep_list),
                         [Permutation(project_images(g)) for g in gen_images])
    if Q.order * N.order != G.order:
        raise GroupArgumentError(
            "coset action order mismatch; N is not normal in G")

    def project(p: Permutation) -> Permutation:
        return Permutation(project_images(p.images))

    return Q, project


def brute_maximal_subgroups(G, max_gens: int = 2) -> list:
    subs = brute_subgroups(G, max_gens)
    full = frozenset(p.images for p in G.elements())
    proper = [H for H in subs if H != full]
    return [H for H in proper
            if not any(H < K for K in proper if K != H)]


def brute_frattini(G, max_gens: int = 2) -> frozenset:
    out = frozenset(p.images for p in G.elements())
    for M in brute_maximal_subgroups(G, max_gens):
        out &= M
    return out


def brute_non_generators(G, subset_cap: int = 3) -> frozenset:
    """Frattini via the non-generator characterization (tiny groups only).

    g is a non-generator when every subset S with <S, g> = G already has
    <S> = G; subsets up to subset_cap elements are tested, enough when
    d(G) <= subset_cap.
    """
    elems = [p.images for p in G.elements()]
    out = []
    for g in elems:
        good = True
        for r in range(subset_cap + 1):
            for combo in combinations(elems, r):
                with_g = len(brute_closure(G.degree, combo + (g,)))
                if with_g == G.order and \
                        len(brute_closure(G.degree, combo)) < G.order:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(g)
    return frozenset(out)


def word_lengths(maps, root: int) -> dict:
    """Distance from ``root`` of every node reached by the edges
    p -> maps[k][p]: node x has distance r when it first lies in the
    ball of radius r, grown one radius at a time as a set."""
    dist = {root: 0}
    ball = {root}
    radius = 0
    while True:
        grown = ball | {m[p] for p in ball for m in maps}
        if grown == ball:
            return dist
        radius += 1
        dist.update((x, radius) for x in grown - ball)
        ball = grown


def bfs_components(n: int, edges) -> list:
    """Component id per vertex of an undirected graph on {0, ..., n-1},
    components numbered in the order of their smallest vertex."""
    adjacency = [[] for _ in range(n)]
    for v, w in edges:
        adjacency[v].append(w)
        adjacency[w].append(v)
    ids = [None] * n
    count = 0
    for source in range(n):
        if ids[source] is not None:
            continue
        ids[source] = count
        queue = [source]
        for v in queue:
            for w in adjacency[v]:
                if ids[w] is None:
                    ids[w] = count
                    queue.append(w)
        count += 1
    return ids


def bfs_diameters(adjacency: list) -> dict:
    """Diameter per component of a graph given by neighbour lists, by a
    breadth-first search from every vertex; components are numbered in
    the order of their smallest vertex.  Each level is the set of unseen
    vertices with a neighbour in the level before, which is quick on the
    dense graphs of groups."""
    ids = bfs_components(len(adjacency), [(v, w) for v, nbrs in
                                          enumerate(adjacency) for w in nbrs])
    neighbours = [set(nbrs) for nbrs in adjacency]
    diam = dict.fromkeys(ids, 0)
    for source in range(len(adjacency)):
        unseen = set(range(len(adjacency))) - {source}
        level = {source}
        ecc = -1
        while level:
            ecc += 1
            level = {w for w in unseen if not neighbours[w].isdisjoint(level)}
            unseen -= level
        diam[ids[source]] = max(diam[ids[source]], ecc)
    return diam


class ClosureOracle:
    """Generation answers for one dense group from closures only.

    This keeps the path of the registry's former ``pair_join``,
    ``subgroup_of``, ``dist_to_full`` and ``climb_witness`` methods.
    Subgroups are ids of a fresh ``SubgroupRegistry``; <H, z> is memoized
    on (H, <z>).  ``dist`` is the least r with <H, z_1..z_r> = G, found by
    recursing over the one-element extensions <H, z> of H for the least z
    of each coset Hz.
    """

    def __init__(self, G):
        self.reg = SubgroupRegistry(G.cayley_table())
        self.ct = self.reg.ct
        self.full = self.reg.full_id
        self._joins = {}
        self._dist = {}
        self._completions = {}

    def bfs_close(self, gens) -> int:
        """Subgroup generated by the given element indices, interned: one
        table lookup per element and generator, breadth first.  More than
        |G|/2 elements is the whole group by Lagrange."""
        ct = self.ct
        gens = tuple(dict.fromkeys(g for g in gens if g != ct.identity))
        seen = bytearray(ct.n)
        seen[ct.identity] = 1
        out = [ct.identity]
        for x in out:
            row = ct.table[x]
            for g in gens:
                y = row[g]
                if not seen[y]:
                    if 2 * len(out) > ct.n:
                        return self.full
                    seen[y] = 1
                    out.append(y)
        return self.reg.intern(frozenset(out), gens)

    def join(self, sid: int, z: int) -> int:
        key = (sid, self.ct.cyclic_id[z])
        got = self._joins.get(key)
        if got is None:
            got = self._joins[key] = self.bfs_close(self.reg.gens[sid] + (z,))
        return got

    def closure(self, elems) -> int:
        sid = self.reg.trivial_id
        for z in elems:
            sid = self.join(sid, z)
        return sid

    def generates(self, elems) -> bool:
        return self.closure(elems) == self.full

    def conjugates(self, sid: int) -> frozenset:
        """The conjugacy class of subgroup ``sid``, by every conjugator."""
        ct = self.ct
        members = self.reg.members[sid]
        return frozenset(frozenset(conj(ct, x, g) for x in members)
                         for g in range(ct.n))

    def subgroup_classes(self) -> tuple:
        """(conjugacy classes of subgroups, maximal subgroups), each a set.

        The search ``SubgroupRegistry`` ran before cyclic extension: the
        cyclic subgroups closed under joins with every element, one
        representative per class; H is maximal iff every extension of H
        by the least element of a coset Hz is G.
        """
        reg, n = self.reg, self.ct.n
        classes = {}  # member set of each conjugate -> its class
        reps = []

        def register(sid):
            if reg.members[sid] not in classes:
                cls = self.conjugates(sid)
                classes.update(dict.fromkeys(cls, cls))
                reps.append(sid)

        register(reg.trivial_id)
        for z in range(n):
            register(self.closure((z,)))
        for sid in reps:
            if sid != self.full:
                members = reg.members[sid]
                for z in range(n):
                    if z not in members:
                        register(self.join(sid, z))
        maximal = {H for sid in reps if sid != self.full
                   and all(j == self.full for _, j in self._extensions(sid))
                   for H in classes[reg.members[sid]]}
        return set(classes.values()), maximal

    def _extensions(self, sid: int):
        """(z, <H, z>) for the least z of each coset Hz outside H."""
        members = self.reg.members[sid]
        table = self.ct.table
        seen = bytearray(self.ct.n)
        for z in range(self.ct.n):
            if seen[z]:
                continue
            for h in members:
                seen[table[h][z]] = 1
            if z not in members:
                yield z, self.join(sid, z)

    def dist(self, sid: int) -> int:
        got = self._dist.get(sid)
        if got is None:
            got = 0
            if sid != self.full:
                joins = set()
                for _, j in self._extensions(sid):
                    if j == self.full:
                        got = 1
                        break
                    joins.add(j)
                else:
                    got = 1 + min(self.dist(j) for j in joins)
            self._dist[sid] = got
        return got

    def climb(self, sid: int) -> list:
        """Elements z_1..z_r, r = dist(sid), each the least coset
        representative lowering the distance by one."""
        out = []
        while sid != self.full:
            d = self.dist(sid)
            z, sid = next((z, j) for z, j in self._extensions(sid)
                          if self.dist(j) == d - 1)
            out.append(z)
        return out

    def d_X(self, elems) -> int:
        return self.dist(self.closure(elems))

    def min_rank(self) -> tuple:
        """(d, witness indices) by closures, ascending d: the least class
        representative of full order, else the first generating pair
        (class representative, least y), else the shortest climb."""
        ct = self.ct
        if ct.n == 1:
            return 0, ()
        for cls in ct.classes:
            if ct.order_of[cls[0]] == ct.n:
                return 1, (cls[0],)
        reps = sorted((cls[0] for cls in ct.classes),
                      key=lambda r: (-ct.order_of[r], r))
        for x in reps:
            for y in range(ct.n):
                if self.generates((x, y)):
                    return 2, (x, y)
        x = min(reps, key=lambda r: self.d_X((r,)))
        sid = self.closure((x,))
        return 1 + self.dist(sid), (x, *self.climb(sid))

    def edge_witness(self, x: int, y: int, d: int) -> frozenset:
        """The set ``edge_witness`` builds for a joined pair x != y, when
        |G| > d: x, y and a climb from <x, y>, padded by least elements."""
        chosen = {x, y, *self.climb(self.closure((x, y)))}
        for z in range(self.ct.n):
            if len(chosen) == d:
                break
            chosen.add(z)
        return frozenset(chosen)

    def gaschutz_corrections(self, x_idx, g_idx, m_idx):
        """First n in M^r (lexicographic) with <X, g_1 n_1, ..> = G."""
        table = self.ct.table
        for combo in product(m_idx, repeat=len(g_idx)):
            if self.generates(tuple(x_idx) + tuple(
                    table[g][n] for g, n in zip(g_idx, combo))):
                return combo
        return None

    def generating_tuples(self, cosets) -> list:
        """Every generating tuple in the product of ``cosets``, in
        lexicographic order."""
        return [tup for tup in product(*cosets) if self.generates(tup)]

    def completes(self, sid: int, cosets) -> bool:
        """Whether one element from each coset generates G with H."""
        if not cosets:
            return sid == self.full
        key = (sid, tuple(tuple(c) for c in cosets))
        got = self._completions.get(key)
        if got is None:
            got = self._completions[key] = any(
                self.completes(self.join(sid, z), cosets[1:])
                for z in cosets[0])
        return got


def class_edges(reg, d: int):
    """Yield (i, j), i <= j, for the joined pairs of the row classes of
    a ``SubgroupRegistry``, one ``joined`` test per pair.

    (i, i) means the elements of class i are pairwise joined; it is
    yielded only for classes of two or more elements.
    """
    classes, heads, _ = reg.row_classes()
    for i, ri in enumerate(heads):
        if len(classes[i]) > 1 and joined(reg, ri, d):
            yield (i, i)
        for j in range(i + 1, len(heads)):
            if joined(reg, ri & heads[j], d):
                yield (i, j)


def class_pair_summary(G, d: int) -> tuple:
    """(n_vertices, n_edges, n_components) of Delta_d by a union-find
    over the pairs ``class_edges`` yields."""
    _check_graph_args(G, d)
    reg = registry_for(G)
    classes = reg.row_classes()[0]
    uf = UnionFind(len(classes))
    non_isolated = bytearray(len(classes))
    n_edges = 0
    for i, j in class_edges(reg, d):
        ci, cj = len(classes[i]), len(classes[j])
        n_edges += ci * (ci - 1) // 2 if i == j else ci * cj
        non_isolated[i] = non_isolated[j] = 1
        uf.union(i, j)
    active = [i for i in range(len(classes)) if non_isolated[i]]
    return (sum(len(classes[i]) for i in active), n_edges,
            len({uf.find(i) for i in active}))


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
        adj = np.array(adj, dtype=bool)
        np.fill_diagonal(adj, False)
        return cls(kind, labels, adj, dict(meta or {}))

    @cached_property
    def adjacency(self) -> list:
        """The sorted neighbour list of each vertex."""
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
    ids = component_labels(graph.matrix)
    count = int(ids.max()) + 1 if len(ids) else 0
    return Components(ids.tolist(), count,
                      np.bincount(ids, minlength=count).tolist())


def build_gamma_d(G, d: int) -> ElementGraph:
    """Gamma_d on all elements of G (isolated vertices included)."""
    return _rank_graph(G, d, drop_isolated=False)


def build_delta_d(G, d: int) -> ElementGraph:
    """Delta_d: Gamma_d with isolated vertices removed."""
    return _rank_graph(G, d, drop_isolated=True)


def _rank_graph(G, d: int, drop_isolated: bool) -> ElementGraph:
    """Gamma_d, or Delta_d with ``drop_isolated``: the class adjacency
    gathered at the row class of each element into an element matrix."""
    adj = class_adjacency(G, d)
    ct = G.cayley_table()
    node_of = np.empty(ct.n, dtype=np.intp)
    for k, members in enumerate(registry_for(G).row_classes()[0]):
        node_of[members] = k
    keep = np.arange(ct.n)
    if drop_isolated:
        keep = np.flatnonzero(adj[node_of].any(axis=1))
    elements = ct.elements
    return ElementGraph.from_matrix(
        graph_kind(d), [elements[v] for v in keep.tolist()],
        adj[np.ix_(node_of[keep], node_of[keep])], {"d": d})


def element_dot(graph: ElementGraph) -> str:
    """DOT text of an element graph: its vertices labelled by cycle
    notation, then each edge (v, w), v < w, from the neighbour lists."""
    lines = [f'graph "{graph.kind}" {{']
    for v, label in enumerate(graph.labels):
        lines.append(f'  v{v} [label="{label.cycle_string()}"];')
    for v, nbrs in enumerate(graph.adjacency):
        for w in nbrs:
            if v < w:
                lines.append(f"  v{v} -- v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def crown_edge(builder, r: int, s: int) -> bool:
    """The crown-graph edge test of the vertices of ranks r and s of a
    ``CrownGraphBuilder``, one pair at a time.  On the SDR path (with an
    orbit table) the column pairs (a_i c_k, a_j e_k) need distinct
    admissible orbits; on the direct path a_i c and a_j e must complete
    to a generating tuple with one element of each coset a_u N of the
    free rows, decided by ``ClosureOracle.completes``.  The correction
    tuples c, e are read off ``correction_tuples``."""
    L, a = builder.L, builder.a
    C = correction_tuples(L, builder.eta)
    (i, k), (j, l) = divmod(r, len(C)), divmod(s, len(C))
    if i == j:
        return False
    if i > j:
        i, j, k, l = j, i, l, k
    c, e = C[k], C[l]
    tbl = L.ct().table
    row_i, row_j = tbl[a[i]], tbl[a[j]]
    if builder.table is None:
        oracle = _memoised(L, ("closure",), lambda: ClosureOracle(L.group))
        cosets = tuple(tuple(tbl[a[u]][n] for n in L.socle_indices)
                       for u in range(builder.t) if u not in (i, j))
        return oracle.completes(
            oracle.closure((row_i[c[0]], row_j[e[0]])), cosets)
    proj = admissible_orbits(builder.table, i, j)
    return sdr_exists([proj.get((row_i[x], row_j[y]), set())
                       for x, y in zip(c, e)])


_MEMO: dict = {}


def _memoised(owner, key: tuple, build):
    """``build()``, computed once per live ``owner`` and key."""
    got = _MEMO.get((id(owner),) + key)
    if got is None or got[0]() is not owner:
        for dead in [k for k, v in _MEMO.items() if v[0]() is None]:
            del _MEMO[dead]
        got = _MEMO[(id(owner),) + key] = weakref.ref(owner), build()
    return got[1]


def correction_tuples(L, eta: int) -> list:
    """The socle tuples of length eta, in product order over
    ``socle_indices``: the k-th is the correction of the crown-graph
    vertices of rank i |N|^eta + k.  Memoised per live group and eta."""
    return _memoised(L, ("C", eta),
                     lambda: list(product(L.socle_indices, repeat=eta)))


def admissible_orbits(table, i: int, j: int) -> dict:
    """(row-i entry, row-j entry) -> the set of orbit labels of the
    tuples of an orbit table with those entries, one tuple at a time,
    memoised per live table and row pair."""

    def build():
        proj = {}
        for tup, lab in zip(table.tuples.tolist(), table.labels.tolist()):
            proj.setdefault((tup[i], tup[j]), set()).add(lab)
        return proj
    return _memoised(table, ("admissible", i, j), build)


def sdr_exists(option_sets) -> bool:
    """Whether the sets have distinct representatives: for two sets,
    both non-empty and their union of two or more labels; for any other
    number, by trying every choice of one label per set."""
    if len(option_sets) == 2:
        a, b = option_sets
        return bool(a and b) and (len(a) > 1 or len(b) > 1 or a != b)
    return any(len(set(pick)) == len(pick) for pick in product(*option_sets))


def cln_pair_witnesses(G) -> dict:
    """(a, b) -> (n, m) for every pair of element indices with [a, b] in
    the socle, found one pair at a time: n runs over the socle in
    ascending element order (identity first); m = 1 when b lies in
    C(a n), else m = b^-1 min(C(a n) ∩ b N).  The value is None where
    the search runs out."""
    ct = G.ct()
    tbl, inv = ct.table, ct.inv
    socle_set = frozenset(G.socle_indices)
    cent = [frozenset(y for y in range(ct.n) if tbl[x][y] == tbl[y][x])
            for x in range(ct.n)]
    out = {}
    for a, b in product(range(ct.n), repeat=2):
        if tbl[tbl[inv[a]][inv[b]]][tbl[a][b]] not in socle_set:
            continue
        out[a, b] = None
        for n in G.socle_indices:
            c_an = cent[tbl[a][n]]
            if b in c_an:
                out[a, b] = (n, ct.identity)
                break
            meet = [c for c in c_an if tbl[inv[b]][c] in socle_set]
            if meet:
                out[a, b] = (n, tbl[inv[b]][min(meet)])
                break
    return out


def pairwise_edges(builder) -> list:
    """Every edge (v, w), v < w, of a crown graph, by one ``crown_edge``
    test per pair of vertex ranks."""
    n = builder.t * builder.size
    return [(v, w) for v, w in combinations(range(n), 2)
            if crown_edge(builder, v, w)]


def class_graph_edges(builder) -> list:
    """Every edge (v, w), v < w, of a crown graph, read off the builder's
    class graph: row pairs i < j in turn, then v in row i, then w in
    row j."""
    node_of, adj = builder.class_graph()
    per_row = len(node_of) // builder.t
    out = []
    for i in range(builder.t):
        rows_i = node_of[i * per_row:(i + 1) * per_row]
        for j in range(i + 1, builder.t):
            vs, ws = np.nonzero(
                adj[np.ix_(rows_i, node_of[j * per_row:(j + 1) * per_row])])
            out.extend(zip((vs + i * per_row).tolist(),
                           (ws + j * per_row).tolist()))
    return out


def crown_graph(L, t: int, eta: int, a=None, table=None,
                drop_isolated: bool = True) -> ElementGraph:
    """The graph Gamma_{a_1..a_t}(L_eta) labelled by vertex ranks,
    expanded from the builder's class graph; with ``drop_isolated`` the
    Delta version.  The vertex count is capped at max_elements."""
    builder = CrownGraphBuilder(L, t, eta, a, table)
    node_of, adj = builder.class_graph()
    keep = np.arange(len(node_of))
    if drop_isolated:
        keep = np.flatnonzero(adj[node_of].any(axis=1))
    return ElementGraph.from_matrix(
        "crown", keep.tolist(), adj[np.ix_(node_of[keep], node_of[keep])],
        {"t": t, "eta": eta, "a": builder.a})


def pairwise_sampled_weak_connectivity(L, t, eta, table, a=None,
                                      samples: int = 60, seed: int = 0):
    """``weak_connectivity_sampled`` with every decision read off
    ``pairwise_edges``: the same seeded pairs (v1, v2) of non-isolated
    same-row vertices, each passing when some conjugator (1, .., 1, n),
    n in the socle in word-length order, takes v2 to a vertex joined to
    v1 by an edge, a common neighbour or an edge between the two
    neighbourhoods."""
    builder = CrownGraphBuilder(L, t, eta, a, table)
    one = L.ct().identity
    C = correction_tuples(L, eta)
    size = len(C)
    rank = {c: k for k, c in enumerate(C)}
    nbrs = [set() for _ in range(t * size)]
    for v, w in pairwise_edges(builder):
        nbrs[v].add(w)
        nbrs[w].add(v)
    conjugators = [(one,) * (eta - 1) + (n,) for n in socle_word_order(L)]

    def conjugate(row, c, m):
        return row * size + rank[crown_conjugate(L, builder.a[row], c, m)]

    def near(v, w):
        return (w in nbrs[v] or bool(nbrs[v] & nbrs[w])
                or any(nbrs[x] & nbrs[w] for x in nbrs[v]))

    rng = random.Random(seed)
    checked = failures = 0
    depths = {}
    while checked < samples:
        row = rng.randrange(t)
        c1, c2 = rng.choice(C), rng.choice(C)
        v = row * size + rank[c1]
        if not (nbrs[v] and nbrs[row * size + rank[c2]]):
            continue
        checked += 1
        depth = next((k for k, m in enumerate(conjugators)
                      if near(v, conjugate(row, c2, m))), None)
        if depth is None:
            failures += 1
        else:
            depths[depth] = depths.get(depth, 0) + 1
    return WeakConnectivityReport(
        t, eta, builder.a, "sampled", t * size, -1, -1,
        [RowCheck(-1, checked, -1, failures == 0, depths)], failures == 0,
        seed=seed, sample_size=samples)


def socle_word_order(L) -> list:
    """The socle elements of a monolithic group by word length in the
    socle generators: breadth first from the identity, each element
    followed by its products with the generators in turn."""
    ct = L.ct()
    gens = ct.indices(L.socle.generators)
    order = [ct.identity]
    for x in order:
        for g in gens:
            if ct.table[x][g] not in order:
                order.append(ct.table[x][g])
    return order


def crown_conjugate(L, ai: int, c: tuple, m: tuple) -> tuple:
    """The correction of (a_i . c)^m: a_i^-1 u^-1 (a_i x) u for each
    entry x of c and u of m, by table reads."""
    ct = L.ct()
    tbl, inv = ct.table, ct.inv
    return tuple(tbl[inv[ai]][tbl[tbl[inv[u]][tbl[ai][x]]][u]]
                 for x, u in zip(c, m))


def pairwise_weak_connectivity(L, t, eta, a=None, table=None):
    """``weak_connectivity`` with the components found by a union-find
    over every vertex pair that ``crown_edge`` joins, and each vertex of
    a row checked on its own: the conjugators m run over N^eta in
    product order of ``socle_word_order``, and the depth of a vertex is
    the index of the first m after which its conjugates have met every
    component of its row."""
    builder = CrownGraphBuilder(L, t, eta, a, table)
    C = correction_tuples(L, eta)
    size = len(C)
    rank = {c: k for k, c in enumerate(C)}
    n = t * size
    uf = UnionFind(n)
    non_isolated = bytearray(n)
    for v, w in pairwise_edges(builder):
        non_isolated[v] = non_isolated[w] = 1
        uf.union(v, w)
    comp = [uf.find(v) if non_isolated[v] else -1 for v in range(n)]
    conjugators = list(product(socle_word_order(L), repeat=eta))
    rows = []
    for i, ai in enumerate(builder.a):
        vs = [v for v in range(i * size, (i + 1) * size) if comp[v] >= 0]
        comps = {comp[v] for v in vs}
        depths = {}
        for v in vs:
            reach = set()
            for depth, m in enumerate(conjugators):
                reach.add(comp[i * size + rank[crown_conjugate(
                    L, ai, C[v - i * size], m)]])
                if comps <= reach:
                    depths[depth] = depths.get(depth, 0) + 1
                    break
        rows.append(RowCheck(i, len(vs), len(comps),
                             sum(depths.values()) == len(vs), depths))
    return WeakConnectivityReport(
        t, eta, builder.a, "exhaustive", n, sum(non_isolated),
        len({c for c in comp if c >= 0}), rows,
        all(row.passed for row in rows))
