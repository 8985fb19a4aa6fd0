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
conjugation by the generators.  ``isomorphism`` points the same search
at two groups and keeps its first map.  ``circ`` builds an element a . m of
a crown power L_k, and ``crown_generates`` decides generation of L_k by
a stabilizer chain.  ``component``, ``is_congruent``,
``is_discrete`` and ``refines`` are helpers on crown powers and index
partitions that only tests ask, as are ``joined`` and ``is_edge_d``,
the Gamma_d edge test of one mask and of one pair of elements, and
``edge_witness``, a generating set of cardinality d through an edge of
Delta_d.  ``union_find_orbits``
labels the orbits of a group on tuples by joining each tuple with its
generator images, where ``orbits_on_tuples`` applies every element to
one tuple per orbit.  ``class_edges`` and ``class_pair_summary`` decide
Delta_d one pair of row classes at a time with a union-find over the
joined pairs.  ``crown_edge`` decides one pair of crown-graph vertex
ranks, and ``pairwise_weak_connectivity`` joins every vertex pair of a
crown graph by it; the block kernels of ``graphs`` and the builder's
``_row_block`` are checked against them.
``pairwise_sampled_weak_connectivity`` redraws the seeded pairs of the
sampled check and decides each of them from those pairwise edges.
``crown_graph`` and ``class_graph_edges`` expand the builder's class
graph to vertex ranks and edges for the tests to compare.
"""

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

import numpy as np

from rankgraph import GroupArgumentError, Permutation, PermutationGroup
from rankgraph.automorphisms import (
    _WORDS,
    _bfs_schedule,
    _element_fingerprints,
    _extend_map,
    _generating_sequence,
    _iso_maps,
    _respects_generators,
)
from rankgraph.crown_powers import (
    CrownGraphBuilder,
    RowCheck,
    WeakConnectivityReport,
    _exhaustive_report,
    _from_coordinates,
    _sdr_exists,
)
from rankgraph.graphs import (
    ElementGraph,
    _check_graph_args,
    _oracle_for,
    class_neighbours,
)
from rankgraph.group_structure import SubgroupRegistry, min_rank
from rankgraph.perm_core import StabilizerChain, UnionFind


def mult(p: tuple, q: tuple) -> tuple:
    return tuple(q[i] for i in p)


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


def inner_automorphisms(G) -> PermutationGroup:
    """Inn(G) on element indices, generated by conjugation with the
    generators of G."""
    ct = G.cayley_table()
    gens = [Permutation([ct.conj(x, g) for x in range(ct.n)])
            for g in ct.gen_indices]
    return PermutationGroup(ct.n, gens)


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
    sigma = _extend_map(ct, ct, _bfs_schedule(ct, src), src, dst)
    ok = _respects_generators(ct, ct, src, dst, sigma)
    return sorted(Permutation(row) for row in sigma[ok].tolist())


@dataclass
class IsoResult:
    isomorphic: Optional[bool]  # None when the search budget tripped
    map: Optional[list] = None  # element-index map when isomorphic


def isomorphism(G, H) -> IsoResult:
    """An isomorphism G -> H by the Aut(L) search pointed at two groups:
    after the order and fingerprint multisets agree, ``_iso_maps`` finds
    every map and the first one is kept.  A tripped leaf budget yields
    ``isomorphic=None`` (absence not proven)."""
    if G.order != H.order:
        return IsoResult(False)
    ct_g, ct_h = G.cayley_table(), H.cayley_table()
    fps_g, fps_h = _element_fingerprints(ct_g), _element_fingerprints(ct_h)
    if sorted(fps_g) != sorted(fps_h):
        return IsoResult(False)
    src_gens = _generating_sequence(G, ct_g, fps_g)
    maps, exhausted = _iso_maps(ct_g, ct_h, src_gens, fps_g, fps_h)
    if len(maps):
        return IsoResult(True, maps[0].tolist())
    return IsoResult(False if exhausted else None)


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


def crown_generates(cp, elems) -> bool:
    """Direct stabilizer-chain generation test inside L_k: the oracle
    that ``columns_generate``, ``square_order`` and the orbit criterion
    are checked against."""
    chain = StabilizerChain(cp.degree, elems, known_order=cp.order)
    return chain.order() == cp.order


def is_congruent(cp, p) -> bool:
    """The coordinates of p lie in one coset of the socle of the crown
    power's base (membership in L_k)."""
    comps = [component(cp, p, j) for j in range(cp.k)]
    first = comps[0]
    N = cp.base.socle
    return all(N.contains(first.inverse() * c) for c in comps[1:])


def is_discrete(partition) -> bool:
    """Every part of an ``IndexPartition`` is a singleton."""
    return all(len(p) == 1 for p in partition.parts)


def refines(fine, coarse) -> bool:
    """Every part of ``fine`` lies inside a part of ``coarse``."""
    where = {}
    for k, part in enumerate(coarse.parts):
        for x in part:
            where[x] = k
    return all(len({where[x] for x in part}) == 1 for part in fine.parts)


def joined(oracle, mask: int, d: int) -> bool:
    """The Gamma_d edge test of distinct x, y with rows[x] & rows[y] ==
    mask, for an ``EdgeOracle``: the rule ``class_adjacency`` applies to
    whole row classes, stated for one pair."""
    n = oracle.ct.n
    if n < d:
        return False
    if n == d:
        return True
    return not mask or (d > 2 and oracle.reg.mask_dist(mask) <= d - 2)


def is_edge_d(G, x, y, d: int) -> bool:
    """Whether some generating set of G of cardinality exactly d
    contains the distinct elements x and y."""
    if d < 2:
        raise GroupArgumentError("d must be at least 2")
    if x == y:
        raise GroupArgumentError("x and y must be distinct")
    oracle = _oracle_for(G)
    ct = oracle.ct
    try:
        xi, yi = ct.index[x.images], ct.index[y.images]
    except KeyError:
        raise GroupArgumentError("x and y must lie in G") from None
    return joined(oracle, oracle.rows[xi] & oracle.rows[yi], d)


def edge_witness(G, x, y, d: int):
    """A generating set of cardinality exactly d containing x and y, or
    None: x, y and a ``climb`` of the registry from row[x] & row[y],
    padded by least elements."""
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
        self._completes = {}

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
        return frozenset(frozenset(ct.conj(x, g) for x in members)
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
        got = self._completes.get(key)
        if got is None:
            got = self._completes[key] = any(
                self.completes(self.join(sid, z), cosets[1:])
                for z in cosets[0])
        return got


def class_edges(oracle, d: int):
    """Yield (i, j), i <= j, for the joined pairs of the row classes of
    an ``EdgeOracle``, one ``joined`` test per pair.

    (i, i) means the elements of class i are pairwise joined; it is
    yielded only for classes of two or more elements.
    """
    classes, rows = oracle.classes, oracle.rows
    heads = [rows[c[0]] for c in classes]
    for i, ri in enumerate(heads):
        if len(classes[i]) > 1 and joined(oracle, ri, d):
            yield (i, i)
        for j in range(i + 1, len(heads)):
            if joined(oracle, ri & heads[j], d):
                yield (i, j)


def class_pair_summary(G, d: int) -> tuple:
    """(n_vertices, n_edges, n_components) of Delta_d by a union-find
    over the pairs ``class_edges`` yields."""
    _check_graph_args(G, d)
    oracle = _oracle_for(G)
    classes = oracle.classes
    uf = UnionFind(len(classes))
    non_isolated = bytearray(len(classes))
    n_edges = 0
    for i, j in class_edges(oracle, d):
        ci, cj = len(classes[i]), len(classes[j])
        n_edges += ci * (ci - 1) // 2 if i == j else ci * cj
        non_isolated[i] = non_isolated[j] = 1
        uf.union(i, j)
    active = [i for i in range(len(classes)) if non_isolated[i]]
    return (sum(len(classes[i]) for i in active), n_edges,
            len({uf.find(i) for i in active}))


def crown_edge(builder, r: int, s: int) -> bool:
    """The crown-graph edge test of the vertices of ranks r and s of a
    ``CrownGraphBuilder``, one pair at a time.  On the SDR path (with an
    orbit table) the column pairs (a_i c_k, a_j e_k) need distinct
    admissible orbits; on the direct path the incidence rows of a_i c and
    a_j e must complete to a generating tuple over the free rows."""
    size = builder.size
    (i, k), (j, l) = divmod(r, size), divmod(s, size)
    if i == j:
        return False
    if i > j:
        i, j, k, l = j, i, l, k
    c, e = builder.corrections[k], builder.corrections[l]
    tbl = builder.ct.table
    row_i, row_j = tbl[builder.a[i]], tbl[builder.a[j]]
    if builder.table is None:
        free = tuple(u for u in range(builder.t) if u not in (i, j))
        return builder._completes(
            builder.rows[row_i[c[0]]] & builder.rows[row_j[e[0]]], free)
    proj = builder.table.projection(i, j)
    return _sdr_exists([proj.get((row_i[x], row_j[y])) for x, y in zip(c, e)])


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
    members = [[] for _ in adj]
    for v, k in enumerate(node_of.tolist()):
        members[k].append(v)
    adjacency = class_neighbours(members, adj)
    labels = list(range(len(node_of)))
    if drop_isolated:
        keep = [v for v in labels if adjacency[v]]
        remap = {v: k for k, v in enumerate(keep)}
        adjacency = [[remap[w] for w in adjacency[v]] for v in keep]
        labels = keep
    return ElementGraph("crown", labels, adjacency, L.group,
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
    ct = L.ct()
    tbl, inv = ct.table, ct.inv
    corrections = list(product(sorted(ct.subset_indices(L.socle)),
                               repeat=eta))
    size = len(corrections)
    rank = {c: k for k, c in enumerate(corrections)}
    nbrs = [set() for _ in range(t * size)]
    for v, w in pairwise_edges(builder):
        nbrs[v].add(w)
        nbrs[w].add(v)
    gens = [ct.index[g.images] for g in L.socle.generators]
    word_order = [ct.identity]
    for x in word_order:
        for g in gens:
            if tbl[x][g] not in word_order:
                word_order.append(tbl[x][g])
    conjugators = [(ct.identity,) * (eta - 1) + (n,) for n in word_order]

    def conjugate(row, c, m):
        ai = builder.a[row]
        return row * size + rank[tuple(
            tbl[inv[ai]][tbl[tbl[inv[u]][tbl[ai][x]]][u]]
            for x, u in zip(c, m))]

    def near(v, w):
        return (w in nbrs[v] or bool(nbrs[v] & nbrs[w])
                or any(nbrs[x] & nbrs[w] for x in nbrs[v]))

    rng = random.Random(seed)
    checked = failures = 0
    depths = {}
    while checked < samples:
        row = rng.randrange(t)
        c1, c2 = rng.choice(corrections), rng.choice(corrections)
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


def pairwise_weak_connectivity(L, t, eta, a=None, table=None):
    """``weak_connectivity`` with the components found by a union-find
    over every vertex pair that ``crown_edge`` joins."""
    builder = CrownGraphBuilder(L, t, eta, a, table)
    n = t * builder.size
    uf = UnionFind(n)
    non_isolated = bytearray(n)
    for v, w in pairwise_edges(builder):
        non_isolated[v] = non_isolated[w] = 1
        uf.union(v, w)
    return _exhaustive_report(
        builder, [uf.find(v) if non_isolated[v] else -1 for v in range(n)])
