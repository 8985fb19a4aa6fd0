"""Crown-based powers of monolithic groups and their generation machinery.

For a monolithic group L with socle N, the crown-based power L_k is the
subgroup of L^k of tuples congruent coordinate-wise modulo N.  Generation
of L_k by t-tuples of corrected elements reduces to an orbit condition:
columns of the correction matrix must be generating t-tuples lying in
pairwise distinct orbits of X = C_Aut(L)(L/N).  delta(L, t), the largest
k with L_k still t-generated, is therefore the number of X-orbits on the
set of generating coset tuples, which ``omega_table`` holds as integer
arrays: the tuples, their orbit labels and, per row pair, the admissible
orbits of each socle correction pair.  A witness for L_delta is
certified by the subdirect-product lemma (``columns_generate``): its
columns generate L and their Cayley-graph certificates differ; an
automorphism mapping one column to another makes their certificates
equal, and equal certificates define one.
``square_order`` decides generation of L_2 directly, from the order of
the subgroup of L x L that index pairs generate (Schreier's lemma along
the ``perm_core.bfs_tree`` of the first coordinates, reusable per tuple
of them, the kernel grown by the coset closure
``SubgroupRegistry.close``); ``verify --lemma primo`` checks the orbit
criterion against it.

A crown-graph vertex a_i . c is the integer rank i |C| + k, c the k-th
correction tuple.  ``CrownGraphBuilder._row_block`` decides the edges
between two rows, a block at a time: by a system-of-distinct-
representatives test over the orbit table (one admissible-orbit set per
column, matched to pairwise distinct orbits; for one or two columns read
in closed form off the count and lone-orbit arrays of the table's
projection), or, for single-column graphs, by
``group_structure.class_block`` over incidence rows with a completion
search over the free rows.  The exhaustive check builds the whole graph
on class nodes from these blocks; the sampled check asks for one vertex
against each other row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import config
from .perm_core import (
    CapExceededError,
    GroupArgumentError,
    Permutation,
    PermutationGroup,
    PreconditionError,
    WitnessSearchFailure,
    bfs_tree,
)
from .group_structure import (
    class_block,
    min_rank,
    normal_subgroups,
    registry_for,
)
from .automorphisms import (
    automorphism_group,
    orbits_on_tuples,
    x_subgroup,
)
from .graphs import component_labels

if TYPE_CHECKING:
    from fractions import Fraction


# ---------------------------------------------------------------------------
# monolithic groups


def _is_index(z, n: int) -> bool:
    """Is z an integer, not a bool, in 0..n-1?"""
    return (type(z) is int or isinstance(z, np.integer)) and 0 <= z < n


class MonolithicGroup:
    """A group with its unique minimal normal subgroup (the socle).

    Set at construction: ``socle_indices`` (ascending), ``coset_labels``
    (the least element index of c N per element c), ``socle_mask``,
    ``socle_positions`` (in ``socle_indices``; -1 outside the socle) and
    ``socle_bfs_order`` (by word length in the socle generators).  Aut(L),
    X and the X-orbit labels come from the Aut search, built on first use.
    """

    def __init__(self, L: PermutationGroup):
        minimals = normal_subgroups(L).minimal_normals
        if len(minimals) != 1:
            raise GroupArgumentError(
                f"group is not monolithic: {len(minimals)} minimal normal "
                "subgroups")
        self.group = L
        self.socle = N = minimals[0]
        self.socle_abelian = N.is_abelian()
        ct = self.ct()
        self.socle_indices = tuple(ct.indices(N.elements()))
        self.coset_labels = ct.coset_labels(self.socle_indices)
        self.socle_mask = self.coset_labels == ct.identity
        self.socle_positions = [-1] * ct.n
        for p, x in enumerate(self.socle_indices):
            self.socle_positions[x] = p
        cols = [ct.array[:, g].tolist() for g in ct.indices(N.generators)]
        self.socle_bfs_order = bfs_tree(ct.n, cols, ct.identity)[0]

    @property
    def quotient_order(self) -> int:
        return self.group.order // self.socle.order

    def require_nonabelian(self) -> None:
        if self.socle_abelian:
            raise PreconditionError(
                "crown-power graph machinery needs a non-abelian socle")

    # -- dense index data ----------------------------------------------------

    def ct(self):
        return self.group.cayley_table()

    def correction_code(self, entries) -> int:
        """The socle positions of ``entries`` read as one base-|N| number;
        ``PreconditionError`` for an entry not a socle element index."""
        pos, size, code = self.socle_positions, len(self.socle_indices), 0
        for x in entries:
            if not _is_index(x, len(pos)) or pos[x] < 0:
                raise PreconditionError(f"{x} is not a socle element index")
            code = code * size + pos[x]
        return code

    def coset_indices(self, x: int) -> list:
        """Sorted element indices of the coset x N (= N x, N is normal)."""
        labels = self.coset_labels
        return np.flatnonzero(labels == labels[x]).tolist()

    @cached_property
    def aut(self) -> np.ndarray:
        """Aut(L) as a sorted (|Aut|, n) array: row sigma maps element
        index x to sigma[x]."""
        return automorphism_group(self.group)

    @cached_property
    def x_group(self) -> np.ndarray:
        """X = C_Aut(L)(L/N), the rows of ``aut`` fixing every socle
        coset."""
        return x_subgroup(self)

    @cached_property
    def element_orbit_labels(self) -> np.ndarray:
        """X-orbit label per element index of L."""
        labels, _ = orbits_on_tuples(self.x_group,
                                     np.arange(self.ct().n)[:, None])
        return labels


# ---------------------------------------------------------------------------
# crown powers


@dataclass
class CrownPower:
    """L_k realized on k disjoint copies of the domain of L.

    The degree k * deg(L) and the order |L/N| |N|^k are known from the
    construction.  The generators grow with k, so they are built on
    first access only.
    """

    base: MonolithicGroup
    k: int

    @property
    def block_degree(self) -> int:
        return self.base.group.degree

    @property
    def degree(self) -> int:
        return self.k * self.block_degree

    @property
    def order(self) -> int:
        return self.base.quotient_order * self.base.socle.order ** self.k

    @cached_property
    def generators(self) -> list:
        """Diagonal embeddings of L's generators plus the socle's
        generators in each of the coordinates 1..k-1.

        Any (l_1, ..., l_k) in L_k factors as (l_1 l_k^-1, ...,
        l_{k-1} l_k^-1, 1) * diag(l_k) with the first factor in N^(k-1),
        so this set generates all of L_k.
        """
        L, k = self.base, self.k
        gens = [_from_coordinates([g] * k) for g in L.group.generators]
        one = L.group.identity
        for j in range(k - 1):
            for n in L.socle.generators:
                coords = [one] * k
                coords[j] = n
                gens.append(_from_coordinates(coords))
        return gens


def _from_coordinates(coords: Sequence[Permutation]) -> Permutation:
    """The element of L^k with coordinates l_1, ..., l_k, acting on k
    copies of L's domain (l_j on the j-th)."""
    images = []
    for j, c in enumerate(coords):
        off = j * c.degree
        images.extend(off + q for q in c.images)
    return Permutation._raw(tuple(images))


def build_crown_power(L: MonolithicGroup, k: int) -> CrownPower:
    """L_k of degree k * deg(L).  No stabilizer chain is built: a
    witness is certified by ``columns_generate``."""
    if k < 1:
        raise GroupArgumentError("k must be positive")
    return CrownPower(L, k)


def square_order(ct, pairs: Sequence[tuple], target: int = 0,
                 trees: Optional[dict] = None) -> int:
    """|H| for H = <(x_1, y_1), ...> <= L x L, on element indices of ct.

    The ``bfs_tree`` of right multiplication by the x_k gives
    P = pi_1(H) and keeps one element (p, s_p) of H per p in P:
    s_{px_k} = s_p y_k along each tree edge.  By Schreier's lemma the
    second coordinates s_p y_k s_{px_k}^-1 generate
    K = pi_2(H meet 1 x L), and |H| = |P| |K|; those of the tree edges
    are 1, so only the other edges are read.  One walk over the edges,
    in the order the tree tried them, sets s_q at each tree edge and
    joins each other edge's generator outside the K found so far by
    ``SubgroupRegistry.close`` (so the K's are interned in L's
    registry); it stops once K is all of L.  Once |P| |L| < target that
    bound is returned, so the result is at least ``target`` exactly when
    |H| is.  The edges depend only on the first coordinates: a caller's
    ``trees`` dict keeps them per tuple (x_1, x_2, ...) across calls.
    An entry that is not an element index raises ``PreconditionError``,
    a pair of another length ``GroupArgumentError``.
    """
    tbl, inv, n, e = ct.table, ct.inv, ct.n, ct.identity
    for pair in pairs:
        if len(pair) != 2:
            raise GroupArgumentError("pairs must have 2 entries each")
        x, y = pair
        if not (_is_index(x, n) and _is_index(y, n)):
            raise PreconditionError(
                f"pairs must be element indices of the group, 0 to {n - 1}")
    xs = tuple(x for x, _ in pairs)
    tree = None if trees is None else trees.get(xs)
    if tree is None:
        tree = _schreier_steps(ct, xs)
        if trees is not None:
            trees[xs] = tree
    size, steps = tree
    if size * n < target:
        return size * n
    ys = [y for _, y in pairs]
    second = [-1] * n
    second[e] = e
    reg = registry_for(ct.group)
    sid = reg.trivial_id
    K = reg.members[sid]
    for p, k, q, is_tree in steps:
        s = tbl[second[p]][ys[k]]
        if is_tree:
            second[q] = s
        else:
            z = tbl[s][inv[second[q]]]
            if z not in K:
                sid = reg.close(sid, z)
                if sid == reg.full_id:
                    return size * n
                K = reg.members[sid]
    return size * len(K)


def _schreier_steps(ct, xs: tuple) -> tuple:
    """(|P|, steps) for <xs>: P is the ``bfs_tree`` of right
    multiplication, and steps holds (p, k, p * xs[k], is_tree) for every
    edge, in the order the tree tried them (p along P, then k)."""
    cols = [ct.array[:, x].tolist() for x in xs]
    P, parent, gen, _ = bfs_tree(ct.n, cols, ct.identity)
    width = len(cols)
    via = [-1] * ct.n  # per node q != root, the edge (p, k) reaching it
    for q, p, k in zip(P[1:], parent[1:], gen[1:]):
        via[q] = p * width + k
    return len(P), [(p, k, col[p], via[col[p]] == p * width + k)
                    for p in P for k, col in enumerate(cols)]


def columns_generate(L: MonolithicGroup, columns: Sequence[tuple]) -> bool:
    """Do the elements with these coordinate columns generate L_k?

    The subdirect-product lemma decides it without a stabilizer chain.
    Let H be generated by the t elements whose j-th coordinates form
    column c_j, k = len(columns).  Then H = L_k iff
      (i) every c_j generates L, and
      (ii) for every i < j, the pairs (c_i[s], c_j[s]) generate a
           subgroup of L x L larger than |L|.
    By Goursat's lemma and monolithicity, a subdirect product H_ij of
    L x L is the graph of an automorphism or contains N x N.  In L_k the
    coordinates agree modulo N, so H meets N^k in a subgroup mapping onto
    every N x N; N is perfect, so that subgroup is N^k, and (i) gives
    H / N^k = L / N.  (ii) fails exactly when c_i[s] -> c_j[s] extends to
    an automorphism.  One ``bfs_tree`` of right multiplication by c's
    entries decides both: (i) iff it spans L; then, with pos[order[p]] =
    p, c's certificate is pos[order[p] * c[s]] over p and s.  An
    automorphism c -> c' carries the tree of c onto that of c', so the
    certificates agree; equal ones make sigma = order' o pos satisfy
    sigma(x * c[s]) = sigma(x) * c'[s] for all x, an automorphism.

    Raises ``PreconditionError`` unless every row of the matrix lies in
    one coset of N (the elements lie in L_k).
    """
    L.require_nonabelian()
    ct = L.ct()
    ct.check_indices([x for col in columns for x in col], "column entries")
    tbl, inv = ct.table, ct.inv
    in_socle = L.socle_mask
    first = columns[0]
    for col in columns[1:]:
        if len(col) != len(first) or any(
                not in_socle[tbl[inv[a]][b]] for a, b in zip(first, col)):
            raise PreconditionError(
                "columns must agree modulo the socle, row by row")
    pos = np.empty(ct.n, dtype=np.intp)
    seen = set()
    for col in columns:
        right = ct.array[:, list(col)]
        order = bfs_tree(ct.n, right.T.tolist(), ct.identity)[0]
        if len(order) < ct.n:
            return False
        pos[order] = np.arange(ct.n)
        key = pos[right[order]].tobytes()
        if key in seen:
            return False
        seen.add(key)
    return True


# ---------------------------------------------------------------------------
# the orbit table for Omega


@dataclass
class OrbitTable:
    """Generating coset tuples with their X-orbit labels.

    ``tuples`` is an (|Omega|, t) intp array with every (a_1 n_1, ...,
    a_t n_t) (element indices) that generates L, in lexicographic order;
    ``labels`` is the intp array of their orbit ids (numbered by each
    orbit's smallest tuple); ``reps`` is the canonical complete system of
    orbit representatives, as a list of tuples, one per orbit.
    """

    mono: MonolithicGroup
    a: tuple  # element indices of the fixed generating tuple
    tuples: np.ndarray
    labels: np.ndarray
    reps: list
    _projections: dict = field(default_factory=dict, repr=False)

    @property
    def t(self) -> int:
        return len(self.a)

    @property
    def orbit_count(self) -> int:
        return len(self.reps)

    @cached_property
    def positions(self) -> np.ndarray:
        """(|Omega|, t): the socle position of the correction n_i =
        a_i^-1 x_i of each tuple x."""
        ct = self.mono.ct()
        pos = np.asarray(self.mono.socle_positions)
        return np.stack([pos[ct.array[ct.inv[a], column]]
                         for a, column in zip(self.a, self.tuples.T)], axis=1)

    @cached_property
    def label_grid(self) -> np.ndarray:
        """The orbit label of each correction tuple (n_1, ..., n_t), by
        its socle positions read as one base-|N| number; -1 where the
        corrected tuple does not generate L."""
        size = len(self.mono.socle_indices)
        code = np.zeros(len(self.tuples), dtype=np.intp)
        for column in self.positions.T:
            code = code * size + column
        grid = np.full(size ** self.t, -1, dtype=np.intp)
        grid[code] = self.labels
        return grid

    def projection(self, i: int, j: int) -> tuple:
        """The admissible orbits of the row pair i < j, by the pair code
        p = |N| pos(n_i) + pos(n_j) of the correction pair: (count, lone,
        starts, members), where ``count[p]`` is the number of orbits,
        ``lone[p]`` the orbit where that number is 1 (else -1), and
        ``members[starts[p]:starts[p + 1]]`` the orbits, ascending.

        The distinct (pair, label) combinations are found as one int64
        code each, p * |orbits| + label, sorted, keeping the first of
        each run of equal codes.
        """
        got = self._projections.get((i, j))
        if got is None:
            size = len(self.mono.socle_indices)
            pos = self.positions
            code = np.sort((pos[:, i] * size + pos[:, j]) * self.orbit_count
                           + self.labels)
            pair, members = np.divmod(
                code[np.concatenate(([True], code[1:] != code[:-1]))],
                self.orbit_count)
            count = np.bincount(pair, minlength=size * size)
            lone = np.full(size * size, -1, dtype=np.intp)
            lone[pair] = members
            lone[count != 1] = -1
            starts = np.concatenate([[0], np.cumsum(count)])
            got = self._projections[(i, j)] = count, lone, starts, members
        return got


def default_generating_tuple(L: MonolithicGroup, t: int) -> tuple:
    """min_rank witness padded with the identity up to length t."""
    cert = min_rank(L.group)
    if t < cert.d:
        raise PreconditionError(f"t = {t} < d(L) = {cert.d}")
    ct = L.ct()
    idxs = ct.indices(cert.witness)
    idxs += [ct.identity] * (t - len(idxs))
    return tuple(idxs)


def omega_table(L: MonolithicGroup, a: Sequence[int]) -> OrbitTable:
    """Enumerate and label the generating coset tuples over (a_1, ..., a_t)."""
    L.require_nonabelian()
    a = tuple(L.ct().check_indices(a, "a").tolist())
    reg = registry_for(L.group)
    # the search checks its cap when called, before any lattice work
    search = reg.generating_tuples([L.coset_indices(x) for x in a])
    if reg.mask_of(a):
        raise PreconditionError("the fixed tuple must generate L")
    tuples = np.concatenate(list(search))  # a generates, so Omega is not empty
    X = L.x_group
    labels, reps = orbits_on_tuples(X, tuples)
    # an automorphism fixing a generating tuple is trivial, so X acts
    # freely and every orbit has |X| members
    if len(tuples) != len(reps) * len(X):
        raise RuntimeError(
            f"|Omega| = {len(tuples)} != {len(reps)} orbits * |X| = {len(X)}")
    return OrbitTable(L, a, tuples, labels, reps)


def delta_Lt(L: MonolithicGroup, t: int, verify: bool = False):
    """delta(L, t) and the orbit table: (delta, table).

    delta is the X-orbit count on the generating coset tuples.  With
    ``verify`` the witness, the t elements of L_delta whose columns are
    the complete orbit-representative system ``table.reps``, is
    certified to generate L_delta by the subdirect-product lemma
    (``columns_generate``), with no stabilizer chain; a failure raises
    ``WitnessSearchFailure``.
    """
    table = omega_table(L, default_generating_tuple(L, t))
    # rep entries already carry the a_i factor: rep[i] = a_i n_{i,rep}
    if verify and not columns_generate(L, table.reps):
        raise WitnessSearchFailure(
            "orbit-representative witness failed to generate the crown power")
    return table.orbit_count, table


def generation_via_orbits(table: OrbitTable,
                          rows: Sequence[Sequence[int]]) -> bool:
    """Orbit criterion for <a_1 . m_1, ..., a_t . m_t> = L_eta.

    ``rows`` holds the correction tuples m_i as socle element indices
    (any other entry raises ``PreconditionError``); True iff every
    column of the corrected matrix is a generating tuple and the column
    orbit labels are pairwise distinct.
    """
    if table is None:
        raise GroupArgumentError("orbit table required")
    t = table.t
    if len(rows) != t:
        raise GroupArgumentError(f"need {t} correction rows")
    eta = len(rows[0])
    if any(len(r) != eta for r in rows):
        raise GroupArgumentError("ragged correction matrix")
    if eta > table.orbit_count:
        raise PreconditionError("eta exceeds delta(L, t)")
    # the orbit of each column a_i m_ik, i = 1..t, by its correction code
    grid, code = table.label_grid, table.mono.correction_code
    labels = [int(grid[code(column)]) for column in zip(*rows)]
    return min(labels, default=0) >= 0 and len(set(labels)) == eta


# ---------------------------------------------------------------------------
# crown graphs


# Vertex pairs decided at a time by the SDR path of ``_row_block``.
_PAIR_BLOCK = 1 << 16


def _sdr_exists(option_sets: Sequence) -> bool:
    """Hall-style matching: one distinct representative per option set,
    by augmenting paths.  ``_row_block`` decides one or two sets in
    closed form and calls this for three or more."""
    match: dict = {}

    def augment(k, banned):
        for lab in option_sets[k]:
            if lab in banned:
                continue
            banned.add(lab)
            if lab not in match or augment(match[lab], banned):
                match[lab] = k
                return True
        return False

    for k in range(len(option_sets)):
        if not option_sets[k]:
            return False
        if not augment(k, set()):
            return False
    return True


class CrownGraphBuilder:
    """The vertices and edge blocks of Gamma_{a_1..a_t}(L_eta), shared by
    the exhaustive and the sampled weak-connectivity checks.

    The vertex a_i . c has the rank i |C| + k, where C is the set of
    socle tuples of length eta in ``itertools.product`` order and c its
    k-th tuple; C is held once, as ``digits``, whose row k holds the
    socle positions of the entries of c (the base-|N| digits of k).
    ``_row_block`` decides every edge.
    The row tuple ``a`` defaults to the orbit table's, or without a table
    to ``default_generating_tuple``; any other ``a`` with a table, or one
    of length other than t, raises ``GroupArgumentError``.
    """

    def __init__(self, L: MonolithicGroup, t: int, eta: int,
                 a: Optional[Sequence[int]] = None,
                 table: Optional[OrbitTable] = None):
        L.require_nonabelian()
        self.L = L
        reg = registry_for(L.group)
        self.rows = reg.incidence_rows()
        self.ct = L.ct()
        if table is not None:
            # the table's tuples are columns over its own a
            if a is not None and tuple(a) != table.a:
                raise GroupArgumentError("a differs from the orbit table's")
            a = table.a
        elif a is None:
            a = default_generating_tuple(L, t)
        if len(a) != t:
            raise GroupArgumentError(f"a has {len(a)} entries where t = {t}")
        self.a = tuple(self.ct.check_indices(a, "a").tolist())
        self.t = t
        self.eta = eta
        if reg.mask_of(self.a):
            raise PreconditionError("the row tuple must generate L")
        self.socle = L.socle_indices
        self.cosets = [L.coset_indices(x) for x in self.a]
        self.size = len(self.socle) ** eta
        self.table = table
        if table is None and eta != 1:
            raise GroupArgumentError(
                "orbit table required for eta > 1 edge tests")
        self._complete_memo: dict = {}

    def rank(self, row: int, correction: tuple) -> int:
        """The rank of the vertex a_row . correction: ``PreconditionError``
        for a row not in 0..t-1 or an entry outside the socle,
        ``GroupArgumentError`` for a correction whose length is not eta."""
        if not _is_index(row, self.t):
            raise PreconditionError(f"row must be in 0 to {self.t - 1}")
        if len(correction) != self.eta:
            raise GroupArgumentError(f"tuple length is not eta = {self.eta}")
        return row * self.size + self.L.correction_code(correction)

    @cached_property
    def digits(self) -> np.ndarray:
        """(|C|, eta): the socle positions of the entries of each tuple
        of C, i.e. the base-|N| digits of its index, built on first use.
        Every check reads it, so the cap of max_elements on the t |N|^eta
        vertices is checked here, before it is built."""
        if self.t * self.size > config.LIMITS.max_elements:
            raise CapExceededError("crown graph vertex count over cap")
        return np.indices((len(self.socle),) * self.eta).reshape(
            self.eta, -1).T

    def keys(self, i: int):
        """The class key of each row-i vertex, in rank order.  Vertices
        of one row with equal keys have the same neighbours: on the SDR
        path (with an orbit table) the key is the index k of the
        correction in C, an intp array, on the direct path (eta = 1) the
        incidence row of a_i . c."""
        if self.table is not None:
            return np.arange(len(self.digits))
        row = self.ct.table[self.a[i]]
        return [self.rows[row[self.socle[p]]]
                for p in self.digits.ravel().tolist()]

    def class_graph(self) -> tuple:
        """The graph on class nodes: (node_of, adj).

        Nodes are numbered row by row, each row's keys in the order of
        their first vertex; ``node_of[r]`` is the node of the vertex of
        rank r and ``adj`` the boolean node adjacency, filled by
        ``_row_block`` for each pair of rows.
        """
        node_of = []
        keys = []
        offsets = [0]
        for i in range(self.t):
            row_keys: dict = {}
            for key in self.keys(i):
                node_of.append(offsets[-1] + row_keys.setdefault(
                    key, len(row_keys)))
            keys.append(list(row_keys))
            offsets.append(offsets[-1] + len(row_keys))
        node_of = np.array(node_of, dtype=np.intp)
        adj = np.zeros((offsets[-1], offsets[-1]), dtype=bool)
        for i in range(self.t):
            for j in range(i + 1, self.t):
                block = self._row_block(i, j, keys[i], keys[j])
                adj[offsets[i]:offsets[i + 1],
                    offsets[j]:offsets[j + 1]] = block
                adj[offsets[j]:offsets[j + 1],
                    offsets[i]:offsets[i + 1]] = block.T
        return node_of, adj

    def _row_block(self, i: int, j: int, left: list, right: list):
        """The boolean edge block between row-i vertices with the keys
        ``left`` and row-j vertices with the keys ``right``, i != j.

        A direct-path block is decided by ``class_block`` over the
        incidence rows, with the completion search over the free rows as
        its predicate.  On the SDR path each column pair (a_i c_u,
        a_j e_u) has a set of admissible orbits (``OrbitTable.projection``),
        and c, e are joined when those sets have distinct representatives:
        for eta = 1 when the set is not empty, for eta = 2 when both are
        and they are not the same single orbit, read for whole arrays of
        pair codes at once; for eta >= 3 by ``_sdr_exists``.
        """
        if self.table is None:
            free = tuple(u for u in range(self.t) if u not in (i, j))
            return class_block(left, right, (lambda mask: self._completes(
                mask, free)) if free else None)
        count, lone, starts, members = self.table.projection(min(i, j),
                                                              max(i, j))
        size = len(self.socle)
        # the pair code of column u is |N| pos(row-min entry) + pos(other)
        lo, hi = (size, 1) if i < j else (1, size)
        left = self.digits[np.asarray(left, dtype=np.intp)] * lo
        right = self.digits[np.asarray(right, dtype=np.intp)] * hi
        block = np.empty((len(left), len(right)), dtype=bool)
        step = max(1, _PAIR_BLOCK // max(1, len(right)))
        for start in range(0, len(left), step):
            pair = [left[start:start + step, u, None] + right[:, u]
                    for u in range(self.eta)]
            out = block[start:start + step]
            if self.eta == 1:
                out[:] = count[pair[0]] > 0
            elif self.eta == 2:
                c0, c1 = count[pair[0]], count[pair[1]]
                out[:] = (c0 > 0) & (c1 > 0) & (
                    (c0 > 1) | (c1 > 1) | (lone[pair[0]] != lone[pair[1]]))
            else:
                codes = np.stack(pair, axis=-1)
                for idx in np.ndindex(out.shape):
                    out[idx] = _sdr_exists([
                        members[starts[p]:starts[p + 1]].tolist()
                        for p in codes[idx].tolist()])
        return block

    def conjugate(self, r: int, m: tuple) -> int:
        """The rank of (a_i . c)^m for the vertex r = (i, c), m in N^eta:
        ``PreconditionError`` for an r that is not a vertex rank, and
        ``rank(i, m)``'s errors for an m it refuses."""
        tbl, inv = self.ct.table, self.ct.inv
        if not _is_index(r, self.t * self.size):
            raise PreconditionError(
                f"r must be a vertex rank, 0 to {self.t * self.size - 1}: "
                f"its row must be in 0 to {self.t - 1}")
        i, k = divmod(r, self.size)
        self.rank(i, m)  # refuses an m that names no vertex
        ai = self.a[i]
        ac = [tbl[ai][self.socle[p]] for p in self.digits[k].tolist()]
        # a_i^-1 u^-1 (a_i c) u, coordinate by coordinate
        return self.rank(i, tuple(tbl[inv[ai]][tbl[tbl[inv[u]][x]][u]]
                                  for x, u in zip(ac, m)))

    def _completes(self, mask: int, free: tuple) -> bool:
        if not free or not mask:
            return not mask
        key = (mask, free)
        got = self._complete_memo.get(key)
        if got is None:
            rows, rest = self.rows, free[1:]
            got = any(self._completes(mask & rows[z], rest)
                      for z in self.cosets[free[0]])
            self._complete_memo[key] = got
        return got


# ---------------------------------------------------------------------------
# weak connectivity


@dataclass
class RowCheck:
    row: int
    vertices: int
    components: int
    passed: bool
    witness_depths: dict  # conjugator BFS depth -> count


@dataclass
class WeakConnectivityReport:
    t: int
    eta: int
    a: tuple
    mode: str
    n_vertices: int
    n_non_isolated: int
    n_components: int
    rows: list
    passed: bool
    seed: Optional[int] = None
    sample_size: Optional[int] = None

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (f"weak connectivity {state}: t={self.t} eta={self.eta} "
                f"components={self.n_components} mode={self.mode}")


def weak_connectivity(L: MonolithicGroup, t: int, eta: int,
                      a: Optional[Sequence[int]] = None,
                      table: Optional[OrbitTable] = None) -> WeakConnectivityReport:
    """Exhaustive weak-connectivity check of Delta_{a_1..a_t}(L_eta).

    For every row i and every ordered pair of row-i vertices (v1, v2) of
    the Delta graph there must be m in M = N^eta with v1 and v2^m in the
    same component.  Conjugators are tried in BFS order (identity first).
    The components are those of the builder's class graph: vertices with
    equal class keys have the same neighbours.
    """
    builder = CrownGraphBuilder(L, t, eta, a, table)
    node_of, adj = builder.class_graph()
    # a node with an edge lies in one component with all of its vertices
    node_comp = np.where(adj.any(axis=1), component_labels(adj), -1)
    return _exhaustive_report(builder, node_comp[node_of].tolist())


def _exhaustive_report(builder: CrownGraphBuilder,
                       comp_of: list) -> WeakConnectivityReport:
    """The exhaustive report, given the component id of the vertex of
    each rank (-1 for an isolated vertex)."""
    t, eta = builder.t, builder.eta
    n = len(comp_of)
    per_row = n // t
    n_non_isolated = sum(c >= 0 for c in comp_of)
    n_components = len(set(comp_of) - {-1})
    bfs = builder.L.socle_bfs_order

    rows = []
    all_pass = True
    for i in range(t):
        row_vs = [v for v in range(i * per_row, (i + 1) * per_row)
                  if comp_of[v] >= 0]
        row_comps = {comp_of[v] for v in row_vs}
        depths = {}
        row_pass = True
        for v in row_vs:
            reach = set()
            for depth, m in enumerate(itertools.product(bfs, repeat=eta)):
                c = comp_of[builder.conjugate(v, m)]
                if c >= 0:
                    reach.add(c)
                if row_comps <= reach:
                    depths[depth] = depths.get(depth, 0) + 1
                    break
            else:
                row_pass = False
                all_pass = False
        rows.append(RowCheck(i, len(row_vs), len(row_comps), row_pass, depths))
    return WeakConnectivityReport(
        t, eta, builder.a, "exhaustive", n, n_non_isolated, n_components,
        rows, all_pass)


def weak_connectivity_sampled(L: MonolithicGroup, t: int, eta: int,
                              table: OrbitTable, samples: int = 60,
                              seed: int = 0) -> WeakConnectivityReport:
    """Sampled weak connectivity for graphs too large to hold explicitly.

    Seeded pairs (v1, v2) of non-isolated same-row vertices are checked:
    for some conjugator m, v1 and v2^m must be joined in the implicit
    Delta graph by a path of length at most 3 (an edge, a common
    neighbour, or an edge between their neighbourhoods).  The conjugators
    tried are the first |N| of the BFS order on M = N^eta, those trivial
    in every coordinate except the last; for eta >= 2 no other conjugator
    is tried.  A pair that no such path and conjugator join counts as a
    failure.
    """
    import random

    builder = CrownGraphBuilder(L, t, eta, table=table)
    rng = random.Random(seed)
    size = builder.size
    keys = [builder.keys(j) for j in range(t)]
    one = (builder.ct.identity,) * (eta - 1)
    conjugators = [one + (n,) for n in L.socle_bfs_order]

    # neighbour sets are bitmasks over the vertex ranks
    masks: dict = {}

    def neighbours(r: int) -> int:
        out = masks.get(r)
        if out is None:
            i, k = divmod(r, size)
            out = 0
            for j in range(t):
                if j != i:
                    block = builder._row_block(i, j, keys[i][k:k + 1], keys[j])
                    bits = np.packbits(block[0], bitorder="little").tobytes()
                    out |= int.from_bytes(bits, "little") << (j * size)
            masks[r] = out
        return out

    def joined(v: int, w: int) -> bool:
        nv = neighbours(v)
        if nv >> w & 1:
            return True
        nw = neighbours(w) | 1 << w
        if nv & nw:
            return True
        # second ring around v
        ring, bits = 0, bin(nv)[:1:-1]
        u = bits.find("1")
        while u >= 0:
            ring |= neighbours(u)
            u = bits.find("1", u + 1)
        return bool(ring & nw)

    checked = 0
    failures = 0
    depths = {}
    while checked < samples:
        row = rng.randrange(t)
        v1 = row * size + rng.randrange(size)
        v2 = row * size + rng.randrange(size)
        if not (neighbours(v1) and neighbours(v2)):
            continue
        checked += 1
        ok = False
        for depth, m in enumerate(conjugators):
            if joined(v1, builder.conjugate(v2, m)):
                depths[depth] = depths.get(depth, 0) + 1
                ok = True
                break
        if not ok:
            failures += 1
    return WeakConnectivityReport(
        t, eta, builder.a, "sampled", t * size, -1, -1,
        [RowCheck(-1, checked, -1, failures == 0, depths)],
        failures == 0, seed=seed, sample_size=samples)


# ---------------------------------------------------------------------------
# the meet condition


def meet_is_single_block(table: OrbitTable,
                         columns: Optional[Sequence[tuple]] = None) -> bool:
    """Is the meet of the row partitions pi_1, ..., pi_t one block?

    pi_i puts column positions j1, j2 in one part when their row-i
    entries lie in one X-orbit.  Ordered with the single block smallest,
    the meet is the finest common coarsening: positions are linked when
    they agree in some row, and the meet is one block iff the link graph
    is connected.  Columns default to the complete orbit-representative
    system (the reference matrix for L_delta).  ``GroupArgumentError``
    for a column whose length is not t, ``PreconditionError`` for an
    entry that is not an element index.
    """
    if columns is None:
        columns = table.reps
    if any(len(col) != table.t for col in columns):
        raise GroupArgumentError(f"columns must have t = {table.t} entries")
    entries = table.mono.ct().check_indices(
        [x for col in columns for x in col], "column entries")
    labels = table.mono.element_orbit_labels[entries.reshape(-1, table.t)]
    linked = np.zeros((len(columns), len(columns)), dtype=bool)
    for row in labels.T:
        linked |= row[:, None] == row
    return not component_labels(linked).any()


# ---------------------------------------------------------------------------
# counting and witness lemma checks


def delu_fraction(L: MonolithicGroup, l: Permutation,
                  b: Sequence[Permutation]) -> Fraction:
    """Exact density of correction tuples keeping <l, b_1 n_1, ..> = L.

    Preconditions: d = len(b) >= max(2, d_l(L)) and <l, b_1, ..., b_d> = L.
    ``fractions`` is imported here, so only the ``delu`` suite loads it.
    """
    from fractions import Fraction
    reg = registry_for(L.group)
    l_idx, *b_idx = reg.ct.indices([l, *b])
    d = len(b_idx)
    if d < 2:
        raise PreconditionError("need d >= 2")
    rows = reg.incidence_rows()
    if reg.mask_dist(rows[l_idx]) > d:
        raise PreconditionError("d < d_l(L)")
    if reg.mask_of([l_idx] + b_idx):
        raise PreconditionError("<l, b_1, ..., b_d> != L")
    # n -> b_i n maps N onto b_i N: count the tuples over the cosets
    count = sum(map(len, reg.generating_tuples(
        [L.coset_indices(x) for x in b_idx], rows[l_idx])))
    return Fraction(count, len(L.socle_indices) ** d)


# Table rows whose pairs ``cln_witness`` decides together: each
# temporary of a block holds at most _CLN_ROWS x n cells.
_CLN_ROWS = 32


def cln_witness(G: MonolithicGroup, rows: Sequence[int]) -> tuple:
    """Socle correction pairs for the pairs of some rows: every (a, b)
    with a in ``rows`` and [a, b] in the socle, and socle elements n, m
    with a n and b m commuting.

    Returns int32 arrays (a, b, n, m) of equal length, by a in the order
    of ``rows``, then b ascending; n = m = -1 where the search ran out,
    which callers treat as a theorem violation.  Search order, per pair:
    n ascending in element order (identity first); m = 1 when b commutes
    with a n, else m = b^-1 min(C(a n) ∩ b N).  So [a, b] = 1 gives
    (1, 1).  Computed once per call: the commuting pairs of the table,
    the rank of each element's coset of N, and per element x and coset
    the least element of C(x) in it.  The rows are then decided
    ``_CLN_ROWS`` at a time: the pairs with a b N = b a N are read off
    the block, and each step of n decides every pair of the block still
    open by a few gathers.
    """
    G.require_nonabelian()
    ct = G.ct()
    rows = ct.check_indices(rows, "rows")
    A, n_el, e = ct.array, ct.n, ct.identity
    commute = A == A.T
    # a coset's label is its least element, so the labels that label
    # themselves are the cosets in order
    label = G.coset_labels
    rank = (np.cumsum(label == np.arange(n_el)) - 1)[label].astype(np.uint16)
    # least[x, r]: the least element of C(x) in coset r, n_el where none
    least = np.full((n_el, int(rank.max()) + 1), n_el, dtype=np.int32)
    for r in range(least.shape[1]):
        coset = np.flatnonzero(rank == r)
        inside = commute[:, coset]
        some = inside.any(1)
        least[some, r] = coset[inside.argmax(1)[some]]
    inv = np.asarray(ct.inv, dtype=np.int32)
    out = [tuple(np.empty(0, dtype=np.int32) for _ in range(4))]
    for start in range(0, len(rows), _CLN_ROWS):
        block = rows[start:start + _CLN_ROWS]
        i, b = np.nonzero(rank[A[block]] == rank[A[:, block].T])
        a, b = block[i].astype(np.int32), b.astype(np.int32)
        n_of = np.full(len(b), -1, dtype=np.int32)
        m_of = np.full(len(b), -1, dtype=np.int32)
        todo = np.arange(len(b), dtype=np.int32)
        for n in G.socle_indices:
            x, y = A[a[todo], n], b[todo]
            hit = commute[x, y]
            n_of[todo[hit]] = n
            m_of[todo[hit]] = e
            todo, x, y = todo[~hit], x[~hit], y[~hit]
            if not len(todo):
                break
            c = least[x, rank[y]]
            hit = c < n_el
            n_of[todo[hit]] = n
            m_of[todo[hit]] = A[inv[y[hit]], c[hit]]
            todo = todo[~hit]
            if not len(todo):
                break
        out.append((a, b, n_of, m_of))
    return tuple(np.concatenate(col) for col in zip(*out))


def unico_rank_check(L: MonolithicGroup, t: int,
                     b: Sequence[Permutation]) -> bool:
    """Check d_{b_t}(L) <= t - 1 for tuples with <b_1..b_t> N = L, t >= 3."""
    if t < 3 or len(b) != t:
        raise PreconditionError("need t >= 3 elements")
    reg = registry_for(L.group)
    b_idx = reg.ct.indices(b)
    if reg.mask_of(b_idx + reg.ct.indices(L.socle.generators)):
        raise PreconditionError("<b_1, ..., b_t> N != L")
    return reg.mask_dist(reg.mask_of(b_idx[-1:])) <= t - 1
