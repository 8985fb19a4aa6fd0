"""Structural invariants: normal lattices, socle, Frattini subgroup,
solubility, minimal generator numbers d(G) and d_X(G), and normal-subgroup
correction lifting.

The workhorse is SubgroupRegistry, a per-group cache of interned
subgroups (by element index set).  Its joins serve the conjugacy classes
of subgroups by cyclic extension, which joins each class representative
H with one element of prime-power order per N_G(H)-orbit of cyclic
subgroups outside H; H is maximal iff every such join is G.  For a normal
H, N_G(H) = G and the orbits are the G-classes of cyclic subgroups
(``cyclic_classes``), so no normaliser is computed.  A join
<H, z> is closed coset by coset (Dimino) on the coset labels of H, so
its cost is counted in cosets, not in elements: a join reaching G builds
no element set, and a proper one builds its members once per H and
result.  Only the orbits of maximal classes are sorted, which fixes the
order of ``maximal_subgroups()``.  ``crown_powers.square_order`` grows
its kernels with the same joins.

Every generation question, d(G) included, is answered from
maximal-subgroup incidence (P. Hall's view of generation): the maximal
subgroups containing <X> are the AND of the incidence rows of the
elements of X, <X> = G iff that mask is 0, and d_X(G) is the distance of
the mask to 0 (``SubgroupRegistry.mask_dist``).  Elements with equal rows
are interchangeable, and ``SubgroupRegistry.row_classes`` is the one
grouping of elements by row.  ``mask_dist`` reads distance 1 off
row-avoidance bitsets and recurses only below that.  ``class_block``
decides whole blocks of row pairs in numpy, one predicate call per
distinct AND, and ``SubgroupRegistry.class_dists`` keeps the distance of
every pair of row classes, which answers every rank-graph edge test
for d >= 3.  ``SubgroupRegistry.generating_tuples``, the one search for
generating tuples over cells (Omega, Gaschütz lifting, ``delu``),
yields them as integer arrays, a block of prefixes at a time, with the
last coordinate decided by ``class_block``, the one function that ANDs
incidence masks as uint64 words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import config
from .perm_core import (
    CapExceededError,
    CayleyTable,
    Permutation,
    PermutationGroup,
    PreconditionError,
    WitnessSearchFailure,
    derived_subgroup,
    generates,
    is_normal,
    normal_closure,
    subgroup_from_members,
)


# ---------------------------------------------------------------------------
# subgroup registry (dense groups only)


class SubgroupRegistry:
    """Subgroups of one dense group and its maximal-subgroup incidence.

    Joins <H, z> of an interned subgroup with one element (interned by
    the frozenset of their element indices) find the classes of
    subgroups and the maximal subgroups by cyclic extension
    (``subgroup_class_reps``).  ``close`` builds a join from the labelled
    cosets of H; one exceeding |G|/2 is the whole group by Lagrange.
    ``normaliser`` and ``conjugates`` work on the same table rows; a
    normal representative takes N = G and the G-classes of cyclic
    subgroups instead of a normaliser.
    Generation questions go through the incidence rows: ``mask_of`` gives
    the mask of <X>, ``mask_dist`` its distance d_X(G) and ``climb`` a
    shortest completion; ``row_classes`` groups the elements by row, and
    ``class_dists`` holds the distance of every pair of row classes.
    """

    def __init__(self, ct: CayleyTable):
        self.ct = ct
        self._ids: dict[frozenset, int] = {}
        self.members: list[frozenset] = []
        self.gens: list[tuple] = []
        self.trivial_id = self.intern(frozenset([ct.identity]), ())
        self.full_id = self.intern(frozenset(range(ct.n)),
                                   tuple(ct.gen_indices))
        self._lattice: Optional[tuple] = None
        self._rows: Optional[list] = None
        self._row_classes: Optional[tuple] = None
        self._mask_dist: dict = {}
        self._avoid: Optional[list] = None
        self._class_dists = None
        self._labels: dict = {}  # sid -> coset label of each element
        self._joins: dict = {}  # sid -> {labels of <H, z>: its sid}

    def intern(self, members: frozenset, gens: tuple) -> int:
        sid = self._ids.get(members)
        if sid is None:
            sid = len(self.members)
            self._ids[members] = sid
            self.members.append(members)
            self.gens.append(gens)
        return sid

    def close(self, sid: int, z: int) -> int:
        """<H, z> for an interned subgroup H, interned.

        Dimino's coset closure on coset labels: the result is grown as a
        union of left cosets yH, starting from H with the representative
        list [1].  Each coset xH is named by its least element
        (``CayleyTable.coset_labels``), labelled once per H and kept in
        the registry.  For each representative c and each generator s of
        <H, z>, the coset of y = s * c is added when the label of y is
        new; the union is then closed under left multiplication by the
        generators, so it is <H, z>.  Each join costs (cosets x
        generators) label lookups.  By Lagrange, a union that would pass
        |G|/2 is the whole group, so a join reaching G builds no element
        set.  A proper join builds its members once per H and set of
        labels, and is interned with the generators of its first call.
        Callers: the cyclic extension (``join_with_element``) and the
        Schreier generators of ``crown_powers.square_order``.
        """
        ct = self.ct
        table = ct.table
        H = self.members[sid]
        label = self._labels.get(sid)
        if label is None:
            label = self._labels[sid] = ct.coset_labels(sorted(H)).tolist()
        gens = self.gens[sid] + (z,)
        rows = [table[s] for s in gens]
        last = ct.n // (2 * len(H))  # one more coset would pass |G|/2
        cosets = {label[ct.identity]}
        reps = [ct.identity]
        for c in reps:  # grows while it is read
            for row in rows:
                y = row[c]
                if label[y] not in cosets:
                    if len(reps) == last:
                        return self.full_id
                    cosets.add(label[y])
                    reps.append(y)
        joins = self._joins.setdefault(sid, {})
        key = frozenset(cosets)
        got = joins.get(key)
        if got is None:
            K = set()
            for y in reps:
                K.update(map(table[y].__getitem__, H))
            got = joins[key] = self.intern(frozenset(K), gens)
        return got

    def join_with_element(self, sid: int, z: int) -> int:
        """<H, z> for an interned subgroup H: the join of the cyclic
        extension, decided by ``close`` alone (its Lagrange exit settles
        every join that reaches G)."""
        return self.close(sid, z)

    # -- conjugacy classes of subgroups -----------------------------------------

    def conjugates(self, members: frozenset) -> list:
        """Orbit of a subgroup under conjugation by the group generators,
        mapped through the generators' conjugation rows, in the order
        found (breadth first from ``members``)."""
        ct = self.ct
        rows = [row.__getitem__ for row in ct.conj_rows]
        orbit = [members]
        found = {members}
        for s in orbit:  # grows while it is read
            for row in rows:
                img = frozenset(map(row, s))
                if img not in found:
                    found.add(img)
                    orbit.append(img)
        return orbit

    def normaliser(self, sid: int) -> list:
        """N_G(H): the g with h^g in H for every generator h of H.

        A membership mask of H filters the candidates once per
        generator of H, so later generators test only the survivors.
        """
        ct = self.ct
        table, inv = ct.table, ct.inv
        inside = bytearray(ct.n)
        for x in self.members[sid]:
            inside[x] = 1
        out = range(ct.n)
        for h in self.gens[sid]:
            out = [g for g in out if inside[table[table[inv[g]][h]][g]]]
        return list(out)

    def subgroup_class_reps(self) -> list:
        """One interned id per conjugacy class of subgroups of G.

        Cyclic extension (Neubüser; Holt, Eick and O'Brien, *Handbook of
        Computational Group Theory*, 2005): each class representative H
        is joined with one element z of prime-power order per
        N_G(H)-orbit of cyclic subgroups <z> outside H, and each join of
        a new class becomes a representative in turn.  Every class is
        reached: a subgroup K > 1 is a minimal overgroup of one of its
        maximal subgroups M, K = <M, z> for a prime-power part z of any
        element of K outside M, and for n in N_G(H), <H, z^n> = <H, z>^n
        is conjugate to <H, z>.  The same joins give maximality (see
        ``maximal_subgroups``).
        """
        return self._cyclic_extension()[0]

    def _cyclic_extension(self) -> tuple:
        """(class representatives, the conjugacy class of each maximal
        one), once.  A representative with one conjugate is normal, so
        N_G(H) = G and its N_G(H)-orbits of cyclic subgroups are their
        G-classes (``cyclic_classes``): it needs no ``normaliser`` and no
        orbit marking.  A representative's coset labels and join memo are
        dropped once its extensions are done; each maximal class is
        sorted by ascending member lists, so the incidence bits do not
        depend on the order ``conjugates`` found it in."""
        if self._lattice is not None:
            return self._lattice
        ct = self.ct
        table, inv, cyc_id = ct.table, ct.inv, ct.cyclic_id
        cyc_class = cyclic_classes(ct)
        # least generator of each cyclic subgroup of prime-power order > 1
        extenders = {}
        for z in range(ct.n):
            if _is_prime_power(ct.order_of[z]):
                extenders.setdefault(cyc_id[z], z)
        extenders = list(extenders.values())
        seen: set = set()
        normalisers: dict = {}  # None for a normal representative
        orbits: dict = {}
        reps: list = []
        maximal: list = []  # orbits of the maximal representatives

        def register(sid: int) -> None:
            members = self.members[sid]
            if members in seen:
                return
            orbit = self.conjugates(members)
            if len(orbit) == 1:  # normal: the generators of G fix H
                N = None
                bad = any(row[h] not in members
                          for row in ct.conj_rows for h in self.gens[sid])
            else:
                N = self.normaliser(sid)
                bad = len(orbit) * len(N) != ct.n
            if bad:
                raise RuntimeError(
                    f"subgroup of order {len(members)} has {len(orbit)} "
                    f"conjugates but a normaliser of order "
                    f"{len(N or self.normaliser(sid))} in a group of order "
                    f"{ct.n}")
            seen.update(orbit)
            normalisers[sid] = N
            orbits[sid] = orbit
            reps.append(sid)

        register(self.trivial_id)
        for sid in reps:  # grows while it is read: breadth first
            N = normalisers.pop(sid)
            orbit = orbits.pop(sid)
            if sid == self.full_id:
                continue
            members = self.members[sid]
            done = bytearray(ct.n)  # by cyclic id, or by class if N is G
            all_full = True
            for z in extenders:
                c = cyc_id[z] if N else cyc_class[cyc_id[z]]
                if done[c] or z in members:
                    continue
                done[c] = 1
                for g in N or ():
                    done[cyc_id[table[table[inv[g]][z]][g]]] = 1
                j = self.join_with_element(sid, z)
                all_full = all_full and j == self.full_id
                register(j)
            self._labels.pop(sid, None)
            self._joins.pop(sid, None)
            if all_full:
                # tuples: a frozenset takes about four times the memory
                maximal.append([tuple(m) for m in sorted(orbit, key=sorted)])
        self._lattice = (reps, maximal)
        return self._lattice

    def maximal_subgroups(self) -> list:
        """All maximal subgroups, as frozensets of element indices.

        A proper class representative H is maximal iff every extension
        ``subgroup_class_reps`` computed for it is G: otherwise H has a
        minimal overgroup K < G, K = <H, z> for some z of prime-power
        order, and the extension by the orbit representative of <z> is
        conjugate to K.
        """
        return [frozenset(m) for orbit in self._cyclic_extension()[1]
                for m in orbit]

    # -- maximal-subgroup incidence --------------------------------------------

    def incidence_rows(self) -> list:
        """Per element, the bitmask of the maximal subgroups containing it.

        Bit k stands for the k-th entry of ``maximal_subgroups()``.  The
        maximal subgroups containing <z_1, ..., z_r> are the AND of the
        rows of the z_i, so the z_i generate G iff that AND is 0.  Elements
        generating the same cyclic subgroup share a row.
        """
        if self._rows is None:
            ct = self.ct
            rows = [0] * ct.n
            maximals = self.maximal_subgroups()
            for k, members in enumerate(maximals):
                if len(members) == ct.n or ct.n % len(members):
                    raise RuntimeError(
                        f"maximal subgroup of order {len(members)} in a "
                        f"group of order {ct.n}")
                bit = 1 << k
                for x in members:
                    rows[x] |= bit
            common = (1 << len(maximals)) - 1
            for g in ct.gen_indices:
                common &= rows[g]
            if common:
                raise RuntimeError(
                    "a maximal subgroup contains every generator of G")
            self._rows = rows
        return self._rows

    def row_classes(self) -> tuple:
        """(classes, rows, class_of): the elements grouped by incidence
        row, each class ascending and the classes in the order of their
        least element; the row of each class; the class of each element.
        """
        if self._row_classes is None:
            ids: dict = {}
            class_of = [ids.setdefault(row, len(ids))
                        for row in self.incidence_rows()]
            classes = [[] for _ in ids]
            for x, k in enumerate(class_of):
                classes[k].append(x)
            self._row_classes = classes, list(ids), class_of
        return self._row_classes

    def mask_of(self, elems: Iterable[int]) -> int:
        """AND of the rows of ``elems``: the maximal subgroups containing
        <elems>, all ones for no elements."""
        rows = self.incidence_rows()
        mask = rows[self.ct.identity]
        for z in elems:
            mask &= rows[z]
        return mask

    def _avoiders(self) -> list:
        """Per maximal subgroup k, the bitset of the row classes whose
        row does not contain k (bit c for class c), once."""
        if self._avoid is None:
            rows = self.row_classes()[1]
            contain = [0] * self.mask_of(()).bit_length()
            for c, row in enumerate(rows):
                bit = 1 << c
                while row:
                    low = row & -row
                    contain[low.bit_length() - 1] |= bit
                    row ^= low
            every = (1 << len(rows)) - 1
            self._avoid = [every ^ b for b in contain]
        return self._avoid

    def mask_dist(self, mask: int) -> int:
        """Least r with mask & row[z_1] & ... & row[z_r] = 0, i.e. d_H(G)
        for any subgroup H whose incidence mask is ``mask``.

        mdist(0) = 0 and mdist(m) = 1 + min mdist(m & r) over the rows r
        of the row classes with m & r != m (the maximal subgroups
        containing <H, z> are mask(H) & row[z]); memoized per mask.
        Distance 1 is read off the row-avoidance bitsets: some row clears
        m iff the AND of the bitsets of the bits of m is non-zero, so the
        recursion runs only on masks at distance 2 or more.
        """
        if not mask:
            return 0
        got = self._mask_dist.get(mask)
        if got is None:
            avoid = self._avoiders()
            common, rest = -1, mask
            while rest and common:
                low = rest & -rest
                common &= avoid[low.bit_length() - 1]
                rest ^= low
            if common:
                got = 1
            else:
                smaller = {mask & r for r in self.row_classes()[1]}
                smaller.discard(mask)
                got = 1 + min(map(self.mask_dist, smaller))
            self._mask_dist[mask] = got
        return got

    def class_dists(self):
        """``mask_dist(rows[i] & rows[j])`` for every pair (i, j) of row
        classes, as an int8 matrix, built once by ``class_block`` on one
        triangle and mirrored."""
        if self._class_dists is None:
            import numpy as np
            rows = self.row_classes()[1]
            self._class_dists = class_block(rows, rows, self.mask_dist,
                                            np.int8(0))
        return self._class_dists

    def climb(self, mask: int) -> list:
        """Elements z_1..z_r, r = mask_dist(mask), that clear ``mask``.

        Each z_i is the least element lowering the distance by one: the
        least element of the first row class, in the order of least
        elements, whose row does.  As <H, hz> = <H, z>, it is the least
        element of its coset Hz, so the climb passes through coset
        representatives only.
        """
        classes, rows, _ = self.row_classes()
        out = []
        d = self.mask_dist(mask)
        while mask:
            c = next(c for c, row in enumerate(rows)
                     if self.mask_dist(mask & row) == d - 1)
            out.append(classes[c][0])
            mask &= rows[c]
            d -= 1
        return out

    def generating_tuples(self, cells: Sequence[Sequence[int]],
                          mask: Optional[int] = None):
        """The tuples with one entry per cell whose incidence rows AND
        with ``mask`` (default: every maximal subgroup) to 0, lazily, in
        the product order of the cells: non-empty (k, t) intp arrays,
        one per block of prefixes.

        A prefix-AND search: each prefix of the first t - 2 cells carries
        the AND of its rows; its block is that prefix extended by the
        entries of cell t - 2 (as many at a time as keep the block within
        ``_TUPLE_BLOCK`` tuples), and the last coordinate of the whole
        block is decided by one ``class_block`` of the heads' rows, each
        ANDed with the prefix's, against the last cell's rows.  The
        search space, the product of the cell sizes, is checked against
        the cap first, before any incidence row is read.
        """
        import numpy as np
        total = math.prod(map(len, cells))
        cap = config.LIMITS.max_search_space
        if total > cap:
            raise CapExceededError(
                f"search space of {total} tuples exceeds the cap {cap}")
        rows = self.incidence_rows()
        if mask is None:
            mask = rows[self.ct.identity]
        t = len(cells)
        if not t:
            return iter([] if mask else [np.empty((1, 0), dtype=np.intp)])
        last = np.asarray(cells[-1], dtype=np.intp)
        last_rows = [rows[y] for y in cells[-1]]
        if t == 1:  # one empty head; the prefix mask is ANDed in below
            heads = np.empty((1, 0), dtype=np.intp)
            head_rows = [rows[self.ct.identity]]
        else:
            heads = np.asarray(cells[-2], dtype=np.intp)[:, None]
            head_rows = [rows[x] for x in cells[-2]]
        step = max(1, _TUPLE_BLOCK // max(1, len(last)))

        def blocks(prefix, mask, depth):
            if depth < t - 2:
                for x in cells[depth]:
                    yield from blocks(prefix + (x,), mask & rows[x],
                                      depth + 1)
                return
            for start in range(0, len(heads), step):
                i, j = np.nonzero(class_block(
                    [row & mask for row in head_rows[start:start + step]],
                    last_rows))
                if len(i):
                    out = np.empty((len(i), t), dtype=np.intp)
                    out[:, :depth] = prefix
                    out[:, depth:-1] = heads[start + i]
                    out[:, -1] = last[j]
                    yield out
        return blocks((), mask, 0)


# ---------------------------------------------------------------------------
# class blocks

# numpy is imported where it is used, as in ``graphs``.

# Left masks ANDed with all right masks at a time; the temporary holds
# rows * len(right) * words uint64 cells.
_BLOCK_ROWS = 32
# Tuples decided at a time by ``generating_tuples``.
_TUPLE_BLOCK = 1 << 15
_WORD = (1 << 64) - 1


def class_block(left: list, right: list, joined=None, empty=True):
    """Matrix over the pairs (left[i], right[j]) of incidence masks:
    ``empty`` where their AND is 0, else ``joined`` of the AND (False
    without ``joined``), in the dtype of ``empty``.

    The masks are ANDed as uint64 words, ``_BLOCK_ROWS`` left rows at a
    time.  The distinct non-empty ANDs of a row block are found in numpy
    (a lexsort over the words, the starts of runs of equal ANDs, and a
    cumsum from each pair back to its run), and ``joined`` is called once
    per distinct AND, which callers memoise on the mask; so the Python
    work grows with the number of distinct ANDs, not with the number of
    pairs.  For the symmetric call (``left is right``) a row block meets
    only the columns from its first row on, and the matrix is mirrored:
    one triangle holds every distinct AND.
    """
    import numpy as np
    widest = max(map(int.bit_length, left + right), default=0)
    n_words = max(1, -(-widest // 64))
    step = 8 * n_words
    # row k holds word k of every mask, low word first
    left_w, right_w = (np.array([[(m >> (64 * k)) & _WORD for m in masks]
                                 for k in range(n_words)], dtype="<u8")
                       for masks in (left, right))
    out = np.full((len(left), len(right)), empty)
    for start in range(0, len(left), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        first = start if left is right else 0  # the first column met
        # word k of the AND of each pair of the block, row by row
        anded = [(lw[start:stop, None] & rw[first:]).reshape(-1)
                 for lw, rw in zip(left_w, right_w)]
        nonempty = anded[0] != 0
        for word in anded[1:]:
            nonempty |= word != 0
        block = np.full(len(nonempty), empty)
        if joined is None:
            block[nonempty] = False
        else:
            rest = np.flatnonzero(nonempty)
            words = [word[rest] for word in anded]
            order = np.lexsort(words)
            words = [word[order] for word in words]
            new = np.zeros(len(rest), dtype=bool)
            new[:1] = True
            for word in words:
                new[1:] |= word[1:] != word[:-1]
            # the distinct ANDs as little-endian bytes, low word first
            keys = np.stack([word[new] for word in words], axis=1).tobytes()
            verdict = np.array(
                [joined(int.from_bytes(keys[i:i + step], "little"))
                 for i in range(0, len(keys), step)], dtype=out.dtype)
            block[rest[order]] = verdict[np.cumsum(new) - 1]
        block = block.reshape(min(stop, len(left)) - start, -1)
        out[start:stop, first:] = block
        if left is right:
            out[first:, start:stop] = block.T
    return out


def cyclic_classes(ct: CayleyTable) -> list:
    """Per cyclic subgroup id, the least class id of its generators: <a>
    and <b> are conjugate iff a generator of <b> is conjugate to a, so
    iff they get one label."""
    cyc_id, class_id = ct.cyclic_id, ct.class_id
    label = [ct.n] * (max(cyc_id) + 1)  # above every class id
    for c, k in zip(cyc_id, class_id):
        if k < label[c]:
            label[c] = k
    return label


def _is_prime_power(k: int) -> bool:
    """Whether k = p^e for a prime p and e >= 1."""
    if k < 2:
        return False
    p = 2
    while k % p:
        p += 1
    while k % p == 0:
        k //= p
    return k == 1


def registry_for(G: PermutationGroup) -> SubgroupRegistry:
    """The one registry of G's Cayley table, kept on G (``G._registry``)
    and dropped with the table by ``release_dense_caches``.  The table
    holds no reference back, so a released table is freed at once."""
    ct = G.cayley_table()
    if G._registry is None:
        G._registry = SubgroupRegistry(ct)
    return G._registry


# ---------------------------------------------------------------------------
# normal subgroup lattice


@dataclass
class NormalLattice:
    normals: list  # all normal subgroups, ascending (order, element indices)
    minimal_normals: list


def normal_subgroups(G: PermutationGroup) -> NormalLattice:
    """Complete normal-subgroup lattice, on the Cayley table.

    A normal subgroup is a union of conjugacy classes closed under
    products (Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005), so the lattice is computed on sets of class ids.
    For classes C_i and C_j, C_i C_j is a union of classes, all of them
    met by x C_j for any one x in C_i: one table row per class gives the
    class-product support table.  The normal closure of C_i is the least
    class set holding 1 and closed under products with C_i.  Every
    normal subgroup is the product of the closures of its classes, and
    the join of normal subgroups N and M is NM, so multiplying what is
    found by each closure in turn yields the lattice.

    Groups are built for the normals only at the end: a proper minimal
    normal N as the normal closure of its least non-identity element,
    every other one from its members.  The lattice needs the dense table,
    so ``max_dense_order`` bounds it.
    """
    ct = G.cayley_table()
    classes, cid = ct.classes, ct.class_id
    # product[i][j]: the classes of x y, x the least element of C_i and
    # y in C_j
    product = []
    for cls in classes:
        row = [set() for _ in classes]
        for j, c in set(zip(cid, map(cid.__getitem__, ct.table[cls[0]]))):
            row[j].add(c)
        product.append(row)

    def times(left, right) -> frozenset:
        """The classes met by the products of two class sets."""
        return frozenset().union(*(product[i][j] for i in left
                                   for j in right))

    trivial = frozenset([cid[ct.identity]])
    found = {trivial}
    for i in range(len(classes)):
        closure = grown = trivial
        while grown:
            grown = times(grown, [i]) - closure
            closure |= grown
        found |= {times(N, closure) for N in found if not closure <= N}

    members = {N: sorted(x for i in N for x in classes[i]) for N in found}
    normals = sorted(found, key=lambda N: (len(members[N]), members[N]))
    minimal = [N for N in normals[1:]
               if not any(trivial < M < N for M in normals)]
    groups = {}
    for N in normals:
        if N == normals[-1]:
            groups[N] = G
        elif N == trivial:
            groups[N] = PermutationGroup(G.degree, ())
        elif N in minimal:
            groups[N] = normal_closure(G, [ct.perm(members[N][1])])
        else:
            groups[N] = subgroup_from_members(
                G.degree, [ct.perm(x) for x in members[N]])
    return NormalLattice([groups[N] for N in normals],
                         [groups[N] for N in minimal])


def socle(G: PermutationGroup) -> PermutationGroup:
    """Join of all minimal normal subgroups."""
    minimals = normal_subgroups(G).minimal_normals
    if not minimals:
        return PermutationGroup(G.degree, ())
    gens = []
    for N in minimals:
        gens.extend(N.generators)
    return PermutationGroup(G.degree, gens, known_order=G.order)


def is_simple(G: PermutationGroup) -> bool:
    return G.order > 1 and len(normal_subgroups(G).normals) == 2


def is_soluble(G: PermutationGroup) -> bool:
    """Derived series reaches the trivial group."""
    cur = G
    while cur.order > 1:
        nxt = derived_subgroup(cur)
        if nxt.order == cur.order:
            return False
        cur = nxt
    return True


# ---------------------------------------------------------------------------
# Frattini subgroup


def frattini(G: PermutationGroup) -> PermutationGroup:
    """Intersection of all maximal subgroups (the non-generators): the
    row class of the identity, as an element lies in every maximal
    subgroup exactly when its incidence row equals the identity's."""
    if G.order == 1:
        return PermutationGroup(G.degree, ())
    reg = registry_for(G)
    ct = reg.ct
    classes, _, class_of = reg.row_classes()
    return subgroup_from_members(
        G.degree, [ct.perm(i) for i in classes[class_of[ct.identity]]])


# ---------------------------------------------------------------------------
# minimal generation


@dataclass
class RankCertificate:
    d: int
    witness: tuple  # generating sequence of length d


def min_rank(G: PermutationGroup) -> RankCertificate:
    """d(G) with a witness: ``RankCertificate(d, witness)``, where the d
    elements of ``witness`` generate G (``generates(G, witness)``).

    Dense groups, from the incidence rows for every d: x is the first
    conjugacy-class representative, by descending element order, whose
    row has the least ``mask_dist`` (generation is invariant under
    simultaneous conjugation), d is 1 + that distance, and
    ``SubgroupRegistry.climb`` completes x with least elements.  d is
    checked against the trivial subgroup's distance.
    """
    if G.order == 1:
        return RankCertificate(0, ())
    if G.order <= config.LIMITS.max_dense_order:
        return _min_rank_dense(G)
    # Large groups: a generating pair plus non-abelianness (which rules
    # out d = 1) certifies d(G) = 2 without enumeration.  The pair search
    # is a fixed-seed random probe; generating pairs are dense whenever
    # they exist at this scale.
    pruned = _prune_generators(G)
    if len(pruned) == 1:
        return RankCertificate(1, tuple(pruned))
    if not G.is_abelian():
        if len(pruned) == 2:
            return RankCertificate(2, tuple(pruned))
        import random
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            x, y = G.random_element(rng), G.random_element(rng)
            if generates(G, [x, y]):
                return RankCertificate(2, (x, y))
    raise CapExceededError(
        f"order {G.order} exceeds dense cap and no small certificate found")


def _prune_generators(G: PermutationGroup) -> list:
    """Greedy removal of redundant generators (deterministic)."""
    gens = sorted(G.generators)
    keep = list(gens)
    for g in gens:
        candidate = [h for h in keep if h != g]
        if candidate and generates(G, candidate):
            keep = candidate
    return keep


def _min_rank_dense(G: PermutationGroup) -> RankCertificate:
    reg = registry_for(G)
    ct = reg.ct
    rows = reg.incidence_rows()
    class_reps = sorted((cls[0] for cls in ct.classes),
                        key=lambda r: (-ct.order_of[r], r))
    x = min(class_reps, key=lambda r: reg.mask_dist(rows[r]))
    d = 1 + reg.mask_dist(rows[x])
    if d != reg.mask_dist(reg.mask_of(())):
        raise RuntimeError(
            f"certified d = {d} differs from the trivial subgroup's "
            f"distance {reg.mask_dist(reg.mask_of(()))}")
    witness = (ct.perm(x),) + tuple(ct.perm(z) for z in reg.climb(rows[x]))
    return RankCertificate(d, witness)


def d_X(G: PermutationGroup, X: Iterable[Permutation]) -> int:
    """Smallest r such that X together with r further elements generates G."""
    reg = registry_for(G)
    return reg.mask_dist(reg.mask_of(reg.ct.indices(X)))


def gaschutz_lift(G: PermutationGroup, M: PermutationGroup,
                  X: Sequence[Permutation], g: Sequence[Permutation]) -> tuple:
    """Corrections n_1..n_r in M with <g_1 n_1, ..., g_r n_r, X> = G.

    Preconditions: M normal in G, <g, X, M> = G and r >= d_X(G).  Violated
    preconditions raise PreconditionError; search exhaustion (which the
    lifting lemma rules out) raises WitnessSearchFailure instead.
    """
    if not is_normal(G, M):
        raise PreconditionError("M is not normal in G")
    reg = registry_for(G)
    ct = reg.ct
    g_idx, x_idx, m_idx = (ct.indices(s) for s in (g, X, M.elements()))
    if reg.mask_of(x_idx + g_idx + m_idx):
        raise PreconditionError("<g, X, M> is not all of G")
    x_mask = reg.mask_of(x_idx)
    if len(g_idx) < reg.mask_dist(x_mask):
        raise PreconditionError("r < d_X(G)")
    table = ct.table
    # cell i is g_i M, ordered by the correction n in sorted M
    cells = [[table[gi][n] for n in m_idx] for gi in g_idx]
    found = next(reg.generating_tuples(cells, x_mask), None)
    if found is None:
        raise WitnessSearchFailure(
            "no correction tuple found; contradicts the lifting lemma")
    return tuple(ct.perm(table[ct.inv[gi]][y])
                 for gi, y in zip(g_idx, found[0].tolist()))
