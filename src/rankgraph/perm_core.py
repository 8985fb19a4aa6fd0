"""Permutation arithmetic and permutation-group infrastructure.

Conventions, fixed once and used everywhere:

* Points are 0-based; a permutation of degree n acts on {0, ..., n-1}.
* Products compose left to right: ``(p * q)(i) == q(p(i))``, so in a word
  ``g1 * g2`` the factor ``g1`` acts first.
* Conjugation follows the same convention:
  ``x.conjugate(g) == g.inverse() * x * g``.
* Element enumeration is deterministic: elements are ordered
  lexicographically by their image tuples (the identity always comes
  first), so vertex indices, orbit representatives and reports are
  reproducible across runs.
* ``CayleyTable.indices`` is the one conversion from permutations to
  element indices.  Indices follow the order of image tuples, so the
  indices of a subgroup's ``elements()`` come out ascending.

Groups are represented by generators plus a stabilizer-chain certificate
(deterministic Schreier-Sims with base points chosen as the smallest
non-fixed point), which provides order and membership without
enumeration.  Groups and permutations are immutable after construction
and safe to share across parallel workers.

Element lists and Cayley tables are the two dense structures; their caps
(``max_elements``, ``max_dense_order``) are read from ``config.LIMITS``
when they run, so ``config.caps`` governs every caller.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from . import config


class GroupArgumentError(ValueError):
    """Bad input: degree mismatch, non-bijection, element outside group..."""


class DegreeMismatchError(GroupArgumentError):
    pass


class NotNormalError(GroupArgumentError):
    pass


class PreconditionError(GroupArgumentError):
    """A documented operation precondition does not hold."""


class CapExceededError(RuntimeError):
    """A desk-scale resource cap was exceeded; result not computed."""


class WitnessSearchFailure(RuntimeError):
    """An exhaustive search found no witness where theory promises one.

    Distinct from PreconditionError: callers treat this as a finding
    (theorem violation) rather than a usage error.
    """


# ---------------------------------------------------------------------------
# permutations


def _mult(p: tuple, q: tuple) -> tuple:
    """Image tuple of p then q: ``_mult(p, q)[i] == q[p[i]]``.

    Every composition of image tuples goes through here, except in the
    stabilizer-chain loops, which inline the ``itemgetter`` call.
    ``itemgetter`` with one argument returns a scalar, so degrees 0 and 1
    take the plain path.
    """
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(q[i] for i in p)


def _inv(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


class Permutation:
    """An immutable permutation stored as its tuple of point images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise GroupArgumentError(
                f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def _raw(cls, images: tuple) -> "Permutation":
        """Wrap a trusted image tuple without re-validating."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Build a permutation of the given degree from disjoint cycles."""
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        q = other.images
        p = self.images
        if len(p) != len(q):
            raise DegreeMismatchError(
                f"degree mismatch: {len(p)} != {len(q)}")
        return Permutation._raw(_mult(p, q))

    def inverse(self) -> "Permutation":
        return Permutation._raw(_inv(self.images))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, z: "Permutation") -> "Permutation":
        """self.conjugate(z) == z^-1 * self * z."""
        return z.inverse() * self * z

    def commutator(self, other: "Permutation") -> "Permutation":
        """[self, other] == self^-1 * other^-1 * self * other."""
        return self.inverse() * other.inverse() * self * other

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        n = 1
        for cycle in self.cycles():
            n = _lcm(n, len(cycle))
        return n

    def cycles(self) -> list:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(cycle)
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def _lcm(a: int, b: int) -> int:
    from math import gcd
    return a // gcd(a, b) * b


# ---------------------------------------------------------------------------
# stabilizer chains (deterministic Schreier-Sims)


class _Level:
    __slots__ = ("point", "gens", "visible", "transversal", "orbit", "done")

    def __init__(self, point: int, id_images: tuple):
        self.point = point
        self.gens = []  # [(images, inverse images)] added at this level
        self.visible = None  # gens of this level and below; None: stale
        self.transversal = {point: (id_images, id_images)}
        self.orbit = [point]  # discovery order; reps are never replaced
        self.done = {}  # generator images -> orbit prefix already processed


class StabilizerChain:
    """Base and strong generating set built by deterministic Schreier-Sims.

    Base points are always the smallest point moved by the generator that
    created the level, keeping fixtures stable across runs.  If
    ``known_order`` is supplied, construction stops as soon as the product
    of fundamental-orbit sizes reaches it; the product can only reach the
    true order when the chain is complete, so the early exit is sound and
    certifies the order.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation] = (),
                 known_order: Optional[int] = None):
        self.degree = degree
        self._id = tuple(range(degree))
        self.levels: list[_Level] = []
        self._known_order = known_order
        self._order = 1  # product of the transversal sizes
        for g in generators:
            self.add_generator(g)

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        return self._order

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"degree mismatch: {p.degree} != {self.degree}")
        residue, _ = self._sift(p.images, 0)
        return residue == self._id

    def sample(self, rng) -> Permutation:
        """Uniform random element (chain transversals are uniform)."""
        img = self._id
        for lv in self.levels:
            pt = rng.choice(sorted(lv.transversal))
            img = _mult(img, lv.transversal[pt][0])
        return Permutation._raw(img)

    # -- construction ---------------------------------------------------------

    def _done(self) -> bool:
        return self._known_order is not None and self._order == self._known_order

    def add_generator(self, g: Permutation) -> None:
        if g.degree != self.degree:
            raise DegreeMismatchError(
                f"generator degree {g.degree} != chain degree {self.degree}")
        if self._done():
            return
        self._add_images(0, g.images)

    # A level exists only for a non-identity permutation, so the degree
    # is at least 2 wherever one is read, and ``itemgetter(*p)(q)`` is
    # ``_mult(p, q)`` inlined.

    def _sift(self, img: tuple, start: int):
        """Sift img through levels[start:]; return (residue, stuck level)."""
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            entry = lv.transversal.get(img[lv.point])
            if entry is None:
                return img, i
            img = itemgetter(*img)(entry[1])
        return img, len(self.levels)

    def _add_images(self, start: int, img: tuple) -> None:
        residue, _ = self._sift(img, start)
        if residue == self._id:
            return
        # Walk the residue down to the first level whose base point it moves;
        # every level on the path sees a genuinely new generator below it and
        # is re-closed on the way back up.
        j = start
        while True:
            if j == len(self.levels):
                point = min(p for p in range(self.degree) if residue[p] != p)
                self.levels.append(_Level(point, self._id))
                break
            if residue[self.levels[j].point] != self.levels[j].point:
                break
            j += 1
        self.levels[j].gens.append((residue, _inv(residue)))
        for lv in self.levels[:j + 1]:
            lv.visible = None
        for i in range(j, start - 1, -1):
            self._extend_orbit(i)
            if self._done():
                return
            self._close_level(i)
            if self._done():
                return

    def _visible_gens(self, i: int) -> list:
        """The generators of levels[i:], cached on level i until a level
        at or below it gains one."""
        lv = self.levels[i]
        if lv.visible is None:
            lv.visible = [g for level in self.levels[i:] for g in level.gens]
        return lv.visible

    def _extend_orbit(self, i: int) -> None:
        """Grow the fundamental orbit at level i; existing reps are kept."""
        lv = self.levels[i]
        gens = self._visible_gens(i)
        size = len(lv.orbit)
        queue = list(lv.orbit)
        qi = 0
        while qi < len(queue):
            p = queue[qi]
            qi += 1
            u, u_inv = lv.transversal[p]
            for g, g_inv in gens:
                q = g[p]
                if q not in lv.transversal:
                    lv.transversal[q] = (itemgetter(*u)(g),
                                         itemgetter(*g_inv)(u_inv))
                    lv.orbit.append(q)
                    queue.append(q)
        if len(lv.orbit) != size:
            self._order = math.prod(len(level.transversal)
                                    for level in self.levels)

    def _close_level(self, i: int) -> None:
        """Sift every unprocessed Schreier generator of level i downwards.

        Sifting below level i never changes this level's orbit, which only
        grows at its end, so the points done for a generator are always a
        prefix of the orbit.  A generator's range is marked done before it
        is sifted: the loop leaves early only once the chain is complete.
        """
        lv = self.levels[i]
        while True:
            n = len(lv.orbit)
            pending = [g for g, _ in self._visible_gens(i)
                       if lv.done.get(g, 0) < n]
            if not pending:
                return
            for g in pending:
                start = lv.done.get(g, 0)
                lv.done[g] = n
                for p in lv.orbit[start:n]:
                    u = lv.transversal[p][0]
                    x = itemgetter(*u)(g)  # maps base point to g(p)
                    schreier = itemgetter(*x)(lv.transversal[x[lv.point]][1])
                    if schreier != self._id:
                        self._add_images(i + 1, schreier)
                        if self._done():
                            return


# ---------------------------------------------------------------------------
# permutation groups


class PermutationGroup:
    """A finite permutation group given by generators with a chain certificate.

    A caller that already holds every element, sorted by image tuple, may
    pass them as ``_elements`` so that ``elements()`` need not rebuild
    them.  Like ``_chain``, the list is trusted; the caller checks it.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation] = (),
                 known_order: Optional[int] = None,
                 _chain: Optional[StabilizerChain] = None,
                 _elements: Optional[tuple] = None):
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}")
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = _chain if _chain is not None else StabilizerChain(
            degree, gens, known_order)
        self._order = self._chain.order()
        self._elements: Optional[tuple] = _elements
        self._cayley = None  # lazy CayleyTable
        self._registry = None  # the table's SubgroupRegistry (group_structure)

    # -- basics ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return self._chain.contains(p)

    def contains(self, p: Permutation) -> bool:
        return self._chain.contains(p)

    def contains_group(self, other: "PermutationGroup") -> bool:
        return all(self.contains(g) for g in other.generators)

    def random_element(self, rng) -> Permutation:
        return self._chain.sample(rng)

    def __repr__(self) -> str:
        return (f"PermutationGroup(degree={self.degree}, order={self._order}, "
                f"ngens={len(self.generators)})")

    # -- element enumeration ----------------------------------------------------

    def elements(self) -> tuple:
        """All elements in deterministic (lexicographic) order.

        The enumeration cap is checked on every call, so a list built
        under larger caps is not handed out under smaller ones.
        """
        if self._order > config.LIMITS.max_elements:
            raise CapExceededError(
                f"order {self._order} exceeds enumeration cap "
                f"{config.LIMITS.max_elements}")
        if self._elements is None:
            seen = {self.identity.images}
            frontier = [self.identity.images]
            gen_images = [g.images for g in self.generators]
            while frontier:
                new = []
                for img in frontier:
                    for g in gen_images:
                        prod = _mult(img, g)
                        if prod not in seen:
                            seen.add(prod)
                            new.append(prod)
                frontier = new
            self._elements = tuple(
                Permutation._raw(img) for img in sorted(seen))
        return self._elements

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for a, b in
                   itertools.combinations_with_replacement(gens, 2))

    def cayley_table(self) -> "CayleyTable":
        """The dense table, built once.  The dense-table cap is checked on
        every call, like the enumeration cap in ``elements()``."""
        if self._order > config.LIMITS.max_dense_order:
            raise CapExceededError(
                f"order {self._order} exceeds dense-table cap "
                f"{config.LIMITS.max_dense_order}")
        if self._cayley is None:
            self._cayley = CayleyTable(self)
        return self._cayley

    def release_dense_caches(self) -> None:
        """Drop the element list, the Cayley table and its subgroup
        registry; all are rebuilt on demand.  Nothing else refers to the
        table, so it is freed at once, without the cyclic GC."""
        self._elements = None
        self._cayley = None
        self._registry = None

    def __getstate__(self) -> dict:
        # the table's memoryview rows do not pickle; a copy rebuilds it
        return {**self.__dict__, "_cayley": None, "_registry": None}


def group_from_generators(degree: int, gens: Iterable[Permutation],
                          known_order: Optional[int] = None) -> PermutationGroup:
    """Build a group with a fresh stabilizer chain; empty gens give the trivial group."""
    return PermutationGroup(degree, gens, known_order=known_order)


def generates(G: PermutationGroup, elems: Iterable[Permutation]) -> bool:
    """True iff the given elements of G generate all of G."""
    elems = list(elems)
    for p in elems:
        if not G.contains(p):
            raise GroupArgumentError(
                f"element {p.cycle_string()} lies outside the group")
    chain = StabilizerChain(G.degree, elems, known_order=G.order)
    return chain.order() == G.order


def subgroup_from_members(degree: int, members: Sequence[Permutation]) -> PermutationGroup:
    """Group on the given member list, with a reduced generating set.

    The members, every element of the group sorted by image tuple, become
    its element list; a list whose length is not the order of the group
    it generates raises ``GroupArgumentError``.
    """
    chain = StabilizerChain(degree)
    gens = []
    target = len(members)
    for g in members:
        if chain.order() == target:
            break
        if not chain.contains(g):
            chain.add_generator(g)
            gens.append(g)
    if chain.order() != target:
        raise GroupArgumentError(
            f"{target} members generate a group of order {chain.order()}")
    return PermutationGroup(degree, gens, _chain=chain,
                            _elements=tuple(members))


def normal_closure(G: PermutationGroup, seeds: Iterable[Permutation]) -> PermutationGroup:
    """Smallest normal subgroup of G containing the seed elements."""
    chain = StabilizerChain(G.degree)
    gens = []
    queue = []
    for s in seeds:
        if not G.contains(s):
            raise GroupArgumentError("seed element lies outside the group")
        if not s.is_identity() and not chain.contains(s):
            chain.add_generator(s)
            gens.append(s)
            queue.append(s)
    while queue:
        s = queue.pop()
        for g in G.generators:
            c = s.conjugate(g)
            if not chain.contains(c):
                chain.add_generator(c)
                gens.append(c)
                queue.append(c)
    return PermutationGroup(G.degree, gens, _chain=chain)


def is_normal(G: PermutationGroup, H: PermutationGroup) -> bool:
    """True iff H (a subgroup of G) is normalized by G."""
    if not G.contains_group(H):
        raise GroupArgumentError("H is not contained in G")
    return all(H.contains(h.conjugate(g))
               for h in H.generators for g in G.generators)


def derived_subgroup(G: PermutationGroup) -> PermutationGroup:
    """Commutator subgroup [G, G]."""
    comms = [a.commutator(b) for a in G.generators for b in G.generators]
    return normal_closure(G, [c for c in comms if not c.is_identity()])


# ---------------------------------------------------------------------------
# quotients


def quotient(G: PermutationGroup, N: PermutationGroup):
    """Faithful permutation action of G/N on right cosets of N.

    Returns (quotient group, projection function G -> G/N).  For normal N
    the kernel of the coset action is exactly N, so the image order is
    |G|/|N|; this is asserted.  Cosets are read off G's Cayley table
    (``CayleyTable.coset_labels``), so the dense-table cap bounds |G|.
    Coset indices follow the order of the least element index of each
    coset, i.e. the lexicographic order of canonical (minimal) coset
    representatives.
    """
    import numpy as np
    if not is_normal(G, N):
        raise NotNormalError("N is not a normal subgroup of G")
    ct = G.cayley_table()
    labels = ct.coset_labels(ct.indices(N.elements()))
    # a label is the least element of its coset, so it labels itself
    reps = np.flatnonzero(labels == np.arange(ct.n))
    rank = np.zeros(ct.n, dtype=np.int64)
    rank[reps] = np.arange(len(reps))

    def project_images(x: int) -> tuple:
        # coset N r goes to N r x
        return tuple(rank[labels[ct.array[reps, x]]].tolist())

    gen_imgs = [Permutation._raw(project_images(g)) for g in ct.gen_indices]
    Q = PermutationGroup(len(reps), gen_imgs, known_order=G.order // N.order)
    if Q.order * N.order != G.order:
        raise GroupArgumentError(
            "coset action order mismatch; N is not normal in G")

    def project(p: Permutation) -> Permutation:
        return Permutation._raw(project_images(*ct.indices([p])))

    return Q, project


# ---------------------------------------------------------------------------
# dense element tables


def bfs_tree(n: int, maps: Sequence, root: int) -> tuple:
    """Breadth-first spanning tree from ``root`` of the graph on 0..n-1
    with edges p -> maps[k][p] (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005).

    Lists (order, parent, gen, starts): ``order`` holds the nodes reached
    in discovery order, each node's children in order of k, with
    ``order[i] == maps[gen[i]][parent[i]]`` for i > 0 and -1 as the
    root's parent and gen; level j is ``order[starts[j]:starts[j + 1]]``.
    """
    seen = bytearray(n)
    seen[root] = 1
    order, parent, gen, starts = [root], [-1], [-1], [0]
    while starts[-1] < len(order):
        end = len(order)
        for p in order[starts[-1]:end]:
            for k, m in enumerate(maps):
                q = m[p]
                if not seen[q]:
                    seen[q] = 1
                    order.append(q)
                    parent.append(p)
                    gen.append(k)
        starts.append(end)
    return order, parent, gen, starts


# Largest order of a Cayley table: its indices are stored as uint16.
_MAX_TABLE_ORDER = 1 << 16
# Table rows gathered at a time by ``coset_labels``: its temporary holds
# rows * |H| cells, and a group of order up to 512 is one block.
_BLOCK_ROWS = 512


class CayleyTable:
    """Index-level view of a small group: elements, products, classes.

    Everything downstream that has to touch all |G|^2 pairs (generation
    tests, conjugacy, centralizers, subgroup joins) runs on integer
    indices into the deterministic element order instead of permutation
    objects.

    ``table[x][q]`` is the index of ``x * q``.  Only the generator rows
    are composed from permutation images.  Every other row q = g * p is
    one numpy gather, ``row(g * p) = row(g)[row(p)]``, along the edge
    p -> q of ``bfs_tree`` over left multiplication by the generators
    (the regular representation; Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005).  ``inv`` follows the same edges,
    (g * p)^-1 = p^-1 * g^-1.

    ``array`` is the only storage: one read-only ``uint16`` array of 2n^2
    bytes, read whole by the numpy kernels.  ``table`` holds its rows as
    ``memoryview``s, so Python kernels index ``table[x][q]`` without a
    copy.  ``uint16`` holds the indices of groups of order up to 65,536.

    Every invariant is set at construction, as a plain attribute:
    ``order_of`` and ``cyclic_id`` (per element, the id of the cyclic
    subgroup it generates; ids run densely from 0, in the order of each
    subgroup's least generator) come from one walk over the powers of
    each cyclic subgroup; ``conj_rows`` holds, per entry of
    ``gen_indices``, the index of g^-1 * x * g for every x; ``classes``
    (sorted member tuples, in order of their least element) and
    ``class_id`` come from the ``bfs_tree`` of each class over
    ``conj_rows``.
    """

    def __init__(self, G: PermutationGroup):
        import numpy as np
        if G.order > _MAX_TABLE_ORDER:
            raise CapExceededError(
                f"order {G.order} exceeds {_MAX_TABLE_ORDER}, the largest "
                "order whose element indices fit the uint16 table")
        self.group = G
        self.elements = G.elements()
        n = len(self.elements)
        self.n = n
        self.index = {p.images: i for i, p in enumerate(self.elements)}
        images = [p.images for p in self.elements]
        idx = self.index
        self.identity = idx[tuple(range(G.degree))]  # == 0 by lex order
        self.gen_indices = tuple(idx[g.images] for g in G.generators)

        rows = np.empty((n, n), dtype=np.uint16)
        rows[self.identity] = np.arange(n)
        gens = self.gen_indices  # distinct, without the identity
        for g in gens:
            gimg = images[g]
            rows[g] = [idx[_mult(gimg, q)] for q in images]
        # rows[g][p] = g * p, and row(g * p) = row(g)[row(p)]
        order, parent, gen, _ = bfs_tree(
            n, [rows[g].tolist() for g in gens], self.identity)
        if len(order) != n:
            raise RuntimeError(
                f"Cayley table search reached {len(order)} of {n} rows")
        for q, p, k in zip(order[1:], parent[1:], gen[1:]):
            rows[q] = rows[gens[k]][rows[p]]
        rows.flags.writeable = False
        self.array = rows
        self.table = table = [memoryview(row) for row in rows]

        # (g * p)^-1 = p^-1 * g^-1 along the same tree
        gen_inv = [idx[_inv(images[g])] for g in gens]
        self.inv = inv = [self.identity] * n
        for q, p, k in zip(order[1:], parent[1:], gen[1:]):
            inv[q] = table[inv[p]][gen_inv[k]]

        # One walk per cyclic subgroup, from its least generator i: the
        # powers i, i^2, ..., 1 number k = |i|, i^j has order
        # k / gcd(j, k), and it generates <i> iff that order is k.
        self.order_of = order_of = [0] * n
        self.cyclic_id = cyclic_id = [-1] * n
        cid = 0
        for i in range(n):
            if cyclic_id[i] >= 0:
                continue
            powers = [i]
            while powers[-1] != self.identity:
                powers.append(table[powers[-1]][i])
            k = len(powers)
            for j, x in enumerate(powers, 1):
                order_of[x] = k // math.gcd(j, k)
                if order_of[x] == k:
                    cyclic_id[x] = cid
            cid += 1

        self.conj_rows = [[table[y][g] for y in table[inv[g]]] for g in gens]
        self.class_id = class_id = [-1] * n
        self.classes = classes = []
        for i in range(n):
            if class_id[i] < 0:
                members = bfs_tree(n, self.conj_rows, i)[0]
                for x in members:
                    class_id[x] = len(classes)
                classes.append(tuple(sorted(members)))

    def class_size(self, x: int) -> int:
        return len(self.classes[self.class_id[x]])

    # -- helpers ----------------------------------------------------------------

    def perm(self, i: int) -> Permutation:
        return self.elements[i]

    def coset_labels(self, members: Sequence[int]):
        """Per element index x, the least element index of the left coset
        x H, H any subgroup (normal or not) with these element indices.
        Indices follow the order of image tuples, so this is the canonical
        representative of x H: x and y get one label iff x H = y H.

        The min is taken over ``_BLOCK_ROWS`` table rows at a time, so the
        gathered temporary holds at most ``_BLOCK_ROWS`` x |H| cells.
        """
        import numpy as np
        out = np.empty(self.n, dtype=self.array.dtype)
        for start in range(0, self.n, _BLOCK_ROWS):
            out[start:start + _BLOCK_ROWS] = \
                self.array[start:start + _BLOCK_ROWS, members].min(1)
        return out

    def indices(self, perms: Iterable[Permutation]) -> list:
        """The element index of each permutation, in the given order;
        ascending for a subgroup's ``elements()``, as indices follow the
        order of image tuples.  The first permutation outside the group,
        one of another degree included, raises ``PreconditionError``
        naming it."""
        out = []
        for p in perms:
            i = self.index.get(p.images)
            if i is None:
                what = p.cycle_string()
                if p.degree != self.group.degree:
                    what += f" of degree {p.degree}"
                raise PreconditionError(f"{what} lies outside the group")
            out.append(i)
        return out

    def check_indices(self, xs, what: str):
        """``xs`` as an intp array if it is a sequence of element indices,
        0 <= x < n, none a float or a bool; else ``PreconditionError``
        saying so of ``what``."""
        import numpy as np
        arr = np.asarray(xs)
        # ints mixed with bools make an int array, so bools are looked for
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu") or \
                any(isinstance(x, (bool, np.bool_)) for x in xs) or \
                ((arr < 0) | (arr >= self.n)).any():
            raise PreconditionError(f"{what} must be element indices of "
                                    f"the group, 0 to {self.n - 1}")
        return arr.astype(np.intp, copy=False)
