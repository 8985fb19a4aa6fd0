"""Structural invariants: normal lattices, socle, Frattini subgroup,
solubility, minimal generator numbers d(G) and d_X(G), and normal-subgroup
correction lifting.

The workhorse is SubgroupRegistry, a per-group cache of interned
subgroups (by element index set).  Its joins serve one search only: the
conjugacy classes of subgroups by cyclic extension, which joins each
class representative H with one element of prime-power order per
N_G(H)-orbit of cyclic subgroups outside H; H is maximal iff every such
join is G.  Every generation question, d(G) included, is answered from
maximal-subgroup incidence (P. Hall's view of generation): the maximal
subgroups containing <X> are the AND of the incidence rows of the
elements of X, <X> = G iff that mask is 0, and d_X(G) is the distance of
the mask to 0 (``SubgroupRegistry.mask_dist``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import config
from .perm_core import (
    CapExceededError,
    CayleyTable,
    GroupArgumentError,
    Permutation,
    PermutationGroup,
    PreconditionError,
    WitnessSearchFailure,
    derived_subgroup,
    is_normal,
    normal_closure,
    subgroup_from_members,
)


# ---------------------------------------------------------------------------
# subgroup registry (dense groups only)


class SubgroupRegistry:
    """Subgroups of one dense group and its maximal-subgroup incidence.

    Closures and joins (interned by the frozenset of their element
    indices) find the classes of subgroups and the maximal subgroups by
    cyclic extension (``subgroup_class_reps``); a closure exceeding |G|/2
    is the whole group by Lagrange.  Generation questions go through the
    incidence rows: ``mask_of`` gives the mask of <X>, ``mask_dist`` its
    distance d_X(G) and ``climb`` a shortest completion.
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
        self._row_set: frozenset = frozenset()
        self._mask_dist: dict = {}

    def intern(self, members: frozenset, gens: tuple) -> int:
        sid = self._ids.get(members)
        if sid is None:
            sid = len(self.members)
            self._ids[members] = sid
            self.members.append(members)
            self.gens.append(gens)
        return sid

    def close(self, gens: Sequence[int]) -> int:
        """Subgroup generated by the given element indices, interned."""
        ct = self.ct
        n = ct.n
        half = n // 2
        gens = tuple(dict.fromkeys(g for g in gens if g != ct.identity))
        if not gens:
            return self.trivial_id
        seen = bytearray(n)
        seen[ct.identity] = 1
        out = [ct.identity]
        table = ct.table
        qi = 0
        while qi < len(out):
            x = out[qi]
            qi += 1
            row = table[x]
            for g in gens:
                y = row[g]
                if not seen[y]:
                    if len(out) > half:
                        return self.full_id
                    seen[y] = 1
                    out.append(y)
        return self.intern(frozenset(out), gens)

    def join_with_element(self, sid: int, z: int) -> int:
        """<H, z> for an interned subgroup H."""
        ct = self.ct
        H = self.members[sid]
        Z = ct.cyclic_subgroups[ct.cyclic_id[z]]
        if 2 * len(H) * len(Z) > ct.n * len(H & Z):
            # |HZ| = |H||Z|/|H & Z| > |G|/2 and HZ lies in <H, z>
            return self.full_id
        return self.close(self.gens[sid] + (z,))

    # -- conjugacy classes of subgroups -----------------------------------------

    def conjugates(self, members: frozenset) -> list:
        """Orbit of a subgroup under conjugation by the group generators."""
        ct = self.ct
        orbit = {members}
        queue = [members]
        while queue:
            s = queue.pop()
            for g in ct.gen_indices:
                img = frozenset(ct.conj(x, g) for x in s)
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        return sorted(orbit, key=sorted)

    def normaliser(self, sid: int) -> list:
        """N_G(H): the g with h^g in H for every generator h of H."""
        ct = self.ct
        table, inv = ct.table, ct.inv
        members = self.members[sid]
        gens = self.gens[sid]
        return [g for g in range(ct.n)
                if all(table[table[inv[g]][h]][g] in members for h in gens)]

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
        one), once."""
        if self._lattice is not None:
            return self._lattice
        ct = self.ct
        table, inv, cyc_id = ct.table, ct.inv, ct.cyclic_id
        # least generator of each cyclic subgroup of prime-power order > 1
        extenders = {}
        for z in range(ct.n):
            if _is_prime_power(ct.order_of[z]):
                extenders.setdefault(cyc_id[z], z)
        extenders = list(extenders.values())
        seen: set = set()
        normalisers: dict = {}
        orbits: dict = {}
        reps: list = []
        maximal: list = []  # orbits of the maximal representatives

        def register(sid: int) -> None:
            members = self.members[sid]
            if members in seen:
                return
            N = self.normaliser(sid)
            orbit = self.conjugates(members)
            if len(orbit) * len(N) != ct.n:
                raise RuntimeError(
                    f"subgroup of order {len(members)} has {len(orbit)} "
                    f"conjugates but a normaliser of order {len(N)} in a "
                    f"group of order {ct.n}")
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
            done = bytearray(len(ct.cyclic_subgroups))
            all_full = True
            for z in extenders:
                if done[cyc_id[z]] or z in members:
                    continue
                for g in N:
                    done[cyc_id[table[table[inv[g]][z]][g]]] = 1
                j = self.join_with_element(sid, z)
                all_full = all_full and j == self.full_id
                register(j)
            if all_full:
                # tuples: a frozenset takes about four times the memory
                maximal.append([tuple(m) for m in orbit])
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
            self._row_set = frozenset(rows)
        return self._rows

    def mask_of(self, elems: Iterable[int]) -> int:
        """AND of the rows of ``elems``: the maximal subgroups containing
        <elems>, all ones for no elements."""
        rows = self.incidence_rows()
        mask = rows[self.ct.identity]
        for z in elems:
            mask &= rows[z]
        return mask

    def mask_dist(self, mask: int) -> int:
        """Least r with mask & row[z_1] & ... & row[z_r] = 0, i.e. d_H(G)
        for any subgroup H whose incidence mask is ``mask``.

        mdist(0) = 0 and mdist(m) = 1 + min mdist(m & r) over the distinct
        rows r with m & r != m (the maximal subgroups containing <H, z> are
        mask(H) & row[z]); memoized per mask.
        """
        if not mask:
            return 0
        got = self._mask_dist.get(mask)
        if got is None:
            self.incidence_rows()
            smaller = {mask & r for r in self._row_set}
            smaller.discard(mask)
            got = 1 if 0 in smaller else \
                1 + min(self.mask_dist(m) for m in smaller)
            self._mask_dist[mask] = got
        return got

    def climb(self, mask: int) -> list:
        """Elements z_1..z_r, r = mask_dist(mask), that clear ``mask``.

        Each z_i is the least element lowering the distance by one.  As
        <H, hz> = <H, z>, it is the least element of its coset Hz, so the
        climb passes through coset representatives only.
        """
        rows = self.incidence_rows()
        out = []
        d = self.mask_dist(mask)
        while mask:
            z = next(z for z, row in enumerate(rows)
                     if self.mask_dist(mask & row) == d - 1)
            out.append(z)
            mask &= rows[z]
            d -= 1
        return out


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
    ct = G.cayley_table()
    reg = getattr(ct, "_registry", None)
    if reg is None:
        reg = SubgroupRegistry(ct)
        ct._registry = reg
    return reg


# ---------------------------------------------------------------------------
# normal subgroup lattice


@dataclass
class NormalLattice:
    group: PermutationGroup
    normals: list  # all normal subgroups, ascending (order, fingerprint)
    minimal_normals: list

    def orders(self) -> list:
        return [N.order for N in self.normals]


def normal_subgroups(G: PermutationGroup) -> NormalLattice:
    """Complete normal-subgroup lattice.

    Normal closures of conjugacy classes are the join-irreducible normal
    subgroups; closing them under joins yields every normal subgroup.
    """
    if G.order > config.LIMITS.max_normal_lattice:
        raise CapExceededError(
            f"order {G.order} exceeds normal-lattice cap "
            f"{config.LIMITS.max_normal_lattice}")
    from .perm_core import conjugacy_classes

    atoms = {}
    for cls in conjugacy_classes(G):
        rep = cls[0]
        if rep.is_identity():
            continue
        N = normal_closure(G, [rep])
        key = frozenset(p.images for p in N.elements())
        atoms.setdefault(key, N)

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

    trivial = PermutationGroup(G.degree, ())
    all_normals = {trivial_key: trivial}
    all_normals.update(found)
    full_key = frozenset(p.images for p in G.elements())
    all_normals[full_key] = G

    ordered = sorted(all_normals.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    normals = [N for _, N in ordered]
    keys = [k for k, _ in ordered]
    minimal = []
    for i, (key, N) in enumerate(zip(keys, normals)):
        if len(key) == 1:
            continue
        if not any(1 < len(k2) < len(key) and k2 < key for k2 in keys):
            minimal.append(N)
    return NormalLattice(G, normals, minimal)


def minimal_normal_subgroups(G: PermutationGroup) -> list:
    return normal_subgroups(G).minimal_normals


def socle(G: PermutationGroup) -> PermutationGroup:
    """Join of all minimal normal subgroups."""
    minimals = minimal_normal_subgroups(G)
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


def maximal_subgroups(G: PermutationGroup) -> list:
    """All maximal subgroups of G (as PermutationGroups), cap-guarded."""
    if G.order == 1:
        return []
    reg = registry_for(G)
    ct = reg.ct
    out = []
    for members in reg.maximal_subgroups():
        out.append(subgroup_from_members(
            G.degree, [ct.perm(i) for i in sorted(members)]))
    return out


def frattini(G: PermutationGroup) -> PermutationGroup:
    """Intersection of all maximal subgroups (the non-generators)."""
    if G.order == 1:
        return PermutationGroup(G.degree, ())
    reg = registry_for(G)
    ct = reg.ct
    maximals = reg.maximal_subgroups()
    if not maximals:
        return G  # no proper subgroup at all: G trivial handled above
    common = frozenset(range(ct.n))
    for members in maximals:
        common &= members
    return subgroup_from_members(G.degree, [ct.perm(i) for i in sorted(common)])


# ---------------------------------------------------------------------------
# minimal generation


@dataclass
class RankCertificate:
    group: PermutationGroup
    d: int
    witness: tuple  # generating sequence of length d

    def check(self) -> bool:
        from .perm_core import generates
        if self.d == 0:
            return self.group.order == 1
        return generates(self.group, list(self.witness))


def min_rank(G: PermutationGroup) -> RankCertificate:
    """d(G) with a witness generating sequence.

    Dense groups, from the incidence rows for every d: x is the first
    conjugacy-class representative, by descending element order, whose
    row has the least ``mask_dist`` (generation is invariant under
    simultaneous conjugation), d is 1 + that distance, and
    ``SubgroupRegistry.climb`` completes x with least elements.  d is
    checked against the trivial subgroup's distance.
    """
    if G.order == 1:
        return RankCertificate(G, 0, ())
    if G.order <= config.LIMITS.max_dense_order:
        return _min_rank_dense(G)
    # Large groups: a generating pair plus non-abelianness (which rules
    # out d = 1) certifies d(G) = 2 without enumeration.  The pair search
    # is a fixed-seed random probe; generating pairs are dense whenever
    # they exist at this scale.
    pruned = _prune_generators(G)
    if len(pruned) == 1:
        return RankCertificate(G, 1, tuple(pruned))
    if not G.is_abelian():
        if len(pruned) == 2:
            return RankCertificate(G, 2, tuple(pruned))
        import random
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            x, y = G.random_element(rng), G.random_element(rng)
            if PermutationGroup(G.degree, [x, y],
                                known_order=G.order).order == G.order:
                return RankCertificate(G, 2, (x, y))
    raise CapExceededError(
        f"order {G.order} exceeds dense cap and no small certificate found")


def _prune_generators(G: PermutationGroup) -> list:
    """Greedy removal of redundant generators (deterministic)."""
    gens = sorted(G.generators)
    keep = list(gens)
    for g in gens:
        candidate = [h for h in keep if h != g]
        if candidate and PermutationGroup(
                G.degree, candidate, known_order=G.order).order == G.order:
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
    return RankCertificate(G, d, witness)


def d_X(G: PermutationGroup, X: Iterable[Permutation]) -> int:
    """Smallest r such that X together with r further elements generates G."""
    reg = registry_for(G)
    ct = reg.ct
    idxs = []
    for p in X:
        i = ct.index.get(p.images)
        if i is None:
            raise GroupArgumentError("X contains an element outside G")
        idxs.append(i)
    return reg.mask_dist(reg.mask_of(idxs))


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
    try:
        g_idx = [ct.index[p.images] for p in g]
        x_idx = [ct.index[p.images] for p in X]
        m_idx = sorted(ct.subset_indices(M))
    except (KeyError, GroupArgumentError):
        raise PreconditionError("inputs must lie inside G")
    if reg.mask_of(x_idx + g_idx + m_idx):
        raise PreconditionError("<g, X, M> is not all of G")
    r = len(g_idx)
    x_mask = reg.mask_of(x_idx)
    if r < reg.mask_dist(x_mask):
        raise PreconditionError("r < d_X(G)")
    if len(m_idx) ** r > config.LIMITS.max_search_space:
        raise CapExceededError("correction search space over cap")
    rows, table = reg.incidence_rows(), ct.table
    for combo in itertools.product(m_idx, repeat=r):
        mask = x_mask
        for gi, ni in zip(g_idx, combo):
            mask &= rows[table[gi][ni]]
        if not mask:
            return tuple(ct.perm(ni) for ni in combo)
    raise WitnessSearchFailure(
        "no correction tuple found; contradicts the lifting lemma")
