"""Automorphism groups of small groups and orbits on element tuples.

Automorphisms are stored as permutations of element *indices* (relative
to the deterministic element order), so orbit computations on tuples of
elements reuse the ordinary permutation machinery.

The search engine maps a fixed generating sequence onto candidate image
tuples, pruning by conjugacy-invariant fingerprints (element order,
class size, power profile) and cheap word-order checks, and validates
survivors by the homomorphism condition on generators.  The same engine,
pointed at two different groups, decides isomorphism; the map extension
and its check also decide whether two generating tuples are related by
an automorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .perm_core import (
    CapExceededError,
    CayleyTable,
    GroupArgumentError,
    Permutation,
    PermutationGroup,
    UnionFind,
    _mult,
)
from .group_structure import min_rank


# ---------------------------------------------------------------------------
# fingerprints and the backtracking engine


def _element_fingerprints(ct: CayleyTable) -> list:
    """Conjugacy-invariant fingerprint per element, stable under any
    isomorphism: (order, class size, sorted profile of proper powers)."""
    base = [(ct.order_of[x], ct.class_size(x)) for x in range(ct.n)]
    out = []
    for x in range(ct.n):
        powers = []
        y = ct.table[x][x]
        while y != x:
            powers.append(base[y])
            y = ct.table[y][x]
        out.append((base[x][0], base[x][1], tuple(sorted(powers))))
    return out


def _generating_sequence(G: PermutationGroup, ct: CayleyTable,
                         fps: list) -> list:
    """Small generating sequence, rarest fingerprint first."""
    cert = min_rank(G)
    idxs = [ct.index[p.images] for p in cert.witness]
    buckets = {}
    for fp in fps:
        buckets[fp] = buckets.get(fp, 0) + 1
    idxs.sort(key=lambda i: (buckets[fps[i]], i))
    return idxs


_WORDS = [
    (0, 1), (1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1), (1, 1, 0, 0, 1),
]


def _word_order(ct: CayleyTable, gens: Sequence[int], word) -> int:
    x = ct.identity
    for letter in word:
        if letter >= len(gens):
            return 0
        x = ct.table[x][gens[letter]]
    return ct.order_of[x]


def _bfs_schedule(ct: CayleyTable, gens: Sequence[int]) -> list:
    """Breadth-first layers covering the group from the identity and gens.

    Each layer is a triple (new, parent, k) of index arrays with
    new = parent * gens[k], and every parent lies in an earlier layer (or
    is the identity or a generator), so a map can be filled in one numpy
    gather per layer.
    """
    seen = bytearray(ct.n)
    frontier = list(dict.fromkeys([ct.identity, *gens]))
    for x in frontier:
        seen[x] = 1
    reached = len(frontier)
    table = ct.table
    layers = []
    while frontier:
        new, parent, gen = [], [], []
        for x in frontier:
            row = table[x]
            for k, g in enumerate(gens):
                y = row[g]
                if not seen[y]:
                    seen[y] = 1
                    new.append(y)
                    parent.append(x)
                    gen.append(k)
        if new:
            layers.append((np.array(new), np.array(parent), np.array(gen)))
        reached += len(new)
        frontier = new
    if reached != ct.n:
        raise GroupArgumentError("sequence does not generate the group")
    return layers


def _extend_map(ct_src: CayleyTable, ct_dst: CayleyTable,
                schedule: list, src_gens: Sequence[int],
                dst_gens) -> np.ndarray:
    """Replay the BFS layers: sigma(1) = 1, sigma(src_gens[k]) =
    dst_gens[k] and sigma(x * src_gens[k]) = sigma(x) * dst_gens[k] along
    the schedule.

    ``dst_gens`` may carry leading batch axes, one candidate image tuple
    per row; sigma then carries the same axes.  Whether sigma is a
    homomorphism (repeated generators with clashing images included) is
    left to ``_respects_generators``.
    """
    dst_gens = np.asarray(dst_gens, dtype=np.int64)
    sigma = np.empty(dst_gens.shape[:-1] + (ct_src.n,), dtype=np.int64)
    sigma[..., ct_src.identity] = ct_dst.identity
    sigma[..., list(src_gens)] = dst_gens
    table = ct_dst.numpy_table()
    for new, parent, k in schedule:
        sigma[..., new] = table[sigma[..., parent], dst_gens[..., k]]
    return sigma


def _respects_generators(ct_src: CayleyTable, ct_dst: CayleyTable,
                         src_gens: Sequence[int], dst_gens,
                         sigma: np.ndarray) -> np.ndarray:
    """Which maps sigma are isomorphisms with src_gens[k] -> dst_gens[k].

    With src_gens generating the source and the groups of equal order,
    sigma passes iff sigma(1) = 1, sigma(x * g_k) = sigma(x) * h_k for
    every element x and every k (n * |gens| cells, not the n^2 of the
    whole table), and only the identity maps to the identity.  By
    induction on word length the first two make sigma a homomorphism
    with sigma(g_k) = h_k; the third makes it injective.  Leading batch
    axes of sigma and dst_gens are kept; rows are dropped as soon as one
    generator fails.
    """
    src, dst = ct_src.numpy_table(), ct_dst.numpy_table()
    dst_gens = np.asarray(dst_gens, dtype=np.int64)
    sig = sigma.reshape(-1, ct_src.n)
    hs = dst_gens.reshape(len(sig), -1)
    alive = np.flatnonzero(sig[:, ct_src.identity] == ct_dst.identity)
    for k, g in enumerate(src_gens):
        s = sig[alive]
        alive = alive[(s[:, src[:, g]] == dst[s, hs[alive, k, None]]).all(1)]
    ok = np.zeros(len(sig), dtype=bool)
    ok[alive] = (sig[alive] == ct_dst.identity).sum(1) == 1
    return ok.reshape(sigma.shape[:-1])


def _iso_maps(ct_src: CayleyTable, ct_dst: CayleyTable,
              src_gens: Sequence[int], *, first_only: bool,
              limits: Limits) -> tuple:
    """All (or the first) bijections extending src_gens -> candidate images.

    Returns (maps, exhausted): ``exhausted`` is False when the leaf budget
    tripped, i.e. absence of maps was not proven.
    """
    fps_src = _element_fingerprints(ct_src)
    fps_dst = _element_fingerprints(ct_dst)
    buckets = {}
    for x in range(ct_dst.n):
        buckets.setdefault(fps_dst[x], []).append(x)
    candidate_sets = []
    for g in src_gens:
        cands = buckets.get(fps_src[g])
        if not cands:
            return [], True
        candidate_sets.append(cands)
    word_profile = [_word_order(ct_src, src_gens, w) for w in _WORDS]
    schedule = _bfs_schedule(ct_src, src_gens)
    maps = []
    leaves = 0
    for dst_gens in itertools.product(*candidate_sets):
        leaves += 1
        if leaves > limits.max_iso_leaves:
            return maps, False
        if any(_word_order(ct_dst, dst_gens, w) != wp
               for w, wp in zip(_WORDS, word_profile)):
            continue
        sigma = _extend_map(ct_src, ct_dst, schedule, src_gens, dst_gens)
        if not _respects_generators(ct_src, ct_dst, src_gens, dst_gens,
                                    sigma):
            continue
        maps.append(sigma)
        if first_only:
            return maps, True
    return maps, True


# ---------------------------------------------------------------------------
# automorphism groups


@dataclass
class Automorphism:
    """Bijection on elements(L), stored as a permutation of element indices."""

    base: PermutationGroup
    index_map: Permutation

    def apply(self, p: Permutation) -> Permutation:
        ct = self.base.cayley_table()
        return ct.perm(self.index_map(ct.index[p.images]))

    def __call__(self, p: Permutation) -> Permutation:
        return self.apply(p)


@dataclass
class AutGroup:
    """Aut(L) (or a subgroup of it) acting on element indices of L."""

    base: PermutationGroup
    perm_group: PermutationGroup  # degree == |L|, acting on element indices
    inner: PermutationGroup       # the distinguished inner subgroup

    @property
    def order(self) -> int:
        return self.perm_group.order

    def automorphisms(self, limits: Limits = DEFAULT_LIMITS) -> list:
        return [Automorphism(self.base, p)
                for p in self.perm_group.elements(limits)]

    def subgroup(self, members: Iterable[Permutation]) -> "AutGroup":
        sub = PermutationGroup(self.perm_group.degree, list(members))
        return AutGroup(self.base, sub, self.inner)


def inner_automorphisms(L: PermutationGroup,
                        limits: Limits = DEFAULT_LIMITS) -> PermutationGroup:
    ct = L.cayley_table(limits)
    gens = []
    for g in ct.gen_indices:
        gens.append(Permutation([ct.conj(x, g) for x in range(ct.n)]))
    return PermutationGroup(ct.n, gens)


def aut_group_from_maps(L: PermutationGroup, gen_maps,
                        limits: Limits = DEFAULT_LIMITS) -> AutGroup:
    """AutGroup from catalog-supplied generator element-maps.

    Each map lists one image array per generator of L; the maps are
    extended over the group, validated, and joined with the inner
    automorphisms.  This bypasses the backtracking search for groups
    whose automorphisms are supplied externally.
    """
    from .perm_core import Homomorphism
    ct = L.cayley_table(limits)
    inner = inner_automorphisms(L, limits)
    gens = list(inner.generators)
    for maps in gen_maps:
        images = [Permutation(m) for m in maps]
        hom = Homomorphism(L, L, images)
        table = hom._build_table(limits)
        if len(set(table.values())) != ct.n:
            raise GroupArgumentError("supplied map is not bijective")
        gens.append(Permutation(
            [ct.index[table[ct.elements[i].images]] for i in range(ct.n)]))
    return AutGroup(L, PermutationGroup(ct.n, gens), inner)


def automorphism_group(L: PermutationGroup,
                       limits: Limits = DEFAULT_LIMITS) -> AutGroup:
    """Complete Aut(L) by backtracking over images of a generating sequence.

    Pruning is by fingerprint buckets and word orders; every surviving
    candidate is validated by ``_respects_generators``, so the result is
    sound regardless of pruning strength.
    """
    if L.order > limits.max_aut_order:
        raise CapExceededError(
            f"order {L.order} exceeds automorphism cap {limits.max_aut_order}")
    ct = L.cayley_table(limits)
    fps = _element_fingerprints(ct)
    src_gens = _generating_sequence(L, ct, fps)
    maps, exhausted = _iso_maps(ct, ct, src_gens, first_only=False,
                                limits=limits)
    if not exhausted:
        raise CapExceededError("automorphism search exceeded leaf budget")
    perms = tuple(sorted(Permutation(tuple(int(i) for i in sigma))
                         for sigma in maps))
    # the maps are all of Aut(L), so they are its sorted element list
    group = PermutationGroup(ct.n, perms, known_order=len(perms),
                             _elements=perms)
    if group.order != len(perms):
        raise GroupArgumentError("automorphism set failed to close")
    inner = inner_automorphisms(L, limits)
    return AutGroup(L, group, inner)


def x_subgroup(L_mono, limits: Limits = DEFAULT_LIMITS,
               aut: Optional[AutGroup] = None) -> AutGroup:
    """Automorphisms of L acting trivially on L/N (N the socle).

    The defining condition gamma(l) N = l N holds on all of L as soon as
    it holds on generators, since {l : gamma(l) N = l N} is a subgroup.
    An externally supplied Aut(L) bypasses the backtracking search.
    """
    L = L_mono.group
    N = L_mono.socle
    if aut is None:
        aut = automorphism_group(L, limits)
    ct = L.cayley_table(limits)
    n_set = ct.subset_indices(N)
    gen_idx = list(ct.gen_indices)
    members = []
    for p in aut.perm_group.elements(limits):
        ok = True
        for g in gen_idx:
            # g^-1 * gamma(g) must lie in N
            if ct.table[ct.inv[g]][p(g)] not in n_set:
                ok = False
                break
        if ok:
            members.append(p)
    from .perm_core import subgroup_from_members
    sub = subgroup_from_members(ct.n, members)
    return AutGroup(L, sub, aut.inner)


# ---------------------------------------------------------------------------
# orbits on tuples


def orbits_on_tuples(X: AutGroup, tuples: Sequence[tuple]) -> tuple:
    """Orbit labels for the diagonal action of X on element-index tuples.

    Returns (labels, orbit_count); labels are canonical: orbits are
    numbered by their lexicographically smallest member.  Raises if the
    action leaves the given tuple set (caller passed a non-closed set).
    """
    index = {t: i for i, t in enumerate(tuples)}
    uf = UnionFind(len(tuples))
    gens = [p.images for p in X.perm_group.generators]
    for i, t in enumerate(tuples):
        for g in gens:
            img = _mult(t, g)
            j = index.get(img)
            if j is None:
                raise GroupArgumentError(
                    "tuple set is not closed under the X-action")
            uf.union(i, j)
    # canonical labels: orbits ordered by smallest tuple
    rep_best: dict[int, tuple] = {}
    for i, t in enumerate(tuples):
        r = uf.find(i)
        if r not in rep_best or t < rep_best[r]:
            rep_best[r] = t
    ordered = sorted(rep_best, key=lambda r: rep_best[r])
    relabel = {r: k for k, r in enumerate(ordered)}
    labels = [relabel[uf.find(i)] for i in range(len(tuples))]
    return labels, len(ordered)


# ---------------------------------------------------------------------------
# isomorphism testing


@dataclass
class IsoResult:
    isomorphic: Optional[bool]  # None when the search budget tripped
    map: Optional[list] = None  # element-index map when isomorphic


def isomorphism(G: PermutationGroup, H: PermutationGroup,
                limits: Limits = DEFAULT_LIMITS) -> IsoResult:
    """Search for an isomorphism G -> H (generator-image backtracking).

    Cheap invariants (order, fingerprint multiset) run first; a tripped
    leaf budget yields ``isomorphic=None`` (absence not proven) instead
    of a wrong answer.
    """
    if G.order != H.order:
        return IsoResult(False)
    ct_g = G.cayley_table(limits)
    ct_h = H.cayley_table(limits)
    if sorted(_element_fingerprints(ct_g)) != sorted(_element_fingerprints(ct_h)):
        return IsoResult(False)
    fps = _element_fingerprints(ct_g)
    src_gens = _generating_sequence(G, ct_g, fps)
    maps, exhausted = _iso_maps(ct_g, ct_h, src_gens, first_only=True,
                                limits=limits)
    if maps:
        return IsoResult(True, [int(i) for i in maps[0]])
    return IsoResult(False if exhausted else None)
