"""Automorphism groups of small groups and orbits on element tuples.

Aut(L) and its subgroups (the inner automorphisms, X = C_Aut(L)(L/N))
are plain ``PermutationGroup``s on element *indices* of L (relative to
the deterministic element order), so orbit computations on tuples of
elements reuse the ordinary permutation machinery.  Aut(L) always comes
from the search below; ``orbits_on_tuples`` is the one orbit routine.

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
from typing import Optional, Sequence

import numpy as np

from . import config
from .perm_core import (
    CapExceededError,
    CayleyTable,
    GroupArgumentError,
    Permutation,
    PermutationGroup,
    _mult,
    subgroup_from_members,
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
              src_gens: Sequence[int], fps_src: list, fps_dst: list, *,
              first_only: bool) -> tuple:
    """All (or the first) bijections extending src_gens -> candidate images.

    ``fps_src`` and ``fps_dst`` are the ``_element_fingerprints`` of the
    two tables.  Returns (maps, exhausted): ``exhausted`` is False when
    the leaf budget tripped, i.e. absence of maps was not proven.
    """
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
        if leaves > config.LIMITS.max_iso_leaves:
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


def inner_automorphisms(L: PermutationGroup) -> PermutationGroup:
    ct = L.cayley_table()
    gens = []
    for g in ct.gen_indices:
        gens.append(Permutation([ct.conj(x, g) for x in range(ct.n)]))
    return PermutationGroup(ct.n, gens)


def automorphism_group(L: PermutationGroup) -> PermutationGroup:
    """Complete Aut(L), acting on the element indices of L, by
    backtracking over images of a generating sequence.

    Pruning is by fingerprint buckets and word orders; every surviving
    candidate is validated by ``_respects_generators``, so the result is
    sound regardless of pruning strength.
    """
    if L.order > config.LIMITS.max_aut_order:
        raise CapExceededError(
            f"order {L.order} exceeds automorphism cap "
            f"{config.LIMITS.max_aut_order}")
    ct = L.cayley_table()
    fps = _element_fingerprints(ct)
    src_gens = _generating_sequence(L, ct, fps)
    maps, exhausted = _iso_maps(ct, ct, src_gens, fps, fps, first_only=False)
    if not exhausted:
        raise CapExceededError("automorphism search exceeded leaf budget")
    # the maps are all of Aut(L), so they are its sorted element list
    return subgroup_from_members(ct.n, sorted(
        Permutation(tuple(int(i) for i in sigma)) for sigma in maps))


def x_subgroup(L_mono, aut: Optional[PermutationGroup] = None
               ) -> PermutationGroup:
    """X = C_Aut(L)(L/N) (N the socle), acting on the element indices of L.

    The defining condition gamma(l) N = l N holds on all of L as soon as
    it holds on generators, since {l : gamma(l) N = l N} is a subgroup.
    ``aut`` is Aut(L) when the caller already holds it.  X keeps the
    members filtered from Aut(L)'s sorted element list as its own, and
    ``subgroup_from_members`` checks that they number |X|.
    """
    L = L_mono.group
    if aut is None:
        aut = automorphism_group(L)
    ct = L.cayley_table()
    n_set = ct.subset_indices(L_mono.socle)
    # g^-1 * gamma(g) must lie in N for every generator g
    checks = [(ct.table[ct.inv[g]], g) for g in ct.gen_indices]
    members = tuple(p for p in aut.elements()
                    if all(row[p(g)] in n_set for row, g in checks))
    return subgroup_from_members(ct.n, members)


# ---------------------------------------------------------------------------
# orbits on tuples


def orbits_on_tuples(X: PermutationGroup, tuples: Sequence[tuple]) -> tuple:
    """Orbits of the diagonal action of X on element-index tuples.

    Returns (labels, reps).  Orbits are numbered by their least member,
    which is ``reps[k]`` for orbit k: the tuples are scanned in sorted
    order, and every element of X is applied to each tuple that is not
    labelled yet.  Raises if an image leaves the given tuple set (the
    caller passed a set that is not closed under X).
    """
    index = {t: i for i, t in enumerate(tuples)}
    elems = [p.images for p in X.elements()]
    labels = [-1] * len(tuples)
    reps = []
    for i in sorted(range(len(tuples)), key=tuples.__getitem__):
        if labels[i] >= 0:
            continue
        rep = tuples[i]
        k = len(reps)
        reps.append(rep)
        try:
            for g in elems:
                labels[index[_mult(rep, g)]] = k
        except KeyError:
            raise GroupArgumentError(
                "tuple set is not closed under the X-action") from None
    return labels, reps


# ---------------------------------------------------------------------------
# isomorphism testing


@dataclass
class IsoResult:
    isomorphic: Optional[bool]  # None when the search budget tripped
    map: Optional[list] = None  # element-index map when isomorphic


def isomorphism(G: PermutationGroup, H: PermutationGroup) -> IsoResult:
    """Search for an isomorphism G -> H (generator-image backtracking).

    Cheap invariants (order, fingerprint multiset) run first; a tripped
    leaf budget yields ``isomorphic=None`` (absence not proven) instead
    of a wrong answer.
    """
    if G.order != H.order:
        return IsoResult(False)
    ct_g = G.cayley_table()
    ct_h = H.cayley_table()
    fps_g = _element_fingerprints(ct_g)
    fps_h = _element_fingerprints(ct_h)
    if sorted(fps_g) != sorted(fps_h):
        return IsoResult(False)
    src_gens = _generating_sequence(G, ct_g, fps_g)
    maps, exhausted = _iso_maps(ct_g, ct_h, src_gens, fps_g, fps_h,
                                first_only=True)
    if maps:
        return IsoResult(True, [int(i) for i in maps[0]])
    return IsoResult(False if exhausted else None)
