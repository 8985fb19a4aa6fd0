"""Automorphism groups of small groups and orbits on element tuples.

Aut(L) and its subgroup X = C_Aut(L)(L/N) are sorted int arrays of
shape (|Aut|, n) and (|X|, n) on element *indices* of L (relative to the
deterministic element order): row sigma maps index x to sigma[x].  An
orbit of a tuple is one gather of its columns.  Aut(L) always comes from
the search below; ``orbits_on_tuples`` is the one orbit routine, on an
(m, t) array of tuples: each tuple is found again by its code, the
ranks of its entries, in a dense position array.

The search runs on the one Cayley table of L.  It maps a fixed
generating sequence onto candidate image tuples, pruning by
conjugacy-invariant fingerprints (element order, class size, power
profile), and validates every candidate once by the automorphism
condition on generators.  Image tuples are enumerated up to inner
automorphisms (Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, 2005): the first image runs over one
representative per conjugacy class, each later one over one
representative per orbit of the centraliser of the images before it,
so Aut(L) costs |Out(L)| validated candidates and its element list is
the found maps composed with every inner automorphism, in one gather.
Its closure check looks the composed maps up among the found ones as
sorted byte keys of their generator images.
A candidate map is extended from its generator images one gather per
level of the ``perm_core.bfs_tree`` of the generating sequence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import config
from .perm_core import (
    CapExceededError,
    CayleyTable,
    GroupArgumentError,
    PermutationGroup,
    bfs_tree,
)
from .group_structure import _prune_generators


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
    """Irredundant generating sequence, rarest fingerprint first.

    The search needs a short sequence, not a minimal one, so the group's
    own generators are pruned; no subgroup lattice is built.
    """
    idxs = ct.indices(_prune_generators(G))
    buckets = {}
    for fp in fps:
        buckets[fp] = buckets.get(fp, 0) + 1
    idxs.sort(key=lambda i: (buckets[fps[i]], i))
    return idxs


def _conjugation_matrix(ct: CayleyTable) -> np.ndarray:
    """C[x, y] = x^-1 * y * x, one row per element x."""
    table = ct.array
    return table[table[ct.inv], np.arange(ct.n)[:, None]]


def _inner_rows(ct: CayleyTable, conj: np.ndarray) -> np.ndarray:
    """The distinct rows of the conjugation matrix, i.e. Inn(G).

    Rows x and y agree iff x and y lie in one coset of the centre Z(G),
    so the row of the least element of each coset stands for it.
    """
    index = np.arange(ct.n)
    centre = np.flatnonzero((conj == index).all(1))
    return conj[ct.coset_labels(centre) == index]


def _bfs_schedule(ct: CayleyTable, gens: Sequence[int]) -> tuple:
    """``bfs_tree`` of right multiplication by gens (table columns) from
    the identity, as index arrays (order, parent, gen) with the level
    starts.  Every parent lies in an earlier level, so a map is filled
    in one numpy gather per level.  ``GroupArgumentError`` unless gens
    generate the group.
    """
    A = ct.array
    order, parent, gen, starts = bfs_tree(
        ct.n, [A[:, g].tolist() for g in gens], ct.identity)
    if len(order) != ct.n:
        raise GroupArgumentError("sequence does not generate the group")
    return np.array(order), np.array(parent), np.array(gen), starts


def _extend_map(ct: CayleyTable, schedule: tuple, dst_gens) -> np.ndarray:
    """Replay the ``_bfs_schedule`` of source generators src_gens one
    level at a time: sigma(1) = 1 and sigma(x * src_gens[k]) =
    sigma(x) * dst_gens[k] along each tree edge.

    ``dst_gens`` may carry leading batch axes, one candidate image tuple
    per row; sigma then carries the same axes.  Whether sigma is an
    automorphism (repeated or identity generators with clashing images
    included) is left to ``_respects_generators``.
    """
    dst_gens = np.asarray(dst_gens, dtype=np.int64)
    order, parent, gen, starts = schedule
    sigma = np.empty(dst_gens.shape[:-1] + (ct.n,), dtype=np.int64)
    sigma[..., ct.identity] = ct.identity
    table = ct.array
    for a, b in zip(starts[1:], starts[2:]):
        sigma[..., order[a:b]] = table[sigma[..., parent[a:b]],
                                       dst_gens[..., gen[a:b]]]
    return sigma


def _respects_generators(ct: CayleyTable, src_gens: Sequence[int], dst_gens,
                         sigma: np.ndarray) -> np.ndarray:
    """Which maps sigma are automorphisms with src_gens[k] -> dst_gens[k].

    With src_gens generating the group, sigma passes iff sigma(1) = 1,
    sigma(x * g_k) = sigma(x) * h_k for every element x and every k
    (n * |gens| cells, not the n^2 of the whole table), and only the
    identity maps to the identity.  By induction on word length the
    first two make sigma an endomorphism with sigma(g_k) = h_k; the third
    makes it injective.  Leading batch axes of sigma and dst_gens are
    kept; rows are dropped as soon as one generator fails.
    """
    A = ct.array
    dst_gens = np.asarray(dst_gens, dtype=np.int64)
    sig = sigma.reshape(-1, ct.n)
    hs = dst_gens.reshape(len(sig), -1)
    alive = np.flatnonzero(sig[:, ct.identity] == ct.identity)
    for k, g in enumerate(src_gens):
        s = sig[alive]
        alive = alive[(s[:, A[:, g]] == A[s, hs[alive, k, None]]).all(1)]
    ok = np.zeros(len(sig), dtype=bool)
    ok[alive] = (sig[alive] == ct.identity).sum(1) == 1
    return ok.reshape(sigma.shape[:-1])


# ---------------------------------------------------------------------------
# automorphism groups


def automorphism_group(L: PermutationGroup) -> np.ndarray:
    """Complete Aut(L) as a sorted (|Aut|, n) int array on the element
    indices of L: Inn(L) times one searched map per coset of Inn(L).

    A generating sequence g_0, ..., g_last of L is mapped onto candidate
    image tuples.  Two automorphisms differing by an inner one send it
    to simultaneously conjugate tuples, and conjugation fixes a
    generating tuple only for elements of Z(L).  So the image of g_0
    runs over one representative per conjugacy class of its fingerprint
    bucket, that of g_k over one per orbit of C(r_0) & ... & C(r_(k-1))
    on its bucket, and each class of maps is validated once by
    ``_respects_generators`` (the last generator's candidates in one
    batch).  Each g_k lies in its own bucket and the identity map is
    among the classes, so some map is found.
    The maps are the found ones composed with Inn(L), sorted; they must
    be pairwise distinct and closed under composition: they hold 1 and
    are generated by the found maps and conjugation by the generators of
    L, so composing every map with each of those must give a map again
    (a map is fixed by its images of the g_k, so those are compared).
    Else ``RuntimeError``.

    The search counts the cells of the maps it builds, |L| per
    candidate, and the closure check its cells; either count above
    ``max_search_space`` raises ``CapExceededError``.  The search runs on
    the Cayley table, so the dense-table cap bounds |L|.
    """
    ct = L.cayley_table()
    n = ct.n
    fps = _element_fingerprints(ct)
    src_gens = _generating_sequence(L, ct, fps)
    if not src_gens:  # trivial groups: the one map sends 1 to 1
        return np.full((1, n), ct.identity, dtype=np.int64)
    buckets = {}
    for x in range(n):
        buckets.setdefault(fps[x], []).append(x)
    candidate_sets = [np.array(buckets[fps[g]]) for g in src_gens]
    last = len(src_gens) - 1
    schedule = _bfs_schedule(ct, src_gens)
    conj = _conjugation_matrix(ct)
    cap = config.LIMITS.max_search_space
    used = 0
    found = []

    def search(prefix: tuple, cent: np.ndarray) -> None:
        # cent: the elements centralising every image in prefix
        nonlocal used
        cands = candidate_sets[len(prefix)]
        reps = cands[conj[np.ix_(cent, cands)].min(0) == cands]
        if len(prefix) < last:
            for x in reps.tolist():
                search(prefix + (x,), cent[conj[cent, x] == x])
            return
        used += len(reps) * n  # the cells of this batch's sigma
        if used > cap:
            raise CapExceededError(
                f"automorphism search of {used} cells exceeds the cap {cap}")
        dst_gens = np.empty((len(reps), last + 1), dtype=np.int64)
        dst_gens[:, :last] = prefix
        dst_gens[:, last] = reps
        sigma = _extend_map(ct, schedule, dst_gens)
        found.append(sigma[_respects_generators(ct, src_gens, dst_gens,
                                                sigma)])

    search((), np.arange(n))
    found = np.concatenate(found)
    inner = _inner_rows(ct, conj)
    maps = found[:, inner].reshape(-1, n)
    maps = maps[np.argsort(_row_keys(maps))]
    distinct = 1 + int((maps[1:] != maps[:-1]).any(1).sum())
    if distinct != len(inner) * len(found):
        raise RuntimeError(
            f"{len(found)} maps times {len(inner)} inner automorphisms "
            f"give {distinct} distinct maps")
    gens = np.concatenate([found, conj[list(ct.gen_indices)]])
    # for an abelian L every map is found, so the check grows as |Aut|^2
    cells = len(maps) * len(gens) * len(src_gens)
    if cells > cap:
        raise CapExceededError(
            f"closure check of {cells} cells exceeds the cap {cap}")
    # row (s, g): the src_gens images of maps[s] composed with gens[g],
    # looked up among the sorted image keys of the maps
    images = np.sort(_row_keys(maps[:, src_gens]))
    products = _row_keys(maps[:, gens[:, src_gens]].reshape(
        -1, len(src_gens)))
    at = np.searchsorted(images, products).clip(max=len(images) - 1)
    if not (images[at] == products).all():
        raise RuntimeError(
            f"the {len(maps)} maps are not closed under composition")
    return maps


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte key per row of a 2-d int array: rows of big-endian words
    compare bytewise in lexicographic order."""
    return np.ascontiguousarray(rows, dtype=">u4").view(
        f"V{4 * rows.shape[1]}").ravel()


def x_subgroup(L_mono) -> np.ndarray:
    """X = C_Aut(L)(L/N) (N the socle): the rows of Aut(L) with
    gamma(l) N = l N for every element l of L, in Aut(L)'s sorted order.

    X is the kernel of Aut(L) -> Aut(L/N), so a subgroup.  Aut(L) and
    the coset labels are those ``L_mono`` holds.
    """
    aut, label = L_mono.aut, L_mono.coset_labels
    return aut[(label[aut] == label).all(1)]


# ---------------------------------------------------------------------------
# orbits on tuples


def orbits_on_tuples(X: np.ndarray, tuples) -> tuple:
    """Orbits of the diagonal action of X on element-index tuples.

    ``X`` holds one automorphism per row, as ``automorphism_group``
    returns it, and ``tuples`` is an (m, t) int array (or a sequence of
    t-tuples) of distinct tuples.  Returns (labels, reps): an intp array
    with the orbit of each tuple, and the list of orbit representatives
    as tuples.  Orbits are numbered by their least member, which is
    ``reps[k]`` for orbit k.

    Each tuple gets a code, its per-coordinate value ranks read as one
    mixed-radix number, so codes sort as the tuples do, and a dense
    array over the codes gives the sorted position of each tuple.  The
    positions are labelled in order from a cursor, a block of the next
    unlabelled ones at a time, with at most ``_CELLS`` images per block:
    the images of the whole block are one gather of X's columns, coded
    and looked up at once.  Every position before the cursor is
    labelled, so the least member of an unlabelled orbit is in the
    block, and a candidate starts a new orbit exactly when it is the
    least of its images.  An image outside the given set raises
    ``GroupArgumentError`` (the set is not closed under X), as does a
    repeated tuple.  The dense array has one cell per code, so its size
    is checked against ``max_search_space``.
    """
    T = np.asarray(tuples, dtype=np.intp)
    if not len(T):
        return np.zeros(0, dtype=np.intp), []
    # weight[c][x]: the rank of value x among column c's values times the
    # column's stride, or -size where x does not occur in column c, so a
    # code with such a value is negative
    weight = []
    size = 1
    for column in T.T[::-1]:
        seen = np.zeros(X.shape[1], dtype=bool)
        seen[column] = True
        values = np.flatnonzero(seen)
        w = np.full(X.shape[1], -1, dtype=np.int64)
        w[values] = np.arange(len(values)) * size
        weight.append(w)
        size *= len(values)
    weight.reverse()
    cap = config.LIMITS.max_search_space
    if size > cap:
        raise CapExceededError(
            f"orbit lookup of {size} cells exceeds the cap {cap}")
    for w in weight:
        w[w < 0] = -size
    code = sum(w[column] for w, column in zip(weight, T.T))
    order = np.argsort(code)
    code = code[order]
    if (code[1:] == code[:-1]).any():
        raise GroupArgumentError("tuple set has a repeated tuple")
    position = np.full(size, -1, dtype=np.intp)
    position[code] = np.arange(len(T))
    images = np.ascontiguousarray(X.T)  # row x: the images of x
    block = max(1, _CELLS // len(X))
    label = np.full(len(T), -1, dtype=np.intp)  # by sorted position
    reps = []
    cursor = 0
    while cursor < len(T):
        cand = cursor + np.flatnonzero(label[cursor:cursor + _SCAN] < 0)
        if not len(cand):
            cursor += _SCAN
            continue
        cand = cand[:block]
        rows = T[order[cand]]
        orbit = sum(w[images[x]] for w, x in zip(weight, rows.T))
        hit = position[orbit.clip(min=0)]
        if orbit.min() < 0 or hit.min() < 0:
            raise GroupArgumentError(
                "tuple set is not closed under the X-action")
        new = hit.min(1) == cand
        label[hit[new]] = np.arange(len(reps), len(reps) + new.sum())[:, None]
        reps.extend(map(tuple, rows[new].tolist()))
        cursor = int(cand[-1]) + 1
    labels = np.empty(len(T), dtype=np.intp)
    labels[order] = label
    return labels, reps


# Sorted positions read at a time when ``orbits_on_tuples`` looks for the
# next tuples without a label, and the images it gathers at a time
# (block x |X|; one candidate at least).
_SCAN = 2048
_CELLS = 1 << 13
