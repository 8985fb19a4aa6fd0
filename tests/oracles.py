"""Independent brute-force oracles used to freeze expected test values.

Everything here works by exhaustive enumeration on raw image tuples and
never touches stabilizer chains, Cayley tables or the join machinery, so
oracle results are independent of the code paths they check.
"""

from itertools import combinations

from rankgraph import Permutation


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
