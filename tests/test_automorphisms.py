import random

import numpy as np
import pytest

from rankgraph import GroupArgumentError, Permutation, group_from_generators
from rankgraph import automorphisms as aut_mod
from rankgraph.automorphisms import (
    AutGroup,
    _bfs_schedule,
    _extend_map,
    _respects_generators,
    automorphism_group,
    inner_automorphisms,
    isomorphism,
    orbits_on_tuples,
    x_subgroup,
)
from rankgraph.catalog import alternating, default_catalog, psl2, symmetric
from rankgraph.crown_powers import MonolithicGroup
from rankgraph.group_structure import min_rank

from oracles import ClosureOracle, brute_closure, is_homomorphism

# |Aut| of S4 and of every catalog group tagged monolithic
KNOWN_AUT = {"S4": 24, "S5": 120, "S6": 1440, "A5": 120, "A6": 1440,
             "PSL(2,4)": 120, "PSL(2,5)": 120, "PSL(2,7)": 336,
             "PSL(2,8)": 1512, "PSL(2,9)": 1440, "PSL(2,11)": 1320,
             "PSL(2,13)": 2184, "PGL(2,7)": 336, "PGL(2,9)": 1440}
MONOLITHIC = [symmetric(4)] + [e for e in default_catalog()
                               if "monolithic" in e.tags]


def cyc(n, *cycles):
    return Permutation.from_cycles(n, *cycles)


class TestAutomorphismGroup:
    def test_c2_trivial(self):
        G = group_from_generators(2, [cyc(2, [0, 1])])
        assert automorphism_group(G).order == 1

    def test_klein_four_gl22(self, V4):
        assert automorphism_group(V4).order == 6

    def test_a5(self, A5):
        aut = automorphism_group(A5)
        assert aut.order == 120
        assert aut.inner.order == 60

    def test_maps_preserve_multiplication(self, A5):
        # every returned map validated against the full multiplication table
        aut = automorphism_group(A5)
        ct = A5.cayley_table()
        rng = random.Random(11)
        for sigma in aut.perm_group.elements()[:10]:
            for _ in range(40):
                i, j = rng.randrange(ct.n), rng.randrange(ct.n)
                assert sigma(ct.table[i][j]) == ct.table[sigma(i)][sigma(j)]
            assert sigma(ct.identity) == ct.identity

    def test_inner_order_is_g_mod_center(self, S4, Q8):
        assert inner_automorphisms(S4).order == 24   # trivial center
        assert inner_automorphisms(Q8).order == 4    # center of order 2

    def test_aut_order_divisible_by_inner(self, S4, Q8, V4):
        for G in (S4, Q8, V4):
            aut = automorphism_group(G)
            assert aut.order % aut.inner.order == 0

    def test_apply_wrapper(self, A5):
        aut = automorphism_group(A5)
        f = aut.automorphisms()[1]
        x = cyc(5, [0, 1, 2])
        y = cyc(5, [0, 1, 2, 3, 4])
        assert f(x * y) == f(x) * f(y)

    @pytest.mark.parametrize("entry, aut_order, x_order", [
        (symmetric(4), 24, 4), (alternating(5), 120, 120),
        (psl2(7), 336, 336)], ids=["S4", "A5", "PSL(2,7)"])
    def test_element_cache_is_the_closure(self, entry, aut_order, x_order):
        # the search hands its sorted maps over as the element list
        L = entry.group()
        aut = automorphism_group(L)
        gens = aut.perm_group.generators
        closure = brute_closure(aut.perm_group.degree, gens)
        assert aut.perm_group.elements() == tuple(
            Permutation(img) for img in sorted(closure))
        assert aut.order == aut_order
        assert MonolithicGroup.from_group(L).x_group().order == x_order


    @pytest.mark.parametrize("entry", MONOLITHIC, ids=lambda e: e.id)
    def test_matches_full_table_search(self, entry, monkeypatch):
        # the search with the whole-table check as its validator is the
        # oracle; it takes 66 s over these groups (34 s for PSL(2,13)), so
        # above order 360 a seeded sample of the maps is checked instead
        G = entry.group()
        aut = automorphism_group(G)
        assert aut.order == KNOWN_AUT[entry.id]
        maps = aut.perm_group.elements()
        ct = G.cayley_table()
        if G.order > 360:
            for p in random.Random(3).sample(maps, 12):
                assert is_homomorphism(ct, ct, np.array(p.images))
            return
        monkeypatch.setattr(
            aut_mod, "_respects_generators",
            lambda ct_src, ct_dst, src_gens, dst_gens, sigma:
                is_homomorphism(ct_src, ct_dst, sigma)
                and (sigma[list(src_gens)] == dst_gens).all())
        assert automorphism_group(G).perm_group.elements() == maps

    @pytest.mark.parametrize("entry", [symmetric(4), alternating(5),
                                       psl2(7)], ids=["S4", "A5", "PSL(2,7)"])
    def test_generator_check_matches_full_table(self, entry):
        # candidate images: automorphic images (pass), order-preserving
        # and arbitrary tuples (mostly fail), a repeated generator with a
        # clashing image and the identity among the generators
        G = entry.group()
        ct = G.cayley_table()
        rng = random.Random(17)
        base = [ct.index[p.images] for p in min_rank(G).witness]
        autos = automorphism_group(G).perm_group.elements()
        for src in (base, base + [base[0]], base + [ct.identity]):
            cands = [tuple(a(x) for x in src) for a in rng.sample(autos, 8)]
            for _ in range(40):
                cands.append(tuple(
                    rng.choice([y for y in range(ct.n)
                                if ct.order_of[y] == ct.order_of[x]])
                    for x in src))
                cands.append(tuple(rng.randrange(ct.n) for _ in src))
            schedule = _bfs_schedule(ct, src)
            batch = _extend_map(ct, ct, schedule, src, cands)
            verdicts = _respects_generators(ct, ct, src, cands, batch)
            expected = []
            for cand, row in zip(cands, batch):
                sigma = _extend_map(ct, ct, schedule, src, cand)
                assert (sigma == row).all()
                want = (is_homomorphism(ct, ct, sigma)
                        and tuple(sigma[src]) == cand)
                assert bool(_respects_generators(ct, ct, src, cand,
                                                 sigma)) == want
                expected.append(want)
            assert verdicts.tolist() == expected
            assert 8 <= sum(expected) < len(expected)


    def test_one_generator_is_not_enough(self, A5):
        # with C = <g> and T a double coset CxC other than C and its whole
        # complement, sigma = alpha on T after conjugation by g and alpha
        # elsewhere is a bijection with sigma(y g) = sigma(y) alpha(g) for
        # every y, yet no homomorphism: the second generator rejects it
        ct = A5.cayley_table()
        tbl = ct.table
        src = [ct.index[p.images] for p in min_rank(A5).witness]
        g = src[0]
        C = {ct.identity}
        y = g
        while y != ct.identity:
            C.add(y)
            y = tbl[y][g]
        T = next(T for T in ({tbl[tbl[c][x]][d] for c in C for d in C}
                             for x in range(ct.n))
                 if not T & C and len(T) < ct.n - len(C))
        alpha = automorphism_group(A5).perm_group.elements()[5]
        sigma = np.array([alpha(ct.conj(y, g)) if y in T else alpha(y)
                          for y in range(ct.n)])
        dst = [alpha(y) for y in src]
        assert not is_homomorphism(ct, ct, sigma)
        assert _respects_generators(ct, ct, src[:1], dst[:1], sigma)
        assert not _respects_generators(ct, ct, src, dst, sigma)


class TestXSubgroup:
    def test_simple_socle_gives_full_aut(self, A5):
        mono = MonolithicGroup.from_group(A5)
        X = x_subgroup(mono)
        assert X.order == automorphism_group(A5).order

    def test_externally_supplied_aut_bypasses_search(self, A5):
        from rankgraph.automorphisms import aut_group_from_maps
        from rankgraph.catalog import alternating
        swap = Permutation.from_cycles(5, [0, 1])
        entry = alternating(5)
        maps = [[list((swap.inverse() * Permutation(g) * swap).images)
                 for g in entry.generators]]
        aut = aut_group_from_maps(A5, maps)
        assert aut.order == 120
        mono = MonolithicGroup.from_group(A5)
        assert x_subgroup(mono, aut=aut).order == 120

    def test_s5_contains_inner(self, S5):
        mono = MonolithicGroup.from_group(S5)
        X = x_subgroup(mono)
        assert X.order >= 1
        # inner automorphisms preserve cosets of a normal subgroup
        inner = inner_automorphisms(S5)
        assert X.perm_group.contains_group(inner)

    def test_coset_displacement_lies_in_socle(self, S5):
        mono = MonolithicGroup.from_group(S5)
        X = x_subgroup(mono)
        ct = S5.cayley_table()
        N = mono.socle
        for gamma in X.perm_group.elements()[:20]:
            for l in range(0, ct.n, 17):
                disp = ct.perm(ct.inv[l]) * ct.perm(gamma(l))
                assert N.contains(disp)


class TestOrbitsOnTuples:
    def test_trivial_x_every_tuple_own_orbit(self, A5):
        mono = MonolithicGroup.from_group(A5)
        aut = automorphism_group(A5)
        trivial = AutGroup(A5, group_from_generators(60, []), aut.inner)
        tuples = [(0, 1), (2, 3), (4, 5)]
        labels, count = orbits_on_tuples(trivial, tuples)
        assert count == 3

    def test_fixed_singleton_single_orbit(self, A5):
        aut = automorphism_group(A5)
        ct = A5.cayley_table()
        tuples = [(ct.identity, ct.identity)]
        labels, count = orbits_on_tuples(aut, tuples)
        assert count == 1

    def test_a5_generating_pairs_19_orbits(self, A5):
        # 2280 generating pairs frozen from the join oracle; the orbit
        # count is forced by the free action: 2280 / |Aut(A5)| = 19
        oracle = ClosureOracle(A5)
        pairs = [(x, y) for x in range(60) for y in range(60)
                 if oracle.generates((x, y))]
        assert len(pairs) == 2280
        aut = automorphism_group(A5)
        labels, count = orbits_on_tuples(aut, pairs)
        assert count == 19
        sizes = {}
        for lab in labels:
            sizes[lab] = sizes.get(lab, 0) + 1
        assert all(size == 120 for size in sizes.values())

    def test_orbit_partition_invariant_under_generator_shuffle(self, A5):
        oracle = ClosureOracle(A5)
        pairs = [(x, y) for x in range(60) for y in range(60)
                 if oracle.generates((x, y))]
        aut = automorphism_group(A5)
        labels1, n1 = orbits_on_tuples(aut, pairs)
        shuffled = list(aut.perm_group.generators)
        random.Random(9).shuffle(shuffled)
        shuffled_aut = AutGroup(
            A5, group_from_generators(60, list(reversed(shuffled))),
            aut.inner)
        labels2, n2 = orbits_on_tuples(shuffled_aut, pairs)
        assert labels1 == labels2 and n1 == n2

    def test_non_closed_input_rejected(self, A5):
        aut = automorphism_group(A5)
        oracle = ClosureOracle(A5)
        pairs = [(x, y) for x in range(60) for y in range(60)
                 if oracle.generates((x, y))]
        with pytest.raises(GroupArgumentError):
            orbits_on_tuples(aut, pairs[:100])


class TestIsomorphism:
    def test_psl25_is_a5(self, A5):
        G = psl2(5).group()
        assert isomorphism(G, A5).isomorphic is True

    def test_s4_not_a4_extension(self, S4):
        other = group_from_generators(
            6, [cyc(6, [0, 1, 2]), cyc(6, [3, 4, 5]), cyc(6, [0, 3], [1, 4], [2, 5])])
        assert other.order == 18
        assert isomorphism(S4, other).isomorphic is False

    def test_c6_is_c3_x_c2(self):
        C6 = group_from_generators(6, [cyc(6, list(range(6)))])
        C3xC2 = group_from_generators(5, [cyc(5, [0, 1, 2]), cyc(5, [3, 4])])
        assert isomorphism(C6, C3xC2).isomorphic is True

    def test_same_order_not_isomorphic(self):
        S3 = symmetric(3).group()
        C6 = group_from_generators(6, [cyc(6, list(range(6)))])
        assert isomorphism(S3, C6).isomorphic is False
