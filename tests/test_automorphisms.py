import random

import pytest

from rankgraph import GroupArgumentError, Permutation, group_from_generators
from rankgraph.automorphisms import (
    AutGroup,
    automorphism_group,
    inner_automorphisms,
    isomorphism,
    orbits_on_tuples,
    x_subgroup,
)
from rankgraph.catalog import alternating, psl2, symmetric
from rankgraph.crown_powers import MonolithicGroup

from oracles import ClosureOracle, brute_closure


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
