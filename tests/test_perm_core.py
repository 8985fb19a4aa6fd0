import hashlib
import itertools
import math
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rankgraph import (
    CapExceededError,
    CayleyTable,
    DegreeMismatchError,
    GroupArgumentError,
    Permutation,
    PermutationGroup,
    StabilizerChain,
    generates,
    group_from_generators,
    is_normal,
    normal_closure,
    quotient,
)
from rankgraph import perm_core
from rankgraph.catalog import builtin_entry, default_catalog, symmetric
from rankgraph.config import caps
from rankgraph.group_structure import registry_for
from rankgraph.perm_core import _mult, bfs_tree, subgroup_from_members

from oracles import (
    ClosureOracle,
    brute_closure,
    brute_centralizer,
    brute_conjugacy_classes,
    conj,
    mult,
    permutation_quotient,
    word_lengths,
)


perms = st.integers(3, 8).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation))


def perm_pairs(max_degree=8):
    return st.integers(3, max_degree).flatmap(
        lambda n: st.tuples(st.permutations(range(n)).map(Permutation),
                            st.permutations(range(n)).map(Permutation)))


class TestPermutation:
    def test_identity_compose(self):
        q = Permutation.from_cycles(4, [0, 2, 1])
        assert Permutation.identity(4) * q == q

    def test_involution_squares_to_identity(self):
        p = Permutation.from_cycles(2, [0, 1])
        assert (p * p).is_identity()

    def test_three_cycle_squared(self):
        p = Permutation.from_cycles(3, [0, 1, 2])
        assert p * p == Permutation.from_cycles(3, [0, 2, 1])

    def test_left_to_right_action(self):
        p = Permutation.from_cycles(3, [0, 1])
        q = Permutation.from_cycles(3, [1, 2])
        # apply p first: 0 -> 1 -> 2
        assert (p * q)(0) == 2

    def test_not_a_permutation(self):
        with pytest.raises(GroupArgumentError):
            Permutation([0, 0, 1])

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            Permutation.identity(3) * Permutation.identity(4)

    @given(perms)
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(perm_pairs())
    def test_inverse_of_product(self, pair):
        p, q = pair
        assert (p * q).inverse() == q.inverse() * p.inverse()

    @given(st.integers(3, 7).flatmap(
        lambda n: st.tuples(*[st.permutations(range(n)).map(Permutation)] * 3)))
    def test_associativity(self, triple):
        p, q, r = triple
        assert (p * q) * r == p * (q * r)

    @given(perms)
    def test_order_divides_lcm_structure(self, p):
        assert (p ** p.order()).is_identity()

    def test_cycle_string(self):
        assert Permutation.identity(5).cycle_string() == "()"
        assert Permutation.from_cycles(5, [0, 1, 2]).cycle_string() == "(0 1 2)"


class TestCompositionKernel:
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_small_degrees_give_tuples(self, degree):
        # itemgetter with one argument returns a scalar, not a tuple
        for p in itertools.permutations(range(degree)):
            for q in itertools.permutations(range(degree)):
                got = _mult(p, q)
                assert type(got) is tuple and got == mult(p, q)
                assert (Permutation(p) * Permutation(q)).images == got

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.permutations(range(n)))))
    def test_matches_oracle(self, pair):
        p, q = (tuple(x) for x in pair)
        got = _mult(p, q)
        assert type(got) is tuple and got == mult(p, q)
        assert (Permutation(p) * Permutation(q)).images == got


class TestGroupConstruction:
    def test_empty_generators(self):
        G = group_from_generators(3, [])
        assert G.order == 1

    def test_a5_order(self):
        G = group_from_generators(5, [
            Permutation.from_cycles(5, [0, 1, 2, 3, 4]),
            Permutation.from_cycles(5, [0, 1, 2])])
        assert G.order == 60

    def test_s5_order(self):
        G = group_from_generators(5, [
            Permutation.from_cycles(5, [0, 1, 2, 3, 4]),
            Permutation.from_cycles(5, [0, 1])])
        assert G.order == 120

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 6).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(Permutation), min_size=1, max_size=3)))
    def test_order_matches_brute_closure(self, gens):
        degree = gens[0].degree
        G = group_from_generators(degree, gens)
        assert G.order == len(brute_closure(degree, gens))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 6).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(Permutation), min_size=1, max_size=3)))
    def test_contains_matches_element_list(self, gens):
        degree = gens[0].degree
        G = group_from_generators(degree, gens)
        closure = brute_closure(degree, gens)
        rng = random.Random(0)
        sample = [Permutation(rng.sample(range(degree), degree))
                  for _ in range(10)]
        for p in sample + [Permutation(img) for img in list(closure)[:10]]:
            assert G.contains(p) == (p.images in closure)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 7).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(Permutation), min_size=1, max_size=4)),
        st.booleans())
    def test_chain_order_is_product_of_transversals(self, gens, known):
        degree = gens[0].degree
        true_order = len(brute_closure(degree, gens))
        chain = StabilizerChain(degree,
                                known_order=true_order if known else None)
        for g in gens:
            chain.add_generator(g)
            assert chain.order() == math.prod(
                len(lv.transversal) for lv in chain.levels)
        assert chain.order() == true_order

    @pytest.mark.parametrize("group_id, digest", [
        ("S6", "9d5280a1ccc944da337e83c2146821f5327b9e75d912048a47a7b59c0af40956"),
        ("PSL(2,13)",
         "8ced0e5367eec7ed9001ce06d42e76639c84793864497c89c0d4d4d2f50cf9e7"),
    ])
    def test_random_element_draws_are_pinned(self, group_id, digest):
        # random_element reads the base, the orbits and the transversal
        # representatives, so a chain built in another order shows here
        G = builtin_entry(group_id).group()
        draws = []
        for known in (None, G.order):
            H = PermutationGroup(G.degree, G.generators, known_order=known)
            rng = random.Random(2024)
            draws.append([H.random_element(rng).images for _ in range(40)])
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest

    def test_known_order_early_exit_is_sound(self, A5):
        chain = StabilizerChain(5, A5.generators, known_order=60)
        assert chain.order() == 60
        assert chain.contains(Permutation.from_cycles(5, [0, 1], [2, 3]))
        assert not chain.contains(Permutation.from_cycles(5, [0, 1]))


class TestMembershipAndGeneration:
    def test_identity_in_any_group(self, A5):
        assert A5.contains(A5.identity)

    def test_odd_permutation_not_in_a5(self, A5):
        assert not A5.contains(Permutation.from_cycles(5, [0, 1]))

    def test_random_product_stays_inside(self, A5):
        rng = random.Random(7)
        p = A5.identity
        for _ in range(30):
            p = p * rng.choice(A5.generators)
        assert A5.contains(p)

    def test_generators_generate(self, A5):
        assert generates(A5, list(A5.generators))

    def test_identity_does_not_generate(self, A5):
        assert not generates(A5, [A5.identity])

    def test_five_cycle_double_transposition(self, A5):
        # expected value frozen from the brute-force closure oracle
        x = Permutation.from_cycles(5, [0, 1, 2, 3, 4])
        y = Permutation.from_cycles(5, [0, 1], [2, 3])
        assert len(brute_closure(5, [x, y])) == 60
        assert generates(A5, [x, y])

    def test_outside_element_rejected(self, A5):
        with pytest.raises(GroupArgumentError):
            generates(A5, [Permutation.from_cycles(5, [0, 1])])


class TestElements:
    def test_trivial_group(self):
        G = group_from_generators(4, [])
        assert [p.cycle_string() for p in G.elements()] == ["()"]

    def test_c3(self):
        G = group_from_generators(3, [Permutation.from_cycles(3, [0, 1, 2])])
        assert len(G.elements()) == 3

    def test_a5_elements_distinct_and_sorted(self, A5):
        els = A5.elements()
        assert len(els) == 60
        assert len(set(els)) == 60
        assert list(els) == sorted(els)
        assert els[0].is_identity()

    def test_cap(self):
        G = group_from_generators(5, [
            Permutation.from_cycles(5, [0, 1, 2, 3, 4]),
            Permutation.from_cycles(5, [0, 1, 2])])
        with caps(max_elements=10), pytest.raises(CapExceededError):
            G.elements()


class TestConjugacyClasses:
    def test_abelian_all_singletons(self):
        G = group_from_generators(6, [Permutation.from_cycles(6, [0, 1, 2]),
                                      Permutation.from_cycles(6, [3, 4])])
        assert all(len(c) == 1 for c in G.cayley_table().classes)

    def test_a5_class_sizes(self, A5):
        # frozen from the brute-force conjugation-orbit oracle
        oracle = brute_conjugacy_classes(A5)
        assert sorted(len(c) for c in oracle) == [1, 12, 12, 15, 20]
        ours = A5.cayley_table().classes
        assert sorted(len(c) for c in ours) == [1, 12, 12, 15, 20]
        assert sum(len(c) for c in ours) == 60

    def test_s3_three_classes(self):
        G = group_from_generators(3, [Permutation.from_cycles(3, [0, 1, 2]),
                                      Permutation.from_cycles(3, [0, 1])])
        assert len(G.cayley_table().classes) == 3

    @pytest.mark.parametrize("name", ["S4", "A5"])
    def test_class_size_is_centralizer_index(self, name, request):
        # orbit-stabilizer: |x^G| |C_G(x)| = |G|, with C_G(x) by brute scan
        G = request.getfixturevalue(name)
        ct = G.cayley_table()
        for cls in ct.classes:
            for x in cls:
                assert ct.class_size(x) * len(
                    brute_centralizer(G, ct.perm(x))) == G.order


class TestSubgroupFromMembers:
    def test_member_list_is_the_element_list(self, S4):
        p = Permutation.from_cycles(4, [0, 1, 2])
        members = tuple(sorted(g for g in S4.elements() if g * p == p * g))
        C = subgroup_from_members(4, members)
        assert C.order == 3
        assert C.elements() is members

    def test_non_closed_list_rejected(self, A5):
        with pytest.raises(GroupArgumentError):
            subgroup_from_members(5, A5.elements()[:-1])


class TestNormalClosure:
    def test_identity_seed(self, S4):
        assert normal_closure(S4, [S4.identity]).order == 1

    def test_three_cycle_in_s4(self, S4):
        N = normal_closure(S4, [Permutation.from_cycles(4, [0, 1, 2])])
        assert N.order == 12

    def test_simple_group(self, A5):
        N = normal_closure(A5, [Permutation.from_cycles(5, [0, 1, 2])])
        assert N.order == 60

    def test_is_normal(self, S4, V4):
        assert is_normal(S4, V4)
        H = group_from_generators(4, [Permutation.from_cycles(4, [0, 1])])
        assert not is_normal(S4, H)


class TestQuotient:
    def test_by_whole_group(self, S4):
        Q, _ = quotient(S4, S4)
        assert Q.order == 1

    def test_by_trivial(self, S4):
        Q, _ = quotient(S4, group_from_generators(4, []))
        assert Q.order == 24

    def test_s4_mod_v4(self, S4, V4):
        Q, hom = quotient(S4, V4)
        assert Q.order == 6
        rng = random.Random(3)
        for _ in range(25):
            a, b = S4.random_element(rng), S4.random_element(rng)
            assert hom(a * b) == hom(a) * hom(b)

    def test_rejects_non_normal(self, S4):
        H = group_from_generators(4, [Permutation.from_cycles(4, [0, 1])])
        with pytest.raises(GroupArgumentError):
            quotient(S4, H)

    def test_matches_coset_search(self):
        # the coset labels of the Cayley table against the search over
        # image tuples, on every normal subgroup of the catalog groups of
        # order <= 400: the same generators, and the same projection of
        # the generators and of a seeded sample of 12 elements
        from rankgraph.group_structure import normal_subgroups
        rng = random.Random(6)
        checked = 0
        for entry in default_catalog():
            G = entry.group()
            if G.order > 400:
                continue
            sample = list(G.generators) + rng.sample(
                G.elements(), min(12, G.order))
            for N in normal_subgroups(G).normals:
                Q, hom = quotient(G, N)
                R, ref = permutation_quotient(G, N)
                assert Q.generators == R.generators, (entry.id, N.order)
                assert [hom(p) for p in sample] == [ref(p) for p in sample]
                checked += 1
        assert checked == 350

    def test_needs_the_dense_table(self, S4, V4):
        with caps(max_dense_order=12), pytest.raises(CapExceededError):
            quotient(S4, V4)


SMALL_CATALOG = [e for e in default_catalog() if e.group().order <= 360]


class TestBfsTree:
    @pytest.mark.parametrize("entry", SMALL_CATALOG,
                             ids=[e.id for e in SMALL_CATALOG])
    def test_tree_of_random_generator_subsets(self, entry):
        # right multiplication by 1 to 3 random elements (the identity
        # and repeats allowed): the tree spans <gens> level by level
        G = entry.group()
        ct = G.cayley_table()
        oracle = ClosureOracle(G)
        rng = random.Random(f"bfs-{entry.id}")
        for _ in range(4):
            gens = [rng.randrange(ct.n) for _ in range(rng.randint(1, 3))]
            maps = [ct.array[:, g].tolist() for g in gens]
            order, parent, gen, starts = bfs_tree(ct.n, maps, ct.identity)
            assert sorted(order) == sorted(
                oracle.reg.members[oracle.bfs_close(gens)])
            assert len(set(order)) == len(order)
            assert (order[0], parent[0], gen[0]) == (ct.identity, -1, -1)
            assert starts[0] == 0 and starts[-1] == len(order)
            assert all(a < b for a, b in zip(starts, starts[1:]))
            level = {x: j for j in range(len(starts) - 1)
                     for x in order[starts[j]:starts[j + 1]]}
            assert level == word_lengths(maps, ct.identity)
            pos = {x: i for i, x in enumerate(order)}
            for i in range(1, len(order)):
                assert order[i] == maps[gen[i]][parent[i]]
                assert level[parent[i]] < level[order[i]]
            # children follow their parents, each node's in order of k
            keys = [(pos[parent[i]], gen[i]) for i in range(1, len(order))]
            assert keys == sorted(set(keys))

    def test_root_and_maps_of_any_graph(self):
        # a graph that is no Cayley graph: two maps on 6 nodes from 4,
        # with a node (0) the root cannot reach
        maps = [[0, 2, 3, 1, 4, 5], [1, 1, 5, 3, 5, 4]]
        order, parent, gen, starts = bfs_tree(6, maps, 4)
        assert order == [4, 5]
        assert (parent, gen, starts) == ([-1, 4], [-1, 1], [0, 1, 2])
        assert bfs_tree(6, [], 2) == ([2], [-1], [-1], [0, 1])
        assert word_lengths(maps, 1) == {1: 0, 2: 1, 3: 2, 5: 2, 4: 3}
        assert bfs_tree(6, maps, 1)[0] == [1, 2, 3, 5, 4]


class TestCayleyTable:
    def test_identity_is_index_zero(self, S4):
        ct = S4.cayley_table()
        assert ct.identity == 0
        assert ct.elements[0].is_identity()

    def test_table_matches_products(self, S4):
        ct = S4.cayley_table()
        rng = random.Random(1)
        for _ in range(50):
            i, j = rng.randrange(ct.n), rng.randrange(ct.n)
            assert ct.elements[ct.table[i][j]] == ct.elements[i] * ct.elements[j]

    @pytest.mark.parametrize("entry", SMALL_CATALOG,
                             ids=[e.id for e in SMALL_CATALOG])
    def test_rows_and_classes_match_products(self, entry):
        # every row against permutation products, and the classes
        # against a brute conjugation search
        G = entry.group()
        ct = G.cayley_table()
        images = [p.images for p in ct.elements]
        for x in range(ct.n):
            assert [images[q] for q in ct.table[x]] == \
                [_mult(images[x], q) for q in images]
        classes = sorted(tuple(sorted(ct.index[p] for p in c))
                         for c in brute_conjugacy_classes(G))
        assert ct.classes == classes
        assert all(ct.class_id[x] == k for k, c in enumerate(ct.classes)
                   for x in c)

    def test_conj_row(self, S4):
        ct = S4.cayley_table()
        for g in range(ct.n):
            assert ct.conj_row(g) == [conj(ct, x, g) for x in range(ct.n)]

    def test_coset_labels_of_a_non_normal_subgroup(self, S4):
        # the S3 fixing point 3 is not normal in S4; each element is
        # labelled by the least index of its left coset x H
        ct = S4.cayley_table()
        H = sorted(i for i, p in enumerate(ct.elements) if p.images[3] == 3)
        assert len(H) == 6
        assert not is_normal(S4, subgroup_from_members(
            4, [ct.perm(i) for i in H]))
        labels = ct.coset_labels(H)
        assert labels.tolist() == [min(ct.table[x][h] for h in H)
                                   for x in range(ct.n)]
        assert len(set(labels.tolist())) == 4

    @pytest.mark.parametrize("rows", [1, 7, 24])
    def test_coset_labels_in_row_blocks(self, S4, A5, monkeypatch, rows):
        # blocks of 1, 7 (the last one short) and 24 table rows give the
        # labels of one gather over the whole table, for the non-normal
        # S3 of S4 and a subgroup of A5 from each conjugacy class
        assert perm_core._BLOCK_ROWS >= 360
        ct = S4.cayley_table()
        cases = [(ct, [i for i, p in enumerate(ct.elements)
                       if p.images[3] == 3])]
        reg = registry_for(A5)
        cases += [(reg.ct, sorted(reg.members[sid]))
                  for sid in reg.subgroup_class_reps()]
        assert len(cases) == 1 + 9
        monkeypatch.setattr(perm_core, "_BLOCK_ROWS", rows)
        for ct, H in cases:
            assert ct.coset_labels(H).tolist() == \
                ct.array[:, H].min(1).tolist()

    def test_inverse_array(self, catalog_entries):
        # the inverses filled along the table's tree, against the inverse
        # image tuple, on every catalog group up to order 2048 and the
        # trivial group
        groups = [group_from_generators(3, [])] + [
            G for entry in catalog_entries
            if (G := entry.group()).order <= 2048]
        assert len(groups) == 1 + 46
        for G in groups:
            ct = CayleyTable(G)
            assert ct.inv == [ct.index[perm_core._inv(p.images)]
                              for p in ct.elements], G
            assert all(ct.table[i][ct.inv[i]] == ct.identity
                       for i in range(ct.n))

    @staticmethod
    def assert_table_is_products(ct, label=""):
        images = [p.images for p in ct.elements]
        for i, a in enumerate(images):
            row = ct.table[i]
            assert len(row) == ct.n, label
            for j, b in enumerate(images):
                assert row[j] == ct.index[mult(a, b)], (label, i, j)

    def test_every_cell_on_catalog(self, catalog_entries):
        # every catalog group up to order 360, Dih100 (degree 100) among them
        checked = set()
        for entry in catalog_entries:
            G = entry.group()
            if G.order <= 360:
                self.assert_table_is_products(CayleyTable(G), entry.id)
                checked.add(entry.id)
        assert {"Dih100", "A6", "PGL(2,7)"} <= checked

    def test_trivial_group_degree_one(self):
        ct = CayleyTable(group_from_generators(1, []))
        assert [list(row) for row in ct.table] == [[0]]
        assert (ct.inv, ct.order_of, ct.gen_indices) == ([0], [1], ())

    def test_rows_are_views_of_one_uint16_array(self, S4):
        ct = S4.cayley_table()
        assert ct.array.dtype == np.uint16
        assert ct.array.shape == (ct.n, ct.n)
        assert not ct.array.flags.writeable
        for row in ct.table:
            assert np.shares_memory(np.asarray(row), ct.array)

    def test_order_beyond_uint16_is_refused_before_enumeration(self):
        S9 = symmetric(9).group()
        with caps(max_dense_order=10**6), \
                pytest.raises(CapExceededError, match="uint16"):
            S9.cayley_table()
        assert S9._elements is None

    def test_group_with_a_table_pickles(self):
        G = symmetric(4).group()
        ct = G.cayley_table()
        copy = pickle.loads(pickle.dumps(G))
        assert copy.elements() == G.elements()
        assert copy.cayley_table().table == ct.table
        # with its registry too; the copy builds its own
        reg = registry_for(G)
        reg.incidence_rows()
        copy = pickle.loads(pickle.dumps(G))
        assert registry_for(copy) is not reg
        assert registry_for(copy).incidence_rows() == reg.incidence_rows()

    def test_released_table_is_freed_at_once(self, gc_disabled):
        # the registry lives on the group, so no reference cycle keeps a
        # released table waiting for the cyclic GC
        G = symmetric(4).group()
        registry_for(G).incidence_rows()
        table = weakref.ref(G.cayley_table())
        G.release_dense_caches()
        assert table() is None

    @pytest.mark.parametrize("group_id", ["S4", "A5", "E2^3", "C12"])
    def test_cyclic_id_numbers_the_cyclic_subgroups(self, group_id):
        G = builtin_entry(group_id).group()
        ct = G.cayley_table()
        ids = ct.cyclic_id
        cyclic = [frozenset(brute_closure(G.degree, [p]))
                  for p in ct.elements]
        assert sorted(set(ids)) == list(range(len(set(cyclic))))
        for x, y in itertools.product(range(ct.n), repeat=2):
            assert (ids[x] == ids[y]) == (cyclic[x] == cyclic[y])

    def test_identity_and_repeated_generators(self):
        c4 = Permutation.from_cycles(4, [0, 1, 2, 3])
        t = Permutation.from_cycles(4, [0, 2])
        plain = CayleyTable(group_from_generators(4, [c4, t]))
        for gens in ([Permutation.identity(4), c4, t], [c4, c4, t, c4]):
            ct = CayleyTable(group_from_generators(4, gens))
            self.assert_table_is_products(ct)
            assert ct.table == plain.table
