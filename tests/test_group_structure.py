import pytest

from rankgraph import (
    CapExceededError,
    CayleyTable,
    Permutation,
    PermutationGroup,
    PreconditionError,
    generates,
    group_from_generators,
    is_normal,
    quotient,
)
from rankgraph.catalog import builtin_entry, default_catalog, find_entry
from rankgraph.config import caps
from rankgraph.group_structure import (
    SubgroupRegistry,
    cyclic_classes,
    d_X,
    frattini,
    gaschutz_lift,
    is_simple,
    is_soluble,
    min_rank,
    normal_subgroups,
    registry_for,
    socle,
)

from oracles import (
    ClosureOracle,
    brute_cyclic_classes,
    brute_frattini,
    brute_maximal_subgroups,
    brute_non_generators,
    brute_normal_subgroups,
    permutation_normal_subgroups,
)


UP_TO_720 = [e.id for e in default_catalog() if e.group().order <= 720]
UP_TO_360 = [e.id for e in default_catalog() if e.group().order <= 360]
DENSE = [e.id for e in default_catalog() if e.group().order <= 2048]


def cyc(n, *cycles):
    return Permutation.from_cycles(n, *cycles)


class TestNormalSubgroups:
    def test_simple_group(self, A5):
        lat = normal_subgroups(A5)
        assert [N.order for N in lat.normals] == [1, 60]
        assert [N.order for N in lat.minimal_normals] == [60]

    def test_s4_oracle(self, S4):
        # frozen from the exhaustive subgroup-normality oracle
        oracle_orders = sorted(len(H) for H in brute_normal_subgroups(S4))
        assert oracle_orders == [1, 4, 12, 24]
        lat = normal_subgroups(S4)
        assert [N.order for N in lat.normals] == [1, 4, 12, 24]

    def test_c6_has_four(self):
        C6 = group_from_generators(6, [cyc(6, list(range(6)))])
        assert len(normal_subgroups(C6).normals) == 4

    def test_all_listed_are_normal(self, S4):
        lat = normal_subgroups(S4)
        for N in lat.normals:
            assert is_normal(S4, N)

    def test_minimal_normals_are_atoms(self, S4):
        lat = normal_subgroups(S4)
        for N in lat.minimal_normals:
            assert N.order > 1
            for M in lat.normals:
                if 1 < M.order < N.order:
                    assert not N.contains_group(M)

    @pytest.mark.parametrize("gid", DENSE)
    def test_class_masks_match_permutation_oracle(self, gid):
        # the oracle runs on a group object of its own, with no table
        lat = normal_subgroups(builtin_entry(gid).group())
        normals, minimal = permutation_normal_subgroups(
            builtin_entry(gid).group())

        def key(H):
            return sorted(p.images for p in H.elements())

        assert list(map(key, lat.normals)) == list(map(key, normals))
        assert list(map(key, lat.minimal_normals)) == list(map(key, minimal))
        assert [N.generators for N in lat.minimal_normals] == \
            [N.generators for N in minimal]

    @pytest.mark.parametrize("gid,count", [("E2^4", 67), ("E3^3", 28),
                                           ("E5^2", 8), ("E7^2", 10)])
    def test_elementary_abelian_normals_are_subspaces(self, gid, count):
        # every subgroup of E_p^k is normal, and the subgroups are the
        # subspaces of F_p^k: sum over j of the Gaussian binomials [k, j]_p
        p, k = map(int, gid[1:].split("^"))

        def gaussian(j):
            num = den = 1
            for i in range(j):
                num *= p ** (k - i) - 1
                den *= p ** (i + 1) - 1
            return num // den

        assert sum(map(gaussian, range(k + 1))) == count
        lat = normal_subgroups(builtin_entry(gid).group())
        assert len(lat.normals) == count
        assert [N.order for N in lat.minimal_normals] == \
            [p] * gaussian(1)

    def test_lattice_needs_the_dense_table(self, A5):
        with caps(max_dense_order=50), pytest.raises(CapExceededError):
            normal_subgroups(A5)


class TestSocle:
    def test_simple(self, A5):
        assert socle(A5).order == 60

    def test_s5(self, S5):
        assert socle(S5).order == 60

    def test_s4(self, S4):
        S = socle(S4)
        assert S.order == 4


class TestSolubility:
    def test_p_group(self, Q8):
        assert is_soluble(Q8)

    def test_a5(self, A5):
        assert not is_soluble(A5)

    def test_s4(self, S4):
        assert is_soluble(S4)


class TestFrattini:
    def test_elementary_abelian_trivial(self, V4):
        assert frattini(V4).order == 1

    def test_q8_center(self, Q8):
        # frozen from the maximal-subgroup intersection oracle
        assert len(brute_frattini(Q8)) == 2
        F = frattini(Q8)
        assert F.order == 2
        assert is_normal(Q8, F)

    def test_symmetric_trivial(self, S4, S5):
        assert frattini(S4).order == 1
        assert frattini(S5).order == 1

    def test_q8_maximals_against_oracle(self, Q8):
        oracle = brute_maximal_subgroups(Q8)
        ours = registry_for(Q8).maximal_subgroups()
        assert sorted(map(len, oracle)) == sorted(map(len, ours))

    def test_s4_maximals_against_oracle(self, S4):
        oracle = brute_maximal_subgroups(S4)
        ours = registry_for(S4).maximal_subgroups()
        assert sorted(map(len, oracle)) == sorted(map(len, ours))

    @pytest.mark.parametrize("group_id, max_gens", [
        ("A5", 2), ("S5", 2), ("E2^3", 3), ("Dih4xC2", 3)])
    def test_registry_maximals_complete(self, group_id, max_gens):
        # the incidence edge engine is only as correct as this list; every
        # maximal subgroup of these groups is max_gens-generated
        G = find_entry(default_catalog(), group_id).group()
        reg = registry_for(G)
        ours = [frozenset(reg.ct.elements[i].images for i in M)
                for M in reg.maximal_subgroups()]
        assert len(set(ours)) == len(ours)
        assert set(ours) == set(brute_maximal_subgroups(G, max_gens))

    @pytest.mark.parametrize("group_id",
                             ["S4", "A5", "PSL(2,7)", "E3^3", "Dih9"])
    def test_join_with_element_matches_fresh_closure(self, group_id):
        # the coset closure, Lagrange exit included, gives what a
        # breadth-first closure of the generators of H and z gives; in
        # E3^3 (every H) and Dih9 (|H| = 2, 6), |G|/(2|H|) is not an
        # integer, which would show an off-by-one in the Lagrange exit
        G = find_entry(default_catalog(), group_id).group()
        reg = registry_for(G)
        oracle = ClosureOracle(G)
        for sid in reg.subgroup_class_reps():
            for z in range(reg.ct.n):
                want = oracle.reg.members[
                    oracle.bfs_close(reg.gens[sid] + (z,))]
                assert reg.members[reg.join_with_element(sid, z)] == want

    def test_coset_labels_once_per_subgroup_closed_from(self, A5,
                                                        monkeypatch):
        # ``close`` labels the cosets of each H it closes from once
        labelled, closed_from = [], set()
        coset_labels = CayleyTable.coset_labels
        close = SubgroupRegistry.close

        def labels_spy(ct, members):
            labelled.append(len(members))
            return coset_labels(ct, members)

        def close_spy(reg, sid, z):
            closed_from.add(sid)
            return close(reg, sid, z)
        monkeypatch.setattr(CayleyTable, "coset_labels", labels_spy)
        monkeypatch.setattr(SubgroupRegistry, "close", close_spy)
        SubgroupRegistry(A5.cayley_table()).subgroup_class_reps()
        assert labelled
        assert len(labelled) == len(closed_from)

    def test_proper_join_interned_once_per_representative(self, S4,
                                                          monkeypatch):
        # a proper join that a representative already produced is read
        # from its memo, not built and interned again
        inside, interned, proper = [], [], set()
        close = SubgroupRegistry.close
        intern = SubgroupRegistry.intern

        def close_spy(reg, sid, z):
            inside.append(sid)
            try:
                got = close(reg, sid, z)
            finally:
                inside.pop()
            if got != reg.full_id:
                proper.add((sid, got))
            return got

        def intern_spy(reg, members, gens):
            if inside:
                interned.append(members)
            return intern(reg, members, gens)
        monkeypatch.setattr(SubgroupRegistry, "close", close_spy)
        monkeypatch.setattr(SubgroupRegistry, "intern", intern_spy)
        SubgroupRegistry(S4.cayley_table()).subgroup_class_reps()
        assert proper
        assert len(interned) == len(proper)

    @pytest.mark.parametrize("group_id", ["A5", "S5", "PSL(2,7)"])
    def test_maximal_classes_in_ascending_member_order(self, group_id):
        # each conjugacy class of maximal subgroups is one run of
        # ``maximal_subgroups()``, its members in ascending sorted order,
        # so the incidence bits do not depend on how an orbit was found
        G = find_entry(default_catalog(), group_id).group()
        reg = registry_for(G)
        runs = []
        for M in reg.maximal_subgroups():
            if runs and M in runs[-1][0]:
                runs[-1][1].append(M)
            else:
                runs.append((set(reg.conjugates(M)), [M]))
        for cls, run in runs:
            assert set(run) == cls
            keys = [sorted(M) for M in run]
            assert keys == sorted(keys)
        assert len(runs) > 1

    @pytest.mark.parametrize("group_id", UP_TO_360)
    def test_normaliser_matches_all_conjugators(self, group_id):
        # N_G(H) from the generators of H equals {g : H^g = H}, with H^g
        # computed element by element for every g in G
        G = find_entry(default_catalog(), group_id).group()
        reg = registry_for(G)
        ct = reg.ct
        for sid in reg.subgroup_class_reps():
            H = reg.members[sid]
            want = [g for g in range(ct.n)
                    if frozenset(ct.conj(x, g) for x in H) == H]
            assert reg.normaliser(sid) == want

    @pytest.mark.parametrize("group_id", UP_TO_720)
    def test_cyclic_extension_matches_join_closure(self, group_id):
        # the same conjugacy classes of subgroups and the same maximal
        # subgroups as joining every class representative with every element
        G = find_entry(default_catalog(), group_id).group()
        classes, maximal = ClosureOracle(G).subgroup_classes()
        reg = registry_for(G)
        ours = {frozenset(reg.conjugates(reg.members[sid]))
                for sid in reg.subgroup_class_reps()}
        assert ours == classes
        assert len(reg.subgroup_class_reps()) == len(classes)
        got = reg.maximal_subgroups()
        assert len(set(got)) == len(got)
        assert set(got) == maximal

    def test_class_size_invariant(self, S4, monkeypatch):
        # a conjugacy orbit that disagrees with |G : N_G(H)| is reported
        conjugates = SubgroupRegistry.conjugates
        monkeypatch.setattr(SubgroupRegistry, "conjugates",
                            lambda self, members:
                            conjugates(self, members)[:2])
        reg = SubgroupRegistry(S4.cayley_table())
        with pytest.raises(RuntimeError, match="conjugates"):
            reg.subgroup_class_reps()

    def test_normal_representatives_are_checked(self, S4, monkeypatch):
        # a representative with one conjugate skips the class-size check,
        # so the generators of G must still map it into itself
        monkeypatch.setattr(SubgroupRegistry, "conjugates",
                            lambda self, members: [members])
        reg = SubgroupRegistry(S4.cayley_table())
        with pytest.raises(RuntimeError, match="conjugates"):
            reg.subgroup_class_reps()

    def test_normaliser_runs_for_non_normal_representatives(
            self, S4, monkeypatch):
        called = []
        normaliser = SubgroupRegistry.normaliser
        monkeypatch.setattr(SubgroupRegistry, "normaliser",
                            lambda self, sid: called.append(sid) or
                            normaliser(self, sid))
        reg = SubgroupRegistry(S4.cayley_table())
        reps = reg.subgroup_class_reps()
        non_normal = [sid for sid in reps
                      if len(reg.conjugates(reg.members[sid])) > 1]
        assert (len(reps), len(non_normal)) == (11, 7)
        assert called == non_normal

    def test_cyclic_class_labels_match_brute_conjugacy(self,
                                                       catalog_entries):
        # one label of ``cyclic_classes`` per class of ``oracles``, on
        # every catalog group up to order 360
        checked = 0
        for entry in catalog_entries:
            G = entry.group()
            if G.order > 360:
                continue
            ct = G.cayley_table()
            label = cyclic_classes(ct)
            ours = [label[c] for c in ct.cyclic_id]
            brute = brute_cyclic_classes(G)
            assert len(set(zip(ours, brute))) == len(set(ours)) == \
                len(set(brute)), entry.id
            checked += 1
        assert checked == 41

    def test_non_generator_characterization(self, Q8):
        ct = Q8.cayley_table()
        ours = frozenset(p.images for p in frattini(Q8).elements())
        assert ours == brute_non_generators(Q8, subset_cap=2)

    def test_cap(self):
        from rankgraph.catalog import symmetric
        S6 = symmetric(6).group()
        with caps(max_dense_order=100), pytest.raises(CapExceededError):
            frattini(S6)

    def test_idempotence_and_rank_invariance_on_catalog(self, catalog_entries):
        # Frat(G/Frat(G)) = 1 and d(G) = d(G/Frat(G)) on small catalog groups
        for entry in catalog_entries:
            G = entry.group()
            if G.order > 200:
                continue
            F = frattini(G)
            assert is_normal(G, F)
            if F.order == 1:
                continue
            Q, _ = quotient(G, F)
            assert frattini(Q).order == 1
            assert min_rank(G).d == min_rank(Q).d


class TestMinRank:
    def test_trivial(self):
        assert min_rank(group_from_generators(3, [])).d == 0

    def test_cyclic(self):
        C6 = group_from_generators(6, [cyc(6, list(range(6)))])
        cert = min_rank(C6)
        assert cert.d == 1 and generates(C6, list(cert.witness))

    def test_elementary_abelian_rank3(self):
        G = group_from_generators(6, [cyc(6, [0, 1]), cyc(6, [2, 3]),
                                      cyc(6, [4, 5])])
        cert = min_rank(G)
        assert cert.d == 3 and generates(G, list(cert.witness))

    def test_a5_two_generated(self, A5):
        cert = min_rank(A5)
        assert cert.d == 2 and generates(A5, list(cert.witness))

    def test_witness_has_no_shorter_form(self, S4):
        cert = min_rank(S4)
        assert cert.d == 2
        # no single element generates S4
        for p in S4.elements():
            assert p.order() < 24

    def test_large_nonabelian_two_generator_certificate(self):
        from rankgraph.catalog import crown_power_entry, alternating
        entry = crown_power_entry(alternating(5), 2)
        G = entry.group()
        assert G.order == 3600
        assert min_rank(G).d == 2


class TestDX:
    def test_generating_set_gives_zero(self, A5):
        assert d_X(A5, list(A5.generators)) == 0

    def test_identity_in_a5(self, A5):
        assert d_X(A5, [A5.identity]) == 2

    def test_outside_element_rejected(self, A5):
        with pytest.raises(Exception):
            d_X(A5, [cyc(5, [0, 1])])

    def test_bounded_by_min_rank(self, S4, A5):
        import random
        rng = random.Random(5)
        for G in (S4, A5):
            d = min_rank(G).d
            assert d_X(G, []) == d
            for _ in range(10):
                X = [G.random_element(rng) for _ in range(rng.randrange(3))]
                assert d_X(G, X) <= d


class TestGaschutzLift:
    def test_trivial_m(self, S4):
        M = group_from_generators(4, [])
        g = list(min_rank(S4).witness)
        ns = gaschutz_lift(S4, M, [], g)
        assert all(n.is_identity() for n in ns)

    def test_already_generating(self, S4, V4):
        g = list(min_rank(S4).witness)
        ns = gaschutz_lift(S4, V4, [], g)
        corrected = [gi * ni for gi, ni in zip(g, ns)]
        assert generates(S4, corrected)

    def test_s4_mod_v4_lift(self, S4, V4):
        # lift a generating pair of S4/V4 (spec-derived instance)
        g = [cyc(4, [0, 1, 2]), cyc(4, [0, 1])]
        gens = g + list(V4.generators)
        assert PermutationGroup(4, gens).order == 24
        ns = gaschutz_lift(S4, V4, [], g)
        assert all(V4.contains(n) for n in ns)
        assert generates(S4, [g[0] * ns[0], g[1] * ns[1]])

    def test_precondition_violation(self, S4, V4):
        with pytest.raises(PreconditionError):
            gaschutz_lift(S4, V4, [], [cyc(4, [0, 1, 2])])  # <g, V4> != S4


class TestIsSimple:
    def test_a5(self, A5):
        assert is_simple(A5)

    def test_s4(self, S4):
        assert not is_simple(S4)
