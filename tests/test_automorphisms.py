import functools
import random
from collections import Counter

import numpy as np
import pytest

from rankgraph import (
    CapExceededError,
    GroupArgumentError,
    Permutation,
    group_from_generators,
)
from rankgraph import automorphisms
from rankgraph.automorphisms import (
    _bfs_schedule,
    _conjugation_matrix,
    _extend_map,
    _inner_rows,
    _respects_generators,
    automorphism_group,
    orbits_on_tuples,
    x_subgroup,
)
from rankgraph.catalog import (
    alternating,
    default_catalog,
    elementary_abelian,
    pgl2,
    psl2,
    symmetric,
)
from rankgraph.config import caps
from rankgraph.crown_powers import MonolithicGroup, delta_Lt
from rankgraph.group_structure import SubgroupRegistry, min_rank
from rankgraph.perm_core import subgroup_from_members

from oracles import (
    ClosureOracle,
    brute_closure,
    conj,
    exhaustive_automorphisms,
    inner_automorphisms,
    is_homomorphism,
    isomorphism,
    union_find_orbits,
)

# |Aut| of S4, of every catalog group tagged monolithic and of groups
# with a non-trivial centre
KNOWN_AUT = {"S4": 24, "S5": 120, "S6": 1440, "A5": 120, "A6": 1440,
             "PSL(2,4)": 120, "PSL(2,5)": 120, "PSL(2,7)": 336,
             "PSL(2,8)": 1512, "PSL(2,9)": 1440, "PSL(2,11)": 1320,
             "PSL(2,13)": 2184, "PGL(2,7)": 336, "PGL(2,9)": 1440,
             "Q8": 24, "V4": 6, "Dih4": 8, "E2^3": 168, "C4xC4": 96}
AUT_CASES = {e.id: e for e in default_catalog()
             if "monolithic" in e.tags
             or e.id in ("S4", "Dih4", "E2^3", "C4xC4")}


def cyc(n, *cycles):
    return Permutation.from_cycles(n, *cycles)


def row_generators(rows):
    """A reduced generating set of the group whose elements are the rows
    of an index array, built by ``subgroup_from_members``."""
    members = [Permutation(row) for row in rows.tolist()]
    return subgroup_from_members(rows.shape[1], members).generators


class TestAutomorphismGroup:
    def test_c2_trivial(self):
        G = group_from_generators(2, [cyc(2, [0, 1])])
        assert len(automorphism_group(G)) == 1

    def test_trivial_group(self):
        T = group_from_generators(3, [])
        assert len(automorphism_group(T)) == 1
        assert isomorphism(T, group_from_generators(2, [])).map == [0]

    def test_klein_four_gl22(self, V4):
        assert len(automorphism_group(V4)) == 6

    def test_a5(self, A5):
        aut = automorphism_group(A5)
        assert len(aut) == 120
        assert inner_automorphisms(A5).order == 60

    def test_maps_preserve_multiplication(self, A5):
        # every returned map validated against the full multiplication table
        aut = automorphism_group(A5)
        ct = A5.cayley_table()
        rng = random.Random(11)
        for sigma in aut[:10]:
            for _ in range(40):
                i, j = rng.randrange(ct.n), rng.randrange(ct.n)
                assert sigma[ct.table[i][j]] == ct.table[sigma[i]][sigma[j]]
            assert sigma[ct.identity] == ct.identity

    def test_inner_order_is_g_mod_center(self, S4, Q8):
        assert inner_automorphisms(S4).order == 24   # trivial center
        assert inner_automorphisms(Q8).order == 4    # center of order 2

    def test_aut_order_divisible_by_inner(self, S4, Q8, V4):
        for G in (S4, Q8, V4):
            aut = automorphism_group(G)
            assert len(aut) % inner_automorphisms(G).order == 0

    @pytest.mark.parametrize("entry, aut_order, x_order", [
        (symmetric(4), 24, 4), (alternating(5), 120, 120),
        (psl2(7), 336, 336)], ids=["S4", "A5", "PSL(2,7)"])
    def test_element_cache_is_the_closure(self, entry, aut_order, x_order):
        # the search's sorted rows are the whole group they generate
        L = entry.group()
        aut = automorphism_group(L)
        closure = brute_closure(aut.shape[1], row_generators(aut))
        assert [tuple(row) for row in aut.tolist()] == sorted(closure)
        assert len(aut) == aut_order
        assert len(MonolithicGroup(L).x_group) == x_order

    def test_closure_check_catches_a_missing_map(self, A5, monkeypatch):
        # with one inner automorphism dropped the maps are still pairwise
        # distinct, but composing with conjugation leaves the set
        import rankgraph.automorphisms as automorphisms
        inner_rows = automorphisms._inner_rows
        monkeypatch.setattr(automorphisms, "_inner_rows",
                            lambda ct, conj: inner_rows(ct, conj)[1:])
        with pytest.raises(RuntimeError, match="closed under composition"):
            automorphism_group(A5)

    def test_closure_check_over_the_cap_is_refused(self):
        # L abelian: all 168 maps are found, and the check composes each
        # map with every one of them
        G = AUT_CASES["E2^3"].group()
        with caps(max_search_space=10**4), \
                pytest.raises(CapExceededError, match="closure check"):
            automorphism_group(G)
        assert len(automorphism_group(G)) == 168

    def test_closure_check_of_e2_4_is_refused_at_the_default_caps(self):
        # Aut = GL(4, 2): the check would hold 1.6e9 int64 cells
        with pytest.raises(CapExceededError, match="closure check"):
            automorphism_group(elementary_abelian(2, 4).group())


    @pytest.mark.parametrize(
        "case", [*AUT_CASES, "Q8", "V4"])
    def test_matches_full_table_search(self, case, request):
        # the search without the inner-automorphism reduction is the
        # oracle for the element list; every map is checked on the whole
        # table up to order 360, a seeded sample of 12 above (the whole
        # table takes 34 s for PSL(2,13))
        G = request.getfixturevalue(case) if case in ("Q8", "V4") \
            else AUT_CASES[case].group()
        aut = automorphism_group(G)
        assert len(aut) == KNOWN_AUT[case]
        maps = aut.tolist()
        want = exhaustive_automorphisms(G)
        assert [Permutation(row) for row in maps] == want
        ct = G.cayley_table()
        sample = maps if G.order <= 360 else random.Random(3).sample(maps, 12)
        for row in sample:
            assert is_homomorphism(ct, ct, np.array(row))

    @pytest.mark.parametrize("name", ["S4", "Q8", "V4", "A5"])
    def test_inner_rows_are_inn(self, name, request):
        # the distinct rows of the conjugation matrix are Inn(G), built
        # independently from conjugation by the generators
        G = request.getfixturevalue(name)
        ct = G.cayley_table()
        conj = _conjugation_matrix(ct)
        inner = _inner_rows(ct, conj)
        assert len(np.unique(inner, axis=0)) == len(inner)
        assert len(np.unique(conj, axis=0)) == len(inner)
        assert len(inner) == inner_automorphisms(G).order

    def test_search_builds_no_lattice(self, monkeypatch):
        # the generating sequence comes from pruning the group's own
        # generators, so neither search joins subgroups
        calls = []
        extend = SubgroupRegistry._cyclic_extension

        def counted(reg):
            calls.append(reg.ct.n)
            return extend(reg)

        A5, P = alternating(5).group(), psl2(5).group()
        L = psl2(7).group()
        # the brute isomorphism oracle starts from a min_rank witness, so
        # it runs before the count
        assert isomorphism(P, A5).isomorphic is True
        monkeypatch.setattr(SubgroupRegistry, "_cyclic_extension", counted)
        assert len(automorphism_group(L)) == 336
        assert len(automorphism_group(P)) == 120
        assert calls == []

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
        autos = automorphism_group(G).tolist()
        for src in (base, base + [base[0]], base + [ct.identity]):
            cands = [tuple(a[x] for x in src) for a in rng.sample(autos, 8)]
            for _ in range(40):
                cands.append(tuple(
                    rng.choice([y for y in range(ct.n)
                                if ct.order_of[y] == ct.order_of[x]])
                    for x in src))
                cands.append(tuple(rng.randrange(ct.n) for _ in src))
            schedule = _bfs_schedule(ct, src)
            batch = _extend_map(ct, schedule, cands)
            verdicts = _respects_generators(ct, src, cands, batch)
            expected = []
            for cand, row in zip(cands, batch):
                sigma = _extend_map(ct, schedule, cand)
                assert (sigma == row).all()
                want = (is_homomorphism(ct, ct, sigma)
                        and tuple(sigma[src]) == cand)
                assert bool(_respects_generators(ct, src, cand,
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
        alpha = automorphism_group(A5)[5].tolist()
        sigma = np.array([alpha[conj(ct, y, g)] if y in T else alpha[y]
                          for y in range(ct.n)])
        dst = [alpha[y] for y in src]
        assert not is_homomorphism(ct, ct, sigma)
        assert _respects_generators(ct, src[:1], dst[:1], sigma)
        assert not _respects_generators(ct, src, dst, sigma)


class TestXSubgroup:
    def test_simple_socle_gives_full_aut(self, A5):
        mono = MonolithicGroup(A5)
        X = x_subgroup(mono)
        assert len(X) == len(automorphism_group(A5))

    def test_s5_contains_inner(self, S5):
        mono = MonolithicGroup(S5)
        X = x_subgroup(mono)
        assert len(X) >= 1
        # inner automorphisms preserve cosets of a normal subgroup
        rows = {tuple(row) for row in X.tolist()}
        assert all(p.images in rows
                   for p in inner_automorphisms(S5).elements())

    def test_coset_displacement_lies_in_socle(self, S5):
        mono = MonolithicGroup(S5)
        X = x_subgroup(mono)
        ct = S5.cayley_table()
        N = mono.socle
        for gamma in X[:20].tolist():
            for l in range(0, ct.n, 17):
                disp = ct.perm(ct.inv[l]) * ct.perm(gamma[l])
                assert N.contains(disp)

    @pytest.mark.parametrize("entry, x_order", [
        (symmetric(4), 4), (symmetric(5), 120), (pgl2(7), 336),
        (symmetric(6), 1440)], ids=["S4", "S5", "PGL(2,7)", "S6"])
    def test_rows_are_the_aut_rows_fixing_every_coset(self, entry, x_order):
        # gamma lies in X iff l^-1 gamma(l) lies in the socle for every
        # element l, read from the socle's own element list
        mono = MonolithicGroup(entry.group())
        ct = mono.ct()
        in_socle = np.zeros(ct.n, dtype=bool)
        in_socle[ct.indices(mono.socle.elements())] = True
        aut = mono.aut
        disp = ct.array[np.asarray(ct.inv), aut]
        want = aut[in_socle[disp].all(1)]
        assert np.array_equal(x_subgroup(mono), want)
        assert np.array_equal(mono.x_group, want)
        assert len(want) == x_order


class TestOrbitsOnTuples:
    def test_trivial_x_every_tuple_own_orbit(self, A5):
        trivial = np.arange(60)[None, :]
        tuples = [(0, 1), (2, 3), (4, 5)]
        labels, reps = orbits_on_tuples(trivial, tuples)
        assert len(reps) == 3

    def test_fixed_singleton_single_orbit(self, A5):
        aut = automorphism_group(A5)
        ct = A5.cayley_table()
        tuples = [(ct.identity, ct.identity)]
        labels, reps = orbits_on_tuples(aut, tuples)
        assert len(reps) == 1

    def test_a5_generating_pairs_19_orbits(self, A5):
        # 2280 generating pairs frozen from the join oracle; the orbit
        # count is forced by the free action: 2280 / |Aut(A5)| = 19
        oracle = ClosureOracle(A5)
        pairs = [(x, y) for x in range(60) for y in range(60)
                 if oracle.generates((x, y))]
        assert len(pairs) == 2280
        aut = automorphism_group(A5)
        labels, reps = orbits_on_tuples(aut, pairs)
        assert len(reps) == 19
        sizes = {}
        for lab in labels:
            sizes[lab] = sizes.get(lab, 0) + 1
        assert all(size == 120 for size in sizes.values())

    def test_orbit_partition_invariant_under_generator_shuffle(self, A5):
        oracle = ClosureOracle(A5)
        pairs = [(x, y) for x in range(60) for y in range(60)
                 if oracle.generates((x, y))]
        aut = automorphism_group(A5)
        labels1, reps1 = orbits_on_tuples(aut, pairs)
        shuffled = list(range(len(aut)))
        random.Random(9).shuffle(shuffled)
        labels2, reps2 = orbits_on_tuples(aut[shuffled], pairs)
        assert np.array_equal(labels1, labels2) and reps1 == reps2

    def test_non_closed_input_rejected(self, A5):
        aut = automorphism_group(A5)
        oracle = ClosureOracle(A5)
        pairs = [(x, y) for x in range(60) for y in range(60)
                 if oracle.generates((x, y))]
        with pytest.raises(GroupArgumentError):
            orbits_on_tuples(aut, pairs[:100])


    @pytest.mark.parametrize("case", [
        "A5 Omega", "PSL(2,7) Omega", "S5 Omega", "Aut(A5) on A5",
        "trivial on pairs"])
    def test_matches_union_find_oracle(self, case):
        X, tuples, want, count = orbit_case(case)
        labels, reps = orbits_on_tuples(X, np.array(tuples))
        assert labels.tolist() == want and len(reps) == count
        assert reps == least_members(tuples, want, count)
        # dropping a tuple that is not alone in its orbit breaks closure
        sizes = Counter(labels)
        drop = next((i for i, lab in enumerate(labels) if sizes[lab] > 1),
                    None)
        if drop is not None:
            rest = tuples[:drop] + tuples[drop + 1:]
            with pytest.raises(GroupArgumentError):
                orbits_on_tuples(X, np.array(rest))
            with pytest.raises(KeyError):
                union_find_orbits(row_generators(X), rest)

    def test_repeated_tuple_rejected(self):
        with pytest.raises(GroupArgumentError, match="repeated"):
            orbits_on_tuples(np.arange(4)[None, :], [(0, 1), (0, 1)])

    # blocks of 1, 2 or 3 candidates, one with a scan window of 2
    # positions, narrower than the block, and a budget below |X| (blocks
    # of one candidate all the same)
    @pytest.mark.parametrize("per_block,scan", [(1, None), (2, None),
                                                (3, None), (3, 2), (0, None)])
    @pytest.mark.parametrize("case", ["Aut(A5) on A5", "PSL(2,7) Omega"])
    def test_small_blocks_match_union_find_oracle(self, case, per_block,
                                                  scan, monkeypatch):
        X, tuples, want, count = orbit_case(case)
        monkeypatch.setattr(automorphisms, "_CELLS", per_block * len(X))
        if scan:
            monkeypatch.setattr(automorphisms, "_SCAN", scan)
        labels, reps = orbits_on_tuples(X, np.array(tuples))
        assert labels.tolist() == want
        assert reps == least_members(tuples, want, count)

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    def test_open_orbit_in_a_late_block_rejected(self, per_block,
                                                 monkeypatch):
        # drop a member of the orbit with the greatest least member, which
        # is the last one a block reaches
        X, tuples, want, count = orbit_case("PSL(2,7) Omega")
        last = least_members(tuples, want, count)[-1]
        drop = next(i for i, (lab, t) in enumerate(zip(want, tuples))
                    if lab == count - 1 and t != last)
        monkeypatch.setattr(automorphisms, "_CELLS", per_block * len(X))
        with pytest.raises(GroupArgumentError, match="not closed"):
            orbits_on_tuples(X, np.array(tuples[:drop] + tuples[drop + 1:]))


@functools.lru_cache(maxsize=None)
def orbit_case(case: str) -> tuple:
    """(X, tuples, labels, count) of a case for ``orbits_on_tuples``: free
    actions on Omega at t = 2, a non-free action (Aut(A5) on the 60
    one-tuples) and the trivial group.  The tuples are shuffled, since
    the scan order is the routine's; labels and count are the union-find
    oracle's."""
    if case.endswith("Omega"):
        entry = {"A5": alternating(5), "PSL(2,7)": psl2(7),
                 "S5": symmetric(5)}[case.split()[0]]
        mono = MonolithicGroup(entry.group())
        X = mono.x_group
        tuples = list(map(tuple, delta_Lt(mono, 2)[1].tuples.tolist()))
    elif case == "Aut(A5) on A5":
        X = automorphism_group(alternating(5).group())
        tuples = [(x,) for x in range(60)]
    else:
        X = np.arange(60)[None, :]
        tuples = [(x, y) for x in range(0, 60, 7) for y in range(3)]
    tuples = random.Random(5).sample(tuples, len(tuples))
    return (X, tuples) + union_find_orbits(row_generators(X), tuples)


def least_members(tuples, labels, count) -> list:
    """The least tuple of each orbit, by orbit number."""
    least = {}
    for lab, t in zip(labels, tuples):
        least[lab] = min(least.get(lab, t), t)
    return [least[k] for k in range(count)]


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
