import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from rankgraph import (
    CapExceededError,
    GroupArgumentError,
    Permutation,
    PreconditionError,
    group_from_generators,
)
from rankgraph.catalog import alternating, psl2, symmetric
from rankgraph.config import caps
from rankgraph.perm_core import StabilizerChain
from rankgraph import automorphisms, crown_powers
from rankgraph.crown_powers import (
    CrownGraphBuilder,
    MonolithicGroup,
    _exhaustive_report,
    _from_coordinates,
    build_crown_power,
    cln_witness,
    columns_generate,
    default_generating_tuple,
    delta_Lt,
    delu_fraction,
    generation_via_orbits,
    meet_is_single_block,
    omega_table,
    square_order,
    unico_rank_check,
    weak_connectivity,
    weak_connectivity_sampled,
)
from rankgraph.group_structure import SubgroupRegistry, registry_for

import oracles
from oracles import (
    ClosureOracle,
    circ,
    class_graph_edges,
    column_elements,
    component,
    components,
    crown_edge,
    crown_generates,
    crown_graph,
    crown_group,
    is_congruent,
    meet_blocks,
    pairwise_columns_generate,
    pairwise_edges,
    pairwise_sampled_weak_connectivity,
    word_lengths,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, *cycles)


@pytest.fixture(scope="module")
def A5m(A5):
    return MonolithicGroup.from_group(A5, "A5")


@pytest.fixture(scope="module")
def S5m(S5):
    return MonolithicGroup.from_group(S5, "S5")


class TestMonolithic:
    def test_simple_socle_is_group(self, A5m):
        assert A5m.socle.order == 60
        assert not A5m.socle_abelian

    def test_s5_socle(self, S5m):
        assert S5m.socle.order == 60
        assert S5m.quotient_order == 2

    def test_non_monolithic_rejected(self):
        G = group_from_generators(6, [cyc(6, [0, 1, 2]), cyc(6, [3, 4, 5]),
                                      cyc(6, [0, 1]), cyc(6, [3, 4])])
        with pytest.raises(GroupArgumentError):
            MonolithicGroup.from_group(G)

    def test_socle_bfs_order_is_by_word_length(self, S5m):
        ct = S5m.ct()
        order = S5m.socle_bfs_order
        assert sorted(order) == list(S5m.socle_indices)
        maps = [ct.array[:, ct.index[g.images]].tolist()
                for g in S5m.socle.generators]
        lengths = word_lengths(maps, ct.identity)
        assert [lengths[x] for x in order] == sorted(lengths.values())

    def test_abelian_socle_gated_for_graphs(self, S4):
        mono = MonolithicGroup.from_group(S4)
        assert mono.socle_abelian
        with pytest.raises(PreconditionError):
            crown_graph(mono, 3, 1)


class TestCrownPower:
    def test_k1_is_l_itself(self, A5m):
        cp = build_crown_power(A5m, 1)
        assert crown_group(cp).order == 60
        assert crown_group(cp).degree == 5

    def test_a5_squared(self, A5m):
        cp = build_crown_power(A5m, 2)
        assert crown_group(cp).order == 3600

    def test_s5_power_two(self, S5m):
        cp = build_crown_power(S5m, 2)
        assert crown_group(cp).order == 2 * 60 * 60

    def test_order_certified_for_k3(self, S5m):
        # the per-coordinate socle generators matter from k = 3 on
        cp = build_crown_power(S5m, 3)
        assert crown_group(cp).order == 2 * 60 ** 3

    def test_congruence_members(self, S5m):
        cp = build_crown_power(S5m, 2)
        G = crown_group(cp)
        rng = random.Random(0)
        for _ in range(15):
            p = G.random_element(rng)
            assert is_congruent(cp, p)

    def test_circ_diagonal(self, A5m):
        a = cyc(5, [0, 1, 2, 3, 4])
        e = circ(A5m, a, [Permutation.identity(5)] * 3)
        cp = build_crown_power(A5m, 3)
        assert all(component(cp, e, j) == a for j in range(3))

    def test_circ_identity_row(self, A5m):
        n = cyc(5, [0, 1, 2])
        e = circ(A5m, Permutation.identity(5), [n, n])
        cp = build_crown_power(A5m, 2)
        assert component(cp, e, 0) == n

    def test_circ_componentwise_product(self, A5m):
        a, b = cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2, 3, 4])
        m1 = [cyc(5, [1, 2, 3]), cyc(5, [0, 4, 2])]
        m2 = [cyc(5, [0, 3], [1, 2]), Permutation.identity(5)]
        prod = circ(A5m, a, m1) * circ(A5m, b, m2)
        cp = build_crown_power(A5m, 2)
        for j in range(2):
            assert component(cp, prod, j) == (a * m1[j]) * (b * m2[j])

    def test_circ_rejects_outside_socle(self, S5m):
        with pytest.raises(GroupArgumentError):
            circ(S5m, cyc(5, [0, 1]), [cyc(5, [0, 1]), Permutation.identity(5)])

    def test_chain_built_on_first_access(self, S5m):
        # degree and order come from the construction; the generators
        # are built on first access and give a group of that order
        cp = build_crown_power(S5m, 4)
        assert (cp.degree, cp.order) == (20, 2 * 60 ** 4)
        assert "generators" not in vars(cp)
        G = crown_group(cp)
        assert G.order == cp.order and G.degree == cp.degree
        assert list(G.generators) == cp.generators


@pytest.fixture(scope="module")
def witnesses(A5m, S5m):
    """(L, orbit table at t = 2) for A5 (L = N) and S5 (L != N)."""
    return {"A5": (A5m, delta_Lt(A5m, 2)[1]),
            "S5": (S5m, delta_Lt(S5m, 2)[1])}


def lemma_and_chain(L, columns):
    """The lemma's verdict and the stabilizer-chain oracle's."""
    cp = build_crown_power(L, len(columns))
    return (columns_generate(L, columns),
            crown_generates(cp, column_elements(L, columns)))


def lemma_cases(L, table) -> dict:
    """The orbit representatives and column matrices derived from them:
    a duplicated column, an X-image of another column, a non-generating
    column (these fail) and a dropped column (still generates)."""
    reps = list(table.reps)
    alpha = L.x_group[1].tolist()  # row 0 is the identity
    x_image = list(reps)
    x_image[7] = tuple(alpha[x] for x in reps[2])
    reg = registry_for(L.group)
    cosets = [L.coset_indices(x) for x in table.a]
    non_generating = list(reps)
    non_generating[5] = next((x, y) for x in cosets[0] for y in cosets[1]
                             if reg.mask_of((x, y)))
    return {"reps": reps, "duplicated": reps + [reps[4]],
            "x_image": x_image, "non_generating": non_generating,
            "dropped": reps[:11] + reps[12:]}


@pytest.fixture(scope="module")
def a5_t3_reps(A5m):
    """The 1,668 orbit representatives of A5 at t = 3."""
    return list(delta_Lt(A5m, 3)[1].reps)


class TestSubdirectLemma:
    """``columns_generate`` against the stabilizer-chain oracle."""

    @pytest.mark.parametrize("name", ["A5", "S5"])
    def test_orbit_witness_generates(self, witnesses, name):
        L, table = witnesses[name]
        assert len(table.reps) == 19
        assert lemma_and_chain(L, table.reps) == (True, True)

    @pytest.mark.parametrize("name", ["A5", "S5"])
    def test_duplicated_column_fails(self, witnesses, name):
        L, table = witnesses[name]
        columns = lemma_cases(L, table)["duplicated"]
        assert lemma_and_chain(L, columns) == (False, False)

    @pytest.mark.parametrize("name", ["A5", "S5"])
    def test_x_image_column_fails(self, witnesses, name):
        L, table = witnesses[name]
        columns = lemma_cases(L, table)["x_image"]
        assert columns[7] != columns[2]
        assert lemma_and_chain(L, columns) == (False, False)

    @pytest.mark.parametrize("name", ["A5", "S5"])
    def test_non_generating_column_fails_at_i(self, witnesses, name):
        L, table = witnesses[name]
        columns = lemma_cases(L, table)["non_generating"]
        assert lemma_and_chain(L, columns) == (False, False)

    @pytest.mark.parametrize("name", ["A5", "S5"])
    def test_dropped_column_still_generates(self, witnesses, name):
        L, table = witnesses[name]
        columns = lemma_cases(L, table)["dropped"]
        assert lemma_and_chain(L, columns) == (True, True)

    def test_large_witness_matches_pairwise_reference(self, A5m, a5_t3_reps):
        # k = 1,668 is out of reach of a chain on L_k.  A certificate
        # missing one entry's column still separates the 19 or 57 orbits
        # at t = 2, but merges some of these.
        assert len(a5_t3_reps) == 1668
        assert columns_generate(A5m, a5_t3_reps)
        assert pairwise_columns_generate(A5m, a5_t3_reps)

    @pytest.mark.parametrize("kind", ["duplicated", "x_image", "inner"])
    def test_large_clash_matches_pairwise_reference(self, A5m, a5_t3_reps,
                                                    kind):
        ct = A5m.ct()
        g = ct.gen_indices[0]
        images = {
            "duplicated": list(range(ct.n)),
            "x_image": A5m.x_group[1].tolist(),
            "inner": [ct.table[ct.table[ct.inv[g]][x]][g]
                      for x in range(ct.n)],
        }[kind]
        columns = list(a5_t3_reps)
        columns[900] = tuple(images[x] for x in columns[300])
        assert columns_generate(A5m, columns) is False
        assert pairwise_columns_generate(A5m, columns) is False

    def test_certificate_reads_no_registry_or_aut_kernel(self, witnesses,
                                                          monkeypatch):
        # the cases and the reference verdicts need the registry and the
        # Aut search, so they are built before both are closed off
        cases = [(L, columns, pairwise_columns_generate(L, columns))
                 for L, table in witnesses.values()
                 for columns in lemma_cases(L, table).values()]
        assert {want for _, _, want in cases} == {True, False}

        def refuse(*args, **kwargs):
            raise AssertionError("the witness check reached a kernel "
                                 "that built the witness")

        monkeypatch.setattr(SubgroupRegistry, "incidence_rows", refuse)
        monkeypatch.setattr(crown_powers, "registry_for", refuse)
        for name in ("_bfs_schedule", "_extend_map", "_respects_generators"):
            monkeypatch.setattr(automorphisms, name, refuse)
        private = [name for name, value in vars(crown_powers).items()
                   if name.startswith("_") and getattr(
                       value, "__module__", None) == automorphisms.__name__]
        assert private == []
        for L, columns, want in cases:
            assert columns_generate(L, columns) == want

    def test_rejects_columns_outside_crown_power(self, witnesses):
        L, table = witnesses["S5"]
        odd = next(x for x in range(L.ct().n)
                   if x not in L.socle_indices)
        even = L.ct().identity
        columns = [(odd, odd), (odd, even)]
        with pytest.raises(PreconditionError):
            columns_generate(L, columns)

    @pytest.mark.parametrize("name", ["A5", "S5"])
    def test_random_columns_agree(self, witnesses, name):
        # columns drawn from Omega, as X-images of an earlier column, or
        # as arbitrary coset tuples (often not generating)
        L, table = witnesses[name]
        X = L.x_group.tolist()
        cosets = [L.coset_indices(x) for x in table.a]
        omega = list(map(tuple, table.tuples.tolist()))
        in_omega = set(omega)
        rng = random.Random(29)
        verdicts = set()
        for _ in range(90):
            columns = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.randrange(3)
                if kind == 0 or not columns:
                    columns.append(rng.choice(omega))
                elif kind == 1:
                    alpha = rng.choice(X)
                    columns.append(tuple(alpha[x]
                                         for x in rng.choice(columns)))
                else:
                    columns.append(tuple(rng.choice(c) for c in cosets))
            lemma, chain = lemma_and_chain(L, columns)
            assert lemma == chain, columns
            generating = all(c in in_omega for c in columns)
            verdicts.add((len(columns) > 1 and generating, lemma))
        # both verdicts, and a (ii) failure among generating columns
        assert verdicts >= {(True, True), (True, False), (False, False)}


def random_square_pairs(ct, rng) -> list:
    """Generators of a seeded random subgroup of L x L: random pairs,
    a diagonal {(x, x^z)}, the product of two cyclic groups, or a
    diagonal with one random pair added."""
    kind = rng.randrange(4)
    xs = [rng.randrange(ct.n) for _ in range(rng.randint(1, 3))]
    if kind == 0:
        return [(x, rng.randrange(ct.n)) for x in xs]
    if kind == 2:
        return [(xs[0], ct.identity), (ct.identity, rng.randrange(ct.n))]
    z = rng.randrange(ct.n)
    pairs = [(x, ct.conj(x, z)) for x in xs]
    if kind == 3:
        pairs.append((rng.randrange(ct.n), rng.randrange(ct.n)))
    return pairs


class TestSquareOrder:
    """``square_order`` against a stabilizer chain of degree 2 deg(L)."""

    @pytest.mark.parametrize("entry", [symmetric(4), alternating(5),
                                       symmetric(5), psl2(7)],
                             ids=["S4", "A5", "S5", "PSL(2,7)"])
    def test_exact_orders_of_random_subgroups(self, entry):
        G = entry.group()
        ct = G.cayley_table()
        full = G.order ** 2
        rng = random.Random(31)
        orders = set()
        for _ in range(80):
            pairs = random_square_pairs(ct, rng)
            chain = StabilizerChain(2 * G.degree, [
                _from_coordinates([ct.perm(x), ct.perm(y)]) for x, y in pairs])
            got = square_order(ct, pairs)
            assert got == chain.order(), pairs
            orders.add(got)
            for target in (full, got, got + 1):
                assert (square_order(ct, pairs, target) >= target) == \
                    (got >= target), (pairs, target)
        # small, diagonal-sized and full subgroups all occur
        assert min(orders) < G.order and G.order in orders and full in orders

    def test_products_and_diagonals(self, A5):
        ct = A5.cayley_table()
        e = ct.identity
        x, y = ct.index[cyc(5, [0, 1, 2]).images], \
            ct.index[cyc(5, [0, 1, 2, 3, 4]).images]
        assert square_order(ct, []) == 1
        assert square_order(ct, [(x, e), (e, y)]) == 15
        assert square_order(ct, [(x, x), (y, y)]) == 60
        assert square_order(ct, [(x, x), (y, y), (x, e)]) == 3600

    def test_kernel_grows_by_the_registry_closure(self, A5, monkeypatch):
        ct = A5.cayley_table()
        e = ct.identity
        x, y = ct.index[cyc(5, [0, 1, 2]).images], \
            ct.index[cyc(5, [0, 1, 2, 3, 4]).images]
        calls = []
        close = SubgroupRegistry.close

        def counted(reg, sid, z):
            calls.append(z)
            return close(reg, sid, z)

        monkeypatch.setattr(SubgroupRegistry, "close", counted)
        assert square_order(ct, [(x, x), (y, y), (x, e)]) == 3600
        assert calls

    def test_kernel_of_half_the_group(self, S5):
        # K = A5 has order |S5|/2, the Lagrange boundary of the closure
        ct = S5.cayley_table()
        c5, t, c3 = (ct.index[cyc(5, c).images]
                     for c in ([0, 1, 2, 3, 4], [0, 1], [0, 1, 2]))
        pairs = [(c5, c5), (t, t), (ct.identity, c3)]
        chain = StabilizerChain(2 * S5.degree, [
            _from_coordinates([ct.perm(x), ct.perm(y)]) for x, y in pairs])
        assert square_order(ct, pairs) == chain.order() == 7200
        for target in (7200, 7201, 14400):
            assert (square_order(ct, pairs, target) >= target) == \
                (7200 >= target), target

    def test_shared_trees_match_uncached_calls(self, A5m):
        # the 600 instances of `verify --lemma primo` with 100 random
        # samples and a slice of 500 at seed 1, as the crown benchmark
        # runs it; the cache is filled and read in that order
        ct = A5m.ct()
        tbl = ct.table
        a = delta_Lt(A5m, 2)[1].a
        target = build_crown_power(A5m, 2).order
        socle = A5m.socle_indices
        rng = random.Random(1)
        instances = [[tuple(rng.choice(socle) for _ in range(2))
                      for _ in range(2)] for _ in range(100)]
        instances += [[combo[:2], combo[2:]] for combo in itertools.islice(
            itertools.product(socle, repeat=4), 500)]
        trees = {}
        verdicts = set()
        for rows in instances:
            pairs = [(tbl[x][m1], tbl[x][m2]) for x, (m1, m2) in zip(a, rows)]
            got = square_order(ct, pairs, target, trees)
            assert got == square_order(ct, pairs, target), rows
            assert square_order(ct, pairs, 0, trees) == \
                square_order(ct, pairs), rows
            verdicts.add(got >= target)
        assert verdicts == {True, False}
        assert len(trees) < len(instances)


class TestOmegaTable:
    def test_a5_pair_count(self, A5m):
        # 2280 generating pairs frozen from the exhaustive join oracle
        delta, table = delta_Lt(A5m, 2)
        assert len(table.tuples) == 2280
        assert delta == 19

    def test_tuples_stay_in_omega_under_x(self, A5m):
        _, table = delta_Lt(A5m, 2)
        omega = set(map(tuple, table.tuples.tolist()))
        for g in A5m.x_group.tolist():
            for tup in table.tuples[:200].tolist():
                assert tuple(g[x] for x in tup) in omega

    def test_orbit_count_independent_of_tuple(self, A5m):
        ct = A5m.ct()
        reg = registry_for(A5m.group)
        rng = random.Random(8)
        counts = set()
        tried = 0
        while len(counts) < 3 and tried < 200:
            tried += 1
            a = (rng.randrange(60), rng.randrange(60))
            if reg.mask_of(a):
                continue
            counts.add(omega_table(A5m, a).orbit_count)
        assert counts == {19}

    def test_s5_orbit_count_same_for_both_patterns(self, S5m):
        ct = S5m.ct()
        reg = registry_for(S5m.group)
        socle_set = frozenset(S5m.socle_indices)
        odd = [i for i in range(ct.n) if i not in socle_set]
        even = [i for i in range(ct.n) if i in socle_set]
        # (odd, odd) and (odd, even) coset patterns
        counts = set()
        for pool in ((odd, odd), (odd, even)):
            found = None
            for x in pool[0]:
                for y in pool[1]:
                    if not reg.mask_of((x, y)):
                        found = (x, y)
                        break
                if found:
                    break
            counts.add(omega_table(S5m, found).orbit_count)
        assert len(counts) == 1

    @pytest.mark.parametrize("entry, omega, delta, x_order", [
        (alternating(5), 2280, 19, 120), (psl2(7), 19152, 57, 336),
        (symmetric(5), 2280, 19, 120)], ids=["A5", "PSL(2,7)", "S5"])
    def test_counting_identity(self, entry, omega, delta, x_order):
        # X acts freely on generating tuples: |Omega| = delta(L, 2) * |X|
        mono = MonolithicGroup.from_group(entry.group(), entry.id)
        got, table = delta_Lt(mono, 2)
        assert (len(table.tuples), got, len(mono.x_group)) == \
            (omega, delta, x_order)

    def test_counting_identity_violation_raises(self, A5, monkeypatch):
        mono = MonolithicGroup.from_group(A5, "A5")
        # a repeated row leaves the orbits as they are but not |X|
        X = mono.x_group
        monkeypatch.setattr(mono, "x_group", np.concatenate([X, X[:1]]))
        with pytest.raises(RuntimeError, match="orbits"):
            delta_Lt(mono, 2)


class TestDeltaLt:
    def test_at_least_one(self, S5m):
        delta, _ = delta_Lt(S5m, 2)
        assert delta >= 1

    def test_monotone_in_t(self, A5m):
        d2, _ = delta_Lt(A5m, 2)
        d3, _ = delta_Lt(A5m, 3)
        assert d3 >= d2

    def test_t_below_rank_rejected(self, A5m):
        with pytest.raises(PreconditionError):
            delta_Lt(A5m, 1)

    def test_verified_witness_small(self, S5m):
        delta, table = delta_Lt(S5m, 2, verify=True)
        crown = build_crown_power(S5m, delta)
        assert crown_group(crown).order == 2 * 60 ** delta
        assert crown_generates(crown, column_elements(S5m, table.reps))


class TestGenerationViaOrbits:
    def test_eta_one_single_column(self, A5m):
        _, table = delta_Lt(A5m, 2)
        ct = A5m.ct()
        socle = A5m.socle_indices
        rng = random.Random(5)
        cp1 = build_crown_power(A5m, 1)
        for _ in range(50):
            rows = [(rng.choice(socle),), (rng.choice(socle),)]
            pred = generation_via_orbits(table, rows)
            elems = [circ(A5m, ct.perm(table.a[i]), [ct.perm(rows[i][0])])
                     for i in range(2)]
            assert pred == crown_generates(cp1, elems)

    def test_duplicate_columns_fail(self, A5m):
        _, table = delta_Lt(A5m, 2)
        socle = A5m.socle_indices
        rows = [(socle[3], socle[3]), (socle[7], socle[7])]
        assert not generation_via_orbits(table, rows)

    def test_random_agreement_with_direct_oracle(self, witnesses):
        # primo's checks: the orbit criterion, the order of the pair
        # subgroup of L x L and a stabilizer chain in L_2 agree, for
        # L = N (A5) and L != N (S5)
        for name, (L, table) in witnesses.items():
            ct = L.ct()
            tbl = ct.table
            cp = build_crown_power(L, 2)
            socle = L.socle_indices
            rng = random.Random(42)
            verdicts = set()
            for _ in range(200):
                rows = [tuple(rng.choice(socle) for _ in range(2))
                        for _ in range(2)]
                pred = generation_via_orbits(table, rows)
                pairs = [(tbl[a][m1], tbl[a][m2])
                         for a, (m1, m2) in zip(table.a, rows)]
                elems = [circ(L, ct.perm(a), [ct.perm(r) for r in m])
                         for a, m in zip(table.a, rows)]
                assert pred == crown_generates(cp, elems), (name, rows)
                assert pred == (square_order(ct, pairs, cp.order)
                                == cp.order), (name, rows)
                verdicts.add(pred)
            assert verdicts == {True, False}, name


class TestCrownGraph:
    def test_rank_refuses_entries_outside_the_socle(self, S5m):
        _, table = delta_Lt(S5m, 2)
        builder = CrownGraphBuilder(S5m, 2, 2, table=table)
        socle = S5m.socle_indices
        odd = next(x for x in range(S5m.ct().n) if not S5m.socle_mask[x])
        assert builder.rank(1, (socle[2], socle[5])) == 3600 + 2 * 60 + 5
        for correction in [(odd, socle[0]), (socle[0], odd)]:
            with pytest.raises(GroupArgumentError):
                builder.rank(0, correction)

    def test_a5_t3_eta1_vertex_count(self, A5m):
        graph = crown_graph(A5m, 3, 1, drop_isolated=False)
        assert graph.n_vertices == 180

    def test_same_row_never_joined(self, A5m):
        graph = crown_graph(A5m, 3, 1, drop_isolated=False)
        for v, nbrs in enumerate(graph.adjacency):
            for w in nbrs:
                assert graph.labels[v] // 60 != graph.labels[w] // 60

    def test_delta_version_has_no_isolated(self, A5m):
        graph = crown_graph(A5m, 3, 1)
        assert all(graph.adjacency[v] for v in range(graph.n_vertices))

    def test_edges_match_direct_triple_oracle(self, A5m):
        graph = crown_graph(A5m, 3, 1, drop_isolated=False)
        ct = A5m.ct()
        oracle = ClosureOracle(A5m.group)
        adjacency = {(v, w) for v, nbrs in enumerate(graph.adjacency)
                     for w in nbrs}
        rng = random.Random(13)
        labels = graph.labels
        socle = A5m.socle_indices
        for _ in range(300):
            v, w = rng.randrange(180), rng.randrange(180)
            (iv, kv), (iw, kw) = divmod(labels[v], 60), divmod(labels[w], 60)
            if iv == iw:
                expected = False
            else:
                x = ct.table[graph.meta["a"][iv]][socle[kv]]
                y = ct.table[graph.meta["a"][iw]][socle[kw]]
                expected = any(
                    oracle.generates((x, y, z)) for z in range(ct.n))
            assert ((v, w) in adjacency) == expected

    def test_sdr_edges_match_direct_on_eta2(self, A5m):
        # SDR edge test against direct generation in L_2, random vertex pairs
        _, table = delta_Lt(A5m, 3)
        builder = CrownGraphBuilder(A5m, 3, 2, table=table)
        cp = build_crown_power(A5m, 2)
        ct = A5m.ct()
        socle = A5m.socle_indices
        rng = random.Random(21)
        a = builder.a
        for _ in range(40):
            i, j = rng.sample(range(3), 2)
            mi = tuple(rng.choice(socle) for _ in range(2))
            mj = tuple(rng.choice(socle) for _ in range(2))
            got = crown_edge(builder, builder.rank(i, mi), builder.rank(j, mj))
            u = 3 - i - j
            expected = False
            for n1 in socle:
                if expected:
                    break
                for n2 in socle:
                    elems = [circ(A5m, ct.perm(a[i]), [ct.perm(x) for x in mi]),
                             circ(A5m, ct.perm(a[j]), [ct.perm(x) for x in mj]),
                             circ(A5m, ct.perm(a[u]),
                                  [ct.perm(n1), ct.perm(n2)])]
                    if crown_generates(cp, elems):
                        expected = True
                        break
            assert got == expected


class TestSdrBlocks:
    """``_row_block`` on the SDR path, decided for whole arrays of pair
    codes (eta <= 2) or by the matching (eta >= 3), against
    ``crown_edge``, which reads the admissible orbits off a dict and
    applies the pairwise rule ``sdr_exists``."""

    @pytest.fixture(scope="class")
    def tables(self, A5m, S5m):
        """(L, t) -> the orbit table, built once for the class."""
        mono = {"A5": A5m, "S5": S5m, "PSL(2,7)": MonolithicGroup.from_group(
            psl2(7).group(), "PSL(2,7)")}
        memo = {}

        def get(name, t):
            if (name, t) not in memo:
                memo[name, t] = delta_Lt(mono[name], t)[1]
            return memo[name, t]
        return get

    @pytest.mark.parametrize("name, t, eta, n_right", [
        ("A5", 3, 1, None), ("A5", 3, 2, 1500), ("S5", 2, 2, None),
        ("PSL(2,7)", 2, 2, 1500), ("A5", 3, 3, 200)])
    def test_blocks_match_pairwise_rule(self, tables, name, t, eta,
                                        n_right):
        table = tables(name, t)
        builder = CrownGraphBuilder(table.mono, t, eta, table=table)
        rng = random.Random(eta)
        verdicts = set()
        for i, j in itertools.permutations(range(t), 2):
            left = rng.sample(range(builder.size), 3)
            right = builder.keys(j) if n_right is None else \
                rng.sample(range(builder.size), n_right)
            block = builder._row_block(i, j, left, right)
            assert block.shape == (len(left), len(right))
            for k, row in zip(left, block.tolist()):
                assert row == [crown_edge(builder, i * builder.size + k,
                                          j * builder.size + m)
                               for m in right], (i, j, k)
                verdicts |= set(row)
        assert verdicts == {True, False}

    def test_blocks_split_by_rows_agree(self, tables, monkeypatch):
        # one left row at a time gives the blocks of the whole rows
        table = tables("S5", 2)
        builder = CrownGraphBuilder(table.mono, 2, 1, table=table)
        whole = builder._row_block(1, 0, builder.keys(1), builder.keys(0))
        monkeypatch.setattr(crown_powers, "_PAIR_BLOCK", 1)
        assert np.array_equal(
            builder._row_block(1, 0, builder.keys(1), builder.keys(0)), whole)
        assert whole.any() and not whole.all()

    def test_pair_codes_with_one_orbit_each(self, S5m):
        # at t = 2 each pair code has at most one admissible orbit, so the
        # eta = 2 verdict rests on the lone labels
        table = delta_Lt(S5m, 2)[1]
        count, lone, starts, members = table.projection(0, 1)
        assert count.max() == 1 and len(members) == len(table.tuples)
        assert np.array_equal(lone[count == 1], members)
        assert (lone[count == 0] == -1).all()
        assert np.array_equal(np.diff(starts), count)


class TestWeakConnectivity:
    def test_a5_t3_eta1_passes(self, A5m):
        rep = weak_connectivity(A5m, 3, 1)
        assert rep.passed
        assert rep.n_components == 1
        # connected graph: the identity conjugator suffices everywhere
        for row in rep.rows:
            assert set(row.witness_depths) == {0}

    def test_failed_vertices_record_no_depth(self, A5m):
        # label the vertex a_i . c by the order of a_i c, which
        # conjugation keeps: each row has four components, and no
        # conjugator joins a vertex to all of them
        builder = CrownGraphBuilder(A5m, 2, 1)
        tbl, order_of = builder.ct.table, builder.ct.order_of
        comp_of = [order_of[tbl[a][c]] for a in builder.a
                   for (c,) in builder.corrections]
        rep = _exhaustive_report(builder, comp_of)
        assert not rep.passed
        for row in rep.rows:
            assert (row.vertices, row.components, row.passed,
                    row.witness_depths) == (60, 4, False, {})

    def test_seeded_triples_pass(self, A5m):
        reg = registry_for(A5m.group)
        rng = random.Random(17)
        done = 0
        while done < 2:
            a = tuple(rng.randrange(60) for _ in range(3))
            if reg.mask_of(a):
                continue
            done += 1
            assert weak_connectivity(A5m, 3, 1, a=a).passed

    def test_tuple_of_the_wrong_length_is_refused(self, A5m):
        a = default_generating_tuple(A5m, 2)
        with pytest.raises(GroupArgumentError, match="t = 3"):
            weak_connectivity(A5m, 3, 1, a=a)

    def test_tuple_other_than_the_tables_is_refused(self, S5m):
        # the table's tuples are columns over its own a: read against
        # another a, no vertex would be joined
        _, table = delta_Lt(S5m, 2)
        assert table.a != (1, 33)
        assert not registry_for(S5m.group).mask_of((1, 33))
        with pytest.raises(GroupArgumentError, match="orbit table"):
            weak_connectivity(S5m, 2, 1, a=(1, 33), table=table)
        assert weak_connectivity(S5m, 2, 1, a=table.a, table=table) == \
            weak_connectivity(S5m, 2, 1, table=table)


class TestSampledWeakConnectivity:
    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)"])
    def test_matches_pairwise_oracle_at_t2(self, name):
        base = alternating(5) if name == "A5" else psl2(7)
        L = MonolithicGroup.from_group(base.group(), name)
        _, table = delta_Lt(L, 2)
        for seed in range(3):
            got = weak_connectivity_sampled(L, 2, 1, table, seed=seed)
            assert got == pairwise_sampled_weak_connectivity(
                L, 2, 1, table, seed=seed), seed
            assert got.rows[0].vertices == 60

    def test_search_matches_oracle_on_a_sparse_graph(self, A5m,
                                                      monkeypatch):
        # a seeded sparse graph stands in for the crown-graph edges, so
        # that pairs need a conjugator or a path of length 3, or fail
        _, table = delta_Lt(A5m, 3)
        rng = random.Random(5)
        edges = {(v, w) for v in range(180)
                 for w in range(60 * (v // 60 + 1), 180)
                 if rng.random() < 0.02}

        def row_block(builder, i, j, left, right):
            # the keys of the SDR path are the correction indices
            ranks = [j * builder.size + k for k in right]
            return np.array([[(min(r, s), max(r, s)) in edges for s in ranks]
                             for r in (i * builder.size + k for k in left)],
                            dtype=bool)

        monkeypatch.setattr(CrownGraphBuilder, "_row_block", row_block)
        monkeypatch.setattr(oracles, "crown_edge",
                            lambda builder, r, s: (min(r, s), max(r, s))
                            in edges)
        depths = set()
        for seed in range(3):
            got = weak_connectivity_sampled(A5m, 3, 1, table, seed=seed)
            assert got == pairwise_sampled_weak_connectivity(
                A5m, 3, 1, table, seed=seed), seed
            depths |= set(got.rows[0].witness_depths)
        assert len(depths) > 1

    def test_one_vertex_against_a_row_matches_pairwise_edges(self, S5m):
        # the sampled check asks for one vertex against each other row, in
        # both row orders; at eta = 2 the SDR test matches two columns.
        # An odd and an even row: a key in the wrong row order falls
        # outside the orbit table.
        odd = default_generating_tuple(S5m, 2)[0]
        assert odd not in S5m.socle_indices
        reg = registry_for(S5m.group)
        a = (odd, next(x for x in S5m.socle_indices
                       if not reg.mask_of((odd, x))))
        table = omega_table(S5m, a)
        builder = CrownGraphBuilder(S5m, 2, 2, a=a, table=table)
        C = builder.corrections
        rng = random.Random(8)
        verdicts = set()
        for i, j in ((0, 1), (1, 0)):
            for k in rng.sample(range(len(C)), 3):
                c = C[k]
                row = builder._row_block(i, j, [k], builder.keys(j))[0].tolist()
                assert row == [
                    crown_edge(builder, builder.rank(i, c), builder.rank(j, e))
                    for e in C]
                verdicts |= set(row)
        assert verdicts == {True, False}


class TestCrownEdgeStream:
    """The class graph shared by crown_graph and weak_connectivity.

    The direct-completion path (no orbit table) and the SDR path (with the
    table) decide edges independently; both must give the counts of the
    Delta graph built from the class graph, and its edges must be those
    of the predicate, each listed once.
    """

    @staticmethod
    def check_stream(builder):
        expected = pairwise_edges(builder)
        streamed = class_graph_edges(builder)
        assert len(set(streamed)) == len(streamed)
        assert sorted(streamed) == expected

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)"])
    def test_direct_and_sdr_paths_agree_at_t2(self, name):
        base = alternating(5) if name == "A5" else psl2(7)
        L = MonolithicGroup.from_group(base.group(), name)
        _, table = delta_Lt(L, 2)
        direct = weak_connectivity(L, 2, 1)
        sdr = weak_connectivity(L, 2, 1, table=table)
        graph = crown_graph(L, 2, 1, drop_isolated=True)
        counts = (graph.n_vertices, components(graph).count)
        assert (direct.n_non_isolated, direct.n_components) == counts
        assert (sdr.n_non_isolated, sdr.n_components) == counts
        assert graph.n_edges > 0
        self.check_stream(CrownGraphBuilder(L, 2, 1, table=table))

    def test_direct_path_at_t3(self, A5m):
        rep = weak_connectivity(A5m, 3, 1)
        graph = crown_graph(A5m, 3, 1, drop_isolated=True)
        assert (rep.n_non_isolated, rep.n_components) == \
            (graph.n_vertices, components(graph).count)
        self.check_stream(CrownGraphBuilder(A5m, 3, 1))

    def test_vertex_cap_is_checked_before_corrections_are_built(self, A5m):
        # 2 * 60^3 vertices over a cap of 10^5: the cap refuses before C
        # is enumerated (an eager C at eta = 5 would hold 60^5 tuples)
        _, table = delta_Lt(A5m, 2)
        builder = CrownGraphBuilder(A5m, 2, 3, table=table)
        assert builder.size == 60 ** 3
        with caps(max_elements=10**5), pytest.raises(CapExceededError):
            builder.class_graph()
        assert "corrections" not in vars(builder)
        with caps(max_elements=10**5), pytest.raises(CapExceededError):
            weak_connectivity(A5m, 2, 3, table=table)
        # the sampled check reads C too, so it obeys the same cap
        with caps(max_elements=10**5), pytest.raises(CapExceededError):
            weak_connectivity_sampled(A5m, 2, 3, table)
        with caps(max_elements=1000), pytest.raises(CapExceededError):
            weak_connectivity_sampled(A5m, 2, 2, table)


class TestPartitions:
    """``meet_is_single_block`` against the union-find of ``meet_blocks``."""

    def test_single_column(self, A5m):
        _, table = delta_Lt(A5m, 2)
        assert meet_is_single_block(table, [table.reps[0]])
        assert meet_blocks(table, [table.reps[0]]) == 1

    def test_same_orbit_entries_share_part(self, A5m):
        # two columns are linked iff some row holds entries of one X-orbit
        _, table = delta_Lt(A5m, 3)
        labels = A5m.element_orbit_labels
        rng = random.Random(4)
        verdicts = set()
        for _ in range(40):
            c1, c2 = rng.sample(table.reps, 2)
            linked = any(labels[x] == labels[y] for x, y in zip(c1, c2))
            assert meet_is_single_block(table, [c1, c2]) == linked
            verdicts.add(linked)
        assert verdicts == {True, False}

    def test_meet_convention(self, A5m):
        # row partitions {01|2} and {0|12} meet in one block (the finest
        # common coarsening); discrete rows stay three blocks
        _, table = delta_Lt(A5m, 2)
        labels = A5m.element_orbit_labels

        def keys(cols):
            out = []
            for i in range(2):
                first = {}
                out.append([first.setdefault(labels[c[i]], len(first))
                            for c in cols])
            return out

        def find(want):
            return next(list(cols) for cols in
                        itertools.combinations(table.reps, 3)
                        if keys(cols) == want)

        assert meet_is_single_block(table, find([[0, 0, 1], [0, 1, 1]]))
        apart = find([[0, 1, 2], [0, 1, 2]])
        assert not meet_is_single_block(table, apart)
        assert meet_blocks(table, apart) == 3

    @pytest.mark.parametrize("t", [2, 3])
    def test_matches_union_find_oracle(self, A5m, t):
        # full width (delta columns) and 60 seeded subsets of 1-6 columns
        delta, table = delta_Lt(A5m, t)
        assert meet_is_single_block(table) == (meet_blocks(table,
                                                           table.reps) == 1)
        rng = random.Random(t)
        verdicts = set()
        for _ in range(60):
            cols = rng.sample(table.reps, rng.randint(1, 6))
            got = meet_is_single_block(table, cols)
            assert got == (meet_blocks(table, cols) == 1), cols
            verdicts.add(got)
        assert verdicts == {True, False}


class TestDelu:
    def test_identity_case_exact_fraction(self, A5m):
        # Omega(1; b1, b2) counts generating pairs: 2280/3600 = 19/30
        b = [cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2, 3, 4])]
        frac = delu_fraction(A5m, Permutation.identity(5), b)
        assert frac == Fraction(19, 30)
        assert frac >= Fraction(53, 90)

    def test_five_cycle_fraction(self, A5m):
        b = [cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2, 3, 4])]
        frac = delu_fraction(A5m, cyc(5, [0, 1, 2, 3, 4]), b)
        assert frac >= Fraction(53, 90)

    def test_precondition_rejected(self, A5m):
        with pytest.raises(PreconditionError):
            delu_fraction(A5m, Permutation.identity(5),
                          [cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2])])


class TestClnWitness:
    @pytest.mark.parametrize("group_id, witness", [
        ("A5", lambda ct, socle: (ct.identity, ct.identity)),
        ("S5", lambda ct, socle: (min(set(range(ct.n)) - set(socle)),) * 2),
        ("A5", lambda ct, socle: (-1, -1)),
    ], ids=["not-commuting", "outside-socle", "exhausted"])
    def test_verify_cln_checks_the_witness(self, monkeypatch, group_id,
                                           witness):
        from rankgraph import verify
        mono = verify._mono(group_id)
        ct = mono.ct()
        wrong = witness(ct, mono.socle_indices)

        def wrong_rows(G, rows):
            a, b, n, m = cln_witness(G, rows)
            return a, b, np.full_like(n, wrong[0]), np.full_like(m, wrong[1])

        monkeypatch.setattr(verify, "cln_witness", wrong_rows)
        rep = verify.verify_cln(group_ids=(group_id,))
        assert not rep.passed
        # failures hold Python ints, so --out can write them
        json.dumps(rep.to_dict())
        if wrong == (-1, -1):
            # an exhausted search is the bare pair, as for a theorem violation
            assert len(rep.failures) == rep.instances
            b0 = int(cln_witness(mono, [0])[1][0])
            assert rep.failures[0] == {"group": group_id, "a": 0, "b": b0}
            assert all(set(f) == {"group", "a", "b"} for f in rep.failures)
            return
        assert rep.failures[0]["witness"] == wrong
        if group_id == "A5":
            # a pair that commutes is not a failure with (1, 1)
            assert len(rep.failures) < rep.instances

    @pytest.mark.parametrize("group_id",
                             ["A5", "S5", "PSL(2,7)", "PGL(2,7)"])
    def test_rows_match_the_pair_oracle(self, group_id):
        # one call for every row: PSL(2,7) and PGL(2,7) cross several
        # row blocks
        from rankgraph import verify
        mono = verify._mono(group_id)
        a, b, n, m = cln_witness(mono, range(mono.ct().n))
        assert {x.dtype for x in (a, b, n, m)} == {np.dtype(np.int32)}
        pairs = list(zip(a.tolist(), b.tolist()))
        assert pairs == sorted(set(pairs))
        got = {p: (y, z) for p, y, z in zip(pairs, n.tolist(), m.tolist())}
        assert got == oracles.cln_pair_witnesses(mono)

    def test_rows_of_a_call_need_not_be_whole_blocks(self):
        from rankgraph import verify
        mono = verify._mono("PSL(2,7)")
        n_rows = mono.ct().n
        whole = cln_witness(mono, range(n_rows))
        block = crown_powers._CLN_ROWS
        for rows in ([5], list(range(3, 3 + block + 7)),
                     [n_rows - 1, 0, 77, 2, 76], []):
            got = cln_witness(mono, rows)
            want = [np.concatenate([col[whole[0] == r] for r in rows])
                    if rows else col[:0] for col in whole]
            for x, y in zip(got, want):
                assert np.array_equal(x, y), rows

    def test_commuting_pair_gets_identities(self, S5m):
        ct = S5m.ct()
        a = ct.index[cyc(5, [0, 1, 2]).images]
        _, b, n, m = cln_witness(S5m, [a])
        k = list(b).index(ct.table[a][a])
        assert n[k] == m[k] == ct.identity

    def test_sample_pairs_s5(self, S5m):
        ct = S5m.ct()
        rng = random.Random(6)
        els = S5m.group.elements()
        for _ in range(60):
            a, b = rng.choice(els), rng.choice(els)
            _, row_b, row_n, row_m = cln_witness(S5m, [ct.index[a.images]])
            # S5 / A5 is abelian, so every b is in the row of a
            k = list(row_b).index(ct.index[b.images])
            n, m = ct.perm(int(row_n[k])), ct.perm(int(row_m[k]))
            assert S5m.socle.contains(n) and S5m.socle.contains(m)
            an, bm = a * n, b * m
            assert an * bm == bm * an

    def test_elements_outside_group_rejected(self, A5m):
        for rows in ([-1], [A5m.ct().n], [0, A5m.ct().n], [[0]]):
            with pytest.raises(PreconditionError):
                cln_witness(A5m, rows)


class TestUnicoRank:
    def test_a5_random_triples(self, A5m):
        rng = random.Random(14)
        els = A5m.group.elements()
        reg = registry_for(A5m.group)
        checked = 0
        while checked < 40:
            b = [rng.choice(els) for _ in range(3)]
            try:
                ok = unico_rank_check(A5m, 3, b)
            except PreconditionError:
                continue
            checked += 1
            assert ok

    def test_s5_requires_socle_covering(self, S5m):
        with pytest.raises(PreconditionError):
            unico_rank_check(S5m, 3, [Permutation.identity(5)] * 3)
