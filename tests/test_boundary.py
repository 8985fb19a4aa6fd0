"""The boundary between callers and the Cayley table: permutations and
element indices that name no element of the group are refused with a
``PreconditionError`` naming them."""

import re

import pytest

from rankgraph import GroupArgumentError, Permutation, PreconditionError
from rankgraph.catalog import alternating, default_catalog
from rankgraph.crown_powers import (
    CrownGraphBuilder,
    MonolithicGroup,
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
)
from rankgraph.group_structure import (
    d_X,
    gaschutz_lift,
    registry_for,
    socle,
)
from rankgraph.perm_core import (
    PermutationGroup,
    quotient,
    subgroup_from_members,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, *cycles)


@pytest.fixture(scope="module")
def A4():
    return alternating(4).group()


@pytest.fixture(scope="module")
def V4(A4):
    return PermutationGroup(4, [cyc(4, [0, 1], [2, 3]),
                                cyc(4, [0, 2], [1, 3])])


@pytest.fixture(scope="module")
def A5m(A5):
    return MonolithicGroup(A5)


@pytest.fixture(scope="module")
def S5m(S5):
    return MonolithicGroup(S5)


@pytest.fixture(scope="module")
def A5_table2(A5m):
    return delta_Lt(A5m, 2)[1]


class TestIndices:
    def test_indices_follow_the_given_order(self, A5):
        ct = A5.cayley_table()
        assert ct.indices(reversed(ct.elements)) == list(range(ct.n))[::-1]
        assert ct.indices([]) == []

    def test_outside_the_group_is_named(self, A5):
        ct = A5.cayley_table()
        with pytest.raises(PreconditionError,
                           match=r"^\(0 1\) lies outside the group$"):
            ct.indices([Permutation.identity(5), cyc(5, [0, 1])])
        with pytest.raises(PreconditionError, match=re.escape(
                "(0 1 2) of degree 6 lies outside the group")):
            ct.indices([cyc(6, [0, 1, 2])])
        assert issubclass(PreconditionError, GroupArgumentError)


def small_catalog():
    return [e for e in default_catalog() if e.group().order <= 360]


@pytest.mark.parametrize("entry", small_catalog(), ids=lambda e: e.id)
def test_subgroup_indices_ascend(entry):
    # a subgroup's elements come in the order of their image tuples, the
    # order of the element indices; each maximal subgroup is rebuilt
    # from generators so that its element list is enumerated afresh
    G = entry.group()
    reg = registry_for(G)
    ct = reg.ct
    subgroups = [socle(G)]
    for members in reg.maximal_subgroups():
        H = subgroup_from_members(
            G.degree, [ct.perm(i) for i in sorted(members)])
        subgroups.append(PermutationGroup(G.degree, H.generators))
    for H in subgroups:
        idx = ct.indices(H.elements())
        assert idx == sorted(idx)
    assert [sorted(m) for m in reg.maximal_subgroups()] == \
        [ct.indices(H.elements()) for H in subgroups[1:]]
    G.release_dense_caches()


# ---------------------------------------------------------------------------
# permutation-taking entry points: (0 1) lies outside A4 and A5, and
# (0 1 2) of one degree more lies outside both as well


def outsiders(degree):
    return [(cyc(degree, [0, 1]), r"^\(0 1\) lies outside the group$"),
            (cyc(degree + 1, [0, 1, 2]),
             rf"^\(0 1 2\) of degree {degree + 1} lies outside the group$")]


@pytest.mark.parametrize("k", [0, 1], ids=["outside", "other-degree"])
class TestEntryPoints:
    def test_d_x(self, A4, k):
        bad, message = outsiders(4)[k]
        with pytest.raises(PreconditionError, match=message):
            d_X(A4, [cyc(4, [0, 1, 2]), bad])

    def test_gaschutz_lift(self, A4, V4, k):
        bad, message = outsiders(4)[k]
        with pytest.raises(PreconditionError, match=message):
            gaschutz_lift(A4, V4, [], [bad])
        with pytest.raises(PreconditionError, match=message):
            gaschutz_lift(A4, V4, [bad], [cyc(4, [0, 1, 2])])

    def test_quotient_projection(self, A4, V4, k):
        bad, message = outsiders(4)[k]
        _, project = quotient(A4, V4)
        with pytest.raises(PreconditionError, match=message):
            project(bad)

    def test_delu_fraction(self, A5m, k):
        bad, message = outsiders(5)[k]
        b = [cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2, 3, 4])]
        with pytest.raises(PreconditionError, match=message):
            delu_fraction(A5m, bad, b)
        with pytest.raises(PreconditionError, match=message):
            delu_fraction(A5m, Permutation.identity(5), [b[0], bad])

    def test_unico_rank_check(self, A5m, k):
        bad, message = outsiders(5)[k]
        b = [cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2, 3, 4]), bad]
        with pytest.raises(PreconditionError, match=message):
            unico_rank_check(A5m, 3, b)


# ---------------------------------------------------------------------------
# element-index inputs: a negative index must not wrap round to the end
# of the table, and one past it must not leak an IndexError


def bad_indices(L):
    return [-1, L.ct().n]


class TestElementIndexInputs:
    @pytest.mark.parametrize("k", [0, 1], ids=["negative", "past-end"])
    def test_omega_table(self, A5m, k):
        a = list(default_generating_tuple(A5m, 2))
        a[k] = bad_indices(A5m)[k]
        with pytest.raises(PreconditionError, match="a must be element"):
            omega_table(A5m, a)

    @pytest.mark.parametrize("a", [(-1, -2, -3), (0, 1, 60)])
    def test_weak_connectivity_row_tuple(self, A5m, a):
        with pytest.raises(PreconditionError, match="a must be element"):
            weak_connectivity(A5m, 3, 1, a=a)

    @pytest.mark.parametrize("k", [0, 1], ids=["negative", "past-end"])
    def test_columns_generate(self, A5m, k):
        _, table = delta_Lt(A5m, 2)
        columns = [list(c) for c in table.reps]
        assert columns_generate(A5m, columns)
        columns[0][0] = bad_indices(A5m)[k]
        with pytest.raises(PreconditionError,
                           match="column entries must be element"):
            columns_generate(A5m, columns)

    def test_crown_graph_rank(self, S5m):
        builder = CrownGraphBuilder(S5m, 2, 1)
        odd = next(x for x in range(S5m.ct().n) if not S5m.socle_mask[x])
        assert builder.rank(1, (S5m.socle_indices[3],)) == builder.size + 3
        for x in bad_indices(S5m) + [odd]:
            with pytest.raises(PreconditionError,
                               match=f"^{x} is not a socle element index$"):
                builder.rank(0, (x,))

    def test_generation_via_orbits(self, S5m):
        _, table = delta_Lt(S5m, 2)
        socle_ = S5m.socle_indices
        odd = next(x for x in range(S5m.ct().n) if not S5m.socle_mask[x])
        for x in bad_indices(S5m) + [odd]:
            with pytest.raises(PreconditionError,
                               match=f"^{x} is not a socle element index$"):
                generation_via_orbits(table, [(socle_[1],), (x,)])

    def test_meet_is_single_block(self, A5m, A5_table2):
        assert meet_is_single_block(A5_table2, [(0, 1), (0, 2)])
        for x in bad_indices(A5m):
            with pytest.raises(PreconditionError,
                               match="column entries must be element"):
                meet_is_single_block(A5_table2, [(x, 0), (1, 2)])

    def test_square_order(self, A5m):
        ct = A5m.ct()
        assert square_order(ct, [(59, 3), (5, 58)]) == 600
        for pairs in ([(-1, 3), (5, -2)], [(59, -1)], [(600, 3)],
                      [(1, 2), (3, 60)]):
            with pytest.raises(PreconditionError,
                               match="pairs must be element"):
                square_order(ct, pairs)


class TestCrownVertexInputs:
    """A row, rank or tuple of the wrong size names no vertex of the
    crown graph: A5, t = 2, eta = 2."""

    @pytest.fixture(scope="class")
    def builder(self, A5m, A5_table2):
        return CrownGraphBuilder(A5m, 2, 2, table=A5_table2)

    @pytest.mark.parametrize("row", [-1, 2, 7, True, 0.5])
    def test_rank_refuses_a_row_outside_the_graph(self, builder, A5m, row):
        s = A5m.socle_indices
        assert builder.rank(1, (s[0], s[1])) == builder.size + 1
        with pytest.raises(PreconditionError, match="row must be in 0 to 1"):
            builder.rank(row, (s[0], s[1]))

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_rank_refuses_a_correction_of_another_length(
            self, builder, A5m, length):
        s = A5m.socle_indices
        with pytest.raises(GroupArgumentError,
                           match="^tuple length is not eta = 2$") as raised:
            builder.rank(0, tuple(s[1:1 + length]))
        assert not isinstance(raised.value, PreconditionError)

    @pytest.mark.parametrize("length", [1, 3])
    def test_conjugate_refuses_a_conjugator_of_another_length(
            self, builder, A5m, length):
        s = A5m.socle_indices
        with pytest.raises(GroupArgumentError,
                           match="^tuple length is not eta = 2$") as raised:
            builder.conjugate(builder.size + 5, tuple(s[2:2 + length]))
        assert not isinstance(raised.value, PreconditionError)

    @pytest.mark.parametrize("x", [-1, 60, True, 2.5])
    def test_conjugate_refuses_an_entry_outside_the_socle(
            self, builder, A5m, x):
        s = A5m.socle_indices
        with pytest.raises(PreconditionError,
                           match="is not a socle element index$"):
            builder.conjugate(builder.size + 5, (s[2], x))

    @pytest.mark.parametrize("r", [-1, 2 * 60 ** 2, 10 ** 5])
    def test_conjugate_refuses_a_rank_outside_the_graph(
            self, builder, A5m, r):
        s = A5m.socle_indices
        last = builder.rank(1, (s[-1], s[-1]))
        assert builder.conjugate(last, (s[0], s[0])) == last
        with pytest.raises(PreconditionError, match="row must be in 0 to 1"):
            builder.conjugate(r, (s[2], s[3]))

    @pytest.mark.parametrize("r", [True, False])
    def test_conjugate_refuses_a_bool_rank(self, builder, A5m, r):
        # True named the vertex of rank 1, False that of rank 0
        s = A5m.socle_indices
        with pytest.raises(PreconditionError,
                           match="^r must be a vertex rank, 0 to 7199"):
            builder.conjugate(r, (s[0], s[0]))

    @pytest.mark.parametrize("columns", [[(0, 1, 2), (1, 2, 3)], [(0,)],
                                         [(0, 1), (1, 2, 3)]],
                             ids=["long", "short", "ragged"])
    def test_meet_refuses_columns_of_another_length(self, A5_table2,
                                                    columns):
        with pytest.raises(GroupArgumentError,
                           match="columns must have t = 2 entries") as raised:
            meet_is_single_block(A5_table2, columns)
        assert not isinstance(raised.value, PreconditionError)

    @pytest.mark.parametrize("pairs", [[(3,)], [(1, 2), (3, 4, 5)], [()]],
                             ids=["short", "long", "empty"])
    def test_square_order_refuses_pairs_of_another_length(self, A5m, pairs):
        with pytest.raises(GroupArgumentError,
                           match="pairs must have 2 entries") as raised:
            square_order(A5m.ct(), pairs)
        assert not isinstance(raised.value, PreconditionError)


# an index of another dtype is refused, not truncated: a float 16.5 must
# not name element 16, nor True element 1


def not_an_index(x: int, kind: str):
    return x + 0.5 if kind == "float" else True


@pytest.mark.parametrize("kind", ["float", "bool"])
class TestNonIntegerIndices:
    def test_check_indices(self, A5, kind):
        ct = A5.cayley_table()
        with pytest.raises(PreconditionError, match="a must be element"):
            ct.check_indices([not_an_index(1, kind), 2], "a")
        assert ct.check_indices([], "a").tolist() == []

    def test_omega_table(self, A5m, kind):
        a = list(default_generating_tuple(A5m, 2))
        a[0] = not_an_index(a[0], kind)
        with pytest.raises(PreconditionError, match="a must be element"):
            omega_table(A5m, a)

    def test_crown_graph_builder(self, A5m, kind):
        a = list(default_generating_tuple(A5m, 2))
        a[1] = not_an_index(a[1], kind)
        with pytest.raises(PreconditionError, match="a must be element"):
            CrownGraphBuilder(A5m, 2, 1, a=a)

    def test_columns_generate(self, A5m, kind):
        _, table = delta_Lt(A5m, 2)
        columns = [list(c) for c in table.reps]
        columns[0][0] = not_an_index(columns[0][0], kind)
        with pytest.raises(PreconditionError,
                           match="column entries must be element"):
            columns_generate(A5m, columns)

    def test_cln_witness(self, A5m, kind):
        with pytest.raises(PreconditionError, match="rows must be element"):
            cln_witness(A5m, [not_an_index(0, kind), 2])

    def test_meet_is_single_block(self, A5_table2, kind):
        with pytest.raises(PreconditionError,
                           match="column entries must be element"):
            meet_is_single_block(A5_table2, [(not_an_index(16, kind), 0),
                                             (1, 2)])

    def test_square_order(self, A5m, kind):
        ct = A5m.ct()
        for pairs in ([(not_an_index(16, kind), 3)],
                      [(1, 2), (3, not_an_index(16, kind))]):
            with pytest.raises(PreconditionError,
                               match="pairs must be element"):
                square_order(ct, pairs)
