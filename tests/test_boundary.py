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
    columns_generate,
    default_generating_tuple,
    delta_Lt,
    delu_fraction,
    generation_via_orbits,
    omega_table,
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
    return MonolithicGroup.from_group(A5, "A5")


@pytest.fixture(scope="module")
def S5m(S5):
    return MonolithicGroup.from_group(S5, "S5")


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
