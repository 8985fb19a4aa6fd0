"""Crown theory: chief series, equivalence of chief factors, the
monolithic primitive group attached to a factor, and crowns.

A chief factor is a section H/K of a maximal chain of normal subgroups.
Sections are realized as small permutation groups (coset action of H on
K) together with the conjugation action of G's generators, so factor
comparisons reduce to equivariant isomorphism searches on small groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import config
from .perm_core import (
    CapExceededError,
    GroupArgumentError,
    Permutation,
    PermutationGroup,
    PreconditionError,
    quotient,
)
from .group_structure import (
    frattini,
    maximal_subgroups,
    normal_subgroups,
)
from .automorphisms import _iso_maps, isomorphism
from .crown_powers import MonolithicGroup, build_crown_power


# ---------------------------------------------------------------------------
# sections with a G-action


@dataclass
class GSection:
    """A section H/K of G with the conjugation action of G's generators."""

    ambient: PermutationGroup
    upper: PermutationGroup   # H
    lower: PermutationGroup   # K
    section: PermutationGroup  # faithful realization of H/K
    action: tuple  # per G-generator, a Permutation of section element indices
    _centralizer: Optional[PermutationGroup] = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return self.section.order

    def is_abelian(self) -> bool:
        return self.section.is_abelian()

    def centralizer(self) -> PermutationGroup:
        """C_G(H/K), computed on first use; H and K must lie in G."""
        if self._centralizer is None:
            self._centralizer = _centralizer_of_section(
                self.ambient, self.upper, self.lower)
        return self._centralizer


def _build_section(G: PermutationGroup, H: PermutationGroup,
                   K: PermutationGroup) -> GSection:
    if K.order == 1:
        S = H
        ct = S.cayley_table()
        action = []
        for g in G.generators:
            g_inv = g.inverse()
            action.append(Permutation(
                [ct.index[(g_inv * ct.perm(i) * g).images]
                 for i in range(ct.n)]))
        return GSection(G, H, K, S, tuple(action))
    S, hom = quotient(H, K)
    ct = S.cayley_table()
    reps = hom.coset_representatives
    action = []
    for g in G.generators:
        g_inv = g.inverse()
        images = [ct.index[hom(g_inv * rep * g).images] for rep in reps]
        action.append(Permutation(images))
    return GSection(G, H, K, S, tuple(action))


def g_isomorphic(A: GSection, B: GSection) -> bool:
    """Isomorphism of sections commuting with the G-action.

    Enumerates abstract isomorphisms by generator-image backtracking and
    filters for equivariance against every G-generator.
    """
    if A.order != B.order:
        return False
    ct_a = A.section.cayley_table()
    ct_b = B.section.cayley_table()
    from .automorphisms import _element_fingerprints, _generating_sequence
    fps_a = _element_fingerprints(ct_a)
    src = _generating_sequence(A.section, ct_a, fps_a)
    maps, exhausted = _iso_maps(ct_a, ct_b, src, fps_a,
                                _element_fingerprints(ct_b), first_only=False)
    if not exhausted:
        raise CapExceededError("section isomorphism search over budget")
    # sigma(a(x)) = b(sigma(x)) for the action a, b of each G-generator
    for a, b in zip(A.action, B.action):
        maps = maps[(maps[:, list(a.images)] ==
                     np.array(b.images)[maps]).all(1)]
    return len(maps) > 0


# ---------------------------------------------------------------------------
# chief series


@dataclass
class ChiefFactor:
    """One factor H/K of a chief series of G."""

    ambient: PermutationGroup
    upper: PermutationGroup
    lower: PermutationGroup
    abelian: bool
    frattini: bool  # H/K lies inside Frat(G/K)
    centralizer: PermutationGroup  # C_G(H/K)
    _section: Optional[GSection] = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return self.upper.order // self.lower.order

    def section(self) -> GSection:
        if self._section is None:
            self._section = _build_section(self.ambient, self.upper,
                                           self.lower)
            self._section._centralizer = self.centralizer
        return self._section


def _centralizer_of_section(G: PermutationGroup, H: PermutationGroup,
                            K: PermutationGroup) -> PermutationGroup:
    """C_G(H/K) = {g : [g, h] in K for all h in H}; generator check suffices."""
    from .perm_core import subgroup_from_members
    members = []
    for g in G.elements():
        if all(K.contains(g.commutator(h)) for h in H.generators):
            members.append(g)
    return subgroup_from_members(G.degree, members)


def _is_frattini_factor(G: PermutationGroup, H: PermutationGroup,
                        K: PermutationGroup, abelian: bool) -> bool:
    # non-abelian chief factors are never Frattini (Frat is nilpotent)
    if not abelian:
        return False
    if K.order == 1:
        Q, hom = G, None
    else:
        Q, hom = quotient(G, K)
    frat = frattini(Q)
    h_gens = H.generators if hom is None else [hom(h) for h in H.generators]
    return all(frat.contains(h) for h in h_gens)


def chief_series(G: PermutationGroup) -> list:
    """A chief series, as ChiefFactors from the bottom up.

    Built as a maximal chain in the normal-subgroup lattice: each step
    extends by a minimal member of the normals strictly above the current
    one (deterministic smallest choice).
    """
    lattice = normal_subgroups(G)
    keyed = []
    for N in lattice.normals:
        keyed.append((frozenset(p.images for p in N.elements()), N))
    factors = []
    cur_key, cur = keyed[0][0], keyed[0][1]  # the trivial subgroup
    full_key = keyed[-1][0]
    while cur_key != full_key:
        above = [(k, N) for k, N in keyed if cur_key < k]
        # minimal w.r.t. inclusion among those strictly above
        nxt_key, nxt = min(
            ((k, N) for k, N in above
             if not any(cur_key < k2 < k for k2, _ in above)),
            key=lambda kn: (len(kn[0]), sorted(kn[0])))
        abelian = _section_abelian(nxt, cur)
        cent = _centralizer_of_section(G, nxt, cur)
        frat_flag = _is_frattini_factor(G, nxt, cur, abelian)
        factors.append(ChiefFactor(G, nxt, cur, abelian, frat_flag, cent))
        cur_key, cur = nxt_key, nxt
    return factors


def _section_abelian(H: PermutationGroup, K: PermutationGroup) -> bool:
    gens = H.generators
    return all(K.contains(a.commutator(b))
               for i, a in enumerate(gens) for b in gens[i + 1:])


# ---------------------------------------------------------------------------
# G-equivalence of chief factors


def g_equivalent(G: PermutationGroup, F1: ChiefFactor,
                 F2: ChiefFactor) -> bool:
    """G-equivalence of chief factors (see ``g_equivalent_section``).

    Mixed abelian/non-abelian pairs are never equivalent, and two factors
    with the same upper and lower subgroups always are.
    """
    if F1.abelian != F2.abelian or F1.order != F2.order:
        return False
    if F1.upper.same_group(F2.upper) and F1.lower.same_group(F2.lower):
        return True
    return g_equivalent_section(G, F1.section(), F2.section())


def g_equivalent_section(G: PermutationGroup, secA: GSection,
                         secB: GSection) -> bool:
    """G-equivalence of two sections of G that are chief factors.

    Abelian sections: equivalent iff G-isomorphic.  Non-abelian sections:
    G-isomorphic, or equal centralizers, or the quotient by
    C_G(A) ∩ C_G(B) has two distinct minimal normal subgroups
    G-isomorphic to A and B (the two-minimal-normals criterion; the
    intersection is exactly the core of the shared maximal subgroup).
    """
    if secA.order != secB.order:
        return False
    if g_isomorphic(secA, secB):
        return True
    if secA.is_abelian() or secB.is_abelian():
        return False
    c1 = frozenset(p.images for p in secA.centralizer().elements())
    c2 = frozenset(p.images for p in secB.centralizer().elements())
    if c1 == c2:
        return True
    from .perm_core import subgroup_from_members
    meet = subgroup_from_members(
        G.degree, [Permutation._raw(img) for img in sorted(c1 & c2)])
    return _two_minimal_normals_witness(G, meet, secA, secB)


def _two_minimal_normals_witness(G: PermutationGroup, R: PermutationGroup,
                                 secA: GSection, secB: GSection) -> bool:
    """G/R has distinct minimal normal subgroups G-isomorphic to A and B."""
    if R.order == 1:
        Q, hom = G, None
    else:
        Q, hom = quotient(G, R)
    try:
        minimals = normal_subgroups(Q).minimal_normals
    except CapExceededError:
        return False
    if len(minimals) < 2:
        return False
    hits_a, hits_b = [], []
    for X in minimals:
        if hom is None:
            secX = _build_section(G, X, PermutationGroup(G.degree, ()))
        else:
            secX = _quotient_minimal_section(G, Q, hom, X)
        if secX.order == secA.order and g_isomorphic(secA, secX):
            hits_a.append(X)
        if secX.order == secB.order and g_isomorphic(secB, secX):
            hits_b.append(X)
    return any(not X.same_group(Y) for X in hits_a for Y in hits_b)


def _quotient_minimal_section(G, Q, hom, X) -> GSection:
    """X minimal normal in Q = G/R, as a G-section via the projection."""
    ct = X.cayley_table()
    action = []
    for g in G.generators:
        gq = hom(g)
        gq_inv = gq.inverse()
        action.append(Permutation(
            [ct.index[(gq_inv * ct.perm(i) * gq).images]
             for i in range(ct.n)]))
    return GSection(G, X, PermutationGroup(Q.degree, ()), X, tuple(action))


def g_equivalent_via_maximals(G: PermutationGroup, F1: ChiefFactor,
                              F2: ChiefFactor) -> bool:
    """Cross-check: the maximal-subgroup form of the equivalence criterion.

    True iff F1, F2 are G-isomorphic or some maximal subgroup M gives a
    quotient G/core_G(M) with two minimal normals G-isomorphic to them.
    Needs enumerable maximal subgroups, so only for small G.
    """
    if F1.abelian != F2.abelian or F1.order != F2.order:
        return False
    if g_isomorphic(F1.section(), F2.section()):
        return True
    lattice = normal_subgroups(G)
    norm_keys = [(frozenset(p.images for p in N.elements()), N)
                 for N in lattice.normals]
    seen_cores = set()
    for M in maximal_subgroups(G):
        m_key = frozenset(p.images for p in M.elements())
        core_key, core = max(
            ((k, N) for k, N in norm_keys if k <= m_key),
            key=lambda kn: len(kn[0]))
        if core_key in seen_cores:
            continue
        seen_cores.add(core_key)
        if _two_minimal_normals_witness(G, core, F1.section(), F2.section()):
            return True
    return False


# ---------------------------------------------------------------------------
# delta_G, the monolithic primitive group, and crowns


def delta_G(G: PermutationGroup, A: ChiefFactor,
            series: Optional[Sequence[ChiefFactor]] = None) -> int:
    """Number of non-Frattini chief factors G-equivalent to A."""
    if series is None:
        series = chief_series(G)
    return sum(1 for F in series
               if not F.frattini and g_equivalent(G, A, F))


def build_L_A(G: PermutationGroup, A: ChiefFactor) -> MonolithicGroup:
    """The monolithic primitive group of a chief factor.

    Non-abelian A: the quotient G/C_G(A).  Abelian A: the affine group of
    the section (translations extended by the induced G-action), degree
    |A|; the centralizer is exactly the action kernel, so the realization
    has order |A| * |G : C_G(A)|.
    """
    C = A.centralizer
    if not A.abelian:
        if C.order == 1:
            L = G
        else:
            L, _ = quotient(G, C)
        return MonolithicGroup.from_group(L)
    sec = A.section()
    ct = sec.section.cayley_table()
    gens = []
    for g in sec.section.generators:
        gi = ct.index[g.images]
        gens.append(Permutation([ct.table[x][gi] for x in range(ct.n)]))
    gens.extend(sec.action)
    expected = sec.order * (G.order // C.order)
    L = PermutationGroup(ct.n, gens, known_order=expected)
    if L.order != expected:
        raise GroupArgumentError("affine realization has unexpected order")
    return MonolithicGroup.from_group(L)


@dataclass
class Crown:
    """The crown of a chief-factor class: R_G(A) <= I_G(A)."""

    group: PermutationGroup
    factor: ChiefFactor
    delta: int
    L_A: MonolithicGroup
    R: PermutationGroup
    I: PermutationGroup
    witnesses: list  # normal subgroups N with G/N ~ L_A and socle condition
    iso_checked: str  # "explicit" | "structural" | "not-completed"


def crown_of(G: PermutationGroup, A: ChiefFactor,
             series: Optional[Sequence[ChiefFactor]] = None) -> Crown:
    """R_G(A), I_G(A) and the crown-based-power quotient verification.

    R_G(A) is the intersection of all normal N with G/N isomorphic to
    L_A and soc(G/N) G-equivalent to A; I_G(A) is the preimage of
    soc(G/R_G(A)).  The quotient isomorphism G/R ~ (L_A)_delta is checked
    explicitly when the dense cap allows, structurally in the simple
    direct-factor case, and reported unchecked otherwise.
    """
    if series is None:
        series = chief_series(G)
    L_A = build_L_A(G, A)
    delta = delta_G(G, A, series)
    lattice = normal_subgroups(G)
    target_order = L_A.group.order
    witnesses = []
    for N in lattice.normals:
        if G.order // N.order != target_order:
            continue
        if N.order == 1:
            Q, hom = G, None
        else:
            Q, hom = quotient(G, N)
        if Q.order > config.LIMITS.max_dense_order:
            continue
        if not isomorphism(Q, L_A.group).isomorphic:
            continue
        soc_Q = _socle_section_of_quotient(G, N, Q, hom)
        if soc_Q.order == A.order and g_equivalent_section(
                G, A.section(), soc_Q):
            witnesses.append(N)
    if not witnesses:
        raise PreconditionError(
            "no normal subgroup realizes the monolithic quotient; "
            "A must be a non-Frattini chief factor")
    # R = intersection of the witnesses
    common = None
    for N in witnesses:
        key = frozenset(p.images for p in N.elements())
        common = key if common is None else (common & key)
    from .perm_core import subgroup_from_members
    R = subgroup_from_members(
        G.degree, [Permutation._raw(img) for img in sorted(common)])
    # I = preimage of soc(G/R)
    if R.order == 1:
        from .group_structure import socle as socle_of
        I = socle_of(G)
    else:
        Q, hom = quotient(G, R)
        from .group_structure import socle as socle_of
        soc_q = socle_of(Q)
        I = _preimage(G, R, hom, soc_q)
    iso_checked = _verify_crown_power_iso(G, R, L_A, delta, witnesses)
    return Crown(G, A, delta, L_A, R, I, witnesses, iso_checked)


def _socle_section_of_quotient(G, N, Q, hom) -> GSection:
    from .group_structure import socle as socle_of
    soc_q = socle_of(Q)
    if hom is None:
        return _build_section(G, soc_q, PermutationGroup(G.degree, ()))
    I = _preimage(G, N, hom, soc_q)
    return _build_section(G, I, N)


def _preimage(G: PermutationGroup, N: PermutationGroup, hom,
              sub: PermutationGroup) -> PermutationGroup:
    """Preimage of a subgroup of G/N under the coset projection.

    A quotient element q corresponds to the coset whose index is the
    image of the identity coset under q; its stored canonical
    representative lifts q.
    """
    reps = hom.coset_representatives
    id_coset = hom.identity_coset
    gens = list(N.generators)
    for q in sub.generators:
        gens.append(reps[q(id_coset)])
    expected = N.order * sub.order
    P = PermutationGroup(G.degree, gens, known_order=expected)
    if P.order != expected:
        raise GroupArgumentError("preimage order mismatch")
    return P


def _verify_crown_power_iso(G, R, L_A: MonolithicGroup, delta: int,
                            witnesses: list) -> str:
    order_R = R.order
    expected = L_A.quotient_order * L_A.socle.order ** delta
    if G.order != order_R * expected:
        raise GroupArgumentError(
            "crown-power order mismatch: |G/R| != |L_A/N| |N|^delta")
    quotient_order = G.order // order_R
    if quotient_order <= config.LIMITS.max_dense_order:
        if R.order == 1:
            Q = G
        else:
            Q, _ = quotient(G, R)
        power = build_crown_power(L_A, delta)
        res = isomorphism(Q, power.group)
        if res.isomorphic is True:
            return "explicit"
        if res.isomorphic is False:
            raise GroupArgumentError(
                "G/R is not isomorphic to the crown-based power")
        return "not-completed"
    # structural certificate: R = 1, L_A simple, and the witness kernels
    # intersect trivially with multiplying orders, so the diagonal map
    # G -> prod G/N_i is an isomorphism onto L_A^delta = (L_A)_delta.
    if order_R == 1 and L_A.socle.order == L_A.group.order \
            and len(witnesses) == delta:
        prod = 1
        for N in witnesses:
            prod *= G.order // N.order
        if prod == G.order:
            return "structural"
    return "not-completed"


def crown_complement(G: PermutationGroup,
                     crown: Crown) -> Optional[PermutationGroup]:
    """A nontrivial normal U with I = R x U, when one exists.

    Existence is promised for Frat(G) = 1; absence is reported by
    returning None so callers can flag it.
    """
    lattice = normal_subgroups(G)
    R, I = crown.R, crown.I
    i_key = frozenset(p.images for p in I.elements())
    r_key = frozenset(p.images for p in R.elements())
    for U in lattice.normals:
        if U.order == 1 or U.order * R.order != I.order:
            continue
        u_key = frozenset(p.images for p in U.elements())
        if not u_key <= i_key:
            continue
        if len(u_key & r_key) == 1:
            return U
    return None
