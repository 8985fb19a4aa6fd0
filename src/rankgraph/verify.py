"""Named verification suites, runnable independently via the CLI.

Each verifier exercises one statement-level property on a documented
instance set and returns a VerifyReport; a failed instance carries a
witness description.  All randomness is seeded, and reports record the
seed and instance counts so runs are reproducible.

``fractions`` is imported by the ``delu`` suite alone, inside
``verify_delu`` (and ``crown_powers.delu_fraction``), so that no other
command loads it and ``decimal`` with it at start-up.
"""

from __future__ import annotations

import inspect
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .perm_core import (
    GroupArgumentError,
    PreconditionError,
    WitnessSearchFailure,
    generates,
    quotient,
)
from .group_structure import (
    d_X,
    frattini,
    gaschutz_lift,
    is_soluble,
    min_rank,
    normal_subgroups,
    registry_for,
)
from .graphs import (
    build_lambda,
    component_labels,
    delta_summary,
    element_components,
)
from .crown_powers import (
    MonolithicGroup,
    build_crown_power,
    cln_witness,
    delta_Lt,
    delu_fraction,
    generation_via_orbits,
    meet_is_single_block,
    square_order,
    unico_rank_check,
    weak_connectivity,
    weak_connectivity_sampled,
)
from . import catalog as cat


# the minimum correction density asserted by the delu suite, as
# (numerator, denominator)
MIN_CORRECTION_DENSITY = (53, 90)


@dataclass
class VerifyReport:
    lemma: str
    passed: bool
    instances: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    seed: Optional[int] = None
    elapsed_ms: int = 0

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        extra = "" if not self.failures else f", {len(self.failures)} failures"
        return (f"[{state}] {self.lemma}: {self.instances} instances{extra}")

    def to_dict(self) -> dict:
        return {"lemma": self.lemma, "passed": self.passed,
                "instances": self.instances, "failures": self.failures,
                "details": {k: str(v) for k, v in self.details.items()},
                "seed": self.seed, "elapsed_ms": self.elapsed_ms}


def _mono(entry_id: str) -> MonolithicGroup:
    return MonolithicGroup(cat.builtin_entry(entry_id).group())


# ---------------------------------------------------------------------------
# gaschutz-style correction lifting (modgg)


def verify_modgg(seed: int = 42,
                 samples_per_subgroup: int = 6) -> VerifyReport:
    """Sampled lifting instances over catalog groups with proper normals."""
    rng = random.Random(seed)
    group_ids = ["S4", "A4", "Dih4", "Dih6", "S3xS3", "A4xC2"]
    failures = []
    instances = 0
    for gid in group_ids:
        G = cat.builtin_entry(gid).group()
        elems = G.elements()
        lattice = normal_subgroups(G)
        for M in lattice.normals:
            if M.order in (1, G.order):
                continue
            for _ in range(samples_per_subgroup):
                X = [rng.choice(elems) for _ in range(rng.randrange(3))]
                r = max(1, d_X(G, X))
                # rejection-sample g with <g, X, M> = G
                for _ in range(200):
                    g = [rng.choice(elems) for _ in range(r)]
                    gens = list(g) + list(X) + list(M.generators)
                    if generates(G, gens):
                        break
                else:
                    continue
                instances += 1
                try:
                    ns = gaschutz_lift(G, M, X, g)
                except WitnessSearchFailure as e:
                    failures.append({"group": gid, "M": M.order, "err": str(e)})
                    continue
                corrected = [gi * ni for gi, ni in zip(g, ns)]
                if not generates(G, corrected + list(X)):
                    failures.append({"group": gid, "M": M.order,
                                     "err": "corrected tuple fails"})
    return VerifyReport("modgg", not failures, instances, failures,
                        {"groups": group_ids})


# ---------------------------------------------------------------------------
# correction-density lower bound (delu)


def verify_delu(seed: int = 42, cross_checks: int = 20) -> VerifyReport:
    """Exhaustive density check for L = A5, d = 2.

    |Omega(l; b_1, b_2)| depends on the b_i only through their socle
    cosets (translate n_i by the coset offset), and the socle here is all
    of L, so one computation per l covers every valid (l, b_1, b_2).
    Seeded direct cross-checks confirm the translation invariance.
    """
    from fractions import Fraction
    bound = Fraction(*MIN_CORRECTION_DENSITY)
    rng = random.Random(seed)
    L = _mono("A5")
    reg = registry_for(L.group)
    rows = reg.incidence_rows()
    ct = L.ct()
    failures = []
    fractions = {}
    instances = 0
    for l_idx in range(ct.n):
        # canonical valid completion: first (b1, b2) with <l, b1, b2> = L
        found = next(reg.generating_tuples([range(ct.n)] * 2, rows[l_idx]),
                     None)
        if found is None:
            continue
        instances += 1
        b1, b2 = found[0].tolist()
        frac = delu_fraction(L, ct.perm(l_idx), [ct.perm(b1), ct.perm(b2)])
        fractions[l_idx] = frac
        if frac < bound:
            failures.append({"l": ct.perm(l_idx).cycle_string(),
                             "fraction": str(frac)})
    # seeded cross-checks: other valid completions give the same fraction
    checked = 0
    while checked < cross_checks:
        l_idx = rng.randrange(ct.n)
        b1, b2 = rng.randrange(ct.n), rng.randrange(ct.n)
        if reg.mask_of([l_idx, b1, b2]):
            continue
        checked += 1
        frac = delu_fraction(L, ct.perm(l_idx), [ct.perm(b1), ct.perm(b2)])
        if frac != fractions[l_idx]:
            failures.append({"l": l_idx, "b": (b1, b2),
                             "err": "translation invariance broken"})
    min_frac = min(fractions.values())
    return VerifyReport(
        "delu", not failures, instances + checked, failures,
        {"min_fraction": min_frac, "bound": bound,
         "cross_checks": checked})


# ---------------------------------------------------------------------------
# commuting correction pairs (cln)


def verify_cln(seed: int = 42,
               group_ids=("A5", "S5", "PSL(2,7)", "PGL(2,7)")) -> VerifyReport:
    """Exhaustive witness search over all pairs with commutator in the socle.

    The pairs are found here, from the commutator of every pair of the
    Cayley table, and the witnesses of every row come from one
    ``cln_witness`` call per group.  One array pass checks them all: n
    and m lie in the socle and a n commutes with b m.  A pair left
    without a witness is a failure.
    """
    # imported here as in graphs.py: importing numpy with this module
    # raised the peak RSS of `import rankgraph.cli` by 1.2 MB
    # (CPython 3.11, numpy 2.4, x86-64)
    import numpy as np
    failures = []
    instances = 0
    per_group = {}
    for gid in group_ids:
        M = _mono(gid)
        ct = M.ct()
        A, in_socle = ct.array, M.socle_mask
        inv = np.asarray(ct.inv)
        # [a, b] = a^-1 b^-1 a b, row a and column b
        need = in_socle[A[A[np.ix_(inv, inv)], A]]
        a, b, n, m = cln_witness(M, range(ct.n))
        found = (n >= 0) & (m >= 0)
        nf, mf = n.clip(0), m.clip(0)  # a -1 is masked out by found
        an, bm = A[a, nf], A[b, mf]
        ok = found & in_socle[nf] & in_socle[mf] & (A[an, bm] == A[bm, an])
        witnessed = np.zeros_like(need)
        witnessed[a[ok], b[ok]] = True
        bad = found & ~ok
        wrong = dict(zip(zip(a[bad].tolist(), b[bad].tolist()),
                         zip(n[bad].tolist(), m[bad].tolist())))
        for x, y in zip(*np.nonzero(need & ~witnessed)):
            x, y = int(x), int(y)
            if (x, y) in wrong:
                failures.append({"group": gid, "a": x, "b": y,
                                 "witness": wrong[x, y]})
            else:
                failures.append({"group": gid, "a": x, "b": y})
        count = int(need.sum())
        per_group[gid] = count
        instances += count
    return VerifyReport("cln", not failures, instances, failures,
                        {"pairs": per_group})


# ---------------------------------------------------------------------------
# residual rank bound (unico-rank)


def verify_unico_rank(seed: int = 42, samples: int = 400) -> VerifyReport:
    rng = random.Random(seed)
    failures = []
    instances = 0
    for gid in ("A5", "S5"):
        M = _mono(gid)
        ct = M.ct()
        reg = registry_for(M.group)
        n_gens = ct.indices(M.socle.generators)
        done = 0
        while done < samples:
            b = [rng.randrange(ct.n) for _ in range(3)]
            if reg.mask_of(b + n_gens):
                continue
            done += 1
            instances += 1
            if not unico_rank_check(M, 3, [ct.perm(i) for i in b]):
                failures.append({"group": gid, "b": b})
    return VerifyReport("unico-rank", not failures, instances, failures)


# ---------------------------------------------------------------------------
# orbit criterion vs direct generation (primo)


def verify_primo(seed: int = 42,
                 random_samples: int = 10**4,
                 exhaustive_slice: int = 10**5) -> VerifyReport:
    """Orbit criterion on A5, t=2, eta=2, against the order of the subgroup
    of L x L that the two index pairs (a_i m_i1, a_i m_i2) generate
    (``square_order``: table products and inverses, and the registry's
    coset closure; no incidence rows, Aut(L), X or orbit labels)."""
    rng = random.Random(seed)
    L = _mono("A5")
    ct = L.ct()
    tbl = ct.table
    delta, table = delta_Lt(L, 2)
    target = build_crown_power(L, 2).order
    socle = L.socle_indices
    failures = []
    trees: dict = {}  # square_order's trees, by first coordinates

    def check(rows) -> bool:
        pred = generation_via_orbits(table, rows)
        pairs = [(tbl[a][m1], tbl[a][m2]) for a, (m1, m2) in zip(table.a, rows)]
        direct = square_order(ct, pairs, target, trees) == target
        if pred != direct:
            failures.append({"rows": rows, "orbit": pred, "direct": direct})
        return pred == direct

    agreements = 0
    for _ in range(random_samples):
        rows = [tuple(rng.choice(socle) for _ in range(2)) for _ in range(2)]
        if check(rows):
            agreements += 1
    for combo in itertools.islice(
            itertools.product(socle, repeat=4), exhaustive_slice):
        rows = [combo[:2], combo[2:]]
        if check(rows):
            agreements += 1
    total = random_samples + exhaustive_slice
    return VerifyReport(
        "primo", not failures, total, failures,
        {"agreements": agreements, "delta": delta,
         "random": random_samples, "slice": exhaustive_slice})


# ---------------------------------------------------------------------------
# component conjugation invariance (coniugo)


def verify_coniugo(seed: int = 42, max_order: int = 200) -> VerifyReport:
    """Exhaustive: components of Delta_d are unions of conjugacy classes."""
    failures = []
    instances = 0
    for entry in cat.default_catalog():
        G = entry.group()
        if G.order > max_order:
            continue
        cert = min_rank(G)
        if cert.d <= 1:
            continue
        ds = ([2] if cert.d == 2 else []) + [3]
        for d in ds:
            labels = element_components(G, d)
            ct = G.cayley_table()
            instances += int((labels >= 0).sum())
            # every class with a vertex of Delta_d has one label; an
            # isolated member has a label of its own, so it fails as well
            for members in ct.classes:
                got = labels[list(members)]
                if got.max() >= 0 and (got != got[0]).any():
                    failures.append({"group": entry.id, "d": d, "class":
                                     ct.perm(members[0]).cycle_string()})
    return VerifyReport("coniugo", not failures, instances, failures,
                        {"max_order": max_order})


# ---------------------------------------------------------------------------
# Frattini-quotient reduction (frat)


def verify_frat(seed: int = 42) -> VerifyReport:
    """If Gamma_d(G/Frat(G)) is connected then Gamma_d(G) is connected."""
    group_ids = ["Dih4", "Dih8", "Dih16", "C4xC2", "C4xC4", "Dih4xC2",
                 "S4", "E2^3"]
    failures = []
    instances = 0
    nonvacuous = 0
    for gid in group_ids:
        G = cat.builtin_entry(gid).group()
        F = frattini(G)
        if F.order == 1:
            Q = G
        else:
            Q, _ = quotient(G, F)
        cert = min_rank(G)
        if cert.d <= 1:
            continue
        for d in (2, 3, max(2, cert.d)):
            instances += 1
            if not _gamma_connected(Q, d):
                continue  # hypothesis fails; implication vacuous
            nonvacuous += 1
            if not _gamma_connected(G, d):
                failures.append({"group": gid, "d": d})
    return VerifyReport("frat", not failures, instances, failures,
                        {"non_vacuous": nonvacuous, "groups": group_ids})


def _gamma_connected(G, d: int) -> bool:
    """Gamma_d(G) is connected: Delta_d is, and no element is isolated."""
    verdict = delta_summary(G, d)
    return verdict.connected and verdict.n_vertices == G.order


# ---------------------------------------------------------------------------
# quotient path lifting (induzionenormale)


def verify_induzionenormale(seed: int = 42) -> VerifyReport:
    """Non-isolated x, y with xM, yM in one quotient component admit m in M
    with x and y m in one component."""
    cases = [("S4", 4, 2), ("S4", 4, 3), ("Dih6", 3, 2),
             ("A4xC2", 2, 2), ("S3xS3", 6, 2)]
    failures = []
    instances = 0
    for gid, m_order, d in cases:
        G = cat.builtin_entry(gid).group()
        lattice = normal_subgroups(G)
        M = next(N for N in lattice.normals if N.order == m_order)
        Q, hom = quotient(G, M)
        if min_rank(Q).d <= 1:
            continue  # cyclic quotient: the graph policy excludes it
        labels = element_components(G, d).tolist()
        labels_q = element_components(Q, d).tolist()
        ct = G.cayley_table()
        to_q = Q.cayley_table().indices(map(hom, ct.elements))
        m_idx = ct.indices(M.elements())
        non_iso = [x for x, c in enumerate(labels) if c >= 0]
        for x in non_iso:
            for y in non_iso:
                if labels_q[to_q[x]] != labels_q[to_q[y]]:
                    continue
                instances += 1
                target = labels[x]
                ok = any(labels[ct.table[y][m]] == target for m in m_idx)
                if not ok:
                    failures.append({"group": gid, "d": d, "x": x, "y": y})
    return VerifyReport("induzionenormale", not failures, instances, failures,
                        {"cases": cases})


# ---------------------------------------------------------------------------
# soluble-quotient reduction (norsol)


def verify_norsol(seed: int = 42) -> VerifyReport:
    """Delta_d(G/N) connected with N soluble normal implies Delta_d(G) connected."""
    cases = [("S4", 4, 2), ("S4", 12, 2), ("S4", 4, 3), ("A4", 4, 2),
             ("A4xC2", 2, 2), ("S3xS3", 9, 2), ("Dih6", 3, 2),
             ("Dih12", 3, 2)]
    failures = []
    instances = 0
    for gid, n_order, d in cases:
        G = cat.builtin_entry(gid).group()
        lattice = normal_subgroups(G)
        N = next(M for M in lattice.normals if M.order == n_order)
        if not is_soluble(N):
            failures.append({"group": gid, "err": "instance N not soluble"})
            continue
        Q, _ = quotient(G, N)
        dq = min_rank(Q).d
        if dq <= 1 or dq > d:
            continue  # cyclic quotient or empty Delta_d: nothing to conclude
        instances += 1
        if not delta_summary(Q, d).connected:
            continue
        if not delta_summary(G, d).connected:
            failures.append({"group": gid, "N": n_order, "d": d})
    return VerifyReport("norsol", not failures, instances, failures,
                        {"cases": cases})


# ---------------------------------------------------------------------------
# weak connectivity of crown graphs (weak-conn)


def verify_weak_conn(seed: int = 42,
                     tuples_per_pattern: int = 3,
                     eta2_samples: int = 60) -> VerifyReport:
    """t = 3, eta = 1 exhaustively for A5 and PSL(2,7); eta = 2 sampled for A5.

    For a simple socle there is a single coset pattern; several seeded
    generating triples are checked per pattern (the graph only depends on
    the pattern, so equal results double as an invariance check).  The
    eta = 2 sample (``weak_connectivity_sampled``) only looks for paths of
    length at most 3 and only tries the conjugators (1, n), n in the
    socle.
    """
    rng = random.Random(seed)
    failures = []
    instances = 0
    details = {}
    for gid in ("A5", "PSL(2,7)"):
        L = _mono(gid)
        ct = L.ct()
        reg = registry_for(L.group)
        tuples = [None]  # canonical
        tried = 0
        while len(tuples) < 1 + tuples_per_pattern and tried < 500:
            tried += 1
            a = tuple(rng.randrange(ct.n) for _ in range(3))
            if not reg.mask_of(a):
                tuples.append(a)
        for a in tuples:
            instances += 1
            rep = weak_connectivity(L, 3, 1, a=a)
            if not rep.passed:
                failures.append({"group": gid, "a": a, "eta": 1})
        details[gid] = {"eta1_tuples": len(tuples)}
    # A5, eta = 2, sampled
    L = _mono("A5")
    _, table = delta_Lt(L, 3)
    rep = weak_connectivity_sampled(L, 3, 2, table, samples=eta2_samples,
                                    seed=seed)
    instances += rep.sample_size
    if not rep.passed:
        failures.append({"group": "A5", "eta": 2, "mode": "sampled"})
    details["A5_eta2"] = {"samples": rep.sample_size, "seed": seed}
    return VerifyReport("weak-conn", not failures, instances, failures,
                        details)


# ---------------------------------------------------------------------------
# bipartite coset graph connectivity (lambda)


def verify_lambda(seed: int = 42, choice_checks: int = 5) -> VerifyReport:
    """All representative choices for the nontrivial coset of A5 in S5.

    The adjacency depends only on the underlying element pairs, so every
    choice of distinct representatives x, y yields the same labelled
    graph; a seeded handful of rebuilds confirms that, and the canonical
    graph is checked for connectivity.  The x = y instance must be
    rejected with ``GroupArgumentError`` (counted as the documented
    rejection case); any other exception propagates.
    """
    rng = random.Random(seed)
    S = cat.alternating(5).group()
    S5 = cat.symmetric(5).group()
    odd = [p for p in S5.elements() if not S.contains(p)]
    failures = []
    base, _, _ = build_lambda(S, odd[0], odd[1])
    # imported here as in graphs.py
    import numpy as np
    empty = np.zeros_like(base)  # both parts have |S| vertices
    count = int(component_labels(
        np.block([[empty, base], [base.T, empty]])).max()) + 1
    if count > 1:
        failures.append({"err": f"{count} components"})
    isolated = int((~base.any(axis=1)).sum() + (~base.any(axis=0)).sum())
    if isolated:
        failures.append({"err": f"{isolated} isolated vertices"})
    checked = 0
    for _ in range(choice_checks):
        x, y = rng.sample(odd, 2)
        block, _, _ = build_lambda(S, x, y)
        checked += 1
        if not np.array_equal(block, base):
            failures.append({"err": "representative choice changed the graph",
                             "x": x.cycle_string(), "y": y.cycle_string()})
    # the identical-representative instance is rejected and logged
    rejected = False
    try:
        build_lambda(S, odd[0], odd[0])
    except GroupArgumentError:
        rejected = True
    if not rejected:
        failures.append({"err": "x = y instance was not rejected"})
    n_choices = len(odd) * (len(odd) - 1)
    return VerifyReport(
        "lambda", not failures, 1 + checked + 1, failures,
        {"vertices": 2 * len(base), "edges": int(base.sum()),
         "equivalent_choices": n_choices, "rejected_x_eq_y": rejected})


# ---------------------------------------------------------------------------
# partition meet condition (sempreuno)


def verify_sempreuno(seed: int = 42,
                     submatrix_samples: int = 30) -> VerifyReport:
    """Full-width meet condition for A5, t = 3, plus sub-matrix reports.

    The asserted instance is the complete orbit-representative matrix
    (eta = delta(L, t)), which is the statement's own configuration.
    Sub-matrices of up to 3 columns from distinct orbits are evaluated
    and reported without being asserted: the statement does not promise
    the meet condition for proper sub-matrices.
    """
    rng = random.Random(seed)
    L = _mono("A5")
    delta, table = delta_Lt(L, 3)
    failures = []
    if not meet_is_single_block(table):
        failures.append({"err": "meet condition fails at full width",
                         "delta": delta})
    sub_pass = 0
    for _ in range(submatrix_samples):
        cols = [table.reps[i]
                for i in sorted(rng.sample(range(delta), 3))]
        sub_pass += meet_is_single_block(table, cols)
    return VerifyReport(
        "sempreuno", not failures, 1 + submatrix_samples, failures,
        {"delta": delta, "submatrix_pass": sub_pass,
         "submatrix_total": submatrix_samples,
         "note": "sub-matrix results reported, not asserted"})


# ---------------------------------------------------------------------------
# registry


VERIFIERS: dict = {
    "modgg": verify_modgg,
    "delu": verify_delu,
    "cln": verify_cln,
    "unico-rank": verify_unico_rank,
    "primo": verify_primo,
    "coniugo": verify_coniugo,
    "frat": verify_frat,
    "induzionenormale": verify_induzionenormale,
    "norsol": verify_norsol,
    "weak-conn": verify_weak_conn,
    "lambda": verify_lambda,
    "sempreuno": verify_sempreuno,
}


def suite_parameters(lemma: str) -> list:
    """The parameters a suite takes besides its seed."""
    try:
        fn = VERIFIERS[lemma]
    except KeyError:
        raise ValueError(
            f"unknown lemma id {lemma!r}; available: {sorted(VERIFIERS)}")
    return [p for p in inspect.signature(fn).parameters if p != "seed"]


def run_verifier(lemma: str, seed: int = 42, **params) -> VerifyReport:
    """Run one suite; its report records the seed and the wall time.

    A parameter whose default is an ``int`` is a count: it must be given
    a non-negative ``int``.  One whose default is a ``tuple`` names
    catalog entries: it must be given a non-empty list of distinct
    strings.  Anything else raises ``PreconditionError``.
    """
    accepted = suite_parameters(lemma)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"{lemma} has no parameter {', '.join(unknown)}; "
                         f"it accepts {accepted}")
    defaults = inspect.signature(VERIFIERS[lemma]).parameters
    for name, value in params.items():
        kind = type(defaults[name].default)
        if kind is int and not (type(value) is int and value >= 0):
            raise PreconditionError(
                f"{lemma}: {name} must be a non-negative integer, "
                f"got {value!r}")
        if kind is tuple and not (
                type(value) in (list, tuple) and value
                and all(type(v) is str for v in value)
                and len(set(value)) == len(value)):
            raise PreconditionError(
                f"{lemma}: {name} must be a non-empty list of distinct "
                f"strings, got {value!r}")
    t0 = time.perf_counter()
    rep = VERIFIERS[lemma](seed=seed, **params)
    rep.seed = seed
    rep.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return rep
