"""Group catalog: builders, JSON ingestion and validation.

The catalog is deliberately small: parametrized builders plus user files.
Entries carry generators as 0-based image arrays; optional tags are
verified on load.  Entries carry no automorphisms: Aut(L) is always
computed by ``automorphisms.automorphism_group``, and a file that
supplies them is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional, Sequence

from . import config
from .perm_core import (
    Permutation,
    PermutationGroup,
    group_from_generators,
)


class CatalogError(ValueError):
    pass


@dataclass
class CatalogEntry:
    id: str
    degree: int
    generators: list  # list of image arrays
    tags: list = field(default_factory=list)
    notes: str = ""
    _group: Optional[PermutationGroup] = field(default=None, repr=False)

    def group(self) -> PermutationGroup:
        if self._group is None:
            gens = [Permutation(images) for images in self.generators]
            self._group = group_from_generators(self.degree, gens)
        return self._group

    def to_dict(self) -> dict:
        out = {"id": self.id, "degree": self.degree,
               "generators": [list(g) for g in self.generators]}
        if self.tags:
            out["tags"] = list(self.tags)
        if self.notes:
            out["notes"] = self.notes
        return out


# ---------------------------------------------------------------------------
# small finite fields (for the projective-line builders)


_IRREDUCIBLE = {
    # q: coefficients of a monic irreducible over the prime field,
    # lowest degree first, excluding the leading 1
    4: (1, 1),        # x^2 + x + 1 over F_2
    8: (1, 1, 0),     # x^3 + x + 1 over F_2
    9: (1, 0),        # x^2 + 1 over F_3
}


class _GF:
    """Arithmetic tables for GF(q), q a prime or one of the listed powers."""

    def __init__(self, q: int):
        p = _smallest_prime_factor(q)
        k = 0
        n = q
        while n > 1:
            if n % p:
                raise CatalogError(f"{q} is not a prime power")
            n //= p
            k += 1
        self.q, self.p, self.k = q, p, k
        if k == 1:
            self.add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            if q not in _IRREDUCIBLE:
                raise CatalogError(f"no irreducible polynomial wired for q={q}")
            poly = _IRREDUCIBLE[q]
            self.add = [[self._encode([(x + y) % p for x, y in
                                       zip(self._digits(a), self._digits(b))])
                         for b in range(q)] for a in range(q)]
            self.mul = [[self._poly_mul(a, b, poly) for b in range(q)]
                        for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    self.inv[a] = b
                    break

    def _digits(self, a: int) -> list:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits: Sequence[int]) -> int:
        out = 0
        for d in reversed(list(digits)):
            out = out * self.p + (d % self.p)
        return out

    def _poly_mul(self, a: int, b: int, poly) -> int:
        p, k = self.p, self.k
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic irreducible: x^k = -(poly)
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, coeff in enumerate(poly):
                    prod[i - k + j] = (prod[i - k + j] - c * coeff) % p
        return self._encode(prod[:k])

    def generator(self) -> int:
        """A multiplicative generator of GF(q)*."""
        for a in range(2, self.q):
            x, n = a, 1
            while x != 1:
                x = self.mul[x][a]
                n += 1
            if n == self.q - 1:
                return a
        raise CatalogError("no multiplicative generator found")


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _mobius_perm(field: _GF, a: int, b: int, c: int, d: int) -> Permutation:
    """x -> (a x + b) / (c x + d) on the projective line (infinity = q)."""
    q = field.q
    add, mul, inv = field.add, field.mul, field.inv
    images = []
    for x in range(q):
        num = add[mul[a][x]][b]
        den = add[mul[c][x]][d]
        images.append(q if den == 0 else mul[num][inv[den]])
    # image of infinity: a/c
    images.append(q if c == 0 else mul[a][inv[c]])
    return Permutation(images)


# ---------------------------------------------------------------------------
# builders


def cyclic(n: int) -> CatalogEntry:
    if n < 1:
        raise CatalogError("cyclic: n >= 1")
    if n == 1:
        return CatalogEntry("C1", 1, [[0]], tags=["soluble"])
    return CatalogEntry(f"C{n}", n, [list(range(1, n)) + [0]],
                        tags=["soluble"])


def dihedral(n: int) -> CatalogEntry:
    """Symmetries of the regular n-gon, order 2n (n >= 3)."""
    if n < 3:
        raise CatalogError("dihedral: n >= 3")
    rot = [(i + 1) % n for i in range(n)]
    ref = [(n - i) % n for i in range(n)]
    return CatalogEntry(f"Dih{n}", n, [rot, ref], tags=["soluble"])


def symmetric(n: int) -> CatalogEntry:
    if n < 2:
        raise CatalogError("symmetric: n >= 2")
    gens = [list(range(1, n)) + [0]]
    if n > 2:
        swap = list(range(n))
        swap[0], swap[1] = 1, 0
        gens.append(swap)
    tags = ["soluble"] if n <= 4 else ["almost-simple", "monolithic"]
    return CatalogEntry(f"S{n}", n, gens, tags=tags)


def alternating(n: int) -> CatalogEntry:
    if n < 3:
        raise CatalogError("alternating: n >= 3")
    three = list(range(n))
    three[0], three[1], three[2] = 1, 2, 0
    gens = [three]
    if n > 3:
        if n % 2:
            gens.append(list(range(1, n)) + [0])
        else:
            gens.append([0] + list(range(2, n)) + [1])
    tags = ["simple", "monolithic"] if n >= 5 else ["soluble"]
    return CatalogEntry(f"A{n}", n, gens, tags=tags)


def elementary_abelian(p: int, k: int) -> CatalogEntry:
    if _smallest_prime_factor(p) != p:
        raise CatalogError("elementary_abelian: p must be prime")
    if k < 1:
        raise CatalogError("elementary_abelian: k >= 1")
    gens = []
    for j in range(k):
        images = list(range(p * k))
        for i in range(p):
            images[j * p + i] = j * p + (i + 1) % p
        gens.append(images)
    return CatalogEntry(f"E{p}^{k}", p * k, gens, tags=["soluble"])


def direct_product(*entries: CatalogEntry, id: Optional[str] = None) -> CatalogEntry:
    if len(entries) < 2:
        raise CatalogError("direct_product: need at least two factors")
    degree = sum(e.degree for e in entries)
    gens = []
    offset = 0
    for e in entries:
        for g in e.generators:
            images = list(range(degree))
            for i, j in enumerate(g):
                images[offset + i] = offset + j
            gens.append(images)
        offset += e.degree
    name = id or "x".join(e.id for e in entries)
    return CatalogEntry(name, degree, gens)


_PSL2_Q = (4, 5, 7, 8, 9, 11, 13)


def psl2(q: int) -> CatalogEntry:
    """PSL(2, q) acting on the projective line (q + 1 points).

    Generated by the Moebius actions of the transvections [[1, b], [0, 1]]
    for b in a basis of GF(q) plus the inversion [[0, 1], [-1, 0]]; upper
    and lower transvections together generate SL(2, q).
    """
    if q not in _PSL2_Q:
        raise CatalogError(f"psl2: q must be one of {_PSL2_Q}")
    field = _GF(q)
    gens = []
    basis = [field._encode([0] * i + [1] + [0] * (field.k - 1 - i))
             for i in range(field.k)]
    for b in basis:
        gens.append(_mobius_perm(field, 1, b, 0, 1).images)
    # -1 in GF(q) is the constant p - 1
    gens.append(_mobius_perm(field, 0, 1, field.p - 1, 0).images)
    entry = CatalogEntry(f"PSL(2,{q})", q + 1, gens,
                         tags=["simple", "monolithic"])
    expected = q * (q * q - 1) // (2 if q % 2 else 1)
    if entry.group().order != expected:
        raise CatalogError(f"psl2({q}) order {entry.group().order} != {expected}")
    return entry


def pgl2(q: int) -> CatalogEntry:
    """PGL(2, q) for odd q: PSL(2, q) extended by a non-square diagonal."""
    if q not in _PSL2_Q or q % 2 == 0:
        raise CatalogError("pgl2: odd q from the psl2 range")
    field = _GF(q)
    base = psl2(q)
    gens = list(base.generators)
    gens.append(_mobius_perm(field, field.generator(), 0, 0, 1).images)
    entry = CatalogEntry(f"PGL(2,{q})", q + 1, gens,
                         tags=["almost-simple", "monolithic"])
    expected = q * (q * q - 1)
    if entry.group().order != expected:
        raise CatalogError(f"pgl2({q}) order {entry.group().order} != {expected}")
    return entry


def crown_power_entry(base: CatalogEntry, k: int) -> CatalogEntry:
    """The crown-based power (base)_k of a monolithic catalog entry."""
    from .crown_powers import MonolithicGroup, build_crown_power
    mono = MonolithicGroup(base.group())
    cp = build_crown_power(mono, k)
    gens = [list(g.images) for g in cp.generators]
    return CatalogEntry(f"Crown({base.id},{k})", cp.degree, gens,
                        notes=f"crown-based power of {base.id}, k={k}")


def _input_caps():
    """Catalogs are input, built and validated at the default element
    cap: a smaller ``max_elements`` in force (``--cap-elements``) bounds
    the analysis, not the catalog it reads."""
    return config.caps(max_elements=config.Limits().max_elements)


# id -> builder of every built-in entry, in catalog order
_BUILTINS = {
    **{f"C{n}": partial(cyclic, n) for n in (6, 12)},
    **{f"Dih{n}": partial(dihedral, n)
       for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 24, 50, 100)},
    **{f"S{n}": partial(symmetric, n) for n in (3, 4, 5, 6)},
    **{f"A{n}": partial(alternating, n) for n in (4, 5, 6)},
    **{f"E{p}^{k}": partial(elementary_abelian, p, k)
       for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2))},
    **{f"PSL(2,{q})": partial(psl2, q) for q in _PSL2_Q},
    **{f"PGL(2,{q})": partial(pgl2, q) for q in (7, 9)},
    "S3xS3": lambda: direct_product(symmetric(3), symmetric(3)),
    "A4xC2": lambda: direct_product(alternating(4), cyclic(2)),
    "S3xC2": lambda: direct_product(symmetric(3), cyclic(2)),
    "S4xC2": lambda: direct_product(symmetric(4), cyclic(2)),
    "C4xC2": lambda: direct_product(cyclic(4), cyclic(2)),
    "C4xC4": lambda: direct_product(cyclic(4), cyclic(4)),
    "Dih4xC2": lambda: direct_product(dihedral(4), cyclic(2)),
    "A5xA5": lambda: direct_product(alternating(5), alternating(5)),
    "Crown(S5,2)": lambda: crown_power_entry(symmetric(5), 2),
}


def builtin_entry(group_id: str) -> CatalogEntry:
    """The built-in entry named ``group_id``, built alone."""
    builder = _BUILTINS.get(group_id)
    if builder is None:
        raise CatalogError(f"no catalog entry named {group_id!r}")
    with _input_caps():  # Crown(S5,2) enumerates elements
        return builder()


def default_catalog() -> list:
    """The deterministic built-in catalog used by sweeps and tests."""
    return [builtin_entry(group_id) for group_id in _BUILTINS]


# ---------------------------------------------------------------------------
# validation and IO


def validate_entry(entry: CatalogEntry) -> None:
    """Bijectivity of generators; declared tags checked by computation."""
    for images in entry.generators:
        if sorted(images) != list(range(entry.degree)):
            raise CatalogError(
                f"entry {entry.id!r}: generator {images!r} is not a "
                f"permutation of 0..{entry.degree - 1}")
    G = entry.group()
    for tag in entry.tags:
        if tag == "soluble":
            from .group_structure import is_soluble
            if not is_soluble(G):
                raise CatalogError(f"entry {entry.id!r}: not soluble")
        elif tag == "simple":
            from .group_structure import is_simple
            if not is_simple(G):
                raise CatalogError(f"entry {entry.id!r}: not simple")
        elif tag == "monolithic":
            from .group_structure import normal_subgroups
            if len(normal_subgroups(G).minimal_normals) != 1:
                raise CatalogError(f"entry {entry.id!r}: not monolithic")
        elif tag == "almost-simple":
            _check_almost_simple(entry, G)
        else:
            raise CatalogError(f"entry {entry.id!r}: unknown tag {tag!r}")
    # the tag checks build the dense table: a catalog of many tagged
    # groups would otherwise hold all their tables at once
    G.release_dense_caches()


def _check_almost_simple(entry, G) -> None:
    """A non-abelian simple socle S is enough: C_G(S) is normal and meets
    S in Z(S) = 1, so a non-trivial C_G(S) would hold a second minimal
    normal subgroup, and C_G(S) = 1 embeds G into Aut(S)."""
    from .group_structure import is_simple, socle
    S = socle(G)
    if S.is_abelian() or not is_simple(S):
        raise CatalogError(
            f"entry {entry.id!r}: socle is not non-abelian simple")


def load_catalog(path) -> list:
    """Parse and validate a catalog JSON file.

    Parse errors carry line numbers, a file that cannot be read or is
    no list of entries (bare or as "entries") names its path, and
    validation errors, a repeated id among them, name the entry.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise CatalogError(f"{path}: cannot read catalog: {e.strerror}") \
            from e
    except json.JSONDecodeError as e:
        raise CatalogError(
            f"{path}: JSON parse error at line {e.lineno}, "
            f"column {e.colno}: {e.msg}") from e
    raw_entries = data.get("entries") if isinstance(data, dict) else data
    if not isinstance(raw_entries, list):
        raise CatalogError(f"{path}: not a list of entries or an object "
                           'with an "entries" list')
    entries = []
    first = {}  # id -> number of its first entry
    for i, raw in enumerate(raw_entries):
        try:
            if "automorphisms" in raw:
                raise CatalogError(
                    f"entry {raw.get('id')!r}: the automorphisms field is "
                    "not accepted; Aut(L) is always computed")
            if not isinstance(raw["id"], str) or not raw["id"]:
                raise ValueError(f"id {raw['id']!r} is not a non-empty string")
            entry = CatalogEntry(
                id=raw["id"], degree=int(raw["degree"]),
                generators=[list(map(int, g)) for g in raw["generators"]],
                tags=list(raw.get("tags", [])),
                notes=raw.get("notes", ""))
            if first.setdefault(entry.id, i) != i:
                raise CatalogError(
                    f"id {entry.id!r} repeats entry #{first[entry.id]}")
            with _input_caps():
                validate_entry(entry)
        except (KeyError, TypeError, ValueError) as e:
            raise CatalogError(f"entry #{i}: {e}") from e
        entries.append(entry)
    return entries


def save_catalog(entries: Iterable[CatalogEntry], out) -> None:
    """Write the entries to the text file ``out`` as catalog JSON."""
    data = {"entries": [e.to_dict() for e in entries]}
    json.dump(data, out, indent=1, sort_keys=True)
    out.write("\n")


def find_entry(entries: Iterable[CatalogEntry], group_id: str) -> CatalogEntry:
    for e in entries:
        if e.id == group_id:
            return e
    raise CatalogError(f"no catalog entry named {group_id!r}")
