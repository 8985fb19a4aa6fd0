"""Resource limits shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Desk-scale resource caps.

    Every element-level algorithm checks one of these caps and raises
    CapExceededError instead of silently degrading.
    """

    # Hard cap on explicit element enumeration.
    max_elements: int = 10**6
    # Cap on groups that get a dense multiplication table (memory: order^2 ints).
    max_dense_order: int = 2048
    # Cap for complete normal-subgroup lattice computation.
    max_normal_lattice: int = 10**4
    # Cap for automorphism-group backtracking.
    max_aut_order: int = 2000
    # Cap for maximal-subgroup search (and hence Frattini subgroups).
    max_maximal_order: int = 2000
    # Cap on brute-force witness searches (e.g. tuples of corrections tried).
    max_search_space: int = 10**7
    # Budget (candidate image tuples) for isomorphism backtracking.
    max_iso_leaves: int = 2 * 10**6


DEFAULT_LIMITS = Limits()

