"""Resource caps, one process-wide value for the whole package.

``LIMITS`` holds the caps in force.  Every check site reads
``config.LIMITS.<field>`` when it runs, so modules import this module,
not the name: ``caps(...)`` swaps the value for the duration of a
``with`` block and restores the previous one on exit.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Desk-scale resource caps.

    Every element-level algorithm checks one of these caps and raises
    CapExceededError instead of silently degrading.
    """

    # Hard cap on explicit element enumeration.
    max_elements: int = 10**6
    # Cap on groups that get a dense multiplication table (memory: 2 bytes
    # per cell, order^2 cells; orders above 65,536 never get one, whatever
    # the cap); maximal subgroups, Frattini subgroups, d(G) by incidence
    # rows, the normal-subgroup lattice and the Aut(L) search all need
    # the table.
    max_dense_order: int = 2048
    # Cap on brute-force witness searches (e.g. tuples of corrections tried)
    # and on the cells of the Aut(L) closure check.
    max_search_space: int = 10**7
    # Budget (candidate image tuples) for the Aut(L) backtracking search.
    max_iso_leaves: int = 2 * 10**6


LIMITS = Limits()


@contextlib.contextmanager
def caps(**changes):
    """Run the block with the given caps changed, e.g.
    ``with caps(max_elements=100): ...``; the caps before the block are
    restored on exit, also when the block raises."""
    global LIMITS
    saved = LIMITS
    LIMITS = dataclasses.replace(saved, **changes)
    try:
        yield LIMITS
    finally:
        LIMITS = saved
