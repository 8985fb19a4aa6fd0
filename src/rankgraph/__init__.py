"""Generating graphs, rank graphs and crown-based powers of finite groups.

Library plus CLI for exhaustive desk-scale connectivity verification:
rank graphs of small groups, bipartite coset generation graphs, and the
orbit machinery behind crown-based powers.
"""

__version__ = "0.1.0"

from .config import Limits, caps
from .perm_core import (
    CapExceededError,
    CayleyTable,
    DegreeMismatchError,
    GroupArgumentError,
    NotNormalError,
    Permutation,
    PermutationGroup,
    PreconditionError,
    StabilizerChain,
    WitnessSearchFailure,
    generates,
    group_from_generators,
    is_normal,
    normal_closure,
    quotient,
)
