"""Finite-poset workbench for subset-system order theory.

Carrier subsets are int bitmasks throughout; posets, systems, families, and
maps are immutable values safe to share across workers.
"""

from zdt.kernels import BACKEND
from zdt.poset import (
    FinitePoset,
    FinP,
    Subposet,
    cut,
    down_set,
    enumerate_posets,
    fin_poset,
    from_order_pairs,
    inf_of,
    is_filtered,
    lower_bounds,
    min_of_upset,
    relative_cut,
    restrict,
    sup_of,
    up_set,
    upper_bounds,
)
from zdt.systems import SYSTEMS, SubsetSystem, get_system, is_zcpo
from zdt.topology import (
    TopologyFamily,
    gamma_subbasis,
    is_lower_hereditary,
    lower_topology,
    sigma_subbasis,
    sigma_topology,
)
from zdt.claims import Claim, get_claim, registry, run_claim

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Claim",
    "FinP",
    "FinitePoset",
    "SYSTEMS",
    "SubsetSystem",
    "Subposet",
    "TopologyFamily",
    "cut",
    "down_set",
    "enumerate_posets",
    "fin_poset",
    "from_order_pairs",
    "gamma_subbasis",
    "get_claim",
    "get_system",
    "inf_of",
    "is_filtered",
    "is_lower_hereditary",
    "is_zcpo",
    "lower_bounds",
    "lower_topology",
    "min_of_upset",
    "registry",
    "relative_cut",
    "restrict",
    "run_claim",
    "sigma_subbasis",
    "sigma_topology",
    "sup_of",
    "up_set",
    "upper_bounds",
]
