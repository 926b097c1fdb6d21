"""Exact engine for symmetric functions, wreath-product symmetric
functions, and brute-force verification of necklace and stable-graph
generating series."""

from .symfunc import (
    SymFunc,
    adams,
    d_operator,
    euler_phi,
    geom,
    h_gen,
    h_lambda,
    log_inv,
    partial_p,
    partitions_of,
    plethysm,
    z_of,
)
from .wreath import (
    WreathSymFunc,
    dih_series_closed,
    specialize_s2,
)
from .groups import (
    Perm,
    signed_perm,
    closure,
    cycle_type,
    cyclic_subgroup,
    hyperoct_dihedral,
    ind_trivial_char,
    ind_trivial_char_wreath,
)
from .series import (
    ModuleSpec,
    ModuleSpecError,
    a_series,
    ass_series,
    b1_series,
    cyclic_necklace_series,
    necklace_series,
    tree_fixed_point,
)
from .graphoracle import (
    BudgetExceededError,
    DecoratedGraph,
    canonical_form,
    census_char,
    enumerate_decorated,
)

__version__ = "0.1.0"
