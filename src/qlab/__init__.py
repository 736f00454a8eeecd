"""Exact-arithmetic laboratory for the query complexity of the iterated
tie-breaking majority gadget."""

from .boolfn import (
    TruthTable,
    fmaj,
    iter_eval,
    iterated_table,
    level_patterns,
)
from .dtree import (
    CostMatrix,
    DecisionTree,
    Leaf,
    Node,
    delta0,
    exact_depth,
    min_weighted_zero_error,
    tree_to_partition,
)
from .harddist import (
    InputDistribution,
    SupportError,
    d,
    d0,
    d1,
    dh_mass,
    jk_cost_matrices,
    jk_values,
    minority_leaf_law,
)
from .lpbound import RationalLP, build_prt_lp, prt_report, solve_exact
from .randalg import (
    embed_check,
    lv_check_correct,
    mc_mean_cost,
)
from .subcube import (
    LabeledPartition,
    Pattern,
    canonical_fmaj_partition,
    compose_partitions,
    computes,
    partition_cost,
    search_min_cost,
    search_min_weight,
    validate,
)

__version__ = "0.1.0"
