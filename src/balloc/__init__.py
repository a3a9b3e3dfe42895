"""Sampling-free DP accounting for matrix mechanisms under balls-in-bins batching."""

from .mechanism import (
    GramSummary,
    MixtureMeans,
    Schedule,
    StrategyMatrix,
    build_identity,
    cyclic_truncate,
    gram,
    gram_summary,
    inv_sqrt_toeplitz_coefficients,
    invert_banded_toeplitz,
    mixture_means,
    read_matrix,
    sqrt_toeplitz_coefficients,
    write_matrix,
)
from .renyi import (
    RenyiCurve,
    renyi_add_bound,
    renyi_curve,
    renyi_remove_orders,
    renyi_to_delta,
)
from .pld import (
    ADD,
    REMOVE,
    DiscretePLD,
    MixGaussPair,
    compose,
    compose_power,
    delta_at,
    discretize,
)
from .condcomp import (
    AllocationPlan,
    VariationalFamily,
    cond_comp_pld,
    reverse_hazard_weights,
    step_hazards,
)
from .mc import MCEstimate
from .calibrate import (
    PrivacyPoint,
    UnachievableTargetError,
    calibrate_sigma,
    profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
