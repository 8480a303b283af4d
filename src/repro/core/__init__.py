"""The paper's contribution: hopsets, k-nearest, skeletons, APSP pipelines."""

from .apsp import approximate_apsp, apsp_theorem11, simulation_bandwidth_words
from .baselines import exact_apsp_baseline, spanner_only_baseline, uy90_baseline
from .factor_reduction import reduce_approximation, solve_skeleton_apsp
from .hopsets import HopsetResult, build_knearest_hopset
from .knearest import (
    BinPlan,
    KNearestInexact,
    KNearestResult,
    knearest_exact,
    knearest_exact_via_hopset,
    knearest_iterated,
    knearest_one_round,
    make_bin_plan,
)
from .large_bandwidth import apsp_large_bandwidth, scaled_bandwidth_words
from .params import ReductionPlan, plan_reduction
from .registry import (
    VARIANTS,
    VariantSpec,
    register_variant,
    run_variant,
)
from .results import Estimate
from .skeleton import (
    skeleton_xy_matrices,
    Skeleton,
    SkeletonError,
    build_hitting_set,
    build_skeleton,
    extend_estimate,
    verify_skeleton_conditions,
)
from .small_diameter import (
    apsp_round_limited,
    apsp_small_diameter,
    exact_fallback,
    tradeoff_factor_bound,
)
from .tradeoff import apsp_tradeoff
from .weight_scaling import (
    ScalingPlan,
    assemble_eta,
    build_scaled_graph,
    clip_estimate,
    plan_scaling,
    verify_scaling_guarantees,
)
from .zero_weights import compress_zero_components, lift_zero_weights

__all__ = [
    "BinPlan",
    "Estimate",
    "HopsetResult",
    "KNearestInexact",
    "KNearestResult",
    "ReductionPlan",
    "ScalingPlan",
    "Skeleton",
    "SkeletonError",
    "VARIANTS",
    "VariantSpec",
    "approximate_apsp",
    "apsp_large_bandwidth",
    "apsp_round_limited",
    "apsp_small_diameter",
    "apsp_theorem11",
    "apsp_tradeoff",
    "assemble_eta",
    "build_hitting_set",
    "build_knearest_hopset",
    "build_scaled_graph",
    "build_skeleton",
    "clip_estimate",
    "compress_zero_components",
    "exact_apsp_baseline",
    "exact_fallback",
    "extend_estimate",
    "knearest_exact",
    "knearest_exact_via_hopset",
    "knearest_iterated",
    "knearest_one_round",
    "lift_zero_weights",
    "make_bin_plan",
    "plan_reduction",
    "plan_scaling",
    "reduce_approximation",
    "register_variant",
    "run_variant",
    "scaled_bandwidth_words",
    "simulation_bandwidth_words",
    "skeleton_xy_matrices",
    "solve_skeleton_apsp",
    "spanner_only_baseline",
    "tradeoff_factor_bound",
    "uy90_baseline",
    "verify_scaling_guarantees",
    "verify_skeleton_conditions",
]
