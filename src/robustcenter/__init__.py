"""k-center clustering with outliers: randomized greedy solvers, weighted
coresets, exact oracles, and a simulated two-round distributed protocol."""

from .bench import ALGORITHMS, ExperimentSpec, run_experiment
from .core import (
    CenterSet,
    ClusteringEval,
    DistanceStats,
    GuardError,
    NearestTracker,
    ParamSet,
    PointSet,
    ceil_count,
    clustering_cost,
    cost_radius,
    euclidean_dists,
    farthest_m,
    load_distance_matrix_csv,
    load_points_csv,
    peel_weight,
    radius_after_exclusions,
    relaxed_exclusions,
    weighted_cost,
)
from .coreset import (
    UniformSample,
    WeightedCoreset,
    build_coreset,
    build_coreset_auto,
    compose_with_host,
    uniform_sample,
    uniform_sample_size,
)
from .distributed import (
    CommLedger,
    ProtocolResult,
    ShardedInstance,
    SiteProfile,
    StepFunction,
    ThresholdDecision,
    assemble,
    coordinator_threshold,
    outlier_budget_grid,
    run_protocol,
    site_round_one,
)
from .generate import (
    GeneratorSpec,
    PlantedInstance,
    meb_approx,
    planted_instance,
)
from .greedy import (
    GreedyConfig,
    GreedyRun,
    SublinearConfig,
    bicriteria,
    boost_repetitions,
    greedy_config,
    sublinear_bicriteria,
    sublinear_config,
    two_approx,
    two_approx_boosted,
)
from .solvers import (
    OracleResult,
    brute_force_opt,
    charikar_3approx,
    gonzalez,
)

__version__ = "0.1.0"
