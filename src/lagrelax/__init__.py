"""MAP estimation in discrete and Gaussian graphical models by Lagrangian
relaxation over thin augmented graphs."""

from .models import (
    LABELS,
    CliqueTerm,
    DiscreteFactorModel,
    GaussianInfoModel,
    Hypergraph,
    ModelError,
    NotPairwiseNormalizableError,
    NotPositiveDefiniteError,
    evaluate_objective,
    split_quadratic_cliques,
    validate_model,
)
from .modelio import model_to_text, parse_model_text, read_model, write_model
from .decomposition import (
    DecompositionConfig,
    DecompositionError,
    ReplicationMap,
    UncoveredEdgeError,
    add_intermediaries,
    build_decomposition,
    ensure_singletons,
    lift_assignment,
    project_assignment,
    split_potentials,
)
from .inference import SubgraphEngine, build_engines, gaussian_marginal_info, min_fill_order
from .discrete import (
    DiscreteRelaxation,
    SolveReport,
    TemperatureSchedule,
    build_relaxation,
    solve_discrete,
)
from .gaussian import (
    GaussianRelaxation,
    GaussianSolveReport,
    build_gaussian_relaxation,
    solve_gaussian,
)
from .multiscale import (
    MultiscaleModel,
    build_multiscale,
    cross_scale_update,
    multiscale_consistency_residual,
    multiscale_objective,
    solve_multiscale,
    summary_multipliers,
)
from .oracle import brute_force_map, exact_gaussian_solve, exact_grid_map
from .generators import (
    generate_chain_membrane,
    generate_ising_grid,
    generate_thin_membrane,
    generate_thin_plate,
    grid_edges,
)
from .baselines import (
    baseline_block_gauss_seidel,
    baseline_gaussian_lbp,
    overlapping_blocks_1d,
    vertical_strip_blocks,
)
from .experiments import parse_config_text, run_experiment

__version__ = "0.1.0"
