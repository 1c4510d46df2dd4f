"""Constructive ReLU network calculus and stiff-SDE value synthesis."""

__version__ = "0.1.0"

from .network import (
    Layer,
    Network,
    NetworkShapeError,
    fold_affine,
    load_network,
    network_from_text,
    network_to_text,
    realize,
    save_network,
    unstack,
)
from .calculus import (
    add_compose,
    combine,
    compose,
    extend_depth,
    identity_net,
    max_tree,
    min_tree,
    parallel_shared,
    psi_max_net,
    square_unit_net,
    weighted_square_net,
    widen_layer,
)
from .sde import (
    EulerConfig,
    PathBundle,
    PerturbedCoefficients,
    StiffSystem,
    coupled_gap_check,
    drawing_threads,
    exact_coefficients,
    moment_check,
    ou_exact_value,
    rate_study,
    simulate,
    step_pes,
    validate_system,
)
from .synthesis import (
    SynthesisBudget,
    calibrate_cplan,
    cube_tau,
    l2_error,
    mc_reference,
    plan_budget,
    truncation_radius,
    unroll_value_net,
)
from .game import (
    StrategyGrid,
    brute_force_game_value,
    controlled_value_net,
    enumerate_strategies,
    game_delta,
    infsup_net,
    pair_value_nets,
)
from .systems import (
    CostPack,
    RECIPES,
    SystemRecipe,
    make_controlled_relu_drift,
    make_galerkin_heat,
    make_ou,
    make_quadratic_cost,
    make_relu_drift_system,
    make_system,
    perturb_coefficients,
)
