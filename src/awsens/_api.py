"""The public names of the library, which ``awsens`` copies into its
namespace at the first one read (see ``awsens.__getattr__``)."""

from .adapted_wasserstein import (
    AWParams,
    AWResult,
    CouplingTree,
    aw_distance,
    aw_pth_power,
    bicausalize,
    brute_force_bicausal,
    check_causal,
    flat_wasserstein,
    is_bicausal,
    product_coupling,
)
from .cost_models import (
    CostModel,
    LossFunction,
    PayoffFunction,
    UtilityModel,
    audit_derivatives,
    build_utility_cost,
    catalog_names,
    make_cost_model,
    make_loss,
    make_payoff,
    make_scalar_payoff,
    make_utility_model,
    register_cost_model,
)
from .errors import (
    AmbiguousStopping,
    AwsensError,
    DeltaTooSmall,
    DimensionMismatch,
    FlatStep,
    HorizonMismatch,
    Infeasible,
    InvalidCoupling,
    InvalidParams,
    InvalidTree,
    MaxIterations,
    NonFinite,
    NotCausal,
    NotConvex,
    TooLarge,
)
from .discrete_ot import TransportPlan, TransportProblem, solve_exact
from .multistage_opt import (
    ControlBounds,
    ControlPolicy,
    ValueReport,
    brute_force_value,
    solve_value,
    uniqueness_spread,
)
from .optimal_stopping import (
    SnellTable,
    StoppingPolicy,
    brute_force_stopping,
    count_stopping_policies,
    solve_stopping,
)
from .process_tree import (
    Node,
    PathTable,
    ScenarioTree,
    conditional_expectation,
    gen_binomial,
    gen_lattice,
    gen_random,
    is_isomorphic,
    tree_from_nested,
)
from .robust_oracle import (
    CurveRow,
    RobustCurve,
    RobustQuery,
    ball_membership,
    robust_curve,
)
from .sensitivity import (
    SensitivityReport,
    WorstCaseDirection,
    perturbed_model,
    perturbed_model_with_coupling,
    sensitivity_control,
    sensitivity_stopping,
    sensitivity_terminal,
    utility_first_order,
    worst_case_direction,
)
