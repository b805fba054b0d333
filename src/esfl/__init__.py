"""Split federated learning: latency models, joint cut-layer/server-compute
allocation, Monte-Carlo round simulation, and a toy split-training engine."""

from .allocation import (
    Allocation,
    AlternateResult,
    OptimizerConfig,
    RowPlan,
    alternate,
    brute_force_joint,
    equalize_min_max,
    plan_rows,
    server_demand_terms,
)
from .comm import ChannelParams, LinkRates, link_rates, shannon_rate
from .errors import (
    AllocationError,
    ConfigError,
    EsflError,
    InfeasibleLinkError,
    InfeasibleUserError,
    ProfileError,
)
from .simulation import (
    ALGORITHMS,
    CutLayerDistribution,
    RoundRecord,
    ScenarioSpec,
    SimOptions,
    SimulationReport,
    convergence_study,
    preset_scenarios,
    price_rounds,
    run_simulation,
    sample_rounds,
)
from .split_training import (
    DenseNet,
    SplitState,
    ToyUser,
    concatenate,
    esfl_train,
    federated_aggregate,
    init_dense_net,
    loss_and_grads,
    loss_value,
    make_blobs,
    monolithic_update,
    split_net,
    split_update,
)
from .timing import (
    RoundTerms,
    default_fixed_cut,
    esfl_round_time,
    feasibility_mask,
    fl_round_time,
    round_terms,
    sfl_round_time,
    sl_round_time,
)
from .users import UserBatch, UserProfile
from .workload import (
    LayerProfile,
    ModelArchitecture,
    builtin_profiles,
    load_architecture,
    load_builtin,
)

__version__ = "0.1.0"
