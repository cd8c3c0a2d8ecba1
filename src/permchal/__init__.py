"""permchal: permutation-challenge games, reference attacks, bound
evaluation, and exhaustive verification of Shearer-type inequalities
over bijections."""

from .attacks import (
    BsgsAdversary,
    ChainPreprocessingDlog,
    ConstantGuessAdversary,
    DaemenEmAdversary,
    MiGameResult,
    PollardRhoAdversary,
    SqddhMajorityAdversary,
    run_mi_game,
)
from .bounds import BoundTheorem, evaluate_bound
from .errors import ContractViolation, PermchalError, ValidationError
from .games import GameKind, build_game, measure_uniformity, play_game
from .harness import ExperimentSpec, run_trials, sweep_grid, verify_inequalities
from .infotheory import (
    INFINITE,
    FiniteDistribution,
    JointDistribution,
    kl_bernoulli,
    kl_divergence,
)
from .midgame import MidConstraints, mid_simulation_oracle, play_mid_game
from .shearer import (
    BijectionDistribution,
    CoverFamily,
    ReadKFamily,
    ReadKFunction,
    bijection_shearer_gap,
    extremal_ratio_search,
    indicator_shearer_gap,
    marginal_distribution,
    product_shearer_gap,
    read_k_concentration_gap,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
