"""Neuron importance scoring and structured pruning of small ReLU networks.

The pipeline: train (or load) a network, propagate per-input activation
bounds, encode the network and a balanced batch as a mixed-integer program
whose continuous importance variables damp each unit, solve it exactly
with the bundled simplex / branch-and-bound engine, then threshold the
scores into a pruning mask and measure what survives.
"""

from .bounds import IntervalBounds, check_soundness, propagate, propagate_batch
from .datasets import Dataset, balanced_batch, load_dataset, make_dataset, save_dataset, split_dataset
from .encoding import MipModel, add_lse_cut, encode_maxpool, encode_network
from .errors import (
    InvalidArgument,
    MipPruneError,
    ModelFormatError,
    NoIncumbent,
    TrainingDiverged,
    UnsupportedFeature,
)
from .linalg import ConvSpec, conv_to_matrix, matvec
from .lpformat import read_solution, write_lp, write_solution
from .network import (
    LayerSpec,
    Mask,
    Network,
    apply_mask,
    avgpool,
    build_network,
    conv,
    dense,
    flatten,
    forward,
    init_network,
    load_network,
    maxpool,
    save_network,
)
from .pruning import (
    ExperimentResult,
    ImportanceReport,
    baselines,
    compare_baselines,
    mask_from_scores,
    score,
    score_classwise,
    sweep,
    transfer,
)
from .solver import SolveConfig, Solution, solve_lp, solve_mip, warm_start
from .training import TrainConfig, evaluate, loss_and_grads, train

__version__ = "0.1.0"
