"""Dynamic sparse federated feature selection.

Sparse MLPs trained under simulated horizontal federated learning whose
input-layer topology is pruned and regrown on a fixed schedule to select
the K most informative features while conserving the connection budget.
"""

from .data import (
    Dataset,
    PartitionedDataset,
    generate_synthetic,
    load_csv,
    load_dataset,
    load_idx,
    load_libsvm,
    normalize,
    partition_noniid,
)
from .dst_update import TopologyDelta, gradient_regrow_hidden, magnitude_prune_hidden
from .fed_core import (
    ClientState,
    FedConfig,
    ServerState,
    aggregate,
    local_train,
    resparsify_and_reconcile,
    run_training,
)
from .input_selector import (
    InputLayerState,
    InputSchedule,
    ScheduleCounts,
    SelectionResult,
    compute_schedule,
    prune_input,
    regrow_input,
    select_features,
)
from .metrics import (
    MetricsRecorder,
    RoundMetrics,
    accuracy,
    flops_per_example,
    inference_flops,
    upload_cost_bits,
)
from .sparse_net import (
    ConfigError,
    Gradients,
    SparseLayer,
    SparseNetwork,
    backward,
    forward,
    init_er_topology,
    sgd_step,
    softmax_cross_entropy,
)

__all__ = [
    "ClientState",
    "ConfigError",
    "Dataset",
    "FedConfig",
    "Gradients",
    "InputLayerState",
    "InputSchedule",
    "MetricsRecorder",
    "PartitionedDataset",
    "RoundMetrics",
    "ScheduleCounts",
    "SelectionResult",
    "ServerState",
    "SparseLayer",
    "SparseNetwork",
    "TopologyDelta",
    "accuracy",
    "aggregate",
    "backward",
    "compute_schedule",
    "flops_per_example",
    "forward",
    "generate_synthetic",
    "gradient_regrow_hidden",
    "inference_flops",
    "init_er_topology",
    "load_csv",
    "load_dataset",
    "load_idx",
    "load_libsvm",
    "local_train",
    "magnitude_prune_hidden",
    "normalize",
    "partition_noniid",
    "prune_input",
    "regrow_input",
    "resparsify_and_reconcile",
    "run_training",
    "select_features",
    "sgd_step",
    "softmax_cross_entropy",
    "upload_cost_bits",
]

__version__ = "0.1.0"
