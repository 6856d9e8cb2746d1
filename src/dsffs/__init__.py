"""Dynamic sparse federated feature selection.

Sparse MLPs trained under simulated horizontal federated learning whose
input-layer topology is pruned and regrown on a fixed schedule to select
the K most informative features while conserving the connection budget.

The package root exports the library entry points (`generate_synthetic`,
`partition_noniid`, `FedConfig`, `plan_run`, `run_training`) and the
types their signatures expose; everything else lives in the submodules.
"""

import os

# output bytes depend on the BLAS thread count, and the clients are the
# parallelism: one BLAS thread each, unless the caller set a count first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .data import Dataset, PartitionedDataset, generate_synthetic, partition_noniid
from .fed_core import FedConfig, RunPlan, ServerState, plan_run, run_training
from .input_selector import SelectionResult
from .metrics import RoundMetrics

__all__ = [
    "Dataset",
    "FedConfig",
    "PartitionedDataset",
    "RoundMetrics",
    "RunPlan",
    "SelectionResult",
    "ServerState",
    "generate_synthetic",
    "partition_noniid",
    "plan_run",
    "run_training",
]

__version__ = "0.1.0"
