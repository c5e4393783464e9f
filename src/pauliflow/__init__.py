"""Measurement-aware grouping of Pauli-word Hamiltonians.

Partition a qubit Hamiltonian into simultaneously measurable fragments via
conflict-graph coloring: greedy baselines, an exact small-instance search,
and a trainable flow-network sampler whose reward balances group count
against the estimated measurement budget.
"""
from .gflownet import (
    ColoringMDP,
    TrainConfig,
    TrainedSampler,
    flow_matching_loss,
    train,
)
from .graphs import (
    CompatGraph,
    Coloring,
    Grouping,
    build_complement_graph,
    coloring_to_dot,
    coloring_to_grouping,
    exact_min_colors,
    greedy_color,
    validate_coloring,
)
from .hamio import (
    bundled_path,
    dump_hamiltonian,
    load_hamiltonian,
    loads_hamiltonian,
    write_hamiltonian,
)
from .measurement import MeasurementConfig, estimate_measurements
from .nn import AdamState, DenseNet, adam_accumulate_and_step, load_checkpoint, save_checkpoint
from .pauli import PauliWord, QubitHamiltonian, commutes_fc, commutes_qwc

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Coloring",
    "ColoringMDP",
    "CompatGraph",
    "DenseNet",
    "Grouping",
    "MeasurementConfig",
    "PauliWord",
    "QubitHamiltonian",
    "TrainConfig",
    "TrainedSampler",
    "adam_accumulate_and_step",
    "build_complement_graph",
    "bundled_path",
    "coloring_to_dot",
    "coloring_to_grouping",
    "commutes_fc",
    "commutes_qwc",
    "dump_hamiltonian",
    "estimate_measurements",
    "exact_min_colors",
    "flow_matching_loss",
    "greedy_color",
    "load_checkpoint",
    "load_hamiltonian",
    "loads_hamiltonian",
    "save_checkpoint",
    "train",
    "validate_coloring",
    "write_hamiltonian",
]
