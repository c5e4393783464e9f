"""Measurement-budget estimate for a grouping, and the reward's settings.

For a partition of the Hamiltonian terms into compatible groups, the number
of single-shot measurements needed to reach accuracy epsilon is estimated as

    m_est = (1 / epsilon^2) * (sum_g sqrt(sum_{j in g} c_j^2))^2

which substitutes the covariance-free bound Var <= sum c^2 into the exact
shot-allocation formula (1/eps^2)(sum_g sqrt(Var_g))^2. A user-supplied
per-group variance callback can replace the bound when a wavefunction-based
estimate is available.

The sampler reward trades group count against the measurement estimate:

    reward = (n_terms - max_color) + lambda0 / m_est

MeasurementConfig holds epsilon and lambda0. The sampler computes m_est and
the reward itself, for a whole batch of assignment rows at once, in
gflownet._terminal_metrics; tests pin its m_est to estimate_measurements.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Grouping
from .pauli import QubitHamiltonian

CHEMICAL_ACCURACY_HA = 1.6e-3


class EmptyGroupingError(ValueError):
    pass


@dataclass(frozen=True)
class MeasurementConfig:
    epsilon: float = CHEMICAL_ACCURACY_HA
    lambda0: float = 1e6

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.lambda0 > 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")


GroupVariance = Callable[[Sequence[int]], float]


def estimate_measurements(
    h: QubitHamiltonian,
    grouping: Grouping,
    epsilon: float = CHEMICAL_ACCURACY_HA,
    group_variance: GroupVariance | None = None,
) -> float:
    """Estimated shots to reach accuracy epsilon with one circuit per group.

    group_variance, when given, maps a group's term indices to Var of that
    fragment and overrides the default bound sum(c^2).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if grouping.n_groups == 0:
        raise EmptyGroupingError("grouping has no groups")
    coeffs = h.coefficients()
    total = 0.0
    for group in grouping.groups:
        for j in group:
            if not 0 <= j < h.n_terms:
                raise IndexError(f"group references term {j}, Hamiltonian has {h.n_terms}")
        if group_variance is not None:
            var = float(group_variance(group))
        else:
            var = float(np.sum(coeffs[list(group)] ** 2))
        total += np.sqrt(var)
    return float(total**2 / epsilon**2)
