"""Measurement-budget estimate m_est and the sampler's reward.

For a partition of the Hamiltonian terms into compatible groups, the number
of single-shot measurements needed to reach accuracy epsilon is estimated as

    m_est = (1 / epsilon^2) * (sum_g sqrt(sum_{j in g} c_j^2))^2

which substitutes the covariance-free bound Var <= sum c^2 into the exact
shot-allocation formula (1/eps^2)(sum_g sqrt(Var_g))^2. The sampler reward
trades group count against the measurement estimate:

    reward = (n_terms - max_color) + lambda0 / m_est

batch_metrics is the one implementation of both, for a batch of assignment
rows (term j in group assignments[b, j]) at once: the sampler runs it on its
rollouts, and estimate_measurements on one coloring's row.

MeasurementConfig holds epsilon and lambda0 as floats, both positive and
finite, with epsilon**2 and epsilon**-2 finite too. Large coefficients or a
small epsilon can still overflow m_est, and a large lambda0 over a tiny m_est
the reward; batch_metrics rejects both, and check_metrics_finite checks a
Hamiltonian's every grouping at once.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .graphs import Coloring, IncompleteColoringError, InvalidColoringError
from .pauli import QubitHamiltonian

CHEMICAL_ACCURACY_HA = 1.6e-3


@dataclass(frozen=True)
class MeasurementConfig:
    epsilon: float = CHEMICAL_ACCURACY_HA
    lambda0: float = 1e6

    def __post_init__(self):
        eps, lambda0 = as_real("epsilon", self.epsilon), as_real("lambda0", self.lambda0)
        object.__setattr__(self, "epsilon", eps)  # frozen
        object.__setattr__(self, "lambda0", lambda0)
        try:  # m_est divides by epsilon**2, so neither it nor epsilon**-2 may overflow
            usable = 0 < eps < math.inf and math.isfinite(eps**2 + eps**-2)
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(f"epsilon, epsilon**2, epsilon**-2 must be positive and finite, got {eps}")
        if not 0 < lambda0 < math.inf:
            raise ValueError(f"lambda0 must be positive and finite, got {lambda0}")


def as_real(name: str, value) -> float:
    """value as a float; ValueError for a bool or anything else that is not
    a real number. An int past the largest float gives inf."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def batch_metrics(
    h: QubitHamiltonian, assignments: np.ndarray, cfg: MeasurementConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m_est, reward, color_count), each (B,), of complete rows (B, n) whose
    colors run 1..color_count; a term of color 0 is in no group.

    One bincount with row offsets sums every row's c^2 per color. m_est keeps
    the bits of summing one row's nonzero sums alone: a row sums only its
    first color_count entries (zero padding would regroup numpy's pairwise
    sum), and float_power squares with libm's pow, as scalar ** does.
    Raises ValueError if any m_est or reward overflows.
    """
    batch = assignments.shape[0]
    colors = assignments.max(axis=1, initial=0)
    width = int(colors.max(initial=0)) + 1
    slots = assignments + width * np.arange(batch)[:, None]
    with np.errstate(over="ignore", divide="ignore"):  # an overflow is reported below
        weights = np.broadcast_to(h.coefficients() ** 2, assignments.shape).ravel()
        per_color = np.bincount(slots.ravel(), weights=weights, minlength=batch * width)
        per_color = per_color.reshape(batch, width)[:, 1:]
        roots = np.empty(batch)
        for c in set(colors.tolist()):
            rows = colors == c
            roots[rows] = np.sqrt(per_color[rows, :c]).sum(axis=1)
        m_est = np.float_power(roots, 2) / cfg.epsilon**2
        rewards = (h.n_terms - colors) + cfg.lambda0 / m_est
    if not np.all(np.isfinite(m_est)):
        raise ValueError(f"m_est overflows: coefficients too large for epsilon {cfg.epsilon}")
    if not np.all(np.isfinite(rewards)):
        tiny = float(m_est.min())
        raise ValueError(f"reward overflows: lambda0 {cfg.lambda0} too large for m_est {tiny!r}")
    return m_est, rewards, colors


def check_metrics_finite(h: QubitHamiltonian, cfg: MeasurementConfig) -> None:
    """ValueError unless every grouping of h's terms has a finite m_est and
    reward at cfg. Since sqrt is subadditive, every m_est lies between the
    all-in-one-group row's, which gives the largest reward, and the
    one-term-per-group row's, so batch_metrics checks those two rows."""
    batch_metrics(h, np.stack([np.arange(1, h.n_terms + 1), np.ones(h.n_terms, np.int64)]), cfg)


def estimate_measurements(
    h: QubitHamiltonian, coloring: Coloring, epsilon: float = CHEMICAL_ACCURACY_HA
) -> float:
    """Estimated shots to reach accuracy epsilon with one circuit per color:
    batch_metrics' m_est of the row that ranks the colors 1..k, so a coloring
    that skips colors has the m_est of its contiguous relabelling. Raises
    InvalidColoringError for a coloring of the wrong length and
    IncompleteColoringError for one with an uncolored term."""
    # raises ValueError on an unusable epsilon; the reward, unused here, takes
    # the smallest lambda0, so that it overflows only where m_est is 0
    cfg = MeasurementConfig(epsilon=epsilon, lambda0=math.ulp(0.0))
    if coloring.n_vertices != h.n_terms:
        raise InvalidColoringError(f"coloring covers {coloring.n_vertices} terms, Hamiltonian has {h.n_terms}")
    if not coloring.is_complete():
        raise IncompleteColoringError("coloring has uncolored terms")
    ranks = np.unique(coloring.assignment, return_inverse=True)[1] + 1
    return float(batch_metrics(h, ranks[None], cfg)[0][0])
