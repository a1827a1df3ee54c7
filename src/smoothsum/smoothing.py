"""Label-smoothed target distributions and the cross-entropy around them.

A smoothed target puts 1 - epsilon on the gold index and spreads epsilon
uniformly over the remaining vocabulary entries (all of them, including
special tokens; padding is excluded from the loss mask instead, never from
the smoothing support).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_LOG_CLAMP = 1e-12


@dataclass
class TargetDistribution:
    probs: np.ndarray


def smooth_targets(y: int, n_vocab: int, epsilon: float) -> TargetDistribution:
    """(1 - eps) at the gold index, eps / (n_vocab - 1) everywhere else:
    the one-row case of smooth_target_matrix."""
    if not 0 <= y < n_vocab:
        raise ConfigurationError(f"target index {y} outside [0, {n_vocab})")
    return TargetDistribution(
        probs=smooth_target_matrix(np.asarray(y), n_vocab, epsilon))


def smooth_target_matrix(target_ids: np.ndarray, n_vocab: int,
                         epsilon: float) -> np.ndarray:
    """Row-per-position smoothed targets for an id array of any shape."""
    if n_vocab < 2:
        raise ConfigurationError(f"vocabulary size {n_vocab} must be >= 2")
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError(f"epsilon {epsilon} outside [0, 1]")
    ids = np.asarray(target_ids)
    out = np.full(ids.shape + (n_vocab,), epsilon / (n_vocab - 1),
                  dtype=np.float64)
    np.put_along_axis(out, ids[..., None], 1.0 - epsilon, axis=-1)
    return out


def cross_entropy(predicted: np.ndarray, target: TargetDistribution) -> float:
    """-sum_k t(k) ln p(k) in nats; probabilities clamped at 1e-12."""
    predicted = np.asarray(predicted, dtype=np.float64)
    if predicted.shape != target.probs.shape:
        raise ConfigurationError(
            f"prediction length {predicted.shape} does not match "
            f"target length {target.probs.shape}")
    if abs(predicted.sum() - 1.0) > 1e-6:
        raise ConfigurationError("predicted vector does not sum to 1")
    return float(-np.sum(target.probs * np.log(np.maximum(predicted, _LOG_CLAMP))))


def loss_floor(epsilon: float, n_vocab: int) -> float:
    """Entropy of the smoothed target: the minimum achievable smoothed
    cross-entropy, reached when the prediction equals the target."""
    if n_vocab < 2:
        raise ConfigurationError(f"vocabulary size {n_vocab} must be >= 2")
    if epsilon == 0.0:
        return 0.0
    spread = -epsilon * np.log(epsilon / (n_vocab - 1))
    if epsilon == 1.0:
        return float(spread)
    return float(-(1.0 - epsilon) * np.log(1.0 - epsilon) + spread)
