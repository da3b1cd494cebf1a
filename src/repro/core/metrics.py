"""Accuracy metrics used throughout the evaluation.

The paper reports accuracy exclusively as RMSE on normalized data; MAE is
provided for completeness and used in extended experiments.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rmse", "mae"]


def _flatten_pair(prediction: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    prediction = np.asarray(prediction, dtype=float).reshape(-1)
    target = np.asarray(target, dtype=float).reshape(-1)
    if prediction.shape != target.shape:
        raise ValueError(
            f"prediction and target sizes disagree: {prediction.shape} vs {target.shape}"
        )
    if prediction.size == 0:
        raise ValueError("cannot score empty arrays")
    return prediction, target


def rmse(prediction: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared error."""
    prediction, target = _flatten_pair(prediction, target)
    return float(np.sqrt(np.mean((prediction - target) ** 2)))


def mae(prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error."""
    prediction, target = _flatten_pair(prediction, target)
    return float(np.mean(np.abs(prediction - target)))

