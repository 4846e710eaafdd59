"""Shared input checks used across the public API."""

from __future__ import annotations

import numbers

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when predict/transform is called before fit."""


def check_grid_size(N) -> int:
    if not isinstance(N, numbers.Integral):
        raise ValueError(f"grid size N must be an integer, got {N!r}")
    N = int(N)
    if N < 1:
        raise ValueError(f"grid size N must be >= 1, got {N}")
    return N


def check_mean_number(p) -> float:
    """Validate the circle radius squared (mean particle number)."""
    if not isinstance(p, numbers.Real):
        raise ValueError(f"mean number p must be a real scalar, got {p!r}")
    p = float(p)
    if not np.isfinite(p):
        raise ValueError(f"mean number p must be finite, got {p}")
    if p == 0.0:
        # all grid points collapse to the origin; every mode weight above
        # n = 0 vanishes identically, so reconstruction is undefined
        raise ValueError("mean number p = 0 is degenerate; use p > 0")
    if p < 0.0:
        raise ValueError(f"mean number p must be positive, got {p}")
    return p


def check_order(M, name: str = "M") -> int:
    if not isinstance(M, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {M!r}")
    M = int(M)
    if M < 0:
        raise ValueError(f"{name} must be >= 0, got {M}")
    return M


def as_complex_vector(values, name: str = "values") -> np.ndarray:
    """Coerce to a finite 1-d complex array (always a fresh copy)."""
    arr = np.array(values, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return check_finite(arr, name)


def check_finite(arr: np.ndarray, name: str = "values") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite entries")
    return arr


def as_finite_points(z) -> np.ndarray:
    """Evaluation points z as a complex array; NaN or inf is a ValueError."""
    return check_finite(np.asarray(z, dtype=complex), "evaluation points z")


def check_fitted(obj, attr: str) -> None:
    if getattr(obj, attr, None) is None:
        raise NotFittedError(
            f"{type(obj).__name__} is not fitted yet; call fit() first"
        )
